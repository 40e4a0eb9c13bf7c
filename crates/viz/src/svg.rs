//! Standalone SVG rendering (no external tools required).
//!
//! A simple layered layout: one row per qubit level (root on top), the
//! terminal box at the bottom, nodes evenly spaced per row in BFS order.
//! Edge-weight encodings follow the active [`VizStyle`].
#![allow(clippy::write_with_newline)] // SVG fragments embed their newlines

use crate::color::{phase_to_color, weight_color, weight_thickness};
use crate::style::{EdgeWeightDisplay, NodeLook, VizStyle};
use qdd_complex::{Complex, FxHashMap};
use qdd_core::graph::DdGraph;
use qdd_core::{DdPackage, MatEdge, VecEdge};
use std::fmt::Write as _;

const H_SPACING: f64 = 110.0;
const V_SPACING: f64 = 90.0;
const MARGIN: f64 = 50.0;
const NODE_R: f64 = 18.0;
const MODERN_W: f64 = 64.0;
const MODERN_H: f64 = 36.0;

/// Renders a state diagram to a standalone SVG document.
pub fn vector_to_svg(dd: &DdPackage, e: VecEdge, style: &VizStyle) -> String {
    graph_to_svg(&DdGraph::from_vector(dd, e), style)
}

/// Renders an operator diagram to a standalone SVG document.
pub fn matrix_to_svg(dd: &DdPackage, e: MatEdge, style: &VizStyle) -> String {
    graph_to_svg(&DdGraph::from_matrix(dd, e), style)
}

/// Renders an extracted [`DdGraph`] to SVG.
pub fn graph_to_svg(graph: &DdGraph, style: &VizStyle) -> String {
    let levels = graph.levels();
    let max_per_level = levels.iter().map(|l| l.len()).max().unwrap_or(1).max(1);
    let width = 2.0 * MARGIN + max_per_level as f64 * H_SPACING;
    let rows = graph.num_levels + 2; // root anchor + levels + terminal
    let height = 2.0 * MARGIN + rows as f64 * V_SPACING;

    // Position map: key → (x, y).
    let mut pos: FxHashMap<u32, (f64, f64)> = FxHashMap::default();
    for (row, level) in levels.iter().enumerate() {
        let y = MARGIN + (row as f64 + 1.0) * V_SPACING;
        let count = level.len() as f64;
        for (i, n) in level.iter().enumerate() {
            let x = width / 2.0 + (i as f64 - (count - 1.0) / 2.0) * H_SPACING;
            pos.insert(n.key, (x, y));
        }
    }
    let terminal_pos = (width / 2.0, MARGIN + (rows as f64 - 1.0) * V_SPACING);

    let mut out = String::new();
    let _ = write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {width:.0} {height:.0}\" \
         font-family=\"Helvetica, sans-serif\" font-size=\"12\">\n"
    );
    out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");

    // Edges first (under the nodes).
    let slot_offset = |slots: usize, slot: u8| -> f64 {
        (slot as f64 - (slots as f64 - 1.0) / 2.0) * (NODE_R * 0.9)
    };
    let anchor = (width / 2.0, MARGIN + V_SPACING * 0.35);
    let root_to = match graph.root {
        Some(key) => pos[&key],
        None => terminal_pos,
    };
    draw_edge(
        &mut out,
        anchor,
        (root_to.0, root_to.1 - node_half_height(style)),
        graph.root_weight,
        style,
        true,
    );

    for edge in &graph.edges {
        let from = pos[&edge.from];
        let fx = from.0 + slot_offset(graph.slots(), edge.slot);
        let fy = from.1 + node_half_height(style);
        if edge.is_zero() {
            if style.retract_zero_stubs {
                // Tiny stub dot hanging off the node.
                let _ = write!(
                    out,
                    "<line x1=\"{fx:.1}\" y1=\"{fy:.1}\" x2=\"{fx:.1}\" y2=\"{:.1}\" \
                     stroke=\"black\" stroke-width=\"1\"/>\n<circle cx=\"{fx:.1}\" cy=\"{:.1}\" \
                     r=\"2.5\" fill=\"black\"/>\n",
                    fy + 8.0,
                    fy + 10.0
                );
            } else {
                draw_labelled_line(
                    &mut out,
                    (fx, fy),
                    (terminal_pos.0, terminal_pos.1 - 14.0),
                    "0",
                    "#999999",
                    1.0,
                    true,
                );
            }
            continue;
        }
        let to = match edge.to {
            Some(key) => {
                let p = pos[&key];
                (p.0, p.1 - node_half_height(style))
            }
            None => (terminal_pos.0, terminal_pos.1 - 14.0),
        };
        draw_edge(&mut out, (fx, fy), to, edge.weight, style, false);
        if edge.skip > 0 {
            // Identity-skip pass-through: a parallel hairline plus the
            // skipped-level count beside the midpoint.
            let _ = write!(
                out,
                "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" \
                 stroke=\"#7b2d8b\" stroke-width=\"0.8\"/>\n",
                fx + 3.0,
                fy,
                to.0 + 3.0,
                to.1
            );
            let mx = (fx + to.0) / 2.0 - 22.0;
            let my = (fy + to.1) / 2.0 + 12.0;
            let _ = write!(
                out,
                "<text x=\"{mx:.1}\" y=\"{my:.1}\" font-size=\"10\" \
                 fill=\"#7b2d8b\">⧉{}</text>\n",
                edge.skip
            );
        }
    }

    // Nodes.
    for node in &graph.nodes {
        let (x, y) = pos[&node.key];
        match style.node_look {
            NodeLook::Classic => {
                let _ = write!(
                    out,
                    "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"{NODE_R}\" fill=\"#f5f5f5\" \
                     stroke=\"black\"/>\n<text x=\"{x:.1}\" y=\"{:.1}\" \
                     text-anchor=\"middle\">q{}</text>\n",
                    y + 4.0,
                    node.var
                );
            }
            NodeLook::Modern => {
                let _ = write!(
                    out,
                    "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{MODERN_W}\" height=\"{MODERN_H}\" \
                     rx=\"8\" fill=\"#eef3fb\" stroke=\"#2b4a6f\"/>\n<text x=\"{x:.1}\" \
                     y=\"{:.1}\" text-anchor=\"middle\" fill=\"#2b4a6f\">q{}</text>\n",
                    x - MODERN_W / 2.0,
                    y - MODERN_H / 2.0,
                    y + 4.0,
                    node.var
                );
                // Port ticks along the bottom edge.
                for slot in 0..graph.slots() {
                    let px = x + slot_offset(graph.slots(), slot as u8);
                    let py = y + MODERN_H / 2.0;
                    let _ = write!(
                        out,
                        "<line x1=\"{px:.1}\" y1=\"{:.1}\" x2=\"{px:.1}\" y2=\"{py:.1}\" \
                         stroke=\"#2b4a6f\" stroke-width=\"1\"/>\n",
                        py - 5.0
                    );
                }
            }
        }
    }

    // Terminal.
    if graph.reaches_terminal() {
        let (tx, ty) = terminal_pos;
        let _ = write!(
            out,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"28\" height=\"28\" fill=\"white\" \
             stroke=\"black\"/>\n<text x=\"{tx:.1}\" y=\"{:.1}\" text-anchor=\"middle\">1</text>\n",
            tx - 14.0,
            ty - 14.0,
            ty + 5.0
        );
    }
    out.push_str("</svg>\n");
    out
}

fn node_half_height(style: &VizStyle) -> f64 {
    match style.node_look {
        NodeLook::Classic => NODE_R,
        NodeLook::Modern => MODERN_H / 2.0,
    }
}

fn draw_edge(
    out: &mut String,
    from: (f64, f64),
    to: (f64, f64),
    w: Complex,
    style: &VizStyle,
    is_root: bool,
) {
    match style.edge_weights {
        EdgeWeightDisplay::Labels => {
            let dashed = !w.is_one(1e-9);
            let label = if w.is_one(1e-9) && !is_root {
                String::new()
            } else {
                w.to_label()
            };
            draw_labelled_line(out, from, to, &label, "black", 1.2, dashed);
        }
        EdgeWeightDisplay::ColorAndThickness => {
            let color = weight_color(w).to_hex();
            let width = weight_thickness(w, style.min_stroke, style.max_stroke);
            draw_labelled_line(out, from, to, "", &color, width, false);
        }
    }
}

fn draw_labelled_line(
    out: &mut String,
    from: (f64, f64),
    to: (f64, f64),
    label: &str,
    color: &str,
    width: f64,
    dashed: bool,
) {
    let dash = if dashed { " stroke-dasharray=\"5,3\"" } else { "" };
    let _ = write!(
        out,
        "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"{color}\" \
         stroke-width=\"{width:.2}\"{dash}/>\n",
        from.0, from.1, to.0, to.1
    );
    if !label.is_empty() {
        let mx = (from.0 + to.0) / 2.0 + 6.0;
        let my = (from.1 + to.1) / 2.0 - 4.0;
        let _ = write!(
            out,
            "<text x=\"{mx:.1}\" y=\"{my:.1}\" font-size=\"11\" fill=\"#333333\">{}</text>\n",
            escape_xml(label)
        );
    }
}

fn escape_xml(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders the HLS color wheel of Fig. 7(b) as an SVG legend: `segments`
/// pie slices, phase 0 at 3 o'clock, increasing counter-clockwise.
pub fn color_wheel_svg(segments: usize, radius: f64) -> String {
    let segments = segments.max(3);
    let cx = radius + 10.0;
    let cy = radius + 10.0;
    let size = 2.0 * (radius + 10.0);
    let mut out = String::new();
    let _ = write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {size:.0} {size:.0}\">\n"
    );
    for k in 0..segments {
        let a0 = 2.0 * std::f64::consts::PI * k as f64 / segments as f64;
        let a1 = 2.0 * std::f64::consts::PI * (k + 1) as f64 / segments as f64;
        let mid = (a0 + a1) / 2.0;
        let color = phase_to_color(mid).to_hex();
        // SVG y grows downward; negate for counter-clockwise phases.
        let (x0, y0) = (cx + radius * a0.cos(), cy - radius * a0.sin());
        let (x1, y1) = (cx + radius * a1.cos(), cy - radius * a1.sin());
        let _ = write!(
            out,
            "<path d=\"M {cx:.1} {cy:.1} L {x0:.1} {y0:.1} A {radius:.1} {radius:.1} 0 0 0 \
             {x1:.1} {y1:.1} Z\" fill=\"{color}\"/>\n"
        );
    }
    let _ = write!(
        out,
        "<circle cx=\"{cx:.1}\" cy=\"{cy:.1}\" r=\"{:.1}\" fill=\"white\"/>\n",
        radius * 0.45
    );
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_core::{gates, Control};

    fn bell(dd: &mut DdPackage) -> VecEdge {
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap()
    }

    #[test]
    fn svg_is_well_formed() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        for style in [VizStyle::classic(), VizStyle::colored(), VizStyle::modern()] {
            let svg = vector_to_svg(&dd, b, &style);
            assert!(svg.starts_with("<svg"));
            assert!(svg.ends_with("</svg>\n"));
            assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
        }
    }

    #[test]
    fn classic_svg_shows_labels_and_nodes() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let svg = vector_to_svg(&dd, b, &VizStyle::classic());
        assert!(svg.contains(">q1</text>"));
        assert!(svg.contains(">q0</text>"));
        assert!(svg.contains("1/√2"));
        assert!(svg.contains("stroke-dasharray"), "non-unit root edge dashed");
        assert_eq!(svg.matches("<circle").count() - 2, 3, "3 nodes + 2 stub dots");
    }

    #[test]
    fn colored_svg_encodes_weights_in_strokes() {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(1).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 0).unwrap();
        let minus = dd.apply_gate(s, gates::Z, &[], 0).unwrap(); // |−⟩ has a negative weight
        let svg = vector_to_svg(&dd, minus, &VizStyle::colored());
        assert!(!svg.contains("1/√2"), "no labels in colored mode");
        // Phase π shows as cyan.
        assert!(svg.contains("#00ffff"));
    }

    #[test]
    fn matrix_svg_renders_qft_functionality() {
        let mut dd = DdPackage::new();
        let h = dd.gate_dd(gates::H, &[], 1, 2).unwrap();
        let svg = matrix_to_svg(&dd, h, &VizStyle::colored());
        assert!(svg.contains("<svg"));
        assert!(svg.contains("q1"));
    }

    #[test]
    fn color_wheel_has_requested_segments() {
        let svg = color_wheel_svg(12, 60.0);
        assert_eq!(svg.matches("<path").count(), 12);
        assert!(svg.contains("#ff0000") || svg.contains("#ff"), "reds appear");
    }

    #[test]
    fn modern_look_uses_rects() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let svg = vector_to_svg(&dd, b, &VizStyle::modern());
        assert!(svg.contains("rx=\"8\""));
        assert!(!svg.contains("stub_"));
    }
}
