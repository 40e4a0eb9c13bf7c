//! Graphviz DOT export.

use crate::color::{weight_color, weight_thickness};
use crate::style::{EdgeWeightDisplay, NodeLook, VizStyle};
use qdd_complex::Complex;
use qdd_core::graph::{DdGraph, NodeKind};
use qdd_core::{DdPackage, MatEdge, VecEdge};
use std::fmt::Write as _;

/// Renders a state diagram to DOT.
pub fn vector_to_dot(dd: &DdPackage, e: VecEdge, style: &VizStyle) -> String {
    graph_to_dot(&DdGraph::from_vector(dd, e), style)
}

/// Renders an operator diagram to DOT.
pub fn matrix_to_dot(dd: &DdPackage, e: MatEdge, style: &VizStyle) -> String {
    graph_to_dot(&DdGraph::from_matrix(dd, e), style)
}

/// Renders an extracted [`DdGraph`] to DOT.
pub fn graph_to_dot(graph: &DdGraph, style: &VizStyle) -> String {
    let mut out = String::new();
    out.push_str("digraph dd {\n");
    out.push_str("  rankdir=TB;\n");
    out.push_str("  root [shape=point, style=invis];\n");
    let node_shape = match style.node_look {
        NodeLook::Classic => "circle",
        NodeLook::Modern => "Mrecord",
    };
    let _ = writeln!(
        out,
        "  node [shape={node_shape}, fontname=\"Helvetica\", fontsize=11];"
    );

    // Nodes, grouped per rank.
    for level in graph.levels() {
        if level.is_empty() {
            continue;
        }
        out.push_str("  { rank=same; ");
        for n in &level {
            match style.node_look {
                NodeLook::Classic => {
                    let _ = write!(out, "n{} [label=\"q{}\"]; ", n.key, n.var);
                }
                NodeLook::Modern => {
                    let ports: Vec<String> =
                        (0..graph.slots()).map(|s| format!("<p{s}>")).collect();
                    let _ = write!(
                        out,
                        "n{} [label=\"{{q{}|{{{}}}}}\"]; ",
                        n.key,
                        n.var,
                        ports.join("|")
                    );
                }
            }
        }
        out.push_str("}\n");
    }
    if graph.reaches_terminal() {
        out.push_str("  terminal [shape=box, label=\"1\"];\n");
    }

    // Root edge.
    let root_target = match graph.root {
        Some(key) => format!("n{key}"),
        None => "terminal".to_string(),
    };
    let _ = writeln!(
        out,
        "  root -> {root_target} [{}];",
        edge_attrs(graph.root_weight, style)
    );

    // Child edges and stubs.
    for edge in &graph.edges {
        if edge.is_zero() {
            if style.retract_zero_stubs {
                // 0-stubs "retracted into the nodes themselves": a tiny
                // point hanging off the node.
                let _ = writeln!(
                    out,
                    "  stub_{0}_{1} [shape=point, width=0.04];",
                    edge.from, edge.slot
                );
                let _ = writeln!(
                    out,
                    "  n{0}{2} -> stub_{0}_{1} [arrowhead=none, weight=10];",
                    edge.from,
                    edge.slot,
                    port(style, graph.kind, edge.slot)
                );
            } else {
                let _ = writeln!(
                    out,
                    "  n{}{} -> terminal [label=\"0\", style=dotted];",
                    edge.from,
                    port(style, graph.kind, edge.slot)
                );
            }
            continue;
        }
        let target = match edge.to {
            Some(key) => format!("n{key}"),
            None => "terminal".to_string(),
        };
        let mut attrs = edge_attrs(edge.weight, style);
        if edge.skip > 0 {
            // Identity-skip pass-through: open arrowhead plus the number
            // of skipped levels at the tail.
            let _ = write!(attrs, ", arrowhead=empty, taillabel=\"⧉{}\"", edge.skip);
        }
        let _ = writeln!(
            out,
            "  n{}{} -> {target} [{attrs}];",
            edge.from,
            port(style, graph.kind, edge.slot),
        );
    }
    out.push_str("}\n");
    out
}

/// Tail-port suffix distinguishing successor slots.
fn port(style: &VizStyle, kind: NodeKind, slot: u8) -> String {
    match style.node_look {
        NodeLook::Modern => format!(":p{slot}"),
        NodeLook::Classic => {
            let compass = match (kind, slot) {
                (NodeKind::Vector, 0) => "sw",
                (NodeKind::Vector, _) => "se",
                (NodeKind::Matrix, 0) => "w",
                (NodeKind::Matrix, 1) => "sw",
                (NodeKind::Matrix, 2) => "se",
                (NodeKind::Matrix, _) => "e",
            };
            format!(":{compass}")
        }
    }
}

fn edge_attrs(w: Complex, style: &VizStyle) -> String {
    match style.edge_weights {
        EdgeWeightDisplay::Labels => {
            let label = w.to_label();
            // Weight-1 edges are "frequently omitted"; ≠1 edges dashed.
            if w.is_one(1e-9) {
                "label=\"\"".to_string()
            } else {
                format!("label=\"{label}\", style=dashed")
            }
        }
        EdgeWeightDisplay::ColorAndThickness => {
            let color = weight_color(w).to_hex();
            let pen = weight_thickness(w, style.min_stroke, style.max_stroke);
            format!("color=\"{color}\", penwidth={pen:.2}")
        }
    }
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
    fn classic_dot_has_labels_and_stubs() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let dot = vector_to_dot(&dd, b, &VizStyle::classic());
        assert!(dot.starts_with("digraph dd {"));
        assert!(dot.contains("label=\"q1\""));
        assert!(dot.contains("label=\"q0\""));
        assert!(dot.contains("1/√2"), "root weight label");
        assert!(dot.contains("stub_"), "retracted 0-stubs");
        assert!(dot.contains("terminal [shape=box"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn colored_dot_uses_penwidth_not_labels() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let dot = vector_to_dot(&dd, b, &VizStyle::colored());
        assert!(dot.contains("penwidth="));
        assert!(dot.contains("color=\"#"));
        assert!(!dot.contains("1/√2"));
    }

    #[test]
    fn modern_dot_uses_record_ports() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let dot = vector_to_dot(&dd, b, &VizStyle::modern());
        assert!(dot.contains("Mrecord"));
        assert!(dot.contains(":p0"));
        // Modern style draws zero edges explicitly.
        assert!(dot.contains("label=\"0\""));
    }

    #[test]
    fn matrix_dot_has_four_ports() {
        let mut dd = DdPackage::new();
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let dot = matrix_to_dot(&dd, cx, &VizStyle::classic());
        assert!(dot.contains(":w"));
        assert!(dot.contains(":e"));
    }

    #[test]
    fn balanced_braces() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        for style in [VizStyle::classic(), VizStyle::colored(), VizStyle::modern()] {
            let dot = vector_to_dot(&dd, b, &style);
            let open = dot.matches('{').count();
            let close = dot.matches('}').count();
            assert_eq!(open, close);
        }
    }
}
