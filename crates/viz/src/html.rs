//! Self-contained HTML explorer — the offline stand-in for the paper's
//! installation-free web tool.
//!
//! [`explorer_html`] bundles a session's frames into a single HTML file
//! with the tool's `⏮ ← → ⏭` navigation and `▶` play (buttons and keys),
//! a caption showing the current step, and the node count. The run
//! inspector ([`timeline_report`]) steps through its snapshots with the
//! same player. No network, no external assets.

use crate::inspect::{OpLine, SpanLine, TimelineDoc};
use crate::session::Frame;
use crate::style::VizStyle;
use crate::svg::graph_to_svg;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

/// The style rules of [`frame_player`].
const PLAYER_CSS: &str = "\
#controls { padding: 6px 0; }
#controls button { font-size: 16px; margin-right: 6px; padding: 4px 12px; }
#caption { padding-bottom: 8px; color: #333; }
.frame { display: none; }
.frame.active { display: block; }
.frame svg { max-width: 100%; height: auto; border: 1px solid #ddd; background: white; }
";

/// Appends the frame player both pages share: `⏮ ← → ⏭` and `▶`
/// (play/pause) buttons, the arrow, Home, End and space keys, a caption,
/// and one frame per `(caption, svg)`.
fn frame_player<S: AsRef<str>>(
    out: &mut String,
    frames: impl ExactSizeIterator<Item = (String, S)>,
) {
    out.push_str(
        "<div id=\"controls\">\n\
         <button onclick=\"go(0)\" title=\"to start\">&#9198;</button>\n\
         <button onclick=\"go(current-1)\" title=\"back\">&#8592;</button>\n\
         <button onclick=\"go(current+1)\" title=\"forward\">&#8594;</button>\n\
         <button onclick=\"go(frames-1)\" title=\"to end\">&#9197;</button>\n\
         <button id=\"play\" onclick=\"playPause()\" title=\"play\">&#9654;</button>\n\
         <span id=\"pos\"></span>\n\
         </div>\n<div id=\"caption\"></div>\n",
    );
    let count = frames.len();
    for (i, (caption, svg)) in frames.enumerate() {
        let _ = writeln!(
            out,
            "<div class=\"frame\" id=\"frame{i}\" data-title=\"{}\">",
            escape_html(&caption)
        );
        out.push_str(svg.as_ref());
        out.push_str("</div>\n");
    }
    let _ = writeln!(
        out,
        "<script>\n\
         const frames = {count};\n\
         let current = 0;\n\
         let timer = null;\n\
         function go(i) {{\n\
           if (i < 0 || i >= frames) return;\n\
           document.getElementById('frame' + current).classList.remove('active');\n\
           current = i;\n\
           const el = document.getElementById('frame' + current);\n\
           el.classList.add('active');\n\
           document.getElementById('caption').textContent = el.dataset.title;\n\
           document.getElementById('pos').textContent = (current + 1) + ' / ' + frames;\n\
         }}\n\
         function playPause() {{\n\
           const btn = document.getElementById('play');\n\
           if (timer) {{ clearInterval(timer); timer = null; btn.innerHTML = '&#9654;'; return; }}\n\
           btn.innerHTML = '&#9646;&#9646;';\n\
           timer = setInterval(() => {{\n\
             if (current + 1 >= frames) {{ playPause(); return; }}\n\
             go(current + 1);\n\
           }}, 700);\n\
         }}\n\
         document.addEventListener('keydown', e => {{\n\
           if (e.key === 'ArrowRight') go(current + 1);\n\
           if (e.key === 'ArrowLeft') go(current - 1);\n\
           if (e.key === 'Home') go(0);\n\
           if (e.key === 'End') go(frames - 1);\n\
           if (e.key === ' ') {{ e.preventDefault(); playPause(); }}\n\
         }});\n\
         document.getElementById('frame0').classList.add('active');\n\
         go(0);\n\
         </script>"
    );
}

/// Builds a standalone HTML document from captured frames.
///
/// # Panics
///
/// Panics if `frames` is empty (sessions always capture an initial frame).
pub fn explorer_html(title: &str, frames: &[Frame]) -> String {
    assert!(!frames.is_empty(), "at least one frame required");
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", escape_html(title));
    out.push_str(
        "<style>\n\
         body { font-family: Helvetica, sans-serif; margin: 0; background: #fafafa; }\n\
         header { background: #2b4a6f; color: white; padding: 10px 16px; }\n\
         main { padding: 4px 16px 16px; }\n",
    );
    out.push_str(PLAYER_CSS);
    out.push_str("</style>\n</head>\n<body>\n");
    let _ = writeln!(
        out,
        "<header><h1>{}</h1></header>\n<main>",
        escape_html(title)
    );
    let captions = frames.iter().map(|f| {
        (
            format!("{} ({} nodes)", f.title, f.node_count),
            f.svg.as_str(),
        )
    });
    frame_player(&mut out, captions);
    out.push_str("</main>\n</body>\n</html>\n");
    out
}

/// Writes an explorer document to disk.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_explorer(path: &Path, title: &str, frames: &[Frame]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, explorer_html(title, frames))
}

/// Colors cycled across workers / levels in the sparkline charts.
const CURVE_COLORS: [&str; 6] = [
    "#2b4a6f", "#c0392b", "#1e8449", "#8e44ad", "#b9770e", "#148f9f",
];

/// Builds the self-contained run inspector from a read trace.
///
/// One HTML file, no external assets: a live-node curve with GC /
/// approximation markers, per-level node sparklines, a
/// flamegraph-style span tree, and a steppable gallery of the per-stride
/// structural snapshots (rendered with `style`). Degrades gracefully —
/// sections whose data was not recorded say so instead of vanishing.
pub fn timeline_report(doc: &TimelineDoc, style: &VizStyle) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(
        out,
        "<title>qdd timeline — {}</title>",
        escape_html(&doc.header.circuit)
    );
    out.push_str(
        "<style>\n\
         body { font-family: Helvetica, sans-serif; margin: 0; background: #fafafa; }\n\
         header { background: #2b4a6f; color: white; padding: 10px 16px; }\n\
         header .sub { color: #cdd9e5; font-size: 13px; }\n\
         section { padding: 8px 16px 16px; }\n\
         h2 { font-size: 16px; margin: 12px 0 6px; color: #2b4a6f; }\n\
         .chart svg { max-width: 100%; height: auto; border: 1px solid #ddd; background: white; }\n\
         .legend { font-size: 12px; color: #555; margin: 4px 0; }\n\
         .legend b { font-weight: normal; padding: 0 10px 0 2px; }\n\
         .dot { display: inline-block; width: 9px; height: 9px; border-radius: 50%; }\n\
         .muted { color: #888; font-size: 13px; }\n\
         .warn { background: #fbeee6; border: 1px solid #e0b08c; padding: 6px 10px; font-size: 13px; }\n\
         #flame { position: relative; background: white; border: 1px solid #ddd; overflow: hidden; }\n\
         #flame .span { position: absolute; height: 18px; font-size: 11px; color: white;\n\
           overflow: hidden; white-space: nowrap; border-radius: 2px; padding-left: 3px;\n\
           box-sizing: border-box; line-height: 18px; }\n",
    );
    out.push_str(PLAYER_CSS);
    out.push_str("</style>\n</head>\n<body>\n");
    let _ = writeln!(
        out,
        "<header><h1>Timeline — {}</h1><div class=\"sub\">{} qubits · {} ops · {} worker(s) \
         · {} record(s) · snapshot stride {}</div></header>",
        escape_html(&doc.header.circuit),
        doc.header.qubits,
        doc.header.ops,
        doc.header.workers.max(1),
        doc.ops.len(),
        doc.header.snapshot_stride,
    );
    if doc.header.dropped_events > 0 {
        let _ = writeln!(
            out,
            "<section><div class=\"warn\">⚠ {} event(s) were dropped at the buffer cap; \
             the curves and spans below are truncated.</div></section>",
            doc.header.dropped_events
        );
    }

    // Live-node curve with event markers.
    let groups = op_groups(&doc.ops);
    out.push_str("<section>\n<h2>Live nodes over op index</h2>\n");
    if doc.ops.is_empty() {
        out.push_str("<div class=\"muted\">No op records in this trace.</div>\n");
    } else {
        out.push_str(
            "<div class=\"legend\">\
             <span class=\"dot\" style=\"background:#b9770e\"></span><b>GC</b>\
             <span class=\"dot\" style=\"background:#8e44ad\"></span><b>approximation</b>\
             — one curve per (worker, run)</div>\n",
        );
        let _ = writeln!(
            out,
            "<div class=\"chart\">{}</div>",
            node_curve_svg(&doc.ops, &groups)
        );
    }
    out.push_str("</section>\n");

    // Per-level sparklines.
    out.push_str("<section>\n<h2>Nodes per level</h2>\n");
    if let Some(svg) = level_curves_svg(&groups) {
        out.push_str("<div class=\"chart\">");
        out.push_str(&svg);
        out.push_str("</div>\n");
    } else {
        out.push_str("<div class=\"muted\">No per-level profiles recorded.</div>\n");
    }
    out.push_str("</section>\n");

    // Span tree (flamegraph-style).
    out.push_str("<section>\n<h2>Span tree</h2>\n");
    if doc.spans.is_empty() {
        out.push_str("<div class=\"muted\">No spans recorded.</div>\n");
    } else {
        out.push_str(&flamegraph_html(&doc.spans));
    }
    out.push_str("</section>\n");

    // Structural snapshots with step/play controls.
    out.push_str("<section>\n<h2>Structural snapshots</h2>\n");
    if doc.snapshots.is_empty() {
        out.push_str(
            "<div class=\"muted\">No snapshots in this trace — record with \
             <code>--snapshot-stride K</code> to embed diagrams.</div>\n",
        );
    } else {
        let captions = doc.snapshots.iter().map(|snap| {
            let caption = format!(
                "after op {} (worker {}, run {}, {} nodes)",
                snap.op_index, snap.worker, snap.run, snap.nodes
            );
            (caption, graph_to_svg(&snap.graph, style))
        });
        frame_player(&mut out, captions);
    }
    out.push_str("</section>\n</body>\n</html>");
    out
}

/// Writes a timeline report to disk.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_timeline_report(
    path: &Path,
    doc: &TimelineDoc,
    style: &VizStyle,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, timeline_report(doc, style))
}

/// Groups op records by `(worker, run)`, in order of each group's first
/// op; each group keeps stream order.
fn op_groups(ops: &[OpLine]) -> Vec<Vec<&OpLine>> {
    let mut index: HashMap<(u32, u32), usize> = HashMap::new();
    let mut groups: Vec<Vec<&OpLine>> = Vec::new();
    for op in ops {
        let at = *index.entry((op.worker, op.run)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[at].push(op);
    }
    groups
}

fn node_curve_svg(ops: &[OpLine], groups: &[Vec<&OpLine>]) -> String {
    const W: f64 = 860.0;
    const H: f64 = 200.0;
    const MX: f64 = 46.0;
    const MY: f64 = 16.0;
    let max_x = ops.iter().map(|o| o.op_index).max().unwrap_or(0).max(1) as f64;
    let max_y = ops.iter().map(|o| o.vec_nodes).max().unwrap_or(0).max(1) as f64;
    let sx = |op_index: u64| MX + (op_index as f64 / max_x) * (W - 2.0 * MX);
    let sy = |nodes: u64| H - MY - (nodes as f64 / max_y) * (H - 2.0 * MY);
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {W:.0} {H:.0}\" \
         font-family=\"Helvetica, sans-serif\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
    );
    // Axes and extents.
    let _ = write!(
        svg,
        "<line x1=\"{MX}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#ccc\"/>\n\
         <line x1=\"{MX}\" y1=\"{MY}\" x2=\"{MX}\" y2=\"{0}\" stroke=\"#ccc\"/>\n\
         <text x=\"4\" y=\"{2}\" fill=\"#555\">{max_y:.0}</text>\n\
         <text x=\"{1}\" y=\"{3}\" fill=\"#555\" text-anchor=\"end\">op {max_x:.0}</text>\n",
        H - MY,
        W - MX,
        MY + 4.0,
        H - 2.0,
    );
    for (gi, group) in groups.iter().enumerate() {
        let color = CURVE_COLORS[gi % CURVE_COLORS.len()];
        let points: Vec<String> = group
            .iter()
            .map(|o| format!("{:.1},{:.1}", sx(o.op_index), sy(o.vec_nodes)))
            .collect();
        let _ = writeln!(
            svg,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>",
            points.join(" ")
        );
    }
    // Event markers on top of the curves.
    for op in ops {
        for &kind in &op.events {
            let color = match kind {
                "gc" => "#b9770e",
                "approx" => "#8e44ad",
                _ => "#555",
            };
            let _ = writeln!(
                svg,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"{color}\">\
                 <title>{} at op {} ({})</title></circle>",
                sx(op.op_index),
                sy(op.vec_nodes),
                escape_html(kind),
                op.op_index,
                escape_html(&op.op),
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// One mini-sparkline per DD level, taken from the longest `(worker, run)`
/// group. `None` when no op carries a level profile.
fn level_curves_svg(groups: &[Vec<&OpLine>]) -> Option<String> {
    let group = groups.iter().max_by_key(|g| g.len())?;
    let num_levels = group.iter().map(|o| o.levels.len()).max().unwrap_or(0);
    if num_levels == 0 {
        return None;
    }
    const W: f64 = 860.0;
    const ROW: f64 = 26.0;
    const MX: f64 = 46.0;
    let h = num_levels as f64 * ROW + 10.0;
    let max_x = group.iter().map(|o| o.op_index).max().unwrap_or(0).max(1) as f64;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {W:.0} {h:.0}\" \
         font-family=\"Helvetica, sans-serif\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
    );
    // Level 0 is the bottom of the diagram; draw top level first.
    for row in 0..num_levels {
        let level = num_levels - 1 - row;
        let y0 = 5.0 + row as f64 * ROW;
        let max_y = group
            .iter()
            .map(|o| o.levels.get(level).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        let color = CURVE_COLORS[level % CURVE_COLORS.len()];
        let points: Vec<String> = group
            .iter()
            .map(|o| {
                let v = o.levels.get(level).copied().unwrap_or(0) as f64;
                format!(
                    "{:.1},{:.1}",
                    MX + (o.op_index as f64 / max_x) * (W - MX - 10.0),
                    y0 + (ROW - 6.0) * (1.0 - v / max_y),
                )
            })
            .collect();
        let _ = write!(
            svg,
            "<text x=\"4\" y=\"{:.1}\" fill=\"#555\">q{level} ≤{max_y:.0}</text>\n\
             <polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1\" points=\"{}\"/>\n",
            y0 + ROW / 2.0,
            points.join(" ")
        );
    }
    svg.push_str("</svg>");
    Some(svg)
}

/// The narrowest span the span tree draws, as a share of the run. Spans of
/// one worker and depth never overlap, so a row holds at most about 667 of
/// them; the narrower ones are left to a trace viewer.
const MIN_SPAN_SHARE: f64 = 0.0015;

/// The span tree, one band of rows per worker: workers run concurrently,
/// so their spans would overlay each other on a shared band. Spans
/// narrower than [`MIN_SPAN_SHARE`] of the run are counted, not drawn.
fn flamegraph_html(spans: &[SpanLine]) -> String {
    let t0 = spans.iter().map(|s| s.ts_us).min().unwrap_or(0);
    let t1 = spans
        .iter()
        .map(|s| s.ts_us + s.dur_us)
        .max()
        .unwrap_or(t0 + 1)
        .max(t0 + 1);
    let total = (t1 - t0) as f64;
    let drawn: Vec<&SpanLine> = spans
        .iter()
        .filter(|s| s.dur_us as f64 >= total * MIN_SPAN_SHARE)
        .collect();
    // Worker → its band's first row, bands stacked in worker order.
    let mut depths: BTreeMap<u32, usize> = BTreeMap::new();
    for span in &drawn {
        let rows = depths.entry(span.worker).or_default();
        *rows = (*rows).max(span.depth as usize + 1);
    }
    let mut band = BTreeMap::new();
    let mut rows = 0;
    for (&worker, &depth) in &depths {
        band.insert(worker, rows);
        rows += depth;
    }
    let mut out = format!(
        "<div class=\"legend\">{} span(s) on {} worker(s), {:.1} ms total",
        drawn.len(),
        depths.len(),
        total / 1000.0,
    );
    let narrow = spans.len() - drawn.len();
    if narrow > 0 {
        let _ = write!(
            out,
            "; {narrow} span(s) narrower than {}% of the run are not drawn: \
             open the trace (Chrome trace_event JSON) in a trace viewer",
            MIN_SPAN_SHARE * 100.0
        );
    }
    let _ = writeln!(
        out,
        "</div>\n<div id=\"flame\" style=\"height: {}px\">",
        rows * 22 + 4
    );
    for span in drawn {
        let left = (span.ts_us - t0) as f64 / total * 100.0;
        let width = span.dur_us as f64 / total * 100.0;
        // Stable name-derived color so repeated spans read as one family.
        let hash: usize = span.name.bytes().map(usize::from).sum();
        let color = CURVE_COLORS[hash % CURVE_COLORS.len()];
        let label = format!("{} ({} µs, worker {})", span.name, span.dur_us, span.worker);
        let _ = writeln!(
            out,
            "<div class=\"span\" style=\"left:{left:.2}%;width:{width:.2}%;\
             top:{}px;background:{color}\" title=\"{}\">{}</div>",
            (band[&span.worker] + span.depth as usize) * 22 + 2,
            escape_html(&label),
            escape_html(&span.name),
        );
    }
    out.push_str("</div>\n");
    out
}

fn escape_html(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimulationExplorer;
    use crate::style::VizStyle;
    use qdd_circuit::library;

    fn frames() -> Vec<Frame> {
        let mut ex = SimulationExplorer::new(library::bell(), VizStyle::classic());
        ex.step_forward().unwrap();
        ex.step_forward().unwrap();
        ex.frames().to_vec()
    }

    #[test]
    fn html_is_self_contained() {
        let html = explorer_html("Bell state", &frames());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<title>Bell state</title>"));
        assert!(html.contains("const frames = 3;"));
        assert!(
            html.contains("onclick=\"playPause()\""),
            "the explorer plays too"
        );
        assert!(html.contains("<svg"));
        assert!(!html.contains("http://") || html.contains("xmlns"), "no external links beyond the SVG namespace");
        assert!(html.trim_end().ends_with("</html>"));
    }

    #[test]
    fn every_frame_is_embedded() {
        let fs = frames();
        let html = explorer_html("x", &fs);
        for f in &fs {
            assert!(html.contains(&format!("id=\"frame{}\"", f.index)));
        }
    }

    #[test]
    fn titles_are_escaped() {
        let mut fs = frames();
        fs[0].title = "a < b & \"c\"".to_string();
        let html = explorer_html("t", &fs);
        assert!(html.contains("a &lt; b &amp; &quot;c&quot;"));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_frames_panics() {
        explorer_html("x", &[]);
    }

    fn sample_doc() -> TimelineDoc {
        use crate::inspect::{SnapshotLine, TimelineHeader};
        use qdd_core::{gates, Control, DdPackage};
        let mut dd = DdPackage::new();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        let bell = dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap();
        let graph = qdd_core::graph::DdGraph::from_vector(&dd, bell);
        let op = |op_index, op: &str, vec_nodes, levels| OpLine {
            op_index,
            op: op.to_string(),
            vec_nodes,
            levels,
            ..OpLine::default()
        };
        let mut h = op(0, "h", 2, vec![1, 1]);
        h.events = vec!["gc"];
        let span = |name: &str, ts_us, dur_us, depth| SpanLine {
            name: name.to_string(),
            ts_us,
            dur_us,
            depth,
            ..SpanLine::default()
        };
        TimelineDoc {
            header: TimelineHeader {
                circuit: "bell<1>".to_string(),
                qubits: 2,
                ops: 2,
                snapshot_stride: 1,
                workers: 1,
                dropped_events: 0,
            },
            ops: vec![h, op(1, "cx", 3, vec![2, 1])],
            snapshots: vec![SnapshotLine {
                worker: 0,
                run: 0,
                op_index: 1,
                nodes: 3,
                graph,
            }],
            spans: vec![span("sim.run", 0, 9, 0), span("sim.apply", 1, 4, 1)],
        }
    }

    #[test]
    fn ops_group_by_worker_and_run_in_first_appearance_order() {
        let op = |worker, run, op_index| OpLine {
            worker,
            run,
            op_index,
            ..OpLine::default()
        };
        // Two workers interleaved; worker 1 restarts mid-stream.
        let ops = [
            op(1, 0, 0),
            op(2, 0, 0),
            op(1, 0, 1),
            op(1, 1, 0),
            op(2, 0, 1),
            op(1, 1, 1),
            op(0, 0, 0),
        ];
        let groups: Vec<Vec<(u32, u32, u64)>> = op_groups(&ops)
            .iter()
            .map(|g| g.iter().map(|o| (o.worker, o.run, o.op_index)).collect())
            .collect();
        assert_eq!(
            groups,
            [
                vec![(1, 0, 0), (1, 0, 1)],
                vec![(2, 0, 0), (2, 0, 1)],
                vec![(1, 1, 0), (1, 1, 1)],
                vec![(0, 0, 0)],
            ]
        );
    }

    #[test]
    fn timeline_report_is_self_contained() {
        let html = timeline_report(&sample_doc(), &VizStyle::classic());
        assert!(html.starts_with("<!DOCTYPE html>"));
        // Escaped circuit name in the title and header.
        assert!(html.contains("bell&lt;1&gt;"));
        // Node curve, per-level sparklines, flamegraph, snapshot frames.
        assert!(html.contains("Live nodes over op index"));
        assert!(html.contains("q1 "));
        assert!(html.contains("sim.apply"));
        assert!(html.contains("id=\"frame0\""));
        assert!(html.contains("playPause"));
        // GC event marker from op 0.
        assert!(html.contains("gc at op 0"));
        // Self-contained: nothing external beyond the SVG xmlns.
        for (i, _) in html.match_indices("http") {
            assert!(
                html[i..].starts_with("http://www.w3.org/2000/svg"),
                "external reference near byte {i}"
            );
        }
        assert!(html.trim_end().ends_with("</html>"));
    }

    #[test]
    fn flamegraph_gives_each_worker_its_own_band() {
        let span = |worker, name: &str, depth| SpanLine {
            worker,
            name: name.to_string(),
            ts_us: 0,
            dur_us: 9,
            depth,
        };
        let html = flamegraph_html(&[
            span(0, "sim.run", 0),
            span(0, "sim.apply", 1),
            span(2, "sim.run", 0),
        ]);
        assert!(html.contains("3 span(s) on 2 worker(s)"));
        let top = |title: &str| {
            let at = html.find(&format!("title=\"{title}")).unwrap();
            let tag = &html[html[..at].rfind("<div").unwrap()..at];
            tag.split("top:")
                .nth(1)
                .unwrap()
                .split("px")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(top("sim.run (9 µs, worker 0)"), "2");
        assert_eq!(top("sim.apply (9 µs, worker 0)"), "24");
        // Worker 2's run starts below worker 0's two rows, not on top of them.
        assert_eq!(top("sim.run (9 µs, worker 2)"), "46");
        assert!(html.contains("height: 70px"));
    }

    #[test]
    fn flamegraph_counts_the_spans_too_narrow_to_draw() {
        let span = |name: &str, ts_us, dur_us, depth| SpanLine {
            name: name.to_string(),
            ts_us,
            dur_us,
            depth,
            ..SpanLine::default()
        };
        let mut spans: Vec<SpanLine> = (0..10_000).map(|i| span("core.mat_vec", i, 1, 1)).collect();
        spans.push(span("sim.run", 0, 10_000, 0));
        let html = flamegraph_html(&spans);
        assert_eq!(html.matches("<div class=\"span\"").count(), 1);
        assert!(html.contains("title=\"sim.run (10000 µs, worker 0)\""));
        assert!(html.contains(
            "1 span(s) on 1 worker(s), 10.0 ms total; 10000 span(s) narrower than 0.15% of \
             the run are not drawn"
        ));
        assert!(html.contains("height: 26px"), "one row");
    }

    #[test]
    fn timeline_report_handles_empty_doc() {
        let mut doc = TimelineDoc::default();
        doc.header.dropped_events = 3;
        let html = timeline_report(&doc, &VizStyle::classic());
        assert!(html.contains("No op records"));
        assert!(html.contains("No spans recorded"));
        assert!(html.contains("No snapshots"));
        assert!(html.contains("3 event(s) were dropped"));
    }

    #[test]
    fn write_timeline_report_creates_file() {
        let path =
            std::env::temp_dir().join(format!("qdd_timeline_{}.html", std::process::id()));
        write_timeline_report(&path, &sample_doc(), &VizStyle::colored()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("<svg"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_explorer_creates_file() {
        let path = std::env::temp_dir().join(format!("qdd_explorer_{}.html", std::process::id()));
        write_explorer(&path, "t", &frames()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("<svg"));
        std::fs::remove_file(&path).ok();
    }
}
