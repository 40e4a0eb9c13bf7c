//! Regenerates paper Fig. 6: the decision diagram of the three-qubit QFT's
//! functionality, rendered with the color-coded edge-weight style (phases on
//! the HLS wheel, magnitudes as line thickness).

use qdd_bench::out_dir;
use qdd_circuit::library;
use qdd_core::graph::DdGraph;
use qdd_core::DdPackage;
use qdd_viz::{dot, style::VizStyle, svg};

fn main() {
    let mut dd = DdPackage::new();
    let qft = library::qft(3, true);
    let (u, _) = qdd_verify::functionality(&mut dd, &qft).expect("QFT is unitary");

    let graph = DdGraph::from_matrix(&dd, u);
    println!("Fig. 6  QFT(3) functionality DD");
    println!("  nodes (terminal not counted): {}", graph.node_count());
    for (row, level) in graph.levels().iter().enumerate() {
        println!("  level q{}: {} nodes", graph.num_levels - 1 - row, level.len());
    }
    println!(
        "  distinct edge weights: {}",
        dd.stats().complex_entries
    );

    let out = out_dir();
    let style = VizStyle::colored();
    std::fs::write(out.join("fig6_qft_dd.dot"), dot::matrix_to_dot(&dd, u, &style)).unwrap();
    std::fs::write(out.join("fig6_qft_dd.svg"), svg::matrix_to_svg(&dd, u, &style)).unwrap();
    std::fs::write(out.join("fig6_qft_dd.json"), graph.to_json()).unwrap();
    println!("\nArtifacts written to {}", out.display());
}
