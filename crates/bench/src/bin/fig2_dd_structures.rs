//! Regenerates paper Fig. 2: the decision-diagram representations of the
//! Bell state (3 nodes), the Hadamard gate (1 node), and the controlled-NOT
//! gate (2 nodes: the paper draws 3, but the idle identity block on the
//! non-firing branch is an identity-skip edge here, not a node). Writes
//! classic-style DOT and SVG renderings to `out/`.

use qdd_bench::out_dir;
use qdd_core::{gates, Control, DdPackage};
use qdd_viz::{dot, style::VizStyle, svg};

fn main() {
    let mut dd = DdPackage::new();
    let out = out_dir();
    let style = VizStyle::classic();

    // Fig. 2(a): |ϕ⟩ = 1/√2 [1,0,0,1]ᵀ.
    let zero = dd.zero_state(2).expect("|00⟩");
    let s = dd.apply_gate(zero, gates::H, &[], 1).expect("H");
    let bell = dd
        .apply_gate(s, gates::X, &[Control::pos(1)], 0)
        .expect("CNOT");
    println!(
        "Fig. 2(a)  Bell state DD: {} nodes (paper: 3, terminal not counted)",
        dd.vec_node_count(bell)
    );
    for (basis, label) in [(0b00u64, "|00⟩"), (0b11, "|11⟩")] {
        println!("  amplitude {label} = {}", dd.amplitude(bell, basis).to_label());
    }
    std::fs::write(out.join("fig2a_bell.dot"), dot::vector_to_dot(&dd, bell, &style)).unwrap();
    std::fs::write(out.join("fig2a_bell.svg"), svg::vector_to_svg(&dd, bell, &style)).unwrap();

    // Fig. 2(b): the Hadamard gate — a single node.
    let h = dd.gate_dd(gates::H, &[], 0, 1).expect("H");
    println!("\nFig. 2(b)  Hadamard DD: {} node (paper: 1)", dd.mat_node_count(h));
    println!(
        "  root weight = {} (the 1/√2 factor pulled out by normalization)",
        dd.complex_value(h.weight).to_label()
    );
    std::fs::write(out.join("fig2b_hadamard.dot"), dot::matrix_to_dot(&dd, h, &style)).unwrap();
    std::fs::write(out.join("fig2b_hadamard.svg"), svg::matrix_to_svg(&dd, h, &style)).unwrap();

    // Fig. 2(c): the controlled-NOT gate.
    let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).expect("CNOT");
    println!(
        "\nFig. 2(c)  CNOT DD: {} nodes (root q1 + X-block q0 node; the identity block is a skip edge)",
        dd.mat_node_count(cx)
    );
    let root = dd.mnode(cx.node);
    println!(
        "  root children: U00 → identity pattern, U01 = 0-stub: {}, U10 = 0-stub: {}, U11 → X pattern",
        root.children[1].is_zero(),
        root.children[2].is_zero()
    );
    std::fs::write(out.join("fig2c_cnot.dot"), dot::matrix_to_dot(&dd, cx, &style)).unwrap();
    std::fs::write(out.join("fig2c_cnot.svg"), svg::matrix_to_svg(&dd, cx, &style)).unwrap();

    println!("\nArtifacts written to {}", out.display());
}
