//! Regenerates paper Fig. 3 / Example 8: building `H ⊗ I₂` on decision
//! diagrams by replacing the terminal of H's diagram with the root of I₂'s.

use qdd_bench::out_dir;
use qdd_core::{gates, DdPackage};
use qdd_viz::{dot, style::VizStyle};

fn main() {
    let mut dd = DdPackage::new();
    let out = out_dir();
    let style = VizStyle::classic();

    let h = dd.gate_dd(gates::H, &[], 0, 1).expect("H");
    let i2 = dd.identity(1).expect("I2");
    println!("operand sizes: H = {} node, I₂ = {} node", dd.mat_node_count(h), dd.mat_node_count(i2));

    let kron = dd.kron_mat(h, i2, 1).expect("H ⊗ I₂");
    println!("H ⊗ I₂ = {} nodes", dd.mat_node_count(kron));

    // Canonicity: the same operator built directly is the identical edge.
    let direct = dd.gate_dd(gates::H, &[], 1, 2).expect("H on q1");
    println!(
        "canonical check: kron-built edge == directly-built edge: {}",
        kron == direct
    );
    assert_eq!(kron, direct);

    println!("\nresulting 4×4 matrix (Example 3):");
    for row in dd.to_dense_matrix(kron, 2) {
        let cells: Vec<String> = row.iter().map(|c| format!("{:>6}", c.to_label())).collect();
        println!("  [{}]", cells.join(" "));
    }

    std::fs::write(out.join("fig3_h.dot"), dot::matrix_to_dot(&dd, h, &style)).unwrap();
    std::fs::write(out.join("fig3_i2.dot"), dot::matrix_to_dot(&dd, i2, &style)).unwrap();
    std::fs::write(out.join("fig3_h_kron_i2.dot"), dot::matrix_to_dot(&dd, kron, &style)).unwrap();
    println!("\nArtifacts written to {}", out.display());
}
