//! Regenerates paper Fig. 1: the Hadamard and controlled-NOT matrices and
//! the two-gate Bell circuit, including the system-matrix factorization
//! `CNOT · (H ⊗ I₂)` shown in Fig. 1(c).

use qdd_circuit::library;
use qdd_core::{gates, Control, DdPackage};

fn print_matrix(title: &str, m: &[Vec<qdd_complex::Complex>]) {
    println!("\n{title}:");
    for row in m {
        let cells: Vec<String> = row.iter().map(|c| format!("{:>8}", c.to_label())).collect();
        println!("  [{}]", cells.join(" "));
    }
}

fn main() {
    let mut dd = DdPackage::new();

    // Fig. 1(a): the Hadamard gate.
    let h1 = dd.gate_dd(gates::H, &[], 0, 1).expect("1-qubit H");
    print_matrix("Fig. 1(a)  Hadamard gate H", &dd.to_dense_matrix(h1, 1));

    // Fig. 1(b): the controlled-NOT (control q1, target q0).
    let cx = dd
        .gate_dd(gates::X, &[Control::pos(1)], 0, 2)
        .expect("CNOT");
    print_matrix("Fig. 1(b)  Controlled-NOT gate", &dd.to_dense_matrix(cx, 2));

    // Fig. 1(c): the circuit G = g0 g1 and its factorized system matrix.
    let bell = library::bell();
    println!("\nFig. 1(c)  Quantum circuit G:");
    print!("{bell}");

    let h2 = dd.gate_dd(gates::H, &[], 1, 2).expect("H on q1");
    print_matrix("  H ⊗ I₂ (Example 3)", &dd.to_dense_matrix(h2, 2));
    let system = dd.mat_mat(cx, h2).expect("CNOT · (H ⊗ I₂)");
    print_matrix("  System matrix U = CNOT · (H ⊗ I₂)", &dd.to_dense_matrix(system, 2));

    println!(
        "\nDD sizes: H = {} node, CNOT = {} nodes, U = {} nodes",
        dd.mat_node_count(h1),
        dd.mat_node_count(cx),
        dd.mat_node_count(system)
    );
}
