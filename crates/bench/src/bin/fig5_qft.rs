//! Regenerates paper Fig. 5: the three-qubit QFT (a), its compiled version
//! (b), and the 8×8 functionality matrix in powers of ω = e^{iπ/4} (c) —
//! plus the Example 10/11 check that both circuits yield the identical
//! canonical diagram.

use qdd_circuit::{compile, library};
use qdd_complex::Complex;
use qdd_verify::{EquivalenceChecker, Strategy};
use std::f64::consts::FRAC_PI_4;

/// Formats an entry of the QFT matrix as `ω^k` (times the common 1/√8).
fn omega_power(c: Complex) -> String {
    let scaled = c * (8.0f64).sqrt();
    for k in 0..8 {
        let omega_k = Complex::cis(FRAC_PI_4 * k as f64);
        if scaled.approx_eq(omega_k, 1e-9) {
            return match k {
                0 => "1".to_string(),
                1 => "ω".to_string(),
                k => format!("ω{k}"),
            };
        }
    }
    format!("{scaled}")
}

fn main() {
    let qft = library::qft(3, true);
    let compiled = compile::compiled_qft(3);

    println!("Fig. 5(a)  Three-qubit QFT ({} ops):", qft.len());
    print!("{qft}");
    println!("\nFig. 5(b)  Compiled circuit ({} ops, barriers per source gate):", compiled.len());
    print!("{compiled}");

    // Fig. 5(c): build the functionality and print it in ω powers.
    let mut checker = EquivalenceChecker::new();
    let report = checker
        .check(&qft, &compiled, Strategy::Construction)
        .expect("valid circuits");
    println!("\nEx. 10/11  construction-based equivalence: {report}");
    assert!(report.result.is_equivalent());

    // Rebuild one system matrix for the printout.
    let mut dd = qdd_core::DdPackage::new();
    let (u, _) = qdd_verify::functionality(&mut dd, &qft).expect("QFT is unitary");
    println!("\nFig. 5(c)  Functionality 1/√8 · [ωʲᵏ] with ω = e^{{iπ/4}} = √i:");
    for row in dd.to_dense_matrix(u, 3) {
        let cells: Vec<String> = row.iter().map(|c| format!("{:>3}", omega_power(*c))).collect();
        println!("  [{}]", cells.join(" "));
    }
    println!("\nQFT functionality DD size: {} nodes", dd.mat_node_count(u));
}
