//! The paper's verification scenario end to end (Examples 10–12, Fig. 9):
//! compile the three-qubit QFT down to `{H, P, CNOT}`, then prove the
//! compiled circuit equivalent to the original — first by constructing both
//! system matrices, then with the advanced alternating scheme that stays
//! near the identity.
//!
//! Run with `cargo run --example qft_equivalence`.

use qdd::circuit::{compile, library};
use qdd::verify::{EquivalenceChecker, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qft = library::qft(3, true);
    let compiled = compile::compiled_qft(3);
    println!("original QFT: {} operations", qft.len());
    println!("compiled QFT: {} operations (SWAP → 3 CNOT, CP → P/CNOT)", compiled.len());

    // Route 1 — Example 10/11: build both system matrices; canonicity makes
    // the comparison a root-edge check.
    let mut checker = EquivalenceChecker::new();
    let construction = checker.check(&qft, &compiled, Strategy::Construction)?;
    println!("\nconstruction route: {construction}");

    // Route 2 — Example 12: interleave gates of G with inverted gates of
    // G', guided by the compiled circuit's barriers. The working diagram
    // never exceeds 9 nodes, vs 21 for the full matrix.
    let mut checker = EquivalenceChecker::new();
    let alternating = checker.check(&qft, &compiled, Strategy::BarrierGuided)?;
    println!("alternating route:  {alternating}");
    println!(
        "  peak comparison: {} (alternating) vs {} (construction)",
        alternating.peak_nodes, construction.peak_nodes
    );

    // Route 3 — random-stimuli simulation (the complementary QCEC check).
    let stimuli = checker.check_stimuli(&qft, &compiled, 16, 7)?;
    println!(
        "stimuli route:      {} after {} random basis inputs (min fidelity {:.12})",
        if stimuli.probably_equivalent { "no difference found" } else { "MISMATCH" },
        stimuli.stimuli_run,
        stimuli.min_fidelity
    );

    // Negative control: break the compiled circuit and watch all routes
    // catch it.
    let mut broken = compile::compiled_qft(3);
    broken.t(1);
    let mut checker = EquivalenceChecker::new();
    let verdict = checker.check(&qft, &broken, Strategy::Proportional)?;
    println!("\nwith an extra T gate injected: {verdict}");
    if let Some(cx) = verdict.counterexample {
        println!("  witness entry: U[{}][{}] deviates from the identity pattern", cx.row, cx.col);
    }
    assert!(!verdict.result.is_equivalent());
    Ok(())
}
