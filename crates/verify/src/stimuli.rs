//! Simulation-based (random-stimuli) equivalence checking.
//!
//! Constructing full system matrices can be expensive even on diagrams;
//! running both circuits on a handful of random basis-state inputs and
//! comparing the output states catches almost every real-world
//! non-equivalence at simulation cost (the complementary technique in the
//! QCEC tool the paper points to in Example 15). Disagreement on any
//! stimulus is a definitive "not equivalent"; agreement on all of them is
//! strong — but not conclusive — evidence of equivalence.

use crate::checker::{flatten, Flat};
use crate::error::VerifyError;
use qdd_circuit::QuantumCircuit;
use qdd_core::{DdPackage, VecEdge};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of a random-stimuli comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct StimuliReport {
    /// `false` is definitive; `true` means no disagreement was found.
    pub probably_equivalent: bool,
    /// Number of stimuli actually run (stops early on disagreement).
    pub stimuli_run: usize,
    /// The smallest output fidelity observed.
    pub min_fidelity: f64,
    /// The basis-state input that exposed a difference, if any.
    pub witness: Option<u64>,
}

/// Runs `left` and `right` on `count` random computational-basis inputs and
/// compares the output states by fidelity.
///
/// # Errors
///
/// Same preconditions as
/// [`EquivalenceChecker::check`](crate::EquivalenceChecker::check):
/// matching widths and unitary-only circuits.
pub fn simulate_equivalence(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    count: usize,
    seed: u64,
) -> Result<StimuliReport, VerifyError> {
    let (lflat, rflat) = flatten(left, right)?;
    let n = left.num_qubits();

    let mut dd = DdPackage::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut min_fidelity = 1.0f64;
    let mut run = 0usize;
    for _ in 0..count {
        let input: u64 = if n >= 64 { rng.gen() } else { rng.gen_range(0..(1u64 << n)) };
        let start = dd.basis_state(n, input)?;
        let out_l = apply_all(&mut dd, &lflat, start)?;
        let out_r = apply_all(&mut dd, &rflat, start)?;
        run += 1;
        let f = dd.fidelity(out_l, out_r)?;
        min_fidelity = min_fidelity.min(f);
        if f < 1.0 - 1e-9 {
            return Ok(StimuliReport {
                probably_equivalent: false,
                stimuli_run: run,
                min_fidelity,
                witness: Some(input),
            });
        }
    }
    Ok(StimuliReport {
        probably_equivalent: true,
        stimuli_run: run,
        min_fidelity,
        witness: None,
    })
}

fn apply_all(dd: &mut DdPackage, flat: &[Flat], start: VecEdge) -> Result<VecEdge, VerifyError> {
    let mut s = start;
    for g in flat.iter().filter_map(Flat::gate) {
        s = dd.apply_gate(s, g.gate.matrix(), &g.controls, g.target)?;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::{compile, library};

    #[test]
    fn compiled_qft_passes_stimuli() {
        let qft = library::qft(4, true);
        let compiled = compile::compiled_qft(4);
        let report = simulate_equivalence(&qft, &compiled, 16, 3).unwrap();
        assert!(report.probably_equivalent);
        assert!(report.min_fidelity > 1.0 - 1e-9);
        assert_eq!(report.stimuli_run, 16);
    }

    #[test]
    fn broken_circuit_caught_with_witness() {
        let good = library::ghz(4);
        let mut bad = library::ghz(4);
        bad.x(0);
        let report = simulate_equivalence(&good, &bad, 16, 3).unwrap();
        assert!(!report.probably_equivalent);
        assert!(report.witness.is_some());
        assert!(report.stimuli_run <= 16);
    }

    #[test]
    fn phase_only_difference_slips_past_basis_stimuli() {
        // A global phase is invisible to fidelity — stimulus checking
        // correctly reports "probably equivalent".
        let mut a = qdd_circuit::QuantumCircuit::new(2);
        a.x(0);
        let mut b = qdd_circuit::QuantumCircuit::new(2);
        b.z(0).y(0); // i·X
        let report = simulate_equivalence(&a, &b, 8, 1).unwrap();
        assert!(report.probably_equivalent);
    }

    #[test]
    fn width_mismatch_rejected() {
        let a = library::ghz(2);
        let b = library::ghz(3);
        assert!(simulate_equivalence(&a, &b, 4, 1).is_err());
    }

    #[test]
    fn measurement_rejected() {
        let mut a = qdd_circuit::QuantumCircuit::new(1);
        a.add_creg("c", 1);
        a.measure(0, 0);
        let b = qdd_circuit::QuantumCircuit::new(1);
        assert!(matches!(
            simulate_equivalence(&a, &b, 4, 1),
            Err(VerifyError::NonUnitary { circuit: 0, op_index: 0 })
        ));
    }

    /// Stimuli and the checker walk the same flattened gates, so they
    /// reject the same operation.
    #[test]
    fn conditioned_gate_rejected_like_the_checker() {
        let a = library::ghz(2);
        let mut b = library::ghz(2);
        let c = b.add_creg("c", 1);
        b.gate_if(
            qdd_circuit::StandardGate::X,
            vec![],
            0,
            qdd_circuit::Condition { creg: c, value: 1 },
        );
        let expected = VerifyError::NonUnitary {
            circuit: 1,
            op_index: 2,
        };
        assert_eq!(simulate_equivalence(&a, &b, 4, 1), Err(expected.clone()));
        let mut checker = crate::EquivalenceChecker::new();
        for strategy in [crate::Strategy::Construction, crate::Strategy::Proportional] {
            assert_eq!(checker.check(&a, &b, strategy), Err(expected.clone()));
        }
    }
}
