//! Simulation-based (random-stimuli) equivalence checking.
//!
//! Constructing full system matrices can be expensive even on diagrams;
//! running both circuits on a handful of random basis-state inputs and
//! comparing the output states catches almost every real-world
//! non-equivalence at simulation cost (the complementary technique in the
//! QCEC tool the paper points to in Example 15). Disagreement on any
//! stimulus is a definitive "not equivalent"; agreement on all of them is
//! strong — but not conclusive — evidence of equivalence.

use crate::checker::{maybe_gc, with_pressure_retry, Flat};
use crate::error::VerifyError;
use qdd_core::{DdError, DdPackage, VecEdge};
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

/// The loop behind
/// [`EquivalenceChecker::check_stimuli`](crate::EquivalenceChecker::check_stimuli),
/// over two flattened `n`-qubit circuits.
pub(crate) fn run(
    dd: &mut DdPackage,
    lflat: &[Flat],
    rflat: &[Flat],
    n: usize,
    count: usize,
    seed: u64,
) -> Result<StimuliReport, VerifyError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut min_fidelity = 1.0f64;
    for run in 1..=count {
        let input: u64 = if n >= 64 { rng.gen() } else { rng.gen_range(0..(1u64 << n)) };
        let out_l = output(dd, lflat, n, input)?;
        dd.inc_ref_vec(out_l);
        let f = output(dd, rflat, n, input).and_then(|out_r| dd.fidelity(out_l, out_r));
        dd.dec_ref_vec(out_l);
        let f = f?;
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
        stimuli_run: count,
        min_fidelity,
        witness: None,
    })
}

/// The state `flat` maps the basis state `|input⟩` to, collecting garbage
/// between gates as the checking loops do.
fn output(dd: &mut DdPackage, flat: &[Flat], n: usize, input: u64) -> Result<VecEdge, DdError> {
    let mut s = dd.basis_state(n, input)?;
    for g in flat.iter().filter_map(Flat::gate) {
        s = with_pressure_retry(dd, s, |dd| {
            dd.apply_gate(s, g.gate.matrix(), &g.controls, g.target)
        })?;
        maybe_gc(dd, s);
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EquivalenceChecker;
    use qdd_circuit::{compile, library, QuantumCircuit};
    use qdd_core::{Limits, PackageConfig, ResourceKind};

    fn stimuli(
        left: &QuantumCircuit,
        right: &QuantumCircuit,
        count: usize,
        seed: u64,
    ) -> Result<StimuliReport, VerifyError> {
        EquivalenceChecker::new().check_stimuli(left, right, count, seed)
    }

    #[test]
    fn compiled_qft_passes_stimuli() {
        let qft = library::qft(4, true);
        let compiled = compile::compiled_qft(4);
        let report = stimuli(&qft, &compiled, 16, 3).unwrap();
        assert!(report.probably_equivalent);
        assert!(report.min_fidelity > 1.0 - 1e-9);
        assert_eq!(report.stimuli_run, 16);
    }

    #[test]
    fn broken_circuit_caught_with_witness() {
        let good = library::ghz(4);
        let mut bad = library::ghz(4);
        bad.x(0);
        let report = stimuli(&good, &bad, 16, 3).unwrap();
        assert!(!report.probably_equivalent);
        assert!(report.witness.is_some());
        assert!(report.stimuli_run <= 16);
    }

    #[test]
    fn phase_only_difference_slips_past_basis_stimuli() {
        // A global phase is invisible to fidelity — stimulus checking
        // correctly reports "probably equivalent".
        let mut a = QuantumCircuit::new(2);
        a.x(0);
        let mut b = QuantumCircuit::new(2);
        b.z(0).y(0); // i·X
        let report = stimuli(&a, &b, 8, 1).unwrap();
        assert!(report.probably_equivalent);
    }

    #[test]
    fn width_mismatch_rejected() {
        let a = library::ghz(2);
        let b = library::ghz(3);
        assert!(stimuli(&a, &b, 4, 1).is_err());
    }

    #[test]
    fn measurement_rejected() {
        let mut a = QuantumCircuit::new(1);
        a.add_creg("c", 1);
        a.measure(0, 0);
        let b = QuantumCircuit::new(1);
        assert!(matches!(
            stimuli(&a, &b, 4, 1),
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
        assert_eq!(stimuli(&a, &b, 4, 1), Err(expected.clone()));
        let mut checker = EquivalenceChecker::new();
        for strategy in [crate::Strategy::Construction, crate::Strategy::Proportional] {
            assert_eq!(checker.check(&a, &b, strategy), Err(expected.clone()));
        }
    }

    /// The stimuli run on the checker's package, under its budgets.
    #[test]
    fn stimuli_run_under_the_checker_budgets() {
        // Entangling layers: each output state is a dense 8-qubit diagram.
        let mut qc = QuantumCircuit::new(8);
        for layer in 0..2 {
            for q in 0..8 {
                qc.ry(0.37 + 0.11 * (layer * 8 + q) as f64, q);
            }
            for q in 0..7 {
                qc.cx(q, q + 1);
            }
        }
        let limited = |limits| {
            EquivalenceChecker::with_config(PackageConfig {
                limits,
                ..PackageConfig::default()
            })
        };
        let nodes = limited(Limits {
            max_nodes: Some(64),
            ..Limits::default()
        })
        .check_stimuli(&qc, &qc, 1, 1);
        assert!(
            matches!(
                nodes,
                Err(VerifyError::Dd(DdError::ResourceExhausted { kind: ResourceKind::Nodes, .. }))
            ),
            "{nodes:?}"
        );
        let deadline = limited(Limits {
            deadline: Some(std::time::Duration::ZERO),
            ..Limits::default()
        })
        .check_stimuli(&qc, &qc, 4, 1);
        assert!(
            matches!(deadline, Err(VerifyError::Dd(DdError::DeadlineExceeded { .. }))),
            "{deadline:?}"
        );
        // Every gate of both circuits, on each of the 4 inputs, went
        // through the checker's gate cache.
        let mut checker = EquivalenceChecker::new();
        assert!(checker.check_stimuli(&qc, &qc, 4, 1).unwrap().probably_equivalent);
        assert_eq!(
            checker.package().gate_cache_lookups(),
            4 * 2 * qc.gate_count() as u64
        );
    }
}
