//! The equivalence checker.

use crate::alternating::AlternatingCheck;
use crate::error::VerifyError;
use crate::result::{Counterexample, Equivalence, EquivalenceReport, Strategy};
use qdd_circuit::{GateApplication, Operation, QuantumCircuit};
use qdd_core::{DdPackage, Limits, MatEdge, PackageConfig};

/// Default live-node estimate that triggers an intermediate garbage
/// collection between gate applications. Checking builds operator (4-ary)
/// diagrams, so this sits well below the simulator's default threshold.
const DEFAULT_GC_THRESHOLD: usize = 500_000;

/// One primitive step of a flattened circuit.
#[derive(Clone, Debug)]
pub(crate) enum Flat {
    Gate(GateApplication),
    Barrier,
}

impl Flat {
    pub(crate) fn gate(&self) -> Option<&GateApplication> {
        match self {
            Flat::Gate(g) => Some(g),
            Flat::Barrier => None,
        }
    }
}

/// Checks circuit equivalence on decision diagrams.
///
/// A checker owns its [`DdPackage`]; reusing one checker across many checks
/// shares gate diagrams and cache entries.
///
/// The package's [`Limits`] apply to every check: node/complex budgets are
/// enforced during gate application, and a configured deadline is armed for
/// the duration of [`Self::check`]. Resource overruns surface as
/// [`VerifyError::Dd`].
///
/// Every check runs on the checker's one package, so both circuits'
/// diagrams are canonical in the same unique table (Example 11).
#[derive(Debug)]
pub struct EquivalenceChecker {
    dd: DdPackage,
}

impl Default for EquivalenceChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl EquivalenceChecker {
    /// Creates a checker with a fresh, unlimited package (auto-GC at
    /// `DEFAULT_GC_THRESHOLD` live nodes).
    pub fn new() -> Self {
        Self::with_config(PackageConfig {
            limits: Limits {
                auto_gc_threshold: DEFAULT_GC_THRESHOLD,
                ..Limits::default()
            },
            ..PackageConfig::default()
        })
    }

    /// Creates a checker over an explicit package configuration — the hook
    /// for resource-governed verification.
    pub fn with_config(config: PackageConfig) -> Self {
        EquivalenceChecker {
            dd: DdPackage::with_config(config),
        }
    }

    /// Has no effect: every check runs on one thread, in the checker's own
    /// package.
    #[deprecated(note = "checks are single-threaded; this call does nothing")]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Read access to the underlying package (for visualization of the
    /// working diagram).
    pub fn package(&self) -> &DdPackage {
        &self.dd
    }

    /// Checks whether `left` and `right` realize the same unitary.
    ///
    /// # Errors
    ///
    /// [`VerifyError::WidthMismatch`] for circuits of different sizes,
    /// [`VerifyError::NonUnitary`] if either circuit contains measurements,
    /// resets, or classically-conditioned gates.
    pub fn check(
        &mut self,
        left: &QuantumCircuit,
        right: &QuantumCircuit,
        strategy: Strategy,
    ) -> Result<EquivalenceReport, VerifyError> {
        self.dd.arm_deadline();
        let out = match strategy {
            Strategy::Construction => flatten(left, right)
                .and_then(|(l, r)| self.check_construction(&l, &r, left.num_qubits())),
            _ => AlternatingCheck::new(&mut self.dd, left, right).and_then(|mut alt| {
                while alt.step(&mut self.dd, strategy)?.is_some() {}
                Ok(alt.into_report(&self.dd, strategy))
            }),
        };
        self.dd.disarm_deadline();
        out
    }

    fn check_construction(
        &mut self,
        lflat: &[Flat],
        rflat: &[Flat],
        n: usize,
    ) -> Result<EquivalenceReport, VerifyError> {
        let mut trace = Vec::new();
        let u1 = build_system_matrix(&mut self.dd, lflat, n, &mut trace)?;
        self.dd.inc_ref_mat(u1);
        let u2 = build_system_matrix(&mut self.dd, rflat, n, &mut trace)?;
        self.dd.dec_ref_mat(u1);
        let peak = trace.iter().copied().max().unwrap_or(0);

        // Fast path: canonicity makes equal functionalities the identical
        // edge (Example 11). Beyond a handful of qubits, however, the two
        // independently built diagrams accumulate floating-point error past
        // the interning tolerance and stop being pointer-equal even for
        // equivalent circuits — so the slow path decides numerically on
        // `U₂† · U₁ ≈ e^{iθ}·I`.
        let mut witness = None;
        let result = if u1 == u2 {
            Equivalence::Equivalent
        } else if u1.node == u2.node {
            let w1 = self.dd.complex_value(u1.weight);
            let w2 = self.dd.complex_value(u2.weight);
            let ratio = w1 / w2;
            if (ratio.abs() - 1.0).abs() < 1e-9 {
                Equivalence::EquivalentUpToGlobalPhase { phase: ratio.arg() }
            } else {
                Equivalence::NotEquivalent
            }
        } else {
            let u2d = self.dd.adjoint_mat(u2)?;
            let m = self.dd.mat_mat(u2d, u1)?;
            match counterexample(&self.dd, m) {
                Some(cx) => {
                    witness = Some(cx);
                    Equivalence::NotEquivalent
                }
                None => {
                    let reference = self.dd.matrix_entry(m, 0, 0);
                    if reference.approx_eq(qdd_complex::Complex::ONE, 1e-9) {
                        Equivalence::Equivalent
                    } else {
                        Equivalence::EquivalentUpToGlobalPhase { phase: reference.arg() }
                    }
                }
            }
        };
        Ok(EquivalenceReport {
            result,
            strategy: Strategy::Construction,
            nodes_per_step: trace,
            peak_nodes: peak,
            applied_left: count_gates(lflat),
            applied_right: count_gates(rflat),
            counterexample: witness,
        })
    }
}

/// Finds a matrix entry deviating from `M[0][0] · δ_rc` — i.e. a witness
/// that `M` is not the identity up to a global phase. Catches both
/// magnitude deviations and phase-only deviations (e.g. `M = Z`).
pub(crate) fn counterexample(dd: &DdPackage, m: MatEdge) -> Option<Counterexample> {
    const TOL: f64 = 1e-9;
    let reference = dd.matrix_entry(m, 0, 0);
    fn rec(
        dd: &DdPackage,
        e: MatEdge,
        acc: qdd_complex::Complex,
        reference: qdd_complex::Complex,
        row: u64,
        col: u64,
    ) -> Option<Counterexample> {
        if e.is_zero() {
            // An all-zero block deviates iff it intersects the diagonal
            // (aligned blocks: iff row == col) and the reference phase
            // is non-zero.
            return if row == col && reference.abs() > TOL {
                Some(Counterexample { row, col })
            } else {
                None
            };
        }
        let acc = acc * dd.complex_value(e.weight);
        if e.is_terminal() {
            let expected = if row == col {
                reference
            } else {
                qdd_complex::Complex::ZERO
            };
            return if (acc - expected).abs() > TOL {
                Some(Counterexample { row, col })
            } else {
                None
            };
        }
        let node = dd.mnode(e.node);
        // Identity-skip edges may land strictly below `level - 1`; the
        // gap reads as `diag(sub, sub)` per skipped level. The
        // off-diagonal blocks are zero where row != col (never a
        // deviation), and both diagonal blocks are the same subproblem,
        // so descending straight to the node's own level — leaving the
        // skipped row/col bits at equal zeros — searches a
        // representative diagonal block without re-reading the weight.
        let half = node.var as usize;
        for (idx, child) in node.children.iter().enumerate() {
            let (bi, bj) = ((idx >> 1) as u64, (idx & 1) as u64);
            let r = row | (bi << half);
            let c = col | (bj << half);
            if let Some(cx) = rec(dd, *child, acc, reference, r, c) {
                return Some(cx);
            }
        }
        None
    }
    rec(dd, m, qdd_complex::Complex::ONE, reference, 0, 0)
}

/// Builds the system matrix of a unitary circuit (Example 10/11's
/// construction route): starting from the identity, every gate DD
/// multiplies onto the product from the left. Returns the matrix and the
/// node count after each gate. The matrix is not pinned, so a caller that
/// collects garbage must `inc_ref_mat` it first.
///
/// # Errors
///
/// [`VerifyError::NonUnitary`] (`circuit` 0) for the first measurement,
/// reset or classically-conditioned gate, and [`VerifyError::Dd`] when a
/// budget of the package runs out.
///
/// # Examples
///
/// The three-qubit QFT's functionality (paper Fig. 6):
///
/// ```
/// use qdd_circuit::library;
///
/// # fn main() -> Result<(), qdd_verify::VerifyError> {
/// let mut dd = qdd_core::DdPackage::new();
/// let (u, nodes_per_gate) = qdd_verify::functionality(&mut dd, &library::qft(3, true))?;
/// assert_eq!(nodes_per_gate.len(), 9); // 3 H, 3 controlled phases, a swap as 3 CX
/// assert_eq!(dd.mat_node_count(u), *nodes_per_gate.last().unwrap());
/// # Ok(())
/// # }
/// ```
pub fn functionality(
    dd: &mut DdPackage,
    qc: &QuantumCircuit,
) -> Result<(MatEdge, Vec<usize>), VerifyError> {
    let flat = flatten_one(qc, 0)?;
    let mut trace = Vec::with_capacity(flat.len());
    let u = build_system_matrix(dd, &flat, qc.num_qubits(), &mut trace)?;
    Ok((u, trace))
}

/// The multiplication loop of [`functionality`], over a flattened circuit;
/// appends each gate's node count to `trace`.
fn build_system_matrix(
    dd: &mut DdPackage,
    flat: &[Flat],
    n: usize,
    trace: &mut Vec<usize>,
) -> Result<MatEdge, VerifyError> {
    let mut u = dd.identity(n)?;
    for step in flat {
        let Flat::Gate(g) = step else { continue };
        let gate = dd.gate_dd(g.gate.matrix(), &g.controls, g.target, n)?;
        u = dd.mat_mat(gate, u)?;
        trace.push(dd.mat_node_count(u));
        maybe_gc(dd, u);
    }
    Ok(u)
}

/// Collects garbage if the package asks for it, keeping `root` alive.
pub(crate) fn maybe_gc(dd: &mut DdPackage, root: MatEdge) {
    if !dd.wants_auto_gc() {
        return;
    }
    dd.inc_ref_mat(root);
    dd.garbage_collect();
    dd.dec_ref_mat(root);
}

pub(crate) fn count_gates(flat: &[Flat]) -> usize {
    flat.iter().filter(|f| f.gate().is_some()).count()
}

/// Flattens two circuits of equal width into primitive gates and barriers
/// — the one gate sequence every checking route multiplies out.
///
/// # Errors
///
/// [`VerifyError::WidthMismatch`] for circuits of different sizes,
/// [`VerifyError::NonUnitary`] for the first measurement, reset or
/// classically-conditioned gate, left circuit first.
pub(crate) fn flatten(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
) -> Result<(Vec<Flat>, Vec<Flat>), VerifyError> {
    if left.num_qubits() != right.num_qubits() {
        return Err(VerifyError::WidthMismatch {
            left: left.num_qubits(),
            right: right.num_qubits(),
        });
    }
    Ok((flatten_one(left, 0)?, flatten_one(right, 1)?))
}

/// Flattens one circuit; `circuit` names its side in a
/// [`VerifyError::NonUnitary`].
fn flatten_one(qc: &QuantumCircuit, circuit: usize) -> Result<Vec<Flat>, VerifyError> {
    let mut out = Vec::with_capacity(qc.len());
    for (op_index, op) in qc.ops().iter().enumerate() {
        match op {
            Operation::Barrier => out.push(Flat::Barrier),
            Operation::Gate(g) if g.condition.is_none() => out.push(Flat::Gate(g.clone())),
            Operation::Swap { .. } => {
                for g in op.to_gate_sequence().expect("swap is unitary") {
                    out.push(Flat::Gate(g));
                }
            }
            _ => return Err(VerifyError::NonUnitary { circuit, op_index }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::{compile, library, QuantumCircuit};

    /// Paper Example 11: the QFT and its compiled form yield the same
    /// canonical diagram — equivalent under every strategy.
    #[test]
    fn qft_vs_compiled_equivalent_under_all_strategies() {
        let qft = library::qft(3, true);
        let compiled = compile::compiled_qft(3);
        for strategy in Strategy::ALL {
            let mut checker = EquivalenceChecker::new();
            let report = checker.check(&qft, &compiled, strategy).unwrap();
            assert!(
                report.result.is_equivalent(),
                "{strategy}: {report}"
            );
        }
    }

    /// Paper Example 12: the barrier-guided alternating check stays near
    /// the identity — far below the full-construction peak.
    #[test]
    fn alternating_peak_is_below_construction_peak() {
        let qft = library::qft(3, true);
        let compiled = compile::compiled_qft(3);
        let mut checker = EquivalenceChecker::new();
        let full = checker.check(&qft, &compiled, Strategy::Construction).unwrap();
        let mut checker = EquivalenceChecker::new();
        let alt = checker.check(&qft, &compiled, Strategy::BarrierGuided).unwrap();
        assert!(
            alt.peak_nodes < full.peak_nodes,
            "alternating {} vs construction {}",
            alt.peak_nodes,
            full.peak_nodes
        );
    }

    #[test]
    fn detects_single_gate_difference() {
        let good = library::ghz(4);
        let mut bad = library::ghz(4);
        bad.z(2); // extra phase flip
        for strategy in Strategy::ALL {
            let mut checker = EquivalenceChecker::new();
            let report = checker.check(&good, &bad, strategy).unwrap();
            assert_eq!(report.result, Equivalence::NotEquivalent, "{strategy}");
            let cx = report.counterexample.expect("witness");
            // The extra Z makes G'†G = Z — a phase-only deviation that the
            // witness search must still localize (some diagonal entry whose
            // phase differs from M[0][0]).
            assert!(cx.row < 16 && cx.col < 16);
        }
    }

    /// With identity-skip edges, the miscompare diagram `U₂†·U₁` for an
    /// extra X on q0 in a 5-qubit register is a single node at the *bottom*
    /// level, reached through a 4-level skip. The witness search must map
    /// that node's branches to bit 0 — not to the bit of the level the
    /// recursion happens to be at — so the counterexample coordinates stay
    /// meaningful.
    #[test]
    fn counterexample_coordinates_respect_skip_edges() {
        let empty = QuantumCircuit::new(5);
        let mut with_x = QuantumCircuit::new(5);
        with_x.x(0);
        let mut checker = EquivalenceChecker::new();
        let report = checker
            .check(&empty, &with_x, Strategy::Construction)
            .unwrap();
        assert_eq!(report.result, Equivalence::NotEquivalent);
        let cx = report.counterexample.expect("witness");
        assert_eq!((cx.row, cx.col), (0, 1), "X on q0 deviates at (0, 1)");
    }

    #[test]
    fn global_phase_is_reported_as_phase_equivalence() {
        let mut a = QuantumCircuit::new(1);
        a.x(0);
        let mut b = QuantumCircuit::new(1);
        // Y = i·X·Z up to phase: Z then Y equals i·X.
        b.z(0).y(0);
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&a, &b, Strategy::Construction).unwrap();
        match report.result {
            Equivalence::EquivalentUpToGlobalPhase { phase } => {
                assert!((phase.abs() - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
            }
            other => panic!("expected phase equivalence, got {other:?}"),
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let a = library::ghz(2);
        let b = library::ghz(3);
        let mut checker = EquivalenceChecker::new();
        assert!(matches!(
            checker.check(&a, &b, Strategy::OneToOne),
            Err(VerifyError::WidthMismatch { left: 2, right: 3 })
        ));
    }

    #[test]
    fn non_unitary_rejected() {
        let mut a = QuantumCircuit::new(1);
        a.add_creg("c", 1);
        a.h(0).measure(0, 0);
        let b = {
            let mut qc = QuantumCircuit::new(1);
            qc.h(0);
            qc
        };
        let mut checker = EquivalenceChecker::new();
        assert!(matches!(
            checker.check(&a, &b, Strategy::OneToOne),
            Err(VerifyError::NonUnitary { circuit: 0, op_index: 1 })
        ));
    }

    #[test]
    fn circuit_equals_itself() {
        let qc = library::random_circuit(4, 20, 13);
        for strategy in Strategy::ALL {
            let mut checker = EquivalenceChecker::new();
            let report = checker.check(&qc, &qc, strategy).unwrap();
            assert_eq!(report.result, Equivalence::Equivalent, "{strategy}");
        }
    }

    #[test]
    fn swap_decomposition_is_equivalent() {
        let mut a = QuantumCircuit::new(3);
        a.swap(0, 2);
        let mut b = QuantumCircuit::new(3);
        b.cx(0, 2).cx(2, 0).cx(0, 2);
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&a, &b, Strategy::OneToOne).unwrap();
        assert_eq!(report.result, Equivalence::Equivalent);
    }

    #[test]
    fn report_counts_applied_gates() {
        let qft = library::qft(3, false);
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&qft, &qft, Strategy::OneToOne).unwrap();
        assert_eq!(report.applied_left, qft.gate_count());
        assert_eq!(report.applied_right, qft.gate_count());
    }

    #[test]
    fn node_budget_surfaces_as_dd_error() {
        let config = PackageConfig {
            limits: Limits {
                max_nodes: Some(8),
                ..Limits::default()
            },
            ..PackageConfig::default()
        };
        let mut checker = EquivalenceChecker::with_config(config);
        let qft = library::qft(5, true);
        let err = checker
            .check(&qft, &qft, Strategy::Construction)
            .unwrap_err();
        assert!(matches!(
            err,
            VerifyError::Dd(qdd_core::DdError::ResourceExhausted { .. })
        ));
    }

    /// Every node budget either lets the construction check finish or
    /// stops it with a typed error — the adjoint step used to panic once the
    /// budget ran out (GHZ-4 against GHZ-4 plus a Z, `max_nodes` 18–21).
    #[test]
    fn construction_check_never_panics_under_a_node_budget() {
        let good = library::ghz(4);
        let mut bad = library::ghz(4);
        bad.z(2);
        for max_nodes in 1..=64 {
            let mut checker = EquivalenceChecker::with_config(PackageConfig {
                limits: Limits {
                    max_nodes: Some(max_nodes),
                    ..Limits::default()
                },
                ..PackageConfig::default()
            });
            match checker.check(&good, &bad, Strategy::Construction) {
                Ok(report) => assert_eq!(report.result, Equivalence::NotEquivalent),
                Err(VerifyError::Dd(qdd_core::DdError::ResourceExhausted { .. })) => {}
                Err(e) => panic!("max_nodes {max_nodes}: {e}"),
            }
        }
    }

    #[test]
    fn deadline_zero_aborts_check() {
        let config = PackageConfig {
            limits: Limits {
                deadline: Some(std::time::Duration::ZERO),
                ..Limits::default()
            },
            ..PackageConfig::default()
        };
        let mut checker = EquivalenceChecker::with_config(config);
        let qft = library::qft(5, true);
        let err = checker
            .check(&qft, &qft, Strategy::OneToOne)
            .unwrap_err();
        assert!(matches!(
            err,
            VerifyError::Dd(qdd_core::DdError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn inverse_circuit_composition_is_identity() {
        let qc = library::random_circuit(3, 15, 7);
        let inv = qc.inverse().unwrap();
        let mut composed = QuantumCircuit::new(3);
        composed.extend(&qc);
        composed.extend(&inv);
        let empty = QuantumCircuit::new(3); // identity
        let mut checker = EquivalenceChecker::new();
        let report = checker
            .check(&composed, &empty, Strategy::Construction)
            .unwrap();
        assert!(report.result.is_equivalent());
    }
}
