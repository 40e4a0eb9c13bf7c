//! Property-based tests of the arity-generic node store, exercised at both
//! instantiations (`N = 2` vector DDs, `N = 4` matrix DDs) through one
//! shared harness.
//!
//! These subsume the hand-written per-arity unit tests for structural
//! sharing: instead of one fixed example each for vectors and matrices,
//! every property here runs over randomized diagram shapes at both
//! arities. Checked invariants:
//!
//! * **Unique-table canonicity** — rebuilding the same diagram in the same
//!   package yields pointer-identical edges and allocates nothing.
//! * **Refcount round trips** — balanced `inc_ref`/`dec_ref` leaves the
//!   package in a state where GC reclaims everything.
//! * **GC-survivor identity** — a referenced root survives collection with
//!   its node count and semantics (dense amplitudes) intact.

use proptest::prelude::*;
use qdd::circuit::{Operation, QuantumCircuit};
use qdd::complex::Complex;
use qdd::core::{DdPackage, MatEdge, VecEdge};
use qdd::sim::{DdSimulator, DenseSimulator};

/// One child slot in a random diagram spec: a selector byte plus a complex
/// weight. The selector picks zero / terminal / an already-built node.
type ChildSpec = (u8, f64, f64);

/// `spec[level][node]` is the list of `N` child specs for one node at that
/// level. Levels are built bottom-up, so level `l` nodes decide variable
/// `l` and may reference any node from levels below.
type DdSpec = Vec<Vec<Vec<ChildSpec>>>;

/// The per-arity surface the harness needs — the test-side mirror of the
/// store's own `HasStore<N>` dispatch.
trait StoreArity {
    const N: usize;
    const NAME: &'static str;
    type Edge: Copy + PartialEq + std::fmt::Debug;

    fn zero() -> Self::Edge;
    fn terminal(dd: &mut DdPackage, w: Complex) -> Self::Edge;
    fn make(dd: &mut DdPackage, var: u8, children: &[Self::Edge]) -> Self::Edge;
    fn is_zero(e: Self::Edge) -> bool;
    fn inc_ref(dd: &mut DdPackage, e: Self::Edge);
    fn dec_ref(dd: &mut DdPackage, e: Self::Edge);
    fn node_count(dd: &DdPackage, e: Self::Edge) -> usize;
    /// Dense semantics over `n` qubits, flattened for comparison.
    fn dense(dd: &DdPackage, e: Self::Edge, n: usize) -> Vec<Complex>;
    fn alive(dd: &DdPackage) -> usize;
}

struct VecArity;

impl StoreArity for VecArity {
    const N: usize = 2;
    const NAME: &'static str = "vector";
    type Edge = VecEdge;

    fn zero() -> VecEdge {
        VecEdge::ZERO
    }
    fn terminal(dd: &mut DdPackage, w: Complex) -> VecEdge {
        let idx = dd.intern(w);
        if idx.is_zero() {
            VecEdge::ZERO
        } else {
            VecEdge::terminal(idx)
        }
    }
    fn make(dd: &mut DdPackage, var: u8, children: &[VecEdge]) -> VecEdge {
        dd.make_vec_node(var, [children[0], children[1]]).unwrap()
    }
    fn is_zero(e: VecEdge) -> bool {
        e.is_zero()
    }
    fn inc_ref(dd: &mut DdPackage, e: VecEdge) {
        dd.inc_ref_vec(e);
    }
    fn dec_ref(dd: &mut DdPackage, e: VecEdge) {
        dd.dec_ref_vec(e);
    }
    fn node_count(dd: &DdPackage, e: VecEdge) -> usize {
        dd.vec_node_count(e)
    }
    fn dense(dd: &DdPackage, e: VecEdge, n: usize) -> Vec<Complex> {
        dd.to_dense_vector(e, n)
    }
    fn alive(dd: &DdPackage) -> usize {
        dd.stats().vnodes_alive
    }
}

struct MatArity;

impl StoreArity for MatArity {
    const N: usize = 4;
    const NAME: &'static str = "matrix";
    type Edge = MatEdge;

    fn zero() -> MatEdge {
        MatEdge::ZERO
    }
    fn terminal(dd: &mut DdPackage, w: Complex) -> MatEdge {
        let idx = dd.intern(w);
        if idx.is_zero() {
            MatEdge::ZERO
        } else {
            MatEdge::terminal(idx)
        }
    }
    fn make(dd: &mut DdPackage, var: u8, children: &[MatEdge]) -> MatEdge {
        dd.make_mat_node(var, [children[0], children[1], children[2], children[3]])
            .unwrap()
    }
    fn is_zero(e: MatEdge) -> bool {
        e.is_zero()
    }
    fn inc_ref(dd: &mut DdPackage, e: MatEdge) {
        dd.inc_ref_mat(e);
    }
    fn dec_ref(dd: &mut DdPackage, e: MatEdge) {
        dd.dec_ref_mat(e);
    }
    fn node_count(dd: &DdPackage, e: MatEdge) -> usize {
        dd.mat_node_count(e)
    }
    fn dense(dd: &DdPackage, e: MatEdge, n: usize) -> Vec<Complex> {
        dd.to_dense_matrix(e, n).into_iter().flatten().collect()
    }
    fn alive(dd: &DdPackage) -> usize {
        dd.stats().mnodes_alive
    }
}

/// Strategy: a random diagram spec with 1–3 levels of 1–3 nodes each.
fn dd_spec(arity: usize) -> impl Strategy<Value = DdSpec> {
    let child = (0u8..255, -1.0f64..1.0, -1.0f64..1.0);
    let node = prop::collection::vec(child, arity);
    let level = prop::collection::vec(node, 1..4);
    prop::collection::vec(level, 1..4)
}

/// Deterministically materializes a spec in `dd`, returning the root edge
/// (never the zero edge) and the number of variable levels.
///
/// The store enforces strict level structure — a node's children are zero
/// stubs, or (at `var == 0`) terminals, or nodes exactly one level down —
/// so each level draws its children only from the level built just before
/// it. A fallback node per level keeps the chain alive when every random
/// node normalizes to zero.
fn build_dd<A: StoreArity>(dd: &mut DdPackage, spec: &DdSpec) -> (A::Edge, usize) {
    let mut prev: Vec<A::Edge> = Vec::new();
    for (var, level) in spec.iter().enumerate() {
        let mut next: Vec<A::Edge> = Vec::new();
        for node_spec in level {
            let children: Vec<A::Edge> = node_spec
                .iter()
                .map(|&(sel, re, im)| {
                    if sel % 3 == 0 {
                        A::zero()
                    } else if var == 0 {
                        A::terminal(dd, Complex::new(re, im))
                    } else {
                        prev[(sel as usize / 3) % prev.len()]
                    }
                })
                .collect();
            let e = A::make(dd, var as u8, &children);
            if !A::is_zero(e) {
                next.push(e);
            }
        }
        if next.is_empty() {
            // All nodes at this level normalized to zero; keep the tower
            // going with a deterministic non-zero node.
            let mut children = vec![A::zero(); A::N];
            children[0] = if var == 0 {
                A::terminal(dd, Complex::ONE)
            } else {
                prev[0]
            };
            next.push(A::make(dd, var as u8, &children));
        }
        prev = next;
    }
    (*prev.last().unwrap(), spec.len())
}

const TOL: f64 = 1e-9;

fn assert_dense_eq(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert!(x.approx_eq(*y, TOL), "{x} vs {y}");
    }
}

/// Rebuilding the identical spec yields the identical edge and allocates
/// no new nodes or complex values: the unique table canonicalizes.
fn check_canonicity<A: StoreArity>(spec: &DdSpec) {
    let mut dd = DdPackage::new();
    let (r1, _) = build_dd::<A>(&mut dd, spec);
    let alive = A::alive(&dd);
    let complexes = dd.stats().complex_entries;
    let (r2, _) = build_dd::<A>(&mut dd, spec);
    assert_eq!(r1, r2, "{} rebuild must be pointer-identical", A::NAME);
    assert_eq!(A::alive(&dd), alive, "{} rebuild allocated nodes", A::NAME);
    assert_eq!(
        dd.stats().complex_entries,
        complexes,
        "{} rebuild interned new weights",
        A::NAME
    );
}

/// Balanced inc/dec leaves no roots behind: a following GC reclaims every
/// node of both stores.
fn check_refcount_round_trip<A: StoreArity>(spec: &DdSpec, pins: usize) {
    let mut dd = DdPackage::new();
    let (root, _) = build_dd::<A>(&mut dd, spec);
    for _ in 0..pins {
        A::inc_ref(&mut dd, root);
    }
    for _ in 0..pins {
        A::dec_ref(&mut dd, root);
    }
    dd.garbage_collect();
    assert_eq!(
        A::alive(&dd),
        0,
        "{} nodes leaked after balanced refcounts",
        A::NAME
    );
}

/// A referenced root survives GC unchanged — same node count, same dense
/// semantics — and is reclaimed once released.
fn check_gc_survivor_identity<A: StoreArity>(spec: &DdSpec) {
    let mut dd = DdPackage::new();
    let (root, levels) = build_dd::<A>(&mut dd, spec);
    A::inc_ref(&mut dd, root);
    let count = A::node_count(&dd, root);
    let dense = A::dense(&dd, root, levels);
    dd.garbage_collect();
    assert_eq!(
        A::node_count(&dd, root),
        count,
        "{} survivor changed shape",
        A::NAME
    );
    assert_dense_eq(&dense, &A::dense(&dd, root, levels));
    A::dec_ref(&mut dd, root);
    dd.garbage_collect();
    assert_eq!(A::alive(&dd), 0, "{} root not reclaimed", A::NAME);
}

/// Strategy: a random gate list over a 5-qubit register. Wide enough that
/// most two-qubit gates leave idle levels in their operator DDs, so most
/// gate diagrams carry identity-skip edges.
const SKIP_QUBITS: usize = 5;

fn skip_circuit() -> impl Strategy<Value = QuantumCircuit> {
    let op = (0u8..6, 0usize..SKIP_QUBITS, 0usize..SKIP_QUBITS, -3.0f64..3.0);
    prop::collection::vec(op, 1..20).prop_map(|ops| {
        let mut qc = QuantumCircuit::new(SKIP_QUBITS);
        for (kind, a, b, theta) in ops {
            match kind {
                0 => {
                    qc.h(a);
                }
                1 => {
                    qc.t(a);
                }
                2 => {
                    qc.rz(theta, a);
                }
                3 if a != b => {
                    qc.cx(a, b);
                }
                4 if a != b => {
                    qc.cp(theta, a, b);
                }
                _ => {
                    qc.x(a);
                }
            }
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The contract of identity-skipped matrix DDs: the representation is
    /// invisible to results. Amplitudes match the dense state-vector
    /// simulator, an independent oracle with no diagram at all.
    #[test]
    fn identity_skip_is_semantically_invisible(qc in skip_circuit()) {
        let mut sim = DdSimulator::with_seed(qc.clone(), 7);
        sim.run().expect("simulation");
        let amps = sim.package().to_dense_vector(sim.state(), SKIP_QUBITS);
        let dense = DenseSimulator::simulate(&qc, 7).expect("dense simulation");
        prop_assert_eq!(amps.len(), dense.state().len());
        for (x, y) in amps.iter().zip(dense.state()) {
            prop_assert!(x.approx_eq(*y, 1e-9), "{} vs {}", x, y);
        }
    }

    #[test]
    fn unique_table_canonicity_vec(spec in dd_spec(2)) {
        check_canonicity::<VecArity>(&spec);
    }

    #[test]
    fn unique_table_canonicity_mat(spec in dd_spec(4)) {
        check_canonicity::<MatArity>(&spec);
    }

    #[test]
    fn refcount_round_trip_vec(spec in dd_spec(2), pins in 1usize..4) {
        check_refcount_round_trip::<VecArity>(&spec, pins);
    }

    #[test]
    fn refcount_round_trip_mat(spec in dd_spec(4), pins in 1usize..4) {
        check_refcount_round_trip::<MatArity>(&spec, pins);
    }

    #[test]
    fn gc_survivor_identity_vec(spec in dd_spec(2)) {
        check_gc_survivor_identity::<VecArity>(&spec);
    }

    #[test]
    fn gc_survivor_identity_mat(spec in dd_spec(4)) {
        check_gc_survivor_identity::<MatArity>(&spec);
    }
}

/// Identity skip must actually strip identity structure: building every
/// gate diagram of a pinned circuit in a fresh package peaks at a fixed
/// number of live matrix nodes. Dense identity levels needed 1297, 1775
/// and 179 nodes on the same circuits.
#[test]
fn pinned_gate_diagrams_stay_within_their_node_bounds() {
    for (name, bound) in [("cliffordt15", 182), ("qft16", 296), ("grover12", 36)] {
        let path = format!("{}/circuits/{name}.qasm", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("pinned circuit");
        let qc = qdd::circuit::qasm::parse(&text).expect("pinned circuit parses");
        let n = qc.num_qubits();
        let mut dd = DdPackage::new();
        for op in qc.ops() {
            let (Operation::Gate(_) | Operation::Swap { .. }) = op else {
                continue;
            };
            for g in op.to_gate_sequence().expect("unitary operation") {
                dd.gate_dd(g.gate.matrix(), &g.controls, g.target, n)
                    .expect("gate diagram");
            }
        }
        let peak = dd.stats().mat_peak_nodes;
        assert!(peak <= bound, "{name}: {peak} matrix nodes, bound {bound}");
    }
}
