//! The decision-diagram package: arenas, unique tables, constructors, and
//! garbage collection.
//!
//! This module is a thin facade. The kernel is the arity-generic
//! [`NodeStore`](store::NodeStore) — one implementation of the unique
//! table, refcounts, birth stamps and GC mark/sweep, instantiated at
//! `N = 2` (vector DDs) and `N = 4` (matrix DDs) — plus focused submodules:
//!
//! * [`store`] — `NodeStore<N>` and the `HasStore<N>` arity dispatch;
//! * [`import`] — fallible cross-package diagram import;
//! * [`alloc`] — normalization + unique-table interning (`make_*_node`);
//! * [`refcount`] — external roots (`inc_ref_*` / `dec_ref_*`);
//! * [`gc`] — mark/sweep collection and the complex-table sweep;
//! * [`states`] — basis states and dense-amplitude import;
//! * [`gates`] — identity/gate-DD construction and the gate-DD cache;
//! * [`stats`] — node counting, statistics, traversal hookup.
//!
//! The public API is unchanged from the pre-split, hand-duplicated
//! implementation: concrete `*_vec` / `*_mat` methods wrap the generic
//! code, so downstream crates (and serialized files) see the exact same
//! surface and semantics.

mod alloc;
mod gates;
mod gc;
mod import;
mod refcount;
mod states;
mod stats;
mod store;

pub use self::gc::GcReport;
pub use self::stats::PackageStats;
pub use crate::normalize::VectorNormalization;

pub(crate) use self::store::HasStore;

use self::gates::GateKey;
use self::store::NodeStore;
use crate::compute::ComputeTables;
use crate::error::DdError;
use crate::limits::{Governor, Limits};
use crate::node::{MNode, VNode};
use crate::types::{MatEdge, MNodeId, Qubit, VecEdge, VNodeId};
use qdd_complex::{Complex, ComplexIdx, ComplexTable, FxHashMap, DEFAULT_TOLERANCE};
use std::time::Duration;

/// Tunable parameters of a [`DdPackage`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PackageConfig {
    /// Tolerance for complex-weight interning and approximate comparisons.
    pub tolerance: f64,
    /// Enables the operation caches (compute tables). Disabling them is
    /// only useful for the ablation experiments — expect exponential
    /// slowdowns on anything non-trivial.
    pub compute_tables: bool,
    /// Validates 2×2 gate matrices for unitarity in [`DdPackage::gate_dd`].
    pub check_unitarity: bool,
    /// Normalization rule for vector nodes. Measurement and sampling
    /// require the default [`VectorNormalization::L2`]; the alternative is
    /// for the ablation experiments.
    pub vector_normalization: VectorNormalization,
    /// Resource budgets enforced by the package (all unlimited by default).
    pub limits: Limits,
    /// Identity-skipped matrix edges (arXiv 2406.11959): a matrix edge may
    /// point to a node strictly below the contextually expected level, the
    /// gap meaning "identity on every skipped qubit", and nodes whose four
    /// children form the identity pattern over one child edge are never
    /// materialized. Disabling this forces dense matrix levels — only
    /// useful for bisecting regressions to the representation
    /// (`--no-identity-skip` on the CLI).
    pub identity_skip: bool,
}

impl Default for PackageConfig {
    fn default() -> Self {
        PackageConfig {
            tolerance: DEFAULT_TOLERANCE,
            compute_tables: true,
            check_unitarity: true,
            vector_normalization: VectorNormalization::default(),
            limits: Limits::default(),
            identity_skip: true,
        }
    }
}

/// The central object owning all decision-diagram state.
///
/// A package holds the node arenas, the unique tables that enforce structural
/// sharing, the complex-weight interning table, and the operation caches.
/// All diagrams created by one package may share nodes; edges from different
/// packages must never be mixed.
///
/// See the [crate-level documentation](crate) for a worked example.
///
/// # Ownership and threads
///
/// A package has a single owner. It is `Send` — a worker thread may build
/// one and hand it back — but not `Sync`: nothing inside it is locked or
/// atomic. Parallel drivers give every thread its own package (the shot
/// engine's workers, verification's two-sided construction) and move
/// results between packages with [`DdPackage::try_import_mat_edge`].
///
/// # The warm mark
///
/// [`DdPackage::mark_warm`] makes everything live at that point permanent,
/// and [`DdPackage::reset_to_warm`] drops everything added since. A driver
/// that re-runs the same circuit many times (the shot engine) builds the
/// circuit's fixed structure once, marks it, and resets before every run,
/// so each run starts from a bit-identical package (see DESIGN.md §15).
#[derive(Clone, Debug)]
pub struct DdPackage {
    /// Vector-DD store (nodes with 2 successors).
    pub(crate) vstore: NodeStore<2>,
    /// Matrix-DD store (nodes with 4 successors).
    pub(crate) mstore: NodeStore<4>,
    pub(crate) ctable: ComplexTable,
    pub(crate) caches: ComputeTables,
    pub(crate) config: PackageConfig,
    /// Built gate operators by exact identity. Survives routine GCs as a
    /// root set (bounded by `GATE_CACHE_CAP`), flushed by pressure GCs.
    gate_cache: FxHashMap<GateKey, MatEdge>,
    /// Whether `gate_cache` changed since the warm mark.
    pub(crate) gate_cache_dirty: bool,
    gate_lookups: u64,
    gate_hits: u64,
    /// How many matrix-node constructions collapsed into identity-skip
    /// pass-through edges instead of materializing a node.
    pub(crate) identity_collapses: u64,
    /// Reference counts of the *weights* of registered root edges. Node
    /// roots are counted on the nodes themselves, but a root edge's own
    /// weight lives only in the caller's copy of the edge, so the
    /// complex-table sweep needs this registry to keep it pinned.
    root_weights: FxHashMap<ComplexIdx, u32>,
    /// Monotone node-creation counter backing `Node::birth`.
    births: u64,
    gc_runs: u64,
    governor: Governor,
    /// Package-level state at the warm mark (see [`Self::mark_warm`]).
    warm: WarmState,
    /// When set, `check_alloc_budget` waves allocations through. Only the
    /// approximation rebuild raises it: pruning must be able to run *while*
    /// the allocator is exhausted (that is the whole point), transiently
    /// overshooting the budget by at most the reachable set it is about to
    /// shrink.
    pub(crate) budget_bypass: bool,
}

/// What [`DdPackage::reset_to_warm`] restores besides the stores and the
/// complex table (which keep their own marks).
#[derive(Clone, Debug, Default)]
struct WarmState {
    births: u64,
    gate_cache: FxHashMap<GateKey, MatEdge>,
    root_weights: FxHashMap<ComplexIdx, u32>,
}

impl DdPackage {
    /// Creates a package with the default configuration.
    pub fn new() -> Self {
        Self::with_config(PackageConfig::default())
    }

    /// Creates a package with an explicit configuration.
    pub fn with_config(config: PackageConfig) -> Self {
        DdPackage {
            vstore: NodeStore::new(),
            mstore: NodeStore::new(),
            ctable: ComplexTable::with_tolerance(config.tolerance),
            caches: ComputeTables::bounded(config.limits.max_compute_entries),
            config,
            gate_cache: FxHashMap::default(),
            gate_cache_dirty: false,
            gate_lookups: 0,
            gate_hits: 0,
            identity_collapses: 0,
            root_weights: FxHashMap::default(),
            births: 0,
            gc_runs: 0,
            governor: Governor::default(),
            warm: WarmState::default(),
            budget_bypass: false,
        }
    }

    // ------------------------------------------------------------------
    // Warm mark
    // ------------------------------------------------------------------

    /// Makes everything live at this point permanent: garbage collection
    /// never sweeps it, complex-table reclamation never reclaims it, and no
    /// later allocation reuses a slot below the mark. Compute tables are
    /// cleared, so the mark holds no cached results. Marking again moves
    /// the mark forward.
    ///
    /// Permanent nodes still count as live against
    /// [`Limits::max_nodes`](crate::Limits::max_nodes).
    pub fn mark_warm(&mut self) {
        self.vstore.mark_warm();
        self.mstore.mark_warm();
        self.ctable.mark_warm();
        self.caches.clear();
        self.warm = WarmState {
            births: self.births,
            gate_cache: self.gate_cache.clone(),
            root_weights: self.root_weights.clone(),
        };
        self.gate_cache_dirty = false;
    }

    /// Drops every node, interned weight, compute-table entry and root pin
    /// added since [`Self::mark_warm`] — or, without a mark, everything
    /// since construction. Node stores and the complex table are truncated
    /// back to their lengths at the mark; the gate-DD cache is restored if
    /// it changed, and the birth counter rewinds.
    ///
    /// Afterwards the package is bit-identical to its state at the mark, so
    /// replaying the same operations yields the same edge ids, the same
    /// weights and the same allocation pattern. Statistics counters
    /// (lookups, hits, GC runs, peaks) keep accumulating.
    pub fn reset_to_warm(&mut self) {
        self.vstore.reset_to_warm();
        self.mstore.reset_to_warm();
        self.ctable.reset_to_warm();
        self.caches.clear();
        self.root_weights.clone_from(&self.warm.root_weights);
        self.births = self.warm.births;
        if self.gate_cache_dirty {
            self.gate_cache.clone_from(&self.warm.gate_cache);
            self.gate_cache_dirty = false;
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PackageConfig {
        &self.config
    }

    /// The active resource limits.
    pub fn limits(&self) -> &Limits {
        &self.config.limits
    }

    /// Replaces the active resource limits. Drivers use this to exempt
    /// mandatory setup (e.g. the initial `|0…0⟩` state, whose size is the
    /// register width, not "work") from a node budget, restoring the
    /// budget before governed operations begin. The compute-table bound is
    /// fixed at construction and is not affected.
    pub fn set_limits(&mut self, limits: Limits) {
        self.config.limits = limits;
    }

    // ------------------------------------------------------------------
    // Resource governor
    // ------------------------------------------------------------------

    /// Starts the wall-clock budget configured in
    /// [`Limits::deadline`], if any. Returns whether a deadline is now
    /// armed. Drivers call this once at the start of governed work
    /// (e.g. a simulation run); until armed, no deadline is enforced.
    pub fn arm_deadline(&mut self) -> bool {
        if let Some(budget) = self.config.limits.deadline {
            self.governor.arm(budget);
        }
        self.governor.armed()
    }

    /// Starts an explicit wall-clock budget, overriding
    /// [`Limits::deadline`] for this arming.
    pub fn arm_deadline_for(&mut self, budget: Duration) {
        self.governor.arm(budget);
    }

    /// Stops deadline enforcement (e.g. when a run completes).
    pub fn disarm_deadline(&mut self) {
        self.governor.disarm();
    }

    /// Immediate check of the armed deadline, for per-operation use by
    /// drivers. Never fails when no deadline is armed.
    pub fn check_deadline(&self) -> Result<(), DdError> {
        self.governor.check_deadline_now()
    }

    /// Per-recursion-level governor check used by the DD operations:
    /// recursion depth always, the armed deadline periodically.
    #[inline]
    pub(crate) fn governor_check(&mut self, depth: usize) -> Result<(), DdError> {
        let limits = self.config.limits;
        self.governor.check(depth, &limits)
    }

    // ------------------------------------------------------------------
    // Basic accessors
    // ------------------------------------------------------------------

    /// Interns a complex value, returning its stable handle.
    #[inline]
    pub fn intern(&mut self, v: Complex) -> ComplexIdx {
        self.ctable.lookup(v)
    }

    /// The complex value behind an interned handle.
    #[inline]
    pub fn complex_value(&self, idx: ComplexIdx) -> Complex {
        self.ctable.value(idx)
    }

    /// Read access to a vector node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal sentinel or a foreign/freed id.
    #[inline]
    pub fn vnode(&self, id: VNodeId) -> &VNode {
        self.vstore.node(id)
    }

    /// Read access to a matrix node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal sentinel or a foreign/freed id.
    #[inline]
    pub fn mnode(&self, id: MNodeId) -> &MNode {
        self.mstore.node(id)
    }

    /// The variable a vector edge decides on, or `None` for terminal edges.
    #[inline]
    pub fn vec_var(&self, e: VecEdge) -> Option<Qubit> {
        if e.is_terminal() {
            None
        } else {
            Some(self.vnode(e.node).var)
        }
    }

    /// The variable a matrix edge decides on, or `None` for terminal edges.
    #[inline]
    pub fn mat_var(&self, e: MatEdge) -> Option<Qubit> {
        if e.is_terminal() {
            None
        } else {
            Some(self.mnode(e.node).var)
        }
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        Self::new()
    }
}

// Every package has one owner; worker threads build their own and may hand
// them back. Compile-time proof, not a test.
#[allow(dead_code)]
fn assert_send() {
    fn ok<T: Send>() {}
    ok::<DdPackage>();
}

#[cfg(test)]
mod warm_tests {
    use super::*;
    use crate::gates::{self, Control};
    use crate::traverse::Traversable;

    fn bell(dd: &mut DdPackage) -> VecEdge {
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap()
    }

    /// A run that allocates past the mark.
    fn run(dd: &mut DdPackage) -> VecEdge {
        let s = bell(dd);
        let s = dd.apply_gate(s, gates::t(), &[], 0).unwrap();
        dd.apply_gate(s, gates::ry(0.3), &[], 1).unwrap()
    }

    fn amplitude_bits(dd: &DdPackage, e: VecEdge) -> Vec<(u64, u64)> {
        dd.to_dense_vector(e, 2)
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    #[test]
    fn reset_to_warm_is_bit_reproducible() {
        let mut dd = DdPackage::new();
        let _ = bell(&mut dd);
        dd.mark_warm();
        let first = run(&mut dd);
        let first_bits = amplitude_bits(&dd, first);
        let (vnodes, mnodes, entries) = {
            let s = dd.stats();
            (s.vnodes_allocated, s.mnodes_allocated, s.complex_entries)
        };
        // Pressure GC flushes the gate cache; the reset must bring it back.
        dd.gc_under_pressure();
        for _ in 0..3 {
            dd.reset_to_warm();
            let again = run(&mut dd);
            // Same edge ids, same amplitudes to the bit, same allocation
            // pattern: a reset replays a run exactly.
            assert_eq!(again, first);
            assert_eq!(amplitude_bits(&dd, again), first_bits);
            let s = dd.stats();
            assert_eq!(
                (s.vnodes_allocated, s.mnodes_allocated, s.complex_entries),
                (vnodes, mnodes, entries)
            );
        }
    }

    #[test]
    fn pressure_gc_frees_no_warm_node_or_weight() {
        let mut dd = DdPackage::new();
        let warm_bell = bell(&mut dd);
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        dd.mark_warm();
        let bell_bits = amplitude_bits(&dd, warm_bell);
        let mut warm_nodes = Vec::new();
        dd.visit_preorder(warm_bell, |id, n| warm_nodes.push((id, n.children)));

        // Nothing is pinned, so every node and weight is garbage to the
        // sweep unless the mark protects it.
        let _ = run(&mut dd);
        let report = dd.gc_under_pressure();
        assert!(report.freed_vnodes > 0, "post-mark garbage is reclaimed");
        // Reading a swept node or a reclaimed weight panics.
        for (id, children) in warm_nodes {
            assert_eq!(Traversable::<2>::node(&dd, id).children, children);
        }
        assert_eq!(amplitude_bits(&dd, warm_bell), bell_bits);
        assert_eq!(dd.mat_node_count(cx), 2);
        let _ = dd.to_dense_matrix(cx, 2);
    }

    #[test]
    fn warm_root_pins_are_restored() {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(2).unwrap();
        dd.inc_ref_vec(z);
        dd.mark_warm();
        // The run releases the warm pin and pins a fresh state instead.
        let s = dd.apply_gate(z, gates::H, &[], 0).unwrap();
        dd.inc_ref_vec(s);
        dd.dec_ref_vec(z);
        dd.reset_to_warm();
        // Back at the mark: the warm pin is held again, so releasing it
        // once balances.
        dd.dec_ref_vec(z);
    }
}
