//! Introspection: node counting, statistics snapshots, constant-time
//! counters, and the [`Traversable`] implementations that hook the package
//! into the shared traversal layer.

use crate::compute::ComputeTableStat;
use crate::node::{MNode, VNode};
use crate::package::DdPackage;
use crate::traverse::Traversable;
use crate::types::{MatEdge, MNodeId, VecEdge, VNodeId};
use qdd_complex::ScratchGuard;

/// A snapshot of package health, for diagnostics and experiments.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PackageStats {
    /// Live (reachable or never-collected) vector nodes.
    pub vnodes_alive: usize,
    /// Allocated vector-node slots (live + free-listed).
    pub vnodes_allocated: usize,
    /// Live matrix nodes.
    pub mnodes_alive: usize,
    /// Allocated matrix-node slots.
    pub mnodes_allocated: usize,
    /// Distinct interned complex values.
    pub complex_entries: usize,
    /// Total compute-table lookups.
    pub cache_lookups: u64,
    /// Compute-table lookups answered from cache.
    pub cache_hits: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Garbage-collection runs so far.
    pub gc_runs: u64,
    /// Garbage collections triggered by resource-budget pressure (a subset
    /// of `gc_runs`).
    pub gc_pressure_runs: u64,
    /// Compute-table entries dropped by colliding inserts (the direct-mapped
    /// tables overwrite in place, so pressure shows up here rather than as
    /// whole-table flushes).
    pub compute_evictions: u64,
    /// Whole compute-table clears (after garbage collection or by explicit
    /// request).
    pub compute_clears: u64,
    /// High-water mark of [`DdPackage::live_node_estimate`].
    pub peak_live_nodes: usize,
    /// Gate-DD cache probes ([`DdPackage::gate_dd`] calls that reached the
    /// cache).
    pub gate_cache_lookups: u64,
    /// Gate-DD cache probes answered without rebuilding the operator DD.
    pub gate_cache_hits: u64,
    /// High-water mark of live *matrix* nodes (the paper's operator-DD
    /// size measure; drops when identity skip elides idle levels).
    pub mat_peak_nodes: usize,
    /// Matrix-node constructions elided by the identity-skip collapse rule
    /// (would-be `[e 0; 0 e]` nodes turned into pass-through edges).
    pub identity_nodes_skipped: u64,
    /// Node creations (vector + matrix) since the package was built; the
    /// difference of two readings is what happened in between.
    pub node_births: u64,
}

impl Traversable<2> for DdPackage {
    #[inline]
    fn node(&self, id: VNodeId) -> &VNode {
        self.vstore.node(id)
    }

    #[inline]
    fn arena_len(&self) -> usize {
        self.vstore.arena_len()
    }

    #[inline]
    fn walk_scratch(&self) -> ScratchGuard<'_> {
        self.vstore.scratch()
    }
}

impl Traversable<4> for DdPackage {
    #[inline]
    fn node(&self, id: MNodeId) -> &MNode {
        self.mstore.node(id)
    }

    #[inline]
    fn arena_len(&self) -> usize {
        self.mstore.arena_len()
    }

    #[inline]
    fn walk_scratch(&self) -> ScratchGuard<'_> {
        self.mstore.scratch()
    }
}

impl DdPackage {
    /// The number of distinct nodes reachable from `e`, excluding the
    /// terminal (the size measure used throughout the paper, e.g. Ex. 6).
    ///
    /// Allocation-free after warm-up (epoch-stamped visited set), so drivers
    /// may call this per simulation step.
    pub fn vec_node_count(&self, e: VecEdge) -> usize {
        self.count_reachable(e)
    }

    /// The number of distinct nodes reachable from `e`, excluding the
    /// terminal.
    pub fn mat_node_count(&self, e: MatEdge) -> usize {
        self.count_reachable(e)
    }

    /// A constant-time estimate of live nodes (allocated minus free-listed
    /// slots) — the trigger metric for automatic garbage collection in
    /// long-running simulations and checks.
    #[inline]
    pub fn live_node_estimate(&self) -> usize {
        self.vstore.live_len() + self.mstore.live_len()
    }

    /// Garbage collections triggered by budget pressure so far (constant
    /// time, unlike [`Self::stats`]).
    pub fn gc_pressure_runs(&self) -> u64 {
        self.governor.gc_pressure_runs
    }

    /// Per-table compute-table statistics (name, lookups, hits, dropped
    /// entries, clears, occupancy) in reporting order.
    pub fn compute_table_stats(&self) -> [ComputeTableStat; 9] {
        self.caches.per_table()
    }

    /// Gate-DD cache probes so far (constant time).
    pub fn gate_cache_lookups(&self) -> u64 {
        self.gate_lookups
    }

    /// Gate-DD cache probes answered from cache so far (constant time).
    pub fn gate_cache_hits(&self) -> u64 {
        self.gate_hits
    }

    /// Statistics of the complex-weight interning table (constant time).
    pub fn complex_table_stats(&self) -> qdd_complex::ComplexTableStats {
        self.ctable.stats()
    }

    /// Distinct interned complex values (constant time).
    pub fn complex_entry_count(&self) -> usize {
        self.ctable.len()
    }

    /// Per-level node counts of the diagram reachable from `e`: entry `i`
    /// is the number of distinct nodes labelled with qubit variable `i`, so
    /// for a state over `num_qubits` qubits they sum to
    /// [`Self::vec_node_count`]. One allocation-free preorder walk plus one
    /// `Vec` of `n` counters — cheap enough for per-op timeline capture.
    pub fn vec_level_profile(&self, e: VecEdge, num_qubits: usize) -> Vec<u32> {
        let mut levels = vec![0u32; num_qubits];
        self.visit_preorder(e, |_, node| {
            if let Some(slot) = levels.get_mut(node.var as usize) {
                *slot += 1;
            }
        });
        levels
    }

    /// Publishes the package's internal counters into the thread's telemetry
    /// registry as gauges, so a metrics snapshot taken afterwards carries
    /// node counts, per-table hit rates, gate-DD-cache stats, GC totals, and
    /// complex-table health alongside the span timings. No-op (one branch)
    /// when telemetry is disabled. Call once per reporting point — values
    /// are absolute readings, not deltas.
    pub fn publish_telemetry(&self) {
        if !qdd_telemetry::enabled() {
            return;
        }
        fn rate(hits: u64, lookups: u64) -> f64 {
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        }
        let s = self.stats();
        qdd_telemetry::gauge_set("core.nodes.vec_alive", s.vnodes_alive as f64);
        qdd_telemetry::gauge_set("core.nodes.mat_alive", s.mnodes_alive as f64);
        qdd_telemetry::gauge_set("core.nodes.peak_live", s.peak_live_nodes as f64);
        qdd_telemetry::gauge_set("core.nodes.mat_peak", s.mat_peak_nodes as f64);
        qdd_telemetry::gauge_set("core.nodes.identity_skipped", s.identity_nodes_skipped as f64);
        qdd_telemetry::gauge_set("core.compute.lookups", s.cache_lookups as f64);
        qdd_telemetry::gauge_set("core.compute.hits", s.cache_hits as f64);
        qdd_telemetry::gauge_set("core.compute.hit_rate", rate(s.cache_hits, s.cache_lookups));
        qdd_telemetry::gauge_set("core.compute.evictions", s.compute_evictions as f64);
        qdd_telemetry::gauge_set("core.compute.clears", s.compute_clears as f64);
        qdd_telemetry::gauge_set("core.gate_cache.lookups", s.gate_cache_lookups as f64);
        qdd_telemetry::gauge_set("core.gate_cache.hits", s.gate_cache_hits as f64);
        qdd_telemetry::gauge_set(
            "core.gate_cache.hit_rate",
            rate(s.gate_cache_hits, s.gate_cache_lookups),
        );
        qdd_telemetry::gauge_set("core.gc.total_runs", s.gc_runs as f64);
        qdd_telemetry::gauge_set("core.gc.total_pressure_runs", s.gc_pressure_runs as f64);

        let ct = self.ctable.stats();
        qdd_telemetry::gauge_set("core.complex.entries", ct.entries as f64);
        qdd_telemetry::gauge_set("core.complex.lookups", ct.lookups as f64);
        qdd_telemetry::gauge_set("core.complex.hits", ct.hits as f64);
        qdd_telemetry::gauge_set("core.complex.hit_rate", rate(ct.hits, ct.lookups));
        qdd_telemetry::gauge_set("core.complex.front_hits", ct.front_hits as f64);
        qdd_telemetry::gauge_set("core.complex.reclaimed", ct.reclaimed as f64);
        qdd_telemetry::gauge_set("core.complex.approx_bytes", ct.approx_bytes as f64);

        // Static gauge names per compute table, in the reporting order of
        // `compute_table_stats` (gauge keys must be `&'static str`).
        macro_rules! table_keys {
            ($($name:literal => $key:literal),*) => {
                [$(($name, concat!("core.table.", $key, ".lookups"),
                    concat!("core.table.", $key, ".hits"),
                    concat!("core.table.", $key, ".hit_rate"),
                    concat!("core.table.", $key, ".dropped"))),*]
            };
        }
        const TABLE_KEYS: [(&str, &str, &str, &str, &str); 9] = table_keys!(
            "add-vec" => "add_vec", "add-mat" => "add_mat", "mat-vec" => "mat_vec",
            "mat-mat" => "mat_mat", "kron-vec" => "kron_vec", "kron-mat" => "kron_mat",
            "adjoint" => "adjoint", "inner" => "inner", "prob-one" => "prob_one"
        );
        for (t, (name, lookups_key, hits_key, rate_key, dropped_key)) in
            self.compute_table_stats().iter().zip(TABLE_KEYS)
        {
            debug_assert_eq!(t.name, name, "table reporting order changed");
            qdd_telemetry::gauge_set(lookups_key, t.lookups as f64);
            qdd_telemetry::gauge_set(hits_key, t.hits as f64);
            qdd_telemetry::gauge_set(rate_key, t.hit_rate());
            qdd_telemetry::gauge_set(dropped_key, t.dropped as f64);
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PackageStats {
        PackageStats {
            vnodes_alive: self.vstore.live_len(),
            vnodes_allocated: self.vstore.arena_len(),
            mnodes_alive: self.mstore.live_len(),
            mnodes_allocated: self.mstore.arena_len(),
            complex_entries: self.ctable.len(),
            cache_lookups: self.caches.total_lookups(),
            cache_hits: self.caches.total_hits(),
            cache_entries: self.caches.total_entries(),
            gc_runs: self.gc_runs,
            gc_pressure_runs: self.governor.gc_pressure_runs,
            compute_evictions: self.caches.total_dropped(),
            compute_clears: self.caches.total_clears(),
            peak_live_nodes: self.governor.peak_live_nodes,
            gate_cache_lookups: self.gate_lookups,
            gate_cache_hits: self.gate_hits,
            mat_peak_nodes: self.mstore.peak_live(),
            identity_nodes_skipped: self.identity_collapses,
            node_births: self.births,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::package::DdPackage;
    use crate::types::{MatEdge, VecEdge};

    #[test]
    fn node_counts_are_stable_across_repeated_calls() {
        // The shared walker bumps the visited-set epoch itself, so repeated
        // counts cannot observe stale marks.
        let mut dd = DdPackage::new();
        let e = dd.zero_state(5).unwrap();
        let cx = dd
            .gate_dd(crate::gates::X, &[crate::Control::pos(3)], 0, 4)
            .unwrap();
        for _ in 0..3 {
            assert_eq!(dd.vec_node_count(e), 5);
            assert_eq!(dd.mat_node_count(cx), 2);
        }
        assert_eq!(dd.vec_node_count(VecEdge::ZERO), 0);
        assert_eq!(dd.mat_node_count(MatEdge::ONE), 0);
    }

    #[test]
    fn back_to_back_counts_on_overlapping_dds() {
        // Regression for the visited-set reset hazard: two diagrams that
        // share structure, counted back to back. A walker that failed to
        // bump the epoch would see the first walk's marks and undercount
        // the second diagram.
        let mut dd = DdPackage::new();
        let a = dd.basis_state(4, 0).unwrap();
        let b = dd.basis_state(4, 8).unwrap();
        // `sum` shares the |000⟩ suffix chain with `a` and `b`.
        let sum = dd.add_vec(a, b);
        let (ca, cs) = (dd.vec_node_count(a), dd.vec_node_count(sum));
        for _ in 0..3 {
            assert_eq!(dd.vec_node_count(a), ca, "overlap with prior walk");
            assert_eq!(dd.vec_node_count(sum), cs, "overlap with prior walk");
            assert_eq!(dd.vec_node_count(b), 4);
        }
    }

    #[test]
    fn stats_reflect_activity() {
        let mut dd = DdPackage::new();
        let _ = dd.zero_state(4).unwrap();
        let s = dd.stats();
        assert_eq!(s.vnodes_alive, 4);
        assert!(s.complex_entries >= 2);
        assert_eq!(s.gc_runs, 0);
    }

    #[test]
    fn default_config_has_no_limits() {
        let dd = DdPackage::new();
        assert!(dd.limits().is_unlimited());
        let s = dd.stats();
        assert_eq!(s.gc_pressure_runs, 0);
        assert_eq!(s.compute_evictions, 0);
    }
}
