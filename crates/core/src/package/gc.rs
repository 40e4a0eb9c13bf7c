//! Garbage collection: mark/sweep over both node stores, unique-table
//! rebuild, and the complex-table sweep.

use crate::package::DdPackage;
use crate::types::MNodeId;
use qdd_complex::{ComplexIdx, FxHashSet};

/// Report of one garbage-collection run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Vector nodes reclaimed.
    pub freed_vnodes: usize,
    /// Matrix nodes reclaimed.
    pub freed_mnodes: usize,
    /// Vector nodes surviving.
    pub live_vnodes: usize,
    /// Matrix nodes surviving.
    pub live_mnodes: usize,
    /// Interned complex values reclaimed.
    pub freed_cvalues: usize,
}

impl DdPackage {
    /// Reclaims every node not reachable from a root registered via the
    /// `inc_ref_*` methods, then sweeps the complex table of weights no
    /// live edge references. Nodes and weights below the warm mark
    /// ([`Self::mark_warm`]) are permanent and never reclaimed. Clears all
    /// compute tables (their keys may refer to reclaimed ids); the gate-DD
    /// cache survives as an additional root (see
    /// [`Self::gc_under_pressure`] for the flush-everything variant).
    pub fn garbage_collect(&mut self) -> GcReport {
        let mut span = qdd_telemetry::span("core.gc");
        self.gc_runs += 1;

        // Mark phase. For matrices the gate-DD cache counts as roots: its
        // entries are bounded (GATE_CACHE_CAP) and keeping hot operators
        // alive across routine collections is the point of caching them.
        // Pressure GCs flush the cache first, so under a node budget it
        // costs nothing.
        let vmark = self.vstore.mark(std::iter::empty());
        let cache_roots: Vec<MNodeId> = self
            .gate_cache
            .values()
            .filter(|e| !e.is_terminal())
            .map(|e| e.node)
            .collect();
        let mmark = self.mstore.mark(cache_roots);

        // Sweep phase.
        let mut report = GcReport::default();
        (report.freed_vnodes, report.live_vnodes) = self.vstore.sweep(&vmark);
        (report.freed_mnodes, report.live_mnodes) = self.mstore.sweep(&mmark);

        // Rebuild unique tables from the survivors.
        self.vstore.rebuild_unique();
        self.mstore.rebuild_unique();

        self.caches.clear();

        // Sweep the complex table as well: each applied gate interns a
        // fresh set of amplitudes, and without reclamation the table's
        // probe index outgrows the CPU caches and every normalization
        // slows to DRAM speed. Weights on surviving nodes and registered
        // root edges stay pinned (bit-identical handles), so canonicity of
        // everything alive is untouched.
        let mut keep: FxHashSet<ComplexIdx> = self.root_weights.keys().copied().collect();
        for e in self.gate_cache.values() {
            keep.insert(e.weight);
        }
        self.vstore.collect_live_weights(&mut keep);
        self.mstore.collect_live_weights(&mut keep);
        report.freed_cvalues = self.ctable.retain_referenced(|idx| keep.contains(&idx));
        self.complex_survivors = self.ctable.len();
        span.field("freed_vnodes", report.freed_vnodes);
        span.field("freed_mnodes", report.freed_mnodes);
        span.field("live_vnodes", report.live_vnodes);
        span.field("live_mnodes", report.live_mnodes);
        span.field("freed_cvalues", report.freed_cvalues);
        qdd_telemetry::counter_add("core.gc.runs", 1);
        qdd_telemetry::counter_add(
            "core.gc.nodes_swept",
            (report.freed_vnodes + report.freed_mnodes) as u64,
        );
        report
    }

    /// Garbage-collects in response to budget pressure. Unlike the routine
    /// [`Self::garbage_collect`], this also drops the gate-DD cache
    /// (which ordinarily survives collections as a root) — under a
    /// node budget every reclaimable node counts. Counted separately in
    /// [`PackageStats::gc_pressure_runs`](crate::PackageStats::gc_pressure_runs),
    /// so callers implementing the degradation ladder (collect, retry, then
    /// approximate or fail) leave an audit trail.
    pub fn gc_under_pressure(&mut self) -> GcReport {
        qdd_telemetry::emit("core.pressure_gc")
            .field("live_before", self.live_node_estimate() as u64);
        qdd_telemetry::counter_add("core.gc.pressure_runs", 1);
        self.governor.gc_pressure_runs += 1;
        self.gate_cache.clear();
        self.gate_cache_dirty = true;
        self.garbage_collect()
    }

    /// True when a between-operations garbage collection would pay for
    /// itself: the live-node estimate crossed
    /// [`Limits::auto_gc_threshold`](crate::Limits::auto_gc_threshold), or
    /// the complex table reached
    /// [`Limits::complex_gc_threshold`](crate::Limits::complex_gc_threshold)
    /// (its probe index has outgrown the CPU caches) *and* twice the
    /// entries that survived the last collection. Without the second
    /// condition a live state holding more weights than the threshold
    /// would collect after every operation, each time reclaiming little.
    /// Long-running drivers call this once per applied operation.
    pub fn wants_auto_gc(&self) -> bool {
        let complex_trigger = self
            .config
            .limits
            .complex_gc_threshold
            .max(2 * self.complex_survivors);
        self.live_node_estimate() > self.config.limits.auto_gc_threshold
            || self.ctable.len() >= complex_trigger
    }

    /// Drops all cached operation results without collecting nodes.
    pub fn clear_compute_tables(&mut self) {
        self.caches.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::gates::{self, Control};
    use crate::limits::Limits;
    use crate::package::{DdPackage, PackageConfig};
    use qdd_complex::Complex;

    #[test]
    fn gc_reclaims_unreferenced_nodes() {
        let mut dd = DdPackage::new();
        let keep = dd.zero_state(3).unwrap();
        let _drop = dd.basis_state(3, 5).unwrap();
        dd.inc_ref_vec(keep);
        let report = dd.garbage_collect();
        assert_eq!(report.live_vnodes, 3);
        assert!(report.freed_vnodes > 0);
        // The kept state is still intact and re-creatable slots are reused.
        assert_eq!(dd.vec_node_count(keep), 3);
        let again = dd.basis_state(3, 5).unwrap();
        assert_eq!(dd.vec_node_count(again), 3);
        dd.dec_ref_vec(keep);
    }

    #[test]
    fn gc_protects_matrix_roots() {
        let mut dd = DdPackage::new();
        // Under identity skip a CX is the smallest interesting matrix root
        // (identity(n) itself is nodeless, so it cannot dangle).
        let cx = dd.gate_dd(gates::X, &[Control::pos(2)], 0, 3).unwrap();
        dd.inc_ref_mat(cx);
        let _tmp = dd.gate_dd(gates::H, &[], 1, 3).unwrap();
        let report = dd.garbage_collect();
        // The registered root plus the cached H operator survive.
        assert!(report.live_mnodes >= 3);
        assert_eq!(dd.mat_node_count(cx), 2);
        dd.dec_ref_mat(cx);
    }

    #[test]
    fn gc_after_many_gate_dds_does_not_dangle_cached_roots() {
        let mut dd = DdPackage::new();
        // Populate the gate cache with unrooted operator DDs.
        for t in 0..4 {
            let _ = dd.gate_dd(gates::H, &[], t, 4).unwrap();
            let _ = dd
                .gate_dd(gates::X, &[Control::pos((t + 1) % 4)], t, 4)
                .unwrap();
        }
        let h_before = dd.gate_dd(gates::H, &[], 2, 4).unwrap();
        // An unrooted intermediate product is genuine garbage.
        let a = dd.gate_dd(gates::H, &[], 0, 4).unwrap();
        let b = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 4).unwrap();
        let _garbage = dd.mat_mat(a, b).unwrap();
        let keep = dd.zero_state(4).unwrap();
        dd.inc_ref_vec(keep);
        let report = dd.garbage_collect();
        assert!(
            report.freed_mnodes > 0,
            "unrooted intermediates must be swept"
        );
        // Cached operators survive the collection as roots: the repeat
        // lookup hits, returns the identical edge, and its nodes are live
        // (counting them walks real, unreclaimed nodes).
        let hits_before = dd.stats().gate_cache_hits;
        let h_after = dd.gate_dd(gates::H, &[], 2, 4).unwrap();
        assert_eq!(h_before, h_after);
        assert_eq!(dd.stats().gate_cache_hits, hits_before + 1);
        let mut fresh = DdPackage::new();
        let expect = fresh.gate_dd(gates::H, &[], 2, 4).unwrap();
        assert_eq!(dd.mat_node_count(h_after), fresh.mat_node_count(expect));
        // Applying the cached operator after GC produces a valid state.
        let applied = dd.mat_vec(h_after, keep).unwrap();
        assert!((dd.vec_norm(applied).unwrap() - 1.0).abs() < 1e-10);
        dd.dec_ref_vec(keep);
    }

    /// Builds a live state whose weights alone exceed a 16-entry
    /// threshold, then reports whether auto-GC wanted to fire before and
    /// after one collection, and how many entries survived.
    fn gc_trigger_run(dd: &mut DdPackage) -> (bool, bool, usize) {
        let amps: Vec<Complex> = (0..64)
            .map(|i| Complex::new(1.0 + 0.37 * i as f64, 0.1 * i as f64))
            .collect();
        let keep = dd.state_from_amplitudes(&amps).unwrap();
        dd.inc_ref_vec(keep);
        let before = dd.wants_auto_gc();
        dd.garbage_collect();
        (before, dd.wants_auto_gc(), dd.complex_entry_count())
    }

    #[test]
    fn complex_gc_trigger_waits_for_twice_the_survivors() {
        let mut dd = DdPackage::with_config(PackageConfig {
            limits: Limits {
                complex_gc_threshold: 16,
                ..Limits::default()
            },
            ..PackageConfig::default()
        });
        dd.mark_warm();
        let (before, after, survivors) = gc_trigger_run(&mut dd);
        assert!(before, "past the threshold, nothing collected yet");
        assert!(survivors > 16, "the live state keeps {survivors} entries");
        assert!(
            !after,
            "a collection that kept {survivors} entries must not fire again at once"
        );
        // It fires again once the table holds twice the survivors.
        let mut k = 0.0;
        while dd.complex_entry_count() + 1 < 2 * survivors {
            dd.intern(Complex::new(100.0 + k, 0.0));
            k += 1.0;
            assert!(!dd.wants_auto_gc(), "fired at {}", dd.complex_entry_count());
        }
        dd.intern(Complex::new(-7.5, 3.25));
        assert!(dd.wants_auto_gc(), "silent at {}", dd.complex_entry_count());
        // The survivor count rewinds with the warm mark: a replayed run
        // sees the same trigger as the first one.
        dd.reset_to_warm();
        assert_eq!(gc_trigger_run(&mut dd), (before, after, survivors));
    }

    #[test]
    fn budget_recovers_after_pressure_gc() {
        let mut dd = DdPackage::with_config(PackageConfig {
            limits: Limits {
                max_nodes: Some(8),
                ..Limits::default()
            },
            ..PackageConfig::default()
        });
        let keep = dd.zero_state(4).unwrap();
        dd.inc_ref_vec(keep);
        let _scratch = dd.basis_state(4, 5).unwrap();
        assert!(
            dd.basis_state(4, 9).is_err(),
            "budget spent on scratch states"
        );
        dd.gc_under_pressure();
        assert!(
            dd.basis_state(4, 9).is_ok(),
            "GC reclaimed the scratch nodes"
        );
        let s = dd.stats();
        assert_eq!(s.gc_pressure_runs, 1);
        assert_eq!(s.gc_runs, 1);
        assert!(s.peak_live_nodes >= 8);
        dd.dec_ref_vec(keep);
    }
}
