//! One pass over a workload's job list, and the per-layer readings it
//! collects when traced.

use crate::trace::Tracer;
use qdd_core::PackageStats;
use qdd_telemetry::Snapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Exact per-job engine counts. Summed over jobs, except the node peaks,
/// which keep the largest job's value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreCounts {
    pub compute_lookups: u64,
    pub compute_hits: u64,
    pub compute_evictions: u64,
    pub gate_cache_lookups: u64,
    pub gate_cache_hits: u64,
    pub gc_runs: u64,
    pub peak_live_nodes: u64,
    pub mat_peak_nodes: u64,
    pub complex_entries: u64,
}

impl CoreCounts {
    pub fn from_stats(s: &PackageStats) -> Self {
        CoreCounts {
            compute_lookups: s.cache_lookups,
            compute_hits: s.cache_hits,
            compute_evictions: s.compute_evictions,
            gate_cache_lookups: s.gate_cache_lookups,
            gate_cache_hits: s.gate_cache_hits,
            gc_runs: s.gc_runs,
            peak_live_nodes: s.peak_live_nodes as u64,
            mat_peak_nodes: s.mat_peak_nodes as u64,
            complex_entries: s.complex_entries as u64,
        }
    }

    /// The package readings `DdSimulator` publishes as gauges at the end of
    /// each run (exact integers carried in `f64`).
    pub fn from_gauges(snap: &Snapshot) -> Self {
        let g = |name: &str| snap.gauge(name).map_or(0, |v| v as u64);
        CoreCounts {
            compute_lookups: g("core.compute.lookups"),
            compute_hits: g("core.compute.hits"),
            compute_evictions: g("core.compute.evictions"),
            gate_cache_lookups: g("core.gate_cache.lookups"),
            gate_cache_hits: g("core.gate_cache.hits"),
            gc_runs: g("core.gc.total_runs"),
            peak_live_nodes: g("core.nodes.peak_live"),
            mat_peak_nodes: g("core.nodes.mat_peak"),
            complex_entries: g("core.complex.entries"),
        }
    }

    pub fn add(&mut self, o: &CoreCounts) {
        self.compute_lookups += o.compute_lookups;
        self.compute_hits += o.compute_hits;
        self.compute_evictions += o.compute_evictions;
        self.gate_cache_lookups += o.gate_cache_lookups;
        self.gate_cache_hits += o.gate_cache_hits;
        self.gc_runs += o.gc_runs;
        self.peak_live_nodes = self.peak_live_nodes.max(o.peak_live_nodes);
        self.mat_peak_nodes = self.mat_peak_nodes.max(o.mat_peak_nodes);
        self.complex_entries += o.complex_entries;
    }

    pub fn write(&self, layers: &mut Layers) {
        let ratio = |hits: u64, lookups: u64| {
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        };
        layers.insert("core.compute_lookups", self.compute_lookups as f64);
        layers.insert("core.compute_hits", self.compute_hits as f64);
        layers.insert(
            "core.compute_hit_rate",
            ratio(self.compute_hits, self.compute_lookups),
        );
        layers.insert("core.compute_evictions", self.compute_evictions as f64);
        layers.insert("core.gate_cache_lookups", self.gate_cache_lookups as f64);
        layers.insert("core.gate_cache_hits", self.gate_cache_hits as f64);
        layers.insert(
            "core.gate_cache_hit_rate",
            ratio(self.gate_cache_hits, self.gate_cache_lookups),
        );
        layers.insert("core.gc_runs", self.gc_runs as f64);
        layers.insert("core.peak_live_nodes", self.peak_live_nodes as f64);
        layers.insert("core.mat_peak_nodes", self.mat_peak_nodes as f64);
        layers.insert("complex.entries", self.complex_entries as f64);
    }
}

/// Per-layer readings by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The engine span totals a snapshot carries, in ms, summed into `layers`.
pub fn add_span_totals(layers: &mut Layers, snap: &Snapshot) {
    for (span, metric) in [
        ("core.gate_dd", "core.gate_dd_ms"),
        ("core.mat_vec", "core.mat_vec_ms"),
        ("core.mat_mat", "core.mat_mat_ms"),
        ("core.gc", "core.gc_ms"),
    ] {
        let ms = snap
            .span_stats(span)
            .map_or(0.0, |a| a.total_ns as f64 / 1e6);
        *layers.entry(metric).or_insert(0.0) += ms;
    }
}

/// Starts a fresh telemetry scope on this thread for one traced job.
pub fn begin_job_scope() {
    qdd_telemetry::set_enabled(true);
    qdd_telemetry::set_scope(qdd_telemetry::next_scope_id());
}

/// Ends the job's scope: its merged snapshot (workers included). Buffered
/// span events are dropped — the aggregates carry what the benchmark reads.
pub fn end_job_scope() -> Snapshot {
    let snap = qdd_telemetry::take_merged_snapshot();
    qdd_telemetry::drain_events();
    qdd_telemetry::set_enabled(false);
    snap
}

/// What one pass over a workload measured.
pub struct Pass {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each completed job, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed loop, seconds.
    pub wall_s: f64,
    pub attempted: usize,
    /// Jobs that errored or failed an answer check.
    pub failed: BTreeSet<usize>,
    pub peak_rss_mb: f64,
    /// Per-layer readings (traced passes only).
    pub layers: Layers,
    /// Exact counts of each job, in job order (traced passes only), for
    /// the repeat-run determinism check.
    pub counts: Vec<CoreCounts>,
    pub tracer: Tracer,
}

impl Pass {
    pub fn new(trace: bool) -> Self {
        Pass {
            setup_s: Vec::new(),
            latencies_ms: Vec::new(),
            wall_s: 0.0,
            attempted: 0,
            failed: BTreeSet::new(),
            peak_rss_mb: 0.0,
            layers: Layers::new(),
            counts: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Counts a failed answer check, naming it on stderr.
    pub fn fail(&mut self, job: usize, why: impl std::fmt::Display) {
        self.failed.insert(job);
        eprintln!("perfbench: job {job} failed: {why}");
    }

    /// One set-up repetition, kept as a `setup_s` sample: `parse` of every
    /// job, each result replacing that job's slot in `parsed`, so at most
    /// one job's old result is alive beside the new list. Returns its time.
    pub fn set_up<J, T>(
        &mut self,
        jobs: &[J],
        parsed: &mut Vec<Option<T>>,
        parse: impl Fn(&J) -> Option<T>,
        label: impl Fn(&J) -> &str,
    ) -> Duration {
        parsed.resize_with(jobs.len(), || None);
        let t0 = Instant::now();
        for (i, (job, slot)) in jobs.iter().zip(parsed.iter_mut()).enumerate() {
            let s = Instant::now();
            *slot = parse(job);
            self.tracer
                .record("circuit.parse", i, None, label(job), s, Instant::now());
        }
        let took = t0.elapsed();
        self.setup_s.push(took.as_secs_f64());
        took
    }
}

/// When a pass repeats its set-up: the first repetition before job 0, the
/// others off the clock before evenly spaced jobs of the timed loop. The
/// `setup_s` samples then span the same stretch of time as the jobs, so a
/// burst of load on the shared host moves a few samples, not their median.
pub struct SetupSchedule {
    reps: usize,
    jobs: usize,
    done: usize,
}

impl SetupSchedule {
    pub fn new(reps: usize, jobs: usize) -> Self {
        SetupSchedule {
            reps,
            jobs,
            done: 0,
        }
    }

    /// Whether a repetition is due before job `i`; counts it if so.
    pub fn due(&mut self, i: usize) -> bool {
        let due = self.done < self.reps && i >= self.done * self.jobs / self.reps;
        self.done += usize::from(due);
        due
    }
}

#[cfg(test)]
mod tests {
    use super::SetupSchedule;

    /// Repetitions fall before evenly spaced jobs, the first before job 0,
    /// and every one runs even when there are fewer jobs than repetitions.
    #[test]
    fn set_up_repetitions_spread_over_the_jobs() {
        let at = |reps, jobs| {
            let mut s = SetupSchedule::new(reps, jobs);
            let mut at = Vec::new();
            for i in 0..jobs {
                while s.due(i) {
                    at.push(i);
                }
            }
            at
        };
        assert_eq!(at(4, 100), [0, 25, 50, 75]);
        assert_eq!(at(1, 10), [0]);
        assert_eq!(at(5, 2), [0, 0, 0, 1, 1]);
    }
}
