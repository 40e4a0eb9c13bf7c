//! The shot engine: correct, parallel, batched shot sampling.
//!
//! `--shots N` means "run the circuit `N` times on ideal hardware and
//! histogram what the classical registers read". The engine produces exactly
//! that distribution while doing as little work as each circuit *requires*,
//! dispatching on the circuit's [`MeasurementRegime`]:
//!
//! * **No measurement** — the final state is deterministic; run the circuit
//!   once and draw all shots by randomized path traversal over the shared
//!   final DD (paper §III-B, ref \[16\]), memoized through a
//!   [`SamplingTableau`](qdd_core::SamplingTableau) so each shot is a
//!   hash-free index walk.
//! * **Terminal measurement** — by the deferred-measurement principle a
//!   trailing measurement block commutes with nothing after it (there *is*
//!   nothing after it); run the unitary prefix once, sample basis states
//!   from the final DD, and read each shot's classical bits directly off the
//!   sampled index.
//! * **Mid-circuit** — collapse feeds back into the evolution (conditioned
//!   gates, resets, measure-then-evolve), so a shot's outcome path decides
//!   what the circuit does. Shots fan out across [`std::thread`] workers,
//!   each owning one [`DdSimulator`] and its package. A worker builds
//!   `|0…0⟩` and every gate DD of the circuit into its package once and
//!   marks them warm
//!   ([`DdPackage::mark_warm`](qdd_core::DdPackage::mark_warm)); a shot
//!   that executes the circuit starts with [`DdSimulator::restart`], which
//!   resets the package to that mark. Each **shot** — not worker — gets
//!   its own RNG stream derived with [`shot_seed`]. The warm state is a
//!   function of the circuit and configuration alone, so shot `i` is a
//!   function of `(circuit, config, shot_seed(seed, i))`: the merged
//!   histogram is bit-identical at every thread count, with or without
//!   resource budgets.
//!
//!   A shot that repeats an earlier shot's outcome path does not execute
//!   at all. Each worker keeps an outcome trie of the runs it executed:
//!   for every collapse on a recorded path it holds the `p1` that collapse
//!   compared its one uniform draw against, and at the path's end the
//!   shot's classical value. A shot walks the trie with its own stream, one draw per level,
//!   and only re-executes the circuit when it steps off the recorded paths.
//!   Every stored `p1` was computed by a run from the warm mark along that
//!   outcome prefix, so it is a function of `(circuit, config, prefix)`,
//!   and the walk draws exactly what the run would: a replayed shot counts
//!   the value its execution would have produced.
//!
//! Resource governance propagates: the [`PackageConfig`] limits apply inside
//! every worker, and [`Limits::deadline`](qdd_core::Limits::deadline) is
//! additionally enforced as a wall-clock budget for the whole sampling job
//! (workers stop between shots once it elapses).

use crate::error::SimError;
use crate::simulator::DdSimulator;
use crate::creg_value;
use qdd_circuit::{MeasurementAnalysis, MeasurementRegime, QuantumCircuit};
use qdd_complex::FxHashMap;
use qdd_core::{DdError, PackageConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64 increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a bijective avalanche mix of the state word.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of shot `shot` under base seed `base`: the `shot`-th output
/// of the SplitMix64 stream starting at state `base`.
///
/// Unlike the old `base + shot` scheme, nearby base seeds produce unrelated
/// shot streams (`shot_seed(s, i)` and `shot_seed(s + 1, j)` share no
/// structure) and adjacent shots are decorrelated by the avalanche mix.
/// Because the seed depends only on `(base, shot)`, any partition of shots
/// across workers reproduces the same per-shot outcomes.
pub fn shot_seed(base: u64, shot: u64) -> u64 {
    splitmix64_mix(base.wrapping_add(GAMMA.wrapping_mul(shot.wrapping_add(1))))
}

/// What the histogram keys of a [`ShotReport`] mean.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HistogramKind {
    /// Keys are basis-state indices of the final state (bit `q` ↔ qubit
    /// `q`) — circuits without measurements.
    BasisStates,
    /// Keys are the value of the concatenated classical bits (bit `i` ↔
    /// global classical bit `i`) — circuits with measurements.
    ClassicalBits,
}

/// Configuration of one sampling job.
#[derive(Clone, Debug)]
pub struct ShotOptions {
    /// Number of shots to draw.
    pub shots: u64,
    /// Base RNG seed; every per-shot stream derives from it via
    /// [`shot_seed`].
    pub seed: u64,
    /// Worker threads for the mid-circuit regime (`0` = one per available
    /// CPU). The fast-path regimes are single-threaded by construction —
    /// one diagram serves every shot.
    pub threads: usize,
    /// Package configuration (tolerance, caches, [`qdd_core::Limits`])
    /// applied inside every worker.
    pub config: PackageConfig,
    /// Cooperative external cancel flag. When a caller (e.g. a server whose
    /// client disconnected mid-stream) sets it, workers stop at the next
    /// shot boundary and the job returns [`SimError::Cancelled`] instead of
    /// burning CPU to completion.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Test-only hook: forces the worker owning this shot index to panic at
    /// that shot, exercising the panic-containment path. Not part of the
    /// stable API.
    #[doc(hidden)]
    pub panic_at_shot: Option<u64>,
}

impl Default for ShotOptions {
    fn default() -> Self {
        ShotOptions {
            shots: 1024,
            seed: 1,
            threads: 0,
            config: PackageConfig::default(),
            cancel: None,
            panic_at_shot: None,
        }
    }
}

impl ShotOptions {
    /// Convenience constructor for the common `(shots, seed)` case.
    pub fn new(shots: u64, seed: u64) -> Self {
        ShotOptions {
            shots,
            seed,
            ..ShotOptions::default()
        }
    }
}

/// The result of a sampling job.
#[derive(Clone, Debug)]
pub struct ShotReport {
    /// Outcome → count; see [`ShotReport::kind`] for the key encoding.
    pub histogram: FxHashMap<u64, u64>,
    /// The regime the circuit was classified into.
    pub regime: MeasurementRegime,
    /// What the histogram keys mean.
    pub kind: HistogramKind,
    /// Total shots drawn (the histogram counts sum to this).
    pub shots: u64,
    /// Worker threads actually used (1 for the fast-path regimes).
    pub threads_used: usize,
    /// Shots completed per worker (diagnostics; sums to `shots`).
    pub worker_shots: Vec<u64>,
    /// Shots that executed the circuit. In the mid-circuit regime the rest
    /// were replayed from a worker's outcome trie; in the other regimes no
    /// shot executes it (one run of the unitary prefix serves them all), so
    /// this is `0`.
    pub executed_shots: u64,
    /// Wall time of the whole job.
    pub elapsed: Duration,
    /// Lower bound on the fidelity of the state(s) the histogram was drawn
    /// from — `1.0` unless the approximation rung
    /// ([`Limits::min_fidelity`](qdd_core::Limits::min_fidelity)) degraded
    /// a run. In the mid-circuit regime this is the **minimum** across all
    /// workers' shots: the weakest guarantee any sampled trajectory had.
    pub fidelity_lower_bound: f64,
    /// Gate-DD cache lookups across the whole job (every worker's warm-up
    /// plus its shots), for per-request cache accounting.
    pub gate_cache_lookups: u64,
    /// Gate-DD cache hits across the whole job.
    pub gate_cache_hits: u64,
}

impl ShotReport {
    /// Whether any contributing run was degraded by the approximation rung.
    pub fn is_approximate(&self) -> bool {
        self.fidelity_lower_bound < 1.0
    }

    /// Gate-DD cache hit rate over the whole job (`0.0` when no lookups).
    pub fn gate_cache_hit_rate(&self) -> f64 {
        if self.gate_cache_lookups == 0 {
            0.0
        } else {
            self.gate_cache_hits as f64 / self.gate_cache_lookups as f64
        }
    }

    /// The `qdd-histogram-v1` header line (without a newline): what the
    /// keys mean and how many shots the counts sum to.
    pub fn histogram_header(&self) -> String {
        let kind = match self.kind {
            HistogramKind::BasisStates => "basis_states",
            HistogramKind::ClassicalBits => "classical_bits",
        };
        format!(
            "{{\"schema\":\"qdd-histogram-v1\",\"kind\":\"{kind}\",\"shots\":{}}}",
            self.shots
        )
    }

    /// The histogram as deterministic JSONL lines (`qdd-histogram-v1`
    /// entries after [`Self::histogram_header`]), sorted by outcome value.
    /// The CLI `--histogram-out` path and the `qdd-serve` `/v1/shots`
    /// stream both emit exactly this header and these lines, so the two
    /// transports are byte-comparable.
    pub fn histogram_lines(&self) -> Vec<String> {
        let mut entries: Vec<(u64, u64)> = self.histogram.iter().map(|(&v, &c)| (v, c)).collect();
        entries.sort_unstable();
        entries
            .into_iter()
            .map(|(value, count)| format!("{{\"value\":{value},\"count\":{count}}}"))
            .collect()
    }
}

/// Runs a sampling job over `circuit`, dispatching on its measurement
/// regime (module docs).
///
/// # Errors
///
/// Propagates [`SimError`] from the underlying simulations, including
/// resource-budget errors from the configured
/// [`Limits`](qdd_core::Limits). In the mid-circuit regime the first
/// failing shot wins (lowest shot index); remaining workers stop at the
/// next shot boundary.
pub fn run(circuit: &QuantumCircuit, opts: &ShotOptions) -> Result<ShotReport, SimError> {
    let t0 = Instant::now();
    let analysis = circuit.measurement_analysis();
    let mut span = qdd_telemetry::span("shots.engine");
    span.field("regime", analysis.regime.name());
    span.field("shots", opts.shots);
    if externally_cancelled(opts) {
        return Err(SimError::Cancelled);
    }
    let regime_gauge = match analysis.regime {
        MeasurementRegime::NoMeasurement => 0.0,
        MeasurementRegime::TerminalMeasurement => 1.0,
        MeasurementRegime::MidCircuit => 2.0,
    };
    qdd_telemetry::gauge_set("shots.regime", regime_gauge);
    let mut report = match analysis.regime {
        MeasurementRegime::MidCircuit => run_mid_circuit(circuit, &analysis, opts),
        _ => run_shared_state(circuit, &analysis, opts),
    }?;
    report.elapsed = t0.elapsed();
    span.field("threads", report.threads_used);
    qdd_telemetry::counter_add("shots.sampled", report.shots);
    qdd_telemetry::counter_add("shots.executed", report.executed_shots);
    for (w, &n) in report.worker_shots.iter().enumerate() {
        qdd_telemetry::emit("shots.worker")
            .field("worker", w)
            .field("shots", n);
    }
    Ok(report)
}

/// No-measurement / terminal-measurement fast path: one run of the unitary
/// prefix, then all shots from the shared final diagram.
fn run_shared_state(
    circuit: &QuantumCircuit,
    analysis: &MeasurementAnalysis,
    opts: &ShotOptions,
) -> Result<ShotReport, SimError> {
    let mut sim = DdSimulator::with_config(circuit.clone(), opts.seed, opts.config);
    sim.run_prefix(analysis.prefix_len)?;
    if externally_cancelled(opts) {
        return Err(SimError::Cancelled);
    }
    // The tableau walk is bit-identical to `sample_once`, so the fast path
    // reproduces exactly what naive per-shot traversal of the same diagram
    // would draw.
    let tableau = sim.package().sampling_tableau(sim.state());
    qdd_telemetry::gauge_set("shots.tableau_nodes", tableau.node_count() as f64);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let basis_counts = tableau.sample(opts.shots, &mut rng);
    let (histogram, kind) = if analysis.regime == MeasurementRegime::TerminalMeasurement {
        // Fold the basis histogram through the trailing measurement map:
        // each sampled index *is* the joint outcome of the terminal block.
        let nbits = circuit.num_clbits();
        let mut folded: FxHashMap<u64, u64> = FxHashMap::default();
        let mut bits = vec![false; nbits];
        for (&basis, &count) in &basis_counts {
            for &(qubit, bit) in &analysis.terminal_measurements {
                bits[bit] = (basis >> qubit) & 1 == 1;
            }
            *folded.entry(creg_value(&bits, 0, nbits)).or_insert(0) += count;
            bits.iter_mut().for_each(|b| *b = false);
        }
        (folded, HistogramKind::ClassicalBits)
    } else {
        (basis_counts, HistogramKind::BasisStates)
    };
    Ok(ShotReport {
        histogram,
        regime: analysis.regime,
        kind,
        shots: opts.shots,
        threads_used: 1,
        worker_shots: vec![opts.shots],
        executed_shots: 0,
        elapsed: Duration::ZERO,
        // One shared state served every shot; its bound is the job's bound.
        fidelity_lower_bound: sim.stats().fidelity_lower_bound,
        gate_cache_lookups: sim.package().gate_cache_lookups(),
        gate_cache_hits: sim.package().gate_cache_hits(),
    })
}

/// Whether the job's external cancel flag has been raised.
fn externally_cancelled(opts: &ShotOptions) -> bool {
    opts.cancel
        .as_ref()
        .is_some_and(|c| c.load(Ordering::Relaxed))
}

/// What one worker returns on success: its partial histogram,
/// completed and executed shot counts, the weakest fidelity lower bound
/// among its shots, and its package's gate-DD cache traffic.
struct WorkerOutput {
    counts: FxHashMap<u64, u64>,
    done: u64,
    executed: u64,
    bound: f64,
    gate_lookups: u64,
    gate_hits: u64,
}

/// What one worker returns: its output, or the index of the shot that
/// failed and why.
type WorkerResult = Result<WorkerOutput, (u64, SimError)>;

/// Mid-circuit regime: per-shot re-execution, fanned out over workers.
fn run_mid_circuit(
    circuit: &QuantumCircuit,
    analysis: &MeasurementAnalysis,
    opts: &ShotOptions,
) -> Result<ShotReport, SimError> {
    let threads = crate::resolve_threads(opts.threads);
    let threads = threads.clamp(1, opts.shots.max(1) as usize);
    let cancel = AtomicBool::new(false);
    let start = Instant::now();
    let per_worker = opts.shots / threads as u64;
    let remainder = opts.shots % threads as u64;
    // Contiguous ranges; worker w gets [lo, hi). The partition does not
    // affect outcomes (per-shot seeds), only load balance.
    let ranges: Vec<(u64, u64)> = (0..threads as u64)
        .scan(0u64, |lo, w| {
            let len = per_worker + u64::from(w < remainder);
            let range = (*lo, *lo + len);
            *lo += len;
            Some(range)
        })
        .collect();

    // Workers inherit the coordinator's telemetry toggle, scope and
    // timeline switch, record into their own thread-local registries (no
    // shared state on the hot path), and publish into the coordinator's
    // scope before exiting, so every report reflects every thread's work.
    // Lanes follow the shot-range order, so the merged event stream is
    // deterministic for any thread schedule.
    let telemetry = qdd_telemetry::enabled();
    let telemetry_scope = qdd_telemetry::scope_id();
    let timeline = qdd_telemetry::timeline_stride();
    // `join()` errors (worker panics) are captured, not propagated: one bad
    // request must not abort a long-lived process. The drop guard flips the
    // cancel flag *during unwinding*, so surviving workers stop at their
    // next shot boundary instead of running the job to completion; whatever
    // telemetry they publish before exiting still merges.
    let results: Vec<(usize, u64, std::thread::Result<WorkerResult>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .enumerate()
                .map(|(w, &(lo, hi))| {
                    let cancel = &cancel;
                    let handle = scope.spawn(move || {
                        let _panic_guard = PanicCancel(cancel);
                        qdd_telemetry::set_enabled(telemetry);
                        qdd_telemetry::set_scope(telemetry_scope);
                        qdd_telemetry::set_lane(w as u32 + 1);
                        qdd_telemetry::set_timeline(timeline);
                        let result = shot_worker(circuit, analysis, opts, lo, hi, cancel, start);
                        qdd_telemetry::publish();
                        result
                    });
                    (w, lo, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(w, lo, h)| (w, lo, h.join()))
                .collect()
        });

    let mut histogram: FxHashMap<u64, u64> = FxHashMap::default();
    let mut worker_shots = Vec::with_capacity(results.len());
    let mut executed_shots = 0;
    let mut first_error: Option<(u64, SimError)> = None;
    let mut fidelity_lower_bound = 1.0f64;
    let mut gate_cache_lookups = 0;
    let mut gate_cache_hits = 0;
    let consider = |shot: u64, e: SimError, slot: &mut Option<(u64, SimError)>| {
        if slot.as_ref().is_none_or(|(s, _)| shot < *s) {
            *slot = Some((shot, e));
        }
    };
    for (worker, lo, joined) in results {
        match joined {
            Ok(Ok(out)) => {
                worker_shots.push(out.done);
                executed_shots += out.executed;
                fidelity_lower_bound = fidelity_lower_bound.min(out.bound);
                gate_cache_lookups += out.gate_lookups;
                gate_cache_hits += out.gate_hits;
                for (value, count) in out.counts {
                    *histogram.entry(value).or_insert(0) += count;
                }
            }
            Ok(Err((shot, e))) => consider(shot, e, &mut first_error),
            Err(payload) => {
                // The panicking worker's first shot index is its range
                // start: deterministic "lowest failing shot wins" ordering
                // even against typed errors from other workers.
                let e = SimError::WorkerPanicked {
                    worker,
                    payload: panic_payload_string(payload.as_ref()),
                };
                consider(lo, e, &mut first_error);
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    let kind = if analysis.has_measurements {
        HistogramKind::ClassicalBits
    } else {
        HistogramKind::BasisStates
    };
    Ok(ShotReport {
        histogram,
        regime: MeasurementRegime::MidCircuit,
        kind,
        shots: opts.shots,
        threads_used: threads,
        worker_shots,
        executed_shots,
        elapsed: Duration::ZERO,
        fidelity_lower_bound,
        gate_cache_lookups,
        gate_cache_hits,
    })
}

/// Raises the job's cancel flag if its worker is unwinding from a panic, so
/// sibling workers stop at the next shot boundary. Runs during unwinding —
/// before the coordinator ever observes the `join()` error.
struct PanicCancel<'a>(&'a AtomicBool);

impl Drop for PanicCancel<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Renders a `join()` panic payload: the string message in the common
/// `panic!`/`expect` case, a placeholder otherwise.
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// Most trie nodes one worker keeps (24 bytes each). Once full, the trie
/// stops recording and unseen paths keep re-executing.
const TRIE_CAP: usize = 1 << 16;

/// One worker's memo of the job's outcome tree, built from the runs it
/// executed (module docs). Node 0 is the root; no node points back at it,
/// so `0` marks a missing child.
#[derive(Debug, Default)]
struct OutcomeTrie {
    nodes: Vec<TrieNode>,
}

#[derive(Copy, Clone, Debug)]
enum TrieNode {
    /// A measurement or reset: a draw `u` takes `next[(u < p1) as usize]`.
    Collapse { p1: f64, next: [u32; 2] },
    /// The end of a recorded run: the shot's classical value.
    Leaf { value: u64 },
}

impl OutcomeTrie {
    /// The value of the shot seeded with `seed`, if its outcome path is
    /// recorded: the walk draws one `f64` per collapse from the shot's
    /// stream, exactly as the run's `measure` and `reset` would.
    fn replay(&self, seed: u64) -> Option<u64> {
        let mut node = *self.nodes.first()?;
        let mut rng = SmallRng::seed_from_u64(seed);
        loop {
            match node {
                TrieNode::Leaf { value } => return Some(value),
                TrieNode::Collapse { p1, next } => {
                    let child = next[usize::from(rng.gen::<f64>() < p1)];
                    if child == 0 {
                        return None;
                    }
                    node = self.nodes[child as usize];
                }
            }
        }
    }

    /// Records the outcome path of a complete run from the warm mark
    /// ([`DdSimulator::collapse_log`]) ending in `value`, unless that could
    /// take the trie past [`TRIE_CAP`].
    fn record(&mut self, log: &[(f64, bool)], value: u64) {
        if self.nodes.len() + log.len() + 1 > TRIE_CAP {
            return;
        }
        // `at` indexes this level's node; when it equals `nodes.len()` the
        // node is new, and its parent already points at it.
        let mut at = 0;
        for &(p1, one) in log {
            if at == self.nodes.len() {
                self.nodes.push(TrieNode::Collapse { p1, next: [0; 2] });
            }
            let fresh = self.nodes.len() as u32;
            // Every run of a circuit collapses at the same operations, so a
            // recorded prefix never ends in a leaf.
            let TrieNode::Collapse { p1: stored, next } = &mut self.nodes[at] else {
                debug_assert!(false, "outcome path runs past a recorded leaf");
                return;
            };
            debug_assert_eq!(
                stored.to_bits(),
                p1.to_bits(),
                "two runs along one outcome prefix computed different p1"
            );
            let child = &mut next[usize::from(one)];
            if *child == 0 {
                *child = fresh;
            }
            at = *child as usize;
        }
        if at == self.nodes.len() {
            self.nodes.push(TrieNode::Leaf { value });
        }
        debug_assert!(
            matches!(self.nodes[at], TrieNode::Leaf { value: v } if v == value),
            "one outcome path ended in two classical values"
        );
    }
}

/// One worker: produces shots `lo..hi` on a single simulator it owns.
/// Each shot is replayed from the worker's outcome trie when its path is
/// recorded; otherwise it restarts the simulator to the package's warm mark
/// (the first restart builds the warm state), re-executes the circuit and
/// records the run.
fn shot_worker(
    circuit: &QuantumCircuit,
    analysis: &MeasurementAnalysis,
    opts: &ShotOptions,
    lo: u64,
    hi: u64,
    cancel: &AtomicBool,
    start: Instant,
) -> WorkerResult {
    let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
    let mut done = 0u64;
    let mut executed = 0u64;
    let mut bound = 1.0f64;
    let mut sim: Option<DdSimulator> = None;
    let mut trie = OutcomeTrie::default();
    for shot in lo..hi {
        if cancel.load(Ordering::Relaxed) {
            break;
        }
        if externally_cancelled(opts) {
            return Err(abort(cancel, shot, SimError::Cancelled));
        }
        if opts.panic_at_shot == Some(shot) {
            panic!("test hook: forced panic at shot {shot}");
        }
        if let Some(budget) = opts.config.limits.deadline {
            if start.elapsed() >= budget {
                cancel.store(true, Ordering::Relaxed);
                let excess_ms = (start.elapsed() - budget).as_millis() as u64;
                return Err((shot, SimError::Dd(DdError::DeadlineExceeded { excess_ms })));
            }
        }
        let seed = shot_seed(opts.seed, shot);
        // Recorded runs were exact, so a replayed shot's bound is 1.
        if let Some(value) = trie.replay(seed) {
            *counts.entry(value).or_insert(0) += 1;
            done += 1;
            continue;
        }
        let sim =
            sim.get_or_insert_with(|| DdSimulator::with_config(circuit.clone(), seed, opts.config));
        sim.restart(seed).map_err(|e| abort(cancel, shot, e))?;
        sim.run().map_err(|e| abort(cancel, shot, e))?;
        let value = if analysis.has_measurements {
            creg_value(sim.classical_bits(), 0, sim.classical_bits().len())
        } else {
            // Reset-only circuits: the trajectory is random but the final
            // state still needs one basis-state draw from this shot's
            // stream. That draw voids the collapse log, so these shots are
            // never recorded.
            sim.sample(1)
                .into_iter()
                .next()
                .map(|(basis, _)| basis)
                .unwrap_or(0)
        };
        if let Some(log) = sim.collapse_log() {
            trie.record(log, value);
        }
        *counts.entry(value).or_insert(0) += 1;
        done += 1;
        executed += 1;
        // restart() resets the per-run account, so fold each shot's bound
        // in before the next one wipes it.
        bound = bound.min(sim.stats().fidelity_lower_bound);
    }
    // Package-level counters accumulate across restarts: this worker's
    // whole-job gate-cache traffic.
    let (gate_lookups, gate_hits) = match &sim {
        Some(s) => (s.package().gate_cache_lookups(), s.package().gate_cache_hits()),
        None => (0, 0),
    };
    Ok(WorkerOutput {
        counts,
        done,
        executed,
        bound,
        gate_lookups,
        gate_hits,
    })
}

/// Flags cancellation and shapes a worker error.
fn abort(cancel: &AtomicBool, shot: u64, e: SimError) -> (u64, SimError) {
    cancel.store(true, Ordering::Relaxed);
    (shot, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_seeds_are_decorrelated_across_bases() {
        // The old `seed + shot` scheme made runs with base seeds s and s+1
        // share all but one stream; the SplitMix64 derivation must not.
        let a: Vec<u64> = (0..64).map(|i| shot_seed(17, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| shot_seed(18, i)).collect();
        let overlap = a.iter().filter(|s| b.contains(s)).count();
        assert_eq!(overlap, 0, "adjacent base seeds must not share shot seeds");
    }

    #[test]
    fn outcome_trie_replays_what_it_recorded_until_its_cap() {
        // Run `seed`'s outcome path: one draw per collapse against a p1
        // that varies by level, as `measure` and `reset` draw.
        let depth = 200;
        let path_of = |seed: u64| -> Vec<(f64, bool)> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..depth)
                .map(|level| {
                    let p1 = 0.1 + 0.8 * (level % 7) as f64 / 6.0;
                    (p1, rng.gen::<f64>() < p1)
                })
                .collect()
        };
        let mut trie = OutcomeTrie::default();
        let mut recorded = Vec::new();
        for seed in 0..1000 {
            // 200 draws: no two seeds share a path.
            assert_eq!(
                trie.replay(seed),
                None,
                "seed {seed} replayed an unseen path"
            );
            let before = trie.nodes.len();
            trie.record(&path_of(seed), seed);
            assert!(trie.nodes.len() <= TRIE_CAP);
            if trie.nodes.len() > before {
                recorded.push(seed);
            }
        }
        // Each path adds about 190 nodes: the cap stops recording after a
        // few hundred, and every recorded path still replays its value.
        assert!(
            (100..1000).contains(&recorded.len()),
            "{} paths recorded",
            recorded.len()
        );
        for seed in recorded {
            assert_eq!(trie.replay(seed), Some(seed));
        }
    }

    #[test]
    fn shot_seeds_are_distinct_within_a_run() {
        let mut seeds: Vec<u64> = (0..10_000).map(|i| shot_seed(1, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000);
    }
}
