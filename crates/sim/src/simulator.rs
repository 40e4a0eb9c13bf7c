//! Batch decision-diagram simulation.

use crate::creg_value;
use crate::dense::{DenseSimulator, MAX_DENSE_QUBITS};
use crate::error::SimError;
use qdd_circuit::{Operation, QuantumCircuit};
use qdd_complex::{Complex, FxHashMap};
use qdd_core::{
    ApproxPolicy, DdError, DdPackage, Limits, MeasurementOutcome, PackageConfig, PackageStats,
    VecEdge,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Per-run statistics of a [`DdSimulator`]: what the run alone knows.
/// Package counters (GC runs, cache traffic, live-node peaks) are read from
/// [`DdSimulator::package`].
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Peak node count of the state DD over the run (not updated after a
    /// dense fallback).
    pub peak_nodes: usize,
    /// Number of operations applied.
    pub applied_ops: usize,
    /// Whether the run degraded to dense state-vector simulation after the
    /// node budget stayed exhausted through a pressure GC.
    pub dense_fallback: bool,
    /// Fidelity-bounded pruning rounds taken by the approximation rung.
    pub approx_rounds: u64,
    /// Total nodes shed across all approximation rounds.
    pub approx_nodes_removed: u64,
    /// Cumulative lower bound on `|⟨ψ_exact|ψ_run⟩|²` — the product of every
    /// approximation round's bound. `1.0` means the result is exact.
    pub fidelity_lower_bound: f64,
}

impl Default for SimStats {
    fn default() -> Self {
        SimStats {
            peak_nodes: 0,
            applied_ops: 0,
            dense_fallback: false,
            approx_rounds: 0,
            approx_nodes_removed: 0,
            // An untouched run is exact; every pruning round multiplies
            // its own bound in.
            fidelity_lower_bound: 1.0,
        }
    }
}

impl SimStats {
    /// Whether any approximation round degraded the state: the result is a
    /// bounded-fidelity approximation, not an exact simulation.
    pub fn is_approximate(&self) -> bool {
        self.approx_rounds > 0
    }
}

/// Stable label of an operation for telemetry events.
pub(crate) fn op_name(op: &Operation) -> &'static str {
    match op {
        Operation::Barrier => "barrier",
        Operation::Gate(g) => g.gate.name(),
        Operation::Swap { .. } => "swap",
        Operation::Measure { .. } => "measure",
        Operation::Reset { .. } => "reset",
    }
}

/// Simulates a [`QuantumCircuit`] by consecutive matrix–vector products on
/// decision diagrams (paper Example 9), handling the tool's special
/// operations — measurements collapse with seeded randomness, resets
/// discard a probabilistic branch, classically-controlled gates consult the
/// classical bits.
///
/// For interactive navigation (step back, choice dialogs) wrap it in a
/// [`SteppableSimulation`](crate::SteppableSimulation), which applies every
/// operation through [`Self::step`].
///
/// # Resource governance
///
/// The simulator honors the [`Limits`](qdd_core::Limits) of its package
/// configuration and degrades gracefully under pressure:
///
/// 1. When an operation exhausts the node budget, the simulator
///    garbage-collects under pressure and retries once.
/// 2. If [`Limits::min_fidelity`](qdd_core::Limits::min_fidelity) is set,
///    the state is pruned ([`DdPackage::prune_to_node_target`] or
///    [`DdPackage::contract_threshold`], per the configured
///    [`ApproxPolicy`]) and the operation retried — repeatedly, as long as
///    the *cumulative* fidelity lower bound (the product of all rounds'
///    bounds, tracked in [`SimStats::fidelity_lower_bound`]) stays at or
///    above `min_fidelity`.
/// 3. If the budget is still exhausted and the register is small enough
///    (≤ [`MAX_DENSE_QUBITS`]), the state is exported and the run continues
///    on a [`DenseSimulator`] (recorded in [`SimStats::dense_fallback`]).
/// 4. Otherwise the error is returned. Deadline overruns are returned
///    immediately — more memory strategies cannot buy back time.
#[derive(Debug)]
pub struct DdSimulator {
    dd: DdPackage,
    circuit: QuantumCircuit,
    state: VecEdge,
    classical: Vec<bool>,
    cursor: usize,
    rng: SmallRng,
    stats: SimStats,
    /// Dense continuation after degradation; `state` stays frozen at the
    /// (budget-sized) DD snapshot taken at the hand-off.
    dense: Option<DenseSimulator>,
    /// Gates the dense rung of the degradation ladder.
    dense_fallback_enabled: bool,
    /// The pinned `|0…0⟩` at the package's warm mark, once the first
    /// [`Self::restart`] has built the warm state.
    warm_zero: Option<VecEdge>,
    /// `(p1, outcome)` of every collapse of the current run, in order.
    collapses: Vec<(f64, bool)>,
    /// Whether `collapses` accounts for every random draw of the current
    /// run: cleared by the degradation ladder, forced outcomes, reseeding
    /// and sampling; set again by [`Self::restart`].
    collapses_complete: bool,
    /// The outcome an interactive session chose for the collapse being
    /// applied; `None` draws it.
    forced: Option<MeasurementOutcome>,
}

/// A point of a run to rewind to: the pinned state, the classical bits, the
/// cursor, the RNG and the collapse log's length, so a replay from here
/// draws what the first pass drew.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    state: VecEdge,
    classical: Vec<bool>,
    cursor: usize,
    rng: SmallRng,
    collapses: usize,
}

impl DdSimulator {
    /// Creates a simulator over `circuit` starting from `|0…0⟩`, with an
    /// entropy-seeded RNG.
    pub fn new(circuit: QuantumCircuit) -> Self {
        Self::with_seed(circuit, rand::random())
    }

    /// Creates a simulator with a fixed RNG seed (reproducible measurement
    /// outcomes).
    pub fn with_seed(circuit: QuantumCircuit, seed: u64) -> Self {
        Self::with_config(circuit, seed, PackageConfig::default())
    }

    /// Creates a simulator with an explicit package configuration (used by
    /// the ablation benchmarks).
    pub fn with_config(circuit: QuantumCircuit, seed: u64, config: PackageConfig) -> Self {
        let mut dd = DdPackage::with_config(config);
        let state = pinned_zero_state(&mut dd, circuit.num_qubits());
        let classical = vec![false; circuit.num_clbits()];
        DdSimulator {
            dd,
            circuit,
            state,
            classical,
            cursor: 0,
            rng: SmallRng::seed_from_u64(seed),
            stats: SimStats::default(),
            dense: None,
            dense_fallback_enabled: true,
            warm_zero: None,
            collapses: Vec::new(),
            collapses_complete: true,
            forced: None,
        }
    }

    /// Enables or disables the dense rung of the degradation ladder
    /// (enabled by default). With it off, a node budget that stays
    /// exhausted after a pressure GC is a hard
    /// [`DdError::ResourceExhausted`].
    pub fn set_dense_fallback(&mut self, enabled: bool) {
        self.dense_fallback_enabled = enabled;
    }

    /// Whether the run has degraded to dense simulation.
    pub fn degraded_to_dense(&self) -> bool {
        self.dense.is_some()
    }

    /// Replaces the initial state with `amplitudes` (length `2ⁿ`),
    /// normalizing them. Must be called before any step.
    ///
    /// # Errors
    ///
    /// Propagates the validation of
    /// [`DdPackage::state_from_amplitudes`]; returns
    /// [`SimError::InvalidTransition`] after stepping has begun.
    pub fn set_initial_state(&mut self, amplitudes: &[Complex]) -> Result<(), SimError> {
        if self.cursor != 0 {
            return Err(SimError::InvalidTransition {
                reason: "initial state must be set before stepping",
            });
        }
        let state = self.dd.state_from_amplitudes(amplitudes)?;
        self.set_state(state);
        Ok(())
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// The current state edge.
    pub fn state(&self) -> VecEdge {
        self.state
    }

    /// The decision-diagram package (for inspection/visualization).
    pub fn package(&self) -> &DdPackage {
        &self.dd
    }

    /// Mutable package access (e.g. to compute probabilities).
    pub fn package_mut(&mut self) -> &mut DdPackage {
        &mut self.dd
    }

    /// The classical bits recorded so far.
    pub fn classical_bits(&self) -> &[bool] {
        &self.classical
    }

    /// The recorded value of classical register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a declared register.
    pub fn creg(&self, index: usize) -> u64 {
        let reg = &self.circuit.cregs()[index];
        creg_value(&self.classical, reg.offset, reg.size)
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The `(p1, outcome)` pair of every measurement and reset of the run
    /// so far, in order: the probability of `|1⟩` that the collapse's one
    /// uniform `f64` draw was compared against, and the outcome it chose.
    ///
    /// `None` unless those draws were the run's only use of its RNG and the
    /// run stayed exact: the degradation ladder (pressure GC, an
    /// approximation round, the dense fallback, which draws a `u64`
    /// seed), a forced outcome ([`Self::step_with`]), a reseed or a
    /// [`Self::sample`] call each void the log until the next
    /// [`Self::restart`]. A complete log of a run from the warm mark is
    /// what lets the shot engine replay that outcome path without
    /// re-executing it.
    pub(crate) fn collapse_log(&self) -> Option<&[(f64, bool)]> {
        self.collapses_complete.then_some(self.collapses.as_slice())
    }

    /// The outcome of the run's last drawn collapse.
    pub(crate) fn last_draw(&self) -> Option<MeasurementOutcome> {
        self.collapses
            .last()
            .map(|&(_, one)| MeasurementOutcome::from(one))
    }

    /// Restarts the RNG at `seed`: later collapses draw from the new stream.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.collapses_complete = false;
    }

    /// Pins the current state and saves what [`Self::rewind`] restores.
    pub(crate) fn checkpoint(&mut self) -> Checkpoint {
        self.dd.inc_ref_vec(self.state);
        Checkpoint {
            state: self.state,
            classical: self.classical.clone(),
            cursor: self.cursor,
            rng: self.rng.clone(),
            collapses: self.collapses.len(),
        }
    }

    /// Rewinds the run to `checkpoint`, taking over its pin on the state.
    /// Statistics are not rewound.
    pub(crate) fn rewind(&mut self, checkpoint: Checkpoint) {
        self.dd.dec_ref_vec(self.state);
        self.state = checkpoint.state;
        self.classical = checkpoint.classical;
        self.cursor = checkpoint.cursor;
        self.rng = checkpoint.rng;
        self.collapses.truncate(checkpoint.collapses);
    }

    /// [`Self::step`], with a measurement or reset collapsing onto
    /// `forced` instead of drawing, if given: the choice of a session's
    /// dialog.
    pub(crate) fn step_with(
        &mut self,
        forced: Option<MeasurementOutcome>,
    ) -> Result<bool, SimError> {
        self.forced = forced;
        self.collapses_complete &= forced.is_none();
        let stepped = self.step();
        self.forced = None;
        stepped
    }

    /// Runs the remainder of the circuit to completion, arming the
    /// configured wall-clock deadline (if any) for the duration.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from invalid operations and
    /// [`DdError::DeadlineExceeded`] / [`DdError::ResourceExhausted`] from
    /// the resource governor.
    pub fn run(&mut self) -> Result<VecEdge, SimError> {
        self.run_until(self.circuit.len())
    }

    /// Runs the circuit's first `prefix_len` operations (from the current
    /// cursor) — the shot engine's "execute the unitary prefix once" step.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] exactly as [`run`](Self::run) does.
    pub fn run_prefix(&mut self, prefix_len: usize) -> Result<VecEdge, SimError> {
        self.run_until(prefix_len.min(self.circuit.len()))
    }

    fn run_until(&mut self, end: usize) -> Result<VecEdge, SimError> {
        let mut span = qdd_telemetry::span("sim.run");
        self.dd.arm_deadline();
        let mut outcome = Ok(());
        while self.cursor < end {
            if let Err(e) = self.step() {
                outcome = Err(e);
                break;
            }
        }
        self.dd.disarm_deadline();
        span.field("applied_ops", self.stats.applied_ops);
        span.field("peak_nodes", self.stats.peak_nodes);
        self.dd.publish_telemetry();
        outcome.map(|()| self.state)
    }

    /// Rewinds the simulator to a fresh `|0…0⟩` run of the same circuit
    /// with a new RNG seed, resetting its package to the warm mark
    /// ([`DdPackage::reset_to_warm`]).
    ///
    /// The first restart resets to an empty package and builds the warm
    /// state: `|0…0⟩` and every gate DD of the circuit, constructed with the
    /// memory budgets lifted (they are the circuit, not work) and then
    /// marked permanent. Every restart therefore starts from the same
    /// bit-identical package, and a restarted run is a function of the
    /// circuit, the configuration and `seed` alone — never of the runs
    /// before it. The warm state counts against
    /// [`Limits::max_nodes`](qdd_core::Limits::max_nodes) like any other
    /// live node.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from building the warm gate DDs (e.g. a
    /// non-decomposable operation).
    pub fn restart(&mut self, seed: u64) -> Result<(), SimError> {
        self.dd.reset_to_warm();
        self.classical.iter_mut().for_each(|b| *b = false);
        self.cursor = 0;
        self.rng = SmallRng::seed_from_u64(seed);
        self.dense = None;
        self.stats = SimStats::default();
        self.collapses.clear();
        self.collapses_complete = true;
        if let Some(zero) = self.warm_zero {
            self.state = zero;
            return Ok(());
        }
        self.state = pinned_zero_state(&mut self.dd, self.circuit.num_qubits());
        with_budgets_lifted(&mut self.dd, |dd| build_gate_dds(dd, &self.circuit))?;
        self.dd.mark_warm();
        self.warm_zero = Some(self.state);
        Ok(())
    }

    /// Applies the next operation; returns `false` when the circuit is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from invalid operations.
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.cursor >= self.circuit.len() {
            return Ok(false);
        }
        // Per-operation deadline check: cheap, and catches circuits whose
        // individual operations are too small to trip the in-recursion
        // pacing.
        if let Err(e) = self.dd.check_deadline() {
            qdd_telemetry::emit("sim.deadline").field("op_index", self.cursor);
            return Err(e.into());
        }
        let op = self.circuit.ops()[self.cursor].clone();
        let op_index = self.cursor;
        self.cursor += 1;
        // The armed timeline reads the package before and after the op:
        // one branch when it is off. The window closes after auto-GC and
        // the node count below, so GC an op provokes is attributed to it.
        let armed = qdd_telemetry::timeline_stride()
            .map(|stride| (stride, Instant::now(), self.dd.stats()));
        let applied = if self.dense.is_some() {
            self.apply_dense(&op)
        } else {
            self.apply_governed(&op)
        };
        if let Err(e) = applied {
            if matches!(e, SimError::Dd(DdError::DeadlineExceeded { .. })) {
                qdd_telemetry::emit("sim.deadline").field("op_index", op_index);
            }
            return Err(e);
        }
        let mut levels = None;
        let nodes = if self.dense.is_none() {
            if self.dd.wants_auto_gc() {
                self.dd.garbage_collect();
            }
            // One walk: the level profile when armed, its sum is the count.
            let nodes = if armed.is_some() {
                let profile = self
                    .dd
                    .vec_level_profile(self.state, self.circuit.num_qubits());
                let nodes = profile.iter().map(|&n| n as usize).sum();
                levels = Some(profile);
                nodes
            } else {
                self.dd.vec_node_count(self.state)
            };
            self.stats.peak_nodes = self.stats.peak_nodes.max(nodes);
            Some(nodes)
        } else {
            None
        };
        let mut event = qdd_telemetry::emit("sim.op")
            .field("op_index", op_index)
            .field("op", op_name(&op));
        event = match nodes {
            Some(nodes) => event.field("nodes", nodes),
            None => event.field("dense", true),
        };
        if let Some((stride, start, before)) = armed {
            event = self.timeline_fields(event, &op, start, &before, levels);
            if stride > 0 && op_index.is_multiple_of(stride as usize) && nodes.is_some() {
                let graph = qdd_core::graph::DdGraph::from_vector(&self.dd, self.state);
                event = event.field("snapshot", graph.to_json());
            }
        }
        drop(event);
        if let Some(nodes) = nodes {
            qdd_telemetry::observe("sim.nodes_after_op", nodes as u64);
        }
        self.stats.applied_ops += 1;
        Ok(true)
    }

    /// The `sim.op` fields of the armed execution timeline
    /// (`qdd_telemetry::timeline`): the op's qubits and wall time, the
    /// package counters it moved (the difference of the readings before
    /// and after it), gauges at its end and the state's level profile.
    fn timeline_fields(
        &self,
        event: qdd_telemetry::EventBuilder,
        op: &Operation,
        start: Instant,
        before: &PackageStats,
        levels: Option<Vec<u32>>,
    ) -> qdd_telemetry::EventBuilder {
        let after = self.dd.stats();
        let allocated = after.node_births - before.node_births;
        let live = |s: &PackageStats| (s.vnodes_alive + s.mnodes_alive) as u64;
        // Freed = births minus net live growth; GC inside the window makes
        // the live count shrink, which shows up here as extra frees.
        let freed = (allocated + live(before)).saturating_sub(live(&after));
        let compute_hits = after.cache_hits - before.cache_hits;
        let gate_hits = after.gate_cache_hits - before.gate_cache_hits;
        let qubits: Vec<u32> = op.qubits().iter().map(|&q| q as u32).collect();
        let event = event
            .field("qubits", qubits)
            .field("dur_us", start.elapsed().as_micros() as u64)
            .field("mat_nodes", after.mnodes_alive)
            .field("peak_nodes", after.peak_live_nodes)
            .field("nodes_allocated", allocated)
            .field("nodes_freed", freed)
            .field("complex_entries", after.complex_entries)
            .field("compute_hits", compute_hits)
            .field(
                "compute_misses",
                after.cache_lookups - before.cache_lookups - compute_hits,
            )
            .field("gate_hits", gate_hits)
            .field(
                "gate_misses",
                after.gate_cache_lookups - before.gate_cache_lookups - gate_hits,
            );
        match levels {
            Some(levels) => event.field("levels", levels),
            None => event,
        }
    }

    /// One operation through the degradation ladder: apply, and on node
    /// exhaustion GC-under-pressure + retry, then fidelity-bounded
    /// approximation (when authorized), then fall back to dense.
    fn apply_governed(&mut self, op: &Operation) -> Result<(), SimError> {
        match self.apply_operation(op) {
            Err(SimError::Dd(DdError::ResourceExhausted { .. })) => {}
            other => return other,
        }
        self.collapses_complete = false;
        // Rung 1: reclaim dead nodes (the failed attempt's partial results
        // are unreferenced) and retry once.
        self.dd.gc_under_pressure();
        let mut err = match self.apply_operation(op) {
            Err(SimError::Dd(e @ DdError::ResourceExhausted { .. })) => e,
            other => return other,
        };
        // Rung 2 (needs an authorized fidelity budget): prune the state's
        // cheapest mass and retry, as long as the cumulative fidelity bound
        // has budget left and each round makes progress. Both memory
        // budgets (nodes, interned weights) scale with diagram size, so a
        // smaller state helps against either. Each round targets half the
        // current node count, so the loop is finitely bounded even under a
        // generous fidelity budget.
        while self.dd.limits().min_fidelity.is_some() {
            if !self.approximate_round() {
                break;
            }
            match self.apply_operation(op) {
                Err(SimError::Dd(e @ DdError::ResourceExhausted { .. })) => err = e,
                other => return other,
            }
        }
        // Rung 3: continue densely when the register permits it. The qubit
        // cap is checked *before* any dense allocation is attempted.
        let n = self.circuit.num_qubits();
        if !self.dense_fallback_enabled || n > MAX_DENSE_QUBITS {
            return Err(SimError::Dd(err));
        }
        qdd_telemetry::emit("sim.dense_fallback").field("qubits", n);
        qdd_telemetry::counter_add("sim.dense_fallbacks", 1);
        let amps = self.dd.to_dense_vector(self.state, n);
        let seed = self.rng.gen::<u64>();
        let mut dense = DenseSimulator::from_parts(n, amps, self.classical.clone(), seed)?;
        dense.apply_operation(&self.circuit, op)?;
        self.dense = Some(dense);
        self.stats.dense_fallback = true;
        self.sync_dense_classical();
        Ok(())
    }

    /// One approximation round: prune per policy, adopt the smaller state,
    /// fold the round's bound into the cumulative account, leave a
    /// telemetry trail. Returns `false` when no (further) round is possible
    /// — budget spent, pruning made no progress, or pruning itself starved
    /// — signalling the ladder to move on to the dense rung.
    fn approximate_round(&mut self) -> bool {
        let limits = *self.dd.limits();
        let Some(min_fidelity) = limits.min_fidelity else {
            return false;
        };
        // The cumulative bound is a product, so this round may spend at
        // most min_fidelity / bound_so_far before the account overdraws.
        let round_min = (min_fidelity / self.stats.fidelity_lower_bound).min(1.0);
        if round_min >= 1.0 - 1e-12 {
            return false;
        }
        let node_target = self.dd.vec_node_count(self.state) / 2;
        let result = match limits.approx_policy {
            ApproxPolicy::FidelityBudget => {
                self.dd
                    .prune_to_node_target(self.state, round_min, Some(node_target))
            }
            ApproxPolicy::Threshold { epsilon } => {
                self.dd.contract_threshold(self.state, epsilon)
            }
        };
        let (pruned, report) = match result {
            Ok(v) => v,
            // Pruning under a starved allocator (or an over-eager
            // threshold) cannot help; the dense rung still can.
            Err(_) => return false,
        };
        if report.rounds == 0 || report.fidelity_lower_bound < round_min {
            // No progress, or (threshold policy) the round would overdraw
            // the fidelity account: reject it. The rejected diagram is
            // unreferenced and reclaimed by the next collection.
            return false;
        }
        self.set_state(pruned);
        self.stats.fidelity_lower_bound *= report.fidelity_lower_bound;
        self.stats.approx_rounds += 1;
        self.stats.approx_nodes_removed += report.nodes_removed() as u64;
        qdd_telemetry::emit("degrade.approximate")
            .field("round", self.stats.approx_rounds)
            .field("nodes_before", report.nodes_before)
            .field("nodes_after", report.nodes_after)
            .field("round_bound", report.fidelity_lower_bound)
            .field("nodes_removed", self.stats.approx_nodes_removed)
            .field("fidelity_lower_bound", self.stats.fidelity_lower_bound);
        qdd_telemetry::counter_add("approx.rounds", 1);
        qdd_telemetry::gauge_set(
            "approx.fidelity_lower_bound",
            self.stats.fidelity_lower_bound,
        );
        qdd_telemetry::gauge_set("approx.nodes_removed", self.stats.approx_nodes_removed as f64);
        // Reclaim the pruned-away subtrees before the retry. A *plain*
        // collection, deliberately: pressure GC already had its rung, and
        // its event must precede ours in the ladder-order telemetry.
        self.dd.garbage_collect();
        true
    }

    fn apply_dense(&mut self, op: &Operation) -> Result<(), SimError> {
        let dense = self.dense.as_mut().expect("dense mode");
        dense.apply_operation(&self.circuit, op)?;
        self.sync_dense_classical();
        Ok(())
    }

    fn sync_dense_classical(&mut self) {
        if let Some(dense) = &self.dense {
            self.classical.clear();
            self.classical.extend_from_slice(dense.classical_bits());
        }
    }

    fn set_state(&mut self, new_state: VecEdge) {
        self.dd.inc_ref_vec(new_state);
        self.dd.dec_ref_vec(self.state);
        self.state = new_state;
    }

    /// Applies one operation to the current state.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for out-of-range classical bits or
    /// package-level failures.
    pub fn apply_operation(&mut self, op: &Operation) -> Result<(), SimError> {
        match op {
            Operation::Barrier => {}
            Operation::Gate(g) => {
                if let Some(cond) = g.condition {
                    let reg = &self.circuit.cregs()[cond.creg];
                    let value = creg_value(&self.classical, reg.offset, reg.size);
                    if value != cond.value {
                        return Ok(());
                    }
                }
                let new_state =
                    self.dd
                        .apply_gate(self.state, g.gate.matrix(), &g.controls, g.target)?;
                self.set_state(new_state);
            }
            Operation::Swap { .. } => {
                let mut s = self.state;
                for g in crate::gate_sequence(op)? {
                    s = self.dd.apply_gate(s, g.gate.matrix(), &g.controls, g.target)?;
                }
                self.set_state(s);
            }
            Operation::Measure { qubit, bit } => {
                if *bit >= self.classical.len() {
                    return Err(SimError::BitOutOfRange {
                        bit: *bit,
                        num_bits: self.classical.len(),
                    });
                }
                let (outcome, new_state) = match self.forced {
                    Some(outcome) => (outcome, self.dd.collapse(self.state, *qubit, outcome)?),
                    None => {
                        let (outcome, p1, new_state) =
                            self.dd.measure(self.state, *qubit, &mut self.rng)?;
                        self.collapses.push((p1, outcome.as_bool()));
                        (outcome, new_state)
                    }
                };
                self.classical[*bit] = outcome.as_bool();
                qdd_telemetry::emit("sim.measure")
                    .field("qubit", *qubit)
                    .field("bit", *bit)
                    .field("outcome", outcome.as_bool());
                self.set_state(new_state);
            }
            Operation::Reset { qubit } => {
                let new_state = match self.forced {
                    Some(outcome) => self.dd.reset_with_outcome(self.state, *qubit, outcome)?,
                    None => {
                        let (observed, p1, new_state) =
                            self.dd.reset(self.state, *qubit, &mut self.rng)?;
                        self.collapses.push((p1, observed.as_bool()));
                        new_state
                    }
                };
                self.set_state(new_state);
            }
        }
        Ok(())
    }

    /// Samples `shots` basis states from the **current** state
    /// (non-destructively, paper ref \[16\]).
    ///
    /// Uniform draws always come from the simulator's seeded RNG — also
    /// after a dense degradation, so a given seed yields the same stream
    /// position regardless of which backend ended up serving the run.
    pub fn sample(&mut self, shots: u64) -> FxHashMap<u64, u64> {
        self.collapses_complete = false;
        if let Some(dense) = &self.dense {
            return dense.sample_with_rng(shots, &mut self.rng);
        }
        self.dd.sample(self.state, shots, &mut self.rng)
    }

    /// The amplitude of one basis state of the current state.
    pub fn amplitude(&self, basis: u64) -> Complex {
        if let Some(dense) = &self.dense {
            return dense.state()[basis as usize];
        }
        self.dd.amplitude(self.state, basis)
    }

    /// Dense export of the current state (small registers only).
    ///
    /// # Panics
    ///
    /// Panics for registers above 24 qubits.
    pub fn dense_state(&self) -> Vec<Complex> {
        if let Some(dense) = &self.dense {
            return dense.state().to_vec();
        }
        self.dd.to_dense_vector(self.state, self.circuit.num_qubits())
    }

    /// The node count of the current state DD.
    pub fn node_count(&self) -> usize {
        self.dd.vec_node_count(self.state)
    }

    /// Runs the whole circuit once and returns `(final state, simulator)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn simulate(circuit: QuantumCircuit, seed: u64) -> Result<DdSimulator, SimError> {
        let mut sim = Self::with_seed(circuit, seed);
        sim.run()?;
        Ok(sim)
    }

    /// Collects garbage in the underlying package, keeping the live state.
    pub fn collect_garbage(&mut self) {
        self.dd.garbage_collect();
    }
}

/// Runs `f` with the package's memory budgets lifted, restoring them after.
fn with_budgets_lifted<T>(dd: &mut DdPackage, f: impl FnOnce(&mut DdPackage) -> T) -> T {
    let limits = *dd.limits();
    dd.set_limits(Limits {
        max_nodes: None,
        max_complex_entries: None,
        ..limits
    });
    let out = f(dd);
    dd.set_limits(limits);
    out
}

/// Builds and pins the initial `|0…0⟩`. It is mandatory structure sized by
/// the register width, not governed "work": a node budget smaller than the
/// register must not panic the (infallible) constructors, so it is built
/// with the memory budgets lifted — the first governed operation then
/// reports exhaustion as a typed error.
fn pinned_zero_state(dd: &mut DdPackage, num_qubits: usize) -> VecEdge {
    let state = with_budgets_lifted(dd, |dd| dd.zero_state(num_qubits))
        .expect("circuit widths are validated at construction");
    dd.inc_ref_vec(state);
    state
}

/// Builds every gate DD the circuit applies into the package's gate cache.
fn build_gate_dds(dd: &mut DdPackage, circuit: &QuantumCircuit) -> Result<(), SimError> {
    let n = circuit.num_qubits();
    for op in circuit.ops() {
        match op {
            Operation::Gate(g) => {
                dd.gate_dd(g.gate.matrix(), &g.controls, g.target, n)?;
            }
            Operation::Swap { .. } => {
                for g in crate::gate_sequence(op)? {
                    dd.gate_dd(g.gate.matrix(), &g.controls, g.target, n)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::library;
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn bell_state_amplitudes_match_example_5() {
        let mut sim = DdSimulator::with_seed(library::bell(), 1);
        sim.run().unwrap();
        let amps = sim.dense_state();
        assert!(amps[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(amps[3].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(amps[1].approx_eq(Complex::ZERO, 1e-12));
        assert!(amps[2].approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn ghz_has_linear_node_count() {
        let mut sim = DdSimulator::with_seed(library::ghz(10), 1);
        sim.run().unwrap();
        // Two disjoint chains below the root: 2n - 1 nodes (3 for Bell).
        assert_eq!(sim.node_count(), 19, "GHZ grows linearly, not exponentially");
    }

    #[test]
    fn stats_track_peak_nodes() {
        let qc = library::qft(4, true);
        let mut sim = DdSimulator::with_seed(qc.clone(), 1);
        sim.run().unwrap();
        let stats = sim.stats();
        assert_eq!(stats.applied_ops, qc.len());
        // The peak is the largest state any prefix of the run reaches.
        let mut prefix = DdSimulator::with_seed(qc.clone(), 1);
        let mut largest = 0;
        while prefix.step().unwrap() {
            largest = largest.max(prefix.node_count());
        }
        assert!(largest >= 4);
        assert_eq!(stats.peak_nodes, largest);
    }

    #[test]
    fn measurement_writes_classical_bits() {
        let mut qc = library::bell();
        qc.add_creg("c", 2);
        qc.measure(0, 0).measure(1, 1);
        let mut sim = DdSimulator::with_seed(qc, 5);
        sim.run().unwrap();
        let bits = sim.classical_bits();
        // Entangled: both bits agree.
        assert_eq!(bits[0], bits[1]);
    }

    #[test]
    fn forced_steps_collapse_onto_the_chosen_outcome() {
        let mut qc = library::bell();
        qc.add_creg("c", 1);
        qc.measure(0, 0).reset(1);
        let mut sim = DdSimulator::with_seed(qc, 1);
        sim.step().unwrap();
        sim.step().unwrap();
        sim.step_with(Some(MeasurementOutcome::One)).unwrap();
        assert!(
            sim.dense_state()[3].abs() > 0.999,
            "post-measurement state |11⟩"
        );
        assert!(sim.classical_bits()[0]);
        assert_eq!(sim.last_draw(), None, "a forced outcome draws nothing");
        assert_eq!(sim.collapse_log(), None);
        // An impossible choice is a typed error; rewound, the reset keeps
        // the chosen branch and relabels it |0⟩.
        let before = sim.checkpoint();
        assert!(matches!(
            sim.step_with(Some(MeasurementOutcome::Zero)),
            Err(SimError::Dd(DdError::ImpossibleOutcome { .. }))
        ));
        sim.rewind(before);
        sim.step_with(Some(MeasurementOutcome::One)).unwrap();
        assert!(sim.dense_state()[1].abs() > 0.999, "reset state |01⟩");
    }

    #[test]
    fn classical_condition_controls_gate() {
        // Measure |1⟩ then conditionally flip another qubit.
        let mut qc = qdd_circuit::QuantumCircuit::new(2);
        let c = qc.add_creg("c", 1);
        qc.x(0);
        qc.measure(0, 0);
        qc.gate_if(
            qdd_circuit::StandardGate::X,
            vec![],
            1,
            qdd_circuit::Condition { creg: c, value: 1 },
        );
        let mut sim = DdSimulator::with_seed(qc, 3);
        sim.run().unwrap();
        let amps = sim.dense_state();
        assert!(amps[0b11].abs() > 0.999);
    }

    #[test]
    fn classical_condition_that_fails_is_skipped() {
        let mut qc = qdd_circuit::QuantumCircuit::new(2);
        let c = qc.add_creg("c", 1);
        qc.measure(0, 0); // records 0
        qc.gate_if(
            qdd_circuit::StandardGate::X,
            vec![],
            1,
            qdd_circuit::Condition { creg: c, value: 1 },
        );
        let mut sim = DdSimulator::with_seed(qc, 3);
        sim.run().unwrap();
        let amps = sim.dense_state();
        assert!(amps[0].abs() > 0.999, "gate must not fire");
    }

    #[test]
    fn reset_reinitializes_qubit() {
        let mut qc = qdd_circuit::QuantumCircuit::new(2);
        qc.h(0).cx(0, 1).reset(0);
        let mut sim = DdSimulator::with_seed(qc, 11);
        sim.run().unwrap();
        let state = sim.state();
        let p1 = sim.package_mut().prob_one(state, 0);
        assert!(p1 < 1e-12, "q0 is |0⟩ after reset");
    }

    #[test]
    fn swap_operation_swaps() {
        let mut qc = qdd_circuit::QuantumCircuit::new(2);
        qc.x(0).swap(0, 1);
        let mut sim = DdSimulator::with_seed(qc, 1);
        sim.run().unwrap();
        let amps = sim.dense_state();
        assert!(amps[0b10].abs() > 0.999);
    }

    #[test]
    fn grover_amplifies_marked_state() {
        let marked = 5u64;
        let mut sim = DdSimulator::with_seed(library::grover(3, marked), 2);
        sim.run().unwrap();
        let amps = sim.dense_state();
        let p_marked = amps[marked as usize].norm_sqr();
        assert!(p_marked > 0.8, "marked probability {p_marked}");
    }

    #[test]
    fn bv_reveals_secret_deterministically() {
        let secret = 0b1101u64;
        let mut sim = DdSimulator::with_seed(library::bernstein_vazirani(4, secret), 3);
        sim.run().unwrap();
        // Data qubits are 1..=4; ancilla q0 holds |−⟩.
        let mut counts = sim.sample(64);
        let (basis, _) = counts.drain().max_by_key(|&(_, c)| c).unwrap();
        assert_eq!((basis >> 1) & 0b1111, secret);
    }

    /// Regression: with a coarse interning tolerance, snapping noise
    /// (≈ tolerance-sized perturbations re-entering arithmetic) used to
    /// fragment Grover diagrams beyond 13 qubits from ~2n nodes into
    /// thousands. The default tolerance must keep them compact.
    #[test]
    fn grover_16_stays_compact() {
        let n = 16;
        let mut sim = DdSimulator::with_seed(library::grover(n, (1 << n) - 1), 1);
        sim.run().unwrap();
        assert!(
            sim.stats().peak_nodes <= 4 * n,
            "peak {} nodes — interning-noise fragmentation is back",
            sim.stats().peak_nodes
        );
        let p = sim.amplitude((1 << n) - 1).norm_sqr();
        assert!(p > 0.99, "P(marked) = {p}");
    }

    /// The memoization layers (compute tables, gate-DD cache, identity
    /// skips) must be transparent: disabling them changes speed, never
    /// amplitudes.
    #[test]
    fn caches_are_transparent_to_simulation_results() {
        for qc in [
            library::qft(6, true),
            library::grover(6, 11),
            library::random_clifford_t(6, 24, 7),
        ] {
            let mut memoized = DdSimulator::with_seed(qc.clone(), 1);
            memoized.run().unwrap();
            let mut bare = DdSimulator::with_config(
                qc,
                1,
                PackageConfig {
                    compute_tables: false,
                    ..PackageConfig::default()
                },
            );
            bare.run().unwrap();
            let reference = DenseSimulator::simulate(memoized.circuit(), 1)
                .unwrap()
                .state()
                .to_vec();
            for (i, ((a, b), r)) in memoized
                .dense_state()
                .iter()
                .zip(bare.dense_state())
                .zip(reference)
                .enumerate()
            {
                assert!(
                    a.approx_eq(b, 1e-9),
                    "amplitude {i} diverges with caches off: {a:?} vs {b:?}"
                );
                assert!(
                    a.approx_eq(r, 1e-9),
                    "amplitude {i} diverges from dense backend: {a:?} vs {r:?}"
                );
            }
        }
    }

    /// A circuit whose state has no product structure: node counts grow
    /// exponentially with the register, which is exactly what the node
    /// budget exists to catch.
    fn entangling_workload(n: usize, layers: usize) -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(n);
        for layer in 0..layers {
            for q in 0..n {
                qc.ry(0.37 + 0.11 * (layer * n + q) as f64, q);
            }
            for q in 0..n - 1 {
                qc.cx(q, q + 1);
            }
        }
        qc
    }

    fn limited_sim(qc: QuantumCircuit, max_nodes: usize) -> DdSimulator {
        let config = PackageConfig {
            limits: qdd_core::Limits {
                max_nodes: Some(max_nodes),
                ..qdd_core::Limits::default()
            },
            ..PackageConfig::default()
        };
        DdSimulator::with_config(qc, 1, config)
    }

    #[test]
    fn node_budget_without_fallback_is_a_hard_error() {
        let mut sim = limited_sim(entangling_workload(8, 3), 24);
        sim.set_dense_fallback(false);
        let err = sim.run().unwrap_err();
        match err {
            SimError::Dd(DdError::ResourceExhausted { limit, used, .. }) => {
                assert_eq!(limit, 24);
                assert!(used >= limit);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert!(
            sim.package().gc_pressure_runs() > 0,
            "pressure GC must have been attempted before giving up"
        );
        assert!(!sim.degraded_to_dense());
    }

    #[test]
    fn node_budget_degrades_to_dense_and_matches_unlimited_run() {
        let qc = entangling_workload(8, 3);
        let mut reference = DdSimulator::with_seed(qc.clone(), 1);
        reference.run().unwrap();
        let expected = reference.dense_state();

        let mut sim = limited_sim(qc, 24);
        sim.run().unwrap();
        assert!(sim.degraded_to_dense());
        assert!(sim.stats().dense_fallback);
        assert!(sim.package().gc_pressure_runs() > 0);
        let got = sim.dense_state();
        for (a, b) in expected.iter().zip(got.iter()) {
            assert!(a.approx_eq(*b, 1e-9), "dense fallback diverged: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn dense_mode_serves_sampling_and_measurement() {
        let mut qc = entangling_workload(6, 3);
        qc.add_creg("c", 1);
        qc.measure(0, 0);
        let mut sim = limited_sim(qc, 16);
        sim.run().unwrap();
        assert!(sim.degraded_to_dense());
        let counts = sim.sample(64);
        assert_eq!(counts.values().sum::<u64>(), 64);
        // The measurement collapsed q0 onto the recorded bit.
        let p1: f64 = sim
            .dense_state()
            .iter()
            .enumerate()
            .filter(|(i, _)| i & 1 != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        let expected = if sim.classical_bits()[0] { 1.0 } else { 0.0 };
        assert!(
            (p1 - expected).abs() < 1e-12,
            "q0 is not collapsed: p1 = {p1}"
        );
    }

    fn approx_sim(qc: QuantumCircuit, max_nodes: usize, min_fidelity: f64) -> DdSimulator {
        let config = PackageConfig {
            limits: qdd_core::Limits {
                max_nodes: Some(max_nodes),
                min_fidelity: Some(min_fidelity),
                ..qdd_core::Limits::default()
            },
            ..PackageConfig::default()
        };
        DdSimulator::with_config(qc, 1, config)
    }

    #[test]
    fn approximation_rung_completes_within_budget_and_bound() {
        let mut sim = approx_sim(entangling_workload(8, 3), 160, 0.5);
        sim.set_dense_fallback(false);
        sim.run().unwrap();
        let stats = sim.stats();
        assert!(stats.is_approximate(), "the rung must have fired: {stats:?}");
        assert!(stats.approx_rounds > 0);
        assert!(stats.approx_nodes_removed > 0);
        assert!(
            stats.fidelity_lower_bound >= 0.5 && stats.fidelity_lower_bound < 1.0,
            "cumulative bound {} outside [0.5, 1)",
            stats.fidelity_lower_bound
        );
        assert!(!sim.degraded_to_dense(), "approximation must suffice here");
        // The approximated run respects the budget and stays normalized.
        assert!(sim.node_count() <= 160);
        let norm: f64 = sim.dense_state().iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "state norm {norm}");
        // The bound is honest: the approximate state's overlap with the
        // exact run is at least the reported bound.
        let mut exact = DdSimulator::with_seed(entangling_workload(8, 3), 1);
        exact.run().unwrap();
        let overlap: Complex = exact
            .dense_state()
            .iter()
            .zip(sim.dense_state())
            .map(|(a, b)| a.conj() * b)
            .sum();
        assert!(
            overlap.norm_sqr() >= stats.fidelity_lower_bound - 1e-9,
            "actual fidelity {} below reported bound {}",
            overlap.norm_sqr(),
            stats.fidelity_lower_bound
        );
    }

    #[test]
    fn approximation_precedes_dense_fallback() {
        // A budget so tight that even halved diagrams keep starving: the
        // ladder must spend its fidelity budget and then continue densely.
        let mut sim = approx_sim(entangling_workload(8, 3), 12, 0.999_999);
        sim.run().unwrap();
        assert!(sim.degraded_to_dense(), "approx alone cannot satisfy 12 nodes");
        assert!(
            sim.stats().fidelity_lower_bound >= 0.999_999,
            "rejected rounds must not spend fidelity: {}",
            sim.stats().fidelity_lower_bound
        );
    }

    #[test]
    fn without_min_fidelity_ladder_is_unchanged() {
        let mut sim = limited_sim(entangling_workload(8, 3), 24);
        sim.run().unwrap();
        assert!(sim.degraded_to_dense());
        let stats = sim.stats();
        assert_eq!(stats.approx_rounds, 0);
        assert_eq!(stats.fidelity_lower_bound, 1.0);
        assert!(!stats.is_approximate());
    }

    #[test]
    fn restart_resets_fidelity_account() {
        let mut sim = approx_sim(entangling_workload(8, 3), 160, 0.5);
        sim.set_dense_fallback(false);
        sim.run().unwrap();
        assert!(sim.stats().fidelity_lower_bound < 1.0);
        sim.restart(2).unwrap();
        assert_eq!(sim.stats().fidelity_lower_bound, 1.0);
        assert_eq!(sim.stats().approx_rounds, 0);
    }

    #[test]
    fn threshold_policy_also_degrades_gracefully() {
        let config = PackageConfig {
            limits: qdd_core::Limits {
                max_nodes: Some(24),
                min_fidelity: Some(0.5),
                approx_policy: qdd_core::ApproxPolicy::Threshold { epsilon: 1e-3 },
                ..qdd_core::Limits::default()
            },
            ..PackageConfig::default()
        };
        let mut sim = DdSimulator::with_config(entangling_workload(8, 3), 1, config);
        let outcome = sim.run();
        // Threshold contraction may or may not shrink enough on its own;
        // either way the run must complete (dense rung backs it up) with a
        // consistent fidelity account.
        outcome.unwrap();
        let stats = sim.stats();
        assert!(stats.fidelity_lower_bound >= 0.5);
        assert!(stats.fidelity_lower_bound <= 1.0);
    }

    #[test]
    fn deadline_zero_fires_immediately() {
        let config = PackageConfig {
            limits: qdd_core::Limits {
                deadline: Some(std::time::Duration::ZERO),
                ..qdd_core::Limits::default()
            },
            ..PackageConfig::default()
        };
        let mut sim = DdSimulator::with_config(library::qft(6, true), 1, config);
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::Dd(DdError::DeadlineExceeded { .. })));
    }

    #[test]
    fn gc_keeps_live_state() {
        let mut sim = DdSimulator::with_seed(library::qft(5, true), 1);
        sim.run().unwrap();
        let before = sim.dense_state();
        sim.collect_garbage();
        let after = sim.dense_state();
        for (a, b) in before.iter().zip(after.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }
}

