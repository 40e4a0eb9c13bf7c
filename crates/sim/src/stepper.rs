//! Interactive, navigable simulation — the semantics of the paper tool's
//! simulation tab (§IV-B).
//!
//! The web tool offers `→ / ←` single-stepping, `⏮ / ⏭` jumps (the latter
//! stopping at *special operations*), a slide-show mode, and pop-up dialogs
//! whenever a measurement or reset hits a qubit in superposition. This
//! module models those controls as a state machine over a [`DdSimulator`],
//! which applies every operation; the session adds only the dialog, the
//! step-back history and the cursor moves:
//!
//! * [`SteppableSimulation::step_forward`] applies one operation — or
//!   returns [`StepOutcome::NeedsChoice`], the library form of the pop-up
//!   dialog, holding both outcome probabilities;
//! * [`SteppableSimulation::choose`] resolves the dialog with the user's
//!   outcome, [`SteppableSimulation::draw`] with the simulator's own seeded
//!   draw;
//! * [`SteppableSimulation::step_back`] walks history (pinned snapshots of
//!   the shared diagram, so this is cheap);
//! * [`SteppableSimulation::fast_forward`] runs to the next barrier,
//!   choice point, or the end — the tool's `⏭`.
//!
//! Every collapse without an open dialog draws from the simulator's RNG
//! exactly as a batch run does, so a session that resolves each dialog
//! with [`SteppableSimulation::draw`] takes the run
//! [`DdSimulator::with_seed`] takes for the same seed.

use crate::error::SimError;
use crate::simulator::{Checkpoint, DdSimulator};
use qdd_circuit::{Operation, QuantumCircuit};
use qdd_core::{DdPackage, MeasurementOutcome, PackageConfig, VecEdge};

/// A collapse probability below this opens no dialog: the outcome is
/// certain.
const CERTAIN: f64 = 1e-12;

/// Why a choice is pending.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChoiceKind {
    /// A `measure` op: the chosen outcome is recorded into `bit`.
    Measurement {
        /// Classical bit receiving the outcome.
        bit: usize,
    },
    /// A `reset` op: the chosen branch is kept, then relabelled `|0⟩`.
    Reset,
}

/// The library form of the tool's measurement/reset pop-up dialog.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PendingChoice {
    /// The qubit being measured or reset.
    pub qubit: usize,
    /// Probability of observing `|0⟩`.
    pub p0: f64,
    /// Probability of observing `|1⟩`.
    pub p1: f64,
    /// Measurement or reset.
    pub kind: ChoiceKind,
}

/// Result of a navigation call.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum StepOutcome {
    /// The operation at `op_index` was applied.
    Applied {
        /// Index of the applied operation.
        op_index: usize,
    },
    /// A dialog is open; resolve it with
    /// [`SteppableSimulation::choose`] or [`SteppableSimulation::draw`].
    NeedsChoice(PendingChoice),
    /// The circuit is exhausted.
    AtEnd,
}

/// An interactive simulation session over one circuit.
#[derive(Debug)]
pub struct SteppableSimulation {
    sim: DdSimulator,
    /// One checkpoint per applied operation, taken before it.
    history: Vec<Checkpoint>,
    pending: Option<PendingChoice>,
}

impl SteppableSimulation {
    /// Opens a session on `circuit`, positioned before the first operation
    /// in state `|0…0⟩` (the tool's initial screen, Fig. 8(a)), with an
    /// entropy-seeded RNG.
    pub fn new(circuit: QuantumCircuit) -> Self {
        Self::with_seed(circuit, rand::random())
    }

    /// Opens a session whose collapses draw from `seed`, as
    /// [`DdSimulator::with_seed`] does.
    pub fn with_seed(circuit: QuantumCircuit, seed: u64) -> Self {
        Self::with_config(circuit, seed, PackageConfig::default())
    }

    /// Opens a session whose package runs under `config` — the budgeted
    /// form used by `qdd serve`, where interactive sessions must honor the
    /// same per-tenant resource leashes as batch requests. Operations climb
    /// the simulator's degradation ladder, so a budget the ladder cannot
    /// meet is a typed error from the step that tripped it.
    pub fn with_config(circuit: QuantumCircuit, seed: u64, config: PackageConfig) -> Self {
        SteppableSimulation {
            sim: DdSimulator::with_config(circuit, seed, config),
            history: Vec::new(),
            pending: None,
        }
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &QuantumCircuit {
        self.sim.circuit()
    }

    /// The decision-diagram package, for visualization.
    pub fn package(&self) -> &DdPackage {
        self.sim.package()
    }

    /// Mutable package access.
    pub fn package_mut(&mut self) -> &mut DdPackage {
        self.sim.package_mut()
    }

    /// The current state diagram.
    pub fn state(&self) -> VecEdge {
        self.sim.state()
    }

    /// The classical bits recorded so far.
    pub fn classical_bits(&self) -> &[bool] {
        self.sim.classical_bits()
    }

    /// The number of operations applied so far.
    pub fn position(&self) -> usize {
        self.history.len()
    }

    /// `true` once every operation has been applied.
    pub fn is_finished(&self) -> bool {
        self.next_op().is_none() && self.pending.is_none()
    }

    /// The open dialog, if any.
    pub fn pending(&self) -> Option<PendingChoice> {
        self.pending
    }

    /// The next operation to be applied.
    pub fn next_op(&self) -> Option<&Operation> {
        self.circuit().ops().get(self.position())
    }

    /// Restarts the simulator's random stream at `seed`: every later
    /// collapse without a user choice draws from it.
    pub fn reseed(&mut self, seed: u64) {
        self.sim.reseed(seed);
    }

    /// Applies the next operation (the tool's `→`).
    ///
    /// Measurements and resets on qubits in superposition open a dialog
    /// instead of advancing; repeated calls return the same
    /// [`StepOutcome::NeedsChoice`] until the dialog is resolved.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator; the session stays
    /// before the failed operation.
    pub fn step_forward(&mut self) -> Result<StepOutcome, SimError> {
        if let Some(p) = self.pending {
            return Ok(StepOutcome::NeedsChoice(p));
        }
        let choice = match self.next_op() {
            None => return Ok(StepOutcome::AtEnd),
            Some(&Operation::Measure { qubit, bit }) => {
                Some((qubit, ChoiceKind::Measurement { bit }))
            }
            Some(&Operation::Reset { qubit }) => Some((qubit, ChoiceKind::Reset)),
            Some(_) => None,
        };
        if let Some((qubit, kind)) = choice {
            let state = self.state();
            let (p0, p1) = self.package_mut().qubit_probabilities(state, qubit);
            // A qubit not in superposition opens no dialog: the tool applies
            // the operation silently, and the simulator still draws.
            if p0 >= CERTAIN && p1 >= CERTAIN {
                let pending = PendingChoice {
                    qubit,
                    p0,
                    p1,
                    kind,
                };
                self.pending = Some(pending);
                return Ok(StepOutcome::NeedsChoice(pending));
            }
        }
        let op_index = self.advance(None)?;
        Ok(StepOutcome::Applied { op_index })
    }

    /// Resolves the open dialog with `outcome` (the user clicking `|0⟩` or
    /// `|1⟩` in Fig. 8(c)) and commits the irreversible collapse.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTransition`] if no dialog is open;
    /// [`DdError::ImpossibleOutcome`](qdd_core::DdError::ImpossibleOutcome)
    /// if the chosen branch has probability ≈ 0.
    pub fn choose(&mut self, outcome: MeasurementOutcome) -> Result<(), SimError> {
        self.resolve(Some(outcome)).map(|_| ())
    }

    /// Resolves the open dialog with the simulator's seeded draw — the
    /// outcome a batch run reaching this point with the same RNG takes —
    /// and returns it.
    ///
    /// # Errors
    ///
    /// As [`Self::choose`].
    pub fn draw(&mut self) -> Result<MeasurementOutcome, SimError> {
        self.resolve(None)
    }

    fn resolve(
        &mut self,
        forced: Option<MeasurementOutcome>,
    ) -> Result<MeasurementOutcome, SimError> {
        let Some(p) = self.pending else {
            return Err(SimError::InvalidTransition {
                reason: "no pending measurement or reset to resolve",
            });
        };
        self.advance(forced)?;
        self.pending = None;
        let outcome = forced
            .or_else(|| self.sim.last_draw())
            .expect("a measurement or reset collapses");
        qdd_telemetry::emit("sim.choice")
            .field("qubit", p.qubit)
            .field("outcome", outcome.as_bool());
        Ok(outcome)
    }

    /// Applies the next operation through the simulator, collapsing onto
    /// `forced` if given, and returns its index. A failed operation leaves
    /// the session where it was.
    fn advance(&mut self, forced: Option<MeasurementOutcome>) -> Result<usize, SimError> {
        let op_index = self.position();
        let checkpoint = self.sim.checkpoint();
        match self.sim.step_with(forced) {
            Ok(_) => {
                self.history.push(checkpoint);
                Ok(op_index)
            }
            Err(e) => {
                self.sim.rewind(checkpoint);
                Err(e)
            }
        }
    }

    /// Steps one operation back (the tool's `←`). An open dialog is
    /// dismissed first. Returns `false` at the very beginning.
    pub fn step_back(&mut self) -> bool {
        if self.pending.take().is_some() {
            return true;
        }
        let Some(checkpoint) = self.history.pop() else {
            return false;
        };
        self.sim.rewind(checkpoint);
        true
    }

    /// Rewinds to the initial state (the tool's `⏮`).
    pub fn to_start(&mut self) {
        while self.step_back() {}
    }

    /// Runs forward until a barrier has been applied, a dialog opens, or
    /// the circuit ends (the tool's `⏭`).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn fast_forward(&mut self) -> Result<StepOutcome, SimError> {
        loop {
            let was_barrier = matches!(self.next_op(), Some(Operation::Barrier));
            let outcome = self.step_forward()?;
            match outcome {
                StepOutcome::Applied { .. } if was_barrier => return Ok(outcome),
                StepOutcome::Applied { .. } => continue,
                other => return Ok(other),
            }
        }
    }

    /// Node count of the current state diagram.
    pub fn node_count(&self) -> usize {
        self.sim.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::library;
    use qdd_complex::Complex;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn bell_with_measure() -> QuantumCircuit {
        let mut qc = library::bell();
        qc.add_creg("c", 1);
        qc.measure(0, 0);
        qc
    }

    /// The full Fig. 8 walk-through: |00⟩ → Bell → measure q0 = 1 → |11⟩.
    #[test]
    fn fig_8_walkthrough() {
        let mut s = SteppableSimulation::new(bell_with_measure());
        // (a) initial |00⟩
        assert_eq!(s.node_count(), 2);
        // apply H, CX
        assert!(matches!(s.step_forward().unwrap(), StepOutcome::Applied { op_index: 0 }));
        assert!(matches!(s.step_forward().unwrap(), StepOutcome::Applied { op_index: 1 }));
        // (b) Bell state
        let amps = s.package().to_dense_vector(s.state(), 2);
        assert!(amps[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        // (c) measurement dialog with 50/50
        let out = s.step_forward().unwrap();
        match out {
            StepOutcome::NeedsChoice(p) => {
                assert_eq!(p.qubit, 0);
                assert!((p.p0 - 0.5).abs() < 1e-12);
                assert!((p.p1 - 0.5).abs() < 1e-12);
            }
            other => panic!("expected dialog, got {other:?}"),
        }
        // (d) choose |1⟩ → |11⟩
        s.choose(MeasurementOutcome::One).unwrap();
        let amps = s.package().to_dense_vector(s.state(), 2);
        assert!(amps[3].abs() > 0.999);
        assert!(s.classical_bits()[0]);
        assert!(s.is_finished());
    }

    #[test]
    fn dialog_is_idempotent_until_resolved() {
        let mut s = SteppableSimulation::new(bell_with_measure());
        s.step_forward().unwrap();
        s.step_forward().unwrap();
        let a = s.step_forward().unwrap();
        let b = s.step_forward().unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, StepOutcome::NeedsChoice(_)));
    }

    #[test]
    fn choose_without_dialog_errors() {
        let mut s = SteppableSimulation::new(library::bell());
        assert!(matches!(
            s.choose(MeasurementOutcome::Zero),
            Err(SimError::InvalidTransition { .. })
        ));
    }

    #[test]
    fn step_back_restores_states() {
        let mut s = SteppableSimulation::new(library::bell());
        s.step_forward().unwrap();
        s.step_forward().unwrap();
        let bell_nodes = s.node_count();
        assert!(s.step_back());
        assert!(s.step_back());
        assert_eq!(s.position(), 0);
        assert_eq!(s.node_count(), 2, "back to |00⟩");
        assert!(!s.step_back(), "cannot step before the start");
        // Forward again reproduces the Bell state.
        s.step_forward().unwrap();
        s.step_forward().unwrap();
        assert_eq!(s.node_count(), bell_nodes);
    }

    #[test]
    fn step_back_dismisses_dialog() {
        let mut s = SteppableSimulation::new(bell_with_measure());
        s.step_forward().unwrap();
        s.step_forward().unwrap();
        assert!(matches!(s.step_forward().unwrap(), StepOutcome::NeedsChoice(_)));
        assert!(s.step_back());
        assert!(s.pending().is_none());
        // Still positioned before the measurement.
        assert_eq!(s.position(), 2);
    }

    #[test]
    fn deterministic_measurement_skips_dialog() {
        let mut qc = QuantumCircuit::new(1);
        qc.add_creg("c", 1);
        qc.x(0).measure(0, 0);
        let mut s = SteppableSimulation::new(qc);
        s.step_forward().unwrap();
        let out = s.step_forward().unwrap();
        assert!(matches!(out, StepOutcome::Applied { .. }));
        assert!(s.classical_bits()[0]);
    }

    #[test]
    fn fast_forward_stops_at_barriers() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).barrier().h(1).barrier().cx(0, 1);
        let mut s = SteppableSimulation::new(qc);
        let out = s.fast_forward().unwrap();
        assert!(matches!(out, StepOutcome::Applied { op_index: 1 }));
        assert_eq!(s.position(), 2, "stopped right after the first barrier");
        let out = s.fast_forward().unwrap();
        assert!(matches!(out, StepOutcome::Applied { op_index: 3 }));
        let out = s.fast_forward().unwrap();
        assert!(matches!(out, StepOutcome::AtEnd));
        assert!(s.is_finished());
    }

    #[test]
    fn fast_forward_stops_at_dialogs() {
        let mut s = SteppableSimulation::new(bell_with_measure());
        let out = s.fast_forward().unwrap();
        assert!(matches!(out, StepOutcome::NeedsChoice(_)));
    }

    #[test]
    fn to_start_resets_everything() {
        let mut s = SteppableSimulation::new(bell_with_measure());
        s.fast_forward().unwrap();
        s.choose(MeasurementOutcome::Zero).unwrap();
        assert!(s.is_finished());
        s.to_start();
        assert_eq!(s.position(), 0);
        assert!(!s.classical_bits()[0]);
        assert_eq!(s.node_count(), 2);
    }

    #[test]
    fn conditioned_gate_in_stepper() {
        let mut qc = QuantumCircuit::new(2);
        let c = qc.add_creg("c", 1);
        qc.x(0);
        qc.measure(0, 0);
        qc.gate_if(
            qdd_circuit::StandardGate::X,
            vec![],
            1,
            qdd_circuit::Condition { creg: c, value: 1 },
        );
        let mut s = SteppableSimulation::new(qc);
        while !s.is_finished() {
            match s.step_forward().unwrap() {
                StepOutcome::NeedsChoice(_) => s.choose(MeasurementOutcome::One).unwrap(),
                StepOutcome::AtEnd => break,
                StepOutcome::Applied { .. } => {}
            }
        }
        let amps = s.package().to_dense_vector(s.state(), 2);
        assert!(amps[0b11].abs() > 0.999);
    }

    /// Stepping back rewinds the RNG too: a dialog replayed after `←`
    /// draws the outcome it drew before.
    #[test]
    fn step_back_replays_the_same_draw() {
        for seed in 1..=16 {
            let mut s = SteppableSimulation::with_seed(bell_with_measure(), seed);
            s.fast_forward().unwrap();
            let first = s.draw().unwrap();
            assert!(s.step_back());
            s.step_forward().unwrap();
            assert_eq!(s.draw().unwrap(), first, "seed {seed}");
        }
    }

    #[test]
    fn failed_step_leaves_the_session_in_place() {
        let config = PackageConfig {
            limits: qdd_core::Limits {
                max_nodes: Some(2),
                ..qdd_core::Limits::default()
            },
            ..PackageConfig::default()
        };
        let mut s = SteppableSimulation::with_config(library::ghz(8), 1, config);
        let err = loop {
            match s.step_forward() {
                Ok(StepOutcome::AtEnd) => panic!("the budget never tripped"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            SimError::Dd(qdd_core::DdError::ResourceExhausted { .. })
        ));
        let at = s.position();
        assert!(
            s.step_forward().is_err(),
            "the failed operation is retried, not skipped"
        );
        assert_eq!(s.position(), at);
    }

    use qdd_circuit::QuantumCircuit;
}
