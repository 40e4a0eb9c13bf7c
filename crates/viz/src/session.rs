//! The simulation tab of the paper's tool (Fig. 8), as a library.
//!
//! A [`SimulationExplorer`] wraps a [`SteppableSimulation`] — a session over
//! the batch simulator — and renders one [`Frame`] per navigation event:
//! exactly the sequence of pictures the web tool shows while a user clicks
//! through a circuit. Frames can be bundled into an offline HTML explorer
//! via [`crate::html`].

use crate::dot::vector_to_dot;
use crate::style::VizStyle;
use crate::svg::vector_to_svg;
use qdd_circuit::QuantumCircuit;
use qdd_core::{MeasurementOutcome, PackageConfig};
use qdd_sim::{SimError, StepOutcome, SteppableSimulation};
use std::io::Write as _;
use std::path::Path;

/// One rendered step of an exploration session.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Sequence number within the session.
    pub index: usize,
    /// Human-readable description ("after h q1", "measurement dialog …").
    pub title: String,
    /// Standalone SVG of the current diagram.
    pub svg: String,
    /// DOT source of the current diagram.
    pub dot: String,
    /// Node count (the paper's size measure).
    pub node_count: usize,
}

/// Interactive simulation with frame capture.
#[derive(Debug)]
pub struct SimulationExplorer {
    sim: SteppableSimulation,
    style: VizStyle,
    frames: Vec<Frame>,
}

impl SimulationExplorer {
    /// Opens a session and captures the initial `|0…0⟩` frame
    /// (Fig. 8(a)). Collapses the user does not choose draw from an
    /// entropy-seeded RNG.
    pub fn new(circuit: QuantumCircuit, style: VizStyle) -> Self {
        Self::from_session(SteppableSimulation::new(circuit), style)
    }

    /// Opens a session whose collapses draw from `seed` and whose package
    /// runs under `config`: played with [`Self::run_scripted`]`(&[])`, it
    /// shows the run
    /// [`DdSimulator::with_config`](qdd_sim::DdSimulator::with_config)
    /// takes, under the same budgets.
    pub fn with_config(
        circuit: QuantumCircuit,
        seed: u64,
        config: PackageConfig,
        style: VizStyle,
    ) -> Self {
        Self::from_session(
            SteppableSimulation::with_config(circuit, seed, config),
            style,
        )
    }

    fn from_session(sim: SteppableSimulation, style: VizStyle) -> Self {
        let mut explorer = SimulationExplorer {
            sim,
            style,
            frames: Vec::new(),
        };
        explorer.capture("initial state |0…0⟩".to_string());
        explorer
    }

    /// The underlying steppable simulation.
    pub fn simulation(&self) -> &SteppableSimulation {
        &self.sim
    }

    /// All frames captured so far.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The most recent frame.
    pub fn latest_frame(&self) -> &Frame {
        self.frames.last().expect("initial frame always present")
    }

    fn capture(&mut self, title: String) {
        let state = self.sim.state();
        let svg = vector_to_svg(self.sim.package(), state, &self.style);
        let dot = vector_to_dot(self.sim.package(), state, &self.style);
        self.frames.push(Frame {
            index: self.frames.len(),
            title,
            svg,
            dot,
            node_count: self.sim.node_count(),
        });
    }

    /// The tool's `→`: one step forward, capturing the resulting frame.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn step_forward(&mut self) -> Result<StepOutcome, SimError> {
        let dialog_shown = self.sim.pending().is_some();
        let outcome = self.sim.step_forward()?;
        match outcome {
            StepOutcome::Applied { op_index } => {
                let desc = self
                    .sim
                    .circuit()
                    .ops()
                    .get(op_index)
                    .map(|op| op.to_string())
                    .unwrap_or_default();
                self.capture(format!("after {desc}"));
            }
            StepOutcome::NeedsChoice(p) => {
                if !dialog_shown {
                    self.capture(format!(
                        "measurement dialog q{}: p(|0⟩)={:.3}, p(|1⟩)={:.3}",
                        p.qubit, p.p0, p.p1
                    ));
                }
            }
            StepOutcome::AtEnd => {}
        }
        Ok(outcome)
    }

    /// Resolves an open dialog (Fig. 8(c)→(d)).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn choose(&mut self, outcome: MeasurementOutcome) -> Result<(), SimError> {
        self.sim.choose(outcome)?;
        self.capture(format!("collapsed to {outcome}"));
        Ok(())
    }

    /// The tool's `←`: one step back (re-rendering the restored state).
    pub fn step_back(&mut self) -> bool {
        let moved = self.sim.step_back();
        if moved {
            self.capture(format!("back to step {}", self.sim.position()));
        }
        moved
    }

    /// Plays the whole circuit, resolving dialogs from `choices` in order;
    /// dialogs beyond the script resolve with the simulator's seeded draw.
    /// The package's deadline, if any, is armed for the play, as
    /// [`DdSimulator::run`](qdd_sim::DdSimulator::run) arms it. Returns the
    /// number of dialogs resolved.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn run_scripted(&mut self, choices: &[MeasurementOutcome]) -> Result<usize, SimError> {
        self.sim.package_mut().arm_deadline();
        let played = self.play(choices);
        self.sim.package_mut().disarm_deadline();
        played
    }

    fn play(&mut self, choices: &[MeasurementOutcome]) -> Result<usize, SimError> {
        let mut used = 0usize;
        loop {
            match self.step_forward()? {
                StepOutcome::AtEnd => return Ok(used),
                StepOutcome::NeedsChoice(_) => {
                    match choices.get(used) {
                        Some(&outcome) => self.choose(outcome)?,
                        None => {
                            let outcome = self.sim.draw()?;
                            self.capture(format!("collapsed to {outcome}"));
                        }
                    }
                    used += 1;
                }
                StepOutcome::Applied { .. } => {}
            }
        }
    }

    /// Writes each frame's SVG and DOT into `dir`
    /// (`frame_00.svg`, `frame_00.dot`, …).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_frames(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for frame in &self.frames {
            let mut svg = std::fs::File::create(dir.join(format!("frame_{:02}.svg", frame.index)))?;
            svg.write_all(frame.svg.as_bytes())?;
            let mut dot = std::fs::File::create(dir.join(format!("frame_{:02}.dot", frame.index)))?;
            dot.write_all(frame.dot.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::library;

    fn bell_with_measure() -> QuantumCircuit {
        let mut qc = library::bell();
        qc.add_creg("c", 1);
        qc.measure(0, 0);
        qc
    }

    /// The four screenshots of Fig. 8 appear as frames.
    #[test]
    fn fig_8_frame_sequence() {
        let mut ex = SimulationExplorer::new(bell_with_measure(), VizStyle::classic());
        ex.step_forward().unwrap(); // H
        ex.step_forward().unwrap(); // CX
        ex.step_forward().unwrap(); // dialog
        ex.choose(MeasurementOutcome::One).unwrap();
        let titles: Vec<&str> = ex.frames().iter().map(|f| f.title.as_str()).collect();
        assert_eq!(titles.len(), 5);
        assert!(titles[0].contains("initial"));
        assert!(titles[1].contains("h"));
        assert!(titles[2].contains("x"));
        assert!(titles[3].contains("dialog"));
        assert!(titles[3].contains("0.500"));
        assert!(titles[4].contains("|1⟩"));
        // Final frame: |11⟩ = 2 nodes.
        assert_eq!(ex.latest_frame().node_count, 2);
    }

    #[test]
    fn dialog_frame_not_duplicated() {
        let mut ex = SimulationExplorer::new(bell_with_measure(), VizStyle::classic());
        ex.step_forward().unwrap();
        ex.step_forward().unwrap();
        ex.step_forward().unwrap();
        ex.step_forward().unwrap(); // still the dialog
        let dialogs = ex
            .frames()
            .iter()
            .filter(|f| f.title.contains("dialog"))
            .count();
        assert_eq!(dialogs, 1);
    }

    #[test]
    fn scripted_run_resolves_all_dialogs() {
        let mut ex = SimulationExplorer::new(
            library::teleportation(0.8),
            VizStyle::colored(),
        );
        let used = ex
            .run_scripted(&[MeasurementOutcome::One, MeasurementOutcome::Zero])
            .unwrap();
        assert!(used <= 2);
        assert!(ex.simulation().is_finished());
    }

    #[test]
    fn step_back_captures_frame() {
        let mut ex = SimulationExplorer::new(library::bell(), VizStyle::classic());
        ex.step_forward().unwrap();
        let n = ex.frames().len();
        assert!(ex.step_back());
        assert_eq!(ex.frames().len(), n + 1);
        assert!(ex.latest_frame().title.contains("back to step 0"));
    }

    #[test]
    fn frames_written_to_disk() {
        let mut ex = SimulationExplorer::new(library::bell(), VizStyle::classic());
        ex.step_forward().unwrap();
        let dir = std::env::temp_dir().join(format!("qdd_frames_{}", std::process::id()));
        ex.write_frames(&dir).unwrap();
        assert!(dir.join("frame_00.svg").exists());
        assert!(dir.join("frame_01.dot").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
