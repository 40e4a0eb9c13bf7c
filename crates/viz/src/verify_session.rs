//! The verification tab of the paper's tool (Fig. 9), as a library.
//!
//! Two algorithm boxes, one shared working diagram: gates from the left
//! circuit multiply onto the diagram from the left, *inverted* gates from
//! the right circuit from the right, so the diagram equals `G'† · G` of
//! whatever has been applied so far. If the circuits are equivalent and the
//! interleaving is chosen well, the picture stays near the identity the
//! whole time (Example 12). The checking itself is the verifier's
//! [`AlternatingCheck`]; the explorer adds one rendered frame per gate.

use crate::dot::matrix_to_dot;
use crate::session::Frame;
use crate::style::VizStyle;
use crate::svg::matrix_to_svg;
use qdd_circuit::{GateApplication, Operation, QuantumCircuit};
use qdd_core::{DdPackage, MatEdge};
use qdd_verify::{AlternatingCheck, Side, Strategy, VerifyError};

/// Interactive two-circuit verification with frame capture.
#[derive(Debug)]
pub struct VerificationExplorer {
    dd: DdPackage,
    check: AlternatingCheck,
    style: VizStyle,
    frames: Vec<Frame>,
}

impl VerificationExplorer {
    /// Opens a verification session; the working diagram starts as the
    /// identity.
    ///
    /// # Errors
    ///
    /// [`VerifyError::WidthMismatch`] or [`VerifyError::NonUnitary`] for
    /// unsupported inputs (the tool's documented §IV-C restrictions).
    pub fn new(
        left: &QuantumCircuit,
        right: &QuantumCircuit,
        style: VizStyle,
    ) -> Result<Self, VerifyError> {
        let mut dd = DdPackage::new();
        let check = AlternatingCheck::new(&mut dd, left, right)?;
        let mut explorer = VerificationExplorer {
            dd,
            check,
            style,
            frames: Vec::new(),
        };
        explorer.capture("identity (nothing applied)".to_string());
        Ok(explorer)
    }

    /// The working diagram `G'†·G` of everything applied so far.
    pub fn matrix(&self) -> MatEdge {
        self.check.matrix()
    }

    /// The package, for custom rendering.
    pub fn package(&self) -> &DdPackage {
        &self.dd
    }

    /// All captured frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Node count of the working diagram.
    pub fn node_count(&self) -> usize {
        self.dd.mat_node_count(self.matrix())
    }

    /// Peak node count since the session opened (Example 12's metric).
    pub fn peak_nodes(&self) -> usize {
        self.check.peak_nodes()
    }

    /// `(applied_left, applied_right)` gate counts (barriers excluded).
    pub fn position(&self) -> (usize, usize) {
        self.check.applied()
    }

    /// `true` when both circuits are exhausted.
    pub fn is_finished(&self) -> bool {
        self.check.is_finished()
    }

    /// `true` if the working diagram currently equals the identity
    /// (possibly times a global phase) — the tool's green light.
    pub fn resembles_identity(&self) -> bool {
        self.check.verdict(&self.dd).is_equivalent()
    }

    fn capture(&mut self, title: String) {
        let svg = matrix_to_svg(&self.dd, self.matrix(), &self.style);
        let dot = matrix_to_dot(&self.dd, self.matrix(), &self.style);
        self.frames.push(Frame {
            index: self.frames.len(),
            title,
            svg,
            dot,
            node_count: self.node_count(),
        });
    }

    /// Applies the next gate of the **left** circuit (`M ← U·M`); skips
    /// barriers. Returns `false` when the left circuit is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates package errors.
    pub fn apply_left(&mut self) -> Result<bool, VerifyError> {
        self.apply(Side::Left)
    }

    /// Applies the inverse of the next gate of the **right** circuit
    /// (`M ← M·V†`); skips barriers. Returns `false` when exhausted.
    ///
    /// # Errors
    ///
    /// Propagates package errors.
    pub fn apply_right(&mut self) -> Result<bool, VerifyError> {
        self.apply(Side::Right)
    }

    fn apply(&mut self, side: Side) -> Result<bool, VerifyError> {
        let Some(gate) = self.check.apply(&mut self.dd, side)? else {
            return Ok(false);
        };
        let title = frame_title(side, gate);
        self.capture(title);
        Ok(true)
    }

    /// Applies right-circuit gates up to and including the next barrier —
    /// the `⏭` behaviour Example 12 leans on.
    ///
    /// # Errors
    ///
    /// Propagates package errors.
    pub fn right_to_next_barrier(&mut self) -> Result<(), VerifyError> {
        while !self.check.pass_barrier(Side::Right) && self.apply_right()? {}
        Ok(())
    }

    /// Runs Example 12's schedule ([`Strategy::BarrierGuided`]) to
    /// completion, one frame per gate. Returns whether the result
    /// resembles the identity.
    ///
    /// # Errors
    ///
    /// Propagates package errors.
    pub fn run_barrier_guided(&mut self) -> Result<bool, VerifyError> {
        while let Some((side, gate)) = self.check.step(&mut self.dd, Strategy::BarrierGuided)? {
            let title = frame_title(side, gate);
            self.capture(title);
        }
        Ok(self.resembles_identity())
    }
}

fn frame_title(side: Side, gate: &GateApplication) -> String {
    let op = Operation::Gate(gate.clone());
    match side {
        Side::Left => format!("G: applied {op}"),
        Side::Right => format!("G': applied inverse of {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::{compile, library};

    /// Fig. 9 / Example 12: verifying the two QFT versions stays close to
    /// the identity throughout.
    #[test]
    fn example_12_barrier_guided_run() {
        let qft = library::qft(3, true);
        let compiled = compile::compiled_qft(3);
        let mut ex =
            VerificationExplorer::new(&qft, &compiled, VizStyle::colored()).unwrap();
        let equivalent = ex.run_barrier_guided().unwrap();
        assert!(equivalent);
        // Example 12: a maximum of 9 nodes are required.
        assert!(
            ex.peak_nodes() <= 9,
            "peak {} exceeds the paper's 9-node bound",
            ex.peak_nodes()
        );
        assert!(ex.is_finished());
    }

    #[test]
    fn mid_session_matrix_differs_from_identity() {
        let qft = library::qft(3, true);
        let compiled = compile::compiled_qft(3);
        let mut ex =
            VerificationExplorer::new(&qft, &compiled, VizStyle::colored()).unwrap();
        assert!(ex.resembles_identity(), "starts at the identity");
        ex.apply_left().unwrap();
        assert!(!ex.resembles_identity(), "one-sided application diverges");
    }

    #[test]
    fn frames_record_progress() {
        let bell = library::bell();
        let mut ex = VerificationExplorer::new(&bell, &bell, VizStyle::classic()).unwrap();
        ex.apply_left().unwrap();
        ex.apply_right().unwrap();
        ex.apply_left().unwrap();
        ex.apply_right().unwrap();
        assert_eq!(ex.frames().len(), 5, "initial + 4 applications");
        assert!(ex.frames()[1].title.starts_with("G:"));
        assert!(ex.frames()[2].title.starts_with("G':"));
    }

    #[test]
    fn self_verification_ends_at_identity() {
        let qc = library::random_circuit(3, 10, 5);
        let mut ex = VerificationExplorer::new(&qc, &qc, VizStyle::classic()).unwrap();
        while ex.apply_left().unwrap() {
            ex.apply_right().unwrap();
        }
        assert!(ex.resembles_identity());
    }

    #[test]
    fn non_equivalent_detected() {
        let good = library::ghz(3);
        let mut bad = library::ghz(3);
        bad.x(1);
        let mut ex = VerificationExplorer::new(&good, &bad, VizStyle::classic()).unwrap();
        let equivalent = ex.run_barrier_guided().unwrap();
        assert!(!equivalent);
    }

    #[test]
    fn width_mismatch_rejected() {
        let a = library::ghz(2);
        let b = library::ghz(3);
        assert!(VerificationExplorer::new(&a, &b, VizStyle::classic()).is_err());
    }

    #[test]
    fn measurements_rejected_like_the_tool() {
        let mut a = QuantumCircuit::new(1);
        a.add_creg("c", 1);
        a.measure(0, 0);
        let b = QuantumCircuit::new(1);
        assert!(matches!(
            VerificationExplorer::new(&a, &b, VizStyle::classic()),
            Err(VerifyError::NonUnitary { circuit: 0, .. })
        ));
    }
}
