//! The alternating scheme (paper ref \[20\], Example 12) as a step type:
//! gates from either circuit, one at a time, onto one working diagram.

use crate::checker::{count_gates, counterexample, flatten, maybe_gc, with_pressure_retry, Flat};
use crate::error::VerifyError;
use crate::result::{Equivalence, EquivalenceReport, Strategy};
use qdd_circuit::{GateApplication, QuantumCircuit};
use qdd_core::{DdError, DdPackage, MatEdge};

/// The circuit a gate of an [`AlternatingCheck`] comes from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left circuit `G`; its gate `U` makes `M ← U·M`.
    Left,
    /// The right circuit `G'`; its gate `V` makes `M ← M·V†`.
    Right,
}

/// An alternating equivalence check in progress.
///
/// The working diagram `M` starts as the identity and always equals
/// `G'†·G` restricted to the gates applied so far; equivalent circuits
/// bring it back to the identity (up to a global phase) once both are
/// exhausted. [`Self::step`] applies the next gate a [`Strategy`]
/// schedules; [`Self::apply`] applies the next gate of a chosen side —
/// the tool's verification tab (Fig. 9) steps it either way.
///
/// The check borrows its package per call, so one package can serve many
/// checks; every call must pass the package the check was opened on.
/// Garbage is collected between gates whenever the package asks for it,
/// and once under pressure before a spent budget fails a gate, with `M`
/// kept alive; between calls `M` holds no reference, so a caller that
/// collects garbage itself must pin [`Self::matrix`] first.
#[derive(Clone, Debug)]
pub struct AlternatingCheck {
    n: usize,
    /// Per side, left then right: the flattened circuit, the position in
    /// it (barriers included), the gates applied and the gates in total.
    circuits: [Vec<Flat>; 2],
    cursors: [usize; 2],
    applied: [usize; 2],
    gates: [usize; 2],
    identity: MatEdge,
    matrix: MatEdge,
    trace: Vec<usize>,
    /// Barrier-guided only: see [`Self::continues_group`].
    group_open: bool,
}

impl AlternatingCheck {
    /// Opens a check of `left` against `right` on `dd`, with the identity
    /// as the working diagram.
    ///
    /// # Errors
    ///
    /// [`VerifyError::WidthMismatch`] for circuits of different sizes,
    /// [`VerifyError::NonUnitary`] if either circuit contains
    /// measurements, resets, or classically-conditioned gates.
    pub fn new(
        dd: &mut DdPackage,
        left: &QuantumCircuit,
        right: &QuantumCircuit,
    ) -> Result<Self, VerifyError> {
        let (lflat, rflat) = flatten(left, right)?;
        let n = left.num_qubits();
        let identity = dd.identity(n)?;
        Ok(AlternatingCheck {
            n,
            gates: [count_gates(&lflat), count_gates(&rflat)],
            circuits: [lflat, rflat],
            cursors: [0, 0],
            applied: [0, 0],
            identity,
            matrix: identity,
            trace: vec![dd.mat_node_count(identity)],
            group_open: false,
        })
    }

    /// The working diagram `G'†·G` of everything applied so far.
    pub fn matrix(&self) -> MatEdge {
        self.matrix
    }

    /// Peak node count so far (Example 12's metric).
    pub fn peak_nodes(&self) -> usize {
        self.trace.iter().copied().max().unwrap_or(0)
    }

    /// `(left, right)` gates applied so far.
    pub fn applied(&self) -> (usize, usize) {
        (self.applied[0], self.applied[1])
    }

    /// `true` once every gate of both circuits is applied.
    pub fn is_finished(&self) -> bool {
        self.applied == self.gates
    }

    /// Passes the barrier at `side`'s position, if there is one, and
    /// returns whether it did.
    pub fn pass_barrier(&mut self, side: Side) -> bool {
        let s = side as usize;
        let at_barrier = matches!(self.circuits[s].get(self.cursors[s]), Some(Flat::Barrier));
        if at_barrier {
            self.cursors[s] += 1;
        }
        at_barrier
    }

    /// Applies the next gate of `side`, passing any barriers before it, and
    /// returns it; `None` once that side is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates package errors (resource budgets, deadlines).
    pub fn apply(
        &mut self,
        dd: &mut DdPackage,
        side: Side,
    ) -> Result<Option<&GateApplication>, VerifyError> {
        while self.pass_barrier(side) {}
        let Some(gate) = self.gate_at(side) else {
            return Ok(None);
        };
        let m = with_pressure_retry(dd, self.matrix, |dd| self.multiply(dd, side, gate))?;
        Ok(Some(self.adopt(dd, side, m)))
    }

    /// Applies the next gate `strategy` schedules and returns its side and
    /// the gate; `None` once both circuits are exhausted.
    ///
    /// [`Strategy::Construction`] schedules all of `G`, then all of `G'`.
    ///
    /// # Errors
    ///
    /// Propagates package errors (resource budgets, deadlines).
    pub fn step(
        &mut self,
        dd: &mut DdPackage,
        strategy: Strategy,
    ) -> Result<Option<(Side, &GateApplication)>, VerifyError> {
        let [i, j] = self.applied;
        let [m1, m2] = self.gates;
        let (left, right) = (i < m1, j < m2);
        if !left && !right {
            return Ok(None);
        }
        let side = match strategy {
            Strategy::Lookahead if left && right => return self.apply_smaller(dd).map(Some),
            Strategy::OneToOne if right && (!left || i > j) => Side::Right,
            // Keep the applied fractions level: a left gate, then right
            // gates until j/m2 catches up with i/m1.
            Strategy::Proportional if right && (!left || j * m1 < i * m2) => Side::Right,
            Strategy::BarrierGuided if self.continues_group(right) => Side::Right,
            _ if left => Side::Left,
            _ => Side::Right,
        };
        if strategy == Strategy::BarrierGuided && side == Side::Left {
            self.group_open = true;
        }
        Ok(self.apply(dd, side)?.map(|gate| (side, gate)))
    }

    /// Barrier-guided (Example 12): whether the right circuit's next gate
    /// belongs to the group the last left gate opened, which runs up to
    /// and including the next barrier. Passing that barrier, or running
    /// out of right gates, closes the group.
    fn continues_group(&mut self, right: bool) -> bool {
        self.group_open = self.group_open && !self.pass_barrier(Side::Right) && right;
        self.group_open
    }

    /// Lookahead: multiplies the next gate of each side onto the working
    /// diagram and keeps the smaller product (the left one on a tie).
    fn apply_smaller(
        &mut self,
        dd: &mut DdPackage,
    ) -> Result<(Side, &GateApplication), VerifyError> {
        while self.pass_barrier(Side::Left) {}
        while self.pass_barrier(Side::Right) {}
        let (Some(lgate), Some(rgate)) = (self.gate_at(Side::Left), self.gate_at(Side::Right))
        else {
            unreachable!("both sides have gates left");
        };
        let (side, m) = with_pressure_retry(dd, self.matrix, |dd| {
            let left = self.multiply(dd, Side::Left, lgate)?;
            let right = self.multiply(dd, Side::Right, rgate)?;
            Ok(if dd.mat_node_count(left) <= dd.mat_node_count(right) {
                (Side::Left, left)
            } else {
                (Side::Right, right)
            })
        })?;
        Ok((side, self.adopt(dd, side, m)))
    }

    /// The gate at `side`'s position, if no barrier or end is there.
    fn gate_at(&self, side: Side) -> Option<&GateApplication> {
        let s = side as usize;
        self.circuits[s].get(self.cursors[s]).and_then(Flat::gate)
    }

    /// `U·M` for a left gate `U`, `M·V†` for a right gate `V`.
    fn multiply(
        &self,
        dd: &mut DdPackage,
        side: Side,
        g: &GateApplication,
    ) -> Result<MatEdge, DdError> {
        let gate = match side {
            Side::Left => g.gate,
            Side::Right => g.gate.inverse(),
        };
        let u = dd.gate_dd(gate.matrix(), &g.controls, g.target, self.n)?;
        Ok(match side {
            Side::Left => dd.mat_mat(u, self.matrix)?,
            Side::Right => dd.mat_mat(self.matrix, u)?,
        })
    }

    /// Makes `m`, the product with the gate at `side`'s position, the
    /// working diagram, then collects garbage if the package asks for it.
    fn adopt(&mut self, dd: &mut DdPackage, side: Side, m: MatEdge) -> &GateApplication {
        let s = side as usize;
        self.matrix = m;
        self.trace.push(dd.mat_node_count(m));
        maybe_gc(dd, m);
        self.applied[s] += 1;
        self.cursors[s] += 1;
        self.circuits[s][self.cursors[s] - 1]
            .gate()
            .expect("a gate was there")
    }

    /// The verdict on the gates applied so far: is the working diagram
    /// the identity, possibly times a global phase — the tool's green
    /// light?
    pub fn verdict(&self, dd: &DdPackage) -> Equivalence {
        if self.matrix == self.identity {
            return Equivalence::Equivalent;
        }
        if self.matrix.node == self.identity.node {
            let w = dd.complex_value(self.matrix.weight);
            if (w.abs() - 1.0).abs() < 1e-9 {
                return Equivalence::EquivalentUpToGlobalPhase { phase: w.arg() };
            }
        }
        Equivalence::NotEquivalent
    }

    /// The report of the check as run under `strategy`, with a deviating
    /// matrix entry if the verdict is [`Equivalence::NotEquivalent`].
    pub fn into_report(self, dd: &DdPackage, strategy: Strategy) -> EquivalenceReport {
        let result = self.verdict(dd);
        EquivalenceReport {
            result,
            strategy,
            peak_nodes: self.peak_nodes(),
            applied_left: self.applied[0],
            applied_right: self.applied[1],
            counterexample: if result == Equivalence::NotEquivalent {
                counterexample(dd, self.matrix)
            } else {
                None
            },
            nodes_per_step: self.trace,
        }
    }
}
