//! Circuit operations.

use crate::gate::StandardGate;
use qdd_core::Control;
use std::fmt;

/// A classical condition `creg == value` guarding an operation
/// (OpenQASM 2's `if (c == k) …`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Condition {
    /// Index of the classical register in the owning circuit.
    pub creg: usize,
    /// The value the register must hold for the operation to fire.
    pub value: u64,
}

/// A (controlled) single-qubit gate application.
#[derive(Clone, Debug, PartialEq)]
pub struct GateApplication {
    /// The local gate.
    pub gate: StandardGate,
    /// Control qubits (any polarity); empty for uncontrolled gates.
    pub controls: Vec<Control>,
    /// The target qubit.
    pub target: usize,
    /// Optional classical condition.
    pub condition: Option<Condition>,
}

impl GateApplication {
    /// An unconditioned gate application.
    pub fn new(gate: StandardGate, controls: Vec<Control>, target: usize) -> Self {
        GateApplication {
            gate,
            controls,
            target,
            condition: None,
        }
    }
}

/// One step of a quantum circuit.
///
/// The paper distinguishes *unitary* operations from *special* operations
/// (barrier, measurement, reset, classically-controlled gates) which the
/// tool treats as breakpoints (§IV-B); [`Operation::is_special`] encodes
/// exactly that classification.
#[derive(Clone, Debug, PartialEq)]
pub enum Operation {
    /// A (multi-controlled, possibly classically conditioned) gate.
    Gate(GateApplication),
    /// A (controlled) SWAP of two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
        /// Controls (Fredkin when non-empty).
        controls: Vec<Control>,
    },
    /// A breakpoint; no effect on the state.
    Barrier,
    /// Projective measurement of `qubit` into classical `bit`.
    Measure {
        /// The measured qubit.
        qubit: usize,
        /// Global classical bit receiving the outcome.
        bit: usize,
    },
    /// Discards `qubit` and re-initializes it to `|0⟩`.
    Reset {
        /// The reset qubit.
        qubit: usize,
    },
}

impl Operation {
    /// `true` for operations that do not correspond to a unitary matrix
    /// (measurement, reset) or that act as explicit breakpoints (barrier)
    /// or fire conditionally on classical bits — the tool's "special
    /// operations".
    pub fn is_special(&self) -> bool {
        match self {
            Operation::Gate(g) => g.condition.is_some(),
            Operation::Swap { .. } => false,
            Operation::Barrier | Operation::Measure { .. } | Operation::Reset { .. } => true,
        }
    }

    /// `true` if the operation is a plain unitary (appliable as a matrix).
    pub fn is_unitary(&self) -> bool {
        matches!(
            self,
            Operation::Gate(GateApplication { condition: None, .. }) | Operation::Swap { .. }
        )
    }

    /// All qubits the operation touches (targets then controls).
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Operation::Gate(g) => {
                let mut q = vec![g.target];
                q.extend(g.controls.iter().map(|c| c.qubit));
                q
            }
            Operation::Swap { a, b, controls } => {
                let mut q = vec![*a, *b];
                q.extend(controls.iter().map(|c| c.qubit));
                q
            }
            Operation::Barrier => Vec::new(),
            Operation::Measure { qubit, .. } | Operation::Reset { qubit } => vec![*qubit],
        }
    }

    /// The inverse operation, if the operation is unitary.
    pub fn inverse(&self) -> Option<Operation> {
        match self {
            Operation::Gate(g) if g.condition.is_none() => Some(Operation::Gate(GateApplication {
                gate: g.gate.inverse(),
                controls: g.controls.clone(),
                target: g.target,
                condition: None,
            })),
            Operation::Swap { a, b, controls } => Some(Operation::Swap {
                a: *a,
                b: *b,
                controls: controls.clone(),
            }),
            Operation::Barrier => Some(Operation::Barrier),
            _ => None,
        }
    }
}

/// The elementary gates of `Operation::Swap { a, b, controls }`:
/// `SWAP(a,b) = CX(a→b) · CX(b→a) · CX(a→b)`. A controlled swap (Fredkin)
/// only needs the middle CX controlled.
pub fn swap_gates(a: usize, b: usize, controls: &[Control]) -> [GateApplication; 3] {
    let outer = || GateApplication::new(StandardGate::X, vec![Control::pos(a)], b);
    let mut mid_controls = vec![Control::pos(b)];
    mid_controls.extend_from_slice(controls);
    [
        outer(),
        GateApplication::new(StandardGate::X, mid_controls, a),
        outer(),
    ]
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Gate(g) => {
                if let Some(c) = g.condition {
                    write!(f, "if(c{}=={}) ", c.creg, c.value)?;
                }
                write!(f, "{}", g.gate)?;
                for c in &g.controls {
                    let sign = match c.polarity {
                        qdd_core::Polarity::Positive => "",
                        qdd_core::Polarity::Negative => "!",
                    };
                    write!(f, " {sign}c:q{}", c.qubit)?;
                }
                write!(f, " q{}", g.target)
            }
            Operation::Swap { a, b, controls } => {
                write!(f, "swap q{a} q{b}")?;
                for c in controls {
                    write!(f, " c:q{}", c.qubit)?;
                }
                Ok(())
            }
            Operation::Barrier => write!(f, "barrier"),
            Operation::Measure { qubit, bit } => write!(f, "measure q{qubit} -> c[{bit}]"),
            Operation::Reset { qubit } => write!(f, "reset q{qubit}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_classification_follows_paper() {
        assert!(Operation::Barrier.is_special());
        assert!(Operation::Measure { qubit: 0, bit: 0 }.is_special());
        assert!(Operation::Reset { qubit: 1 }.is_special());
        let plain = Operation::Gate(GateApplication::new(StandardGate::H, vec![], 0));
        assert!(!plain.is_special());
        assert!(plain.is_unitary());
        let mut cond = GateApplication::new(StandardGate::X, vec![], 0);
        cond.condition = Some(Condition { creg: 0, value: 1 });
        assert!(Operation::Gate(cond).is_special());
    }

    #[test]
    fn swap_expands_to_three_cnots() {
        let seq = swap_gates(0, 2, &[]);
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|g| g.gate == StandardGate::X));
        assert_eq!(seq[0].target, 2);
        assert_eq!(seq[1].target, 0);
        assert_eq!(seq[2].target, 2);
    }

    #[test]
    fn fredkin_controls_only_middle_cnot() {
        let seq = swap_gates(0, 1, &[Control::pos(2)]);
        assert_eq!(seq[0].controls.len(), 1);
        assert_eq!(seq[1].controls.len(), 2);
        assert_eq!(seq[2].controls.len(), 1);
    }

    #[test]
    fn inverse_of_measure_is_none() {
        assert!(Operation::Measure { qubit: 0, bit: 0 }.inverse().is_none());
        assert!(Operation::Reset { qubit: 0 }.inverse().is_none());
        let g = Operation::Gate(GateApplication::new(StandardGate::S, vec![], 1));
        let inv = g.inverse().unwrap();
        match inv {
            Operation::Gate(g) => assert_eq!(g.gate, StandardGate::Sdg),
            _ => panic!("expected gate"),
        }
    }

    #[test]
    fn qubit_listing() {
        let g = Operation::Gate(GateApplication::new(
            StandardGate::X,
            vec![Control::pos(2), Control::neg(3)],
            1,
        ));
        assert_eq!(g.qubits(), vec![1, 2, 3]);
    }

    #[test]
    fn display_formats() {
        let g = Operation::Gate(GateApplication::new(
            StandardGate::X,
            vec![Control::pos(1)],
            0,
        ));
        assert_eq!(g.to_string(), "x c:q1 q0");
        assert_eq!(
            Operation::Measure { qubit: 2, bit: 0 }.to_string(),
            "measure q2 -> c[0]"
        );
    }
}
