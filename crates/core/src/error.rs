//! Error type for fallible package operations.

use std::error::Error;
use std::fmt;

/// Which budget a [`DdError::ResourceExhausted`] error refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResourceKind {
    /// Live decision-diagram nodes ([`Limits::max_nodes`](crate::Limits::max_nodes)).
    Nodes,
    /// Interned complex values ([`Limits::max_complex_entries`](crate::Limits::max_complex_entries)).
    ComplexEntries,
}

impl ResourceKind {
    /// The [`Limits`](crate::Limits) field that configures this budget —
    /// so an exhaustion message tells the user which knob to turn.
    pub fn limit_name(&self) -> &'static str {
        match self {
            ResourceKind::Nodes => "max_nodes",
            ResourceKind::ComplexEntries => "max_complex_entries",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::Nodes => "node budget",
            ResourceKind::ComplexEntries => "complex-table budget",
        })
    }
}

/// Errors returned by the public, user-input-driven package API.
///
/// Internal invariant violations (malformed diagrams produced by the package
/// itself) are bugs and panic instead.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DdError {
    /// Requested qubit count exceeds [`MAX_QUBITS`](crate::MAX_QUBITS) or is zero.
    QubitCountOutOfRange {
        /// The rejected count.
        requested: usize,
    },
    /// A qubit index was not below the declared register size.
    QubitIndexOutOfRange {
        /// The rejected index.
        qubit: usize,
        /// The register size.
        num_qubits: usize,
    },
    /// A control qubit coincided with the gate target.
    ControlOnTarget {
        /// The offending qubit.
        qubit: usize,
    },
    /// The same qubit appeared twice in a control list.
    DuplicateControl {
        /// The offending qubit.
        qubit: usize,
    },
    /// An amplitude slice whose length is not a power of two.
    AmplitudesNotPowerOfTwo {
        /// The rejected length.
        len: usize,
    },
    /// A state vector with (near-)zero norm.
    ZeroVector,
    /// A gate matrix that is not unitary within tolerance.
    NotUnitary,
    /// A measurement/collapse on an outcome of probability ~0.
    ImpossibleOutcome {
        /// The qubit being measured.
        qubit: usize,
        /// The requested outcome.
        outcome: bool,
    },
    /// A configured resource budget ([`Limits`](crate::Limits)) was exhausted
    /// even after garbage collection under pressure.
    ResourceExhausted {
        /// The budget that ran out.
        kind: ResourceKind,
        /// The configured limit.
        limit: usize,
        /// Usage observed when the limit was hit (≥ `limit`).
        used: usize,
    },
    /// The armed wall-clock deadline expired mid-operation.
    DeadlineExceeded {
        /// Milliseconds past the deadline when the overrun was noticed.
        excess_ms: u64,
    },
}

impl DdError {
    /// True for errors caused by a configured resource budget or deadline
    /// (as opposed to invalid input). Drivers use this to pick exit codes
    /// and decide whether degradation (GC, approximation) may help.
    pub fn is_resource(&self) -> bool {
        matches!(
            self,
            DdError::ResourceExhausted { .. } | DdError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for DdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdError::QubitCountOutOfRange { requested } => {
                write!(f, "qubit count {requested} out of range 1..={}", crate::MAX_QUBITS)
            }
            DdError::QubitIndexOutOfRange { qubit, num_qubits } => {
                write!(f, "qubit index {qubit} out of range for {num_qubits}-qubit register")
            }
            DdError::ControlOnTarget { qubit } => {
                write!(f, "control qubit {qubit} coincides with gate target")
            }
            DdError::DuplicateControl { qubit } => {
                write!(f, "qubit {qubit} appears twice in the control list")
            }
            DdError::AmplitudesNotPowerOfTwo { len } => {
                write!(f, "amplitude vector length {len} is not a power of two")
            }
            DdError::ZeroVector => write!(f, "state vector has zero norm"),
            DdError::NotUnitary => write!(f, "gate matrix is not unitary"),
            DdError::ImpossibleOutcome { qubit, outcome } => {
                write!(
                    f,
                    "qubit {qubit} has probability 0 of outcome |{}⟩",
                    u8::from(*outcome)
                )
            }
            DdError::ResourceExhausted { kind, limit, used } => {
                write!(
                    f,
                    "{kind} exhausted: {used} used, configured limit {} = {limit}",
                    kind.limit_name()
                )
            }
            DdError::DeadlineExceeded { excess_ms } => {
                write!(f, "deadline exceeded by {excess_ms} ms")
            }
        }
    }
}

impl Error for DdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = DdError::QubitIndexOutOfRange {
            qubit: 5,
            num_qubits: 3,
        };
        assert_eq!(
            e.to_string(),
            "qubit index 5 out of range for 3-qubit register"
        );
        assert!(DdError::ZeroVector.to_string().contains("zero norm"));
    }

    #[test]
    fn resource_errors_display_and_classify() {
        let e = DdError::ResourceExhausted {
            kind: ResourceKind::Nodes,
            limit: 10_000,
            used: 10_001,
        };
        assert_eq!(
            e.to_string(),
            "node budget exhausted: 10001 used, configured limit max_nodes = 10000"
        );
        assert!(e.is_resource());
        // Every kind names the Limits field that configures it.
        for (kind, name) in [
            (ResourceKind::Nodes, "max_nodes"),
            (ResourceKind::ComplexEntries, "max_complex_entries"),
        ] {
            assert_eq!(kind.limit_name(), name);
            let msg = DdError::ResourceExhausted { kind, limit: 1, used: 2 }.to_string();
            assert!(msg.contains(name), "{msg:?} lacks {name}");
        }
        let d = DdError::DeadlineExceeded { excess_ms: 7 };
        assert_eq!(d.to_string(), "deadline exceeded by 7 ms");
        assert!(d.is_resource());
        assert!(!DdError::ZeroVector.is_resource());
        assert!(!DdError::NotUnitary.is_resource());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<DdError>();
    }
}
