//! Simulation error type.

use qdd_core::DdError;
use std::error::Error;
use std::fmt;

/// Errors arising during simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying decision-diagram package rejected an operation.
    Dd(DdError),
    /// A measurement wrote to a classical bit outside the declared
    /// registers.
    BitOutOfRange {
        /// The rejected bit index.
        bit: usize,
        /// The number of declared bits.
        num_bits: usize,
    },
    /// A navigation or choice call that is invalid in the current session
    /// state (e.g. `choose` without a pending measurement).
    InvalidTransition {
        /// What went wrong.
        reason: &'static str,
    },
    /// Dense simulation requested for a register too large to materialize.
    TooLarge {
        /// Requested register size.
        num_qubits: usize,
        /// The maximum size the dense simulator accepts.
        max: usize,
    },
    /// A shot worker panicked. The coordinator contains the panic instead of
    /// aborting the process: remaining workers stop at the next shot
    /// boundary and partial telemetry already published still merges.
    WorkerPanicked {
        /// Index of the panicking worker (shot-range order).
        worker: usize,
        /// The panic payload, if it was a string (the common
        /// `panic!`/`expect` case); `"<non-string payload>"` otherwise.
        payload: String,
    },
    /// The job was cancelled through its cooperative cancel flag (e.g. a
    /// server dropped the request after the client disconnected).
    Cancelled,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Dd(e) => write!(f, "{e}"),
            SimError::BitOutOfRange { bit, num_bits } => {
                write!(f, "classical bit {bit} out of range for {num_bits} bits")
            }
            SimError::InvalidTransition { reason } => write!(f, "{reason}"),
            SimError::TooLarge { num_qubits, max } => {
                write!(f, "dense simulation of {num_qubits} qubits exceeds the {max}-qubit limit")
            }
            SimError::WorkerPanicked { worker, payload } => {
                write!(f, "shot worker {worker} panicked: {payload}")
            }
            SimError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Dd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DdError> for SimError {
    fn from(e: DdError) -> Self {
        SimError::Dd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_dd_error_with_source() {
        let e = SimError::from(DdError::ZeroVector);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("zero norm"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
