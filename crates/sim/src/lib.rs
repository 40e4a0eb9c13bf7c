//! Quantum-circuit simulation on decision diagrams (paper §III-B / §IV-B).
//!
//! * [`DdSimulator`] is the engine: consecutive matrix–vector products,
//!   seeded measurement and reset, classical bits, and a degradation
//!   ladder under resource budgets. Every operation goes through its one
//!   op path.
//! * [`SteppableSimulation`] is the paper tool's interactive session over
//!   a `DdSimulator`: step forward and back, run to the next barrier, and
//!   measurement/reset **choice dialogs**. A dialog resolved with the
//!   engine's draw takes the batch run's outcome.
//! * [`shots`] runs many shots of a circuit on worker-owned simulators.
//! * [`DenseSimulator`] is the exponential state-vector baseline the
//!   paper's compactness argument is made against, and the oracle the
//!   tests check the engine with.
//!
//! # Examples
//!
//! Simulate the paper's Bell circuit and sample it:
//!
//! ```
//! use qdd_circuit::library;
//! use qdd_sim::DdSimulator;
//!
//! # fn main() -> Result<(), qdd_sim::SimError> {
//! let mut sim = DdSimulator::with_seed(library::bell(), 7);
//! sim.run()?;
//! let counts = sim.sample(1000);
//! // Only |00⟩ and |11⟩ appear (entanglement, paper Example 2).
//! assert!(counts.keys().all(|&k| k == 0b00 || k == 0b11));
//! # Ok(())
//! # }
//! ```

mod dense;
mod error;
pub mod shots;
mod simulator;
mod stepper;

pub use dense::{DenseSimulator, MAX_DENSE_QUBITS};
pub use error::SimError;
pub use shots::{shot_seed, HistogramKind, ShotOptions, ShotReport};
pub use simulator::{DdSimulator, SimStats};
pub use stepper::{ChoiceKind, PendingChoice, StepOutcome, SteppableSimulation};

/// Resolves a user-facing thread-count option: `0` means one worker per
/// available CPU, anything else is taken literally (minimum 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Computes the value of a classical register from the global bit array.
///
/// Bit `i` of the result is the register's `i`-th bit (little-endian within
/// the register), matching OpenQASM `if (c == k)` semantics.
pub fn creg_value(bits: &[bool], offset: usize, size: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..size {
        if bits[offset + i] {
            v |= 1 << i;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::creg_value;

    #[test]
    fn creg_value_is_little_endian_within_register() {
        let bits = [true, false, true, true];
        assert_eq!(creg_value(&bits, 0, 4), 0b1101);
        assert_eq!(creg_value(&bits, 2, 2), 0b11);
        assert_eq!(creg_value(&bits, 1, 1), 0);
    }
}
