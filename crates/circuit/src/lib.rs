//! Quantum circuits: representation, parsing, generation, compilation.
//!
//! This crate provides the circuit substrate of the reproduced paper's tool:
//!
//! * [`QuantumCircuit`] — an in-memory circuit with gates, arbitrary
//!   (negative) controls, barriers, measurements, resets and
//!   classically-controlled operations;
//! * [`qasm`] — an OpenQASM 2.0 parser covering the `qelib1` gate set,
//!   user-defined gates, `barrier`, `measure`, `reset` and `if`-conditions
//!   (the tool's first input format);
//! * [`real`] — a RevLib `.real` parser for reversible circuits (the tool's
//!   second input format);
//! * [`library`] — generators for the algorithms the paper discusses (QFT,
//!   Bell/GHZ preparation, Grover, …);
//! * [`compile`] — the decompositions the paper applies in Fig. 5(b):
//!   SWAP → 3 CNOT and controlled-phase → `{P, CNOT}`;
//! * [`optimize`] — peephole passes (inverse-pair cancellation, phase
//!   merging) whose output the equivalence checker can re-verify.
//!
//! # Examples
//!
//! The paper's Fig. 1(c) circuit:
//!
//! ```
//! use qdd_circuit::QuantumCircuit;
//!
//! let mut g = QuantumCircuit::new(2);
//! g.h(1);
//! g.cx(1, 0);
//! assert_eq!(g.gate_count(), 2);
//! let qasm = g.to_qasm();
//! let reparsed = qdd_circuit::qasm::parse(&qasm).unwrap();
//! assert_eq!(reparsed.gate_count(), 2);
//! ```

pub mod compile;
pub mod optimize;
mod analysis;
mod circuit;
mod error;
mod gate;
pub mod library;
mod op;
pub mod qasm;
pub mod real;

pub use analysis::{MeasurementAnalysis, MeasurementRegime};
pub use circuit::{ClassicalRegister, QuantumCircuit, QuantumRegister};
pub use error::CircuitError;
pub use gate::StandardGate;
pub use op::{swap_gates, Condition, GateApplication, Operation};

// Re-export the control types: they are shared vocabulary with the DD layer.
pub use qdd_core::{Control, Polarity};
