//! Decision diagrams for quantum computing.
//!
//! This crate is a from-scratch Rust implementation of the decision-diagram
//! package described in *Visualizing Decision Diagrams for Quantum Computing*
//! (Wille, Burgholzer, Artner, DATE 2021) and the papers it builds on:
//! QMDD-style diagrams (Niemann et al.), interned complex edge weights
//! (Zulehner, Hillmich, Wille, ICCAD 2019) and stochastic single-path
//! measurement (Hillmich, Markov, Wille, DAC 2020).
//!
//! # Data structure
//!
//! * A **vector DD** represents a `2ⁿ` state vector. Each node is labelled
//!   with a qubit and has two successor edges (qubit in `|0⟩` / `|1⟩`);
//!   amplitudes are products of edge weights along root→terminal paths.
//! * A **matrix DD** represents a `2ⁿ×2ⁿ` operator. Each node has four
//!   successors, one per `U_{ij}` sub-matrix block.
//!
//! Nodes live in arenas inside a [`DdPackage`] and are deduplicated through
//! unique tables; edge weights are interned in a
//! [`ComplexTable`](qdd_complex::ComplexTable). Together with deterministic
//! normalization this makes the diagrams **canonical**: two circuits are
//! equivalent iff their matrix DDs are the *same edge* —
//! the property the paper's verification scheme relies on. Vector nodes
//! are L2-normalized, so squared local weights are measurement
//! probabilities (paper footnote 3): measurement and sampling are single
//! root→terminal walks.
//!
//! # Errors
//!
//! Every DD operation — `add_vec`/`add_mat`, `mat_vec`/`mat_mat`,
//! `kron_vec`/`kron_mat`, `adjoint_mat`, `inner_product` and the node
//! constructors `make_vec_node`/`make_mat_node` — has one public form
//! returning `Result<_, DdError>`. Under a [`Limits`] budget an operation
//! that runs out returns [`DdError::ResourceExhausted`] or
//! [`DdError::DeadlineExceeded`]; it never panics. With the default,
//! unlimited limits no budget applies.
//!
//! # Example
//!
//! Build the Bell state of the paper's Example 1/5 and inspect it:
//!
//! ```
//! use qdd_core::{DdPackage, gates};
//!
//! # fn main() -> Result<(), qdd_core::DdError> {
//! let mut dd = DdPackage::new();
//! let zero = dd.zero_state(2)?;             // |00⟩
//! let h = dd.gate_dd(gates::H, &[], 1, 2)?; // H on the most-significant qubit
//! let cx = dd.gate_dd(gates::X, &[qdd_core::Control::pos(1)], 0, 2)?;
//! let state = dd.mat_vec(h, zero)?;
//! let bell = dd.mat_vec(cx, state)?;
//! // 1/√2 |00⟩ + 1/√2 |11⟩, a 2-node diagram (Fig. 2(a) of the paper):
//! assert_eq!(dd.vec_node_count(bell), 3); // paper counts 3 incl. both q0 nodes
//! let amps = dd.to_dense_vector(bell, 2);
//! assert!((amps[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
//! assert!((amps[3].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod approx;
mod cachekey;
mod compute;
mod error;
mod export;
pub mod gates;
pub mod graph;
mod limits;
mod measure;
mod node;
mod normalize;
mod observable;
mod ops;
mod package;
mod sample;
mod serialize;
mod traverse;
mod types;

pub use approx::ApproxReport;
pub use cachekey::fnv1a_64;
pub use compute::ComputeTableStat;
pub use error::{DdError, ResourceKind};
pub use gates::{Control, GateMatrix, Polarity};
pub use limits::{Limits, DEFAULT_AUTO_GC_THRESHOLD, DEFAULT_COMPLEX_GC_THRESHOLD};
pub use measure::MeasurementOutcome;
pub use node::{MNode, Node, VNode};
pub use observable::{ParsePauliError, Pauli, PauliString};
pub use package::{DdPackage, GcReport, PackageConfig, PackageStats};
pub use sample::SamplingTableau;
pub use serialize::SerializeError;
pub use traverse::Traversable;
pub use types::{Edge, MatEdge, MNodeId, NodeId, Qubit, VecEdge, VNodeId};

/// Maximum number of qubits a single package supports.
///
/// Bounded by the `u8` variable labels plus headroom for sentinel values.
pub const MAX_QUBITS: usize = 128;
