//! Equivalence checking of quantum circuits with decision diagrams
//! (paper §III-C / §IV-C).
//!
//! Two circuits are equivalent iff their system matrices agree. Because
//! canonical decision diagrams make that comparison a root-edge check, two
//! verification routes open up:
//!
//! * **Construction** ([`Strategy::Construction`]): build both system
//!   matrices by multiplying gate DDs (Example 10/11) and compare the
//!   canonical edges.
//! * **Alternating** (the advanced scheme of paper ref \[20\] and
//!   Example 12): drive `G'† · G` toward the identity by interleaving
//!   gates from `G` (left multiplications) with inverted gates from `G'`
//!   (right multiplications). When the interleaving order is chosen well,
//!   the working diagram stays near the identity the whole time — the
//!   paper's 9-nodes-instead-of-21 observation. Orders implemented:
//!   [`Strategy::OneToOne`], [`Strategy::Proportional`],
//!   [`Strategy::BarrierGuided`] (exactly Example 12's "apply one gate
//!   from (a), then gates from (b) up to the next barrier"), and
//!   [`Strategy::Lookahead`]. [`AlternatingCheck`] runs the scheme one
//!   gate at a time; [`EquivalenceChecker::check`] drives it to the end,
//!   and the tool's verification tab steps it gate by gate.
//!
//! # Examples
//!
//! Verify the paper's QFT compilation (Fig. 5):
//!
//! ```
//! use qdd_circuit::{compile, library};
//! use qdd_verify::{Equivalence, EquivalenceChecker, Strategy};
//!
//! # fn main() -> Result<(), qdd_verify::VerifyError> {
//! let qft = library::qft(3, true);
//! let compiled = compile::compiled_qft(3);
//! let mut checker = EquivalenceChecker::new();
//! let report = checker.check(&qft, &compiled, Strategy::Proportional)?;
//! assert_eq!(report.result, Equivalence::Equivalent);
//! # Ok(())
//! # }
//! ```

mod alternating;
mod checker;
mod error;
mod result;
mod stimuli;

pub use alternating::{AlternatingCheck, Side};
pub use checker::EquivalenceChecker;
pub use error::VerifyError;
pub use result::{Equivalence, EquivalenceReport, Strategy};
pub use stimuli::{simulate_equivalence, StimuliReport};
