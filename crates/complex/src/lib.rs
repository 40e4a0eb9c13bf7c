//! Complex arithmetic and complex-number interning for quantum decision diagrams.
//!
//! Decision-diagram packages for quantum computing attach complex weights to
//! edges. Canonicity of the diagrams — the property that lets two circuits be
//! compared by a single root-pointer comparison — requires that numerically
//! equal weights are *identical* objects. This crate provides the two pieces
//! that make that work:
//!
//! * [`Complex`] — a plain `f64`-pair complex number with full arithmetic,
//!   polar helpers and tolerance-aware comparisons;
//! * [`ComplexTable`] — an interning table mapping values to stable
//!   [`ComplexIdx`] handles, with tolerance-bucketed lookup so values that
//!   differ only by floating-point noise collapse to one handle (the
//!   technique of Zulehner, Hillmich & Wille, *How to efficiently handle
//!   complex values? Implementing decision diagrams for quantum computing*,
//!   ICCAD 2019 — reference \[14\] of the reproduced paper).
//!
//! # Examples
//!
//! ```
//! use qdd_complex::{Complex, ComplexTable};
//!
//! let mut table = ComplexTable::new();
//! let a = table.lookup(Complex::new(0.5, -0.5));
//! // A value within tolerance interns to the same handle:
//! let b = table.lookup(Complex::new(0.5 + 1e-14, -0.5));
//! assert_eq!(a, b);
//! assert!((table.value(a) - Complex::new(0.5, -0.5)).abs() < 1e-12);
//! ```

mod complex;
mod hash;
mod table;
mod visit;

pub use complex::Complex;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use table::{ComplexIdx, ComplexTable, ComplexTableStats, C_ONE, C_ZERO};
pub use visit::{ScratchGuard, ScratchPool, VisitSet, WalkScratch};

/// Default tolerance used for interning and approximate comparisons.
///
/// Two forces pull in opposite directions:
///
/// * it must sit comfortably **above** accumulated floating-point noise
///   (~1e-16 per operation), so weights produced by different but
///   equivalent gate sequences (e.g. a textbook QFT vs. its compiled form)
///   collapse to the same interned value — the canonicity requirement;
/// * it must be **small**, because interning itself perturbs values by up
///   to the tolerance, and when that snapping noise is fed back through
///   arithmetic it produces values that straddle later merge windows. With
///   a coarse tolerance (say 1e-10) this feedback loop visibly *fragments*
///   structured diagrams: Grover diagrams beyond 13 qubits explode from
///   `2n` nodes into thousands, independent of how much further the
///   tolerance is widened.
///
/// `1e-13` (a few hundred ULPs at magnitude 1, the same scale the MQT DD
/// package uses) satisfies both in practice; the regression tests in
/// `qdd-sim` pin the compact-Grover behaviour.
pub const DEFAULT_TOLERANCE: f64 = 1e-13;

/// Returns `true` if `a` and `b` differ by at most `tol` in both components.
///
/// # Examples
///
/// ```
/// assert!(qdd_complex::approx_eq(1.0, 1.0 + 1e-12, 1e-10));
/// assert!(!qdd_complex::approx_eq(1.0, 1.1, 1e-10));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
