//! Resource limits and the governor that enforces them.
//!
//! A worst-case (non-compact) quantum state has an exponentially large
//! decision diagram; driven interactively or by untrusted circuit files, the
//! package must fail *gracefully* — bounded memory, bounded time, structured
//! errors — instead of exhausting the host. [`Limits`] declares the budgets;
//! the package enforces them at two chokepoints:
//!
//! 1. **Node allocation** (`make_vec_node` / `make_mat_node`): a new
//!    unique-table entry is refused once the live-node estimate reaches
//!    [`Limits::max_nodes`], and complex-weight interning growth is checked
//!    against [`Limits::max_complex_entries`].
//! 2. **Recursive operation entry** (`add`/`multiply`/`kron`/`inner`/
//!    `adjoint`): every 256th entry compares the armed
//!    [`Limits::deadline`] against the clock.
//!
//! Recursion depth needs no budget of its own: it is the qubit count, which
//! the QASM parser and `zero_state` cap at [`MAX_QUBITS`](crate::MAX_QUBITS).
//! Compute tables need none either: each is a fixed slot array in which a
//! colliding insert overwrites the one entry in its slot (counted in
//! `PackageStats::compute_evictions`).
//!
//! Every public DD operation returns the resulting [`DdError`] to its
//! caller; none panics when a budget runs out. All limits default to
//! *unlimited*; a default-configured package behaves byte-identically to
//! one without the governor.

use std::time::{Duration, Instant};

use crate::error::DdError;

/// Live-node estimate beyond which long-running drivers (simulator,
/// equivalence checker) garbage-collect between operations when no explicit
/// threshold is configured.
pub const DEFAULT_AUTO_GC_THRESHOLD: usize = 2_000_000;

/// Complex-table entry count beyond which long-running drivers
/// garbage-collect between operations. Chosen so the interning probe index
/// (a few dozen bytes per entry) stays within the last-level cache; larger
/// tables make every fresh amplitude a string of DRAM misses.
pub const DEFAULT_COMPLEX_GC_THRESHOLD: usize = 1 << 15;

/// Resource budgets of a package. All optional; `None` means unlimited.
///
/// Construct with struct-update syntax:
///
/// ```
/// use qdd_core::Limits;
/// let limits = Limits { max_nodes: Some(10_000), ..Limits::default() };
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Limits {
    /// Ceiling on live decision-diagram nodes (vector + matrix). Exceeding
    /// it makes node construction return [`DdError::ResourceExhausted`]
    /// with [`ResourceKind::Nodes`](crate::ResourceKind::Nodes).
    pub max_nodes: Option<usize>,
    /// Ceiling on distinct interned complex values.
    pub max_complex_entries: Option<usize>,
    /// Wall-clock budget for governed work. The clock starts when a driver
    /// arms it (`DdPackage::arm_deadline`); once elapsed, governed
    /// operations return [`DdError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Live-node estimate at which long-running drivers auto-GC between
    /// operations (previously a hardcoded constant in the simulator).
    pub auto_gc_threshold: usize,
    /// Complex-table size at which long-running drivers auto-GC between
    /// operations. Dense workloads intern a fresh batch of amplitudes per
    /// gate; past this point the interning index has outgrown the CPU
    /// caches and a collection pays for itself.
    pub complex_gc_threshold: usize,
    /// Minimum acceptable state fidelity for approximation-based
    /// degradation. `Some(f)` authorizes drivers to prune the state when a
    /// hard budget trips, as long as the *cumulative* fidelity lower bound
    /// across all pruning rounds stays ≥ `f`. `None` (the default) disables
    /// the approximation rung entirely. Inert on its own — it only changes
    /// behavior once another budget (nodes, complex entries) applies
    /// pressure — so it does not affect [`Limits::is_unlimited`].
    pub min_fidelity: Option<f64>,
    /// Which of the paper's two approximation strategies the degradation
    /// rung uses when [`Limits::min_fidelity`] is set.
    pub approx_policy: ApproxPolicy,
}

/// Approximation strategy for the fidelity-bounded degradation rung
/// (arXiv 2002.04904 implements both).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub enum ApproxPolicy {
    /// One-shot fidelity-budget pruning: remove the cheapest subtrees until
    /// the removed `|amplitude|²` mass reaches the round's fidelity budget.
    /// The default; spends exactly as much fidelity as shrinking requires.
    #[default]
    FidelityBudget,
    /// Threshold contraction: zero every edge whose contribution falls
    /// below `epsilon`. Cheaper per pass but spends fidelity eagerly; a
    /// round whose bound lands below the remaining budget is rejected.
    Threshold {
        /// Contribution cutoff in `|amplitude|²` mass; edges routing less
        /// probability than this are zeroed.
        epsilon: f64,
    },
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_nodes: None,
            max_complex_entries: None,
            deadline: None,
            auto_gc_threshold: DEFAULT_AUTO_GC_THRESHOLD,
            complex_gc_threshold: DEFAULT_COMPLEX_GC_THRESHOLD,
            min_fidelity: None,
            approx_policy: ApproxPolicy::FidelityBudget,
        }
    }
}

impl Limits {
    /// True when no limit is set (the default): the governor is inert and
    /// every fast path stays on its pre-governor behavior.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none() && self.max_complex_entries.is_none() && self.deadline.is_none()
    }
}

/// How often (in governed recursion entries) the armed deadline is compared
/// against the clock. Checking every entry would put an `Instant::now()` in
/// the hot recursion; every 256th keeps overhead negligible while bounding
/// overshoot to microseconds.
const DEADLINE_CHECK_INTERVAL: u32 = 256;

/// Mutable governor state owned by the package: the armed deadline and the
/// pressure counters surfaced through `PackageStats`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Governor {
    /// Absolute deadline, armed by a driver from [`Limits::deadline`].
    deadline_at: Option<Instant>,
    /// Governed-entry counter used to pace deadline checks.
    tick: u32,
    /// Garbage collections triggered by budget pressure (as opposed to the
    /// routine auto-GC cadence).
    pub(crate) gc_pressure_runs: u64,
    /// High-water mark of the live-node estimate.
    pub(crate) peak_live_nodes: usize,
}

impl Governor {
    /// Arms the wall-clock deadline `budget` from now.
    pub(crate) fn arm(&mut self, budget: Duration) {
        self.deadline_at = Some(Instant::now() + budget);
        self.tick = 0;
    }

    /// Disarms any armed deadline.
    pub(crate) fn disarm(&mut self) {
        self.deadline_at = None;
    }

    pub(crate) fn armed(&self) -> bool {
        self.deadline_at.is_some()
    }

    /// Per-recursion-entry check: the armed deadline, every
    /// [`DEADLINE_CHECK_INTERVAL`] entries.
    #[inline]
    pub(crate) fn check(&mut self) -> Result<(), DdError> {
        if self.deadline_at.is_some() {
            self.tick = self.tick.wrapping_add(1);
            if self.tick.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                self.check_deadline_now()?;
            }
        }
        Ok(())
    }

    /// Immediate (un-paced) deadline check, for per-operation driver use.
    #[inline]
    pub(crate) fn check_deadline_now(&self) -> Result<(), DdError> {
        if let Some(at) = self.deadline_at {
            let now = Instant::now();
            if now >= at {
                return Err(DdError::DeadlineExceeded {
                    excess_ms: now.duration_since(at).as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let l = Limits::default();
        assert!(l.is_unlimited());
        assert_eq!(l.auto_gc_threshold, DEFAULT_AUTO_GC_THRESHOLD);
        assert_eq!(l.complex_gc_threshold, DEFAULT_COMPLEX_GC_THRESHOLD);
    }

    #[test]
    fn any_set_limit_is_not_unlimited() {
        for l in [
            Limits { max_nodes: Some(1), ..Limits::default() },
            Limits { max_complex_entries: Some(1), ..Limits::default() },
            Limits { deadline: Some(Duration::from_millis(1)), ..Limits::default() },
        ] {
            assert!(!l.is_unlimited());
        }
        // The GC threshold alone is a tuning knob, not a budget.
        let tuned = Limits { auto_gc_threshold: 10, ..Limits::default() };
        assert!(tuned.is_unlimited());
        // min_fidelity alone is inert: without a budget applying pressure,
        // the approximation rung never fires.
        let approx = Limits { min_fidelity: Some(0.9), ..Limits::default() };
        assert!(approx.is_unlimited());
    }

    #[test]
    fn governor_deadline_fires_after_arming() {
        let mut g = Governor::default();
        assert!(g.check_deadline_now().is_ok(), "unarmed deadline never fires");
        g.arm(Duration::ZERO);
        assert!(matches!(
            g.check_deadline_now(),
            Err(DdError::DeadlineExceeded { .. })
        ));
        g.disarm();
        assert!(g.check_deadline_now().is_ok());
    }

    #[test]
    fn paced_check_eventually_sees_deadline() {
        let mut g = Governor::default();
        g.arm(Duration::ZERO);
        let mut fired = false;
        for _ in 0..2 * DEADLINE_CHECK_INTERVAL {
            if g.check().is_err() {
                fired = true;
                break;
            }
        }
        assert!(fired, "paced deadline check must fire within one interval");
    }
}
