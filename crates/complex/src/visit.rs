//! Epoch-stamped visited sets for allocation-free graph traversals.
//!
//! A decision-diagram walk needs a "have I seen this arena slot?" set, and
//! drivers run such walks per simulation step — so the set must not allocate
//! or rehash on the hot path. The trick: one `u32` stamp per slot and a
//! traversal epoch. A slot is *visited in this traversal* iff its stamp
//! equals the current epoch; bumping the epoch resets the whole set in O(1).
//!
//! [`VisitSet::begin`] owns the epoch bump, the lazy resize, and the
//! wrap-around refill, so a traversal that goes through it cannot observe
//! stale marks from an earlier walk — the reset-between-traversals hazard is
//! impossible by construction rather than by caller discipline.

/// An epoch-stamped membership set over dense `usize` keys (arena slots).
#[derive(Clone, Debug, Default)]
pub struct VisitSet {
    /// Per-slot stamp; the slot is visited iff `stamp[i] == epoch`.
    stamp: Vec<u32>,
    /// Current traversal epoch. `0` never marks anything (slots start at 0),
    /// so a fresh set is empty without initialization.
    epoch: u32,
}

impl VisitSet {
    /// Starts a new traversal over slots `0..len`: grows the stamp array if
    /// the arena grew, handles epoch wrap-around, and bumps the epoch so
    /// every slot reads as unvisited.
    pub fn begin(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks slot `i` visited. Returns `true` if it was unvisited (first
    /// visit this traversal), `false` if already marked.
    #[inline]
    pub fn visit(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }

    /// Whether slot `i` is marked in the current traversal (without
    /// marking it).
    #[inline]
    pub fn seen(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

/// Reusable traversal state: a [`VisitSet`] plus a worklist vector, bundled
/// so a walker borrows both with one `RefCell` borrow.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    /// The visited set.
    pub set: VisitSet,
    /// Reusable DFS stack / BFS queue of raw arena slots.
    pub stack: Vec<u32>,
}

impl WalkScratch {
    /// Starts a new traversal: bumps the epoch (see [`VisitSet::begin`])
    /// and clears the worklist.
    pub fn begin(&mut self, len: usize) {
        self.set.begin(len);
        self.stack.clear();
    }
}

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// A pool of [`WalkScratch`] buffers owned by one node store.
///
/// [`Self::acquire`] pops a warm buffer (or allocates a fresh one on first
/// use / under nesting) and the [`ScratchGuard`] returns it on drop, so
/// steady-state walks stay allocation-free and a walk nested inside another
/// walk of the same store gets its own buffer. The `RefCell` is borrowed
/// only inside `acquire` and `drop`, never across a walk.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: RefCell<Vec<WalkScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a scratch buffer out of the pool.
    pub fn acquire(&self) -> ScratchGuard<'_> {
        let scratch = self.pool.borrow_mut().pop().unwrap_or_default();
        ScratchGuard { pool: self, scratch: Some(scratch) }
    }
}

impl Clone for ScratchPool {
    /// Clones as an empty pool — scratch buffers are transient caches, not
    /// state.
    fn clone(&self) -> Self {
        Self::new()
    }
}

/// An exclusively-owned [`WalkScratch`] checked out of a [`ScratchPool`];
/// returned to the pool on drop.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    scratch: Option<WalkScratch>,
}

impl Deref for ScratchGuard<'_> {
    type Target = WalkScratch;
    #[inline]
    fn deref(&self) -> &WalkScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut WalkScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool.pool.borrow_mut().push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_is_empty() {
        let mut vs = VisitSet::default();
        vs.begin(4);
        assert!(!vs.seen(0));
        assert!(vs.visit(0));
        assert!(!vs.visit(0));
        assert!(vs.seen(0));
    }

    #[test]
    fn begin_resets_in_constant_time() {
        let mut vs = VisitSet::default();
        vs.begin(3);
        assert!(vs.visit(1));
        vs.begin(3);
        assert!(!vs.seen(1), "epoch bump must clear earlier marks");
        assert!(vs.visit(1));
    }

    #[test]
    fn begin_grows_with_the_arena() {
        let mut vs = VisitSet::default();
        vs.begin(2);
        vs.visit(1);
        vs.begin(8);
        assert!(vs.visit(7));
    }

    #[test]
    fn epoch_wraparound_refills() {
        let mut vs = VisitSet::default();
        vs.begin(2);
        vs.visit(0);
        // Force the wrap-around path.
        vs.epoch = u32::MAX;
        vs.begin(2);
        assert!(!vs.seen(0));
        assert!(vs.visit(0));
    }

    #[test]
    fn scratch_clears_worklist() {
        let mut s = WalkScratch::default();
        s.stack.push(7);
        s.begin(1);
        assert!(s.stack.is_empty());
        assert!(s.set.visit(0));
    }

    #[test]
    fn pool_reuses_returned_buffers() {
        let pool = ScratchPool::new();
        let warmed = {
            let mut g = pool.acquire();
            g.begin(100);
            g.set.visit(42);
            g.stack.capacity()
        };
        let _ = warmed;
        // The returned buffer comes back warm (stamp array already sized).
        let mut g2 = pool.acquire();
        g2.begin(100);
        assert!(!g2.set.seen(42), "epoch bump isolates traversals");
    }

    #[test]
    fn pool_supports_nested_acquires() {
        let pool = ScratchPool::new();
        let mut outer = pool.acquire();
        outer.begin(4);
        outer.set.visit(1);
        {
            let mut inner = pool.acquire();
            inner.begin(4);
            assert!(inner.set.visit(1), "nested walk has independent state");
        }
        assert!(outer.set.seen(1));
    }
}
