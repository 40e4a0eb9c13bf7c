//! The arity-generic node store: one arena + unique table + free list +
//! traversal scratch pool, instantiated at `N = 2` (vector DDs) and `N = 4`
//! (matrix DDs), so allocation, refcounting, GC mark/sweep, node counting
//! and the warm mark exist exactly once.
//!
//! A store has a single owner: every mutation goes through `&mut self`, and
//! the package that owns it is `Send` but not `Sync`.

use crate::node::Node;
use crate::normalize::{normalize_matrix, normalize_vector, Normalized};
use crate::types::{Edge, NodeId, Qubit};
use qdd_complex::{ComplexIdx, ComplexTable, FxHashMap, FxHashSet, ScratchGuard, ScratchPool};

use super::DdPackage;

/// What [`NodeStore::reset_to_warm`] rewinds to.
#[derive(Clone, Debug, Default)]
struct WarmMark {
    /// Arena slots below this are permanent.
    len: usize,
    /// Live nodes at the mark.
    live: usize,
    /// Root counts of the slots below the mark, at the mark.
    rc: Vec<u32>,
}

/// One diagram kind's worth of storage: the node arena, the unique table
/// that enforces structural sharing, the free list of reclaimed slots, and
/// the traversal scratch pool.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeStore<const N: usize> {
    /// Node arena indexed by id; `None` marks a reclaimed slot.
    nodes: Vec<Option<Node<N>>>,
    unique: FxHashMap<(Qubit, [Edge<N>; N]), NodeId<N>>,
    /// Reclaimed slots at or above the warm mark, reused before the arena
    /// grows.
    free: Vec<u32>,
    /// Number of live nodes.
    live: usize,
    /// High-water mark of `live` (per-kind peak, unlike the governor's
    /// combined peak).
    peak_live: usize,
    scratch: ScratchPool,
    warm: WarmMark,
}

impl<const N: usize> NodeStore<N> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal sentinel or a foreign/freed id.
    #[inline]
    pub(crate) fn node(&self, id: NodeId<N>) -> &Node<N> {
        match &self.nodes[id.index()] {
            Some(n) => n,
            None => panic!("access to freed node {id:?}"),
        }
    }

    /// Unique-table lookup of a canonicalized node.
    #[inline]
    pub(crate) fn lookup(&self, var: Qubit, children: &[Edge<N>; N]) -> Option<NodeId<N>> {
        self.unique.get(&(var, *children)).copied()
    }

    /// Allocates a node (reusing a free-listed slot when available) and
    /// records it in the unique table. The caller has already checked the
    /// unique table and the allocation budget.
    pub(crate) fn alloc(&mut self, mut node: Node<N>, birth: u64) -> NodeId<N> {
        node.birth = birth;
        let key = (node.var, node.children);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Some(node);
                slot as usize
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        let id = NodeId::from_index(slot);
        self.unique.insert(key, id);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        id
    }

    /// Bumps a node's external root count.
    #[inline]
    pub(crate) fn inc_rc(&mut self, id: NodeId<N>) {
        self.node_mut(id).rc += 1;
    }

    /// Drops a node's external root count.
    ///
    /// # Panics
    ///
    /// Panics with `label` if the count is already zero.
    #[inline]
    pub(crate) fn dec_rc(&mut self, id: NodeId<N>, label: &'static str) {
        let rc = &mut self.node_mut(id).rc;
        assert!(*rc > 0, "{}", label);
        *rc -= 1;
    }

    fn node_mut(&mut self, id: NodeId<N>) -> &mut Node<N> {
        self.nodes[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("access to freed node {id:?}"))
    }

    /// Number of arena slots (live + reclaimed) — visited-set sizing and
    /// the `*_allocated` statistics.
    #[inline]
    pub(crate) fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes (constant time).
    #[inline]
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }

    /// High-water mark of [`Self::live_len`] (constant time).
    #[inline]
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Checks a traversal scratch buffer out of the store's pool (see
    /// [`Traversable`](crate::Traversable)). Nested walks each get their
    /// own buffer.
    #[inline]
    pub(crate) fn scratch(&self) -> ScratchGuard<'_> {
        self.scratch.acquire()
    }

    // --------------------------------------------------------------
    // Warm mark
    // --------------------------------------------------------------

    /// Makes every node live now permanent: GC never sweeps a slot below
    /// the mark, no later allocation reuses one, and
    /// [`Self::reset_to_warm`] rewinds to exactly this point.
    pub(crate) fn mark_warm(&mut self) {
        self.free.clear();
        self.warm = WarmMark {
            len: self.nodes.len(),
            live: self.live,
            rc: self
                .nodes
                .iter()
                .map(|n| n.as_ref().map_or(0, |n| n.rc))
                .collect(),
        };
    }

    /// Drops every node allocated since the mark (truncating the arena back
    /// to it) and restores the warm nodes' root counts.
    pub(crate) fn reset_to_warm(&mut self) {
        let len = self.warm.len;
        for node in self.nodes.drain(len..).flatten() {
            self.unique.remove(&(node.var, node.children));
        }
        for (n, &rc) in self.nodes.iter_mut().zip(&self.warm.rc) {
            if let Some(n) = n {
                n.rc = rc;
            }
        }
        self.free.clear();
        self.live = self.warm.live;
    }

    // --------------------------------------------------------------
    // Garbage collection (nodes below the warm mark are permanent)
    // --------------------------------------------------------------

    /// Mark phase: flags every slot reachable from a node with a positive
    /// root count or from `extra_roots` (cache-held edges).
    pub(crate) fn mark(&self, extra_roots: impl IntoIterator<Item = NodeId<N>>) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.as_ref().is_some_and(|n| n.rc > 0) {
                stack.push(i as u32);
            }
        }
        stack.extend(extra_roots.into_iter().map(NodeId::raw));
        while let Some(i) = stack.pop() {
            if mark[i as usize] {
                continue;
            }
            mark[i as usize] = true;
            for c in self.node(NodeId::from_index(i as usize)).children {
                if !c.is_terminal() {
                    stack.push(c.node.raw());
                }
            }
        }
        mark
    }

    /// Sweep phase: empties every unmarked live slot at or above the warm
    /// mark onto the free list. Returns `(freed, live)`.
    pub(crate) fn sweep(&mut self, mark: &[bool]) -> (usize, usize) {
        let mut freed = 0;
        for (i, &marked) in mark.iter().enumerate().skip(self.warm.len) {
            if !marked && self.nodes[i].take().is_some() {
                self.free.push(i as u32);
                freed += 1;
            }
        }
        self.live -= freed;
        (freed, self.live)
    }

    /// Rebuilds the unique table from the surviving nodes.
    pub(crate) fn rebuild_unique(&mut self) {
        self.unique.clear();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(n) = n {
                self.unique
                    .insert((n.var, n.children), NodeId::from_index(i));
            }
        }
    }

    /// Adds the child-edge weights of every live node to `keep` (the
    /// complex-table sweep's pin set).
    pub(crate) fn collect_live_weights(&self, keep: &mut FxHashSet<ComplexIdx>) {
        for n in self.nodes.iter().flatten() {
            for c in n.children {
                keep.insert(c.weight);
            }
        }
    }
}

/// Arity dispatch: gives the generic construction/refcount/GC code access
/// to the right [`NodeStore`] and normalization rule for its `N`.
///
/// Deliberately `pub(crate)`: the public API remains the concrete
/// `*_vec` / `*_mat` methods (thin wrappers over the generic
/// implementations), so downstream crates see the exact pre-refactor
/// surface.
pub(crate) trait HasStore<const N: usize> {
    fn store(&self) -> &NodeStore<N>;
    fn store_mut(&mut self) -> &mut NodeStore<N>;
    /// Arity-specific edge-weight normalization (L2 for vectors, first
    /// maximal entry for matrices — paper §III).
    fn normalize(ctable: &mut ComplexTable, weights: [ComplexIdx; N]) -> Option<Normalized<N>>;
}

impl HasStore<2> for DdPackage {
    #[inline]
    fn store(&self) -> &NodeStore<2> {
        &self.vstore
    }

    #[inline]
    fn store_mut(&mut self) -> &mut NodeStore<2> {
        &mut self.vstore
    }

    #[inline]
    fn normalize(ctable: &mut ComplexTable, weights: [ComplexIdx; 2]) -> Option<Normalized<2>> {
        normalize_vector(ctable, weights)
    }
}

impl HasStore<4> for DdPackage {
    #[inline]
    fn store(&self) -> &NodeStore<4> {
        &self.mstore
    }

    #[inline]
    fn store_mut(&mut self) -> &mut NodeStore<4> {
        &mut self.mstore
    }

    #[inline]
    fn normalize(ctable: &mut ComplexTable, weights: [ComplexIdx; 4]) -> Option<Normalized<4>> {
        normalize_matrix(ctable, weights)
    }
}
