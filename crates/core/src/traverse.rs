//! The shared traversal layer: every walk over a decision diagram — node
//! counting, serialization, visualization extraction, basis-state
//! enumeration — goes through the visitors defined here instead of
//! hand-rolling its own stack and seen-set.
//!
//! The walkers are allocation-free after warm-up: they reuse an
//! epoch-stamped [`WalkScratch`] owned by the node store (one `u32` stamp
//! per arena slot, epoch bump per traversal — see
//! [`qdd_complex::VisitSet`]). Because the epoch bump happens *inside* the
//! walker, a forgotten reset between two back-to-back traversals is
//! impossible by construction.
//!
//! # Re-entrancy
//!
//! A walker checks a scratch buffer out of the store's pool for the
//! duration of the traversal. The pool hands every acquisition its own
//! buffer, so callbacks may freely start nested traversals — of either
//! arity, including the same one.

use crate::node::Node;
use crate::types::{Edge, NodeId};
use qdd_complex::ScratchGuard;

/// Tag bit marking a "children done, emit the node" stack entry in the
/// post-order walker. Halves the addressable arena to `2³¹` slots, far
/// beyond what fits in memory.
const EMIT: u32 = 1 << 31;

/// Read-only traversal over the nodes of one diagram kind.
///
/// Implemented by [`DdPackage`](crate::DdPackage) at `N = 2` (vector DDs)
/// and `N = 4` (matrix DDs). The three required methods expose the arena;
/// the provided visitors implement the actual walks exactly once for both
/// kinds.
pub trait Traversable<const N: usize> {
    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics on the terminal sentinel or a foreign/freed id.
    fn node(&self, id: NodeId<N>) -> &Node<N>;

    /// Number of arena slots (visited-set sizing).
    #[doc(hidden)]
    fn arena_len(&self) -> usize;

    /// Checks a traversal scratch buffer out of the store's pool.
    #[doc(hidden)]
    fn walk_scratch(&self) -> ScratchGuard<'_>;

    /// Depth-first pre-order walk: `f` sees every distinct non-terminal
    /// node reachable from `root` exactly once, parents before their
    /// children, children explored in slot order.
    ///
    /// This is the order the serializer pins: root first, then the
    /// slot-`0` subtree interleaved per the explicit-stack DFS.
    fn visit_preorder(&self, root: Edge<N>, mut f: impl FnMut(NodeId<N>, &Node<N>)) {
        if root.is_terminal() {
            return;
        }
        let mut s = self.walk_scratch();
        s.begin(self.arena_len());
        s.stack.push(root.node.raw());
        while let Some(i) = s.stack.pop() {
            if !s.set.visit(i as usize) {
                continue;
            }
            let id = NodeId::<N>::from_index(i as usize);
            let n = self.node(id);
            f(id, n);
            for c in n.children {
                if !c.is_terminal() {
                    s.stack.push(c.node.raw());
                }
            }
        }
    }

    /// Breadth-first walk: `f` sees every distinct non-terminal node
    /// reachable from `root` exactly once, level by level, siblings in
    /// slot order (the order the visualization layer displays).
    fn visit_bfs(&self, root: Edge<N>, mut f: impl FnMut(NodeId<N>, &Node<N>)) {
        if root.is_terminal() {
            return;
        }
        let mut s = self.walk_scratch();
        s.begin(self.arena_len());
        s.set.visit(root.node.index());
        s.stack.push(root.node.raw());
        let mut cursor = 0;
        while cursor < s.stack.len() {
            let i = s.stack[cursor];
            cursor += 1;
            let id = NodeId::<N>::from_index(i as usize);
            let n = self.node(id);
            f(id, n);
            for c in n.children {
                if !c.is_terminal() && s.set.visit(c.node.index()) {
                    s.stack.push(c.node.raw());
                }
            }
        }
    }

    /// Depth-first post-order walk: `f` sees every distinct non-terminal
    /// node exactly once, all children strictly before their parent — the
    /// order bottom-up dynamic programming over a diagram wants.
    fn visit_postorder(&self, root: Edge<N>, mut f: impl FnMut(NodeId<N>, &Node<N>)) {
        if root.is_terminal() {
            return;
        }
        debug_assert!((self.arena_len() as u64) < EMIT as u64);
        let mut s = self.walk_scratch();
        s.begin(self.arena_len());
        s.stack.push(root.node.raw());
        while let Some(x) = s.stack.pop() {
            if x & EMIT != 0 {
                let id = NodeId::<N>::from_index((x & !EMIT) as usize);
                f(id, self.node(id));
                continue;
            }
            if !s.set.visit(x as usize) {
                continue;
            }
            s.stack.push(x | EMIT);
            for c in self.node(NodeId::<N>::from_index(x as usize)).children {
                if !c.is_terminal() && !s.set.seen(c.node.index()) {
                    s.stack.push(c.node.raw());
                }
            }
        }
    }

    /// The number of distinct nodes reachable from `root`, excluding the
    /// terminal (the size measure used throughout the paper, e.g. Ex. 6).
    ///
    /// Allocation-free after warm-up, so drivers may call this per
    /// simulation step.
    fn count_reachable(&self, root: Edge<N>) -> usize {
        let mut count = 0usize;
        self.visit_preorder(root, |_, _| count += 1);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdPackage, MatEdge, VecEdge};

    #[test]
    fn preorder_visits_parent_before_children() {
        let mut dd = DdPackage::new();
        let e = dd.zero_state(3).unwrap();
        let mut vars = Vec::new();
        dd.visit_preorder(e, |_, n| vars.push(n.var));
        assert_eq!(vars, vec![2, 1, 0]);
    }

    #[test]
    fn postorder_visits_children_before_parent() {
        let mut dd = DdPackage::new();
        let e = dd.zero_state(3).unwrap();
        let mut vars = Vec::new();
        dd.visit_postorder(e, |_, n| vars.push(n.var));
        assert_eq!(vars, vec![0, 1, 2]);
    }

    #[test]
    fn bfs_visits_level_by_level() {
        let mut dd = DdPackage::new();
        // GHZ-like sharing: two distinct q0 nodes below one q1 node.
        let a = dd.basis_state(2, 0).unwrap();
        let b = dd.basis_state(2, 3).unwrap();
        let e = dd.add_vec(a, b);
        let mut vars = Vec::new();
        dd.visit_bfs(e, |_, n| vars.push(n.var));
        assert_eq!(vars, vec![1, 0, 0]);
    }

    #[test]
    fn shared_nodes_are_visited_once() {
        let mut dd = DdPackage::new();
        // H ⊗ H: all four children of the root are the same H node.
        let h1 = dd.gate_dd(crate::gates::H, &[], 1, 2).unwrap();
        let h0 = dd.gate_dd(crate::gates::H, &[], 0, 2).unwrap();
        let hh = dd.mat_mat(h1, h0);
        let mut count = 0;
        dd.visit_postorder(hh, |_, _| count += 1);
        // One root plus one shared H node — not four H copies.
        assert_eq!(count, 2, "the shared H node is visited once");
    }

    #[test]
    fn terminal_roots_visit_nothing() {
        let dd = DdPackage::new();
        let mut hits = 0;
        dd.visit_preorder(VecEdge::ZERO, |_, _| hits += 1);
        dd.visit_bfs(VecEdge::ONE, |_, _| hits += 1);
        dd.visit_postorder(MatEdge::ONE, |_, _| hits += 1);
        assert_eq!(hits, 0);
        assert_eq!(dd.count_reachable(VecEdge::ZERO), 0);
    }

    #[test]
    fn vector_and_matrix_walks_can_nest() {
        // Each store owns its own scratch pool, so cross-arity nesting is
        // fine.
        let mut dd = DdPackage::new();
        let v = dd.zero_state(2).unwrap();
        let m = dd
            .gate_dd(crate::gates::X, &[crate::Control::pos(1)], 0, 2)
            .unwrap();
        let mut pairs = 0;
        dd.visit_preorder(v, |_, _| {
            dd.visit_preorder(m, |_, _| pairs += 1);
        });
        assert_eq!(pairs, 4);
    }

    #[test]
    fn same_arity_walks_can_nest() {
        // The scratch pool hands each nested walk its own buffer, so even
        // same-arity re-entrancy works (it used to panic via RefCell).
        let mut dd = DdPackage::new();
        let v = dd.zero_state(3).unwrap();
        let mut pairs = 0;
        dd.visit_preorder(v, |_, _| {
            dd.visit_preorder(v, |_, _| pairs += 1);
        });
        assert_eq!(pairs, 9);
    }
}
