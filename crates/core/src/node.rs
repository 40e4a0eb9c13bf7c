//! Arena node representations.

use crate::types::{Edge, Qubit};

/// A decision-diagram node with `N` successor edges.
///
/// * `N = 2` ([`VNode`]): successor `0` leads to the sub-vector where the
///   node's qubit is `|0⟩`, successor `1` to the `|1⟩` sub-vector
///   (paper §III-A).
/// * `N = 4` ([`MNode`]): successors are ordered `[U₀₀, U₀₁, U₁₀, U₁₁]` —
///   row index `i` is the *output* value of the qubit, column index `j` the
///   *input* value, matching Fig. 2(c) of the paper (child `2·i + j`).
///
/// `var`, `children` and `birth` are immutable once the node is stored
/// (canonicity depends on it).
#[derive(Clone, Debug)]
pub struct Node<const N: usize> {
    /// Qubit this node decides on.
    pub var: Qubit,
    /// Successor edges, in slot order.
    pub children: [Edge<N>; N],
    /// External root-reference count (used by garbage collection; not a
    /// structural property).
    pub(crate) rc: u32,
    /// Monotone creation stamp. Commutative operations order their operands
    /// by birth rather than by slot id: slot ids are recycled by garbage
    /// collection, and an ordering that changes when a collection happens to
    /// run changes which operand is divided by which — enough numeric
    /// perturbation to re-fragment knife-edge-compact diagrams (see
    /// `grover_16_stays_compact`).
    pub(crate) birth: u64,
}

impl<const N: usize> Node<N> {
    pub(crate) fn new(var: Qubit, children: [Edge<N>; N]) -> Self {
        Node {
            var,
            children,
            rc: 0,
            birth: 0,
        }
    }
}

/// Structural equality: a node *is* its decision variable plus successor
/// edges (the unique-table key); refcounts and birth stamps are bookkeeping.
impl<const N: usize> PartialEq for Node<N> {
    fn eq(&self, other: &Self) -> bool {
        self.var == other.var && self.children == other.children
    }
}

impl<const N: usize> Eq for Node<N> {}

/// A vector-DD node: a qubit label and two successor edges.
pub type VNode = Node<2>;

/// A matrix-DD node: a qubit label and four successor edges.
pub type MNode = Node<4>;
