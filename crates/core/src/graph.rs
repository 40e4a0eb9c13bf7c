//! Renderer-independent graph extraction from decision diagrams.
//!
//! Lives in the core crate (rather than the viz layer) so lower layers —
//! the simulator's timeline recorder in particular — can capture structural
//! snapshots without depending on rendering code. `qdd-viz` re-exports the
//! types for backwards compatibility.

use crate::{DdPackage, Edge, MatEdge, Traversable, VecEdge};
use qdd_complex::Complex;
use std::fmt::Write as _;

/// Whether the graph came from a state (2 successors) or an operator
/// (4 successors) diagram.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A state-vector diagram.
    Vector,
    /// An operator-matrix diagram.
    Matrix,
}

/// A drawn node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GraphNode {
    /// Stable key (the package's raw node id).
    pub key: u32,
    /// Qubit variable (`q0` is the lowest level).
    pub var: u8,
    /// Bit `i` set iff successor `i` is a 0-stub.
    pub zero_mask: u8,
}

/// A drawn edge (including 0-stubs; renderers decide whether to retract
/// them).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GraphEdge {
    /// Source node key.
    pub from: u32,
    /// Successor slot (`0..2` for vectors, `0..4` for matrices; slot
    /// `2·i + j` is the `U_{ij}` block).
    pub slot: u8,
    /// Target node key, or `None` for the terminal.
    pub to: Option<u32>,
    /// The edge weight.
    pub weight: Complex,
    /// Identity levels skipped between source and target (matrix diagrams
    /// only): the edge passes through this many levels as `I₂` without a
    /// node. Renderers draw skip edges with a distinct style and this
    /// count as a label.
    pub skip: u8,
}

impl GraphEdge {
    /// `true` for 0-stub edges.
    pub fn is_zero(&self) -> bool {
        self.weight == Complex::ZERO
    }
}

/// A decision diagram flattened for rendering: nodes in BFS (top-down,
/// left-to-right) order plus all edges.
#[derive(Clone, Debug, PartialEq)]
pub struct DdGraph {
    /// Vector or matrix diagram.
    pub kind: NodeKind,
    /// The root edge's weight.
    pub root_weight: Complex,
    /// The root node key (`None` when the whole diagram is a terminal/
    /// zero edge).
    pub root: Option<u32>,
    /// Nodes in BFS order.
    pub nodes: Vec<GraphNode>,
    /// All edges of drawn nodes, in `(node BFS index, slot)` order.
    pub edges: Vec<GraphEdge>,
    /// Number of variable levels spanned (`root var + 1`).
    pub num_levels: usize,
}

impl DdGraph {
    /// Extracts the graph of a state diagram.
    pub fn from_vector(dd: &DdPackage, e: VecEdge) -> Self {
        Self::extract(dd, e, NodeKind::Vector)
    }

    /// Extracts the graph of an operator diagram.
    pub fn from_matrix(dd: &DdPackage, e: MatEdge) -> Self {
        Self::extract(dd, e, NodeKind::Matrix)
    }

    /// Arity-generic extraction: one BFS (top-down, left-to-right — the
    /// order renderers lay nodes out in) over the shared traversal layer.
    fn extract<const N: usize>(dd: &DdPackage, e: Edge<N>, kind: NodeKind) -> Self
    where
        DdPackage: Traversable<N>,
    {
        let mut graph = DdGraph {
            kind,
            root_weight: dd.complex_value(e.weight),
            root: if e.is_terminal() { None } else { Some(e.node.raw()) },
            nodes: Vec::new(),
            edges: Vec::new(),
            num_levels: if e.is_terminal() {
                0
            } else {
                dd.node(e.node).var as usize + 1
            },
        };
        dd.visit_bfs(e, |id, node| {
            let mut zero_mask = 0u8;
            for (slot, child) in node.children.iter().enumerate() {
                if child.is_zero() {
                    zero_mask |= 1 << slot;
                }
                // Identity-skip annotation: in matrix diagrams an edge may
                // land strictly below the next level (or on the terminal
                // above level 0), passing through the gap as identity.
                let skip = if kind == NodeKind::Matrix && !child.is_zero() {
                    if child.is_terminal() {
                        node.var
                    } else {
                        node.var - 1 - dd.node(child.node).var
                    }
                } else {
                    0
                };
                graph.edges.push(GraphEdge {
                    from: id.raw(),
                    slot: slot as u8,
                    to: if child.is_terminal() {
                        None
                    } else {
                        Some(child.node.raw())
                    },
                    weight: dd.complex_value(child.weight),
                    skip,
                });
            }
            graph.nodes.push(GraphNode {
                key: id.raw(),
                var: node.var,
                zero_mask,
            });
        });
        graph
    }

    /// The number of successor slots per node (2 or 4).
    pub fn slots(&self) -> usize {
        match self.kind {
            NodeKind::Vector => 2,
            NodeKind::Matrix => 4,
        }
    }

    /// Nodes grouped per level, root level first.
    pub fn levels(&self) -> Vec<Vec<&GraphNode>> {
        let mut levels: Vec<Vec<&GraphNode>> = vec![Vec::new(); self.num_levels];
        for node in &self.nodes {
            let row = self.num_levels - 1 - node.var as usize;
            levels[row].push(node);
        }
        levels
    }

    /// `true` if any non-zero edge reaches the terminal (so renderers know
    /// whether to draw the terminal box).
    pub fn reaches_terminal(&self) -> bool {
        self.root.is_none() || self.edges.iter().any(|e| e.to.is_none() && !e.is_zero())
    }

    /// Number of drawn (non-terminal) nodes — the paper's size measure.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Serializes the graph to a compact JSON document (hand-rolled; the
    /// schema is small and fixed, so no serialization dependency is
    /// warranted).
    ///
    /// Schema:
    ///
    /// ```json
    /// {
    ///   "kind": "vector" | "matrix",
    ///   "numLevels": 2,
    ///   "rootWeight": {"re": 0.707, "im": 0.0},
    ///   "root": 12,
    ///   "nodes": [{"key": 12, "var": 1, "zeroMask": 0}],
    ///   "edges": [{"from": 12, "slot": 0, "to": 3,
    ///              "weight": {"re": 1.0, "im": 0.0}, "skip": 0}]
    /// }
    /// ```
    ///
    /// `"to": null` denotes the terminal; numbers are plain IEEE doubles.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let kind = match self.kind {
            NodeKind::Vector => "vector",
            NodeKind::Matrix => "matrix",
        };
        let _ = write!(out, "\"kind\":\"{kind}\",");
        let _ = write!(out, "\"numLevels\":{},", self.num_levels);
        let _ = write!(out, "\"rootWeight\":{},", complex_json(self.root_weight));
        match self.root {
            Some(key) => {
                let _ = write!(out, "\"root\":{key},");
            }
            None => out.push_str("\"root\":null,"),
        }
        out.push_str("\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":{},\"var\":{},\"zeroMask\":{}}}",
                n.key, n.var, n.zero_mask
            );
        }
        out.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let to = match e.to {
                Some(key) => key.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"from\":{},\"slot\":{},\"to\":{to},\"weight\":{},\"skip\":{}}}",
                e.from,
                e.slot,
                complex_json(e.weight),
                e.skip
            );
        }
        out.push_str("]}");
        out
    }
}

fn complex_json(c: Complex) -> String {
    format!("{{\"re\":{},\"im\":{}}}", json_number(c.re), json_number(c.im))
}

/// JSON has no NaN/Infinity; diagrams never contain them (the complex table
/// rejects non-finite values), but stay defensive.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gates, Control};

    fn bell_graph() -> DdGraph {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        let bell = dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap();
        DdGraph::from_vector(&dd, bell)
    }

    #[test]
    fn bell_graph_matches_fig_2a() {
        let g = bell_graph();
        assert_eq!(g.kind, NodeKind::Vector);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.num_levels, 2);
        // Root is the q1 node; two q0 nodes below.
        let levels = g.levels();
        assert_eq!(levels[0].len(), 1);
        assert_eq!(levels[1].len(), 2);
        // Each q0 node has exactly one 0-stub.
        for n in &levels[1] {
            assert_eq!(n.zero_mask.count_ones(), 1);
        }
        // Under L2 normalization the root weight is 1 (the 1/√2 factors
        // sit on the child edges; the paper's QMDD normalization instead
        // shows 1/√2 on the root — same diagram shape, different weight
        // placement).
        assert!((g.root_weight.re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_order_starts_at_root() {
        let g = bell_graph();
        assert_eq!(Some(g.nodes[0].key), g.root);
        assert_eq!(g.nodes[0].var, 1);
    }

    #[test]
    fn edge_inventory_including_stubs() {
        let g = bell_graph();
        assert_eq!(g.edges.len(), 6, "3 nodes × 2 slots");
        let zero_edges = g.edges.iter().filter(|e| e.is_zero()).count();
        assert_eq!(zero_edges, 2);
        assert!(g.reaches_terminal());
    }

    #[test]
    fn matrix_graph_of_cnot_matches_fig_2c() {
        let mut dd = DdPackage::new();
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let g = DdGraph::from_matrix(&dd, cx);
        assert_eq!(g.kind, NodeKind::Matrix);
        assert_eq!(g.slots(), 4);
        // Fig. 2(c) draws 3 nodes; under identity skip the idle I branch
        // is a pass-through edge, leaving the q1 root and the X node.
        assert_eq!(g.node_count(), 2);
        // Root has the two off-diagonal blocks as 0-stubs.
        assert_eq!(g.nodes[0].zero_mask, 0b0110);
        // The non-firing branch skips the q0 level to the terminal.
        let root_key = g.nodes[0].key;
        let skip_edge = g
            .edges
            .iter()
            .find(|e| e.from == root_key && e.slot == 0)
            .unwrap();
        assert_eq!(skip_edge.to, None);
        assert_eq!(skip_edge.skip, 1);
        // The firing branch lands on the X node without a gap.
        let fire_edge = g
            .edges
            .iter()
            .find(|e| e.from == root_key && e.slot == 3)
            .unwrap();
        assert_eq!(fire_edge.skip, 0);
    }

    #[test]
    fn terminal_only_graph() {
        let mut dd = DdPackage::new();
        let one = dd.intern(qdd_complex::Complex::ONE);
        let g = DdGraph::from_vector(&dd, VecEdge::terminal(one));
        assert_eq!(g.node_count(), 0);
        assert!(g.root.is_none());
        assert!(g.reaches_terminal());
    }

    #[test]
    fn shared_nodes_are_extracted_once() {
        let mut dd = DdPackage::new();
        // |++⟩ has one node per level (children share).
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 0).unwrap();
        let s = dd.apply_gate(s, gates::H, &[], 1).unwrap();
        let g = DdGraph::from_vector(&dd, s);
        assert_eq!(g.node_count(), 2);
        // The q1 node's two edges point to the same q0 node.
        let q0_key = g.nodes[1].key;
        let to_q0 = g
            .edges
            .iter()
            .filter(|e| e.to == Some(q0_key))
            .count();
        assert_eq!(to_q0, 2);
    }

    #[test]
    fn to_json_is_balanced_and_tagged() {
        let g = bell_graph();
        let json = g.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"kind\":\"vector\""));
        assert!(json.contains("\"numLevels\":2"));
        assert!(json.contains("\"rootWeight\":{\"re\":1"));
        assert!(
            json.contains("0.7071067811865476"),
            "child weights carry 1/sqrt(2)"
        );
        assert!(json.contains("\"skip\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // 3 nodes, 6 edges.
        assert_eq!(json.matches("\"key\":").count(), 3);
        assert_eq!(json.matches("\"from\":").count(), 6);

        let mut dd = DdPackage::new();
        let z = dd.zero_state(1).unwrap();
        assert!(DdGraph::from_vector(&dd, z).to_json().contains("\"to\":null"));
        let h = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
        let json = DdGraph::from_matrix(&dd, h).to_json();
        assert!(json.contains("\"kind\":\"matrix\""));
        assert_eq!(json.matches("\"slot\":").count(), 4);
    }
}
