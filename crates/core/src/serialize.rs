//! Plain-text (de)serialization of decision diagrams.
//!
//! The paper's web tool keeps diagrams shareable; a library needs the
//! equivalent — a stable on-disk form. The format is line-oriented and
//! human-inspectable:
//!
//! ```text
//! qdd-vector v1
//! levels 2
//! node 0 0 T 1 0 Z 0 0        # id var  child0(ref re im)  child1(...)
//! node 1 0 Z 0 0 T 1 0
//! node 2 1 0 0.707… 0 1 0.707… 0
//! root 2 1 0                   # root ref + weight
//! ```
//!
//! `T` is the terminal, `Z` the 0-stub. Nodes are listed children-first
//! (ascending variable), so deserialization is a single pass. Weights are
//! re-interned and nodes re-normalized on load, so a loaded diagram is
//! canonical in its new package even if the file was edited by hand. The
//! file is not trusted: a node whose children break the package's level
//! rules, or that does not fit the package's node budget, is a
//! [`SerializeError::Parse`] naming its line.
//!
//! Matrix diagrams are written in the `qdd-matrix v2` dialect, which
//! annotates every node-to-node reference with the target's variable
//! (`3@1` = node 3, sitting at `q1`). An identity-skipped edge may land
//! strictly below the next level, and the annotation makes the gap — and
//! therefore the implicit identity — explicit and checkable instead of a
//! detail the reader must reconstruct from the node table. The reader
//! accepts both `v1` (no annotations) and `v2`; because every node line
//! carries its variable, old `v1` files deserialize unchanged, and their
//! dense identity chains collapse into skip edges on load.
//!
//! Vector and matrix diagrams share one generic implementation
//! parameterized by the node arity: only the header strings and the number
//! of child chunks per line (`3·N` tokens) differ.

use crate::package::{DdPackage, HasStore};
use crate::traverse::Traversable;
use crate::types::{Edge, MatEdge, NodeId, VecEdge};
use qdd_complex::{Complex, FxHashMap};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from reading a serialized diagram.
#[derive(Debug)]
#[non_exhaustive]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural/syntax problem, with the 1-based line.
    Parse {
        /// Offending line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "{e}"),
            SerializeError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for SerializeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> SerializeError {
    SerializeError::Parse {
        line,
        message: message.into(),
    }
}

/// One child reference in the text format. `Node` carries the optional
/// `@var` annotation of the v2 matrix dialect.
enum Ref {
    Terminal,
    Zero,
    Node(u32, Option<u8>),
}

fn format_ref(node_terminal: bool, zero: bool, id_map_value: Option<u32>) -> String {
    if zero {
        "Z".to_string()
    } else if node_terminal {
        "T".to_string()
    } else {
        id_map_value.expect("mapped id").to_string()
    }
}

fn parse_ref(token: &str, line: usize) -> Result<Ref, SerializeError> {
    match token {
        "T" => Ok(Ref::Terminal),
        "Z" => Ok(Ref::Zero),
        other => {
            let (id, var) = match other.split_once('@') {
                Some((id, var)) => {
                    let var = var
                        .parse::<u8>()
                        .map_err(|_| parse_err(line, format!("bad edge variable `{var}`")))?;
                    (id, Some(var))
                }
                None => (other, None),
            };
            id.parse::<u32>()
                .map(|id| Ref::Node(id, var))
                .map_err(|_| parse_err(line, format!("bad node reference `{other}`")))
        }
    }
}

impl DdPackage {
    /// Generic writer behind [`Self::write_vector`] / [`Self::write_matrix`]:
    /// collect reachable nodes in shared pre-order, then emit in
    /// ascending-variable order so children always precede parents.
    fn write_dd<const N: usize, W: Write>(
        &self,
        header: &str,
        annotate_vars: bool,
        e: Edge<N>,
        mut out: W,
    ) -> Result<(), SerializeError>
    where
        Self: Traversable<N>,
    {
        writeln!(out, "{header}")?;
        let levels = if e.is_terminal() {
            0
        } else {
            self.node(e.node).var as usize + 1
        };
        writeln!(out, "levels {levels}")?;

        let mut order: Vec<NodeId<N>> = Vec::new();
        self.visit_preorder(e, |id, _| order.push(id));
        order.sort_by_key(|&id| self.node(id).var);
        let id_map: FxHashMap<u32, u32> = order
            .iter()
            .enumerate()
            .map(|(i, id)| (id.raw(), i as u32))
            .collect();

        let annotated_ref = |c: &Edge<N>| -> String {
            let r = format_ref(c.is_terminal(), c.is_zero(), c.to_mapped(&id_map));
            if annotate_vars && !c.is_terminal() && !c.is_zero() {
                format!("{r}@{}", self.node(c.node).var)
            } else {
                r
            }
        };
        for id in &order {
            let node = self.node(*id);
            let mut line = format!("node {} {}", id_map[&id.raw()], node.var);
            for c in node.children {
                let w = self.complex_value(c.weight);
                line.push_str(&format!(" {} {} {}", annotated_ref(&c), w.re, w.im));
            }
            writeln!(out, "{line}")?;
        }
        let w = self.complex_value(e.weight);
        writeln!(out, "root {} {} {}", annotated_ref(&e), w.re, w.im)?;
        Ok(())
    }

    /// Generic reader behind [`Self::read_vector`] / [`Self::read_matrix`].
    fn read_dd<const N: usize, R: BufRead>(
        &mut self,
        headers_accepted: &[&str],
        input: R,
    ) -> Result<Edge<N>, SerializeError>
    where
        Self: crate::package::HasStore<N>,
    {
        let mut lines = input.lines().enumerate();
        let (num, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
        let header = header?;
        if !headers_accepted.contains(&header.trim()) {
            return Err(parse_err(
                num + 1,
                format!("expected header `{}`", headers_accepted.join("` or `")),
            ));
        }
        let mut nodes: FxHashMap<u32, Edge<N>> = FxHashMap::default();
        let mut root: Option<Edge<N>> = None;
        for (idx, line) in lines {
            let lineno = idx + 1;
            let line = line?;
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.as_slice() {
                [] | ["levels", _] => continue,
                ["node", id, var, rest @ ..] if rest.len() == 3 * N => {
                    let id: u32 = id.parse().map_err(|_| parse_err(lineno, "bad node id"))?;
                    let var: u8 = var.parse().map_err(|_| parse_err(lineno, "bad variable"))?;
                    let mut children = [Edge::ZERO; N];
                    for (k, chunk) in rest.chunks(3).enumerate() {
                        children[k] = self.resolve_child(chunk, &nodes, lineno)?;
                    }
                    if !self.children_well_formed(var, &children) {
                        return Err(parse_err(
                            lineno,
                            format!("node {id} at variable {var} has a child at the wrong level"),
                        ));
                    }
                    let edge = self
                        .make_node_generic(var, children)
                        .map_err(|e| parse_err(lineno, format!("node {id}: {e}")))?;
                    nodes.insert(id, edge);
                }
                ["root", rest @ ..] if rest.len() == 3 => {
                    root = Some(self.resolve_child(rest, &nodes, lineno)?);
                }
                _ => return Err(parse_err(lineno, format!("unrecognized line `{line}`"))),
            }
        }
        root.ok_or_else(|| parse_err(0, "missing root line"))
    }

    fn resolve_child<const N: usize>(
        &mut self,
        chunk: &[&str],
        nodes: &FxHashMap<u32, Edge<N>>,
        lineno: usize,
    ) -> Result<Edge<N>, SerializeError>
    where
        Self: crate::package::HasStore<N>,
    {
        let re: f64 = chunk[1]
            .parse()
            .map_err(|_| parse_err(lineno, "bad real part"))?;
        let im: f64 = chunk[2]
            .parse()
            .map_err(|_| parse_err(lineno, "bad imaginary part"))?;
        let weight = Complex::new(re, im);
        if weight.is_non_finite() {
            return Err(parse_err(lineno, "non-finite weight"));
        }
        match parse_ref(chunk[0], lineno)? {
            Ref::Zero => Ok(Edge::ZERO),
            Ref::Terminal => Ok(Edge::terminal(self.intern(weight))),
            Ref::Node(id, declared_var) => {
                let base = nodes
                    .get(&id)
                    .copied()
                    .ok_or_else(|| parse_err(lineno, format!("forward reference to node {id}")))?;
                // A v2 `@var` annotation records the variable the target
                // sat at when written. Re-canonicalization on load can only
                // *lower* structure (collapse to a skip edge or terminal),
                // so the resolved target must not sit above it.
                if let Some(declared) = declared_var {
                    let actual = if base.is_terminal() || base.is_zero() {
                        None
                    } else {
                        Some(self.store().node(base.node).var)
                    };
                    if actual.is_some_and(|v| v > declared) {
                        return Err(parse_err(
                            lineno,
                            format!(
                                "edge annotation @{declared} below target node {id} at variable {}",
                                actual.unwrap_or(0)
                            ),
                        ));
                    }
                }
                // `base.weight` is the factor node construction pulled out
                // when re-normalizing the stored node: 1 for canonical
                // files, meaningful for hand-edited ones. Fold it into the
                // edge.
                let w = self.intern(weight);
                let w = self.ctable.mul(w, base.weight);
                Ok(if w.is_zero() {
                    Edge::ZERO
                } else {
                    Edge::new(base.node, w)
                })
            }
        }
    }

    /// Writes a state diagram in the `qdd-vector v1` text format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_vector<W: Write>(&self, e: VecEdge, out: W) -> Result<(), SerializeError> {
        self.write_dd(VECTOR_HEADER, false, e, out)
    }

    /// Reads a state diagram written by [`Self::write_vector`].
    ///
    /// # Errors
    ///
    /// [`SerializeError::Parse`] for malformed input, [`SerializeError::Io`]
    /// for read failures.
    pub fn read_vector<R: BufRead>(&mut self, input: R) -> Result<VecEdge, SerializeError> {
        self.read_dd(&[VECTOR_HEADER], input)
    }

    /// Writes an operator diagram in the `qdd-matrix v2` text format,
    /// where every node-to-node reference carries an explicit `@var`
    /// annotation making identity-skip gaps self-describing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_matrix<W: Write>(&self, e: MatEdge, out: W) -> Result<(), SerializeError> {
        self.write_dd(MATRIX_HEADER_V2, true, e, out)
    }

    /// Reads an operator diagram in either the `qdd-matrix v1` or
    /// `qdd-matrix v2` format. Old `v1` files keep loading: their dense
    /// identity chains collapse into skip edges.
    ///
    /// # Errors
    ///
    /// [`SerializeError::Parse`] for malformed input, [`SerializeError::Io`]
    /// for read failures.
    pub fn read_matrix<R: BufRead>(&mut self, input: R) -> Result<MatEdge, SerializeError> {
        self.read_dd(&[MATRIX_HEADER, MATRIX_HEADER_V2], input)
    }
}

const VECTOR_HEADER: &str = "qdd-vector v1";
const MATRIX_HEADER: &str = "qdd-matrix v1";
const MATRIX_HEADER_V2: &str = "qdd-matrix v2";

/// Helper: map an edge's target through the serialization id map.
trait ToMapped {
    fn to_mapped(&self, map: &FxHashMap<u32, u32>) -> Option<u32>;
}

impl<const N: usize> ToMapped for Edge<N> {
    fn to_mapped(&self, map: &FxHashMap<u32, u32>) -> Option<u32> {
        if self.is_terminal() {
            None
        } else {
            map.get(&self.node.raw()).copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gates, Control};

    fn round_trip_vector(build: impl Fn(&mut DdPackage) -> VecEdge) {
        let mut dd = DdPackage::new();
        let original = build(&mut dd);
        let n = dd.vec_var(original).map_or(1, |v| v as usize + 1);
        let mut buffer = Vec::new();
        dd.write_vector(original, &mut buffer).unwrap();

        // Load into a *fresh* package.
        let mut dd2 = DdPackage::new();
        let loaded = dd2.read_vector(buffer.as_slice()).unwrap();
        let a = dd.to_dense_vector(original, n);
        let b = dd2.to_dense_vector(loaded, n);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(*y, 1e-10), "{x} vs {y}");
        }

        // Loading into the *same* package reproduces the identical edge
        // (canonicity survives the text round trip).
        let reloaded = dd.read_vector(buffer.as_slice()).unwrap();
        assert_eq!(reloaded, original);
    }

    #[test]
    fn bell_state_round_trips() {
        round_trip_vector(|dd| {
            let z = dd.zero_state(2).unwrap();
            let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
            dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap()
        });
    }

    #[test]
    fn phased_state_round_trips() {
        round_trip_vector(|dd| {
            let z = dd.zero_state(3).unwrap();
            let s = dd.apply_gate(z, gates::H, &[], 2).unwrap();
            let s = dd.apply_gate(s, gates::t(), &[Control::pos(2)], 1).unwrap();
            dd.apply_gate(s, gates::ry(0.9), &[], 0).unwrap()
        });
    }

    #[test]
    fn basis_state_round_trips() {
        round_trip_vector(|dd| dd.basis_state(4, 0b1010).unwrap());
    }

    #[test]
    fn matrix_round_trips() {
        let mut dd = DdPackage::new();
        let qft = {
            let mut u = dd.identity(3).unwrap();
            for theta in [0.5, 0.25] {
                let g = dd
                    .gate_dd(gates::phase(theta), &[Control::pos(2)], 0, 3)
                    .unwrap();
                u = dd.mat_mat(g, u).unwrap();
            }
            let h = dd.gate_dd(gates::H, &[], 1, 3).unwrap();
            dd.mat_mat(h, u).unwrap()
        };
        let mut buffer = Vec::new();
        dd.write_matrix(qft, &mut buffer).unwrap();
        let mut dd2 = DdPackage::new();
        let loaded = dd2.read_matrix(buffer.as_slice()).unwrap();
        let a = dd.to_dense_matrix(qft, 3);
        let b = dd2.to_dense_matrix(loaded, 3);
        for i in 0..8 {
            for j in 0..8 {
                assert!(a[i][j].approx_eq(b[i][j], 1e-10), "({i},{j})");
            }
        }
        // Same-package reload is pointer-identical.
        let reloaded = dd.read_matrix(buffer.as_slice()).unwrap();
        assert_eq!(reloaded, qft);
    }

    #[test]
    fn format_is_human_readable() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(2).unwrap();
        let mut buffer = Vec::new();
        dd.write_vector(s, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.starts_with("qdd-vector v1\nlevels 2\n"));
        assert!(text.contains("node 0 0 T 1 0 Z 0 0"));
        assert!(text.lines().last().unwrap().starts_with("root "));
    }

    #[test]
    fn parse_errors_are_reported() {
        // Two vector nodes: one more than a one-node budget admits.
        let two_nodes = "qdd-vector v1\nnode 0 0 T 1 0 Z 0 0\nnode 1 1 0 1 0 Z 0 0\nroot 1 1 0\n";
        // Node 1's child, node 0, sits at node 1's own level.
        let same_level = "qdd-matrix v2\nlevels 2\n\
                          node 0 1 T 1 0 Z 0 0 Z 0 0 T -1 0\n\
                          node 1 1 0@1 1 0 Z 0 0 Z 0 0 T 1 0\n\
                          root 1@1 1 0\n";
        for (matrix, max_nodes, input, needle) in [
            (false, None, "", "empty input"),
            (false, None, "wrong header\n", "expected header"),
            (
                false,
                None,
                "qdd-vector v1\nnode 0 0 T 1 0\n",
                "unrecognized line",
            ),
            (
                false,
                None,
                "qdd-vector v1\nnode 0 0 T x 0 Z 0 0\nroot 0 1 0\n",
                "bad real part",
            ),
            (
                false,
                None,
                "qdd-vector v1\nnode 0 0 7 1 0 Z 0 0\nroot 0 1 0\n",
                "forward reference",
            ),
            (
                false,
                None,
                "qdd-vector v1\nnode 0 0 T 1 0 Z 0 0\n",
                "missing root",
            ),
            // A terminal child above the bottom level.
            (
                false,
                None,
                "qdd-vector v1\nnode 0 2 T 1 0 Z 0 0\nroot 0 1 0\n",
                "line 2: node 0 at variable 2 has a child at the wrong level",
            ),
            (true, None, "wrong header\n", "expected header"),
            (
                true,
                None,
                same_level,
                "line 4: node 1 at variable 1 has a child at the wrong level",
            ),
            (
                false,
                Some(1),
                two_nodes,
                "line 3: node 1: node budget exhausted",
            ),
        ] {
            let mut dd = DdPackage::with_config(crate::PackageConfig {
                limits: crate::Limits {
                    max_nodes,
                    ..crate::Limits::default()
                },
                ..crate::PackageConfig::default()
            });
            let err = if matrix {
                dd.read_matrix(input.as_bytes()).map(drop)
            } else {
                dd.read_vector(input.as_bytes()).map(drop)
            }
            .unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{input}` → {err} (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn matrix_v2_format_annotates_edge_vars() {
        let mut dd = DdPackage::new();
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let mut buffer = Vec::new();
        dd.write_matrix(cx, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.starts_with("qdd-matrix v2\nlevels 2\n"));
        // The root node's firing branch lands on the X node at q0,
        // annotated explicitly.
        assert!(text.contains("0@0"), "{text}");
        // The root edge is annotated with the root node's variable.
        assert!(text.lines().last().unwrap().starts_with("root 1@1 "), "{text}");
    }

    #[test]
    fn matrix_v1_dense_file_still_loads() {
        // A pinned pre-skip `qdd-matrix v1` file: CX written densely with
        // an explicit identity node on the non-firing branch. Loading it
        // into a default (identity-skip) package collapses that chain and
        // reproduces the canonical 2-node CX.
        let text = "qdd-matrix v1\nlevels 2\n\
                    node 0 0 T 1 0 Z 0 0 Z 0 0 T 1 0\n\
                    node 1 0 Z 0 0 T 1 0 T 1 0 Z 0 0\n\
                    node 2 1 0 1 0 Z 0 0 Z 0 0 1 1 0\n\
                    root 2 1 0\n";
        let mut dd = DdPackage::new();
        let loaded = dd.read_matrix(text.as_bytes()).unwrap();
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        assert_eq!(loaded, cx);
        assert_eq!(dd.mat_node_count(loaded), 2);
    }

    #[test]
    fn skip_edges_round_trip() {
        // A long-range controlled gate has a multi-level gap under both
        // the control and target branches.
        let mut dd = DdPackage::new();
        let g = dd.gate_dd(gates::X, &[Control::pos(4)], 0, 5).unwrap();
        let mut buffer = Vec::new();
        dd.write_matrix(g, &mut buffer).unwrap();

        let mut dd2 = DdPackage::new();
        let loaded = dd2.read_matrix(buffer.as_slice()).unwrap();
        assert_eq!(dd2.mat_node_count(loaded), dd.mat_node_count(g));
        let a = dd.to_dense_matrix(g, 5);
        let b = dd2.to_dense_matrix(loaded, 5);
        for (ra, rb) in a.iter().zip(b.iter()) {
            for (x, y) in ra.iter().zip(rb.iter()) {
                assert!(x.approx_eq(*y, 1e-10));
            }
        }
        // Same-package reload is pointer-identical.
        let reloaded = dd.read_matrix(buffer.as_slice()).unwrap();
        assert_eq!(reloaded, g);
    }

    #[test]
    fn inconsistent_edge_annotation_is_rejected() {
        // Node 1 sits at q1 but the root ref claims it sits at q0.
        let text = "qdd-matrix v2\nlevels 2\n\
                    node 0 0 Z 0 0 T 1 0 T 1 0 Z 0 0\n\
                    node 1 1 T 1 0 Z 0 0 Z 0 0 0@0 1 0\n\
                    root 1@0 1 0\n";
        let mut dd = DdPackage::new();
        let err = dd.read_matrix(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("below target"), "{err}");
    }

    #[test]
    fn terminal_root_round_trips() {
        let mut dd = DdPackage::new();
        let w = dd.intern(Complex::new(0.6, 0.8));
        let e = VecEdge::terminal(w);
        let mut buffer = Vec::new();
        dd.write_vector(e, &mut buffer).unwrap();
        let loaded = dd.read_vector(buffer.as_slice()).unwrap();
        assert_eq!(loaded, e);
    }
}

#[cfg(test)]
mod hand_edited_tests {
    use super::*;

    /// A hand-written, non-canonical file (node weights not normalized)
    /// still loads to the mathematically intended state.
    #[test]
    fn non_canonical_input_is_renormalized_correctly() {
        let mut dd = DdPackage::new();
        // Intends the (unnormalized) vector [2, 2, 0, 6]/norm: node 0 is
        // written with un-normalized child weights.
        let text = "qdd-vector v1\nlevels 2\n\
                    node 0 0 T 2 0 T 2 0\n\
                    node 1 0 Z 0 0 T 6 0\n\
                    node 2 1 0 1 0 1 1 0\n\
                    root 2 1 0\n";
        let loaded = dd.read_vector(text.as_bytes()).unwrap();
        let dense = dd.to_dense_vector(loaded, 2);
        // Expected direction: [2, 2, 0, 6]; compare ratios.
        assert!((dense[1].re / dense[0].re - 1.0).abs() < 1e-10);
        assert!((dense[3].re / dense[0].re - 3.0).abs() < 1e-10);
        assert!(dense[2].abs() < 1e-12);
    }
}
