//! Cross-package diagram import: translating an edge built in one package
//! into another.
//!
//! Verification's two-sided construction needs this: the right-hand system
//! matrix is built on a private package in a worker thread, and the checker
//! then pulls the result into its own package to compare the two as
//! canonical edges.
//!
//! Translation is a memoized post-order walk. Weights are carried across by
//! value through the destination's intern, so tolerance collapse happens
//! exactly as if the diagram had been built here, and every new node goes
//! through the destination's budget chokepoint.

use crate::error::DdError;
use crate::package::store::HasStore;
use crate::package::DdPackage;
use crate::types::{Edge, MatEdge, NodeId};
use qdd_complex::{ComplexIdx, FxHashMap};

impl DdPackage {
    /// Translates `e`, built in `src`, into this package, returning the
    /// canonical local edge for the same matrix diagram.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] when the translated nodes do not fit
    /// this package's budgets.
    pub fn try_import_mat_edge(&mut self, src: &DdPackage, e: MatEdge) -> Result<MatEdge, DdError> {
        let mut memo = FxHashMap::default();
        self.import_edge_generic(src, e, &mut memo)
    }

    fn import_edge_generic<const N: usize>(
        &mut self,
        src: &DdPackage,
        e: Edge<N>,
        memo: &mut FxHashMap<u32, NodeId<N>>,
    ) -> Result<Edge<N>, DdError>
    where
        Self: HasStore<N>,
    {
        if e.is_zero() {
            return Ok(Edge::ZERO);
        }
        let w = self.import_weight(src, e.weight);
        if e.is_terminal() {
            return Ok(Edge::terminal(w));
        }
        let node = self.import_node_generic(src, e.node, memo)?;
        // Re-interning can collapse a weight to zero under this package's
        // tolerance; keep the 0-stub invariant.
        Ok(if w.is_zero() {
            Edge::ZERO
        } else {
            Edge::new(node, w)
        })
    }

    fn import_node_generic<const N: usize>(
        &mut self,
        src: &DdPackage,
        id: NodeId<N>,
        memo: &mut FxHashMap<u32, NodeId<N>>,
    ) -> Result<NodeId<N>, DdError>
    where
        Self: HasStore<N>,
    {
        if let Some(&t) = memo.get(&id.raw()) {
            return Ok(t);
        }
        let src_node = src.store().node(id);
        let (var, children) = (src_node.var, src_node.children);
        let mut translated = [Edge::ZERO; N];
        for (slot, child) in translated.iter_mut().zip(children) {
            *slot = self.import_edge_generic(src, child, memo)?;
        }
        // Children are already canonical in `src`, so re-construction here
        // is a unique-table hit whenever the sub-diagram exists locally.
        let local = self.try_make_node_generic(var, translated)?;
        debug_assert!(
            !local.is_zero(),
            "importing a live node cannot yield the 0-stub"
        );
        memo.insert(id.raw(), local.node);
        Ok(local.node)
    }

    fn import_weight(&mut self, src: &DdPackage, w: ComplexIdx) -> ComplexIdx {
        self.ctable.lookup(src.ctable.value(w))
    }
}

#[cfg(test)]
mod tests {
    use crate::error::{DdError, ResourceKind};
    use crate::gates::{self, Control};
    use crate::limits::Limits;
    use crate::package::{DdPackage, PackageConfig};

    fn operator(dd: &mut DdPackage) -> crate::MatEdge {
        let h = dd.gate_dd(gates::H, &[], 2, 3).unwrap();
        let cx = dd.gate_dd(gates::X, &[Control::pos(2)], 0, 3).unwrap();
        let t = dd.gate_dd(gates::t(), &[], 1, 3).unwrap();
        let u = dd.mat_mat(cx, h);
        dd.mat_mat(t, u)
    }

    #[test]
    fn import_between_unrelated_packages_preserves_semantics() {
        let mut a = DdPackage::new();
        let mut b = DdPackage::new();
        // Warm `b` with unrelated state so id spaces diverge.
        let _ = b.gate_dd(gates::ry(0.4), &[Control::pos(0)], 1, 3).unwrap();
        let u = operator(&mut a);
        let got = b.try_import_mat_edge(&a, u).unwrap();
        assert_eq!(b.to_dense_matrix(got, 3), a.to_dense_matrix(u, 3));
        // The imported edge is canonical in `b`: building it there again
        // lands on the same edge.
        assert_eq!(operator(&mut b), got);
    }

    #[test]
    fn import_past_the_node_budget_is_a_typed_error() {
        let mut a = DdPackage::new();
        let u = operator(&mut a);
        let mut b = DdPackage::with_config(PackageConfig {
            limits: Limits {
                max_nodes: Some(1),
                ..Limits::default()
            },
            ..PackageConfig::default()
        });
        assert!(matches!(
            b.try_import_mat_edge(&a, u),
            Err(DdError::ResourceExhausted {
                kind: ResourceKind::Nodes,
                ..
            })
        ));
    }
}
