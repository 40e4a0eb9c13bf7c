//! Node construction: normalization, unique-table interning, and the
//! allocation-budget chokepoint — written once, generically over the
//! diagram arity, with thin concrete wrappers preserving the public
//! `*_vec` / `*_mat` API.

use crate::error::{DdError, ResourceKind};
use crate::node::Node;
use crate::package::store::HasStore;
use crate::package::DdPackage;
use crate::types::{Edge, MatEdge, NodeId, Qubit, VecEdge};
use qdd_complex::ComplexIdx;

impl DdPackage {
    /// Creates (or finds) the canonical node `var → children` and returns
    /// the normalized edge pointing at it — the single implementation
    /// behind [`Self::make_vec_node`] and [`Self::make_mat_node`].
    pub(crate) fn try_make_node_generic<const N: usize>(
        &mut self,
        var: Qubit,
        children: [Edge<N>; N],
    ) -> Result<Edge<N>, DdError>
    where
        Self: HasStore<N>,
    {
        debug_assert!(self.children_well_formed(var, &children));
        let weights = std::array::from_fn(|i| children[i].weight);
        let Some(norm) = Self::normalize(&mut self.ctable, &self.config, weights) else {
            return Ok(Edge::ZERO);
        };
        let canon: [Edge<N>; N] = std::array::from_fn(|i| {
            Edge::new(
                if norm.weights[i].is_zero() {
                    NodeId::TERMINAL
                } else {
                    children[i].node
                },
                norm.weights[i],
            )
        });
        if let Some(through) = self.identity_collapse(&canon) {
            self.identity_collapses += 1;
            return Ok(self.scale_edge(through, norm.top));
        }
        let id = match self.store().lookup(var, &canon) {
            Some(id) => id,
            None => {
                self.check_alloc_budget()?;
                let birth = self.next_birth();
                let id = self.store_mut().alloc(Node::new(var, canon), birth);
                self.note_live_nodes();
                id
            }
        };
        Ok(Edge::new(id, norm.top))
    }

    /// The identity-skip canonicity rule (arXiv 2406.11959): a matrix node
    /// whose canonical children are `[e, 0, 0, e]` represents `I ⊗ M(e)`
    /// and is never materialized — the edge passes straight through to `e`,
    /// with the level gap meaning "identity on every skipped qubit".
    /// Returns the pass-through edge, or `None` when a real node is needed
    /// (always for vector diagrams, and under `--no-identity-skip`).
    #[inline]
    fn identity_collapse<const N: usize>(&self, canon: &[Edge<N>; N]) -> Option<Edge<N>> {
        if N != 4 || !self.config.identity_skip {
            return None;
        }
        if canon[1].is_zero() && canon[2].is_zero() && canon[0] == canon[3] {
            Some(canon[0])
        } else {
            None
        }
    }

    /// Structural invariant checked on every construction (debug builds):
    /// each child is a zero stub, or (at `var == 0`) the terminal, or a
    /// node below this level. Vector diagrams stay dense (children exactly
    /// one level down); matrix children may sit *any* number of levels
    /// down — or be non-zero terminals — with the gap meaning identity on
    /// the skipped qubits.
    fn children_well_formed<const N: usize>(&self, var: Qubit, children: &[Edge<N>; N]) -> bool
    where
        Self: HasStore<N>,
    {
        let skip = N == 4 && self.config.identity_skip;
        children.iter().all(|c| {
            if c.is_zero() || var == 0 {
                c.is_terminal()
            } else if skip {
                c.is_terminal() || self.store().node(c.node).var < var
            } else {
                !c.is_terminal() && self.store().node(c.node).var == var - 1
            }
        })
    }

    /// Rescales an edge by an interned factor, preserving the 0-stub
    /// invariant.
    #[inline]
    pub(crate) fn scale_edge<const N: usize>(&mut self, e: Edge<N>, w: ComplexIdx) -> Edge<N> {
        let weight = self.ctable.mul(e.weight, w);
        if weight.is_zero() {
            Edge::ZERO
        } else {
            Edge::new(e.node, weight)
        }
    }

    /// Whether a new node allocation fits the configured budgets.
    pub(crate) fn check_alloc_budget(&self) -> Result<(), DdError> {
        if self.budget_bypass {
            return Ok(());
        }
        if let Some(max) = self.config.limits.max_nodes {
            let live = self.live_node_estimate();
            if live >= max {
                return Err(DdError::ResourceExhausted {
                    kind: ResourceKind::Nodes,
                    limit: max,
                    used: live,
                });
            }
        }
        if let Some(max) = self.config.limits.max_complex_entries {
            // Weights are interned during normalization, before this check
            // runs, so exhaustion is detected one step late by design.
            let used = self.ctable.len();
            if used > max {
                return Err(DdError::ResourceExhausted {
                    kind: ResourceKind::ComplexEntries,
                    limit: max,
                    used,
                });
            }
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn next_birth(&mut self) -> u64 {
        self.births += 1;
        self.births
    }

    #[inline]
    fn note_live_nodes(&mut self) {
        let live = self.live_node_estimate();
        if live > self.governor.peak_live_nodes {
            self.governor.peak_live_nodes = live;
        }
    }

    // ------------------------------------------------------------------
    // Concrete wrappers (the public API)
    // ------------------------------------------------------------------

    /// Creates (or finds) the canonical vector node `var → children` and
    /// returns the normalized edge pointing at it.
    ///
    /// This is the paper's recursive state-vector decomposition step: both
    /// children must represent the `var`-lower sub-vectors. Returns the
    /// 0-stub when both children are zero.
    ///
    /// # Panics
    ///
    /// Panics when a configured resource budget is exhausted. With the
    /// default (unlimited) [`Limits`](crate::Limits) this never happens;
    /// governed callers use [`Self::try_make_vec_node`].
    pub fn make_vec_node(&mut self, var: Qubit, children: [VecEdge; 2]) -> VecEdge {
        self.try_make_vec_node(var, children)
            .unwrap_or_else(|e| panic!("ungoverned node construction failed: {e}"))
    }

    /// Fallible form of [`Self::make_vec_node`]: node-budget chokepoint of
    /// the governor.
    ///
    /// Finding an existing node never fails; only allocating a *new* one is
    /// checked against [`Limits::max_nodes`](crate::Limits::max_nodes) and
    /// [`Limits::max_complex_entries`](crate::Limits::max_complex_entries).
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] when a budget is spent.
    pub fn try_make_vec_node(
        &mut self,
        var: Qubit,
        children: [VecEdge; 2],
    ) -> Result<VecEdge, DdError> {
        self.try_make_node_generic(var, children)
    }

    /// Creates (or finds) the canonical matrix node `var → children`
    /// (`[U₀₀, U₀₁, U₁₀, U₁₁]`) and returns the normalized edge.
    ///
    /// # Panics
    ///
    /// Panics when a configured resource budget is exhausted (see
    /// [`Self::make_vec_node`]).
    pub fn make_mat_node(&mut self, var: Qubit, children: [MatEdge; 4]) -> MatEdge {
        self.try_make_mat_node(var, children)
            .unwrap_or_else(|e| panic!("ungoverned node construction failed: {e}"))
    }

    /// Fallible form of [`Self::make_mat_node`] (see
    /// [`Self::try_make_vec_node`]).
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] when a budget is spent.
    pub fn try_make_mat_node(
        &mut self,
        var: Qubit,
        children: [MatEdge; 4],
    ) -> Result<MatEdge, DdError> {
        self.try_make_node_generic(var, children)
    }

    /// Rescales a vector edge by an interned factor.
    #[inline]
    pub(crate) fn scale_vec(&mut self, e: VecEdge, w: ComplexIdx) -> VecEdge {
        self.scale_edge(e, w)
    }

    /// Rescales a matrix edge by an interned factor.
    #[inline]
    pub(crate) fn scale_mat(&mut self, e: MatEdge, w: ComplexIdx) -> MatEdge {
        self.scale_edge(e, w)
    }
}

#[cfg(test)]
mod tests {
    use crate::error::{DdError, ResourceKind};
    use crate::limits::Limits;
    use crate::package::{DdPackage, PackageConfig};
    use std::time::Duration;

    fn limited(limits: Limits) -> DdPackage {
        DdPackage::with_config(PackageConfig {
            limits,
            ..PackageConfig::default()
        })
    }

    #[test]
    fn node_budget_rejects_oversized_state() {
        let mut dd = limited(Limits {
            max_nodes: Some(4),
            ..Limits::default()
        });
        assert!(dd.zero_state(4).is_ok(), "4 nodes fit a 4-node budget");
        // A different 8-qubit basis state needs more fresh nodes than remain.
        match dd.basis_state(8, 0b1010_1010) {
            Err(DdError::ResourceExhausted {
                kind: ResourceKind::Nodes,
                limit: 4,
                used,
            }) => {
                assert!(used >= 4);
            }
            other => panic!("expected node-budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn node_budget_allows_unique_table_hits() {
        let mut dd = limited(Limits {
            max_nodes: Some(3),
            ..Limits::default()
        });
        let a = dd.zero_state(3).unwrap();
        // Re-deriving the same state allocates nothing, so it succeeds at
        // the budget ceiling.
        let b = dd.zero_state(3).unwrap();
        assert_eq!(a, b);
        assert!(dd.zero_state(4).is_err());
    }

    #[test]
    fn deadline_unarmed_by_default_even_when_configured() {
        let mut dd = limited(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        });
        // Configuring a deadline alone must not time out setup work.
        assert!(dd.zero_state(8).is_ok());
        assert!(dd.arm_deadline());
        assert!(matches!(
            dd.check_deadline(),
            Err(DdError::DeadlineExceeded { .. })
        ));
        dd.disarm_deadline();
        assert!(dd.check_deadline().is_ok());
    }
}
