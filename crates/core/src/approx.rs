//! Fidelity-bounded state approximation — the degradation rung between
//! pressure-GC and the typed resource error.
//!
//! The paper's premise is that diagram *size*, not qubit count, is the real
//! resource; "Approximation of Quantum States Using Decision Diagrams"
//! (Zulehner, Hillmich, Markov, Wille — arXiv 2002.04904) adds the missing
//! escape hatch when that size blows a budget: prune the parts of the state
//! that carry the least probability mass, for an exponential size reduction
//! at a *bounded, measurable* fidelity cost. [`DdPackage::prune_to_fidelity`]
//! is the one entry: it computes every reachable node's contribution (the
//! total `|amplitude|²` mass routed through it), removes the cheapest whole
//! nodes until the removed mass reaches the budget `1 − f_min` or the
//! diagram is down to an optional node target, and renormalizes the root.
//!
//! # Soundness of the bound
//!
//! Vector nodes are L2-normalized: every node's sub-vector has unit norm,
//! so the mass routed through a node equals its *contribution*: the sum
//! over root→node path prefixes of the squared prefix-weight products.
//! Each computational basis state follows exactly one root→terminal path,
//! so pruning a node deletes the amplitudes of a *disjoint* set of basis
//! states — an orthogonal component of the state whose total mass is at
//! most the summed contributions of everything pruned. Selection therefore
//! budgets against that Σ (conservative: nested prunes double-count), while
//! the reported [`ApproxReport::fidelity_lower_bound`] is read off the
//! rebuilt state's norm, which measures the removed mass *exactly*:
//! `|⟨ψ|ψ̃⟩|² = 1 − removed mass = (‖ψ̃‖/‖ψ‖)²` for the renormalized `ψ̃`.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::traverse::Traversable;
use crate::types::{Qubit, VecEdge};
use qdd_complex::{Complex, FxHashMap, FxHashSet};

/// What one approximation pass did to the state.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ApproxReport {
    /// Sound lower bound on `|⟨ψ|ψ̃⟩|²` between the original and the pruned,
    /// renormalized state. `1.0` when the pass was a no-op.
    pub fidelity_lower_bound: f64,
    /// Reachable nodes of the state before the pass.
    pub nodes_before: usize,
    /// Reachable nodes of the returned state.
    pub nodes_after: usize,
    /// Pruning rounds this report covers: `1` for a pass that changed the
    /// state, `0` for a no-op. Drivers accumulate reports across rounds.
    pub rounds: usize,
}

impl ApproxReport {
    /// A report for a pass that left `state` untouched.
    fn noop(nodes: usize) -> Self {
        ApproxReport {
            fidelity_lower_bound: 1.0,
            nodes_before: nodes,
            nodes_after: nodes,
            rounds: 0,
        }
    }

    /// Nodes shed by the pass.
    pub fn nodes_removed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

impl DdPackage {
    /// Fidelity-budget pruning: removes the lowest-contribution nodes of
    /// `state` until the removed mass would exceed `1 − min_fidelity`, then
    /// renormalizes. The returned state has the same norm as the input and
    /// satisfies `|⟨state|returned⟩|² ≥ fidelity_lower_bound ≥ min_fidelity`.
    ///
    /// With `node_target = Some(n)` selection also stops as soon as the
    /// projected reachable-node count drops to `n`, even if fidelity budget
    /// remains — so a driver pruning in rounds can spread one cumulative
    /// budget across several pressure events instead of spending it all on
    /// the first.
    ///
    /// `min_fidelity = 1.0` (or anything above) is a structural no-op: the
    /// input edge is returned bit-identically.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] when rebuilding the pruned diagram
    /// itself runs out of node budget (callers under pressure should GC and
    /// give up with the budget's error).
    pub fn prune_to_fidelity(
        &mut self,
        state: VecEdge,
        min_fidelity: f64,
        node_target: Option<usize>,
    ) -> Result<(VecEdge, ApproxReport), DdError> {
        let nodes_before = self.vec_node_count(state);
        // Clamp to (0, 1]: a budget of 1 could legally delete every path.
        let budget = (1.0 - min_fidelity).min(1.0 - 1e-9);
        if state.is_terminal() || budget <= 0.0 {
            return Ok((state, ApproxReport::noop(nodes_before)));
        }
        let _span = qdd_telemetry::span("core.approx");
        let contribution = self.vec_contributions(state);

        // Cheapest-first greedy selection of whole nodes. The root is never
        // a candidate (its contribution is 1), so the pruned state cannot
        // vanish: removed mass ≤ budget < 1 leaves surviving paths.
        let mut candidates: Vec<(u32, f64)> = contribution
            .iter()
            .filter(|&(&raw, _)| raw != state.node.raw())
            .map(|(&raw, &c)| (raw, c))
            .collect();
        candidates.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut removed: FxHashSet<u32> = FxHashSet::default();
        let mut removed_mass = 0.0f64;
        for (raw, c) in candidates {
            if let Some(target) = node_target {
                if nodes_before - removed.len() <= target {
                    break;
                }
            }
            if removed_mass + c > budget {
                // Sorted ascending: nothing further fits either.
                break;
            }
            removed_mass += c;
            removed.insert(raw);
        }
        if removed.is_empty() {
            return Ok((state, ApproxReport::noop(nodes_before)));
        }
        let rebuilt = self.rebuild_pruned(state, &removed)?;
        Ok(self.finish_report(state, rebuilt, nodes_before))
    }

    /// Top-down contribution pass: for every reachable node, the total
    /// probability mass of the basis states routed through it, as a fraction
    /// of the state's own norm² (the root maps to 1.0).
    ///
    /// The diagram is strictly leveled (children sit exactly one variable
    /// down), so a BFS visits every parent before any child and each node's
    /// accumulated sum is final when its own edges are expanded.
    fn vec_contributions(&self, state: VecEdge) -> FxHashMap<u32, f64> {
        let mut contribution: FxHashMap<u32, f64> = FxHashMap::default();
        contribution.insert(state.node.raw(), 1.0);
        self.visit_bfs(state, |id, n| {
            let mass = contribution[&id.raw()];
            for c in &n.children {
                if c.is_zero() || c.is_terminal() {
                    continue;
                }
                let w = self.complex_value(c.weight).norm_sqr();
                *contribution.entry(c.node.raw()).or_insert(0.0) += mass * w;
            }
        });
        contribution
    }

    /// Rebuilds `state` bottom-up without the `removed` nodes: every edge
    /// into a removed node becomes the zero stub. Nodes whose children all
    /// vanish collapse to zero stubs in their parents (canonical
    /// construction handles the cascade). The returned edge is *not*
    /// renormalized.
    ///
    /// The rebuild allocates with the node budget bypassed: pruning is the
    /// *response* to an exhausted allocator, so it must be able to run while
    /// the allocator is exhausted. Most rebuilt nodes dedupe onto existing
    /// ones; the overshoot is transient (bounded by the reachable set being
    /// shrunk) and callers collect garbage right after adopting the result.
    fn rebuild_pruned(
        &mut self,
        state: VecEdge,
        removed: &FxHashSet<u32>,
    ) -> Result<VecEdge, DdError> {
        let mut order: Vec<(u32, Qubit, [VecEdge; 2])> = Vec::new();
        self.visit_postorder(state, |id, n| order.push((id.raw(), n.var, n.children)));
        let mut rebuilt: FxHashMap<u32, VecEdge> = FxHashMap::default();
        self.budget_bypass = true;
        let mut outcome = Ok(());
        for (raw, var, children) in order {
            if removed.contains(&raw) {
                continue;
            }
            let mut new_children = [VecEdge::ZERO; 2];
            for (slot, c) in children.into_iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                new_children[slot] = if c.is_terminal() {
                    c
                } else {
                    match rebuilt.get(&c.node.raw()) {
                        // Child removed, or vanished in the cascade.
                        None => VecEdge::ZERO,
                        Some(&sub) => self.scale_vec(sub, c.weight),
                    }
                };
            }
            match self.make_vec_node(var, new_children) {
                Ok(e) if !e.is_zero() => {
                    rebuilt.insert(raw, e);
                }
                Ok(_) => {}
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.budget_bypass = false;
        outcome?;
        Ok(match rebuilt.get(&state.node.raw()) {
            None => VecEdge::ZERO,
            Some(&root) => self.scale_vec(root, state.weight),
        })
    }

    /// Renormalizes the rebuilt state to the original norm and assembles the
    /// report.
    ///
    /// The reported bound comes from the rebuilt norm, not from the
    /// selection's Σ of contributions: pruning deletes a set of complete
    /// root→terminal paths, i.e. an *orthogonal* component of the state, so
    /// `(‖ψ̃‖/‖ψ‖)²` equals `|⟨ψ|ψ̃⟩|²` exactly (up to float rounding). The
    /// Σ overcounts whenever a selected node sits under another selected
    /// node — good enough to keep the greedy selection conservative,
    /// hopeless as an account balance: drivers that track a cumulative
    /// budget across rounds would book mass that was never actually spent.
    fn finish_report(
        &mut self,
        original: VecEdge,
        rebuilt: VecEdge,
        nodes_before: usize,
    ) -> (VecEdge, ApproxReport) {
        debug_assert!(!rebuilt.is_zero(), "pruning must leave surviving paths");
        // Under L2 the root weight's magnitude *is* the state's norm.
        let norm_before = self.complex_value(original.weight).abs();
        let norm_after = self.complex_value(rebuilt.weight).abs();
        let ratio = if norm_before > 0.0 {
            (norm_after / norm_before).powi(2)
        } else {
            1.0
        };
        let bound = ratio.clamp(0.0, 1.0);
        let factor = self.intern(Complex::real(norm_before / norm_after));
        let renormalized = self.scale_vec(rebuilt, factor);
        let nodes_after = self.vec_node_count(renormalized);
        (
            renormalized,
            ApproxReport {
                fidelity_lower_bound: bound,
                nodes_before,
                nodes_after,
                rounds: 1,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    /// An entangled, non-uniform 6-qubit state with a spread of node
    /// contributions.
    fn lopsided_state(dd: &mut DdPackage) -> VecEdge {
        let mut s = dd.zero_state(6).unwrap();
        for q in 0..6 {
            s = dd
                .apply_gate(s, gates::ry(0.3 + 0.37 * q as f64), &[], q)
                .unwrap();
        }
        for q in 0..5 {
            s = dd
                .apply_gate(s, gates::X, &[crate::Control::pos(q)], q + 1)
                .unwrap();
        }
        for q in 0..6 {
            s = dd
                .apply_gate(s, gates::rz(0.1 + 0.2 * q as f64), &[], q)
                .unwrap();
        }
        s
    }

    #[test]
    fn min_fidelity_one_is_bit_identical_noop() {
        let mut dd = DdPackage::new();
        let s = lopsided_state(&mut dd);
        let (pruned, report) = dd.prune_to_fidelity(s, 1.0, None).unwrap();
        assert_eq!(pruned, s, "f_min = 1 must return the exact same edge");
        assert_eq!(report.fidelity_lower_bound, 1.0);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.nodes_before, report.nodes_after);
    }

    #[test]
    fn pruning_respects_the_budget_and_shrinks() {
        let mut dd = DdPackage::new();
        let s = lopsided_state(&mut dd);
        dd.inc_ref_vec(s);
        let (pruned, report) = dd.prune_to_fidelity(s, 0.8, None).unwrap();
        assert!(report.nodes_after < report.nodes_before, "{report:?}");
        assert!(report.fidelity_lower_bound >= 0.8, "{report:?}");
        // The bound never overstates the true fidelity.
        let exact = dd.fidelity(s, pruned).unwrap();
        assert!(
            report.fidelity_lower_bound <= exact + 1e-9,
            "bound {} exceeds exact fidelity {exact}",
            report.fidelity_lower_bound
        );
        // Pruned states stay normalized.
        assert!((dd.vec_norm(pruned).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn node_target_stops_early_and_preserves_budget() {
        let mut dd = DdPackage::new();
        let s = lopsided_state(&mut dd);
        let nodes = dd.vec_node_count(s);
        let (_, unbounded) = dd.prune_to_fidelity(s, 0.5, None).unwrap();
        let (_, targeted) = dd.prune_to_fidelity(s, 0.5, Some(nodes - 1)).unwrap();
        assert_eq!(targeted.rounds, 1, "{targeted:?}");
        assert!(targeted.fidelity_lower_bound >= unbounded.fidelity_lower_bound);
    }

    #[test]
    fn basis_state_survives_any_budget() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state(5, 0b10110).unwrap();
        let (pruned, report) = dd.prune_to_fidelity(s, 0.01, None).unwrap();
        // A basis state routes all mass down one path: nothing is cheap
        // enough to prune within a budget < 1.
        assert_eq!(pruned, s);
        assert_eq!(report.fidelity_lower_bound, 1.0);
    }

    #[test]
    fn pruned_amplitudes_are_a_masked_rescale() {
        let mut dd = DdPackage::new();
        let s = lopsided_state(&mut dd);
        dd.inc_ref_vec(s);
        let before = dd.to_dense_vector(s, 6);
        let (pruned, _) = dd.prune_to_fidelity(s, 0.7, None).unwrap();
        let after = dd.to_dense_vector(pruned, 6);
        // Each surviving amplitude is the original scaled by one global
        // positive factor; removed ones are exactly zero.
        let scale = after
            .iter()
            .zip(&before)
            .find(|(a, _)| a.norm_sqr() > 1e-18)
            .map(|(a, b)| (a.norm_sqr() / b.norm_sqr()).sqrt())
            .expect("a pruned state keeps at least one amplitude");
        assert!(scale >= 1.0, "renormalization must boost survivors");
        for (a, b) in after.iter().zip(&before) {
            if a.norm_sqr() <= 1e-18 {
                continue;
            }
            assert!(
                a.approx_eq(*b * Complex::real(scale), 1e-9),
                "surviving amplitude not a uniform rescale: {a:?} vs {b:?}"
            );
        }
    }
}
