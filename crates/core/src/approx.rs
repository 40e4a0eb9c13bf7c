//! Fidelity-bounded state approximation — the degradation rung between
//! pressure-GC and dense fallback.
//!
//! The paper's premise is that diagram *size*, not qubit count, is the real
//! resource; "Approximation of Quantum States Using Decision Diagrams"
//! (Zulehner, Hillmich, Wille — arXiv 2002.04904) adds the missing escape
//! hatch when that size blows a budget: prune the parts of the state that
//! carry the least probability mass, for an exponential size reduction at a
//! *bounded, measurable* fidelity cost. This module implements both of the
//! paper's strategies over the vector store:
//!
//! * **Fidelity-budget pruning** ([`DdPackage::prune_to_fidelity`]) — a
//!   one-shot pass that computes every reachable node's contribution (the
//!   total `|amplitude|²` mass routed through it), then removes the cheapest
//!   subtrees until the removed mass reaches the budget `1 − f_min`,
//!   renormalizing the root.
//! * **Threshold contraction** ([`DdPackage::contract_threshold`]) — zeroes
//!   every edge whose contribution falls below `ε`; cheap enough to run
//!   incrementally between applies.
//!
//! # Soundness of the bound
//!
//! Vector nodes are L2-normalized: every node's sub-vector has unit norm,
//! so the mass routed through a node equals its *contribution*: the sum
//! over root→node path prefixes of the squared prefix-weight products.
//! Each computational basis state follows exactly one root→terminal path,
//! so pruning a node (or zeroing an edge) deletes
//! the amplitudes of a *disjoint* set of basis states — an orthogonal
//! component of the state whose total mass is at most the summed
//! contributions of everything pruned. Selection therefore budgets against
//! that Σ (conservative: nested prunes double-count), while the
//! [`ApproxReport::fidelity_lower_bound`] both entry points report is read
//! off the rebuilt state's norm, which measures the removed mass *exactly*:
//! `|⟨ψ|ψ̃⟩|² = 1 − removed mass = (‖ψ̃‖/‖ψ‖)²` for the renormalized `ψ̃`.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::traverse::Traversable;
use crate::types::{Qubit, VecEdge};
use qdd_complex::{Complex, FxHashMap};

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
    /// Conservative total `|amplitude|²` mass removed (the Σ the bound is
    /// derived from; the mass actually lost never exceeds it).
    pub removed_mass: f64,
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
            removed_mass: 0.0,
            rounds: 0,
        }
    }

    /// Nodes shed by the pass.
    pub fn nodes_removed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

/// Decides what an edge of the original diagram becomes in the rebuilt one.
enum EdgeFate {
    Keep,
    Zero,
}

impl DdPackage {
    /// One-shot fidelity-budget pruning: removes the lowest-contribution
    /// subtrees of `state` until the removed mass would exceed
    /// `1 − min_fidelity`, then renormalizes. The returned state has the
    /// same norm as the input and satisfies
    /// `|⟨state|returned⟩|² ≥ fidelity_lower_bound ≥ min_fidelity`.
    ///
    /// `min_fidelity = 1.0` (or anything above) is a structural no-op: the
    /// input edge is returned bit-identically.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] when rebuilding the pruned diagram
    /// itself runs out of node budget (callers under pressure should GC and
    /// fall through to their next degradation rung).
    pub fn prune_to_fidelity(
        &mut self,
        state: VecEdge,
        min_fidelity: f64,
    ) -> Result<(VecEdge, ApproxReport), DdError> {
        self.prune_to_node_target(state, min_fidelity, None)
    }

    /// [`Self::prune_to_fidelity`] with an early stop: selection ends as
    /// soon as the projected reachable-node count drops to `node_target`,
    /// even if fidelity budget remains — so a driver pruning in rounds can
    /// spread one cumulative budget across several pressure events instead
    /// of spending it all on the first.
    ///
    /// # Errors
    ///
    /// As [`Self::prune_to_fidelity`].
    pub fn prune_to_node_target(
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
        let span = qdd_telemetry::span("core.approx");
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
        let mut removed: FxHashMap<u32, ()> = FxHashMap::default();
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
            removed.insert(raw, ());
        }
        if removed.is_empty() {
            drop(span);
            return Ok((state, ApproxReport::noop(nodes_before)));
        }
        let rebuilt =
            self.rebuild_pruned(state, |parent, _slot, child| match child {
                Some(raw) if removed.contains_key(&raw) => EdgeFate::Zero,
                _ if removed.contains_key(&parent) => EdgeFate::Zero,
                _ => EdgeFate::Keep,
            })?;
        let report = self.finish_report(state, rebuilt, nodes_before, removed_mass);
        Ok(report)
    }

    /// Threshold contraction: zeroes every edge whose contribution — the
    /// mass of the basis states routed through it — falls below `epsilon`,
    /// then renormalizes. Cheap enough to repeat between applies; the
    /// removed mass (and hence the fidelity loss) is bounded by the summed
    /// contributions of the zeroed edges and reported exactly like
    /// [`Self::prune_to_fidelity`].
    ///
    /// # Errors
    ///
    /// [`DdError::ZeroVector`] when `epsilon` is large enough to zero every
    /// surviving path (choose `epsilon < 0.5` to make the root always keep
    /// its heavier branch), and [`DdError::ResourceExhausted`] as for
    /// [`Self::prune_to_fidelity`].
    pub fn contract_threshold(
        &mut self,
        state: VecEdge,
        epsilon: f64,
    ) -> Result<(VecEdge, ApproxReport), DdError> {
        let nodes_before = self.vec_node_count(state);
        if state.is_terminal() || epsilon <= 0.0 {
            return Ok((state, ApproxReport::noop(nodes_before)));
        }
        let _span = qdd_telemetry::span("core.approx");
        let contribution = self.vec_contributions(state);

        // Collect doomed edges first (with their masses), then rebuild.
        let mut removed_mass = 0.0f64;
        let mut zeroed: FxHashMap<(u32, usize), ()> = FxHashMap::default();
        self.visit_preorder(state, |id, n| {
            let parent_mass = contribution[&id.raw()];
            for (slot, c) in n.children.iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let mass = parent_mass * self.complex_value(c.weight).norm_sqr();
                if mass < epsilon {
                    removed_mass += mass;
                    zeroed.insert((id.raw(), slot), ());
                }
            }
        });
        if zeroed.is_empty() {
            return Ok((state, ApproxReport::noop(nodes_before)));
        }
        let rebuilt = self.rebuild_pruned(state, |parent, slot, _child| {
            if zeroed.contains_key(&(parent, slot)) {
                EdgeFate::Zero
            } else {
                EdgeFate::Keep
            }
        })?;
        if rebuilt.is_zero() {
            return Err(DdError::ZeroVector);
        }
        let report = self.finish_report(state, rebuilt, nodes_before, removed_mass);
        Ok(report)
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

    /// Rebuilds `state` bottom-up, replacing each edge `fate` dooms with the
    /// zero stub. Nodes whose children all vanish collapse to zero stubs in
    /// their parents (canonical construction handles the cascade). The
    /// returned edge is *not* renormalized.
    ///
    /// The rebuild allocates with the node budget bypassed: pruning is the
    /// *response* to an exhausted allocator, so it must be able to run while
    /// the allocator is exhausted. Most rebuilt nodes dedupe onto existing
    /// ones; the overshoot is transient (bounded by the reachable set being
    /// shrunk) and callers collect garbage right after adopting the result.
    fn rebuild_pruned(
        &mut self,
        state: VecEdge,
        fate: impl Fn(u32, usize, Option<u32>) -> EdgeFate,
    ) -> Result<VecEdge, DdError> {
        let mut order: Vec<(u32, Qubit, [VecEdge; 2])> = Vec::new();
        self.visit_postorder(state, |id, n| order.push((id.raw(), n.var, n.children)));
        let mut rebuilt: FxHashMap<u32, VecEdge> = FxHashMap::default();
        self.budget_bypass = true;
        let mut outcome = Ok(());
        'rebuild: for (raw, var, children) in order {
            let mut new_children = [VecEdge::ZERO; 2];
            for (slot, c) in children.into_iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let child_raw = (!c.is_terminal()).then(|| c.node.raw());
                if matches!(fate(raw, slot, child_raw), EdgeFate::Zero) {
                    continue;
                }
                new_children[slot] = match child_raw {
                    None => c,
                    Some(cr) => match rebuilt.get(&cr) {
                        // Child pruned as a whole node (or fully vanished).
                        None => VecEdge::ZERO,
                        Some(&sub) => self.scale_vec(sub, c.weight),
                    },
                };
            }
            match self.make_vec_node(var, new_children) {
                Ok(e) if !e.is_zero() => {
                    rebuilt.insert(raw, e);
                }
                Ok(_) => {}
                Err(e) => {
                    outcome = Err(e);
                    break 'rebuild;
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
        removed_mass: f64,
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
        qdd_telemetry::emit("core.approx")
            .field("nodes_before", nodes_before)
            .field("nodes_after", nodes_after)
            .field("fidelity_lower_bound", bound);
        (
            renormalized,
            ApproxReport {
                fidelity_lower_bound: bound,
                nodes_before,
                nodes_after,
                removed_mass,
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
        let (pruned, report) = dd.prune_to_fidelity(s, 1.0).unwrap();
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
        let (pruned, report) = dd.prune_to_fidelity(s, 0.8).unwrap();
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
        let (_, unbounded) = dd.prune_to_fidelity(s, 0.5).unwrap();
        let (_, targeted) = dd
            .prune_to_node_target(s, 0.5, Some(nodes - 1))
            .unwrap();
        assert!(targeted.removed_mass <= unbounded.removed_mass);
        assert!(targeted.fidelity_lower_bound >= unbounded.fidelity_lower_bound);
    }

    #[test]
    fn threshold_contraction_zeroes_small_edges() {
        let mut dd = DdPackage::new();
        let s = lopsided_state(&mut dd);
        dd.inc_ref_vec(s);
        let (contracted, report) = dd.contract_threshold(s, 0.02).unwrap();
        assert!(report.nodes_after <= report.nodes_before);
        let exact = dd.fidelity(s, contracted).unwrap();
        assert!(
            report.fidelity_lower_bound <= exact + 1e-9,
            "bound {} exceeds exact fidelity {exact}",
            report.fidelity_lower_bound
        );
        assert!((dd.vec_norm(contracted).unwrap() - 1.0).abs() < 1e-9);
        // A threshold below every edge mass is a no-op.
        let (same, noop) = dd.contract_threshold(s, 1e-30).unwrap();
        assert_eq!(same, s);
        assert_eq!(noop.rounds, 0);
    }

    #[test]
    fn overeager_threshold_reports_zero_vector() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(3).unwrap();
        for q in 0..3 {
            s = dd.apply_gate(s, gates::H, &[], q).unwrap();
        }
        // Uniform state: every edge mass < 0.9, so everything vanishes.
        assert!(matches!(
            dd.contract_threshold(s, 0.9),
            Err(DdError::ZeroVector)
        ));
    }

    #[test]
    fn basis_state_survives_any_budget() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state(5, 0b10110).unwrap();
        let (pruned, report) = dd.prune_to_fidelity(s, 0.01).unwrap();
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
        let (pruned, _) = dd.prune_to_fidelity(s, 0.7).unwrap();
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
