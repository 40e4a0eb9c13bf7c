//! Measurement, collapse, sampling and reset on state DDs.
//!
//! Because vector nodes are L2-normalized (every node's sub-vector has unit
//! norm), the squared magnitudes of a node's outgoing weights are exactly
//! the local conditional probabilities — paper footnote 3 and ref \[16\].
//! Sampling a basis state is a single randomized root→terminal walk, and —
//! unlike on real hardware — it is non-destructive: it can be repeated on
//! the same diagram (paper §III-B).

use crate::error::DdError;
use crate::package::DdPackage;
use crate::types::{Qubit, VecEdge, VNodeId};
use qdd_complex::FxHashMap;
use rand::Rng;

/// The result of measuring a single qubit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MeasurementOutcome {
    /// The qubit collapsed to `|0⟩`.
    Zero,
    /// The qubit collapsed to `|1⟩`.
    One,
}

impl MeasurementOutcome {
    /// `true` for [`MeasurementOutcome::One`].
    #[inline]
    pub fn as_bool(self) -> bool {
        matches!(self, MeasurementOutcome::One)
    }

    /// The classical bit value.
    #[inline]
    pub fn as_bit(self) -> u8 {
        self.as_bool() as u8
    }
}

impl From<bool> for MeasurementOutcome {
    fn from(b: bool) -> Self {
        if b {
            MeasurementOutcome::One
        } else {
            MeasurementOutcome::Zero
        }
    }
}

impl std::fmt::Display for MeasurementOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "|{}⟩", self.as_bit())
    }
}

impl DdPackage {
    /// The probability of measuring `|1⟩` on `qubit`, assuming `state` is
    /// normalized.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` exceeds the state's most significant variable.
    pub fn prob_one(&mut self, state: VecEdge, qubit: usize) -> f64 {
        if state.is_zero() {
            return 0.0;
        }
        let top = self
            .vec_var(state)
            .expect("probability of a scalar state");
        assert!(
            qubit <= top as usize,
            "qubit {qubit} out of range for state over {} qubits",
            top + 1
        );
        self.prob_one_unit(state.node, qubit as Qubit)
    }

    fn prob_one_unit(&mut self, n: VNodeId, q: Qubit) -> f64 {
        if n.is_terminal() {
            return 0.0;
        }
        let key = (n, q);
        if self.config.compute_tables {
            if let Some(p) = self.caches.prob_one.get(&key) {
                return p;
            }
        }
        let node = self.vnode(n);
        let w0 = self.complex_value(node.children[0].weight).norm_sqr();
        let w1 = self.complex_value(node.children[1].weight).norm_sqr();
        let c0 = node.children[0].node;
        let c1 = node.children[1].node;
        let p = if node.var == q {
            // Sub-vectors below are unit norm by L2 normalization.
            w1
        } else {
            debug_assert!(node.var > q, "qubit above the node's variable");
            w0 * self.prob_one_unit(c0, q) + w1 * self.prob_one_unit(c1, q)
        };
        if self.config.compute_tables {
            self.caches.prob_one.insert(key, p);
        }
        p
    }

    /// Both outcome probabilities `(p₀, p₁)` for `qubit` — the numbers the
    /// paper's tool shows in its measurement pop-up dialog.
    pub fn qubit_probabilities(&mut self, state: VecEdge, qubit: usize) -> (f64, f64) {
        let p1 = self.prob_one(state, qubit).clamp(0.0, 1.0);
        (1.0 - p1, p1)
    }

    /// Projects `qubit` onto `outcome` and renormalizes — the irreversible
    /// collapse performed when a measurement dialog choice is made.
    ///
    /// # Errors
    ///
    /// [`DdError::ImpossibleOutcome`] if the outcome has probability ≈ 0;
    /// [`DdError::ResourceExhausted`] when the projected diagram does not
    /// fit the node budget.
    pub fn collapse(
        &mut self,
        state: VecEdge,
        qubit: usize,
        outcome: MeasurementOutcome,
    ) -> Result<VecEdge, DdError> {
        let (p0, p1) = self.qubit_probabilities(state, qubit);
        let p = if outcome.as_bool() { p1 } else { p0 };
        if p < self.config.tolerance {
            return Err(DdError::ImpossibleOutcome {
                qubit,
                outcome: outcome.as_bool(),
            });
        }
        let mut memo: FxHashMap<VNodeId, VecEdge> = FxHashMap::default();
        let projected = self.project(state, qubit as Qubit, outcome.as_bool(), &mut memo)?;
        debug_assert!(!projected.is_zero());
        // make_vec_node re-normalized every level; only the root weight's
        // magnitude (√p) remains to be divided out. The phase is kept so
        // collapse is deterministic.
        let w = self.complex_value(projected.weight);
        let weight = self.intern(w / w.abs());
        Ok(VecEdge::new(projected.node, weight))
    }

    fn project(
        &mut self,
        e: VecEdge,
        q: Qubit,
        one: bool,
        memo: &mut FxHashMap<VNodeId, VecEdge>,
    ) -> Result<VecEdge, DdError> {
        if e.is_zero() {
            return Ok(VecEdge::ZERO);
        }
        if let Some(&r) = memo.get(&e.node) {
            return Ok(self.scale_vec(r, e.weight));
        }
        let node = self.vnode(e.node);
        let var = node.var;
        let c = node.children;
        let r = if var == q {
            let kept = if one { c[1] } else { c[0] };
            let children = if one {
                [VecEdge::ZERO, kept]
            } else {
                [kept, VecEdge::ZERO]
            };
            self.make_vec_node(var, children)?
        } else {
            let r0 = self.project(c[0], q, one, memo)?;
            let r1 = self.project(c[1], q, one, memo)?;
            self.make_vec_node(var, [r0, r1])?
        };
        memo.insert(e.node, r);
        Ok(self.scale_vec(r, e.weight))
    }

    /// Measures `qubit`, choosing the outcome at random with the proper
    /// probabilities, and returns `(outcome, p1, collapsed state)`.
    ///
    /// The outcome is `|1⟩` iff one uniform `rng.gen::<f64>()` draw falls
    /// below `p1`, the probability of `|1⟩`; returning that `p1` lets a
    /// caller replay the choice from the same draw (the shot engine's
    /// outcome trie).
    ///
    /// # Errors
    ///
    /// Propagates [`DdError::ImpossibleOutcome`] only in pathological
    /// cases of a non-normalized input state, and
    /// [`DdError::ResourceExhausted`] from the collapse (see
    /// [`Self::collapse`]).
    pub fn measure<R: Rng + ?Sized>(
        &mut self,
        state: VecEdge,
        qubit: usize,
        rng: &mut R,
    ) -> Result<(MeasurementOutcome, f64, VecEdge), DdError> {
        let (_, p1) = self.qubit_probabilities(state, qubit);
        let outcome = MeasurementOutcome::from(rng.gen::<f64>() < p1);
        let collapsed = self.collapse(state, qubit, outcome)?;
        Ok((outcome, p1, collapsed))
    }

    /// Draws one basis state by a randomized single-path traversal
    /// (paper ref \[16\]) **without** collapsing the diagram.
    ///
    /// Returns the sampled basis index (big-endian, bit `q` ↔ qubit `q`).
    pub fn sample_once<R: Rng + ?Sized>(&self, state: VecEdge, rng: &mut R) -> u64 {
        let mut index = 0u64;
        let mut node = state.node;
        while !node.is_terminal() {
            let n = self.vnode(node);
            let p1 = self.complex_value(n.children[1].weight).norm_sqr();
            let take_one = rng.gen::<f64>() < p1;
            let child = if take_one {
                index |= 1 << n.var;
                n.children[1]
            } else {
                n.children[0]
            };
            node = child.node;
        }
        index
    }

    /// Draws `shots` samples, returning a basis-index → count histogram.
    ///
    /// Because classical sampling is non-destructive, all shots reuse the
    /// same diagram — the point the paper makes in §III-B.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        state: VecEdge,
        shots: u64,
        rng: &mut R,
    ) -> FxHashMap<u64, u64> {
        let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
        for _ in 0..shots {
            *counts.entry(self.sample_once(state, rng)).or_insert(0) += 1;
        }
        counts
    }

    /// Resets `qubit` to `|0⟩` given the branch `observed` chosen for the
    /// probabilistic reset (paper §IV-B): the other branch is discarded and,
    /// if the observed branch was `|1⟩`, it is relabelled as `|0⟩`.
    ///
    /// # Errors
    ///
    /// [`DdError::ImpossibleOutcome`] if the observed branch has
    /// probability ≈ 0.
    pub fn reset_with_outcome(
        &mut self,
        state: VecEdge,
        qubit: usize,
        observed: MeasurementOutcome,
    ) -> Result<VecEdge, DdError> {
        let collapsed = self.collapse(state, qubit, observed)?;
        if observed.as_bool() {
            // Relabel |1⟩ branch as |0⟩: apply X.
            self.apply_gate(collapsed, crate::gates::X, &[], qubit)
        } else {
            Ok(collapsed)
        }
    }

    /// Resets `qubit` to `|0⟩`, drawing the discarded branch at random, and
    /// returns `(observed branch, p1, reset state)`. The branch is chosen
    /// from one uniform draw exactly as in [`Self::measure`].
    ///
    /// # Errors
    ///
    /// Propagates [`DdError`] from the underlying collapse.
    pub fn reset<R: Rng + ?Sized>(
        &mut self,
        state: VecEdge,
        qubit: usize,
        rng: &mut R,
    ) -> Result<(MeasurementOutcome, f64, VecEdge), DdError> {
        let (_, p1) = self.qubit_probabilities(state, qubit);
        let observed = MeasurementOutcome::from(rng.gen::<f64>() < p1);
        let reset = self.reset_with_outcome(state, qubit, observed)?;
        Ok((observed, p1, reset))
    }

    /// The full probability distribution over basis states (dense; only for
    /// small registers).
    ///
    /// # Panics
    ///
    /// Panics for registers above 20 qubits.
    pub fn probabilities(&self, state: VecEdge, n: usize) -> Vec<f64> {
        assert!(n <= 20, "dense probabilities limited to 20 qubits");
        let dense = self.to_dense_vector(state, n);
        dense.iter().map(|a| a.norm_sqr()).collect()
    }

    /// All basis states with non-zero amplitude, without densifying.
    /// Intended for sparse states.
    ///
    /// Each shared node is processed once (memoized post-order over the
    /// diagram, not per root→terminal path): a node's index list is its
    /// `|0⟩` child's list followed by the `|1⟩` child's list with the
    /// node's bit set. Children decide on strictly lower variables, so the
    /// concatenation is already sorted.
    pub fn nonzero_basis_states(&self, state: VecEdge) -> Vec<u64> {
        use crate::traverse::Traversable;
        if state.is_zero() {
            return Vec::new();
        }
        if state.is_terminal() {
            return vec![0];
        }
        let mut memo: FxHashMap<u32, Vec<u64>> = FxHashMap::default();
        self.visit_postorder(state, |id, n| {
            let mut list: Vec<u64> = Vec::new();
            for (bit, c) in [(0u64, n.children[0]), (1 << n.var, n.children[1])] {
                if c.is_zero() {
                    continue;
                }
                if c.is_terminal() {
                    list.push(bit);
                    continue;
                }
                list.extend(memo[&c.node.raw()].iter().map(|x| x | bit));
            }
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted paths");
            memo.insert(id.raw(), list);
        });
        memo.remove(&state.node.raw()).expect("root memoized")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gates, Control};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bell(dd: &mut DdPackage) -> VecEdge {
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap()
    }

    /// Paper Example 2: measuring one qubit of the Bell state yields |0⟩ in
    /// 50% of the cases, and the other qubit is then fully determined.
    #[test]
    fn bell_measurement_statistics_and_entanglement() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let (p0, p1) = dd.qubit_probabilities(b, 0);
        assert!((p0 - 0.5).abs() < 1e-12);
        assert!((p1 - 0.5).abs() < 1e-12);

        // Collapse q0 to |1⟩ → state must be |11⟩ (Fig. 8(d)).
        let after = dd.collapse(b, 0, MeasurementOutcome::One).unwrap();
        let expect = dd.basis_state(2, 0b11).unwrap();
        assert_eq!(after, expect);
        // And q1 is now deterministic.
        let (q1_p0, q1_p1) = dd.qubit_probabilities(after, 1);
        assert!(q1_p0 < 1e-12);
        assert!((q1_p1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_impossible_outcome_errors() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(2).unwrap();
        assert!(matches!(
            dd.collapse(s, 0, MeasurementOutcome::One),
            Err(DdError::ImpossibleOutcome { qubit: 0, outcome: true })
        ));
    }

    #[test]
    fn collapse_preserves_normalization() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(3).unwrap();
        for q in 0..3 {
            s = dd.apply_gate(s, gates::ry(0.3 + q as f64), &[], q).unwrap();
        }
        let c = dd.collapse(s, 1, MeasurementOutcome::Zero).unwrap();
        assert!((dd.vec_norm(c).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sampling_bell_only_yields_00_and_11() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let mut rng = SmallRng::seed_from_u64(42);
        let counts = dd.sample(b, 2000, &mut rng);
        assert_eq!(counts.keys().filter(|&&k| k != 0 && k != 3).count(), 0);
        let c00 = *counts.get(&0).unwrap_or(&0) as f64;
        let c11 = *counts.get(&3).unwrap_or(&0) as f64;
        assert!((c00 / 2000.0 - 0.5).abs() < 0.05);
        assert!((c11 / 2000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn sampling_is_non_destructive() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = dd.sample(b, 100, &mut rng);
        // The diagram is unchanged; probabilities still 50/50.
        let (p0, _) = dd.qubit_probabilities(b, 0);
        assert!((p0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measure_collapses_consistently() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let mut rng = SmallRng::seed_from_u64(1);
        let (outcome, p1, after) = dd.measure(b, 0, &mut rng).unwrap();
        assert!((p1 - 0.5).abs() < 1e-12);
        let expect = if outcome.as_bool() {
            dd.basis_state(2, 0b11).unwrap()
        } else {
            dd.basis_state(2, 0b00).unwrap()
        };
        assert_eq!(after, expect);
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        for observed in [MeasurementOutcome::Zero, MeasurementOutcome::One] {
            let after = dd.reset_with_outcome(b, 0, observed).unwrap();
            let (p0, _) = dd.qubit_probabilities(after, 0);
            assert!((p0 - 1.0).abs() < 1e-12, "q0 must be |0⟩ after reset");
            // q1 keeps the branch value.
            let (q1_p0, _) = dd.qubit_probabilities(after, 1);
            if observed.as_bool() {
                assert!(q1_p0 < 1e-12);
            } else {
                assert!((q1_p0 - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(4).unwrap();
        for q in 0..4 {
            s = dd.apply_gate(s, gates::H, &[], q).unwrap();
        }
        let probs = dd.probabilities(s, 4);
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        for p in probs {
            assert!((p - 1.0 / 16.0).abs() < 1e-10);
        }
    }

    #[test]
    fn nonzero_basis_states_of_bell() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        assert_eq!(dd.nonzero_basis_states(b), vec![0b00, 0b11]);
    }

    #[test]
    fn prob_one_rejects_out_of_range_qubit() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(2).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut dd2 = dd.clone();
            dd2.prob_one(s, 5)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn outcome_conversions() {
        assert_eq!(MeasurementOutcome::from(true), MeasurementOutcome::One);
        assert_eq!(MeasurementOutcome::Zero.as_bit(), 0);
        assert_eq!(MeasurementOutcome::One.to_string(), "|1⟩");
    }
}
