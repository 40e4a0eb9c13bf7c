//! Probability-memoized batch sampling over a fixed state DD.
//!
//! [`DdPackage::sample_once`](crate::DdPackage::sample_once) recomputes
//! `|w₁|²` of the 1-child weight at every node on every shot — a complex
//! table read plus two multiplications per level per shot. When many shots
//! are drawn from the *same* diagram (the common shot-engine regimes), that
//! work is invariant across shots. A [`SamplingTableau`] hoists it: one
//! post-order pass over the reachable nodes flattens the diagram into a
//! compact array of `(variable, P(1-branch), child indices)` records, and
//! each subsequent shot is a pure index walk — no unique-table, arena, or
//! complex-table access, one uniform draw and one `Vec` read per level.
//!
//! The tableau borrows nothing from the package: it is a self-contained
//! snapshot, so shots can be drawn long after (or while) the package mutates
//! — the non-destructive repeated sampling the paper highlights in §III-B,
//! made batch-friendly.

use crate::package::DdPackage;
use crate::traverse::Traversable;
use crate::types::VecEdge;
use qdd_complex::FxHashMap;
use rand::Rng;

/// Compact index of a tableau node; `TERMINAL` marks the walk's end.
const TERMINAL: u32 = u32::MAX;

/// One flattened node: everything a sampling walk needs, in 16 bytes.
#[derive(Copy, Clone, Debug)]
struct TabNode {
    /// Probability of the `|1⟩` branch — `|w₁|²` under L2 normalization.
    p1: f64,
    /// Tableau indices of the `|0⟩` / `|1⟩` children (`TERMINAL` ends the
    /// walk; a zero-stub child is also `TERMINAL` but carries `p = 0`, so
    /// it is never taken).
    children: [u32; 2],
    /// The node's qubit — the bit set in the sampled index on a `|1⟩` step.
    var: u8,
}

/// A frozen, memoized view of one state DD for repeated basis-state
/// sampling.
///
/// Build once with [`DdPackage::sampling_tableau`], then draw any number of
/// shots with [`sample_once`](SamplingTableau::sample_once) /
/// [`sample`](SamplingTableau::sample). Given the same RNG stream, the
/// drawn samples are **bit-identical** to
/// [`DdPackage::sample_once`](crate::DdPackage::sample_once): both consume
/// exactly one uniform per non-terminal node on the path and compare it
/// against the same `|w₁|²`.
#[derive(Clone, Debug)]
pub struct SamplingTableau {
    nodes: Vec<TabNode>,
    /// Entry point of every walk (`TERMINAL` for scalar/zero states).
    root: u32,
}

impl SamplingTableau {
    /// The number of distinct nodes captured from the diagram.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Draws one basis state (big-endian, bit `q` ↔ qubit `q`) by a
    /// randomized root→terminal walk over the memoized records.
    pub fn sample_once<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut index = 0u64;
        let mut at = self.root;
        while at != TERMINAL {
            let n = self.nodes[at as usize];
            if rng.gen::<f64>() < n.p1 {
                index |= 1 << n.var;
                at = n.children[1];
            } else {
                at = n.children[0];
            }
        }
        index
    }

    /// Draws `shots` samples into a basis-index → count histogram.
    pub fn sample<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> FxHashMap<u64, u64> {
        let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
        self.sample_into(shots, rng, &mut counts);
        counts
    }

    /// Draws `shots` samples, accumulating into an existing histogram.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        shots: u64,
        rng: &mut R,
        counts: &mut FxHashMap<u64, u64>,
    ) {
        for _ in 0..shots {
            *counts.entry(self.sample_once(rng)).or_insert(0) += 1;
        }
    }
}

impl DdPackage {
    /// Flattens the diagram under `state` into a [`SamplingTableau`]: one
    /// post-order pass computes every reachable node's 1-branch probability
    /// `|w₁|²` so per-shot walks touch only the tableau.
    pub fn sampling_tableau(&self, state: VecEdge) -> SamplingTableau {
        if state.is_terminal() {
            return SamplingTableau {
                nodes: Vec::new(),
                root: TERMINAL,
            };
        }
        let mut nodes: Vec<TabNode> = Vec::new();
        // Arena slot → tableau index; the only hashing left, paid once at
        // build time instead of on every shot.
        let mut index_of: FxHashMap<u32, u32> = FxHashMap::default();
        self.visit_postorder(state, |id, n| {
            let child = |i: usize| {
                let c = n.children[i];
                if c.is_terminal() {
                    TERMINAL
                } else {
                    index_of[&c.node.raw()]
                }
            };
            let record = TabNode {
                p1: self.complex_value(n.children[1].weight).norm_sqr(),
                children: [child(0), child(1)],
                var: n.var,
            };
            index_of.insert(id.raw(), nodes.len() as u32);
            nodes.push(record);
        });
        let root = index_of[&state.node.raw()];
        SamplingTableau { nodes, root }
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

    #[test]
    fn tableau_matches_sample_once_bit_for_bit() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(6).unwrap();
        for q in 0..6 {
            s = dd.apply_gate(s, gates::ry(0.2 + q as f64), &[], q).unwrap();
            if q > 0 {
                s = dd
                    .apply_gate(s, gates::X, &[Control::pos(q - 1)], q)
                    .unwrap();
            }
        }
        let tab = dd.sampling_tableau(s);
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        for _ in 0..500 {
            assert_eq!(tab.sample_once(&mut a), dd.sample_once(s, &mut b));
        }
    }

    #[test]
    fn tableau_captures_shared_nodes_once() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let tab = dd.sampling_tableau(b);
        assert_eq!(tab.node_count(), dd.vec_node_count(b));
    }

    #[test]
    fn tableau_survives_package_mutation() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        dd.inc_ref_vec(b);
        let tab = dd.sampling_tableau(b);
        // Mutate the package heavily after the snapshot.
        for q in 0..2 {
            let _ = dd.apply_gate(b, gates::H, &[], q).unwrap();
        }
        dd.garbage_collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let counts = tab.sample(2000, &mut rng);
        assert!(counts.keys().all(|&k| k == 0b00 || k == 0b11));
        let c00 = *counts.get(&0).unwrap_or(&0) as f64;
        assert!((c00 / 2000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn terminal_state_samples_zero() {
        let dd = DdPackage::new();
        let tab = dd.sampling_tableau(VecEdge::ONE);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(tab.sample_once(&mut rng), 0);
        assert_eq!(tab.node_count(), 0);
    }
}
