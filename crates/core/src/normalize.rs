//! Deterministic edge-weight normalization.
//!
//! Normalization is what turns "reduced" diagrams into **canonical** ones:
//! two functions equal up to a complex factor share the same node, with the
//! factor pushed to the incoming edge (paper §III-A and footnote 3).
//!
//! * **Vectors** use L2 normalization: outgoing weights are scaled so their
//!   squared magnitudes sum to 1, with the phase fixed by making the first
//!   non-zero weight real-positive. This makes `|wᵢ|²` a local measurement
//!   probability, enabling the single-path sampling of paper ref \[16\].
//! * **Matrices** are scaled by the first entry of maximal magnitude, which
//!   becomes exactly `1`.
//!
//! Both rules are invariant under pre-scaling of the inputs, which is the
//! canonicity requirement.

use qdd_complex::{ComplexIdx, ComplexTable, C_ZERO};

/// Which normalization rule vector nodes use.
///
/// The default [`L2`](VectorNormalization::L2) is what enables the paper's
/// single-path measurement sampling (footnote 3);
/// [`MaxMagnitude`](VectorNormalization::MaxMagnitude) is the QMDD-style
/// alternative kept for the ablation experiments — equally canonical, but
/// local weights are no longer probability amplitudes, so the measurement
/// APIs refuse to run under it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum VectorNormalization {
    /// Outgoing weights scaled to `|w₀|² + |w₁|² = 1`, first non-zero
    /// weight real-positive.
    #[default]
    L2,
    /// Divide by the first entry of maximal magnitude (which becomes 1) —
    /// the rule matrix nodes always use.
    MaxMagnitude,
}

/// Result of normalizing a prospective node's outgoing weights.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Normalized<const W: usize> {
    /// The factor pulled out onto the incoming edge.
    pub top: ComplexIdx,
    /// The normalized outgoing weights.
    pub weights: [ComplexIdx; W],
}

/// Normalizes the two outgoing weights of a vector node with the given
/// rule. Returns `None` when both weights are zero (the node vanishes
/// into a 0-stub).
pub(crate) fn normalize_vector(
    table: &mut ComplexTable,
    weights: [ComplexIdx; 2],
    rule: VectorNormalization,
) -> Option<Normalized<2>> {
    match rule {
        VectorNormalization::L2 => normalize_vector_l2(table, weights),
        VectorNormalization::MaxMagnitude => normalize_vector_max(table, weights),
    }
}

/// L2 rule (paper footnote 3): unit local norm, first non-zero weight
/// real-positive.
fn normalize_vector_l2(
    table: &mut ComplexTable,
    weights: [ComplexIdx; 2],
) -> Option<Normalized<2>> {
    if weights.iter().all(|i| i.is_zero()) {
        return None;
    }
    let w = [table.value(weights[0]), table.value(weights[1])];
    let mag2: f64 = w.iter().map(|c| c.norm_sqr()).sum();
    let norm = mag2.sqrt();
    // Phase convention: first non-zero (interned-non-zero) weight becomes
    // real-positive.
    let k = weights.iter().position(|i| !i.is_zero()).expect("non-zero");
    let phase = w[k] / w[k].abs();
    let factor = phase * norm;
    let top = table.lookup(factor);
    let mut out = [C_ZERO; 2];
    for (i, slot) in out.iter_mut().enumerate() {
        if !weights[i].is_zero() {
            *slot = table.lookup(w[i] / factor);
        }
    }
    Some(Normalized { top, weights: out })
}

/// QMDD-style max-magnitude rule for vectors (ablation alternative).
fn normalize_vector_max(
    table: &mut ComplexTable,
    weights: [ComplexIdx; 2],
) -> Option<Normalized<2>> {
    if weights.iter().all(|i| i.is_zero()) {
        return None;
    }
    let w = [table.value(weights[0]), table.value(weights[1])];
    let best = if w[1].norm_sqr() > w[0].norm_sqr() { 1 } else { 0 };
    let factor = w[best];
    let top = table.lookup(factor);
    let mut out = [C_ZERO; 2];
    for (i, slot) in out.iter_mut().enumerate() {
        if !weights[i].is_zero() {
            *slot = if i == best {
                qdd_complex::C_ONE
            } else {
                table.lookup(w[i] / factor)
            };
        }
    }
    Some(Normalized { top, weights: out })
}

/// Normalizes the four outgoing weights of a matrix node by the first entry
/// of maximal magnitude.
///
/// Returns `None` when all weights are zero.
pub(crate) fn normalize_matrix(
    table: &mut ComplexTable,
    weights: [ComplexIdx; 4],
) -> Option<Normalized<4>> {
    let nonzero = weights.iter().filter(|i| !i.is_zero()).count();
    if nonzero == 0 {
        return None;
    }
    let w = [
        table.value(weights[0]),
        table.value(weights[1]),
        table.value(weights[2]),
        table.value(weights[3]),
    ];
    // First strictly-larger magnitude wins; earliest index on ties. Because
    // equal values share an interned handle, genuine ties compare exactly
    // equal and the rule is stable under uniform pre-scaling.
    let mut best = 0usize;
    let mut best_mag = w[0].norm_sqr();
    for (i, c) in w.iter().enumerate().skip(1) {
        let m = c.norm_sqr();
        if m > best_mag {
            best = i;
            best_mag = m;
        }
    }
    let factor = w[best];
    let top = table.lookup(factor);
    let mut out = [C_ZERO; 4];
    for (i, slot) in out.iter_mut().enumerate() {
        if !weights[i].is_zero() {
            *slot = if i == best {
                qdd_complex::C_ONE
            } else {
                table.lookup(w[i] / factor)
            };
        }
    }
    Some(Normalized { top, weights: out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_complex::{Complex, C_ONE};

    fn table() -> ComplexTable {
        ComplexTable::new()
    }

    #[test]
    fn vector_all_zero_vanishes() {
        let mut t = table();
        assert!(normalize_vector(&mut t, [C_ZERO, C_ZERO], VectorNormalization::L2).is_none());
    }

    #[test]
    fn vector_l2_property() {
        let mut t = table();
        let a = t.lookup(Complex::new(3.0, 0.0));
        let b = t.lookup(Complex::new(0.0, 4.0));
        let n = normalize_vector(&mut t, [a, b], VectorNormalization::L2).unwrap();
        let w0 = t.value(n.weights[0]);
        let w1 = t.value(n.weights[1]);
        assert!((w0.norm_sqr() + w1.norm_sqr() - 1.0).abs() < 1e-12);
        // First non-zero weight is real-positive.
        assert!(w0.im.abs() < 1e-12 && w0.re > 0.0);
        // Factor reconstructs the originals.
        let f = t.value(n.top);
        assert!((w0 * f).approx_eq(Complex::new(3.0, 0.0), 1e-12));
        assert!((w1 * f).approx_eq(Complex::new(0.0, 4.0), 1e-12));
    }

    #[test]
    fn vector_scale_invariance() {
        let mut t = table();
        let w = [Complex::new(0.3, 0.1), Complex::new(-0.2, 0.5)];
        let c = Complex::new(-1.3, 0.7);
        let idx: Vec<_> = w.iter().map(|&v| t.lookup(v)).collect();
        let scaled: Vec<_> = w.iter().map(|&v| t.lookup(v * c)).collect();
        let n1 = normalize_vector(&mut t, [idx[0], idx[1]], VectorNormalization::L2).unwrap();
        let n2 = normalize_vector(&mut t, [scaled[0], scaled[1]], VectorNormalization::L2).unwrap();
        assert_eq!(n1.weights, n2.weights, "canonicity under scaling");
    }

    #[test]
    fn vector_zero_first_child() {
        let mut t = table();
        let b = t.lookup(Complex::new(0.0, -2.0));
        let n = normalize_vector(&mut t, [C_ZERO, b], VectorNormalization::L2).unwrap();
        assert_eq!(n.weights[0], C_ZERO);
        // Sole weight normalizes to exactly 1.
        assert_eq!(n.weights[1], C_ONE);
        assert!(t.value(n.top).approx_eq(Complex::new(0.0, -2.0), 1e-12));
    }

    #[test]
    fn matrix_all_zero_vanishes() {
        let mut t = table();
        assert!(normalize_matrix(&mut t, [C_ZERO; 4]).is_none());
    }

    #[test]
    fn matrix_max_entry_becomes_one() {
        let mut t = table();
        let ws = [
            t.lookup(Complex::new(0.1, 0.0)),
            t.lookup(Complex::new(0.0, -0.9)),
            C_ZERO,
            t.lookup(Complex::new(0.5, 0.0)),
        ];
        let n = normalize_matrix(&mut t, ws).unwrap();
        assert_eq!(n.weights[1], C_ONE);
        assert!(t.value(n.top).approx_eq(Complex::new(0.0, -0.9), 1e-12));
        assert_eq!(n.weights[2], C_ZERO);
    }

    #[test]
    fn matrix_tie_breaks_to_first_index() {
        let mut t = table();
        let half = t.lookup(Complex::new(0.5, 0.0));
        let neg = t.lookup(Complex::new(-0.5, 0.0));
        let n = normalize_matrix(&mut t, [half, half, half, neg]).unwrap();
        assert_eq!(n.weights[0], C_ONE);
        let w3 = t.value(n.weights[3]);
        assert!(w3.approx_eq(Complex::new(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn matrix_scale_invariance() {
        let mut t = table();
        let w = [
            Complex::new(0.2, 0.1),
            Complex::ZERO,
            Complex::new(0.9, -0.3),
            Complex::new(-0.4, 0.0),
        ];
        let c = Complex::new(0.3, -1.1);
        let idx: Vec<_> = w
            .iter()
            .map(|&v| if v == Complex::ZERO { C_ZERO } else { t.lookup(v) })
            .collect();
        let scaled: Vec<_> = w
            .iter()
            .map(|&v| if v == Complex::ZERO { C_ZERO } else { t.lookup(v * c) })
            .collect();
        let n1 = normalize_matrix(&mut t, [idx[0], idx[1], idx[2], idx[3]]).unwrap();
        let n2 =
            normalize_matrix(&mut t, [scaled[0], scaled[1], scaled[2], scaled[3]]).unwrap();
        assert_eq!(n1.weights, n2.weights);
    }
}

#[cfg(test)]
mod max_magnitude_tests {
    use super::VectorNormalization;
    use crate::{gates, Control, DdPackage, PackageConfig};
    use qdd_complex::Complex;

    fn max_package() -> DdPackage {
        DdPackage::with_config(PackageConfig {
            vector_normalization: VectorNormalization::MaxMagnitude,
            ..PackageConfig::default()
        })
    }

    #[test]
    fn dense_round_trip_under_max_rule() {
        let mut dd = max_package();
        let amps = [
            Complex::new(0.1, 0.4),
            Complex::new(-0.3, 0.2),
            Complex::new(0.6, 0.0),
            Complex::new(0.0, -0.5),
        ];
        let e = dd.state_from_amplitudes(&amps).unwrap();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for (i, back) in dd.to_dense_vector(e, 2).iter().enumerate() {
            assert!(back.approx_eq(amps[i] / norm, 1e-12), "entry {i}");
        }
    }

    #[test]
    fn canonicity_under_max_rule() {
        let mut dd = max_package();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        let bell_a = dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let bell_b = dd
            .state_from_amplitudes(&[
                Complex::real(h),
                Complex::ZERO,
                Complex::ZERO,
                Complex::real(h),
            ])
            .unwrap();
        assert_eq!(bell_a.node, bell_b.node, "same canonical node");
    }

    #[test]
    fn max_rule_puts_unit_weight_on_largest_child() {
        let mut dd = max_package();
        let amps = [Complex::real(0.6), Complex::real(0.8)];
        let e = dd.state_from_amplitudes(&amps).unwrap();
        let node = dd.vnode(e.node);
        assert!(node.children[1].weight.is_one(), "0.8 branch becomes 1");
    }

    #[test]
    #[should_panic(expected = "requires VectorNormalization::L2")]
    fn measurement_refuses_max_rule() {
        let mut dd = max_package();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 0).unwrap();
        let _ = dd.prob_one(s, 0);
    }

    #[test]
    fn simulation_agrees_across_rules() {
        let mut l2 = DdPackage::new();
        let mut mx = max_package();
        let build = |dd: &mut DdPackage| {
            let z = dd.zero_state(3).unwrap();
            let s = dd.apply_gate(z, gates::H, &[], 2).unwrap();
            let s = dd.apply_gate(s, gates::t(), &[Control::pos(2)], 1).unwrap();
            let s = dd.apply_gate(s, gates::ry(0.9), &[], 0).unwrap();
            dd.to_dense_vector(s, 3)
        };
        let a = build(&mut l2);
        let b = build(&mut mx);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }
}
