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

/// Result of normalizing a prospective node's outgoing weights.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Normalized<const W: usize> {
    /// The factor pulled out onto the incoming edge.
    pub top: ComplexIdx,
    /// The normalized outgoing weights.
    pub weights: [ComplexIdx; W],
}

/// Normalizes the two outgoing weights of a vector node by the L2 rule
/// (paper footnote 3): unit local norm, first non-zero weight
/// real-positive. Returns `None` when both weights are zero (the node
/// vanishes into a 0-stub).
pub(crate) fn normalize_vector(
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
        assert!(normalize_vector(&mut t, [C_ZERO, C_ZERO]).is_none());
    }

    #[test]
    fn vector_l2_property() {
        let mut t = table();
        let a = t.lookup(Complex::new(3.0, 0.0));
        let b = t.lookup(Complex::new(0.0, 4.0));
        let n = normalize_vector(&mut t, [a, b]).unwrap();
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
        let n1 = normalize_vector(&mut t, [idx[0], idx[1]]).unwrap();
        let n2 = normalize_vector(&mut t, [scaled[0], scaled[1]]).unwrap();
        assert_eq!(n1.weights, n2.weights, "canonicity under scaling");
    }

    #[test]
    fn vector_zero_first_child() {
        let mut t = table();
        let b = t.lookup(Complex::new(0.0, -2.0));
        let n = normalize_vector(&mut t, [C_ZERO, b]).unwrap();
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
