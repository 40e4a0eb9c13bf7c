//! Dense export and amplitude queries — the bridge between diagrams and the
//! exponential representations they compress.

use crate::package::DdPackage;
use crate::types::{MatEdge, VecEdge};
use qdd_complex::Complex;

/// Largest register `to_dense_vector` materializes (2²⁴ amplitudes ≈ 256 MiB).
const MAX_DENSE_VECTOR_QUBITS: usize = 24;
/// Largest register `to_dense_matrix` materializes (4¹² entries ≈ 256 MiB).
const MAX_DENSE_MATRIX_QUBITS: usize = 12;

impl DdPackage {
    /// The amplitude `⟨basis|state⟩` of one computational basis state —
    /// a single root→terminal walk multiplying edge weights (paper §III-A).
    pub fn amplitude(&self, state: VecEdge, basis: u64) -> Complex {
        let mut w = self.complex_value(state.weight);
        let mut node = state.node;
        while !node.is_terminal() {
            if w == Complex::ZERO {
                return Complex::ZERO;
            }
            let n = self.vnode(node);
            let bit = (basis >> n.var) & 1;
            let child = n.children[bit as usize];
            w *= self.complex_value(child.weight);
            node = child.node;
        }
        w
    }

    /// One entry `⟨row| U |col⟩` of an operator DD.
    pub fn matrix_entry(&self, m: MatEdge, row: u64, col: u64) -> Complex {
        let mut w = self.complex_value(m.weight);
        let mut node = m.node;
        // Levels the walk actually branched on; every other level is a
        // skipped identity, where off-diagonal entries vanish.
        let mut consumed: u64 = 0;
        while !node.is_terminal() {
            if w == Complex::ZERO {
                return Complex::ZERO;
            }
            let n = self.mnode(node);
            consumed |= 1u64 << n.var;
            let i = (row >> n.var) & 1;
            let j = (col >> n.var) & 1;
            let child = n.children[(2 * i + j) as usize];
            w *= self.complex_value(child.weight);
            node = child.node;
        }
        if (row ^ col) & !consumed != 0 {
            return Complex::ZERO;
        }
        w
    }

    /// Materializes the full `2ⁿ` state vector.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 24 qubits or does not cover the diagram.
    pub fn to_dense_vector(&self, state: VecEdge, n: usize) -> Vec<Complex> {
        assert!(
            n <= MAX_DENSE_VECTOR_QUBITS,
            "dense vector export limited to {MAX_DENSE_VECTOR_QUBITS} qubits"
        );
        if let Some(v) = self.vec_var(state) {
            assert!(
                (v as usize) < n,
                "state spans more qubits than requested: {} > {n}",
                v as usize + 1
            );
        }
        let mut out = vec![Complex::ZERO; 1 << n];
        fn fill(
            dd: &DdPackage,
            e: VecEdge,
            w: Complex,
            out: &mut [Complex],
        ) {
            if e.is_zero() {
                return;
            }
            let w = w * dd.complex_value(e.weight);
            if e.is_terminal() {
                debug_assert_eq!(out.len(), 1);
                out[0] = w;
                return;
            }
            let n = dd.vnode(e.node);
            let half = out.len() / 2;
            // If the state has fewer qubits than requested, the upper half
            // stays zero only when the top variable is below n-1; in a
            // well-formed full-span state this split is always exact.
            debug_assert_eq!(half, 1 << n.var);
            let (lo, hi) = out.split_at_mut(half);
            fill(dd, n.children[0], w, lo);
            fill(dd, n.children[1], w, hi);
        }
        fill(self, state, Complex::ONE, &mut out);
        out
    }

    /// Materializes the full `2ⁿ×2ⁿ` operator matrix (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 12 qubits or does not cover the diagram.
    pub fn to_dense_matrix(&self, m: MatEdge, n: usize) -> Vec<Vec<Complex>> {
        assert!(
            n <= MAX_DENSE_MATRIX_QUBITS,
            "dense matrix export limited to {MAX_DENSE_MATRIX_QUBITS} qubits"
        );
        if let Some(v) = self.mat_var(m) {
            assert!(
                (v as usize) < n,
                "operator spans more qubits than requested: {} > {n}",
                v as usize + 1
            );
        }
        let dim = 1usize << n;
        let mut out = vec![vec![Complex::ZERO; dim]; dim];
        fn fill(
            dd: &DdPackage,
            e: MatEdge,
            w: Complex,
            out: &mut [Vec<Complex>],
            r0: usize,
            c0: usize,
            dim: usize,
        ) {
            if e.is_zero() {
                return;
            }
            let w = w * dd.complex_value(e.weight);
            fill_node(dd, e, w, out, r0, c0, dim);
        }
        // Weight already folded in; places `node`'s block (or its identity
        // expansion over skipped levels) into the `dim×dim` region.
        fn fill_node(
            dd: &DdPackage,
            e: MatEdge,
            w: Complex,
            out: &mut [Vec<Complex>],
            r0: usize,
            c0: usize,
            dim: usize,
        ) {
            if e.is_terminal() {
                // Identity skip: a terminal is `w·I` on the whole block.
                for k in 0..dim {
                    out[r0 + k][c0 + k] = w;
                }
                return;
            }
            let n = dd.mnode(e.node);
            let h = dim / 2;
            if (1usize << n.var) < h {
                // Skipped identity level: replicate down the diagonal.
                fill_node(dd, e, w, out, r0, c0, h);
                fill_node(dd, e, w, out, r0 + h, c0 + h, h);
                return;
            }
            debug_assert_eq!(h, 1 << n.var);
            fill(dd, n.children[0], w, out, r0, c0, h);
            fill(dd, n.children[1], w, out, r0, c0 + h, h);
            fill(dd, n.children[2], w, out, r0 + h, c0, h);
            fill(dd, n.children[3], w, out, r0 + h, c0 + h, h);
        }
        fill(self, m, Complex::ONE, &mut out, 0, 0, dim);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{gates, Control, DdPackage};
    use qdd_complex::Complex;
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn amplitude_walks_match_dense_export() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(3).unwrap();
        s = dd.apply_gate(s, gates::H, &[], 2).unwrap();
        s = dd.apply_gate(s, gates::t(), &[], 2).unwrap();
        s = dd.apply_gate(s, gates::X, &[Control::pos(2)], 0).unwrap();
        let dense = dd.to_dense_vector(s, 3);
        for basis in 0..8u64 {
            assert!(dd
                .amplitude(s, basis)
                .approx_eq(dense[basis as usize], 1e-12));
        }
    }

    #[test]
    fn dense_round_trip_via_from_amplitudes() {
        let mut dd = DdPackage::new();
        let amps: Vec<Complex> = (0..8)
            .map(|i| Complex::new(0.1 * i as f64 + 0.05, -0.07 * i as f64))
            .collect();
        let s = dd.state_from_amplitudes(&amps).unwrap();
        let dense = dd.to_dense_vector(s, 3);
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for i in 0..8 {
            assert!(dense[i].approx_eq(amps[i] / norm, 1e-12), "entry {i}");
        }
    }

    #[test]
    fn cnot_matrix_matches_fig_1b() {
        let mut dd = DdPackage::new();
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let m = dd.to_dense_matrix(cx, 2);
        let o = Complex::ONE;
        let z = Complex::ZERO;
        let want = [
            [o, z, z, z],
            [z, o, z, z],
            [z, z, z, o],
            [z, z, o, z],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert!(m[i][j].approx_eq(want[i][j], 1e-12), "({i},{j})");
            }
        }
    }

    #[test]
    fn hadamard_tensor_identity_matches_example_3() {
        let mut dd = DdPackage::new();
        let hi = dd.gate_dd(gates::H, &[], 1, 2).unwrap();
        let m = dd.to_dense_matrix(hi, 2);
        let h = FRAC_1_SQRT_2;
        for (i, row) in m.iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                // H ⊗ I entries
                let want = if i % 2 == j % 2 {
                    let hv = [[h, h], [h, -h]][i / 2][j / 2];
                    Complex::real(hv)
                } else {
                    Complex::ZERO
                };
                assert!(entry.approx_eq(want, 1e-12), "({i},{j})");
            }
        }
    }

    #[test]
    fn matrix_entry_matches_dense() {
        let mut dd = DdPackage::new();
        let g = dd.gate_dd(gates::S, &[Control::pos(0)], 1, 2).unwrap();
        let m = dd.to_dense_matrix(g, 2);
        for r in 0..4u64 {
            for c in 0..4u64 {
                assert!(dd
                    .matrix_entry(g, r, c)
                    .approx_eq(m[r as usize][c as usize], 1e-12));
            }
        }
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn dense_vector_guard() {
        let dd = DdPackage::new();
        let _ = dd.to_dense_vector(crate::VecEdge::ZERO, 30);
    }
}
