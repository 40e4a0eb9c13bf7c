//! Matrix–vector and matrix–matrix multiplication (paper Fig. 4).

use crate::error::DdError;
use crate::gates::{Control, GateMatrix};
use crate::package::DdPackage;
use crate::types::{MatEdge, MNodeId, VecEdge, VNodeId};

impl DdPackage {
    /// Applies an operator DD to a state DD: `M · |v⟩`.
    ///
    /// This is the paper's simulation primitive (Example 9): the product is
    /// decomposed block-wise into the four sub-matrices and two sub-vectors
    /// and recursed with memoization.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out.
    ///
    /// # Panics
    ///
    /// Panics if the operands span different qubit counts.
    pub fn mat_vec(&mut self, m: MatEdge, v: VecEdge) -> Result<VecEdge, DdError> {
        let _span = qdd_telemetry::span("core.mat_vec");
        self.mat_vec_go(m, v)
    }

    pub(crate) fn mat_vec_go(&mut self, m: MatEdge, v: VecEdge) -> Result<VecEdge, DdError> {
        if m.is_zero() || v.is_zero() {
            return Ok(VecEdge::ZERO);
        }
        let alpha = self.ctable.mul(m.weight, v.weight);
        let r = self.mat_vec_unit(m.node, v.node)?;
        Ok(self.scale_vec(r, alpha))
    }

    fn mat_vec_unit(&mut self, mn: MNodeId, vn: VNodeId) -> Result<VecEdge, DdError> {
        self.governor_check()?;
        // Identity skip: a terminal matrix operand is the identity on every
        // remaining level (the scalar weight was peeled off in
        // `mat_vec_go`), so `I·v = v` prunes the whole sub-diagram below a
        // gate's active block — the difference between O(state nodes) and
        // O(levels) per gate application on wide states.
        if mn.is_terminal() {
            return Ok(VecEdge::new(vn, qdd_complex::C_ONE));
        }
        assert!(!vn.is_terminal(), "dimension mismatch in mat_vec");
        let key = (mn, vn);
        if self.config.compute_tables {
            if let Some(r) = self.caches.mat_vec.get(&key) {
                return Ok(r);
            }
        }
        let mnode = self.mnode(mn);
        let vnode = self.vnode(vn);
        let var = vnode.var;
        assert!(mnode.var <= var, "dimension mismatch in mat_vec");
        let vc = vnode.children;
        let mut rc = [VecEdge::ZERO; 2];
        if mnode.var < var {
            // The operator skips this level (identity): recurse the same
            // matrix into both vector children.
            let m = MatEdge::new(mn, qdd_complex::C_ONE);
            for (i, slot) in rc.iter_mut().enumerate() {
                *slot = self.mat_vec_go(m, vc[i])?;
            }
        } else {
            let mc = mnode.children;
            for (i, slot) in rc.iter_mut().enumerate() {
                let p0 = self.mat_vec_go(mc[2 * i], vc[0])?;
                let p1 = self.mat_vec_go(mc[2 * i + 1], vc[1])?;
                *slot = self.add_vec_go(p0, p1)?;
            }
        }
        let r = self.make_vec_node(var, rc)?;
        if self.config.compute_tables {
            self.caches.mat_vec.insert(key, r);
        }
        Ok(r)
    }

    /// Multiplies two operator DDs: `A · B` (apply `B` first).
    ///
    /// This is the verification primitive: a circuit's system matrix is the
    /// product of its gate matrices (paper §II, Example 10/11).
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out.
    ///
    /// # Panics
    ///
    /// Panics if the operands span different qubit counts.
    pub fn mat_mat(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        let _span = qdd_telemetry::span("core.mat_mat");
        self.mat_mat_go(a, b)
    }

    pub(crate) fn mat_mat_go(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        if a.is_zero() || b.is_zero() {
            return Ok(MatEdge::ZERO);
        }
        let alpha = self.ctable.mul(a.weight, b.weight);
        let r = self.mat_mat_unit(a.node, b.node)?;
        Ok(self.scale_mat(r, alpha))
    }

    fn mat_mat_unit(&mut self, an: MNodeId, bn: MNodeId) -> Result<MatEdge, DdError> {
        self.governor_check()?;
        // Identity skip on either operand: a terminal matrix is the
        // identity on every remaining level, so `I·B = B` and `A·I = A`
        // (weights were peeled off in `mat_mat_go`).
        if an.is_terminal() {
            return Ok(MatEdge::new(bn, qdd_complex::C_ONE));
        }
        if bn.is_terminal() {
            return Ok(MatEdge::new(an, qdd_complex::C_ONE));
        }
        let key = (an, bn);
        if self.config.compute_tables {
            if let Some(r) = self.caches.mat_mat.get(&key) {
                return Ok(r);
            }
        }
        let anode = self.mnode(an);
        let bnode = self.mnode(bn);
        let (avar, bvar) = (anode.var, bnode.var);
        let ac = anode.children;
        let bc = bnode.children;
        let var = avar.max(bvar);
        let mut rc = [MatEdge::ZERO; 4];
        if avar > bvar {
            // B skips this level: (A·(I⊗B))_{ij} = A_{ij}·B.
            let b = MatEdge::new(bn, qdd_complex::C_ONE);
            for (c, slot) in rc.iter_mut().enumerate() {
                *slot = self.mat_mat_go(ac[c], b)?;
            }
        } else if bvar > avar {
            // A skips this level: ((I⊗A)·B)_{ij} = A·B_{ij}.
            let a = MatEdge::new(an, qdd_complex::C_ONE);
            for (c, slot) in rc.iter_mut().enumerate() {
                *slot = self.mat_mat_go(a, bc[c])?;
            }
        } else {
            for i in 0..2 {
                for j in 0..2 {
                    // (A·B)_{ij} = Σ_k A_{ik} · B_{kj}
                    let p0 = self.mat_mat_go(ac[2 * i], bc[j])?;
                    let p1 = self.mat_mat_go(ac[2 * i + 1], bc[2 + j])?;
                    rc[2 * i + j] = self.add_mat_go(p0, p1)?;
                }
            }
        }
        let r = self.make_mat_node(var, rc)?;
        if self.config.compute_tables {
            self.caches.mat_mat.insert(key, r);
        }
        Ok(r)
    }

    /// Convenience: builds the gate DD and applies it to `state` in one
    /// call.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`DdPackage::gate_dd`] (the
    /// register size is taken from the state itself) and the governor
    /// errors of [`Self::mat_vec`].
    pub fn apply_gate(
        &mut self,
        state: VecEdge,
        u: GateMatrix,
        controls: &[Control],
        target: usize,
    ) -> Result<VecEdge, DdError> {
        let mut span = qdd_telemetry::span("core.apply_gate");
        span.field("target", target);
        let n = match self.vec_var(state) {
            Some(v) => v as usize + 1,
            None => {
                return Err(DdError::QubitIndexOutOfRange {
                    qubit: target,
                    num_qubits: 0,
                })
            }
        };
        let g = self.gate_dd(u, controls, target, n)?;
        self.mat_vec(g, state)
    }
}

#[cfg(test)]
mod tests {
    use crate::{gates, Control, DdPackage};
    use qdd_complex::Complex;
    use std::f64::consts::FRAC_1_SQRT_2;

    /// Paper Example 3/5: H on q1 of |00⟩, then CNOT → Bell state.
    #[test]
    fn bell_evolution_matches_paper() {
        let mut dd = DdPackage::new();
        let zero = dd.zero_state(2).unwrap();
        let h = dd.gate_dd(gates::H, &[], 1, 2).unwrap();
        let after_h = dd.mat_vec(h, zero).unwrap();
        let dense = dd.to_dense_vector(after_h, 2);
        // 1/√2 [1, 0, 1, 0]  (Example 3)
        assert!(dense[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(dense[1].approx_eq(Complex::ZERO, 1e-12));
        assert!(dense[2].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));

        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let bell = dd.mat_vec(cx, after_h).unwrap();
        let dense = dd.to_dense_vector(bell, 2);
        // 1/√2 [1, 0, 0, 1]  (Example 1/5)
        assert!(dense[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(dense[3].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(dense[1].approx_eq(Complex::ZERO, 1e-12));
        assert!(dense[2].approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let mut dd = DdPackage::new();
        let id = dd.identity(3).unwrap();
        let s = dd.basis_state(3, 5).unwrap();
        assert_eq!(dd.mat_vec(id, s).unwrap(), s);
        let h = dd.gate_dd(gates::H, &[], 1, 3).unwrap();
        assert_eq!(dd.mat_mat(id, h).unwrap(), h);
        assert_eq!(dd.mat_mat(h, id).unwrap(), h);
    }

    #[test]
    fn gate_times_adjoint_is_identity() {
        let mut dd = DdPackage::new();
        for u in [gates::H, gates::S, gates::t(), gates::rx(0.7)] {
            let g = dd.gate_dd(u, &[], 0, 2).unwrap();
            let gd = dd.gate_dd(gates::adjoint(&u), &[], 0, 2).unwrap();
            let prod = dd.mat_mat(gd, g).unwrap();
            let id = dd.identity(2).unwrap();
            assert_eq!(prod, id, "canonical identity after U†U");
        }
    }

    #[test]
    fn mat_mat_matches_dense() {
        let mut dd = DdPackage::new();
        let a = dd.gate_dd(gates::H, &[], 0, 2).unwrap();
        let b = dd.gate_dd(gates::S, &[Control::pos(0)], 1, 2).unwrap();
        let prod = dd.mat_mat(a, b).unwrap();
        let da = dd.to_dense_matrix(a, 2);
        let db = dd.to_dense_matrix(b, 2);
        let dp = dd.to_dense_matrix(prod, 2);
        for i in 0..4 {
            for j in 0..4 {
                let mut want = Complex::ZERO;
                for k in 0..4 {
                    want += da[i][k] * db[k][j];
                }
                assert!(dp[i][j].approx_eq(want, 1e-12), "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn negative_control_fires_on_zero() {
        let mut dd = DdPackage::new();
        let zero = dd.zero_state(2).unwrap();
        // X on q0, negative control on q1: fires because q1 = |0⟩.
        let g = dd.gate_dd(gates::X, &[Control::neg(1)], 0, 2).unwrap();
        let out = dd.mat_vec(g, zero).unwrap();
        let expect = dd.basis_state(2, 1).unwrap();
        assert_eq!(out, expect);
        // Positive control does not fire on |00⟩.
        let g = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let out = dd.mat_vec(g, zero).unwrap();
        let expect = dd.zero_state(2).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn toffoli_via_two_controls() {
        let mut dd = DdPackage::new();
        let g = dd
            .gate_dd(gates::X, &[Control::pos(2), Control::pos(1)], 0, 3)
            .unwrap();
        // |110⟩ → |111⟩
        let s = dd.basis_state(3, 0b110).unwrap();
        let out = dd.mat_vec(g, s).unwrap();
        let expect = dd.basis_state(3, 0b111).unwrap();
        assert_eq!(out, expect);
        // |010⟩ unchanged
        let s = dd.basis_state(3, 0b010).unwrap();
        assert_eq!(dd.mat_vec(g, s).unwrap(), s);
    }

    #[test]
    fn apply_gate_convenience() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(s, gates::X, &[], 1).unwrap();
        let expect = dd.basis_state(2, 0b10).unwrap();
        assert_eq!(s, expect);
    }

    #[test]
    fn state_norm_preserved_by_unitaries() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(3).unwrap();
        for (u, t) in [
            (gates::H, 0),
            (gates::ry(0.9), 1),
            (gates::t(), 2),
            (gates::H, 2),
        ] {
            s = dd.apply_gate(s, u, &[], t).unwrap();
        }
        let norm = dd.vec_norm(s).unwrap();
        assert!((norm - 1.0).abs() < 1e-10);
    }
}
