//! Tensor (Kronecker) products (paper Fig. 3).
//!
//! On decision diagrams the tensor product `A ⊗ B` amounts to replacing the
//! terminal of `A`'s diagram with the root of `B`'s and shifting `A`'s
//! variable labels up — exactly the construction the paper illustrates for
//! `H ⊗ I₂`.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::types::{MatEdge, MNodeId, Qubit, VecEdge, VNodeId};
use qdd_complex::C_ONE;

impl DdPackage {
    /// Tensor product of two states: `|a⟩ ⊗ |b⟩` with `a` as the
    /// more-significant register.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out.
    pub fn kron_vec(&mut self, a: VecEdge, b: VecEdge) -> Result<VecEdge, DdError> {
        let _span = qdd_telemetry::span("core.kron_vec");
        self.kron_vec_go(a, b)
    }

    pub(crate) fn kron_vec_go(&mut self, a: VecEdge, b: VecEdge) -> Result<VecEdge, DdError> {
        if a.is_zero() || b.is_zero() {
            return Ok(VecEdge::ZERO);
        }
        let alpha = self.ctable.mul(a.weight, b.weight);
        let r = self.kron_vec_unit(a.node, b.node)?;
        Ok(self.scale_vec(r, alpha))
    }

    fn kron_vec_unit(&mut self, an: VNodeId, bn: VNodeId) -> Result<VecEdge, DdError> {
        self.governor_check()?;
        if an.is_terminal() {
            // Terminal replacement: the unit edge into b's root.
            return Ok(VecEdge::new(bn, C_ONE));
        }
        let key = (an, bn);
        if self.config.compute_tables {
            if let Some(r) = self.caches.kron_vec.get(&key) {
                return Ok(r);
            }
        }
        let shift: Qubit = if bn.is_terminal() {
            0
        } else {
            self.vnode(bn).var + 1
        };
        let anode = self.vnode(an);
        let var = anode.var + shift;
        let ac = anode.children;
        let b_unit = VecEdge::new(bn, C_ONE);
        let mut rc = [VecEdge::ZERO; 2];
        for (i, slot) in rc.iter_mut().enumerate() {
            *slot = self.kron_vec_go(ac[i], b_unit)?;
        }
        let r = self.make_vec_node(var, rc)?;
        if self.config.compute_tables {
            self.caches.kron_vec.insert(key, r);
        }
        Ok(r)
    }

    /// Tensor product of two operators: `A ⊗ B` with `A` acting on the
    /// more-significant qubits (the paper's `H ⊗ I₂`, Fig. 3), where `B`
    /// spans `b_levels` qubit levels.
    ///
    /// The span is explicit because of identity skip: `H ⊗ I₂` needs `A`'s
    /// variables shifted past the (nodeless) identity register, which the
    /// edge itself cannot reveal.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out.
    ///
    /// # Panics
    ///
    /// Panics when `b`'s root variable does not fit in `b_levels`.
    pub fn kron_mat(
        &mut self,
        a: MatEdge,
        b: MatEdge,
        b_levels: usize,
    ) -> Result<MatEdge, DdError> {
        let _span = qdd_telemetry::span("core.kron_mat");
        if !b.is_terminal() {
            assert!(
                (self.mnode(b.node).var as usize) < b_levels,
                "kron_mat span smaller than b's root variable"
            );
        }
        self.kron_mat_go(a, b, b_levels as Qubit)
    }

    pub(crate) fn kron_mat_go(
        &mut self,
        a: MatEdge,
        b: MatEdge,
        shift: Qubit,
    ) -> Result<MatEdge, DdError> {
        if a.is_zero() || b.is_zero() {
            return Ok(MatEdge::ZERO);
        }
        let alpha = self.ctable.mul(a.weight, b.weight);
        let r = self.kron_mat_unit(a.node, b.node, shift)?;
        Ok(self.scale_mat(r, alpha))
    }

    fn kron_mat_unit(
        &mut self,
        an: MNodeId,
        bn: MNodeId,
        shift: Qubit,
    ) -> Result<MatEdge, DdError> {
        self.governor_check()?;
        if an.is_terminal() {
            // Terminal replacement; under identity skip a terminal in `A`
            // is identity on `A`'s remaining levels, which stays implicit
            // above `B`'s root.
            return Ok(MatEdge::new(bn, C_ONE));
        }
        let key = (an, bn, shift);
        if self.config.compute_tables {
            if let Some(r) = self.caches.kron_mat.get(&key) {
                return Ok(r);
            }
        }
        let anode = self.mnode(an);
        let var = anode.var + shift;
        let ac = anode.children;
        let b_unit = MatEdge::new(bn, C_ONE);
        let mut rc = [MatEdge::ZERO; 4];
        for (i, slot) in rc.iter_mut().enumerate() {
            *slot = self.kron_mat_go(ac[i], b_unit, shift)?;
        }
        let r = self.make_mat_node(var, rc)?;
        if self.config.compute_tables {
            self.caches.kron_mat.insert(key, r);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use crate::{gates, DdPackage};
    use qdd_complex::Complex;

    /// Paper Example 8 / Fig. 3: H ⊗ I₂ via terminal replacement equals the
    /// directly constructed two-qubit gate DD.
    #[test]
    fn kron_reproduces_fig_3() {
        let mut dd = DdPackage::new();
        let h1 = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
        let i1 = dd.identity(1).unwrap();
        // Under identity skip `I₂` is a nodeless terminal edge, so the
        // one-level span must be stated explicitly.
        let via_kron = dd.kron_mat(h1, i1, 1).unwrap();
        let direct = dd.gate_dd(gates::H, &[], 1, 2).unwrap();
        assert_eq!(via_kron, direct, "H ⊗ I₂ is canonical");
    }

    #[test]
    fn kron_vec_builds_product_states() {
        let mut dd = DdPackage::new();
        let plus = {
            let z = dd.zero_state(1).unwrap();
            dd.apply_gate(z, gates::H, &[], 0).unwrap()
        };
        let one = dd.basis_state(1, 1).unwrap();
        let prod = dd.kron_vec(plus, one).unwrap();
        // |+⟩ ⊗ |1⟩ = 1/√2 (|01⟩ + |11⟩)
        let dense = dd.to_dense_vector(prod, 2);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!(dense[0].approx_eq(Complex::ZERO, 1e-12));
        assert!(dense[1].approx_eq(Complex::real(h), 1e-12));
        assert!(dense[2].approx_eq(Complex::ZERO, 1e-12));
        assert!(dense[3].approx_eq(Complex::real(h), 1e-12));
    }

    #[test]
    fn kron_matches_dense_for_matrices() {
        let mut dd = DdPackage::new();
        let a = dd.gate_dd(gates::S, &[], 0, 1).unwrap();
        let b = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
        let prod = dd.kron_mat(a, b, 1).unwrap();
        let da = dd.to_dense_matrix(a, 1);
        let db = dd.to_dense_matrix(b, 1);
        let dp = dd.to_dense_matrix(prod, 2);
        for i in 0..4 {
            for j in 0..4 {
                let want = da[i / 2][j / 2] * db[i % 2][j % 2];
                assert!(dp[i][j].approx_eq(want, 1e-12), "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn kron_with_scalar_terminal_scales() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state(2, 1).unwrap();
        let half = dd.intern(Complex::real(0.5));
        let scalar = crate::VecEdge::terminal(half);
        let scaled = dd.kron_vec(s, scalar).unwrap();
        assert_eq!(scaled.node, s.node);
        let w = dd.complex_value(scaled.weight);
        assert!(w.approx_eq(Complex::real(0.5), 1e-12));
    }

    #[test]
    fn kron_associativity() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(1, 1).unwrap();
        let b = {
            let z = dd.zero_state(1).unwrap();
            dd.apply_gate(z, gates::H, &[], 0).unwrap()
        };
        let c = dd.basis_state(1, 0).unwrap();
        let ab = dd.kron_vec(a, b).unwrap();
        let ab_c = dd.kron_vec(ab, c).unwrap();
        let bc = dd.kron_vec(b, c).unwrap();
        let a_bc = dd.kron_vec(a, bc).unwrap();
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn kron_zero_annihilates() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(2, 0).unwrap();
        assert!(dd.kron_vec(a, crate::VecEdge::ZERO).unwrap().is_zero());
        assert!(dd.kron_vec(crate::VecEdge::ZERO, a).unwrap().is_zero());
    }
}
