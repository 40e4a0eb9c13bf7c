//! Scalar-valued diagram operations: inner products, norms, fidelity, trace.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::types::{MatEdge, VecEdge, VNodeId};
use qdd_complex::{Complex, ComplexIdx, C_ONE};

impl DdPackage {
    /// The inner product `⟨a|b⟩` (conjugate-linear in `a`).
    ///
    /// # Errors
    ///
    /// [`DdError::DeadlineExceeded`] when the armed deadline runs out.
    /// Inner products allocate no DD nodes, so no node budget applies.
    ///
    /// # Panics
    ///
    /// Panics if the operands span different qubit counts.
    pub fn inner_product(&mut self, a: VecEdge, b: VecEdge) -> Result<Complex, DdError> {
        let _span = qdd_telemetry::span("core.inner");
        if a.is_zero() || b.is_zero() {
            return Ok(Complex::ZERO);
        }
        let factor = self.complex_value(a.weight).conj() * self.complex_value(b.weight);
        let unit = self.inner_unit(a.node, b.node)?;
        Ok(factor * self.complex_value(unit))
    }

    fn inner_unit(&mut self, an: VNodeId, bn: VNodeId) -> Result<ComplexIdx, DdError> {
        self.governor_check()?;
        if an.is_terminal() && bn.is_terminal() {
            return Ok(C_ONE);
        }
        assert!(
            !an.is_terminal() && !bn.is_terminal(),
            "dimension mismatch in inner_product"
        );
        let key = (an, bn);
        if self.config.compute_tables {
            if let Some(r) = self.caches.inner.get(&key) {
                return Ok(r);
            }
        }
        let anode = self.vnode(an);
        let bnode = self.vnode(bn);
        assert_eq!(anode.var, bnode.var, "dimension mismatch in inner_product");
        let ac = anode.children;
        let bc = bnode.children;
        let mut sum = Complex::ZERO;
        for i in 0..2 {
            if ac[i].is_zero() || bc[i].is_zero() {
                continue;
            }
            let sub = self.inner_unit(ac[i].node, bc[i].node)?;
            sum += self.complex_value(ac[i].weight).conj()
                * self.complex_value(bc[i].weight)
                * self.complex_value(sub);
        }
        let r = self.intern(sum);
        if self.config.compute_tables {
            self.caches.inner.insert(key, r);
        }
        Ok(r)
    }

    /// The Euclidean norm `‖a‖ = √⟨a|a⟩`.
    ///
    /// # Errors
    ///
    /// As for [`Self::inner_product`].
    pub fn vec_norm(&mut self, a: VecEdge) -> Result<f64, DdError> {
        Ok(self.inner_product(a, a)?.re.max(0.0).sqrt())
    }

    /// The fidelity `|⟨a|b⟩|²` between two (normalized) states.
    ///
    /// # Errors
    ///
    /// As for [`Self::inner_product`].
    pub fn fidelity(&mut self, a: VecEdge, b: VecEdge) -> Result<f64, DdError> {
        Ok(self.inner_product(a, b)?.norm_sqr())
    }

    /// The trace of an operator DD spanning `n` qubits.
    pub fn mat_trace(&mut self, m: MatEdge, n: usize) -> Complex {
        fn rec(dd: &mut DdPackage, e: MatEdge, levels_left: usize) -> Complex {
            if e.is_zero() {
                return Complex::ZERO;
            }
            let w = dd.complex_value(e.weight);
            if e.is_terminal() {
                // Identity skip: a terminal edge is `w·I` on every
                // remaining level, contributing `w·2^levels`.
                return w * Complex::real((1u64 << levels_left) as f64);
            }
            let node = dd.mnode(e.node);
            let var = node.var as usize;
            debug_assert!(var < levels_left, "trace on over-spanned DD");
            // Skipped identity levels above the node double the trace each
            // (tr(I₂ ⊗ M) = 2·tr(M)); the children span `var` levels.
            let gap = levels_left - 1 - var;
            let c0 = node.children[0];
            let c3 = node.children[3];
            let t = rec(dd, c0, var) + rec(dd, c3, var);
            w * t * Complex::real((1u64 << gap) as f64)
        }
        rec(self, m, n)
    }
}

#[cfg(test)]
mod tests {
    use crate::{gates, DdPackage};
    use qdd_complex::Complex;

    #[test]
    fn basis_states_are_orthonormal() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(3, 2).unwrap();
        let b = dd.basis_state(3, 5).unwrap();
        assert!(dd
            .inner_product(a, a)
            .unwrap()
            .approx_eq(Complex::ONE, 1e-12));
        assert!(dd
            .inner_product(a, b)
            .unwrap()
            .approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn inner_product_is_conjugate_symmetric() {
        let mut dd = DdPackage::new();
        let a = dd
            .state_from_amplitudes(&[
                Complex::new(0.5, 0.1),
                Complex::new(-0.2, 0.3),
                Complex::new(0.0, 0.6),
                Complex::new(0.4, 0.0),
            ])
            .unwrap();
        let b = dd
            .state_from_amplitudes(&[
                Complex::new(0.1, -0.7),
                Complex::new(0.3, 0.2),
                Complex::new(0.5, 0.0),
                Complex::new(0.0, 0.2),
            ])
            .unwrap();
        let ab = dd.inner_product(a, b).unwrap();
        let ba = dd.inner_product(b, a).unwrap();
        assert!(ab.approx_eq(ba.conj(), 1e-12));
    }

    #[test]
    fn norm_of_states_is_one() {
        let mut dd = DdPackage::new();
        let mut s = dd.zero_state(4).unwrap();
        s = dd.apply_gate(s, gates::H, &[], 3).unwrap();
        s = dd.apply_gate(s, gates::ry(1.1), &[], 2).unwrap();
        assert!((dd.vec_norm(s).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_and_identical() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(2, 0).unwrap();
        let b = dd.basis_state(2, 3).unwrap();
        assert!(dd.fidelity(a, b).unwrap() < 1e-15);
        assert!((dd.fidelity(a, a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_phase_invisible_in_fidelity() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(2, 1).unwrap();
        let w = dd.intern(Complex::cis(0.7));
        let phased = dd.scale_vec(a, w);
        assert!((dd.fidelity(a, phased).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_of_identity_is_dimension() {
        let mut dd = DdPackage::new();
        for n in 1..=5 {
            let id = dd.identity(n).unwrap();
            let t = dd.mat_trace(id, n);
            assert!(t.approx_eq(Complex::real((1u64 << n) as f64), 1e-10));
        }
    }

    #[test]
    fn trace_of_pauli_gates_is_zero() {
        let mut dd = DdPackage::new();
        for u in [gates::X, gates::Y, gates::Z] {
            let g = dd.gate_dd(u, &[], 1, 3).unwrap();
            let t = dd.mat_trace(g, 3);
            assert!(t.abs() < 1e-10);
        }
    }

    #[test]
    fn trace_is_cyclic() {
        let mut dd = DdPackage::new();
        let a = dd.gate_dd(gates::H, &[], 0, 2).unwrap();
        let b = dd
            .gate_dd(gates::phase(0.9), &[crate::Control::pos(0)], 1, 2)
            .unwrap();
        let ab = dd.mat_mat(a, b).unwrap();
        let ba = dd.mat_mat(b, a).unwrap();
        let tab = dd.mat_trace(ab, 2);
        let tba = dd.mat_trace(ba, 2);
        assert!(tab.approx_eq(tba, 1e-10));
    }
}
