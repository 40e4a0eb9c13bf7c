//! Conjugate transpose of operator DDs.
//!
//! Needed by the advanced equivalence-checking scheme (paper Example 12):
//! checking `G ≡ G'` by driving `G'⁻¹ · G` toward the identity requires the
//! inverses — for unitaries, the adjoints — of `G'`'s gates.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::types::{MatEdge, MNodeId};

impl DdPackage {
    /// The conjugate transpose `M†` of an operator DD.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out.
    pub fn adjoint_mat(&mut self, m: MatEdge) -> Result<MatEdge, DdError> {
        self.adjoint_go(m)
    }

    fn adjoint_go(&mut self, m: MatEdge) -> Result<MatEdge, DdError> {
        if m.is_zero() {
            return Ok(MatEdge::ZERO);
        }
        let w = self.ctable.conj(m.weight);
        let r = self.adjoint_unit(m.node)?;
        Ok(self.scale_mat(r, w))
    }

    fn adjoint_unit(&mut self, mn: MNodeId) -> Result<MatEdge, DdError> {
        self.governor_check()?;
        if mn.is_terminal() {
            return Ok(MatEdge::ONE);
        }
        if self.config.compute_tables {
            if let Some(r) = self.caches.adjoint.get(&mn) {
                return Ok(r);
            }
        }
        let node = self.mnode(mn);
        let var = node.var;
        let c = node.children;
        // Transpose swaps the off-diagonal blocks; conjugation recurses.
        let r00 = self.adjoint_go(c[0])?;
        let r01 = self.adjoint_go(c[2])?;
        let r10 = self.adjoint_go(c[1])?;
        let r11 = self.adjoint_go(c[3])?;
        let r = self.make_mat_node(var, [r00, r01, r10, r11])?;
        if self.config.compute_tables {
            self.caches.adjoint.insert(mn, r);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use crate::{gates, Control, DdPackage};

    #[test]
    fn adjoint_is_involution() {
        let mut dd = DdPackage::new();
        let g = dd.gate_dd(gates::t(), &[Control::pos(1)], 0, 3).unwrap();
        let gdd = dd.adjoint_mat(g).unwrap();
        let back = dd.adjoint_mat(gdd).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn adjoint_matches_matrix_adjoint() {
        let mut dd = DdPackage::new();
        let u = gates::u3(0.7, -0.4, 1.9);
        let g = dd.gate_dd(u, &[], 1, 2).unwrap();
        let via_dd = dd.adjoint_mat(g).unwrap();
        let via_matrix = dd.gate_dd(gates::adjoint(&u), &[], 1, 2).unwrap();
        assert_eq!(via_dd, via_matrix);
    }

    #[test]
    fn unitary_times_adjoint_is_identity() {
        let mut dd = DdPackage::new();
        let g = dd
            .gate_dd(gates::phase(0.3), &[Control::pos(2)], 0, 3)
            .unwrap();
        let gd = dd.adjoint_mat(g).unwrap();
        let prod = dd.mat_mat(g, gd).unwrap();
        let id = dd.identity(3).unwrap();
        assert_eq!(prod, id);
    }

    #[test]
    fn hermitian_gates_are_self_adjoint() {
        let mut dd = DdPackage::new();
        for u in [gates::H, gates::X, gates::Y, gates::Z] {
            let g = dd.gate_dd(u, &[], 0, 2).unwrap();
            assert_eq!(dd.adjoint_mat(g).unwrap(), g);
        }
    }

    #[test]
    fn adjoint_of_zero_is_zero() {
        let mut dd = DdPackage::new();
        assert!(dd.adjoint_mat(crate::MatEdge::ZERO).unwrap().is_zero());
    }
}
