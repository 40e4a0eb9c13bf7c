//! Pointwise addition of vector and matrix decision diagrams.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::types::{MatEdge, VecEdge};

impl DdPackage {
    /// Adds two state-vector DDs (paper Fig. 4, right half).
    ///
    /// Addition is the workhorse inside multiplication; it is exposed
    /// publicly because linear combinations of states are useful on their
    /// own (e.g. constructing superpositions for tests).
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out; the partial result is dropped (any
    /// nodes it created are unreferenced and reclaimed by the next GC).
    ///
    /// # Panics
    ///
    /// Panics if the operands have different qubit counts.
    pub fn add_vec(&mut self, a: VecEdge, b: VecEdge) -> Result<VecEdge, DdError> {
        let _span = qdd_telemetry::span("core.add_vec");
        self.add_vec_go(a, b)
    }

    pub(crate) fn add_vec_go(&mut self, a: VecEdge, b: VecEdge) -> Result<VecEdge, DdError> {
        self.governor_check()?;
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        if a.node == b.node {
            let w = self.ctable.add(a.weight, b.weight);
            return Ok(if w.is_zero() {
                VecEdge::ZERO
            } else {
                VecEdge::new(a.node, w)
            });
        }
        assert!(
            !a.is_terminal() && !b.is_terminal(),
            "vector addition rank mismatch"
        );
        // Commutative: order operands canonically for better cache reuse.
        // Order by creation stamp, not slot id — slot ids are recycled by
        // GC, and a GC-dependent ordering perturbs which operand divides
        // which (numeric drift that can re-fragment compact diagrams).
        let (x, y) = if self.vnode(a.node).birth <= self.vnode(b.node).birth {
            (a, b)
        } else {
            (b, a)
        };
        let alpha = x.weight;
        let beta = self.ctable.div(y.weight, alpha);
        let key = (x.node, y.node, beta);
        if self.config.compute_tables {
            if let Some(r) = self.caches.add_vec.get(&key) {
                return Ok(self.scale_vec(r, alpha));
            }
        }
        let xn = self.vnode(x.node);
        let yn = self.vnode(y.node);
        assert_eq!(xn.var, yn.var, "vector addition rank mismatch");
        let var = xn.var;
        let xc = xn.children;
        let yc = yn.children;
        let mut rc = [VecEdge::ZERO; 2];
        for i in 0..2 {
            let ye = self.scale_vec(yc[i], beta);
            rc[i] = self.add_vec_go(xc[i], ye)?;
        }
        let r = self.make_vec_node(var, rc)?;
        if self.config.compute_tables {
            self.caches.add_vec.insert(key, r);
        }
        Ok(self.scale_vec(r, alpha))
    }

    /// Adds two matrix DDs.
    ///
    /// # Errors
    ///
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out.
    pub fn add_mat(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        let _span = qdd_telemetry::span("core.add_mat");
        self.add_mat_go(a, b)
    }

    pub(crate) fn add_mat_go(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        self.governor_check()?;
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        if a.node == b.node {
            let w = self.ctable.add(a.weight, b.weight);
            return Ok(if w.is_zero() {
                MatEdge::ZERO
            } else {
                MatEdge::new(a.node, w)
            });
        }
        // Identity skip: a terminal operand is `w·I` on the remaining
        // levels, and operands whose roots sit at different levels align by
        // expanding the lower one as a diagonal pass-through. Order the
        // higher-rooted operand first (it drives the recursion); at equal
        // levels fall back to birth-stamp ordering as for vectors. Both
        // orderings are GC-stable, so cache keys stay deterministic.
        let (x, y) = {
            let arank = if a.is_terminal() {
                -1
            } else {
                i64::from(self.mnode(a.node).var)
            };
            let brank = if b.is_terminal() {
                -1
            } else {
                i64::from(self.mnode(b.node).var)
            };
            match arank.cmp(&brank) {
                std::cmp::Ordering::Greater => (a, b),
                std::cmp::Ordering::Less => (b, a),
                std::cmp::Ordering::Equal => {
                    // Equal ranks: terminal==terminal was handled by the
                    // `a.node == b.node` fast path above.
                    if self.mnode(a.node).birth <= self.mnode(b.node).birth {
                        (a, b)
                    } else {
                        (b, a)
                    }
                }
            }
        };
        let alpha = x.weight;
        let beta = self.ctable.div(y.weight, alpha);
        let key = (x.node, y.node, beta);
        if self.config.compute_tables {
            if let Some(r) = self.caches.add_mat.get(&key) {
                return Ok(self.scale_mat(r, alpha));
            }
        }
        let xn = self.mnode(x.node);
        let var = xn.var;
        let xc = xn.children;
        let mut rc = [MatEdge::ZERO; 4];
        if y.is_terminal() || self.mnode(y.node).var < var {
            // `y` skips this level: it contributes `β·y` on both diagonal
            // blocks and nothing off-diagonal.
            let ye = MatEdge::new(y.node, beta);
            rc[0] = self.add_mat_go(xc[0], ye)?;
            rc[1] = xc[1];
            rc[2] = xc[2];
            rc[3] = self.add_mat_go(xc[3], ye)?;
        } else {
            let yc = self.mnode(y.node).children;
            for i in 0..4 {
                let ye = self.scale_mat(yc[i], beta);
                rc[i] = self.add_mat_go(xc[i], ye)?;
            }
        }
        let r = self.make_mat_node(var, rc)?;
        if self.config.compute_tables {
            self.caches.add_mat.insert(key, r);
        }
        Ok(self.scale_mat(r, alpha))
    }
}

#[cfg(test)]
mod tests {
    use crate::DdPackage;
    use qdd_complex::Complex;

    #[test]
    fn add_is_commutative_and_canonical() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(3, 1).unwrap();
        let b = dd.basis_state(3, 6).unwrap();
        let ab = dd.add_vec(a, b).unwrap();
        let ba = dd.add_vec(b, a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn add_with_zero_is_identity() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(2, 3).unwrap();
        assert_eq!(dd.add_vec(a, crate::VecEdge::ZERO).unwrap(), a);
        assert_eq!(dd.add_vec(crate::VecEdge::ZERO, a).unwrap(), a);
    }

    #[test]
    fn state_plus_negated_state_vanishes() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(2, 2).unwrap();
        let neg_w = dd.intern(Complex::real(-1.0));
        let minus_a = dd.scale_vec(a, neg_w);
        assert!(dd.add_vec(a, minus_a).unwrap().is_zero());
    }

    #[test]
    fn add_matches_dense_semantics() {
        let mut dd = DdPackage::new();
        let amps_a = [
            Complex::real(0.5),
            Complex::new(0.0, 0.5),
            Complex::real(-0.5),
            Complex::real(0.5),
        ];
        let amps_b = [
            Complex::real(0.1),
            Complex::real(0.2),
            Complex::new(0.0, -0.3),
            Complex::real(0.4),
        ];
        let a = dd.state_from_amplitudes(&amps_a).unwrap();
        let b = dd.state_from_amplitudes(&amps_b).unwrap();
        let sum = dd.add_vec(a, b).unwrap();
        let dense_a = dd.to_dense_vector(a, 2);
        let dense_b = dd.to_dense_vector(b, 2);
        let dense_sum = dd.to_dense_vector(sum, 2);
        for i in 0..4 {
            assert!(dense_sum[i].approx_eq(dense_a[i] + dense_b[i], 1e-12));
        }
    }

    #[test]
    fn matrix_add_builds_projector_sum() {
        // |0⟩⟨0| ⊗ I + |1⟩⟨1| ⊗ X == CNOT (control = MSB).
        let mut dd = DdPackage::new();
        let z = Complex::ZERO;
        let o = Complex::ONE;
        let p0 = dd
            .matrix_from_dense(&[
                vec![o, z, z, z],
                vec![z, o, z, z],
                vec![z, z, z, z],
                vec![z, z, z, z],
            ])
            .unwrap();
        let p1x = dd
            .matrix_from_dense(&[
                vec![z, z, z, z],
                vec![z, z, z, z],
                vec![z, z, z, o],
                vec![z, z, o, z],
            ])
            .unwrap();
        let sum = dd.add_mat(p0, p1x).unwrap();
        let cx = dd
            .gate_dd(crate::gates::X, &[crate::Control::pos(1)], 0, 2)
            .unwrap();
        assert_eq!(sum, cx);
    }

    #[test]
    fn cache_hit_on_scaled_operands() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(2, 0).unwrap();
        let b = dd.basis_state(2, 3).unwrap();
        let _ = dd.add_vec(a, b).unwrap();
        let before = dd.stats().cache_hits;
        let w = dd.intern(Complex::new(0.0, 2.0));
        let a2 = dd.scale_vec(a, w);
        let b2 = dd.scale_vec(b, w);
        let _ = dd.add_vec(a2, b2).unwrap();
        assert!(
            dd.stats().cache_hits > before,
            "scale-invariant keys should hit the cache"
        );
    }
}
