//! State-vector constructors: basis states and dense-amplitude import.

use crate::error::DdError;
use crate::package::DdPackage;
use crate::types::{Qubit, VecEdge};
use crate::MAX_QUBITS;
use qdd_complex::Complex;

impl DdPackage {
    pub(crate) fn check_qubits(n: usize) -> Result<(), DdError> {
        if n == 0 || n > MAX_QUBITS {
            Err(DdError::QubitCountOutOfRange { requested: n })
        } else {
            Ok(())
        }
    }

    /// The all-zero computational basis state `|0…0⟩` on `n` qubits.
    ///
    /// # Errors
    ///
    /// [`DdError::QubitCountOutOfRange`] if `n` is zero or exceeds
    /// [`MAX_QUBITS`].
    pub fn zero_state(&mut self, n: usize) -> Result<VecEdge, DdError> {
        self.basis_state(n, 0)
    }

    /// The computational basis state `|index⟩` on `n` qubits (big-endian:
    /// bit `n-1` of `index` is the most significant qubit `q_{n-1}`).
    ///
    /// # Errors
    ///
    /// [`DdError::QubitCountOutOfRange`] if `n` is invalid, or
    /// [`DdError::QubitIndexOutOfRange`] if `index ≥ 2ⁿ`.
    pub fn basis_state(&mut self, n: usize, index: u64) -> Result<VecEdge, DdError> {
        Self::check_qubits(n)?;
        if n < 64 && index >> n != 0 {
            return Err(DdError::QubitIndexOutOfRange {
                qubit: index as usize,
                num_qubits: n,
            });
        }
        let mut e = VecEdge::ONE;
        for q in 0..n {
            let bit = (index >> q) & 1;
            let children = if bit == 0 {
                [e, VecEdge::ZERO]
            } else {
                [VecEdge::ZERO, e]
            };
            e = self.make_vec_node(q as Qubit, children)?;
        }
        Ok(e)
    }

    /// Builds a state DD from a dense amplitude vector by the paper's
    /// recursive halving decomposition (§III-A).
    ///
    /// The amplitudes are normalized; the input need not be unit-norm.
    ///
    /// # Errors
    ///
    /// [`DdError::AmplitudesNotPowerOfTwo`] for lengths that are not a
    /// power of two (or < 2), [`DdError::ZeroVector`] for an all-zero
    /// input, [`DdError::QubitCountOutOfRange`] for oversized inputs.
    pub fn state_from_amplitudes(&mut self, amps: &[Complex]) -> Result<VecEdge, DdError> {
        let len = amps.len();
        if len < 2 || !len.is_power_of_two() {
            return Err(DdError::AmplitudesNotPowerOfTwo { len });
        }
        let n = len.trailing_zeros() as usize;
        Self::check_qubits(n)?;
        let norm2: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if norm2.sqrt() < self.config.tolerance {
            return Err(DdError::ZeroVector);
        }
        let e = self.vec_from_slice(amps)?;
        // Normalize the root weight so the state is unit-norm.
        let w = self.complex_value(e.weight) / norm2.sqrt();
        let weight = self.intern(w);
        Ok(VecEdge::new(e.node, weight))
    }

    fn vec_from_slice(&mut self, amps: &[Complex]) -> Result<VecEdge, DdError> {
        debug_assert!(amps.len().is_power_of_two());
        if amps.len() == 1 {
            let w = self.intern(amps[0]);
            return Ok(VecEdge::terminal(w));
        }
        let half = amps.len() / 2;
        let var = (amps.len().trailing_zeros() - 1) as Qubit;
        let lo = self.vec_from_slice(&amps[..half])?;
        let hi = self.vec_from_slice(&amps[half..])?;
        self.make_vec_node(var, [lo, hi])
    }
}

#[cfg(test)]
mod tests {
    use crate::error::DdError;
    use crate::package::DdPackage;
    use crate::MAX_QUBITS;
    use qdd_complex::Complex;

    #[test]
    fn zero_state_is_chain() {
        let mut dd = DdPackage::new();
        let e = dd.zero_state(4).unwrap();
        assert_eq!(dd.vec_node_count(e), 4);
        assert_eq!(dd.vec_var(e), Some(3));
        // Root weight is 1.
        assert!(dd.complex_value(e.weight).is_one(1e-12));
    }

    #[test]
    fn basis_state_amplitude_paths() {
        let mut dd = DdPackage::new();
        let e = dd.basis_state(3, 0b101).unwrap();
        // Walk: q2=1, q1=0, q0=1.
        let n2 = dd.vnode(e.node);
        assert!(n2.children[0].is_zero());
        let n1 = dd.vnode(n2.children[1].node);
        assert!(n1.children[1].is_zero());
        let n0 = dd.vnode(n1.children[0].node);
        assert!(n0.children[0].is_zero());
        assert!(n0.children[1].is_terminal());
    }

    #[test]
    fn basis_state_rejects_out_of_range_index() {
        let mut dd = DdPackage::new();
        assert!(matches!(
            dd.basis_state(2, 4),
            Err(DdError::QubitIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn qubit_count_bounds() {
        let mut dd = DdPackage::new();
        assert!(dd.zero_state(0).is_err());
        assert!(dd.zero_state(MAX_QUBITS + 1).is_err());
        assert!(dd.zero_state(MAX_QUBITS).is_ok());
        // At the cap, the top qubit is bit 63 of every basis index.
        let top = dd.basis_state(MAX_QUBITS, 1 << 63).unwrap();
        assert!(dd.amplitude(top, 1 << 63).approx_eq(Complex::ONE, 1e-12));
        assert_eq!(dd.nonzero_basis_states(top), vec![1 << 63]);
    }

    #[test]
    fn bell_state_from_amplitudes_matches_paper_example_6() {
        let mut dd = DdPackage::new();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let amps = [
            Complex::real(h),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(h),
        ];
        let e = dd.state_from_amplitudes(&amps).unwrap();
        // Paper Ex. 6: 3 nodes (terminal not counted).
        assert_eq!(dd.vec_node_count(e), 3);
    }

    #[test]
    fn from_amplitudes_normalizes_input() {
        let mut dd = DdPackage::new();
        let amps = [Complex::real(3.0), Complex::real(4.0)];
        let e = dd.state_from_amplitudes(&amps).unwrap();
        let root_w = dd.complex_value(e.weight);
        // Norm of 5 divided out; the state is unit norm.
        assert!((root_w.abs() - 1.0).abs() < 1e-12);

        // Nodes built from unnormalized child weights keep the intended
        // direction [2, 2, 0, 6]: each node's pulled-out factor rides on
        // the edge into it.
        let mut leaf = |re: f64| crate::VecEdge::terminal(dd.intern(Complex::real(re)));
        let (two, six) = (leaf(2.0), leaf(6.0));
        let lo = dd.make_vec_node(0, [two, two]).unwrap();
        let hi = dd.make_vec_node(0, [crate::VecEdge::ZERO, six]).unwrap();
        let e = dd.make_vec_node(1, [lo, hi]).unwrap();
        let dense = dd.to_dense_vector(e, 2);
        assert!((dense[1].re / dense[0].re - 1.0).abs() < 1e-10);
        assert!((dense[3].re / dense[0].re - 3.0).abs() < 1e-10);
        assert!(dense[2].abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_rejects_bad_inputs() {
        let mut dd = DdPackage::new();
        assert!(matches!(
            dd.state_from_amplitudes(&[Complex::ONE; 3]),
            Err(DdError::AmplitudesNotPowerOfTwo { len: 3 })
        ));
        assert!(matches!(
            dd.state_from_amplitudes(&[Complex::ZERO; 4]),
            Err(DdError::ZeroVector)
        ));
        assert!(matches!(
            dd.state_from_amplitudes(&[Complex::ONE]),
            Err(DdError::AmplitudesNotPowerOfTwo { len: 1 })
        ));
    }
}
