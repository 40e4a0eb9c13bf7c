//! Observables: Pauli strings, expectation values, and single-qubit reduced
//! states.
//!
//! The paper's tool displays measurement probabilities; a library user
//! additionally wants expectation values of observables — computed here
//! without densifying, via `⟨ψ| P |ψ⟩` with `P` applied as a gate sequence
//! — and the reduced density matrix of a qubit (which also quantifies the
//! entanglement the paper's Example 1 points at: a Bell qubit is maximally
//! mixed).

use crate::error::DdError;
use crate::gates;
use crate::package::DdPackage;
use crate::types::VecEdge;
use qdd_complex::Complex;
use std::fmt;

/// A single-qubit Pauli operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    fn matrix(self) -> gates::GateMatrix {
        match self {
            Pauli::I => gates::I,
            Pauli::X => gates::X,
            Pauli::Y => gates::Y,
            Pauli::Z => gates::Z,
        }
    }
}

/// A tensor product of single-qubit Paulis, e.g. `Z₂ ⊗ I₁ ⊗ X₀`.
///
/// # Examples
///
/// ```
/// use qdd_core::{Pauli, PauliString};
///
/// let zz: PauliString = "ZZ".parse()?;
/// assert_eq!(zz.factor(0), Pauli::Z);
/// assert_eq!(zz.to_string(), "ZZ");
/// # Ok::<(), qdd_core::ParsePauliError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PauliString {
    /// `factors[q]` acts on qubit `q` (so the *last* character of the
    /// string form, big-endian, is qubit 0).
    factors: Vec<Pauli>,
}

/// Error parsing a [`PauliString`] from text.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ParsePauliError {
    /// The offending character.
    pub found: char,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pauli character `{}` (expected I, X, Y, or Z)", self.found)
    }
}

impl std::error::Error for ParsePauliError {}

impl PauliString {
    /// Builds a Pauli string from per-qubit factors (`factors[q]` acts on
    /// qubit `q`).
    pub fn new(factors: Vec<Pauli>) -> Self {
        PauliString { factors }
    }

    /// The identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            factors: vec![Pauli::I; n],
        }
    }

    /// A single Pauli on one qubit of an `n`-qubit register.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> Self {
        assert!(qubit < n, "qubit {qubit} out of range for {n} qubits");
        let mut factors = vec![Pauli::I; n];
        factors[qubit] = p;
        PauliString { factors }
    }

    /// The number of qubits the string spans.
    pub fn num_qubits(&self) -> usize {
        self.factors.len()
    }

    /// The factor acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn factor(&self, qubit: usize) -> Pauli {
        self.factors[qubit]
    }

    /// The non-identity support of the string.
    pub fn support(&self) -> Vec<usize> {
        (0..self.factors.len())
            .filter(|&q| self.factors[q] != Pauli::I)
            .collect()
    }
}

impl std::str::FromStr for PauliString {
    type Err = ParsePauliError;

    /// Parses big-endian text: the first character acts on the
    /// most-significant qubit (matching `|q_{n-1} … q_0⟩`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut factors = Vec::with_capacity(s.len());
        for ch in s.chars().rev() {
            factors.push(match ch {
                'I' | 'i' => Pauli::I,
                'X' | 'x' => Pauli::X,
                'Y' | 'y' => Pauli::Y,
                'Z' | 'z' => Pauli::Z,
                found => return Err(ParsePauliError { found }),
            });
        }
        Ok(PauliString { factors })
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.factors.iter().rev() {
            let c = match p {
                Pauli::I => 'I',
                Pauli::X => 'X',
                Pauli::Y => 'Y',
                Pauli::Z => 'Z',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl DdPackage {
    /// The expectation value `⟨ψ| P |ψ⟩` of a Pauli string.
    ///
    /// Always real for Hermitian `P`; the real part is returned.
    ///
    /// # Errors
    ///
    /// [`DdError::QubitIndexOutOfRange`] if the string spans more qubits
    /// than the state; [`DdError::ResourceExhausted`] or
    /// [`DdError::DeadlineExceeded`] when a configured budget runs out
    /// while applying the string.
    pub fn expectation_value(
        &mut self,
        state: VecEdge,
        observable: &PauliString,
    ) -> Result<f64, DdError> {
        let n = self.vec_var(state).map_or(0, |v| v as usize + 1);
        if observable.num_qubits() > n {
            return Err(DdError::QubitIndexOutOfRange {
                qubit: observable.num_qubits() - 1,
                num_qubits: n,
            });
        }
        let mut transformed = state;
        for q in observable.support() {
            transformed =
                self.apply_gate(transformed, observable.factor(q).matrix(), &[], q)?;
        }
        Ok(self.inner_product(state, transformed)?.re)
    }

    /// The 2×2 reduced density matrix of `qubit`:
    /// `ρ = [[⟨ψ₀|ψ₀⟩, ⟨ψ₀|ψ₁⟩], [⟨ψ₁|ψ₀⟩, ⟨ψ₁|ψ₁⟩]]` where `|ψ_b⟩` is the
    /// (unnormalized) branch with `qubit = b`.
    ///
    /// This is the partial trace the paper mentions for `reset` (§IV-B):
    /// resets map pure states to mixed states in general, which is exactly
    /// what this matrix exposes.
    ///
    /// # Errors
    ///
    /// As for [`Self::bloch_vector`].
    pub fn reduced_density_matrix(
        &mut self,
        state: VecEdge,
        qubit: usize,
    ) -> Result<[[Complex; 2]; 2], DdError> {
        // ⟨ψ|(|i⟩⟨j| ⊗ I)|ψ⟩ through Pauli expectations:
        //   ρ01 + ρ10 = ⟨X⟩,  i(ρ01 − ρ10) = ⟨Y⟩,  ρ00 − ρ11 = ⟨Z⟩.
        let (x, y, z) = self.bloch_vector(state, qubit)?;
        let rho00 = (1.0 + z) / 2.0;
        let rho11 = (1.0 - z) / 2.0;
        let rho01 = Complex::new(x / 2.0, -y / 2.0);
        Ok([
            [Complex::real(rho00), rho01],
            [rho01.conj(), Complex::real(rho11)],
        ])
    }

    /// The purity `tr(ρ²)` of one qubit's reduced state: 1 for a product
    /// state, ½ for a maximally entangled qubit (Example 1's Bell pair).
    ///
    /// # Errors
    ///
    /// As for [`Self::bloch_vector`].
    pub fn qubit_purity(&mut self, state: VecEdge, qubit: usize) -> Result<f64, DdError> {
        let rho = self.reduced_density_matrix(state, qubit)?;
        let mut tr = 0.0;
        #[allow(clippy::needless_range_loop)] // tr(ρ²) is clearest with indices
        for i in 0..2 {
            for j in 0..2 {
                tr += (rho[i][j] * rho[j][i]).re;
            }
        }
        Ok(tr)
    }

    /// The Bloch vector `(⟨X⟩, ⟨Y⟩, ⟨Z⟩)` of one qubit.
    ///
    /// # Errors
    ///
    /// [`DdError::QubitIndexOutOfRange`] if `qubit` lies outside the state;
    /// [`DdError::ResourceExhausted`] or [`DdError::DeadlineExceeded`] when
    /// a configured budget runs out while applying the Paulis.
    pub fn bloch_vector(
        &mut self,
        state: VecEdge,
        qubit: usize,
    ) -> Result<(f64, f64, f64), DdError> {
        let n = self.vec_var(state).map_or(0, |v| v as usize + 1);
        if qubit >= n {
            return Err(DdError::QubitIndexOutOfRange { qubit, num_qubits: n });
        }
        let mut expect = |p| self.expectation_value(state, &PauliString::single(n, qubit, p));
        Ok((expect(Pauli::X)?, expect(Pauli::Y)?, expect(Pauli::Z)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Control;

    fn bell(dd: &mut DdPackage) -> VecEdge {
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let p: PauliString = "XIZ".parse().unwrap();
        assert_eq!(p.factor(0), Pauli::Z);
        assert_eq!(p.factor(1), Pauli::I);
        assert_eq!(p.factor(2), Pauli::X);
        assert_eq!(p.to_string(), "XIZ");
        assert_eq!(p.support(), vec![0, 2]);
        assert!("XQZ".parse::<PauliString>().is_err());
    }

    #[test]
    fn z_expectation_on_basis_states() {
        let mut dd = DdPackage::new();
        let zero = dd.zero_state(1).unwrap();
        let one = dd.basis_state(1, 1).unwrap();
        let z = PauliString::single(1, 0, Pauli::Z);
        assert!((dd.expectation_value(zero, &z).unwrap() - 1.0).abs() < 1e-12);
        assert!((dd.expectation_value(one, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_expectation_on_plus_state() {
        let mut dd = DdPackage::new();
        let zero = dd.zero_state(1).unwrap();
        let plus = dd.apply_gate(zero, gates::H, &[], 0).unwrap();
        let x = PauliString::single(1, 0, Pauli::X);
        assert!((dd.expectation_value(plus, &x).unwrap() - 1.0).abs() < 1e-12);
        let z = PauliString::single(1, 0, Pauli::Z);
        assert!(dd.expectation_value(plus, &z).unwrap().abs() < 1e-12);
    }

    #[test]
    fn bell_correlations() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        // ⟨ZZ⟩ = ⟨XX⟩ = 1, ⟨YY⟩ = −1, single-qubit ⟨Z⟩ = 0.
        for (s, want) in [("ZZ", 1.0), ("XX", 1.0), ("YY", -1.0), ("IZ", 0.0), ("ZI", 0.0)] {
            let p: PauliString = s.parse().unwrap();
            let got = dd.expectation_value(b, &p).unwrap();
            assert!((got - want).abs() < 1e-12, "⟨{s}⟩ = {got}, want {want}");
        }
    }

    #[test]
    fn identity_expectation_is_norm() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let id = PauliString::identity(2);
        assert!((dd.expectation_value(b, &id).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_observable_rejected() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(2).unwrap();
        let p = PauliString::identity(5);
        assert!(matches!(
            dd.expectation_value(s, &p),
            Err(DdError::QubitIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn bell_qubit_is_maximally_mixed() {
        let mut dd = DdPackage::new();
        let b = bell(&mut dd);
        let rho = dd.reduced_density_matrix(b, 0).unwrap();
        assert!((rho[0][0].re - 0.5).abs() < 1e-12);
        assert!((rho[1][1].re - 0.5).abs() < 1e-12);
        assert!(rho[0][1].abs() < 1e-12, "no coherence in a Bell qubit");
        assert!((dd.qubit_purity(b, 0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn product_state_qubit_is_pure() {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::ry(0.9), &[], 0).unwrap();
        assert!((dd.qubit_purity(s, 0).unwrap() - 1.0).abs() < 1e-12);
        assert!((dd.qubit_purity(s, 1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bloch_vector_tracks_rotations() {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(1).unwrap();
        let (x0, y0, z0) = dd.bloch_vector(z, 0).unwrap();
        assert!((z0 - 1.0).abs() < 1e-12 && x0.abs() < 1e-12 && y0.abs() < 1e-12);
        let theta = 0.7;
        let rotated = dd.apply_gate(z, gates::ry(theta), &[], 0).unwrap();
        let (x, _, zc) = dd.bloch_vector(rotated, 0).unwrap();
        assert!((x - theta.sin()).abs() < 1e-12);
        assert!((zc - theta.cos()).abs() < 1e-12);
        // Unit Bloch vector for pure states.
        assert!((x * x + zc * zc - 1.0).abs() < 1e-12);
        assert_eq!(
            dd.bloch_vector(rotated, 1),
            Err(DdError::QubitIndexOutOfRange { qubit: 1, num_qubits: 1 })
        );
    }

    #[test]
    fn reduced_matrix_is_hermitian_with_unit_trace() {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(3).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 2).unwrap();
        let s = dd.apply_gate(s, gates::t(), &[Control::pos(2)], 1).unwrap();
        let s = dd.apply_gate(s, gates::rx(0.4), &[], 0).unwrap();
        for q in 0..3 {
            let rho = dd.reduced_density_matrix(s, q).unwrap();
            assert!((rho[0][0].re + rho[1][1].re - 1.0).abs() < 1e-12, "trace");
            assert!(rho[0][1].approx_eq(rho[1][0].conj(), 1e-12), "hermitian");
            assert!(rho[0][0].im.abs() < 1e-12 && rho[1][1].im.abs() < 1e-12);
        }
    }
}
