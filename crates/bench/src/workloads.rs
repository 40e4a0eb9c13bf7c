//! Named workloads shared between the experiment binaries and
//! `bench_suite`.

use qdd_circuit::{compile, library, QuantumCircuit};
use qdd_complex::Complex;

/// Circuit families used across the compactness/simulation/verification
/// experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// GHZ-state preparation (structured, linear-size diagrams).
    Ghz,
    /// W-state preparation (structured, linear-size diagrams).
    W,
    /// QFT without final swaps.
    Qft,
    /// Grover search for a fixed marked element.
    Grover,
    /// Seeded random circuit of depth `2n` (dense, worst-case-ish).
    Random,
    /// Seeded random Clifford+T circuit of depth `4n` (deep, discrete gate
    /// set — the memoization stress test).
    CliffordT,
}

impl Family {
    /// All families, in reporting order.
    pub const ALL: [Family; 6] = [
        Family::Ghz,
        Family::W,
        Family::Qft,
        Family::Grover,
        Family::Random,
        Family::CliffordT,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Ghz => "ghz",
            Family::W => "w-state",
            Family::Qft => "qft",
            Family::Grover => "grover",
            Family::Random => "random",
            Family::CliffordT => "clifford-t",
        }
    }

    /// Builds the `n`-qubit member of the family.
    pub fn circuit(self, n: usize) -> QuantumCircuit {
        match self {
            Family::Ghz => library::ghz(n),
            Family::W => library::w_state(n),
            Family::Qft => library::qft(n, false),
            Family::Grover => library::grover(n, (1u64 << n) - 1),
            Family::Random => library::random_circuit(n, 2 * n, 0xC0FFEE + n as u64),
            Family::CliffordT => library::random_clifford_t(n, 4 * n, 0xDD + n as u64),
        }
    }
}

/// Entangling ry/cx layers with incommensurate rotation angles: the state
/// has no product structure, so its diagram grows exponentially in the
/// register — the adversarial workload for a node budget, and the
/// `approx` bench family's non-Clifford member.
pub fn random_entangled(n: usize, layers: usize) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            qc.ry(0.37 + 0.11 * (layer * n + q) as f64, q);
        }
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
    }
    qc
}

/// The paper's verification pair: QFT with swaps vs its Fig. 5(b)-style
/// compiled form.
pub fn qft_pair(n: usize) -> (QuantumCircuit, QuantumCircuit) {
    (library::qft(n, true), compile::compiled_qft(n))
}

/// Dense amplitudes of the `n`-qubit W state (for direct state builds).
pub fn w_state_amplitudes(n: usize) -> Vec<Complex> {
    let mut amps = vec![Complex::ZERO; 1 << n];
    let a = 1.0 / (n as f64).sqrt();
    for q in 0..n {
        amps[1 << q] = Complex::real(a);
    }
    amps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_at_small_sizes() {
        for f in Family::ALL {
            let qc = f.circuit(3);
            assert_eq!(qc.num_qubits(), 3, "{}", f.name());
            assert!(qc.gate_count() > 0);
        }
    }

    #[test]
    fn w_amplitudes_are_normalized() {
        let amps = w_state_amplitudes(5);
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
        assert_eq!(amps.iter().filter(|a| a.norm_sqr() > 0.0).count(), 5);
    }

    #[test]
    fn qft_pair_widths_match() {
        let (a, b) = qft_pair(4);
        assert_eq!(a.num_qubits(), b.num_qubits());
        assert!(b.len() > a.len(), "compiled form is longer");
    }
}
