//! Dense state-vector simulation — the exponential baseline.
//!
//! The paper's motivation for decision diagrams is that state vectors and
//! operation matrices are "exponential in size with respect to the number
//! of qubits" (§III). This module implements that straightforward
//! representation so the benchmarks can quantify the comparison on
//! identical circuits.

use crate::creg_value;
use crate::error::SimError;
use qdd_circuit::{swap_gates, Operation, QuantumCircuit};
use qdd_complex::{Complex, FxHashMap};
use qdd_core::{Control, GateMatrix, Polarity};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Largest register the dense simulator accepts (2²⁴ amplitudes).
pub const MAX_DENSE_QUBITS: usize = 24;

/// A straightforward `2ⁿ`-amplitude state-vector simulator.
#[derive(Clone, Debug)]
pub struct DenseSimulator {
    n: usize,
    state: Vec<Complex>,
    classical: Vec<bool>,
    rng: SmallRng,
}

impl DenseSimulator {
    /// Creates a simulator in `|0…0⟩` over `n` qubits.
    ///
    /// # Errors
    ///
    /// [`SimError::TooLarge`] beyond [`MAX_DENSE_QUBITS`].
    pub fn new(n: usize, seed: u64) -> Result<Self, SimError> {
        if n == 0 || n > MAX_DENSE_QUBITS {
            return Err(SimError::TooLarge {
                num_qubits: n,
                max: MAX_DENSE_QUBITS,
            });
        }
        let mut state = vec![Complex::ZERO; 1 << n];
        state[0] = Complex::ONE;
        Ok(DenseSimulator {
            n,
            state,
            classical: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// Creates a simulator mid-circuit from an exported amplitude vector and
    /// classical-bit snapshot — the hand-off point of the DD simulator's
    /// dense degradation fallback.
    ///
    /// # Errors
    ///
    /// [`SimError::TooLarge`] beyond [`MAX_DENSE_QUBITS`] or when `state`
    /// is not `2ⁿ` amplitudes long.
    pub fn from_parts(
        n: usize,
        state: Vec<Complex>,
        classical: Vec<bool>,
        seed: u64,
    ) -> Result<Self, SimError> {
        if n == 0 || n > MAX_DENSE_QUBITS || state.len() != 1 << n {
            return Err(SimError::TooLarge {
                num_qubits: n,
                max: MAX_DENSE_QUBITS,
            });
        }
        Ok(DenseSimulator {
            n,
            state,
            classical,
            rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// The current amplitudes.
    pub fn state(&self) -> &[Complex] {
        &self.state
    }

    /// The classical bits recorded so far.
    pub fn classical_bits(&self) -> &[bool] {
        &self.classical
    }

    /// Runs a whole circuit.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn run(&mut self, circuit: &QuantumCircuit) -> Result<(), SimError> {
        if circuit.num_qubits() != self.n {
            return Err(SimError::TooLarge {
                num_qubits: circuit.num_qubits(),
                max: self.n,
            });
        }
        if self.classical.len() < circuit.num_clbits() {
            self.classical.resize(circuit.num_clbits(), false);
        }
        for op in circuit.ops() {
            self.apply_operation(circuit, op)?;
        }
        Ok(())
    }

    /// Applies one operation.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for out-of-range classical bits.
    pub fn apply_operation(
        &mut self,
        circuit: &QuantumCircuit,
        op: &Operation,
    ) -> Result<(), SimError> {
        match op {
            Operation::Barrier => {}
            Operation::Gate(g) => {
                if let Some(cond) = g.condition {
                    let reg = &circuit.cregs()[cond.creg];
                    if creg_value(&self.classical, reg.offset, reg.size) != cond.value {
                        return Ok(());
                    }
                }
                self.apply_gate(&g.gate.matrix(), &g.controls, g.target);
            }
            Operation::Swap { a, b, controls } => {
                if controls.is_empty() {
                    self.apply_swap(*a, *b);
                } else {
                    for g in swap_gates(*a, *b, controls) {
                        self.apply_gate(&g.gate.matrix(), &g.controls, g.target);
                    }
                }
            }
            Operation::Measure { qubit, bit } => {
                if *bit >= self.classical.len() {
                    return Err(SimError::BitOutOfRange {
                        bit: *bit,
                        num_bits: self.classical.len(),
                    });
                }
                let outcome = self.measure(*qubit);
                self.classical[*bit] = outcome;
            }
            Operation::Reset { qubit } => {
                let outcome = self.measure(*qubit);
                if outcome {
                    self.apply_gate(&qdd_core::gates::X, &[], *qubit);
                }
            }
        }
        Ok(())
    }

    /// Applies a (multi-)controlled 2×2 gate in place.
    pub fn apply_gate(&mut self, u: &GateMatrix, controls: &[Control], target: usize) {
        let t_mask = 1usize << target;
        let mut pos_mask = 0usize;
        let mut neg_mask = 0usize;
        for c in controls {
            match c.polarity {
                Polarity::Positive => pos_mask |= 1 << c.qubit,
                Polarity::Negative => neg_mask |= 1 << c.qubit,
            }
        }
        for i in 0..self.state.len() {
            if i & t_mask != 0 {
                continue; // handle each pair once, from the |0⟩ side
            }
            if i & pos_mask != pos_mask || i & neg_mask != 0 {
                continue;
            }
            let j = i | t_mask;
            let a = self.state[i];
            let b = self.state[j];
            self.state[i] = u[0][0] * a + u[0][1] * b;
            self.state[j] = u[1][0] * a + u[1][1] * b;
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let (ma, mb) = (1usize << a, 1usize << b);
        for i in 0..self.state.len() {
            let bit_a = i & ma != 0;
            let bit_b = i & mb != 0;
            if bit_a && !bit_b {
                let j = (i & !ma) | mb;
                self.state.swap(i, j);
            }
        }
    }

    /// The probability of measuring `|1⟩` on `qubit`.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        let mask = 1usize << qubit;
        self.state
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Measures `qubit`, collapsing the state; returns the outcome.
    pub fn measure(&mut self, qubit: usize) -> bool {
        let p1 = self.prob_one(qubit);
        let outcome = self.rng.gen::<f64>() < p1;
        self.collapse(qubit, outcome);
        outcome
    }

    /// Projects `qubit` onto `outcome` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics when the outcome has probability ≈ 0.
    pub fn collapse(&mut self, qubit: usize, outcome: bool) {
        let mask = 1usize << qubit;
        let p = if outcome {
            self.prob_one(qubit)
        } else {
            1.0 - self.prob_one(qubit)
        };
        assert!(p > 1e-12, "collapse onto zero-probability outcome");
        let norm = p.sqrt();
        for (i, a) in self.state.iter_mut().enumerate() {
            let keep = (i & mask != 0) == outcome;
            *a = if keep { *a / norm } else { Complex::ZERO };
        }
    }

    /// Samples `shots` basis states from the current distribution, drawing
    /// uniforms from the simulator's internal RNG.
    pub fn sample(&mut self, shots: u64) -> FxHashMap<u64, u64> {
        let probs: Vec<f64> = self.state.iter().map(|a| a.norm_sqr()).collect();
        Self::sample_distribution(&probs, shots, &mut self.rng)
    }

    /// Samples `shots` basis states drawing uniforms from a caller-provided
    /// RNG, leaving the internal stream untouched — lets a caller that owns
    /// the seeding discipline (e.g. the DD simulator after a dense
    /// degradation) keep one stream across backends.
    pub fn sample_with_rng<R: Rng + ?Sized>(
        &self,
        shots: u64,
        rng: &mut R,
    ) -> FxHashMap<u64, u64> {
        let probs: Vec<f64> = self.state.iter().map(|a| a.norm_sqr()).collect();
        Self::sample_distribution(&probs, shots, rng)
    }

    /// Inverse-CDF sampling over an explicit probability table.
    fn sample_distribution<R: Rng + ?Sized>(
        probs: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> FxHashMap<u64, u64> {
        let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
        for _ in 0..shots {
            let mut r = rng.gen::<f64>();
            let mut picked = probs.len() - 1;
            for (i, p) in probs.iter().enumerate() {
                if r < *p {
                    picked = i;
                    break;
                }
                r -= p;
            }
            *counts.entry(picked as u64).or_insert(0) += 1;
        }
        counts
    }

    /// Convenience: run `circuit` from scratch and return the simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`].
    pub fn simulate(circuit: &QuantumCircuit, seed: u64) -> Result<DenseSimulator, SimError> {
        let mut sim = DenseSimulator::new(circuit.num_qubits(), seed)?;
        sim.run(circuit)?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::library;
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn bell_amplitudes() {
        let sim = DenseSimulator::simulate(&library::bell(), 1).unwrap();
        let s = sim.state();
        assert!(s[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(s[3].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    }

    #[test]
    fn negative_control_semantics() {
        let mut sim = DenseSimulator::new(2, 1).unwrap();
        sim.apply_gate(&qdd_core::gates::X, &[Control::neg(1)], 0);
        assert!(sim.state()[0b01].abs() > 0.999);
    }

    #[test]
    fn swap_moves_excitation() {
        let mut qc = qdd_circuit::QuantumCircuit::new(3);
        qc.x(0).swap(0, 2);
        let sim = DenseSimulator::simulate(&qc, 1).unwrap();
        assert!(sim.state()[0b100].abs() > 0.999);
    }

    #[test]
    fn measurement_statistics() {
        let mut qc = qdd_circuit::QuantumCircuit::new(1);
        qc.add_creg("c", 1);
        qc.h(0).measure(0, 0);
        let mut ones = 0;
        for seed in 0..200 {
            let sim = DenseSimulator::simulate(&qc, seed).unwrap();
            if sim.classical_bits()[0] {
                ones += 1;
            }
        }
        let f = ones as f64 / 200.0;
        assert!((f - 0.5).abs() < 0.12, "frequency {f}");
    }

    #[test]
    fn rejects_oversized_register() {
        assert!(matches!(
            DenseSimulator::new(30, 1),
            Err(SimError::TooLarge { .. })
        ));
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut sim = DenseSimulator::simulate(&library::ghz(2), 7).unwrap();
        let counts = sim.sample(1000);
        assert!(counts.keys().all(|&k| k == 0 || k == 3));
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn collapse_impossible_outcome_panics() {
        let mut sim = DenseSimulator::new(1, 1).unwrap();
        sim.collapse(0, true);
    }
}
