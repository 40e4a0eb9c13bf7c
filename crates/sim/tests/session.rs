//! An interactive session runs every operation through the batch
//! simulator: resolving each dialog with the simulator's own draw, it takes
//! the batch run of its seed — the same classical bits and, bit for bit,
//! the same amplitudes.

use proptest::prelude::*;
use qdd_circuit::{Condition, QuantumCircuit, StandardGate};
use qdd_complex::Complex;
use qdd_sim::{DdSimulator, StepOutcome, SteppableSimulation};

/// Strategy: a random 2–4-qubit circuit of gates, `measure`, `reset` and
/// gates conditioned on a 2-bit register (`if (c==k)`). A leading `ry`
/// on about half the qubits makes some collapses random and leaves others
/// certain (a reset of a fresh qubit, a second measurement).
fn programs() -> impl Strategy<Value = QuantumCircuit> {
    let op = (0usize..9, 0usize..4, 0usize..4, -3.0f64..3.0, 0u64..4);
    let angles = prop::collection::vec(-3.0f64..3.0, 4);
    (2usize..5, angles, prop::collection::vec(op, 4..20)).prop_map(|(n, angles, ops)| {
        let mut qc = QuantumCircuit::new(n);
        let c = qc.add_creg("c", 2);
        for (q, theta) in angles.into_iter().take(n).enumerate() {
            if theta > 0.0 {
                qc.ry(theta, q);
            }
        }
        for (kind, a, b, theta, k) in ops {
            let (a, b) = (a % n, b % n);
            let cond = Condition { creg: c, value: k };
            match kind {
                0 => {
                    qc.h(a);
                }
                1 => {
                    qc.ry(theta, a);
                }
                2 if a != b => {
                    qc.cx(a, b);
                }
                3 | 4 => {
                    qc.measure(a, b % 2);
                }
                5 => {
                    qc.reset(a);
                }
                6 => {
                    qc.gate_if(StandardGate::X, vec![], a, cond);
                }
                7 => {
                    qc.gate_if(StandardGate::Ry(theta), vec![], a, cond);
                }
                _ => {
                    qc.t(a);
                }
            }
        }
        qc
    })
}

fn to_bits(amplitudes: &[Complex]) -> Vec<(u64, u64)> {
    amplitudes
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drawn_session_is_the_batch_run_bit_for_bit(
        qc in programs(),
        seed in 0u64..1_000_000,
    ) {
        let mut batch = DdSimulator::with_seed(qc.clone(), seed);
        batch.run().unwrap();
        let mut session = SteppableSimulation::with_seed(qc.clone(), seed);
        loop {
            match session.step_forward().unwrap() {
                StepOutcome::NeedsChoice(_) => {
                    session.draw().unwrap();
                }
                StepOutcome::AtEnd => break,
                StepOutcome::Applied { .. } => {}
            }
        }
        prop_assert_eq!(session.classical_bits(), batch.classical_bits());
        let amplitudes = session
            .package()
            .to_dense_vector(session.state(), qc.num_qubits());
        prop_assert_eq!(to_bits(&amplitudes), to_bits(&batch.dense_state()));
    }
}
