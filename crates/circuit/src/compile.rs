//! Compilation passes: the decompositions the paper applies to obtain
//! Fig. 5(b) from Fig. 5(a).
//!
//! "The latter two types of gates \[controlled phase, SWAP\] are not native
//! to any current quantum computer and, thus, need to be compiled into
//! sequences of gates that are supported" (paper Example 10). The passes
//! here produce exactly those sequences — `{H, P(θ), CNOT}` — optionally
//! inserting a barrier after each source gate's expansion, which is what
//! the dashed lines in Fig. 5(b) are for (stepping granularity during
//! verification, Example 12).

use crate::circuit::QuantumCircuit;
use crate::gate::StandardGate;
use crate::op::{swap_gates, GateApplication, Operation};
use qdd_core::{Control, Polarity};

/// Where to insert barriers while compiling.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum BarrierPolicy {
    /// No barriers are inserted.
    #[default]
    None,
    /// A barrier after each source gate's expansion (Fig. 5(b) dashes).
    PerSourceGate,
}

/// Options for [`compile`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CompileOptions {
    /// Decompose SWAPs into three CNOTs.
    pub decompose_swaps: bool,
    /// Decompose singly-controlled phase-family gates (`CP`, `CS`, `CT`,
    /// `CZ`, …) into `{P, CNOT}`.
    pub decompose_controlled_phase: bool,
    /// Decompose Toffoli (CCX) into the standard `{H, T, CNOT}` network.
    pub decompose_ccx: bool,
    /// Barrier insertion policy.
    pub barriers: BarrierPolicy,
}

impl CompileOptions {
    /// The paper's Fig. 5(b) flow: swaps + controlled phases decomposed,
    /// barriers after each source gate.
    pub fn paper_flow() -> Self {
        CompileOptions {
            decompose_swaps: true,
            decompose_controlled_phase: true,
            decompose_ccx: false,
            barriers: BarrierPolicy::PerSourceGate,
        }
    }
}

/// Compiles a circuit with the given options, leaving untouched any
/// operation the options don't cover.
pub fn compile(qc: &QuantumCircuit, options: CompileOptions) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(qc.num_qubits(), format!("{}_compiled", qc.name()));
    for reg in qc.cregs() {
        out.add_creg(reg.name.clone(), reg.size);
    }
    for op in qc.ops() {
        for e in expand_op(op, options) {
            out.append(e);
        }
        // Fig. 5(b) groups every source gate's expansion with a barrier so
        // the verification stepping of Example 12 stays aligned 1:1.
        if options.barriers == BarrierPolicy::PerSourceGate && !matches!(op, Operation::Barrier) {
            out.barrier();
        }
    }
    out
}

/// The paper's compiled three-qubit QFT (Fig. 5(b)): QFT with swaps,
/// compiled through [`CompileOptions::paper_flow`].
pub fn compiled_qft(n: usize) -> QuantumCircuit {
    compile(&crate::library::qft(n, true), CompileOptions::paper_flow())
}

fn expand_op(op: &Operation, options: CompileOptions) -> Vec<Operation> {
    match op {
        Operation::Swap { a, b, controls } if options.decompose_swaps => {
            Vec::from(swap_gates(*a, *b, controls).map(Operation::Gate))
        }
        Operation::Gate(g) if g.condition.is_none() => {
            let is_phase_family = matches!(
                g.gate.simplified(),
                StandardGate::Phase(_)
                    | StandardGate::S
                    | StandardGate::Sdg
                    | StandardGate::T
                    | StandardGate::Tdg
                    | StandardGate::Z
            );
            let single_pos_control = g.controls.len() == 1
                && g.controls[0].polarity == Polarity::Positive;
            if options.decompose_controlled_phase && is_phase_family && single_pos_control {
                let theta = phase_angle(g.gate);
                return decompose_cp(theta, g.controls[0].qubit, g.target);
            }
            if options.decompose_ccx
                && g.gate == StandardGate::X
                && g.controls.len() == 2
                && g.controls.iter().all(|c| c.polarity == Polarity::Positive)
            {
                return decompose_ccx(g.controls[0].qubit, g.controls[1].qubit, g.target);
            }
            vec![op.clone()]
        }
        _ => vec![op.clone()],
    }
}

/// The phase angle of a phase-family gate.
fn phase_angle(gate: StandardGate) -> f64 {
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
    match gate.simplified() {
        StandardGate::Phase(t) => t,
        StandardGate::S => FRAC_PI_2,
        StandardGate::Sdg => -FRAC_PI_2,
        StandardGate::T => FRAC_PI_4,
        StandardGate::Tdg => -FRAC_PI_4,
        StandardGate::Z => PI,
        other => unreachable!("not a phase-family gate: {other:?}"),
    }
}

/// `CP(θ)` → `P(θ/2) c; CX; P(-θ/2) t; CX; P(θ/2) t` (the expansion behind
/// the `P(±π/4)`, `P(±π/8)` gates of Fig. 5(b)).
fn decompose_cp(theta: f64, c: usize, t: usize) -> Vec<Operation> {
    let p = |angle: f64, q: usize| {
        Operation::Gate(GateApplication::new(StandardGate::Phase(angle), vec![], q))
    };
    let cx = |c: usize, t: usize| {
        Operation::Gate(GateApplication::new(
            StandardGate::X,
            vec![Control::pos(c)],
            t,
        ))
    };
    vec![
        p(theta / 2.0, c),
        cx(c, t),
        p(-theta / 2.0, t),
        cx(c, t),
        p(theta / 2.0, t),
    ]
}

/// The standard 6-CNOT Toffoli decomposition over `{H, T, T†, CNOT}`.
fn decompose_ccx(a: usize, b: usize, t: usize) -> Vec<Operation> {
    let g = |gate: StandardGate, q: usize| {
        Operation::Gate(GateApplication::new(gate, vec![], q))
    };
    let cx = |c: usize, t: usize| {
        Operation::Gate(GateApplication::new(
            StandardGate::X,
            vec![Control::pos(c)],
            t,
        ))
    };
    vec![
        g(StandardGate::H, t),
        cx(b, t),
        g(StandardGate::Tdg, t),
        cx(a, t),
        g(StandardGate::T, t),
        cx(b, t),
        g(StandardGate::Tdg, t),
        cx(a, t),
        g(StandardGate::T, b),
        g(StandardGate::T, t),
        g(StandardGate::H, t),
        cx(a, b),
        g(StandardGate::T, a),
        g(StandardGate::Tdg, b),
        cx(a, b),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::qft;

    #[test]
    fn paper_flow_expands_qft3_like_fig_5b() {
        let compiled = compiled_qft(3);
        // No controlled-phase or swap survives.
        for op in compiled.ops() {
            match op {
                Operation::Swap { .. } => panic!("swap not decomposed"),
                Operation::Gate(g) => {
                    if !g.controls.is_empty() {
                        assert_eq!(
                            g.gate,
                            StandardGate::X,
                            "only CNOTs may remain controlled"
                        );
                    }
                }
                Operation::Barrier => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        // One barrier per source operation (3 H + 3 CP + 1 SWAP).
        let barriers = compiled
            .ops()
            .iter()
            .filter(|op| matches!(op, Operation::Barrier))
            .count();
        assert_eq!(barriers, 7);
    }

    #[test]
    fn every_source_gate_gets_a_barrier_group() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).cx(0, 1);
        let out = compile(&qc, CompileOptions::paper_flow());
        assert_eq!(out.len(), 4, "each source gate followed by its barrier");
    }

    #[test]
    fn cp_decomposition_has_five_gates() {
        let ops = decompose_cp(std::f64::consts::FRAC_PI_2, 1, 0);
        assert_eq!(ops.len(), 5);
        let cx_count = ops
            .iter()
            .filter(|op| match op {
                Operation::Gate(g) => !g.controls.is_empty(),
                _ => false,
            })
            .count();
        assert_eq!(cx_count, 2);
    }

    #[test]
    fn ccx_decomposition_inventory() {
        let ops = decompose_ccx(2, 1, 0);
        assert_eq!(ops.len(), 15);
        let cx = ops
            .iter()
            .filter(|op| match op {
                Operation::Gate(g) => g.controls.len() == 1,
                _ => false,
            })
            .count();
        assert_eq!(cx, 6);
    }

    #[test]
    fn options_off_is_identity() {
        let src = qft(3, true);
        let out = compile(&src, CompileOptions::default());
        assert_eq!(out.len(), src.len());
    }

    #[test]
    fn cregs_are_preserved() {
        let mut qc = QuantumCircuit::new(2);
        qc.add_creg("c", 2);
        qc.h(0);
        let out = compile(&qc, CompileOptions::paper_flow());
        assert_eq!(out.num_clbits(), 2);
    }
}
