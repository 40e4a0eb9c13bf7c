//! OpenQASM 2.0 parsing — the primary input format of the paper's tool
//! ("drag-and-drop an algorithm/circuit file in either `.qasm` or `.real`
//! format", §IV-B).
//!
//! Supported subset (everything the tool's example algorithms use):
//!
//! * `OPENQASM 2.0;`, `include "qelib1.inc";` (the include is built in);
//! * `qreg` / `creg` declarations (multiple registers);
//! * the built-in `U`/`CX` plus the full `qelib1` vocabulary
//!   (`id u1 u2 u3 u p x y z h s sdg t tdg sx sxdg rx ry rz cx cy cz ch cp
//!   cu1 crx cry crz cu3 ccx swap cswap`);
//! * user-defined `gate` definitions (macro-expanded), `opaque` (ignored);
//! * parameter expressions with `pi`, `+ - * / ^`, unary minus and the
//!   functions `sin cos tan exp ln sqrt`;
//! * register broadcasting (`h q;` applies to every qubit of `q`);
//! * `barrier`, `measure a -> c`, `reset`, and `if (c == k) <gate>;`.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//! OPENQASM 2.0;
//! include "qelib1.inc";
//! qreg q[2];
//! creg c[2];
//! h q[1];
//! cx q[1], q[0];
//! measure q -> c;
//! "#;
//! let qc = qdd_circuit::qasm::parse(src).unwrap();
//! assert_eq!(qc.num_qubits(), 2);
//! assert_eq!(qc.gate_count(), 2);
//! ```

mod expr;
mod lexer;
mod parser;

pub use parser::parse;

#[cfg(test)]
mod tests {
    use super::parse;
    use crate::{Operation, StandardGate};

    #[test]
    fn parses_minimal_bell() {
        let qc = parse(
            "OPENQASM 2.0; qreg q[2]; h q[1]; CX q[1], q[0];",
        )
        .unwrap();
        assert_eq!(qc.num_qubits(), 2);
        assert_eq!(qc.gate_count(), 2);
    }

    #[test]
    fn parses_parameter_expressions() {
        let qc = parse(
            "OPENQASM 2.0; qreg q[1]; p(pi/4) q[0]; rz(-pi/2 + pi/4) q[0]; rx(2*pi/8) q[0];",
        )
        .unwrap();
        let ops = qc.ops();
        match &ops[0] {
            Operation::Gate(g) => match g.gate {
                StandardGate::Phase(t) => {
                    assert!((t - std::f64::consts::FRAC_PI_4).abs() < 1e-12)
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &ops[1] {
            Operation::Gate(g) => match g.gate {
                StandardGate::Rz(t) => {
                    assert!((t + std::f64::consts::FRAC_PI_4).abs() < 1e-12)
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_over_register() {
        let qc = parse("OPENQASM 2.0; qreg q[3]; h q;").unwrap();
        assert_eq!(qc.gate_count(), 3);
    }

    #[test]
    fn broadcast_measure() {
        let qc = parse("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q -> c;").unwrap();
        let measures = qc
            .ops()
            .iter()
            .filter(|op| matches!(op, Operation::Measure { .. }))
            .count();
        assert_eq!(measures, 2);
    }

    #[test]
    fn user_gate_definition_expands() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            gate bell a, b { h a; cx a, b; }
            qreg q[2];
            bell q[1], q[0];
        "#;
        let qc = parse(src).unwrap();
        assert_eq!(qc.gate_count(), 2);
    }

    #[test]
    fn parameterized_user_gate() {
        let src = r#"
            OPENQASM 2.0;
            gate twist(theta) a { rz(theta/2) a; rz(theta/2) a; }
            qreg q[1];
            twist(pi) q[0];
        "#;
        let qc = parse(src).unwrap();
        assert_eq!(qc.gate_count(), 2);
        match &qc.ops()[0] {
            Operation::Gate(g) => match g.gate {
                StandardGate::Rz(t) => assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn classical_condition() {
        let src = "OPENQASM 2.0; qreg q[1]; creg c[1]; if (c == 1) x q[0];";
        let qc = parse(src).unwrap();
        match &qc.ops()[0] {
            Operation::Gate(g) => {
                let cond = g.condition.expect("condition");
                assert_eq!(cond.value, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "got: {msg}");
    }

    #[test]
    fn rejects_undeclared_register() {
        assert!(parse("OPENQASM 2.0; h q[0];").is_err());
    }

    #[test]
    fn rejects_out_of_range_index() {
        assert!(parse("OPENQASM 2.0; qreg q[2]; h q[2];").is_err());
    }

    #[test]
    fn recursive_gate_definition_errors_instead_of_overflowing() {
        let src = "OPENQASM 2.0; qreg q[1]; gate rec a { rec a; } rec q[0];";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("recursive"), "got: {err}");
    }

    #[test]
    fn mutually_recursive_gates_error() {
        let src = "OPENQASM 2.0; qreg q[1]; \
                   gate pong a { ping a; } gate ping a { pong a; } ping q[0];";
        assert!(parse(src).is_err());
    }

    #[test]
    fn deeply_nested_expression_errors_instead_of_overflowing() {
        let open = "(".repeat(20_000);
        let close = ")".repeat(20_000);
        let src = format!("OPENQASM 2.0; qreg q[1]; rz({open}pi{close}) q[0];");
        assert!(parse(&src).is_err());
        let minuses = "-".repeat(20_000);
        let src = format!("OPENQASM 2.0; qreg q[1]; rz({minuses}1) q[0];");
        assert!(parse(&src).is_err());
    }

    #[test]
    fn oversized_registers_are_rejected() {
        assert!(parse("OPENQASM 2.0; qreg q[1000000000];").is_err());
        // Two registers that only jointly exceed the cap.
        assert!(parse("OPENQASM 2.0; qreg a[40]; qreg b[40];").is_err());
        assert!(parse("OPENQASM 2.0; qreg q[1]; creg c[40]; creg d[25];").is_err());
        assert!(parse("OPENQASM 2.0; qreg q[1]; creg c[1000000000];").is_err());
        // At the cap is fine.
        assert!(parse("OPENQASM 2.0; qreg q[64]; creg c[64];").is_ok());
    }

    #[test]
    fn round_trip_through_to_qasm() {
        let mut qc = crate::QuantumCircuit::new(3);
        qc.add_creg("c", 3);
        qc.h(2)
            .cp(std::f64::consts::FRAC_PI_4, 0, 2)
            .ccx(2, 1, 0)
            .swap(0, 2)
            .barrier()
            .measure(1, 1);
        let qasm = qc.to_qasm();
        let back = parse(&qasm).unwrap();
        assert_eq!(back.num_qubits(), 3);
        assert_eq!(back.gate_count(), qc.gate_count());
    }
}

#[cfg(test)]
mod two_qubit_rotation_tests {
    use super::parse;
    use crate::Operation;

    #[test]
    fn rzz_rxx_ryy_expand() {
        let qc = parse(
            "OPENQASM 2.0; qreg q[2]; rzz(0.7) q[0],q[1]; rxx(0.4) q[0],q[1]; ryy(0.9) q[0],q[1];",
        )
        .unwrap();
        // 3 + 7 + 7 primitive gates.
        assert_eq!(qc.gate_count(), 17);
    }

    #[test]
    fn rzz_diagonal_action() {
        // RZZ(θ)|00⟩ = e^{-iθ/2}|00⟩; |01⟩ picks up e^{+iθ/2}.
        let qc = parse("OPENQASM 2.0; qreg q[2]; x q[0]; rzz(1.0) q[0],q[1];").unwrap();
        let mut dd = qdd_core::DdPackage::new();
        let mut s = dd.zero_state(2).unwrap();
        for op in qc.ops() {
            let Operation::Gate(g) = op else {
                panic!("rzz expands to gates");
            };
            s = dd.apply_gate(s, g.gate.matrix(), &g.controls, g.target).unwrap();
        }
        let amp = dd.amplitude(s, 0b01);
        let want = qdd_complex::Complex::cis(0.5);
        assert!(amp.approx_eq(want, 1e-12), "{amp} vs {want}");
    }
}
