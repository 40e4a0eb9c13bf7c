//! RevLib `.real` parsing — the second input format of the paper's tool.
//!
//! The `.real` format describes reversible circuits over Toffoli-family
//! gates. Supported elements:
//!
//! * header keys `.version`, `.numvars`, `.variables`, `.inputs`,
//!   `.outputs`, `.constants`, `.garbage` (the latter four are parsed and
//!   ignored — they don't affect the unitary);
//! * `.begin` … `.end` gate list with
//!   `t1` (NOT), `t2` (CNOT), `tN` (multi-controlled NOT),
//!   `fN` (multi-controlled SWAP / Fredkin),
//!   `v` / `v+` (controlled √X / its inverse);
//! * negative controls written with a `-` prefix (`t2 -a b`).
//!
//! The **first** declared variable is the most-significant qubit, matching
//! the big-endian convention of the paper.
//!
//! # Examples
//!
//! ```
//! let src = "\
//! .version 2.0
//! .numvars 3
//! .variables a b c
//! .begin
//! t1 a
//! t3 a b c
//! f2 b c
//! .end";
//! let qc = qdd_circuit::real::parse(src).unwrap();
//! assert_eq!(qc.num_qubits(), 3);
//! assert_eq!(qc.gate_count(), 3);
//! ```

use crate::circuit::QuantumCircuit;
use crate::error::CircuitError;
use crate::gate::StandardGate;
use crate::op::{GateApplication, Operation};
use qdd_core::Control;
use std::collections::HashMap;

/// Parses RevLib `.real` source into a [`QuantumCircuit`].
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] for malformed headers, unknown gates,
/// arity mismatches, and undeclared variables.
pub fn parse(src: &str) -> Result<QuantumCircuit, CircuitError> {
    let mut span = qdd_telemetry::span("circuit.parse_real");
    span.field("bytes", src.len());
    let mut numvars: Option<usize> = None;
    let mut var_index: HashMap<String, usize> = HashMap::new();
    let mut ops: Vec<Operation> = Vec::new();
    let mut in_body = false;
    let mut ended = false;

    for (lineno, raw) in src.lines().enumerate() {
        let line_number = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if ended {
            return Err(CircuitError::parse(line_number, "content after .end"));
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let key = parts.next().unwrap_or("");
            match key {
                "version" => {}
                "numvars" => {
                    let v: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| CircuitError::parse(line_number, "bad .numvars"))?;
                    if v == 0 {
                        return Err(CircuitError::parse(line_number, ".numvars must be positive"));
                    }
                    // Checked before `.begin` builds one name per variable.
                    if v > qdd_core::MAX_QUBITS {
                        return Err(CircuitError::parse(
                            line_number,
                            format!(
                                ".numvars {v} exceeds the supported maximum of {} qubits",
                                qdd_core::MAX_QUBITS
                            ),
                        ));
                    }
                    numvars = Some(v);
                }
                "variables" => {
                    let n = numvars.ok_or_else(|| {
                        CircuitError::parse(line_number, ".variables before .numvars")
                    })?;
                    let names: Vec<&str> = parts.collect();
                    if names.len() != n {
                        return Err(CircuitError::parse(
                            line_number,
                            format!(".variables lists {} names, .numvars is {n}", names.len()),
                        ));
                    }
                    for (i, name) in names.iter().enumerate() {
                        // First variable = most significant qubit.
                        if var_index.insert(name.to_string(), n - 1 - i).is_some() {
                            return Err(CircuitError::parse(
                                line_number,
                                format!("variable `{name}` declared twice"),
                            ));
                        }
                    }
                }
                "inputs" | "outputs" | "constants" | "garbage" | "inputbus" | "outputbus"
                | "state" | "module" => {}
                "begin" => {
                    if var_index.is_empty() {
                        // Permit .begin with implicit x1..xN naming.
                        let n = numvars.ok_or_else(|| {
                            CircuitError::parse(line_number, ".begin before .numvars")
                        })?;
                        for i in 0..n {
                            var_index.insert(format!("x{}", i + 1), n - 1 - i);
                        }
                    }
                    in_body = true;
                }
                "end" => {
                    if !in_body {
                        return Err(CircuitError::parse(line_number, ".end before .begin"));
                    }
                    ended = true;
                }
                other => {
                    return Err(CircuitError::parse(
                        line_number,
                        format!("unknown directive `.{other}`"),
                    ))
                }
            }
            continue;
        }
        if !in_body {
            return Err(CircuitError::parse(line_number, "gate before .begin"));
        }
        ops.push(parse_gate_line(line, line_number, &var_index)?);
    }

    let n = numvars.ok_or_else(|| CircuitError::parse(1, "missing .numvars"))?;
    if in_body && !ended {
        return Err(CircuitError::parse(src.lines().count(), "missing .end"));
    }
    let mut qc = QuantumCircuit::with_name(n, "real");
    for op in ops {
        qc.append(op);
    }
    Ok(qc)
}

/// Parses a variable operand, handling the `-` negative-control prefix.
fn operand(
    token: &str,
    line: usize,
    vars: &HashMap<String, usize>,
) -> Result<(usize, bool), CircuitError> {
    let (name, negative) = match token.strip_prefix('-') {
        Some(rest) => (rest, true),
        None => (token, false),
    };
    let q = vars
        .get(name)
        .copied()
        .ok_or_else(|| CircuitError::parse(line, format!("unknown variable `{name}`")))?;
    Ok((q, negative))
}

fn parse_gate_line(
    line: &str,
    lineno: usize,
    vars: &HashMap<String, usize>,
) -> Result<Operation, CircuitError> {
    let mut parts = line.split_whitespace();
    let mnemonic = parts.next().expect("non-empty line");
    let operands: Vec<&str> = parts.collect();
    let resolved: Vec<(usize, bool)> = operands
        .iter()
        .map(|t| operand(t, lineno, vars))
        .collect::<Result<_, _>>()?;

    let to_controls = |slice: &[(usize, bool)]| -> Vec<Control> {
        slice
            .iter()
            .map(|&(q, neg)| if neg { Control::neg(q) } else { Control::pos(q) })
            .collect()
    };

    match mnemonic.as_bytes() {
        [b't', digits @ ..] if !digits.is_empty() => {
            let k: usize = mnemonic[1..]
                .parse()
                .map_err(|_| CircuitError::parse(lineno, format!("bad gate `{mnemonic}`")))?;
            if resolved.len() != k || k == 0 {
                return Err(CircuitError::parse(
                    lineno,
                    format!("`{mnemonic}` expects {k} operands, got {}", resolved.len()),
                ));
            }
            let (target, controls) = resolved.split_last().expect("k >= 1");
            if target.1 {
                return Err(CircuitError::parse(lineno, "target cannot be negated"));
            }
            Ok(Operation::Gate(GateApplication::new(
                StandardGate::X,
                to_controls(controls),
                target.0,
            )))
        }
        [b'f', digits @ ..] if !digits.is_empty() => {
            let k: usize = mnemonic[1..]
                .parse()
                .map_err(|_| CircuitError::parse(lineno, format!("bad gate `{mnemonic}`")))?;
            if resolved.len() != k || k < 2 {
                return Err(CircuitError::parse(
                    lineno,
                    format!("`{mnemonic}` expects {k} operands, got {}", resolved.len()),
                ));
            }
            // The first k-2 operands are controls; the last two are swapped.
            let ctrl_slice = &resolved[..k - 2];
            let a = resolved[k - 2];
            let b = resolved[k - 1];
            if a.1 || b.1 {
                return Err(CircuitError::parse(lineno, "swapped lines cannot be negated"));
            }
            Ok(Operation::Swap {
                a: a.0,
                b: b.0,
                controls: to_controls(ctrl_slice),
            })
        }
        _ if mnemonic == "v" || mnemonic == "v+" => {
            if resolved.is_empty() {
                return Err(CircuitError::parse(lineno, format!("`{mnemonic}` needs operands")));
            }
            let (target, controls) = resolved.split_last().expect("non-empty");
            if target.1 {
                return Err(CircuitError::parse(lineno, "target cannot be negated"));
            }
            let gate = if mnemonic == "v" {
                StandardGate::Sx
            } else {
                StandardGate::Sxdg
            };
            Ok(Operation::Gate(GateApplication::new(
                gate,
                to_controls(controls),
                target.0,
            )))
        }
        _ => Err(CircuitError::parse(
            lineno,
            format!("unknown gate `{mnemonic}`"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polarity;

    const HEADER: &str = ".version 2.0\n.numvars 3\n.variables a b c\n.begin\n";

    fn with_body(body: &str) -> String {
        format!("{HEADER}{body}\n.end\n")
    }

    #[test]
    fn variables_map_msb_first() {
        let qc = parse(&with_body("t1 a")).unwrap();
        match &qc.ops()[0] {
            Operation::Gate(g) => assert_eq!(g.target, 2, "first variable is MSB"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn toffoli_family() {
        let qc = parse(&with_body("t1 c\nt2 a c\nt3 a b c")).unwrap();
        assert_eq!(qc.gate_count(), 3);
        match &qc.ops()[2] {
            Operation::Gate(g) => {
                assert_eq!(g.controls.len(), 2);
                assert_eq!(g.target, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_controls() {
        let qc = parse(&with_body("t2 -a c")).unwrap();
        match &qc.ops()[0] {
            Operation::Gate(g) => {
                assert_eq!(g.controls[0].polarity, Polarity::Negative);
                assert_eq!(g.controls[0].qubit, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fredkin_and_swap() {
        let qc = parse(&with_body("f2 a b\nf3 a b c")).unwrap();
        match &qc.ops()[0] {
            Operation::Swap { a, b, controls } => {
                assert_eq!((*a, *b), (2, 1));
                assert!(controls.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &qc.ops()[1] {
            Operation::Swap { a, b, controls } => {
                assert_eq!((*a, *b), (1, 0));
                assert_eq!(controls.len(), 1);
                assert_eq!(controls[0].qubit, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn controlled_v_gates() {
        let qc = parse(&with_body("v a c\nv+ a c")).unwrap();
        match (&qc.ops()[0], &qc.ops()[1]) {
            (Operation::Gate(v), Operation::Gate(vdg)) => {
                assert_eq!(v.gate, StandardGate::Sx);
                assert_eq!(vdg.gate, StandardGate::Sxdg);
                assert_eq!(v.controls.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# a NOT gate\n.version 2.0\n.numvars 1\n.variables a\n\n.begin\nt1 a # inline\n.end\n";
        let qc = parse(src).unwrap();
        assert_eq!(qc.gate_count(), 1);
    }

    #[test]
    fn implicit_variable_names() {
        let src = ".numvars 2\n.begin\nt2 x1 x2\n.end\n";
        let qc = parse(src).unwrap();
        assert_eq!(qc.num_qubits(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(parse(".numvars 2\n.variables a\n.begin\n.end").is_err());
        assert!(parse(&with_body("t2 a")).is_err(), "arity mismatch");
        assert!(parse(&with_body("q1 a")).is_err(), "unknown gate");
        assert!(parse(&with_body("t1 z")).is_err(), "unknown variable");
        assert!(parse(&with_body("t1 -a")).is_err(), "negated target");
        assert!(parse(".numvars 1\n.variables a\nt1 a\n.begin\n.end").is_err());
        assert!(parse(HEADER).is_err(), "missing .end");
    }

    #[test]
    fn v_squared_equals_not() {
        // v·v on the same target equals X — checked through the gate
        // matrices to guard the Sx mapping.
        use qdd_core::gates::{approx_eq, matmul};
        let sx = StandardGate::Sx.matrix();
        let xx = matmul(&sx, &sx);
        assert!(approx_eq(&xx, &StandardGate::X.matrix(), 1e-12));
    }
}
