//! The in-memory quantum circuit.

use crate::error::CircuitError;
use crate::gate::{format_angle, StandardGate};
use crate::op::{swap_gates, Condition, GateApplication, Operation};
use qdd_core::{Control, Polarity};
use std::fmt;

/// A named contiguous range of qubits (for format round-trips).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantumRegister {
    /// Register name (e.g. `q`).
    pub name: String,
    /// First global qubit index.
    pub offset: usize,
    /// Number of qubits.
    pub size: usize,
}

/// A named contiguous range of classical bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassicalRegister {
    /// Register name (e.g. `c`).
    pub name: String,
    /// First global bit index.
    pub offset: usize,
    /// Number of bits.
    pub size: usize,
}

/// A quantum circuit: a register of qubits, classical bits, and a sequence
/// of [`Operation`]s (paper §II, Fig. 1(c)).
///
/// Builder methods use the global qubit indexing of the paper: qubit `n-1`
/// is the most significant. All builders panic on out-of-range indices —
/// the circuit is a programmatic construction, not untrusted input (parsers
/// validate and return [`CircuitError`] instead).
///
/// # Examples
///
/// ```
/// use qdd_circuit::QuantumCircuit;
///
/// let mut qc = QuantumCircuit::new(3);
/// qc.h(2).cp(std::f64::consts::FRAC_PI_2, 1, 2).barrier();
/// assert_eq!(qc.len(), 3);
/// assert_eq!(qc.gate_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QuantumCircuit {
    name: String,
    num_qubits: usize,
    qregs: Vec<QuantumRegister>,
    cregs: Vec<ClassicalRegister>,
    ops: Vec<Operation>,
    global_phase: f64,
}

impl QuantumCircuit {
    /// Creates an empty circuit over `n` qubits with a single register `q`
    /// and no classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "circuit needs at least one qubit");
        QuantumCircuit {
            name: String::from("circuit"),
            num_qubits: n,
            qregs: vec![QuantumRegister {
                name: "q".to_string(),
                offset: 0,
                size: n,
            }],
            cregs: Vec::new(),
            ops: Vec::new(),
            global_phase: 0.0,
        }
    }

    /// Creates an empty named circuit.
    pub fn with_name(n: usize, name: impl Into<String>) -> Self {
        let mut qc = Self::new(n);
        qc.name = name.into();
        qc
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of classical bits across all registers.
    pub fn num_clbits(&self) -> usize {
        self.cregs.iter().map(|r| r.size).sum()
    }

    /// The quantum registers.
    pub fn qregs(&self) -> &[QuantumRegister] {
        &self.qregs
    }

    /// The classical registers.
    pub fn cregs(&self) -> &[ClassicalRegister] {
        &self.cregs
    }

    /// Replaces the default register structure (used by parsers).
    pub(crate) fn set_qregs(&mut self, regs: Vec<QuantumRegister>) {
        debug_assert_eq!(regs.iter().map(|r| r.size).sum::<usize>(), self.num_qubits);
        self.qregs = regs;
    }

    /// Declares an additional classical register, returning its index.
    pub fn add_creg(&mut self, name: impl Into<String>, size: usize) -> usize {
        let offset = self.num_clbits();
        self.cregs.push(ClassicalRegister {
            name: name.into(),
            offset,
            size,
        });
        self.cregs.len() - 1
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// The number of operations (including barriers and measurements).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The number of *gate* operations (excluding barriers, measurements,
    /// resets).
    pub fn gate_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Operation::Gate(_) | Operation::Swap { .. }))
            .count()
    }

    /// A global phase `e^{iθ}` accumulated by transformations.
    pub fn global_phase(&self) -> f64 {
        self.global_phase
    }

    /// Adds to the circuit's global phase.
    pub fn add_global_phase(&mut self, theta: f64) {
        self.global_phase += theta;
    }

    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.num_qubits,
            "qubit {q} out of range for {}-qubit circuit",
            self.num_qubits
        );
    }

    /// Appends a raw operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation references qubits outside the register.
    pub fn append(&mut self, op: Operation) -> &mut Self {
        for q in op.qubits() {
            self.check_qubit(q);
        }
        self.ops.push(op);
        self
    }

    /// Appends a gate with explicit controls.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits or a control equal to the target.
    pub fn gate(&mut self, gate: StandardGate, controls: Vec<Control>, target: usize) -> &mut Self {
        assert!(
            controls.iter().all(|c| c.qubit != target),
            "control on target qubit {target}"
        );
        self.append(Operation::Gate(GateApplication::new(gate, controls, target)))
    }

    /// Appends a classically conditioned gate.
    pub fn gate_if(
        &mut self,
        gate: StandardGate,
        controls: Vec<Control>,
        target: usize,
        condition: Condition,
    ) -> &mut Self {
        let mut app = GateApplication::new(gate, controls, target);
        app.condition = Some(condition);
        self.append(Operation::Gate(app))
    }

    // --- ungated single-qubit conveniences ------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::H, vec![], q)
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::X, vec![], q)
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::Y, vec![], q)
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::Z, vec![], q)
    }

    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::S, vec![], q)
    }

    /// S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::Sdg, vec![], q)
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::T, vec![], q)
    }

    /// T† gate on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::Tdg, vec![], q)
    }

    /// √X gate on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.gate(StandardGate::Sx, vec![], q)
    }

    /// Phase gate `P(θ)` on `q`.
    pub fn p(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(StandardGate::Phase(theta), vec![], q)
    }

    /// `RX(θ)` on `q`.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(StandardGate::Rx(theta), vec![], q)
    }

    /// `RY(θ)` on `q`.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(StandardGate::Ry(theta), vec![], q)
    }

    /// `RZ(θ)` on `q`.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(StandardGate::Rz(theta), vec![], q)
    }

    /// `U(θ, φ, λ)` on `q`.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.gate(StandardGate::U(theta, phi, lambda), vec![], q)
    }

    // --- controlled conveniences ----------------------------------------

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::X, vec![Control::pos(c)], t)
    }

    /// Controlled-Y.
    pub fn cy(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::Y, vec![Control::pos(c)], t)
    }

    /// Controlled-Z.
    pub fn cz(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::Z, vec![Control::pos(c)], t)
    }

    /// Controlled-Hadamard.
    pub fn ch(&mut self, c: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::H, vec![Control::pos(c)], t)
    }

    /// Controlled phase `CP(θ)` — the paper's controlled `p(θ)` family.
    pub fn cp(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::Phase(theta), vec![Control::pos(c)], t)
    }

    /// Controlled `RY(θ)`.
    pub fn cry(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::Ry(theta), vec![Control::pos(c)], t)
    }

    /// Toffoli (CCX).
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.gate(StandardGate::X, vec![Control::pos(c1), Control::pos(c2)], t)
    }

    /// Multi-controlled X.
    pub fn mcx(&mut self, controls: &[usize], t: usize) -> &mut Self {
        let ctrls = controls.iter().map(|&q| Control::pos(q)).collect();
        self.gate(StandardGate::X, ctrls, t)
    }

    /// Multi-controlled Z.
    pub fn mcz(&mut self, controls: &[usize], t: usize) -> &mut Self {
        let ctrls = controls.iter().map(|&q| Control::pos(q)).collect();
        self.gate(StandardGate::Z, ctrls, t)
    }

    /// SWAP of `a` and `b` (the paper's `×—×`).
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        assert_ne!(a, b, "swap of a qubit with itself");
        self.append(Operation::Swap {
            a,
            b,
            controls: vec![],
        })
    }

    /// Controlled SWAP (Fredkin).
    pub fn cswap(&mut self, c: usize, a: usize, b: usize) -> &mut Self {
        assert_ne!(a, b, "swap of a qubit with itself");
        assert!(c != a && c != b, "control on swapped qubit");
        self.append(Operation::Swap {
            a,
            b,
            controls: vec![Control::pos(c)],
        })
    }

    // --- special operations ----------------------------------------------

    /// A barrier (breakpoint for the paper's stepping controls).
    pub fn barrier(&mut self) -> &mut Self {
        self.append(Operation::Barrier)
    }

    /// Measures `qubit` into classical `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not covered by a declared classical register.
    pub fn measure(&mut self, qubit: usize, bit: usize) -> &mut Self {
        assert!(
            bit < self.num_clbits(),
            "classical bit {bit} out of range ({} bits declared)",
            self.num_clbits()
        );
        self.append(Operation::Measure { qubit, bit })
    }

    /// Declares (if needed) a `meas` register and measures every qubit into
    /// its corresponding bit.
    pub fn measure_all(&mut self) -> &mut Self {
        if self.num_clbits() < self.num_qubits {
            let missing = self.num_qubits - self.num_clbits();
            self.add_creg("meas", missing);
        }
        for q in 0..self.num_qubits {
            self.append(Operation::Measure { qubit: q, bit: q });
        }
        self
    }

    /// Resets `qubit` to `|0⟩`.
    pub fn reset(&mut self, qubit: usize) -> &mut Self {
        self.append(Operation::Reset { qubit })
    }

    // --- whole-circuit transformations ------------------------------------

    /// Appends all operations of `other` (registers are not merged; `other`
    /// must not be wider).
    ///
    /// # Panics
    ///
    /// Panics if `other` has more qubits than `self`.
    pub fn extend(&mut self, other: &QuantumCircuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit one",
            self.num_qubits,
            other.num_qubits
        );
        for op in &other.ops {
            self.append(op.clone());
        }
        self.global_phase += other.global_phase;
        self
    }

    /// Relabels every qubit through `perm` (`perm[old] = new`) — the
    /// adjustment needed to verify circuits written with different qubit
    /// orderings (the paper's tool requires "the same variable order";
    /// this produces it).
    ///
    /// # Errors
    ///
    /// [`CircuitError::QubitOutOfRange`] if `perm` is not a permutation of
    /// `0..num_qubits`.
    pub fn map_qubits(&self, perm: &[usize]) -> Result<QuantumCircuit, CircuitError> {
        let n = self.num_qubits;
        let mut seen = vec![false; n];
        if perm.len() != n {
            return Err(CircuitError::QubitOutOfRange {
                qubit: perm.len(),
                num_qubits: n,
            });
        }
        for &p in perm {
            if p >= n || seen[p] {
                return Err(CircuitError::QubitOutOfRange { qubit: p, num_qubits: n });
            }
            seen[p] = true;
        }
        let mut out = QuantumCircuit::with_name(n, format!("{}_mapped", self.name));
        out.cregs = self.cregs.clone();
        for op in &self.ops {
            let mapped = match op {
                Operation::Barrier => Operation::Barrier,
                Operation::Measure { qubit, bit } => Operation::Measure {
                    qubit: perm[*qubit],
                    bit: *bit,
                },
                Operation::Reset { qubit } => Operation::Reset { qubit: perm[*qubit] },
                Operation::Swap { a, b, controls } => Operation::Swap {
                    a: perm[*a],
                    b: perm[*b],
                    controls: controls
                        .iter()
                        .map(|c| Control { qubit: perm[c.qubit], polarity: c.polarity })
                        .collect(),
                },
                Operation::Gate(g) => {
                    let mut mapped = g.clone();
                    mapped.target = perm[g.target];
                    mapped.controls = g
                        .controls
                        .iter()
                        .map(|c| Control { qubit: perm[c.qubit], polarity: c.polarity })
                        .collect();
                    Operation::Gate(mapped)
                }
            };
            out.ops.push(mapped);
        }
        out.global_phase = self.global_phase;
        Ok(out)
    }

    /// The inverse circuit: operations reversed and individually inverted.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NotInvertible`] if the circuit contains measurements,
    /// resets, or classically-conditioned gates.
    pub fn inverse(&self) -> Result<QuantumCircuit, CircuitError> {
        let mut inv = QuantumCircuit::with_name(self.num_qubits, format!("{}_dg", self.name));
        inv.qregs = self.qregs.clone();
        inv.cregs = self.cregs.clone();
        inv.global_phase = -self.global_phase;
        for (i, op) in self.ops.iter().enumerate().rev() {
            match op.inverse() {
                Some(op) => {
                    inv.ops.push(op);
                }
                None => return Err(CircuitError::NotInvertible { op_index: i }),
            }
        }
        Ok(inv)
    }

    /// The circuit depth: the longest chain of operations sharing qubits
    /// (barriers excluded).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        for op in &self.ops {
            let qs = op.qubits();
            if qs.is_empty() {
                continue;
            }
            let next = qs.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for q in qs {
                level[q] = next;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// Serializes to OpenQASM 2.0 source.
    ///
    /// Controlled gates beyond the `qelib1` vocabulary (negative or ≥3
    /// controls) are not representable in plain QASM 2 and are emitted as
    /// decomposed positive-control forms where possible; negative controls
    /// are wrapped in `x` conjugations.
    pub fn to_qasm(&self) -> String {
        let mut out = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        for r in &self.qregs {
            out.push_str(&format!("qreg {}[{}];\n", r.name, r.size));
        }
        for r in &self.cregs {
            out.push_str(&format!("creg {}[{}];\n", r.name, r.size));
        }
        for op in &self.ops {
            self.emit_qasm_op(op, &mut out);
        }
        out
    }

    fn qubit_name(&self, q: usize) -> String {
        for r in &self.qregs {
            if q >= r.offset && q < r.offset + r.size {
                return format!("{}[{}]", r.name, q - r.offset);
            }
        }
        unreachable!("qubit {q} not covered by any register")
    }

    fn bit_name(&self, b: usize) -> String {
        for r in &self.cregs {
            if b >= r.offset && b < r.offset + r.size {
                return format!("{}[{}]", r.name, b - r.offset);
            }
        }
        unreachable!("bit {b} not covered by any register")
    }

    fn emit_qasm_op(&self, op: &Operation, out: &mut String) {
        match op {
            Operation::Barrier => {
                let all: Vec<String> = self.qregs.iter().map(|r| r.name.clone()).collect();
                out.push_str(&format!("barrier {};\n", all.join(",")));
            }
            Operation::Measure { qubit, bit } => {
                out.push_str(&format!(
                    "measure {} -> {};\n",
                    self.qubit_name(*qubit),
                    self.bit_name(*bit)
                ));
            }
            Operation::Reset { qubit } => {
                out.push_str(&format!("reset {};\n", self.qubit_name(*qubit)));
            }
            Operation::Swap { a, b, controls } if controls.is_empty() => {
                out.push_str(&format!(
                    "swap {},{};\n",
                    self.qubit_name(*a),
                    self.qubit_name(*b)
                ));
            }
            Operation::Swap { a, b, controls }
                if controls.len() == 1 && controls[0].polarity == Polarity::Positive =>
            {
                out.push_str(&format!(
                    "cswap {},{},{};\n",
                    self.qubit_name(controls[0].qubit),
                    self.qubit_name(*a),
                    self.qubit_name(*b)
                ));
            }
            Operation::Swap { a, b, controls } => {
                for g in swap_gates(*a, *b, controls) {
                    self.emit_qasm_op(&Operation::Gate(g), out);
                }
            }
            Operation::Gate(g) => {
                let mut line = String::new();
                if let Some(c) = g.condition {
                    line.push_str(&format!(
                        "if({}=={}) ",
                        self.cregs[c.creg].name, c.value
                    ));
                }
                // Negative controls: conjugate with X.
                let neg: Vec<usize> = g
                    .controls
                    .iter()
                    .filter(|c| c.polarity == Polarity::Negative)
                    .map(|c| c.qubit)
                    .collect();
                for &q in &neg {
                    out.push_str(&format!("x {};\n", self.qubit_name(q)));
                }
                line.push_str(&self.qasm_gate_call(g));
                out.push_str(&line);
                for &q in &neg {
                    out.push_str(&format!("x {};\n", self.qubit_name(q)));
                }
            }
        }
    }

    fn qasm_gate_call(&self, g: &GateApplication) -> String {
        let gate = g.gate.simplified();
        let params = gate.params();
        let param_str = if params.is_empty() {
            String::new()
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format_angle(*p)).collect();
            format!("({})", rendered.join(","))
        };
        let ctrl_names: Vec<String> = g
            .controls
            .iter()
            .map(|c| self.qubit_name(c.qubit))
            .collect();
        let tgt = self.qubit_name(g.target);
        match (g.controls.len(), gate) {
            (0, _) => format!("{}{} {};\n", gate.name(), param_str, tgt),
            (1, StandardGate::X) => format!("cx {},{};\n", ctrl_names[0], tgt),
            (1, StandardGate::Y) => format!("cy {},{};\n", ctrl_names[0], tgt),
            (1, StandardGate::Z) => format!("cz {},{};\n", ctrl_names[0], tgt),
            (1, StandardGate::H) => format!("ch {},{};\n", ctrl_names[0], tgt),
            (1, StandardGate::Phase(_)) => {
                format!("cp{} {},{};\n", param_str, ctrl_names[0], tgt)
            }
            (1, StandardGate::Rx(_)) => format!("crx{} {},{};\n", param_str, ctrl_names[0], tgt),
            (1, StandardGate::Ry(_)) => format!("cry{} {},{};\n", param_str, ctrl_names[0], tgt),
            (1, StandardGate::Rz(_)) => format!("crz{} {},{};\n", param_str, ctrl_names[0], tgt),
            (1, StandardGate::S) => {
                format!("cp(pi/2) {},{};\n", ctrl_names[0], tgt)
            }
            (1, StandardGate::Sdg) => {
                format!("cp(-pi/2) {},{};\n", ctrl_names[0], tgt)
            }
            (1, StandardGate::T) => {
                format!("cp(pi/4) {},{};\n", ctrl_names[0], tgt)
            }
            (1, StandardGate::Tdg) => {
                format!("cp(-pi/4) {},{};\n", ctrl_names[0], tgt)
            }
            (2, StandardGate::X) => {
                format!("ccx {},{},{};\n", ctrl_names[0], ctrl_names[1], tgt)
            }
            _ => {
                // Fall back to the generic multi-control form understood by
                // our own parser (an extension): mcx c0,...,ck,t;
                let mut args = ctrl_names;
                args.push(tgt);
                format!("mc{}{} {};\n", gate.name(), param_str, args.join(","))
            }
        }
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{} qubits, {} ops, depth {}]",
            self.name,
            self.num_qubits,
            self.ops.len(),
            self.depth()
        )?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  {i:3}: {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(2).cx(2, 1).ccx(2, 1, 0).barrier().swap(0, 2);
        assert_eq!(qc.len(), 5);
        assert_eq!(qc.gate_count(), 4);
        assert_eq!(qc.num_qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(2);
    }

    #[test]
    #[should_panic(expected = "control on target")]
    fn control_on_target_panics() {
        let mut qc = QuantumCircuit::new(2);
        qc.gate(StandardGate::X, vec![Control::pos(1)], 1);
    }

    #[test]
    fn measure_requires_declared_bits() {
        let mut qc = QuantumCircuit::new(2);
        qc.add_creg("c", 2);
        qc.measure(0, 1);
        assert_eq!(qc.num_clbits(), 2);
    }

    #[test]
    #[should_panic(expected = "classical bit")]
    fn measure_without_creg_panics() {
        let mut qc = QuantumCircuit::new(2);
        qc.measure(0, 0);
    }

    #[test]
    fn measure_all_declares_register() {
        let mut qc = QuantumCircuit::new(3);
        qc.measure_all();
        assert_eq!(qc.num_clbits(), 3);
        assert_eq!(qc.len(), 3);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(1).s(0).cx(1, 0);
        let inv = qc.inverse().unwrap();
        assert_eq!(inv.len(), 3);
        match &inv.ops()[0] {
            Operation::Gate(g) => assert_eq!(g.gate, StandardGate::X),
            other => panic!("unexpected {other:?}"),
        }
        match &inv.ops()[1] {
            Operation::Gate(g) => assert_eq!(g.gate, StandardGate::Sdg),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inverse_fails_on_measurement() {
        let mut qc = QuantumCircuit::new(1);
        qc.add_creg("c", 1);
        qc.h(0).measure(0, 0);
        assert!(matches!(
            qc.inverse(),
            Err(CircuitError::NotInvertible { op_index: 1 })
        ));
    }

    #[test]
    fn depth_ignores_barriers_and_tracks_parallelism() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).h(1).h(2); // depth 1
        assert_eq!(qc.depth(), 1);
        qc.cx(0, 1); // depth 2
        qc.barrier();
        qc.h(2); // still depth 2 on q2
        assert_eq!(qc.depth(), 2);
        qc.ccx(0, 1, 2); // depth 3
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn to_qasm_emits_expected_vocabulary() {
        let mut qc = QuantumCircuit::new(3);
        qc.add_creg("c", 1);
        qc.h(2)
            .cp(std::f64::consts::FRAC_PI_2, 1, 2)
            .ccx(2, 1, 0)
            .swap(0, 2)
            .measure(0, 0)
            .reset(1);
        let qasm = qc.to_qasm();
        assert!(qasm.contains("OPENQASM 2.0;"));
        assert!(qasm.contains("h q[2];"));
        assert!(qasm.contains("cp(pi/2) q[1],q[2];"));
        assert!(qasm.contains("ccx q[2],q[1],q[0];"));
        assert!(qasm.contains("swap q[0],q[2];"));
        assert!(qasm.contains("measure q[0] -> c[0];"));
        assert!(qasm.contains("reset q[1];"));
    }

    #[test]
    fn extend_appends_operations() {
        let mut a = QuantumCircuit::new(2);
        a.h(0);
        let mut b = QuantumCircuit::new(2);
        b.cx(0, 1);
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn display_lists_operations() {
        let mut qc = QuantumCircuit::with_name(2, "bell");
        qc.h(1).cx(1, 0);
        let s = qc.to_string();
        assert!(s.contains("bell [2 qubits, 2 ops"));
        assert!(s.contains("x c:q1 q0"));
    }
}
