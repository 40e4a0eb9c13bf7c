//! Recursive-descent parser for the supported OpenQASM 2.0 subset.
//!
//! The parser is an untrusted-input boundary: malformed files must produce
//! [`CircuitError::Parse`], never a panic, stack overflow, or unbounded
//! allocation. Recursion (gate expansion, parameter expressions) and
//! register sizes are therefore explicitly bounded.
#![warn(clippy::unwrap_used)]

use super::expr::Expr;
use super::lexer::{tokenize, Token, TokenKind};
use crate::circuit::{QuantumCircuit, QuantumRegister};
use crate::error::CircuitError;
use crate::gate::StandardGate;
use crate::op::{Condition, GateApplication, Operation};
use qdd_core::Control;
use std::collections::HashMap;
use std::f64::consts::FRAC_PI_2;

/// Parses OpenQASM 2.0 source into a [`QuantumCircuit`].
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with the offending line for syntax
/// errors, undeclared registers, arity mismatches, and out-of-range indices.
pub fn parse(src: &str) -> Result<QuantumCircuit, CircuitError> {
    let mut span = qdd_telemetry::span("circuit.parse_qasm");
    span.field("bytes", src.len());
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        qregs: Vec::new(),
        cregs: Vec::new(),
        gate_defs: HashMap::new(),
        ops: Vec::new(),
        expr_depth: 0,
    };
    parser.program()?;
    parser.into_circuit()
}

#[derive(Clone, Debug)]
struct Reg {
    name: String,
    offset: usize,
    size: usize,
}

#[derive(Clone, Debug)]
struct GateDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<BodyStmt>,
}

#[derive(Clone, Debug)]
enum BodyStmt {
    Apply {
        name: String,
        line: usize,
        params: Vec<Expr>,
        qargs: Vec<String>,
    },
    Barrier,
}

/// A (possibly register-broadcast) quantum argument.
#[derive(Clone, Copy, Debug)]
enum Arg {
    Single(usize),
    Reg(usize),
}

/// Deepest allowed nesting of user gate definitions during expansion. The
/// qelib hierarchy is a handful of levels; anything deeper is almost
/// certainly a (mutually) recursive definition, which would otherwise
/// overflow the stack.
const MAX_GATE_EXPANSION_DEPTH: usize = 64;

/// Deepest allowed parameter-expression nesting (parentheses, unary signs,
/// powers) — bounds the recursive-descent stack on adversarial input.
const MAX_EXPR_DEPTH: usize = 256;

/// Ceiling on declared classical bits: a register's value, and a shot's
/// outcome over all bits, is a `u64`. Quantum registers are capped by
/// [`qdd_core::MAX_QUBITS`].
const MAX_CLASSICAL_BITS: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    qregs: Vec<Reg>,
    cregs: Vec<Reg>,
    gate_defs: HashMap<String, GateDef>,
    ops: Vec<Operation>,
    expr_depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn line(&self) -> usize {
        self.peek().line
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, CircuitError> {
        let t = self.advance();
        if std::mem::discriminant(&t.kind) == std::mem::discriminant(kind)
            && (!matches!(kind, TokenKind::Ident(_)) || t.kind == *kind)
        {
            Ok(t)
        } else {
            Err(CircuitError::parse(
                t.line,
                format!("expected {}, found {}", kind.describe(), t.kind.describe()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, usize), CircuitError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Ident(s) => Ok((s, t.line)),
            other => Err(CircuitError::parse(
                t.line,
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    fn expect_uint(&mut self) -> Result<u64, CircuitError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Int(v) => Ok(v),
            other => Err(CircuitError::parse(
                t.line,
                format!("expected non-negative integer, found {}", other.describe()),
            )),
        }
    }

    fn program(&mut self) -> Result<(), CircuitError> {
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return Ok(()),
                TokenKind::Ident(word) => match word.as_str() {
                    "OPENQASM" => self.version()?,
                    "include" => self.include()?,
                    "qreg" => self.reg_decl(true)?,
                    "creg" => self.reg_decl(false)?,
                    "gate" => self.gate_def()?,
                    "opaque" => self.skip_to_semicolon()?,
                    "barrier" => self.barrier_stmt()?,
                    "measure" => self.measure_stmt()?,
                    "reset" => self.reset_stmt()?,
                    "if" => self.if_stmt()?,
                    _ => self.gate_stmt(None)?,
                },
                other => {
                    return Err(CircuitError::parse(
                        self.line(),
                        format!("unexpected {}", other.describe()),
                    ))
                }
            }
        }
    }

    fn version(&mut self) -> Result<(), CircuitError> {
        let line = self.line();
        self.advance(); // OPENQASM
        let t = self.advance();
        match t.kind {
            TokenKind::Int(2) => {}
            TokenKind::Number(v) if (2.0..3.0).contains(&v) => {}
            _ => return Err(CircuitError::parse(line, "only OpenQASM 2.x is supported")),
        }
        self.expect(&TokenKind::Semicolon)?;
        Ok(())
    }

    fn include(&mut self) -> Result<(), CircuitError> {
        self.advance(); // include
        let t = self.advance();
        if !matches!(t.kind, TokenKind::Str(_)) {
            return Err(CircuitError::parse(t.line, "expected include file name"));
        }
        // qelib1 is built in; any other include is accepted and ignored.
        self.expect(&TokenKind::Semicolon)?;
        Ok(())
    }

    fn reg_decl(&mut self, quantum: bool) -> Result<(), CircuitError> {
        let line = self.line();
        self.advance(); // qreg | creg
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBracket)?;
        let size = self.expect_uint()? as usize;
        self.expect(&TokenKind::RBracket)?;
        self.expect(&TokenKind::Semicolon)?;
        if size == 0 {
            return Err(CircuitError::parse(line, format!("register `{name}` has size 0")));
        }
        let regs = if quantum { &mut self.qregs } else { &mut self.cregs };
        if regs.iter().any(|r| r.name == name) {
            return Err(CircuitError::parse(line, format!("register `{name}` redeclared")));
        }
        let offset: usize = regs.iter().map(|r| r.size).sum();
        let cap = if quantum { qdd_core::MAX_QUBITS } else { MAX_CLASSICAL_BITS };
        if size > cap || offset + size > cap {
            return Err(CircuitError::parse(
                line,
                format!(
                    "register `{name}` pushes the total {} count past the supported \
                     maximum of {cap}",
                    if quantum { "qubit" } else { "classical bit" },
                ),
            ));
        }
        regs.push(Reg { name, offset, size });
        Ok(())
    }

    fn skip_to_semicolon(&mut self) -> Result<(), CircuitError> {
        loop {
            match self.advance().kind {
                TokenKind::Semicolon => return Ok(()),
                TokenKind::Eof => {
                    return Err(CircuitError::parse(self.line(), "unexpected end of input"))
                }
                _ => {}
            }
        }
    }

    fn gate_def(&mut self) -> Result<(), CircuitError> {
        self.advance(); // gate
        let (name, line) = self.expect_ident()?;
        let mut params = Vec::new();
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            if self.peek().kind != TokenKind::RParen {
                loop {
                    params.push(self.expect_ident()?.0);
                    if self.peek().kind == TokenKind::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let mut qargs = Vec::new();
        loop {
            qargs.push(self.expect_ident()?.0);
            if self.peek().kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::LBrace)?;
        let mut body = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            if self.peek().kind == TokenKind::Eof {
                return Err(CircuitError::parse(line, format!("unterminated gate `{name}`")));
            }
            let (stmt_name, stmt_line) = self.expect_ident()?;
            if stmt_name == "barrier" {
                self.skip_to_semicolon()?;
                body.push(BodyStmt::Barrier);
                continue;
            }
            let mut stmt_params = Vec::new();
            if self.peek().kind == TokenKind::LParen {
                self.advance();
                if self.peek().kind != TokenKind::RParen {
                    loop {
                        stmt_params.push(self.parse_expr()?);
                        if self.peek().kind == TokenKind::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
            }
            let mut stmt_qargs = Vec::new();
            loop {
                stmt_qargs.push(self.expect_ident()?.0);
                if self.peek().kind == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::Semicolon)?;
            body.push(BodyStmt::Apply {
                name: stmt_name,
                line: stmt_line,
                params: stmt_params,
                qargs: stmt_qargs,
            });
        }
        self.expect(&TokenKind::RBrace)?;
        self.gate_defs.insert(name, GateDef { params, qargs, body });
        Ok(())
    }

    fn barrier_stmt(&mut self) -> Result<(), CircuitError> {
        self.advance(); // barrier
        // Arguments are parsed but the barrier applies as a global
        // breakpoint, matching the tool's stepping semantics.
        while self.peek().kind != TokenKind::Semicolon {
            if self.peek().kind == TokenKind::Eof {
                return Err(CircuitError::parse(self.line(), "unexpected end of input"));
            }
            self.advance();
        }
        self.expect(&TokenKind::Semicolon)?;
        self.ops.push(Operation::Barrier);
        Ok(())
    }

    fn measure_stmt(&mut self) -> Result<(), CircuitError> {
        let line = self.line();
        self.advance(); // measure
        let qarg = self.parse_arg(true)?;
        self.expect(&TokenKind::Arrow)?;
        let carg = self.parse_arg(false)?;
        self.expect(&TokenKind::Semicolon)?;
        let qubits = self.expand_arg(qarg, true);
        let bits = self.expand_arg(carg, false);
        if qubits.len() != bits.len() {
            return Err(CircuitError::parse(
                line,
                format!(
                    "measure arity mismatch: {} qubits vs {} bits",
                    qubits.len(),
                    bits.len()
                ),
            ));
        }
        for (q, b) in qubits.into_iter().zip(bits) {
            self.ops.push(Operation::Measure { qubit: q, bit: b });
        }
        Ok(())
    }

    fn reset_stmt(&mut self) -> Result<(), CircuitError> {
        self.advance(); // reset
        let arg = self.parse_arg(true)?;
        self.expect(&TokenKind::Semicolon)?;
        for q in self.expand_arg(arg, true) {
            self.ops.push(Operation::Reset { qubit: q });
        }
        Ok(())
    }

    fn if_stmt(&mut self) -> Result<(), CircuitError> {
        let line = self.line();
        self.advance(); // if
        self.expect(&TokenKind::LParen)?;
        let (creg_name, _) = self.expect_ident()?;
        self.expect(&TokenKind::EqEq)?;
        let value = self.expect_uint()?;
        self.expect(&TokenKind::RParen)?;
        let creg = self
            .cregs
            .iter()
            .position(|r| r.name == creg_name)
            .ok_or_else(|| {
                CircuitError::parse(line, format!("undeclared classical register `{creg_name}`"))
            })?;
        let condition = Condition { creg, value };
        match &self.peek().kind {
            TokenKind::Ident(w) if w == "measure" || w == "reset" || w == "barrier" => {
                Err(CircuitError::parse(
                    line,
                    "conditioned measure/reset/barrier is not supported",
                ))
            }
            TokenKind::Ident(_) => self.gate_stmt(Some(condition)),
            other => Err(CircuitError::parse(
                line,
                format!("expected gate after if, found {}", other.describe()),
            )),
        }
    }

    /// Parses `name (params)? arg (, arg)* ;` and applies it (broadcast).
    fn gate_stmt(&mut self, condition: Option<Condition>) -> Result<(), CircuitError> {
        let (name, line) = self.expect_ident()?;
        let mut params = Vec::new();
        if self.peek().kind == TokenKind::LParen {
            self.advance();
            if self.peek().kind != TokenKind::RParen {
                loop {
                    let e = self.parse_expr()?;
                    params.push(e.eval(&HashMap::new(), line)?);
                    if self.peek().kind == TokenKind::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let mut args = Vec::new();
        loop {
            args.push(self.parse_arg(true)?);
            if self.peek().kind == TokenKind::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect(&TokenKind::Semicolon)?;

        // Broadcasting: all full-register args must share one size.
        let mut broadcast = 1usize;
        for a in &args {
            if let Arg::Reg(r) = a {
                let size = self.qregs[*r].size;
                if broadcast == 1 {
                    broadcast = size;
                } else if size != broadcast {
                    return Err(CircuitError::parse(
                        line,
                        "register size mismatch in broadcast",
                    ));
                }
            }
        }
        for k in 0..broadcast {
            let qubits: Vec<usize> = args
                .iter()
                .map(|a| match a {
                    Arg::Single(q) => *q,
                    Arg::Reg(r) => self.qregs[*r].offset + k,
                })
                .collect();
            let mut distinct = qubits.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != qubits.len() {
                return Err(CircuitError::parse(
                    line,
                    format!("gate `{name}` applied to duplicate qubits"),
                ));
            }
            self.apply_named(&name, line, &params, &qubits, condition, 0)?;
        }
        Ok(())
    }

    /// Parses `reg` or `reg[i]`.
    fn parse_arg(&mut self, quantum: bool) -> Result<Arg, CircuitError> {
        let (name, line) = self.expect_ident()?;
        let regs = if quantum { &self.qregs } else { &self.cregs };
        let reg_index = regs.iter().position(|r| r.name == name).ok_or_else(|| {
            CircuitError::parse(
                line,
                format!(
                    "undeclared {} register `{name}`",
                    if quantum { "quantum" } else { "classical" }
                ),
            )
        })?;
        let (reg_offset, reg_size) = (regs[reg_index].offset, regs[reg_index].size);
        if self.peek().kind == TokenKind::LBracket {
            self.advance();
            let idx = self.expect_uint()? as usize;
            self.expect(&TokenKind::RBracket)?;
            if idx >= reg_size {
                return Err(CircuitError::parse(
                    line,
                    format!("index {idx} out of range for `{name}[{reg_size}]`"),
                ));
            }
            Ok(Arg::Single(reg_offset + idx))
        } else {
            Ok(Arg::Reg(reg_index))
        }
    }

    fn expand_arg(&self, arg: Arg, quantum: bool) -> Vec<usize> {
        let regs = if quantum { &self.qregs } else { &self.cregs };
        match arg {
            Arg::Single(i) => vec![i],
            Arg::Reg(r) => (0..regs[r].size).map(|k| regs[r].offset + k).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Gate dispatch
    // ------------------------------------------------------------------

    fn apply_named(
        &mut self,
        name: &str,
        line: usize,
        params: &[f64],
        qubits: &[usize],
        condition: Option<Condition>,
        depth: usize,
    ) -> Result<(), CircuitError> {
        if depth > MAX_GATE_EXPANSION_DEPTH {
            return Err(CircuitError::parse(
                line,
                format!(
                    "gate `{name}` expands deeper than {MAX_GATE_EXPANSION_DEPTH} levels \
                     (recursive gate definition?)"
                ),
            ));
        }
        let arity_err = |want_p: usize, want_q: usize| {
            CircuitError::parse(
                line,
                format!(
                    "`{name}` expects {want_p} parameter(s) and {want_q} qubit(s), got {} and {}",
                    params.len(),
                    qubits.len()
                ),
            )
        };
        let check = |want_p: usize, want_q: usize| {
            if params.len() == want_p && qubits.len() == want_q {
                Ok(())
            } else {
                Err(arity_err(want_p, want_q))
            }
        };

        let push_gate = |gate: StandardGate, controls: Vec<Control>, target: usize, ops: &mut Vec<Operation>| {
            let mut app = GateApplication::new(gate, controls, target);
            app.condition = condition;
            ops.push(Operation::Gate(app));
        };

        let simple: Option<StandardGate> = match name {
            "id" => Some(StandardGate::I),
            "x" => Some(StandardGate::X),
            "y" => Some(StandardGate::Y),
            "z" => Some(StandardGate::Z),
            "h" => Some(StandardGate::H),
            "s" => Some(StandardGate::S),
            "sdg" => Some(StandardGate::Sdg),
            "t" => Some(StandardGate::T),
            "tdg" => Some(StandardGate::Tdg),
            "sx" => Some(StandardGate::Sx),
            "sxdg" => Some(StandardGate::Sxdg),
            _ => None,
        };
        if let Some(g) = simple {
            check(0, 1)?;
            let mut ops = std::mem::take(&mut self.ops);
            push_gate(g, vec![], qubits[0], &mut ops);
            self.ops = ops;
            return Ok(());
        }

        let mut ops = std::mem::take(&mut self.ops);
        let result = (|| -> Result<(), CircuitError> {
            match name {
                "U" | "u3" => {
                    check(3, 1)?;
                    push_gate(
                        StandardGate::U(params[0], params[1], params[2]),
                        vec![],
                        qubits[0],
                        &mut ops,
                    );
                }
                "u" => {
                    check(3, 1)?;
                    push_gate(
                        StandardGate::U(params[0], params[1], params[2]),
                        vec![],
                        qubits[0],
                        &mut ops,
                    );
                }
                "u2" => {
                    check(2, 1)?;
                    push_gate(
                        StandardGate::U(FRAC_PI_2, params[0], params[1]),
                        vec![],
                        qubits[0],
                        &mut ops,
                    );
                }
                "u1" | "p" => {
                    check(1, 1)?;
                    push_gate(StandardGate::Phase(params[0]), vec![], qubits[0], &mut ops);
                }
                "rx" => {
                    check(1, 1)?;
                    push_gate(StandardGate::Rx(params[0]), vec![], qubits[0], &mut ops);
                }
                "ry" => {
                    check(1, 1)?;
                    push_gate(StandardGate::Ry(params[0]), vec![], qubits[0], &mut ops);
                }
                "rz" => {
                    check(1, 1)?;
                    push_gate(StandardGate::Rz(params[0]), vec![], qubits[0], &mut ops);
                }
                "CX" | "cx" => {
                    check(0, 2)?;
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "cy" => {
                    check(0, 2)?;
                    push_gate(
                        StandardGate::Y,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "cz" => {
                    check(0, 2)?;
                    push_gate(
                        StandardGate::Z,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "ch" => {
                    check(0, 2)?;
                    push_gate(
                        StandardGate::H,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "cp" | "cu1" => {
                    check(1, 2)?;
                    push_gate(
                        StandardGate::Phase(params[0]),
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "crx" => {
                    check(1, 2)?;
                    push_gate(
                        StandardGate::Rx(params[0]),
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "cry" => {
                    check(1, 2)?;
                    push_gate(
                        StandardGate::Ry(params[0]),
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "crz" => {
                    check(1, 2)?;
                    push_gate(
                        StandardGate::Rz(params[0]),
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "cu3" => {
                    check(3, 2)?;
                    push_gate(
                        StandardGate::U(params[0], params[1], params[2]),
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "ccx" => {
                    check(0, 3)?;
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0]), Control::pos(qubits[1])],
                        qubits[2],
                        &mut ops,
                    );
                }
                "swap" => {
                    check(0, 2)?;
                    ops.push(Operation::Swap {
                        a: qubits[0],
                        b: qubits[1],
                        controls: vec![],
                    });
                }
                "rzz" => {
                    // exp(-iθ/2 · Z⊗Z) = CX · (I ⊗ RZ(θ)) · CX
                    check(1, 2)?;
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                    push_gate(StandardGate::Rz(params[0]), vec![], qubits[1], &mut ops);
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                }
                "rxx" => {
                    // H-conjugation maps Z⊗Z to X⊗X.
                    check(1, 2)?;
                    for &q in &qubits[..2] {
                        push_gate(StandardGate::H, vec![], q, &mut ops);
                    }
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                    push_gate(StandardGate::Rz(params[0]), vec![], qubits[1], &mut ops);
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                    for &q in &qubits[..2] {
                        push_gate(StandardGate::H, vec![], q, &mut ops);
                    }
                }
                "ryy" => {
                    // RX(π/2)-conjugation maps Z⊗Z to Y⊗Y.
                    check(1, 2)?;
                    for &q in &qubits[..2] {
                        push_gate(StandardGate::Rx(FRAC_PI_2), vec![], q, &mut ops);
                    }
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                    push_gate(StandardGate::Rz(params[0]), vec![], qubits[1], &mut ops);
                    push_gate(
                        StandardGate::X,
                        vec![Control::pos(qubits[0])],
                        qubits[1],
                        &mut ops,
                    );
                    for &q in &qubits[..2] {
                        push_gate(StandardGate::Rx(-FRAC_PI_2), vec![], q, &mut ops);
                    }
                }
                "cswap" => {
                    check(0, 3)?;
                    ops.push(Operation::Swap {
                        a: qubits[1],
                        b: qubits[2],
                        controls: vec![Control::pos(qubits[0])],
                    });
                }
                mc if mc.starts_with("mc") && qubits.len() >= 2 => {
                    // Our serialization extension: mc<base> c0,..,ck,target.
                    let base = &mc[2..];
                    let gate = match (base, params.len()) {
                        ("x", 0) => StandardGate::X,
                        ("y", 0) => StandardGate::Y,
                        ("z", 0) => StandardGate::Z,
                        ("h", 0) => StandardGate::H,
                        ("p", 1) => StandardGate::Phase(params[0]),
                        ("rx", 1) => StandardGate::Rx(params[0]),
                        ("ry", 1) => StandardGate::Ry(params[0]),
                        ("rz", 1) => StandardGate::Rz(params[0]),
                        ("u", 3) => StandardGate::U(params[0], params[1], params[2]),
                        _ => {
                            return Err(CircuitError::parse(
                                line,
                                format!("unknown multi-controlled gate `{mc}`"),
                            ))
                        }
                    };
                    let (target, controls) = qubits.split_last().expect("len >= 2");
                    let ctrls = controls.iter().map(|&q| Control::pos(q)).collect();
                    push_gate(gate, ctrls, *target, &mut ops);
                }
                other => {
                    let def = self.gate_defs.get(other).cloned().ok_or_else(|| {
                        CircuitError::parse(line, format!("unknown gate `{other}`"))
                    })?;
                    if def.params.len() != params.len() || def.qargs.len() != qubits.len() {
                        return Err(arity_err(def.params.len(), def.qargs.len()));
                    }
                    let bindings: HashMap<String, f64> = def
                        .params
                        .iter()
                        .cloned()
                        .zip(params.iter().copied())
                        .collect();
                    let qmap: HashMap<String, usize> = def
                        .qargs
                        .iter()
                        .cloned()
                        .zip(qubits.iter().copied())
                        .collect();
                    self.ops = std::mem::take(&mut ops);
                    for stmt in &def.body {
                        match stmt {
                            BodyStmt::Barrier => self.ops.push(Operation::Barrier),
                            BodyStmt::Apply {
                                name,
                                line,
                                params,
                                qargs,
                            } => {
                                let vals: Vec<f64> = params
                                    .iter()
                                    .map(|e| e.eval(&bindings, *line))
                                    .collect::<Result<_, _>>()?;
                                let qs: Vec<usize> = qargs
                                    .iter()
                                    .map(|q| {
                                        qmap.get(q).copied().ok_or_else(|| {
                                            CircuitError::parse(
                                                *line,
                                                format!("unknown gate argument `{q}`"),
                                            )
                                        })
                                    })
                                    .collect::<Result<_, _>>()?;
                                self.apply_named(name, *line, &vals, &qs, condition, depth + 1)?;
                            }
                        }
                    }
                    ops = std::mem::take(&mut self.ops);
                }
            }
            Ok(())
        })();
        self.ops = ops;
        result
    }

    // ------------------------------------------------------------------
    // Expression parsing (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, CircuitError> {
        let mut lhs = self.parse_term()?;
        loop {
            match self.peek().kind {
                TokenKind::Plus => {
                    self.advance();
                    let rhs = self.parse_term()?;
                    lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
                }
                TokenKind::Minus => {
                    self.advance();
                    let rhs = self.parse_term()?;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_term(&mut self) -> Result<Expr, CircuitError> {
        let mut lhs = self.parse_factor()?;
        loop {
            match self.peek().kind {
                TokenKind::Star => {
                    self.advance();
                    let rhs = self.parse_factor()?;
                    lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
                }
                TokenKind::Slash => {
                    self.advance();
                    let rhs = self.parse_factor()?;
                    lhs = Expr::Div(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<Expr, CircuitError> {
        // Every recursive expression path (parentheses, unary signs, powers,
        // function calls) passes through here, so this single counter bounds
        // the whole descent against stack-overflowing input.
        self.expr_depth += 1;
        if self.expr_depth > MAX_EXPR_DEPTH {
            self.expr_depth -= 1;
            return Err(CircuitError::parse(
                self.line(),
                format!("parameter expression nested deeper than {MAX_EXPR_DEPTH} levels"),
            ));
        }
        let result = match self.peek().kind.clone() {
            TokenKind::Minus => {
                self.advance();
                let inner = self.parse_factor()?;
                Ok(Expr::Neg(Box::new(inner)))
            }
            TokenKind::Plus => {
                self.advance();
                self.parse_factor()
            }
            _ => {
                let base = self.parse_primary()?;
                if self.peek().kind == TokenKind::Caret {
                    self.advance();
                    let exp = self.parse_factor()?;
                    Ok(Expr::Pow(Box::new(base), Box::new(exp)))
                } else {
                    Ok(base)
                }
            }
        };
        self.expr_depth -= 1;
        result
    }

    fn parse_primary(&mut self) -> Result<Expr, CircuitError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Int(v) => Ok(Expr::Num(v as f64)),
            TokenKind::Number(v) => Ok(Expr::Num(v)),
            TokenKind::Ident(name) if name == "pi" => Ok(Expr::Pi),
            TokenKind::Ident(name) => {
                if self.peek().kind == TokenKind::LParen {
                    self.advance();
                    let arg = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Call(name, Box::new(arg)))
                } else {
                    Ok(Expr::Param(name))
                }
            }
            TokenKind::LParen => {
                let inner = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            other => Err(CircuitError::parse(
                t.line,
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }

    // ------------------------------------------------------------------

    fn into_circuit(self) -> Result<QuantumCircuit, CircuitError> {
        let total: usize = self.qregs.iter().map(|r| r.size).sum();
        if total == 0 {
            return Err(CircuitError::parse(1, "no quantum register declared"));
        }
        let mut qc = QuantumCircuit::with_name(total, "qasm");
        qc.set_qregs(
            self.qregs
                .iter()
                .map(|r| QuantumRegister {
                    name: r.name.clone(),
                    offset: r.offset,
                    size: r.size,
                })
                .collect(),
        );
        for r in &self.cregs {
            qc.add_creg(r.name.clone(), r.size);
        }
        for op in self.ops {
            qc.append(op);
        }
        Ok(qc)
    }
}
