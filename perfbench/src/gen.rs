//! Seeded job generators. Everything a run executes is derived from the
//! workload seed here; the program under test only ever receives the QASM
//! and JSON text these jobs carry.

use qdd_circuit::compile::{self, CompileOptions};
use qdd_circuit::{library, optimize, Operation, QuantumCircuit};
use qdd_verify::Strategy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// What a sampled outcome may be: the measured qubits of a unitary
/// reference circuit, as `(qubit, classical bit)` pairs. An outcome is
/// possible iff the reference state gives it nonzero probability.
pub struct Oracle {
    pub reference: QuantumCircuit,
    pub measured: Vec<(usize, usize)>,
}

pub struct SimJob {
    /// Generator family, for trace labels only.
    pub family: String,
    pub midcircuit: bool,
    pub qasm: String,
    pub shots: u64,
    pub seed: u64,
    pub oracle: Oracle,
}

/// The circuit a `measure_all` job samples, with its dense oracle.
fn measured(body: QuantumCircuit) -> (QuantumCircuit, Oracle) {
    let mut qc = body.clone();
    qc.measure_all();
    let measured = (0..body.num_qubits()).map(|q| (q, q)).collect();
    (
        qc,
        Oracle {
            reference: body,
            measured,
        },
    )
}

/// `body` behind a leading `measure` of qubit 0 (always 0 from `|0…0⟩`),
/// which puts it in the per-shot mid-circuit regime without changing the
/// outcome distribution.
fn leading_measure(body: QuantumCircuit) -> (QuantumCircuit, Oracle) {
    let n = body.num_qubits();
    let mut qc = QuantumCircuit::with_name(n, format!("lead_{}", body.name()));
    qc.add_creg("trigger", 1);
    qc.measure(0, 0);
    qc.extend(&body);
    qc.measure_all();
    let measured = (0..n).map(|q| (q, q)).collect();
    (
        qc,
        Oracle {
            reference: body,
            measured,
        },
    )
}

/// Teleportation of `RY(θ)|0⟩`: the Bell-measurement bits come from the
/// unitary prefix; the conditioned corrections touch only the unmeasured
/// qubit.
fn teleport(theta: f64) -> (QuantumCircuit, Oracle) {
    let qc = library::teleportation(theta);
    let reference_ops = qc
        .ops()
        .iter()
        .take_while(|op| !matches!(op, Operation::Measure { .. }));
    let mut reference = QuantumCircuit::new(3);
    for op in reference_ops {
        reference.append(op.clone());
    }
    let measured = qc
        .ops()
        .iter()
        .filter_map(|op| match op {
            Operation::Measure { qubit, bit } => Some((*qubit, *bit)),
            _ => None,
        })
        .collect();
    (
        qc,
        Oracle {
            reference,
            measured,
        },
    )
}

/// A generator family and size of circuits to sample.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    CliffordT(usize),
    Random(usize),
    Grover(usize),
    Teleport,
    LeadCliffordT(usize),
}

/// Terminal-measured families: one run, then every shot from the final
/// diagram.
/// The sizes keep the mean job near 20 ms, so a run holds enough jobs for
/// a steady median: random circuits' build cost varies several-fold from
/// one circuit seed to the next at every size.
pub const TERMINAL: [Family; 9] = [
    Family::CliffordT(7),
    Family::CliffordT(8),
    Family::CliffordT(9),
    Family::Random(7),
    Family::Random(8),
    Family::Random(9),
    Family::Grover(6),
    Family::Grover(7),
    Family::Grover(8),
];

/// Mid-circuit families: the circuit re-runs for every shot.
pub const MIDCIRCUIT: [Family; 3] = [
    Family::Teleport,
    Family::LeadCliffordT(4),
    Family::LeadCliffordT(5),
];

/// A seeded circuit to sample, with its oracle and the shot range that
/// keeps its job in the tens of milliseconds.
pub struct Sampled {
    pub family: String,
    pub circuit: QuantumCircuit,
    pub oracle: Oracle,
    pub shots: (u64, u64),
}

pub fn sampled_circuit(rng: &mut SmallRng, family: Family) -> Sampled {
    const TERMINAL_SHOTS: (u64, u64) = (4_000, 40_000);
    let seed = rng.gen::<u64>();
    let (name, (circuit, oracle), shots) = match family {
        Family::CliffordT(n) => (
            format!("clifford-t-{n}"),
            measured(library::random_clifford_t(n, 4 * n, seed)),
            TERMINAL_SHOTS,
        ),
        Family::Random(n) => (
            format!("random-{n}"),
            measured(library::random_circuit(n, 2 * n, seed)),
            TERMINAL_SHOTS,
        ),
        Family::Grover(n) => {
            let marked = rng.gen_range(0..1 << n);
            (
                format!("grover-{n}"),
                measured(library::grover(n, marked)),
                TERMINAL_SHOTS,
            )
        }
        Family::Teleport => (
            "teleport".to_string(),
            teleport(rng.gen::<f64>() * PI),
            (150, 600),
        ),
        Family::LeadCliffordT(n) => {
            let body = library::random_clifford_t(n, 4 * n, seed);
            (
                format!("lead-clifford-t-{n}"),
                leading_measure(body),
                (20, 80),
            )
        }
    };
    Sampled {
        family: name,
        circuit,
        oracle,
        shots,
    }
}

/// A seeded order of `count` class indices in which class `c` appears
/// `weights[c]` times in every consecutive cycle: every seed runs the same
/// mix, and only the order and each job's own parameters vary.
pub fn stratified(rng: &mut SmallRng, weights: &[usize], count: usize) -> Vec<usize> {
    let cycle: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(class, &w)| std::iter::repeat_n(class, w))
        .collect();
    let mut out = Vec::with_capacity(count + cycle.len());
    while out.len() < count {
        let mut c = cycle.clone();
        for i in (1..c.len()).rev() {
            c.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend(c);
    }
    out.truncate(count);
    out
}

/// `simulate` jobs: every terminal and mid-circuit family in equal shares,
/// so a quarter of the jobs take the per-shot path.
pub fn simulate_jobs(seed: u64, count: usize) -> Vec<SimJob> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let families: Vec<Family> = TERMINAL.into_iter().chain(MIDCIRCUIT).collect();
    stratified(&mut rng, &vec![1; families.len()], count)
        .into_iter()
        .map(|class| {
            let family = families[class];
            let s = sampled_circuit(&mut rng, family);
            SimJob {
                family: s.family,
                midcircuit: matches!(family, Family::Teleport | Family::LeadCliffordT(_)),
                qasm: s.circuit.to_qasm(),
                shots: rng.gen_range(s.shots.0..s.shots.1 + 1),
                seed: rng.gen::<u64>(),
                oracle: s.oracle,
            }
        })
        .collect()
}

pub struct VerifyJob {
    pub family: String,
    pub left: String,
    pub right: String,
    pub strategy: Strategy,
    pub expect_equivalent: bool,
}

/// Inserts `t` on a seeded qubit after a seeded operation line in the last
/// tenth of `qasm`, so the deviation it causes stays near the end of the
/// check and the job's cost stays bounded.
pub fn insert_t(qasm: &str, rng: &mut SmallRng) -> String {
    let lines: Vec<&str> = qasm.lines().collect();
    let (name, size) = lines
        .iter()
        .find_map(|l| {
            l.strip_prefix("qreg ")?
                .trim_end_matches("];")
                .split_once('[')
        })
        .and_then(|(name, size)| Some((name.to_string(), size.parse::<u64>().ok()?)))
        .expect("generated QASM declares one quantum register");
    let body_start = 1 + lines
        .iter()
        .rposition(|l| l.starts_with("qreg ") || l.starts_with("creg "))
        .expect("generated QASM declares a register");
    let body = (lines.len() - body_start) as u64;
    let at = body_start + rng.gen_range(body * 9 / 10..body + 1) as usize;
    let t = format!("t {name}[{}];", rng.gen_range(0..size));
    let mut out: Vec<&str> = lines.clone();
    out.insert(at, &t);
    out.join("\n") + "\n"
}

/// A seeded equivalence pair `(G, G′)` of verify class `class` (0..4) and
/// the strategy that checks it. `G′` is an equivalent rewrite of `G`
/// (`optimize`, `compile` or `compiled_qft`); `tamper` inserts one extra `T`
/// into `G′`. Construction (classes 0, 1) builds both full system matrices,
/// so it gets narrow Clifford+T and Grover circuits; the alternating
/// strategy (classes 2, 3) stays near the identity and gets wide Clifford+T
/// and QFT circuits.
///
/// Construction on 5-qubit Clifford+T grows steeply and heavy-tailed with
/// depth (a tampered depth-32 pair costs 18–160 ms), so its depth stays
/// at 12–16, where every pair costs under 10 ms. The costliest jobs are
/// then the seed-independent `qft(12)` pairs, one job in twelve, so the
/// tail percentile falls inside that narrow class on every seed.
pub fn verify_pair(
    rng: &mut SmallRng,
    class: usize,
    tamper: bool,
) -> (Strategy, String, String, String) {
    let paper_flow = CompileOptions::paper_flow();
    let rewrite = |rng: &mut SmallRng, g: &QuantumCircuit| {
        if rng.gen_bool(0.5) {
            optimize::optimize(g).0
        } else {
            compile::compile(g, paper_flow)
        }
    };
    let (strategy, family, left, right) = match class {
        0 | 2 => {
            let (n, depths) = if class == 0 {
                (5, (12, 16))
            } else {
                (12, (96, 144))
            };
            let depth = rng.gen_range(depths.0..depths.1 + 1);
            let g = library::random_clifford_t(n, depth, rng.gen::<u64>());
            let r = rewrite(rng, &g);
            let strategy = if class == 0 {
                Strategy::Construction
            } else {
                Strategy::Proportional
            };
            (strategy, format!("clifford-t-{n}"), g, r)
        }
        1 => {
            let g = library::grover(6, rng.gen_range(0..64));
            let r = rewrite(rng, &g);
            (Strategy::Construction, "grover-6".to_string(), g, r)
        }
        _ => {
            let n = rng.gen_range(10..13);
            let r = if rng.gen_bool(0.5) {
                compile::compiled_qft(n)
            } else {
                let no_barriers = CompileOptions {
                    barriers: Default::default(),
                    ..paper_flow
                };
                compile::compile(&library::qft(n, true), no_barriers)
            };
            (
                Strategy::Proportional,
                format!("qft-{n}"),
                library::qft(n, true),
                r,
            )
        }
    };
    let right = if tamper {
        insert_t(&right.to_qasm(), rng)
    } else {
        right.to_qasm()
    };
    (strategy, family, left.to_qasm(), right)
}

/// `verify` jobs: the four verify classes in equal shares, so construction
/// and proportional (alternating) checks split evenly, with exactly one
/// pair in four of every class tampered.
pub fn verify_jobs(seed: u64, count: usize) -> Vec<VerifyJob> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let offset = rng.gen_range(0..4usize);
    let mut seen = [0usize; 4];
    stratified(&mut rng, &[1, 1, 1, 1], count)
        .into_iter()
        .map(|class| {
            let tamper = (seen[class] + offset).is_multiple_of(4);
            seen[class] += 1;
            let (strategy, family, left, right) = verify_pair(&mut rng, class, tamper);
            VerifyJob {
                family,
                left,
                right,
                strategy,
                expect_equivalent: !tamper,
            }
        })
        .collect()
}
