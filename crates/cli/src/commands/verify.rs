//! `qdd verify` — equivalence checking of two circuit files.

use crate::args::{parse_limits, Args};
use crate::commands::CmdError;
use crate::load::load_circuit;
use qdd_verify::{Equivalence, EquivalenceChecker, Strategy};

pub const HELP: &str = "\
qdd verify <left.{qasm,real}> <right.{qasm,real}> [options]

Checks whether the two circuits realize the same unitary, using decision
diagrams (both must be measurement-free and act on the same number of
qubits, like the paper's tool).

OPTIONS:
  --strategy S     construction | one-to-one | proportional |
                   barrier-guided | lookahead   (default proportional)
  --stimuli N      additionally run N random basis states through both
                   circuits and compare the outputs (default 0)
  --node-limit N   cap live DD nodes during the check and the stimuli
  --timeout-ms N   wall-clock budget for the check, and again for the
                   stimuli
  --stats          print the check's statistics when it ends: every
                   counter, gauge and histogram of the telemetry snapshot
                   (the numbers --metrics-out writes) and the per-phase
                   wall-time table
  --metrics-out P  write the telemetry snapshot to P as one line of
                   qdd-metrics-v1 JSON
  --trace-out P    write the telemetry event stream to P as Chrome
                   trace_event JSON

EXIT STATUS: 0 when equivalent (incl. up to global phase), 1 otherwise,
3 when a resource budget (--node-limit, --timeout-ms) is exhausted.";

const FLAGS: &[&str] = &[
    "--strategy", "--stimuli", "--node-limit", "--timeout-ms", "--stats",
    "--metrics-out", "--trace-out",
];

pub fn run(argv: &[String]) -> Result<(), CmdError> {
    let args = Args::parse(argv, FLAGS)?;
    let [left_path, right_path] = args.positional.as_slice() else {
        return Err(CmdError::Input(format!(
            "expected exactly two circuit files\n\n{HELP}"
        )));
    };
    // Enable recording before the circuits load so parse spans are captured.
    let telemetry_on = crate::telemetry::start(&args)?;
    let left = load_circuit(left_path)?;
    let right = load_circuit(right_path)?;
    let strategy = args
        .value("--strategy")
        .map_or(Ok(Strategy::default()), str::parse)?;
    let stimuli: usize = args.number("--stimuli", 0)?;
    let limits = parse_limits(&args)?;
    let workload = qdd_telemetry::sink::TraceHeader {
        circuit: format!("{} vs {}", left.name(), right.name()),
        qubits: left.num_qubits().max(right.num_qubits()),
        ops: left.len() + right.len(),
        ..Default::default()
    };

    println!(
        "left:  {} ({} qubits, {} gates)",
        left.name(),
        left.num_qubits(),
        left.gate_count()
    );
    println!(
        "right: {} ({} qubits, {} gates)",
        right.name(),
        right.num_qubits(),
        right.gate_count()
    );

    let mut checker = if limits.is_unlimited() {
        EquivalenceChecker::new()
    } else {
        EquivalenceChecker::with_config(qdd_core::PackageConfig {
            limits,
            ..qdd_core::PackageConfig::default()
        })
    };
    // Still write the requested telemetry outputs when a budget runs
    // out: the trace of a check that blew it is what a post-mortem needs.
    let fail = |checker: &EquivalenceChecker, e: &qdd_verify::VerifyError| {
        checker.package().publish_telemetry();
        let _ = crate::telemetry::finish(&args, telemetry_on, &workload);
        CmdError::from_verify(e)
    };
    let report = checker
        .check(&left, &right, strategy)
        .map_err(|e| fail(&checker, &e))?;
    println!("{report}");
    if let Some(cx) = report.counterexample {
        println!("counterexample: entry ({}, {}) deviates from the identity pattern", cx.row, cx.col);
    }

    if stimuli > 0 {
        let sim_report = checker
            .check_stimuli(&left, &right, stimuli, 1)
            .map_err(|e| fail(&checker, &e))?;
        println!(
            "stimuli: {} inputs run, min fidelity {:.9}{}",
            sim_report.stimuli_run,
            sim_report.min_fidelity,
            match sim_report.witness {
                Some(w) => format!(", mismatch on input |{w:b}⟩"),
                None => String::new(),
            }
        );
    }

    checker.package().publish_telemetry();
    crate::telemetry::finish(&args, telemetry_on, &workload)?;
    match report.result {
        Equivalence::NotEquivalent => {
            Err(CmdError::Input("circuits are NOT equivalent".to_string()))
        }
        _ => Ok(()),
    }
}
