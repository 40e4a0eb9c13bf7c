//! `qdd simulate` — run a circuit, print the resulting state, sample it,
//! and optionally export the diagram.

use crate::args::{parse_limits, parse_style, Args};
use crate::commands::CmdError;
use crate::load::load_circuit;

pub const HELP: &str = "\
qdd simulate <file.{qasm,real}> [options]

Runs the circuit from |0…0⟩ on decision diagrams. Measurements and resets
use seeded randomness; classically-controlled gates consult the recorded
bits.

OPTIONS:
  --seed N          RNG seed for measurements/sampling (default 1)
  --shots N         draw N shots through the shot engine (default 0).
                    Purely unitary and terminal-measurement circuits run
                    once and sample the final diagram; circuits with
                    mid-circuit measurement, reset, or classical control
                    run per shot: a shot re-executes the circuit unless its
                    worker already executed the same outcome path, which it
                    then replays. Measured circuits histogram the
                    classical register values, unmeasured ones basis states.
  --threads N       worker threads for mid-circuit shots (default: one
                    per CPU); histograms are bit-identical for every thread
                    count.
  --state           print the amplitude table of the final state
  --threshold P     hide amplitudes below probability P (default 1e-9)
  --node-limit N    cap live DD nodes; under pressure the run GCs, then
                    approximates (with --min-fidelity), then degrades to
                    dense simulation (≤ 24 qubits), then fails
  --timeout-ms N    wall-clock budget for the run
  --min-fidelity F  allow fidelity-bounded approximation under resource
                    pressure, keeping the state's fidelity to the exact
                    run at least F (in (0, 1]); runs that approximated
                    exit with code 4
  --approx-policy P approximation strategy: budget (default; prune the
                    cheapest subtrees within the fidelity budget) or
                    threshold:EPS (zero edges contributing < EPS).
                    Requires --min-fidelity
  --stats           print the run's statistics when it ends: every counter,
                    gauge and histogram of the telemetry snapshot (the
                    numbers --metrics-out writes: node counts, per-table
                    cache traffic, gate-DD cache, complex-table interning,
                    GC, approximation) and the per-phase wall-time table
  --metrics-out P   write the telemetry snapshot to P as one line of
                    qdd-metrics-v1 JSON
  --trace-out P     write the telemetry event stream to P as Chrome
                    trace_event JSON
  --record-timeline P
                    record a per-op execution timeline (live/peak nodes,
                    allocation and cache-hit deltas, GC/approximation/
                    fallback events) and write it to P as qdd-timeline-v1
                    JSONL; render it with `qdd inspect P`. Multi-threaded
                    shot runs merge worker timelines deterministically
  --snapshot-stride K
                    with --record-timeline: every K-th op embeds a full
                    structural snapshot of the diagram (0 = off, default)
  --histogram-out P with --shots: write the histogram to P as
                    qdd-histogram-v1 JSONL (a header line, then one sorted
                    {\"value\":V,\"count\":C} line per outcome) — the same
                    bytes `qdd serve`'s /v1/shots endpoint streams, so the
                    two paths can be diffed bit-for-bit
  --svg PATH        write the final diagram as SVG
  --dot PATH        write the final diagram as Graphviz DOT
  --html PATH       write a step-by-step HTML explorer of the whole run:
                    the same seed gives the same run as the printed one
  --style STYLE     classic | colored | modern  (default classic)

EXIT STATUS: 0 on success (exact result), 1 on bad input, 3 when a
resource budget (--node-limit, --timeout-ms) is exhausted, 4 when the run
completed but the result is approximate (--min-fidelity pruning fired).";

const FLAGS: &[&str] = &[
    "--seed", "--shots", "--threads", "--state", "--threshold", "--node-limit",
    "--timeout-ms", "--stats", "--svg", "--dot", "--html", "--style",
    "--metrics-out", "--trace-out", "--min-fidelity", "--approx-policy",
    "--record-timeline", "--snapshot-stride", "--histogram-out",
];

/// Exit code reported to `main` when the run finished but the state was
/// approximated under resource pressure.
pub const EXIT_APPROXIMATE: u8 = 4;

pub fn run(argv: &[String]) -> Result<u8, CmdError> {
    let args = Args::parse(argv, FLAGS)?;
    let [path] = args.positional.as_slice() else {
        return Err(CmdError::Input(format!(
            "expected exactly one circuit file\n\n{HELP}"
        )));
    };
    // Enable recording before the circuit loads so parse spans are captured.
    let telemetry_on = crate::telemetry::start(&args)?;
    let circuit = load_circuit(path)?;
    let workload = crate::telemetry::Workload {
        name: circuit.name().to_string(),
        qubits: circuit.num_qubits(),
        ops: circuit.len(),
    };
    let seed: u64 = args.number("--seed", 1)?;
    let shots: u64 = args.number("--shots", 0)?;
    let threads: usize = args.number("--threads", 0)?;
    let threshold: f64 = args.number("--threshold", 1e-9)?;
    let style = parse_style(args.value("--style"))?;
    let limits = parse_limits(&args)?;

    println!(
        "{}: {} qubits, {} operations, depth {}",
        circuit.name(),
        circuit.num_qubits(),
        circuit.len(),
        circuit.depth()
    );

    // The HTML explorer needs per-step frames. Its dialogs resolve with the
    // simulator's own draw from `seed`, so its frames show the run printed
    // below.
    if let Some(html_path) = args.value("--html") {
        let mut explorer = qdd_viz::SimulationExplorer::with_seed(circuit.clone(), seed, style);
        explorer.run_scripted(&[]).map_err(|e| e.to_string())?;
        qdd_viz::html::write_explorer(
            std::path::Path::new(html_path),
            &format!("qdd — {}", circuit.name()),
            explorer.frames(),
        )
        .map_err(|e| format!("writing `{html_path}`: {e}"))?;
        println!("wrote {} frames to {html_path}", explorer.frames().len());
    }

    let config = qdd_core::PackageConfig {
        limits,
        ..qdd_core::PackageConfig::default()
    };
    let mut sim = qdd_sim::DdSimulator::with_config(circuit.clone(), seed, config);
    if let Err(e) = sim.run() {
        // A blown deadline returns immediately without climbing the ladder
        // (time spent cannot be GC'd back), so the trail would be fiction.
        if !matches!(
            e,
            qdd_sim::SimError::Dd(qdd_core::DdError::DeadlineExceeded { .. })
        ) {
            print_degradation_trail(&sim, &circuit, &limits);
        }
        // Still write the requested telemetry outputs: the trace of a run
        // that hit its budget is exactly what a post-mortem needs.
        let _ = crate::telemetry::finish(&args, telemetry_on, Some(&workload));
        return Err(CmdError::from_sim(&e));
    }
    if sim.stats().is_approximate() {
        println!(
            "budget pressure: approximated in {} rounds, fidelity ≥ {:.6} \
             ({} nodes pruned)",
            sim.stats().approx_rounds,
            sim.stats().fidelity_lower_bound,
            sim.stats().approx_nodes_removed
        );
    }
    if sim.degraded_to_dense() {
        println!(
            "node limit hit: degraded to dense simulation after {} operations \
             ({} pressure GCs)",
            sim.stats().applied_ops,
            sim.package().gc_pressure_runs()
        );
    } else {
        println!(
            "final diagram: {} nodes (peak {} during the run)",
            sim.node_count(),
            sim.stats().peak_nodes
        );
    }
    if sim.package().gc_pressure_runs() > 0 && !sim.degraded_to_dense() {
        println!(
            "budget pressure: {} forced garbage collections",
            sim.package().gc_pressure_runs()
        );
    }
    if !sim.classical_bits().is_empty() {
        let bits: String = sim
            .classical_bits()
            .iter()
            .rev()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        println!("classical bits: {bits}");
    }

    if args.has("--state") {
        if sim.degraded_to_dense() {
            let n = circuit.num_qubits();
            for (basis, amp) in sim.dense_state().iter().enumerate() {
                if amp.norm_sqr() >= threshold {
                    println!("  |{basis:0n$b}⟩ : {:+.6}{:+.6}i", amp.re, amp.im);
                }
            }
        } else {
            print!(
                "{}",
                qdd_viz::text::state_table(
                    sim.package(),
                    sim.state(),
                    circuit.num_qubits(),
                    threshold
                )
            );
        }
    }

    // Exit code 4 signals "completed, but the result is approximate". The
    // shot path below can only tighten this with the workers' merged bound.
    let mut approximate = sim.stats().is_approximate();

    if shots > 0 {
        // Shots run through the shot engine, not by sampling the final
        // state of the run above: for circuits with mid-circuit
        // measurement, reset, or classical control, sampling one final
        // state is *wrong* — each shot must follow its own outcome path.
        let mut opts = qdd_sim::ShotOptions::new(shots, seed);
        opts.threads = threads;
        opts.config = config;
        let report = match qdd_sim::shots::run(&circuit, &opts) {
            Ok(r) => r,
            Err(e) => {
                let _ = crate::telemetry::finish(&args, telemetry_on, Some(&workload));
                return Err(CmdError::from_sim(&e));
            }
        };
        if report.is_approximate() {
            approximate = true;
            println!(
                "shots are approximate: per-shot fidelity ≥ {:.6}",
                report.fidelity_lower_bound
            );
        }
        if let Some(hist_path) = args.value("--histogram-out") {
            // Same header and line bytes as `qdd serve`'s /v1/shots stream,
            // so CLI and daemon histograms diff bit-for-bit.
            let kind = match report.kind {
                qdd_sim::HistogramKind::BasisStates => "basis_states",
                qdd_sim::HistogramKind::ClassicalBits => "classical_bits",
            };
            let mut out = format!(
                "{{\"schema\":\"qdd-histogram-v1\",\"kind\":\"{kind}\",\"shots\":{}}}\n",
                report.shots
            );
            for line in report.histogram_lines() {
                out.push_str(&line);
                out.push('\n');
            }
            std::fs::write(hist_path, out)
                .map_err(|e| format!("writing `{hist_path}`: {e}"))?;
            println!("wrote histogram to {hist_path}");
        }
        let mut entries: Vec<_> = report.histogram.into_iter().collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut line = format!("{shots} shots: {} regime", report.regime);
        if report.threads_used > 1 {
            line.push_str(&format!(", {} threads", report.threads_used));
        }
        if report.regime == qdd_circuit::MeasurementRegime::MidCircuit {
            line.push_str(&format!(", {} executed", report.executed_shots));
        }
        println!("{line}");
        let width = match report.kind {
            qdd_sim::HistogramKind::BasisStates => circuit.num_qubits(),
            qdd_sim::HistogramKind::ClassicalBits => circuit.num_clbits(),
        };
        for (value, count) in entries.iter().take(16) {
            match report.kind {
                qdd_sim::HistogramKind::BasisStates => {
                    println!("  |{value:0width$b}⟩ : {count}");
                }
                qdd_sim::HistogramKind::ClassicalBits => {
                    println!("  {value:0width$b} : {count}");
                }
            }
        }
        if entries.len() > 16 {
            println!("  … {} more outcomes", entries.len() - 16);
        }
    }

    if sim.degraded_to_dense() && (args.value("--svg").is_some() || args.value("--dot").is_some()) {
        println!("note: diagram exports show the last in-budget DD snapshot");
    }
    if let Some(svg_path) = args.value("--svg") {
        let svg = qdd_viz::svg::vector_to_svg(sim.package(), sim.state(), &style);
        std::fs::write(svg_path, svg).map_err(|e| format!("writing `{svg_path}`: {e}"))?;
        println!("wrote {svg_path}");
    }
    if let Some(dot_path) = args.value("--dot") {
        let dot = qdd_viz::dot::vector_to_dot(sim.package(), sim.state(), &style);
        std::fs::write(dot_path, dot).map_err(|e| format!("writing `{dot_path}`: {e}"))?;
        println!("wrote {dot_path}");
    }
    crate::telemetry::finish(&args, telemetry_on, Some(&workload))?;
    Ok(if approximate { EXIT_APPROXIMATE } else { 0 })
}

/// Reports which degradation rungs ran before a resource failure, so the
/// error's "what now?" is answerable from the transcript alone: raise the
/// budget, lower `--min-fidelity`, or accept that the circuit is too big.
fn print_degradation_trail(
    sim: &qdd_sim::DdSimulator,
    circuit: &qdd_circuit::QuantumCircuit,
    limits: &qdd_core::Limits,
) {
    let stats = sim.stats();
    let pressure_runs = sim.package().gc_pressure_runs();
    eprintln!("degradation ladder exhausted:");
    eprintln!(
        "  1. pressure GC: {pressure_runs} forced collection{}",
        if pressure_runs == 1 { "" } else { "s" }
    );
    match limits.min_fidelity {
        Some(f) if stats.approx_rounds > 0 => eprintln!(
            "  2. approximation: {} rounds within --min-fidelity {f} \
             (bound {:.6}), still over budget",
            stats.approx_rounds, stats.fidelity_lower_bound
        ),
        Some(f) => eprintln!(
            "  2. approximation: no subtree prunable within --min-fidelity {f}"
        ),
        None => eprintln!("  2. approximation: skipped (no --min-fidelity)"),
    }
    let n = circuit.num_qubits();
    if n > qdd_sim::MAX_DENSE_QUBITS {
        eprintln!(
            "  3. dense fallback: unavailable ({n} qubits exceeds the \
             {}-qubit dense cap)",
            qdd_sim::MAX_DENSE_QUBITS
        );
    } else {
        eprintln!("  3. dense fallback: failed");
    }
}
