//! End-to-end tests of the `qdd` binary.

use qdd_telemetry::json::{parse_json, JsonValue};
use std::path::PathBuf;
use std::process::{Command, Output};

fn qdd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdd"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qdd_cli_test_{}_{name}", std::process::id()))
}

fn temp_file(name: &str, content: &str) -> PathBuf {
    let path = temp_path(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// Reads and parses a JSON file the binary wrote, then deletes it.
fn read_json(path: &PathBuf) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).ok();
    parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn bell_qasm() -> PathBuf {
    temp_file(
        "bell.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[1];\ncx q[1],q[0];\n",
    )
}

#[test]
fn help_lists_commands() {
    let out = qdd(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["simulate", "verify", "render", "circuit"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn no_args_fails_with_usage() {
    let out = qdd(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = qdd(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn simulate_prints_state_and_shots() {
    let file = bell_qasm();
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--state",
        "--shots",
        "50",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 qubits"));
    assert!(text.contains("1/√2"), "{text}");
    assert!(text.contains("50 shots:"));
    std::fs::remove_file(file).ok();
}

#[test]
fn simulate_shots_route_through_the_shot_engine() {
    // Mid-circuit measurement + classical control: `--shots` must
    // re-execute per shot and histogram the classical register, not sample
    // one final state. With H;measure;if(c==1)x the qubit always ends in
    // |0⟩ — final-state sampling would report a single outcome 0, while the
    // recorded bit is a fair coin.
    let file = temp_file(
        "midcircuit.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n\
         h q[0];\nmeasure q[0] -> c[0];\nif (c==1) x q[0];\n",
    );
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--shots",
        "400",
        "--seed",
        "7",
        "--threads",
        "2",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("400 shots: mid-circuit regime"), "{text}");
    // Two outcome paths: each of the two workers executes each path once at
    // most and replays every other shot from its outcome trie.
    let executed: u64 = text
        .lines()
        .find(|l| l.starts_with("400 shots:"))
        .and_then(|l| l.strip_suffix(" executed"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no executed-shot count: {text}"));
    assert!((2..=4).contains(&executed), "{executed} executed: {text}");
    // Both classical outcomes must appear with roughly fair frequency.
    let count_of = |bits: &str| -> u64 {
        text.lines()
            .find(|l| l.trim_start().starts_with(&format!("{bits} : ")))
            .and_then(|l| l.rsplit(':').next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    let (zeros, ones) = (count_of("0"), count_of("1"));
    assert_eq!(zeros + ones, 400, "histogram must cover all shots: {text}");
    assert!(zeros > 120 && ones > 120, "biased histogram: {text}");
    std::fs::remove_file(file).ok();
}

#[test]
fn simulate_writes_artifacts() {
    let file = bell_qasm();
    let svg = std::env::temp_dir().join(format!("qdd_cli_{}.svg", std::process::id()));
    let html = std::env::temp_dir().join(format!("qdd_cli_{}.html", std::process::id()));
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
        "--html",
        html.to_str().unwrap(),
        "--style",
        "colored",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    assert!(std::fs::read_to_string(&html).unwrap().starts_with("<!DOCTYPE html>"));
    std::fs::remove_file(file).ok();
    std::fs::remove_file(svg).ok();
    std::fs::remove_file(html).ok();
}

/// `--html` resolves its dialogs with the simulator's own draw from
/// `--seed`, so the explorer's collapse frame shows the bit the command
/// prints — also after a collapse whose outcome is certain, which draws
/// like any other.
#[test]
fn simulate_html_frames_follow_the_printed_run() {
    let cases = [
        (
            "reset_first",
            "qreg q[1];\ncreg c[1];\nreset q[0];\nh q[0];\nmeasure q[0] -> c[0];\n",
            1..=20u64,
        ),
        (
            "measured_one",
            "qreg q[2];\ncreg c[2];\nx q[0];\nmeasure q[0] -> c[0];\nh q[1];\n\
             measure q[1] -> c[1];\n",
            1..=8,
        ),
    ];
    for (name, body, seeds) in cases {
        let file = temp_file(
            &format!("{name}.qasm"),
            &format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n{body}"),
        );
        let html = std::env::temp_dir().join(format!("qdd_cli_{}_{name}.html", std::process::id()));
        for seed in seeds {
            let seed = seed.to_string();
            let out = qdd(&[
                "simulate",
                file.to_str().unwrap(),
                "--seed",
                &seed,
                "--html",
                html.to_str().unwrap(),
            ]);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8_lossy(&out.stdout);
            // The one dialog measures the last bit, which is printed first.
            let printed = text
                .lines()
                .find_map(|l| l.strip_prefix("classical bits: "))
                .and_then(|bits| bits.chars().next())
                .unwrap_or_else(|| panic!("no classical bits: {text}"));
            let page = std::fs::read_to_string(&html).unwrap();
            let shown: Vec<char> = page
                .match_indices("collapsed to |")
                .filter_map(|(at, m)| page[at + m.len()..].chars().next())
                .collect();
            assert_eq!(shown, [printed], "{name}, seed {seed}: {text}");
        }
        std::fs::remove_file(file).ok();
        std::fs::remove_file(html).ok();
    }
}

#[test]
fn verify_equivalent_exits_zero() {
    let a = temp_file("va.qasm", "OPENQASM 2.0; qreg q[1]; h q[0]; h q[0];");
    let b = temp_file("vb.qasm", "OPENQASM 2.0; qreg q[1]; id q[0];");
    let out = qdd(&["verify", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("equivalent"));
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn verify_inequivalent_exits_nonzero_with_witness() {
    let a = temp_file("wa.qasm", "OPENQASM 2.0; qreg q[1]; x q[0];");
    let b = temp_file("wb.qasm", "OPENQASM 2.0; qreg q[1]; h q[0];");
    let out = qdd(&["verify", a.to_str().unwrap(), b.to_str().unwrap(), "--stimuli", "4"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("NOT equivalent"));
    assert!(text.contains("counterexample"));
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn render_matrix_dot_and_json() {
    let file = temp_file("r.qasm", "OPENQASM 2.0; qreg q[2]; h q[1]; cx q[1],q[0];");
    for ext in ["dot", "json", "html", "svg"] {
        let out_path = std::env::temp_dir().join(format!(
            "qdd_cli_render_{}.{ext}",
            std::process::id()
        ));
        let out = qdd(&[
            "render",
            file.to_str().unwrap(),
            "--matrix",
            "-o",
            out_path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{ext}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(out_path.exists());
        std::fs::remove_file(out_path).ok();
    }
    std::fs::remove_file(file).ok();
}

#[test]
fn render_rejects_unknown_extension() {
    let file = bell_qasm();
    let out = qdd(&["render", file.to_str().unwrap(), "-o", "/tmp/x.png"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported output extension"));
    std::fs::remove_file(file).ok();
}

#[test]
fn circuit_ascii_art_and_optimize() {
    let file = temp_file(
        "opt.qasm",
        "OPENQASM 2.0; qreg q[2]; h q[0]; h q[0]; t q[1]; t q[1]; cx q[0],q[1];",
    );
    let out = qdd(&["circuit", file.to_str().unwrap(), "--optimize"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimizer: removed"));
    assert!(text.contains("q1:"));
    assert!(text.contains("[s]"), "T·T merged into S: {text}");
    std::fs::remove_file(file).ok();
}

/// Entangling ry/cx layers with incommensurate angles — the adversarial
/// workload for a node budget (mirrors the robustness suite's generator).
fn adversarial_qasm(n: usize, layers: usize) -> String {
    let mut s = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    for layer in 0..layers {
        for q in 0..n {
            let theta = 0.37 + 0.11 * (layer * n + q) as f64;
            s.push_str(&format!("ry({theta}) q[{q}];\n"));
        }
        for q in 0..n - 1 {
            s.push_str(&format!("cx q[{q}],q[{}];\n", q + 1));
        }
    }
    s
}

/// `--node-limit` bounds the stimuli as it bounds the check, and the
/// stimuli run on the checker's package, so `--metrics-out` counts them.
#[test]
fn verify_budgets_and_stats_cover_the_stimuli() {
    let file = temp_file("stimuli.qasm", &adversarial_qasm(10, 4));
    let path = file.to_str().unwrap();
    let out = qdd(&["verify", path, path, "--node-limit", "300", "--stimuli", "1"]);
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));

    let metrics = temp_path("stimuli.json");
    let out = qdd(&[
        "verify", path, path, "--stimuli", "4", "--metrics-out", metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = read_json(&metrics);
    let gauge = |name: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(JsonValue::as_f64)
    };
    let applied = doc
        .get("spans")
        .and_then(|s| s.get("core.apply_gate"))
        .and_then(|s| s.get("count"))
        .and_then(JsonValue::as_u64);
    // 76 gates a side: the check looks each up once, the stimuli once per
    // input and side.
    assert_eq!(applied, Some(4 * 2 * 76));
    assert_eq!(gauge("core.gate_cache.lookups"), Some((2 * 76 + 4 * 2 * 76) as f64));
    std::fs::remove_file(file).ok();
}

#[test]
fn simulate_exits_four_when_approximated() {
    let file = temp_file("approx.qasm", &adversarial_qasm(8, 3));
    let metrics = temp_path("approx.json");
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--node-limit",
        "160",
        "--min-fidelity",
        "0.5",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "approximate completion must exit 4\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("approximated in"), "{text}");
    // The metrics snapshot carries the bound, which must sit in [0.5, 1),
    // and the rounds.
    let doc = read_json(&metrics);
    let metric = |section: &str, name: &str| doc.get(section).and_then(|m| m.get(name));
    let bound = metric("gauges", "approx.fidelity_lower_bound")
        .and_then(JsonValue::as_f64)
        .expect("approx.fidelity_lower_bound gauge");
    assert!((0.5..1.0).contains(&bound), "bound {bound} out of range");
    let rounds = metric("counters", "approx.rounds").and_then(JsonValue::as_u64);
    assert!(rounds > Some(0), "approx.rounds {rounds:?}");
    std::fs::remove_file(file).ok();
}

/// `--stats` is the text form of the snapshot `--metrics-out` writes, for
/// the whole command: every counter, gauge, histogram and span of the file
/// appears in the report with the same value (durations as the phase table
/// formats them).
#[test]
fn stats_text_reports_the_metrics_out_snapshot() {
    let circuit = concat!(env!("CARGO_MANIFEST_DIR"), "/../../circuits/qft16.qasm");
    let metrics = temp_path("parity.json");
    let out = qdd(&[
        "simulate",
        circuit,
        "--shots",
        "64",
        "--stats",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // The report's rows, keyed by section header and metric name.
    let mut rows = std::collections::HashMap::new();
    let mut section = "";
    for line in text.lines() {
        if let Some(row) = line.strip_prefix("  ") {
            let cells: Vec<_> = row.split_whitespace().map(str::to_string).collect();
            rows.insert(format!("{section} {}", cells[0]), cells[1..].to_vec());
        } else {
            section = line.split_whitespace().next().unwrap_or_default();
        }
    }
    let row = |section: &str, name: &str| {
        rows.get(&format!("{section} {name}"))
            .cloned()
            .unwrap_or_else(|| panic!("`--stats` has no {section} row {name}:\n{text}"))
    };
    let doc = read_json(&metrics);
    let members = |key: &str| match doc.get(key) {
        Some(JsonValue::Object(m)) => m.clone(),
        other => panic!("`{key}` is not an object: {other:?}"),
    };
    let int = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap();
    let counters = members("counters");
    assert!(counters.iter().any(|(name, _)| name == "shots.sampled"), "the shot job is reported");
    for (name, v) in &counters {
        assert_eq!(row("counters:", name), &[v.as_u64().unwrap().to_string()], "{name}");
    }
    let gauges = members("gauges");
    for (name, v) in &gauges {
        let shown: f64 = row("gauges:", name)[0].parse().unwrap();
        assert_eq!(Some(shown), v.as_f64(), "{name}");
    }
    // The figures the hand-written report used to print stay in the snapshot.
    for name in [
        "core.nodes.vec_alive",
        "core.nodes.mat_alive",
        "core.nodes.peak_live",
        "core.compute.lookups",
        "core.table.mat_vec.lookups",
        "core.table.mat_vec.dropped",
        "core.gate_cache.lookups",
        "core.gate_cache.hits",
        "core.complex.entries",
        "core.complex.lookups",
        "core.complex.front_hits",
    ] {
        assert!(gauges.iter().any(|(n, _)| n == name), "no gauge {name}");
    }
    for (name, h) in &members("histograms") {
        let expected = ["count", "min", "max"].map(|key| int(h, key).to_string());
        assert_eq!(row("histograms:", name), &expected, "{name}");
    }
    let spans = members("spans");
    assert!(spans.iter().any(|(name, _)| name == "sim.run"), "{spans:?}");
    for (name, s) in &spans {
        let cells = row("phases:", name);
        let fmt_ns = qdd_telemetry::sink::fmt_ns;
        assert_eq!(cells[0], int(s, "count").to_string(), "{name}");
        assert_eq!(cells[1], fmt_ns(int(s, "total_ns")), "{name}");
        assert_eq!(cells[3], fmt_ns(int(s, "max_ns")), "{name}");
    }
}

/// `--stats` replaced `--stats-json` and `--profile`.
#[test]
fn removed_report_flags_are_unknown_options() {
    let file = bell_qasm();
    let f = file.to_str().unwrap();
    for argv in [
        vec!["simulate", f, "--stats-json"],
        vec!["simulate", f, "--profile"],
        vec!["verify", f, f, "--profile"],
    ] {
        let out = qdd(&argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?}");
        let flag = argv.last().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{argv:?}: {err}");
    }
    std::fs::remove_file(file).ok();
}

/// The 2-thread mid-circuit shot run, recorded to a trace and a metrics
/// snapshot: `(trace, metrics)`.
fn record_lanes(name: &str) -> (PathBuf, PathBuf) {
    let file = temp_file(
        &format!("{name}.qasm"),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\nmeasure q[0] -> c[0];\nif (c==1) x q[1];\nh q[1];\nmeasure q[1] -> c[1];\n",
    );
    let trace = temp_path(&format!("{name}.json"));
    let metrics = temp_path(&format!("{name}-metrics.json"));
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--shots",
        "2000",
        "--threads",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    std::fs::remove_file(file).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 threads"));
    (trace, metrics)
}

/// A multi-threaded shot run reports one set of statistics: its metrics
/// and trace count the same `sim.run` spans, every worker that executed a
/// shot has a named trace lane, only lanes with events are named, and all
/// threads stamp events on one clock.
#[test]
fn chrome_trace_names_only_lanes_with_events() {
    let (trace, metrics) = record_lanes("lanes");
    let doc = read_json(&trace);
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    let str_of =
        |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_string);
    let num = |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_u64);
    let is = |e: &JsonValue, name: &str| str_of(e, "name").as_deref() == Some(name);
    let recorded: Vec<&JsonValue> = events
        .iter()
        .filter(|e| str_of(e, "ph").as_deref() != Some("M"))
        .collect();
    let lanes: Vec<_> = events
        .iter()
        .filter(|e| is(e, "thread_name"))
        .map(|e| num(e, "tid"))
        .collect();
    assert!(!lanes.is_empty(), "the coordinator's lane is named");
    for lane in lanes {
        assert!(
            recorded.iter().any(|e| num(e, "tid") == lane),
            "lane {lane:?} is named but carries no event"
        );
    }

    // One count of sim.run spans in both files.
    let trace_runs = recorded.iter().filter(|e| is(e, "sim.run")).count() as u64;
    let metrics_doc = read_json(&metrics);
    let metric_runs = metrics_doc
        .get("spans")
        .and_then(|s| s.get("sim.run"))
        .and_then(|s| num(s, "count"))
        .unwrap();
    assert!(trace_runs > 1, "worker runs reach the trace");
    assert_eq!(trace_runs, metric_runs);

    // A worker with shots executed its first one: its lane (tid w + 2)
    // carries its runs and is named.
    let workers: Vec<_> = recorded
        .iter()
        .filter(|e| is(e, "shots.worker"))
        .map(|e| {
            let args = e.get("args").unwrap();
            (num(args, "worker").unwrap(), num(args, "shots").unwrap())
        })
        .collect();
    assert_eq!(workers.len(), 2);
    for (worker, shots) in workers {
        assert!(shots > 0);
        let tid = Some(worker + 2);
        assert!(
            recorded
                .iter()
                .any(|e| is(e, "sim.run") && num(e, "tid") == tid),
            "worker {worker} has no lane"
        );
        assert!(events
            .iter()
            .any(|e| is(e, "thread_name") && num(e, "tid") == tid));
    }

    // One clock: every worker event falls inside the coordinator's
    // shots.engine span, within a microsecond of rounding.
    let engine = recorded.iter().find(|e| is(e, "shots.engine")).unwrap();
    let (start, dur) = (num(engine, "ts").unwrap(), num(engine, "dur").unwrap());
    for e in recorded.iter().filter(|e| num(e, "tid") != Some(1)) {
        let ts = num(e, "ts").unwrap();
        assert!(
            start.saturating_sub(1) <= ts && ts <= start + dur + 1,
            "worker event at {ts} outside shots.engine [{start}, {}]: {e:?}",
            start + dur
        );
    }
}

/// Runs `qdd inspect` on `trace`, which it then deletes: the command's
/// output and the report it wrote.
fn inspect(trace: &PathBuf) -> (Output, String) {
    let report = trace.with_extension("html");
    let out = qdd(&[
        "inspect",
        trace.to_str().unwrap(),
        "-o",
        report.to_str().unwrap(),
    ]);
    std::fs::remove_file(trace).ok();
    let html = std::fs::read_to_string(&report).unwrap_or_default();
    std::fs::remove_file(&report).ok();
    (out, html)
}

/// `qdd inspect` of the 2-thread run draws each worker's spans in a band
/// of its own: no two workers' spans share a row.
#[test]
fn inspect_gives_each_worker_its_own_flamegraph_band() {
    let (trace, metrics) = record_lanes("bands");
    std::fs::remove_file(metrics).ok();
    let (out, html) = inspect(&trace);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        html.contains("on 3 worker(s)"),
        "coordinator and two workers"
    );
    // A span's row is its `top`; its tooltip names its worker.
    let mut rows = std::collections::BTreeMap::new();
    for tag in html.split("<div class=\"span\" ").skip(1) {
        let field = |from, to| tag.split(from).nth(1).unwrap().split(to).next().unwrap();
        let worker = field(", worker ", ")");
        let first = *rows.entry(field("top:", "px")).or_insert(worker);
        assert_eq!(first, worker, "two workers share a row");
    }
    assert!(rows.len() >= 3, "{rows:?}");
}

/// A `qdd verify` trace has spans and no `sim.op` events: its report is
/// the span tree alone. Its header names both circuits.
#[test]
fn inspect_renders_a_verify_trace_as_spans_only() {
    let (file, trace) = (bell_qasm(), temp_path("verify-trace.json"));
    let f = file.to_str().unwrap();
    let out = qdd(&["verify", f, f, "--trace-out", trace.to_str().unwrap()]);
    std::fs::remove_file(&file).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse_json(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let header = doc.get("otherData").expect("otherData header");
    let circuit = header.get("circuit").and_then(JsonValue::as_str).unwrap();
    assert!(circuit.contains(" vs "), "{circuit:?}");
    assert_eq!(header.get("qubits").and_then(JsonValue::as_u64), Some(2));
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    let named = |kind: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some(kind))
    };
    assert!(named("process_name") && named("thread_name"));
    let (out, html) = inspect(&trace);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(": 0 ops, 0 snapshots, "), "{stdout}");
    assert!(html.contains("No op records") && html.contains("No snapshots"));
    assert!(html.contains("core.mat_mat"), "the span tree is drawn");
}

/// Snapshot graphs the renderers cannot draw are refused with a typed
/// error naming the event and the member: exit 1, not a panic.
#[test]
fn inspect_refuses_inconsistent_snapshot_graphs() {
    let one = "\"nodes\":[{\"key\":1,\"var\":0}]";
    let w = "\"weight\":{\"re\":1,\"im\":0}";
    for (graph, why) in [
        (
            format!("\"root\":1,{one},\"edges\":[{{\"from\":1,\"to\":5,{w}}}]"),
            "edge \"to\" 5",
        ),
        (
            format!("\"root\":1,{one},\"edges\":[{{\"from\":7,\"to\":1,{w}}}]"),
            "edge \"from\" 7",
        ),
        ("\"root\":9".to_string(), "\"root\" 9"),
        (
            "\"nodes\":[{\"key\":1,\"var\":200}]".to_string(),
            "node 1 has \"var\" 200",
        ),
    ] {
        let trace = temp_file(
            "bad-graph.json",
            &format!(
                "{{\"traceEvents\":[{{\"name\":\"sim.op\",\"ph\":\"i\",\"ts\":1,\"tid\":1,\
                 \"args\":{{\"op_index\":0,\"snapshot\":{{\"kind\":\"vector\",\"numLevels\":1,\
                 \"rootWeight\":{{\"re\":1,\"im\":0}},{graph}}}}}}}]}}"
            ),
        );
        let (out, _) = inspect(&trace);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{why}: {err}");
        let at = "traceEvents[0] (sim.op): args.snapshot: graph:";
        assert!(err.contains(&format!("{at} {why}")), "{err}");
    }
}

#[test]
fn simulate_prints_degradation_trail_on_exhaustion() {
    let file = temp_file("exhaust.qasm", &adversarial_qasm(26, 3));
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--node-limit",
        "10000",
    ]);
    assert_eq!(out.status.code(), Some(3), "resource exhaustion must exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degradation ladder exhausted"), "{err}");
    // Two rungs: pressure GC, then approximation, which has no floor here.
    assert!(err.contains("  1. pressure GC: "), "{err}");
    assert!(
        err.contains("  2. approximation: skipped (no --min-fidelity)"),
        "{err}"
    );
    assert!(!err.contains("  3. "), "{err}");
    // The typed error names the budget that tripped and its limit.
    assert!(err.contains("max_nodes = 10000"), "{err}");
    std::fs::remove_file(file).ok();
}

/// Basis indices and register values are `u64`s: wider registers are
/// refused at the line that declares them, before anything is allocated.
#[test]
fn registers_past_64_bits_exit_one_naming_the_cap() {
    for (name, text, line) in [
        ("wide.qasm", "OPENQASM 2.0;\nqreg q[65];\n", 2),
        ("bits.qasm", "OPENQASM 2.0;\nqreg q[1];\ncreg c[65];\n", 3),
        ("wide.real", ".version 2.0\n.numvars 65\n.begin\n.end\n", 2),
        ("huge.real", ".numvars 100000000000\n.begin\n.end\n", 1),
    ] {
        let file = temp_file(name, text);
        let out = qdd(&["simulate", file.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(&format!("line {line}: ")), "{name}: {err}");
        assert!(err.contains("maximum of 64"), "{name}: {err}");
        std::fs::remove_file(file).ok();
    }
}

#[test]
fn real_files_load() {
    let file = temp_file("t.real", ".numvars 2\n.begin\nt1 x1\nt2 x1 x2\n.end\n");
    let out = qdd(&["simulate", file.to_str().unwrap(), "--state"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("|11⟩"));
    std::fs::remove_file(file).ok();
}
