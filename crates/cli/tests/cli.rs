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
    // the rounds, and no dense fallback.
    let doc = read_json(&metrics);
    let metric = |section: &str, name: &str| doc.get(section).and_then(|m| m.get(name));
    let bound = metric("gauges", "approx.fidelity_lower_bound")
        .and_then(JsonValue::as_f64)
        .expect("approx.fidelity_lower_bound gauge");
    assert!((0.5..1.0).contains(&bound), "bound {bound} out of range");
    let rounds = metric("counters", "approx.rounds").and_then(JsonValue::as_u64);
    assert!(rounds > Some(0), "approx.rounds {rounds:?}");
    assert_eq!(metric("counters", "sim.dense_fallbacks"), None);
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

/// Worker threads keep their events, so a multi-threaded shot run's Chrome
/// trace names only the lane that carries events.
#[test]
fn chrome_trace_names_only_lanes_with_events() {
    let file = temp_file(
        "lanes.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\nmeasure q[0] -> c[0];\nif (c==1) x q[1];\nh q[1];\nmeasure q[1] -> c[1];\n",
    );
    let trace = temp_path("lanes.json");
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--shots",
        "2000",
        "--threads",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 threads"));
    let doc = read_json(&trace);
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
    let str_of = |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_string);
    let tid = |e: &JsonValue| e.get("tid").and_then(JsonValue::as_u64);
    let named: Vec<_> = events
        .iter()
        .filter(|e| str_of(e, "name").as_deref() == Some("thread_name"))
        .map(tid)
        .collect();
    assert!(!named.is_empty(), "the coordinator's lane is named");
    for lane in named {
        assert!(
            events
                .iter()
                .any(|e| str_of(e, "ph").as_deref() != Some("M") && tid(e) == lane),
            "lane {lane:?} is named but carries no event"
        );
    }
    std::fs::remove_file(file).ok();
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
    assert!(err.contains("skipped (no --min-fidelity)"), "{err}");
    assert!(
        err.contains("26 qubits exceeds the 24-qubit dense cap"),
        "{err}"
    );
    // The typed error names the budget that tripped and its limit.
    assert!(err.contains("max_nodes = 10000"), "{err}");
    std::fs::remove_file(file).ok();
}

#[test]
fn real_files_load() {
    let file = temp_file("t.real", ".numvars 2\n.begin\nt1 x1\nt2 x1 x2\n.end\n");
    let out = qdd(&["simulate", file.to_str().unwrap(), "--state"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("|11⟩"));
    std::fs::remove_file(file).ok();
}
