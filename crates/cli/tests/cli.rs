//! End-to-end tests of the `qdd` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qdd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qdd"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_file(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qdd_cli_test_{}_{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
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
    let out = qdd(&[
        "simulate",
        file.to_str().unwrap(),
        "--node-limit",
        "160",
        "--min-fidelity",
        "0.5",
        "--stats-json",
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
    // The stats JSON carries the bound; it must sit in [0.5, 1).
    let json = text
        .lines()
        .find(|l| l.starts_with("{\"schema\":\"qdd-stats-v1\""))
        .expect("stats JSON line");
    let bound: f64 = json
        .split("\"fidelity_lower_bound\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|v| v.trim().parse().ok())
        .expect("fidelity_lower_bound in stats JSON");
    assert!((0.5..1.0).contains(&bound), "bound {bound} out of range");
    assert!(json.contains("\"dense_fallback\":false"), "{json}");
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
