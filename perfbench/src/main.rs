//! `qdd-perfbench`: the repository's benchmark. One command runs a named
//! workload in-process against the public APIs of the qdd crates, checks
//! every answer, and prints its metrics as one JSON object on the last line
//! of standard output.
//!
//! ```text
//! qdd-perfbench --workload <simulate|verify|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced pass.
//! `--trace 1` runs an untraced pass, then a traced pass that yields the
//! per-layer metrics, then (simulate, verify) a traced repeat of the first
//! quarter of the jobs whose exact counts must match the first traced pass.
//! The job list is a pure function of `--seed` and its length, a fixed
//! per-workload rate × `--seconds`, so a run is bounded by job count. The
//! traced pass's spans go to `perfbench/out/spans-<workload>-<seed>.jsonl`.

mod client;
mod gen;
mod pass;
mod serve;
mod simulate;
mod stats;
mod trace;
mod verify;

use pass::{Layers, Pass};
use stats::{median, nproc, quantile, tail_percentile};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The end-to-end metrics, from the untraced pass.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, from the traced pass. A metric a workload does
/// not exercise reads 0 there (see perfbench/README.md).
const PER_LAYER: [(&str, &str); 30] = [
    ("circuit.parse_ms", "ms"),
    ("core.gate_dd_ms", "ms"),
    ("core.mat_vec_ms", "ms"),
    ("core.mat_mat_ms", "ms"),
    ("core.gc_ms", "ms"),
    ("core.gc_runs", "count"),
    ("core.compute_lookups", "count"),
    ("core.compute_hits", "count"),
    ("core.compute_hit_rate", "ratio"),
    ("core.compute_evictions", "count"),
    ("core.gate_cache_lookups", "count"),
    ("core.gate_cache_hits", "count"),
    ("core.gate_cache_hit_rate", "ratio"),
    ("core.peak_live_nodes", "count"),
    ("core.mat_peak_nodes", "count"),
    ("complex.entries", "count"),
    ("sim.terminal_job_ms", "ms"),
    ("sim.midcircuit_shot_us", "us"),
    ("verify.construction_ms", "ms"),
    ("verify.alternating_ms", "ms"),
    ("serve.rtt_ms.simulate", "ms"),
    ("serve.rtt_ms.shots", "ms"),
    ("serve.rtt_ms.verify", "ms"),
    ("serve.rtt_ms.session", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.response_kb", "KB"),
    ("telemetry.overhead_pct", "%"),
    ("determinism.count_mismatches", "count"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Simulate,
    Verify,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "simulate" => Some(Workload::Simulate),
            "verify" => Some(Workload::Verify),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Simulate => "simulate",
            Workload::Verify => "verify",
            Workload::Serve => "serve",
        }
    }

    /// Jobs per requested second: sized so an untraced simulate or serve
    /// pass on a 2-core x86-64 host takes roughly `--seconds`. Verify runs
    /// about 350 jobs/s there but is held to 150, because its parsed pairs
    /// are most of its resident set (about 0.5 GB at 3000 pairs).
    fn jobs_per_second(self) -> f64 {
        match self {
            Workload::Simulate => 45.0,
            Workload::Verify => 150.0,
            Workload::Serve => 45.0,
        }
    }

    /// Client threads driving the workload.
    fn clients(self) -> usize {
        match self {
            Workload::Serve => serve::CLIENTS,
            _ => 1,
        }
    }

    fn run(self, seed: u64, count: usize, limit: usize, trace: bool, plant: bool) -> Pass {
        match self {
            Workload::Simulate => simulate::run(seed, count, limit, trace, plant),
            Workload::Verify => verify::run(seed, count, limit, trace, plant),
            Workload::Serve => serve::run(seed, count, trace, plant),
        }
    }

    /// Whether repeat traced runs must reproduce every count exactly.
    /// Serve's counts depend on how two clients interleave, so only the
    /// single-client workloads are held to it.
    fn deterministic_counts(self) -> bool {
        self != Workload::Serve
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected simulate, verify or serve"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn end_to_end(pass: &Pass) -> (Layers, String) {
    let n = pass.latencies_ms.len();
    let (tail, beyond) = tail_percentile(n);
    let mut m = Layers::new();
    m.insert("setup_s", median(&pass.setup_s));
    m.insert("jobs_per_s", n as f64 / pass.wall_s.max(1e-9));
    m.insert("job_p50_ms", median(&pass.latencies_ms));
    m.insert("job_tail_ms", quantile(&pass.latencies_ms, tail / 100.0));
    m.insert("peak_rss_mb", pass.peak_rss_mb);
    let info = format!(
        "\"job_tail_ms_percentile\":{tail},\"job_tail_ms_samples_beyond\":{beyond},\"completed_jobs\":{n},\"wall_s\":{}",
        pass.wall_s
    );
    (m, info)
}

fn metrics_json(values: &Layers, table: &[(&str, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: qdd-perfbench --workload <simulate|verify|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let count = (wl.jobs_per_second() * args.seconds).round().max(1.0) as usize;

    let plain = wl.run(args.seed, count, count, false, false);
    let mut attempted = plain.attempted;
    let mut failed = plain.failed.len();
    let (e2e, tail_info) = end_to_end(&plain);
    let metrics = if args.trace {
        let mut traced = wl.run(args.seed, count, count, true, false);
        attempted += traced.attempted;
        failed += traced.failed.len();
        let overhead = (traced.wall_s / plain.wall_s.max(1e-9) - 1.0) * 100.0;
        traced.layers.insert("telemetry.overhead_pct", overhead);
        if wl.deterministic_counts() {
            let limit = count.div_ceil(4);
            let repeat = wl.run(args.seed, count, limit, true, false);
            attempted += repeat.attempted;
            failed += repeat.failed.len();
            let mismatches = repeat
                .counts
                .iter()
                .zip(&traced.counts)
                .enumerate()
                .filter(|(i, (a, b))| {
                    let differ = a != b;
                    if differ {
                        eprintln!("perfbench: job {i}: counts differ between two traced runs at one seed: {a:?} vs {b:?}");
                    }
                    differ
                })
                .count();
            traced
                .layers
                .insert("determinism.count_mismatches", mismatches as f64);
            failed += mismatches;
        }
        let path = format!("perfbench/out/spans-{}-{}.jsonl", wl.name(), args.seed);
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, traced.tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write spans to {path}: {e}");
        }
        metrics_json(&traced.layers, &PER_LAYER)
    } else {
        metrics_json(&e2e, &END_TO_END)
    };
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"jobs\":{count},\"clients\":{},\"engine_threads\":1,\"nproc\":{},{tail_info}}}",
        wl.name(),
        args.seed,
        wl.clients(),
        nproc()
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::Workload;

    /// A tiny run of every workload passes all its answer checks, and one
    /// planted wrong expectation is counted as exactly one failed job.
    #[test]
    fn checks_pass_and_a_planted_wrong_answer_is_counted() {
        // One full stratification cycle each, so every job class runs.
        for (wl, jobs) in [
            (Workload::Simulate, 12),
            (Workload::Verify, 8),
            (Workload::Serve, 20),
        ] {
            let clean = wl.run(7, jobs, jobs, false, false);
            assert_eq!(clean.attempted, jobs, "{wl:?}");
            assert!(
                clean.failed.is_empty(),
                "{wl:?} failed jobs {:?}",
                clean.failed
            );
            let planted = wl.run(7, jobs, jobs, false, true);
            assert_eq!(
                planted.failed.len(),
                1,
                "{wl:?} must count the planted wrong answer"
            );
        }
    }

    /// A traced run repeats its exact counts on a second traced run.
    #[test]
    fn traced_counts_repeat_exactly() {
        let a = Workload::Verify.run(3, 8, 8, true, false);
        let b = Workload::Verify.run(3, 8, 4, true, false);
        assert_eq!(b.counts[..], a.counts[..4]);
        assert!(a.layers["core.compute_lookups"] > 0.0);
    }
}
