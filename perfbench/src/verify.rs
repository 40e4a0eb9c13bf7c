//! The `verify` workload: one client thread calls
//! `EquivalenceChecker::check` with one checker thread on each pair — the
//! paper's §III-C verification flow, with no sampling and no HTTP.

use crate::gen;
use crate::pass::{
    add_span_totals, begin_job_scope, end_job_scope, CoreCounts, Pass, SetupSchedule,
};
use crate::stats::{median, peak_rss_mb};
use qdd_circuit::{qasm, QuantumCircuit};
use qdd_verify::{EquivalenceChecker, Strategy};
use std::time::{Duration, Instant};

/// Set-up repetitions per untraced pass, spread over the timed loop;
/// `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Runs the first `limit` of `count` seeded pairs; `plant` flips one
/// expected verdict.
pub fn run(seed: u64, count: usize, limit: usize, trace: bool, plant: bool) -> Pass {
    let mut jobs = gen::verify_jobs(seed, count);
    jobs.truncate(limit);
    let mut pass = Pass::new(trace);
    pass.attempted = jobs.len();

    let mut pairs: Vec<Option<(QuantumCircuit, QuantumCircuit)>> = Vec::new();
    let mut setup = SetupSchedule::new(if trace { 1 } else { SETUP_REPS }, jobs.len());
    let mut off_clock = Duration::ZERO;
    let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(jobs.len());
    let mut totals = CoreCounts::default();
    let (mut construction_ms, mut alternating_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        while setup.due(i) {
            off_clock += pass.set_up(
                &jobs,
                &mut pairs,
                |j| qasm::parse(&j.left).ok().zip(qasm::parse(&j.right).ok()),
                |j| &j.family,
            );
        }
        let Some((left, right)) = &pairs[i] else {
            verdicts.push(None);
            if trace {
                pass.counts.push(CoreCounts::default());
            }
            continue;
        };
        if trace {
            begin_job_scope();
        }
        let s = Instant::now();
        let mut checker = EquivalenceChecker::new();
        checker.set_threads(1);
        let result = checker.check(left, right, job.strategy);
        let e = Instant::now();
        pass.tracer.record(
            "verify.check",
            i,
            None,
            &format!("{}-{}-{}", job.family, job.strategy, job.expect_equivalent),
            s,
            e,
        );
        let ms = (e - s).as_secs_f64() * 1e3;
        if trace {
            let snap = end_job_scope();
            add_span_totals(&mut pass.layers, &snap);
            let counts = CoreCounts::from_stats(&checker.package().stats());
            totals.add(&counts);
            pass.counts.push(counts);
            match job.strategy {
                Strategy::Construction => construction_ms.push(ms),
                _ => alternating_ms.push(ms),
            }
        }
        match result {
            Ok(report) => {
                pass.latencies_ms.push(ms);
                verdicts.push(Some(report.result.is_equivalent()));
            }
            Err(err) => {
                verdicts.push(None);
                pass.fail(i, err);
            }
        }
    }
    pass.wall_s = (start.elapsed() - off_clock).as_secs_f64();
    pass.peak_rss_mb = peak_rss_mb();

    for (i, (job, verdict)) in jobs.iter().zip(&verdicts).enumerate() {
        let expected = job.expect_equivalent != (plant && i == 0);
        match verdict {
            Some(v) if *v == expected => {}
            Some(v) => pass.fail(
                i,
                format!("verdict equivalent={v}, built as equivalent={expected}"),
            ),
            None => pass.fail(i, "QASM did not parse or the check errored"),
        }
    }

    if trace {
        totals.write(&mut pass.layers);
        pass.layers
            .insert("circuit.parse_ms", pass.tracer.total_ms("circuit.parse"));
        pass.layers
            .insert("verify.construction_ms", median(&construction_ms));
        pass.layers
            .insert("verify.alternating_ms", median(&alternating_ms));
    }
    pass
}
