//! The `simulate` workload: one client thread calls `shots::run` with one
//! engine thread on each job — `qdd simulate --shots` minus process start.

use crate::gen::{self, Oracle};
use crate::pass::{
    add_span_totals, begin_job_scope, end_job_scope, CoreCounts, Pass, SetupSchedule,
};
use crate::stats::{median, peak_rss_mb};
use qdd_circuit::{qasm, MeasurementRegime, QuantumCircuit};
use qdd_core::fnv1a_64;
use qdd_sim::{shots, DenseSimulator, ShotOptions, ShotReport};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Set-up repetitions per untraced pass, spread over the timed loop;
/// `setup_s` is their median.
const SETUP_REPS: usize = 16;
/// Largest reference circuit checked against the dense simulator.
const DENSE_CHECK_QUBITS: usize = 12;

/// What the checks need from a job's report, kept instead of the histogram.
struct Answer {
    shots: u64,
    outcomes: Vec<u64>,
    digest: u64,
}

fn answer(report: &ShotReport) -> Answer {
    Answer {
        shots: report.histogram.values().sum(),
        outcomes: report.histogram.keys().copied().collect(),
        digest: fnv1a_64(report.histogram_lines().join("\n").as_bytes()),
    }
}

fn options(job: &gen::SimJob) -> ShotOptions {
    ShotOptions {
        threads: 1,
        ..ShotOptions::new(job.shots, job.seed)
    }
}

/// The classical outcomes `oracle` gives nonzero probability.
fn dense_support(oracle: &Oracle) -> Option<BTreeSet<u64>> {
    let mut dense = DenseSimulator::new(oracle.reference.num_qubits(), 0).ok()?;
    dense.run(&oracle.reference).ok()?;
    Some(
        dense
            .state()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.norm_sqr() > 1e-12)
            .map(|(b, _)| {
                oracle
                    .measured
                    .iter()
                    .map(|&(q, bit)| ((b as u64 >> q) & 1) << bit)
                    .sum()
            })
            .collect(),
    )
}

/// Runs the first `limit` of `count` seeded jobs. `plant` corrupts one
/// expected answer (the benchmark's own self-test).
pub fn run(seed: u64, count: usize, limit: usize, trace: bool, plant: bool) -> Pass {
    let mut jobs = gen::simulate_jobs(seed, count);
    jobs.truncate(limit);
    let mut pass = Pass::new(trace);
    pass.attempted = jobs.len();

    let mut circuits: Vec<Option<QuantumCircuit>> = Vec::new();
    let mut setup = SetupSchedule::new(if trace { 1 } else { SETUP_REPS }, jobs.len());
    let mut off_clock = Duration::ZERO;
    let mut answers: Vec<Option<Answer>> = Vec::with_capacity(jobs.len());
    let mut totals = CoreCounts::default();
    let (mut terminal_ms, mut mid_us, mut mid_shots) = (Vec::new(), 0.0, 0u64);
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        while setup.due(i) {
            off_clock += pass.set_up(
                &jobs,
                &mut circuits,
                |j| qasm::parse(&j.qasm).ok(),
                |j| &j.family,
            );
        }
        let Some(circuit) = &circuits[i] else {
            answers.push(None);
            if trace {
                pass.counts.push(CoreCounts::default());
            }
            continue;
        };
        if trace {
            begin_job_scope();
        }
        let s = Instant::now();
        let result = shots::run(circuit, &options(job));
        let e = Instant::now();
        pass.tracer
            .record("sim.shots_run", i, None, &job.family, s, e);
        let ms = (e - s).as_secs_f64() * 1e3;
        let report = match result {
            Ok(report) => report,
            Err(err) => {
                answers.push(None);
                if trace {
                    end_job_scope();
                    pass.counts.push(CoreCounts::default());
                }
                pass.fail(i, err);
                continue;
            }
        };
        pass.latencies_ms.push(ms);
        if trace {
            let snap = end_job_scope();
            add_span_totals(&mut pass.layers, &snap);
            let counts = CoreCounts {
                gate_cache_lookups: report.gate_cache_lookups,
                gate_cache_hits: report.gate_cache_hits,
                ..CoreCounts::from_gauges(&snap)
            };
            totals.add(&counts);
            pass.counts.push(counts);
            if report.regime == MeasurementRegime::MidCircuit {
                mid_us += ms * 1e3;
                mid_shots += report.shots;
            } else {
                terminal_ms.push(ms);
            }
        }
        answers.push(Some(answer(&report)));
    }
    pass.wall_s = (start.elapsed() - off_clock).as_secs_f64();
    pass.peak_rss_mb = peak_rss_mb();

    for (i, ((job, circuit), got)) in jobs.iter().zip(&circuits).zip(&answers).enumerate() {
        let (Some(circuit), Some(got)) = (circuit, got) else {
            pass.fail(i, "QASM did not parse or the job errored");
            continue;
        };
        let expected_shots = job.shots + u64::from(plant && i == 0);
        if got.shots != expected_shots {
            pass.fail(
                i,
                format!(
                    "histogram holds {} shots, asked {expected_shots}",
                    got.shots
                ),
            );
            continue;
        }
        if job.oracle.reference.num_qubits() <= DENSE_CHECK_QUBITS {
            match dense_support(&job.oracle) {
                Some(support) => {
                    if let Some(o) = got.outcomes.iter().find(|o| !support.contains(o)) {
                        pass.fail(i, format!("outcome {o} has zero probability"));
                        continue;
                    }
                }
                None => {
                    pass.fail(i, "dense reference simulation failed");
                    continue;
                }
            }
        }
        if job.midcircuit {
            let rerun = shots::run(circuit, &options(job)).map(|r| answer(&r).digest);
            if rerun.ok() != Some(got.digest) {
                pass.fail(
                    i,
                    "mid-circuit re-run at the same seed drew another histogram",
                );
            }
        }
    }

    if trace {
        totals.write(&mut pass.layers);
        pass.layers
            .insert("circuit.parse_ms", pass.tracer.total_ms("circuit.parse"));
        pass.layers
            .insert("sim.terminal_job_ms", median(&terminal_ms));
        let per_shot = if mid_shots == 0 {
            0.0
        } else {
            mid_us / mid_shots as f64
        };
        pass.layers.insert("sim.midcircuit_shot_us", per_shot);
    }
    pass
}
