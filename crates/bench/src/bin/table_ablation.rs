//! Experiment T-D: ablations of the design choices called out in
//! `DESIGN.md` — compute tables on/off (paper footnote 4) and the
//! complex-table interning statistics (paper ref \[14\]).

use qdd_bench::workloads::Family;
use qdd_bench::{fmt_duration, print_table};
use qdd_core::{gates, Control, DdPackage, PackageConfig};
use qdd_sim::DdSimulator;
use std::time::{Duration, Instant};

/// Median wall time of one QFT(`n`) matrix × state multiplication from
/// cleared compute tables, over `reps` repetitions: the single-operation
/// view of paper footnote 4. The state is an entangled ry/cx ladder, so the
/// product is not a basis-state shortcut.
fn isolated_mat_vec(n: usize, compute_tables: bool, reps: usize) -> Duration {
    let mut dd = DdPackage::with_config(PackageConfig {
        compute_tables,
        ..PackageConfig::default()
    });
    let (u, _) = qdd_verify::functionality(&mut dd, &qdd_circuit::library::qft(n, false))
        .expect("QFT is unitary");
    let mut s = dd.zero_state(n).expect("zero state");
    for q in 0..n {
        s = dd
            .apply_gate(s, gates::ry(0.3 + q as f64 * 0.2), &[], q)
            .expect("ry");
        if q > 0 {
            s = dd
                .apply_gate(s, gates::X, &[Control::pos(q)], q - 1)
                .expect("cx");
        }
    }
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            dd.clear_compute_tables();
            let t0 = Instant::now();
            std::hint::black_box(dd.mat_vec(u, s).expect("unlimited package"));
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[reps / 2]
}

fn main() {
    // Compute tables on/off. Without memoization the recursive operations
    // revisit shared sub-diagrams exponentially often.
    let mut rows = Vec::new();
    for family in [Family::Ghz, Family::Qft, Family::Random] {
        for n in [8usize, 12] {
            let circuit = family.circuit(n);

            let t0 = Instant::now();
            let mut on = DdSimulator::with_config(circuit.clone(), 1, PackageConfig::default());
            on.run().expect("with caches");
            let with_caches = t0.elapsed();
            let stats_on = on.package().stats();

            let t0 = Instant::now();
            let mut off = DdSimulator::with_config(
                circuit,
                1,
                PackageConfig {
                    compute_tables: false,
                    ..PackageConfig::default()
                },
            );
            off.run().expect("without caches");
            let without_caches = t0.elapsed();

            let speedup = without_caches.as_secs_f64() / with_caches.as_secs_f64().max(1e-9);
            rows.push(vec![
                family.name().to_string(),
                n.to_string(),
                fmt_duration(with_caches),
                fmt_duration(without_caches),
                format!("{speedup:.1}×"),
                format!(
                    "{:.0}%",
                    100.0 * stats_on.cache_hits as f64 / stats_on.cache_lookups.max(1) as f64
                ),
            ]);
        }
    }
    print_table(
        "T-D.1 — compute tables (paper footnote 4)",
        &["family", "n", "with caches", "without", "speedup", "hit rate"],
        &rows,
    );

    let (with_caches, without_caches) = (
        isolated_mat_vec(8, true, 11),
        isolated_mat_vec(8, false, 11),
    );
    print_table(
        "T-D.1b — one QFT(8) matrix × state mat_vec, median of 11",
        &["with caches", "without", "speedup"],
        &[vec![
            fmt_duration(with_caches),
            fmt_duration(without_caches),
            format!(
                "{:.1}×",
                without_caches.as_secs_f64() / with_caches.as_secs_f64().max(1e-9)
            ),
        ]],
    );

    // Complex-table interning pressure per workload.
    let mut rows = Vec::new();
    for family in Family::ALL {
        let n = 10;
        let mut sim = DdSimulator::with_seed(family.circuit(n), 1);
        sim.run().expect("simulation");
        let s = sim.package().stats();
        rows.push(vec![
            family.name().to_string(),
            n.to_string(),
            s.complex_entries.to_string(),
            s.vnodes_alive.to_string(),
            s.mnodes_alive.to_string(),
        ]);
    }
    print_table(
        "T-D.2 — complex-table interning (paper ref [14])",
        &["family", "n", "distinct weights", "vec nodes alive", "mat nodes alive"],
        &rows,
    );

    println!(
        "\nExpected shape: cache hit rates above ~30% and large slowdowns without\n\
         compute tables on circuits with shared structure; the distinct-weight\n\
         count stays tiny compared to node counts, which is exactly why interning\n\
         by tolerance keeps diagrams canonical at negligible cost."
    );
}
