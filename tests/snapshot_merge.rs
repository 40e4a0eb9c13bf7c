//! Algebraic properties of `Snapshot::merge`, the cross-thread aggregation
//! step behind `merged_snapshot()` and the timeline's run-level totals.
//!
//! Worker threads publish in whatever order they finish, and the
//! coordinator folds them left-to-right — so the merged result is
//! deterministic only if merge is **commutative** and **associative** over
//! every metric kind (counters, gauges and spans), with the empty snapshot
//! as the **identity**. These
//! properties are checked over randomized snapshots whose names overlap
//! (the interesting case: disjoint names trivially commute).

use proptest::prelude::*;
use qdd::telemetry::{Snapshot, SpanAgg};

/// A small name pool so generated snapshots collide on names often.
const NAMES: [&str; 5] = ["core.apply", "sim.op", "gc.runs", "shots.run", "verify.step"];

/// Sorted, deduplicated named entries — the shape `Snapshot` construction
/// guarantees and `merge` relies on.
fn named<T>(entries: Vec<(usize, T)>, fold: impl Fn(&mut T, T)) -> Vec<(String, T)> {
    let mut out: Vec<(String, T)> = Vec::new();
    for (idx, value) in entries {
        let name = NAMES[idx % NAMES.len()].to_string();
        match out.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => fold(&mut out[i].1, value),
            Err(i) => out.insert(i, (name, value)),
        }
    }
    out
}

#[allow(clippy::type_complexity)]
fn snapshot_strategy() -> impl Strategy<
    Value = (
        Vec<(usize, u64)>,
        Vec<(usize, f64)>,
        Vec<(usize, (u64, u64))>,
        u64,
    ),
> {
    (
        prop::collection::vec((0usize..5, 0u64..1_000), 0..6),
        prop::collection::vec((0usize..5, 0.0f64..100.0), 0..6),
        prop::collection::vec((0usize..5, (1u64..50, 1u64..10_000)), 0..6),
        0u64..4,
    )
}

type SnapshotSpec = (
    Vec<(usize, u64)>,
    Vec<(usize, f64)>,
    Vec<(usize, (u64, u64))>,
    u64,
);

fn build(spec: SnapshotSpec) -> Snapshot {
    let (counters, gauges, spans, dropped) = spec;
    Snapshot {
        counters: named(counters, |a, b| *a += b),
        gauges: named(gauges, |a, b| *a = a.max(b)),
        spans: named(
            spans
                .into_iter()
                .map(|(i, (count, total_ns))| {
                    (
                        i,
                        SpanAgg {
                            count,
                            total_ns,
                            max_ns: total_ns / count.max(1),
                        },
                    )
                })
                .collect(),
            |a, b| {
                a.count += b.count;
                a.total_ns += b.total_ns;
                a.max_ns = a.max_ns.max(b.max_ns);
            },
        ),
        dropped_events: dropped,
    }
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Worker publish order must not matter: `a ⊔ b == b ⊔ a`.
    #[test]
    fn merge_is_commutative(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
    ) {
        let (a, b) = (build(a), build(b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// Folding grouping must not matter: `(a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)`.
    #[test]
    fn merge_is_associative(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        let (a, b, c) = (build(a), build(b), build(c));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    /// The empty snapshot is the merge identity on both sides — a worker
    /// that recorded nothing must not perturb the merged totals.
    #[test]
    fn empty_merge_is_identity(a in snapshot_strategy()) {
        let a = build(a);
        let empty = Snapshot::default();
        prop_assert_eq!(merged(&a, &empty), a.clone());
        prop_assert_eq!(merged(&empty, &a), a);
    }
}

/// Regression pin (non-randomized): merging an empty snapshot into a fully
/// populated one — every metric kind present — changes nothing, and the
/// symmetric merge reproduces it exactly.
#[test]
fn empty_merge_identity_regression() {
    let full = Snapshot {
        counters: vec![("a".into(), 7), ("b".into(), 0)],
        gauges: vec![("g".into(), 3.5)],
        spans: vec![(
            "s".into(),
            SpanAgg {
                count: 3,
                total_ns: 900,
                max_ns: 400,
            },
        )],
        dropped_events: 2,
    };
    assert_eq!(merged(&full, &Snapshot::default()), full);
    assert_eq!(merged(&Snapshot::default(), &full), full);
}
