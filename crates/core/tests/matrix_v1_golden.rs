//! Backward-compatibility pin for the matrix text format: a committed
//! `qdd-matrix v1` file — written before identity-skip edges existed, so
//! its identity structure is spelled out as dense per-level nodes and its
//! child references carry no `@var` annotations — must keep loading, and
//! must load to the *same canonical diagram* the current package builds
//! natively (the dense identity chains collapse into skip edges on read).
//! The file is frozen legacy input: nothing in the workspace writes `v1`.

use qdd_core::{gates, Control, DdPackage, MatEdge};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/qft3_dense_v1.qdd")
}

/// The pinned operator: the controlled-phase core of a 3-qubit QFT — two
/// long-range controlled gates (so the dense form carries real identity
/// chains) followed by a Hadamard on the middle qubit.
fn build_operator(dd: &mut DdPackage) -> MatEdge {
    let mut u = dd.identity(3).unwrap();
    for theta in [0.5, 0.25] {
        let g = dd
            .gate_dd(gates::phase(theta), &[Control::pos(2)], 0, 3)
            .unwrap();
        u = dd.mat_mat(g, u).unwrap();
    }
    let h = dd.gate_dd(gates::H, &[], 1, 3).unwrap();
    dd.mat_mat(h, u).unwrap()
}

#[test]
fn pinned_v1_matrix_golden_still_loads() {
    let path = golden_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert!(
        text.starts_with("qdd-matrix v1\n"),
        "golden must stay a v1 file"
    );
    assert!(!text.contains('@'), "golden must stay annotation-free");

    let mut dd = DdPackage::new();
    let loaded = dd.read_matrix(text.as_bytes()).unwrap();
    let native = build_operator(&mut dd);
    // Loading collapses the file's dense identity chains, landing on the
    // exact canonical diagram of the natively built operator.
    assert_eq!(loaded, native, "v1 golden must load to the native diagram");

    let a = dd.to_dense_matrix(loaded, 3);
    let b = dd.to_dense_matrix(native, 3);
    for i in 0..8 {
        for j in 0..8 {
            assert!(a[i][j].approx_eq(b[i][j], 1e-12), "({i},{j})");
        }
    }
}
