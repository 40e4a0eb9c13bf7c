//! Regenerates paper Fig. 4 / Example 9: the recursive decomposition of
//! matrix–vector multiplication. Traces the Bell evolution of Example 5,
//! reporting compute-table activity (the sub-computations of Fig. 4) and
//! the per-step diagram sizes.

use qdd_bench::print_table;
use qdd_core::{gates, Control, DdPackage};

fn main() {
    let mut dd = DdPackage::new();
    let mut rows = Vec::new();

    let mut state = dd.zero_state(2).expect("|00⟩");
    let mut record = |dd: &DdPackage, label: &str, state| {
        let s = dd.stats();
        rows.push(vec![
            label.to_string(),
            dd.vec_node_count(state).to_string(),
            s.cache_lookups.to_string(),
            s.cache_hits.to_string(),
            s.complex_entries.to_string(),
        ]);
    };
    record(&dd, "|00⟩", state);

    let h = dd.gate_dd(gates::H, &[], 1, 2).expect("H ⊗ I₂");
    state = dd.mat_vec(h, state).expect("(H ⊗ I₂)·|ϕ⟩");
    record(&dd, "after (H ⊗ I₂)·|ϕ⟩", state);

    let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).expect("CNOT");
    state = dd.mat_vec(cx, state).expect("CNOT·|ϕ⟩");
    record(&dd, "after CNOT·|ϕ⟩", state);

    print_table(
        "Fig. 4 — recursive multiplication trace (Example 5/9)",
        &["step", "state nodes", "cache lookups", "cache hits", "complex entries"],
        &rows,
    );

    println!("\nfinal amplitudes:");
    for (i, a) in dd.to_dense_vector(state, 2).iter().enumerate() {
        println!("  |{:02b}⟩ : {}", i, a.to_label());
    }

    // The decomposition identity of Fig. 4, demonstrated numerically:
    // (U·v)_i = U_{i0}·v_0 + U_{i1}·v_1 on the block level.
    println!("\nblock identity check (top level of CNOT · Bell-precursor):");
    let top_m = dd.mnode(cx.node);
    println!(
        "  root of U has {} non-zero blocks; recursion branches into {} sub-multiplications + additions",
        top_m.children.iter().filter(|c| !c.is_zero()).count(),
        2 * top_m.children.iter().filter(|c| !c.is_zero()).count(),
    );
}
