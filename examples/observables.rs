//! Observables on decision diagrams: Pauli expectation values, Bloch
//! vectors, and reduced-state purity — quantifying the entanglement the
//! paper's Example 1 describes ("the state of the individual qubits cannot
//! be accurately described").
//!
//! Run with `cargo run --example observables`.

use qdd::circuit::library;
use qdd::core::{Pauli, PauliString};
use qdd::sim::DdSimulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A GHZ state: globally pure, locally maximally mixed.
    let n = 4;
    let mut sim = DdSimulator::with_seed(library::ghz(n), 1);
    sim.run()?;
    let state = sim.state();

    println!("GHZ({n}) correlations:");
    for s in ["ZZZZ", "XXXX", "ZZII", "IZZI", "ZIII"] {
        let p: PauliString = s.parse()?;
        let state = sim.state();
        let value = sim.package_mut().expectation_value(state, &p)?;
        println!("  ⟨{s}⟩ = {value:+.4}");
    }

    println!("\nper-qubit reduced states:");
    for q in 0..n {
        let (x, y, z) = sim.package_mut().bloch_vector(state, q)?;
        let purity = sim.package_mut().qubit_purity(state, q)?;
        println!(
            "  q{q}: bloch = ({x:+.3}, {y:+.3}, {z:+.3}), purity = {purity:.3} \
             (½ = maximally mixed)"
        );
        assert!((purity - 0.5).abs() < 1e-9, "GHZ qubits are maximally mixed");
    }

    // Contrast with a product state: unit purity, unit Bloch vectors.
    let mut product = qdd::circuit::QuantumCircuit::new(2);
    product.ry(0.8, 0).rx(1.9, 1);
    let mut sim = DdSimulator::with_seed(product, 1)
        ;
    sim.run()?;
    let state = sim.state();
    println!("\nproduct state RY(0.8) ⊗ RX(1.9):");
    for q in 0..2 {
        let (x, y, z) = sim.package_mut().bloch_vector(state, q)?;
        let purity = sim.package_mut().qubit_purity(state, q)?;
        let r = (x * x + y * y + z * z).sqrt();
        println!("  q{q}: |bloch| = {r:.6}, purity = {purity:.6}");
        assert!((purity - 1.0).abs() < 1e-9);
    }

    // Energy of a small transverse-field Ising Hamiltonian on the GHZ
    // state: H = -Σ Z_i Z_{i+1} - 0.5 Σ X_i.
    let mut sim = DdSimulator::with_seed(library::ghz(n), 1);
    sim.run()?;
    let state = sim.state();
    let mut energy = 0.0;
    for q in 0..n - 1 {
        let mut factors = vec![Pauli::I; n];
        factors[q] = Pauli::Z;
        factors[q + 1] = Pauli::Z;
        energy -= sim
            .package_mut()
            .expectation_value(state, &PauliString::new(factors))?;
    }
    for q in 0..n {
        energy -= 0.5
            * sim
                .package_mut()
                .expectation_value(state, &PauliString::single(n, q, Pauli::X))?;
    }
    println!("\nIsing energy ⟨H⟩ on GHZ({n}) = {energy:+.4} (ZZ bonds saturate at -1 each)");
    assert!((energy - (-(n as f64 - 1.0))).abs() < 1e-9);
    Ok(())
}
