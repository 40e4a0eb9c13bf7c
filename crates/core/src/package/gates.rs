//! Operator constructors: identity chains, (multi-)controlled gate DDs and
//! the gate-DD cache, and dense-matrix import.

use crate::error::DdError;
use crate::gates::{self, Control, GateMatrix, Polarity};
use crate::package::DdPackage;
use crate::types::{MatEdge, Qubit};
use crate::MAX_QUBITS;
use qdd_complex::Complex;

/// Exact identity of a constructed gate operator, used as the gate-DD cache
/// key: the matrix entries by bit pattern (no tolerance — a near-miss just
/// misses the cache), the control set in canonical order, and the placement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct GateKey {
    /// `(re, im)` bit patterns of `[u₀₀, u₀₁, u₁₀, u₁₁]`.
    u_bits: [(u64, u64); 4],
    /// Controls sorted by qubit (callers pass them in arbitrary order).
    controls: Vec<Control>,
    target: u8,
    n: u8,
}

impl GateKey {
    fn new(u: &GateMatrix, controls: &[Control], target: usize, n: usize) -> Self {
        let mut sorted: Vec<Control> = controls.to_vec();
        sorted.sort_unstable();
        let mut u_bits = [(0u64, 0u64); 4];
        for (b, slot) in u_bits.iter_mut().enumerate() {
            let v = u[b >> 1][b & 1];
            *slot = (v.re.to_bits(), v.im.to_bits());
        }
        GateKey {
            u_bits,
            controls: sorted,
            target: target as u8,
            n: n as u8,
        }
    }
}

/// Entry bound of the gate-DD cache; reaching it flushes the map (circuits
/// rarely use more than a few hundred distinct gate placements, so a flush
/// here signals parameterized-gate churn, not working-set pressure).
const GATE_CACHE_CAP: usize = 1 << 12;

impl DdPackage {
    /// The identity operator on `n` qubits: the terminal unit edge.
    /// Identity levels are never materialized, so the diagram has zero
    /// nodes regardless of `n`.
    ///
    /// # Errors
    ///
    /// [`DdError::QubitCountOutOfRange`] if `n` is invalid.
    pub fn identity(&mut self, n: usize) -> Result<MatEdge, DdError> {
        Self::check_qubits(n)?;
        Ok(MatEdge::ONE)
    }

    /// Builds the `2ⁿ×2ⁿ` operator DD of a (multi-)controlled single-qubit
    /// gate: `u` on `target`, fired by `controls` (paper Fig. 2(b)/(c)).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::QubitIndexOutOfRange`], [`DdError::ControlOnTarget`],
    /// [`DdError::DuplicateControl`], or [`DdError::NotUnitary`] for invalid
    /// inputs.
    pub fn gate_dd(
        &mut self,
        u: GateMatrix,
        controls: &[Control],
        target: usize,
        n: usize,
    ) -> Result<MatEdge, DdError> {
        let _span = qdd_telemetry::span("core.gate_dd");
        Self::check_qubits(n)?;
        if target >= n {
            return Err(DdError::QubitIndexOutOfRange {
                qubit: target,
                num_qubits: n,
            });
        }
        let mut seen = [false; MAX_QUBITS];
        for c in controls {
            if c.qubit >= n {
                return Err(DdError::QubitIndexOutOfRange {
                    qubit: c.qubit,
                    num_qubits: n,
                });
            }
            if c.qubit == target {
                return Err(DdError::ControlOnTarget { qubit: c.qubit });
            }
            if seen[c.qubit] {
                return Err(DdError::DuplicateControl { qubit: c.qubit });
            }
            seen[c.qubit] = true;
        }
        if !gates::is_unitary(&u, 1e-9) {
            return Err(DdError::NotUnitary);
        }

        // Deep circuits reuse a handful of gate placements thousands of
        // times; answering those from the gate-DD cache skips the whole
        // level-by-level rebuild below. Keys are exact bit patterns, so a
        // hit returns the identical canonical edge.
        let key = if self.config.compute_tables {
            let key = GateKey::new(&u, controls, target, n);
            self.gate_lookups += 1;
            if let Some(&e) = self.gate_cache.get(&key) {
                self.gate_hits += 1;
                return Ok(e);
            }
            Some(key)
        } else {
            None
        };

        let e = self.build_gate_dd(u, controls, target, n)?;
        if let Some(key) = key {
            if self.gate_cache.len() >= GATE_CACHE_CAP {
                self.gate_cache.clear();
            }
            self.gate_cache.insert(key, e);
            self.gate_cache_dirty = true;
        }
        Ok(e)
    }

    /// Uncached construction path of [`Self::gate_dd`] (inputs already
    /// validated).
    fn build_gate_dd(
        &mut self,
        u: GateMatrix,
        controls: &[Control],
        target: usize,
        n: usize,
    ) -> Result<MatEdge, DdError> {
        // The uncontrolled wrapping levels below collapse in
        // `make_mat_node`, and an idle identity is the terminal unit,
        // so a k-controlled gate costs O(k) nodes regardless of the
        // register width.
        let pol_at = |q: usize| controls.iter().find(|c| c.qubit == q).map(|c| c.polarity);

        // Terminal 2×2 block edges [e₀₀, e₀₁, e₁₀, e₁₁].
        let mut em = [MatEdge::ZERO; 4];
        for (b, slot) in em.iter_mut().enumerate() {
            let w = self.intern(u[b >> 1][b & 1]);
            *slot = MatEdge::terminal(w);
        }

        // Levels below the target: identity extension, or control wrapping.
        for q in 0..target {
            let pol = pol_at(q);
            #[allow(clippy::needless_range_loop)] // em[b] is rebuilt in place
            for b in 0..4 {
                let (i, j) = (b >> 1, b & 1);
                em[b] = match pol {
                    None => self
                        .make_mat_node(q as Qubit, [em[b], MatEdge::ZERO, MatEdge::ZERO, em[b]])?,
                    Some(p) => {
                        // On the non-firing branch an identity must act on
                        // the target sub-space: diagonal blocks get the
                        // identity of the processed levels, off-diagonal
                        // blocks vanish.
                        let idle = if i == j { MatEdge::ONE } else { MatEdge::ZERO };
                        let (c00, c11) = match p {
                            Polarity::Positive => (idle, em[b]),
                            Polarity::Negative => (em[b], idle),
                        };
                        self.make_mat_node(q as Qubit, [c00, MatEdge::ZERO, MatEdge::ZERO, c11])?
                    }
                };
            }
        }

        let mut e = self.make_mat_node(target as Qubit, em)?;

        // Levels above the target.
        for q in target + 1..n {
            e = match pol_at(q) {
                None => self.make_mat_node(q as Qubit, [e, MatEdge::ZERO, MatEdge::ZERO, e])?,
                Some(p) => {
                    let (c00, c11) = match p {
                        Polarity::Positive => (MatEdge::ONE, e),
                        Polarity::Negative => (e, MatEdge::ONE),
                    };
                    self.make_mat_node(q as Qubit, [c00, MatEdge::ZERO, MatEdge::ZERO, c11])?
                }
            };
        }
        Ok(e)
    }

    /// Builds a matrix DD from a dense row-major `2ⁿ×2ⁿ` matrix by
    /// recursive quadrant splitting.
    ///
    /// Mainly useful for tests and small demonstrations.
    ///
    /// # Errors
    ///
    /// [`DdError::AmplitudesNotPowerOfTwo`] when the matrix is not square
    /// with power-of-two dimension ≥ 2.
    pub fn matrix_from_dense(&mut self, rows: &[Vec<Complex>]) -> Result<MatEdge, DdError> {
        let dim = rows.len();
        if dim < 2 || !dim.is_power_of_two() || rows.iter().any(|r| r.len() != dim) {
            return Err(DdError::AmplitudesNotPowerOfTwo { len: dim });
        }
        let n = dim.trailing_zeros() as usize;
        Self::check_qubits(n)?;
        self.mat_from_region(rows, 0, 0, dim)
    }

    fn mat_from_region(
        &mut self,
        rows: &[Vec<Complex>],
        r0: usize,
        c0: usize,
        dim: usize,
    ) -> Result<MatEdge, DdError> {
        if dim == 1 {
            let w = self.intern(rows[r0][c0]);
            return Ok(MatEdge::terminal(w));
        }
        let h = dim / 2;
        let var = (dim.trailing_zeros() - 1) as Qubit;
        let e00 = self.mat_from_region(rows, r0, c0, h)?;
        let e01 = self.mat_from_region(rows, r0, c0 + h, h)?;
        let e10 = self.mat_from_region(rows, r0 + h, c0, h)?;
        let e11 = self.mat_from_region(rows, r0 + h, c0 + h, h)?;
        self.make_mat_node(var, [e00, e01, e10, e11])
    }
}

#[cfg(test)]
mod tests {
    use crate::error::DdError;
    use crate::gates::{self, Control};
    use crate::package::{DdPackage, PackageConfig};
    use qdd_complex::Complex;

    #[test]
    fn identity_is_nodeless_under_skip() {
        let mut dd = DdPackage::new();
        let id = dd.identity(5).unwrap();
        // Identity levels are never materialized: the operator is the
        // terminal unit edge at every width.
        assert_eq!(dd.mat_node_count(id), 0);
        assert!(id.is_terminal());
        assert!(dd.complex_value(id.weight).is_one(1e-12));
        assert_eq!(id, dd.identity(17).unwrap());
    }

    #[test]
    fn controlled_gate_cost_is_independent_of_register_width() {
        let mut dd = DdPackage::new();
        // CX on (control 1, target 0) embedded in ever-wider registers
        // keeps the same two nodes: the levels above the control are
        // skipped.
        let narrow = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        let wide = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 12).unwrap();
        assert_eq!(narrow, wide, "skipped levels above the control are free");
        assert_eq!(dd.mat_node_count(wide), 2);
        // A doubly-controlled gate adds exactly one node per control level.
        let ccx = dd
            .gate_dd(gates::X, &[Control::pos(4), Control::pos(9)], 0, 16)
            .unwrap();
        assert_eq!(dd.mat_node_count(ccx), 3);
    }

    #[test]
    fn hadamard_gate_dd_is_single_node() {
        let mut dd = DdPackage::new();
        let h = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
        // Fig. 2(b): one node; root weight 1/√2.
        assert_eq!(dd.mat_node_count(h), 1);
        let w = dd.complex_value(h.weight);
        assert!((w.re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn cnot_gate_dd_matches_fig_2c() {
        let mut dd = DdPackage::new();
        // Control q1 (MSB), target q0 — the paper's CNOT.
        let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
        // Fig. 2(c) draws 3 non-terminal nodes (q1 plus I and X at q0);
        // under identity skip the idle I branch is a pass-through terminal
        // edge, leaving the q1 node and the X node.
        assert_eq!(dd.mat_node_count(cx), 2);
        let root = dd.mnode(cx.node);
        assert_eq!(root.var, 1);
        assert!(root.children[1].is_zero());
        assert!(root.children[2].is_zero());
        // The non-firing branch is the skipped identity on q0.
        assert!(root.children[0].is_terminal());
        assert!(dd.complex_value(root.children[0].weight).is_one(1e-12));

        // Spelled densely, with Fig. 2(c)'s identity node on the idle
        // branch, the same CX collapses to the canonical diagram.
        let (t, z) = (crate::MatEdge::ONE, crate::MatEdge::ZERO);
        let id = dd.make_mat_node(0, [t, z, z, t]).unwrap();
        let x = dd.make_mat_node(0, [z, t, t, z]).unwrap();
        let dense = dd.make_mat_node(1, [id, z, z, x]).unwrap();
        assert_eq!(dense, cx);
        assert_eq!(dd.mat_node_count(dense), 2);
    }

    #[test]
    fn gate_dd_validation() {
        let mut dd = DdPackage::new();
        assert!(matches!(
            dd.gate_dd(gates::X, &[], 2, 2),
            Err(DdError::QubitIndexOutOfRange { .. })
        ));
        assert!(matches!(
            dd.gate_dd(gates::X, &[Control::pos(0)], 0, 2),
            Err(DdError::ControlOnTarget { qubit: 0 })
        ));
        assert!(matches!(
            dd.gate_dd(gates::X, &[Control::pos(1), Control::neg(1)], 0, 3),
            Err(DdError::DuplicateControl { qubit: 1 })
        ));
        let bad = [[Complex::ONE, Complex::ONE], [Complex::ZERO, Complex::ONE]];
        assert!(matches!(dd.gate_dd(bad, &[], 0, 1), Err(DdError::NotUnitary)));
    }

    #[test]
    fn gate_dd_cache_answers_repeat_constructions() {
        let mut dd = DdPackage::new();
        let a = dd.gate_dd(gates::H, &[], 1, 3).unwrap();
        let b = dd.gate_dd(gates::H, &[], 1, 3).unwrap();
        assert_eq!(a, b);
        let s = dd.stats();
        assert_eq!(s.gate_cache_lookups, 2);
        assert_eq!(s.gate_cache_hits, 1);
        // A different placement is a distinct key.
        let c = dd.gate_dd(gates::H, &[], 0, 3).unwrap();
        assert_ne!(a, c);
        assert_eq!(dd.stats().gate_cache_hits, 1);
    }

    #[test]
    fn gate_dd_cache_is_control_order_insensitive() {
        let mut dd = DdPackage::new();
        let a = dd
            .gate_dd(gates::X, &[Control::pos(1), Control::neg(2)], 0, 3)
            .unwrap();
        let b = dd
            .gate_dd(gates::X, &[Control::neg(2), Control::pos(1)], 0, 3)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(dd.stats().gate_cache_hits, 1);
    }

    #[test]
    fn gate_dd_cache_disabled_with_compute_tables() {
        let mut dd = DdPackage::with_config(PackageConfig {
            compute_tables: false,
            ..PackageConfig::default()
        });
        let a = dd.gate_dd(gates::H, &[], 0, 2).unwrap();
        let b = dd.gate_dd(gates::H, &[], 0, 2).unwrap();
        assert_eq!(a, b, "unique tables still canonicalize");
        assert_eq!(dd.stats().gate_cache_lookups, 0);
    }

    #[test]
    fn matrix_from_dense_round_trips_gate() {
        let mut dd = DdPackage::new();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let rows = vec![
            vec![Complex::real(h), Complex::real(h)],
            vec![Complex::real(h), Complex::real(-h)],
        ];
        let from_dense = dd.matrix_from_dense(&rows).unwrap();
        let direct = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
        assert_eq!(from_dense, direct, "canonicity: same operator, same edge");
    }

    #[test]
    fn matrix_from_dense_rejects_ragged() {
        let mut dd = DdPackage::new();
        let rows = vec![vec![Complex::ONE; 2], vec![Complex::ONE; 3]];
        assert!(dd.matrix_from_dense(&rows).is_err());
    }
}
