//! Verification verdicts and reports.

use std::fmt;
use std::str::FromStr;

/// How the alternating product is scheduled (paper ref \[20\]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Build both full system matrices, compare the canonical root edges
    /// (Example 10/11).
    Construction,
    /// Alternate strictly one gate from each circuit.
    OneToOne,
    /// Keep the applied-gate counts proportional to the circuit lengths —
    /// the natural choice when one circuit is a compiled (longer) version
    /// of the other, and the default.
    #[default]
    Proportional,
    /// One gate from the left circuit, then right-circuit gates up to the
    /// next barrier — Example 12's schedule for Fig. 5(b)'s barriers.
    BarrierGuided,
    /// Greedy: apply whichever side currently yields the smaller diagram.
    Lookahead,
}

impl Strategy {
    /// Every strategy, in the order the CLI and the daemon list them.
    pub const ALL: [Strategy; 5] = [
        Strategy::Construction,
        Strategy::OneToOne,
        Strategy::Proportional,
        Strategy::BarrierGuided,
        Strategy::Lookahead,
    ];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Strategy::Construction => "construction",
            Strategy::OneToOne => "one-to-one",
            Strategy::Proportional => "proportional",
            Strategy::BarrierGuided => "barrier-guided",
            Strategy::Lookahead => "lookahead",
        };
        write!(f, "{name}")
    }
}

/// Parses the names [`Display`](fmt::Display) prints. An unknown name is
/// an error message listing all five.
impl FromStr for Strategy {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Strategy::ALL
            .into_iter()
            .find(|s| s.to_string() == name)
            .ok_or_else(|| {
                format!(
                    "unknown strategy `{name}` (expected construction, one-to-one, \
                     proportional, barrier-guided, or lookahead)"
                )
            })
    }
}

/// The verdict of an equivalence check.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Equivalence {
    /// The system matrices are identical.
    Equivalent,
    /// Identical up to a global phase `e^{iθ}` (observationally
    /// indistinguishable).
    EquivalentUpToGlobalPhase {
        /// The phase angle θ.
        phase: f64,
    },
    /// The circuits differ; see
    /// [`EquivalenceReport::counterexample`].
    NotEquivalent,
}

impl Equivalence {
    /// `true` for both flavours of equivalence.
    pub fn is_equivalent(self) -> bool {
        !matches!(self, Equivalence::NotEquivalent)
    }
}

/// A matrix entry witnessing non-equivalence: `M[row][col]` of the final
/// product deviates from the identity.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Row (output basis state).
    pub row: u64,
    /// Column (input basis state).
    pub col: u64,
}

/// Full record of one equivalence check.
#[derive(Clone, Debug, PartialEq)]
pub struct EquivalenceReport {
    /// The verdict.
    pub result: Equivalence,
    /// The schedule used.
    pub strategy: Strategy,
    /// Node count of the working diagram after every multiplication.
    pub nodes_per_step: Vec<usize>,
    /// Peak node count over the whole check (the paper's Example 12
    /// metric: ≤ 9 for the QFT pair vs 21 for full construction).
    pub peak_nodes: usize,
    /// Primitive gates applied from the left circuit.
    pub applied_left: usize,
    /// Primitive gates applied from the right circuit.
    pub applied_right: usize,
    /// For [`Equivalence::NotEquivalent`]: a deviating matrix entry.
    pub counterexample: Option<Counterexample>,
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.result {
            Equivalence::Equivalent => "equivalent".to_string(),
            Equivalence::EquivalentUpToGlobalPhase { phase } => {
                format!("equivalent up to global phase {phase:.4}")
            }
            Equivalence::NotEquivalent => "NOT equivalent".to_string(),
        };
        write!(
            f,
            "{verdict} [{} strategy, peak {} nodes, {}+{} gates applied]",
            self.strategy, self.peak_nodes, self.applied_left, self.applied_right
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_classification() {
        assert!(Equivalence::Equivalent.is_equivalent());
        assert!(Equivalence::EquivalentUpToGlobalPhase { phase: 0.3 }.is_equivalent());
        assert!(!Equivalence::NotEquivalent.is_equivalent());
    }

    #[test]
    fn strategy_names_round_trip() {
        for (strategy, name) in Strategy::ALL.into_iter().zip([
            "construction",
            "one-to-one",
            "proportional",
            "barrier-guided",
            "lookahead",
        ]) {
            assert_eq!(strategy.to_string(), name);
            assert_eq!(name.parse::<Strategy>(), Ok(strategy));
        }
        let err = "psychic".parse::<Strategy>().unwrap_err();
        assert!(err.contains("`psychic`"), "{err}");
        for s in Strategy::ALL {
            assert!(err.contains(&s.to_string()), "{err} omits {s}");
        }
        assert_eq!(Strategy::default(), Strategy::Proportional);
    }

    #[test]
    fn report_display_mentions_peaks() {
        let r = EquivalenceReport {
            result: Equivalence::Equivalent,
            strategy: Strategy::Proportional,
            nodes_per_step: vec![1, 2, 3],
            peak_nodes: 9,
            applied_left: 7,
            applied_right: 21,
            counterexample: None,
        };
        let s = r.to_string();
        assert!(s.contains("peak 9 nodes"));
        assert!(s.contains("7+21"));
    }
}
