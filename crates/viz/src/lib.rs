//! Visualization of quantum decision diagrams — the paper's §IV.
//!
//! The reproduced paper presents an installation-free web tool that draws
//! decision diagrams and lets users explore simulation and verification
//! step by step. This crate is that tool as a library plus offline
//! artifacts:
//!
//! * [`style`] — the "classic" and "modern" looks of Fig. 7(a), explicit
//!   edge-weight labels or the label-free encoding where **line thickness
//!   carries magnitude** and **color carries phase**;
//! * [`color`] — the HLS color wheel of Fig. 7(b);
//! * [`dot`] / [`svg`] — Graphviz and standalone-SVG renderings of a
//!   [`qdd_core::graph::DdGraph`], the renderer-independent extraction of a
//!   diagram's nodes, edges and 0-stubs (whose `to_json` is the JSON
//!   export);
//! * [`session`] — the simulation tab (Fig. 8): navigate a circuit and
//!   collect one rendered frame per step, including measurement dialogs;
//! * [`verify_session`] — the verification tab (Fig. 9): two circuits,
//!   gates applied from either side onto a shared working diagram;
//! * [`html`] — bundles frames into a single self-contained HTML explorer
//!   with ⏮ ← → ⏭ and ▶ controls: the offline stand-in for the hosted web
//!   tool;
//! * [`inspect`] — reads a recorded run (the Chrome trace of
//!   `--trace-out`) back into a model, feeding the time-resolved run
//!   inspector ([`html::timeline_report`]);
//! * [`text`] — terminal renderings: ASCII circuit diagrams and amplitude
//!   tables.
//!
//! # Examples
//!
//! Render the paper's Bell-state diagram (Fig. 2(a)) as DOT and SVG:
//!
//! ```
//! use qdd_core::{DdPackage, gates, Control};
//! use qdd_viz::{dot, svg, style::VizStyle};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dd = DdPackage::new();
//! let zero = dd.zero_state(2)?;
//! let bell = {
//!     let s = dd.apply_gate(zero, gates::H, &[], 1)?;
//!     dd.apply_gate(s, gates::X, &[Control::pos(1)], 0)?
//! };
//! let dot_text = dot::vector_to_dot(&dd, bell, &VizStyle::classic());
//! assert!(dot_text.contains("digraph"));
//! let svg_text = svg::vector_to_svg(&dd, bell, &VizStyle::colored());
//! assert!(svg_text.starts_with("<svg"));
//! # Ok(())
//! # }
//! ```

pub mod color;
pub mod dot;
pub mod html;
pub mod inspect;
pub mod session;
pub mod style;
pub mod svg;
pub mod text;
pub mod verify_session;

pub use color::{phase_to_color, Rgb};
pub use session::{Frame, SimulationExplorer};
pub use style::{EdgeWeightDisplay, NodeLook, VizStyle};
pub use verify_session::VerificationExplorer;
