//! Visualization pipeline integration: every export format stays
//! well-formed across circuit families and styles, and the explorer
//! sessions mirror the tool's behaviour end to end.

use qdd::circuit::{compile, library};
use qdd::core::MeasurementOutcome;
use qdd::sim::DdSimulator;
use qdd::core::graph::DdGraph;
use qdd::viz::{dot, html, style::VizStyle, svg, SimulationExplorer, VerificationExplorer};

fn styles() -> [VizStyle; 3] {
    [VizStyle::classic(), VizStyle::colored(), VizStyle::modern()]
}

#[test]
fn all_formats_well_formed_for_library_states() {
    for circuit in [
        library::bell(),
        library::ghz(5),
        library::w_state(4),
        library::qft(4, true),
        library::random_circuit(4, 8, 2),
    ] {
        let mut sim = DdSimulator::with_seed(circuit.clone(), 1);
        sim.run().unwrap();
        let graph = DdGraph::from_vector(sim.package(), sim.state());
        assert_eq!(graph.node_count(), sim.node_count());
        for style in styles() {
            let d = dot::vector_to_dot(sim.package(), sim.state(), &style);
            assert!(d.starts_with("digraph dd {") && d.trim_end().ends_with('}'));
            assert_eq!(d.matches('{').count(), d.matches('}').count());

            let s = svg::vector_to_svg(sim.package(), sim.state(), &style);
            assert!(s.starts_with("<svg") && s.trim_end().ends_with("</svg>"));
            // Every drawn node appears.
            for node in &graph.nodes {
                assert!(
                    s.contains(&format!(">q{}</text>", node.var)),
                    "{}: node q{} missing",
                    circuit.name(),
                    node.var
                );
            }
        }
        let j = graph.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches("\"key\":").count(), graph.node_count());
    }
}

#[test]
fn matrix_exports_for_functionalities() {
    use qdd::core::DdPackage;
    let mut dd = DdPackage::new();
    let (u, _) = qdd::verify::functionality(&mut dd, &library::qft(3, true)).unwrap();
    for style in styles() {
        let d = dot::matrix_to_dot(&dd, u, &style);
        assert_eq!(d.matches('{').count(), d.matches('}').count());
        let s = svg::matrix_to_svg(&dd, u, &style);
        assert!(s.contains("</svg>"));
    }
    let graph = DdGraph::from_matrix(&dd, u);
    assert_eq!(graph.node_count(), 21, "Fig. 6 size");
    assert_eq!(graph.slots(), 4);
}

#[test]
fn simulation_explorer_full_ghz_story() {
    let mut circuit = library::ghz(3);
    circuit.add_creg("c", 3);
    circuit.barrier();
    circuit.measure(2, 2);
    let mut ex = SimulationExplorer::new(circuit, VizStyle::colored());
    let dialogs = ex.run_scripted(&[MeasurementOutcome::One]).unwrap();
    assert_eq!(dialogs, 1);
    // Initial + 3 gates + barrier + dialog + collapse = 7 frames.
    assert_eq!(ex.frames().len(), 7);
    // After measuring the MSB of a GHZ state as |1⟩, the state is |111⟩.
    let final_nodes = ex.latest_frame().node_count;
    assert_eq!(final_nodes, 3, "basis state diagram is a chain");

    let page = html::explorer_html("ghz", ex.frames());
    assert!(page.contains("const frames = 7;"));
    // All SVG content is embedded inline.
    assert_eq!(page.matches("<svg").count(), 7);
}

#[test]
fn verification_explorer_detects_and_confirms() {
    let left = library::qft(4, true);
    let right = compile::compiled_qft(4);
    let mut ex = VerificationExplorer::new(&left, &right, VizStyle::classic()).unwrap();
    assert!(ex.run_barrier_guided().unwrap());

    // Frames: identity + one per applied gate on either side.
    let (l, r) = ex.position();
    assert_eq!(ex.frames().len(), 1 + l + r);
    assert!(ex.peak_nodes() < 21, "stays below the full functionality");
}

#[test]
fn step_back_and_forward_round_trips_frames() {
    let mut ex = SimulationExplorer::new(library::qft(3, false), VizStyle::classic());
    for _ in 0..4 {
        ex.step_forward().unwrap();
    }
    let fwd_frame = ex.latest_frame().clone();
    ex.step_back();
    ex.step_back();
    ex.step_forward().unwrap();
    ex.step_forward().unwrap();
    let again = ex.latest_frame();
    // Same state reached again: identical rendering (same canonical DD),
    // even though the frame indices differ.
    assert_eq!(fwd_frame.svg, again.svg);
    assert_eq!(fwd_frame.node_count, again.node_count);
}

#[test]
fn color_wheel_and_phase_samples_are_stable() {
    let wheel = svg::color_wheel_svg(24, 64.0);
    assert_eq!(wheel.matches("<path").count(), 24);
    // Anchor colors of the Fig. 7(b) wheel.
    assert_eq!(qdd::viz::phase_to_color(0.0).to_hex(), "#ff0000");
    assert_eq!(
        qdd::viz::phase_to_color(std::f64::consts::PI).to_hex(),
        "#00ffff"
    );
}
