//! `qdd render` — export the diagram of a circuit's final state or its
//! full functionality matrix.

use crate::args::{parse_style, Args};
use crate::load::load_circuit;
use qdd_core::graph::DdGraph;
use std::path::Path;

pub const HELP: &str = "\
qdd render <file.{qasm,real}> -o OUT [options]

Builds the circuit's decision diagram and writes it in the format implied
by OUT's extension: .svg, .dot, .json, or .html (single-frame explorer).

OPTIONS:
  -o PATH        output file (required)
  --matrix       render the circuit's functionality (matrix DD) instead of
                 the state reached from |0…0⟩; requires a unitary circuit
  --style STYLE  classic | colored | modern   (default colored)";

const FLAGS: &[&str] = &["-o", "--matrix", "--style"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let [path] = args.positional.as_slice() else {
        return Err(format!("expected exactly one circuit file\n\n{HELP}"));
    };
    let out_path = args
        .value("-o")
        .ok_or_else(|| format!("missing `-o OUT`\n\n{HELP}"))?;
    let style = parse_style(args.value("--style").or(Some("colored")))?;
    let circuit = load_circuit(path)?;

    let mut dd = qdd_core::DdPackage::new();
    let (graph, nodes) = if args.has("--matrix") {
        let (u, _) = qdd_verify::functionality(&mut dd, &circuit).map_err(|e| match e {
            qdd_verify::VerifyError::NonUnitary { .. } => {
                "functionality rendering needs a measurement-free circuit".to_string()
            }
            e => e.to_string(),
        })?;
        (DdGraph::from_matrix(&dd, u), dd.mat_node_count(u))
    } else {
        let mut sim = qdd_sim::DdSimulator::with_seed(circuit.clone(), 1);
        sim.run().map_err(|e| e.to_string())?;
        (
            DdGraph::from_vector(sim.package(), sim.state()),
            sim.node_count(),
        )
    };
    println!("{}: diagram has {nodes} nodes", circuit.name());

    let ext = Path::new(out_path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let content = match ext {
        "svg" => qdd_viz::svg::graph_to_svg(&graph, &style),
        "dot" => qdd_viz::dot::graph_to_dot(&graph, &style),
        "json" => graph.to_json(),
        "html" => {
            let frame = qdd_viz::Frame {
                index: 0,
                title: format!("{} ({nodes} nodes)", circuit.name()),
                svg: qdd_viz::svg::graph_to_svg(&graph, &style),
                dot: qdd_viz::dot::graph_to_dot(&graph, &style),
                node_count: nodes,
            };
            qdd_viz::html::explorer_html(&format!("qdd — {}", circuit.name()), &[frame])
        }
        other => {
            return Err(format!(
                "unsupported output extension `.{other}` (expected svg, dot, json, or html)"
            ))
        }
    };
    std::fs::write(out_path, content).map_err(|e| format!("writing `{out_path}`: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
