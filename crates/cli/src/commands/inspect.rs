//! `qdd inspect` — turn a recorded run (a Chrome trace) into a
//! self-contained HTML report.

use crate::args::{parse_style, Args};

pub const HELP: &str = "\
qdd inspect <trace.json> [options]

Renders a run recorded with `qdd simulate … --trace-out TRACE.json
[--snapshot-stride K]` (or `qdd verify … --trace-out`, which has spans
only) into a single self-contained HTML file: live-node and per-level
curves over op index with GC/approximation markers, a
flamegraph-style span tree with one band per worker, and a steppable,
playable gallery of the embedded structural snapshots. The report needs
no network and no external assets — open it in any browser.

OPTIONS:
  -o PATH       output file (default: the input with a .html extension)
  --style STYLE classic | colored | modern  (default classic)";

const FLAGS: &[&str] = &["-o", "--style"];

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, FLAGS)?;
    let [path] = args.positional.as_slice() else {
        return Err(format!("expected exactly one trace file\n\n{HELP}"));
    };
    let style = parse_style(args.value("--style"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let doc = qdd_viz::inspect::parse_trace(&text).map_err(|e| format!("`{path}`: {e}"))?;
    let out = match args.value("-o") {
        Some(out) => std::path::PathBuf::from(out),
        None => std::path::Path::new(path).with_extension("html"),
    };
    qdd_viz::html::write_timeline_report(&out, &doc, &style)
        .map_err(|e| format!("writing `{}`: {e}", out.display()))?;
    println!(
        "wrote {}: {} ops, {} snapshots, {} spans{}",
        out.display(),
        doc.ops.len(),
        doc.snapshots.len(),
        doc.spans.len(),
        if doc.header.dropped_events > 0 {
            format!(" ({} events dropped at the buffer cap)", doc.header.dropped_events)
        } else {
            String::new()
        }
    );
    Ok(())
}
