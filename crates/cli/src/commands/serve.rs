//! `qdd serve` — run the engine as a long-lived HTTP daemon.

use crate::args::Args;
use crate::commands::CmdError;
use qdd_serve::quota::Quota;
use qdd_serve::{Server, ServerConfig};

pub const HELP: &str = "\
qdd serve [options]

Runs the decision-diagram engine as a simulation-as-a-service HTTP daemon.
Endpoints (all JSON; see DESIGN.md §18 for schemas):

  GET    /healthz                     liveness + cache/session gauges
  POST   /v1/simulate                 run a circuit once, return state facts
  POST   /v1/shots                    sampling job; returns the histogram
                                      as JSONL lines
  POST   /v1/verify                   equivalence-check two circuits
  POST   /v1/sessions                 open an interactive step/play session
  POST   /v1/sessions/{id}/step       advance one op / resolve a choice
  POST   /v1/sessions/{id}/play       run the session to the end (seeded)
  DELETE /v1/sessions/{id}            close a session

Requests may carry their own resource budgets (a `limits` object); the
--quota-* flags set server-side ceilings that clamp them. Work-size asks
over quota (shots, body bytes, sessions) are rejected with a typed 429
naming the tripped budget. Runs degraded by fidelity-bounded approximation
report `\"degraded\": \"approximate\"` — the HTTP rendition of the CLI's
exit code 4.

OPTIONS:
  --port N               port to listen on (default 7878; 0 = ephemeral)
  --host ADDR            address to bind (default 127.0.0.1)
  --threads N            default shot-engine worker threads (0 = per CPU)
  --cache-capacity N     compiled circuits kept warm (default 32)
  --quota-shots N        max shots per job (default 1000000)
  --quota-body-bytes N   max request body size (default 1048576)
  --quota-sessions N     max live sessions (default 64)
  --quota-nodes N        ceiling + default for per-request node budgets
  --quota-complex N      ceiling + default for per-request complex budgets
  --quota-deadline-ms N  ceiling + default for per-request deadlines
  --test-hooks           honor the test_panic_at_shot request field
                         (integration testing only; never in production)";

const FLAGS: &[&str] = &[
    "--port", "--host", "--threads", "--cache-capacity", "--quota-shots",
    "--quota-body-bytes", "--quota-sessions", "--quota-nodes",
    "--quota-complex", "--quota-deadline-ms", "--test-hooks",
];

pub fn run(argv: &[String]) -> Result<(), CmdError> {
    let args = Args::parse(argv, FLAGS)?;
    if !args.positional.is_empty() {
        return Err(CmdError::Input(format!(
            "serve takes no positional arguments\n\n{HELP}"
        )));
    }
    let port: u16 = args.number("--port", 7878)?;
    let host = args.value("--host").unwrap_or("127.0.0.1").to_string();
    let mut quota = Quota {
        max_shots: args.number("--quota-shots", Quota::default().max_shots)?,
        max_body_bytes: args.number("--quota-body-bytes", Quota::default().max_body_bytes)?,
        max_sessions: args.number("--quota-sessions", Quota::default().max_sessions)?,
        ..Quota::default()
    };
    if let Some(text) = args.value("--quota-nodes") {
        quota.node_ceiling = Some(parse_positive(text, "--quota-nodes")?);
    }
    if let Some(text) = args.value("--quota-complex") {
        quota.complex_ceiling = Some(parse_positive(text, "--quota-complex")?);
    }
    if let Some(text) = args.value("--quota-deadline-ms") {
        quota.deadline_ms_ceiling = Some(parse_positive(text, "--quota-deadline-ms")?);
    }
    let config = ServerConfig {
        quota,
        cache_capacity: args.number("--cache-capacity", 32)?,
        threads: args.number("--threads", 0)?,
        enable_test_hooks: args.has("--test-hooks"),
    };
    let server = Server::bind((host.as_str(), port), config)
        .map_err(|e| CmdError::Input(format!("cannot bind {host}:{port}: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CmdError::Input(format!("cannot read bound address: {e}")))?;
    // The "listening on" line is the startup handshake: wrappers parse the
    // bound (possibly ephemeral) port from it.
    println!("qdd serve listening on http://{addr}");
    if args.has("--test-hooks") {
        println!("warning: test hooks enabled (test_panic_at_shot is honored)");
    }
    server
        .run()
        .map_err(|e| CmdError::Input(format!("accept loop failed: {e}")))
}

fn parse_positive<T: std::str::FromStr + PartialOrd + Default>(
    text: &str,
    flag: &str,
) -> Result<T, CmdError> {
    let v: T = text
        .parse()
        .map_err(|_| CmdError::Input(format!("option `{flag}`: cannot parse `{text}`")))?;
    if v <= T::default() {
        return Err(CmdError::Input(format!(
            "option `{flag}`: must be at least 1"
        )));
    }
    Ok(v)
}
