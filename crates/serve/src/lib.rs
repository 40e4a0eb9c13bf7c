//! `qdd-serve` — simulation-as-a-service over the decision-diagram engine.
//!
//! The paper's tool family (§II) runs interactively on one circuit at a
//! time; this crate wraps the same engine surfaces — simulate, sample,
//! verify, step/play — behind a long-lived HTTP daemon so many clients can
//! share one warm process. The design goals, in order:
//!
//! 1. **Zero dependencies.** The transport is a hand-rolled HTTP/1.1
//!    subset over [`std::net::TcpListener`] ([`http`]); JSON reuses the
//!    workspace's own parser and writer conventions ([`json`]). Nothing is
//!    added to the dependency tree.
//! 2. **Panic containment.** A request may not take the daemon down. The
//!    shot engine contains worker panics as
//!    [`SimError::WorkerPanicked`](qdd_sim::SimError) (returned as a typed
//!    500), and every connection runs on its own thread, so an unexpected
//!    handler panic kills one connection, never the accept loop. A
//!    connection has [`REQUEST_READ_DEADLINE`] to send its request, so
//!    every connection thread ends.
//! 3. **Per-tenant budgets under server ceilings.** Requests carry their
//!    own [`Limits`] asks; the operator's
//!    [`Quota`] clamps them ([`quota`] documents the
//!    reject-vs-clamp contract). Exceeding a budget is a typed 422/429,
//!    and fidelity-bounded degradation surfaces as `"degraded":
//!    "approximate"` in the response — the HTTP rendition of the CLI's
//!    exit code 4. No rung of the degradation ladder leaves the diagram,
//!    so the node ceiling bounds a request's memory.
//! 4. **Shared parsing, private packages.** Parsed circuits are interned
//!    in a [`cache::CircuitCache`] keyed by the QASM hash and `Arc`-shared
//!    across concurrent requests; every request builds its own gate DDs in
//!    a package it owns (DESIGN.md §15).
//!
//! Endpoints: `POST /v1/simulate`, `POST /v1/shots` (a JSONL body),
//! `POST /v1/verify`, and the session family `POST /v1/sessions`,
//! `POST /v1/sessions/{id}/step`, `POST /v1/sessions/{id}/play`,
//! `DELETE /v1/sessions/{id}` mirroring the tool's step/play state
//! machine. Every JSON response to a parsed request, errors included,
//! ends with a `telemetry` member: the request's merged telemetry
//! snapshot (scoped per request via [`qdd_telemetry::set_scope`]), added
//! in one place, `handle_connection`; `/v1/shots` carries it in its
//! trailer line. A request rejected before it is parsed (an oversized or
//! malformed HTTP head) has no scope, and its error carries no snapshot.

pub mod cache;
pub mod http;
pub mod json;
pub mod quota;
pub mod session;

use crate::cache::CircuitCache;
use crate::http::{ParseError, Request};
use crate::json::{get_bool, get_str, get_u64, num, parse_json, JsonValue};
use crate::quota::{ApiError, Quota};
use crate::session::SessionStore;
use qdd_core::{Limits, MeasurementOutcome, PackageConfig};
use qdd_sim::{shots, DdSimulator, ShotOptions, SimError, StepOutcome};
use qdd_verify::{Equivalence, EquivalenceChecker, Strategy, VerifyError};
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long a connection may take to send its whole request, head and body
/// together. A connection still sending when it passes is closed, so every
/// connection thread ends.
pub const REQUEST_READ_DEADLINE: Duration = Duration::from_secs(10);

/// Operator-facing daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-tenant ceilings (see [`Quota`]).
    pub quota: Quota,
    /// Compiled circuits kept warm (FIFO-evicted beyond this).
    pub cache_capacity: usize,
    /// Default shot-engine worker threads (`0` = one per CPU); requests
    /// may ask for fewer.
    pub threads: usize,
    /// Honors the `test_panic_at_shot` request field, which forces a shot
    /// worker to panic — for exercising the panic-containment path from
    /// integration suites. Never enable in production.
    pub enable_test_hooks: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            quota: Quota::default(),
            cache_capacity: 32,
            threads: 0,
            enable_test_hooks: false,
        }
    }
}

/// Shared state every connection thread sees.
struct ServerState {
    quota: Quota,
    cache: CircuitCache,
    sessions: SessionStore,
    threads: usize,
    test_hooks: bool,
    /// `/v1/shots` jobs whose engine thread has not returned yet.
    shot_jobs_running: AtomicUsize,
}

/// The daemon: a bound listener plus shared state. [`Server::run`]
/// consumes it into the accept loop.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener (use port `0` for an ephemeral port in tests).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            cache: CircuitCache::new(config.cache_capacity),
            sessions: SessionStore::new(config.quota.max_sessions),
            threads: config.threads,
            test_hooks: config.enable_test_hooks,
            quota: config.quota,
            shot_jobs_running: AtomicUsize::new(0),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (reports the ephemeral port after `bind(":0")`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: one thread per connection, one request per
    /// connection. Accept errors are transient (connection reset during
    /// the handshake) and are skipped rather than fatal.
    pub fn run(self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&self.state);
            thread::spawn(move || handle_connection(stream, state));
        }
        Ok(())
    }
}

/// Reads, routes, and answers one request, then closes the connection.
fn handle_connection(mut stream: TcpStream, state: Arc<ServerState>) {
    let req = match http::read_request(
        &mut stream,
        state.quota.max_body_bytes,
        REQUEST_READ_DEADLINE,
    ) {
        Ok(req) => req,
        // Both rejections can leave unread request bytes on the socket;
        // drain them after responding so the close does not RST away the
        // error before the client reads it.
        Err(ParseError::BodyTooLarge { declared, cap }) => {
            let e = ApiError::over_quota(
                "body_bytes",
                format!("declared body of {declared} bytes exceeds the {cap}-byte cap"),
            );
            let _ = http::write_response(&mut stream, e.status, "application/json", e.to_json().as_bytes());
            http::drain_before_close(&mut stream);
            return;
        }
        Err(ParseError::Malformed(why)) => {
            let e = ApiError::bad_request(format!("malformed request: {why}"));
            let _ = http::write_response(&mut stream, e.status, "application/json", e.to_json().as_bytes());
            http::drain_before_close(&mut stream);
            return;
        }
        Err(ParseError::Io(_)) => return,
    };
    // Telemetry emitted while serving this request lands in its own scope,
    // so concurrent requests do not bleed counters into each other's
    // response snapshots. Collection is per-thread opt-in; this thread
    // serves exactly one request, so enable it for the duration.
    qdd_telemetry::set_enabled(true);
    qdd_telemetry::set_scope(qdd_telemetry::next_scope_id());
    let result = route(&req, &mut stream, &state);
    // Taking the snapshot drains the request scope, so jobs whose client
    // hung up do not leak what their threads published either.
    let snap = qdd_telemetry::take_merged_snapshot();
    qdd_telemetry::set_scope(0);
    let (status, mut body) = match result {
        Ok(Some(response)) => response,
        Ok(None) => return, // the handler streamed its own response
        Err(e) => (e.status, e.to_json()),
    };
    // The snapshot is the body object's last member.
    body.pop();
    body.push_str(",\"telemetry\":");
    body.push_str(&snap.to_json());
    body.push('}');
    let _ = http::write_response(&mut stream, status, "application/json", body.as_bytes());
}

/// Routing table. `Ok(Some)` is a JSON response; `Ok(None)` means the
/// handler wrote the response itself (the JSONL shots body) or the client
/// hung up.
fn route(
    req: &Request,
    stream: &mut TcpStream,
    state: &ServerState,
) -> Result<Option<(u16, String)>, ApiError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(Some((
            200,
            format!(
                "{{\"ok\":true,\"cached_circuits\":{},\"live_sessions\":{},\
                 \"shot_jobs_running\":{}}}",
                state.cache.len(),
                state.sessions.len(),
                state.shot_jobs_running.load(Ordering::Relaxed)
            ),
        ))),
        ("POST", ["v1", "simulate"]) => handle_simulate(&body_json(req)?, state).map(Some),
        ("POST", ["v1", "shots"]) => handle_shots(&body_json(req)?, stream, state),
        ("POST", ["v1", "verify"]) => handle_verify(&body_json(req)?, state).map(Some),
        ("POST", ["v1", "sessions"]) => handle_session_create(&body_json(req)?, state).map(Some),
        ("POST", ["v1", "sessions", id, "step"]) => {
            handle_session_step(parse_id(id)?, &body_json(req)?, state).map(Some)
        }
        ("POST", ["v1", "sessions", id, "play"]) => {
            handle_session_play(parse_id(id)?, &body_json(req)?, state).map(Some)
        }
        ("DELETE", ["v1", "sessions", id]) => {
            state.sessions.delete(parse_id(id)?)?;
            Ok(Some((200, format!("{{\"deleted\":{id}}}"))))
        }
        (_, ["healthz"])
        | (_, ["v1", "simulate" | "shots" | "verify" | "sessions"])
        | (_, ["v1", "sessions", _, "step" | "play"])
        | (_, ["v1", "sessions", _]) => Err(ApiError {
            status: 405,
            code: "method_not_allowed",
            message: format!("{} is not supported on {}", req.method, req.path),
            budget: None,
        }),
        _ => Err(ApiError::not_found(format!("no route for {}", req.path))),
    }
}

/// Parses the request body as JSON (an empty body reads as `{}`).
fn body_json(req: &Request) -> Result<JsonValue, ApiError> {
    if req.body.is_empty() {
        return parse_json("{}").map_err(ApiError::bad_request);
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    parse_json(text).map_err(|e| ApiError::bad_request(format!("request body is not JSON: {e}")))
}

fn parse_id(raw: &str) -> Result<u64, ApiError> {
    raw.parse()
        .map_err(|_| ApiError::bad_request(format!("'{raw}' is not a session id")))
}

/// Pulls the mandatory `qasm` string out of a body.
fn require_qasm<'a>(body: &'a JsonValue, key: &str) -> Result<&'a str, ApiError> {
    get_str(body, key).ok_or_else(|| ApiError::bad_request(format!("missing string field '{key}'")))
}

/// Maps engine errors onto the API's status contract: budget/deadline
/// exhaustion is a 422 (the request was valid, the leash was short),
/// contained worker panics are a typed 500, anything else is the
/// request's fault. [`SimError::Cancelled`] never reaches this — callers
/// drop the connection instead.
fn map_sim_error(e: SimError) -> ApiError {
    match &e {
        SimError::Dd(d) if d.is_resource() => ApiError {
            status: 422,
            code: "resource_exhausted",
            message: e.to_string(),
            budget: None,
        },
        SimError::WorkerPanicked { .. } => ApiError {
            status: 500,
            code: "worker_panicked",
            message: e.to_string(),
            budget: None,
        },
        _ => ApiError::bad_request(e.to_string()),
    }
}

fn map_verify_error(e: VerifyError) -> ApiError {
    match &e {
        VerifyError::Dd(d) if d.is_resource() => ApiError {
            status: 422,
            code: "resource_exhausted",
            message: e.to_string(),
            budget: None,
        },
        _ => ApiError::bad_request(e.to_string()),
    }
}

/// The `"degraded"` response field: the HTTP rendition of the CLI's
/// exit code 4 (approximate).
fn degraded_field(approximate: bool) -> &'static str {
    if approximate {
        "\"approximate\""
    } else {
        "null"
    }
}

/// Builds this request's package config from its clamped limits.
fn request_config(limits: Limits) -> PackageConfig {
    PackageConfig {
        limits,
        ..PackageConfig::default()
    }
}

// --- /v1/simulate ---------------------------------------------------------

/// Runs the full circuit once (measurements resolved by the seeded
/// stream) and returns final-state facts plus stats and telemetry.
fn handle_simulate(body: &JsonValue, state: &ServerState) -> Result<(u16, String), ApiError> {
    let qasm = require_qasm(body, "qasm")?;
    let seed = get_u64(body, "seed").unwrap_or(1);
    let limits = state.quota.clamp_limits(body)?;
    let outcome = state.cache.get_or_build(qasm)?;
    let entry = &outcome.entry;
    let mut sim = DdSimulator::with_config(entry.circuit.clone(), seed, request_config(limits));
    sim.run().map_err(map_sim_error)?;
    let stats = sim.stats().clone();
    let nodes = sim.node_count();
    let bits: Vec<String> = sim
        .classical_bits()
        .iter()
        .map(|&b| if b { "1".into() } else { "0".into() })
        .collect();
    let amplitudes = if get_bool(body, "include_amplitudes") == Some(true) {
        const AMPLITUDE_CAP_QUBITS: usize = 12;
        let n = entry.circuit.num_qubits();
        if n > AMPLITUDE_CAP_QUBITS {
            return Err(ApiError::bad_request(format!(
                "include_amplitudes is supported up to {AMPLITUDE_CAP_QUBITS} qubits, circuit has {n}"
            )));
        }
        let dense = sim.dense_state();
        let mut s = String::from(",\"amplitudes\":[");
        for (i, a) in dense.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{},{}]", num(a.re), num(a.im));
        }
        s.push(']');
        s
    } else {
        String::new()
    };
    let body = format!(
        "{{\"qubits\":{},\"applied_ops\":{},\"nodes\":{},\"peak_nodes\":{},\
         \"fidelity_lower_bound\":{},\"degraded\":{},\"classical_bits\":[{}],\
         \"cache\":{{\"hit\":{},\"key\":\"{:016x}\"}},\
         \"gate_cache\":{{\"lookups\":{},\"hits\":{}}}{}}}",
        entry.circuit.num_qubits(),
        stats.applied_ops,
        nodes,
        stats.peak_nodes,
        num(stats.fidelity_lower_bound),
        degraded_field(stats.is_approximate()),
        bits.join(","),
        outcome.hit,
        outcome.key,
        sim.package().gate_cache_lookups(),
        sim.package().gate_cache_hits(),
        amplitudes,
    );
    Ok((200, body))
}

// --- /v1/shots ------------------------------------------------------------

/// Runs a sampling job and answers with the histogram as one JSONL body: a
/// header line, one line per outcome (byte-identical to the CLI's
/// `--histogram-out` lines), and a trailer with stats + telemetry. While
/// the engine runs, the handler watches the connection: a client that
/// goes away flips the job's cooperative cancel flag so abandoned work
/// stops at the next shot boundary instead of burning the quota.
fn handle_shots(
    body: &JsonValue,
    stream: &mut TcpStream,
    state: &ServerState,
) -> Result<Option<(u16, String)>, ApiError> {
    let qasm = require_qasm(body, "qasm")?;
    let shots_requested = get_u64(body, "shots").unwrap_or(1024);
    state.quota.check_shots(shots_requested)?;
    let limits = state.quota.clamp_limits(body)?;
    let outcome = state.cache.get_or_build(qasm)?;
    let entry = &outcome.entry;
    let cancel = Arc::new(AtomicBool::new(false));
    // A request may ask for *fewer* workers than the server default, never
    // more: `threads` is an OS-resource ask, and honoring a huge value
    // (`"threads": 1000000`) would let one request exhaust the host with
    // thread spawns — the one work-size dimension the shots quota does not
    // cover. Resolve the server default (0 = per-CPU) and cap there.
    let thread_cap = qdd_sim::resolve_threads(state.threads);
    let mut opts = ShotOptions {
        shots: shots_requested,
        seed: get_u64(body, "seed").unwrap_or(1),
        threads: get_u64(body, "threads")
            .map(|t| (t as usize).clamp(1, thread_cap))
            .unwrap_or(state.threads),
        config: request_config(limits),
        cancel: Some(Arc::clone(&cancel)),
        ..ShotOptions::default()
    };
    if state.test_hooks {
        opts.panic_at_shot = get_u64(body, "test_panic_at_shot");
    }

    // Run the engine on its own thread (inside this request's telemetry
    // scope) while this thread watches for the client hanging up.
    let scope = qdd_telemetry::scope_id();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    state.shot_jobs_running.fetch_add(1, Ordering::Relaxed);
    let (result, client_gone) = thread::scope(|s| {
        let handle = s.spawn(move || {
            qdd_telemetry::set_enabled(true);
            qdd_telemetry::set_scope(scope);
            let r = shots::run(&entry.circuit, &opts);
            qdd_telemetry::publish();
            drop(done_tx);
            r
        });
        // Wake as soon as the engine thread ends (its sender drops, also
        // when it panics); probe for a hang-up every 2 ms until then.
        let mut gone = false;
        while let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_millis(2)) {
            if !gone && http::peer_disconnected(stream) {
                cancel.store(true, Ordering::Relaxed);
                gone = true;
            }
        }
        let result = handle.join().unwrap_or_else(|_| {
            Err(SimError::WorkerPanicked {
                worker: 0,
                payload: "shot coordinator panicked".to_string(),
            })
        });
        (result, gone)
    });
    state.shot_jobs_running.fetch_sub(1, Ordering::Relaxed);
    let report = match result {
        Ok(report) => report,
        // A cancelled job means the client hung up: nobody is listening,
        // so there is no response to write.
        Err(SimError::Cancelled) => return Ok(None),
        Err(e) => return Err(map_sim_error(e)),
    };
    if client_gone {
        return Ok(None);
    }

    let snap = qdd_telemetry::take_merged_snapshot();
    let header = report.histogram_header();
    let worker_shots: Vec<String> = report.worker_shots.iter().map(|n| n.to_string()).collect();
    let trailer = format!(
        "{{\"stats\":{{\"regime\":\"{}\",\"threads_used\":{},\"elapsed_ms\":{},\
         \"fidelity_lower_bound\":{},\"gate_cache_lookups\":{},\"gate_cache_hits\":{},\
         \"gate_cache_hit_rate\":{},\"worker_shots\":[{}],\"executed_shots\":{}}},\
         \"degraded\":{},\"cache\":{{\"hit\":{},\"key\":\"{:016x}\"}},\"telemetry\":{}}}",
        report.regime.name(),
        report.threads_used,
        report.elapsed.as_millis(),
        num(report.fidelity_lower_bound),
        report.gate_cache_lookups,
        report.gate_cache_hits,
        num(report.gate_cache_hit_rate()),
        worker_shots.join(","),
        report.executed_shots,
        degraded_field(report.is_approximate()),
        outcome.hit,
        outcome.key,
        snap.to_json(),
    );
    let mut body = header;
    body.push('\n');
    for line in report.histogram_lines() {
        body.push_str(&line);
        body.push('\n');
    }
    body.push_str(&trailer);
    body.push('\n');
    // A write failure means the client vanished; there is nothing useful
    // to do but stop.
    let _ = http::write_response(stream, 200, "application/jsonl", body.as_bytes());
    Ok(None)
}

// --- /v1/verify -----------------------------------------------------------

/// Equivalence-checks two circuits under the request's (clamped) budgets.
fn handle_verify(body: &JsonValue, state: &ServerState) -> Result<(u16, String), ApiError> {
    let left_src = require_qasm(body, "left")?;
    let right_src = require_qasm(body, "right")?;
    let strategy = get_str(body, "strategy")
        .map_or(Ok(Strategy::default()), str::parse)
        .map_err(ApiError::bad_request)?;
    let left = qdd_circuit::qasm::parse(left_src)
        .map_err(|e| ApiError::bad_request(format!("left circuit: QASM parse error: {e}")))?;
    let right = qdd_circuit::qasm::parse(right_src)
        .map_err(|e| ApiError::bad_request(format!("right circuit: QASM parse error: {e}")))?;
    let limits = state.quota.clamp_limits(body)?;
    let mut checker = EquivalenceChecker::with_config(request_config(limits));
    let report = checker.check(&left, &right, strategy).map_err(map_verify_error)?;
    let (verdict, phase) = match report.result {
        Equivalence::Equivalent => ("equivalent", String::from("null")),
        Equivalence::EquivalentUpToGlobalPhase { phase } => {
            ("equivalent_up_to_global_phase", num(phase))
        }
        Equivalence::NotEquivalent => ("not_equivalent", String::from("null")),
    };
    let counterexample = match report.counterexample {
        Some(c) => format!("{{\"row\":{},\"col\":{}}}", c.row, c.col),
        None => String::from("null"),
    };
    let body = format!(
        "{{\"equivalent\":{},\"verdict\":\"{}\",\"phase\":{},\"strategy\":\"{}\",\
         \"peak_nodes\":{},\"applied_left\":{},\"applied_right\":{},\
         \"counterexample\":{}}}",
        report.result.is_equivalent(),
        verdict,
        phase,
        report.strategy,
        report.peak_nodes,
        report.applied_left,
        report.applied_right,
        counterexample,
    );
    Ok((200, body))
}

// --- sessions -------------------------------------------------------------

fn handle_session_create(body: &JsonValue, state: &ServerState) -> Result<(u16, String), ApiError> {
    let qasm = require_qasm(body, "qasm")?;
    let circuit = qdd_circuit::qasm::parse(qasm)
        .map_err(|e| ApiError::bad_request(format!("QASM parse error: {e}")))?;
    let qubits = circuit.num_qubits();
    let ops = circuit.ops().len();
    // Sessions run under the same quota-clamped per-tenant budgets as
    // batch requests: step/play do governed work and must trip the node /
    // complex ceilings as typed errors. The deadline ceiling is the one
    // exception — it is a per-run wall-clock leash, meaningless across an
    // interactive session's idle gaps, and is enforced by idle expiry
    // instead.
    let limits = state.quota.clamp_limits(body)?;
    let config = request_config(Limits {
        deadline: None,
        ..limits
    });
    let id = state.sessions.create(circuit, config)?;
    Ok((201, format!("{{\"session\":{id},\"qubits\":{qubits},\"ops\":{ops}}}")))
}

/// The common tail of step/play responses: where the session stands.
fn session_position_json(position: usize, finished: bool, nodes: usize) -> String {
    format!("\"position\":{position},\"finished\":{finished},\"nodes\":{nodes}")
}

fn step_outcome_json(outcome: &StepOutcome) -> String {
    match outcome {
        StepOutcome::Applied { op_index } => {
            format!("\"outcome\":\"applied\",\"op_index\":{op_index}")
        }
        StepOutcome::NeedsChoice(p) => {
            let kind = match p.kind {
                qdd_sim::ChoiceKind::Measurement { bit } => {
                    format!("\"measurement\",\"bit\":{bit}")
                }
                qdd_sim::ChoiceKind::Reset => String::from("\"reset\""),
            };
            format!(
                "\"outcome\":\"needs_choice\",\"qubit\":{},\"p0\":{},\"p1\":{},\"kind\":{}",
                p.qubit,
                num(p.p0),
                num(p.p1),
                kind
            )
        }
        StepOutcome::AtEnd => String::from("\"outcome\":\"at_end\""),
    }
}

/// One step of the session state machine: advance, resolve an open
/// choice dialog (`{"choose": 0|1}`), or step backwards (`{"back":
/// true}`).
fn handle_session_step(
    id: u64,
    body: &JsonValue,
    state: &ServerState,
) -> Result<(u16, String), ApiError> {
    let fields = state.sessions.with(id, |s| -> Result<String, ApiError> {
        let outcome = if let Some(choice) = get_u64(body, "choose") {
            if choice > 1 {
                return Err(ApiError::bad_request(format!(
                    "'choose' must be 0 or 1, got {choice}"
                )));
            }
            s.choose(MeasurementOutcome::from(choice == 1))
                .map_err(map_sim_error)?;
            String::from("\"outcome\":\"chosen\"")
        } else if get_bool(body, "back") == Some(true) {
            format!("\"outcome\":\"stepped_back\",\"moved\":{}", s.step_back())
        } else {
            step_outcome_json(&s.step_forward().map_err(map_sim_error)?)
        };
        Ok(format!(
            "{},{}",
            outcome,
            session_position_json(s.position(), s.is_finished(), s.node_count())
        ))
    })??;
    Ok((200, format!("{{{fields}}}")))
}

/// Plays the session to the end, resolving every choice dialog with the
/// simulator's draw from the request's seed — from the first operation,
/// the run `/v1/simulate` takes with that seed.
fn handle_session_play(
    id: u64,
    body: &JsonValue,
    state: &ServerState,
) -> Result<(u16, String), ApiError> {
    let seed = get_u64(body, "seed").unwrap_or(1);
    let fields = state.sessions.with(id, |s| -> Result<String, ApiError> {
        s.reseed(seed);
        loop {
            match s.fast_forward().map_err(map_sim_error)? {
                StepOutcome::AtEnd => break,
                StepOutcome::NeedsChoice(_) => {
                    s.draw().map_err(map_sim_error)?;
                }
                StepOutcome::Applied { .. } => {}
            }
        }
        let bits: Vec<String> = s
            .classical_bits()
            .iter()
            .map(|&b| if b { "1".into() } else { "0".into() })
            .collect();
        Ok(format!(
            "{},\"classical_bits\":[{}]",
            session_position_json(s.position(), s.is_finished(), s.node_count()),
            bits.join(",")
        ))
    })??;
    Ok((200, format!("{{{fields}}}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_field_prefers_approximate() {
        assert_eq!(degraded_field(true), "\"approximate\"");
        assert_eq!(degraded_field(false), "null");
    }
}
