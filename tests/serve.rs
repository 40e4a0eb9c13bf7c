//! Integration tests for `qdd serve`: a real daemon on an ephemeral port,
//! driven over raw TCP with a minimal HTTP/1.1 client (the same
//! no-dependency discipline as the server itself).
//!
//! Covers the tentpole contracts: session lifecycle mirroring the paper
//! tool's step/play state machine, parsed-circuit cache sharing across
//! concurrent shot jobs (identical histograms from cold and warm requests),
//! typed over-quota, over-budget and malformed-QASM errors, panic containment (a
//! worker panic is a typed 500 and the daemon keeps serving), and
//! client-disconnect cancellation keeping the daemon responsive.

use qdd::serve::quota::Quota;
use qdd::serve::{Server, ServerConfig};
use qdd::serve::json::{parse_json, JsonValue};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

// --- tiny HTTP client -----------------------------------------------------

struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn json(&self) -> JsonValue {
        parse_json(&self.body)
            .unwrap_or_else(|e| panic!("response body is not JSON ({e}): {}", self.body))
    }

    /// Lines of a JSONL body.
    fn lines(&self) -> Vec<&str> {
        self.body.lines().collect()
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: qdd\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    // Every response, the JSONL shots body included, is framed by its
    // Content-Length.
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric Content-Length"))
        })
        .unwrap_or_else(|| panic!("{method} {path}: no Content-Length in {head}"));
    assert_eq!(content_length, payload.len(), "{method} {path}: Content-Length");
    Response { status, body: payload.to_string() }
}

fn get_f64(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or_else(|| {
        panic!("missing numeric field '{key}'")
    })
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string field '{key}'"))
}

// --- server harness -------------------------------------------------------

fn spawn_server(config: ServerConfig) -> SocketAddr {
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    addr
}

fn default_server() -> SocketAddr {
    spawn_server(ServerConfig {
        enable_test_hooks: true,
        ..ServerConfig::default()
    })
}

const BELL_MEASURED: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";

const MID_CIRCUIT: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\nmeasure q[1] -> c[1];\n";

/// `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn shots_body(qasm: &str, shots: u64, extra: &str) -> String {
    let escaped = json_escape(qasm);
    format!("{{\"qasm\":\"{escaped}\",\"shots\":{shots},\"seed\":7{extra}}}")
}

// --- tests ----------------------------------------------------------------

#[test]
fn session_lifecycle_mirrors_the_step_play_state_machine() {
    let addr = default_server();
    let created = request(
        addr,
        "POST",
        "/v1/sessions",
        &shots_body(MID_CIRCUIT, 0, ""),
    );
    assert_eq!(created.status, 201, "{}", created.body);
    let id = created.json().get("session").and_then(JsonValue::as_u64).unwrap();
    let path = format!("/v1/sessions/{id}/step");

    // Op 0 is the Hadamard; op 1 is a measurement, which opens the
    // tool's choice dialog instead of advancing.
    let step = request(addr, "POST", &path, "");
    assert_eq!(get_str(&step.json(), "outcome"), "applied");
    let dialog = request(addr, "POST", &path, "");
    let dialog = dialog.json();
    assert_eq!(get_str(&dialog, "outcome"), "needs_choice");
    assert!((get_f64(&dialog, "p0") - 0.5).abs() < 1e-9);
    assert_eq!(get_str(&dialog, "kind"), "measurement");

    // Resolve the dialog, step back, then play to the end.
    let chosen = request(addr, "POST", &path, "{\"choose\":1}");
    assert_eq!(get_str(&chosen.json(), "outcome"), "chosen");
    let back = request(addr, "POST", &path, "{\"back\":true}");
    assert_eq!(get_str(&back.json(), "outcome"), "stepped_back");
    let played = request(addr, "POST", &format!("/v1/sessions/{id}/play"), "{\"seed\":3}");
    assert_eq!(played.status, 200, "{}", played.body);
    let played = played.json();
    assert_eq!(played.get("finished"), Some(&JsonValue::Bool(true)));

    // Delete releases the slot; a second delete is a typed 404.
    let deleted = request(addr, "DELETE", &format!("/v1/sessions/{id}"), "");
    assert_eq!(deleted.status, 200);
    let telemetry = deleted.json().get("telemetry").cloned();
    assert_eq!(get_str(&telemetry.unwrap(), "schema"), "qdd-metrics-v1");
    let gone = request(addr, "DELETE", &format!("/v1/sessions/{id}"), "");
    assert_eq!(gone.status, 404);
    assert_eq!(
        get_str(gone.json().get("error").unwrap(), "code"),
        "not_found"
    );
}

/// `play` resolves dialogs with the session simulator's draw from the
/// request's seed, so played from the start it is the `/v1/simulate` run
/// of that seed — also when a collapse with a certain outcome (the reset
/// of a fresh qubit) comes before the dialog.
#[test]
fn session_play_from_the_start_is_the_simulate_run() {
    let addr = default_server();
    let qasm = json_escape(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n\
         reset q[0];\nh q[0];\nmeasure q[0] -> c[0];\n",
    );
    for seed in 1..=12 {
        let simulated = request(
            addr,
            "POST",
            "/v1/simulate",
            &format!("{{\"qasm\":\"{qasm}\",\"seed\":{seed}}}"),
        );
        assert_eq!(simulated.status, 200, "{}", simulated.body);
        let created = request(
            addr,
            "POST",
            "/v1/sessions",
            &format!("{{\"qasm\":\"{qasm}\"}}"),
        );
        let id = created
            .json()
            .get("session")
            .and_then(JsonValue::as_u64)
            .unwrap();
        let played = request(
            addr,
            "POST",
            &format!("/v1/sessions/{id}/play"),
            &format!("{{\"seed\":{seed}}}"),
        );
        assert_eq!(played.status, 200, "{}", played.body);
        assert_eq!(
            played.json().get("classical_bits"),
            simulated.json().get("classical_bits"),
            "seed {seed}"
        );
        request(addr, "DELETE", &format!("/v1/sessions/{id}"), "");
    }
}

#[test]
fn concurrent_warm_requests_beat_the_cold_request_hit_rate() {
    let addr = default_server();
    // Cold request: parses the circuit into the cache.
    let cold = request(addr, "POST", "/v1/shots", &shots_body(BELL_MEASURED, 500, ""));
    assert_eq!(cold.status, 200, "{}", cold.body);
    let cold_trailer = parse_json(cold.lines().last().unwrap()).unwrap();
    assert_eq!(
        cold_trailer.get("cache").unwrap().get("hit"),
        Some(&JsonValue::Bool(false))
    );

    // Two concurrent requests for the same circuit share the interned
    // parsed circuit (each still builds its gate DDs in its own package).
    let warm: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    request(addr, "POST", "/v1/shots", &shots_body(BELL_MEASURED, 500, ""))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for resp in &warm {
        assert_eq!(resp.status, 200, "{}", resp.body);
        let trailer = parse_json(resp.lines().last().unwrap()).unwrap();
        assert_eq!(
            trailer.get("cache").unwrap().get("hit"),
            Some(&JsonValue::Bool(true))
        );
        // Same circuit, same seed: the returned histogram lines are
        // identical across cold and warm requests.
        assert_eq!(
            resp.lines()[1..resp.lines().len() - 1],
            cold.lines()[1..cold.lines().len() - 1]
        );
    }
}

#[test]
fn over_quota_asks_get_a_typed_429_naming_the_budget() {
    let addr = spawn_server(ServerConfig {
        quota: Quota {
            max_shots: 100,
            ..Quota::default()
        },
        ..ServerConfig::default()
    });
    let resp = request(addr, "POST", "/v1/shots", &shots_body(BELL_MEASURED, 101, ""));
    assert_eq!(resp.status, 429, "{}", resp.body);
    let error = resp.json();
    let error = error.get("error").unwrap();
    assert_eq!(get_str(error, "code"), "over_quota");
    assert_eq!(get_str(error, "budget"), "shots");
}

#[test]
fn malformed_qasm_is_a_400_not_a_crash() {
    let addr = default_server();
    let resp = request(
        addr,
        "POST",
        "/v1/simulate",
        "{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\\nfrobnicate q;\\n\"}",
    );
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("QASM parse error"), "{}", resp.body);
    // Garbage bodies are also typed 400s, and the daemon keeps serving.
    let garbage = request(addr, "POST", "/v1/simulate", "not json at all");
    assert_eq!(garbage.status, 400);
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
}

#[test]
fn worker_panic_is_a_typed_500_and_the_daemon_survives() {
    let addr = default_server();
    let resp = request(
        addr,
        "POST",
        "/v1/shots",
        &shots_body(MID_CIRCUIT, 200, ",\"threads\":4,\"test_panic_at_shot\":40"),
    );
    assert_eq!(resp.status, 500, "{}", resp.body);
    let error = resp.json();
    let error = error.get("error").unwrap();
    assert_eq!(get_str(error, "code"), "worker_panicked");
    assert!(get_str(error, "message").contains("forced panic at shot 40"));

    // The panic was contained: the same daemon serves the same circuit
    // correctly on the very next request.
    let retry = request(
        addr,
        "POST",
        "/v1/shots",
        &shots_body(MID_CIRCUIT, 200, ",\"threads\":4"),
    );
    assert_eq!(retry.status, 200, "{}", retry.body);
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
}

/// Twenty fair coin flips, then a classically controlled gate: 2²⁰ outcome
/// paths, more than a worker's outcome trie holds, so nearly every shot
/// re-executes the circuit.
fn coin_flips() -> String {
    let mut qasm =
        String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\ncreg c[20];\n");
    for q in 0..20 {
        qasm.push_str(&format!("h q[{q}];\nmeasure q[{q}] -> c[{q}];\n"));
    }
    qasm.push_str("if(c==1) x q[0];\n");
    qasm
}

/// The `shot_jobs_running` count `/healthz` reports.
fn shot_jobs_running(addr: SocketAddr) -> u64 {
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    health
        .json()
        .get("shot_jobs_running")
        .and_then(JsonValue::as_u64)
        .unwrap()
}

#[test]
fn client_disconnect_cancels_the_job_and_frees_the_daemon() {
    let addr = default_server();
    // A mid-circuit job at the shot quota, about a minute of work on two
    // threads if nobody cancels it. Drop the connection right after
    // sending the request: the handler's disconnect poll flips the
    // engine's cooperative cancel flag and the job dies at the next shot
    // boundary.
    let body = shots_body(&coin_flips(), 1_000_000, ",\"threads\":2");
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /v1/shots HTTP/1.1\r\nHost: qdd\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(shot_jobs_running(addr), 1, "the job is running");
        // Dropping the stream closes the socket mid-job.
    }
    // The abandoned job stops within the disconnect poll and a shot, not
    // after hours of shots.
    let start = std::time::Instant::now();
    while shot_jobs_running(addr) != 0 {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "the abandoned job is still running"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The daemon answers a real request promptly.
    let start = std::time::Instant::now();
    let resp = request(addr, "POST", "/v1/shots", &shots_body(MID_CIRCUIT, 100, ""));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "follow-up request took {:?}",
        start.elapsed()
    );
    // MID_CIRCUIT has two outcome paths: each worker executes each one at
    // most once and replays the other shots.
    let trailer = parse_json(resp.lines().last().unwrap()).unwrap();
    let stat = |key| {
        trailer
            .get("stats")
            .unwrap()
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap()
    };
    let executed = stat("executed_shots");
    assert!(
        (1..=2 * stat("threads_used")).contains(&executed),
        "{executed} of 100 shots executed"
    );
}

#[test]
fn hostile_inputs_get_typed_400s_not_a_dead_daemon() {
    let addr = default_server();
    // Deeply nested JSON: the parser's depth cap must reject it as a 400.
    // Without the cap this recursed once per '[' and overflowed the
    // connection thread's stack — aborting the whole process.
    let bomb = "[".repeat(200_000);
    let resp = request(addr, "POST", "/v1/simulate", &bomb);
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting"), "{}", resp.body);
    // A request line that never ends is cut off at the per-line cap.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(stream, "GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024)).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let head = String::from_utf8_lossy(&raw);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }
    // The daemon survived both.
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
}

#[test]
fn thread_asks_are_clamped_to_the_server_ceiling() {
    let addr = default_server();
    // An absurd thread ask must not spawn a million OS threads: the server
    // clamps it to its own default worker count and answers normally.
    let resp = request(
        addr,
        "POST",
        "/v1/shots",
        &shots_body(BELL_MEASURED, 100, ",\"threads\":1000000"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let trailer = parse_json(resp.lines().last().unwrap()).unwrap();
    let used = trailer
        .get("stats")
        .unwrap()
        .get("threads_used")
        .and_then(JsonValue::as_u64)
        .unwrap();
    let cap = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
    assert!(used <= cap, "threads_used {used} exceeds the {cap}-CPU cap");
}

#[test]
fn sessions_honor_the_server_node_ceiling() {
    // Sessions must run under the same clamped budgets as batch requests:
    // with an 8-node ceiling, playing a 12-qubit GHZ cascade trips the
    // node budget as a typed 422 instead of running unbudgeted.
    let addr = spawn_server(ServerConfig {
        quota: Quota {
            node_ceiling: Some(8),
            ..Quota::default()
        },
        ..ServerConfig::default()
    });
    let mut ghz = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\nh q[0];\n");
    for i in 0..11 {
        ghz.push_str(&format!("cx q[{i}],q[{}];\n", i + 1));
    }
    let created = request(addr, "POST", "/v1/sessions", &shots_body(&ghz, 0, ""));
    assert_eq!(created.status, 201, "{}", created.body);
    let id = created.json().get("session").and_then(JsonValue::as_u64).unwrap();
    let played = request(addr, "POST", &format!("/v1/sessions/{id}/play"), "");
    assert_eq!(played.status, 422, "{}", played.body);
    assert_eq!(
        get_str(played.json().get("error").unwrap(), "code"),
        "resource_exhausted"
    );
}

#[test]
fn responses_embed_request_scoped_telemetry() {
    let addr = default_server();
    let resp = request(addr, "POST", "/v1/shots", &shots_body(MID_CIRCUIT, 100, ""));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let trailer = parse_json(resp.lines().last().unwrap()).unwrap();
    let telemetry = trailer.get("telemetry").unwrap();
    assert_eq!(get_str(telemetry, "schema"), "qdd-metrics-v1");
    // The shot engine's span and sample counter from *this* request are
    // present in the request-scoped snapshot.
    assert!(
        telemetry
            .get("spans")
            .and_then(|s| s.get("shots.engine"))
            .is_some(),
        "missing shots.engine span: {}",
        resp.body
    );
    assert_eq!(
        telemetry
            .get("counters")
            .and_then(|c| c.get("shots.sampled"))
            .and_then(JsonValue::as_u64),
        Some(100)
    );
}

#[test]
fn resource_budgets_clamp_and_degradation_is_reported() {
    // A server-side deadline ceiling applies even when the request asks
    // for more.
    let addr = spawn_server(ServerConfig {
        quota: Quota {
            node_ceiling: Some(8),
            ..Quota::default()
        },
        ..ServerConfig::default()
    });
    // 8 nodes cannot hold a 12-qubit GHZ cascade: with no fidelity floor,
    // the budget trips as a typed 422.
    let mut ghz = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\nh q[0];\n");
    for i in 0..11 {
        ghz.push_str(&format!("cx q[{i}],q[{}];\n", i + 1));
    }
    let body = shots_body(&ghz, 10, ",\"limits\":{\"max_nodes\":999999}");
    let resp = request(addr, "POST", "/v1/shots", &body);
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert_eq!(
        get_str(resp.json().get("error").unwrap(), "code"),
        "resource_exhausted"
    );
    // The refusal still accounts for the work the request did.
    let telemetry = resp.json().get("telemetry").cloned().unwrap();
    let spans = telemetry.get("spans").unwrap();
    assert!(spans.get("shots.engine").is_some(), "{}", resp.body);
}

#[test]
fn the_node_ceiling_refuses_a_wide_register_with_a_typed_422() {
    // 24 qubits under three `ry` + `cx` layers: no product structure, so
    // the state's diagram outgrows a 2000-node ceiling, and its dense
    // vector would take 256 MB. The operator's ceiling bounds the request.
    let addr = spawn_server(ServerConfig {
        quota: Quota {
            node_ceiling: Some(2000),
            ..Quota::default()
        },
        ..ServerConfig::default()
    });
    let n = 24;
    let mut qasm = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    for layer in 0..3 {
        for q in 0..n {
            qasm.push_str(&format!(
                "ry({}) q[{q}];\n",
                0.37 + 0.11 * (layer * n + q) as f64
            ));
        }
        for q in 0..n - 1 {
            qasm.push_str(&format!("cx q[{q}],q[{}];\n", q + 1));
        }
    }
    let body = format!("{{\"qasm\":\"{}\"}}", json_escape(&qasm));
    let resp = request(addr, "POST", "/v1/simulate", &body);
    assert_eq!(resp.status, 422, "{}", resp.body);
    let error = resp.json().get("error").cloned().unwrap();
    assert_eq!(get_str(&error, "code"), "resource_exhausted");
    assert!(
        get_str(&error, "message").contains("max_nodes = 2000"),
        "{}",
        resp.body
    );
}

#[test]
fn construction_verify_past_the_node_budget_is_a_typed_422() {
    // GHZ-4 against GHZ-4 plus a Z: at this budget the construction check's
    // adjoint used to panic, closing the connection with no response.
    let addr = default_server();
    let ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n";
    let tampered = format!("{ghz}z q[2];\n");
    let body = format!(
        "{{\"left\":\"{}\",\"right\":\"{}\",\"strategy\":\"construction\",\"limits\":{{\"max_nodes\":21}}}}",
        json_escape(ghz),
        json_escape(&tampered)
    );
    let resp = request(addr, "POST", "/v1/verify", &body);
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert_eq!(
        get_str(resp.json().get("error").unwrap(), "code"),
        "resource_exhausted"
    );
}
