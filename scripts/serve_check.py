#!/usr/bin/env python3
"""End-to-end gate for `qdd serve`: the daemon must agree with the CLI.

Usage:
    serve_check.py [QDD_BINARY]

Starts a daemon on an ephemeral port (parsing the bound address from the
``qdd serve listening on http://…`` handshake line), then checks the five
contracts the HTTP surface publishes:

1. **Histogram identity** — for each pinned circuit, the JSONL histogram
   returned by ``POST /v1/shots`` must be *byte-identical* to the file the
   CLI writes via ``simulate --shots N --seed S --histogram-out``. Same
   engine, same seed, same bytes — the daemon is a transport, not a fork.
2. **Verification** — ``POST /v1/verify`` on a circuit against itself
   reports ``equivalent`` with the construction strategy.
3. **Panic containment** — with ``--test-hooks``, a request carrying
   ``test_panic_at_shot`` gets a typed 500 (``worker_panicked``) and the
   daemon keeps serving: the very next request must succeed.
4. **Quota rejection** — a shots ask over the server ceiling gets a typed
   429 whose ``budget`` field names the tripped dimension.
5. **Telemetry** — every response it reads (``/v1/simulate``,
   ``/v1/verify``, the ``/v1/shots`` trailer, session create/step/play/
   DELETE, and a 422 refusal) embeds a ``qdd-metrics-v1`` snapshot that
   passes check_trace.py's metrics checker.

Exits non-zero on the first violation. Like check_trace.py this *is* a
gate: the HTTP surface is a published contract, not a measurement.
"""

import http.client
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_trace  # noqa: E402

SHOTS = 4096
SEED = 7
QUOTA_SHOTS = 1_000_000
CIRCUITS = ["qft16", "cliffordt15"]


def fail(msg):
    raise SystemExit(f"serve_check: {msg}")


def post(addr, path, body, method="POST"):
    """One request over a fresh connection (the daemon is one-shot per
    connection); returns (status, decoded body text)."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        conn.request(method, path, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def check_telemetry(where, doc):
    """The response's embedded snapshot, held to the --metrics-out contract."""
    snap = doc.get("telemetry")
    if not isinstance(snap, dict) or snap.get("schema") != check_trace.METRICS_SCHEMA:
        fail(f"{where}: no embedded {check_trace.METRICS_SCHEMA} snapshot")
    check_trace.check_metrics(where, snap)


def start_daemon(qdd):
    proc = subprocess.Popen(
        [qdd, "serve", "--port", "0", "--test-hooks",
         "--quota-shots", str(QUOTA_SHOTS)],
        stdout=subprocess.PIPE, text=True)
    # The handshake line is the startup contract: wrappers block on it.
    line = proc.stdout.readline()
    m = re.match(r"qdd serve listening on http://(\S+)", line)
    if not m:
        proc.kill()
        fail(f"bad handshake line: {line!r}")
    return proc, m.group(1)


def check_histograms(qdd, addr):
    for name in CIRCUITS:
        path = f"circuits/{name}.qasm"
        qasm = open(path).read()
        with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as f:
            hist_path = f.name
        try:
            subprocess.run(
                [qdd, "simulate", path, "--shots", str(SHOTS),
                 "--seed", str(SEED), "--histogram-out", hist_path],
                check=True, stdout=subprocess.DEVNULL)
            cli = open(hist_path).read()
        finally:
            os.unlink(hist_path)
        status, body = post(addr, "/v1/shots",
                            {"qasm": qasm, "shots": SHOTS, "seed": SEED})
        if status != 200:
            fail(f"{name}: /v1/shots returned {status}: {body[:200]}")
        # The body is the CLI file plus one stats trailer line.
        lines = body.splitlines(keepends=True)
        if not lines or not lines[-1].startswith('{"stats"'):
            fail(f"{name}: body does not end with a stats trailer")
        http_hist = "".join(lines[:-1])
        if http_hist != cli:
            fail(f"{name}: HTTP histogram differs from the CLI's "
                 f"--histogram-out ({len(http_hist)} vs {len(cli)} bytes)")
        trailer = json.loads(lines[-1])
        check_telemetry(f"{name}: /v1/shots trailer", trailer)
        if trailer["stats"]["regime"] not in (
                "no-measurement", "terminal-measurement", "mid-circuit"):
            fail(f"{name}: bad regime {trailer['stats']['regime']!r}")
        print(f"{name}: HTTP histogram bit-identical to CLI "
              f"({len(cli.splitlines())} lines, regime "
              f"{trailer['stats']['regime']})")


def check_verify(addr):
    qasm = open(f"circuits/{CIRCUITS[0]}.qasm").read()
    status, body = post(addr, "/v1/verify",
                        {"left": qasm, "right": qasm,
                         "strategy": "proportional"})
    if status != 200:
        fail(f"/v1/verify returned {status}: {body[:200]}")
    doc = json.loads(body)
    check_telemetry("/v1/verify", doc)
    if not doc.get("equivalent") or doc.get("verdict") != "equivalent":
        fail(f"/v1/verify: circuit not equivalent to itself: {body[:200]}")
    print(f"verify: {CIRCUITS[0]} ≡ itself "
          f"(peak {doc['peak_nodes']} nodes)")


# The panic hook fires inside the per-shot worker loop, which only runs in
# the mid-circuit regime (measure-and-branch forces per-shot re-execution);
# measurement-free circuits sample from one run and never enter it.
MID_CIRCUIT = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
creg c[1];
h q[0];
measure q[0] -> c[0];
if(c==1) x q[0];
measure q[0] -> c[0];
"""


def check_panic_containment(addr):
    qasm = MID_CIRCUIT
    status, body = post(addr, "/v1/shots",
                        {"qasm": qasm, "shots": 256, "seed": SEED,
                         "test_panic_at_shot": 10})
    if status != 500:
        fail(f"panic hook: expected 500, got {status}: {body[:200]}")
    doc = json.loads(body)
    if doc["error"]["code"] != "worker_panicked":
        fail(f"panic hook: expected code worker_panicked, got {body[:200]}")
    # The daemon must survive its own 500: retry without the hook.
    status, body = post(addr, "/v1/shots",
                        {"qasm": qasm, "shots": 256, "seed": SEED})
    if status != 200:
        fail(f"daemon did not survive the panic: retry got {status}")
    check_telemetry("/v1/shots retry trailer", json.loads(body.splitlines()[-1]))
    print("panic containment: typed 500, daemon kept serving")


# Ten qubits of `ry` and `cx` layers: more than 50 nodes, so a request
# capped there without the dense rung is refused with a 422.
ENTANGLING = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[10];\n" + "".join(
    "".join(f"ry({0.37 + 0.11 * (layer * 10 + q)}) q[{q}];\n" for q in range(10))
    + "".join(f"cx q[{q}],q[{q + 1}];\n" for q in range(9))
    for layer in range(4))


def check_simulate_and_session(addr):
    """The routes the checks above do not read: one run, one refusal, one
    session from creation to deletion."""
    replies = []
    status, body = post(addr, "/v1/simulate", {"qasm": MID_CIRCUIT, "seed": SEED})
    replies.append(("/v1/simulate", status, 200, body))
    status, body = post(addr, "/v1/simulate",
                        {"qasm": ENTANGLING, "limits": {"max_nodes": 50},
                         "dense_fallback": False})
    replies.append(("/v1/simulate over its node budget", status, 422, body))
    status, body = post(addr, "/v1/sessions", {"qasm": MID_CIRCUIT})
    replies.append(("/v1/sessions", status, 201, body))
    if status == 201:
        session = json.loads(body)["session"]
        for action, ask in [("step", {}), ("play", {"seed": SEED})]:
            route = f"/v1/sessions/{session}/{action}"
            status, body = post(addr, route, ask)
            replies.append((route, status, 200, body))
        route = f"DELETE /v1/sessions/{session}"
        status, body = post(addr, f"/v1/sessions/{session}", None, "DELETE")
        replies.append((route, status, 200, body))
    for route, status, expected, body in replies:
        if status != expected:
            fail(f"{route} returned {status}: {body[:200]}")
        check_telemetry(route, json.loads(body))
    print(f"telemetry: {len(replies)} simulate/session responses, a 422 and "
          f"a DELETE included, embed a valid {check_trace.METRICS_SCHEMA} "
          f"snapshot")


def check_quota(addr):
    qasm = open(f"circuits/{CIRCUITS[0]}.qasm").read()
    status, body = post(addr, "/v1/shots",
                        {"qasm": qasm, "shots": QUOTA_SHOTS + 1})
    if status != 429:
        fail(f"over-quota ask: expected 429, got {status}: {body[:200]}")
    doc = json.loads(body)
    err = doc["error"]
    if err["code"] != "over_quota" or err.get("budget") != "shots":
        fail(f"over-quota ask: bad error body: {body[:200]}")
    print("quota: over-ceiling shots ask rejected with a typed 429 "
          "naming 'shots'")


def main():
    qdd = sys.argv[1] if len(sys.argv) > 1 else "target/release/qdd"
    if not os.path.exists(qdd):
        fail(f"binary not found: {qdd} (build with cargo build --release)")
    proc, addr = start_daemon(qdd)
    try:
        check_histograms(qdd, addr)
        check_verify(addr)
        check_panic_containment(addr)
        check_simulate_and_session(addr)
        check_quota(addr)
    finally:
        proc.kill()
        proc.wait()
    print("serve_check: all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
