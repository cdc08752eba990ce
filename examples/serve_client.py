#!/usr/bin/env python3
"""The session server end-to-end: boot, converse over HTTP, drain.

Starts the :mod:`repro.serve` server in a thread on an ephemeral port,
drives a two-round ask → feedback → corrected conversation through
:class:`repro.serve.ServeClient` (a real socket, the same bytes a curl
user would see) with a caller-supplied ``X-Request-Id``, then prints the
server-side transcript, the ``/statusz`` telemetry view, and the
Prometheus ``/metrics`` exposition before draining gracefully.

Run:  python examples/serve_client.py
"""

from repro import obs
from repro.core import DemonstrationRetriever
from repro.datasets import build_aep_database, generate_aep_suite
from repro.serve import (
    CatalogEntry,
    ServeApp,
    ServeClient,
    start_async_in_thread,
)


def build_app() -> ServeApp:
    """One hosted database (the AEP workload) with its RAG demo pool."""
    database = build_aep_database()
    _traffic, demos = generate_aep_suite(n_questions=10)
    catalog = {"aep": CatalogEntry(database, DemonstrationRetriever(demos))}
    return ServeApp(catalog)


def main() -> None:
    obs.enable()  # the server is born instrumented: /metrics is live
    app = build_app()
    handle = start_async_in_thread(app)  # port 0 -> ephemeral
    client = ServeClient.connect(port=handle.port)

    session = client.create_session(db="aep", tenant="demo")
    session_id = session["id"]
    print(f"opened session {session_id} on db={session['db']}\n")

    reply = client.ask(
        session_id, "How many audiences were created in January?"
    )
    print(f"[round 0] SQL: {reply['answer']['sql']}")

    # Round 1: the model assumed the wrong year; say so — and tag the
    # request with our own correlation id, echoed back in the headers
    # and stamped on every span/log line it touches server-side.
    import json

    status, raw, headers = client.request_detailed(
        "POST",
        f"/sessions/{session_id}/feedback",
        {"feedback": "we are in 2024"},
        headers={"X-Request-Id": "example-feedback-1"},
    )
    assert status == 200
    reply = json.loads(raw)
    print(f"[round 1] SQL: {reply['answer']['sql']}")
    print(f"[round 1] X-Request-Id echoed: {headers.get('X-Request-Id')}")

    # Round 2: trim the projection.
    client.ask(session_id, "List the audiences created in June.")
    reply = client.feedback(session_id, "do not give descriptions")
    print(f"[round 2] SQL: {reply['answer']['sql']}")

    print("\n--- transcript (server side) " + "-" * 30)
    print(client.transcript(session_id)["transcript"])

    print("\n--- /healthz " + "-" * 46)
    print(client.healthz())

    print("\n--- /statusz " + "-" * 46)
    statusz = client.statusz()
    ask_window = statusz["telemetry"]["routes"]["ask"]["1m"]
    print(
        f"ask: {ask_window['count']} reqs, "
        f"p95 {ask_window['p95_ms']:.1f} ms (1m window)"
    )
    for tenant, view in statusz["telemetry"]["tenants"].items():
        slo = view["slo"]["1m"]
        print(
            f"tenant {tenant}: SLO attainment {slo['attainment']:.3f}, "
            f"burn {slo['burn_rate']:.2f}x"
        )

    print("\n--- /metrics " + "-" * 46)
    print(client.metrics())

    app.begin_drain()
    app.await_idle(timeout=5.0)
    handle.stop()
    print("server drained and stopped.")


if __name__ == "__main__":
    main()
