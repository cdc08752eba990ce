"""The asyncio transport: HTTP framing plus loop-aware extras.

Byte parity with the in-process transport is pinned in
``test_http_and_load``, and here across request-executor widths; here
too are the parts only an event loop offers —
loop-lag observability, executor-saturation shedding before a worker is
consumed, per-tick batch coalescing — and the HTTP/1.x edges of the
transport's own parser.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading

import pytest

from repro import obs
from repro.llm.dispatch import LoopBatchingChatModel
from repro.serve import (
    SessionManager,
    ServeApp,
    ServeClient,
    ServeClientError,
    TenantPolicy,
    start_async_in_thread,
)


def _fresh_app(aep_catalog, **kwargs) -> ServeApp:
    counter = itertools.count(1)
    return ServeApp(
        aep_catalog,
        manager=SessionManager(id_factory=lambda: f"s{next(counter)}"),
        **kwargs,
    )


@pytest.fixture
def async_handle(app):
    handle = start_async_in_thread(app)
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def async_client(async_handle):
    return ServeClient.connect(port=async_handle.port)


def _conversation(client: ServeClient) -> list:
    """One scripted session; returns the raw (status, body) transcript."""
    exchanges = []
    for method, path, payload in (
        ("POST", "/sessions", {"db": "aep", "tenant": "default"}),
        (
            "POST",
            "/sessions/s1/ask",
            {"question": "How many audiences were created in January?"},
        ),
        ("POST", "/sessions/s1/feedback", {"feedback": "we are in 2024"}),
        ("GET", "/sessions/s1/transcript", None),
        ("GET", "/sessions", None),
        ("GET", "/healthz", None),
        ("DELETE", "/sessions/s1", None),
    ):
        exchanges.append(client.request_raw(method, path, payload))
    return exchanges


class TestTransportParity:
    def test_async_bytes_equal_threaded_bytes(self, aep_catalog):
        # Requests run on the transport's executor threads; whether one
        # thread serves them all or four take turns must not show.
        transcripts = []
        for workers in (1, 4):
            handle = start_async_in_thread(
                _fresh_app(aep_catalog), workers=workers
            )
            try:
                client = ServeClient.connect(port=handle.port)
                transcripts.append(_conversation(client))
            finally:
                handle.stop()
        one_thread, four_threads = transcripts
        assert [status for status, _body in one_thread] == [
            201, 200, 200, 200, 200, 200, 200,
        ]
        assert four_threads == one_thread


class TestCorrelationIds:
    def test_echoes_well_formed_request_id(self, async_client):
        _status, _body, headers = async_client.request_detailed(
            "GET", "/healthz", headers={"X-Request-Id": "req-parity-1"}
        )
        assert headers["X-Request-Id"] == "req-parity-1"

    def test_mints_when_absent(self, async_client):
        _status, _body, headers = async_client.request_detailed(
            "GET", "/healthz"
        )
        assert headers["X-Request-Id"]


class TestLoopObservability:
    def test_statusz_has_loop_section(self, async_client):
        payload = async_client.statusz()
        loop = payload["loop"]
        assert loop["transport"] == "async"
        assert loop["executor_workers"] >= 1
        assert loop["executor_queue"] == 0
        assert loop["loop_lag_ms"] >= 0.0
        assert loop["loop_lag_max_ms"] >= loop["loop_lag_ms"] or (
            loop["loop_lag_max_ms"] >= 0.0
        )

    def test_metrics_export_loop_gauges(self, async_client):
        text = async_client.metrics()
        assert 'fisql_serve_loop_lag_ms{stat="last"}' in text
        assert 'fisql_serve_loop_lag_ms{stat="max"}' in text
        assert "fisql_serve_executor_queue 0" in text


class TestExecutorSaturation:
    def test_sheds_llm_posts_when_backlog_full(
        self, app, async_handle, async_client, enabled_obs
    ):
        session = async_client.create_session(db="aep")
        session_id = session["id"]
        # Force the saturation condition deterministically instead of
        # racing real slow requests against the executor.
        async_handle.server._inflight = 10_000
        try:
            with pytest.raises(ServeClientError) as excinfo:
                async_client.ask(session_id, "How many audiences?")
            assert excinfo.value.status == 503
            assert excinfo.value.payload["error"]["code"] == (
                "executor_saturated"
            )
            assert excinfo.value.retry_after is not None
            # Reads and probes are never shed at the transport.
            assert async_client.healthz()
            assert async_client.statusz()
        finally:
            async_handle.server._inflight = 0
        assert app.gate.stats()["shed"].get("executor_saturated") == 1
        assert async_handle.server.loop_snapshot()["sheds"] == 1
        # Back under the bound: asks are admitted again.
        assert async_client.ask(session_id, "How many audiences?")


class TestDrain:
    def test_drain_sheds_new_asks_and_keeps_probes(
        self, app, async_client
    ):
        session = async_client.create_session(db="aep")
        app.begin_drain()
        with pytest.raises(ServeClientError) as excinfo:
            async_client.ask(session["id"], "How many audiences?")
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"]["code"] == "draining"
        assert async_client.healthz()


class TestLoopBatching:
    def test_tenant_stack_uses_loop_batcher(self, aep_catalog):
        app = _fresh_app(
            aep_catalog,
            policy=TenantPolicy(batch_max=4, batch_wait_ms=10.0),
        )
        handle = start_async_in_thread(app)
        try:
            client = ServeClient.connect(port=handle.port)
            session = client.create_session(db="aep")
            session_id = session["id"]

            questions = [
                "How many audiences were created in January?",
                "How many segments were created in January?",
                "How many audiences were created in March?",
                "How many destinations were created in January?",
            ]
            results = [None] * len(questions)

            def ask(index: int) -> None:
                results[index] = client.ask(session_id, questions[index])

            threads = [
                threading.Thread(target=ask, args=(index,))
                for index in range(len(questions))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(result is not None for result in results)

            model = app._tenant_llms["default"]
            assert isinstance(model, LoopBatchingChatModel)
            assert model.dispatches >= 1
            assert model.queued == 0
        finally:
            handle.stop()

    def test_batcher_drains_with_the_app(self, aep_catalog):
        app = _fresh_app(
            aep_catalog,
            policy=TenantPolicy(batch_max=4, batch_wait_ms=10.0),
        )
        handle = start_async_in_thread(app)
        try:
            client = ServeClient.connect(port=handle.port)
            session = client.create_session(db="aep")
            client.ask(session["id"], "How many audiences?")
            app.begin_drain()
            model = app._tenant_llms["default"]
            assert model.draining
            assert app.await_idle(timeout=5.0)
        finally:
            handle.stop()


def _read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection.

    A reset counts as the close: a server that refuses a request closes
    with the unread rest of it still queued, which the kernel answers
    with a reset.
    """
    response = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            return response
        if not chunk:
            return response
        response += chunk


class TestHttpEdges:
    def test_malformed_request_line_gets_400(self, async_handle, rejected):
        with socket.create_connection(
            ("127.0.0.1", async_handle.port), timeout=10
        ) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            response = _read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"malformed_request" in response
        assert rejected("malformed_request") == 1

    def test_bad_content_length_gets_400(self, async_handle, rejected):
        with socket.create_connection(
            ("127.0.0.1", async_handle.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            response = _read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"bad_content_length" in response
        assert rejected("bad_content_length") == 1

    def test_oversized_head_gets_431(self, async_handle, rejected):
        with socket.create_connection(
            ("127.0.0.1", async_handle.port), timeout=10
        ) as sock:
            # Past the 64 KiB head limit, never terminated.
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000)
            response = _read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 431 ")
        assert b"header_too_large" in response
        assert rejected("header_too_large") == 1

    def test_http10_without_keep_alive_is_closed_after_the_reply(
        self, async_handle
    ):
        with socket.create_connection(
            ("127.0.0.1", async_handle.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            # A read-until-EOF client must not hang: the connection closes.
            response = _read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 200 ")
        assert json.loads(response.split(b"\r\n\r\n", 1)[1])["status"] == "ok"

    def test_keep_alive_serves_multiple_requests(self, async_handle):
        with socket.create_connection(
            ("127.0.0.1", async_handle.port), timeout=10
        ) as sock:
            for _round in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(65536)
                header_text, _sep, rest = head.partition(b"\r\n\r\n")
                length = int(
                    [
                        line.split(b":")[1]
                        for line in header_text.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                body = rest
                while len(body) < length:
                    body += sock.recv(65536)
                assert json.loads(body)["status"] == "ok"
