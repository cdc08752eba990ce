"""Transport hardening against hostile peers.

Bad, negative or conflicting ``Content-Length``, unsupported
``Transfer-Encoding``, oversized declarations, torn bodies, stalled and
trickled reads — and the hardening flags (``read_timeout_ms``,
``max_body_bytes``). The probes are the real attack injectors from
:mod:`repro.chaos.transport`, so the scenarios and the test suite
exercise identical wire traffic.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.chaos.transport import oversized_body, slow_loris, torn_body
from repro.serve import ServeClient, start_async_in_thread
from repro.serve.server import DEFAULT_MAX_BODY_BYTES


@pytest.fixture
def async_hardened(app):
    """A hardened server: tight read deadline, small body cap."""
    handle = start_async_in_thread(
        app, read_timeout_ms=300.0, max_body_bytes=2048
    )
    try:
        yield handle
    finally:
        handle.stop()


def _raw(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        except (socket.timeout, OSError):
            pass
        return response


@pytest.fixture
def plain(app):
    """A server started in a thread with no hardening flags."""
    handle = start_async_in_thread(app)
    try:
        yield handle
    finally:
        handle.stop()


def _still_serving(port: int) -> bool:
    return ServeClient.connect(port=port).healthz()["status"] == "ok"


class TestThreadedEdges:
    """Refusals that need no hardening flag, and cost only their peer.

    The parser refuses these on a default server; the refused peer loses
    its connection while the server goes on answering everyone else.
    """

    def test_bad_content_length_gets_400(self, plain, rejected):
        response = _raw(
            plain.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
        )
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"bad_content_length" in response
        assert rejected("bad_content_length") == 1
        assert _still_serving(plain.port)

    def test_negative_content_length_gets_400(self, plain, rejected):
        response = _raw(
            plain.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: -7\r\n\r\n",
        )
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"bad_content_length" in response
        assert rejected("bad_content_length") == 1
        assert _still_serving(plain.port)

    def test_oversized_declaration_gets_413_before_any_read(
        self, plain, rejected
    ):
        result = oversized_body(
            "127.0.0.1", plain.port, declared=DEFAULT_MAX_BODY_BYTES + 1
        )
        assert result["status"] == 413
        assert result["elapsed_s"] < 2.0
        assert rejected("body_too_large") == 1
        assert _still_serving(plain.port)

    def test_torn_body_gets_400(self, plain, rejected):
        result = torn_body(
            "127.0.0.1", plain.port, declared=512, sent=b'{"db": "aep'
        )
        assert result["status"] == 400
        assert json.loads(result["body"])["error"]["code"] == "incomplete_body"
        assert rejected("incomplete_body") == 1
        assert _still_serving(plain.port)


class TestThreadedDefaults:
    """Even with no flags, the body cap is on (the default limit)."""

    def test_default_cap_rejects_a_terabyte(self, plain, rejected):
        result = oversized_body("127.0.0.1", plain.port, declared=1 << 40)
        assert result["status"] == 413
        assert result["elapsed_s"] < 2.0  # refused before any body read
        assert rejected("body_too_large") == 1


class TestAsyncEdges:
    def test_oversized_declaration_gets_413(self, async_hardened):
        result = oversized_body(
            "127.0.0.1", async_hardened.port, declared=1 << 40
        )
        assert result["status"] == 413
        assert result["elapsed_s"] < 2.0  # refused before any body read

    def test_negative_content_length_gets_400(self, async_hardened):
        response = _raw(
            async_hardened.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: -7\r\n\r\n",
        )
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"bad_content_length" in response

    def test_trickling_loris_is_cut_by_the_whole_read_deadline(
        self, async_hardened
    ):
        # Continuous 50ms drip: resets a per-recv timeout, but the
        # transport bounds the *whole* head read with wait_for.
        result = slow_loris(
            "127.0.0.1",
            async_hardened.port,
            hold_s=3.0,
            drip_interval_s=0.05,
        )
        assert result["cut_off"]
        assert result["elapsed_s"] < 2.5

    def test_stalled_loris_is_cut_by_the_read_deadline(self, async_hardened):
        # Stalls between bytes longer than the 300ms deadline; without
        # the deadline it would sit for the full hold window.
        result = slow_loris(
            "127.0.0.1",
            async_hardened.port,
            hold_s=3.0,
            drip_interval_s=0.6,
        )
        assert result["cut_off"]
        assert result["elapsed_s"] < 2.5

    def test_torn_body_never_reaches_the_app(self, async_hardened, rejected):
        result = torn_body(
            "127.0.0.1",
            async_hardened.port,
            declared=512,
            sent=b'{"db": "aep',
        )
        assert result["status"] == 400
        assert json.loads(result["body"])["error"]["code"] == "incomplete_body"
        assert rejected("incomplete_body") == 1

    def test_normal_traffic_unaffected_by_hardening(self, async_hardened):
        client = ServeClient.connect(port=async_hardened.port)
        session = client.create_session(db="aep")
        answer = client.ask(
            session["id"], "How many audiences were created in January?"
        )
        assert answer["turns"] == 2

    def test_default_cap_rejects_a_terabyte(self, app):
        handle = start_async_in_thread(app)  # no hardening flags
        try:
            result = oversized_body(
                "127.0.0.1", handle.port, declared=DEFAULT_MAX_BODY_BYTES + 1
            )
        finally:
            handle.stop()
        assert result["status"] == 413


class TestAmbiguousFraming:
    """Only ``Content-Length`` framing is spoken, and only unambiguously.

    A chunked body the transport does not decode would reach the app as
    an empty body, and its chunk bytes would then parse as a second
    request; duplicate lengths that disagree leave the body's end to
    guesswork. Both are refused, and the connection closed.
    """

    def test_transfer_encoding_gets_501_and_close(
        self, async_hardened, rejected
    ):
        response = _raw(
            async_hardened.port,
            b"POST /sessions HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"d\r\n{\"db\": \"aep\"}\r\n0\r\n\r\n",
        )
        # One reply, then EOF: the chunk bytes never became a request.
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.startswith(b"HTTP/1.1 501 ")
        assert b"unsupported_transfer_encoding" in response
        assert rejected("unsupported_transfer_encoding") == 1

    def test_conflicting_content_lengths_get_400_and_close(
        self, async_hardened, rejected
    ):
        response = _raw(
            async_hardened.port,
            b"POST /sessions HTTP/1.1\r\n"
            b"Content-Length: 13\r\n"
            b"Content-Length: 0\r\n\r\n"
            b'{"db": "aep"}',
        )
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"conflicting_content_length" in response
        assert rejected("conflicting_content_length") == 1

    def test_repeated_equal_content_length_is_accepted(self, async_hardened):
        response = _raw(
            async_hardened.port,
            b"POST /sessions HTTP/1.1\r\n"
            b"Content-Length: 13\r\n"
            b"Content-Length: 13\r\n"
            b"Connection: close\r\n\r\n"
            b'{"db": "aep"}',
        )
        assert response.startswith(b"HTTP/1.1 201 ")
