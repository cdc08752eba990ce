"""The HTTP transport of the session server: one asyncio event loop.

It serves the transport-free :class:`~repro.serve.server.ServeApp` —
its routes, bytes and correlation-id semantics — from a single
``asyncio`` event loop:

* **Connections live on the loop.** ``asyncio.start_server`` plus a
  minimal HTTP/1.1 parser (request line, headers, ``Content-Length``
  body). Connections persist until ``Connection: close``, EOF, or the
  end of an HTTP/1.0 exchange that did not ask for ``keep-alive``. Ten
  thousand idle connections cost ten thousand small buffers, not
  threads.
* **App work never blocks the loop.** ``ServeApp.handle_request`` is
  synchronous and LLM-bound, so it is dispatched to a bounded request
  executor via ``run_in_executor``; the loop keeps accepting, parsing,
  and replying while workers grind.
* **Saturation is shed on the loop.** When the executor backlog exceeds
  ``max_pending``, LLM-bound posts (``ask``/``feedback``) are refused
  *before* consuming a worker thread — through
  :meth:`LoadShedGate.shed`, so transport sheds land in the same
  counters and ``/statusz`` surfaces as app-level sheds. Health probes
  and reads are never shed here: they must stay cheap for balancers.
* **Batching coalesces by loop tick.** The server calls
  :meth:`ServeApp.enable_loop_batching`, so per-tenant coalescers are
  :class:`~repro.llm.dispatch.LoopBatchingChatModel` — queueing on the
  loop and dispatching batches on a separate executor so request
  workers never deadlock behind their own batch.
* **Hostile peers are bounded.** ``Content-Length`` is checked against
  ``max_body_bytes`` *before* the body allocation (413); malformed,
  negative or conflicting lengths are a 400, any ``Transfer-Encoding``
  a 501, and a body cut short by the peer a 400 ``incomplete_body``.
  With ``read_timeout_ms`` set every read — head or body — carries a
  deadline, so a slow-loris peer gets a 408 instead of a parked
  coroutine holding buffers forever. Each refusal closes the connection
  (its framing is no longer trusted) and is counted in
  ``serve.transport.rejected`` under its error code.
* **The loop watches itself.** :class:`LoopHealth` measures scheduling
  lag by sleep overshoot; the snapshot feeds ``/statusz`` (``"loop"``
  section) and the ``fisql_serve_loop_lag_ms`` /
  ``fisql_serve_executor_queue`` gauges on ``/metrics``.

Drain: SIGINT/SIGTERM stops admission (``ServeApp.begin_drain``),
in-flight requests finish within ``drain_grace`` seconds, then the
listener closes and a "fisql-serve drained" line prints.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _HTTP_REASONS
from typing import Callable, Optional

from repro import obs
from repro.serve.protocol import error_payload, json_encode
from repro.serve.server import (
    DEFAULT_DRAIN_GRACE,
    DEFAULT_MAX_BODY_BYTES,
    JSON,
    ServeApp,
    _retry_after_header,
)

#: Default size of the request executor (concurrent app dispatches).
DEFAULT_ASYNC_WORKERS = 8

#: Seconds between loop-lag probes.
_HEALTH_INTERVAL_S = 0.25

#: Seconds of lag history kept for the "max" gauge.
_HEALTH_WINDOW_S = 60.0


class LoopHealth:
    """Event-loop scheduling lag, measured by sleep overshoot.

    A coroutine sleeps ``interval_s`` and records how late it woke up:
    on an unblocked loop the overshoot is microseconds; a handler that
    stalls the loop for 80ms shows up as an ~80ms spike. ``snapshot``
    is thread-safe — ``/statusz`` and ``/metrics`` render from executor
    threads.
    """

    def __init__(
        self,
        interval_s: float = _HEALTH_INTERVAL_S,
        window_s: float = _HEALTH_WINDOW_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._interval = interval_s
        self._window = window_s
        self._clock = clock
        self._lock = threading.Lock()
        self._last_lag_ms = 0.0
        self._peaks: deque = deque()  # (monotonic stamp, lag_ms)
        self._ticks = 0
        self._task: Optional[asyncio.Task] = None

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._task = loop.create_task(self._run(), name="fisql-loop-health")

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    async def _run(self) -> None:
        while True:
            before = self._clock()
            await asyncio.sleep(self._interval)
            lag_ms = max(
                0.0, (self._clock() - before - self._interval) * 1000.0
            )
            self._record(lag_ms)

    def _record(self, lag_ms: float) -> None:
        now = self._clock()
        with self._lock:
            self._ticks += 1
            self._last_lag_ms = lag_ms
            self._peaks.append((now, lag_ms))
            horizon = now - self._window
            while self._peaks and self._peaks[0][0] < horizon:
                self._peaks.popleft()

    def snapshot(self) -> dict:
        with self._lock:
            peak = max((lag for _stamp, lag in self._peaks), default=0.0)
            return {
                "loop_lag_ms": round(self._last_lag_ms, 3),
                "loop_lag_max_ms": round(peak, 3),
                "ticks": self._ticks,
            }


class AsyncServeServer:
    """One :class:`ServeApp` behind an ``asyncio.start_server`` listener.

    ``workers`` bounds concurrent app dispatches; up to ``max_pending``
    further LLM-bound requests may queue behind them before the
    transport sheds (``executor_saturated``). Construct, then ``await
    start()`` from a running loop; ``await stop()`` closes the listener
    and both executors.
    """

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = DEFAULT_ASYNC_WORKERS,
        max_pending: Optional[int] = None,
        read_timeout_ms: Optional[float] = None,
        max_body_bytes: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if max_pending is not None and max_pending < 0:
            raise ValueError(f"max_pending must be >= 0: {max_pending}")
        if read_timeout_ms is not None and read_timeout_ms <= 0:
            raise ValueError(f"read_timeout_ms must be > 0: {read_timeout_ms}")
        if max_body_bytes is not None and max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1: {max_body_bytes}")
        self.app = app
        self.host = host
        self._port = port
        self._workers = workers
        self._max_pending = (
            workers * 4 if max_pending is None else max_pending
        )
        self._read_timeout_s = (
            None if read_timeout_ms is None else read_timeout_ms / 1000.0
        )
        self._max_body_bytes = (
            DEFAULT_MAX_BODY_BYTES if max_body_bytes is None else max_body_bytes
        )
        self._request_pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="aserve"
        )
        # Batches dispatch on their own threads: a request worker waiting
        # on its batch must never be the thread the batch needs to run.
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=max(2, workers // 2), thread_name_prefix="aserve-llm"
        )
        self._health = LoopHealth()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight = 0  # loop-confined writes; racy reads are fine
        self._sheds = 0
        self._conn_writers: set = set()
        self._conn_tasks: set = set()

    @property
    def port(self) -> int:
        return self._port

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        # Must precede the first tenant stack: per-tenant LLM stacks are
        # built lazily and pick their coalescer flavor at build time.
        self.app.enable_loop_batching(loop, self._dispatch_pool)
        self.app.set_loop_health(self.loop_snapshot)
        self._health.start(loop)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self._health.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Kick lingering keep-alive connections loose and let their
        # handler tasks finish before the loop is torn down under them.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._request_pool.shutdown(wait=False)
        self._dispatch_pool.shutdown(wait=False)

    def loop_snapshot(self) -> dict:
        """The ``/statusz`` "loop" section and ``/metrics`` gauge source."""
        view = self._health.snapshot()
        inflight = self._inflight
        view.update(
            {
                "transport": "async",
                "executor_workers": self._workers,
                "executor_inflight": min(inflight, self._workers),
                "executor_queue": max(0, inflight - self._workers),
                "executor_max_pending": self._max_pending,
                "sheds": self._sheds,
            }
        )
        return view

    # -- connection handling ----------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_writers.add(writer)
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    head = await self._read(reader.readuntil(b"\r\n\r\n"))
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client closed (possibly mid-request)
                except asyncio.TimeoutError:
                    # Slow loris: the head never completed within the
                    # read deadline. 408 and cut the connection loose.
                    await self._refuse(
                        writer,
                        408,
                        "read_timeout",
                        "timed out reading the request head",
                    )
                    break
                except asyncio.LimitOverrunError:
                    await self._refuse(
                        writer,
                        431,
                        "header_too_large",
                        "request header section too large",
                    )
                    break
                try:
                    request = _parse_head(head, self._max_body_bytes)
                except _Refusal as refusal:
                    await self._refuse(writer, *refusal.args)
                    break
                method, path, headers, length, keep_alive = request
                body = b""
                if length > 0:
                    try:
                        body = await self._read(reader.readexactly(length))
                    except asyncio.IncompleteReadError as error:
                        # Torn body: the peer stopped sending before
                        # Content-Length bytes; never hand half a
                        # request to the app.
                        await self._refuse(
                            writer,
                            400,
                            "incomplete_body",
                            "connection closed after "
                            f"{len(error.partial)} of {length} body bytes",
                        )
                        break
                    except asyncio.TimeoutError:
                        await self._refuse(
                            writer,
                            408,
                            "read_timeout",
                            "timed out reading the request body",
                        )
                        break
                await self._respond(writer, method, path, body, headers)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read(self, read_coro):
        """One read operation, bounded by the per-read deadline (if any)."""
        if self._read_timeout_s is None:
            return await read_coro
        return await asyncio.wait_for(read_coro, self._read_timeout_s)

    def _saturated(self, method: str, path: str) -> bool:
        if self._inflight < self._workers + self._max_pending:
            return False
        return method == "POST" and (
            path.endswith("/ask") or path.endswith("/feedback")
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        headers: dict,
    ) -> None:
        if self._saturated(method, path):
            # Refused on the loop, before a worker slot is consumed —
            # but counted in the app's gate like any other shed.
            self._sheds += 1
            error = self.app.gate.shed(
                "executor_saturated",
                f"async transport backlog is full ({self._inflight} "
                "requests queued or running); retry shortly",
            )
            await self._write(
                writer,
                503,
                JSON,
                json_encode(
                    error_payload(error.reason, str(error), retryable=True)
                ),
                {
                    "Retry-After": _retry_after_header(
                        error.retry_after_s or 1.0
                    )
                },
            )
            return
        self._inflight += 1
        try:
            status, ctype, out, extra = await self._loop.run_in_executor(
                self._request_pool,
                functools.partial(
                    self.app.handle_request,
                    method,
                    path,
                    body,
                    headers=headers,
                ),
            )
        finally:
            self._inflight -= 1
        await self._write(writer, status, ctype, out, extra)

    # -- response writing -------------------------------------------------------

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        ctype: str,
        body: bytes,
        extra_headers: Optional[dict] = None,
    ) -> None:
        reason = _HTTP_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        # One write, so head and body leave in one send and one segment.
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _refuse(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        code: str,
        message: str,
    ) -> None:
        """Answer a request the app never sees, count it, close after."""
        obs.count("serve.transport.rejected", reason=code)
        await self._write(
            writer,
            status,
            JSON,
            json_encode(error_payload(code, message)),
            {"Connection": "close"},
        )


class _Refusal(Exception):
    """A request the transport answers itself: ``(status, code, message)``."""


def _parse_head(head: bytes, max_body_bytes: int) -> tuple:
    """``(method, path, headers, body length, keep-alive)`` of one head.

    Header names are lowercased. Raises :class:`_Refusal` for a head the
    transport must refuse: a malformed request line or header, any
    ``Transfer-Encoding`` (only ``Content-Length`` framing is spoken),
    a malformed, negative or conflicting ``Content-Length``, or one
    beyond ``max_body_bytes`` — refused before the allocation, since
    ``Content-Length`` is attacker-controlled and ``readexactly`` is not.
    """
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if (
        len(parts) != 3
        or not parts[0]
        or not parts[1].startswith("/")
        or not parts[2].startswith("HTTP/1.")
    ):
        raise _Refusal(400, "malformed_request", "malformed HTTP request")
    method, path, version = parts
    headers: dict = {}
    lengths: set = set()
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        name = name.strip().lower()
        if not sep or not name:
            raise _Refusal(400, "malformed_request", "malformed HTTP header")
        headers[name] = value.strip()
        if name == "content-length":
            lengths.add(headers[name])
    if "transfer-encoding" in headers:
        raise _Refusal(
            501,
            "unsupported_transfer_encoding",
            f"Transfer-Encoding {headers['transfer-encoding']!r} is not "
            "supported; send the body with a Content-Length",
        )
    if len(lengths) > 1:
        raise _Refusal(
            400,
            "conflicting_content_length",
            f"conflicting Content-Length headers: {sorted(lengths)}",
        )
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _Refusal(
            400, "bad_content_length", f"bad Content-Length: {raw_length!r}"
        )
    length = int(raw_length)
    if length > max_body_bytes:
        raise _Refusal(
            413,
            "body_too_large",
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
        )
    connection = {
        token.strip()
        for token in headers.get("connection", "").lower().split(",")
    }
    if version == "HTTP/1.0":
        keep_alive = "keep-alive" in connection
    else:
        keep_alive = "close" not in connection
    return method, path, headers, length, keep_alive


# -- entrypoints ---------------------------------------------------------------


async def _run_async(
    app: ServeApp,
    host: str,
    port: int,
    drain_grace: float,
    workers: int,
    max_pending: Optional[int],
    install_signals: bool,
    read_timeout_ms: Optional[float] = None,
    max_body_bytes: Optional[int] = None,
) -> int:
    server = AsyncServeServer(
        app,
        host,
        port,
        workers=workers,
        max_pending=max_pending,
        read_timeout_ms=read_timeout_ms,
        max_body_bytes=max_body_bytes,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    if install_signals:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without loop signals
    print(
        f"fisql-serve listening on http://{host}:{server.port} "
        f"({len(app.databases)} databases hosted)"
    )
    await stop.wait()
    app.begin_drain()
    await loop.run_in_executor(None, app.await_idle, drain_grace)
    await server.stop()
    stats = app.manager.stats()
    print(
        "fisql-serve drained: "
        f"{stats['created']} sessions served, {stats['resident']} resident"
    )
    return 0


def run_async_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    drain_grace: float = DEFAULT_DRAIN_GRACE,
    workers: int = DEFAULT_ASYNC_WORKERS,
    max_pending: Optional[int] = None,
    install_signals: bool = True,
    read_timeout_ms: Optional[float] = None,
    max_body_bytes: Optional[int] = None,
) -> int:
    """Serve until SIGINT/SIGTERM, then drain gracefully and exit 0.

    The body of ``fisql-repro serve``.
    """
    return asyncio.run(
        _run_async(
            app,
            host,
            port,
            drain_grace,
            workers,
            max_pending,
            install_signals,
            read_timeout_ms=read_timeout_ms,
            max_body_bytes=max_body_bytes,
        )
    )


class AsyncServerHandle:
    """Test-side handle for a loop running on a daemon thread."""

    def __init__(self, holder: dict, thread: threading.Thread) -> None:
        self._holder = holder
        self._thread = thread

    @property
    def server(self) -> AsyncServeServer:
        return self._holder["server"]

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        loop: asyncio.AbstractEventLoop = self._holder["loop"]
        stop: asyncio.Event = self._holder["stop"]
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            return  # loop already gone
        self._thread.join(timeout)


def start_async_in_thread(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    max_pending: Optional[int] = None,
    read_timeout_ms: Optional[float] = None,
    max_body_bytes: Optional[int] = None,
) -> AsyncServerHandle:
    """Run the server on a daemon thread (tests, examples and tooling).

    Returns once the listener is bound; ``handle.stop()`` closes it down.
    """
    started = threading.Event()
    failure: dict = {}
    holder: dict = {}

    async def _main() -> None:
        server = AsyncServeServer(
            app,
            host,
            port,
            workers=workers,
            max_pending=max_pending,
            read_timeout_ms=read_timeout_ms,
            max_body_bytes=max_body_bytes,
        )
        await server.start()
        stop = asyncio.Event()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        holder["stop"] = stop
        started.set()
        await stop.wait()
        await server.stop()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except BaseException as error:  # surface bind failures to the caller
            failure["error"] = error
            started.set()

    thread = threading.Thread(target=_runner, name="fisql-aserve", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("async serve thread failed to start in time")
    if "error" in failure:
        raise failure["error"]
    return AsyncServerHandle(holder, thread)
