"""Open-loop load generator over persistent keep-alive connections.

Sessions start on a schedule whatever the server's state (independent
analysts). Within a session each turn is due the moment the previous
answer arrives. Each of the ``connections`` workers owns one keep-alive
HTTP connection and always sends the earliest due request, so the
connections act as a client's pool. A turn's latency runs from when it
was due to when its answer arrived.
"""

from __future__ import annotations

import heapq
import http.client
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Optional

from sessions import Session, answer_key

#: How long after its scheduled end a phase may run to finish sessions.
GRACE_S = 1.0


@dataclass
class Result:
    """One turn as the generator saw it."""

    session: int
    turn: int
    kind: str
    due: float
    sent: Optional[float] = None
    received: Optional[float] = None
    status: Optional[int] = None
    ok: bool = False  # 2xx and, for answers, equal to the reference
    wrong: bool = False  # 2xx but a different answer than the reference
    lag: float = 0.0  # generator-side delay before sending
    request_id: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due to answer; infinite when never answered."""
        if self.received is None or not self.ok:
            return float("inf")
        return self.received - self.due


class Phase:
    """One fixed-rate run of sessions against the server."""

    def __init__(
        self,
        host: str,
        port: int,
        sessions: list[Session],
        duration: float,
        connections: int = 2,
        tag: str = "p",
    ) -> None:
        self.host, self.port = host, port
        self.sessions = sessions
        self.duration = duration
        self.connections = connections
        self.tag = tag
        self.results: list[Result] = []
        self._heap: list = []
        self._seq = 0
        self._cv = threading.Condition()
        self._live_ids: dict[int, str] = {}
        self._finished = 0
        self._done: set[int] = set()
        self._aborted: set[int] = set()
        self._waiting: dict[int, int] = {}  # origin -> resumer
        self.started = 0.0
        self.deadline = 0.0

    # -- scheduling (lock held) --------------------------------------------

    def _push(self, due: float, session: int, turn: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (due, self._seq, session, turn))

    def _finish(self, index: int, aborted: bool) -> None:
        self._finished += 1
        self._done.add(index)
        if aborted:
            self._aborted.add(index)
        resumer = self._waiting.pop(index, None)
        if resumer is not None:
            self._release(resumer, time.monotonic())

    def _release(self, index: int, now: float) -> None:
        """Schedule a resuming session once the session it resumes ended."""
        origin = self.sessions[index].resume_of
        if origin in self._aborted:
            self._abort_rest(index, 0, now)
            return
        due = max(self.started + self.sessions[index].offset, now)
        self._push(due, index, 0)

    def _abort_rest(self, index: int, turn: int, now: float) -> None:
        for later in range(turn, len(self.sessions[index].turns)):
            self.results.append(
                Result(index, later, self.sessions[index].turns[later].kind, now)
            )
        self._finish(index, aborted=True)

    # -- running --------------------------------------------------------------

    def run(self) -> list[Result]:
        self.started = time.monotonic() + 0.05
        self.deadline = self.started + self.duration + GRACE_S
        with self._cv:
            for index, session in enumerate(self.sessions):
                if session.resume_of is None:
                    self._push(self.started + session.offset, index, 0)
                else:
                    self._waiting[session.resume_of] = index
        helpers = [
            threading.Thread(target=self._worker, name=f"load-{n}", daemon=True)
            for n in range(1, self.connections)
        ]
        for helper in helpers:
            helper.start()
        self._worker()
        for helper in helpers:
            helper.join(timeout=self.duration + GRACE_S + 60)
        with self._cv:
            now = time.monotonic()
            for index, session in enumerate(self.sessions):
                if index in self._done:
                    continue
                sent = {r.turn for r in self.results if r.session == index}
                first = 0 if not sent else max(sent) + 1
                self._abort_rest(index, first, now)
        self.results.sort(key=lambda r: (r.session, r.turn))
        return self.results

    def _next(self, ready_at: float):
        with self._cv:
            while True:
                now = time.monotonic()
                if self._finished == len(self.sessions) or now >= self.deadline:
                    self._cv.notify_all()
                    return None
                if self._heap and self._heap[0][0] <= now:
                    due, _seq, index, turn = heapq.heappop(self._heap)
                    return due, index, turn, max(due, ready_at)
                wait = self.deadline - now
                if self._heap:
                    wait = min(wait, self._heap[0][0] - now)
                self._cv.wait(wait)

    def _worker(self) -> None:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            ready_at = time.monotonic()
            while True:
                item = self._next(ready_at)
                if item is None:
                    return
                due, index, turn, could_send = item
                self._send(connection, due, index, turn, could_send)
                ready_at = time.monotonic()
        finally:
            connection.close()

    def _send(self, connection, due, index, turn, could_send) -> None:
        session = self.sessions[index]
        spec = session.turns[turn]
        live_id = self._live_ids.get(index)
        if spec.kind == "create":
            path = "/sessions"
            body = spec.body
            if body is None:
                origin_id = self._live_ids[session.resume_of]
                body = json.dumps({"db": session.db, "resume": origin_id}).encode()
        else:
            path = f"/sessions/{live_id}/{spec.kind}"
            body = spec.body
        request_id = f"{self.tag}-{index}-{turn}"
        result = Result(index, turn, spec.kind, due, request_id=request_id)
        result.sent = time.monotonic()
        result.lag = result.sent - could_send
        try:
            connection.request(
                "POST",
                path,
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Request-Id": request_id,
                },
            )
            response = connection.getresponse()
            raw = response.read()
            result.received = time.monotonic()
            result.status = response.status
        except (OSError, http.client.HTTPException):
            connection.close()
            raw = b""
        if result.status == spec.status:
            payload = json.loads(raw)
            if spec.kind == "create":
                if session.resume_of is None:
                    self._live_ids[index] = payload["session"]["id"]
                else:
                    self._live_ids[index] = self._live_ids[session.resume_of]
                result.ok = True
            else:
                result.ok = answer_key(payload) == spec.answer
                result.wrong = not result.ok
        with self._cv:
            self.results.append(result)
            now = time.monotonic()
            if not result.ok:
                self._abort_rest(index, turn + 1, now)
            elif turn + 1 < len(session.turns):
                self._push(result.received, index, turn + 1)
            else:
                self._finish(index, aborted=False)
            self._cv.notify_all()


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``inf`` entries count as misses)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def summarise(phase: Phase, results: list[Result], limit_s: float) -> dict:
    """Latency by turn kind, failures, throughput, limit verdict.

    ``session_rate`` is the answers received correctly by the end of the
    phase's schedule, per second from its start to the last of them,
    divided by the phase's turns per session: the offered session rate
    while the server keeps up, and its capacity in sessions once it does
    not.
    """
    by_kind: dict[str, list[float]] = {}
    for result in results:
        by_kind.setdefault(result.kind, []).append(result.latency)
    end = phase.started + phase.duration
    answered = [r.received for r in results if r.ok and r.received <= end]
    turns_per_session = len(results) / len(phase.sessions)
    p95 = {kind: percentile(values, 0.95) for kind, values in by_kind.items()}
    last = max((r.received for r in results if r.received), default=phase.started)
    return {
        "failed": sum(1 for r in results if not r.ok),
        "wrong": sum(1 for r in results if r.wrong),
        "p95": p95,
        "passed": all(r.ok for r in results)
        and all(value <= limit_s for value in p95.values()),
        "session_rate": len(answered)
        / (max(answered, default=end) - phase.started)
        / turns_per_session,
        "wall": last - phase.started,
        "lag_p95": percentile([r.lag for r in results if r.sent is not None], 0.95),
    }
