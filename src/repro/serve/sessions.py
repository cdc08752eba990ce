"""Thread-safe session registry: IDs, per-session locks, TTL + LRU.

:class:`SessionManager` owns the map from session IDs to live
:class:`~repro.core.chat.ChatSession` objects. Its concurrency model:

* One **manager lock** guards the registry map itself (create/lookup/
  evict). It is never held across a chat turn, nor across the disk
  write that persists an evicted session: the evicting request writes
  it after releasing the lock, and a resume of that session waits for
  the write to land.
* One **per-session lock** serializes the turns of a single conversation,
  so two racing requests against the same session cannot interleave their
  ask/feedback state. Different sessions proceed fully in parallel.

Capacity policy (checked on every ``create``):

1. **TTL sweep** — sessions idle longer than ``ttl_seconds`` are evicted
   (lazily on create, or explicitly via :meth:`sweep`).
2. **LRU eviction** — at ``max_sessions``, the least-recently-used *idle*
   session is evicted to admit the newcomer.
3. **Admission gate** — if every resident session is mid-request, the
   create is refused with :class:`SessionLimitError` (a 503 on the wire):
   shedding new conversations beats stalling live ones.

A session whose lock is held is never evicted, by TTL or LRU: eviction
must not yank a conversation out from under an in-flight turn.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro import obs
from repro.core.chat import ChatSession
from repro.errors import ReproError
from repro.serve.idempotency import IdempotencyIndex
from repro.serve.persistence import SessionStore

#: Default registry capacity.
DEFAULT_MAX_SESSIONS = 128


class SessionError(ReproError):
    """Base class for session-registry failures."""


class UnknownSessionError(SessionError):
    """The session ID is not (or no longer) resident."""

    def __init__(self, session_id: str) -> None:
        super().__init__(f"unknown session {session_id!r}")
        self.session_id = session_id


class SessionLimitError(SessionError):
    """The registry is full and nothing is evictable right now."""

    def __init__(self, max_sessions: int) -> None:
        super().__init__(
            f"session limit reached ({max_sessions}); all resident "
            "sessions are busy — retry shortly"
        )
        self.max_sessions = max_sessions


class SessionRecord:
    """One resident session and its bookkeeping."""

    __slots__ = (
        "session_id",
        "tenant",
        "db_id",
        "chat",
        "lock",
        "created_at",
        "last_used_at",
        "requests",
        "idempotency",
    )

    def __init__(
        self,
        session_id: str,
        tenant: str,
        db_id: str,
        chat: ChatSession,
        now: float,
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.db_id = db_id
        self.chat = chat
        self.lock = threading.Lock()
        self.created_at = now
        self.last_used_at = now
        self.requests = 0
        # Mutated only under `lock` (turns serialize on it), persisted
        # alongside the chat state so retries survive evict/resume.
        self.idempotency = IdempotencyIndex()


def _default_id_factory() -> Callable[[], str]:
    counter = itertools.count(1)
    prefix = os.urandom(3).hex()

    def make() -> str:
        return f"s-{prefix}-{next(counter):04d}"

    return make


class SessionManager:
    """Registry of live sessions with TTL + LRU eviction and admission."""

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        id_factory: Optional[Callable[[], str]] = None,
        store: Optional[SessionStore] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1: {max_sessions}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0: {ttl_seconds}")
        self._max_sessions = max_sessions
        self._ttl_seconds = ttl_seconds
        self._clock = clock
        self._id_factory = id_factory or _default_id_factory()
        self._store = store
        self._lock = threading.Lock()
        self._records: dict[str, SessionRecord] = {}
        # Evicted session id -> eviction reason, while its state is being
        # written to the store; ``_spilled`` is notified as each lands.
        self._spilling: dict[str, str] = {}
        self._spilled = threading.Condition(self._lock)
        self.created = 0
        self.evicted_ttl = 0
        self.evicted_lru = 0
        self.rejected = 0
        self.persisted = 0
        self.restored = 0

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def max_sessions(self) -> int:
        return self._max_sessions

    @property
    def store(self) -> Optional[SessionStore]:
        return self._store

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._records)

    def peek_tenant(self, session_id: str) -> Optional[str]:
        """A resident session's tenant without touching its per-session lock.

        The load-shedding gate needs the tenant *before* deciding whether
        to queue behind the session — peeking must never block on a turn.
        """
        with self._lock:
            record = self._records.get(session_id)
            return record.tenant if record is not None else None

    def stats(self) -> dict:
        """Lifetime counters plus current residency."""
        with self._lock:
            return {
                "resident": len(self._records),
                "max_sessions": self._max_sessions,
                "created": self.created,
                "evicted_ttl": self.evicted_ttl,
                "evicted_lru": self.evicted_lru,
                "rejected": self.rejected,
                "persisted": self.persisted,
                "restored": self.restored,
            }

    # -- lifecycle ------------------------------------------------------------------

    def create(
        self,
        chat_factory: Callable[[], ChatSession],
        tenant: str = "default",
        db_id: str = "",
        resume_id: Optional[str] = None,
    ) -> SessionRecord:
        """Admit a new session, evicting per the capacity policy.

        ``resume_id`` re-opens a previously evicted session: its persisted
        transcript is restored into the fresh chat and the session keeps
        its original id. Resume is move semantics — the persisted file is
        consumed on success.

        Raises:
            SessionLimitError: full and every resident session is busy.
            UnknownSessionError: ``resume_id`` has no persisted state.
            SessionError: ``resume_id`` is still resident, or its persisted
                tenant/database does not match the request.
        """
        evicted: list[SessionRecord] = []
        try:
            with self._lock:
                if resume_id is not None:
                    self._spilled.wait_for(
                        lambda: resume_id not in self._spilling
                    )
                now = self._clock()
                evicted.extend(self._sweep_locked(now))
                saved: Optional[dict] = None
                if resume_id is not None:
                    saved = self._load_for_resume_locked(
                        resume_id, tenant, db_id
                    )
                if len(self._records) >= self._max_sessions:
                    victim = self._lru_victim_locked()
                    if victim is None:
                        self.rejected += 1
                        obs.count("serve.sessions.rejected")
                        raise SessionLimitError(self._max_sessions)
                    self._evict_locked(victim, reason="lru")
                    evicted.append(victim)
                if resume_id is not None:
                    session_id = resume_id
                else:
                    session_id = self._id_factory()
                if session_id in self._records:
                    raise SessionError(
                        f"id factory produced a duplicate id {session_id!r}"
                    )
                chat = chat_factory()
                if saved is not None:
                    chat.restore_state(saved["state"])
                record = SessionRecord(session_id, tenant, db_id, chat, now)
                if saved is not None:
                    record.idempotency.restore(saved.get("idempotency"))
                self._records[session_id] = record
                self.created += 1
                obs.count("serve.sessions.created", tenant=tenant)
                if saved is not None:
                    assert self._store is not None
                    self._store.pop(session_id)
                    self.restored += 1
                    obs.count("serve.sessions.restored", tenant=tenant)
                return record
        finally:
            self._spill(evicted)

    def _load_for_resume_locked(
        self, resume_id: str, tenant: str, db_id: str
    ) -> dict:
        if resume_id in self._records:
            raise SessionError(
                f"session {resume_id!r} is still resident; use it directly "
                "instead of resuming"
            )
        if self._store is None:
            raise SessionError(
                "session persistence is not configured; cannot resume "
                f"{resume_id!r}"
            )
        saved = self._store.load(resume_id)
        if saved is None:
            raise UnknownSessionError(resume_id)
        if db_id and saved.get("db") != db_id:
            raise SessionError(
                f"session {resume_id!r} was opened against database "
                f"{saved.get('db')!r}, not {db_id!r}"
            )
        if saved.get("tenant") != tenant:
            raise SessionError(
                f"session {resume_id!r} belongs to tenant "
                f"{saved.get('tenant')!r}, not {tenant!r}"
            )
        return saved

    def remove(self, session_id: str) -> bool:
        """Drop a session; False when it was not resident."""
        with self._lock:
            return self._records.pop(session_id, None) is not None

    def sweep(self) -> list[str]:
        """Evict every TTL-expired idle session; returns the evicted IDs."""
        evicted: list[SessionRecord] = []
        try:
            with self._lock:
                evicted.extend(self._sweep_locked(self._clock()))
        finally:
            self._spill(evicted)
        return [record.session_id for record in evicted]

    @contextmanager
    def acquire(self, session_id: str) -> Iterator[SessionRecord]:
        """Hold a session's lock for the duration of one request.

        Blocks while another request is mid-turn on the same session.
        Raises :class:`UnknownSessionError` when the ID is not resident —
        including the (tiny) window where the session was evicted between
        lookup and lock acquisition.
        """
        with self._lock:
            record = self._records.get(session_id)
        if record is None:
            raise UnknownSessionError(session_id)
        with record.lock:
            with self._lock:
                if self._records.get(session_id) is not record:
                    raise UnknownSessionError(session_id)
                record.last_used_at = self._clock()
            try:
                yield record
            finally:
                with self._lock:
                    record.last_used_at = self._clock()
                    record.requests += 1

    # -- eviction internals (manager lock held) -------------------------------------

    def _sweep_locked(self, now: float) -> list[SessionRecord]:
        if self._ttl_seconds is None:
            return []
        expired = [
            record
            for record in self._records.values()
            if now - record.last_used_at > self._ttl_seconds
            and not record.lock.locked()
        ]
        for record in expired:
            self._evict_locked(record, reason="ttl")
        return expired

    def _lru_victim_locked(self) -> Optional[SessionRecord]:
        idle = [
            record
            for record in self._records.values()
            if not record.lock.locked()
        ]
        if not idle:
            return None
        return min(idle, key=lambda record: record.last_used_at)

    def _evict_locked(self, record: SessionRecord, reason: str) -> None:
        del self._records[record.session_id]
        if reason == "ttl":
            self.evicted_ttl += 1
        else:
            self.evicted_lru += 1
        obs.count("serve.sessions.evicted", reason=reason)
        if self._store is not None:
            self._spilling[record.session_id] = reason

    def _spill(self, evicted: list[SessionRecord]) -> None:
        """Persist evicted sessions (manager lock *not* held): they were
        idle and are out of the registry, so nothing races this read."""
        if self._store is None:
            return
        for record in evicted:
            try:
                persisted = self._store.save(
                    record.session_id,
                    record.tenant,
                    record.db_id,
                    record.chat.state(),
                    idempotency=record.idempotency.state(),
                )
            finally:
                with self._lock:
                    reason = self._spilling.pop(record.session_id)
                    self._spilled.notify_all()
            if persisted:
                with self._lock:
                    self.persisted += 1
                obs.count("serve.sessions.persisted", reason=reason)
