"""Session persistence: eviction writes JSON, resume restores the chat."""

import itertools
import json
import threading

import pytest

from repro.serve.persistence import SESSION_SCHEMA_VERSION, SessionStore
from repro.serve.protocol import json_decode, json_encode
from repro.serve.server import ServeApp
from repro.serve.sessions import (
    SessionError,
    SessionManager,
    UnknownSessionError,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeChat:
    """Chat stand-in with the state()/restore_state persistence surface."""

    def __init__(self) -> None:
        self.turns: list = []

    def state(self) -> dict:
        return {"turns": list(self.turns), "question": None, "sql": None}

    def restore_state(self, state: dict) -> None:
        self.turns = list(state.get("turns", []))


def make_manager(store=None, **kwargs) -> SessionManager:
    counter = itertools.count(1)
    kwargs.setdefault("id_factory", lambda: f"s{next(counter)}")
    return SessionManager(store=store, **kwargs)


class TestSessionStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SessionStore(tmp_path / "sessions")
        assert store.save("s1", "acme", "aep", {"turns": [1, 2]})
        document = store.load("s1")
        assert document["version"] == SESSION_SCHEMA_VERSION
        assert document["tenant"] == "acme"
        assert document["db"] == "aep"
        assert document["state"] == {"turns": [1, 2]}
        assert store.ids() == ["s1"]

    def test_pop_is_move_semantics(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save("s1", "t", "db", {"turns": []})
        assert store.pop("s1") is not None
        assert store.pop("s1") is None
        assert store.ids() == []
        assert store.restored == 1

    def test_unsafe_ids_refused(self, tmp_path):
        store = SessionStore(tmp_path)
        assert store.save("../evil", "t", "db", {}) is False
        assert store.load("a/b") is None
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_or_stale_files_ignored(self, tmp_path):
        store = SessionStore(tmp_path)
        (tmp_path / "bad.json").write_text("{nope", encoding="utf-8")
        stale = {"version": SESSION_SCHEMA_VERSION + 1, "state": {}}
        (tmp_path / "old.json").write_text(json.dumps(stale), encoding="utf-8")
        assert store.load("bad") is None
        assert store.load("old") is None


class TestManagerPersistence:
    def test_ttl_eviction_persists_state(self, tmp_path):
        clock = FakeClock()
        store = SessionStore(tmp_path)
        manager = make_manager(store=store, ttl_seconds=10.0, clock=clock)
        record = manager.create(FakeChat, tenant="acme", db_id="aep")
        record.chat.turns.append({"role": "user", "text": "hi"})
        clock.advance(11.0)
        assert manager.sweep() == ["s1"]
        assert store.ids() == ["s1"]
        assert manager.stats()["persisted"] == 1
        saved = store.load("s1")
        assert saved["state"]["turns"] == [{"role": "user", "text": "hi"}]

    def test_lru_eviction_persists_state(self, tmp_path):
        clock = FakeClock()
        store = SessionStore(tmp_path)
        manager = make_manager(store=store, max_sessions=1, clock=clock)
        manager.create(FakeChat)
        clock.advance(1.0)
        manager.create(FakeChat)
        assert store.ids() == ["s1"]
        assert manager.evicted_lru == 1

    def test_resume_restores_and_consumes_file(self, tmp_path):
        clock = FakeClock()
        store = SessionStore(tmp_path)
        manager = make_manager(store=store, ttl_seconds=10.0, clock=clock)
        record = manager.create(FakeChat, tenant="acme", db_id="aep")
        record.chat.turns.append({"role": "user", "text": "hi"})
        clock.advance(11.0)
        manager.sweep()

        resumed = manager.create(
            FakeChat, tenant="acme", db_id="aep", resume_id="s1"
        )
        assert resumed.session_id == "s1"  # keeps the original id
        assert resumed.chat.turns == [{"role": "user", "text": "hi"}]
        assert store.ids() == []  # move semantics
        assert manager.stats()["restored"] == 1

    def test_resume_resident_session_conflicts(self, tmp_path):
        manager = make_manager(store=SessionStore(tmp_path))
        manager.create(FakeChat)
        with pytest.raises(SessionError, match="still resident"):
            manager.create(FakeChat, resume_id="s1")

    def test_resume_unknown_id(self, tmp_path):
        manager = make_manager(store=SessionStore(tmp_path))
        with pytest.raises(UnknownSessionError):
            manager.create(FakeChat, resume_id="ghost")

    def test_resume_without_store_configured(self):
        manager = make_manager()
        with pytest.raises(SessionError, match="not configured"):
            manager.create(FakeChat, resume_id="s1")

    def test_resume_mismatched_tenant_or_db(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save("s9", "acme", "aep", {"turns": []})
        manager = make_manager(store=store)
        with pytest.raises(SessionError, match="tenant"):
            manager.create(FakeChat, tenant="rival", db_id="aep", resume_id="s9")
        with pytest.raises(SessionError, match="database"):
            manager.create(FakeChat, tenant="acme", db_id="other", resume_id="s9")
        assert store.ids() == ["s9"]  # failed resumes keep the file


class GatedStore(SessionStore):
    """A store whose saves park until the test opens the gate."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.saving = threading.Event()
        self.gate = threading.Event()

    def save(self, *args, **kwargs) -> bool:
        self.saving.set()
        assert self.gate.wait(timeout=10)
        return super().save(*args, **kwargs)


class TestSpillOutsideManagerLock:
    """Persisting an evicted session must not stall other sessions."""

    def _evict_in_background(self, tmp_path):
        clock = FakeClock()
        store = GatedStore(tmp_path)
        manager = make_manager(store=store, max_sessions=2, clock=clock)
        first = manager.create(FakeChat, tenant="acme", db_id="aep")
        first.chat.turns.append({"role": "user", "text": "hi"})
        clock.advance(1.0)
        manager.create(FakeChat, tenant="acme", db_id="aep")
        clock.advance(1.0)
        creator = threading.Thread(
            target=manager.create, args=(FakeChat, "acme", "aep")
        )
        creator.start()
        assert store.saving.wait(timeout=10)  # s1 evicted, save parked
        return manager, store, creator

    def test_other_sessions_proceed_while_a_save_is_parked(self, tmp_path):
        manager, store, creator = self._evict_in_background(tmp_path)
        seen = []

        def use_another_session():
            # Each of these takes the manager lock.
            seen.append(manager.peek_tenant("s2"))
            with manager.acquire("s2") as record:
                seen.append(record.session_id)
            seen.append(sorted(manager.ids()))

        user = threading.Thread(target=use_another_session)
        user.start()
        user.join(timeout=5)
        finished = not user.is_alive()
        store.gate.set()
        creator.join(timeout=10)
        user.join(timeout=10)
        assert finished, "blocked behind the parked save"
        assert seen == ["acme", "s2", ["s2", "s3"]]
        assert manager.stats()["persisted"] == 1
        assert store.ids() == ["s1"]

    def test_resume_waits_for_the_parked_save(self, tmp_path):
        manager, store, creator = self._evict_in_background(tmp_path)
        resumed = []
        resumer = threading.Thread(
            target=lambda: resumed.append(
                manager.create(FakeChat, "acme", "aep", resume_id="s1")
            )
        )
        resumer.start()
        resumer.join(timeout=0.2)
        assert resumer.is_alive() and not resumed
        store.gate.set()
        creator.join(timeout=10)
        resumer.join(timeout=10)
        assert [record.session_id for record in resumed] == ["s1"]
        assert resumed[0].chat.turns == [{"role": "user", "text": "hi"}]
        # s1's file was consumed; admitting it evicted s2 in turn.
        assert store.ids() == ["s2"]


class TestServeResume:
    def _app(self, aep_catalog, tmp_path, clock):
        counter = itertools.count(1)
        manager = SessionManager(
            store=SessionStore(tmp_path),
            ttl_seconds=10.0,
            clock=clock,
            id_factory=lambda: f"s{next(counter)}",
        )
        return ServeApp(aep_catalog, manager=manager, clock=clock)

    def _post(self, app, path, payload):
        status, _, body = app.handle("POST", path, json_encode(payload))
        return status, json_decode(body)

    def test_resume_continues_the_conversation(self, aep_catalog, tmp_path):
        clock = FakeClock()
        app = self._app(aep_catalog, tmp_path, clock)
        status, created = self._post(app, "/sessions", {"db": "aep"})
        assert status == 201
        session_id = created["session"]["id"]
        status, answer = self._post(
            app,
            f"/sessions/{session_id}/ask",
            {"question": "How many audiences were created in January?"},
        )
        assert status == 200
        turns_before = answer["turns"]

        clock.advance(11.0)
        app.manager.sweep()
        assert app.manager.ids() == []

        status, resumed = self._post(
            app, "/sessions", {"db": "aep", "resume": session_id}
        )
        assert status == 201
        assert resumed["restored"] is True
        assert resumed["session"]["id"] == session_id
        assert resumed["session"]["turns"] == turns_before
        # The restored session keeps answering feedback/questions.
        status, _ = self._post(
            app,
            f"/sessions/{session_id}/feedback",
            {"feedback": "we are in 2024"},
        )
        assert status == 200

    def test_resume_unknown_is_404(self, aep_catalog, tmp_path):
        app = self._app(aep_catalog, tmp_path, FakeClock())
        status, payload = self._post(
            app, "/sessions", {"db": "aep", "resume": "ghost"}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown_session"

    def test_resume_resident_is_conflict(self, aep_catalog, tmp_path):
        app = self._app(aep_catalog, tmp_path, FakeClock())
        _, created = self._post(app, "/sessions", {"db": "aep"})
        session_id = created["session"]["id"]
        status, payload = self._post(
            app, "/sessions", {"db": "aep", "resume": session_id}
        )
        assert status == 409
        assert payload["error"]["code"] == "conflict"
