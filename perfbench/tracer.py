"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each layer of ``repro`` from the
outside: nothing under ``src/`` changes. Every wrapped call records one
span ``(id, parent, layer, start_ns, end_ns)`` into a per-thread buffer,
with the parent taken from a per-thread stack, so nested calls link to
the span that caused them. A few layers also feed counters (rows out,
cache hits, distinct inputs) from the same wrapper.

Spans stay in memory until :meth:`Tracer.dump` writes them out; the
benchmark process reads them back with :func:`load` and turns them into
per-layer self time with :func:`analyse`.
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

#: Layer name -> wrapped callables, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "datasets": (
        "repro.datasets.spider:generate_spider_suite",
        "repro.datasets.aep:generate_aep_suite",
    ),
    "sql.storage": (
        "repro.sql.storage:TableData.insert",
        "repro.sql.storage:TableData.insert_named",
        "repro.sql.storage:TableData.replace_rows",
    ),
    "core.linking": (
        "repro.core.linking:identifier_tokens",
        "repro.core.linking:SchemaLinker.link_table",
        "repro.core.linking:SchemaLinker.guess_table",
        "repro.core.linking:SchemaLinker.link_column",
        "repro.core.linking:SchemaLinker.column_score",
        "repro.core.linking:SchemaLinker.name_column",
        "repro.core.linking:SchemaLinker.date_column",
        "repro.core.linking:SchemaLinker.description_column",
        "repro.core.linking:SchemaLinker.status_column",
        "repro.core.linking:SchemaLinker.column_anywhere",
    ),
    "nlp.similarity": ("repro.nlp.similarity:string_similarity",),
    "core.semparse": ("repro.core.semparse:SemanticParser.parse",),
    "core.retrieval": ("repro.core.retrieval:DemonstrationRetriever.retrieve",),
    "core.nl2sql": (
        "repro.core.nl2sql:Nl2SqlModel.predict",
        "repro.core.nl2sql:Nl2SqlModel.predict_batch",
    ),
    "llm.simulated": (
        "repro.llm.simulated:SimulatedLLM.complete",
        "repro.llm.simulated:SimulatedLLM.complete_batch",
        "repro.llm.simulated:derive_conventions",
        "repro.llm.simulated:merge_glossaries",
    ),
    "sql.parser": (
        "repro.sql.parser:parse_query",
        "repro.sql.parser:parse_statement",
        "repro.sql.parser:parse_expression",
    ),
    "sql.executor": ("repro.sql.executor:Executor.execute_query",),
    "core.routing": (
        "repro.core.routing:classify_feedback",
        "repro.core.routing:FeedbackRouter.route",
    ),
    "core.editor": (
        "repro.core.editor:FeedbackEditor.interpret",
        "repro.core.editor:FeedbackEditor.apply",
    ),
    "core.session": ("repro.core.session:FisqlPipeline.correct",),
    "core.rewrite": ("repro.core.rewrite:QueryRewriteBaseline.incorporate",),
    "core.user": (
        "repro.core.user:SimulatedAnnotator.can_annotate",
        "repro.core.user:SimulatedAnnotator.give_feedback",
    ),
    "eval.metrics": (
        "repro.eval.metrics:evaluate_model",
        "repro.eval.metrics:execution_correct",
        "repro.eval.metrics:correction_rate",
    ),
    "core.chat": (
        "repro.core.chat:ChatSession.ask",
        "repro.core.chat:ChatSession.give_feedback",
    ),
    "serve.handle": ("repro.serve.server:ServeApp.handle_request",),
    "llm.dispatch": ("repro.llm.dispatch:CompletionCache.get",),
    "semcache": (
        "repro.semcache.store:SemanticAnswerCache.lookup",
        "repro.semcache.store:SemanticAnswerCache.record_feedback_bypass",
        "repro.semcache.store:SemanticAnswerCache.store",
        "repro.semcache.store:SemanticAnswerCache.log_round",
    ),
    "durability.journal": ("repro.durability.journal:RunJournal.append",),
    "durability.session_store": (
        "repro.serve.persistence:SessionStore.save",
        "repro.serve.persistence:SessionStore.load",
        "repro.serve.persistence:SessionStore.pop",
    ),
}

#: Fields per span in the flat buffers.
SPAN_FIELDS = 5


class Tracer:
    """Records spans and counters from wrapped layer entry points."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array.array] = []
        self._counters: list[Counter] = []
        self._sets: list[dict[str, set]] = []
        self._registry_lock = threading.Lock()
        self.managers: list = []
        self.gates: list = []
        #: ``(request_id, route, handle_ns)`` per served request.
        self.handles: list = []
        self.first_ns: int | None = None
        self.last_ns: int | None = None

    # -- per-thread state -------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.buffer, local.counter, local.sets
        except AttributeError:
            local.stack = [0]
            local.buffer = array.array("q")
            local.counter = Counter()
            local.sets = {}
            with self._registry_lock:
                self._buffers.append(local.buffer)
                self._counters.append(local.counter)
                self._sets.append(local.sets)
            return local.stack, local.buffer, local.counter, local.sets

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, function, after=None):
        """``function`` recording one span in ``layer`` per call.

        ``after(args, kwargs, result, counter, sets)`` runs on success to
        feed the layer's counters.
        """
        index = self.layers.index(layer)
        ids = self._ids
        clock = time.perf_counter_ns
        state = self._state

        def traced(*args, **kwargs):
            stack, buffer, counter, sets = state()
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer.extend((span_id, parent, index, start, end))
            if after is not None:
                after(args, kwargs, result, counter, sets)
            return result

        return functools.wraps(function)(traced)

    def mark(self) -> None:
        """Note a request boundary; the first one restarts the counters.

        A server's counters then describe the requests it served, not
        the suite generation before it started listening.
        """
        now = time.perf_counter_ns()
        if self.first_ns is None:
            self.first_ns = now
            with self._registry_lock:
                for counter in self._counters:
                    counter.clear()
                for sets in self._sets:
                    sets.clear()
        self.last_ns = now

    # -- output -----------------------------------------------------------

    def dump(self, directory: str | os.PathLike) -> None:
        """Write spans (binary int64) and counters (JSON) under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._registry_lock:
            buffers = list(self._buffers)
            counters = list(self._counters)
            sets = list(self._sets)
        with open(directory / "spans.bin", "wb") as handle:
            for buffer in buffers:
                buffer.tofile(handle)
        total = Counter()
        for counter in counters:
            total.update(counter)
        distinct: dict[str, int] = {}
        for key in {key for per_thread in sets for key in per_thread}:
            union: set = set()
            for per_thread in sets:
                union |= per_thread.get(key, set())
            distinct[key] = len(union)
        evicted = sum(m.evicted_lru + m.evicted_ttl for m in self.managers)
        resumed = sum(m.restored for m in self.managers)
        shed = sum(g.shed_total for g in self.gates)
        document = {
            "layers": self.layers,
            "counters": dict(total),
            "distinct": distinct,
            "first_ns": self.first_ns,
            "last_ns": self.last_ns,
            "sessions_evicted": evicted,
            "sessions_resumed": resumed,
            "gate_shed": shed,
            "handles": self.handles,
        }
        (directory / "trace.json").write_text(json.dumps(document))


# -- counters fed by wrappers ---------------------------------------------------


def _similarity(args, kwargs, result, counter, sets):
    sets.setdefault("nlp.similarity", set()).add((args[0], args[1]))


def _parser(args, kwargs, result, counter, sets):
    sets.setdefault("sql.parser", set()).add(args[0])


def _executor(args, kwargs, result, counter, sets):
    counter["sql.executor.rows_out"] += len(result.rows)


def _insert(args, kwargs, result, counter, sets):
    counter["sql.storage.rows_inserted"] += 1


def _replace(args, kwargs, result, counter, sets):
    counter["sql.storage.rows_inserted"] += len(args[0].rows)


def _session(args, kwargs, result, counter, sets):
    counter["core.session.rounds"] += len(result.rounds)


def _cache_get(args, kwargs, result, counter, sets):
    counter["llm.dispatch.lookups"] += 1
    if result is not None:
        counter["llm.dispatch.hits"] += 1


def _semcache_lookup(args, kwargs, result, counter, sets):
    counter["semcache.lookups"] += 1
    counter[f"semcache.outcome.{result.outcome}"] += 1


def _semcache_bypass(args, kwargs, result, counter, sets):
    counter["semcache.lookups"] += 1
    counter["semcache.outcome.bypass"] += 1


def _journal_append(args, kwargs, result, counter, sets):
    counter["durability.journal.appends"] += 1


_AFTER = {
    "repro.nlp.similarity:string_similarity": _similarity,
    "repro.sql.parser:parse_query": _parser,
    "repro.sql.parser:parse_statement": _parser,
    "repro.sql.parser:parse_expression": _parser,
    "repro.sql.executor:Executor.execute_query": _executor,
    "repro.sql.storage:TableData.insert": _insert,
    "repro.sql.storage:TableData.insert_named": _insert,
    "repro.sql.storage:TableData.replace_rows": _replace,
    "repro.core.session:FisqlPipeline.correct": _session,
    "repro.llm.dispatch:CompletionCache.get": _cache_get,
    "repro.semcache.store:SemanticAnswerCache.lookup": _semcache_lookup,
    "repro.semcache.store:SemanticAnswerCache.record_feedback_bypass": _semcache_bypass,
    "repro.durability.journal:RunJournal.append": _journal_append,
}


def _handle_request(tracer: Tracer, function):
    """Wrap ``ServeApp.handle_request`` to keep per-request handle times."""
    records = tracer.handles

    @functools.wraps(function)
    def timed(self, method, path, raw_body=b"", headers=None):
        tracer.mark()
        start = time.perf_counter_ns()
        result = function(self, method, path, raw_body, headers)
        elapsed = time.perf_counter_ns() - start
        records.append((result[3].get("X-Request-Id"), self._match(path)[0], elapsed))
        tracer.mark()
        return result

    return timed


def _capture_instances(cls, sink: list) -> None:
    """Append every instance of ``cls`` created from now on to ``sink``."""
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink.append(self)

    cls.__init__ = init


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Patch every target in :data:`LAYERS` to record into ``tracer``.

    Class attributes are replaced on the class. Module-level functions are
    replaced in their home module and in every loaded ``repro`` module
    that imported them by name, so call sites bound before installation
    are traced too.
    """
    replaced: dict[int, object] = {}
    for layer, targets in LAYERS.items():
        for target in targets:
            module, owner, name = _resolve(target)
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            after = _AFTER.get(target)
            if isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(tracer.wrap(layer, raw.__func__, after)))
                continue
            wrapped = tracer.wrap(layer, raw, after)
            if target == "repro.serve.server:ServeApp.handle_request":
                # Outside the span, so the first request's span falls in
                # the window that starts at its mark.
                wrapped = _handle_request(tracer, wrapped)
            setattr(owner, name, wrapped)
            if owner is module:
                replaced[id(raw)] = wrapped
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and value is not wrapped:
                setattr(module, attr, wrapped)
    from repro.serve.overload import LoadShedGate
    from repro.serve.sessions import SessionManager

    _capture_instances(SessionManager, tracer.managers)
    _capture_instances(LoadShedGate, tracer.gates)
    _count_fsyncs(tracer)


def _count_fsyncs(tracer: Tracer) -> None:
    """Count ``os.fsync`` calls, attributed to the innermost traced layer."""
    original = os.fsync

    def fsync(fd):
        stack, _buffer, counter, _sets = tracer._state()
        # The innermost open span's layer is only written when it closes,
        # so count per span id and resolve ids to layers in analyse().
        counter[f"fsync.span.{stack[-1]}"] += 1
        return original(fd)

    os.fsync = fsync


# -- analysis -----------------------------------------------------------------


def load(directory: str | os.PathLike):
    """Read back what :meth:`Tracer.dump` wrote: ``(spans, document)``.

    ``spans`` is an ``(n, 5)`` int64 array of ``id, parent, layer, start,
    end`` rows.
    """
    import numpy as np

    directory = Path(directory)
    document = json.loads((directory / "trace.json").read_text())
    flat = np.fromfile(directory / "spans.bin", dtype=np.int64)
    return flat.reshape(-1, SPAN_FIELDS), document


def analyse(spans, document: dict, wall_ns: int) -> dict:
    """Per-layer calls and self time, and the coverage of ``wall_ns``.

    A span's self time is its duration minus the durations of its child
    spans. ``other_ms`` is the part of the wall that no top-level span
    covers (top-level spans of different threads are merged as intervals).
    """
    import numpy as np

    layers = document["layers"]
    result: dict = {"layers": {}}
    if len(spans) == 0:
        for layer in layers:
            result["layers"][layer] = {"calls": 0, "self_ms": 0.0}
        result["covered_ms"] = 0.0
        result["self_sum_ms"] = 0.0
        result["other_ms"] = wall_ns / 1e6
        result["fsync_by_layer"] = {}
        return result
    ids = spans[:, 0]
    parents = spans[:, 1]
    layer_of = spans[:, 2]
    durations = (spans[:, 4] - spans[:, 3]).astype(np.float64)
    size = int(ids.max()) + 1
    child_time = np.bincount(parents, weights=durations, minlength=size)
    self_time = durations - child_time[ids]
    calls = np.bincount(layer_of, minlength=len(layers))
    self_by_layer = np.bincount(layer_of, weights=self_time, minlength=len(layers))
    for index, layer in enumerate(layers):
        result["layers"][layer] = {
            "calls": int(calls[index]),
            "self_ms": float(self_by_layer[index]) / 1e6,
        }
    roots = spans[parents == 0]
    order = np.argsort(roots[:, 3], kind="stable")
    covered = 0
    current_start = current_end = None
    for start, end in roots[order][:, 3:5].tolist():
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    result["covered_ms"] = covered / 1e6
    result["self_sum_ms"] = float(self_time.sum()) / 1e6
    result["other_ms"] = max(wall_ns - covered, 0) / 1e6
    layer_by_id = np.zeros(size, dtype=np.int64) - 1
    layer_by_id[ids] = layer_of
    fsyncs: Counter = Counter()
    for key, amount in document["counters"].items():
        if key.startswith("fsync.span."):
            span_id = int(key.rsplit(".", 1)[1])
            index = int(layer_by_id[span_id]) if 0 < span_id < size else -1
            fsyncs[layers[index] if index >= 0 else "other"] += amount
    result["fsync_by_layer"] = dict(fsyncs)
    return result
