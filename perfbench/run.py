"""The FISQL reproduction's benchmark of record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` and ``BENCHMARK.json``):

* ``paper-full``   -- the four paper artifacts at ``--scale full``, each run
  in a fresh interpreter, timing each answer and feedback round of the batch;
* ``serve-repeat`` -- ``fisql-repro serve --scale full`` with the completion
  cache, the semantic cache, the journal and the session store on, under an
  open loop of analyst sessions on a hot set of questions over two
  keep-alive connections, then a doubling rate ladder.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Every answer is checked: artifact
digests for ``paper-full``, an uncached in-process reference for serve.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Sibling modules of this script (they import nothing from repro at load).
import load  # noqa: E402
import sessions as sess  # noqa: E402
import tracer as tracing  # noqa: E402
from batch_child import SpeedProbe  # noqa: E402
from load import percentile  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
DIGESTS = HERE / "digests.json"

#: Sessions per second at the nominal rate, and the ladder after it.
NOMINAL_RATE = 10.0
LADDER = (20.0, 40.0, 80.0, 160.0)
LADDER_STEP_S = 3.0
#: Every turn's p95, timed from when it was due, must stay within this.
LIMIT_MS = 250.0
#: Keep-alive connections and generator threads: one per core of the
#: 2-vCPU reference machine, so the generator never outnumbers the cores.
CONNECTIONS = 2
#: A nominal phase whose generator ran later than this (p95) is void.
MAX_GEN_LAG_MS = 20.0
#: Server launches (serve) or interpreters (paper-full) per run; set-up
#: time is their median.
SETUPS = 3
#: paper-full starts one artifact interpreter per this many seconds of
#: ``--seconds``. A full-scale artifact run takes 8-13 s on the 2-vCPU
#: reference VM, whose speed drifts by a fifth over minutes; the speed
#: probe (``batch_child.SpeedProbe``) takes out most of that drift, and the
#: median of several runs most of what is left.
ARTIFACT_RUN_S = 7.5

END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "run_cpu_s": "s",
    "peak_rss_mb": "MB",
    "ask_p50_ms": "ms",
    "ask_p95_ms": "ms",
    "feedback_p50_ms": "ms",
    "feedback_p95_ms": "ms",
    "cpu_ms_per_turn": "ms",
    "sustained_sessions_per_s": "1/s",
}

TIMED_LAYERS = (
    "datasets",
    "sql.storage",
    "core.linking",
    "nlp.similarity",
    "core.semparse",
    "core.retrieval",
    "core.nl2sql",
    "llm.simulated",
    "sql.parser",
    "sql.executor",
    "core.routing",
    "core.editor",
    "core.session",
    "core.rewrite",
    "core.user",
    "eval.metrics",
    "core.chat",
    "serve.handle",
    "llm.dispatch",
    "semcache",
    "durability.journal",
    "durability.session_store",
)

PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in TIMED_LAYERS
       for field, unit in (("calls", "count"), ("self_ms", "ms"))},
    "nlp.similarity.distinct_ratio": "ratio",
    "sql.parser.distinct_ratio": "ratio",
    "sql.executor.rows_out": "count",
    "sql.storage.rows_inserted": "count",
    "core.session.rounds": "count",
    "serve.handle_ms.create": "ms",
    "serve.handle_ms.ask": "ms",
    "serve.handle_ms.feedback": "ms",
    "serve.transport_wait_ms": "ms",
    "serve.sessions.evicted": "count",
    "serve.sessions.resumed": "count",
    "serve.gate.shed": "count",
    "llm.dispatch.hit_ratio": "ratio",
    "semcache.hit_ratio": "ratio",
    "semcache.bypass_ratio": "ratio",
    "durability.fsyncs_per_turn": "count",
    "durability.bytes_per_turn": "B",
    "obs.overhead_ratio": "ratio",
    "other.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "gen.lag_p95_ms": "ms",
}


class BenchError(Exception):
    """The run cannot produce a result (a void or broken run)."""


# -- helpers -----------------------------------------------------------------------


def metric_block(values: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of a live process, all threads."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_python(argv: list[str], timeout: float = 170.0) -> tuple[str, float]:
    """Run a Python child to completion: its stdout and the CPU it used."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    process = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"child timed out: {argv[:3]}") from None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if process.returncode != 0:
        raise BenchError(f"child failed ({process.returncode}): {stderr[-2000:]}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return stdout, cpu


def run_child(argv: list[str]) -> dict:
    """Run a benchmark child and parse the JSON on its last line."""
    stdout, _cpu = run_python(argv)
    return json.loads(stdout.strip().splitlines()[-1])


# -- paper-full --------------------------------------------------------------------


def batch_argv(config, *extra) -> list[str]:
    return [
        str(HERE / "batch_child.py"),
        "--src", str(SRC),
        "--t0", repr(time.monotonic()),
        "--scale", config.scale,
        *extra,
    ]


def mismatches(run: dict, expected: list[str]) -> int:
    """Artifacts whose rendering differs from the committed digest."""
    return sum(got != want for got, want in zip(run["digests"], expected))


def paper_full(config) -> dict:
    """Artifact interpreters plus set-up-only ones, or a traced run."""
    expected = json.loads(DIGESTS.read_text())[config.scale]
    if config.trace:
        return paper_full_traced(config, expected)
    runs = [run_child(batch_argv(config)) for _ in range(config.artifact_runs)]
    starts = list(runs)
    while len(starts) < config.setups:
        starts.append(run_child(batch_argv(config, "--setup-only")))
    # Times at the reference VM's speed (batch_child.SpeedProbe). The runs
    # do the same work; each figure is the median over them, so a stretch
    # of noise in one interpreter moves none of them.
    def median_of(figure):
        return statistics.median(figure(run) for run in runs)

    def turn_ms(kind, fraction):
        return median_of(lambda run: 1000.0 * percentile(run["turns"][kind], fraction))

    run_wall_s = median_of(lambda run: run["ref"]["run_wall_s"])
    run_cpu_s = median_of(lambda run: run["ref"]["run_cpu_s"])
    turns = {kind: len(runs[0]["turns"][kind]) for kind in ("ask", "feedback", "sessions")}
    metrics = {
        "setup_s": statistics.median(run["ref"]["setup_s"] for run in starts),
        "run_wall_s": run_wall_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "ask_p50_ms": turn_ms("ask", 0.50),
        "ask_p95_ms": turn_ms("ask", 0.95),
        "feedback_p50_ms": turn_ms("feedback", 0.50),
        "feedback_p95_ms": turn_ms("feedback", 0.95),
        "cpu_ms_per_turn": 1000.0 * run_cpu_s / (turns["ask"] + turns["feedback"]),
        "sustained_sessions_per_s": turns["sessions"] / run_wall_s,
    }
    wrong = sum(mismatches(run, expected) for run in runs) + config.inject_wrong
    report = {
        "measured": {
            "setup_s": [run["setup_s"] for run in starts],
            "run_wall_s": [run["run_wall_s"] for run in runs],
            "run_cpu_s": [run["run_cpu_s"] for run in runs],
        },
        "reference": {
            "setup_s": [run["ref"]["setup_s"] for run in starts],
            "run_wall_s": [run["ref"]["run_wall_s"] for run in runs],
        },
        "probe": [run["probe"] for run in starts],
        "turns_per_interpreter": turns,
    }
    attempted = len(runs) * len(expected)
    return finish(config, metrics, END_TO_END, attempted, wrong, wrong, report)


def paper_full_traced(config, expected: str) -> dict:
    """Untraced and traced artifact runs, then obs off and on."""
    run = run_child(batch_argv(config))
    trace_dir = config.work / "trace"
    traced = run_child(batch_argv(config, "--trace-out", str(trace_dir)))
    spans, document = tracing.load(trace_dir)
    layers = layer_metrics(spans, document, traced["measured_ns"])
    layers["trace.overhead_ratio"] = traced["measured_ns"] / run["measured_ns"]
    plain = ["-m", "repro.cli", "run", "all", "--scale", config.scale]
    _out, off = run_python(plain)
    _out, on = run_python(plain + ["--metrics", "--trace", str(config.work / "obs.jsonl")])
    layers["obs.overhead_ratio"] = on / off
    # No load generator and no transport in a batch run.
    layers["gen.lag_p95_ms"] = 0.0
    wrong = mismatches(run, expected) + mismatches(traced, expected)
    wrong += config.inject_wrong
    report = {"obs_cpu_s": {"off": off, "on": on}}
    return finish(config, layers, PER_LAYER, 2 * len(expected), wrong, wrong, report)


# -- per-layer metrics from a trace ---------------------------------------------------


def layer_metrics(spans, document: dict, wall_ns: int, window=None) -> dict:
    if window is not None:
        spans = spans[spans[:, 3] >= window[0]]
    analysis = tracing.analyse(spans, document, wall_ns)
    out: dict = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = analysis["layers"][layer]["calls"]
        out[f"{layer}.self_ms"] = analysis["layers"][layer]["self_ms"]
    counters = document["counters"]
    distinct = document["distinct"]
    out["nlp.similarity.distinct_ratio"] = ratio(
        distinct.get("nlp.similarity", 0), out["nlp.similarity.calls"]
    )
    out["sql.parser.distinct_ratio"] = ratio(
        distinct.get("sql.parser", 0), out["sql.parser.calls"]
    )
    out["sql.executor.rows_out"] = counters.get("sql.executor.rows_out", 0)
    out["sql.storage.rows_inserted"] = counters.get("sql.storage.rows_inserted", 0)
    out["core.session.rounds"] = counters.get("core.session.rounds", 0)
    out["llm.dispatch.hit_ratio"] = ratio(
        counters.get("llm.dispatch.hits", 0), counters.get("llm.dispatch.lookups", 0)
    )
    lookups = counters.get("semcache.lookups", 0)
    out["semcache.hit_ratio"] = ratio(counters.get("semcache.outcome.hit", 0), lookups)
    out["semcache.bypass_ratio"] = ratio(
        counters.get("semcache.outcome.bypass", 0), lookups
    )
    out["serve.sessions.evicted"] = document["sessions_evicted"]
    out["serve.sessions.resumed"] = document["sessions_resumed"]
    out["serve.gate.shed"] = document["gate_shed"]
    handles: dict[str, list[float]] = {}
    for _rid, route, elapsed in document["handles"]:
        handles.setdefault(route, []).append(elapsed / 1e6)
    for route, name in (("sessions", "create"), ("ask", "ask"), ("feedback", "feedback")):
        values = handles.get(route)
        out[f"serve.handle_ms.{name}"] = percentile(values, 0.5) if values else 0.0
    out["other.self_ms"] = analysis["other_ms"]
    out["trace.coverage_ratio"] = (
        (analysis["self_sum_ms"] + analysis["other_ms"]) / (wall_ns / 1e6)
    )
    turns = counters.get("durability.journal.appends", 0)
    fsyncs = sum(
        count for layer, count in analysis["fsync_by_layer"].items()
        if layer.startswith("durability")
    )
    out["durability.fsyncs_per_turn"] = ratio(fsyncs, turns)
    out["durability.bytes_per_turn"] = 0.0
    out["serve.transport_wait_ms"] = 0.0
    return out


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# -- serve -----------------------------------------------------------------------------


class Server:
    """One ``fisql-repro serve`` process on an ephemeral port."""

    def __init__(self, argv: list[str], work: Path) -> None:
        self.log = open(work / "server.stderr", "ab")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        self.port = None
        self._reader = None
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, timeout: float = 120.0) -> None:
        deadline = self.started + timeout
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in self.process.stdout] + [lines.put(None)],
            daemon=True,
        )
        self._reader.start()
        while self.port is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("server did not start listening in time") from None
            if line is None:
                raise BenchError("server exited before listening")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                connection.request("GET", "/readyz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    self.setup_s = time.monotonic() - self.started
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise BenchError("server never became ready")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.process.stdout.close()
        self.log.close()


def serve_argv(config, launch: int) -> list[str]:
    base = config.work / f"launch{launch}"
    return [
        "serve", "--scale", config.scale, "--port", "0",
        "--cache-max", "4096", "--semantic-cache",
        "--journal", str(base / "journal"),
        "--session-dir", str(base / "sessions"),
        "--max-sessions", "32",
    ]


def corrupt(sessions, count: int) -> None:
    """Spoil ``count`` reference answers (tests of the correctness check)."""
    for session in sessions[:count]:
        for index, turn in enumerate(session.turns):
            if turn.kind == "ask":
                session.turns[index] = sess.Turn(turn.kind, turn.body, turn.status, "spoiled")


def run_phase(server, sessions, duration, tag):
    """One load phase: its results, the server's CPU seconds over it, and
    the machine's speed factor over it.

    The factor comes from a ``SpeedProbe`` in this process's main thread,
    which only waits for the generator threads meanwhile; the server runs
    on the same cores.
    """
    phase = load.Phase("127.0.0.1", server.port, sessions, duration, CONNECTIONS, tag)
    probe = SpeedProbe()
    cpu0 = proc_cpu_s(server.pid)
    start = time.perf_counter()
    probe.start()
    try:
        results = phase.run()
    finally:
        probe.stop()
    cpu = proc_cpu_s(server.pid) - cpu0
    return phase, results, cpu, probe.phase_factor(start, time.perf_counter())


def serve(config) -> dict:
    from repro.eval.harness import build_context

    context = build_context(scale=config.scale, seed=sess.SUITE_SEED)
    player = sess.ReferencePlayer(context)
    rng = random.Random(config.seed)
    examples = sess.all_examples(context)
    errors = sess.error_examples(context)
    hot = sess.hot_set(player, examples, errors)

    def draw(rate, duration):
        return sess.repeat_sessions(rng, player, hot, rate, duration)

    nominal = draw(NOMINAL_RATE, config.seconds)
    corrupt(nominal, config.inject_wrong)

    setups = []
    server = None
    launches = 1 if config.trace else config.setups
    try:
        for launch in range(launches):
            if server is not None:
                server.stop()
            server = Server(["-m", "repro.cli", *serve_argv(config, launch)], config.work)
            setups.append(server.setup_s)
        phase, results, measured_cpu, factor = run_phase(server, nominal, config.seconds, "n")
        # Server CPU at the reference VM's speed, as for paper-full.
        cpu = measured_cpu * factor
        summary = load.summarise(phase, results, LIMIT_MS / 1000.0)
        if summary["lag_p95"] * 1000.0 > MAX_GEN_LAG_MS:
            raise BenchError(
                f"void run: generator ran {summary['lag_p95'] * 1000:.1f} ms late (p95)"
            )
        ladder = []
        attempted, failed, wrong = len(results), summary["failed"], summary["wrong"]
        rates = [summary["session_rate"]]
        limit_rate = NOMINAL_RATE if summary["passed"] else None
        if not config.trace and summary["passed"]:
            for rate in config.ladder:
                step, step_results, _cpu, _factor = run_phase(
                    server, draw(rate, config.step_s), config.step_s, f"l{int(rate)}"
                )
                step_summary = load.summarise(step, step_results, LIMIT_MS / 1000.0)
                answered = [r for r in step_results if r.status is not None and 200 <= r.status < 300]
                attempted += len(answered)
                wrong += step_summary["wrong"]
                failed += step_summary["wrong"]
                void = step_summary["lag_p95"] * 1000.0 > MAX_GEN_LAG_MS
                ladder.append({
                    "rate": rate,
                    "passed": step_summary["passed"] and not void,
                    "void": void,
                    "p95_ms": {k: v * 1000 for k, v in step_summary["p95"].items()},
                    "failed": step_summary["failed"],
                    "session_rate": step_summary["session_rate"],
                })
                rates.append(step_summary["session_rate"])
                if not step_summary["passed"] or void:
                    break
                limit_rate = rate
        peak = proc_peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()

    # Failed turns count in ``failed`` and miss the limit; the latency
    # figures describe the turns that were answered.
    lat = {
        kind: [r.latency * 1000.0 for r in results if r.kind == kind and r.ok]
        for kind in ("ask", "feedback")
    }
    if not all(lat.values()):
        raise BenchError("no ask or no feedback was answered correctly")
    turns = len(lat["ask"]) + len(lat["feedback"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_wall_s": summary["wall"],
        "run_cpu_s": cpu,
        "peak_rss_mb": peak,
        "ask_p50_ms": percentile(lat["ask"], 0.50),
        "ask_p95_ms": percentile(lat["ask"], 0.95),
        "feedback_p50_ms": percentile(lat["feedback"], 0.50),
        "feedback_p95_ms": percentile(lat["feedback"], 0.95),
        "cpu_ms_per_turn": 1000.0 * cpu / turns,
        "sustained_sessions_per_s": max(rates),
    }
    report = {
        "nominal": {
            "sessions": len(nominal),
            "turns": len(results),
            "failed": summary["failed"],
            "wrong": summary["wrong"],
            "passed": summary["passed"],
            "gen_lag_p95_ms": summary["lag_p95"] * 1000.0,
        },
        "ladder": ladder,
        "highest_rate_meeting_limit": limit_rate,
        "setups_s": setups,
        "measured_run_cpu_s": measured_cpu,
        "speed_factor": factor,
    }
    if not config.trace:
        return finish(config, metrics, END_TO_END, attempted, failed, wrong, report)
    return serve_traced(config, nominal, metrics, report, attempted, failed, wrong)


def serve_traced(config, nominal, untraced, report, attempted, failed, wrong):
    trace_dir = config.work / "trace"
    argv = [str(HERE / "serve_boot.py"), str(SRC), str(trace_dir)]
    server = Server(argv + serve_argv(config, 99), config.work)
    try:
        phase, results, cpu, factor = run_phase(server, nominal, config.seconds, "t")
        cpu *= factor
    finally:
        server.stop()
    traced = load.summarise(phase, results, LIMIT_MS / 1000.0)
    attempted += len(results)
    failed += traced["failed"]
    wrong += traced["wrong"]
    spans, document = tracing.load(trace_dir)
    window = (document["first_ns"], document["last_ns"])
    layers = layer_metrics(spans, document, window[1] - window[0], window)
    turns = sum(1 for r in results if r.kind != "create")
    layers["trace.overhead_ratio"] = (cpu / turns) / (untraced["cpu_ms_per_turn"] / 1000.0)
    # The server always runs instrumented (``serve`` enables repro.obs),
    # so there is no obs-off serve to compare with: 0 marks "not measured".
    layers["obs.overhead_ratio"] = 0.0
    handle_ms = {rid: ns / 1e6 for rid, _route, ns in document["handles"]}
    waits = [
        (r.received - r.sent) * 1000.0 - handle_ms[r.request_id]
        for r in results
        if r.received is not None and r.request_id in handle_ms
    ]
    layers["serve.transport_wait_ms"] = percentile(waits, 0.5) if waits else 0.0
    layers["gen.lag_p95_ms"] = traced["lag_p95"] * 1000.0
    journal = config.work / "launch99" / "journal"
    written = sum(p.stat().st_size for p in journal.rglob("*") if p.is_file())
    layers["durability.bytes_per_turn"] = ratio(written, turns)
    return finish(config, layers, PER_LAYER, attempted, failed, wrong, report)


# -- output -------------------------------------------------------------------------


def finish(config, values, units, attempted, failed, wrong, report) -> dict:
    metrics = metric_block(values, units)
    report["failed_ratio"] = failed / attempted if attempted else 1.0
    print(json.dumps({"workload": config.workload, "report": report}), file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{config.workload:13s} {name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{config.workload:13s} {'failed_ratio':32s} {report['failed_ratio']:14.4f} ratio")
    return {
        "correct": wrong == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


WORKLOADS = {
    "paper-full": paper_full,
    "serve-repeat": serve,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale, one set-up and a one-step ladder (for tests)",
    )
    parser.add_argument(
        "--inject-wrong", type=int, default=0, metavar="N",
        help="spoil N reference answers to prove they are checked (for tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    config = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    config.scale = "small" if config.smoke else "full"
    config.setups = 1 if config.smoke else SETUPS
    config.artifact_runs = 1 if config.smoke else max(
        1, round(config.seconds / ARTIFACT_RUN_S)
    )
    config.ladder = LADDER[:1] if config.smoke else LADDER
    config.step_s = 1.0 if config.smoke else LADDER_STEP_S
    config.work = WORK / f"{config.workload}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )
    config.work.mkdir(parents=True, exist_ok=True)
    # A terminated benchmark still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        result = WORKLOADS[config.workload](config)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(config.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
