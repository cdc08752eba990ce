"""One fresh interpreter of the ``paper-full`` workload.

Usage (the benchmark starts it; ``--t0`` is its ``time.monotonic()`` at
launch, so set-up time counts interpreter start and imports)::

    python perfbench/batch_child.py --src SRC --t0 T --scale full \
        [--setup-only] [--trace-out DIR]

Builds the experiment context and regenerates the four artifacts
(Figure 2, Table 2, Figure 8, Table 3). Without ``--trace-out`` it times
the batch's own turns: every Assistant answer (``Nl2SqlModel.predict``)
and every feedback round of the correction loop, and runs a speed probe
alongside set-up and the artifacts (see ``SpeedProbe``). Prints one JSON
line.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

#: Wall seconds between two probe chunks.
PROBE_INTERVAL_S = 0.02
#: A time is scaled by the probe chunks that ended within half this of it.
PROBE_WINDOW_S = 0.5
#: Fewest chunks a window needs; with fewer, the phase's chunks are used.
PROBE_MIN_CHUNKS = 10
#: Median seconds of ``probe_chunk`` on the reference VM.
PROBE_REF_S = 300e-6


def probe_chunk() -> int:
    """A fixed piece of pure-Python work on a few locals.

    Its data never leaves the first-level cache, so its time follows the
    CPU's speed and not how much of the cache the program uses.
    """
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times ``probe_chunk`` every ``PROBE_INTERVAL_S``, interleaved with the program.

    On a shared VM the CPU's speed drifts by a fifth over minutes and
    changes from one second to the next. The probe runs in the program's
    own thread, between its bytecodes, so the chunk times around a moment
    follow the speed the program got then. ``factor`` turns a measured
    second into seconds at the reference VM's speed.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.seconds: list[float] = []
        #: Seconds spent in chunks so far; timers subtract what fell inside them.
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe_chunk()
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def chunks(self, start: float, end: float) -> list[float]:
        """Seconds of the chunks that ended at or after ``start``, before ``end``."""
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_left(self.ends, end)
        return self.seconds[lo:hi]

    def factor(self, at: float, phase: tuple[float, float]) -> float:
        """Reference seconds per measured second at ``at`` within ``phase``."""
        chunks = self.chunks(at - PROBE_WINDOW_S / 2, at + PROBE_WINDOW_S / 2)
        if len(chunks) < PROBE_MIN_CHUNKS:
            return self.phase_factor(*phase)
        return PROBE_REF_S / statistics.median(chunks)

    def phase_factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over a whole phase."""
        return PROBE_REF_S / statistics.median(self.chunks(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the program's work from ``start`` to ``end``.

        Window by window: measured seconds less the chunks in the window,
        times the window's factor.
        """
        total, at = 0.0, start
        while at < end:
            until = min(at + PROBE_WINDOW_S, end)
            work = until - at - sum(self.chunks(at, until))
            total += work * self.factor((at + until) / 2, (start, end))
            at = until
        return total

    def summary(self, start: float, end: float) -> dict:
        chunks = self.chunks(start, end)
        return {"chunks": len(chunks), "median_s": statistics.median(chunks)}


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return float("nan")


def time_turns(probe: SpeedProbe) -> dict[str, list[tuple[float, float]]]:
    """Record when each ask, feedback round and correction session ended
    and its seconds, less the probe chunks that ran inside it.

    A round where the annotator had nothing to say returns None and is
    not a turn.
    """
    from repro.core.nl2sql import Nl2SqlModel
    from repro.core.session import FisqlPipeline

    turns: dict[str, list[tuple[float, float]]] = {
        "ask": [], "feedback": [], "sessions": []
    }

    def timed(kind, function):
        def wrapper(*args, **kwargs):
            spent, start = probe.spent, time.perf_counter()
            result = function(*args, **kwargs)
            if result is not None:
                end = time.perf_counter()
                turns[kind].append((end, end - start - (probe.spent - spent)))
            return result

        return wrapper

    Nl2SqlModel.predict = timed("ask", Nl2SqlModel.predict)
    FisqlPipeline._run_round = timed("feedback", FisqlPipeline._run_round)
    FisqlPipeline.correct = timed("sessions", FisqlPipeline.correct)
    return turns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probed_from = time.perf_counter()
    if not args.trace_out:
        probe.start()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import repro  # noqa: F401 - imports count toward set-up
    from sessions import SUITE_SEED

    tracer = turns = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        turns = time_turns(probe)
    measured_from = time.perf_counter_ns()

    from repro.eval import (
        build_context,
        render_figure2,
        render_figure8,
        render_table2,
        render_table3,
        run_figure2,
        run_figure8,
        run_table2,
        run_table3,
    )

    context = build_context(scale=args.scale, seed=SUITE_SEED)
    out = {"setup_s": time.monotonic() - args.t0}
    set_up = time.perf_counter()
    if args.setup_only:
        probe.stop()
        share = probe.scaled(probed_from, set_up) / (set_up - probed_from)
        out["ref"] = {"setup_s": out["setup_s"] * share}
        out["probe"] = {"setup": probe.summary(probed_from, set_up)}
        print(json.dumps(out))
        return 0

    wall, cpu = time.perf_counter(), time.process_time()
    texts = [
        render_figure2(run_figure2(context)),
        render_table2(run_table2(context)),
        render_figure8(run_figure8(context)),
        render_table3(run_table3(context)),
    ]
    done = time.perf_counter()
    out["run_wall_s"] = done - wall
    out["run_cpu_s"] = time.process_time() - cpu
    probe.stop()
    # Set-up plus artifacts, from where the tracer (if any) starts, less
    # the probe's own chunks.
    out["measured_ns"] = time.perf_counter_ns() - measured_from - int(probe.spent * 1e9)
    out["digests"] = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    out["peak_rss_mb"] = peak_rss_mb()
    if turns is not None:
        # Reference-speed figures: set-up scaled by its phase's factor,
        # run CPU by the run's, each turn by the factor around its end.
        run_chunks = sum(probe.chunks(wall, done))
        run_wall_ref = probe.scaled(wall, done)
        run_share = run_wall_ref / (out["run_wall_s"] - run_chunks)
        setup_share = probe.scaled(probed_from, set_up) / (set_up - probed_from)
        out["ref"] = {
            "setup_s": out["setup_s"] * setup_share,
            "run_wall_s": run_wall_ref,
            "run_cpu_s": (out["run_cpu_s"] - run_chunks) * run_share,
        }
        out["turns"] = {
            kind: [seconds * probe.factor(end, (wall, done)) for end, seconds in timed]
            for kind, timed in turns.items()
        }
        out["probe"] = {
            "setup": probe.summary(probed_from, set_up),
            "run": probe.summary(wall, done),
        }
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
