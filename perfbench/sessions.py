"""Analyst sessions: question draws, annotator feedback, reference answers.

A session is what one analyst does: open a session on a database, ask a
question, and, while the answer is wrong, reply with the simulated
annotator's feedback. :class:`ReferencePlayer` plays one question through
an in-process :class:`~repro.serve.server.ServeApp` and records every
request body and answer; the load generator replays the bodies against
the server under test and compares its answers with these.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

#: The suite seed of the paper reproduction (the CLI's default).
SUITE_SEED = 20250325
#: Most feedback rounds per question (the paper's Figure 8 protocol).
MAX_ROUNDS = 2
#: Questions in the ``serve-repeat`` hot set, and how skewed draws are.
HOT_SET = 32
ZIPF_S = 1.1
#: One session in this many resumes an evicted session.
RESUME_EVERY = 4
#: A resumed session is at least this many sessions older than its
#: resumer, so a server holding 32 sessions has evicted it by then.
RESUME_DISTANCE = 48


@dataclass
class Turn:
    """One request of a session and the answer it should get."""

    kind: str  # "create", "ask" or "feedback"
    body: Optional[bytes]  # None: built when sent (resume needs the live id)
    status: int
    answer: Optional[str] = None  # canonical JSON of sql/result/error


@dataclass
class Session:
    """One analyst session, scheduled ``offset`` seconds into its phase."""

    offset: float
    example_id: str
    turns: list[Turn]
    db: str
    resume_of: Optional[int] = None  # index of the resumed session


def answer_key(payload: dict) -> str:
    """The part of an answer that must match the reference: SQL and rows."""
    answer = payload["answer"]
    return json.dumps(
        [answer["sql"], answer["result"], answer["error"]], sort_keys=True
    )


class ReferencePlayer:
    """Plays questions through an uncached in-process ``ServeApp``.

    Results are memoised per example: answers depend only on the
    question, the feedback and the turn index, never on other sessions.
    """

    def __init__(self, context) -> None:
        from repro.serve.server import ServeApp

        self._context = context
        self._app = ServeApp.from_context(context)
        self._aep_ids = {e.example_id for e in context.aep_benchmark.examples}
        self._annotators = {
            "spider": context.annotator_for("spider"),
            "aep": context.annotator_for("aep"),
        }
        self._examples = {
            e.example_id: e
            for e in list(context.spider.benchmark.examples)
            + list(context.aep_benchmark.examples)
        }
        self._memo: dict[str, list[Turn]] = {}

    def example(self, example_id: str):
        return self._examples[example_id]

    def _request(self, path: str, body: bytes) -> tuple[int, dict]:
        status, _ctype, raw, _headers = self._app.handle_request(
            "POST", path, body
        )
        return status, json.loads(raw)

    def turns(self, example_id: str) -> list[Turn]:
        """create, ask and up to :data:`MAX_ROUNDS` feedback turns."""
        if example_id not in self._memo:
            self._memo[example_id] = self._play(example_id)
        return self._memo[example_id]

    def _play(self, example_id: str) -> list[Turn]:
        from repro.errors import SqlError
        from repro.eval.metrics import execution_correct
        from repro.sql import ast
        from repro.sql.parser import parse_query

        example = self._examples[example_id]
        dataset = "aep" if example_id in self._aep_ids else "spider"
        database = self._context.benchmark(dataset).database(example.db_id)
        gold = parse_query(example.gold_sql)
        body = json.dumps({"db": example.db_id}).encode()
        status, payload = self._request("/sessions", body)
        turns = [Turn("create", body, status)]
        if status != 201:
            return turns
        path = f"/sessions/{payload['session']['id']}"
        body = json.dumps({"question": example.question}).encode()
        status, payload = self._request(f"{path}/ask", body)
        turns.append(Turn("ask", body, status, answer_key(payload)))
        for round_index in range(1, MAX_ROUNDS + 1):
            sql = payload["answer"]["sql"]
            if execution_correct(database, example.gold_sql, sql):
                break
            try:
                predicted = parse_query(sql)
            except SqlError:
                break
            if not isinstance(predicted, ast.Select) or not isinstance(gold, ast.Select):
                break
            feedback = self._annotators[dataset].give_feedback(
                example_id,
                question=example.question,
                gold=gold,
                predicted=predicted,
                round_index=round_index,
            )
            if feedback is None:
                break
            body = json.dumps({"feedback": feedback.text}).encode()
            status, payload = self._request(f"{path}/feedback", body)
            turns.append(Turn("feedback", body, status, answer_key(payload)))
            if status != 200:
                break
        return turns


def error_examples(context) -> list[str]:
    """Ids of the batch Assistant's annotated errors on both datasets."""
    return [
        record.example.example_id
        for dataset in ("spider", "aep")
        for record in context.error_set(dataset)
    ]


def all_examples(context) -> list[str]:
    return [
        e.example_id
        for e in list(context.spider.benchmark.examples)
        + list(context.aep_benchmark.examples)
    ]


def offsets(rng: random.Random, count: int, duration: float) -> list[float]:
    """Arrival times at a constant rate, from a seeded phase.

    Sessions start on this schedule whatever the server does (an open
    loop); a fixed rate rather than random bursts keeps a run's tail
    latency a property of the server rather than of the draw.
    """
    gap = duration / count
    phase = rng.uniform(0.0, gap)
    return [phase + index * gap for index in range(count)]


def hot_set(
    player: ReferencePlayer, examples: list[str], errors: list[str]
) -> list[str]:
    """32 questions, most popular first: half errors taking two rounds.

    The set and its popularity order are drawn once from a fixed seed:
    which questions are hot changes the cost of every turn, so letting
    the workload seed pick them would make runs differ by the draw rather
    than by the server. The workload seed picks the sequence of sessions.
    """
    rng = random.Random(SUITE_SEED)
    half = HOT_SET // 2
    candidates = list(errors)
    rng.shuffle(candidates)
    two_rounds = []
    for example_id in candidates:
        kinds = [turn.kind for turn in player.turns(example_id)]
        if kinds.count("feedback") == 2:
            two_rounds.append(example_id)
            if len(two_rounds) == half:
                break
    error_set = set(errors)
    others = [e for e in examples if e not in error_set]
    rng.shuffle(others)
    hot = two_rounds + others[: HOT_SET - len(two_rounds)]
    rng.shuffle(hot)
    return hot


def repeat_sessions(
    rng: random.Random,
    player: ReferencePlayer,
    hot: list[str],
    rate: float,
    duration: float,
) -> list[Session]:
    """Zipf draws from the hot set; one session in four resumes another.

    Ordinary sessions ask and give at most one round of feedback. A
    resuming session reopens an older, evicted session whose answer is
    still wrong and gives the second round there.
    """
    count = max(1, round(rate * duration))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    resumable: list[int] = []
    sessions: list[Session] = []
    for index, offset in enumerate(offsets(rng, count, duration)):
        if index % RESUME_EVERY == RESUME_EVERY - 1:
            ready = [i for i in resumable if i <= index - RESUME_DISTANCE]
            if ready:
                origin = ready[0]
                resumable.remove(origin)
                turns = player.turns(sessions[origin].example_id)
                second = [t for t in turns if t.kind == "feedback"][1]
                sessions.append(
                    Session(
                        offset,
                        sessions[origin].example_id,
                        [Turn("create", None, 201), second],
                        sessions[origin].db,
                        resume_of=origin,
                    )
                )
                continue
        example_id = rng.choices(hot, weights)[0]
        turns = player.turns(example_id)
        kept = [t for t in turns if t.kind != "feedback"]
        feedback = [t for t in turns if t.kind == "feedback"]
        kept += feedback[:1]
        if len(feedback) == 2:
            resumable.append(index)
        sessions.append(
            Session(offset, example_id, kept, player.example(example_id).db_id)
        )
    return sessions
