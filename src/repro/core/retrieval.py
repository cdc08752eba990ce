"""RAG demonstration retriever.

The Assistant's NL2SQL model "utilizes a retrieval-augmented generation
approach to adaptively draw user query-relevant SQL demonstrations". Here
the store embeds demonstration questions with TF-IDF and retrieves the
top-k nearest by cosine similarity, optionally restricted to the question's
database.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.datasets.base import Demonstration
from repro.nlp.vectorize import TfidfVectorizer, cosine_top_k


#: Rankings a retriever remembers, least recently used dropped first.
RANKINGS_KEPT = 1024


class DemonstrationRetriever:
    """Embeds a demonstration pool once; retrieves per query.

    The pool is fixed, so rankings are memoised per query: a served
    question comes back with every feedback round and every session.
    """

    def __init__(
        self, demonstrations: Sequence[Demonstration], top_k: int = 4
    ) -> None:
        self._demos = list(demonstrations)
        self._top_k = top_k
        self._vectorizer = TfidfVectorizer()
        if self._demos:
            self._matrix = self._vectorizer.fit_transform(
                [demo.question for demo in self._demos]
            )
        else:
            self._matrix = np.zeros((0, 0))
        self._ranking = functools.lru_cache(maxsize=RANKINGS_KEPT)(self._rank)

    def __len__(self) -> int:
        return len(self._demos)

    def retrieve(
        self, question: str, db_id: Optional[str] = None, top_k: Optional[int] = None
    ) -> list[Demonstration]:
        """Top-k demonstrations for a question.

        When ``db_id`` is given, same-database demonstrations are preferred:
        they are ranked first, then the remainder fill up to ``top_k``.
        """
        if not self._demos:
            return []
        with obs.span("retrieval.retrieve", db=db_id), obs.timer(
            "retrieval.latency_ms"
        ):
            ranking = self._ranking(question, db_id, top_k or self._top_k)
            retrieved = [self._demos[i] for i in ranking]
            obs.count("retrieval.calls")
            obs.observe("retrieval.demos", len(retrieved))
            return retrieved

    def _rank(
        self, question: str, db_id: Optional[str], k: int
    ) -> tuple[int, ...]:
        """Pool indices of the top-k demonstrations, best first."""
        query_vec = self._vectorizer.transform([question])[0]
        # Retrieve a generous pool, then apply the same-database preference.
        pool = cosine_top_k(
            query_vec, self._matrix, min(len(self._demos), k * 4)
        )
        same_db = [
            i for i, _s in pool if db_id and self._demos[i].db_id == db_id
        ]
        others = [
            i
            for i, _s in pool
            if not (db_id and self._demos[i].db_id == db_id)
        ]
        return tuple((same_db + others)[:k])
