"""RAG demonstration retriever tests."""

from repro.core.retrieval import DemonstrationRetriever
from repro.datasets.base import Demonstration


def demo(question, db_id="db1", glossary=None):
    return Demonstration(
        question=question, sql="SELECT 1", db_id=db_id, glossary=glossary or {}
    )


POOL = [
    demo("How many singers are there?"),
    demo("List the names of all songs."),
    demo("What is the average age of the singers?"),
    demo("How many live destinations are there?", db_id="aep"),
    demo("How many stadiums are in the city?"),
    demo("List the names of the first 5 cars by price."),
]


class TestRetrieval:
    def test_top_k_size(self):
        retriever = DemonstrationRetriever(POOL, top_k=3)
        assert len(retriever.retrieve("how many singers exist")) == 3

    def test_most_similar_first(self):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        results = retriever.retrieve("How many singers are there?")
        assert results[0].question == "How many singers are there?"

    def test_db_preference(self):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        results = retriever.retrieve("How many destinations are there?", db_id="aep")
        assert results[0].db_id == "aep"

    def test_empty_pool(self):
        retriever = DemonstrationRetriever([], top_k=3)
        assert retriever.retrieve("anything") == []
        assert len(retriever) == 0

    def test_top_k_override(self):
        retriever = DemonstrationRetriever(POOL, top_k=2)
        assert len(retriever.retrieve("singers", top_k=5)) == 5

    def test_phrasing_convention_demo_retrieved(self):
        """Trapped phrasings share distinctive tokens with their demos —
        the mechanism behind RAG fixing convention traps."""
        retriever = DemonstrationRetriever(POOL, top_k=2)
        results = retriever.retrieve("List the names of the first 3 boats by size.")
        assert any("first 5 cars" in d.question for d in results)


class TestRankingMemo:
    def test_repeated_query_gets_an_equal_fresh_list(self):
        retriever = DemonstrationRetriever(POOL, top_k=3)
        first = retriever.retrieve("how many singers", db_id="aep")
        first.clear()
        again = retriever.retrieve("how many singers", db_id="aep")
        fresh = DemonstrationRetriever(POOL, top_k=3).retrieve(
            "how many singers", db_id="aep"
        )
        assert again == fresh
        assert len(again) == 3
