"""ChatSession conversation-state tests."""

import pytest

from repro.core.chat import ChatSession, ResponseMemo
from repro.core.nl2sql import Nl2SqlModel
from repro.core.retrieval import DemonstrationRetriever
from repro.errors import ReproError
from repro.llm.interface import Completion
from repro.llm.simulated import SimulatedLLM
from repro.sql.engine import Database


@pytest.fixture()
def session(aep_db, aep_suite):
    _traffic, demos = aep_suite
    model = Nl2SqlModel(
        llm=SimulatedLLM(), retriever=DemonstrationRetriever(demos)
    )
    return ChatSession(aep_db, model)


class TestAsk:
    def test_ask_returns_response(self, session):
        response = session.ask("How many segments are there?")
        assert response.result.scalar() == 20
        assert session.current_sql == "SELECT COUNT(*) FROM hkg_dim_segment"

    def test_turns_recorded(self, session):
        session.ask("How many segments are there?")
        assert [t.role for t in session.turns] == ["user", "assistant"]

    def test_new_question_resets_context(self, session):
        session.ask("How many segments are there?")
        session.ask("How many destinations are there?")
        assert "destination" in session.current_sql


class TestFeedback:
    def test_feedback_before_question_raises(self, session):
        with pytest.raises(ReproError):
            session.give_feedback("we are in 2024")

    def test_year_correction_flow(self, session):
        session.ask("How many audiences were created in January?")
        assert "'2023-01-01'" in session.current_sql
        response = session.give_feedback("we are in 2024")
        assert "'2024-01-01'" in session.current_sql
        assert response.result is not None

    def test_multiple_feedback_rounds_accumulate(self, session):
        session.ask("List the audiences created in January.")
        assert "description" in session.current_sql
        # The editor's calibrated demonstration-coverage miss may eat one
        # round (it is deterministic per turn); a real user just repeats.
        for _attempt in range(3):
            session.give_feedback("do not give descriptions")
            if "description" not in session.current_sql:
                break
        assert "description" not in session.current_sql
        session.give_feedback("we are in 2024")
        assert "'2024-01-01'" in session.current_sql
        assert "description" not in session.current_sql

    def test_highlight_passthrough(self, session):
        session.ask("List the names of the datasets that are ready to use.")
        before = session.current_sql
        session.give_feedback(
            "change to 'active'", highlight="FROM hkg_dim_dataset"
        )
        assert session.current_sql != before
        assert "status = 'active'" in session.current_sql

    def test_uninterpretable_feedback_keeps_sql(self, session):
        session.ask("How many segments are there?")
        before = session.current_sql
        session.give_feedback("hmm, not sure about this")
        assert session.current_sql == before


class TestTranscript:
    def test_transcript_contains_all_turns(self, session):
        session.ask("How many audiences were created in January?")
        session.give_feedback("we are in 2024")
        transcript = session.transcript()
        assert transcript.count("User:") == 2
        assert transcript.count("Assistant:") == 2
        assert "we are in 2024" in transcript

    def test_highlight_shown_in_transcript(self, session):
        session.ask("List the names of the datasets that are ready to use.")
        session.give_feedback(
            "change to 'active'", highlight="FROM hkg_dim_dataset"
        )
        assert "[highlighted: FROM hkg_dim_dataset]" in session.transcript()


class FixedSqlLLM:
    """Answers every prompt, question or feedback, with one SQL string."""

    def __init__(self, sql: str) -> None:
        self.sql = sql

    def complete(self, prompt):
        return Completion(self.sql)

    def complete_batch(self, prompts):
        return [self.complete(prompt) for prompt in prompts]


def shop_db() -> Database:
    database = Database.from_ddl(
        "shop", "CREATE TABLE item (id INTEGER PRIMARY KEY, price REAL)"
    )
    database.execute("INSERT INTO item VALUES (1, 2.5), (2, 4.0)")
    return database


def corrected(database, memo, sql="SELECT COUNT(*) FROM item"):
    """A session's response to one feedback round answered with ``sql``."""
    llm = FixedSqlLLM(sql)
    chat = ChatSession(
        database, Nl2SqlModel(llm=llm), routing=False, responses=memo
    )
    chat.ask("how many items are there")
    return chat.give_feedback("count every item")


class TestResponseMemo:
    def test_sessions_share_what_one_sql_derives(self):
        database = shop_db()
        memo = ResponseMemo(database)
        first = corrected(database, memo)
        second = corrected(database, memo)
        assert first.result.scalar() == 2
        assert second.result is first.result
        assert second.explanation == first.explanation
        assert second.reformulation == first.reformulation
        assert len(memo) == 1

    def test_memoised_response_equals_an_unmemoised_one(self):
        database = shop_db()
        memo = ResponseMemo(database)
        sql = "SELECT price FROM item WHERE id = 9"
        corrected(database, memo, sql)
        hit = corrected(database, memo, sql)
        plain = corrected(database, None, sql)
        assert hit.render() == plain.render()
        assert hit.result.rows == plain.result.rows == []

    def test_errors_are_memoised_too(self):
        database = shop_db()
        memo = ResponseMemo(database)
        for _ in range(2):
            response = corrected(database, memo, "SELECT nope FROM item")
            assert response.error is not None
            unparsable = corrected(database, memo, "SELEC nope")
            assert unparsable.error == "the generated SQL could not be parsed"
        assert len(memo) == 2

    def test_a_write_to_the_database_empties_the_memo(self):
        database = shop_db()
        memo = ResponseMemo(database)
        assert corrected(database, memo).result.scalar() == 2
        database.execute("INSERT INTO item VALUES (3, 1.0)")
        assert corrected(database, memo).result.scalar() == 3
        database.execute("DELETE FROM item WHERE id = 1")
        assert corrected(database, memo).result.scalar() == 2

    def test_least_recently_used_sql_is_dropped(self):
        database = shop_db()
        memo = ResponseMemo(database, max_entries=1)
        corrected(database, memo, "SELECT COUNT(*) FROM item")
        corrected(database, memo, "SELECT MAX(price) FROM item")
        assert len(memo) == 1
