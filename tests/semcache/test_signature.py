"""Intent signatures: paraphrase collision and constraint extraction."""

import pytest

from repro.semcache.signature import (
    LIMIT_WORDS,
    NUMBER_WORDS,
    IntentSignature,
    build_signature,
    schema_lexicon,
)
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


def make_schema(name="travel"):
    return DatabaseSchema(
        name,
        [
            Table(
                "flights",
                [
                    Column("flight_id", DataType.INTEGER, primary_key=True),
                    Column("price", DataType.REAL),
                    Column("departure_date", DataType.DATE),
                ],
            ),
            Table(
                "airlines",
                [
                    Column("airline_id", DataType.INTEGER, primary_key=True),
                    Column("airline_name", DataType.TEXT),
                ],
            ),
        ],
    )


@pytest.fixture
def schema():
    return make_schema()


class TestParaphraseCollision:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("Show the 5 cheapest flights", "list five cheapest flights"),
            ("flights costing more than 300", "flights costing over 300"),
            (
                "How many flights are there?",
                "what is the number of flights",
            ),
            (
                "How many flights are there?",
                "count the flights",
            ),
            (
                "cheapest flights in January",
                "in January, cheapest flights",
            ),
        ],
    )
    def test_paraphrases_collide(self, schema, left, right):
        a = build_signature(left, schema)
        b = build_signature(right, schema)
        assert a == b
        assert a.key() == b.key()

    @pytest.mark.parametrize(
        "left,right",
        [
            ("show the 5 cheapest flights", "show the 6 cheapest flights"),
            # Opposite sort intents share a limit but not a direction.
            ("show the 5 cheapest flights", "show the 5 largest flights"),
            ("show the 5 oldest flights", "show the 5 newest flights"),
            ("flights over 300", "flights at least 300"),
            ("flights over 300", "flights under 300"),
            ("flights in 2023", "flights in 2024"),
            ("flights more than 20", "flights no more than 20"),
            # A COUNT answer is not a row listing.
            ("How many flights are there?", "Show me all the flights"),
            # Thresholds bound to different columns must not collide.
            (
                "flights with price over 300 and departure_date over 20",
                "flights with price over 20 and departure_date over 300",
            ),
        ],
    )
    def test_different_constraints_do_not_collide(self, schema, left, right):
        a = build_signature(left, schema)
        b = build_signature(right, schema)
        assert a != b
        assert a.key() != b.key()


class TestConstraintExtraction:
    def test_limit_word_adjacency(self, schema):
        sig = build_signature("top 5 flights", schema)
        assert sig.limit == 5
        assert sig.literals == ()

    def test_number_word_normalizes_to_digit_limit(self, schema):
        spelled = build_signature("top five flights", schema)
        digits = build_signature("top 5 flights", schema)
        assert spelled.limit == 5
        assert spelled == digits

    def test_bare_number_is_a_literal_not_a_limit(self, schema):
        sig = build_signature("flights in 2024", schema)
        assert sig.limit is None
        assert sig.literals == ("2024",)

    def test_comparison_phrases_normalize(self, schema):
        for phrasing in (
            "flights more than 30",
            "flights greater than 30",
            "flights over 30",
            "flights above 30",
        ):
            assert build_signature(phrasing, schema).comparisons == (
                "table:flights:gt:30",
            )
        assert build_signature(
            "flights at least 30", schema
        ).comparisons == ("table:flights:ge:30",)
        assert build_signature(
            "flights no more than 30", schema
        ).comparisons == ("table:flights:le:30",)

    def test_comparisons_anchor_to_their_column(self, schema):
        sig = build_signature("flights with price over 300", schema)
        assert sig.comparisons == ("column:flights.price:gt:300",)
        # A word outside the schema vocabulary still anchors by stem.
        sig = build_signature("flights with duration under 120", schema)
        assert sig.comparisons == ("duration:lt:120",)
        # Nothing precedes the phrase: the comparison floats unanchored.
        sig = build_signature("over 300 flights", schema)
        assert sig.comparisons == ("gt:300",)

    def test_aggregate_cues_are_a_dimension(self, schema):
        count = build_signature("how many flights", schema)
        assert count.aggregates == ("count",)
        listing = build_signature("show the flights", schema)
        assert listing.aggregates == ()
        assert count != listing
        assert build_signature(
            "average price of flights", schema
        ).aggregates == ("avg",)

    def test_limit_keeps_ranking_direction(self, schema):
        cheapest = build_signature("show the 5 cheapest flights", schema)
        largest = build_signature("show the 5 largest flights", schema)
        assert cheapest.limit == 5
        assert largest.limit == 5
        assert cheapest != largest

    def test_quoted_entities_preserve_case(self, schema):
        upper = build_signature("flights on 'Big Air'", schema)
        lower = build_signature("flights on 'big air'", schema)
        assert upper.entities == ("Big Air",)
        assert upper != lower

    def test_schema_mentions_resolve(self, schema):
        sig = build_signature("show airline names", schema)
        assert "column:airlines.airline_name" in sig.mentions
        sig = build_signature("list the flights", schema)
        assert sig.mentions == ("table:flights",)


class TestUnsignable:
    @pytest.mark.parametrize(
        "question",
        ["", "   ", "\t\n", "the of and a", "how many?", "你好吗", "？！", "。。。"],
    )
    def test_nothing_anchored_is_empty(self, schema, question):
        assert build_signature(question, schema).is_empty

    def test_signable_questions_are_not_empty(self, schema):
        assert not build_signature("flights", schema).is_empty

    def test_empty_signature_property(self):
        empty = IntentSignature((), (), (), None, (), (), ())
        assert empty.is_empty
        anchored = IntentSignature(("flight",), (), (), None, (), (), ())
        assert not anchored.is_empty


class TestLexicon:
    def test_lexicon_is_cached_per_schema(self, schema):
        assert schema_lexicon(schema) is schema_lexicon(schema)

    def test_distinct_schemas_get_distinct_lexicons(self, schema):
        other = make_schema("other")
        assert schema_lexicon(schema) is not schema_lexicon(other)

    def test_tables_shadow_columns(self):
        schema = DatabaseSchema(
            "d",
            [
                Table("price", [Column("id", DataType.INTEGER)]),
                Table("items", [Column("price", DataType.REAL)]),
            ],
        )
        assert schema_lexicon(schema)["price"] == "table:price"


class TestConstants:
    def test_number_words_map_to_digit_strings(self):
        assert NUMBER_WORDS["five"] == "5"
        assert all(value.isdigit() for value in NUMBER_WORDS.values())

    def test_limit_words_include_rankers(self):
        assert {"top", "cheapest", "first"} <= LIMIT_WORDS


class TestMemo:
    def test_repeated_question_reuses_its_signature(self):
        schema = make_schema()
        question = "show the 5 cheapest trips to Paris"
        first = build_signature(question, schema)
        assert build_signature(question, schema) is first
        assert build_signature(question, make_schema()) == first
        assert first.key() == build_signature(question, make_schema()).key()
