"""Canonical intent signatures: the semantic key of the answer cache.

A signature is what survives of a question after everything that does not
change the answer is stripped away. "Show the 5 cheapest flights" and
"list five cheapest flights" must produce the *same* signature; "show the
5 cheapest flights" and "show the 6 cheapest flights" must not. The
extraction is deterministic and purely lexical — no model calls — built
from five exact-match constraint classes layered over the
tokenize → stem → stopword-strip pipeline in :mod:`repro.nlp`:

* **limits** — a number adjacent to a ranking word ("top 5", "5 cheapest")
  becomes ``limit=5`` rather than a filter literal; the ranking word's
  stem stays in the token set, so "5 cheapest" and "5 largest" — opposite
  sort intents — key differently;
* **comparisons** — "more than 30" / "over 30" / "at least 30" normalize
  to operator:value pairs (``gt:30``, ``gt:30``, ``ge:30``) with the
  phrasing consumed, so paraphrases of the same threshold collide. Each
  pair is anchored to the nearest preceding content word (as a schema
  label when it resolves, its stem otherwise): "price over 300 and
  duration under 120" and "price under 120 and duration over 300"
  constrain different columns and must not share a key;
* **aggregates** — aggregation cues ("how many", "count", "number of",
  "total", "average") decide the *shape* of the answer — COUNT(*) versus
  a row listing — so they form their own dimension instead of washing
  out as stopwords;
* **entities** — quoted literals ("'Holiday Promo'") are preserved
  verbatim: they name data values, and stemming them would conflate
  distinct rows;
* **mentions** — n-grams that resolve against the tenant schema's
  vocabulary (table/column names, NL annotations, synonyms) become
  ``table:`` / ``column:`` references, anchoring the signature to the
  schema the fingerprint hashes.

What remains becomes a sorted stem *set* — order- and duplication-free, so
clause reordering does not fragment the key. An empty signature (nothing
survived: unicode-only text, bare stopwords, empty input) is unsignable
and the store bypasses rather than colliding every such question onto one
key.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Optional

from repro.durability.atomic import canonical_key
from repro.nlp.stem import stem
from repro.nlp.tokenize import STOPWORDS, ngrams, quoted_strings, tokenize
from repro.sql.schema import DatabaseSchema

#: Spelled-out numbers normalized to digits before constraint extraction,
#: so "top five" and "top 5" produce the same signature.
NUMBER_WORDS = {
    "zero": "0",
    "one": "1",
    "two": "2",
    "three": "3",
    "four": "4",
    "five": "5",
    "six": "6",
    "seven": "7",
    "eight": "8",
    "nine": "9",
    "ten": "10",
    "eleven": "11",
    "twelve": "12",
    "thirteen": "13",
    "fourteen": "14",
    "fifteen": "15",
    "sixteen": "16",
    "seventeen": "17",
    "eighteen": "18",
    "nineteen": "19",
    "twenty": "20",
    "thirty": "30",
    "forty": "40",
    "fifty": "50",
    "sixty": "60",
    "seventy": "70",
    "eighty": "80",
    "ninety": "90",
    "hundred": "100",
    "thousand": "1000",
}

#: Ranking words whose adjacent number is a result limit, not a filter.
LIMIT_WORDS = frozenset(
    """
    top first last best worst cheapest largest smallest highest lowest
    latest oldest newest earliest biggest longest shortest most fewest
    """.split()
)

#: Comparison phrasings, longest first so "no more than" wins over "more
#: than". Each maps to a canonical operator applied to the nearest number.
_COMPARISON_PHRASES: tuple[tuple[tuple[str, ...], str], ...] = (
    (("no", "more", "than"), "le"),
    (("no", "fewer", "than"), "ge"),
    (("no", "less", "than"), "ge"),
    (("greater", "than", "or", "equal", "to"), "ge"),
    (("less", "than", "or", "equal", "to"), "le"),
    (("more", "than"), "gt"),
    (("greater", "than"), "gt"),
    (("higher", "than"), "gt"),
    (("larger", "than"), "gt"),
    (("bigger", "than"), "gt"),
    (("less", "than"), "lt"),
    (("fewer", "than"), "lt"),
    (("lower", "than"), "lt"),
    (("smaller", "than"), "lt"),
    (("at", "least"), "ge"),
    (("at", "most"), "le"),
    (("equal", "to"), "eq"),
    (("exactly",), "eq"),
    (("over",), "gt"),
    (("above",), "gt"),
    (("under",), "lt"),
    (("below",), "lt"),
)

#: Aggregation cues, longest first. These decide the answer's shape
#: (COUNT vs listing vs SUM), so they are a signature dimension rather
#: than stopwords.
_AGGREGATE_PHRASES: tuple[tuple[tuple[str, ...], str], ...] = (
    (("how", "many"), "count"),
    (("how", "much"), "sum"),
    (("total", "number"), "count"),
    (("number", "of"), "count"),
    (("count",), "count"),
    (("total",), "sum"),
    (("sum",), "sum"),
    (("average",), "avg"),
    (("mean",), "avg"),
    (("minimum",), "min"),
    (("maximum",), "max"),
)

#: Longest schema phrase (in stemmed words) the mention matcher considers.
_MAX_MENTION_WORDS = 4


def _is_number(token: str) -> bool:
    return bool(token) and token.replace(".", "", 1).isdigit()


@dataclass(frozen=True)
class IntentSignature:
    """The canonical, order-free identity of a question's intent."""

    tokens: tuple[str, ...]
    mentions: tuple[str, ...]
    entities: tuple[str, ...]
    limit: Optional[int]
    comparisons: tuple[str, ...]
    literals: tuple[str, ...]
    aggregates: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        """True when nothing anchored: no stems, mentions, or entities."""
        return not (self.tokens or self.mentions or self.entities)

    def key(self) -> str:
        """A stable hex digest usable as a store key component."""
        if "_key" not in self.__dict__:  # frozen: kept beside the fields
            object.__setattr__(self, "_key", self._digest())
        return self.__dict__["_key"]

    def _digest(self) -> str:
        return canonical_key(
            {
                "tokens": list(self.tokens),
                "mentions": list(self.mentions),
                "entities": list(self.entities),
                "limit": self.limit,
                "comparisons": list(self.comparisons),
                "literals": list(self.literals),
                "aggregates": list(self.aggregates),
            }
        )


# ---------------------------------------------------------------------------
# Schema lexicon


def _phrase_stems(text: str) -> Optional[str]:
    """Stemmed, stopword-stripped phrase for a schema vocabulary entry."""
    words = [
        stem(word)
        for word in tokenize(text.replace("_", " "))
        if word not in STOPWORDS and not _is_number(word)
    ]
    if not words or len(words) > _MAX_MENTION_WORDS:
        return None
    return " ".join(words)


def _build_lexicon(schema: DatabaseSchema) -> dict[str, str]:
    """Map stemmed phrases to ``table:``/``column:`` labels.

    Tables are indexed before columns and phrases claim their label on
    first write, so a table name shadows a same-named column elsewhere —
    matching resolution stays deterministic regardless of dict tricks.
    """
    lexicon: dict[str, str] = {}

    def _claim(text: str, label: str) -> None:
        phrase = _phrase_stems(text)
        if phrase and phrase not in lexicon:
            lexicon[phrase] = label

    for table in sorted(schema.tables, key=lambda table: table.key):
        label = f"table:{table.key}"
        _claim(table.name, label)
        _claim(table.nl_name, label)
        for synonym in table.synonyms:
            _claim(synonym, label)
    for table in sorted(schema.tables, key=lambda table: table.key):
        for column in table.columns:
            label = f"column:{table.key}.{column.key}"
            _claim(column.name, label)
            _claim(column.nl_name, label)
            for synonym in column.synonyms:
                _claim(synonym, label)
    return lexicon


_LEXICONS: "weakref.WeakKeyDictionary[DatabaseSchema, dict[str, str]]" = (
    weakref.WeakKeyDictionary()
)


def schema_lexicon(schema: DatabaseSchema) -> dict[str, str]:
    """The (cached) stemmed-phrase → schema-label index for a schema."""
    try:
        lexicon = _LEXICONS.get(schema)
    except TypeError:  # unhashable/weakref-less schema stand-ins
        return _build_lexicon(schema)
    if lexicon is None:
        lexicon = _build_lexicon(schema)
        try:
            _LEXICONS[schema] = lexicon
        except TypeError:
            pass
    return lexicon


# ---------------------------------------------------------------------------
# Constraint extraction


def _comparison_anchor(
    tokens: list[str],
    consumed: set[int],
    index: int,
    lexicon: dict[str, str],
) -> Optional[str]:
    """The nearest preceding content word, as a schema label or a stem.

    Without an anchor, "price over 300 and duration under 120" and its
    columns-swapped opposite reduce to the same floating {gt:300, lt:120}
    set — and the cache would serve thresholds bound to the wrong columns.
    """
    for pos in range(index - 1, -1, -1):
        if pos in consumed:
            continue
        token = tokens[pos]
        if token in STOPWORDS or _is_number(token):
            continue
        stemmed = stem(token)
        return lexicon.get(stemmed, stemmed)
    return None


def _extract_comparisons(
    tokens: list[str], consumed: set[int], lexicon: dict[str, str]
) -> list[str]:
    """Find comparison phrases, consume them + their number, emit
    ``anchor:op:value`` (or bare ``op:value`` when nothing precedes)."""
    comparisons = []
    index = 0
    while index < len(tokens):
        if index in consumed:
            index += 1
            continue
        matched = False
        for phrase, op in _COMPARISON_PHRASES:
            end = index + len(phrase)
            if end > len(tokens):
                continue
            if any(pos in consumed for pos in range(index, end)):
                continue
            if tuple(tokens[index:end]) != phrase:
                continue
            number_pos = next(
                (
                    pos
                    for pos in range(end, min(end + 2, len(tokens)))
                    if pos not in consumed and _is_number(tokens[pos])
                ),
                None,
            )
            if number_pos is None:
                continue
            anchor = _comparison_anchor(tokens, consumed, index, lexicon)
            constraint = f"{op}:{tokens[number_pos]}"
            if anchor is not None:
                constraint = f"{anchor}:{constraint}"
            comparisons.append(constraint)
            consumed.update(range(index, end))
            consumed.add(number_pos)
            index = end
            matched = True
            break
        if not matched:
            index += 1
    return sorted(comparisons)


def _extract_limit(
    tokens: list[str], consumed: set[int]
) -> Optional[int]:
    """A number adjacent to a ranking word is a result limit.

    Only the number is consumed: the ranking word's stem must survive
    into the token set, or "5 cheapest" and "5 largest" — opposite sort
    directions — would collide onto one cache key.
    """
    for index, token in enumerate(tokens):
        if index in consumed or not _is_number(token) or "." in token:
            continue
        for neighbor in (index - 1, index + 1):
            if neighbor < 0 or neighbor >= len(tokens) or neighbor in consumed:
                continue
            if tokens[neighbor] in LIMIT_WORDS:
                consumed.add(index)
                return int(token)
    return None


def _extract_aggregates(
    tokens: list[str], consumed: set[int]
) -> list[str]:
    """Find aggregation cues, consume them, emit canonical tags."""
    aggregates: set[str] = set()
    index = 0
    while index < len(tokens):
        if index in consumed:
            index += 1
            continue
        matched = False
        for phrase, tag in _AGGREGATE_PHRASES:
            end = index + len(phrase)
            if end > len(tokens):
                continue
            if any(pos in consumed for pos in range(index, end)):
                continue
            if tuple(tokens[index:end]) != phrase:
                continue
            aggregates.add(tag)
            consumed.update(range(index, end))
            index = end
            matched = True
            break
        if not matched:
            index += 1
    return sorted(aggregates)


def build_signature(question: str, schema: DatabaseSchema) -> IntentSignature:
    """Extract the canonical :class:`IntentSignature` of a question,
    memoised per schema object like the lexicon it depends on."""
    try:
        return _memoised_signature(question, schema)
    except TypeError:  # unhashable schema stand-ins
        return _build_signature(question, schema)


def _build_signature(question: str, schema: DatabaseSchema) -> IntentSignature:
    raw = tokenize(question)
    entities = tuple(sorted(quoted_strings(question)))
    entity_tokens = {entity.lower() for entity in entities}

    tokens = [NUMBER_WORDS.get(token, token) for token in raw]
    consumed: set[int] = {
        index
        for index, token in enumerate(tokens)
        if token.lower() in entity_tokens
    }

    lexicon = schema_lexicon(schema)
    comparisons = _extract_comparisons(tokens, consumed, lexicon)
    limit = _extract_limit(tokens, consumed)
    aggregates = _extract_aggregates(tokens, consumed)
    literals = sorted(
        {
            token
            for index, token in enumerate(tokens)
            if index not in consumed and _is_number(token)
        }
    )
    consumed.update(
        index
        for index, token in enumerate(tokens)
        if _is_number(token)
    )

    content = [
        (index, stem(token))
        for index, token in enumerate(tokens)
        if index not in consumed and token not in STOPWORDS
    ]

    stems = [item[1] for item in content]
    mentioned: set[str] = set()
    claimed: set[int] = set()
    for start, end, phrase in sorted(
        ngrams(stems, max_n=_MAX_MENTION_WORDS),
        key=lambda gram: (-(gram[1] - gram[0]), gram[0]),
    ):
        label = lexicon.get(phrase)
        if label is None:
            continue
        if any(pos in claimed for pos in range(start, end)):
            continue
        mentioned.add(label)
        claimed.update(range(start, end))

    remaining = sorted(
        {
            stemmed
            for pos, (index, stemmed) in enumerate(content)
            if pos not in claimed and stemmed not in STOPWORDS
        }
    )

    return IntentSignature(
        tokens=tuple(remaining),
        mentions=tuple(sorted(mentioned)),
        entities=entities,
        limit=limit,
        comparisons=tuple(comparisons),
        literals=tuple(literals),
        aggregates=tuple(aggregates),
    )


#: Signatures memoised, least recently used dropped first.
SIGNATURES_KEPT = 4096

_memoised_signature = functools.lru_cache(maxsize=SIGNATURES_KEPT)(
    _build_signature
)
