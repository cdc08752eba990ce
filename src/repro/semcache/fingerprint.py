"""Per-tenant schema fingerprints: the invalidation key of the semcache.

A cached answer is only valid against the schema it was generated for — a
renamed column or a retyped field silently changes what the "same"
question means. The fingerprint is a stable content hash over the schema's
*structural identity* (table names, column names, declared types, primary
keys) so that:

* two processes hosting identical schemas compute identical fingerprints
  (the hash rides on :func:`repro.durability.atomic.canonical_key`, the
  same canonical-JSON construction every persister uses);
* any structural mutation — add/drop/rename of a table or column, a type
  change — produces a new fingerprint, which the store treats as a
  schema-change bypass + invalidation event;
* cosmetic metadata (NL annotations, synonyms, foreign keys) does *not*
  perturb the fingerprint: it never changes what a stored SQL answer
  means against the data.

Tables and columns are hashed in name-sorted order, so the fingerprint is
invariant to declaration order — reordering columns is not a semantic
schema change.
"""

from __future__ import annotations

import functools

from repro.durability.atomic import canonical_key
from repro.sql.schema import DatabaseSchema

#: Characters of the fingerprint shown on operator surfaces (/statusz).
DISPLAY_DIGITS = 12


def schema_fingerprint(schema: DatabaseSchema) -> str:
    """A stable hex digest over the schema's tables, columns, and types,
    memoised on the raw names, types and keys (cheaper than hashing)."""
    return _fingerprint(
        schema.name,
        tuple(
            (
                table.name,
                tuple(
                    (column.name, column.dtype, bool(column.primary_key))
                    for column in table.columns
                ),
            )
            for table in schema.tables
        ),
    )


@functools.lru_cache(maxsize=1024)
def _fingerprint(name: str, tables: tuple) -> str:
    material = {
        "database": name.lower(),
        "tables": [
            {
                "name": table_name.lower(),
                "columns": sorted(
                    [column.lower(), dtype.value, primary_key]
                    for column, dtype, primary_key in columns
                ),
            }
            for table_name, columns in sorted(
                tables, key=lambda table: table[0].lower()
            )
        ],
    }
    return canonical_key(material)


def display_fingerprint(fingerprint: str) -> str:
    """The operator-facing short form (full digests stay in the store)."""
    return fingerprint[:DISPLAY_DIGITS]
