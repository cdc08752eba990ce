"""In-memory row storage with type checking.

Rows are stored as tuples in declaration order. The storage layer enforces
column count, coerces values to declared types, and (lightly) enforces
primary-key uniqueness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import CatalogError, ExecutionError
from repro.sql.schema import Table
from repro.sql.types import SqlValue, coerce


class TableData:
    """Rows for a single table."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.rows: list[tuple[SqlValue, ...]] = []
        #: Bumped by every write, so readers can tell the rows changed.
        self.version = 0
        self._pk_index: dict[SqlValue, int] = {}
        pk = table.primary_key
        self._pk_position = table.columns.index(pk) if pk else None

    def insert(self, values: Sequence[SqlValue]) -> None:
        """Insert one row given values in declaration order."""
        if len(values) != len(self.table.columns):
            raise ExecutionError(
                f"table {self.table.name!r} expects {len(self.table.columns)} "
                f"values, got {len(values)}"
            )
        row = tuple(
            coerce(value, column.dtype)
            for value, column in zip(values, self.table.columns)
        )
        if self._pk_position is not None:
            key = row[self._pk_position]
            if key is not None and key in self._pk_index:
                raise ExecutionError(
                    f"duplicate primary key {key!r} in table {self.table.name!r}"
                )
            if key is not None:
                self._pk_index[key] = len(self.rows)
        self.rows.append(row)
        self.version += 1

    def insert_named(self, values: dict[str, SqlValue]) -> None:
        """Insert a row given a column-name → value mapping.

        Unnamed columns default to NULL.
        """
        ordered: list[SqlValue] = []
        lowered = {name.lower(): value for name, value in values.items()}
        known = {column.key for column in self.table.columns}
        for name in lowered:
            if name not in known:
                raise CatalogError(
                    f"table {self.table.name!r} has no column {name!r}"
                )
        for column in self.table.columns:
            ordered.append(lowered.get(column.key))
        self.insert(ordered)

    def replace_rows(self, rows: Iterable[tuple[SqlValue, ...]]) -> None:
        """Replace all rows (used by UPDATE/DELETE); rebuilds the PK index."""
        self.rows = list(rows)
        self.version += 1
        self._pk_index = {}
        if self._pk_position is not None:
            for index, row in enumerate(self.rows):
                key = row[self._pk_position]
                if key is not None:
                    if key in self._pk_index:
                        raise ExecutionError(
                            f"duplicate primary key {key!r} in table "
                            f"{self.table.name!r}"
                        )
                    self._pk_index[key] = index

    def column_index(self, name: str) -> int:
        """Position of a column in stored rows."""
        for index, column in enumerate(self.table.columns):
            if column.key == name.lower():
                return index
        raise CatalogError(f"table {self.table.name!r} has no column {name!r}")

    def __len__(self) -> int:
        return len(self.rows)
