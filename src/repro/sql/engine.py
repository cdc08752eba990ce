"""Database facade: schema + storage + a one-call ``execute``.

Typical use::

    db = Database.from_ddl("my_db", "CREATE TABLE t (id INTEGER, name TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    result = db.execute("SELECT COUNT(*) FROM t")
    assert result.scalar() == 2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro import obs
from repro.errors import CatalogError, ExecutionError
from repro.sql import ast
from repro.sql.executor import Executor, QueryResult
from repro.sql.expressions import BoundColumn, Evaluator, RowFrame
from repro.sql.parser import parse_statement
from repro.sql.schema import Column, DatabaseSchema, ForeignKey, Table
from repro.sql.storage import TableData
from repro.sql.types import DataType, SqlValue


@dataclass
class DmlResult:
    """Result of a DDL/DML statement: number of rows affected."""

    rows_affected: int


ExecuteResult = Union[QueryResult, DmlResult]


class Database:
    """An in-memory relational database."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._data: dict[str, TableData] = {
            table.key: TableData(table) for table in schema.tables
        }
        self._executor = Executor(self)
        self._ddl_version = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_ddl(cls, name: str, ddl: str) -> "Database":
        """Build a database by running a script of CREATE TABLE statements."""
        db = cls(DatabaseSchema(name, []))
        for statement_text in _split_statements(ddl):
            db.execute(statement_text)
        return db

    # -- storage access -------------------------------------------------------

    def data(self, table_name: str) -> TableData:
        """Row storage for a table (raises CatalogError if unknown)."""
        key = table_name.lower()
        if key not in self._data:
            raise CatalogError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        return self._data[key]

    def load_rows(
        self, table_name: str, rows: Iterable[Sequence[SqlValue]]
    ) -> int:
        """Bulk-insert rows (values in declaration order). Returns count."""
        data = self.data(table_name)
        count = 0
        for row in rows:
            data.insert(row)
            count += 1
        return count

    def row_count(self, table_name: str) -> int:
        return len(self.data(table_name))

    @property
    def version(self) -> tuple[int, int, int]:
        """Changes whenever the tables or their rows change."""
        return (
            self._ddl_version,
            len(self.schema.tables),
            sum(data.version for data in self._data.values()),
        )

    # -- execution --------------------------------------------------------------

    def execute(self, sql: str) -> ExecuteResult:
        """Parse and execute one SQL statement."""
        statement = parse_statement(sql)
        return self.execute_ast(statement)

    def query(self, sql: str) -> QueryResult:
        """Execute a statement that must be a query."""
        result = self.execute(sql)
        if not isinstance(result, QueryResult):
            raise ExecutionError("statement did not produce a result set")
        return result

    def execute_ast(self, statement: ast.Statement) -> ExecuteResult:
        """Execute an already-parsed statement."""
        if not obs.is_enabled():
            return self._execute_ast(statement)
        with obs.timer("sql.execute.latency_ms"):
            try:
                result = self._execute_ast(statement)
            except Exception:
                obs.count("sql.execute.failures")
                raise
        obs.count("sql.execute.calls")
        return result

    def _execute_ast(self, statement: ast.Statement) -> ExecuteResult:
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self._executor.execute_query(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        if isinstance(statement, ast.Update):
            return self._update(statement)
        if isinstance(statement, ast.Delete):
            return self._delete(statement)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        raise ExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )  # pragma: no cover

    # -- DDL / DML ----------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable) -> DmlResult:
        columns = [
            Column(
                name=col.name,
                dtype=DataType.from_name(col.type_name),
                primary_key=col.primary_key,
            )
            for col in stmt.columns
        ]
        foreign_keys = [
            ForeignKey(fk.column, fk.ref_table, fk.ref_column)
            for fk in stmt.foreign_keys
        ]
        table = Table(name=stmt.name, columns=columns, foreign_keys=foreign_keys)
        self.schema.add_table(table)
        self._data[table.key] = TableData(table)
        self._ddl_version += 1
        return DmlResult(rows_affected=0)

    def _insert(self, stmt: ast.Insert) -> DmlResult:
        data = self.data(stmt.table)
        evaluator = Evaluator(self._executor)
        empty = RowFrame([], ())
        count = 0
        for row_exprs in stmt.rows:
            values = [evaluator.evaluate(expr, empty) for expr in row_exprs]
            if stmt.columns:
                if len(values) != len(stmt.columns):
                    raise ExecutionError(
                        "INSERT value count does not match column list"
                    )
                data.insert_named(dict(zip(stmt.columns, values)))
            else:
                data.insert(values)
            count += 1
        return DmlResult(rows_affected=count)

    def _frame_for(self, data: TableData, row: tuple) -> RowFrame:
        columns = [
            BoundColumn(binding=data.table.key, name=col.key)
            for col in data.table.columns
        ]
        return RowFrame(columns, row)

    def _update(self, stmt: ast.Update) -> DmlResult:
        data = self.data(stmt.table)
        evaluator = Evaluator(self._executor)
        positions = {
            col.key: index for index, col in enumerate(data.table.columns)
        }
        for column, _expr in stmt.assignments:
            if column.lower() not in positions:
                raise CatalogError(
                    f"table {stmt.table!r} has no column {column!r}"
                )
        new_rows = []
        affected = 0
        for row in data.rows:
            frame = self._frame_for(data, row)
            if stmt.where is None or evaluator.truthy(stmt.where, frame):
                updated = list(row)
                for column, expr in stmt.assignments:
                    updated[positions[column.lower()]] = evaluator.evaluate(
                        expr, frame
                    )
                new_rows.append(tuple(updated))
                affected += 1
            else:
                new_rows.append(row)
        data.replace_rows(new_rows)
        return DmlResult(rows_affected=affected)

    def _delete(self, stmt: ast.Delete) -> DmlResult:
        data = self.data(stmt.table)
        evaluator = Evaluator(self._executor)
        kept = []
        affected = 0
        for row in data.rows:
            frame = self._frame_for(data, row)
            if stmt.where is None or evaluator.truthy(stmt.where, frame):
                affected += 1
            else:
                kept.append(row)
        data.replace_rows(kept)
        return DmlResult(rows_affected=affected)

    def _drop_table(self, stmt: ast.DropTable) -> DmlResult:
        key = stmt.name.lower()
        if key not in self._data:
            if stmt.if_exists:
                return DmlResult(rows_affected=0)
            raise CatalogError(
                f"database {self.schema.name!r} has no table {stmt.name!r}"
            )
        self.schema.drop_table(stmt.name)
        del self._data[key]
        self._ddl_version += 1
        return DmlResult(rows_affected=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.schema.name!r}, {len(self.schema.tables)} tables)"


def _split_statements(script: str) -> list[str]:
    """Split a SQL script on semicolons that are outside string literals."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    index = 0
    while index < len(script):
        char = script[index]
        if in_string:
            current.append(char)
            if char == "'":
                if script[index + 1 : index + 2] == "'":
                    current.append("'")
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif char == ";":
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
        else:
            current.append(char)
        index += 1
    text = "".join(current).strip()
    if text:
        statements.append(text)
    return statements
