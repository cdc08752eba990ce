"""Database facade tests: DDL, DML, schema/storage behaviour."""

import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sql.engine import Database, DmlResult, _split_statements
from repro.sql.schema import Column, DatabaseSchema, Table
from repro.sql.types import DataType


@pytest.fixture()
def db():
    return Database.from_ddl(
        "shop",
        "CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT, price REAL)",
    )


class TestDdl:
    def test_create_table_registers_schema(self, db):
        table = db.schema.table("item")
        assert [c.name for c in table.columns] == ["id", "name", "price"]
        assert table.primary_key.name == "id"

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE item (x INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE item")
        assert not db.schema.has_table("item")

    def test_drop_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nothere")
        result = db.execute("DROP TABLE IF EXISTS nothere")
        assert isinstance(result, DmlResult)

    def test_from_ddl_multiple_statements(self):
        db = Database.from_ddl(
            "multi",
            "CREATE TABLE a (x INTEGER); CREATE TABLE b (y TEXT);",
        )
        assert db.schema.has_table("a") and db.schema.has_table("b")


class TestInsert:
    def test_insert_rows_affected(self, db):
        result = db.execute("INSERT INTO item VALUES (1, 'pen', 2.5), (2, 'ink', 8.0)")
        assert result.rows_affected == 2
        assert db.row_count("item") == 2

    def test_insert_with_column_list(self, db):
        db.execute("INSERT INTO item (id, name) VALUES (1, 'pen')")
        assert db.query("SELECT price FROM item").scalar() is None

    def test_insert_coerces_types(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 3)")
        value = db.query("SELECT price FROM item").scalar()
        assert isinstance(value, float)

    def test_duplicate_pk_rejected(self, db):
        db.execute("INSERT INTO item VALUES (1, 'pen', 1.0)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO item VALUES (1, 'dup', 1.0)")

    def test_wrong_width_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO item VALUES (1, 'pen')")

    def test_load_rows(self, db):
        count = db.load_rows("item", [(1, "a", 1.0), (2, "b", 2.0)])
        assert count == 2


class TestUpdateDelete:
    @pytest.fixture(autouse=True)
    def seed(self, db):
        db.execute(
            "INSERT INTO item VALUES (1, 'pen', 2.5), (2, 'ink', 8.0), (3, 'pad', 4.0)"
        )

    def test_update_with_where(self, db):
        result = db.execute("UPDATE item SET price = 9.0 WHERE name = 'ink'")
        assert result.rows_affected == 1
        assert db.query("SELECT price FROM item WHERE name = 'ink'").scalar() == 9.0

    def test_update_all(self, db):
        result = db.execute("UPDATE item SET price = price * 2")
        assert result.rows_affected == 3
        assert db.query("SELECT SUM(price) FROM item").scalar() == pytest.approx(29.0)

    def test_update_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("UPDATE item SET nope = 1")

    def test_delete_with_where(self, db):
        result = db.execute("DELETE FROM item WHERE price > 3")
        assert result.rows_affected == 2
        assert db.row_count("item") == 1

    def test_delete_all(self, db):
        db.execute("DELETE FROM item")
        assert db.row_count("item") == 0

    def test_query_on_dml_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("DELETE FROM item")


class TestSchemaApi:
    def test_resolve_column(self):
        schema = DatabaseSchema(
            "s",
            [
                Table("a", [Column("x", DataType.INTEGER)]),
                Table("b", [Column("x", DataType.INTEGER), Column("y", DataType.TEXT)]),
            ],
        )
        assert len(schema.resolve_column("x")) == 2
        assert len(schema.resolve_column("y")) == 1

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("x", DataType.INTEGER), Column("X", DataType.TEXT)])

    def test_ddl_rendering(self, db):
        ddl = db.schema.ddl()
        assert "CREATE TABLE item" in ddl
        assert "id INTEGER PRIMARY KEY" in ddl

    def test_nl_name_defaults(self):
        column = Column("Song_release_year", DataType.INTEGER)
        assert column.nl_name == "song release year"


class TestSplitStatements:
    def test_semicolon_in_string_not_split(self):
        parts = _split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1")
        assert len(parts) == 2
        assert "a;b" in parts[0]

    def test_escaped_quote_in_string(self):
        parts = _split_statements("INSERT INTO t VALUES ('it''s; fine')")
        assert len(parts) == 1

    def test_empty_statements_dropped(self):
        assert _split_statements(";;  ;") == []


class TestVersion:
    def test_every_write_changes_the_version(self, db):
        seen = [db.version]
        for statement in (
            "INSERT INTO item VALUES (1, 'a', 1.0)",
            "UPDATE item SET price = 2.0",
            "DELETE FROM item WHERE id = 1",
            "CREATE TABLE other (x INTEGER)",
            "DROP TABLE other",
        ):
            db.execute(statement)
            assert db.version not in seen, statement
            seen.append(db.version)
        db.load_rows("item", [(5, "e", 5.0)])
        assert db.version not in seen

    def test_queries_leave_the_version_alone(self, db):
        db.execute("INSERT INTO item VALUES (1, 'a', 1.0)")
        before = db.version
        db.query("SELECT COUNT(*) FROM item")
        assert db.version == before
