"""Schema and Table: the microdata model."""

from __future__ import annotations

import pytest

from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import EmptyTableError, SchemaError


@pytest.fixture
def schema():
    return Schema(quasi_identifiers=("zip", "age"), sensitive="disease")


@pytest.fixture
def table(schema):
    return Table(
        [
            {"zip": "14850", "age": 23, "disease": "flu"},
            {"zip": "14850", "age": 23, "disease": "cold"},
            {"zip": "14853", "age": 30, "disease": "flu"},
        ],
        schema,
    )


class TestSchema:
    def test_attributes_order(self, schema):
        assert schema.attributes == ("zip", "age", "disease")

    def test_identifier_first_when_present(self):
        s = Schema(("zip",), "disease", identifier="name")
        assert s.attributes == ("name", "zip", "disease")

    def test_requires_qi(self):
        with pytest.raises(SchemaError):
            Schema((), "disease")

    def test_rejects_name_collisions(self):
        with pytest.raises(SchemaError):
            Schema(("a", "a"), "s")
        with pytest.raises(SchemaError):
            Schema(("a",), "a")
        with pytest.raises(SchemaError):
            Schema(("a",), "s", identifier="s")

    def test_validate_record(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_record({"zip": "1", "age": 2})

    def test_qi_tuple(self, schema):
        assert schema.qi_tuple({"zip": "x", "age": 1, "disease": "d"}) == ("x", 1)


class TestTable:
    def test_len_iter_getitem(self, table):
        assert len(table) == 3
        assert table[0]["disease"] == "flu"
        assert sum(1 for _ in table) == 3

    def test_person_ids_default_to_row_index(self, table):
        assert table.person_ids == (0, 1, 2)

    def test_person_ids_from_identifier_column(self):
        s = Schema(("zip",), "d", identifier="name")
        t = Table(
            [{"name": "bob", "zip": "1", "d": "x"},
             {"name": "eve", "zip": "2", "d": "y"}],
            s,
        )
        assert t.person_ids == ("bob", "eve")
        assert t.record_of("eve")["d"] == "y"

    def test_duplicate_identifiers_rejected(self):
        s = Schema(("zip",), "d", identifier="name")
        with pytest.raises(SchemaError):
            Table(
                [{"name": "bob", "zip": "1", "d": "x"},
                 {"name": "bob", "zip": "2", "d": "y"}],
                s,
            )

    def test_record_of_missing_person(self, table):
        with pytest.raises(KeyError):
            table.record_of(99)

    def test_sensitive_accessors(self, table):
        assert table.sensitive_values() == ("flu", "cold", "flu")
        assert table.sensitive_domain() == ("cold", "flu")
        assert table.sensitive_histogram() == {"flu": 2, "cold": 1}

    def test_column_and_distinct(self, table):
        assert table.column("age") == (23, 23, 30)
        assert table.distinct("zip") == ("14850", "14853")
        assert table.distinct("age") == (23, 30)

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.column("nope")

    def test_rows_are_defensive_copies(self, schema):
        source = [{"zip": "1", "age": 2, "disease": "d"}]
        t = Table(source, schema)
        source[0]["disease"] = "mutated"
        assert t[0]["disease"] == "d"

    def test_map_qi_leaves_sensitive_untouched(self, table):
        mapped = table.map_qi(lambda attr, value: "*")
        assert mapped.sensitive_values() == table.sensitive_values()
        assert all(r["zip"] == "*" and r["age"] == "*" for r in mapped)

    def test_select(self, table):
        young = table.select(lambda r: r["age"] < 25)
        assert len(young) == 2

    def test_sample_deterministic(self, table):
        assert table.sample(2, seed=1) == table.sample(2, seed=1)
        with pytest.raises(EmptyTableError):
            table.sample(10)

    def test_group_by_qi(self, table):
        groups = table.group_by_qi()
        assert groups[("14850", 23)] == [0, 1]
        assert groups[("14853", 30)] == [2]

    def test_qi_classes_index(self, table):
        index = table.qi_classes()
        assert index.keys == (("14850", 23), ("14853", 30))
        assert index.rows == ((0, 1), (2,))
        assert index.sensitive == ("flu", "cold", "flu")
        assert index.distinct == (("14850", "14853"), (23, 30))
        assert index.counts == ({"flu": 1, "cold": 1}, {"flu": 1})
        assert table.qi_classes() is index  # built once, then cached

    def test_qi_classes_of_empty_table(self, schema):
        index = Table([], schema).qi_classes()
        assert index.keys == index.rows == index.sensitive == index.counts == ()
        assert index.distinct == ((), ())

    def test_missing_attribute_rejected(self, schema):
        with pytest.raises(SchemaError):
            Table([{"zip": "1", "age": 2}], schema)

    def test_from_columns(self, schema):
        t = Table.from_columns(
            {"zip": ["1", "2"], "age": [1, 2], "disease": ["x", "y"]}, schema
        )
        assert len(t) == 2
        with pytest.raises(SchemaError):
            Table.from_columns(
                {"zip": ["1"], "age": [1, 2], "disease": ["x", "y"]}, schema
            )

    def test_require_nonempty(self, schema):
        with pytest.raises(EmptyTableError):
            Table([], schema).require_nonempty()

    def test_equality(self, table, schema):
        same = Table(list(table.rows), schema)
        assert table == same
        assert table != Table([], schema)
