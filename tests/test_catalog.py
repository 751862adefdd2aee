"""HMS catalog: tables, partitions, additive stats plumbing, MV registry."""
import pandas as pd
import pytest

from repro.metastore import (
    Column,
    Constraint,
    HiveMetastore,
    MaterializedView,
    Table,
    collect_stats,
)


@pytest.fixture
def hms():
    return HiveMetastore()


def _tbl(name="t", partitioned=()):
    return Table(
        name=name,
        columns=[Column("k", "int"), Column("v", "double"), Column("p", "int")],
        partitioned_by=list(partitioned),
    )


class TestTables:
    def test_create_get(self, hms):
        hms.create_table(_tbl())
        assert hms.get_table("t").name == "t"

    def test_duplicate_raises(self, hms):
        hms.create_table(_tbl())
        with pytest.raises(ValueError):
            hms.create_table(_tbl())

    def test_missing_raises(self, hms):
        with pytest.raises(KeyError):
            hms.get_table("nope")

    def test_drop(self, hms):
        hms.create_table(_tbl())
        hms.drop_table("t")
        assert not hms.has_table("t")

    def test_constraints(self):
        t = Table(
            "dim",
            [Column("id", "int")],
            constraints=[Constraint("primary_key", ("id",))],
        )
        assert t.has_constraint("primary_key", ["id"])
        assert not t.has_constraint("unique", ["id"])

    def test_tables_listing(self, hms):
        hms.create_table(_tbl("b"))
        hms.create_table(_tbl("a"))
        assert hms.tables() == ["a", "b"]


class TestPartitions:
    def test_add_list(self, hms):
        hms.create_table(_tbl(partitioned=("p",)))
        hms.add_partition("t", "p=1")
        hms.add_partition("t", "p=2")
        assert hms.partitions("t") == ["p=1", "p=2"]

    def test_drop_partition(self, hms):
        hms.create_table(_tbl(partitioned=("p",)))
        hms.add_partition("t", "p=1")
        hms.drop_partition("t", "p=1")
        assert hms.partitions("t") == []

    def test_partition_on_missing_table(self, hms):
        with pytest.raises(KeyError):
            hms.add_partition("nope", "p=1")


class TestStatsPlumbing:
    def test_update_merges_additively(self, hms):
        hms.create_table(_tbl())
        hms.update_stats("t", collect_stats(pd.DataFrame({"k": [1, 2]})))
        hms.update_stats("t", collect_stats(pd.DataFrame({"k": [3, 4, 5]})))
        s = hms.stats("t")
        assert s.row_count == 5
        assert s.column("k").max_value == 5

    def test_partition_stats_tracked(self, hms):
        hms.create_table(_tbl(partitioned=("p",)))
        hms.update_stats("t", collect_stats(pd.DataFrame({"k": [1]})), "p=1")
        hms.update_stats("t", collect_stats(pd.DataFrame({"k": [9]})), "p=2")
        assert hms.partition_stats("t", "p=2").column("k").min_value == 9
        assert hms.stats("t").row_count == 2

    def test_reset(self, hms):
        hms.create_table(_tbl())
        hms.update_stats("t", collect_stats(pd.DataFrame({"k": [1]})))
        hms.reset_stats("t")
        assert hms.stats("t") is None


class TestViews:
    def test_register_and_list(self, hms):
        v = MaterializedView("mv", definition=None, source_tables=["t"])
        hms.register_view(v)
        assert [w.name for w in hms.views()] == ["mv"]
        assert hms.get_view("mv").source_tables == ["t"]

    def test_staleness_window_property(self):
        v = MaterializedView(
            "mv", None, ["t"], properties={"rewriting.time.window": "600"}
        )
        assert v.allowed_staleness_s() == 600.0
        assert MaterializedView("m2", None, ["t"]).allowed_staleness_s() == 0.0

    def test_drop_view(self, hms):
        hms.register_view(MaterializedView("mv", None, ["t"]))
        hms.drop_view("mv")
        assert hms.views() == []


class TestHooks:
    def test_create_table_fires_hook(self, hms):
        events = []

        class Hook:
            def on_create_table(self, table):
                events.append(table.name)

        hms.register_hook("druid", Hook())
        hms.create_table(Table("d", [Column("x", "int")], storage_handler="druid"))
        assert events == ["d"]

    def test_native_tables_skip_foreign_hooks(self, hms):
        events = []

        class Hook:
            def on_create_table(self, table):
                events.append(table.name)

        hms.register_hook("druid", Hook())
        hms.create_table(_tbl())
        assert events == []
