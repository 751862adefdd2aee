"""Compaction (§3.2): minor/major merges, history deletion, safe cleaning."""
import pandas as pd
import pytest

from repro.llap import LlapDaemon
from repro.storage.layout import DirKind, list_acid_dirs
from tests.conftest import rows


def dirs_of(acid, table, part):
    return list_acid_dirs(acid.warehouse / table / part)


def kinds(acid, table, part):
    return sorted((d.kind, d.wmin, d.wmax) for d in dirs_of(acid, table, part))


def scan_ks(acid, table="t"):
    return sorted(acid.reader.scan(table).toPandas()["k"].tolist())


def scan_kv(pdf):
    return pdf[["k", "v"]].values.tolist()


class TestMinor:
    def test_merges_deltas_result_unchanged(self, acid):
        for i in range(4):
            acid.run_insert("t", rows([i], [float(i)], [10]))
        assert len(dirs_of(acid, "t", "p=10")) == 4
        assert acid.compactor.minor_compact("t", "p=10")
        acid.compactor.clean()
        ds = dirs_of(acid, "t", "p=10")
        assert len(ds) == 1 and ds[0].kind == DirKind.DELTA
        assert (ds[0].wmin, ds[0].wmax) == (1, 4)
        assert scan_ks(acid) == [0, 1, 2, 3]

    def test_preserves_identity_triples(self, acid):
        """Tombstones written before compaction must still match after."""
        acid.run_insert("t", rows([1, 2], [1.0, 2.0], [10, 10]))
        acid.run_insert("t", rows([3], [3.0], [10]))
        full = acid.reader.scan("t", include_hidden=True).toPandas()
        t = acid.begin()
        acid.writer.delete(t, "t", full[full["k"] == 2])
        acid.hms.txns.commit(t)
        acid.compactor.minor_compact("t", "p=10")
        acid.compactor.clean()
        assert scan_ks(acid) == [1, 3]

    def test_merges_delete_deltas(self, acid):
        acid.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [10, 10, 10]))
        for k in (1, 2):
            full = acid.reader.scan("t", include_hidden=True).toPandas()
            t = acid.begin()
            acid.writer.delete(t, "t", full[full["k"] == k])
            acid.hms.txns.commit(t)
        acid.compactor.minor_compact("t", "p=10")
        acid.compactor.clean()
        dd = [d for d in dirs_of(acid, "t", "p=10") if d.kind == DirKind.DELETE_DELTA]
        assert len(dd) == 1
        assert scan_ks(acid) == [3]

    def test_single_delta_not_merged(self, acid):
        acid.run_insert("t", rows([1], [1.0], [10]))
        assert not acid.compactor.minor_compact("t", "p=10")

    def test_drops_aborted_rows(self, acid):
        acid.run_insert("t", rows([1], [1.0], [10]))
        t = acid.begin()
        acid.writer.insert(t, "t", rows([99], [9.9], [10]))
        acid.hms.txns.abort(t)
        acid.run_insert("t", rows([2], [2.0], [10]))
        acid.compactor.minor_compact("t", "p=10")
        acid.compactor.clean()
        # aborted write's rows are physically gone from the merged delta
        frames = [
            pd.read_parquet(f)
            for d in dirs_of(acid, "t", "p=10")
            for f in d.path.glob("*.parquet")
        ]
        all_rows = pd.concat(frames)
        assert 99 not in all_rows["k"].tolist()
        assert scan_ks(acid) == [1, 2]


class TestMajor:
    def test_builds_base_and_applies_deletes(self, acid):
        acid.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [10, 10, 10]))
        full = acid.reader.scan("t", include_hidden=True).toPandas()
        t = acid.begin()
        acid.writer.delete(t, "t", full[full["k"] == 2])
        acid.hms.txns.commit(t)
        assert acid.compactor.major_compact("t", "p=10")
        acid.compactor.clean()
        ds = dirs_of(acid, "t", "p=10")
        assert [d.kind for d in ds] == [DirKind.BASE]
        assert ds[0].wmax == 2  # covers the delete's WriteId too
        assert scan_ks(acid) == [1, 3]

    def test_base_plus_new_deltas_read_together(self, acid):
        acid.run_insert("t", rows([1], [1.0], [10]))
        acid.compactor.major_compact("t", "p=10")
        acid.compactor.clean()
        acid.run_insert("t", rows([2], [2.0], [10]))
        assert scan_ks(acid) == [1, 2]

    def test_respects_open_txn_ceiling(self, acid):
        """An open writer's delta must survive compaction untouched."""
        acid.run_insert("t", rows([1], [1.0], [10]))
        acid.run_insert("t", rows([2], [2.0], [10]))
        t_open = acid.begin()
        acid.writer.insert(t_open, "t", rows([3], [3.0], [10]))  # not committed
        acid.compactor.major_compact("t", "p=10")
        acid.compactor.clean()
        ks = kinds(acid, "t", "p=10")
        assert (DirKind.BASE, 0, 2) in ks
        assert (DirKind.DELTA, 3, 3) in ks  # open write untouched
        acid.hms.txns.commit(t_open)
        assert scan_ks(acid) == [1, 2, 3]

    def test_cleaning_is_separate_phase(self, acid):
        """Old dirs survive until clean() so in-flight scans finish (§3.2)."""
        acid.run_insert("t", rows([1], [1.0], [10]))
        acid.run_insert("t", rows([2], [2.0], [10]))
        # pin a scan's file list before compaction
        wids = acid.hms.txns.valid_write_ids(acid.hms.txns.snapshot(), "t")
        files_before, _ = acid.reader.visible_files("t", wids)
        acid.compactor.major_compact("t", "p=10")
        # before clean: both old deltas and the new base exist
        import os

        assert all(os.path.exists(f) for f in files_before)
        removed = acid.compactor.clean()
        assert removed == 2
        assert not any(os.path.exists(f) for f in files_before)

    def test_supersede_during_clean_is_kept(self, acid, monkeypatch):
        """A directory superseded while clean() runs is left for the next
        clean(), not lost."""
        import repro.storage.compactor as compactor_module

        acid.run_insert("t", rows([1], [1.0], [10]))
        acid.run_insert("t", rows([2], [2.0], [10]))
        acid.compactor.minor_compact("t", "p=10")
        acid.run_insert("t", rows([3], [3.0], [10]))
        rmtree = compactor_module.shutil.rmtree
        calls = []

        def superseding_rmtree(path):
            if not calls:
                acid.compactor.major_compact("t", "p=10")
            calls.append(path)
            rmtree(path)

        monkeypatch.setattr(compactor_module.shutil, "rmtree", superseding_rmtree)
        assert acid.compactor.clean() == 2
        monkeypatch.undo()
        assert acid.compactor.clean() == 2
        assert kinds(acid, "t", "p=10") == [(DirKind.BASE, 0, 3)]
        assert scan_ks(acid) == [1, 2, 3]

    def test_empty_partition_noop(self, acid):
        assert not acid.compactor.major_compact("t", "p=99")


class TestAutoTrigger:
    def test_minor_triggered_by_delta_count(self, acid):
        acid.compactor.minor_delta_threshold = 3
        for i in range(3):
            acid.run_insert("t", rows([i], [float(i)], [10]))
        decisions = acid.compactor.maybe_compact("t")
        assert [d.kind for d in decisions] == ["minor"]
        acid.compactor.clean()
        assert len(dirs_of(acid, "t", "p=10")) == 1

    def test_major_triggered_by_ratio(self, acid):
        acid.run_insert("t", rows(list(range(100)), [0.0] * 100, [10] * 100))
        acid.compactor.major_compact("t", "p=10")
        acid.compactor.clean()
        acid.run_insert("t", rows([200] * 20, [0.0] * 20, [10] * 20))
        acid.compactor.major_delta_ratio = 0.1
        decisions = acid.compactor.maybe_compact("t")
        assert decisions[0].kind == "major"

    def test_below_thresholds_noop(self, acid):
        acid.run_insert("t", rows([1], [1.0], [10]))
        decisions = acid.compactor.maybe_compact("t")
        assert decisions[0].kind is None


class TestBetweenMergeAndClean:
    """Readers and further compactions that run after a merge phase but
    before clean() see every committed row exactly once (§3.2)."""

    @staticmethod
    def expect(inserted):
        return sorted(map(tuple, pd.concat(inserted)[["k", "v"]].values.tolist()))

    @staticmethod
    def via_spark(acid):
        return sorted(map(tuple, scan_kv(acid.reader.scan("t").toPandas())))

    @staticmethod
    def via_llap(acid):
        daemon = LlapDaemon(acid.hms, str(acid.warehouse))
        try:
            return sorted(map(tuple, scan_kv(daemon.scan_table("t"))))
        finally:
            daemon.shutdown()

    def insert(self, acid, inserted, ks):
        pdf = rows(ks, [k / 2 for k in ks], [10] * len(ks))
        acid.run_insert("t", pdf)
        inserted.append(pdf)

    def test_minor_then_read_before_clean(self, acid):
        inserted = []
        self.insert(acid, inserted, [1])
        self.insert(acid, inserted, [2])
        assert acid.compactor.minor_compact("t", "p=10")
        want = self.expect(inserted)
        assert self.via_spark(acid) == want
        assert self.via_llap(acid) == want
        acid.compactor.clean()
        assert self.via_spark(acid) == want
        assert self.via_llap(acid) == want

    @pytest.mark.parametrize(
        "steps",
        [
            ["insert", "major", "insert", "major"],
            ["insert", "insert", "minor", "major"],
            ["insert", "minor", "insert", "insert", "minor", "major", "insert", "major"],
        ],
        ids=["major-major", "minor-major", "mixed"],
    )
    def test_compactions_without_clean(self, acid, steps):
        inserted, next_k = [], 1
        for step in steps:
            if step == "insert":
                ks = list(range(next_k, next_k + len(inserted) + 1))
                next_k += len(ks)
                self.insert(acid, inserted, ks)
            else:
                getattr(acid.compactor, f"{step}_compact")("t", "p=10")
            assert self.via_spark(acid) == self.expect(inserted)
        assert self.via_llap(acid) == self.expect(inserted)
        acid.compactor.clean()
        assert self.via_spark(acid) == self.expect(inserted)
        assert self.via_llap(acid) == self.expect(inserted)
        assert [d.kind for d in dirs_of(acid, "t", "p=10")] == [DirKind.BASE]

    def test_second_maybe_compact_decides_nothing(self, acid):
        inserted = []
        for k in range(10):
            self.insert(acid, inserted, [k])
        assert [d.kind for d in acid.compactor.maybe_compact("t")] == ["minor"]
        assert [d.kind for d in acid.compactor.maybe_compact("t")] == [None]
        assert self.via_spark(acid) == self.expect(inserted)
        assert acid.compactor.clean() == 10
        assert kinds(acid, "t", "p=10") == [(DirKind.DELTA, 1, 10)]
        assert self.via_spark(acid) == self.expect(inserted)
        assert self.via_llap(acid) == self.expect(inserted)

    def test_delete_deltas_merged_before_major(self, acid):
        """Tombstones merged by a minor compaction still apply once, to the
        base a later major compaction builds before anything is cleaned."""
        inserted = []
        self.insert(acid, inserted, [1, 2, 3, 4])
        for k in (2, 3):
            full = acid.reader.scan("t", include_hidden=True).toPandas()
            t = acid.begin()
            acid.writer.delete(t, "t", full[full["k"] == k])
            acid.hms.txns.commit(t)
        acid.compactor.minor_compact("t", "p=10")
        acid.compactor.major_compact("t", "p=10")
        want = [(1, 0.5), (4, 2.0)]
        assert self.via_spark(acid) == want
        assert self.via_llap(acid) == want
        acid.compactor.clean()
        assert kinds(acid, "t", "p=10") == [(DirKind.BASE, 0, 3)]
        assert self.via_spark(acid) == want
