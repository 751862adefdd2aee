"""Transaction manager (§3.2): TxnId/WriteId, snapshots, locks, conflicts."""
import pandas as pd
import pytest

from repro.metastore.txn import (
    LockConflict,
    LockMode,
    TxnAborted,
    TxnManager,
    TxnState,
    WriteConflict,
)


@pytest.fixture
def tm():
    return TxnManager()


class TestLifecycle:
    def test_txn_ids_monotonic(self, tm):
        assert [tm.open_txn() for _ in range(3)] == [1, 2, 3]

    def test_commit_and_state(self, tm):
        t = tm.open_txn()
        tm.commit(t)
        assert tm.state(t) is TxnState.COMMITTED

    def test_abort(self, tm):
        t = tm.open_txn()
        tm.abort(t)
        assert tm.state(t) is TxnState.ABORTED

    def test_double_commit_raises(self, tm):
        t = tm.open_txn()
        tm.commit(t)
        with pytest.raises(TxnAborted):
            tm.commit(t)

    def test_write_id_after_abort_raises(self, tm):
        t = tm.open_txn()
        tm.abort(t)
        with pytest.raises(TxnAborted):
            tm.allocate_write_id(t, "t1")


class TestWriteIds:
    def test_monotonic_per_table(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        assert tm.allocate_write_id(t1, "a") == 1
        assert tm.allocate_write_id(t2, "a") == 2

    def test_independent_across_tables(self, tm):
        t = tm.open_txn()
        assert tm.allocate_write_id(t, "a") == 1
        assert tm.allocate_write_id(t, "b") == 1

    def test_idempotent_within_txn(self, tm):
        """All records written by one txn to one table share one WriteId."""
        t = tm.open_txn()
        assert tm.allocate_write_id(t, "a") == tm.allocate_write_id(t, "a") == 1


class TestSnapshots:
    def test_snapshot_excludes_open(self, tm):
        t1 = tm.open_txn()
        tm.commit(t1)
        t2 = tm.open_txn()  # left open
        snap = tm.snapshot()
        assert snap.high_watermark == 2
        assert snap.is_visible_txn(t1)
        assert not snap.is_visible_txn(t2)

    def test_snapshot_excludes_aborted(self, tm):
        t = tm.open_txn()
        tm.abort(t)
        assert not tm.snapshot().is_visible_txn(t)

    def test_snapshot_excludes_future(self, tm):
        t1 = tm.open_txn()
        tm.commit(t1)
        snap = tm.snapshot()
        t2 = tm.open_txn()
        tm.commit(t2)
        assert not snap.is_visible_txn(t2)

    def test_valid_write_ids_basic(self, tm):
        t1 = tm.open_txn()
        tm.allocate_write_id(t1, "a")
        tm.commit(t1)
        t2 = tm.open_txn()  # open writer
        tm.allocate_write_id(t2, "a")
        wl = tm.valid_write_ids(tm.snapshot(), "a")
        assert wl.is_valid(1)
        assert not wl.is_valid(2)  # writer still open
        assert not wl.is_valid(3)  # above HWM

    def test_valid_write_ids_aborted(self, tm):
        t1 = tm.open_txn()
        tm.allocate_write_id(t1, "a")
        tm.abort(t1)
        wl = tm.valid_write_ids(tm.snapshot(), "a")
        assert not wl.is_valid(1)

    def test_valid_write_ids_scoped_per_table(self, tm):
        """Per-table lists keep reader state small (paper's design reason)."""
        t1 = tm.open_txn()
        tm.allocate_write_id(t1, "a")
        tm.commit(t1)
        t2 = tm.open_txn()
        tm.allocate_write_id(t2, "b")  # open writer on *b* only
        wl_a = tm.valid_write_ids(tm.snapshot(), "a")
        assert wl_a.invalid == frozenset()  # b's open writer not in a's list

    def test_valid_write_ids_fixed_at_snapshot(self, tm):
        """A list derived later from an older snapshot sees the same
        WriteIds: a write begun after the snapshot stays invalid when a
        writer open in the snapshot then takes a higher WriteId."""
        a = tm.open_txn()
        snap = tm.snapshot()
        before = tm.valid_write_ids(snap, "a")
        b = tm.open_txn()
        w = tm.allocate_write_id(b, "a")
        tm.commit(b)
        assert tm.allocate_write_id(a, "a") == w + 1
        after = tm.valid_write_ids(snap, "a")
        assert [after.is_valid(x) for x in range(4)] == [False] * 4
        assert [before.is_valid(x) for x in range(4)] == [False] * 4

    def test_write_id_zero_never_valid(self, tm):
        wl = tm.valid_write_ids(tm.snapshot(), "a")
        assert not wl.is_valid(0)

    def test_valid_mask_matches_is_valid(self, tm):
        """The vectorized mask scans use agrees with the per-WriteId rule."""
        for commit in (True, False, True, None):  # None: writer left open
            t = tm.open_txn()
            tm.allocate_write_id(t, "a")
            if commit is True:
                tm.commit(t)
            elif commit is False:
                tm.abort(t)
        wl = tm.valid_write_ids(tm.snapshot(), "a")
        assert wl.invalid == frozenset({2, 4})
        wids = pd.Series([0, 1, 2, 3, 4, 5, 3, 1], dtype="int64")
        assert wl.valid_mask(wids).tolist() == [wl.is_valid(w) for w in wids]


class TestLocks:
    def test_shared_locks_coexist(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.acquire_lock(t1, "a", "p=1", LockMode.SHARED)
        tm.acquire_lock(t2, "a", "p=1", LockMode.SHARED)  # no raise

    def test_exclusive_conflicts_with_shared(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.acquire_lock(t1, "a", "p=1", LockMode.SHARED)
        with pytest.raises(LockConflict):
            tm.acquire_lock(t2, "a", "p=1", LockMode.EXCLUSIVE)

    def test_shared_conflicts_with_exclusive(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.acquire_lock(t1, "a", "p=1", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflict):
            tm.acquire_lock(t2, "a", "p=1", LockMode.SHARED)

    def test_partition_granularity(self, tm):
        """Locks on different partitions of one table don't conflict."""
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.acquire_lock(t1, "a", "p=1", LockMode.EXCLUSIVE)
        tm.acquire_lock(t2, "a", "p=2", LockMode.EXCLUSIVE)  # no raise

    def test_table_lock_covers_partitions(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.acquire_lock(t1, "a", None, LockMode.EXCLUSIVE)  # drop-table style
        with pytest.raises(LockConflict):
            tm.acquire_lock(t2, "a", "p=1", LockMode.SHARED)

    def test_locks_released_on_commit(self, tm):
        t1 = tm.open_txn()
        tm.acquire_lock(t1, "a", "p=1", LockMode.EXCLUSIVE)
        tm.commit(t1)
        t2 = tm.open_txn()
        tm.acquire_lock(t2, "a", "p=1", LockMode.EXCLUSIVE)  # no raise

    def test_locks_released_on_abort(self, tm):
        t1 = tm.open_txn()
        tm.acquire_lock(t1, "a", None, LockMode.EXCLUSIVE)
        tm.abort(t1)
        t2 = tm.open_txn()
        tm.acquire_lock(t2, "a", None, LockMode.EXCLUSIVE)

    def test_different_tables_never_conflict(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.acquire_lock(t1, "a", None, LockMode.EXCLUSIVE)
        tm.acquire_lock(t2, "b", None, LockMode.EXCLUSIVE)


class TestWriteConflicts:
    def test_first_commit_wins(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.record_write(t1, "a", "p=1")
        tm.record_write(t2, "a", "p=1")
        tm.commit(t1)  # first committer wins
        with pytest.raises(WriteConflict):
            tm.commit(t2)
        assert tm.state(t2) is TxnState.ABORTED

    def test_disjoint_write_sets_ok(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.record_write(t1, "a", "p=1")
        tm.record_write(t2, "a", "p=2")
        tm.commit(t1)
        tm.commit(t2)  # no raise

    def test_non_concurrent_no_conflict(self, tm):
        t1 = tm.open_txn()
        tm.record_write(t1, "a", "p=1")
        tm.commit(t1)
        t2 = tm.open_txn()  # opened *after* t1 committed — sees its writes
        tm.record_write(t2, "a", "p=1")
        tm.commit(t2)

    def test_inserts_never_conflict(self, tm):
        """Only UPDATE/DELETE track write sets; concurrent inserts commit."""
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.allocate_write_id(t1, "a")
        tm.allocate_write_id(t2, "a")
        tm.commit(t1)
        tm.commit(t2)

    def test_aborted_writer_does_not_conflict(self, tm):
        t1, t2 = tm.open_txn(), tm.open_txn()
        tm.record_write(t1, "a", "p=1")
        tm.record_write(t2, "a", "p=1")
        tm.abort(t1)
        tm.commit(t2)  # winner aborted, no conflict
