"""Query result cache (§4.3): snapshot-validated hits, pending-entry mode."""
import threading

import pandas as pd
import pytest

from repro.core.cache import QueryResultCache
from repro.core.expr import Func, col
from repro.core.plan import Filter, Scan
from repro.metastore import Column, HiveMetastore, Table


@pytest.fixture
def hms():
    h = HiveMetastore()
    h.create_table(Table("t", [Column("k", "bigint")]))
    return h


@pytest.fixture
def cache():
    return QueryResultCache()


def plan():
    return Filter(Scan("t"), col("k").gt(1))


def result():
    return pd.DataFrame({"k": [2, 3]})


@pytest.fixture
def lists(hms):
    """The WriteId lists of a statement that starts now and reads ``t``."""
    return lambda: hms.txns.write_id_lists(hms.txns.snapshot(), ["t"])


def commit_write(hms, table="t"):
    t = hms.txns.open_txn()
    hms.txns.allocate_write_id(t, table)
    hms.txns.commit(t)


class TestBasics:
    def test_miss_then_hit(self, cache, lists):
        assert cache.lookup(plan(), lists()) is None
        cache.fill(plan(), result(), lists())
        got = cache.lookup(plan(), lists())
        assert got["k"].tolist() == [2, 3]

    def test_different_plans_do_not_collide(self, cache, lists):
        cache.fill(plan(), result(), lists())
        other = Filter(Scan("t"), col("k").gt(2))
        assert cache.lookup(other, lists()) is None

    def test_hit_after_unrelated_table_write(self, cache, hms, lists):
        hms.create_table(Table("other", [Column("x", "bigint")]))
        cache.fill(plan(), result(), lists())
        commit_write(hms, "other")
        assert cache.lookup(plan(), lists()) is not None

    def test_stale_after_table_write(self, cache, hms, lists):
        """New data in a participating table invalidates the entry."""
        cache.fill(plan(), result(), lists())
        commit_write(hms)
        assert cache.lookup(plan(), lists()) is None

    def test_stale_after_open_write_commits(self, cache, hms, lists):
        """An entry filled while a write was open is stale once it commits,
        although its WriteId was already at the watermark the entry saw."""
        t = hms.txns.open_txn()
        hms.txns.allocate_write_id(t, "t")
        cache.fill(plan(), result(), lists())
        assert cache.lookup(plan(), lists()) is not None
        hms.txns.commit(t)
        assert cache.lookup(plan(), lists()) is None

    def test_older_statement_keeps_newer_entry(self, cache, hms, lists):
        """A statement at an older snapshot misses without dropping the
        entry, and its fill does not replace the newer result."""
        old = lists()
        commit_write(hms)
        new = lists()
        cache.fill(plan(), result(), new)
        assert cache.lookup(plan(), old) is None
        cache.fill(plan(), result().head(1), old)
        assert cache.lookup(plan(), new)["k"].tolist() == [2, 3]

    def test_lru_eviction(self, cache, lists):
        cache.capacity = 2
        p1, p2, p3 = (Filter(Scan("t"), col("k").gt(i)) for i in range(3))
        cache.fill(p1, result(), lists())
        cache.fill(p2, result(), lists())
        cache.lookup(p1, lists())  # p1 most recent
        cache.fill(p3, result(), lists())  # evicts p2
        assert cache.lookup(p1, lists()) is not None
        assert cache.lookup(p2, lists()) is None


class TestCacheability:
    def test_rand_not_cacheable(self, cache, lists):
        p = Filter(Scan("t"), Func("rand", ()).gt(0.5))
        assert not cache.is_cacheable(p)
        cache.fill(p, result(), lists())
        assert cache.lookup(p, lists()) is None

    def test_current_date_not_cacheable(self, cache):
        p = Filter(Scan("t"), col("k").gt(Func("current_date", ())))
        assert not cache.is_cacheable(p)

    def test_deterministic_cacheable(self, cache):
        assert cache.is_cacheable(plan())


class TestPendingEntry:
    def test_first_computes_others_wait(self, cache, lists):
        state1, _ = cache.lookup_or_begin(plan(), lists())
        assert state1 == "compute"
        state2, ev = cache.lookup_or_begin(plan(), lists())
        assert state2 == "wait"

        served = []

        def waiter():
            ev.wait(timeout=5)
            served.append(cache.lookup(plan(), lists()))

        th = threading.Thread(target=waiter)
        th.start()
        cache.fill(plan(), result(), lists())
        th.join(timeout=5)
        assert served and served[0] is not None

    def test_fail_releases_waiters(self, cache, lists):
        cache.lookup_or_begin(plan(), lists())
        state, ev = cache.lookup_or_begin(plan(), lists())
        assert state == "wait"
        cache.fail(plan())
        assert ev.is_set()
        # the retrying query becomes the new computer
        state3, _ = cache.lookup_or_begin(plan(), lists())
        assert state3 == "compute"

    def test_hit_path_skips_pending(self, cache, lists):
        cache.fill(plan(), result(), lists())
        state, res = cache.lookup_or_begin(plan(), lists())
        assert state == "hit"
        assert res["k"].tolist() == [2, 3]

    def test_non_cacheable_never_pends(self, cache, lists):
        p = Filter(Scan("t"), Func("rand", ()).gt(0.5))
        assert cache.lookup_or_begin(p, lists()) == ("compute", None)
        assert cache.lookup_or_begin(p, lists()) == ("compute", None)  # no pending entry
