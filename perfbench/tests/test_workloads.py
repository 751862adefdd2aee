from itertools import islice

import pandas as pd

from perfbench.run import Phase, measure
from perfbench.workloads import ETL_CYCLE, WRITE_KINDS, Statement, etl_reads, etl_stream
from repro.core.hs2 import ExecutionReport
from repro.synth_data import tpcds_lite_pandas


def _cycles(seed, frames, n=3):
    return list(islice(etl_stream(seed, frames), n))


def test_same_seed_same_etl_stream():
    frames = tpcds_lite_pandas(sf=0.01, seed=3)
    a = _cycles(3, frames)
    assert a == _cycles(3, frames)
    assert a != _cycles(4, frames)
    assert a[0] != a[1]  # each cycle draws its own rows
    for cycle in a:
        assert [op.kind for op in cycle] == [s for s in ETL_CYCLE if s in WRITE_KINDS]


def test_etl_cycle_reads_name_known_queries():
    known = {q.name for q in etl_reads()}
    assert {s for s in ETL_CYCLE if s not in WRITE_KINDS} <= known


class _Server:
    daemon = None


class _Fixed:
    """A workload whose only read returns a chosen answer."""

    def __init__(self, answer):
        self.answer = answer
        self.tables = {"t": pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 5.0]})}

    def live_tables(self):
        return self.tables

    def statements(self):
        sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k"

        def run(hs2):
            if isinstance(self.answer, Exception):
                raise self.answer
            return ExecutionReport(result=self.answer)

        return [Statement("read", "q", run, sql=sql) for _ in range(3)]

    def start_unit(self, hs2):
        pass

    def unit(self):
        return self.statements()


def _measure(answer, min_units=1):
    w = _Fixed(answer)
    return measure(w, _Server(), 0.0, min_units=min_units)


def test_right_answer_passes():
    ph = _measure(pd.DataFrame({"s": [3.0, 5.0], "k": [1, 2]}))
    assert (ph.attempted, ph.failed, ph.wrong, ph.reads_checked) == (3, 0, 0, 3)


def test_injected_wrong_answer_is_a_failure():
    ph = _measure(pd.DataFrame({"k": [1, 2], "s": [3.0, 5.5]}))
    assert (ph.attempted, ph.failed, ph.wrong, ph.reads_checked) == (3, 3, 3, 0)
    assert len(ph.latencies["read"]) == 3  # answered in time, but wrongly
    assert all(kind.startswith("WrongAnswer[q]") for kind in ph.errors)


def test_raised_statement_is_tallied_by_type():
    ph = _measure(RuntimeError("dictionary changed size during iteration"))
    assert ph.failed == 3 and ph.wrong == 0
    assert list(ph.errors) == ["RuntimeError: dictionary changed size during iteration"]


def test_runs_whole_units_at_least_min_units():
    ph = _measure(pd.DataFrame({"s": [3.0, 5.0], "k": [1, 2]}), min_units=3)
    assert (ph.units, ph.attempted) == (3, 9)
    assert [len(ts) for _, ts in ph.slots.values()] == [3, 3, 3]


def test_unit_rate_takes_each_slots_median():
    # the third unit's read was slowed down: its median leaves it out
    ph = Phase(slots={0: ("read", [1.0, 1.2, 9.0]), 1: ("write", [0.5, 0.4, 0.6])})
    assert abs(ph.unit_rate() - 1 / (1.2 + 0.5)) < 1e-12
    assert Phase().unit_rate() is None
