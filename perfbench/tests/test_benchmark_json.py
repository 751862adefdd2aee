import json
import re
from pathlib import Path

from perfbench.run import Phase, end_to_end, per_layer
from perfbench.spans import Recorder
from perfbench.workloads import WORKLOADS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class _Server:
    daemon = None


def test_declared_workloads_exist():
    assert {w["name"] for w in DOC["workloads"]} <= set(WORKLOADS)


def test_names_units_and_bounds_are_well_formed():
    metrics = DOC["end_to_end"] + DOC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in DOC["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in DOC["end_to_end"])


def test_untraced_run_reports_exactly_the_end_to_end_metrics():
    ph = Phase(busy_s=3.0, slots={0: ("read", [1.0, 2.0])})
    ph.latencies["read"] += [1.0, 2.0]
    got = end_to_end(ph, setup_s=1.0, space_amp=1.5)
    assert {k: v["unit"] for k, v in got.items()} == {
        m["name"]: m["unit"] for m in DOC["end_to_end"]
    }


def test_traced_run_reports_exactly_the_per_layer_metrics():
    got = per_layer(Phase(busy_s=1.0), Recorder(), _Server())
    assert {k: v["unit"] for k, v in got.items()} == {
        m["name"]: m["unit"] for m in DOC["per_layer"]
    }
