"""Every module under ``src/repro/`` is reached from the product's entry
points: HiveServer2 (``repro.core.hs2``) and the §7 harnesses
(``repro.experiments``). A package that only its own tests import is a
simulator beside the system, not part of it.

``repro.oracle`` is the one exception: it is the DuckDB reference the
tests compare answers against, so nothing in the product imports it.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_ON_THE_QUERY_PATH = {"repro.oracle"}


def _modules_under_src() -> set[str]:
    out = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out.add(".".join(parts))
    return out


def _modules_loaded_by_entry_points() -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.core.hs2, repro.experiments\n"
        "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return set(done.stdout.split())


def test_every_module_is_reached():
    unreached = _modules_under_src() - _modules_loaded_by_entry_points()
    assert unreached == NOT_ON_THE_QUERY_PATH
