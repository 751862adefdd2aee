"""DuckDB answers for the benchmark's reads, compared outside the timed interval.

Each read's plan renders itself as SQL (``Plan.to_sql``); DuckDB runs that
SQL over the benchmark's own copy of the table contents (the generated
frames, or for the write workload a pandas mirror that every write
updates), and the server's answer must match it row for row.
"""
from __future__ import annotations

import duckdb
import pandas as pd


class WrongAnswer(AssertionError):
    """The server's answer differs from DuckDB's."""


def canonical(pdf: pd.DataFrame) -> pd.DataFrame:
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def expected(sql: str, tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def check(got: pd.DataFrame, want: pd.DataFrame) -> None:
    """Raise :class:`WrongAnswer` unless both frames hold the same rows."""
    if set(got.columns) != set(want.columns):
        raise WrongAnswer(f"columns {sorted(got.columns)} != {sorted(want.columns)}")
    if len(got) != len(want):
        raise WrongAnswer(f"{len(got)} rows != {len(want)} rows")
    if len(got) == 0:
        return
    try:
        pd.testing.assert_frame_equal(canonical(got), canonical(want), check_dtype=False)
    except AssertionError as e:
        raise WrongAnswer(str(e).splitlines()[0]) from None
