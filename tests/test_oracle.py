"""The DuckDB oracle: NULLs compare equal whatever pandas null-like each
side uses, and never equal a value."""
import warnings

import pandas as pd
import pytest

from repro.oracle import assert_equivalent


def check(spark, got: pd.DataFrame, expected: pd.DataFrame, schema: str) -> None:
    assert_equivalent(spark.createDataFrame(got, schema), "SELECT * FROM t", t=expected)


def test_null_likes_are_one_null(spark):
    """A global aggregate over no rows, as a pandas aggregation hands it to
    Spark (an all-None column) and as DuckDB answers it (NaN): the same
    NULL, without pandas' mismatch warning."""
    got = spark.createDataFrame(pd.DataFrame({"s": [None]}, dtype=object))
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        assert_equivalent(got, "SELECT SUM(n) AS s FROM t WHERE n > 5", t=pd.DataFrame({"n": [1]}))


@pytest.mark.parametrize(
    "got, expected, schema",
    [
        ({"s": [None, "a"]}, {"s": ["b", "a"]}, "s string"),
        ({"s": ["b", "a"]}, {"s": [None, "a"]}, "s string"),
        ({"n": pd.array([None, 1], dtype="Int64")}, {"n": [0, 1]}, "n bigint"),
        ({"x": [float("nan"), 1.0]}, {"x": [0.0, 1.0]}, "x double"),
        ({"x": [0.0, 1.0]}, {"x": [float("nan"), 1.0]}, "x double"),
    ],
    ids=["null_vs_string", "string_vs_null", "null_vs_int", "nan_vs_zero", "zero_vs_nan"],
)
def test_null_never_equals_a_value(spark, got, expected, schema):
    with pytest.raises(AssertionError):
        check(spark, pd.DataFrame(got), pd.DataFrame(expected), schema)
