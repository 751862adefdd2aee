"""Expression algebra: SQL/Spark/vector backends agree; substitution."""
import datetime as dt

import pandas as pd
import pytest

from repro.core.expr import (
    AggCall,
    And,
    BinOp,
    Col,
    Func,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    aggregate,
    between,
    col,
    holds,
    lit,
)


class TestSql:
    def test_comparison(self):
        assert col("a").eq(5).to_sql() == "(a = 5)"
        assert col("a").ne(5).to_sql() == "(a <> 5)"

    def test_string_escaping(self):
        assert lit("O'Neil").to_sql() == "'O''Neil'"

    def test_date_literal(self):
        assert lit(dt.date(1994, 1, 1)).to_sql() == "DATE '1994-01-01'"

    def test_null_and_bool(self):
        assert lit(None).to_sql() == "NULL"
        assert lit(True).to_sql() == "TRUE"

    def test_in_list(self):
        assert col("x").isin(1, 2).to_sql() == "(x IN (1, 2))"

    def test_and_or_not(self):
        e = And(col("a").gt(1), Or(col("b").lt(2), Not(col("c").eq(3))))
        assert e.to_sql() == "((a > 1) AND ((b < 2) OR (NOT (c = 3))))"

    def test_between(self):
        assert between(col("x"), 1, 5).to_sql() == "((x >= 1) AND (x <= 5))"

    def test_extract(self):
        assert Func("year", (col("d"),)).to_sql() == "EXTRACT(year FROM d)"

    def test_is_null(self):
        assert IsNull(col("x")).to_sql() == "(x IS NULL)"
        assert IsNull(col("x"), negated=True).to_sql() == "(x IS NOT NULL)"

    def test_agg_calls(self):
        assert AggCall("sum", col("v"), "s").to_sql() == "SUM(v) AS s"
        assert AggCall("count_star", None, "c").to_sql() == "COUNT(*) AS c"
        filtered = AggCall("count_star", None, "c", filter=col("h").eq(1))
        assert filtered.to_sql() == "COUNT(*) FILTER (WHERE (h = 1)) AS c"
        assert AggCall("sum", col("v"), "s", filter=col("h").eq(1)).columns() == {"v", "h"}

    def test_bad_agg(self):
        with pytest.raises(ValueError):
            AggCall("median", col("v"), "m")

    def test_bad_op(self):
        with pytest.raises(ValueError):
            BinOp("%", col("a"), lit(2))


class TestStructure:
    def test_columns(self):
        e = And(col("a").gt(1), col("b").eq(col("c")))
        assert e.columns() == {"a", "b", "c"}

    def test_and_flattening(self):
        e = And(col("a").gt(1), And(col("b").gt(2), col("c").gt(3)))
        assert len(e.args) == 3

    def test_equality_and_hash(self):
        assert col("a").eq(1) == col("a").eq(1)
        assert hash(col("a").eq(1)) == hash(col("a").eq(1))
        assert col("a").eq(1) != col("a").eq(2)

    def test_substitute(self):
        e = col("a").add(col("b"))
        out = e.substitute({"a": lit(5)})
        assert out == lit(5).add(col("b"))

    def test_function_names(self):
        e = And(Func("rand", ()).gt(0.5), col("x").eq(1))
        assert e.function_names() == {"rand"}


class TestVectorEval:
    def _pdf(self):
        return pd.DataFrame(
            {
                "a": [1, 2, 3, None],
                "b": ["x", "y", "x", "z"],
                "d": pd.to_datetime(["2017-01-01", "2018-06-01", "2018-07-01", "2019-01-01"]),
            }
        )

    def test_comparison(self):
        mask = col("a").gt(1).evaluate_vector(self._pdf())
        assert mask.fillna(False).tolist() == [False, True, True, False]

    def test_in_list(self):
        mask = col("b").isin("x").evaluate_vector(self._pdf())
        assert mask.tolist() == [True, False, True, False]

    def test_date_vs_string_comparison(self):
        mask = col("d").ge("2018-01-01").evaluate_vector(self._pdf())
        assert mask.tolist() == [False, True, True, True]

    def test_extract_year(self):
        years = Func("year", (col("d"),)).evaluate_vector(self._pdf())
        assert years.tolist() == [2017, 2018, 2018, 2019]

    def test_and(self):
        e = And(col("a").ge(2), col("b").eq("x"))
        mask = e.evaluate_vector(self._pdf())
        assert mask.fillna(False).tolist() == [False, False, True, False]

    def test_is_null(self):
        assert IsNull(col("a")).evaluate_vector(self._pdf()).tolist() == [
            False,
            False,
            False,
            True,
        ]

    def test_arithmetic(self):
        s = col("a").mul(2).evaluate_vector(self._pdf())
        assert s.tolist()[:3] == [2, 4, 6]


class TestHolds:
    """What a WHERE clause keeps under SQL's three-valued logic."""

    PDF = pd.DataFrame({"a": [1.0, 2.0, None], "s": ["x", None, "y"]})

    @pytest.mark.parametrize(
        "cond, kept",
        [
            (col("a").gt(1), [False, True, False]),
            (Not(col("a").gt(1)), [True, False, False]),
            (col("a").ne(1), [False, True, False]),
            (Not(col("s").isin("x")), [False, False, True]),
            (Or(IsNull(col("a")), col("s").eq("x")), [True, False, True]),
            (Not(And(col("a").gt(1), col("s").eq("y"))), [True, False, False]),
            (Not(Or(col("a").gt(1), col("s").eq("y"))), [True, False, False]),
            (IsNull(col("s"), negated=True), [True, False, True]),
        ],
    )
    def test_null_is_neither_true_nor_false(self, cond, kept):
        assert holds(cond, self.PDF).tolist() == kept

    def test_date_against_string_is_left_to_the_engine(self):
        """The engine casts the string to a DATE; pandas would compare a
        ``datetime.date`` with a ``str`` and find nothing equal."""
        pdf = pd.DataFrame({"d": [dt.date(2020, 1, 1), None]})
        for cond in (col("d").eq("2020-01-01"), col("d").isin("2020-01-01")):
            with pytest.raises(NotImplementedError):
                holds(cond, pdf)
        assert holds(col("d").eq(dt.date(2020, 1, 1)), pdf).tolist() == [True, False]

    def test_null_literal_is_left_to_the_engine(self):
        with pytest.raises(NotImplementedError):
            holds(col("a").eq(None), self.PDF)


class TestAggregate:
    """GROUP BY in pandas with SQL's NULL semantics."""

    PDF = pd.DataFrame({"k": ["a", None, "a", None], "v": [1, 2, None, None]})
    AGGS = (
        AggCall("sum", col("v"), "s"),
        AggCall("count", col("v"), "c"),
        AggCall("count_star", None, "n"),
        AggCall("min", col("v"), "lo", filter=col("v").gt(1)),
    )

    def test_null_keys_form_one_group(self):
        out = aggregate(self.PDF, ("k",), self.AGGS).set_index("k")
        assert len(out) == 2
        a = out.loc["a"]
        assert (a["s"], a["c"], a["n"]) == (1, 1, 2) and pd.isna(a["lo"])
        null = out[out.index.isna()].iloc[0]
        assert (null["s"], null["c"], null["n"], null["lo"]) == (2, 1, 2, 2)

    def test_sum_of_nulls_is_null_and_count_zero(self):
        out = aggregate(self.PDF[self.PDF["k"].isna()].iloc[1:], ("k",), self.AGGS).iloc[0]
        assert pd.isna(out["s"]) and out["c"] == 0 and out["n"] == 1 and pd.isna(out["lo"])

    def test_global_over_no_rows_is_one_row(self):
        out = aggregate(self.PDF[:0], (), self.AGGS)
        assert len(out) == 1
        assert out["c"].tolist() == [0] and out["n"].tolist() == [0]
        assert out[["s", "lo"]].isna().all(axis=None)

    def test_grouped_over_no_rows_is_empty(self):
        assert aggregate(self.PDF[:0], ("k",), self.AGGS).empty

    def test_integer_sums_stay_exact(self):
        big = 2**53 + 1
        out = aggregate(pd.DataFrame({"v": [big, 0]}), (), (AggCall("sum", col("v"), "s"),))
        assert int(out["s"].iloc[0]) == big


class TestSparkBackend:
    def test_matches_vector_backend(self, spark):
        pdf = pd.DataFrame({"a": [1, 2, 3, 4], "b": [1.0, 2.5, 0.5, 4.0]})
        e = And(col("a").ge(2), col("b").lt(4.0))
        sdf = spark.createDataFrame(pdf)
        got = sorted(r["a"] for r in sdf.filter(e.to_spark()).collect())
        mask = e.evaluate_vector(pdf)
        assert got == pdf[mask]["a"].tolist()
