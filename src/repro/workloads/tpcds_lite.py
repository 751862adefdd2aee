"""TPC-DS-lite workload: schema, loader, and 20 tagged queries (§7.1/§7.2).

Each query is a :class:`~repro.core.hs2.QuerySpec` whose plan doubles as
its own oracle (``plan.to_sql()`` runs on DuckDB over the same synthetic
input). Six queries are tagged with SQL features Hive v1.2 lacked — they
fail the v1.2 feature gate, reproducing the "only 50 of 99 queries run"
effect of Figure 7. Queries whose plans use set operations really execute
them; the correlated-subquery/interval/grouping-sets tags mark queries
expressed here in their (v3.1) decorrelated/rewritten forms, since that
is precisely the rewriting v1.2 could not do.
"""
from __future__ import annotations

from repro.core.expr import AggCall, And, Col, InList, Or, between, col
from repro.core.features import SQLFeature
from repro.core.hs2 import HiveServer2, QuerySpec
from repro.core.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    SetOp,
    Sort,
    Union,
)
from repro.metastore import Column, Table
from repro.synth_data import tpcds_lite_pandas

__all__ = ["TABLES", "load_into", "queries"]

TABLES = [
    Table(
        "store_sales",
        [
            Column("ss_sold_date_sk", "bigint"),
            Column("ss_sold_month_sk", "bigint"),
            Column("ss_item_sk", "bigint"),
            Column("ss_store_sk", "bigint"),
            Column("ss_customer_sk", "bigint"),
            Column("ss_ticket_number", "bigint"),
            Column("ss_quantity", "bigint"),
            Column("ss_sales_price", "double"),
        ],
        partitioned_by=["ss_sold_month_sk"],
        properties={"bloom.filter.columns": "ss_item_sk"},
    ),
    Table(
        "store_returns",
        [
            Column("sr_item_sk", "bigint"),
            Column("sr_ticket_number", "bigint"),
            Column("sr_returned_date_sk", "bigint"),
            Column("sr_return_amt", "double"),
        ],
        properties={"bloom.filter.columns": "sr_item_sk"},
    ),
    Table(
        "date_dim",
        [
            Column("d_date_sk", "bigint"),
            Column("d_date", "timestamp"),
            Column("d_year", "bigint"),
            Column("d_moy", "bigint"),
            Column("d_dom", "bigint"),
            Column("d_month_sk", "bigint"),
        ],
    ),
    Table(
        "item",
        [
            Column("i_item_sk", "bigint"),
            Column("i_brand", "string"),
            Column("i_category", "string"),
            Column("i_current_price", "double"),
        ],
    ),
    Table("store", [Column("s_store_sk", "bigint"), Column("s_state", "string")]),
    Table(
        "customer_d",
        [
            Column("c_customer_sk", "bigint"),
            Column("c_birth_year", "bigint"),
            Column("c_state", "string"),
        ],
    ),
]


def load_into(hs2: HiveServer2, sf: float = 0.01, seed: int = 7) -> dict:
    """Create the schema in HS2 and load SF-scaled data (ACID inserts)."""
    frames = tpcds_lite_pandas(sf=sf, seed=seed)
    for t in TABLES:
        hs2.create_table(
            Table(
                t.name,
                list(t.columns),
                partitioned_by=list(t.partitioned_by),
                properties=dict(t.properties),
            )
        )
        hs2.insert(t.name, frames[t.name])
    return frames


# -- plan-building helpers --------------------------------------------------


def _sales_dates() -> Plan:
    return Join(
        Scan("store_sales"), Scan("date_dim"), col("ss_sold_date_sk").eq(col("d_date_sk"))
    )


def _sales_items() -> Plan:
    return Join(Scan("store_sales"), Scan("item"), col("ss_item_sk").eq(col("i_item_sk")))


def _sum_sales(name: str = "sum_sales") -> AggCall:
    return AggCall("sum", col("ss_sales_price"), name)


def queries() -> list[QuerySpec]:
    qs: list[QuerySpec] = []

    # q01: yearly sales — simple SPJA over fact ⋈ date
    qs.append(
        QuerySpec(
            "q01_yearly_sales",
            Aggregate(_sales_dates(), ("d_year",), (_sum_sales(), AggCall("count_star", None, "cnt"))),
        )
    )

    # q02: Sports revenue by customer — the §4.6 semijoin-reduction shape
    qs.append(
        QuerySpec(
            "q02_semijoin_sports",
            Limit(
                Sort(
                    Aggregate(
                        Filter(_sales_items(), col("i_category").eq("Sports")),
                        ("ss_customer_sk",),
                        (_sum_sales(),),
                    ),
                    (("sum_sales", False),),
                ),
                20,
            ),
        )
    )

    # q03: one quarter via the partition column — static partition pruning
    qs.append(
        QuerySpec(
            "q03_partition_quarter",
            Aggregate(
                Filter(Scan("store_sales"), InList(Col("ss_sold_month_sk"), (12, 13, 14))),
                ("ss_store_sk",),
                (_sum_sales(),),
            ),
        )
    )

    # q04: top-10 brands by revenue — join order + sort/limit
    qs.append(
        QuerySpec(
            "q04_top_brands",
            Limit(
                Sort(
                    Aggregate(_sales_items(), ("i_brand",), (_sum_sales("rev"),)),
                    (("rev", False),),
                ),
                10,
            ),
        )
    )

    # q05: sales joined with returns (fact-fact, two join keys)
    qs.append(
        QuerySpec(
            "q05_sales_returns",
            Aggregate(
                Join(
                    Scan("store_sales"),
                    Scan("store_returns"),
                    And(
                        col("ss_item_sk").eq(col("sr_item_sk")),
                        col("ss_ticket_number").eq(col("sr_ticket_number")),
                    ),
                ),
                (),
                (
                    AggCall("sum", col("sr_return_amt"), "returned"),
                    AggCall("count_star", None, "n"),
                ),
            ),
        )
    )

    # q06: 3-way join with dimension filters — CBO ordering
    qs.append(
        QuerySpec(
            "q06_state_year",
            Aggregate(
                Filter(
                    Join(
                        _sales_dates(),
                        Scan("customer_d"),
                        col("ss_customer_sk").eq(col("c_customer_sk")),
                    ),
                    And(col("d_year").eq(1999), InList(Col("c_state"), ("CA", "NY"))),
                ),
                ("c_state",),
                (_sum_sales(),),
            ),
        )
    )

    # q07: the q88 shape — many counts over one filtered scan (shared work)
    base = Filter(Scan("store_sales"), col("ss_sales_price").gt(1.0))
    branches = tuple(
        Project(
            Aggregate(
                Filter(base, between(col("ss_quantity"), lo, lo + 4)),
                (),
                (AggCall("count_star", None, "cnt"),),
            ),
            (("bucket", col("cnt").mul(0).add(i)), ("cnt", col("cnt"))),
        )
        for i, lo in enumerate(range(1, 21, 5))
    )
    qs.append(QuerySpec("q07_q88_shape", Union(branches, all=True)))

    # q08: INTERSECT — items sold in both 1998 and 2000 (v1.2 unsupported)
    def sold_in(year: int) -> Plan:
        return Project(
            Filter(_sales_dates(), col("d_year").eq(year)),
            (("item_sk", col("ss_item_sk")),),
        )

    qs.append(
        QuerySpec(
            "q08_intersect_years",
            Aggregate(
                SetOp("intersect", sold_in(1998), sold_in(2000)),
                (),
                (AggCall("count_star", None, "n_items"),),
            ),
            features=frozenset({SQLFeature.INTERSECT}),
        )
    )

    # q09: EXCEPT — items sold but never returned (v1.2 unsupported)
    qs.append(
        QuerySpec(
            "q09_except_returns",
            Aggregate(
                SetOp(
                    "except",
                    Project(Scan("store_sales"), (("item_sk", col("ss_item_sk")),)),
                    Project(Scan("store_returns"), (("item_sk", col("sr_item_sk")),)),
                ),
                (),
                (AggCall("count_star", None, "n_items"),),
            ),
            features=frozenset({SQLFeature.EXCEPT}),
        )
    )

    # q10: decorrelated scalar subquery — items priced above their
    # category average (v1.2 could not decorrelate this)
    cat_avg = Aggregate(
        Scan("item"), ("i_category",), (AggCall("avg", col("i_current_price"), "avg_price"),)
    )
    cat_avg_renamed = Project(
        cat_avg, (("ac", col("i_category")), ("avg_price", col("avg_price")))
    )
    qs.append(
        QuerySpec(
            "q10_above_category_avg",
            Aggregate(
                Filter(
                    Join(Scan("item"), cat_avg_renamed, col("i_category").eq(col("ac"))),
                    col("i_current_price").gt(col("avg_price")),
                ),
                ("i_category",),
                (AggCall("count_star", None, "n"),),
            ),
            features=frozenset({SQLFeature.CORRELATED_SCALAR_SUBQUERY}),
        )
    )

    # q11: ORDER BY a column that is then projected away (v1.2 unsupported)
    qs.append(
        QuerySpec(
            "q11_order_by_unselected",
            Project(
                Limit(
                    Sort(
                        Aggregate(
                            _sales_items(),
                            ("i_brand",),
                            (_sum_sales("rev"), AggCall("count_star", None, "cnt")),
                        ),
                        (("cnt", False), ("i_brand", True)),
                    ),
                    5,
                ),
                (("i_brand", col("i_brand")), ("rev", col("rev"))),
            ),
            features=frozenset({SQLFeature.ORDER_BY_UNSELECTED}),
        )
    )

    # q12: 30-day window after a date — INTERVAL notation in v3.1 SQL
    qs.append(
        QuerySpec(
            "q12_interval_window",
            Aggregate(
                Filter(_sales_dates(), between(col("d_date_sk"), 400, 430)),
                (),
                (_sum_sales(),),
            ),
            features=frozenset({SQLFeature.INTERVAL_NOTATION}),
        )
    )

    # q13: grouping-sets shape — year totals ∪ grand total (v1.2 unsupported)
    per_year = Project(
        Aggregate(_sales_dates(), ("d_year",), (_sum_sales("s"),)),
        (("d_year", col("d_year")), ("s", col("s"))),
    )
    grand = Project(
        Aggregate(Scan("store_sales"), (), (_sum_sales("s"),)),
        (("d_year", col("s").mul(0).sub(1)), ("s", col("s"))),
    )
    qs.append(
        QuerySpec(
            "q13_grouping_sets",
            Union((per_year, grand), all=True),
            features=frozenset({SQLFeature.GROUPING_SETS}),
        )
    )

    # q14: revenue by store state
    qs.append(
        QuerySpec(
            "q14_state_revenue",
            Aggregate(
                Join(Scan("store_sales"), Scan("store"), col("ss_store_sk").eq(col("s_store_sk"))),
                ("s_state",),
                (_sum_sales(),),
            ),
        )
    )

    # q15: average price by brand (avg aggregate path)
    qs.append(
        QuerySpec(
            "q15_avg_brand_price",
            Aggregate(
                Scan("item"), ("i_brand",), (AggCall("avg", col("i_current_price"), "ap"),)
            ),
        )
    )

    # q16: monthly trend for one category across years
    qs.append(
        QuerySpec(
            "q16_category_trend",
            Aggregate(
                Filter(
                    Join(_sales_dates(), Scan("item"), col("ss_item_sk").eq(col("i_item_sk"))),
                    col("i_category").eq("Electronics"),
                ),
                ("d_year", "d_moy"),
                (_sum_sales(),),
            ),
        )
    )

    # q17: returns ratio per category — two aggregates joined
    sold = Aggregate(_sales_items(), ("i_category",), (AggCall("count_star", None, "n_sold"),))
    returned = Aggregate(
        Join(Scan("store_returns"), Scan("item"), col("sr_item_sk").eq(col("i_item_sk"))),
        ("i_category",),
        (AggCall("count_star", None, "n_ret"),),
    )
    returned_renamed = Project(
        returned, (("rc", col("i_category")), ("n_ret", col("n_ret")))
    )
    qs.append(
        QuerySpec(
            "q17_return_ratio",
            Project(
                Join(sold, returned_renamed, col("i_category").eq(col("rc"))),
                (
                    ("i_category", col("i_category")),
                    ("ratio", col("n_ret").div(col("n_sold"))),
                ),
            ),
        )
    )

    # q18: 4-way join with filters on three dimensions — CBO stress
    qs.append(
        QuerySpec(
            "q18_four_way",
            Aggregate(
                Filter(
                    Join(
                        Join(
                            _sales_dates(),
                            Scan("item"),
                            col("ss_item_sk").eq(col("i_item_sk")),
                        ),
                        Scan("store"),
                        col("ss_store_sk").eq(col("s_store_sk")),
                    ),
                    And(
                        col("d_year").ge(1999),
                        InList(Col("i_category"), ("Sports", "Music")),
                        col("s_state").eq("CA"),
                    ),
                ),
                ("d_year", "i_category"),
                (_sum_sales(),),
            ),
        )
    )

    # q19: narrow point lookup — Bloom / row-group skipping
    qs.append(
        QuerySpec(
            "q19_point_item",
            Aggregate(
                Filter(Scan("store_sales"), col("ss_item_sk").eq(7)),
                (),
                (_sum_sales(), AggCall("count_star", None, "n")),
            ),
        )
    )

    # q20: high-value tickets — OR predicate + projection
    qs.append(
        QuerySpec(
            "q20_high_value",
            Aggregate(
                Filter(
                    Scan("store_sales"),
                    Or(col("ss_sales_price").gt(190.0), col("ss_quantity").ge(20)),
                ),
                ("ss_store_sk",),
                (AggCall("count_star", None, "n"), AggCall("max", col("ss_sales_price"), "mx")),
            ),
        )
    )

    return qs
