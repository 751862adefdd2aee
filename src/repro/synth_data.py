"""Synthetic star-schema data at a configurable scale factor, as pandas frames.

Two generators: :func:`tpcds_lite_pandas` (TPC-DS-lite, the §7.1/§7.2
experiments) and :func:`ssb_lite_pandas` (SSB-lite, the §7.3 experiment).
Tests use SF<=0.01; the §7 harnesses and the benchmark use SF=0.05.
Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# TPC-DS-lite (for the §7.1 / §7.2 experiments)
# ---------------------------------------------------------------------------

_N_STORE_SALES_PER_SF = 2_880_000
_N_ITEM_PER_SF = 18_000
_N_TPCDS_CUSTOMER_PER_SF = 100_000

_CATEGORIES = ["Sports", "Books", "Home", "Electronics", "Music", "Jewelry"]
_STATES = ["CA", "NY", "TX", "WA", "IL", "GA", "OH", "MI"]


def tpcds_lite_pandas(*, sf: float = 0.01, seed: int = 7) -> dict[str, pd.DataFrame]:
    """TPC-DS-lite star schema as pandas frames.

    A faithful-in-shape substitute for the official 10 TB TPC-DS set used in
    §7: a daily-grain date dimension over 3 years, dimensions with realistic
    key distributions, a fact table partitioned by month
    (``ss_sold_month_sk`` — the paper partitions fact tables by day; month
    keeps the file count sane at SF<=0.1), and a returns fact covering ~10%
    of sales tickets.
    """
    g = _rng(seed)
    n_days = 3 * 365
    date_dim = pd.DataFrame(
        {
            "d_date_sk": np.arange(n_days),
            "d_date": pd.to_datetime("1998-01-01") + pd.to_timedelta(np.arange(n_days), unit="D"),
            "d_year": 1998 + np.arange(n_days) // 365,
            "d_moy": np.zeros(n_days, dtype=np.int64),
            "d_dom": np.zeros(n_days, dtype=np.int64),
            "d_month_sk": np.zeros(n_days, dtype=np.int64),
        }
    )
    date_dim["d_moy"] = date_dim["d_date"].dt.month
    date_dim["d_dom"] = date_dim["d_date"].dt.day
    date_dim["d_month_sk"] = (date_dim["d_year"] - 1998) * 12 + date_dim["d_moy"] - 1

    n_item = max(60, int(_N_ITEM_PER_SF * sf))
    item = pd.DataFrame(
        {
            "i_item_sk": np.arange(n_item),
            "i_brand": [f"Brand#{i % 50}" for i in range(n_item)],
            "i_category": g.choice(_CATEGORIES, n_item),
            "i_current_price": (g.random(n_item) * 99 + 1).round(2),
        }
    )
    n_store = max(3, int(120 * sf))
    store = pd.DataFrame(
        {
            "s_store_sk": np.arange(n_store),
            "s_state": g.choice(_STATES, n_store),
        }
    )
    n_cust = max(50, int(_N_TPCDS_CUSTOMER_PER_SF * sf))
    customer_d = pd.DataFrame(
        {
            "c_customer_sk": np.arange(n_cust),
            "c_birth_year": g.integers(1930, 2000, n_cust),
            "c_state": g.choice(_STATES, n_cust),
        }
    )

    n_sales = max(1000, int(_N_STORE_SALES_PER_SF * sf))
    day = g.integers(0, n_days, n_sales)
    store_sales = pd.DataFrame(
        {
            "ss_sold_date_sk": day,
            "ss_sold_month_sk": date_dim["d_month_sk"].to_numpy()[day],
            "ss_item_sk": g.integers(0, n_item, n_sales),
            "ss_store_sk": g.integers(0, n_store, n_sales),
            "ss_customer_sk": g.integers(0, n_cust, n_sales),
            "ss_ticket_number": np.arange(n_sales) // 4,
            "ss_quantity": g.integers(1, 21, n_sales),
            "ss_sales_price": (g.random(n_sales) * 200).round(2),
        }
    )
    n_ret = n_sales // 10
    ret_idx = g.choice(n_sales, n_ret, replace=False)
    store_returns = pd.DataFrame(
        {
            "sr_item_sk": store_sales["ss_item_sk"].to_numpy()[ret_idx],
            "sr_ticket_number": store_sales["ss_ticket_number"].to_numpy()[ret_idx],
            "sr_returned_date_sk": np.minimum(
                store_sales["ss_sold_date_sk"].to_numpy()[ret_idx] + g.integers(1, 30, n_ret),
                n_days - 1,
            ),
            "sr_return_amt": (g.random(n_ret) * 100).round(2),
        }
    )
    return {
        "date_dim": date_dim,
        "item": item,
        "store": store,
        "customer_d": customer_d,
        "store_sales": store_sales,
        "store_returns": store_returns,
    }


# ---------------------------------------------------------------------------
# SSB-lite (Star-Schema Benchmark, for the §7.3 experiment)
# ---------------------------------------------------------------------------

_N_LINEORDER_PER_SF = 6_000_000
_REGIONS = ["AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST"]
_NATIONS = {
    "AMERICA": ["UNITED STATES", "CANADA", "BRAZIL"],
    "ASIA": ["CHINA", "JAPAN", "INDIA"],
    "EUROPE": ["FRANCE", "GERMANY", "RUSSIA"],
    "AFRICA": ["EGYPT", "KENYA", "MOROCCO"],
    "MIDDLE EAST": ["IRAN", "IRAQ", "JORDAN"],
}


def _geo(g, n):
    regions = g.choice(_REGIONS, n)
    nations = np.array([g.choice(_NATIONS[r]) for r in regions])
    cities = np.array([f"{nat[:9]}{i % 10}" for i, nat in enumerate(nations)])
    return regions, nations, cities


def ssb_lite_pandas(*, sf: float = 0.01, seed: int = 13) -> dict[str, pd.DataFrame]:
    """SSB-lite: lineorder + date/customer/supplier/part, per O'Neil et al.

    Covers 1992–1998 daily; dimension value domains (regions, nations,
    MFGR categories/brands, discounts 1–10, quantities 1–50) follow the SSB
    spec so the 13 queries keep their selectivities.
    """
    g = _rng(seed)
    n_days = 7 * 365
    dates = pd.to_datetime("1992-01-01") + pd.to_timedelta(np.arange(n_days), unit="D")
    date = pd.DataFrame(
        {
            "d_datekey": (dates.year * 10000 + dates.month * 100 + dates.day).astype("int64"),
            "d_date": dates,
            "d_year": dates.year.astype("int64"),
            "d_yearmonthnum": (dates.year * 100 + dates.month).astype("int64"),
            "d_weeknuminyear": dates.isocalendar().week.astype("int64").to_numpy(),
        }
    )

    n_cust = max(60, int(30_000 * sf))
    c_region, c_nation, c_city = _geo(g, n_cust)
    customer_s = pd.DataFrame(
        {
            "c_custkey": np.arange(n_cust),
            "c_city": c_city,
            "c_nation": c_nation,
            "c_region": c_region,
        }
    )
    n_supp = max(40, int(2_000 * sf))
    s_region, s_nation, s_city = _geo(g, n_supp)
    supplier = pd.DataFrame(
        {
            "s_suppkey": np.arange(n_supp),
            "s_city": s_city,
            "s_nation": s_nation,
            "s_region": s_region,
        }
    )
    n_part = max(80, int(20_000 * sf))
    mfgr = g.integers(1, 6, n_part)
    cat = mfgr * 10 + g.integers(1, 6, n_part)
    brand = cat * 10 + g.integers(1, 41, n_part)
    part = pd.DataFrame(
        {
            "p_partkey": np.arange(n_part),
            "p_mfgr": [f"MFGR#{m}" for m in mfgr],
            "p_category": [f"MFGR#{c}" for c in cat],
            "p_brand1": [f"MFGR#{b}" for b in brand],
        }
    )

    n_lo = max(2000, int(_N_LINEORDER_PER_SF * sf))
    day_idx = g.integers(0, n_days, n_lo)
    quantity = g.integers(1, 51, n_lo)
    extendedprice = (g.random(n_lo) * 55_000 + 900).round(2)
    discount = g.integers(0, 11, n_lo)
    revenue = (extendedprice * (1 - discount / 100.0)).round(2)
    lineorder = pd.DataFrame(
        {
            "lo_orderkey": np.arange(n_lo),
            "lo_custkey": g.integers(0, n_cust, n_lo),
            "lo_partkey": g.integers(0, n_part, n_lo),
            "lo_suppkey": g.integers(0, n_supp, n_lo),
            "lo_orderdate": date["d_datekey"].to_numpy()[day_idx],
            "lo_quantity": quantity.astype("int64"),
            "lo_extendedprice": extendedprice,
            "lo_discount": discount.astype("int64"),
            "lo_revenue": revenue,
            "lo_supplycost": (revenue * 0.6).round(2),
        }
    )
    return {
        "date": date,
        "customer_s": customer_s,
        "supplier": supplier,
        "part": part,
        "lineorder": lineorder,
    }
