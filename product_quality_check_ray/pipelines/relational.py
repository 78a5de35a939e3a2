"""Relational operator suite over the TPC-H-ish testdata tables.

These pipelines exercise the engine's generic operator inventory
(SURVEY.md §2.2/§2.4/§2.5/§2.6): projection pushdown at the read, vectorized
per-batch transforms, broadcast semi-/anti-joins for small dimension sides,
native hash joins (``Dataset.join``) for large-large, partial (combiner-style)
pre-aggregation before every ``groupby`` shuffle, grouped top-k, and
sort/limit consumption of small results.

Scale notes (the 100 TB contract):
- Every ``groupby`` here is fed by a per-batch combiner, so the shuffle moves
  O(batches × groups) rows, never the fact table.
- Bounded dimension sides (region/nation) are driver dicts; anything that
  grows with the input (customer segments, distinct order keys) goes through
  ``core.joins.semi_join``: ``ray.put``-broadcast ``is_in`` under
  ``BROADCAST_KEY_CAP``, a hash-range key exchange above it (rows of the
  fact side never shuffle).
- The one genuinely large-large equi-join (lineitem ⨝ orders) uses the native
  hash-partitioned ``Dataset.join``; at cluster scale ``num_partitions``
  should be ~cluster cores; here it is sized for the local test.

Reference analogs cited per function: the reference's dictionary semi-joins
(``prompts/banningredients.py:131-139``), fuzzy catalog join
(``prompts/competitor_match.py:159-208``), grouped argmax/top-k
(``banningredients.py:211-234``, ``green_claims.py:96-106``) — re-expressed as
set-based Ray Data plans instead of per-row loops.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Max, Sum

from ..core import exchange
from ..core.batches import arrow_out as _aout
from ..core.batches import strip_schema_metadata as _strip_meta
from ..core.collect import collect_table as _collect
from ..core.joins import BROADCAST_KEY_CAP, semi_join
from ..core.rounding import round_half_away as _rha


def _tbl(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns=None, **kw) -> rd.Dataset:
    return rd.read_parquet(_tbl(sf_dir, name), columns=columns, **kw)


# ---------------------------------------------------------------------------
# Q1-style pricing summary: filter → partial agg → tiny groupby → finalize
# ---------------------------------------------------------------------------

Q1_CUTOFF = "1998-09-02"


def pricing_summary(sf_dir: str) -> pa.Table:
    """Per (returnflag, linestatus) pricing rollup over lineitem.

    Pattern: predicate+projection pushdown at the read, per-batch pandas
    groupby combiner, then a tiny ``groupby().aggregate(Sum)`` over partials
    (the shuffle carries ~6 rows per batch). Reference analog: global boolean
    rollups + counters (``app.py:652-659,1454-1459``) generalized to keyed
    aggregation.
    """
    cutoff = pa.scalar(pd.Timestamp(Q1_CUTOFF), type=pa.timestamp("us"))
    ds = rd.read_parquet(
        _tbl(sf_dir, "lineitem"),
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
        filter=pc.field("l_shipdate") <= cutoff,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # per-row round-to-cents BEFORE summing: both engines then sum
        # grid-aligned values, so the final round(…, 2) never sits on a
        # half-cent boundary regardless of summation order (oracle parity)
        disc_price = _rha(df["l_extendedprice"] * (1.0 - df["l_discount"]), 2)
        g = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": _rha(df["l_quantity"], 2),
                "sum_base_price": _rha(df["l_extendedprice"], 2),
                "sum_disc_price": disc_price,
                "count_order": 1,
            }
        ).groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        g["count_order"] = g["count_order"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_price", alias_name="sum_base_price"),
            Sum("sum_disc_price", alias_name="sum_disc_price"),
            Sum("count_order", alias_name="count_order"),
        )
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_qty"] = _rha(df["sum_qty"], 2)
        df["sum_base_price"] = _rha(df["sum_base_price"], 2)
        df["sum_disc_price"] = _rha(df["sum_disc_price"], 2)
        # averages from the ROUNDED sums: identical doubles in both engines
        df["avg_qty"] = _rha(df["sum_qty"] / df["count_order"], 6)
        df["avg_price"] = _rha(df["sum_base_price"] / df["count_order"], 6)
        df["count_order"] = df["count_order"].astype(np.int64)
        return df

    out = agg.map_batches(finalize, batch_format="pandas")
    return _collect(out.sort(["l_returnflag", "l_linestatus"]))



# ---------------------------------------------------------------------------
# Q3-style: broadcast semi-join (segment filter) + hash join + grouped top-k
# ---------------------------------------------------------------------------


def top_revenue_orders(sf_dir: str, segment: str = "BUILDING", k: int = 10) -> pa.Table:
    """Top-k orders by revenue for one customer segment.

    customer(segment) is a broadcast key-set semi-join into orders (reference
    analog J2 exact dictionary semi-join, ``banningredients.py:131-139``);
    orders ⨝ lineitem is the large-large native hash join; revenue is a
    partial-agg groupby; top-k is ``sort().limit(k)`` on the tiny aggregate.
    """
    cust_keys = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).filter(
        expr=f"c_mktsegment == '{segment}'"
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    # segment key set is usually small (broadcast is_in) but grows with the
    # input — semi_join switches to its key exchange above the key cap
    orders_f = semi_join(orders, "o_custkey", cust_keys, "c_custkey").select_columns(
        ["o_orderkey", "o_orderdate"]
    )
    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def partial_rev(df: pd.DataFrame) -> pd.DataFrame:
        rev = _rha(df["l_extendedprice"] * (1.0 - df["l_discount"]), 2)
        g = pd.DataFrame({"l_orderkey": df["l_orderkey"], "revenue": rev}).groupby(
            "l_orderkey", as_index=False
        ).sum()
        return g

    rev = (
        line.map_batches(_aout(partial_rev), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("l_orderkey")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )
    joined = rev.join(
        orders_f,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "o_orderkey": df["l_orderkey"].astype(np.int64),
                "revenue": _rha(df["revenue"], 2),
                "o_orderdate": pd.to_datetime(df["o_orderdate"]).dt.strftime("%Y-%m-%d"),
            }
        )
        return out

    out = joined.map_batches(_aout(finalize), batch_format="pandas").sort(
        ["revenue", "o_orderkey"], descending=[True, False]
    ).limit(k)
    return _collect(out)


# ---------------------------------------------------------------------------
# Q5-style: revenue per region via broadcast dimension chain + hash join
# ---------------------------------------------------------------------------


def region_revenue(sf_dir: str) -> pa.Table:
    """Revenue per region: lineitem ⨝ orders (hash join), then custkey→region
    resolved via a capped broadcast (sorted-key searchsorted map) or, above
    the cap, a second native hash join against the customer projection.

    region/nation are genuinely bounded (constant-size) and stay driver-side
    dicts; customer is fact-scale, so its map is broadcast only under
    ``BROADCAST_KEY_CAP`` — the round-1 driver dict over every c_custkey was
    a 100 TB scale-killer (VERDICT r1 item 4).
    """
    region = {r["r_regionkey"]: r["r_name"] for r in _read(sf_dir, "region").take_all()}
    nation = {
        r["n_nationkey"]: region[r["n_regionkey"]]
        for r in _read(sf_dir, "nation").take_all()
    }
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    # metadata-only count for a projected parquet read — no execution pass
    broadcast_cust = cust.count() <= BROADCAST_KEY_CAP

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def partial_rev(df: pd.DataFrame) -> pd.DataFrame:
        rev = _rha(df["l_extendedprice"] * (1.0 - df["l_discount"]), 2)
        return pd.DataFrame({"l_orderkey": df["l_orderkey"], "revenue": rev}).groupby(
            "l_orderkey", as_index=False
        ).sum()

    rev = (
        line.map_batches(_aout(partial_rev), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("l_orderkey")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )
    joined = rev.join(
        orders,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    if broadcast_cust:
        # one object-store copy of (sorted custkeys, region name per key);
        # per-batch mapping is a vectorized searchsorted, fetched zero-copy
        tbl = _collect(cust)
        ck = tbl.column("c_custkey").to_numpy().astype(np.int64)
        nk = tbl.column("c_nationkey").to_numpy()
        order = np.argsort(ck)
        reg_of_cust = np.asarray([nation[int(k)] for k in nk], dtype=object)[order]
        ref = ray.put((ck[order], reg_of_cust))

        def to_region(df: pd.DataFrame) -> pd.DataFrame:
            sk, rn = ray.get(ref)
            if len(sk) == 0:
                # empty customer table: inner-join semantics → no rows
                return pd.DataFrame({"r_name": pd.Series([], dtype=object),
                                     "revenue": pd.Series([], dtype=np.float64)})
            keys = df["o_custkey"].to_numpy()
            idx = np.searchsorted(sk, keys)
            # guard dangling FKs: an o_custkey absent from customer must be
            # DROPPED (inner-join semantics), not crash (idx==len) or silently
            # hit the next key's region
            idx_c = np.minimum(idx, len(sk) - 1)
            ok = sk[idx_c] == keys
            return pd.DataFrame(
                {"r_name": rn[idx_c[ok]], "revenue": df["revenue"].to_numpy()[ok]}
            ).groupby("r_name", as_index=False).sum()

        region_rows = joined
    else:
        # two hash-shuffle joins in ONE streaming DAG deadlock on small
        # clusters (each JoinOperator pins num_partitions aggregator actors
        # up front; measured hang at 4 CPUs) — materialize the first join's
        # compact (orderkey, revenue, custkey) output so only one join
        # operator is live at a time
        region_rows = joined.materialize().join(
            _strip_meta(cust),
            join_type="inner",
            num_partitions=8,
            on=("o_custkey",),
            right_on=("c_custkey",),
        )

        def to_region(df: pd.DataFrame) -> pd.DataFrame:
            reg = df["c_nationkey"].map(nation)  # bounded dict — closure OK
            return pd.DataFrame({"r_name": reg, "revenue": df["revenue"]}).groupby(
                "r_name", as_index=False
            ).sum()

    agg = (
        region_rows.map_batches(_aout(to_region), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("r_name")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = _rha(df["revenue"], 2)
        return df

    return _collect(agg.map_batches(finalize, batch_format="pandas").sort("r_name"))


# ---------------------------------------------------------------------------
# Grouped top-k: top orders per market segment (reference analog G3,
# per-section capped ranking, green_claims.py:96-106)
# ---------------------------------------------------------------------------


def grouped_topk_orders(sf_dir: str, k: int = 3) -> pa.Table:
    """Top-k orders per customer market segment by total price.

    Customer→segment enrichment via the broadcast-or-shuffle
    ``core.joins.lookup_join`` (dim broadcast under the 2M-row cap, the
    dim reduced to its matched rows by a key exchange above — never a
    driver ``take_all`` dict), then per-batch local top-k combiner →
    ``exchange.group_apply`` on the segment → exact top-k per segment
    within each hash range. The exchange only carries k rows per segment
    per batch, never the orders table.
    """
    from ..core.joins import lookup_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    enriched = lookup_join(
        orders,
        "o_custkey",
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        "c_custkey",
        ["c_mktsegment"],
    )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["c_mktsegment", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        return df.groupby("c_mktsegment", as_index=False).head(k)[
            ["c_mktsegment", "o_orderkey", "o_totalprice"]
        ]

    def range_topk(t: pa.Table) -> pd.DataFrame:
        df = local_topk(t.to_pandas())
        rank = df.groupby("c_mktsegment").cumcount().to_numpy(np.int64) + 1
        return df.assign(rank=rank)

    schema = pa.schema(
        [
            ("c_mktsegment", pa.string()),
            ("o_orderkey", pa.int64()),
            ("o_totalprice", pa.float64()),
            ("rank", pa.int64()),
        ]
    )
    out = exchange.group_apply(
        enriched.map_batches(_aout(local_topk), batch_format="pandas").materialize(),
        "c_mktsegment",
        schema.names[:3],
        _aout(range_topk),
        schema,
    )
    return _collect(out, schema=schema).sort_by(
        [("c_mktsegment", "ascending"), ("rank", "ascending")]
    )


# ---------------------------------------------------------------------------
# Events: keyed daily aggregation (date scalar functions + multi-key groupby)
# ---------------------------------------------------------------------------


def events_hopping_windows(
    sf_dir: str, window_min: int = 30, hop_min: int = 15
) -> pa.Table:
    """Hopping (sliding) window aggregate: per (window_start, event_type)
    count + value sum, windows of ``window_min`` starting every ``hop_min``.

    Each event belongs to ``window/hop`` overlapping windows — the windowed
    aggregate the reference lacks (SURVEY.md §2.9 streaming-window class).
    Vectorized fan-out inside ``map_batches`` (epoch arithmetic + np.repeat,
    no per-row loop), then the events_daily combiner shape: per-batch
    partials keyed on (window_start, event_type) — bounded key cardinality,
    tiny shuffle at any input size.
    """
    assert window_min % hop_min == 0, "window must be a multiple of hop"
    k = window_min // hop_min
    hop_us = hop_min * 60 * 1_000_000
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # events without a timestamp cannot be windowed — excluded on BOTH
        # sides (oracle: WHERE ts IS NOT NULL); NaT would otherwise silently
        # become the int64 sentinel and crash pd.to_datetime downstream
        df = df[df["ts"].notna()]
        if df.empty:
            return pd.DataFrame(
                {
                    "window_start": pd.Series([], dtype=str),
                    "event_type": pd.Series([], dtype=object),
                    "n_events": pd.Series([], dtype=np.int64),
                    "total_value": pd.Series([], dtype=np.float64),
                }
            )
        # normalize to µs explicitly — Arrow timestamp[us] keeps [us]
        # resolution in pandas ≥ 2, so a blanket //1000 would mis-scale
        ts_us = pd.to_datetime(df["ts"]).astype("datetime64[us]").astype(np.int64)
        base = (ts_us // hop_us) * hop_us
        # window starts base, base-hop, …, base-(k-1)·hop each contain ts
        starts = base.to_numpy()[:, None] - (np.arange(k, dtype=np.int64) * hop_us)[None, :]
        ws = pd.to_datetime(starts.reshape(-1), unit="us").strftime("%Y-%m-%d %H:%M:%S")
        g = pd.DataFrame(
            {
                "window_start": ws,
                "event_type": np.repeat(df["event_type"].to_numpy(), k),
                "n_events": 1,
                "total_value": np.repeat(np.asarray(_rha(df["value"], 4)), k),
            }
        ).groupby(["window_start", "event_type"], as_index=False).sum()
        g["n_events"] = g["n_events"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby(["window_start", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("total_value", alias_name="total_value"),
        )
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["total_value"] = _rha(df["total_value"], 4)
        df["n_events"] = df["n_events"].astype(np.int64)
        return df

    return _collect(
        agg.map_batches(_aout(finalize), batch_format="pandas").sort(
            ["window_start", "event_type"]
        )
    )


def events_daily(sf_dir: str) -> pa.Table:
    """Per (day, event_type): event count and total value.

    Date bucketing is a vectorized scalar transform; the groupby is fed by a
    per-batch combiner keyed on (day, event_type) — low-cardinality keys, so
    the shuffle is tiny regardless of input size.
    """
    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = pd.to_datetime(df["ts"]).dt.strftime("%Y-%m-%d")
        g = pd.DataFrame(
            {"day": day, "event_type": df["event_type"], "n_events": 1, "total_value": _rha(df["value"], 4)}
        ).groupby(["day", "event_type"], as_index=False).sum()
        g["n_events"] = g["n_events"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby(["day", "event_type"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("total_value", alias_name="total_value"),
        )
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["total_value"] = _rha(df["total_value"], 4)
        df["n_events"] = df["n_events"].astype(np.int64)
        return df

    return _collect(agg.map_batches(finalize, batch_format="pandas").sort(["day", "event_type"]))


# ---------------------------------------------------------------------------
# Broadcast anti-join: customers with no orders
# ---------------------------------------------------------------------------


def customers_without_orders(sf_dir: str) -> pa.Table:
    """Anti-join customer ∖ orders on custkey via broadcast key set.

    The distinct order-custkey set is produced by a projected read + partial
    distinct combiner + groupby (never the raw orders rows), then broadcast
    into the customer scan (SURVEY.md §2.4 J2: anti-join = violations).
    """
    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        u = pc.unique(t.column("o_custkey").combine_chunks())
        return pa.table({"o_custkey": u})

    # per-batch distinct combiner shrinks the key side before the semi_join
    # probe; above the broadcast cap semi_join(anti=True) runs its key
    # exchange instead of holding a driver key set
    key_ds = orders.map_batches(distinct_partial, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])
    out = semi_join(cust, "c_custkey", key_ds, "o_custkey", anti=True).sort("c_custkey")
    return _collect(
        out,
        schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_name", pa.string()), ("c_acctbal", pa.float64())]
        ),
    )


# ---------------------------------------------------------------------------
# Dictionary semi-join on part type/brand (reference analog J2/J3)
# ---------------------------------------------------------------------------

PART_TYPE_TERMS: tuple[str, ...] = ("PROMO", "ECONOMY")


def parts_matching_terms(sf_dir: str) -> pa.Table:
    """Parts whose p_type matches a small dictionary of terms.

    The term dictionary is compiled to ONE regex alternation (the reference's
    chunked-alternation trick, ``banningredients.py:185-206``) applied with a
    vectorized Arrow kernel — a dictionary semi-join with zero shuffle.
    Emits per-part matched term (first alternation hit).
    """
    pattern = "(" + "|".join(PART_TYPE_TERMS) + ")"
    named = "(?P<m>" + "|".join(PART_TYPE_TERMS) + ")"
    ds = _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_type", "p_retailprice"])

    def match(t: pa.Table) -> pa.Table:
        hit = pc.match_substring_regex(t.column("p_type"), pattern)
        sel = t.filter(pc.fill_null(hit, False))
        term = pc.extract_regex(sel.column("p_type"), named)
        matched = pc.struct_field(term, "m")
        return pa.table(
            {
                "p_partkey": sel.column("p_partkey"),
                "p_type": sel.column("p_type"),
                "matched_term": matched,
                "p_retailprice": sel.column("p_retailprice"),
            }
        )

    return _collect(ds.map_batches(match, batch_format="pyarrow").sort("p_partkey"))


# ---------------------------------------------------------------------------
# Order priority distribution with conditional aggregation (CASE analog)
# ---------------------------------------------------------------------------


def order_priority_stats(sf_dir: str) -> pa.Table:
    """Per priority: order count, high-value count (>100k), max/total price."""
    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        high = (df["o_totalprice"] > 100_000).astype(np.int64)
        g = pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "n_orders": 1,
                "n_high_value": high,
                "max_price": df["o_totalprice"],
                "total_price": _rha(df["o_totalprice"], 2),
            }
        ).groupby("o_orderpriority", as_index=False).agg(
            {"n_orders": "sum", "n_high_value": "sum", "max_price": "max", "total_price": "sum"}
        )
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("n_high_value", alias_name="n_high_value"),
            Max("max_price", alias_name="max_price"),
            Sum("total_price", alias_name="total_price"),
        )
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["max_price"] = _rha(df["max_price"], 2)
        df["total_price"] = _rha(df["total_price"], 2)
        df["n_orders"] = df["n_orders"].astype(np.int64)
        df["n_high_value"] = df["n_high_value"].astype(np.int64)
        return df

    return _collect(agg.map_batches(finalize, batch_format="pandas").sort("o_orderpriority"))


# ---------------------------------------------------------------------------
# Sessionization: windowed aggregate the reference lacks (SURVEY.md §2.9)
# ---------------------------------------------------------------------------

SESSION_GAP_MIN = 30


def user_sessions(sf_dir: str) -> pa.Table:
    """Per-user sessions with a 30-minute inactivity gap.

    ``exchange.group_apply`` on user_id, then EVERY user in a hash range
    is sessionized with one vectorized pass (sort by (user, ts, event_id)
    → boundary diff → cumsum → one pandas groupby): O(ranges) kernel calls
    instead of one Python call per user."""
    cols = ["event_id", "ts", "user_id", "value"]
    gap = np.timedelta64(SESSION_GAP_MIN * 60 * 1_000_000_000, "ns")

    def sessionize(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas().sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(df)
        uid = df["user_id"].to_numpy()
        ts = df["ts"].to_numpy(dtype="datetime64[ns]")
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        new_s = new_user.copy()
        new_s[1:] |= (ts[1:] - ts[:-1]) > gap
        sess_global = np.cumsum(new_s)  # distinct across users in the range
        g = pd.DataFrame(
            {
                "user_id": uid,
                "sg": sess_global,
                "ts": ts,
                "value": _rha(df["value"].to_numpy(), 4),
            }
        ).groupby("sg", as_index=False).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            n_events=("ts", "size"),
            total_value=("value", "sum"),
        )
        # session_id = rank of the session within its user
        first_sg = g.groupby("user_id")["sg"].transform("min")
        g["session_id"] = (g["sg"] - first_sg + 1).astype(np.int64)
        g["n_events"] = g["n_events"].astype(np.int64)
        g["total_value"] = _rha(g["total_value"], 4)
        g["session_start"] = pd.to_datetime(g["session_start"]).dt.strftime(
            "%Y-%m-%d %H:%M:%S.%f"
        )
        return g

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("session_id", pa.int64()),
            ("session_start", pa.string()),
            ("n_events", pa.int64()),
            ("total_value", pa.float64()),
        ]
    )
    out = exchange.group_apply(
        _read(sf_dir, "events", columns=cols), "user_id", cols, _aout(sessionize), schema
    )
    return _collect(out, schema=schema).sort_by(
        [("user_id", "ascending"), ("session_id", "ascending")]
    )


def events_asof_last_click(sf_dir: str) -> pa.Table:
    """As-of join: each purchase matched to the user's latest strictly-prior
    click. ``exchange.group_apply`` on user_id, then one
    ``pd.merge_asof(by="user_id")`` per hash range — vectorized across
    every user in the range instead of a Python call per user."""
    cols = ["event_id", "ts", "user_id", "event_type"]
    schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("purchase_ts", pa.string()),
            ("last_click_ts", pa.string()),
        ]
    )

    def asof(t: pa.Table) -> "pd.DataFrame | pa.Table":
        df = t.to_pandas()
        buys = df[df["event_type"] == "purchase"].sort_values(["ts", "event_id"], kind="mergesort")
        if buys.empty:
            return schema.empty_table()
        clicks = df[df["event_type"] == "click"].sort_values(["ts", "event_id"], kind="mergesort")
        joined = pd.merge_asof(
            buys[["event_id", "user_id", "ts"]],
            clicks[["user_id", "ts"]].rename(columns={"ts": "click_ts"}),
            left_on="ts",
            right_on="click_ts",
            by="user_id",
            allow_exact_matches=False,
            direction="backward",
        )
        last_click = pd.to_datetime(joined["click_ts"]).dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        # no-prior-click ⇒ None (matches SQL NULL), not the string "NaN"
        last_click = last_click.astype(object).where(joined["click_ts"].notna(), None)
        return pd.DataFrame(
            {
                "event_id": joined["event_id"].astype(np.int64),
                "user_id": joined["user_id"].astype(np.int64),
                "purchase_ts": pd.to_datetime(joined["ts"]).dt.strftime("%Y-%m-%d %H:%M:%S.%f"),
                "last_click_ts": last_click,
            }
        )

    out = exchange.group_apply(
        _read(sf_dir, "events", columns=cols), "user_id", cols, _aout(asof), schema
    )
    return _collect(out, schema=schema).sort_by("event_id")


def events_json_k(sf_dir: str) -> rd.Dataset:
    """Extract the integer ``k`` from the JSON props column (M15 analog) via
    a vectorized regex kernel — no per-row json.loads in the hot path."""
    ds = _read(sf_dir, "events", columns=["event_id", "props"])

    def f(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("props"), r'"k": (?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return pa.table({"event_id": t.column("event_id"), "k": k})

    return ds.map_batches(f, batch_format="pyarrow")


def brand_canonical(sf_dir: str) -> rd.Dataset:
    """Domain-token canonicalization (M5 analog: E-number rewrite):
    ``Brand#13`` → ``brand-13`` via one vectorized regex rewrite."""
    ds = _read(sf_dir, "part", columns=["p_partkey", "p_brand"])

    def f(t: pa.Table) -> pa.Table:
        canon = pc.replace_substring_regex(
            pc.utf8_lower(t.column("p_brand")), r"brand#(\d+)", r"brand-\1"
        )
        return pa.table({"p_partkey": t.column("p_partkey"), "canonical_brand": canon})

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Structured parser → typed columns (reference analog M7 parse_sku)
# ---------------------------------------------------------------------------


def part_sku_parse(sf_dir: str) -> rd.Dataset:
    """Parse p_name/p_size into typed attribute columns (modifier, base,
    size_class) — the reference's ParsedSKU struct (competitor_match.py:25-44)
    as one vectorized pass."""
    ds = _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_size"])

    def f(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("p_name"), " ")
        arr = parts.combine_chunks() if isinstance(parts, pa.ChunkedArray) else parts
        modifier = pc.list_element(arr, 0)
        # last word per row: gather flat values at offsets[1:]-1 (vectorized
        # variable-index list access — list_element only takes scalars)
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        base = arr.values.take(pa.array(offsets[1:] - 1))
        size = t.column("p_size")
        size_np = np.asarray(pc.fill_null(size, -1).to_numpy(zero_copy_only=False))
        classes = np.array(["small", "medium", "large"], dtype=object)
        cls = classes[np.searchsorted([10, 30], size_np, side="right")]
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "modifier": modifier,
                "base": base,
                "size_class": pa.array(cls, type=pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# M12 pack-size deterministic parser (reference analog
# ``_regex_parse_packsize``, ``artwork_processing.py:1757-1827``: multipack
# "N×Q U", count units, single qty, labeled/compact net weights, ℮-mark).
# Labels are constructed deterministically from p_partkey (the fixture
# pattern: construction mirrored in the generated oracle, so the TESTED
# transform is the engine's real multi-format regex parse + unit fold).
PACK_UNITS: tuple[str, ...] = ("ml", "l", "g", "kg")
PACK_UNIT_BASE: dict[str, tuple[str, float]] = {
    "ml": ("volume", 1.0),
    "l": ("volume", 1000.0),
    "g": ("mass", 1.0),
    "kg": ("mass", 1000.0),
}
PACK_QTY_MOD = 89
PACK_N_MOD = 11
PACK_KINDS: tuple[str, ...] = (
    "multipack", "single", "count", "net_labeled", "net_compact", "e_marked",
)


def part_packsize(sf_dir: str) -> rd.Dataset:
    """Parse pack-size labels into a typed struct: (pack_kind, n_units,
    unit_qty, unit_raw, dimension, qty_base, e_mark).

    Six label formats, parsed with one ``extract_regex`` kernel pass per
    format (priority order: multipack > count > labeled net > compact net >
    ℮-marked > plain single) and folded per row with ``if_else`` chains —
    fully vectorized, no Python row loop."""
    ds = _read(sf_dir, "part", columns=["p_partkey"])
    u_alt = "|".join(PACK_UNITS)
    fmt_regex = (
        ("multipack", rf"^(?P<n>\d+) x (?P<q>\d+) (?P<u>{u_alt})$"),
        ("count", r"^(?P<n>\d+) pack$"),
        ("net_labeled", rf"^net weight: (?P<q>\d+) (?P<u>{u_alt})$"),
        ("net_compact", rf"^nw (?P<q>\d+) (?P<u>{u_alt})$"),
        ("e_marked", rf"^(?P<q>\d+) (?P<u>{u_alt}) ℮$"),
        ("single", rf"^(?P<q>\d+) (?P<u>{u_alt})$"),
    )

    def f(t: pa.Table) -> pa.Table:
        k = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        qty = (k % PACK_QTY_MOD) + 1
        n = 2 + k % PACK_N_MOD
        unit = [PACK_UNITS[i % len(PACK_UNITS)] for i in k]
        fmt = k % len(PACK_KINDS)
        labels = []
        for ki, qi, ni, ui, fi in zip(k, qty, n, unit, fmt):
            kind = PACK_KINDS[fi]
            if kind == "multipack":
                labels.append(f"{ni} x {qi} {ui}")
            elif kind == "single":
                labels.append(f"{qi} {ui}")
            elif kind == "count":
                labels.append(f"{ni} pack")
            elif kind == "net_labeled":
                labels.append(f"net weight: {qi} {ui}")
            elif kind == "net_compact":
                labels.append(f"nw {qi} {ui}")
            else:
                labels.append(f"{qi} {ui} ℮")
        lab = pa.array(labels, type=pa.string())
        # --- the tested transform: multi-format parse back out
        kind_col = pa.array([None] * len(k), type=pa.string())
        n_col = pa.array([None] * len(k), type=pa.int64())
        q_col = pa.array([None] * len(k), type=pa.int64())
        u_col = pa.array([None] * len(k), type=pa.string())
        for kind, rex in fmt_regex:
            ex = pc.extract_regex(lab, rex)
            hit = pc.and_kleene(pc.is_valid(ex), pc.is_null(kind_col))
            hit = pc.fill_null(hit, False)
            kind_col = pc.if_else(hit, pa.scalar(kind, pa.string()), kind_col)
            names = ex.type.field_names if hasattr(ex.type, "field_names") else [
                fld.name for fld in ex.type
            ]
            if "n" in names:
                n_col = pc.if_else(
                    hit, pc.cast(pc.struct_field(ex, "n"), pa.int64()), n_col
                )
            if "q" in names:
                q_col = pc.if_else(
                    hit, pc.cast(pc.struct_field(ex, "q"), pa.int64()), q_col
                )
            if "u" in names:
                u_col = pc.if_else(hit, pc.struct_field(ex, "u"), u_col)
        # multipack implies n from regex; single/net/℮ formats imply 1 unit
        one = pc.fill_null(pc.not_equal(kind_col, "count"), False)
        n_col = pc.if_else(pc.and_(pc.is_null(n_col), one), pa.scalar(1, pa.int64()), n_col)
        dim = [None if u is None else PACK_UNIT_BASE[u][0] for u in u_col.to_pylist()]
        factor = np.array(
            [np.nan if u is None else PACK_UNIT_BASE[u][1] for u in u_col.to_pylist()],
            dtype=np.float64,
        )
        n_np = pc.fill_null(n_col, 0).to_numpy(zero_copy_only=False).astype(np.float64)
        q_np = pc.fill_null(q_col, 0).to_numpy(zero_copy_only=False).astype(np.float64)
        qty_base = n_np * q_np * factor
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "label": lab,
                "pack_kind": kind_col,
                "n_units": n_col,
                "unit_qty": q_col,
                "unit_raw": u_col,
                "dimension": pa.array(dim, type=pa.string()),
                "qty_base": pa.array(
                    np.where(np.isnan(qty_base), None, qty_base), type=pa.float64()
                ),
                "e_mark": pc.fill_null(pc.equal(kind_col, "e_marked"), False),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def part_packsize_oracle_sql() -> str:
    """Closed-form generated oracle for ``part_packsize``."""
    units = ", ".join(f"'{u}'" for u in PACK_UNITS)
    kinds = ", ".join(f"'{x}'" for x in PACK_KINDS)
    dim_arms = " ".join(
        f"WHEN '{u}' THEN '{PACK_UNIT_BASE[u][0]}'" for u in PACK_UNITS
    )
    factor_arms = " ".join(
        f"WHEN '{u}' THEN {PACK_UNIT_BASE[u][1]!r}" for u in PACK_UNITS
    )
    return f"""
        WITH m AS (
          SELECT p_partkey,
                 (p_partkey % {PACK_QTY_MOD}) + 1 AS qty,
                 2 + p_partkey % {PACK_N_MOD} AS n,
                 [{units}][(p_partkey % {len(PACK_UNITS)})::INT + 1] AS u,
                 [{kinds}][(p_partkey % {len(PACK_KINDS)})::INT + 1] AS kind
          FROM part
        )
        SELECT p_partkey,
               CASE kind
                 WHEN 'multipack' THEN n || ' x ' || qty || ' ' || u
                 WHEN 'single' THEN qty || ' ' || u
                 WHEN 'count' THEN n || ' pack'
                 WHEN 'net_labeled' THEN 'net weight: ' || qty || ' ' || u
                 WHEN 'net_compact' THEN 'nw ' || qty || ' ' || u
                 ELSE qty || ' ' || u || ' ℮' END AS label,
               kind AS pack_kind,
               (CASE WHEN kind = 'multipack' THEN n
                     WHEN kind = 'count' THEN n
                     ELSE 1 END)::BIGINT AS n_units,
               (CASE WHEN kind = 'count' THEN NULL ELSE qty END)::BIGINT AS unit_qty,
               CASE WHEN kind = 'count' THEN NULL ELSE u END AS unit_raw,
               CASE WHEN kind = 'count' THEN NULL
                    ELSE CASE u {dim_arms} END END AS dimension,
               CASE WHEN kind = 'count' THEN NULL
                    ELSE (CASE WHEN kind = 'multipack' THEN n ELSE 1 END)
                         * qty * CASE u {factor_arms} END END AS qty_base,
               kind = 'e_marked' AS e_mark
        FROM m
    """


# ---------------------------------------------------------------------------
# Penalty-re-ranked catalog join (reference analog J1,
# competitor_match.py:159-208: fuzzy top-k, attribute penalties −20/−15/−10,
# over-fetch max(3k, 25) then trim to k)
# ---------------------------------------------------------------------------

CATALOG_K = 8
CATALOG_FACT_MOD = 7
PEN_SIZE, PEN_MODIFIER, PEN_BRAND = 20.0, 15.0, 10.0


def part_catalog_match(
    sf_dir: str, k: int = CATALOG_K, fact_mod: int = CATALOG_FACT_MOD
) -> rd.Dataset:
    """Match FACT parts (p_partkey % fact_mod == 0 — the reference's
    "uploaded products" slice) against the full part CATALOG:

      1. fuzzy name score = 100·char-set-Jaccard(p_name, candidate p_name)
         (the proven DuckDB ``jaccard`` twin);
      2. over-fetch the top max(3k, 25) candidates per fact by NAME score
         (ties → smaller candidate key), excluding self;
      3. re-rank with attribute penalties from the parsed SKU struct
         (``part_sku_parse`` fields): −20 size_class mismatch, −15 modifier
         mismatch, −10 brand mismatch;
      4. trim to the top k by final score (ties → smaller candidate key).

    Scale shape: the catalog is a DIMENSION (33k rows in the reference) —
    parsed once, ``ray.put`` once, scored vectorized per fact batch
    (char-bitmask Jaccard matrix + numpy penalty re-rank); facts stream, no
    shuffle. Reference: ``competitor_match.py:159-208`` (over-fetch
    ``max(3k, 25)``: ``:162``, penalties ``:180-199``, trim ``:208``).
    """
    from ..pipelines.textnorm import _char_jaccard_matrix

    overfetch = max(3 * k, 25)
    cat_tbl = _collect(
        _read(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand", "p_size"])
    )
    cat_keys = np.asarray(cat_tbl.column("p_partkey").to_numpy(zero_copy_only=False))
    cat_names = cat_tbl.column("p_name").to_pylist()
    cat_brands = np.asarray(cat_tbl.column("p_brand").to_pylist(), dtype=object)
    cat_mod = np.asarray([(n or "").split(" ")[0] for n in cat_names], dtype=object)
    cat_size = np.asarray(
        pc.fill_null(cat_tbl.column("p_size"), -1).to_numpy(zero_copy_only=False)
    )
    classes = np.array(["small", "medium", "large"], dtype=object)
    cat_cls = classes[np.searchsorted([10, 30], cat_size, side="right")]
    cat_ref = ray.put((cat_keys, cat_names, cat_brands, cat_mod, cat_cls))

    def fact_slice(t: pa.Table) -> pa.Table:
        keys = np.asarray(t.column("p_partkey").to_numpy(zero_copy_only=False))
        return t.filter(pa.array(keys % fact_mod == 0))

    facts = _read(
        sf_dir, "part", columns=["p_partkey", "p_name", "p_brand", "p_size"]
    ).map_batches(fact_slice, batch_format="pyarrow")

    empty = pa.table(
        {
            "fact_partkey": pa.array([], type=pa.int64()),
            "cand_partkey": pa.array([], type=pa.int64()),
            "name_score": pa.array([], type=pa.float64()),
            "penalty": pa.array([], type=pa.float64()),
            "final_score": pa.array([], type=pa.float64()),
            "rank": pa.array([], type=pa.int64()),
        }
    )

    def match(t: pa.Table, _cache={}) -> pa.Table:
        cat = _cache.get("cat")
        if cat is None:
            cat = _cache["cat"] = ray.get(cat_ref)
        keys, names, brands, mods, cls = cat
        n = t.num_rows
        if n == 0:
            return empty
        f_keys = np.asarray(t.column("p_partkey").to_numpy(zero_copy_only=False))
        f_names = t.column("p_name").to_pylist()
        f_brands = np.asarray(t.column("p_brand").to_pylist(), dtype=object)
        f_mod = np.asarray([(x or "").split(" ")[0] for x in f_names], dtype=object)
        f_size = np.asarray(
            pc.fill_null(t.column("p_size"), -1).to_numpy(zero_copy_only=False)
        )
        f_cls = classes[np.searchsorted([10, 30], f_size, side="right")]
        sim = _char_jaccard_matrix([x or "" for x in f_names], names) * 100.0
        rows = {x: [] for x in empty.column_names}
        for i in range(n):
            s = sim[i]
            valid = keys != f_keys[i]
            # over-fetch by NAME score (desc), candidate key asc on ties
            order = np.lexsort((keys, -s))
            order = order[valid[order]][:overfetch]
            pen = (
                PEN_SIZE * (cls[order] != f_cls[i])
                + PEN_MODIFIER * (mods[order] != f_mod[i])
                + PEN_BRAND * (brands[order] != f_brands[i])
            )
            final = s[order] - pen
            sel = np.lexsort((keys[order], -final))[:k]
            take = order[sel]
            m = len(sel)
            rows["fact_partkey"].extend([int(f_keys[i])] * m)
            rows["cand_partkey"].extend(int(x) for x in keys[take])
            rows["name_score"].extend(_rha(s[take], 6).tolist())
            rows["penalty"].extend(pen[sel].tolist())
            rows["final_score"].extend(_rha(final[sel], 6).tolist())
            rows["rank"].extend(range(1, m + 1))
        return pa.table(
            {
                "fact_partkey": pa.array(rows["fact_partkey"], type=pa.int64()),
                "cand_partkey": pa.array(rows["cand_partkey"], type=pa.int64()),
                "name_score": pa.array(rows["name_score"], type=pa.float64()),
                "penalty": pa.array(rows["penalty"], type=pa.float64()),
                "final_score": pa.array(rows["final_score"], type=pa.float64()),
                "rank": pa.array(rows["rank"], type=pa.int64()),
            }
        )

    return facts.map_batches(match, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Deterministic hash sampling (SURVEY.md §2.6 sampling gap)
# ---------------------------------------------------------------------------


def lineitem_sample(sf_dir: str, hex_cutoff: str = "0d") -> rd.Dataset:
    """~5% deterministic sample: keep rows whose md5(key) starts below a hex
    cutoff. Unlike ``ds.random_sample`` this is reproducible across engines
    and cluster sizes (and SQL-oracle-checkable)."""
    import hashlib

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def f(t: pa.Table) -> pa.Table:
        keys = [
            f"{o}-{ln}"
            for o, ln in zip(
                t.column("l_orderkey").to_pylist(), t.column("l_linenumber").to_pylist()
            )
        ]
        keep = np.array(
            [hashlib.md5(k.encode()).hexdigest()[:2] < hex_cutoff for k in keys]
        )
        return t.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bucketized scoring (reference analog G8: NPM threshold tables)
# ---------------------------------------------------------------------------

VALUE_BUCKET_EDGES = (50_000.0, 150_000.0, 300_000.0)
VALUE_BUCKET_LABELS = ("lt50k", "50k-150k", "150k-300k", "gte300k")


def order_value_buckets(sf_dir: str) -> pa.Table:
    """Orders bucketed by total price via vectorized np.searchsorted against
    a threshold table (the reference's NPM points-table pattern,
    prompts/hfss.py:51-107), then a tiny keyed aggregate."""
    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        labels = np.asarray(VALUE_BUCKET_LABELS, dtype=object)
        b = labels[np.searchsorted(np.asarray(VALUE_BUCKET_EDGES), df["o_totalprice"].to_numpy(), side="right")]
        g = pd.DataFrame(
            {"bucket": b, "n_orders": 1, "total_price": _rha(df["o_totalprice"], 2)}
        ).groupby("bucket", as_index=False).sum()
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pandas")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("bucket")
        .aggregate(Sum("n_orders", alias_name="n_orders"), Sum("total_price", alias_name="total_price"))
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["total_price"] = _rha(df["total_price"], 2)
        df["n_orders"] = df["n_orders"].astype(np.int64)
        return df

    return _collect(agg.map_batches(finalize, batch_format="pandas").sort("bucket"))


# ---------------------------------------------------------------------------
# Ordered per-key window: running totals (cumulative sum over a defined order)
# ---------------------------------------------------------------------------


def customer_running_totals(sf_dir: str) -> pa.Table:
    """Per customer, orders in (o_orderdate, o_orderkey) order with the
    running total of order value — the ordered-window aggregate Ray Data has
    no primitive for, composed as ``exchange.group_apply`` on o_custkey with
    one sort and one per-customer cumulative sum per hash range. Cumulative
    sums are computed over per-row cent-rounded values in a DEFINED order,
    so both engines produce bit-identical doubles.
    """
    cols = ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]

    def running(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas().sort_values(
            ["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort"
        )
        vals = df.assign(v=_rha(df["o_totalprice"], 2)).groupby("o_custkey")["v"]
        return pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].astype(np.int64),
                "o_orderkey": df["o_orderkey"].astype(np.int64),
                "o_orderdate": pd.to_datetime(df["o_orderdate"]).dt.strftime("%Y-%m-%d"),
                "running_total": _rha(vals.cumsum(), 2),
            }
        )

    schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("o_orderkey", pa.int64()),
            ("o_orderdate", pa.string()),
            ("running_total", pa.float64()),
        ]
    )
    out = exchange.group_apply(
        _read(sf_dir, "orders", columns=cols), "o_custkey", cols, _aout(running), schema
    )
    return _collect(out, schema=schema).sort_by(
        [("o_custkey", "ascending"), ("o_orderkey", "ascending")]
    )


def customer_name_numbers(sf_dir: str) -> rd.Dataset:
    """String scalar functions: parse the numeric id out of c_name, emit
    upper-cased segment + zero-stripped id (vectorized regex/string kernels).
    """
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"])

    def f(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("c_name"), r"#(?P<num>\d+)")
        num = pc.cast(pc.struct_field(ex, "num"), pa.int64())
        return pa.table(
            {
                "c_custkey": t.column("c_custkey"),
                "name_number": num,
                "segment_upper": pc.utf8_upper(t.column("c_mktsegment")),
                "name_length": pc.cast(pc.utf8_length(t.column("c_name")), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# M11 unit-normalization layer (reference analogs: nutrient unit
# canonicalization ``artwork_processing.py:281-289`` — µg/ug/mcg → mcg,
# kJ/kcal — and the comma-decimal numeric fix ``_num``,
# ``artwork_processing.py:277-279``). Constants are interpolated into the
# SQL oracle so the synonym dict and factors can never drift.
UNIT_VARIANTS: tuple[str, ...] = ("mcg", "ug", "µg", "mg", "g", "kg", "kj", "kcal")
# variant → (canonical unit, dimension, factor to the dimension's base:
# mass → mg, energy → kJ)
UNIT_CANON: dict[str, tuple[str, str, float]] = {
    "mcg": ("mcg", "mass", 0.001),
    "ug": ("mcg", "mass", 0.001),
    "µg": ("mcg", "mass", 0.001),
    "mg": ("mg", "mass", 1.0),
    "g": ("g", "mass", 1000.0),
    "kg": ("kg", "mass", 1000000.0),
    "kj": ("kj", "energy", 1.0),
    "kcal": ("kcal", "energy", 4.184),
}
MEAS_VALUE_MOD = 997
MEAS_COMMA_MOD = 3  # every 3rd label uses a comma decimal (the _num case)


def part_measurements(sf_dir: str) -> rd.Dataset:
    """Parse + unit-normalize measurement labels.

    The label text is a deterministic function of ``p_partkey`` constructed
    identically on both sides (the multimodal-fixture pattern), so the
    TESTED transform is the engine's real work: regex value/unit extraction,
    comma-decimal repair, synonym-dict canonicalization, and base-unit
    conversion. The oracle computes the expectations in closed form — any
    parse/normalize bug shifts a value or a unit."""
    ds = _read(sf_dir, "part", columns=["p_partkey"])

    def f(t: pa.Table) -> pa.Table:
        k = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        value = (k % MEAS_VALUE_MOD) / 10.0
        labels = []
        for ki, v in zip(k, value):
            txt = f"{v:.1f}"
            if ki % MEAS_COMMA_MOD == 0:
                txt = txt.replace(".", ",")
            labels.append(f"contains {txt} {UNIT_VARIANTS[ki % len(UNIT_VARIANTS)]} per serving")
        lab = pa.array(labels, type=pa.string())
        # --- the tested transform starts here: parse the label back out
        ex = pc.extract_regex(lab, r"(?P<val>\d+[.,]\d+)\s*(?P<unit>\S+)\b")
        val_s = pc.replace_substring(pc.struct_field(ex, "val"), ",", ".")
        val = pc.cast(val_s, pa.float64())
        unit_raw = pc.struct_field(ex, "unit")
        ur = unit_raw.to_pylist()
        canon = [UNIT_CANON[u] for u in ur]
        factor = np.array([c[2] for c in canon], dtype=np.float64)
        val_np = val.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "label": lab,
                "value_raw": val,
                "unit_raw": unit_raw,
                "unit_canon": pa.array([c[0] for c in canon], type=pa.string()),
                "dimension": pa.array([c[1] for c in canon], type=pa.string()),
                "value_base": pa.array(_rha(val_np * factor, 6), type=pa.float64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def part_measurements_oracle_sql() -> str:
    """Closed-form oracle for ``part_measurements`` (generated from the same
    module constants the engine uses)."""
    variants = ", ".join(f"'{u}'" for u in UNIT_VARIANTS)
    factor_arms = " ".join(
        f"WHEN '{u}' THEN {UNIT_CANON[u][2]!r}" for u in UNIT_VARIANTS
    )
    canon_arms = " ".join(
        f"WHEN '{u}' THEN '{UNIT_CANON[u][0]}'" for u in UNIT_VARIANTS
    )
    dim_arms = " ".join(
        f"WHEN '{u}' THEN '{UNIT_CANON[u][1]}'" for u in UNIT_VARIANTS
    )
    return f"""
        WITH m AS (
          SELECT p_partkey,
                 (p_partkey % {MEAS_VALUE_MOD}) / 10.0 AS value,
                 [{variants}][(p_partkey % {len(UNIT_VARIANTS)})::INT + 1] AS unit_raw,
                 p_partkey % {MEAS_COMMA_MOD} = 0 AS comma
          FROM part
        )
        SELECT p_partkey,
               'contains ' ||
               CASE WHEN comma THEN replace(printf('%.1f', value), '.', ',')
                    ELSE printf('%.1f', value) END ||
               ' ' || unit_raw || ' per serving' AS label,
               value AS value_raw, unit_raw,
               CASE unit_raw {canon_arms} END AS unit_canon,
               CASE unit_raw {dim_arms} END AS dimension,
               round(value * CASE unit_raw {factor_arms} END, 6) AS value_base
        FROM m
    """


# ---------------------------------------------------------------------------
# Dataset union (UNION ALL semantics)
# ---------------------------------------------------------------------------


def party_names(sf_dir: str) -> rd.Dataset:
    """customers ∪ suppliers as one tagged table — ``Dataset.union`` keeps
    both inputs streaming (no shuffle; blocks are concatenated lazily)."""
    cust = _read(sf_dir, "customer", columns=["c_name"]).map_batches(
        lambda t: pa.table(
            {
                "name": t.column("c_name"),
                "kind": pa.array(["customer"] * t.num_rows, type=pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    supp = _read(sf_dir, "supplier", columns=["s_name"]).map_batches(
        lambda t: pa.table(
            {
                "name": t.column("s_name"),
                "kind": pa.array(["supplier"] * t.num_rows, type=pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return cust.union(supp)


# --------------------------------------------------------------------------
# Range join: trailing-window lookback per event
# --------------------------------------------------------------------------

RANGE_WINDOW_MIN = 30


def events_range_counts(sf_dir: str, window_min: int = RANGE_WINDOW_MIN) -> pa.Table:
    """Interval/range join: for every purchase, count the same user's events
    in the trailing window ``[ts - window, ts)`` (strictly prior).

    Ray Data has no range-join primitive; the distributed shape is
    ``exchange.group_apply`` on the equality key (user), then ONE
    probe-merge per hash range: events and window-boundary
    probes are lexsorted together on (user, ts, probe-before-event), so a
    cumulative event count at the two probe positions yields each window's
    count — no per-user loop, no per-row searchsorted, no pairwise join
    blow-up. Shuffle volume is one hash exchange of the events projection.
    """
    cols = ["event_id", "ts", "user_id", "event_type"]
    win = np.timedelta64(window_min * 60 * 1_000_000_000, "ns")

    def lookback(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        uid = df["user_id"].to_numpy()
        ts = df["ts"].to_numpy(dtype="datetime64[ns]")
        etype = df["event_type"].to_numpy()
        is_purchase = etype == "purchase"
        p_uid, p_ts = uid[is_purchase], ts[is_purchase]
        p_eid = df["event_id"].to_numpy()[is_purchase]
        n_ev, n_p = len(uid), len(p_uid)
        # merged order: events (tag 1) + lo probes (tag 0, at ts-win,
        # inclusive → before equal-ts events) + hi probes (tag 0, at ts,
        # exclusive → before equal-ts events, excluding the purchase itself)
        m_uid = np.concatenate([uid, p_uid, p_uid])
        m_ts = np.concatenate([ts, p_ts - win, p_ts])
        m_tag = np.concatenate(
            [np.ones(n_ev, np.int8), np.zeros(2 * n_p, np.int8)]
        )
        m_click = np.concatenate([etype == "click", np.zeros(2 * n_p, bool)])
        order = np.lexsort((m_tag, m_ts.view(np.int64), m_uid))
        pos = np.empty(len(order), dtype=np.int64)
        pos[order] = np.arange(len(order))
        s_tag, s_click = m_tag[order], m_click[order]
        before_ev = np.cumsum(s_tag) - s_tag  # events strictly before slot
        before_ck = np.cumsum(s_click) - s_click
        lo, hi = pos[n_ev : n_ev + n_p], pos[n_ev + n_p :]
        return pd.DataFrame(
            {
                "event_id": p_eid,
                "user_id": p_uid,
                "ts": pd.to_datetime(p_ts).strftime("%Y-%m-%d %H:%M:%S.%f"),
                "n_prior": (before_ev[hi] - before_ev[lo]).astype(np.int64),
                "n_clicks_prior": (before_ck[hi] - before_ck[lo]).astype(np.int64),
            }
        )

    schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("ts", pa.string()),
            ("n_prior", pa.int64()),
            ("n_clicks_prior", pa.int64()),
        ]
    )
    out = exchange.group_apply(
        _read(sf_dir, "events", columns=cols), "user_id", cols, _aout(lookback), schema
    )
    return _collect(out, schema=schema).sort_by("event_id")


# ---------------------------------------------------------------------------
# Events-table validation (the row-check engine generalized to events)
# ---------------------------------------------------------------------------

EVENTS_TS_LO = "2000-01-01"  # broad validity window; a ts outside it is a
EVENTS_TS_HI = "2100-01-01"  # decode/clock bug, not data


def events_validate(sf_dir: str) -> pa.Table:
    """Per-event-type validation verdicts over the events table: counts of
    rows with a null event_id / ts / user_id, a negative value, a
    structurally-malformed props payload (non-null and not ``{...}`` —
    vectorized regex, not a JSON parse, so both engines stay row-loop-free)
    or a timestamp outside [2000-01-01, 2100-01-01), plus the violating-row
    total and a passed flag. Null event types fold into the ``~null~``
    sentinel group. Same fused-kernel + combiner + tiny-groupby shape as
    the sequences and embeddings validators; the props strings never
    shuffle."""
    from ray.data.aggregate import Sum as _Sum

    ds = _read(sf_dir, "events")
    flags = ("null_id", "null_ts", "null_user", "neg_value", "malformed_props", "ts_range")
    lo = pd.Timestamp(EVENTS_TS_LO)
    hi = pd.Timestamp(EVENTS_TS_HI)

    def partial(t: pa.Table) -> pd.DataFrame:
        def _b(a):
            return np.asarray(a.to_numpy(zero_copy_only=False), dtype=bool)

        null_id = _b(pc.is_null(t.column("event_id")))
        null_ts = _b(pc.is_null(t.column("ts")))
        null_user = _b(pc.is_null(t.column("user_id")))
        neg_value = _b(pc.fill_null(pc.less(t.column("value"), 0.0), False))
        props = t.column("props")
        shaped = pc.match_substring_regex(props, r"^\{.*\}$")
        malformed = _b(pc.fill_null(pc.invert(shaped), False))  # null props allowed
        ts = t.column("ts")
        out_lo = pc.less(ts, pa.scalar(lo.to_pydatetime()))
        out_hi = pc.greater_equal(ts, pa.scalar(hi.to_pydatetime()))
        ts_range = _b(pc.fill_null(pc.or_(out_lo, out_hi), False))
        viol = null_id | null_ts | null_user | neg_value | malformed | ts_range
        etype = pc.fill_null(t.column("event_type"), "~null~").to_pandas()
        df = pd.DataFrame(
            {
                "event_type": etype,
                "n_rows": 1,
                "null_id": null_id.astype(np.int64),
                "null_ts": null_ts.astype(np.int64),
                "null_user": null_user.astype(np.int64),
                "neg_value": neg_value.astype(np.int64),
                "malformed_props": malformed.astype(np.int64),
                "ts_range": ts_range.astype(np.int64),
                "viol_rows": viol.astype(np.int64),
            }
        )
        g = df.groupby("event_type", as_index=False).sum()
        g["n_rows"] = g["n_rows"].astype(np.int64)
        return g

    agg = (
        ds.map_batches(_aout(partial), batch_format="pyarrow")
        .materialize()  # tiny combiner output; see core/batches.py note
        .groupby("event_type")
        .aggregate(
            _Sum("n_rows", alias_name="n_rows"),
            *[_Sum(f, alias_name=f) for f in flags],
            _Sum("viol_rows", alias_name="viol_rows"),
        )
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_rows", *flags, "viol_rows"):
            df[c] = df[c].astype(np.int64)
        df["passed"] = df["viol_rows"] == 0
        return df[["event_type", "n_rows", *flags, "viol_rows", "passed"]]

    out = _collect(agg.map_batches(finalize, batch_format="pandas").sort("event_type"))
    if out.num_rows == 0:
        # 0-row events table → typed empty verdict table (see documents_validate)
        return pa.schema(
            [("event_type", pa.string()), ("n_rows", pa.int64())]
            + [(f, pa.int64()) for f in flags]
            + [("viol_rows", pa.int64()), ("passed", pa.bool_())]
        ).empty_table()
    return out


# ---------------------------------------------------------------------------
# Per-event-type temporal-distribution drift (events table)
# ---------------------------------------------------------------------------
# The events-table member of the complement-KS family (see
# text.documents_lang_drift): each event type's EVENT-TIME distribution is
# KS-compared against the rest of the stream, catching a type whose traffic
# shifted in time (a replayed backfill, a producer stuck in one window, a
# type that stopped emitting mid-month) even when its total row count stays
# plausible. Timestamps bin by integer epoch-microsecond division (6-hour
# buckets) — Arrow's timestamp cast and DuckDB's epoch_us() yield the same
# int64, so the exact integer-KS core replays bit-for-bit. Null types fold
# to '~null~'; null timestamps to bin -1; a type that is the whole stream
# reads maximal 1,000,000 ppm (empty complement).

EVENTS_DRIFT_BIN_US = 6 * 3600 * 1_000_000  # 6-hour buckets
EVENTS_TYPE_KS_PPM = 50_000                 # flag a >5% CDF gap vs rest


def events_type_drift(sf_dir: str, ks_ppm: int = EVENTS_TYPE_KS_PPM) -> pa.Table:
    """Per-type event-time KS vs the rest of the stream (contract in the
    section comment above)."""
    from ..core.batches import arrow_out as _aout
    from .tokens import _ks_verdicts

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def partial(t: pa.Table) -> pd.DataFrame:
        et = pc.fill_null(t.column("event_type"), "~null~").to_pandas()
        us = pc.fill_null(
            pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")), pa.int64()), -1
        ).to_numpy(zero_copy_only=False)
        bins = np.where(us < 0, -1, us // EVENTS_DRIFT_BIN_US)
        df = pd.DataFrame(
            {"event_type": et, "bin": bins.astype(np.int64), "n": np.int64(1)}
        )
        g = df.groupby(["event_type", "bin"], as_index=False).sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    ha: dict = {}
    for bt in ds.map_batches(_aout(partial), batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for k, b, n in zip(
            bt.column("event_type").to_pylist(),
            bt.column("bin").to_pylist(),
            bt.column("n").to_pylist(),
        ):
            ha[(k, b)] = ha.get((k, b), 0) + int(n)
    tot: dict = {}
    for (_, b), n in ha.items():
        tot[b] = tot.get(b, 0) + n
    types = sorted({k for k, _ in ha})
    hb = {(k, b): tot[b] - ha.get((k, b), 0) for k in types for b in tot}
    return _ks_verdicts(
        ha, hb, ks_ppm, count_cols=("rows_type", "rows_rest"), key_col="event_type"
    )
