"""Broadcast-or-exchange join helpers (semi / anti / lookup).

Several pipelines semi-join a fact table against a key set that is USUALLY
small (a filtered customer segment, the distinct order custkeys) but is
fact-scale in the worst case — it grows with the input, so a driver-side
``take_all()`` into a Python set is a 100 TB scale-killer (multi-GB driver
dict serialized into every task closure).

The policy here (VERDICT r1 item 4):

- probe the key side with an early-stopped ``limit(cap+1)`` — ONE pass, no
  separate ``count()`` execution;
- if it fits under ``BROADCAST_KEY_CAP`` (default 2M keys ≈ 16 MB of int64),
  ``ray.put`` the distinct key array ONCE and filter with a vectorized
  ``pc.is_in`` inside ``map_batches`` (the array is fetched zero-copy per
  worker, never re-shipped per task);
- otherwise run one hash-range KEY exchange (``key_exchange`` over
  ``core/exchange``): ds ships its per-block-group distinct keys, the other
  side its key-hashed rows (the key side's distinct keys for semi/anti, the
  dim rows for lookup), and each range reducer keeps the other side's rows
  whose key occurs in ds. The matched set flows worker→worker through the
  object store (the driver holds refs only), bounded by
  min(|distinct ds keys|, |other side|), and each ds batch filters or
  enriches in place against its per-worker-cached concatenation. Rows of
  ds never shuffle — the native ``Dataset.join`` fallback used before
  round 5 moved every ds row through a hash shuffle AND crashed on the
  zero-column empty partitions Ray's join builds for tiny/skewed inputs
  (ADVICE r4).

Both paths are exactly equivalent; ``tests/test_operators.py`` and
``tests/test_exchange.py`` force the exchange path with a tiny cap and
compare.

Reference analog: exact dictionary semi-join (J2, banningredients.py:131-139)
generalized with a scale guard.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from . import exchange
from .collect import collect_table as _collect
from .hashing import hash_keys

BROADCAST_KEY_CAP = 2_000_000


def probe_keys(keys_ds: rd.Dataset, col: str, cap: int) -> pa.Array | None:
    """Distinct key array if the key side holds ≤ ``cap`` DISTINCT keys
    (per-batch-deduped probe), else None.

    A per-batch ``pc.unique`` combiner runs before the early-stopped
    ``limit(cap+1)``, so a key side with few distinct keys but many
    duplicate rows (e.g. raw orders.o_custkey) still takes the broadcast
    path; the cap then bounds the sum of per-batch distincts — conservative
    but never more than batch-count× the true distinct count. If the
    limited read returns ≤ cap rows it IS the complete (batch-deduped) key
    side — one pass, early-stoppable.
    """

    def batch_unique(t: pa.Table) -> pa.Table:
        return pa.table({col: pc.unique(t.column(col).combine_chunks())})

    head = _collect(
        keys_ds.select_columns([col])
        .map_batches(batch_unique, batch_format="pyarrow")
        .limit(cap + 1)
    )
    if col not in head.column_names:
        # an all-empty key side can lose its schema through the limit
        # (collect falls back to a zero-column table) — it IS the complete
        # (empty) key side; recover the column type from the dataset schema
        s = keys_ds.schema()
        head = pa.table({col: pa.array([], type=dict(zip(s.names, s.types))[col])})
    if head.num_rows > cap:
        return None
    return pc.unique(head.column(col).combine_chunks())


def _family(typ: "pa.DataType | None") -> "str | None":
    """The key family the exchange paths hash by: integer or string."""
    if typ is None:
        return None
    if pa.types.is_integer(typ):
        return "integer"
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return "string"
    return None


def _key_type(schema, col: str) -> "pa.DataType | None":
    return dict(zip(schema.names, schema.types)).get(col) if schema else None


def _check_families(col: str, a, other_col: str, b) -> None:
    """Raise TypeError, naming both types, when two join key types belong
    to different families: the exchange paths hash each family its own way
    (a silently empty match) and the broadcast paths cast one to the
    other ("1" would match 1)."""
    if _family(a) and _family(b) and _family(a) != _family(b):
        raise TypeError(
            f"join key types disagree: {col!r} is {a}, {other_col!r} is {b}"
        )


def semi_join(
    ds: rd.Dataset,
    key_col: str,
    keys_ds: rd.Dataset,
    keys_col: str,
    *,
    anti: bool = False,
    cap: int | None = None,
) -> rd.Dataset:
    """``ds ⋉ keys_ds`` (or ``ds ∖ keys_ds`` when ``anti``) on one key column.

    Output columns are exactly ``ds``'s columns. Null keys in ``ds`` never
    match (semi drops them, anti keeps them) — is_in/fill_null semantics on
    both paths; the exchange drops null keys before hashing.
    """
    cap = BROADCAST_KEY_CAP if cap is None else cap
    keys = probe_keys(keys_ds, keys_col, cap)
    if keys is not None:
        keys = keys.drop_null()
        # here when ds's schema is known without running it, else per batch
        ds_type = _key_type(ds.schema(fetch_if_missing=False), key_col)
        _check_families(key_col, ds_type, keys_col, keys.type)
        get_keys = partial(ray.get, ray.put(pa.table({keys_col: keys})))
    else:
        ds, get_keys = _matched(ds, key_col, keys_ds, [keys_col], distinct=True)

    def filt(t: pa.Table, _cache={}) -> pa.Table:
        vals = _cache.get("vals")
        if vals is None:
            vals = _cache["vals"] = get_keys().column(0)
        _check_families(key_col, t.column(key_col).type, keys_col, vals.type)
        mask = pc.fill_null(pc.is_in(t.column(key_col), value_set=vals), False)
        if anti:
            mask = pc.invert(mask)
        # metadata strip: downstream joins/shuffles hash block schemas
        # for dedup and a pandas-metadata dict defeats that (batches.py)
        return t.filter(mask).replace_schema_metadata(None)

    return ds.map_batches(filt, batch_format="pyarrow")


def lookup_join(
    ds: rd.Dataset,
    key_col: str,
    dim_ds: rd.Dataset,
    dim_key: str,
    value_cols: list[str],
    *,
    cap: int | None = None,
) -> rd.Dataset:
    """Enrich ``ds`` with ``value_cols`` from a dimension table (inner,
    key → values; dim keys are assumed unique, the dimension-loader
    contract).

    Same policy as ``semi_join``: if the dim side holds ≤ ``cap`` rows it is
    ``ray.put`` ONCE and each batch does a local Arrow hash join against the
    per-worker-cached table (zero-copy plasma read, never re-shipped per
    task); above the cap the dim is first REDUCED to the rows whose key
    actually appears in ``ds`` by the same key exchange as ``semi_join``,
    and the matched dim is then the local-join build side.
    Output columns: ``ds``'s columns ⊕ ``value_cols``.
    """
    cap = BROADCAST_KEY_CAP if cap is None else cap
    dim_head = _collect(dim_ds.select_columns([dim_key, *value_cols]).limit(cap + 1))
    ds_schema = ds.schema()
    _check_families(
        key_col, _key_type(ds_schema, key_col),
        dim_key, _key_type(dim_head.schema, dim_key),
    )
    out_cols = list(ds_schema.names) + list(value_cols)
    if dim_head.num_rows <= cap:
        get_dim = partial(ray.get, ray.put(dim_head.combine_chunks()))
    else:
        ds, get_dim = _matched(ds, key_col, dim_ds, [dim_key, *value_cols])

    def enrich(t: pa.Table, _cache={}) -> pa.Table:
        dim = _cache.get("dim")
        if dim is None:
            dim = _cache["dim"] = get_dim()
        ktype = t.schema.field(key_col).type
        if dim.schema.field(dim_key).type != ktype:
            # same family, other width (int32 vs int64): the Arrow join
            # needs identical key types
            i = dim.schema.get_field_index(dim_key)
            dim = _cache["dim"] = dim.set_column(i, dim_key, dim.column(i).cast(ktype))
        j = t.join(dim, keys=[key_col], right_keys=[dim_key], join_type="inner")
        return j.select(out_cols).replace_schema_metadata(None)

    return ds.map_batches(enrich, batch_format="pyarrow")


def _matched(ds, key_col: str, other, cols: list[str], distinct: bool = False):
    """The above-cap path of both joins: ``(ds materialized, getter)``,
    where the getter returns ``other``'s ``cols`` rows (key first) whose
    key occurs among ``ds``'s ``key_col`` values, deduplicated when
    ``distinct``, as one table."""
    ds, other = ds.materialize(), other.materialize()
    types = [_key_type(other.schema(), c) for c in cols]
    ds_type = _key_type(ds.schema(), key_col)
    _check_families(key_col, ds_type, cols[0], types[0])
    schema = pa.schema(list(zip(cols, types)))
    # a ds without blocks has no schema (rd.from_items([])); it ships nothing
    refs = key_exchange(
        (ds, pa.schema([(key_col, ds_type or types[0])]), True),
        (other, schema, distinct),
        _match_range,
        schema,
        distinct,
    )
    return ds, partial(_concat_refs, refs)


def _concat_refs(refs: list) -> pa.Table:
    return pa.concat_tables(ray.get(list(refs))).combine_chunks()


def key_exchange(first: tuple, second: tuple, reduce_task, *args) -> list:
    """One key exchange between two materialized Datasets, each given as
    ``(ds, schema, distinct)`` (``schema``: the columns to ship, key
    first). Each side's block groups are cut by ``split_by_key``; one
    ObjectRef per hash range of ``reduce_task(*args, n_first, *parts)``,
    where ``parts`` holds ``first``'s ``n_first`` partials, then
    ``second``'s."""
    ranges = exchange.range_count()
    groups = [exchange.block_groups(ds) for ds, _, _ in (first, second)]
    mapped = [
        m
        for (_, schema, distinct), g in zip((first, second), groups)
        for m in exchange.map_ranges(split_by_key, g, ranges, schema, distinct)
    ]
    return exchange.reduce_ranges(mapped, reduce_task, ranges, *args, len(groups[0]))


@ray.remote
def split_by_key(block_refs: list, ranges: int, schema: pa.Schema, distinct: bool) -> tuple:
    """The map of a key exchange: a block group's ``schema`` columns with
    null keys dropped (only the distinct keys when ``distinct``; then
    ``schema`` is the key alone), one table per ``hash_keys`` range.
    Zero-column empty blocks are skipped; typed empties come from
    ``schema``, never from a sampled block."""
    t = exchange.fetch_table(block_refs, schema.names)
    t = schema.empty_table() if t is None else t.cast(schema)
    t = t.filter(pc.is_valid(t.column(0)))
    if distinct:
        t = pa.table([pc.unique(t.column(0))], schema=schema)
    h = hash_keys(t.column(0))
    order = np.argsort(h, kind="stable")
    return tuple(p for (p,) in exchange.split(h[order], ranges, t.take(order)))


@ray.remote
def _match_range(schema: pa.Schema, distinct: bool, n_ds: int, *parts) -> pa.Table:
    """One hash range's matched rows: the other side's rows whose key
    occurs among ds's keys (exact value equality — hashes only route)."""
    keys = [c for p in parts[:n_ds] for c in p.column(0).chunks]
    rows = [p for p in parts[n_ds:] if p.num_rows]
    if not keys or not rows:
        return schema.empty_table()
    t = pa.concat_tables(rows)
    t = t.filter(pc.is_in(t.column(0), value_set=pa.concat_arrays(keys)))
    if distinct:
        t = pa.table([pc.unique(t.column(0))], schema=schema)
    return t
