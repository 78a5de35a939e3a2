"""Broadcast dimension tables and per-worker check context.

Reference analog: the dictionary CSV loaders with required-column validation
and module-global caches (``prompts/banningredients.py:29-67``,
``novel_check_utils.py:17-46``, ``competitor_match.py:137-149``). In the Ray
engine, dimension state is built ONCE on the driver, shipped to stages via
actor constructor args (tiny: an allowlist + caps dict + histograms), and
normalized into lookup-friendly form before shipping — never rebuilt per
batch, never re-shipped per batch.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..core.schema import SOURCE_ALLOWLIST, VOCAB
from ..datagen import reference_histograms


def build_check_ctx(
    allowlist: "list[dict] | None" = None,
    vocab: int = VOCAB,
    enabled_checks: "list[str] | None" = None,
    schema_repair: bool = False,
    warn_checks: "list[str] | None" = None,
) -> dict:
    """Build the broadcast context consumed by ``row_check_matrix``.

    Validates the dimension's required columns (the reference pattern,
    ``banningredients.py:43-46``) and pre-materializes the Arrow value_set so
    the hot loop never reconstructs it.
    """
    rows = allowlist if allowlist is not None else SOURCE_ALLOWLIST
    required = {"source", "status", "max_n_tok"}
    for r in rows:
        missing = required - set(r)
        if missing:
            raise ValueError(f"allowlist dimension missing columns {sorted(missing)}")
    allowed = sorted(r["source"] for r in rows)
    ctx = {
        "allowed_sources": frozenset(allowed),
        "allowed_sources_arr": pa.array(allowed, type=pa.string()),
        "max_n_tok": {r["source"]: int(r["max_n_tok"]) for r in rows},
        "status": {r["source"]: r["status"] for r in rows},
        "vocab": vocab,
        "schema_repair": bool(schema_repair),
    }
    if enabled_checks is not None:
        # per-check selection (reference analog: the check dropdown +
        # per-check sliders, app.py:453-532); unknown names are an error so
        # config typos fail loudly
        from ..checks.row_checks import ROW_CHECK_NAMES

        unknown = set(enabled_checks) - set(ROW_CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; valid: {ROW_CHECK_NAMES}")
        ctx["enabled_checks"] = tuple(enabled_checks)
    if warn_checks:
        # severity demotion: warn-class checks still run and are counted
        # per check (and listed in checks_failed evidence), but they do not
        # fail a row — warn-only rows stay out of the violations sink, out
        # of viol_rows / partition pass-fail / the fail-fast budget, and IN
        # the clean sink. Unknown names fail loudly like enabled_checks.
        from ..checks.row_checks import ROW_CHECK_NAMES

        unknown = set(warn_checks) - set(ROW_CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; valid: {ROW_CHECK_NAMES}")
        ctx["warn_checks"] = frozenset(warn_checks)
    return ctx


@functools.cache
def _reference_histograms() -> dict[str, np.ndarray]:
    hists = reference_histograms()
    for h in hists.values():
        h.flags.writeable = False
    return hists


def reference_histograms_dim() -> dict[str, np.ndarray]:
    """source → expected n_tok histogram counts (FIXTURES.md §4). Sampled
    once per process; each call returns a fresh dict of the same read-only
    arrays, so a caller writing to one raises instead of changing the
    dimension for every later caller."""
    return dict(_reference_histograms())


def load_allowlist_csv(path: str) -> list[dict]:
    """Load the source_allowlist dimension from CSV with required-column
    validation (reference pattern: dictionary CSV loaders,
    ``prompts/banningredients.py:29-67`` — fail loudly on a wrong file,
    ``app.py:478-481``)."""
    import pyarrow.csv as pacsv

    t = pacsv.read_csv(path)
    required = {"source", "status", "max_n_tok"}
    missing = required - set(t.column_names)
    if missing:
        raise ValueError(
            f"allowlist CSV {path!r} missing required columns {sorted(missing)}; "
            f"found {t.column_names}"
        )
    rows = t.select(sorted(required)).to_pylist()
    for r in rows:
        r["max_n_tok"] = int(r["max_n_tok"])
    return rows


def save_reference_histograms(path: str, hists: "dict[str, np.ndarray] | None" = None) -> str:
    """Persist the reference-histogram dimension as parquet (source,
    bin_counts:list<int64>) — so real deployments version it as data."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    hists = hists if hists is not None else reference_histograms_dim()
    t = _pa.table(
        {
            "source": _pa.array(sorted(hists), type=_pa.string()),
            "bin_counts": _pa.array(
                [hists[s].tolist() for s in sorted(hists)], type=_pa.list_(_pa.int64())
            ),
        }
    )
    _pq.write_table(t, path)
    return path


def load_reference_histograms(path: str) -> "dict[str, np.ndarray]":
    """Load the drift-reference dimension from parquet with required-column
    validation (S2 pattern). Returns {source: int64 bin counts}."""
    import pyarrow.parquet as _pq

    t = _pq.read_table(path)
    required = {"source", "bin_counts"}
    missing = required - set(t.column_names)
    if missing:
        raise ValueError(
            f"reference-histogram parquet {path!r} missing columns {sorted(missing)}"
        )
    return {
        s: np.asarray(c, dtype=np.int64)
        for s, c in zip(t.column("source").to_pylist(), t.column("bin_counts").to_pylist())
    }


# ---------------------------------------------------------------------------
# Tokenizer vocabulary dimension (seq_detokenize's genuine lookup table)
# ---------------------------------------------------------------------------

VOCAB_DIM_DROP_MOD = 1009  # ids ≡ RES (mod MOD) are ABSENT from the vocab —
VOCAB_DIM_DROP_RES = 7     # unused slots, so OOV counting must consult the
#                            dimension, not a [0, VOCAB) range check


def _vocab_piece(i: int) -> str:
    """Deterministic variable-length piece string for a token id (base-26
    letters, least-significant digit first) — 1-4 chars at VOCAB=32k, so
    decoded lengths genuinely depend on the lookup."""
    s = []
    while True:
        s.append(chr(ord("a") + i % 26))
        i //= 26
        if i == 0:
            return "".join(s)


def vocab_dim_table() -> pa.Table:
    """(token_id:int32, piece:string) for every id in the vocabulary —
    all of [0, VOCAB) except the deterministic dropped slots."""
    ids = [i for i in range(VOCAB) if i % VOCAB_DIM_DROP_MOD != VOCAB_DIM_DROP_RES]
    return pa.table(
        {
            "token_id": pa.array(ids, type=pa.int32()),
            "piece": pa.array([_vocab_piece(i) for i in ids], type=pa.string()),
        }
    )


def ensure_vocab_dim(path: "str | None" = None) -> str:
    """Write (idempotently) the vocab dimension parquet; returns its path.
    Default location sits next to the generated fixture corpora so the SQL
    oracle reads the SAME file the engine broadcasts."""
    import os

    import pyarrow.parquet as pq

    if path is None:
        base = os.path.join(__import__("tempfile").gettempdir(), "pqcray_data")
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, "vocab_dim.parquet")
    if not os.path.exists(path):
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(vocab_dim_table(), tmp)
        os.replace(tmp, path)
    return path


def load_vocab_pieces(path: str) -> pa.Array:
    """Dense length-VOCAB piece array (null at ids absent from the vocab) —
    the broadcast gather form of the dimension. Validates required columns
    like the other dimension loaders."""
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    missing = {"token_id", "piece"} - set(t.column_names)
    if missing:
        raise ValueError(f"vocab dimension missing required columns {sorted(missing)}")
    ids = t.column("token_id").to_numpy(zero_copy_only=False).astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= VOCAB):
        raise ValueError("vocab dimension token_id outside [0, VOCAB)")
    pieces = np.full(VOCAB, None, dtype=object)
    pieces[ids] = np.asarray(t.column("piece").to_pylist(), dtype=object)
    return pa.array(pieces, type=pa.string())
