"""Declared schemas, constants and dimension-table contents.

The fixed input schema mirrors ``BASELINE.json: input_hint``. Schema
conformance is itself check #1 (reference analog: required-column validation,
``prompts/banningredients.py:43-46``, and wrong-file detection,
``app.py:478-481``).
"""

from __future__ import annotations

import pyarrow as pa

VOCAB: int = 32_000

SEQUENCE_SCHEMA: pa.Schema = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

# Legitimate sources and their skewed sampling weights (FIXTURES.md §1:
# "web" is a deliberate hot key for the uniqueness/groupby skew path).
SOURCES: tuple[str, ...] = ("web", "books", "code", "wiki", "forums")
SOURCE_WEIGHTS: tuple[float, ...] = (0.62, 0.10, 0.12, 0.10, 0.06)

# Per-source nominal mean token length for the synthetic generator. "forums"
# is drifted (+40% mean) at generation time vs the reference histogram
# (FIXTURES.md §2 `length_drift`).
SOURCE_MEAN_NTOK: dict[str, float] = {
    "web": 180.0,
    "books": 420.0,
    "code": 300.0,
    "wiki": 220.0,
    "forums": 120.0,
}
DRIFTED_SOURCE: str = "forums"
DRIFT_MEAN_FACTOR: float = 1.4

# ``source_allowlist`` referential dimension (FIXTURES.md §3). Analog of the
# reference's banned/novel dictionary CSVs with required-column validation
# (``data/banned_restricted_ingredients.csv``; ``banningredients.py:29-67``).
# One "restricted" row exercises verdict granularity (Banned vs Restricted
# ``Type`` in the reference dictionary).
MAX_N_TOK_DEFAULT: int = 2048
SOURCE_ALLOWLIST: list[dict] = [
    {"source": "web", "status": "allowed", "max_n_tok": 2048},
    {"source": "books", "status": "allowed", "max_n_tok": 2048},
    {"source": "code", "status": "allowed", "max_n_tok": 2048},
    {"source": "wiki", "status": "allowed", "max_n_tok": 2048},
    {"source": "forums", "status": "restricted", "max_n_tok": 2048},
]

ALLOWED_SOURCES: frozenset[str] = frozenset(r["source"] for r in SOURCE_ALLOWLIST)

# Drift-test histogram binning (FIXTURES.md §4): shared edges over 0..8192.
# Width 32 (256 bins) — fine enough that a +40% mean shift on a short-sequence
# source moves mass across many bins (width 256 hides it entirely).
HIST_BIN_WIDTH: int = 32
HIST_MAX: int = 8192
HIST_NUM_BINS: int = HIST_MAX // HIST_BIN_WIDTH  # 256 bins; +1 overflow bin
