"""Per-partition lineage records + resume-by-skip.

Reference analog: ``utils/durability.py:5-31`` — run directory, append-only
results CSV, resume by reading existing results, heartbeat. That append model
is not safe under retries (SURVEY.md §7.4), so here durability is
partition-granular and idempotent:

- one lineage JSON per input partition (= input parquet file), written only
  after the partition's processed row count equals the file's metadata row
  count (completeness proof);
- violation rows live under ``violations/part=<pid>/`` so a rerun deletes and
  rewrites exactly the incomplete partitions' output (overwrite, not append);
- global results (drift verdicts, merged sketches, uniqueness) are rebuilt
  from lineage records + a cheap projected pass, so a resumed run converges
  to the same output as an uninterrupted one.
"""

from __future__ import annotations

import base64
import glob
import json
import os
import shutil
import time
from typing import Any

# stamped into every lineage record; a resume re-validates records of any
# other version, never decoding them. 2: one t-digest per fragment (1 built
# one per Ray block); 3: binary sparse/dense HLL bytes (2 pickled dense
# registers) and the n_tok histogram as its nonzero bins
ENGINE_VERSION = 3


def part_id_for(input_path: str) -> str:
    """Stable partition id: basename stem + short full-path digest.

    The digest disambiguates fragments with the SAME basename in different
    directories (e.g. a ``/data/*/part-0.parquet`` glob) — basename-only ids
    silently merged such files' lineage and violations."""
    import hashlib

    base = os.path.basename(input_path)
    stem = base[:-8] if base.endswith(".parquet") else base
    digest = hashlib.sha1(os.path.abspath(input_path).encode()).hexdigest()[:8]
    return f"{stem}-{digest}"


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "lineage")


def violations_dir(out_dir: str, part_id: str | None = None) -> str:
    d = os.path.join(out_dir, "violations")
    return d if part_id is None else os.path.join(d, f"part={part_id}")


def lineage_path(out_dir: str, part_id: str) -> str:
    return os.path.join(lineage_dir(out_dir), f"part={part_id}.json")


def file_fingerprint(path: "str | int") -> dict[str, Any]:
    """Size and mtime of a path, or of an open file descriptor."""
    st = os.stat(path)
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}


def write_lineage(out_dir: str, part_id: str, record: dict[str, Any]) -> None:
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    p = lineage_path(out_dir, part_id)
    tmp = p + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        # json.dump(record, f) writes the same bytes through the pure-Python
        # encoder; dumps takes the C one
        f.write(json.dumps(record))
    os.replace(tmp, p)  # atomic publish


def read_lineage(out_dir: str, part_id: str) -> dict[str, Any] | None:
    p = lineage_path(out_dir, part_id)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def all_lineage(out_dir: str) -> dict[str, dict[str, Any]]:
    out = {}
    for p in sorted(glob.glob(os.path.join(lineage_dir(out_dir), "part=*.json"))):
        pid = os.path.basename(p)[len("part=") : -len(".json")]
        try:
            with open(p) as f:
                out[pid] = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue
    return out


def partition_complete(
    out_dir: str, input_path: str, config_digest: "str | None" = None
) -> bool:
    """A partition is complete iff its lineage record exists, matches the
    input file's fingerprint, proves full row coverage, and — when the
    caller supplies a ``config_digest`` — was validated under the SAME
    check configuration. Without the digest check, a rerun with different
    enabled/warn checks or allowlist would silently keep partitions whose
    verdicts were computed under the old config (mixed-severity lineage)."""
    rec = read_lineage(out_dir, part_id_for(input_path))
    if rec is None:
        return False
    return (
        rec.get("engine_version") == ENGINE_VERSION
        and rec.get("input_fingerprint") == file_fingerprint(input_path)
        and rec.get("processed_rows") == rec.get("file_rows")
        and (config_digest is None or rec.get("config_digest") == config_digest)
    )


def clean_dir(out_dir: str, part_id: str | None = None) -> str:
    d = os.path.join(out_dir, "clean")
    return d if part_id is None else os.path.join(d, f"part={part_id}")


def reset_partition(out_dir: str, part_id: str) -> None:
    """Make a partition's output as-if-never-processed (idempotent rerun)."""
    p = lineage_path(out_dir, part_id)
    if os.path.exists(p):
        os.remove(p)
    shutil.rmtree(violations_dir(out_dir, part_id), ignore_errors=True)
    shutil.rmtree(clean_dir(out_dir, part_id), ignore_errors=True)


def recorded_part_ids(out_dir: str) -> set[str]:
    """Every partition id with ANY on-disk state (lineage record, violation
    rows or clean rows) — including half-written state from a killed run
    that never produced a lineage record."""
    ids: set[str] = set()
    for sub, strip_json in (("lineage", True), ("violations", False), ("clean", False)):
        for p in glob.glob(os.path.join(out_dir, sub, "part=*")):
            pid = os.path.basename(p)[len("part=") :]
            if strip_json and pid.endswith(".json"):
                pid = pid[: -len(".json")]
            ids.add(pid)
    return ids


def gc_stale_partitions(out_dir: str, input_files: list[str]) -> list[str]:
    """Remove lineage / violation / clean state for partitions whose input
    fragment is not part of THIS run's corpus.

    Resume doubles as incremental re-validation (``partition_complete``
    fingerprints each input), but a fragment REMOVED or RENAMED between runs
    would otherwise leave ghost state behind: ``_assemble_report`` ignores
    it (it iterates the current file set), yet ``report``/``cmd_report`` and
    anything globbing ``violations/`` read the out_dir as truth and would
    double-count rows and resurface violations that no longer exist in the
    corpus. Returns the removed partition ids (sorted)."""
    expected = {part_id_for(f) for f in input_files}
    stale = sorted(recorded_part_ids(out_dir) - expected)
    for pid in stale:
        reset_partition(out_dir, pid)
    return stale


def run_success_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_RUN_SUCCESS.json")


def write_run_record(out_dir: str, record: dict[str, Any]) -> None:
    tmp = run_success_path(out_dir) + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(json.dumps(record))
    os.replace(tmp, run_success_path(out_dir))


def clear_run_record(out_dir: str) -> None:
    try:
        os.remove(run_success_path(out_dir))
    except FileNotFoundError:
        pass


def b64(b: bytes) -> str:
    return base64.b64encode(b).decode("ascii")


def unb64(s: str) -> bytes:
    return base64.b64decode(s.encode("ascii"))


def heartbeat(out_dir: str) -> None:
    """Reference analog: durability.py:28-31."""
    with open(os.path.join(out_dir, "_heartbeat"), "w") as f:
        f.write(str(time.time()))
