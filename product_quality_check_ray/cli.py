"""Job entry point: ``python -m product_quality_check_ray ...``.

Designed for ``ray job submit -- python -m product_quality_check_ray
validate --input <dir> --out <dir> [--config cfg.json]`` on a cluster; in
the sandbox it runs against a local Ray. The config file (JSON) carries the
reference's parameter surface (allowlist dimension rows with their per-source
caps, enabled and warn checks, schema repair, uniqueness, wave sizing) — the
analog of its sliders/dropdowns (``app.py:453-532``) as declarative job
config; an unknown key is an error.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


# every key ``validate --config`` reads; any other key fails the job
_VALIDATE_CONFIG_KEYS = frozenset(
    {"allowlist", "wave_files", "uniqueness", "enabled_checks", "warn_checks", "schema_repair"}
)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
        unknown = sorted(set(cfg) - _VALIDATE_CONFIG_KEYS)
        if unknown:
            raise ValueError(
                f"unknown validate config keys {unknown} in {args.config}; "
                f"known keys: {sorted(_VALIDATE_CONFIG_KEYS)}"
            )
    _init_ray(args.num_cpus)
    from .pipelines.validate import run_validation
    from .sources.dimensions import load_reference_histograms

    # load (and validate) the custom drift reference BEFORE any work
    ref_hists = load_reference_histograms(args.ref_hist) if args.ref_hist else None

    if args.preaudit:
        # fail fast on unreadable shards and shard-level schema deviance
        # BEFORE paying for the row-level pass — footers only, seconds at
        # any corpus size
        import os as _os

        from .pipelines.tokens import probe_unreadable, seq_shard_schema_audit
        from .pipelines.validate import input_fragments

        unreadable = probe_unreadable(input_fragments(args.input))
        if unreadable:
            print(
                json.dumps(
                    {
                        "preaudit_failed": True,
                        "unreadable_fragments": [
                            [_os.path.basename(p), err[:200]]
                            for p, err in unreadable[:20]
                        ],
                        "n_unreadable": len(unreadable),
                    }
                )
            )
            return 2

        schema = seq_shard_schema_audit(args.input)
        sigs = schema.column("schema_sig").to_pylist()
        counts: dict[str, int] = {}
        for s in sigs:
            counts[s] = counts.get(s, 0) + 1
        majority = max(counts, key=lambda k: (counts[k], k)) if counts else None
        deviant = sorted(
            f
            for f, s in zip(schema.column("fragment").to_pylist(), sigs)
            if s != majority
        )
        if deviant:
            print(
                json.dumps(
                    {
                        "preaudit_failed": True,
                        "distinct_schemas": len(counts),
                        "schema_deviant_fragments": deviant[:20],
                    }
                )
            )
            return 2

    from .pipelines.validate import FailFastExceeded

    try:
        rep = run_validation(
            args.input,
            args.out,
            allowlist_rows=cfg.get("allowlist"),
            resume=not args.no_resume,
            wave_files=cfg.get("wave_files", 128),
            write_violations=not args.no_violations,
            uniqueness=cfg.get("uniqueness", True),
            enabled_checks=cfg.get("enabled_checks"),
            warn_checks=(
                # strip whitespace / drop empty tokens so
                # `--warn-checks "a, b"` or a trailing comma parse cleanly
                [s.strip() for s in args.warn_checks.split(",") if s.strip()]
                if args.warn_checks
                else cfg.get("warn_checks")
            ),
            schema_repair=bool(cfg.get("schema_repair", False)),
            write_clean=args.write_clean,
            prescreen=args.prescreen,
            fail_fast_violations=args.fail_fast,
            reference_hists=ref_hists,
        )
    except FailFastExceeded as e:
        # exit 4 = aborted by budget, NOT a crash: completed partitions'
        # lineage is intact and a rerun without --fail-fast resumes there
        print(
            json.dumps(
                {
                    "fail_fast": True,
                    "viol_rows": e.viol_rows,
                    "budget": e.budget,
                    "partitions_done": e.partitions_done,
                    "out_dir": args.out,
                }
            )
        )
        return 4
    if args.export_hist:
        # persist this run's OBSERVED per-source histograms as a reference
        # dimension: the next run's --ref-hist drifts against THIS corpus
        from .sources.dimensions import save_reference_histograms

        save_reference_histograms(args.export_hist, rep.observed_hists)
    summary = {
        "rows": rep.total_rows,
        "check_counts": rep.check_counts(),
        "drift": {s: v["drifted"] for s, v in rep.drift.items()},
        "partitions": len(rep.partitions),
        "failed_partitions": sorted(
            p for p, v in rep.partitions.items() if not v["pass"]
        )[:20],
        "out_dir": args.out,
    }
    print(json.dumps(summary))
    # exit 0 = corpus clean; 2 = validation findings (CI/job gating);
    # crashes propagate as nonzero from Python itself
    return 0 if not summary["failed_partitions"] else 2


def cmd_prep(args: argparse.Namespace) -> int:
    """Training-sequence preparation capstone over a sequences corpus dir
    (any directory of ``frag-*.parquet`` in the north-star shape): validity
    gate → benchmark-holdout exclusion → exact dedup → decontamination →
    greedy pack plan, written as a resumable shard-partitioned sink."""
    _init_ray(args.num_cpus)
    from .pipelines.tokens import prepare_training_sequences

    augment = {"on": True, "off": False, "auto": None}[args.fixture_augment]
    ds = prepare_training_sequences(
        args.input,
        budget=args.budget,
        n_shards=args.shards,
        out_dir=args.out,
        augment=augment,
    )
    n = ds.count()
    packs = None
    if n:
        # pack ids are dense 0..max within each shard, so the pack count is
        # Σ_shard (max pack_id + 1) — per-batch (shard, max) partials only,
        # never a driver pull of the plan rows
        import pandas as pd

        def partial(t):
            df = t.select(["shard", "pack_id"]).to_pandas()
            return pd.DataFrame(
                df.groupby("shard")["pack_id"].max()
            ).reset_index()

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        packs = int((parts.groupby("shard")["pack_id"].max() + 1).sum())
    print(
        json.dumps(
            {"rows_packed": n, "packs": packs, "budget": args.budget, "out": args.out}
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Read back a run's verdicts from its output directory WITHOUT
    re-validating (and without Ray): per-partition lineage records + the
    run-success record. The operational complement of resume — a monitor,
    CI step or human can ask "where is this run, what failed" at any time,
    including while the job is still writing or after it was killed.

    Exit codes: 0 = run complete and clean; 2 = violations recorded;
    3 = run record absent (in progress / killed before completion).
    """
    import os

    from .state import lineage as lin

    recs = lin.all_lineage(args.out)
    run = None
    p = lin.run_success_path(args.out)
    if os.path.exists(p):
        try:
            with open(p) as f:
                run = json.load(f)
        except (json.JSONDecodeError, OSError):
            run = None
    parts = {
        pid: {
            "input_path": rec.get("input_path"),
            "rows": rec.get("processed_rows"),
            "viol_rows": rec.get("viol_rows"),
            "pass": rec.get("viol_rows") == 0,
            "wall_s": rec.get("wall_s"),
        }
        for pid, rec in recs.items()
    }
    failed = sorted(pid for pid, v in parts.items() if not v["pass"])
    if args.compare:
        # verdict diff between two runs' lineage (same corpus, different
        # run: a code/config change, or before/after a corpus fix): which
        # partitions regressed (pass→fail), were fixed (fail→pass), or
        # changed violation counts. Partition ids are derived from input
        # paths, so two runs over the same corpus line up by id. No Ray,
        # no re-validation; exit 0 = identical verdicts, 2 = any drift.
        recs_b = lin.all_lineage(args.compare)
        parts_b = {
            pid: {
                "viol_rows": rec.get("viol_rows"),
                "rows": rec.get("processed_rows"),
            }
            for pid, rec in recs_b.items()
        }
        only_a = sorted(set(parts) - set(parts_b))
        only_b = sorted(set(parts_b) - set(parts))
        shared_all = sorted(set(parts) & set(parts_b))
        # a lineage record with viol_rows=None (partially-written / legacy)
        # has NO verdict: classifying it as regressed/fixed by `!= 0` would
        # misreport an incomplete partition — report it separately instead
        unknown = [
            p for p in shared_all
            if parts[p]["viol_rows"] is None or parts_b[p]["viol_rows"] is None
        ]
        shared = [p for p in shared_all if p not in set(unknown)]
        regressed = [
            p for p in shared
            if parts[p]["viol_rows"] == 0 and parts_b[p]["viol_rows"] != 0
        ]
        fixed = [
            p for p in shared
            if parts[p]["viol_rows"] != 0 and parts_b[p]["viol_rows"] == 0
        ]
        changed = [
            {
                "partition": p,
                "viol_rows_a": parts[p]["viol_rows"],
                "viol_rows_b": parts_b[p]["viol_rows"],
                "rows_a": parts[p]["rows"],
                "rows_b": parts_b[p]["rows"],
            }
            for p in shared
            if parts[p]["viol_rows"] != parts_b[p]["viol_rows"]
            or parts[p]["rows"] != parts_b[p]["rows"]
        ]
        identical = not (only_a or only_b or changed or unknown)
        print(
            json.dumps(
                {
                    "out_a": args.out,
                    "out_b": args.compare,
                    "identical_verdicts": identical,
                    "partitions_a": len(parts),
                    "partitions_b": len(parts_b),
                    "only_in_a": only_a[:20],
                    "only_in_b": only_b[:20],
                    "regressed": regressed[:20],
                    "fixed": fixed[:20],
                    "n_changed": len(changed),
                    "changed": changed[:20],
                    "unknown_verdict": unknown[:20],
                    "n_unknown_verdict": len(unknown),
                }
            )
        )
        return 0 if identical else 2
    summary = {
        "out_dir": args.out,
        "run_complete": run is not None,
        "partitions_recorded": len(parts),
        "rows": sum(v["rows"] or 0 for v in parts.values()),
        "viol_rows": sum(v["viol_rows"] or 0 for v in parts.values()),
        "failed_partitions": failed[:20],
        "n_failed_partitions": len(failed),
        "run": run,
    }
    if args.partitions:
        summary["partitions"] = parts
    if args.sample:
        # example violation rows PER CHECK straight from the sink parquet
        # (pyarrow only, no Ray): the diagnosis a human asks for first —
        # "show me a few rows that failed X". Token arrays are elided to
        # their length; up to N examples per check name.
        import glob as _glob

        import pyarrow.parquet as _pq

        from .checks.row_checks import ROW_CHECK_NAMES

        per_check: dict[str, list] = {}
        for f in sorted(
            _glob.glob(os.path.join(lin.violations_dir(args.out), "part=*", "*.parquet"))
        ):
            t = _pq.read_table(
                f, columns=["doc_id", "n_tok", "source", "checks_failed"]
            )
            for r in t.to_pylist():
                for name in r["checks_failed"]:
                    ex = per_check.setdefault(name, [])
                    if len(ex) < args.sample:
                        ex.append(
                            {
                                "doc_id": r["doc_id"],
                                "n_tok": r["n_tok"],
                                "source": r["source"],
                                "checks_failed": r["checks_failed"],
                            }
                        )
            # stop reading sink files once every builtin check already has
            # its N examples (a check that never appears can't be saturated,
            # so a corpus missing some violation class still reads all files)
            if set(per_check) >= set(ROW_CHECK_NAMES) and all(
                len(v) >= args.sample for v in per_check.values()
            ):
                break
        summary["violation_samples"] = per_check
    print(json.dumps(summary))
    if run is None:
        return 3
    return 2 if failed else 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Shard-level pre-validation audit over a sequences corpus dir: footer
    schema fingerprints + per-(fragment, source) length stats. Seconds at
    any corpus size (footers + two thin columns); exit 2 when any shard
    deviates — run this BEFORE paying for row-level validation."""
    import os

    _init_ray(args.num_cpus)
    from .datagen import resolve_sequences
    from .pipelines.tokens import (
        probe_unreadable,
        seq_corpus_manifest,
        seq_rowgroup_audit,
        seq_shard_schema_audit,
        seq_keyrange_audit,
        seq_shard_stats,
        seq_stats_prescreen,
    )

    # unreadable shards (truncated upload, zero bytes, garbage) fail HERE
    # with their names — every later audit (and DuckDB, and any reader)
    # would otherwise die mid-task on the first bad footer
    unreadable = probe_unreadable(resolve_sequences(args.input))
    if unreadable:
        print(
            json.dumps(
                {
                    "unreadable_fragments": [
                        [os.path.basename(p), err[:200]] for p, err in unreadable[:20]
                    ],
                    "n_unreadable": len(unreadable),
                }
            )
        )
        # --gate distinguishes unreadable shards (3) from content findings
        # (2) so ingest automation can retry the upload vs reject the batch
        return 3 if getattr(args, "gate", False) else 2

    schema = seq_shard_schema_audit(args.input)
    stats = seq_shard_stats(args.input)
    rg = seq_rowgroup_audit(args.input)
    pre = seq_stats_prescreen(args.input)
    kr = seq_keyrange_audit(args.input)
    sigs = schema.column("schema_sig").to_pylist()
    sig_counts: dict[str, int] = {}
    for s in sigs:
        sig_counts[s] = sig_counts.get(s, 0) + 1
    majority = max(sig_counts, key=lambda k: (sig_counts[k], k)) if sig_counts else None
    deviant = sorted(
        f
        for f, s in zip(schema.column("fragment").to_pylist(), sigs)
        if s != majority
    )
    outliers = sorted(
        {
            (f, s or "")
            for f, s, o in zip(
                stats.column("fragment").to_pylist(),
                stats.column("source").to_pylist(),
                stats.column("length_outlier").to_pylist(),
            )
            if o
        }
    )
    oversized = sorted(
        f
        for f, orow, obyte in zip(
            rg.column("fragment").to_pylist(),
            rg.column("oversized_rows").to_pylist(),
            rg.column("oversized_bytes").to_pylist(),
        )
        if orow or obyte
    )
    summary = {
        "fragments": schema.num_rows,
        "total_rows": sum(schema.column("num_rows").to_pylist()),
        "distinct_schemas": len(sig_counts),
        "schema_deviant_fragments": deviant[:20],
        "length_outlier_groups": [list(t) for t in outliers[:20]],
        "n_length_outliers": len(outliers),
        "oversized_rowgroup_fragments": oversized[:20],
        "n_oversized_rowgroups": len(oversized),
        # footer-stat check proofs (informational — never part of the exit
        # gate): how many row checks the downstream validation run could
        # skip per fragment without reading a data page
        "checks_proven_by_stats": {
            name: int(
                sum(1 for v in pre.column(f"prove_{name}").to_pylist() if v)
            )
            for name in (
                "null_doc_id", "null_tokens", "ntok_mismatch", "token_oov",
                "token_neg", "bad_source", "ntok_range",
            )
        },
        # fragments where every footer-provable check is proven — a
        # downstream row scan there only needs the n_tok==len(tokens)
        # pairing (the one check no per-column stat can see)
        "fragments_proven_except_mismatch": int(
            sum(1 for v in pre.column("n_proven").to_pylist() if v >= 6)
        ),
        # TRUE ⇒ the uniqueness pass runs shuffle-free (see
        # dupfinder.find_duplicates range_pruning): all fragment doc_id
        # ranges are footer-known and pairwise disjoint
        "id_ranges_disjoint": bool(
            kr.num_rows == 0
            or (
                all(kr.column("stats_known").to_pylist())
                and not any(kr.column("overlaps_other").to_pylist())
            )
        ),
    }
    if args.sortedness:
        # intra-fragment doc_id order scan (projected one-column read —
        # opt-in): with the footer-range disjointness bit above this
        # certifies a globally id-sorted corpus, the layout that makes the
        # uniqueness / diff / resolve-back passes shuffle-free.
        # Informational — never part of the exit gate (an unsorted corpus
        # is a slower corpus, not a broken one).
        from .pipelines.tokens import seq_sortedness_audit

        so = seq_sortedness_audit(args.input)
        unsorted = sorted(
            f
            for f, ok in zip(
                so.column("fragment").to_pylist(),
                so.column("sorted_asc").to_pylist(),
            )
            if not ok
        )
        summary["unsorted_fragments"] = unsorted[:20]
        summary["n_unsorted_fragments"] = len(unsorted)
        summary["corpus_id_sorted"] = bool(
            summary["id_ranges_disjoint"] and not unsorted
        )
    if args.sample_probe:
        # sampled row-level health probe (reads the sampled rows' payloads —
        # opt-in): per-source ESTIMATED violation rates from the
        # deterministic ~15.6% content-keyed sample, the row-level
        # complement of the footer proofs above (which prove cleanliness
        # but cannot estimate violation rates). Informational — never part
        # of the exit gate (it is an estimate).
        from .pipelines.seq_queries import seq_sampled_check_counts

        probe = seq_sampled_check_counts(args.input)
        summary["sample_probe"] = {
            (s if s is not None else "~null~"): {
                "sampled_rows": int(r),
                "viol_rows": int(v),
                "est_viol_ppm": int(round(v * 1_000_000 / r)) if r else 0,
            }
            for s, r, v in zip(
                probe.column("source").to_pylist(),
                probe.column("rows").to_pylist(),
                probe.column("viol_rows").to_pylist(),
            )
        }
    if args.baseline:
        # manifest-level corpus comparison (full read of THIS corpus, tiny
        # read of the saved baseline): per-fragment order-insensitive
        # content checksums decide added/removed/changed fragments without
        # a row-level diff — the cheap "did the copy/migration land intact"
        # gate. Exit stays 2 via changed_vs_baseline below.
        import pyarrow.parquet as _pq

        base = _pq.read_table(args.baseline)
        cur = seq_corpus_manifest(args.input)

        def _m(t):
            return {
                f: (r, k, c)
                for f, r, k, c in zip(
                    t.column("fragment").to_pylist(),
                    t.column("n_rows").to_pylist(),
                    t.column("n_tokens").to_pylist(),
                    t.column("content_sum").to_pylist(),
                )
            }

        mb, mc = _m(base), _m(cur)
        added = sorted(set(mc) - set(mb))
        removed = sorted(set(mb) - set(mc))
        changed = sorted(f for f in set(mb) & set(mc) if mb[f] != mc[f])
        summary["baseline"] = {
            "path": args.baseline,
            "fragments_baseline": len(mb),
            "fragments_now": len(mc),
            "added": added[:20],
            "removed": removed[:20],
            "changed": changed[:20],
            "n_added": len(added),
            "n_removed": len(removed),
            "n_changed": len(changed),
            "identical": not (added or removed or changed),
        }
    if args.manifest_out:
        # content-checksum manifest (full read — opt-in): diffable against a
        # previous run's manifest to audit a copy/migration cheaply
        import pyarrow.parquet as _pq

        man = seq_corpus_manifest(args.input)
        os.makedirs(os.path.dirname(args.manifest_out) or ".", exist_ok=True)
        _pq.write_table(man, args.manifest_out)
        summary["manifest_out"] = args.manifest_out
        summary["n_twin_fragments"] = int(
            sum(1 for n in man.column("n_twin_fragments").to_pylist() if n > 1)
        )
    baseline_drifted = bool(
        args.baseline and not summary["baseline"]["identical"]
    )
    content_bad = bool(deviant or outliers or oversized or baseline_drifted)
    if getattr(args, "gate", False):
        # ingest gate (see the --gate help for the full contract): content
        # findings keep the classic code 2; a clean-content corpus whose
        # fragment key ranges are unknown/overlapping (multi-writer
        # collision — the reference's wrong-file detection at corpus
        # scale, app.py:478-481) is rejected with 5, because resolve-back
        # and shuffle-free uniqueness assume writer-disjoint ranges
        layout_ok = bool(summary["id_ranges_disjoint"])
        rc = 2 if content_bad else (0 if layout_ok else 5)
        summary["gate"] = {
            "exit": rc,
            "content_ok": not content_bad,
            "layout_ok": layout_ok,
            "baseline_checked": bool(args.baseline),
        }
        print(json.dumps(summary))
        return rc
    print(json.dumps(summary))
    return 0 if not content_bad else 2


def cmd_locate(args: argparse.Namespace) -> int:
    """Footer-pruned doc_id point lookup over a corpus dir: which fragments
    hold the given ids, and how many rows each. On an id-sorted /
    id-partitioned corpus only O(hit) fragments are opened (footer range
    math); unsorted corpora degrade to a projected doc_id-only scan.
    Exit 0 if every requested id was found somewhere, 2 otherwise."""
    _init_ray(args.num_cpus)
    from .pipelines.tokens import seq_locate_ids

    ids = [s for s in (args.ids.split(",") if args.ids else []) if s]
    if args.ids_file:
        with open(args.ids_file) as f:
            ids.extend(s.strip() for s in f if s.strip())
    if not ids:
        print(json.dumps({"error": "no ids given (--ids or --ids-file)"}))
        return 1
    t = seq_locate_ids(args.input, targets=ids)
    found = set(t.column("doc_id").to_pylist())
    missing = sorted(set(ids) - found)
    print(
        json.dumps(
            {
                "requested": len(set(ids)),
                "found": len(found),
                "missing": missing[:50],
                "locations": t.to_pylist(),
            }
        )
    )
    return 0 if not missing else 2


def cmd_ingest(args: argparse.Namespace) -> int:
    """Incremental-ingest content gate: report (and optionally write) the
    new-batch rows whose token content is absent from the base corpus.
    Exit 0 with admitted rows; exit 2 when NOTHING is new (the automation
    tripwire: the whole batch is already ingested — same convention as
    ``diff``'s exit-2-on-difference).  ``--out`` writes the admitted FULL
    rows (original schema) as parquet via the streaming payload path."""
    import glob as g
    import os

    _init_ray(args.num_cpus)
    from .pipelines.tokens import seq_incremental_dedup_files

    fb = sorted(g.glob(os.path.join(args.base, "frag-*.parquet")))
    fn = sorted(g.glob(os.path.join(args.new, "frag-*.parquet")))
    if not fb or not fn:
        print(json.dumps({"error": "no frag-*.parquet in --base or --new"}))
        return 1
    import ray.data as rd

    total_new = rd.read_parquet(fn).count()
    if args.out:
        ds = seq_incremental_dedup_files(fb, fn, payload=True)
        os.makedirs(args.out, exist_ok=True)
        ds = ds.materialize()
        admitted = ds.count()
        if admitted:
            ds.write_parquet(args.out)
    else:
        admitted = seq_incremental_dedup_files(fb, fn).num_rows
    dups = total_new - admitted
    print(
        json.dumps(
            {
                "total_new_rows": total_new,
                "admitted": admitted,
                "duplicates": dups,
                "dup_rate_ppm": (dups * 1_000_000) // total_new if total_new else 0,
                "out": args.out,
            }
        )
    )
    return 0 if admitted else 2


def cmd_diff(args: argparse.Namespace) -> int:
    """Migration diff between two corpus dirs: which doc_ids were added,
    removed, or changed (content compared as per-id bags of md5s). Equal
    corpora read only 24 B/row through the reduce and recover nothing;
    exit 2 when the corpora differ."""
    import glob as g
    import os

    _init_ray(args.num_cpus)
    from .pipelines.tokens import seq_corpus_diff_files

    fa = sorted(g.glob(os.path.join(args.a, "frag-*.parquet")))
    fb = sorted(g.glob(os.path.join(args.b, "frag-*.parquet")))
    if not fa or not fb:
        print(json.dumps({"error": "no frag-*.parquet in --a or --b"}))
        return 1
    diff = seq_corpus_diff_files(fa, fb)
    counts = {"added": 0, "removed": 0, "changed": 0}
    for s in diff.column("status").to_pylist():
        counts[s] += 1
    if args.out:
        import pyarrow.parquet as pq

        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        pq.write_table(diff, args.out)
    summary = {
        "identical": diff.num_rows == 0,
        "n_diff_ids": diff.num_rows,
        **counts,
        "sample": diff.slice(0, 10).to_pylist(),
        "out": args.out,
    }
    if args.drift:
        # distribution complement of the identity diff: did the migration
        # shift per-source length distributions (exact integer KS, ppm)
        from .pipelines.tokens import seq_corpus_drift_files

        drift = seq_corpus_drift_files(fa, fb)
        summary["drift"] = drift.to_pylist()
        summary["n_drifted_sources"] = int(
            sum(1 for v in drift.column("drifted").to_pylist() if v)
        )
    print(json.dumps(summary))
    return 0 if diff.num_rows == 0 else 2


def cmd_accept(args: argparse.Namespace) -> int:
    """The full multi-writer upload-acceptance loop in ONE invocation
    (VERDICT r4 item 6 — the reference's "upload → check → results" cycle,
    app.py:453-532, at corpus scale):

        audit --gate (incoming)  →  ingest (content gate vs base)
        →  validate (admitted rows)  →  manifest (base ∪ admitted)

    Each stage prints its own JSON line; the LAST line is the accept
    summary. Admitted rows land in ``<out>/admitted/frag-adm-*.parquet``,
    validation artifacts in ``<out>/validation/``, the combined
    content-checksum manifest at ``<out>/manifest.parquet``. ``--append``
    additionally MOVES the validated admitted fragments into the base
    corpus dir (collision-safe names) — off by default so a dry run never
    mutates the corpus.

    Exit contract (documented, pinned by e2e test):
      0 = batch accepted (admitted rows validated clean, manifest written)
      3 = unreadable incoming shards (retry the upload)
      2 = audit content findings (schema deviance / length outliers /
          oversized row groups — reject the batch)
      5 = incoming key-range layout violation (multi-writer collision)
      7 = nothing new (every incoming row's content already in base)
      6 = admitted rows failed row-level validation (reject)
      1 = usage errors (empty dirs)
    """
    import os

    _init_ray(args.num_cpus)
    rc = cmd_audit(
        argparse.Namespace(
            input=args.incoming,
            num_cpus=None,
            sortedness=False,
            sample_probe=False,
            baseline=None,
            manifest_out=None,
            gate=True,
        )
    )
    if rc != 0:
        print(json.dumps({"accept": "rejected", "stage": "audit", "exit": rc}))
        return rc
    admitted_dir = os.path.join(args.out, "admitted")
    rc = cmd_ingest(
        argparse.Namespace(
            base=args.base, new=args.incoming, out=admitted_dir, num_cpus=None
        )
    )
    if rc == 2:
        print(json.dumps({"accept": "noop", "stage": "ingest", "exit": 7}))
        return 7
    if rc != 0:
        print(json.dumps({"accept": "rejected", "stage": "ingest", "exit": rc}))
        return rc
    # normalize admitted fragment names to the frag-*.parquet convention
    # every downstream reader (resolve_sequences, manifest) requires
    files = sorted(
        f for f in os.listdir(admitted_dir) if f.endswith(".parquet")
    )
    for i, f in enumerate(files):
        if not f.startswith("frag-"):
            os.replace(
                os.path.join(admitted_dir, f),
                os.path.join(admitted_dir, f"frag-adm-{i:05d}.parquet"),
            )
    rc = cmd_validate(
        argparse.Namespace(
            input=admitted_dir,
            out=os.path.join(args.out, "validation"),
            config=None,
            num_cpus=None,
            preaudit=False,
            no_resume=False,
            no_violations=False,
            warn_checks=None,
            write_clean=False,
            prescreen=False,
            fail_fast=None,
            ref_hist=None,
            export_hist=None,
        )
    )
    if rc != 0:
        print(json.dumps({"accept": "rejected", "stage": "validate", "exit": 6}))
        return 6
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from .pipelines.tokens import seq_corpus_manifest

    man = pa.concat_tables(
        [seq_corpus_manifest(args.base), seq_corpus_manifest(admitted_dir)]
    ).sort_by("fragment")
    man_path = os.path.join(args.out, "manifest.parquet")
    _pq.write_table(man, man_path)
    appended = 0
    if args.append:
        existing = set(os.listdir(args.base))
        k = 0
        for f in sorted(os.listdir(admitted_dir)):
            if not f.endswith(".parquet"):
                continue
            dest = f
            while dest in existing:
                dest = f"frag-adm{k:07d}.parquet"
                k += 1
            os.replace(
                os.path.join(admitted_dir, f), os.path.join(args.base, dest)
            )
            existing.add(dest)
            appended += 1
    print(
        json.dumps(
            {
                "accept": "accepted",
                "manifest": man_path,
                "manifest_fragments": man.num_rows,
                "appended": appended,
                "exit": 0,
            }
        )
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .datagen import write_sequences

    path = write_sequences(
        args.out, args.rows, seed=args.seed, num_fragments=args.fragments
    )
    print(json.dumps({"out": path, "rows": args.rows, "fragments": args.fragments}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="product_quality_check_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="run the validation suite over a parquet corpus")
    v.add_argument("--input", required=True, help="dir or glob of parquet fragments")
    v.add_argument("--out", required=True, help="output/checkpoint directory")
    v.add_argument("--config", help="JSON job config (allowlist, enabled_checks, ...)")
    v.add_argument(
        "--ref-hist",
        default=None,
        help="drift against this saved reference-histogram parquet instead "
        "of the built-in dimension (pair with a previous run's "
        "--export-hist to drift v2 against v1's observed distribution)",
    )
    v.add_argument(
        "--export-hist",
        default=None,
        help="write this run's observed per-source n_tok histograms as a "
        "reference-dimension parquet (the next run's --ref-hist)",
    )
    v.add_argument(
        "--warn-checks",
        default=None,
        help="comma-separated row-check names demoted to WARN severity: "
        "counted and annotated but never failing a row/partition "
        "(config key `warn_checks`; this flag wins)",
    )
    v.add_argument("--num-cpus", type=int, default=None)
    v.add_argument("--no-resume", action="store_true")
    v.add_argument("--no-violations", action="store_true")
    v.add_argument(
        "--write-clean",
        action="store_true",
        help="also write the validated (all-checks-passing) corpus under out/clean/",
    )
    v.add_argument(
        "--preaudit",
        action="store_true",
        help="fail fast (exit 2) on shard-level schema deviance before the row-level pass",
    )
    v.add_argument(
        "--prescreen",
        action="store_true",
        help="skip row checks proven clean per fragment by parquet footer "
        "statistics (sound: output is identical to a full run)",
    )
    v.add_argument(
        "--fail-fast",
        type=int,
        default=None,
        metavar="N",
        help="abort (exit 4) once recorded row violations exceed N; "
        "completed partitions keep their lineage so a rerun resumes",
    )
    v.set_defaults(fn=cmd_validate)

    pr = sub.add_parser(
        "prep", help="prepare training sequences (clean -> dedup -> decontaminate -> pack)"
    )
    pr.add_argument("--input", required=True, help="sequences corpus dir (frag-*.parquet)")
    pr.add_argument("--out", required=True, help="resumable plan sink directory")
    pr.add_argument("--budget", type=int, default=None, help="tokens per packed example")
    pr.add_argument("--shards", type=int, default=None)
    pr.add_argument("--num-cpus", type=int, default=None)
    pr.add_argument(
        "--fixture-augment",
        choices=["auto", "on", "off"],
        default="auto",
        help="apply the deterministic fixture augmentations (canary splices, "
        "benchmark-holdout slice). auto = only on fixture-provenance corpora "
        "(sf tags / generator output with _injections.json); user corpora "
        "run plain unless 'on' is forced",
    )
    pr.set_defaults(fn=cmd_prep)

    a = sub.add_parser(
        "audit",
        help="shard-level pre-validation audit (schema fingerprints + length stats)",
    )
    a.add_argument("--input", required=True, help="directory of frag-*.parquet shards")
    a.add_argument("--num-cpus", type=int, default=None)
    a.add_argument(
        "--manifest-out",
        default=None,
        help="also write the per-fragment content-checksum manifest (parquet; "
        "full read) for later `diff`-style corpus-equality audits",
    )
    a.add_argument(
        "--sample-probe",
        action="store_true",
        help="also run the deterministic ~15.6%% content-keyed sampled row "
        "check probe and report per-source estimated violation rates "
        "(informational; reads sampled payloads)",
    )
    a.add_argument(
        "--baseline",
        default=None,
        help="a previously saved --manifest-out parquet: compare per-fragment "
        "content checksums against it (added/removed/changed fragments; "
        "exit 2 on any difference) — the cheap corpus-migration gate",
    )
    a.add_argument(
        "--sortedness",
        action="store_true",
        help="also scan doc_id physical order per fragment (projected "
        "one-column read) and report unsorted fragments plus the decisive "
        "corpus_id_sorted bit (ranges disjoint AND every fragment sorted)",
    )
    a.add_argument(
        "--gate",
        action="store_true",
        help="multi-writer ingest gate: one invocation composes the "
        "readability, schema-uniformity, length-outlier, rowgroup-size, "
        "key-range-disjointness and (with --baseline) manifest checks into "
        "a documented exit contract — 0 = corpus accepted; 3 = unreadable "
        "shards (names reported); 2 = content findings (schema deviants / "
        "length outliers / oversized rowgroups / baseline drift); 5 = "
        "ingest-layout violation (fragment doc_id ranges unknown or "
        "overlapping — two writers emitted the same key range). Precedence "
        "3 > 2 > 5; without --gate the exit contract stays 0/2",
    )
    a.set_defaults(fn=cmd_audit)

    rp = sub.add_parser(
        "report",
        help="read back a run's verdicts from its out dir (no Ray, no re-validation)",
    )
    rp.add_argument("--out", required=True, help="a validation run's output directory")
    rp.add_argument(
        "--sample",
        type=int,
        default=0,
        help="include up to N example violation rows per check name, read "
        "straight from the violations sink (tokens elided; no Ray)",
    )
    rp.add_argument(
        "--compare",
        default=None,
        help="second run's output directory: print a per-partition verdict "
        "diff (regressed / fixed / changed counts) instead of the summary; "
        "exit 0 iff verdicts are identical",
    )
    rp.add_argument(
        "--partitions",
        action="store_true",
        help="include the full per-partition verdict map in the JSON",
    )
    rp.set_defaults(fn=cmd_report)

    d = sub.add_parser(
        "diff",
        help="migration diff of two corpus dirs (added/removed/changed doc_ids)",
    )
    d.add_argument("--a", required=True, help="baseline corpus dir (frag-*.parquet)")
    d.add_argument("--b", required=True, help="candidate corpus dir (frag-*.parquet)")
    d.add_argument("--out", default=None, help="optional parquet path for the full diff")
    d.add_argument(
        "--drift",
        action="store_true",
        help="also report per-source length-distribution drift "
        "(exact integer KS, ppm) between the two corpora",
    )
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_diff)

    ing = sub.add_parser(
        "ingest",
        help="incremental-ingest content gate: admit only new-batch rows "
        "whose token content is absent from the base corpus",
    )
    ing.add_argument("--base", required=True, help="base corpus dir (frag-*.parquet)")
    ing.add_argument("--new", required=True, help="incoming batch dir (frag-*.parquet)")
    ing.add_argument(
        "--out", default=None, help="optional dir: write admitted FULL rows as parquet"
    )
    ing.add_argument("--num-cpus", type=int, default=None)
    ing.set_defaults(fn=cmd_ingest)

    lc = sub.add_parser(
        "locate",
        help="footer-pruned doc_id point lookup: which fragments hold these ids",
    )
    lc.add_argument("--input", required=True, help="corpus dir (frag-*.parquet)")
    lc.add_argument("--ids", default=None, help="comma-separated doc_ids")
    lc.add_argument("--ids-file", default=None, help="file with one doc_id per line")
    lc.add_argument("--num-cpus", type=int, default=None)
    lc.set_defaults(fn=cmd_locate)

    ac = sub.add_parser(
        "accept",
        help="multi-writer upload acceptance: audit --gate → ingest → "
        "validate → manifest in one invocation (exit: 0 accepted, 3 "
        "unreadable, 2 content findings, 5 layout violation, 7 nothing "
        "new, 6 validation findings)",
    )
    ac.add_argument("--base", required=True, help="base corpus dir (frag-*.parquet)")
    ac.add_argument(
        "--incoming", required=True, help="incoming batch dir (frag-*.parquet)"
    )
    ac.add_argument(
        "--out", required=True, help="work dir (admitted/, validation/, manifest)"
    )
    ac.add_argument(
        "--append",
        action="store_true",
        help="after validation passes, MOVE admitted fragments into --base",
    )
    ac.add_argument("--num-cpus", type=int, default=None)
    ac.set_defaults(fn=cmd_accept)

    g = sub.add_parser("gen", help="generate a deterministic synthetic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=100_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--fragments", type=int, default=16)
    g.set_defaults(fn=cmd_gen)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
