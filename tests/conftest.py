import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A 2k-row corrupted corpus in 8 fragments (fast; exercises everything)."""
    from product_quality_check_ray.datagen import write_sequences

    d = tmp_path_factory.mktemp("corpus") / "seq"
    return write_sequences(str(d), 2_000, num_fragments=8)


@pytest.fixture(scope="session")
def small_corpus_table(small_corpus):
    import glob

    import pyarrow.dataset as pds

    files = sorted(glob.glob(os.path.join(small_corpus, "frag-*.parquet")))
    return pds.dataset(files).to_table()


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _report_fields(rep) -> dict:
    """Every ``ValidationReport`` field, keyed by fragment name instead of
    partition id, without the per-partition wall time (a timing)."""
    parts = {
        os.path.basename(p["input_path"]): {
            k: v for k, v in p.items() if k not in ("input_path", "wall_s")
        }
        for p in rep.partitions.values()
    }
    return _plain(
        {
            "partitions": parts,
            "per_source": rep.per_source,
            "drift": rep.drift,
            "duplicates": rep.duplicates,
            "global_stats": rep.global_stats,
            "observed_hists": rep.observed_hists,
        }
    )


@pytest.fixture(scope="session")
def report_fields():
    """Compare two validation reports field by field: ``report_fields(a) ==
    report_fields(b)``."""
    return _report_fields
