"""The sweep against golden CSVs recorded before the sweep was batched.

Each file under ``tests/data/golden_small_<norm>_<mode>.csv`` holds the
error surface of a reduced grid (24 directions x 16 log frequencies, all
six default distances) for one evaluation mode, under the sweep's one
amplitude convention, ``normalized``: every source condition scored per
unit free-field pressure.  They were written by the per-frequency sweep
and are never re-recorded, so they pin the batched sweep to the numbers
it replaced.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from nfbsm.experiment import ExperimentConfig, emit_csv, load_csv, run_sweep

DATA_DIR = Path(__file__).parent / "data"

CASES = [("normalized", mode) for mode in ("grid", "single")]


def golden_config(mode: str) -> ExperimentConfig:
    config = ExperimentConfig(design_grid_size=24, freq_count=16)
    if mode == "single":
        config = dataclasses.replace(
            config, eval_mode="single", eval_direction_deg=(90.0, 45.0)
        )
    return config.validate()


def golden_path(norm: str, mode: str) -> Path:
    return DATA_DIR / f"golden_small_{norm}_{mode}.csv"


@pytest.mark.parametrize("norm,mode", CASES)
def test_matches_golden_csv(tmp_path, norm, mode):
    out = tmp_path / "errors.csv"
    emit_csv(run_sweep(golden_config(mode)), out)
    got, want = load_csv(out).records, load_csv(golden_path(norm, mode)).records
    assert [r[:4] for r in map(dataclasses.astuple, got)] == [
        r[:4] for r in map(dataclasses.astuple, want)
    ]
    np.testing.assert_allclose(
        [r.epsilon for r in got], [r.epsilon for r in want], rtol=1e-10, atol=0
    )
