"""The benchmark's four sweep workloads and the inputs each one writes.

A workload is a set of config overrides on top of the program's defaults.
The seed only moves inputs the program reads: seed 0 writes exactly the
configs listed in README.md, any other seed jitters the microphone
azimuths and the single-direction evaluation direction.  The program sees
nothing but the generated config file (and, for ``dense_spectrum``, the
generated HRTF file).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIC_AZIMUTH_DEG = (30.0, 80.0, 280.0, 330.0)
EVAL_DIRECTION_DEG = (90.0, 45.0)
DISTANCES_M = (0.15, 0.2, 0.3, 0.5, 1.0, 3.2)
FREQ_MIN_HZ, FREQ_MAX_HZ = 75.0, 10000.0
MIC_JITTER_DEG = 10.0
EVAL_JITTER_DEG = 20.0

# Shrinks every workload to a few cells while keeping its code path; the
# benchmark's own tests use it.
TINY = {"design_grid_size": 12, "freq_count": 4, "distances_m": (0.2, 3.2), "order": 8}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict = field(default_factory=dict)
    # Overrides of the analytic config whose reference set is written to an
    # HRTF file and read back with hrtf_source = file; None runs analytic.
    hrtf_file: dict | None = None

    @property
    def grid(self) -> bool:
        return self.overrides.get("eval_mode", "grid") == "grid"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_default",
            "the paper's experiment with default settings; per-direction "
            "steering and modal work dominate",
        ),
        Workload(
            "large_grid",
            "4x the directions and 2x the frequencies of paper_default; shows "
            "scaling and the memory cost of batching",
            {"design_grid_size": 960, "freq_count": 256},
        ),
        Workload(
            "dense_spectrum",
            "HRTF file with 24 directions x 512 frequencies at order 40; "
            "per-frequency work dominates and the cosine loops barely run",
            {"order": 40},
            hrtf_file={"design_grid_size": 24, "freq_count": 512, "order": 40},
        ),
        Workload(
            "single_direction",
            "paper_default scored at one direction; the only run of the "
            "single-direction branch of run_sweep",
            {"eval_mode": "single", "eval_direction_deg": EVAL_DIRECTION_DEG},
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files written for one sweep and the axes its CSV must cover."""

    config_path: Path
    distances_m: tuple[float, ...]
    frequencies_hz: np.ndarray
    grid: bool

    @property
    def cells(self) -> int:
        return len(self.distances_m) * len(self.frequencies_hz)


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(settings: dict) -> str:
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in settings.items())


def seeded_settings(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """Config keys for one workload and seed (seed 0 adds no jitter)."""
    rng = random.Random(seed)
    jitter = (lambda span: rng.uniform(-span, span)) if seed else (lambda span: 0.0)
    settings = dict(workload.overrides)
    settings["mic_azimuth_deg"] = tuple(
        round(az + jitter(MIC_JITTER_DEG), 3) for az in MIC_AZIMUTH_DEG
    )
    if "eval_direction_deg" in settings:
        theta, phi = settings["eval_direction_deg"]
        settings["eval_direction_deg"] = (
            round(theta + jitter(EVAL_JITTER_DEG), 3),
            round(phi + jitter(EVAL_JITTER_DEG), 3),
        )
    if tiny:
        settings.update(TINY)
    return settings


def write_inputs(workload: Workload, seed: int, directory: Path, tiny: bool = False) -> Inputs:
    """Write the config (and HRTF file) for one workload and seed."""
    directory.mkdir(parents=True, exist_ok=True)
    settings = seeded_settings(workload, seed, tiny)
    axis = {"freq_count": 128, "distances_m": DISTANCES_M}
    if workload.hrtf_file is not None:
        file_settings = dict(workload.hrtf_file, **(TINY if tiny else {}))
        hrtf_path = directory / "reference.hrtf"
        _write_hrtf(file_settings, hrtf_path)
        settings.update(hrtf_source="file", hrtf_path=str(hrtf_path))
        axis.update(file_settings)
    axis.update(settings)
    config_path = directory / "sweep.cfg"
    config_path.write_text(config_text(settings), encoding="utf-8")
    freqs = np.logspace(
        math.log10(FREQ_MIN_HZ), math.log10(FREQ_MAX_HZ), axis["freq_count"]
    )
    return Inputs(config_path, tuple(axis["distances_m"]), freqs, workload.grid)


def _write_hrtf(settings: dict, path: Path) -> None:
    from nfbsm.experiment import parse_config_text, reference_hrtf_set
    from nfbsm.hrtf import save_hrtf

    hset, _, _, _ = reference_hrtf_set(parse_config_text(config_text(settings)))
    save_hrtf(hset, path)
