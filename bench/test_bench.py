"""Tests of the benchmark itself: span arithmetic, the correctness gate,
and a tiny-size pass over every workload.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_self_times_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.x", 5.0, 7.0, 3),
        ("b.y", 6.0, 8.5, 3),  # overlaps b.x: covered time is a union
        ("b.z", 8.0, 9.5, 3),  # runs past its parent: clipped at 9.0
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.0, 2.0, 2.5, 1.5])
    assert sum(self_times(spans[:4])) == pytest.approx(10.0)


def tiny_run(tmp_path, name, seed=1, trace=False, reference=None):
    workload = WORKLOADS[name]
    run.SETUP_PROBES = 1
    if reference is None:
        inputs = write_inputs(workload, 0, tmp_path / "ref", tiny=True)
        run.sweep(inputs.config_path, tmp_path / "ref.csv")
        reference = gate.read_epsilons(
            tmp_path / "ref.csv", inputs.distances_m, inputs.frequencies_hz
        )
    return run.run_workload(
        workload, seed, 0.0, trace, tmp_path / "work", reference, tiny=True
    )


def test_gate_rejects_perturbed_and_truncated_csv(tmp_path):
    inputs = write_inputs(WORKLOADS["paper_default"], 0, tmp_path, tiny=True)
    csv = tmp_path / "errors.csv"
    run.sweep(inputs.config_path, csv)
    axes = inputs.distances_m, inputs.frequencies_hz
    eps = gate.read_epsilons(csv, *axes)
    assert gate.check_reference(eps, eps) == 0.0

    lines = csv.read_text().splitlines()
    fields = lines[5].split(",")
    eps_changed = float(fields[4]) * (1 + 1e-6)
    fields[4], fields[5] = repr(eps_changed), repr(10 * math.log10(eps_changed))
    bad = tmp_path / "perturbed.csv"
    bad.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    with pytest.raises(gate.GateError, match="reference"):
        gate.check_reference(gate.read_epsilons(bad, *axes), eps)

    bad.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    with pytest.raises(gate.GateError, match="rows"):
        gate.read_epsilons(bad, *axes)


def test_gate_rejects_nf_worse_than_ff():
    with pytest.raises(gate.GateError, match="epsilon_nf"):
        gate.check_nf_le_ff([0.5, 0.5, 0.5, 0.6])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_over_every_workload(tmp_path, name):
    untraced = tiny_run(tmp_path, name)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1 + run.MIN_SWEEPS
    for spec in BENCHMARK["end_to_end"]:
        assert untraced["metrics"][spec["name"]] > 0

    traced = tiny_run(tmp_path, name, trace=True)
    assert traced["correct"]
    metrics = traced["metrics"]
    assert {s["name"] for s in BENCHMARK["per_layer"]} <= metrics.keys()
    assert metrics["experiment.epsilon_max_rel_dev"] == 0.0
    assert metrics["sphmath.cos_angle_between.calls"] > 0
    assert (metrics["hrtf.load_hrtf.bytes"] > 0) == (name == "dense_spectrum")
    # Self times partition the traced run_sweep span.
    inside_sweep = [
        n for n in metrics
        if n.endswith(".self_s") and not n.startswith(("cli.", "experiment.parse_config",
                                                       "experiment.emit_csv"))
    ]
    assert sum(metrics[n] for n in inside_sweep) == pytest.approx(
        metrics["experiment.run_sweep.total_s"], rel=1e-9
    )


def test_gate_failure_is_counted(tmp_path):
    result = tiny_run(tmp_path, "paper_default", reference=[1.0] * 32)
    assert not result["correct"] and result["failed"] == 1


def test_missing_or_uncalled_function_reports_zero(monkeypatch):
    import nfbsm.field

    monkeypatch.delattr(nfbsm.field, "dvf_at_cosines")
    tracer = Tracer()
    with tracer.installed():
        pass
    metrics = tracer.metrics()
    assert metrics["field.dvf_at_cosines.calls"] == 0
    assert metrics["sphmath.cos_angle_between.calls"] == 0
    assert metrics["field.modal_coefficients.coeffs"] == 0


def test_scaler_divides_by_the_loops_around_each_call(monkeypatch):
    import speed

    loops = iter([0.2, 0.4, 0.1])  # before call 1, between calls, after call 2
    monkeypatch.setattr(speed, "loop_seconds", lambda: next(loops))
    scaler = speed.Scaler()
    assert scaler.time(lambda: 3.0) == (3.0, pytest.approx(3.0 * speed.REFERENCE_S / 0.3))
    assert scaler.time(lambda: 1.0) == (1.0, pytest.approx(speed.REFERENCE_S / 0.25))


def test_tracer_restores_the_program():
    import nfbsm.bsm
    import nfbsm.sphmath

    original = nfbsm.sphmath.cos_angle_between
    with Tracer().installed():
        assert nfbsm.bsm.cos_angle_between is not original
    assert nfbsm.bsm.cos_angle_between is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
