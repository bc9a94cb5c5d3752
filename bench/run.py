"""Sweep benchmark for nfbsm; see README.md in this directory.

One workload, one seed (run from the repository root):

    python3 bench/run.py --workload paper_default --seed 0 --seconds 30 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every correctness check
passed.

Every workload, each in fresh processes, with a table of all metrics:

    python3 bench/run.py --all [--runs 10] [--seed 1] [--out summary.json]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_PROBES = 9
MIN_SWEEPS = 3  # the seeded inputs twice (byte-identity) and the seed-0 inputs once

# Time a fresh interpreter spends importing the package and parsing and
# validating the config; interpreter start-up itself is not included.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nfbsm.cli
from nfbsm.experiment import parse_config
parse_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


class SweepFailed(Exception):
    """``bsm-sweep run`` returned a non-zero exit code."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(config_path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(config_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def sweep(config_path, csv_path) -> float:
    """Wall seconds of one ``bsm-sweep run``, config read to CSV written."""
    from nfbsm import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(config_path), "--out", str(csv_path)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SweepFailed(f"bsm-sweep run exited with {code}")
    return elapsed


class Run:
    """Sweeps of one benchmark run, each checked by the gate."""

    def __init__(self, work_dir: Path):
        from speed import Scaler

        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0  # largest deviation from the reference seen
        self._digests = {}  # config path -> sha256 of its first CSV
        self.scaler = Scaler()
        self.walls = []  # unscaled seconds of the sweeps that passed

    def checked_sweep(self, inputs, reference=None, tracer=None):
        """Scaled seconds (see speed.py) of a sweep that passed every
        check, or None after recording a failure."""
        from gate import GateError, check_nf_le_ff, check_reference, read_epsilons

        self.attempted += 1
        csv_path = self.work_dir / "errors.csv"

        def measure():
            with tracer.installed() if tracer else contextlib.nullcontext():
                return sweep(inputs.config_path, csv_path)

        try:
            wall, seconds = self.scaler.time(measure)
            eps = read_epsilons(csv_path, inputs.distances_m, inputs.frequencies_hz)
            if inputs.grid:
                check_nf_le_ff(eps)
            if reference is not None:
                self.max_rel_dev = max(self.max_rel_dev, check_reference(eps, reference))
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            if self._digests.setdefault(inputs.config_path, digest) != digest:
                raise GateError("CSV differs from an earlier sweep of the same inputs")
            self.walls.append(wall)
            return seconds
        except Exception:  # any failure of the program counts against it
            self.failed += 1
            traceback.print_exc()
            return None


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: Path,
                 reference, tiny: bool = False) -> dict:
    """One benchmark run: set-up probes (untraced only), a tiny warm-up
    sweep, then timed sweeps for ``seconds``."""
    from spans import Tracer
    from workloads import write_inputs

    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    warm_up = write_inputs(workload, 0, work_dir / "warm-up", tiny=True)
    seed0 = write_inputs(workload, 0, work_dir / "seed0", tiny)
    seeded = write_inputs(workload, seed, work_dir / f"seed{seed}", tiny) if seed else seed0
    run = Run(work_dir)
    metrics = {}
    if not trace:
        metrics["setup_s"] = statistics.median(
            run.scaler.time(lambda: setup_seconds(seeded.config_path))[1]
            for _ in range(SETUP_PROBES)
        )
    run.checked_sweep(warm_up)  # same code path, so lazy set-up is done

    # Timed sweeps alternate the seeded inputs with the seed-0 inputs, which
    # take the same work and are the only ones the reference covers.  Traced
    # runs trace the seeded sweeps only; the untraced seed-0 sweeps give the
    # tracing overhead.  The first MIN_SWEEPS always run, later ones only
    # while a typical sweep still fits in the window.
    plain, traced = [], []  # seconds; (seconds, tracer)
    start = time.perf_counter()
    for i in itertools.count():
        inputs = seeded if i % 2 == 0 else seed0
        tracer = Tracer() if trace and i % 2 == 0 else None
        took = run.checked_sweep(inputs, reference if inputs is seed0 else None, tracer)
        if took is not None and tracer is None:
            plain.append(took)
        elif took is not None:
            traced.append((took, tracer))
        typical = statistics.median(run.walls[1:] or [0.0])
        if i + 1 >= MIN_SWEEPS and time.perf_counter() - start + typical > seconds:
            break

    correct = run.failed == 0
    if correct and not trace:
        sweep_s = statistics.median(plain)
        metrics.update(
            sweep_s=sweep_s,
            cells_per_s=seeded.cells / sweep_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        walls = run.walls[1:]  # the warm-up's is not timed
        print(
            f"{workload.name} seed {seed}: {len(plain)} sweeps of {seeded.cells} cells, "
            f"median {sweep_s:.4f} s scaled; unscaled median {statistics.median(walls):.4f} s, "
            f"fastest {min(walls):.4f} s, slowest {max(walls):.4f} s"
        )
    elif correct:
        traced.sort(key=lambda pair: pair[0])
        _, tracer = traced[(len(traced) - 1) // 2]  # the traced sweep of median length
        tracer.write(work_dir / "spans.json")
        metrics.update(tracer.metrics())
        metrics["experiment.epsilon_max_rel_dev"] = run.max_rel_dev
        metrics["trace.overhead_frac"] = (
            statistics.median(t for t, _ in traced) / statistics.median(plain) - 1.0
        )
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def record_reference(workload, work_dir: Path) -> Path:
    """Write the seed-0 reference epsilons of a workload from the current
    program.  Only for a deliberate change of the expected numbers."""
    from gate import read_epsilons, write_reference
    from workloads import write_inputs

    inputs = write_inputs(workload, 0, work_dir)
    sweep(inputs.config_path, work_dir / "errors.csv")
    eps = read_epsilons(work_dir / "errors.csv", inputs.distances_m, inputs.frequencies_hz)
    path = REFERENCE_DIR / f"{workload.name}.json.gz"
    write_reference(path, eps)
    return path


def reported(result: dict, specs: list) -> dict:
    """The result with exactly the metrics named in ``specs``, with units."""
    metrics = result["metrics"]
    if result["correct"]:
        metrics = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}
    return dict(result, metrics=metrics)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args) -> int:
    """Every workload, including those BENCHMARK.json leaves out for time:
    ``--runs`` untraced runs on consecutive seeds, then one traced run,
    each in a fresh process; prints every metric."""
    from workloads import WORKLOADS

    bench = load_benchmark()
    stages = json.loads((BENCH_DIR / "stages.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    seeds = list(range(args.seed, args.seed + args.runs))
    summary = {"machine": machine_info(), "run_seconds": seconds, "seeds": seeds,
               "workloads": {}}
    print(json.dumps(summary["machine"]))
    ok = True
    for name, workload in WORKLOADS.items():
        runs = [_child(name, seed, seconds, 0) for seed in seeds]
        traced = _child(name, seeds[0], seconds, 1)
        results = [r for r in runs + [traced] if r is not None]
        ok &= len(results) == len(runs) + 1 and all(r["correct"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results) + len(runs) + 1 - len(results)
        entry = {"failed_fraction": failed / max(attempted, 1), "attempted": attempted,
                 "end_to_end": {}, "per_layer": {}, "stages_s": {}}
        print(f"\n== {name}: {workload.why}")
        print(f"  {'failed_fraction':<44} {entry['failed_fraction']:>12.4g} "
              f"({failed} of {attempted} sweeps)")
        good = [r for r in runs if r is not None and r["correct"]]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in good]
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                "unit": m["unit"], "values": values}
            flag = "" if spread < m["bound"] / 3 else "  spread above bound/3"
            print(f"  {m['name']:<44} {med:>12.4f} {m['unit']:<6} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.3f} (bound {m['bound']}, n={len(values)}){flag}")
        if traced is not None and traced["correct"]:
            print(f"  per-layer, traced run at seed {seeds[0]}:")
            for m in bench["per_layer"]:
                value = traced["metrics"][m["name"]]["value"]
                entry["per_layer"][m["name"]] = value
                print(f"    {m['name']:<42} {value:>14.6g} {m['unit']}")
            print("  stages (summed self_s):")
            for stage, names in stages.items():
                total = sum(entry["per_layer"][n] for n in names if n.endswith(".self_s"))
                entry["stages_s"][stage] = total
                print(f"    {stage:<42} {total:>14.6g} s")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=1, help="--all: untraced runs per workload")
    parser.add_argument("--out", help="--all: write a JSON summary here")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the workload's seed-0 reference from the current program")
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads (workers inherit it): the
    # solves are 4x4, where threads only add noise on a 2-CPU machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "nfbsm" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'nfbsm'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The timed work, the set-up probes and the speed loop share one CPU,
    # so the loop measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.all:
        return run_all(args)

    from gate import load_reference
    from workloads import WORKLOADS

    bench = load_benchmark()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work_dir = WORK_DIR / f"{workload.name}-seed{args.seed}"
    if args.record_reference:
        print(f"wrote {record_reference(workload, work_dir)}")
        return 0
    result = run_workload(
        workload, args.seed, args.seconds or bench["run_seconds"], bool(args.trace),
        work_dir, load_reference(REFERENCE_DIR / f"{workload.name}.json.gz"),
    )
    specs = bench["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(reported(result, specs)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
