"""Correctness gate for the sweep CSV.

The gate reads the CSV with its own parser, so a defect in the program's
reader cannot hide a defect in its writer.  Checks, in order:

* schema: exact header, six fields a row, and exactly one row for every
  (filter, ear, distance, frequency) key in the program's documented sort
  order, with distance and frequency matching the generated axes;
* every epsilon finite and >= 0, and epsilon_db equal to 10 log10(epsilon);
* on grid workloads, epsilon_nf <= epsilon_ff on every cell: the
  near-field filter minimizes exactly the objective being scored there.
  It does not hold in single-direction mode, where design and evaluation
  use different direction sets;
* against a reference recorded from the seed code, every epsilon within
  REFERENCE_RTOL.  Reordering the floating-point sums moves epsilon by up
  to ~6e-12 relative, so the tolerance sits far above that and far below
  the 1e-6 perturbation the benchmark's tests insert.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

HEADER = "distance_m,frequency_hz,filter,ear,epsilon,epsilon_db"
FILTERS = ("ff", "nf")
EARS = ("left", "right")
KEY_RTOL = 1e-12
DB_ATOL = 1e-9
NF_LE_FF_RTOL = 1e-9
REFERENCE_RTOL = 1e-8


class GateError(Exception):
    """The program's output failed a correctness check."""


def read_epsilons(path, distances_m, frequencies_hz) -> list[float]:
    """Epsilons of a CSV in canonical key order, after the schema checks."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != HEADER:
        raise GateError("CSV header differs from the documented schema")
    keys = [
        (filt, ear, d, f)
        for filt in FILTERS
        for ear in EARS
        for d in sorted(distances_m)
        for f in sorted(frequencies_hz)
    ]
    rows = lines[1:]
    if len(rows) != len(keys):
        raise GateError(f"CSV has {len(rows)} rows, expected {len(keys)}")
    eps = []
    for lineno, (line, (filt, ear, d, f)) in enumerate(zip(rows, keys), start=2):
        fields = line.split(",")
        if len(fields) != 6:
            raise GateError(f"line {lineno}: expected 6 fields")
        try:
            row_d, row_f, e, e_db = (float(fields[i]) for i in (0, 1, 4, 5))
        except ValueError:
            raise GateError(f"line {lineno}: non-numeric field") from None
        if (fields[2], fields[3]) != (filt, ear) or not (
            math.isclose(row_d, d, rel_tol=KEY_RTOL)
            and math.isclose(row_f, f, rel_tol=KEY_RTOL)
        ):
            raise GateError(
                f"line {lineno}: key {fields[:4]} where {filt},{ear},{d!r},{f!r} belongs"
            )
        if not (math.isfinite(e) and e >= 0.0):
            raise GateError(f"line {lineno}: epsilon {e!r} is not finite and >= 0")
        expected_db = 10.0 * math.log10(e) if e > 0.0 else -math.inf
        if not (e_db == expected_db or abs(e_db - expected_db) <= DB_ATOL):
            raise GateError(f"line {lineno}: epsilon_db {e_db!r} != 10 log10(epsilon)")
        eps.append(e)
    return eps


def check_nf_le_ff(eps: list[float]) -> None:
    """Grid mode: the near-field filter never scores worse than the far-field one."""
    half = len(eps) // 2
    for i, (ff, nf) in enumerate(zip(eps[:half], eps[half:])):
        if nf > ff * (1.0 + NF_LE_FF_RTOL):
            raise GateError(f"cell {i}: epsilon_nf {nf!r} > epsilon_ff {ff!r}")


def max_rel_dev(eps: list[float], reference: list[float]) -> float:
    if len(eps) != len(reference):
        raise GateError(f"{len(eps)} epsilons, reference has {len(reference)}")
    return max(
        abs(e - r) / abs(r) if r else abs(e) for e, r in zip(eps, reference)
    )


def check_reference(eps: list[float], reference: list[float]) -> float:
    """Largest relative deviation from the reference; raises above REFERENCE_RTOL."""
    dev = max_rel_dev(eps, reference)
    if not dev <= REFERENCE_RTOL:
        raise GateError(
            f"epsilon deviates from the reference by {dev:.3g} relative "
            f"(tolerance {REFERENCE_RTOL:g})"
        )
    return dev


def write_reference(path, eps: list[float]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"rtol": REFERENCE_RTOL, "epsilon": eps}, fh)


def load_reference(path) -> list[float]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["epsilon"]
