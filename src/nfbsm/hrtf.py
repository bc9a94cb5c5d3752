"""HRTF sets: analytic synthesis on the rigid sphere, near-field scaling
via the distance variation function, and a line-oriented file format.

Analytic sets place the ears directly on the sphere surface and normalize
so magnitudes approach 1 at low frequency: a point source's responses are
divided by its free-field factor e^{-ik r_s}/r_s, and the plane wave, the
source at infinity, already has unit incident field at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, FormatError, SchemaError, ValidationError
from .field import RigidSphere, dvf_at_cosines, free_field_factor, pressure_at_cosines
from .sphmath import Direction, cosine_matrix


@dataclass(frozen=True)
class EarGeometry:
    """Left/right ear positions on the sphere surface."""

    left: Direction = field(default_factory=lambda: Direction.from_degrees(90.0, 100.0))
    right: Direction = field(default_factory=lambda: Direction.from_degrees(90.0, 260.0))

    def directions(self) -> tuple[Direction, Direction]:
        return (self.left, self.right)


@dataclass(frozen=True)
class SourceModel:
    """Source used when synthesizing an HRTF set: a point source at
    ``distance_m``, or with ``None`` the plane wave, the source at
    infinity."""

    distance_m: float | None = None

    def __post_init__(self):
        if self.distance_m is not None and not (
            self.distance_m > 0.0 and math.isfinite(self.distance_m)
        ):
            raise ValidationError("point source model needs a positive distance")

    @classmethod
    def plane_wave(cls) -> "SourceModel":
        return cls()

    @classmethod
    def point_source(cls, distance_m: float) -> "SourceModel":
        return cls(distance_m)


@dataclass(frozen=True, eq=False)
class HrtfSet:
    """Per-ear complex responses on a direction grid at a reference distance.

    ``left`` and ``right`` are Q x F tables over ``directions`` and
    ``frequencies_hz``.  The reference distance is the source distance the
    responses correspond to (infinity for plane-wave sets).
    """

    directions: tuple[Direction, ...]
    frequencies_hz: np.ndarray
    reference_distance_m: float
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies_hz", np.asarray(self.frequencies_hz, float))
        object.__setattr__(self, "left", np.asarray(self.left, complex))
        object.__setattr__(self, "right", np.asarray(self.right, complex))
        q, f = len(self.directions), len(self.frequencies_hz)
        if q == 0 or f == 0:
            raise ValidationError("HRTF set needs at least one direction and frequency")
        for name in ("left", "right"):
            table = getattr(self, name)
            if table.shape != (q, f):
                raise ValidationError(
                    f"{name} table shape {table.shape} does not match "
                    f"{q} directions x {f} frequencies"
                )
            if not np.all(np.isfinite(table)):
                raise DataError(f"{name} table contains non-finite values")
        if not np.all((self.frequencies_hz > 0.0) & np.isfinite(self.frequencies_hz)):
            raise ValidationError("frequencies must be positive and finite")
        if np.unique(self.frequencies_hz).size != f:
            raise ValidationError("frequencies must not repeat")
        if not self.reference_distance_m > 0.0:
            raise ValidationError("reference distance must be positive")

    @property
    def num_directions(self) -> int:
        return len(self.directions)

    @property
    def num_frequencies(self) -> int:
        return len(self.frequencies_hz)


def analytic_sphere_hrtf(
    sphere: RigidSphere,
    ears: EarGeometry,
    directions: list[Direction] | tuple[Direction, ...],
    frequencies_hz,
    model: SourceModel,
    order: int,
) -> HrtfSet:
    """Synthesize an HRTF set from the rigid-sphere field solution.

    Each entry is the total pressure at the ear point on the sphere
    surface for a source in the given direction, from one field
    evaluation.  A point source's responses are divided by its free-field
    factor so that low-frequency magnitudes tend to 1, as the plane
    wave's already do; the set's reference distance is the model's source
    distance (infinity for the plane wave).
    """
    directions = tuple(directions)
    freqs = np.asarray(frequencies_hz, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValidationError("frequencies must be a non-empty 1-D sequence")
    if not np.all((freqs > 0.0) & np.isfinite(freqs)):
        raise ValidationError("frequencies must be positive and finite")
    k = sphere.wavenumber(freqs)

    # Both ears in one evaluation: rows are ears, columns directions.
    cosines = cosine_matrix(ears.directions(), directions)
    r_s = model.distance_m
    tables = pressure_at_cosines(sphere, cosines, k, sphere.radius_m, order, r_s)
    if r_s is None:
        r_s = math.inf
    else:
        tables = tables / free_field_factor(k, r_s)
    return HrtfSet(directions, freqs, r_s, tables[0], tables[1])


def nearfield_transform(
    hset: HrtfSet,
    sphere: RigidSphere,
    target_distance_m: float,
    order: int,
    ears: EarGeometry | None = None,
    compensate_spreading: bool = False,
) -> HrtfSet:
    """Rescale a set from its reference distance to a target distance.

    Every entry is multiplied by the distance variation function between
    the target and reference distances, evaluated at the ear's own
    position on the sphere surface for the entry's source direction.  The
    returned set carries the target as its new reference distance.

    With ``compensate_spreading`` the bulk factor e^{-ikr}/r is divided
    out of the ratio, keeping only wavefront curvature and scatterer
    proximity effects; this is the variant used when microphone steering
    is normalized the same way, so that targets and array signals share a
    common source amplitude reference.
    """
    if not (target_distance_m > sphere.radius_m):
        raise DomainError("target distance must exceed the sphere radius")
    if not math.isfinite(hset.reference_distance_m):
        raise DomainError(
            "cannot transform a plane-wave set; its reference distance is infinite"
        )
    if ears is None:
        ears = EarGeometry()

    k = sphere.wavenumber(hset.frequencies_hz)
    # Both ears in one evaluation: rows are ears, columns directions.
    cosines = cosine_matrix(ears.directions(), hset.directions)
    ratio = dvf_at_cosines(
        sphere, cosines, target_distance_m, hset.reference_distance_m, k, order
    )
    if compensate_spreading:
        ratio = ratio * (
            free_field_factor(k, hset.reference_distance_m)
            / free_field_factor(k, target_distance_m)
        )
    return HrtfSet(
        hset.directions,
        hset.frequencies_hz,
        target_distance_m,
        hset.left * ratio[0],
        hset.right * ratio[1],
    )


# File format: `version 1` / `reference_distance_m v` / `num_directions Q` /
# `num_frequencies F` header, Q `dir` lines (degrees), F `freq` lines, then
# Q*F `h q f re_l im_l re_r im_r` lines in direction-major order.  `#` starts
# a comment anywhere; blank lines are skipped.


def save_hrtf(hset: HrtfSet, path) -> None:
    """Write a set in the tabular text format.  :func:`load_hrtf` reads
    the responses, frequencies and reference distance back bit for bit;
    directions are written in degrees and can move by one ulp."""
    lines = ["version 1"]
    lines.append(f"reference_distance_m {float(hset.reference_distance_m)!r}")
    lines.append(f"num_directions {hset.num_directions}")
    lines.append(f"num_frequencies {hset.num_frequencies}")
    for d in hset.directions:
        lines.append(f"dir {math.degrees(d.theta)!r} {math.degrees(d.phi)!r}")
    for f in hset.frequencies_hz:
        lines.append(f"freq {float(f)!r}")
    for q in range(hset.num_directions):
        for fi in range(hset.num_frequencies):
            hl = complex(hset.left[q, fi])
            hr = complex(hset.right[q, fi])
            lines.append(
                f"h {q} {fi} {hl.real!r} {hl.imag!r} {hr.real!r} {hr.imag!r}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_hrtf(path) -> HrtfSet:
    """Read a set written by :func:`save_hrtf`.

    The header is parsed line by line; the Q*F data rows are read as one
    array by numpy's text reader and checked as arrays.  Raises FormatError
    (with the offending line number) for malformed lines, SchemaError when
    declared and found dimensions disagree, and DataError for non-finite
    response values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # (line number, text) of every line that is neither blank nor a comment
    rows = [
        (lineno, stripped)
        for lineno, raw in enumerate(text.split("\n"), start=1)
        if (stripped := raw.partition("#")[0].strip())
    ]

    pos = 0

    def next_line(expected: str):
        nonlocal pos
        if pos >= len(rows):
            raise FormatError(f"unexpected end of file, expected {expected!r}")
        lineno, stripped = rows[pos]
        parts = stripped.split()
        pos += 1
        if parts[0] != expected:
            raise FormatError(
                f"expected {expected!r}, found {parts[0]!r}", line=lineno
            )
        return lineno, parts

    def parse_float(text, lineno, what):
        try:
            return float(text)
        except ValueError:
            raise FormatError(f"bad {what} value {text!r}", line=lineno) from None

    def parse_count(key):
        lineno, parts = next_line(key)
        if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) == 0:
            raise FormatError(f"{key} takes one positive integer", line=lineno)
        return int(parts[1])

    lineno, parts = next_line("version")
    if parts[1:] != ["1"]:
        raise FormatError(f"unsupported version {' '.join(parts[1:])!r}", line=lineno)
    lineno, parts = next_line("reference_distance_m")
    if len(parts) != 2:
        raise FormatError("reference_distance_m takes one value", line=lineno)
    reference = parse_float(parts[1], lineno, "reference distance")
    if not reference > 0.0:  # infinity is a plane-wave set
        raise FormatError("reference distance must be positive", line=lineno)
    num_dirs = parse_count("num_directions")
    num_freqs = parse_count("num_frequencies")

    directions = []
    for _ in range(num_dirs):
        lineno, parts = next_line("dir")
        if len(parts) != 3:
            raise FormatError("dir lines take theta and phi in degrees", line=lineno)
        theta = parse_float(parts[1], lineno, "direction theta")
        phi = parse_float(parts[2], lineno, "direction phi")
        try:
            directions.append(Direction.from_degrees(theta, phi))
        except ValidationError as exc:
            raise FormatError(str(exc), line=lineno) from None

    frequencies = []
    for _ in range(num_freqs):
        lineno, parts = next_line("freq")
        if len(parts) != 2:
            raise FormatError("freq lines take one value", line=lineno)
        frequencies.append(parse_float(parts[1], lineno, "frequency"))
        if not (frequencies[-1] > 0.0 and math.isfinite(frequencies[-1])):
            raise FormatError("frequency must be positive and finite", line=lineno)

    expected_rows = num_dirs * num_freqs
    found_rows = len(rows) - pos
    if found_rows != expected_rows:
        raise SchemaError(
            f"expected {expected_rows} data rows "
            f"({num_dirs} directions x {num_freqs} frequencies), found {found_rows}"
        )
    h = _data_block(rows[pos:], num_dirs, num_freqs)
    return HrtfSet(
        tuple(directions), np.array(frequencies), reference, h[..., 0], h[..., 1]
    )


def _data_block(rows, num_dirs: int, num_freqs: int) -> np.ndarray:
    """The (Q, F, 2) left/right responses of the Q*F ``h`` rows, given as
    (line number, text) pairs in file order."""
    # The keyword and indices are read as text, in fields one character
    # wider than "h" and than the widest valid index: "+0" or "00" then
    # differs from "0", and so does any longer text the field cuts short.
    width = len(str(max(num_dirs, num_freqs) - 1)) + 1
    dtype = np.dtype(
        [("kw", "U2"), ("q", f"U{width}"), ("f", f"U{width}"), ("h", float, 4)]
    )
    texts = [text for _, text in rows]
    try:
        block = np.loadtxt(texts, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        row = _first_unreadable_row(texts, dtype)
        raise _row_error(row, *rows[row], num_freqs) from None

    block = block.reshape(num_dirs, num_freqs)
    bad = (
        (block["kw"] != "h")
        | (block["q"] != np.arange(num_dirs).astype(dtype["q"])[:, None])
        | (block["f"] != np.arange(num_freqs).astype(dtype["f"]))
    )
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise _row_error(row, *rows[row], num_freqs)
    if not np.all(np.isfinite(block["h"])):
        raise DataError("HRTF file contains non-finite response values")
    return np.ascontiguousarray(block["h"]).view(complex)


def _first_unreadable_row(texts: list[str], dtype: np.dtype) -> int:
    """Index of the first row numpy's text reader rejects, by bisection
    over prefixes of ``texts``, which as a whole it rejects.  numpy's own
    message numbers rows in more than one way, so it is not parsed."""
    good, bad = 0, len(texts)  # texts[:good] read, texts[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.loadtxt(texts[:mid], dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            bad = mid
        else:
            good = mid
    return good


def _row_error(row: int, lineno: int, text: str, num_freqs: int) -> Exception:
    """The error for data row ``row``, which the array checks rejected."""
    parts = text.split()
    if parts[0] != "h":
        return FormatError(f"expected 'h', found {parts[0]!r}", line=lineno)
    if len(parts) != 7:
        return FormatError("h lines take 6 values after the keyword", line=lineno)
    if not all(p.isdecimal() and str(int(p)) == p for p in parts[1:3]):
        return FormatError(
            "h indices must be non-negative integers without sign or leading zeros",
            line=lineno,
        )
    expected = divmod(row, num_freqs)
    found = (int(parts[1]), int(parts[2]))
    if found != expected:
        return SchemaError(
            f"data row {row} out of direction-major order: "
            f"expected indices {expected}, found {found}"
        )
    return FormatError(f"bad response value in {text!r}", line=lineno)
