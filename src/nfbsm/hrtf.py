"""HRTF sets: analytic synthesis on the rigid sphere, near-field scaling
via the distance variation function, and a line-oriented file format.

Analytic sets place the ears directly on the sphere surface and normalize
so magnitudes approach 1 at low frequency: each entry is the ear field per
unit free-field pressure (``field.surface_pressure``; the plane wave is the
source at ``math.inf``).  Sets are carried between distances by the ratio
of normalized ear fields, as the sweep carries file targets.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, FormatError, SchemaError, ValidationError
from .errors import _content_lines, _lines, _read_text
from .field import RigidSphere, dvf_ratio, surface_pressure
from .sphmath import Direction, _is_positive_real, cosine_matrix


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
    ``distance_m``, or with ``math.inf`` (the default) the plane wave, the
    source at infinity."""

    distance_m: float = math.inf

    def __post_init__(self):
        if not _is_positive_real(self.distance_m):
            raise ValidationError("source model needs a positive distance")

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
        if len(set(self.frequencies_hz.tolist())) != f:
            raise ValidationError("frequencies must not repeat")
        if not _is_positive_real(self.reference_distance_m):
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
    surface for a source in the given direction per unit free-field
    pressure, one ``field.surface_pressure`` evaluation, so low-frequency
    magnitudes tend to 1.  The set's reference distance is the model's
    source distance (infinity for the plane wave).
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
    tables = surface_pressure(sphere, cosines, k, order, model.distance_m)
    return HrtfSet(directions, freqs, model.distance_m, tables[0], tables[1])


def nearfield_transform(
    hset: HrtfSet,
    sphere: RigidSphere,
    target_distance_m: float,
    order: int,
    ears: EarGeometry | None = None,
) -> HrtfSet:
    """Rescale a set from its reference distance to a target distance.

    Every entry is multiplied by the ratio of the normalized ear fields
    (``field.surface_pressure``) at the target and reference distances, at
    the ear's own position for the entry's source direction, as the sweep
    carries file targets, so an analytic set carried to a distance is the
    analytic set there.  The result's reference distance is the target;
    the plain DVF is ``field.dvf``.
    """
    if not math.isfinite(hset.reference_distance_m):
        raise DomainError(
            "cannot transform a plane-wave set; its reference distance is infinite"
        )
    if ears is None:
        ears = EarGeometry()

    k = sphere.wavenumber(hset.frequencies_hz)
    # Both ears in one evaluation: rows are ears, columns directions.
    cosines = cosine_matrix(ears.directions(), hset.directions)
    ratio = dvf_ratio(
        surface_pressure(sphere, cosines, k, order, target_distance_m),
        surface_pressure(sphere, cosines, k, order, hset.reference_distance_m),
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
# a comment anywhere; blank lines are skipped.  Lines end at \r\n, \r or \n.


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
    # one data row per (direction, frequency), a direction's rows written at
    # once, so the file's text is never held whole
    per_direction = hset.num_frequencies
    columns = [
        map(repr, part.ravel().tolist())
        for h in (hset.left, hset.right)
        for part in (h.real, h.imag)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for q in range(hset.num_directions):
            indices = (f"h {q} {fi}" for fi in range(per_direction))
            rows = zip(indices, *(itertools.islice(c, per_direction) for c in columns))
            fh.write("\n".join(map(" ".join, rows)) + "\n")


def load_hrtf(path) -> HrtfSet:
    """Read a set written by :func:`save_hrtf`.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n`` only.  The header is parsed
    line by line; the lines after it are handed as they are to numpy's text
    reader, which skips blank and comment lines and splits on the
    whitespace ``str.split`` does, and the Q*F data rows it reads are
    checked as arrays.  Where that fails, the row count is checked first,
    then the first faulty data row in file order is reported, by its line.
    Raises FormatError (with the offending line number) for malformed
    lines and for a byte that is not UTF-8 or is NUL, SchemaError when
    declared and found dimensions disagree or a data row is out of
    direction-major order, and DataError, from :class:`HrtfSet`, naming
    the table that holds a non-finite value.
    """
    lines = _lines(_read_text(path))
    rows = _content_lines(lines)  # the header's rows; the rest name data errors

    def next_line(expected: str):
        row = next(rows, None)
        if row is None:
            raise FormatError(f"unexpected end of file, expected {expected!r}")
        lineno, stripped = row
        parts = stripped.split()
        if parts[0] != expected:
            raise FormatError(f"expected {expected!r}, found {parts[0]!r}", line=lineno)
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

    h = _data_block(lines[lineno:], rows, num_dirs, num_freqs)
    return HrtfSet(
        tuple(directions), np.array(frequencies), reference, h[..., 0], h[..., 1]
    )


def _data_block(lines, rows, num_dirs: int, num_freqs: int) -> np.ndarray:
    """The (Q, F, 2) left/right responses of the Q*F ``h`` rows in
    ``lines``, the raw lines after the header.  ``rows`` iterates over
    their (line number, stripped text) pairs; it is read only to name an
    error: SchemaError for a wrong row count, else the error of the first
    faulty row in file order.  The keyword and indices are read as bytes, in
    fields one character wider than "h" and than the widest valid index, so
    "+0", "00" and any longer text the field cuts short differ from "0"; numpy
    encodes the cut text as Latin-1, so other text differs too (U+00E9 after
    "h" is b"h\\xe9") or raises (U+0125), and :func:`_row_error` names its line."""
    width = len(str(max(num_dirs, num_freqs) - 1)) + 1
    dtype = np.dtype(
        [("kw", "S2"), ("q", f"S{width}"), ("f", f"S{width}"), ("h", float, 4)]
    )
    expected_rows = num_dirs * num_freqs
    try:
        with warnings.catch_warnings():  # a block of no rows is the SchemaError below
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
    except ValueError:
        block = None
    if block is not None and block.size == expected_rows:
        block = block.reshape(num_dirs, num_freqs)
        bad = (
            (block["kw"] != b"h")
            | (block["q"] != np.arange(num_dirs).astype(dtype["q"])[:, None])
            | (block["f"] != np.arange(num_freqs).astype(dtype["f"]))
        )
        if not bad.any():
            return np.ascontiguousarray(block["h"]).view(complex)

    rows = list(rows)
    if len(rows) != expected_rows:
        raise SchemaError(
            f"expected {expected_rows} data rows "
            f"({num_dirs} directions x {num_freqs} frequencies), found {len(rows)}"
        )
    errors = (_row_error(i, *row, num_freqs, dtype) for i, row in enumerate(rows))
    raise next(filter(None, errors))  # the block failed, so some row is faulty


def _row_error(
    row: int, lineno: int, text: str, num_freqs: int, dtype: np.dtype
) -> Exception | None:
    """The error for data row ``row``, or None for a sound row: its text,
    then its values read by the block's reader."""
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
            f"expected indices {expected}, found {found}", line=lineno
        )
    try:
        np.loadtxt([text], dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return FormatError(f"bad response value in {text!r}", line=lineno)
    return None
