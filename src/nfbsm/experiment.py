"""Sweep configuration, the distance x frequency error sweep, and CSV
emission.

The default configuration mirrors the reference simulation setup: a
semicircular array of 4 microphones on a 0.1 m rigid sphere, ears at
azimuths 100/260 degrees, truncation order 30, source distances from
0.15 m to 3.2 m with 3.2 m as the far-field reference distance, and 128
log-spaced frequencies between 75 Hz and 10 kHz.

Truth model conventions
-----------------------
For each distance d the sweep builds a truth pair (V, h): the near-field
steering matrix at d and the reference HRTF set rescaled to d.  Far-field
filters are designed once from the plane-wave steering matrix and the
reference set; near-field filters are designed per distance on the truth
pair.  Both are scored with the normalized error at every frequency.

Under ``steering_normalization = normalized`` (the default) the source
amplitude is re-referenced per distance: the bulk spreading factor
e^{-ikd}/d is divided out of the steering matrix and compensated in the
distance rescaling of the targets, so both sides of the truth pair share
one amplitude convention and the pair converges to the far-field model as
d grows.  The reference distance itself represents the far-field
condition, so at d equal to the reference the truth pair is the far-field
model and the near-field design coincides with the far-field one.  Under
``raw`` both sides keep the physical spreading and the reference distance
is treated like any other.

The kernel
----------
Everything the sweep scores is surface pressure on the sphere,
``LegendreBasis(cos(receiver, source)) @ a_n(k, source)``, written once:
:func:`nfbsm.sphmath.cosine_matrix` builds the cosines,
:func:`nfbsm.field.surface_field` is the Legendre sum and
:func:`nfbsm.field.dvf_ratio` forms every DVF.  Microphones and ears are
both receivers, and the columns are the design grid plus, in single
mode, the one evaluation direction, so the sweep builds one cosine
matrix and one Legendre basis.  Each source condition (plane wave,
reference distance, every other distance) gets one modal coefficient
array over all frequencies and one field over all columns, which feeds
the steering matrix and the DVF numerator alike.  The reference-distance
ear field is the DVF denominator and, over the free-field factor, the
analytic targets.  Filters are designed on the design columns and scored
on the evaluation columns, for all frequencies at once, with
:func:`nfbsm.bsm.design_weights` and :func:`nfbsm.bsm.evaluate_errors`.
The result is one :class:`ErrorSurface`, a (distance, frequency, filter
kind, ear) array on ascending axes; its ``records``, ``curve()`` and the
rows of :func:`emit_csv` are views of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .bsm import ArrayGeometry, NoiseModel, design_weights, evaluate_errors
from .errors import DataError, FormatError, SchemaError, ValidationError
from .field import (
    RigidSphere,
    dvf_ratio,
    free_field_factor,
    modal_coefficients,
    surface_field,
)
from .hrtf import EarGeometry, SourceModel, analytic_sphere_hrtf, load_hrtf
from .sphmath import DEFAULT_MAX_ORDER, Direction, cosine_matrix, legendre_basis

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

CSV_HEADER = "distance_m,frequency_hz,filter,ear,epsilon,epsilon_db"
FILTER_KINDS = ("ff", "nf")
EARS = ("left", "right")


def fibonacci_directions(count: int) -> tuple[Direction, ...]:
    """Nearly uniform full-sphere direction grid from a Fibonacci lattice."""
    if count < 1:
        raise ValidationError("direction count must be at least 1")
    dirs = []
    for i in range(count):
        z = 1.0 - (2.0 * i + 1.0) / count
        theta = math.acos(min(1.0, max(-1.0, z)))
        phi = (2.0 * math.pi * i / _GOLDEN_RATIO) % (2.0 * math.pi)
        dirs.append(Direction(theta, phi))
    return tuple(dirs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one sweep; all fields have defaults."""

    sphere_radius_m: float = 0.1
    speed_of_sound_mps: float = 343.0
    mic_elevation_deg: tuple[float, ...] = (90.0, 90.0, 90.0, 90.0)
    mic_azimuth_deg: tuple[float, ...] = (30.0, 80.0, 280.0, 330.0)
    ear_elevation_deg: tuple[float, float] = (90.0, 90.0)
    ear_azimuth_deg: tuple[float, float] = (100.0, 260.0)
    order: int = 30
    distances_m: tuple[float, ...] = (0.15, 0.2, 0.3, 0.5, 1.0, 3.2)
    freq_min_hz: float = 75.0
    freq_max_hz: float = 10000.0
    freq_count: int = 128
    freq_spacing: str = "log"
    frequencies_hz: tuple[float, ...] | None = None
    sigma_s_sq: float = 1.0
    sigma_n_sq: float = 0.01
    design_grid_size: int = 240
    hrtf_source: str = "analytic"
    hrtf_path: str | None = None
    reference_distance_m: float = 3.2
    steering_normalization: str = "normalized"
    eval_mode: str = "grid"
    eval_direction_deg: tuple[float, float] | None = None

    def validate(self) -> "ExperimentConfig":
        """Check every invariant, raising ValidationError naming the key."""
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValidationError(f"{f.name} must be finite, got {v!r}")
        if not self.sphere_radius_m > 0.0:
            raise ValidationError("sphere_radius_m must be positive")
        if not self.speed_of_sound_mps > 0.0:
            raise ValidationError("speed_of_sound_mps must be positive")
        if len(self.mic_elevation_deg) != len(self.mic_azimuth_deg):
            raise ValidationError(
                "mic_elevation_deg and mic_azimuth_deg must have equal length"
            )
        if len(self.mic_azimuth_deg) < 1:
            raise ValidationError("mic_azimuth_deg needs at least one microphone")
        for key in ("mic_elevation_deg", "ear_elevation_deg"):
            for v in getattr(self, key):
                if not 0.0 <= v <= 180.0:
                    raise ValidationError(f"{key} entries must lie in [0, 180]")
        if len(self.ear_elevation_deg) != 2 or len(self.ear_azimuth_deg) != 2:
            raise ValidationError("ear_elevation_deg and ear_azimuth_deg take 2 values")
        if not 0 <= self.order <= DEFAULT_MAX_ORDER:
            raise ValidationError(f"order must lie in [0, {DEFAULT_MAX_ORDER}]")
        if len(self.distances_m) < 1:
            raise ValidationError("distances_m must be non-empty")
        for key in ("distances_m", "frequencies_hz"):
            values = getattr(self, key) or ()
            if len(set(values)) != len(values):
                raise ValidationError(f"{key} entries must not repeat")
        for d in self.distances_m:
            if not d > self.sphere_radius_m:
                raise ValidationError(
                    f"distances_m entries must exceed sphere_radius_m, got {d!r}"
                )
        if self.frequencies_hz is not None:
            if len(self.frequencies_hz) < 1:
                raise ValidationError("frequencies_hz must be non-empty")
            for f in self.frequencies_hz:
                if not f > 0.0:
                    raise ValidationError("frequencies_hz entries must be positive")
        else:
            if not 0.0 < self.freq_min_hz <= self.freq_max_hz:
                raise ValidationError("freq_min_hz must satisfy 0 < min <= max")
            if self.freq_count < 1:
                raise ValidationError("freq_count must be at least 1")
            if self.freq_spacing not in ("log", "linear"):
                raise ValidationError("freq_spacing must be 'log' or 'linear'")
            if np.unique(self.frequency_axis()).size != self.freq_count:
                raise ValidationError(
                    "freq_count repeats frequencies between freq_min_hz and freq_max_hz"
                )
        if not self.sigma_s_sq > 0.0:
            raise ValidationError("sigma_s_sq must be positive")
        if self.sigma_n_sq < 0.0:
            raise ValidationError("sigma_n_sq must be non-negative")
        if self.design_grid_size < 1:
            raise ValidationError("design_grid_size must be at least 1")
        if self.hrtf_source not in ("analytic", "file"):
            raise ValidationError("hrtf_source must be 'analytic' or 'file'")
        if self.hrtf_source == "file" and not self.hrtf_path:
            raise ValidationError("hrtf_path is required when hrtf_source is 'file'")
        if not self.reference_distance_m > self.sphere_radius_m:
            raise ValidationError(
                "reference_distance_m must exceed sphere_radius_m"
            )
        if self.steering_normalization not in ("normalized", "raw"):
            raise ValidationError(
                "steering_normalization must be 'normalized' or 'raw'"
            )
        if self.eval_mode not in ("grid", "single"):
            raise ValidationError("eval_mode must be 'grid' or 'single'")
        if self.eval_mode == "single":
            if self.eval_direction_deg is None or len(self.eval_direction_deg) != 2:
                raise ValidationError(
                    "eval_direction_deg = [theta, phi] is required in single mode"
                )
            if not 0.0 <= self.eval_direction_deg[0] <= 180.0:
                raise ValidationError("eval_direction_deg theta must lie in [0, 180]")
            if self.hrtf_source != "analytic":
                raise ValidationError(
                    "eval_mode 'single' requires hrtf_source 'analytic' "
                    "(file sets cannot be evaluated off their grid)"
                )
        return self

    # Object builders

    def sphere(self) -> RigidSphere:
        return RigidSphere(self.sphere_radius_m, self.speed_of_sound_mps)

    def array(self) -> ArrayGeometry:
        mics = tuple(
            Direction.from_degrees(th, ph)
            for th, ph in zip(self.mic_elevation_deg, self.mic_azimuth_deg)
        )
        return ArrayGeometry(self.sphere(), mics)

    def ears(self) -> EarGeometry:
        return EarGeometry(
            Direction.from_degrees(self.ear_elevation_deg[0], self.ear_azimuth_deg[0]),
            Direction.from_degrees(self.ear_elevation_deg[1], self.ear_azimuth_deg[1]),
        )

    def noise(self) -> NoiseModel:
        return NoiseModel(self.sigma_s_sq, self.sigma_n_sq)

    def frequency_axis(self) -> np.ndarray:
        if self.frequencies_hz is not None:
            return np.asarray(self.frequencies_hz, float)
        lo, hi, n = self.freq_min_hz, self.freq_max_hz, self.freq_count
        if self.freq_spacing == "log":
            return np.logspace(math.log10(lo), math.log10(hi), n)
        if self.freq_spacing == "linear":
            return np.linspace(lo, hi, n)
        raise ValidationError("freq_spacing must be 'log' or 'linear'")

    def design_directions(self) -> tuple[Direction, ...]:
        return fibonacci_directions(self.design_grid_size)


# Key-by-key config file format: `key = value` lines, lists as [a, b, c],
# '#' comments.  Unknown keys are rejected.  A key's value type is read off
# its ExperimentConfig annotation (a string, as annotations are postponed).

_ALL_KEYS = {f.name for f in fields(ExperimentConfig)}
_LIST_KEYS = {f.name for f in fields(ExperimentConfig) if f.type.startswith("tuple")}
_INT_KEYS = {f.name for f in fields(ExperimentConfig) if f.type == "int"}
_STR_KEYS = {f.name for f in fields(ExperimentConfig) if f.type.startswith("str")}
_FREQ_GRID_KEYS = {"freq_min_hz", "freq_max_hz", "freq_count", "freq_spacing"}


def _parse_value(key: str, text: str, lineno: int):
    def scalar(tok: str):
        if key in _STR_KEYS:
            return tok
        try:
            return int(tok) if key in _INT_KEYS else float(tok)
        except ValueError:
            raise ValidationError(
                f"line {lineno}: bad value {tok!r} for key {key!r}"
            ) from None

    if key in _LIST_KEYS:
        if not (text.startswith("[") and text.endswith("]")):
            raise ValidationError(
                f"line {lineno}: key {key!r} takes a list like [a, b, c]"
            )
        inner = text[1:-1].strip()
        items = [p.strip() for p in inner.split(",")] if inner else []
        return tuple(scalar(p) for p in items)
    return scalar(text)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse configuration text; omitted keys take their defaults."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, value, lineno)
    if "frequencies_hz" in overrides and overrides.keys() & _FREQ_GRID_KEYS:
        raise ValidationError(
            "frequencies_hz conflicts with freq_min_hz/freq_max_hz/"
            "freq_count/freq_spacing"
        )
    return replace(ExperimentConfig(), **overrides).validate()


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as text that parses back to an equal config."""

    def fmt(value):
        if isinstance(value, tuple):
            return "[" + ", ".join(fmt(v) for v in value) + "]"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        if config.frequencies_hz is not None and f.name in _FREQ_GRID_KEYS:
            continue
        lines.append(f"{f.name} = {fmt(value)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ErrorRecord:
    distance_m: float
    frequency_hz: float
    filter_kind: str  # "ff" | "nf"
    ear: str  # "left" | "right"
    epsilon: float
    epsilon_db: float


@dataclass(frozen=True, eq=False)
class ErrorSurface:
    """Normalized errors ``epsilon[distance, frequency, filter kind, ear]``
    on ascending axes; the last two follow FILTER_KINDS and EARS."""

    distances_m: np.ndarray
    frequencies_hz: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        for name in ("distances_m", "frequencies_hz", "epsilon"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        shape = (len(self.distances_m), len(self.frequencies_hz), 2, 2)
        if self.epsilon.shape != shape:
            raise ValidationError(f"epsilon shape {self.epsilon.shape} is not {shape}")
        for axis in (self.distances_m, self.frequencies_hz):
            if np.any(np.diff(axis) <= 0):
                raise ValidationError("surface axes must be strictly ascending")

    @property
    def records(self) -> tuple[ErrorRecord, ...]:
        """One record per cell, ordered by (filter, ear, distance, frequency)."""
        grid, columns = _columns(self)
        return tuple(
            ErrorRecord(d, f, kind, ear, e, _decibels(e))
            for (kind, ear), eps in columns
            for (d, f), e in zip(grid, eps)
        )

    def curve(self, filter_kind: str, ear: str, distance_m: float):
        """(frequencies, epsilons) for one filter/ear/distance; ValueError
        for a key not on the surface."""
        i = self.distances_m.tolist().index(distance_m)
        j, e = FILTER_KINDS.index(filter_kind), EARS.index(ear)
        return self.frequencies_hz, self.epsilon[i, :, j, e]


def _columns(surface: ErrorSurface):
    """The cells in CSV order: the (distance, frequency) pairs every
    filter/ear column runs over, and ((filter, ear), epsilons) per column."""
    grid = list(
        itertools.product(surface.distances_m.tolist(), surface.frequencies_hz.tolist())
    )
    columns = len(FILTER_KINDS) * len(EARS)
    eps = surface.epsilon.transpose(2, 3, 0, 1).reshape(columns, -1).tolist()
    return grid, list(zip(itertools.product(FILTER_KINDS, EARS), eps))


def _decibels(epsilon: float) -> float:
    """The ``epsilon_db`` column: 10 log10 epsilon, -inf for epsilon = 0."""
    return 10 * math.log10(epsilon) if epsilon > 0 else -math.inf


def reference_hrtf_set(config: ExperimentConfig):
    """Reference far-field HRTF set plus the grids the sweep runs over.

    Returns (set, directions, frequencies, reference_distance).  With a
    file source the file's direction grid, frequency grid, and reference
    distance replace the configured ones, since sets are never
    interpolated off their grid.
    """
    sphere = config.sphere()
    if config.hrtf_source == "file":
        hset = load_hrtf(config.hrtf_path)
        if not math.isfinite(hset.reference_distance_m):
            raise ValidationError(
                "HRTF file has an infinite reference distance; the sweep "
                "needs a finite far-field reference"
            )
        if not hset.reference_distance_m > sphere.radius_m:
            raise ValidationError(
                "HRTF file reference distance must exceed sphere_radius_m"
            )
        return hset, hset.directions, hset.frequencies_hz, hset.reference_distance_m
    directions = config.design_directions()
    freqs = config.frequency_axis()
    rf = config.reference_distance_m
    hset = analytic_sphere_hrtf(
        sphere,
        config.ears(),
        directions,
        freqs,
        SourceModel.point_source(rf),
        config.order,
    )
    return hset, directions, freqs, rf


def run_sweep(config: ExperimentConfig) -> ErrorSurface:
    """Design and score far-field and near-field filters on every
    (distance, frequency) cell of the configured axes.

    The output is a pure function of the configuration.  See
    :func:`reference_hrtf_set` for how file-sourced sets fix the grids.
    """
    config.validate()
    sphere = config.sphere()
    noise = config.noise()
    order = config.order
    normalized = config.steering_normalization == "normalized"

    if config.hrtf_source == "file":
        hset, directions, freqs, rf = reference_hrtf_set(config)
        h_ref = np.stack([hset.left.T, hset.right.T], axis=1)
    else:  # analytic targets are the reference ear field, below
        h_ref, directions = None, config.design_directions()
        freqs, rf = config.frequency_axis(), config.reference_distance_m
    k = sphere.wavenumber(freqs)
    receivers = config.array().mic_directions + config.ears().directions()
    mics = slice(0, len(receivers) - 2)
    ears = slice(len(receivers) - 2, None)
    # Columns are the design grid, then the evaluation direction in single mode.
    design = evaluation = slice(0, len(directions))
    if config.eval_mode == "single":
        evaluation = slice(len(directions), None)
        directions += (Direction.from_degrees(*config.eval_direction_deg),)
    basis = legendre_basis(cosine_matrix(receivers, directions), order)

    a_plane = modal_coefficients(sphere, k, sphere.radius_m, order)
    a_ref = modal_coefficients(sphere, k, sphere.radius_m, order, source_distance_m=rf)
    ff_ref = free_field_factor(k, rf)[:, None, None]
    den = surface_field(basis[ears], a_ref)  # reference ear field, the DVF denominator
    if h_ref is None:
        h_ref = _finite_targets(den / ff_ref)

    def far_field_steering(columns):
        return _finite_steering(surface_field(basis[mics, columns], a_plane))

    def truth(a, d):
        """Steering and targets on every column for sources at distance d
        with modal coefficients a; one field array feeds both."""
        p = surface_field(basis, a)
        ff_d = free_field_factor(k, d)[:, None, None]
        v = _finite_steering(p[:, mics] / ff_d if normalized else p[:, mics])
        ratio = dvf_ratio(p[:, ears], den)
        if normalized:
            ratio = ratio * (ff_ref / ff_d)
        return v, _finite_targets(h_ref * ratio)

    c_ff = design_weights(far_field_steering(design), h_ref[..., design], noise)

    def errors_at(d):
        """Errors (F, filter kind, ear) of both filters at distance d."""
        if normalized and d == rf:
            # Far-field condition: the near-field design is the far-field one.
            c_nf, v, h = c_ff, far_field_steering(evaluation), h_ref
        else:
            a = modal_coefficients(sphere, k, sphere.radius_m, order, source_distance_m=d)
            v, h = truth(a, d)
            c_nf = design_weights(v[..., design], h[..., design], noise)
            v = v[..., evaluation]
        h = h[..., evaluation]
        return np.stack(
            [evaluate_errors(c, v, h, noise) for c in (c_ff, c_nf)], axis=1
        )

    distances = sorted(config.distances_m)
    f_order = np.argsort(freqs, kind="stable")
    epsilon = np.stack([errors_at(d) for d in distances])[:, f_order]
    return ErrorSurface(distances, freqs[f_order], epsilon)


def _finite_steering(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise ValidationError("steering entries must be finite")
    return v


def _finite_targets(h: np.ndarray) -> np.ndarray:
    for e, name in enumerate(EARS):
        if not np.all(np.isfinite(h[:, e])):
            raise DataError(f"{name} table contains non-finite values")
    return h


def emit_csv(surface: ErrorSurface, path) -> None:
    """Write one row per cell in (filter, ear, distance, frequency) order
    with full shortest-round-trip decimal precision."""
    if not surface.epsilon.size:
        raise ValidationError("cannot emit an empty error surface")
    grid, columns = _columns(surface)
    # each axis value is formatted once; a row adds only its two epsilons
    prefixes = [f"{d!r},{f!r}," for d, f in grid]
    lines = [CSV_HEADER]
    for (kind, ear), eps in columns:
        head = f"{kind},{ear},"
        lines.extend(
            f"{prefix}{head}{e!r},{_decibels(e)!r}" for prefix, e in zip(prefixes, eps)
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> ErrorSurface:
    """Read a CSV written by :func:`emit_csv`.

    Raises ValidationError for an unrecognized header, FormatError, with
    the line number, for a malformed row (including an epsilon that is not
    finite and non-negative, or an ``epsilon_db`` more than 1e-12 relative
    from 10 log10 epsilon), and SchemaError, with the line number, where the
    rows do not fill one distance x frequency grid in :func:`emit_csv` order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError("unrecognized CSV header")
    linenos, cells, eps = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise FormatError(f"expected 6 fields, found {len(parts)}", line=lineno)
        d, f, kind, ear, e, e_db = parts
        if kind not in FILTER_KINDS:
            raise FormatError(f"unknown filter {kind!r}", line=lineno)
        if ear not in EARS:
            raise FormatError(f"unknown ear {ear!r}", line=lineno)
        try:
            d, f, e, e_db = (float(v) for v in (d, f, e, e_db))
        except ValueError:
            raise FormatError(f"non-numeric value in {line!r}", line=lineno) from None
        if not (math.isfinite(e) and e >= 0.0):
            raise FormatError(f"epsilon {e!r} is not finite and non-negative", line=lineno)
        if not math.isclose(e_db, _decibels(e), rel_tol=1e-12):
            raise FormatError(f"epsilon_db {e_db!r} is not 10 log10 epsilon", line=lineno)
        linenos.append(lineno)
        cells.append((kind, ear, d, f))
        eps.append(e)
    distances, freqs = (sorted({c[axis] for c in cells}) for axis in (2, 3))
    grid = itertools.product(FILTER_KINDS, EARS, distances, freqs)
    linenos.append(len(lines) + 1)  # where a row missing at the end belongs
    for lineno, cell, want in itertools.zip_longest(linenos, cells, grid):
        if cell != want:
            raise SchemaError(
                f"line {lineno}: found cell {cell}, expected {want} of a "
                f"{len(distances)} x {len(freqs)} grid in emit_csv order"
            )
    epsilon = np.reshape(eps, (2, 2, len(distances), len(freqs))).transpose(2, 3, 0, 1)
    return ErrorSurface(distances, freqs, epsilon)
