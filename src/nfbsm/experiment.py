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
steering matrix at d and the reference HRTF set rescaled to d.  The two
designs solve one MSE problem on different pairs: the near-field filter
on the pair at d, the far-field filter on the far-field pair, the
plane-wave steering matrix with the reference set.  Each pair scores both
with the normalized error at every frequency.  The pairs differ only in
their source conditions, so they are one table: a pair is the (source,
receiver rows) parts its field is summed from.

Every source condition is scored per unit free-field pressure, by the
one normalization in :mod:`nfbsm.field`: the spreading factor e^{-ikd}/d
is divided out of the field at d, on the microphone rows and the ear
rows alike, and it is exactly 1 for the plane wave the far-field filter
is designed on.  So the far-field filter's output and every target it is
scored on share one amplitude convention, and the truth pair converges
to the far-field model as d grows.  The reference distance itself
represents the far-field condition, so at d equal to the reference the
truth pair is the far-field model and the near-field design coincides
with the far-field one.  Analytic targets at d are the ear field at d
itself; file targets at every d, the reference distance included, are
the file's set carried to d by the normalized ear field's ratio to its
value at the reference distance, as :func:`nfbsm.hrtf.nearfield_transform` does.

The kernel
----------
Everything the sweep scores is surface pressure on the sphere,
``LegendreBasis(cos(receiver, source)) @ a_n(k, source)``, written once:
the body of :func:`nfbsm.sphmath.cosine_matrix` builds the cosines and
:func:`nfbsm.field.surface_field` is the Legendre sum.  Microphones and
ears are both receivers, and the columns are the design grid plus, in
single mode, the one evaluation direction, held as one array of angles
(no Direction per grid point), so the sweep builds one cosine matrix and
one Legendre basis.  It works per unit free-field pressure: one
:func:`nfbsm.field.surface_coefficients` call, the sweep's one modal
call, gives the coefficients of every source condition (each distance of
the pair table, then the plane wave as the source at infinity) over all
frequencies, with the sphere side computed once and no spreading to
divide out.  The pair table lists the reference distance's pair first,
scored or not: the far-field pair, the plane wave on the microphone
rows and the reference distance on the ear rows, so no row is summed
twice.  Every other pair is its own distance on all rows.
Each part is one real GEMM on the real basis rows, summed into the one
(F, 2, R, columns) pair buffer of the sweep; it reshapes, without a
copy, to the (F, 2R, columns) rows Re p, then Im p, which feed the
steering matrix and the targets alike.  Each pair designs its filter and
scores the bank, a list of weight arrays: the far-field filter and the
pair's own.  The far-field pair's design is the far-field filter, the
bank's one filter there, scored once for both kinds.  Only file targets
get a transfer, the file's set over the reference ear field
(:func:`nfbsm.field.dvf_ratio`, once a sweep, before the pair buffer is
made and the set let go).  Every pair's ear rows, the far-field pair's
included, become its ear field times the transfer, one complex multiply
checked finite; the modal layer already rejects non-finite coefficients.
Design and scoring read the planes directly, with no complex copy,
through the one real-plane engine of :mod:`nfbsm.bsm`, so a distance
holds its field and a small residual, not a second field-sized array.
The result is one :class:`ErrorSurface`, a (distance, frequency, filter
kind, ear) array on ascending axes; its ``records``, ``curve()`` and the
rows of :func:`emit_csv` are views of it, ``epsilon_db`` a column at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .bsm import ArrayGeometry, NoiseModel, _errors_from_planes, _weights_from_planes
from .errors import DataError, FormatError, SchemaError, ValidationError
from .errors import _content_lines, _lines, _read_text
from .field import RigidSphere, dvf_ratio, surface_coefficients, surface_field
from .hrtf import EarGeometry, SourceModel, analytic_sphere_hrtf, load_hrtf
from .sphmath import DEFAULT_MAX_ORDER, Direction, _angles, _cosines, legendre_basis
from .sphmath import _is_integer, _is_real, require_integer

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

CSV_HEADER = "distance_m,frequency_hz,filter,ear,epsilon,epsilon_db"
FILTER_KINDS = ("ff", "nf")
EARS = ("left", "right")


def fibonacci_directions(count: int) -> tuple[Direction, ...]:
    """Nearly uniform full-sphere direction grid from a Fibonacci lattice."""
    if require_integer("direction count", count) < 1:
        raise ValidationError("direction count must be at least 1")
    return tuple(Direction(theta, phi) for theta, phi in _fibonacci_angles(count).tolist())


def _fibonacci_angles(count: int) -> np.ndarray:
    """The lattice's (count, 2) rows (theta, phi): theta by ``math.acos``,
    since numpy's ``arccos`` is one ulp off on some points."""
    i = np.arange(count, dtype=float)
    z = np.clip(1.0 - (2.0 * i + 1.0) / count, -1.0, 1.0)
    phi = (2.0 * math.pi * i / _GOLDEN_RATIO) % (2.0 * math.pi)
    return np.column_stack([list(map(math.acos, z.tolist())), phi])


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one sweep; all fields have defaults.  It is
    checked when made, so every config is valid; validate() re-checks it."""

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
    frequencies_hz: tuple[float, ...] | None = None
    sigma_n_sq: float = 0.01
    design_grid_size: int = 240
    hrtf_source: str = "analytic"
    hrtf_path: str | None = None
    reference_distance_m: float = 3.2
    eval_mode: str = "grid"
    eval_direction_deg: tuple[float, float] | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check every invariant, raising ValidationError naming the key."""
        for f in fields(self):
            key, value = f.name, getattr(self, f.name)
            if value is None and f.type.endswith("None"):
                continue
            if key in _LIST_KEYS and not np.iterable(value):
                raise ValidationError(f"{key} takes a list, got {value!r}")
            kind = _KINDS[key]
            for v in value if key in _LIST_KEYS else (value,):
                if not _HOLDS[kind](v):
                    raise ValidationError(f"{key} takes {kind.__name__}, got {v!r}")
                if kind is float and not math.isfinite(v):
                    raise ValidationError(f"{key} must be finite, got {v!r}")
                if kind is str and "\0" in v:  # open() would reject it in a path
                    raise ValidationError(f"{key} must not hold a NUL byte, got {v!r}")
            if key in _FREQ_GRID_KEYS and self.frequencies_hz is not None:
                if value != f.default:  # frequencies_hz replaces the freq_* grid
                    raise ValidationError(f"{key} {value!r} is set beside frequencies_hz")
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
            values = getattr(self, key)
            if values is not None and len(set(values)) != len(values):
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
            if len(set(self.frequency_axis().tolist())) != self.freq_count:
                raise ValidationError(
                    "freq_count repeats frequencies between freq_min_hz and freq_max_hz"
                )
        if self.sigma_n_sq < 0.0:
            raise ValidationError("sigma_n_sq must be non-negative")
        if self.design_grid_size < 1:
            raise ValidationError("design_grid_size must be at least 1")
        if self.hrtf_source not in ("analytic", "file"):
            raise ValidationError("hrtf_source must be 'analytic' or 'file'")
        if self.hrtf_source == "file" and not self.hrtf_path:
            raise ValidationError("hrtf_path is required when hrtf_source is 'file'")
        if self.hrtf_source == "analytic" and self.hrtf_path is not None:
            raise ValidationError(
                f"hrtf_path {self.hrtf_path!r} is set beside hrtf_source 'analytic'"
            )
        if not self.reference_distance_m > self.sphere_radius_m:
            raise ValidationError("reference_distance_m must exceed sphere_radius_m")
        if self.eval_mode not in ("grid", "single"):
            raise ValidationError("eval_mode must be 'grid' or 'single'")
        if self.eval_mode == "grid" and self.eval_direction_deg is not None:
            raise ValidationError(
                f"eval_direction_deg {self.eval_direction_deg!r} is set beside eval_mode 'grid'"
            )
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
        return NoiseModel(sigma_n_sq=self.sigma_n_sq)

    def frequency_axis(self) -> np.ndarray:
        if self.frequencies_hz is not None:
            return np.asarray(self.frequencies_hz, float)
        lo, hi = math.log10(self.freq_min_hz), math.log10(self.freq_max_hz)
        return np.logspace(lo, hi, self.freq_count)

    def design_directions(self) -> tuple[Direction, ...]:
        return fibonacci_directions(self.design_grid_size)


# Key-by-key config file format: `key = value` lines, ending at \r\n, \r or
# \n; lists as [a, b, c]; '#' comments.  Unknown keys are rejected.  A key's
# type is read off its ExperimentConfig annotation (postponed: a string).

_LIST_KEYS = {f.name for f in fields(ExperimentConfig) if f.type.startswith("tuple")}
# The type the text reads for every key (each element's, for a list key),
# and the test of the Python values that hold it: sphmath's number rules,
# which take NumPy numbers and refuse bools.
_KINDS = {
    f.name: int if f.type == "int" else str if f.type.startswith("str") else float
    for f in fields(ExperimentConfig)
}
_HOLDS = {str: lambda v: isinstance(v, str), int: _is_integer, float: _is_real}
_FREQ_GRID_KEYS = {"freq_min_hz", "freq_max_hz", "freq_count"}


def _parse_value(key: str, text: str, lineno: int):
    def scalar(tok: str):
        try:
            return _KINDS[key](tok)
        except ValueError:
            raise ValidationError(f"bad value {tok!r} for key {key!r}", line=lineno) from None

    if key in _LIST_KEYS:
        if not (text.startswith("[") and text.endswith("]")):
            raise ValidationError(f"key {key!r} takes a list like [a, b, c]", line=lineno)
        inner = text[1:-1].strip()
        items = [p.strip() for p in inner.split(",")] if inner else []
        return tuple(scalar(p) for p in items)
    return scalar(text)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse configuration text, whose lines end at ``\\r\\n``, ``\\r`` or
    ``\\n`` only; omitted keys take their defaults."""
    overrides = {}
    for lineno, line in _content_lines(_lines(text)):
        if "=" not in line:
            raise ValidationError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KINDS:
            raise ValidationError(f"unknown key {key!r}", line=lineno)
        if key in overrides:
            raise ValidationError(f"duplicate key {key!r}", line=lineno)
        overrides[key] = _parse_value(key, value, lineno)
    if "frequencies_hz" in overrides and overrides.keys() & _FREQ_GRID_KEYS:
        raise ValidationError("frequencies_hz conflicts with freq_min_hz/freq_max_hz/freq_count")
    return ExperimentConfig(**overrides)


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file."""
    return parse_config_text(_read_text(path))


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as text that parses back to the same values: each
    value of a float key is written as the Python float it widens to.
    ValidationError names a string key whose value holds '#', a line break
    or surrounding whitespace."""

    def fmt(key, value):
        if np.iterable(value) and not isinstance(value, str):  # any sequence
            return "[" + ", ".join(fmt(key, v) for v in value) + "]"
        if isinstance(value, str) and (
            "#" in value or value != value.strip() or len(_lines(value)) > 1
        ):
            raise ValidationError(f"{key} {value!r} cannot be written as config text")
        return repr(float(value)) if _KINDS[key] is float else str(value)

    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None or f.name in _FREQ_GRID_KEYS and config.frequencies_hz is not None:
            continue  # beside frequencies_hz the freq_* keys hold their defaults
        lines.append(f"{f.name} = {fmt(f.name, value)}")
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
    """Normalized errors ``epsilon[distance, frequency, filter kind, ear]``,
    finite and non-negative as :func:`load_csv` reads them, on ascending
    finite positive axes; the last two follow FILTER_KINDS and EARS."""

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
            if not np.all((axis > 0.0) & (axis < math.inf)):  # NaN fails too
                raise ValidationError("surface axes must be finite and positive")
            if np.any(np.diff(axis) <= 0):
                raise ValidationError("surface axes must be strictly ascending")
        if not (np.isfinite(self.epsilon).all() and (self.epsilon >= 0.0).all()):
            raise ValidationError("epsilon entries must be finite and non-negative")

    @property
    def records(self) -> tuple[ErrorRecord, ...]:
        """One record per cell, ordered by (filter, ear, distance, frequency)."""
        grid = list(
            itertools.product(self.distances_m.tolist(), self.frequencies_hz.tolist())
        )
        return tuple(
            ErrorRecord(d, f, kind, ear, e, db)
            for (kind, ear), eps in _columns(self)
            for (d, f), e, db in zip(grid, eps, _decibels(eps))
        )

    def curve(self, filter_kind: str, ear: str, distance_m: float):
        """(frequencies, epsilons) for one filter/ear/distance; ValueError
        for a key not on the surface."""
        i = self.distances_m.tolist().index(distance_m)
        j, e = FILTER_KINDS.index(filter_kind), EARS.index(ear)
        return self.frequencies_hz, self.epsilon[i, :, j, e]


def _columns(surface: ErrorSurface):
    """The cells in CSV order: ((filter, ear), epsilons) per column, each
    running over the (distance, frequency) grid, frequency fastest."""
    columns = len(FILTER_KINDS) * len(EARS)
    eps = surface.epsilon.transpose(2, 3, 0, 1).reshape(columns, -1).tolist()
    return list(zip(itertools.product(FILTER_KINDS, EARS), eps))


def _decibels(epsilons) -> list[float]:
    """The ``epsilon_db`` column of epsilons: 10 log10 e, -inf for e = 0."""
    log10, neg_inf = math.log10, -math.inf
    return [10 * log10(e) if e > 0 else neg_inf for e in epsilons]


def _sweep_grids(config: ExperimentConfig):
    """The grids a sweep runs over: (file set or None, design grid as
    (Q, 2) angles, frequencies, reference distance).  A file's direction
    grid, frequency grid and reference distance replace the configured
    ones, since sets are never interpolated off their grid."""
    if config.hrtf_source != "file":
        columns = _fibonacci_angles(config.design_grid_size)
        return None, columns, config.frequency_axis(), config.reference_distance_m
    hset = load_hrtf(config.hrtf_path)
    if not math.isfinite(hset.reference_distance_m):
        raise ValidationError(
            "HRTF file has an infinite reference distance; the sweep "
            "needs a finite far-field reference"
        )
    if not hset.reference_distance_m > config.sphere_radius_m:
        raise ValidationError("HRTF file reference distance must exceed sphere_radius_m")
    return hset, _angles(hset.directions), hset.frequencies_hz, hset.reference_distance_m


def reference_hrtf_set(config: ExperimentConfig):
    """Reference far-field HRTF set plus the grids the sweep runs over.

    Returns (set, directions, frequencies, reference_distance): the file's
    set and grids with a file source (see :func:`_sweep_grids`), else the
    analytic set on the configured grids.
    """
    hset, _, freqs, rf = _sweep_grids(config)
    if hset is not None:
        return hset, hset.directions, freqs, rf
    directions = config.design_directions()
    hset = analytic_sphere_hrtf(
        config.sphere(),
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

    The far-field filter is the design on the reference distance's pair,
    the far-field pair.  The output is a pure function of the
    configuration.  See :func:`_sweep_grids` for how file-sourced sets
    fix the grids.
    """
    sphere = config.sphere()
    lam = config.sigma_n_sq
    order = config.order

    hset, columns, freqs, rf = _sweep_grids(config)
    k = sphere.wavenumber(freqs)
    receivers = config.array().mic_directions + config.ears().directions()
    m = len(receivers) - 2  # microphones, then the two ears
    mics, ears = slice(None, m), slice(m, None)
    # Columns are the design grid, then the evaluation direction in single mode.
    design = evaluation = slice(0, len(columns))
    if config.eval_mode == "single":
        evaluation = slice(len(columns), None)
        eval_direction = Direction.from_degrees(*config.eval_direction_deg)
        columns = np.vstack([columns, _angles([eval_direction])])
    basis = legendre_basis(_cosines(_angles(receivers), columns), order)

    # The truth pairs, the reference distance's first, each as the (source,
    # receiver rows) parts its field is summed from: the far-field pair is
    # the plane wave on the microphones and the reference distance on the
    # ears.  One modal call covers every source condition (inf: the plane wave).
    distances = sorted(config.distances_m)
    pairs = {d: [(d, slice(None))] for d in [rf, *distances]}
    pairs[rf] = [(math.inf, mics), (rf, ears)]
    sources = [*pairs, math.inf]
    a = surface_coefficients(sphere, k, order, np.array(sources))

    # File targets are the file's set carried from the reference distance by
    # the ear field's ratio to its value there: one transfer a sweep.
    transfer = None
    if hset is not None:
        ear = surface_field(basis[ears], a[sources.index(rf)])
        ear = ear[:, 0] + 1j * ear[:, 1]
        transfer = dvf_ratio(np.stack([hset.left.T, hset.right.T], axis=1), ear)
        del hset, ear  # the file's set is not held through the sweep
    # Every pair's field, as real planes (F, 2, receivers, columns) over the
    # free-field factor, is summed into this one buffer.
    x = np.empty((len(k), 2, len(receivers), len(columns)))
    planes = x.reshape(len(k), -1, len(columns))  # (F, 2R, columns): a view
    # Each pair designs its filter and scores the bank, errors (F, filter
    # kind, ear).  The far-field pair comes first, so its design is the
    # far-field filter, the bank's one filter there, scored once for both kinds.
    bank, errors = [], {}  # the far-field filter, then the pair's own
    for d, parts in pairs.items():
        for source, rows in parts:
            surface_field(basis[rows], a[sources.index(source)], x[:, :, rows])
        if transfer is not None:  # file targets replace the ear rows
            h = (x[:, 0, ears] + 1j * x[:, 1, ears]) * transfer
            if not np.isfinite(h).all():
                raise DataError(f"HRTF file targets at {d!r} m are not finite")
            x[:, 0, ears], x[:, 1, ears] = h.real, h.imag
            del h  # not held through the design
        bank.append(_weights_from_planes(planes[..., design], m, lam))
        errors[d] = _errors_from_planes(
            np.stack(bank, axis=1), planes[..., evaluation], lam
        )[:, [0, -1]]  # ff, nf: at the reference, one filter twice
        del bank[1:]  # only the far-field filter outlives its pair
    f_order = np.argsort(freqs, kind="stable")
    epsilon = np.stack([errors[d] for d in distances])[:, f_order]
    return ErrorSurface(distances, freqs[f_order], epsilon)


def emit_csv(surface: ErrorSurface, path) -> None:
    """Write one row per cell in (filter, ear, distance, frequency) order
    with full shortest-round-trip decimal precision."""
    if not surface.epsilon.size:
        raise ValidationError("cannot emit an empty error surface")
    # each axis value is formatted once; a row adds only its two epsilons
    distances = [repr(d) for d in surface.distances_m.tolist()]
    freqs = [repr(f) for f in surface.frequencies_hz.tolist()]
    prefixes = [f"{d},{f}," for d in distances for f in freqs]
    lines = [CSV_HEADER]
    for (kind, ear), eps in _columns(surface):
        head = f"{kind},{ear},"
        lines.extend(
            f"{prefix}{head}{e!r},{db!r}"
            for prefix, e, db in zip(prefixes, eps, _decibels(eps))
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> ErrorSurface:
    """Read a CSV written by :func:`emit_csv`.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n`` only, and blank lines are
    skipped.  Raises ValidationError for an unrecognized header,
    FormatError, with the line number, for a byte that is not UTF-8 or is
    NUL, or a malformed row (a distance or frequency not finite and
    positive, an epsilon not finite and non-negative, or, checked once every
    row has parsed, an ``epsilon_db`` more than 1e-12 relative from 10 log10
    epsilon), and SchemaError, with the line number, where the rows do not
    fill one non-empty distance x frequency grid in :func:`emit_csv` order.
    """
    lines = _lines(_read_text(path))
    if lines[0] != CSV_HEADER:
        raise ValidationError("unrecognized CSV header")
    linenos, cells, eps, dbs = [], [], [], []
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
        for name, v in (("distance", d), ("frequency", f)):
            if not 0.0 < v < math.inf:  # NaN fails too
                raise FormatError(f"{name} {v!r} is not finite and positive", line=lineno)
        linenos.append(lineno)
        cells.append((kind, ear, d, f))
        eps.append(e)
        dbs.append(e_db)
    for lineno, e_db, want in zip(linenos, dbs, _decibels(eps)):
        if not math.isclose(e_db, want, rel_tol=1e-12):
            raise FormatError(f"epsilon_db {e_db!r} is not 10 log10 epsilon", line=lineno)
    if not cells:  # emit_csv writes no empty surface
        raise SchemaError("the text ends with no rows", line=len(lines))
    distances, freqs = (sorted({c[axis] for c in cells}) for axis in (2, 3))
    grid = itertools.product(FILTER_KINDS, EARS, distances, freqs)
    linenos.append(len(lines))  # the line where the text ends, after its last row
    for lineno, cell, want in itertools.zip_longest(linenos, cells, grid):
        if cell != want:
            raise SchemaError(
                f"found cell {cell}, expected {want} of a "
                f"{len(distances)} x {len(freqs)} grid in emit_csv order", line=lineno
            )
    epsilon = np.reshape(eps, (2, 2, len(distances), len(freqs))).transpose(2, 3, 0, 1)
    return ErrorSurface(distances, freqs, epsilon)
