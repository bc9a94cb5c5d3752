"""Binaural signal matching: steering matrices, regularized MSE-optimal
filter design, and closed-form reproduction error with a Monte-Carlo
cross-check.

The narrowband model is x = V s + n with an M x Q steering matrix V,
i.i.d. source signals of power sigma_s^2 and white noise of power
sigma_n^2.  Target ear signals are p = h^T s; the estimate is c^H x.  The
MSE-optimal weights solve

    c = (V V^H + lambda I_M)^{-1} V h^*,    lambda = sigma_n^2 / sigma_s^2,

and the normalized reproduction error of any weight vector is

    eps = (sigma_s^2 ||V^T c^* - h||^2 + sigma_n^2 ||c||^2)
          / (sigma_s^2 ||h||^2).

Both are computed by one batched engine over stacks of frequencies,
:func:`design_weights` and :func:`evaluate_errors`; :func:`design_filter`
and :func:`evaluate_error` are its one-frequency views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DegenerateTargetError,
    DomainError,
    NumericalRankError,
    ValidationError,
)
from .field import RigidSphere, free_field_factor, pressure_at_cosines
# cos_angle_between stays bound: bench/test_bench.py traces it through bsm.
from .sphmath import Direction, cos_angle_between, cosine_matrix  # noqa: F401

FAR_FIELD = "far_field"
NEAR_FIELD = "near_field"

_DEFAULT_MIC_AZIMUTHS_DEG = (30.0, 80.0, 280.0, 330.0)
# Monte-Carlo trials drawn per batch, bounding the sample arrays' memory.
_MC_CHUNK = 4096


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphones on the surface of a rigid sphere."""

    sphere: RigidSphere
    mic_directions: tuple[Direction, ...] = field(
        default_factory=lambda: tuple(
            Direction.from_degrees(90.0, az) for az in _DEFAULT_MIC_AZIMUTHS_DEG
        )
    )

    def __post_init__(self):
        object.__setattr__(self, "mic_directions", tuple(self.mic_directions))
        if len(self.mic_directions) < 1:
            raise ValidationError("array needs at least one microphone")

    @property
    def num_mics(self) -> int:
        return len(self.mic_directions)

    @classmethod
    def default(cls, speed_of_sound_mps: float = 343.0) -> "ArrayGeometry":
        """Semicircular 4-microphone array on a 0.1 m sphere."""
        return cls(RigidSphere(0.1, speed_of_sound_mps))


@dataclass(frozen=True)
class NoiseModel:
    """Signal and noise powers; their ratio acts as ridge regularization."""

    sigma_s_sq: float = 1.0
    sigma_n_sq: float = 0.01

    def __post_init__(self):
        if not (self.sigma_s_sq > 0.0 and math.isfinite(self.sigma_s_sq)):
            raise ValidationError("signal power must be positive")
        if self.sigma_n_sq < 0.0 or not math.isfinite(self.sigma_n_sq):
            raise ValidationError("noise power must be non-negative and finite")

    @property
    def regularization(self) -> float:
        """lambda = sigma_n^2 / sigma_s^2."""
        return self.sigma_n_sq / self.sigma_s_sq


@dataclass(frozen=True, eq=False)
class SteeringMatrix:
    """M x Q array response at one frequency."""

    entries: np.ndarray
    frequency_hz: float
    kind: str
    distance_m: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, complex))
        if self.entries.ndim != 2:
            raise ValidationError("steering entries must be a 2-D matrix")
        if not np.all(np.isfinite(self.entries)):
            raise ValidationError("steering entries must be finite")
        if self.kind not in (FAR_FIELD, NEAR_FIELD):
            raise ValidationError(f"unknown steering kind {self.kind!r}")
        if self.kind == NEAR_FIELD and self.distance_m is None:
            raise ValidationError("near-field steering needs a source distance")

    @property
    def num_mics(self) -> int:
        return self.entries.shape[0]

    @property
    def num_directions(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class BsmFilter:
    """Per-ear complex microphone weights at one frequency."""

    left: np.ndarray
    right: np.ndarray
    frequency_hz: float
    design_kind: str
    design_distance_m: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "left", np.asarray(self.left, complex))
        object.__setattr__(self, "right", np.asarray(self.right, complex))
        if self.left.ndim != 1 or self.left.shape != self.right.shape:
            raise ValidationError("filter weights must be equal-length vectors")
        for w in (self.left, self.right):
            if not np.all(np.isfinite(w)):
                raise ValidationError("filter weights must be finite")


class EarValues(NamedTuple):
    left: float
    right: float


def steering_matrix_farfield(
    array: ArrayGeometry, directions, k: float, order: int
) -> SteeringMatrix:
    """Far-field steering matrix: entry (m, q) is the plane-wave response
    at microphone m for incidence direction q."""
    return _steering_matrix(array, directions, k, order, None, False)


def steering_matrix_nearfield(
    array: ArrayGeometry,
    directions,
    source_distance_m: float,
    k: float,
    order: int,
    normalized: bool = True,
) -> SteeringMatrix:
    """Near-field steering matrix for point sources at one distance.

    Entry (m, q) is the point-source response at microphone m for a source
    at (direction q, source_distance_m).  With ``normalized`` (default)
    the bulk spreading factor e^{-ik r_s}/r_s is divided out, so entries
    converge to the far-field steering matrix as the distance grows and
    the noise-to-signal regularization keeps the same meaning across
    distances; ``normalized=False`` yields the raw field values.

    The normalized entries differ from far-field steering by exactly the
    factor R_n(k r_s) on each order n (see the ``field`` module), with
    R_n = 1 - i n(n+1)/(2 k r_s) + O((k r_s)^-2).  The deviation therefore
    falls as 1/r_s: about 1.04% at 100 m and 10 kHz on the default experiment array,
    about 0.104% at 1 km.
    """
    return _steering_matrix(array, directions, k, order, source_distance_m, normalized)


def _steering_matrix(array, directions, k, order, distance_m, normalized):
    """Field at the microphones (rows) for sources in ``directions``
    (columns) at ``distance_m``, or for the plane wave, the source at
    infinity, when it is None; divided by the free-field factor when
    ``normalized``."""
    if k <= 0.0:
        raise DomainError("wavenumber must be positive")
    if distance_m is not None and distance_m <= array.sphere.radius_m:
        raise DomainError("source distance must exceed the sphere radius")
    entries = pressure_at_cosines(
        array.sphere,
        cosine_matrix(array.mic_directions, tuple(directions)),
        float(k),
        array.sphere.radius_m,
        order,
        distance_m,
    )
    if normalized:
        entries = entries / free_field_factor(float(k), distance_m)
    freq = k * array.sphere.speed_of_sound_mps / (2.0 * math.pi)
    kind = FAR_FIELD if distance_m is None else NEAR_FIELD
    return SteeringMatrix(entries, freq, kind, distance_m)


def design_filter(
    V: SteeringMatrix,
    h_left,
    h_right,
    noise: NoiseModel,
) -> BsmFilter:
    """MSE-optimal per-ear weights for a steering matrix and HRTF rows.

    The one-frequency view of :func:`design_weights`, which solves the
    normal equations and raises NumericalRankError when they are singular.
    """
    h_left = np.asarray(h_left, complex)
    h_right = np.asarray(h_right, complex)
    for name, h in (("left", h_left), ("right", h_right)):
        if h.ndim != 1 or h.shape[0] != V.num_directions:
            raise ContractError(
                f"{name} HRTF row length {h.shape} does not match "
                f"{V.num_directions} steering directions"
            )
    left, right = design_weights(
        V.entries[None], np.stack([h_left, h_right])[None], noise
    )[0]
    return BsmFilter(left, right, V.frequency_hz, V.kind, V.distance_m)


def design_weights(V: np.ndarray, h: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """MSE-optimal weights at every frequency at once.

    ``V`` is an (F, M, Q) stack of steering matrices and ``h`` an (F, E, Q)
    stack of target rows (E = 2 for the ears).  Returns the (F, E, M)
    weights solving (V V^H + lambda I) c = V h^* per frequency and row,
    by one batched LU solve.  Where some Gram matrix is numerically
    singular (see :func:`_rank_deficient`, or a singular LU solve),
    lambda is too small to regularize it and NumericalRankError is raised.
    """
    lam = noise.regularization
    m = V.shape[1]
    gram = V @ V.conj().swapaxes(-1, -2) + lam * np.eye(m)
    rhs = V @ h.conj().swapaxes(-1, -2)
    try:
        if _rank_deficient(gram):
            raise np.linalg.LinAlgError
        # matrix_rank can count a singular Gram matrix as full rank
        c = np.linalg.solve(gram, rhs).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        raise NumericalRankError(
            f"V V^H + lambda I is rank deficient: lambda = {lam:g} is too "
            "small to regularize it"
        ) from None
    if not np.all(np.isfinite(c)):
        raise ValidationError("filter weights must be finite")
    return c


def _rank_deficient(gram: np.ndarray) -> bool:
    """Whether some Gram matrix of the (F, M, M) stack is numerically
    singular: a Cholesky pivot at most M eps times its largest diagonal
    entry (every pivot bounds the smallest eigenvalue from above), or,
    where the factorization fails, a matrix_rank below M."""
    m = gram.shape[-1]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return bool(np.any(np.linalg.matrix_rank(gram) < m))
    pivots = chol.diagonal(axis1=-2, axis2=-1).real ** 2
    scale = gram.diagonal(axis1=-2, axis2=-1).real.max(axis=-1)
    return bool(np.any(pivots.min(axis=-1) <= m * np.finfo(float).eps * scale))


def evaluate_error(
    filt: BsmFilter,
    V_true: SteeringMatrix,
    h_left,
    h_right,
    noise: NoiseModel,
) -> EarValues:
    """Normalized reproduction error of a filter against a truth model.

    Returns the per-ear ratio of expected squared binaural error to
    expected target power; equals 1 exactly for zero weights.  The
    one-frequency view of :func:`evaluate_errors`.
    """
    h_left = np.asarray(h_left, complex)
    h_right = np.asarray(h_right, complex)
    if filt.left.shape[0] != V_true.num_mics:
        raise ContractError(
            f"filter length {filt.left.shape[0]} does not match "
            f"{V_true.num_mics} microphones"
        )
    for name, h in (("left", h_left), ("right", h_right)):
        if h.ndim != 1 or h.shape[0] != V_true.num_directions:
            raise ContractError(
                f"{name} HRTF row length {h.shape} does not match "
                f"{V_true.num_directions} steering directions"
            )
    return EarValues(
        *evaluate_errors(
            np.stack([filt.left, filt.right])[None],
            V_true.entries[None],
            np.stack([h_left, h_right])[None],
            noise,
        )[0]
    )


def evaluate_errors(
    c: np.ndarray, V: np.ndarray, h: np.ndarray, noise: NoiseModel
) -> np.ndarray:
    """Normalized errors (F, E) of weights c (F, E, M) against truth
    steering V (F, M, Q) and targets h (F, E, Q)."""
    resid = c.conj() @ V - h
    num = noise.sigma_s_sq * _sq_norm(resid) + noise.sigma_n_sq * _sq_norm(c)
    den = noise.sigma_s_sq * _sq_norm(h)
    if np.any(den == 0.0):
        raise DegenerateTargetError("target HRTF row has zero norm")
    return num / den


def _sq_norm(x: np.ndarray) -> np.ndarray:
    return np.sum(x.real**2 + x.imag**2, axis=-1)


def monte_carlo_mse(
    filt: BsmFilter,
    V_true: SteeringMatrix,
    h_left,
    h_right,
    noise: NoiseModel,
    trials: int,
    seed: int,
) -> EarValues:
    """Sample estimate of the normalized reproduction error.

    Draws i.i.d. circular complex Gaussian source and noise vectors, forms
    microphone signals x = V s + n, targets p = h^T s and estimates
    c^H x, and returns mean |p - p_hat|^2 / mean |p|^2 per ear.
    Deterministic for a given seed.
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    h_left = np.asarray(h_left, complex)
    h_right = np.asarray(h_right, complex)
    V = V_true.entries
    m, q = V.shape
    rng = np.random.default_rng(seed)
    s_scale = math.sqrt(noise.sigma_s_sq / 2.0)
    n_scale = math.sqrt(noise.sigma_n_sq / 2.0)
    num = np.zeros(2)
    den = np.zeros(2)
    remaining = trials
    while remaining > 0:
        t = min(remaining, _MC_CHUNK)
        remaining -= t
        s = s_scale * (rng.standard_normal((q, t)) + 1j * rng.standard_normal((q, t)))
        n = n_scale * (rng.standard_normal((m, t)) + 1j * rng.standard_normal((m, t)))
        x = V @ s + n
        for i, (c, h) in enumerate(((filt.left, h_left), (filt.right, h_right))):
            p = h @ s
            p_hat = c.conj() @ x
            num[i] += np.sum(np.abs(p - p_hat) ** 2)
            den[i] += np.sum(np.abs(p) ** 2)
    if np.any(den == 0.0):
        raise DegenerateTargetError("sampled target power is zero")
    return EarValues(num[0] / den[0], num[1] / den[1])
