"""Binaural signal matching: steering matrices, regularized MSE-optimal
filter design, and closed-form reproduction error with a Monte-Carlo
cross-check.

The narrowband model is x = V s + n with an M x Q steering matrix V,
i.i.d. source signals of unit power and white noise of power sigma_n^2.
Target ear signals are p = h^T s; the estimate is c^H x.  The MSE-optimal
weights solve

    c = (V V^H + lambda I_M)^{-1} V h^*,    lambda = sigma_n^2,

and the normalized reproduction error of any weight vector, its expected
squared error over the expected target power, also sees lambda alone:

    eps = (||V^T c^* - h||^2 + lambda ||c||^2) / ||h||^2.

Both are computed by one batched engine over stacks of frequencies that
works on real planes: the real parts of the microphone and target rows,
then their imaginary parts, as one (F, 2R, Q) float array, the layout
:func:`nfbsm.field.surface_field` returns.  The design forms the rows of
X X^T it reads by one GEMM and assembles the complex normal equations
from their blocks; the scoring forms every residual as one real product,
streamed a block of frequencies at a time through one small buffer, so
its memory does not grow with the number of filters.  Both check their
small results, not X, for a non-finite operand.  The sweep calls the
engine on its field planes; :func:`design_weights` and
:func:`evaluate_errors` are its complex views over stacks, and
:func:`design_filter` and :func:`evaluate_error` its one-frequency views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DegenerateTargetError,
    NumericalRankError,
    ValidationError,
)
from .field import RigidSphere, surface_pressure
# cos_angle_between stays bound: bench/test_bench.py traces it through bsm.
from .sphmath import Direction, cos_angle_between, cosine_matrix  # noqa: F401
from .sphmath import _is_real, require_integer

_DEFAULT_MIC_AZIMUTHS_DEG = (30.0, 80.0, 280.0, 330.0)
# Monte-Carlo trials drawn per batch, bounding the sample arrays' memory.
_MC_CHUNK = 4096
# Scoring forms its (F, 2KE, Q) residual a block of frequencies at a time,
# in about this many bytes whatever K and F; at one evaluation column a
# block holds thousands of frequencies, so there is one block.
_RESIDUAL_BYTES = 256 * 1024


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


@dataclass(frozen=True, kw_only=True)
class NoiseModel:
    """Noise power per microphone against sources of unit power, so it is
    the regularization lambda itself.  Keyword-only: ``NoiseModel(0.01)``
    once set a signal power and is refused with TypeError."""

    sigma_n_sq: float = 0.01

    def __post_init__(self):
        if not (_is_real(self.sigma_n_sq) and 0.0 <= self.sigma_n_sq < math.inf):
            raise ValidationError("noise power must be non-negative and finite")

    @property
    def regularization(self) -> float:
        """lambda = sigma_n^2."""
        return self.sigma_n_sq


@dataclass(frozen=True, eq=False)
class SteeringMatrix:
    """M x Q array response at one frequency."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, complex))
        if self.entries.ndim != 2:
            raise ValidationError("steering entries must be a 2-D matrix")
        if not np.all(np.isfinite(self.entries)):
            raise ValidationError("steering entries must be finite")

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
    at microphone m for incidence direction q: the source at infinity."""
    return steering_matrix_nearfield(array, directions, math.inf, k, order)


def steering_matrix_nearfield(
    array: ArrayGeometry,
    directions,
    source_distance_m: float,
    k: float,
    order: int,
) -> SteeringMatrix:
    """Near-field steering matrix for point sources at one distance.

    Entry (m, q) is the point-source response at microphone m for a source
    at (direction q, source_distance_m) per unit free-field pressure,
    ``field.surface_pressure`` on ``sphmath.cosine_matrix``: they carry no
    bulk spreading factor e^{-ik r_s}/r_s (1 at ``math.inf``), so entries
    converge to the far-field steering matrix as the distance
    grows and the noise-to-signal regularization keeps the same meaning
    across distances.

    The normalized entries differ from far-field steering by exactly the
    factor R_n(k r_s) on each order n (see the ``field`` module), with
    R_n = 1 - i n(n+1)/(2 k r_s) + O((k r_s)^-2).  The deviation therefore
    falls as 1/r_s: about 1.04% at 100 m and 10 kHz on the default
    experiment array, about 0.104% at 1 km.
    """
    cosines = cosine_matrix(array.mic_directions, tuple(directions))
    return SteeringMatrix(
        surface_pressure(array.sphere, cosines, float(k), order, source_distance_m)
    )


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
    h = _ear_rows(V, h_left, h_right)
    return BsmFilter(*design_weights(V.entries[None], h[None], noise)[0])


def _ear_rows(V: SteeringMatrix, h_left, h_right, filt: BsmFilter | None = None):
    """The (2, Q) ear rows as one array, after checking each row against
    the Q steering directions and, given a filter, its length against the
    M microphones; ContractError on a mismatch."""
    if filt is not None and filt.left.shape[0] != V.num_mics:
        raise ContractError(
            f"filter length {filt.left.shape[0]} does not match "
            f"{V.num_mics} microphones"
        )
    rows = np.asarray(h_left, complex), np.asarray(h_right, complex)
    for name, h in zip(("left", "right"), rows):
        if h.ndim != 1 or h.shape[0] != V.num_directions:
            raise ContractError(
                f"{name} HRTF row length {h.shape} does not match "
                f"{V.num_directions} steering directions"
            )
    return np.stack(rows)


def design_weights(V: np.ndarray, h: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """MSE-optimal weights at every frequency at once.

    ``V`` is an (F, M, Q) stack of steering matrices and ``h`` an (F, E, Q)
    stack of target rows (E = 2 for the ears).  Returns the (F, E, M)
    weights solving (V V^H + lambda I) c = V h^* per frequency and row.
    A view of :func:`_weights_from_planes`, the design the sweep runs,
    on the real planes of V and h.
    """
    return _weights_from_planes(_planes(V, h), V.shape[1], noise.regularization)


def _planes(V: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The (F, 2R, Q) real planes of steering V (F, M, Q) and targets
    h (F, E, Q): rows Re V, Re h, Im V, Im h, with R = M + E receivers."""
    return np.concatenate([V.real, h.real, V.imag, h.imag], axis=1)


def _weights_from_planes(X: np.ndarray, m: int, lam: float) -> np.ndarray:
    """MSE-optimal weights (F, E, M) from the (F, 2R, Q) real planes of a
    stack of fields: the real parts of R = M + E receiver rows, then their
    imaginary parts, the M microphones first in each and the E targets
    after them, and the regularization lam = lambda.

    The microphone rows of X X^T give every block of the conjugate system
    (V^* V^T + lambda I) c^* = V^* h^T: with A = V^* [V; h]^T assembled as
    (Re Re^T + Im Im^T) + i (Re Im^T - Im Re^T) on those rows, its first
    M columns are the Gram matrix and the rest the right-hand side.  Those
    rows, :M and R : R + M, lie in the first R + M rows of X, so one GEMM
    forms them (all of X X^T runs BLAS syrk per frequency, at half the rate).
    Where some Gram matrix is numerically singular (the one test,
    :func:`_rank_deficient`), lambda is too small to regularize it and
    NumericalRankError is raised; otherwise each is Hermitian positive
    definite, and the batched LU solve meets no zero pivot.  Only the small
    solution is conjugated back; a non-finite entry in it is a
    ValidationError.
    """
    r = X.shape[1] // 2
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        G = X[:, : r + m] @ X.swapaxes(-1, -2)
        re, im = G[:, :m], G[:, r : r + m]
        A = (re[..., :r] + im[..., r:]) + 1j * (re[..., r:] - im[..., :r])
    gram = A[..., :m] + lam * np.eye(m)
    if _rank_deficient(gram, lam):
        raise NumericalRankError(
            f"V V^H + lambda I is rank deficient: lambda = {lam:g} is too "
            "small to regularize it"
        )
    c = np.linalg.solve(gram, A[..., m:]).conj().swapaxes(-1, -2)
    if not np.all(np.isfinite(c)):
        raise ValidationError("filter weights must be finite")
    return c


def _rank_deficient(gram: np.ndarray, lam: float) -> bool:
    """Whether some Gram matrix G = V V^H + lambda I of the (F, M, M) stack is
    numerically singular: its Cholesky factorization fails, or a pivot is at
    most M eps d_max, d_max its largest diagonal entry.  Each pivot is at
    least lambda_min(G) >= lambda, and the computed factor is exact for G + dG,
    ||dG||_2 <= M gamma_{M+1} d_max (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thms 10.3, 10.7): where lambda > 2 M (M + 2) eps d_max
    at every frequency the test is False, and no factorization is run."""
    m, eps = gram.shape[-1], np.finfo(float).eps
    scale = gram.diagonal(axis1=-2, axis2=-1).real.max(axis=-1)
    if np.all(lam > 2 * m * (m + 2) * eps * scale):  # False for a NaN or inf d_max
        return False
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:  # not numerically positive definite
        return True
    pivots = chol.diagonal(axis1=-2, axis2=-1).real ** 2
    return bool(np.any(pivots.min(axis=-1) <= m * eps * scale))


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
    h = _ear_rows(V_true, h_left, h_right, filt)
    c = np.stack([filt.left, filt.right])
    return EarValues(*evaluate_errors(c[None], V_true.entries[None], h[None], noise)[0])


def evaluate_errors(
    c: np.ndarray, V: np.ndarray, h: np.ndarray, noise: NoiseModel
) -> np.ndarray:
    """Normalized errors of weights c against truth steering V (F, M, Q)
    and targets h (F, E, Q).

    ``c`` is one filter (F, E, M), giving errors (F, E), or a stack of K
    filters (F, K, E, M), giving (F, K, E).  A view of
    :func:`_errors_from_planes`, the scoring the sweep runs, on the real
    planes of V and h.
    """
    c = np.asarray(c)
    stacked = c.ndim == 4
    eps = _errors_from_planes(c if stacked else c[:, None], _planes(V, h), noise.regularization)
    return eps if stacked else eps[:, 0]


def _errors_from_planes(c: np.ndarray, X: np.ndarray, lam: float) -> np.ndarray:
    """Normalized errors (F, K, E) of K stacked filters c (F, K, E, M) on
    the (F, 2R, Q) real planes X of the truth pairs (laid out as for
    :func:`_weights_from_planes`).

    The residual c^H V - h of every filter and ear is one real product
    W X: W (F, 2KE, 2R) holds Re c and Im c on the microphone rows and -I
    on the target rows, so the real and imaginary parts of the residual
    come out as real rows.  W is built once; the product and its squared
    row norms are formed a block of frequencies at a time in one buffer of
    ``_RESIDUAL_BYTES``, or of one frequency's residual where that is
    larger, so the memory of scoring does not grow with K or F.  Each
    error is (||residual||^2 + lam ||c||^2) / ||h||^2, lam being lambda,
    so zero weights give exactly 1; a non-finite error is a ValidationError.
    """
    f, k, e, m = c.shape
    r = m + e
    w = np.zeros((f, 2, k, e, 2, r))
    w[:, 0, :, :, 0, :m] = w[:, 1, :, :, 1, :m] = c.real
    w[:, 0, :, :, 1, :m] = c.imag
    w[:, 1, :, :, 0, :m] = -c.imag
    w[:, 0, :, :, 0, m:] = w[:, 1, :, :, 1, m:] = -np.eye(e)
    w = w.reshape(f, 2 * k * e, 2 * r)
    # frequencies a block: as many (2KE, Q) residuals as the budget holds
    step = max(1, _RESIDUAL_BYTES // max(1, X.itemsize * w.shape[1] * X.shape[-1]))
    resid = np.empty((min(step, f), w.shape[1], X.shape[-1]))
    sq = np.empty(w.shape[:2])
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        for i in range(0, f, step):  # real rows, then imaginary
            j = min(i + step, f)
            sq[i:j] = _sq_rows(np.matmul(w[i:j], X[i:j], out=resid[: j - i]))
        sq = sq.reshape(f, 2, k, e).sum(axis=1)
        norm_c = _sq_rows(c.real) + _sq_rows(c.imag)
        num = sq + lam * norm_c
        den = _sq_rows(X.reshape(f, 2, r, -1)[:, :, m:]).sum(axis=1)
        if np.any(den == 0.0):
            raise DegenerateTargetError("target HRTF row has zero norm")
        eps = num / den[:, None]
    if not np.all(np.isfinite(eps)):
        raise ValidationError("reproduction errors must be finite")
    return eps


def _sq_rows(x: np.ndarray) -> np.ndarray:
    """Squared norms of real rows, over the last axis."""
    return np.einsum("...i,...i->...", x, x)


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

    Draws i.i.d. circular complex Gaussian sources of unit power and noise
    of power ``noise.sigma_n_sq``, forms microphone signals x = V s + n,
    targets p = h^T s and estimates c^H x, and returns
    mean |p - p_hat|^2 / mean |p|^2 per ear.  Deterministic for a given seed.
    """
    if require_integer("trials", trials) < 1:
        raise ValidationError("trials must be at least 1")
    h = _ear_rows(V_true, h_left, h_right, filt)
    if not np.all(np.isfinite(h)):
        raise ValidationError("HRTF rows must be finite")
    V = V_true.entries
    m, q = V.shape
    rng = np.random.default_rng(seed)
    s_scale = math.sqrt(0.5)
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
        for i, (c, row) in enumerate(zip((filt.left, filt.right), h)):
            p = row @ s
            p_hat = c.conj() @ x
            num[i] += np.sum(np.abs(p - p_hat) ** 2)
            den[i] += np.sum(np.abs(p) ** 2)
    if np.any(den == 0.0):
        raise DegenerateTargetError("sampled target power is zero")
    return EarValues(num[0] / den[0], num[1] / den[1])
