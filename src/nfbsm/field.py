"""Acoustic pressure on and around a rigid sphere.

The total field for a point source at distance r_s from the center of a
rigid sphere of radius r_a, observed at radius r with r_a <= r <= r_s, is
the truncated series

    p = -i k sum_n (2n+1) h_n^{(2)}(k r_s) b_n(k r) P_n(cos Theta),

    b_n(k r) = j_n(k r) - j_n'(k r_a) / h_n^{(2)'}(k r_a) h_n^{(2)}(k r),

where Theta is the angle between the source and observation directions.
The degree sum over spherical harmonics has been collapsed with the
addition theorem; the explicit double sum costs O(N^2) per point and is
kept as a cross-check in the test suite.  Without the scatterer the series
sums to the free-field Green's form e^{-ikR}/R, which fixes the source
amplitude convention.

The unit-amplitude plane wave (incidence direction pointing toward the
source) is the source at infinity: the point source with its spherical
spreading e^{-ik r_s}/r_s divided out, as r_s -> inf.  With the ratios
g_n = h_n / h_{n-1} (h = h^{(2)}), which the upward recurrence g_0 = i,
g_{n+1} = (2n+1)/x - 1/g_n gives stably,

    h_n(x) = (e^{-ix}/x) prod_{m<=n} g_m(x),    h_n'/h_n = 1/g_n - (n+1)/x,

so the point-source coefficient over e^{-ik r_s}/r_s is
(2n+1) b_n(k r) (-i prod_{m<=n} g_m(k r_s)).  At x = inf the recurrence
gives g_n = i exactly, and this is the plane-wave coefficient
i^n (2n+1) b_n(k r) bit for bit; one formula serves both sources, and
each is multiplied by e^{-ik r_s}/r_s, exactly 1 at inf.  The limit is
reached through a finite sum: with x = k r_s,

    h_n^{(2)}(x) = i^{n+1} e^{-ix}/x R_n(x),
    R_n(x) = sum_{m=0..n} (n+m)! / (m! (n-m)!) (-i/(2x))^m,

so the normalized point-source coefficient is exactly the plane-wave
coefficient times R_n(k r_s) = 1 - i n(n+1)/(2 k r_s) + ..., and it
approaches the plane wave as 1/r_s.  Every function here spells the plane
wave as the source distance ``math.inf``.

On the surface (r = r_a, where the sweep evaluates every field) no Bessel
function is evaluated; this is the range-dependent sphere model of Duda &
Martens (JASA 1998).  The Wronskian j_n h_n' - j_n' h_n = -i/x^2 gives
b_n(x_a) = -i / (x_a^2 h_n'(x_a)) with x_a = k r_a, so the coefficient
over the spreading is

    -(2n+1) e^{i x_a} prod_{m<=n} (g_m(x_s)/g_m(x_a)) / (x_a/g_n(x_a) - (n+1)),

whose product of ratios decays like (r_a/r_s)^n and is kept as one
cumulative product: apart, prod g_m(x_s) overflows and prod 1/g_m(x_a)
underflows at high order and small argument.  Off the surface (r > r_a,
reached only through the pressure functions) scipy's j_n and y_n,
imported on first use, give b_n(k r) alone.  There y_n(x) grows like
(2n-1)!!/x^(n+1) and overflows at high order and small argument, which
raises DomainError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateFieldError, DomainError, ValidationError
from .sphmath import Direction, cos_angle_between, legendre_basis, require_order


@dataclass(frozen=True)
class RigidSphere:
    """Rigid scatterer approximating a human head."""

    radius_m: float
    speed_of_sound_mps: float = 343.0

    def __post_init__(self):
        if not (_is_real(self.radius_m) and 0.0 < self.radius_m < math.inf):
            raise ValidationError("sphere radius must be positive")
        if not (_is_real(self.speed_of_sound_mps) and 0.0 < self.speed_of_sound_mps < math.inf):
            raise ValidationError("speed of sound must be positive")

    def wavenumber(self, frequency_hz: float | np.ndarray) -> float | np.ndarray:
        """k = 2 pi f / c, elementwise for an array of frequencies."""
        return 2.0 * math.pi * frequency_hz / self.speed_of_sound_mps


@dataclass(frozen=True)
class SourcePosition:
    """A point source at some distance from the sphere center;
    ``math.inf`` is the plane wave arriving from ``direction``."""

    distance_m: float
    direction: Direction

    def __post_init__(self):
        if not _is_positive_real(self.distance_m):
            raise ValidationError("source distance must be positive")


@dataclass(frozen=True)
class FieldPoint:
    """An observation point at or outside the sphere surface."""

    radius_m: float
    direction: Direction

    def __post_init__(self):
        if not (_is_real(self.radius_m) and 0.0 < self.radius_m < math.inf):
            raise ValidationError("field point radius must be positive")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: not a string, a bool or None."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_positive_real(value) -> bool:
    """Whether ``value`` is a real number above zero, infinity included."""
    return _is_real(value) and value > 0.0


def free_field_factor(k, distance_m):
    """Spherical spreading e^{-ikr}/r of a free-field point source, element
    by element over broadcast k and r; exactly 1 at r = ``math.inf``."""
    r = np.asarray(distance_m, float)
    at_inf = r == math.inf
    x, r = np.where(at_inf, 0.0, r), np.where(at_inf, 1.0, r)  # e^{-ik 0}/1 at inf
    return np.exp(-1j * np.asarray(k, float) * x) / r


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
def modal_coefficients(
    sphere: RigidSphere,
    k,
    field_radius_m: float,
    order: int,
    source_distance_m: float | np.ndarray = math.inf,
) -> np.ndarray:
    """Per-order coefficients a_n of the Legendre series of the field.

    The pressure at cosine c of the source/observation angle is
    sum_n a_n P_n(c).  ``source_distance_m`` is a point source's distance,
    or a 1-D array of S of them for one stacked call; ``math.inf`` (the
    default) is the unit-amplitude plane wave, the source at infinity
    (see the module docstring); every source carries its free-field factor
    e^{-ik r_s}/r_s, exactly 1 at infinity.  A stacked call computes the
    sphere side (g_n(k r_a), or b_n(k r) off the surface) once for all S.

    Parameters
    ----------
    k : float or 1-D array
        Wavenumber(s) in rad/m, all > 0.
    field_radius_m : float
        Observation radius r, with sphere.radius_m <= r (and r <= every
        source distance).
    order : int
        Truncation order N of the series.

    Returns
    -------
    ndarray
        Shape (order+1,) for scalar k, else (order+1, len(k)); a distance
        array prepends its axis: (S, order+1) or (S, order+1, len(k)).

    Raises
    ------
    DomainError
        For non-positive wavenumbers, a source distance that is NaN or
        not a scalar or 1-D, an observation radius outside [r_a, r_s], or
        coefficients that overflow (off the surface, at high order and
        small k r).
    """
    order = require_order(order)
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if np.any(k <= 0.0) or not np.all(np.isfinite(k)):
        raise DomainError("wavenumber must be positive and finite")
    r_s = np.asarray(source_distance_m, float)
    if r_s.ndim > 1:
        raise DomainError("source distances must be a scalar or a 1-D array")
    if np.isnan(r_s).any():  # None reads as nan
        raise DomainError(
            "source distance is NaN; it must lie strictly outside the sphere"
        )
    stacked = r_s.ndim == 1
    r_s = np.atleast_1d(r_s)
    _check_field_radius(sphere, field_radius_m, r_s)

    n = np.arange(order + 1)[:, None]
    x_a = k * sphere.radius_m
    # one (S, N+1, F) buffer: g_n(k r_s), then the coefficients in place
    coeffs = _hankel_ratios(k * r_s[:, None], order)
    if field_radius_m <= sphere.radius_m * (1.0 + 1e-12):
        # the stack takes two multiplies by (N+1, F) factors, formed first
        inv_g_a = 1.0 / _hankel_ratios(x_a, order)
        coeffs *= inv_g_a
        np.cumprod(coeffs, axis=1, out=coeffs)  # one product: see the module docstring
        # numpy can round a*b and b*a differently for complex arrays, so
        # each factor keeps its side of the formula in the module docstring
        factor = -(2 * n + 1) * np.exp(1j * x_a) / (x_a * inv_g_a - (n + 1))
        np.multiply(factor, coeffs, out=coeffs)
    else:
        np.cumprod(coeffs, axis=1, out=coeffs)
        np.multiply(-1j, coeffs, out=coeffs)
        b = _bessel_radial(n, x_a, k * field_radius_m)
        np.multiply((2 * n + 1) * b, coeffs, out=coeffs)
    coeffs *= free_field_factor(k, r_s[:, None])[:, None]
    if not np.all(np.isfinite(coeffs)):
        # Off the surface y_n(x) grows like (2n-1)!!/x^(n+1), so it
        # overflows at high order and small argument.
        raise DomainError(
            f"modal coefficients overflow at order {order} "
            f"(smallest k*r_a = {float(np.min(x_a)):.3g}); "
            "raise the frequency or lower the order"
        )
    coeffs = coeffs if stacked else coeffs[0]
    return coeffs[..., 0] if scalar else coeffs


def _hankel_ratios(x, order):
    """g_n = h_n^{(2)}(x) / h_{n-1}^{(2)}(x) for n = 0..order at x of shape
    S + (F,), as shape S + (order+1, F), by the upward recurrence
    g_{n+1} = (2n+1)/x - 1/g_n from g_0 = i, which is stable for the
    outgoing Hankel function.  At x = inf every g_n is i exactly."""
    g = np.empty(x.shape[:-1] + (order + 1, x.shape[-1]), complex)
    g[..., 0, :] = 1j
    for m in range(order):
        g[..., m + 1, :] = (2 * m + 1) / x - 1 / g[..., m, :]
    return g


def _bessel_radial(n, x_a, x):
    """b_n(x) at x = k r off the surface, from scipy's j_n and y_n."""
    from scipy import special

    jn_a_p = special.spherical_jn(n, x_a, derivative=True)
    h2_a_p = jn_a_p - 1j * special.spherical_yn(n, x_a, derivative=True)
    jn_x = special.spherical_jn(n, x)
    h2_x = jn_x - 1j * special.spherical_yn(n, x)
    # h_n(x) / h_n'(x_a) first: j_n'(x_a) / h_n'(x_a) underflows at high order
    return jn_x - jn_a_p * (h2_x / h2_a_p)


def pressure_at_cosines(
    sphere: RigidSphere,
    cosines,
    k,
    field_radius_m: float,
    order: int,
    source_distance_m: float = math.inf,
) -> np.ndarray:
    """Field evaluated at an array of source/observation angle cosines.

    A view of :func:`surface_field`, the complex field assembled from its
    real planes.  Returns shape ``cosines.shape`` for
    scalar k, or ``cosines.shape + (len(k),)`` for a 1-D array of
    wavenumbers.
    """
    coeffs = modal_coefficients(
        sphere, k, field_radius_m, order, source_distance_m
    )
    c = np.asarray(cosines, dtype=float)
    x = surface_field(legendre_basis(c, order), coeffs.reshape(order + 1, -1))
    p = x[:, 0] + 1j * x[:, 1]
    return np.moveaxis(p, 0, -1).reshape(c.shape + coeffs.shape[1:])


def surface_field(
    basis: np.ndarray, a: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The Legendre sum sum_n a_n P_n(c) of the field series, as real planes.

    ``basis`` holds P_0..P_N at some cosines, shape S + (N+1,), real, and
    ``a`` the complex modal coefficients (N+1, F).  Returns the float64
    planes of shape (F, 2) + S, frequency first: ``[:, 0]`` the real part
    of the field and ``[:, 1]`` its imaginary part.  For S = (R, C)
    receivers by columns they reshape, without a copy, to the (F, 2R, C)
    rows Re p, then Im p, that design and scoring read.  One real GEMM
    forms them: each frequency's coefficients as the two rows
    [Re a_f; Im a_f] times the transposed basis, half the flops of the
    complex product on the basis cast to complex (the test suite checks
    that the two agree bit for bit).

    Given ``out``, a float64 array of that shape whose (2F, size of S)
    rows are one strided view (a slab of some receiver rows of a larger
    field, say), the GEMM writes into it and it is returned; an ``out``
    of another shape, or one that cannot take the rows without a copy,
    is a ContractError.
    """
    shape = basis.shape[:-1]
    a2 = np.stack([a.real.T, a.imag.T], axis=1).reshape(-1, a.shape[0])
    b = basis.reshape(-1, basis.shape[-1]).T
    if out is None:
        return (a2 @ b).reshape((-1, 2) + shape)
    if out.shape != (a.shape[1], 2) + shape:
        raise ContractError(f"out shape {out.shape} is not {(a.shape[1], 2) + shape}")
    rows = out.reshape(a2.shape[0], b.shape[1])
    if not np.may_share_memory(rows, out):
        raise ContractError("out cannot take the field rows without a copy")
    np.matmul(a2, b, out=rows)
    return out


def point_source_pressure(
    sphere: RigidSphere,
    source: SourcePosition,
    point: FieldPoint,
    k: float,
    order: int,
) -> complex:
    """Total pressure at ``point`` due to a point source near the sphere,
    or to the plane wave when ``source.distance_m`` is ``math.inf``.

    The source amplitude convention makes the free-field limit equal to
    e^{-ikR}/R with R the source/observation separation.

    Raises
    ------
    DomainError
        If the source is not outside the sphere, the observation point lies
        inside the sphere or beyond the source radius (the interior
        expansion is invalid there), or k <= 0.
    """
    cosine = cos_angle_between(source.direction, point.direction)
    return complex(
        pressure_at_cosines(
            sphere, cosine, float(k), point.radius_m, order, source.distance_m
        )
    )


def plane_wave_pressure(
    sphere: RigidSphere,
    incidence: Direction,
    point: FieldPoint,
    k: float,
    order: int,
) -> complex:
    """Total pressure at ``point`` for a unit plane wave arriving from
    ``incidence``: the source at infinity.  Depends on the two directions
    only through their included angle."""
    return point_source_pressure(
        sphere, SourcePosition(math.inf, incidence), point, k, order
    )


def dvf(
    sphere: RigidSphere,
    near_distance_m: float,
    far_distance_m: float,
    eval_direction: Direction,
    source_direction: Direction,
    k: float,
    order: int,
) -> complex:
    """Pressure ratio on the sphere surface between a source at the near
    distance and one at the far distance, same observation point.

    Both distances must exceed the sphere radius; the observation point is
    on the surface (r = r_a).
    """
    cosine = cos_angle_between(source_direction, eval_direction)
    return complex(
        dvf_at_cosines(sphere, cosine, near_distance_m, far_distance_m, k, order)
    )


def dvf_at_cosines(
    sphere: RigidSphere,
    cosines,
    near_distance_m: float,
    far_distance_m: float,
    k,
    order: int,
):
    """Vectorized distance variation function over angle cosines.

    Shapes follow :func:`pressure_at_cosines`, through which both
    distances meet the exterior-source rule of :func:`modal_coefficients`.
    """
    num = pressure_at_cosines(
        sphere, cosines, k, sphere.radius_m, order, source_distance_m=near_distance_m
    )
    den = pressure_at_cosines(
        sphere, cosines, k, sphere.radius_m, order, source_distance_m=far_distance_m
    )
    return dvf_ratio(num, den)


def dvf_ratio(near: np.ndarray, far: np.ndarray) -> np.ndarray:
    """The DVF from the near- and far-source fields at the same points."""
    if np.any(np.abs(far) < 1e-300):
        raise DegenerateFieldError(
            "far-source field vanished at an evaluation point"
        )
    return near / far


def _check_field_radius(sphere, field_radius_m, source_distance_m):
    """The one exterior-source check of every field evaluation (each
    reaches it through :func:`modal_coefficients`), naming the offending
    distance: r_a <= r <= r_s, where the interior expansion is valid."""
    if field_radius_m < sphere.radius_m * (1.0 - 1e-12):
        raise DomainError(
            "field point lies inside the sphere "
            f"(r={field_radius_m!r} < r_a={sphere.radius_m!r})"
        )
    if not np.all(source_distance_m > sphere.radius_m):
        raise DomainError(
            "source must lie strictly outside the sphere "
            f"(r_s={float(np.min(source_distance_m))!r} <= r_a={sphere.radius_m!r})"
        )
    if np.any(field_radius_m > source_distance_m * (1.0 + 1e-12)):
        raise DomainError(
            "field point lies beyond the source radius "
            f"(r={field_radius_m!r} > r_s={float(np.min(source_distance_m))!r})"
        )
