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
only a point source is multiplied by e^{-ik r_s}/r_s.  The limit is
reached through a finite sum: with x = k r_s,

    h_n^{(2)}(x) = i^{n+1} e^{-ix}/x R_n(x),
    R_n(x) = sum_{m=0..n} (n+m)! / (m! (n-m)!) (-i/(2x))^m,

so the normalized point-source coefficient is exactly the plane-wave
coefficient times R_n(k r_s) = 1 - i n(n+1)/(2 k r_s) + ..., and it
approaches the plane wave as 1/r_s.

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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError, DomainError, ValidationError
from .sphmath import (
    DEFAULT_MAX_ORDER,
    Direction,
    cos_angle_between,
    legendre_basis,
    require_order,
)


@dataclass(frozen=True)
class RigidSphere:
    """Rigid scatterer approximating a human head."""

    radius_m: float
    speed_of_sound_mps: float = 343.0

    def __post_init__(self):
        if not (self.radius_m > 0.0 and math.isfinite(self.radius_m)):
            raise ValidationError("sphere radius must be positive")
        if not (self.speed_of_sound_mps > 0.0 and math.isfinite(self.speed_of_sound_mps)):
            raise ValidationError("speed of sound must be positive")

    def wavenumber(self, frequency_hz: float | np.ndarray) -> float | np.ndarray:
        """k = 2 pi f / c, elementwise for an array of frequencies."""
        return 2.0 * math.pi * frequency_hz / self.speed_of_sound_mps


@dataclass(frozen=True)
class SourcePosition:
    """A point source at finite distance from the sphere center."""

    distance_m: float
    direction: Direction

    def __post_init__(self):
        if not (self.distance_m > 0.0 and math.isfinite(self.distance_m)):
            raise ValidationError("source distance must be positive")


@dataclass(frozen=True)
class FieldPoint:
    """An observation point at or outside the sphere surface."""

    radius_m: float
    direction: Direction

    def __post_init__(self):
        if not (self.radius_m > 0.0 and math.isfinite(self.radius_m)):
            raise ValidationError("field point radius must be positive")


def free_field_factor(k, distance_m):
    """Spherical spreading e^{-ikr}/r of a free-field point source."""
    return np.exp(-1j * np.asarray(k, float) * distance_m) / distance_m


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
def modal_coefficients(
    sphere: RigidSphere,
    k,
    field_radius_m: float,
    order: int,
    source_distance_m: float | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> np.ndarray:
    """Per-order coefficients a_n of the Legendre series of the field.

    The pressure at cosine c of the source/observation angle is
    sum_n a_n P_n(c).  With ``source_distance_m`` set the coefficients
    describe a point source, otherwise a unit-amplitude plane wave, the
    source at infinity (see the module docstring).

    Parameters
    ----------
    k : float or 1-D array
        Wavenumber(s) in rad/m, all > 0.
    field_radius_m : float
        Observation radius r, with sphere.radius_m <= r (and r <= source
        distance for point sources).
    order : int
        Truncation order N of the series.

    Returns
    -------
    ndarray
        Shape (order+1,) for scalar k, else (order+1, len(k)).

    Raises
    ------
    DomainError
        For non-positive wavenumbers, an observation radius outside
        [r_a, r_s], or coefficients that overflow (off the surface, at
        high order and small k r).
    """
    order = require_order(order, max_order)
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if np.any(k <= 0.0) or not np.all(np.isfinite(k)):
        raise DomainError("wavenumber must be positive and finite")
    # the plane wave is the source at infinity
    r_s = math.inf if source_distance_m is None else source_distance_m
    _check_field_radius(sphere, field_radius_m, r_s)

    n = np.arange(order + 1)[:, None]
    x_a = k[None, :] * sphere.radius_m
    g_s = _hankel_ratios(k[None, :] * r_s, order)
    if field_radius_m <= sphere.radius_m * (1.0 + 1e-12):
        g_a = _hankel_ratios(x_a, order)
        ratio = np.cumprod(g_s / g_a, axis=0)  # one product: see the module docstring
        coeffs = -(2 * n + 1) * np.exp(1j * x_a) * ratio / (x_a / g_a - (n + 1))
    else:
        b = _bessel_radial(n, x_a, k[None, :] * field_radius_m)
        coeffs = (2 * n + 1) * b * (-1j * np.cumprod(g_s, axis=0))
    if source_distance_m is not None:
        coeffs = coeffs * free_field_factor(k, source_distance_m)
    if not np.all(np.isfinite(coeffs)):
        # Off the surface y_n(x) grows like (2n-1)!!/x^(n+1), so it
        # overflows at high order and small argument.
        raise DomainError(
            f"modal coefficients overflow at order {order} "
            f"(smallest k*r_a = {float(np.min(x_a)):.3g}); "
            "raise the frequency or lower the order"
        )
    return coeffs[:, 0] if scalar else coeffs


def _hankel_ratios(x, order):
    """g_n = h_n^{(2)}(x) / h_{n-1}^{(2)}(x) for n = 0..order at x of shape
    (1, F), by the upward recurrence g_{n+1} = (2n+1)/x - 1/g_n from
    g_0 = i, which is stable for the outgoing Hankel function.  At
    x = inf every g_n is i exactly."""
    g = np.empty((order + 1, x.shape[1]), complex)
    g[0] = 1j
    for m in range(order):
        g[m + 1] = (2 * m + 1) / x[0] - 1 / g[m]
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
    source_distance_m: float | None = None,
) -> np.ndarray:
    """Field evaluated at an array of source/observation angle cosines.

    A view of :func:`surface_field`.  Returns shape ``cosines.shape`` for
    scalar k, or ``cosines.shape + (len(k),)`` for a 1-D array of
    wavenumbers.
    """
    coeffs = modal_coefficients(
        sphere, k, field_radius_m, order, source_distance_m
    )
    c = np.asarray(cosines, dtype=float)
    p = surface_field(legendre_basis(c, order), coeffs.reshape(order + 1, -1))
    return np.moveaxis(p, 0, -1).reshape(c.shape + coeffs.shape[1:])


def surface_field(basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The Legendre sum sum_n a_n P_n(c) of the field series.

    ``basis`` holds P_0..P_N at some cosines, shape S + (N+1,), and ``a``
    the modal coefficients (N+1, F).  Returns shape (F,) + S, frequency
    first, so stacks of steering matrices and ear fields index directly.
    """
    shape = basis.shape[:-1]
    return (a.T @ basis.reshape(-1, basis.shape[-1]).T).reshape((-1,) + shape)


def point_source_pressure(
    sphere: RigidSphere,
    source: SourcePosition,
    point: FieldPoint,
    k: float,
    order: int,
) -> complex:
    """Total pressure at ``point`` due to a point source near the sphere.

    The source amplitude convention makes the free-field limit equal to
    e^{-ikR}/R with R the source/observation separation.

    Raises
    ------
    DomainError
        If the observation point lies inside the sphere or beyond the
        source radius (the interior expansion is invalid there), or k <= 0.
    """
    if source.distance_m <= sphere.radius_m:
        raise DomainError("source must lie strictly outside the sphere")
    cosine = cos_angle_between(source.direction, point.direction)
    return complex(
        pressure_at_cosines(
            sphere,
            cosine,
            float(k),
            point.radius_m,
            order,
            source_distance_m=source.distance_m,
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
    ``incidence``.  Depends on the two directions only through their
    included angle."""
    cosine = cos_angle_between(incidence, point.direction)
    return complex(
        pressure_at_cosines(sphere, cosine, float(k), point.radius_m, order)
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

    Shapes follow :func:`pressure_at_cosines`.
    """
    for name, d in (("near", near_distance_m), ("far", far_distance_m)):
        if d <= sphere.radius_m:
            raise DomainError(
                f"{name} distance must exceed the sphere radius, got {d!r}"
            )
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
    # Interior expansion is valid for r_a <= r <= r_s only; reject instead
    # of extrapolating.
    if field_radius_m < sphere.radius_m * (1.0 - 1e-12):
        raise DomainError(
            "field point lies inside the sphere "
            f"(r={field_radius_m!r} < r_a={sphere.radius_m!r})"
        )
    if source_distance_m <= sphere.radius_m:
        raise DomainError("source must lie strictly outside the sphere")
    if field_radius_m > source_distance_m * (1.0 + 1e-12):
        raise DomainError(
            "field point lies beyond the source radius "
            f"(r={field_radius_m!r} > r_s={source_distance_m!r})"
        )
