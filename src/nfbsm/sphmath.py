"""Spherical Bessel/Hankel functions, their derivatives, and complex
orthonormal spherical harmonics.

Conventions
-----------
Time dependence is e^{+i omega t}, so outgoing waves carry the spherical
Hankel function of the second kind h_n^{(2)} = j_n - i y_n and a free-field
point source decays as e^{-ikr}/r.

Spherical harmonics are orthonormal and include the Condon-Shortley phase,

    Y_n^m(theta, phi) = sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!)
                        P_n^m(cos theta) e^{i m phi},

with theta the elevation measured from the +z axis and phi the azimuth
measured from +x toward +y.  Any consistent convention would do, since the
harmonics only ever enter through conjugate pairs Y_n^m(A)^* Y_n^m(B).

The special functions wrap scipy.special, imported on the first call:
the sweep needs none of them, so importing the package and running a
sweep never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, UnsupportedOrderError, ValidationError

#: Highest order accepted.  The experiments need 30.  The cap
#: bounds the series length only.  On the sphere surface, where every
#: sweep evaluates, :func:`nfbsm.field.modal_coefficients` uses no y_n and
#: nothing overflows at any order up to the cap.  Off the surface
#: (r > r_a) it evaluates y_n, which overflows at small arguments (order
#: 64 below ~0.5 Hz at r = 0.1 m); that is reported as a DomainError.
DEFAULT_MAX_ORDER = 64

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """A direction on the unit sphere.

    Parameters
    ----------
    theta : float
        Elevation in radians, measured from the +z axis, in [0, pi].
    phi : float
        Azimuth in radians from +x toward +y.  Stored normalized to
        [0, 2 pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or not math.isfinite(self.phi):
            raise ValidationError("direction angles must be finite")
        if self.theta < 0.0 or self.theta > math.pi:
            raise ValidationError(
                f"theta must lie in [0, pi], got {self.theta!r}"
            )
        object.__setattr__(self, "phi", self.phi % _TWO_PI)

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float) -> "Direction":
        return cls(math.radians(theta_deg), math.radians(phi_deg))

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (x, y, z) for this direction."""
        st = math.sin(self.theta)
        return np.array(
            [
                st * math.cos(self.phi),
                st * math.sin(self.phi),
                math.cos(self.theta),
            ]
        )


def cos_angle_between(a: Direction, b: Direction) -> float:
    """Cosine of the angle between two directions, the one cosine formula:
    a float for two Directions, broadcast over ``theta``/``phi`` arrays."""
    st = np.sin(a.theta) * np.sin(b.theta)
    c = np.cos(a.theta) * np.cos(b.theta) + st * np.cos(a.phi - b.phi)
    return np.clip(c, -1.0, 1.0)


def cosine_matrix(rows, cols) -> np.ndarray:
    """Cosines (len(rows), len(cols)) between every pair of directions, the
    one builder of receiver-by-source cosines: one call of
    :func:`cos_angle_between` on rows as (R, 1) and columns as (C,) arrays."""
    return _cosines(_angles(rows), _angles(cols))


def _angles(dirs) -> np.ndarray:
    """The (n, 2) rows (theta, phi) of a sequence of directions."""
    return np.array([(d.theta, d.phi) for d in dirs], float).reshape(-1, 2)


def _cosines(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The body of :func:`cosine_matrix` on (n, 2) rows (theta, phi)."""
    rows = SimpleNamespace(theta=rows[:, :1], phi=rows[:, 1:])  # (R, 1)
    return cos_angle_between(rows, SimpleNamespace(theta=cols[:, 0], phi=cols[:, 1]))


def require_order(n: int) -> int:
    """Validate an order index, returning it unchanged."""
    n = int(n)
    if n < 0:
        raise ValidationError(f"order must be non-negative, got {n}")
    if n > DEFAULT_MAX_ORDER:
        raise UnsupportedOrderError(
            f"order {n} exceeds the supported maximum {DEFAULT_MAX_ORDER}"
        )
    return n


def _radial(name, n, x, evaluate, zero_ok=False):
    """The one body of the radial wrappers below: the order and domain
    checks (x > 0, or x >= 0 with ``zero_ok``), the scipy import and
    ``evaluate(special, n, x)``; a Python float or complex for scalar x."""
    n = require_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or (not zero_ok and np.any(x == 0.0)):
        raise DomainError(f"{name} requires x {'>=' if zero_ok else '>'} 0")
    from scipy import special
    out = evaluate(special, n, x)
    return out if out.ndim else out.item()


def spherical_bessel_j(n: int, x):
    """Spherical Bessel function of the first kind j_n(x).

    Parameters
    ----------
    n : int
        Order, 0 <= n <= DEFAULT_MAX_ORDER.
    x : float or array_like
        Non-negative argument.

    Returns
    -------
    float or ndarray
        j_n(x); j_0(0) = 1 and j_n(0) = 0 for n > 0.
    """
    return _radial(
        "spherical_bessel_j", n, x, lambda sp, n, x: sp.spherical_jn(n, x),
        zero_ok=True,
    )


def spherical_bessel_y(n: int, x):
    """Spherical Bessel function of the second kind y_n(x) for x > 0."""
    return _radial(
        "spherical_bessel_y", n, x, lambda sp, n, x: sp.spherical_yn(n, x)
    )


def spherical_hankel2(n: int, x):
    """Spherical Hankel function of the second kind,
    h_n^{(2)}(x) = j_n(x) - i y_n(x), for x > 0."""
    return _radial(
        "spherical_hankel2", n, x,
        lambda sp, n, x: sp.spherical_jn(n, x) - 1j * sp.spherical_yn(n, x),
    )


def spherical_bessel_j_prime(n: int, x):
    """Derivative j_n'(x) with respect to the argument, for x > 0."""
    return _radial(
        "spherical_bessel_j_prime", n, x,
        lambda sp, n, x: sp.spherical_jn(n, x, derivative=True),
    )


def spherical_hankel2_prime(n: int, x):
    """Derivative of h_n^{(2)} with respect to the argument, for x > 0."""
    return _radial(
        "spherical_hankel2_prime", n, x,
        lambda sp, n, x: sp.spherical_jn(n, x, derivative=True)
        - 1j * sp.spherical_yn(n, x, derivative=True),
    )


def sph_harm(n: int, m: int, theta, phi):
    """Complex orthonormal spherical harmonic Y_n^m(theta, phi).

    Parameters
    ----------
    n, m : int
        Order and degree with |m| <= n.
    theta, phi : float or array_like
        Elevation from +z and azimuth from +x, in radians.

    Returns
    -------
    complex or ndarray
        Y_n^m including the Condon-Shortley phase, satisfying
        Y_n^{-m} = (-1)^m conj(Y_n^m).
    """
    n = require_order(n)
    m = int(m)
    if abs(m) > n:
        raise ValidationError(f"degree |m| <= n required, got n={n}, m={m}")
    from scipy import special
    out = special.sph_harm_y(n, m, np.asarray(theta, float), np.asarray(phi, float))
    return out if out.ndim else complex(out)


def legendre_basis(cosines, order: int):
    """Legendre polynomials P_0..P_order evaluated at the given cosines.

    Returns an array of shape cosines.shape + (order+1,).  This is the
    angular factor after collapsing the degree sum of a product of
    spherical harmonics with the addition theorem,

        sum_m Y_n^m(A)^* Y_n^m(B) = (2n+1)/(4 pi) P_n(cos angle(A, B)).
    """
    order = require_order(order)
    c = np.asarray(cosines, dtype=float)
    if np.any(np.abs(c) > 1.0 + 1e-12):
        raise DomainError("cosines must lie in [-1, 1]")
    c = np.clip(c, -1.0, 1.0)
    return np.polynomial.legendre.legvander(c, order)
