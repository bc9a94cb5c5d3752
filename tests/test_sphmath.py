"""Special-function tests against independent oracles: an extended
precision power series for j_n, the upward y_n recurrence from closed
forms, finite differences for derivatives, and closed-form harmonics."""

import math

import mpmath as mp
import numpy as np
import pytest

from nfbsm import field, sphmath
from nfbsm.errors import DomainError, UnsupportedOrderError, ValidationError

mp.mp.dps = 50


def series_bessel_j(n, x):
    """Truncated power series for j_n(x) in 50-digit arithmetic."""
    x = mp.mpf(x)
    total = mp.mpf(0)
    for s in range(300):
        term = (-1) ** s * x ** (n + 2 * s) / (
            2**s * mp.factorial(s) * mp.fac2(2 * n + 2 * s + 1)
        )
        total += term
        if abs(term) < mp.mpf("1e-45") * max(abs(total), mp.mpf(1)):
            break
    return float(total)


def recurrence_bessel_y(n, x):
    """Upward recurrence for y_n from the closed-form y_0, y_1."""
    y0 = -math.cos(x) / x
    if n == 0:
        return y0
    y1 = -math.cos(x) / x**2 - math.sin(x) / x
    for m in range(1, n):
        y0, y1 = y1, (2 * m + 1) / x * y1 - y0
    return y1


class TestSphericalBesselJ:
    def test_zero_argument_limits(self):
        assert sphmath.spherical_bessel_j(0, 0.0) == 1.0
        for n in (1, 2, 7, 30):
            assert sphmath.spherical_bessel_j(n, 0.0) == 0.0

    def test_j0_zero_at_pi(self):
        assert abs(sphmath.spherical_bessel_j(0, math.pi)) < 1e-12

    def test_frozen_series_value(self):
        # series oracle value for j_5(2), computed at 50 digits
        assert sphmath.spherical_bessel_j(5, 2.0) == pytest.approx(
            0.002635169770244117349, rel=1e-10
        )

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(0, 31))
            x = float(rng.uniform(0.05, 40.0))
            expected = series_bessel_j(n, x)
            got = sphmath.spherical_bessel_j(n, x)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-280)

    def test_order_above_max(self):
        with pytest.raises(UnsupportedOrderError):
            sphmath.spherical_bessel_j(65, 1.0)

    def test_negative_order_and_argument(self):
        with pytest.raises(ValidationError):
            sphmath.spherical_bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            sphmath.spherical_bessel_j(0, -0.5)


class TestSphericalHankel2:
    def test_closed_form_order_zero(self):
        # h_0^{(2)}(x) = i e^{-ix} / x
        got = sphmath.spherical_hankel2(0, math.pi / 2)
        assert abs(got - 2.0 / math.pi) < 1e-12

    def test_real_part_is_j0(self):
        got = sphmath.spherical_hankel2(0, 1.0)
        assert got.real == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_against_y_recurrence_oracle(self):
        got = sphmath.spherical_hankel2(10, 5.0)
        expected = complex(series_bessel_j(10, 5.0), -recurrence_bessel_y(10, 5.0))
        assert abs(got - expected) / abs(expected) < 1e-9
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(0, 31))
            x = float(rng.uniform(0.5, 60.0))
            expected = complex(series_bessel_j(n, x), -recurrence_bessel_y(n, x))
            got = sphmath.spherical_hankel2(n, x)
            assert abs(got - expected) / abs(expected) < 1e-9

    def test_singular_at_zero(self):
        with pytest.raises(DomainError):
            sphmath.spherical_hankel2(0, 0.0)


class TestDerivatives:
    def test_j0_prime_closed_form(self):
        # j_0' = -j_1, and j_1(pi) = -cos(pi)/pi
        got = sphmath.spherical_bessel_j_prime(0, math.pi)
        assert abs(got - math.cos(math.pi) / math.pi) < 1e-12

    def test_central_difference_oracle(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(25):
            n = int(rng.integers(0, 25))
            x = float(rng.uniform(0.5, 50.0))
            fd_j = (
                sphmath.spherical_bessel_j(n, x + h)
                - sphmath.spherical_bessel_j(n, x - h)
            ) / (2 * h)
            got_j = sphmath.spherical_bessel_j_prime(n, x)
            assert got_j == pytest.approx(fd_j, rel=1e-6, abs=1e-12)
            fd_h = (
                sphmath.spherical_hankel2(n, x + h)
                - sphmath.spherical_hankel2(n, x - h)
            ) / (2 * h)
            got_h = sphmath.spherical_hankel2_prime(n, x)
            assert abs(got_h - fd_h) / abs(got_h) < 1e-6

    def test_j1_prime_small_argument_limit(self):
        assert sphmath.spherical_bessel_j_prime(1, 1e-4) == pytest.approx(
            1.0 / 3.0, abs=1e-8
        )


class TestSphHarm:
    def test_constant_mode(self):
        for theta, phi in ((0.3, 1.0), (2.0, 5.5), (math.pi / 2, 0.0)):
            got = sphmath.sph_harm(0, 0, theta, phi)
            assert abs(got - 0.28209479177387814) < 1e-14

    def test_closed_form_n1(self):
        assert sphmath.sph_harm(1, 0, 0.0, 0.0).real == pytest.approx(
            0.4886025119029199, rel=1e-13
        )
        got = sphmath.sph_harm(1, 1, math.pi / 2, 0.0)
        assert got == pytest.approx(-0.34549414947133547927 + 0j, abs=1e-13)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(0, 31))
            m = int(rng.integers(0, n + 1))
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            lhs = sphmath.sph_harm(n, -m, theta, phi)
            rhs = (-1) ** m * np.conj(sphmath.sph_harm(n, m, theta, phi))
            assert abs(lhs - rhs) < 1e-13

    def test_addition_theorem(self):
        rng = np.random.default_rng(15)
        for n in range(31):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            total = sum(
                abs(sphmath.sph_harm(n, m, theta, phi)) ** 2
                for m in range(-n, n + 1)
            )
            assert total == pytest.approx((2 * n + 1) / (4 * math.pi), abs=1e-10)

    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            sphmath.sph_harm(2, 3, 0.1, 0.1)


class TestRecurrenceAndWronskian:
    def test_wronskian_identity(self):
        # j_n y_n' - j_n' y_n = 1/x^2, with y_n' from the downward
        # identity y_n' = y_{n-1} - (n+1)/x y_n and y_{-1}(x) = sin(x)/x
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(0, 31))
            x = float(rng.uniform(0.1, 400.0))
            y_prev = (
                sphmath.spherical_bessel_y(n - 1, x) if n > 0 else math.sin(x) / x
            )
            yp = y_prev - (n + 1) / x * sphmath.spherical_bessel_y(n, x)
            w = (
                sphmath.spherical_bessel_j(n, x) * yp
                - sphmath.spherical_bessel_j_prime(n, x)
                * sphmath.spherical_bessel_y(n, x)
            )
            assert w == pytest.approx(1.0 / x**2, rel=1e-10)

    def test_three_term_recurrence(self):
        # f_{n+1} = (2n+1)/x f_n - f_{n-1}, checked against the dominant
        # term scale wherever all magnitudes exceed 1e-30
        rng = np.random.default_rng(17)
        for fn in (sphmath.spherical_bessel_j, sphmath.spherical_bessel_y):
            for _ in range(100):
                n = int(rng.integers(1, 30))
                x = float(rng.uniform(0.1, 400.0))
                f_prev, f_mid, f_next = (fn(n - 1, x), fn(n, x), fn(n + 1, x))
                if min(abs(f_prev), abs(f_mid), abs(f_next)) < 1e-30:
                    continue
                lhs = f_next
                rhs = (2 * n + 1) / x * f_mid - f_prev
                scale = max(abs(f_next), abs((2 * n + 1) / x * f_mid), abs(f_prev))
                assert abs(lhs - rhs) / scale < 1e-9


class TestDirection:
    def test_phi_normalized(self):
        d = sphmath.Direction(1.0, 3 * math.pi)
        assert d.phi == pytest.approx(math.pi)
        assert 0.0 <= sphmath.Direction(1.0, -0.1).phi < 2 * math.pi

    def test_invalid_theta(self):
        with pytest.raises(ValidationError):
            sphmath.Direction(-0.01, 0.0)
        with pytest.raises(ValidationError):
            sphmath.Direction(math.pi + 0.01, 0.0)

    def test_cos_angle(self):
        a = sphmath.Direction.from_degrees(90, 0)
        b = sphmath.Direction.from_degrees(90, 90)
        assert sphmath.cos_angle_between(a, b) == pytest.approx(0.0, abs=1e-15)
        assert isinstance(sphmath.cos_angle_between(a, b), float)
        assert sphmath.cos_angle_between(a, a) == pytest.approx(1.0)

    def test_cosine_matrix_matches_pairwise_cosines(self):
        def dirs(*pairs):
            return [sphmath.Direction.from_degrees(t, p) for t, p in pairs]

        rows = dirs((90, 30), (10, 200), (170, 5))
        cols = dirs((0, 0), (45, 80), (90, 260), (120, 330), (180, 10))
        got = sphmath.cosine_matrix(rows, cols)
        assert got.shape == (3, 5)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                assert got[i, j] == sphmath.cos_angle_between(r, c)
        assert sphmath.cosine_matrix(rows, []).shape == (3, 0)
        assert sphmath.cosine_matrix([], cols).shape == (0, len(cols))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: sphmath.Direction(math.nan, 0.0), ValidationError,
         "^direction angles must be finite$"),
        (lambda: sphmath.Direction(1.0, math.inf), ValidationError,
         "^direction angles must be finite$"),
        # an angle is a real number: a text or a bool is not one
        (lambda: sphmath.Direction("0.5", 0.0), ValidationError,
         "^direction angles must be finite$"),
        (lambda: sphmath.Direction(True, 0.0), ValidationError,
         "^direction angles must be finite$"),
        (lambda: sphmath.legendre_basis([0.5, 1.001], 4), DomainError,
         r"^cosines must lie in \[-1, 1\]$"),
        (lambda: sphmath.legendre_basis(-1.0 - 1e-9, 4), DomainError,
         r"^cosines must lie in \[-1, 1\]$"),
        (lambda: sphmath.legendre_basis([math.nan, 0.5], 2), DomainError,
         r"^cosines must lie in \[-1, 1\]$"),
        # an order is an integer: it is not truncated, and a bool or a text is not one
        (lambda: sphmath.legendre_basis([0.5], 2.9), ValidationError,
         "^order must be an integer, got 2.9$"),
        (lambda: field.modal_coefficients(field.RigidSphere(0.1), 10.0, 0.1, 3.5),
         ValidationError, "^order must be an integer, got 3.5$"),
        (lambda: sphmath.require_order(True), ValidationError,
         "^order must be an integer, got True$"),
        (lambda: sphmath.require_order("7"), ValidationError,
         "^order must be an integer, got '7'$"),
        # so is a degree
        (lambda: sphmath.sph_harm(2, 1.7, 0.3, 0.2), ValidationError,
         "^degree must be an integer, got 1.7$"),
        (lambda: sphmath.sph_harm(2, True, 0.3, 0.2), ValidationError,
         "^degree must be an integer, got True$"),
    ],
    ids=["theta_nan", "phi_inf", "theta_text", "theta_bool", "cosine_above_1",
         "cosine_below_-1", "cosine_nan", "order_float", "modal_order_float", "order_bool",
         "order_text", "degree_float", "degree_bool"],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize(
    "name",
    ["spherical_bessel_j", "spherical_bessel_y", "spherical_hankel2",
     "spherical_bessel_j_prime", "spherical_hankel2_prime"],
)
def test_radial_functions_reject_a_nan_argument(name):
    with pytest.raises(DomainError, match=f"^{name} requires x >=? 0$"):
        getattr(sphmath, name)(2, [1.0, math.nan])


def test_numpy_integer_order_is_an_order():
    assert sphmath.require_order(np.int64(7)) == 7
    assert type(sphmath.require_order(np.int64(7))) is int
