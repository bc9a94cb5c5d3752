"""Rigid-sphere field tests.

The production path collapses the degree sum with the Legendre addition
theorem; the oracle here evaluates the explicit double sum over (n, m)
with scalar special functions, so the two share no evaluation code beyond
the radial factors' definitions.
"""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfbsm import field, sphmath
from nfbsm.errors import ContractError, DegenerateFieldError, DomainError, ValidationError
from nfbsm.field import FieldPoint, RigidSphere, SourcePosition
from nfbsm.sphmath import Direction

SPHERE = RigidSphere(0.1)


def bracket_term(n, k, r, ra):
    jp = sphmath.spherical_bessel_j_prime(n, k * ra)
    hp = sphmath.spherical_hankel2_prime(n, k * ra)
    return sphmath.spherical_bessel_j(n, k * r) - jp / hp * sphmath.spherical_hankel2(
        n, k * r
    )


def double_sum_pressure(sphere, src_dir, point, k, order, source_distance=math.inf):
    """Explicit (n, m) double sum with per-mode spherical harmonics."""
    total = 0.0 + 0.0j
    for n in range(order + 1):
        angular = sum(
            np.conj(sphmath.sph_harm(n, m, src_dir.theta, src_dir.phi))
            * sphmath.sph_harm(n, m, point.direction.theta, point.direction.phi)
            for m in range(-n, n + 1)
        )
        bn = bracket_term(n, k, point.radius_m, sphere.radius_m)
        if source_distance == math.inf:
            total += 4 * math.pi * (1j**n) * bn * angular
        else:
            total += (
                (1j ** (-(n + 1)))
                * k
                * sphmath.spherical_hankel2(n, k * source_distance)
                * 4
                * math.pi
                * (1j**n)
                * bn
                * angular
            )
    return total


def random_direction(rng):
    return Direction(
        math.acos(float(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * math.pi))
    )


def rotate_direction(rot, d):
    v = rot @ d.unit_vector()
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    return Direction(theta, math.atan2(v[1], v[0]) % (2 * math.pi))


class TestPointSourcePressure:
    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            src = SourcePosition(float(rng.uniform(0.15, 3.2)), random_direction(rng))
            pt = FieldPoint(0.1, random_direction(rng))
            k = SPHERE.wavenumber(float(rng.uniform(100, 4000)))
            got = field.point_source_pressure(SPHERE, src, pt, k, 20)
            expected = double_sum_pressure(
                SPHERE, src.direction, pt, k, 20, source_distance=src.distance_m
            )
            assert abs(got - expected) / abs(expected) < 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            src_dir = random_direction(rng)
            pt_dir = random_direction(rng)
            k = SPHERE.wavenumber(800.0)
            base = field.point_source_pressure(
                SPHERE, SourcePosition(0.5, src_dir), FieldPoint(0.1, pt_dir), k, 30
            )
            rot = field.point_source_pressure(
                SPHERE,
                SourcePosition(0.5, rotate_direction(q, src_dir)),
                FieldPoint(0.1, rotate_direction(q, pt_dir)),
                k,
                30,
            )
            assert abs(base - rot) / abs(base) < 1e-10

    def test_rigid_boundary_radial_derivative(self):
        # one-sided finite difference of the total field at the surface
        rng = np.random.default_rng(23)
        step = 1e-5 * SPHERE.radius_m
        for _ in range(8):
            src = SourcePosition(float(rng.uniform(0.15, 3.2)), random_direction(rng))
            pt_dir = random_direction(rng)
            k = SPHERE.wavenumber(float(rng.uniform(75, 10000)))
            p0 = field.point_source_pressure(
                SPHERE, src, FieldPoint(SPHERE.radius_m, pt_dir), k, 30
            )
            p1 = field.point_source_pressure(
                SPHERE, src, FieldPoint(SPHERE.radius_m + step, pt_dir), k, 30
            )
            assert abs((p1 - p0) / step) < 1e-3 * abs(k * p0)

    def test_far_field_limit_against_plane_wave(self):
        rng = np.random.default_rng(24)
        rs = 100.0
        for f in (200.0, 1000.0, 4000.0):
            k = SPHERE.wavenumber(f)
            src_dir = random_direction(rng)
            pt = FieldPoint(0.1, random_direction(rng))
            pp = field.point_source_pressure(
                SPHERE, SourcePosition(rs, src_dir), pt, k, 30
            )
            pw = field.plane_wave_pressure(SPHERE, src_dir, pt, k, 30)
            assert abs(rs * cmath.exp(1j * k * rs) * pp - pw) / abs(pw) < 0.01

    def test_far_field_consistency_decreases_with_distance(self):
        mics = [Direction.from_degrees(90, az) for az in (30, 80, 280, 330)]
        src_dir = Direction.from_degrees(70, 120)
        k = SPHERE.wavenumber(4000.0)
        sups = []
        for rs in (10.0, 100.0, 1000.0):
            errs = []
            for m in mics:
                pp = field.point_source_pressure(
                    SPHERE, SourcePosition(rs, src_dir), FieldPoint(0.1, m), k, 30
                )
                pw = field.plane_wave_pressure(SPHERE, src_dir, FieldPoint(0.1, m), k, 30)
                errs.append(abs(rs * cmath.exp(1j * k * rs) * pp - pw) / abs(pw))
            sups.append(max(errs))
        assert sups[0] > sups[1] > sups[2]

    def test_validity_region(self):
        src = SourcePosition(0.5, Direction(1.0, 0.0))
        with pytest.raises(DomainError):
            field.point_source_pressure(SPHERE, src, FieldPoint(0.05, Direction(1, 0)), 10.0, 20)
        with pytest.raises(DomainError):
            field.point_source_pressure(SPHERE, src, FieldPoint(0.6, Direction(1, 0)), 10.0, 20)
        with pytest.raises(DomainError):
            field.point_source_pressure(SPHERE, src, FieldPoint(0.1, Direction(1, 0)), -1.0, 20)
        with pytest.raises(DomainError):
            field.point_source_pressure(
                SPHERE, SourcePosition(0.05, Direction(1, 0)), FieldPoint(0.1, Direction(1, 0)), 10.0, 20
            )

    def test_truncation_convergence(self):
        # The tail of the series at the sphere surface decays with the
        # order margin over k r_a.  Below 1 kHz the paper-grade order 30
        # is converged to 1e-6 for every experiment distance; toward
        # 10 kHz (k r_a = 18.3) the 30-to-40 change grows to the 1e-4
        # level at 3.2 m and 2e-3 at 0.15 m, and shrinks again with
        # further order increases.
        pt_dir = Direction.from_degrees(90, 100)
        src_dir = Direction.from_degrees(60, 20)
        for rs in (0.15, 0.2, 0.5, 3.2):
            for f in (75.0, 400.0, 1000.0):
                k = SPHERE.wavenumber(f)
                src = SourcePosition(rs, src_dir)
                p30 = field.point_source_pressure(SPHERE, src, FieldPoint(0.1, pt_dir), k, 30)
                p40 = field.point_source_pressure(SPHERE, src, FieldPoint(0.1, pt_dir), k, 40)
                assert abs(p40 - p30) / abs(p40) < 1e-6
        for rs in (0.15, 0.2, 0.5, 3.2):
            for f in (5000.0, 10000.0):
                k = SPHERE.wavenumber(f)
                src = SourcePosition(rs, src_dir)
                p30 = field.point_source_pressure(SPHERE, src, FieldPoint(0.1, pt_dir), k, 30)
                p40 = field.point_source_pressure(SPHERE, src, FieldPoint(0.1, pt_dir), k, 40)
                p60 = field.point_source_pressure(SPHERE, src, FieldPoint(0.1, pt_dir), k, 60)
                assert abs(p40 - p30) / abs(p60) < 5e-3
                assert abs(p60 - p40) < abs(p40 - p30) + 1e-15 * abs(p60)


class TestPlaneWavePressure:
    def test_long_wavelength_limit(self):
        k = 1e-4 / SPHERE.radius_m
        for phi in (0.0, 2.0, 4.0):
            got = field.plane_wave_pressure(
                SPHERE, Direction(1.2, phi), FieldPoint(0.1, Direction(1.5, 1.0)), k, 30
            )
            assert abs(got - 1.0) < 1e-3

    def test_depends_only_on_included_angle(self):
        k = SPHERE.wavenumber(3000.0)
        a = field.plane_wave_pressure(
            SPHERE,
            Direction.from_degrees(90, 0),
            FieldPoint(0.1, Direction.from_degrees(90, 40)),
            k,
            30,
        )
        b = field.plane_wave_pressure(
            SPHERE,
            Direction.from_degrees(50, 200),
            FieldPoint(0.1, Direction.from_degrees(90, 200)),
            k,
            30,
        )
        assert abs(a - b) / abs(a) < 1e-10

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            inc = random_direction(rng)
            pt = FieldPoint(0.1, random_direction(rng))
            k = SPHERE.wavenumber(float(rng.uniform(100, 6000)))
            got = field.plane_wave_pressure(SPHERE, inc, pt, k, 25)
            expected = double_sum_pressure(SPHERE, inc, pt, k, 25)
            assert abs(got - expected) / abs(expected) < 1e-10

    @pytest.mark.parametrize("r", [0.1, 0.13])
    def test_is_the_point_source_at_infinity(self, r):
        rng = np.random.default_rng(26)
        for _ in range(5):
            inc, pt = random_direction(rng), FieldPoint(r, random_direction(rng))
            k = SPHERE.wavenumber(float(rng.uniform(100, 6000)))
            at_infinity = SourcePosition(math.inf, inc)
            assert field.plane_wave_pressure(SPHERE, inc, pt, k, 25) == (
                field.point_source_pressure(SPHERE, at_infinity, pt, k, 25)
            )


class TestDvf:
    def test_identity_at_equal_distances(self):
        k = SPHERE.wavenumber(700.0)
        got = field.dvf(
            SPHERE, 1.3, 1.3, Direction(1.0, 2.0), Direction(0.5, 0.1), k, 30
        )
        assert abs(got - 1.0) < 1e-12

    def test_telescoping(self):
        k = SPHERE.wavenumber(1200.0)
        e, s = Direction.from_degrees(90, 100), Direction.from_degrees(80, 30)
        full = field.dvf(SPHERE, 0.2, 3.2, e, s, k, 30)
        step = field.dvf(SPHERE, 0.2, 1.0, e, s, k, 30) * field.dvf(
            SPHERE, 1.0, 3.2, e, s, k, 30
        )
        assert abs(full - step) / abs(full) < 1e-10

    def test_close_source_boosts_aligned_point(self):
        # high-order evaluation; proximity raises the ipsilateral level
        k = SPHERE.wavenumber(500.0)
        aligned = Direction.from_degrees(90, 0)
        got = field.dvf(SPHERE, 0.25, 3.2, aligned, aligned, k, 40)
        assert abs(got) > 1.0

    def test_distance_domain(self):
        k = SPHERE.wavenumber(500.0)
        with pytest.raises(DomainError):
            field.dvf(SPHERE, 0.05, 3.2, Direction(1, 0), Direction(1, 0), k, 30)
        with pytest.raises(DomainError):
            field.dvf(SPHERE, 0.3, 0.09, Direction(1, 0), Direction(1, 0), k, 30)


    @pytest.mark.parametrize(
        "near, far, match",
        [
            (None, 3.2, "^source distance is NaN"),
            (0.3, None, "^source distance is NaN"),
            (0.05, 3.2, r"\(r_s=0\.05 <= r_a=0\.1\)$"),
            (0.3, 0.1, r"\(r_s=0\.1 <= r_a=0\.1\)$"),
        ],
        ids=["near_none", "far_none", "near_inside", "far_on_surface"],
    )
    def test_each_distance_meets_the_exterior_source_rule(self, near, far, match):
        k, d = SPHERE.wavenumber(500.0), Direction(1.0, 0.0)
        with pytest.raises(DomainError, match=match):
            field.dvf(SPHERE, near, far, d, d, k, 30)
        with pytest.raises(DomainError, match=match):
            field.dvf_at_cosines(SPHERE, [0.5, -0.2], near, far, k, 30)

    def test_ratio_of_fields(self):
        near = np.array([[2.0 + 1.0j, -3.0], [0.5j, 1.0]])
        far = np.array([[1.0j, 2.0], [4.0, -1.0 + 1.0j]])
        assert np.array_equal(field.dvf_ratio(near, far), near / far)

    def test_ratio_rejects_vanishing_far_field(self):
        far = np.array([1.0 + 0.0j, 0.0, 2.0j])
        with pytest.raises(DegenerateFieldError):
            field.dvf_ratio(np.ones(3, complex), far)


class TestModalCoefficients:
    def test_vectorized_over_wavenumber(self):
        ks = np.array([10.0, 50.0, 200.0])
        table = field.modal_coefficients(SPHERE, ks, 0.1, 20, source_distance_m=0.5)
        assert table.shape == (21, 3)
        for i, k in enumerate(ks):
            single = field.modal_coefficients(SPHERE, float(k), 0.1, 20, 0.5)
            assert np.allclose(table[:, i], single, rtol=1e-14)

    @pytest.mark.parametrize("r", [0.1, 0.13])
    @pytest.mark.parametrize("k", [60.0, np.array([10.0, 50.0, 200.0])])
    def test_distance_array_matches_one_call_per_distance(self, k, r):
        distances = [3.2, math.inf, 0.15, 0.5]
        stack = field.modal_coefficients(SPHERE, k, r, 20, np.array(distances))
        assert stack.shape == (4, 21) + np.shape(k)
        for a, d in zip(stack, distances):
            one = field.modal_coefficients(SPHERE, k, r, 20, d)
            np.testing.assert_allclose(a, one, rtol=1e-15, atol=0.0)
        plane = field.modal_coefficients(SPHERE, k, r, 20, math.inf)
        assert np.array_equal(plane, stack[1])

    @pytest.mark.parametrize(
        "k, r, distances, match",
        [
            (-1.0, 0.1, [3.2, 0.5], "wavenumber"),
            (60.0, 0.05, [3.2, 0.5], "inside the sphere"),
            (60.0, 0.1, [3.2, 0.05], "strictly outside"),
            (60.0, 0.1, [3.2, math.nan], "strictly outside"),
            (60.0, 0.2, [3.2, math.inf, 0.15], "beyond the source radius"),
            (60.0, 0.1, [[3.2, 0.5]], "1-D"),
            (SPHERE.wavenumber(0.01), 0.2, [0.5, math.inf], "overflow"),
            (60.0, 0.1, None, "source distance is NaN"),
            (60.0, 0.1, math.nan, "source distance is NaN"),
            (60.0, 0.1, [math.nan, 3.2], "source distance is NaN"),
        ],
    )
    def test_distance_array_domain_errors(self, k, r, distances, match):
        with pytest.raises(DomainError, match=match):
            field.modal_coefficients(SPHERE, k, r, 64, np.array(distances))

    def test_none_is_not_a_plane_wave(self):
        # math.inf is the one spelling of the plane wave
        with pytest.raises(DomainError):
            field.modal_coefficients(SPHERE, 60.0, 0.1, 20, None)
        with pytest.raises(ValidationError):
            SourcePosition(None, Direction(1.0, 0.0))

    def test_free_field_matches_greens_function(self):
        # without the scatterer the series sums to e^{-ikR}/R; with it,
        # the amplitude convention is unchanged, so a far-side check at
        # low frequency recovers the free-field magnitude scale
        k = SPHERE.wavenumber(150.0)
        rs, cosang = 2.0, 1.0
        p = field.pressure_at_cosines(SPHERE, cosang, k, 0.1, 30, rs)
        R = rs - 0.1
        assert abs(abs(p) - 1.0 / R) / (1.0 / R) < 0.25


class TestFreeFieldFactor:
    # RuntimeWarnings are errors in this suite, so these calls must not warn

    @pytest.mark.parametrize("k", [60.0, np.array([10.0, 50.0, 200.0])])
    def test_is_exactly_one_at_infinity(self, k):
        ff = field.free_field_factor(k, math.inf)
        assert np.shape(ff) == np.shape(k)
        assert np.all(ff == 1.0)

    @pytest.mark.parametrize("k", [60.0, np.array([10.0, 50.0, 200.0])])
    def test_distance_array_matches_one_call_per_distance(self, k):
        distances = [3.2, math.inf, 0.15, 0.5]
        r = np.reshape(distances, (-1,) + (1,) * np.ndim(k))
        stack = field.free_field_factor(k, r)
        assert stack.shape == (4,) + np.shape(k)
        for ff, d in zip(stack, distances):
            assert np.array_equal(ff, field.free_field_factor(k, d))
        assert np.all(stack[1] == 1.0)


class TestSurfaceField:
    def test_planes_equal_the_complex_sum_bit_for_bit(self):
        """On the default sweep's receivers, grid, frequencies and source
        conditions, the real planes are exactly the complex Legendre sum,
        all frequencies in one product on the basis cast to complex."""
        from nfbsm.experiment import ExperimentConfig

        config = ExperimentConfig()
        sphere, order = config.sphere(), config.order
        receivers = config.array().mic_directions + config.ears().directions()
        cosines = sphmath.cosine_matrix(receivers, config.design_directions())
        basis = sphmath.legendre_basis(cosines, order)
        k = sphere.wavenumber(config.frequency_axis())
        sources = np.array([math.inf, config.reference_distance_m, *config.distances_m])
        for a in field.modal_coefficients(sphere, k, sphere.radius_m, order, sources):
            planes = field.surface_field(basis, a)
            assert planes.dtype == np.float64
            assert planes.shape == (len(k), 2) + cosines.shape
            complex_basis = basis.astype(complex).reshape(-1, order + 1)
            p = (a.T @ complex_basis.T).reshape((len(k),) + cosines.shape)
            assert np.array_equal(planes[:, 0], p.real)
            assert np.array_equal(planes[:, 1], p.imag)
            # the (F, 2R, C) rows design and scoring read are a view
            rows = planes.reshape(len(k), -1, cosines.shape[1])
            assert np.shares_memory(rows, planes)

    def test_out_takes_a_slab_of_receiver_rows_in_place(self):
        """Summed into a slab of rows of a larger buffer, the field is the
        allocated one bit for bit, and only the a_n rows are allocated;
        an ``out`` of another shape, or one whose rows are no single
        strided view, is a ContractError."""
        sphere, order = RigidSphere(0.1), 20
        receivers = tuple(
            Direction.from_degrees(90.0, az) for az in (30, 80, 100, 260, 280, 330)
        )
        grid = tuple(
            Direction.from_degrees(th, ph)
            for th in range(5, 180, 20)
            for ph in range(0, 360, 10)
        )
        basis = sphmath.legendre_basis(sphmath.cosine_matrix(receivers, grid), order)
        k = sphere.wavenumber(np.geomspace(100.0, 8000.0, 16))
        a = field.modal_coefficients(sphere, k, sphere.radius_m, order, 0.3)
        buffer = np.full((len(k), 2) + basis.shape[:-1], np.nan)
        for rows in (slice(None, 4), slice(4, None)):
            out = buffer[:, :, rows]
            tracemalloc.start()
            try:
                assert field.surface_field(basis[rows], a, out) is out
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes / 4
            np.testing.assert_array_equal(out, field.surface_field(basis[rows], a))
        assert not np.isnan(buffer).any()
        with pytest.raises(ContractError, match=r"^out shape \(16, 2, 3, 324\) is not"):
            field.surface_field(basis[:4], a, buffer[:, :, :3])
        copy = "^out cannot take the field rows without a copy$"
        with pytest.raises(ContractError, match=copy):
            field.surface_field(basis[:4, :10], a, buffer[:, :, :4, :10])


def mp_j(m, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(m + mp.mpf(0.5), x)


def mp_y(m, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.bessely(m + mp.mpf(0.5), x)


def mp_modal_coefficient(n, k, r, r_s):
    """a_n at radius r from the definition b_n = j_n(k r) - j_n'(k r_a) /
    h_n'(k r_a) h_n(k r), with mpmath's half-integer Bessel functions in
    40-digit arithmetic at the same double-precision arguments as the
    package."""
    with mp.workdps(40):

        def h2(m, x):
            return mp_j(m, x) - 1j * mp_y(m, x)

        def prime(f, m, x):
            return f(m - 1, x) - (m + 1) / x * f(m, x)

        x_a, x = mp.mpf(k * SPHERE.radius_m), mp.mpf(k * r)
        b = mp_j(n, x) - prime(mp_j, n, x_a) / prime(h2, n, x_a) * h2(n, x)
        if r_s == math.inf:
            return complex(mp.mpc(0, 1) ** n * (2 * n + 1) * b)
        return complex(-1j * mp.mpf(k) * (2 * n + 1) * h2(n, mp.mpf(k * r_s)) * b)


class TestModalOracle:
    """Modal coefficients against mpmath up to the order cap, for point
    sources and the plane wave: on the surface (Wronskian and Hankel-ratio
    recurrence) over k r_a and k r_s in [1e-5, 1e3], where coefficients
    below the double range may underflow, and off the surface, where
    scipy's j_n and y_n give b_n(k r)."""

    @staticmethod
    def check(n, k, r_s, r=SPHERE.radius_m):
        try:
            a = field.modal_coefficients(SPHERE, k, r, n, r_s)
        except DomainError:
            # only off the surface, where y_n(k r_a) leaves the double range
            assert r > SPHERE.radius_m
            assert abs(mp_y(n, mp.mpf(k * SPHERE.radius_m))) > 1e300
            return
        assert np.all(np.isfinite(a))
        ref = mp_modal_coefficient(n, k, r, r_s)
        assert abs(a[n] - ref) <= 1e-12 * abs(ref) + 1e-300

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 10, 30, 50, 64]),
        log_x=st.lists(st.floats(-5.0, 3.0), min_size=2, max_size=2, unique=True),
        plane_wave=st.booleans(),
        off_surface=st.booleans(),
        t=st.floats(0.0, 1.0),
    )
    def test_matches_mpmath(self, n, log_x, plane_wave, off_surface, t):
        x_a, x_s = sorted(10.0**v for v in log_x)
        ra = SPHERE.radius_m
        k = x_a / ra
        r_s = math.inf if plane_wave else x_s / k
        assume(r_s > ra)
        r = ra
        if off_surface:
            # r = r_a (1 + 10^u), u in [-9, log10(min(r_s, 2 r_a) / r_a - 1)]
            u_max = math.log10(min(r_s, 2 * ra) / ra - 1)
            assume(u_max >= -9.0)
            r = ra * (1 + 10.0 ** (-9.0 + t * (u_max + 9.0)))
            assume(r <= r_s)
        self.check(n, k, r_s, r)

    def test_stacked_call_matches_mpmath(self):
        # the sweep's path: S sources by F wavenumbers in one call, on the
        # surface, point sources and the plane wave mixed, every order
        sources = np.array([0.105, 0.3, math.inf, 3.2])
        k = SPHERE.wavenumber(np.array([75.0, 1000.0, 8000.0, 20000.0]))
        order = 30
        a = field.modal_coefficients(SPHERE, k, SPHERE.radius_m, order, sources)
        assert a.shape == (len(sources), order + 1, len(k))
        for (s, n, f), got in np.ndenumerate(a):
            ref = mp_modal_coefficient(n, k[f], SPHERE.radius_m, sources[s])
            assert abs(got - ref) <= 1e-12 * abs(ref), (sources[s], n, k[f])

    @pytest.mark.parametrize("r_s", [0.105, math.inf])
    def test_order_64_near_the_sphere(self, r_s):
        # near the sphere at low frequency, where j_n'(k r_a) / h_n'(k r_a)
        # underflows at order 64
        self.check(64, SPHERE.wavenumber(75.0), r_s)

    @pytest.mark.parametrize("r", [0.1 * (1 + 1e-9), 0.11, 0.2])
    def test_order_64_off_the_surface(self, r):
        # the same underflow, off the surface, where scipy's j_n and y_n
        # are evaluated
        k = SPHERE.wavenumber(75.0)
        a = field.modal_coefficients(SPHERE, k, r, 64, 0.3)
        ref = mp_modal_coefficient(64, k, r, 0.3)
        assert abs(a[64] - ref) <= 1e-12 * abs(ref)

    def test_off_surface_overflow_is_domain_error(self):
        # off the surface y_n is still evaluated; at order 64 and 0.01 Hz
        # it overflows
        source = SourcePosition(0.5, Direction(0.0, 0.0))
        point = FieldPoint(0.2, Direction(1.0, 0.5))
        k = SPHERE.wavenumber(0.01)
        with pytest.raises(DomainError, match="overflow at order 64"):
            field.point_source_pressure(SPHERE, source, point, k, 64)
        assert math.isfinite(abs(field.point_source_pressure(SPHERE, source, point, k, 20)))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: RigidSphere(0.0), "sphere radius must be positive"),
        (lambda: RigidSphere(math.inf), "sphere radius must be positive"),
        (lambda: RigidSphere(0.1, -343.0), "speed of sound must be positive"),
        (lambda: RigidSphere(0.1, math.nan), "speed of sound must be positive"),
        (lambda: FieldPoint(0.0, Direction(1.0, 0.0)), "field point radius must be positive"),
        (lambda: FieldPoint(math.inf, Direction(1.0, 0.0)),
         "field point radius must be positive"),
        # a radius and a speed are real numbers: a text or a bool is not one
        (lambda: RigidSphere("0.1"), "sphere radius must be positive"),
        (lambda: RigidSphere(True), "sphere radius must be positive"),
        (lambda: RigidSphere(0.1, "343"), "speed of sound must be positive"),
        (lambda: RigidSphere(0.1, True), "speed of sound must be positive"),
        (lambda: FieldPoint("0.2", Direction(1.0, 0.0)), "field point radius must be positive"),
        (lambda: FieldPoint(True, Direction(1.0, 0.0)), "field point radius must be positive"),
        # a distance is a real number: numpy would parse the text and the bool
        (lambda: SourcePosition("3.2", Direction(1.0, 0.0)),
         "source distance must be positive"),
        (lambda: SourcePosition(True, Direction(1.0, 0.0)),
         "source distance must be positive"),
    ],
    ids=["radius_zero", "radius_inf", "speed_negative", "speed_nan", "point_zero",
         "point_inf", "radius_text", "radius_bool", "speed_text", "speed_bool", "point_text",
         "point_bool", "source_text", "source_bool"],
)
def test_constructor_checks(build, match):
    with pytest.raises(ValidationError, match=f"^{match}$"):
        build()
