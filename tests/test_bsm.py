"""Steering, filter design, and error evaluation.

design_filter is cross-checked against the dual (kernel) form of the
Q-dimensional ridge problem, and evaluate_error against the Monte-Carlo
estimator, so the closed forms and the sampled expectations vouch for
each other.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfbsm import bsm, field
from nfbsm.bsm import (
    ArrayGeometry,
    BsmFilter,
    NoiseModel,
    SteeringMatrix,
    design_filter,
    design_weights,
    evaluate_error,
    monte_carlo_mse,
    steering_matrix_farfield,
    steering_matrix_nearfield,
)
from nfbsm.errors import (
    ContractError,
    DataError,
    DegenerateTargetError,
    NumericalRankError,
    ValidationError,
)
from nfbsm.experiment import fibonacci_directions
from nfbsm.field import FieldPoint, RigidSphere
from nfbsm.hrtf import HrtfSet
from nfbsm.sphmath import Direction, cosine_matrix

ARRAY = ArrayGeometry.default()
GRID = fibonacci_directions(240)


def random_instance(rng, m=4, q=240):
    v = (rng.standard_normal((m, q)) + 1j * rng.standard_normal((m, q))) / math.sqrt(2)
    h = (rng.standard_normal(q) + 1j * rng.standard_normal(q)) / math.sqrt(2)
    return v, h


def dual_form_weights(v, h, lam):
    """Kernel-form ridge solution of min ||V^T c* - h||^2 + lam ||c||^2."""
    a = v.T
    d = a.conj().T @ np.linalg.solve(a @ a.conj().T + lam * np.eye(a.shape[0]), h)
    return d.conj()


def wrap(v):
    return SteeringMatrix(v)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda t: SteeringMatrix(t.T), ValidationError),
        (lambda t: BsmFilter(t[:, 0], t[:, 1]), ValidationError),
        (
            lambda t: HrtfSet(
                GRID[:4], np.geomspace(500.0, 8000.0, 5), 3.2, t.T, t.T[:, ::-1]
            ),
            DataError,
        ),
    ],
    ids=["steering", "filter", "hrtf_set"],
)
def test_finiteness_checks_accept_strided_input(build, error):
    rng = np.random.default_rng(7)
    t = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    build(t)
    t[1, 0] = complex(np.nan, 0.0)
    with pytest.raises(error):
        build(t)


def operands_with_entry(value, operand):
    """One random frequency of (1, 4, 6) steering and (1, 2, 6) targets
    with ``value`` written into one entry of the steering (``"V"``) or
    target (``"h"``) operand."""
    v, h = random_instance(np.random.default_rng(8), q=6)
    operands = {"V": v[None].copy(), "h": np.stack([h, h])[None]}
    operands[operand][0, 1, 2] = value
    return operands["V"], operands["h"]


def weights_with_entry(value, operand):
    return design_weights(*operands_with_entry(value, operand), NoiseModel())


def monte_carlo_on(h, trials):
    v, _ = random_instance(np.random.default_rng(9), q=6)
    filt = BsmFilter(np.ones(4, complex), np.ones(4, complex))
    return monte_carlo_mse(filt, wrap(v), h, h, NoiseModel(), trials, seed=0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ArrayGeometry(RigidSphere(0.1), ()), ValidationError,
         "array needs at least one microphone"),
        # the noise power is the one field, by keyword only: a call that once
        # set the signal power cannot silently set lambda instead
        (lambda: NoiseModel(0.01), TypeError,
         r".*takes 1 positional argument but 2 were given"),
        (lambda: NoiseModel(1.0, 0.01), TypeError,
         r".*takes 1 positional argument but 3 were given"),
        (lambda: NoiseModel(sigma_s_sq=1.0), TypeError,
         r".*got an unexpected keyword argument 'sigma_s_sq'"),
        (lambda: NoiseModel(sigma_n_sq=-0.01), ValidationError,
         "noise power must be non-negative and finite"),
        (lambda: NoiseModel(sigma_n_sq=math.nan), ValidationError,
         "noise power must be non-negative and finite"),
        # a power is a real number: a text or a bool is not one
        (lambda: NoiseModel(sigma_n_sq="0.01"), ValidationError,
         "noise power must be non-negative and finite"),
        (lambda: NoiseModel(sigma_n_sq=True), ValidationError,
         "noise power must be non-negative and finite"),
        (lambda: NoiseModel(sigma_n_sq=False), ValidationError,
         "noise power must be non-negative and finite"),
        (lambda: SteeringMatrix(np.ones(4)), ValidationError,
         "steering entries must be a 2-D matrix"),
        (lambda: BsmFilter(np.ones(4), np.ones(3)), ValidationError,
         "filter weights must be equal-length vectors"),
        (lambda: weights_with_entry(np.nan, "V"), ValidationError,
         "filter weights must be finite"),
        (lambda: weights_with_entry(np.inf, "V"), ValidationError,
         "filter weights must be finite"),
        (lambda: weights_with_entry(np.nan, "h"), ValidationError,
         "filter weights must be finite"),
        (lambda: weights_with_entry(np.inf, "h"), ValidationError,
         "filter weights must be finite"),
        (lambda: evaluate_error(BsmFilter(np.ones(4), np.ones(4)),
                                SteeringMatrix(np.zeros((4, 0))), [], [], NoiseModel()),
         DegenerateTargetError, "target HRTF row has zero norm"),
        (lambda: monte_carlo_on(np.ones(6, complex), 0), ValidationError,
         "trials must be at least 1"),
        (lambda: monte_carlo_on(np.ones(6, complex), 1e3), ValidationError,
         r"trials must be an integer, got 1000\.0"),
        (lambda: monte_carlo_on(np.ones(6, complex), 10.5), ValidationError,
         r"trials must be an integer, got 10\.5"),
        (lambda: monte_carlo_on(np.ones(6, complex), True), ValidationError,
         "trials must be an integer, got True"),
        (lambda: monte_carlo_on(np.zeros(6, complex), 10), DegenerateTargetError,
         "sampled target power is zero"),
        (lambda: monte_carlo_on(np.array([1, 1, np.inf, 1, 1, 1], complex), 10),
         ValidationError, "HRTF rows must be finite"),
        (lambda: monte_carlo_on(np.array([1, 1, np.nan, 1, 1, 1], complex), 10),
         ValidationError, "HRTF rows must be finite"),
    ],
    ids=["no_mic", "power_positional", "powers_positional", "signal_keyword",
         "noise_negative", "noise_nan", "noise_text", "noise_bool", "noise_false",
         "steering_1d", "filter_lengths", "weights_nan_V", "weights_inf_V",
         "weights_nan_h", "weights_inf_h", "no_directions", "trials_zero", "trials_float",
         "trials_fraction", "trials_bool", "zero_target",
         "monte_carlo_inf_h", "monte_carlo_nan_h"],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=f"^{match}$"):
        call()


class TestSteeringFarfield:
    def test_columns_match_scalar_calls(self):
        k = ARRAY.sphere.wavenumber(2000.0)
        dirs = GRID[:7]
        sm = steering_matrix_farfield(ARRAY, dirs, k, 30)
        for q, d in enumerate(dirs):
            for m, mic in enumerate(ARRAY.mic_directions):
                direct = field.plane_wave_pressure(
                    ARRAY.sphere, d, FieldPoint(ARRAY.sphere.radius_m, mic), k, 30
                )
                assert abs(sm.entries[m, q] - direct) < 1e-13 * abs(direct)

    def test_shape(self):
        sm = steering_matrix_farfield(ARRAY, GRID, ARRAY.sphere.wavenumber(500.0), 30)
        assert sm.entries.shape == (4, 240)
        assert ARRAY.num_mics == sm.num_mics == 4

    def test_long_wavelength_limit(self):
        k = 1e-4 / ARRAY.sphere.radius_m
        sm = steering_matrix_farfield(ARRAY, GRID[:50], k, 30)
        assert np.all(np.abs(sm.entries - 1.0) < 1e-3)

    def test_is_nearfield_steering_at_infinity(self):
        k = ARRAY.sphere.wavenumber(3000.0)
        ff = steering_matrix_farfield(ARRAY, GRID[:20], k, 30)
        nf = steering_matrix_nearfield(ARRAY, GRID[:20], math.inf, k, 30)
        assert np.array_equal(ff.entries, nf.entries)


class TestSteeringNearfield:
    def test_far_distance_approaches_farfield(self):
        # checked away from the top of the band, where the residual
        # wavefront curvature at 100 m is still below the percent level
        for f in (200.0, 1000.0, 4000.0):
            k = ARRAY.sphere.wavenumber(f)
            nf = steering_matrix_nearfield(ARRAY, GRID, 100.0, k, 30)
            ff = steering_matrix_farfield(ARRAY, GRID, k, 30)
            rel = np.abs(nf.entries - ff.entries) / np.abs(ff.entries)
            assert rel.max() < 0.01

    def test_direction_permutation_swaps_columns(self):
        k = ARRAY.sphere.wavenumber(900.0)
        dirs = list(GRID[:6])
        base = steering_matrix_nearfield(ARRAY, dirs, 0.5, k, 30)
        swapped_dirs = list(dirs)
        swapped_dirs[1], swapped_dirs[4] = swapped_dirs[4], swapped_dirs[1]
        swapped = steering_matrix_nearfield(ARRAY, swapped_dirs, 0.5, k, 30)
        expect = base.entries[:, [0, 4, 2, 3, 1, 5]]
        assert np.array_equal(swapped.entries, expect)

    def test_near_and_far_distances_differ(self):
        k = ARRAY.sphere.wavenumber(500.0)
        near = steering_matrix_nearfield(ARRAY, GRID, 0.15, k, 30)
        far = steering_matrix_nearfield(ARRAY, GRID, 3.2, k, 30)
        rel = np.abs(near.entries - far.entries) / np.abs(far.entries)
        assert rel.max() > 1e-2

    def test_raw_mode_scales_by_free_field_factor(self):
        # the raw field is the steering times the free-field factor; the raw
        # view multiplies its coefficients, not the sum, so the two agree to
        # rounding (measured 4.3e-16 relative)
        k = ARRAY.sphere.wavenumber(500.0)
        norm = steering_matrix_nearfield(ARRAY, GRID[:5], 0.5, k, 30)
        cosines = cosine_matrix(ARRAY.mic_directions, GRID[:5])
        raw = field.pressure_at_cosines(
            ARRAY.sphere, cosines, k, ARRAY.sphere.radius_m, 30, 0.5
        )
        factor = field.free_field_factor(k, 0.5)
        np.testing.assert_allclose(raw, norm.entries * factor, rtol=1e-14)


class TestDesignFilter:
    def test_scalar_normal_equation(self):
        filt = design_filter(
            wrap(np.array([[1.0 + 0j]])),
            np.array([1.0 + 0j]),
            np.array([1.0 + 0j]),
            NoiseModel(sigma_n_sq=0.0),
        )
        assert filt.left[0] == pytest.approx(1.0 + 0j)

    def test_regularization_dominance(self):
        rng = np.random.default_rng(41)
        v, h = random_instance(rng, q=50)
        filt = design_filter(wrap(v), h, h, NoiseModel(sigma_n_sq=1e12))
        assert np.linalg.norm(filt.left) < 1e-9

    def test_matches_dual_form_oracle(self):
        rng = np.random.default_rng(42)
        noise = NoiseModel(sigma_n_sq=0.01)
        for _ in range(10):
            v, h = random_instance(rng)
            filt = design_filter(wrap(v), h, h, noise)
            oracle = dual_form_weights(v, h, noise.regularization)
            assert np.linalg.norm(filt.left - oracle) / np.linalg.norm(oracle) < 1e-8

    def test_rank_deficient_unregularized_raises(self):
        v = np.array([[1.0 + 0j], [1.0 + 0j]])  # rank 1 with M=2
        with pytest.raises(NumericalRankError):
            one = np.ones(1, complex)
            design_filter(wrap(v), one, one, NoiseModel(sigma_n_sq=0.0))

    def test_rank_deficient_underregularized_raises(self):
        # lambda = 1e-20 vanishes against the unit Gram entries
        v = np.array([[1.0 + 0j], [1.0 + 0j]])
        with pytest.raises(NumericalRankError, match="too small to regularize"):
            one = np.ones(1, complex)
            design_filter(wrap(v), one, one, NoiseModel(sigma_n_sq=1e-20))

    @staticmethod
    def cholesky_rank_test(gram, lam=None):
        """The rank test with no early exit: factorize every Gram matrix and
        compare its pivots with M eps times its largest diagonal entry."""
        m = gram.shape[-1]
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return True
        pivots = chol.diagonal(axis1=-2, axis2=-1).real ** 2
        scale = gram.diagonal(axis1=-2, axis2=-1).real.max(axis=-1)
        return bool(np.any(pivots.min(axis=-1) <= m * np.finfo(float).eps * scale))

    @pytest.mark.parametrize("where", ["zero", "below", "above", "default"])
    def test_rank_test_early_exit_decides_as_the_factorization(self, monkeypatch, where):
        # rank-1 steering (4 microphones, 1 direction) at three frequencies
        # of Gram scale 1, 100 and 1e4: the early exit must be taken exactly
        # where lambda clears 2 M (M + 2) eps d_max at every frequency, and
        # weights or NumericalRankError must be as the factorization decides
        rng = np.random.default_rng(45)
        v, h = random_instance(rng, m=4, q=1)
        v = np.stack([v * s for s in (1.0, 10.0, 100.0)])
        h = np.stack([np.stack([h, h])] * 3)
        x, m = bsm._planes(v, h), 4
        c = 2 * m * (m + 2) * np.finfo(float).eps
        d_max = np.max(np.abs(v) ** 2)  # rank 1: the largest diagonal entry
        bound = c * d_max / (1.0 - c)  # lambda = c (d_max + lambda)
        lam = {"zero": 0.0, "below": bound * (1 - 1e-6), "above": bound * (1 + 1e-6),
               "default": NoiseModel().regularization}[where]
        factorized = []
        monkeypatch.setattr(
            np.linalg, "cholesky",
            lambda a, cholesky=np.linalg.cholesky: factorized.append(a) or cholesky(a),
        )
        with monkeypatch.context() as patch:
            patch.setattr(bsm, "_rank_deficient", self.cholesky_rank_test)
            try:
                want = bsm._weights_from_planes(x, m, lam)
            except NumericalRankError as exc:
                want = exc
        factorized.clear()
        if isinstance(want, NumericalRankError):
            with pytest.raises(NumericalRankError, match=f"^{re.escape(str(want))}$"):
                bsm._weights_from_planes(x, m, lam)
        else:
            assert np.array_equal(bsm._weights_from_planes(x, m, lam), want)
        assert bool(factorized) == (where in ("zero", "below"))
        assert isinstance(want, NumericalRankError) == (where == "zero")

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rank_test_factorizes_a_non_finite_gram(self, value):
        # a NaN or inf Gram diagonal fails the early exit's comparison, so
        # the non-finite operand still reaches the finiteness check
        v, h = operands_with_entry(value, "V")
        with pytest.raises(ValidationError, match="^filter weights must be finite$"):
            bsm._weights_from_planes(bsm._planes(v, h), 4, NoiseModel().regularization)

    def test_dimension_mismatch(self):
        v, h = random_instance(np.random.default_rng(0), q=8)
        with pytest.raises(ContractError):
            design_filter(wrap(v), h[:5], h, NoiseModel())

    def test_conjugate_equivariance(self):
        rng = np.random.default_rng(43)
        v, h = random_instance(rng, q=30)
        noise = NoiseModel(sigma_n_sq=0.01)
        u = complex(np.exp(1j * 1.234))
        base = design_filter(wrap(v), h, h, noise)
        scaled = design_filter(wrap(v), u * h, u * h, noise)
        assert np.allclose(scaled.left, np.conj(u) * base.left, atol=1e-12)
        e1 = evaluate_error(base, wrap(v), h, h, noise)
        e2 = evaluate_error(scaled, wrap(v), u * h, u * h, noise)
        assert e1.left == pytest.approx(e2.left, rel=1e-12)

    def test_weight_norm_monotone_in_regularization(self):
        rng = np.random.default_rng(44)
        v, h = random_instance(rng, q=60)
        norms = [
            np.linalg.norm(design_filter(wrap(v), h, h, NoiseModel(sigma_n_sq=lam)).left)
            for lam in (1e-4, 1e-2, 1.0, 100.0)
        ]
        assert all(a >= b for a, b in zip(norms, norms[1:]))


class TestEvaluateError:
    def test_zero_filter_gives_unity(self):
        rng = np.random.default_rng(45)
        v, h = random_instance(rng, q=20)
        filt = BsmFilter(np.zeros(4, complex), np.zeros(4, complex))
        err = evaluate_error(filt, wrap(v), h, h, NoiseModel(sigma_n_sq=0.3))
        assert err.left == 1.0 and err.right == 1.0

    def test_perfect_match_gives_zero(self):
        v = np.array([[1.0 + 0j]])
        h = np.array([1.0 + 0j])
        filt = design_filter(wrap(v), h, h, NoiseModel(sigma_n_sq=0.0))
        err = evaluate_error(filt, wrap(v), h, h, NoiseModel(sigma_n_sq=0.0))
        assert err.left == 0.0

    def test_non_negative_and_matched_below_unity(self):
        rng = np.random.default_rng(46)
        noise = NoiseModel(sigma_n_sq=0.01)
        for _ in range(10):
            v, h = random_instance(rng, q=50)
            filt = design_filter(wrap(v), h, h, noise)
            err = evaluate_error(filt, wrap(v), h, h, noise)
            assert 0.0 <= err.left <= 1.0 and 0.0 <= err.right <= 1.0

    def test_designed_filter_is_perturbation_optimal(self):
        # +-1e-3 real and imaginary nudges of single weights never
        # decrease the regularized objective
        rng = np.random.default_rng(47)
        noise = NoiseModel(sigma_n_sq=0.05)
        v, h = random_instance(rng, q=30)
        filt = design_filter(wrap(v), h, h, noise)
        base = evaluate_error(filt, wrap(v), h, h, noise).left

        def objective(c):
            resid = v.T @ np.conj(c) - h
            num = np.vdot(resid, resid).real + noise.sigma_n_sq * np.vdot(c, c).real
            return num / np.vdot(h, h).real

        for i in range(4):
            for delta in (1e-3, -1e-3, 1e-3j, -1e-3j):
                c = filt.left.copy()
                c[i] += delta
                assert objective(c) >= base - 1e-15

    def test_degenerate_target(self):
        v, _ = random_instance(np.random.default_rng(0), q=5)
        filt = BsmFilter(np.zeros(4, complex), np.zeros(4, complex))
        with pytest.raises(DegenerateTargetError):
            evaluate_error(filt, wrap(v), np.zeros(5, complex), np.zeros(5, complex), NoiseModel())


class TestEvaluateErrors:
    """The batched error over a stack of filters."""

    @staticmethod
    def instance(rng, f=3, k=2, e=2, m=4, q=20):
        def normal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        return normal(f, k, e, m), normal(f, m, q), normal(f, e, q)

    def test_stacked_filters_match_one_call_per_filter(self):
        c, v, h = self.instance(np.random.default_rng(50))
        noise = NoiseModel(sigma_n_sq=0.05)
        eps = bsm.evaluate_errors(c, v, h, noise)
        assert eps.shape == (3, 2, 2)
        for i in range(c.shape[1]):
            np.testing.assert_allclose(
                eps[:, i], bsm.evaluate_errors(c[:, i], v, h, noise), rtol=1e-15
            )

    @given(seed=st.integers(0, 2**32 - 1), sigma_n_sq=st.sampled_from([0.0, 0.01, 1.0]))
    def test_zero_weights_give_unity(self, seed, sigma_n_sq):
        c, v, h = self.instance(np.random.default_rng(seed))
        c[:, 0] = 0.0
        h[0] *= 1e-150  # exact also at tiny target power
        eps = bsm.evaluate_errors(c, v, h, NoiseModel(sigma_n_sq=sigma_n_sq))
        assert np.all(eps[:, 0] == 1.0)

    @given(seed=st.integers(0, 2**32 - 1), sigma_n_sq=st.sampled_from([0.0, 0.01, 1.0]))
    def test_one_factor_per_frequency_on_every_target_leaves_the_error(
        self, seed, sigma_n_sq
    ):
        # beta scales the weights by conj(beta) and the residual, the noise
        # term and ||h||^2 consistently, so the errors do not see it
        rng = np.random.default_rng(seed)
        noise = NoiseModel(sigma_n_sq=sigma_n_sq)
        _, v1, h1 = self.instance(rng, q=12)
        _, v2, h2 = self.instance(rng, q=12)
        h_other = self.instance(rng, q=12)[2]
        f = len(h1)
        beta = 10.0 ** rng.uniform(-3, 3, f) * np.exp(2j * np.pi * rng.random(f))
        beta = beta[:, None, None]

        def errors(scale):
            c = bsm.design_weights(v1, scale * h1, noise)
            c_other = bsm.design_weights(v2, scale * h_other, noise)
            return bsm.evaluate_errors(
                np.stack([c, c_other], axis=1), v2, scale * h2, noise
            )

        np.testing.assert_allclose(errors(beta), errors(1.0), rtol=1e-12)

    @pytest.mark.parametrize(
        "f, k, q, column",
        [(37, 3, 300, False), (1, 2, 240, False), (128, 2, 241, True)],
        ids=["ragged_blocks", "one_frequency", "one_column"],
    )
    def test_streamed_scoring_equals_one_call_per_frequency(self, f, k, q, column):
        """Scoring forms its residual a block of frequencies at a time
        (37 frequencies of three filters on 300 columns span five blocks,
        the last of one frequency); every block gives the errors of the
        one-frequency calls bit for bit, on strided planes too."""
        c, v, h = self.instance(np.random.default_rng(51), f=f, k=k, q=q)
        x = bsm._planes(v, h)
        if column:  # the sweep's single-mode view: the last column only
            x = x[..., -1:]
        eps = bsm._errors_from_planes(c, x, 0.05)
        for i in range(f):
            one = bsm._errors_from_planes(c[i : i + 1], x[i : i + 1], 0.05)
            np.testing.assert_array_equal(eps[i : i + 1], one)

    def test_scoring_memory_does_not_grow_with_the_filter_count(self):
        """At F = 128 and Q = 240, eight filters peak above two by less
        than one residual block (the 256 KiB budget) and the larger W and
        c; the whole (F, 2KE, Q) residual would add 5.9 MB."""
        rng = np.random.default_rng(52)

        def peak(k):
            c, v, h = self.instance(rng, f=128, k=k, q=240)
            x = bsm._planes(v, h)
            tracemalloc.start()
            try:
                bsm._errors_from_planes(c, x, NoiseModel().regularization)
                return tracemalloc.get_traced_memory()[1], c.nbytes
            finally:
                tracemalloc.stop()

        (small, _), (large, c_bytes) = peak(2), peak(8)
        w_bytes = 128 * (2 * 8 * 2) * (2 * 6) * 8
        assert large - small < 256 * 1024 + w_bytes + c_bytes


class TestEngineOracle:
    """The design and scoring engine against a direct complex oracle: per
    frequency, c = solve(V V^H + lambda I, V h^*) and the error formula of
    the module docstring, evaluated in complex arithmetic.  The operands
    are laid out as in a single-mode sweep: steering and targets are row
    blocks of one (F, M + E, Q + 1) array, the Q design columns and the
    one evaluation column both non-contiguous column slices of it.

    One tolerance covers the weights (norm-wise per frequency and ear)
    and the errors on both column sets.  Over two sets of 60,000 draws of
    this strategy the largest deviation was 5.1e-10, an evaluation-column
    error at sigma_n^2 = 1e-4 with fewer columns than microphones, where
    V V^H + lambda I has a condition number near 5e5 and both solves
    carry errors of about cond * eps; the weights deviated by at most
    3.9e-11 and the design-column errors, stationary at the optimum, by
    1.4e-14.  At the sweep's shapes all three stayed below 5e-15.  RTOL
    leaves a factor of 20 above the largest.
    """

    RTOL = 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        q=st.integers(1, 40),
        f=st.integers(1, 4),
        sigma_n_sq=st.sampled_from([0.01, 1e-4, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_complex_oracle(self, m, q, f, sigma_n_sq, seed):
        self.check(np.random.default_rng(seed), f, m, q, sigma_n_sq)

    @pytest.mark.parametrize(
        "f, m, q",
        [(128, 4, 240), (512, 4, 24)],
        ids=["paper_default", "dense_spectrum"],
    )
    def test_matches_at_sweep_shapes(self, f, m, q):
        """The sizes the sweep runs, where the BLAS kernels differ from
        the small draws above."""
        self.check(np.random.default_rng(q), f, m, q, 0.01)

    def check(self, rng, f, m, q, sigma_n_sq):
        shape = (f, m + 2, q + 1)
        whole = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v, h = whole[:, :m], whole[:, m:]
        noise = NoiseModel(sigma_n_sq=sigma_n_sq)
        c = bsm.design_weights(v[..., :q], h[..., :q], noise)
        for cols in (slice(0, q), slice(q, None)):
            eps = bsm.evaluate_errors(c, v[..., cols], h[..., cols], noise)
            for i in range(f):
                V, H = v[i, :, :q], h[i, :, :q]
                gram = V @ V.conj().T + sigma_n_sq * np.eye(m)
                oracle = np.linalg.solve(gram, V @ H.conj().T).T  # (E, M)
                deviation = np.linalg.norm(c[i] - oracle, axis=-1)
                assert np.all(deviation <= self.RTOL * np.linalg.norm(oracle, axis=-1))
                Vt, Ht = v[i][:, cols], h[i][:, cols]
                residual = Vt.T @ oracle.conj().T - Ht.T  # (columns, E)
                num = np.sum(np.abs(residual) ** 2, axis=0) + sigma_n_sq * np.sum(
                    np.abs(oracle) ** 2, axis=1
                )
                expected = num / np.sum(np.abs(Ht) ** 2, axis=1)
                np.testing.assert_allclose(eps[i], expected, rtol=self.RTOL)


class TestOperandChecks:
    """Every one-frequency view raises ContractError, not numpy's
    ValueError, for operands that do not fit a 4 x 5 steering matrix."""

    V, H = random_instance(np.random.default_rng(7), q=5)

    @staticmethod
    def scoring_views(filt, V, h_left, h_right):
        yield lambda: evaluate_error(filt, V, h_left, h_right, NoiseModel())
        yield lambda: monte_carlo_mse(filt, V, h_left, h_right, NoiseModel(), 10, seed=0)

    def test_short_ear_row(self):
        V, short = wrap(self.V), self.H[:3]
        filt = BsmFilter(np.ones(4, complex), np.ones(4, complex))
        with pytest.raises(ContractError, match="left HRTF row"):
            design_filter(V, short, self.H, NoiseModel())
        for view in self.scoring_views(filt, V, self.H, short):
            with pytest.raises(ContractError, match="right HRTF row"):
                view()

    def test_short_filter(self):
        filt = BsmFilter(np.ones(3, complex), np.ones(3, complex))
        for view in self.scoring_views(filt, wrap(self.V), self.H, self.H):
            with pytest.raises(ContractError, match="filter length 3"):
                view()


NON_FINITE = {
    "nan": np.nan, "inf": np.inf, "neg_inf": -np.inf, "infj": complex(0.0, np.inf)
}


class TestNonFiniteOperands:
    """A NaN or infinite entry of the steering or target operand is a
    ValidationError from every design and scoring view, whether or not
    RuntimeWarning is an error: the engine lets it run through its
    products silently and checks the small result."""

    @staticmethod
    def views(v, h):
        """Each design and scoring view on the operands; the one-frequency
        views get ValidationError from SteeringMatrix for a non-finite v."""
        noise = NoiseModel()
        c = np.ones((1, 2, 4), complex)
        filt = BsmFilter(c[0, 0], c[0, 1])
        yield lambda: design_weights(v, h, noise)
        yield lambda: design_filter(SteeringMatrix(v[0]), *h[0], noise)
        yield lambda: bsm.evaluate_errors(c, v, h, noise)
        yield lambda: bsm.evaluate_errors(c[:, None], v, h, noise)
        yield lambda: evaluate_error(filt, SteeringMatrix(v[0]), *h[0], noise)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
    @pytest.mark.parametrize("operand", ["V", "h"])
    def test_every_view_raises_validation_error(self, operand, value, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            for view in self.views(*operands_with_entry(value, operand)):
                with pytest.raises(ValidationError, match=" must be finite$"):
                    view()


class TestMonteCarlo:
    def test_zero_residual(self):
        # square system solved exactly, no noise: the estimate is zero to
        # rounding for any trial count
        rng = np.random.default_rng(48)
        v = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = np.conj(np.linalg.solve(v.T, h))
        filt = BsmFilter(c, c)
        est = monte_carlo_mse(filt, wrap(v), h, h, NoiseModel(sigma_n_sq=0.0), 2000, seed=5)
        assert est.left < 1e-20

    def test_seed_determinism(self):
        rng = np.random.default_rng(49)
        v, h = random_instance(rng, q=12)
        filt = design_filter(wrap(v), h, h, NoiseModel(sigma_n_sq=0.01))
        a = monte_carlo_mse(filt, wrap(v), h, h, NoiseModel(sigma_n_sq=0.01), 5000, seed=77)
        b = monte_carlo_mse(filt, wrap(v), h, h, NoiseModel(sigma_n_sq=0.01), 5000, seed=77)
        assert a == b

    def test_matches_closed_form_within_three_stderr(self):
        rng = np.random.default_rng(50)
        noise = NoiseModel(sigma_n_sq=0.01)
        v, h = random_instance(rng, q=24)
        filt = design_filter(wrap(v), h, h, noise)
        exact = evaluate_error(filt, wrap(v), h, h, noise)
        batches = np.array(
            [
                monte_carlo_mse(filt, wrap(v), h, h, noise, 10_000, seed=900 + j).left
                for j in range(10)
            ]
        )
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(batches.mean() - exact.left) < 3 * se

    def test_error_shrinks_with_trials(self):
        rng = np.random.default_rng(51)
        noise = NoiseModel(sigma_n_sq=0.01)
        v, h = random_instance(rng, q=16)
        filt = design_filter(wrap(v), h, h, noise)
        exact = evaluate_error(filt, wrap(v), h, h, noise).left
        devs = []
        for trials in (1000, 10_000, 100_000):
            ests = [
                monte_carlo_mse(filt, wrap(v), h, h, noise, trials, seed=3000 + j).left
                for j in range(6)
            ]
            devs.append(np.sqrt(np.mean([(e - exact) ** 2 for e in ests])))
        # roughly 1/sqrt(T): two decades of trials should shrink the rms
        # deviation by well over a factor of 3
        assert devs[2] < devs[0] / 3.0
        assert devs[1] < devs[0]
