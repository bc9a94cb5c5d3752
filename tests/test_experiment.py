"""Config parsing, the sweep itself, and CSV emission."""

import dataclasses
import itertools
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_legendre

from nfbsm import cli, experiment, field
from nfbsm.bsm import (
    ArrayGeometry,
    NoiseModel,
    _errors_from_planes,
    _weights_from_planes,
    design_filter,
    design_weights,
    evaluate_error,
    evaluate_errors,
    steering_matrix_nearfield,
)
from nfbsm.errors import (
    DataError,
    Error,
    FormatError,
    NumericalRankError,
    SchemaError,
    ValidationError,
)
from nfbsm.experiment import (
    CSV_HEADER,
    EARS,
    FILTER_KINDS,
    ErrorSurface,
    ExperimentConfig,
    emit_csv,
    fibonacci_directions,
    load_csv,
    parse_config,
    parse_config_text,
    reference_hrtf_set,
    run_sweep,
    serialize_config,
    _decibels,
)
from nfbsm.field import RigidSphere
from nfbsm.hrtf import EarGeometry, nearfield_transform, save_hrtf
from nfbsm.sphmath import Direction, cosine_matrix

# small but non-trivial sweep used by most tests here
FAST = ExperimentConfig(
    distances_m=(0.2, 1.0, 3.2),
    freq_count=10,
    design_grid_size=48,
    order=20,
)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        config = parse_config_text("")
        assert config == ExperimentConfig()
        assert config.mic_azimuth_deg == (30.0, 80.0, 280.0, 330.0)
        assert config.ear_azimuth_deg == (100.0, 260.0)
        assert config.order == 30
        assert config.distances_m == (0.15, 0.2, 0.3, 0.5, 1.0, 3.2)
        assert config.reference_distance_m == 3.2
        assert len(config.frequency_axis()) == 128

    def test_negative_distance_names_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("distances_m = [-1]")
        assert "distances_m" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config_text("frobnicate = 3")
        assert "frobnicate" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("order = 3\norder = 4")

    def test_frequency_conflict_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("frequencies_hz = [100, 200]\nfreq_count = 4")

    def test_round_trip(self, tmp_path):
        single = dataclasses.replace(
            FAST, eval_mode="single", eval_direction_deg=(75.0, 30.0)
        )
        file_targets = dataclasses.replace(
            FAST,
            hrtf_source="file",
            hrtf_path="my runs/ref set.hrtf",  # inner spaces are kept
        )
        for config in (single, file_targets):
            path = tmp_path / "sweep.cfg"
            path.write_text(serialize_config(config))
            assert parse_config(path) == config
        # a float key's text is its value widened to float: the str of a
        # float32 or float16 parses back to another number, and == cannot
        # see it, since NumPy compares in the narrow type
        narrow = dataclasses.replace(
            FAST,
            sphere_radius_m=np.float32(0.1),
            distances_m=(np.float32(0.3), 3.2),
            sigma_n_sq=np.float16(0.01),
        )
        parsed = parse_config_text(serialize_config(narrow))
        values = [
            (parsed.sphere_radius_m, narrow.sphere_radius_m),
            (parsed.distances_m[0], narrow.distances_m[0]),
            (parsed.sigma_n_sq, narrow.sigma_n_sq),
        ]
        assert [got.hex() for got, _ in values] == [float(v).hex() for _, v in values]
        assert np.array_equal(run_sweep(parsed).epsilon, run_sweep(narrow).epsilon)

    def test_round_trip_of_numpy_values(self):
        # validate accepts numpy scalars and arrays; the text must carry them
        config = dataclasses.replace(
            FAST,
            sphere_radius_m=np.float64(0.1),
            distances_m=np.array([0.2, 3.2]),
            order=np.int64(12),
        ).validate()
        parsed = parse_config_text(serialize_config(config))
        assert parsed.sphere_radius_m == 0.1 and parsed.order == 12
        assert parsed.distances_m == (0.2, 3.2)

    def test_round_trip_with_explicit_frequencies(self):
        config = ExperimentConfig(frequencies_hz=(100.0, 500.0, 1234.5)).validate()
        assert parse_config_text(serialize_config(config)) == config

    @pytest.mark.parametrize(
        "path",
        ["runs/run#1/ref.hrtf", " ref.hrtf", "ref.hrtf\t", "a\nb.hrtf", "a\rb.hrtf"],
    )
    def test_round_trip_refuses_what_the_format_drops(self, path):
        # '#' starts a comment, and lines are split and stripped on parsing
        config = dataclasses.replace(FAST, hrtf_source="file", hrtf_path=path)
        with pytest.raises(ValidationError, match="hrtf_path"):
            serialize_config(config)

    @pytest.mark.parametrize(
        "key, value", [("freq_count", 5), ("freq_max_hz", 5000.0), ("freq_count", 0)]
    )
    def test_round_trip_refuses_a_grid_key_beside_explicit_frequencies(self, key, value):
        # the text leaves the freq_* keys out, so they would parse back as
        # their defaults and the config would not compare equal: no such
        # config is made, as the text parser refuses any freq_* key there
        with pytest.raises(ValidationError, match=f"^{key} {value!r} is set beside"):
            ExperimentConfig(frequencies_hz=(100.0, 200.0), **{key: value})

    def test_round_trip_of_a_path_holding_a_form_feed(self):
        # only \r\n, \r and \n end a config line
        config = dataclasses.replace(FAST, hrtf_source="file", hrtf_path="a\x0cb.hrtf")
        assert parse_config_text(serialize_config(config)) == config

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: ExperimentConfig(hrtf_source="file"),
                "hrtf_path is required when hrtf_source is 'file'",
            ),
            (
                lambda: ExperimentConfig(hrtf_source="bogus"),
                "hrtf_source must be 'analytic' or 'file'",
            ),
            (lambda: dataclasses.replace(FAST, order=-1), "order must lie in [0, "),
        ],
        ids=["file_without_path", "unknown_source", "replaced_order"],
    )
    def test_a_config_is_checked_when_it_is_made(self, build, message):
        # no config that exists is invalid: reference_hrtf_set, run_sweep
        # and serialize_config never see one
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            build()

    def test_comments_and_blank_lines(self):
        config = parse_config_text("# a comment\n\norder = 12  # trailing\n")
        assert config.order == 12

    def test_single_mode_needs_direction(self):
        with pytest.raises(ValidationError):
            parse_config_text("eval_mode = single")

    def test_bad_order_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("order = 100")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("distances_m = [0.2, 0.2, 3.2]", "distances_m"),
            ("frequencies_hz = [100, 100]", "frequencies_hz"),
            ("freq_min_hz = 1000\nfreq_max_hz = 1000\nfreq_count = 3", "freq_count"),
            # distinct bounds whose log grid still rounds to repeated values
            (
                "freq_min_hz = 1000\nfreq_max_hz = 1000.0000000000002\nfreq_count = 50",
                "freq_count",
            ),
        ],
    )
    def test_repeated_axis_values_rejected(self, text, key):
        with pytest.raises(ValidationError, match=key):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("order", 8.5),
            ("order", True),
            ("design_grid_size", 12.5),
            ("freq_count", 4.0),
            ("distances_m", [0.3, math.inf]),
            ("hrtf_path", 3),
            ("distances_m", 0.3),
        ],
    )
    def test_values_the_config_text_cannot_take_rejected(self, key, value):
        # each key takes only the type parse_config_text reads for it
        with pytest.raises(ValidationError, match=key):
            dataclasses.replace(FAST, **{key: value}).validate()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("hrtf_path", "a\0b.hrtf"),
            ("hrtf_source", "file\0"),
            ("eval_mode", "\0grid"),
        ],
    )
    def test_nul_byte_in_a_string_key_rejected(self, key, value):
        # config text cannot carry a NUL, but a config built in Python can,
        # and open() raises a bare ValueError on such a path
        settings = {"hrtf_source": "file", "hrtf_path": "ref.hrtf", key: value}
        with pytest.raises(ValidationError, match=f"^{key} must not hold a NUL byte"):
            ExperimentConfig(**settings)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sphere_radius_m = 0", "sphere_radius_m must be positive"),
            ("speed_of_sound_mps = -343", "speed_of_sound_mps must be positive"),
            (
                "mic_elevation_deg = [90, 90]",
                "mic_elevation_deg and mic_azimuth_deg must have equal length",
            ),
            (
                "mic_elevation_deg = []\nmic_azimuth_deg = []",
                "mic_azimuth_deg needs at least one microphone",
            ),
            (
                "mic_elevation_deg = [90, 90, 90, 181]",
                "mic_elevation_deg entries must lie in [0, 180]",
            ),
            ("ear_elevation_deg = [90, -1]", "ear_elevation_deg entries must lie in [0, 180]"),
            (
                "ear_elevation_deg = [90, 90, 90]",
                "ear_elevation_deg and ear_azimuth_deg take 2 values",
            ),
            ("distances_m = []", "distances_m must be non-empty"),
            ("frequencies_hz = []", "frequencies_hz must be non-empty"),
            ("frequencies_hz = [100, 0]", "frequencies_hz entries must be positive"),
            (
                "freq_min_hz = 2000\nfreq_max_hz = 1000",
                "freq_min_hz must satisfy 0 < min <= max",
            ),
            ("freq_count = 0", "freq_count must be at least 1"),
            ("sigma_n_sq = -0.01", "sigma_n_sq must be non-negative"),
            ("design_grid_size = 0", "design_grid_size must be at least 1"),
            ("hrtf_source = measured", "hrtf_source must be 'analytic' or 'file'"),
            ("hrtf_source = file", "hrtf_path is required when hrtf_source is 'file'"),
            (
                "hrtf_path = x.hrtf",
                "hrtf_path 'x.hrtf' is set beside hrtf_source 'analytic'",
            ),
            ("reference_distance_m = 0.1", "reference_distance_m must exceed sphere_radius_m"),
            ("eval_mode = cone", "eval_mode must be 'grid' or 'single'"),
            (
                "eval_direction_deg = [90, 45]",
                "eval_direction_deg (90.0, 45.0) is set beside eval_mode 'grid'",
            ),
            (
                "eval_mode = single\neval_direction_deg = [181, 0]",
                "eval_direction_deg theta must lie in [0, 180]",
            ),
            (
                "eval_mode = single\neval_direction_deg = [90, 0]\n"
                "hrtf_source = file\nhrtf_path = ref.hrtf",
                "eval_mode 'single' requires hrtf_source 'analytic'",
            ),
            # the parser's own rules name the line
            ("# note\norder = eight", "line 2: bad value 'eight' for key 'order'"),
            (
                "order = 8\ndistances_m = 0.3",
                "line 2: key 'distances_m' takes a list like [a, b, c]",
            ),
            ("order = 8\nbogus", "line 2: expected 'key = value'"),
        ],
    )
    def test_each_rule_names_its_key_or_line(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            parse_config_text(text)

    def test_default_objects_are_the_object_defaults(self):
        # the paper's setup is written both as config defaults, which the
        # sweep reads, and as object defaults, which other tests read
        config = ExperimentConfig()
        assert config.sphere() == RigidSphere(0.1)
        assert config.array() == ArrayGeometry.default()
        assert config.ears() == EarGeometry()
        assert config.noise() == NoiseModel()

    def test_readme_key_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("The full key set with defaults:")[1].split("```")[1]
        assert parse_config_text(block) == ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert f"{f.name} =" in block

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "0"),
            ("steering_normalization", "normalized"),
            ("sigma_s_sq", "1.0"),
            ("freq_spacing", "linear"),
        ],
    )
    def test_retired_key_is_gone(self, key, value):
        with pytest.raises(ValidationError, match=f"^line 1: unknown key '{key}'$"):
            parse_config_text(f"{key} = {value}")


class TestFibonacciDirections:
    def test_count_and_normalization(self):
        dirs = fibonacci_directions(240)
        assert len(dirs) == 240
        vecs = np.array([d.unit_vector() for d in dirs])
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0)

    def test_near_uniform_coverage(self):
        vecs = np.array([d.unit_vector() for d in fibonacci_directions(240)])
        # mean direction of a balanced full-sphere grid is near the origin
        assert np.linalg.norm(vecs.mean(axis=0)) < 0.02

    @pytest.mark.parametrize("count", [1, 2, 3, 240, 960, 3840])
    def test_lattice_is_the_scalar_formula_bit_for_bit(self, count):
        """The sweep's angle arrays and the Direction view are the scalar
        formula exactly; numpy's arccos is one ulp off on some points of
        every count here but 1 and 3."""
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        want = np.array([
            (
                math.acos(min(1.0, max(-1.0, 1.0 - (2.0 * i + 1.0) / count))),
                (2.0 * math.pi * i / golden) % (2.0 * math.pi),
            )
            for i in range(count)
        ])
        got = experiment._fibonacci_angles(count)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        views = np.array([(d.theta, d.phi) for d in fibonacci_directions(count)])
        assert views.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_grid_rejected(self, count):
        with pytest.raises(ValidationError, match="^direction count must be at least 1$"):
            fibonacci_directions(count)

    @pytest.mark.parametrize("count", [1e3, 10.5, True])
    def test_non_integer_count_rejected(self, count):
        message = f"direction count must be an integer, got {count!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fibonacci_directions(count)


class TestRunSweep:
    def test_record_count(self):
        surface = run_sweep(FAST)
        assert len(surface.records) == 3 * 10 * 2 * 2

    def test_default_sweep_holds_one_field_at_a_time(self):
        """The default sweep peaks at one (F, 2R, Q) field (2.8 MiB), the
        basis and small arrays: about 4.1 MiB.  A second field or a whole
        residual (1.9 MiB at two filters) held beside it passes 4.5 MiB."""
        tracemalloc.start()
        try:
            run_sweep(ExperimentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    def test_all_errors_finite_non_negative(self):
        surface = run_sweep(FAST)
        for r in surface.records:
            assert math.isfinite(r.epsilon) and r.epsilon >= 0.0
            assert r.epsilon_db == pytest.approx(10 * math.log10(r.epsilon))

    def test_determinism_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(FAST), a)
        emit_csv(run_sweep(FAST), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("removed", [1.0, 3.2])
    def test_removing_distance_preserves_other_records(self, removed):
        # without the reference distance the far-field filter is still
        # designed on its pair, which is then not scored
        full = run_sweep(FAST)
        kept_distances = tuple(d for d in FAST.distances_m if d != removed)
        reduced = run_sweep(dataclasses.replace(FAST, distances_m=kept_distances))
        kept = [r for r in full.records if r.distance_m != removed]
        assert kept == list(reduced.records)

    def test_linear_spacing_is_the_linspace_axis(self):
        # a linear grid is written as frequencies_hz: its values in repr,
        # which parse back to the linspace axis bit for bit
        freqs = np.linspace(FAST.freq_min_hz, FAST.freq_max_hz, FAST.freq_count)
        text = (
            "distances_m = [0.2, 1.0, 3.2]\ndesign_grid_size = 48\norder = 20\n"
            f"frequencies_hz = [{', '.join(map(repr, freqs.tolist()))}]\n"
        )
        config = parse_config_text(text)
        assert config.frequency_axis().tobytes() == freqs.tobytes()
        assert np.array_equal(run_sweep(config).frequencies_hz, freqs)

    def test_reference_distance_curves_coincide(self):
        # at the reference distance ff and nf are one filter, scored once
        surface = run_sweep(FAST)
        for ear in EARS:
            f_ff, e_ff = surface.curve("ff", ear, 3.2)
            f_nf, e_nf = surface.curve("nf", ear, 3.2)
            assert np.array_equal(f_ff, f_nf)
            assert np.array_equal(e_ff, e_nf)

    def test_nearfield_design_no_worse_than_farfield(self):
        surface = run_sweep(FAST)
        for d in (0.2, 1.0):
            _, e_ff = surface.curve("ff", "left", d)
            _, e_nf = surface.curve("nf", "left", d)
            assert np.all(e_nf <= e_ff + 1e-15)

    def test_single_direction_mode(self):
        config = dataclasses.replace(
            FAST, eval_mode="single", eval_direction_deg=(90.0, 45.0)
        )
        surface = run_sweep(config)
        assert len(surface.records) == 3 * 10 * 2 * 2
        for r in surface.records:
            assert math.isfinite(r.epsilon) and r.epsilon >= 0.0

    def test_unsorted_axes_give_the_sorted_csv(self, tmp_path):
        freqs = (5000.0, 120.0, 1000.5, 75.0, 9000.0)
        listed = dataclasses.replace(FAST, freq_count=ExperimentConfig.freq_count)
        shuffled = dataclasses.replace(
            listed, distances_m=(3.2, 0.2, 1.0), frequencies_hz=freqs
        )
        ordered = dataclasses.replace(
            listed, distances_m=(0.2, 1.0, 3.2), frequencies_hz=tuple(sorted(freqs))
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(shuffled), a)
        emit_csv(run_sweep(ordered), b)
        assert a.read_bytes() == b.read_bytes()

    def test_surface_axes_ascend_and_curve_indexes_epsilon(self):
        surface = run_sweep(dataclasses.replace(FAST, distances_m=(3.2, 0.2, 1.0)))
        assert surface.distances_m.tolist() == [0.2, 1.0, 3.2]
        assert np.all(np.diff(surface.frequencies_hz) > 0)
        assert surface.epsilon.shape == (3, 10, 2, 2)
        freqs, eps = surface.curve("nf", "right", 1.0)
        assert freqs is surface.frequencies_hz
        assert np.array_equal(eps, surface.epsilon[1, :, 1, 1])

    def test_file_hrtf_source_matches_analytic(self, tmp_path):
        hset, _, _, _ = reference_hrtf_set(FAST)
        path = tmp_path / "ref.hrtf"
        save_hrtf(hset, path)
        config = dataclasses.replace(FAST, hrtf_source="file", hrtf_path=str(path))
        a = run_sweep(config)
        b = run_sweep(FAST)
        eps_a = np.array([r.epsilon for r in a.records])
        eps_b = np.array([r.epsilon for r in b.records])
        assert np.allclose(eps_a, eps_b, rtol=1e-9)


def count_calls(monkeypatch, name):
    """Record the positional arguments of each call of a package function,
    through every module binding."""
    module_name, _, func_name = name.rpartition(".")
    original = getattr(sys.modules[f"nfbsm.{module_name}"], func_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "nfbsm" or mod_name.startswith("nfbsm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestBatchedDesign:
    """The batched design and error against references written out here."""

    def test_slices_match_per_frequency_functions(self):
        d, noise, sphere = 0.2, FAST.noise(), FAST.sphere()
        h_set, directions, freqs, _ = reference_hrtf_set(FAST)
        steering = [
            steering_matrix_nearfield(
                FAST.array(), directions, d, sphere.wavenumber(f), FAST.order
            )
            for f in freqs
        ]
        h_set_d = nearfield_transform(h_set, sphere, d, FAST.order, FAST.ears())
        h = np.stack([h_set_d.left.T, h_set_d.right.T], axis=1)
        h_ref = np.stack([h_set.left.T, h_set.right.T], axis=1)
        v = np.stack([s.entries for s in steering])
        c = design_weights(v, h, noise)
        # far-field-style weights (designed on other targets) are not
        # optimal for this truth, so they exercise the error off its minimum
        c_other = design_weights(v, h_ref, noise)
        eps = evaluate_errors(c, v, h, noise)
        eps_other = evaluate_errors(c_other, v, h, noise)
        lam = noise.regularization

        def weights(vf, row):
            gram = vf @ vf.conj().T + lam * np.eye(vf.shape[0])
            return np.linalg.solve(gram, vf @ row.conj())

        def error(w, vf, row):
            resid = vf.T @ w.conj() - row
            num = np.vdot(resid, resid).real + noise.sigma_n_sq * np.vdot(w, w).real
            return num / np.vdot(row, row).real

        for i, s in enumerate(steering):
            vf = s.entries
            for e in range(2):
                np.testing.assert_allclose(c[i, e], weights(vf, h[i, e]), rtol=1e-12)
                np.testing.assert_allclose(
                    c_other[i, e], weights(vf, h_ref[i, e]), rtol=1e-12
                )
                np.testing.assert_allclose(
                    eps[i, e], error(c[i, e], vf, h[i, e]), rtol=1e-12
                )
                np.testing.assert_allclose(
                    eps_other[i, e], error(c_other[i, e], vf, h[i, e]), rtol=1e-12
                )
            # the per-frequency functions are one-frequency views of the engine
            filt = design_filter(s, h[i, 0], h[i, 1], noise)
            np.testing.assert_allclose(c[i], [filt.left, filt.right], rtol=1e-12)
            np.testing.assert_allclose(
                eps[i], evaluate_error(filt, s, h[i, 0], h[i, 1], noise), rtol=1e-12
            )

    def test_nearfield_no_worse_on_every_cell(self):
        surface = run_sweep(FAST)
        eps = {
            (r.distance_m, r.frequency_hz, r.ear, r.filter_kind): r.epsilon
            for r in surface.records
        }
        for (d, f, ear, kind), e_ff in eps.items():
            if kind == "ff":
                assert eps[(d, f, ear, "nf")] <= e_ff + 1e-15

    def test_rank_deficient_noiseless_array_raises_through_fallback(self):
        config = dataclasses.replace(
            FAST, mic_azimuth_deg=(30.0, 30.0, 280.0, 330.0), sigma_n_sq=0.0
        )
        with pytest.raises(NumericalRankError, match="too small to regularize"):
            run_sweep(config)


def mp_hankel2(order, x):
    """h_0 .. h_order of the second kind at mp x, by the closed form
    h_n(x) = i^{n+1} e^{-ix}/x sum_m (n+m)! / (m! (n-m)!) (-i/(2x))^m."""
    return [
        mp.mpc(0, 1) ** (n + 1) * mp.expj(-x) / x * mp.fsum(
            mp.factorial(n + m) / (mp.factorial(m) * mp.factorial(n - m))
            * (mp.mpc(0, -1) / (2 * x)) ** m
            for m in range(n + 1)
        )
        for n in range(order + 1)
    ]


def mp_sweep_epsilon(config):
    """A sweep's epsilon (distance, frequency, filter, ear) in 40-digit
    mpmath from the config and the package's double cosines alone:
    Legendre polynomials by their recurrence, the rigid-sphere coefficients
    from the Wronskian b_n(x_a) = -i / (x_a^2 h_n'(x_a)), every source per
    unit free-field pressure, the normal equations by ``mp.lu_solve`` and
    epsilon in its residual form, on the design directions in grid mode and
    on the evaluation direction in single mode."""
    with mp.workdps(40):
        sphere, noise, n_max = config.sphere(), config.noise(), config.order
        receivers = config.array().mic_directions + config.ears().directions()
        m, rf = len(receivers) - 2, config.reference_distance_m
        directions = config.design_directions()
        q = len(directions)
        evaluation = slice(0, q)  # mpmath slices take no negative index
        if config.eval_mode == "single":
            directions += (Direction.from_degrees(*config.eval_direction_deg),)
            evaluation = slice(q, q + 1)
        cosines = cosine_matrix(receivers, directions)
        basis = []
        for c in map(mp.mpf, cosines.ravel().tolist()):
            p = [mp.mpf(1), c]
            for n in range(1, n_max):
                p.append(((2 * n + 1) * c * p[n] - n * p[n - 1]) / (n + 1))
            basis.append(p)
        lam = mp.mpf(noise.sigma_n_sq)
        freqs, distances = sorted(config.frequency_axis()), sorted(config.distances_m)
        eps = np.empty((len(distances), len(freqs), 2, 2))
        for fi, f in enumerate(freqs):
            k = 2 * mp.pi * mp.mpf(f) / sphere.speed_of_sound_mps
            x_a = k * sphere.radius_m
            h_a = mp_hankel2(n_max + 1, x_a)  # h_n' = n/x h_n - h_{n+1}
            orders = range(n_max + 1)
            b = [-1j / (x_a**2 * (n / x_a * h_a[n] - h_a[n + 1])) for n in orders]

            def truth(r_s):
                """Steering (M, Q) and ear rows (2, Q) at r_s, per unit
                free-field pressure; at infinity the plane wave."""
                if r_s == math.inf:
                    src = [mp.mpc(0, 1) ** n for n in orders]
                else:  # -i k h_n(k r_s) over the spreading e^{-ik r_s}/r_s
                    h_s, spreading = mp_hankel2(n_max, k * r_s), mp.expj(-k * r_s) / r_s
                    src = [-1j * k * h_s[n] / spreading for n in orders]
                a = [(2 * n + 1) * src[n] * b[n] for n in orders]
                p = [mp.fdot(a, row) for row in basis]
                p = mp.matrix(np.reshape(p, cosines.shape).tolist())
                return p[:m, :], p[m:, :]

            def design(V, h):
                V, h = V[:, :q], h[:, :q]
                gram = V * V.H + lam * mp.eye(m)
                return [mp.lu_solve(gram, V * h[e, :].H) for e in (0, 1)]

            def error(c, V, h, e):
                V, h = V[:, evaluation], h[e, evaluation]
                resid = mp.norm(V.T * c.conjugate() - h.T) ** 2
                return (resid + noise.sigma_n_sq * mp.norm(c) ** 2) / mp.norm(h) ** 2

            # the far-field pair: plane-wave steering, targets at the reference
            far = truth(math.inf)[0], truth(rf)[1]
            c_ff = design(*far)
            for di, d in enumerate(distances):
                V, h = far if d == rf else truth(d)
                c_nf = design(V, h)
                for (kind, c), e in itertools.product(enumerate((c_ff, c_nf)), (0, 1)):
                    eps[di, fi, kind, e] = float(error(c[e], V, h, e))
        return eps


# 3 x 3 cells of the default array and ears at order 30 on 12 design directions
ORACLE = ExperimentConfig(
    distances_m=(0.12, 0.5, 3.2),
    frequencies_hz=(100.0, 2000.0, 8000.0),
    design_grid_size=12,
    order=30,
)


def test_sweep_epsilon_matches_mpmath_oracle():
    """Grid-mode epsilon against :func:`mp_sweep_epsilon` on every cell.

    One tolerance, 1e-12 relative.  The far-field filter is scored off its
    optimum, so its epsilon moves to first order with the rounding of its
    weights, which the design amplifies by the Gram matrix's condition
    number: 4.5e3 for the plane wave at 100 Hz here, so about
    4.5e3 x 1.1e-16 = 5e-13.  The worst cell measured 1.4e-13 (the
    far-field filter at 100 Hz and 0.12 m, right ear); every other cell is
    within 8e-14.  A wrong coefficient, normalization or target rule moves
    epsilon by orders of magnitude more.
    """
    got = run_sweep(ORACLE).epsilon
    np.testing.assert_allclose(got, mp_sweep_epsilon(ORACLE), rtol=1e-12, atol=0)


def test_single_mode_epsilon_matches_mpmath_oracle():
    """Single-mode epsilon against :func:`mp_sweep_epsilon` on every cell,
    scored on the one evaluation direction (90, 45) degrees, off the grid.

    One tolerance, 5e-12 relative.  Off the grid both filters are scored
    off their optimum, so both move to first order with their weights'
    rounding, about cond(Gram) x 1.1e-16 = 5e-13 at 100 Hz here, as in the
    grid-mode test.  The worst cells measured 5.4e-13 and 4.4e-13 (the
    far-field filter at 100 Hz and 0.12 m, left and right ear), every other
    cell within 5e-14; the tolerance leaves a tenfold margin for another
    BLAS's rounding.  On 240 design directions the plane-wave Gram matrix
    is ten times worse conditioned (4.8e4), and there the default sweep's
    far-field cells below 300 Hz are up to 2.3e-11 off.  Scoring on the
    last design column instead of the evaluation direction fails by 31
    times relative.
    """
    config = dataclasses.replace(ORACLE, eval_mode="single", eval_direction_deg=(90.0, 45.0))
    got = run_sweep(config).epsilon
    np.testing.assert_allclose(got, mp_sweep_epsilon(config), rtol=5e-12, atol=0)


def sphere_integral_epsilon(config: ExperimentConfig) -> np.ndarray:
    """Grid-mode epsilon (distance, frequency, filter kind, ear) with every
    sum over the Q design directions replaced by its exact limit, Q over
    4 pi times the integral over the sphere.

    Design and scoring read only sums over columns of products of two
    receiver rows, and by the addition theorem the sphere integral of
    P_n(r_i . s) P_n'(r_j . s) is 4 pi delta_nn' P_n(r_i . r_j) / (2n+1)
    (Rafaely, Fundamentals of Spherical Array Processing, 2nd ed. 2019).
    So each real PSD matrix P_n(r_i . r_j) of the receivers is factored
    into virtual columns E, E E^T = Q P_n / (2n+1), and a receiver's row
    on a column of order n is E[i, c] a_n: the plane wave on the microphone
    rows and the reference distance on the ear rows of the far-field pair,
    the distance itself on every row at a distance.  These real planes go
    to the sweep's own design and scoring, with the reference distance
    scored on the far-field pair for both filters.  The oracle shares only
    the receivers' angles and the modal coefficients with the sweep.
    """
    q, order = config.design_grid_size, config.order
    theta = np.radians(config.mic_elevation_deg + config.ear_elevation_deg)
    phi = np.radians(config.mic_azimuth_deg + config.ear_azimuth_deg)
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    cosines = np.clip(u.T @ u, -1.0, 1.0)
    columns, orders = [], []
    for n in range(order + 1):
        lam, vec = np.linalg.eigh(eval_legendre(n, cosines))
        keep = lam > 1e-13 * lam.max()
        columns.append(vec[:, keep] * np.sqrt(q * lam[keep] / (2 * n + 1)))
        orders += [n] * int(keep.sum())
    e = np.hstack(columns)
    sphere, m, sigma_n_sq = config.sphere(), len(config.mic_azimuth_deg), config.sigma_n_sq
    k, rf = sphere.wavenumber(config.frequency_axis()), config.reference_distance_m
    distances = sorted(config.distances_m)
    sources = [rf, math.inf] + distances
    a = field.modal_coefficients(sphere, k, sphere.radius_m, order, np.array(sources))
    a /= field.free_field_factor(k, np.array(sources)[:, None])[:, None]

    def planes(row_sources):
        rows = a[[sources.index(s) for s in row_sources]][:, orders]  # (R, C, F)
        x = (e[..., None] * rows).transpose(2, 0, 1)
        return np.concatenate([x.real, x.imag], axis=1)

    x_ff = planes([math.inf] * m + [rf, rf])
    c_ff = _weights_from_planes(x_ff, m, sigma_n_sq)
    eps = []
    for d in distances:
        if d == rf:
            e_ff = _errors_from_planes(c_ff[:, None], x_ff, sigma_n_sq)
            eps.append(np.concatenate([e_ff, e_ff], axis=1))
        else:
            x = planes([d] * (m + 2))
            c = np.stack([c_ff, _weights_from_planes(x, m, sigma_n_sq)], axis=1)
            eps.append(_errors_from_planes(c, x, sigma_n_sq))
    return np.stack(eps)


def test_sweep_epsilon_converges_to_the_sphere_integral():
    """The default sweep's epsilon approaches :func:`sphere_integral_epsilon`
    as the design grid grows, up to 4 kHz and above it.

    Largest relative difference over distances, filters and ears, measured
    at Q = 240, 960 and 3,840 (order 30, 118 virtual columns): up to 4 kHz
    2.74e-4, 3.3e-5 and 4.2e-6, above it 1.14e-2, 2.5e-5 and 3.0e-6.  The
    bounds leave a threefold margin or more.  Above 4 kHz (k r_a above 7)
    the field's significant orders outgrow what the 240-point lattice
    integrates accurately, hence the looser first bound there.
    """
    bounds = {240: (1e-3, 5e-2), 960: (1e-4, 1e-4), 3840: (1.5e-5, 1e-5)}
    worst = []
    for q, bound in bounds.items():
        config = ExperimentConfig(design_grid_size=q)
        rel = np.abs(run_sweep(config).epsilon / sphere_integral_epsilon(config) - 1.0)
        low = config.frequency_axis() <= 4000.0
        worst.append((rel[:, low].max(), rel[:, ~low].max()))
        assert worst[-1][0] < bound[0] and worst[-1][1] < bound[1], (q, worst[-1])
    for band in (0, 1):
        assert worst[0][band] > worst[1][band] > worst[2][band], worst


@pytest.mark.parametrize("eval_mode", ["grid", "single"])
def test_sweep_call_counts_do_not_grow_with_frequency(monkeypatch, eval_mode):
    """Guards the batched sweep against a per-frequency loop creeping back,
    and both modes against a second modal call, basis or sphere-side
    recurrence, a second field per source condition, a second design or
    scoring call per truth pair, two filters scored at the reference
    distance, a cast of the real Legendre basis, a DVF division of analytic
    targets, a spreading factor multiplied in and divided back out, or a
    far-field truth pair that sums a receiver row twice or outside its one
    buffer."""
    config = dataclasses.replace(
        FAST,
        eval_mode=eval_mode,
        eval_direction_deg=(90.0, 45.0) if eval_mode == "single" else None,
    )
    modal = count_calls(monkeypatch, "field._unit_coefficients")
    raw_modal = count_calls(monkeypatch, "field.modal_coefficients")
    fields = count_calls(monkeypatch, "field.surface_field")
    ratios = count_calls(monkeypatch, "field.dvf_ratio")
    spreading = count_calls(monkeypatch, "field.free_field_factor")
    cosines = count_calls(monkeypatch, "sphmath.cos_angle_between")
    bases = count_calls(monkeypatch, "sphmath.legendre_basis")
    designs = count_calls(monkeypatch, "bsm._weights_from_planes")
    scores = count_calls(monkeypatch, "bsm._errors_from_planes")
    made, legendre = [], experiment.legendre_basis

    def kept(*args):
        made.append(legendre(*args))
        return made[-1]

    monkeypatch.setattr(experiment, "legendre_basis", kept)
    coefficients, modal_call = [], experiment.surface_coefficients

    def kept_coefficients(*args):
        coefficients.append(modal_call(*args))
        return coefficients[-1]

    monkeypatch.setattr(experiment, "surface_coefficients", kept_coefficients)
    summed, sum_call = [], experiment.surface_field

    def kept_sum(*args):  # the pair buffer is reused, so keep each sum's value
        out = sum_call(*args)
        summed.append(out.copy())
        return out

    monkeypatch.setattr(experiment, "surface_field", kept_sum)
    reference_sets = count_calls(monkeypatch, "experiment.reference_hrtf_set")
    analytic_sets = count_calls(monkeypatch, "hrtf.analytic_sphere_hrtf")
    recurrence = field._hankel_ratios
    arguments = []

    def recorded(x, order):
        arguments.append(x)
        return recurrence(x, order)

    monkeypatch.setattr(field, "_hankel_ratios", recorded)
    run_sweep(config)
    scored = sum(d != config.reference_distance_m for d in config.distances_m)
    receivers, q = len(config.mic_azimuth_deg) + 2, config.design_grid_size
    columns = q + (eval_mode == "single")
    assert len(bases) == 1
    # analytic targets are the sweep's own reference ear field
    assert not reference_sets and not analytic_sets
    # one modal call covers every source condition, with g_n(k r_a) run once,
    # per unit free-field pressure: the raw view is never called
    assert len(modal) == 1 and not raw_modal
    x_a = config.sphere().wavenumber(config.frequency_axis()) * config.sphere_radius_m
    assert sorted(np.array_equal(x, x_a) for x in arguments) == [False, True]
    # one field per source condition, each summed on rows of the one real
    # basis itself: float64, with no cast to complex or any other copy
    assert len(fields) == 2 + scored
    # one design and one scoring call a truth pair: the reference distance
    # first, whose design is the far-field filter, scored there alone
    assert len(designs) == len(scores) == 1 + scored
    assert [c.shape[1] for c, *_ in scores] == [1] + [2] * scored
    assert made[0].dtype == np.float64
    assert all(
        basis.dtype == np.float64 and np.shares_memory(basis, made[0])
        for basis, *_ in fields
    )
    # one pair buffer a sweep: the far-field pair sums the plane wave on the
    # microphone rows only and the reference distance on the ear rows only,
    # and every other pair sums its distance on all receivers into it too
    m, f = receivers - 2, len(x_a)
    sources, a = modal[0][4].tolist(), coefficients[0]
    a_ref = a[sources.index(config.reference_distance_m)]
    (plane, plane_a, out_plane), (ref, ref_a, out_ref) = fields[:2]
    assert np.shares_memory(plane_a, a[sources.index(math.inf)])
    assert np.shares_memory(ref_a, a_ref)
    assert np.array_equal(plane, made[0][:m]) and np.array_equal(ref, made[0][m:])
    assert out_plane.shape == (f, 2, m, columns) and out_ref.shape == (f, 2, 2, columns)
    assert out_plane.base is out_ref.base
    assert out_plane.base.shape == (f, 2, receivers, columns)
    assert all(
        b.shape == made[0].shape and out.base is out_plane.base
        and out.shape == out_plane.base.shape
        for b, _, out in fields[2:]
    )
    # its ear rows are the reference ear field summed on its own, bit for bit
    np.testing.assert_array_equal(summed[1], field.surface_field(made[0][m:], a_ref))
    # analytic targets are the ear field itself: no DVF division, and no
    # spreading factor is formed, since none is multiplied in or divided out
    assert not ratios
    assert not spreading
    # one cosine evaluation a sweep: every receiver by every column at once
    assert len(cosines) == 1
    rows, cols = cosines[0]
    assert (rows.theta.shape, cols.theta.shape) == ((receivers, 1), (columns,))


@pytest.mark.parametrize("eval_mode", ["grid", "single"])
def test_sweep_and_csv_make_no_per_item_calls(tmp_path, monkeypatch, eval_mode):
    """The design grid is angle arrays, not one Direction per point, and
    emit_csv evaluates the decibel rule once a column, not once a row."""
    made, post_init = [], Direction.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Direction, "__post_init__", counted)
    single = {"eval_direction_deg": (90.0, 45.0)} if eval_mode == "single" else {}
    built = []
    for q in (48, 192):
        config = dataclasses.replace(FAST, design_grid_size=q, eval_mode=eval_mode, **single)
        made.clear()
        surface = run_sweep(config)
        built.append(len(made))
    assert built[0] == built[1]
    decibels = count_calls(monkeypatch, "experiment._decibels")
    emit_csv(surface, tmp_path / "e.csv")
    assert len(decibels) == len(FILTER_KINDS) * len(EARS)


def test_file_targets_divide_by_the_reference_ear_field_once(tmp_path, monkeypatch):
    path = tmp_path / "ref.hrtf"
    save_hrtf(reference_hrtf_set(FAST)[0], path)
    ratios = count_calls(monkeypatch, "field.dvf_ratio")
    run_sweep(dataclasses.replace(FAST, hrtf_source="file", hrtf_path=str(path)))
    assert len(ratios) == 1


def test_non_finite_file_targets_raise_data_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ref.hrtf"
    save_hrtf(reference_hrtf_set(FAST)[0], path)
    config = dataclasses.replace(FAST, hrtf_source="file", hrtf_path=str(path))
    dvf_ratio = experiment.dvf_ratio

    def one_inf(near, far):
        transfer = dvf_ratio(near, far)
        transfer[0, 0, 0] = np.inf
        return transfer

    monkeypatch.setattr(experiment, "dvf_ratio", one_inf)
    # the far-field pair's targets are carried too, so its own are checked
    with pytest.raises(DataError, match=r"at 3\.2 m"):
        run_sweep(config)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(serialize_config(config))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 1
    assert "not finite" in capsys.readouterr().err


def test_validate_synthesizes_no_hrtf_set(monkeypatch, capsys):
    # validate prints the grids' sizes; it needs no analytic set to count them
    synthesized = count_calls(monkeypatch, "hrtf.analytic_sphere_hrtf")
    modal = count_calls(monkeypatch, "field._unit_coefficients")
    assert cli.main(["validate"]) == 0
    assert capsys.readouterr().out == (
        "config ok: 4 mics, 240 directions, 6 distances, 128 frequencies, "
        "order 30, hrtf source analytic\n"
    )
    assert synthesized == [] and modal == []


@pytest.mark.parametrize(
    "reference, message",
    [(math.inf, "infinite reference distance"), (0.1, "must exceed sphere_radius_m")],
)
def test_file_reference_distance_rejected(tmp_path, reference, message):
    hset = reference_hrtf_set(FAST)[0]
    path = tmp_path / "ref.hrtf"
    save_hrtf(dataclasses.replace(hset, reference_distance_m=reference), path)
    config = dataclasses.replace(FAST, hrtf_source="file", hrtf_path=str(path))
    with pytest.raises(ValidationError, match=message):
        reference_hrtf_set(config)


def distinct(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(tuple)


@st.composite
def small_configs(draw):
    """Small valid configs over the whole key space the sweep reads."""
    mics = draw(st.integers(1, 5))
    angle = st.floats(0.0, 180.0)
    azimuth = st.floats(0.0, 360.0)
    radius = draw(st.floats(0.01, 1.0))
    distance = st.floats(radius, 10.0, exclude_min=True)
    eval_mode = draw(st.sampled_from(["grid", "single"]))
    return ExperimentConfig(
        sphere_radius_m=radius,
        speed_of_sound_mps=draw(st.floats(100.0, 1500.0)),
        mic_elevation_deg=tuple(draw(st.lists(angle, min_size=mics, max_size=mics))),
        mic_azimuth_deg=tuple(draw(st.lists(azimuth, min_size=mics, max_size=mics))),
        ear_elevation_deg=(draw(angle), draw(angle)),
        ear_azimuth_deg=(draw(azimuth), draw(azimuth)),
        order=draw(st.integers(0, 64)),
        distances_m=draw(distinct(distance, 3)),
        reference_distance_m=draw(distance),
        frequencies_hz=draw(distinct(st.floats(-2.0, 5.0).map(lambda u: 10.0**u), 4)),
        # hypothesis favours the first entry: the default, not the rank-deficient 0
        sigma_n_sq=draw(st.sampled_from([0.01, 1.0, 1e-4, 1e-12, 1e-15, 0.0])),
        design_grid_size=draw(st.integers(1, 16)),
        eval_mode=eval_mode,
        eval_direction_deg=(draw(angle), draw(azimuth)) if eval_mode == "single" else None,
    ).validate()


@settings(max_examples=60, deadline=None)
@given(config=small_configs(), from_file=st.booleans())
def test_every_valid_config_gives_errors_or_a_mapped_failure(config, from_file):
    """A valid config yields finite, non-negative errors or fails with a
    class the command line maps to exit code 1 or 2.  At sigma_n^2 <=
    1e-12 a config can sit at the rank threshold, where rounding decides
    between the two.  Some grid-mode examples sweep the config's own
    reference set read back from an HRTF file, written to a tempfile
    directory since hypothesis rejects function-scoped fixtures."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            if from_file and config.eval_mode == "grid":
                path = Path(tmp) / "reference.hrtf"
                save_hrtf(reference_hrtf_set(config)[0], path)
                config = dataclasses.replace(
                    config, hrtf_source="file", hrtf_path=str(path)
                )
            surface = run_sweep(config)
        except Error:
            return
    eps = surface.epsilon
    assert eps.shape == (len(config.distances_m), len(config.frequencies_hz), 2, 2)
    assert np.all(np.isfinite(eps)) and np.all(eps >= 0.0)
    if config.eval_mode == "grid":
        # the near-field filter is optimal on the design grid only, so single
        # mode may score it worse; 1e-15 absorbs rounding of exact fits
        ff, nf = eps[:, :, 0], eps[:, :, 1]
        assert np.all(nf <= ff * (1 + 1e-9) + 1e-15)


@settings(max_examples=20, deadline=None)
@given(config=small_configs())
def test_zero_weights_score_unity_on_every_cell(config):
    """With every filter zero, each error is the target power over itself."""

    def zero_weights(X, m, lam):
        return np.zeros((len(X), X.shape[1] // 2 - m, m), complex)

    with mock.patch.object(experiment, "_weights_from_planes", zero_weights):
        try:
            surface = run_sweep(config)
        except Error:
            return
    assert np.all(surface.epsilon == 1.0)


def ascending_axis(min_value, max_value):
    return st.lists(
        st.floats(min_value, max_value), min_size=1, max_size=3, unique=True
    ).map(sorted)


class TestCsv:
    @settings(max_examples=60, deadline=None)
    @given(
        axes=st.tuples(ascending_axis(1e-3, 1e3), ascending_axis(1.0, 1e5)),
        data=st.data(),
    )
    def test_bytes_match_per_row_format(self, tmp_path_factory, axes, data):
        distances, freqs = axes
        # epsilon 0 (-inf dB), subnormals, and errors above 1
        epsilons = st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1.5, 1e300]),
            st.floats(0.0, 1e3),
        )
        epsilon = data.draw(
            arrays(float, (len(distances), len(freqs), 2, 2), elements=epsilons)
        )
        surface = ErrorSurface(distances, freqs, epsilon)
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        emit_csv(surface, path)
        # the row format, one f-string per cell, its decibels from its column
        want = [CSV_HEADER]
        for j, kind in enumerate(FILTER_KINDS):
            for k, ear in enumerate(EARS):
                column = epsilon[:, :, j, k].ravel().tolist()
                cells = zip(itertools.product(distances, freqs), column, _decibels(column))
                for (d, f), e, db in cells:
                    want.append(f"{d!r},{f!r},{kind},{ear},{e!r},{db!r}")
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        loaded = load_csv(path)
        for name in ("distances_m", "frequencies_hz", "epsilon"):
            assert np.array_equal(getattr(loaded, name), getattr(surface, name))

    def test_header_and_row_count(self, tmp_path):
        surface = run_sweep(FAST)
        path = tmp_path / "out.csv"
        emit_csv(surface, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(surface.records) + 1

    def test_sorted_by_filter_ear_distance_frequency(self, tmp_path):
        surface = run_sweep(FAST)
        path = tmp_path / "out.csv"
        emit_csv(surface, path)
        keys = []
        for line in path.read_text().splitlines()[1:]:
            d, f, kind, ear, _, _ = line.split(",")
            keys.append((kind, ear, float(d), float(f)))
        assert keys == sorted(keys)

    def test_round_trip_exact(self, tmp_path):
        surface = run_sweep(FAST)
        path = tmp_path / "out.csv"
        emit_csv(surface, path)
        loaded = load_csv(path)
        by_key = {
            (r.filter_kind, r.ear, r.distance_m, r.frequency_hz): r.epsilon
            for r in loaded.records
        }
        for r in surface.records:
            back = by_key[(r.filter_kind, r.ear, r.distance_m, r.frequency_hz)]
            assert back == pytest.approx(r.epsilon, rel=1e-9)

    def test_empty_surface_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv(
                ErrorSurface(np.empty(0), np.empty(0), np.empty((0, 0, 2, 2))),
                tmp_path / "out.csv",
            )

    def test_load_returns_the_emitted_arrays(self, tmp_path):
        surface = run_sweep(FAST)
        path = tmp_path / "out.csv"
        emit_csv(surface, path)
        loaded = load_csv(path)
        for name in ("distances_m", "frequencies_hz", "epsilon"):
            assert np.array_equal(getattr(loaded, name), getattr(surface, name))

    @pytest.mark.parametrize(
        "edit, line",
        [
            ("missing", 6),
            ("missing_last", 25),
            ("duplicated", 7),
            ("swapped", 6),
            ("no_rows", 4),
        ],
    )
    def test_partial_grid_rejected_with_line(self, tmp_path, edit, line):
        tiny = ExperimentConfig(
            distances_m=(0.2, 3.2), freq_count=3, design_grid_size=12, order=8
        )
        path = tmp_path / "out.csv"
        emit_csv(run_sweep(tiny), path)
        rows = path.read_text().splitlines()  # header + 24 rows
        if edit == "missing":
            del rows[5]
        elif edit == "missing_last":
            del rows[-1]
        elif edit == "duplicated":
            rows.insert(6, rows[5])
        elif edit == "no_rows":  # the header and two blank lines
            rows[1:] = ["", ""]
        else:
            rows[5], rows[6] = rows[6], rows[5]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match=f"^line {line}: "):
            load_csv(path)

    @pytest.mark.parametrize(
        "axes, epsilon_shape",
        [
            (([0.2, 3.2], [100.0]), (2, 2, 2, 2)),
            (([3.2, 0.2], [100.0]), (2, 1, 2, 2)),
            (([0.2], [100.0, 100.0]), (1, 2, 2, 2)),
            # axes that emit_csv would write and load_csv would read back
            (([0.2, math.inf], [100.0]), (2, 1, 2, 2)),
            (([0.2], [-5.0, 100.0]), (1, 2, 2, 2)),
            (([math.nan, 0.2], [100.0]), (2, 1, 2, 2)),
        ],
    )
    def test_surface_rejects_bad_shape_or_axes(self, axes, epsilon_shape):
        with pytest.raises(ValidationError):
            ErrorSurface(*axes, np.ones(epsilon_shape))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_surface_holds_only_what_load_csv_reads(self, value):
        epsilon = np.full((1, 1, 2, 2), 0.5)
        epsilon[0, 0, 1, 0] = value
        with pytest.raises(
            ValidationError, match="^epsilon entries must be finite and non-negative$"
        ):
            ErrorSurface([0.2], [100.0], epsilon)

    @pytest.mark.parametrize(
        "text", ["", "\n", "distance_m,frequency_hz,epsilon\n", f"# {CSV_HEADER}\n"]
    )
    def test_unrecognized_header_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text + "0.2,75.0,ff,left,0.1,-10.0\n")
        with pytest.raises(ValidationError, match="^unrecognized CSV header$"):
            load_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.2,75.0,ff,left,0.5", "expected 6 fields"),
            ("0.2,75.0,ff,left,oops,-3.0", "non-numeric"),
            ("0.2,75.0,xx,left,0.5,-3.0", "unknown filter"),
            ("0.2,75.0,nf,middle,0.5,-3.0", "unknown ear"),
        ],
    )
    def test_malformed_row_reports_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n0.2,75.0,ff,left,0.1,-10.0\n{row}\n")
        with pytest.raises(FormatError, match=f"line 3: {message}"):
            load_csv(path)

    @pytest.mark.parametrize(
        "epsilon, epsilon_db, message",
        [
            ("nan", "nan", "epsilon nan is not finite and non-negative"),
            ("inf", "inf", "epsilon inf is not finite and non-negative"),
            ("-1", "-3.0", "epsilon -1.0 is not finite and non-negative"),
            ("0.5", "-3.0", "epsilon_db -3.0 is not 10 log10 epsilon"),
            ("0.5", "123.0", "epsilon_db 123.0 is not 10 log10 epsilon"),
            ("0.0", "-300.0", "epsilon_db -300.0 is not 10 log10 epsilon"),
            ("0.5", "nan", "epsilon_db nan is not 10 log10 epsilon"),
        ],
    )
    def test_bad_epsilon_reports_line(self, tmp_path, epsilon, epsilon_db, message):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{CSV_HEADER}\n0.2,75.0,ff,left,0.1,-10.0\n"
            f"0.2,75.0,ff,right,{epsilon},{epsilon_db}\n"
        )
        with pytest.raises(FormatError, match=f"^line 3: {message}$"):
            load_csv(path)

    @pytest.mark.parametrize(
        "d, f, message",
        [
            ("inf", "75.0", "distance inf"),
            ("0.2", "-5.0", "frequency -5.0"),
            ("nan", "75.0", "distance nan"),
        ],
    )
    def test_bad_axis_value_reports_line(self, tmp_path, d, f, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n0.2,75.0,ff,left,0.1,-10.0\n{d},{f},ff,right,0.1,-10.0\n")
        with pytest.raises(FormatError, match=f"^line 3: {message} is not finite and positive$"):
            load_csv(path)

    def test_epsilon_db_within_rounding_and_zero_epsilon_load(self, tmp_path):
        rows = [
            f"{d},75.0,{kind},{ear},{e},{e_db}"
            for kind in ("ff", "nf")
            for ear in ("left", "right")
            for d, e, e_db in ((0.2, 0.0, "-inf"), (3.2, 0.5, "-3.0102999566398"))
        ]
        path = tmp_path / "ok.csv"
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        epsilon = load_csv(path).epsilon
        assert epsilon.shape == (2, 1, 2, 2)
        assert np.all(epsilon[0] == 0.0) and np.all(epsilon[1] == 0.5)
