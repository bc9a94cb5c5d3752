"""Config parsing, the sweep itself, and CSV emission."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nfbsm.bsm import (
    design_filter,
    design_weights,
    evaluate_error,
    evaluate_errors,
    steering_matrix_nearfield,
)
from nfbsm.cli import _NUMERICAL_ERRORS, _VALIDATION_ERRORS
from nfbsm.errors import (
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
from nfbsm.hrtf import nearfield_transform

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
        config = dataclasses.replace(
            FAST,
            steering_normalization="raw",
            eval_mode="single",
            eval_direction_deg=(75.0, 30.0),
        )
        path = tmp_path / "sweep.cfg"
        path.write_text(serialize_config(config))
        assert parse_config(path) == config

    def test_round_trip_with_explicit_frequencies(self):
        config = ExperimentConfig(frequencies_hz=(100.0, 500.0, 1234.5)).validate()
        assert parse_config_text(serialize_config(config)) == config

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

    def test_readme_key_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("The full key set with defaults:")[1].split("```")[1]
        assert parse_config_text(block) == ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert f"{f.name} =" in block

    def test_seed_key_is_gone(self):
        with pytest.raises(ValidationError, match="unknown key 'seed'"):
            parse_config_text("seed = 0")


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


class TestRunSweep:
    def test_record_count(self):
        surface = run_sweep(FAST)
        assert len(surface.records) == 3 * 10 * 2 * 2

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

    def test_removing_distance_preserves_other_records(self):
        full = run_sweep(FAST)
        reduced = run_sweep(dataclasses.replace(FAST, distances_m=(0.2, 3.2)))
        kept = [r for r in full.records if r.distance_m != 1.0]
        assert kept == list(reduced.records)

    def test_reference_distance_curves_coincide(self):
        surface = run_sweep(FAST)
        f_ff, e_ff = surface.curve("ff", "left", 3.2)
        f_nf, e_nf = surface.curve("nf", "left", 3.2)
        assert np.array_equal(f_ff, f_nf)
        assert np.max(np.abs(e_nf - e_ff) / e_ff) < 0.05

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

    def test_raw_steering_mode(self):
        surface = run_sweep(dataclasses.replace(FAST, steering_normalization="raw"))
        for r in surface.records:
            assert math.isfinite(r.epsilon) and r.epsilon >= 0.0
        # matched designs still satisfy the optimality bound
        _, e_ff = surface.curve("ff", "left", 0.2)
        _, e_nf = surface.curve("nf", "left", 0.2)
        assert np.all(e_nf <= e_ff + 1e-15)

    def test_unsorted_axes_give_the_sorted_csv(self, tmp_path):
        freqs = (5000.0, 120.0, 1000.5, 75.0, 9000.0)
        shuffled = dataclasses.replace(
            FAST, distances_m=(3.2, 0.2, 1.0), frequencies_hz=freqs
        )
        ordered = dataclasses.replace(
            FAST, distances_m=(0.2, 1.0, 3.2), frequencies_hz=tuple(sorted(freqs))
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
        from nfbsm.hrtf import save_hrtf
        from nfbsm.experiment import reference_hrtf_set

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
    """Count calls of a package function through every module binding."""
    module_name, _, func_name = name.rpartition(".")
    original = getattr(sys.modules[f"nfbsm.{module_name}"], func_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
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
        h_set_d = nearfield_transform(
            h_set, sphere, d, FAST.order, FAST.ears(), compensate_spreading=True
        )
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
            num = noise.sigma_s_sq * np.vdot(resid, resid).real
            num += noise.sigma_n_sq * np.vdot(w, w).real
            return num / (noise.sigma_s_sq * np.vdot(row, row).real)

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

    @pytest.mark.parametrize("norm", ["normalized", "raw"])
    def test_nearfield_no_worse_on_every_cell(self, norm):
        surface = run_sweep(dataclasses.replace(FAST, steering_normalization=norm))
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


@pytest.mark.parametrize("eval_mode", ["grid", "single"])
def test_sweep_call_counts_do_not_grow_with_frequency(monkeypatch, eval_mode):
    """Guards the batched sweep against a per-frequency loop creeping back,
    and both modes against a second basis or field per source condition."""
    config = dataclasses.replace(
        FAST,
        eval_mode=eval_mode,
        eval_direction_deg=(90.0, 45.0) if eval_mode == "single" else None,
    )
    modal = count_calls(monkeypatch, "field.modal_coefficients")
    cosines = count_calls(monkeypatch, "sphmath.cos_angle_between")
    bases = count_calls(monkeypatch, "sphmath.legendre_basis")
    reference_sets = count_calls(monkeypatch, "experiment.reference_hrtf_set")
    analytic_sets = count_calls(monkeypatch, "hrtf.analytic_sphere_hrtf")
    run_sweep(config)
    non_reference = sum(d != config.reference_distance_m for d in config.distances_m)
    receivers, q = len(config.mic_azimuth_deg) + 2, config.design_grid_size
    columns = q + (eval_mode == "single")
    assert len(bases) == 1
    # analytic targets are the sweep's own reference ear field
    assert not reference_sets and not analytic_sets
    assert len(modal) == 2 + non_reference
    assert len(cosines) == receivers * columns


def distinct(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(tuple)


@st.composite
def small_configs(draw):
    """Small valid configs over the whole key space the sweep reads."""
    mics = draw(st.integers(1, 5))
    angle = st.floats(0.0, 180.0)
    distance = st.floats(ExperimentConfig.sphere_radius_m, 10.0, exclude_min=True)
    eval_mode = draw(st.sampled_from(["grid", "single"]))
    return ExperimentConfig(
        mic_elevation_deg=tuple(draw(st.lists(angle, min_size=mics, max_size=mics))),
        mic_azimuth_deg=tuple(
            draw(st.lists(st.floats(0.0, 360.0), min_size=mics, max_size=mics))
        ),
        order=draw(st.integers(0, 64)),
        distances_m=draw(distinct(distance, 3)),
        reference_distance_m=draw(distance),
        frequencies_hz=draw(distinct(st.floats(-2.0, 5.0).map(lambda u: 10.0**u), 4)),
        sigma_n_sq=draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-4, 0.01, 1.0])),
        design_grid_size=draw(st.integers(1, 16)),
        steering_normalization=draw(st.sampled_from(["normalized", "raw"])),
        eval_mode=eval_mode,
        eval_direction_deg=(
            (draw(angle), draw(st.floats(0.0, 360.0))) if eval_mode == "single" else None
        ),
    ).validate()


@settings(max_examples=60, deadline=None)
@given(config=small_configs())
def test_every_valid_config_gives_errors_or_a_mapped_failure(config):
    """A valid config yields finite, non-negative errors or fails with a
    class the command line maps to exit code 1 or 2.  At sigma_n^2 <=
    1e-12 a config can sit at the rank threshold, where rounding decides
    between the two."""
    try:
        surface = run_sweep(config)
    except _VALIDATION_ERRORS + _NUMERICAL_ERRORS:
        return
    eps = surface.epsilon
    assert eps.shape == (len(config.distances_m), len(config.frequencies_hz), 2, 2)
    assert np.all(np.isfinite(eps)) and np.all(eps >= 0.0)
    if config.eval_mode == "grid":
        # the near-field filter is optimal on the design grid only, so single
        # mode may score it worse; 1e-15 absorbs rounding of exact fits
        ff, nf = eps[:, :, 0], eps[:, :, 1]
        assert np.all(nf <= ff * (1 + 1e-9) + 1e-15)


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
        # the row format, one f-string per cell
        want = [CSV_HEADER]
        for j, kind in enumerate(FILTER_KINDS):
            for k, ear in enumerate(EARS):
                for a, d in enumerate(distances):
                    for b, f in enumerate(freqs):
                        e = float(epsilon[a, b, j, k])
                        want.append(f"{d!r},{f!r},{kind},{ear},{e!r},{_decibels(e)!r}")
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
        ],
    )
    def test_surface_rejects_bad_shape_or_axes(self, axes, epsilon_shape):
        with pytest.raises(ValidationError):
            ErrorSurface(*axes, np.ones(epsilon_shape))

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
