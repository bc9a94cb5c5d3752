"""HRTF synthesis, near-field rescaling, and file round trips."""

import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nfbsm.errors import (
    DataError,
    DomainError,
    FormatError,
    SchemaError,
    ValidationError,
)
from nfbsm.field import RigidSphere, dvf_at_cosines, free_field_factor
from nfbsm.hrtf import (
    EarGeometry,
    HrtfSet,
    SourceModel,
    analytic_sphere_hrtf,
    load_hrtf,
    nearfield_transform,
    save_hrtf,
)
from nfbsm.sphmath import Direction, cos_angle_between

SPHERE = RigidSphere(0.1)
EARS = EarGeometry()
DATA_DIR = pathlib.Path(__file__).parent / "data"

FIXTURE_DIRECTIONS = (
    Direction.from_degrees(90.0, 0.0),
    Direction.from_degrees(90.0, 90.0),
    Direction.from_degrees(45.0, 200.0),
    Direction.from_degrees(120.0, 310.0),
)
FIXTURE_FREQS = (500.0, 2000.0, 8000.0)

# Finite doubles, drawn often at the ends of the range: signed zeros,
# subnormals and magnitudes near the largest double.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
POSITIVE_FLOATS = st.floats(min_value=5e-324, allow_infinity=False)


def grid(*pairs):
    return tuple(Direction.from_degrees(t, p) for t, p in pairs)


def _row_indices(text):
    """Indices of the data rows among a saved set's lines."""
    return [i for i, line in enumerate(text) if line.startswith("h")]


def _each_row(text, edit):
    for i in _row_indices(text):
        text[i] = edit(text[i])


def _before_rows(text, notes):
    """Insert the ``notes`` lines before every data row but the first."""
    for i in reversed(_row_indices(text)[1:]):
        text[i:i] = notes


class TestAnalyticSphereHrtf:
    def test_frontal_symmetry(self):
        hset = analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [500.0, 3000.0], SourceModel.plane_wave(), 30
        )
        assert np.allclose(np.abs(hset.left), np.abs(hset.right), atol=1e-9)

    def test_long_wavelength_limit(self):
        # the geometric parallax of a point source survives the k -> 0
        # limit, so unit magnitude needs the plane-wave model or a source
        # distance much larger than the sphere
        f = 1e-4 * SPHERE.speed_of_sound_mps / (2 * math.pi * SPHERE.radius_m)
        dirs = grid((90, 0), (30, 120), (140, 250))
        for model in (SourceModel.plane_wave(), SourceModel.point_source(1000.0)):
            hset = analytic_sphere_hrtf(SPHERE, EARS, dirs, [f], model, 30)
            assert np.all(np.abs(np.abs(hset.left) - 1.0) < 1e-3)
            assert np.all(np.abs(np.abs(hset.right) - 1.0) < 1e-3)

    def test_ipsilateral_ear_louder(self):
        # source at azimuth 90 sits next to the left ear (azimuth 100)
        hset = analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 90)), [4000.0], SourceModel.plane_wave(), 30
        )
        assert abs(hset.left[0, 0]) > abs(hset.right[0, 0])

    def test_mirror_symmetry_across_median_plane(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            az = float(rng.uniform(0, 360))
            el = float(rng.uniform(20, 160))
            f = float(rng.uniform(200, 8000))
            a = analytic_sphere_hrtf(
                SPHERE, EARS, grid((el, az)), [f], SourceModel.plane_wave(), 30
            )
            b = analytic_sphere_hrtf(
                SPHERE, EARS, grid((el, 360.0 - az)), [f], SourceModel.plane_wave(), 30
            )
            assert abs(a.left[0, 0]) == pytest.approx(abs(b.right[0, 0]), abs=1e-9)
            assert abs(a.right[0, 0]) == pytest.approx(abs(b.left[0, 0]), abs=1e-9)

    def test_point_model_reference_distance(self):
        hset = analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [1000.0], SourceModel.point_source(3.2), 30
        )
        assert hset.reference_distance_m == 3.2
        pw = analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [1000.0], SourceModel.plane_wave(), 30
        )
        assert math.isinf(pw.reference_distance_m)


class TestNearfieldTransform:
    def make_reference(self, dirs=None, freqs=(300.0, 1000.0, 5000.0)):
        dirs = dirs or grid((90, 0), (90, 100), (90, 260), (40, 50))
        return analytic_sphere_hrtf(
            SPHERE, EARS, dirs, list(freqs), SourceModel.point_source(3.2), 30
        )

    def test_identity_at_reference(self):
        ref = self.make_reference()
        out = nearfield_transform(ref, SPHERE, 3.2, 30, EARS)
        assert np.allclose(out.left, ref.left, atol=1e-12)
        assert np.allclose(out.right, ref.right, atol=1e-12)

    def test_telescoping(self):
        ref = self.make_reference()
        via = nearfield_transform(
            nearfield_transform(ref, SPHERE, 1.0, 30, EARS), SPHERE, 0.25, 30, EARS
        )
        direct = nearfield_transform(ref, SPHERE, 0.25, 30, EARS)
        assert np.allclose(via.left, direct.left, rtol=1e-10)
        assert np.allclose(via.right, direct.right, rtol=1e-10)
        assert via.reference_distance_m == 0.25

    def test_close_transform_boosts_ipsilateral_low_freq(self):
        ref = self.make_reference(dirs=grid((90, 100)), freqs=(300.0,))
        out = nearfield_transform(ref, SPHERE, 0.25, 30, EARS)
        assert abs(out.left[0, 0]) > abs(ref.left[0, 0])

    def test_preserves_grids(self):
        ref = self.make_reference()
        out = nearfield_transform(ref, SPHERE, 0.5, 30, EARS)
        assert out.directions == ref.directions
        assert np.array_equal(out.frequencies_hz, ref.frequencies_hz)
        assert out.left.shape == ref.left.shape
        default = nearfield_transform(ref, SPHERE, 0.5, 30)  # ears: EarGeometry()
        assert np.array_equal(default.left, out.left)
        assert np.array_equal(default.right, out.right)

    def test_spreading_compensation_converges_to_identity(self):
        # with the bulk factor removed the rescaling of a far reference
        # toward a slightly nearer distance stays close to unity
        ref = self.make_reference(freqs=(300.0,))
        out = nearfield_transform(ref, SPHERE, 3.0, 30, EARS)
        ratio = out.left / ref.left
        assert np.all(np.abs(ratio - 1.0) < 0.05)

    def test_matches_per_ear_dvf(self):
        ref = self.make_reference()
        out = nearfield_transform(ref, SPHERE, 0.4, 30, EARS)
        k = 2.0 * math.pi * ref.frequencies_hz / SPHERE.speed_of_sound_mps
        spreading = free_field_factor(k, 3.2) / free_field_factor(k, 0.4)
        for table, got, ear in (
            (ref.left, out.left, EARS.left),
            (ref.right, out.right, EARS.right),
        ):
            cosines = np.array([cos_angle_between(d, ear) for d in ref.directions])
            ratio = dvf_at_cosines(SPHERE, cosines, 0.4, 3.2, k, 30) * spreading
            np.testing.assert_allclose(got, table * ratio, rtol=1e-12)

    @pytest.mark.parametrize("distance_m", [0.105, 0.15, 0.5, 3.2, math.inf])
    def test_carries_an_analytic_set_to_the_analytic_set(self, distance_m):
        # Sets are per unit free-field pressure, so the transform of an
        # analytic set is the analytic set at the target, to rounding (at
        # most 7e-16 measured; a transform that kept the spreading is off
        # by the factor 3.2/d).
        ref = self.make_reference(freqs=(100.0, 300.0, 1000.0, 5000.0, 12000.0))
        out = nearfield_transform(ref, SPHERE, distance_m, 30, EARS)
        model = SourceModel(distance_m)
        want = analytic_sphere_hrtf(
            SPHERE, EARS, ref.directions, ref.frequencies_hz, model, 30
        )
        assert out.reference_distance_m == distance_m
        np.testing.assert_allclose(out.left, want.left, rtol=1e-14, atol=0)
        np.testing.assert_allclose(out.right, want.right, rtol=1e-14, atol=0)

    def test_rejects_plane_wave_reference(self):
        pw = analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [500.0], SourceModel.plane_wave(), 30
        )
        with pytest.raises(DomainError):
            nearfield_transform(pw, SPHERE, 0.5, 30, EARS)

    def test_rejects_target_inside_sphere(self):
        ref = self.make_reference()
        with pytest.raises(DomainError, match=r"\(r_s=0\.05 <= r_a=0\.1\)$"):
            nearfield_transform(ref, SPHERE, 0.05, 30, EARS)

    def test_none_target_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^source distance is NaN"):
            nearfield_transform(self.make_reference(), SPHERE, None, 30, EARS)


class TestHrtfFile:
    def make_set(self):
        return analytic_sphere_hrtf(
            SPHERE,
            EARS,
            FIXTURE_DIRECTIONS,
            list(FIXTURE_FREQS),
            SourceModel.point_source(3.2),
            30,
        )

    def test_round_trip(self, tmp_path):
        hset = self.make_set()
        path = tmp_path / "set.hrtf"
        save_hrtf(hset, path)
        loaded = load_hrtf(path)
        assert loaded.reference_distance_m == hset.reference_distance_m
        assert np.array_equal(loaded.left, hset.left)
        assert np.array_equal(loaded.right, hset.right)
        assert np.array_equal(loaded.frequencies_hz, hset.frequencies_hz)
        assert all(
            abs(a.theta - b.theta) < 1e-15 and abs(a.phi - b.phi) < 1e-15
            for a, b in zip(loaded.directions, hset.directions)
        )

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_other_line_endings_read_alike(self, tmp_path, newline):
        # the reader splits at \n, so \r\n and \r must be read as newlines
        path = tmp_path / "set.hrtf"
        save_hrtf(self.make_set(), path)
        want = load_hrtf(path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        got = load_hrtf(path)
        assert np.array_equal(got.left, want.left)
        assert np.array_equal(got.right, want.right)
        assert np.array_equal(got.frequencies_hz, want.frequencies_hz)

    def test_missing_data_row_is_schema_error(self, tmp_path):
        hset = self.make_set()
        path = tmp_path / "set.hrtf"
        save_hrtf(hset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaError) as err:
            load_hrtf(path)
        assert "12" in str(err.value) and "11" in str(err.value)

    def test_garbled_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.hrtf"
        path.write_text("version 1\nreference_distance_m oops\n")
        with pytest.raises(FormatError) as err:
            load_hrtf(path)
        assert "line 2" in str(err.value)

    def test_wrong_leading_keyword(self, tmp_path):
        path = tmp_path / "bad.hrtf"
        path.write_text("# comment\nversioon 1\n")
        with pytest.raises(FormatError) as err:
            load_hrtf(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("index", ["0.5", "x", "-1", "+0"])
    def test_bad_row_index_reports_line(self, tmp_path, index):
        hset = self.make_set()
        path = tmp_path / "set.hrtf"
        save_hrtf(hset, path)
        text = path.read_text().splitlines()
        first_h = next(i for i, line in enumerate(text) if line.startswith("h "))
        parts = text[first_h].split()
        parts[1] = index
        text[first_h] = " ".join(parts)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError) as err:
            load_hrtf(path)
        assert f"line {first_h + 1}" in str(err.value)

    def test_non_decimal_digit_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.hrtf"
        path.write_text("version 1\nreference_distance_m 3.2\nnum_directions \u00b2\n")
        with pytest.raises(FormatError) as err:
            load_hrtf(path)
        assert "line 3" in str(err.value)

    def test_nan_rejected(self, tmp_path):
        hset = self.make_set()
        path = tmp_path / "set.hrtf"
        save_hrtf(hset, path)
        text = path.read_text().splitlines()
        first_h = next(i for i, line in enumerate(text) if line.startswith("h "))
        parts = text[first_h].split()
        parts[3] = "nan"
        text[first_h] = " ".join(parts)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError, match="^left table contains non-finite values$"):
            load_hrtf(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-500"])
    def test_bad_frequency_reports_line(self, tmp_path, value):
        hset = self.make_set()
        path = tmp_path / "set.hrtf"
        save_hrtf(hset, path)
        text = path.read_text().splitlines()
        first_freq = next(i for i, line in enumerate(text) if line.startswith("freq "))
        text[first_freq] = f"freq {value}"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match=f"line {first_freq + 1}: frequency"):
            load_hrtf(path)

    def test_out_of_order_rows_rejected(self, tmp_path):
        hset = self.make_set()
        path = tmp_path / "set.hrtf"
        save_hrtf(hset, path)
        text = path.read_text().splitlines()
        rows = [i for i, line in enumerate(text) if line.startswith("h ")]
        text[rows[0]], text[rows[1]] = text[rows[1]], text[rows[0]]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaError):
            load_hrtf(path)

    def save_with_notes(self, tmp_path):
        """Save the fixture set with a comment line, a blank line and a
        trailing comment inside its data block; return the path and the
        file's lines."""
        path = tmp_path / "set.hrtf"
        save_hrtf(self.make_set(), path)
        text = path.read_text().splitlines()
        rows = [i for i, line in enumerate(text) if line.startswith("h ")]
        text[rows[6]] += "  # trailing note"
        text.insert(rows[4], "")
        text.insert(rows[2], "   # a note inside the block")
        path.write_text("\n".join(text) + "\n")
        return path, text

    def test_comments_and_blank_lines_in_data_block(self, tmp_path):
        path, _ = self.save_with_notes(tmp_path)
        loaded, hset = load_hrtf(path), self.make_set()
        assert np.array_equal(loaded.left, hset.left)
        assert np.array_equal(loaded.right, hset.right)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda parts: parts[:-1], "take 6 values", id="6-fields"),
            pytest.param(lambda parts: parts + ["1.0"], "take 6 values", id="8-fields"),
            pytest.param(
                lambda parts: ["freq"] + parts[1:], "expected 'h', found 'freq'",
                id="keyword",
            ),
            pytest.param(
                lambda parts: parts[:4] + ["abc"] + parts[5:], "bad response value",
                id="non-numeric",
            ),
            # Python's float() reads "1_0" as 10; numpy's text reader, whose
            # number grammar the data block follows, rejects it
            pytest.param(
                lambda parts: parts[:3] + ["1_0"] + parts[4:], "bad response value",
                id="digit-groups",
            ),
            # indices are written as save_hrtf writes them
            pytest.param(
                lambda parts: parts[:1] + ["0" + parts[1]] + parts[2:], "h indices",
                id="zero-padded-index",
            ),
            # non-ASCII text, inside the reader's fields (two characters wide
            # for this set) and beyond them, where the field cuts it off
            *(
                pytest.param(
                    lambda parts, kw=kw: [kw] + parts[1:], f"expected 'h', found '{kw}'",
                    id=f"keyword-{kw}",
                )
                for kw in ("hé", "ĥ", "hhé", "hhĥ")
            ),
            *(
                pytest.param(
                    lambda parts, index=index, at=at: (
                        parts[:at] + [index] + parts[at + 1 :]
                    ),
                    "h indices", id=f"index-{at}-{index}",
                )
                for index in ("0é", "١", "00é", "00١")
                for at in (1, 2)
            ),
        ],
    )
    def test_malformed_data_row_reports_line(self, tmp_path, edit, message):
        path, text = self.save_with_notes(tmp_path)
        # the eighth data row, after the notes the block now carries
        target = [i for i, line in enumerate(text) if line.startswith("h ")][7]
        text[target] = " ".join(edit(text[target].split()))
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match=f"^line {target + 1}: .*{message}"):
            load_hrtf(path)

    # Layouts of the data block the reader must take alike: each edits the
    # saved file's lines in place; the second item joins them.
    LAYOUTS = {
        "trailing_comments": (lambda text: _each_row(text, lambda r: r + "  # note"), "\n"),
        "comment_lines": (lambda text: _before_rows(text, ["# note", "   # note"]), "\n"),
        "blank_lines": (lambda text: _before_rows(text, ["", " \t\f  "]), "\n"),
        "tabs": (lambda text: _each_row(text, lambda r: r.replace(" ", "\t")), "\n"),
        "form_feeds": (lambda text: _each_row(text, lambda r: r.replace(" ", "\f")), "\n"),
        "nbsp": (lambda text: _each_row(text, lambda r: r.replace(" ", "\u00a0")), "\n"),
        "crlf": (lambda text: None, "\r\n"),
        "cr": (lambda text: None, "\r"),
    }

    def save_in_layout(self, tmp_path, layout, edit=None):
        """Save the fixture set in one of LAYOUTS, then apply ``edit`` to
        its lines; return the path and the lines."""
        path = tmp_path / "set.hrtf"
        save_hrtf(self.make_set(), path)
        text = path.read_text(encoding="utf-8").splitlines()
        lay_out, newline = self.LAYOUTS[layout]
        lay_out(text)
        if edit is not None:
            edit(text)
        path.write_bytes((newline.join(text) + newline).encode("utf-8"))
        return path, text

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_layout_of_the_data_block_reads_alike(self, tmp_path, layout):
        path, _ = self.save_in_layout(tmp_path, layout)
        loaded, hset = load_hrtf(path), self.make_set()
        assert loaded.reference_distance_m == hset.reference_distance_m
        assert loaded.frequencies_hz.tobytes() == hset.frequencies_hz.tobytes()
        assert loaded.left.tobytes() == hset.left.tobytes()
        assert loaded.right.tobytes() == hset.right.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_malformed_row_after_notes_names_its_line(self, tmp_path, layout):
        def break_sixth_row(text):
            target = _row_indices(text)[5]
            text[target:target] = ["# note", "", "  "]
            text[target + 3] = "freq" + text[target + 3][1:]

        path, text = self.save_in_layout(tmp_path, layout, break_sixth_row)
        line = max(i for i, row in enumerate(text) if row.startswith("freq")) + 1
        with pytest.raises(FormatError, match=f"^line {line}: expected 'h', found 'freq'$"):
            load_hrtf(path)

    @pytest.mark.parametrize("layout", ["comment_lines", "crlf"])
    def test_missing_row_among_comments_is_schema_error(self, tmp_path, layout):
        def drop_a_row_among_comments(text):
            target = _row_indices(text)[5]
            text[target : target + 1] = ["# the row was here", "# and a second note"]

        path, _ = self.save_in_layout(tmp_path, layout, drop_a_row_among_comments)
        with pytest.raises(SchemaError, match=r"^expected 12 data rows .*, found 11$"):
            load_hrtf(path)

    def test_no_data_rows_is_schema_error_without_a_warning(self, tmp_path):
        def drop_every_row(text):
            text[_row_indices(text)[0] :] = ["# no rows"]

        path, _ = self.save_in_layout(tmp_path, "crlf", drop_every_row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's reader warns on a block of no rows
            with pytest.raises(SchemaError, match=r"^expected 12 data rows .*, found 0$"):
                load_hrtf(path)

    def test_long_index_is_out_of_order(self, tmp_path):
        # "10" where "1" belongs must not be read as a cut-off "1"
        path, text = self.save_with_notes(tmp_path)
        target = next(i for i, line in enumerate(text) if line.startswith("h 1 0 "))
        text[target] = text[target].replace("h 1 0 ", "h 10 0 ", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(
            SchemaError, match=rf"^line {target + 1}: data row 3 .*found \(10, 0\)"
        ):
            load_hrtf(path)

    @pytest.mark.parametrize("layout", ["comment_lines", "crlf"])
    def test_first_faulty_row_in_file_order_is_named(self, tmp_path, layout):
        # numpy's reader takes the misplaced third row and rejects the eighth;
        # the error is the third row's, the first faulty row in the file
        def misplace_third_break_eighth(text):
            rows = _row_indices(text)
            third = text[rows[2]].split()
            text[rows[2]] = " ".join(text[rows[1]].split()[:3] + third[3:])
            text[rows[7]] += "x"

        path, text = self.save_in_layout(tmp_path, layout, misplace_third_break_eighth)
        line = _row_indices(text)[2] + 1
        with pytest.raises(
            SchemaError,
            match=rf"^line {line}: data row 2 out of direction-major order: "
            r"expected indices \(0, 2\), found \(0, 1\)$",
        ):
            load_hrtf(path)

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "-inf"])
    def test_bad_reference_distance_reports_line(self, tmp_path, value):
        path = tmp_path / "set.hrtf"
        save_hrtf(self.make_set(), path)
        text = path.read_text().splitlines()
        text[1] = f"reference_distance_m {value}"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match="^line 2: reference distance"):
            load_hrtf(path)

    @pytest.mark.parametrize("line, key", [(3, "num_directions"), (4, "num_frequencies")])
    def test_zero_count_reports_line(self, tmp_path, line, key):
        path = tmp_path / "set.hrtf"
        save_hrtf(self.make_set(), path)
        text = path.read_text().splitlines()
        text[line - 1] = f"{key} 0"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match=f"^line {line}: {key}"):
            load_hrtf(path)

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (1, "version 2", "unsupported version '2'"),
            (2, "reference_distance_m 3.2 1.0", "reference_distance_m takes one value"),
            (5, "dir 90", "dir lines take theta and phi in degrees"),
            (6, "dir 181 0", "theta must lie in [0, pi]"),
            (9, "freq 500 600", "freq lines take one value"),
        ],
    )
    def test_malformed_header_line_reports_line(self, tmp_path, line, text, message):
        path = tmp_path / "set.hrtf"
        save_hrtf(self.make_set(), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}"):
            load_hrtf(path)

    def test_header_cut_short_is_format_error(self, tmp_path):
        path = tmp_path / "set.hrtf"
        path.write_text("version 1\nreference_distance_m 3.2\n# num_directions 4\n")
        with pytest.raises(
            FormatError, match="^unexpected end of file, expected 'num_directions'$"
        ):
            load_hrtf(path)

    def test_plane_wave_set_round_trip(self, tmp_path):
        hset = analytic_sphere_hrtf(
            SPHERE, EARS, FIXTURE_DIRECTIONS, list(FIXTURE_FREQS),
            SourceModel.plane_wave(), 30,
        )
        path = tmp_path / "pw.hrtf"
        save_hrtf(hset, path)
        loaded = load_hrtf(path)
        assert math.isinf(loaded.reference_distance_m)
        assert np.array_equal(loaded.left, hset.left)
        assert np.array_equal(loaded.right, hset.right)

    @settings(max_examples=60, deadline=None)
    @given(
        tables=st.integers(1, 3).flatmap(
            lambda q: st.integers(1, 4).flatmap(
                lambda f: arrays(float, (q, f, 4), elements=EDGE_FLOATS)
            )
        ),
        freqs=st.lists(POSITIVE_FLOATS, min_size=4, max_size=4, unique=True),
        reference=st.one_of(POSITIVE_FLOATS, st.just(math.inf)),
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, tables, freqs, reference):
        q, f, _ = tables.shape
        h = tables.view(complex)  # (q, f, 2) with the drawn bits, -0.0 included
        hset = HrtfSet(
            FIXTURE_DIRECTIONS[:q], np.array(freqs[:f]), reference, h[..., 0], h[..., 1]
        )
        path = tmp_path_factory.mktemp("round-trip") / "set.hrtf"
        save_hrtf(hset, path)
        loaded = load_hrtf(path)
        assert loaded.reference_distance_m == reference
        assert loaded.frequencies_hz.tobytes() == hset.frequencies_hz.tobytes()
        assert loaded.left.tobytes() == hset.left.tobytes()
        assert loaded.right.tobytes() == hset.right.tobytes()

    def test_writer_does_not_hold_the_file_text(self, tmp_path):
        # 24 directions x 512 frequencies is a 1.08 MB file; the writer holds
        # the set's values and one direction's rows (about 1.7 MiB), never
        # the whole text
        hset = analytic_sphere_hrtf(
            SPHERE, EARS, tuple(Direction(1.0, 0.25 * q) for q in range(24)),
            np.geomspace(75.0, 10000.0, 512), SourceModel(3.2), 40,
        )
        tracemalloc.start()
        try:
            save_hrtf(hset, tmp_path / "dense.hrtf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_bundled_fixture_matches_regeneration(self):
        fixture = load_hrtf(DATA_DIR / "analytic_4dir_3freq.hrtf")
        regen = self.make_set()
        assert np.allclose(fixture.left, regen.left, rtol=1e-9, atol=1e-12)
        assert np.allclose(fixture.right, regen.right, rtol=1e-9, atol=1e-12)


class TestSourceModel:
    def test_plane_wave_is_the_source_at_infinity(self):
        assert SourceModel.plane_wave() == SourceModel(math.inf) == SourceModel()

    # a distance is a real number: numpy would parse "3.2" and read True as 1
    @pytest.mark.parametrize("distance", [None, 0.0, -1.0, math.nan, "3.2", True])
    def test_bad_distance_rejected(self, distance):
        with pytest.raises(ValidationError, match="^source model needs a positive distance$"):
            SourceModel(distance)


class TestHrtfSetValidation:
    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            HrtfSet(
                grid((90, 0)),
                np.array([1000.0, 2000.0]),
                3.2,
                np.zeros((1, 3), complex),
                np.zeros((1, 2), complex),
            )

    def test_non_finite_rejected(self):
        bad = np.array([[complex(np.nan, 0.0)]])
        with pytest.raises(DataError):
            HrtfSet(grid((90, 0)), np.array([1000.0]), 3.2, bad, np.ones((1, 1), complex))

    @pytest.mark.parametrize(
        "freqs, message",
        [
            ([1000.0, np.inf], "positive and finite"),
            ([np.nan, 1000.0], "positive and finite"),
            ([1000.0, 1000.0], "must not repeat"),
        ],
    )
    def test_bad_frequencies_rejected(self, freqs, message):
        table = np.ones((1, 2), complex)
        with pytest.raises(ValidationError, match=message):
            HrtfSet(grid((90, 0)), np.array(freqs), 3.2, table, table)

    @pytest.mark.parametrize("distance", [None, 0.0, -1.0, math.nan, "3.2", True])
    def test_bad_reference_distance_rejected(self, distance):
        table = np.ones((1, 1), complex)
        with pytest.raises(ValidationError, match="reference distance"):
            HrtfSet(grid((90, 0)), np.array([1000.0]), distance, table, table)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: HrtfSet((), [500.0], 3.2, np.empty((0, 1)), np.empty((0, 1))),
         "HRTF set needs at least one direction and frequency"),
        (lambda: HrtfSet(grid((90, 0)), [], 3.2, np.empty((1, 0)), np.empty((1, 0))),
         "HRTF set needs at least one direction and frequency"),
        (lambda: analytic_sphere_hrtf(SPHERE, EARS, grid((90, 0)), [], SourceModel(), 8),
         "frequencies must be a non-empty 1-D sequence"),
        (lambda: analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [[500.0]], SourceModel(), 8),
         "frequencies must be a non-empty 1-D sequence"),
        (lambda: analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [500.0, 0.0], SourceModel(), 8),
         "frequencies must be positive and finite"),
        (lambda: analytic_sphere_hrtf(
            SPHERE, EARS, grid((90, 0)), [math.inf], SourceModel(), 8),
         "frequencies must be positive and finite"),
    ],
    ids=["set_no_direction", "set_no_frequency", "analytic_empty", "analytic_2d",
         "analytic_zero", "analytic_inf"],
)
def test_argument_checks(call, match):
    with pytest.raises(ValidationError, match=f"^{match}$"):
        call()
