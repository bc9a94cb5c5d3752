"""CLI commands and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nfbsm.cli import main
from nfbsm.errors import Error, FormatError
from nfbsm.experiment import CSV_HEADER, ExperimentConfig, load_csv, parse_config
from nfbsm.hrtf import load_hrtf

FIXTURE = Path(__file__).parent / "data" / "analytic_4dir_3freq.hrtf"

FAST_CFG = """
distances_m = [0.3, 3.2]
freq_count = 5
design_grid_size = 32
order = 15
"""


def write_cfg(tmp_path, text=FAST_CFG):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", "--config", write_cfg(tmp_path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_default_config(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "4 mics" in out and "6 distances" in out


def test_validate_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "distances_m = [-1]\n")
    assert main(["validate", "--config", cfg]) == 1
    assert "distances_m" in capsys.readouterr().err


def test_run_checks_its_config_once(tmp_path, monkeypatch):
    # the config is checked when parse_config makes it, and nowhere after
    calls, validate = [], ExperimentConfig.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    argv = ["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("reader", [parse_config, load_hrtf, load_csv])
@pytest.mark.parametrize(
    "data, line",
    [(b"order = 8\n# caf\xff\n", 2), (b"a\r\nb\rc\n\xe9t\xe9\n", 4)],
    ids=["lf", "mixed-newlines"],
)
def test_readers_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, reader, data, line):
    # lines are counted as text mode splits them: \r\n, \r or \n
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^line {line}: .*not UTF-8"):
        reader(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (parse_config, "order = 8\nhrtf_path = a\0b.hrtf\n"),
        (load_hrtf, FIXTURE.read_text().replace("\nh 0 1 ", "\nh 0 1\0 ")),
        (load_csv, f"{CSV_HEADER}\n0.2,75.0,ff,left,0.1\0,-10.0\n"),
    ],
    ids=["config", "hrtf", "csv"],
)
def test_readers_name_the_line_of_a_nul_byte(tmp_path, reader, text):
    # numpy's fixed-width text fields drop a trailing NUL, so the file check
    # rejects it before any reader parses a field
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    line = text[: text.index("\0")].count("\n") + 1
    assert line > 1
    with pytest.raises(FormatError, match=f"^line {line}: .*NUL"):
        reader(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (parse_config, "order = 8\nbogus = 1\n"),
        (load_hrtf, FIXTURE.read_text().replace("\nh 0 1 ", "\nh 0 2 ")),
        (load_csv, f"{CSV_HEADER}\n0.2,75.0,ff,right,0.1,-10.0\n"),
    ],
    ids=["config", "hrtf", "csv"],
)
def test_line_errors_keep_their_line(tmp_path, reader, text):
    # every error whose message names a line carries it as .line
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(Error, match=r"^line (\d+): ") as err:
        reader(path)
    assert str(err.value).startswith(f"line {err.value.line}: ") and err.value.line > 1


def test_validate_config_with_a_nul_byte_is_validation_error(tmp_path, capsys):
    # a NUL in hrtf_path reaches no open() call
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(b"hrtf_source = file\nhrtf_path = a\0b.hrtf\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("validation error: line 2")


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"], ids=["ff", "nel", "ls"])
@pytest.mark.parametrize(
    "reader, head, bad",
    [
        (parse_config, "order = 8{}", "bogus"),
        (load_hrtf, "version 1 # saved{}by hand", "reference_distance_m oops"),
        (load_csv, f"{CSV_HEADER}\n0.2,75.0,ff,left,0.1,-10.0{{}}", "0.2,75.0,ff,right,x,0"),
    ],
    ids=["config", "hrtf", "csv"],
)
def test_readers_count_lines_as_the_utf8_check_does(tmp_path, reader, head, bad, separator):
    # only \r\n, \r and \n end a line; other separators are characters
    path = tmp_path / "input.txt"
    head = head.format(separator) + "\n"
    path.write_bytes(head.encode() + b"\xff\n")
    with pytest.raises(FormatError, match="not UTF-8") as undecodable:
        reader(path)
    line = undecodable.value.line
    assert line == head.count("\n") + 1
    path.write_bytes((head + bad + "\n").encode())
    with pytest.raises(Error, match=f"^line {line}: "):
        reader(path)


def test_validate_names_the_line_after_a_form_feed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "order = 8\f\nbogus = 1\n")
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: line 2: unknown key 'bogus'")


def test_validate_config_that_is_not_utf8_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(b"order = 8\n# caf\xff\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("validation error: line 2: ")


def test_validate_reports_the_file_grid(tmp_path, capsys):
    hrtf = tmp_path / "ref.hrtf"
    gen_cfg = write_cfg(tmp_path, FAST_CFG.replace("freq_count = 5", "freq_count = 7"))
    assert main(["gen-hrtf", "--config", gen_cfg, "--out", str(hrtf)]) == 0
    capsys.readouterr()
    cfg = write_cfg(tmp_path, FAST_CFG + f"hrtf_source = file\nhrtf_path = {hrtf}\n")
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "32 directions" in out and "7 frequencies" in out


def test_validate_missing_hrtf_file_is_io_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, f"hrtf_source = file\nhrtf_path = {tmp_path / 'nope.hrtf'}\n"
    )
    assert main(["validate", "--config", cfg]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_run_writes_csv(tmp_path):
    out = tmp_path / "errors.csv"
    assert main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 * 5 * 2 * 2 + 1
    assert len(load_csv(out).records) == 40


def test_run_missing_config_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_run_unwritable_out_is_io_error(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "missing_dir" / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3


def test_gen_hrtf_round_trips(tmp_path):
    out = tmp_path / "ref.hrtf"
    assert main(["gen-hrtf", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    hset = load_hrtf(out)
    assert hset.num_directions == 32
    assert hset.num_frequencies == 5
    assert hset.reference_distance_m == 3.2


def test_gen_hrtf_requires_analytic_source(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "hrtf_source = file\nhrtf_path = whatever.hrtf\n"
    )
    assert main(["gen-hrtf", "--config", cfg, "--out", str(tmp_path / "o.hrtf")]) == 1


def test_run_order_64_at_low_frequency_is_finite(tmp_path):
    # On the surface no y_n is evaluated, so order 64 at 0.01-1 Hz on a
    # 0.1 m sphere does not overflow.
    cfg = write_cfg(
        tmp_path,
        "order = 64\nfreq_min_hz = 0.01\nfreq_max_hz = 1\nfreq_count = 4\n"
        "design_grid_size = 8\ndistances_m = [0.3, 3.2]\n",
    )
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    epsilon = load_csv(out).epsilon
    assert epsilon.shape == (2, 4, 2, 2)
    assert np.all(np.isfinite(epsilon)) and np.all(epsilon >= 0.0)


def test_run_edited_epsilon_db_fails_to_load(tmp_path):
    out = tmp_path / "errors.csv"
    assert main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + ",123.0"
    out.write_text("\n".join(rows) + "\n")
    with pytest.raises(FormatError, match="^line 2: epsilon_db 123.0 "):
        load_csv(out)


@pytest.mark.parametrize(
    "line, key",
    [
        ("sphere_radius_m = inf", "sphere_radius_m"),
        ("speed_of_sound_mps = nan", "speed_of_sound_mps"),
        ("distances_m = [0.3, inf]", "distances_m"),
        ("reference_distance_m = inf", "reference_distance_m"),
        ("freq_min_hz = nan", "freq_min_hz"),
        ("freq_max_hz = inf", "freq_max_hz"),
        ("frequencies_hz = [1000.0, inf]", "frequencies_hz"),
    ],
)
def test_run_non_finite_value_names_key(tmp_path, capsys, line, key):
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error") and f"{key} must be finite" in err


def test_run_bad_hrtf_row_index_is_validation_error(tmp_path, capsys):
    hrtf = tmp_path / "ref.hrtf"
    assert main(["gen-hrtf", "--config", write_cfg(tmp_path), "--out", str(hrtf)]) == 0
    text = hrtf.read_text().splitlines()
    first_h = next(i for i, line in enumerate(text) if line.startswith("h "))
    text[first_h] = "h 0.5" + text[first_h][3:]
    hrtf.write_text("\n".join(text) + "\n")
    cfg = write_cfg(tmp_path, FAST_CFG + f"hrtf_source = file\nhrtf_path = {hrtf}\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"validation error: line {first_h + 1}" in capsys.readouterr().err


def write_hrtf_config(tmp_path, freq_line):
    """Config sweeping a generated HRTF file whose second ``freq`` line is
    replaced by ``freq_line``; returns the config path and that line's number."""
    hrtf = tmp_path / "ref.hrtf"
    assert main(["gen-hrtf", "--config", write_cfg(tmp_path), "--out", str(hrtf)]) == 0
    text = hrtf.read_text().splitlines()
    i = 1 + next(i for i, line in enumerate(text) if line.startswith("freq "))
    text[i] = freq_line
    hrtf.write_text("\n".join(text) + "\n")
    cfg = write_cfg(tmp_path, FAST_CFG + f"hrtf_source = file\nhrtf_path = {hrtf}\n")
    return cfg, i + 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("distances_m = [0.2, 0.2, 3.2]", "distances_m entries must not repeat"),
        ("frequencies_hz = [100, 100]", "frequencies_hz entries must not repeat"),
        ("freq_min_hz = 1000\nfreq_max_hz = 1000\nfreq_count = 3", "freq_count"),
    ],
)
def test_run_repeated_axis_is_validation_error(tmp_path, capsys, line, message):
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error") and message in err


@pytest.mark.parametrize(
    "freq_line, message",
    [
        ("freq 10000.0", "frequencies must not repeat"),  # repeats the last line
        ("freq nan", "line {}: frequency must be positive and finite"),
        ("freq inf", "line {}: frequency must be positive and finite"),
    ],
)
def test_run_bad_hrtf_frequency_is_validation_error(
    tmp_path, capsys, freq_line, message
):
    cfg, lineno = write_hrtf_config(tmp_path, freq_line)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error") and message.format(lineno) in err


def test_validate_bad_hrtf_frequency_names_line(tmp_path, capsys):
    cfg, lineno = write_hrtf_config(tmp_path, "freq nan")
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: line {lineno}")


_COINCIDENT_MICS = (
    "mic_azimuth_deg = [30, 30, 280, 330]\n"
    "freq_count = 8\ndesign_grid_size = 24\ndistances_m = [0.2, 3.2]\n"
)


@pytest.mark.parametrize(
    "text",
    [
        # two microphones at one azimuth make V V^H singular; lambda = 1e-20
        # is too small to lift it
        _COINCIDENT_MICS + "sigma_n_sq = 1e-20\n",
        _COINCIDENT_MICS + "sigma_n_sq = 0\n",
        # one design direction makes V V^H rank one, which matrix_rank can
        # count as full rank (the rounding depends on the BLAS); the LU
        # solve then finds it singular
        "mic_elevation_deg = [90, 90]\nmic_azimuth_deg = [30, 295]\norder = 30\n"
        "distances_m = [0.5, 3.2]\nfrequencies_hz = [5000]\nsigma_n_sq = 0\n"
        "design_grid_size = 1\n",
        # two microphones 6e-8 degrees apart: Cholesky succeeds on a Gram
        # matrix whose second pivot is 3e-16 of the first, and the solved
        # near-field filter scored 1.97 against the far-field one's 0.73
        "mic_elevation_deg = [5.960464477539063e-08, 0, 119]\n"
        "mic_azimuth_deg = [0, 0, 0]\norder = 11\ndistances_m = [2.625]\n"
        "frequencies_hz = [1]\nsigma_n_sq = 0\ndesign_grid_size = 3\n"
        "reference_distance_m = 2\n",
    ],
    ids=["1e-20", "0", "rank-one", "near-coincident"],
)
def test_run_singular_gram_is_numerical_error(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, text)
    assert main(["validate", "--config", cfg]) == 0
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_cli_import_and_run_load_no_scipy(tmp_path):
    # scipy serves only off-surface fields and the special-function
    # wrappers, which neither the import nor a sweep reaches.
    cfg = write_cfg(
        tmp_path, "order = 8\ndesign_grid_size = 12\nfreq_count = 3\ndistances_m = [0.3, 3.2]\n"
    )
    script = (
        "import sys\n"
        "import nfbsm.cli\n"
        "assert nfbsm.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "x.csv")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "x.csv").exists()


def test_import_parse_and_run_load_no_masked_arrays(tmp_path):
    # numpy.ma costs ~15 ms of start-up; numpy 2 imports it only on demand
    # (np.unique's masked check), which neither the import, the config
    # checks nor a sweep reaches.
    cfg = write_cfg(
        tmp_path, "order = 8\ndesign_grid_size = 12\nfreq_count = 3\ndistances_m = [0.3, 3.2]\n"
    )
    script = (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    sys.exit('numpy.ma preloaded')\n"
        "import nfbsm.cli\n"
        "from nfbsm.experiment import parse_config\n"
        "parse_config(sys.argv[1])\n"
        "assert 'numpy.ma' not in sys.modules, 'config checks'\n"
        "assert nfbsm.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'sweep'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "x.csv")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    if "numpy.ma preloaded" in proc.stderr:
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    assert proc.returncode == 0, proc.stderr


# Two microphones at one azimuth make V V^H singular and sigma_n_sq = 0
# cannot lift it: a config that validates but whose sweep fails.
SINGULAR_CFG = (
    "mic_azimuth_deg = [30, 30, 280, 330]\nsigma_n_sq = 0\n"
    "freq_count = 4\ndesign_grid_size = 12\norder = 8\ndistances_m = [0.2, 3.2]\n"
)


@pytest.mark.parametrize(
    "command, cfg_text, code",
    [
        ("validate", FAST_CFG, 0),
        ("run", "order = 8\ndesign_grid_size = 12\nfreq_count = 3\ndistances_m = [0.3, 3.2]\n", 0),
        ("run", "distances_m = [-1]\n", 1),
        ("run", SINGULAR_CFG, 2),
        ("run", None, 3),
    ],
    ids=["validate-ok", "run-ok", "run-validation", "run-numerical", "run-io"],
)
def test_module_entry_point_exit_codes(tmp_path, command, cfg_text, code):
    # `python -m nfbsm.cli` goes through entry() and sys.exit, as the
    # installed bsm-sweep script does.
    cfg = write_cfg(tmp_path, cfg_text) if cfg_text else str(tmp_path / "nope.cfg")
    argv = [command, "--config", cfg]
    if command == "run":
        argv += ["--out", str(tmp_path / "x.csv")]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nfbsm.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "x.csv").exists() == (command == "run" and code == 0)
