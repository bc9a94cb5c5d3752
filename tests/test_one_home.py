"""Conventions with one home in ``src/nfbsm``: each pattern is found, line by
line as grep finds it, in exactly the modules named beside it.  The CI's
"one home" steps grep for the same patterns."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "nfbsm"

RULES = {
    # only field divides out a source's spreading; every other module
    # normalizes through field.surface_pressure and field.surface_coefficients
    "amplitude_convention": (r"free_field_factor", {"field.py"}),
    # only errors.Error writes the "line N: " prefix of an input error
    "line_prefix": (r'"line \{', {"errors.py"}),
    # only sphmath tests for an integer or a real number, bools refused
    "number_import": (r"import numbers", {"sphmath.py"}),
    "bool_test": (r"isinstance\([^)]*bool\)", {"sphmath.py"}),
    # sources have unit power: the noise power is lambda, the one noise input
    "noise_parameter": (r"sigma_s_sq", set()),
}


@pytest.mark.parametrize("pattern, homes", RULES.values(), ids=RULES)
def test_pattern_lives_only_in_its_home(pattern, homes):
    found = {
        path.name
        for path in SRC.glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(pattern, line)
    }
    assert found == homes
