"""Command line interface.

    bsm-sweep run --config sweep.cfg --out errors.csv
    bsm-sweep validate --config sweep.cfg
    bsm-sweep gen-hrtf --out reference.hrtf [--config sweep.cfg]

Exit codes: 0 success, 1 validation error, 2 numerical error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import errors
from .experiment import ExperimentConfig, emit_csv, parse_config, run_sweep, reference_hrtf_set
from .experiment import _sweep_grids
from .hrtf import save_hrtf

_NUMERICAL_ERRORS = (
    errors.DomainError,
    errors.DegenerateFieldError,
    errors.DegenerateTargetError,
    errors.NumericalRankError,
)


def _cmd_run(args, config: ExperimentConfig) -> int:
    surface = run_sweep(config)
    emit_csv(surface, args.out)
    print(f"wrote {surface.epsilon.size} records to {args.out}")
    return 0


def _cmd_validate(args, config: ExperimentConfig) -> int:
    _, directions, freqs, _ = _sweep_grids(config)  # a file brings its own grid
    print(
        f"config ok: {len(config.mic_azimuth_deg)} mics, "
        f"{len(directions)} directions, {len(config.distances_m)} distances, "
        f"{len(freqs)} frequencies, order {config.order}, "
        f"hrtf source {config.hrtf_source}"
    )
    return 0


def _cmd_gen_hrtf(args, config: ExperimentConfig) -> int:
    if config.hrtf_source != "analytic":
        raise errors.ValidationError("gen-hrtf requires hrtf_source 'analytic'")
    hset, _, _, _ = reference_hrtf_set(config)
    save_hrtf(hset, args.out)
    print(
        f"wrote analytic set ({hset.num_directions} directions x "
        f"{hset.num_frequencies} frequencies) to {args.out}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsm-sweep",
        description="Binaural signal matching error sweeps on a rigid sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, about, out in (
        ("run", _cmd_run, "run the sweep and write a CSV", "output CSV path"),
        ("validate", _cmd_validate, "parse and validate a config", None),
        ("gen-hrtf", _cmd_gen_hrtf, "write an analytic HRTF fixture", "output HRTF path"),
    ):
        command = sub.add_parser(name, help=about)
        command.add_argument("--config", help="config file (defaults apply if omitted)")
        if out:
            command.add_argument("--out", required=True, help=out)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig() if args.config is None else parse_config(args.config)
        return args.func(args, config)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except errors.Error as exc:  # every other class is an input error
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
