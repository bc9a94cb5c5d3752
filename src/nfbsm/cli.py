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
from .hrtf import save_hrtf

_VALIDATION_ERRORS = (
    errors.ValidationError,
    errors.ContractError,
    errors.FormatError,
    errors.SchemaError,
    errors.DataError,
)
_NUMERICAL_ERRORS = (
    errors.DomainError,
    errors.DegenerateFieldError,
    errors.DegenerateTargetError,
    errors.NumericalRankError,
)


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig().validate()
    return parse_config(path)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    surface = run_sweep(config)
    emit_csv(surface, args.out)
    print(f"wrote {surface.epsilon.size} records to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    _, directions, freqs, _ = reference_hrtf_set(config)  # a file brings its own grid
    print(
        f"config ok: {len(config.mic_azimuth_deg)} mics, "
        f"{len(directions)} directions, {len(config.distances_m)} distances, "
        f"{len(freqs)} frequencies, order {config.order}, "
        f"hrtf source {config.hrtf_source}"
    )
    return 0


def _cmd_gen_hrtf(args) -> int:
    config = _load_config(args.config)
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

    p_run = sub.add_parser("run", help="run the sweep and write a CSV")
    p_run.add_argument("--config", help="config file (defaults apply if omitted)")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("--config", help="config file (defaults apply if omitted)")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("gen-hrtf", help="write an analytic HRTF fixture")
    p_gen.add_argument("--config", help="config file (defaults apply if omitted)")
    p_gen.add_argument("--out", required=True, help="output HRTF path")
    p_gen.set_defaults(func=_cmd_gen_hrtf)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
