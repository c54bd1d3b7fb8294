"""Command-line front end.

Exit codes: 0 success, 2 configuration/validation error, 3 infeasible
timing, 4 solver or branch failure or a result that is not finite.  All
numbers print with 12 significant digits; --json replaces the key = value
lines with a single JSON document.  A command builds and parses only its own
parser; the full tree, built from the same table, handles the top-level help,
leftover arguments and a missing or unknown command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bath import (
    _FIELDS,
    BathKind,
    BathModel,
    coherence_time,
    decay_exponent,
    decay_exponent_derivative,
    ohmic_limit_rates,
)
from .errors import DomainError, GhzGainError, InfeasibleTimingError, SolverError, check_finite
from .gain import ScalingKind, ScalingLaw, gain, n_cutoff_and_max_gain, threshold_ent_time
from .opttime import optimal_sensing_time
from .qfi import qfi_ghz, qfi_separable
from .sweep import format_sig, load_config, run_sweep, save_rows


def _model_from_args(args: argparse.Namespace) -> BathModel:
    values = {field: getattr(args, field) for field in _FIELDS}
    data = {field: value for field, value in values.items() if value is not None}
    return BathModel.from_dict({"kind": args.model, **data})


def _emit(payload: dict, as_json: bool) -> None:
    for key, value in payload.items():
        if isinstance(value, float):
            check_finite(value, key, SolverError)
    if as_json:
        rounded = {
            key: (float(format_sig(value)) if isinstance(value, float) else value)
            for key, value in payload.items()
        }
        print(json.dumps(rounded))
        return
    for key, value in payload.items():
        if value is None:
            print(f"{key} = none")
        elif isinstance(value, float):
            print(f"{key} = {format_sig(value)}")
        else:
            print(f"{key} = {value}")


def _cmd_bath(args, model: BathModel) -> dict:
    payload = {
        "decay_exponent": decay_exponent(model, args.tau),
        "decay_exponent_derivative": decay_exponent_derivative(model, args.tau),
        "t_c": coherence_time(model),
    }
    if args.model == "ohmic":
        gamma, eta = ohmic_limit_rates(model.alpha, model.beta, model.omega_c)
        payload["limit_gamma"] = gamma
        payload["limit_eta"] = eta
    return payload


def _cmd_qfi(args, model: BathModel) -> dict:
    return {
        "f_sep": qfi_separable(args.n, args.tau, model),
        "f_ent": qfi_ghz(args.n, args.tau, model),
    }


def _cmd_tau_opt(args, model: BathModel) -> dict:
    tts = args.ttilde_sep if args.ttilde_sep is not None else args.ttilde
    tte = args.ttilde_ent if args.ttilde_ent is not None else args.ttilde
    sep = optimal_sensing_time(model, tts, 1)
    ent = optimal_sensing_time(model, tte, args.n)
    return {
        "tau_opt_sep": sep.tau_opt,
        "residual_sep": sep.residual,
        "tau_opt_ent": ent.tau_opt,
        "residual_ent": ent.residual,
    }


def _cmd_gain(args, model: BathModel) -> dict:
    return dict(vars(gain(model, args.n, args.ttilde_sep, args.ttilde_ent)))


def _cmd_threshold(args, model: BathModel) -> dict:
    return {
        "ttilde_ent_threshold": threshold_ent_time(model, args.n, args.ttilde_sep)
    }


def _cmd_cutoff(args, model: BathModel) -> dict:
    law = ScalingLaw(args.law, args.base)
    tau_tilde_sep = format_sig(law.base * coherence_time(model))  # the scan's, to 12 digits
    if args.ttilde_sep is not None and format_sig(args.ttilde_sep) != tau_tilde_sep:
        raise DomainError(f"--ttilde-sep {args.ttilde_sep!r} is not base * t_c = {tau_tilde_sep}")
    cutoff, best_n, best_r = n_cutoff_and_max_gain(model, law, args.n_search_max)
    return {"n_cutoff": cutoff, "n_max": best_n, "r_at_n_max": best_r}


def _cmd_sweep(args, _model: None) -> dict:
    config = load_config(args.config)
    rows = run_sweep(config)
    save_rows(rows, config)
    return {"rows": len(rows), "path": config.output_path}


_JSON = ("--json", dict(action="store_true", help="emit a JSON document"))
_MODEL = (
    ("--model", dict(required=True, choices=[kind.value for kind in BathKind],
                     help="bath model kind")),
    ("--tc", dict(type=float, dest="t_c", help="coherence time (isolated)")),
    ("--gamma", dict(type=float, help="dephasing rate (markovian)")),
    ("--eta", dict(type=float, help="decay coefficient (nonmarkovian)")),
    ("--alpha", dict(type=float, help="coupling strength (ohmic)")),
    ("--omega-c", dict(type=float, help="cutoff frequency (ohmic)")),
    ("--beta", dict(type=float, help="inverse bath temperature (ohmic)")),
    _JSON,
)
_N = ("--n", dict(type=int, required=True, help="particle count"))
_TAU = ("--tau", dict(type=float, required=True, help="sensing time"))

# name: (handler, help text, arguments in help order); the model commands start with _MODEL
_COMMANDS = {
    "bath": (_cmd_bath, "decay exponent, its derivative and t_c", (*_MODEL, _TAU)),
    "qfi": (_cmd_qfi, "closed-form QFI of both probe states", (*_MODEL, _N, _TAU)),
    "tau-opt": (_cmd_tau_opt, "optimal sensing times and residuals", (
        *_MODEL,
        ("--n", dict(type=int, default=1, help="particle count (default 1)")),
        ("--ttilde", dict(type=float, default=0.0, help="overhead applied to both strategies")),
        ("--ttilde-sep", dict(type=float, help="separable overhead override")),
        ("--ttilde-ent", dict(type=float, help="entangled overhead override")))),
    "gain": (_cmd_gain, "metrological gain r and its ingredients", (
        *_MODEL, _N,
        ("--ttilde-sep", dict(type=float, default=0.0, help="separable overhead")),
        ("--ttilde-ent", dict(type=float, default=0.0, help="entangled overhead")))),
    "threshold": (_cmd_threshold, "entangled overhead where r = 1", (
        *_MODEL, _N, ("--ttilde-sep", dict(type=float, default=0.0, help="separable overhead")))),
    "cutoff": (_cmd_cutoff, "largest advantageous N and the N maximising the gain", (
        *_MODEL,
        ("--law", dict(required=True, choices=[kind.value for kind in ScalingKind],
                       help="N-scaling of the entangled overhead")),
        ("--base", dict(type=float, required=True, help="separable overhead in units of t_c")),
        ("--ttilde-sep", dict(
            type=float, help="separable overhead, if given equal to base * t_c (12 digits)")),
        ("--n-search-max", dict(type=int, default=10**6,
                                help="scan limit (default 1e6, at most 1e9)")))),
    "sweep": (_cmd_sweep, "run a sweep described by a JSON config", (
        _JSON, ("--config", dict(required=True, help="path to the sweep config")))),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    handler, _, arguments = _COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(handler=handler)
    return parser


# Building a parser costs more than most queries, and parsing leaves it unchanged.
@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    return _add_arguments(argparse.ArgumentParser(prog=f"ghzgain {name}"), name)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzgain",
        description="GHZ-versus-separable metrological gain with finite "
        "preparation and readout times",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named command's own parser, whose help and errors are the full
    tree's subparser's to the byte; the full tree settles the rest (top-level help, a
    missing or unknown command, an option before it, leftover arguments)."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def cli_main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _emit(args.handler(args, _model_from_args(args) if "model" in args else None),
              args.json)
    except InfeasibleTimingError as exc:
        print(f"error: infeasible timing: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 4
    except (GhzGainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())
