"""Command-line front end.

Exit codes: 0 success, 2 configuration/validation error, 3 infeasible
timing, 4 solver or branch failure or a result that is not finite.  All
numbers print with 12 significant digits; --json replaces the key = value
lines with a single JSON document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .bath import (
    BathModel,
    coherence_time,
    decay_exponent,
    decay_exponent_derivative,
    ohmic_limit_rates,
)
from .errors import DomainError, GhzGainError, InfeasibleTimingError, SolverError, check_finite
from .gain import ScalingLaw, gain, n_cutoff_and_max_gain, threshold_ent_time
from .opttime import optimal_sensing_time
from .qfi import qfi_ghz, qfi_separable
from .sweep import format_sig, load_config, run_sweep, save_rows

_MODEL_FIELDS = ("tc", "gamma", "eta", "alpha", "omega_c", "beta")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        choices=["isolated", "markovian", "nonmarkovian", "ohmic"],
        help="bath model kind",
    )
    parser.add_argument("--tc", type=float, help="coherence time (isolated)")
    parser.add_argument("--gamma", type=float, help="dephasing rate (markovian)")
    parser.add_argument("--eta", type=float, help="decay coefficient (nonmarkovian)")
    parser.add_argument("--alpha", type=float, help="coupling strength (ohmic)")
    parser.add_argument("--omega-c", type=float, help="cutoff frequency (ohmic)")
    parser.add_argument("--beta", type=float, help="inverse bath temperature (ohmic)")


def _model_from_args(args: argparse.Namespace) -> BathModel:
    data = {"kind": args.model}
    for field in _MODEL_FIELDS:
        value = getattr(args, field)
        if value is not None:
            key = "t_c" if field == "tc" else field
            data[key] = value
    return BathModel.from_dict(data)


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


def _cmd_bath(args) -> dict:
    model = _model_from_args(args)
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


def _cmd_qfi(args) -> dict:
    model = _model_from_args(args)
    return {
        "f_sep": qfi_separable(args.n, args.tau, model),
        "f_ent": qfi_ghz(args.n, args.tau, model),
    }


def _cmd_tau_opt(args) -> dict:
    model = _model_from_args(args)
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


def _cmd_gain(args) -> dict:
    model = _model_from_args(args)
    return dataclasses.asdict(gain(model, args.n, args.ttilde_sep, args.ttilde_ent))


def _cmd_threshold(args) -> dict:
    model = _model_from_args(args)
    return {
        "ttilde_ent_threshold": threshold_ent_time(model, args.n, args.ttilde_sep)
    }


def _cmd_cutoff(args) -> dict:
    model = _model_from_args(args)
    law = ScalingLaw(args.law, args.base)
    tau_tilde_sep = format_sig(law.base * coherence_time(model))  # the scan's, to 12 digits
    if args.ttilde_sep is not None and format_sig(args.ttilde_sep) != tau_tilde_sep:
        raise DomainError(f"--ttilde-sep {args.ttilde_sep!r} is not base * t_c = {tau_tilde_sep}")
    cutoff, best_n, best_r = n_cutoff_and_max_gain(model, law, args.n_search_max)
    return {"n_cutoff": cutoff, "n_max": best_n, "r_at_n_max": best_r}


def _cmd_sweep(args) -> dict:
    config = load_config(args.config)
    rows = run_sweep(config)
    save_rows(rows, config)
    return {"rows": len(rows), "path": config.output_path}


@functools.cache  # building costs more than most queries; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzgain",
        description="GHZ-versus-separable metrological gain with finite "
        "preparation and readout times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, with_model=True):
        p = sub.add_parser(name, help=help_text)
        if with_model:
            _add_model_arguments(p)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(handler=handler)
        return p

    p = command("bath", _cmd_bath, "decay exponent, its derivative and t_c")
    p.add_argument("--tau", type=float, required=True, help="sensing time")

    p = command("qfi", _cmd_qfi, "closed-form QFI of both probe states")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--tau", type=float, required=True, help="sensing time")

    p = command("tau-opt", _cmd_tau_opt, "optimal sensing times and residuals")
    p.add_argument("--n", type=int, default=1, help="particle count (default 1)")
    p.add_argument("--ttilde", type=float, default=0.0,
                   help="overhead applied to both strategies")
    p.add_argument("--ttilde-sep", type=float, help="separable overhead override")
    p.add_argument("--ttilde-ent", type=float, help="entangled overhead override")

    p = command("gain", _cmd_gain, "metrological gain r and its ingredients")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--ttilde-sep", type=float, default=0.0, help="separable overhead")
    p.add_argument("--ttilde-ent", type=float, default=0.0, help="entangled overhead")

    p = command("threshold", _cmd_threshold, "entangled overhead where r = 1")
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--ttilde-sep", type=float, default=0.0, help="separable overhead")

    p = command("cutoff", _cmd_cutoff,
                "largest advantageous N and the N maximising the gain")
    p.add_argument("--law", required=True,
                   choices=["constant", "logarithmic", "square-root", "linear"],
                   help="N-scaling of the entangled overhead")
    p.add_argument("--base", type=float, required=True,
                   help="separable overhead in units of t_c")
    p.add_argument("--ttilde-sep", type=float,
                   help="separable overhead, if given equal to base * t_c (12 digits)")
    p.add_argument("--n-search-max", type=int, default=10**6,
                   help="scan limit (default 1e6, at most 1e9)")

    p = command("sweep", _cmd_sweep, "run a sweep described by a JSON config",
                with_model=False)
    p.add_argument("--config", required=True, help="path to the sweep config")

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _emit(args.handler(args), args.json)
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
