"""Batch evaluation of the gain over one- and two-dimensional grids.

The gain depends on three variables: the two overhead ratios
x_ent = tau_tilde_ent/t_c and x_sep = tau_tilde_sep/t_c, and the particle
number n.  A sweep fixes one (or two) of them and grids the rest.  Output
is a deterministic table: same config, byte-identical file.

Each distinct optimum is solved once, in two array passes: the distinct
x_sep, then, unless no separable timing is feasible, the distinct
(x_ent, n); ``optimal_sensing_time`` re-solves what a pass cannot certify.
Rows are assembled in numpy by the float operations of a per-point
``gain``.  ``save_rows`` writes over the old file, then truncates it:
truncating a recently written file on open waits for it to be flushed.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
import stat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import BathModel, coherence_time, decay_exponent
from .errors import InfeasibleTimingError, ValidationError, check_finite_nonnegative
from .gain import _gains_from_optima
from .opttime import _optimal_sensing_times, optimal_sensing_time

__all__ = [
    "AXIS_NAMES",
    "CSV_COLUMNS",
    "format_sig",
    "AxisSpec",
    "SweepConfig",
    "SweepRow",
    "load_config",
    "config_from_dict",
    "run_sweep",
    "rows_to_csv",
    "rows_to_json",
    "save_rows",
]

AXIS_NAMES = ("x_ent", "x_sep", "n")
MAX_AXIS_POINTS = 10**6  # the grid is built in memory
CSV_COLUMNS = ("x_ent", "x_sep", "n", "r", "tau_opt_sep", "tau_opt_ent",
               "f_sep", "f_ent", "feasible")
# One row per %-format; "%#.12g" is format_sig's rendering, and infeasible
# rows leave their five value cells empty.
_CSV_FEASIBLE_ROW = "%#.12g,%#.12g,%d,%#.12g,%#.12g,%#.12g,%#.12g,%#.12g,true"
_CSV_INFEASIBLE_ROW = "%#.12g,%#.12g,%d,,,,,,false"


def format_sig(value: float) -> str:
    """Fixed 12-significant-digit rendering used for every numeric output."""
    return format(float(value), "#.12g")


@dataclass(frozen=True)
class AxisSpec:
    """One swept variable: endpoints, point count and spacing."""

    name: str
    minimum: float
    maximum: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValidationError(
                f"unknown axis {self.name!r} (expected one of: {', '.join(AXIS_NAMES)})"
            )
        for label, bound in (("min", self.minimum), ("max", self.maximum)):
            if not isinstance(bound, numbers.Real) or isinstance(bound, bool):
                raise ValidationError(f"axis '{self.name}': {label} must be a number")
            check_finite_nonnegative(bound, f"axis '{self.name}': {label}", ValidationError)
        try:
            points = operator.index(self.points)
        except TypeError:  # a whole float such as 200.0
            whole = isinstance(self.points, numbers.Real) and float(self.points).is_integer()
            points = int(self.points) if whole else None
        if points is None or isinstance(self.points, bool):
            raise ValidationError(f"axis '{self.name}': points must be an integer")
        object.__setattr__(self, "points", points)
        if not 2 <= points <= MAX_AXIS_POINTS:
            raise ValidationError(
                f"axis '{self.name}': points must be in 2..{MAX_AXIS_POINTS}")
        if not self.maximum > self.minimum:
            raise ValidationError(f"axis '{self.name}': max must exceed min")
        if self.spacing not in ("linear", "log"):
            raise ValidationError(
                f"axis '{self.name}': spacing must be 'linear' or 'log'"
            )
        if self.spacing == "log" and not self.minimum > 0.0:
            raise ValidationError(f"axis '{self.name}': log spacing needs min > 0")
        if self.name == "n" and self.minimum < 1.0:
            raise ValidationError("axis 'n': particle counts start at 1")

    def values(self) -> list[float]:
        span = self.points - 1
        if self.spacing == "linear":
            step = (self.maximum - self.minimum) / span
            vals = [self.minimum + i * step for i in range(self.points)]
        else:
            lo, hi = math.log(self.minimum), math.log(self.maximum)
            step = (hi - lo) / span
            vals = [math.exp(lo + i * step) for i in range(self.points)]
        vals[-1] = self.maximum
        return vals


@dataclass(frozen=True)
class SweepConfig:
    """Model, one or two axes, fixed values for the rest, output target."""

    model: BathModel
    axes: tuple[AxisSpec, ...]
    fixed: dict
    output_format: str
    output_path: str

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValidationError("config needs one or two axes")
        axis_names = [a.name for a in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValidationError("axes must sweep distinct variables")
        expected_fixed = set(AXIS_NAMES) - set(axis_names)
        if set(self.fixed) != expected_fixed:
            raise ValidationError(
                f"fixed values must cover exactly {sorted(expected_fixed)}, "
                f"got {sorted(self.fixed)}"
            )
        for name, value in self.fixed.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"fixed.{name} must be a number")
            check_finite_nonnegative(value, f"fixed.{name}", ValidationError)
            if name == "n" and (int(value) != value or value < 1):
                raise ValidationError("fixed.n must be a positive integer")
        if self.output_format not in ("csv", "json"):
            raise ValidationError("output.format must be 'csv' or 'json'")
        if not self.output_path:
            raise ValidationError("output.path must be a non-empty string")


class SweepRow(NamedTuple):
    """One grid point; the value fields are None when infeasible."""

    x_ent: float
    x_sep: float
    n: int
    r: float | None
    tau_opt_sep: float | None
    tau_opt_ent: float | None
    f_sep: float | None
    f_ent: float | None
    feasible: bool


def _axis_from_dict(name: str, data: dict) -> AxisSpec:
    if not isinstance(data, dict):
        raise ValidationError(f"axes.{name} must be an object")
    unknown = set(data) - {"min", "max", "points", "spacing"}
    if unknown:
        raise ValidationError(f"axes.{name}: unknown fields {sorted(unknown)}")
    for field in ("min", "max", "points"):
        if field not in data:
            raise ValidationError(f"axes.{name} is missing field '{field}'")
    return AxisSpec(name, data["min"], data["max"], data["points"],
                    data.get("spacing", "linear"))


def config_from_dict(data: dict) -> SweepConfig:
    if not isinstance(data, dict):
        raise ValidationError("sweep config must be a JSON object")
    unknown = set(data) - {"model", "axes", "fixed", "output"}
    if unknown:
        raise ValidationError(f"unknown top-level fields {sorted(unknown)}")
    for field in ("model", "axes", "output"):
        if field not in data:
            raise ValidationError(f"config is missing field '{field}'")
    model = BathModel.from_dict(data["model"])
    if not isinstance(data["axes"], dict) or not data["axes"]:
        raise ValidationError("axes must be a non-empty object")
    axes = tuple(_axis_from_dict(name, spec) for name, spec in data["axes"].items())
    fixed = data.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ValidationError("fixed must be an object")
    output = data["output"]
    if not isinstance(output, dict):
        raise ValidationError("output must be an object")
    if "format" not in output or "path" not in output:
        raise ValidationError("output needs fields 'format' and 'path'")
    return SweepConfig(
        model=model,
        axes=axes,
        fixed=dict(fixed),
        output_format=output["format"],
        output_path=str(output["path"]),
    )


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)


def _grid(config: SweepConfig):
    """Each variable's values (floats; ints for n, rounded to >= 1) and every
    grid point's index into them, row-major in axis order."""
    columns = {axis.name: axis.values() for axis in config.axes}
    columns.update((name, [value]) for name, value in config.fixed.items())
    columns["n"] = [max(1, int(round(v))) for v in columns["n"]]
    for name in ("x_ent", "x_sep"):
        columns[name] = [float(v) for v in columns[name]]
    index = np.indices([len(v) for v in columns.values()]).reshape(len(columns), -1)
    return columns, dict(zip(columns, index))


def _take(values, at: np.ndarray) -> list:
    """values[at] as a list, sharing one Python object per value among the rows."""
    return np.array(values, dtype=object)[at].tolist()


def _solve(model: BathModel, keys: np.ndarray) -> np.ndarray:
    """[tau_opt, exp(-2 n_eff Gamma(tau_opt))] at keys tau_tilde + 1j n_eff, NaN where
    infeasible; what the array pass cannot certify, optimal_sensing_time re-solves."""
    tau_tilde, n_eff = keys.real, keys.imag
    tau, rate = _optimal_sensing_times(model, tau_tilde, n_eff)
    rate[~np.isfinite(tau_tilde)] = math.nan  # for the scalar solver's DomainError
    for i in np.flatnonzero(np.isnan(rate)).tolist():
        try:
            tau[i] = optimal_sensing_time(model, float(tau_tilde[i]), int(n_eff[i])).tau_opt
        except InfeasibleTimingError:
            rate[i] = 0.0
    tau[rate == 0.0] = math.nan
    decay = [math.nan if t != t else math.exp(-2.0 * k * decay_exponent(model, t))
             for t, k in zip(tau.tolist(), n_eff.tolist())]  # math.exp: see _gains_from_optima
    return np.array([tau, decay])


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the gain on the configured grid, row-major in axis order.

    Each distinct optimum is solved once and shared by every row that
    needs it.  Infeasible points (isolated probe with overhead >= t_c)
    become rows with feasible=False instead of aborting the sweep.
    """
    model = config.model
    t_c = coherence_time(model)
    columns, at = _grid(config)
    x_ent, x_sep, n = (np.array(columns[name], dtype=float) for name in AXIS_NAMES)
    with np.errstate(over="ignore"):  # an infinite overhead is re-solved, and rejected
        tau_tilde_sep, tau_tilde_ent = x_sep * t_c, x_ent * t_c
    # np.unique orders complex keys by real, then imaginary part: each pair once
    sep_keys, sep_at = np.unique(tau_tilde_sep + 1j, return_inverse=True)
    ent_keys, ent_at = np.unique((tau_tilde_ent[:, None] + 1j * n).ravel(), return_inverse=True)
    sep = _solve(model, sep_keys)
    ent = np.full((2, ent_keys.size), math.nan)
    if not np.isnan(sep[0]).all():  # as in gain(), an infeasible sep timing ends a row
        known = np.isin(ent_keys, sep_keys)  # n = 1 at a separable overhead: solved
        ent[:, known] = sep[:, np.searchsorted(sep_keys, ent_keys[known])]
        ent[:, ~known] = _solve(model, ent_keys[~known])
    row_sep, row_ent = sep_at[at["x_sep"]], ent_at[at["x_ent"] * n.size + at["n"]]
    r, f_sep, f_ent = _gains_from_optima(n[at["n"]], tau_tilde_sep[at["x_sep"]],
                                         tau_tilde_ent[at["x_ent"]], *sep[:, row_sep],
                                         *ent[:, row_ent])
    rows = list(map(SweepRow._make, zip(
        *(_take(columns[name], at[name]) for name in AXIS_NAMES), r.tolist(),
        _take(sep[0], row_sep), _take(ent[0], row_ent), f_sep.tolist(), f_ent.tolist(),
        itertools.repeat(True))))
    for i in np.flatnonzero(np.isnan(sep[0, row_sep]) | np.isnan(ent[0, row_ent])).tolist():
        rows[i] = SweepRow(*rows[i][:3], None, None, None, None, None, False)
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [_CSV_FEASIBLE_ROW % row[:8] if row.feasible else _CSV_INFEASIBLE_ROW % row[:3]
              for row in rows]
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if value is None or isinstance(value, (bool, int)):
        return value
    return float(format_sig(value))


def rows_to_json(rows: list[SweepRow]) -> str:
    payload = [
        {col: _json_cell(getattr(row, col)) for col in CSV_COLUMNS} for row in rows
    ]
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def save_rows(rows: list[SweepRow], config: SweepConfig) -> None:
    text = rows_to_csv(rows) if config.output_format == "csv" else rows_to_json(rows)
    with open(os.open(config.output_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null, a pipe...
            fh.truncate()
