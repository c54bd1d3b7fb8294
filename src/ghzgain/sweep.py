"""Batch evaluation of the gain over one- and two-dimensional grids.

The gain depends on three variables: the two overhead ratios
x_ent = tau_tilde_ent/t_c and x_sep = tau_tilde_sep/t_c, and the particle
number n.  A sweep fixes one (or two) of them and grids the rest.  Output
is a deterministic table: same config, byte-identical file.

Each distinct optimum is solved once per sweep.  The separable optimum
depends only on x_sep and the GHZ optimum only on (x_ent, n), so a grid
over x_sep and x_ent needs one solve per axis value rather than two per
point.  The solves are kept for the duration of ``run_sweep`` only: its
memory grows with the number of distinct (x_ent, n) pairs, and the rows
and output bytes are the same as solving every point afresh.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass

from .bath import BathModel, coherence_time
from .errors import InfeasibleTimingError, ValidationError, check_finite_nonnegative
from .gain import _gain_from_optima
from .opttime import optimal_sensing_time

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


@dataclass(frozen=True, slots=True)
class SweepRow:
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


def _grid_points(config: SweepConfig):
    """(x_ent, x_sep, n) of every grid point, row-major in axis order,
    with n rounded to a positive integer."""
    columns = {axis.name: axis.values() for axis in config.axes}
    columns.update((name, [value]) for name, value in config.fixed.items())
    columns["n"] = [max(1, int(round(v))) for v in columns["n"]]
    for name in ("x_ent", "x_sep"):
        columns[name] = [float(v) for v in columns[name]]
    pick = operator.itemgetter(*(list(columns).index(name) for name in AXIS_NAMES))
    return map(pick, itertools.product(*columns.values()))


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the gain on the configured grid, row-major in axis order.

    Each distinct optimum is solved once and shared by every row that
    needs it.  Infeasible points (isolated probe with overhead >= t_c)
    become rows with feasible=False instead of aborting the sweep.
    """
    model = config.model
    t_c = coherence_time(model)
    # (tau_tilde, n_eff) -> OptimalTime, or None where the timing is
    # infeasible; n_eff = 1 is the separable solve, whatever n is
    optima = {}

    def optimum(tau_tilde: float, n_eff: int):
        key = (tau_tilde, n_eff)
        if key not in optima:
            try:
                optima[key] = optimal_sensing_time(model, tau_tilde, n_eff)
            except InfeasibleTimingError:
                optima[key] = None
        return optima[key]

    rows = []
    for x_ent, x_sep, n in _grid_points(config):
        tau_tilde_sep, tau_tilde_ent = x_sep * t_c, x_ent * t_c
        # separable first, as gain() does: an infeasible separable timing
        # decides the row without an entangled solve
        sep = optimum(tau_tilde_sep, 1)
        ent = None if sep is None else optimum(tau_tilde_ent, n)
        if ent is None:
            rows.append(SweepRow(x_ent, x_sep, n, None, None, None, None, None, False))
            continue
        result = _gain_from_optima(model, n, tau_tilde_sep, tau_tilde_ent, sep, ent)
        rows.append(SweepRow(
            x_ent, x_sep, n,
            result.r, result.tau_opt_sep, result.tau_opt_ent,
            result.f_sep, result.f_ent, True,
        ))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        if row.feasible:
            lines.append(_CSV_FEASIBLE_ROW % (
                row.x_ent, row.x_sep, row.n, row.r, row.tau_opt_sep,
                row.tau_opt_ent, row.f_sep, row.f_ent,
            ))
        else:
            lines.append(_CSV_INFEASIBLE_ROW % (row.x_ent, row.x_sep, row.n))
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
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
