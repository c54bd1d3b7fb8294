"""Batch evaluation of the gain over one- and two-dimensional grids.

The gain depends on three variables: the two overhead ratios
x_ent = tau_tilde_ent/t_c and x_sep = tau_tilde_sep/t_c, and the particle
number n.  A sweep fixes one (or two) of them and grids the rest.  Output
is a deterministic table: same config, byte-identical file.

Each distinct optimum is solved once, in two array passes: the distinct
x_sep, then, unless no separable timing is feasible, the distinct
(x_ent, n); ``optimal_sensing_time`` re-solves what a pass cannot certify.
``run_sweep`` returns a ``SweepTable``, a read-only sequence of rows kept
in factored form: the axis values, each row's index into them, f_sep per
(separable optimum, n), f_ent per entangled optimum and r per row, formed
by the float operations of a per-point ``gain``.  ``rows_to_csv`` and
``rows_to_json`` render each distinct float once, in numpy, with
``format_sig``'s exact bytes, and gather the cells per row; the CSV is
assembled as bytes in blocks of 2^16 lines, which ``save_rows`` writes as
they come, over the old file, then truncates it: truncating a recently
written file on open waits for it to be flushed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import stat
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import BathModel, _decay_exponent, coherence_time, decay_exponent
from .errors import InfeasibleTimingError, ValidationError, check_finite_nonnegative
from .gain import _rates_from_optima
from .opttime import _optimal_sensing_times, optimal_sensing_time

__all__ = [
    "AXIS_NAMES",
    "CSV_COLUMNS",
    "format_sig",
    "AxisSpec",
    "SweepConfig",
    "SweepRow",
    "SweepTable",
    "load_config",
    "config_from_dict",
    "run_sweep",
    "rows_to_csv",
    "rows_to_json",
    "save_rows",
]

AXIS_NAMES = ("x_ent", "x_sep", "n")
MAX_AXIS_POINTS = 10**6  # the grid is built in memory
MAX_GRID_ROWS = 10**7
CSV_COLUMNS = ("x_ent", "x_sep", "n", "r", "tau_opt_sep", "tau_opt_ent",
               "f_sep", "f_ent", "feasible")


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
        if math.prod(axis.points for axis in self.axes) > MAX_GRID_ROWS:
            raise ValidationError(f"a sweep grid has at most {MAX_GRID_ROWS} rows")
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


class SweepTable(Sequence):
    """The SweepRows of a sweep, read-only and kept factored: per column, the
    distinct values once and every row's index into them.  A row is built
    only when it is indexed or iterated."""

    def __init__(self, columns: list, feasible: np.ndarray):
        # (values, index per row) for each CSV column; a value column's index
        # is -1 in infeasible rows
        self._columns = columns + [([False, True], feasible.astype(np.intp))]

    def __len__(self) -> int:
        return self._columns[0][1].size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # IndexError past either end
        cells = [values[at[i]] for values, at in self._columns]
        if not cells[-1]:
            return SweepRow(*cells[:3], None, None, None, None, None, False)
        return SweepRow(*cells[:3], *map(float, cells[3:8]), True)


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


def _solve(model: BathModel, keys: np.ndarray) -> np.ndarray:
    """[tau_opt, exp(-2 n_eff Gamma(tau_opt))] at keys tau_tilde + 1j n_eff, tau NaN where
    infeasible; what the array pass cannot certify, the scalar solver and Gamma redo."""
    tau_tilde, n_eff = keys.real, keys.imag
    tau, rate = _optimal_sensing_times(model, tau_tilde, n_eff)
    rate[~np.isfinite(tau_tilde)] = math.nan  # for the scalar solver's DomainError
    with np.errstate(all="ignore"):
        g = _decay_exponent(model, tau, np)
    for i in np.flatnonzero(np.isnan(rate)).tolist():
        try:
            tau[i] = optimal_sensing_time(model, float(tau_tilde[i]), int(n_eff[i])).tau_opt
            g[i] = decay_exponent(model, tau[i])
        except InfeasibleTimingError:
            rate[i] = 0.0
    tau[rate == 0.0] = math.nan
    decay = [math.exp(x) for x in (-2.0 * n_eff * g).tolist()]  # see _rates_from_optima
    return np.array([tau, decay])


def run_sweep(config: SweepConfig) -> SweepTable:
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
    f_sep, rate_sep = _rates_from_optima(n, sep_keys.real[:, None], *sep[:, :, None])
    f_ent, rate_ent = _rates_from_optima(ent_keys.imag * ent_keys.imag, ent_keys.real, *ent)
    row_sep, row_ent = sep_at[at["x_sep"]], ent_at[at["x_ent"] * n.size + at["n"]]
    row_f_sep = row_sep * n.size + at["n"]
    with np.errstate(all="ignore"):
        r = rate_ent[row_ent] / rate_sep.ravel()[row_f_sep]
    feasible = ~(np.isnan(sep[0, row_sep]) | np.isnan(ent[0, row_ent]))
    value_columns = [(r, np.arange(r.size)), (sep[0], row_sep), (ent[0], row_ent),
                     (f_sep.ravel(), row_f_sep), (f_ent, row_ent)]
    return SweepTable([(columns[name], at[name]) for name in AXIS_NAMES] +
                      [(values, np.where(feasible, row, -1)) for values, row in value_columns],
                      feasible)


_BLOCK_ROWS = 2**16  # CSV lines rendered at a time, so the text never exists whole


def _cell_layout(x: int) -> list[int]:
    if 0 <= x < 12:
        return [*range(x + 1), 13, *range(x + 1, 12)]
    if -4 <= x < 0:
        return [14, 13] + [14] * (-x - 1) + [*range(12)]
    return [0, 13, *range(1, 12), 15, 16 if x > 0 else 17, 18 + abs(x) // 10, 18 + abs(x) % 10]


@functools.cache  # built on first use: at import, their numpy calls took ~0.5 MB of RSS
def _format_tables():
    """Tables of _format_sig_cells.  Row x + 11 (decimal exponent x = -11..33) of the first
    three: the exact powers of ten (one of them 1) that scale a value to a 12-digit
    mantissa; where each byte of its cell comes from, a mantissa digit (0..11) or byte
    i - 12 of the last table (12, the NUL, pads); the cell's width.  Then "0000".."9999"
    as uint32s, and the bytes a cell adds to its digits."""
    layouts = [_cell_layout(x) for x in range(-11, 34)]
    return (np.array([[float(10 ** max(0, e)), float(10 ** max(0, -e))] for e in range(22, -23, -1)]),
            np.array([layout + [12] * (17 - len(layout)) for layout in layouts]),
            np.array([len(layout) for layout in layouts]),
            (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy().view(np.uint32)[:, 0],
            np.frombuffer(b"\0.0e+-0123456789", np.uint8))


def _format_sig_cells(values: np.ndarray) -> np.ndarray:
    """format_sig's bytes for each float of an array, as an S array.  A value with
    decimal exponent x in -11..33, scaled by 10^(11 - x) (one rounding), rounds to
    "%#.12g"'s 12-digit mantissa unless the scaled fraction lies within 4 ulp of 1/2;
    those values, mantissas outside [10^11, 10^12), and zero, negative or non-finite
    values (x NaN or infinite) go to format_sig."""
    if values.size > _BLOCK_ROWS:  # bounds the temporaries, ~200 bytes a value
        return np.concatenate([_format_sig_cells(values[start:start + _BLOCK_ROWS])
                               for start in range(0, values.size, _BLOCK_ROWS)])
    scale, layout, widths, digit_groups, cell_bytes = _format_tables()
    with np.errstate(all="ignore"):
        x = np.floor(np.log10(values))
        fast = (x >= -11.0) & (x <= 33.0)
        row = np.where(fast, x, 0.0).astype(np.intp) + 11
        scaled = values * scale[row, 0] / scale[row, 1]
        mantissa = np.rint(scaled)
        fast &= (scaled >= 1e11) & (mantissa < 1e12)
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 4.0 * np.spacing(scaled)
    m = np.where(fast, mantissa, 1e11).astype(np.int64)
    digits = digit_groups[np.stack([m // 10**8, m // 10**4 % 10**4, m % 10**4], 1)].view(np.uint8)
    source = np.hstack([digits, np.broadcast_to(cell_bytes, (values.size, cell_bytes.size))])
    width = widths[row].max()
    at = np.take(layout, row, axis=0)[:, :width]
    at += source.shape[1] * np.arange(values.size)[:, None]
    cells = np.take(source, at).view(f"S{width}").ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [format_sig(value).encode() for value in values[slow].tolist()]
        cells = cells.astype(f"S{max(width, *map(len, text))}")
        cells[slow] = text
    return cells


def _csv_blocks(table: SweepTable):
    """The CSV as bytes: the header, then blocks of _BLOCK_ROWS lines.  Each column's
    distinct values are rendered once ("%#.12g", "%d" for n, true/false), then the
    empty cell that index -1 picks, each with its comma or newline; a block gathers
    its rows' cells as NUL-padded records and drops the NULs."""
    yield ",".join(CSV_COLUMNS).encode() + b"\n"
    columns = []
    for (values, at), end in zip(table._columns, [b","] * (len(CSV_COLUMNS) - 1) + [b"\n"]):
        if isinstance(values[0], int):  # n as "%d", feasible (a bool) as true/false
            cells = np.array([str(value).lower() for value in values], dtype=bytes)
        else:
            cells = _format_sig_cells(np.asarray(values, dtype=float))
        columns.append((np.char.add(np.append(cells, b""), end), at))
    for start in range(0, len(table), _BLOCK_ROWS):
        lines = np.empty(min(_BLOCK_ROWS, len(table) - start),
                         [("", cells.dtype) for cells, _ in columns])
        for name, (cells, at) in zip(lines.dtype.names, columns):
            lines[name] = cells[at[start:start + _BLOCK_ROWS]]
        yield lines.tobytes().translate(None, b"\0")


def rows_to_csv(table: SweepTable) -> str:
    return b"".join(_csv_blocks(table)).decode()


def _json_cells(values) -> list:
    """Floats as printed in the CSV, then parsed; n and feasible as they are."""
    if isinstance(values[0], int):  # bool included
        return values
    return [float(cell) for cell in _format_sig_cells(np.asarray(values, dtype=float)).tolist()]


def rows_to_json(table: SweepTable) -> str:
    """Each column's distinct values once, gathered per row; None where infeasible."""
    columns = [np.array(_json_cells(values) + [None], dtype=object)[at].tolist()
               for values, at in table._columns]
    payload = [dict(zip(CSV_COLUMNS, row)) for row in zip(*columns)]
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


def save_rows(table: SweepTable, config: SweepConfig) -> None:
    chunks = _csv_blocks(table) if config.output_format == "csv" else [rows_to_json(table).encode()]
    with open(os.open(config.output_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.writelines(chunks)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null, a pipe...
            fh.truncate()
