"""Batch evaluation of the gain over one- and two-dimensional grids.

The gain depends on three variables: the two overhead ratios
x_ent = tau_tilde_ent/t_c and x_sep = tau_tilde_sep/t_c, and the particle
number n.  A sweep fixes one (or two) of them and grids the rest.  Output
is a deterministic table: same config, byte-identical file.

Each distinct optimum is solved once per strategy, in two array passes: the
distinct x_sep, then, unless no separable timing is feasible, the distinct
(x_ent, n), the product of the distinct x_ent and the distinct n; a key that
both strategies need is solved in each; the first key a pass cannot certify
raises the error of ``optimal_sensing_time`` there.  ``run_sweep`` returns a
``SweepTable``, a read-only sequence of rows kept in factored form: the axis values and the
results per distinct optimum.  Rows are derived in blocks of 2^12, their
indices by ``np.unravel_index`` and r by the float operations of a per-point
``gain``.  One writer renders each distinct float once, in numpy, with
``format_sig``'s exact bytes (or, for JSON, repr's of the float that the cell
parses to), and gathers a block's cells into CSV or JSON text, which
``save_rows`` writes as it comes, over the old file, then truncates it:
truncating a recently written file on open waits for it to be flushed.  A
save allocates its block buffers once, in a workspace that every block
writes into; past small index arrays, only a block's text is new memory.
Blocks that allocated their own faulted in fresh pages each time the heap
gave its top back.
Nothing here calls ``np.isin`` or ``np.char``: both import a numpy submodule
on first use, which a fresh process pays for on every sweep.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import BathModel, coherence_time
from .errors import (SolverError, ValidationError, check_choice, check_count, check_fields,
                     check_finite_nonnegative, check_items)
from .opttime import _optimal_sensing_times, _rates, optimal_sensing_time

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
    """One swept variable: endpoints (floats), point count (an int; 200.0 is taken too) and
    spacing; any invalid one raises ValidationError."""

    name: str
    minimum: float
    maximum: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "name",
                           check_choice(self.name, AXIS_NAMES, "axis", ValidationError))
        for field, label in (("minimum", "min"), ("maximum", "max")):
            object.__setattr__(self, field, check_finite_nonnegative(
                getattr(self, field), f"axis '{self.name}': {label}", ValidationError))
        object.__setattr__(self, "points", check_count(
            self.points, f"axis '{self.name}': points", ValidationError, whole=True))
        if not 2 <= self.points <= MAX_AXIS_POINTS:
            raise ValidationError(f"axis '{self.name}': points must be in 2..{MAX_AXIS_POINTS}")
        if not self.maximum > self.minimum:
            raise ValidationError(f"axis '{self.name}': max must exceed min")
        object.__setattr__(self, "spacing", check_choice(
            self.spacing, ("linear", "log"), f"axis '{self.name}' spacing", ValidationError))
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
    """Model, one or two axes, fixed values for the rest (n an int, the others floats),
    output target; any invalid one raises ValidationError."""

    model: BathModel
    axes: tuple[AxisSpec, ...]
    fixed: dict
    output_format: str
    output_path: str

    def __post_init__(self):
        object.__setattr__(self, "axes",
                           check_items(self.axes, "axes", ValidationError, AxisSpec))
        check_fields(self.fixed, "fixed", (), AXIS_NAMES)
        if not 1 <= len(self.axes) <= 2:
            raise ValidationError("config needs one or two axes")
        axis_names = [a.name for a in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValidationError("axes must sweep distinct variables")
        if math.prod(axis.points for axis in self.axes) > MAX_GRID_ROWS:
            raise ValidationError(f"a sweep grid has at most {MAX_GRID_ROWS} rows")
        expected_fixed = set(AXIS_NAMES) - set(axis_names)
        if set(self.fixed) != expected_fixed:
            raise ValidationError(f"fixed values must cover exactly {sorted(expected_fixed)}, "
                                  f"got {sorted(self.fixed)}")
        fixed = {name: check_finite_nonnegative(value, f"fixed.{name}", ValidationError)
                 for name, value in self.fixed.items()}
        if "n" in fixed:  # the count itself, exact past 2^53
            fixed["n"] = check_count(self.fixed["n"], "fixed.n", ValidationError, whole=True)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "output_format", check_choice(
            self.output_format, ("csv", "json"), "output.format", ValidationError))
        if not isinstance(self.output_path, str) or not self.output_path:
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
    """The SweepRows of a sweep, read-only and kept factored: each variable's
    values, the grid shape and the results per distinct optimum.  Rows are
    derived in blocks, when indexed, iterated or written."""

    _FEASIBLE = np.array([False, True])

    def __init__(self, columns: dict, sep_at, ent_at, sep: tuple, ent: tuple):
        # each variable's values, in row-major order; the separable key of each x_sep, the
        # entangled key of each (x_ent, n); (tau_opt, f, rate) per key, f_sep per (key, n)
        self._columns, self._sep_at, self._ent_at, self._sep, self._ent = (
            columns, sep_at, ent_at, sep, ent)

    def __len__(self) -> int:
        return math.prod(map(len, self._columns.values()))

    def __getitem__(self, i):
        rows = range(len(self))[i]  # IndexError past either end
        if isinstance(i, slice):
            return list(self._rows(rows))
        return next(self._rows(range(rows, rows + 1)))

    def __iter__(self):
        return self._rows(range(len(self)))

    def __reversed__(self):
        return self._rows(range(len(self))[::-1])

    def _rows(self, rows: range):
        for block in self._blocks(rows):
            for cells in zip(*[values[at].tolist() for values, at in block]):
                yield SweepRow(*cells) if cells[-1] else SweepRow(*cells[:3], *[None] * 5, False)

    def _blocks(self, rows: range):
        """For each _BLOCK_ROWS of rows in turn, the (values, index) of each CSV
        column; a value column's index is -1 in infeasible rows.  r is formed by
        the gathered division of a per-point gain."""
        (tau_sep, f_sep, rate_sep), (tau_ent, f_ent, rate_ent) = self._sep, self._ent
        shape, n_size = [len(values) for values in self._columns.values()], len(self._columns["n"])
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            at = dict(zip(self._columns, np.unravel_index(
                np.arange(block.start, block.stop, block.step), shape)))
            row_sep, row_ent = self._sep_at[at["x_sep"]], self._ent_at[at["x_ent"] * n_size + at["n"]]
            row_f_sep = row_sep * n_size + at["n"]
            with np.errstate(all="ignore"):
                r = rate_ent[row_ent] / rate_sep[row_f_sep]
            feasible = ~(np.isnan(tau_sep[row_sep]) | np.isnan(tau_ent[row_ent]))
            value_columns = [(r, np.arange(r.size)), (tau_sep, row_sep), (tau_ent, row_ent),
                             (f_sep, row_f_sep), (f_ent, row_ent)]
            if not feasible.all():
                value_columns = [(values, np.where(feasible, row, -1)) for values, row in value_columns]
            yield ([(self._columns[name], at[name]) for name in AXIS_NAMES] + value_columns +
                   [(self._FEASIBLE, feasible.astype(np.intp))])


def config_from_dict(data: dict) -> SweepConfig:
    check_fields(data, "sweep config", ("model", "axes", "output"), ("fixed",))
    model = BathModel.from_dict(data["model"])
    if not isinstance(data["axes"], dict) or not data["axes"]:
        raise ValidationError("axes must be a non-empty object")
    axes = []
    for name, spec in data["axes"].items():
        check_fields(spec, f"axes.{name}", ("min", "max", "points"), ("spacing",))
        axes.append(AxisSpec(name, spec["min"], spec["max"], spec["points"],
                             spec.get("spacing", "linear")))
    fixed, output = data.get("fixed", {}), data["output"]
    check_fields(output, "output", ("format", "path"))
    return SweepConfig(model, tuple(axes), fixed, output["format"], output["path"])


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)


def _grid(config: SweepConfig) -> dict:
    """Each variable's values as an array (n as Python ints, rounded to >= 1),
    in the grid's row-major order: the axes, then the fixed values."""
    columns = {axis.name: axis.values() for axis in config.axes}
    columns.update((name, [value]) for name, value in config.fixed.items())
    return {name: np.array([max(1, int(round(v))) for v in values], dtype=object)
            if name == "n" else np.array(values, dtype=float) for name, values in columns.items()}


def _solve(model: BathModel, tau_tilde: np.ndarray, n_eff: np.ndarray) -> np.ndarray:
    """[tau_opt, exp(-2 n_eff Gamma(tau_opt))] at each (tau_tilde, n_eff), tau NaN where
    infeasible; the first key the array pass cannot certify raises the scalar solver's error."""
    tau, rate, decay = _optimal_sensing_times(model, tau_tilde, n_eff)
    bad = np.flatnonzero(np.isnan(rate))
    if bad.size:
        tte, n = float(tau_tilde[bad[0]]), int(n_eff[bad[0]])
        optimal_sensing_time(model, tte, n)
        raise SolverError(f"no certified optimum at tau_tilde = {tte!r}, n_eff = {n}")
    tau[rate == 0.0] = math.nan
    return np.array([tau, decay])


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate the gain on the configured grid, row-major in axis order.

    Each distinct optimum is solved once per strategy and shared by every
    row that needs it.  Infeasible points (isolated probe with overhead
    >= t_c) become rows with feasible=False instead of aborting the sweep;
    a value that is not finite raises SolverError.
    """
    model = config.model
    t_c = coherence_time(model)
    columns = _grid(config)
    n = columns["n"].astype(float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf: DomainError
        tau_tilde_sep, tau_tilde_ent = columns["x_sep"] * t_c, columns["x_ent"] * t_c
    # the distinct separable overheads at n_eff = 1; every (x_ent, n) pair of the distinct ones
    (sep_tilde, sep_at), (ux, ux_at), (un, un_at) = (
        np.unique(a, return_inverse=True) for a in (tau_tilde_sep, tau_tilde_ent, n))
    ent_tilde, ent_n = np.repeat(ux, un.size), np.tile(un, ux.size)
    ent_at = (ux_at[:, None] * un.size + un_at).ravel()
    sep = _solve(model, sep_tilde, np.ones_like(sep_tilde))
    ent = np.full((2, ent_tilde.size), math.nan)
    if not np.isnan(sep[0]).all():  # as in gain(), an infeasible sep timing ends a row
        ent = _solve(model, ent_tilde, ent_n)
    with np.errstate(all="ignore"):
        f_sep, rate_sep = (a.ravel() for a in _rates(n, sep_tilde[:, None], *sep[:, :, None], np))
        f_ent, rate_ent = _rates(ent_n * ent_n, ent_tilde, *ent, np)
        # no row's r is past the largest rate over the smallest
        r_bound = np.fmax.reduce(rate_ent) / np.fmin.reduce(rate_sep)
    table = SweepTable(columns, sep_at, ent_at, (sep[0], f_sep, rate_sep), (ent[0], f_ent, rate_ent))
    # with ent[0] all NaN no row is feasible (grids are full products): nothing to check
    if not np.isnan(ent[0]).all() and (
            not r_bound < math.inf or np.isinf(f_sep).any() or np.isinf(f_ent).any()):
        _check_finite(table)
    return table


def _check_finite(table: SweepTable) -> None:
    """SolverError, as from gain(), at the first value of a feasible row that is not finite."""
    for k, block in enumerate(table._blocks(range(len(table)))):
        for name, (values, at) in zip(CSV_COLUMNS[3:8], block[3:8]):
            bad = np.flatnonzero((at >= 0) & ~np.isfinite(values[at]))
            if bad.size:
                row = table[k * _BLOCK_ROWS + int(bad[0])]
                raise SolverError(f"{name} must be finite, got {getattr(row, name)!r} at "
                                  f"x_ent = {row.x_ent!r}, x_sep = {row.x_sep!r}, n = {row.n}")


_BLOCK_ROWS = 2**12  # rows derived and rendered at a time, so no per-row array exists whole


def _cell_layout(x: int, k: int, short: bool) -> list[int]:
    """format_sig's cell (k = 12), or with short, repr's of a k-digit mantissa."""
    if -4 <= x < (16 if short else 12):
        whole = [i if i < 12 else 14 for i in range(x + 1)] if x >= 0 else [14]
        fraction = [14] * (-x - 1) + [*range(k)] if x < 0 else [*range(x + 1, k)]
        return whole + [13] + (fraction or [14] * short)
    mantissa = [0, 13, *range(1, k)] if k > 1 or not short else [0]
    return mantissa + [15, 16 if x > 0 else 17, 18 + abs(x) // 10, 18 + abs(x) % 10]


@functools.cache  # built on first use: at import, their numpy calls took ~0.5 MB of RSS
def _format_tables(short: bool):
    """Tables of _format_sig_cells.  Row x + 11 (decimal exponent x = -11..33) of the first:
    the exact powers of ten (one of them 1) that scale a value to a 12-digit mantissa.  Row
    x + 11 (with short, 12 (x + 11) + k - 1) of the next two: where each byte of a cell comes
    from, a mantissa digit (0..11) or byte i - 12 of the last table (12, the NUL, pads); the
    cell's width.  Then "0000".."9999" as uint32s, and the bytes a cell adds to its digits."""
    layouts = [_cell_layout(x, k, short) for x in range(-11, 34)
               for k in (range(1, 13) if short else [12])]
    return (np.array([[float(10 ** max(0, e)), float(10 ** max(0, -e))] for e in range(22, -23, -1)]),
            np.array([layout + [12] * (18 - len(layout)) for layout in layouts]),
            np.array([len(layout) for layout in layouts]),
            np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
            .reshape(-1, 4).view(np.uint32)[:, 0],
            np.frombuffer(b"\0.0e+-0123456789", np.uint8))


def _workspace() -> dict:
    """The buffers that every block of one save writes into, sized for _BLOCK_ROWS rows:
    the formatter's digits and cell bytes and its layout index, and the padded records
    of a block's lines."""
    source = np.empty((_BLOCK_ROWS, 28), np.uint8)
    source[:, 12:] = _format_tables(False)[-1]  # a cell's 12 digits, then the bytes it adds
    return {"source": source, "at": np.empty(_BLOCK_ROWS * 18, np.intp),  # 18: widest cell
            "lines": np.empty(0, np.uint8)}


def _format_sig_cells(values: np.ndarray, short: bool = False, work: dict | None = None) -> np.ndarray:
    """format_sig's bytes for each float of an array, as an S array, or with short,
    repr's of the float that each cell parses to: the cell's 12 digits less their
    trailing zeros, positional for x in -4..15 as in repr.  A value with
    decimal exponent x in -11..33, scaled by 10^(11 - x) (one rounding), rounds to
    "%#.12g"'s 12-digit mantissa unless the scaled fraction lies within 4 ulp of 1/2;
    those values, mantissas outside [10^11, 10^12), and zero, negative or non-finite
    values (x NaN or infinite) go to format_sig.  work is a save's _workspace."""
    work = work or _workspace()
    if values.size > _BLOCK_ROWS:  # bounds the temporaries, ~200 bytes a value
        return np.concatenate([_format_sig_cells(values[start:start + _BLOCK_ROWS], short, work)
                               for start in range(0, values.size, _BLOCK_ROWS)])
    scale, layout, widths, digit_groups, _ = _format_tables(short)
    with np.errstate(all="ignore"):
        x = np.floor(np.log10(values))
        fast = (x >= -11.0) & (x <= 33.0)
        row = np.where(fast, x, 0.0).astype(np.intp) + 11
        scaled = values * scale[row, 0] / scale[row, 1]
        mantissa = np.rint(scaled)
        fast &= (scaled >= 1e11) & (mantissa < 1e12)
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 4.0 * np.spacing(scaled)
    m = np.where(fast, mantissa, 1e11).astype(np.int64)
    high, top = m // 10**8, m // 10**4
    source = work["source"][:values.size]
    groups = source[:, :12].view(np.uint32)  # the mantissa's digits, four at a time
    groups[:, 0], groups[:, 1], groups[:, 2] = (
        digit_groups[high], digit_groups[top - high * 10**4], digit_groups[m - top * 10**4])
    if short:  # k = 12 less the trailing "0" digits
        row = 12 * row + 11 - np.argmax(source[:, 11::-1] != 48, axis=1)
    width = widths[row].max()
    at = np.take(layout[:, :width], row, axis=0, mode="wrap",  # "raise" would fill a copy of out
                 out=work["at"][:values.size * width].reshape(values.size, width))
    at += source.shape[1] * np.arange(values.size)[:, None]
    cells = np.take(source, at).view(f"S{width}").ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [(repr(float(format_sig(value))) if short else format_sig(value)).encode()
                for value in values[slow].tolist()]
        cells = cells.astype(f"S{max(width, *map(len, text))}")
        cells[slow] = text
    return cells


# Per format: the text before the rows, a row with {} for each cell, the text between
# two rows and after the rows, and the cell of an infeasible row's values
_LAYOUTS = {"csv": (",".join(CSV_COLUMNS) + "\n", ",".join(["{}"] * 9) + "\n", "", "", ""),
            "json": ("[", "\n {" + ",".join(f'\n  "{name}": {{}}' for name in CSV_COLUMNS) + "\n }",
                     ",", "\n]\n", "null")}


def _text_blocks(table: SweepTable, output_format: str):
    """The file as bytes: the head, blocks of _BLOCK_ROWS rows, the tail.  Each column's
    values are rendered once (r once per block), with the cell that index -1 picks, each
    cell after the text before it; a row's last text leads into the next row.  A block
    gathers its rows' cells as NUL-padded records and drops the NULs."""
    head, row, between, tail, empty = (text.encode() for text in _LAYOUTS[output_format])
    pieces = row.split(b"{}")
    lead = pieces[-1] + between  # ends a row and leads into the next
    prefixes = [lead + pieces[0], *pieces[1:-1]]
    rendered, work = [(None, None)] * len(prefixes), _workspace()
    yield head
    for k, block in enumerate(table._blocks(range(len(table)))):
        for i, ((values, _), prefix) in enumerate(zip(block, prefixes)):
            if rendered[i][0] is not values:
                if values.dtype.kind in "bO":  # n as "%d", feasible as true/false
                    cells = np.array([str(v).lower() for v in values.tolist()], dtype=bytes)
                else:  # json's float is the one that the cell parses to
                    cells = _format_sig_cells(values, output_format == "json", work)
                cells = np.append(cells, empty)  # prefix + cell, NUL padding and all
                joined = np.empty((cells.size, len(prefix) + cells.itemsize), np.uint8)
                joined[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
                joined[:, len(prefix):] = cells.view(np.uint8).reshape(cells.size, -1)
                rendered[i] = values, joined.view(f"S{joined.shape[1]}")[:, 0]
        dtype = np.dtype([("", cells.dtype) for _, cells in rendered])
        size = block[0][1].size * dtype.itemsize
        if work["lines"].size < size:  # twice the first block's: later r cells may be wider
            work["lines"] = np.empty(2 * size, np.uint8)
        lines = work["lines"][:size].view(dtype)
        for name, (_, cells), (_, at) in zip(dtype.names, rendered, block):
            np.take(cells, at, out=lines[name], mode="wrap")  # -1: the empty cell
        text = lines.tobytes().translate(None, b"\0")
        del lines, block  # the next block is derived with no earlier one alive
        yield memoryview(text)[len(lead):] if k == 0 else text
        del text
    yield pieces[-1] + tail


def rows_to_csv(table: SweepTable) -> str:
    return b"".join(_text_blocks(table, "csv")).decode()


def rows_to_json(table: SweepTable) -> str:
    """A list of one object per row, in the json module's indent=1 layout."""
    return b"".join(_text_blocks(table, "json")).decode()


def save_rows(table: SweepTable, config: SweepConfig) -> None:
    chunks = _text_blocks(table, config.output_format)
    with open(os.open(config.output_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.writelines(chunks)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null, a pipe...
            fh.truncate()
