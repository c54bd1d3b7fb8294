import dataclasses
import hashlib
import json
import logging
import math
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgain import (
    BathModel,
    DomainError,
    InfeasibleTimingError,
    SolverError,
    SweepRow,
    SweepTable,
    ValidationError,
    coherence_time,
    config_from_dict,
    gain,
    load_config,
    run_sweep,
    save_rows,
)
from ghzgain import sweep as sweep_module
from ghzgain.sweep import (
    CSV_COLUMNS,
    AxisSpec,
    _format_sig_cells,
    format_sig,
    rows_to_csv,
    rows_to_json,
)


def make_config(**overrides):
    data = {
        "model": {"kind": "markovian", "gamma": 1.0},
        "axes": {
            "x_ent": {"min": 0.01, "max": 0.2, "points": 2},
            "x_sep": {"min": 0.05, "max": 0.5, "points": 2},
        },
        "fixed": {"n": 10},
        "output": {"format": "csv", "path": "out.csv"},
    }
    data.update(overrides)
    return config_from_dict(data)


class TestFormat:
    def test_twelve_significant_digits(self):
        assert format_sig(1.0) == "1.00000000000"
        assert format_sig(0.03) == "0.0300000000000"
        assert format_sig(123456789.0) == "123456789.000"
        assert format_sig(1e-30) == "1.00000000000e-30"


def format_sig_oracle_cases():
    """10^6 + seeded doubles for the array formatter: log-uniform over the whole
    double range (both signs), subnormals, special values, exact binary ties of
    the 12th digit, a few ulps around 12-digit rounding points, each power of ten
    from 1e-5 to 1e13 and the carry into it, and 3-digit exponents."""
    rng = np.random.default_rng(20261018)
    whole = 10.0 ** rng.uniform(-307.0, 308.0, 100_000)
    whole[::2] *= -1.0
    subnormal = rng.integers(1, 2**52, 20_000).view(np.float64)
    special = np.array([0.0, -0.0, -1.5, math.inf, -math.inf, math.nan, 5e-324,
                        sys.float_info.min, sys.float_info.max])
    fast_range = 10.0 ** rng.uniform(-12.0, 34.0, 520_000)
    unit = rng.random(100_000)
    # an integer below 10^6 plus k / 1024: exact in binary, and 3,518 of them exact ties
    # at the 12th significant digit, which "%#.12g" rounds half to even
    ties = (rng.integers(0, 10**6, 50_000) * 1024 + rng.integers(1, 1024, 50_000)) / 1024.0
    # (12-digit mantissa + 1/2) * 10^(x - 11), and 1 to 16 ulps either side
    mantissa = rng.integers(10**11, 10**12, 20_000)
    points = (mantissa + 0.5) * 10.0 ** rng.integers(-14, 37, 20_000).astype(float)
    ulps = np.array([-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16])
    near = (points.view(np.int64)[:, None] + ulps).view(np.float64).ravel()
    decades = 10.0 ** np.arange(-5, 14)
    carry = np.concatenate([decades, decades * (1 - 5e-13), decades * (1 - 4e-13)])
    carry = (carry.view(np.int64)[:, None] + np.arange(-3, 4)).view(np.float64).ravel()
    three_digit = 10.0 ** np.concatenate([rng.uniform(-307, -100, 10_000),
                                          rng.uniform(100, 308, 10_000)])
    return np.concatenate([whole, subnormal, special, fast_range, unit, ties, near, carry,
                           three_digit])


class TestFormatSigCells:
    def test_matches_format_sig_on_a_million_doubles(self):
        values = format_sig_oracle_cases()
        assert values.size >= 10**6
        cells = _format_sig_cells(values).tolist()
        mismatches = [(value, cell) for value, cell in zip(values.tolist(), cells)
                      if cell != format_sig(value).encode()]
        assert mismatches == []

    def test_short_cells_are_the_repr_of_each_printed_float(self):
        # json's float cells: 0, whole numbers, the powers of ten where repr turns
        # positional (1e-4) or back to exponents (1e16), and a million doubles
        hand = [0.0, 1.0, 2.0, 10.0, 123.0, 5e5, 123456789012.0, 99999999999.9, 1e-4, 1e-5,
                9.99999999999e-5, 1.5e-5, 1.23456789012e-4, 1.5e15, 9.99999999999e15,
                *[10.0 ** e for e in range(11, 18)], *[1.25 * 10.0 ** e for e in range(11, 18)]]
        values = np.concatenate([hand, format_sig_oracle_cases()])
        cells = _format_sig_cells(values, short=True).tolist()
        mismatches = [(value, cell) for value, cell in zip(values.tolist(), cells)
                      if cell != repr(float(format_sig(value))).encode()]
        assert mismatches == []
        assert cells[:4] == [b"0.0", b"1.0", b"2.0", b"10.0"]
        assert cells[hand.index(1e15)] == b"1000000000000000.0"
        assert cells[hand.index(1e16)] == b"1e+16"

    def test_twelve_digit_ties_round_half_to_even(self):
        cells = _format_sig_cells(np.array([100.0009765625, 100.0029296875, 0.5]))
        assert cells.tolist() == [b"100.000976562", b"100.002929688", b"0.500000000000"]


class TestAxisSpec:
    def test_linear_values_hit_endpoints(self):
        axis = AxisSpec("x_ent", 0.0, 1.0, 5)
        assert axis.values() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log_values(self):
        axis = AxisSpec("n", 1.0, 100.0, 3, "log")
        values = axis.values()
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(10.0)
        assert values[2] == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="bogus", minimum=0.0, maximum=1.0, points=5),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=1),
            dict(name="x_ent", minimum=1.0, maximum=0.5, points=5),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=5, spacing="cubic"),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=5, spacing="log"),
            dict(name="x_ent", minimum=-0.1, maximum=1.0, points=5),
            dict(name="n", minimum=0.0, maximum=10.0, points=5),
            dict(name="x_ent", minimum=0.0, maximum=math.inf, points=5),
            dict(name="x_sep", minimum=math.nan, maximum=1.0, points=5),
            dict(name="n", minimum=1.0, maximum=math.nan, points=5),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=2.5),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=True),
            dict(name="x_ent", minimum="0", maximum=1.0, points=5),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=10**400),
            dict(name="x_ent", minimum=0.0, maximum=1.0, points=1e300),
            dict(name="x_ent", minimum=0.0, maximum=10**400, points=5),
        ],
    )
    def test_invalid_axes_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            AxisSpec(**kwargs)


class TestConfigParsing:
    def test_minimal_config(self):
        config = make_config()
        assert config.model == BathModel.markovian(1.0)
        assert [a.name for a in config.axes] == ["x_ent", "x_sep"]
        assert config.fixed == {"n": 10}

    def test_single_axis_config(self):
        config = make_config(
            axes={"n": {"min": 1, "max": 100, "points": 5, "spacing": "log"}},
            fixed={"x_ent": 0.1, "x_sep": 0.3},
        )
        assert len(config.axes) == 1

    @pytest.mark.parametrize(
        "patch,message",
        [
            (dict(axes={}), "axes"),
            (dict(fixed={}), "fixed"),
            (dict(fixed={"n": 10, "x_ent": 0.1}), "fixed"),
            (dict(fixed={"n": 2.5}), "integer"),
            (dict(output={"format": "xml", "path": "x"}), "format"),
            (dict(output={"format": "csv"}), "path"),
            (dict(model={"kind": "markovian"}), "gamma"),
            (dict(extra_key=1), "unknown"),
            (dict(fixed={"n": math.nan}), "fixed.n"),
            (dict(fixed={"n": math.inf}), "fixed.n"),
            (dict(axes={"x_ent": {"min": 0.0, "max": math.inf, "points": 2}},
                  fixed={"n": 10, "x_sep": 0.1}), "max"),
            (dict(axes={"x_ent": {"min": 0.0, "max": 1.0, "points": math.inf}},
                  fixed={"n": 10, "x_sep": 0.1}), "points"),
            (dict(axes={"x_ent": {"min": 0.0, "max": 1.0, "points": 2}},
                  fixed={"n": 10, "x_sep": math.nan}), "fixed.x_sep"),
            (dict(fixed={"n": 10**400}), "fixed.n"),
            (dict(model={"kind": "markovian", "gamma": 10**400}), "gamma"),
            (dict(output={"format": "csv", "path": "x", "mode": "a"}), "unknown field 'mode'"),
            (dict(output=["csv"]), "output must be an object"),
            (dict(axes={"x_ent": {"min": 0.0, "max": 1.0, "points": 2, "step": 1}},
                  fixed={"n": 10, "x_sep": 0.1}), "axes.x_ent: unknown field 'step'"),
            (dict(fixed={"n": True}), "fixed.n must be a number"),
            (dict(model={"kind": "markovian", "gamma": True}), "'gamma' must be a number"),
            *[(dict(output={"format": "csv", "path": path}),
               "output.path must be a non-empty string")
              for path in (None, 0, False, [], {}, "")],
        ],
    )
    def test_invalid_configs_name_the_field(self, patch, message):
        with pytest.raises(ValidationError, match=message):
            make_config(**patch)

    def test_numpy_numbers_are_numbers_in_every_field(self):
        config = make_config(
            model={"kind": "markovian", "gamma": np.int64(1)},
            axes={"x_ent": {"min": np.int64(0), "max": np.float64(0.5), "points": np.int64(2)}},
            fixed={"n": np.int64(10), "x_sep": np.float64(0.1)})
        assert config.model == BathModel.markovian(1.0)
        assert config.axes[0].values() == [0.0, 0.5] and config.fixed["n"] == 10

    def test_grid_size_is_capped(self):
        def grid(ent_points, sep_points):
            return make_config(axes={"x_ent": {"min": 0.0, "max": 1.0, "points": ent_points},
                                     "x_sep": {"min": 0.0, "max": 1.0, "points": sep_points}})

        assert len(grid(10**4, 10**3).axes) == 2  # 10^7 rows: built only when run
        with pytest.raises(ValidationError, match="at most 10000000 rows"):
            grid(10**4, 10**3 + 1)

    def test_the_constructor_rejects_a_repeated_axis(self):
        # a config file's axes are the keys of one object, so only a direct call repeats one
        config = make_config()
        with pytest.raises(ValidationError, match="axes must sweep distinct variables"):
            dataclasses.replace(config, axes=(config.axes[0],) * 2)

    def test_three_axes_rejected(self):
        with pytest.raises(ValidationError):
            make_config(
                axes={
                    "x_ent": {"min": 0.0, "max": 1.0, "points": 2},
                    "x_sep": {"min": 0.0, "max": 1.0, "points": 2},
                    "n": {"min": 1, "max": 10, "points": 2},
                },
                fixed={},
            )

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": \n  nonsense}')
        with pytest.raises(ValidationError, match="line 2"):
            load_config(str(path))


class TestRunSweep:
    def test_two_by_two_matches_pointwise_gain(self):
        config = make_config()
        rows = run_sweep(config)
        assert len(rows) == 4
        model = BathModel.markovian(1.0)
        for row in rows:
            expected = gain(model, row.n, row.x_sep, row.x_ent)  # t_c = 1
            assert row.feasible
            assert row.r == pytest.approx(expected.r, rel=1e-15)
            assert row.tau_opt_sep == pytest.approx(expected.tau_opt_sep, rel=1e-15)
            assert row.f_ent == pytest.approx(expected.f_ent, rel=1e-15)

    def test_row_major_order(self):
        config = make_config()
        rows = run_sweep(config)
        assert [(round(r.x_ent, 3), round(r.x_sep, 3)) for r in rows] == [
            (0.01, 0.05), (0.01, 0.5), (0.2, 0.05), (0.2, 0.5),
        ]

    def test_overheads_scale_with_coherence_time(self):
        config = make_config(model={"kind": "markovian", "gamma": 4.0})
        row = run_sweep(config)[0]
        expected = gain(BathModel.markovian(4.0), 10, 0.05 * 0.25, 0.01 * 0.25)
        assert row.r == pytest.approx(expected.r, rel=1e-15)

    def test_infeasible_isolated_points_survive(self):
        config = make_config(
            model={"kind": "isolated", "t_c": 1.0},
            axes={"x_ent": {"min": 0.5, "max": 1.5, "points": 3}},
            fixed={"x_sep": 0.1, "n": 4},
        )
        rows = run_sweep(config)
        # x_ent = 1.0 already leaves no sensing time, so only 0.5 is feasible
        assert [row.feasible for row in rows] == [True, False, False]
        assert rows[-1].r is None and rows[-1].f_sep is None
        assert rows[0].r is not None

    def test_integer_rounding_on_n_axis(self):
        config = make_config(
            axes={"n": {"min": 1, "max": 1000, "points": 4, "spacing": "log"}},
            fixed={"x_ent": 0.01, "x_sep": 0.1},
        )
        rows = run_sweep(config)
        assert [row.n for row in rows] == [1, 10, 100, 1000]
        assert all(isinstance(row.n, int) for row in rows)


# The six criterion-10 panels (model, column axis, x_ent maximum, fixed
# value) on 40x40 grids, and the sha256 of each CSV as written when every
# grid point was solved on its own.
GOLDEN_PANELS = {
    "a": ({"kind": "isolated", "t_c": 1.0}, ("x_sep", 0.0, 0.9, "linear"), 0.995,
          {"n": 10}, "07b33ec1ec9b214657842092f814957b595909b57a431257610289ca3096ef27"),
    "b": ({"kind": "isolated", "t_c": 1.0}, ("n", 1, 10**4, "log"), 0.995,
          {"x_sep": 0.03}, "6865e61d4f73f12d671ce3ea5cb6847d590ab95b6b251e37d454146425827419"),
    "c": ({"kind": "markovian", "gamma": 1.0}, ("x_sep", 0.0, 0.9, "linear"), 0.995,
          {"n": 10}, "9330753e2204234dcf6f1710b72af1854eddd683d494d96d7eec391d9fb2e5a9"),
    "d": ({"kind": "markovian", "gamma": 1.0}, ("n", 1, 10**4, "log"), 0.995,
          {"x_sep": 0.03}, "75a8bc595e7bab255b36a55017f183979176667991f71e968e47526d5761a6b2"),
    "e": ({"kind": "nonmarkovian", "eta": 1.0}, ("x_sep", 0.0, 0.9, "linear"), 1.6,
          {"n": 10}, "09b23a050fc084fb289193ccac6ca7c84d4d81e76f2b876468e6aabb38cbec63"),
    "f": ({"kind": "nonmarkovian", "eta": 1.0}, ("n", 1, 10**4, "log"), 0.995,
          {"x_sep": 0.03}, "3d84addc989b990d7bdd4253c38d4bd07da516d73f9859fbab50866676598ca4"),
}


# The sha256 of the six panels on their full 200x200 grids, as CSV.  Every array
# operation on them is correctly rounded or math.exp, so the bytes do not depend
# on numpy's vectorised transcendentals (panels e and f take the cubic's root in
# four Newton steps of +, * and /).
FULL_PANEL_SHA256 = {
    "a": "3f1a44bc75bd87d24819e717e02f3dc93757f90e4dea34b35012d5784ca1fbf1",
    "b": "91121082330ec5b1084872283158372a15be8544722200a8dec53ac153e9cbcd",
    "c": "6f9badb368c3540558e53da6cb0d8fa5fdaa0be360c49e2b8d9a0119396ec42e",
    "d": "412d60a932f8f8074430e7dcaf8fd9114c0e1876b5adce30e282c21842eefe54",
    "e": "9d736834a4747aa47ab045ac05d335690137fc656b31673cdf3d34723d24a394",
    "f": "abc3bbc198911cad5e6cf1ed654e77d58eee17e1df090d464fecb2f69b569e98",
}


def golden_panel_data(name, points=40, path="unused.csv"):
    model, (col, lo, hi, spacing), x_ent_max, fixed, _ = GOLDEN_PANELS[name]
    return {
        "model": model,
        "axes": {
            col: {"min": lo, "max": hi, "points": points, "spacing": spacing},
            "x_ent": {"min": 0.0, "max": x_ent_max, "points": points},
        },
        "fixed": fixed,
        "output": {"format": "csv", "path": path},
    }


def golden_panel_config(name, points=40):
    return config_from_dict(golden_panel_data(name, points))


@pytest.fixture
def solve_log(monkeypatch):
    """(tau_tilde, n_eff) of every key a sweep hands to the array solver."""
    import ghzgain.sweep as sweep_module

    calls = []
    solve = sweep_module._optimal_sensing_times

    def counting(model, tau_tilde, n_eff):
        calls.extend(zip(tau_tilde.tolist(), n_eff.tolist()))
        return solve(model, tau_tilde, n_eff)

    monkeypatch.setattr(sweep_module, "_optimal_sensing_times", counting)
    return calls


def shared_key_config():
    # the n = 1, x_ent = 0.1 entangled optimum is the separable one
    return make_config(
        axes={"x_ent": {"min": 0.1, "max": 0.2, "points": 2},
              "n": {"min": 1, "max": 100, "points": 3, "spacing": "log"}},
        fixed={"x_sep": 0.1},
    )


def either_timing_infeasible_config():
    # x_sep = 1 leaves the separable probe no time while x_ent = 0.5 still has
    # a finite optimum, and the reverse at x_ent = 1, x_sep = 0.5
    return make_config(
        model={"kind": "isolated", "t_c": 2.0},
        axes={"x_ent": {"min": 0.5, "max": 1.5, "points": 3},
              "x_sep": {"min": 0.5, "max": 1.5, "points": 3}},
        fixed={"n": 7},
    )


def no_separable_timing_config():
    return make_config(
        model={"kind": "isolated", "t_c": 1.0},
        axes={"x_ent": {"min": 0.0, "max": 0.5, "points": 4},
              "n": {"min": 1, "max": 100, "points": 3, "spacing": "log"}},
        fixed={"x_sep": 1.0},
    )


class TestSharedSolves:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PANELS))
    def test_panel_csv_matches_golden_hash(self, name):
        text = rows_to_csv(run_sweep(golden_panel_config(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_PANELS[name][-1]

    @pytest.mark.parametrize("name", sorted(FULL_PANEL_SHA256))
    def test_full_size_panel_csv_matches_its_hash(self, name):
        text = rows_to_csv(run_sweep(golden_panel_config(name, points=200)))
        assert hashlib.sha256(text.encode()).hexdigest() == FULL_PANEL_SHA256[name]

    @pytest.mark.parametrize("config", [
        lambda: golden_panel_config("c"), lambda: golden_panel_config("f"), shared_key_config,
    ], ids=["c", "f", "shared-key"])
    def test_one_solve_per_distinct_optimum(self, config, solve_log):
        config = config()
        rows = run_sweep(config)
        t_c = coherence_time(config.model)
        sep = Counter({(row.x_sep * t_c, 1) for row in rows})
        ent = Counter({(row.x_ent * t_c, row.n) for row in rows})
        # each separable and each entangled key once; a key that both need, once in each
        assert Counter(solve_log) == sep + ent
        assert len(solve_log) < 2 * len(rows)

    @pytest.mark.parametrize("config, message", [
        # every separable, or every entangled, timing infeasible: r's bound is NaN, no row
        # is feasible, and a walk would find nothing
        (dict(model={"kind": "isolated", "t_c": 1.0}, fixed={"n": 10},
              axes={"x_ent": {"min": 0.0, "max": 0.5, "points": 40},
                    "x_sep": {"min": 1.0, "max": 2.0, "points": 40}}), None),
        (dict(model={"kind": "isolated", "t_c": 1.0}, fixed={"n": 10},
              axes={"x_ent": {"min": 1.0, "max": 2.0, "points": 40},
                    "x_sep": {"min": 0.0, "max": 0.5, "points": 40}}), None),
        # a separable overhead of 1e307 t_c: r = rate_ent / rate_sep overflows
        (dict(model={"kind": "nonmarkovian", "eta": 1}, fixed={"n": 10000, "x_ent": 0},
              axes={"x_sep": {"min": 1e306, "max": 1e307, "points": 2}}),
         "r must be finite, got inf"),
        # n tau^2 = 1e5 (1e152)^2: f_sep overflows
        (dict(model={"kind": "isolated", "t_c": 1e152}, fixed={"n": 10**5, "x_sep": 0},
              axes={"x_ent": {"min": 0.9999999999, "max": 0.99999999999, "points": 2}}),
         "f_sep must be finite, got inf"),
    ], ids=["no-separable-timing", "no-entangled-timing", "r", "f_sep"])
    def test_only_a_grid_with_a_feasible_row_is_walked(self, monkeypatch, config, message):
        walks, check = [], sweep_module._check_finite
        monkeypatch.setattr(sweep_module, "_check_finite",
                            lambda table: walks.append(table) or check(table))
        if message is None:
            assert not any(row.feasible for row in run_sweep(make_config(**config)))
            assert walks == []
        else:
            with pytest.raises(SolverError, match=message):
                run_sweep(make_config(**config))
            assert len(walks) == 1

    def test_infeasible_separable_point_is_solved_once(self, solve_log):
        rows = run_sweep(no_separable_timing_config())
        assert len(rows) == 12
        assert not any(row.feasible for row in rows)
        assert all(row.r is None and row.tau_opt_ent is None for row in rows)
        assert solve_log == [(1.0, 1)]  # and no entangled solve


def random_sweep_config(rng, kind):
    """A small one- or two-axis grid on a random model of the given kind;
    overhead ratios run past 1, where isolated timings become infeasible."""
    model = {
        "isolated": {"kind": "isolated", "t_c": 10 ** rng.uniform(-1, 1)},
        "markovian": {"kind": "markovian", "gamma": 10 ** rng.uniform(-1, 1)},
        "nonmarkovian": {"kind": "nonmarkovian", "eta": 10 ** rng.uniform(-1, 1)},
        "ohmic": {"kind": "ohmic", "alpha": rng.uniform(0.01, 0.1),
                  "omega_c": rng.uniform(5, 50), "beta": rng.uniform(0.2, 2)},
    }[kind]
    names = rng.sample(["x_ent", "x_sep", "n"], rng.randint(1, 2))
    axes, fixed = {}, {}
    for name in ("x_ent", "x_sep", "n"):
        points = rng.randint(2, 7)
        if name == "n":
            if name in names:
                axes[name] = {"min": 1, "max": 10 ** rng.uniform(1, 4), "points": points,
                              "spacing": "log"}
            else:
                fixed[name] = rng.randint(1, 1000)
        elif name in names:
            axes[name] = {"min": rng.uniform(0, 0.5), "max": rng.uniform(0.6, 1.4),
                          "points": points}
        else:
            fixed[name] = rng.uniform(0, 1.5)
    return config_from_dict({"model": model, "axes": axes, "fixed": fixed,
                             "output": {"format": "csv", "path": "unused.csv"}})


def pointwise_rows(config, sweep_rows):
    """The expected rows at the grid points of sweep_rows, from one gain()
    call per point."""
    t_c = coherence_time(config.model)
    rows = []
    for row in sweep_rows:
        try:
            result = gain(config.model, row.n, row.x_sep * t_c, row.x_ent * t_c)
        except InfeasibleTimingError:
            rows.append(row[:3] + (None,) * 5 + (False,))
            continue
        rows.append(row[:3] + (result.r, result.tau_opt_sep, result.tau_opt_ent,
                               result.f_sep, result.f_ent, True))
    return rows


# relative tolerance per kind: the isolated, Markovian and non-Markovian
# array solves use the scalar operations (the cubic's root is the same
# Newton loop over +, * and /), so every double matches; the Ohmic zero
# finder evaluates the exponent's derivative with numpy's transcendentals
AGREEMENT_REL = {"isolated": 0.0, "markovian": 0.0, "nonmarkovian": 0.0, "ohmic": 1e-13}


def assert_rows_agree(rows, expected, rel):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert row[:3] == want[:3] and row.feasible == want[-1]
        for got, value in zip(row[3:8], want[3:8]):
            if rel == 0.0 or value is None:
                assert got == value
            else:
                assert got == pytest.approx(value, rel=rel, abs=0.0)


class TestArraySweep:
    @pytest.mark.parametrize("name", ["a", "d", "f"])
    def test_an_uncertified_key_raises_naming_it(self, monkeypatch, name):
        # one key the array pass leaves uncertified, first, last or drawn from either
        # pass, raises SolverError naming it, once the scalar solver returns there
        config = golden_panel_config(name)
        solve, rng = sweep_module._optimal_sensing_times, random.Random(f"uncertified-{name}")
        for which in (0, 1):
            for pick in (lambda size: 0, lambda size: size - 1, rng.randrange):
                passes = []

                def partial(model, tau_tilde, n_eff):
                    tau, rate, decay = solve(model, tau_tilde, n_eff)
                    at = pick(rate.size)
                    if len(passes) == which:
                        rate[at] = math.nan
                    passes.append((float(tau_tilde[at]), int(n_eff[at])))
                    return tau, rate, decay

                monkeypatch.setattr(sweep_module, "_optimal_sensing_times", partial)
                with pytest.raises(SolverError) as info:
                    run_sweep(config)
                assert len(passes) == which + 1
                tau_tilde, n = passes[which]
                assert str(info.value) == (
                    f"no certified optimum at tau_tilde = {tau_tilde!r}, n_eff = {n}")

    @pytest.mark.parametrize("kind", sorted(AGREEMENT_REL))
    def test_rows_match_pointwise_gain(self, kind):
        rng = random.Random(f"sweep-{kind}")
        for _ in range(8):
            config = random_sweep_config(rng, kind)
            rows = run_sweep(config)
            assert_rows_agree(rows, pointwise_rows(config, rows), AGREEMENT_REL[kind])

    def test_infeasible_points_of_either_timing(self):
        config = either_timing_infeasible_config()
        rows = run_sweep(config)
        assert [row.feasible for row in rows] == [True, False, False] + [False] * 6
        assert_rows_agree(rows, pointwise_rows(config, rows), 0.0)

    @pytest.mark.parametrize("model, axis, other", [
        ({"kind": "markovian", "gamma": 1e-10}, "x_ent", "x_sep"),
        # the array path alone would call this timing infeasible
        ({"kind": "isolated", "t_c": 1e10}, "x_sep", "x_ent"),
    ])
    def test_overhead_overflowing_to_inf_is_rejected(self, model, axis, other):
        config = make_config(model=model, axes={axis: {"min": 0.0, "max": 1e308, "points": 3}},
                             fixed={other: 0.1, "n": 4})
        with pytest.raises(DomainError, match="overhead time must be finite"):
            run_sweep(config)

    def test_large_scaled_overheads_are_solved_in_closed_form(self, caplog):
        # scaled overheads of 2e7 to 1.3e8, where the former complex-arithmetic
        # cubic failed its realness check and fell back, with a warning, to
        # the numeric optimiser
        config = make_config(
            model={"kind": "nonmarkovian", "eta": 7.5},
            axes={"x_ent": {"min": 2e4, "max": 4e4, "points": 3},
                  "n": {"min": 1e6, "max": 1e7, "points": 2, "spacing": "log"}},
            fixed={"x_sep": 0.1},
        )
        with caplog.at_level(logging.WARNING, logger="ghzgain.opttime"):
            rows = run_sweep(config)
            expected = pointwise_rows(config, rows)
        assert not caplog.records
        assert_rows_agree(rows, expected, AGREEMENT_REL["nonmarkovian"])


def complex_key_rows(config):
    """The rows of run_sweep with its entangled keys taken, as they were, by one
    np.unique over the complex pairs tau_tilde_ent + 1j n of the whole grid."""
    model, t_c, columns = config.model, coherence_time(config.model), sweep_module._grid(config)
    n = columns["n"].astype(float)
    with np.errstate(over="ignore"):
        tau_tilde_sep, tau_tilde_ent = columns["x_sep"] * t_c, columns["x_ent"] * t_c
    sep_keys, sep_at = np.unique(tau_tilde_sep + 1j, return_inverse=True)
    ent_keys, ent_at = np.unique((tau_tilde_ent[:, None] + 1j * n).ravel(), return_inverse=True)
    sep = sweep_module._solve(model, sep_keys.real, sep_keys.imag)
    ent = np.full((2, ent_keys.size), math.nan)
    if not np.isnan(sep[0]).all():
        at = np.searchsorted(sep_keys, ent_keys).clip(max=sep_keys.size - 1)
        known = sep_keys[at] == ent_keys
        ent[:, known] = sep[:, at[known]]
        keys = ent_keys[~known]
        ent[:, ~known] = sweep_module._solve(model, keys.real, keys.imag)
    with np.errstate(all="ignore"):
        f_sep, rate_sep = (a.ravel() for a in sweep_module._rates(
            n, sep_keys.real[:, None], *sep[:, :, None], np))
        f_ent, rate_ent = sweep_module._rates(ent_keys.imag * ent_keys.imag, ent_keys.real, *ent, np)
    return list(SweepTable(columns, sep_at, ent_at, (sep[0], f_sep, rate_sep),
                           (ent[0], f_ent, rate_ent)))


KEY_MODELS = [{"kind": "isolated", "t_c": 2.0}, {"kind": "markovian", "gamma": 0.7},
              {"kind": "nonmarkovian", "eta": 1.3},
              {"kind": "ohmic", "alpha": 0.05, "omega_c": 20.0, "beta": 0.5}]


@st.composite
def key_grids(draw):
    """Two-axis grids with an x_ent axis whose values may repeat (a span of a few
    ulps over more points), and a log n axis whose rounded counts collide, or an
    x_sep axis at a fixed n, which may be past 2^53."""
    low = high = draw(st.floats(0.0, 1.2))
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 6]))):
        high = math.nextafter(high, math.inf)
    high = high if high > low else low + 0.3
    axes = {"x_ent": {"min": low, "max": high, "points": draw(st.integers(2, 12))}}
    fixed = {}
    if draw(st.booleans()):
        axes["n"] = {"min": 1, "max": draw(st.integers(2, 10**4)),
                     "points": draw(st.integers(2, 40)), "spacing": "log"}
        fixed["x_sep"] = draw(st.floats(0.0, 1.2))
    else:
        axes["x_sep"] = {"min": 0.0, "max": draw(st.floats(0.1, 1.2)), "points": draw(st.integers(2, 12))}
        fixed["n"] = draw(st.one_of(st.integers(1, 1000), st.integers(2**53 + 1, 2**60)))
    return make_config(model=draw(st.sampled_from(KEY_MODELS)), axes=axes, fixed=fixed)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(config=key_grids())
def test_per_axis_keys_give_the_rows_of_complex_keys(config):
    assert list(run_sweep(config)) == complex_key_rows(config)


@pytest.mark.parametrize("model", KEY_MODELS, ids=lambda model: model["kind"])
@pytest.mark.parametrize("axes, fixed", [
    ({name: {"min": 0.0, "max": 1.4, "points": 15} for name in ("x_ent", "x_sep")}, {"n": 1}),
    ({name: {"min": 0.01, "max": 3.0, "points": 9, "spacing": "log"} for name in ("x_ent", "x_sep")},
     {"n": 1}),
    ({"x_sep": {"min": 0.0, "max": 1.2, "points": 7}, "n": {"min": 1, "max": 50, "points": 4}},
     {"x_ent": AxisSpec("x_sep", 0.0, 1.2, 7).values()[3]}),
], ids=["linear", "log", "fixed-x_ent"])
def test_n_1_at_a_shared_overhead_gives_both_strategies_the_same_doubles(model, axes, fixed):
    # each strategy solves its own keys, so an (x, 1) key that both need is solved twice
    rows = [row for row in run_sweep(make_config(model=model, axes=axes, fixed=fixed))
            if row.x_ent == row.x_sep and row.n == 1]
    assert any(row.feasible for row in rows)
    for row in rows:
        if row.feasible:
            assert row.r == 1.0
            assert row.f_sep == row.f_ent and row.tau_opt_sep == row.tau_opt_ent


# The per-row rendering that rows_to_csv replaced: one %-format per row, with
# format_sig's "%#.12g" and the five value cells of an infeasible row empty.
FEASIBLE_ROW = "%#.12g,%#.12g,%d,%#.12g,%#.12g,%#.12g,%#.12g,%#.12g,true"
INFEASIBLE_ROW = "%#.12g,%#.12g,%d,,,,,,false"


def assert_output_matches_oracle(table):
    rows = list(table)  # built row by row, not by the block writer's gather
    lines = [",".join(CSV_COLUMNS)]
    lines += [FEASIBLE_ROW % row[:8] if row.feasible else INFEASIBLE_ROW % row[:3]
              for row in rows]
    assert rows_to_csv(table) == "\n".join(lines) + "\n"
    # the per-row JSON rendering: one dict per row, each float as printed in
    # the CSV and parsed back, through json.dumps
    payload = [{name: float(format_sig(value)) if isinstance(value, float) else value
                for name, value in zip(CSV_COLUMNS, row)} for row in rows]
    assert rows_to_json(table) == json.dumps(payload, indent=1) + "\n"


class TestColumnarCsv:
    @pytest.mark.parametrize("kind", sorted(AGREEMENT_REL))
    def test_random_sweeps_match_the_per_row_format(self, kind):
        rng = random.Random(f"csv-{kind}")
        for _ in range(8):
            assert_output_matches_oracle(run_sweep(random_sweep_config(rng, kind)))

    @pytest.mark.parametrize("config", [
        shared_key_config, either_timing_infeasible_config, no_separable_timing_config,
    ], ids=["shared-n1-key", "either-timing-infeasible", "no-separable-timing"])
    def test_edge_grids_match_the_per_row_format(self, config):
        assert_output_matches_oracle(run_sweep(config()))

    # 11 divides no random grid, whose axes have 2..7 points
    @pytest.mark.parametrize("block_rows", [1, 5, 11, sweep_module._BLOCK_ROWS])
    def test_lines_rendered_in_blocks_match_the_per_row_format(self, monkeypatch, tmp_path,
                                                               block_rows):
        monkeypatch.setattr(sweep_module, "_BLOCK_ROWS", block_rows)
        rng = random.Random("csv-blocks")
        for kind in sorted(AGREEMENT_REL):
            config = random_sweep_config(rng, kind)
            table = run_sweep(config)
            assert_output_matches_oracle(table)
            for fmt, render in (("csv", rows_to_csv), ("json", rows_to_json)):
                path = tmp_path / f"{kind}.{fmt}"
                save_rows(table, dataclasses.replace(config, output_format=fmt,
                                                     output_path=str(path)))
                assert path.read_bytes() == render(table).encode()

    def test_huge_fixed_count_is_printed_exactly(self):
        # n = 10^30 is no float: a numpy float array would print 1.00000000000e+30
        table = run_sweep(make_config(
            model={"kind": "isolated", "t_c": 1.0},
            axes={"x_ent": {"min": 0.0, "max": 1.5, "points": 4}},
            fixed={"x_sep": 0.1, "n": 10**30}))
        assert [row.n for row in table] == [10**30] * 4
        assert [row.feasible for row in table] == [True, True, False, False]
        assert_output_matches_oracle(table)
        assert f",{10**30}," in rows_to_csv(table)


class TestSweepTable:
    def test_sequence_contract(self):
        table = run_sweep(either_timing_infeasible_config())
        assert isinstance(table, SweepTable) and isinstance(table, Sequence)
        assert len(table) == 9
        rows = [table[i] for i in range(len(table))]
        assert list(table) == rows
        assert [row[:2] for row in rows] == [(e, s) for e in (0.5, 1.0, 1.5)
                                             for s in (0.5, 1.0, 1.5)]
        assert table[-1] == rows[-1] and table[-len(table)] == rows[0]
        assert table[2:7:2] == rows[2:7:2] and list(reversed(table)) == rows[::-1]
        assert table.index(rows[4]) == 4 and rows[4] in table
        for bad in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[bad]
        for row in rows:
            assert isinstance(row, SweepRow) and row == tuple(row)
            assert type(row.n) is int and type(row.feasible) is bool
            assert all(type(v) is float for v in row[:2])
            assert all(type(v) is float if row.feasible else v is None for v in row[3:8])

    def test_slices_and_iteration_read_the_indexed_rows(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_BLOCK_ROWS", 4)  # slices span blocks
        table = run_sweep(make_config(
            model={"kind": "isolated", "t_c": 2.0},
            axes={"x_ent": {"min": 0.5, "max": 2.5, "points": 5},
                  "n": {"min": 1, "max": 100, "points": 5, "spacing": "log"}},
            fixed={"x_sep": 0.25}))
        rows = [table[i] for i in range(len(table))]
        assert any(row.feasible for row in rows) and not all(row.feasible for row in rows)
        assert list(table) == rows and list(reversed(table)) == rows[::-1]
        for i in [slice(None), slice(None, None, -1), slice(None, None, -3), slice(-2, 3, -2),
                  slice(20, 1, -4), slice(3, 3), slice(None, None, 7), slice(-100, 100)]:
            assert table[i] == rows[i]

    def test_table_memory_is_bounded_by_the_distinct_keys(self):
        config = make_config(axes={"x_ent": {"min": 0.0, "max": 0.5, "points": 1000},
                                   "x_sep": {"min": 0.0, "max": 0.9, "points": 1000}})
        tracemalloc.start()
        try:
            table = run_sweep(config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == 10**6
        assert held < 5e6

    def test_save_memory_is_bounded_by_the_block(self, tmp_path):
        # the CSV save of this 10^6-row grid peaks at 3.2 MB: the save's block workspace
        # (1.7 MB) and the temporaries of one block of 2^12 rows
        config = make_config(axes={"x_ent": {"min": 0.0, "max": 0.5, "points": 1000},
                                   "x_sep": {"min": 0.0, "max": 0.9, "points": 1000}},
                             output={"format": "csv", "path": str(tmp_path / "big.csv")})
        table = run_sweep(config)
        tracemalloc.start()
        try:
            save_rows(table, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# Sweeps a 20x20 x_sep panel and a 20x20 n panel to CSV and JSON, and prints the
# modules that doing so imported.  numpy imports some submodules on first use
# (np.isin imports numpy.ma, np.char numpy.char): a fresh process pays for them.
IMPORT_PROBE = """
import sys
import ghzgain
before = set(sys.modules)
for second, fixed in (({"x_sep": {"min": 0.0, "max": 0.9, "points": 20}}, {"n": 10}),
                      ({"n": {"min": 1, "max": 1e4, "points": 20, "spacing": "log"}},
                       {"x_sep": 0.03})):
    for fmt in ("csv", "json"):
        config = ghzgain.config_from_dict({
            "model": {"kind": "markovian", "gamma": 1.0},
            "axes": {"x_ent": {"min": 0.0, "max": 0.995, "points": 20}, **second},
            "fixed": fixed, "output": {"format": fmt, "path": sys.argv[1] + "." + fmt}})
        ghzgain.save_rows(ghzgain.run_sweep(config), config)
print(sorted(set(sys.modules) - before))
"""


SRC = os.path.dirname(os.path.dirname(sweep_module.__file__))


# Saves one panel twice in a fresh process and prints the minor page faults of the
# second save: what a save costs once the process has run one.
FAULT_PROBE = """
import json, resource, sys
import ghzgain
config = ghzgain.config_from_dict(json.loads(sys.argv[1]))
table = ghzgain.run_sweep(config)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ghzgain.save_rows(table, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestOutput:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    def test_a_repeated_save_faults_in_few_pages(self, tmp_path):
        # the second save of the 200x200 panel a took ~5,700 minor faults when each block
        # allocated its own buffers, and takes ~450 with one workspace a save
        data = golden_panel_data("a", points=200, path=str(tmp_path / "a.csv"))
        probe = subprocess.run([sys.executable, "-c", FAULT_PROBE, json.dumps(data)],
                               env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                               text=True, check=True)
        assert int(probe.stdout) < 1500

    def test_a_sweep_imports_no_module(self, tmp_path):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "panel")],
                               env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                               text=True, check=True)
        assert probe.stdout.strip() == "[]"
        assert (tmp_path / "panel.json").stat().st_size > 0

    def test_csv_layout_and_determinism(self, tmp_path):
        config = make_config(
            output={"format": "csv", "path": str(tmp_path / "a.csv")}
        )
        rows = run_sweep(config)
        text = rows_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "x_ent,x_sep,n,r,tau_opt_sep,tau_opt_ent,f_sep,f_ent,feasible"
        assert len(lines) == 6 and lines[-1] == ""
        assert lines[1].endswith(",true")
        assert text == rows_to_csv(run_sweep(config))

    def test_csv_empty_cells_for_infeasible(self):
        config = make_config(
            model={"kind": "isolated", "t_c": 1.0},
            axes={"x_ent": {"min": 0.5, "max": 1.5, "points": 3}},
            fixed={"x_sep": 0.1, "n": 4},
        )
        text = rows_to_csv(run_sweep(config))
        last = text.strip().split("\n")[-1]
        fields = last.split(",")
        assert fields[3:8] == ["", "", "", "", ""]
        assert fields[-1] == "false"

    def test_json_round_trip_reproduces_printed_values(self):
        rows = run_sweep(make_config())
        parsed = json.loads(rows_to_json(rows))
        assert len(parsed) == 4
        for row, entry in zip(rows, parsed):
            assert entry["n"] == row.n
            assert entry["feasible"] is True
            for field in ("x_ent", "x_sep", "r", "tau_opt_sep", "tau_opt_ent",
                          "f_sep", "f_ent"):
                assert entry[field] == float(format_sig(getattr(row, field)))

    @pytest.mark.parametrize("config, digest", [
        (make_config, "a5597732220a3d4c83dafbed6f1ea2cb5cb140296f3ed55a2faea452919f38b2"),
        (lambda: make_config(
            model={"kind": "isolated", "t_c": 2.0},
            axes={"x_ent": {"min": 0.5, "max": 1.5, "points": 3},
                  "n": {"min": 1, "max": 100, "points": 3, "spacing": "log"}},
            fixed={"x_sep": 0.25}),
         "f3860dc4dec69457578cd9e3d2b52c0cf8cad2421a114fca9f73bbe7fe4c3551"),
    ], ids=["markovian", "isolated-infeasible"])
    def test_json_matches_pinned_hash(self, config, digest):
        # the sha256 of each JSON as written when every row was rendered on its own
        text = rows_to_json(run_sweep(config()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_save_rows_writes_requested_format(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        config = make_config(output={"format": "csv", "path": str(csv_path)})
        rows = run_sweep(config)
        save_rows(rows, config)
        assert csv_path.read_text().startswith("x_ent,")

        json_path = tmp_path / "out.json"
        config = make_config(output={"format": "json", "path": str(json_path)})
        save_rows(rows, config)
        assert json.loads(json_path.read_text())[0]["n"] == 10

    def test_byte_identical_files(self, tmp_path):
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for path in (p1, p2):
            config = make_config(output={"format": "csv", "path": str(path)})
            save_rows(run_sweep(config), config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_rows_over_a_longer_file_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "out"
        sizes = []
        for fmt, render, points in (("csv", rows_to_csv, 40), ("csv", rows_to_csv, 10),
                                    ("json", rows_to_json, 2)):
            config = make_config(axes={"x_ent": {"min": 0.0, "max": 0.5, "points": points}},
                                 fixed={"x_sep": 0.1, "n": 10},
                                 output={"format": fmt, "path": str(path)})
            rows = run_sweep(config)
            save_rows(rows, config)
            assert path.read_bytes() == render(rows).encode()
            sizes.append(path.stat().st_size)
        assert sizes == sorted(sizes, reverse=True)

    def test_new_file_gets_the_default_permissions(self, tmp_path):
        path = tmp_path / "new.csv"
        config = make_config(output={"format": "csv", "path": str(path)})
        rows = run_sweep(config)
        umask = os.umask(0o027)
        try:
            save_rows(rows, config)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027

    def test_rows_are_tuples(self):
        row = run_sweep(make_config())[0]
        assert row == tuple(row) and row[:3] == (row.x_ent, row.x_sep, row.n)
