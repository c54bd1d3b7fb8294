import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ghzgain import BathModel, GhzGainError, NoThresholdError, coherence_time, threshold_ent_time
from ghzgain import cli
from ghzgain.cli import cli_main
from ghzgain.sweep import AXIS_NAMES


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_lines(out):
    values = {}
    for line in out.strip().split("\n"):
        key, _, raw = line.partition(" = ")
        values[key] = raw
    return values


class TestGainCommand:
    def test_markovian_crossing_prints_unity(self, capsys):
        code, out, _ = run(
            capsys, "gain", "--model", "markovian", "--gamma", "1",
            "--n", "20", "--ttilde-sep", "0.4", "--ttilde-ent", "0.02",
        )
        assert code == 0
        values = parse_lines(out)
        assert float(values["r"]) == pytest.approx(1.0, abs=1e-9)
        assert set(values) == {"r", "tau_opt_sep", "tau_opt_ent", "f_sep",
                               "f_ent", "round_sep", "round_ent"}

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "gain", "--model", "nonmarkovian", "--eta", "1",
            "--n", "16", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == pytest.approx(4.0)

    def test_missing_model_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "gain", "--model", "markovian", "--n", "5")
        assert code == 2
        assert "gamma" in err

    @pytest.mark.parametrize("overheads", [
        ("--ttilde-sep", "nan", "--ttilde-ent", "0.1"),
        ("--ttilde-sep", "0.1", "--ttilde-ent", "inf"),
    ])
    def test_non_finite_overhead_exits_2(self, capsys, overheads):
        code, out, err = run(capsys, "gain", "--model", "markovian", "--gamma", "1",
                             "--n", "4", *overheads)
        assert code == 2
        assert out == ""
        assert "finite and non-negative" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "gain", "--model", "markovian", "--gamma", "1",
                         "--n", "5", "--frobnicate")
        assert code == 2


class TestTauOptCommand:
    def test_infeasible_isolated_exits_3(self, capsys):
        code, _, err = run(capsys, "tau-opt", "--model", "isolated",
                           "--tc", "1", "--ttilde", "1.2")
        assert code == 3
        assert "infeasible" in err.lower()

    def test_overrides_per_strategy(self, capsys):
        code, out, _ = run(
            capsys, "tau-opt", "--model", "markovian", "--gamma", "1",
            "--n", "10", "--ttilde-sep", "0.4", "--ttilde-ent", "0.02",
        )
        assert code == 0
        values = parse_lines(out)
        assert float(values["tau_opt_sep"]) > float(values["tau_opt_ent"])
        assert abs(float(values["residual_sep"])) < 1e-10

    def test_shared_overhead_default(self, capsys):
        code, out, _ = run(capsys, "tau-opt", "--model", "nonmarkovian",
                           "--eta", "1")
        assert code == 0
        assert float(parse_lines(out)["tau_opt_sep"]) == pytest.approx(0.5)

    def test_ohmic_bath_whose_exponent_never_reaches_1_exits_4(self, capsys):
        # 1e12 beta is past the largest float: the coherence-time bracket ends at a quarter
        # of it, where Gamma is 2.5e-217, so the search fails (it reached tau = inf, exit 2)
        code, out, err = run(capsys, "tau-opt", "--model", "ohmic",
                             "--alpha", "2.748462307889661e-227",
                             "--omega-c", "1.9559303714252876e-292",
                             "--beta", "1.540951859433905e+298", "--n", "1", "--ttilde", "0.1")
        assert (code, out) == (4, "")
        assert "never reaches 1" in err


class TestQfiCommand:
    def test_closed_forms(self, capsys):
        code, out, _ = run(capsys, "qfi", "--model", "isolated", "--tc", "1",
                           "--n", "6", "--tau", "1")
        assert code == 0
        values = parse_lines(out)
        assert float(values["f_sep"]) == pytest.approx(6.0)
        assert float(values["f_ent"]) == pytest.approx(36.0)


class TestBathCommand:
    def test_ohmic_reports_limit_rates(self, capsys):
        code, out, _ = run(capsys, "bath", "--model", "ohmic", "--alpha", "1",
                           "--omega-c", "2", "--beta", "3.14159265358979",
                           "--tau", "0.5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["limit_gamma"] == pytest.approx(1.0)
        assert payload["limit_eta"] == pytest.approx(2.0)
        assert payload["t_c"] > 0

    def test_markovian_exponent(self, capsys):
        code, out, _ = run(capsys, "bath", "--model", "markovian", "--gamma", "2",
                           "--tau", "0.5")
        assert code == 0
        values = parse_lines(out)
        assert float(values["decay_exponent"]) == pytest.approx(1.0)
        assert float(values["decay_exponent_derivative"]) == pytest.approx(2.0)
        assert float(values["t_c"]) == pytest.approx(0.5)

    def test_ohmic_root_that_misses_gamma_1_exits_4(self, capsys):
        # the coherence-time search once ended where pi tau overflows and printed
        # t_c = 5.72223497151e+307, where Gamma is 6e-188
        code, out, err = run(capsys, "bath", "--model", "ohmic", "--alpha", "1e-200",
                             "--omega-c", "1e-300", "--beta", "3e295", "--tau", "1")
        assert (code, out) == (4, "")
        assert "never reaches 1" in err

    def test_ohmic_exponent_where_2x_overflows(self, capsys):
        # x = pi tau/beta is past half the largest float, so 2x is not finite
        code, out, err = run(capsys, "bath", "--model", "ohmic", "--alpha", "0.1",
                             "--omega-c", "1e-300", "--beta", "1", "--tau", "3e307")
        assert (code, err) == (0, "")
        assert float(parse_lines(out)["decay_exponent"]) == pytest.approx(9.42477796077e306)


class TestThresholdCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "threshold", "--model", "nonmarkovian",
                           "--eta", "1", "--n", "9", "--ttilde-sep", "0.3")
        assert code == 0
        expected = threshold_ent_time(BathModel.nonmarkovian(1.0), 9, 0.3)
        assert float(parse_lines(out)["ttilde_ent_threshold"]) == pytest.approx(
            expected, rel=1e-9
        )

    def test_solver_failure_exits_4(self, capsys, monkeypatch):
        import ghzgain.cli as cli_module

        def explode(model, n, tts):
            raise NoThresholdError("forced", side="above")

        monkeypatch.setattr(cli_module, "threshold_ent_time", explode)
        code, _, err = run(capsys, "threshold", "--model", "markovian",
                           "--gamma", "1", "--n", "4", "--ttilde-sep", "0.1")
        assert code == 4
        assert "solver" in err.lower()


class TestCutoffCommand:
    def test_isolated_linear_scan(self, capsys):
        code, out, _ = run(
            capsys, "cutoff", "--model", "isolated", "--tc", "1",
            "--law", "linear", "--base", "0.03", "--ttilde-sep", "0.03",
            "--n-search-max", "100",
        )
        assert code == 0
        values = parse_lines(out)
        assert values["n_cutoff"] == "27"
        assert values["n_max"] == "11"
        assert float(values["r_at_n_max"]) == pytest.approx(5.248, abs=5e-4)

    def test_no_cutoff_prints_none(self, capsys):
        code, out, _ = run(
            capsys, "cutoff", "--model", "isolated", "--tc", "1",
            "--law", "constant", "--base", "0.03", "--ttilde-sep", "0.03",
            "--n-search-max", "50",
        )
        assert code == 0
        assert parse_lines(out)["n_cutoff"] == "none"


    def test_one_pass_and_one_separable_solve(self, capsys, gain_solves):
        code, out, _ = run(
            capsys, "cutoff", "--model", "isolated", "--tc", "1",
            "--law", "linear", "--base", "0.03", "--ttilde-sep", "0.03",
            "--n-search-max", "100",
        )
        assert code == 0
        assert parse_lines(out)["n_cutoff"] == "27"
        # one scalar solve, the separable optimum; the array passes certify
        # the GHZ optimum of every size that the scan evaluates
        assert gain_solves == [(0.03, 1)]

    OHMIC = ("cutoff", "--model", "ohmic", "--alpha", "0.05", "--omega-c", "20",
             "--beta", "0.5", "--law", "constant", "--base", "0.03")

    @pytest.mark.parametrize("flags", [(), ("--ttilde-sep", "0.0932735311343")],
                             ids=["derived", "equal-to-12-digits"])
    def test_separable_overhead_is_base_times_tc(self, capsys, flags):
        # t_c = 3.109, so base * t_c = 0.0933; N = 1 is the separable probe
        code, out, _ = run(capsys, *self.OHMIC, *flags)
        assert code == 0
        assert parse_lines(out) == {"n_cutoff": "1", "n_max": "1",
                                    "r_at_n_max": "1.00000000000"}

    @pytest.mark.parametrize("value", ["0.03", "0.0932735311342", "nan"])
    def test_inconsistent_separable_overhead_exits_2(self, capsys, value):
        code, out, err = run(capsys, *self.OHMIC, "--ttilde-sep", value)
        assert code == 2
        assert out == ""
        assert f"--ttilde-sep {float(value)!r} is not base * t_c = 0.0932735311343" in err

    @pytest.mark.parametrize(
        "flags, exit_code, message",
        [
            (("--base", "1"), 3, "every scanned ensemble size has infeasible timing"),
            # no law is evaluated once the separable timing is infeasible
            (("--law", "linear", "--base", "1e306"), 3,
             "every scanned ensemble size has infeasible timing"),
            (("--n-search-max", "1"), 2, "n_search_max must be >= 2, got 1"),
            (("--n-search-max", "0"), 2, "must be a positive integer"),
            # a constant-law scan to 1e18 would never end
            (("--n-search-max", str(10**18)), 2,
             "n_search_max must be <= 1000000000, got 1000000000000000000"),
        ],
        ids=["infeasible-separable", "infeasible-separable-overflowing-law", "limit-1",
             "limit-0", "limit-1e18"],
    )
    def test_edge_cases_keep_their_exit_codes(self, capsys, flags, exit_code, message):
        code, out, err = run(capsys, "cutoff", "--model", "isolated", "--tc", "1",
                             "--law", "constant", "--base", "0.03", *flags)
        assert code == exit_code
        assert out == ""
        assert message in err



# Imports the CLI, then runs a first scan on an isolated and on an Ohmic bath, a threshold,
# a gain and a `cutoff` command, and prints the numpy modules that doing so imported.
# numpy imports some submodules on first use (np.unique imported numpy.ma, ~10 ms), which
# a fresh process pays for.
QUERY_IMPORT_PROBE = """
import sys
import ghzgain.cli
from ghzgain import (BathModel, ScalingLaw, coherence_time, gain, n_cutoff_and_max_gain,
                     threshold_ent_time)
before = set(sys.modules)
ohmic, law = BathModel.ohmic(0.05, 20.0, 0.5), ScalingLaw("logarithmic", 0.03)
n_cutoff_and_max_gain(BathModel.isolated(1.0), law, 10**6)
n_cutoff_and_max_gain(ohmic, law, 10**6)
threshold_ent_time(ohmic, 5, 0.2 * coherence_time(ohmic))
gain(ohmic, 10, 0.03, 0.1)
ghzgain.cli.cli_main(["cutoff", "--model", "ohmic", "--alpha", "0.05", "--omega-c", "20",
                      "--beta", "0.5", "--law", "logarithmic", "--base", "0.03"])
print(sorted(m for m in set(sys.modules) - before if m.partition(".")[0] == "numpy"))
"""


def run_probe(code):
    """Stdout of `code` run in a fresh interpreter that imports ghzgain from src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_first_queries_import_no_numpy_module():
    lines = run_probe(QUERY_IMPORT_PROBE).strip().split("\n")
    assert lines[:-1] == ["n_cutoff = 1", "n_max = 1", "r_at_n_max = 1.00000000000"]
    assert lines[-1] == "[]"


class TestNonFiniteResult:
    @pytest.mark.parametrize("argv", [
        # tau^2 overflows while the decay factor underflows
        ("qfi", "--model", "markovian", "--gamma", "1", "--n", "3", "--tau", "1e200"),
        ("qfi", "--model", "markovian", "--gamma", "1", "--n", "3", "--tau", "1e200", "--json"),
    ])
    def test_underflowed_decay_gives_zero_information(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        values = json.loads(out) if "--json" in argv else parse_lines(out)
        assert float(values["f_sep"]) == 0.0
        assert float(values["f_ent"]) == 0.0

    @pytest.mark.parametrize("argv", [
        ("bath", "--model", "markovian", "--gamma", "1e300", "--tau", "1e300"),
        ("bath", "--model", "markovian", "--gamma", "1e300", "--tau", "1e300", "--json"),
        ("qfi", "--model", "isolated", "--tc", "1", "--n", "3", "--tau", "1e200", "--json"),
    ])
    def test_overflowing_result_exits_4(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "must be finite, got inf" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv, message", [
        (("gain", "--model", "isolated", "--tc", "1", "--ttilde-sep", "0.1",
          "--ttilde-ent", "0.1"), "optimal information rate inf is not finite"),
        (("tau-opt", "--model", "markovian", "--gamma", "1", "--ttilde-sep", "0.1",
          "--ttilde-ent", "0.1"), "optimal information rate inf is not finite"),
        (("qfi", "--model", "isolated", "--tc", "1", "--tau", "1"),
         "f_ent must be finite, got inf"),
    ], ids=["gain", "tau-opt", "qfi"])
    def test_count_whose_square_overflows_exits_4(self, capsys, argv, message):
        # n^2 of a 201-digit count is past the largest float
        code, out, err = run(capsys, *argv, "--n", str(10**200))
        assert code == 4
        assert out == ""
        assert message in err


class TestParserCache:
    def test_cached_parser_answers_like_a_fresh_one(self, capsys, monkeypatch):
        calls = [
            ("gain", "--model", "markovian", "--gamma", "1", "--n", "five"),
            ("gain", "--model", "markovian", "--gamma", "1", "--n", "5", "--json"),
            ("--help",),
            ("--help",),
            ("cutoff", "--help"),
        ]
        cached = [run(capsys, *argv) for argv in calls]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        monkeypatch.setattr(cli, "_flag_table", cli._flag_table.__wrapped__)
        fresh = [run(capsys, *argv) for argv in calls]
        assert cached == fresh
        assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0]
        assert "invalid int value: 'five'" in cached[0][2]
        assert cached[2] == cached[3]


MARKOVIAN = ("--model", "markovian", "--gamma", "1")
PARITY_CORPUS = [
    ("--help",),
    (),
    *[(command, "--help") for command in cli._COMMANDS],
    ("nope",),
    ("gain", *MARKOVIAN, "--n", "5", "--bogus", "1"),
    ("--json", "gain", *MARKOVIAN, "--n", "5"),
    ("gain", "--model", "markovian", "--gam", "1", "--n", "5"),
    ("gain", "--model=markovian", "--gamma=1", "--n=5", "--json"),
    ("gain", *MARKOVIAN, "--n", "five"),
    ("gain", *MARKOVIAN, "--n", "5", "--ttilde-sep", "x"),
    ("gain", "--model", "quantum", "--n", "5"),
    ("gain", *MARKOVIAN),
    ("gain", *MARKOVIAN, "--n", "5", "--ttilde-sep", "-1"),
    ("gain", *MARKOVIAN, "--n", "5", "--n", "6"),
    *[("gain", *MARKOVIAN, "--n", count) for count in ("1_0", "1e3", "", " 5")],
    ("gain", *MARKOVIAN, "--n", "5", "--ttilde-sep", "nan"),
    ("bath", *MARKOVIAN, "--tau", "inf"),
    ("gain", *MARKOVIAN, "--n", "5", "--json", "--json"),
    ("gain", *MARKOVIAN, "--n"),
    ("gain", *MARKOVIAN, "--n", "--json"),
    ("gain", "--model", "Markovian", "--gamma", "1", "--n", "5"),
    ("gain", *MARKOVIAN, "--n", "5", "--"),
    ("gain", *MARKOVIAN, "--n", "5", "-h"),
    ("gain", *MARKOVIAN, "--n", "5", "extra"),
    ("gain", *MARKOVIAN, "--tc", "1", "--n", "5"),
    ("sweep", "--config", "no-such-config.json"),
]


@pytest.mark.parametrize("argv", PARITY_CORPUS, ids=" ".join)
def test_command_parser_answers_like_the_full_tree(capsys, monkeypatch, argv):
    # a plain line is read from the flag table; the full tree's parse_args is the reference
    direct = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    assert direct == run(capsys, *argv)


PARSER_COUNT_PROBE = """
import argparse, contextlib, io, sys
counts, init = [], argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    counts.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from ghzgain.cli import cli_main
built = []
for argv in (["gain", "--model", "markovian", "--gamma", "1", "--n", "5"],
             ["gain", "--model", "markovian", "--gamma", "1", "--n", "6"], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(argv)
    built.append((len(counts), "locale" in sys.modules))
print(built)
"""


def test_a_plain_query_builds_no_parser():
    # the full tree, a top-level parser and one subparser per command, is built for help;
    # the first parser built imports locale (gettext's first message lookup)
    assert run_probe(PARSER_COUNT_PROBE).strip() == str(
        [(0, False), (0, False), (1 + len(cli._COMMANDS), True)])


class TestOverflowingCoherenceTime:
    # 1/gamma is past the largest float, so t_c is not finite: the commands that scale by
    # it exit 4, and do not blame an overhead of inf that no argument gave
    @pytest.mark.parametrize("command", ["cutoff", "sweep", "bath"])
    def test_exits_4(self, capsys, tmp_path, command):
        model = ("--model", "markovian", "--gamma", "5e-324")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "model": {"kind": "markovian", "gamma": 5e-324},
            "axes": {"x_ent": {"min": 0.01, "max": 0.1, "points": 3}},
            "fixed": {"x_sep": 0.1, "n": 4},
            "output": {"format": "csv", "path": str(tmp_path / "grid.csv")}}))
        argv = {"cutoff": ("cutoff", *model, "--law", "constant", "--base", "0.1"),
                "sweep": ("sweep", "--config", str(config_path)),
                "bath": ("bath", *model, "--tau", "1")}[command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert "solver failure: Markovian t_c = 1/gamma must be finite and positive, got inf" in err
        assert not (tmp_path / "grid.csv").exists()


class TestUnderflow:
    def test_underflowing_optimum_exits_4(self, capsys):
        code, out, err = run(capsys, "gain", "--model", "markovian", "--gamma", "1e300",
                             "--n", "4", "--ttilde-sep", "0.1", "--ttilde-ent", "0.1")
        assert code == 4
        assert out == ""
        assert "error: solver failure" in err
        assert "Traceback" not in err


# Valid flags for each bath kind and each subcommand, and the float flags
# of each subcommand.  tau-opt sets no override, so its shared --ttilde is
# the value both strategies read.
MODEL_FLAGS = {
    "isolated": {"--tc": "1"},
    "markovian": {"--gamma": "1"},
    "nonmarkovian": {"--eta": "1"},
    "ohmic": {"--alpha": "0.05", "--omega-c": "20", "--beta": "0.5"},
}
COMMAND_FLAGS = {
    "bath": ({"--tau": "0.3"}, ("--tau",)),
    "qfi": ({"--n": "3", "--tau": "0.3"}, ("--tau",)),
    "tau-opt": ({"--n": "3"}, ("--ttilde", "--ttilde-sep", "--ttilde-ent")),
    "gain": ({"--n": "3", "--ttilde-sep": "0.1", "--ttilde-ent": "0.1"},
             ("--ttilde-sep", "--ttilde-ent")),
    "threshold": ({"--n": "3", "--ttilde-sep": "0.1"}, ("--ttilde-sep",)),
    "cutoff": ({"--law": "constant", "--base": "0.03", "--n-search-max": "10"},
               ("--base", "--ttilde-sep")),
}
BAD_VALUES = ("nan", "inf", "-inf", "-1")
# particle-count flags, and a count that parses but does not fit in a float
COUNT_FLAGS = {"qfi": "--n", "tau-opt": "--n", "gain": "--n", "threshold": "--n",
               "cutoff": "--n-search-max"}
HUGE_COUNT = "1" + "0" * 400


def bad_float_cases():
    for command, (_, float_flags) in COMMAND_FLAGS.items():
        for kind, model_flags in MODEL_FLAGS.items():
            for flag in (*model_flags, *float_flags):
                for value in BAD_VALUES:
                    yield pytest.param(command, kind, flag, value,
                                       id=f"{command}-{kind}{flag}={value}")
            if command in COUNT_FLAGS:
                yield pytest.param(command, kind, COUNT_FLAGS[command], HUGE_COUNT,
                                   id=f"{command}-{kind}{COUNT_FLAGS[command]}=1e400")


@pytest.mark.parametrize("command,kind,flag,value", list(bad_float_cases()))
def test_bad_float_flag_exits_2(capsys, command, kind, flag, value):
    flags = {**MODEL_FLAGS[kind], **COMMAND_FLAGS[command][0], flag: value}
    # "--flag=value" so that argparse reads "-inf" and "-1" as values
    code, out, err = run(capsys, command, "--model", kind,
                         *(f"{name}={v}" for name, v in flags.items()))
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


class TestSweepCommand:
    def write_config(self, tmp_path, out_path, fmt="csv"):
        config = {
            "model": {"kind": "markovian", "gamma": 1.0},
            "axes": {
                "x_ent": {"min": 0.01, "max": 0.1, "points": 3},
                "n": {"min": 1, "max": 100, "points": 3, "spacing": "log"},
            },
            "fixed": {"x_sep": 0.03},
            "output": {"format": fmt, "path": str(out_path)},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_writes_csv_with_grid_size_rows(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        config_path = self.write_config(tmp_path, out_path)
        code, out, _ = run(capsys, "sweep", "--config", str(config_path))
        assert code == 0
        assert parse_lines(out)["rows"] == "9"
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 10  # header + 9 rows

    def test_infinite_coherence_time_exits_4_with_warnings_as_errors(self, tmp_path):
        # t_c = 1/gamma overflows, which raises before x_sep = 0 could give the overhead
        # 0 * inf = NaN; as in CI, a numpy RuntimeWarning would end the command in a traceback
        config_path = self.write_config(tmp_path, tmp_path / "grid.csv")
        config = json.loads(config_path.read_text())
        config["model"]["gamma"], config["fixed"]["x_sep"] = 5.6e-317, 0.0
        config_path.write_text(json.dumps(config))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "ghzgain", "sweep", "--config",
                               str(config_path)], capture_output=True, text=True, env=env)
        assert proc.returncode == 4 and "Traceback" not in proc.stderr
        assert "Markovian t_c = 1/gamma must be finite and positive, got inf" in proc.stderr

    def test_non_finite_config_value_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        config_path = self.write_config(tmp_path, out_path)
        config = json.loads(config_path.read_text())
        config["fixed"]["x_sep"] = math.nan
        config_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(config_path))
        assert code == 2
        assert "fixed.x_sep" in err
        assert not out_path.exists()

    def test_count_whose_square_overflows_exits_4(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        config_path = self.write_config(tmp_path, out_path)
        config = json.loads(config_path.read_text())
        del config["axes"]["n"]
        config["fixed"]["n"] = 1e200
        config_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(config_path))
        assert code == 4
        assert "optimal information rate inf is not finite" in err
        assert not out_path.exists()

    def test_tiny_markovian_keys_exit_0(self, capsys, tmp_path):
        # gamma = 1e160: each overhead and each 1/(2 n gamma) is below 2^-500, where the
        # unscaled Markov root went negative and math.exp of its exponent overflowed
        out_path = tmp_path / "grid.csv"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "model": {"kind": "markovian", "gamma": 1e160},
            "axes": {"n": {"min": 1e5, "max": 2e5, "points": 2}},
            "fixed": {"x_sep": 0.1, "x_ent": 0.01},
            "output": {"format": "csv", "path": str(out_path)}}))
        code, out, err = run(capsys, "sweep", "--config", str(config_path))
        assert (code, err) == (0, "")
        assert parse_lines(out)["rows"] == "2"
        assert len(out_path.read_text().strip().split("\n")) == 3  # header + 2 rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("config, message", [
        # a separable overhead of 1e307 t_c: r = rate_ent / rate_sep overflows
        ({"model": {"kind": "nonmarkovian", "eta": 1},
          "axes": {"x_sep": {"min": 1e306, "max": 1e307, "points": 2}},
          "fixed": {"n": 10000, "x_ent": 0}}, "r must be finite, got inf"),
        # n tau^2 = 1e5 (1e152)^2: f_sep overflows, and r would print as 0
        ({"model": {"kind": "isolated", "t_c": 1e152},
          "axes": {"x_ent": {"min": 0.9999999999, "max": 0.99999999999, "points": 2}},
          "fixed": {"n": 10**5, "x_sep": 0}}, "f_sep must be finite, got inf"),
    ], ids=["r", "f_sep"])
    def test_non_finite_value_exits_4_before_writing(self, capsys, tmp_path, fmt, config,
                                                      message):
        out_path = tmp_path / f"grid.{fmt}"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {**config, "output": {"format": fmt, "path": str(out_path)}}))
        code, out, err = run(capsys, "sweep", "--config", str(config_path))
        assert code == 4
        assert out == ""
        assert message in err and "Traceback" not in err
        assert not out_path.exists()

    def test_null_device_output_exits_0(self, capsys, tmp_path):
        config_path = self.write_config(tmp_path, os.devnull)
        code, out, _ = run(capsys, "sweep", "--config", str(config_path))
        assert code == 0
        assert os.devnull in out

    def test_huge_point_count_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        config_path = self.write_config(tmp_path, out_path)
        config = json.loads(config_path.read_text())
        config["axes"]["x_ent"]["points"] = 10**400
        config_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(config_path))
        assert code == 2
        assert "points must be in 2.." in err

    def test_grid_over_the_row_cap_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        config_path = self.write_config(tmp_path, out_path)
        config = json.loads(config_path.read_text())
        for axis in config["axes"].values():
            axis["points"] = 10**6  # each axis allowed, 10^12 rows together
        config_path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(config_path))
        assert code == 2
        assert "at most 10000000 rows" in err
        assert not out_path.exists()

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"kind": "markovian", "gamma": 1}}')
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert "axes" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "no" / "such" / "dir" / "grid.csv"
        config_path = self.write_config(tmp_path, out_path)
        code, _, err = run(capsys, "sweep", "--config", str(config_path))
        assert code == 2


def readme_commands():
    """Argument lists of the ghzgain lines in the README's "Command line" code
    block, but sweep's, whose config file the README does not ship."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        block = f.read().split("\n## Command line\n", 1)[1].split("```")[1]
    argvs = [line.split()[1:] for line in block.splitlines() if line.startswith("ghzgain ")]
    return [argv for argv in argvs if argv[0] != "sweep"]


def test_readme_shows_every_model_command():
    assert sorted(argv[0] for argv in readme_commands()) == [
        "bath", "cutoff", "gain", "qfi", "tau-opt", "threshold"]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_lines_run(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


# cli_main on generated argument lists: every subcommand and bath kind.  Each
# number is mostly a moderate value, so that most calls get past validation, and
# otherwise any float (NaN, infinities, subnormals and huge values) or any count
# up to 400 digits.  Scan limits stay small or exceed the 10^9 cap, so that no
# cutoff scan runs long.
def mostly(moderate, anything):
    return st.one_of(moderate, moderate, moderate, anything)


def ranged(lo, hi):
    return mostly(st.floats(lo, hi), st.floats())


COUNT = mostly(st.integers(1, 10**4), st.integers(-3, 10**400))
# each kind's config fields and their flags
MODEL_FIELDS = {"isolated": {"t_c": "--tc"}, "markovian": {"gamma": "--gamma"},
                "nonmarkovian": {"eta": "--eta"},
                "ohmic": {"alpha": "--alpha", "omega_c": "--omega-c", "beta": "--beta"}}
COMMAND_ARGS = {
    "bath": {"--tau": ranged(0.0, 10.0)},
    "qfi": {"--n": COUNT, "--tau": ranged(0.0, 10.0)},
    "tau-opt": {"--n": COUNT, "--ttilde": ranged(0.0, 2.0), "--ttilde-sep": ranged(0.0, 2.0),
                "--ttilde-ent": ranged(0.0, 2.0)},
    "gain": {"--n": COUNT, "--ttilde-sep": ranged(0.0, 2.0), "--ttilde-ent": ranged(0.0, 2.0)},
    "threshold": {"--n": COUNT, "--ttilde-sep": ranged(0.0, 1.0)},
    "cutoff": {"--law": st.sampled_from(["constant", "logarithmic", "square-root", "linear"]),
               "--base": ranged(0.0, 0.5),
               "--n-search-max": mostly(st.integers(1, 200), st.one_of(
                   st.integers(-3, 0), st.integers(10**9 + 1, 10**400)))},
}
# flags given in every call: the required ones, and the scan limit (its default is 10^6)
REQUIRED = {"--n", "--tau", "--law", "--base", "--n-search-max"}
MODEL_VALUE = ranged(0.01, 100.0)


def separable_overhead(kind, fields, base):
    """base * t_c as cutoff computes it, or None where the model is invalid."""
    try:
        return base * coherence_time(BathModel.from_dict({"kind": kind, **fields}))
    except GhzGainError:
        return None


@st.composite
def cli_argv(draw, command, kind):
    fields = {field: draw(MODEL_VALUE) for field in MODEL_FIELDS[kind]}
    flags = {MODEL_FIELDS[kind][field]: value for field, value in fields.items()}
    for flag, values in COMMAND_ARGS[command].items():
        if flag in REQUIRED or command == "cutoff" or draw(st.booleans()):
            flags[flag] = draw(values)
    # cutoff's --ttilde-sep is absent or base * t_c, so that the query reaches the scan
    if command == "cutoff" and draw(st.booleans()):
        flags["--ttilde-sep"] = separable_overhead(kind, fields, flags["--base"])
    argv = [command, "--model", kind]
    for flag, value in flags.items():  # "--flag value" is read by the flag table
        if value is not None:
            argv += draw(st.sampled_from([[flag, str(value)], [f"{flag}={value}"]]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def sweep_config(draw, kind):
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=2, unique=True))
    axes = {name: {"min": draw(ranged(float(name == "n"), 2.0)), "max": draw(ranged(2.0, 1e4)),
                   "points": draw(mostly(st.integers(2, 4), st.integers(-1, 10**400))),
                   "spacing": draw(st.sampled_from(["linear", "log"]))} for name in names}
    fixed = {name: draw(COUNT if name == "n" else ranged(0.0, 2.0)) for name in AXIS_NAMES
             if name not in names}
    model = {field: draw(MODEL_VALUE) for field in MODEL_FIELDS[kind]}
    return {"model": {"kind": kind, **model}, "axes": axes, "fixed": fixed,
            "output": {"format": draw(st.sampled_from(["csv", "json"])), "path": ""}}


def assert_numbers_finite(text):
    """Every number printed as key = value, in JSON or in a sweep file is finite."""
    text = text.strip()
    if not text:
        return
    if text[0] in "[{":
        json.loads(text, parse_constant=lambda name: pytest.fail(f"printed {name}"))
        return
    for line in text.split("\n"):
        for cell in line.partition(" = ")[2].split(",") if " = " in line else line.split(","):
            try:
                number = float(cell)
            except ValueError:
                continue
            assert math.isfinite(number), line


def assert_clean_exit(code, out, err):
    event(f"exit {code}")  # the share of each, with --hypothesis-show-statistics
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in out + err
    assert (out == "") == (code != 0)
    assert_numbers_finite(out)


FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@FUZZ
@given(data=st.data())
def test_generated_queries_exit_cleanly(capsys, command, data):
    kind = data.draw(st.sampled_from(sorted(MODEL_FIELDS)))
    assert_clean_exit(*run(capsys, *data.draw(cli_argv(command, kind))))


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@FUZZ
@given(data=st.data())
def test_plain_parse_equals_the_full_tree(command, data):
    argv = data.draw(cli_argv(command, data.draw(st.sampled_from(sorted(MODEL_FIELDS)))))
    plain = cli._parse_plain(argv)
    event("flag table" if plain is not None else "full tree")
    if plain is not None:
        full = cli._build_parser().parse_args(argv)
        del full.command
        assert plain == full


@FUZZ
@given(data=st.data())
def test_generated_sweeps_exit_cleanly(capsys, tmp_path, data):
    config = data.draw(sweep_config(data.draw(st.sampled_from(sorted(MODEL_FIELDS)))))
    out_path, config_path = tmp_path / f"out.{config['output']['format']}", tmp_path / "config"
    for path in (out_path, config_path):  # truncating a file just written waits for a flush
        path.unlink(missing_ok=True)
    config["output"]["path"] = str(out_path)
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "sweep", "--config", str(config_path))
    assert_clean_exit(code, out, err)
    if code == 0:
        assert_numbers_finite(out_path.read_text())
