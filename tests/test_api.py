"""The package namespace, and the contract of every public solver: a finite,
checked result or a GhzGainError, never a raw exception."""

import ast
import dataclasses
import enum
import importlib
import inspect
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghzgain
from ghzgain import (
    BathModel,
    DomainError,
    GhzGainError,
    OptimalTime,
    errors,
    optimal_sensing_time,
    precision_opt,
    tau_opt_isolated,
    tau_opt_markov,
    tau_opt_nonmarkov,
    tau_opt_numeric,
)

# by import_module: the package attribute gain is the function, not the module
MODULES = [importlib.import_module(f"ghzgain.{name}")
           for name in ("bath", "errors", "gain", "opttime", "qfi", "sweep")]

# the names the package listed one by one before it re-exported each module's __all__
LISTED_NAMES = (
    "BathKind", "BathModel", "coherence_time", "decay_exponent", "decay_exponent_derivative",
    "ohmic_limit_rates", "CapacityError", "DivergenceError", "DomainError", "GhzGainError",
    "InfeasibleTimingError", "NoThresholdError", "SolverError", "UnsupportedModelError",
    "ValidationError", "GainResult", "MonotonicityViolation", "ScalingKind", "ScalingLaw", "gain",
    "gain_isolated", "monotonicity_scan", "n_cutoff", "n_cutoff_and_max_gain", "n_max_gain",
    "precision_opt", "scaling_law_eval", "threshold_ent_time", "OptimalTime",
    "optimal_sensing_time", "stationarity_residual", "tau_opt_isolated", "tau_opt_markov",
    "tau_opt_nonmarkov", "tau_opt_numeric", "MAX_QUBITS", "EvolutionParams", "ProbeKind",
    "ProbeSpec", "apply_dephasing", "build_probe_state", "evolve_phase", "qfi_eigen", "qfi_ghz",
    "qfi_separable", "rho_derivative", "validate_density_matrix", "AxisSpec", "SweepConfig",
    "SweepRow", "SweepTable", "config_from_dict", "load_config", "run_sweep", "save_rows",
)


class TestNamespace:
    def test_package_exports_each_module_all(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(ghzgain, name) is getattr(module, name), (module.__name__, name)

    def test_no_two_modules_export_one_name(self):
        # a star-import collision would shadow the earlier module's name silently
        names = [name for module in MODULES for name in module.__all__]
        assert len(names) == len(set(names))

    def test_earlier_names_are_kept(self):
        assert len(LISTED_NAMES) == 55
        assert set(LISTED_NAMES) <= set(dir(ghzgain))

    def test_errors_exports_every_exception_class(self):
        classes = {name for name, value in vars(errors).items()
                   if isinstance(value, type) and issubclass(value, GhzGainError)}
        assert set(errors.__all__) == classes and len(classes) == 9


POSITIVE = st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, exclude_max=True)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=math.inf, exclude_max=True)
MODELS = st.one_of(
    st.builds(BathModel.isolated, POSITIVE),
    st.builds(BathModel.markovian, POSITIVE),
    st.builds(BathModel.nonmarkovian, POSITIVE),
    st.builds(BathModel.ohmic, POSITIVE, POSITIVE, POSITIVE),
)
CLOSED_FORMS = {"isolated": (tau_opt_isolated, "t_c"), "markovian": (tau_opt_markov, "gamma"),
                "nonmarkovian": (tau_opt_nonmarkov, "eta")}


def assert_checked(call):
    """call() returns a finite result, an optimum with a rate in (0, inf) and a
    decay in (0, 1], or raises a GhzGainError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # precision_opt's few-rounds warning
            result = call()
    except GhzGainError:
        return
    if isinstance(result, OptimalTime):
        assert 0.0 < result.tau_opt < math.inf, result
        assert 0.0 < result.objective < math.inf, result
        assert math.isfinite(result.residual), result
        assert 0.0 < result.decay <= 1.0, result
    else:
        assert 0.0 < result < math.inf, result


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(model=MODELS, tau_tilde=NON_NEGATIVE, n=st.integers(1, 10**9),
       kind=st.sampled_from(["ghz", "separable"]), total_time=POSITIVE)
# tau ~ 1e160: its square overflows the rate, and Brent's inverse quadratic
# step once divided by a denominator that underflowed to 0
@example(model=BathModel.markovian(1e-160), tau_tilde=5e159, n=1, kind="ghz", total_time=1.0)
@example(model=BathModel.markovian(2.729239323083489e-166), tau_tilde=21.19621653749579, n=1,
         kind="ghz", total_time=1.0)
# the information over the budget underflows to 0 in precision_opt
@example(model=BathModel.ohmic(0.4912340637932445, 0.0013205417131547522, 0.3654690205146478),
         n=10**15, kind="ghz", tau_tilde=1.7e308, total_time=1.324059760658427e-49)
def test_public_solvers_return_checked_results_or_raise(model, tau_tilde, n, kind, total_time):
    if model.kind.value in CLOSED_FORMS:
        solver, field = CLOSED_FORMS[model.kind.value]
        assert_checked(lambda: solver(getattr(model, field), tau_tilde, n))
    assert_checked(lambda: tau_opt_numeric(model, tau_tilde, n))
    assert_checked(lambda: optimal_sensing_time(model, tau_tilde, n))
    assert_checked(lambda: precision_opt(model, n, kind, tau_tilde, total_time))


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_input_checks_take_narrow_numpy_floats_without_a_warning(dtype):
    # numpy compares a float32 with a plain Python float in float32, where the
    # largest double overflows to inf with a RuntimeWarning
    checks = (errors.check_finite, errors.check_finite_nonnegative, errors.check_finite_positive)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in checks:
            check(dtype(0.5), "value")
            check(dtype(np.finfo(dtype).max), "value")
            for bad in (dtype("inf"), dtype("nan"), 10**400, 2**1024):
                with pytest.raises(DomainError, match="must be finite"):
                    check(bad, "value")
        errors.check_finite(dtype(-0.5), "value")
        with pytest.raises(DomainError, match="must be finite"):
            errors.check_finite(-10**400, "value")
        assert BathModel.ohmic(dtype(0.05), dtype(20.0), dtype(0.5)).alpha == float(dtype(0.05))


NONMARKOVIAN = BathModel.nonmarkovian(1.0)


def gains_assembled(call):
    """The r of every gain that call assembles, as a tuple."""
    gain_module, gains = importlib.import_module("ghzgain.gain"), []
    assemble = gain_module._gain_from_optima

    def recording(*args):
        gains.append(assemble(*args))
        return gains[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gain_module, "_gain_from_optima", recording)
        call()
    return tuple(result.r for result in gains)

# each public call at two overheads (or an overhead and a rate) a and b
NARROW_CALLS = {
    "gain": lambda a, b: ghzgain.gain(NONMARKOVIAN, 10, a, b),
    "gain-ohmic": lambda a, b: ghzgain.gain(BathModel.ohmic(0.05, 20.0, 0.5), 10, a, b),
    "gain_isolated": lambda a, b: ghzgain.gain_isolated(10, a, b),
    **{f"threshold_ent_time-{kind}": (lambda model: lambda a, b: ghzgain.threshold_ent_time(
        model, 10, a))(model) for kind, model in (
            ("isolated", BathModel.isolated(1.0)), ("markovian", BathModel.markovian(1.0)),
            ("nonmarkovian", NONMARKOVIAN))},
    "precision_opt": lambda a, b: precision_opt(NONMARKOVIAN, 10, "ghz", a, b),
    **{f"optimal_sensing_time-{model.kind.value}": (lambda model: lambda a, b: (
        optimal_sensing_time(model, a, 3)))(model) for model in (
            BathModel.isolated(1.0), BathModel.markovian(1.0), NONMARKOVIAN,
            BathModel.ohmic(0.05, 20.0, 0.5))},
    "tau_opt_isolated": lambda a, b: tau_opt_isolated(b, a, 3),
    "tau_opt_markov": lambda a, b: tau_opt_markov(b, a, 3),
    "tau_opt_nonmarkov": lambda a, b: tau_opt_nonmarkov(b, a, 3),
    "scaling_law_eval": lambda a, b: ghzgain.scaling_law_eval(ghzgain.ScalingLaw("linear", a), 7),
    "monotonicity_scan": lambda a, b: gains_assembled(
        lambda: ghzgain.monotonicity_scan(NONMARKOVIAN, 10, a, [0.1, 0.2])),
    "n_cutoff_and_max_gain": lambda a, b: ghzgain.n_cutoff_and_max_gain(
        NONMARKOVIAN, ghzgain.ScalingLaw("square-root", a), 300),
}


@pytest.mark.filterwarnings("ignore:fewer than 10 rounds")
@pytest.mark.parametrize("call", NARROW_CALLS.values(), ids=list(NARROW_CALLS))
def test_float32_inputs_give_the_doubles_answers_bit_for_bit(call):
    a, b = np.float32(0.1), np.float32(0.2)
    narrow, double = call(a, b), call(float(a), float(b))
    if dataclasses.is_dataclass(narrow):
        narrow, double = dataclasses.astuple(narrow), dataclasses.astuple(double)
    elif not isinstance(narrow, tuple):
        narrow, double = (narrow,), (double,)
    assert all(type(value) in (float, int) for value in narrow)
    assert narrow == double


def test_readme_python_api_block_runs():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        block = f.read().split("\n## Python API\n", 1)[1].split("```python\n", 1)[1]
    namespace, values = {}, []
    for statement in ast.parse(block.split("```", 1)[0]).body:
        if isinstance(statement, ast.Expr):  # a bare expression: keep its value
            values.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    r, threshold = values
    assert r == 4.0
    assert math.isfinite(threshold) and threshold > 0.0


MARKOVIAN, OHMIC = BathModel.markovian(1.0), BathModel.ohmic(0.05, 20.0, 0.5)
GHZ_RHO = ghzgain.build_probe_state(ghzgain.ProbeSpec(2, "ghz"))


def config_from_fields(kind, gamma, minimum, maximum, points, spacing, n, x_sep, output_format):
    return ghzgain.config_from_dict({
        "model": {"kind": kind, "gamma": gamma},
        "axes": {"x_ent": {"min": minimum, "max": maximum, "points": points, "spacing": spacing}},
        "fixed": {"n": n, "x_sep": x_sep},
        "output": {"format": output_format, "path": "out.csv"}})


def sweep_config(output_format, **fixed):
    return ghzgain.SweepConfig(MARKOVIAN, (ghzgain.AxisSpec("x_ent", 0.0, 1.0, 5),), fixed,
                               output_format, "out.csv")


# (id, call, {argument: (rule, a valid value)}, the error its docstring names); call takes
# the arguments by keyword, and the valid numbers are whole, so that an int can stand for them
INPUTS = [
    *[(f"BathModel-{kind}", BathModel, {"kind": ("kind", kind), **fields}, errors.ValidationError)
      for kind, fields in (
          ("isolated", {"t_c": ("number", 2)}), ("markovian", {"gamma": ("number", 2)}),
          ("nonmarkovian", {"eta": ("number", 2)}),
          ("ohmic", {"alpha": ("number", 1), "omega_c": ("number", 20), "beta": ("number", 1)}))],
    ("BathModel.from_dict", lambda **data: BathModel.from_dict(data),
     {"kind": ("kind", "markovian"), "gamma": ("number", 2)}, errors.ValidationError),
    ("decay_exponent", lambda tau: ghzgain.decay_exponent(OHMIC, tau), {"tau": ("number", 2)},
     DomainError),
    ("decay_exponent_derivative", lambda tau: ghzgain.decay_exponent_derivative(OHMIC, tau),
     {"tau": ("number", 2)}, DomainError),
    ("ohmic_limit_rates", ghzgain.ohmic_limit_rates,
     {"alpha": ("number", 1), "beta": ("number", 2), "omega_c": ("number", 3)}, DomainError),
    ("ScalingLaw", ghzgain.ScalingLaw, {"kind": ("kind", "linear"), "base": ("number", 0)},
     DomainError),
    ("gain", lambda **args: ghzgain.gain(MARKOVIAN, **args),
     {"n": ("count", 5), "tau_tilde_sep": ("number", 0), "tau_tilde_ent": ("number", 1)},
     DomainError),
    ("gain_isolated", ghzgain.gain_isolated,
     {"n": ("count", 5), "x_sep": ("number", 0), "x_ent": ("number", 0)}, DomainError),
    ("threshold_ent_time", lambda **args: ghzgain.threshold_ent_time(NONMARKOVIAN, **args),
     {"n": ("count", 5), "tau_tilde_sep": ("number", 0)}, DomainError),
    ("precision_opt", lambda **args: precision_opt(MARKOVIAN, **args),
     {"n": ("count", 5), "kind": ("kind", "ghz"), "tau_tilde": ("number", 1),
      "total_time": ("number", 100)}, DomainError),
    ("scaling_law_eval", lambda n: ghzgain.scaling_law_eval(ghzgain.ScalingLaw("linear", 0.5), n),
     {"n": ("count", 7)}, DomainError),
    *[(name, (lambda scan: lambda n_search_max: scan(
        MARKOVIAN, ghzgain.ScalingLaw("linear", 0.01), n_search_max))(getattr(ghzgain, name)),
       {"n_search_max": ("count", 100)}, DomainError)
      for name in ("n_cutoff", "n_max_gain", "n_cutoff_and_max_gain")],
    ("monotonicity_scan", lambda n, tau_tilde_sep, x_ent_grid: ghzgain.monotonicity_scan(
        MARKOVIAN, n, tau_tilde_sep, [x_ent_grid, 2.0]),
     {"n": ("count", 5), "tau_tilde_sep": ("number", 0), "x_ent_grid": ("number", 1)},
     DomainError),
    ("stationarity_residual", lambda **args: ghzgain.stationarity_residual(OHMIC, **args),
     {"tau_tilde": ("number", 1), "n_eff": ("count", 3), "tau": ("number", 1)}, DomainError),
    *[(solver.__name__, solver, {field: ("number", 4), "tau_tilde": ("number", 1),
                                 "n_eff": ("count", 3)}, DomainError)
      for solver, field in ((tau_opt_isolated, "t_c"), (tau_opt_markov, "gamma"),
                            (tau_opt_nonmarkov, "eta"))],
    *[(solver.__name__, (lambda solver: lambda **args: solver(OHMIC, **args))(solver),
       {"tau_tilde": ("number", 1), "n_eff": ("count", 3)}, DomainError)
      for solver in (tau_opt_numeric, optimal_sensing_time)],
    ("ProbeSpec", ghzgain.ProbeSpec, {"n": ("count", 3), "kind": ("kind", "ghz")}, DomainError),
    ("EvolutionParams", ghzgain.EvolutionParams, {"omega": ("number", 1), "tau": ("number", 2)},
     DomainError),
    ("apply_dephasing", lambda gamma_value: ghzgain.apply_dephasing(GHZ_RHO, gamma_value),
     {"gamma_value": ("number", 1)}, DomainError),
    ("rho_derivative", lambda tau: ghzgain.rho_derivative(GHZ_RHO, tau), {"tau": ("number", 1)},
     DomainError),
    *[(name, (lambda qfi: lambda n, tau: qfi(n, tau, MARKOVIAN))(getattr(ghzgain, name)),
       {"n": ("count", 3), "tau": ("number", 1)}, DomainError)
      for name in ("qfi_separable", "qfi_ghz")],
    ("AxisSpec", ghzgain.AxisSpec,
     {"name": ("kind", "x_ent"), "minimum": ("number", 0), "maximum": ("number", 1),
      "points": ("count", 5), "spacing": ("kind", "linear")}, errors.ValidationError),
    # a fixed n is a number first, and then a count
    ("SweepConfig", sweep_config, {"output_format": ("kind", "csv"), "n": ("number", 10),
                                   "x_sep": ("number", 0)}, errors.ValidationError),
    ("config_from_dict", config_from_fields,
     {"kind": ("kind", "markovian"), "gamma": ("number", 2), "minimum": ("number", 1),
      "maximum": ("number", 2), "points": ("count", 5), "spacing": ("kind", "log"),
      "n": ("number", 10), "x_sep": ("number", 0), "output_format": ("kind", "json")},
     errors.ValidationError),
]
NOT_INPUTS = ("x", None, [1.0], object(), True, np.True_)
# what each rule's error says: a fixed n, a number first, fails the number rule
RULE_MESSAGES = {"number": "must be a number", "count": "must be a positive integer",
                 "kind": r"unknown .* \(expected one of: "}
# per rule, the types that must give the answer of the equal float (a count: of the int)
EQUAL_TYPES = {"number": (float, (np.float64, np.float32, np.int64, int)),
               "count": (int, (np.int64, np.int32))}
BATH_FIELDS = ("t_c", "gamma", "eta", "alpha", "omega_c", "beta")
CASES = [(name, call, args, argument, error) for name, call, args, error in INPUTS
         for argument in args]


def canonical(result):
    """result's repr, so that an np.float64 or a float32 field differs from a float, or an
    array's dtype, shape and bytes."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return repr(result)


@pytest.mark.parametrize("name, call, args, argument, error", CASES,
                         ids=[f"{case[0]}-{case[3]}" for case in CASES])
def test_every_public_input_passes_its_rule(name, call, args, argument, error):
    rule, value = args[argument]
    valid = {key: value for key, (_, value) in args.items()}
    for bad in NOT_INPUTS + (("lindblad",) if rule == "kind" else ()):
        message = RULE_MESSAGES[rule]
        if bad is None and error is errors.ValidationError and argument in BATH_FIELDS:
            message = "requires field"  # None leaves a model field unset
        with pytest.raises(error, match=message):
            call(**{**valid, argument: bad})
    if rule in EQUAL_TYPES:
        plain, types = EQUAL_TYPES[rule]
        expected = canonical(call(**{**valid, argument: plain(value)}))
        for equal in types:
            assert canonical(call(**{**valid, argument: equal(value)})) == expected, equal


def test_every_public_input_has_a_case():
    # result types are outputs; str fields that name a kind are inputs too
    results = {"GainResult", "OptimalTime", "MonotonicityViolation", "SweepRow", "SweepTable"}
    input_types = {"int", "float", "float | None", "Sequence[float]", "BathKind", "ScalingKind",
                   "ProbeKind"}
    covered = {(name.split("-")[0], argument) for name, *_, argument, _ in CASES}
    for name in set(LISTED_NAMES) - results:
        value = getattr(ghzgain, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, Exception):
            continue
        if isinstance(value, type) and issubclass(value, enum.Enum):
            continue
        for parameter in inspect.signature(value).parameters.values():
            if parameter.annotation in input_types or (name, parameter.name) in {
                    ("AxisSpec", "name"), ("AxisSpec", "spacing"), ("SweepConfig", "output_format")}:
                assert (name, parameter.name) in covered


@pytest.mark.parametrize("call, error, message", [
    (lambda: ghzgain.monotonicity_scan(MARKOVIAN, 5, 0.1, None), DomainError,
     "x_ent grid must be a sequence, got NoneType"),
    (lambda: ghzgain.monotonicity_scan(MARKOVIAN, 5, 0.1, 5), DomainError,
     "x_ent grid must be a sequence, got int"),
    (lambda: ghzgain.SweepConfig(MARKOVIAN, (ghzgain.AxisSpec("x_ent", 0.0, 1.0, 5),), None,
                                 "csv", "x"), errors.ValidationError,
     "fixed must be an object, got NoneType"),
    (lambda: ghzgain.SweepConfig(MARKOVIAN, None, {}, "csv", "x"), errors.ValidationError,
     "axes must be a sequence, got NoneType"),
    (lambda: ghzgain.SweepConfig(MARKOVIAN, ("x_ent",), {"x_sep": 0.1, "n": 5}, "csv", "x"),
     errors.ValidationError, "axes must hold AxisSpec items, got str"),
], ids=["grid-none", "grid-int", "fixed-none", "axes-none", "axes-of-str"])
def test_container_arguments_raise_their_documented_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
