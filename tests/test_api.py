"""The package namespace, and the contract of every public solver: a finite,
checked result or a GhzGainError, never a raw exception."""

import dataclasses
import importlib
import math
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
