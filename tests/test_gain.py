import importlib
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgain import (
    BathModel,
    DomainError,
    InfeasibleTimingError,
    NoThresholdError,
    ProbeKind,
    ProbeSpec,
    ScalingKind,
    ScalingLaw,
    SolverError,
    coherence_time,
    gain,
    gain_isolated,
    monotonicity_scan,
    n_cutoff,
    n_cutoff_and_max_gain,
    n_max_gain,
    optimal_sensing_time,
    precision_opt,
    qfi_ghz,
    scaling_law_eval,
    stationarity_residual,
    tau_opt_markov,
    threshold_ent_time,
)


def log_grid(lo, hi, points):
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(points)]


def mp_threshold(model, n, tau_tilde_sep, x):
    """(x_mp, tau_ent*) at the r = 1 crossing near x, to 50 digits for the double
    inputs: Newton on ln r, each optimum an mpmath root of its stationarity condition."""
    with mpmath.workdps(50):
        if model.kind.value == "nonmarkovian":
            eta = mpmath.mpf(model.eta)
            gamma, dgamma = (lambda t: eta * t * t), (lambda t: 2 * eta * t)
        else:
            a, w = mpmath.mpf(model.alpha), mpmath.mpf(model.omega_c)
            k = mpmath.pi / mpmath.mpf(model.beta)

            def gamma(t):
                return a / 2 * mpmath.log(1 + (w * t) ** 2) + a * mpmath.log(mpmath.sinh(k * t) / (k * t))

            def dgamma(t):
                return a * w * w * t / (1 + (w * t) ** 2) + a * k * (mpmath.coth(k * t) - 1 / (k * t))

        def log_rate(tau_tilde, n_eff):
            guess = mpmath.mpf(optimal_sensing_time(model, float(tau_tilde), n_eff).tau_opt)
            tau = mpmath.findroot(lambda t: 2 * n_eff * t * dgamma(t) - 1 - tau_tilde / (tau_tilde + t),
                                  (guess / 2, 2 * guess), solver="anderson")
            return 2 * mpmath.log(n_eff * tau) - 2 * n_eff * gamma(tau) - mpmath.log(tau_tilde + tau), tau

        target = mpmath.log(n) + log_rate(mpmath.mpf(tau_tilde_sep), 1)[0]
        x = mpmath.mpf(x)
        for _ in range(20):
            log_r, tau = log_rate(x, n)
            x += (log_r - target) * (x + tau)  # d ln r/dx = -1/(x + tau*)
            if abs(log_r - target) < mpmath.mpf(10) ** -45:
                return x, tau
        raise AssertionError("the 50-digit threshold did not converge")


class TestGain:
    def test_markovian_zero_overhead_reclaims_unity(self):
        result = gain(BathModel.markovian(1.0), 7, 0.0, 0.0)
        assert result.r == pytest.approx(1.0, abs=1e-12)

    def test_markovian_crossing_point(self):
        result = gain(BathModel.markovian(1.0), 20, 0.4, 0.02)
        assert result.r == pytest.approx(1.0, abs=1e-9)

    def test_nonmarkovian_sqrt_advantage(self):
        result = gain(BathModel.nonmarkovian(1.0), 16, 0.0, 0.0)
        assert result.r == pytest.approx(4.0, abs=1e-9)

    def test_nonmarkovian_sqrt_locus(self):
        result = gain(BathModel.nonmarkovian(1.0), 9, 0.3, 0.1)
        assert result.r == pytest.approx(3.0, abs=1e-9)

    def test_result_fields_are_consistent(self):
        result = gain(BathModel.markovian(2.0), 5, 0.3, 0.1)
        assembled = (result.f_ent / result.round_ent) / (result.f_sep / result.round_sep)
        assert result.r == pytest.approx(assembled, rel=1e-12)
        assert result.round_sep == pytest.approx(0.3 + result.tau_opt_sep)
        assert result.round_ent == pytest.approx(0.1 + result.tau_opt_ent)

    def test_matches_general_formula(self):
        model = BathModel.nonmarkovian(2.0)
        n, tts, tte = 6, 0.25, 0.1
        result = gain(model, n, tts, tte)
        from ghzgain import decay_exponent

        explicit = (
            n
            * (result.round_sep / result.round_ent)
            * (result.tau_opt_ent / result.tau_opt_sep) ** 2
            * math.exp(
                -2.0 * n * decay_exponent(model, result.tau_opt_ent)
                + 2.0 * decay_exponent(model, result.tau_opt_sep)
            )
        )
        assert result.r == pytest.approx(explicit, rel=1e-12)

    def test_markovian_vanishing_overhead_limit(self):
        result = gain(BathModel.markovian(1.0), 10, 1e-12, 1e-12)
        assert abs(result.r - 1.0) < 1e-6

    def test_isolated_requires_feasible_times(self):
        with pytest.raises(InfeasibleTimingError):
            gain(BathModel.isolated(1.0), 4, 0.2, 1.2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gain(BathModel.markovian(1.0), 0, 0.1, 0.1)
        with pytest.raises(DomainError):
            gain(BathModel.markovian(1.0), 4, -0.1, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [BathModel.isolated(1.0), BathModel.markovian(1.0),
                                       BathModel.nonmarkovian(1.0)])
    def test_non_finite_overheads_rejected(self, model, bad):
        with pytest.raises(DomainError, match="separable overhead"):
            gain(model, 4, bad, 0.1)
        with pytest.raises(DomainError, match="entangled overhead"):
            gain(model, 4, 0.1, bad)

    def test_overflowing_field_is_a_solver_error(self):
        # f_sep = n tau^2 = 1e5 (1e152)^2 overflows, and r would be 0
        with pytest.raises(SolverError, match="f_sep must be finite, got inf"):
            gain(BathModel.isolated(1e152), 10**5, 0.0, 0.9999999999e152)

    def test_underflowing_optimum_is_a_solver_error(self):
        # tau_opt ~ 1e-301, so the rate, of order tau_opt^2, underflows to 0
        with pytest.raises(SolverError, match="not finite and > 0"):
            gain(BathModel.markovian(1e300), 4, 0.1, 0.1)

    def test_each_optimum_is_priced_once(self, monkeypatch):
        # the Ohmic roots take Gamma' and Gamma'' only; Gamma itself is
        # evaluated once per optimum, for its decay, and reused by the gain
        bath_module = importlib.import_module("ghzgain.bath")
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        coherence_time(model)  # cached, as after any earlier call
        calls = []
        exponent = bath_module._ohmic_exponent

        def counting(model, tau, xp=math):
            calls.append(tau)
            return exponent(model, tau, xp)

        monkeypatch.setattr(bath_module, "_ohmic_exponent", counting)
        result = gain(model, 10, 0.01, 0.02)
        assert calls == [result.tau_opt_sep, result.tau_opt_ent]


# Public entry points that take a particle count (or a scan limit), each
# called with that count as its only free argument.
COUNT_TAKERS = {
    "gain": lambda n: gain(BathModel.markovian(1.0), n, 0.1, 0.05),
    "threshold_ent_time": lambda n: threshold_ent_time(BathModel.nonmarkovian(1.0), n, 0.3),
    "optimal_sensing_time": lambda n: optimal_sensing_time(BathModel.markovian(1.0), 0.1, n),
    "optimal_sensing_time-isolated": lambda n: optimal_sensing_time(
        BathModel.isolated(1.0), 0.1, n),
    "tau_opt_markov": lambda n: tau_opt_markov(1.0, 0.1, n),
    "stationarity_residual": lambda n: stationarity_residual(
        BathModel.markovian(1.0), 0.1, n, 0.3),
    "qfi_ghz": lambda n: qfi_ghz(n, 0.3, BathModel.markovian(1.0)),
    "ProbeSpec": lambda n: ProbeSpec(n, ProbeKind.GHZ),
    "n_max_gain-n_search_max": lambda n: n_max_gain(
        BathModel.isolated(1.0), ScalingLaw("linear", 0.03), n_search_max=n),
}


@pytest.mark.parametrize("call", COUNT_TAKERS.values(), ids=list(COUNT_TAKERS))
def test_counts_accept_any_integer_type_and_nothing_else(call):
    assert call(np.int64(4)) == call(4)
    for bad in (True, 2.5, 0):
        with pytest.raises(DomainError, match="positive integer"):
            call(bad)


class TestGainIsolated:
    def test_equal_overheads_keep_heisenberg_ratio(self):
        assert gain_isolated(10, 0.1, 0.1) == pytest.approx(10.0)

    def test_threshold_case(self):
        assert gain_isolated(4, 0.0, 0.5) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        assert gain_isolated(10, 0.03, 0.2) == pytest.approx(6.802, abs=5e-4)

    def test_super_heisenberg_region(self):
        value = gain_isolated(10, 0.3, 0.0)
        assert value == pytest.approx(10.0 / 0.49, rel=1e-12)
        assert value > 10.0

    def test_infeasible_overheads(self):
        with pytest.raises(InfeasibleTimingError):
            gain_isolated(4, 1.0, 0.1)
        with pytest.raises(InfeasibleTimingError):
            gain_isolated(4, 0.1, 1.0)

    def test_gain_past_the_largest_float_raises(self):
        with pytest.raises(SolverError, match="gain must be finite, got inf"):
            gain_isolated(10**300, 0.9999999999999999, 0.0)

    @pytest.mark.parametrize("x_sep", [0.0, 0.1, 0.4, 0.8])
    @pytest.mark.parametrize("x_ent", [0.0, 0.1, 0.4, 0.8])
    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_generic_pipeline_reduces_to_it(self, x_sep, x_ent, n):
        t_c = 2.0
        model = BathModel.isolated(t_c)
        result = gain(model, n, x_sep * t_c, x_ent * t_c)
        assert result.r == pytest.approx(gain_isolated(n, x_sep, x_ent), rel=1e-12)


class TestThreshold:
    def test_isolated_closed_form(self):
        assert threshold_ent_time(BathModel.isolated(1.0), 4, 0.0) == pytest.approx(0.5)

    def test_markovian_closed_form(self):
        assert threshold_ent_time(BathModel.markovian(1.0), 50, 0.5) == pytest.approx(0.01)

    def test_nonmarkovian_bisection(self):
        model = BathModel.nonmarkovian(1.0)
        theta = threshold_ent_time(model, 9, 0.3)
        assert theta > 0.1  # the sqrt(N) locus 0.3/3 already gives r = 3
        assert abs(gain(model, 9, 0.3, theta).r - 1.0) <= 1e-11

    def test_ohmic_bisection(self):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        tts = 0.2 * coherence_time(model)
        theta = threshold_ent_time(model, 5, tts)
        assert abs(gain(model, 5, tts, theta).r - 1.0) <= 1e-11

    @pytest.mark.parametrize(
        "model",
        [
            BathModel.isolated(1.0),
            BathModel.markovian(1.0),
            BathModel.nonmarkovian(1.0),
        ],
        ids=lambda m: m.kind.value,
    )
    def test_gain_is_unity_at_threshold(self, model):
        t_c = coherence_time(model)
        for n in (2, 10):
            for tts in (0.1 * t_c, 0.5 * t_c):
                theta = threshold_ent_time(model, n, tts)
                assert abs(gain(model, n, tts, theta).r - 1.0) <= 1e-11

    @pytest.mark.parametrize(
        "model, n, x_sep",
        [
            (BathModel.nonmarkovian(1.0), 9, 0.3),
            (BathModel.ohmic(0.05, 20.0, 0.5), 5, 0.2),
            (BathModel.nonmarkovian(1.0), 10**5, 0.5),  # scaled overheads up to 3e6
        ],
        ids=["nonmarkovian", "ohmic", "nonmarkovian-large-n"],
    )
    def test_separable_optimum_is_solved_once(self, gain_solves, model, n, x_sep):
        tts = x_sep * coherence_time(model)
        threshold_ent_time(model, n, tts)
        # the separable optimum and the GHZ one at zero overhead; the root needs no solve
        assert gain_solves == [(tts, 1), (0.0, n)]

    @pytest.mark.parametrize("model, n, x_sep", [
        (BathModel.ohmic(0.05, 20.0, 0.5), 15934, 0.23094068743633142),  # a benchmark case
        (BathModel.ohmic(0.05, 20.0, 0.5), 5, 0.2),
        (BathModel.ohmic(0.01, 5.0, 2.0), 300, 0.5),
        (BathModel.nonmarkovian(1.0), 9, 0.3),
        (BathModel.nonmarkovian(1.0), 10**5, 0.5),
    ])
    def test_matches_a_50_digit_threshold(self, model, n, x_sep):
        tts = x_sep * coherence_time(model)
        x = threshold_ent_time(model, n, tts)
        exact, tau_ent = mp_threshold(model, n, tts, x)
        assert abs(x - exact) <= 1e-12 * (x + tau_ent)

    @pytest.mark.parametrize("model", [BathModel.nonmarkovian(1.0),
                                       BathModel.ohmic(0.05, 20.0, 0.5)], ids=["nonmarkovian", "ohmic"])
    def test_few_solves_per_threshold(self, gain_solves, monkeypatch, model):
        # two solves, then Newton on F_ent' = rate_sep from tau*(0): at most 6 more
        # evaluations of F and its slopes, 5.1 on average
        gain_module = importlib.import_module("ghzgain.gain")
        newton_root, evaluations = gain_module._newton_root, []

        def counting(f, *args):
            def counted(t):
                evaluations[-1] += 1
                return f(t)
            evaluations.append(0)
            return newton_root(counted, *args)

        monkeypatch.setattr(gain_module, "_newton_root", counting)
        rng, t_c, found = random.Random(14), coherence_time(model), 0
        for _ in range(60):
            n, x_sep = max(1, round(10.0 ** (6.0 * rng.random()))), 0.9 * rng.random()
            gain_solves.clear()
            try:
                threshold_ent_time(model, n, x_sep * t_c)
                found += 1
            except NoThresholdError:  # r < 1 at zero overhead: small N, small x_sep
                pass
            assert gain_solves == [(x_sep * t_c, 1), (0.0, n)]
        assert found >= 50 and len(evaluations) == found
        assert max(evaluations) <= 6 and sum(evaluations) / found <= 5.5

    def test_single_particle_threshold_is_the_separable_overhead(self):
        # N = 1: the strategies coincide, so r crosses 1 exactly where
        # the overheads match
        model = BathModel.nonmarkovian(1.0)
        theta = threshold_ent_time(model, 1, 0.25)
        assert theta == pytest.approx(0.25, rel=1e-8)

    def test_cold_ohmic_bath_has_no_crossing(self):
        # beta*omega_c = 1000: the separable optimum falls in the
        # log-dominated window where the exponent grows sublinearly, so
        # the entangled strategy loses even with zero overhead and the
        # r = 1 crossing genuinely does not exist
        model = BathModel.ohmic(0.1, 100.0, 10.0)
        assert gain(model, 10, 0.0, 0.0).r < 1.0
        with pytest.raises(NoThresholdError) as info:
            threshold_ent_time(model, 10, 0.5 * coherence_time(model))
        assert info.value.side == "below"

    def test_no_threshold_error_sides(self, monkeypatch):
        # the supported decay laws always cross inside [0, 1e4 t_c]; force a
        # gain below 1 at zero overhead, and a bracket that ends below the crossing
        gain_module = importlib.import_module("ghzgain.gain")
        model = BathModel.nonmarkovian(1.0)
        with monkeypatch.context() as patch:
            patch.setattr(gain_module, "_gain_from_optima", lambda *args: gain_module.GainResult(
                0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
            with pytest.raises(NoThresholdError) as info:
                gain_module.threshold_ent_time(model, 4, 0.3)
        assert info.value.side == "below"

        assert gain_module.threshold_ent_time(model, 4, 0.3) > 1e-16
        monkeypatch.setattr(gain_module, "coherence_time", lambda model: 1e-20)
        with pytest.raises(NoThresholdError, match="bracket end 1e-16") as info:
            gain_module.threshold_ent_time(model, 4, 0.3)
        assert info.value.side == "above"

    def test_unconverged_threshold_is_a_solver_error(self, monkeypatch, capsys):
        # the non-Markovian optima are closed forms, so the threshold's root is
        # the only Newton search, and one evaluation does not converge
        from ghzgain import bath, cli

        monkeypatch.setattr(bath, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError, match="did not converge"):
            threshold_ent_time(BathModel.nonmarkovian(1.0), 4, 0.3)
        argv = ["threshold", "--model", "nonmarkovian", "--eta", "1", "--n", "4",
                "--ttilde-sep", "0.3"]
        assert cli.cli_main(argv) == 4
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [BathModel.nonmarkovian(1.0), BathModel.ohmic(0.05, 20.0, 0.5)],
                             ids=["nonmarkovian", "ohmic"])
    def test_single_particle_threshold_where_r0_rounds_to_one(self, model):
        # N = 1 crosses at x = tau_tilde_sep.  Below ~1e-16 t_c, r(0) rounds to 1 (threshold
        # 0); just above, x = F(tau)/rate_sep - tau is a difference of nearly equal terms
        t_c = coherence_time(model)
        for exponent in list(range(-300, -19)) + [k / 20.0 for k in range(-380, -119)]:
            tts = 10.0 ** exponent * t_c
            x = threshold_ent_time(model, 1, tts)
            tau_ent = optimal_sensing_time(model, x, 1).tau_opt
            assert x >= 0.0
            assert abs(x - tts) <= 1e-15 * (x + tau_ent)

    def test_zero_overhead_zero_threshold(self):
        assert threshold_ent_time(BathModel.markovian(2.0), 13, 0.0) == 0.0
        assert threshold_ent_time(BathModel.nonmarkovian(1.0), 1, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    @pytest.mark.parametrize("model", [BathModel.isolated(1.0), BathModel.markovian(1.0),
                                       BathModel.nonmarkovian(1.0)])
    def test_invalid_overhead_rejected(self, model, bad):
        with pytest.raises(DomainError, match="finite and non-negative"):
            threshold_ent_time(model, 4, bad)


class TestPrecision:
    def test_isolated_separable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = precision_opt(BathModel.isolated(1.0), 25, ProbeKind.SEPARABLE, 0.0, 100.0)
        assert value == pytest.approx(0.02)

    def test_isolated_ghz(self):
        value = precision_opt(BathModel.isolated(1.0), 25, ProbeKind.GHZ, 0.0, 100.0)
        assert value == pytest.approx(0.004)

    def test_definitional_identity_with_gain(self):
        model = BathModel.markovian(1.0)
        n, tts, tte, total = 8, 0.3, 0.05, 1000.0
        d_sep = precision_opt(model, n, ProbeKind.SEPARABLE, tts, total)
        d_ent = precision_opt(model, n, ProbeKind.GHZ, tte, total)
        assert (d_sep / d_ent) ** 2 == pytest.approx(gain(model, n, tts, tte).r, rel=1e-12)

    def test_warns_when_few_rounds_fit(self):
        with pytest.warns(UserWarning, match="rounds"):
            precision_opt(BathModel.isolated(1.0), 4, ProbeKind.GHZ, 0.0, 5.0)

    def test_budget_must_be_positive(self):
        with pytest.raises(DomainError):
            precision_opt(BathModel.isolated(1.0), 4, ProbeKind.GHZ, 0.0, 0.0)

    def test_underflowing_information_is_a_solver_error(self):
        # T * F(tau*) / (tau_tilde + tau*) underflows to 0: the error would be 1/0
        model = BathModel.ohmic(0.4912340637932445, 0.0013205417131547522, 0.3654690205146478)
        with pytest.warns(UserWarning, match="rounds"), \
                pytest.raises(SolverError, match="not finite and > 0"):
            precision_opt(model, 10**15, ProbeKind.GHZ, 1.7e308, 1.324059760658427e-49)


class TestScalingLaws:
    def test_logarithmic(self):
        law = ScalingLaw(ScalingKind.LOGARITHMIC, 0.03)
        assert scaling_law_eval(law, 8) == pytest.approx(0.12)

    def test_square_root(self):
        law = ScalingLaw(ScalingKind.SQUARE_ROOT, 0.03)
        assert scaling_law_eval(law, 16) == pytest.approx(0.12)

    def test_linear(self):
        law = ScalingLaw(ScalingKind.LINEAR, 0.03)
        assert scaling_law_eval(law, 10) == pytest.approx(0.3)

    def test_constant(self):
        law = ScalingLaw(ScalingKind.CONSTANT, 0.07)
        assert scaling_law_eval(law, 1000) == 0.07

    def test_string_kinds_accepted(self):
        assert ScalingLaw("square-root", 0.1).kind is ScalingKind.SQUARE_ROOT

    def test_negative_base_rejected(self):
        with pytest.raises(DomainError):
            ScalingLaw(ScalingKind.LINEAR, -0.1)

    @pytest.mark.parametrize("law, n", [
        (ScalingLaw("linear", 1e300), 10**10),
        (ScalingLaw("square-root", 1e300), 10**300),
        (ScalingLaw("logarithmic", 1e306), 10**300),
    ], ids=["linear", "square-root", "logarithmic"])
    def test_ratio_past_the_largest_float_raises(self, law, n):
        with pytest.raises(DomainError, match="entangled overhead ratio must be finite, got inf"):
            scaling_law_eval(law, n)


class TestCutoffScan:
    def test_isolated_linear_cutoff(self):
        law = ScalingLaw(ScalingKind.LINEAR, 0.03)
        assert n_cutoff(BathModel.isolated(1.0), law, 100) == 27

    def test_isolated_constant_never_cuts_off(self):
        law = ScalingLaw(ScalingKind.CONSTANT, 0.03)
        assert n_cutoff(BathModel.isolated(1.0), law, 100) is None

    def test_markovian_equal_constant_overheads(self):
        law = ScalingLaw(ScalingKind.CONSTANT, 0.5)
        assert n_cutoff(BathModel.markovian(1.0), law, 100) == 1

    def test_isolated_linear_peak(self):
        law = ScalingLaw(ScalingKind.LINEAR, 0.03)
        best_n, best_r = n_max_gain(BathModel.isolated(1.0), law, 100)
        assert best_n == 11
        assert best_r == pytest.approx(11 * (1 - 0.33) ** 2 / 0.97**2, rel=1e-12)

    def test_isolated_constant_peak_at_boundary(self):
        law = ScalingLaw(ScalingKind.CONSTANT, 0.03)
        best_n, best_r = n_max_gain(BathModel.isolated(1.0), law, 100)
        assert best_n == 100
        assert best_r == pytest.approx(100.0)

    def test_peak_is_a_local_maximum(self):
        law = ScalingLaw(ScalingKind.SQUARE_ROOT, 0.05)
        model = BathModel.markovian(1.0)
        best_n, best_r = n_max_gain(model, law, 200)
        t_c = 1.0
        for neighbour in (best_n - 1, best_n + 1):
            if neighbour < 1:
                continue
            x_ent = scaling_law_eval(law, neighbour)
            assert gain(model, neighbour, 0.05, x_ent * t_c).r <= best_r

    # tts: the separable overhead base * t_c that the scan derives
    @pytest.mark.parametrize(
        "model, law, tts, limit, expected",
        [
            (BathModel.isolated(1.0), ScalingLaw("linear", 0.03), 0.03, 100, (27, 11)),
            (BathModel.isolated(1.0), ScalingLaw("constant", 0.03), 0.03, 100, (None, 100)),
            (BathModel.markovian(1.0), ScalingLaw("constant", 0.5), 0.5, 100, (1, 1)),
        ],
    )
    def test_one_scan_gives_both_answers(self, model, law, tts, limit, expected, gain_solves):
        both = n_cutoff_and_max_gain(model, law, limit)
        assert both[:2] == expected
        assert both == (n_cutoff(model, law, limit), *n_max_gain(model, law, limit))
        assert gain_solves == [(tts, 1)] * 3

    def test_scan_solves_the_separable_optimum_once(self, gain_solves):
        law = ScalingLaw(ScalingKind.SQUARE_ROOT, 0.05)
        # the per-size scalar scan's answer; the array pass certifies every
        # size's GHZ optimum here, so the one scalar solve is the separable one
        assert n_cutoff(BathModel.nonmarkovian(1.0), law, 500) == 148
        assert gain_solves == [(0.05, 1)]

    def test_infeasible_separable_timing_decides_every_size(self, gain_solves):
        # the separable overhead base * t_c consumes the whole coherence time
        law = ScalingLaw(ScalingKind.CONSTANT, 1.0)
        assert n_cutoff(BathModel.isolated(1.0), law, 100) == 0
        with pytest.raises(InfeasibleTimingError, match="every scanned ensemble size"):
            n_max_gain(BathModel.isolated(1.0), law, 100)
        with pytest.raises(InfeasibleTimingError, match="every scanned ensemble size"):
            n_cutoff_and_max_gain(BathModel.isolated(1.0), law, 100)
        assert gain_solves == [(1.0, 1)] * 3

    def test_search_bounds_validated(self):
        law = ScalingLaw(ScalingKind.LINEAR, 0.03)
        with pytest.raises(DomainError):
            n_cutoff(BathModel.isolated(1.0), law, 1)
        with pytest.raises(DomainError):
            n_max_gain(BathModel.isolated(1.0), law, 0)
        with pytest.raises(DomainError, match="must be >= 2, got 1"):
            n_cutoff_and_max_gain(BathModel.isolated(1.0), law, 1)


THRESHOLD_SIZES = sorted({max(2, round(10.0 ** (k / 4.0))) for k in range(1, 25)})  # 2..10^6
THRESHOLD_X_SEP = [i / 20.0 for i in range(20)]  # 0..0.95


def isolated_threshold(n, x_sep):  # t_c = 1
    return 1.0 - (1.0 - x_sep) / math.sqrt(n)


@pytest.mark.parametrize("model, crossings", [
    (BathModel.markovian(1.0), 480),
    (BathModel.ohmic(0.05, 20.0, 0.5), 467),
    (BathModel.ohmic(0.1, 100.0, 10.0), 162),  # cold: r(0) < 1 at most small x_sep
], ids=["markovian", "ohmic", "cold-ohmic"])
def test_dephasing_lowers_the_threshold(model, crossings):
    # the paper: the threshold, in units of t_c, is lower than an isolated
    # probe's with t_c = 1, wherever a crossing exists; where none does, r(0) < 1
    t_c, found = coherence_time(model), 0
    for n in THRESHOLD_SIZES:
        for x_sep in THRESHOLD_X_SEP:
            try:
                theta = threshold_ent_time(model, n, x_sep * t_c) / t_c
            except NoThresholdError as info:
                assert info.side == "below" and gain(model, n, x_sep * t_c, 0.0).r < 1.0
                continue
            assert theta < isolated_threshold(n, x_sep)
            found += 1
    assert found == crossings


def test_quadratic_dephasing_lowers_the_threshold_only_below_x_sep_0_35():
    # the claim needs x_sep below a crossover that falls from 0.392 at N = 2 to
    # 0.3535 at N = 10^6; above it the threshold can pass t_c, which caps an
    # isolated probe's whole round
    model = BathModel.nonmarkovian(1.0)
    for n in THRESHOLD_SIZES:
        for x_sep in THRESHOLD_X_SEP:
            lower = threshold_ent_time(model, n, x_sep) < isolated_threshold(n, x_sep)
            assert lower == (x_sep <= 0.35)
    for n, crossover in ((2, 0.39172), (10**6, 0.35346)):
        for x_sep, lower in ((crossover - 1e-4, True), (crossover + 1e-4, False)):
            assert (threshold_ent_time(model, n, x_sep) < isolated_threshold(n, x_sep)) == lower
    assert threshold_ent_time(model, 10, 0.8) == pytest.approx(1.2462, abs=1e-4)
    assert isolated_threshold(10, 0.8) == pytest.approx(0.9368, abs=1e-4)


class TestMonotonicity:
    def test_markovian_scan_is_clean(self):
        grid = log_grid(1e-3, 10.0, 50)
        assert monotonicity_scan(BathModel.markovian(1.0), 10, 0.03, grid) == []

    def test_nonmarkovian_large_ensemble_scan_is_clean(self):
        grid = log_grid(1e-3, 10.0, 50)
        assert monotonicity_scan(BathModel.nonmarkovian(1.0), 1000, 5.0, grid) == []

    def test_isolated_scan_is_clean(self):
        grid = [i * 0.99 / 49 for i in range(50)]
        grid[0] = 0.0
        assert monotonicity_scan(BathModel.isolated(1.0), 10, 0.03, grid) == []

    def test_separable_optimum_is_solved_once(self, gain_solves):
        grid = [0.1, 0.2, 0.4]
        monotonicity_scan(BathModel.nonmarkovian(1.0), 10, 0.03, grid)
        assert gain_solves == [(0.03, 1)] + [(x, 10) for x in grid]

    def test_grid_validation(self):
        model = BathModel.markovian(1.0)
        with pytest.raises(DomainError):
            monotonicity_scan(model, 10, 0.03, [0.5])
        with pytest.raises(DomainError):
            monotonicity_scan(model, 10, 0.03, [0.5, 0.5])

    def test_violations_are_reported_not_swallowed(self, monkeypatch):
        # no supported model produces one, so fake a bumpy gain profile
        gain_module = importlib.import_module("ghzgain.gain")

        bumpy = iter([3.0, 2.0, 2.5, 1.0])

        def fake(n, tts, tte, sep, ent):
            return gain_module.GainResult(next(bumpy), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

        monkeypatch.setattr(gain_module, "_gain_from_optima", fake)
        violations = gain_module.monotonicity_scan(
            BathModel.markovian(1.0), 10, 0.03, [0.1, 0.2, 0.3, 0.4]
        )
        assert len(violations) == 1
        assert violations[0].index == 1
        assert violations[0].x_lower == 0.2 and violations[0].x_upper == 0.3
        assert violations[0].r_lower == 2.0 and violations[0].r_upper == 2.5


class TestNonFiniteGainField:
    """Every per-size r comes from one assembler, which raises SolverError on
    the first gain field that is not finite, as gain() reports it."""

    # at N = 1000 and zero overhead F_sep = N tau_sep^2 decay overflows
    MODEL = BathModel.ohmic(0.05, 2e-152, 1e153)

    @pytest.mark.parametrize("call", [
        lambda model: gain(model, 1000, 0.0, 0.0),
        lambda model: threshold_ent_time(model, 1000, 0.0),
        lambda model: monotonicity_scan(model, 1000, 0.0, [0.0, 0.1, 0.2]),
    ], ids=["gain", "threshold_ent_time", "monotonicity_scan"])
    def test_overflowing_separable_fisher_raises(self, call):
        # r = 0 from the overflow would read as "below 1 at zero overhead" to
        # the threshold, and as a clean, flat profile to the monotonicity scan
        with pytest.raises(SolverError, match="f_sep must be finite, got inf"):
            call(self.MODEL)

    def test_threshold_command_exits_4(self, capsys):
        from ghzgain import cli

        argv = ["threshold", "--model", "ohmic", "--alpha", "0.05", "--omega-c", "2e-152",
                "--beta", "1e153", "--n", "1000"]
        assert cli.cli_main(argv) == 4
        assert "solver failure: f_sep must be finite, got inf" in capsys.readouterr().err

    def test_the_same_bath_scaled_to_finite_fields_has_a_threshold(self):
        model = BathModel.ohmic(0.05, 2e-149, 1e150)  # omega_c and 1 / beta x 1000
        assert gain(model, 1000, 0.0, 0.0).r == pytest.approx(2.903022476049933, rel=1e-12)
        theta = threshold_ent_time(model, 1000, 0.0)
        assert 0.0 < theta < coherence_time(model)
        assert abs(gain(model, 1000, 0.0, theta).r - 1.0) <= 1e-11
        assert monotonicity_scan(model, 1000, 0.0, [0.0, 0.1, 0.2]) == []


class TestMarkovDecompositionProperties:
    """Closed-form pieces of the Markovian monotonicity argument."""

    @staticmethod
    def g_of(n, x):
        return 2.0 * n * x / (1.0 + math.sqrt((2.0 * n * x + 1.0) ** 2 + 8.0 * n * x))

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_bounded_and_nondecreasing(self, n):
        xs = [0.0] + log_grid(1e-6, 1e3, 200)
        values = [self.g_of(n, x) for x in xs]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_scaled_block_time_bounded_below_and_increasing(self, n):
        from ghzgain import tau_opt_markov

        xs = [0.0] + log_grid(1e-6, 1e3, 100)
        taus = [tau_opt_markov(1.0, x, n).tau_opt for x in xs]
        assert all(t >= 1.0 / (2.0 * n) - 1e-15 for t in taus)
        assert all(b > a for a, b in zip(taus, taus[1:]))


class TestEndToEndAgainstBruteForce:
    """Gain recomputed from explicit density matrices and an independent
    scalar optimiser; nothing in this path shares code with gain()."""

    @staticmethod
    def brute_rate(model, n, kind, tau_tilde, tau):
        from ghzgain import (
            EvolutionParams,
            ProbeSpec,
            apply_dephasing,
            build_probe_state,
            decay_exponent,
            evolve_phase,
            qfi_eigen,
            rho_derivative,
        )

        rho = build_probe_state(ProbeSpec(n, kind))
        rho = apply_dephasing(rho, decay_exponent(model, tau))
        rho = evolve_phase(rho, EvolutionParams(omega=0.9, tau=tau))
        return qfi_eigen(rho, rho_derivative(rho, tau)) / (tau_tilde + tau)

    @pytest.mark.parametrize(
        "model",
        [BathModel.markovian(1.0), BathModel.nonmarkovian(1.0),
         BathModel.ohmic(0.05, 20.0, 0.5)],
        ids=lambda m: m.kind.value,
    )
    def test_full_pipeline(self, model):
        from scipy.optimize import minimize_scalar

        n, tts, tte = 3, 0.2, 0.05
        best = {}
        for kind, tau_tilde in ((ProbeKind.SEPARABLE, tts), (ProbeKind.GHZ, tte)):
            result = minimize_scalar(
                lambda tau: -self.brute_rate(model, n, kind, tau_tilde, tau),
                bounds=(1e-6, 5.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            best[kind] = -result.fun
        reference = best[ProbeKind.GHZ] / best[ProbeKind.SEPARABLE]
        assert gain(model, n, tts, tte).r == pytest.approx(reference, rel=1e-7)


@given(
    n=st.integers(2, 1000),
    x_sep=st.floats(0.0, 0.99),
    x_lo=st.floats(0.0, 0.98),
    dx=st.floats(1e-6, 0.5),
)
@settings(max_examples=300, deadline=None)
def test_isolated_gain_decreases_in_entangled_overhead(n, x_sep, x_lo, dx):
    x_hi = min(x_lo + dx, 0.9899999)
    if x_hi <= x_lo:
        x_hi = x_lo + 1e-9
    assert gain_isolated(n, x_sep, x_hi) < gain_isolated(n, x_sep, x_lo)


@given(gamma=st.floats(1e-2, 1e2), n=st.integers(1, 1000), tts=st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_markovian_crossing_identity_everywhere(gamma, n, tts):
    result = gain(BathModel.markovian(gamma), n, tts, tts / n)
    assert abs(result.r - 1.0) < 1e-9


@given(model=st.sampled_from([BathModel.nonmarkovian(1.0), BathModel.nonmarkovian(37.0),
                              BathModel.ohmic(0.05, 20.0, 0.5), BathModel.ohmic(0.01, 5.0, 2.0)]),
       n=st.integers(1, 10**6), x_sep=st.floats(0.0, 0.9))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_gain_at_the_threshold_is_one(model, n, x_sep):
    tts = x_sep * coherence_time(model)
    try:
        x = threshold_ent_time(model, n, tts)
    except NoThresholdError:
        return
    assert abs(gain(model, n, tts, x).r - 1.0) <= 1e-14
