import importlib
import logging
import math
import statistics
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghzgain import (
    BathKind,
    BathModel,
    DivergenceError,
    DomainError,
    InfeasibleTimingError,
    SolverError,
    UnsupportedModelError,
    coherence_time,
    decay_exponent,
    gain,
    optimal_sensing_time,
    precision_opt,
    stationarity_residual,
    tau_opt_isolated,
    tau_opt_markov,
    tau_opt_nonmarkov,
    tau_opt_numeric,
)
from ghzgain import opttime
from ghzgain.cli import cli_main

DEPHASING_MODELS = [
    BathModel.markovian(1.0),
    BathModel.nonmarkovian(1.0),
    BathModel.ohmic(0.05, 20.0, 0.5),
    BathModel.ohmic(0.1, 100.0, 10.0),
]
MODEL_IDS = ["markovian", "nonmarkovian", "ohmic", "cold-ohmic"]


def rate(model, tau_tilde, n_eff, tau):
    """Information rate of an n_eff-particle entangled block."""
    g = decay_exponent(model, tau)
    return n_eff**2 * tau**2 * math.exp(-2.0 * n_eff * g) / (tau_tilde + tau)


class TestIsolated:
    def test_subtraction(self):
        assert tau_opt_isolated(1.0, 0.2, 1).tau_opt == pytest.approx(0.8)

    def test_zero_overhead(self):
        assert tau_opt_isolated(1.0, 0.0, 1).tau_opt == 1.0

    def test_boundary_is_infeasible(self):
        with pytest.raises(InfeasibleTimingError):
            tau_opt_isolated(1.0, 1.0, 1)


class TestMarkovClosedForm:
    def test_half_coherence_time(self):
        assert tau_opt_markov(1.0, 0.0, 1).tau_opt == pytest.approx(0.5)

    def test_block_scaling(self):
        assert tau_opt_markov(1.0, 0.0, 10).tau_opt == pytest.approx(0.05)

    def test_stationarity_residual_vanishes(self):
        opt = tau_opt_markov(1.0, 0.3, 4)
        assert abs(opt.residual) < 1e-12

    def test_decreasing_in_block_size(self):
        taus = [tau_opt_markov(1.0, 0.3, n).tau_opt for n in (1, 10, 1000, 10**6)]
        assert all(b < a for a, b in zip(taus, taus[1:]))
        assert taus[-1] < 1e-5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tau_opt_markov(0.0, 0.1, 1)
        with pytest.raises(DomainError):
            tau_opt_markov(1.0, -0.1, 1)
        with pytest.raises(DomainError):
            tau_opt_markov(1.0, 0.1, 0)

    # n_eff * gamma overflowing to inf, and a root whose square underflows,
    # would otherwise divide 0 by 0; the third root is 1.41e-170, whose rate underflows
    @pytest.mark.parametrize("gamma,tau_tilde,n_eff", [(1e305, 0.0, 10**4),
                                                       (1e305, 0.1, 10**4),
                                                       (5e169, 1e-170, 1)])
    def test_underflowing_root_is_a_solver_error(self, gamma, tau_tilde, n_eff):
        match = "rate 0.0 is not finite" if tau_tilde == 1e-170 else "underflows"
        with pytest.raises(SolverError, match=match):
            tau_opt_markov(gamma, tau_tilde, n_eff)


    # b = tau_tilde - 1/(2 n_eff gamma): |b| just under 1.3e154, where b * b is
    # finite, then b * b or 8 h tau_tilde past the largest float, for b > 0, b < 0
    # (h = 5e159 > tau_tilde) and b ~ 0 (h ~ tau_tilde)
    @pytest.mark.parametrize("gamma, tau_tilde, n_eff", [
        (1.0, 1.3e154, 1), (1.0, 1e155, 1), (1.0, 1e308, 1), (3.0, 1.7976931348623157e308, 7),
        (1e-160, 1e155, 1), (2e-160, 5e159, 3), (1e-160, 1.7e308, 1)])
    def test_root_past_an_overflowing_square_matches_numeric(self, gamma, tau_tilde, n_eff):
        model = BathModel.markovian(gamma)
        h = 0.5 / (n_eff * gamma)
        if h * h == math.inf:
            # tau ~ h ~ 1e160, so tau^2 and the rate overflow: both solvers raise, and
            # the scaled root and the array pass's tau match the exact root instead
            with pytest.raises(SolverError, match="not finite and > 0"):
                tau_opt_markov(gamma, tau_tilde, n_eff)
            with pytest.raises(SolverError, match="not finite and > 0"):
                tau_opt_numeric(model, tau_tilde, n_eff)
            taus = opttime._optimal_sensing_times(model, np.array([tau_tilde]),
                                                  np.array([float(n_eff)]))[0]
            exact = exact_markov_root(gamma, tau_tilde, n_eff)
            for tau in (opttime._markov_root(h, tau_tilde), float(taus[0])):
                assert abs(tau - exact) <= 1e-15 * exact
            return
        closed = tau_opt_markov(gamma, tau_tilde, n_eff)
        assert closed.tau_opt == pytest.approx(tau_opt_numeric(model, tau_tilde, n_eff).tau_opt,
                                               rel=1e-15)
        assert abs(closed.residual) < 1e-15
        taus = opttime._optimal_sensing_times(model, np.array([0.1, tau_tilde]),
                                              np.array([1.0, float(n_eff)]))[0]
        assert taus.tolist() == [tau_opt_markov(gamma, 0.1, 1).tau_opt, closed.tau_opt]


    def test_array_root_is_the_float_root(self):
        # one function at floats and over arrays, bit for bit, from subnormal keys to the
        # largest; where the square overflows, where both keys are tiny, and over the whole
        # float range, within 1e-15 of the exact root
        rng = np.random.default_rng(20261019)
        h, tau_tilde = 10.0 ** rng.uniform(-320.0, 308.0, (2, 20_000))
        with np.errstate(all="ignore"):
            roots = opttime._markov_root(h, tau_tilde, np)
        assert roots.tolist() == [opttime._markov_root(a, t)
                                  for a, t in zip(h.tolist(), tau_tilde.tolist())]
        for gamma, t in 10.0 ** rng.uniform([-160.0, 154.2], [300.0, 308.2], (200, 2)):
            exact = exact_markov_root(gamma, t, 1)
            assert abs(opttime._markov_root(0.5 / gamma, t) - exact) <= 1e-15 * exact
        # h and tau_tilde both below 2^-500, where b^2 and 8 h tau_tilde went subnormal or
        # to 0 unscaled: the root was off by 2 (h > tau_tilde) or negative.  A subnormal
        # root loses bits, but its square, and so its rate, underflows to 0 anyway
        for a, t in 10.0 ** rng.uniform(-323.0, -151.0, (2000, 2)):
            exact = exact_markov_root(0.5 / mpmath.mpf(a), t, 1)
            root = opttime._markov_root(a, t)
            assert root >= 0.0
            if exact >= sys.float_info.min:
                assert abs(root - exact) <= 1e-15 * exact
        # keys over the whole float range, half of them with h < tau_tilde, many h << tau_tilde,
        # where 4 h tau_tilde underflows unless tau_tilde is scaled
        for a, t in (10.0 ** rng.uniform(-323.0, 308.0, (4000, 2))).tolist():
            exact = exact_markov_root(0.5 / mpmath.mpf(a), t, 1)
            if exact >= sys.float_info.min:
                assert abs(opttime._markov_root(a, t) - exact) <= 1e-15 * exact

    def test_tau_opt_at_tiny_keys_is_stationary(self, capsys):
        assert cli_main(["tau-opt", "--model", "markovian", "--gamma", "1e158", "--n", "1",
                         "--ttilde-sep", "1e-159", "--ttilde-ent", "1e-159"]) == 0
        residuals = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()
                     if "residual" in line]
        assert residuals and all(abs(r) < 1e-15 for r in residuals)


def exact_markov_root(gamma, tau_tilde, n_eff):
    """The positive root of tau^2 + (tau_tilde - h) tau - 2 h tau_tilde, h = 1/(2 n_eff
    gamma), to 50 digits, in forms without cancellation."""
    with mpmath.workdps(50):
        t = mpmath.mpf(tau_tilde)
        h = 1 / (2 * n_eff * mpmath.mpf(gamma))
        b = t - h
        root = mpmath.sqrt(b * b + 8 * h * t)
        return 4 * h * t / (b + root) if b >= 0 else (root - b) / 2


class TestNonMarkovClosedForm:
    def test_half_block_coherence_time(self):
        assert tau_opt_nonmarkov(1.0, 0.0, 1).tau_opt == pytest.approx(0.5)

    def test_block_scaling(self):
        assert tau_opt_nonmarkov(1.0, 0.0, 4).tau_opt == pytest.approx(0.25)

    def test_agrees_with_numeric_optimiser(self):
        closed = tau_opt_nonmarkov(2.0, 0.4, 8)
        numeric = tau_opt_numeric(BathModel.nonmarkovian(2.0), 0.4, 8)
        assert closed.tau_opt == pytest.approx(numeric.tau_opt, rel=1e-8)
        assert abs(closed.residual) < 1e-10

    # the points where the former complex-arithmetic root failed its checks
    # and the dispatcher fell back to tau_opt_numeric, with a logged warning:
    # u = 2.7e6, u = 1.2e77 (u^4 past the largest float) and u = inf
    @pytest.mark.parametrize("eta, tau_tilde, n_eff", [(7.5, 1e4, 10**6),
                                                       (462.0, 5.387135536218671e72, 10**6),
                                                       (1.0, 1.7e308, 4)])
    def test_former_fallback_points_are_solved_in_closed_form(self, caplog, eta, tau_tilde,
                                                              n_eff):
        model = BathModel.nonmarkovian(eta)
        with caplog.at_level(logging.DEBUG, logger="ghzgain.opttime"):
            closed = tau_opt_nonmarkov(eta, tau_tilde, n_eff)
            assert optimal_sensing_time(model, tau_tilde, n_eff) == closed
        assert not caplog.records
        assert 0.0 < closed.tau_opt < math.inf and 0.0 < closed.objective < math.inf
        numeric = tau_opt_numeric(model, tau_tilde, n_eff)
        assert closed.tau_opt == pytest.approx(numeric.tau_opt, rel=1e-12)
        assert closed.objective == pytest.approx(numeric.objective, rel=1e-12)

    @pytest.mark.parametrize("eta, tau_tilde, n_eff", [(1e308, 0.0, 10),
                                                       (1e308, 1.0, 10)])
    def test_overflowing_n_eff_eta_is_a_solver_error(self, eta, tau_tilde, n_eff):
        # n_eff * eta = inf: u is NaN at tau_tilde = 0, and tau = v / inf = 0 otherwise
        with pytest.raises(SolverError, match="underflows"):
            tau_opt_nonmarkov(eta, tau_tilde, n_eff)


def exact_nonmarkov_root(u):
    """The positive root of 4 v^3 + 4 u v^2 - v - 2 u to 50 digits."""
    with mpmath.workdps(50):
        if u == math.inf:
            return 1 / mpmath.sqrt(2)
        u = mpmath.mpf(u)
        # the cubic over 1 + u, so its scale does not grow with u
        return mpmath.findroot(lambda v: ((4 * v * v - 1) * v + u * (4 * v * v - 2)) / (1 + u),
                               (mpmath.mpf(0.5), 1 / mpmath.sqrt(2)), solver="illinois",
                               verify=False)


def edge_points(edge):
    """edge and the doubles 1, 1e3 and 1e6 ulp on either side of it."""
    points = [edge]
    for k in (1, 10**3, 10**6):
        points += [edge + sign * k * math.ulp(edge) for sign in (-1, 1)]
    return points


# u = 0, 1,200 log-spaced u in [1e-6, 1e150], u = inf, and both zeros of
# the discriminant, where the cubic goes from three real roots to one and back
ROOT_GRID = ([0.0] + np.logspace(-6, 150, 1200).tolist() + [math.inf]
             + [u for edge in (0.11905909539093985, 1.484781105686859)
                for u in edge_points(edge)])


class TestNonMarkovRoot:
    def test_within_an_ulp_of_the_exact_root(self):
        worst = 0.0
        for u in ROOT_GRID:
            exact = exact_nonmarkov_root(u)
            v = opttime._nonmarkov_root(u)
            worst = max(worst, float(abs(v - exact)) / math.ulp(float(exact)))
        assert worst <= 1.0

    def test_array_form_matches_the_scalar_form(self):
        v = opttime._nonmarkov_root(np.array(ROOT_GRID), np)
        scalar = np.array([opttime._nonmarkov_root(u) for u in ROOT_GRID])
        assert np.array_equal(v, scalar)


@given(u=st.one_of(st.floats(0.0, 1e300), st.just(math.inf)))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_nonmarkov_root_is_within_an_ulp_and_the_same_over_arrays(u):
    v = opttime._nonmarkov_root(u)
    exact = exact_nonmarkov_root(u)
    assert float(abs(v - exact)) <= math.ulp(float(exact))
    assert opttime._nonmarkov_root(np.array([u]), np)[0] == v


def no_coherence_time(model):
    raise SolverError("coherence_time was asked for")


def mp_ohmic_residual(model, tau_tilde, n_eff):
    """t -> the Ohmic stationarity residual at the working mpmath precision; coth x - 1/x
    takes its series x/3 - x^3/45 + 2 x^5/945 below x = 1e-12, where the difference
    cancels."""
    a, w = mpmath.mpf(model.alpha), mpmath.mpf(model.omega_c)
    k, tt = mpmath.pi / mpmath.mpf(model.beta), mpmath.mpf(tau_tilde)

    def residual(t):
        wt, x = w * t, k * t
        dlog_sinhc = x / 3 - x**3 / 45 + 2 * x**5 / 945 if x < 1e-12 else mpmath.coth(x) - 1 / x
        dgamma = a * w * wt / (1 + wt * wt) + a * k * dlog_sinhc
        return 2 * n_eff * t * dgamma - 1 - tt / (tt + t)

    return residual


class TestNumeric:
    def test_matches_markov_closed_form(self):
        closed = tau_opt_markov(1.0, 0.3, 4)
        numeric = tau_opt_numeric(BathModel.markovian(1.0), 0.3, 4)
        assert numeric.tau_opt == pytest.approx(closed.tau_opt, rel=1e-8)

    def test_quadratic_law_analytic_point(self):
        opt = tau_opt_numeric(BathModel.nonmarkovian(1.0), 0.0, 1)
        assert abs(opt.tau_opt - 0.5) < 5e-9

    def test_ohmic_stationarity(self):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        opt = tau_opt_numeric(model, 0.1, 3)
        assert abs(opt.residual) < 1e-8

    # Brent's inverse quadratic step on these once divided by a product that
    # underflowed to 0, a raw ZeroDivisionError; it bisects instead
    @pytest.mark.parametrize("gamma, tau_tilde", [(1e-160, 5e159),
                                                  (2.729239323083489e-166, 21.19621653749579)])
    def test_underflowing_interpolation_bisects(self, monkeypatch, gamma, tau_tilde):
        optimum, taus = opttime._optimum, []

        def recording(model, tau_tilde, n_eff, tau):
            taus.append(tau)
            return optimum(model, tau_tilde, n_eff, tau)

        monkeypatch.setattr(opttime, "_optimum", recording)
        with pytest.raises(SolverError, match="not finite and > 0"):  # tau^2 overflows
            tau_opt_numeric(BathModel.markovian(gamma), tau_tilde, 1)
        exact = exact_markov_root(gamma, tau_tilde, 1)
        assert abs(taus[0] - exact) <= 1e-15 * exact

    def test_rate_rising_for_ever_diverges(self, monkeypatch):
        # with Gamma = 0 the residual stays at -1 - tau_tilde/(tau_tilde + tau)
        monkeypatch.setattr("ghzgain.opttime._decay_exponent", lambda model, tau, xp=math: 0.0)
        # (the numeric root takes Gamma' and tau Gamma'' from one function of every law)
        monkeypatch.setattr("ghzgain.opttime._exponent_slopes",
                            lambda model, tau, xp=math: (0.0, 0.0))
        with pytest.raises(DivergenceError, match="2\\^60 times its first upper end"):
            tau_opt_numeric(BathModel.ohmic(0.05, 20.0, 0.5), 0.1, 1)

    @pytest.mark.parametrize("alpha, omega_c, beta", [(0.05, 20.0, 0.5), (0.1, 100.0, 10.0),
                                                      (0.01, 5.0, 2.0)])
    @pytest.mark.parametrize("x, n_eff", [(0.0, 1), (0.1, 10), (1.0, 1000), (0.5, 10**5)])
    def test_ohmic_matches_mpmath_root(self, alpha, omega_c, beta, x, n_eff):
        model = BathModel.ohmic(alpha, omega_c, beta)
        tau_tilde = x * coherence_time(model)
        opt = tau_opt_numeric(model, tau_tilde, n_eff)
        with mpmath.workdps(50):
            root = mpmath.findroot(mp_ohmic_residual(model, tau_tilde, n_eff),
                                   (opt.tau_opt / 2, 2 * opt.tau_opt), solver="anderson")
            assert abs(opt.tau_opt - root) <= 1e-14 * root

    def test_the_ohmic_optimum_needs_no_coherence_time(self, monkeypatch):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        keys = np.array([0.0, 0.1, 3.0]), np.array([1.0, 10.0, 1000.0])

        def answers():
            return (optimal_sensing_time(model, 0.1, 10), tau_opt_numeric(model, 0.1, 10),
                    gain(model, 10, 0.1, 0.02), precision_opt(model, 10, "ghz", 0.1, 100.0),
                    [a.tolist() for a in opttime._optimal_sensing_times(model, *keys)])

        expected = answers()
        for name in ("bath", "opttime", "gain"):
            monkeypatch.setattr(importlib.import_module(f"ghzgain.{name}"), "coherence_time",
                                no_coherence_time)
        assert answers() == expected

    # baths whose t_c search failed while it grew its bracket by doubling (no float root
    # found, or a stall far above t_c), but whose optimum exists; the first is the
    # installed-script bath of CI, whose optimum is the non-Markovian limit (1/sqrt 2)/sqrt(
    # alpha/2) = 1e-42.  coherence_time is made to raise: the optimum never asks for it
    @pytest.mark.parametrize("alpha, omega_c, beta, tau_tilde, n_eff", [
        (1e84, 1.0, 1e97, 1e-5, 24),
        (3.389517684119471e+254, 3.5150479151577314e-18, 1.8001360170499895e+116,
         2.1104986182318358e-236, 4),
        (2.6015057467046815e-97, 49785440517566.06, 5.42044087270669e-171,
         2.643389807454072e-240, 1),
        (1.4780387888364629e+121, 7.217262958119634e-27, 4.370068614685903e+238,
         1.2880206189375592e+201, 208),
        (4.753082095594351e-145, 3.3458197570572135e-47, 1.786505887765638e-123,
         4.592309365766074e+90, 536894),
        (2.1960849842246965e-153, 2.1375735900481425e+59, 3.322662486647167e-39,
         6.940287201802559e-162, 2)])
    def test_ohmic_optimum_where_coherence_time_raises_matches_mpmath(
            self, alpha, omega_c, beta, tau_tilde, n_eff, monkeypatch):
        monkeypatch.setattr(opttime, "coherence_time", no_coherence_time)
        model = BathModel.ohmic(alpha, omega_c, beta)
        tau = mpmath.mpf(tau_opt_numeric(model, tau_tilde, n_eff).tau_opt)
        with mpmath.workdps(50):
            residual = mp_ohmic_residual(model, tau_tilde, n_eff)
            # the residual changes sign within 1e-12 of tau: a root lies there
            assert residual(tau * (1 - mpmath.mpf(1e-12))) < 0 < residual(
                tau * (1 + mpmath.mpf(1e-12)))

    def test_ohmic_solve_takes_few_residual_evaluations(self, monkeypatch):
        # each evaluation of the residual and its slope is one call of Gamma' and tau Gamma''
        slope, taus = opttime._exponent_slopes, []

        def recording(model, tau, xp=math):
            taus.append(tau)
            return slope(model, tau, xp)

        monkeypatch.setattr(opttime, "_exponent_slopes", recording)
        rng = np.random.default_rng(20261018)
        counts = []
        for _ in range(300):
            alpha, omega_c, beta = 10.0 ** rng.uniform([-3.0, -1.0, -2.0], [0.0, 3.0, 2.0])
            model = BathModel.ohmic(alpha, omega_c, beta)
            tau_tilde = 10.0 ** rng.uniform(-4.0, 2.0) * coherence_time(model)
            taus.clear()
            tau_opt_numeric(model, tau_tilde, round(10.0 ** rng.uniform(0.0, 6.0)))
            counts.append(len(taus))
        # the bracket starts at the proven short-time bound and the Markov-limit trial
        assert statistics.median(counts) <= 8
        assert max(counts) <= 20

    @pytest.mark.parametrize("model", [BathModel.ohmic(0.05, 20.0, 0.5),
                                       BathModel.nonmarkovian(1.0)], ids=["ohmic", "nonmarkovian"])
    def test_zero_overhead_never_evaluates_the_residual_at_zero(self, model, monkeypatch):
        # at tau_tilde = 0 the residual's last term is 0/0 at tau = 0; the
        # lower end of the bracket takes its limit -1 instead
        taus, slope = [], opttime._exponent_slopes

        def recording(model, tau, xp=math):
            taus.append(np.min(tau))
            return slope(model, tau, xp)

        monkeypatch.setattr(opttime, "_exponent_slopes", recording)
        opt = tau_opt_numeric(model, 0.0, 100)
        assert opt.tau_opt < coherence_time(model)  # so the bracket starts at 0
        assert abs(opt.residual) < 1e-14
        if model.kind is BathKind.OHMIC:
            opttime._optimal_sensing_times(model, np.zeros(3), np.array([1.0, 100.0, 1e4]))
        assert min(taus) > 0.0

    def test_iteration_cap_raises_solver_error(self, monkeypatch, capsys):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        t_c = coherence_time(model)  # cached before the cap drops
        monkeypatch.setattr("ghzgain.bath._NEWTON_MAX_ITER", 3)
        with pytest.raises(SolverError, match="did not converge in 3 evaluations"):
            tau_opt_numeric(model, 0.1 * t_c, 10)
        with pytest.raises(SolverError, match="did not converge"):
            coherence_time.__wrapped__(model)
        # the array pass leaves the size to the scalar solver, which raises
        rate = opttime._optimal_sensing_times(model, np.array([0.1 * t_c]), np.array([10.0]))[1]
        assert math.isnan(rate[0])
        code = cli_main(["tau-opt", "--model", "ohmic", "--alpha", "0.05", "--omega-c", "20",
                         "--beta", "0.5", "--n", "10", "--ttilde", "0.3"])
        assert code == 4
        assert "did not converge" in capsys.readouterr().err

    def test_optimum_at_an_eta_near_the_largest_float_is_the_closed_form(self):
        # t_c = 7.7e-155 and tau_tilde = 0: Gamma' = 2 (eta tau) stays finite where
        # 2 eta overflows, so the residual brackets the optimum 3.8e-155
        numeric = tau_opt_numeric(BathModel.nonmarkovian(1.7e308), 0.0, 1)
        assert numeric.tau_opt == tau_opt_nonmarkov(1.7e308, 0.0, 1).tau_opt
        assert numeric.tau_opt == 3.8348249442368524e-155
        assert abs(numeric.residual) < 1e-14

    def test_count_too_large_for_a_float_rejected(self):
        with pytest.raises(DomainError, match="largest float"):
            tau_opt_numeric(BathModel.ohmic(0.05, 20.0, 0.5), 0.0, 10**400)

    def test_isolated_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            tau_opt_numeric(BathModel.isolated(1.0), 0.1, 1)

    @pytest.mark.parametrize("g_or_e", [0.25, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("tau_tilde", [0.0, 0.05, 0.2, 1.0, 3.0])
    @pytest.mark.parametrize("n_eff", [1, 10, 100])
    def test_closed_forms_agree_on_grid(self, g_or_e, tau_tilde, n_eff):
        markov = BathModel.markovian(g_or_e)
        closed = tau_opt_markov(g_or_e, tau_tilde, n_eff)
        numeric = tau_opt_numeric(markov, tau_tilde, n_eff)
        assert numeric.tau_opt == pytest.approx(closed.tau_opt, rel=1e-8)

        nonmark = BathModel.nonmarkovian(g_or_e)
        closed = tau_opt_nonmarkov(g_or_e, tau_tilde, n_eff)
        numeric = tau_opt_numeric(nonmark, tau_tilde, n_eff)
        assert numeric.tau_opt == pytest.approx(closed.tau_opt, rel=1e-8)


class TestStationarityResidual:
    def test_zero_at_markov_optimum(self):
        value = stationarity_residual(BathModel.markovian(1.0), 0.0, 1, 0.5)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        value = stationarity_residual(BathModel.nonmarkovian(1.0), 0.0, 1, 0.25)
        assert value == pytest.approx(-0.75)

    def test_sign_change_across_the_optimum(self):
        for model in DEPHASING_MODELS:
            t_c = coherence_time(model)
            opt = optimal_sensing_time(model, 0.4 * t_c, 3)
            assert stationarity_residual(model, 0.4 * t_c, 3, 0.5 * opt.tau_opt) < 0.0
            assert stationarity_residual(model, 0.4 * t_c, 3, 2.0 * opt.tau_opt) > 0.0

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            stationarity_residual(BathModel.markovian(1.0), 0.1, 1, 0.0)

    @pytest.mark.parametrize("tau_tilde", [math.nan, -5.0, math.inf])
    def test_bad_overhead_rejected(self, tau_tilde):
        with pytest.raises(DomainError, match="overhead time"):
            stationarity_residual(BathModel.markovian(1.0), tau_tilde, 1, 0.3)


class TestInteriorMaximum:
    @pytest.mark.parametrize("model", DEPHASING_MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("overhead_factor", [0.0, 0.1, 1.0])
    def test_residual_tiny_and_neighbours_lower(self, model, overhead_factor):
        t_c = coherence_time(model)
        tau_tilde = overhead_factor * t_c
        for n_eff in (1, 5):
            opt = optimal_sensing_time(model, tau_tilde, n_eff)
            assert abs(opt.residual) <= 1e-10
            best = rate(model, tau_tilde, n_eff, opt.tau_opt)
            for sign in (-1.0, 1.0):
                neighbour = opt.tau_opt * (1.0 + sign * 1e-4)
                assert rate(model, tau_tilde, n_eff, neighbour) < best

    def test_objective_field_matches_rate(self):
        for model in [BathModel.isolated(1.0)] + DEPHASING_MODELS:
            tau_tilde = 0.3 * coherence_time(model)
            for n_eff in (1, 5):
                opt = optimal_sensing_time(model, tau_tilde, n_eff)
                expected = rate(model, tau_tilde, n_eff, opt.tau_opt)
                assert opt.objective == pytest.approx(expected, rel=1e-12), (model, n_eff)


@given(
    gamma=st.floats(1e-3, 1e3),
    tau_tilde=st.floats(0.0, 1e2),
    n_eff=st.integers(1, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_markov_closed_form_always_stationary(gamma, tau_tilde, n_eff):
    opt = tau_opt_markov(gamma, tau_tilde, n_eff)
    assert opt.tau_opt > 0.0
    assert abs(opt.residual) < 1e-9


# moderate inputs; test_nonmarkov_optimum_is_stationary_or_a_solver_error
# below takes any finite ones
@given(
    eta=st.floats(1e-3, 1e2),
    tau_tilde=st.floats(0.0, 10.0),
    n_eff=st.integers(1, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_nonmarkov_closed_form_always_stationary(eta, tau_tilde, n_eff):
    opt = tau_opt_nonmarkov(eta, tau_tilde, n_eff)
    assert opt.tau_opt > 0.0
    assert abs(opt.residual) < 1e-9


POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(
    eta=st.one_of(st.floats(1e-3, 1e3), POSITIVE_FLOATS),
    tau_tilde=st.one_of(st.floats(0.0, 1e3), st.just(0.0), POSITIVE_FLOATS),
    n_eff=st.one_of(st.integers(1, 100), st.integers(1, 10**9)),
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_nonmarkov_optimum_is_stationary_or_a_solver_error(caplog, eta, tau_tilde, n_eff):
    # any finite eta > 0, tau_tilde >= 0 and n_eff up to 1e9, so n_eff * eta
    # and the scaled overhead tau_tilde * sqrt(n_eff * eta) overflow too
    model = BathModel.nonmarkovian(eta)
    with caplog.at_level(logging.DEBUG, logger="ghzgain.opttime"):
        tau, rate, _ = opttime._optimal_sensing_times(model, np.array([tau_tilde]),
                                                      np.array([float(n_eff)]))
        try:
            opt = optimal_sensing_time(model, tau_tilde, n_eff)
        except SolverError:
            opt = None
    assert not caplog.records
    if opt is None:
        assert math.isnan(rate[0])
        return
    assert 0.0 < opt.tau_opt < math.inf and 0.0 < opt.objective < math.inf
    assert abs(opt.residual) <= 1e-10  # criterion 6's bound
    assert tau[0] == opt.tau_opt  # one root for floats and arrays
    assert not math.isnan(rate[0])


@given(
    alpha=st.floats(1e-3, 1.0),
    omega_c=st.floats(1e-1, 1e3),
    beta=st.floats(1e-2, 1e2),
    x=st.one_of(st.just(0.0), st.floats(1e-4, 1e2)),
    n_eff=st.integers(1, 10**9),
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_ohmic_bracket_starts_below_the_root(alpha, omega_c, beta, x, n_eff):
    # the residual at the short-time bound tau0 is <= 0, or rounding broke the
    # bound, it is > 0 at tau0 and _newton_root takes the bracket [0, tau0]
    model = BathModel.ohmic(alpha, omega_c, beta)
    tau_tilde = x * coherence_time(model)
    lo, up = opttime._ohmic_bracket(model, tau_tilde, n_eff)
    assert 0.0 < lo < up < math.inf
    tau = tau_opt_numeric(model, tau_tilde, n_eff).tau_opt
    if stationarity_residual(model, tau_tilde, n_eff, lo) <= 0.0:
        assert tau >= lo
    else:
        assert tau <= lo
    # the array path starts every element where the scalar path does
    arrays = opttime._ohmic_bracket(model, np.array([tau_tilde]), np.array([float(n_eff)]), np)
    assert [float(arrays[0][0]), float(arrays[1][0])] == [lo, up]


# at tau_tilde = 1e10 the textbook root (sqrt(b^2 + 8 h tau_tilde) - b)/2 loses its
# digits to cancellation, and at 1e200 the square under the root overflows
@pytest.mark.parametrize("tau_tilde", [1e10, 1e200])
def test_ohmic_bracket_trial_is_the_markov_limit_root(tau_tilde):
    model = BathModel.ohmic(0.05, 20.0, 0.5)
    up = opttime._ohmic_bracket(model, tau_tilde, 1)[1]
    exact = exact_markov_root(model.alpha * (math.pi / model.beta), tau_tilde, 1)
    assert abs(up - exact) <= 1e-15 * exact


def extreme_keys(rng, models, keys):
    """(model, tau_tilde, n) for each of `models` baths of every kind, parameters
    log-uniform in 1e-300..1e300, with `keys` overheads each, 0 or log-uniform up to
    1e308, and counts log-uniform in 1..2^60."""
    factories = {BathModel.isolated: 1, BathModel.markovian: 1, BathModel.nonmarkovian: 1,
                 BathModel.ohmic: 3}
    for factory, count in factories.items():
        for _ in range(models):
            model = factory(*(10.0 ** rng.uniform(-300.0, 300.0, count)).tolist())
            tau_tilde = np.where(rng.random(keys) < 0.1, 0.0,
                                 10.0 ** rng.uniform(-300.0, math.log10(1e308), keys))
            yield model, tau_tilde, np.round(2.0 ** rng.uniform(0.0, 60.0, keys))


def test_array_rate_is_nan_exactly_where_the_scalar_solver_raises():
    # the callers of the array pass raise the scalar error at the first NaN they need,
    # instead of solving it again: no key the array pass rejects has a scalar optimum
    rng, counts = np.random.default_rng(20261020), {"nan": 0, "infeasible": 0, "solved": 0}
    for model, tau_tilde, n in extreme_keys(rng, 40, 25):
        tau, rate, decay = opttime._optimal_sensing_times(model, tau_tilde, n)
        for i, args in enumerate(zip(tau_tilde.tolist(), n.astype(int).tolist())):
            try:
                opt = optimal_sensing_time(model, *args)
            except InfeasibleTimingError:
                assert rate[i] == 0.0
                counts["infeasible"] += 1
                continue
            except SolverError:
                assert math.isnan(rate[i])
                counts["nan"] += 1
                continue
            assert 0.0 < rate[i] < math.inf
            counts["solved"] += 1
            if model.kind is not BathKind.OHMIC:
                assert (tau[i], decay[i]) == (opt.tau_opt, opt.decay)
            assert (tau[i], decay[i]) == pytest.approx((opt.tau_opt, opt.decay), rel=1e-13)
    assert min(counts.values()) >= 100  # each outcome is drawn often
