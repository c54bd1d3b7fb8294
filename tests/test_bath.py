import math
import statistics
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgain import (
    BathKind,
    BathModel,
    DomainError,
    SolverError,
    ValidationError,
    coherence_time,
    decay_exponent,
    decay_exponent_derivative,
    ohmic_limit_rates,
)
from ghzgain import bath
from ghzgain.bath import (_DLOG_SINHC, _LOG_SINHC, _by_branch, _exponent_slopes, _newton_root,
                          _ohmic_exponent)


def central_diff(model, tau, h):
    return (decay_exponent(model, tau + h) - decay_exponent(model, tau - h)) / (2 * h)


class TestDecayExponent:
    def test_isolated_is_zero(self):
        assert decay_exponent(BathModel.isolated(1.0), 0.7) == 0.0

    def test_markovian_linear(self):
        assert decay_exponent(BathModel.markovian(2.0), 0.5) == pytest.approx(1.0)

    def test_nonmarkovian_quadratic(self):
        assert decay_exponent(BathModel.nonmarkovian(4.0), 0.5) == pytest.approx(1.0)

    def test_ohmic_zero_time(self):
        assert decay_exponent(BathModel.ohmic(0.1, 10.0, 1.0), 0.0) == 0.0

    def test_ohmic_markovian_regime(self):
        # tau >> beta: the thermal term dominates and Gamma ~ (alpha pi/beta) tau
        model = BathModel.ohmic(0.01, 5.0, 0.01)
        gamma, _ = ohmic_limit_rates(0.01, 0.01, 5.0)
        value = decay_exponent(model, 1.0)
        assert abs(value - gamma * 1.0) / (gamma * 1.0) < 0.05

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            decay_exponent(BathModel.markovian(1.0), -0.1)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    @pytest.mark.parametrize("function", [decay_exponent, decay_exponent_derivative])
    def test_non_finite_time_rejected(self, function, tau):
        with pytest.raises(DomainError, match="finite and non-negative"):
            function(BathModel.isolated(1.0), tau)

    def test_ohmic_no_overflow_over_many_decades(self):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        for exponent in range(-12, 9):
            value = decay_exponent(model, 10.0**exponent)
            assert math.isfinite(value) and value >= 0.0


def _log_sinhc(x, xp=math):
    return _by_branch(_LOG_SINHC, x, xp)


def _dlog_sinhc(x, xp=math):
    return _by_branch(_DLOG_SINHC, x, xp)


def mp_ohmic_exponent(alpha, omega_c, beta, tau):
    """The Ohmic Gamma at the working precision (call under mpmath.workdps(50) or more);
    below pi tau/beta = 1e-5, where sinh(x)/x can round to 1, ln(sinh x/x) takes its
    series x^2/6 - x^4/180 + x^6/2835."""
    a, w, t = mpmath.mpf(alpha), mpmath.mpf(omega_c), mpmath.mpf(tau)
    x = mpmath.pi * t / mpmath.mpf(beta)
    log_sinhc = (x**2 / 6 - x**4 / 180 + x**6 / 2835 if x < mpmath.mpf("1e-5")
                 else mpmath.log(mpmath.sinh(x) / x))
    return a / 2 * mpmath.log1p((w * t) ** 2) + a * log_sinhc


class TestOhmicBranches:
    # the two forms of ln(sinh x / x), and of its slope, meet at 1; 1e-2 down to 1e-12 is
    # the small-x end of the log1p form, and 20 a point well inside the large-x one
    XS = [x * f for x in (1e-2, 1.0, 20.0) for f in (0.999, 1.0, 1.001)] + [
        1e-12, 1e-9, 1e-6, 3e-2, 0.3, 3.0, 200.0]

    def test_log_sinhc_matches_mpmath(self):
        # plus a dense sample of [1, 20), where x + ln(1 - e^(-2x)) - ln(2x) starts
        moderate = np.random.default_rng(20261020).uniform(1.0, 20.0, 20_000).tolist()
        with mpmath.workdps(50):
            for x in np.logspace(-6, 2.5, 400).tolist() + self.XS + moderate:
                exact = mpmath.log(mpmath.sinh(mpmath.mpf(x)) / mpmath.mpf(x))
                assert abs(_log_sinhc(x) - exact) <= 1e-15 * exact

    def test_dlog_sinhc_matches_mpmath(self):
        # coth(x) - 1/x on its continued-fraction and direct forms
        with mpmath.workdps(50):
            for x in np.logspace(-6, 2.5, 400).tolist() + self.XS:
                exact = mpmath.coth(mpmath.mpf(x)) - 1 / mpmath.mpf(x)
                assert abs(_dlog_sinhc(x) - exact) <= 1e-15 * exact
                assert abs(_dlog_sinhc(np.array([x]), np)[0] - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("alpha, omega_c, beta", [(0.05, 20.0, 0.5), (0.1, 100.0, 10.0),
                                                      (0.3, 0.5, 0.02)])
    # "series": x in [1e-12, 1e-2), the small-x end of the log1p form; "large-x" and
    # "asymptotic": the near and far ends of the large-x form
    @pytest.mark.parametrize("x_lo, x_hi", [(1e-12, 1e-2), (1e-2, 1.0), (1.0, 20.0), (20.0, 300.0)],
                             ids=["series", "log1p", "large-x", "asymptotic"])
    def test_ohmic_exponent_matches_mpmath_on_each_branch(self, alpha, omega_c, beta, x_lo, x_hi):
        model = BathModel.ohmic(alpha, omega_c, beta)
        with mpmath.workdps(50):
            for x in np.geomspace(x_lo, x_hi, 40, endpoint=False).tolist():
                tau = x * beta / math.pi
                exact = mp_ohmic_exponent(alpha, omega_c, beta, tau)
                assert abs(decay_exponent(model, tau) - exact) <= 1e-15 * exact

    # both ends of x = pi tau/beta in (max/2, max], where 2x overflows, and one between
    @pytest.mark.parametrize("tau", [2.8611174857570283e307, 3e307, 5.722234971514056e307])
    def test_ohmic_exponent_matches_mpmath_where_2x_overflows(self, tau):
        model = BathModel.ohmic(0.1, 1e-300, 1.0)
        assert 0.5 * sys.float_info.max < math.pi * tau < math.inf
        with mpmath.workdps(50):
            exact = mp_ohmic_exponent(0.1, 1e-300, 1.0, tau)
        assert abs(decay_exponent(model, tau) - exact) <= 1e-15 * exact
        assert _ohmic_exponent(model, np.array([tau]), np)[0] == decay_exponent(model, tau)

    @pytest.mark.parametrize("alpha, omega_c, beta", [(0.05, 20.0, 0.5), (0.1, 100.0, 10.0),
                                                      (0.3, 0.5, 0.02)])
    def test_ohmic_curvature_matches_mpmath(self, alpha, omega_c, beta):
        # tau Gamma'' from L' = 1 - L^2 - 2L/x, measured against the scale |Gamma'| + |tau
        # Gamma''| of the slope it enters: x (1 - L^2) - 2L loses ~eps x for large x
        model = BathModel.ohmic(alpha, omega_c, beta)
        with mpmath.workdps(50):
            a, w, k = mpmath.mpf(alpha), mpmath.mpf(omega_c), mpmath.pi / mpmath.mpf(beta)

            def slope(t):
                wt, kt = w * t, k * t
                return a * w * wt / (1 + wt * wt) + a * k * (mpmath.coth(kt) - 1 / kt)

            for x in np.geomspace(1e-6, 300.0, 120).tolist() + self.XS:
                tau = mpmath.mpf(x * beta / math.pi)
                exact = tau * mpmath.diff(slope, tau)
                curvature = _exponent_slopes(model, float(tau))[1]
                assert abs(curvature - exact) <= 1e-13 * (abs(slope(tau)) + abs(exact))

    # omega_c tau at and past 2^500, where 1 + (omega_c tau)^2 rounds to (omega_c tau)^2,
    # which overflows past ~1.3e154, and just below 2^500; pi tau/beta is kept near pi,
    # since tau Gamma'' loses ~eps x to x (1 - L^2) - 2L at large x
    @pytest.mark.parametrize("alpha, omega_c, beta, tau", [
        (0.1, 1e300, 1.0, 1.0), (0.1, 1.0, 2.0**500, 2.0**500),
        (0.1, 1.0, 2.0**500, 2.0**500 * (1 - 2**-53)),
        (0.3, 13969582.44394353, 1e147, 9.59785876474461e146), (0.05, 1e200, 1e100, 1e100)])
    def test_ohmic_forms_match_mpmath_where_omega_c_tau_is_large(self, alpha, omega_c, beta, tau):
        model = BathModel.ohmic(alpha, omega_c, beta)
        with mpmath.workdps(50):
            a, w, t = mpmath.mpf(alpha), mpmath.mpf(omega_c), mpmath.mpf(tau)
            k = mpmath.pi / mpmath.mpf(beta)
            x, d = k * t, 1 + (w * t) ** 2
            lsh = mpmath.coth(x) - 1 / x
            exact = (mp_ohmic_exponent(alpha, omega_c, beta, tau), a * w * w * t / d + a * k * lsh,
                     a * (w * w * t * (2 - d) / d**2 + k * x * (1 / x**2 - 1 / mpmath.sinh(x) ** 2)))
        got = (decay_exponent(model, tau), decay_exponent_derivative(model, tau),
               _exponent_slopes(model, tau)[1])
        assert abs(got[0] - exact[0]) <= 1e-15 * exact[0]
        assert abs(got[1] - exact[1]) <= 1e-15 * exact[1]
        assert abs(got[2] - exact[2]) <= 1e-14 * (abs(exact[1]) + abs(exact[2]))
        with np.errstate(all="ignore"):  # the array caller quiets numpy
            arrays = (_ohmic_exponent(model, np.array([tau]), np),
                      *_exponent_slopes(model, np.array([tau]), np))
        assert [float(v[0]) for v in arrays] == pytest.approx(got, rel=1e-14)

    # omega_c^2 tau overflows while omega_c tau is below 2^500 (~3.3e150), where Gamma' =
    # alpha [omega_c y/(1 + y^2) + (pi/beta) L(x)], y = omega_c tau, is ~alpha/tau: its cutoff
    # term once took omega_c y first and gave inf
    @pytest.mark.parametrize("omega_c, tau", [(1e300, 1e-200), (1e300, 1e-160), (1e250, 3e-100),
                                              (1.7e308, 1e-158)])
    def test_ohmic_slope_matches_mpmath_where_omega_c_squared_tau_overflows(self, omega_c, tau):
        model = BathModel.ohmic(0.1, omega_c, 1.0)
        assert omega_c * (omega_c * tau) == math.inf and omega_c * tau < 2.0**500
        with mpmath.workdps(50):
            w, t, k = mpmath.mpf(omega_c), mpmath.mpf(tau), mpmath.pi
            x = k * t  # coth x - 1/x = x/3 - x^3/45 + ..: x/3 to 40 digits below 1e-20
            lsh = x / 3 if x < mpmath.mpf("1e-20") else mpmath.coth(x) - 1 / x
            exact = mpmath.mpf(0.1) * (w * w * t / (1 + (w * t) ** 2) + k * lsh)
        assert abs(decay_exponent_derivative(model, tau) - exact) <= 1e-15 * exact
        with np.errstate(all="ignore"):  # the array caller quiets numpy
            got = _exponent_slopes(model, np.array([tau]), np)[0][0]
        assert abs(got - exact) <= 1e-15 * exact

    def test_array_log_sinhc_matches_the_float_form(self):
        xs = np.array(self.XS + np.logspace(-6, 2.5, 400).tolist())
        for x, value in zip(xs.tolist(), _log_sinhc(xs, np)):
            assert value == pytest.approx(_log_sinhc(x), rel=1e-15)

    def test_array_forms_take_the_same_branches(self):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        # times that put pi tau / beta on both sides of each cut-off
        taus = np.array([x * 0.5 / math.pi for x in self.XS])
        gammas = _ohmic_exponent(model, taus, np)
        slopes, curvatures = _exponent_slopes(model, taus, np)
        for tau, g, dg, c in zip(taus.tolist(), gammas, slopes, curvatures):
            assert g == pytest.approx(decay_exponent(model, tau), rel=1e-14)
            assert dg == pytest.approx(decay_exponent_derivative(model, tau), rel=1e-14)
            assert c == pytest.approx(_exponent_slopes(model, tau)[1], rel=1e-14)


class TestDerivative:
    def test_markovian_constant(self):
        assert decay_exponent_derivative(BathModel.markovian(3.0), 9.0) == 3.0

    def test_nonmarkovian_linear(self):
        assert decay_exponent_derivative(BathModel.nonmarkovian(4.0), 0.25) == pytest.approx(2.0)

    def test_ohmic_matches_finite_difference(self):
        model = BathModel.ohmic(0.1, 10.0, 1.0)
        exact = decay_exponent_derivative(model, 0.3)
        approx = central_diff(model, 0.3, 1e-6)
        assert abs(exact - approx) / abs(approx) < 1e-6

    def test_all_models_match_finite_differences_on_log_grid(self):
        models = [
            BathModel.markovian(1.3),
            BathModel.nonmarkovian(0.7),
            BathModel.ohmic(0.08, 12.0, 0.6),
        ]
        taus = [10 ** (-3 + 4 * i / 24) for i in range(25)]
        for model in models:
            for tau in taus:
                exact = decay_exponent_derivative(model, tau)
                approx = central_diff(model, tau, 1e-6 * tau)
                assert abs(exact - approx) <= 1e-6 * abs(approx), (model.kind, tau)

    def test_ohmic_zero_time_limit(self):
        assert decay_exponent_derivative(BathModel.ohmic(0.1, 10.0, 1.0), 0.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            decay_exponent_derivative(BathModel.nonmarkovian(1.0), -1e-9)


class TestCoherenceTime:
    def test_markovian(self):
        assert coherence_time(BathModel.markovian(4.0)) == pytest.approx(0.25)

    @pytest.mark.parametrize("gamma", [5e-324, 5.5e-309])
    def test_markovian_whose_inverse_overflows_raises(self, gamma):
        # 1/gamma past the largest float: inf would pass for a coherence time
        with pytest.raises(SolverError, match="1/gamma must be finite and positive, got inf"):
            coherence_time(BathModel.markovian(gamma))
        assert coherence_time(BathModel.markovian(5.57e-309)) == 1.0 / 5.57e-309

    def test_nonmarkovian(self):
        assert coherence_time(BathModel.nonmarkovian(16.0)) == pytest.approx(0.25)

    def test_isolated_passthrough(self):
        assert coherence_time(BathModel.isolated(1.0)) == 1.0

    def test_ohmic_root_of_unit_exponent(self):
        model = BathModel.ohmic(0.05, 20.0, 0.5)
        t_c = coherence_time(model)
        assert decay_exponent(model, t_c) == pytest.approx(1.0, rel=1e-9)

    def test_ohmic_matches_mpmath_root(self):
        rng = np.random.default_rng(20261018)
        for _ in range(120):
            alpha, omega_c, beta = 10.0 ** rng.uniform([-3.0, -1.0, -2.0], [0.0, 3.0, 2.0])
            t_c = coherence_time(BathModel.ohmic(alpha, omega_c, beta))
            with mpmath.workdps(50):
                root = mpmath.findroot(lambda t: mp_ohmic_exponent(alpha, omega_c, beta, t) - 1,
                                       (t_c / 2, 2 * t_c), solver="anderson")
                assert abs(t_c - root) <= 1e-14 * root

    def test_ohmic_takes_few_exponent_evaluations(self, monkeypatch):
        exponent, taus = bath.decay_exponent, []

        def recording(model, tau):
            taus.append(tau)
            return exponent(model, tau)

        monkeypatch.setattr(bath, "decay_exponent", recording)
        rng = np.random.default_rng(20261018)
        counts = []
        for _ in range(300):
            alpha, omega_c, beta = 10.0 ** rng.uniform([-3.0, -1.0, -2.0], [0.0, 3.0, 2.0])
            taus.clear()
            coherence_time.__wrapped__(BathModel.ohmic(alpha, omega_c, beta))
            counts.append(len(taus))
        # Newton's steps with Gamma' as the slope, from the end of the bracket nearer the root
        assert statistics.median(counts) <= 6
        assert max(counts) <= 16

    def test_ohmic_limits_recover_simple_laws(self):
        # deep Markovian regime: t_c should approach 1/gamma
        model = BathModel.ohmic(0.001, 5000.0, 1e-4)
        gamma, _ = ohmic_limit_rates(0.001, 1e-4, 5000.0)
        assert coherence_time(model) == pytest.approx(1.0 / gamma, rel=0.1)

    # each bath's Newton root was once returned as t_c: the last doubling of the bracket
    # passed its end, so pi tau overflowed (Gamma = 6e-188); the true root underflows (Gamma =
    # 3,520 at the smallest subnormal); (omega_c tau)^2 overflowed (Gamma = 2.2e-120)
    @pytest.mark.parametrize("alpha, omega_c, beta", [
        (1e-200, 1e-300, 3e295), (1e3, 1.0, 5e-324),
        (6.254697535355251e-190, 13969582.44394353, 8.504173854606198e77)])
    def test_a_root_that_misses_gamma_1_raises(self, alpha, omega_c, beta):
        with pytest.raises(SolverError, match="never reaches 1"):
            coherence_time.__wrapped__(BathModel.ohmic(alpha, omega_c, beta))

    @pytest.mark.parametrize("alpha, omega_c, beta", [(1.0, 1e15, 1.0), (0.3, 1e20, 1e-3)])
    def test_a_root_below_the_bracket_is_found(self, alpha, omega_c, beta):
        # Gamma(1e-12 beta) > 1: the search takes [0, 1e-12 beta]
        model = BathModel.ohmic(alpha, omega_c, beta)
        assert decay_exponent(model, 1e-12 * beta) > 1.0
        t_c = coherence_time.__wrapped__(model)
        with mpmath.workdps(50):
            root = mpmath.findroot(lambda t: mp_ohmic_exponent(alpha, omega_c, beta, t) - 1,
                                   (t_c / 2, 2 * t_c), solver="anderson")
        assert t_c < 1e-12 * beta and abs(t_c - root) <= 1e-14 * root

    def test_every_returned_t_c_of_an_extreme_bath_is_a_root(self):
        rng, found = np.random.default_rng(20261020), 0
        for _ in range(1500):
            alpha, omega_c, beta = (10.0 ** rng.uniform(-300.0, 300.0, 3)).tolist()
            try:
                t_c = coherence_time.__wrapped__(BathModel.ohmic(alpha, omega_c, beta))
            except SolverError:
                continue
            assert sys.float_info.min <= t_c < math.inf
            with mpmath.workdps(60):
                assert abs(mp_ohmic_exponent(alpha, omega_c, beta, t_c) - 1) <= 1e-13
            found += 1
        assert found >= 150


class TestOhmicLimitRates:
    def test_direct_substitution(self):
        assert ohmic_limit_rates(1.0, math.pi, 2.0) == pytest.approx((1.0, 2.0))

    def test_zero_coupling(self):
        assert ohmic_limit_rates(0.0, 1.0, 1.0) == (0.0, 0.0)

    def test_high_precision_values(self):
        gamma, eta = ohmic_limit_rates(0.01, 0.5, 100.0)
        assert gamma == pytest.approx(0.06283185307179586, rel=1e-15)
        assert eta == pytest.approx(50.0, rel=1e-15)

    @pytest.mark.parametrize("beta,omega_c", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_domain_errors(self, beta, omega_c):
        with pytest.raises(DomainError):
            ohmic_limit_rates(0.1, beta, omega_c)


class TestLimitConsistency:
    def test_markovian_limit_error_decreases(self):
        # fixed bath, growing tau/beta with omega_c tau >> 1 throughout
        alpha, omega_c, beta = 0.1, 1000.0, 0.01
        model = BathModel.ohmic(alpha, omega_c, beta)
        gamma = alpha * math.pi / beta
        ratios = [50.0 * (500.0 / 50.0) ** (i / 11) for i in range(12)]
        errors = []
        for ratio in ratios:
            tau = ratio * beta
            value = decay_exponent(model, tau)
            errors.append(abs(value - gamma * tau) / value)
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_nonmarkovian_limit_agreement(self):
        # tau/beta <= 1e-3 and omega_c tau <= 1e-2 (beta omega_c = 100)
        alpha, omega_c, beta = 0.1, 100.0, 1.0
        model = BathModel.ohmic(alpha, omega_c, beta)
        eta = alpha * omega_c**2 / 2.0
        for i in range(20):
            tau = 10 ** (-7 + 3 * i / 19)
            value = decay_exponent(model, tau)
            assert abs(value - eta * tau * tau) / value <= 1e-3, tau


class TestModelValidation:
    def test_kinds_and_coherence_invariants(self):
        assert BathModel.markovian(2.0).kind is BathKind.MARKOVIAN
        assert coherence_time(BathModel.markovian(2.0)) == 0.5
        assert coherence_time(BathModel.nonmarkovian(4.0)) == 0.5

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BathModel.isolated(0.0),
            lambda: BathModel.markovian(-1.0),
            lambda: BathModel.nonmarkovian(0.0),
            lambda: BathModel.ohmic(0.0, 1.0, 1.0),
            lambda: BathModel(BathKind.MARKOVIAN),
            lambda: BathModel(BathKind.MARKOVIAN, gamma=1.0, t_c=1.0),
            lambda: BathModel.markovian(math.inf),
            lambda: BathModel.nonmarkovian(math.nan),
            lambda: BathModel.ohmic(0.05, math.inf, 0.5),
            lambda: BathModel.markovian(True),
            lambda: BathModel.markovian("1.0"),
        ],
    )
    def test_invalid_models_rejected(self, factory):
        with pytest.raises(ValidationError):
            factory()

    def test_json_round_trip(self):
        for model in (
            BathModel.isolated(2.0),
            BathModel.markovian(0.5),
            BathModel.nonmarkovian(3.0),
            BathModel.ohmic(0.05, 20.0, 0.5),
        ):
            assert BathModel.from_dict(model.to_dict()) == model

    def test_from_dict_diagnostics(self):
        with pytest.raises(ValidationError, match="kind"):
            BathModel.from_dict({"gamma": 1.0})
        with pytest.raises(ValidationError, match="unknown bath kind"):
            BathModel.from_dict({"kind": "lindblad"})
        with pytest.raises(ValidationError, match="gamma"):
            BathModel.from_dict({"kind": "markovian"})
        with pytest.raises(ValidationError, match="t_c"):
            BathModel.from_dict({"kind": "markovian", "gamma": 1.0, "t_c": 2.0})
        with pytest.raises(ValidationError, match="unknown field 'rate'"):
            BathModel.from_dict({"kind": "markovian", "rate": 1.0})
        with pytest.raises(ValidationError, match="'gamma' must be a number"):
            BathModel.from_dict({"kind": "markovian", "gamma": "1.0"})


@given(
    alpha=st.floats(1e-4, 10.0),
    omega_c=st.floats(1e-2, 1e4),
    beta=st.floats(1e-4, 1e2),
    tau_lo=st.floats(0.0, 1e3),
    step=st.floats(1e-9, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_ohmic_exponent_starts_at_zero_and_never_decreases(alpha, omega_c, beta, tau_lo, step):
    model = BathModel.ohmic(alpha, omega_c, beta)
    assert decay_exponent(model, 0.0) == 0.0
    assert decay_exponent(model, tau_lo + step) >= decay_exponent(model, tau_lo)


@pytest.mark.parametrize(
    "model",
    [
        BathModel.isolated(1.0),
        BathModel.markovian(1.0),
        BathModel.nonmarkovian(1.0),
        BathModel.ohmic(0.05, 20.0, 0.5),
    ],
)
def test_exponent_nondecreasing_up_to_ten_coherence_times(model):
    t_c = coherence_time(model)
    taus = [10.0 * t_c * i / 400 for i in range(401)]
    values = [decay_exponent(model, tau) for tau in taus]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))


class TestNewtonRoot:
    # cubics x^3 + c x - 1 with one root in each bracket; numpy and math agree on them
    CASES = [(c, lo, 2.0) for c in (0.1, 0.5, 1.0, 3.0, 7.0) for lo in (0.0, 0.125)]

    @staticmethod
    def cubic(c, slope=None):
        """x -> (f(x), f'(x)), with the slope replaced by slope if given; records x."""
        def f(x):
            f.xs.append(x)
            return x * x * x + c * x - 1.0, 3.0 * x * x + c if slope is None else slope
        f.xs = []
        return f

    @staticmethod
    def solve(f, lo, hi, xp=math, cap=None):
        f.xs.clear()
        return _newton_root(f, lo, hi, hi if cap is None else cap, xp)

    @staticmethod
    def exact_root(c):
        with mpmath.workdps(50):
            return mpmath.findroot(lambda t: t**3 + c * t - 1, 0.5)

    @pytest.mark.parametrize("c, lo, hi", CASES)
    def test_root_to_four_eps(self, c, lo, hi):
        f = self.cubic(c)
        x, fx = self.solve(f, lo, hi)
        assert fx == f(x)[0]
        root = self.exact_root(c)
        assert abs(x - root) <= 4 * sys.float_info.epsilon * root

    def test_array_form_takes_the_same_steps(self):
        c, lo, hi = (np.array(column) for column in zip(*self.CASES))
        f = self.cubic(c)
        x, fx = self.solve(f, lo, hi, np)
        for i, case in enumerate(self.CASES):
            g = self.cubic(case[0])
            assert x[i] == self.solve(g, *case[1:])[0]
            # a converged element stands still: its points are the scalar ones, then repeats;
            # arrays evaluate f at every lower end, floats not at lo = 0
            points = [float(xs[i]) for xs in f.xs][case[1] == 0.0:]
            assert points[:len(g.xs)] == g.xs and set(points[len(g.xs):]) <= {x[i]}

    def test_a_zero_end_is_the_root(self):
        f = self.cubic(0.0)  # root 1, at the lower end of [1, 3] and the upper end of [0, 1]
        assert self.solve(f, 1.0, 3.0) == (1.0, 0.0) and f.xs == [1.0, 3.0]
        assert self.solve(f, 0.0, 1.0) == (1.0, 0.0) and f.xs == [1.0]  # f(0) is not taken
        x, fx = self.solve(f, np.array([1.0, 0.0]), np.array([3.0, 1.0]), np)
        assert x.tolist() == [1.0, 1.0] and fx.tolist() == [0.0, 0.0] and len(f.xs) == 2

    def test_the_upper_end_doubles_up_to_the_cap(self):
        f = self.cubic(1.0)  # root 0.68, above [0, 0.125]: the upper end doubles to 1
        x, fx = self.solve(f, 0.0, 0.125, cap=1.0)
        assert f.xs[:4] == [0.125, 0.25, 0.5, 1.0] and abs(x - self.exact_root(1.0)) <= 1e-15
        # the cap stops it at 0.5, where f < 0: no root, NaN in both forms
        assert math.isnan(self.solve(f, 0.0, 0.125, cap=0.5)[0]) and f.xs == [0.125, 0.25, 0.5]
        x = self.solve(f, np.array([0.0, 0.0]), np.array([0.125, 0.125]), np,
                       np.array([1.0, 0.5]))[0]
        assert x[0] == self.solve(f, 0.0, 0.125, cap=1.0)[0] and math.isnan(x[1])

    @pytest.mark.parametrize("cap, found", [(0.75, True), (0.6, False)])
    def test_the_upper_end_stops_at_a_cap_between_doublings(self, cap, found):
        f = self.cubic(1.0)  # root 0.68: f(0.75) > 0 > f(0.6); doubling 0.125 gives 0.5, 1
        x = self.solve(f, 0.0, 0.125, cap=cap)[0]
        assert f.xs[:4] == [0.125, 0.25, 0.5, cap] and max(f.xs) == cap
        assert abs(x - self.exact_root(1.0)) <= 1e-15 if found else math.isnan(x)
        xs = self.solve(f, np.zeros(2), np.full(2, 0.125), np, np.array([cap, 1.0]))[0]
        assert xs[0] == x or math.isnan(xs[0]) and math.isnan(x)

    @pytest.mark.parametrize("xp", [math, np])
    def test_a_positive_lower_end_brackets_from_zero(self, xp):
        # f(0.9) > 0: the root 0.68 lies below lo, and the bracket is [0, 0.9]
        f = self.cubic(1.0)
        lo, hi = (0.9, 2.0) if xp is math else (np.array([0.9]), np.array([2.0]))
        x = np.ravel(self.solve(f, lo, hi, xp, cap=4.0)[0])[0]
        points = np.ravel(f.xs).tolist()
        assert points[:2] == [0.9, 0.9] and max(points) == 0.9
        assert abs(x - self.exact_root(1.0)) <= 4 * sys.float_info.epsilon

    @pytest.mark.parametrize("slope", [0.0, math.inf, math.nan])
    @pytest.mark.parametrize("c, lo, hi", CASES)
    def test_a_bad_slope_bisects_to_the_root(self, slope, c, lo, hi):
        # a step of -f/0 would divide by 0 and -f/inf would stand still at a non-root;
        # both bisect, and bisection stops at a relative bracket width of 8 eps
        f = self.cubic(c, slope)
        x, fx = self.solve(f, lo, hi)
        root = self.exact_root(c)
        assert abs(x - root) <= 8 * sys.float_info.epsilon * root
        assert self.solve(f, np.array([lo]), np.array([hi]), np)[0].tolist() == [x]
