"""Optimal sensing times.

The duty cycle of one prepare-sense-readout round is tau_tilde + tau,
where tau_tilde is the fixed preparation-plus-readout overhead.  The
sensing time that maximises the information rate F(tau)/(tau_tilde+tau)
satisfies the stationarity condition

    2 * n_eff * tau * Gamma'(tau) = 1 + tau_tilde / (tau_tilde + tau)

with n_eff = 1 for the separable probe and n_eff = N for the GHZ probe
(the two cases differ only by gamma -> N gamma, eta -> N eta, which is
why a single n_eff parameter covers both).

Closed forms exist for the linear decay law (a quadratic in tau) and the
quadratic law (a cubic with one positive root, taken by a fixed number of Newton steps).
A model-agnostic numeric path handles everything else: safeguarded Newton steps on the
stationarity residual, whose sign brackets the root (it is -tau times the slope of the
log rate), with its slope from Gamma' and tau Gamma''; for the Ohmic law a proven
short-time lower bound and a Markov-limit trial seed the bracket.  Each optimum, and the
rate at it, is written once with an xp parameter: the scalar solver runs it on floats,
the array pass on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (
    BathKind,
    BathModel,
    _decay_exponent,
    _exponent_slopes,
    _newton_root,
    _WHERE,
    coherence_time,
    decay_exponent_derivative,
)
from .errors import (
    DivergenceError,
    InfeasibleTimingError,
    SolverError,
    UnsupportedModelError,
    check_count,
    check_finite_nonnegative,
    check_finite_positive,
)
from .qfi import _fisher

__all__ = [
    "OptimalTime",
    "stationarity_residual",
    "tau_opt_isolated",
    "tau_opt_markov",
    "tau_opt_nonmarkov",
    "tau_opt_numeric",
    "optimal_sensing_time",
]

@dataclass(frozen=True, slots=True)
class OptimalTime:
    """A located optimum: the time, the rate it achieves, the stationarity defect
    there (0 by convention for boundary optima), and the decay exp(-2 n_eff
    Gamma(tau_opt)) in (0, 1] that the rate and every F at this optimum take."""

    tau_opt: float
    objective: float
    residual: float
    decay: float


def _rates(weight, tau_tilde, tau, decay, xp=math):
    """(F, F / (tau_tilde + tau)) with F = qfi._fisher(weight, tau, decay, xp), at floats or
    over arrays; the caller keeps tau_tilde + tau > 0 at floats, and quiets numpy."""
    f = _fisher(weight, tau, decay, xp)
    return f, f / (tau_tilde + tau)


def _residual(dg: float, tau_tilde: float, n_eff: int, tau: float) -> float:
    return 2.0 * n_eff * tau * dg - 1.0 - tau_tilde / (tau_tilde + tau)


def _optimum(model: BathModel, tau_tilde: float, n_eff: int, tau: float) -> OptimalTime:
    """The OptimalTime at tau for validated tau_tilde and n_eff, with its residual from
    Gamma'(tau) (0 at an isolated probe's boundary).  Raises InfeasibleTimingError where an
    isolated probe's overhead leaves no sensing time, and SolverError unless tau > 0 and
    the rate is finite and > 0."""
    if not tau > 0.0:
        if model.kind is BathKind.ISOLATED:  # tau = t_c - tau_tilde
            raise InfeasibleTimingError(
                f"overhead {tau_tilde!r} consumes the whole coherence time {model.t_c!r}; "
                "no sensing time remains"
            )
        raise SolverError(f"optimal time underflows at n_eff = {n_eff!r} for {model.to_dict()}")
    decay = math.exp(-2.0 * n_eff * _decay_exponent(model, tau))
    rate = _rates(1.0 * n_eff * n_eff, tau_tilde, tau, decay)[1]
    if not 0.0 < rate < math.inf:
        raise SolverError(f"optimal information rate {rate!r} is not finite and > 0")
    residual = (0.0 if model.kind is BathKind.ISOLATED  # a boundary optimum
                else _residual(_exponent_slopes(model, tau)[0], tau_tilde, n_eff, tau))
    return OptimalTime(tau, rate, residual, decay)


def stationarity_residual(model: BathModel, tau_tilde: float, n_eff: int, tau: float) -> float:
    """2 n_eff tau Gamma'(tau) - 1 - tau_tilde/(tau_tilde + tau).

    Vanishes exactly at an interior maximum of the information rate.
    """
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    tau = check_finite_positive(tau, "sensing time")
    return _residual(decay_exponent_derivative(model, tau), tau_tilde, n_eff, tau)


def tau_opt_isolated(t_c: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Boundary optimum t_c - tau_tilde of a decoherence-free probe.

    Without dephasing the rate grows with tau, so the whole round is
    capped at the coherence time and sensing takes what overhead leaves.
    """
    t_c = check_finite_positive(t_c, "coherence time")
    return optimal_sensing_time(BathModel.isolated(t_c), tau_tilde, n_eff)


def tau_opt_markov(gamma: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Closed-form optimum for Gamma = gamma * tau (rate scaled by n_eff).

    Root of the quadratic stationarity condition:
    1/(4 g) + sqrt((tau_tilde/2 + 1/(4 g))^2 + tau_tilde/(2 g)) - tau_tilde/2
    with g = n_eff * gamma.
    """
    gamma = check_finite_positive(gamma, "dephasing rate")
    return optimal_sensing_time(BathModel.markovian(gamma), tau_tilde, n_eff)


def _markov_root(h, tau_tilde, xp=math):
    """Positive root of tau^2 + (tau_tilde - h) tau - 2 h tau_tilde, the Markovian optimum
    at h = 1/(2 n_eff gamma), at floats (xp = math) or elementwise over arrays (xp = numpy),
    in a form without subtractive cancellation (the textbook form loses the root when
    tau_tilde >> h).  b, tau_tilde and the square under the root are scaled by the power
    of two that takes the larger of h and tau_tilde to [1/2, 1), at most 2^1022 (which
    takes every normal key there), so the square can neither overflow nor underflow, and
    4 h tau_tilde underflows only where the root does; the scale is exact, so no bit moves
    except of a term negligible beside the rest.  The root is 0 only where h tau_tilde
    underflows, and tau then underflows too."""
    where = _WHERE[xp]
    e = -xp.frexp(where(h > tau_tilde, h, tau_tilde))[1]
    s = xp.ldexp(1.0, where(e > 1022, 1022, e))  # 2^1074 is not a double
    b, t = (tau_tilde - h) * s, tau_tilde * s
    root = xp.sqrt(b * b + 8.0 * (h * s) * t)
    pos = (b >= 0.0) & (root > 0.0)
    # h stays unscaled in the numerator, where a scaled h can be subnormal
    return where(pos, 4.0 * h * t / where(pos, b + root, 1.0), 0.5 * (root - b) / s)


# Gamma = eta tau^2 makes the stationarity condition the cubic 4 v^3 + 4 u v^2 - v - 2 u
# = 0 in v = tau sqrt(n_eff eta) and u = tau_tilde sqrt(n_eff eta).  Its coefficient
# signs +, +, -, - give one positive root, rising from 1/2 at u = 0 to 1/sqrt(2) as
# u -> inf.  Over max(1, u) it is s v (2 v - 1)(2 v + 1) + t (4 v^2 - 2), s = 1/max(1, u),
# t = min(u, 1), increasing and convex on v >= 1/2, so Newton's steps from any start there
# fall to the root, a start below it after one overshoot.  From the start taken here,
# exact at u = 0 and u = inf and within 0.005 of the root between, this many leave it
# within an ulp of a 50-digit root in the tests.
_NONMARKOV_STEPS = 4


def _nonmarkov_root(u, xp=math):
    """Positive root v, within an ulp, of 4 v^3 + 4 u v^2 - v - 2 u at a float u >= 0
    (xp = math), or at each element of an array u (xp = numpy), by the same +, * and /."""
    where = _WHERE[xp]
    s, t = 1.0 / where(u > 1.0, u, 1.0), where(u > 1.0, 1.0, u)
    v = (0.5 * s + math.sqrt(2.0) * t) / (s + 2.0 * t)
    for _ in range(_NONMARKOV_STEPS):
        f = s * v * (2.0 * v - 1.0) * (2.0 * v + 1.0) + t * (4.0 * v * v - 2.0)
        v = v - f / (s * (12.0 * v * v - 1.0) + 8.0 * t * v)
    return v


def tau_opt_nonmarkov(eta: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Closed-form optimum for Gamma = eta * tau^2 (rate scaled by n_eff).

    Solved in units of the block coherence time 1/sqrt(n_eff * eta), which
    reduces the cubic to the one-parameter family of _nonmarkov_root, whose
    Newton steps give the same double at floats and over arrays, at any
    overhead.  An n_eff * eta past the largest float raises SolverError.
    """
    eta = check_finite_positive(eta, "decay coefficient")
    return optimal_sensing_time(BathModel.nonmarkovian(eta), tau_tilde, n_eff)


def _ohmic_bracket(model: BathModel, tau_tilde, n_eff, xp=math):
    """(lo, up), the start of the Ohmic optimum's bracket, at floats (xp = math) or over
    arrays.  ln(1 + y) <= y and coth x - 1/x <= x/3 give Gamma' <= 2 eta0 tau, eta0 =
    alpha omega_c^2/2 + alpha (pi/beta)^2/6, so the residual is <= 4 (tau/t)^2 - 1 -
    tau_tilde/(tau_tilde + tau), t = 1/sqrt(n_eff eta0), which is <= 0 at tau0 = (t/2)
    sqrt(1 + tau_tilde/(tau_tilde + t/sqrt 2)) <= t/sqrt 2.  So lo = tau0, and up is the
    larger of 2 tau0 and _markov_root's optimum of the Markov limit gamma = alpha pi/beta;
    where rounding, or eta0 past 1e300, leaves the residual at tau0 > 0, _newton_root
    takes [0, tau0] instead."""
    k = math.pi / model.beta
    eta0 = model.alpha * (0.5 * model.omega_c * model.omega_c + k * k / 6.0)
    t = 1.0 / (xp.sqrt(n_eff) * math.sqrt(min(max(eta0, 1e-300), 1e300)))  # tau0 > 0
    tau0 = 0.5 * t * xp.sqrt(1.0 + tau_tilde / (tau_tilde + math.sqrt(0.5) * t))
    markov = _markov_root(0.5 / (n_eff * max(model.alpha * k, 1e-300)), tau_tilde, xp)
    return tau0, _WHERE[xp](2.0 * tau0 < markov, markov, 2.0 * tau0)


def tau_opt_numeric(model: BathModel, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Model-agnostic interior maximum of the information rate.

    The stationarity residual equals -tau d ln(rate)/d tau: negative while the rate
    rises, positive once it falls, with the limit -1 - [tau_tilde > 0] as tau -> 0 (at
    tau_tilde = 0 it is 0/0 there, so tau = 0 is never evaluated).  The bracket starts
    as [0, t_c], or as _ohmic_bracket seeds it for the Ohmic law.  Its upper end
    doubles, clamped at 2^60 t_c, while the residual there is negative, each becoming
    the lower end; Newton's steps on the residual, with the slope from Gamma' and tau
    Gamma'' and kept inside the bracket, then stop once a step is at most 4 eps tau
    (bath._newton_root).
    """
    if model.kind is BathKind.ISOLATED:
        raise UnsupportedModelError(
            "an isolated probe has no interior optimum; use tau_opt_isolated"
        )
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    return _optimum(model, tau_tilde, n_eff, _numeric_root(model, tau_tilde, n_eff))


def _numeric_root(model: BathModel, tau_tilde, n_eff, xp=math):
    """The time of tau_opt_numeric at floats (xp = math), or elementwise over arrays for
    an Ohmic model, where it is NaN in place of its errors."""

    def res(t):  # the residual and its slope 2 n_eff (Gamma' + t Gamma'') + tau_tilde/s^2
        (dg, t_d2g), s = _exponent_slopes(model, t, xp), tau_tilde + t
        return (_residual(dg, tau_tilde, n_eff, t),
                2.0 * n_eff * (dg + t_d2g) + tau_tilde / s / s)

    t_c = coherence_time(model)
    ohmic = model.kind is BathKind.OHMIC
    lo, up = _ohmic_bracket(model, tau_tilde, n_eff, xp) if ohmic else (0.0, t_c)
    tau = _newton_root(res, lo, up, 2.0 ** 60 * t_c, xp)[0]
    if xp is math and math.isnan(tau):
        raise DivergenceError("information rate still rising after expanding the bracket "
                              "to 2^60 coherence times; no interior maximum found")
    return tau


def _tau_opt(model: BathModel, tau_tilde, n_eff, xp=math):
    """The optimal time at validated floats (xp = math), or elementwise over float arrays
    of overheads >= 0 and counts >= 1 (xp = numpy): the boundary t_c - tau_tilde for an
    isolated probe, the Markov quadratic's root, the non-Markovian cubic's root in units of
    the block coherence time 1/sqrt(n_eff eta), or the numeric root for the Ohmic law.  It
    is not checked: the boundary is <= 0 where the timing is infeasible, and an Ohmic
    array root is NaN where the scalar one raises."""
    if model.kind is BathKind.ISOLATED:
        return model.t_c - tau_tilde
    if model.kind is BathKind.OHMIC:
        return _numeric_root(model, tau_tilde, n_eff, xp)
    if model.kind is BathKind.MARKOVIAN:
        return _markov_root(0.5 / (n_eff * model.gamma), tau_tilde, xp)
    scale = xp.sqrt(n_eff * model.eta)
    return _nonmarkov_root(tau_tilde * scale, xp) / scale


def _optimal_sensing_times(model: BathModel, tau_tilde: np.ndarray,
                           n_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, rate, decay) of optimal_sensing_time over float arrays of overheads >= 0 and
    particle counts >= 1 (not checked), by the same code: the decay takes math.exp per
    key, as the scalar solver does, unless every exponent is 0 (an isolated probe), so
    where the rate is certified it is the scalar one bit for bit.  The rate is 0 where the
    timing is infeasible and NaN where the scalar solver raises (Ohmic root with no
    bracket or no convergence, rate not finite and > 0, overhead not finite): the caller
    calls it on the first such key it needs, for its error."""
    with np.errstate(all="ignore"):
        tau = _tau_opt(model, tau_tilde, n_eff, np)
        exponent = -2.0 * n_eff * _decay_exponent(model, tau, np)
        decay = np.ones_like(exponent)  # exp(-0) = 1
        if exponent.any():
            decay = np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)
        rate = _rates(n_eff * n_eff, tau_tilde, tau, decay, np)[1]
    rate = np.where((rate > 0.0) & (rate < math.inf), rate, math.nan)
    if model.kind is BathKind.ISOLATED:
        rate[tau <= 0.0] = 0.0
    rate[~np.isfinite(tau_tilde)] = math.nan  # for the scalar solver's DomainError
    return tau, rate, decay


def optimal_sensing_time(model: BathModel, tau_tilde: float, n_eff: int) -> OptimalTime:
    """The optimum for the given bath model, by the code the array pass runs.

    Closed forms for the isolated, Markovian and non-Markovian laws, the
    numeric root for the Ohmic one.  It raises InfeasibleTimingError where an
    isolated probe's overhead consumes t_c, and SolverError for an optimum
    whose time underflows or whose rate under- or overflows.
    """
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    return _optimum(model, tau_tilde, n_eff, _tau_opt(model, tau_tilde, n_eff))
