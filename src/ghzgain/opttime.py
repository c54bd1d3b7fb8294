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
quadratic law (a cubic with one positive root, taken by Viete's real forms
and one Newton step, shared by the scalar and array paths).  A model-agnostic
numeric path handles everything else: Brent's zero finder on the stationarity
residual, whose sign brackets the root (it is -tau times the slope of the log
rate).  For the Ohmic law a proven short-time lower bound and a Markov-limit
trial seed the bracket, on both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (
    BathKind,
    BathModel,
    _brent,
    _brent_arrays,
    _by_branch,
    _decay_exponent,
    _ohmic_exponent_derivative,
    coherence_time,
    decay_exponent,
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
    """A located optimum: the time, the rate it achieves, and the
    stationarity defect there (0 by convention for boundary optima)."""

    tau_opt: float
    objective: float
    residual: float


def _rate(g, tau_tilde, n_eff, tau, xp=math):
    """QFI rate n_eff^2 tau^2 exp(-2 n_eff g) / (tau_tilde + tau), g = Gamma(tau), at
    floats (xp = math) or elementwise over float arrays (xp = numpy).

    For n_eff = N this is the rate of an N-particle GHZ block; for
    n_eff = 1 it is the per-particle rate of the separable strategy.  The
    square is a float: an int square past ~1.3e154 overflows in `* tau`.
    """
    return 1.0 * n_eff * n_eff * tau * tau * xp.exp(-2.0 * n_eff * g) / (tau_tilde + tau)


def _residual(dg: float, tau_tilde: float, n_eff: int, tau: float) -> float:
    return 2.0 * n_eff * tau * dg - 1.0 - tau_tilde / (tau_tilde + tau)


def _optimum(tau, g, tau_tilde, n_eff, at, dg=None, residual=0.0) -> OptimalTime:
    """The OptimalTime at tau, given g = Gamma(tau) and, for an interior optimum,
    dg = Gamma'(tau) or its residual.  Raises SolverError, naming at = (quantity,
    value), unless tau > 0 and the rate is finite and > 0."""
    if not tau > 0.0:
        raise SolverError(f"optimal time underflows at {at[0]} = {at[1]!r}")
    rate = _rate(g, tau_tilde, n_eff, tau)
    if not 0.0 < rate < math.inf:
        raise SolverError(f"optimal information rate {rate!r} is not finite and > 0")
    if dg is not None:
        residual = _residual(dg, tau_tilde, n_eff, tau)
    return OptimalTime(tau, rate, residual)


def stationarity_residual(model: BathModel, tau_tilde: float, n_eff: int, tau: float) -> float:
    """2 n_eff tau Gamma'(tau) - 1 - tau_tilde/(tau_tilde + tau).

    Vanishes exactly at an interior maximum of the information rate.
    """
    n_eff = check_count(n_eff, "effective particle count")
    tau = check_finite_positive(tau, "sensing time")
    return _residual(decay_exponent_derivative(model, tau), tau_tilde, n_eff, tau)


def tau_opt_isolated(t_c: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Boundary optimum t_c - tau_tilde of a decoherence-free probe.

    Without dephasing the rate grows with tau, so the whole round is
    capped at the coherence time and sensing takes what overhead leaves.
    """
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    t_c = check_finite_positive(t_c, "coherence time")
    n_eff = check_count(n_eff, "effective particle count")
    if tau_tilde >= t_c:
        raise InfeasibleTimingError(
            f"overhead {tau_tilde!r} consumes the whole coherence time {t_c!r}; "
            "no sensing time remains"
        )
    return _optimum(t_c - tau_tilde, 0.0, tau_tilde, n_eff, ("coherence time", t_c))


def tau_opt_markov(gamma: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Closed-form optimum for Gamma = gamma * tau (rate scaled by n_eff).

    Root of the quadratic stationarity condition:
    1/(4 g) + sqrt((tau_tilde/2 + 1/(4 g))^2 + tau_tilde/(2 g)) - tau_tilde/2
    with g = n_eff * gamma.
    """
    gamma = check_finite_positive(gamma, "dephasing rate")
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    # positive root of tau^2 + (tau_tilde - h) tau - 2 h tau_tilde with
    # h = 1/(2 n_eff gamma), evaluated without subtractive cancellation
    # (the textbook form loses the root when tau_tilde >> h); b = root = 0
    # only when h * tau_tilde underflows, and tau then underflows as well
    h = 0.5 / (n_eff * gamma)
    b = tau_tilde - h
    root = math.sqrt(b * b + 8.0 * h * tau_tilde)
    if root == math.inf:
        tau = _markov_root_scaled(h, tau_tilde)
    elif b >= 0.0 and root > 0.0:
        tau = 4.0 * h * tau_tilde / (b + root)
    else:
        tau = 0.5 * (root - b)
    return _optimum(tau, gamma * tau, tau_tilde, n_eff, ("n_eff * gamma", n_eff * gamma), gamma)


def _markov_root_scaled(h: float, tau_tilde: float) -> float:
    """tau_opt_markov's root where b * b + 8 h tau_tilde overflows: the same
    formula with b, h and tau_tilde scaled by a power of two below the larger
    of h and tau_tilde, so no bit moves except of a term negligible beside it."""
    s = math.ldexp(1.0, -math.frexp(max(h, tau_tilde))[1])
    b, t = (tau_tilde - h) * s, tau_tilde * s
    root = math.sqrt(b * b + 8.0 * (h * s) * t)
    return 4.0 * h * (t / (b + root)) if b >= 0.0 else 0.5 * (root - b) / s


def _acos(x, xp):
    """arccos of x clamped to [-1, 1] (numpy 1.x has no xp.acos)."""
    if xp is math:
        return math.acos(min(max(x, -1.0), 1.0))
    return np.arccos(np.minimum(np.maximum(x, -1.0), 1.0))


def _viete(a, b, c, trig, xp):
    """Largest real root of x^3 + a x^2 + b x + c by Viete's forms (Numerical
    Recipes 3rd ed., 5.6): trigonometric for three real roots, else
    hyperbolic, for r < 0.  Both are stationary in the clamped quantity
    where the discriminant vanishes, so rounding there costs nothing."""
    q = (a * a - 3.0 * b) / 9.0
    r = (a * (2.0 * a * a - 9.0 * b) + 27.0 * c) / 54.0
    if trig:
        sq = xp.sqrt(q)
        return 2.0 * sq * xp.cos(_acos(-r / (q * sq), xp) / 3.0) - a / 3.0
    d = r * r - q * q * q
    m = (xp.sqrt(d * (d > 0.0)) - r) ** (1.0 / 3.0)  # d clamped at 0
    return m + q / m - a / 3.0


def _newton(v, s, t):
    """v after a Newton step on s v (2 v - 1)(2 v + 1) + t (4 v^2 - 2): the
    cubic below at s = 1, t = u, the cubic over u at s = 1/u, t = 1."""
    f = s * v * (2.0 * v - 1.0) * (2.0 * v + 1.0) + t * (4.0 * v * v - 2.0)
    return v - f / (s * (12.0 * v * v - 1.0) + 8.0 * t * v)


# The stationarity condition of Gamma = eta tau^2 is the cubic 4 v^3 + 4 u v^2
# - v - 2 u = 0 in v = tau sqrt(n_eff eta) and u = tau_tilde sqrt(n_eff eta).
# Its coefficient signs +, +, -, - give one positive root, the largest, rising
# from 1/2 at u = 0 to 1/sqrt(2) as u -> inf.  The edges are the zeros of its
# discriminant 13.5 u^4 - 29.953125 u^2 + 0.421875: three real roots below the
# first and above the second, one between.  Above, the root is taken of the cubic
# in z = 1/v, z^3 + z^2/(2u) - 2z - 2/u, whose coefficients stay bounded.
_NONMARKOV_ROOT_EDGES = (0.11905909539093985, 1.484781105686859)
_NONMARKOV_ROOT = (
    lambda u, u2, xp: _newton(_viete(u, -0.25, -0.5 * u, True, xp), 1.0, u),
    lambda u, u2, xp: _newton(_viete(u, -0.25, -0.5 * u, False, xp), 1.0, u),
    lambda u, u2, xp: _newton(1.0 / _viete(0.5 / u, -2.0, -2.0 / u, True, xp), 1.0 / u, 1.0),
)


def _nonmarkov_root(u, xp=math):
    """Positive root v, within an ulp, of 4 v^3 + 4 u v^2 - v - 2 u at a float
    u >= 0 (xp = math), or at each element of an array u (xp = numpy)."""
    return _by_branch(_NONMARKOV_ROOT, _NONMARKOV_ROOT_EDGES, u, xp)


def tau_opt_nonmarkov(eta: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Closed-form optimum for Gamma = eta * tau^2 (rate scaled by n_eff).

    Solved in units of the block coherence time 1/sqrt(n_eff * eta), which
    reduces the cubic to the one-parameter family of _nonmarkov_root, at any
    overhead.  An n_eff * eta past the largest float raises SolverError.
    """
    eta = check_finite_positive(eta, "decay coefficient")
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    scale = math.sqrt(n_eff * eta)
    tau = _nonmarkov_root(tau_tilde * scale) / scale
    return _optimum(tau, eta * tau * tau, tau_tilde, n_eff, ("n_eff * eta", n_eff * eta),
                    2.0 * (eta * tau))  # 2 eta may overflow


def _ohmic_bracket(model: BathModel, tau_tilde, n_eff, res, f_zero, xp=math):
    """(lo, f_lo, up), the start of the Ohmic optimum's bracket, at floats (xp = math) or
    over arrays, for the residual res with the limit f_zero at 0.  ln(1 + y) <= y and
    coth x - 1/x <= x/3 give Gamma' <= 2 eta0 tau, eta0 = alpha omega_c^2/2 + alpha
    (pi/beta)^2/6, so the residual is <= 4 (tau/t)^2 - 1 - tau_tilde/(tau_tilde + tau),
    t = 1/sqrt(n_eff eta0), which is <= 0 at tau0 = (t/2) sqrt(1 + tau_tilde/(tau_tilde
    + t/sqrt 2)) <= t/sqrt 2.  So lo = tau0, and up is the larger of 2 tau0 and the finite
    optimum of the Markov limit gamma = alpha pi/beta; but where rounding, or eta0 past
    1e300, leaves the residual at tau0 > 0, the bracket is [0, tau0]."""
    k = math.pi / model.beta
    eta0 = model.alpha * (0.5 * model.omega_c * model.omega_c + k * k / 6.0)
    t = 1.0 / (xp.sqrt(n_eff) * math.sqrt(min(max(eta0, 1e-300), 1e300)))  # tau0 > 0
    tau0 = 0.5 * t * xp.sqrt(1.0 + tau_tilde / (tau_tilde + math.sqrt(0.5) * t))
    h = 0.5 / (n_eff * max(model.alpha * k, 1e-300))
    b = tau_tilde - h
    markov = 0.5 * (xp.sqrt(b * b + 8.0 * h * tau_tilde) - b)
    f0 = res(tau0)
    if xp is math:
        up = markov if 2.0 * tau0 < markov < math.inf else 2.0 * tau0
        return (tau0, f0, up) if f0 <= 0.0 else (0.0, f_zero, tau0)
    up, ok = np.where((2.0 * tau0 < markov) & (markov < math.inf), markov, 2.0 * tau0), f0 <= 0.0
    return np.where(ok, tau0, 0.0), np.where(ok, f0, f_zero), np.where(ok, up, tau0)


def tau_opt_numeric(model: BathModel, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Model-agnostic interior maximum of the information rate.

    The stationarity residual equals -tau d ln(rate)/d tau: negative while
    the rate rises, positive once it falls, with the limit -1 - [tau_tilde
    > 0] as tau -> 0 (at tau_tilde = 0 it is 0/0 there, so tau = 0 is
    never evaluated).  The bracket starts as [0, t_c], or as _ohmic_bracket
    seeds it for the Ohmic law.  Its upper end doubles, up to 2^60 t_c, while the
    residual there is not positive, each becoming the lower end; Brent's
    zero finder then narrows the root to a relative width of 4 eps.
    """
    if model.kind is BathKind.ISOLATED:
        raise UnsupportedModelError(
            "an isolated probe has no interior optimum; use tau_opt_isolated"
        )
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")

    # every t below is finite and >= 0: the Ohmic form skips the checks and dispatch
    slope = (_ohmic_exponent_derivative if model.kind is BathKind.OHMIC
             else decay_exponent_derivative)

    def res(t: float) -> float:
        return _residual(slope(model, t), tau_tilde, n_eff, t)

    lo, f_lo, up = 0.0, -2.0 if tau_tilde > 0.0 else -1.0, coherence_time(model)
    if model.kind is BathKind.OHMIC:
        lo, f_lo, up = _ohmic_bracket(model, tau_tilde, n_eff, res, f_lo)
    while not (f_up := res(up)) > 0.0:
        if up >= 2.0 ** 60 * coherence_time(model):
            raise DivergenceError("information rate still rising after expanding the bracket "
                                  "to 2^60 coherence times; no interior maximum found")
        lo, f_lo, up = up, f_up, 2.0 * up
    tau, residual = _brent(res, lo, up, f_lo, f_up)
    return _optimum(tau, decay_exponent(model, tau), tau_tilde, n_eff,
                    ("coherence time", coherence_time(model)), residual=residual)


def _optimal_sensing_times(model: BathModel, tau_tilde: np.ndarray,
                           n_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tau, rate) of optimal_sensing_time over float arrays of overheads
    >= 0 and particle counts >= 1 (not checked), by the same formulas; rate
    is 0 where the timing is infeasible and NaN where this path cannot
    certify the optimum (Ohmic root with no bracket or no convergence, rate
    not finite and > 0, overhead not finite), for optimal_sensing_time to
    re-solve or reject."""
    ok = True
    with np.errstate(all="ignore"):
        if model.kind is BathKind.ISOLATED:
            tau = coherence_time(model) - tau_tilde
        elif model.kind is BathKind.MARKOVIAN:
            h = 0.5 / (n_eff * model.gamma)
            b = tau_tilde - h
            root = np.sqrt(b * b + 8.0 * h * tau_tilde)
            tau = np.where((b >= 0.0) & (root > 0.0), 4.0 * h * tau_tilde / (b + root),
                           0.5 * (root - b))
            for i in np.flatnonzero(root == math.inf).tolist():
                tau[i] = _markov_root_scaled(float(h[i]), float(tau_tilde[i]))
        elif model.kind is BathKind.NONMARKOVIAN:
            scale = np.sqrt(n_eff * model.eta)
            tau = _nonmarkov_root(tau_tilde * scale, np) / scale
        else:
            def res(t):
                return _residual(_ohmic_exponent_derivative(model, t, np), tau_tilde, n_eff, t)

            # tau_opt_numeric's bracket and steps, elementwise
            lo, f_lo, up = _ohmic_bracket(model, tau_tilde, n_eff, res, -1.0 - (tau_tilde > 0.0), np)
            for _ in range(61):
                f_up = res(up)
                ok = f_up > 0.0
                if ok.all():
                    break
                lo, f_lo, up = np.where(ok, lo, up), np.where(ok, f_lo, f_up), np.where(ok, up, 2.0 * up)
            # f = 0 at the upper end stops a size with no bracket at once
            tau, converged = _brent_arrays(res, lo, up, f_lo, np.where(ok, f_up, 0.0))
            ok &= converged
        g = _decay_exponent(model, tau, np)
        rate = _rate(g, tau_tilde, n_eff, tau, np)
    rate = np.where(ok & (rate > 0.0) & (rate < math.inf), rate, math.nan)
    if model.kind is BathKind.ISOLATED:
        rate[tau <= 0.0] = 0.0
    rate[~np.isfinite(tau_tilde)] = math.nan  # for the scalar solver's DomainError
    return tau, rate


def optimal_sensing_time(model: BathModel, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Dispatch to the best available solver for the given bath model.

    Closed forms for the isolated, Markovian and non-Markovian laws, the
    numeric optimiser for the Ohmic one.  Like each of them, it raises
    SolverError for an optimum whose rate under- or overflows.
    """
    if model.kind is BathKind.ISOLATED:
        return tau_opt_isolated(coherence_time(model), tau_tilde, n_eff)
    if model.kind is BathKind.MARKOVIAN:
        return tau_opt_markov(model.gamma, tau_tilde, n_eff)
    if model.kind is BathKind.NONMARKOVIAN:
        return tau_opt_nonmarkov(model.eta, tau_tilde, n_eff)
    return tau_opt_numeric(model, tau_tilde, n_eff)
