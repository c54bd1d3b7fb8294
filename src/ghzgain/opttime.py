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
quadratic law (a cubic, solved in complex arithmetic).  A model-agnostic
numeric path handles everything else: Brent's zero finder on the
stationarity residual, whose sign brackets the root (it is -tau times the
slope of the log rate).
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .bath import (
    BathKind,
    BathModel,
    _brent,
    _brent_arrays,
    _decay_exponent,
    _ohmic_exponent_derivative,
    coherence_time,
    decay_exponent,
    decay_exponent_derivative,
)
from .errors import (
    BranchError,
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

log = logging.getLogger(__name__)

@dataclass(frozen=True, slots=True)
class OptimalTime:
    """A located optimum: the time, the rate it achieves, and the
    stationarity defect there (0 by convention for boundary optima)."""

    tau_opt: float
    objective: float
    residual: float


def _block_rate(g: float, tau_tilde: float, n_eff: int, tau: float) -> float:
    """QFI rate n_eff^2 tau^2 exp(-2 n_eff g) / (tau_tilde + tau), g = Gamma(tau).

    For n_eff = N this is the rate of an N-particle GHZ block; for
    n_eff = 1 it is the per-particle rate of the separable strategy.  The
    square is a float: an int square past ~1.3e154 overflows in `* tau`.
    """
    return float(n_eff) * n_eff * tau * tau * math.exp(-2.0 * n_eff * g) / (tau_tilde + tau)


def _residual(dg: float, tau_tilde: float, n_eff: int, tau: float) -> float:
    return 2.0 * n_eff * tau * dg - 1.0 - tau_tilde / (tau_tilde + tau)


def stationarity_residual(model: BathModel, tau_tilde: float, n_eff: int, tau: float) -> float:
    """2 n_eff tau Gamma'(tau) - 1 - tau_tilde/(tau_tilde + tau).

    Vanishes exactly at an interior maximum of the information rate.
    """
    n_eff = check_count(n_eff, "effective particle count")
    check_finite_positive(tau, "sensing time")
    return _residual(decay_exponent_derivative(model, tau), tau_tilde, n_eff, tau)


def tau_opt_isolated(t_c: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Boundary optimum t_c - tau_tilde of a decoherence-free probe.

    Without dephasing the rate grows with tau, so the whole round is
    capped at the coherence time and sensing takes what overhead leaves.
    """
    check_finite_nonnegative(tau_tilde, "overhead time")
    check_finite_positive(t_c, "coherence time")
    n_eff = check_count(n_eff, "effective particle count")
    if tau_tilde >= t_c:
        raise InfeasibleTimingError(
            f"overhead {tau_tilde!r} consumes the whole coherence time {t_c!r}; "
            "no sensing time remains"
        )
    tau = t_c - tau_tilde
    return OptimalTime(tau, _block_rate(0.0, tau_tilde, n_eff, tau), 0.0)


def tau_opt_markov(gamma: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Closed-form optimum for Gamma = gamma * tau (rate scaled by n_eff).

    Root of the quadratic stationarity condition:
    1/(4 g) + sqrt((tau_tilde/2 + 1/(4 g))^2 + tau_tilde/(2 g)) - tau_tilde/2
    with g = n_eff * gamma.
    """
    check_finite_positive(gamma, "dephasing rate")
    check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    # positive root of tau^2 + (tau_tilde - h) tau - 2 h tau_tilde with
    # h = 1/(2 n_eff gamma), evaluated without subtractive cancellation
    # (the textbook form loses the root when tau_tilde >> h); b = root = 0
    # only when h * tau_tilde underflows, and tau then underflows as well
    h = 0.5 / (n_eff * gamma)
    b = tau_tilde - h
    root = math.sqrt(b * b + 8.0 * h * tau_tilde)
    if b >= 0.0 and root > 0.0:
        tau = 4.0 * h * tau_tilde / (b + root)
    else:
        tau = 0.5 * (root - b)
    if not tau > 0.0:
        raise SolverError(f"optimal time underflows at n_eff * gamma = {n_eff * gamma!r}")
    return OptimalTime(
        tau,
        _block_rate(gamma * tau, tau_tilde, n_eff, tau),
        _residual(gamma, tau_tilde, n_eff, tau),
    )


def _cubic_candidates(u: float) -> list[complex]:
    """The three Cardano branches for the scaled cubic
    4 t^3 + 4 t^2 u - t - 2 u = 0 (quadratic decay law, unit coefficient).

    The bracket is A + sqrt(A^2 - (u^2 + 3/4)^3) with A = u^3 - 45 u / 8;
    the difference under the square root is expanded exactly to avoid the
    catastrophic cancellation of forming A^2 first.  The physically
    correct branch carries the principal cube root times e^{i 2 pi / 3};
    candidates are ordered with it first.
    """
    a_term = u * u * u - 5.625 * u
    disc = -13.5 * u**4 + 29.953125 * u * u - 0.421875
    p_term = u * u + 0.75
    w = (a_term + cmath.sqrt(complex(disc))) ** (1.0 / 3.0)
    roots = []
    for k in (1, 2, 0):
        z = w * cmath.exp(2j * math.pi * k / 3.0)
        roots.append(-z / 3.0 - p_term / (3.0 * z) - u / 3.0)
    return roots


def tau_opt_nonmarkov(eta: float, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Closed-form optimum for Gamma = eta * tau^2 (rate scaled by n_eff).

    Solved in units of the block coherence time 1/sqrt(n_eff * eta),
    which reduces the cubic to a single-parameter family and keeps it
    well conditioned for large n_eff.  The selected branch must come out
    real and positive; otherwise all three candidates are reported.
    Certified up to scaled overheads tau_tilde*sqrt(n_eff*eta) of ~1e5;
    past that the residual imaginary noise can trip the realness check,
    and optimal_sensing_time falls back to the numeric optimiser.
    """
    check_finite_positive(eta, "decay coefficient")
    check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")
    scale = math.sqrt(n_eff * eta)
    try:
        candidates = [t / scale for t in _cubic_candidates(tau_tilde * scale)]
    except OverflowError as exc:  # u^4, or the cube root's argument, past the largest float
        raise BranchError(f"cubic overflows at scaled overhead {tau_tilde * scale!r}") from exc
    picked = candidates[0]
    if not picked.real > 0.0:
        raise BranchError(
            f"selected cubic branch has non-positive real part {picked!r}", candidates
        )
    if abs(picked.imag) >= 1e-9 * picked.real:
        raise BranchError(
            f"selected cubic branch is not real: {picked!r}", candidates
        )
    # one Newton step in scaled units scrubs the O(u*eps) noise the root
    # assembly picks up when the scaled overhead u is large
    u_tilde = tau_tilde * scale
    u = picked.real * scale
    g_val = 4.0 * u**3 + 4.0 * u * u * u_tilde - u - 2.0 * u_tilde
    g_der = 12.0 * u * u + 8.0 * u_tilde * u - 1.0
    tau = (u - g_val / g_der) / scale
    residual = _residual(2.0 * eta * tau, tau_tilde, n_eff, tau)
    if abs(residual) > 1e-8:
        raise BranchError(
            f"cubic root fails the stationarity condition (residual {residual:.3e})",
            candidates,
        )
    return OptimalTime(tau, _block_rate(eta * tau * tau, tau_tilde, n_eff, tau), residual)


def tau_opt_numeric(model: BathModel, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Model-agnostic interior maximum of the information rate.

    The stationarity residual equals -tau d ln(rate)/d tau: negative while
    the rate rises, positive once it falls, with the limit -1 - [tau_tilde
    > 0] as tau -> 0 (at tau_tilde = 0 it is 0/0 there, so tau = 0 is
    never evaluated).  So B starts at the coherence time and doubles until
    the residual at B is positive; the last B where it was not, or else
    tau = 0, is the bracket's lower end; and Brent's zero finder narrows
    the root to a relative width of 4 eps.
    """
    if model.kind is BathKind.ISOLATED:
        raise UnsupportedModelError(
            "an isolated probe has no interior optimum; use tau_opt_isolated"
        )
    check_finite_nonnegative(tau_tilde, "overhead time")
    n_eff = check_count(n_eff, "effective particle count")

    # every t below is finite and >= 0: the Ohmic form skips the checks and dispatch
    slope = (_ohmic_exponent_derivative if model.kind is BathKind.OHMIC
             else decay_exponent_derivative)

    def res(t: float) -> float:
        return _residual(slope(model, t), tau_tilde, n_eff, t)

    lo, f_lo = 0.0, -2.0 if tau_tilde > 0.0 else -1.0
    up = coherence_time(model)
    for _ in range(61):
        f_up = res(up)
        if f_up > 0.0:
            break
        lo, f_lo, up = up, f_up, 2.0 * up
    else:
        raise DivergenceError(
            "information rate still rising after expanding the bracket to "
            "2^60 coherence times; no interior maximum found"
        )
    tau, residual = _brent(res, lo, up, f_lo, f_up)
    if not tau > 0.0:
        raise SolverError(f"optimal time underflows at coherence time {coherence_time(model)!r}")
    rate = _block_rate(decay_exponent(model, tau), tau_tilde, n_eff, tau)
    return OptimalTime(tau, rate, residual)


_BRANCH = cmath.exp(2j * math.pi / 3.0)  # the factor of _cubic_candidates' first root


def _optimal_sensing_times(model: BathModel, tau_tilde: np.ndarray,
                           n_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tau, rate) of optimal_sensing_time over float arrays of overheads
    >= 0 and particle counts >= 1 (not checked), by the same formulas; rate
    is 0 where the timing is infeasible and NaN where this path cannot
    certify the optimum (failed cubic branch check, no bracket or no
    convergence, rate not finite and > 0), for optimal_sensing_time to
    re-solve."""
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
        elif model.kind is BathKind.NONMARKOVIAN:
            scale = np.sqrt(n_eff * model.eta)
            u = tau_tilde * scale
            disc = -13.5 * u**4 + 29.953125 * u * u - 0.421875
            z = (u * u * u - 5.625 * u + np.sqrt(disc + 0j)) ** (1.0 / 3.0) * _BRANCH
            picked = (-z / 3.0 - (u * u + 0.75) / (3.0 * z) - u / 3.0) / scale
            ok = (picked.real > 0.0) & (np.abs(picked.imag) < 1e-9 * picked.real)
            v = picked.real * scale
            g_val = 4.0 * v**3 + 4.0 * v * v * u - v - 2.0 * u
            tau = (v - g_val / (12.0 * v * v + 8.0 * u * v - 1.0)) / scale
            ok &= np.abs(_residual(2.0 * model.eta * tau, tau_tilde, n_eff, tau)) <= 1e-8
        else:
            def res(t):
                return _residual(_ohmic_exponent_derivative(model, t, np), tau_tilde, n_eff, t)

            # tau_opt_numeric's bracket and steps, elementwise
            lo, f_lo = np.zeros_like(tau_tilde), -1.0 - (tau_tilde > 0.0)
            up = np.full_like(tau_tilde, coherence_time(model))
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
        rate = n_eff * n_eff * tau * tau * np.exp(-2.0 * n_eff * g) / (tau_tilde + tau)
    rate = np.where(ok & (rate > 0.0) & (rate < math.inf), rate, math.nan)
    if model.kind is BathKind.ISOLATED:
        rate[tau <= 0.0] = 0.0
    return tau, rate


def optimal_sensing_time(model: BathModel, tau_tilde: float, n_eff: int) -> OptimalTime:
    """Dispatch to the best available solver for the given bath model.

    Closed forms where they exist; if the cubic branch check fails the
    numeric optimiser takes over and the discrepancy is logged.  An
    optimum whose rate under- or overflows raises SolverError.
    """
    if model.kind is BathKind.ISOLATED:
        opt = tau_opt_isolated(coherence_time(model), tau_tilde, n_eff)
    elif model.kind is BathKind.MARKOVIAN:
        opt = tau_opt_markov(model.gamma, tau_tilde, n_eff)
    elif model.kind is BathKind.NONMARKOVIAN:
        try:
            opt = tau_opt_nonmarkov(model.eta, tau_tilde, n_eff)
        except BranchError as exc:
            log.warning(
                "cubic closed form rejected (%s); falling back to numeric optimisation",
                exc,
            )
            opt = tau_opt_numeric(model, tau_tilde, n_eff)
    else:
        opt = tau_opt_numeric(model, tau_tilde, n_eff)
    if not 0.0 < opt.objective < math.inf:
        raise SolverError(f"optimal information rate {opt.objective!r} is not finite and > 0")
    return opt
