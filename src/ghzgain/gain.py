"""Metrological gain of the GHZ strategy over the separable strategy.

The gain is the squared ratio of optimal precisions,

    r = (delta_omega_sep / delta_omega_ent)^2
      = [F_ent(tau_ent*) / (tau_tilde_ent + tau_ent*)]
        / [F_sep(tau_sep*) / (tau_tilde_sep + tau_sep*)]

with each strategy running at its own optimal sensing time.  r > 1 means
entangling the probe pays off even after the (generally slower) GHZ
preparation and readout are charged to the duty cycle.

Besides the pointwise gain this module locates the break-even overhead
(r = 1 threshold), evaluates overhead scaling laws in the particle
number, scans for the largest still-advantageous ensemble size and the
size maximising the gain, and checks monotonicity of r in the entangled
overhead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .bath import BathKind, BathModel, _newton_root, coherence_time
from .errors import (
    DomainError,
    InfeasibleTimingError,
    NoThresholdError,
    SolverError,
    check_count,
    check_finite,
    check_finite_nonnegative,
    check_finite_positive,
)
from .opttime import OptimalTime, _optimal_sensing_times, _rates, optimal_sensing_time
from .qfi import ProbeKind

__all__ = [
    "GainResult",
    "ScalingKind",
    "ScalingLaw",
    "MonotonicityViolation",
    "gain",
    "gain_isolated",
    "threshold_ent_time",
    "precision_opt",
    "scaling_law_eval",
    "n_cutoff",
    "n_max_gain",
    "n_cutoff_and_max_gain",
    "monotonicity_scan",
]


@dataclass(frozen=True)
class GainResult:
    """Gain r together with both optima it was assembled from."""

    r: float
    tau_opt_sep: float
    tau_opt_ent: float
    f_sep: float
    f_ent: float
    round_sep: float
    round_ent: float


class ScalingKind(str, Enum):
    CONSTANT = "constant"
    LOGARITHMIC = "logarithmic"
    SQUARE_ROOT = "square-root"
    LINEAR = "linear"


@dataclass(frozen=True)
class ScalingLaw:
    """How the entangled overhead (in units of t_c) grows with N.

    ``base`` is the separable overhead ratio tau_tilde_sep / t_c that the
    law is anchored to: at N = 1 every law gives ``base`` exactly.
    """

    kind: ScalingKind
    base: float

    def __post_init__(self):
        object.__setattr__(self, "kind", ScalingKind(self.kind))
        object.__setattr__(self, "base", check_finite_nonnegative(self.base, "scaling base"))


class MonotonicityViolation(NamedTuple):
    index: int
    x_lower: float
    x_upper: float
    r_lower: float
    r_upper: float


def gain(model: BathModel, n: int, tau_tilde_sep: float, tau_tilde_ent: float) -> GainResult:
    """Gain of an N-particle GHZ probe over N separable particles.

    Optimal sensing times come from the closed forms where available and
    the numeric optimiser otherwise; the gain is then the ratio of the
    two information rates.  A field that is not finite raises SolverError.
    """
    n = check_count(n, "particle count")
    tau_tilde_sep = check_finite_nonnegative(tau_tilde_sep, "separable overhead time")
    tau_tilde_ent = check_finite_nonnegative(tau_tilde_ent, "entangled overhead time")
    sep = optimal_sensing_time(model, tau_tilde_sep, 1)
    ent = optimal_sensing_time(model, tau_tilde_ent, n)
    return _gain_from_optima(n, tau_tilde_sep, tau_tilde_ent, sep, ent)


def _gain_from_optima(n: int, tau_tilde_sep: float, tau_tilde_ent: float,
                      sep: OptimalTime, ent: OptimalTime) -> GainResult:
    """Assemble the gain from the separable (n_eff = 1) and GHZ (n_eff = n)
    optima, which the caller has located for these validated inputs: F_sep of n
    product-state particles and F_ent of one n-particle GHZ block, each over its
    round and at its optimum's decay (so rate_ent is ent.objective).  The first
    field that is not finite, in field order, raises SolverError."""
    f_sep, rate_sep = _rates(n, tau_tilde_sep, sep.tau_opt, sep.decay)
    f_ent, rate_ent = _rates(float(n) * n, tau_tilde_ent, ent.tau_opt, ent.decay)
    result = GainResult(rate_ent / rate_sep, sep.tau_opt, ent.tau_opt, f_sep, f_ent,
                        tau_tilde_sep + sep.tau_opt, tau_tilde_ent + ent.tau_opt)
    if not result.r + f_sep + f_ent + result.round_sep + result.round_ent < math.inf:
        for field, value in vars(result).items():
            check_finite(value, field, SolverError)
    return result


def gain_isolated(n: int, x_sep: float, x_ent: float) -> float:
    """Decoherence-free gain N ((1 - x_ent)/(1 - x_sep))^2.

    x_sep and x_ent are the overheads in units of the coherence time;
    both must be < 1 for any sensing to happen.  A gain past the largest
    float raises SolverError.
    """
    n = check_count(n, "particle count")
    x_sep, x_ent = check_finite_nonnegative(x_sep, "x_sep"), check_finite_nonnegative(x_ent, "x_ent")
    for name, x in (("x_sep", x_sep), ("x_ent", x_ent)):
        if x >= 1.0:
            raise InfeasibleTimingError(f"{name} = {x!r} consumes the whole coherence time")
    ratio = (1.0 - x_ent) / (1.0 - x_sep)
    return check_finite(n * ratio * ratio, "gain", SolverError)


def threshold_ent_time(model: BathModel, n: int, tau_tilde_sep: float) -> float:
    """Entangled overhead at which the gain crosses r = 1.

    Closed forms: t_c (1 - (1 - x_sep)/sqrt(N)) for an isolated probe and
    tau_tilde_sep / N for linear decay.  The quadratic and Ohmic laws
    have no known closed form, so the crossing in [0, 1e4 t_c] is a root of
    1/r - 1 by _newton_root, to a relative step of 1e-12, one GHZ solve per
    point.  With the GHZ optimum tau_ent* solved at x, the slope is
    1/(r (x + tau_ent*)), so Newton's step is the frozen-optimum step
    x' = r (x + tau_ent*) - tau_ent*: the rate at x' with tau_ent* kept is not
    optimal, so r(x') >= 1, and the steps never pass the crossing.  The
    last step is taken without a solve.  A search that does not converge
    raises SolverError, as does a gain field that is not finite (as in gain()).
    """
    n = check_count(n, "particle count")
    tau_tilde_sep = check_finite_nonnegative(tau_tilde_sep, "overhead time")
    if model.kind is BathKind.ISOLATED:
        t_c = coherence_time(model)
        x_sep = tau_tilde_sep / t_c
        if x_sep >= 1.0:
            raise InfeasibleTimingError(
                "separable overhead consumes the whole coherence time"
            )
        return t_c * (1.0 - (1.0 - x_sep) / math.sqrt(n))
    if model.kind is BathKind.MARKOVIAN:
        return tau_tilde_sep / n

    sep, at = optimal_sensing_time(model, tau_tilde_sep, 1), None

    def f(x):  # 1/r - 1 and its slope; at keeps the last gain
        nonlocal at
        at = _gain_from_optima(n, tau_tilde_sep, x, sep, optimal_sensing_time(model, x, n))
        return 1.0 / at.r - 1.0, 1.0 / at.r / at.round_ent

    f_0 = f(0.0)
    if at.r < 1.0:
        raise NoThresholdError(
            "gain is below 1 even at zero entangled overhead", side="below"
        )
    if at.r == 1.0:
        return 0.0
    hi = 1e4 * coherence_time(model)
    x = _newton_root(f, 0.0, f_0, hi, hi, tol=1e-12)[0]
    if math.isnan(x):
        raise NoThresholdError(
            f"gain is still above 1 at the bracket end {hi!r}", side="above"
        )
    return x + (at.r - 1.0) * at.round_ent  # the last step needs no solve


def precision_opt(model: BathModel, n: int, kind: ProbeKind, tau_tilde: float,
                  total_time: float) -> float:
    """Best frequency error 1/sqrt(T * F(tau*)/(tau_tilde + tau*)).

    Assumes many rounds fit in the budget; warns when fewer than ten do,
    since the bound is only asymptotically attainable.
    """
    n = check_count(n, "particle count")
    tau_tilde = check_finite_nonnegative(tau_tilde, "overhead time")
    total_time = check_finite_positive(total_time, "total time budget")
    kind = ProbeKind(kind)
    n_eff = n if kind is ProbeKind.GHZ else 1
    opt = optimal_sensing_time(model, tau_tilde, n_eff)
    # F = n n_eff tau^2 exp(-2 n_eff Gamma): n product-state particles, or one n-particle block
    f = _rates(float(n) * n_eff, tau_tilde, opt.tau_opt, opt.decay)[0]
    round_time = tau_tilde + opt.tau_opt
    if total_time / round_time < 10.0:
        warnings.warn(
            "fewer than 10 rounds fit in the total time budget; the "
            "precision bound may not be attainable",
            stacklevel=2,
        )
    information = total_time * f / round_time
    if not 0.0 < information < math.inf:
        raise SolverError(f"information over the budget {information!r} is not finite and > 0")
    return 1.0 / math.sqrt(information)


def scaling_law_eval(law: ScalingLaw, n: int) -> float:
    """Entangled overhead ratio x_ent = tau_tilde_ent / t_c at size N; a
    ratio past the largest float raises DomainError."""
    return check_finite(_law_ratio(law, check_count(n, "particle count"), math),
                        "entangled overhead ratio")


def _law_ratio(law: ScalingLaw, n, xp):
    """x_ent at size n with xp = math, or at a float array of sizes with xp = numpy."""
    if law.kind is ScalingKind.CONSTANT:
        return law.base + 0.0 * n
    if law.kind is ScalingKind.LOGARITHMIC:
        return (1.0 + xp.log2(n)) * law.base
    if law.kind is ScalingKind.SQUARE_ROOT:
        return xp.sqrt(n) * law.base
    return n * law.base


_SCAN_CHUNK = 8192  # most sizes per array pass: 64 kB per float temporary
_TIE = 4.0 * math.ulp(1.0)  # r within this, relative, of the largest r ties: the smaller N wins
_N_SEARCH_CAP = 10**9  # a scan that never stops ends; every size is an exact float


def _scan(model: BathModel, law: ScalingLaw, n_search_max: int, minimum: int, need_peak: bool):
    """(cutoff, best_n, best_r) over N = 1..n_search_max, r as gain() forms it, and 0 where
    the timing is infeasible (at every size, where the separable timing is); the array rate
    takes numpy's exp, so a non-isolated r agrees with gain()'s to 1e-13.  r(1) = 1, and
    the scan stops once r has been below 1 for 10 consecutive sizes, which ends no scan early
    where r is unimodal in N: isolated, d ln r/dN = 1/N - 2 x_ent'/(1 - x_ent) changes sign
    at most once; Markovian, r = psi(N x_ent)/psi(base) <= 1 for the decreasing optimal rate
    psi at an overhead in units of t_c; non-Markovian, unimodal in numerical checks of every
    law.  An Ohmic scan runs to n_search_max: GHZ optima in the Markov regime at small N
    never gain, those in the quadratic one at large N can, so r can fall below 1 and come
    back.  Array passes start at 16 sizes and double up to _SCAN_CHUNK (each pass has a
    fixed cost, and a scan that stops often does so within a few dozen).  Sizes a pass
    cannot certify count as below 1 for a provisional stop; those at or before it are
    re-solved in size order, which can only move the stop later.  The peak is the smallest
    N whose r is within _TIE of the largest r scanned, and r within _TIE of 1 reaches 1 but
    does not stay above it, so rounding noise where r is flat at 1 picks neither the peak
    nor the cutoff."""
    if check_count(n_search_max, "n_search_max") < minimum:
        raise DomainError(f"n_search_max must be >= {minimum}, got {n_search_max!r}")
    if n_search_max > _N_SEARCH_CAP:
        raise DomainError(f"n_search_max must be <= {_N_SEARCH_CAP}, got {n_search_max!r}")
    t_c = coherence_time(model)
    stop = math.inf if model.kind is BathKind.OHMIC else 10.0  # sizes below 1 that end it
    tau_tilde_sep = law.base * t_c  # the law's overhead at N = 1, bit for bit
    try:
        sep, stopped = optimal_sensing_time(model, tau_tilde_sep, 1), False
    except InfeasibleTimingError:
        stopped = True  # every size shares the infeasible separable timing
    last_qualifying, near, top, r_last, start, width = 0, [], -math.inf, -math.inf, 1, 16
    while not stopped and start <= n_search_max:
        sizes = np.arange(start, min(start + width, n_search_max + 1), dtype=float)
        start, width = start + width, min(2 * width, _SCAN_CHUNK)
        with np.errstate(over="ignore"):
            tau_tilde_ent = _law_ratio(law, sizes, np) * t_c
            rate_sep = _rates(sizes, tau_tilde_sep, sep.tau_opt, sep.decay, np)[1]
        rate = _optimal_sensing_times(model, tau_tilde_ent, sizes)[1]
        if sizes[0] == 1.0:
            rate[0] = sep.objective  # N = 1 is the separable probe: r = 1 exactly
        r = rate / rate_sep  # 0 where infeasible
        r[rate_sep == math.inf] = math.nan  # re-solved, then rejected as gain() rejects it
        while True:  # re-solve the uncertified sizes up to the provisional stop
            # the last qualifying size at or before each N: N - last sizes below 1 in a row
            last = np.maximum.accumulate(np.where(r >= 1.0 - _TIE, sizes, last_qualifying))
            halt = np.flatnonzero(sizes - last >= stop)
            end = int(halt[0]) + 1 if halt.size else r.size
            todo = np.flatnonzero(np.isnan(r[:end])).tolist()
            if not todo:
                break
            for i in todo:
                tte = check_finite_nonnegative(float(tau_tilde_ent[i]), "entangled overhead time")
                try:
                    ent = optimal_sensing_time(model, tte, int(sizes[i]))
                    r[i] = _gain_from_optima(int(sizes[i]), tau_tilde_sep, tte, sep, ent).r
                except InfeasibleTimingError:
                    r[i] = 0.0
        stopped, r = halt.size > 0, r[:end]
        # near gets each size within _TIE of the largest r so far whose r tops every earlier
        # r; the peak is the first size in near within _TIE of the scan's largest r
        prior, top = top, max(top, float(r.max()))
        for j in np.flatnonzero(r >= top * (1.0 - _TIE)).tolist():
            if r[j] > prior:
                prior = float(r[j])
                near.append((int(sizes[j]), prior))
        last_qualifying, r_last = int(last[r.size - 1]), r[-1]
    best_n, best_r = next(((n, x) for n, x in near if x >= top * (1.0 - _TIE)), (0, -math.inf))
    if need_peak and best_n == 0:
        raise InfeasibleTimingError("every scanned ensemble size has infeasible timing")
    if r_last > 1.0 + _TIE:  # only a pass that ran to the end stops above 1
        return None, best_n, best_r
    return last_qualifying, best_n, best_r


def n_cutoff(model: BathModel, law: ScalingLaw, n_search_max: int = 10**6) -> int | None:
    """Largest N whose gain still reaches 1, provided nothing above it
    does (0 only when the separable timing, at law.base t_c, is infeasible;
    None when the gain is still above 1 at the end of the scanned range).
    Shares its scan with n_max_gain: n_cutoff_and_max_gain gives both."""
    return _scan(model, law, n_search_max, 2, False)[0]


def n_max_gain(model: BathModel, law: ScalingLaw, n_search_max: int = 10**6) -> tuple[int, float]:
    """Size maximising the gain, with ties broken toward smaller N.

    Splitting a much larger ensemble into blocks of this size keeps the
    per-block gain at the returned value.  Shares its scan with n_cutoff.
    """
    return _scan(model, law, n_search_max, 1, True)[1:]


def n_cutoff_and_max_gain(model: BathModel, law: ScalingLaw,
                          n_search_max: int = 10**6) -> tuple[int | None, int, float]:
    """(n_cutoff, *n_max_gain) from one scan; n_search_max must be >= 2,
    and every size being infeasible raises InfeasibleTimingError."""
    return _scan(model, law, n_search_max, 2, True)


def monotonicity_scan(model: BathModel, n: int, tau_tilde_sep: float,
                      x_ent_grid: Sequence[float]) -> list[MonotonicityViolation]:
    """Check that the gain strictly decreases along a grid of entangled
    overheads (in units of t_c).

    Returns every adjacent pair where it fails to, with ties tolerated
    to 1e-12 relative.  An empty list is the expected outcome for all
    supported models; a gain field that is not finite raises SolverError.
    """
    n = check_count(n, "particle count")
    tau_tilde_sep = check_finite_nonnegative(tau_tilde_sep, "overhead time")
    grid = [float(x) for x in x_ent_grid]
    if len(grid) < 2:
        raise DomainError("grid must contain at least 2 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    t_c = coherence_time(model)
    sep = optimal_sensing_time(model, tau_tilde_sep, 1)
    rs = [_gain_from_optima(n, tau_tilde_sep, tte, sep, optimal_sensing_time(model, tte, n)).r
          for tte in (x * t_c for x in grid)]
    violations = []
    for i, (r_lo, r_hi) in enumerate(zip(rs, rs[1:])):
        if r_hi - r_lo > 1e-12 * max(abs(r_lo), abs(r_hi)):
            violations.append(
                MonotonicityViolation(i, grid[i], grid[i + 1], r_lo, r_hi)
            )
    return violations
