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

from .bath import (BathKind, BathModel, _decay_exponent, _exponent_slopes, _newton_root,
                   coherence_time)
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
from .qfi import ProbeKind, _fisher

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
    tau_tilde_sep / N for linear decay.  For the quadratic and Ohmic laws, the
    GHZ optimum tau at the crossing has F'(tau) = rate_sep, F = N^2 tau^2
    exp(-2 N Gamma(tau)): a root by _newton_root from tau*(0), where F' >
    rate_sep as r(0) > 1, and then x = F(tau)/rate_sep - tau.  No root, or an
    x past 1e4 t_c, raises NoThresholdError("above"); no convergence, or a
    field of r(0) that is not finite (as in gain()), raises SolverError.
    """
    n = check_count(n, "particle count")
    tau_tilde_sep = check_finite_nonnegative(tau_tilde_sep, "overhead time")
    if model.kind is BathKind.ISOLATED:
        t_c = coherence_time(model)
        x_sep = tau_tilde_sep / t_c
        if x_sep >= 1.0:
            raise InfeasibleTimingError("separable overhead consumes the whole coherence time")
        return t_c * (1.0 - (1.0 - x_sep) / math.sqrt(n))
    if model.kind is BathKind.MARKOVIAN:
        return tau_tilde_sep / n

    sep = optimal_sensing_time(model, tau_tilde_sep, 1)
    at = _gain_from_optima(n, tau_tilde_sep, 0.0, sep, optimal_sensing_time(model, 0.0, n))
    if at.r < 1.0:
        raise NoThresholdError("gain is below 1 even at zero entangled overhead", side="below")
    if at.r == 1.0:
        return 0.0
    rate_sep, t_c = at.f_sep / at.round_sep, coherence_time(model)

    def scaled_fisher(t):  # F(t) / rate_sep
        return _fisher(1.0 * n * n, t, math.exp(-2.0 * n * _decay_exponent(model, t))) / rate_sep

    def f(t):  # 1 - F'/rate_sep and its slope -F''/rate_sep, by m = t F'/F = 2 - 2 n t Gamma'
        (dg, t_d2g), w = _exponent_slopes(model, t), scaled_fisher(t) / t
        m = 2.0 - 2.0 * n * t * dg
        return 1.0 - w * m, -w * (m * m - 2.0 - 2.0 * n * t * t_d2g) / t

    tau = _newton_root(f, at.tau_opt_ent, 2.0 * at.tau_opt_ent, 2.0 ** 60 * t_c)[0]
    x = scaled_fisher(tau) - tau  # its slope in tau is 0 at the root
    if not x <= 1e4 * t_c:  # NaN where no root is bracketed
        raise NoThresholdError(f"gain is still above 1 at the bracket end {1e4 * t_c!r}",
                               side="above")
    return max(x, 0.0)


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


_SCAN_CHUNK = 8192  # most sizes a pass (64 kB a float array), and most gaps a pass halves
_TIE = 4.0 * math.ulp(1.0)  # r within this, relative, of the largest r ties: the smaller N wins
_MARGIN = 1e-12  # relative slack of the bound r(M) <= (M/A) r(A), against rounding in r
_N_SEARCH_CAP = 10**9  # every size is an exact float


def _scan(model: BathModel, law: ScalingLaw, n_search_max: int, minimum: int, need_peak: bool):
    """(cutoff, best_n, best_r) over N = 1..n_search_max: the last N whose r reaches 1 (None if
    r(n_search_max) is above it) and the first N whose r is within _TIE of the largest.  r is
    gain()'s (to 1e-13 on an Ohmic bath), 0 where the timing is infeasible (everywhere, with
    cutoff 0, if the separable timing is), and r(1) = 1; within _TIE of 1, r is not above 1.

    Skipped sizes cannot change the answer.  The separable overhead is base t_c at every N, so
    r(N)/N = max_tau tau^2 exp(-2 N Gamma(tau)) / (tau_tilde_ent(N) + tau) / rate_sep(1), and
    Gamma >= 0 with tau_tilde_ent(N) never falling (and, isolated, the feasible tau <= t_c -
    tau_tilde_ent(N) shrinking) keeps every term from rising: r(M) <= (M/A) r(A) for M >= A.
    Rounding broke this by 8.9e-16 at most in 400 random scans; _MARGIN covers it.  A gap lo..hi
    of unevaluated sizes then has r <= B = hi q (1 + _MARGIN), q the least r(A)/A of certified
    A below it, and is dropped once B can neither reach 1 above the last N that does, nor come
    within _TIE of the top below the peak, nor top the peak's r above it (the peak then ties any
    later top the gap could).  A size with no certified r takes the same bound and raises
    gain()'s error if that bound can still change the answer.  The first pass takes N = 1, 2,
    4, .. and n_search_max, leaving gaps below 2^(L-1) wide, L = (n_search_max - 1).bit_length();
    the next ones halve the lowest C = _SCAN_CHUNK gaps while their sizes overfill a pass, then
    take them all.  So at most C L gaps are open: pieces one halving deeper (depth <= L - 2)
    replace the lowest gaps, so depth never rises with N and a pass's <= 2C pieces are deeper
    than all it leaves; the next takes C or all: each older batch keeps <= C at its own depths."""
    n_search_max = check_count(n_search_max, "n_search_max")
    if n_search_max < minimum:
        raise DomainError(f"n_search_max must be >= {minimum}, got {n_search_max!r}")
    if n_search_max > _N_SEARCH_CAP:
        raise DomainError(f"n_search_max must be <= {_N_SEARCH_CAP}, got {n_search_max!r}")
    t_c = coherence_time(model)
    tau_tilde_sep = law.base * t_c  # the law's overhead at N = 1, bit for bit
    try:
        sep = optimal_sensing_time(model, tau_tilde_sep, 1)
    except InfeasibleTimingError:  # every size shares the infeasible separable timing
        if need_peak:
            raise InfeasibleTimingError("every scanned ensemble size has infeasible timing")
        return 0, 0, -math.inf
    last_q, front, r_end = 0, [(1, 1.0)], None  # front: (N, r), both rising, r near the top

    def can_change(lo, hi, q):  # where sizes lo..hi, r <= hi q, can change the answer
        (best_n, best_r), top = front[0], front[-1][1]
        with np.errstate(over="ignore"):
            bound = hi * q * (1.0 + _MARGIN)
        return (((bound >= 1.0 - _TIE) & (hi > last_q))
                | ((bound >= top * (1.0 - _TIE)) & ((lo < best_n) | (bound > best_r))))

    # rows lo, hi, q of the open gaps; the first pass takes the low end of 1, 2..3, 4..7, ..
    sizes = np.append(2.0 ** np.arange((n_search_max - 1).bit_length()), float(n_search_max))
    gaps = np.stack((sizes, np.append(sizes[1:] - 1.0, sizes[-1]), np.ones_like(sizes)))
    count = np.ones(sizes.size, dtype=np.intp)
    while gaps.shape[1]:
        with np.errstate(over="ignore"):
            tau_tilde_ent = _law_ratio(law, sizes, np) * t_c
            rate_sep = _rates(sizes, tau_tilde_sep, sep.tau_opt, sep.decay, np)[1]
            rate = _optimal_sensing_times(model, tau_tilde_ent, sizes)[1]
            if sizes[0] == 1.0:
                rate[0] = sep.objective  # N = 1 is the separable probe: r = 1 exactly
            r = np.where(rate_sep < math.inf, rate, math.nan) / rate_sep
        r[r == math.inf] = math.nan  # NaN wherever gain() raises
        r_end = r[-1] if r_end is None else r_end  # the first pass ends at n_search_max
        last_q = max(last_q, int(sizes[r >= 1.0 - _TIE].max(initial=0)))
        top = max(front[-1][1], float(np.fmax.reduce(r, initial=-math.inf)))
        near = np.flatnonzero(r >= top * (1.0 - _TIE))  # each above every r before it
        near = near[r[near] > np.maximum.accumulate(np.append(-math.inf, r[near]))[:-1]]
        merged, front = sorted(front + list(zip(sizes[near].astype(int).tolist(),
                                                r[near].tolist()))), []
        for n, x in merged:
            if x >= top * (1.0 - _TIE) and (not front or x > front[-1][1]):
                front.append((n, x))
        ends = np.cumsum(count) - 1
        q = np.minimum(np.minimum.accumulate(np.where(r == r, r / sizes, math.inf)),
                       np.repeat(gaps[2, :count.size], count))  # from the pass or the gap
        bad = np.flatnonzero((r != r) & can_change(sizes, sizes, q))
        if bad.size:  # the first uncertified size whose bound can change the answer
            n, tte = int(sizes[bad[0]]), float(tau_tilde_ent[bad[0]])
            gain(model, n, tau_tilde_sep, tte)
            raise SolverError(f"no certified gain at n = {n}, entangled overhead time {tte!r}")
        pieces = np.repeat(gaps[:, :count.size], 2, axis=1)  # before each run, and after it
        pieces[1, 0::2], pieces[0, 1::2] = sizes[ends + 1 - count] - 1.0, sizes[ends] + 1.0
        pieces[2, 1::2] = q[ends]
        gaps = np.concatenate((pieces, gaps[:, count.size:]), axis=1)
        gaps = gaps[:, (gaps[0] <= gaps[1]) & can_change(*gaps)]
        lo, hi = gaps[:2, :_SCAN_CHUNK]  # the lowest gaps: all of them, once their sizes fit
        count = (hi - lo + 1.0).astype(np.intp)
        if count.sum() > _SCAN_CHUNK:  # each halved
            lo, count = np.floor(0.5 * (lo + hi)), np.ones_like(count)
        sizes = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    best_n, best_r = front[0]
    return (None if r_end > 1.0 + _TIE else last_q), best_n, best_r


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
