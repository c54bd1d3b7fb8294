"""Dephasing decay exponents for the supported bath models.

A probe particle coupled to its environment loses phase coherence as
exp(-Gamma(tau)) over a sensing interval tau.  Four laws are supported:

* isolated        Gamma = 0 (coherence limited only by a configured t_c)
* markovian       Gamma = gamma * tau
* nonmarkovian    Gamma = eta * tau**2
* ohmic           microscopic spin-boson form
                  Gamma = (alpha/2) ln(1 + Omega_c^2 tau^2)
                          + alpha ln[ sinh(pi tau / beta) / (pi tau / beta) ]

The Ohmic form reduces to the Markovian law with gamma = alpha*pi/beta for
tau >> beta and to the quadratic law with eta = alpha*Omega_c^2/2 for
tau << beta, Omega_c*tau << 1.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (SolverError, ValidationError, check_choice, check_fields,
                     check_finite_nonnegative, check_finite_positive)

__all__ = [
    "BathKind",
    "BathModel",
    "decay_exponent",
    "decay_exponent_derivative",
    "coherence_time",
    "ohmic_limit_rates",
]


class BathKind(str, Enum):
    ISOLATED = "isolated"
    MARKOVIAN = "markovian"
    NONMARKOVIAN = "nonmarkovian"
    OHMIC = "ohmic"


# fields each kind requires; everything else must be absent
_REQUIRED = {
    BathKind.ISOLATED: ("t_c",),
    BathKind.MARKOVIAN: ("gamma",),
    BathKind.NONMARKOVIAN: ("eta",),
    BathKind.OHMIC: ("alpha", "omega_c", "beta"),
}
_FIELDS = ("t_c", "gamma", "eta", "alpha", "omega_c", "beta")


@dataclass(frozen=True)
class BathModel:
    """Tagged descriptor of a dephasing law.

    Only the parameters required by ``kind`` may be set:
    t_c (isolated), gamma (markovian, 1/s), eta (nonmarkovian, 1/s^2),
    alpha/omega_c/beta (ohmic: dimensionless coupling, cutoff frequency
    in rad/s, inverse bath temperature in s).  An unknown kind, a missing or
    extra field, or a field that is not a finite number > 0 raises ValidationError.
    """

    kind: BathKind
    t_c: float | None = None
    gamma: float | None = None
    eta: float | None = None
    alpha: float | None = None
    omega_c: float | None = None
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind",
                           check_choice(self.kind, BathKind, "bath kind", ValidationError))
        required = _REQUIRED[self.kind]
        for name in _FIELDS:
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ValidationError(f"{self.kind.value} model requires field '{name}'")
                object.__setattr__(self, name, check_finite_positive(
                    value, f"field '{name}'", ValidationError))
            elif value is not None:
                raise ValidationError(f"field '{name}' is not used by a {self.kind.value} model")

    @classmethod
    def isolated(cls, t_c: float) -> "BathModel":
        return cls(BathKind.ISOLATED, t_c=t_c)

    @classmethod
    def markovian(cls, gamma: float) -> "BathModel":
        return cls(BathKind.MARKOVIAN, gamma=gamma)

    @classmethod
    def nonmarkovian(cls, eta: float) -> "BathModel":
        return cls(BathKind.NONMARKOVIAN, eta=eta)

    @classmethod
    def ohmic(cls, alpha: float, omega_c: float, beta: float) -> "BathModel":
        return cls(BathKind.OHMIC, alpha=alpha, omega_c=omega_c, beta=beta)

    def to_dict(self) -> dict:
        """JSON-ready form: {"kind": ..., <required parameters>}."""
        out = {"kind": self.kind.value}
        for name in _REQUIRED[self.kind]:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BathModel":
        check_fields(data, "bath model", ("kind",), _FIELDS)
        return cls(**data)


# sinh(x)/x - 1 = sum_k x^(2k)/(2k+1)!: no cancellation, and k <= 9 is one ulp below x = 1
_SINHC_TAYLOR = tuple(1.0 / math.factorial(2 * k + 1) for k in range(9, 0, -1))


def _sinhc_minus_one(x2):
    """sinh(x)/x - 1 for x2 = x*x < 1, a float or an array."""
    return functools.reduce(lambda acc, c: acc * x2 + c, _SINHC_TAYLOR, 0.0) * x2


# ln(sinh(x)/x), stable over many decades, in two forms split at x = 1: log1p of
# sinh(x)/x - 1 by series below 1, where ln(sinh x) - ln x cancels to ~4e-11 relative,
# and sinh(x) = e^x (1 - e^{-2x})/2 from 1 on, which never overflows (nor does 2x: ln 2x
# takes x at most 2^1000, past which the form rounds to x).  Its derivative
# coth(x) - 1/x takes, below 1, where 1/tanh(x) - 1/x cancels to ~7e-12 relative,
# Lambert's continued fraction x/(3 + x^2/(5 + x^2/(7 + ... + x^2/17))) written as a
# ratio of polynomials in x^2 with positive coefficients: no cancellation, and the
# truncation is under one ulp below 1.  Both stay within 3.3e-16 relative of 50-digit
# values down to x = 1e-12 and give 0 at x = 0, so small x needs no form of its own.
# Each pair is (below 1, from 1 on); a form takes x, x*x and xp (math or numpy).
_LOG_SINHC = (
    lambda x, x2, xp: xp.log1p(_sinhc_minus_one(x2)),
    lambda x, x2, xp: (x + xp.log1p(-xp.exp(-2.0 * x))
                       - xp.log(2.0 * _WHERE[xp](x < 2.0**1000, x, 2.0**1000))),
)
_DLOG_SINHC = (
    lambda x, x2, xp: x * (11486475.0 + x2 * (810810.0 + x2 * (12870.0 + x2 * 44.0)))
    / (34459425.0 + x2 * (4729725.0 + x2 * (135135.0 + x2 * (990.0 + x2)))),
    lambda x, x2, xp: 1.0 / xp.tanh(x) - 1.0 / x,
)
# ln(1 + y^2), y = omega_c tau, and half its slope, split at y = 2^500: from there on 1 + y^2
# rounds to y^2, which overflows past ~1.3e154, so they take 2 ln(y) and 1/y
_LOG_CUTOFF = (lambda y, y2, xp: xp.log1p(y2), lambda y, y2, xp: 2.0 * xp.log(y))
_DLOG_CUTOFF = (lambda y, y2, xp: y / (1.0 + y2), lambda y, y2, xp: 1.0 / y)


def _by_branch(forms, x, xp, split=1.0):
    """forms[0] below x = split, forms[1] from it on (and at NaN), at a float x (xp = math)
    or at each element of an array x (xp = numpy; each form runs on its own elements)."""
    if xp is math:
        return forms[not x < split](x, x * x, math)
    out = np.empty_like(x)
    small = x < split
    with np.errstate(all="ignore"):
        for form, at in zip(forms, (small, ~small)):
            if at.any():
                out[at] = form(x[at], x[at] * x[at], np)
    return out


def _ohmic_exponent(model: BathModel, tau, xp=math):
    """Ohmic Gamma at a float tau, or elementwise over an array with xp =
    numpy (not checked); both log terms vanish exactly at tau = 0."""
    wt, x = model.omega_c * tau, math.pi * tau / model.beta
    return (0.5 * model.alpha * _by_branch(_LOG_CUTOFF, wt, xp, 2.0**500)
            + model.alpha * _by_branch(_LOG_SINHC, x, xp))


def _exponent_slopes(model: BathModel, tau, xp=math):
    """(Gamma', tau Gamma'') at a float tau, or elementwise over an array with xp = numpy
    (not checked).  tau Gamma'' is 0 for the isolated and linear laws and 2 eta tau =
    Gamma' for the quadratic one, finite where 2 eta overflows.  The Ohmic pair comes from
    one evaluation of L = coth x - 1/x, x = pi tau/beta: with d = 1 + (omega_c tau)^2 and
    L' = 1 - L^2 - 2 L/x, tau Gamma'' is alpha [omega_c^2 tau (1 - omega_c^2 tau^2)/d^2 +
    (pi/beta) x L'(x)].  omega_c^2 tau/d takes omega_c _DLOG_CUTOFF, and 2/d - 1 rounds to -1
    from omega_c tau = 2^500 on (d = inf included); over arrays the caller quiets numpy."""
    if model.kind is BathKind.ISOLATED:
        return 0.0, 0.0
    if model.kind is BathKind.MARKOVIAN:
        return model.gamma, 0.0
    if model.kind is BathKind.NONMARKOVIAN:
        dg = 2.0 * (model.eta * tau)
        return dg, dg
    k, w = math.pi / model.beta, model.omega_c
    wt, x = w * tau, k * tau
    d = 1.0 + wt * wt
    cutoff = w * _by_branch(_DLOG_CUTOFF, wt, xp, 2.0**500)
    dlog_sinhc = _by_branch(_DLOG_SINHC, x, xp)
    return (model.alpha * (cutoff + k * dlog_sinhc),
            model.alpha * (cutoff * (2.0 / d - 1.0)
                           + k * (x * (1.0 - dlog_sinhc * dlog_sinhc) - 2.0 * dlog_sinhc)))


_NEWTON_MAX_ITER = 100


# where(cond, a, b) for each xp: a conditional at floats, np.where over arrays
_WHERE = {math: lambda cond, a, b: a if cond else b, np: np.where}


def _newton_root(f, lo, hi, cap, xp=math):
    """(x, f(x)) at a root of f above lo >= 0, at floats (xp = math) or elementwise over
    arrays.  f(t) returns (f(t), f'(t)).  f(lo) comes first, except at a float lo = 0 (the
    optimum's residual is 0/0 there at tau_tilde = 0), and f at an end of 0 is taken as
    NaN; where f(lo) > 0 the bracket is [0, lo], and f(lo) is f(hi).  hi doubles, clamped
    at cap, and lo moves to it, while f(hi) < 0 and hi < cap; x is NaN where f(hi) is then
    not >= 0.  Newton's steps (rtsafe, Numerical Recipes 3rd ed., 9.4) start at the end
    with the smaller |f|; a step not strictly inside (lo, hi), or a slope of 0, inf or NaN,
    bisects at sqrt(lo hi) (hi/2 while lo = 0), and each point replaces the end of its
    sign.  x is the first point where f = 0 or whose next step or half-bracket is <= 4 eps
    x; without one in _NEWTON_MAX_ITER evaluations, floats raise SolverError and arrays
    give NaN (a converged element stands still meanwhile)."""
    where = _WHERE[xp]
    f_lo = f(lo) if xp is np or lo > 0.0 else (math.nan, math.nan)
    above = f_lo[0] > 0.0
    lo, hi = where(above, 0.0, lo), where(above, lo, hi)
    f_hi = f_lo if (above if xp is math else above.all()) else f(hi)
    f_lo = tuple(where(lo > 0.0, v, math.nan) for v in f_lo)
    while True:
        grow = (f_hi[0] < 0.0) & (hi < cap)
        if not (grow if xp is math else grow.any()):
            break
        lo, hi = where(grow, hi, lo), where(grow, where(2.0 * hi < cap, 2.0 * hi, cap), hi)
        f_lo = where(grow, f_hi[0], f_lo[0]), where(grow, f_hi[1], f_lo[1])
        f_hi = f(hi)
    bracketed, start = f_hi[0] >= 0.0, abs(f_lo[0]) < abs(f_hi[0])
    x = where(start, lo, hi)
    # f = 0 stops an element without a bracket at once
    fx = where(bracketed, where(start, f_lo[0], f_hi[0]), 0.0)
    dfx = where(start, f_lo[1], f_hi[1])
    for _ in range(_NEWTON_MAX_ITER):
        # a slope of 0, inf or NaN gives a NaN step before anything divides by 0
        step = -fx / where((0.0 < abs(dfx)) & (abs(dfx) < math.inf), dfx, math.nan)
        mid = where(lo > 0.0, xp.sqrt(lo) * xp.sqrt(hi), 0.5 * hi)
        new = where((lo < x + step) & (x + step < hi), x + step, mid)
        # ulp(0.0): the tolerance is never 0 at an underflowing root
        near = 4.0 * sys.float_info.epsilon * x + math.ulp(0.0)
        done = (fx == 0.0) | (abs(step) <= near) | (abs(mid - x) <= near)
        if done if xp is math else done.all():
            return where(bracketed, x, math.nan), fx
        x = where(done, x, new)
        fx, dfx = f(x)
        lo, hi = where(fx < 0.0, x, lo), where(fx > 0.0, x, hi)
    if xp is math:
        raise SolverError(
            f"Newton's zero finder did not converge in {_NEWTON_MAX_ITER} evaluations")
    return np.where(done & bracketed, x, math.nan), fx


def decay_exponent(model: BathModel, tau: float) -> float:
    """Dephasing exponent Gamma(tau) of one particle; tau a finite number >= 0, else DomainError."""
    if type(tau) is not float or not 0.0 <= tau < math.inf:
        tau = check_finite_nonnegative(tau, "sensing time")
    return _decay_exponent(model, tau)


def _decay_exponent(model: BathModel, tau, xp=math):
    """Gamma at a float tau, or elementwise over an array with xp = numpy (not checked)."""
    if model.kind is BathKind.ISOLATED:
        return 0.0 * tau
    if model.kind is BathKind.MARKOVIAN:
        return model.gamma * tau
    if model.kind is BathKind.NONMARKOVIAN:
        return model.eta * tau * tau
    return _ohmic_exponent(model, tau, xp)


def decay_exponent_derivative(model: BathModel, tau: float) -> float:
    """dGamma/dtau, tau checked as in decay_exponent; the Ohmic limit at tau = 0 is 0."""
    if type(tau) is not float or not 0.0 <= tau < math.inf:
        tau = check_finite_nonnegative(tau, "sensing time")
    return _exponent_slopes(model, tau)[0]


@functools.lru_cache(maxsize=512)
def coherence_time(model: BathModel) -> float:
    """Single-particle coherence time t_c.

    Isolated models return the configured t_c; the two limiting laws give 1/gamma
    (SolverError where it overflows) and 1/sqrt(eta).  For the full Ohmic law the
    convention used here is the time at which Gamma first reaches 1 (the two limits of
    that convention recover 1/gamma and 1/sqrt(eta)), located by _newton_root on
    Gamma - 1 with slope Gamma' to a relative step of 4 eps, and accepted only where
    |Gamma(t_c) - 1| <= 1e-12 at a normal float t_c (else SolverError); cached, since
    repeated calls on one model ask for it again (each threshold; `cutoff`, twice).
    """
    if model.kind is BathKind.ISOLATED:
        return model.t_c
    if model.kind is BathKind.MARKOVIAN:
        return check_finite_positive(1.0 / model.gamma, "Markovian t_c = 1/gamma", SolverError)
    if model.kind is BathKind.NONMARKOVIAN:
        return 1.0 / math.sqrt(model.eta)

    def f(t):
        return decay_exponent(model, t) - 1.0, _exponent_slopes(model, t)[0]

    end = 0.25 * sys.float_info.max  # the bracket ends where pi tau is finite
    hi = min(1e12 * model.beta, end)
    cap = min(2.0 ** 199 * hi, end)
    t_c, g = _newton_root(f, 1e-12 * model.beta, hi, cap)
    if not (abs(g) <= 1e-12 and t_c >= sys.float_info.min):  # NaN: no root up to cap
        raise SolverError(f"Ohmic decay exponent never reaches 1 within 1e-12 at a normal "
                          f"float time up to {cap!r} for {model.to_dict()}")
    return t_c


def ohmic_limit_rates(alpha: float, beta: float, omega_c: float) -> tuple[float, float]:
    """Rates of the two limiting laws of the Ohmic exponent.

    Returns (gamma, eta) = (alpha*pi/beta, alpha*omega_c**2/2): the
    Markovian rate reached for tau >> beta and the quadratic-law
    coefficient reached for tau << beta with omega_c*tau << 1.
    """
    alpha = check_finite_nonnegative(alpha, "coupling alpha")
    beta = check_finite_positive(beta, "inverse temperature beta")
    omega_c = check_finite_positive(omega_c, "cutoff frequency omega_c")
    return alpha * math.pi / beta, alpha * omega_c * omega_c / 2.0
