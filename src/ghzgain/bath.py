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

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (SolverError, ValidationError, check_fields, check_finite_nonnegative,
                     check_finite_positive, check_number)

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
    in rad/s, inverse bath temperature in s).
    """

    kind: BathKind
    t_c: float | None = None
    gamma: float | None = None
    eta: float | None = None
    alpha: float | None = None
    omega_c: float | None = None
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", BathKind(self.kind))
        required = _REQUIRED[self.kind]
        for name in _FIELDS:
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ValidationError(
                        f"{self.kind.value} model requires field '{name}'"
                    )
                what = f"field '{name}'"
                check_number(value, what)
                check_finite_positive(value, what, ValidationError)
                object.__setattr__(self, name, float(value))
            elif value is not None:
                raise ValidationError(
                    f"field '{name}' is not used by a {self.kind.value} model"
                )

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
        try:
            kind = BathKind(data["kind"])
        except ValueError:
            valid = ", ".join(k.value for k in BathKind)
            raise ValidationError(
                f"unknown bath kind {data['kind']!r} (expected one of: {valid})"
            ) from None
        return cls(kind, **{name: value for name, value in data.items() if name != "kind"})


# sinh(x)/x - 1 = sum_k x^(2k)/(2k+1)!: no cancellation, and k <= 9 is one ulp below x = 1
_SINHC_TAYLOR = tuple(1.0 / math.factorial(2 * k + 1) for k in range(9, 0, -1))


def _sinhc_minus_one(x2):
    """sinh(x)/x - 1 for x2 = x*x < 1, a float or an array."""
    return functools.reduce(lambda acc, c: acc * x2 + c, _SINHC_TAYLOR, 0.0) * x2


# ln(sinh(x)/x), stable over many decades, by branch: its Taylor series
# below 1e-2 (truncation under one ulp); log1p of sinh(x)/x - 1 by series
# below 1, where ln(sinh x) - ln x cancels to ~4e-11 relative; the direct
# form below 20; and sinh(x) = e^x (1 - e^{-2x})/2 above, where sinh
# overflows.  Its derivative coth(x) - 1/x takes a series below 1e-2 and,
# below 1, where 1/tanh(x) - 1/x cancels to ~7e-12 relative, Lambert's
# continued fraction x/(3 + x^2/(5 + x^2/(7 + ... + x^2/17))) written as a
# ratio of polynomials in x^2 with positive coefficients: no cancellation,
# and the truncation is under one ulp below 1.
# Formula k takes x, x*x and xp (math or numpy), from edge k - 1 to edge k.
_LOG_SINHC_EDGES = (1e-2, 1.0, 20.0)
_LOG_SINHC = (
    lambda x, x2, xp: x2 / 6.0 - x2 * x2 / 180.0 + x2 * x2 * x2 / 2835.0,
    lambda x, x2, xp: xp.log1p(_sinhc_minus_one(x2)),
    lambda x, x2, xp: xp.log(xp.sinh(x)) - xp.log(x),
    lambda x, x2, xp: x + xp.log1p(-xp.exp(-2.0 * x)) - xp.log(2.0 * x),
)
_DLOG_SINHC_EDGES = (1e-2, 1.0)
_DLOG_SINHC = (
    lambda x, x2, xp: x / 3.0 - x * x2 / 45.0 + 2.0 * x * x2 * x2 / 945.0,
    lambda x, x2, xp: x * (11486475.0 + x2 * (810810.0 + x2 * (12870.0 + x2 * 44.0)))
    / (34459425.0 + x2 * (4729725.0 + x2 * (135135.0 + x2 * (990.0 + x2)))),
    lambda x, x2, xp: 1.0 / xp.tanh(x) - 1.0 / x,
)


def _by_branch(formulas, edges, x, xp):
    """The formula whose edges hold x, at a float x (xp = math) or at each
    element of an array x (xp = numpy; each formula runs on its own elements)."""
    if xp is math:
        return formulas[bisect.bisect_right(edges, x)](x, x * x, math)
    branch = np.searchsorted(edges, x, side="right")
    out = np.empty_like(x)
    with np.errstate(all="ignore"):
        for k, formula in enumerate(formulas):
            if (at := branch == k).any():
                out[at] = formula(x[at], x[at] * x[at], np)
    return out


def _ohmic_exponent(model: BathModel, tau, xp=math):
    """Ohmic Gamma at a float tau, or elementwise over an array with xp =
    numpy (not checked); both log terms vanish exactly at tau = 0."""
    wt = model.omega_c * tau
    return 0.5 * model.alpha * xp.log1p(wt * wt) + model.alpha * _by_branch(
        _LOG_SINHC, _LOG_SINHC_EDGES, math.pi * tau / model.beta, xp
    )


def _ohmic_exponent_derivative(model: BathModel, tau, xp=math):
    """Ohmic dGamma/dtau at a float tau, or elementwise over an array with
    xp = numpy (not checked)."""
    k, w = math.pi / model.beta, model.omega_c
    wt = w * tau
    dlog_sinhc = _by_branch(_DLOG_SINHC, _DLOG_SINHC_EDGES, k * tau, xp)
    return model.alpha * (w * wt / (1.0 + wt * wt) + k * dlog_sinhc)


_BRENT_MAX_ITER = 100
_BRENT_HALF_TOL = 2.0 * sys.float_info.epsilon  # half the relative bracket width it stops at
_BRENT_MIN_TOL = math.ulp(0.0)  # added to the tolerance: never 0 at an underflowing root


def _brent(f, lo, hi, f_lo, f_hi):
    """Root of f between lo and hi, given f_lo = f(lo) and f_hi = f(hi) of
    opposite signs (or one of them 0), by Brent's method (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4, in the
    form of scipy's brentq).  Each step takes a secant or inverse quadratic
    step that stays well inside the sign bracket and shrinks fast enough,
    and bisects otherwise.  Returns (x, f(x)) at the bracket end with the
    smaller |f| once the bracket is narrower than 4 eps x or f(x) is 0;
    raises SolverError after _BRENT_MAX_ITER evaluations of f without that.
    """
    # cur: best point; pre: the point before it; blk: the end of the sign
    # bracket opposite cur; s_cur, s_pre: the last two steps
    pre, f_pre, cur, f_cur = lo, f_lo, hi, f_hi
    blk, f_blk, s_pre, s_cur = lo, f_lo, 0.0, 0.0
    for _ in range(_BRENT_MAX_ITER):
        if (f_pre < 0.0) != (f_cur < 0.0):
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk, f_pre, f_cur, f_blk = cur, blk, cur, f_cur, f_blk, f_cur
        tol = _BRENT_HALF_TOL * abs(cur) + _BRENT_MIN_TOL
        s_bis = 0.5 * (blk - cur)
        if f_cur == 0.0 or abs(s_bis) < tol:
            return cur, f_cur
        interpolate = abs(s_pre) > tol and abs(f_cur) < abs(f_pre)
        if interpolate:
            if pre == blk:  # secant
                step = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic; a denominator that underflows to 0 bisects
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                den = d_blk * d_pre * (f_blk - f_pre)
                step = -f_cur * (f_blk * d_blk - f_pre * d_pre) / den if den else math.inf
            interpolate = 2.0 * abs(step) < min(abs(s_pre), 3.0 * abs(s_bis) - tol)
        if interpolate:
            s_pre, s_cur = s_cur, step
        else:
            s_pre = s_cur = s_bis
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        f_cur = f(cur)
    raise SolverError(
        f"Brent's zero finder did not converge in {_BRENT_MAX_ITER} evaluations"
    )


def _brent_arrays(f, lo, hi, f_lo, f_hi):
    """_brent elementwise over float arrays of brackets, for an elementwise
    f.  Every element takes _brent's steps; one that has converged stands
    still while the others go on.  Returns (x, converged), converged False
    where _BRENT_MAX_ITER evaluations did not suffice."""
    pre, f_pre, cur, f_cur = lo, f_lo, hi, f_hi
    blk, f_blk = lo, f_lo
    s_pre = s_cur = np.zeros_like(lo)
    with np.errstate(all="ignore"):  # the unused trial steps may divide by 0
        for _ in range(_BRENT_MAX_ITER):
            flip = (f_pre < 0.0) != (f_cur < 0.0)
            blk, f_blk = np.where(flip, pre, blk), np.where(flip, f_pre, f_blk)
            s_pre, s_cur = np.where(flip, cur - pre, s_pre), np.where(flip, cur - pre, s_cur)
            swap = np.abs(f_blk) < np.abs(f_cur)
            pre, cur, blk, f_pre, f_cur, f_blk = (
                np.where(swap, cur, pre), np.where(swap, blk, cur), np.where(swap, cur, blk),
                np.where(swap, f_cur, f_pre), np.where(swap, f_blk, f_cur), np.where(swap, f_cur, f_blk),
            )
            tol = _BRENT_HALF_TOL * np.abs(cur) + _BRENT_MIN_TOL
            s_bis = 0.5 * (blk - cur)
            converged = (f_cur == 0.0) | (np.abs(s_bis) < tol)
            if converged.all():
                break
            d_pre = (f_pre - f_cur) / (pre - cur)
            d_blk = (f_blk - f_cur) / (blk - cur)
            step = np.where(pre == blk, -f_cur * (cur - pre) / (f_cur - f_pre),
                            -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre)))
            interpolate = ((np.abs(s_pre) > tol) & (np.abs(f_cur) < np.abs(f_pre))
                           & (2.0 * np.abs(step) < np.minimum(np.abs(s_pre), 3.0 * np.abs(s_bis) - tol)))
            s_pre, s_cur = np.where(interpolate, s_cur, s_bis), np.where(interpolate, step, s_bis)
            pre, f_pre = cur, f_cur
            cur = np.where(converged, cur,
                           cur + np.where(np.abs(s_cur) > tol, s_cur, np.copysign(tol, s_bis)))
            f_cur = f(cur)
    return cur, converged


def decay_exponent(model: BathModel, tau: float) -> float:
    """Accumulated dephasing exponent Gamma(tau) for one probe particle."""
    if not 0.0 <= tau < math.inf:
        check_finite_nonnegative(tau, "sensing time")
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
    """dGamma/dtau.  At tau = 0 the Ohmic form returns its analytic limit 0."""
    if not 0.0 <= tau < math.inf:
        check_finite_nonnegative(tau, "sensing time")
    if model.kind is BathKind.ISOLATED:
        return 0.0
    if model.kind is BathKind.MARKOVIAN:
        return model.gamma
    if model.kind is BathKind.NONMARKOVIAN:
        return 2.0 * (model.eta * tau)  # 2 eta may overflow
    return _ohmic_exponent_derivative(model, tau)


@functools.lru_cache(maxsize=512)
def coherence_time(model: BathModel) -> float:
    """Single-particle coherence time t_c.

    Isolated models return the configured t_c; the two limiting laws give
    1/gamma and 1/sqrt(eta).  For the full Ohmic law the convention used
    here is the time at which Gamma first reaches 1 (the two limits of
    that convention recover 1/gamma and 1/sqrt(eta)), located by Brent's
    zero finder on Gamma - 1 to a relative width of 4 eps; cached, since
    sweeps ask for it per grid point.
    """
    if model.kind is BathKind.ISOLATED:
        return model.t_c
    if model.kind is BathKind.MARKOVIAN:
        return 1.0 / model.gamma
    if model.kind is BathKind.NONMARKOVIAN:
        return 1.0 / math.sqrt(model.eta)
    lo = 1e-12 * model.beta
    hi = 1e12 * model.beta
    g_lo = decay_exponent(model, lo) - 1.0
    if g_lo >= 0.0:
        raise SolverError(
            "Ohmic coherence time lies below the search bracket; "
            "the coupling is too strong for this convention"
        )
    for _ in range(200):
        g_hi = decay_exponent(model, hi) - 1.0
        if g_hi >= 0.0:
            break
        hi *= 2.0
    else:
        raise SolverError(
            "Ohmic decay exponent never reaches 1 inside the expanded bracket"
        )
    t_c = _brent(lambda t: decay_exponent(model, t) - 1.0, lo, hi, g_lo, g_hi)[0]
    if not t_c > 0.0:  # lo underflowed to 0, and so did the root
        raise SolverError(f"Ohmic coherence time underflows at beta = {model.beta!r}")
    return t_c


def ohmic_limit_rates(alpha: float, beta: float, omega_c: float) -> tuple[float, float]:
    """Rates of the two limiting laws of the Ohmic exponent.

    Returns (gamma, eta) = (alpha*pi/beta, alpha*omega_c**2/2): the
    Markovian rate reached for tau >> beta and the quadratic-law
    coefficient reached for tau << beta with omega_c*tau << 1.
    """
    check_finite_nonnegative(alpha, "coupling alpha")
    check_finite_positive(beta, "inverse temperature beta")
    check_finite_positive(omega_c, "cutoff frequency omega_c")
    return alpha * math.pi / beta, alpha * omega_c * omega_c / 2.0
