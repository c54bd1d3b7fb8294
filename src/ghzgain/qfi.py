"""Quantum Fisher information of the dephased, phase-rotated probe state.

Two routes are provided.  The closed forms

    F_sep(N, tau) = N   * tau**2 * exp(-2*Gamma(tau))
    F_ghz(N, tau) = N^2 * tau**2 * exp(-2*N*Gamma(tau))

are what the rest of the package consumes (by _fisher).  Independently, an
explicit density-matrix pipeline (build the prepared state, dephase each
qubit, apply the collective phase rotation, differentiate, eigendecompose)
computes the same quantity by the general spectral formula

    F = 2 * sum_{ij} |<phi_j| drho/domega |phi_i>|^2 / (lambda_i + lambda_j)

restricted to pairs with lambda_i + lambda_j above a rank tolerance.  The
brute-force route is exponential in N and capped at 12 qubits; it exists
to cross-check the closed forms, not to be fast.

Basis convention: qubit i is bit i of the computational-basis index, bit
value 0 for |0> (the +1 eigenstate of sigma_z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .bath import _WHERE, BathModel, _decay_exponent
from .errors import (CapacityError, DomainError, ValidationError, check_choice, check_count,
                     check_finite, check_finite_nonnegative)

__all__ = [
    "MAX_QUBITS",
    "ProbeKind",
    "ProbeSpec",
    "EvolutionParams",
    "validate_density_matrix",
    "build_probe_state",
    "apply_dephasing",
    "evolve_phase",
    "rho_derivative",
    "qfi_eigen",
    "qfi_separable",
    "qfi_ghz",
]

MAX_QUBITS = 12
# validate_density_matrix's bounds on the largest |rho - rho^H| entry and on |tr rho - 1|,
# and its floor on the least eigenvalue; qfi_eigen's Hermiticity bound is the first, and
# its eigenvalue pairs with lambda_i + lambda_j <= _RANK_TOL lie outside the support of rho
_HERM_TOL, _TRACE_TOL, _EIG_FLOOR, _RANK_TOL = 1e-12, 1e-12, -1e-10, 1e-12


class ProbeKind(str, Enum):
    SEPARABLE = "separable"
    GHZ = "ghz"


@dataclass(frozen=True)
class ProbeSpec:
    """Particle count and prepared-state kind; either one invalid raises DomainError."""

    n: int
    kind: ProbeKind

    def __post_init__(self):
        object.__setattr__(self, "n", check_count(self.n, "particle count"))
        object.__setattr__(self, "kind", check_choice(self.kind, ProbeKind, "probe kind",
                                                      DomainError))


@dataclass(frozen=True)
class EvolutionParams:
    """Angular frequency omega and sensing time tau >= 0, finite floats (else DomainError)."""

    omega: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "omega", check_finite(self.omega, "angular frequency omega"))
        object.__setattr__(self, "tau", check_finite_nonnegative(self.tau, "sensing time"))


@lru_cache(maxsize=None)
def _popcounts(dim: int) -> np.ndarray:
    # uint8 keeps the cached dim x dim Hamming table small at 12 qubits
    return np.array([int(a).bit_count() for a in range(dim)], dtype=np.uint8)


@lru_cache(maxsize=None)
def _hamming(dim: int) -> np.ndarray:
    """Hamming distance between the bitstrings of every index pair."""
    idx = np.arange(dim)
    return _popcounts(dim)[np.bitwise_xor.outer(idx, idx)]


def _num_qubits(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or 2**n != dim:
        raise ValidationError(f"expected a square 2^N x 2^N matrix, got shape {rho.shape}")
    return n


def _magnetization(n: int) -> np.ndarray:
    """Sum of sigma_z eigenvalues per basis state: #zeros - #ones."""
    return n - 2 * _popcounts(2**n).astype(np.int64)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check Hermiticity, unit trace and positivity; raise ValidationError."""
    _num_qubits(rho)
    if np.max(np.abs(rho - rho.conj().T)) > _HERM_TOL:
        raise ValidationError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > _TRACE_TOL:
        raise ValidationError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < _EIG_FLOOR:
        raise ValidationError("density matrix has a negative eigenvalue")


def build_probe_state(spec: ProbeSpec) -> np.ndarray:
    """Projector onto the prepared pure state.

    Separable: every qubit in (|0> + |1>)/sqrt(2), so all 4^N entries are
    2^-N.  GHZ: (|0...0> + |1...1>)/sqrt(2), so the four corner entries
    are 1/2 and everything else vanishes.
    """
    if spec.n > MAX_QUBITS:
        raise CapacityError(
            f"brute-force path supports at most {MAX_QUBITS} qubits, got {spec.n}"
        )
    dim = 2**spec.n
    if spec.kind is ProbeKind.SEPARABLE:
        return np.full((dim, dim), 1.0 / dim, dtype=complex)
    rho = np.zeros((dim, dim), dtype=complex)
    for a in (0, dim - 1):
        for b in (0, dim - 1):
            rho[a, b] = 0.5
    return rho


def apply_dephasing(rho: np.ndarray, gamma_value: float) -> np.ndarray:
    """Independent dephasing of every qubit by exponent Gamma = gamma_value.

    Per qubit the channel is
    rho -> (1+e^-Gamma)/2 rho + (1-e^-Gamma)/2 sigma_z rho sigma_z;
    its N-fold tensor power multiplies element (a, b) by
    exp(-Gamma * hamming(a, b)), which is how it is applied here
    (O(4^N) instead of expanding 2^N Kraus terms).
    """
    gamma_value = check_finite_nonnegative(gamma_value, "decay exponent")
    n = _num_qubits(rho)
    if gamma_value == 0.0:
        return rho.copy()
    return rho * np.exp(-gamma_value * _hamming(2**n))


def evolve_phase(rho: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """Conjugate by the diagonal rotation exp(-i tau omega sum_i sigma_z^i / 2)."""
    n = _num_qubits(rho)
    phase = np.exp(-0.5j * params.omega * params.tau * _magnetization(n))
    return phase[:, None] * rho * phase.conj()[None, :]


def rho_derivative(rho_omega: np.ndarray, tau: float) -> np.ndarray:
    """d rho / d omega for the collective sigma_z rotation.

    Equals -i tau [J_z, rho] with J_z = (1/2) sum_i sigma_z^i; diagonal in
    the computational basis, so the commutator reduces to an elementwise
    factor.  The result is Hermitian and traceless.
    """
    tau = check_finite_nonnegative(tau, "sensing time")
    n = _num_qubits(rho_omega)
    m = _magnetization(n)
    return -0.5j * tau * (m[:, None] - m[None, :]) * rho_omega


def qfi_eigen(rho_omega: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information by eigendecomposition of rho.

    Pairs with lambda_i + lambda_j <= _RANK_TOL = 1e-12 are outside the
    support of rho and are excluded.
    """
    if rho_omega.shape != drho.shape:
        raise ValidationError(
            f"shape mismatch: rho {rho_omega.shape} vs drho {drho.shape}"
        )
    for name, mat in (("rho", rho_omega), ("drho", drho)):
        if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
            raise ValidationError(f"{name} is not Hermitian within {_HERM_TOL:g}")
    evals, evecs = np.linalg.eigh(rho_omega)
    a = evecs.conj().T @ drho @ evecs
    denom = evals[:, None] + evals[None, :]
    mask = denom > _RANK_TOL
    return float(2.0 * np.sum(np.abs(a[mask]) ** 2 / denom[mask]))


def _fisher(weight, tau, decay, xp=math):
    """F = weight tau^2 decay at floats (xp = math) or elementwise over arrays (xp = numpy):
    weight N and decay exp(-2 Gamma(tau)) for N product-state particles, weight N^2 and
    decay exp(-2 N Gamma(tau)) for an N-particle GHZ block.  An underflowed decay wins over
    an overflowing tau^2 (not inf * 0 = NaN)."""
    return _WHERE[xp](decay != 0.0, weight * tau * tau * decay, 0.0)


def qfi_separable(n: int, tau: float, model: BathModel) -> float:
    """Closed form N tau^2 exp(-2 Gamma(tau)) for the product probe state."""
    n, tau = check_count(n, "particle count"), check_finite_nonnegative(tau, "sensing time")
    return _fisher(n, tau, math.exp(-2.0 * _decay_exponent(model, tau)))


def qfi_ghz(n: int, tau: float, model: BathModel) -> float:
    """Closed form N^2 tau^2 exp(-2 N Gamma(tau)) for the GHZ probe state.

    The GHZ coherence sits between |0...0> and |1...1>, a Hamming
    distance N apart, hence the N-fold faster decay.
    """
    n, tau = check_count(n, "particle count"), check_finite_nonnegative(tau, "sensing time")
    return _fisher(float(n) * n, tau, math.exp(-2.0 * n * _decay_exponent(model, tau)))
