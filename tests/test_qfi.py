import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ghzgain import (
    BathModel,
    CapacityError,
    DomainError,
    EvolutionParams,
    ProbeKind,
    ProbeSpec,
    ValidationError,
    apply_dephasing,
    build_probe_state,
    evolve_phase,
    qfi_eigen,
    qfi_ghz,
    qfi_separable,
    rho_derivative,
    validate_density_matrix,
)

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def op_on_qubit(op, qubit, n):
    """Embed a single-qubit operator; qubit i lives on bit i of the index."""
    full = np.ones((1, 1), dtype=complex)
    for j in reversed(range(n)):
        full = np.kron(full, op if j == qubit else I2)
    return full


def kraus_dephase_all(rho, gamma_value):
    """Oracle: apply the two-Kraus dephasing channel qubit by qubit."""
    n = rho.shape[0].bit_length() - 1
    p_keep = 0.5 * (1.0 + math.exp(-gamma_value))
    out = rho.copy()
    for qubit in range(n):
        k0 = math.sqrt(p_keep) * op_on_qubit(I2, qubit, n)
        k1 = math.sqrt(1.0 - p_keep) * op_on_qubit(SZ, qubit, n)
        out = k0 @ out @ k0.conj().T + k1 @ out @ k1.conj().T
    return out


def pipeline_state(spec, gamma_value, omega, tau):
    rho = build_probe_state(spec)
    rho = apply_dephasing(rho, gamma_value)
    return evolve_phase(rho, EvolutionParams(omega=omega, tau=tau))


class TestProbeStates:
    def test_single_qubit_plus_state(self):
        rho = build_probe_state(ProbeSpec(1, ProbeKind.SEPARABLE))
        assert np.allclose(rho, np.full((2, 2), 0.5))

    def test_two_qubit_ghz_corners(self):
        rho = build_probe_state(ProbeSpec(2, ProbeKind.GHZ))
        expected = np.zeros((4, 4), dtype=complex)
        for a in (0, 3):
            for b in (0, 3):
                expected[a, b] = 0.5
        assert np.array_equal(rho, expected)

    def test_ghz_purity(self):
        rho = build_probe_state(ProbeSpec(5, ProbeKind.GHZ))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12
        validate_density_matrix(rho)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            build_probe_state(ProbeSpec(13, ProbeKind.GHZ))

    def test_bad_particle_count(self):
        with pytest.raises(DomainError):
            ProbeSpec(0, ProbeKind.SEPARABLE)


class TestDephasing:
    def test_identity_channel(self):
        rho = build_probe_state(ProbeSpec(3, ProbeKind.SEPARABLE))
        assert np.array_equal(apply_dephasing(rho, 0.0), rho)

    def test_complete_dephasing(self):
        rho = build_probe_state(ProbeSpec(1, ProbeKind.SEPARABLE))
        out = apply_dephasing(rho, 50.0)
        assert abs(out[0, 1]) < 1e-20 and abs(out[1, 0]) < 1e-20
        assert out[0, 0] == pytest.approx(0.5) and out[1, 1] == pytest.approx(0.5)

    def test_ghz_corner_decay_factor(self):
        rho = build_probe_state(ProbeSpec(3, ProbeKind.GHZ))
        out = apply_dephasing(rho, 0.2)
        assert out[0, 7] == pytest.approx(0.5 * math.exp(-0.6), rel=1e-12)

    @pytest.mark.parametrize("kind", [ProbeKind.SEPARABLE, ProbeKind.GHZ])
    @pytest.mark.parametrize("gamma_value", [0.05, 0.2, 1.3])
    def test_matches_kraus_oracle(self, kind, gamma_value):
        rho = build_probe_state(ProbeSpec(3, kind))
        fast = apply_dephasing(rho, gamma_value)
        slow = kraus_dephase_all(rho, gamma_value)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_negative_exponent_rejected(self):
        rho = build_probe_state(ProbeSpec(1, ProbeKind.GHZ))
        with pytest.raises(DomainError):
            apply_dephasing(rho, -0.1)

    def test_trace_and_positivity_preserved(self):
        rho = pipeline_state(ProbeSpec(4, ProbeKind.GHZ), 0.3, 1.1, 0.7)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestPhaseEvolution:
    def test_zero_frequency_is_identity(self):
        rho = build_probe_state(ProbeSpec(2, ProbeKind.SEPARABLE))
        out = evolve_phase(rho, EvolutionParams(omega=0.0, tau=3.0))
        assert np.array_equal(out, rho)

    def test_single_qubit_relative_phase(self):
        rho = build_probe_state(ProbeSpec(1, ProbeKind.SEPARABLE))
        out = evolve_phase(rho, EvolutionParams(omega=math.pi, tau=1.0))
        assert out[0, 1] == pytest.approx(0.5 * np.exp(-1j * math.pi), abs=1e-15)

    def test_ghz_corner_phase(self):
        rho = build_probe_state(ProbeSpec(4, ProbeKind.GHZ))
        out = evolve_phase(rho, EvolutionParams(omega=0.3, tau=2.0))
        assert out[0, 15] == pytest.approx(0.5 * np.exp(-2.4j), rel=1e-12)

    @pytest.mark.parametrize("n,kind", [(1, ProbeKind.SEPARABLE), (3, ProbeKind.GHZ),
                                        (4, ProbeKind.SEPARABLE)])
    def test_matches_expm_oracle(self, n, kind):
        omega, tau = 0.8, 1.7
        rho = build_probe_state(ProbeSpec(n, kind))
        fast = evolve_phase(rho, EvolutionParams(omega=omega, tau=tau))
        h = sum(op_on_qubit(SZ, q, n) for q in range(n)) * (omega / 2.0)
        u = expm(-1j * tau * h)
        slow = u @ rho @ u.conj().T
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_commutes_with_dephasing(self):
        rho = build_probe_state(ProbeSpec(3, ProbeKind.GHZ))
        params = EvolutionParams(omega=0.3, tau=2.0)
        a = apply_dephasing(evolve_phase(rho, params), 0.2)
        b = evolve_phase(apply_dephasing(rho, 0.2), params)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_negative_tau_rejected(self):
        with pytest.raises(DomainError):
            EvolutionParams(omega=1.0, tau=-0.5)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(DomainError, match="omega must be finite"):
            EvolutionParams(omega=omega, tau=1.0)

    def test_negative_and_zero_omega_allowed(self):
        rho = build_probe_state(ProbeSpec(2, ProbeKind.GHZ))
        for omega in (-0.7, 0.0):
            out = evolve_phase(rho, EvolutionParams(omega=omega, tau=1.0))
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        rho = build_probe_state(ProbeSpec(2, ProbeKind.GHZ))
        with pytest.raises(DomainError, match="finite and non-negative"):
            EvolutionParams(omega=1.0, tau=tau)
        with pytest.raises(DomainError, match="finite and non-negative"):
            rho_derivative(rho, tau)
        with pytest.raises(DomainError, match="finite and non-negative"):
            apply_dephasing(rho, tau)


class TestRhoDerivative:
    def test_diagonal_state_has_zero_derivative(self):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        assert np.max(np.abs(rho_derivative(rho, 2.0))) == 0.0

    def test_matches_finite_difference(self):
        spec = ProbeSpec(1, ProbeKind.SEPARABLE)
        omega, tau, delta = 0.9, 1.0, 1e-6
        drho = rho_derivative(pipeline_state(spec, 0.0, omega, tau), tau)
        fd = (pipeline_state(spec, 0.0, omega + delta, tau)
              - pipeline_state(spec, 0.0, omega - delta, tau)) / (2 * delta)
        assert np.max(np.abs(drho - fd)) < 1e-9

    def test_hermitian_and_traceless(self):
        rho = pipeline_state(ProbeSpec(2, ProbeKind.GHZ), 0.0, 0.4, 0.5)
        drho = rho_derivative(rho, 0.5)
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-14
        assert abs(np.trace(drho)) < 1e-14


def eigen_qfi_for(spec, gamma_value, tau, omega=0.7):
    rho = pipeline_state(spec, gamma_value, omega, tau)
    return qfi_eigen(rho, rho_derivative(rho, tau))


class TestQfiEigen:
    def test_single_qubit_pure_state(self):
        value = eigen_qfi_for(ProbeSpec(1, ProbeKind.SEPARABLE), 0.0, 1.3)
        assert value == pytest.approx(1.69, rel=1e-9)

    def test_ghz_three_qubits_noiseless(self):
        value = eigen_qfi_for(ProbeSpec(3, ProbeKind.GHZ), 0.0, 1.0)
        assert value == pytest.approx(9.0, rel=1e-9)

    def test_maximally_mixed_state_carries_nothing(self):
        rho = 0.5 * np.eye(2, dtype=complex)
        assert qfi_eigen(rho, rho_derivative(rho, 1.0)) == 0.0

    def test_separable_markovian_case(self):
        model = BathModel.markovian(1.0)
        value = eigen_qfi_for(ProbeSpec(4, ProbeKind.SEPARABLE), 0.5, 0.5)
        closed = qfi_separable(4, 0.5, model)
        assert value == pytest.approx(closed, rel=1e-9)

    def test_non_hermitian_input_rejected(self):
        rho = build_probe_state(ProbeSpec(1, ProbeKind.SEPARABLE))
        bad = rho.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(ValidationError):
            qfi_eigen(bad, rho_derivative(rho, 1.0))
        with pytest.raises(ValidationError):
            qfi_eigen(rho, bad)

    def test_omega_independence(self):
        spec = ProbeSpec(3, ProbeKind.GHZ)
        values = [eigen_qfi_for(spec, 0.4, 0.8, omega=w) for w in (0.0, 0.5, 1.7)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-9)


class TestValidation:
    def test_a_matrix_that_is_not_square_2n_is_rejected(self):
        for shape in [(3, 3), (2, 4), (4,)]:
            with pytest.raises(ValidationError, match="square 2\\^N x 2\\^N"):
                validate_density_matrix(np.zeros(shape, dtype=complex))

    def test_a_non_hermitian_matrix_is_rejected(self):
        rho = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="not Hermitian"):
            validate_density_matrix(rho)

    def test_a_trace_other_than_1_is_rejected(self):
        with pytest.raises(ValidationError, match="trace differs from 1"):
            validate_density_matrix(0.6 * np.eye(2, dtype=complex))

    def test_a_negative_eigenvalue_is_rejected(self):
        rho = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)  # eigenvalues 1.1, -0.1
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            validate_density_matrix(rho)

    def test_qfi_of_mismatched_shapes_is_rejected(self):
        rho = build_probe_state(ProbeSpec(1, ProbeKind.SEPARABLE))
        drho = rho_derivative(build_probe_state(ProbeSpec(2, ProbeKind.SEPARABLE)), 1.0)
        with pytest.raises(ValidationError, match="shape mismatch"):
            qfi_eigen(rho, drho)


class TestClosedForms:
    def test_isolated_separable(self):
        assert qfi_separable(10, 1.0, BathModel.isolated(1.0)) == pytest.approx(10.0)

    def test_isolated_ghz(self):
        assert qfi_ghz(6, 1.0, BathModel.isolated(1.0)) == pytest.approx(36.0)

    def test_zero_sensing_time(self):
        assert qfi_separable(7, 0.0, BathModel.markovian(1.0)) == 0.0

    @pytest.mark.parametrize("form", [qfi_separable, qfi_ghz])
    def test_underflowed_decay_beats_an_overflowing_square(self, form):
        # tau^2 = inf, exp(-2 Gamma) = 0: no information, not inf * 0 = nan
        assert form(3, 1e200, BathModel.markovian(1.0)) == 0.0

    @pytest.mark.parametrize("form", [qfi_separable, qfi_ghz])
    def test_count_too_large_for_a_float_rejected(self, form):
        with pytest.raises(DomainError, match="largest float"):
            form(10**400, 0.5, BathModel.markovian(1.0))

    def test_single_particle_forms_coincide(self):
        model = BathModel.nonmarkovian(2.0)
        for tau in (0.1, 0.5, 2.0):
            assert qfi_separable(1, tau, model) == pytest.approx(qfi_ghz(1, tau, model))

    @pytest.mark.parametrize("kind", [ProbeKind.SEPARABLE, ProbeKind.GHZ])
    def test_brute_force_agrees_everywhere(self, kind):
        for n in range(1, 7):
            for gamma_value in (0.0, 0.1, 0.7):
                for tau in (0.2, 1.0):
                    if gamma_value == 0.0:
                        model = BathModel.isolated(1.0)
                    else:
                        model = BathModel.markovian(gamma_value / tau)
                    if kind is ProbeKind.SEPARABLE:
                        closed = qfi_separable(n, tau, model)
                    else:
                        closed = qfi_ghz(n, tau, model)
                    value = eigen_qfi_for(ProbeSpec(n, kind), gamma_value, tau)
                    assert value == pytest.approx(closed, rel=1e-9), (kind, n, gamma_value, tau)


@given(
    x=st.floats(-1.0, 1.0),
    y=st.floats(-1.0, 1.0),
    z=st.floats(-1.0, 1.0),
    gamma_value=st.floats(0.0, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_dephasing_is_a_valid_channel_on_any_qubit_state(x, y, z, gamma_value):
    norm = math.sqrt(x * x + y * y + z * z)
    if norm > 1.0:
        x, y, z = x / norm, y / norm, z / norm
    rho = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])
    out = apply_dephasing(rho, gamma_value)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-10
