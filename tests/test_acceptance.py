"""Acceptance suite: one test per release criterion, one printed verdict
line per criterion (run with ``pytest -s`` to see them live)."""

import cmath
import math
import time

from ghzgain import (
    BathModel,
    EvolutionParams,
    ProbeKind,
    ProbeSpec,
    ScalingKind,
    ScalingLaw,
    SweepConfig,
    apply_dephasing,
    build_probe_state,
    decay_exponent,
    evolve_phase,
    gain,
    gain_isolated,
    monotonicity_scan,
    n_cutoff,
    n_max_gain,
    qfi_eigen,
    qfi_ghz,
    qfi_separable,
    rho_derivative,
    run_sweep,
    stationarity_residual,
    tau_opt_nonmarkov,
    tau_opt_numeric,
    threshold_ent_time,
)
from ghzgain.sweep import AxisSpec


def report(number, description, passed, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[criterion {number:2d}] {'PASS' if passed else 'FAIL'} {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def log_grid(lo, hi, points):
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(points)]


def brute_force_qfi(n, kind, gamma_value, tau, omega=0.7):
    rho = build_probe_state(ProbeSpec(n, kind))
    rho = apply_dephasing(rho, gamma_value)
    rho = evolve_phase(rho, EvolutionParams(omega=omega, tau=tau))
    return qfi_eigen(rho, rho_derivative(rho, tau))


def test_criterion_01_qfi_closed_forms_vs_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for kind in (ProbeKind.SEPARABLE, ProbeKind.GHZ):
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
                    value = brute_force_qfi(n, kind, gamma_value, tau)
                    worst = max(worst, abs(value - closed) / closed)
    elapsed = time.perf_counter() - start
    report(
        1,
        "eigendecomposition QFI matches closed forms to 1e-9 (N=1..6)",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_markovian_zero_overhead_unity():
    worst = max(
        abs(gain(BathModel.markovian(1.0), n, 0.0, 0.0).r - 1.0)
        for n in (2, 10, 100)
    )
    report(2, "Markovian gain with zero overheads is 1", worst < 1e-9,
           f"worst |r-1| {worst:.2e}")


def test_criterion_03_markovian_crossing_grid():
    gamma = 2.0
    worst = 0.0
    for product in (0.1, 1.0, 10.0):
        tau_tilde_sep = product / gamma
        for n in (2, 10, 100):
            r = gain(BathModel.markovian(gamma), n, tau_tilde_sep, tau_tilde_sep / n).r
            worst = max(worst, abs(r - 1.0))
    report(3, "entangled overhead = separable/N sits exactly on r = 1",
           worst < 1e-9, f"worst |r-1| {worst:.2e}")


def test_criterion_04_nonmarkovian_sqrt_loci():
    worst_zero, worst_locus = 0.0, 0.0
    for eta, tau_tilde_sep in ((1.0, 0.3), (2.5, 0.8)):
        model = BathModel.nonmarkovian(eta)
        for n in (4, 9, 16):
            root_n = math.sqrt(n)
            worst_zero = max(worst_zero, abs(gain(model, n, 0.0, 0.0).r - root_n))
            r = gain(model, n, tau_tilde_sep, tau_tilde_sep / root_n).r
            worst_locus = max(worst_locus, abs(r - root_n))
    report(4, "quadratic-decay gain hits sqrt(N) on both loci",
           worst_zero < 1e-9 and worst_locus < 1e-8,
           f"zero-overhead {worst_zero:.2e}, locus {worst_locus:.2e}")


def test_criterion_05_isolated_formula_and_threshold():
    t_c = 2.0
    model = BathModel.isolated(t_c)
    worst_gain, worst_thresh = 0.0, 0.0
    for x_sep in (0.0, 0.1, 0.35, 0.7):
        for n in (2, 5, 10):
            expected_theta = t_c * (1.0 - (1.0 - x_sep) / math.sqrt(n))
            theta = threshold_ent_time(model, n, x_sep * t_c)
            worst_thresh = max(worst_thresh, abs(theta - expected_theta) / t_c)
            worst_thresh = max(worst_thresh, abs(gain_isolated(n, x_sep, theta / t_c) - 1.0))
            for x_ent in (0.0, 0.1, 0.35, 0.7):
                r = gain(model, n, x_sep * t_c, x_ent * t_c).r
                closed = gain_isolated(n, x_sep, x_ent)
                worst_gain = max(worst_gain, abs(r - closed) / closed)
    report(5, "pipeline reduces to the decoherence-free formula and threshold",
           worst_gain <= 1e-12 and worst_thresh <= 1e-12,
           f"gain {worst_gain:.2e}, threshold {worst_thresh:.2e}")


def cardano_root(u):
    """The physical root of the scaled cubic 4 t^3 + 4 t^2 u - t - 2 u = 0 by
    Cardano's formula in complex arithmetic: the principal cube root times
    e^{i 2 pi / 3}.  An oracle independent of the library's real Viete forms."""
    disc = -13.5 * u**4 + 29.953125 * u * u - 0.421875
    z = (u * u * u - 5.625 * u + cmath.sqrt(complex(disc))) ** (1.0 / 3.0)
    z *= cmath.exp(2j * math.pi / 3.0)
    return -z / 3.0 - (u * u + 0.75) / (3.0 * z) - u / 3.0


def test_criterion_06_cubic_branch_validity():
    start = time.perf_counter()
    worst_imag, worst_res, worst_match = 0.0, 0.0, 0.0
    for eta in (0.25, 0.5, 1.0, 2.0, 4.0):
        for tau_tilde in (0.05, 0.2, 0.5, 1.0, 2.0):
            for n in (1, 2, 10, 100):
                scale = math.sqrt(n * eta)
                raw = cardano_root(tau_tilde * scale) / scale
                worst_imag = max(worst_imag, abs(raw.imag) / raw.real)
                opt = tau_opt_nonmarkov(eta, tau_tilde, n)
                worst_match = max(worst_match, abs(opt.tau_opt - raw.real) / raw.real)
                res = stationarity_residual(
                    BathModel.nonmarkovian(eta), tau_tilde, n, opt.tau_opt
                )
                worst_res = max(worst_res, abs(res))
                numeric = tau_opt_numeric(BathModel.nonmarkovian(eta), tau_tilde, n)
                worst_match = max(
                    worst_match, abs(opt.tau_opt - numeric.tau_opt) / numeric.tau_opt
                )
    elapsed = time.perf_counter() - start
    report(6, "cubic closed form: real branch, stationary, matches optimiser",
           worst_imag < 1e-9 and worst_res < 1e-10 and worst_match <= 1e-8
           and elapsed < 5.0,
           f"Im/Re {worst_imag:.1e}, residual {worst_res:.1e}, "
           f"match {worst_match:.1e}, {elapsed:.2f}s")


def test_criterion_07_gain_monotone_in_entangled_overhead():
    grid = log_grid(1e-3, 10.0, 100)
    total = 0
    for n in (1, 10, 1000):
        for tau_tilde_sep in (0.0, 0.03, 1.0):
            total += len(monotonicity_scan(BathModel.markovian(1.0), n, tau_tilde_sep, grid))
    for n in (1, 1000, 1000000):
        for tau_tilde_sep in (0.0, 1.0, 10.0):
            total += len(monotonicity_scan(BathModel.nonmarkovian(1.0), n, tau_tilde_sep, grid))
    report(7, "gain strictly decreases in the entangled overhead",
           total == 0, f"{total} violations")


def test_criterion_08_cutoff_and_peak_sizes():
    start = time.perf_counter()
    law = ScalingLaw(ScalingKind.LINEAR, 0.03)
    model = BathModel.isolated(1.0)
    cutoff = n_cutoff(model, law, 0.03, 100)
    best_n, best_r = n_max_gain(model, law, 0.03, 100)
    elapsed = time.perf_counter() - start

    # independent re-derivation from the closed-form gain
    direct = [
        gain_isolated(n, 0.03, 0.03 * n) if 0.03 * n < 1.0 else 0.0
        for n in range(1, 101)
    ]
    direct_cutoff = max(n for n, r in enumerate(direct, start=1) if r >= 1.0)
    direct_best = max(range(1, 101), key=lambda n: direct[n - 1])
    report(8, "linear overhead growth: cutoff N=27, best block N=11",
           cutoff == 27 == direct_cutoff and best_n == 11 == direct_best
           and abs(best_r - direct[10]) < 1e-12 and elapsed < 1.0,
           f"cutoff {cutoff}, peak ({best_n}, {best_r:.4f}), {elapsed:.2f}s")


def test_criterion_09_ohmic_limits():
    start = time.perf_counter()
    # linear-decay limit: relative deviation shrinks as tau/beta grows
    alpha, omega_c, beta = 0.1, 1000.0, 0.01
    model = BathModel.ohmic(alpha, omega_c, beta)
    gamma = alpha * math.pi / beta
    errors = []
    for ratio in log_grid(50.0, 500.0, 12):
        tau = ratio * beta
        value = decay_exponent(model, tau)
        errors.append(abs(value - gamma * tau) / value)
    markov_ok = all(b < a for a, b in zip(errors, errors[1:]))

    # quadratic limit agreement inside its validity window
    alpha, omega_c, beta = 0.1, 100.0, 1.0
    model = BathModel.ohmic(alpha, omega_c, beta)
    eta = alpha * omega_c**2 / 2.0
    quad_worst = max(
        abs(decay_exponent(model, tau) - eta * tau * tau) / decay_exponent(model, tau)
        for tau in log_grid(1e-7, 1e-4, 20)
    )
    elapsed = time.perf_counter() - start
    report(9, "microscopic exponent reaches both limiting laws",
           markov_ok and quad_worst <= 1e-3 and elapsed < 1.0,
           f"quadratic worst {quad_worst:.2e}, {elapsed:.2f}s")


def _panel_config(model, column_axis, x_ent_max, fixed):
    axes = (
        column_axis,
        AxisSpec("x_ent", 0.0, x_ent_max, 200, "linear"),
    )
    return SweepConfig(model=model, axes=axes, fixed=fixed,
                       output_format="csv", output_path="unused.csv")


def _contour_matches_threshold(model, rows, column_name, x_ent_max):
    """Empirical r = 1 crossing within one x_ent cell of the threshold."""
    from ghzgain import coherence_time

    t_c = coherence_time(model)
    cell = x_ent_max / 199.0
    per_column = 200
    for start in range(0, len(rows), per_column):
        block = rows[start:start + per_column]
        column_value = getattr(block[0], column_name)
        n = block[0].n
        tau_tilde_sep = block[0].x_sep * t_c
        theta = threshold_ent_time(model, n, tau_tilde_sep) / t_c
        crossing = None
        for i, row in enumerate(block):
            if row.r is None or row.r < 1.0:
                crossing = i
                break
        if crossing is None:
            return False, f"no crossing in column {column_name}={column_value}"
        lo = block[crossing - 1].x_ent if crossing else 0.0
        hi = block[crossing].x_ent
        if not (lo - cell <= theta <= hi + cell):
            return False, (
                f"column {column_name}={column_value}: threshold {theta:.4f} "
                f"outside cell [{lo:.4f}, {hi:.4f}]"
            )
    return True, ""


def test_criterion_10_contour_agreement_on_fig_grids():
    panels = {
        "a": (BathModel.isolated(1.0), AxisSpec("x_sep", 0.0, 0.9, 200), 0.995,
              {"n": 10}),
        "b": (BathModel.isolated(1.0), AxisSpec("n", 1, 10**4, 200, "log"), 0.995,
              {"x_sep": 0.03}),
        "c": (BathModel.markovian(1.0), AxisSpec("x_sep", 0.0, 0.9, 200), 0.995,
              {"n": 10}),
        "d": (BathModel.markovian(1.0), AxisSpec("n", 1, 10**4, 200, "log"), 0.995,
              {"x_sep": 0.03}),
        "e": (BathModel.nonmarkovian(1.0), AxisSpec("x_sep", 0.0, 0.9, 200), 1.6,
              {"n": 10}),
        "f": (BathModel.nonmarkovian(1.0), AxisSpec("n", 1, 10**4, 200, "log"), 0.995,
              {"x_sep": 0.03}),
    }
    details = []
    ok = True
    for name, (model, column_axis, x_ent_max, fixed) in panels.items():
        config = _panel_config(model, column_axis, x_ent_max, fixed)
        start = time.perf_counter()
        rows = run_sweep(config)
        elapsed = time.perf_counter() - start
        assert len(rows) == 40000
        matched, why = _contour_matches_threshold(model, rows, column_axis.name, x_ent_max)
        ok = ok and matched and elapsed < 60.0
        details.append(f"{name}:{elapsed:.1f}s" + ("" if matched else f" {why}"))
    report(10, "all six 200x200 panels trace the r = 1 contour",
           ok, ", ".join(details))
