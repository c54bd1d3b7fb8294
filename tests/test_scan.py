"""The array N-scan of ``gain._scan`` against the scalar solvers and
against a loop of one ``gain()`` call per size under the same rules."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzgain import (
    BathModel,
    DomainError,
    InfeasibleTimingError,
    ScalingLaw,
    SolverError,
    coherence_time,
    gain,
    n_cutoff,
    n_cutoff_and_max_gain,
    n_max_gain,
    optimal_sensing_time,
    scaling_law_eval,
)
from ghzgain.gain import ScalingKind
from ghzgain.opttime import _optimal_sensing_times

gain_module = importlib.import_module("ghzgain.gain")  # the package's gain is the function
CHUNK = gain_module._SCAN_CHUNK

MODELS = {
    "isolated": BathModel.isolated(1.0),
    "markovian": BathModel.markovian(1.3),
    "nonmarkovian": BathModel.nonmarkovian(0.7),
    "ohmic": BathModel.ohmic(0.05, 20.0, 0.5),
    "cold-ohmic": BathModel.ohmic(0.1, 100.0, 10.0),
}


def oracle_scan(model, law, n_search_max):
    """(cutoff, best_n, best_r) from one gain() call per size at the separable
    overhead base * t_c, stopping 10 sizes below 1 after a qualifying one; None
    when the last r is above 1."""
    t_c = coherence_time(model)
    tau_tilde_sep = law.base * t_c
    last_qualifying, best_n, best_r, below, r = 0, 0, -math.inf, 0, None
    for n in range(1, n_search_max + 1):
        try:
            r = gain(model, n, tau_tilde_sep, scaling_law_eval(law, n) * t_c).r
        except InfeasibleTimingError:
            r = None
        if r is not None and r > best_r:
            best_n, best_r = n, r
        if r is not None and r >= 1.0:
            last_qualifying, below = n, 0
        else:
            below += 1
            if last_qualifying and below >= 10:
                break
    if r is not None and r > 1.0:
        return None, best_n, best_r
    return last_qualifying, best_n, best_r


def assert_same_scan(got, want):
    assert got[:2] == want[:2]
    assert got[2] == pytest.approx(want[2], rel=1e-13)


@pytest.mark.parametrize("kind", MODELS)
def test_array_optimum_matches_the_scalar_solver(kind):
    model = MODELS[kind]
    rng = np.random.default_rng(20261018)
    t_c = coherence_time(model)
    n = np.round(10.0 ** rng.uniform(0.0, 6.0, 300))
    # isolated overheads run past t_c, where the timing is infeasible
    tau_tilde = rng.uniform(0.0, 1.2 if kind == "isolated" else 3.0, 300) * t_c
    tau, rate = _optimal_sensing_times(model, tau_tilde, n)
    sep = optimal_sensing_time(model, 0.1 * t_c, 1)
    for i in range(len(n)):
        args = (float(tau_tilde[i]), int(n[i]))
        try:
            opt = optimal_sensing_time(model, *args)
        except InfeasibleTimingError:
            assert rate[i] == 0.0
            continue
        # both Ohmic solvers run Brent's zero finder to 4 eps relative; numpy's
        # transcendentals in the array residual move the root by ~1e-15
        assert tau[i] == pytest.approx(opt.tau_opt, rel=1e-13)
        assert rate[i] == pytest.approx(opt.objective, rel=1e-13)
        # the scan's r = rate_ent / (n rate_sep)
        r = gain(model, int(n[i]), 0.1 * t_c, args[0]).r
        assert rate[i] / (n[i] * sep.objective) == pytest.approx(r, rel=1e-13)


@pytest.mark.parametrize("model, tau_tilde, n_eff", [
    (BathModel.markovian(1e300), 0.1, 4),         # SolverError: the rate underflows
    (BathModel.isolated(1e150), 0.0, 10**6),      # SolverError: rate overflows
    # u = 8.7e7, where the former complex-arithmetic cubic failed its checks
    # and both paths fell back to the numeric optimiser: now certified here
    (BathModel.nonmarkovian(7.5), 1e4, 10**7),
])
def test_uncertified_optima_are_left_to_the_scalar_solver(model, tau_tilde, n_eff):
    rate = _optimal_sensing_times(model, np.array([tau_tilde]), np.array([float(n_eff)]))[1]
    try:
        expected = optimal_sensing_time(model, tau_tilde, n_eff).objective
    except SolverError:
        assert math.isnan(rate[0])
    else:
        assert rate[0] == expected


def pass_widths(model, law, limit):
    """Sizes handed to each array pass of n_cutoff_and_max_gain."""
    widths = []
    solve = gain_module._optimal_sensing_times

    def recording(model, tau_tilde, n_eff):
        widths.append(len(n_eff))
        return solve(model, tau_tilde, n_eff)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gain_module, "_optimal_sensing_times", recording)
        n_cutoff_and_max_gain(model, law, limit)
    return widths


# the last size of each pass of a scan over 1..3 CHUNK that never stops
ENDS = np.cumsum(pass_widths(BathModel.isolated(1.0), ScalingLaw("constant", 0.03),
                             3 * CHUNK)).tolist()
FIRST_FULL_END = ENDS[int(np.flatnonzero(np.diff([0] + ENDS) == CHUNK)[0])]


def chunk_edge_law(cutoff):
    """Linear law b on an isolated probe with t_c = 1, where r(N) = N ((1 - N b)
    / (1 - b))^2 falls through 1 between cutoff and cutoff + 1: r(m) = 1 at m =
    cutoff + 1/2 for b = (sqrt(m) - 1) / (m^(3/2) - 1)."""
    middle = cutoff + 0.5
    return ScalingLaw("linear", (math.sqrt(middle) - 1.0) / (middle ** 1.5 - 1.0))


SCANS = {
    # stops at N = 37 inside the second pass; sizes 34.. are infeasible
    "early-stop-infeasible": (BathModel.isolated(1.0), ScalingLaw("linear", 0.03), 100),
    "markovian-tie-at-one": (BathModel.markovian(1.0), ScalingLaw("constant", 0.5), 100),
    # r(1) = 1 exactly, and the cutoff, only if N = 1 reuses the separable
    # optimum: the array cubic lands 3e-16 below it here
    "nonmarkovian-tie-at-one": (BathModel.nonmarkovian(1.0), ScalingLaw("linear", 0.2), 100),
    "nonmarkovian-square-root": (BathModel.nonmarkovian(1.0), ScalingLaw("square-root", 0.05),
                                 500),
    # near the Markov limit no size above 1 gains: the scan stops at N = 11
    "ohmic-logarithmic": (MODELS["ohmic"], ScalingLaw("logarithmic", 0.01), 300),
    "cold-ohmic-constant": (MODELS["cold-ohmic"], ScalingLaw("constant", 0.01), 200),
    # strong coupling, short optima: GHZ gains up to N = 32
    "strong-ohmic-square-root": (BathModel.ohmic(10.0, 1.0, 100.0),
                                 ScalingLaw("square-root", 0.1), 300),
    "none-across-chunks": (BathModel.isolated(1.0), ScalingLaw("constant", 0.03), CHUNK + 5),
}
# the tenth size below 1 is the last size of a pass (offset 10), or the
# first of the next (offset 9): a short early pass and the first full one
EDGES = {f"stop-{offset}-before-{end}": (end, offset)
         for end in (ENDS[1], FIRST_FULL_END) for offset in (10, 9)}
SCANS |= {case: (BathModel.isolated(1.0), chunk_edge_law(end - offset), 3 * CHUNK)
          for case, (end, offset) in EDGES.items()}


@pytest.mark.parametrize("case", SCANS)
def test_scan_matches_a_per_size_gain_loop(case):
    model, law, limit = SCANS[case]
    want = oracle_scan(model, law, limit)
    assert_same_scan(n_cutoff_and_max_gain(model, law, limit), want)
    if case in EDGES:
        end, offset = EDGES[case]
        assert want[0] + offset == end
    if case == "none-across-chunks":
        assert want[0] is None


def test_passes_start_small_and_double_up_to_the_chunk():
    widths = np.diff([0] + ENDS)
    assert widths[0] <= 16 and ENDS[-1] == 3 * CHUNK
    assert (widths[1:-1] == np.minimum(2 * widths[:-2], CHUNK)).all()
    # an Ohmic scan that stops at N = 11 solves only its first pass
    model, law, _ = SCANS["ohmic-logarithmic"]
    assert pass_widths(model, law, 10**6) == [widths[0]]


def test_overflowing_law_raises_where_the_loop_does():
    # t_c = 1e100 and base * t_c = 5e307: N = 1 qualifies, and the law
    # overflows at N = 4, before the scan stops at N = 11
    model, law = BathModel.markovian(1e-100), ScalingLaw("linear", 5e207)
    with pytest.raises(DomainError, match="entangled overhead time"):
        oracle_scan(model, law, 300)
    with pytest.raises(DomainError, match="entangled overhead time must be finite"):
        n_cutoff_and_max_gain(model, law, 300)
    # a scan that stops first never reaches the overflow
    model = BathModel.isolated(1.0)
    assert n_cutoff_and_max_gain(model, ScalingLaw("linear", 0.03), 10**6)[0] == 27
    # nor does a separable overhead base * t_c that overflows reach the scan
    with pytest.raises(DomainError, match="overhead time must be finite"):
        n_cutoff_and_max_gain(BathModel.isolated(1e300), ScalingLaw("constant", 1e10), 300)


RATE = st.floats(0.05, 20.0)
BATHS = st.one_of(st.builds(BathModel.isolated, RATE), st.builds(BathModel.markovian, RATE),
                  st.builds(BathModel.nonmarkovian, RATE),
                  st.builds(BathModel.ohmic, st.floats(0.01, 10.0), RATE, RATE))


@given(model=BATHS, law=st.builds(ScalingLaw, st.sampled_from(ScalingKind), st.floats(0.0, 2.0)))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_every_feasible_scan_gains_exactly_1_at_one_particle(model, law):
    # the law's overhead at N = 1 is the separable one, so N = 1 is the
    # separable probe: r(1) = 1 bit for bit, and the cutoff is at least 1
    try:
        optimal_sensing_time(model, law.base * coherence_time(model), 1)
    except InfeasibleTimingError:
        assume(False)
    assert scaling_law_eval(law, 1) == law.base
    assert n_max_gain(model, law, 1) == (1, 1.0)
    cutoff = n_cutoff(model, law, 30)
    assert cutoff is None or cutoff >= 1


def test_flat_gain_peaks_at_the_smallest_size_and_reaches_1_at_the_end(monkeypatch):
    model = BathModel.markovian(1.0)
    sep = optimal_sensing_time(model, 0.1, 1)
    # r = 1 exactly at every size, across three chunks
    monkeypatch.setattr(gain_module, "_optimal_sensing_times",
                        lambda model, tau_tilde, n_eff: (tau_tilde, n_eff * sep.objective))
    limit = 3 * CHUNK
    assert n_cutoff_and_max_gain(model, ScalingLaw("constant", 0.1), limit) == (limit, 1, 1.0)


@pytest.fixture
def uncertified(monkeypatch):
    """Make the array path give up on the sizes in the returned set."""
    sizes = set()
    solve = gain_module._optimal_sensing_times

    def partial(model, tau_tilde, n_eff):
        tau, rate = solve(model, tau_tilde, n_eff)
        rate[np.isin(n_eff, list(sizes))] = math.nan
        return tau, rate

    monkeypatch.setattr(gain_module, "_optimal_sensing_times", partial)
    return sizes


def test_uncertified_sizes_are_re_solved_in_order(uncertified, gain_solves):
    model, law, limit = SCANS["nonmarkovian-square-root"]
    uncertified.update({2, 12, 100, 148, 158, 159, 400})
    got = n_cutoff_and_max_gain(model, law, limit)
    # the separable optimum, then the uncertified sizes up to the stop at
    # N = 158; later ones are never solved
    assert gain_solves == [(0.05, 1)] + [(0.05 * math.sqrt(n), n)
                                         for n in (2, 12, 100, 148, 158)]
    assert_same_scan(got, oracle_scan(model, law, limit))


def test_a_solver_error_past_the_stop_is_never_raised(uncertified, monkeypatch):
    model, law, limit = SCANS["early-stop-infeasible"]
    solve = gain_module.optimal_sensing_time

    def failing(model, tau_tilde, n_eff):
        if n_eff in (20, 50):
            raise SolverError(f"no optimum at n_eff = {n_eff}")
        return solve(model, tau_tilde, n_eff)

    monkeypatch.setattr(gain_module, "optimal_sensing_time", failing)
    uncertified.add(50)  # the scan stops at N = 37
    assert n_cutoff_and_max_gain(model, law, limit)[0] == 27
    uncertified.add(20)
    with pytest.raises(SolverError, match="n_eff = 20"):
        n_cutoff_and_max_gain(model, law, limit)
