"""The array N-scan of ``gain._scan`` against the scalar solvers and
against a loop of one ``gain()`` call per size under the same rules."""

import importlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzgain import (
    BathKind,
    BathModel,
    DomainError,
    InfeasibleTimingError,
    ScalingLaw,
    SolverError,
    coherence_time,
    gain,
    gain_isolated,
    n_cutoff,
    n_cutoff_and_max_gain,
    n_max_gain,
    optimal_sensing_time,
    scaling_law_eval,
)
from ghzgain.gain import ScalingKind
from ghzgain.opttime import _optimal_sensing_times, _rates, _tau_opt

gain_module = importlib.import_module("ghzgain.gain")  # the package's gain is the function
CHUNK = gain_module._SCAN_CHUNK

MODELS = {
    "isolated": BathModel.isolated(1.0),
    "markovian": BathModel.markovian(1.3),
    "nonmarkovian": BathModel.nonmarkovian(0.7),
    "ohmic": BathModel.ohmic(0.05, 20.0, 0.5),
    "cold-ohmic": BathModel.ohmic(0.1, 100.0, 10.0),
}


def oracle_scan(model, law, n_search_max, r_at=None):
    """(cutoff, best_n, best_r) from one gain() call per size, over every size, at the
    separable overhead base * t_c (or from r_at(n)); None when the last r is above 1.  The
    peak is the smallest size whose r is within 4 eps, relative, of the largest r; r
    within 4 eps of 1 reaches 1 and is not above it."""
    tie = 4.0 * np.finfo(float).eps
    t_c = coherence_time(model)
    tau_tilde_sep = law.base * t_c
    if r_at is None:
        def r_at(n):
            return gain(model, n, tau_tilde_sep, scaling_law_eval(law, n) * t_c).r
    last_qualifying, feasible, r = 0, [], None
    for n in range(1, n_search_max + 1):
        try:
            r = r_at(n)
        except InfeasibleTimingError:
            r = None
        if r is not None:
            feasible.append((n, r))
            if r >= 1.0 - tie:
                last_qualifying = n
    top = max((r_n for _, r_n in feasible), default=None)
    best_n, best_r = next(((n, r_n) for n, r_n in feasible
                           if r_n >= top * (1.0 - tie)), (0, -math.inf))
    if r is not None and r > 1.0 + tie:
        return None, best_n, best_r
    return last_qualifying, best_n, best_r


def assert_same_scan(got, want, model):
    assert got[:2] == want[:2]
    if model.kind is not BathKind.OHMIC:  # the same operations on the same doubles
        assert got[2] == want[2]
    else:  # the array root takes numpy's transcendentals
        assert got[2] == pytest.approx(want[2], rel=1e-13)


# Markovian keys where b^2 + 8 h tau_tilde overflows: tau_tilde from 1.3e154 to 1.7e308
OVERFLOW_MODELS = {"markovian-overflow-tiny-gamma": BathModel.markovian(1e-160),
                   "markovian-overflow": BathModel.markovian(3.0)}


@pytest.mark.parametrize("kind, seed, size", [
    *[pytest.param(kind, 20261018, 300, id=kind) for kind in [*MODELS, *OVERFLOW_MODELS]],
    # 3,000 sizes: enough that np.exp in place of math.exp moves some rates by an ulp
    *[pytest.param(kind, 20261020, 3000, id=f"{kind}-3000") for kind in MODELS]])
def test_array_optimum_matches_the_scalar_solver(kind, seed, size):
    model = MODELS.get(kind) or OVERFLOW_MODELS[kind]
    rng = np.random.default_rng(seed)
    t_c = coherence_time(model)
    n = np.round(10.0 ** rng.uniform(0.0, 6.0, size))
    # isolated overheads run past t_c, where the timing is infeasible
    tau_tilde = rng.uniform(0.0, 1.2 if kind == "isolated" else 3.0, size) * t_c
    if kind in OVERFLOW_MODELS:
        tau_tilde = 10.0 ** rng.uniform(math.log10(1.3e154), math.log10(1.7e308), size)
    tau, rate, decay = _optimal_sensing_times(model, tau_tilde, n)
    for i in range(len(n)):
        args = (float(tau_tilde[i]), int(n[i]))
        try:
            opt = optimal_sensing_time(model, *args)
        except InfeasibleTimingError:
            assert rate[i] == 0.0
            continue
        except SolverError:  # at gamma = 1e-160, tau ~ 1e160 / n and F overflows
            assert kind == "markovian-overflow-tiny-gamma"
            assert math.isnan(rate[i])
            assert tau[i] == _tau_opt(model, *args)  # the scalar root, bit for bit
            continue
        sep = optimal_sensing_time(model, 0.1 * t_c, 1)
        # the scan's r = rate_ent / rate_sep(n)
        got = (tau[i], decay[i], rate[i],
               rate[i] / _rates(n[i], 0.1 * t_c, sep.tau_opt, sep.decay)[1])
        want = (opt.tau_opt, opt.decay, opt.objective,
                gain(model, int(n[i]), 0.1 * t_c, args[0]).r)
        if model.kind is not BathKind.OHMIC:  # the same code, math.exp included
            assert got == want
        # both Ohmic solvers take the same Newton steps to 4 eps relative; numpy's
        # transcendentals in the array residual move the root by ~1e-15
        assert got == pytest.approx(want, rel=1e-13)


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


def chunk_edge_law(cutoff):
    """Linear law b on an isolated probe with t_c = 1, where r(N) = N ((1 - N b)
    / (1 - b))^2 falls through 1 between cutoff and cutoff + 1: r(m) = 1 at m =
    cutoff + 1/2 for b = (sqrt(m) - 1) / (m^(3/2) - 1)."""
    middle = cutoff + 0.5
    return ScalingLaw("linear", (math.sqrt(middle) - 1.0) / (middle ** 1.5 - 1.0))


SCANS = {
    # cutoff 27, peak 11; from N = 34 on the timing is infeasible and r = 0
    "early-stop-infeasible": (BathModel.isolated(1.0), ScalingLaw("linear", 0.03), 100),
    "markovian-tie-at-one": (BathModel.markovian(1.0), ScalingLaw("constant", 0.5), 100),
    # r(1) = 1 exactly, and the cutoff, only if N = 1 reuses the separable
    # optimum: the array cubic lands 3e-16 below it here
    "nonmarkovian-tie-at-one": (BathModel.nonmarkovian(1.0), ScalingLaw("linear", 0.2), 100),
    "nonmarkovian-square-root": (BathModel.nonmarkovian(1.0), ScalingLaw("square-root", 0.05),
                                 500),
    # near the Markov limit no size above 1 gains
    "ohmic-logarithmic": (MODELS["ohmic"], ScalingLaw("logarithmic", 0.01), 300),
    # r dips below 1 from N = 2 (r(20) = 0.62) and is back above it by N = 1000
    "ohmic-dip-constant": (BathModel.ohmic(0.0443, 491.0, 0.01883),
                           ScalingLaw("constant", 0.00836), 2000),
    # r is below 1 at small N, above it on about N = 30..553
    "ohmic-dip-logarithmic": (BathModel.ohmic(0.4336, 1.685, 70.05),
                              ScalingLaw("logarithmic", 0.00529), 2000),
    "cold-ohmic-constant": (MODELS["cold-ohmic"], ScalingLaw("constant", 0.01), 200),
    # strong coupling, short optima: GHZ gains up to N = 32
    "strong-ohmic-square-root": (BathModel.ohmic(10.0, 1.0, 100.0),
                                 ScalingLaw("square-root", 0.1), 300),
    "none-across-chunks": (BathModel.isolated(1.0), ScalingLaw("constant", 0.03), CHUNK + 5),
    # r = 1 in theory at every size, and within a few eps of it in floats: the
    # peak is N = 1, not the size that rounding lifts highest
    "markovian-flat-at-one": (BathModel.markovian(1e-152), ScalingLaw("constant", 0.0), 10**4),
    # the same flat r at gamma = 1: r(10^4) lands an ulp below 1, which still reaches
    # 1, so the cutoff is the limit, as at 10^6, not 9999
    "markovian-flat-at-one-unit-gamma": (BathModel.markovian(1.0), ScalingLaw("constant", 0.0),
                                         10**4),
}
# cutoffs 10 and 9 sizes below 48 and 16,368, the ends of two passes of an earlier scan
# that stopped 10 sizes below 1; now cutoffs inside the first pass's gaps 33..63 and
# 8,193..16,383
EDGES = {f"stop-{offset}-before-{end}": (end, offset)
         for end in (48, 16368) for offset in (10, 9)}
SCANS |= {case: (BathModel.isolated(1.0), chunk_edge_law(end - offset), 3 * CHUNK)
          for case, (end, offset) in EDGES.items()}


@pytest.mark.parametrize("case", SCANS)
def test_scan_matches_a_per_size_gain_loop(case):
    model, law, limit = SCANS[case]
    want = oracle_scan(model, law, limit)
    assert_same_scan(n_cutoff_and_max_gain(model, law, limit), want, model)
    if case in EDGES:
        end, offset = EDGES[case]
        assert want[0] + offset == end
    if case == "none-across-chunks":
        assert want[0] is None
    if case == "markovian-flat-at-one":
        assert want[1] == 1 and gain(model, 45, 0.0, 0.0).r > 1.0  # 45 rounds highest
    if case == "markovian-flat-at-one-unit-gamma":
        assert gain(model, limit, 0.0, 0.0).r < 1.0
        assert want[0] == limit and n_cutoff(model, law, 10**6) == 10**6


def scan_passes(model, law, limit):
    """The sizes that each array pass of n_cutoff_and_max_gain evaluates."""
    passes = []
    solve = gain_module._optimal_sensing_times

    def recording(model, tau_tilde, n_eff):
        passes.append(n_eff.astype(int).tolist())
        return solve(model, tau_tilde, n_eff)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gain_module, "_optimal_sensing_times", recording)
        n_cutoff_and_max_gain(model, law, limit)
    return passes


def test_the_first_pass_is_the_powers_of_2_and_the_limit():
    # r(N) = N: each gap's bound (hi/A) r(A) is below r(10^6), so one pass decides
    passes = scan_passes(BathModel.isolated(1.0), ScalingLaw("constant", 0.03), 10**6)
    assert passes == [[2**k for k in range(20)] + [10**6]]


@pytest.mark.parametrize("model, law, most", [
    # r falls from 0.83 at N = 2: past the first pass only 3 and 5..7 can still reach 1
    (MODELS["ohmic"], ScalingLaw("logarithmic", 0.03), 40),
    # r creeps back up to 1.25 at 10^6, so the bound drops a gap there only once it is narrow
    (BathModel.ohmic(0.0443, 491.0, 0.01883), ScalingLaw("constant", 0.00836), 12_000),
    (BathModel.nonmarkovian(1.0), ScalingLaw("constant", 0.03), 8_000),
], ids=["ohmic-logarithmic", "ohmic-dip-constant", "nonmarkovian-constant"])
def test_a_scan_to_10_6_evaluates_few_sizes(model, law, most):
    passes = scan_passes(model, law, 10**6)
    assert sum(map(len, passes)) <= most and max(map(len, passes)) <= CHUNK


def scan_gaps(model, law, limit):
    """(sizes, gaps) for each array pass of n_cutoff_and_max_gain: the number of sizes it
    evaluates, and the number of gaps the scan holds open as it starts (its ``gaps``)."""
    passes = []
    solve = gain_module._optimal_sensing_times

    def recording(model, tau_tilde, n_eff):
        passes.append((n_eff.size, sys._getframe(1).f_locals["gaps"].shape[1]))
        return solve(model, tau_tilde, n_eff)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gain_module, "_optimal_sensing_times", recording)
        n_cutoff_and_max_gain(model, law, limit)
    return passes


def test_open_gaps_stay_within_chunk_times_bit_length():
    # r is flat at 1, so no gap is ever dropped and the scan evaluates every size, in passes
    # of at most CHUNK sizes.  _scan's docstring proves at most CHUNK L gaps open, L = (limit
    # - 1).bit_length() (at most 20,480 and 46,116 are), 24 bytes each; the peaks, 2.5 and
    # 4.5 MB, also hold a pass's merged and filtered copies.  This is the flat case at gamma
    # = 1: at 1e-152, F_sep overflows past N = 71,900
    model, law, _ = SCANS["markovian-flat-at-one-unit-gamma"]
    n_cutoff_and_max_gain(model, law, 1000)  # not the first call's imports and caches
    for limit in (10**5, 10**6):
        bound = CHUNK * (limit - 1).bit_length()
        passes = scan_gaps(model, law, limit)
        assert sum(size for size, _ in passes) == limit
        assert max(size for size, _ in passes) <= CHUNK
        assert max(gaps for _, gaps in passes) <= bound
        tracemalloc.start()
        try:
            n_cutoff_and_max_gain(model, law, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 24 * bound


def test_a_scan_with_more_gaps_than_a_pass_halves_only_the_lowest(monkeypatch):
    # r rises to its top at the limit, so thousands of gaps stay open.  With passes of 16
    # sizes, a walk from the low end once more than 16 gaps are open evaluated 89,356 of the
    # 10^5 sizes; halving the lowest 16 gaps a pass evaluates 2,219
    model, law = BathModel.ohmic(0.0812, 4.39, 0.866), ScalingLaw("constant", 0.0704)
    want = n_cutoff_and_max_gain(model, law, 10**5)
    monkeypatch.setattr(gain_module, "_SCAN_CHUNK", 16)
    passes = scan_gaps(model, law, 10**5)
    # the first pass is N = 1, 2, 4, .. and the limit, whatever the chunk
    assert max(gaps for _, gaps in passes) > 16 and max(size for size, _ in passes[1:]) <= 16
    assert sum(size for size, _ in passes) <= 3000
    assert_same_scan(n_cutoff_and_max_gain(model, law, 10**5), want, model)


@pytest.mark.parametrize("case, want", [
    ("ohmic-dip-constant", (None, 10**6, 1.2501972398)),
    ("ohmic-dip-logarithmic", (553, 76, 1.0940914312)),
])
def test_an_ohmic_scan_runs_past_a_dip_below_1(case, want):
    # a scan that stopped 10 sizes after r last reached 1 would end both at (1, 1, 1.0)
    model, law, _ = SCANS[case]
    got = n_cutoff_and_max_gain(model, law, 10**6)
    assert got[:2] == want[:2] and got[2] == pytest.approx(want[2], rel=1e-10)


def test_overflowing_law_raises_where_the_loop_does():
    # t_c = 1e100 and base * t_c = 5e307: N = 1 qualifies, and the law overflows from N = 4
    # on; r(2) = 1/4, so the first pass raises at N = 8, whose bound (8/2) r(2) = 1 can
    # still reach 1 (at 4 it is 1/2)
    model, law = BathModel.markovian(1e-100), ScalingLaw("linear", 5e207)
    with pytest.raises(DomainError, match="entangled overhead time"):
        oracle_scan(model, law, 300)
    with pytest.raises(DomainError, match="entangled overhead time must be finite"):
        n_cutoff_and_max_gain(model, law, 300)
    # a scan that the bound ends first never reaches the overflow
    model = BathModel.isolated(1.0)
    assert n_cutoff_and_max_gain(model, ScalingLaw("linear", 0.03), 10**6)[0] == 27
    # nor does a separable overhead base * t_c that overflows reach the scan
    with pytest.raises(DomainError, match="overhead time must be finite"):
        n_cutoff_and_max_gain(BathModel.isolated(1e300), ScalingLaw("constant", 1e10), 300)


def test_overflowing_separable_fisher_raises_where_the_loop_does():
    # t_c = 1e154: F_sep = N tau_sep^2 overflows from N = 8 on, where gain() raises;
    # r(4) is just below 1, so the bound (8/4) r(4) at N = 8 of the first pass can reach 1
    model, law = BathModel.markovian(1e-154), ScalingLaw("constant", 1e-6)
    with pytest.raises(SolverError, match="f_sep must be finite, got inf"):
        oracle_scan(model, law, 300)
    with pytest.raises(SolverError, match="f_sep must be finite, got inf"):
        n_cutoff_and_max_gain(model, law, 300)


LAWS = st.builds(ScalingLaw, st.sampled_from(ScalingKind), st.floats(1e-3, 2.0))


@given(gamma=st.floats(0.05, 20.0), law=LAWS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_a_markovian_scan_never_gains(gamma, law):
    # r = psi(N x_ent)/psi(base) for the decreasing optimal rate psi at an overhead
    # in units of t_c, and N x_ent > base for N > 1: no size above 1 reaches 1
    assert n_cutoff_and_max_gain(BathModel.markovian(gamma), law, 10**4) == (1, 1, 1.0)


@given(t_c=st.sampled_from([1.0, 0.25, 1e-3]), law=LAWS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_an_isolated_scan_is_the_closed_form_gain(t_c, law):
    # r = N ((1 - x_ent)/(1 - x_sep))^2, which solves no optimum; the scan's ratio of
    # optimal rates rounds differently, by a few ulps
    model, limit = BathModel.isolated(t_c), 2000
    assume(law.base < 1.0)
    want = oracle_scan(model, law, limit,
                       lambda n: gain_isolated(n, law.base, scaling_law_eval(law, n)))
    got = n_cutoff_and_max_gain(model, law, limit)
    assert got[:2] == want[:2] and got[2] == pytest.approx(want[2], rel=1e-14)



@given(kind=st.sampled_from(ScalingKind), base=st.floats(0.0, 0.5),
       t_c=st.sampled_from([1.0, 0.25, 1e-3]), limit=st.integers(2, 3000))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_an_isolated_scan_is_its_closed_form_written_out(kind, base, t_c, limit):
    # r = N ((1 - x_ent(N))/(1 - x_sep))^2, and 0 where x_ent >= 1, from numpy here; the
    # scan's r agreed with it to 5e-16 relative, so the tie (4 eps) of N_max and of the
    # cutoff is checked with a slack of 1e-15
    tie, slack = 4.0 * np.finfo(float).eps, 1e-15
    n = np.arange(1.0, limit + 1.0)
    x_ent = {ScalingKind.CONSTANT: base + 0.0 * n,
             ScalingKind.LOGARITHMIC: (1.0 + np.log2(n)) * base,
             ScalingKind.SQUARE_ROOT: np.sqrt(n) * base, ScalingKind.LINEAR: n * base}[kind]
    r = np.where(x_ent < 1.0, n * ((1.0 - x_ent) / (1.0 - base)) ** 2, 0.0)
    cutoff, best_n, best_r = n_cutoff_and_max_gain(BathModel.isolated(t_c), ScalingLaw(kind, base),
                                                   limit)
    assert best_r == pytest.approx(r[best_n - 1], rel=slack)
    assert r[best_n - 1] >= r.max() * (1.0 - tie - slack)
    assert np.all(r[:best_n - 1] < r.max() * (1.0 - tie + slack))
    if cutoff is None:
        assert r[-1] > 1.0 + tie - slack
    else:
        assert r[-1] <= 1.0 + tie + slack and r[cutoff - 1] >= 1.0 - tie - slack
        assert np.all(r[cutoff:] < 1.0 - tie + slack)


def test_a_markovian_scan_with_a_positive_base_never_gains():
    # r = psi(N x_ent)/psi(base) for the falling optimal rate psi: (1, 1, 1.0) on 60 random
    # baths, laws, bases log-uniform in 1e-3..10 and limits log-uniform in 2..10^6
    rng = np.random.default_rng(20261021)
    for i in range(60):
        model = BathModel.markovian(float(10.0 ** rng.uniform(-3.0, 3.0)))
        law = ScalingLaw(list(ScalingKind)[i % 4], float(10.0 ** rng.uniform(-3.0, 1.0)))
        limit = int(10.0 ** rng.uniform(math.log10(2.0), 6.0))
        assert n_cutoff_and_max_gain(model, law, limit) == (1, 1, 1.0)


DEPHASING = {"markovian": BathModel.markovian(1.0), "nonmarkovian": BathModel.nonmarkovian(1.0),
             "ohmic": MODELS["ohmic"], "cold-ohmic": MODELS["cold-ohmic"]}


@pytest.mark.parametrize("kind", DEPHASING)
def test_dephasing_lowers_the_cutoff(kind):
    # the paper: N_cutoff is lower for a dephasing probe than for an isolated one
    # with t_c = 1, counting None (still gaining at the limit) as past the limit.  Ties
    # are both 1 (base 0.3 under a logarithmic or linear law) or both None (the
    # non-Markovian bath under a slowly growing law, where r rises like sqrt(N), and
    # the Ohmic constant law at 0.001)
    limit, ties = 10**5, []
    for law in (ScalingLaw(law_kind, base) for law_kind in ScalingKind
                for base in (1e-3, 0.03, 0.3)):
        cutoffs = [n_cutoff(model, law, limit) for model in
                   (DEPHASING[kind], BathModel.isolated(1.0))]
        past = [limit + 1 if cutoff is None else cutoff for cutoff in cutoffs]
        assert past[0] <= past[1]
        if past[0] == past[1]:
            assert cutoffs[0] in (1, None)
            ties.append((law.kind.value, law.base))
    # 15 ties in all, and 33 strict
    assert len(ties) == {"markovian": 2, "nonmarkovian": 8, "ohmic": 3, "cold-ohmic": 2}[kind]


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


@given(model=BATHS, law=st.builds(ScalingLaw, st.sampled_from(ScalingKind), st.floats(0.0, 2.0)),
       n=st.integers(1, 10**6), more=st.integers(1, 10**6))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_the_gain_per_particle_does_not_rise_with_n(model, law, n, more):
    # the lemma behind the scan's bound, from gain() alone: r(N)/N = max_tau tau^2
    # exp(-2 N Gamma(tau)) / (tau_tilde_ent(N) + tau) / rate_sep(1), where Gamma >= 0 and
    # tau_tilde_ent(N) does not decrease; r = 0 where the timing is infeasible
    t_c = coherence_time(model)

    def per_particle(size):
        try:
            return gain(model, size, law.base * t_c, scaling_law_eval(law, size) * t_c).r / size
        except InfeasibleTimingError:
            return 0.0

    assert per_particle(n + more) <= per_particle(n) * (1.0 + gain_module._MARGIN)


def random_scans(count, seed):
    """count (model, law, limit) over the four bath kinds and the four laws, limits
    log-uniform in 2..2000."""
    rng = np.random.default_rng(seed)
    rate = lambda: float(10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0)))  # noqa: E731
    kinds = [lambda: BathModel.isolated(rate()), lambda: BathModel.markovian(rate()),
             lambda: BathModel.nonmarkovian(rate()),
             lambda: BathModel.ohmic(float(10.0 ** rng.uniform(-2.0, 1.0)), rate(), rate())]
    for i in range(count):
        base = float(10.0 ** rng.uniform(-4.0, 0.3)) if rng.random() < 0.9 else 0.0
        yield (kinds[i % 4](), ScalingLaw(list(ScalingKind)[i // 4 % 4], base),
               int(10.0 ** rng.uniform(math.log10(2.0), math.log10(2000.0))))


@pytest.mark.parametrize("chunk", [16, CHUNK])
def test_random_scans_match_a_per_size_gain_loop(chunk, monkeypatch):
    # passes of 16 sizes take the halving of the lowest 16 gaps, and the last pass of every
    # open size, through these small scans; passes of CHUNK take most of them whole
    monkeypatch.setattr(gain_module, "_SCAN_CHUNK", chunk)
    for model, law, limit in random_scans(200, 20261020 + chunk):
        want = oracle_scan(model, law, limit)
        if want[1] == 0:  # every size is infeasible, as the separable timing is
            assert n_cutoff(model, law, limit) == 0
            continue
        assert_same_scan(n_cutoff_and_max_gain(model, law, limit), want, model)


def test_flat_gain_peaks_at_the_smallest_size_and_reaches_1_at_the_end(monkeypatch):
    model = BathModel.markovian(1.0)
    sep = optimal_sensing_time(model, 0.1, 1)
    # rate = rate_sep(N): r = 1 exactly at every size, across three chunks
    monkeypatch.setattr(gain_module, "_optimal_sensing_times", lambda model, tau_tilde, n_eff: (
        tau_tilde, _rates(n_eff, 0.1, sep.tau_opt, sep.decay, np)[1]))
    limit = 3 * CHUNK
    assert n_cutoff_and_max_gain(model, ScalingLaw("constant", 0.1), limit) == (limit, 1, 1.0)


@pytest.fixture
def uncertified(monkeypatch):
    """Make the array path give up on the sizes in the returned set."""
    sizes = set()
    solve = gain_module._optimal_sensing_times

    def partial(model, tau_tilde, n_eff):
        tau, rate, decay = solve(model, tau_tilde, n_eff)
        rate[np.isin(n_eff, list(sizes))] = math.nan
        return tau, rate, decay

    monkeypatch.setattr(gain_module, "_optimal_sensing_times", partial)
    return sizes


def assert_raises_at(first, uncertified, gain_solves, case="nonmarkovian-square-root"):
    """The scan raises SolverError naming the uncertified size first, after the
    separable solve and the one gain() call there, which solves both optima."""
    model, law, limit = SCANS[case]
    with pytest.raises(SolverError, match=f"no certified gain at n = {first},"):
        n_cutoff_and_max_gain(model, law, limit)
    tts = law.base * coherence_time(model)
    assert gain_solves == [(tts, 1), (tts, 1), (scaling_law_eval(law, first) * tts / law.base,
                                                 first)]


def test_the_first_uncertified_size_raises(uncertified, gain_solves):
    # 2 is in the first pass, where its bound 2 r(1) = 2 tops every r of the scan (the peak
    # r(12) is 1.83); the scan raises there, before it evaluates any other size of the set
    uncertified.update({2, 12, 100, 148, 158, 159, 400})
    assert_raises_at(2, uncertified, gain_solves)


def test_a_scan_with_no_certified_size_raises_at_its_second_size(uncertified, gain_solves):
    uncertified.update(range(2, SCANS["nonmarkovian-square-root"][2] + 1))
    assert_raises_at(2, uncertified, gain_solves)


def test_an_uncertified_size_raises_only_where_its_bound_can_change_the_answer(
        uncertified, gain_solves):
    model, law, limit = SCANS["nonmarkovian-square-root"]
    # (cutoff 148, peak 12) past the cutoff, r(N) <= (N/158) r(158) < 1 from the
    # certified 158 on, and below r(12): these sizes cannot move either answer
    uncertified.update({159, 200, 300, 400})
    got = n_cutoff_and_max_gain(model, law, limit)
    assert gain_solves == [(0.05, 1)]
    assert_same_scan(got, oracle_scan(model, law, limit), model)
    # 149 could reach 1, by its bound (149/148) r(148) from the cutoff; 148 and 12 are the
    # answers themselves
    for first in (149, 148, 12):
        uncertified.add(first)
        gain_solves.clear()
        assert_raises_at(first, uncertified, gain_solves)
        uncertified.discard(first)


def test_a_solver_error_past_the_stop_is_never_raised(uncertified, monkeypatch):
    model, law, limit = SCANS["early-stop-infeasible"]
    solve = gain_module.optimal_sensing_time

    def failing(model, tau_tilde, n_eff):
        if n_eff in (20, 28, 50):
            raise SolverError(f"no optimum at n_eff = {n_eff}")
        return solve(model, tau_tilde, n_eff)

    monkeypatch.setattr(gain_module, "optimal_sensing_time", failing)
    # r(N) = N ((1 - 0.03 N)/0.97)^2: the gap 33..63 has the bound (63/32) r(32) = 0.11 and
    # is never evaluated; 20 is, but its bound (20/19) r(19) = 3.9 is below r(11) = 5.25
    uncertified.update({20, 50})
    assert n_cutoff_and_max_gain(model, law, limit) == (27, 11, pytest.approx(5.248060367733))
    # the bound (28/27) r(27) = 1.07 of the size after the cutoff can still reach 1
    uncertified.add(28)
    with pytest.raises(SolverError, match="n_eff = 28"):
        n_cutoff_and_max_gain(model, law, limit)
