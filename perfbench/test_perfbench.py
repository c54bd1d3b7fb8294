"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return reference.load()


def _panel_a(tmp_path):
    import ghzgain

    cfg = workloads.panel_configs("fig-panels", str(tmp_path))["a"]
    config = ghzgain.config_from_dict(cfg)
    ghzgain.save_rows(ghzgain.run_sweep(config), config)
    return config.output_path


# --- generators ---------------------------------------------------------------

def test_pools_are_fixed_and_answered(ref):
    assert workloads.pool_digest() == ref["pool_digest"]
    assert len(ref["thresholds"]) == len(workloads.threshold_pool())
    assert len(ref["queries"]) == len(workloads.query_pool())


@pytest.mark.parametrize("make", [workloads.threshold_cases, workloads.query_cases])
def test_inputs_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)
    assert len(set(make(3))) == len(make(3))


def test_threshold_cases_draw_the_same_mix_from_every_family():
    pool = workloads.threshold_pool()
    families = [pool[i][0] for i in workloads.threshold_cases(5)]
    assert {f: families.count(f) for f in set(families)} == workloads.THRESHOLDS_PER_SEED


def test_queries_are_mutually_distinct():
    pool = workloads.query_pool()
    assert len({tuple(argv) for argv in pool}) == len(pool)


# --- reference checks -----------------------------------------------------------

def test_panel_check_flags_a_perturbed_r(tmp_path, ref):
    rows = reference.parse_panel(_panel_a(tmp_path))
    want = ref["panels"]["fig-panels/a"]
    assert reference.check_panel(want, rows) == []
    rows[reference.SAMPLE_STRIDE]["r"] *= 1.0 + 1e-7
    assert reference.check_panel(want, rows)


def test_panel_check_flags_a_flipped_feasible_flag(tmp_path, ref):
    rows = reference.parse_panel(_panel_a(tmp_path))
    rows[5]["feasible"] = False
    assert reference.check_panel(ref["panels"]["fig-panels/a"], rows)


def test_query_check_flags_a_perturbed_r_and_a_wrong_exit_code():
    keys = workloads.QUERY_KEYS["gain"]
    good = "r = 2.00000000000\ntau_opt_sep = 0.500000000000\ntau_opt_ent = 0.250000000000\n"
    want = reference.summarize_query(keys, 0, good)
    assert reference.check_query(want, keys, 0, good) == []
    assert reference.check_query(want, keys, 0, good.replace("2.00000000000", "2.00000001000"))
    assert reference.check_query(want, keys, 3, "")
    assert reference.check_query([3], keys, 3, "") == []


def test_threshold_check_matches_value_and_side():
    want = reference.summarize_threshold("value", 0.125)
    assert reference.check_threshold(want, "value", 0.125 * (1 + 1e-12)) == []
    assert reference.check_threshold(want, "value", 0.125 * (1 + 1e-8))
    assert reference.check_threshold(["no-threshold", "below"], "no-threshold", "above")
    assert reference.check_threshold(["no-threshold", "below"], "value", 0.1)


# --- tracer ---------------------------------------------------------------------

def _traced_panel_a(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missed_bindings() == []
        _panel_a(tmp_path)
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_sees_every_call_of_a_panel(tmp_path):
    tracer = _traced_panel_a(tmp_path)
    stats = tracer.stats()
    assert stats["gain.gain.calls"] == 40_000
    assert stats["opttime.optimal_sensing_time.calls"] == 80_000
    assert stats["sweep.run_sweep.calls"] == 1
    assert tracer.edge_table()["<root> -> sweep.save_rows"] == 1


def test_tracer_counts_repeat_exactly(tmp_path):
    first, second = _traced_panel_a(tmp_path), _traced_panel_a(tmp_path)
    assert first.calls == second.calls
    assert first.edges == second.edges
    assert len(first.solve_keys) == len(second.solve_keys)


def test_tracer_reports_a_binding_it_cannot_patch():
    import ghzgain.opttime

    dispatch = {"markovian": ghzgain.opttime.tau_opt_markov}
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.missed_bindings()
    finally:
        tracer.uninstall()
    assert missed == ["opttime.tau_opt_markov still referenced from a dict"]
    assert dispatch["markovian"] is ghzgain.opttime.tau_opt_markov
