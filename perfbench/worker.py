"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names the checkout root, workload, seed and pass kind, and
whether to stop after set-up or to trace.  Each pass runs in its own
process so no pass inherits state (caches, warm allocators) from an
earlier one, and so set-up is measured from a cold start.  The result is
one JSON line on stdout; checking it is the parent's job (run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _prepare(workload: str, seed: int, kind: str, out_dir: str):
    """Inputs of one pass, in the form the timed loop hands to ghzgain."""
    import ghzgain
    import workloads

    if workload == "fig-panels":
        cfg = workloads.panel_configs(workload, out_dir)[kind]
        return [(kind, ghzgain.config_from_dict(cfg))]
    if kind == "cutoffs":
        return workloads.CUTOFF_COMMANDS
    if kind == "thresholds":
        models = {family: ghzgain.BathModel.from_dict(spec)
                  for family, spec in workloads.THRESHOLD_MODELS.items()}
        t_c = {family: ghzgain.coherence_time(m) for family, m in models.items()}
        pool = workloads.threshold_pool()
        cases = []
        for pid in workloads.threshold_cases(seed):
            family, n, x_sep = pool[pid]
            cases.append((pid, models[family], n, x_sep * t_c[family]))
        return cases
    pool = workloads.query_pool()
    return [(pid, pool[pid]) for pid in workloads.query_cases(seed)]


def _timed(call):
    """(seconds, outcome) of one op; an exception is an outcome too, which
    the parent counts as a failed op."""
    start = time.perf_counter()
    try:
        outcome = call()
    except Exception as exc:
        outcome = ["error", f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, outcome


def _cli(argv: list[str]) -> tuple[float, list]:
    """Time one cli_main call; its stdout and stderr are captured."""
    from ghzgain import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        elapsed, outcome = _timed(lambda: ["exit", cli.cli_main(argv)])
    return elapsed, outcome + [out.getvalue()]


def _sweep(config) -> list:
    import ghzgain

    ghzgain.save_rows(ghzgain.run_sweep(config), config)
    return ["file", config.output_path]


def _threshold(model, n: int, tau_tilde_sep: float) -> list:
    import ghzgain

    try:
        return ["value", ghzgain.threshold_ent_time(model, n, tau_tilde_sep)]
    except ghzgain.NoThresholdError as exc:
        return ["no-threshold", exc.side]


def _run_pass(workload: str, kind: str, inputs) -> tuple[list, list]:
    """Timed loop.  Returns ops [kind, seconds] and outputs [kind, id, *outcome];
    calls into ghzgain go through module attributes so a tracer's
    patches are seen."""
    ops, outputs = [], []

    def record(kind, ident, elapsed, outcome):
        ops.append([kind, elapsed])
        outputs.append([kind, ident, *outcome])

    if workload == "fig-panels":
        for name, config in inputs:
            record("panel", name, *_timed(lambda: _sweep(config)))
    elif kind == "cutoffs":
        for argv in inputs:
            record("cutoff", argv[6], *_cli(argv))
    elif kind == "thresholds":
        for pid, model, n, tau_tilde_sep in inputs:
            record("threshold", pid, *_timed(lambda: _threshold(model, n, tau_tilde_sep)))
    else:
        for pid, argv in inputs:
            record("query", pid, *_cli(argv))
    return ops, outputs


def main(spec: dict) -> dict:
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import ghzgain
    import ghzgain.cli  # noqa: F401  (imported in set-up, not by the first timed call)

    from tracer import Tracer, install_fallback_counter

    fallbacks = install_fallback_counter()
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    inputs = _prepare(spec["workload"], spec["seed"], spec["kind"], out_dir)
    result = {"ready_wall": time.time(), "src": os.path.dirname(ghzgain.__file__),
              "numpy": sys.modules["numpy"].__version__}
    if spec.get("setup_only"):
        return result

    coherence_cache = ghzgain.coherence_time  # the lru_cache, before any patching
    tracer = Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
        result["missed_bindings"] = tracer.missed_bindings()
    cache_before = coherence_cache.cache_info()
    start = time.perf_counter()
    ops, outputs = _run_pass(spec["workload"], spec["kind"], inputs)
    result["wall_s"] = time.perf_counter() - start
    cache_after = coherence_cache.cache_info()
    result.update(ops=ops, outputs=outputs, fallbacks=fallbacks.count,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        solves = tracer.calls[tracer.names.index("opttime.optimal_sensing_time")]
        result["trace"] = {
            "stats": tracer.stats(),
            "edges": tracer.edge_table(),
            "coherence_time_hits": hits,
            "coherence_time_lookups": lookups,
            "distinct_solves": len(tracer.solve_keys),
            "solves": solves,
            "bytes_written": tracer.bytes_written(),
        }
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
