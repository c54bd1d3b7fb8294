"""The ghzgain benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the ghzgain in ./src.  One
caller issues one call at a time (a closed loop) through the public entry
points only: run_sweep/save_rows, threshold_ent_time and cli_main.  Each
pass runs in a fresh interpreter (worker.py), one after the other; a
round runs each of the workload's pass kinds once, and rounds repeat on
the same inputs until the next would end past --seconds.

--trace 0 prints the end-to-end metrics: set-up time, wall time,
throughput, per-op latency and peak memory.  --trace 1 runs one untraced
round and two traced rounds, prints the per-layer metrics of the first
traced round, checks that every count repeats exactly in the second and
that no call can bypass the wrappers, and records the tracing overhead.  Every output is checked against
reference.json.gz.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a fuller record goes to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MAX_ROUNDS = 50
RUN_LIMIT_S = 170.0
# the ops whose latency a workload reports (scan-queries' cutoff commands
# count towards wall_s only)
OP_KINDS = {"fig-panels": ("panel",), "scan-queries": ("threshold", "query")}


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, bad reference)."""


# --- workers ------------------------------------------------------------------

def spawn(workload: str, seed: int, kind: str, deadline: float, *,
          trace: bool = False, setup_only: bool = False) -> dict:
    spec = {"root": ROOT, "workload": workload, "seed": seed, "kind": kind,
            "trace": trace, "setup_only": setup_only}
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass {kind} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected_src = os.path.join(ROOT, "src", "ghzgain")
    if os.path.realpath(result["src"]) != os.path.realpath(expected_src):
        raise BenchError(f"worker imported ghzgain from {result['src']}, not {expected_src}")
    result["setup_s"] = result["ready_wall"] - started
    result["kind"] = kind
    return result


# --- checks -------------------------------------------------------------------

def check_outputs(workload: str, result: dict, ref: dict, query_pool: list) -> list[str]:
    """One message per failed op of one pass (empty: all correct)."""
    failures = []
    for kind, ident, outcome, *rest in result["outputs"]:
        if outcome == "error":
            errors = [rest[0]]
        elif kind == "panel":
            errors = reference.check_panel(ref["panels"][f"{workload}/{ident}"],
                                           reference.parse_panel(rest[0]))
        elif kind == "cutoff":
            errors = reference.check_cutoff(ref["cutoffs"][ident], *rest)
        elif kind == "threshold":
            errors = reference.check_threshold(ref["thresholds"][ident], outcome, rest[0])
        else:
            keys = workloads.QUERY_KEYS[query_pool[ident][0]]
            errors = reference.check_query(ref["queries"][ident], keys, *rest)
        if errors:
            failures.append(f"{kind} {ident}: " + "; ".join(errors[:3]))
    return failures


# --- statistics -----------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, passes: list[dict], setups: list[float],
               ref: dict) -> tuple[dict, dict]:
    """The judged metrics, and workload-specific views of them (printed
    and recorded, not judged).

    Every round repeats the same ops on the same inputs in fresh
    interpreters, and each op is timed by its least time over all rounds.
    Wall time is the sum of these over every op of a round; throughput and
    op percentiles come from the workload's OP_KINDS.  On a machine shared
    with other tenants the speed of Python code changes by up to about
    1.6x, for fractions of a second to a minute; a median over rounds reads
    whichever level held longest in the run, the least of many repeats
    reads the undisturbed one.  Taking it per op rather than per pass also
    drops slowdowns that hit one op of an otherwise fast pass.  Every pass
    is kept in the record."""
    op_kinds = OP_KINDS[workload]
    least: dict[tuple, float] = {}
    for p in passes:
        for (kind, seconds), output in zip(p["ops"], p["outputs"]):
            key = (kind, output[1])
            least[key] = min(seconds, least.get(key, seconds))
    samples = [t for (kind, _), t in least.items() if kind in op_kinds]
    kinds = sorted({p["kind"] for p in passes})
    if op_kinds == ("panel",):
        points = sum(ref["panels"][f"{workload}/{kind}"]["rows"] for kind in kinds)
    else:
        points = len(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(least.values()),
        "points_per_s": points / sum(samples),
        "op_ms_p50": 1e3 * statistics.median(samples),
        "op_ms_p90": 1e3 * percentile(samples, 90),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0,
    }
    views = {"rounds": len(passes) // len(kinds), "ops": len(samples),
             "setup_samples": len(setups),
             "pass_wall_s": {kind: [round(p["wall_s"], 6) for p in passes if p["kind"] == kind]
                             for kind in kinds}}
    if workload == "scan-queries":
        for kind in op_kinds:
            times = [t for (k, _), t in least.items() if k == kind]
            views.update({f"{kind}_ops": len(times),
                          f"{kind}_ms_p50": 1e3 * statistics.median(times),
                          f"{kind}_ms_p90": 1e3 * percentile(times, 90)})
        pooled = [t for p in passes for kind, t in p["ops"] if kind == "query"]
        views.update(query_ms_p99_all_passes=1e3 * percentile(pooled, 99),
                     cutoff_s=sum(t for (kind, _), t in least.items() if kind == "cutoff"))
    return metrics, views


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TRACE_TOTALS = ("coherence_time_hits", "coherence_time_lookups", "distinct_solves",
                "solves", "bytes_written", "fallbacks")


def merged_trace(passes: list[dict]) -> dict:
    """Trace totals of one traced round (one pass per kind)."""
    stats, edges = Counter(), Counter()
    totals = dict.fromkeys(TRACE_TOTALS, 0)
    for p in passes:
        stats.update(p["trace"]["stats"])
        edges.update(p["trace"]["edges"])
        for key in TRACE_TOTALS:
            totals[key] += p["fallbacks"] if key == "fallbacks" else p["trace"][key]
    return {"stats": dict(stats), "edges": dict(edges), **totals}


def counts(trace: dict) -> dict:
    """Every count of a traced round; these must repeat exactly."""
    out = {k: v for k, v in trace["stats"].items() if k.endswith(".calls")}
    out.update(trace["edges"])
    out.update({k: trace[k] for k in TRACE_TOTALS})
    return out


def per_layer(trace: dict) -> dict:
    """Calls and self time of every traced function and layer, plus the
    ratios and counts derived from the trace."""
    stats, edges = trace["stats"], trace["edges"]
    derived = {
        "bath.coherence_time.cache_hit_ratio":
            _ratio(trace["coherence_time_hits"], trace["coherence_time_lookups"]),
        "opttime.distinct_solve_ratio": _ratio(trace["distinct_solves"], trace["solves"]),
        "opttime.cubic_fallbacks": trace["fallbacks"],
        "gain.gain_calls_per_threshold":
            _ratio(edges.get("gain.threshold_ent_time -> gain.gain", 0),
                   stats["gain.threshold_ent_time.calls"]),
        "gain.scan_points": edges.get("gain.n_cutoff -> gain.gain", 0)
            + edges.get("gain.n_max_gain -> gain.gain", 0),
        "sweep.bytes_written": trace["bytes_written"],
    }
    return {**stats, **derived}


# --- runs -----------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, ref: dict, pool: list,
              deadline: float) -> dict:
    measure_end = time.monotonic() + seconds
    kinds = workloads.pass_kinds(workload)
    passes, failures, attempted = [], [], 0
    for _ in range(MAX_ROUNDS):
        started = time.monotonic()
        for kind in kinds:
            result = spawn(workload, seed, kind, deadline)
            passes.append(result)
            attempted += len(result["outputs"])
            failures += check_outputs(workload, result, ref, pool)
        now = time.monotonic()
        if now + (now - started) > measure_end:  # the next round would end past it
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, kinds[0], deadline, setup_only=True)["setup_s"])
    metrics, views = end_to_end(workload, passes, setups, ref)
    return {"metrics": metrics, "views": views,
            "attempted": attempted, "failures": failures, "problems": [],
            "passes": passes, "tracing_overhead_s": None, "numpy": passes[0]["numpy"]}


def traced_run(workload: str, seed: int, ref: dict, pool: list, deadline: float) -> dict:
    kinds = workloads.pass_kinds(workload)
    plain, first, second = ([spawn(workload, seed, kind, deadline, trace=trace) for kind in kinds]
                            for trace in (False, True, True))
    passes = plain + first + second
    failures, attempted = [], 0
    for result in passes:
        attempted += len(result["outputs"])
        failures += check_outputs(workload, result, ref, pool)
    problems = [f"binding: {m}" for p in first for m in p["missed_bindings"]]
    trace = merged_trace(first)
    c1, c2 = counts(trace), counts(merged_trace(second))
    problems += [f"count {k} is {c1.get(k)} then {c2.get(k)}"
                 for k in sorted(set(c1) | set(c2)) if c1.get(k) != c2.get(k)]
    untraced, traced = (sum(p["wall_s"] for p in r) for r in (plain, first))
    views = {"rounds": 3, "untraced_wall_s": untraced, "traced_wall_s": traced}
    if OP_KINDS[workload] == ("panel",):
        views["gain_calls_per_panel"] = trace["stats"]["gain.gain.calls"] / len(kinds)
        views["optimal_sensing_time_calls_per_panel"] = \
            trace["stats"]["opttime.optimal_sensing_time.calls"] / len(kinds)
    return {"metrics": per_layer(trace), "views": views,
            "attempted": attempted, "failures": failures, "problems": problems,
            "passes": passes, "tracing_overhead_s": traced - untraced,
            "edges": trace["edges"], "numpy": plain[0]["numpy"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ref: dict, pool: list) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        result = traced_run(workload, seed, ref, pool, deadline)
    else:
        result = timed_run(workload, seed, seconds, ref, pool, deadline)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    return result


def metadata(result: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "src_tree": reference.src_tree_hash(os.path.join(ROOT, "src")),
        "seed": result["seed"],
        "seconds": result["seconds"],
        "passes": len(result["passes"]),
        "samples": result["views"],
        "tracing_overhead_s": result["tracing_overhead_s"],
    }


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in record[section]}
            for section in ("end_to_end", "per_layer")}


def report(result: dict, units: dict[str, str]) -> dict:
    """Print the human-readable table; write the full record; return the
    result object (the last stdout line) with the metrics BENCHMARK.json
    declares."""
    meta = metadata(result)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    failed = len(result["failures"])
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    for name, metric in metrics.items():
        print(f"  {name:<40} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result["views"].items():
        print(f"  {name:<40} = {value:.6g}" if isinstance(value, float) else
              f"  {name:<40} = {value}")
    print(f"  {'failed_frac':<40} = {failed}/{result['attempted']}")
    for line in result["problems"] + result["failures"][:10]:
        print(f"  FAILED {line}")
    for key in ("python", "numpy", "nproc", "src_tree", "tracing_overhead_s"):
        print(f"  {key:<40} = {meta[key]}")
    out = {
        "correct": not result["failures"] and not result["problems"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(out, meta=meta, failures=result["failures"], problems=result["problems"],
                  all_metrics=result["metrics"], edges=result.get("edges"))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return out


def load_reference() -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ghzgain", "__init__.py")):
        raise BenchError(f"no ghzgain sources under {os.path.join(ROOT, 'src')}; "
                         "run from the root of a checkout")
    ref = reference.load()
    if ref["pool_digest"] != workloads.pool_digest():
        raise BenchError("input pools differ from the ones reference.json.gz answers; "
                         "regenerate it with make_reference.py at a trusted commit")
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    section = "per_layer" if args.trace else "end_to_end"
    try:
        units = declared_units()[section]
        ref = load_reference()
        pool = workloads.query_pool()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        outs = [report(run_workload(w, args.seed, args.seconds, bool(args.trace), ref, pool),
                       units) for w in names]
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for out in outs:
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
