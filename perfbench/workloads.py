"""Deterministic inputs for the two benchmark workloads.

Everything here is plain data built from ``random.Random(seed).random()``
alone (whose output is stable across Python versions), so the same seed
gives the same inputs on every machine.  Threshold cases and CLI queries
come from fixed pools whose answers at the reference commit are stored in
``reference.json.gz``; the run seed only chooses and orders pool entries,
so any seed can be checked against the stored answers.

A workload is a list of pass kinds; a run repeats every kind, each
repeat in a fresh interpreter on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("fig-panels", "scan-queries")

POOL_SEED = 1608

# --- panels -----------------------------------------------------------------

# The six criterion-10 panels of the acceptance suite: model, column axis
# (name, min, max, spacing), x_ent maximum, fixed value.
FIG_PANELS = {
    "a": ({"kind": "isolated", "t_c": 1.0}, ("x_sep", 0.0, 0.9, "linear"), 0.995, {"n": 10}),
    "b": ({"kind": "isolated", "t_c": 1.0}, ("n", 1, 10**4, "log"), 0.995, {"x_sep": 0.03}),
    "c": ({"kind": "markovian", "gamma": 1.0}, ("x_sep", 0.0, 0.9, "linear"), 0.995, {"n": 10}),
    "d": ({"kind": "markovian", "gamma": 1.0}, ("n", 1, 10**4, "log"), 0.995, {"x_sep": 0.03}),
    "e": ({"kind": "nonmarkovian", "eta": 1.0}, ("x_sep", 0.0, 0.9, "linear"), 1.6, {"n": 10}),
    "f": ({"kind": "nonmarkovian", "eta": 1.0}, ("n", 1, 10**4, "log"), 0.995, {"x_sep": 0.03}),
}
GRID_POINTS = 200


def panel_configs(workload: str, out_dir: str) -> dict[str, dict]:
    """Sweep config dicts (the JSON a user would pass to ``ghzgain sweep``),
    keyed by panel name."""
    configs = {}
    for name, (model, (col, lo, hi, spacing), x_ent_max, fixed) in FIG_PANELS.items():
        configs[name] = {
            "model": dict(model),
            "axes": {
                col: {"min": lo, "max": hi, "points": GRID_POINTS, "spacing": spacing},
                "x_ent": {"min": 0.0, "max": x_ent_max, "points": GRID_POINTS},
            },
            "fixed": dict(fixed),
            "output": {"format": "csv", "path": f"{out_dir}/{workload}-{name}.csv"},
        }
    return configs


# --- threshold scan ---------------------------------------------------------

THRESHOLD_MODELS = {
    "nonmarkovian": {"kind": "nonmarkovian", "eta": 1.0},
    "ohmic": {"kind": "ohmic", "alpha": 0.05, "omega_c": 20.0, "beta": 0.5},
    # beta * omega_c = 1000: r < 1 at zero overhead for most cases, so the
    # documented outcome is NoThresholdError(side="below")
    "cold-ohmic": {"kind": "ohmic", "alpha": 0.1, "omega_c": 100.0, "beta": 10.0},
}
# pool size of each family, and the cases a seed draws from it
THRESHOLD_POOL = {"nonmarkovian": 1250, "ohmic": 1250, "cold-ohmic": 500}
THRESHOLDS_PER_SEED = {"nonmarkovian": 60, "ohmic": 60, "cold-ohmic": 30}

# The cutoff example of the README, one command per law.  The scan stops
# at 3e4 sizes instead of the default 1e6: the default constant-law scan
# takes 12-19 s on a shared 2-vCPU Xeon VM, and a pass must be short
# (well under a second) to be repeated many times within a run.
CUTOFF_COMMANDS = [
    ["cutoff", "--model", "isolated", "--tc", "1", "--law", law,
     "--base", "0.03", "--ttilde-sep", "0.03", "--n-search-max", "30000"]
    for law in ("constant", "square-root", "linear")
]


def threshold_pool() -> list[tuple[str, int, float]]:
    """(family, n, x_sep) cases: n log-uniform in 1..1e6, x_sep uniform in
    [0, 0.9).  Pool index = position in this list."""
    rng = random.Random(POOL_SEED)
    pool = []
    for family, size in THRESHOLD_POOL.items():
        for _ in range(size):
            n = max(1, int(round(10.0 ** (6.0 * rng.random()))))
            pool.append((family, n, 0.9 * rng.random()))
    return pool


def threshold_cases(seed: int) -> list[int]:
    """Pool indices of a seed's threshold cases, interleaved in seed order.

    Each family's pool is cut into equal strata by n and the seed picks
    one case per stratum, so every seed gets the same spread of n (cost and
    outcome depend strongly on n; a plain random sample moved the median
    latency by a third from seed to seed)."""
    pool = threshold_pool()
    rng = random.Random(seed)
    picked = []
    start = 0
    for family, size in THRESHOLD_POOL.items():
        by_n = sorted(range(start, start + size), key=lambda i: pool[i][1:])
        count = THRESHOLDS_PER_SEED[family]
        for j in range(count):
            lo, hi = j * size // count, (j + 1) * size // count
            picked.append(by_n[lo + int(rng.random() * (hi - lo))])
        start += size
    _shuffle(picked, rng)
    return picked


# --- point queries ----------------------------------------------------------

QUERY_POOL = 8000
QUERIES_PER_PASS = 250

# Keys compared against the reference for each subcommand (other output
# fields, such as residuals, are free to change).
QUERY_KEYS = {
    "gain": ("r", "tau_opt_sep", "tau_opt_ent"),
    "tau-opt": ("tau_opt_sep", "tau_opt_ent"),
    "bath": ("decay_exponent", "t_c"),
    "qfi": ("f_sep", "f_ent"),
}


def _num(x: float) -> str:
    return format(x, ".6g")


def _model_args(rng: random.Random, kind: str) -> tuple[list[str], float]:
    """CLI model flags and a time scale for the overheads."""
    if kind == "isolated":
        tc = 0.5 + 1.5 * rng.random()
        return ["--model", "isolated", "--tc", _num(tc)], tc
    if kind == "markovian":
        gamma = 10.0 ** (2.0 * rng.random() - 1.0)
        return ["--model", "markovian", "--gamma", _num(gamma)], 1.0 / gamma
    if kind == "nonmarkovian":
        eta = 10.0 ** (2.0 * rng.random() - 1.0)
        return ["--model", "nonmarkovian", "--eta", _num(eta)], 1.0 / math.sqrt(eta)
    alpha = 0.01 + 0.09 * rng.random()
    omega_c = 5.0 + 45.0 * rng.random()
    beta = 0.2 + 1.8 * rng.random()
    return (["--model", "ohmic", "--alpha", _num(alpha), "--omega-c", _num(omega_c),
             "--beta", _num(beta)], beta)


def query_pool() -> list[list[str]]:
    """Mutually distinct single-point CLI invocations over all four
    subcommands and bath kinds, half with --json.  About a third of the
    isolated gain/tau-opt queries have an overhead past t_c, whose
    documented outcome is exit code 3."""
    rng = random.Random(POOL_SEED + 1)
    commands = tuple(QUERY_KEYS)
    kinds = ("isolated", "markovian", "nonmarkovian", "ohmic")
    pool, seen = [], set()
    while len(pool) < QUERY_POOL:
        i = len(pool)
        command, kind = commands[i % 4], kinds[(i // 4) % 4]
        model, scale = _model_args(rng, kind)
        n = _num(max(1, int(round(10.0 ** (3.0 * rng.random())))))
        x_sep, x_ent = 1.2 * rng.random() * scale, 1.2 * rng.random() * scale
        if kind != "isolated":
            x_sep, x_ent = x_sep / 2.0, x_ent / 2.0
        tau = 10.0 ** (3.0 * rng.random() - 2.0) * scale
        if command == "gain":
            argv = ["gain", *model, "--n", n, "--ttilde-sep", _num(x_sep),
                    "--ttilde-ent", _num(x_ent)]
        elif command == "tau-opt":
            argv = ["tau-opt", *model, "--n", n, "--ttilde-sep", _num(x_sep),
                    "--ttilde-ent", _num(x_ent)]
        elif command == "bath":
            argv = ["bath", *model, "--tau", _num(tau)]
        else:
            argv = ["qfi", *model, "--n", n, "--tau", _num(tau)]
        if rng.random() < 0.5:
            argv.append("--json")
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            pool.append(argv)
    return pool


def query_cases(seed: int) -> list[int]:
    """Pool indices of a seed's queries, in seed order."""
    ids = list(range(QUERY_POOL))
    _shuffle(ids, random.Random(seed))
    return ids[:QUERIES_PER_PASS]


# --- shared -----------------------------------------------------------------

def pass_kinds(workload: str) -> list[str]:
    """What one pass of each kind runs: a panel, the cutoff commands, the
    seed's thresholds, or the seed's queries.  Short passes let a run
    repeat each kind many times."""
    if workload == "fig-panels":
        return list(FIG_PANELS)
    return ["cutoffs", "thresholds", "queries"]


def _shuffle(items: list, rng: random.Random) -> None:
    """Fisher-Yates on rng.random() only (random.shuffle's draws have
    changed between Python versions)."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def pool_digest() -> str:
    """Fingerprint of both pools; the reference file records it, so a
    changed generator cannot be checked against stale answers."""
    text = json.dumps([threshold_pool(), query_pool(), CUTOFF_COMMANDS])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
