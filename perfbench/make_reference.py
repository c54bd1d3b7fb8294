"""Write perfbench/reference.json.gz from the ghzgain in ./src.

    python3 perfbench/make_reference.py

Run it only at a commit whose answers are trusted: every later benchmark
run is checked against what this writes.  It answers every pool entry
(not just one seed's share), so it takes about a minute.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ghzgain  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import install_fallback_counter  # noqa: E402
from worker import _cli  # noqa: E402


def _exit(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call; any raised exception aborts."""
    _, (kind, *outcome) = _cli(argv)
    if kind == "error":
        raise SystemExit(f"{argv} raised {outcome[0]}")
    return outcome[0], outcome[1]


def main() -> None:
    install_fallback_counter()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    ref = {"pool_digest": workloads.pool_digest(),
           "src_tree": reference.src_tree_hash(os.path.join(ROOT, "src")),
           "panels": {}, "cutoffs": {}, "thresholds": [], "queries": []}

    for name, cfg in workloads.panel_configs("fig-panels", out_dir).items():
        config = ghzgain.config_from_dict(cfg)
        ghzgain.save_rows(ghzgain.run_sweep(config), config)
        rows = reference.parse_panel(config.output_path)
        ref["panels"][f"fig-panels/{name}"] = reference.summarize_panel(rows)

    for argv in workloads.CUTOFF_COMMANDS:
        code, text = _exit(argv)
        ref["cutoffs"][argv[6]] = reference.summarize_cutoff(code, text)

    models = {family: ghzgain.BathModel.from_dict(spec)
              for family, spec in workloads.THRESHOLD_MODELS.items()}
    for family, n, x_sep in workloads.threshold_pool():
        model = models[family]
        try:
            kind, value = "value", ghzgain.threshold_ent_time(
                model, n, x_sep * ghzgain.coherence_time(model))
        except ghzgain.NoThresholdError as exc:
            kind, value = "no-threshold", exc.side
        ref["thresholds"].append(reference.summarize_threshold(kind, value))

    for argv in workloads.query_pool():
        code, text = _exit(argv)
        if code not in (0, 3):
            raise SystemExit(f"query {argv} exits {code}; pool entries must succeed "
                             "or fail with the documented infeasible-timing code 3")
        keys = workloads.QUERY_KEYS[argv[0]]
        ref["queries"].append(reference.summarize_query(keys, code, text))

    reference.save(ref)
    print(f"wrote {reference.PATH}: {len(ref['panels'])} panels, "
          f"{len(ref['thresholds'])} thresholds, {len(ref['queries'])} queries")


if __name__ == "__main__":
    main()
