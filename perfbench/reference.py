"""Reference answers and the checks every benchmark run makes against them.

Rules: r, tau_opt_* and thresholds (and the other checked numbers) agree
to rtol 1e-9; feasible flags, cutoff integers and exit codes agree
exactly; an expected documented error (exit code 3, NoThresholdError
side) is a success only when it matches.  Each check returns a list of
mismatch messages, empty when the output is correct.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os

RTOL = 1e-9
SAMPLE_STRIDE = 97
PANEL_VALUES = ("r", "tau_opt_sep", "tau_opt_ent")
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json.gz")


def close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return got == want or abs(got - want) <= RTOL * max(abs(got), abs(want))


def rounded(value):
    """12 significant digits, as the CLI prints; far inside RTOL."""
    return None if value is None else float(format(value, ".12g"))


def load(path: str = PATH) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(reference: dict, path: str = PATH) -> None:
    text = json.dumps(reference, separators=(",", ":"), sort_keys=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def src_tree_hash(src_dir: str) -> str:
    """The git tree hash of ``src_dir`` (what ``git rev-parse HEAD:src``
    prints for a clean tree), computed without git: the benchmark also
    runs in checkouts that are not repositories.  Byte-code caches are
    skipped, as .gitignore skips them."""
    entries = []
    for name in os.listdir(src_dir):
        path = os.path.join(src_dir, name)
        if name == "__pycache__" or name.endswith((".pyc", ".egg-info")):
            continue
        if os.path.isdir(path):
            entries.append((name + "/", b"40000 " + name.encode(),
                            bytes.fromhex(src_tree_hash(path))))
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            mode = b"100755 " if os.access(path, os.X_OK) else b"100644 "
            entries.append((name, mode + name.encode(), blob))
    body = b"".join(head + b"\0" + digest for _, head, digest in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


# --- panels -------------------------------------------------------------------

def parse_panel(path: str) -> list[dict]:
    """Rows of a sweep output file (CSV or JSON) as dicts of numbers."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.loads(text)
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, cell in zip(header, line.split(",")):
            if key == "feasible":
                row[key] = cell == "true"
            elif key == "n":
                row[key] = int(cell)
            else:
                row[key] = float(cell) if cell else None
        rows.append(row)
    return rows


def _feasible_runs(rows: list[dict]) -> list[list]:
    runs: list[list] = []
    for row in rows:
        flag = bool(row["feasible"])
        if runs and runs[-1][0] == flag:
            runs[-1][1] += 1
        else:
            runs.append([flag, 1])
    return runs


def _sample(row: dict) -> list:
    return [row["x_ent"], row["x_sep"], row["n"]] + [row[k] for k in PANEL_VALUES]


def summarize_panel(rows: list[dict]) -> dict:
    feasible = [row for row in rows if row["feasible"]]
    return {
        "rows": len(rows),
        "feasible_runs": _feasible_runs(rows),
        "sums": {k: rounded(sum(row[k] for row in feasible)) for k in PANEL_VALUES},
        "samples": [[rounded(v) if isinstance(v, float) else v for v in _sample(row)]
                    for row in rows[::SAMPLE_STRIDE]],
    }


def check_panel(ref: dict, rows: list[dict]) -> list[str]:
    if len(rows) != ref["rows"]:
        return [f"{len(rows)} rows, expected {ref['rows']}"]
    errors = []
    if _feasible_runs(rows) != ref["feasible_runs"]:
        errors.append("feasible flags differ")
    got = summarize_panel(rows)
    for key in PANEL_VALUES:
        if not close(got["sums"][key], ref["sums"][key]):
            errors.append(f"sum of {key} {got['sums'][key]!r} != {ref['sums'][key]!r}")
    for i, (have, want) in enumerate(zip(got["samples"], ref["samples"])):
        if have[2] != want[2] or not all(close(a, b) for a, b in zip(have, want)):
            errors.append(f"row {i * SAMPLE_STRIDE}: {have} != {want}")
    return errors


# --- CLI output ---------------------------------------------------------------

def parse_cli(text: str) -> dict:
    """Either output form of a subcommand: one JSON document, or
    ``key = value`` lines (``none`` for a missing value)."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = None if value == "none" else float(value)
    return out


def summarize_query(keys: tuple, code: int, text: str) -> list:
    if code != 0:
        return [code]
    payload = parse_cli(text)
    return [code] + [rounded(payload[k]) for k in keys]


def check_query(ref: list, keys: tuple, code: int, text: str) -> list[str]:
    if code != ref[0]:
        return [f"exit code {code}, expected {ref[0]}"]
    if code != 0:
        return []
    try:
        payload = parse_cli(text)
        got = [payload[k] for k in keys]
    except (KeyError, ValueError) as exc:
        return [f"unreadable output ({exc!r}): {text!r}"]
    return [f"{k} = {g!r}, expected {w!r}"
            for k, g, w in zip(keys, got, ref[1:]) if not close(g, w)]


def summarize_cutoff(code: int, text: str) -> list:
    payload = parse_cli(text) if code == 0 else {}
    n_cut = payload.get("n_cutoff")
    return [code, None if n_cut is None else int(n_cut),
            int(payload["n_max"]) if code == 0 else None,
            rounded(payload.get("r_at_n_max"))]


def check_cutoff(ref: list, code: int, text: str) -> list[str]:
    try:
        got = summarize_cutoff(code, text)
    except (KeyError, ValueError) as exc:
        return [f"unreadable output ({exc!r}): {text!r}"]
    if got[:3] != ref[:3] or not close(got[3], ref[3]):
        return [f"cutoff {got}, expected {ref}"]
    return []


# --- thresholds ---------------------------------------------------------------

def summarize_threshold(kind: str, value) -> list:
    return ["value", rounded(value)] if kind == "value" else [kind, value]


def check_threshold(ref: list, kind: str, value) -> list[str]:
    if kind != ref[0]:
        return [f"{kind} {value!r}, expected {ref[0]} {ref[1]!r}"]
    if kind == "value" and not close(value, ref[1]):
        return [f"threshold {value!r}, expected {ref[1]!r}"]
    if kind != "value" and value != ref[1]:
        return [f"{kind} side {value!r}, expected {ref[1]!r}"]
    return []
