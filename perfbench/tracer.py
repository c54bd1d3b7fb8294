"""Per-layer tracing of ghzgain from outside the package.

Every public function of the traced modules is replaced by a wrapper at
every place the package binds it: the defining module, each
``from .x import y`` copy in a sibling module and the package namespace.
The wrappers open a span (name, start, end, parent) per call.  A traced
Ohmic panel opens about 1e7 spans, so spans are folded into
per-function and per-(parent, child) totals as they close instead of
being kept one by one; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gc
import importlib
import logging
import os
import sys
import time
import types
from collections import Counter

LAYERS = ("bath", "qfi", "opttime", "gain", "sweep", "cli")


class FallbackCounter(logging.Handler):
    """Counts the warnings of ``ghzgain.opttime`` (today: every rejected
    cubic closed form) and keeps their text off the terminal."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def install_fallback_counter() -> FallbackCounter:
    counter = FallbackCounter()
    logger = logging.getLogger("ghzgain.opttime")
    logger.addHandler(counter)
    logger.propagate = False
    return counter


def public_functions(module: types.ModuleType) -> dict[str, object]:
    """Functions a module defines and exports (its ``__all__``, or every
    name without a leading underscore when it has none)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = {}
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type) and \
                getattr(obj, "__module__", None) == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Wraps the public functions of ``ghzgain.<layer>`` for each layer."""

    def __init__(self, package: str = "ghzgain", layers=LAYERS):
        self.package = package
        self.layers = layers
        self.names: list[str] = []          # span name per function id
        self.calls: list[int] = []
        self.self_time: list[float] = []
        # spans per (parent id, child id), flattened; parent id len(names)
        # stands for "no parent"
        self.edges: list[int] = []
        self.solve_keys: set[int] = set()
        self.output_paths: list[str] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._patches: list[tuple[dict, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for name, fn in public_functions(module).items():
                self._originals[f"{layer}.{name}"] = fn
        self.names = list(self._originals)
        size = len(self.names)
        self.calls = [0] * size
        self.self_time = [0.0] * size
        self.edges = [0] * ((size + 1) * size)
        stack = [[size, 0.0, 0.0]]          # sentinel frame: the caller outside ghzgain
        hooks = {"opttime.optimal_sensing_time": self._record_solve,
                 "sweep.save_rows": self._record_output}
        for fid, (qual, fn) in enumerate(self._originals.items()):
            self._wrappers[qual] = self._wrap(fid, fn, stack, hooks.get(qual))
        by_id = {id(fn): qual for qual, fn in self._originals.items()}
        namespaces = [m for key, m in sys.modules.items()
                      if key == self.package or key.startswith(self.package + ".")]
        for module in namespaces:
            space = vars(module)
            for attr, value in list(space.items()):
                qual = by_id.get(id(value))
                if qual is not None:
                    self._patches.append((space, attr, value))
                    space[attr] = self._wrappers[qual]

    def uninstall(self) -> None:
        """Restore every binding and drop the references to the originals,
        so a later tracer's binding check does not see this one."""
        for space, attr, value in reversed(self._patches):
            space[attr] = value
        self._patches.clear()
        self._wrappers.clear()
        self._originals.clear()

    def missed_bindings(self) -> list[str]:
        """References to an original function that survive installation
        (a dispatch table, a partial, an unpatched namespace...).  Calls
        through them would escape the trace, so any entry is an error."""
        own = {id(self._originals)} | {id(patch) for patch in self._patches}
        for wrapper in self._wrappers.values():
            own.update(id(cell) for cell in wrapper.__closure__ or ())
        missed = []
        for qual in list(self._originals):  # an items() loop's tuple would be a referrer
            for ref in gc.get_referrers(self._originals[qual]):
                if id(ref) in own or isinstance(ref, types.FrameType):
                    continue
                if isinstance(ref, dict) and ref.get("__name__", "").startswith(self.package):
                    where = f"namespace {ref['__name__']}"
                else:
                    where = type(ref).__name__
                missed.append(f"{qual} still referenced from a {where}")
        return missed

    # -- spans ---------------------------------------------------------

    def _wrap(self, fid: int, fn, stack: list, on_call):
        """A span per call: [function id, start, time covered by children]
        on the stack while it runs, folded into the totals when it ends."""
        calls, self_time, edges = self.calls, self.self_time, self.edges
        clock, push, pop, size = time.perf_counter, stack.append, stack.pop, len(self.names)

        def span(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [fid, clock(), 0.0]
            push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                pop()
                parent = stack[-1]
                parent[2] += duration
                calls[fid] += 1
                self_time[fid] += duration - frame[2]
                edges[parent[0] * size + fid] += 1

        span.__name__ = span.__qualname__ = getattr(fn, "__name__", "span")
        return span

    def _record_solve(self, args, kwargs) -> None:
        """Key of one optimal_sensing_time call.  Only the hash is kept
        (a pass makes up to 5e5 calls); the workers fix PYTHONHASHSEED, so the
        count of distinct keys repeats exactly."""
        model, tau_tilde, n_eff = (list(args) + [None] * 3)[:3]
        self.solve_keys.add(hash((kwargs.get("model", model),
                                  float(kwargs.get("tau_tilde", tau_tilde)),
                                  int(kwargs.get("n_eff", n_eff)))))

    def _record_output(self, args, kwargs) -> None:
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        self.output_paths.append(config.output_path)

    # -- results -------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Calls and self time per function, plus self time per layer."""
        out: dict[str, int | float] = {}
        layer_self = Counter()
        for fid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = self.calls[fid]
            out[f"{qual}.self_s"] = self.self_time[fid]
            layer_self[qual.split(".")[0]] += self.self_time[fid]
        for layer in self.layers:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def bytes_written(self) -> int:
        return sum(os.path.getsize(p) for p in self.output_paths)

    def edge_table(self) -> dict[str, int]:
        """Span counts per "parent -> child" pair that occurred."""
        names = self.names + ["<root>"]
        size = len(self.names)
        return {f"{names[i // size]} -> {names[i % size]}": n
                for i, n in enumerate(self.edges) if n}
