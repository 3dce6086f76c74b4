"""Per-layer spans timed from outside the package.

`Tracer` replaces each listed public function with a timing wrapper in every
module namespace that holds it (the package binds names with
``from .x import f``, so patching only the defining module would miss most
calls), and puts the originals back on exit.  A function's self time is the
time it took on the tracer's clock (by default the thread's CPU time) minus
the time spent in wrapped functions it called.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "branchpairs"

LAYERS = {
    "digraph": (
        "validate_semicomplete", "strong_decomposition", "is_k_arc_strong",
        "cut_arcs", "small_isomorphism",
    ),
    "hamilton": ("hamiltonian_cycle", "hamiltonian_path_from"),
    "branchings": ("bfs_tree", "out_branching_vs_path", "two_arc_disjoint_out_branchings"),
    "structures": ("detect_odd_chain", "arc_disjoint_path_pair", "verify_type_certificate"),
    "goodpair": (
        "decide_good_pair", "construct_good_pair", "extend_trees_across_cut",
        "same_root_pair", "verify_good_pair", "verify_certificate",
    ),
    "io": (
        "parse_digraph", "pair_to_dict", "certificate_to_dict",
        "pair_from_dict", "certificate_from_dict",
    ),
}

ANSWER_KINDS = ("yes", "small-exception", "root-misplaced", "cut-arc", "odd-chain")


# Outcome counters: wrapped function -> (counter, how much a result adds).
OUTCOMES = {
    "goodpair.extend_trees_across_cut": (
        "goodpair.extend_trees_across_cut.obstructed", lambda result: not isinstance(result, tuple),
    ),
    "digraph.cut_arcs": ("digraph.cut_arcs.found", len),
    "structures.detect_odd_chain": (
        "structures.detect_odd_chain.found", lambda result: result is not None,
    ),
}

OVERHEAD = "trace.overhead_pct"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_ms"] = "ms"
    for kind in ANSWER_KINDS:
        units[f"goodpair.answer.{kind}"] = "count"
    for counter, _ in OUTCOMES.values():
        units[counter] = "count"
    units[OVERHEAD] = "%"
    return units


class Tracer:
    """Context manager that wraps the functions in LAYERS while active."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._paused = False
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for layer, names in LAYERS.items():
                home = sys.modules[f"{PACKAGE}.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patched.append((module, attr, original))
                                setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Let the benchmark's own checks call the package uncounted."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, key: str, fn):
        stack = self._stack
        counter, measure = OUTCOMES.get(key, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.self_s[key] += elapsed - stack.pop()
                self.calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                self.counts[counter] += int(measure(result))
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Calls, self times in ms and outcome counts, by metric name."""
        values: dict[str, float] = {}
        for name in metric_units():
            if name.endswith(".calls"):
                values[name] = self.calls[name.removesuffix(".calls")]
            elif name.endswith(".self_ms"):
                values[name] = self.self_s[name.removesuffix(".self_ms")] * 1000.0
            elif name != OVERHEAD:
                values[name] = self.counts[name]
        return values
