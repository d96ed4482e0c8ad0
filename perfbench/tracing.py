"""Span recorder for the traced benchmark run.

The recorder measures the layers of ``mldp`` from outside: it replaces
each listed public function with a wrapper in every ``mldp`` module
namespace where callers look the name up, so calls made between the
library's own modules are recorded too, and puts the originals back
afterwards.  Nothing in ``src/`` is changed, and nothing is wrapped
while the recorder is not installed, so untraced runs pay nothing.

Spans are kept in memory as (name, start, end, parent index) and
written out once the run ends.  A span's self time is its duration
minus the durations of its direct children; calls within one thread
nest strictly, so the children never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, argument whose value splits the span name).  The
# per-layer table reports "<module>.<function>[.<split>].calls|self_s".
SPANNED = (
    ("histogram", "generate_simulated_histogram", None),
    ("histogram", "load_histogram_csv", None),
    ("workload", "all_range_queries", None),
    ("workload", "random_range_workload", None),
    ("workload", "range_query", None),
    ("workload", "evaluate_workload", None),
    ("workload", "workload_sensitivity", None),
    ("workload", "load_workload_csv", None),
    ("mechanisms", "laplace_batch", None),
    ("mechanisms", "mwem_publish", None),
    ("mechanisms", "strategy_mechanism", "strategy"),
    ("learning", "select_training_set", "strategy"),
    ("learning", "fit_linear", None),
    ("learning", "fit_rbf", None),
    ("learning", "median_pairwise_distance", None),
    ("learning", "predict", None),
    ("learning", "save_model", None),
    ("learning", "load_model", None),
    ("pipeline", "mldp_publish", None),
    ("pipeline", "training_workload_for", None),
    ("bench", "run_sweep", None),
    ("bench", "emit_report", None),
    ("cli", "main", "argv"),
)

# Called too often, or too cheaply, for a span: only counted.
COUNTED = (
    ("seeds", "derive_seed"),
    ("mechanisms", "PrivacyBudget.charge"),
)

# Workload-layer functions whose returned Workload matrices are summed
# into workload.matrix_mb.
MATRIX_RETURNING = ("all_range_queries", "random_range_workload", "load_workload_csv")

# The split values each split span can take in these workloads.
SPLITS = {
    "strategy_mechanism": ("identity", "hierarchical"),
    "select_training_set": ("singleton", "greedy_cover", "random_m"),
    "main": ("publish", "answer"),
}


def span_names() -> list[str]:
    """Every span name the per-layer table reports, in table order."""
    names = []
    for module, function, split in SPANNED:
        base = f"{module}.{function}"
        if split is None:
            names.append(base)
        else:
            names.extend(f"{base}.{value}" for value in SPLITS[function])
    return names


def count_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr in COUNTED]


class Recorder:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.matrix_bytes = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in sys.modules.items() if n == "mldp" or n.startswith("mldp.")]
        for module, function, split in SPANNED:
            home = sys.modules[f"mldp.{module}"]
            original = getattr(home, function)
            wrapper = self._span_wrapper(f"{module}.{function}", original, split)
            self._replace(modules, original, function, wrapper)
        for module, attr in COUNTED:
            home = sys.modules[f"mldp.{module}"]
            owner_name, _, function = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = getattr(owner, function)
                self._undo.append((owner, function, original))
                setattr(owner, function, self._count_wrapper(f"{module}.{attr}", original))
            else:
                original = getattr(home, function)
                wrapper = self._count_wrapper(f"{module}.{attr}", original)
                self._replace(modules, original, function, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _replace(self, modules, original, attr, wrapper) -> None:
        for module in modules:
            if vars(module).get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _span_wrapper(self, base: str, original, split):
        spans, stack = self.spans, self._stack
        counts_matrix = base.rpartition(".")[2] in MATRIX_RETURNING
        signature = inspect.signature(original) if split else None

        def wrapper(*args, **kwargs):
            name = base
            if signature is not None:
                value = signature.bind_partial(*args, **kwargs).arguments.get(split)
                if split == "argv":
                    value = value[0] if value else None
                name = f"{base}.{value}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts_matrix:
                self.matrix_bytes += result.matrix.nbytes
            return result

        return wrapper

    def _count_wrapper(self, name: str, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        table = {name: {"calls": calls[name], "self_s": self_s[name]} for name in calls}
        for name in self.counts:
            table[name] = {"calls": self.counts[name]}
        return table

    def write(self, path, origin: float) -> None:
        """Write the spans as gzip-compressed JSON, times relative to origin."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start - origin, end - origin, parent])
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": list(names),
            "spans": rows,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
