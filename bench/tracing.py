"""In-memory span tracer for the traced benchmark pass.

The tracer installs wrappers on the public bgft functions listed in SPANS and
on the numpy.linalg entry points bgft looks up at call time.  Nothing under
src/ is edited: bgft modules call each other through module globals
(``linalg.eig_general``, ``np.linalg.svd``), so replacing the module attribute
is enough to see every call.  Wrappers are installed only around traced ops
and removed after each one, so untraced ops run the original functions.

A span is ``[name, start, end, parent, op, counts]``.  ``parent`` is the index
of the enclosing span (-1 at a root) and ``counts`` holds the numpy.linalg
calls made while the span was innermost.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

# (bgft module, public function, span name).  Several functions may share a
# span name; their times are summed into one layer metric.
SPANS = (
    ("graphs", "undirected_cycle", "graphs.build"),
    ("graphs", "directed_cycle", "graphs.build"),
    ("graphs", "add_directed_chord", "graphs.build"),
    ("graphs", "load_graph", "graphs.load_graph"),
    ("markov", "transition", "markov.transition"),
    ("markov", "stationary", "markov.stationary"),
    ("markov", "is_reversible", "markov.is_reversible"),
    ("markov", "asymmetry_index", "markov.indices"),
    ("markov", "departure_from_normality", "markov.indices"),
    ("linalg", "eig_general", "linalg.eig_general"),
    ("transform", "decompose", "transform.decompose"),
    ("transform", "apply_filter", "transform.apply_filter"),
    ("transform", "analyze", "transform.analyze"),
    ("transform", "synthesize", "transform.synthesize"),
    ("transform", "diffuse_spectral", "transform.diffuse_spectral"),
    ("transform", "diffuse_direct", "transform.diffuse_direct"),
    ("transform", "energy_report", "transform.energy_report"),
    ("sampling", "reconstruct", "sampling.reconstruct"),
    ("sampling", "greedy_sampling_set", "sampling.greedy_sampling_set"),
)

# numpy.linalg entry points that are counted, not timed: the greedy search
# makes ~10^5 small SVDs per op, and a span each would dominate its cost.
# Their time stays in the calling span's self time.
NUMPY_COUNTED = ("svd", "lstsq", "inv", "qr")
# np.linalg.eig is the LAPACK eigensolver call, timed as its own span.
LAPACK_EIG = "linalg.lapack_eig"

# Self time per op for each span name, reported as "<name>_s".
SELF_TIME = (
    "graphs.build", "graphs.load_graph",
    "markov.transition", "markov.stationary", "markov.is_reversible",
    "markov.indices",
    "transform.decompose", "transform.apply_filter", "transform.analyze",
    "transform.synthesize", "transform.diffuse_spectral",
    "transform.diffuse_direct", "transform.energy_report",
    "sampling.reconstruct", "sampling.greedy_sampling_set",
)
# Inclusive time per op (span plus everything it called).
TOTAL_TIME = {
    "linalg.eig_general_s": "linalg.eig_general",
    "linalg.lapack_eig_s": LAPACK_EIG,
    "markov.stationary.total_s": "markov.stationary",
    "transform.decompose.total_s": "transform.decompose",
    "cli.main_s": "cli.main",
    "cli.process_s": "cli.process",
}


class Tracer:
    """Records spans and call counts for traced ops; see the module doc."""

    def __init__(self, bgft_modules: dict):
        self.spans: list = []
        self.values: dict = {}
        self._stack: list = []
        self._op = -1
        self._patches = []
        for mod_name, attr, span_name in SPANS:
            mod = bgft_modules[mod_name]
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn, self._timed(span_name, fn)))
        for attr in NUMPY_COUNTED:
            fn = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, fn, self._counted(attr, fn)))
        eig = np.linalg.eig
        self._patches.append((np.linalg, "eig", eig, self._lapack_eig(eig)))

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op, counts or {}]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, value: float) -> None:
        """A value measured outside this process, such as a child's import
        time; reported as its mean per op."""
        self.values.setdefault(name, []).append(float(value))

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self.spans[self._stack[-1]][5] if self._stack else {}
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _lapack_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            with self.span(LAPACK_EIG, {"complex_input": int(np.iscomplexobj(a))}):
                return fn(a, *args, **kwargs)
        return wrapper

    @contextmanager
    def traced_op(self, op_id: int):
        """The wrappers installed and the op's root span open."""
        with self.installed(op_id), self.span("op"):
            yield

    @contextmanager
    def installed(self, op_id: int):
        """Install the wrappers; always restore the original functions, even
        when the op raises."""
        self._op = op_id
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    # -- aggregation -------------------------------------------------------

    def per_layer(self, n_ops: int) -> dict:
        """Per-op layer metrics over all recorded spans (see README.md)."""
        n_ops = max(n_ops, 1)
        child = [0.0] * len(self.spans)
        under = []  # names of each span and its ancestors
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                under.append(under[parent] | {name})
            else:
                under.append(frozenset((name,)))

        self_time: dict = {}
        total: dict = {}
        spans_named: dict = {}
        calls: dict = {}
        recon_svd = greedy_svd = complex_eig = 0
        for i, (name, start, end, _, _, counts) in enumerate(self.spans):
            dur = end - start
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            total[name] = total.get(name, 0.0) + dur
            spans_named[name] = spans_named.get(name, 0) + 1
            for key, c in counts.items():
                calls[key] = calls.get(key, 0) + c
            if "sampling.reconstruct" in under[i]:
                recon_svd += counts.get("svd", 0) + counts.get("lstsq", 0)
            if "sampling.greedy_sampling_set" in under[i]:
                greedy_svd += counts.get("svd", 0)
            if name == LAPACK_EIG:
                complex_eig += counts["complex_input"]

        m = {f"{name}_s": self_time.get(name, 0.0) / n_ops for name in SELF_TIME}
        for metric, name in TOTAL_TIME.items():
            m[metric] = total.get(name, 0.0) / n_ops
        m["linalg.postprocess_s"] = self_time.get("linalg.eig_general", 0.0) / n_ops
        m["linalg.eig_general.calls_per_op"] = spans_named.get("linalg.eig_general", 0) / n_ops
        lapack_calls = spans_named.get(LAPACK_EIG, 0)
        m["linalg.lapack_eig.calls_per_op"] = lapack_calls / n_ops
        m["linalg.lapack_eig.complex_input_ratio"] = (
            complex_eig / lapack_calls if lapack_calls else 0.0
        )
        for key in NUMPY_COUNTED:
            m[f"linalg.{key}.calls_per_op"] = calls.get(key, 0) / n_ops
        m["sampling.reconstruct.svd_calls_per_op"] = recon_svd / n_ops
        m["sampling.greedy.svd_calls_per_op"] = greedy_svd / n_ops
        imports = self.values.get("cli.import", [])
        m["cli.import_s"] = sum(imports) / n_ops
        return m

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps(dict(name=name, start=start, end=end,
                                         parent=parent, op=op, counts=counts)))
                fh.write("\n")
