"""Spans around the calls into each omplab layer, recorded from outside.

``Tracer.install`` replaces the module-level names through which omplab's
modules call each other (and ``numpy.linalg``'s symmetric eigensolvers and
the process pool class) with wrappers that record a span per call: name,
layer, start, end, parent span and pass id. Spans stay in memory until the
run ends; ``uninstall`` puts every original back. A layer's self time is the
duration of its spans minus the part their child spans cover.

Names are matched by identity in every loaded ``omplab`` module, so a layer
function is traced wherever it was imported, and a function that a later
version deletes is simply not traced.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, layer); the span name is "<layer>:<attribute>".
LAYER_FUNCTIONS = (
    ("omplab.cli", "main", "cli"),
    ("omplab.experiments", "read_config", "cli"),
    ("omplab.experiments", "write_rows_csv", "cli"),
    ("omplab.linalg", "read_matrix", "cli"),
    ("omplab.experiments", "theorem1_validation", "experiments"),
    ("omplab.experiments", "phase_table", "experiments"),
    ("omplab.experiments", "lemma_sweep", "experiments"),
    ("omplab.ripcheck", "exact_ric", "ripcheck.exact_ric"),
    ("omplab.ripcheck", "verify_lemma1", "ripcheck.verify_lemma1"),
    ("omplab.linalg", "jacobi_extremes_batch", "linalg.eig"),
    ("numpy.linalg", "eigvalsh", "linalg.eig"),
    ("numpy.linalg", "eigh", "linalg.eig"),
    ("omplab.linalg", "least_squares", "linalg.lstsq"),
    ("omplab.linalg", "projection_residual", "linalg.lstsq"),
    ("omplab.omp", "omp_run", "omp"),
    ("omplab.sensing", "gaussian_sensing_matrix", "sensing"),
    ("omplab.sensing", "random_sparse_signal", "sensing"),
    ("omplab.sensing", "generate_measurement", "sensing"),
    ("omplab.sensing", "lemma1_example_instance", "sensing"),
)

POOL_LAYER = "experiments.pool"

#: Layers whose calls run inside pool workers when parallelism > 1, so their
#: spans come from a serial pass of the same inputs.
WORKER_LAYERS = ("ripcheck.", "linalg.", "omp.", "sensing.")


def _count(layer, args, result):
    """Exact work count a span carries: subsets, iterations or matrices."""
    if layer == "ripcheck.exact_ric":
        return int(getattr(result, "subsets_examined", 0))
    if layer == "omp":
        return int(getattr(result, "iterations", 0))
    if layer == "linalg.eig" and args:
        shape = np.shape(args[0])
        return math.prod(shape[:-2])
    return 0


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    pass_id: int | None
    start: float
    end: float | None = None
    count: int = 0
    children: list = field(default_factory=list)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.pass_id = None

    # -- recording ---------------------------------------------------------

    def begin(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer,
                    parent.id if parent else None, self.pass_id, time.perf_counter())
        self.spans.append(span)
        if parent:
            parent.children.append(span.id)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._stack.pop()

    def wrap(self, func, layer):
        name = f"{layer}:{func.__name__}"

        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            span.count = _count(layer, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Pool whose lifetime, worker start-up and shutdown are spans."""

            def __init__(self, *args, **kwargs):
                self._bench_span = tracer.begin(f"{POOL_LAYER}:pool", POOL_LAYER)
                spawn = tracer.begin(f"{POOL_LAYER}:spawn", POOL_LAYER)
                started = False
                try:
                    super().__init__(*args, **kwargs)
                    started = True
                finally:
                    tracer.end(spawn)
                    if not started:
                        tracer.end(self._bench_span)

            # Under fork every worker starts on the first submit, here.
            def _start_executor_manager_thread(self):
                if self._executor_manager_thread is not None:
                    return super()._start_executor_manager_thread()
                spawn = tracer.begin(f"{POOL_LAYER}:spawn", POOL_LAYER)
                try:
                    return super()._start_executor_manager_thread()
                finally:
                    tracer.end(spawn)

            def shutdown(self, *args, **kwargs):
                span, self._bench_span = self._bench_span, None
                down = tracer.begin(f"{POOL_LAYER}:shutdown", POOL_LAYER)
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    tracer.end(down)
                    if span is not None:
                        tracer.end(span)

        return TracedPool

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every layer function in every loaded omplab module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for module_name, attr, layer in LAYER_FUNCTIONS:
            func = getattr(sys.modules.get(module_name), attr, None)
            if func is not None and id(func) not in replacements:
                replacements[id(func)] = (func, self.wrap(func, layer))
        replacements[id(ProcessPoolExecutor)] = (
            ProcessPoolExecutor, self.pool_class(ProcessPoolExecutor))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "omplab" or name.startswith("omplab."))]
        modules.append(np.linalg)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def pass_spans(self, pass_id):
        return [s for s in self.spans if s.pass_id == pass_id]


def check_spans(spans):
    """Problems with a pass's span tree: unclosed spans, children outside
    their parent, overlapping siblings."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end is None:
            problems.append(f"span {s.name} never closed")
            continue
        kids = sorted((by_id[c] for c in s.children), key=lambda c: c.start)
        for c in kids:
            if c.end is None or c.start < s.start or c.end > s.end:
                problems.append(f"span {c.name} outside its parent {s.name}")
        for a, b in zip(kids, kids[1:]):
            if a.end is not None and b.start < a.end:
                problems.append(f"spans {a.name} and {b.name} overlap")
    return problems


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    by_id = {s.id: s for s in spans}
    return {s.id: s.duration - sum(by_id[c].duration for c in s.children) for s in spans}


def _has_ancestor(span, by_id, layer):
    p = span.parent
    while p is not None and p in by_id:
        if by_id[p].layer == layer:
            return True
        p = by_id[p].parent
    return False


def _outermost(spans, layer):
    """Spans of ``layer`` not nested inside another span of the same layer."""
    by_id = {s.id: s for s in spans}
    return [s for s in spans if s.layer == layer and not _has_ancestor(s, by_id, layer)]


def _under(spans, layer):
    """Spans with an ancestor in ``layer``."""
    by_id = {s.id: s for s in spans}
    return [s for s in spans if _has_ancestor(s, by_id, layer)]


def pass_metrics(spans):
    """Per-layer metrics of one traced pass (see BENCHMARK.json for units)."""
    own = self_times(spans)

    def busy(group):
        return sum(s.duration for s in group)

    def self_of(layer):
        return sum(own[s.id] for s in spans if s.layer == layer)

    eig = _outermost(_under(spans, "ripcheck.exact_ric"), "linalg.eig")
    ric = _outermost(spans, "ripcheck.exact_ric")
    lemma1 = _outermost(spans, "ripcheck.verify_lemma1")
    lstsq = _outermost(spans, "linalg.lstsq")
    omp = _outermost(spans, "omp")
    sensing = _outermost(spans, "sensing")
    pools = [s for s in spans if s.name == f"{POOL_LAYER}:pool"]
    subsets = sum(s.count for s in ric)
    iterations = sum(s.count for s in omp)
    ric_busy = busy(ric)
    omp_busy = busy(omp)
    return {
        "linalg.eig.calls": len(eig),
        "linalg.eig.matrices": sum(s.count for s in eig),
        "linalg.eig.busy_s": busy(eig),
        "ripcheck.exact_ric.calls": len(ric),
        "ripcheck.exact_ric.busy_s": ric_busy,
        "ripcheck.exact_ric.self_s": self_of("ripcheck.exact_ric"),
        "ripcheck.subsets": subsets,
        "ripcheck.ns_per_subset": ric_busy / subsets * 1e9 if subsets else 0.0,
        "ripcheck.verify_lemma1.calls": len(lemma1),
        "ripcheck.verify_lemma1.busy_s": busy(lemma1),
        "linalg.lstsq.calls": len(lstsq),
        "linalg.lstsq.busy_s": busy(lstsq),
        "omp.calls": len(omp),
        "omp.iterations": iterations,
        "omp.busy_s": omp_busy,
        "omp.us_per_iteration": omp_busy / iterations * 1e6 if iterations else 0.0,
        "sensing.calls": len(sensing),
        "sensing.busy_s": busy(sensing),
        "sensing.matrix_s": busy(s for s in sensing if s.name.endswith(":gaussian_sensing_matrix")),
        "experiments.self_s": self_of("experiments"),
        "experiments.pool.count": len(pools),
        "experiments.pool.spawn_s": busy(s for s in spans if s.name == f"{POOL_LAYER}:spawn"),
        "experiments.pool.shutdown_s": busy(s for s in spans if s.name == f"{POOL_LAYER}:shutdown"),
        "experiments.pool.wait_s": sum(own[s.id] for s in pools),
        "cli.self_s": self_of("cli"),
    }


def combine(per_pass, counts):
    """The metrics named in ``counts`` from the first pass (every pass must
    agree on them), the others as medians over the passes.

    Returns (metrics, problems)."""
    first = per_pass[0]
    problems = [f"{k} differs between traced passes: {[m[k] for m in per_pass]}"
                for k in first if k in counts and any(m[k] != first[k] for m in per_pass)]
    metrics = {k: (first[k] if k in counts else statistics.median(m[k] for m in per_pass))
               for k in first}
    return metrics, problems
