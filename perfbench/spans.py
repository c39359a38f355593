"""In-memory span recorder wrapped around the engine's layer boundaries.

Spans are recorded from outside the engine: each boundary is a public
name replaced, for the traced phase only, where the calling module
looks it up (``smoothcert.cli.certify`` rather than the definition in
``smoothcert.certify``). A boundary whose name no longer exists is
listed in ``Tracer.missing`` and every metric that needs it reads
``"missing"``, never zero.

Time metrics are seconds per item. A span's self time is its duration
minus the union of its child spans' intervals; children that run on
the engine's pool threads are attached to the span that the client
thread has open while they run.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from pathlib import Path

MISSING = "missing"

DRAWS = ("discrepancy.sample_chunks", "classifiers.sample_chunks", "lab.sample_chunks")
PIPELINES = ("cli.certify", "cli.certified_radius_search")
SWEEP_POINT = "lab._sweep_point"


def _n_arg(sig, args, kwargs):
    return {"rows": int(sig.bind(*args, **kwargs).arguments["n"])}


def _points_arg(sig, args, kwargs):
    return {"rows": int(sig.bind(*args, **kwargs).arguments["points"].shape[0])}


def _external_batches(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs).arguments
    rows = int(bound["points"].shape[0])
    return {"rows": rows, "batches": math.ceil(rows / bound["self"].batch_size)}


def _dual_result(result):
    return {"lambda_evals": len(result.trace), "epsilon": float(result.epsilon)}


# (span name, module, attribute, kind, attrs from the arguments, attrs from the result)
BOUNDARIES = (
    ("cli.certify", "smoothcert.cli", "certify", "call", None, None),
    ("cli.certified_radius_search", "smoothcert.cli", "certified_radius_search", "call", None, None),
    ("cli.pareto_sweep", "smoothcert.cli", "pareto_sweep", "call", None, None),
    ("certify.success_counts", "smoothcert.certify", "success_counts", "call", _n_arg, None),
    ("certify.dual_lower_bound", "smoothcert.certify", "dual_lower_bound", "call", None, _dual_result),
    ("certify.clopper_pearson_lower", "smoothcert.certify", "clopper_pearson_lower", "call", None, None),
    ("discrepancy.sample_chunks", "smoothcert.discrepancy", "sample_chunks", "generator", None, None),
    ("classifiers.sample_chunks", "smoothcert.classifiers", "sample_chunks", "generator", None, None),
    ("lab.sample_chunks", "smoothcert.lab", "sample_chunks", "generator", None, None),
    ("lab.evaluate", "smoothcert.lab", "evaluate", "call", _points_arg, None),
    # private, but it is the unit of work of the pareto pool: without it the
    # ratio arithmetic done on pool threads has no span to be charged to
    (SWEEP_POINT, "smoothcert.lab", "_sweep_point", "call", None, None),
    ("ExternalClassifier.labels", "smoothcert.classifiers", "ExternalClassifier.labels",
     "call", _external_batches, None),
)


class Span:
    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None, op: int | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "thread": self.thread, "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Records spans in memory; ``installed()`` wraps the boundaries.

    Create it on the client thread: spans opened on any other thread
    with nothing open there take the client's innermost open span as
    their parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        outer = stack or self._client_stack
        s = Span(next(self._ids), name, outer[-1].id if outer else None, self.op)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def _wrap_call(self, name, fn, before, after):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                if before is not None:
                    s.attrs.update(before(sig, args, kwargs))
                result = fn(*args, **kwargs)
                if after is not None:
                    s.attrs.update(after(result))
                return result

        return wrapper

    def _wrap_generator(self, name, fn):
        # a generator does its work inside next(), so each next() is a span
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name) as s:
                    try:
                        block = next(inner)
                    except StopIteration:
                        s.attrs["rows"] = 0
                        return
                    s.attrs["rows"] = int(block.shape[0])
                yield block

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists; restore the originals on exit."""
        restore = []
        self.missing = []
        try:
            for name, module_name, attr, kind, before, after in BOUNDARIES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                if kind == "generator":
                    wrapped = self._wrap_generator(name, fn)
                else:
                    wrapped = self._wrap_call(name, fn, before, after)
                setattr(owner, leaf, wrapped)
                restore.append((owner, leaf, fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(restore):
                setattr(owner, leaf, fn)

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s.to_dict()) + "\n" for s in self.spans),
                        encoding="utf-8")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(tracer: Tracer, items: int, workers: int, accept_rate: float) -> dict:
    """Per-layer metrics as name -> (value, unit); value is None where the
    layer does no work on this workload and ``MISSING`` where a boundary
    it needs no longer exists."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(ss):
        return math.fsum(s.dur for s in ss)

    def self_time(ss):
        out = []
        for s in ss:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, [])]
            out.append(s.dur - _union_length([k for k in kids if k[1] > k[0]]))
        return math.fsum(out)

    def attr_sum(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss)

    per = 1.0 / items
    draws = named(*DRAWS)
    draw_t = total(draws)
    counts = named("certify.success_counts")
    evaluates = named("lab.evaluate")
    count_draw_t = math.fsum(c.dur for s in counts for c in children.get(s.id, []) if c.name in DRAWS)
    label_t = total(counts) - count_draw_t + total(evaluates)
    label_rows = attr_sum(counts, "rows") + attr_sum(evaluates, "rows")
    external = named("ExternalClassifier.labels")
    duals = named("certify.dual_lower_bound")
    cps = named("certify.clopper_pearson_lower")
    pipelines = named(*PIPELINES)
    sweep_points = named(SWEEP_POINT)
    units = pipelines + sweep_points
    ops = named("op")

    def when(ss, value):
        # None (n/a) where the layer did no work on this workload
        return value() if ss else None

    metrics = {
        "families.draw_s": (draw_t * per, "s", DRAWS),
        "families.rows_per_s": (attr_sum(draws, "rows") / draw_t if draw_t else None, "1/s", DRAWS),
        "families.rows": (attr_sum(draws, "rows") * per, "count", DRAWS),
        "families.accept_rate": (accept_rate, "ratio", ()),
        "discrepancy.dual_s": (when(duals, lambda: total(duals) * per), "s", ("certify.dual_lower_bound",)),
        "discrepancy.dual_self_s": (when(duals, lambda: self_time(duals) * per), "s",
                                    ("certify.dual_lower_bound",) + DRAWS),
        "discrepancy.dual_calls": (len(duals) * per, "count", ("certify.dual_lower_bound",)),
        "discrepancy.lambda_evals": (attr_sum(duals, "lambda_evals") / len(duals) if duals else 0,
                                     "count", ("certify.dual_lower_bound",)),
        "discrepancy.epsilon": (when(duals, lambda: attr_sum(duals, "epsilon") / len(duals)),
                                "prob", ("certify.dual_lower_bound",)),
        "discrepancy.math_s": ((total(units) - draw_t - label_t) * per, "s",
                               PIPELINES + (SWEEP_POINT, "certify.success_counts", "lab.evaluate") + DRAWS),
        "classifiers.p0_s": (when(counts, lambda: total(counts) * per), "s", ("certify.success_counts",)),
        "classifiers.p0_self_s": (when(counts, lambda: self_time(counts) * per), "s",
                                  ("certify.success_counts", "ExternalClassifier.labels") + DRAWS),
        "classifiers.label_s": (label_t * per, "s", ("certify.success_counts", "lab.evaluate") + DRAWS),
        "classifiers.label_rows_per_s": (label_rows / label_t if label_t else None, "1/s",
                                         ("certify.success_counts", "lab.evaluate") + DRAWS),
        "classifiers.eval_s": (when(external, lambda: total(external) * per), "s",
                               ("ExternalClassifier.labels",)),
        "classifiers.eval_rows_per_s": (when(external, lambda: attr_sum(external, "rows") / total(external)),
                                        "1/s", ("ExternalClassifier.labels",)),
        "classifiers.eval_batches": (attr_sum(external, "batches") * per, "count",
                                     ("ExternalClassifier.labels",)),
        "certify.cp_s": (when(cps, lambda: total(cps) * per), "s", ("certify.clopper_pearson_lower",)),
        "certify.self_s": (when(pipelines, lambda: self_time(pipelines) * per), "s",
                           PIPELINES + ("certify.success_counts", "certify.dual_lower_bound",
                                        "certify.clopper_pearson_lower")),
        "lab.self_s": (when(sweep_points,
                            lambda: (self_time(sweep_points) + self_time(named("cli.pareto_sweep"))) * per),
                       "s", (SWEEP_POINT, "cli.pareto_sweep", "lab.evaluate") + DRAWS),
        "cli.self_s": (self_time(ops) * per, "s", PIPELINES + ("cli.pareto_sweep",)),
        "cli.pool_busy": (total(units) / (total(ops) * workers) if ops else None, "ratio",
                          PIPELINES + (SWEEP_POINT,)),
    }
    missing = set(tracer.missing)
    return {
        name: (MISSING if missing.intersection(needs) else value, unit)
        for name, (value, unit, needs) in metrics.items()
    }
