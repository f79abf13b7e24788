"""Outside-in layer timing for the traced benchmark run.

The program is not changed to be measured.  :class:`LayerTracer` replaces
each layer's public entry point, at the module or class where it is looked
up when called, with a wrapper that records one span into an in-memory
:class:`repro.obs.SpanTracer`.  The wrappers exist only between
:meth:`LayerTracer.install` and :meth:`LayerTracer.remove`; the untimed
and the end-to-end runs execute the original functions.

Self time per span name comes from :func:`repro.obs.trace_report`, so a
layer's number excludes the layers it calls (``estimation.report`` minus
its ``enumerate_embeddings`` and ``tree_parse`` children is expansion and
histogram lookups).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager

from repro.obs import SpanTracer, trace_report

#: (span name, module, class or None, attribute).  Module-level functions
#: are wrapped in the module that calls them (``from x import f`` binds
#: ``f`` there), methods on their class.
ENTRY_POINTS = (
    ("workload.generate", "repro.workload.generator", "WorkloadGenerator",
     "positive_workload"),
    ("query.count_bindings", "repro.workload.generator", None,
     "count_bindings"),
    ("query.count_bindings", "repro.build.oracles", None, "count_bindings"),
    ("synopsis.split_node", "repro.synopsis.summary", "TwigXSketch",
     "split_node"),
    ("synopsis.copy", "repro.synopsis.summary", "TwigXSketch", "copy"),
    ("synopsis.load_sketch", "repro.synopsis.persist", None, "load_sketch"),
    ("build.run", "repro.build.xbuild", "XBuild", "run"),
    ("build.generate_candidates", "repro.build.xbuild", None,
     "generate_candidates"),
    ("build.sample_for_regions", "repro.build.sampling", "RegionSampler",
     "sample_for_regions"),
    ("estimation.report", "repro.estimation.estimator", "TwigEstimator",
     "report"),
    ("estimation.report", "repro.estimation.estimator", "TwigEstimator",
     "report_many"),
    ("estimation.enumerate_embeddings", "repro.estimation.estimator", None,
     "enumerate_embeddings"),
    ("estimation.tree_parse", "repro.estimation.estimator", None,
     "tree_parse"),
    ("serve.estimate", "repro.serve.service", "EstimatorService",
     "estimate"),
    ("serve.submit_batch", "repro.serve.service", "EstimatorService",
     "submit_batch"),
)

#: every span a traced run records outside the program's entry points
PHASES = ("bench.setup", "bench.build", "bench.serve")

#: span name -> names one of its ancestors must carry
REQUIRED_ANCESTORS = {
    "workload.generate": ("bench.setup",),
    "query.count_bindings": ("workload.generate", "build.run"),
    "synopsis.split_node": ("build.run",),
    "synopsis.copy": ("build.run",),
    "synopsis.load_sketch": ("bench.setup",),
    "build.run": ("bench.build",),
    "build.generate_candidates": ("build.run",),
    "build.sample_for_regions": ("build.run",),
    "estimation.report": ("build.run", "serve.estimate", "serve.submit_batch"),
    "estimation.enumerate_embeddings": ("estimation.report",),
    "estimation.tree_parse": ("estimation.report",),
    "serve.estimate": ("bench.serve",),
    "serve.submit_batch": ("bench.serve",),
}


def owner(module_name: str, class_name):
    """The module, or the class in it, whose attribute is wrapped."""
    # ``repro.build.xbuild`` as an attribute path resolves to the xbuild
    # *function* re-exported by the package, so go through sys.modules.
    importlib.import_module(module_name)
    module = sys.modules[module_name]
    return module if class_name is None else getattr(module, class_name)


def _traced(tracer: SpanTracer, name: str, function):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return traced


class LayerTracer:
    """Installs span wrappers on the layer entry points, and removes them.

    Args:
        max_spans: size of the tracer's in-memory span ring; a traced
            benchmark run keeps every span, so it must exceed the count.
    """

    def __init__(self, max_spans: int = 5_000_000):
        self.tracer = SpanTracer(max_kept=max_spans)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for name, module_name, class_name, attribute in ENTRY_POINTS:
            target = owner(module_name, class_name)
            original = target.__dict__[attribute]
            self._saved.append((target, attribute, original))
            setattr(target, attribute, _traced(self.tracer, name, original))

    def remove(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    @contextmanager
    def active(self):
        """Wrappers installed for the duration of the block."""
        self.install()
        try:
            yield self.tracer
        finally:
            self.remove()

    def spans(self) -> list[dict]:
        return [span.to_dict() for span in self.tracer.finished]



def spans_under(spans: list[dict], root_name: str) -> list[dict]:
    """The spans of every subtree rooted at a span called ``root_name``."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    selected: list[dict] = []
    stack = [span for span in spans if span["name"] == root_name]
    while stack:
        span = stack.pop()
        selected.append(span)
        stack.extend(children.get(span["span_id"], ()))
    return selected


def self_times(spans: list[dict]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, self seconds), via :func:`trace_report`."""
    report = trace_report(spans)
    return {kind.name: (kind.count, kind.self_time) for kind in report.kinds}


def nesting_problems(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Every way the recorded spans fail to nest; empty when they do.

    Checks that each span has a finished parent (phases excepted), lies
    inside its parent's interval, and has the ancestor its layer implies
    (a TREEPARSE call outside any estimate is a wrapper gone wrong).
    """
    by_id = {span["span_id"]: span for span in spans}
    problems: list[str] = []
    for span in spans:
        name = span["name"]
        if span.get("duration") is None:
            problems.append(f"span {name} #{span['span_id']} never finished")
            continue
        parent = by_id.get(span["parent_id"])
        if parent is None:
            if name not in PHASES:
                problems.append(f"span {name} #{span['span_id']} has no parent")
            continue
        end = span["start"] + span["duration"]
        if (
            span["start"] + slack < parent["start"]
            or end > parent["start"] + parent["duration"] + slack
        ):
            problems.append(
                f"span {name} #{span['span_id']} escapes its parent "
                f"{parent['name']} #{parent['span_id']}"
            )
        required = REQUIRED_ANCESTORS.get(name)
        if required:
            ancestor = parent
            while ancestor is not None and ancestor["name"] not in required:
                ancestor = by_id.get(ancestor["parent_id"])
            if ancestor is None:
                problems.append(
                    f"span {name} #{span['span_id']} is not inside any of "
                    f"{', '.join(required)}"
                )
        if len(problems) >= 20:
            break
    return problems
