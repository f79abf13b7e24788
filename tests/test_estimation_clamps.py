"""Clamped ratios are counted, not hidden.

A ratio with a zero denominator (an empty extent) or a non-finite value
(corrupted counts) is used as 0.0 so estimates stay finite; every such use
is counted on :class:`EstimateReport`, in ``estimate_clamped_total{reason}``,
and as a warning on the serving response.  Healthy statistics clamp
nothing.
"""

import math

import pytest

from repro.datasets import figure1_document, generate_imdb
from repro.estimation import PathEstimator, TwigEstimator
from repro.obs import MetricsRegistry
from repro.query import parse_for_clause, parse_path
from repro.serve import EstimatorService
from repro.synopsis import (
    TwigXSketch,
    XSketchConfig,
    payload_digest,
    sketch_from_dict,
    sketch_to_dict,
)

#: A -> B (book) is not F-stable, so the coarsest synopsis covers it with
#: no histogram: its Forward Uniformity average is a ratio of counts
BOOKS = "for a in author, b in a/book"


def _clamped(registry: MetricsRegistry) -> dict[str, float]:
    metric = registry.get("estimate_clamped_total")
    if metric is None:
        return {}
    return {labels["reason"]: value for labels, value in metric.series()}


def _coarsest():
    return TwigXSketch.coarsest(figure1_document(), XSketchConfig(engine="exact"))


def _empty_author_extent(sketch: TwigXSketch) -> TwigXSketch:
    """The sketch, saved and loaded back with the author node's extent
    size corrupted to 0 (the digest re-forged, so the load accepts it)."""
    payload = sketch_to_dict(sketch)
    for node in payload["nodes"]:
        if node["tag"] == "author":
            node["count"] = 0
    payload["digest"] = payload_digest(payload)
    return sketch_from_dict(payload)


def _nan_book_count(sketch: TwigXSketch) -> TwigXSketch:
    """The sketch with the author -> book edge count corrupted to NaN."""
    author = sketch.graph.nodes_with_tag("author")[0].node_id
    book = sketch.graph.nodes_with_tag("book")[0].node_id
    sketch.graph.edge(author, book).child_count = math.nan
    return sketch


def test_healthy_statistics_clamp_nothing():
    registry = MetricsRegistry()
    sketch = TwigXSketch.coarsest(generate_imdb(2000, seed=2))
    estimator = TwigEstimator(sketch, metrics=registry)
    for text in (
        "for m in movie, a in m/actor, k in m/keyword",
        "for m in movie[narrator], a in m/actor",
        'for m in movie[/type = "Action"], p in m/producer',
    ):
        assert estimator.report(parse_for_clause(text)).clamped == 0
    assert _clamped(registry) == {}


def test_zero_extent_is_counted():
    registry = MetricsRegistry()
    estimator = TwigEstimator(_empty_author_extent(_coarsest()), metrics=registry)
    report = estimator.report(parse_for_clause(BOOKS))
    assert report.clamped == 1
    assert math.isfinite(report.selectivity)
    assert _clamped(registry) == {"zero_denominator": 1.0}


def test_non_finite_count_is_counted():
    registry = MetricsRegistry()
    estimator = TwigEstimator(_nan_book_count(_coarsest()), metrics=registry)
    report = estimator.report(parse_for_clause(BOOKS))
    assert report.clamped == 1
    assert report.selectivity == 0.0
    assert _clamped(registry) == {"non_finite": 1.0}


def test_precomputed_clamp_counts_on_every_use():
    """The compiled form computes the ratio once; each estimate using it
    counts the clamp again."""
    registry = MetricsRegistry()
    estimator = TwigEstimator(_nan_book_count(_coarsest()), metrics=registry)
    query = parse_for_clause(BOOKS)
    assert [estimator.report(query).clamped for _ in range(3)] == [1, 1, 1]
    assert [r.clamped for r in estimator.report_many([query, query])] == [1, 0]
    assert _clamped(registry) == {"non_finite": 4.0}


def test_branch_probability_clamp_is_counted():
    estimator = TwigEstimator(_nan_book_count(_coarsest()))
    report = estimator.report(parse_for_clause("for a in author[book], n in a/name"))
    assert report.clamped == 1


def test_path_estimator_counts_clamps():
    registry = MetricsRegistry()
    estimator = PathEstimator(_empty_author_extent(_coarsest()), metrics=registry)
    assert estimator.estimate(parse_path("bib/author/book")) == 0.0
    assert _clamped(registry) == {"zero_denominator": 1.0}


@pytest.mark.parametrize("batch", [False, True])
def test_service_warns_about_clamps(batch):
    service = EstimatorService(metrics=MetricsRegistry())
    service.register("corrupt", _empty_author_extent(_coarsest()), validate=False)
    service.register("healthy", _coarsest())
    query = parse_for_clause(BOOKS)

    def answer(name):
        if batch:
            return service.submit_batch(name, [query])[0]
        return service.estimate(name, query)

    corrupt = answer("corrupt")
    assert corrupt.source == "twig"
    assert any("degenerate ratio" in warning for warning in corrupt.warnings)
    assert answer("healthy").warnings == ()
