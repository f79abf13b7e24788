"""The compiled form follows its sketch.

Estimation reads ``sketch.compiled()``.  A loaded sketch is compiled in
full at load; a built one node by node, on first use.  Every change made
through the sketch — a split, a statistics install as
``build_reference_sketch`` does, a removal — drops the compiled form, so
an estimator created before the change answers exactly like a fresh
estimator on a copy made after it.  Threads serving one loaded sketch share
its compiled form and answer exactly like serial estimation.
"""

import sys

import pytest

from repro.datasets import generate_imdb
from repro.estimation import TwigEstimator
from repro.obs import MetricsRegistry
from repro.query import parse_for_clause
from repro.serve import EstimatorService, ServePool
from repro.synopsis import EdgeRef, TwigXSketch, sketch_from_dict, sketch_to_dict
from repro.workload import WorkloadGenerator, WorkloadSpec

TWIGS = (
    "for m in movie, a in m/actor, k in m/keyword",
    "for m in movie[narrator], a in m/actor, p in m/producer",
    'for m in movie[/type = "Action"], a in m/actor',
    "for m in movie[year < 1990], a in m/actor",
    "for r in review, g in r/rating",
    "for s in series, e in s/episode, m in e/movie, a in m/actor",
)


@pytest.fixture(scope="module")
def tree():
    return generate_imdb(2000, seed=2)


def nid(sketch, tag):
    return sketch.graph.nodes_with_tag(tag)[0].node_id


def split_movies(sketch):
    movie = nid(sketch, "movie")
    sketch.split_node(movie, sketch.graph.with_child_in(movie, nid(sketch, "narrator")))


def install_reference_stats(sketch):
    """Per node, one joint histogram over its three most populous child
    edges, assigned into ``edge_stats`` the way ``build_reference_sketch``
    installs its histograms."""
    for node in sketch.graph.iter_nodes():
        refs = tuple(
            EdgeRef(node.node_id, edge.target)
            for edge in sorted(
                sketch.graph.children_of(node.node_id),
                key=lambda edge: edge.child_count,
                reverse=True,
            )
        )
        if refs:
            sketch.edge_stats[node.node_id] = [
                sketch.make_edge_histogram(node.node_id, refs[:3], 64)
            ]


def install_value_stats(sketch):
    for node_id in list(sketch.value_stats):
        sketch.value_stats[node_id] = sketch.make_value_summary(node_id, 16)


def install_extended(sketch):
    movie = nid(sketch, "movie")
    sketch.extended_stats[movie] = [
        sketch.make_extended_summary(
            movie, "type", (EdgeRef(movie, nid(sketch, "actor")),), 6, 8
        )
    ]


def drop_movie_histograms(sketch):
    del sketch.edge_stats[nid(sketch, "movie")]


def refresh_year_defaults(sketch):
    sketch.install_default_stats(nid(sketch, "year"), 16, 16)


MUTATIONS = {
    "split_node": split_movies,
    "reference_stats": install_reference_stats,
    "value_stats": install_value_stats,
    "extended_stats": install_extended,
    "del_edge_stats": drop_movie_histograms,
    "install_default_stats": refresh_year_defaults,
}


def _hexes(estimator, queries):
    return [estimator.estimate(q).hex() for q in queries]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_drops_the_compiled_form(tree, name):
    sketch = TwigXSketch.coarsest(tree)
    if name == "del_edge_stats":
        install_reference_stats(sketch)
    queries = [parse_for_clause(text) for text in TWIGS]
    estimator = TwigEstimator(sketch)
    before = _hexes(estimator, queries)
    compiled = sketch.compiled()
    MUTATIONS[name](sketch)
    assert sketch.compiled() is not compiled
    after = _hexes(estimator, queries)
    assert after == _hexes(TwigEstimator(sketch.copy()), queries)
    assert after != before


def test_assigning_a_statistics_table_drops_the_compiled_form(tree):
    sketch = TwigXSketch.coarsest(tree)
    install_extended(sketch)
    query = parse_for_clause('for m in movie[/type = "Action"], a in m/actor')
    estimator = TwigEstimator(sketch)
    with_extended = estimator.estimate(query)
    sketch.extended_stats = {}
    without = estimator.estimate(query)
    assert without == TwigEstimator(sketch.copy()).estimate(query)
    assert without != with_extended


def test_copies_compile_separately(tree):
    sketch = TwigXSketch.coarsest(tree)
    duplicate = sketch.copy()
    assert duplicate.compiled() is not sketch.compiled()
    split_movies(duplicate)
    assert sketch.compiled() is sketch.compiled()


def test_loaded_sketch_is_compiled_at_load(tree):
    loaded = sketch_from_dict(sketch_to_dict(TwigXSketch.coarsest(tree)))
    compiled = loaded.compiled()
    assert compiled is loaded.compiled()
    assert set(compiled._nodes) == set(loaded.graph.nodes)


@pytest.mark.parametrize("loaded", [True, False])
def test_pool_threads_answer_like_serial_estimation(tree, loaded):
    """Four threads (more than the cores) with a short switch interval:
    on a loaded sketch they share the form compiled at load; on a built
    one they race to fill its node tables and layouts."""
    built = TwigXSketch.coarsest(tree)
    install_reference_stats(built)
    install_extended(built)
    sketch = sketch_from_dict(sketch_to_dict(built)) if loaded else built
    spec = WorkloadSpec(seed=5, value_predicates=True)
    queries = [
        entry.query for entry in WorkloadGenerator(tree, spec).positive_workload(40).queries
    ] + [parse_for_clause(text) for text in TWIGS]
    serial = _hexes(TwigEstimator(sketch.copy()), queries)
    service = EstimatorService(metrics=MetricsRegistry())
    service.register("imdb", sketch, validate=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # room for every submission: nothing is shed to the uniform prior
        with ServePool(service, workers=4, max_queue=len(queries) * 3 + 3) as pool:
            singles = [pool.submit("imdb", q) for q in queries * 3]
            batches = [pool.submit_batch("imdb", queries) for _ in range(3)]
            pooled = [future.result(timeout=60) for future in singles]
            batched = [future.result(timeout=60) for future in batches]
    finally:
        sys.setswitchinterval(interval)
    assert {r.source for r in pooled} == {"twig"}
    assert [r.estimate.hex() for r in pooled] == serial * 3
    for responses in batched:
        assert {r.source for r in responses} == {"twig"}
        assert [r.estimate.hex() for r in responses] == serial
