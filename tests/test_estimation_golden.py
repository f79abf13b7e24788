"""Golden estimates: the twig estimator's answers stay bit-identical.

Each case pins ``float.hex`` of :meth:`TwigEstimator.estimate` for a fixed
twig set over one seeded XBUILD, both on the built sketch and on the
sketch after a save/load round trip.  ``estimate_many`` — with a private
and with a shared, keyed :class:`BatchContext`, over the set with repeats —
must return the same floats.  Any change to how estimation walks the
synopsis (indexes, caches, plan reuse) has to perform the same float
operations in the same order to pass.

The pinned values live in ``tests/fixtures/golden_estimates.json``.  They
were recorded once and must not be regenerated to make a change pass;
``python tests/test_estimation_golden.py --record`` rewrites them, for a
deliberate change of the estimator's arithmetic only.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.build import XBuild
from repro.datasets import figure1_document, generate_imdb, generate_xmark
from repro.estimation import BatchContext, TwigEstimator
from repro.query import parse_for_clause
from repro.synopsis import EdgeRef, TwigXSketch, XSketchConfig
from repro.synopsis.persist import sketch_from_dict, sketch_to_dict
from repro.workload import WorkloadGenerator, WorkloadSpec

GOLDEN = Path(__file__).parent / "fixtures" / "golden_estimates.json"

#: name -> (document factory, budget above the coarsest sketch, config,
#: sampled-query value probability)
DATASETS = {
    "paperfig": (figure1_document, 400, XSketchConfig.full(), 0.5),
    "imdb-2000": (lambda: generate_imdb(2000, seed=2), 2500, XSketchConfig.full(), 0.5),
    "xmark-1500": (lambda: generate_xmark(1500, seed=1), 2500, XSketchConfig.full(), 0.5),
}

#: the generated twig sets: P+V twigs with branches, and branch-free
#: twigs of up to three children per node (these reach the backward-count
#: conditioning of the paperfig sketch)
SPECS = (
    WorkloadSpec(value_predicates=True, seed=11),
    WorkloadSpec(branch_probability=0.0, max_children=3, seed=12),
)

#: extra twigs per dataset: IMDB ones reach its extended value histogram,
#: the XMark one conditions on a backward count
EXTRA_TWIGS = {
    "imdb-2000": (
        'for m in movie[/type = "Action"], a in m/actor',
        'for m in //movie[/type = "Drama"], a in m/actor, p in m/producer',
        "for m in movie[year < 1990], a in m/actor",
        "for s in series, e in s/episode, m in e/movie, a in m/actor",
    ),
    "xmark-1500": (
        "for s in site, r in s/regions, a in r/asia, n in r/namerica, "
        "p in s/people, o in s/open_auctions",
    ),
}


def _install_extended(sketch: TwigXSketch) -> None:
    """An extended value histogram H^v(type, actor) on every movie node
    with an actor edge, so the golden set covers extended uses."""
    actors = {n.node_id for n in sketch.graph.nodes_with_tag("actor")}
    for movie in sketch.graph.nodes_with_tag("movie"):
        scope = tuple(
            EdgeRef(movie.node_id, edge.target)
            for edge in sketch.graph.children_of(movie.node_id)
            if edge.target in actors
        )
        if scope:
            sketch.extended_stats[movie.node_id] = [
                sketch.make_extended_summary(movie.node_id, "type", scope[:1], 6, 8)
            ]


def _case(name: str):
    """(built sketch, loaded sketch, twig list) of one dataset."""
    make, extra, config, value_probability = DATASETS[name]
    tree = make()
    budget = TwigXSketch.coarsest(tree, config).size_bytes() + extra
    built = XBuild(
        tree,
        budget,
        config,
        seed=55,
        sample_value_probability=value_probability,
    ).run().sketch
    queries = [
        entry.query
        for spec in SPECS
        for entry in WorkloadGenerator(tree, spec).positive_workload(30).queries
    ]
    queries += [parse_for_clause(text) for text in EXTRA_TWIGS.get(name, ())]
    if name.startswith("imdb"):
        _install_extended(built)
    loaded = sketch_from_dict(sketch_to_dict(built), strict=True)
    return built, loaded, queries


@pytest.fixture(scope="module", params=sorted(DATASETS))
def case(request):
    return request.param, _case(request.param)


def _hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


def _record() -> dict:
    golden = {}
    for name in sorted(DATASETS):
        built, loaded, queries = _case(name)
        for kind, sketch in (("built", built), ("loaded", loaded)):
            estimator = TwigEstimator(sketch)
            golden[f"{name}/{kind}"] = _hexes(estimator.estimate(q) for q in queries)
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", ["built", "loaded"])
def test_estimate_is_pinned(case, kind, golden):
    name, (built, loaded, queries) = case
    sketch = built if kind == "built" else loaded
    estimator = TwigEstimator(sketch)
    assert _hexes(estimator.estimate(q) for q in queries) == golden[f"{name}/{kind}"]


@pytest.mark.parametrize("kind", ["built", "loaded"])
def test_estimate_many_is_pinned(case, kind, golden):
    name, (built, loaded, queries) = case
    sketch = built if kind == "built" else loaded
    pinned = golden[f"{name}/{kind}"]
    repeated = queries + queries[::3]
    expected = pinned + pinned[::3]
    estimator = TwigEstimator(sketch)
    assert _hexes(estimator.estimate_many(repeated)) == expected
    shared = BatchContext()
    assert _hexes(estimator.estimate_many(repeated, context=shared)) == expected
    # a context carried into a second call serves every plan from cache
    assert _hexes(estimator.estimate_many(queries, context=shared)) == pinned


def test_golden_cases_reach_every_plan_part(case):
    """The sets exercise what the estimator plans: conditioning on
    backward counts, multi-dimensional histograms, and (IMDB) extended
    value histograms."""
    name, (built, _, _) = case
    histograms = [
        (node_id, h) for node_id, hs in built.edge_stats.items() for h in hs
    ]
    assert any(r.source != node_id for node_id, h in histograms for r in h.scope)
    assert any(h.dimensions > 1 for _, h in histograms)
    if name.startswith("imdb"):
        assert built.extended_stats


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_estimation_golden.py --record")
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
