"""Differential test: the estimator is exact where the paper says it is.

The reference sketch of :func:`repro.build.oracles.build_reference_sketch`
refines the label-split synopsis until every edge is Backward-stable, so
each synopsis node holds the elements of one root-to-node label path, and
stores one exact joint histogram over all of a node's child edges.  On
such a synopsis a root-to-node label path query has exactly one embedding,
its chain edges are B-stable and their counts exact, so the estimate must
equal the true count (up to float rounding).
"""

import pytest

from repro.build.oracles import build_reference_sketch
from repro.datasets import generate_imdb, generate_xmark
from repro.estimation import TwigEstimator
from repro.query import Path, Step, TwigNode, TwigQuery, count_bindings

DOCUMENTS = {
    "imdb-1500": lambda: generate_imdb(1500, seed=1),
    "xmark-1500": lambda: generate_xmark(1500, seed=1),
}


def label_paths(tree) -> list[tuple[str, ...]]:
    """Every distinct root-to-node tag sequence of the document, in
    first-seen pre-order."""
    seen: dict[tuple[str, ...], None] = {}
    stack = [(tree.root, (tree.root.tag,))]
    while stack:
        node, labels = stack.pop()
        seen.setdefault(labels)
        stack.extend(
            (child, labels + (child.tag,)) for child in reversed(node.children)
        )
    return list(seen)


def path_query(labels: tuple[str, ...]) -> TwigQuery:
    return TwigQuery(TwigNode("t0", Path(tuple(Step(tag) for tag in labels))))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_label_paths_are_estimated_exactly(name):
    tree = DOCUMENTS[name]()
    estimator = TwigEstimator(build_reference_sketch(tree))
    paths = label_paths(tree)
    assert len(paths) > 20
    mismatches = []
    for labels in paths:
        query = path_query(labels)
        truth = count_bindings(query, tree)
        estimate = estimator.estimate(query)
        assert truth > 0
        if abs(estimate - truth) > 1e-9 * truth:
            mismatches.append(("/".join(labels), estimate, truth))
    assert mismatches == []
