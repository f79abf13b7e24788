"""Differential properties: the arena paths against object-tree walks.

Construction and exact evaluation read the document's columnar arena
(:mod:`repro.doc.arena`).  These properties check them, on small generated
documents with recursive tags (nested same-tag ``//`` chains), values and
branches, against plain walks over :class:`~repro.doc.node.DocumentNode`
objects kept here, or in :func:`repro.query.enumerate_bindings`, as the
reference:

* ``count_bindings`` equals the number of tuples ``enumerate_bindings``
  materializes;
* after random ``split_node`` calls the incrementally recounted edges
  equal a from-scratch recount and ``validate()`` passes;
* ``exact_edge_distribution`` and ``ValueSplit.part`` select what the
  object walks select.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build.refinements import ValueSplit
from repro.doc import DocumentNode, DocumentTree, build_tree
from repro.histogram.sparse import SparseDistribution
from repro.query import count_bindings, enumerate_bindings, parse_for_clause
from repro.query.ast import CHILD, DESCENDANT, Path, Step, TwigNode, TwigQuery
from repro.query.values import ValuePredicate
from repro.synopsis import label_split_synopsis
from repro.synopsis.distributions import EdgeRef, exact_edge_distribution

#: two tags, so tags recur at every depth and most twigs have bindings
TAGS = ("a", "b")
VALUES = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["x", "y"]))
PREDICATES = st.builds(
    ValuePredicate,
    st.sampled_from(["=", "!=", "<", ">="]),
    st.one_of(st.integers(0, 3), st.sampled_from(["x", "y"])),
)


@st.composite
def documents(draw, max_nodes):
    """A random tree of 3 to ``max_nodes`` elements: each element after the
    first hangs under an earlier one."""
    size = draw(st.integers(3, max_nodes))
    nodes = [
        DocumentNode(draw(st.sampled_from(TAGS)), draw(VALUES)) for _ in range(size)
    ]
    for index in range(1, size):
        nodes[draw(st.integers(0, index - 1))].add_child(nodes[index])
    return DocumentTree(nodes[0])


@st.composite
def paths(draw, branch_depth=1):
    steps = []
    for _ in range(draw(st.integers(1, 2))):
        branches = ()
        if branch_depth and draw(st.booleans()):
            branches = (draw(paths(branch_depth - 1)),)
        steps.append(
            Step(
                draw(st.sampled_from(TAGS)),
                draw(st.sampled_from((CHILD, DESCENDANT))),
                draw(PREDICATES) if draw(st.integers(0, 3)) == 0 else None,
                branches,
            )
        )
    return Path(tuple(steps))


@st.composite
def twigs(draw):
    """Twigs of up to five nodes: two children under the root, one below
    each."""
    names = (f"t{i}" for i in itertools.count())
    root = TwigNode(next(names), draw(paths()))
    for _ in range(draw(st.integers(0, 2))):
        child = root.add_child(TwigNode(next(names), draw(paths())))
        if draw(st.booleans()):
            child.add_child(TwigNode(next(names), draw(paths())))
    return TwigQuery(root)


@st.composite
def chain_twigs(draw):
    """Two-node twigs whose second path chains two or three steps, mostly
    ``//``: from one binding an element is then often reached through
    several intermediates, and must be counted once."""
    axes = st.sampled_from((DESCENDANT, DESCENDANT, CHILD))
    steps = tuple(
        Step(draw(st.sampled_from(TAGS)), draw(axes))
        for _ in range(draw(st.integers(2, 3)))
    )
    root = TwigNode("t0", Path((Step(draw(st.sampled_from(TAGS))),)))
    root.add_child(TwigNode("t1", Path(steps)))
    return TwigQuery(root)


def split_randomly(synopsis, rng, splits):
    """Apply up to ``splits`` random proper splits."""
    for _ in range(splits):
        splittable = [node for node in synopsis.iter_nodes() if node.count > 1]
        if not splittable:
            return
        node = rng.choice(splittable)
        members = node.members.tolist()
        part = set(rng.sample(members, rng.randint(1, len(members) - 1)))
        synopsis.split_node(node.node_id, part)


# ----------------------------------------------------------------------
# object-tree references
# ----------------------------------------------------------------------
def recounted_edges(synopsis):
    """Edge key -> (child, parent, source, target counts) from a walk."""
    counts, parents = {}, {}
    for parent, child in synopsis.tree.iter_edges():
        key = (synopsis.node_of(parent), synopsis.node_of(child))
        counts[key] = counts.get(key, 0) + 1
        parents.setdefault(key, set()).add(parent.node_id)
    return {
        key: (
            counts[key],
            len(parents[key]),
            synopsis.node(key[0]).count,
            synopsis.node(key[1]).count,
        )
        for key in counts
    }


def walked_distribution(synopsis, node_id, scope):
    """The exact edge distribution, walking children and ancestors."""
    observations = []
    for element in synopsis.node(node_id).extent:
        values = []
        for ref in scope:
            anchor = element
            if not ref.is_forward_at(node_id):
                anchor = next(
                    (
                        ancestor
                        for ancestor in element.iter_ancestors()
                        if synopsis.node_of(ancestor) == ref.source
                    ),
                    None,
                )
            values.append(
                0
                if anchor is None
                else sum(
                    1
                    for child in anchor.children
                    if synopsis.node_of(child) == ref.target
                )
            )
        observations.append(tuple(values))
    return SparseDistribution.from_observations(observations)


def walked_part(synopsis, split):
    """The element ids a value split selects, testing each element."""
    selected = set()
    for element in synopsis.node(split.node_id).extent:
        if split.child_tag is None:
            hit = split.predicate.matches(element.value)
        else:
            hit = any(
                child.tag == split.child_tag and split.predicate.matches(child.value)
                for child in element.children
            )
        if hit:
            selected.add(element.node_id)
    return selected


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(documents(max_nodes=10), twigs() | chain_twigs())
def test_count_bindings_equals_enumerated_tuples(tree, query):
    assert count_bindings(query, tree) == len(enumerate_bindings(query, tree))


@settings(max_examples=150, deadline=None)
@given(documents(max_nodes=30), st.randoms(use_true_random=False))
def test_incremental_edges_equal_a_recount(tree, rng):
    synopsis = label_split_synopsis(tree)
    for _ in range(rng.randint(1, 6)):
        split_randomly(synopsis, rng, 1)
        synopsis.validate()
        assert {
            key: (e.child_count, e.parent_count, e.source_size, e.target_size)
            for key, e in synopsis.edges.items()
        } == recounted_edges(synopsis)


@settings(max_examples=150, deadline=None)
@given(documents(max_nodes=30), st.randoms(use_true_random=False))
def test_edge_distributions_equal_the_object_walk(tree, rng):
    synopsis = label_split_synopsis(tree)
    split_randomly(synopsis, rng, rng.randint(0, 4))
    refs = [EdgeRef(edge.source, edge.target) for edge in synopsis.edges.values()]
    for node in synopsis.iter_nodes():
        scopes = [(ref,) for ref in refs]
        scopes.append(tuple(rng.sample(refs, min(3, len(refs)))))
        for scope in scopes:
            if not scope:
                continue
            arena = exact_edge_distribution(synopsis, node.node_id, scope)
            walked = walked_distribution(synopsis, node.node_id, scope)
            assert arena.points() == walked.points()


@settings(max_examples=150, deadline=None)
@given(
    documents(max_nodes=30),
    st.sampled_from((None,) + TAGS),
    PREDICATES,
    st.randoms(use_true_random=False),
)
def test_value_split_part_equals_the_object_walk(tree, child_tag, predicate, rng):
    synopsis = label_split_synopsis(tree)
    split_randomly(synopsis, rng, rng.randint(0, 3))
    for node in synopsis.iter_nodes():
        split = ValueSplit(node.node_id, predicate, child_tag)
        assert set(split.part(synopsis).tolist()) == walked_part(synopsis, split)


def test_counts_beyond_int64_stay_exact():
    # ten sibling variables over a hundred children: 100**10 > 2**63
    tree = build_tree(("a", ["b"] * 100))
    clauses = ", ".join(f"t{i} in t0/b" for i in range(1, 11))
    query = parse_for_clause(f"for t0 in a, {clauses}")
    assert count_bindings(query, tree) == 100**10
