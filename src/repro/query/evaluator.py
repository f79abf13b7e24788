"""Exact evaluation of twig queries over document trees.

This is the ground-truth oracle of the reproduction: it computes the
paper's selectivity ``s(T_Q)`` — the number of binding tuples — exactly
(Example 2.1).  The evaluator also materializes the tuples themselves for
small results, which the tests use to check the example tables.

Semantics (Section 2 of the paper):

* a binding tuple assigns one document element to every twig node;
* a twig node's element must be in the result of the node's path evaluated
  from the parent node's element (the root path is evaluated from the
  document root);
* intermediate elements of multi-step paths, branch matches, and value
  tests do not contribute variables — they only restrict the result sets.

Because documents are trees, each element is reached by a path through a
unique chain of intermediates, so result *sets* suffice (no bag semantics
needed) and the binding count factorizes over twig subtrees::

    count(t, e) = sum over e' in eval_path(P_t, e) of
                  product over children c of t of count(c, e')

which :func:`count_bindings` computes without ever materializing tuples,
as structural joins over the document's columnar arena
(:mod:`repro.doc.arena`): a descendant step from element ``i`` is a
``searchsorted`` slice of the step tag's sorted id array inside ``i``'s
subtree interval ``[i + 1, end[i])``, a child step looks the parents of
the tag's elements up among the sources, and the factorized counts
aggregate bottom-up per context element.

:func:`eval_path`, :func:`path_exists` and :func:`enumerate_bindings`
walk :class:`~repro.doc.node.DocumentNode` objects: they return elements
and tuples for tests and examples, and ``enumerate_bindings`` is the
brute-force reference ``count_bindings`` is checked against.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..doc.arena import ID, DocumentArena, distinct, spans
from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from .ast import DESCENDANT, Path, Step, TwigNode, TwigQuery


class _VirtualRoot:
    """A super-root above the document root.

    The root twig node's path is absolute: ``bib`` must match the document
    root element itself (XPath ``/bib``), and ``//keyword`` must match
    keywords anywhere, including the root.  Evaluating from this shim
    instead of from the root element gives both behaviours.
    """

    __slots__ = ("children",)

    def __init__(self, root: DocumentNode):
        self.children = [root]

    def iter_descendants(self) -> Iterator[DocumentNode]:
        return self.children[0].iter_subtree()


def virtual_root(tree: DocumentTree) -> _VirtualRoot:
    """Evaluation context for absolute (root twig node) paths."""
    return _VirtualRoot(tree.root)


def absolute_path(path: Path) -> Path:
    """Rewrite a root twig node's path for evaluation from the virtual root.

    The paper writes ``for t0 in A`` to mean *all* elements with tag A (the
    extent of synopsis node A), so the first step of an absolute path uses
    descendant-or-self semantics: its axis becomes :data:`DESCENDANT`.
    """
    first = path.steps[0]
    if first.axis == DESCENDANT:
        return path
    rewritten = Step(first.tag, DESCENDANT, first.value_pred, first.branches)
    return Path((rewritten,) + path.steps[1:])


def _step_candidates(context: DocumentNode, step: Step) -> Iterator[DocumentNode]:
    """Elements reachable from ``context`` via the step's axis and tag."""
    if step.axis == DESCENDANT:
        for node in context.iter_descendants():
            if node.tag == step.tag:
                yield node
    else:
        for child in context.children:
            if child.tag == step.tag:
                yield child


def _step_matches(node: DocumentNode, step: Step) -> bool:
    """Apply the step's value predicate and branching predicates."""
    if step.value_pred is not None and not step.value_pred.matches(node.value):
        return False
    for branch in step.branches:
        if not path_exists(branch, node):
            return False
    return True


def eval_path(path: Path, context: DocumentNode) -> list[DocumentNode]:
    """All elements in the result of ``path`` evaluated from ``context``.

    The result is duplicate-free and in document order.
    """
    frontier = [context]
    for step in path.steps:
        seen: dict[int, DocumentNode] = {}
        for element in frontier:
            for candidate in _step_candidates(element, step):
                if id(candidate) in seen:
                    continue
                if _step_matches(candidate, step):
                    seen[id(candidate)] = candidate
        frontier = sorted(seen.values(), key=lambda n: n.node_id)
    return frontier


def path_exists(path: Path, context: DocumentNode) -> bool:
    """True when ``path`` has at least one match from ``context``.

    Short-circuits; used for branching predicates where only existence
    matters.
    """
    frontier: list[DocumentNode] = [context]
    for index, step in enumerate(path.steps):
        is_last = index == len(path.steps) - 1
        next_frontier: list[DocumentNode] = []
        seen: set[int] = set()
        for element in frontier:
            for candidate in _step_candidates(element, step):
                if id(candidate) in seen:
                    continue
                seen.add(id(candidate))
                if _step_matches(candidate, step):
                    if is_last:
                        return True
                    next_frontier.append(candidate)
        frontier = next_frontier
        if not frontier:
            return False
    return bool(frontier)


#: int64 products and sums stay below this; beyond it counts are exact
#: Python ints (object arrays)
_INT64_SAFE = 2**62

#: float64 sums of integers are exact below this
_FLOAT_EXACT = 2**53


def _step_pairs(
    arena: DocumentArena, sources: np.ndarray, step: Step
) -> tuple[np.ndarray, np.ndarray]:
    """Every element a step's axis and tag reach from each source.

    ``sources`` is sorted and duplicate-free.  Returns ``(position,
    target)`` pairs, ``position`` indexing ``sources``; predicates are not
    applied.
    """
    candidates = arena.with_tag(step.tag)
    if not len(sources) or not len(candidates):
        return np.empty(0, dtype=ID), np.empty(0, dtype=ID)
    if step.axis == DESCENDANT:
        low = np.searchsorted(candidates, sources + 1)
        high = np.searchsorted(candidates, arena.end[sources])
        position, slots = spans(low, high - low)
        return position, candidates[slots]
    parents = arena.parent[candidates]
    position = np.minimum(np.searchsorted(sources, parents), len(sources) - 1)
    keep = sources[position] == parents
    return position[keep], candidates[keep]


def _matching(arena: DocumentArena, elements: np.ndarray, step: Step) -> np.ndarray:
    """Mask of the (sorted, distinct) ``elements`` that satisfy the step's
    value predicate and branching predicates."""
    if step.value_pred is None:
        mask = np.ones(len(elements), dtype=bool)
    else:
        mask = arena.value_matches(step.value_pred, elements)
    for branch in step.branches:
        survivors = np.flatnonzero(mask)
        if not len(survivors):
            break
        mask[survivors] = _has_match(arena, elements[survivors], branch)
    return mask


def _step_targets(arena: DocumentArena, sources: np.ndarray, step: Step) -> np.ndarray:
    """The sorted, distinct elements one step reaches from ``sources``."""
    targets = distinct(_step_pairs(arena, sources, step)[1])
    return targets[_matching(arena, targets, step)]


def _has_match(arena: DocumentArena, contexts: np.ndarray, path: Path) -> np.ndarray:
    """Mask of the (sorted, distinct) ``contexts`` from which ``path`` has
    at least one match: frontiers forward, then a semi-join back."""
    frontiers = [contexts]
    for step in path.steps:
        frontiers.append(_step_targets(arena, frontiers[-1], step))
        if not len(frontiers[-1]):
            return np.zeros(len(contexts), dtype=bool)
    alive = frontiers[-1]
    for step, sources in zip(reversed(path.steps), reversed(frontiers[:-1])):
        if step.axis == DESCENDANT:
            low = np.searchsorted(alive, sources + 1)
            reaches = np.searchsorted(alive, arena.end[sources]) > low
        else:
            reaches = np.isin(sources, arena.parent[alive])
        alive = sources[reaches]
    return np.isin(contexts, alive)


def _path_pairs(
    arena: DocumentArena, contexts: np.ndarray, path: Path
) -> tuple[np.ndarray, np.ndarray]:
    """``(position, match)`` pairs: for each of the (sorted, distinct)
    ``contexts``, every element of the path's result from it, once."""
    owners = np.arange(len(contexts), dtype=ID)
    frontier = contexts
    for depth, step in enumerate(path.steps):
        sources = contexts if depth == 0 else distinct(frontier)
        position, targets = _step_pairs(arena, sources, step)
        reached = distinct(targets)
        keep = _matching(arena, reached, step)[np.searchsorted(reached, targets)]
        position, targets = position[keep], targets[keep]
        if depth == 0:
            owners, frontier = position, targets
            continue
        # join (owner, source) with (source, target), then drop repeats
        order = np.argsort(position, kind="stable")
        fanout = np.bincount(position, minlength=len(sources))
        starts = np.cumsum(fanout) - fanout
        at = np.searchsorted(sources, frontier)
        which, slots = spans(starts[at], fanout[at])
        pairs = distinct(owners[which] * arena.size + targets[order][slots])
        owners, frontier = pairs // arena.size, pairs % arena.size
    return owners, frontier


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise product, exact: Python ints once int64 could overflow."""
    if (
        left.dtype != object
        and right.dtype != object
        and int(left.max()) * int(right.max()) < _INT64_SAFE
    ):
        return left * right
    return left.astype(object) * right.astype(object)


def _sums(owners: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Per owner in ``range(size)``, the exact sum of its ``values``."""
    if values.dtype != object and (
        not len(values) or int(values.max()) * len(values) < _FLOAT_EXACT
    ):
        return np.bincount(owners, weights=values, minlength=size).astype(ID)
    totals = np.zeros(size, dtype=object)
    np.add.at(totals, owners, values.astype(object))
    return totals


def _weights(arena: DocumentArena, twig_children, elements: np.ndarray) -> np.ndarray:
    """Per element, the product over ``twig_children`` of their binding
    counts from it (1 for a leaf); zero weights skip later children."""
    weights = np.ones(len(elements), dtype=ID)
    for child in twig_children:
        live = np.flatnonzero(weights)
        if not len(live):
            break
        counts = _product(weights[live], _counts(arena, child, elements[live]))
        if counts.dtype == object:
            weights = weights.astype(object)
        weights[live] = counts
    return weights


def _counts(arena: DocumentArena, node: TwigNode, contexts: np.ndarray) -> np.ndarray:
    """Per context element, the bindings of ``node``'s subtree from it."""
    owners, matches = _path_pairs(arena, contexts, node.path)
    reached = distinct(matches)
    weights = _weights(arena, node.children, reached)
    return _sums(owners, weights[np.searchsorted(reached, matches)], len(contexts))


def count_bindings(query: TwigQuery, tree: DocumentTree) -> int:
    """Exact selectivity ``s(T_Q)``: the number of binding tuples."""
    arena = tree.arena
    path = absolute_path(query.root.path)
    first = path.steps[0]
    matches = arena.with_tag(first.tag)
    matches = matches[_matching(arena, matches, first)]
    for step in path.steps[1:]:
        matches = _step_targets(arena, matches, step)
    weights = _weights(arena, query.root.children, matches)
    return int(_sums(np.zeros(len(matches), dtype=ID), weights, 1)[0])


def enumerate_bindings(
    query: TwigQuery, tree: DocumentTree, limit: Optional[int] = None
) -> list[dict[str, DocumentNode]]:
    """Materialize binding tuples as ``{var: element}`` dicts.

    Intended for tests and examples; raises no error on large results but
    stops after ``limit`` tuples when given.  Tuples are produced in
    document order of the root binding, then recursively of each child.
    """
    def subtree_bindings(
        node: TwigNode, context: DocumentNode, path: Optional[Path] = None
    ) -> Iterator[dict[str, DocumentNode]]:
        for element in eval_path(path if path is not None else node.path, context):
            for child_binding in children_product(node.children, element):
                yield {node.var: element, **child_binding}

    def children_product(
        children: list[TwigNode], element: DocumentNode
    ) -> Iterator[dict[str, DocumentNode]]:
        if not children:
            yield {}
            return
        head, rest = children[0], children[1:]
        for head_binding in subtree_bindings(head, element):
            for rest_binding in children_product(rest, element):
                yield {**head_binding, **rest_binding}

    results: list[dict[str, DocumentNode]] = []
    for binding in subtree_bindings(
        query.root, virtual_root(tree), absolute_path(query.root.path)
    ):
        results.append(binding)
        if limit is not None and len(results) >= limit:
            break
    return results
