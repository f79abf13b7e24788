"""The compiled form of a Twig XSKETCH: the static facts estimation reads.

Estimating a twig consults the same facts of a synopsis over and over:
which nodes carry a tag and which children of a node do, the Forward
Uniformity average of an edge, the chance that an element has a child
along it (1 on an F-stable edge), and the points and marginals of each
stored histogram.  None of them depends on the query, so :class:`CompiledSketch`
derives each once:

* the graph's :class:`~repro.synopsis.graph.GraphIndex` (tag -> node ids,
  (node, tag) -> child ids, node -> outgoing edges, in ``edges`` order);
* per synopsis node, a :class:`NodeTable`: extent size and label, the
  value and extended value summaries, each edge histogram as a
  :class:`HistogramTable` (points read once, dimensions split into forward
  and backward counts, marginals cached per kept-dimension set), and
  :class:`EdgeFacts` per outgoing edge.

:meth:`TwigXSketch.compiled <repro.synopsis.summary.TwigXSketch.compiled>`
builds the form lazily, a node table on its first use, and every mutation
through the sketch drops it.  :func:`~repro.synopsis.persist.sketch_from_dict`
compiles every node eagerly, so threads serving a loaded sketch share one
form.  The lazy fills that remain (marginals and layouts) are pure
functions of the unchanged sketch: two threads racing to fill one store
equal values.
"""

from __future__ import annotations

import math
import weakref
from typing import Optional

from ..histogram import ops

#: why :func:`safe_ratio` clamped a ratio to 0.0
CLAMP_ZERO_DENOMINATOR = "zero_denominator"
CLAMP_NON_FINITE = "non_finite"


def safe_ratio(numerator: float, denominator: float) -> tuple[float, Optional[str]]:
    """``numerator / denominator`` with the degenerate cases pinned to 0.0.

    Returns the ratio and None, or 0.0 and the reason for the clamp: a zero
    denominator (a synopsis node with an empty extent contributes no
    matches) or a non-finite ratio (NaN/inf from corrupted counts).  The
    estimate stays finite, and the caller counts the clamp.
    """
    if denominator == 0:
        return 0.0, CLAMP_ZERO_DENOMINATOR
    try:
        ratio = numerator / denominator
    except (ZeroDivisionError, OverflowError):
        return 0.0, CLAMP_NON_FINITE
    if not math.isfinite(ratio):
        return 0.0, CLAMP_NON_FINITE
    return ratio, None


class EdgeFacts:
    """What estimation needs of one synopsis edge ``n_i -> n_j``.

    Attributes:
        average: ``|n_i -> n_j| / |n_i|``, the Forward Uniformity count
            (through :func:`safe_ratio`).
        clamp: the reason ``average`` was clamped to 0.0, or None.
        positive: P(an element of ``n_i`` has >= 1 child in ``n_j``): 1 on
            an F-stable edge, the mass of positive counts in the first
            histogram of ``n_i`` covering the edge, else ``min(1, average)``.
    """

    __slots__ = ("average", "clamp", "positive")

    def __init__(self, average: float, clamp: Optional[str], positive: float):
        self.average = average
        self.clamp = clamp
        self.positive = positive


class Layout:
    """The marginal a histogram use reads when nothing conditions it.

    Attributes:
        kept: the sorted dimensions kept (expanding and branch dimensions).
        points: the histogram's points projected onto ``kept``.
        remap: dimension -> position in the projected vectors.
        expansion_refs: ``(dim, ref)`` per expanding dimension, in scope
            order: the context entries the use hands to its children.
    """

    __slots__ = ("kept", "points", "remap", "expansion_refs")

    def __init__(self, table: "HistogramTable", expanding: tuple, branching: tuple):
        self.kept = tuple(sorted(expanding + branching))
        self.points = table.marginal(self.kept)
        self.remap = {dim: position for position, dim in enumerate(self.kept)}
        scope = table.histogram.scope
        self.expansion_refs = tuple((dim, scope[dim]) for dim in expanding)


class HistogramTable:
    """One stored edge histogram of a node, read once.

    Attributes:
        histogram: the :class:`~repro.synopsis.summary.EdgeHistogram`.
        points: its (count vector, mass) points.
        forward: ``(dim, ref)`` per forward count at the node.
        backward: ``(dim, ref)`` per backward count, the candidates for
            TREEPARSE's conditioning set ``D_i``.
    """

    __slots__ = ("histogram", "points", "forward", "backward", "_marginals", "_layouts")

    def __init__(self, histogram, node_id: int):
        self.histogram = histogram
        self.points = histogram.points()
        forward, backward = [], []
        for dim, ref in enumerate(histogram.scope):
            (forward if ref.source == node_id else backward).append((dim, ref))
        self.forward = tuple(forward)
        self.backward = tuple(backward)
        self._marginals: dict[tuple[int, ...], list] = {}
        self._layouts: dict[tuple, Layout] = {}

    def layout(self, expanding: tuple[int, ...], branching: tuple[int, ...]) -> Layout:
        """The :class:`Layout` of a use expanding the dimensions
        ``expanding`` and absorbing branches on ``branching``."""
        key = (expanding, branching)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = Layout(self, expanding, branching)
        return layout

    def marginal(self, kept: tuple[int, ...]) -> list:
        """The points projected onto the sorted dimensions ``kept`` (the
        stored points themselves when every dimension is kept)."""
        points = self._marginals.get(kept)
        if points is None:
            if len(kept) < self.histogram.dimensions:
                points = ops.marginalize(self.points, kept)
            else:
                points = self.points
            self._marginals[kept] = points
        return points


class NodeTable:
    """The statistics of one synopsis node, as estimation reads them.

    Attributes:
        node_id, tag, count: the node's identity and extent size.
        label: ``tag#id``, as explanations print it.
        histograms: a :class:`HistogramTable` per stored edge histogram.
        extended: the node's extended value summaries.
        value: the node's value summary, or None.
        edges: child node id -> :class:`EdgeFacts` per outgoing edge.
        covering: child node id -> ``(position in histograms, dim)`` of
            each forward count toward it, in histogram and scope order.
    """

    __slots__ = (
        "node_id", "tag", "count", "label", "histograms", "extended", "value",
        "edges", "covering",
    )

    def __init__(self, sketch, node_id: int):
        node = sketch.graph.node(node_id)
        self.node_id = node_id
        self.tag = node.tag
        self.count = node.count
        self.label = f"{node.tag}#{node_id}"
        self.histograms = tuple(
            HistogramTable(histogram, node_id)
            for histogram in sketch.histograms_at(node_id)
        )
        self.extended = tuple(sketch.extended_at(node_id))
        self.value = sketch.value_summary(node_id)
        self.covering: dict[int, list[tuple[int, int]]] = {}
        for index, table in enumerate(self.histograms):
            for dim, ref in table.forward:
                self.covering.setdefault(ref.target, []).append((index, dim))
        self.edges = {
            edge.target: self._facts(sketch, edge)
            for edge in sketch.graph.index().out.get(node_id, ())
        }

    def _facts(self, sketch, edge) -> EdgeFacts:
        average, clamp = safe_ratio(
            sketch.edge_child_count(self.node_id, edge.target), self.count
        )
        if edge.forward_stable:
            positive = 1.0
        elif edge.target in self.covering:
            index, dim = self.covering[edge.target][0]
            positive = ops.mass_where_positive(self.histograms[index].points, dim)
        else:
            positive = min(1.0, average)
        return EdgeFacts(average, clamp, positive)

    def average(self, child_id: int) -> tuple[float, Optional[str]]:
        """(Forward Uniformity average, clamp reason) toward ``child_id``;
        a node with no edge to it has no such children."""
        facts = self.edges.get(child_id)
        if facts is None:
            return safe_ratio(0.0, self.count)
        return facts.average, facts.clamp


class CompiledSketch:
    """The compiled form of one :class:`~repro.synopsis.summary.TwigXSketch`.

    Get it from ``sketch.compiled()``; node tables are built on first use
    (:meth:`node`), or all at once by :meth:`compile_all`.  The form keeps
    only a weak reference to its sketch, so a sketch and its compiled form
    never make a reference cycle.
    """

    __slots__ = ("index", "_sketch", "_nodes")

    def __init__(self, sketch):
        self.index = sketch.graph.index()
        self._sketch = weakref.ref(sketch)
        self._nodes: dict[int, NodeTable] = {}

    def node(self, node_id: int) -> NodeTable:
        """The table of synopsis node ``node_id``."""
        table = self._nodes.get(node_id)
        if table is None:
            table = self._nodes[node_id] = NodeTable(self._sketch(), node_id)
        return table

    def compile_all(self) -> "CompiledSketch":
        """Build every node's table now; returns self."""
        for node_id in self.index.tags:
            self.node(node_id)
        return self
