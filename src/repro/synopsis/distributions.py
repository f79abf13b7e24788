"""Exact edge distributions ``f_i(C_1, ..., C_k)`` (paper Section 3.2).

An edge distribution at synopsis node ``n_i`` is a fraction distribution
over the elements of ``n_i``; each dimension is an :class:`EdgeRef`:

* a **forward count** — an edge ``n_i → n_d``: the dimension value for
  element ``e`` is the number of ``e``'s children lying in ``n_d``;
* a **backward count** — an edge ``n_a → n_z`` where ``n_a`` is an
  ancestor node: the value is the number of children in ``n_z`` of ``e``'s
  nearest ancestor in ``n_a``.

This module computes the distribution exactly from the document, as
counts over the arena's columns (see :mod:`repro.doc.arena`); compression
to a histogram happens in :mod:`repro.synopsis.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SynopsisError
from ..histogram.sparse import SparseDistribution
from .graph import GraphSynopsis


@dataclass(frozen=True, order=True)
class EdgeRef:
    """Identity of a count dimension: the synopsis edge it counts.

    At node ``n``, a ref with ``source == n`` is a forward count; any other
    source is a backward count anchored at that ancestor node.
    """

    source: int
    target: int

    def is_forward_at(self, node_id: int) -> bool:
        """True when this ref is a forward count at ``node_id``."""
        return self.source == node_id


def exact_edge_distribution(
    synopsis: GraphSynopsis, node_id: int, scope: Sequence[EdgeRef]
) -> SparseDistribution:
    """The exact distribution of ``scope`` counts over node ``node_id``.

    Raises:
        SynopsisError: when ``scope`` is empty, names a missing edge, or a
            backward ref's anchor is unreachable for some element (the
            construction algorithm only proposes TSN edges, for which this
            cannot happen; a zero count is recorded when an anchor is
            missing for an element so that non-TSN scopes remain usable in
            tests).
    """
    if not scope:
        raise SynopsisError("edge-distribution scope must be non-empty")
    node = synopsis.node(node_id)
    for ref in scope:
        if synopsis.edge(ref.source, ref.target) is None:
            raise SynopsisError(
                f"scope references missing edge {ref.source}->{ref.target}"
            )

    members = node.members
    columns = []
    for ref in scope:
        if ref.is_forward_at(node_id):
            columns.append(synopsis.child_counts(members, ref.target).tolist())
            continue
        anchors = synopsis.nearest_ancestors(members, ref.source)
        counts = synopsis.child_counts(anchors, ref.target)
        columns.append(np.where(anchors >= 0, counts, 0).tolist())
    return SparseDistribution.from_observations(zip(*columns))


def mean_child_count(
    synopsis: GraphSynopsis, source: int, target: int
) -> float:
    """Average number of ``target`` children per ``source`` element.

    This is the Forward Uniformity value ``|n_i → n_j| / |n_i|``.
    """
    edge = synopsis.edge(source, target)
    if edge is None:
        return 0.0
    return edge.child_count / synopsis.node(source).count
