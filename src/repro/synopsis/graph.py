"""The generic graph-synopsis model (paper Section 3.1).

A :class:`GraphSynopsis` partitions the elements of a document tree into
*synopsis nodes* with a common tag; a synopsis edge ``u → v`` exists when
some document edge connects an element of ``u``'s extent to an element of
``v``'s extent.  Each edge stores two counts:

* ``child_count`` — the number of elements of ``v`` whose parent is in ``u``
  (the paper's ``|u → v|``); since documents are trees, each element has
  one parent and these counts partition ``|v|`` across incoming edges;
* ``parent_count`` — the number of elements of ``u`` with at least one child
  in ``v``.

Stability (Section 3.1) falls out of the counts:
``u → v`` is Backward-stable iff ``child_count == |v|`` and
Forward-stable iff ``parent_count == |u|``.

The synopsis keeps the element→node assignment, which construction
(splitting) and exact edge-distribution computation need; the assignment is
scaffolding and is *not* charged to the synopsis size budget (see
:mod:`repro.synopsis.size`).  It is an int array over the document's
:class:`~repro.doc.arena.DocumentArena`, and each node's extent is a sorted
array of element ids, so recounting edges, selecting split parts and
counting children are array operations over the arena's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from ..doc.arena import ID, distinct, first_occurrences
from ..doc.node import DocumentNode
from ..doc.tree import DocumentTree
from ..errors import SynopsisError


@dataclass(frozen=True, eq=False)
class SynopsisNode:
    """One node of the synopsis: a set of same-tag document elements.

    ``members`` holds the elements' ids, ascending (document order); it is
    never changed in place, so copies of a synopsis share their nodes.
    """

    node_id: int
    tag: str
    members: np.ndarray
    tree: DocumentTree = field(repr=False)

    def __post_init__(self):
        self.members.flags.writeable = False

    @property
    def count(self) -> int:
        """Extent size — the paper's ``|u|``."""
        return len(self.members)

    @property
    def extent(self) -> list[DocumentNode]:
        """The member elements as document nodes, in document order."""
        nodes = self.tree.nodes()
        return [nodes[element] for element in self.members.tolist()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SynopsisNode #{self.node_id} {self.tag} |{self.count}|>"


@dataclass
class SynopsisEdge:
    """One synopsis edge with its counts and derived stabilities."""

    source: int
    target: int
    child_count: int
    parent_count: int
    source_size: int
    target_size: int

    @property
    def backward_stable(self) -> bool:
        """All elements of the target have a parent in the source."""
        return self.child_count == self.target_size

    @property
    def forward_stable(self) -> bool:
        """All elements of the source have a child in the target."""
        return self.parent_count == self.source_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("B" if self.backward_stable else "") + (
            "F" if self.forward_stable else ""
        )
        return f"<Edge {self.source}->{self.target} {flags or '-'}>"


class GraphIndex:
    """Adjacency of a synopsis graph, built in one pass over its nodes and
    edges; every list keeps node insertion order or ``edges`` order.

    Attributes:
        tags: node id -> tag.
        by_tag: tag -> ids of the nodes carrying it.
        out: node id -> outgoing edges.
        into: node id -> incoming edges.
        tagged: (node id, tag) -> ids of the node's children carrying tag.
    """

    __slots__ = ("tags", "by_tag", "out", "into", "tagged")

    def __init__(self, nodes: Iterable, edges: Iterable[SynopsisEdge]):
        self.tags: dict[int, str] = {}
        self.by_tag: dict[str, list[int]] = {}
        for node in nodes:
            self.tags[node.node_id] = node.tag
            self.by_tag.setdefault(node.tag, []).append(node.node_id)
        self.out: dict[int, list[SynopsisEdge]] = {}
        self.into: dict[int, list[SynopsisEdge]] = {}
        self.tagged: dict[tuple[int, str], list[int]] = {}
        for edge in edges:
            self.out.setdefault(edge.source, []).append(edge)
            self.into.setdefault(edge.target, []).append(edge)
            self.tagged.setdefault(
                (edge.source, self.tags[edge.target]), []
            ).append(edge.target)


class IndexedGraph:
    """The read API shared by the built (:class:`GraphSynopsis`) and the
    loaded (:class:`~repro.synopsis.persist.FrozenGraph`) graph.

    Subclasses hold ``nodes`` (id -> node) and ``edges`` ((source, target)
    -> edge) and set ``_index`` to None whenever either changes; adjacency
    lookups go through the :class:`GraphIndex`, rebuilt on first use.
    """

    nodes: dict
    edges: dict[tuple[int, int], SynopsisEdge]
    _index: Optional[GraphIndex]

    def index(self) -> GraphIndex:
        """The graph's adjacency index."""
        index = self._index
        if index is None:
            index = self._index = GraphIndex(self.nodes.values(), self.edges.values())
        return index

    def node(self, node_id: int):
        """The synopsis node with the given id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise SynopsisError(f"no synopsis node #{node_id}") from None

    def edge(self, source: int, target: int) -> Optional[SynopsisEdge]:
        """The edge source→target, or None when absent."""
        return self.edges.get((source, target))

    def children_of(self, node_id: int) -> list[SynopsisEdge]:
        """Outgoing edges of a synopsis node."""
        return list(self.index().out.get(node_id, ()))

    def parents_of(self, node_id: int) -> list[SynopsisEdge]:
        """Incoming edges of a synopsis node."""
        return list(self.index().into.get(node_id, ()))

    def nodes_with_tag(self, tag: str) -> list:
        """All synopsis nodes whose elements carry ``tag``."""
        return [self.nodes[node_id] for node_id in self.index().by_tag.get(tag, ())]

    def iter_nodes(self) -> Iterator:
        """All synopsis nodes (insertion order)."""
        return iter(self.nodes.values())

    @property
    def node_count(self) -> int:
        """Number of synopsis nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of synopsis edges."""
        return len(self.edges)


class GraphSynopsis(IndexedGraph):
    """A partition of a document's elements plus the induced edge graph.

    Build one with :func:`label_split_synopsis` (the coarsest summary) or
    :meth:`from_partition`; refine it with :meth:`split_node`.
    """

    def __init__(self, tree: DocumentTree):
        self.tree = tree
        self.arena = tree.arena
        self.nodes: dict[int, SynopsisNode] = {}
        self.edges: dict[tuple[int, int], SynopsisEdge] = {}
        #: assignment[element id] -> synopsis node id
        self.assignment = np.full(tree.element_count, -1, dtype=ID)
        self._next_id = 0
        self._index: Optional[GraphIndex] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partition(
        cls, tree: DocumentTree, groups: Iterable[list[DocumentNode]]
    ) -> "GraphSynopsis":
        """Create a synopsis from an explicit partition of the elements.

        Raises:
            SynopsisError: if a group mixes tags, or the groups do not
                exactly cover the document's elements.
        """
        return cls._from_members(
            tree,
            (
                np.array([element.node_id for element in group], dtype=ID)
                for group in groups
            ),
        )

    @classmethod
    def _from_members(
        cls, tree: DocumentTree, groups: Iterable[np.ndarray]
    ) -> "GraphSynopsis":
        synopsis = cls(tree)
        for members in groups:
            synopsis._add_node(members)
        uncovered = np.flatnonzero(synopsis.assignment < 0)
        if len(uncovered):
            raise SynopsisError(
                f"partition misses {len(uncovered)} elements "
                f"(first: id {uncovered[0]})"
            )
        synopsis._recount_edges()
        return synopsis

    def _add_node(self, members: np.ndarray) -> SynopsisNode:
        if not len(members):
            raise SynopsisError("synopsis node needs a non-empty extent")
        tag_ids = distinct(self.arena.tag[members])
        if len(tag_ids) != 1:
            tags = sorted(self.arena.tags[tag_id] for tag_id in tag_ids.tolist())
            raise SynopsisError(f"extent mixes tags: {tags}")
        ordered = np.sort(members)
        clashes = np.concatenate(
            [
                ordered[1:][ordered[1:] == ordered[:-1]],
                ordered[self.assignment[ordered] >= 0],
            ]
        )
        if len(clashes):
            raise SynopsisError(
                f"element {clashes.min()} assigned to two synopsis nodes"
            )
        node = SynopsisNode(
            self._next_id, self.arena.tags[tag_ids[0]], ordered, self.tree
        )
        self._next_id += 1
        self.nodes[node.node_id] = node
        self._index = None
        self.assignment[ordered] = node.node_id
        return node

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def _recount_edges(self, node_ids: Optional[set[int]] = None) -> None:
        """Recount the edges incident to ``node_ids``; all when None.

        ``persist`` writes edges in dict order, so re-inserted edges follow
        the order in which a walk first meets their keys.  The full recount
        walks the document edges in :meth:`DocumentTree.iter_edges` order;
        the partial one walks ``node_ids`` in set iteration order, and for
        each member its child edges, then its parent edge.
        """
        self._index = None
        arena = self.arena
        if node_ids is None:
            self.edges = {}
            # a document edge is identified by its child element
            children = arena.child_ids
        else:
            for key in [
                k for k in self.edges if k[0] in node_ids or k[1] in node_ids
            ]:
                del self.edges[key]
            elements = np.concatenate(
                [self.nodes[node_id].members for node_id in node_ids]
            )
            owner, below = arena.children(elements)
            above = arena.parent[elements]
            order = np.arange(len(elements), dtype=ID)
            # the walk: per element k a block of its children, then k itself
            # as the child of its parent edge
            child_slots = np.arange(len(below), dtype=ID) + owner
            self_slots = np.cumsum(np.bincount(owner, minlength=len(elements))) + order
            walk = np.empty(len(below) + len(elements), dtype=ID)
            walk[child_slots] = below
            walk[self_slots] = elements
            # an edge between two walked elements is met twice: keep the
            # visit in the earlier block (block -1: not walked)
            block = np.full(arena.size, -1, dtype=ID)
            block[elements] = order
            met = np.empty(len(walk), dtype=bool)
            met[child_slots] = (block[below] < 0) | (block[below] > owner)
            above_block = np.where(above >= 0, block[above], order)
            met[self_slots] = (above >= 0) & (
                (above_block < 0) | (above_block > order)
            )
            children = walk[met]
        parents = arena.parent[children]
        stride = self._next_id
        keys = self.assignment[parents] * stride + self.assignment[children]
        # group the edges by key; a stable sort keeps each key's first visit
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        heads = np.ones(len(ranked), dtype=bool)
        heads[1:] = ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(heads)
        child_counts = np.diff(np.append(starts, len(ranked))).tolist()
        group = np.cumsum(heads) - 1
        pairs = distinct(group * arena.size + parents[order])
        parent_counts = np.bincount(
            pairs // arena.size, minlength=len(starts)
        ).tolist()
        unique_keys = ranked[starts].tolist()
        first_key = order[starts]
        for index in np.argsort(first_key).tolist():
            source, target = divmod(unique_keys[index], stride)
            self.edges[(source, target)] = SynopsisEdge(
                source,
                target,
                child_counts[index],
                parent_counts[index],
                self.nodes[source].count,
                self.nodes[target].count,
            )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node_of(self, element: DocumentNode) -> int:
        """The synopsis node id containing ``element``."""
        return int(self.assignment[element.node_id])

    # ------------------------------------------------------------------
    # element-level lookups over the arena
    # ------------------------------------------------------------------
    def parent_nodes(self, elements: np.ndarray) -> np.ndarray:
        """Per element, the synopsis node of its parent (-1 at the root)."""
        parents = self.arena.parent[elements]
        return np.where(parents >= 0, self.assignment[parents], -1)

    def with_parent_in(self, node_id: int, source: int) -> np.ndarray:
        """The elements of ``node_id`` whose parent lies in ``source``."""
        members = self.node(node_id).members
        return members[self.parent_nodes(members) == source]

    def with_child_in(self, node_id: int, target: int) -> np.ndarray:
        """The elements of ``node_id`` with at least one child in ``target``."""
        parents = self.arena.parent[self.node(target).members]
        parents = parents[parents >= 0]
        return distinct(parents[self.assignment[parents] == node_id])

    def child_counts(self, elements: np.ndarray, target: int) -> np.ndarray:
        """Per element, its number of children lying in node ``target``."""
        parents = self.arena.parent[self.node(target).members]
        per_element = np.bincount(parents[parents >= 0], minlength=self.arena.size)
        return per_element[elements]

    def nearest_ancestors(self, elements: np.ndarray, node_id: int) -> np.ndarray:
        """Per element, its nearest proper ancestor in node ``node_id``
        (-1 when it has none), found by walking the parent column."""
        found = np.full(len(elements), -1, dtype=ID)
        pending = np.arange(len(elements), dtype=ID)
        current = self.arena.parent[elements]
        while len(pending):
            alive = current >= 0
            pending, current = pending[alive], current[alive]
            hit = self.assignment[current] == node_id
            found[pending[hit]] = current[hit]
            pending, current = pending[~hit], self.arena.parent[current[~hit]]
        return found

    def ancestor_in(self, element: DocumentNode, node_id: int) -> Optional[DocumentNode]:
        """The nearest ancestor of ``element`` lying in node ``node_id``."""
        found = self.nearest_ancestors(np.array([element.node_id]), node_id)
        return None if found[0] < 0 else self.tree.node_by_id(int(found[0]))

    # ------------------------------------------------------------------
    # refinement support
    # ------------------------------------------------------------------
    def split_node(self, node_id: int, part: Iterable[int]) -> tuple[int, int]:
        """Split node ``node_id`` into (elements in ``part``, the rest).

        Args:
            node_id: the node to split.
            part: document node ids selecting the first piece (a set or an
                id array); must select a proper, non-empty subset of the
                extent.

        Returns:
            The ids of the two new synopsis nodes (part first).

        Raises:
            SynopsisError: when the subset is empty or not proper.
        """
        node = self.node(node_id)
        if not isinstance(part, np.ndarray):
            part = np.fromiter(part, dtype=ID)
        selected = np.isin(node.members, part)
        inside, outside = node.members[selected], node.members[~selected]
        if not len(inside) or not len(outside):
            raise SynopsisError("split subset must be proper and non-empty")
        del self.nodes[node_id]
        first = SynopsisNode(self._next_id, node.tag, inside, self.tree)
        second = SynopsisNode(self._next_id + 1, node.tag, outside, self.tree)
        self._next_id += 2
        self.nodes[first.node_id] = first
        self.nodes[second.node_id] = second
        self.assignment[inside] = first.node_id
        self.assignment[outside] = second.node_id
        # Every edge naming the old node goes; its self-loop ``old → old``
        # would otherwise survive, as no recounted node id names it.
        for key in [k for k in self.edges if node_id in k]:
            del self.edges[key]
        # Recount the edges of the two parts and of every node holding a
        # parent or a child of the old extent.  The set is filled in the
        # order those nodes are met, parents first, as its iteration order
        # fixes the order edges are re-inserted in.
        parents = self.arena.parent[node.members]
        _, children = self.arena.children(node.members)
        neighbours = self.assignment[np.concatenate([parents[parents >= 0], children])]
        met, first_seen = first_occurrences(neighbours)
        affected = {first.node_id, second.node_id}
        affected.update(met[np.argsort(first_seen)].tolist())
        self._recount_edges(affected)
        return first.node_id, second.node_id

    def copy(self) -> "GraphSynopsis":
        """A structural copy sharing the document and the (immutable)
        nodes; the assignment and the edges are copied."""
        duplicate = GraphSynopsis.__new__(GraphSynopsis)
        duplicate.tree = self.tree
        duplicate.arena = self.arena
        duplicate.assignment = self.assignment.copy()
        duplicate._next_id = self._next_id
        duplicate._index = None
        duplicate.nodes = dict(self.nodes)
        duplicate.edges = {
            key: SynopsisEdge(
                edge.source,
                edge.target,
                edge.child_count,
                edge.parent_count,
                edge.source_size,
                edge.target_size,
            )
            for key, edge in self.edges.items()
        }
        return duplicate

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the partition and edge-count invariants (test support)."""
        covered = 0
        for node in self.nodes.values():
            stray = node.members[self.assignment[node.members] != node.node_id]
            if len(stray):
                raise SynopsisError(f"assignment mismatch for element {stray[0]}")
            if (self.arena.tag[node.members] != self.arena.tag_ids[node.tag]).any():
                raise SynopsisError("extent element tag mismatch")
            covered += node.count
        if covered != self.tree.element_count:
            raise SynopsisError(
                f"partition covers {covered} of {self.tree.element_count} elements"
            )
        # Incoming child_counts partition each node's extent (tree data).
        root_node = int(self.assignment[self.tree.root.node_id])
        for node_id, node in self.nodes.items():
            incoming = sum(e.child_count for e in self.parents_of(node_id))
            expected = node.count - (1 if root_node == node_id else 0)
            if incoming != expected:
                raise SynopsisError(
                    f"incoming counts of node #{node_id} sum to {incoming}, "
                    f"expected {expected}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GraphSynopsis nodes={self.node_count} edges={self.edge_count}>"


def label_split_synopsis(tree: DocumentTree) -> GraphSynopsis:
    """The coarsest synopsis: one node per distinct tag (paper Figure 3a).

    This is the ``S_0(G)`` starting point of XBUILD and the leftmost point
    of every error-vs-size curve in Figure 9.
    """
    return GraphSynopsis._from_members(tree, tree.arena.by_tag)
