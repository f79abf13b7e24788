"""The columnar document arena: a frozen tree as flat numpy columns.

Every element is identified by its pre-order ``node_id`` (the root is 0),
so a subtree is the id interval ``[i, end[i])`` and the descendants of
``i`` with tag ``t`` are one ``searchsorted`` slice of ``t``'s sorted id
array.  This is the interval encoding of structural indexes (Maneth &
Sebastian, *Fast and Tiny Structural Self-Indexes for XML*): subtree scans
become range lookups and tree navigation becomes array gathers.

Columns, each indexed by element id unless stated otherwise:

* ``parent`` — the parent's id, ``-1`` at the root;
* ``end`` — exclusive end of the subtree in pre-order;
* ``tag`` — tag id, an index into ``tags`` (first-appearance order);
* ``child_ptr``/``child_ids`` — children in CSR form: the children of
  ``i`` are ``child_ids[child_ptr[i]:child_ptr[i + 1]]``, in document
  order; over all ``i`` this is exactly the order of
  :meth:`DocumentTree.iter_edges`;
* ``by_tag`` — per tag id, the sorted ids of the elements carrying it;
* ``value`` — the element values (an object array, ``None`` when absent),
  with ``has_value`` as a boolean mask, and ``value_code``, an index into
  the ``distinct_values`` tuple (-1 when absent), so a value predicate is
  evaluated once per distinct value.

The synopsis graph (edge recounts, edge distributions, split selection),
the exact evaluator (:func:`repro.query.count_bindings`) and XBUILD's
value-split proposals read these columns instead of walking
:class:`~repro.doc.node.DocumentNode` objects.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .node import DocumentNode

#: dtype of every id column
ID = np.int64


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an int array.

    Sort-based: on the few-thousand-entry arrays of this library it is an
    order of magnitude faster than ``np.unique``'s hash-based path.
    """
    ordered = np.sort(values)
    heads = np.ones(len(ordered), dtype=bool)
    heads[1:] = ordered[1:] != ordered[:-1]
    return ordered[heads]


def first_occurrences(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of an int array, and for each the index
    of its first occurrence in ``values``."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    heads = np.ones(len(ordered), dtype=bool)
    heads[1:] = ordered[1:] != ordered[:-1]
    return ordered[heads], order[heads]


def spans(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the index ranges ``[starts[k], starts[k] + counts[k])``.

    Returns ``(owner, slot)``: every index of every range, range by range,
    and the position ``k`` of the range each came from.
    """
    owner = np.repeat(np.arange(len(starts), dtype=ID), counts)
    offsets = np.cumsum(counts) - counts
    slots = np.arange(len(owner), dtype=ID) + np.repeat(starts - offsets, counts)
    return owner, slots


class DocumentArena:
    """Flat columns of a frozen document.

    Args:
        nodes: every node of the tree in pre-order, each ``node_id`` equal
            to its position (what :meth:`DocumentTree.freeze` produces).
    """

    __slots__ = (
        "size",
        "parent",
        "end",
        "tag",
        "tags",
        "tag_ids",
        "child_ptr",
        "child_ids",
        "by_tag",
        "value",
        "has_value",
        "value_code",
        "distinct_values",
    )

    def __init__(self, nodes: Sequence[DocumentNode]):
        size = len(nodes)
        tag_ids: dict[str, int] = {}
        codebook: dict = {}
        self.size = size
        self.parent = np.fromiter(
            (-1 if node.parent is None else node.parent.node_id for node in nodes),
            dtype=ID,
            count=size,
        )
        self.tag = np.fromiter(
            (tag_ids.setdefault(node.tag, len(tag_ids)) for node in nodes),
            dtype=ID,
            count=size,
        )
        self.tags = tuple(tag_ids)
        self.tag_ids = tag_ids
        self.value = np.empty(size, dtype=object)
        self.value[:] = [node.value for node in nodes]
        self.value_code = np.fromiter(
            (
                -1 if node.value is None
                else codebook.setdefault(node.value, len(codebook))
                for node in nodes
            ),
            dtype=ID,
            count=size,
        )
        self.has_value = self.value_code >= 0
        self.distinct_values = tuple(codebook)
        # children sorted stably by parent keep document order per parent
        self.child_ids = np.argsort(self.parent[1:], kind="stable").astype(ID) + 1
        self.child_ptr = np.zeros(size + 1, dtype=ID)
        np.cumsum(
            np.bincount(self.parent[1:], minlength=size), out=self.child_ptr[1:]
        )
        # a subtree ends after its last descendant in pre-order, found by
        # pointer jumping along last children
        last = np.arange(size, dtype=ID)
        parents = self.child_ptr[1:] > self.child_ptr[:-1]
        last[parents] = self.child_ids[self.child_ptr[1:][parents] - 1]
        while True:
            jumped = last[last]
            if np.array_equal(jumped, last):
                break
            last = jumped
        self.end = last + 1
        by_tag = np.argsort(self.tag, kind="stable").astype(ID)
        bounds = np.cumsum(np.bincount(self.tag, minlength=len(tag_ids)))
        self.by_tag = tuple(np.split(by_tag, bounds[:-1]))
        # callers get views of these columns; none may write through them
        for column in (
            self.parent, self.end, self.tag, self.child_ids, self.child_ptr,
            by_tag, self.value, self.value_code, self.has_value,
        ):
            column.flags.writeable = False

    # ------------------------------------------------------------------
    def with_tag(self, tag: str) -> np.ndarray:
        """Sorted ids of the elements tagged ``tag`` (empty when none)."""
        tag_id = self.tag_ids.get(tag)
        if tag_id is None:
            return np.empty(0, dtype=ID)
        return self.by_tag[tag_id]

    def children(self, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children of ``elements``, block by block in the given order.

        Returns ``(owner, child)``: ``child`` lists each element's children
        in document order, and ``owner[k]`` is the position in
        ``elements`` of ``child[k]``'s parent.
        """
        starts = self.child_ptr[elements]
        owner, slots = spans(starts, self.child_ptr[elements + 1] - starts)
        return owner, self.child_ids[slots]

    def values_of(self, elements: np.ndarray) -> list:
        """The values the ``elements`` carry, in order; valueless ones are
        skipped."""
        return self.value[elements[self.has_value[elements]]].tolist()

    def value_matches(self, predicate, elements: np.ndarray) -> np.ndarray:
        """Mask of the ``elements`` whose value satisfies ``predicate`` (a
        :class:`~repro.query.values.ValuePredicate`)."""
        codes = self.value_code[elements]
        present = distinct(codes)
        verdicts = [
            code >= 0 and predicate.matches(self.distinct_values[code])
            for code in present.tolist()
        ]
        return np.array(verdicts, dtype=bool)[np.searchsorted(present, codes)]

    def first_child_values(self, elements: np.ndarray, tag: str) -> list:
        """Per element, the value of its first ``tag`` child that carries
        one, or ``None`` when it has no such child."""
        carriers = self.with_tag(tag)
        carriers = carriers[self.has_value[carriers]]
        result = [None] * len(elements)
        if not len(carriers):
            return result
        # ids ascend, so the first occurrence of each parent is its first
        # valued ``tag`` child in document order
        owners, first = first_occurrences(self.parent[carriers])
        slot = np.minimum(np.searchsorted(owners, elements), len(owners) - 1)
        found = owners[slot] == elements
        for position, value in zip(
            np.flatnonzero(found).tolist(),
            self.value[carriers[first[slot[found]]]].tolist(),
        ):
            result[position] = value
        return result
