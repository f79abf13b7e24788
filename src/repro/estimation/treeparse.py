"""The TREEPARSE algorithm (paper Figure 7).

TREEPARSE walks a twig embedding depth-first and decides, per embedding
node, how the selectivity expression uses the node's histograms:

* the **expansion set** ``E_i`` — count dimensions that expand binding
  tuples toward the node's children (forward counts covered by a stored
  histogram);
* the **uncovered set** ``U_i`` — child edges covered by no histogram;
  their contribution falls back to the Forward Uniformity assumption;
* the **correlation set** ``D_i`` — backward-count dimensions whose edges
  were already counted at an ancestor ("covered"); they condition the
  node's distribution on the ancestor's expansion (Correlation Scope
  Independence).

Because a node may store several disjoint-scope histograms (see
:mod:`repro.synopsis.summary`), the plan groups the node's children by the
histogram covering their edge; dimensions of a histogram that are neither
expanded nor conditioned on are marginalized away, which is exactly the
paper's Forward Independence assumption.

The plan is split in two.  ``E_i``, ``U_i``, branch absorption and the
extended-histogram uses depend only on the node's synopsis node, its
children's and branches' synopsis nodes and which predicates are present,
and the node's stored statistics: a :class:`StaticPlan` computes them, and
the marginals they keep, once per distinct node shape.  ``D_i`` depends on
the edges covered before the node in the traversal, so only it is filled
in per embedding, as each :class:`NodePlan`'s ``conditions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..query.values import ValuePredicate
from ..synopsis.compiled import CompiledSketch, HistogramTable, NodeTable
from ..synopsis.distributions import EdgeRef
from ..synopsis.summary import EdgeHistogram, ExtendedValueSummary, TwigXSketch
from .embeddings import Embedding, EmbeddingNode

_EMPTY: frozenset = frozenset()


class StaticUse:
    """The context-free part of one stored histogram's use at a node.

    Attributes:
        table: the compiled histogram.
        expansion: ``(dim, child positions)`` per expanding dimension
            (``E_i``), in scope order.
        branch_conditions: ``(dim, branch position)`` per dimension that
            witnesses an absorbed single-alternative branch predicate.
        layout: the kept dimensions and their marginal when nothing
            conditions the use (:class:`~repro.synopsis.compiled.Layout`).
        backward: ``(dim, ref)`` of the backward counts, the candidates for
            ``D_i``.
    """

    __slots__ = ("table", "expansion", "branch_conditions", "layout", "backward")

    def __init__(
        self,
        table: HistogramTable,
        expansion: list[tuple[int, tuple[int, ...]]],
        branch_conditions: list[tuple[int, int]],
    ):
        self.table = table
        self.expansion = tuple(expansion)
        self.branch_conditions = tuple(branch_conditions)
        self.layout = table.layout(
            tuple([dim for dim, _ in expansion]),
            tuple([dim for dim, _ in branch_conditions]),
        )
        self.backward = table.backward


class StaticExtended:
    """How one extended value histogram participates at a node.

    The value dimension absorbs the node's own value predicate (``own``)
    or the value-testing branch at ``absorbed_branch``; ``expansion`` is
    ``(dim, child positions)`` per count dimension claiming child edges.
    """

    __slots__ = ("summary", "own", "absorbed_branch", "expansion")

    def __init__(
        self,
        summary: ExtendedValueSummary,
        own: bool,
        absorbed_branch: Optional[int],
        expansion: list[tuple[int, tuple[int, ...]]],
    ):
        self.summary = summary
        self.own = own
        self.absorbed_branch = absorbed_branch
        self.expansion = tuple(expansion)

    def predicate(self, node: EmbeddingNode) -> ValuePredicate:
        """The predicate the value dimension absorbs at ``node``."""
        if self.own:
            return node.value_pred
        return node.branches[self.absorbed_branch][0].value_pred


class StaticPlan:
    """The context-free part of TREEPARSE's plan for one node shape.

    Attributes:
        table: the node's compiled statistics (None for a leaf).
        uses: a :class:`StaticUse` per histogram expanding a child or
            absorbing a branch.
        extended: a :class:`StaticExtended` per participating extended
            value histogram.
        uncovered: ``(child position, average, clamp)`` per child in
            ``U_i``: its Forward Uniformity average and why that was
            clamped, if it was.
        covered_refs: the edge refs the node's expansion covers.
        absorbed_branches: branch positions folded into a histogram use;
            the estimator's independent branch handling skips them.
        value_pred_absorbed: an extended histogram consumed the node's own
            value predicate.
        conditioned: some use has backward counts, so ``D_i`` may be
            non-empty.
        no_conditions: the all-empty conditions tuple, shared.
    """

    __slots__ = (
        "table", "uses", "extended", "uncovered", "covered_refs",
        "absorbed_branches", "value_pred_absorbed", "conditioned", "no_conditions",
    )

    def __init__(
        self,
        table: Optional[NodeTable] = None,
        uses: tuple[StaticUse, ...] = (),
        extended: tuple[StaticExtended, ...] = (),
        uncovered: tuple[tuple[int, float, Optional[str]], ...] = (),
        covered_refs: frozenset = _EMPTY,
        absorbed_branches: frozenset = _EMPTY,
        value_pred_absorbed: bool = False,
    ):
        self.table = table
        self.uses = uses
        self.extended = extended
        self.uncovered = uncovered
        self.covered_refs = covered_refs
        self.absorbed_branches = absorbed_branches
        self.value_pred_absorbed = value_pred_absorbed
        self.conditioned = any(use.backward for use in uses)
        self.no_conditions = ((),) * len(uses)


#: the plan of every node without children or branches
LEAF = StaticPlan()


@dataclass
class HistogramUse:
    """How one stored histogram participates at one embedding node (a view
    of a :class:`NodePlan` for inspection; estimation reads the plan).

    Attributes:
        histogram: the stored histogram.
        expansion: dimension index → list of embedding children expanded by
            that dimension (the ``E_i`` part owned by this histogram).
        conditions: dimension index → the EdgeRef it conditions on (``D_i``);
            the concrete value comes from the ancestor context at
            estimation time.
        branch_conditions: dimension index → the branch chain whose
            existence that dimension witnesses.  A single-alternative
            branch predicate whose first edge is covered by this histogram
            is folded into the histogram factor — per point, the branch
            holds with probability ``1 − (1 − r)^c`` where ``c`` is the
            dimension's count and ``r`` the per-child satisfaction
            probability — so branch existence correlates with the sibling
            expansion counts instead of being assumed independent.
    """

    histogram: EdgeHistogram
    expansion: dict[int, list[EmbeddingNode]] = field(default_factory=dict)
    conditions: dict[int, EdgeRef] = field(default_factory=dict)
    branch_conditions: dict[int, EmbeddingNode] = field(default_factory=dict)

    def kept_dimensions(self) -> list[int]:
        """Dimensions that survive marginalization (E ∪ D ∪ branches)."""
        return sorted(
            set(self.expansion) | set(self.conditions) | set(self.branch_conditions)
        )


@dataclass
class ExtendedUse:
    """How one extended value histogram ``H^v(V, C...)`` participates (a
    view of a :class:`NodePlan`).

    The value dimension absorbs either the node's own value predicate or a
    value-testing branch predicate (``[type = "Action"]``); the count
    dimensions expand the node's children *conditioned on that predicate*,
    which is exactly the value↔structure correlation the paper's extended
    histograms exist to capture.
    """

    summary: ExtendedValueSummary
    predicate: Optional[ValuePredicate]
    expansion: dict[int, list[EmbeddingNode]] = field(default_factory=dict)
    absorbed_branch: Optional[int] = None
    consumed_value_pred: bool = False


class NodePlan:
    """The per-node output of TREEPARSE.

    Attributes:
        node: the embedding node.
        static: the node shape's :class:`StaticPlan`.
        conditions: per use of ``static``, the ``(dim, ref)`` pairs of
            ``D_i`` at this node.
        needed: the backward refs the node's subtree conditions on; the
            estimator memoizes subtree factors on just those context
            entries.

    The properties present the plan in the paper's terms, with embedding
    nodes in place of positions.
    """

    __slots__ = ("node", "static", "conditions", "needed")

    def __init__(
        self,
        node: EmbeddingNode,
        static: StaticPlan,
        conditions: tuple,
        needed: frozenset = _EMPTY,
    ):
        self.node = node
        self.static = static
        self.conditions = conditions
        self.needed = needed

    def _children(self, positions) -> list[EmbeddingNode]:
        return [self.node.children[position] for position in positions]

    @property
    def uses(self) -> list[HistogramUse]:
        """One entry per histogram that expands a child or absorbs a
        branch."""
        return [
            HistogramUse(
                use.table.histogram,
                {dim: self._children(positions) for dim, positions in use.expansion},
                dict(conditions),
                {
                    dim: self.node.branches[branch][0]
                    for dim, branch in use.branch_conditions
                },
            )
            for use, conditions in zip(self.static.uses, self.conditions)
        ]

    @property
    def extended_uses(self) -> list[ExtendedUse]:
        """The participating extended value histograms."""
        return [
            ExtendedUse(
                use.summary,
                use.predicate(self.node),
                {dim: self._children(positions) for dim, positions in use.expansion},
                use.absorbed_branch,
                use.own,
            )
            for use in self.static.extended
        ]

    @property
    def uncovered(self) -> list[EmbeddingNode]:
        """Children whose edge no histogram covers (``U_i``)."""
        return self._children(position for position, _, _ in self.static.uncovered)

    @property
    def covered_refs(self) -> set[EdgeRef]:
        """The edge refs this node adds to the traversal's covered set."""
        return set(self.static.covered_refs)

    @property
    def absorbed_branches(self) -> set[int]:
        """Indexes into ``node.branches`` folded into a histogram use."""
        return set(self.static.absorbed_branches)

    @property
    def value_pred_absorbed(self) -> bool:
        """Whether an extended histogram consumed the node's own value
        predicate."""
        return self.static.value_pred_absorbed


def _branch_shape(alternatives: list[EmbeddingNode]) -> Optional[tuple[int, bool]]:
    """What planning reads of a branch: for a single alternative, its head's
    synopsis node and whether the head is a bare value test."""
    if len(alternatives) != 1:
        return None
    head = alternatives[0]
    return (
        head.node_id,
        head.value_pred is not None and not head.children and not head.branches,
    )


def _static_plan(
    node: EmbeddingNode, compiled: CompiledSketch, branch_conditioning: bool
) -> StaticPlan:
    """Figure 7's per-node decisions that do not depend on ``covered``."""
    node_id = node.node_id
    table = compiled.node(node_id)
    # child synopsis node -> positions of the children reaching it, in the
    # order the node ids first appear
    child_positions: dict[int, list[int]] = {}
    for position, child in enumerate(node.children):
        child_positions.setdefault(child.node_id, []).append(position)
    # single-alternative branch predicates, keyed by their head's node:
    # candidates for conditioning inside a histogram
    branch_heads: dict[int, int] = {}
    if branch_conditioning:
        for position, alternatives in enumerate(node.branches):
            if len(alternatives) == 1:
                branch_heads.setdefault(alternatives[0].node_id, position)

    # child node -> the ref of the edge toward it, once a use claims it
    assigned: dict[int, EdgeRef] = {}
    absorbed_heads: set[int] = set()
    absorbed_branches: set[int] = set()
    value_pred_absorbed = False

    # Extended value histograms go first: their count dimensions claim the
    # child edges they cover, as they carry strictly more information for
    # the predicated population than plain edge histograms.
    extended: list[StaticExtended] = []
    for summary in table.extended:
        own = False
        absorbed_branch = None
        if (
            summary.value_tag is None
            and node.value_pred is not None
            and not value_pred_absorbed
        ):
            own = True
        elif summary.value_tag is not None:
            for position, alternatives in enumerate(node.branches):
                if position in absorbed_branches or len(alternatives) != 1:
                    continue
                chain = alternatives[0]
                if (
                    compiled.index.tags[chain.node_id] == summary.value_tag
                    and chain.value_pred is not None
                    and not chain.children
                    and not chain.branches
                ):
                    absorbed_branch = position
                    break
        if not own and absorbed_branch is None:
            continue
        expansion = []
        for dim, ref in enumerate(summary.scope):
            if (
                ref.source == node_id
                and ref.target in child_positions
                and ref.target not in assigned
            ):
                expansion.append((dim, tuple(child_positions[ref.target])))
                assigned[ref.target] = ref
        extended.append(StaticExtended(summary, own, absorbed_branch, expansion))
        if absorbed_branch is not None:
            absorbed_branches.add(absorbed_branch)
        if own:
            value_pred_absorbed = True

    uses: list[StaticUse] = []
    # only the histograms covering an edge toward a child or a branch head
    # can expand or absorb; the others would yield no use
    covering = table.covering
    relevant = sorted(
        {
            index
            for target in (*child_positions, *branch_heads)
            for index, _ in covering.get(target, ())
        }
    )
    for index in relevant:
        histogram = table.histograms[index]
        expansion = []
        branch_conditions = []
        # backward dimensions are D_i candidates, decided per embedding
        for dim, ref in histogram.forward:
            target = ref.target
            if target in child_positions and target not in assigned:
                expansion.append((dim, tuple(child_positions[target])))
                assigned[target] = ref
            elif (
                target in branch_heads
                and target not in absorbed_heads
                and branch_heads[target] not in absorbed_branches
            ):
                branch_conditions.append((dim, branch_heads[target]))
                absorbed_branches.add(branch_heads[target])
                absorbed_heads.add(target)
        if expansion or branch_conditions:
            uses.append(StaticUse(histogram, expansion, branch_conditions))

    uncovered = tuple(
        (position, *table.average(target))
        for target, positions in child_positions.items()
        if target not in assigned
        for position in positions
    )
    return StaticPlan(
        table,
        tuple(uses),
        tuple(extended),
        uncovered,
        frozenset(assigned.values()),
        frozenset(absorbed_branches),
        value_pred_absorbed,
    )


def tree_parse(
    embedding: Embedding,
    sketch: TwigXSketch,
    branch_conditioning: bool = True,
    *,
    statics: Optional[dict] = None,
) -> dict[int, NodePlan]:
    """Run TREEPARSE over ``embedding``; returns plans keyed by ``id(node)``.

    Mirrors the paper's Figure 7: a depth-first traversal maintaining the
    set of covered edge refs; leaf nodes get empty plans.  With
    ``branch_conditioning`` (default), single-alternative branch
    predicates whose edge is covered by a histogram are absorbed into the
    histogram factor (see :class:`HistogramUse`); disabling it reproduces
    the pure independence treatment of branches.

    ``statics`` maps node shapes to their :class:`StaticPlan`; pass one
    dict to every embedding of a query (with the same sketch and
    ``branch_conditioning``) so each shape is planned once.
    """
    compiled = sketch.compiled()
    if statics is None:
        statics = {}
    plans: dict[int, NodePlan] = {}
    covered: set[EdgeRef] = set()

    def visit(node: EmbeddingNode) -> frozenset:
        children = node.children
        branches = node.branches
        if not children and not branches:
            plans[id(node)] = NodePlan(node, LEAF, ())
            return _EMPTY
        shape = (
            node.node_id,
            node.value_pred is not None,
            tuple([child.node_id for child in children]),
            tuple([_branch_shape(alternatives) for alternatives in branches]),
        )
        static = statics.get(shape)
        if static is None:
            static = statics[shape] = _static_plan(node, compiled, branch_conditioning)
        needed: set[EdgeRef] = set()
        if static.conditioned:
            conditions = tuple(
                tuple((dim, ref) for dim, ref in use.backward if ref in covered)
                for use in static.uses
            )
            for pairs in conditions:
                needed.update(ref for _, ref in pairs)
        else:
            conditions = static.no_conditions
        covered.update(static.covered_refs)
        plan = NodePlan(node, static, conditions)
        plans[id(node)] = plan
        for child in children:
            needed |= visit(child)
        if needed:
            plan.needed = frozenset(needed)
        return plan.needed

    visit(embedding.root)
    return plans
