"""Twig selectivity estimation over a Twig XSKETCH (paper Section 4).

The estimator evaluates, per embedding, the paper's selectivity expression

    s(T) = |n_0| · (Π_i Π_{C ∈ U_i} Σ F_i(C)) ·
           Σ_{E_1..E_m} F_0(E_0 | D_0) · ... · F_m(E_m | D_m)

using the TREEPARSE plan and the three statistical assumptions:

* **Forward Independence** — dimensions of a histogram that the query does
  not touch are marginalized away; counts held in different histograms (or
  no histogram) multiply independently.
* **Correlation Scope Independence** — ``F(E | D)`` is computed as
  ``H(E ∪ D) / H(D)`` by conditioning the histogram's points on the
  ancestor values in ``D``; backward counts outside the stored scope are
  dropped from the conditioning.
* **Forward Uniformity** — a child edge covered by no histogram
  contributes its average child count ``|n_i → n_j| / |n_i|``.

Value predicates multiply in the node's value-histogram selectivity
(independence of structure and value, matching the measured prototype);
branch predicates multiply in an existence probability computed from edge
stabilities, stored count distributions, and uniformity fallbacks (the
rules reconstructed from the conference text; see DESIGN.md §3).

The estimator reads only the sketch's compiled form
(:mod:`repro.synopsis.compiled`) and TREEPARSE's split plans.  Each
estimate tallies its statistics lookups and its clamped ratios locally and
adds them to the metrics registry once, when it is done.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from ..histogram import ops
from ..obs import explain as _explain
from ..obs.explain import ExplainRecorder
from ..obs.metrics import MetricsRegistry
from ..query.ast import TwigQuery
from ..synopsis.compiled import CompiledSketch
from ..synopsis.distributions import EdgeRef
from ..synopsis.summary import TwigXSketch
from .embeddings import (
    DEFAULT_MAX_DESCENDANT_DEPTH,
    Embedding,
    EmbeddingBudget,
    EmbeddingNode,
    enumerate_embeddings,
)
from .treeparse import NodePlan, StaticExtended, StaticUse, tree_parse

Context = tuple[tuple[EdgeRef, float], ...]

class BatchContext:
    """Shared caches for a batch of estimates over one sketch.

    Reused across :meth:`TwigEstimator.estimate_many` /
    :meth:`TwigEstimator.report_many` calls (and across queries within
    one call):

    * ``plans`` — query text → prepared embeddings (enumeration +
      TREEPARSE output), so repeated queries skip planning entirely;
    * ``memo`` — (plan signature, relevant ancestor context) → subtree
      factor.  The signature (:func:`_plan_keys`) captures everything the
      node's subtree factor depends on — synopsis nodes, predicates,
      conditioning sets — so two embedding nodes with equal signatures
      compute the same factor by construction, even across different
      queries (common path suffixes share work);
    * ``hits`` / ``misses`` — cross-embedding memo traffic, for the
      batch counters.

    ``keyed`` controls the memo's key scheme.  Keyed contexts (the
    default for explicitly constructed ones) pay for computing plan
    signatures up front, which only amortizes when plans get reused —
    across calls (a serving worker's lifetime) or across structurally
    overlapping queries.  :meth:`TwigEstimator.estimate_many` without an
    explicit context uses an unkeyed one: node-identity memo keys, zero
    signature overhead, and repeated query texts still share everything
    through ``plans``.

    A context is only valid for the :class:`TwigEstimator` (sketch +
    settings) it was first used with: a signature names the plan only
    together with the sketch's statistics.
    """

    __slots__ = ("plans", "memo", "interned", "hits", "misses", "keyed")

    def __init__(self, keyed: bool = True):
        self.plans: dict[str, tuple[list, bool]] = {}
        self.memo: dict[tuple, float] = {}
        self.interned: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.keyed = keyed

    def intern(self, signature: tuple) -> int:
        """Map a (large) plan signature to a small stable integer, so
        memo keys hash in O(1) after the first sighting."""
        key = self.interned.get(signature)
        if key is None:
            key = len(self.interned)
            self.interned[signature] = key
        return key


@dataclass(frozen=True)
class EstimateReport:
    """An estimate plus diagnostics.

    Attributes:
        selectivity: the estimated number of binding tuples.
        embeddings: how many embeddings contributed.
        truncated: True when embedding enumeration hit its cap.
        clamped: how many degenerate ratios (a zero denominator or a
            non-finite quotient, from corrupted counts) the estimate used
            as 0.0; 0 on healthy statistics.  Subtree factors a batch
            reuses from an earlier query are not counted again.
    """

    selectivity: float
    embeddings: int
    truncated: bool
    clamped: int = 0


class Evaluation:
    """The state of one estimate over a compiled sketch: the explain
    recorder and the tallies of statistics lookups (by kind) and clamped
    ratios (by reason) that the estimator adds to its metrics when done.

    The methods evaluate the selectivity expression's factors; they read
    only the compiled sketch and TREEPARSE plans.
    """

    __slots__ = ("compiled", "explain", "lookups", "clamps")

    def __init__(
        self, compiled: CompiledSketch, explain: Optional[ExplainRecorder] = None
    ):
        self.compiled = compiled
        self.explain = explain
        self.lookups: Counter = Counter()
        self.clamps: Counter = Counter()

    def label(self, node_id: int) -> str:
        return self.compiled.node(node_id).label

    def record(self, counters) -> None:
        """Add the tallies to ``counters`` (see :func:`tally_counters`);
        nothing when they are None."""
        if counters is None:
            return
        lookups, clamped = counters
        for kind, count in self.lookups.items():
            lookups.inc(count, kind=kind)
        for reason, count in self.clamps.items():
            clamped.inc(count, reason=reason)

    # ------------------------------------------------------------------
    # the recursive expansion
    # ------------------------------------------------------------------
    def expand(
        self,
        node: EmbeddingNode,
        plans: dict[int, NodePlan],
        context: Context,
        memo: dict[tuple, float],
        keys: Optional[dict[int, int]] = None,
        batch: Optional[BatchContext] = None,
    ) -> float:
        """Expected binding tuples of ``node``'s subtree per element of its
        synopsis node, given the ancestor count assignment ``context``.

        ``keys`` (batch mode) substitutes plan-signature keys for node
        identities, so the memo is shared across embeddings and queries;
        ``batch`` tracks the shared-memo hit counters.
        """
        plan = plans[id(node)]
        needed = plan.needed
        relevant = (
            tuple(item for item in context if item[0] in needed) if needed else ()
        )
        key = ((id(node) if keys is None else keys[id(node)]), relevant)
        explain = self.explain
        cached = memo.get(key)
        if cached is not None:
            if batch is not None:
                batch.hits += 1
            self.lookups["memo"] += 1
            if explain is not None:
                explain.record(
                    _explain.KIND_MEMO,
                    self.label(node.node_id),
                    "cached subtree factor",
                    cached,
                )
            return cached
        if batch is not None:
            batch.misses += 1

        frame = (
            None
            if explain is None
            else explain.enter(_explain.KIND_EXPAND, self.label(node.node_id))
        )
        static = plan.static
        result = self.local_factor(
            node, static.absorbed_branches, static.value_pred_absorbed
        )
        if result > 0:
            for use in static.extended:
                result *= self.extended_factor(
                    node, use, plans, context, memo, keys, batch
                )
                if result == 0:
                    break
        if result > 0 and (node.children or static.uses):
            children = node.children
            for position, average, clamp in static.uncovered:
                # Forward Uniformity: |n_i -> n_j| / |n_i| per element.
                child = children[position]
                if clamp is not None:
                    self.clamps[clamp] += 1
                self.lookups["uniform"] += 1
                if explain is not None:
                    explain.record(
                        _explain.KIND_UNIFORM,
                        f"edge {self.label(node.node_id)} -> "
                        f"{self.label(child.node_id)}",
                        "forward-uniformity avg child count",
                        average,
                    )
                result *= average
                if result == 0:
                    break
                result *= self.expand(child, plans, context, memo, keys, batch)
            for use, conditions in zip(static.uses, plan.conditions):
                if result == 0:
                    break
                result *= self.histogram_factor(
                    node, use, conditions, plans, context, memo, keys, batch
                )
        memo[key] = result
        if frame is not None:
            explain.exit(frame, result)
        return result

    def histogram_factor(
        self,
        node: EmbeddingNode,
        use: StaticUse,
        conditions: tuple,
        plans: dict[int, NodePlan],
        context: Context,
        memo: dict[tuple, float],
        keys: Optional[dict[int, int]] = None,
        batch: Optional[BatchContext] = None,
    ) -> float:
        """``Σ_points mass · Π_E (count · child expansion)`` conditioned on D.

        Marginalizes unused dimensions first (Forward Independence), then
        conditions on the ancestor values of the D dimensions (Correlation
        Scope Independence).
        """
        layout = use.layout
        assigned = 0
        if conditions:
            kept = tuple(sorted(layout.kept + tuple(dim for dim, _ in conditions)))
            points = use.table.marginal(kept)
            remap = {dim: position for position, dim in enumerate(kept)}
            context_map = dict(context)
            assignment = {
                remap[dim]: context_map[ref]
                for dim, ref in conditions
                if ref in context_map
            }
            if assignment:
                assigned = len(assignment)
                surviving = [p for p in remap.values() if p not in assignment]
                points = ops.condition(points, assignment)
                remap = {
                    dim: surviving.index(position)
                    for dim, position in remap.items()
                    if position not in assignment
                }
        else:
            points = layout.points
            remap = layout.remap

        branch_satisfaction = [
            (dim, self.per_child_satisfaction(node.branches[branch][0]))
            for dim, branch in use.branch_conditions
        ]

        children = node.children
        total = 0.0
        for vector, mass in points:
            term = mass
            extended: Optional[Context] = None
            for dim, chain_rate in branch_satisfaction:
                count = vector[remap[dim]]
                if count <= 0 or chain_rate <= 0:
                    term = 0.0
                    break
                # P(some witness child satisfies the branch | count)
                term *= 1.0 - (1.0 - chain_rate) ** count
            if term == 0:
                continue
            for dim, positions in use.expansion:
                count = vector[remap[dim]]
                if count <= 0:
                    term = 0.0
                    break
                if extended is None:
                    extended = context + tuple(
                        (ref, vector[remap[d]]) for d, ref in layout.expansion_refs
                    )
                for position in positions:
                    term *= count * self.expand(
                        children[position], plans, extended, memo, keys, batch
                    )
                    if term == 0:
                        break
                if term == 0:
                    break
            total += term
        self.lookups["histogram"] += 1
        if self.explain is not None:
            scope = ",".join(
                f"{ref.source}->{ref.target}" for ref in use.table.histogram.scope
            )
            self.explain.record(
                _explain.KIND_HISTOGRAM,
                f"H[{scope}] at {self.label(node.node_id)}",
                f"{len(points)} points, {assigned} conditioned, "
                f"{len(use.expansion)} expanding dims",
                total,
            )
        return total

    # ------------------------------------------------------------------
    # local predicates
    # ------------------------------------------------------------------
    def extended_factor(
        self,
        node: EmbeddingNode,
        use: StaticExtended,
        plans: dict[int, NodePlan],
        context: Context,
        memo: dict[tuple, float],
        keys: Optional[dict[int, int]] = None,
        batch: Optional[BatchContext] = None,
    ) -> float:
        """One extended-value-histogram factor:

        ``P(value predicate) × Σ_points mass · Π (count · child expansion)``

        over the count distribution *conditioned on the predicate* — the
        paper's value↔structure correlation in action.
        """
        predicate = use.predicate(node)
        histogram = use.summary.histogram
        match = histogram.match_mass(predicate)
        self.lookups["extended"] += 1
        if self.explain is not None:
            self.explain.record(
                _explain.KIND_EXTENDED,
                f"extended value histogram at {self.label(node.node_id)}",
                f"P(value pred) with {len(use.expansion)} expanding dims",
                match,
            )
        if match <= 0:
            return 0.0
        factor = match
        if use.expansion:
            children = node.children
            points = histogram.conditional_points(predicate)
            total = 0.0
            for vector, mass in points:
                term = mass
                for dim, positions in use.expansion:
                    count = vector[dim]
                    if count <= 0:
                        term = 0.0
                        break
                    for position in positions:
                        term *= count * self.expand(
                            children[position], plans, context, memo, keys, batch
                        )
                        if term == 0:
                            break
                    if term == 0:
                        break
                total += term
            factor *= total
        return factor

    def local_factor(
        self,
        node: EmbeddingNode,
        absorbed_branches: frozenset = frozenset(),
        skip_value_pred: bool = False,
    ) -> float:
        """Value-predicate selectivity × branch-existence probabilities.

        Branches listed in ``absorbed_branches`` are handled inside a
        histogram factor (branch conditioning or an extended value
        histogram) and skipped here, as is the node's own value predicate
        when an extended histogram consumed it.
        """
        factor = 1.0
        if node.value_pred is not None and not skip_value_pred:
            factor *= self.value_selectivity(node.node_id, node.value_pred)
        for index, alternatives in enumerate(node.branches):
            if index in absorbed_branches:
                continue
            factor *= self.branch_any(node.node_id, alternatives)
            if factor == 0:
                return 0.0
        return factor

    def value_selectivity(self, node_id: int, predicate) -> float:
        """Fraction of the node's elements whose value satisfies ``predicate``.

        Elements without values (no value histogram stored) cannot match.
        """
        table = self.compiled.node(node_id)
        summary = table.value
        selectivity = (
            0.0 if summary is None
            else summary.histogram.selectivity(predicate)
        )
        self.lookups["value"] += 1
        if self.explain is not None:
            self.explain.record(
                _explain.KIND_VALUE,
                f"value predicate at {table.label}",
                "no value histogram stored" if summary is None else "",
                selectivity,
            )
        return selectivity

    # ------------------------------------------------------------------
    # branch predicates
    # ------------------------------------------------------------------
    def branch_any(
        self, node_id: int, alternatives: Sequence[EmbeddingNode]
    ) -> float:
        """P(at least one alternative chain exists): 1 − Π(1 − p_i)."""
        miss = 1.0
        for chain in alternatives:
            miss *= 1.0 - self.branch_chain(node_id, chain)
            if miss == 0:
                break
        self.lookups["branch"] += 1
        if self.explain is not None:
            self.explain.record(
                _explain.KIND_BRANCH,
                f"branch at {self.label(node_id)}",
                f"{len(alternatives)} alternative chain(s)",
                1.0 - miss,
            )
        return 1.0 - miss

    def branch_chain(self, parent_id: int, chain: EmbeddingNode) -> float:
        """P(an element of ``parent_id`` has the existential chain).

        Decomposes into P(≥ 1 child in the chain head's node) times the
        probability that a child satisfies the rest; with ``r`` the child's
        own satisfaction probability and ``k̄`` the mean child count among
        elements that have children, the head factor is
        ``q · (1 − (1 − r)^k̄)`` — exact for r ∈ {0, 1}.
        """
        facts = self.compiled.node(parent_id).edges.get(chain.node_id)
        if facts is None:
            return 0.0
        if facts.clamp is not None:
            self.clamps[facts.clamp] += 1
        mean_count = facts.average
        probability_positive = facts.positive
        if probability_positive <= 0:
            return 0.0

        per_child = self.per_child_satisfaction(chain)
        if per_child >= 1.0:
            return probability_positive
        average_given_positive = max(1.0, mean_count / probability_positive)
        return probability_positive * (
            1.0 - (1.0 - per_child) ** average_given_positive
        )

    def per_child_satisfaction(self, chain: EmbeddingNode) -> float:
        """P(one specific child of the chain's node satisfies the chain):
        its own predicates times the probability of the remaining steps."""
        rate = self.local_factor(chain)
        if chain.children:
            rate *= self.branch_chain(chain.node_id, chain.children[0])
        return min(1.0, max(0.0, rate))


class TwigEstimator:
    """Estimates twig-query selectivities over one :class:`TwigXSketch`.

    Args:
        sketch: the synopsis to estimate over; the estimator reads its
            :meth:`~TwigXSketch.compiled` form.
        max_depth: cap on ``//`` expansion length.
        max_embeddings: cap on enumerated embeddings per query.
        metrics: optional registry for lookup and clamp counters — ``None``
            (the default) records nothing, keeping XBUILD's inner
            estimation loop free of instrumentation cost.
        explain: optional :class:`~repro.obs.explain.ExplainRecorder`
            capturing the expansion trail and histogram lookups.
    """

    def __init__(
        self,
        sketch: TwigXSketch,
        max_depth: int = DEFAULT_MAX_DESCENDANT_DEPTH,
        max_embeddings: int = 4096,
        branch_conditioning: bool = True,
        *,
        metrics: Optional[MetricsRegistry] = None,
        explain: Optional[ExplainRecorder] = None,
    ):
        self.sketch = sketch
        self.max_depth = max_depth
        self.max_embeddings = max_embeddings
        #: condition joint histograms on covered branch predicates instead
        #: of assuming branch/count independence (ablation E11)
        self.branch_conditioning = branch_conditioning
        self._explain = explain
        self._tallies = tally_counters(metrics)
        self._estimates = self._embeddings_counter = None
        if metrics is not None:
            self._estimates = metrics.counter(
                "estimator_estimates_total", "twig estimates computed"
            )
            self._embeddings_counter = metrics.counter(
                "estimator_embeddings_total",
                "embeddings contributing to estimates",
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def estimate(self, query: TwigQuery) -> float:
        """Estimated selectivity ``s(T_Q)`` (sum over embeddings)."""
        return self.report(query).selectivity

    def report(self, query: TwigQuery) -> EstimateReport:
        """Estimate with diagnostics."""
        budget = EmbeddingBudget(self.max_embeddings)
        embeddings = enumerate_embeddings(
            query, self.sketch.graph, self.max_depth, budget
        )
        run = Evaluation(self.sketch.compiled(), self._explain)
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_QUERY,
                query.text().replace("\n", " "),
                f"{len(embeddings)} embeddings"
                + (", truncated" if budget.truncated else ""),
            )
        statics: dict = {}
        total = sum(self._embedding(run, e, statics) for e in embeddings)
        self._finish(run, len(embeddings))
        if self._explain is not None:
            self._explain.record(
                _explain.KIND_RESULT, "selectivity", value=total
            )
        return EstimateReport(
            total, len(embeddings), budget.truncated, sum(run.clamps.values())
        )

    def estimate_many(
        self,
        queries: Sequence[TwigQuery],
        *,
        context: Optional[BatchContext] = None,
    ) -> list[float]:
        """Batch estimation: one selectivity per query, in query order.

        Values are bit-identical to per-query :meth:`estimate` — the
        batch caches memoize pure functions of the query plan — but
        queries sharing plans or subtree structure pay once.  Pass a
        :class:`BatchContext` to carry the caches across calls (e.g. a
        serving worker's lifetime).
        """
        return [
            report.selectivity
            for report in self.report_many(queries, context=context)
        ]

    def report_many(
        self,
        queries: Sequence[TwigQuery],
        *,
        context: Optional[BatchContext] = None,
    ) -> list[EstimateReport]:
        """Batch :meth:`report`; see :meth:`estimate_many`."""
        if self._explain is not None:
            # explain trails are per-query by contract; shared memo hits
            # would hide lookups from the recording, so fall back
            return [self.report(query) for query in queries]
        if context is None:
            # a private one-call context: skip the signature keying —
            # it only pays off when plans outlive the call
            context = BatchContext(keyed=False)
        return [self._report_batched(query, context) for query in queries]

    def _report_batched(
        self, query: TwigQuery, context: BatchContext
    ) -> EstimateReport:
        key = query.text()
        entry = context.plans.get(key)
        if entry is None:
            budget = EmbeddingBudget(self.max_embeddings)
            embeddings = enumerate_embeddings(
                query, self.sketch.graph, self.max_depth, budget
            )
            prepared = []
            statics: dict = {}
            for embedding in embeddings:
                plans = tree_parse(
                    embedding,
                    self.sketch,
                    self.branch_conditioning,
                    statics=statics,
                )
                keys = (
                    _plan_keys(embedding.root, plans, context)
                    if context.keyed
                    else None
                )
                prepared.append((embedding.root, plans, keys))
            entry = (prepared, budget.truncated)
            context.plans[key] = entry
        prepared, truncated = entry
        run = Evaluation(self.sketch.compiled())
        total = 0.0
        for root, plans, keys in prepared:
            base = float(run.compiled.node(root.node_id).count)
            total += base * run.expand(
                root, plans, (), context.memo, keys=keys, batch=context
            )
        self._finish(run, len(prepared))
        return EstimateReport(
            total, len(prepared), truncated, sum(run.clamps.values())
        )

    def _embedding(
        self, run: Evaluation, embedding: Embedding, statics: dict
    ) -> float:
        """The selectivity of one embedding: ``|n_0| ·`` root expansion."""
        plans = tree_parse(
            embedding, self.sketch, self.branch_conditioning, statics=statics
        )
        root = embedding.root
        base = float(run.compiled.node(root.node_id).count)
        memo: dict[tuple, float] = {}
        if self._explain is None:
            return base * run.expand(root, plans, (), memo)
        frame = self._explain.enter(
            _explain.KIND_EMBEDDING,
            f"root {run.label(root.node_id)}",
            f"|root| = {base:g}",
        )
        total = base * run.expand(root, plans, (), memo)
        self._explain.exit(frame, total)
        return total

    def _finish(self, run: Evaluation, embeddings: int) -> None:
        """Add one estimate's counts and tallies to the metrics."""
        run.record(self._tallies)
        if self._estimates is not None:
            self._estimates.inc()
            self._embeddings_counter.inc(embeddings)


def tally_counters(metrics: Optional[MetricsRegistry]):
    """The counters an :class:`Evaluation` adds its tallies to:
    ``estimator_lookups_total{kind}`` and ``estimate_clamped_total{reason}``
    of ``metrics``, or None without a registry."""
    if metrics is None:
        return None
    return (
        metrics.counter(
            "estimator_lookups_total",
            "estimator statistics lookups, by kind",
            ["kind"],
        ),
        metrics.counter(
            "estimate_clamped_total",
            "degenerate ratios estimation used as 0.0, by reason "
            "(zero_denominator, non_finite)",
            ["reason"],
        ),
    )


def _plan_keys(
    root: EmbeddingNode, plans: dict[int, NodePlan], context: BatchContext
) -> dict[int, int]:
    """Interned plan signatures for every embedding node, keyed by id.

    The signature is a pure function of everything
    :meth:`Evaluation.expand` reads for the node's subtree: the synopsis
    node, the value and branch predicates (which, with the children, fix
    the node's static plan), the conditioning set ``D_i``, and the
    children's own interned keys, computed bottom-up.  Two nodes with
    equal keys therefore produce bit-identical subtree factors for equal
    relevant contexts, which is what lets the batch memo be shared across
    embeddings and queries.

    Static plans depend on the sketch, so keys are only comparable within
    one sketch (one :class:`BatchContext`).
    """
    keys: dict[int, int] = {}

    def visit(node: EmbeddingNode) -> int:
        for child in node.children:
            visit(child)
        signature = (
            node.node_id,
            node.value_pred,
            tuple(
                tuple(chain.signature() for chain in alternative)
                for alternative in node.branches
            ),
            plans[id(node)].conditions,
            tuple(keys[id(child)] for child in node.children),
        )
        key = context.intern(signature)
        keys[id(node)] = key
        return key

    visit(root)
    return keys
