"""Selectivity-driven physical planning for path queries.

The legacy evaluator hard-coded one left-to-right order, so a query
with a highly selective *tail* step (``//*//rare_tag``) materialised
every intermediate binding of the unselective head before the tail
pruned them. HOPI's connection tests are symmetric probes (the 2-hop
cover answers ``u →* v`` from either endpoint: ``descendants(u)`` or
``ancestors(v)``), which makes step reordering sound — so the planner
estimates each step's candidate cardinality from the engine's tag
index and evaluates outward from the most selective step, flipping
descendant joins to **backward probes over the cover's ``ancestors``
side** when the selective step sits to their right.

Join orders are restricted to *contiguous* prefixes growing around the
start step (a zig-zag order): every join still connects a bound
position to an adjacent unbound one, so no cross-product is ever
formed and any start yields the same result set (pinned by the
planner-soundness property tests).

:class:`PreparedQuery` is the parse-once handle: the AST and canonical
plan key are computed once, while the physical plan is re-derived per
engine binding (cardinalities move with every epoch's tag index — the
service layer binds one prepared query per published epoch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.query.cost import NEUTRAL_COST_MODEL, ProbeCostModel
from repro.query.pathexpr import PathExpression, Predicate, parse_path
from repro.query.plan import LogicalPlan, build_logical_plan

#: Planner modes: ``"selective"`` starts at the lowest-cardinality step
#: and grows greedily; ``"naive"`` reproduces the legacy left-to-right
#: order (kept as the reference for differential tests).
PLANNER_MODES = ("selective", "naive")


@dataclass(frozen=True)
class PhysicalOp:
    """One pipeline stage of a physical plan.

    Attributes:
        op: ``"scan"``, ``"child"`` or ``"descendant"``.
        position: the step index this stage binds.
        direction: ``"seed"`` for the scan; ``"forward"`` when the
            predecessor is already bound (probe ``descendants`` /
            follow parent pointers down); ``"backward"`` when the
            successor is bound (probe the ``ancestors`` side / follow
            the parent pointer up).
    """

    op: str
    position: int
    direction: str


@dataclass(frozen=True)
class PhysicalPlan:
    """An executable join order over a :class:`LogicalPlan`.

    Attributes:
        logical: the logical plan this orders.
        ops: pipeline stages, one per step, scan first.
        estimates: per-position candidate-cardinality estimates the
            order was chosen from.
        mode: the planner mode that produced the order.
        cost_model: the per-direction probe cost model the order was
            weighed with (None = direction-blind legacy behaviour).
    """

    logical: LogicalPlan
    ops: Tuple[PhysicalOp, ...]
    estimates: Tuple[int, ...]
    mode: str
    cost_model: Optional[ProbeCostModel] = None

    @property
    def expr(self) -> PathExpression:
        """The planned expression."""
        return self.logical.expr

    @property
    def key(self) -> str:
        """The canonical plan key (shared with the logical plan)."""
        return self.logical.key

    def filters_at(self, position: int) -> Tuple[Predicate, ...]:
        """The logical :class:`~repro.query.plan.Filter` predicates
        guarding ``position`` (what the operators evaluate inline)."""
        return self.logical.filters_at(position)

    def execution_profile(self, mode: str = "evaluate") -> Dict[str, object]:
        """How an evaluation ``mode`` runs this plan — which operator
        work is short-circuited or skipped entirely.

        ``mode`` is one of ``"evaluate"``, ``"stream"``, ``"count"``,
        ``"exists"``. The profile makes the short-circuit paths
        explicit: ``evaluate`` always runs the one ranked top-k
        enumerator — ``reduced`` lists the positions it narrows to sets
        before any tuple exists (those the order reaches backward),
        ``k`` is ``offset + limit`` with the engine's ``max_results``
        standing in for a missing limit; ``count`` aggregates frontiers
        and never scores, ranks or materialises tuples; ``exists``
        stops the pipeline at the first full binding.
        """
        expr = self.expr
        if mode == "evaluate":
            if expr.limit is not None:
                k = str(expr.offset + expr.limit)
            else:
                k = f"{expr.offset}+max_results" if expr.offset else "max_results"
            reduced = sorted(
                op.position for op in self.ops if op.direction == "backward"
            )
            skipped = ["partials bounded out of the top k", "full sort"]
            if reduced:
                skipped.insert(0, "tuples at reduced positions")
            return {
                "mode": mode,
                "strategy": f"ranked-topk(k={k})",
                "reduced": reduced,
                "skipped": skipped,
                "note": (
                    "reduced positions shrink to sets by semi-join from "
                    "the seed; bindings are then enumerated left to right "
                    "in rank order and a partial is dropped once k "
                    "results are held and its score bound sorts after "
                    "the k-th"
                ),
            }
        if mode == "stream":
            return {
                "mode": mode,
                "strategy": "lazy-stream",
                "skipped": ["ranking"],
                "note": (
                    "unranked pipeline order; the expression limit stops "
                    "the pipeline as soon as it is filled"
                ),
            }
        if mode == "count":
            return {
                "mode": mode,
                "strategy": "frontier-aggregation",
                "skipped": ["scoring", "ranking", "tuple materialisation"],
                "note": (
                    "directional plan aggregates element → multiplicity "
                    "per frontier; no binding tuples are ever built, and a "
                    "final unfiltered descendant join adds probe-answer "
                    "sizes instead of walking the answers"
                ),
            }
        if mode == "exists":
            return {
                "mode": mode,
                "strategy": "first-match",
                "skipped": ["scoring", "ranking",
                            "every binding after the first"],
                "note": "pipeline stops at the first full binding",
            }
        raise ValueError(
            f"unknown execution mode {mode!r}; one of "
            "('evaluate', 'stream', 'count', 'exists')"
        )

    def describe(self, mode: str = "evaluate") -> Dict[str, object]:
        """A JSON-safe description (the ``/v1/explain`` payload)."""
        expr = self.expr
        payload: Dict[str, object] = {
            "path": str(expr),
            "mode": self.mode,
            "steps": [
                {
                    "position": i,
                    "step": str(step),
                    "axis": step.axis,
                    "predicates": len(step.predicates),
                    "estimate": self.estimates[i],
                }
                for i, step in enumerate(expr.steps)
            ],
            "order": [
                {"op": op.op, "position": op.position,
                 "direction": op.direction}
                for op in self.ops
            ],
            "limit": expr.limit,
            "offset": expr.offset,
            "execution": self.execution_profile(mode),
        }
        if self.cost_model is not None:
            cm = self.cost_model
            payload["cost_model"] = {
                "forward": cm.forward,
                "backward": cm.backward,
                "source": cm.source,
            }
        return payload

    def explain(self, mode: str = "evaluate") -> str:
        """A human-readable rendering (``repro query --explain``)."""
        expr = self.expr
        lines = [f"query: {expr}", f"mode:  {self.mode}", "order:"]
        arrows = {"seed": "·", "forward": "→", "backward": "←"}
        for rank, op in enumerate(self.ops, 1):
            step = expr.steps[op.position]
            detail = {
                "scan": "tag-index scan",
                "child": f"child join ({'parent pointers' if op.direction == 'backward' else 'children of bound parent'})",
                "descendant": (
                    "descendant join (backward probe: ancestors side)"
                    if op.direction == "backward"
                    else "descendant join (forward probe: descendants side)"
                ),
            }[op.op]
            predicates = (
                f", {len(step.predicates)} predicate(s)"
                if step.predicates
                else ""
            )
            lines.append(
                f"  {rank}. {arrows[op.direction]} step {op.position} "
                f"{step}  — {detail}, ~{self.estimates[op.position]} "
                f"candidates{predicates}"
            )
        if self.cost_model is not None and not self.cost_model.neutral:
            cm = self.cost_model
            lines.append(
                f"costs: forward x{cm.forward:g}, backward x{cm.backward:g} "
                f"({cm.source} model)"
            )
        window = []
        if expr.offset:
            window.append(f"offset {expr.offset}")
        if expr.limit is not None:
            window.append(f"limit {expr.limit}")
        lines.append(
            "rank:  score desc, bindings asc"
            + (f"; window: {' '.join(window)}" if window else "")
        )
        profile = self.execution_profile(mode)
        skipped = profile["skipped"]
        reduced = profile.get("reduced")
        lines.append(
            f"exec:  {profile['mode']} via {profile['strategy']}"
            + (f"; reduced: steps {reduced}" if reduced else "")
            + (f"; skipped: {', '.join(skipped)}" if skipped else "")
        )
        return "\n".join(lines)


def estimate_cardinalities(expr: PathExpression, engine) -> Tuple[int, ...]:
    """Per-step candidate cardinalities from the engine's tag index.

    Position 0 of an absolute path counts only document roots (the
    anchor filter is applied before any join fans out).
    """
    estimates: List[int] = []
    for i, step in enumerate(expr.steps):
        if i == 0 and step.axis == "child":
            estimates.append(engine._anchored_count(step))
        else:
            estimates.append(len(engine._candidates(step)))
    return tuple(estimates)


def order_steps(
    expr: PathExpression,
    estimates: Tuple[int, ...],
    *,
    start: int,
    cost_model: Optional[ProbeCostModel] = None,
) -> Tuple[PhysicalOp, ...]:
    """The greedy zig-zag order seeded at ``start``.

    Grows the bound range one adjacent position at a time, always
    taking the side with the smaller *weighted* candidate estimate:
    each side's estimate is multiplied by the cost model's per-probe
    unit for the direction that side would be joined in (ties extend
    forward, matching the legacy bias). With a neutral (or absent)
    model every weight is 1.0 and the order reduces exactly to the
    legacy count-only comparison.
    """
    n = len(expr.steps)
    if not 0 <= start < n:
        raise ValueError(f"start must be a step position in [0, {n}), got {start}")
    cm = cost_model or NEUTRAL_COST_MODEL
    ops = [PhysicalOp("scan", start, "seed")]
    lo = hi = start
    while lo > 0 or hi < n - 1:
        left = (
            estimates[lo - 1] * cm.unit(expr.steps[lo].axis, "backward")
            if lo > 0 else None
        )
        right = (
            estimates[hi + 1] * cm.unit(expr.steps[hi + 1].axis, "forward")
            if hi < n - 1 else None
        )
        if right is not None and (left is None or right <= left):
            hi += 1
            axis = expr.steps[hi].axis
            ops.append(PhysicalOp(
                "child" if axis == "child" else "descendant", hi, "forward"
            ))
        else:
            # the edge between lo-1 and lo belongs to steps[lo]
            axis = expr.steps[lo].axis
            lo -= 1
            ops.append(PhysicalOp(
                "child" if axis == "child" else "descendant", lo, "backward"
            ))
    return tuple(ops)


def plan_cost(
    expr: PathExpression,
    estimates: Tuple[int, ...],
    cost_model: ProbeCostModel,
    *,
    start: int,
) -> float:
    """The modeled total probe cost of the greedy order seeded at
    ``start``.

    Simulates the same growth :func:`order_steps` performs and charges
    each join stage for its *frontier*: extending forward from ``hi``
    to ``hi + 1`` issues one probe per candidate currently bound at
    ``hi`` (so ``estimates[hi] × unit(axis, "forward")``), and
    extending backward from ``lo`` to ``lo - 1`` charges
    ``estimates[lo] × unit(axis, "backward")``. The seed itself
    contributes its scan cardinality. With a neutral model the
    directional endpoint comparison preserves the legacy rule (a
    two-step total is twice its endpoint estimate, so the cheaper
    endpoint still wins) — the planner uses the legacy rules directly
    in that case and only consults this function for skewed models.
    """
    n = len(expr.steps)
    cm = cost_model
    total = float(estimates[start])
    lo = hi = start
    while lo > 0 or hi < n - 1:
        left = (
            estimates[lo - 1] * cm.unit(expr.steps[lo].axis, "backward")
            if lo > 0 else None
        )
        right = (
            estimates[hi + 1] * cm.unit(expr.steps[hi + 1].axis, "forward")
            if hi < n - 1 else None
        )
        if right is not None and (left is None or right <= left):
            total += estimates[hi] * cm.unit(
                expr.steps[hi + 1].axis, "forward"
            )
            hi += 1
        else:
            total += estimates[lo] * cm.unit(
                expr.steps[lo].axis, "backward"
            )
            lo -= 1
    return total


def plan_query(
    path: "str | PathExpression | LogicalPlan",
    engine,
    *,
    order: str = "selective",
    start: Optional[int] = None,
    directional: bool = False,
    cost_model: Optional[ProbeCostModel] = None,
) -> PhysicalPlan:
    """Choose a physical join order for ``path`` against ``engine``.

    Args:
        path: the query — a string, a parsed expression, or an
            already-lowered :class:`LogicalPlan` (what
            :class:`PreparedQuery` passes, so the hot path never
            re-lowers).
        engine: the :class:`~repro.query.engine.QueryEngine` whose tag
            index supplies cardinality estimates (and whose candidate
            memos the operators will read).
        order: ``"selective"`` (default) or ``"naive"``
            (legacy left-to-right; see :data:`PLANNER_MODES`).
        start: force the seed position (testing hook; implies the
            greedy zig-zag growth around it).
        directional: restrict the seed to an endpoint (position 0 or
            the last step), so execution runs purely forward or purely
            backward — required by the aggregated counting path, whose
            per-element multiplicity map only exists at a chain's open
            end.
        cost_model: override the per-direction probe cost model;
            defaults to the engine's (``engine.cost_model``, itself
            sourced from the index). Direction and seed
            decisions weight candidate estimates by it; a neutral
            model reproduces the legacy count-only decisions exactly.

    Returns:
        The chosen :class:`PhysicalPlan`.
    """
    logical = path if isinstance(path, LogicalPlan) else build_logical_plan(path)
    expr = logical.expr
    estimates = estimate_cardinalities(expr, engine)
    n = len(expr.steps)
    cm = cost_model or getattr(engine, "cost_model", None) or NEUTRAL_COST_MODEL
    mode = order
    if start is not None:
        mode = f"forced[{start}]"
        seed = start
    elif order == "naive":
        seed = 0
    elif order == "selective":
        if directional:
            if cm.neutral:
                seed = 0 if estimates[0] <= estimates[n - 1] else n - 1
            else:
                fwd = plan_cost(expr, estimates, cm, start=0)
                bwd = plan_cost(expr, estimates, cm, start=n - 1)
                seed = 0 if fwd <= bwd else n - 1
        elif cm.neutral:
            seed = min(range(n), key=lambda i: (estimates[i], i))
        else:
            seed = min(
                range(n),
                key=lambda i: (plan_cost(expr, estimates, cm, start=i), i),
            )
    else:
        raise ValueError(
            f"unknown planner mode {order!r}; one of {PLANNER_MODES}"
        )
    if directional and seed not in (0, n - 1):
        raise ValueError(
            f"directional plans must seed at an endpoint, got {seed}"
        )
    return PhysicalPlan(
        logical,
        order_steps(expr, estimates, start=seed, cost_model=cm),
        estimates,
        mode,
        cost_model=None if cm is NEUTRAL_COST_MODEL else cm,
    )


class PreparedQuery:
    """A query parsed and lowered once, plannable per engine/epoch.

    The AST and the canonical plan key are immutable; the *physical*
    plan depends on an engine's tag-index cardinalities, so it is
    derived per :meth:`bind` — the service layer prepares once per
    distinct query text and binds per published epoch.

    Attributes:
        expr: the parsed expression.
        logical: the lowered logical plan.
        key: the canonical plan key (cache key for plans and results).
    """

    def __init__(self, path: "str | PathExpression") -> None:
        self.expr = parse_path(path) if isinstance(path, str) else path
        self.logical: LogicalPlan = build_logical_plan(self.expr)
        self.key: str = self.logical.key

    def bind(
        self, engine, *, order: Optional[str] = None,
        directional: bool = False,
    ) -> PhysicalPlan:
        """Plan against one engine's current cardinalities (the cached
        logical plan is reused — no re-parse, no re-lowering)."""
        return plan_query(
            self.logical, engine,
            order=order or getattr(engine, "planner", "selective"),
            directional=directional,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PreparedQuery({self.key!r})"
