"""Selectivity-driven physical planning for path queries.

The legacy evaluator hard-coded one left-to-right order, so a query
with a highly selective *tail* step (``//*//rare_tag``) materialised
every intermediate binding of the unselective head before the tail
pruned them. HOPI's connection tests are symmetric probes (the 2-hop
cover answers ``u →* v`` from either endpoint: ``descendants(u)`` or
``ancestors(v)``), which makes step reordering sound — so the planner
estimates each step's candidate cardinality from the engine's tag
index and evaluates outward from the step where the modeled probe cost
is lowest, flipping descendant joins to **backward probes over the
cover's ``ancestors`` side** when the selective step sits to their
right.

The two directions do not cost the same: the cover answers a
forward block with one center map of the candidates plus one lookup
per ``Lout`` entry of each source, while a backward probe materialises
an ancestor set per target. Each descendant join's candidate estimate is weighted by
:data:`FORWARD_COST` or :data:`BACKWARD_COST`; child joins follow
parent pointers and weigh 1. The weights only ever move the plan,
never the answers.

Join orders are restricted to *contiguous* prefixes growing around the
seed step (a zig-zag order): every join still connects a bound
position to an adjacent unbound one, so no cross-product is ever
formed and any seed yields the same result set (pinned by the
planner-soundness property tests; ``plan_query(start=)`` forces the
seed for them).

:class:`PreparedQuery` is the parse-once handle: the AST and canonical
plan key are computed once, while the physical plan is re-derived per
engine binding (cardinalities move with every epoch's tag index — the
service layer binds one prepared query per published epoch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.pathexpr import PathExpression, Predicate, parse_path
from repro.query.plan import LogicalPlan, build_logical_plan

#: Relative unit cost of one forward (``descendants``-side, one source
#: of an ``intersect_many`` block) descendant probe.
FORWARD_COST = 0.35
#: Relative unit cost of one backward (``ancestors``-side
#: materialisation) descendant probe.
BACKWARD_COST = 1.3


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
    """

    logical: LogicalPlan
    ops: Tuple[PhysicalOp, ...]
    estimates: Tuple[int, ...]

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
        """How an endpoint ``mode`` runs this plan — which operator
        work is skipped entirely.

        ``mode`` is ``"evaluate"`` or ``"count"``. ``evaluate`` runs
        the ranked top-k enumerator — ``reduced`` lists the positions
        it narrows to sets before any tuple exists (those the order
        reaches backward), ``k`` is ``offset + limit`` with the
        engine's ``max_results`` standing in for a missing limit;
        ``count`` aggregates frontiers and never scores, ranks or
        materialises tuples.
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
        raise ValueError(
            f"unknown execution mode {mode!r}; one of ('evaluate', 'count')"
        )

    def describe(self, mode: str = "evaluate") -> Dict[str, object]:
        """A JSON-safe description (the ``/v1/explain`` payload)."""
        expr = self.expr
        return {
            "path": str(expr),
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

    def explain(self, mode: str = "evaluate") -> str:
        """A human-readable rendering (``repro query --explain``)."""
        expr = self.expr
        lines = [f"query: {expr}", "order:"]
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
        reduced = profile.get("reduced")
        lines.append(
            f"exec:  {profile['mode']} via {profile['strategy']}"
            + (f"; reduced: steps {reduced}" if reduced else "")
            + f"; skipped: {', '.join(profile['skipped'])}"
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
    expr: PathExpression, estimates: Tuple[int, ...], *, start: int
) -> Tuple[Tuple[PhysicalOp, ...], float]:
    """The greedy zig-zag order seeded at ``start`` and its modeled
    total probe cost.

    Grows the bound range one adjacent position at a time, always
    taking the side with the smaller *weighted* candidate estimate
    (ties extend forward, matching the legacy bias). Each join stage is
    charged for its *frontier*: extending forward from ``hi`` issues
    one probe per candidate bound at ``hi`` (``estimates[hi]`` times
    the forward unit), extending backward from ``lo`` charges
    ``estimates[lo]`` times the backward unit; the seed contributes its
    scan cardinality.
    """
    n = len(expr.steps)
    if not 0 <= start < n:
        raise ValueError(f"start must be a step position in [0, {n}), got {start}")

    def unit(position: int, cost: float) -> float:
        # descendant joins probe the cover; child joins follow parent
        # pointers, whichever the direction
        return cost if expr.steps[position].axis == "descendant" else 1.0

    ops = [PhysicalOp("scan", start, "seed")]
    total = float(estimates[start])
    lo = hi = start
    while lo > 0 or hi < n - 1:
        # the edge between lo-1 and lo belongs to steps[lo]
        left = (
            estimates[lo - 1] * unit(lo, BACKWARD_COST) if lo > 0 else None
        )
        right = (
            estimates[hi + 1] * unit(hi + 1, FORWARD_COST)
            if hi < n - 1 else None
        )
        if right is not None and (left is None or right <= left):
            total += estimates[hi] * unit(hi + 1, FORWARD_COST)
            hi += 1
            position, direction = hi, "forward"
            axis = expr.steps[hi].axis
        else:
            total += estimates[lo] * unit(lo, BACKWARD_COST)
            axis = expr.steps[lo].axis
            lo -= 1
            position, direction = lo, "backward"
        ops.append(PhysicalOp(
            "child" if axis == "child" else "descendant", position, direction
        ))
    return tuple(ops), total


def plan_query(
    path: "str | PathExpression | LogicalPlan",
    engine,
    *,
    start: Optional[int] = None,
    directional: bool = False,
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
        start: force the seed position (the soundness tests' hook;
            implies the greedy zig-zag growth around it).
        directional: restrict the seed to an endpoint (position 0 or
            the last step), so execution runs purely forward or purely
            backward — required by the aggregated counting path, whose
            per-element multiplicity map only exists at a chain's open
            end.

    Returns:
        The :class:`PhysicalPlan` seeded where the modeled total probe
        cost is lowest (ties go to the leftmost seed).
    """
    logical = path if isinstance(path, LogicalPlan) else build_logical_plan(path)
    expr = logical.expr
    estimates = estimate_cardinalities(expr, engine)
    n = len(expr.steps)
    if start is not None:
        seeds: Sequence[int] = (start,)
    elif directional:
        seeds = (0, n - 1)
    else:
        seeds = range(n)
    orders = {seed: order_steps(expr, estimates, start=seed) for seed in seeds}
    seed = min(orders, key=lambda s: (orders[s][1], s))
    if directional and seed not in (0, n - 1):
        raise ValueError(
            f"directional plans must seed at an endpoint, got {seed}"
        )
    return PhysicalPlan(logical, orders[seed][0], estimates)


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

    def bind(self, engine, *, directional: bool = False) -> PhysicalPlan:
        """Plan against one engine's current cardinalities (the cached
        logical plan is reused — no re-parse, no re-lowering)."""
        return plan_query(self.logical, engine, directional=directional)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PreparedQuery({self.key!r})"
