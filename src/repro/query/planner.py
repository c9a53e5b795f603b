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

**The window term.** A ranked plan seeded at step 0 runs purely
forward and walks its heads lazily, in rank order, one
:data:`FORWARD_BLOCK` at a time: once ``k = offset + limit`` results
are held it probes no further head, while a later seed first reduces
every candidate of its scan backward. So when a windowed ranked plan
of two steps would seed later, but seed 0's cost scaled down to one
block could still beat it, the planner probes one block of seed 0's
admitted heads through the join (into the engine's forward probe
memo, where the run that follows finds those answers) and charges
seed 0 only for the heads the observed fan-out says fill ``k``,
rounded up to whole blocks. A sample with no hits leaves the cost as
it was. The term only applies where the enumerator can stop: no
descendant-hop discounts (a distance-aware index) and no ``~tag`` at
step 1, whose scores could let a later head still beat the k-th.
Longer chains keep the plain cost, because the first join's fan-out
says nothing about how many results a head yields after the later
joins. Count plans and limit-free plans never sample.

Join orders are restricted to *contiguous* prefixes growing around the
seed step (a zig-zag order): every join still connects a bound
position to an adjacent unbound one, so no cross-product is ever
formed and any seed yields the same result set (pinned by the
planner-soundness property tests; ``plan_query(start=)`` forces the
seed for them).

:class:`PreparedQuery` is the parse-once handle: the AST and canonical
plan key are computed once, while the physical plan is planned from
the AST per engine binding (cardinalities move with every epoch's tag index — the
service layer binds one prepared query per published epoch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.pathexpr import PathExpression, parse_path

#: Relative unit cost of one forward (``descendants``-side, one source
#: of an ``intersect_many`` block) descendant probe.
FORWARD_COST = 0.35
#: Relative unit cost of one backward (``ancestors``-side
#: materialisation) descendant probe.
BACKWARD_COST = 1.3
#: Descendant-join block size: how many partial bindings the ranked
#: enumerator pulls before issuing one batched ``intersect_many``
#: prefetch for their sources, and the sample the window term probes.
#: Bounds the work a small window wastes: a block is probed whole even
#: when its first partials fill the top k.
FORWARD_BLOCK = 32


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
    """An executable join order over a parsed path expression.

    Attributes:
        expr: the planned expression; the operators read each step's
            axis and ``[predicate]`` filters from it, the engine its
            ``offset``/``limit`` window.
        ops: pipeline stages, one per step, scan first.
        estimates: per-position candidate-cardinality estimates the
            order was chosen from.
        k: the ranked window ``offset + limit`` the seed was chosen
            for; ``None`` for a limit-free or a counting plan.
        sampled: ``(heads, hits)`` of the window term's sample — one
            block of seed 0's admitted heads and the admitted
            candidates of step 1 they join to — or ``None`` when the
            planner took no sample.
    """

    expr: PathExpression
    ops: Tuple[PhysicalOp, ...]
    estimates: Tuple[int, ...]
    k: Optional[int] = None
    sampled: Optional[Tuple[int, int]] = None

    @property
    def key(self) -> str:
        """The canonical cache key of the query. Parsing normalises
        whitespace and clause order, so every spelling of the same query
        shares one key: the service keys its plan cache and its
        ``(key, epoch)`` result cache by it."""
        return str(self.expr)

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
            "seeding": self.seeding(),
            "execution": self.execution_profile(mode),
        }

    def seeding(self) -> Dict[str, object]:
        """The window term's inputs: ``k`` and the sampled fan-out
        (hits per sampled head), or ``"not sampled"``."""
        if self.sampled is None:
            return {"k": self.k, "fan_out": "not sampled"}
        heads, hits = self.sampled
        return {
            "k": self.k,
            "fan_out": hits / heads if heads else 0.0,
            "sampled_heads": heads,
            "sampled_hits": hits,
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
        if self.k is not None:
            fan_out = self.seeding()["fan_out"]
            if self.sampled is not None:
                heads, hits = self.sampled
                fan_out = f"{fan_out:.2f} ({hits} hits from {heads} heads)"
            lines.append(f"seed:  window k={self.k}; fan-out {fan_out}")
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
            estimates.append(engine._memo(step).anchored(engine.collection.elements))
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


def _window_cost(
    cost: float, estimate: int, k: int, sampled: Tuple[int, int]
) -> float:
    """Seed 0's modeled cost when it stops at ``k`` results: its full
    cost scaled to the heads the sampled fan-out says fill ``k``,
    rounded up to whole blocks (a block is probed whole)."""
    heads, hits = sampled
    needed = math.ceil(k * heads / hits)
    walked = min(estimate, math.ceil(needed / FORWARD_BLOCK) * FORWARD_BLOCK)
    return cost * walked / estimate


def plan_query(
    path: "str | PathExpression",
    engine,
    *,
    start: Optional[int] = None,
    directional: bool = False,
) -> PhysicalPlan:
    """Choose a physical join order for ``path`` against ``engine``.

    Args:
        path: the query — a string (parsed here) or a parsed
            expression (what :class:`PreparedQuery` passes, so the hot
            path never re-parses).
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
        cost is lowest (ties go to the leftmost seed), with the window
        term applied to seed 0 (see the module docstring).
    """
    expr = parse_path(path) if isinstance(path, str) else path
    estimates = estimate_cardinalities(expr, engine)
    n = len(expr.steps)
    if start is not None:
        seeds: Sequence[int] = (start,)
    elif directional:
        seeds = (0, n - 1)
    else:
        seeds = range(n)
    orders = {seed: order_steps(expr, estimates, start=seed) for seed in seeds}
    costs = {seed: cost for seed, (_, cost) in orders.items()}
    k = None
    if not directional and expr.limit is not None:
        k = expr.offset + expr.limit
    sampled = None
    seed = min(costs, key=lambda s: (costs[s], s))
    if (
        start is None and k and seed != 0 and n == 2
        and not expr.steps[1].similar
        and costs[0] * min(estimates[0], FORWARD_BLOCK) / estimates[0]
        < costs[seed]
    ):
        # the sample lands in the engine's probe memo, where the run
        # finds it
        if not engine.index.is_distance_aware:
            sampled = engine.context().sample_first_join(
                PhysicalPlan(expr, orders[0][0], estimates)
            )
            if sampled[1]:
                costs[0] = _window_cost(costs[0], estimates[0], k, sampled)
                seed = min(costs, key=lambda s: (costs[s], s))
    if directional and seed not in (0, n - 1):
        raise ValueError(
            f"directional plans must seed at an endpoint, got {seed}"
        )
    return PhysicalPlan(expr, orders[seed][0], estimates, k, sampled)


class PreparedQuery:
    """A query parsed once, plannable per engine/epoch.

    The AST and the canonical plan key are immutable; the *physical*
    plan depends on an engine's tag-index cardinalities, so it is
    derived per :meth:`bind` — the service layer prepares once per
    distinct query text and binds per published epoch.

    Attributes:
        expr: the parsed expression.
        key: the canonical plan key (cache key for plans and results).
    """

    def __init__(self, path: "str | PathExpression") -> None:
        self.expr = parse_path(path) if isinstance(path, str) else path
        self.key: str = str(self.expr)

    def bind(self, engine, *, directional: bool = False) -> PhysicalPlan:
        """Plan against one engine's current cardinalities (the parsed
        expression is reused — no re-parse)."""
        return plan_query(self.expr, engine, directional=directional)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PreparedQuery({self.key!r})"
