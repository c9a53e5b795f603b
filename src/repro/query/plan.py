"""Logical query plans — the middle layer of the query stack.

The query stack is three explicit layers::

    AST (pathexpr)  →  logical plan (this module)  →  physical plan
                                                       (planner) →
                                                       operators (exec)

A :class:`LogicalPlan` is a linear chain of relational nodes derived
1:1 from the AST — *what* to compute, with no ordering decisions:

* :class:`Scan` — bind a step's candidates from the tag index;
* :class:`ChildJoin` / :class:`DescendantJoin` — connect a position to
  its predecessor along the tree (parent pointer) or the HOPI cover
  (reachability probe);
* :class:`Filter` — a ``[predicate]`` existence test on one position;
* :class:`Rank` — score (tag similarity × distance discounts) and sort;
* :class:`Limit` — the expression's ``offset``/``limit`` window.

The :mod:`repro.query.planner` turns this into a
:class:`~repro.query.planner.PhysicalPlan` by choosing a join *order*
and *direction* per join (forward via ``descendants``, backward via the
cover's ``ancestors`` side); :mod:`repro.query.exec` then streams
bindings through generator operators.

:attr:`LogicalPlan.key` is the canonical cache key shared by the
service layer's plan and result caches: two spellings of the same query
(extra whitespace, ``offset``/``limit`` order) map to one key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.query.pathexpr import PathExpression, Predicate, parse_path


@dataclass(frozen=True)
class Scan:
    """Bind ``position`` from the tag index (no join).

    Attributes:
        position: the step index this node binds.
        tag: the element test (``"*"`` matches every tag).
        similar: True for ``~tag`` similarity tests.
        anchored: True when this is position 0 of an absolute path
            (leading ``/``) — only document roots qualify.
    """

    position: int
    tag: str
    similar: bool
    anchored: bool


@dataclass(frozen=True)
class ChildJoin:
    """Connect ``position`` to ``position - 1`` via parent pointers."""

    position: int


@dataclass(frozen=True)
class DescendantJoin:
    """Connect ``position`` to ``position - 1`` via HOPI reachability.

    The join is a symmetric connection test (Section 3.1's 2-hop
    probes), which is what lets the planner evaluate it in either
    direction: forward from the bound predecessor (``descendants``
    side) or backward from the bound successor (``ancestors`` side).
    """

    position: int


@dataclass(frozen=True)
class Filter:
    """Keep only elements at ``position`` satisfying ``predicate``."""

    position: int
    predicate: Predicate


@dataclass(frozen=True)
class Rank:
    """Score bindings and sort by ``(-score, bindings)``."""


@dataclass(frozen=True)
class Limit:
    """Window the ranked results: skip ``offset``, keep ``limit``."""

    limit: Optional[int]
    offset: int


LogicalNode = Union[Scan, ChildJoin, DescendantJoin, Filter, Rank, Limit]


@dataclass(frozen=True)
class LogicalPlan:
    """The ordered logical node chain of one path expression.

    The physical layers *consume* this, they don't re-derive it: the
    planner orders the join nodes, the operators evaluate each
    position's :class:`Filter` nodes inline (:meth:`filters_at`), and
    the engine applies the :class:`Limit` node (:attr:`window`) after
    :class:`Rank`.
    """

    expr: PathExpression
    nodes: Tuple[LogicalNode, ...]

    @property
    def key(self) -> str:
        """The canonical cache key of the query. Parsing normalises
        whitespace and clause order, so every spelling of the same query
        shares one key: the service keys its plan cache and its
        ``(key, epoch)`` result cache by it."""
        return str(self.expr)

    def filters_at(self, position: int) -> Tuple[Predicate, ...]:
        """The :class:`Filter` predicates guarding one step position."""
        return tuple(
            n.predicate
            for n in self.nodes
            if isinstance(n, Filter) and n.position == position
        )

    @property
    def window(self) -> Optional[Limit]:
        """The trailing :class:`Limit` node, or ``None``."""
        last = self.nodes[-1]
        return last if isinstance(last, Limit) else None


def build_logical_plan(path: "str | PathExpression") -> LogicalPlan:
    """Lower a parsed path expression to its logical node chain.

    Each step contributes a :class:`Scan` (position 0) or a join node,
    followed by one :class:`Filter` per ``[predicate]`` on that step;
    the chain always ends with :class:`Rank` and, when the expression
    carries a window, :class:`Limit`.
    """
    expr = parse_path(path) if isinstance(path, str) else path
    nodes: list = []
    for i, step in enumerate(expr.steps):
        if i == 0:
            nodes.append(
                Scan(0, step.tag, step.similar, anchored=step.axis == "child")
            )
        elif step.axis == "child":
            nodes.append(ChildJoin(i))
        else:
            nodes.append(DescendantJoin(i))
        for predicate in step.predicates:
            nodes.append(Filter(i, predicate))
    nodes.append(Rank())
    if expr.limit is not None or expr.offset:
        nodes.append(Limit(expr.limit, expr.offset))
    return LogicalPlan(expr, tuple(nodes))
