"""Parser for the path-expression dialect.

Grammar (a practical subset of XPath's location paths, extended with
XXL's ``~`` similarity operator, existence predicates, and SQL-style
result windows)::

    path      := step+ window?
    step      := axis test predicate*
    axis      := "/"        (child)
               | "//"       (descendant-or-self, evaluated via HOPI)
    test      := NAME | "~" NAME | "*"
    predicate := "[" relpath "]"
    relpath   := reltest predicate* step*     (leading bare test = child)
    reltest   := test | "//" test
    window    := ("limit" INT)? ("offset" INT)?   (whitespace-separated,
                                                   either order)

Examples: ``//book//author``, ``/bib/book/title``, ``//~publication/*``,
``//book[//author]//title``, ``//article[keywords]//cite limit 10
offset 20``.

A leading ``/`` anchors the first step at document roots; a leading
``//`` matches elements at any depth (including across links — that is
the point of HOPI). A predicate ``[p]`` keeps only elements with at
least one match of the relative path ``p`` starting from them: a bare
``[tag]`` tests for a child, ``[//tag]`` for a HOPI-reachable
descendant. ``limit``/``offset`` window the *ranked* result list
(offset skips, limit caps — applied in that order).

Expressions arrive from outside the program (``/v1/query?path=``), and
printing, hashing and evaluating one all recurse over its structure, so
the parser refuses more than :data:`MAX_STEPS` steps in total
(predicate paths included) or predicates nested deeper than
:data:`MAX_PREDICATE_DEPTH`.

``str()`` of a parsed expression reproduces a canonical form that
parses back to an equal expression (``parse_path(str(e)) == e``), which
is what lets the service layer key its plan and result caches by the
canonical text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

_TEST_RE = re.compile(r"(~?)([A-Za-z_][\w.\-]*|\*)")
_WINDOW_RE = re.compile(r"\s+(limit|offset)\s+(\d+)")

#: Steps one expression may hold, predicate paths included. The ranked
#: enumerator and the predicate tests recurse once per step.
MAX_STEPS = 64
#: How deep ``[a[b[c]]]`` may nest: ``str()``, ``hash()`` and the
#: parser itself recurse once per level.
MAX_PREDICATE_DEPTH = 8


class PathSyntaxError(ValueError):
    """Raised on malformed path expressions."""


@dataclass(frozen=True)
class Predicate:
    """An existence filter ``[relpath]`` attached to a step.

    The element the step binds qualifies iff the relative path has at
    least one match starting from it. ``steps`` is a non-empty tuple of
    :class:`Step`; a first step with the ``child`` axis renders without
    a leading slash (``[tag]``), matching XPath's bare-name child test.
    Predicates filter only — they contribute no score.
    """

    steps: Tuple["Step", ...]

    def __str__(self) -> str:
        first, *rest = self.steps
        if first.axis == "child":
            head = f"{'~' if first.similar else ''}{first.tag}" + "".join(
                str(p) for p in first.predicates
            )
        else:
            head = str(first)
        return "[" + head + "".join(str(s) for s in rest) + "]"


@dataclass(frozen=True)
class Step:
    """One location step.

    Attributes:
        axis: ``"child"`` or ``"descendant"``.
        tag: element test (``"*"`` matches any tag).
        similar: True for ``~tag`` similarity tests.
        predicates: existence filters (``[relpath]``), applied
            conjunctively to the elements this step binds.
    """

    axis: str
    tag: str
    similar: bool = False
    predicates: Tuple[Predicate, ...] = ()

    def __str__(self) -> str:
        prefix = "/" if self.axis == "child" else "//"
        return (
            f"{prefix}{'~' if self.similar else ''}{self.tag}"
            + "".join(str(p) for p in self.predicates)
        )


@dataclass(frozen=True)
class PathExpression:
    """A parsed path expression (a non-empty sequence of steps).

    Attributes:
        steps: the location steps, left to right.
        limit: cap on the number of *ranked* results returned, or
            ``None`` for no cap. Applied after ``offset``.
        offset: number of ranked results to skip (default 0).
    """

    steps: tuple
    limit: Optional[int] = None
    offset: int = 0

    def __str__(self) -> str:
        text = "".join(str(s) for s in self.steps)
        if self.limit is not None:
            text += f" limit {self.limit}"
        if self.offset:
            text += f" offset {self.offset}"
        return text

    def __len__(self) -> int:
        return len(self.steps)


def _parse_step(
    text: str, pos: int, depth: int, *, first_in_predicate: bool = False
) -> Tuple[Optional[Step], int]:
    """Parse one step at ``pos``; ``(None, pos)`` when none starts here.

    ``depth`` counts the predicates enclosing the step. Inside a
    predicate the first step may omit its axis (bare ``tag`` = child,
    as in XPath).
    """
    if text.startswith("//", pos):
        axis, pos = "descendant", pos + 2
    elif text.startswith("/", pos):
        axis, pos = "child", pos + 1
    elif first_in_predicate and _TEST_RE.match(text, pos):
        axis = "child"
    else:
        return None, pos
    m = _TEST_RE.match(text, pos)
    if not m:
        raise PathSyntaxError(
            f"expected an element test at offset {pos}: {text[pos:]!r}"
        )
    tilde, tag = m.groups()
    if tilde and tag == "*":
        raise PathSyntaxError("'~*' is meaningless: '*' already matches all")
    pos = m.end()
    predicates: List[Predicate] = []
    while pos < len(text) and text[pos] == "[":
        predicate, pos = _parse_predicate(text, pos, depth + 1)
        predicates.append(predicate)
    return Step(axis, tag, bool(tilde), tuple(predicates)), pos


def _parse_predicate(text: str, pos: int, depth: int) -> Tuple[Predicate, int]:
    """Parse ``[relpath]`` with ``pos`` at the opening bracket; the
    predicate sits ``depth`` levels deep (1 = directly on a step)."""
    if depth > MAX_PREDICATE_DEPTH:
        raise PathSyntaxError(
            f"predicates nested deeper than {MAX_PREDICATE_DEPTH} "
            f"at offset {pos}"
        )
    start, pos = pos, pos + 1
    first, pos = _parse_step(text, pos, depth, first_in_predicate=True)
    if first is None:
        raise PathSyntaxError(
            f"empty or malformed predicate at offset {start}: "
            f"{text[start:]!r}"
        )
    steps = [first]
    while pos < len(text) and text[pos] == "/":
        step, pos = _parse_step(text, pos, depth)
        steps.append(step)
    if pos >= len(text) or text[pos] != "]":
        raise PathSyntaxError(
            f"unterminated predicate at offset {start}: {text[start:]!r}"
        )
    return Predicate(tuple(steps)), pos + 1


def _count_steps(steps: Sequence[Step]) -> int:
    """Steps in a sequence plus those of every nested predicate."""
    return sum(
        1 + sum(_count_steps(p.steps) for p in step.predicates)
        for step in steps
    )


def _parse_window(
    text: str, pos: int
) -> Tuple[Optional[int], Optional[int], int]:
    """Parse trailing ``limit N`` / ``offset M`` clauses (either order)."""
    limit: Optional[int] = None
    offset: Optional[int] = None
    while True:
        m = _WINDOW_RE.match(text, pos)
        if not m:
            return limit, offset, pos
        keyword, value = m.groups()
        if keyword == "limit":
            if limit is not None:
                raise PathSyntaxError("duplicate 'limit' clause")
            limit = int(value)
        else:
            if offset is not None:
                raise PathSyntaxError("duplicate 'offset' clause")
            offset = int(value)
        pos = m.end()


def parse_path(text: str) -> PathExpression:
    """Parse a path expression.

    Raises:
        PathSyntaxError: on empty input, trailing garbage, ``~*``, a
            missing leading axis, an unterminated ``[predicate]``, a
            duplicate ``limit``/``offset`` clause, or an expression
            over :data:`MAX_STEPS` / :data:`MAX_PREDICATE_DEPTH`.
    """
    text = text.strip()
    if not text:
        raise PathSyntaxError("empty path expression")
    steps: List[Step] = []
    pos = 0
    while pos < len(text):
        step, pos = _parse_step(text, pos, 0)
        if step is None:
            break
        steps.append(step)
    if not steps:
        raise PathSyntaxError(
            f"malformed path expression at offset 0: {text!r}"
        )
    if _count_steps(steps) > MAX_STEPS:
        raise PathSyntaxError(
            f"path expression has more than {MAX_STEPS} steps"
        )
    limit, offset, pos = _parse_window(text, pos)
    if pos != len(text):
        raise PathSyntaxError(
            f"malformed path expression at offset {pos}: {text[pos:]!r}"
        )
    return PathExpression(tuple(steps), limit=limit, offset=offset or 0)
