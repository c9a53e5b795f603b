"""Path-expression evaluation over the HOPI index.

The paper motivates HOPI with XPath ``//`` (descendant-or-self) steps
over link-rich collections and with the XXL search engine's ranked
queries like ``//~book//author`` (Section 5.1), where ``~`` requests
ontology-based tag similarity and results are ranked by a combination of
tag similarity and link distance. This package plans straight from
the parsed expression:

* :mod:`repro.query.pathexpr` — the AST: a parser for the path dialect
  (``/child``, ``//descendant``, ``*`` wildcards, ``~tag`` similarity,
  ``[predicate]`` existence filters, ``limit``/``offset`` windows);
* :mod:`repro.query.planner` — the selectivity-driven physical planner
  (cardinality estimates weighted by two probe-cost constants, zig-zag
  join ordering, backward ``ancestors``-side probes), the canonical
  plan key and :class:`PreparedQuery`;
* :mod:`repro.query.exec` — the two evaluators: the ranked top-k
  enumerator behind ``evaluate`` and the frontier count behind
  ``count``;
* :mod:`repro.query.engine` — the :class:`QueryEngine` facade tying the
  layers together (one evaluation path per endpoint);
* :mod:`repro.query.ontology` — a miniature tag ontology with
  similarity scores.
"""

from repro.query.engine import QueryEngine, QueryResult
from repro.query.ontology import TagOntology, default_ontology
from repro.query.pathexpr import PathExpression, Predicate, Step, parse_path
from repro.query.planner import PhysicalPlan, PreparedQuery, plan_query

__all__ = [
    "QueryEngine",
    "QueryResult",
    "TagOntology",
    "default_ontology",
    "PathExpression",
    "Predicate",
    "Step",
    "parse_path",
    "PhysicalPlan",
    "PreparedQuery",
    "plan_query",
]
