"""The ``/update`` wire-format operation vocabulary.

Every writer that maintains a shadow :class:`~repro.core.hopi.HopiIndex`
speaks the same op dialect: the service's group-commit publisher and
the durable update WAL's replay-on-restart (:mod:`repro.storage.wal`)
both delegate to
:func:`apply_update_op`. Keeping it in the core layer (rather than the
service, where it grew up) lets the storage layer replay logged ops
without importing the serving tier.

Ops are plain JSON-able dicts with an ``"op"`` discriminator — the
contract that makes them durable: a logged op replays to the exact same
index state because every handler here is deterministic given the
index it is applied to.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Union

from repro.core.hopi import HopiIndex
from repro.xmlmodel.model import ElementId


class UpdateError(ValueError):
    """A malformed or inapplicable ``/update`` operation (maps to 400)."""


def apply_update_op(shadow: HopiIndex, op: Dict[str, Any]) -> Dict[str, Any]:
    """Apply one ``/update`` wire-format operation to ``shadow``.

    Raises :class:`UpdateError` (or the plain ``KeyError``/``ValueError``
    /... family for malformed shapes, which callers wrap)."""
    if not isinstance(op, dict) or "op" not in op:
        raise UpdateError(f"operation must be a dict with an 'op' key: {op!r}")
    kind = op["op"]
    if kind == "insert_element":
        eid = shadow.insert_element(int(op["parent"]), str(op["tag"]))
        return {"op": kind, "element": eid}
    if kind in ("insert_edge", "insert_link"):
        report = shadow.insert_edge(int(op["source"]), int(op["target"]))
        return {"op": kind, **asdict(report)}
    if kind in ("delete_edge", "delete_link"):
        report = shadow.delete_edge(int(op["source"]), int(op["target"]))
        return {"op": kind, **asdict(report)}
    if kind == "delete_document":
        doc_id = str(op["doc_id"])
        if doc_id not in shadow.collection.documents:
            raise UpdateError(f"no document {doc_id!r}")
        report = shadow.delete_document(doc_id)
        return {"op": kind, **asdict(report)}
    if kind == "insert_document":
        return _apply_insert_document(shadow, op)
    if kind == "rebuild":
        kwargs = {k: v for k, v in op.items() if k != "op"}
        shadow.rebuild(**kwargs)
        return {"op": kind, "cover_size": shadow.cover.size}
    raise UpdateError(f"unknown operation {kind!r}")


def _apply_insert_document(
    shadow: HopiIndex, op: Dict[str, Any]
) -> Dict[str, Any]:
    """Create a document in the shadow collection, then integrate it
    with Section 6.1's new-partition rule."""
    doc_id = str(op["doc_id"])
    if doc_id in shadow.collection.documents:
        raise UpdateError(f"document {doc_id!r} already exists")
    root = shadow.collection.new_document(
        doc_id, str(op.get("root_tag", "root"))
    )
    refs: Dict[str, ElementId] = {"root": root.eid}

    def resolve(endpoint: Union[str, int]) -> ElementId:
        if isinstance(endpoint, str):
            if endpoint not in refs:
                raise UpdateError(f"unknown element ref {endpoint!r}")
            return refs[endpoint]
        return int(endpoint)

    for child in op.get("children", ()):
        parent = resolve(child.get("parent", "root"))
        if (
            parent not in shadow.collection.elements
            or shadow.collection.elements[parent].doc != doc_id
        ):
            # a child attached to another document would be added to
            # the collection but never integrated into the cover by
            # insert_document below — reject instead of corrupting
            raise UpdateError(
                f"child parent {parent!r} is not an element of the new "
                f"document {doc_id!r}; connect to other documents via "
                "'links'"
            )
        e = shadow.collection.add_child(parent, str(child["tag"]))
        if "ref" in child:
            refs[str(child["ref"])] = e.eid
    # the new document's elements exist only in the collection so
    # far; insert_document builds its local cover and unions it in
    for source, target in op.get("links", ()):
        shadow.collection.add_link(resolve(source), resolve(target))
    report = shadow.insert_document(doc_id)
    return {"op": "insert_document", "elements": refs, **asdict(report)}
