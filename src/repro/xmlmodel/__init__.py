"""XML substrate: data model, parser, and synthetic collection generators.

Implements Section 2 of the paper: element-level trees ``T_E(d)``,
element-level graphs ``G_E(d)`` / ``G_E(X)`` (trees plus intra-document
links), collections ``X = (D, L)`` with inter-document links, the
document mapping function ``doc``, and the document-level graph
``G_D(X)``.
"""

from repro.xmlmodel.model import Collection, Document, Element
from repro.xmlmodel.parser import (
    ParsedElement,
    XMLSyntaxError,
    load_collection,
    parse_document,
    serialize,
)
from repro.xmlmodel.generator import dblp_like, inex_like
from repro.xmlmodel.export import (
    collection_size_bytes,
    export_collection,
    export_document,
)

__all__ = [
    "collection_size_bytes",
    "export_collection",
    "export_document",
    "Collection",
    "Document",
    "Element",
    "ParsedElement",
    "XMLSyntaxError",
    "load_collection",
    "parse_document",
    "serialize",
    "dblp_like",
    "inex_like",
]
