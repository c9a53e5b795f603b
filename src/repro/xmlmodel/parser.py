"""A small, from-scratch XML parser and serialiser.

The paper ingests real XML (DBLP records, INEX articles) with XLink
attributes for citations and cross-references. This module provides the
ingestion path without relying on ``xml.etree``: a recursive-descent
parser producing :class:`ParsedElement` trees, a serialiser, and
:func:`load_collection`, which materialises a set of XML strings into a
:class:`~repro.xmlmodel.model.Collection`, resolving ``id`` /
``xlink:href`` attributes into intra- and inter-document links.

Supported XML subset: elements, attributes (single or double quoted),
text, self-closing tags, comments, CDATA sections, processing
instructions / XML prolog, DOCTYPE declarations (skipped), and the five
predefined entities plus decimal/hex character references. This covers
everything the DBLP/INEX-style documents use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.xmlmodel.model import Collection, ElementId

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_REVERSE_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_NAME_END = set(" \t\r\n/>=")

#: The link convention of the paper's datasets (XLink / ID-IDREF): the
#: attributes that make an element a link source, first present wins,
#: and the one that makes it a link anchor
HREF_ATTRIBUTES = ("xlink:href", "href")
ID_ATTRIBUTE = "id"


class XMLSyntaxError(ValueError):
    """Raised on malformed input; carries the byte offset of the error."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


@dataclass
class ParsedElement:
    """A node of the parsed XML tree."""

    tag: str
    attributes: Dict[str, str] = field(default_factory=dict)
    children: List["ParsedElement"] = field(default_factory=list)
    text: str = ""

    def iter(self) -> Iterator["ParsedElement"]:
        """Preorder traversal of the subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    @property
    def num_elements(self) -> int:
        return sum(1 for _ in self.iter())


def _decode_entities(raw: str, pos: int) -> str:
    if "&" not in raw:
        return raw
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end == -1:
            raise XMLSyntaxError("unterminated entity reference", pos + i)
        name = raw[i + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLSyntaxError(f"unknown entity &{name};", pos + i)
        i = end + 1
    return "".join(out)


#: Maximum element nesting the parser accepts. Real XML rarely exceeds a
#: few dozen levels; the limit turns CPython's RecursionError into a
#: well-formed :class:`XMLSyntaxError` long before the interpreter limit.
MAX_ELEMENT_DEPTH = 200


class _Parser:
    """Single-pass recursive-descent parser over an input string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.n = len(text)
        self.depth = 0

    # -- low-level helpers ------------------------------------------------
    def _error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.pos)

    def _skip_ws(self) -> None:
        while self.pos < self.n and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and DOCTYPE between elements."""
        while True:
            self._skip_ws()
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos + 4)
                if end == -1:
                    raise self._error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos + 2)
                if end == -1:
                    raise self._error("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!DOCTYPE", self.pos):
                end = self.text.find(">", self.pos)
                if end == -1:
                    raise self._error("unterminated DOCTYPE")
                self.pos = end + 1
            else:
                return

    def _read_name(self) -> str:
        start = self.pos
        while self.pos < self.n and self.text[self.pos] not in _NAME_END:
            self.pos += 1
        if self.pos == start:
            raise self._error("expected a name")
        return self.text[start : self.pos]

    def _read_attributes(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        while True:
            self._skip_ws()
            if self.pos >= self.n:
                raise self._error("unexpected end of input inside a tag")
            if self.text[self.pos] in "/>":
                return attrs
            name = self._read_name()
            self._skip_ws()
            if self.pos >= self.n or self.text[self.pos] != "=":
                raise self._error(f"attribute {name!r} missing '='")
            self.pos += 1
            self._skip_ws()
            if self.pos >= self.n or self.text[self.pos] not in "\"'":
                raise self._error(f"attribute {name!r} value must be quoted")
            quote = self.text[self.pos]
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end == -1:
                raise self._error(f"unterminated value for attribute {name!r}")
            attrs[name] = _decode_entities(self.text[self.pos : end], self.pos)
            self.pos = end + 1

    # -- element grammar --------------------------------------------------
    def parse_document(self) -> ParsedElement:
        self._skip_misc()
        if self.pos >= self.n or self.text[self.pos] != "<":
            raise self._error("expected root element")
        root = self._parse_element()
        self._skip_misc()
        if self.pos != self.n:
            raise self._error("content after root element")
        return root

    def _parse_element(self) -> ParsedElement:
        assert self.text[self.pos] == "<"
        self.depth += 1
        if self.depth > MAX_ELEMENT_DEPTH:
            raise self._error(
                f"element nesting exceeds {MAX_ELEMENT_DEPTH} levels"
            )
        self.pos += 1
        tag = self._read_name()
        attrs = self._read_attributes()
        elem = ParsedElement(tag, attrs)
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            self.depth -= 1
            return elem
        if self.text[self.pos] != ">":
            raise self._error(f"malformed start tag <{tag}>")
        self.pos += 1
        text_parts: List[str] = []
        while True:
            if self.pos >= self.n:
                raise self._error(f"unterminated element <{tag}>")
            ch = self.text[self.pos]
            if ch == "<":
                if self.text.startswith("</", self.pos):
                    self.pos += 2
                    close = self._read_name()
                    if close != tag:
                        raise self._error(
                            f"mismatched closing tag </{close}> for <{tag}>"
                        )
                    self._skip_ws()
                    if self.pos >= self.n or self.text[self.pos] != ">":
                        raise self._error(f"malformed closing tag </{close}>")
                    self.pos += 1
                    elem.text = "".join(text_parts).strip()
                    self.depth -= 1
                    return elem
                if self.text.startswith("<!--", self.pos):
                    end = self.text.find("-->", self.pos + 4)
                    if end == -1:
                        raise self._error("unterminated comment")
                    self.pos = end + 3
                elif self.text.startswith("<![CDATA[", self.pos):
                    end = self.text.find("]]>", self.pos + 9)
                    if end == -1:
                        raise self._error("unterminated CDATA section")
                    text_parts.append(self.text[self.pos + 9 : end])
                    self.pos = end + 3
                elif self.text.startswith("<?", self.pos):
                    end = self.text.find("?>", self.pos + 2)
                    if end == -1:
                        raise self._error("unterminated processing instruction")
                    self.pos = end + 2
                else:
                    elem.children.append(self._parse_element())
            else:
                nxt = self.text.find("<", self.pos)
                if nxt == -1:
                    raise self._error(f"unterminated element <{tag}>")
                text_parts.append(
                    _decode_entities(self.text[self.pos : nxt], self.pos)
                )
                self.pos = nxt


def parse_document(text: str) -> ParsedElement:
    """Parse one XML document string into a :class:`ParsedElement` tree.

    Raises:
        XMLSyntaxError: on malformed input.
    """
    return _Parser(text).parse_document()


def _escape_text(value: str) -> str:
    return "".join(_REVERSE_TEXT.get(ch, ch) for ch in value)


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def serialize(elem: ParsedElement, *, indent: Optional[int] = None) -> str:
    """Serialise a parsed tree back to XML text.

    With ``indent`` set, produces pretty-printed output; the default is a
    compact single-line form. Round-trips with :func:`parse_document`
    (modulo insignificant whitespace).
    """
    parts: List[str] = []
    _serialize_into(elem, parts, indent, 0)
    return "".join(parts)


def _serialize_into(
    elem: ParsedElement, parts: List[str], indent: Optional[int], depth: int
) -> None:
    pad = "" if indent is None else " " * (indent * depth)
    nl = "" if indent is None else "\n"
    attrs = "".join(
        f' {name}="{_escape_attr(value)}"' for name, value in elem.attributes.items()
    )
    if not elem.children and not elem.text:
        parts.append(f"{pad}<{elem.tag}{attrs}/>{nl}")
        return
    parts.append(f"{pad}<{elem.tag}{attrs}>")
    if elem.text:
        parts.append(_escape_text(elem.text))
    if elem.children:
        parts.append(nl)
        for child in elem.children:
            _serialize_into(child, parts, indent, depth + 1)
        parts.append(pad)
    parts.append(f"</{elem.tag}>{nl}")


def load_collection(documents: Dict[str, str]) -> Collection:
    """Parse XML strings into a linked :class:`Collection`.

    Link resolution follows the XLink/ID-IDREF convention the paper's
    datasets use: an element with ``xlink:href="docname#elementid"`` (or
    ``href="#elementid"`` for intra-document references) links to the
    element whose ``id`` attribute equals ``elementid`` in the target
    document; a bare ``xlink:href="docname"`` links to the target
    document's root.

    Unresolvable hrefs are ignored (heterogeneous web-style collections
    contain dangling references by nature).

    Args:
        documents: mapping document id -> XML source text.
    """
    collection = Collection()
    anchors: Dict[Tuple[str, str], ElementId] = {}
    roots: Dict[str, ElementId] = {}
    pending: List[Tuple[ElementId, str, str]] = []  # (source, owner doc, href)

    for doc_id, text in documents.items():
        parsed = parse_document(text)
        root = collection.new_document(doc_id, parsed.tag)
        roots[doc_id] = root.eid
        root.attributes = dict(parsed.attributes)
        root.text = parsed.text
        stack: List[Tuple[ParsedElement, ElementId]] = [(parsed, root.eid)]
        while stack:
            node, eid = stack.pop()
            if ID_ATTRIBUTE in node.attributes:
                anchors[(doc_id, node.attributes[ID_ATTRIBUTE])] = eid
            for attr in HREF_ATTRIBUTES:
                if attr in node.attributes:
                    pending.append((eid, doc_id, node.attributes[attr]))
                    break
            for child in node.children:
                element = collection.add_child(eid, child.tag)
                element.attributes = dict(child.attributes)
                element.text = child.text
                stack.append((child, element.eid))

    for source, owner, href in pending:
        if "#" in href:
            target_doc, _, anchor = href.partition("#")
            target_doc = target_doc or owner
            target = anchors.get((target_doc, anchor))
        else:
            target = roots.get(href)
        if target is not None and target != source:
            collection.add_link(source, target)
    return collection
