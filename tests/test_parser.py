"""Tests for the from-scratch XML parser, serialiser and collection loader."""

import pytest

from repro.xmlmodel import (
    XMLSyntaxError,
    load_collection,
    parse_document,
    serialize,
)


def test_parse_minimal():
    root = parse_document("<a/>")
    assert root.tag == "a"
    assert root.children == []
    assert root.attributes == {}


def test_parse_nested_elements():
    root = parse_document("<a><b><c/></b><d/></a>")
    assert [c.tag for c in root.children] == ["b", "d"]
    assert root.children[0].children[0].tag == "c"


def test_parse_attributes_both_quotes():
    root = parse_document("""<a x="1" y='two'/>""")
    assert root.attributes == {"x": "1", "y": "two"}


def test_parse_text_content():
    root = parse_document("<a>hello <b>bold</b> world</a>")
    assert "hello" in root.text and "world" in root.text
    assert root.children[0].text == "bold"


def test_parse_entities():
    root = parse_document("<a x=\"&lt;&amp;&gt;\">&quot;&apos;&#65;&#x42;</a>")
    assert root.attributes["x"] == "<&>"
    assert root.text == "\"'AB"


def test_parse_unknown_entity_raises():
    with pytest.raises(XMLSyntaxError):
        parse_document("<a>&nope;</a>")


def test_parse_comment_and_prolog():
    text = """<?xml version="1.0"?>
    <!-- a comment -->
    <!DOCTYPE a>
    <a><!-- inner --><b/></a>"""
    root = parse_document(text)
    assert root.tag == "a"
    assert len(root.children) == 1


def test_parse_cdata():
    root = parse_document("<a><![CDATA[<not><parsed>&amp;]]></a>")
    assert root.text == "<not><parsed>&amp;"


def test_parse_processing_instruction_inside():
    root = parse_document("<a><?pi data?><b/></a>")
    assert len(root.children) == 1


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "<a>",
        "<a></b>",
        "<a",
        "<a x=/>",
        "<a x=1/>",
        '<a x="1/>',
        "<a/><b/>",
        "<a><!-- unterminated </a>",
        "<a><![CDATA[ unterminated </a>",
        "text only",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(XMLSyntaxError):
        parse_document(bad)


def test_error_carries_offset():
    with pytest.raises(XMLSyntaxError) as exc:
        parse_document("<a></b>")
    assert exc.value.pos > 0


def test_serialize_roundtrip_compact():
    text = '<a x="1"><b>hi</b><c/></a>'
    root = parse_document(text)
    again = parse_document(serialize(root))
    assert again.tag == root.tag
    assert again.attributes == root.attributes
    assert [c.tag for c in again.children] == ["b", "c"]
    assert again.children[0].text == "hi"


def test_serialize_escapes():
    root = parse_document("<a/>")
    root.text = 'x < y & "z"'
    root.attributes["q"] = 'he said "hi" & left'
    again = parse_document(serialize(root))
    assert again.text == root.text
    assert again.attributes["q"] == root.attributes["q"]


def test_serialize_pretty_roundtrip():
    text = "<a><b><c/></b></a>"
    pretty = serialize(parse_document(text), indent=2)
    assert "\n" in pretty
    again = parse_document(pretty)
    assert again.children[0].children[0].tag == "c"


def test_iter_and_find_all():
    root = parse_document("<a><b/><c><b/></c></a>")
    assert root.num_elements == 4
    assert [n.tag for n in root.iter()] == ["a", "b", "c", "b"]


# ---------------------------------------------------------------------------
# load_collection: XLink resolution
# ---------------------------------------------------------------------------


def test_load_collection_inter_document_root_link():
    docs = {
        "paper1": '<article><cite xlink:href="paper2"/></article>',
        "paper2": "<article><title>t</title></article>",
    }
    c = load_collection(docs)
    assert c.num_documents == 2
    assert len(c.inter_links) == 1
    ((u, v),) = c.inter_links
    assert c.doc(u) == "paper1"
    assert v == c.documents["paper2"].root


def test_load_collection_anchor_link():
    docs = {
        "a": '<r><ref xlink:href="b#sec2"/></r>',
        "b": '<r><sec id="sec1"/><sec id="sec2"/></r>',
    }
    c = load_collection(docs)
    ((u, v),) = c.inter_links
    assert c.elements[v].attributes["id"] == "sec2"


def test_load_collection_intra_link():
    docs = {"a": '<r><x id="t"/><ref href="#t"/></r>'}
    c = load_collection(docs)
    assert len(c.documents["a"].intra_links) == 1
    assert not c.inter_links


def test_load_collection_dangling_href_ignored():
    docs = {"a": '<r><ref xlink:href="missing#x"/><ref xlink:href="nodoc"/></r>'}
    c = load_collection(docs)
    assert c.num_links == 0


def test_load_collection_preserves_text_and_attrs():
    docs = {"a": '<r kind="x"><t>hello</t></r>'}
    c = load_collection(docs)
    root = c.documents["a"].root
    assert c.elements[root].attributes["kind"] == "x"
    tags = c.tags()
    (tid,) = tags["t"]
    assert c.elements[tid].text == "hello"


def test_load_collection_href_priority():
    # xlink:href wins over href when both are present
    docs = {
        "a": '<r><ref xlink:href="b" href="c"/></r>',
        "b": "<r/>",
        "c": "<r/>",
    }
    c = load_collection(docs)
    ((u, v),) = c.inter_links
    assert c.doc(v) == "b"


def test_nesting_depth_limit():
    """Pathologically deep input fails with a clean XMLSyntaxError, not a
    RecursionError."""
    deep = "<a>" * 500 + "</a>" * 500
    with pytest.raises(XMLSyntaxError, match="nesting"):
        parse_document(deep)


def test_nesting_below_limit_ok():
    depth = 150
    text = "".join(f"<e{i}>" for i in range(depth)) + "".join(
        f"</e{i}>" for i in reversed(range(depth))
    )
    root = parse_document(text)
    assert root.tag == "e0"


def test_sibling_depth_not_cumulative():
    """Depth tracks nesting, not total element count."""
    text = "<r>" + "<x/>" * 1000 + "</r>"
    root = parse_document(text)
    assert len(root.children) == 1000
