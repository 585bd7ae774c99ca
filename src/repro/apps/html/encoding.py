"""The ``HtmlE`` encoding of DOM trees (paper Section 2, Figure 3).

Each DOM element becomes ``node[tag](x1, x2, x3)`` where ``x1`` encodes
the attribute list, ``x2`` the first child, ``x3`` the next sibling;
each attribute becomes ``attr[name](value, next-attribute)``; each
string a chain of single-character ``val`` nodes; ``nil[""]``
terminates lists, strings, and trees.

Text content follows the paper's Figure 3: a text child is encoded as an
``attr["text"]`` entry in its parent's attribute list (the figure shows
``<script>a</script>`` with ``text -> a`` under ``attr``).  Decoding
places text children before element children; interleavings of text and
elements are therefore normalized — the price of the paper's encoding,
noted in DESIGN.md.

Each encoded node is two objects the cyclic collector tracks (the
``Tree`` and its children tuple), built bottom up and in no reference
cycle, so :func:`encode_forest` and :func:`decode_forest` keep the
collector off while they build (:func:`~repro.trees.tree.pause_collector`).
"""

from __future__ import annotations

from ...smt.sorts import STRING
from ...trees.tree import Tree, pause_collector, resume_collector
from ...trees.types import TreeType, make_tree_type
from .dom import Element, Node, Text

#: The paper's tree type: type HtmlE[tag : String]{nil(0), val(1), attr(2), node(3)}
HTML_E: TreeType = make_tree_type(
    "HtmlE", [("tag", STRING)], {"nil": 0, "val": 1, "attr": 2, "node": 3}
)

NIL = Tree("nil", ("",))

#: The attribute name carrying text content (Figure 3).
TEXT_ATTR = "text"


def encode_string(text: str) -> Tree:
    """A string as a chain of single-character ``val`` nodes."""
    return _encode_chars(text, {})


def _encode_chars(text: str, char_attrs: dict[str, tuple[str]]) -> Tree:
    """:func:`encode_string`, with every node of one character sharing
    one attribute tuple from ``char_attrs``.  A page has a few dozen
    distinct characters and thousands of nodes; the run memoizes on
    attribute tuples, and a shared tuple matches its memo key by
    identity, which makes ``apply_one`` on E3's 20 and 120 KB pages
    about a tenth faster than one tuple per node."""
    out = NIL
    for ch in reversed(text):
        attrs = char_attrs.get(ch)
        if attrs is None:
            attrs = char_attrs[ch] = (ch,)
        out = Tree("val", attrs, (out,))
    return out


def decode_string(tree: Tree) -> str:
    chars: list[str] = []
    while tree.ctor == "val":
        chars.append(str(tree.attrs[0]))
        (tree,) = tree.children
    return "".join(chars)


def encode_forest(nodes: list[Node]) -> Tree:
    """Encode a DOM forest into one ``HtmlE`` tree (sibling-chained).

    Iterative, so a page nested thousands of elements deep encodes.  A
    sibling list is encoded from its last element back to its first;
    ``encoded`` is the chain of the elements after ``i``.  Descending
    into an element's children saves that state on ``saved``.
    """
    pause_collector()
    try:
        char_attrs: dict[str, tuple[str]] = {}
        saved: list[tuple[list[Node], int, Tree]] = []
        siblings, i, encoded = nodes, len(nodes), NIL
        while True:
            i -= 1
            if i >= 0:
                n = siblings[i]
                if isinstance(n, Text):
                    continue  # text is attached to the parent's attribute list
                if n.children:
                    saved.append((siblings, i, encoded))
                    siblings, i, encoded = n.children, len(n.children), NIL
                    continue
                attrs = _encode_attrs(n, char_attrs)
                encoded = Tree("node", (n.tag,), (attrs, NIL, encoded))
                continue
            if not saved:
                return encoded
            children = encoded
            siblings, i, encoded = saved.pop()
            n = siblings[i]
            attrs = _encode_attrs(n, char_attrs)
            encoded = Tree("node", (n.tag,), (attrs, children, encoded))
    finally:
        resume_collector()


def _encode_attrs(element: Element, char_attrs: dict[str, tuple[str]]) -> Tree:
    entries: list[tuple[str, str]] = list(element.attrs)
    for child in element.children:
        if isinstance(child, Text):
            entries.append((TEXT_ATTR, child.data))
    result = NIL
    for name, value in reversed(entries):
        result = Tree("attr", (name,), (_encode_chars(value, char_attrs), result))
    return result


def decode_forest(tree: Tree) -> list[Node]:
    """Inverse of :func:`encode_forest` (iterative, like it)."""
    pause_collector()
    try:
        out: list[Node] = []
        # (sibling chain still to decode, list its elements go to)
        work: list[tuple[Tree, list[Node]]] = [(tree, out)]
        while work:
            tree, dest = work.pop()
            while tree.ctor == "node":
                attrs_tree, first_child, next_sibling = tree.children
                attrs: list[tuple[str, str]] = []
                texts: list[str] = []
                while attrs_tree.ctor == "attr":
                    name = str(attrs_tree.attrs[0])
                    value_tree, attrs_tree = attrs_tree.children
                    value = decode_string(value_tree)
                    if name == TEXT_ATTR:
                        texts.append(value)
                    else:
                        attrs.append((name, value))
                children: list[Node] = [Text(t) for t in texts]
                if first_child.ctor == "node":
                    work.append((first_child, children))
                dest.append(Element(str(tree.attrs[0]), attrs, children))
                tree = next_sibling
        return out
    finally:
        resume_collector()


def encode_html(html: str) -> Tree:
    """Parse HTML text and encode it (browser parse + Figure 3 encoding)."""
    from .parser import parse_html

    return encode_forest(parse_html(html))


def decode_html(tree: Tree) -> str:
    """Decode an ``HtmlE`` tree and serialize it back to HTML text."""
    from .dom import serialize

    return serialize(decode_forest(tree))
