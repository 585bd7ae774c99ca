"""A small DOM: elements with attributes, text, and children.

The HTML sanitization case study (paper Sections 2 and 5.1) works over
DOM trees: the browser parses HTML into a DOM, sanitizers rewrite the
DOM, and the result is serialized back.  This module is the substrate
standing in for the browser's parser output (HTMLTidy in HTML Purifier's
case — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from ...trees.tree import pause_collector, resume_collector

#: Elements that never have children and need no closing tag.
VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


@dataclass
class Text:
    """A text node."""

    data: str

    def serialize(self) -> str:
        return (
            self.data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )


@dataclass
class Element:
    """An element node: tag, ordered attributes, children."""

    tag: str
    attrs: list[tuple[str, str]] = field(default_factory=list)
    children: list["Node"] = field(default_factory=list)

    def get(self, name: str) -> str | None:
        for k, v in self.attrs:
            if k == name:
                return v
        return None

    def iter_elements(self) -> Iterator["Element"]:
        yield self
        for c in self.children:
            if isinstance(c, Element):
                yield from c.iter_elements()

    def serialize(self) -> str:
        return serialize([self])

    def _open_tag(self) -> str:
        attrs = "".join(
            f' {k}="{_escape_attr(v)}"' if v else f" {k}" for k, v in self.attrs
        )
        if self.tag in VOID_ELEMENTS:
            return f"<{self.tag}{attrs} />"
        return f"<{self.tag}{attrs}>"


Node = Union[Element, Text]


def _escape_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace('"', "&quot;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def serialize(nodes: list[Node]) -> str:
    """Serialize a forest back to HTML text.

    Iterative, so a page nested thousands of elements deep serializes:
    the stack holds nodes still to write and the closing tags between
    them.
    """
    pause_collector()
    try:
        parts: list[str] = []
        stack: list[Node | str] = list(reversed(nodes))
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                parts.append(n)
            elif isinstance(n, Text):
                parts.append(n.serialize())
            else:
                parts.append(n._open_tag())
                if n.tag not in VOID_ELEMENTS:
                    stack.append(f"</{n.tag}>")
                    stack.extend(reversed(n.children))
        return "".join(parts)
    finally:
        resume_collector()
