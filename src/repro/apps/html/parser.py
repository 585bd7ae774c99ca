"""A tolerant HTML parser producing the DOM of :mod:`repro.apps.html.dom`.

Stands in for the HTMLTidy front-end the paper's comparison sanitizer
(HTML Purifier) uses: tag soup in, tree out.  Handles attributes with
single/double/no quotes, void and self-closing elements, comments,
doctypes, basic entities, raw-text elements (``script``/``style``), and
silently recovers from mismatched closing tags.
"""

from __future__ import annotations

import re

from ...trees.tree import pause_collector, resume_collector
from .dom import VOID_ELEMENTS, Element, Node, Text

_TAG_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:-]*")
_ATTR_RE = re.compile(
    r"""\s*([^\s=/>"']+)(?:\s*=\s*("([^"]*)"|'([^']*)'|[^\s>]*))?"""
)
_ENTITIES = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&#39;": "'",
    "&apos;": "'",
    "&nbsp;": " ",
}

#: Elements whose content is raw text until the matching close tag.
RAW_TEXT_ELEMENTS = frozenset({"script", "style", "textarea", "title"})


def _unescape(text: str) -> str:
    for k, v in _ENTITIES.items():
        text = text.replace(k, v)
    return text


def parse_html(text: str) -> list[Node]:
    """Parse HTML text into a forest of DOM nodes (never raises)."""
    pause_collector()
    try:
        root = Element("#root")
        stack: list[Element] = [root]
        i = 0
        n = len(text)
        while i < n:
            lt = text.find("<", i)
            if lt == -1:
                _append_text(stack[-1], text[i:])
                break
            if lt > i:
                _append_text(stack[-1], text[i:lt])
            if text.startswith("<!--", lt):
                end = text.find("-->", lt + 4)
                i = n if end == -1 else end + 3
                continue
            if text.startswith("<!", lt) or text.startswith("<?", lt):
                end = text.find(">", lt)
                i = n if end == -1 else end + 1
                continue
            if text.startswith("</", lt):
                end = text.find(">", lt)
                if end == -1:
                    break
                name = text[lt + 2 : end].strip().lower()
                _close(stack, name)
                i = end + 1
                continue
            m = _TAG_RE.match(text, lt + 1)
            if m is None:
                _append_text(stack[-1], "<")
                i = lt + 1
                continue
            tag = m.group(0).lower()
            j = m.end()
            attrs: list[tuple[str, str]] = []
            self_closing = False
            while j < n:
                if text[j] == ">":
                    j += 1
                    break
                if text.startswith("/>", j):
                    self_closing = True
                    j += 2
                    break
                am = _ATTR_RE.match(text, j)
                if am is None or am.end() == j:
                    j += 1
                    continue
                name = am.group(1).lower()
                raw = am.group(2)
                if raw is None:
                    value = ""
                elif am.group(3) is not None:
                    value = am.group(3)
                elif am.group(4) is not None:
                    value = am.group(4)
                else:
                    value = raw
                attrs.append((name, _unescape(value)))
                j = am.end()
            element = Element(tag, attrs)
            stack[-1].children.append(element)
            if tag in RAW_TEXT_ELEMENTS and not self_closing:
                close = f"</{tag}"
                end = text.lower().find(close, j)
                if end == -1:
                    raw_content = text[j:]
                    j = n
                else:
                    raw_content = text[j:end]
                    gt = text.find(">", end)
                    j = n if gt == -1 else gt + 1
                if raw_content:
                    element.children.append(Text(raw_content))
                i = j
                continue
            if not self_closing and tag not in VOID_ELEMENTS:
                stack.append(element)
            i = j
        return root.children
    finally:
        resume_collector()


def _append_text(parent: Element, data: str) -> None:
    if not data:
        return
    data = _unescape(data)
    # Merge adjacent text nodes so recovery (e.g. a bare '<') does not
    # fragment the DOM.
    if parent.children and isinstance(parent.children[-1], Text):
        parent.children[-1].data += data
    else:
        parent.children.append(Text(data))


def _close(stack: list[Element], name: str) -> None:
    """Close the nearest matching open element (tolerant recovery)."""
    for depth in range(len(stack) - 1, 0, -1):
        if stack[depth].tag == name:
            del stack[depth:]
            return
    # No matching open tag: ignore the stray closer.
