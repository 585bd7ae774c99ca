"""HTML sanitizers (paper Sections 2 and 5.1).

Two implementations with the same specification:

* :class:`FastHtmlSanitizer` — the paper's approach: each sanitization
  pass is an independent Fast transformation; the passes are *composed*
  into one transducer (one traversal of the tree, Section 5.1's key
  maintainability/performance point), and the composed transducer is
  *analyzable*: :meth:`FastHtmlSanitizer.analyze` runs the Section 2
  pre-image check that no input can produce an output containing a
  ``script`` node.
* :class:`MonolithicSanitizer` — the baseline shape of HTML Purifier
  and friends: one hand-fused DOM rewrite pass, fast but opaque.

Both remove the configured tags (dropping the subtree, keeping later
siblings) and escape ``'`` and ``"`` with a backslash, exactly the
``remScript``/``esc`` pipeline of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...fast import compile_program, parse_program
from ...smt.solver import DEFAULT_SOLVER, Solver
from ...trees.tree import Tree
from .dom import Element, Node, Text
from .encoding import decode_html, encode_html
from .parser import parse_html

#: Characters escaped by the ``esc`` pass (Figure 2).
ESCAPED_CHARS = ("'", '"')


def fast_sanitizer_source(remove_tags: tuple[str, ...] = ("script",)) -> str:
    """The Figure 2 Fast program, generalized to a set of removed tags."""
    removed = " || ".join(f'(tag = "{t}")' for t in remove_tags)
    kept = " && ".join(f'(tag != "{t}")' for t in remove_tags)
    return f"""
type HtmlE[tag : String]{{nil(0), val(1), attr(2), node(3)}}

lang nodeTree : HtmlE {{
    node(x1, x2, x3) given (attrTree x1) (nodeTree x2) (nodeTree x3)
  | nil() where (tag = "")
}}
lang attrTree : HtmlE {{
    attr(x1, x2) given (valTree x1) (attrTree x2)
  | nil() where (tag = "")
}}
lang valTree : HtmlE {{
    val(x1) where (tag != "") given (valTree x1)
  | nil() where (tag = "")
}}

trans remScript : HtmlE -> HtmlE {{
    node(x1, x2, x3) where ({kept})
      to (node [tag] x1 (remScript x2) (remScript x3))
  | node(x1, x2, x3) where ({removed}) to (remScript x3)
  | nil() to (nil [tag])
}}
trans esc : HtmlE -> HtmlE {{
    node(x1, x2, x3) to (node [tag] (esc x1) (esc x2) (esc x3))
  | attr(x1, x2) to (attr [tag] (esc x1) (esc x2))
  | val(x1) where (tag = "'" || tag = "\\"")
      to (val ["\\\\"] (val [tag] (esc x1)))
  | val(x1) where (tag != "'" && tag != "\\"")
      to (val [tag] (esc x1))
  | nil() to (nil [tag])
}}

def rem_esc : HtmlE -> HtmlE := (compose remScript esc)
def sani : HtmlE -> HtmlE := (restrict rem_esc nodeTree)

lang badOutput : HtmlE {{
    node(x1, x2, x3) where ({removed})
  | node(x1, x2, x3) given (badOutput x2)
  | node(x1, x2, x3) given (badOutput x3)
}}
"""


@dataclass
class SanitizerAnalysis:
    """Result of the Section 2 security analysis."""

    safe: bool
    counterexample: Optional[Tree]


class FastHtmlSanitizer:
    """The composed-transducer sanitizer of Sections 2 and 5.1."""

    def __init__(
        self,
        remove_tags: tuple[str, ...] = ("script",),
        solver: Solver | None = None,
    ) -> None:
        self.remove_tags = remove_tags
        source = fast_sanitizer_source(remove_tags)
        self.env = compile_program(parse_program(source), solver or DEFAULT_SOLVER)
        #: the composed one-pass transducer used for sanitization
        self.rem_esc = self.env.transducers["rem_esc"]
        #: the input-restricted transducer used for analysis
        self.sani = self.env.transducers["sani"]
        #: the two passes, for the uncomposed (two-traversal) comparison
        self.rem_script = self.env.transducers["remScript"]
        self.esc = self.env.transducers["esc"]

    def sanitize_tree(self, tree: Tree) -> Tree:
        out = self.rem_esc.apply_one(tree)
        assert out is not None, "rem_esc is total on HtmlE encodings"
        return out

    def sanitize(self, html: str) -> str:
        """Parse, encode (Figure 3), run the composed transducer, decode."""
        return decode_html(self.sanitize_tree(encode_html(html)))

    def sanitize_two_pass(self, html: str) -> str:
        """The uncomposed pipeline: two full traversals (for comparison)."""
        tree = encode_html(html)
        mid = self.rem_script.apply_one(tree)
        out = self.esc.apply_one(mid)
        return decode_html(out)

    def analyze(self) -> SanitizerAnalysis:
        """Section 2: can any well-formed input produce a removed tag?"""
        bad_output = self.env.langs["badOutput"]
        bad_inputs = self.sani.pre_image(bad_output)
        witness = bad_inputs.witness()
        return SanitizerAnalysis(witness is None, witness)


class MonolithicSanitizer:
    """The baseline: one hand-fused DOM rewriting pass."""

    def __init__(self, remove_tags: tuple[str, ...] = ("script",)) -> None:
        self.remove_tags = frozenset(remove_tags)

    def sanitize(self, html: str) -> str:
        from .dom import serialize

        forest = parse_html(html)
        return serialize(self._clean_forest(forest))

    def _clean_forest(self, nodes: list[Node]) -> list[Node]:
        """Iterative, so a page nested thousands of elements deep cleans.
        ``work`` holds each sibling list still to clean with the list its
        cleaned nodes go to."""
        out: list[Node] = []
        work: list[tuple[list[Node], list[Node]]] = [(nodes, out)]
        while work:
            nodes, dest = work.pop()
            for n in nodes:
                if isinstance(n, Text):
                    dest.append(Text(self._escape(n.data)))
                    continue
                if n.tag in self.remove_tags:
                    continue  # drop the subtree, keep later siblings
                children: list[Node] = []
                attrs = [(k, self._escape(v)) for k, v in n.attrs]
                dest.append(Element(n.tag, attrs, children))
                work.append((n.children, children))
        return out

    @staticmethod
    def _escape(text: str) -> str:
        for ch in ESCAPED_CHARS:
            text = text.replace(ch, "\\" + ch)
        return text
