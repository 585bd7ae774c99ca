"""Tests for the HTML substrate and the two sanitizers (Sections 2, 5.1)."""

import gc
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.html import (
    Element,
    FastHtmlSanitizer,
    MonolithicSanitizer,
    Text,
    decode_forest,
    decode_html,
    decode_string,
    encode_forest,
    encode_html,
    encode_string,
    generate_page,
    paper_page_suite,
    parse_html,
    serialize,
)
from repro.exec.compiled import CompiledSTTR


class TestParser:
    def test_simple_nesting(self):
        (div,) = parse_html("<div><p>hi</p></div>")
        assert div.tag == "div"
        (p,) = div.children
        assert p.tag == "p" and p.children[0].data == "hi"

    def test_attributes_quoting_styles(self):
        (el,) = parse_html('<a href="x" title=\'y\' data-z=3 checked>t</a>')
        assert el.get("href") == "x"
        assert el.get("title") == "y"
        assert el.get("data-z") == "3"
        assert el.get("checked") == ""

    def test_void_elements(self):
        forest = parse_html("<br><img src=a><p>x</p>")
        assert [n.tag for n in forest] == ["br", "img", "p"]

    def test_self_closing(self):
        (el,) = parse_html("<div/>")
        assert el.tag == "div" and not el.children

    def test_comments_and_doctype_skipped(self):
        forest = parse_html("<!doctype html><!-- c --><p>x</p>")
        assert len(forest) == 1 and forest[0].tag == "p"

    def test_script_raw_text(self):
        (s,) = parse_html("<script>if (a < b) { x(); }</script>")
        assert s.tag == "script"
        assert "a < b" in s.children[0].data

    def test_stray_close_tag_ignored(self):
        forest = parse_html("</div><p>x</p>")
        assert [n.tag for n in forest] == ["p"]

    def test_mismatched_close_recovers(self):
        forest = parse_html("<div><p>x</div>")
        assert forest[0].tag == "div"

    def test_entities(self):
        (p,) = parse_html("<p>a &amp; b &lt;c&gt;</p>")
        assert p.children[0].data == "a & b <c>"

    def test_bare_lt_is_text(self):
        (p,) = parse_html("<p>1 < 2</p>")
        assert "<" in p.children[0].data


class TestEncoding:
    def test_figure3_shape(self):
        tree = encode_html('<div id=\'e"\'><script>a</script></div><br />')
        # root chain: div then br
        assert tree.ctor == "node" and tree.attrs == ("div",)
        attrs, first, sibling = tree.children
        assert attrs.ctor == "attr" and attrs.attrs == ("id",)
        assert decode_string(attrs.children[0]) == 'e"'
        assert first.attrs == ("script",)
        assert sibling.attrs == ("br",)

    def test_string_roundtrip(self):
        for s in ["", "a", 'quote"inside', "longer text"]:
            assert decode_string(encode_string(s)) == s

    def test_roundtrip_simple(self):
        html = "<div class=\"a\"><p>text</p><p>more</p></div>"
        assert decode_html(encode_html(html)) == serialize(parse_html(html))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip_generated_pages(self, seed):
        page = generate_page(2000, seed)
        forest = parse_html(page)
        assert decode_forest(encode_forest(forest)) == forest

    def test_wellformedness(self):
        from repro.apps.html import HTML_E

        HTML_E.validate(encode_html(generate_page(3000, 7)))


@pytest.fixture(scope="module")
def fast_sanitizer():
    return FastHtmlSanitizer()


class TestSanitizers:
    def test_script_removed(self, fast_sanitizer):
        out = fast_sanitizer.sanitize("<div><script>x</script><p>ok</p></div>")
        assert "<script" not in out and "ok" in out

    def test_script_siblings_survive(self, fast_sanitizer):
        out = fast_sanitizer.sanitize("<script>x</script><p>after</p>")
        assert "after" in out

    def test_nested_scripts_removed(self, fast_sanitizer):
        out = fast_sanitizer.sanitize(
            "<div><script>a</script><div><script>b</script></div></div>"
        )
        assert "<script" not in out

    def test_quotes_escaped(self, fast_sanitizer):
        out = fast_sanitizer.sanitize("<p>don't</p>")
        assert "don\\'t" in out

    def test_attribute_quotes_escaped(self, fast_sanitizer):
        out = fast_sanitizer.sanitize('<div title="a\'b">x</div>')
        assert "a\\'b" in out

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fast_equals_monolithic(self, fast_sanitizer, seed):
        page = generate_page(1500, seed)
        mono = MonolithicSanitizer()
        assert fast_sanitizer.sanitize(page) == mono.sanitize(page)

    def test_two_pass_equals_composed(self, fast_sanitizer):
        page = generate_page(1500, 3)
        assert fast_sanitizer.sanitize(page) == fast_sanitizer.sanitize_two_pass(page)

    @pytest.mark.parametrize("tier", ["compiled", "interp"])
    def test_deep_sibling_spine(self, fast_sanitizer, monkeypatch, tier):
        # Figure 3 chains siblings through each node's last child, so
        # 20k siblings are a 20k-deep right spine.  Neither tier may
        # recurse on tree depth.
        monkeypatch.setenv("REPRO_EXEC", tier)
        forest = [Element("script" if i % 2 else "b") for i in range(20_000)]
        out = fast_sanitizer.rem_esc.apply_one(encode_forest(forest))
        assert out is not None
        kept = decode_forest(out)
        assert len(kept) == 10_000
        assert all(el.tag == "b" for el in kept)

    @staticmethod
    def _nested_page(depth):
        return (
            '<div title="a\'b">' * depth
            + "it's<script>alert(1)</script>"
            + "</div>" * depth
            + "<p>end</p>"
        )

    def _assert_sanitizes_like_monolithic(self, fast_sanitizer, page):
        out = fast_sanitizer.rem_esc.apply_one(encode_forest(parse_html(page)))
        assert serialize(decode_forest(out)) == MonolithicSanitizer().sanitize(page)

    @pytest.mark.parametrize("tier", ["compiled", "interp"])
    def test_deeply_nested_page(self, fast_sanitizer, monkeypatch, tier):
        # 1,500 nested elements: parse, encode, run, decode and serialize
        # all walk the nesting without recursing, and so does the
        # monolithic sanitizer, the oracle.
        monkeypatch.setenv("REPRO_EXEC", tier)
        page = self._nested_page(1500)
        self._assert_sanitizes_like_monolithic(fast_sanitizer, page)
        expected = MonolithicSanitizer().sanitize(page)
        assert expected.startswith('<div title="a\\\'b">') and "<script" not in expected

    @pytest.mark.parametrize("tier", ["compiled", "interp"])
    def test_5000_deep_page(self, fast_sanitizer, monkeypatch, tier):
        monkeypatch.setenv("REPRO_EXEC", tier)
        self._assert_sanitizes_like_monolithic(fast_sanitizer, self._nested_page(5000))

    @pytest.mark.parametrize("tier", ["compiled", "interp"])
    def test_5000_quote_attribute(self, fast_sanitizer, monkeypatch, tier):
        # A 5,000-deep val chain of quotes: every node of it is rebuilt.
        monkeypatch.setenv("REPRO_EXEC", tier)
        page = '<p title="' + "'" * 5000 + '">x</p>'
        self._assert_sanitizes_like_monolithic(fast_sanitizer, page)
        assert MonolithicSanitizer().sanitize(page).count("\\'") == 5000

    def test_val_chains_run_in_one_loop(self, fast_sanitizer):
        # walk_one enters a run of val nodes in one loop (a chain group);
        # its generated source names the constructor it loops over.
        compiled = CompiledSTTR(fast_sanitizer.rem_esc.sttr)
        walk_one, _ = compiled.walks()
        source = compiled.source.split("def walk_all")[0]
        looped = re.findall(r"t\.ctor == (\w+):\n\s+links = \[\]", source)
        assert [walk_one.__globals__[name] for name in looped] == ["val"]

    def test_unchanged_page_is_returned_as_is(self, fast_sanitizer):
        # No script and no quote: every output node copies its input
        # node, so the compiled walk returns the input tree itself.
        tree = encode_html('<div id="a"><p>hello</p><b title=x>world</b></div>')
        assert fast_sanitizer.rem_esc.apply_one(tree) is tree

    def test_text_after_a_quote_is_the_input_chain(self, fast_sanitizer):
        tree = encode_html("<p>it's here</p>")
        out = fast_sanitizer.rem_esc.apply_one(tree)
        assert decode_html(out) == "<p>it\\'s here</p>"
        # node[p](attr[text](chain, nil), nil, nil): walk both text
        # chains to the quote.
        chain = tree.children[0].children[0]
        chain_out = out.children[0].children[0]
        while chain.attrs != ("'",):
            chain, chain_out = chain.children[0], chain_out.children[0]
        # The output inserts a backslash node, then reuses the input's
        # quote node and the chain after it.
        assert chain_out.attrs == ("\\",)
        (quote,) = chain_out.children
        assert quote is chain and quote.children[0] is chain.children[0]

    def test_output_sharing_its_input_pickles(self, fast_sanitizer):
        # A 1,000-character text is a 1,000-deep chain, shared from its
        # first quote on between the input and the output.
        page = generate_page(3000, 5) + "<p>" + "it's " * 200 + "</p>"
        tree = encode_html(page)
        out = fast_sanitizer.rem_esc.apply_one(tree)
        back_tree, back_out = pickle.loads(pickle.dumps((tree, out)))
        assert back_out == out and back_tree == tree
        assert pickle.loads(pickle.dumps(out)) == out
        assert decode_html(back_out) == MonolithicSanitizer().sanitize(page)

    def test_analysis_fixed_is_safe(self, fast_sanitizer):
        assert fast_sanitizer.analyze().safe

    def test_custom_removed_tags(self):
        s = FastHtmlSanitizer(remove_tags=("script", "iframe"))
        out = s.sanitize("<iframe src=x></iframe><b>keep</b>")
        assert "iframe" not in out and "keep" in out
        assert s.analyze().safe


class TestCollectorPause:
    """Pages and their trees are acyclic, so the HTML pipeline and the
    transducer run keep the cyclic collector off while they build."""

    @pytest.mark.parametrize("tier", ["compiled", "interp"])
    def test_no_collection_while_a_page_is_built_or_run(
        self, fast_sanitizer, monkeypatch, tier
    ):
        monkeypatch.setenv("REPRO_EXEC", tier)
        page = generate_page(20_000, 4)
        expected = MonolithicSanitizer().sanitize(page)
        apply_one = fast_sanitizer.rem_esc.apply_one
        apply_one(encode_html(page))  # the compiled tier writes its walk here
        steps = dict(
            parse_html=parse_html,
            encode_forest=encode_forest,
            apply_one=apply_one,
            decode_forest=decode_forest,
            serialize=serialize,
        )
        running: list[str] = []
        started: list[tuple[str, int]] = []

        def on_collect(phase, info):
            if phase == "start" and running:
                started.append((running[0], info["generation"]))

        gc.callbacks.append(on_collect)
        try:
            for enabled in (True, False):
                if not enabled:
                    gc.disable()
                value = page
                for name, step in steps.items():
                    # Start each step owing the collector nothing, so a
                    # collection can only come from the step's own work.
                    gc.collect()
                    running.append(name)
                    value = step(value)
                    running.clear()
                    assert gc.isenabled() is enabled, name
                assert value == expected
            assert started == []
        finally:
            gc.callbacks.remove(on_collect)
            gc.enable()


class TestPages:
    def test_sizes(self):
        page = generate_page(20_000, 1)
        assert 18_000 < len(page) < 30_000

    def test_suite_spans_paper_range(self):
        suite = paper_page_suite()
        assert len(suite) == 10
        sizes = [len(html) for _, html in suite]
        assert sizes[0] < 40_000 and sizes[-1] > 350_000

    def test_pages_contain_scripts_and_quotes(self):
        page = generate_page(30_000, 2)
        assert "<script" in page and "'" in page

    def test_deterministic(self):
        assert generate_page(5000, 9) == generate_page(5000, 9)
