"""Tests for the HTML substrate and the two sanitizers (Sections 2, 5.1)."""

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

    def test_analysis_fixed_is_safe(self, fast_sanitizer):
        assert fast_sanitizer.analyze().safe

    def test_custom_removed_tags(self):
        s = FastHtmlSanitizer(remove_tags=("script", "iframe"))
        out = s.sanitize("<iframe src=x></iframe><b>keep</b>")
        assert "iframe" not in out and "keep" in out
        assert s.analyze().safe


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
