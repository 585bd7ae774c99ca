"""The one-regex lexer against the character-at-a-time lexer it replaced.

Both must give the same tokens (kind, value, line, column) and, on a
malformed text, the same error message at the same position.
"""

from __future__ import annotations

import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import inputs
from repro.fast.lexer import FastSyntaxError, tokenize

from . import char_lexer

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "fast_programs"


def _lex(lexer, text: str):
    try:
        return [tuple(t) for t in lexer(text)]
    except FastSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _assert_same(text: str) -> None:
    assert _lex(tokenize, text) == _lex(char_lexer.tokenize, text)


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.fast")), ids=lambda p: p.name)
def test_example_programs(path):
    text = path.read_text()
    assert len(tokenize(text)) > 100
    _assert_same(text)


def test_generated_programs():
    for program in itertools.islice(inputs.programs(7), 600):
        _assert_same(program.source)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a // trailing comment",
        "a\n// only a comment",
        '"abc',
        '"ab\ncd"',
        '"ab\\',
        '"a\\\nb" c',
        '"tab\\t" 1.5.3 x.y-z',
        "assert-true pre-image restrict-out is-empty get-witness type-check",
        "x-1 a--b assert-trueish _u9 é1",
        "tag ≠ \"x\" ∧ a ∨ b ∈ ¬c",
        "a @ b",
        "½",
        "\ta\r\n  b",
    ],
)
def test_edge_cases(text):
    _assert_same(text)


_ALPHABET = st.sampled_from(
    list("ab_Z09.-/\"\\ \t\r\n()[]{}<>=!&|+*%,:@#é≠∧∨∈¬")
    + ["assert-true", "pre-image", "true", "in", "//", "->", ":=", "12.5"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ALPHABET, max_size=40).map("".join))
def test_random_text(text):
    _assert_same(text)
