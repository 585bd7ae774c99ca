"""Lexer for the Fast surface language (paper Figure 4).

The concrete syntax of the paper uses some typographic operators
(``≠``, ``∨``, ``∧``, ``∈``); we accept those plus ASCII spellings
(``!=``, ``or``/``||``, ``and``/``&&``, ``in``).  Comments run from
``//`` to end of line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseDepthError, ReproError, SourceLocation


class FastSyntaxError(ReproError):
    """A lexical or syntactic error in a Fast program."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(
            f"{message} (line {line}, column {column})",
            location=SourceLocation(line=line, column=column),
        )
        self.line = line
        self.column = column


class FastParseDepthError(ParseDepthError, FastSyntaxError):
    """Expression nesting in a Fast program exceeded the parser's cap."""


class Token(NamedTuple):
    kind: str  # ID, INT, REAL, STRING, OP, KW, EOF
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.value!r})@{self.line}:{self.column}"


KEYWORDS = {
    "type",
    "lang",
    "trans",
    "def",
    "tree",
    "where",
    "given",
    "to",
    "assert-true",
    "assert-false",
    "print",
    "true",
    "false",
    "in",
    "and",
    "or",
    "not",
}

#: Words that keep a hyphen (``x-1`` is still a subtraction).
HYPHENATED_WORDS = {
    "assert-true",
    "assert-false",
    "pre-image",
    "restrict-out",
    "is-empty",
    "get-witness",
    "type-check",
}

UNICODE_OPS = {
    "≠": "!=",  # ≠
    "∧": "&&",  # ∧
    "∨": "||",  # ∨
    "∈": "in",  # ∈
    "¬": "!",  # ¬
}

#: One alternative per token class; every character of a text falls in
#: some match, the last alternative catching what starts no token.
#: Multi-character operators come first (maximal munch).  A hyphenated
#: word must not run on into more word characters or hyphens.  A word is
#: a letter or ``_`` and then letters, digits, ``_`` and ``.``:
#: ``[^\W\d]`` also admits a few numeric non-letters such as ``½``, which
#: :func:`tokenize` rejects.
_TOKEN = re.compile(
    r"""
    (?P<space>[ \t\r]+)
  | (?P<word>(?:%s)(?![\w-])|[^\W\d][\w.]*)
  | (?P<op>==|!=|<=|>=|&&|\|\||->|:=|[()\[\]{}<>=+\-*%%|,:!])
  | (?P<newline>\n)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"(?P<body>(?:[^"\\\n]|\\[\s\S])*)")
  | (?P<comment>//[^\n]*)
  | (?P<unicode>[≠∧∨∈¬])
  | (?P<other>[\s\S])
    """
    % "|".join(sorted(HYPHENATED_WORDS)),
    re.VERBOSE,
)

_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def tokenize(text: str) -> list[Token]:
    """Tokenize a Fast program; raises :class:`FastSyntaxError`."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the NamedTuple call overhead
    line, line_start = 1, 0
    eof = len(text)  # the EOF token sits where a final comment starts
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group == "space":
            continue
        start = m.start()
        if group == "word":
            word = m[0]
            if not (word[0].isalpha() or word[0] == "_"):
                raise FastSyntaxError(
                    f"unexpected character {word[0]!r}", line, start - line_start + 1
                )
            kind = "KW" if word in KEYWORDS else "ID"
            append(new(Token, (kind, word, line, start - line_start + 1)))
        elif group == "op":
            append(new(Token, ("OP", m[0], line, start - line_start + 1)))
        elif group == "newline":
            line += 1
            line_start = start + 1
        elif group == "number":
            value = m[0]
            kind = "REAL" if "." in value else "INT"
            append(new(Token, (kind, value, line, start - line_start + 1)))
        elif group == "string":
            body = m["body"]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(new(Token, ("STRING", body, line, start - line_start + 1)))
        elif group == "comment":
            if m.end() == len(text):
                eof = start
        elif group == "unicode":
            mapped = UNICODE_OPS[m[0]]
            kind = "KW" if mapped == "in" else "OP"
            append(new(Token, (kind, mapped, line, start - line_start + 1)))
        elif m[0] == '"':
            _string_error(text, start, line, line_start)
        else:
            raise FastSyntaxError(
                f"unexpected character {m[0]!r}", line, start - line_start + 1
            )
    append(new(Token, ("EOF", "", line, eof - line_start + 1)))
    return tokens


def _string_error(text: str, start: int, line: int, line_start: int) -> None:
    """Raise the error of the malformed string literal opening at ``start``."""
    i, n = start + 1, len(text)
    while i < n and text[i] not in '"\n':
        i += 2 if text[i] == "\\" else 1
    if i > n:  # the text ends right after a backslash
        raise FastSyntaxError("dangling escape", line, n - line_start + 1)
    message = "newline in string" if i < n else "unterminated string"
    raise FastSyntaxError(message, line, start - line_start + 1)

