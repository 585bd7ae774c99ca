"""The character-at-a-time Fast lexer that the one-regex lexer replaced.

Kept only as the oracle of ``test_lexer_equivalence.py``: it returns
``(kind, value, line, column)`` tuples and raises the same
:class:`FastSyntaxError` messages at the same positions.
"""

from repro.fast.lexer import HYPHENATED_WORDS, KEYWORDS, FastSyntaxError

OPERATORS = [
    "==", "!=", "<=", ">=", "&&", "||", "->", ":=",
    "(", ")", "[", "]", "{", "}", "<", ">", "=", "+", "-", "*", "%", "|", ",", ":", "!",
]

UNICODE_OPS = {"≠": "!=", "∧": "&&", "∨": "||", "∈": "in", "¬": "!"}


def Token(kind, value, line, column):
    return (kind, value, line, column)


def tokenize(text: str) -> list[tuple]:
    """Tokenize a Fast program; raises :class:`FastSyntaxError`."""
    tokens: list[tuple] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def error(msg: str) -> FastSyntaxError:
        return FastSyntaxError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in UNICODE_OPS:
            mapped = UNICODE_OPS[ch]
            kind = "KW" if mapped == "in" else "OP"
            tokens.append(Token(kind, mapped, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            out: list[str] = []
            while True:
                if i >= n:
                    raise FastSyntaxError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\n":
                    raise FastSyntaxError("newline in string", start_line, start_col)
                i += 1
                col += 1
                if c == '"':
                    break
                if c == "\\":
                    if i >= n:
                        raise FastSyntaxError("dangling escape", line, col)
                    esc = text[i]
                    i += 1
                    col += 1
                    out.append({"n": "\n", "t": "\t", "r": "\r", "0": "\0"}.get(esc, esc))
                else:
                    out.append(c)
            tokens.append(Token("STRING", "".join(out), start_line, start_col))
            continue
        if ch.isdigit():
            start_col = col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("REAL", text[i:j], line, start_col))
            else:
                tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            word = text[i:j]
            # assert-true / assert-false / pre-image / restrict-out / etc.
            # join a following "-ident" when the combined word is meaningful.
            if j < n and text[j] == "-":
                k = j + 1
                while k < n and (text[k].isalnum() or text[k] in "_-"):
                    k += 1
                hyphenated = text[i:k]
                if hyphenated in HYPHENATED_WORDS:
                    word, j = hyphenated, k
            kind = "KW" if word in KEYWORDS else "ID"
            tokens.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise error(f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens


