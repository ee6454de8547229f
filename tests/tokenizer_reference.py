"""The character-loop tokenizer that `parser.tokenize` replaced, kept verbatim
as a reference for the differential test in `test_tokenizer.py`.

It reads digits with `str.isdigit`, so a character such as '²' that is a
digit but not a decimal digit reaches `int()` and escapes as a bare
ValueError; on every other input its tokens and ParseErrors are those of
the one token pattern.
"""

from fractions import Fraction
from typing import List, Tuple

from intdiffops.parser import ParseError, Token

_GEN_NAMES = ("int", "H", "d", "x")
_GLYPHS = {"∂": "d", "∫": "int"}


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def err(msg, expected=()):
        raise ParseError(msg, line, col, expected)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1 : k])
                j = k
                if not den:
                    err(f"zero denominator in {text[i:j]!r}")
            tokens.append(Token("NUM", text[i:j], line, start_col, Fraction(num, den)))
            col += j - i
            i = j
            continue
        if ch in "+-*^":
            tokens.append(Token("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "(":
            tokens.append(Token("LPAREN", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == ")":
            tokens.append(Token("RPAREN", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "e" and i + 1 < n and text[i + 1] == "[":
            j = i + 2
            nums = []
            for which in range(2):
                k = j
                if k < n and text[k] == "-":
                    k += 1
                if k >= n or not text[k].isdigit():
                    col = start_col + (j - i)
                    err("malformed matrix-unit token", ("integer",))
                while k < n and text[k].isdigit():
                    k += 1
                nums.append(int(text[j:k]))
                j = k
                sep = "," if which == 0 else "]"
                if j >= n or text[j] != sep:
                    col = start_col + (j - i)
                    err("malformed matrix-unit token", (f"'{sep}'",))
                j += 1
            slot, j2 = _read_slot(text, j, line, start_col + (j - i))
            tok_text = text[i:j2]
            tokens.append(
                Token("E", tok_text, line, start_col, (nums[0], nums[1], slot))
            )
            col += j2 - i
            i = j2
            continue
        name = None
        for g in _GEN_NAMES:
            if text.startswith(g, i):
                name = g
                break
        if name is None and ch in _GLYPHS:
            name = _GLYPHS[ch]
            glyph_len = 1
        else:
            glyph_len = len(name) if name else 0
        if name is not None:
            j = i + glyph_len
            if j < n and text[j] == "_":
                slot, j2 = _read_slot(text, j, line, start_col + (j - i))
                tokens.append(Token("GEN", text[i:j2], line, start_col, (name, slot)))
                col += j2 - i
                i = j2
                continue
            if name == "x" or name == "H" or name == "d" or name == "int":
                # generators require an explicit slot subscript
                col = start_col + glyph_len
                err(f"generator {name!r} needs a slot subscript", ("'_'",))
        if ch == "i":
            tokens.append(Token("IMAG", ch, line, start_col))
            i += 1
            col += 1
            continue
        err(f"unexpected character {ch!r}")
    tokens.append(Token("END", "", line, col))
    return tokens


def _read_slot(text: str, j: int, line: int, col: int) -> Tuple[int, int]:
    if j >= len(text) or text[j] != "_":
        raise ParseError("missing slot subscript", line, col, ("'_'",))
    k = j + 1
    if k >= len(text) or not text[k].isdigit():
        raise ParseError("missing slot index", line, col + 1, ("digit",))
    while k < len(text) and text[k].isdigit():
        k += 1
    return int(text[j + 1 : k]), k
