"""Parser for operator expressions.

Grammar (ASCII, with glyph alternates for the two calculus generators):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*            (juxtaposition is not allowed)
    factor  := '-' factor | power
    power   := atom ('^' natural)?
    atom    := rational | 'i' | generator | '(' expr ')'

    generator := ('H' | 'd' | 'int' | 'x') '_' slot
               | 'e' '[' integer ',' integer ']' '_' slot
    rational  := digits ('/' digits)?

The glyphs '∂' and '∫' are accepted for 'd' and 'int'.  Errors carry the
line/column of the offending token and the set of expected tokens.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .scalars import Scalar

# deepest nesting of parentheses and unary minus the recursive parser accepts
MAX_NESTING = 100
# largest exponent '^' accepts
MAX_EXPONENT = 10000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{hint}")


class Token(NamedTuple):
    kind: str  # NUM IMAG GEN E OP LPAREN RPAREN END
    text: str
    line: int
    col: int
    value: object = None  # Fraction for NUM, (name, slot) for GEN, (s,t,slot) for E


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


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, tok: Token, parse):
        """parse() one nesting level below tok, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting exceeds the limit MAX_NESTING = {MAX_NESTING}", tok.line, tok.col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(
                f"unexpected token {tok.text!r}",
                tok.line,
                tok.col,
                ("'+'", "'-'", "'*'", "end of input"),
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = (("add" if tok.text == "+" else "sub"), node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return ("neg", self.nested(tok, self.factor))
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exp = self.peek()
            if exp.kind != "NUM" or exp.value.denominator != 1:
                raise ParseError(
                    "exponent must be a natural number",
                    exp.line,
                    exp.col,
                    ("natural number",),
                )
            k = int(exp.value)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds the limit MAX_EXPONENT = {MAX_EXPONENT}", exp.line, exp.col)
            self.advance()
            node = ("pow", node, k)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return ("num", Scalar(tok.value))
        if tok.kind == "IMAG":
            self.advance()
            return ("num", Scalar(0, 1))
        if tok.kind == "GEN":
            self.advance()
            name, slot = tok.value
            return ("gen", name, slot)
        if tok.kind == "E":
            self.advance()
            s, t, slot = tok.value
            return ("e", s, t, slot)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.nested(tok, self.expr)
            close = self.peek()
            if close.kind != "RPAREN":
                raise ParseError(
                    f"unexpected token {close.text or 'end of input'!r}",
                    close.line,
                    close.col,
                    ("')'",),
                )
            self.advance()
            return node
        raise ParseError(
            f"unexpected token {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            ("number", "generator", "'('", "'-'"),
        )


def parse_expression(text: str):
    """Text to AST; raises ParseError with position and expectations."""
    return Parser(tokenize(text)).parse()


def left_spine(ast):
    """(first operand, [(tag, right operand), ...]) of a left-nested chain of
    add/sub/mul nodes, operands in source order.  Walking a flat chain this
    way costs no recursion."""
    ops = []
    while ast[0] in ("add", "sub", "mul"):
        ops.append((ast[0], ast[2]))
        ast = ast[1]
    return ast, ops[::-1]


def check_slots(ast, n: int):
    """Verify every slot index lies in 1..n; raises ValueError otherwise."""
    first, ops = left_spine(ast)
    for node in [first] + [right for _, right in ops]:
        tag = node[0]
        if tag in ("gen", "e"):
            slot = node[-1]
            if not (1 <= slot <= n):
                raise ValueError(f"slot index {slot} out of range 1..{n}")
            if tag == "e" and (node[1] < 0 or node[2] < 0):
                raise ValueError("matrix-unit indices must be non-negative")
        elif tag in ("add", "sub", "mul"):
            check_slots(node, n)
        elif tag in ("neg", "pow"):
            check_slots(node[1], n)
