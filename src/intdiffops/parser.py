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

The glyphs '∂' and '∫' are accepted for 'd' and 'int'.  The token pattern
`_TOKEN` is the lexical part of this grammar: one alternative per token
kind, digits are decimal digits, and blanks and newlines separate tokens.
Errors carry the line/column of the offending token and the set of
expected tokens.
"""

from __future__ import annotations

import re
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


_NAME = r"int|[Hdx∂∫]"
_GLYPHS = {"∂": "d", "∫": "int"}
# tried in order; '\d' is what int() reads, 'i' then 'nt' starts a generator,
# and BAD takes the first character of any token that does not match
_TOKEN = re.compile(
    rf"""
      (?P<NL>\n)
    | (?P<WS>[ \t\r]+)
    | (?P<NUM>(?P<num>\d+)(?:/(?P<den>\d+))?)
    | (?P<OP>[-+*^])
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<E>e\[(?P<s>-?\d+),(?P<t>-?\d+)\]_(?P<eslot>\d+))
    | (?P<GEN>(?P<name>{_NAME})_(?P<slot>\d+))
    | (?P<IMAG>i(?!nt))
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)
# the parts of a slot subscript and of a matrix unit after 'e[', in order:
# (pattern, message, expected) for the error naming the first one missing
_SLOT_INDEX = (r"\d+", "missing slot index", "digit")
_E_PARTS = (
    (r"-?\d+", "malformed matrix-unit token", "integer"),
    (",", "malformed matrix-unit token", "','"),
    (r"-?\d+", "malformed matrix-unit token", "integer"),
    (r"\]", "malformed matrix-unit token", "']'"),
    ("_", "missing slot subscript", "'_'"),
    _SLOT_INDEX,
)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        col = m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "NUM":
            den = int(m["den"] or 1)
            if not den:
                raise ParseError(f"zero denominator in {m[0]!r}", line, col)
            tokens.append(Token(kind, m[0], line, col, Fraction(int(m["num"]), den)))
        elif kind == "E":
            tokens.append(Token(kind, m[0], line, col, (int(m["s"]), int(m["t"]), int(m["eslot"]))))
        elif kind == "GEN":
            tokens.append(Token(kind, m[0], line, col, (_GLYPHS.get(m["name"], m["name"]), int(m["slot"]))))
        elif kind == "BAD":
            stop, message, expected = _stop(text, m.start())
            raise ParseError(message, line, stop - line_start + 1, expected)
        elif kind != "WS":
            tokens.append(Token(kind, m[0], line, col))
    tokens.append(Token("END", "", line, len(text) - line_start + 1))
    return tokens


def _stop(text: str, pos: int) -> Tuple[int, str, Tuple[str, ...]]:
    """(offset, message, expected) of the first part missing from the
    generator or matrix unit that starts at pos, else of the character
    there.  Some part is missing, as the whole did not match _TOKEN."""
    name = re.compile(_NAME).match(text, pos)
    if text.startswith("e[", pos):
        parts, pos = _E_PARTS, pos + 2
    elif name:
        needs = f"generator {_GLYPHS.get(name[0], name[0])!r} needs a slot subscript"
        parts, pos = (("_", needs, "'_'"), _SLOT_INDEX), name.end()
    else:
        return pos, f"unexpected character {text[pos]!r}", ()
    for part, message, expected in parts:
        m = re.compile(part).match(text, pos)
        if m is None:
            return pos, message, (expected,)
        pos = m.end()


def _error(tok: Token, message: str, *expected: str) -> ParseError:
    return ParseError(message, tok.line, tok.col, expected)


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
            raise _error(tok, f"nesting exceeds the limit MAX_NESTING = {MAX_NESTING}")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise _error(tok, f"unexpected token {tok.text!r}", "'+'", "'-'", "'*'", "end of input")
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
                raise _error(exp, "exponent must be a natural number", "natural number")
            k = int(exp.value)
            if k > MAX_EXPONENT:
                raise _error(exp, f"exponent {k} exceeds the limit MAX_EXPONENT = {MAX_EXPONENT}")
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
                raise _error(close, f"unexpected token {close.text or 'end of input'!r}", "')'")
            self.advance()
            return node
        raise _error(tok, f"unexpected token {tok.text or 'end of input'!r}", "number", "generator", "'('", "'-'")


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
