"""The one token pattern of `parser.tokenize` against the character loop it
replaced (`tokenizer_reference.py`)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokenizer_reference
from intdiffops.parser import ParseError, tokenize

# single characters (glyphs, blanks, Arabic-Indic digits, which are decimal,
# and '²' and '①', which are digits but not decimal) and every prefix of a
# matrix unit and of a generator, so that each part of either can go missing
_PIECES = list("0123456789/+-*^()[],_ \t\r\niedHxnt∂∫٠٣٩²①#.")
_PIECES += ["e[-1,23]_4"[:k] for k in range(2, 11)] + ["int_12"[:k] for k in range(2, 7)] + ["∂_", "H_3"]


def _outcome(tokenize_fn, text):
    try:
        return "tokens", tokenize_fn(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col, exc.expected


def _has_non_decimal_digit(text):
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


@given(st.lists(st.sampled_from(_PIECES), max_size=20).map("".join))
@example("int_12 + ∫_3*e[-1,20]_2 - 3/4*i^2\n  (d_1)")
@example("e[1,2]_")
@example("int x_1")
@example("1/0")
@example("2²")
@example("H_²")
@example("e[²,0]_1")
@example("1/²")
@settings(max_examples=3000, deadline=None, derandomize=True)
def test_token_pattern_matches_the_character_loop(text):
    got = _outcome(tokenize, text)
    if _has_non_decimal_digit(text):
        # the loop read '²' as a digit and int() refused it with a bare
        # ValueError; the pattern does not take it as a digit
        assert got[0] == "error"
    else:
        assert got == _outcome(tokenizer_reference.tokenize, text)


@pytest.mark.parametrize(
    "text, line, col, expected",
    [("2²", 1, 2, ()), ("H_²", 1, 3, ("digit",)), ("x_1 +\n e[²,0]_1", 2, 4, ("integer",))],
)
def test_a_digit_that_is_not_decimal_is_named_at_its_position(text, line, col, expected):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert (exc.value.line, exc.value.col, exc.value.expected) == (line, col, expected)
