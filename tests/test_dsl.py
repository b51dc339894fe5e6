import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab as rl
from ringlab import dsl
from ringlab.dsl import ParseError, Term, build, canonical, parse

from conftest import ring_expr_strategy, term_of


def Z(n):
    return term_of("Z", n)


def test_parse_examples():
    assert parse("M(2,Z(3))") == term_of("M", 2, Z(3))
    assert parse("Z(2) x Z(3) x Z(3)") == term_of("x", term_of("x", Z(2), Z(3)), Z(3))
    assert parse("GR(Z(2),C(2) x C(2))") == term_of(
        "GR", Z(2), term_of("x", term_of("C", 2), term_of("C", 2))
    )
    assert parse("PAT(S(2,2),Z(3))") == term_of("PAT", ("S", (2, 2)), Z(3))
    assert parse("PQ(Z(2),[0,0,1])") == term_of("PQ", Z(2), (0, 0, 1))
    assert parse("MODJ(Z(12))") == term_of("MODJ", Z(12))
    # a term is not a tuple, such as a polynomial or a pattern field
    assert parse("Z(3)") != ("Z", (3,))


def test_whitespace_insensitive():
    assert parse("Z( 6 )") == Z(6)
    assert parse("Z(2)xZ(3)") == parse("Z(2) x Z(3)")
    assert parse(" M( 2 , Z(3) ) ") == parse("M(2,Z(3))")


def test_parse_validation_errors():
    with pytest.raises(ParseError, match="matrix size must be >= 1"):
        parse("M(0,Z(2))")
    with pytest.raises(ParseError, match="modulus must be >= 2"):
        parse("Z(1)")
    with pytest.raises(ParseError, match="formal matrix size"):
        parse("FM(1,0,Z(2))")
    with pytest.raises(ParseError, match="degree must be >= 1"):
        parse("PQ(Z(2),[1])")
    with pytest.raises(ParseError, match="expected RPAREN"):
        parse("PAT(S(2,2,2),Z(2))")  # patname takes at most two naturals
    with pytest.raises(ParseError, match="does not take 1 argument"):
        parse("PAT(Tb(2),Z(2))")
    with pytest.raises(ParseError, match="arguments must be >= 2"):
        parse("PAT(U(1),Z(2))")
    with pytest.raises(ParseError, match="unknown constructor"):
        parse("Q(2)")


def test_parse_positions():
    try:
        parse("M(2,Z(3)")
    except ParseError as err:
        assert err.offset == 8
        assert "RPAREN" in err.expected
    else:
        raise AssertionError("expected a parse error")
    try:
        parse("Z(5) y")
    except ParseError as err:
        assert err.offset == 5
    else:
        raise AssertionError("expected a parse error")


def test_canonical_examples():
    assert canonical(parse("Z( 6 )")) == "Z(6)"
    assert canonical(parse("Z(2) x Z(3)")) == "(Z(2) x Z(3))"
    assert canonical(parse("Z(2) x Z(3) x Z(3)")) == "((Z(2) x Z(3)) x Z(3))"
    assert canonical(parse("GR(Z(2),C(2) x C(2))")) == "GR(Z(2),C(2) x C(2))"


@given(st.integers(0, 3).flatmap(lambda depth: ring_expr_strategy(depth=depth)))
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(expr):
    text = canonical(expr)
    assert parse(text) == expr
    assert canonical(parse(text)) == text


#: the grammar's characters, with a non-ASCII digit ``٣`` (decimal, so a
#: number), ``²`` (a digit that is not decimal) and a letter ``é``
PARSER_CHARS = "0123456789٣²é()[], xZGFMTEPQRODJACSUb"


@st.composite
def edited_text(draw):
    """A canonical text with one span replaced by up to three drawn
    characters, so that about a quarter of the texts still parse."""
    text = canonical(draw(st.integers(0, 2).flatmap(lambda depth: ring_expr_strategy(depth=depth))))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.text(PARSER_CHARS, max_size=3)) + text[stop:]


@given(st.text(PARSER_CHARS) | edited_text())
@settings(max_examples=300, deadline=None)
def test_parse_raises_only_parse_error(text):
    """Arbitrary text either parses, and then round-trips through
    ``canonical``, or raises ``ParseError``; nothing else escapes."""
    try:
        expr = parse(text)
    except ParseError:
        return
    assert parse(canonical(expr)) == expr


#: one canonical text per row of the constructor tables and the card it
#: builds; the group atom ``C`` is read inside a group ring
EVERY_ROW = {
    "Z": ("Z(6)", 6),
    "GF": ("GF(2,3)", 8),
    "M": ("M(2,Z(2))", 16),
    "T": ("T(2,Z(3))", 27),
    "TE": ("TE(Z(4))", 16),
    "PQ": ("PQ(Z(2),[1,1,1])", 4),
    "FM": ("FM(2,1,Z(2))", 16),
    "GR": ("GR(Z(2),C(2) x C(2))", 16),
    "MODJ": ("MODJ(Z(12))", 6),
    "PAT": ("PAT(S(2,2),Z(2))", 16),
    "C": ("GR(Z(3),C(3))", 27),
}


def _names(term):
    yield term.name
    for arg in term.args:
        if isinstance(arg, Term):
            yield from _names(arg)


def test_every_row_parses_renders_and_builds():
    assert EVERY_ROW.keys() == dsl._CONSTRUCTORS.keys() | dsl._GROUP_ATOMS.keys()
    for name, (text, card) in EVERY_ROW.items():
        expr = parse(text)
        assert name in _names(expr)
        assert canonical(expr) == text
        assert build(expr).card == card


def test_build_examples():
    assert build("Z(6)").card == 6
    assert build("FM(2,2,Z(4))").card == 256
    assert build("PAT(U(3),Z(2))").card == 16
    assert build("MODJ(Z(12))").card == 6
    assert build("GR(Z(2),C(2) x C(2))").card == 16


def test_build_guard_reports_required_card():
    with pytest.raises(rl.GuardError) as err:
        build("M(3,Z(5))")
    assert err.value.required == 1953125
    assert err.value.limit == 200000
    with pytest.raises(rl.GuardError):
        build("M(2,Z(5))", max_card=100)
    with pytest.raises(rl.GuardError) as err:
        build("Z(200001)")
    assert err.value.required == 200001


_CONSTRUCTORS = ("Z", "GF", "M", "T", "TE", "PQ", "FM", "GR", "MODJ", "PAT")
_RING_START = _CONSTRUCTORS + ("(",)

#: text, then the offset, message and expected tokens of its ParseError
PARSE_ERRORS = [
    # each natural argument's range check, at its constructor's offset
    ("Z(1)", 0, "modulus must be >= 2, got 1", ()),
    ("Z(0)", 0, "modulus must be >= 2, got 0", ()),
    ("GF(1,2)", 0, "field characteristic must be >= 2, got 1", ()),
    ("GF(2,0)", 0, "extension degree must be >= 1, got 0", ()),
    ("M(0,Z(2))", 0, "matrix size must be >= 1, got 0", ()),
    ("T(0,Z(2))", 0, "matrix size must be >= 1, got 0", ()),
    ("FM(1,0,Z(2))", 0, "formal matrix size must be >= 2, got 1", ()),
    ("GR(Z(2),C(0))", 8, "cyclic group order must be >= 1, got 0", ()),
    ("GR(Z(2),C(2) x C(0))", 15, "cyclic group order must be >= 1, got 0", ()),
    # a polynomial of degree 0; pattern arities and ranges
    ("PQ(Z(2),[1])", 8, "polynomial degree must be >= 1", ()),
    ("PAT(U(1),Z(2))", 4, "pattern U arguments must be >= 2", ()),
    ("PAT(S(2,1),Z(2))", 4, "pattern S arguments must be >= 2", ()),
    ("PAT(Tb(2),Z(2))", 4, "pattern Tb does not take 1 argument(s)", ()),
    ("PAT(U(2,2),Z(2))", 4, "pattern U does not take 2 argument(s)", ()),
    ("PAT(S(2,2,2),Z(2))", 9, "unexpected ','", ("RPAREN",)),
    # a range fault is reported as it is read, before a later syntax fault
    ("GF(1,3", 0, "field characteristic must be >= 2, got 1", ()),
    ("GF(1,x)", 0, "field characteristic must be >= 2, got 1", ()),
    ("GF(2,0", 0, "extension degree must be >= 1, got 0", ()),
    ("Z(1", 0, "modulus must be >= 2, got 1", ()),
    ("M(0,", 0, "matrix size must be >= 1, got 0", ()),
    ("FM(1,", 0, "formal matrix size must be >= 2, got 1", ()),
    ("GR(Z(2),C(0)", 8, "cyclic group order must be >= 1, got 0", ()),
    # unknown constructor, group constructor and pattern family
    ("Q(2)", 0, "unknown constructor 'Q'", _CONSTRUCTORS),
    ("z(2)", 0, "unknown constructor 'z'", _CONSTRUCTORS),
    ("Zz(2)", 0, "unknown constructor 'Zz'", _CONSTRUCTORS),
    ("Q", 0, "unknown constructor 'Q'", _CONSTRUCTORS),
    ("GR(Z(2),D(4))", 8, "unknown group constructor 'D'", ("C",)),
    ("GR(Z(2),C(2) x S(3))", 15, "unknown group constructor 'S'", ("C",)),
    ("PAT(V(2),Z(2))", 4, "unknown pattern family 'V'", ("S", "Tb", "U")),
    ("PAT(s(2),Z(2))", 4, "unknown pattern family 's'", ("S", "Tb", "U")),
    # missing or unexpected tokens
    ("", 0, "expected a ring expression", _RING_START),
    ("   ", 3, "expected a ring expression", _RING_START),
    ("Z", 1, "unexpected end of input", ("LPAREN",)),
    ("Z(", 2, "unexpected end of input", ("NAT",)),
    ("Z()", 2, "unexpected ')'", ("NAT",)),
    ("Z 5", 2, "unexpected '5'", ("LPAREN",)),
    ("M(2,Z(3)", 8, "unexpected end of input", ("RPAREN",)),
    ("M(2 Z(3))", 4, "unexpected 'Z'", ("COMMA",)),
    ("M(Z(3))", 2, "unexpected 'Z'", ("NAT",)),
    ("GF(2 3)", 5, "unexpected '3'", ("COMMA",)),
    ("TE()", 3, "expected a ring expression", _RING_START),
    ("TE(Z(2)", 7, "unexpected end of input", ("RPAREN",)),
    ("PQ(Z(2),0,1)", 8, "unexpected '0'", ("LBRACKET",)),
    ("PQ(Z(2),[0,1)", 12, "unexpected ')'", ("RBRACKET",)),
    ("PQ(Z(2),[])", 9, "unexpected ']'", ("NAT",)),
    ("PQ(Z(2))", 7, "unexpected ')'", ("COMMA",)),
    ("FM(2,Z(2))", 5, "unexpected 'Z'", ("NAT",)),
    ("GR(Z(2),)", 8, "unexpected ')'", ("NAME",)),
    ("GR(Z(2),C(2) x )", 15, "unexpected ')'", ("NAME",)),
    ("GR(Z(2),C)", 9, "unexpected ')'", ("LPAREN",)),
    ("GR(Z(2))", 7, "unexpected ')'", ("COMMA",)),
    ("MODJ(", 5, "expected a ring expression", _RING_START),
    ("PAT(2,Z(2))", 4, "unexpected '2'", ("NAME",)),
    ("PAT(S 2,Z(2))", 6, "unexpected '2'", ("LPAREN",)),
    ("PAT(S(2),)", 9, "expected a ring expression", _RING_START),
    ("PAT(S(),Z(2))", 6, "unexpected ')'", ("NAT",)),
    ("(Z(2)", 5, "unexpected end of input", ("RPAREN",)),
    ("()", 1, "expected a ring expression", _RING_START),
    ("Z(2) x", 6, "expected a ring expression", _RING_START),
    ("x Z(2)", 0, "expected a ring expression", _RING_START),
    ("Z(2) x x Z(3)", 7, "expected a ring expression", _RING_START),
    ("[1]", 0, "expected a ring expression", _RING_START),
    (",", 0, "expected a ring expression", _RING_START),
    # trailing input
    ("Z(5) y", 5, "trailing input 'y'", ("EOF",)),
    ("Z(2) Z(3)", 5, "trailing input 'Z'", ("EOF",)),
    ("Z(2))", 4, "trailing input ')'", ("EOF",)),
    ("Z(2),", 4, "trailing input ','", ("EOF",)),
    ("(Z(2)) 7", 7, "trailing input '7'", ("EOF",)),
    # unexpected characters; a non-decimal digit such as '²' is one too
    ("Z(2)+Z(3)", 4, "unexpected character '+'", ()),
    ("Z(-1)", 2, "unexpected character '-'", ()),
    ("Z(2) x Z(3)!", 11, "unexpected character '!'", ()),
    ("M(2,Z(3))é", 9, "trailing input 'é'", ("EOF",)),
    ("GF(2;3)", 4, "unexpected character ';'", ()),
    ("Z(²)", 2, "unexpected character '²'", ()),
    # a literal longer than int() converts
    (f"Z({'9' * 5000})", 2, "number of 5000 digits is too long", ()),
    (f"PQ(Z(2),[1,{'1' * 5000}])", 11, "number of 5000 digits is too long", ()),
]

#: text, then its canonical text: every constructor, with extra spaces
CANONICAL = [
    ("Z( 6 )", "Z(6)"),
    (" GF( 2 , 3 ) ", "GF(2,3)"),
    ("M( 2 ,Z(3))", "M(2,Z(3))"),
    ("T(3, Z(4))", "T(3,Z(4))"),
    ("TE( Z(5) )", "TE(Z(5))"),
    ("PQ(Z(3), [ 0,0,0,1 ])", "PQ(Z(3),[0,0,0,1])"),
    ("FM(2 ,1, Z(3))", "FM(2,1,Z(3))"),
    ("GR(Z(3),C( 3 )xC(2))", "GR(Z(3),C(3) x C(2))"),
    ("MODJ( T(2,Z(4)) )", "MODJ(T(2,Z(4)))"),
    ("PAT( S(2 ,2), Z(3))", "PAT(S(2,2),Z(3))"),
    ("PAT(U(3),Z(2))", "PAT(U(3),Z(2))"),
    ("PAT(Tb(2,2),Z(3))", "PAT(Tb(2,2),Z(3))"),
    ("PAT(S(3),Z(2))", "PAT(S(3),Z(2))"),
    ("Z(2)xZ(3) x Z(4)", "((Z(2) x Z(3)) x Z(4))"),
    ("Z(2) x (Z(3) x Z(4))", "(Z(2) x (Z(3) x Z(4)))"),
    ("((Z(2)))", "Z(2)"),
]


def _outcome(text):
    try:
        return canonical(parse(text))
    except ParseError as err:
        message = str(err).split(": ", 1)[1]
        if err.expected:
            message = message[: message.rindex(" (expected ")]
        return err.offset, message, err.expected


def test_parse_outcomes_match_the_recorded_corpus():
    for text, *want in PARSE_ERRORS:
        assert _outcome(text) == tuple(want), text
    for text, want in CANONICAL:
        assert _outcome(text) == want, text
        assert canonical(parse(want)) == want


def _nested(levels, opening):
    return opening * levels + "Z(2)" + ")" * levels


def _product(factors):
    return " x ".join(["Z(2)"] * factors)


_DEEP = dsl.MAX_DEPTH

#: an expression at the nesting bound, the same one level deeper, and the offset
#: of the token that opens the level too many
NESTING = [
    # Z(2) within MAX_DEPTH - 1 parentheses or ring arguments: refused at
    # the start of the expression one level too deep
    (_nested(_DEEP - 1, "("), _nested(_DEEP, "("), _DEEP),
    (_nested(_DEEP - 1, "M(1,"), _nested(_DEEP, "M(1,"), 4 * _DEEP),
    (_nested(_DEEP - 1, "("), _nested(1000, "("), _DEEP),
    # a product of k factors is a term of height k, refused at its last x;
    # a constructor is one level higher than its arguments
    (_product(_DEEP), _product(_DEEP + 1), 7 * _DEEP - 2),
    (f"M(1,({_product(_DEEP - 1)}))", f"M(1,({_product(_DEEP)}))", 0),
]


@pytest.mark.parametrize(
    "text, deeper, offset",
    NESTING,
    ids=["parentheses", "arguments", "1000 parentheses", "factors", "constructor of factors"],
)
def test_nesting_bound(text, deeper, offset):
    """At the bound an expression parses and round-trips; one level more is
    a ParseError at the token that opens it, raised before the recursion
    of parsing, ``canonical`` or ``build`` can exhaust the stack."""
    expr = parse(text)
    assert parse(canonical(expr)) == expr
    with pytest.raises(ParseError, match=f"nests deeper than {_DEEP} levels") as err:
        parse(deeper)
    assert err.value.offset == offset


def test_build_is_deterministic():
    a = build("T(2,Z(4))")
    b = build("T(2,Z(4))")
    ar = np.arange(a.card)
    left, right = np.repeat(ar, a.card), np.tile(ar, a.card)
    assert np.array_equal(a.mul_vec(left, right), b.mul_vec(left, right))
    assert np.array_equal(a.add_vec(left, right), b.add_vec(left, right))


def test_build_monic_enforcement():
    with pytest.raises(rl.ConstructionError):
        build("PQ(Z(3),[1,2])")
    with pytest.raises(rl.ConstructionError):
        build("PQ(Z(3),[5,1])")  # coefficient outside the carrier


def test_build_fm_s_is_element_index():
    with pytest.raises(rl.ConstructionError, match="twist 7"):
        build("FM(2,7,Z(4))")
