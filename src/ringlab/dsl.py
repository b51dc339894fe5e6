"""Expression language naming every ring construction.

Grammar (whitespace-insensitive, ``x`` binds looser than constructors and
associates left)::

    ring    := atom { "x" atom },     atom  := NAME "(" args ")" | "(" ring ")"
    group   := gatom { "x" gatom },   gatom := NAME "(" args ")"
    args    := arg { "," arg },       arg   := nat | ring | group | poly | pattern
    poly    := "[" nat { "," nat } "]"
    pattern := NAME "(" nat [ "," nat ] ")"

Every node of a parsed expression is a :class:`Term`: a constructor NAME
and its fields.  Each NAME is one row of ``_CONSTRUCTORS`` (ring atoms) or
``_GROUP_ATOMS``: its argument kinds in field order and its builder, which
takes the fields in that order.  Parsing, ``canonical`` and ``build`` find
the row by the term's name, so a new constructor is one new row; only the
``x`` products are special, terms named ``"x"`` with two factors.  A
pattern argument is one field, a family of
``constructions._BUILTIN_PATTERNS`` and its naturals.

Polynomial literals are ascending-degree coefficient lists of base-ring
element indices and must be monic; the ``s`` literal of ``FM`` is a
canonical element index of the base ring.  ``canonical`` emits the fully
parenthesized single-space form that round-trips through ``parse`` and is
stable across releases (cache-key contract).  An expression nests at most
``MAX_DEPTH`` levels; ``parse`` refuses a deeper one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import constructions as cons
from . import structure


class ParseError(ValueError):
    """Syntax error with offset and the expected-token set."""

    def __init__(self, offset: int, message: str, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{suffix}")


# ---------------------------------------------------------------------------
# abstract syntax

# the name of a product term, as it is written
_PRODUCT = "x"


@dataclass(frozen=True)
class Term:
    """One node of an expression: a constructor's row key and its fields in
    row order, where a ring or group argument is a term and a pattern is
    ``(family, naturals)``; or a product, named ``"x"``, of two terms.
    ``height`` counts the levels of terms from this one down."""

    name: str
    args: tuple
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        below = [a.height for a in self.args if isinstance(a, Term)]
        object.__setattr__(self, "height", 1 + max(below, default=0))


# ---------------------------------------------------------------------------
# lexer

# ``x`` is the product operator, never the start of a constructor
_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "[": "LBRACKET", "]": "RBRACKET", "x": "X"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append(_Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(_Token("NAT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    out.append(_Token("EOF", "", n))
    return out


# ---------------------------------------------------------------------------
# constructor table


class _Nat(NamedTuple):
    """A natural-number argument, range-checked as it is read."""

    least: int
    noun: str


# the other argument kinds, each named after the parser method that reads it
_RING, _GROUP, _POLY, _PATTERN = "ring", "group", "poly", "pattern"


class _Row(NamedTuple):
    kinds: tuple  # one per argument, in field order
    builder: Callable  # builder(*fields, max_card), sub-expressions built


_CONSTRUCTORS = {
    "Z": _Row((_Nat(2, "modulus"),), cons.zmod),
    "GF": _Row((_Nat(2, "field characteristic"), _Nat(1, "extension degree")), cons.gf),
    "M": _Row((_Nat(1, "matrix size"), _RING), cons.matrix_ring),
    "T": _Row((_Nat(1, "matrix size"), _RING), cons.upper_triangular),
    "TE": _Row((_RING,), cons.trivial_extension),
    "PQ": _Row((_RING, _POLY), cons.poly_quot),
    "FM": _Row(
        (_Nat(2, "formal matrix size"), _Nat(0, "twist index"), _RING), cons.formal_matrix
    ),
    "GR": _Row((_RING, _GROUP), cons.group_ring),
    "MODJ": _Row((_RING,), lambda ring, max_card: structure.mod_j(ring)),
    "PAT": _Row((_PATTERN, _RING), cons.builtin_pattern_subring),
}
_GROUP_ATOMS = {
    "C": _Row((_Nat(1, "cyclic group order"),), lambda n, max_card: cons.cyclic_group(n)),
}
# the rows of a ring argument and of a group argument
_TABLES = {_RING: _CONSTRUCTORS, _GROUP: _GROUP_ATOMS}


# ---------------------------------------------------------------------------
# recursive-descent parser

#: the most levels an expression nests: the ring and group expressions open
#: at one token, which parsing recurses through, and the height of its term,
#: which ``canonical`` and ``build`` do (its canonical text opens no more)
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # the ring and group expressions open

    def bound(self, tok: _Token, levels: int) -> None:
        if levels > MAX_DEPTH:
            raise ParseError(tok.offset, f"expression nests deeper than {MAX_DEPTH} levels")

    def term(self, tok: _Token, name: str, args: tuple) -> Term:
        node = Term(name, args)
        self.bound(tok, node.height)
        return node

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                tok.offset,
                f"unexpected {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input",
                expected=(kind,),
            )
        self.pos += 1
        return tok

    def nat(self) -> int:
        tok = self.take("NAT")
        try:
            return int(tok.value)
        except ValueError:  # more digits than int() converts
            raise ParseError(tok.offset, f"number of {len(tok.value)} digits is too long") from None

    def ring(self) -> Term:
        return self.product(self.atom)

    def group(self) -> Term:
        return self.product(lambda: self.call(_GROUP_ATOMS, "group constructor"))

    def product(self, atom: Callable[[], Term]) -> Term:
        self.depth += 1
        self.bound(self.peek(), self.depth)
        node = atom()
        while self.peek().kind == "X":
            node = self.term(self.take("X"), _PRODUCT, (node, atom()))
        self.depth -= 1
        return node

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take("LPAREN")
            node = self.ring()
            self.take("RPAREN")
            return node
        if tok.kind != "NAME":
            raise ParseError(
                tok.offset,
                "expected a ring expression",
                expected=tuple(_CONSTRUCTORS) + ("(",),
            )
        return self.call(_CONSTRUCTORS, "constructor")

    def call(self, table: dict[str, _Row], noun: str) -> Term:
        """One constructor and its arguments, read as its row says."""
        tok = self.take("NAME")
        row = table.get(tok.value)
        if row is None:
            raise ParseError(tok.offset, f"unknown {noun} {tok.value!r}", expected=tuple(table))
        self.take("LPAREN")
        fields: list = []
        for i, kind in enumerate(row.kinds):
            if i:
                self.take("COMMA")
            if isinstance(kind, _Nat):
                n = self.nat()
                if n < kind.least:
                    raise ParseError(tok.offset, f"{kind.noun} must be >= {kind.least}, got {n}")
                fields.append(n)
            else:
                fields.append(getattr(self, kind)())
        self.take("RPAREN")
        return self.term(tok, tok.value, tuple(fields))

    def pattern(self) -> tuple[str, tuple[int, ...]]:
        tok = self.take("NAME")
        families = cons._BUILTIN_PATTERNS
        if tok.value not in families:
            raise ParseError(
                tok.offset, f"unknown pattern family {tok.value!r}", expected=tuple(families)
            )
        self.take("LPAREN")
        args = [self.nat()]
        if self.peek().kind == "COMMA":
            self.take("COMMA")
            args.append(self.nat())
        self.take("RPAREN")
        # families[name] holds the one- and two-argument constructions
        if families[tok.value][len(args) - 1] is None:
            raise ParseError(
                tok.offset, f"pattern {tok.value} does not take {len(args)} argument(s)"
            )
        if min(args) < 2:
            raise ParseError(tok.offset, f"pattern {tok.value} arguments must be >= 2")
        return tok.value, tuple(args)

    def poly(self) -> tuple[int, ...]:
        tok = self.take("LBRACKET")
        coeffs = [self.nat()]
        while self.peek().kind == "COMMA":
            self.take("COMMA")
            coeffs.append(self.nat())
        self.take("RBRACKET")
        if len(coeffs) < 2:
            raise ParseError(tok.offset, "polynomial degree must be >= 1")
        return tuple(coeffs)


def parse(text: str) -> Term:
    """Parse a ring expression; raises :class:`ParseError` with position."""
    parser = _Parser(text)
    node = parser.ring()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(tail.offset, f"trailing input {tail.value!r}", expected=("EOF",))
    return node


# ---------------------------------------------------------------------------
# canonical text


def canonical(expr: Term, kind: str = _RING) -> str:
    """Stable fully parenthesized rendering; ``parse(canonical(e)) == e``.
    ``kind`` names the table of ``expr``'s row: ``_GROUP`` for a group
    argument."""
    if expr.name == _PRODUCT:
        left, right = (canonical(e, kind) for e in expr.args)
        # group atoms cannot nest in parens, so group products stay flat
        return f"({left} x {right})" if kind is _RING else f"{left} x {right}"
    kinds = _TABLES[kind][expr.name].kinds
    return f"{expr.name}({','.join(map(_field_text, kinds, expr.args))})"


def _field_text(kind, value) -> str:
    if kind in _TABLES:
        return canonical(value, kind)
    if kind is _POLY:
        return f"[{','.join(map(str, value))}]"
    if kind is _PATTERN:
        family, naturals = value
        return f"{family}({','.join(map(str, naturals))})"
    return str(value)


# ---------------------------------------------------------------------------
# evaluation


def build(expr: Term | str, max_card: int | None = None, kind: str = _RING):
    """Evaluate a ring expression (or its text) under the card guard: its
    row's builder on its fields, sub-expressions built first.  ``kind``
    names the table of ``expr``'s row, as in :func:`canonical`."""
    if isinstance(expr, str):
        expr = parse(expr)
    if expr.name == _PRODUCT:
        left, right = (build(e, max_card, kind) for e in expr.args)
        if kind is _GROUP:
            return cons.group_product(left, right)
        return cons.direct_product(left, right, max_card=max_card)
    row = _TABLES[kind][expr.name]
    args = []
    for k, v in zip(row.kinds, expr.args):
        if k is _GROUP:  # GR(R, G): R is built, G not yet
            cons.group_ring_card(args[0], _group_order(v), max_card)
        args.append(build(v, max_card, k) if k in _TABLES else v)
    return row.builder(*args, max_card)


def _group_order(expr: Term) -> int:
    """|G| read off a group term, so that a group ring is refused before
    G's Cayley table is validated (|G| gathers of |G|² entries): ``C(n)``
    has order n, and a product multiplies its factors' orders."""
    if expr.name == _PRODUCT:
        left, right = map(_group_order, expr.args)
        return left * right
    return expr.args[0]
