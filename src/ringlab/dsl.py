"""Expression language naming every ring construction.

Grammar (whitespace-insensitive, ``x`` binds looser than constructors and
associates left)::

    ring    := atom { "x" atom },     atom  := NAME "(" args ")" | "(" ring ")"
    group   := gatom { "x" gatom },   gatom := NAME "(" args ")"
    args    := arg { "," arg },       arg   := nat | ring | group | poly | pattern
    poly    := "[" nat { "," nat } "]"
    pattern := NAME "(" nat [ "," nat ] ")"

Each constructor NAME is one row of ``_CONSTRUCTORS`` (ring atoms) or
``_GROUP_ATOMS``: its node class, its argument kinds in field order and its
builder, which takes the fields in that order.  Parsing, ``canonical`` and
``build`` read the row; only the ``x`` products and the pattern argument
(a family of ``constructions._BUILTIN_PATTERNS`` and its naturals) are
special.

Polynomial literals are ascending-degree coefficient lists of base-ring
element indices and must be monic; the ``s`` literal of ``FM`` is a
canonical element index of the base ring.  ``canonical`` emits the fully
parenthesized single-space form that round-trips through ``parse`` and is
stable across releases (cache-key contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import Ring
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


class RingExpr:
    pass


class GroupExpr:
    pass


@dataclass(frozen=True)
class ZExpr(RingExpr):
    n: int


@dataclass(frozen=True)
class GFExpr(RingExpr):
    p: int
    k: int


@dataclass(frozen=True)
class MatExpr(RingExpr):
    size: int
    ring: RingExpr


@dataclass(frozen=True)
class TriExpr(RingExpr):
    size: int
    ring: RingExpr


@dataclass(frozen=True)
class TEExpr(RingExpr):
    ring: RingExpr


@dataclass(frozen=True)
class PQExpr(RingExpr):
    ring: RingExpr
    poly: tuple[int, ...]


@dataclass(frozen=True)
class FMExpr(RingExpr):
    size: int
    s: int
    ring: RingExpr


@dataclass(frozen=True)
class GRExpr(RingExpr):
    ring: RingExpr
    group: GroupExpr


@dataclass(frozen=True)
class ModJExpr(RingExpr):
    ring: RingExpr


@dataclass(frozen=True)
class PatExpr(RingExpr):
    name: str
    args: tuple[int, ...]
    ring: RingExpr


@dataclass(frozen=True)
class ProductExpr(RingExpr):
    left: RingExpr
    right: RingExpr


@dataclass(frozen=True)
class CyclicExpr(GroupExpr):
    n: int


@dataclass(frozen=True)
class GroupProductExpr(GroupExpr):
    left: GroupExpr
    right: GroupExpr


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


# the other argument kinds, each named after the parser method that reads
# it; a pattern argument fills two fields, its family and its naturals
_RING, _GROUP, _POLY, _PATTERN = "ring", "group", "poly", "pattern"


class _Row(NamedTuple):
    node: type
    kinds: tuple  # one per argument, in field order
    builder: Callable  # builder(*fields, max_card), sub-expressions built


_CONSTRUCTORS = {
    "Z": _Row(ZExpr, (_Nat(2, "modulus"),), cons.zmod),
    "GF": _Row(GFExpr, (_Nat(2, "field characteristic"), _Nat(1, "extension degree")), cons.gf),
    "M": _Row(MatExpr, (_Nat(1, "matrix size"), _RING), cons.matrix_ring),
    "T": _Row(TriExpr, (_Nat(1, "matrix size"), _RING), cons.upper_triangular),
    "TE": _Row(TEExpr, (_RING,), cons.trivial_extension),
    "PQ": _Row(PQExpr, (_RING, _POLY), cons.poly_quot),
    "FM": _Row(
        FMExpr, (_Nat(2, "formal matrix size"), _Nat(0, "twist index"), _RING), cons.formal_matrix
    ),
    "GR": _Row(GRExpr, (_RING, _GROUP), cons.group_ring),
    "MODJ": _Row(ModJExpr, (_RING,), lambda ring, max_card: structure.mod_j(ring)),
    "PAT": _Row(
        PatExpr,
        (_PATTERN, _RING),
        lambda name, args, ring, max_card: cons.pattern_subring(
            cons._BUILTIN_PATTERNS[name][len(args) - 1](*args), ring, max_card
        ),
    ),
}
_GROUP_ATOMS = {
    "C": _Row(
        CyclicExpr, (_Nat(1, "cyclic group order"),), lambda n, max_card: cons.cyclic_group(n)
    ),
}
_ROW_OF = {row.node: (name, row) for name, row in (_CONSTRUCTORS | _GROUP_ATOMS).items()}


# ---------------------------------------------------------------------------
# recursive-descent parser


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

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

    def ring(self) -> RingExpr:
        node = self.atom()
        while self.peek().kind == "X":
            self.take("X")
            node = ProductExpr(node, self.atom())
        return node

    def atom(self) -> RingExpr:
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

    def group(self) -> GroupExpr:
        node = self.call(_GROUP_ATOMS, "group constructor")
        while self.peek().kind == "X":
            self.take("X")
            node = GroupProductExpr(node, self.call(_GROUP_ATOMS, "group constructor"))
        return node

    def call(self, table: dict[str, _Row], noun: str):
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
            elif kind is _PATTERN:
                fields.extend(self.pattern())
            else:
                fields.append(getattr(self, kind)())
        self.take("RPAREN")
        return row.node(*fields)

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


def parse(text: str) -> RingExpr:
    """Parse a ring expression; raises :class:`ParseError` with position."""
    parser = _Parser(text)
    node = parser.ring()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(tail.offset, f"trailing input {tail.value!r}", expected=("EOF",))
    return node


# ---------------------------------------------------------------------------
# canonical text


def canonical(expr: RingExpr | GroupExpr) -> str:
    """Stable fully parenthesized rendering; ``parse(canonical(e)) == e``."""
    if isinstance(expr, ProductExpr):
        return f"({canonical(expr.left)} x {canonical(expr.right)})"
    if isinstance(expr, GroupProductExpr):
        # group atoms cannot nest in parens, so group products stay flat
        return f"{canonical(expr.left)} x {canonical(expr.right)}"
    name, row = _ROW_OF[type(expr)]
    fields = iter(vars(expr).values())
    args = []
    for kind in row.kinds:
        value = next(fields)
        if kind is _RING or kind is _GROUP:
            value = canonical(value)
        elif kind is _POLY:
            value = "[" + ",".join(map(str, value)) + "]"
        elif kind is _PATTERN:
            value = f"{value}({','.join(map(str, next(fields)))})"
        args.append(str(value))
    return f"{name}({','.join(args)})"


# ---------------------------------------------------------------------------
# evaluation


def build(expr: RingExpr | GroupExpr | str, max_card: int | None = None):
    """Evaluate an expression (or its text) under the card guard: its row's
    builder on its fields, sub-expressions built first.  A group expression
    gives its ``FiniteGroup``."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, ProductExpr):
        return cons.direct_product(
            build(expr.left, max_card), build(expr.right, max_card), max_card=max_card
        )
    if isinstance(expr, GroupProductExpr):
        return cons.group_product(build(expr.left), build(expr.right))
    args = [
        build(v, max_card) if isinstance(v, (RingExpr, GroupExpr)) else v
        for v in vars(expr).values()
    ]
    return _ROW_OF[type(expr)][1].builder(*args, max_card)
