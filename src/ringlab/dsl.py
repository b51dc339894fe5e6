"""Expression language naming every ring construction.

Grammar (whitespace-insensitive, ``x`` binds looser than constructors and
associates left)::

    ring    := atom { "x" atom }
    atom    := "Z(" nat ")" | "GF(" nat "," nat ")" | "M(" nat "," ring ")"
             | "T(" nat "," ring ")" | "TE(" ring ")" | "PQ(" ring "," poly ")"
             | "FM(" nat "," nat "," ring ")" | "GR(" ring "," group ")"
             | "MODJ(" ring ")" | "PAT(" patname "," ring ")" | "(" ring ")"
    group   := gatom { "x" gatom }
    gatom   := "C(" nat ")"
    poly    := "[" nat { "," nat } "]"
    patname := ("S" | "Tb" | "U") "(" nat [ "," nat ] ")"

Polynomial literals are ascending-degree coefficient lists of base-ring
element indices and must be monic; the ``s`` literal of ``FM`` is a
canonical element index of the base ring.  ``canonical`` emits the fully
parenthesized single-space form that round-trips through ``parse`` and is
stable across releases (cache-key contract).
"""

from __future__ import annotations

from dataclasses import dataclass

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

_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "[": "LBRACKET", "]": "RBRACKET"}


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("NAT", text[i:j], i))
            i = j
            continue
        if ch == "x":  # product operator, never the start of a constructor
            out.append(_Token("X", "x", i))
            i += 1
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
# recursive-descent parser

_CONSTRUCTORS = ("Z", "GF", "M", "T", "TE", "PQ", "FM", "GR", "MODJ", "PAT")
_PATTERN_NAMES = ("S", "Tb", "U")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
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
        return int(self.take("NAT").value)

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
                expected=_CONSTRUCTORS + ("(",),
            )
        name = self.take("NAME").value
        if name == "Z":
            self.take("LPAREN")
            n = self.nat()
            if n < 2:
                raise ParseError(tok.offset, f"modulus must be >= 2, got {n}")
            self.take("RPAREN")
            return ZExpr(n)
        if name == "GF":
            self.take("LPAREN")
            p = self.nat()
            self.take("COMMA")
            k = self.nat()
            self.take("RPAREN")
            if p < 2:
                raise ParseError(tok.offset, f"field characteristic must be >= 2, got {p}")
            if k < 1:
                raise ParseError(tok.offset, f"extension degree must be >= 1, got {k}")
            return GFExpr(p, k)
        if name in ("M", "T"):
            self.take("LPAREN")
            size = self.nat()
            if size < 1:
                raise ParseError(tok.offset, f"matrix size must be >= 1, got {size}")
            self.take("COMMA")
            inner = self.ring()
            self.take("RPAREN")
            return MatExpr(size, inner) if name == "M" else TriExpr(size, inner)
        if name == "TE":
            self.take("LPAREN")
            inner = self.ring()
            self.take("RPAREN")
            return TEExpr(inner)
        if name == "PQ":
            self.take("LPAREN")
            inner = self.ring()
            self.take("COMMA")
            poly = self.poly()
            self.take("RPAREN")
            return PQExpr(inner, poly)
        if name == "FM":
            self.take("LPAREN")
            size = self.nat()
            if size < 2:
                raise ParseError(tok.offset, f"formal matrix size must be >= 2, got {size}")
            self.take("COMMA")
            s = self.nat()
            self.take("COMMA")
            inner = self.ring()
            self.take("RPAREN")
            return FMExpr(size, s, inner)
        if name == "GR":
            self.take("LPAREN")
            inner = self.ring()
            self.take("COMMA")
            grp = self.group()
            self.take("RPAREN")
            return GRExpr(inner, grp)
        if name == "MODJ":
            self.take("LPAREN")
            inner = self.ring()
            self.take("RPAREN")
            return ModJExpr(inner)
        if name == "PAT":
            self.take("LPAREN")
            pat_tok = self.take("NAME")
            if pat_tok.value not in _PATTERN_NAMES:
                raise ParseError(
                    pat_tok.offset,
                    f"unknown pattern family {pat_tok.value!r}",
                    expected=_PATTERN_NAMES,
                )
            self.take("LPAREN")
            args = [self.nat()]
            if self.peek().kind == "COMMA":
                self.take("COMMA")
                args.append(self.nat())
            self.take("RPAREN")
            self._validate_pattern(pat_tok, pat_tok.value, tuple(args))
            self.take("COMMA")
            inner = self.ring()
            self.take("RPAREN")
            return PatExpr(pat_tok.value, tuple(args), inner)
        raise ParseError(tok.offset, f"unknown constructor {name!r}", expected=_CONSTRUCTORS)

    @staticmethod
    def _validate_pattern(tok: _Token, name: str, args: tuple[int, ...]) -> None:
        arity = {"S": (1, 2), "Tb": (2,), "U": (1,)}[name]
        if len(args) not in arity:
            raise ParseError(
                tok.offset, f"pattern {name} does not take {len(args)} argument(s)"
            )
        if any(a < 2 for a in args):
            raise ParseError(tok.offset, f"pattern {name} arguments must be >= 2")

    def group(self) -> GroupExpr:
        node = self.gatom()
        while self.peek().kind == "X":
            self.take("X")
            node = GroupProductExpr(node, self.gatom())
        return node

    def gatom(self) -> GroupExpr:
        tok = self.take("NAME")
        if tok.value != "C":
            raise ParseError(tok.offset, f"unknown group constructor {tok.value!r}", expected=("C",))
        self.take("LPAREN")
        n = self.nat()
        if n < 1:
            raise ParseError(tok.offset, f"cyclic group order must be >= 1, got {n}")
        self.take("RPAREN")
        return CyclicExpr(n)

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


def parse_group(text: str) -> GroupExpr:
    parser = _Parser(text)
    node = parser.group()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(tail.offset, f"trailing input {tail.value!r}", expected=("EOF",))
    return node


# ---------------------------------------------------------------------------
# canonical text


def canonical(expr: RingExpr | GroupExpr) -> str:
    """Stable fully parenthesized rendering; ``parse(canonical(e)) == e``."""
    if isinstance(expr, ZExpr):
        return f"Z({expr.n})"
    if isinstance(expr, GFExpr):
        return f"GF({expr.p},{expr.k})"
    if isinstance(expr, MatExpr):
        return f"M({expr.size},{canonical(expr.ring)})"
    if isinstance(expr, TriExpr):
        return f"T({expr.size},{canonical(expr.ring)})"
    if isinstance(expr, TEExpr):
        return f"TE({canonical(expr.ring)})"
    if isinstance(expr, PQExpr):
        poly = "[" + ",".join(str(c) for c in expr.poly) + "]"
        return f"PQ({canonical(expr.ring)},{poly})"
    if isinstance(expr, FMExpr):
        return f"FM({expr.size},{expr.s},{canonical(expr.ring)})"
    if isinstance(expr, GRExpr):
        return f"GR({canonical(expr.ring)},{canonical(expr.group)})"
    if isinstance(expr, ModJExpr):
        return f"MODJ({canonical(expr.ring)})"
    if isinstance(expr, PatExpr):
        args = ",".join(str(a) for a in expr.args)
        return f"PAT({expr.name}({args}),{canonical(expr.ring)})"
    if isinstance(expr, ProductExpr):
        return f"({canonical(expr.left)} x {canonical(expr.right)})"
    if isinstance(expr, CyclicExpr):
        return f"C({expr.n})"
    if isinstance(expr, GroupProductExpr):
        # group atoms cannot nest in parens, so group products stay flat
        return f"{canonical(expr.left)} x {canonical(expr.right)}"
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# evaluation


def estimated_card(expr: RingExpr) -> int:
    """Card the built ring will have (an upper bound for MODJ)."""
    if isinstance(expr, ZExpr):
        return expr.n
    if isinstance(expr, GFExpr):
        return expr.p**expr.k
    if isinstance(expr, MatExpr):
        return estimated_card(expr.ring) ** (expr.size * expr.size)
    if isinstance(expr, TriExpr):
        return estimated_card(expr.ring) ** (expr.size * (expr.size + 1) // 2)
    if isinstance(expr, TEExpr):
        return estimated_card(expr.ring) ** 2
    if isinstance(expr, PQExpr):
        return estimated_card(expr.ring) ** (len(expr.poly) - 1)
    if isinstance(expr, FMExpr):
        return estimated_card(expr.ring) ** (expr.size * expr.size)
    if isinstance(expr, GRExpr):
        return estimated_card(expr.ring) ** _group_order(expr.group)
    if isinstance(expr, ModJExpr):
        return estimated_card(expr.ring)
    if isinstance(expr, PatExpr):
        pattern = cons.builtin_pattern(expr.name, expr.args)
        return estimated_card(expr.ring) ** len(pattern.classes)
    if isinstance(expr, ProductExpr):
        return estimated_card(expr.left) * estimated_card(expr.right)
    raise TypeError(f"not a ring expression: {expr!r}")


def _group_order(expr: GroupExpr) -> int:
    if isinstance(expr, CyclicExpr):
        return expr.n
    if isinstance(expr, GroupProductExpr):
        return _group_order(expr.left) * _group_order(expr.right)
    raise TypeError(f"not a group expression: {expr!r}")


def build_group(expr: GroupExpr) -> cons.FiniteGroup:
    if isinstance(expr, CyclicExpr):
        return cons.cyclic_group(expr.n)
    if isinstance(expr, GroupProductExpr):
        return cons.group_product(build_group(expr.left), build_group(expr.right))
    raise TypeError(f"not a group expression: {expr!r}")


def build(expr: RingExpr | str, max_card: int | None = None) -> Ring:
    """Evaluate an expression (or its text) to a ring under the card guard."""
    if isinstance(expr, str):
        expr = parse(expr)
    if isinstance(expr, ZExpr):
        return cons.zmod(expr.n, max_card=max_card)
    if isinstance(expr, GFExpr):
        return cons.gf(expr.p, expr.k, max_card=max_card)
    if isinstance(expr, MatExpr):
        return cons.matrix_ring(expr.size, build(expr.ring, max_card), max_card=max_card)
    if isinstance(expr, TriExpr):
        return cons.upper_triangular(expr.size, build(expr.ring, max_card), max_card=max_card)
    if isinstance(expr, TEExpr):
        return cons.trivial_extension(build(expr.ring, max_card), max_card=max_card)
    if isinstance(expr, PQExpr):
        return cons.poly_quot(build(expr.ring, max_card), expr.poly, max_card=max_card)
    if isinstance(expr, FMExpr):
        return cons.formal_matrix(expr.size, expr.s, build(expr.ring, max_card), max_card=max_card)
    if isinstance(expr, GRExpr):
        return cons.group_ring(build(expr.ring, max_card), build_group(expr.group), max_card=max_card)
    if isinstance(expr, ModJExpr):
        return structure.mod_j(build(expr.ring, max_card))
    if isinstance(expr, PatExpr):
        pattern = cons.builtin_pattern(expr.name, expr.args)
        return cons.pattern_subring(pattern, build(expr.ring, max_card), max_card=max_card)
    if isinstance(expr, ProductExpr):
        return cons.direct_product(
            build(expr.left, max_card), build(expr.right, max_card), max_card=max_card
        )
    raise TypeError(f"not a ring expression: {expr!r}")
