"""Builders for the finite ring families under study.

Every construction implements the vectorised ``add_vec``/``neg_vec``/
``mul_vec`` of ``core.Ring`` and nothing else of the arithmetic.  The
digit rings (matrix and pattern rings, ``TE``, ``PQ``/``GF`` and ``GR``)
share all three in ``_DigitRing``, which splits each operand once: into
its digits for a product, which calls the base on whole digit rows, and
into runs of digits for a sum, which gathers from the run's ``add`` and
``neg`` tables.  Each only builds the term table that says which digit
products, scaled by which central base elements, sum to each digit of a
product.  Zero is index 0 in every construction.  Every construction fixes a
canonical element enumeration so that element literals are stable across
runs:

* ``Zmod(n)``             index = residue.
* ``MatrixRing``          one digit per coordinate class, mixed radix base
                          ``|R|``, first class most significant.  A full
                          ``M(k,R)`` or ``FM(n,s,R)`` is every entry a class
                          in row-major order, entry (0,0) most significant;
                          ``T(k,R)`` is every upper entry in row-major order,
                          and a pattern ring has its pattern's class order.
* ``DirectProduct(R, S)`` index = idx_R * |S| + idx_S.
* ``TrivialExtension(R)`` pairs (r, m), index = idx(r) * |R| + idx(m).
* ``PolyQuotient(R, f)``  residues modulo monic ``f``, little-endian by
                          ascending degree: index = sum c_i * |R|**i.
* ``GroupRing(R, G)``     coefficient functions G -> R, little-endian over the
                          fixed group enumeration with g0 the identity.
* ``QuotientRing(R, I)``  cosets enumerated by smallest member index, read
                          off one additive walk over I.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConstructionError,
    Ring,
    Subset,
    _as_index_array,
    _digits_table,
    _table,
    additive_generators,
    additive_span,
    check_guard,
    ring_is_commutative,
)

# ---------------------------------------------------------------------------
# digit codecs


def decode_digits(xs, base_card: int, ndigits: int) -> np.ndarray:
    """Split indices into ``ndigits`` base-``base_card`` digits, most
    significant first, on a new leading axis: ``out[p]`` has the shape of
    ``xs`` and is contiguous, so a digit's base call reads it in order."""
    xs = _as_index_array(xs)
    out = np.empty((ndigits, *xs.shape), dtype=np.int64)
    rem = xs
    # numpy divides by a scalar faster than it takes ``divmod``
    for pos in range(ndigits - 1, 0, -1):
        high = rem // base_card
        np.subtract(rem, high * base_card, out=out[pos])
        rem = high
    out[0] = rem
    return out

def encode_digits(digits, base_card: int) -> np.ndarray:
    """The indices whose digits, most significant first, are the entries
    of ``digits`` along its leading axis (an array or any iterable, of any
    integer type)."""
    acc = np.int64(0)
    for digit in digits:
        acc = acc * base_card + digit
    return np.asarray(acc, dtype=np.int64)


#: the largest card of a run of digits that sums through tables: its 16-bit
#: ``add`` table, 128 KiB, stays in cache
_BLOCK_CARD = 256


class _RunTables:
    """Sums and negatives of runs of ``length`` digits over ``base``, read
    off the run's ``add`` and ``neg`` tables, which ``core._digits_table``
    folds from the base's.  Zero is index 0, so a run of fewer digits, the
    leading run of a ring, reads their corner."""

    def __init__(self, base: Ring, length: int) -> None:
        self.card = base.card**length
        self._add = _digits_table(_table(base, "add"), length).ravel()
        self._neg = _digits_table(_table(base, "neg"), length)

    def add_vec(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.take(self._add, X * self.card + Y)

    def neg_vec(self, X: np.ndarray) -> np.ndarray:
        return np.take(self._neg, X)

    def sub_vec(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.take(self._add, X * self.card + np.take(self._neg, Y))


class _DigitRing(Ring):
    """A ring whose elements are ``ndigits`` digits over one base ring,
    added and negated digit by digit and multiplied through one term table.

    Digits are most significant first.  ``_terms[p]`` lists the terms
    (a, b, t) of digit p of a product: digit p of x*y is the sum of
    t*(x_a*y_b) over them, with t a central element of the base.  A
    construction only builds this table; a polynomial quotient also sets
    ``_fold``: its ``_terms`` then give wider sums w_k, and digit p is the
    sum of t*w_k over the pairs (k, t) of ``_fold[p]``.  Each operand is
    split once, unbroadcast: a product is one base call per term on the
    digit rows ``X[a]``, ``Y[b]``, which broadcast.  A sum, a difference or
    a negative splits each operand into runs of as many digits as fit
    ``_BLOCK_CARD`` and gathers each run from the ``_RunTables`` built on
    first use; over a base of larger card a run is one digit and the base
    adds the digit stacks."""

    base: Ring
    ndigits: int
    _terms: list[list[tuple[int, int, int]]]
    _fold: list[list[tuple[int, int]]] | None = None
    #: (card, count, arithmetic) of the runs, set by ``_runs``
    _run_ops: tuple[int, int, "_RunTables | Ring"] | None = None

    def digits(self) -> tuple[Ring, int]:
        return self.base, self.ndigits

    def _split(self, operands, card: int, count: int) -> list[np.ndarray]:
        """The operands' stacks of ``count`` base-``card`` digits, padded to
        one rank so that the digit axis leads."""
        arrays = [_as_index_array(v) for v in operands]
        ndim = max(v.ndim for v in arrays)
        return [decode_digits(v[(None,) * (ndim - v.ndim)], card, count) for v in arrays]

    def _runs(self) -> tuple[int, int, "_RunTables | Ring"]:
        """(card, count, arithmetic) of the runs that sums split operands
        into: the most digits whose card is at most ``_BLOCK_CARD``, else one
        digit summed by the base."""
        if self._run_ops is None:
            b, length = self.base.card, 1
            while length < self.ndigits and b ** (length + 1) <= _BLOCK_CARD:
                length += 1
            run = self.base if b > _BLOCK_CARD else _RunTables(self.base, length)
            self._run_ops = (b**length, -(-self.ndigits // length), run)
        return self._run_ops

    def add_vec(self, xs, ys) -> np.ndarray:
        card, count, run = self._runs()
        return encode_digits(run.add_vec(*self._split((xs, ys), card, count)), card)

    def sub_vec(self, xs, ys) -> np.ndarray:
        card, count, run = self._runs()
        return encode_digits(run.sub_vec(*self._split((xs, ys), card, count)), card)

    def neg_vec(self, xs) -> np.ndarray:
        card, count, run = self._runs()
        return encode_digits(run.neg_vec(*self._split((xs,), card, count)), card)

    def _term_sum(self, X: np.ndarray, Y: np.ndarray, terms) -> np.ndarray:
        """The sum of t*(a*b) over ``terms`` for the elements whose digit
        stacks are ``X`` and ``Y``."""
        R = self.base
        acc = None
        for a, b, t in terms:
            term = R.mul_vec(X[a], Y[b])
            if t != R.one:
                term = R.mul_vec(t, term)
            acc = term if acc is None else R.add_vec(acc, term)
        if acc is None:
            return np.full(np.broadcast_shapes(X.shape[1:], Y.shape[1:]), R.zero, dtype=np.int64)
        return acc

    def mul_vec(self, xs, ys) -> np.ndarray:
        X, Y = self._split((xs, ys), self.base.card, self.ndigits)
        digits = (self._term_sum(X, Y, terms) for terms in self._terms)
        if self._fold is not None:
            wide = list(digits)
            digits = (self._fold_sum(wide, fold) for fold in self._fold)
        return encode_digits(digits, self.base.card)

    def _fold_sum(self, wide: list[np.ndarray], fold) -> np.ndarray:
        """The sum of t*w_k over the pairs (k, t) of ``fold``, which is never empty."""
        R = self.base
        return functools.reduce(R.add_vec, (wide[k] if t == R.one else R.mul_vec(t, wide[k]) for k, t in fold))

    def _little_endian_terms(self, terms) -> None:
        """Set ``_terms`` from a table indexed least significant digit first,
        as polynomial degrees and group elements are."""
        top = self.ndigits - 1
        self._terms = [[(top - a, top - b, t) for a, b, t in ts] for ts in terms[::-1]]

    def _coeffs(self, a: int) -> list[int]:
        """The digits of one element, least significant first."""
        digits = decode_digits(self._check(a), self.base.card, self.ndigits)[:, 0]
        return [int(c) for c in digits[::-1]]


# ---------------------------------------------------------------------------
# integers modulo n


class Zmod(Ring):
    """Integers modulo ``n``; the index of an element is its residue.  Sums
    and products reduce by one subtraction, several times faster than ``%``."""

    def __init__(self, n: int, max_card: int | None = None) -> None:
        if n < 2:
            raise ConstructionError(f"modulus must be >= 2, got {n}")
        self.card = check_guard(n, max_card)
        if (n - 1) ** 2 > np.iinfo(np.int64).max:
            raise ConstructionError(f"modulus {n} is too large: (n-1)^2 overflows int64")
        self.zero = 0
        self.one = 1
        self.label = f"Z({n})"

    def add_vec(self, xs, ys) -> np.ndarray:
        s = _as_index_array(xs) + _as_index_array(ys)
        s -= self.card * (s >= self.card)
        return s

    def neg_vec(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        return (self.card - xs) * (xs != 0)

    def mul_vec(self, xs, ys) -> np.ndarray:
        p = _as_index_array(xs) * _as_index_array(ys)
        p -= p // self.card * self.card
        return p


def zmod(n: int, max_card: int | None = None) -> Zmod:
    return Zmod(n, max_card=max_card)


# ---------------------------------------------------------------------------
# matrix rings: full, triangular, pattern and formal


class MatrixRing(_DigitRing):
    """Square matrices over a base ring whose entries are tied into classes.

    ``classes`` lists the free coordinates grouped by forced equality; each
    class is one digit, first class most significant, and coordinates in no
    class are zero.  The optional ``twist(i, l, j)``, a base element,
    multiplies the term ``a_il * b_lj`` of a product's (i, j) entry.  The
    term table has one digit per class, its representative's entry: the
    terms over the l that both factors' supports allow.

    Multiplicative closure is checked at construction on products of
    impulses, one class set to x and the rest zero: every element is a sum
    of impulses and the classes' digit vectors are closed under addition,
    so by bilinearity that covers every product.  An entry of the product of
    impulses of values x and y is a sum of twisted copies of x*y, so it
    depends on x*y alone, and the right impulse's value can be ``one``.
    """

    def __init__(
        self,
        base: Ring,
        classes,
        label: str,
        twist: Callable[[int, int, int], int] | None = None,
        max_card: int | None = None,
    ) -> None:
        self.base = base
        self.classes = tuple(tuple(cls) for cls in classes)
        self.ndigits = len(self.classes)
        self.card = check_guard(base.card, max_card, exponent=self.ndigits)
        self.label = label
        k = self.size = 1 + max(max(c) for cls in self.classes for c in cls)
        self._reps = [cls[0] for cls in self.classes]
        diagonal = [base.one if i == j else base.zero for i, j in self._reps]
        self.zero = int(encode_digits([base.zero] * self.ndigits, base.card))
        self.one = int(encode_digits(diagonal, base.card))
        self._column = {c: d for d, cls in enumerate(self.classes) for c in cls}
        # per entry (i, j): the digits of a_il and b_lj, and the twist
        self._entry_terms = {
            (i, j): [
                (self._column[i, l], self._column[l, j], base.one if twist is None else twist(i, l, j))
                for l in range(k)
                if (i, l) in self._column and (l, j) in self._column
            ]
            for i in range(k)
            for j in range(k)
        }
        self._terms = [self._entry_terms[rep] for rep in self._reps]
        self._verify_closure()

    def _verify_closure(self) -> None:
        n, card = self.ndigits, self.base.card
        # the digit stacks of the left impulses (class d set to x) as a
        # column and of the right ones (class d set to one) as a row
        A = np.full((n, n * card, 1), self.base.zero, dtype=np.int64)
        A[np.repeat(np.arange(n), card), np.arange(n * card), 0] = np.tile(np.arange(card), n)
        B = np.where(np.eye(n, dtype=bool), self.base.one, self.base.zero)[:, None, :]
        terms = self._entry_terms
        ok = np.ones((n * card, n), dtype=bool)
        for cls in self.classes:
            rep = self._term_sum(A, B, terms[cls[0]])
            for ij in cls[1:]:
                ok &= self._term_sum(A, B, terms[ij]) == rep
        for ij in set(terms) - set(self._column):
            ok &= self._term_sum(A, B, terms[ij]) == self.base.zero
        if not ok.all():
            left, right = np.unravel_index(np.argmin(ok), ok.shape)
            raise ConstructionError(
                f"{self.label} is not multiplicatively closed: witness pair "
                f"({int(encode_digits(A[:, left, 0], card))}, {int(encode_digits(B[:, 0, right], card))})"
            )

    def format_element(self, a: int) -> str:
        digits = decode_digits(self._check(a), self.base.card, self.ndigits)[:, 0]
        rows = [
            "[" + ", ".join(
                self.base.format_element(
                    int(digits[self._column[i, j]]) if (i, j) in self._column else self.base.zero
                )
                for j in range(self.size)
            ) + "]"
            for i in range(self.size)
        ]
        return "[" + ", ".join(rows) + "]"


def _full_classes(k: int) -> list[tuple[tuple[int, int]]]:
    return [((i, j),) for i in range(k) for j in range(k)]


def matrix_ring(k: int, base: Ring, max_card: int | None = None) -> MatrixRing:
    """Full ``k x k`` matrix ring over a base ring."""
    if k < 1:
        raise ConstructionError(f"matrix size must be >= 1, got {k}")
    check_guard(base.card, max_card, exponent=k * k)  # before the k*k classes
    return MatrixRing(base, _full_classes(k), f"M({k},{base.label})", max_card=max_card)


# ---------------------------------------------------------------------------
# patterns of upper-triangular matrices


@dataclass(frozen=True)
class Pattern:
    """A ``size x size`` upper-triangular frame with equality classes.

    ``classes`` lists the free coordinates grouped by forced equality; the
    class order fixes the digit order of the element encoding.  Upper
    coordinates not covered by any class are forced to zero.
    """

    size: int
    classes: tuple[tuple[tuple[int, int], ...], ...]
    name: str

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        diagonal_covered: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ConstructionError(f"pattern {self.name}: empty class")
            has_diag = any(i == j for i, j in cls)
            for i, j in cls:
                if not (0 <= i <= j < self.size):
                    raise ConstructionError(
                        f"pattern {self.name}: coordinate ({i},{j}) outside the upper triangle"
                    )
                if (i, j) in seen:
                    raise ConstructionError(
                        f"pattern {self.name}: coordinate ({i},{j}) in two classes"
                    )
                seen.add((i, j))
                if has_diag and i != j:
                    raise ConstructionError(
                        f"pattern {self.name}: class mixes diagonal and off-diagonal coordinates"
                    )
                if i == j:
                    diagonal_covered.add(i)
        if diagonal_covered != set(range(self.size)):
            raise ConstructionError(
                f"pattern {self.name}: every diagonal coordinate needs a class"
            )


def upper_triangular_pattern(k: int) -> Pattern:
    classes = tuple(((i, j),) for i in range(k) for j in range(i, k))
    return Pattern(k, classes, f"T({k})")


def s_pattern(n: int) -> Pattern:
    """Constant diagonal, all strictly upper coordinates free."""
    if n < 2:
        raise ConstructionError(f"S(n) needs n >= 2, got {n}")
    diag = tuple((i, i) for i in range(n))
    uppers = tuple(((i, j),) for i in range(n) for j in range(i + 1, n))
    return Pattern(n, (diag,) + uppers, f"S({n})")


def s_nm_pattern(n: int, m: int) -> Pattern:
    """Toeplitz n-block, free corner block, Toeplitz m-block, shared diagonal."""
    if n < 2 or m < 2:
        raise ConstructionError(f"S(n,m) needs n,m >= 2, got ({n},{m})")
    k = n + m - 1
    classes: list[tuple[tuple[int, int], ...]] = [tuple((i, i) for i in range(k))]
    for t in range(1, n):
        classes.append(tuple((i, i + t) for i in range(n - t)))
    for i in range(n - 1):
        for j in range(n, k):
            classes.append(((i, j),))
    for t in range(1, m):
        classes.append(tuple((i, i + t) for i in range(n - 1, k - t)))
    return Pattern(k, tuple(classes), f"S({n},{m})")


def t_nm_pattern(n: int, m: int) -> Pattern:
    """Two independent Toeplitz blocks sharing one diagonal value."""
    if n < 2 or m < 2:
        raise ConstructionError(f"Tb(n,m) needs n,m >= 2, got ({n},{m})")
    k = n + m
    classes: list[tuple[tuple[int, int], ...]] = [tuple((i, i) for i in range(k))]
    for t in range(1, n):
        classes.append(tuple((i, i + t) for i in range(n - t)))
    for t in range(1, m):
        classes.append(tuple((n + i, n + i + t) for i in range(m - t)))
    return Pattern(k, tuple(classes), f"Tb({n},{m})")


def u_pattern(n: int) -> Pattern:
    """Alternating-row Toeplitz frame: rows of even index share b's, odd share c's."""
    if n < 2:
        raise ConstructionError(f"U(n) needs n >= 2, got {n}")
    classes: list[tuple[tuple[int, int], ...]] = [tuple((i, i) for i in range(n))]
    for t in range(1, n):
        evens = tuple((i, i + t) for i in range(0, n - t, 2))
        odds = tuple((i, i + t) for i in range(1, n - t, 2))
        if evens:
            classes.append(evens)
        if odds:
            classes.append(odds)
    return Pattern(n, tuple(classes), f"U({n})")


def double_extension_pattern() -> Pattern:
    """The 4x4 frame realising a twice-iterated trivial extension."""
    diag = tuple((i, i) for i in range(4))
    return Pattern(4, (diag, ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3),)), "DT")


#: family -> its one- and two-argument patterns, such as S(2), S(2,2),
#: Tb(2,2), U(3), each with its class count; the parser rejects a family or
#: an arity not listed here
_BUILTIN_PATTERNS = {
    "S": ((s_pattern, lambda n: 1 + n * (n - 1) // 2), (s_nm_pattern, lambda n, m: n * m)),
    "Tb": (None, (t_nm_pattern, lambda n, m: n + m - 1)),
    "U": ((u_pattern, lambda n: 2 * n - 2), None),
}


def pattern_subring(pattern: Pattern, base: Ring, max_card: int | None = None) -> MatrixRing:
    """Subring of the upper-triangular matrices cut out by a pattern."""
    return MatrixRing(
        base, pattern.classes, f"PAT({pattern.name},{base.label})", max_card=max_card
    )


def builtin_pattern_subring(
    frame: tuple[str, tuple[int, ...]], base: Ring, max_card: int | None = None
) -> MatrixRing:
    """``pattern_subring`` of a built-in frame, given as its family and
    naturals, such as ``("S", (2, 2))``."""
    family, naturals = frame
    pattern, classes = _BUILTIN_PATTERNS[family][len(naturals) - 1]
    check_guard(base.card, max_card, exponent=classes(*naturals))  # before the coordinates
    return pattern_subring(pattern(*naturals), base, max_card)


def upper_triangular(k: int, base: Ring, max_card: int | None = None) -> MatrixRing:
    if k < 1:
        raise ConstructionError(f"matrix size must be >= 1, got {k}")
    check_guard(base.card, max_card, exponent=k * (k + 1) // 2)  # before the classes
    return MatrixRing(
        base, upper_triangular_pattern(k).classes, f"T({k},{base.label})", max_card=max_card
    )


# ---------------------------------------------------------------------------
# matrix rings twisted by a central element


def _central_twist(base: Ring, s: int) -> int:
    if not 0 <= s < base.card:
        raise ConstructionError(f"twist {s} is not an element of {base.label}")
    ar = np.arange(base.card, dtype=np.int64)
    if not np.array_equal(base.mul_vec(s, ar), base.mul_vec(ar, s)):
        raise ConstructionError(f"element {s} is not central in {base.label}")
    return s


def formal_matrix(n: int, s: int, base: Ring, max_card: int | None = None) -> MatrixRing:
    """Matrix-shaped ring with products twisted by powers of a central ``s``.

    The (i,j) entry of a product is ``sum_l s**e(i,l,j) * a_il * b_lj`` where
    ``e(i,l,j) = 1 + [i==j] - [i==l] - [l==j]``; the exponents lie in
    {0, 1, 2} and ``s = one`` recovers the ordinary matrix ring.
    """
    if n < 2:
        raise ConstructionError(f"formal matrix size must be >= 2, got {n}")
    powers = [base.one, _central_twist(base, s), base.mul(s, s)]
    check_guard(base.card, max_card, exponent=n * n)  # before the n*n classes
    return MatrixRing(
        base,
        _full_classes(n),
        f"FM({n},{s},{base.label})",
        twist=lambda i, l, j: powers[1 + (i == j) - (i == l) - (l == j)],
        max_card=max_card,
    )


# ---------------------------------------------------------------------------
# direct products


class DirectProduct(Ring):
    """Componentwise product of two rings."""

    def __init__(self, left: Ring, right: Ring, max_card: int | None = None) -> None:
        self.left = left
        self.right = right
        self.card = check_guard(left.card * right.card, max_card)
        self.zero = left.zero * right.card + right.zero
        self.one = left.one * right.card + right.one
        self.label = f"({left.label} x {right.label})"

    def factors(self) -> tuple[Ring, Ring]:
        return self.left, self.right

    def _split(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """The components (l, r) of the indices l·|R| + r; numpy divides by
        a scalar faster than it takes ``divmod``."""
        xs = _as_index_array(xs)
        lx = xs // self.right.card
        return lx, xs - lx * self.right.card

    def add_vec(self, xs, ys) -> np.ndarray:
        (lx, rx), (ly, ry) = map(self._split, (xs, ys))
        return self.left.add_vec(lx, ly) * self.right.card + self.right.add_vec(rx, ry)

    def neg_vec(self, xs) -> np.ndarray:
        lx, rx = self._split(xs)
        return self.left.neg_vec(lx) * self.right.card + self.right.neg_vec(rx)

    def mul_vec(self, xs, ys) -> np.ndarray:
        (lx, rx), (ly, ry) = map(self._split, (xs, ys))
        return self.left.mul_vec(lx, ly) * self.right.card + self.right.mul_vec(rx, ry)

    def format_element(self, a: int) -> str:
        la, ra = divmod(self._check(a), self.right.card)
        return f"({self.left.format_element(la)}, {self.right.format_element(ra)})"


def direct_product(left: Ring, right: Ring, max_card: int | None = None) -> DirectProduct:
    return DirectProduct(left, right, max_card=max_card)


# ---------------------------------------------------------------------------
# trivial extension


class TrivialExtension(_DigitRing):
    """Pairs (r, m) over one ring with (r,m)(s,n) = (rs, rn + ms)."""

    ndigits = 2

    def __init__(self, base: Ring, max_card: int | None = None) -> None:
        self.base = base
        self.card = check_guard(base.card, max_card, exponent=2)
        self.zero = base.zero * base.card + base.zero
        self.one = base.one * base.card + base.zero
        self.label = f"TE({base.label})"
        self._terms = [[(0, 0, base.one)], [(0, 1, base.one), (1, 0, base.one)]]

    def format_element(self, a: int) -> str:
        r, m = divmod(self._check(a), self.base.card)
        return f"({self.base.format_element(r)}, {self.base.format_element(m)})"


def trivial_extension(base: Ring, max_card: int | None = None) -> TrivialExtension:
    return TrivialExtension(base, max_card=max_card)


# ---------------------------------------------------------------------------
# polynomial quotients and finite fields


class PolyQuotient(_DigitRing):
    """Residues of ``R[x]`` modulo a monic polynomial over a commutative base."""

    def __init__(
        self,
        base: Ring,
        modulus,
        label: str | None = None,
        max_card: int | None = None,
    ) -> None:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) < 2:
            raise ConstructionError("modulus must have degree >= 1")
        if not all(0 <= c < base.card for c in modulus):
            raise ConstructionError(f"modulus coefficients must be elements of {base.label}")
        if modulus[-1] != base.one:
            raise ConstructionError(
                f"modulus must be monic (last coefficient {modulus[-1]} != one)"
            )
        if not ring_is_commutative(base):
            raise ConstructionError(f"base ring {base.label} is not commutative")
        self.base = base
        self.modulus = modulus
        self.degree = self.ndigits = len(modulus) - 1
        self.card = check_guard(base.card, max_card, exponent=self.degree)
        self.zero = 0
        self.one = base.one  # constant-term digit is least significant
        poly = "[" + ",".join(str(c) for c in modulus) + "]"
        self.label = label if label is not None else f"PQ({base.label},{poly})"
        # powers[m][i] is the coefficient of x**i in x**m mod f, m < 2d - 1:
        # x**(m+1) shifts x**m up a degree and folds its top coefficient c
        # back through x**d = -(f_0 + ... + f_(d-1) x**(d-1))
        d = self.degree
        powers = [[base.one if i == m else base.zero for i in range(d)] for m in range(d)]
        for _ in range(d - 1):
            c = powers[-1][-1]
            shifted = [base.zero] + powers[-1][:-1]
            powers.append([base.sub(s, base.mul(c, f)) for s, f in zip(shifted, modulus[:-1])])
        # a product convolves, w_m the sum of x_i*y_j over i + j = m, each
        # x_i*y_j formed once, and folds x**m back to powers[m]
        top = d - 1
        self._terms = [
            [(top - i, top - (m - i), base.one) for i in range(max(0, m - top), min(m, top) + 1)]
            for m in range(2 * d - 1)
        ]
        self._fold = [
            [(m, row[p]) for m, row in enumerate(powers) if row[p] != base.zero] for p in range(top, -1, -1)
        ]

    def format_element(self, a: int) -> str:
        coeffs = self._coeffs(a)
        terms = []
        for i, c in enumerate(coeffs):
            if c == self.base.zero:
                continue
            cs = self.base.format_element(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*x" if c != self.base.one else "x")
            else:
                terms.append(f"{cs}*x^{i}" if c != self.base.one else f"x^{i}")
        return " + ".join(terms) if terms else self.base.format_element(self.base.zero)


def poly_quot(base: Ring, modulus, max_card: int | None = None) -> PolyQuotient:
    return PolyQuotient(base, modulus, max_card=max_card)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_divides(div: list[int], poly: list[int], p: int) -> bool:
    """Whether the monic ``div`` divides ``poly`` over Z(p), both constant
    term first: long division from the top coefficient down."""
    rem, top = list(poly), len(div) - 1
    for shift in range(len(rem) - 1 - top, -1, -1):
        factor = rem[shift + top]
        for i, c in enumerate(div):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return not any(rem)


def _little_endian(t: int, p: int, k: int) -> list[int]:
    """The ``k`` base-``p`` digits of ``t``, least significant first."""
    return [(t // p**i) % p for i in range(k)]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    deg = len(coeffs) - 1
    for ddeg in range(1, deg // 2 + 1):
        for t in range(p**ddeg):
            # monic divisor: constant term first, leading 1
            if _poly_divides(_little_endian(t, p, ddeg) + [1], coeffs, p):
                return False
    return True


def gf(p: int, k: int, max_card: int | None = None) -> PolyQuotient:
    """Field of order ``p**k`` as the quotient by the lexicographically
    smallest monic irreducible of degree ``k`` over ``Z(p)``."""
    if not 1 <= k <= 4:
        raise ConstructionError(f"extension degree must be in 1..4, got {k}")
    # the guard bounds the trial division of the primality test
    card = check_guard(p, max_card, exponent=k)
    if not _is_prime(p):
        raise ConstructionError(f"{p} is not prime")
    base = Zmod(p)
    modulus = None
    for t in range(card):
        coeffs = _little_endian(t, p, k) + [1]
        if _is_irreducible(coeffs, p):
            modulus = coeffs
            break
    if modulus is None:  # cannot happen: irreducibles exist in every degree
        raise ConstructionError(f"no irreducible of degree {k} over Z({p})")
    return PolyQuotient(base, modulus, label=f"GF({p},{k})", max_card=max_card)


# ---------------------------------------------------------------------------
# finite groups and group rings

_GROUP_ORDER_LIMIT = 512


class FiniteGroup:
    """A finite group given by a Cayley table on ``0 .. order-1``, identity 0.

    The table is exhaustively validated at construction (identity,
    associativity, inverses).
    """

    def __init__(self, table, label: str) -> None:
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ConstructionError("Cayley table must be square")
        if n < 1 or n > _GROUP_ORDER_LIMIT:
            raise ConstructionError(f"group order must be in 1..{_GROUP_ORDER_LIMIT}")
        if table.min() < 0 or table.max() >= n:
            raise ConstructionError("Cayley table entries outside the carrier")
        ar = np.arange(n)
        if not (np.array_equal(table[0], ar) and np.array_equal(table[:, 0], ar)):
            raise ConstructionError("index 0 is not an identity")
        for a in range(n):
            if not np.array_equal(table[table[a]], table[a][table]):
                raise ConstructionError(f"Cayley table is not associative (a={a})")
        for a in range(n):
            hits = np.flatnonzero(table[a] == 0)
            if len(hits) != 1 or table[int(hits[0]), a] != 0:
                raise ConstructionError(f"element {a} lacks a two-sided inverse")
        self.order = n
        self.table = table
        self.label = label

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def is_p_group(self, p: int) -> bool:
        n = self.order
        if n == 1:
            return True
        while n % p == 0:
            n //= p
        return n == 1

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order={self.order}>"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ConstructionError(f"cyclic group order must be >= 1, got {n}")
    if n > _GROUP_ORDER_LIMIT:  # before the n x n table is formed
        raise ConstructionError(f"group order must be in 1..{_GROUP_ORDER_LIMIT}")
    ar = np.arange(n, dtype=np.int64)
    table = (ar[:, None] + ar[None, :]) % n
    return FiniteGroup(table, f"C({n})")


def group_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n = g.order * h.order
    if n > _GROUP_ORDER_LIMIT:
        raise ConstructionError(f"group order {n} exceeds limit {_GROUP_ORDER_LIMIT}")
    ga, gb = np.divmod(np.arange(n, dtype=np.int64), h.order)
    left = g.table[ga[:, None], ga[None, :]]
    right = h.table[gb[:, None], gb[None, :]]
    # flat label: group atoms cannot nest in parens in the expression language
    return FiniteGroup(left * h.order + right, f"{g.label} x {h.label}")


class GroupRing(_DigitRing):
    """Group ring R[G] with pointwise addition and convolution product."""

    def __init__(self, base: Ring, group: FiniteGroup, max_card: int | None = None) -> None:
        self.base = base
        self.group = group
        self.ndigits = group.order
        self.card = group_ring_card(base, group.order, max_card)
        self.zero = 0
        self.one = base.one  # coefficient 1 at the identity g0
        self.label = f"GR({base.label},{group.label})"
        # g_i g_j = g_k puts a_i b_j into coefficient k
        terms = [[] for _ in range(group.order)]
        for i in range(group.order):
            for j in range(group.order):
                terms[group.table[i, j]].append((i, j, base.one))
        self._little_endian_terms(terms)

    def format_element(self, a: int) -> str:
        terms = []
        for i, c in enumerate(self._coeffs(a)):
            if c != self.base.zero:
                terms.append(f"{self.base.format_element(c)}*g{i}")
        return " + ".join(terms) if terms else self.base.format_element(self.base.zero)


def group_ring_card(base: Ring, order: int, max_card: int | None = None) -> int:
    """The card |base|^order of a group ring over a group of that order.
    An order above the group limit is refused first, then the card by the
    guard, so a caller that knows the order can refuse the ring before its
    group's table is formed and validated."""
    if order > _GROUP_ORDER_LIMIT:
        raise ConstructionError(f"group order {order} exceeds limit {_GROUP_ORDER_LIMIT}")
    return check_guard(base.card, max_card, exponent=order)


def group_ring(base: Ring, group: FiniteGroup, max_card: int | None = None) -> GroupRing:
    return GroupRing(base, group, max_card=max_card)


# ---------------------------------------------------------------------------
# ideals and quotients


def _generator_products(ring: Ring, span: list[int], gens: np.ndarray) -> np.ndarray:
    """r*x and x*r for each generator x of an additive span and each additive
    generator r of ``ring`` (``gens``): by bilinearity the span is a
    two-sided ideal exactly when it holds them all."""
    xs = np.asarray(span, dtype=np.int64)[:, None]
    return np.concatenate((ring.mul_vec(gens, xs).ravel(), ring.mul_vec(xs, gens).ravel()))


def ideal_generated(ring: Ring, gens) -> Subset:
    """Smallest two-sided ideal containing ``gens``: the additive span of
    the seeds, grown by its generator products until it holds them."""
    seeds = [ring._check(int(g)) for g in gens]
    ring_gens = np.asarray(additive_generators(ring), dtype=np.int64)
    while True:
        mask, span, _ = additive_span(ring, seeds)
        products = _generator_products(ring, span, ring_gens)
        if mask[products].all():
            return Subset(ring, mask)
        seeds = span + products.tolist()


class QuotientRing(Ring):
    """Quotient by a two-sided ideal; cosets keep their smallest member.

    One ``additive_span`` walk over the ideal checks it (the span is the
    subset exactly when the subset is an additive subgroup) and gives the
    coset minima: replaying each step's h as m[x] = min(m[x], m[x + h])
    takes the minimum over their subset sums, in any order.  A generator
    g's J steps h = g, 2g, ..., 2^(J-1)g cover 0, g, ..., (2^J - 1)g modulo
    the span before it, and a later generator walks on until 2^J is at
    least its order there.  The first one's cosets are single elements,
    so its walk may stop at |<g>| = 2^J + 1, and then g is replayed too."""

    def __init__(self, base: Ring, ideal: Subset, label: str | None = None) -> None:
        if ideal.ring is not base:
            raise ConstructionError("ideal subset belongs to a different ring")
        span_mask, span, steps = additive_span(base, ideal.indices())
        products = _generator_products(base, span, np.asarray(additive_generators(base)))
        missing = np.concatenate((np.flatnonzero(span_mask), products))
        missing = missing[~ideal.mask[missing]]
        if len(missing):
            raise ConstructionError(f"subset is not an ideal: it lacks {int(missing[0])}")
        self.base = base
        self.ideal = ideal
        ar = np.arange(base.card, dtype=np.int64)
        minrep = ar
        hs = [h for _, _, h in steps]
        j = hs.index(span[1]) if len(span) > 1 else len(hs)  # the first generator's steps
        # |<g>| counts 0, g and the elements those steps add
        if span and 2 + sum(len(t) for t, _, _ in steps[:j]) == 2**j + 1:
            hs.append(span[0])
        for h in hs:
            minrep = np.minimum(minrep, minrep[base.add_vec(ar, h)])
        self._reps, self._coset_of = np.unique(minrep, return_inverse=True)
        self.card = len(self._reps)
        self.zero = int(self._coset_of[base.zero])
        self.one = int(self._coset_of[base.one])
        self.label = label if label is not None else f"({base.label}/I{len(ideal)})"

    def add_vec(self, xs, ys) -> np.ndarray:
        return self._coset_of[self.base.add_vec(np.take(self._reps, xs), np.take(self._reps, ys))]

    def neg_vec(self, xs) -> np.ndarray:
        return self._coset_of[self.base.neg_vec(np.take(self._reps, xs))]

    def mul_vec(self, xs, ys) -> np.ndarray:
        return self._coset_of[self.base.mul_vec(np.take(self._reps, xs), np.take(self._reps, ys))]

    def format_element(self, a: int) -> str:
        return f"[{self.base.format_element(int(self._reps[self._check(a)]))}]"


def quotient_by_ideal(ring: Ring, ideal: Subset, label: str | None = None) -> QuotientRing:
    return QuotientRing(ring, ideal, label=label)
