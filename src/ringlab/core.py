"""Finite rings as indexed carriers with exact integer arithmetic.

A ring lives on the carrier ``0 .. card-1``; elements are plain ints and
are meaningful only relative to the ring that produced them.  A ring is
defined by its numpy-vectorised ``add_vec``/``neg_vec``/``mul_vec``, which
the bulk scans are built on; the scalar ``add``/``neg``/``mul`` are derived
from them.  ``additive_span`` is the one walk of the additive group: ideals,
quotients, ``additive_generators`` and the table build read its generators
and steps.  ``maybe_memoize`` copies a ring of card up to
``MEMO_THRESHOLD`` into 16-bit operation tables (``TableRing``), and never
tabulates a direct product, only its factors.  The ``add`` table is
lent by a ``TableRing``, combined from a product's factors', folded from a
digit ring's base's (``_digits_table``, as its sums fold their run
tables), and evaluated on all pairs for any other ring.  Above
card 64 the ``mul`` table takes one call on the k² pairs of additive
generators, and the rest is gathered by distributivity along the steps of
the table's walk, in cache-sized blocks.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

DEFAULT_MAX_CARD = 200_000
#: the largest card tabulated: its 2-byte ``add`` table, 2·card² bytes, still
#: fits a 2 MiB L2 cache, which the gathers of the ``mul`` fill read at random
MEMO_THRESHOLD = 1024

#: the entry type of every operation table: each entry is an element index
#: below ``MEMO_THRESHOLD``
TABLE_DTYPE = np.int16
#: the largest card whose indices ``TABLE_DTYPE`` holds
_TABLE_CARD = int(np.iinfo(TABLE_DTYPE).max) + 1
assert MEMO_THRESHOLD <= _TABLE_CARD

MAX_CARD_ENV = "RINGLAB_MAX_CARD"


class GuardError(ValueError):
    """A construction or table would exceed the configured size guard.

    ``required`` is the size, or the text ``base^exponent`` of a power of
    2^100 or more, which ``check_guard`` refuses without forming it."""

    def __init__(self, required: int | str, limit: int, what: str = "card"):
        self.required = required
        self.limit = limit
        self.what = what
        super().__init__(f"{what} {required} exceeds guard {limit}")


class ConstructionError(ValueError):
    """A construction precondition failed (closure, centrality, ideal, ...)."""


class SettingError(ValueError):
    """An environment setting does not parse."""


def default_max_card() -> int:
    raw = os.environ.get(MAX_CARD_ENV)
    if raw is None or raw == "":
        return DEFAULT_MAX_CARD
    try:
        return int(raw)
    except ValueError:
        raise SettingError(f"{MAX_CARD_ENV} must be an integer, got {raw!r}") from None


def check_guard(
    required: int, max_card: int | None, what: str = "card", exponent: int = 1
) -> int:
    """Return ``required**exponent``, or raise :class:`GuardError` when it
    exceeds the active guard.  The power is at least 2**bits, so it is
    refused unformed once bits reaches the guard's bit length; from 2^100 on
    (above 10^30) the message writes it as a power."""
    limit = default_max_card() if max_card is None else max_card
    bits = exponent * (required.bit_length() - 1)
    if bits < max(limit.bit_length(), 100):
        power = required**exponent
        if power <= limit:
            return power
        if bits < 100:
            raise GuardError(power, limit, what)
    raise GuardError(required if exponent == 1 else f"{required}^{exponent}", limit, what)


def _as_index_array(xs) -> np.ndarray:
    if type(xs) is np.ndarray and xs.dtype == np.int64 and xs.ndim:
        return xs  # as it is: the conversion below would copy it
    return np.array(xs, dtype=np.int64, ndmin=1)


class Ring:
    """A finite unital ring on the carrier ``0 .. card-1``.

    A construction implements ``add_vec``, ``neg_vec`` and ``mul_vec``; the
    scalar ``add``/``neg``/``mul`` evaluate them on one pair.  Required
    invariants: (carrier, add, neg, zero) is an abelian group, ``mul`` is
    associative with identity ``one``, multiplication distributes over
    addition on both sides, and ``zero != one``.  ``check_ring_axioms``
    verifies all of that exhaustively for small cards.
    """

    card: int
    zero: int
    one: int
    label: str
    #: cached by ``additive_generators``
    _additive_generators: list[int] | None = None

    # -- vectorised operations: the interface a construction implements -----
    # Operands are taken as at least 1-d arrays of valid indices and
    # broadcast like numpy arrays, empty ones included; the output is an
    # int64 array of their broadcast shape.  So a caller pairs m elements
    # with k as shapes (m, 1) and (1, k), never as repeated copies, and a
    # construction splits each operand once.
    def add_vec(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def neg_vec(self, xs) -> np.ndarray:
        raise NotImplementedError

    def mul_vec(self, xs, ys) -> np.ndarray:
        raise NotImplementedError

    def sub_vec(self, xs, ys) -> np.ndarray:
        return self.add_vec(xs, self.neg_vec(_as_index_array(ys)))

    def factors(self) -> tuple["Ring", "Ring"] | None:
        """(L, R) when this ring is the direct product L x R indexed
        a·|R| + b, else None."""
        return None

    def digits(self) -> tuple["Ring", int] | None:
        """(base, n) when this ring adds digit by digit over n base digits, high first."""
        return None

    # -- scalar operations, checked and evaluated through the vector ones ----
    def add(self, a: int, b: int) -> int:
        return int(self.add_vec(self._check(a), self._check(b))[0])

    def neg(self, a: int) -> int:
        return int(self.neg_vec(self._check(a))[0])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_vec(self._check(a), self._check(b))[0])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _check(self, a: int) -> int:
        if not 0 <= a < self.card:
            raise IndexError(f"element index {a} out of range for {self.label}")
        return a

    # -- presentation --------------------------------------------------------
    def format_element(self, a: int) -> str:
        return str(a)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} card={self.card}>"


def is_nilpotent(ring: Ring, a: int) -> tuple[bool, int | None]:
    """Decide nilpotency of ``a`` and return the least exponent when it is.

    Walks the powers a, a**2, ... in blocks that double in length,
    a**(k+1..2k) = a**k * a**(1..k), and stops at zero (nilpotent) or when
    a**k recurs in its block (a cycle without zero: not), so it terminates
    within ``2 * card`` products without assuming anything about the ring.
    """
    if ring._check(a) == ring.zero:
        return True, 1
    powers = np.array([a], dtype=np.int64)
    while True:
        block = ring.mul_vec(powers[-1], powers)
        zero = np.flatnonzero(block == ring.zero)
        if len(zero):
            return True, len(powers) + int(zero[0]) + 1
        if (block == powers[-1]).any():
            return False, None
        powers = np.concatenate((powers, block))


class Subset:
    """An exact bit-set over a ring's carrier."""

    __slots__ = ("ring", "mask")

    def __init__(self, ring: Ring, mask) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (ring.card,):
            raise ValueError(
                f"mask of shape {mask.shape} does not fit card {ring.card}"
            )
        self.ring = ring
        self.mask = mask

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, a: int) -> bool:
        return bool(self.mask[self.ring._check(int(a))])

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __iter__(self) -> Iterator[int]:
        return (int(i) for i in np.flatnonzero(self.mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.ring is other.ring and bool(np.array_equal(self.mask, other.mask))

    def __hash__(self):
        raise TypeError("Subset is not hashable")

    def __repr__(self) -> str:
        members = [int(i) for i in self.indices()[:12]]
        tail = ", ..." if len(self) > 12 else ""
        return f"<Subset of {self.ring.label} card={len(self)} {{{', '.join(map(str, members))}{tail}}}>"


#: up to this card the ``mul`` table is one n² evaluation, which beats the
#: generator build's fixed cost of about 0.2 ms: of the harness rings, those
#: of card 64 split evenly.  The ``add`` table does not depend on it
_DIRECT_BUILD_CARD = 64

#: table entries per gather of the generator build and per block of an n²
#: evaluation, so that their temporaries stay in cache: on Z(1024) gathers
#: of 8k took 1.2x as long, of 128k about as long, and the add table took
#: 2.7 ms in blocks of 32k against 7.0 ms in one
_GATHER_BLOCK = 1 << 15

def _product_table(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``out[(a,b),(c,d)] = left[a,c]·|R| + right[b,d]`` for the index
    a·|R| + b of the direct product, into ``out`` or a new table: the rows
    ``left[a]·|R|``, each entry repeated |R| times, plus the rows
    ``right[b]`` tiled |L| times, one broadcast whose inner axis is a whole
    table row.  Of two ``neg`` tables, 1-d, ``out[(a,b)] = left[a]·|R| + right[b]``."""
    nl, nr = len(left), len(right)
    if left.ndim == 1:
        return np.add.outer(left * nr, right).ravel()
    out = np.empty((nl * nr, nl * nr), dtype=TABLE_DTYPE) if out is None else out
    np.add(np.repeat(left * nr, nr, axis=1)[:, None], np.tile(right, nl), out=out.reshape(nl, nr, -1))
    return out


def _digits_table(digit: np.ndarray, ndigits: int, out: np.ndarray | None = None) -> np.ndarray:
    """The ``add`` or ``neg`` table of the elements of ``ndigits`` digits,
    high first, from one digit's, into ``out`` when given: the table of the
    low half of the digits folded with itself, and with one more digit when
    their count is odd, so in about log2(ndigits) folds."""
    if ndigits == 1:
        if out is None:
            return digit
        np.copyto(out, digit)
        return out
    low = _digits_table(digit, ndigits // 2)
    high = low if ndigits % 2 == 0 else _product_table(low, digit)
    return _product_table(high, low, out)


def _direct_table(op, out: np.ndarray) -> np.ndarray:
    """``out[a, b] = op(a, b)``, evaluated on all pairs in row blocks of
    about ``_GATHER_BLOCK`` entries, so that its temporaries stay in cache."""
    ar = np.arange(len(out), dtype=np.int64)
    rows = max(1, _GATHER_BLOCK // len(out))
    for lo in range(0, len(out), rows):
        out[lo : lo + rows] = op(ar[lo : lo + rows, None], ar)
    return out


def _table(ring: Ring, op: str, out: np.ndarray | None = None) -> np.ndarray:
    """The ``add`` or ``neg`` table (``op``): lent by a ``TableRing``,
    combined from a direct product's factors', folded from a digit ring's
    base's by ``_digits_table``, else evaluated: ``neg`` on the carrier and
    ``add`` on all pairs by ``_direct_table``.  Only ``add`` is passed
    ``out``, the array it is written into."""
    if isinstance(ring, TableRing):
        table = getattr(ring, "_" + op)
        if out is None:
            return table
        np.copyto(out, table)
        return out
    if ring.factors() is not None:
        return _product_table(*(_table(part, op) for part in ring.factors()), out)
    if ring.digits() is not None:
        base, ndigits = ring.digits()
        return _digits_table(_table(base, op), ndigits, out)
    n = ring.card
    if op == "neg":
        return ring.neg_vec(np.arange(n, dtype=np.int64)).astype(TABLE_DTYPE)
    return _direct_table(ring.add_vec, np.empty((n, n), dtype=TABLE_DTYPE) if out is None else out)


def _blocks(t: np.ndarray, s: np.ndarray, n: int):
    """A step's (t, s) blocks of about ``_GATHER_BLOCK`` entries in rows of n;
    a run of consecutive rows becomes a slice, which numpy reads as a view."""
    rows = max(1, _GATHER_BLOCK // n)
    run = s[-1] - s[0] == len(s) - 1 and (np.diff(t) == 1).all()
    for lo in range(0, len(t), rows):
        tb, sb = t[lo : lo + rows], s[lo : lo + rows]
        yield (slice(tb[0], tb[-1] + 1), slice(sb[0], sb[-1] + 1)) if run else (tb, sb)


def _operation_tables(table: TableRing) -> list[int] | None:
    """Fill the ``add`` and ``mul`` tables of ``table`` from its source, and
    return the additive generators when the build walked them.

    ``add`` is ``_table``'s, so that a product or a digit ring never calls
    its own ``add_vec``.  Up to ``_DIRECT_BUILD_CARD`` ``mul`` is evaluated
    on all pairs.  Above it the build walks ``table`` itself, whose
    ``add_vec`` reads the finished ``add`` table.  The k generators'
    products are one ``mul_vec`` call of k² pairs; their rows follow by left
    distributivity, g(s + h) = gs + gh, and every other row by right
    distributivity, mul[t] = add[mul[s], mul[h]], gathered in int32 blocks
    along the walk's steps (t, s, h).
    """
    source, n, add, mul = table.source, table.card, table._add, table._mul
    _table(source, "add", add)
    if n <= _DIRECT_BUILD_CARD:
        _direct_table(source.mul_vec, mul)
        return None
    _, gens, steps = additive_span(table, np.arange(n, dtype=np.int64))
    g, k = np.asarray(gens, dtype=np.int64), len(gens)
    flat = add.ravel()
    # the generators' rows as columns, so that their gathers read rows
    left = np.full((n, k), source.zero, dtype=TABLE_DTYPE)
    left[g] = source.mul_vec(g, g[:, None])
    for t, s, h in steps:
        left[t] = np.take(flat, left[s] * np.int32(n) + left[h])
    mul[source.zero] = source.zero
    mul[g] = left.T
    # one buffer holds every block's indices
    buffer = np.empty(max(1, _GATHER_BLOCK // n) * n, dtype=np.int32)
    for t, s, h in steps:
        for tb, sb in _blocks(t, s, n):
            rows = mul[sb]
            block = np.multiply(rows, np.int32(n), out=buffer[: rows.size].reshape(rows.shape))
            block += mul[h]
            if isinstance(tb, slice):
                # "clip" (the indices are valid) lets take write into the view unbuffered
                np.take(flat, block, out=mul[tb], mode="clip")
            else:
                mul[tb] = np.take(flat, block)
    return gens


def additive_span(ring: Ring, seeds) -> tuple[np.ndarray, list[int], list]:
    """(mask, generators, steps) of the additive subgroup S spanned by
    ``seeds``, the one walk of the additive group.  Each generator g is the
    least seed not yet in S; it joins the reached set R, which then grows by
    the steps (t, s, h): the new elements t = s + h of R + h, for h = g, 2g,
    4g, ... while they add elements.  So h is reached before its step, and a
    table filled step by step holds row h when the step reads it.  Each
    generator at least doubles S, so there are at most log2|S|, and the
    subset sums of the generators and the steps' h cover S."""
    seeds = _as_index_array(seeds)
    reached = np.zeros(ring.card, dtype=bool)
    reached[ring.zero] = True
    gens, steps = [], []
    while True:
        open_ = seeds[~reached[seeds]]
        if not len(open_):
            return reached, gens, steps
        h = int(open_.min())
        gens.append(h)
        reached[h] = True
        while True:
            s = np.flatnonzero(reached)
            t = ring.add_vec(s, h)
            fresh = ~reached[t]
            if not fresh.any():
                break
            # h is reached, so the translate holds 2h at h's place
            double = int(t[np.searchsorted(s, h)])
            s, t = s[fresh], t[fresh]
            reached[t] = True
            steps.append((t, s, h))
            h = double


def additive_generators(ring: Ring) -> list[int]:
    """The ``additive_span`` generators of the whole carrier, walked once
    per ring and kept on it (rings are immutable)."""
    if ring._additive_generators is None:
        ring._additive_generators = additive_span(ring, np.arange(ring.card, dtype=np.int64))[1]
    return ring._additive_generators


class TableRing(Ring):
    """Operationally identical copy of a ring backed by ``TABLE_DTYPE``
    lookup tables, built by ``_operation_tables``: 4·card² bytes for ``add``
    and ``mul`` together.  The vector ops still return int64.  A card whose
    indices ``TABLE_DTYPE`` cannot hold is refused before any allocation."""

    def __init__(self, source: Ring) -> None:
        n = source.card
        if n > _TABLE_CARD:
            raise GuardError(n, _TABLE_CARD, what="table card")
        self.source = source
        self.card = n
        self.zero = source.zero
        self.one = source.one
        self.label = source.label
        self._neg = _table(source, "neg")
        # one allocation holds both tables, so they are freed as one block
        self._add, self._mul = np.empty((2, n, n), dtype=TABLE_DTYPE)
        self._additive_generators = _operation_tables(self)

    # direct lookups: the per-element paths call the scalar ops one by one
    def add(self, a: int, b: int) -> int:
        return int(self._add[self._check(a), self._check(b)])

    def neg(self, a: int) -> int:
        return int(self._neg[self._check(a)])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[self._check(a), self._check(b)])

    def add_vec(self, xs, ys) -> np.ndarray:
        return self._add[_as_index_array(xs), _as_index_array(ys)].astype(np.int64)

    def neg_vec(self, xs) -> np.ndarray:
        return self._neg[_as_index_array(xs)].astype(np.int64)

    def mul_vec(self, xs, ys) -> np.ndarray:
        return self._mul[_as_index_array(xs), _as_index_array(ys)].astype(np.int64)

    def sub_vec(self, xs, ys) -> np.ndarray:
        return self._add[_as_index_array(xs), self._neg[_as_index_array(ys)]].astype(np.int64)

    def format_element(self, a: int) -> str:
        return self.source.format_element(a)


def maybe_memoize(ring: Ring) -> Ring:
    """A ``TableRing`` of ``ring`` when its card is at most
    ``MEMO_THRESHOLD``, else the ring unchanged, as is a ``TableRing``.  A
    direct product is rebuilt on its factors' ``maybe_memoize`` under its
    own card as the guard, so it reads its invariants off their tables."""
    parts = ring.factors()
    if parts is None:
        return TableRing(ring) if ring.card <= MEMO_THRESHOLD and not isinstance(ring, TableRing) else ring
    tabled = tuple(map(maybe_memoize, parts))
    return ring if tabled == parts else type(ring)(*tabled, max_card=ring.card)


def ring_is_commutative(ring: Ring) -> bool:
    """Whether the additive generators commute pairwise.  The commutator
    [x, y] = xy - yx is additive in each argument, so that decides the
    whole ring with one ``mul_vec`` call, a column of the generators by
    their row: k**2 products, k = ``len(additive_generators(ring))``,
    whose table is symmetric exactly when the ring is commutative."""
    gens = np.asarray(additive_generators(ring), dtype=np.int64)
    table = ring.mul_vec(gens[:, None], gens)
    return bool(np.array_equal(table, table.T))


def check_ring_axioms(ring: Ring, max_card: int = 512) -> None:
    """Exhaustively verify the ring axioms; raise ``ValueError`` on failure.

    Builds throwaway operation tables, so it is quadratic in card and
    guarded accordingly.
    """
    n = ring.card
    if n > max_card:
        raise GuardError(n, max_card, what="axiom check card")
    if not (0 <= ring.zero < n and 0 <= ring.one < n):
        raise ValueError(f"{ring.label}: zero/one outside the carrier")
    if ring.zero == ring.one:
        raise ValueError(f"{ring.label}: zero equals one")

    ar = np.arange(n, dtype=np.int64)
    add, mul = (_direct_table(op, np.empty((n, n), dtype=np.int64)) for op in (ring.add_vec, ring.mul_vec))
    neg = ring.neg_vec(ar)

    for name, table in (("add", add), ("mul", mul)):
        if table.min() < 0 or table.max() >= n:
            raise ValueError(f"{ring.label}: {name} returned an index outside the carrier")
    if neg.min() < 0 or neg.max() >= n:
        raise ValueError(f"{ring.label}: neg returned an index outside the carrier")

    if not np.array_equal(add[ring.zero], ar):
        raise ValueError(f"{ring.label}: zero is not an additive identity")
    if not np.array_equal(add, add.T):
        raise ValueError(f"{ring.label}: addition is not commutative")
    if not np.all(add[ar, neg] == ring.zero):
        raise ValueError(f"{ring.label}: additive inverses missing")
    if not (np.array_equal(mul[ring.one], ar) and np.array_equal(mul[:, ring.one], ar)):
        raise ValueError(f"{ring.label}: one is not a multiplicative identity")

    for a in range(n):
        if not np.array_equal(add[add[a]], add[a][add]):
            raise ValueError(f"{ring.label}: addition is not associative (a={a})")
        if not np.array_equal(mul[mul[a]], mul[a][mul]):
            raise ValueError(f"{ring.label}: multiplication is not associative (a={a})")
        row = mul[a]
        if not np.array_equal(row[add], add[row[:, None], row[None, :]]):
            raise ValueError(f"{ring.label}: left distributivity fails (a={a})")
        col = mul[:, a]
        if not np.array_equal(col[add], add[col[:, None], col[None, :]]):
            raise ValueError(f"{ring.label}: right distributivity fails (a={a})")
