"""Finite rings as indexed carriers with exact integer arithmetic.

A ring lives on the carrier ``0 .. card-1``; elements are plain ints and
are meaningful only relative to the ring that produced them.  Every ring
exposes scalar ``add``/``neg``/``mul`` plus numpy-vectorised variants that
the bulk scans are built on.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

DEFAULT_MAX_CARD = 200_000
DEFAULT_MEMO_THRESHOLD = 2048

MAX_CARD_ENV = "RINGLAB_MAX_CARD"
MEMO_THRESHOLD_ENV = "RINGLAB_MEMO_THRESHOLD"


class GuardError(ValueError):
    """A construction or table would exceed the configured size guard."""

    def __init__(self, required: int, limit: int, what: str = "card"):
        self.required = required
        self.limit = limit
        self.what = what
        super().__init__(f"{what} {required} exceeds guard {limit}")


class ConstructionError(ValueError):
    """A construction precondition failed (closure, centrality, ideal, ...)."""


class SettingError(ValueError):
    """An environment setting does not parse."""


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise SettingError(f"{name} must be an integer, got {raw!r}") from None


def default_max_card() -> int:
    return _env_int(MAX_CARD_ENV, DEFAULT_MAX_CARD)


def default_memo_threshold() -> int:
    return _env_int(MEMO_THRESHOLD_ENV, DEFAULT_MEMO_THRESHOLD)


def check_guard(required: int, max_card: int | None, what: str = "card") -> int:
    """Raise :class:`GuardError` when ``required`` exceeds the active guard."""
    limit = default_max_card() if max_card is None else max_card
    if required > limit:
        raise GuardError(required, limit, what)
    return required


def _as_index_array(xs) -> np.ndarray:
    return np.atleast_1d(np.asarray(xs, dtype=np.int64))


def _pair(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = np.broadcast_arrays(_as_index_array(xs), _as_index_array(ys))
    return xs, ys


class Ring:
    """A finite unital ring on the carrier ``0 .. card-1``.

    Required invariants: (carrier, add, neg, zero) is an abelian group,
    ``mul`` is associative with identity ``one``, multiplication
    distributes over addition on both sides, and ``zero != one``.
    ``check_ring_axioms`` verifies all of that exhaustively for small
    cards.
    """

    card: int
    zero: int
    one: int
    label: str

    # -- scalar operations -------------------------------------------------
    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def power(self, a: int, k: int) -> int:
        """``a**k`` by iterated multiplication; ``a**0`` is ``one``."""
        if k < 0:
            raise ValueError(f"exponent must be >= 0, got {k}")
        self._check(a)
        acc = self.one
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    def elements(self) -> range:
        return range(self.card)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.card:
            raise IndexError(f"element index {a} out of range for {self.label}")
        return a

    # -- vectorised operations ----------------------------------------------
    # Inputs broadcast like numpy arrays and are assumed to be valid indices.
    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return np.fromiter(
            (self.add(int(x), int(y)) for x, y in zip(xs, ys)),
            dtype=np.int64,
            count=len(xs),
        )

    def neg_vec(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        return np.fromiter(
            (self.neg(int(x)) for x in xs), dtype=np.int64, count=len(xs)
        )

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return np.fromiter(
            (self.mul(int(x), int(y)) for x, y in zip(xs, ys)),
            dtype=np.int64,
            count=len(xs),
        )

    def sub_vec(self, xs, ys) -> np.ndarray:
        return self.add_vec(xs, self.neg_vec(_as_index_array(ys)))

    # -- presentation --------------------------------------------------------
    def format_element(self, a: int) -> str:
        return str(a)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} card={self.card}>"


def is_nilpotent(ring: Ring, a: int) -> tuple[bool, int | None]:
    """Decide nilpotency of ``a`` and return the least exponent when it is.

    Walks successive powers recording seen values and stops at zero
    (nilpotent) or at the first repeat (not), so it terminates within
    ``card`` steps without assuming anything about the ring.
    """
    ring._check(a)
    seen: set[int] = set()
    x = a
    k = 1
    while True:
        if x == ring.zero:
            return True, k
        if x in seen:
            return False, None
        seen.add(x)
        x = ring.mul(x, a)
        k += 1


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

    @classmethod
    def from_indices(cls, ring: Ring, indices: Iterable[int]) -> "Subset":
        mask = np.zeros(ring.card, dtype=bool)
        for i in indices:
            mask[ring._check(int(i))] = True
        return cls(ring, mask)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, a: int) -> bool:
        return bool(self.mask[self.ring._check(int(a))])

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __iter__(self) -> Iterator[int]:
        return (int(i) for i in np.flatnonzero(self.mask))

    def union(self, other: "Subset") -> "Subset":
        self._same_ring(other)
        return Subset(self.ring, self.mask | other.mask)

    def intersection(self, other: "Subset") -> "Subset":
        self._same_ring(other)
        return Subset(self.ring, self.mask & other.mask)

    def complement(self) -> "Subset":
        return Subset(self.ring, ~self.mask)

    def issubset(self, other: "Subset") -> bool:
        self._same_ring(other)
        return bool(np.all(~self.mask | other.mask))

    def _same_ring(self, other: "Subset") -> None:
        if other.ring is not self.ring:
            raise ValueError("subsets belong to different rings")

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


class TableRing(Ring):
    """Operationally identical copy of a ring backed by lookup tables."""

    def __init__(self, source: Ring) -> None:
        n = source.card
        self.source = source
        self.card = n
        self.zero = source.zero
        self.one = source.one
        self.label = source.label
        ar = np.arange(n, dtype=np.int64)
        left = np.repeat(ar, n)
        right = np.tile(ar, n)
        self._add = source.add_vec(left, right).astype(np.int32).reshape(n, n)
        self._mul = source.mul_vec(left, right).astype(np.int32).reshape(n, n)
        self._neg = source.neg_vec(ar).astype(np.int32)

    def add(self, a: int, b: int) -> int:
        return int(self._add[self._check(a), self._check(b)])

    def neg(self, a: int) -> int:
        return int(self._neg[self._check(a)])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[self._check(a), self._check(b)])

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return self._add[xs, ys].astype(np.int64)

    def neg_vec(self, xs) -> np.ndarray:
        return self._neg[_as_index_array(xs)].astype(np.int64)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return self._mul[xs, ys].astype(np.int64)

    def format_element(self, a: int) -> str:
        return self.source.format_element(a)


def memoize(ring: Ring, threshold: int | None = None) -> Ring:
    """Return a table-backed ring with unchanged observable behaviour.

    Refuses rings whose card exceeds the threshold (default 2048,
    overridable via ``RINGLAB_MEMO_THRESHOLD``); the caller then keeps
    using the computed ring.
    """
    limit = default_memo_threshold() if threshold is None else threshold
    if ring.card > limit:
        raise GuardError(ring.card, limit, what="memo table card")
    if isinstance(ring, TableRing):
        return ring
    return TableRing(ring)


def maybe_memoize(ring: Ring, threshold: int | None = None) -> Ring:
    """``memoize`` when the threshold allows it, else the ring unchanged."""
    limit = default_memo_threshold() if threshold is None else threshold
    if ring.card > limit:
        return ring
    if isinstance(ring, TableRing):
        return ring
    return TableRing(ring)


def ring_is_commutative(ring: Ring) -> bool:
    ar = np.arange(ring.card, dtype=np.int64)
    for r in range(ring.card):
        if not np.array_equal(ring.mul_vec(r, ar), ring.mul_vec(ar, r)):
            return False
    return True


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
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        add[a] = ring.add_vec(a, ar)
        mul[a] = ring.mul_vec(a, ar)
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
