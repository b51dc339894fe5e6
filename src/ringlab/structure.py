"""Structural invariants of a finite ring.

Computes the unit group, nilpotents, idempotents, Jacobson radical,
center, the quotient by the radical, and the block fingerprint of a
semisimple ring, plus a record of classical ring-theoretic predicates.

Units and nilpotents come out of one orbit pass: in a finite ring an
element is a unit exactly when some positive power equals one, and all
powers of an element share its unit/nilpotent/neither status, so walking
power orbits with memoisation classifies the whole carrier in O(card)
multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Ring, Subset, is_nilpotent, ring_is_commutative
from .constructions import (
    DirectProduct,
    MatrixRing,
    QuotientRing,
    quotient_by_ideal,
)

_UNKNOWN, _UNIT, _NILPOTENT, _NEITHER = 0, 1, 2, 3

_JACOBSON_CHUNK = 256

DECOMPOSITION_KINDS = (
    "clean",
    "strongly_clean",
    "weakly_clean",
    "nil_clean",
    "strongly_nil_clean",
    "weakly_nil_clean",
)


#: (element, idempotent) pairs per step of the witness-rank pass; bounds
#: its temporaries without looping over idempotents in Python
_PAIR_CHUNK = 8192


class WitnessRanks(NamedTuple):
    """Per element a, the rank in ascending order of the first idempotent e
    with ``a - e`` in the target set (``plus``), the same with ``a - e``
    also commuting with e (``plus_strong``), and the first with ``a + e``
    in the target set (``minus``); ``missing`` (= |Id|) where none does."""

    plus: np.ndarray
    plus_strong: np.ndarray
    minus: np.ndarray
    missing: int


class RingData:
    """Lazily computed invariant cache attached to one ring."""

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self._status: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._idem_mask: np.ndarray | None = None
        self._jac_mask: np.ndarray | None = None
        self._center_mask: np.ndarray | None = None
        self._ranks: dict[bool, WitnessRanks] = {}

    # -- unit / nilpotent orbit pass ---------------------------------------
    def _orbit_status(self) -> np.ndarray:
        if self._status is not None:
            return self._status
        ring = self.ring
        parts = _product_parts(ring)
        if parts is not None:
            left, right = parts
            ls = ring_data(left)._orbit_status()
            rs = ring_data(right)._orbit_status()
            lu, ru = ls == _UNIT, rs == _UNIT
            ln, rn = ls == _NILPOTENT, rs == _NILPOTENT
            status = np.full(ring.card, _NEITHER, dtype=np.int8)
            status[(lu[:, None] & ru[None, :]).ravel()] = _UNIT
            status[(ln[:, None] & rn[None, :]).ravel()] = _NILPOTENT
            self._status = status
            return status
        if ring.card > 4096:
            fast = matrix_unit_nil_masks(ring)
            if fast is not None:
                unit_mask, nil_mask = fast
                status = np.full(ring.card, _NEITHER, dtype=np.int8)
                status[unit_mask] = _UNIT
                status[nil_mask] = _NILPOTENT
                self._status = status
                return status
        card = ring.card
        status = np.zeros(card, dtype=np.int8)
        status[ring.zero] = _NILPOTENT
        status[ring.one] = _UNIT
        mul = ring.mul
        for a in range(card):
            if status[a]:
                continue
            path = [a]
            seen = {a}
            x = a
            while True:
                x = mul(x, a)
                s = status[x]
                if s:
                    verdict = s
                    break
                if x in seen:
                    verdict = _NEITHER
                    break
                path.append(x)
                seen.add(x)
            for y in path:
                status[y] = verdict
        self._status = status
        return status

    @property
    def unit_mask(self) -> np.ndarray:
        return self._orbit_status() == _UNIT

    @property
    def nil_mask(self) -> np.ndarray:
        return self._orbit_status() == _NILPOTENT

    @property
    def inverses(self) -> np.ndarray:
        """Index of the inverse per unit, -1 elsewhere."""
        if self._inverses is not None:
            return self._inverses
        ring = self.ring
        parts = _product_parts(ring)
        if parts is not None:
            left, right = parts
            li = ring_data(left).inverses
            ri = ring_data(right).inverses
            inv = np.where(
                (li[:, None] >= 0) & (ri[None, :] >= 0),
                li[:, None] * right.card + ri[None, :],
                -1,
            ).ravel()
            self._inverses = inv
            return inv
        inv = np.full(ring.card, -1, dtype=np.int64)
        inv[ring.one] = ring.one
        units = np.flatnonzero(self.unit_mask)
        mul = ring.mul
        for a in units:
            a = int(a)
            if inv[a] >= 0:
                continue
            path = [a]
            x = mul(a, a)
            while x != ring.one:
                path.append(x)
                x = mul(x, a)
            k = len(path) + 1  # a**k == one
            for j, y in enumerate(path, start=1):
                if inv[y] < 0:
                    inv[y] = path[k - j - 1]
        self._inverses = inv
        return inv

    @property
    def idem_mask(self) -> np.ndarray:
        if self._idem_mask is None:
            ar = np.arange(self.ring.card, dtype=np.int64)
            self._idem_mask = self.ring.mul_vec(ar, ar) == ar
        return self._idem_mask

    @property
    def idem_indices(self) -> np.ndarray:
        return np.flatnonzero(self.idem_mask)

    @property
    def jacobson_mask(self) -> np.ndarray:
        """Left quasi-regularity: x with 1 - r*x a unit for every r."""
        if self._jac_mask is not None:
            return self._jac_mask
        ring = self.ring
        parts = _product_parts(ring)
        if parts is not None:
            left, right = parts
            lj = ring_data(left).jacobson_mask
            rj = ring_data(right).jacobson_mask
            self._jac_mask = (lj[:, None] & rj[None, :]).ravel()
            return self._jac_mask
        card = ring.card
        ar = np.arange(card, dtype=np.int64)
        unit = self.unit_mask
        one = ring.one
        cand = np.flatnonzero(unit[ring.sub_vec(one, ar)])
        mask = np.zeros(card, dtype=bool)
        for x in cand:
            x = int(x)
            ok = True
            for lo in range(0, card, _JACOBSON_CHUNK):
                rs = ar[lo : lo + _JACOBSON_CHUNK]
                if not unit[ring.sub_vec(one, ring.mul_vec(rs, x))].all():
                    ok = False
                    break
            if ok:
                mask[x] = True
        self._jac_mask = mask
        return mask

    @property
    def center_mask(self) -> np.ndarray:
        if self._center_mask is not None:
            return self._center_mask
        ring = self.ring
        parts = _product_parts(ring)
        if parts is not None:
            left, right = parts
            lc = ring_data(left).center_mask
            rc = ring_data(right).center_mask
            self._center_mask = (lc[:, None] & rc[None, :]).ravel()
            return self._center_mask
        cand = np.arange(ring.card, dtype=np.int64)
        for r in range(ring.card):
            keep = ring.mul_vec(cand, r) == ring.mul_vec(r, cand)
            cand = cand[keep]
        mask = np.zeros(ring.card, dtype=bool)
        mask[cand] = True
        self._center_mask = mask
        return mask

    # -- clean-family witness engine ------------------------------------------
    def witness_ranks(self, nil: bool) -> WitnessRanks:
        """Witness ranks for the nil-clean family (target set Nil) or, when
        ``nil`` is false, the clean family (target set U); cached."""
        cached = self._ranks.get(nil)
        if cached is None:
            cached = _witness_ranks(self, nil)
            self._ranks[nil] = cached
        return cached

    def witness_keys(self, kind: str, idx=slice(None)) -> np.ndarray:
        """Witness key of each element of ``idx`` for one decomposition kind:
        ``2*rank`` for ``a = rest + e``, ``2*rank + 1`` for ``a = rest - e``
        and ``2*|Id|`` when there is none.  Keys ascend in the fixed witness
        order, idempotents ascending with + before -.  Plain kinds read
        ``plus``, strongly kinds ``plus_strong``, weakly kinds both signs."""
        if kind not in DECOMPOSITION_KINDS:
            raise ValueError(f"unknown decomposition kind {kind!r}")
        ranks = self.witness_ranks("nil" in kind)
        if kind.startswith("strongly"):
            return 2 * ranks.plus_strong[idx]
        if kind.startswith("weakly"):
            return np.minimum(2 * ranks.plus[idx], 2 * ranks.minus[idx] + 1)
        return 2 * ranks.plus[idx]

    def decomposes(self, kind: str) -> np.ndarray:
        """Mask of the elements with a decomposition of the given kind."""
        missing = self.witness_ranks("nil" in kind).missing
        return self.witness_keys(kind) < 2 * missing


def _product_parts(ring: Ring) -> tuple[Ring, Ring] | None:
    if isinstance(ring, DirectProduct):
        return ring.left, ring.right
    return None


def matrix_unit_nil_masks(ring: Ring) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorised unit/nilpotent masks for matrix rings over a commutative
    base, or None when the shortcut does not apply.

    A matrix over a commutative ring is invertible exactly when its
    determinant is; nilpotency is decided by repeated squaring, since the
    nilpotency index never exceeds the card.
    """
    if not isinstance(ring, MatrixRing):
        return None
    base = ring.base
    if not ring_is_commutative(base):
        return None
    import itertools as _it

    k = ring.k
    ar = np.arange(ring.card, dtype=np.int64)
    mats = ring._mats(ar)
    det = np.full(ring.card, base.zero, dtype=np.int64)
    for perm in _it.permutations(range(k)):
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        term = mats[:, 0, perm[0]]
        for i in range(1, k):
            term = base.mul_vec(term, mats[:, i, perm[i]])
        if inversions % 2:
            term = base.neg_vec(term)
        det = base.add_vec(det, term)
    unit_mask = ring_data(base).unit_mask[det]
    power = ar.copy()
    squarings = max(1, int(np.ceil(np.log2(ring.card))))
    for _ in range(squarings):
        power = ring.mul_vec(power, power)
    nil_mask = power == ring.zero
    return unit_mask, nil_mask


def ring_data(ring: Ring) -> RingData:
    data = getattr(ring, "_ringlab_data", None)
    if data is None:
        data = RingData(ring)
        ring._ringlab_data = data
    return data


def _witness_ranks(data: RingData, nil: bool) -> WitnessRanks:
    """One vectorised pass over the pairs (r, e) of a target r and an
    idempotent e of rank i: ``np.minimum.at`` writes i at r + e into
    ``plus`` (and ``plus_strong`` when r*e = e*r) and at r - e into
    ``minus``.  For a fixed e both maps are bijections, so each element
    keeps the lowest rank that reaches it.

    A direct product combines its factors' ranks sign by sign: (a, b)
    decomposes with e = (f, g) exactly when a does with f and b with g, so
    the first such e has rank ``l*|Id(right)| + r``."""
    ring = data.ring
    parts = _product_parts(ring)
    if parts is not None:
        lr, rr = (ring_data(p).witness_ranks(nil) for p in parts)
        missing = lr.missing * rr.missing
        combined = []
        for l, r in zip(lr[:3], rr[:3]):
            hit = (l < lr.missing)[:, None] & (r < rr.missing)[None, :]
            combined.append(
                np.where(hit, l[:, None] * rr.missing + r[None, :], missing).ravel()
            )
        return WitnessRanks(*combined, missing)
    idem = data.idem_indices
    targets = np.flatnonzero(data.nil_mask if nil else data.unit_mask)
    missing = len(idem)
    plus = np.full(ring.card, missing, dtype=np.int64)
    plus_strong = plus.copy()
    minus = plus.copy()
    neg_idem = ring.neg_vec(idem)
    total = len(targets) * missing
    for lo in range(0, total, _PAIR_CHUNK):
        rank, t = np.divmod(np.arange(lo, min(lo + _PAIR_CHUNK, total)), len(targets))
        r = targets[t]
        a = ring.add_vec(r, idem[rank])
        np.minimum.at(plus, a, rank)
        np.minimum.at(minus, ring.add_vec(r, neg_idem[rank]), rank)
        # ranks ascend from chunk to chunk, so an element that already has a
        # commuting witness keeps it: test commutation only for the others
        open_ = plus_strong[a] == missing
        r, a, rank = r[open_], a[open_], rank[open_]
        e = idem[rank]
        commuting = ring.mul_vec(r, e) == ring.mul_vec(e, r)
        np.minimum.at(plus_strong, a[commuting], rank[commuting])
    return WitnessRanks(plus, plus_strong, minus, missing)


# ---------------------------------------------------------------------------
# public subset accessors


def units(ring: Ring) -> Subset:
    """All elements with a two-sided inverse (one-sided suffices in a
    finite ring: ab = 1 forces ba = 1)."""
    return Subset(ring, ring_data(ring).unit_mask.copy())


def unit_inverses(ring: Ring) -> np.ndarray:
    """Inverse index per element, -1 for non-units."""
    return ring_data(ring).inverses.copy()


def nilpotents(ring: Ring) -> Subset:
    return Subset(ring, ring_data(ring).nil_mask.copy())


def idempotents(ring: Ring) -> Subset:
    return Subset(ring, ring_data(ring).idem_mask.copy())


def jacobson(ring: Ring) -> Subset:
    return Subset(ring, ring_data(ring).jacobson_mask.copy())


def center(ring: Ring) -> Subset:
    return Subset(ring, ring_data(ring).center_mask.copy())


def is_nil_subset(ring: Ring, subset: Subset) -> bool:
    if subset.ring is not ring:
        raise ValueError("subset belongs to a different ring")
    return bool(np.all(~subset.mask | ring_data(ring).nil_mask))


def nilpotency_index(ring: Ring, a: int) -> int | None:
    ok, k = is_nilpotent(ring, a)
    return k if ok else None


def mod_j(ring: Ring) -> QuotientRing:
    """Quotient by the Jacobson radical, with its projection map."""
    return quotient_by_ideal(ring, jacobson(ring), label=f"MODJ({ring.label})")


# ---------------------------------------------------------------------------
# Wedderburn fingerprint


@dataclass(frozen=True)
class WedderburnFingerprint:
    """Multiset of (matrix size, field order) blocks of a finite semisimple
    ring; complete up to isomorphism by Artin-Wedderburn plus Wedderburn's
    little theorem."""

    blocks: tuple[tuple[int, int], ...]

    def card(self) -> int:
        out = 1
        for n, q in self.blocks:
            out *= q ** (n * n)
        return out

    def as_lists(self) -> list[list[int]]:
        return [[n, q] for n, q in self.blocks]

    def __str__(self) -> str:
        inner = ", ".join(f"({n},{q})" for n, q in self.blocks)
        return "{" + inner + "}"


def wedderburn_fingerprint(ring: Ring) -> WedderburnFingerprint:
    """Block fingerprint of a semisimple ring via its primitive central
    idempotents; raises for rings with a nonzero radical."""
    data = ring_data(ring)
    jmask = data.jacobson_mask
    if int(jmask.sum()) != 1:
        raise ValueError(
            f"{ring.label} has a nonzero Jacobson radical; fingerprint its mod-j quotient"
        )
    central = data.idem_mask & data.center_mask
    central[ring.zero] = False
    cidx = [int(i) for i in np.flatnonzero(central)]
    primitive = []
    for e in cidx:
        minimal = True
        for f in cidx:
            if f != e and ring.mul(f, e) == f:  # f <= e and f nonzero
                minimal = False
                break
        if minimal:
            primitive.append(e)
    ar = np.arange(ring.card, dtype=np.int64)
    blocks = []
    for e in primitive:
        corner = np.unique(ring.mul_vec(ring.mul_vec(e, ar), e))
        bcard = len(corner)
        if e == ring.one:
            q = int(data.center_mask.sum())
        else:
            q = 0
            for x in corner:
                x = int(x)
                if np.array_equal(ring.mul_vec(x, corner), ring.mul_vec(corner, x)):
                    q += 1
        n = 1
        while q ** (n * n) < bcard:
            n += 1
        if q ** (n * n) != bcard:
            raise ValueError(
                f"block of {ring.label} at idempotent {e} has card {bcard}, "
                f"not a square power of its center order {q}"
            )
        blocks.append((n, q))
    fp = WedderburnFingerprint(tuple(sorted(blocks)))
    if fp.card() != ring.card:
        raise ValueError(f"fingerprint blocks of {ring.label} do not multiply to card")
    return fp


# ---------------------------------------------------------------------------
# classical predicates


@dataclass(frozen=True)
class StructuralFlags:
    """Record of classical ring-theoretic predicates, each decided by
    exhaustive scan over the carrier."""

    commutative: bool
    local: bool
    abelian: bool
    reduced: bool
    boolean: bool
    ni: bool
    nr: bool
    two_primal: bool
    regular: bool
    strongly_regular: bool
    exchange: bool
    weakly_exchange: bool
    semipotent: bool
    strongly_pi_regular: bool
    semisimple: bool
    semilocal: bool
    uu: bool
    wuu: bool
    uwnc: bool
    notes: tuple[str, ...] = field(default=())

    def as_dict(self) -> dict[str, bool]:
        d = {
            k: getattr(self, k)
            for k in (
                "commutative", "local", "abelian", "reduced", "boolean",
                "ni", "nr", "two_primal", "regular", "strongly_regular",
                "exchange", "weakly_exchange", "semipotent",
                "strongly_pi_regular", "semisimple", "semilocal",
                "uu", "wuu", "uwnc",
            )
        }
        return d


STRUCTURAL_NOTES = (
    "semilocal: every finite ring is artinian, hence semilocal",
    "two_primal: the prime radical is identified with the Jacobson radical, "
    "valid for finite rings where J is nilpotent",
)


#: the predicate scan under its record name; it lives in ``core`` because
#: the constructions need it too
is_commutative = ring_is_commutative


def is_local(ring: Ring) -> bool:
    """Non-units form an ideal, equivalently the complement of the units
    equals the Jacobson radical."""
    data = ring_data(ring)
    return bool(np.array_equal(~data.unit_mask, data.jacobson_mask))


def is_abelian_ring(ring: Ring) -> bool:
    data = ring_data(ring)
    return bool(np.all(~data.idem_mask | data.center_mask))


def is_reduced(ring: Ring) -> bool:
    return int(ring_data(ring).nil_mask.sum()) == 1


def is_boolean_ring(ring: Ring) -> bool:
    return bool(ring_data(ring).idem_mask.all())


def is_semisimple(ring: Ring) -> bool:
    return int(ring_data(ring).jacobson_mask.sum()) == 1


def _nil_closure_flags(ring: Ring) -> tuple[bool, bool]:
    """(NI, NR): whether Nil(R) is an ideal / a subring."""
    data = ring_data(ring)
    nil = data.nil_mask
    nidx = np.flatnonzero(nil)
    ar = np.arange(ring.card, dtype=np.int64)
    ni = True
    nr = True
    for i in nidx:
        i = int(i)
        if not nil[ring.add_vec(nidx, i)].all():
            return False, False  # additive closure fails both
        if nr and not nil[ring.mul_vec(nidx, i)].all():
            nr = False
        if ni and not (
            nil[ring.mul_vec(ar, i)].all() and nil[ring.mul_vec(i, ar)].all()
        ):
            ni = False
        if not ni and not nr:
            break
    return ni, nr


def is_regular(ring: Ring) -> bool:
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        if not (ring.mul_vec(ring.mul_vec(a, ar), a) == a).any():
            return False
    return True


def is_strongly_regular(ring: Ring) -> bool:
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        a2 = ring.mul(a, a)
        if not (ring.mul_vec(a2, ar) == a).any():
            return False
    return True


def _exchange_flags(ring: Ring) -> tuple[bool, bool]:
    """(exchange, weakly exchange) by the idempotent-in-aR definitions."""
    data = ring_data(ring)
    idem = data.idem_mask
    ar = np.arange(ring.card, dtype=np.int64)
    one = ring.one
    exchange = True
    weakly = True
    for a in range(ring.card):
        aR = ring.mul_vec(a, ar)
        es = np.unique(aR[idem[aR]])
        if len(es) == 0:
            return False, False
        one_minus_es = ring.sub_vec(one, es)
        m_minus = np.zeros(ring.card, dtype=bool)
        m_minus[ring.mul_vec(ring.sub(one, a), ar)] = True
        ok_minus = m_minus[one_minus_es]
        if exchange and not ok_minus.any():
            exchange = False
        if weakly:
            m_plus = np.zeros(ring.card, dtype=bool)
            m_plus[ring.mul_vec(ring.add(one, a), ar)] = True
            if not (ok_minus | m_plus[one_minus_es]).any():
                weakly = False
        if not exchange and not weakly:
            break
    return exchange, weakly


def is_semipotent(ring: Ring) -> bool:
    """Checked over principal one-sided ideals: any one-sided ideal not
    inside J contains some a outside J, and then aR (or Ra) sits inside it."""
    data = ring_data(ring)
    jac = data.jacobson_mask
    idem_nonzero = data.idem_mask.copy()
    idem_nonzero[ring.zero] = False
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        if jac[a]:
            continue
        if not idem_nonzero[ring.mul_vec(a, ar)].any():
            return False
        if not idem_nonzero[ring.mul_vec(ar, a)].any():
            return False
    return True


def is_strongly_pi_regular(ring: Ring) -> bool:
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        x = a  # a**n
        for _ in range(ring.card):
            xnext = ring.mul(x, a)  # a**(n+1)
            if (ring.mul_vec(xnext, ar) == x).any():
                break
            x = xnext
        else:
            return False
    return True


def is_uu(ring: Ring) -> bool:
    """Units are unipotent: U(R) inside 1 + Nil(R)."""
    data = ring_data(ring)
    uidx = np.flatnonzero(data.unit_mask)
    return bool(data.nil_mask[ring.sub_vec(uidx, ring.one)].all())


def is_wuu(ring: Ring) -> bool:
    """U(R) equals Nil(R) +- 1 as sets."""
    data = ring_data(ring)
    nidx = np.flatnonzero(data.nil_mask)
    mask = np.zeros(ring.card, dtype=bool)
    mask[ring.add_vec(nidx, ring.one)] = True
    mask[ring.sub_vec(nidx, ring.one)] = True
    return bool(np.array_equal(mask, data.unit_mask))


def is_uwnc(ring: Ring) -> bool:
    """Every unit is weakly nil-clean."""
    data = ring_data(ring)
    return bool(data.decomposes("weakly_nil_clean")[data.unit_mask].all())


def structural_predicates(ring: Ring) -> StructuralFlags:
    """Decide every classical predicate exhaustively; ``semilocal`` is
    constantly true here and carries an explanatory note."""
    data = ring_data(ring)
    ni, nr = _nil_closure_flags(ring)
    exchange, weakly_exchange = _exchange_flags(ring)
    return StructuralFlags(
        commutative=is_commutative(ring),
        local=is_local(ring),
        abelian=is_abelian_ring(ring),
        reduced=is_reduced(ring),
        boolean=is_boolean_ring(ring),
        ni=ni,
        nr=nr,
        two_primal=bool(np.array_equal(data.jacobson_mask, data.nil_mask)),
        regular=is_regular(ring),
        strongly_regular=is_strongly_regular(ring),
        exchange=exchange,
        weakly_exchange=weakly_exchange,
        semipotent=is_semipotent(ring),
        strongly_pi_regular=is_strongly_pi_regular(ring),
        semisimple=is_semisimple(ring),
        semilocal=True,
        uu=is_uu(ring),
        wuu=is_wuu(ring),
        uwnc=is_uwnc(ring),
        notes=STRUCTURAL_NOTES,
    )
