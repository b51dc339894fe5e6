"""Structural invariants of a finite ring.

Computes the unit group, nilpotents, idempotents, Jacobson radical,
center, the quotient by the radical, and the block fingerprint of a
semisimple ring, plus a record of classical ring-theoretic predicates.

A ring squares its carrier once (``RingData.square``): the idempotents
are the fixed points of a -> a**2, and the status pass and the images
a -+ a**2 read it too.  Units and nilpotents come out of one vectorised
propagation pass: all powers of an element share its
unit/nilpotent/neither status, and they hold exactly one idempotent (one
for a unit, zero for a nilpotent), so every element walks its powers, all
of them in one array with walks that double per round, and stops at the
first power whose status is known or that lies below it in index order
and walks itself.  Each round multiplies for the odd powers only and reads
the even ones a**(2m) = (a**m)**2 off the square.  Only the least element
of an orbit walks all of it, so a cyclic unit group of order q costs about
card * log(card) products, not q * card.

The center and commutativity are decided on the additive generators of
``core.additive_generators`` (at most log2(card) of them), because the
commutator [x, r] is additive in r.  J is nil and contains every nil left
ideal (Lam, *A First Course in Noncommutative Rings*, §4), so only the
nilpotents are tested for left quasi-regularity, and only against the
nilpotent rows (``RingData._left_quasi_regular``).  A commutative ring
tests none: its nilpotents are the nilradical, which is J.

The report flags that ask for commuting decompositions or for units
near +-1 read Nil(R) at a fixed polynomial image of every element
(``RingData.nil_at``): a is strongly nil-clean exactly when a - a**2 is
nilpotent (Diesl 2013, *Nil clean rings*, J. Algebra 383), -a exactly when
a + a**2 is, and a lies in Nil(R) +- 1 exactly when a -+ 1 is nilpotent.

The flags of the nil-clean and weakly nil-clean kinds read two masks,
Nil(R) + Id(R) and Nil(R) - Id(R), off one sign pass over the (nilpotent,
idempotent) pairs (``RingData.nil_signs``), the second read off the first
at the negatives.  The witnesses of single elements come from
``decompositions.idempotent_scan``.  A direct product reads its status and
masks off its factors' through one rule, ``RingData._product``, and the
centrality and J membership of one element through another,
``RingData._factorwise``.

Each classical predicate of ``structural_predicates`` has one decider, an
identity of finite rings read off the masks, never a pass over the
carrier: regular is semisimple, strongly regular is semisimple and
reduced, and semipotent and strongly pi-regular always hold.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import Ring, Subset, additive_generators, ring_is_commutative
from .constructions import QuotientRing, quotient_by_ideal

_UNKNOWN, _UNIT, _NILPOTENT, _NEITHER = 0, 1, 2, 3

#: the polynomial images p(a) at which ``RingData.nil_at`` reads Nil(R)
NIL_IMAGES = ("a-1", "a+1", "a-a^2", "a+a^2")

#: pairs per step, at least one row, of the sign pass (idempotent rows
#: against all nilpotents) and of the J test (nilpotent rows against all
#: open candidates), passed as a column and a row that broadcast.  Bounds
#: their temporaries without a Python loop over idempotents or candidates.
#: 4096 and 16384 took as long as 8192 on M(3,Z(4))
_PAIR_CHUNK = 8192


class RingData:
    """Lazily computed invariant cache attached to one ring."""

    def __init__(self, ring: Ring) -> None:
        # held weakly: the ring holds this cache, so a strong reference back
        # would keep a dropped ring and its tables alive until the cyclic GC
        self._ring = weakref.ref(ring)
        self._status: np.ndarray | None = None
        self._square: np.ndarray | None = None
        self._idem_mask: np.ndarray | None = None
        self._idem_indices: np.ndarray | None = None
        self._jac_mask: np.ndarray | None = None
        self._center_mask: np.ndarray | None = None
        self._commutative: bool | None = None
        self._nil_signs: np.ndarray | None = None
        self._nil_images: np.ndarray | None = None

    def _product(self, read, combine=np.logical_and) -> np.ndarray | None:
        """For a direct product L x R, ``combine`` of the arrays ``read``
        gives on L's data, a column, and on R's, a row, flat so that the
        pair (l, r) sits at index l * |R| + r of the last axis; a leading
        axis, a stack of arrays read together, is kept.  None when the
        ring is no direct product."""
        parts = self._ring().factors()
        if parts is None:
            return None
        left, right = (read(ring_data(p)) for p in parts)
        out = combine(left[..., :, None], right[..., None, :])
        return out.reshape(*out.shape[:-2], -1)

    def _factorwise(self, a: int, holds) -> bool | None:
        """For a direct product L x R, whether ``holds(data, x)`` is true on
        both components of a = l·|R| + r, each asked of its factor's data.
        None when the ring is no direct product."""
        parts = self._ring().factors()
        if parts is None:
            return None
        left, right = parts
        l, r = divmod(a, right.card)
        return holds(ring_data(left), l) and holds(ring_data(right), r)

    # -- unit / nilpotent pass ----------------------------------------------
    @property
    def square(self) -> np.ndarray:
        """a -> a**2 over the carrier, one ``mul_vec`` call, cached: the
        idempotents, the even powers of the status pass and the images
        a -+ a**2 all read it.  A direct product reads those off its factors'
        and never forms it."""
        if self._square is None:
            ar = np.arange(self._ring().card, dtype=np.int64)
            self._square = self._ring().mul_vec(ar, ar)
        return self._square

    def _orbit_status(self) -> np.ndarray:
        if self._status is not None:
            return self._status
        # a pair is a unit, or nilpotent, exactly when both parts are
        self._status = self._product(
            RingData._orbit_status, lambda l, r: np.where(l == r, l, _NEITHER)
        )
        if self._status is not None:
            return self._status
        ring = self._ring()
        square = self.square
        status = np.zeros(ring.card, dtype=np.int8)
        # the powers of a share its status and hold exactly one idempotent:
        # one for a unit, zero for a nilpotent and another one for neither
        status[self.idem_mask] = _NEITHER
        status[ring.zero] = _NILPOTENT
        status[ring.one] = _UNIT
        # so every other element a walks its powers until one has a status
        # or lies below a in index order; that power walks itself and a
        # waits on it, so only the least element of an orbit walks all of
        # it.  Walks double per round: with a**1..a**k held, k a power of
        # 2, the odd a**(k+1), a**(k+3), .. are a**k * a**(1, 3, ..) and the
        # even a**(k+2), .., a**(2k) the squares of a**(k/2+1..k), read off
        # ``square``; the first round is a**2 alone.  ``stop_at`` keeps the
        # power where the walk of a stopped.
        a = np.flatnonzero(status == _UNKNOWN)
        powers = a[:, None]
        stop_at = np.empty(ring.card, dtype=np.int64)
        while len(a):
            k = powers.shape[1]
            if k == 1:
                block = square[powers]
            else:
                block = np.empty_like(powers)
                block[:, 0::2] = ring.mul_vec(powers[:, -1:], powers[:, 0::2])
                block[:, 1::2] = square[powers[:, k // 2 :]]
            stop = (status[block] != _UNKNOWN) | (block < a[:, None])
            done = stop.any(axis=1)
            at = stop[done].argmax(axis=1)
            stopped, t = a[done], block[done, at]
            status[stopped] = status[t]
            stop_at[stopped] = t
            a, powers = a[~done], np.concatenate((powers[~done], block[~done]), axis=1)
        waiting = np.flatnonzero(status == _UNKNOWN)
        while len(waiting):
            found = status[stop_at[waiting]]
            status[waiting] = found
            waiting = waiting[found == _UNKNOWN]
            stop_at[waiting] = stop_at[stop_at[waiting]]
        self._status = status
        return status

    @property
    def unit_mask(self) -> np.ndarray:
        return self._orbit_status() == _UNIT

    @property
    def nil_mask(self) -> np.ndarray:
        return self._orbit_status() == _NILPOTENT

    @property
    def idem_mask(self) -> np.ndarray:
        if self._idem_mask is None:
            mask = self._product(lambda d: d.idem_mask)
            if mask is None:
                mask = self.square == np.arange(self._ring().card)
            self._idem_mask = mask
        return self._idem_mask

    @property
    def idem_indices(self) -> np.ndarray:
        """The idempotents ascending; the witness code reads their count and
        ranks on every call, so they are kept."""
        if self._idem_indices is None:
            self._idem_indices = np.flatnonzero(self.idem_mask)
        return self._idem_indices

    @property
    def jacobson_mask(self) -> np.ndarray:
        """J(R) as the nilpotents x with 1 - r*x a unit for every r.  J is
        nil and contains every nil left ideal (Lam, *A First Course in
        Noncommutative Rings*, §4), so only the nilpotents are candidates,
        all tested together by ``_left_quasi_regular`` against the
        nilpotent rows.  A commutative ring forms no product: its
        nilpotents are the nilradical, which is J, because every prime
        ideal of an Artin ring is maximal (Atiyah-Macdonald, ch. 8)."""
        if self._jac_mask is None:
            mask = self._product(lambda d: d.jacobson_mask)
            if mask is None:
                if self.commutative:
                    mask = self.nil_mask
                else:
                    mask = np.zeros(self._ring().card, dtype=bool)
                    mask[self._left_quasi_regular(np.flatnonzero(self.nil_mask))] = True
            self._jac_mask = mask
        return self._jac_mask

    def left_quasi_regular(self, x: int) -> bool:
        """Whether x lies in J: J(L x R) = J(L) x J(R), so a pair does
        exactly when both parts do.  Otherwise only a nilpotent can (J is
        nil), every one of them in a commutative ring (J = Nil there), else
        tested by ``_left_quasi_regular``."""
        inside = self._factorwise(x, RingData.left_quasi_regular)
        if inside is None:
            inside = bool(self.nil_mask[x]) and (
                self.commutative
                or len(self._left_quasi_regular(np.array([x], dtype=np.int64))) == 1
            )
        return inside

    def _left_quasi_regular(self, cand: np.ndarray) -> np.ndarray:
        """The nilpotent candidates x with 1 - r*x a unit for every
        nilpotent r, which are exactly those in J.  A nilpotent x outside J
        has a nonzero nilpotent image N in a block M_n(F_q) of R/J; with N =
        P·E·P^-1, E in Jordan form, r' = P·E^T·P^-1 is nilpotent and r'·N a
        nonzero idempotent, so 1 - r'·N is no unit, and every lift r of r'
        is nilpotent (J is nilpotent) with 1 - r*x no unit.  All open
        candidates meet a block of nilpotent rows r in one ``mul_vec`` of
        about ``_PAIR_CHUNK`` pairs; a candidate leaves at its first
        failure, and the walk stops when none is left, so it costs at most
        len(cand) * |Nil| products."""
        ring = self._ring()
        status = self._orbit_status()
        rows = np.flatnonzero(status == _NILPOTENT)
        lo = 0
        while len(cand) and lo < len(rows):
            rs = rows[lo : lo + max(1, _PAIR_CHUNK // len(cand))]
            rx = ring.mul_vec(rs[:, None], cand)
            unit = status[ring.sub_vec(ring.one, rx)] == _UNIT
            cand = cand[unit.all(axis=0)]
            lo += len(rs)
        return cand

    @property
    def commutative(self) -> bool:
        """``ring_is_commutative``, decided once: the center and the
        structural record both read it."""
        if self._commutative is None:
            self._commutative = ring_is_commutative(self._ring())
        return self._commutative

    def is_central(self, a: int) -> bool:
        """Whether a commutes with every element: Z(L x R) = Z(L) x Z(R), so
        a pair does exactly when both parts do.  Otherwise a*r and r*a are
        compared over the carrier, two ``mul_vec`` calls, which on a small
        ring costs less than the generator walk of ``center_mask``."""
        central = self._factorwise(a, RingData.is_central)
        if central is None:
            ar = np.arange(self._ring().card, dtype=np.int64)
            central = bool(np.array_equal(self._ring().mul_vec(a, ar), self._ring().mul_vec(ar, a)))
        return central

    @property
    def center_mask(self) -> np.ndarray:
        """Z(R) as the elements commuting with every additive generator:
        [x, r] is additive in r, so that is 2k ``mul_vec`` calls of at most
        card products, k = ``len(additive_generators(ring))``.  A
        commutative ring, decided on the k**2 generator products, is its own
        center and forms none of them."""
        if self._center_mask is None:
            mask = self._product(lambda d: d.center_mask)
            if mask is None:
                ring = self._ring()
                if self.commutative:
                    mask = np.ones(ring.card, dtype=bool)
                else:
                    cand = np.arange(ring.card, dtype=np.int64)
                    for g in additive_generators(ring):
                        cand = cand[ring.mul_vec(cand, g) == ring.mul_vec(g, cand)]
                    mask = np.zeros(ring.card, dtype=bool)
                    mask[cand] = True
            self._center_mask = mask
        return self._center_mask

    def nil_at(self, image: str) -> np.ndarray:
        """Mask of the elements a whose image p(a), one of ``NIL_IMAGES``,
        is nilpotent."""
        return self.nil_images()[NIL_IMAGES.index(image)]

    def nil_images(self) -> np.ndarray:
        """The masks of ``nil_at`` stacked in ``NIL_IMAGES`` order, computed
        together (four sums over the carrier and ``square``) and cached.
        p acts componentwise and so does nilpotency, so a direct product
        combines its factors' masks."""
        if self._nil_images is None:
            stack = self._product(RingData.nil_images)
            if stack is None:
                ring = self._ring()
                a = np.arange(ring.card, dtype=np.int64)
                stack = self.nil_mask[np.stack((
                    ring.sub_vec(a, ring.one),
                    ring.add_vec(a, ring.one),
                    ring.sub_vec(a, self.square),
                    ring.add_vec(a, self.square),
                ))]
            self._nil_images = stack
        return self._nil_images

    # -- nil-clean flags ----------------------------------------------------
    def nil_signs(self) -> np.ndarray:
        """The masks of a in Nil(R) + Id(R) and of a in Nil(R) - Id(R),
        stacked and cached.  One pass over the pairs (r, e) of a nilpotent
        and an idempotent, in steps of at most ``_PAIR_CHUNK`` pairs (rows of
        idempotents against all nilpotents, or one row against a run of
        them once |Nil| exceeds it), marks r + e.  Nil is
        closed under negation, so a + e is nilpotent exactly when -a - e is:
        the second row is the first read at -a, one ``neg_vec`` over the
        carrier.  A sign decomposes a pair exactly when it decomposes both
        parts, so a direct product combines its factors' rows."""
        if self._nil_signs is None:
            stack = self._product(RingData.nil_signs)
            if stack is None:
                ring = self._ring()
                nil, idem = np.flatnonzero(self.nil_mask), self.idem_indices
                plus = np.zeros(ring.card, dtype=bool)
                runs = [nil[at : at + _PAIR_CHUNK] for at in range(0, len(nil), _PAIR_CHUNK)]
                step = max(1, _PAIR_CHUNK // len(nil))
                for lo in range(0, len(idem), step):
                    for run in runs:
                        plus[ring.add_vec(run, idem[lo : lo + step, None])] = True
                stack = np.stack((plus, plus[ring.neg_vec(np.arange(ring.card, dtype=np.int64))]))
            self._nil_signs = stack
        return self._nil_signs

    def decomposes(self, kind: str) -> np.ndarray:
        """Mask of the elements with a decomposition of kind ``nil_clean``
        (a - e nilpotent) or ``weakly_nil_clean`` (a - e or a + e)."""
        if kind == "nil_clean":
            return self.nil_signs()[0]
        if kind == "weakly_nil_clean":
            return self.nil_signs().any(axis=0)
        raise ValueError(f"the sign pass decides no kind {kind!r}")


def ring_data(ring: Ring) -> RingData:
    data = getattr(ring, "_ringlab_data", None)
    if data is None:
        data = RingData(ring)
        ring._ringlab_data = data
    return data


# ---------------------------------------------------------------------------
# public subset accessors


def units(ring: Ring) -> Subset:
    """All elements with a two-sided inverse (one-sided suffices in a
    finite ring: ab = 1 forces ba = 1)."""
    return Subset(ring, ring_data(ring).unit_mask.copy())


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


def mod_j(ring: Ring) -> QuotientRing:
    """Quotient by the Jacobson radical."""
    return quotient_by_ideal(ring, jacobson(ring), label=f"MODJ({ring.label})")


def radical_quotient(ring: Ring) -> Ring:
    """R/J as a ring to read invariants off: R itself when J = 0, whose J
    and center are cached, with no copy R/0; else ``mod_j(R)``."""
    if int(ring_data(ring).jacobson_mask.sum()) == 1:
        return ring
    return mod_j(ring)


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
    idempotents e: the block eR has card q**(n*n) for its matrix size n and
    the order q of its center Z(R) ∩ eR.  Raises for rings with a nonzero
    radical."""
    data = ring_data(ring)
    jmask = data.jacobson_mask
    if int(jmask.sum()) != 1:
        raise ValueError(
            f"{ring.label} has a nonzero Jacobson radical; fingerprint its mod-j quotient"
        )
    cidx = np.flatnonzero(data.idem_mask & data.center_mask)
    # split 1 into orthogonal central idempotents: a part e with some e*f
    # other than 0 and e becomes e*f and e - e*f, else it is primitive
    parts, primitive = [ring.one], []
    while parts:
        e = parts.pop()
        below = ring.mul_vec(e, cidx)
        proper = below[(below != ring.zero) & (below != e)]
        if len(proper):
            parts += [int(proper[0]), ring.sub(e, int(proper[0]))]
        else:
            primitive.append(e)
    ar = np.arange(ring.card, dtype=np.int64)
    blocks = []
    for e in sorted(primitive):
        # e is central, so its block eRe is eR and the block's center
        # Z(eR) = eZ(R) = Z(R) ∩ eR, a field of order q
        block = np.zeros(ring.card, dtype=bool)
        block[ring.mul_vec(e, ar)] = True
        bcard = int(block.sum())
        q = int((block & data.center_mask).sum())
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


STRUCTURAL_NOTES = (
    "semilocal: every finite ring is artinian, hence semilocal",
    "two_primal: the prime radical is identified with the Jacobson radical, "
    "valid for finite rings where J is nilpotent",
)


@dataclass(frozen=True)
class StructuralFlags:
    """Record of classical ring-theoretic predicates: ``structural_predicates``
    reads each off an identity of finite rings, off masks or, commutative,
    off the additive generators.
    The unit-shape flags uu, wuu and uwnc are report flags
    (``decompositions.REPORT_FLAGS``), decided there with counterexamples."""

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
    notes: ClassVar[tuple[str, ...]] = STRUCTURAL_NOTES

    def as_dict(self) -> dict[str, bool]:
        return dict(vars(self))


def is_commutative(ring: Ring) -> bool:
    return ring_data(ring).commutative


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


def is_regular(ring: Ring) -> bool:
    """Von Neumann regular: a finite ring is regular exactly when it is
    semisimple (an artinian regular ring has J = 0, and a semisimple one is
    a product of matrix rings over fields)."""
    return is_semisimple(ring)


def is_strongly_regular(ring: Ring) -> bool:
    """Strongly regular: regular and reduced, so for a finite ring
    semisimple and reduced (a product of finite fields)."""
    return is_semisimple(ring) and is_reduced(ring)


def is_semipotent(ring: Ring) -> bool:
    """Semipotent, true of every finite ring: it is artinian, so a one-sided
    ideal not inside J is not nil and holds a nonzero idempotent."""
    return True


def is_strongly_pi_regular(ring: Ring) -> bool:
    """Strongly pi-regular, true of every finite ring: the chain aR ⊇
    a**2R ⊇ .. stops, and where a**nR = a**(n+1)R, a**n lies in a**(n+1)R."""
    return True


def structural_predicates(ring: Ring) -> StructuralFlags:
    """Decide every classical predicate of a finite ring.  A finite ring is
    artinian, hence semiperfect and strongly pi-regular with J nilpotent, so
    exchange, weakly_exchange and semilocal are constantly true, and ni = nr
    = two_primal (Nil(R) is the preimage of Nil(R/J), closed under + only
    when R/J is a product of fields).  regular, strongly_regular,
    semipotent and strongly_pi_regular are read off the deciders above,
    each an identity of finite rings, whose brute-force scans stay in the
    tests as oracles; commutative is decided on the additive generators."""
    data = ring_data(ring)
    two_primal = bool(np.array_equal(data.jacobson_mask, data.nil_mask))
    return StructuralFlags(
        commutative=is_commutative(ring),
        local=is_local(ring),
        abelian=is_abelian_ring(ring),
        reduced=is_reduced(ring),
        boolean=is_boolean_ring(ring),
        ni=two_primal,
        nr=two_primal,
        two_primal=two_primal,
        regular=is_regular(ring),
        strongly_regular=is_strongly_regular(ring),
        exchange=True,
        weakly_exchange=True,
        semipotent=is_semipotent(ring),
        strongly_pi_regular=is_strongly_pi_regular(ring),
        semisimple=is_semisimple(ring),
        semilocal=True,
    )
