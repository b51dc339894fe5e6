"""Element decompositions with witnesses and the ring-level classifiers.

The central question per ring: is every non-unit a nilpotent plus-or-minus
an idempotent (GWNC)?  The surrounding flags cover the whole clean family:
clean, nil-clean, their strongly/weakly variants, the non-unit-restricted
GNC/GSNC/GWNC, and the unit-shape conditions UU/WUU/UWNC.

Witness tie-breaking is fixed everywhere: elements ascending, idempotents
ascending, sign + before -, so reports are reproducible bit for bit.
Element predicates read the first witness off one scan of the idempotents
per element (``idempotent_scan``), a direct product off its factors'
scans; the ``classify --witness`` table scans the whole carrier once per
kind.  The flags and counterexamples of the nil-clean, weakly nil-clean
and GNC/GWNC/UWNC kinds read the nil sign pass of ``structure.RingData``;
the strongly nil-clean kinds and UU/WUU read Nil(R) at a - a**2, a + a**2
and a -+ 1 (``RingData.nil_at``).  The clean-family flags hold on every
finite ring (``FINITE_RING_IDENTITIES``).

The strongly-weakly variants hold for an element when it or its negative
decomposes strongly; some authors instead ask for a commuting weakly
clean decomposition of the element itself, which is a different predicate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Ring, is_nilpotent
from .structure import (
    StructuralFlags,
    ring_data,
    structural_predicates,
)

#: implication edges that must hold inside every PropertyReport
DIAGRAM_EDGES: tuple[tuple[str, str], ...] = (
    ("strongly_nil_clean", "nil_clean"),
    ("nil_clean", "weakly_nil_clean"),
    ("weakly_nil_clean", "gwnc"),
    ("nil_clean", "gnc"),
    ("gnc", "gwnc"),
    ("gsnc", "gnc"),
    ("gsnc", "strongly_clean"),
    ("strongly_clean", "clean"),
    ("clean", "weakly_clean"),
    ("gnc", "clean"),
    ("gwnc", "weakly_clean"),
    ("strongly_nil_clean", "gsnc"),
)

REPORT_FLAGS: tuple[str, ...] = (
    "clean",
    "strongly_clean",
    "weakly_clean",
    "strongly_weakly_clean",
    "nil_clean",
    "strongly_nil_clean",
    "weakly_nil_clean",
    "strongly_weakly_nil_clean",
    "gnc",
    "gsnc",
    "gwnc",
    "uu",
    "wuu",
    "uwnc",
)

#: flags that hold on every finite ring: a finite ring is semiperfect,
#: hence clean, and strongly pi-regular, hence strongly clean (Nicholson
#: 1999, *Strongly clean rings and Fitting's lemma*); weakly clean and
#: strongly weakly clean follow.  The tests keep the U x Id pass as their
#: oracle
FINITE_RING_IDENTITIES = (
    "clean",
    "strongly_clean",
    "weakly_clean",
    "strongly_weakly_clean",
)

#: flag -> the mask of the elements that satisfy it: the flag holds when
#: every element does, and its counterexample is the first that does not.
#: A flag on the non-units or the units lets every other element pass
_SATISFIED = {
    "nil_clean": lambda d: d.decomposes("nil_clean"),
    "strongly_nil_clean": lambda d: d.nil_at("a-a^2"),
    "weakly_nil_clean": lambda d: d.decomposes("weakly_nil_clean"),
    # a or -a is strongly nil-clean, -a exactly when a + a**2 is nilpotent
    "strongly_weakly_nil_clean": lambda d: d.nil_at("a-a^2") | d.nil_at("a+a^2"),
    "gnc": lambda d: d.decomposes("nil_clean") | d.unit_mask,
    "gsnc": lambda d: d.nil_at("a-a^2") | d.unit_mask,
    "gwnc": lambda d: d.decomposes("weakly_nil_clean") | d.unit_mask,
    "uwnc": lambda d: d.decomposes("weakly_nil_clean") | ~d.unit_mask,
    # every unit u has u - 1 nilpotent
    "uu": lambda d: d.nil_at("a-1") | ~d.unit_mask,
    # the units are exactly Nil(R) +- 1 (1 + q is a unit for q nilpotent)
    "wuu": lambda d: (d.nil_at("a-1") | d.nil_at("a+1")) == d.unit_mask,
}


@dataclass(frozen=True)
class Witness:
    """A decomposition ``a = rest + sign*idempotent``.

    ``rest`` is the nilpotent part for the nil-clean family and the unit
    part for the clean family; ``commuting`` records whether it commutes
    with the idempotent.
    """

    sign: int
    idempotent: int
    rest: int
    commuting: bool

    def reconstruct(self, ring: Ring) -> int:
        if self.sign == 1:
            return ring.add(self.rest, self.idempotent)
        return ring.sub(self.rest, self.idempotent)


def validate_witness(ring: Ring, a: int, kind: str, w: Witness) -> None:
    """Assert a witness against its side conditions; raises ``ValueError``."""
    e, rest = ring._check(w.idempotent), ring._check(w.rest)
    ee, er, re = ring.mul_vec([e, e, rest], [e, rest, e])
    if ee != e:
        raise ValueError(f"witness idempotent {e} is not idempotent in {ring.label}")
    if w.reconstruct(ring) != a:
        raise ValueError(f"witness for {a} in {ring.label} does not reconstruct it")
    if "nil" in kind:
        ok, _ = is_nilpotent(ring, rest)
        if not ok:
            raise ValueError(f"witness rest {w.rest} is not nilpotent in {ring.label}")
    else:
        if not ring_data(ring).unit_mask[rest]:
            raise ValueError(f"witness rest {w.rest} is not a unit in {ring.label}")
    if (er == re) != w.commuting:
        raise ValueError(f"witness for {a} in {ring.label} mislabels commutation")
    if kind.startswith("strongly") and not w.commuting:
        raise ValueError(f"strong witness for {a} in {ring.label} does not commute")


def idempotent_scan(ring: Ring, kind: str, elements) -> np.ndarray:
    """Witness key of each of ``elements`` for one decomposition kind:
    ``2*rank`` for ``a = rest + e``, ``2*rank + 1`` for ``a = rest - e``
    and ``2*|Id|`` when there is none, e the idempotent of that rank.  Keys
    ascend in the fixed witness order, so the key is the least over both
    signs of the sign's first rank (``_sign_ranks``); |Id| for both gives
    ``2*|Id|``."""
    if kind not in ELEMENT_PREDICATES:
        raise ValueError(f"unknown decomposition kind {kind!r}")
    elements = np.asarray(elements, dtype=np.int64)
    ranks, _ = _sign_ranks(ring, kind, elements)
    return (2 * ranks + _SIGN_COLUMNS).min(axis=1)


#: the key column of each sign, + then -
_SIGN_COLUMNS = np.array([0, 1])


def _sign_ranks(ring: Ring, kind: str, elements: np.ndarray) -> tuple[np.ndarray, int]:
    """(ranks, |Id|): ``ranks[i, s]`` is the rank of the first idempotent e
    with a = rest + e (s = 0) or a = rest - e (s = 1) a decomposition of
    a = ``elements[i]`` of that kind, |Id| when there is none.  On a direct
    product L x R the idempotents are the pairs, ascending as (rank in L,
    rank in R), and a sign decomposes a pair exactly when it decomposes
    both parts: rest is a unit or nilpotent, and commutes with e, exactly
    when both parts are and do.  So the first rank of a sign is read off
    the factors' first ranks of that sign."""
    parts = ring.factors()
    if parts is None:
        hits = _hits(ring, kind, elements)
        return hits.argmax(axis=2), hits.shape[2] - 1
    left, right = parts
    high = elements // right.card
    (lr, nl), (rr, nr) = (
        _sign_ranks(part, kind, x) for part, x in ((left, high), (right, elements - high * right.card))
    )
    return np.where((lr < nl) & (rr < nr), lr * nr + rr, nl * nr), nl * nr


def _hits(ring: Ring, kind: str, elements: np.ndarray) -> np.ndarray:
    """``hits[i, s, rank]``: whether a = rest + e (s = 0) or a = rest - e
    (s = 1) is a decomposition of a = ``elements[i]`` of that kind, e the
    idempotent of that rank, and True at rank |Id|, so that the first hit
    of a sign is |Id| when there is none.  Every element meets every
    idempotent in one ``sub_vec`` (rest = a - e) and, for the weakly kinds,
    one ``add_vec`` (rest = a + e) of the elements as a column against the
    idempotents as a row, len(elements) * |Id| pairs each; the strongly
    kinds test commutation on the candidates only."""
    data = ring_data(ring)
    target = data.nil_mask if "nil" in kind else data.unit_mask
    idem = data.idem_indices
    a = elements[:, None]
    hits = np.zeros((len(a), 2, len(idem) + 1), dtype=bool)
    hits[..., -1] = True
    rest = ring.sub_vec(a, idem)
    hits[:, 0, :-1] = target[rest]
    if kind.startswith("strongly"):
        i, rank = np.nonzero(hits[:, 0, :-1])
        e, r = idem[rank], rest[i, rank]
        hits[i, 0, rank] = ring.mul_vec(e, r) == ring.mul_vec(r, e)
    if kind.startswith("weakly"):
        hits[:, 1, :-1] = target[ring.add_vec(a, idem)]
    return hits


def witnesses(ring: Ring, kind: str, elements) -> list[tuple[bool, Witness | None]]:
    """The first witness of each of ``elements`` in the fixed order
    (idempotents ascending, sign + before -), read off its key."""
    idem = ring_data(ring).idem_indices
    out: list[tuple[bool, Witness | None]] = []
    for a, key in zip(elements, idempotent_scan(ring, kind, elements)):
        rank, minus = divmod(int(key), 2)
        if rank == len(idem):
            out.append((False, None))
            continue
        a, e = int(a), int(idem[rank])
        rest = ring.add(a, e) if minus else ring.sub(a, e)
        # the scan of a strongly kind has tested that e and rest commute
        commuting = kind.startswith("strongly") or ring.mul(e, rest) == ring.mul(rest, e)
        out.append((True, Witness(sign=-1 if minus else 1, idempotent=e, rest=rest, commuting=commuting)))
    return out


def _element_predicate(kind: str) -> Callable[[Ring, int], tuple[bool, Witness | None]]:
    return lambda ring, a: witnesses(ring, kind, [ring._check(a)])[0]


#: kind -> ``(ring, a) -> (holds, first witness)`` for one element, e an
#: idempotent, u a unit and q a nilpotent: clean a = e + u, weakly clean
#: a = u + e or a = u - e, nil-clean a = e + q, weakly nil-clean a = q + e
#: or a = q - e, and the strongly kinds ask e to commute with u or q
ELEMENT_PREDICATES = {
    kind: _element_predicate(kind)
    for kind in (
        "clean",
        "strongly_clean",
        "weakly_clean",
        "nil_clean",
        "strongly_nil_clean",
        "weakly_nil_clean",
    )
}


@dataclass
class PropertyReport:
    """Classification flags of one ring plus counterexamples and the
    structural predicate record."""

    label: str
    card: int
    flags: dict[str, bool]
    counterexamples: dict[str, int]
    structural: StructuralFlags


class RingAnalysis:
    """Lazily computed ring-level flags with deterministic counterexamples.

    Each flag reads one mask of ``_SATISFIED``, so the lowest-index
    counterexample is the first failing element of its domain."""

    def __init__(self, ring: Ring) -> None:
        self._ring = weakref.ref(ring)  # held weakly, as ``RingData`` holds it
        self.data = ring_data(ring)
        self._flags: dict[str, bool] = {}
        self._cx: dict[str, int | None] = {}

    def _compute(self, name: str) -> bool:
        if name in FINITE_RING_IDENTITIES:
            self._cx[name] = None
        elif name in _SATISFIED:
            failing = np.flatnonzero(~_SATISFIED[name](self.data))
            self._cx[name] = int(failing[0]) if len(failing) else None
        else:
            raise ValueError(f"unknown flag {name!r}")
        self._flags[name] = self._cx[name] is None
        return self._flags[name]

    def flag(self, name: str) -> bool:
        if name not in self._flags:
            self._compute(name)
        return self._flags[name]

    def counterexample(self, name: str) -> int | None:
        self.flag(name)
        return self._cx[name]

    def report(self) -> PropertyReport:
        flags = {name: self.flag(name) for name in REPORT_FLAGS}
        cx = {
            name: self._cx[name]
            for name in REPORT_FLAGS
            if self._cx.get(name) is not None
        }
        return PropertyReport(
            label=self._ring().label,
            card=self._ring().card,
            flags=flags,
            counterexamples=cx,
            structural=structural_predicates(self._ring()),
        )


def _analysis(ring: Ring) -> RingAnalysis:
    cached = getattr(ring, "_ringlab_analysis", None)
    if cached is None:
        cached = RingAnalysis(ring)
        ring._ringlab_analysis = cached
    return cached


def classify(ring: Ring) -> PropertyReport:
    """Full classification of one ring; quantifies every element predicate
    over its domain and records the lowest-index counterexample per failed
    flag."""
    return _analysis(ring).report()


def ring_flag(ring: Ring, name: str) -> bool:
    return _analysis(ring).flag(name)


def flag_counterexample(ring: Ring, name: str) -> int | None:
    return _analysis(ring).counterexample(name)


def gwnc(ring: Ring) -> tuple[bool, int | None]:
    """Decide whether every non-unit is weakly nil-clean; on failure return
    the lowest-index counterexample."""
    analysis = _analysis(ring)
    holds = analysis.flag("gwnc")
    return holds, analysis.counterexample("gwnc")
