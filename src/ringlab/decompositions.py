"""Element decompositions with witnesses and the ring-level classifiers.

The central question per ring: is every non-unit a nilpotent plus-or-minus
an idempotent (GWNC)?  The surrounding flags cover the whole clean family:
clean, nil-clean, their strongly/weakly variants, the non-unit-restricted
GNC/GSNC/GWNC, and the unit-shape conditions UU/WUU/UWNC.

Witness tie-breaking is fixed everywhere: elements ascending, idempotents
ascending, sign + before -, so reports are reproducible bit for bit.
Element predicates, flags and counterexamples are all lookups into the
witness ranks that ``structure.RingData`` computes once per ring and
family (see ``RingData.witness_keys``).

The strongly-weakly variants hold for an element when it or its negative
decomposes strongly; some authors instead ask for a commuting weakly
clean decomposition of the element itself, which is a different predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: quantified flag -> (element kind, domain): the flag holds when every
#: element of the domain decomposes; on "all or negative" it suffices that
#: the element or its negative does
_QUANTIFIED = {
    "clean": ("clean", "all"),
    "strongly_clean": ("strongly_clean", "all"),
    "weakly_clean": ("weakly_clean", "all"),
    "strongly_weakly_clean": ("strongly_clean", "all or negative"),
    "nil_clean": ("nil_clean", "all"),
    "strongly_nil_clean": ("strongly_nil_clean", "all"),
    "weakly_nil_clean": ("weakly_nil_clean", "all"),
    "strongly_weakly_nil_clean": ("strongly_nil_clean", "all or negative"),
    "gnc": ("nil_clean", "non-units"),
    "gsnc": ("strongly_nil_clean", "non-units"),
    "gwnc": ("weakly_nil_clean", "non-units"),
    "uwnc": ("weakly_nil_clean", "units"),
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
    e = w.idempotent
    if ring.mul(e, e) != e:
        raise ValueError(f"witness idempotent {e} is not idempotent in {ring.label}")
    if w.reconstruct(ring) != a:
        raise ValueError(f"witness for {a} in {ring.label} does not reconstruct it")
    if "nil" in kind:
        ok, _ = is_nilpotent(ring, w.rest)
        if not ok:
            raise ValueError(f"witness rest {w.rest} is not nilpotent in {ring.label}")
    else:
        if not ring_data(ring).unit_mask[w.rest]:
            raise ValueError(f"witness rest {w.rest} is not a unit in {ring.label}")
    commuting = ring.mul(e, w.rest) == ring.mul(w.rest, e)
    if commuting != w.commuting:
        raise ValueError(f"witness for {a} in {ring.label} mislabels commutation")
    if kind.startswith("strongly") and not w.commuting:
        raise ValueError(f"strong witness for {a} in {ring.label} does not commute")


def _witness(ring: Ring, a: int, kind: str) -> tuple[bool, Witness | None]:
    """The first witness in the fixed order (idempotents ascending, sign +
    before -), read off the ring's witness keys."""
    data = ring_data(ring)
    key = int(data.witness_keys(kind, a))
    rank, minus = divmod(key, 2)
    if rank == data.witness_ranks("nil" in kind).missing:
        return False, None
    e = int(data.idem_indices[rank])
    rest = ring.add(a, e) if minus else ring.sub(a, e)
    commuting = ring.mul(e, rest) == ring.mul(rest, e)
    return True, Witness(sign=-1 if minus else 1, idempotent=e, rest=rest, commuting=commuting)


def elem_is_clean(ring: Ring, a: int) -> tuple[bool, Witness | None]:
    """a = e + u with e idempotent and u a unit."""
    return _witness(ring, ring._check(a), "clean")


def elem_is_strongly_clean(ring: Ring, a: int) -> tuple[bool, Witness | None]:
    return _witness(ring, ring._check(a), "strongly_clean")


def elem_is_weakly_clean(ring: Ring, a: int) -> tuple[bool, Witness | None]:
    """a - e or a + e is a unit for some idempotent e."""
    return _witness(ring, ring._check(a), "weakly_clean")


def elem_is_nil_clean(ring: Ring, a: int) -> tuple[bool, Witness | None]:
    """a = e + q with e idempotent and q nilpotent."""
    return _witness(ring, ring._check(a), "nil_clean")


def elem_is_strongly_nil_clean(ring: Ring, a: int) -> tuple[bool, Witness | None]:
    return _witness(ring, ring._check(a), "strongly_nil_clean")


def elem_is_weakly_nil_clean(ring: Ring, a: int) -> tuple[bool, Witness | None]:
    """a - e or a + e is nilpotent for some idempotent e."""
    return _witness(ring, ring._check(a), "weakly_nil_clean")


ELEMENT_PREDICATES = {
    "clean": elem_is_clean,
    "strongly_clean": elem_is_strongly_clean,
    "weakly_clean": elem_is_weakly_clean,
    "nil_clean": elem_is_nil_clean,
    "strongly_nil_clean": elem_is_strongly_nil_clean,
    "weakly_nil_clean": elem_is_weakly_nil_clean,
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

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "card": self.card,
            "flags": dict(self.flags),
            "counterexamples": dict(self.counterexamples),
            "structural": self.structural.as_dict(),
            "notes": list(self.structural.notes),
        }


class RingAnalysis:
    """Lazily computed ring-level flags with deterministic counterexamples.

    Each quantified flag reads one mask of ``RingData.decomposes``, so the
    lowest-index counterexample is the first failing element of its domain."""

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self.data = ring_data(ring)
        self._flags: dict[str, bool] = {}
        self._cx: dict[str, int | None] = {}

    def _compute(self, name: str) -> bool:
        ring = self.ring
        data = self.data
        everyone = np.arange(ring.card, dtype=np.int64)
        if name in _QUANTIFIED:
            kind, domain = _QUANTIFIED[name]
            ok = data.decomposes(kind)
            if domain == "all or negative":
                ok = ok | ok[ring.neg_vec(everyone)]
            elif domain == "non-units":
                ok = ok | data.unit_mask
            elif domain == "units":
                ok = ok | ~data.unit_mask
            bad = ~ok
        elif name == "uu":  # a unit u with u - 1 not nilpotent
            bad = data.unit_mask & ~data.nil_mask[ring.sub_vec(everyone, ring.one)]
        elif name == "wuu":  # a unit outside Nil(R) +- 1, or a non-unit inside
            near_one = data.nil_mask[ring.sub_vec(everyone, ring.one)]
            near_one |= data.nil_mask[ring.add_vec(everyone, ring.one)]
            bad = near_one != data.unit_mask
        else:
            raise ValueError(f"unknown flag {name!r}")
        failing = np.flatnonzero(bad)
        self._cx[name] = int(failing[0]) if len(failing) else None
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
            label=self.ring.label,
            card=self.ring.card,
            flags=flags,
            counterexamples=cx,
            structural=structural_predicates(self.ring),
        )


def _analysis(ring: Ring) -> RingAnalysis:
    cached = getattr(ring, "_ringlab_analysis", None)
    if cached is None:
        cached = RingAnalysis(ring)
        ring._ringlab_analysis = cached
    return cached


def classify(ring: Ring, threads: int = 1) -> PropertyReport:
    """Full classification of one ring; quantifies every element predicate
    over its domain and records the lowest-index counterexample per failed
    flag.  ``threads`` is accepted and ignored, here and below."""
    return _analysis(ring).report()


def ring_flag(ring: Ring, name: str, threads: int = 1) -> bool:
    return _analysis(ring).flag(name)


def flag_counterexample(ring: Ring, name: str, threads: int = 1) -> int | None:
    return _analysis(ring).counterexample(name)


def gwnc(ring: Ring, threads: int = 1) -> tuple[bool, int | None]:
    """Decide whether every non-unit is weakly nil-clean; on failure return
    the lowest-index counterexample."""
    analysis = _analysis(ring)
    holds = analysis.flag("gwnc")
    return holds, analysis.counterexample("gwnc")


def gwnc_witness(ring: Ring, a: int) -> Witness | None:
    """Deterministic weakly-nil-clean witness for one element, or None."""
    ok, w = elem_is_weakly_nil_clean(ring, a)
    return w if ok else None
