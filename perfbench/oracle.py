"""Brute-force check of ``ringlab element`` payloads.

The oracle decides everything from the ring operations alone, without
``ringlab.structure``: an element is nilpotent when its powers reach zero
and a unit when they reach one; the idempotents are the solutions of
``e*e == e``.  Witnesses are searched in the library's documented order,
idempotents ascending with sign + before -.
"""

from __future__ import annotations

import numpy as np

from ringlab import decompositions as dec

KINDS = tuple(dec.ELEMENT_PREDICATES)


class ElementOracle:
    def __init__(self, ring) -> None:
        self.ring = ring
        ar = np.arange(ring.card, dtype=np.int64)
        self.idempotents = [int(e) for e in np.flatnonzero(ring.mul_vec(ar, ar) == ar)]
        self._powers: dict[int, tuple[str, int]] = {}

    def power_walk(self, x: int) -> tuple[str, int]:
        """("nil", k) when x**k == 0 first, ("unit", k) when x**k == 1
        first, ("neither", 0) when the powers cycle without reaching
        either."""
        hit = self._powers.get(x)
        if hit is None:
            ring = self.ring
            seen: set[int] = set()
            p, k = x, 1
            while True:
                if p == ring.zero:
                    hit = ("nil", k)
                    break
                if p == ring.one:
                    hit = ("unit", k)
                    break
                if p in seen:
                    hit = ("neither", 0)
                    break
                seen.add(p)
                p = ring.mul(p, x)
                k += 1
            self._powers[x] = hit
        return hit

    def decompose(self, a: int, kind: str) -> tuple[bool, dict | None]:
        ring = self.ring
        target = "nil" if "nil" in kind else "unit"
        strongly = kind.startswith("strongly")
        signs = (1, -1) if kind.startswith("weakly") else (1,)
        for e in self.idempotents:
            for sign in signs:
                rest = ring.sub(a, e) if sign == 1 else ring.add(a, e)
                if self.power_walk(rest)[0] != target:
                    continue
                commuting = ring.mul(e, rest) == ring.mul(rest, e)
                if strongly and not commuting:
                    continue
                witness = {"sign": sign, "idempotent": e, "rest": rest, "commuting": commuting}
                return True, witness
        return False, None

    def problems(self, payload: dict) -> list[str]:
        """Every disagreement between an element payload and the oracle,
        plus every witness that ``validate_witness`` rejects.  Membership of
        J is not rechecked here (it needs a unit test per carrier element)."""
        ring = self.ring
        a = payload["element"]
        out = []
        status, k = self.power_walk(a)
        ar = np.arange(ring.card, dtype=np.int64)
        expected = {
            "is_unit": status == "unit",
            "is_nilpotent": status == "nil",
            "nilpotency_index": k if status == "nil" else None,
            "is_idempotent": ring.mul(a, a) == a,
            "is_central": bool(np.array_equal(ring.mul_vec(a, ar), ring.mul_vec(ar, a))),
        }
        for key, value in expected.items():
            if payload[key] != value:
                out.append(f"{key}: got {payload[key]!r}, oracle {value!r}")
        for kind in KINDS:
            entry = payload["predicates"][kind]
            holds, witness = self.decompose(a, kind)
            if entry["holds"] != holds or entry["witness"] != witness:
                out.append(f"{kind}: got {entry}, oracle holds={holds} witness={witness}")
            if entry["witness"] is not None:
                try:
                    dec.validate_witness(ring, a, kind, dec.Witness(**entry["witness"]))
                except ValueError as exc:
                    out.append(f"{kind}: {exc}")
        return out
