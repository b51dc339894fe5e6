"""Regression harness: a named catalog of finite rings plus one check per
claim of the classification theory, each reporting pass, fail, or
skipped-by-guard.

Check identifiers index the claim catalog (T- theorem, P- proposition,
L- lemma, C- corollary, EX- worked example); a failing check always
carries a counterexample reproducible through the command line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GuardError,
    Ring,
    Subset,
    TableRing,
    check_ring_axioms,
    default_max_card,
    default_memo_threshold,
    maybe_memoize,
)
from . import constructions as cons
from . import decompositions as dec
from . import structure
from .dsl import build, canonical, parse


@dataclass(frozen=True)
class CatalogEntry:
    """One named ring with its asserted classification flags (may be none)."""

    id: str
    expression: str
    expected: tuple[tuple[str, bool], ...]
    source: str


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "EX-2.1-01",
        "M(2,Z(2))",
        (("gsnc", True), ("strongly_nil_clean", False), ("nil_clean", True)),
        "claims 2.1(1), 2.1(7)",
    ),
    CatalogEntry(
        "EX-2.1-03",
        "Z(3)",
        (("gnc", True), ("nil_clean", False), ("weakly_nil_clean", True)),
        "claims 2.1(3), 2.1(8)",
    ),
    CatalogEntry(
        "EX-2.1-04",
        "Z(6)",
        (("clean", True), ("gnc", False), ("weakly_nil_clean", True)),
        "claims 2.1(4), 2.22",
    ),
    CatalogEntry(
        "EX-2.1-05",
        "Z(5)",
        (("gwnc", True), ("weakly_nil_clean", False)),
        "claim 2.1(5)",
    ),
    CatalogEntry(
        "EX-2.1-06",
        "M(2,Z(6))",
        (("weakly_clean", True), ("gwnc", False)),
        "claim 2.1(6)",
    ),
    CatalogEntry(
        "EX-2.1-09",
        "M(2,Z(2)) x M(2,Z(2))",
        (("gnc", True), ("gsnc", False)),
        "claim 2.1(9)",
    ),
    CatalogEntry(
        "EX-2.1-10",
        "M(2,Z(3))",
        (("gwnc", True), ("gnc", False)),
        "claim 2.1(10)",
    ),
    CatalogEntry("EX-2.22-01", "Z(3) x Z(3)", (("gwnc", True),), "claim 2.22"),
    CatalogEntry("EX-2.22-02", "Z(6) x Z(6)", (("gwnc", False),), "claim 2.22"),
    CatalogEntry("EX-2.26-01", "T(2,Z(3))", (("gwnc", True),), "claim 2.26"),
    CatalogEntry("EX-2.26-02", "T(2,Z(6))", (("gwnc", False),), "claim 2.26"),
    CatalogEntry("CAT-12", "Z(2)", (), "filler"),
    CatalogEntry("CAT-13", "Z(4)", (), "filler"),
    CatalogEntry("CAT-14", "Z(8)", (), "filler"),
    CatalogEntry("CAT-15", "Z(9)", (), "filler"),
    CatalogEntry("CAT-16", "Z(12)", (), "filler"),
    CatalogEntry("CAT-17", "GF(2,2)", (), "filler"),
    CatalogEntry("CAT-18", "GF(3,2)", (), "filler"),
    CatalogEntry("CAT-19", "TE(Z(2))", (), "filler"),
    CatalogEntry("CAT-20", "TE(Z(3))", (), "filler"),
    CatalogEntry("CAT-21", "PQ(Z(2),[0,0,1])", (), "filler"),
    CatalogEntry("CAT-22", "GR(Z(2),C(2))", (), "filler"),
    CatalogEntry("CAT-23", "GR(Z(2),C(3))", (), "filler"),
    CatalogEntry("CAT-24", "GR(Z(3),C(3))", (), "filler"),
    CatalogEntry("CAT-25", "GR(Z(4),C(2))", (), "filler"),
    CatalogEntry("CAT-26", "FM(2,2,Z(4))", (), "filler"),
)


def catalog() -> tuple[CatalogEntry, ...]:
    return CATALOG


GROUP_RINGS: tuple[tuple[str, str], ...] = (
    ("GR(Z(2),C(2))", "Z(2)"),
    ("GR(Z(2),C(3))", "Z(2)"),
    ("GR(Z(3),C(3))", "Z(3)"),
    ("GR(Z(4),C(2))", "Z(4)"),
    ("GR(Z(2),C(4))", "Z(2)"),
    ("GR(Z(2),C(2) x C(2))", "Z(2)"),
    ("GR(Z(9),C(3))", "Z(9)"),
)


@dataclass
class CheckResult:
    id: str
    description: str
    status: str  # "pass" | "fail" | "skipped"
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerifySummary:
    results: list[CheckResult]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skipped")

    def __str__(self) -> str:
        return f"{self.passed} passed, {self.failed} failed, {self.skipped} skipped"


class VerifyContext:
    """Shared ring/flag cache for one harness run; ``threads`` is accepted
    and ignored."""

    def __init__(
        self,
        max_card: int | None = None,
        memo_threshold: int | None = None,
        threads: int = 1,
    ) -> None:
        self.max_card = default_max_card() if max_card is None else max_card
        self.memo_threshold = (
            default_memo_threshold() if memo_threshold is None else memo_threshold
        )
        self._rings: dict[str, Ring] = {}

    def ring(self, text: str) -> Ring:
        key = canonical(parse(text))
        ring = self._rings.get(key)
        if ring is None:
            ring = build(text, max_card=self.max_card)
            ring = maybe_memoize(ring, self.memo_threshold)
            self._rings[key] = ring
        return ring

    def adopt(self, ring: Ring) -> Ring:
        return maybe_memoize(ring, self.memo_threshold)

    def pair_ring(self, a: str, b: str) -> Ring:
        """Direct product of two catalog rings, sharing the cached factors;
        left without tables, so its invariants and witness ranks come from
        the factors'."""
        key = _pair_expression(a, b)
        ring = self._rings.get(key)
        if ring is None:
            ring = cons.direct_product(self.ring(a), self.ring(b), max_card=self.max_card)
            self._rings[key] = ring
        return ring

    def flag(self, text: str, name: str) -> bool:
        return dec.ring_flag(self.ring(text), name)

    def counterexample(self, text: str, name: str) -> int | None:
        return dec.flag_counterexample(self.ring(text), name)

    def gwnc(self, text: str) -> bool:
        return self.flag(text, "gwnc")

    def report(self, text: str) -> dec.PropertyReport:
        return dec.classify(self.ring(text))


def _unwrap(ring: Ring) -> Ring:
    return ring.source if isinstance(ring, TableRing) else ring


def _times(ring: Ring, n: int) -> int:
    """The element n*1 of a ring."""
    acc = ring.zero
    for _ in range(n):
        acc = ring.add(acc, ring.one)
    return acc


def _repro(expr: str) -> str:
    return f"reproduce: ringlab classify \"{expr}\" --witness"


def _finish(result: CheckResult, ran_something: bool) -> CheckResult:
    if any(d.startswith("FAIL") for d in result.details):
        result.status = "fail"
    elif not ran_something:
        result.status = "skipped"
    else:
        result.status = "pass"
    return result


CHECKS: dict[str, tuple[str, object]] = {}


def _register(check_id: str, description: str):
    def wrap(fn):
        CHECKS[check_id] = (description, fn)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# catalog expectation checks


def check_catalog_entry(ctx: VerifyContext, entry: CatalogEntry) -> CheckResult:
    result = CheckResult(entry.id, f"expected flags of {entry.expression}", "pass")
    ran = False
    try:
        ring = ctx.ring(entry.expression)
    except GuardError as exc:
        result.details.append(f"SKIP {entry.expression}: {exc}")
        return _finish(result, ran)
    for name, expected in entry.expected:
        got = dec.ring_flag(ring, name)
        ran = True
        if got == expected:
            result.details.append(f"ok {entry.expression}: {name}={got}")
        else:
            cx = dec.flag_counterexample(ring, name)
            cx_note = f", counterexample element {cx}" if cx is not None else ""
            result.details.append(
                f"FAIL {entry.expression}: {name} expected {expected} got {got}"
                f"{cx_note}; {_repro(entry.expression)}"
            )
    return _finish(result, ran)


def _make_expectation_check(entry: CatalogEntry):
    def fn(ctx: VerifyContext) -> CheckResult:
        return check_catalog_entry(ctx, entry)

    return fn


for _entry in CATALOG:
    if _entry.expected:
        CHECKS[_entry.id] = (
            f"expected flags of {_entry.expression} ({_entry.source})",
            _make_expectation_check(_entry),
        )


# ---------------------------------------------------------------------------
# element-level lemmas


@_register("L-2.2", "the negative of a weakly nil-clean element is weakly clean")
def _check_l22(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.2", CHECKS["L-2.2"][0], "pass")
    ran = False
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        data = structure.ring_data(ring)
        wnc = data.decomposes("weakly_nil_clean")
        wc = data.decomposes("weakly_clean")
        ar = np.arange(ring.card, dtype=np.int64)
        bad = wnc & ~wc[ring.neg_vec(ar)]
        ran = True
        if bad.any():
            a = int(np.flatnonzero(bad)[0])
            result.details.append(
                f"FAIL {entry.expression}: element {a} is weakly nil-clean but "
                f"-{a} is not weakly clean; {_repro(entry.expression)}"
            )
        else:
            result.details.append(f"ok {entry.expression}")
    return _finish(result, ran)


@_register("C-2.3", "GWNC rings are weakly clean")
def _check_c23(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.3", CHECKS["C-2.3"][0], "pass")
    ran = False
    for entry in CATALOG:
        if not ctx.gwnc(entry.expression):
            continue
        ran = True
        if ctx.flag(entry.expression, "weakly_clean"):
            result.details.append(f"ok {entry.expression}")
        else:
            cx = ctx.counterexample(entry.expression, "weakly_clean")
            result.details.append(
                f"FAIL {entry.expression}: GWNC but not weakly clean "
                f"(element {cx}); {_repro(entry.expression)}"
            )
    return _finish(result, ran)


@_register("L-2.4", "the Jacobson radical of a GWNC ring is nil")
def _check_l24(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.4", CHECKS["L-2.4"][0], "pass")
    ran = False
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        if not ctx.gwnc(entry.expression):
            continue
        ran = True
        if structure.is_nil_subset(ring, structure.jacobson(ring)):
            result.details.append(f"ok {entry.expression}")
        else:
            result.details.append(
                f"FAIL {entry.expression}: radical is not nil; {_repro(entry.expression)}"
            )
    return _finish(result, ran)


@_register(
    "L-2.6",
    "a GWNC ring with 2 invertible and every unit an involution is commutative",
)
def _check_l26(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.6", CHECKS["L-2.6"][0], "pass")
    ran = False
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        data = structure.ring_data(ring)
        two = _times(ring, 2)
        if not data.unit_mask[two]:
            continue
        uidx = np.flatnonzero(data.unit_mask)
        if not (ring.mul_vec(uidx, uidx) == ring.one).all():
            continue
        if not ctx.gwnc(entry.expression):
            continue
        ran = True
        if structure.is_commutative(ring):
            result.details.append(f"ok {entry.expression}")
        else:
            result.details.append(
                f"FAIL {entry.expression}: preconditions hold but the ring is "
                f"not commutative; {_repro(entry.expression)}"
            )
    return _finish(result, ran)


# ---------------------------------------------------------------------------
# nil-ideal quotient machinery


def _nil_ideals(ring: Ring) -> list[Subset]:
    """All ideals generated by at most two radical elements (deduplicated);
    every such ideal sits inside J, hence is nil in a finite ring."""
    jac = structure.jacobson(ring)
    jidx = [int(i) for i in jac.indices()]
    seen: dict[tuple[int, ...], Subset] = {}
    gens_pool: list[tuple[int, ...]] = [(j,) for j in jidx]
    gens_pool += [tuple(p) for p in itertools.combinations(jidx, 2)]
    for gens in gens_pool:
        ideal = cons.ideal_generated(ring, gens)
        key = tuple(int(i) for i in ideal.indices())
        seen.setdefault(key, ideal)
    return list(seen.values())


@_register("P-2.8", "a ring and its quotient by a nil ideal agree on GWNC")
def _check_p28(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("P-2.8", CHECKS["P-2.8"][0], "pass")
    ran = False
    for expr in ("T(2,Z(4))", "TE(Z(6))", "PQ(Z(3),[0,0,1])"):
        ring = ctx.ring(expr)
        lhs = ctx.gwnc(expr)
        for ideal in _nil_ideals(ring):
            if not structure.is_nil_subset(ring, ideal):
                result.details.append(
                    f"FAIL {expr}: enumerated ideal of size {len(ideal)} is not nil"
                )
                continue
            quotient = ctx.adopt(cons.quotient_by_ideal(ring, ideal))
            rhs, _ = dec.gwnc(quotient)
            ran = True
            if lhs != rhs:
                result.details.append(
                    f"FAIL {expr}: gwnc={lhs} but quotient by ideal of size "
                    f"{len(ideal)} has gwnc={rhs}; {_repro(expr)}"
                )
        result.details.append(f"ok {expr}: {len(_nil_ideals(ring))} nil ideals agree")
    return _finish(result, ran)


@_register(
    "C-2.11",
    "trivial extensions and truncated polynomial rings preserve GWNC exactly",
)
def _check_c211(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.11", CHECKS["C-2.11"][0], "pass")
    ran = False
    for n in range(2, 10):
        base = f"Z({n})"
        lhs = ctx.gwnc(base)
        for derived in (f"TE({base})", f"PQ({base},[0,0,1])", f"PQ({base},[0,0,0,1])"):
            try:
                rhs = ctx.gwnc(derived)
            except GuardError as exc:
                result.details.append(f"SKIP {derived}: {exc}")
                continue
            ran = True
            if lhs == rhs:
                result.details.append(f"ok {derived}: gwnc={rhs} matches {base}")
            else:
                result.details.append(
                    f"FAIL {derived}: gwnc={rhs} but {base} has gwnc={lhs}; "
                    f"{_repro(derived)}"
                )
    return _finish(result, ran)


@_register(
    "C-2.13",
    "the twice-iterated trivial extension preserves GWNC and matches its 4x4 frame",
)
def _check_c213(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.13", CHECKS["C-2.13"][0], "pass")
    ran = False
    for n in (2, 3, 5, 6):
        base = f"Z({n})"
        derived = f"TE(TE({base}))"
        lhs = ctx.gwnc(base)
        rhs = ctx.gwnc(derived)
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {derived}: gwnc={rhs} matches {base}")
        else:
            result.details.append(
                f"FAIL {derived}: gwnc={rhs} but {base} has gwnc={lhs}; {_repro(derived)}"
            )
    for n in (2, 3):
        ok, note = _dt_frame_agrees(ctx, n)
        ran = True
        result.details.append(("ok " if ok else "FAIL ") + note)
    return _finish(result, ran)


def _dt_frame_agrees(ctx: VerifyContext, n: int) -> tuple[bool, str]:
    """Exhaustive homomorphism check of the coordinate map from TE(TE(Z(n)))
    onto the 4x4 frame [[a,b,c,d],[0,a,0,c],[0,0,a,b],[0,0,0,a]], plus
    agreement of every classification flag."""
    tt = ctx.ring(f"TE(TE(Z({n})))")
    frame = ctx.adopt(cons.pattern_subring(cons.double_extension_pattern(), cons.zmod(n)))
    if tt.card != frame.card:
        return False, f"DT frame over Z({n}): card mismatch"
    # coordinate map: ((a,b),(c,d)) -> digits (a,b,c,d) of the frame
    ar = np.arange(tt.card, dtype=np.int64)
    digits = cons.decode_digits(ar, n, 4)
    phi = cons.encode_digits(digits, n)
    if not np.array_equal(np.sort(phi), ar):
        return False, f"DT frame over Z({n}): coordinate map is not a bijection"
    if int(phi[tt.one]) != frame.one:
        return False, f"DT frame over Z({n}): coordinate map misses the identity"
    left = np.repeat(ar, tt.card)
    right = np.tile(ar, tt.card)
    if not np.array_equal(phi[tt.add_vec(left, right)], frame.add_vec(phi[left], phi[right])):
        return False, f"DT frame over Z({n}): coordinate map breaks addition"
    if not np.array_equal(phi[tt.mul_vec(left, right)], frame.mul_vec(phi[left], phi[right])):
        return False, f"DT frame over Z({n}): coordinate map breaks multiplication"
    rep_tt = dec.classify(tt)
    rep_fr = dec.classify(frame)
    if rep_tt.flags != rep_fr.flags:
        return False, f"DT frame over Z({n}): classification flags differ"
    return True, f"DT frame over Z({n}): exhaustive homomorphism and flag agreement"


@_register("C-2.16-i", "constant-diagonal triangular frames preserve GWNC exactly")
def _check_c216(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.16-i", CHECKS["C-2.16-i"][0], "pass")
    ran = False
    for pat in ("S(2)", "S(3)"):
        for n in (2, 3, 6):
            base = f"Z({n})"
            derived = f"PAT({pat},{base})"
            lhs = ctx.gwnc(base)
            try:
                rhs = ctx.gwnc(derived)
            except GuardError as exc:
                result.details.append(f"SKIP {derived}: {exc}")
                continue
            ran = True
            if lhs == rhs:
                result.details.append(f"ok {derived}: gwnc={rhs} matches {base}")
            else:
                result.details.append(
                    f"FAIL {derived}: gwnc={rhs} but {base} has gwnc={lhs}; "
                    f"{_repro(derived)}"
                )
    return _finish(result, ran)


@_register("C-2.17", "the S(n,m), Tb(n,m) and U(n) frames preserve GWNC exactly")
def _check_c217(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.17", CHECKS["C-2.17"][0], "pass")
    ran = False
    for pat in ("S(2,2)", "Tb(2,2)", "U(3)"):
        for n in (2, 3):
            base = f"Z({n})"
            derived = f"PAT({pat},{base})"
            lhs = ctx.gwnc(base)
            rhs = ctx.gwnc(derived)
            ran = True
            if lhs == rhs:
                result.details.append(f"ok {derived}: gwnc={rhs} matches {base}")
            else:
                result.details.append(
                    f"FAIL {derived}: gwnc={rhs} but {base} has gwnc={lhs}; "
                    f"{_repro(derived)}"
                )
    return _finish(result, ran)


# ---------------------------------------------------------------------------
# local / product / triangular structure


@_register(
    "P-2.18",
    "with only trivial idempotents, GWNC is equivalent to local with nil radical",
)
def _check_p218(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("P-2.18", CHECKS["P-2.18"][0], "pass")
    ran = False
    for expr in ("Z(4)", "Z(9)", "GF(2,2)", "Z(5)"):
        ring = ctx.ring(expr)
        data = structure.ring_data(ring)
        if int(data.idem_mask.sum()) != 2:
            result.details.append(
                f"FAIL {expr}: expected only trivial idempotents"
            )
            continue
        lhs = ctx.gwnc(expr)
        rhs = structure.is_local(ring) and structure.is_nil_subset(
            ring, structure.jacobson(ring)
        )
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {expr}: gwnc={lhs}, local-with-nil-radical={rhs}")
        else:
            result.details.append(
                f"FAIL {expr}: gwnc={lhs} but local-with-nil-radical={rhs}; {_repro(expr)}"
            )
    return _finish(result, ran)


def _pair_expression(a: str, b: str) -> str:
    return f"({canonical(parse(a))} x {canonical(parse(b))})"


@_register(
    "P-2.19",
    "a GWNC direct product has weakly nil-clean factors",
)
def _check_p219(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("P-2.19", CHECKS["P-2.19"][0], "pass")
    ran = False
    skipped = 0
    checked = 0
    exprs = [e.expression for e in CATALOG]
    for a, b in itertools.combinations_with_replacement(exprs, 2):
        pair = _pair_expression(a, b)
        try:
            holds = dec.ring_flag(ctx.pair_ring(a, b), "gwnc")
        except GuardError:
            skipped += 1
            continue
        ran = True
        checked += 1
        if not holds:
            continue
        for factor in (a, b):
            if not ctx.flag(factor, "weakly_nil_clean"):
                cx = ctx.counterexample(factor, "weakly_nil_clean")
                result.details.append(
                    f"FAIL {pair}: GWNC but factor {factor} is not weakly "
                    f"nil-clean (element {cx}); {_repro(factor)}"
                )
    result.details.append(
        f"ok {checked} catalog pairs checked, {skipped} skipped by guard"
    )
    return _finish(result, ran)


@_register(
    "P-2.21",
    "a triple product is GWNC iff all factors are weakly nil-clean and at "
    "most one is not nil-clean",
)
def _check_p221(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("P-2.21", CHECKS["P-2.21"][0], "pass")
    ran = False
    atoms = ("Z(2)", "Z(3)", "Z(4)")
    for a, b, c in itertools.product(atoms, repeat=3):
        triple = f"(({a} x {b}) x {c})"
        lhs = ctx.gwnc(triple)
        wnc_all = all(ctx.flag(x, "weakly_nil_clean") for x in (a, b, c))
        not_nc = sum(1 for x in (a, b, c) if not ctx.flag(x, "nil_clean"))
        rhs = wnc_all and not_nc <= 1
        ran = True
        if lhs != rhs:
            result.details.append(
                f"FAIL {triple}: gwnc={lhs} but factor criterion gives {rhs}; "
                f"{_repro(triple)}"
            )
    for triple, expected in (
        ("((Z(2) x Z(3)) x Z(3))", False),
        ("((Z(2) x Z(2)) x Z(3))", True),
    ):
        ran = True
        got = ctx.gwnc(triple)
        if got == expected:
            result.details.append(f"ok {triple}: gwnc={got}")
        else:
            result.details.append(
                f"FAIL {triple}: gwnc expected {expected} got {got}; {_repro(triple)}"
            )
    return _finish(result, ran)


@_register(
    "P-2.25",
    "a 3x3 triangular ring is GWNC exactly when its base is nil-clean",
)
def _check_p225(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("P-2.25", CHECKS["P-2.25"][0], "pass")
    ran = False
    expected = {"Z(2)": True, "Z(4)": True, "Z(3)": False}
    for base, want in expected.items():
        derived = f"T(3,{base})"
        lhs = ctx.gwnc(derived)
        rhs = ctx.flag(base, "nil_clean")
        ran = True
        if lhs != rhs:
            result.details.append(
                f"FAIL {derived}: gwnc={lhs} but nil-clean({base})={rhs}; {_repro(derived)}"
            )
        if lhs != want:
            result.details.append(
                f"FAIL {derived}: gwnc expected {want} got {lhs}; {_repro(derived)}"
            )
        else:
            result.details.append(f"ok {derived}: gwnc={lhs}")
    return _finish(result, ran)


@_register("L-2.27", "with 2 in the radical, GWNC and GNC coincide")
def _check_l227(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.27", CHECKS["L-2.27"][0], "pass")
    ran = False
    for expr in ("Z(4)", "Z(8)", "T(2,Z(2))", "TE(Z(4))"):
        ring = ctx.ring(expr)
        two = _times(ring, 2)
        if not structure.ring_data(ring).jacobson_mask[two]:
            result.details.append(f"FAIL {expr}: 2 is not in the radical")
            continue
        ran = True
        g1 = ctx.flag(expr, "gwnc")
        g2 = ctx.flag(expr, "gnc")
        if g1 == g2:
            result.details.append(f"ok {expr}: gwnc=gnc={g1}")
        else:
            result.details.append(
                f"FAIL {expr}: gwnc={g1} but gnc={g2}; {_repro(expr)}"
            )
    return _finish(result, ran)


# ---------------------------------------------------------------------------
# flag identity networks


@_register(
    "L-2.28",
    "strongly weakly nil-clean is exactly WUU together with GWNC",
)
def _check_l228(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.28", CHECKS["L-2.28"][0], "pass")
    ran = False
    for entry in CATALOG:
        expr = entry.expression
        lhs = ctx.flag(expr, "strongly_weakly_nil_clean")
        rhs = ctx.flag(expr, "wuu") and ctx.flag(expr, "gwnc")
        ran = True
        if lhs != rhs:
            result.details.append(
                f"FAIL {expr}: strongly-weakly-nil-clean={lhs} but WUU&GWNC={rhs}; "
                f"{_repro(expr)}"
            )
    result.details.append("ok flag identity holds across the catalog")
    return _finish(result, ran)


@_register("L-2.29", "strongly nil-clean is exactly UU together with GWNC")
def _check_l229(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.29", CHECKS["L-2.29"][0], "pass")
    ran = False
    for entry in CATALOG:
        expr = entry.expression
        lhs = ctx.flag(expr, "strongly_nil_clean")
        rhs = ctx.flag(expr, "uu") and ctx.flag(expr, "gwnc")
        ran = True
        if lhs != rhs:
            result.details.append(
                f"FAIL {expr}: strongly-nil-clean={lhs} but UU&GWNC={rhs}; {_repro(expr)}"
            )
    result.details.append("ok flag identity holds across the catalog")
    return _finish(result, ran)


@_register("C-2.30", "on UU rings, nine clean-family properties coincide")
def _check_c230(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.30", CHECKS["C-2.30"][0], "pass")
    ran = False
    for entry in CATALOG:
        expr = entry.expression
        if not ctx.flag(expr, "uu"):
            continue
        report = ctx.report(expr)
        values = {
            "strongly_clean": report.flags["strongly_clean"],
            "strongly_nil_clean": report.flags["strongly_nil_clean"],
            "gsnc": report.flags["gsnc"],
            "strongly_pi_regular": report.structural.strongly_pi_regular,
            "gnc": report.flags["gnc"],
            "gwnc": report.flags["gwnc"],
            "semipotent": report.structural.semipotent,
            "weakly_clean": report.flags["weakly_clean"],
            "weakly_exchange": report.structural.weakly_exchange,
        }
        ran = True
        if len(set(values.values())) > 1:
            result.details.append(
                f"FAIL {expr}: UU ring with diverging properties {values}; {_repro(expr)}"
            )
        else:
            result.details.append(f"ok {expr}: all nine equal {values['gwnc']}")
    return _finish(result, ran)


# ---------------------------------------------------------------------------
# matrix rings over fields


@_register(
    "L-2.33",
    "full matrix rings over the field of order q are GWNC exactly for "
    "q=2 (any size) and q=3 at size 2",
)
def _check_l233(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-2.33", CHECKS["L-2.33"][0], "pass")
    ran = False
    cases = (
        ("M(2,Z(2))", True),
        ("M(2,Z(3))", True),
        ("M(2,GF(2,2))", False),
        ("M(2,Z(5))", False),
        ("M(3,Z(2))", True),
        ("M(3,Z(3))", False),
    )
    for expr, expected in cases:
        got = ctx.gwnc(expr)
        ran = True
        if got == expected:
            result.details.append(f"ok {expr}: gwnc={got}")
        else:
            result.details.append(
                f"FAIL {expr}: gwnc expected {expected} got {got}; {_repro(expr)}"
            )
    # spot checks: diag(a, 0) is not weakly nil-clean for a outside {0, 1, -1}
    for field_expr, scalars in (("GF(2,2)", (2, 3)), ("Z(5)", (2, 3))):
        mat_expr = f"M(2,{field_expr})"
        ring = ctx.ring(mat_expr)
        base_card = ctx.ring(field_expr).card
        for a in scalars:
            idx = a * base_card**3  # entry (0,0) most significant
            ok, _ = dec.elem_is_weakly_nil_clean(ring, idx)
            ran = True
            if ok:
                result.details.append(
                    f"FAIL {mat_expr}: diag({a},0) unexpectedly weakly nil-clean; "
                    f"{_repro(mat_expr)}"
                )
            else:
                result.details.append(f"ok {mat_expr}: diag({a},0) not weakly nil-clean")
    return _finish(result, ran)


@_register(
    "T-2.35",
    "over a commutative base, a 3x3 matrix ring is GWNC iff it is nil-clean",
)
def _check_t235(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("T-2.35", CHECKS["T-2.35"][0], "pass")
    ran = False
    for base in ("Z(2)", "Z(3)", "Z(4)"):
        derived = f"M(3,{base})"
        try:
            lhs = ctx.gwnc(derived)
        except GuardError as exc:
            result.details.append(f"SKIP {derived}: {exc}")
            continue
        rhs = ctx.flag(derived, "nil_clean")
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {derived}: gwnc={lhs}, nil-clean={rhs}")
        else:
            result.details.append(
                f"FAIL {derived}: gwnc={lhs} but nil-clean={rhs}; {_repro(derived)}"
            )
    return _finish(result, ran)


@_register(
    "T-2.36",
    "finite rings are GWNC exactly when local with nil radical, or the "
    "radical quotient is the 2x2 matrices over the 3-element field or the "
    "square of that field, or the ring is weakly nil-clean",
)
def _check_t236(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("T-2.36", CHECKS["T-2.36"][0], "pass")
    ran = False
    for entry in CATALOG:
        expr = entry.expression
        ring = ctx.ring(expr)
        lhs = ctx.gwnc(expr)
        j_nil = structure.is_nil_subset(ring, structure.jacobson(ring))
        quotient = ctx.adopt(structure.mod_j(ring))
        fp = structure.wedderburn_fingerprint(quotient).blocks
        rhs = (
            (structure.is_local(ring) and j_nil)
            or (fp == ((2, 3),) and j_nil)
            or (fp == ((1, 3), (1, 3)) and j_nil)
            or ctx.flag(expr, "weakly_nil_clean")
        )
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {expr}: gwnc={lhs}")
        else:
            result.details.append(
                f"FAIL {expr}: gwnc={lhs} but the four-clause criterion gives "
                f"{rhs} (fingerprint {fp}); {_repro(expr)}"
            )
    return _finish(result, ran)


@_register(
    "P-2.41",
    "for commutative bases, a 3x3 matrix ring is GWNC iff the radical "
    "quotient of the base is Boolean",
)
def _check_p241(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("P-2.41", CHECKS["P-2.41"][0], "pass")
    ran = False
    for base in ("Z(2)", "Z(4)"):
        derived = f"M(3,{base})"
        try:
            lhs = ctx.gwnc(derived)
        except GuardError as exc:
            result.details.append(f"SKIP {derived}: {exc}")
            continue
        quotient = ctx.adopt(structure.mod_j(ctx.ring(base)))
        rhs = structure.is_boolean_ring(quotient)
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {derived}: gwnc={lhs}, base radical quotient boolean={rhs}")
        else:
            result.details.append(
                f"FAIL {derived}: gwnc={lhs} but base radical quotient "
                f"boolean={rhs}; {_repro(derived)}"
            )
    return _finish(result, ran)


def _check_boolean_criterion(check_id: str, predicate: str, ctx: VerifyContext) -> CheckResult:
    result = CheckResult(check_id, CHECKS[check_id][0], "pass")
    ran = False
    for base in ("Z(2)", "Z(6)", "GF(2,2)", "Z(3)"):
        ring = ctx.ring(base)
        holds = (
            structure.is_reduced(ring)
            if predicate == "reduced"
            else structure.is_strongly_regular(ring)
        )
        if not holds:
            result.details.append(f"note {base}: not {predicate}, filtered out")
            continue
        derived = f"M(3,{base})"
        try:
            lhs = ctx.gwnc(derived)
        except GuardError as exc:
            result.details.append(f"SKIP {derived}: {exc}")
            continue
        rhs = structure.is_boolean_ring(ring)
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {derived}: gwnc={lhs}, boolean({base})={rhs}")
        else:
            result.details.append(
                f"FAIL {derived}: gwnc={lhs} but boolean({base})={rhs}; {_repro(derived)}"
            )
    return _finish(result, ran)


@_register(
    "C-2.46",
    "for reduced bases, a 3x3 matrix ring is GWNC iff the base is Boolean",
)
def _check_c246(ctx: VerifyContext) -> CheckResult:
    return _check_boolean_criterion("C-2.46", "reduced", ctx)


@_register(
    "C-2.47",
    "for strongly regular bases, a 3x3 matrix ring is GWNC iff the base is Boolean",
)
def _check_c247(ctx: VerifyContext) -> CheckResult:
    return _check_boolean_criterion("C-2.47", "strongly_regular", ctx)


@_register(
    "C-2.51",
    "formal 2x2 matrix rings twisted by a central nilpotent preserve the "
    "weakly nil-clean link",
)
def _check_c251(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("C-2.51", CHECKS["C-2.51"][0], "pass")
    ran = False
    for base in ("Z(4)", "Z(8)"):
        ring = ctx.ring(base)
        data = structure.ring_data(ring)
        for s in (int(i) for i in np.flatnonzero(data.nil_mask)):
            derived = f"FM(2,{s},{base})"
            holds = ctx.gwnc(derived)
            ran = True
            if holds and not ctx.flag(base, "weakly_nil_clean"):
                result.details.append(
                    f"FAIL {derived}: GWNC but {base} is not weakly nil-clean; "
                    f"{_repro(base)}"
                )
            elif ctx.flag(base, "nil_clean") and not holds:
                result.details.append(
                    f"FAIL {derived}: {base} is nil-clean but the formal matrix "
                    f"ring is not GWNC; {_repro(derived)}"
                )
            else:
                result.details.append(f"ok {derived}: gwnc={holds}")
    return _finish(result, ran)


# ---------------------------------------------------------------------------
# group rings


@_register("L-3.1", "a GWNC group ring has a GWNC coefficient ring")
def _check_l31(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-3.1", CHECKS["L-3.1"][0], "pass")
    ran = False
    for rg_expr, base_expr in GROUP_RINGS:
        if not ctx.gwnc(rg_expr):
            result.details.append(f"ok {rg_expr}: not GWNC, implication vacuous")
            ran = True
            continue
        ran = True
        if ctx.gwnc(base_expr):
            result.details.append(f"ok {rg_expr}: base {base_expr} is GWNC")
        else:
            result.details.append(
                f"FAIL {rg_expr}: GWNC but base {base_expr} is not; {_repro(base_expr)}"
            )
    return _finish(result, ran)


@_register(
    "L-3.2",
    "group rings of p-groups over GWNC rings with p nilpotent are GWNC",
)
def _check_l32(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-3.2", CHECKS["L-3.2"][0], "pass")
    ran = False
    cases = (
        ("GR(Z(2),C(2))", "Z(2)", 2),
        ("GR(Z(4),C(2))", "Z(4)", 2),
        ("GR(Z(2),C(4))", "Z(2)", 2),
        ("GR(Z(2),C(2) x C(2))", "Z(2)", 2),
        ("GR(Z(9),C(3))", "Z(9)", 3),
    )
    for rg_expr, base_expr, p in cases:
        base = ctx.ring(base_expr)
        if not structure.ring_data(base).nil_mask[_times(base, p)]:
            result.details.append(f"FAIL {rg_expr}: {p} is not nilpotent in {base_expr}")
            continue
        group = _unwrap(ctx.ring(rg_expr)).group
        if not group.is_p_group(p):
            result.details.append(f"FAIL {rg_expr}: group is not a {p}-group")
            continue
        ran = True
        if ctx.gwnc(rg_expr):
            result.details.append(f"ok {rg_expr}: GWNC")
        else:
            cx = ctx.counterexample(rg_expr, "gwnc")
            result.details.append(
                f"FAIL {rg_expr}: expected GWNC, counterexample element {cx}; "
                f"{_repro(rg_expr)}"
            )
    return _finish(result, ran)


@_register(
    "L-3.3",
    "in a GWNC ring, 2 is invertible or 2 is nilpotent or 6 is nilpotent",
)
def _check_l33(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-3.3", CHECKS["L-3.3"][0], "pass")
    ran = False
    for entry in CATALOG:
        expr = entry.expression
        if not ctx.gwnc(expr):
            continue
        ring = ctx.ring(expr)
        data = structure.ring_data(ring)
        two = _times(ring, 2)
        six = _times(ring, 6)
        ran = True
        if data.unit_mask[two] or data.nil_mask[two] or data.nil_mask[six]:
            result.details.append(f"ok {expr}")
        else:
            result.details.append(
                f"FAIL {expr}: GWNC but 2 is neither invertible nor nilpotent "
                f"and 6 is not nilpotent; {_repro(expr)}"
            )
    return _finish(result, ran)


@_register(
    "L-3.4",
    "when 2 is not invertible, GWNC means GNC or weakly nil-clean",
)
def _check_l34(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("L-3.4", CHECKS["L-3.4"][0], "pass")
    ran = False
    for entry in CATALOG:
        expr = entry.expression
        ring = ctx.ring(expr)
        if structure.ring_data(ring).unit_mask[_times(ring, 2)]:
            continue
        lhs = ctx.flag(expr, "gwnc")
        rhs = ctx.flag(expr, "gnc") or ctx.flag(expr, "weakly_nil_clean")
        ran = True
        if lhs == rhs:
            result.details.append(f"ok {expr}: gwnc={lhs}")
        else:
            result.details.append(
                f"FAIL {expr}: gwnc={lhs} but GNC-or-weakly-nil-clean={rhs}; "
                f"{_repro(expr)}"
            )
    return _finish(result, ran)


@_register(
    "T-3.6",
    "a GWNC group ring over a ring where 2 is not invertible forces a "
    "2-group with 2 nilpotent",
)
def _check_t36(ctx: VerifyContext) -> CheckResult:
    result = CheckResult("T-3.6", CHECKS["T-3.6"][0], "pass")
    ran = False
    for rg_expr, base_expr in GROUP_RINGS:
        base = ctx.ring(base_expr)
        data = structure.ring_data(base)
        if data.unit_mask[_times(base, 2)]:
            result.details.append(f"note {rg_expr}: 2 invertible in {base_expr}, filtered out")
            continue
        group = _unwrap(ctx.ring(rg_expr)).group
        if group.order == 1 or not group.is_abelian:
            result.details.append(f"note {rg_expr}: group not nontrivial abelian, filtered out")
            continue
        ran = True
        if not ctx.gwnc(rg_expr):
            result.details.append(f"ok {rg_expr}: not GWNC, implication vacuous")
            continue
        if group.is_p_group(2) and data.nil_mask[_times(base, 2)]:
            result.details.append(f"ok {rg_expr}: 2-group over 2-nilpotent base")
        else:
            result.details.append(
                f"FAIL {rg_expr}: GWNC but group order {group.order} is not a "
                f"power of 2 with 2 nilpotent; {_repro(rg_expr)}"
            )
    got = ctx.gwnc("GR(Z(2),C(3))")
    if got:
        result.details.append(
            f"FAIL GR(Z(2),C(3)): expected not GWNC; {_repro('GR(Z(2),C(3))')}"
        )
    else:
        result.details.append("ok GR(Z(2),C(3)): not GWNC (decisive negative)")
    return _finish(result, ran)


# ---------------------------------------------------------------------------
# runners


def run_check(
    check_id: str,
    max_card: int | None = None,
    memo_threshold: int | None = None,
    threads: int = 1,
    ctx: VerifyContext | None = None,
) -> CheckResult:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    if ctx is None:
        ctx = VerifyContext(max_card=max_card, memo_threshold=memo_threshold, threads=threads)
    _, fn = CHECKS[check_id]
    return fn(ctx)


def run_all(
    max_card: int | None = None,
    memo_threshold: int | None = None,
    threads: int = 1,
    only: str | None = None,
) -> VerifySummary:
    ctx = VerifyContext(max_card=max_card, memo_threshold=memo_threshold, threads=threads)
    ids = sorted(CHECKS) if only is None else [only]
    results = [run_check(i, ctx=ctx) for i in ids]
    return VerifySummary(results)


def axiom_suite(max_card: int = 512, guard: int | None = None) -> list[str]:
    """Run the exhaustive ring-axiom suite over every catalog construction
    small enough, returning the labels checked."""
    ctx = VerifyContext(max_card=guard)
    checked = []
    extra = [
        "T(3,Z(2))",
        "T(2,Z(4))",
        "TE(Z(6))",
        "PQ(Z(3),[0,0,1])",
        "GR(Z(2),C(4))",
        "GR(Z(2),C(2) x C(2))",
        "FM(2,2,Z(4))",
        "PAT(S(2,2),Z(2))",
        "PAT(Tb(2,2),Z(3))",
        "PAT(U(3),Z(2))",
        "MODJ(Z(12))",
    ]
    for expr in [e.expression for e in CATALOG] + extra:
        ring = ctx.ring(expr)
        if ring.card <= max_card:
            check_ring_axioms(ring, max_card=max_card)
            checked.append(expr)
    return checked
