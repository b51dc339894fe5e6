"""Regression harness: a named catalog of finite rings plus one check per
claim of the classification theory, each reporting pass, fail, or
skipped-by-guard.

Check identifiers index the claim catalog (T- theorem, P- proposition,
L- lemma, C- corollary, EX- worked example); a failing check always
carries a counterexample reproducible through the command line.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GuardError,
    Ring,
    Subset,
    TableRing,
    additive_span,
    default_max_card,
    maybe_memoize,
)
from . import constructions as cons
from . import decompositions as dec
from . import structure
from .dsl import Term, build, canonical, parse


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
    """Shared ring/flag cache for one harness run, under one card guard."""

    def __init__(self, max_card: int | None = None) -> None:
        self.max_card = default_max_card() if max_card is None else max_card
        self._rings: dict[str, Ring] = {}  # keyed by canonical text
        self._parsed: dict[str, tuple[str, Term]] = {}

    def parsed(self, text: str) -> tuple[str, Term]:
        """Canonical text and expression of a ring text, parsed once per run."""
        hit = self._parsed.get(text)
        if hit is None:
            expr = parse(text)
            hit = self._parsed[text] = (canonical(expr), expr)
        return hit

    def pair_text(self, a: str, b: str) -> str:
        return f"({self.parsed(a)[0]} x {self.parsed(b)[0]})"

    def ring(self, text: str) -> Ring:
        key, expr = self.parsed(text)
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = maybe_memoize(build(expr, max_card=self.max_card))
        return ring

    def pair_ring(self, a: str, b: str) -> Ring:
        """Direct product of two catalog rings, sharing the cached factors:
        the rule of ``maybe_memoize``, which tabulates no product, so its
        invariants and nil sign masks come from the factors'."""
        key = self.pair_text(a, b)
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


#: check id -> (description, body); a body ``fn(ctx, details) -> bool``
#: appends its detail lines and returns whether it compared anything,
#: and ``run_check`` turns that into a ``CheckResult``
CHECKS: dict[str, tuple[str, object]] = {}


def _register(check_id: str, description: str):
    def wrap(fn):
        CHECKS[check_id] = (description, fn)
        return fn

    return wrap


def _guarded_gwnc(ctx: VerifyContext, details: list[str], expr: str) -> bool | None:
    """GWNC of one ring, or None after a SKIP line when building it would
    exceed the guard."""
    try:
        return ctx.gwnc(expr)
    except GuardError as exc:
        details.append(f"SKIP {expr}: {exc}")
        return None


def _gwnc_preserved(ctx: VerifyContext, details: list[str], pairs) -> bool:
    """Whether each derived ring has the GWNC of its base, over (base,
    derived) pairs; returns whether any derived ring was compared."""
    ran = False
    for base, derived in pairs:
        lhs = ctx.gwnc(base)
        rhs = _guarded_gwnc(ctx, details, derived)
        if rhs is None:
            continue
        ran = True
        if lhs == rhs:
            details.append(f"ok {derived}: gwnc={rhs} matches {base}")
        else:
            details.append(
                f"FAIL {derived}: gwnc={rhs} but {base} has gwnc={lhs}; {_repro(derived)}"
            )
    return ran


def _gwnc_agrees(details: list[str], expr: str, gwnc: bool, label: str, value: bool) -> None:
    if gwnc == value:
        details.append(f"ok {expr}: gwnc={gwnc}, {label}={value}")
    else:
        details.append(f"FAIL {expr}: gwnc={gwnc} but {label}={value}; {_repro(expr)}")


def _gwnc_expected(ctx: VerifyContext, details: list[str], expr: str, expected: bool) -> None:
    got = ctx.gwnc(expr)
    if got == expected:
        details.append(f"ok {expr}: gwnc={got}")
    else:
        details.append(f"FAIL {expr}: gwnc expected {expected} got {got}; {_repro(expr)}")


# ---------------------------------------------------------------------------
# catalog expectation checks


def _describe(entry: CatalogEntry) -> str:
    return f"expected flags of {entry.expression} ({entry.source})"


def _expected_flags(entry: CatalogEntry, ctx: VerifyContext, details: list[str]) -> bool:
    ring = ctx.ring(entry.expression)
    for name, expected in entry.expected:
        got = dec.ring_flag(ring, name)
        if got == expected:
            details.append(f"ok {entry.expression}: {name}={got}")
        else:
            cx = dec.flag_counterexample(ring, name)
            cx_note = f", counterexample element {cx}" if cx is not None else ""
            details.append(
                f"FAIL {entry.expression}: {name} expected {expected} got {got}"
                f"{cx_note}; {_repro(entry.expression)}"
            )
    return bool(entry.expected)


def check_catalog_entry(ctx: VerifyContext, entry: CatalogEntry) -> CheckResult:
    return _run(entry.id, _describe(entry), functools.partial(_expected_flags, entry), ctx)


for _entry in CATALOG:
    if _entry.expected:
        _register(_entry.id, _describe(_entry))(functools.partial(_expected_flags, _entry))


# ---------------------------------------------------------------------------
# element-level lemmas


@_register("L-2.2", "the negative of a weakly nil-clean element is weakly clean")
def _check_l22(ctx: VerifyContext, details: list[str]) -> bool:
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        data = structure.ring_data(ring)
        wnc = np.flatnonzero(data.decomposes("weakly_nil_clean"))
        keys = dec.idempotent_scan(ring, "weakly_clean", ring.neg_vec(wnc))
        bad = wnc[keys == 2 * len(data.idem_indices)]
        if len(bad):
            a = int(bad[0])
            details.append(
                f"FAIL {entry.expression}: element {a} is weakly nil-clean but "
                f"-{a} is not weakly clean; {_repro(entry.expression)}"
            )
        else:
            details.append(f"ok {entry.expression}")
    return True


@_register("C-2.3", "GWNC rings are weakly clean")
def _check_c23(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for entry in CATALOG:
        if not ctx.gwnc(entry.expression):
            continue
        ran = True
        if ctx.flag(entry.expression, "weakly_clean"):
            details.append(f"ok {entry.expression}")
        else:
            cx = ctx.counterexample(entry.expression, "weakly_clean")
            details.append(
                f"FAIL {entry.expression}: GWNC but not weakly clean "
                f"(element {cx}); {_repro(entry.expression)}"
            )
    return ran


@_register("L-2.4", "the Jacobson radical of a GWNC ring is nil")
def _check_l24(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        if not ctx.gwnc(entry.expression):
            continue
        ran = True
        if structure.is_nil_subset(ring, structure.jacobson(ring)):
            details.append(f"ok {entry.expression}")
        else:
            details.append(
                f"FAIL {entry.expression}: radical is not nil; {_repro(entry.expression)}"
            )
    return ran


@_register(
    "L-2.6",
    "a GWNC ring with 2 invertible and every unit an involution is commutative",
)
def _check_l26(ctx: VerifyContext, details: list[str]) -> bool:
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
            details.append(f"ok {entry.expression}")
        else:
            details.append(
                f"FAIL {entry.expression}: preconditions hold but the ring is "
                f"not commutative; {_repro(entry.expression)}"
            )
    return ran


# ---------------------------------------------------------------------------
# nil-ideal quotient machinery


def _nil_ideals(ring: Ring) -> list[Subset]:
    """All ideals generated by at most two radical elements (deduplicated);
    every such ideal sits inside J, hence is nil in a finite ring.  The
    ideal generated by {a, b} is I(a) + I(b), the additive span of the
    union, so each principal ideal I(j) is generated once and the others
    are the sums of two distinct ones."""
    seen: dict[bytes, Subset] = {}
    for j in structure.jacobson(ring):
        ideal = cons.ideal_generated(ring, [j])
        seen.setdefault(ideal.mask.tobytes(), ideal)
    for a, b in itertools.combinations(list(seen.values()), 2):
        mask = additive_span(ring, np.flatnonzero(a.mask | b.mask))[0]
        seen.setdefault(mask.tobytes(), Subset(ring, mask))
    return list(seen.values())


@_register("P-2.8", "a ring and its quotient by a nil ideal agree on GWNC")
def _check_p28(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for expr in ("T(2,Z(4))", "TE(Z(6))", "PQ(Z(3),[0,0,1])"):
        ring = ctx.ring(expr)
        lhs = ctx.gwnc(expr)
        ideals = _nil_ideals(ring)
        for ideal in ideals:
            if not structure.is_nil_subset(ring, ideal):
                details.append(f"FAIL {expr}: enumerated ideal of size {len(ideal)} is not nil")
                continue
            quotient = maybe_memoize(cons.quotient_by_ideal(ring, ideal))
            rhs, _ = dec.gwnc(quotient)
            ran = True
            if lhs != rhs:
                details.append(
                    f"FAIL {expr}: gwnc={lhs} but quotient by ideal of size "
                    f"{len(ideal)} has gwnc={rhs}; {_repro(expr)}"
                )
        details.append(f"ok {expr}: {len(ideals)} nil ideals agree")
    return ran


@_register(
    "C-2.11",
    "trivial extensions and truncated polynomial rings preserve GWNC exactly",
)
def _check_c211(ctx: VerifyContext, details: list[str]) -> bool:
    return _gwnc_preserved(
        ctx,
        details,
        (
            (f"Z({n})", derived)
            for n in range(2, 10)
            for derived in (f"TE(Z({n}))", f"PQ(Z({n}),[0,0,1])", f"PQ(Z({n}),[0,0,0,1])")
        ),
    )


@_register(
    "C-2.13",
    "the twice-iterated trivial extension preserves GWNC and matches its 4x4 frame",
)
def _check_c213(ctx: VerifyContext, details: list[str]) -> bool:
    _gwnc_preserved(ctx, details, ((f"Z({n})", f"TE(TE(Z({n})))") for n in (2, 3, 5, 6)))
    for n in (2, 3):
        ok, note = _dt_frame_agrees(ctx, n)
        details.append(("ok " if ok else "FAIL ") + note)
    return True


def _dt_frame_agrees(ctx: VerifyContext, n: int) -> tuple[bool, str]:
    """Exhaustive check that TE(TE(Z(n))) is the 4x4 frame
    [[a,b,c,d],[0,a,0,c],[0,0,a,b],[0,0,0,a]] on the same indices, plus
    agreement of every classification flag.  Both encode ((a,b),(c,d)) as
    the base-n digits a, b, c, d, so the coordinate map is the identity and
    the two rings' operations must agree on every pair."""
    tt = ctx.ring(f"TE(TE(Z({n})))")
    frame = maybe_memoize(cons.pattern_subring(cons.double_extension_pattern(), cons.zmod(n)))
    if tt.card != frame.card:
        return False, f"DT frame over Z({n}): card mismatch"
    if tt.one != frame.one:
        return False, f"DT frame over Z({n}): coordinate map misses the identity"
    ar = np.arange(tt.card, dtype=np.int64)
    left, right = ar[:, None], ar
    if not np.array_equal(tt.add_vec(left, right), frame.add_vec(left, right)):
        return False, f"DT frame over Z({n}): coordinate map breaks addition"
    if not np.array_equal(tt.mul_vec(left, right), frame.mul_vec(left, right)):
        return False, f"DT frame over Z({n}): coordinate map breaks multiplication"
    rep_tt = dec.classify(tt)
    rep_fr = dec.classify(frame)
    if rep_tt.flags != rep_fr.flags:
        return False, f"DT frame over Z({n}): classification flags differ"
    return True, f"DT frame over Z({n}): exhaustive homomorphism and flag agreement"


@_register("C-2.16-i", "constant-diagonal triangular frames preserve GWNC exactly")
def _check_c216(ctx: VerifyContext, details: list[str]) -> bool:
    return _gwnc_preserved(
        ctx,
        details,
        ((f"Z({n})", f"PAT({pat},Z({n}))") for pat in ("S(2)", "S(3)") for n in (2, 3, 6)),
    )


@_register("C-2.17", "the S(n,m), Tb(n,m) and U(n) frames preserve GWNC exactly")
def _check_c217(ctx: VerifyContext, details: list[str]) -> bool:
    return _gwnc_preserved(
        ctx,
        details,
        (
            (f"Z({n})", f"PAT({pat},Z({n}))")
            for pat in ("S(2,2)", "Tb(2,2)", "U(3)")
            for n in (2, 3)
        ),
    )


# ---------------------------------------------------------------------------
# local / product / triangular structure


@_register(
    "P-2.18",
    "with only trivial idempotents, GWNC is equivalent to local with nil radical",
)
def _check_p218(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for expr in ("Z(4)", "Z(9)", "GF(2,2)", "Z(5)"):
        ring = ctx.ring(expr)
        data = structure.ring_data(ring)
        if int(data.idem_mask.sum()) != 2:
            details.append(f"FAIL {expr}: expected only trivial idempotents")
            continue
        lhs = ctx.gwnc(expr)
        rhs = structure.is_local(ring) and structure.is_nil_subset(
            ring, structure.jacobson(ring)
        )
        ran = True
        _gwnc_agrees(details, expr, lhs, "local-with-nil-radical", rhs)
    return ran


@_register(
    "P-2.19",
    "a GWNC direct product has weakly nil-clean factors",
)
def _check_p219(ctx: VerifyContext, details: list[str]) -> bool:
    skipped = 0
    checked = 0
    exprs = [e.expression for e in CATALOG]
    for a, b in itertools.combinations_with_replacement(exprs, 2):
        pair = ctx.pair_text(a, b)
        try:
            holds = dec.ring_flag(ctx.pair_ring(a, b), "gwnc")
        except GuardError:
            skipped += 1
            continue
        checked += 1
        if not holds:
            continue
        for factor in (a, b):
            if not ctx.flag(factor, "weakly_nil_clean"):
                cx = ctx.counterexample(factor, "weakly_nil_clean")
                details.append(
                    f"FAIL {pair}: GWNC but factor {factor} is not weakly "
                    f"nil-clean (element {cx}); {_repro(factor)}"
                )
    details.append(f"ok {checked} catalog pairs checked, {skipped} skipped by guard")
    return checked > 0


@_register(
    "P-2.21",
    "a triple product is GWNC iff all factors are weakly nil-clean and at "
    "most one is not nil-clean",
)
def _check_p221(ctx: VerifyContext, details: list[str]) -> bool:
    atoms = ("Z(2)", "Z(3)", "Z(4)")
    for a, b, c in itertools.product(atoms, repeat=3):
        triple = f"(({a} x {b}) x {c})"
        lhs = ctx.gwnc(triple)
        wnc_all = all(ctx.flag(x, "weakly_nil_clean") for x in (a, b, c))
        not_nc = sum(1 for x in (a, b, c) if not ctx.flag(x, "nil_clean"))
        rhs = wnc_all and not_nc <= 1
        if lhs != rhs:
            details.append(
                f"FAIL {triple}: gwnc={lhs} but factor criterion gives {rhs}; "
                f"{_repro(triple)}"
            )
    _gwnc_expected(ctx, details, "((Z(2) x Z(3)) x Z(3))", False)
    _gwnc_expected(ctx, details, "((Z(2) x Z(2)) x Z(3))", True)
    return True


@_register(
    "P-2.25",
    "a 3x3 triangular ring is GWNC exactly when its base is nil-clean",
)
def _check_p225(ctx: VerifyContext, details: list[str]) -> bool:
    for base, want in (("Z(2)", True), ("Z(4)", True), ("Z(3)", False)):
        derived = f"T(3,{base})"
        lhs = ctx.gwnc(derived)
        rhs = ctx.flag(base, "nil_clean")
        if lhs != rhs:
            details.append(
                f"FAIL {derived}: gwnc={lhs} but nil-clean({base})={rhs}; {_repro(derived)}"
            )
        _gwnc_expected(ctx, details, derived, want)
    return True


@_register("L-2.27", "with 2 in the radical, GWNC and GNC coincide")
def _check_l227(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for expr in ("Z(4)", "Z(8)", "T(2,Z(2))", "TE(Z(4))"):
        ring = ctx.ring(expr)
        two = _times(ring, 2)
        if not structure.ring_data(ring).jacobson_mask[two]:
            details.append(f"FAIL {expr}: 2 is not in the radical")
            continue
        ran = True
        g1 = ctx.flag(expr, "gwnc")
        g2 = ctx.flag(expr, "gnc")
        if g1 == g2:
            details.append(f"ok {expr}: gwnc=gnc={g1}")
        else:
            details.append(f"FAIL {expr}: gwnc={g1} but gnc={g2}; {_repro(expr)}")
    return ran


# ---------------------------------------------------------------------------
# flag identity networks


@_register(
    "L-2.28",
    "strongly weakly nil-clean is exactly WUU together with GWNC",
)
def _check_l228(ctx: VerifyContext, details: list[str]) -> bool:
    for entry in CATALOG:
        expr = entry.expression
        lhs = ctx.flag(expr, "strongly_weakly_nil_clean")
        rhs = ctx.flag(expr, "wuu") and ctx.flag(expr, "gwnc")
        if lhs != rhs:
            details.append(
                f"FAIL {expr}: strongly-weakly-nil-clean={lhs} but WUU&GWNC={rhs}; "
                f"{_repro(expr)}"
            )
    details.append("ok flag identity holds across the catalog")
    return True


@_register("L-2.29", "strongly nil-clean is exactly UU together with GWNC")
def _check_l229(ctx: VerifyContext, details: list[str]) -> bool:
    for entry in CATALOG:
        expr = entry.expression
        lhs = ctx.flag(expr, "strongly_nil_clean")
        rhs = ctx.flag(expr, "uu") and ctx.flag(expr, "gwnc")
        if lhs != rhs:
            details.append(
                f"FAIL {expr}: strongly-nil-clean={lhs} but UU&GWNC={rhs}; {_repro(expr)}"
            )
    details.append("ok flag identity holds across the catalog")
    return True


@_register("C-2.30", "on UU rings, nine clean-family properties coincide")
def _check_c230(ctx: VerifyContext, details: list[str]) -> bool:
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
            details.append(
                f"FAIL {expr}: UU ring with diverging properties {values}; {_repro(expr)}"
            )
        else:
            details.append(f"ok {expr}: all nine equal {values['gwnc']}")
    return ran


# ---------------------------------------------------------------------------
# matrix rings over fields


@_register(
    "L-2.33",
    "full matrix rings over the field of order q are GWNC exactly for "
    "q=2 (any size) and q=3 at size 2",
)
def _check_l233(ctx: VerifyContext, details: list[str]) -> bool:
    cases = (
        ("M(2,Z(2))", True),
        ("M(2,Z(3))", True),
        ("M(2,GF(2,2))", False),
        ("M(2,Z(5))", False),
        ("M(3,Z(2))", True),
        ("M(3,Z(3))", False),
    )
    for expr, expected in cases:
        _gwnc_expected(ctx, details, expr, expected)
    # spot checks: diag(a, 0) is not weakly nil-clean for a outside {0, 1, -1}
    for field_expr, scalars in (("GF(2,2)", (2, 3)), ("Z(5)", (2, 3))):
        mat_expr = f"M(2,{field_expr})"
        ring = ctx.ring(mat_expr)
        base_card = ctx.ring(field_expr).card
        diagonals = [a * base_card**3 for a in scalars]  # entry (0,0) most significant
        for a, (ok, _) in zip(scalars, dec.witnesses(ring, "weakly_nil_clean", diagonals)):
            if ok:
                details.append(
                    f"FAIL {mat_expr}: diag({a},0) unexpectedly weakly nil-clean; "
                    f"{_repro(mat_expr)}"
                )
            else:
                details.append(f"ok {mat_expr}: diag({a},0) not weakly nil-clean")
    return True


@_register(
    "T-2.35",
    "over a commutative base, a 3x3 matrix ring is GWNC iff it is nil-clean",
)
def _check_t235(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for base in ("Z(2)", "Z(3)", "Z(4)"):
        derived = f"M(3,{base})"
        lhs = _guarded_gwnc(ctx, details, derived)
        if lhs is None:
            continue
        ran = True
        _gwnc_agrees(details, derived, lhs, "nil-clean", ctx.flag(derived, "nil_clean"))
    return ran


@_register(
    "T-2.36",
    "finite rings are GWNC exactly when local with nil radical, or the "
    "radical quotient is the 2x2 matrices over the 3-element field or the "
    "square of that field, or the ring is weakly nil-clean",
)
def _check_t236(ctx: VerifyContext, details: list[str]) -> bool:
    for entry in CATALOG:
        expr = entry.expression
        ring = ctx.ring(expr)
        lhs = ctx.gwnc(expr)
        j_nil = structure.is_nil_subset(ring, structure.jacobson(ring))
        quotient = maybe_memoize(structure.mod_j(ring))
        fp = structure.wedderburn_fingerprint(quotient).blocks
        rhs = (
            (structure.is_local(ring) and j_nil)
            or (fp == ((2, 3),) and j_nil)
            or (fp == ((1, 3), (1, 3)) and j_nil)
            or ctx.flag(expr, "weakly_nil_clean")
        )
        if lhs == rhs:
            details.append(f"ok {expr}: gwnc={lhs}")
        else:
            details.append(
                f"FAIL {expr}: gwnc={lhs} but the four-clause criterion gives "
                f"{rhs} (fingerprint {fp}); {_repro(expr)}"
            )
    return True


@_register(
    "P-2.41",
    "for commutative bases, a 3x3 matrix ring is GWNC iff the radical "
    "quotient of the base is Boolean",
)
def _check_p241(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for base in ("Z(2)", "Z(4)"):
        derived = f"M(3,{base})"
        lhs = _guarded_gwnc(ctx, details, derived)
        if lhs is None:
            continue
        quotient = maybe_memoize(structure.mod_j(ctx.ring(base)))
        rhs = structure.is_boolean_ring(quotient)
        ran = True
        _gwnc_agrees(details, derived, lhs, "base radical quotient boolean", rhs)
    return ran


def _boolean_criterion(predicate: str, ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for base in ("Z(2)", "Z(6)", "GF(2,2)", "Z(3)"):
        ring = ctx.ring(base)
        holds = structure.is_reduced(ring)
        if predicate == "strongly_regular":
            # a finite ring is strongly regular exactly when it is
            # semisimple and reduced
            holds = holds and structure.is_semisimple(ring)
        if not holds:
            details.append(f"note {base}: not {predicate}, filtered out")
            continue
        derived = f"M(3,{base})"
        lhs = _guarded_gwnc(ctx, details, derived)
        if lhs is None:
            continue
        ran = True
        _gwnc_agrees(details, derived, lhs, f"boolean({base})", structure.is_boolean_ring(ring))
    return ran


_register(
    "C-2.46",
    "for reduced bases, a 3x3 matrix ring is GWNC iff the base is Boolean",
)(functools.partial(_boolean_criterion, "reduced"))

_register(
    "C-2.47",
    "for strongly regular bases, a 3x3 matrix ring is GWNC iff the base is Boolean",
)(functools.partial(_boolean_criterion, "strongly_regular"))


@_register(
    "C-2.51",
    "formal 2x2 matrix rings twisted by a central nilpotent preserve the "
    "weakly nil-clean link",
)
def _check_c251(ctx: VerifyContext, details: list[str]) -> bool:
    for base in ("Z(4)", "Z(8)"):
        ring = ctx.ring(base)
        data = structure.ring_data(ring)
        for s in (int(i) for i in np.flatnonzero(data.nil_mask)):
            derived = f"FM(2,{s},{base})"
            holds = ctx.gwnc(derived)
            if holds and not ctx.flag(base, "weakly_nil_clean"):
                details.append(
                    f"FAIL {derived}: GWNC but {base} is not weakly nil-clean; "
                    f"{_repro(base)}"
                )
            elif ctx.flag(base, "nil_clean") and not holds:
                details.append(
                    f"FAIL {derived}: {base} is nil-clean but the formal matrix "
                    f"ring is not GWNC; {_repro(derived)}"
                )
            else:
                details.append(f"ok {derived}: gwnc={holds}")
    return True


# ---------------------------------------------------------------------------
# group rings


@_register("L-3.1", "a GWNC group ring has a GWNC coefficient ring")
def _check_l31(ctx: VerifyContext, details: list[str]) -> bool:
    for rg_expr, base_expr in GROUP_RINGS:
        if not ctx.gwnc(rg_expr):
            details.append(f"ok {rg_expr}: not GWNC, implication vacuous")
        elif ctx.gwnc(base_expr):
            details.append(f"ok {rg_expr}: base {base_expr} is GWNC")
        else:
            details.append(
                f"FAIL {rg_expr}: GWNC but base {base_expr} is not; {_repro(base_expr)}"
            )
    return True


@_register(
    "L-3.2",
    "group rings of p-groups over GWNC rings with p nilpotent are GWNC",
)
def _check_l32(ctx: VerifyContext, details: list[str]) -> bool:
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
            details.append(f"FAIL {rg_expr}: {p} is not nilpotent in {base_expr}")
            continue
        group = _unwrap(ctx.ring(rg_expr)).group
        if not group.is_p_group(p):
            details.append(f"FAIL {rg_expr}: group is not a {p}-group")
            continue
        ran = True
        if ctx.gwnc(rg_expr):
            details.append(f"ok {rg_expr}: GWNC")
        else:
            cx = ctx.counterexample(rg_expr, "gwnc")
            details.append(
                f"FAIL {rg_expr}: expected GWNC, counterexample element {cx}; "
                f"{_repro(rg_expr)}"
            )
    return ran


@_register(
    "L-3.3",
    "in a GWNC ring, 2 is invertible or 2 is nilpotent or 6 is nilpotent",
)
def _check_l33(ctx: VerifyContext, details: list[str]) -> bool:
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
            details.append(f"ok {expr}")
        else:
            details.append(
                f"FAIL {expr}: GWNC but 2 is neither invertible nor nilpotent "
                f"and 6 is not nilpotent; {_repro(expr)}"
            )
    return ran


@_register(
    "L-3.4",
    "when 2 is not invertible, GWNC means GNC or weakly nil-clean",
)
def _check_l34(ctx: VerifyContext, details: list[str]) -> bool:
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
            details.append(f"ok {expr}: gwnc={lhs}")
        else:
            details.append(
                f"FAIL {expr}: gwnc={lhs} but GNC-or-weakly-nil-clean={rhs}; "
                f"{_repro(expr)}"
            )
    return ran


@_register(
    "T-3.6",
    "a GWNC group ring over a ring where 2 is not invertible forces a "
    "2-group with 2 nilpotent",
)
def _check_t36(ctx: VerifyContext, details: list[str]) -> bool:
    ran = False
    for rg_expr, base_expr in GROUP_RINGS:
        base = ctx.ring(base_expr)
        data = structure.ring_data(base)
        if data.unit_mask[_times(base, 2)]:
            details.append(f"note {rg_expr}: 2 invertible in {base_expr}, filtered out")
            continue
        group = _unwrap(ctx.ring(rg_expr)).group
        if group.order == 1 or not group.is_abelian:
            details.append(f"note {rg_expr}: group not nontrivial abelian, filtered out")
            continue
        ran = True
        if not ctx.gwnc(rg_expr):
            details.append(f"ok {rg_expr}: not GWNC, implication vacuous")
        elif group.is_p_group(2) and data.nil_mask[_times(base, 2)]:
            details.append(f"ok {rg_expr}: 2-group over 2-nilpotent base")
        else:
            details.append(
                f"FAIL {rg_expr}: GWNC but group order {group.order} is not a "
                f"power of 2 with 2 nilpotent; {_repro(rg_expr)}"
            )
    if ctx.gwnc("GR(Z(2),C(3))"):
        details.append(f"FAIL GR(Z(2),C(3)): expected not GWNC; {_repro('GR(Z(2),C(3))')}")
    else:
        details.append("ok GR(Z(2),C(3)): not GWNC (decisive negative)")
    return ran


# ---------------------------------------------------------------------------
# runners


def _run(check_id: str, description: str, body, ctx: VerifyContext) -> CheckResult:
    """Run one check body.  A check fails when any detail line starts with
    FAIL, is skipped when it compared nothing, and passes otherwise; a
    guard hit anywhere in the body ends it with a SKIP line, so it is then
    skipped, or failed when it had already recorded a FAIL."""
    result = CheckResult(check_id, description, "pass")
    try:
        ran = body(ctx, result.details)
    except GuardError as exc:
        result.details.append(f"SKIP: {exc}")
        ran = False
    if any(d.startswith("FAIL") for d in result.details):
        result.status = "fail"
    elif not ran:
        result.status = "skipped"
    return result


def run_check(
    check_id: str, max_card: int | None = None, ctx: VerifyContext | None = None
) -> CheckResult:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    if ctx is None:
        ctx = VerifyContext(max_card=max_card)
    description, body = CHECKS[check_id]
    return _run(check_id, description, body, ctx)


def run_all(max_card: int | None = None, only: str | None = None) -> VerifySummary:
    ctx = VerifyContext(max_card=max_card)
    ids = sorted(CHECKS) if only is None else [only]
    results = [run_check(i, ctx=ctx) for i in ids]
    return VerifySummary(results)
