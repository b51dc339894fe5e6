"""Regression harness: a named catalog of finite rings plus one check per
claim of the classification theory, each reporting pass, fail, or
skipped-by-guard.

Check identifiers index the claim catalog (T- theorem, P- proposition,
L- lemma, C- corollary, EX- worked example).  A check writes detail
lines, each starting with one word:

* ``ok EXPR...``: a claim holds on the ring EXPR (or a summary holds);
* ``FAIL EXPR: why; reproduce: ringlab classify "TEXT" --witness``: a
  claim fails, and the command shows the ring it fails on;
* ``SKIP EXPR: ...`` when the check leaves out a ring beyond the card
  guard, or ``SKIP: ...`` when a ring beyond the guard ends the check;
* ``note EXPR: ...``: a ring outside the claim's premise, or a count.

A check's status is read off its lines: it fails when any line is a
FAIL; otherwise it is skipped when a ``SKIP:`` line ended it or no line
is ``ok`` (it compared nothing), and passes when some line is.
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
        return self._ring(*self.parsed(text))

    def pair_ring(self, a: str, b: str) -> Ring:
        """``ring`` of ``pair_text(a, b)``, from the factors' terms: the
        catalog pairs are not parsed again."""
        return self._ring(self.pair_text(a, b), Term("x", (self.parsed(a)[1], self.parsed(b)[1])))

    def _ring(self, key: str, expr: Term) -> Ring:
        """The ring of a term with canonical text ``key``, built once per
        run.  A direct product is built over its cached factor rings, the
        rule of ``maybe_memoize``, which tabulates no product, so its
        invariants and nil sign masks come from the factors' and each
        factor is built once."""
        ring = self._rings.get(key)
        if ring is None:
            if expr.name == "x":
                left, right = (self._ring(canonical(e), e) for e in expr.args)
                ring = cons.direct_product(left, right, max_card=self.max_card)
            else:
                ring = maybe_memoize(build(expr, max_card=self.max_card))
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


def _claim(details: list[str], expr: str, holds, ok: str | None, fail: str, repro=None):
    """Write the verdict line of one claim about ``expr`` and return
    ``holds``: ``ok {expr}{ok}`` when it holds (no line when ``ok`` is
    None), else ``FAIL {expr}: {fail}`` and the command that reproduces
    it, on ``repro`` when given and on ``expr`` otherwise."""
    if not holds:
        details.append(f"FAIL {expr}: {fail}; {_repro(repro or expr)}")
    elif ok is not None:
        details.append(f"ok {expr}{ok}")
    return holds


#: check id -> (description, body); a body ``fn(ctx, details)`` appends
#: its detail lines, and ``run_check`` reads a ``CheckResult`` off them
CHECKS: dict[str, tuple[str, object]] = {}


def _register(check_id: str, description: str):
    def wrap(fn):
        CHECKS[check_id] = (description, fn)
        return fn

    return wrap


_CATALOG_TEXTS = tuple(entry.expression for entry in CATALOG)


def _sweep(premise=None, items=_CATALOG_TEXTS):
    """Turn a verdict ``fn(ctx, details, item)`` into a check body that
    gives it on each item, the catalog's ring texts by default, whose
    ``premise(ctx, details, item)`` holds; a premise may write a line on
    an item it turns away, but never an ``ok`` line, so the check is
    skipped when no item met it."""

    def wrap(verdict):
        def body(ctx: VerifyContext, details: list[str]) -> None:
            for item in items:
                if premise is None or premise(ctx, details, item):
                    verdict(ctx, details, item)

        return body

    return wrap


def _is_gwnc(ctx: VerifyContext, details: list[str], expr: str) -> bool:
    return ctx.gwnc(expr)


def _decided(ctx: VerifyContext, details: list[str], expr: str) -> bool:
    """Whether the GWNC of one ring is decided, after a SKIP line when
    building it would exceed the guard."""
    try:
        ctx.gwnc(expr)
    except GuardError as exc:
        details.append(f"SKIP {expr}: {exc}")
        return False
    return True


def _base_then_derived(ctx: VerifyContext, details: list[str], pair) -> bool:
    """Whether the derived ring of a (base, derived) pair is decided; the
    base is decided first, so a guard below it ends the check."""
    ctx.gwnc(pair[0])
    return _decided(ctx, details, pair[1])


def _gwnc_preserved(pairs):
    """A check body: each derived ring within the guard has the GWNC of its
    base, over (base, derived) pairs."""

    @_sweep(_base_then_derived, tuple(pairs))
    def body(ctx: VerifyContext, details: list[str], pair) -> None:
        base, derived = pair
        lhs, rhs = ctx.gwnc(base), ctx.gwnc(derived)
        ok, fail = f": gwnc={rhs} matches {base}", f"gwnc={rhs} but {base} has gwnc={lhs}"
        _claim(details, derived, lhs == rhs, ok, fail)

    return body


def _gwnc_agrees(details: list[str], expr: str, gwnc: bool, label: str, value: bool) -> None:
    ok, fail = f": gwnc={gwnc}, {label}={value}", f"gwnc={gwnc} but {label}={value}"
    _claim(details, expr, gwnc == value, ok, fail)


def _gwnc_expected(ctx: VerifyContext, details: list[str], expr: str, expected: bool) -> None:
    got = ctx.gwnc(expr)
    _claim(details, expr, got == expected, f": gwnc={got}", f"gwnc expected {expected} got {got}")


# ---------------------------------------------------------------------------
# catalog expectation checks


def _describe(entry: CatalogEntry) -> str:
    return f"expected flags of {entry.expression} ({entry.source})"


def _expected_flags(entry: CatalogEntry, ctx: VerifyContext, details: list[str]) -> None:
    ring = ctx.ring(entry.expression)
    for name, expected in entry.expected:
        got = dec.ring_flag(ring, name)
        cx = dec.flag_counterexample(ring, name)
        fail = f"{name} expected {expected} got {got}"
        if cx is not None:
            fail += f", counterexample element {cx}"
        _claim(details, entry.expression, got == expected, f": {name}={got}", fail)


def check_catalog_entry(ctx: VerifyContext, entry: CatalogEntry) -> CheckResult:
    return _run(entry.id, _describe(entry), functools.partial(_expected_flags, entry), ctx)


for _entry in CATALOG:
    if _entry.expected:
        _register(_entry.id, _describe(_entry))(functools.partial(_expected_flags, _entry))


# ---------------------------------------------------------------------------
# element-level lemmas


@_register("L-2.2", "the negative of a weakly nil-clean element is weakly clean")
@_sweep()
def _check_l22(ctx: VerifyContext, details: list[str], expr: str) -> None:
    ring = ctx.ring(expr)
    data = structure.ring_data(ring)
    wnc = np.flatnonzero(data.decomposes("weakly_nil_clean"))
    keys = dec.idempotent_scan(ring, "weakly_clean", ring.neg_vec(wnc))
    bad = wnc[keys == 2 * len(data.idem_indices)]
    a = int(bad[0]) if len(bad) else None
    fail = f"element {a} is weakly nil-clean but -{a} is not weakly clean"
    _claim(details, expr, a is None, "", fail)


@_register("C-2.3", "GWNC rings are weakly clean")
@_sweep(_is_gwnc)
def _check_c23(ctx: VerifyContext, details: list[str], expr: str) -> None:
    cx = ctx.counterexample(expr, "weakly_clean")
    fail = f"GWNC but not weakly clean (element {cx})"
    _claim(details, expr, ctx.flag(expr, "weakly_clean"), "", fail)


@_register("L-2.4", "the Jacobson radical of a GWNC ring is nil")
@_sweep(_is_gwnc)
def _check_l24(ctx: VerifyContext, details: list[str], expr: str) -> None:
    ring = ctx.ring(expr)
    j_nil = structure.is_nil_subset(ring, structure.jacobson(ring))
    _claim(details, expr, j_nil, "", "radical is not nil")


def _units_involutive(ctx: VerifyContext, details: list[str], expr: str) -> bool:
    """The premise of L-2.6: 2 is a unit, every unit squares to 1 and the
    ring is GWNC."""
    ring = ctx.ring(expr)
    data = structure.ring_data(ring)
    if not data.unit_mask[_times(ring, 2)]:
        return False
    uidx = np.flatnonzero(data.unit_mask)
    return bool((ring.mul_vec(uidx, uidx) == ring.one).all()) and ctx.gwnc(expr)


@_register(
    "L-2.6",
    "a GWNC ring with 2 invertible and every unit an involution is commutative",
)
@_sweep(_units_involutive)
def _check_l26(ctx: VerifyContext, details: list[str], expr: str) -> None:
    commutative = structure.is_commutative(ctx.ring(expr))
    _claim(details, expr, commutative, "", "preconditions hold but the ring is not commutative")


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
@_sweep(items=("T(2,Z(4))", "TE(Z(6))", "PQ(Z(3),[0,0,1])"))
def _check_p28(ctx: VerifyContext, details: list[str], expr: str) -> None:
    ring = ctx.ring(expr)
    lhs = ctx.gwnc(expr)
    ideals = _nil_ideals(ring)
    agree = True
    for ideal in ideals:
        fail = f"enumerated ideal of size {len(ideal)} is not nil"
        holds = _claim(details, expr, structure.is_nil_subset(ring, ideal), None, fail)
        if holds:
            rhs, _ = dec.gwnc(maybe_memoize(cons.quotient_by_ideal(ring, ideal)))
            fail = f"gwnc={lhs} but quotient by ideal of size {len(ideal)} has gwnc={rhs}"
            holds = _claim(details, expr, lhs == rhs, None, fail)
        agree = agree and holds
    if agree:
        details.append(f"ok {expr}: {len(ideals)} nil ideals agree")


_register(
    "C-2.11",
    "trivial extensions and truncated polynomial rings preserve GWNC exactly",
)(
    _gwnc_preserved(
        (f"Z({n})", derived)
        for n in range(2, 10)
        for derived in (f"TE(Z({n}))", f"PQ(Z({n}),[0,0,1])", f"PQ(Z({n}),[0,0,0,1])")
    )
)


@_register(
    "C-2.13",
    "the twice-iterated trivial extension preserves GWNC and matches its 4x4 frame",
)
def _check_c213(ctx: VerifyContext, details: list[str]) -> None:
    _gwnc_preserved((f"Z({n})", f"TE(TE(Z({n})))") for n in (2, 3, 5, 6))(ctx, details)
    for n in (2, 3):
        mismatch = _dt_frame_mismatch(ctx, n)
        ok = ": exhaustive homomorphism and flag agreement"
        frame = f"DT frame over Z({n})"
        _claim(details, frame, mismatch is None, ok, mismatch, repro=f"TE(TE(Z({n})))")


def _dt_frame_mismatch(ctx: VerifyContext, n: int) -> str | None:
    """Exhaustive check that TE(TE(Z(n))) is the 4x4 frame
    [[a,b,c,d],[0,a,0,c],[0,0,a,b],[0,0,0,a]] on the same indices, plus
    agreement of every classification flag; returns the first mismatch.
    Both encode ((a,b),(c,d)) as the base-n digits a, b, c, d, so the
    coordinate map is the identity and the two rings' operations must
    agree on every pair."""
    tt = ctx.ring(f"TE(TE(Z({n})))")
    frame = maybe_memoize(cons.pattern_subring(cons.double_extension_pattern(), cons.zmod(n)))
    if tt.card != frame.card:
        return "card mismatch"
    if tt.one != frame.one:
        return "coordinate map misses the identity"
    ar = np.arange(tt.card, dtype=np.int64)
    left, right = ar[:, None], ar
    if not np.array_equal(tt.add_vec(left, right), frame.add_vec(left, right)):
        return "coordinate map breaks addition"
    if not np.array_equal(tt.mul_vec(left, right), frame.mul_vec(left, right)):
        return "coordinate map breaks multiplication"
    if dec.classify(tt).flags != dec.classify(frame).flags:
        return "classification flags differ"
    return None


_register("C-2.16-i", "constant-diagonal triangular frames preserve GWNC exactly")(
    _gwnc_preserved(
        (f"Z({n})", f"PAT({pat},Z({n}))") for pat in ("S(2)", "S(3)") for n in (2, 3, 6)
    )
)

_register("C-2.17", "the S(n,m), Tb(n,m) and U(n) frames preserve GWNC exactly")(
    _gwnc_preserved(
        (f"Z({n})", f"PAT({pat},Z({n}))") for pat in ("S(2,2)", "Tb(2,2)", "U(3)") for n in (2, 3)
    )
)


# ---------------------------------------------------------------------------
# local / product / triangular structure


def _trivial_idempotents(ctx: VerifyContext, details: list[str], expr: str) -> bool:
    idempotents = int(structure.ring_data(ctx.ring(expr)).idem_mask.sum())
    return _claim(details, expr, idempotents == 2, None, "expected only trivial idempotents")


@_register(
    "P-2.18",
    "with only trivial idempotents, GWNC is equivalent to local with nil radical",
)
@_sweep(_trivial_idempotents, ("Z(4)", "Z(9)", "GF(2,2)", "Z(5)"))
def _check_p218(ctx: VerifyContext, details: list[str], expr: str) -> None:
    ring = ctx.ring(expr)
    lhs = ctx.gwnc(expr)
    rhs = structure.is_local(ring) and structure.is_nil_subset(ring, structure.jacobson(ring))
    _gwnc_agrees(details, expr, lhs, "local-with-nil-radical", rhs)


@_register(
    "P-2.19",
    "a GWNC direct product has weakly nil-clean factors",
)
def _check_p219(ctx: VerifyContext, details: list[str]) -> None:
    skipped = 0
    checked = 0
    for a, b in itertools.combinations_with_replacement(_CATALOG_TEXTS, 2):
        try:
            holds = dec.ring_flag(ctx.pair_ring(a, b), "gwnc")
        except GuardError:
            skipped += 1
            continue
        checked += 1
        for factor in (a, b) if holds else ():
            if not ctx.flag(factor, "weakly_nil_clean"):
                cx = ctx.counterexample(factor, "weakly_nil_clean")
                fail = f"GWNC but factor {factor} is not weakly nil-clean (element {cx})"
                _claim(details, ctx.pair_text(a, b), False, None, fail, repro=factor)
    word = "ok" if checked and not any(d.startswith("FAIL") for d in details) else "note"
    details.append(f"{word} {checked} catalog pairs checked, {skipped} skipped by guard")


@_register(
    "P-2.21",
    "a triple product is GWNC iff all factors are weakly nil-clean and at "
    "most one is not nil-clean",
)
def _check_p221(ctx: VerifyContext, details: list[str]) -> None:
    atoms = ("Z(2)", "Z(3)", "Z(4)")
    for a, b, c in itertools.product(atoms, repeat=3):
        triple = f"(({a} x {b}) x {c})"
        lhs = ctx.gwnc(triple)
        wnc_all = all(ctx.flag(x, "weakly_nil_clean") for x in (a, b, c))
        not_nc = sum(1 for x in (a, b, c) if not ctx.flag(x, "nil_clean"))
        rhs = wnc_all and not_nc <= 1
        _claim(details, triple, lhs == rhs, None, f"gwnc={lhs} but factor criterion gives {rhs}")
    _gwnc_expected(ctx, details, "((Z(2) x Z(3)) x Z(3))", False)
    _gwnc_expected(ctx, details, "((Z(2) x Z(2)) x Z(3))", True)


@_register(
    "P-2.25",
    "a 3x3 triangular ring is GWNC exactly when its base is nil-clean",
)
@_sweep(items=(("Z(2)", True), ("Z(4)", True), ("Z(3)", False)))
def _check_p225(ctx: VerifyContext, details: list[str], case) -> None:
    base, want = case
    derived = f"T(3,{base})"
    lhs = ctx.gwnc(derived)
    rhs = ctx.flag(base, "nil_clean")
    _claim(details, derived, lhs == rhs, None, f"gwnc={lhs} but nil-clean({base})={rhs}")
    _gwnc_expected(ctx, details, derived, want)


def _two_in_radical(ctx: VerifyContext, details: list[str], expr: str) -> bool:
    ring = ctx.ring(expr)
    in_j = structure.ring_data(ring).jacobson_mask[_times(ring, 2)]
    return _claim(details, expr, in_j, None, "2 is not in the radical")


@_register("L-2.27", "with 2 in the radical, GWNC and GNC coincide")
@_sweep(_two_in_radical, ("Z(4)", "Z(8)", "T(2,Z(2))", "TE(Z(4))"))
def _check_l227(ctx: VerifyContext, details: list[str], expr: str) -> None:
    g1 = ctx.flag(expr, "gwnc")
    g2 = ctx.flag(expr, "gnc")
    _claim(details, expr, g1 == g2, f": gwnc=gnc={g1}", f"gwnc={g1} but gnc={g2}")


# ---------------------------------------------------------------------------
# flag identity networks


def _flag_identity(flag: str, units: str, ctx: VerifyContext, details: list[str]) -> None:
    """``flag`` holds on a catalog ring exactly when ``units`` and GWNC do."""

    @_sweep()
    def body(ctx: VerifyContext, details: list[str], expr: str) -> None:
        lhs = ctx.flag(expr, flag)
        rhs = ctx.flag(expr, units) and ctx.flag(expr, "gwnc")
        fail = f"{flag.replace('_', '-')}={lhs} but {units.upper()}&GWNC={rhs}"
        _claim(details, expr, lhs == rhs, None, fail)

    body(ctx, details)
    if not any(d.startswith("FAIL") for d in details):
        details.append("ok flag identity holds across the catalog")


_register(
    "L-2.28",
    "strongly weakly nil-clean is exactly WUU together with GWNC",
)(functools.partial(_flag_identity, "strongly_weakly_nil_clean", "wuu"))

_register(
    "L-2.29",
    "strongly nil-clean is exactly UU together with GWNC",
)(functools.partial(_flag_identity, "strongly_nil_clean", "uu"))


@_register("C-2.30", "on UU rings, nine clean-family properties coincide")
@_sweep(lambda ctx, details, expr: ctx.flag(expr, "uu"))
def _check_c230(ctx: VerifyContext, details: list[str], expr: str) -> None:
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
    ok, fail = f": all nine equal {values['gwnc']}", f"UU ring with diverging properties {values}"
    _claim(details, expr, len(set(values.values())) == 1, ok, fail)


# ---------------------------------------------------------------------------
# matrix rings over fields


@_register(
    "L-2.33",
    "full matrix rings over the field of order q are GWNC exactly for "
    "q=2 (any size) and q=3 at size 2",
)
def _check_l233(ctx: VerifyContext, details: list[str]) -> None:
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
        for a, (wnc, _) in zip(scalars, dec.witnesses(ring, "weakly_nil_clean", diagonals)):
            fail = f"diag({a},0) unexpectedly weakly nil-clean"
            _claim(details, mat_expr, not wnc, f": diag({a},0) not weakly nil-clean", fail)


def _cube_decided(ctx: VerifyContext, details: list[str], base: str) -> bool:
    return _decided(ctx, details, f"M(3,{base})")


@_register(
    "T-2.35",
    "over a commutative base, a 3x3 matrix ring is GWNC iff it is nil-clean",
)
@_sweep(_cube_decided, ("Z(2)", "Z(3)", "Z(4)"))
def _check_t235(ctx: VerifyContext, details: list[str], base: str) -> None:
    derived = f"M(3,{base})"
    _gwnc_agrees(details, derived, ctx.gwnc(derived), "nil-clean", ctx.flag(derived, "nil_clean"))


@_register(
    "T-2.36",
    "finite rings are GWNC exactly when local with nil radical, or the "
    "radical quotient is the 2x2 matrices over the 3-element field or the "
    "square of that field, or the ring is weakly nil-clean",
)
@_sweep()
def _check_t236(ctx: VerifyContext, details: list[str], expr: str) -> None:
    ring = ctx.ring(expr)
    lhs = ctx.gwnc(expr)
    j_nil = structure.is_nil_subset(ring, structure.jacobson(ring))
    quotient = maybe_memoize(structure.radical_quotient(ring))
    fp = structure.wedderburn_fingerprint(quotient).blocks
    rhs = (
        (structure.is_local(ring) and j_nil)
        or (fp == ((2, 3),) and j_nil)
        or (fp == ((1, 3), (1, 3)) and j_nil)
        or ctx.flag(expr, "weakly_nil_clean")
    )
    fail = f"gwnc={lhs} but the four-clause criterion gives {rhs} (fingerprint {fp})"
    _claim(details, expr, lhs == rhs, f": gwnc={lhs}", fail)


@_register(
    "P-2.41",
    "for commutative bases, a 3x3 matrix ring is GWNC iff the radical "
    "quotient of the base is Boolean",
)
@_sweep(_cube_decided, ("Z(2)", "Z(4)"))
def _check_p241(ctx: VerifyContext, details: list[str], base: str) -> None:
    derived = f"M(3,{base})"
    quotient = maybe_memoize(structure.radical_quotient(ctx.ring(base)))
    rhs = structure.is_boolean_ring(quotient)
    _gwnc_agrees(details, derived, ctx.gwnc(derived), "base radical quotient boolean", rhs)


def _filtered_base(predicate: str, ctx: VerifyContext, details: list[str], base: str) -> bool:
    """Whether ``base`` has the predicate, decided by
    ``structure.is_<predicate>``, and M(3, base) is decided; a note line
    names a base filtered out."""
    if not getattr(structure, f"is_{predicate}")(ctx.ring(base)):
        details.append(f"note {base}: not {predicate}, filtered out")
        return False
    return _cube_decided(ctx, details, base)


def _boolean_criterion(ctx: VerifyContext, details: list[str], base: str) -> None:
    derived = f"M(3,{base})"
    boolean = structure.is_boolean_ring(ctx.ring(base))
    _gwnc_agrees(details, derived, ctx.gwnc(derived), f"boolean({base})", boolean)


_BOOLEAN_BASES = ("Z(2)", "Z(6)", "GF(2,2)", "Z(3)")

_register(
    "C-2.46",
    "for reduced bases, a 3x3 matrix ring is GWNC iff the base is Boolean",
)(_sweep(functools.partial(_filtered_base, "reduced"), _BOOLEAN_BASES)(_boolean_criterion))

_register(
    "C-2.47",
    "for strongly regular bases, a 3x3 matrix ring is GWNC iff the base is Boolean",
)(_sweep(functools.partial(_filtered_base, "strongly_regular"), _BOOLEAN_BASES)(_boolean_criterion))


@_register(
    "C-2.51",
    "formal 2x2 matrix rings twisted by a central nilpotent preserve the "
    "weakly nil-clean link",
)
def _check_c251(ctx: VerifyContext, details: list[str]) -> None:
    for base in ("Z(4)", "Z(8)"):
        ring = ctx.ring(base)
        data = structure.ring_data(ring)
        for s in (int(i) for i in np.flatnonzero(data.nil_mask)):
            derived = f"FM(2,{s},{base})"
            holds = ctx.gwnc(derived)
            wnc = not holds or ctx.flag(base, "weakly_nil_clean")
            fail = f"GWNC but {base} is not weakly nil-clean"
            if _claim(details, derived, wnc, None, fail, repro=base):
                nc = ctx.flag(base, "nil_clean")
                fail = f"{base} is nil-clean but the formal matrix ring is not GWNC"
                _claim(details, derived, holds or not nc, f": gwnc={holds}", fail)


# ---------------------------------------------------------------------------
# group rings


@_register("L-3.1", "a GWNC group ring has a GWNC coefficient ring")
@_sweep(items=GROUP_RINGS)
def _check_l31(ctx: VerifyContext, details: list[str], pair) -> None:
    rg_expr, base_expr = pair
    holds = ctx.gwnc(rg_expr)
    ok = f": base {base_expr} is GWNC" if holds else ": not GWNC, implication vacuous"
    fail = f"GWNC but base {base_expr} is not"
    _claim(details, rg_expr, not holds or ctx.gwnc(base_expr), ok, fail, repro=base_expr)


def _p_nilpotent_p_group(ctx: VerifyContext, details: list[str], case) -> bool:
    """The premise of L-3.2: p is nilpotent in the base and the group is a
    p-group."""
    rg_expr, base_expr, p = case
    base = ctx.ring(base_expr)
    nilpotent = structure.ring_data(base).nil_mask[_times(base, p)]
    fail = f"{p} is not nilpotent in {base_expr}"
    if not _claim(details, rg_expr, nilpotent, None, fail, repro=base_expr):
        return False
    group = _unwrap(ctx.ring(rg_expr)).group
    return _claim(details, rg_expr, group.is_p_group(p), None, f"group is not a {p}-group")


@_register(
    "L-3.2",
    "group rings of p-groups over GWNC rings with p nilpotent are GWNC",
)
@_sweep(
    _p_nilpotent_p_group,
    (
        ("GR(Z(2),C(2))", "Z(2)", 2),
        ("GR(Z(4),C(2))", "Z(4)", 2),
        ("GR(Z(2),C(4))", "Z(2)", 2),
        ("GR(Z(2),C(2) x C(2))", "Z(2)", 2),
        ("GR(Z(9),C(3))", "Z(9)", 3),
    ),
)
def _check_l32(ctx: VerifyContext, details: list[str], case) -> None:
    rg_expr = case[0]
    fail = f"expected GWNC, counterexample element {ctx.counterexample(rg_expr, 'gwnc')}"
    _claim(details, rg_expr, ctx.gwnc(rg_expr), ": GWNC", fail)


@_register(
    "L-3.3",
    "in a GWNC ring, 2 is invertible or 2 is nilpotent or 6 is nilpotent",
)
@_sweep(_is_gwnc)
def _check_l33(ctx: VerifyContext, details: list[str], expr: str) -> None:
    ring = ctx.ring(expr)
    data = structure.ring_data(ring)
    two = _times(ring, 2)
    six = _times(ring, 6)
    holds = data.unit_mask[two] or data.nil_mask[two] or data.nil_mask[six]
    fail = "GWNC but 2 is neither invertible nor nilpotent and 6 is not nilpotent"
    _claim(details, expr, holds, "", fail)


def _two_not_a_unit(ctx: VerifyContext, details: list[str], expr: str) -> bool:
    ring = ctx.ring(expr)
    return not structure.ring_data(ring).unit_mask[_times(ring, 2)]


@_register(
    "L-3.4",
    "when 2 is not invertible, GWNC means GNC or weakly nil-clean",
)
@_sweep(_two_not_a_unit)
def _check_l34(ctx: VerifyContext, details: list[str], expr: str) -> None:
    lhs = ctx.flag(expr, "gwnc")
    rhs = ctx.flag(expr, "gnc") or ctx.flag(expr, "weakly_nil_clean")
    fail = f"gwnc={lhs} but GNC-or-weakly-nil-clean={rhs}"
    _claim(details, expr, lhs == rhs, f": gwnc={lhs}", fail)


@_register(
    "T-3.6",
    "a GWNC group ring over a ring where 2 is not invertible forces a "
    "2-group with 2 nilpotent",
)
def _check_t36(ctx: VerifyContext, details: list[str]) -> None:
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
        holds = ctx.gwnc(rg_expr)
        two_group = group.is_p_group(2) and data.nil_mask[_times(base, 2)]
        ok = ": 2-group over 2-nilpotent base" if holds else ": not GWNC, implication vacuous"
        fail = f"GWNC but group order {group.order} is not a power of 2 with 2 nilpotent"
        _claim(details, rg_expr, not holds or two_group, ok, fail)
    negative = "GR(Z(2),C(3))"
    ok = ": not GWNC (decisive negative)"
    _claim(details, negative, not ctx.gwnc(negative), ok, "expected not GWNC")


# ---------------------------------------------------------------------------
# runners


def _run(check_id: str, description: str, body, ctx: VerifyContext) -> CheckResult:
    """Run one check body and read its status off the first word of each
    detail line, as the module docstring states; a guard hit anywhere in
    the body ends it with a ``SKIP:`` line."""
    result = CheckResult(check_id, description, "skipped")
    try:
        body(ctx, result.details)
    except GuardError as exc:
        result.details.append(f"SKIP: {exc}")
    words = [d.split(" ", 1)[0] for d in result.details]
    if "FAIL" in words:
        result.status = "fail"
    elif "ok" in words and words[-1] != "SKIP:":
        result.status = "pass"
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
