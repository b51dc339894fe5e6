import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, reject, settings

import ringlab as rl
from ringlab import decompositions as dec, structure
from ringlab.core import additive_generators, additive_span, ring_is_commutative
from ringlab.decompositions import REPORT_FLAGS
from ringlab.verify import CATALOG

from conftest import (
    AXIOM_SUITE_EXTRAS,
    LADDER_RUNGS,
    bounded_ring_expr_strategy,
    oracle_center,
    oracle_idempotents,
    oracle_jacobson_two_sided,
    oracle_nilpotents,
    oracle_status,
    oracle_units,
    s3_group_ring,
    scan_center,
    scan_commutative,
    scan_exchange,
    scan_jacobson,
    scan_left_quasi_regular,
    scan_nil_closure,
)

SMALL_RINGS = [
    "Z(6)",
    "Z(12)",
    "M(2,Z(2))",
    "T(2,Z(4))",
    "TE(Z(3))",
    "GF(3,2)",
    "GR(Z(2),C(3))",
    "Z(2) x Z(9)",
    "PQ(Z(2),[0,0,1])",
]


@pytest.mark.parametrize("expr", SMALL_RINGS)
def test_invariant_sets_match_bruteforce(expr):
    ring = rl.build(expr)
    assert set(rl.units(ring)) == oracle_units(ring)
    assert set(rl.nilpotents(ring)) == oracle_nilpotents(ring)
    assert set(rl.idempotents(ring)) == oracle_idempotents(ring)
    assert set(rl.center(ring)) == oracle_center(ring)
    assert set(rl.jacobson(ring)) == oracle_jacobson_two_sided(ring)


def test_units_examples(z6, m2z3):
    assert sorted(rl.units(z6)) == [1, 5]
    g = rl.gf(3, 2)
    assert len(rl.units(g)) == g.card - 1
    assert len(rl.units(m2z3)) == 48  # |GL_2(F_3)| = (9-1)(9-3)


def test_nilpotents_examples(m2z2):
    assert sorted(rl.nilpotents(rl.zmod(4))) == [0, 2]
    assert sorted(rl.nilpotents(rl.gf(3, 2))) == [0]
    assert len(rl.nilpotents(m2z2)) == 4


def test_idempotents_examples(z6):
    assert sorted(rl.idempotents(z6)) == [0, 1, 3, 4]
    assert sorted(rl.idempotents(rl.gf(2, 2))) == [0, 1]
    for expr in SMALL_RINGS:
        ring = rl.build(expr)
        idem = rl.idempotents(ring)
        assert ring.zero in idem and ring.one in idem


def test_jacobson_examples(z12, m2z2):
    assert sorted(rl.jacobson(z12)) == [0, 6]
    assert sorted(rl.jacobson(rl.gf(5, 1))) == [0]
    T = rl.upper_triangular(2, rl.zmod(2))
    assert sorted(rl.jacobson(T)) == [0, 2]  # strictly upper matrices
    assert len(rl.jacobson(T)) == 2


def test_center_examples(z6, m2z2):
    assert len(rl.center(z6)) == 6
    assert sorted(rl.center(m2z2)) == sorted([m2z2.zero, m2z2.one])
    for expr in SMALL_RINGS:
        ring = rl.build(expr)
        assert ring.one in rl.center(ring)


def test_mod_j(z6):
    q4 = rl.mod_j(rl.zmod(4))
    assert rl.classify(q4).flags == rl.classify(rl.zmod(2)).flags
    semisimple = rl.mod_j(z6)
    assert semisimple.card == 6
    T = rl.upper_triangular(2, rl.zmod(2))
    q = rl.mod_j(T)
    assert q.card == 4
    assert structure.is_commutative(q)


def test_radical_quotient_is_the_ring_itself_when_j_is_zero(z6, z12):
    """R/J of a semisimple ring is R, not a copy R/0; otherwise it is
    ``mod_j`` with the same fingerprint."""
    assert structure.radical_quotient(z6) is z6
    quotient = structure.radical_quotient(z12)
    assert isinstance(quotient, rl.constructions.QuotientRing) and quotient.card == 6
    for ring in (z6, z12, rl.build("T(2,Z(3))"), rl.build("M(2,Z(2))")):
        want = rl.wedderburn_fingerprint(rl.mod_j(ring))
        assert rl.wedderburn_fingerprint(structure.radical_quotient(ring)) == want


def test_is_nil_subset(z6, z12):
    assert rl.is_nil_subset(z12, rl.jacobson(z12))
    assert not rl.is_nil_subset(z6, rl.units(z6))
    assert rl.is_nil_subset(z6, rl.Subset(z6, np.arange(6) == 0))
    for expr in SMALL_RINGS:
        ring = rl.build(expr)
        assert rl.is_nil_subset(ring, rl.jacobson(ring))


def test_fingerprints(z6, m2z3):
    assert rl.wedderburn_fingerprint(rl.mod_j(z6)).blocks == ((1, 2), (1, 3))
    assert rl.wedderburn_fingerprint(m2z3).blocks == ((2, 3),)
    rg = rl.build("GR(Z(2),C(3))")
    assert rl.wedderburn_fingerprint(rl.mod_j(rg)).blocks == ((1, 2), (1, 4))


def test_fingerprint_of_product_is_multiset_union():
    a = rl.mod_j(rl.zmod(6))
    b = rl.mod_j(rl.zmod(5))
    prod = rl.direct_product(rl.zmod(6), rl.zmod(5))
    fp = rl.wedderburn_fingerprint(rl.mod_j(prod)).blocks
    merged = tuple(
        sorted(rl.wedderburn_fingerprint(a).blocks + rl.wedderburn_fingerprint(b).blocks)
    )
    assert fp == merged


def test_fingerprint_block_cards_multiply(z12):
    for expr in SMALL_RINGS:
        quotient = rl.mod_j(rl.build(expr))
        fp = rl.wedderburn_fingerprint(quotient)
        assert fp.card() == quotient.card


def test_fingerprint_requires_semisimple(z12):
    with pytest.raises(ValueError):
        rl.wedderburn_fingerprint(z12)


def test_fingerprint_splits_one_by_central_idempotents():
    """Z(2)^12 has c = 4096 central idempotents and k = 12 blocks.
    Splitting 1 takes 2k - 1 calls of c products, and each block one row
    of card products; all pairs of nonzero central idempotents were 16.8M."""
    ring = rl.build(" x ".join(["Z(2)"] * 12))
    data = structure.ring_data(ring)
    data.jacobson_mask, data.idem_mask, data.center_mask  # computed uncounted
    products = []
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        out = mul_vec(xs, ys)
        products.append(out.size)
        return out

    ring.mul_vec = counted
    assert rl.wedderburn_fingerprint(ring).blocks == ((1, 2),) * 12
    c, k = 4096, 12
    assert sorted(products) == [c] * (2 * k - 1) + [ring.card] * k


def test_local_iff_nonunits_equal_radical():
    for expr, expected in (
        ("Z(4)", True),
        ("Z(9)", True),
        ("GF(2,2)", True),
        ("Z(6)", False),
        ("M(2,Z(2))", False),
    ):
        ring = rl.build(expr)
        assert structure.is_local(ring) is expected
        direct = set(range(ring.card)) - oracle_units(ring) == oracle_jacobson_two_sided(ring)
        assert structure.is_local(ring) == direct


def test_two_primal_is_radical_equals_nilpotents():
    for expr in SMALL_RINGS:
        ring = rl.build(expr)
        flags = rl.structural_predicates(ring)
        assert flags.two_primal == (
            oracle_jacobson_two_sided(ring) == oracle_nilpotents(ring)
        )


def test_structural_predicate_examples(z6, m2z2):
    z2 = rl.structural_predicates(rl.zmod(2))
    assert z2.boolean and z2.local and rl.ring_flag(rl.zmod(2), "uu")
    m = rl.structural_predicates(m2z2)
    # GL_2(F_2) has an element of order 3
    assert not m.abelian and not rl.ring_flag(m2z2, "uu")
    s6 = rl.structural_predicates(z6)
    assert s6.reduced and s6.regular and not s6.local
    assert s6.semilocal and any("semilocal" in note for note in s6.notes)


def test_structural_record_shape(z6):
    flags = rl.structural_predicates(z6)
    d = flags.as_dict()
    assert set(d) == {
        "commutative", "local", "abelian", "reduced", "boolean", "ni", "nr",
        "two_primal", "regular", "strongly_regular", "exchange",
        "weakly_exchange", "semipotent", "strongly_pi_regular", "semisimple",
        "semilocal",
    }
    assert all(isinstance(v, bool) for v in d.values())
    # the unit-shape flags are decided once, as report flags
    assert {"uu", "wuu", "uwnc"} <= set(REPORT_FLAGS)
    assert not {f.name for f in dataclasses.fields(rl.StructuralFlags)} & set(REPORT_FLAGS)
    report = rl.classify(z6)
    assert {name: report.flags[name] for name in ("uu", "wuu", "uwnc")} == {
        "uu": False, "wuu": True, "uwnc": True,
    }


@pytest.mark.parametrize(
    "expr",
    [
        # cyclic unit groups: long power walks before the first known status
        "Z(257)",
        "GF(3,4)",
        "Z(2) x Z(101)",
        # a safe prime above the table threshold: units of order 1031
        "Z(2063)",
        # GF(2**7) from a primitive modulus: a unit group of prime order 127
        "PQ(Z(2),[1,1,0,0,0,0,0,1])",
        "M(2,Z(4))",
        "PAT(S(3),Z(3))",
        "T(2,Z(6))",
        "TE(Z(9))",
        "MODJ(T(2,GF(2,2)))",
        # walks of three or more rounds, their even powers off the square
        "M(2,Z(7))",
        "PAT(S(3),Z(6))",
        # nested direct products: the status is read off the factors'
        "(Z(2) x Z(3)) x Z(4)",
        "T(2,Z(2)) x (Z(3) x Z(4))",
    ],
)
def test_status_pass_matches_power_walk(expr):
    """The unit/nilpotent status pass against a walk of every element's
    powers and against the units found by search."""
    ring = rl.build(expr)
    data = structure.ring_data(ring)
    status = oracle_status(ring)
    assert data.unit_mask.tolist() == [s == "unit" for s in status]
    assert data.nil_mask.tolist() == [s == "nil" for s in status]
    assert oracle_units(ring) == {a for a, s in enumerate(status) if s == "unit"}


@pytest.mark.parametrize("expr, most", [("M(2,Z(9))", 11000), ("M(2,Z(7))", None)])
def test_report_flags_square_the_carrier_once(expr, most):
    """The 14 report flags of a computed ring make one ``mul_vec`` call as
    long as the carrier, the square that the idempotents, the status pass
    and the images a -+ a**2 share; the walk's even powers are read off it.
    A direct product reads its factors' and forms no square of its own."""
    ring = rl.build(expr)
    sizes = []
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        out = mul_vec(xs, ys)
        sizes.append(out.size)
        return out

    ring.mul_vec = counted
    for name in REPORT_FLAGS:
        dec.ring_flag(ring, name)
    assert sizes.count(ring.card) == 1 and max(sizes) == ring.card
    assert most is None or sum(sizes) <= most
    product = rl.build(f"{expr} x Z(2)")
    for name in REPORT_FLAGS:
        dec.ring_flag(product, name)
    assert structure.ring_data(product)._square is None


@pytest.mark.parametrize(
    "expr, order",
    [
        ("Z(2063)", 1031),
        # GF(2**13) from the primitive x**13 + x**4 + x**3 + x + 1
        ("PQ(Z(2),[1,1,0,1,1,0,0,0,0,0,0,0,0,1])", 8191),
    ],
)
def test_unit_pass_work_is_near_linear_on_prime_order_units(expr, order):
    """Fields whose unit groups have a large prime order ``order`` (or a
    subgroup of it): walking every unit's powers to one would form about
    ``order * card`` products.  The status pass stays within a few products
    per element and log factor, and every nonzero element is a unit."""
    ring = rl.build(expr)
    products = 0
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        nonlocal products
        out = mul_vec(xs, ys)
        products += out.size
        return out

    ring.mul_vec = counted
    data = structure.ring_data(ring)
    units = data.unit_mask
    assert products <= 4 * ring.card * np.log2(ring.card) < order * ring.card / 4
    assert units.tolist() == [a != ring.zero for a in range(ring.card)]
    assert data.nil_mask.tolist() == [a == ring.zero for a in range(ring.card)]


def test_jacobson_one_sided_matches_two_sided_on_catalog():
    from ringlab.verify import CATALOG, VerifyContext

    ctx = VerifyContext()
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        if ring.card > 2000:
            continue
        jac = rl.jacobson(ring)
        umask = structure.ring_data(ring).unit_mask
        ar = np.arange(ring.card, dtype=np.int64)
        for x in jac:
            # two-sided quasi-regularity: 1 - r*x*s invertible for all r, s
            rx = ring.mul_vec(ar, x)
            for r in range(ring.card):
                vals = ring.sub_vec(ring.one, ring.mul_vec(int(rx[r]), ar))
                assert umask[vals].all(), (entry.expression, x, r)


def test_finite_ring_identities_match_bruteforce_deciders():
    """Every predicate ``structural_predicates`` decides by a finite-ring
    identity agrees with the brute-force decider it replaced (``nr`` is
    scanned only where ``ni`` fails)."""
    from ringlab.verify import VerifyContext

    ctx = VerifyContext()
    exprs = [e.expression for e in CATALOG] + list(AXIOM_SUITE_EXTRAS)
    exprs += ["M(2,Z(2)) x Z(4)", "T(2,Z(4)) x Z(3)"]
    sides = set()
    for expr in exprs:
        ring = ctx.ring(expr)
        if ring.card > 1296:
            continue
        flags = rl.structural_predicates(ring)
        exchange, weakly_exchange = scan_exchange(ring)
        ni, nr = scan_nil_closure(ring)
        oracle = {
            "regular": structure.is_regular(ring),
            "strongly_regular": structure.is_strongly_regular(ring),
            "ni": ni,
            "nr": nr,
            "exchange": exchange,
            "weakly_exchange": weakly_exchange,
            "semipotent": structure.is_semipotent(ring),
            "strongly_pi_regular": structure.is_strongly_pi_regular(ring),
        }
        assert {k: getattr(flags, k) for k in oracle} == oracle, expr
        sides.add((flags.semisimple, flags.reduced, flags.ni))
    # semisimple and not, reduced and not (a reduced finite ring is
    # semisimple), NI true and false
    assert {s[:2] for s in sides} == {(True, True), (True, False), (False, False)}
    assert {s[2] for s in sides} == {True, False}


#: the harness rings, the classify ladder's rungs, M(2,Z(9)) above the
#: table threshold, and products; GF(7,4) is left out: the scans take 24 s
#: on it
SCAN_EXPRS = sorted(
    {e.expression for e in CATALOG}
    | set(AXIOM_SUITE_EXTRAS)
    | set(LADDER_RUNGS)
    | {"M(2,Z(9))", "M(2,Z(2)) x Z(4)", "T(2,Z(4)) x Z(3)", "GR(Z(2),C(3)) x Z(9)"}
)


@pytest.mark.parametrize("expr", SCAN_EXPRS)
def test_center_jacobson_commutativity_match_carrier_scans(expr):
    """The generator and nilpotent passes against the scans over the whole
    carrier they replaced, with tables and without: a product without tables
    takes the factor-wise path, with tables the flat pass.  The scans run
    once, on the tables where the threshold allows them (the carrier is the
    same), else on the computed ring, which ``maybe_memoize`` keeps."""
    computed = rl.build(expr)
    tabled = rl.maybe_memoize(computed)
    center, jac, commutative = scan_center(tabled), scan_jacobson(tabled), scan_commutative(tabled)
    for ring in {computed, tabled}:
        data = structure.ring_data(ring)
        assert np.array_equal(data.center_mask, center), (expr, ring)
        assert np.array_equal(data.jacobson_mask, jac), (expr, ring)
        assert structure.is_commutative(ring) == commutative, (expr, ring)
        for x in range(0, ring.card, max(1, ring.card // 64)):
            assert data.left_quasi_regular(x) == jac[x], (expr, ring, x)


def generated_subgroup(ring, gens):
    """Mask of the sums of multiples of ``gens``, by adding them to the
    reached set until it stops growing."""
    reached = np.zeros(ring.card, dtype=bool)
    reached[ring.zero] = True
    while True:
        s = np.flatnonzero(reached)
        grown = reached.copy()
        for g in gens:
            grown[ring.add_vec(s, g)] = True
        if (grown == reached).all():
            return reached
        reached = grown


@pytest.mark.parametrize("expr", ["M(2,Z(7))", "GF(7,4)"])
def test_center_jacobson_commutativity_work_is_near_linear(expr):
    """Products formed by the three passes on rings without tables, counted
    at ``mul_vec``: the carrier scans took about 2 * card**2."""
    ring = rl.build(expr)
    gens = additive_generators(ring)
    k = len(gens)
    assert gens == sorted(gens) and k <= np.ceil(np.log2(ring.card))
    assert generated_subgroup(ring, gens).all()
    data = structure.ring_data(ring)
    nil = int(data.nil_mask.sum())  # the status pass is not counted
    pairs = 0
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        nonlocal pairs
        out = mul_vec(xs, ys)
        pairs += out.size
        return out

    ring.mul_vec = counted
    data.center_mask
    assert 0 < pairs <= 2 * k * ring.card
    pairs = 0
    structure.is_commutative(ring)  # decided by the center, not again
    assert pairs == 0
    ring_is_commutative(ring)
    assert pairs <= 2 * k * k
    pairs = 0
    data.jacobson_mask
    # a commutative ring reads J = Nil off the status pass
    assert pairs == 0 if data.commutative else 0 < pairs <= nil * ring.card


@pytest.mark.parametrize("expr", ["M(2,Z(7))", "GF(3,3)", "M(2,Z(2)) x Z(4)"])
def test_classify_decides_commutativity_once(monkeypatch, expr):
    """The center and the structural record of one ``classify`` share one
    ``ring_is_commutative`` call per ring, with tables and without; a
    product without tables also decides each factor's for its center."""
    calls = []

    def counted(ring):
        calls.append(ring)
        return ring_is_commutative(ring)

    monkeypatch.setattr(structure, "ring_is_commutative", counted)
    for ring in (rl.build(expr), rl.maybe_memoize(rl.build(expr))):
        calls.clear()
        report = rl.classify(ring)
        structure.ring_data(ring).center_mask
        assert calls.count(ring) == 1 and len(set(map(id, calls))) == len(calls), (expr, ring)
        assert report.structural.commutative == scan_commutative(ring)


@pytest.mark.parametrize(
    "expr", ["GF(3,3)", "TE(Z(27))", "GR(Z(2),C(2) x C(2) x C(2))", "PQ(Z(2),[1,1,0,0,0,0,0,1])"]
)
def test_center_of_a_commutative_ring_forms_no_carrier_product(expr):
    """A commutative ring without tables is its own center: the generator
    pairs that decide commutativity are its only products, none of them
    as long as the carrier.  The carrier scan is the oracle."""
    ring = rl.build(expr)
    data = structure.ring_data(ring)
    sizes = []
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        out = mul_vec(xs, ys)
        sizes.append(out.size)
        return out

    ring.mul_vec = counted
    assert data.center_mask.all()
    assert 0 < max(sizes) < ring.card
    ring.mul_vec = mul_vec
    assert np.array_equal(data.center_mask, scan_center(ring))


@pytest.mark.parametrize(
    "expr", ["T(2,Z(4))", "M(2,Z(6))", "TE(Z(27))", "GR(Z(2),C(2) x C(2) x C(2))"]
)
def test_additive_span_walk(expr):
    """The span of a few seeds against the subgroup they generate; each
    generator is the least seed outside the span of the earlier ones.
    Replayed from {0}, each generator joins the reached set before its
    steps, and each step (t, s, h), h already reached, adds exactly the new
    elements t = s + h of the reached set's h-translate; the replay ends at
    the span, which the subset sums of the generators and the steps' h
    cover."""
    ring = rl.build(expr)
    rng = np.random.default_rng(0)
    for seeds in ([], [ring.zero], [ring.one], *(rng.integers(ring.card, size=k) for k in (2, 5))):
        seeds = [int(s) for s in seeds]
        mask, gens, steps = additive_span(ring, seeds)
        assert np.array_equal(mask, generated_subgroup(ring, seeds))
        for i, g in enumerate(gens):
            before = generated_subgroup(ring, gens[:i])
            assert g == min(s for s in seeds if not before[s])
        assert 2 ** len(gens) <= mask.sum()
        reached = np.zeros(ring.card, dtype=bool)
        reached[ring.zero] = True
        todo = list(steps)
        for i, g in enumerate(gens):
            reached[g] = True
            # a generator's steps shift by its multiples, the next one's
            # first step by that generator, outside this span
            span = generated_subgroup(ring, gens[: i + 1])
            while todo and span[todo[0][2]]:
                t, s, h = todo.pop(0)
                assert reached[h] and reached[s].all()
                assert np.array_equal(t, ring.add_vec(s, h))
                shifted = ring.add_vec(np.flatnonzero(reached), h)
                assert np.array_equal(np.sort(t), np.unique(shifted[~reached[shifted]]))
                reached[t] = True
        assert not todo
        assert np.array_equal(reached, mask)
        sums = np.zeros(ring.card, dtype=bool)
        sums[ring.zero] = True
        for h in gens + [h for _, _, h in steps]:
            sums[ring.add_vec(np.flatnonzero(sums), h)] = True
        assert np.array_equal(sums, mask)


@pytest.mark.parametrize("n, center, jac", [(2, 8, 2), (3, 27, 81)])
def test_nonabelian_group_rings_against_bruteforce(n, center, jac):
    """GR(Z(n),S3) is not commutative; its center and J against the
    brute-force definitions, J the two-sided one over all r, s."""
    ring = s3_group_ring(n)
    data = structure.ring_data(ring)
    assert not structure.is_commutative(ring)
    assert not scan_commutative(ring)
    assert set(np.flatnonzero(data.center_mask)) == oracle_center(ring)
    assert data.center_mask.sum() == center
    assert set(np.flatnonzero(data.jacobson_mask)) == oracle_jacobson_two_sided(ring)
    assert data.jacobson_mask.sum() == jac


#: the harness rings, the ladder's rungs, and rings whose J is a proper part
#: of Nil, where the nilpotent rows must still reject every nilpotent
#: outside J: matrix rings over local rings, a pattern ring, and a product
#: of such a ring with a local one
NIL_ROW_EXPRS = sorted(
    {e.expression for e in CATALOG}
    | set(AXIOM_SUITE_EXTRAS)
    | set(LADDER_RUNGS)
    | {"M(2,Z(4))", "M(2,TE(Z(2)))", "PAT(S(3),Z(4))", "M(2,Z(2)) x Z(8)", "M(2,Z(9))"}
)


def assert_nil_rows_match_all_rows(ring):
    """J from the nilpotent rows against the all-rows pass; a product is
    taken flat, as its tables, so that its own rows are walked."""
    data = structure.ring_data(ring)
    want = scan_left_quasi_regular(ring)
    assert np.array_equal(data.jacobson_mask, want), ring
    for x in np.flatnonzero(data.nil_mask)[:: max(1, int(data.nil_mask.sum()) // 16)]:
        assert data.left_quasi_regular(int(x)) == want[x], (ring, x)


#: commutative catalog rings and larger commutative rings
COMMUTATIVE_EXPRS = [
    "Z(6)", "Z(9)", "Z(12)", "Z(6) x Z(6)", "GF(3,2)", "TE(Z(3))", "PQ(Z(2),[0,0,1])",
    "GR(Z(3),C(3))", "GR(Z(4),C(2))", "TE(Z(27))", "GR(Z(2),C(2) x C(2) x C(2))", "MODJ(Z(12))",
]


@pytest.mark.parametrize("expr", COMMUTATIVE_EXPRS)
@pytest.mark.parametrize("tabled", [False, True])
def test_jacobson_of_a_commutative_ring_is_its_nilpotents(expr, tabled):
    """In a commutative finite ring the nilpotents are the nilradical, which
    is J (every prime ideal of an Artin ring is maximal): J and the J
    membership of every element are read off the status pass without a
    product, and agree with the all-rows pass."""
    ring = rl.build(expr)
    ring = rl.maybe_memoize(ring) if tabled else ring
    data = structure.ring_data(ring)
    assert data.commutative and scan_commutative(ring)
    nil = data.nil_mask
    calls = []
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        calls.append(1)
        return mul_vec(xs, ys)

    ring.mul_vec = counted
    members = [data.left_quasi_regular(x) for x in range(ring.card)]
    assert np.array_equal(data.jacobson_mask, nil) and members == nil.tolist()
    assert calls == []
    ring.mul_vec = mul_vec
    assert np.array_equal(scan_left_quasi_regular(ring), nil)


@given(bounded_ring_expr_strategy(max_card=256))
@settings(max_examples=40, deadline=None)
def test_jacobson_of_a_drawn_commutative_ring_is_its_nilpotents(expr):
    try:
        ring = rl.build(expr, max_card=256)
    except (rl.ConstructionError, rl.GuardError):
        reject()
    if not scan_commutative(ring):
        reject()
    data = structure.ring_data(ring)
    assert data.commutative
    assert np.array_equal(data.jacobson_mask, scan_left_quasi_regular(ring))
    assert np.array_equal(data.jacobson_mask, data.nil_mask)


@pytest.mark.parametrize("expr", NIL_ROW_EXPRS)
def test_nil_rows_decide_jacobson_as_all_rows_do(expr):
    assert_nil_rows_match_all_rows(rl.maybe_memoize(rl.build(expr)))


@given(bounded_ring_expr_strategy(max_card=256))
@settings(max_examples=40, deadline=None)
def test_nil_rows_decide_jacobson_as_all_rows_do_property(expr):
    try:
        ring = rl.build(expr, max_card=256)
    except (rl.ConstructionError, rl.GuardError):
        reject()
    assert_nil_rows_match_all_rows(rl.maybe_memoize(ring))


def test_jacobson_meets_the_nilpotent_rows_only():
    """J of computed ``T(2,Z(8))`` (J = Nil, 128 of 512 elements: every
    member passes every row) forms |Nil|**2 row products, where the
    all-rows pass formed |Nil| * card."""
    ring = rl.build("T(2,Z(8))")
    data = structure.ring_data(ring)
    nil = int(data.nil_mask.sum())
    assert not data.commutative  # decided uncounted, on the generators
    formed = []
    mul_vec = ring.mul_vec

    def counted(xs, ys):
        formed.append(np.broadcast(np.asarray(xs), np.asarray(ys)).size)
        return mul_vec(xs, ys)

    ring.mul_vec = counted
    assert int(data.jacobson_mask.sum()) == nil == 128
    assert sum(formed) == nil * nil


def test_passes_hand_the_ring_columns_and_rows_not_repeated_operands():
    """The status pass, J and the sign pass of computed ``M(2,Z(9))`` pass
    the two sides of their pairs as a column and a row (or, in the status
    pass, a column of last powers against the table of powers they
    multiply), never as repeated or tiled copies: the operands of each
    call hold at most the rows plus the columns of its result."""
    ring = rl.build("M(2,Z(9))")
    data = structure.ring_data(ring)
    data.idem_mask  # the idempotent pass squares the carrier flat
    calls = []

    def recording(name):
        op = getattr(ring, name)

        def recorded(xs, ys):
            out = op(xs, ys)
            calls.append((name, np.size(xs), np.size(ys), out.shape))
            return out

        return recorded

    ring.mul_vec, ring.add_vec = recording("mul_vec"), recording("add_vec")

    def calls_of(compute):
        calls.clear()
        compute()
        return list(calls)

    status = calls_of(lambda: data.unit_mask)
    jacobson = [c for c in calls_of(lambda: data.jacobson_mask) if c[0] == "mul_vec"]
    signs = calls_of(data.nil_signs)
    for name, x, y, (rows, cols) in status:
        assert name == "mul_vec" and (x, y) == (rows, rows * cols)
    for calls_of_pass in (jacobson, signs):
        for _, x, y, (rows, cols) in calls_of_pass:
            assert x + y <= rows + cols
    # each pass met many pairs per call
    assert max(r * c for *_, (r, c) in status) > 1000
    assert all(len(p) and max(r * c for *_, (r, c) in p) > 4096 for p in (jacobson, signs))


def test_a_dropped_table_ring_is_freed_without_the_cycle_collector():
    """The invariant and flag caches a ring carries hold it weakly, so the
    last reference going frees the ring and its tables at once."""
    gc.collect()
    gc.disable()
    try:
        ring = rl.TableRing(rl.build("M(2,Z(6))"))
        dec.classify(ring)
        data = structure.ring_data(ring)
        assert data.is_central(5) is False and data.left_quasi_regular(5) is False
        for predicate in dec.ELEMENT_PREDICATES.values():
            predicate(ring, 5)
        assert structure.mod_j(ring).card == ring.card
        freed = weakref.ref(ring)
        del ring
        assert freed() is None
    finally:
        gc.enable()
