import itertools

import numpy as np
import pytest
import sympy

import ringlab as rl
from ringlab import constructions as cons, structure
from ringlab.constructions import Pattern
from ringlab.core import ConstructionError, additive_generators
from ringlab.verify import CATALOG

from conftest import (
    AXIOM_SUITE_EXTRAS,
    LADDER_RUNGS,
    flags_of,
    k_ring,
    oracle_jacobson_two_sided,
    oracle_nilpotents,
    oracle_units,
    s3_group_ring,
    scan_block_center,
    scan_coset_minima,
    scan_ideal,
    scan_is_ideal,
)


def test_zmod_basics(z6, z12):
    assert z6.card == 6
    assert z6.one == 1
    assert oracle_nilpotents(z12) == {0, 6}
    assert sorted(rl.nilpotents(z12)) == [0, 6]
    with pytest.raises(ConstructionError):
        rl.zmod(1)


def test_zmod_refuses_a_modulus_whose_products_overflow():
    """The largest residue product (n-1)² fits in int64 up to n = 3037000500,
    and there every operation on the largest residues is exact; one more is
    refused at construction, as is a modulus that once multiplied wrongly."""
    n = 3037000500
    ring = rl.zmod(n, max_card=10**10)
    xs = np.array([n - 1, n - 2, n - 1, 0, 1], dtype=np.int64)
    ys = np.array([n - 1, n - 1, 1, n - 1, 0], dtype=np.int64)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert ring.mul_vec(xs, ys).tolist() == [a * b % n for a, b in pairs]
    assert ring.add_vec(xs, ys).tolist() == [(a + b) % n for a, b in pairs]
    assert ring.sub_vec(xs, ys).tolist() == [(a - b) % n for a, b in pairs]
    assert ring.neg_vec(xs).tolist() == [-a % n for a in xs.tolist()]
    assert ring.mul(n - 1, n - 2) == 2
    for bad in (n + 1, 4000000007):
        with pytest.raises(ConstructionError, match="too large"):
            rl.zmod(bad, max_card=10**10)


def test_gf_basics():
    g = rl.gf(2, 2)
    assert g.card == 4
    assert oracle_units(g) == {1, 2, 3}


def test_gf_modulus_is_lexicographically_first_irreducible():
    # independent route: sympy irreducibility over GF(p), scanning the same
    # little-endian coefficient order
    for p, k in ((2, 2), (3, 2), (2, 3), (5, 2)):
        ring = rl.gf(p, k)
        x = sympy.symbols("x")
        found = None
        for t in range(p**k):
            coeffs = [(t // p**i) % p for i in range(k)] + [1]
            poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
            if poly.is_irreducible:
                found = tuple(coeffs)
                break
        assert ring.modulus == found
    assert rl.gf(3, 2).modulus == (1, 0, 1)  # x**2 + 1


def test_gf_validation():
    with pytest.raises(ConstructionError):
        rl.gf(4, 2)
    with pytest.raises(ConstructionError):
        rl.gf(2, 5)


def test_matrix_ring_encoding(m2z2):
    assert m2z2.card == 16
    # identity digits are (1,0,0,1) row-major, entry (0,0) most significant
    assert m2z2.one == 1 * 2**3 + 0 * 2**2 + 0 * 2**1 + 1
    assert len(oracle_units(m2z2)) == 6  # |GL_2(F_2)|
    assert len(rl.units(m2z2)) == 6


def test_matrix_ring_guard():
    with pytest.raises(rl.GuardError) as err:
        rl.matrix_ring(3, rl.zmod(5))
    assert err.value.required == 5**9
    small = rl.matrix_ring(2, rl.zmod(2), max_card=16)
    assert small.card == 16
    with pytest.raises(rl.GuardError):
        rl.matrix_ring(2, rl.zmod(2), max_card=15)


@pytest.mark.parametrize(
    "expr, required",
    [
        ("M(3000,Z(2))", "2^9000000"),
        ("T(3000,Z(2))", "2^4501500"),
        ("FM(3000,1,Z(2))", "2^9000000"),
        # an exponent at the guard's bit length, below 10^30: still exact
        ("M(5,Z(2))", 2**25),
        ("T(6,Z(2))", 2**21),
        ("FM(5,1,Z(2))", 2**25),
    ],
)
def test_matrix_guards_refuse_before_building_classes(monkeypatch, expr, required):
    def unreachable(k):
        raise AssertionError(f"coordinate classes of size {k} built over the guard")

    monkeypatch.setattr(cons, "_full_classes", unreachable)
    monkeypatch.setattr(cons, "upper_triangular_pattern", unreachable)
    with pytest.raises(rl.GuardError) as err:
        rl.build(expr)
    assert err.value.required == required
    assert str(err.value) == f"card {required} exceeds guard 200000"


def test_guard_writes_huge_powers_without_forming_them():
    # base**exponent at or above 2**100 is written as a power
    with pytest.raises(rl.GuardError, match=r"^card 2\^90000 exceeds guard 200000$"):
        rl.build("M(300,Z(2))")
    degree = 20000
    with pytest.raises(rl.GuardError, match=r"^card 2\^20000 exceeds guard 200000$"):
        rl.build(f"PQ(Z(2),[{'0,' * degree}1])")
    # below 2**100 the card is exact, however far above the guard
    with pytest.raises(rl.GuardError) as err:
        rl.build("M(9,Z(2))")
    assert err.value.required == 2**81
    # a raised guard compares the formed power
    assert rl.build("M(3,Z(4))", max_card=2**18).card == 4**9


def test_upper_triangular_cards_and_radical():
    assert rl.upper_triangular(2, rl.zmod(3)).card == 27
    assert rl.upper_triangular(3, rl.zmod(2)).card == 64
    T = rl.upper_triangular(2, rl.zmod(4))
    assert len(oracle_jacobson_two_sided(T)) == 16
    assert len(rl.jacobson(T)) == 16


def test_pattern_s2_matches_trivial_extension_flags():
    for n in range(2, 7):
        pat_ring = rl.pattern_subring(rl.s_pattern(2), rl.zmod(n))
        te_ring = rl.trivial_extension(rl.zmod(n))
        assert pat_ring.card == n * n
        assert flags_of(pat_ring) == flags_of(te_ring)


def test_u3_pattern_builds():
    ring = rl.pattern_subring(rl.u_pattern(3), rl.zmod(2))
    assert ring.card == 16


def test_builtin_pattern_class_counts_match_their_frames():
    """``PAT`` checks the guard on a family's class count before it lists
    the frame, so each count must be the frame's."""
    for family, arities in cons._BUILTIN_PATTERNS.items():
        for arity, entry in enumerate(arities, 1):
            if entry is None:
                continue
            pattern, classes = entry
            for naturals in itertools.product(range(2, 8), repeat=arity):
                assert classes(*naturals) == len(pattern(*naturals).classes), (family, naturals)


def test_builtin_pattern_guard_comes_before_the_frame(monkeypatch):
    def refuse(*naturals):
        raise AssertionError("the frame was listed")

    for family, arities in list(cons._BUILTIN_PATTERNS.items()):
        entries = tuple(entry and (refuse, entry[1]) for entry in arities)
        monkeypatch.setitem(cons._BUILTIN_PATTERNS, family, entries)
    for frame in [("S", (2000,)), ("S", (20, 20)), ("Tb", (1000, 1000)), ("U", (2000,))]:
        with pytest.raises(rl.GuardError):
            cons.builtin_pattern_subring(frame, rl.zmod(2))


def test_pattern_closure_violation_names_a_witness():
    # Toeplitz superdiagonal inside a 3x3 frame with (0,2) forced to zero:
    # the square of such a matrix picks up b*b at (0,2).
    diag = tuple((i, i) for i in range(3))
    bad = Pattern(3, (diag, ((0, 1), (1, 2))), "bad")
    for n in (2, 3):
        with pytest.raises(ConstructionError, match="witness pair"):
            rl.pattern_subring(bad, rl.zmod(n))


def test_pattern_validation():
    with pytest.raises(ConstructionError):
        Pattern(2, (((0, 0), (0, 1)),), "mixed")  # diagonal mixed with upper
    with pytest.raises(ConstructionError):
        Pattern(2, (((0, 0),),), "no-diag")  # (1,1) uncovered
    with pytest.raises(ConstructionError):
        Pattern(2, (((0, 0),), ((1, 1),), ((1, 0),)), "lower")


def test_direct_product_encoding():
    prod = rl.direct_product(rl.zmod(2), rl.zmod(3))
    assert prod.card == 6
    assert prod.one == 1 * 3 + 1
    assert prod.format_element(prod.one) == "(1, 1)"


def test_product_matches_crt_flags():
    prod = rl.direct_product(rl.zmod(2), rl.zmod(3))
    assert flags_of(prod) == flags_of(rl.zmod(6))
    prod2 = rl.direct_product(rl.zmod(4), rl.zmod(9))
    assert flags_of(prod2) == flags_of(rl.zmod(36))


def test_trivial_extension():
    te = rl.trivial_extension(rl.zmod(3))
    assert te.card == 9
    for m in range(3):
        pair = 0 * 3 + m  # (0, m)
        assert te.mul(pair, pair) == te.zero
    assert rl.gwnc(rl.trivial_extension(rl.zmod(2)))[0] is True


def test_poly_quot():
    pq = rl.poly_quot(rl.zmod(2), [0, 0, 1])  # x**2
    assert pq.card == 4
    x = 2  # coefficient digits little-endian: index 2 is x
    assert rl.is_nilpotent(pq, x) == (True, 2)
    gf4 = rl.poly_quot(rl.zmod(2), [1, 1, 1])
    assert oracle_units(gf4) == {1, 2, 3}
    with pytest.raises(ConstructionError):
        rl.poly_quot(rl.zmod(3), [1, 2])  # not monic
    with pytest.raises(ConstructionError):
        rl.poly_quot(rl.matrix_ring(2, rl.zmod(2)), [0, 0, 1])  # noncommutative


def test_poly_quot_x2_flags_match_trivial_extension():
    for n in (2, 3, 4):
        assert flags_of(rl.poly_quot(rl.zmod(n), [0, 0, 1])) == flags_of(
            rl.trivial_extension(rl.zmod(n))
        )


def test_formal_matrix_zero_twist_kills_cross_terms():
    fm = rl.formal_matrix(2, 0, rl.zmod(2))
    e01 = 1 * 2**2  # digits (0,1,0,0)
    e10 = 1 * 2**1  # digits (0,0,1,0)
    assert fm.mul(e01, e10) == fm.zero
    assert fm.mul(e10, e01) == fm.zero


def test_formal_matrix_identity_twist_is_matrix_ring(m2z3):
    fm = rl.formal_matrix(2, 1, rl.zmod(3))
    ar = np.arange(81)
    left, right = np.repeat(ar, 81), np.tile(ar, 81)
    assert np.array_equal(fm.mul_vec(left, right), m2z3.mul_vec(left, right))
    assert np.array_equal(fm.add_vec(left, right), m2z3.add_vec(left, right))


def test_formal_matrix_agrees_with_generalized_matrix_square_twist():
    # the delta-exponent product at size 2 realises the generalized matrix
    # ring twisted by s**2
    base = rl.zmod(4)
    for s in (0, 1, 2, 3):
        fm = rl.formal_matrix(2, s, base)
        ks = k_ring(base, base.mul(s, s))
        ar = np.arange(fm.card)
        left, right = np.repeat(ar, fm.card), np.tile(ar, fm.card)
        assert np.array_equal(fm.mul_vec(left, right), ks.mul_vec(left, right))


def test_formal_matrix_requires_central_twist():
    m = rl.matrix_ring(2, rl.zmod(2))
    e10 = 2  # digits (0,0,1,0): not central in M_2
    with pytest.raises(ConstructionError, match="not central"):
        rl.formal_matrix(2, e10, m)
    with pytest.raises(ConstructionError, match="twist 16"):
        rl.formal_matrix(2, 16, m)


def test_fm_gwnc_example():
    assert rl.gwnc(rl.build("FM(2,2,Z(4))"))[0] is True


def test_groups():
    c1 = rl.cyclic_group(1)
    assert c1.order == 1
    c4 = rl.cyclic_group(4)
    powers = [0]
    for _ in range(4):
        powers.append(int(c4.table[powers[-1], 1]))
    assert powers == [0, 1, 2, 3, 0]  # the generator has order 4
    klein = rl.group_product(rl.cyclic_group(2), rl.cyclic_group(2))
    assert klein.table[np.arange(4), np.arange(4)].tolist() == [0, 0, 0, 0]
    assert klein.is_abelian and klein.is_p_group(2)
    with pytest.raises(ConstructionError):
        rl.FiniteGroup([[0, 1], [1, 1]], "bad")
    # the order limit holds before the n x n Cayley table is formed: C(10^6)
    # would need 8 TB
    for n in (513, 10**6):
        with pytest.raises(ConstructionError, match=r"group order must be in 1\.\.512"):
            rl.cyclic_group(n)


@pytest.mark.parametrize("expr", ["GR(Z(2),C(512))", "GR(Z(2),C(2) x C(256))"])
def test_group_ring_guard_comes_before_the_group(monkeypatch, expr):
    """The order of a group term is read off it, so the guard refuses
    card 2^512 before the group's Cayley table is validated."""
    def refuse(*args):
        raise AssertionError("the group was built")

    monkeypatch.setattr(rl.FiniteGroup, "__init__", refuse)
    with pytest.raises(rl.GuardError, match=r"^card 2\^512 exceeds guard 200000$"):
        rl.build(expr)
    # the order limit comes first, before either factor is built
    with pytest.raises(ConstructionError, match=r"^group order 1024 exceeds limit 512$"):
        rl.build("GR(Z(2),C(512) x C(2))")


def test_group_ring():
    rg = rl.group_ring(rl.zmod(2), rl.cyclic_group(2))
    assert rg.card == 4
    assert rg.one == 1  # 1 * g0
    z2c3 = rl.group_ring(rl.zmod(2), rl.cyclic_group(3))
    assert len(oracle_units(z2c3)) == 3
    assert len(rl.units(z2c3)) == 3


def test_ideal_generated(z12):
    def saturate(ring, gens):
        members = set(gens) | {ring.zero}
        while True:
            fresh = set()
            for x in members:
                fresh.add(ring.neg(x))
                for y in members:
                    fresh.add(ring.add(x, y))
                for r in range(ring.card):
                    fresh.add(ring.mul(r, x))
                    fresh.add(ring.mul(x, r))
            if fresh <= members:
                return members
            members |= fresh

    assert set(rl.ideal_generated(z12, [6])) == saturate(z12, [6]) == {0, 6}
    assert set(rl.ideal_generated(z12, [0])) == {0}
    assert set(rl.ideal_generated(z12, [1])) == set(range(12))


def test_quotient_by_ideal(z12):
    ideal = rl.ideal_generated(z12, [6])
    q = rl.quotient_by_ideal(z12, ideal)
    assert q.card == 6
    assert flags_of(q) == flags_of(rl.zmod(6))
    trivial = rl.quotient_by_ideal(z12, rl.ideal_generated(z12, [0]))
    assert trivial.card == 12
    assert flags_of(trivial) == flags_of(z12)


def test_quotient_of_triangular_by_strict_upper():
    T = rl.upper_triangular(2, rl.zmod(2))
    # classes are ordered (0,0), (0,1), (1,1); the strictly-upper generator
    # has digits (0,1,0), i.e. index 2
    strict = rl.ideal_generated(T, [2])
    assert sorted(strict) == [0, 2]
    q = rl.quotient_by_ideal(T, strict)
    assert q.card == 4
    from ringlab.structure import is_commutative

    assert is_commutative(q)


def test_quotient_rejects_non_ideal(z12):
    T = rl.upper_triangular(2, rl.zmod(2))
    ar = np.arange(T.card)
    # T(2,Z(2)) indexes a11*4 + a12*2 + a22: e11 = 4 and e22 = 1.  R*e11
    # and e22*R stay in {0, e11} and {0, e22}; e11*R and R*e22 do not
    assert set(T.mul_vec(ar, 4)) == {0, 4} < set(T.mul_vec(4, ar))
    assert set(T.mul_vec(1, ar)) == {0, 1} < set(T.mul_vec(ar, 1))
    cases = [
        (z12, [0, 1], 2),
        (z12, [6], 0),  # no zero
        (z12, [0, 4], 8),  # 4 + 4 = 8 is missing
        (T, [0, 4], 2),  # e11 * e12 = e12 = 2
        (T, [0, 1], 2),  # e12 * e22 = e12
    ]
    for ring, members, lacks in cases:
        subset = rl.Subset(ring, np.isin(np.arange(ring.card), members))
        assert not scan_is_ideal(ring, subset.mask)
        with pytest.raises(ConstructionError, match=f"not an ideal: it lacks {lacks}"):
            rl.quotient_by_ideal(ring, subset)


S3_RINGS = {"GR(Z(2),S3)": 2, "GR(Z(3),S3)": 3}

QUOTIENT_EXPRS = sorted(
    {e.expression for e in CATALOG} | set(AXIOM_SUITE_EXTRAS) | set(LADDER_RUNGS)
) + sorted(S3_RINGS)


def primitive_central_idempotents(ring):
    data = structure.ring_data(ring)
    central = [int(e) for e in np.flatnonzero(data.idem_mask & data.center_mask) if e != ring.zero]
    return [e for e in central if not any(f != e and ring.mul(f, e) == f for f in central)]


@pytest.mark.parametrize("expr", QUOTIENT_EXPRS)
def test_ideals_and_quotients_match_member_scans(expr):
    """The additive-span walk against the member scans it replaced, with
    tables and without: the ideals of J's least nonzero member and, up to
    card 256, of the first nonzero idempotents; the ideal check and the
    cosets of those and of J (through ``mod_j``); and the fingerprint's
    block centers."""
    computed = s3_group_ring(S3_RINGS[expr]) if expr in S3_RINGS else rl.build(expr)
    for ring in {computed, rl.maybe_memoize(computed)}:
        data = structure.ring_data(ring)
        seeds = [[int(x)] for x in np.flatnonzero(data.jacobson_mask)[1:2]]
        if ring.card <= 256:
            seeds += [[int(e)] for e in data.idem_indices[1:4]]
        mod_j = structure.mod_j(ring)
        quotients = [(data.jacobson_mask, mod_j)]
        for gens in seeds:
            ideal = rl.ideal_generated(ring, gens)
            assert np.array_equal(ideal.mask, scan_ideal(ring, gens)), (expr, ring, gens)
            quotients.append((ideal.mask, rl.quotient_by_ideal(ring, ideal)))
        for mask, quotient in quotients:
            assert scan_is_ideal(ring, mask)
            reps, coset_of = scan_coset_minima(ring, mask)
            assert np.array_equal(quotient._reps, reps), (expr, ring)
            assert np.array_equal(quotient._coset_of, coset_of), (expr, ring)
        blocks = []
        for e in primitive_central_idempotents(mod_j):
            card, q = scan_block_center(mod_j, e)
            n = 1
            while q ** (n * n) < card:
                n += 1
            blocks.append((n, q))
        assert structure.wedderburn_fingerprint(mod_j).blocks == tuple(sorted(blocks))


@pytest.mark.parametrize("expr", ["T(2,Z(4))", "TE(Z(6))", "PQ(Z(3),[0,0,1])"])
def test_ideals_of_radical_pairs_match_scan(expr):
    """The ideals P-2.8 quotients by: one per radical element and one per
    pair of them."""
    ring = rl.maybe_memoize(rl.build(expr))
    jidx = [int(i) for i in rl.jacobson(ring).indices()]
    pool = [(j,) for j in jidx] + list(itertools.combinations(jidx, 2))
    for gens in pool:
        assert np.array_equal(rl.ideal_generated(ring, gens).mask, scan_ideal(ring, gens)), gens


def test_quotient_work_is_near_linear():
    """``add_vec`` and ``mul_vec`` pairs of the quotient of computed
    T(3,Z(4)) by J (|J| = 512); the member scans formed 6,553,600."""
    ring = rl.build("T(3,Z(4))")
    jac = rl.jacobson(ring)
    assert len(jac) == 512
    pairs = 0

    def counted(op):
        def call(xs, ys):
            nonlocal pairs
            out = op(xs, ys)
            pairs += out.size
            return out

        return call

    ring.add_vec, ring.mul_vec = counted(ring.add_vec), counted(ring.mul_vec)
    quotient = rl.quotient_by_ideal(ring, jac)
    assert quotient.card == 8
    assert 0 < pairs <= 4 * ring.card * np.log2(ring.card)


def test_quotient_replays_each_step_once():
    """``add_vec`` calls and pairs of the quotient of computed T(3,Z(4)) by
    J once the ring knows its additive generators, the span walk
    included: each step's h is replayed once, and no later generator
    again.  Replaying every generator as well made 28 calls of 58,720."""
    ring = rl.build("T(3,Z(4))")
    jac = rl.jacobson(ring)
    additive_generators(ring)
    calls = []
    add = ring.add_vec

    def counted(xs, ys):
        out = add(xs, ys)
        calls.append(out.size)
        return out

    ring.add_vec = counted
    assert rl.quotient_by_ideal(ring, jac).card == 8
    assert (len(calls), sum(calls)) == (23, 38240)


@pytest.mark.parametrize("n", [2, 3, 5, 9, 12, 17, 33])
def test_cyclic_quotients_match_member_scans(n):
    """Z(n) modulo each ideal dZ(n), whose one generator d has order n/d:
    at 2, 3, 5, 9, 17 and 33 that is 2^J + 1 for the J steps of its walk,
    the case that replays d itself."""
    ring = rl.build(f"Z({n})")
    for d in range(1, n + 1):
        if n % d == 0:
            ideal = rl.ideal_generated(ring, [d % n])
            quotient = rl.quotient_by_ideal(ring, ideal)
            reps, coset_of = scan_coset_minima(ring, ideal.mask)
            assert np.array_equal(quotient._reps, reps), d
            assert np.array_equal(quotient._coset_of, coset_of), d


def test_dt_tower_matches_pattern_flags():
    for n in (2, 3):
        tower = rl.trivial_extension(rl.trivial_extension(rl.zmod(n)))
        frame = rl.pattern_subring(rl.double_extension_pattern(), rl.zmod(n))
        assert flags_of(tower) == flags_of(frame)


@pytest.mark.parametrize("expr", ["M(3,Z(3))", "FM(2,2,Z(8))", "GR(Z(2),C(2) x C(2) x C(2))"])
def test_digit_ring_splits_each_operand_once(monkeypatch, expr):
    """A digit ring's ``add_vec`` and ``mul_vec`` on operands of shapes
    (m, 1) and (1, k) split m + k indices into digits, not m * k, and its
    ``neg_vec`` splits each index once."""
    ring = rl.build(expr)
    split = []
    decode = cons.decode_digits

    def counted(xs, base_card, ndigits):
        split.append(np.size(xs))
        return decode(xs, base_card, ndigits)

    monkeypatch.setattr(cons, "decode_digits", counted)
    xs, ys = np.arange(50)[:, None], np.arange(40)[None, :] * 3
    for op in (ring.add_vec, ring.mul_vec):
        split.clear()
        assert op(xs, ys).shape == (50, 40)
        assert sum(split) == 50 + 40, (op, split)
    split.clear()
    ring.neg_vec(xs)
    assert sum(split) == 50


@pytest.mark.parametrize("expr", ["PQ(Z(2),[1,1,0,0,0,0,0,0,0,0,0,1])", "PQ(Z(3),[1,2,0,1])", "GF(3,2)"])
def test_polynomial_product_convolves_then_folds(expr):
    """A product in R[x]/(f) forms each x_i*y_j once, d² base products,
    sums them by degree and folds each degree back into the d digits,
    with one more base product per fold coefficient other than 1: x^11+x+1
    makes 121 products where one term table per digit lists 176."""
    ring = rl.build(expr)
    calls = []
    base_mul = ring.base.mul_vec

    def counted(xs, ys):
        calls.append(1)
        return base_mul(xs, ys)

    ring.base.mul_vec = counted
    ring.mul_vec(np.arange(ring.card)[:, None], np.arange(0, ring.card, 3)[None, :])
    scaled = sum(t != ring.base.one for fold in ring._fold for _, t in fold)
    assert len(calls) == ring.degree**2 + scaled
    if ring.degree == 11:
        assert scaled == 0 and sum(map(len, ring._fold)) == 31


@pytest.mark.parametrize("base", range(2, 10))
@pytest.mark.parametrize("size", [0, 1, 8192])
def test_digit_codecs_round_trip(base, size):
    """``decode_digits`` against Python's divmod digits, most significant
    first on a new leading axis, and ``encode_digits`` back, on empty,
    single and long arrays, flat and as a column."""
    ndigits = 5
    xs = np.random.default_rng(base * size).integers(0, base**ndigits, size)
    digits = cons.decode_digits(xs, base, ndigits)
    assert digits.shape == (ndigits, size)
    for x, column in zip(xs[:64], digits.T):
        want = []
        for _ in range(ndigits):
            x, d = divmod(int(x), base)
            want.append(d)
        assert column.tolist() == want[::-1]
    assert np.array_equal(cons.encode_digits(digits, base), xs)
    stack = cons.decode_digits(xs[:, None], base, ndigits)
    assert stack.shape == (ndigits, size, 1)
    assert np.array_equal(stack[..., 0], digits)
    assert np.array_equal(cons.encode_digits(stack, base), xs[:, None])
