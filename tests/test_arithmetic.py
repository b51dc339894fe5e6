"""The vectorised arithmetic of every construction against plain integer
arithmetic mod n (over a non-commutative base, against the base ring's own
scalar operations), its contract on empty inputs, and the impulse closure
check of pattern rings against an exhaustive scan."""

import functools
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import ringlab as rl
from ringlab.constructions import Pattern

from conftest import S3_TABLE, bounded_ring_expr_strategy, digit_rings, digitwise_op, k_ring, s3_group_ring


def digits(a, n, k):
    """The ``k`` base-``n`` digits of ``a``, most significant first."""
    return [a // n ** (k - 1 - i) % n for i in range(k)]


def index(ds, n):
    acc = 0
    for d in ds:
        acc = acc * n + d % n
    return acc


def classes_mul(classes, n, twist=lambda i, l, j: 1):
    """Product in the ring of matrices over Z(n) whose entries are tied into
    ``classes`` (one digit each, first most significant), each term of
    entry (i, j) scaled by ``twist(i, l, j)``."""
    size = 1 + max(max(c) for cls in classes for c in cls)

    def matrix(a):
        m = [[0] * size for _ in range(size)]
        for d, cls in zip(digits(a, n, len(classes)), classes):
            for i, j in cls:
                m[i][j] = d
        return m

    def mul(a, b):
        A, B = matrix(a), matrix(b)
        entry = lambda i, j: sum(twist(i, l, j) * A[i][l] * B[l][j] for l in range(size))
        return index([entry(*cls[0]) for cls in classes], n)

    return mul


def full(k):
    return [((i, j),) for i in range(k) for j in range(k)]


def te_mul(n):
    def mul(a, b):
        (r, m), (s, t) = divmod(a, n), divmod(b, n)
        return (r * s % n) * n + (r * t + m * s) % n

    return mul


def poly_mul(n, modulus):
    """Product of residues mod a monic ``modulus`` over Z(n), coefficients
    little-endian."""
    d = len(modulus) - 1

    def mul(a, b):
        ca, cb = digits(a, n, d)[::-1], digits(b, n, d)[::-1]
        conv = [0] * (2 * d - 1)
        for i, j in itertools.product(range(d), repeat=2):
            conv[i + j] += ca[i] * cb[j]
        for t in range(2 * d - 2, d - 1, -1):
            for i in range(d):
                conv[t - d + i] -= conv[t] * modulus[i]
        return index(conv[:d][::-1], n)

    return mul


def group_ring_mul(n, group_mul, order):
    def mul(a, b):
        ca, cb = digits(a, n, order)[::-1], digits(b, n, order)[::-1]
        out = [0] * order
        for g, h in itertools.product(range(order), repeat=2):
            out[group_mul(g, h)] += ca[g] * cb[h]
        return index(out[::-1], n)

    return mul


def s3_mul(g, h):
    return S3_TABLE[g][h]


def product_mul(left, right, right_card):
    def mul(a, b):
        (la, ra), (lb, rb) = divmod(a, right_card), divmod(b, right_card)
        return left(la, lb) * right_card + right(ra, rb)

    return mul


def mod(n):
    return lambda a, b: a * b % n


def fm_twist(n, s):
    return lambda i, l, j: s ** (1 + (i == j) - (i == l) - (l == j)) % n


def digitwise_add(n, k):
    return lambda a, b: index([x + y for x, y in zip(digits(a, n, k), digits(b, n, k))], n)


def over_base(base):
    """Scalar ``mul`` and ``add`` of a base ring, memoised: the oracles below
    compose a digit ring's product from them, so the factor order of every
    base product shows when the base is not commutative."""
    return functools.cache(base.mul), functools.cache(base.add)


def te_mul_over(base):
    mul, add = over_base(base)
    n = base.card

    def oracle(a, b):
        (r, m), (s, t) = divmod(a, n), divmod(b, n)
        return mul(r, s) * n + add(mul(r, t), mul(m, s))

    return oracle


def group_ring_mul_over(base, group_mul, order):
    mul, add = over_base(base)
    n = base.card

    def oracle(a, b):
        ca, cb = digits(a, n, order)[::-1], digits(b, n, order)[::-1]
        out = [base.zero] * order
        for g, h in itertools.product(range(order), repeat=2):
            out[group_mul(g, h)] = add(out[group_mul(g, h)], mul(ca[g], cb[h]))
        return index(out[::-1], n)

    return oracle


def matrix_mul_over(base, k):
    """Product in M(k, base), entries row-major, (0,0) most significant."""
    mul, add = over_base(base)
    n = base.card

    def oracle(a, b):
        A, B = digits(a, n, k * k), digits(b, n, k * k)
        entry = lambda i, j: functools.reduce(add, (mul(A[i * k + l], B[l * k + j]) for l in range(k)))
        return index([entry(i, j) for i in range(k) for j in range(k)], n)

    return oracle


def digitwise_add_over(base, k):
    _, add = over_base(base)
    n = base.card
    return lambda a, b: index([add(x, y) for x, y in zip(digits(a, n, k), digits(b, n, k))], n)


def te_double_classes():
    diag = tuple((i, i) for i in range(4))
    return [diag, ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3),)]


Z12 = rl.zmod(12)
#: TE(Z(6)) as integer arithmetic, the base of the TE(TE(Z(6))) oracle
TE_Z6 = types.SimpleNamespace(card=36, zero=0, mul=te_mul(6), add=digitwise_add(6, 2))
#: not commutative, so a digit ring over it sees a swapped factor order
T2Z2 = rl.build("T(2,Z(2))")

#: ring, plain mul over integers, plain add over integers
CASES = {
    "M(2,Z(3))": (rl.build("M(2,Z(3))"), classes_mul(full(2), 3), digitwise_add(3, 4)),
    "T(2,Z(4))": (
        rl.build("T(2,Z(4))"),
        classes_mul([((0, 0),), ((0, 1),), ((1, 1),)], 4),
        digitwise_add(4, 3),
    ),
    "PAT(S(3),Z(2))": (
        rl.build("PAT(S(3),Z(2))"),
        classes_mul([((0, 0), (1, 1), (2, 2)), ((0, 1),), ((0, 2),), ((1, 2),)], 2),
        digitwise_add(2, 4),
    ),
    "PAT(DT,Z(2))": (
        rl.pattern_subring(rl.double_extension_pattern(), rl.zmod(2)),
        classes_mul(te_double_classes(), 2),
        digitwise_add(2, 4),
    ),
    "FM(2,2,Z(4))": (rl.build("FM(2,2,Z(4))"), classes_mul(full(2), 4, fm_twist(4, 2)), digitwise_add(4, 4)),
    "FM(2,3,Z(4))": (rl.build("FM(2,3,Z(4))"), classes_mul(full(2), 4, fm_twist(4, 3)), digitwise_add(4, 4)),
    "FM(3,0,Z(2))": (rl.build("FM(3,0,Z(2))"), classes_mul(full(3), 2, fm_twist(2, 0)), digitwise_add(2, 9)),
    "K(2,Z(4))": (
        k_ring(rl.zmod(4), 2),
        classes_mul(full(2), 4, lambda i, l, j: 2 if i == j != l else 1),
        digitwise_add(4, 4),
    ),
    "TE(Z(6))": (rl.build("TE(Z(6))"), te_mul(6), digitwise_add(6, 2)),
    "PQ(Z(4),[1,1,1])": (rl.build("PQ(Z(4),[1,1,1])"), poly_mul(4, (1, 1, 1)), digitwise_add(4, 2)),
    "GF(2,3)": (rl.build("GF(2,3)"), poly_mul(2, rl.gf(2, 3).modulus), digitwise_add(2, 3)),
    # x^11+x+1: products of degree 11 and up feed two digits each, formed once
    "PQ(Z(2),[1,1,0,0,0,0,0,0,0,0,0,1])": (
        rl.build("PQ(Z(2),[1,1,0,0,0,0,0,0,0,0,0,1])"),
        poly_mul(2, (1, 1) + (0,) * 9 + (1,)),
        digitwise_add(2, 11),
    ),
    "PQ(Z(3),[1,2,0,1])": (rl.build("PQ(Z(3),[1,2,0,1])"), poly_mul(3, (1, 2, 0, 1)), digitwise_add(3, 3)),
    "GF(3,2)": (rl.build("GF(3,2)"), poly_mul(3, rl.gf(3, 2).modulus), digitwise_add(3, 2)),
    "GR(Z(3),C(3))": (rl.build("GR(Z(3),C(3))"), group_ring_mul(3, lambda g, h: (g + h) % 3, 3), digitwise_add(3, 3)),
    "GR(Z(2),C(2) x C(2))": (
        rl.build("GR(Z(2),C(2) x C(2))"),
        group_ring_mul(2, lambda g, h: g ^ h, 4),
        digitwise_add(2, 4),
    ),
    # S3 is not abelian, so the convolution order of GroupRing.mul_vec shows
    "GR(Z(2),S3)": (s3_group_ring(2), group_ring_mul(2, s3_mul, 6), digitwise_add(2, 6)),
    "GR(Z(3),S3)": (s3_group_ring(3), group_ring_mul(3, s3_mul, 6), digitwise_add(3, 6)),
    "Z(4) x TE(Z(2))": (
        rl.build("Z(4) x TE(Z(2))"),
        product_mul(mod(4), te_mul(2), 4),
        product_mul(lambda a, b: (a + b) % 4, digitwise_add(2, 2), 4),
    ),
    "TE(T(2,Z(2)))": (rl.build("TE(T(2,Z(2)))"), te_mul_over(T2Z2), digitwise_add_over(T2Z2, 2)),
    "GR(T(2,Z(2)),C(2))": (
        rl.build("GR(T(2,Z(2)),C(2))"),
        group_ring_mul_over(T2Z2, lambda g, h: (g + h) % 2, 2),
        digitwise_add_over(T2Z2, 2),
    ),
    "M(2,T(2,Z(2)))": (rl.build("M(2,T(2,Z(2)))"), matrix_mul_over(T2Z2, 2), digitwise_add_over(T2Z2, 4)),
    # sums over several runs of digits: M(3,Z(3)) and T(3,Z(4)) end in a
    # shorter leading run, FM(2,2,Z(8)) in two full ones
    "M(3,Z(3))": (rl.build("M(3,Z(3))"), classes_mul(full(3), 3), digitwise_add(3, 9)),
    "T(3,Z(4))": (
        rl.build("T(3,Z(4))"),
        classes_mul([((i, j),) for i in range(3) for j in range(i, 3)], 4),
        digitwise_add(4, 6),
    ),
    "FM(2,2,Z(8))": (rl.build("FM(2,2,Z(8))"), classes_mul(full(2), 8, fm_twist(8, 2)), digitwise_add(8, 4)),
    # runs of one digit over a base of card 36, itself one run
    "TE(TE(Z(6)))": (rl.build("TE(TE(Z(6)))"), te_mul_over(TE_Z6), digitwise_add(6, 4)),
    # a base above the block card: digits summed by the base
    "TE(Z(300))": (rl.build("TE(Z(300))"), te_mul(300), digitwise_add(300, 2)),
    "Z(12)/(4)": (
        rl.quotient_by_ideal(Z12, rl.ideal_generated(Z12, [4])),
        mod(4),
        lambda a, b: (a + b) % 4,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_vector_arithmetic_matches_integer_arithmetic(name):
    ring, mul, add = CASES[name]
    ar, n = np.arange(ring.card), ring.card
    if n * n > 10_000:  # every pair up to card 100, a fixed sample above
        pairs = np.random.default_rng(0).choice(n * n, 10_000, replace=False)
    else:
        pairs = np.arange(n * n)
    left, right = np.divmod(pairs, n)
    want_mul = [mul(int(a), int(b)) for a, b in zip(left, right)]
    want_add = [add(int(a), int(b)) for a, b in zip(left, right)]
    assert ring.mul_vec(left, right).tolist() == want_mul
    assert ring.add_vec(left, right).tolist() == want_add
    assert ring.add_vec(ar, ring.neg_vec(ar)).tolist() == [ring.zero] * ring.card


@pytest.mark.parametrize("n", [2, 3])
def test_group_ring_oracle_sees_the_convolution_order(n):
    """The integer oracle with h·g in place of g·h disagrees with the ring
    on the pairs the arithmetic test draws, so a swapped product fails it."""
    ring, mul, _ = CASES[f"GR(Z({n}),S3)"]
    swapped = group_ring_mul(n, lambda g, h: s3_mul(h, g), 6)
    left, right = np.divmod(np.arange(ring.card**2), ring.card)
    if len(left) > 10_000:
        pick = np.random.default_rng(0).choice(len(left), 10_000, replace=False)
        left, right = left[pick], right[pick]
    got = ring.mul_vec(left, right).tolist()
    assert got == [mul(int(a), int(b)) for a, b in zip(left, right)]
    assert got != [swapped(int(a), int(b)) for a, b in zip(left, right)]


EMPTY_CASES = [
    "Z(5)", "M(2,Z(2))", "T(2,Z(3))", "PAT(S(2,2),Z(2))", "FM(2,2,Z(4))", "TE(Z(3))",
    "PQ(Z(2),[1,1,1])", "GF(3,2)", "GR(Z(2),C(3))", "MODJ(T(2,Z(2)))", "Z(2) x M(2,Z(2))",
]


@pytest.mark.parametrize("expr", EMPTY_CASES + ["K", "table"])
def test_vector_ops_accept_empty_arrays(expr):
    if expr == "K":
        ring = k_ring(rl.zmod(3), 2)
    elif expr == "table":
        ring = rl.maybe_memoize(rl.build("M(2,Z(2))"))
    else:
        ring = rl.build(expr)
    empty = np.array([], dtype=np.int64)
    for out in (ring.add_vec(empty, empty), ring.neg_vec(empty), ring.mul_vec(empty, empty)):
        assert out.dtype == np.int64
        assert out.shape == (0,)


#: every family of ``CASES`` (digit rings, a product, a quotient, digit
#: rings over digit rings) plus ``Zmod`` alone and a table ring
BROADCAST_CASES = {
    **CASES,
    "Z(7)": (rl.zmod(7), mod(7), lambda a, b: (a + b) % 7),
    "table M(2,Z(3))": (rl.maybe_memoize(rl.build("M(2,Z(3))")), *CASES["M(2,Z(3))"][1:]),
}


def check_broadcast(ring, op, xs, ys, oracle):
    """``op(xs, ys)`` is an int64 array of the broadcast shape holding the
    flat evaluation on the broadcast pairs, and the oracle's values."""
    got = op(xs, ys)
    left, right = np.broadcast_arrays(np.atleast_1d(xs), np.atleast_1d(ys))
    shape, left, right = left.shape, left.ravel(), right.ravel()
    assert got.dtype == np.int64 and got.shape == shape, (ring, op, got.shape, shape)
    assert np.array_equal(got, op(left, right).reshape(shape)), (ring, op)
    assert got.ravel().tolist() == [oracle(int(a), int(b)) for a, b in zip(left, right)], (ring, op)


@pytest.mark.parametrize("name", sorted(BROADCAST_CASES))
def test_vector_ops_broadcast_like_numpy(name):
    """Operands of shapes (m, 1) against (1, k) or (m, k), a scalar or a
    flat array against a table, and empty operands give the flat evaluation in the broadcast
    shape, and it agrees with the integer oracles: ``neg_vec`` through
    a + (-a) = 0 and ``sub_vec`` as a + (-b)."""
    ring, mul, add = BROADCAST_CASES[name]
    rng = np.random.default_rng(len(name))
    xs, ys, table = (rng.integers(0, ring.card, shape) for shape in (7, 5, (7, 5)))
    neg = dict(zip(range(ring.card), ring.neg_vec(np.arange(ring.card)).tolist()))
    assert all(add(a, b) == ring.zero for a, b in neg.items())
    sub = lambda a, b: add(a, neg[b])
    empty = np.array([], dtype=np.int64)
    operands = [
        (xs[:, None], ys[None, :]),
        (xs[:, None], table),
        (int(xs[0]), ys),
        (ys, int(xs[0])),
        (int(xs[0]), table),
        (table, ys),
        (empty[:, None], ys[None, :]),
        (xs[:, None], empty[None, :]),
        (int(xs[0]), empty),
    ]
    for x, y in operands:
        for op, oracle in ((ring.add_vec, add), (ring.mul_vec, mul), (ring.sub_vec, sub)):
            check_broadcast(ring, op, x, y, oracle)
    for x in (xs[:, None], table, empty[:, None]):
        got = ring.neg_vec(x)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert got.ravel().tolist() == [neg[int(a)] for a in x.ravel()]


@given(bounded_ring_expr_strategy(max_card=5000), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_run_sums_match_the_digitwise_oracle_property(expr, seed):
    """``add_vec``, ``neg_vec`` and ``sub_vec`` of every digit ring drawn,
    on a column of sampled elements against a row, equal the digit-by-digit
    oracle, with runs of any length and bases above the block card."""
    try:
        ring = rl.build(expr, max_card=5000)
    except (rl.ConstructionError, rl.GuardError):
        reject()
    rng = np.random.default_rng(seed)
    for digit_ring in digit_rings(ring):
        col, row = rng.integers(0, digit_ring.card, (32, 1)), rng.integers(0, digit_ring.card, (1, 32))
        for name in ("add", "sub"):
            got = getattr(digit_ring, f"{name}_vec")(col, row)
            assert np.array_equal(got, digitwise_op(digit_ring, name, col, row)), (digit_ring, name)
        assert np.array_equal(digit_ring.neg_vec(col), digitwise_op(digit_ring, "neg", col)), digit_ring


def closed_by_exhaustion(pattern, n):
    """Whether every product of two pattern matrices over Z(n) is again a
    pattern matrix, by multiplying all pairs: the scan the impulse check
    replaced."""
    k, classes = pattern.size, pattern.classes
    ds = np.array(list(itertools.product(range(n), repeat=len(classes))))
    mats = np.zeros((len(ds), k, k), dtype=np.int64)
    for c, cls in enumerate(classes):
        for i, j in cls:
            mats[:, i, j] = ds[:, c]
    covered = {c for cls in classes for c in cls}
    for A in mats:
        prods = np.einsum("ij,njk->nik", A, mats) % n
        ok = np.ones(len(mats), dtype=bool)
        for cls in classes:
            for i, j in cls[1:]:
                ok &= prods[:, i, j] == prods[:, cls[0][0], cls[0][1]]
        for i, j in itertools.product(range(k), repeat=2):
            if (i, j) not in covered:
                ok &= prods[:, i, j] == 0
        if not ok.all():
            return False
    return True


def _not_closed_patterns():
    diag3 = tuple((i, i) for i in range(3))
    diag4 = tuple((i, i) for i in range(4))
    return [
        # Toeplitz superdiagonal with (0,2) forced to zero
        Pattern(3, (diag3, ((0, 1), (1, 2))), "bad"),
        Pattern(3, (diag3, ((0, 1),), ((1, 2),)), "corner"),
        # (0,3) picks up 2*x*y: closed over Z(2) only
        Pattern(4, (diag4, ((0, 1), (0, 2)), ((1, 3), (2, 3))), "twice"),
    ]


CLOSURE_PATTERNS = [
    rl.s_pattern(2), rl.s_pattern(3), rl.s_nm_pattern(2, 2), rl.t_nm_pattern(2, 2),
    rl.u_pattern(2), rl.u_pattern(3), rl.double_extension_pattern(),
    rl.constructions.upper_triangular_pattern(2),
] + _not_closed_patterns()


@pytest.mark.parametrize("pattern", CLOSURE_PATTERNS, ids=lambda p: p.name)
def test_impulse_closure_check_matches_exhaustive_scan(pattern):
    verdicts = []
    for n in (2, 3, 4):
        try:
            rl.pattern_subring(pattern, rl.zmod(n))
            closed = True
        except rl.ConstructionError as err:
            assert "witness pair" in str(err)
            closed = False
        assert closed == closed_by_exhaustion(pattern, n), (pattern.name, n)
        verdicts.append(closed)
    if pattern.name == "twice":
        assert verdicts == [True, False, False]
