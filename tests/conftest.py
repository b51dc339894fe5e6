import functools
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

import ringlab as rl
from ringlab.constructions import _BUILTIN_PATTERNS, MatrixRing, decode_digits, encode_digits
from ringlab.core import check_ring_axioms
from ringlab.dsl import Term
from ringlab.verify import CATALOG, VerifyContext


@pytest.fixture(scope="session")
def z6():
    return rl.zmod(6)


@pytest.fixture(scope="session")
def z12():
    return rl.zmod(12)


@pytest.fixture(scope="session")
def m2z2():
    return rl.matrix_ring(2, rl.zmod(2))


@pytest.fixture(scope="session")
def m2z3():
    return rl.matrix_ring(2, rl.zmod(3))


# ---------------------------------------------------------------------------
# independent oracles, deliberately written against the raw definitions


class _TableArith:
    """Scalar arithmetic of a ring read from ``direct_tables``: the oracles
    below stay brute force, but do not go through the ring's own scalar
    ops, which evaluate its vector ops on one pair at a time."""

    def __init__(self, ring):
        self.card, self.zero, self.one = ring.card, ring.zero, ring.one
        self._add, self._mul, self._neg = direct_tables(ring)

    def add(self, a, b):
        return int(self._add[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def mul(self, a, b):
        return int(self._mul[a, b])

    def sub(self, a, b):
        return self.add(a, self.neg(b))


@functools.lru_cache(maxsize=8)
def table_arith(ring):
    return ring if isinstance(ring, _TableArith) else _TableArith(ring)


def oracle_units(ring):
    """Brute-force pair scan: a is a unit iff some b has a*b == 1."""
    ring = table_arith(ring)
    out = set()
    for a in range(ring.card):
        for b in range(ring.card):
            if ring.mul(a, b) == ring.one:
                out.add(a)
                break
    return out


def oracle_nilpotents(ring):
    """Elements whose powers reach zero, by ``oracle_status``'s power walk."""
    return {a for a, s in enumerate(oracle_status(ring)) if s == "nil"}


def oracle_idempotents(ring):
    ring = table_arith(ring)
    return {a for a in range(ring.card) if ring.mul(a, a) == a}


def oracle_jacobson_two_sided(ring):
    """{x : 1 - r*x*s is a unit for all r, s}, the two-sided definition, on
    the ring's tables: per x, blocks of 64 rows r against every s, leaving
    x at its first failing block."""
    t = table_arith(ring)
    unit = np.zeros(t.card, dtype=bool)
    unit[list(oracle_units(t))] = True
    one_minus = t._add[t.one][t._neg]  # one_minus[y] = 1 - y
    return {
        x
        for x in range(t.card)
        if all(
            unit[one_minus[t._mul[t._mul[lo : lo + 64, x]]]].all()
            for lo in range(0, t.card, 64)
        )
    }


def oracle_center(ring):
    ring = table_arith(ring)
    return {
        x
        for x in range(ring.card)
        if all(ring.mul(x, r) == ring.mul(r, x) for r in range(ring.card))
    }


def scan_center(ring):
    """Mask of the elements commuting with every element, one ``mul_vec``
    pair per element of the carrier: the scan ``center_mask`` replaced."""
    cand = np.arange(ring.card, dtype=np.int64)
    for r in range(ring.card):
        cand = cand[ring.mul_vec(cand, r) == ring.mul_vec(r, cand)]
    mask = np.zeros(ring.card, dtype=bool)
    mask[cand] = True
    return mask


def scan_jacobson(ring):
    """Mask of the x with 1 - x a unit and 1 - r*x a unit for every r,
    rows in chunks of 256 per candidate: the scan ``jacobson_mask``
    replaced.  Reads the library's units, which ``oracle_status`` checks."""
    unit = rl.structure.ring_data(ring).unit_mask
    ar = np.arange(ring.card, dtype=np.int64)
    mask = np.zeros(ring.card, dtype=bool)
    for x in np.flatnonzero(unit[ring.sub_vec(ring.one, ar)]):
        mask[x] = all(
            unit[ring.sub_vec(ring.one, ring.mul_vec(ar[lo : lo + 256], x))].all()
            for lo in range(0, ring.card, 256)
        )
    return mask


def scan_left_quasi_regular(ring):
    """Mask of the nilpotents x with 1 - r*x a unit for every r of the
    carrier, all candidates against blocks of rows in one ``mul_vec`` each:
    the all-rows pass that ``RingData._left_quasi_regular`` replaced by the
    nilpotent rows.  Reads the library's units and nilpotents, which
    ``oracle_status`` checks."""
    data = rl.structure.ring_data(ring)
    cand = np.flatnonzero(data.nil_mask)
    lo = 0
    while len(cand) and lo < ring.card:
        rs = np.arange(lo, min(lo + max(1, 8192 // len(cand)), ring.card))
        rx = ring.mul_vec(np.repeat(rs, len(cand)), np.tile(cand, len(rs)))
        unit = data.unit_mask[ring.sub_vec(ring.one, rx)]
        cand = cand[unit.reshape(len(rs), len(cand)).all(axis=0)]
        lo += len(rs)
    mask = np.zeros(ring.card, dtype=bool)
    mask[cand] = True
    return mask


def scan_commutative(ring):
    """Whether every row of the product equals its column: the scan
    ``ring_is_commutative`` replaced."""
    ar = np.arange(ring.card, dtype=np.int64)
    return all(
        np.array_equal(ring.mul_vec(r, ar), ring.mul_vec(ar, r)) for r in range(ring.card)
    )


def scan_exchange(ring):
    """(exchange, weakly exchange) by the idempotent-in-aR definitions, one
    row per element: the decider ``structural_predicates`` replaced."""
    data = rl.structure.ring_data(ring)
    idem = data.idem_mask
    ar = np.arange(ring.card, dtype=np.int64)
    one = ring.one
    exchange = True
    weakly = True
    for a in range(ring.card):
        aR = ring.mul_vec(a, ar)
        es = np.unique(aR[idem[aR]])
        if len(es) == 0:
            return False, False
        one_minus_es = ring.sub_vec(one, es)
        m_minus = np.zeros(ring.card, dtype=bool)
        m_minus[ring.mul_vec(ring.sub(one, a), ar)] = True
        ok_minus = m_minus[one_minus_es]
        if exchange and not ok_minus.any():
            exchange = False
        if weakly:
            m_plus = np.zeros(ring.card, dtype=bool)
            m_plus[ring.mul_vec(ring.add(one, a), ar)] = True
            if not (ok_minus | m_plus[one_minus_es]).any():
                weakly = False
        if not exchange and not weakly:
            break
    return exchange, weakly


def scan_nil_closure(ring):
    """(NI, NR): whether Nil(R) is an ideal / a subring, one row per
    nilpotent: the decider ``structural_predicates`` replaced."""
    data = rl.structure.ring_data(ring)
    nil = data.nil_mask
    nidx = np.flatnonzero(nil)
    ar = np.arange(ring.card, dtype=np.int64)
    ni = True
    nr = True
    for i in nidx:
        i = int(i)
        if not nil[ring.add_vec(nidx, i)].all():
            return False, False  # additive closure fails both
        if nr and not nil[ring.mul_vec(nidx, i)].all():
            nr = False
        if ni and not (
            nil[ring.mul_vec(ar, i)].all() and nil[ring.mul_vec(i, ar)].all()
        ):
            ni = False
        if not ni and not nr:
            break
    return ni, nr


def scan_regular(ring):
    """Whether every a has some r with a*r*a = a, one row per element: the
    decider ``structure.is_regular`` replaced."""
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        if not (ring.mul_vec(ring.mul_vec(a, ar), a) == a).any():
            return False
    return True


def scan_strongly_regular(ring):
    """Whether every a lies in a**2 R, one row per element: the decider
    ``structure.is_strongly_regular`` replaced."""
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        a2 = ring.mul(a, a)
        if not (ring.mul_vec(a2, ar) == a).any():
            return False
    return True


def scan_semipotent(ring):
    """Checked over principal one-sided ideals: any one-sided ideal not
    inside J contains some a outside J, and then aR (or Ra) sits inside it.
    The decider ``structure.is_semipotent`` replaced."""
    data = rl.structure.ring_data(ring)
    jac = data.jacobson_mask
    idem_nonzero = data.idem_mask.copy()
    idem_nonzero[ring.zero] = False
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        if jac[a]:
            continue
        if not idem_nonzero[ring.mul_vec(a, ar)].any():
            return False
        if not idem_nonzero[ring.mul_vec(ar, a)].any():
            return False
    return True


def scan_strongly_pi_regular(ring):
    """Whether every a has some n with a**n in a**(n+1) R, walking the
    powers of each element: the decider ``structure.is_strongly_pi_regular``
    replaced."""
    ar = np.arange(ring.card, dtype=np.int64)
    for a in range(ring.card):
        x = a  # a**n
        for _ in range(ring.card):
            xnext = ring.mul(x, a)  # a**(n+1)
            if (ring.mul_vec(xnext, ar) == x).any():
                break
            x = xnext
        else:
            return False
    return True


def scan_witness_ranks(ring, nil):
    """(plus, plus_strong, minus, missing) by one combined pass over the
    pairs (r, e) of a target r and an idempotent e, with an addition for
    each sign and the commutation products on every chunk, run flat over
    the carrier also for a direct product: the oracle of the nil sign pass
    (``RingData.nil_signs`` holds ``plus < missing`` and ``minus <
    missing``) and of the keys of ``decompositions.idempotent_scan``.
    Reads the library's masks, which ``oracle_status`` and
    ``oracle_idempotents`` check."""
    data = rl.structure.ring_data(ring)
    idem = data.idem_indices
    targets = np.flatnonzero(data.nil_mask if nil else data.unit_mask)
    missing = len(idem)
    plus = np.full(ring.card, missing, dtype=np.int64)
    plus_strong = plus.copy()
    minus = plus.copy()
    neg_idem = ring.neg_vec(idem)
    total = len(targets) * missing
    for lo in range(0, total, 8192):
        rank, t = np.divmod(np.arange(lo, min(lo + 8192, total)), len(targets))
        r = targets[t]
        a = ring.add_vec(r, idem[rank])
        np.minimum.at(plus, a, rank)
        np.minimum.at(minus, ring.add_vec(r, neg_idem[rank]), rank)
        open_ = plus_strong[a] == missing
        r, a, rank = r[open_], a[open_], rank[open_]
        e = idem[rank]
        commuting = ring.mul_vec(r, e) == ring.mul_vec(e, r)
        np.minimum.at(plus_strong, a[commuting], rank[commuting])
    return plus, plus_strong, minus, missing


def scan_ideal(ring, gens):
    """Mask of the smallest two-sided ideal containing ``gens`` by
    saturation, each round one row of sums and two of products per member:
    the loop ``ideal_generated`` replaced."""
    mask = np.zeros(ring.card, dtype=bool)
    mask[ring.zero] = True
    mask[list(gens)] = True
    ar = np.arange(ring.card, dtype=np.int64)
    while True:
        idx = np.flatnonzero(mask)
        new = mask.copy()
        new[ring.neg_vec(idx)] = True
        for i in idx:
            i = int(i)
            new[ring.mul_vec(ar, i)] = True
            new[ring.mul_vec(i, ar)] = True
            new[ring.add_vec(idx, i)] = True
        if np.array_equal(new, mask):
            return mask
        mask = new


def scan_nil_ideals(ring):
    """Masks of the ideals generated by one member of J or by two, one
    ``ideal_generated`` call per member and per pair, deduplicated: the
    enumeration ``verify._nil_ideals`` replaced by sums of principal
    ideals."""
    jidx = [int(i) for i in rl.jacobson(ring).indices()]
    seen = {}
    for gens in [(j,) for j in jidx] + list(itertools.combinations(jidx, 2)):
        ideal = rl.constructions.ideal_generated(ring, gens)
        seen.setdefault(ideal.mask.tobytes(), ideal.mask)
    return list(seen.values())


def scan_is_ideal(ring, mask):
    """Whether ``mask`` holds zero and the negative, the sums and both
    products of every member, one row per member: the check
    ``QuotientRing`` replaced."""
    idx = np.flatnonzero(mask)
    if not mask[ring.zero] or not mask[ring.neg_vec(idx)].all():
        return False
    ar = np.arange(ring.card, dtype=np.int64)
    return all(
        mask[ring.add_vec(idx, i)].all()
        and mask[ring.mul_vec(ar, i)].all()
        and mask[ring.mul_vec(i, ar)].all()
        for i in map(int, idx)
    )


def scan_coset_minima(ring, mask):
    """(reps, coset_of) of the quotient by the ideal ``mask``: each element's
    coset minimum, one addition over the carrier per member, and its rank
    among the minima: the scan ``QuotientRing`` replaced."""
    ar = np.arange(ring.card, dtype=np.int64)
    minrep = ar
    for i in np.flatnonzero(mask):
        minrep = np.minimum(minrep, ring.add_vec(ar, int(i)))
    reps = np.unique(minrep)
    return reps, np.searchsorted(reps, minrep)


def scan_block_center(ring, e):
    """(card, center order) of the corner eRe, the center by one
    commutation row per corner element: the scan ``wedderburn_fingerprint``
    replaced."""
    ar = np.arange(ring.card, dtype=np.int64)
    corner = np.unique(ring.mul_vec(ring.mul_vec(e, ar), e))
    q = sum(
        np.array_equal(ring.mul_vec(int(x), corner), ring.mul_vec(corner, int(x)))
        for x in corner
    )
    return len(corner), q


def oracle_weakly_nil_clean_elem(ring, a, nil=None):
    ring = table_arith(ring)
    nil = oracle_nilpotents(ring) if nil is None else nil
    for e in oracle_idempotents(ring):
        if ring.sub(a, e) in nil or ring.add(a, e) in nil:
            return True
    return False


@functools.lru_cache(maxsize=4)
def oracle_status(ring):
    """Per element "unit", "nil" or "neither", by walking its powers until
    they reach one, reach zero or repeat."""
    ring = table_arith(ring)
    out = []
    for a in range(ring.card):
        seen = set()
        x = a
        while x not in seen:
            if x == ring.zero:
                out.append("nil")
                break
            if x == ring.one:
                out.append("unit")
                break
            seen.add(x)
            x = ring.mul(x, a)
        else:
            out.append("neither")
    return tuple(out)


@functools.lru_cache(maxsize=4)
def _sorted_idempotents(ring):
    return sorted(oracle_idempotents(ring))


def oracle_witness(ring, a, kind):
    """The first decomposition of ``a`` of one kind by the scalar search in
    the documented order, idempotents ascending and sign + before -, as
    ``(sign, idempotent, rest, commuting)``; None when there is none."""
    status = oracle_status(ring)
    ring = table_arith(ring)
    target = "nil" if "nil" in kind else "unit"
    strongly = kind.startswith("strongly")
    signs = (1, -1) if kind.startswith("weakly") else (1,)
    for e in _sorted_idempotents(ring):
        for sign in signs:
            rest = ring.sub(a, e) if sign == 1 else ring.add(a, e)
            if status[rest] != target:
                continue
            commuting = ring.mul(e, rest) == ring.mul(rest, e)
            if strongly and not commuting:
                continue
            return sign, e, rest, commuting
    return None


_ORACLE_DOMAIN_KIND = {
    "gnc": "nil_clean",
    "gsnc": "strongly_nil_clean",
    "gwnc": "weakly_nil_clean",
}


def oracle_counterexample(ring, flag):
    """Lowest element violating a report flag by its definition, or None."""
    status = oracle_status(ring)
    ring = table_arith(ring)

    def decomposes(a, kind):
        return oracle_witness(ring, a, kind) is not None

    def fails(a):
        if flag.startswith("strongly_weakly_"):
            kind = "strongly_" + flag[len("strongly_weakly_"):]
            return not decomposes(a, kind) and not decomposes(ring.neg(a), kind)
        if flag in _ORACLE_DOMAIN_KIND:
            return status[a] != "unit" and not decomposes(a, _ORACLE_DOMAIN_KIND[flag])
        if flag == "uwnc":
            return status[a] == "unit" and not decomposes(a, "weakly_nil_clean")
        if flag == "uu":
            return status[a] == "unit" and status[ring.sub(a, ring.one)] != "nil"
        if flag == "wuu":
            near_one = "nil" in (status[ring.sub(a, ring.one)], status[ring.add(a, ring.one)])
            return (status[a] == "unit") != near_one
        return not decomposes(a, flag)

    return next((a for a in range(ring.card) if fails(a)), None)


#: the rungs of the benchmark's classify ladder, both sides of the table
#: threshold
LADDER_RUNGS = (
    "M(3,Z(2))",
    "M(2,Z(6))",
    "M(2,GF(2,2)) x Z(4)",
    "T(2,Z(8))",
    "TE(Z(27))",
    "GR(Z(2),C(2) x C(2) x C(2))",
    "M(2,Z(7))",
)


#: constructions the ring-axiom tests check besides the catalog
AXIOM_SUITE_EXTRAS = (
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
)


def axiom_checked_expressions():
    """Run ``check_ring_axioms`` on every catalog and ``AXIOM_SUITE_EXTRAS``
    ring within its card guard (512); return the expressions checked."""
    ctx = VerifyContext()
    checked = []
    for expr in [e.expression for e in CATALOG] + list(AXIOM_SUITE_EXTRAS):
        ring = ctx.ring(expr)
        if ring.card <= 512:
            check_ring_axioms(ring)
            checked.append(expr)
    return checked


def k_ring(base, s):
    """The generalized matrix ring K_s(R): 2 x 2 matrices over ``base``
    whose products a_il * b_lj with i = j != l pick up the central factor
    ``s``.  No expression builds it."""
    return MatrixRing(
        base,
        [((i, j),) for i in range(2) for j in range(2)],
        f"K({s},{base.label})",
        twist=lambda i, l, j: s if i == j != l else base.one,
    )


#: Cayley table of S3 on the permutations 012, 102, 021, 210, 120, 201 of
#: {0, 1, 2}, entry (p, q) the index of p∘q: (p∘q)(x) = p(q(x))
S3_TABLE = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 4, 5, 2, 3),
    (2, 5, 0, 4, 3, 1),
    (3, 4, 5, 0, 1, 2),
    (4, 3, 1, 2, 5, 0),
    (5, 2, 3, 1, 0, 4),
)


def s3_group():
    return rl.FiniteGroup(S3_TABLE, "S3")


def s3_group_ring(n):
    """GR(Z(n),S3), which the DSL cannot express, through the library API."""
    return rl.group_ring(rl.zmod(n), s3_group())


def mat_of(index, k, n):
    """Decode a matrix-ring index over Z(n), row-major most significant first."""
    digits = []
    for _ in range(k * k):
        index, d = divmod(index, n)
        digits.append(d)
    digits.reverse()
    return [digits[i * k : (i + 1) * k] for i in range(k)]


def index_of(mat, k, n):
    acc = 0
    for i in range(k):
        for j in range(k):
            acc = acc * n + (mat[i][j] % n)
    return acc


def mat_mul_mod(A, B, k, n):
    return [
        [sum(A[i][l] * B[l][j] for l in range(k)) % n for j in range(k)]
        for i in range(k)
    ]


def mat_add_mod(A, B, k, n):
    return [[(A[i][j] + B[i][j]) % n for j in range(k)] for i in range(k)]


def flags_of(ring):
    return rl.classify(ring).flags


def direct_tables(ring):
    """(add, mul, neg) of ``ring`` by evaluating all card² pairs: the
    oracle for the generator build behind ``TableRing``."""
    n = ring.card
    ar = np.arange(n, dtype=np.int64)
    left, right = np.repeat(ar, n), np.tile(ar, n)
    return (
        ring.add_vec(left, right).astype(np.int32).reshape(n, n),
        ring.mul_vec(left, right).astype(np.int32).reshape(n, n),
        ring.neg_vec(ar).astype(np.int32),
    )


def digitwise_op(ring, name, *operands):
    """``add``, ``neg`` or ``sub`` (``name``) of a digit ring digit by digit:
    each operand split into its base digits, the base's ``add_vec`` and
    ``neg_vec`` on the digit stacks, the digits joined; over a digit base,
    the base's digit by digit too.  The oracle of the run sums of
    ``_DigitRing``, which replaced it."""
    base, ndigits = ring.digits()
    stacks = [decode_digits(v, base.card, ndigits) for v in np.broadcast_arrays(*map(np.atleast_1d, operands))]
    op = functools.partial(digitwise_op, base) if base.digits() is not None else (
        lambda op_name, *xs: getattr(base, f"{op_name}_vec")(*xs)
    )
    if name == "sub":
        stacks[1], name = op("neg", stacks[1]), "add"
    return encode_digits(op(name, *stacks), base.card)


def digit_rings(ring):
    """``ring`` and every digit ring it is built on: its factors, digit
    bases and quotient bases, recursively."""
    found = [ring] if ring.digits() is not None else []
    for part in ring.factors() or [getattr(ring, "base", None)]:
        if part is not None:
            found += digit_rings(part)
    return found


def term_of(name, *args):
    """The term ``name(args)``, fields in row order; ``"x"`` is a product."""
    return Term(name, args)


def _terms(name, *fields):
    """Terms named ``name`` with one field drawn from each strategy."""
    return st.tuples(*fields).map(lambda args: Term(name, args))


_CYCLIC = _terms("C", st.integers(1, 5))
_PATTERNS = st.one_of(
    st.tuples(st.sampled_from(["S", "U"]), st.tuples(st.integers(2, 4))),
    st.tuples(st.sampled_from(["S", "Tb"]), st.tuples(st.integers(2, 3), st.integers(2, 3))),
)


@st.composite
def ring_expr_strategy(draw, depth=2):
    """Ring terms with ``depth`` constructors above a ``Z`` or ``GF`` leaf:
    every row of ``dsl._CONSTRUCTORS`` and ``dsl._GROUP_ATOMS``, ring
    products and group products.  An ``FM`` twist is 0 or 1, an element of
    every base."""
    if depth == 0:
        return draw(
            _terms("Z", st.integers(2, 12))
            | _terms("GF", st.sampled_from([2, 3, 5]), st.integers(1, 4))
        )
    inner = ring_expr_strategy(depth=depth - 1)
    coeffs = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(lambda c: (*c, 1))
    return draw(
        st.one_of(
            _terms("M", st.integers(1, 3), inner),
            _terms("T", st.integers(1, 3), inner),
            _terms("TE", inner),
            _terms("PQ", inner, coeffs),
            _terms("FM", st.integers(2, 3), st.integers(0, 1), inner),
            _terms("GR", inner, _CYCLIC | _terms("x", _CYCLIC, _CYCLIC)),
            _terms("MODJ", inner),
            _terms("PAT", _PATTERNS, inner),
            _terms("x", inner, ring_expr_strategy(depth=0)),
        )
    )


def _frame_exponent(frame):
    """The class count of a ``PAT`` frame: its card is |R| to that power."""
    family, naturals = frame
    return _BUILTIN_PATTERNS[family][len(naturals) - 1][1](*naturals)


@st.composite
def bounded_ring_expr_strategy(draw, max_card, depth=2):
    """Terms shaped as ``ring_expr_strategy`` draws them, with card at most
    ``max_card``, so that building them under that guard fails only on a
    construction's preconditions."""
    return draw(_bounded_ring(max_card, depth))[0]


@st.composite
def _bounded_ring(draw, max_card, depth):
    """(term, card): each constructor takes only the fields that keep its
    card, a power of its argument's or a product, at most ``max_card``.
    ``MODJ(R)`` counts as |R|, an upper bound."""
    if depth == 0:
        leaves = [(Term("Z", (n,)), n) for n in range(2, 13)]
        leaves += [(Term("GF", (p, k)), p**k) for p in (2, 3, 5) for k in range(1, 5)]
        return draw(st.sampled_from([leaf for leaf in leaves if leaf[1] <= max_card]))
    ring, card = draw(_bounded_ring(max_card, depth - 1))
    cyclic = [(Term("C", (n,)), n) for n in range(1, 6)]
    groups = cyclic + [(Term("x", (g, h)), m * n) for g, m in cyclic for h, n in cyclic]
    frames = [(f, (n,)) for f in ("S", "U") for n in (2, 3, 4)]
    frames += [(f, (n, m)) for f in ("S", "Tb") for n in (2, 3) for m in (2, 3)]
    # (name, fields with None for the ring argument, card exponent); a PQ
    # row holds its degree in place of the polynomial
    rows = [("MODJ", (None,), 1), ("TE", (None,), 2)]
    rows += [("M", (n, None), n * n) for n in (1, 2, 3)]
    rows += [("T", (n, None), n * (n + 1) // 2) for n in (1, 2, 3)]
    rows += [("FM", (n, s, None), n * n) for n in (2, 3) for s in (0, 1)]
    rows += [("GR", (None, g), k) for g, k in groups]
    rows += [("PAT", (frame, None), _frame_exponent(frame)) for frame in frames]
    rows += [("PQ", (None, degree), degree) for degree in (1, 2, 3)]
    rows = [row for row in rows if card ** row[2] <= max_card]
    names = {row[0] for row in rows} | ({"x"} if 2 * card <= max_card else set())
    name = draw(st.sampled_from(sorted(names)))
    if name == "x":
        right, right_card = draw(_bounded_ring(max_card // card, 0))
        return Term("x", (ring, right)), card * right_card
    _, fields, k = draw(st.sampled_from([row for row in rows if row[0] == name]))
    if name == "PQ":
        coeffs = draw(st.lists(st.integers(0, 9), min_size=fields[1], max_size=fields[1]))
        fields = (None, (*coeffs, 1))
    return Term(name, tuple(ring if f is None else f for f in fields)), card**k
