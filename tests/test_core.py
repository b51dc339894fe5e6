import functools

import numpy as np
import pytest
from hypothesis import given, reject, settings

import ringlab as rl
from ringlab import cli, constructions, core, structure, verify
from ringlab.constructions import DirectProduct
from ringlab.core import additive_generators, additive_span, check_ring_axioms

from conftest import (
    AXIOM_SUITE_EXTRAS,
    bounded_ring_expr_strategy,
    direct_tables,
    index_of,
    mat_add_mod,
    mat_mul_mod,
    mat_of,
    oracle_nilpotents,
)


def test_zmod_add_mul_examples(z6):
    assert z6.add(4, 5) == 3
    assert z6.mul(4, 5) == 2
    for a in range(z6.card):
        assert z6.add(a, z6.zero) == a
        assert z6.mul(a, z6.one) == a


def test_add_commutes(z6):
    for a in range(z6.card):
        for b in range(z6.card):
            assert z6.add(a, b) == z6.add(b, a)


def test_matrix_ops_against_matrix_oracle(m2z2):
    for a in range(m2z2.card):
        for b in range(m2z2.card):
            A, B = mat_of(a, 2, 2), mat_of(b, 2, 2)
            assert m2z2.add(a, b) == index_of(mat_add_mod(A, B, 2, 2), 2, 2)
            assert m2z2.mul(a, b) == index_of(mat_mul_mod(A, B, 2, 2), 2, 2)


def test_triangular_mul_against_matrix_oracle():
    T = rl.upper_triangular(2, rl.zmod(3))
    assert T.card == 27

    def lift(a):  # digits of (0,0), (0,1), (1,1), most significant first
        return [[a // 9, a // 3 % 3], [0, a % 3]]

    for a in range(T.card):
        for b in range(T.card):
            assert lift(T.mul(a, b)) == mat_mul_mod(lift(a), lift(b), 2, 3)


def test_is_nilpotent(z12):
    assert rl.is_nilpotent(z12, 6) == (True, 2)
    assert rl.is_nilpotent(z12, 0) == (True, 1)
    assert rl.is_nilpotent(z12, 4) == (False, None)


def test_nilpotency_index_is_minimal():
    rings = [rl.zmod(n) for n in (4, 8, 9, 12, 16, 27)]
    rings += [rl.build(e) for e in ("M(2,Z(4))", "T(3,Z(2))", "TE(Z(9))", "GF(3,2)")]
    for ring in rings:
        nilpotents = oracle_nilpotents(ring)
        for a in range(ring.card):
            ok, k = rl.is_nilpotent(ring, a)
            assert ok == (a in nilpotents), (ring.label, a)
            if ok:
                assert functools.reduce(ring.mul, [a] * k) == ring.zero
                if k > 1:
                    assert functools.reduce(ring.mul, [a] * (k - 1)) != ring.zero


def test_index_bounds_are_contract_violations(z6):
    with pytest.raises(IndexError):
        z6.add(2, 6)
    with pytest.raises(IndexError):
        z6.mul(-1, 2)


def test_memoize_is_semantically_identical(z6, m2z3):
    for ring in (z6, m2z3):
        table = rl.maybe_memoize(ring)
        assert isinstance(table, rl.TableRing) and table.source is ring
        assert table.card == ring.card
        assert (table.zero, table.one) == (ring.zero, ring.one)
        ar = np.arange(ring.card)
        left, right = np.repeat(ar, ring.card), np.tile(ar, ring.card)
        assert np.array_equal(table.add_vec(left, right), ring.add_vec(left, right))
        assert np.array_equal(table.mul_vec(left, right), ring.mul_vec(left, right))
        assert np.array_equal(table.neg_vec(ar), ring.neg_vec(ar))


def test_memoize_refuses_above_threshold():
    """``maybe_memoize`` tabulates nothing above the threshold and keeps the
    computed ring: cards just above it, the four harness rings of card 1296,
    and far above it."""
    refused = {
        "Z(1025)": 1025,
        "M(2,Z(6))": 1296,
        "MODJ(M(2,Z(6)))": 1296,
        "PAT(S(3),Z(6))": 1296,
        "TE(TE(Z(6)))": 1296,
        "Z(2048)": 2048,
        "M(3,Z(3))": 19683,
    }
    for expr, card in refused.items():
        big = rl.build(expr)
        assert big.card == card > core.MEMO_THRESHOLD == 1024
        assert rl.maybe_memoize(big) is big
    assert isinstance(rl.maybe_memoize(rl.zmod(6)), rl.TableRing)


class _RefusingRing(rl.Ring):
    """A ring of any card whose operations fail when called."""

    zero, one, label = 0, 1, "refusing"

    def __init__(self, card):
        self.card = card

    def _refuse(self, *operands):
        raise AssertionError("a refused table evaluates nothing")

    add_vec = neg_vec = mul_vec = _refuse


def test_table_ring_refuses_a_card_its_entries_cannot_hold():
    """``TableRing`` refuses a card above the 32768 indices that its 16-bit
    entries hold, before it evaluates or allocates anything.  The builds of
    card 1296 and 2048 in these tests stay legal."""
    limit = np.iinfo(core.TABLE_DTYPE).max + 1
    assert limit == 32768 and core.MEMO_THRESHOLD < 1296 < 2048 < limit
    for card in (limit + 1, 65536, 10**6):
        with pytest.raises(rl.GuardError) as err:
            rl.TableRing(_RefusingRing(card))
        assert (err.value.required, err.value.limit, err.value.what) == (card, limit, "table card")


@pytest.mark.parametrize("expr", ["Z(1024)", "Z(2) x Z(512)"])
def test_tables_at_the_threshold_have_two_byte_entries(expr):
    """Every entry is an index below ``MEMO_THRESHOLD``, which 16 bits
    hold; the product's add and neg tables come from its factors' tables."""
    assert core.MEMO_THRESHOLD <= np.iinfo(core.TABLE_DTYPE).max + 1
    ring = rl.build(expr)
    assert ring.card == core.MEMO_THRESHOLD
    table = rl.TableRing(ring)
    for got, want in zip((table._add, table._mul, table._neg), direct_tables(ring)):
        assert got.itemsize == 2
        assert np.array_equal(got, want)


@pytest.mark.parametrize("expr", ["Z(12)", "M(2,Z(3))", "T(2,Z(6))"])
def test_table_sub_vec_is_add_of_neg(expr):
    ring = rl.build(expr)
    table = rl.maybe_memoize(ring)
    assert isinstance(table, rl.TableRing)
    ar = np.arange(ring.card)
    left, right = np.repeat(ar, ring.card), np.tile(ar, ring.card)
    got = table.sub_vec(left, right)
    assert got.dtype == np.int64
    assert np.array_equal(got, table.add_vec(left, table.neg_vec(right)))
    assert np.array_equal(got, ring.sub_vec(left, right))
    assert table.sub_vec(5, ar).tolist() == [ring.sub(5, int(b)) for b in ar]


def test_memoize_idempotent(z6):
    table = rl.maybe_memoize(z6)
    assert isinstance(table, rl.TableRing)
    assert rl.maybe_memoize(table) is table
    # a table of a table copies its tables
    copy = rl.TableRing(table)
    for got, want in ((copy._add, table._add), (copy._mul, table._mul), (copy._neg, table._neg)):
        assert np.array_equal(got, want)


def _leaves(ring):
    parts = ring.factors()
    return [ring] if parts is None else [leaf for part in parts for leaf in _leaves(part)]


@pytest.mark.parametrize(
    "expr",
    [
        "M(2,GF(2,2)) x Z(4)",
        "M(2,GF(2,2)) x Z(8)",
        "M(2,Z(3)) x T(2,Z(4))",
        "Z(2) x M(2,Z(6)) x T(2,Z(4))",
        "(Z(6) x Z(6)) x (M(2,Z(2)) x Z(3))",
    ],
)
def test_maybe_memoize_tabulates_the_factors_of_a_product(monkeypatch, expr):
    """A product, nested or not, comes back as a product of the same shape
    whose factors at or under the threshold are tables of the same factors;
    no table of a product is built, and the result is its own
    ``maybe_memoize``."""
    built = []
    tables = core._operation_tables

    def recording(table):
        built.append(table.source)
        return tables(table)

    monkeypatch.setattr(core, "_operation_tables", recording)
    computed = rl.build(expr)
    ring = rl.maybe_memoize(computed)
    assert type(ring) is type(computed) is DirectProduct
    assert (ring.label, ring.card, ring.zero, ring.one) == (
        computed.label, computed.card, computed.zero, computed.one
    )
    sources = _leaves(computed)
    for leaf, source in zip(_leaves(ring), sources, strict=True):
        if source.card <= core.MEMO_THRESHOLD:
            assert isinstance(leaf, rl.TableRing) and leaf.source is source
        else:
            assert leaf is source
    assert built and all(source.factors() is None for source in built)
    assert rl.maybe_memoize(ring) is ring
    ar = np.arange(0, ring.card, ring.card // 64 + 1)
    for op in ("add_vec", "mul_vec"):
        assert np.array_equal(getattr(ring, op)(ar[:, None], ar), getattr(computed, op)(ar[:, None], ar))


def test_maybe_memoize_keeps_the_guard_a_product_was_built_under(monkeypatch):
    """The product is rebuilt under its own card, not the default guard."""
    computed = rl.build("M(2,Z(5)) x Z(512)", max_card=1_000_000)
    monkeypatch.setenv(core.MAX_CARD_ENV, "1000")
    ring = rl.maybe_memoize(computed)
    assert ring.card == computed.card == 320_000
    assert all(isinstance(part, rl.TableRing) for part in ring.factors())


def test_subset_operations(z6):
    s = rl.Subset(z6, np.isin(np.arange(6), [1, 5]))
    t = rl.Subset(z6, np.isin(np.arange(6), [0, 1]))
    assert 5 in s and 0 not in s
    assert len(s) == 2
    assert np.flatnonzero(s.mask | t.mask).tolist() == [0, 1, 5]
    assert np.flatnonzero(s.mask & t.mask).tolist() == [1]
    assert s == rl.Subset(z6, np.isin(np.arange(6), [5, 1]))
    assert s != rl.Subset(rl.zmod(6), np.isin(np.arange(6), [1, 5]))  # another ring
    with pytest.raises(ValueError):
        rl.Subset(z6, np.zeros(5, dtype=bool))


def test_axiom_checker_accepts_and_rejects(z6):
    check_ring_axioms(z6)

    class Broken(rl.Ring):
        card = 4
        zero = 0
        one = 1
        label = "broken"

        def add_vec(self, xs, ys):
            return (np.asarray(xs) + ys) % 4

        def neg_vec(self, xs):
            return -np.asarray(xs) % 4

        def mul_vec(self, xs, ys):
            return np.minimum(np.asarray(xs) * ys, 3)  # not associative with the rest

    with pytest.raises(ValueError):
        check_ring_axioms(Broken())
    with pytest.raises(rl.GuardError):
        check_ring_axioms(rl.build("M(3,Z(3))"))


#: the harness rings, the classify ladder's rungs, Z(2048) (one generator,
#: eleven doublings), cards 64 and 65 on both sides of the
#: direct-build rule, commutative and not, and products: of three factors,
#: with a quotient factor, above card 64 from factors of at most 64, and
#: with a left factor smaller than the right one; digit rings whose add
#: table is folded: nested, a pattern ring and a group ring over Z(9), one
#: digit over a base without tables; a quotient above card 64; and Z(300)
#: and Z(1024), whose add tables are evaluated in several row blocks
TABLE_EXPRS = sorted(
    {entry.expression for entry in verify.CATALOG}
    | set(AXIOM_SUITE_EXTRAS)
    | {
        "M(3,Z(2))",
        "M(2,Z(6))",
        "M(2,GF(2,2)) x Z(4)",
        "T(2,Z(8))",
        "TE(Z(27))",
        "GR(Z(2),C(2) x C(2) x C(2))",
        "Z(2048)",
        "Z(64)",
        "Z(65)",
        "M(2,Z(3))",
        "T(2,Z(4)) x Z(3)",
        "GF(2,2) x GF(2,3) x Z(9)",
        "MODJ(M(2,Z(4))) x Z(9)",
        "T(2,Z(4)) x Z(5)",
        "Z(3) x M(2,Z(4))",
        "TE(TE(Z(6)))",
        "PAT(S(3),Z(6))",
        "GR(Z(9),C(3))",
        "M(1,Z(100))",
        "GF(101,1)",
        "MODJ(M(2,Z(6)))",
        "Z(300)",
        "Z(1024)",
    }
)


def assert_tables_match_direct(ring):
    """The builder against the n² evaluation, through ``TableRing``, which
    checks no threshold: rings of card 1296 and 2048 are built too."""
    table = rl.TableRing(ring)
    # one allocation holds both tables, so they are freed as one block
    assert table._add.base is table._mul.base is not None
    for got, want in zip((table._add, table._mul, table._neg), direct_tables(ring)):
        assert got.dtype == core.TABLE_DTYPE
        assert np.array_equal(got, want)


@pytest.mark.parametrize("expr", TABLE_EXPRS)
def test_tables_match_direct_build(expr):
    ring = rl.build(expr)
    assert_tables_match_direct(ring)
    assert_tables_match_direct(structure.mod_j(rl.TableRing(ring)))


@given(bounded_ring_expr_strategy(max_card=256))
@settings(max_examples=50, deadline=None)
def test_generated_tables_match_direct_build_property(expr):
    try:
        ring = rl.build(expr, max_card=256)
    except (rl.ConstructionError, rl.GuardError):
        reject()
    check_ring_axioms(ring)
    assert_tables_match_direct(ring)


@given(bounded_ring_expr_strategy(max_card=1024))
@settings(max_examples=30, deadline=None)
def test_table_build_walks_as_its_source_does_property(expr):
    """The table build walks as its source does: the table's generators,
    mask and steps against ``additive_span`` of the computed source, and
    its tables against the n² evaluation."""
    try:
        ring = rl.build(expr, max_card=1024)
    except (rl.ConstructionError, rl.GuardError):
        reject()
    table = rl.TableRing(ring)
    everyone = np.arange(ring.card)
    mask, gens, steps = additive_span(ring, everyone)
    if ring.card > 64:
        assert table._additive_generators == gens
    assert additive_generators(table) == gens
    got_mask, _, got_steps = additive_span(table, everyone)
    assert mask.all() and got_mask.all()
    assert len(got_steps) == len(steps)
    for got, want in zip(got_steps, steps):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for got, want in zip((table._add, table._mul, table._neg), direct_tables(ring)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", [1, 3])
def test_tables_match_direct_build_across_gather_blocks(monkeypatch, rows):
    """Gather blocks of one row, and of three rows, which leave a partial
    block at the end of most of the walk's steps."""
    for expr in TABLE_EXPRS:
        ring = rl.build(expr)
        if ring.card > 64:
            monkeypatch.setattr(core, "_GATHER_BLOCK", rows * ring.card)
            assert_tables_match_direct(ring)


def test_product_of_a_table_ring_borrows_its_tables():
    """A product's add and neg tables combine its factors': a table factor
    lends its own.  Its mul table is walked like any other ring's, so the
    factor multiplies only the generator products."""
    left = rl.maybe_memoize(rl.build("M(2,Z(3))"))
    ring = rl.direct_product(left, rl.build("Z(6)"))

    def refuse(*operands):
        raise AssertionError("the factor's tables are read, not its operations")

    left.add_vec = left.neg_vec = refuse
    table = rl.TableRing(ring)
    del left.add_vec, left.neg_vec
    for got, want in zip((table._add, table._mul, table._neg), direct_tables(ring)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "expr",
    ["Z(64)", "T(3,Z(2))", "Z(65)", "M(2,Z(3))", "Z(2048)", "Z(6) x Z(8)", "T(2,Z(4)) x Z(3)"],
)
def test_table_build_evaluates_generator_rows_above_card_64(expr):
    ring = rl.build(expr)
    calls = {"add": [], "mul": [], "neg": []}

    def counting(name, op):
        def wrapped(*operands):
            out = op(*operands)
            calls[name].append(out.size)
            return out

        return wrapped

    for name in calls:
        setattr(ring, f"{name}_vec", counting(name, getattr(ring, f"{name}_vec")))
    table = rl.TableRing(ring)
    n = ring.card
    k = len(table._additive_generators or [])
    mul = [n * n] if n <= 64 else [k * k]
    if ring.factors() is not None or ring.digits() is not None:
        # a product combines its factors' add and neg tables, a digit ring
        # folds its base's; the generators' products are one call of k²
        # pairs above card 64
        assert calls == {"add": [], "mul": mul, "neg": []}
    else:
        # any other ring evaluates add_vec on all pairs, in blocks of whole
        # rows, and never walks by it: the build walks the table ring
        rows = max(1, core._GATHER_BLOCK // n)
        assert sum(calls["add"]) == n * n and max(calls["add"]) <= rows * n
        assert len(calls["add"]) == -(-n // rows)
        assert (calls["mul"], calls["neg"]) == (mul, [n])
        if n > 64:
            assert additive_span(ring, np.arange(n))[1] == table._additive_generators


@pytest.mark.parametrize(
    "expr",
    ["M(2,Z(2))", "T(3,Z(2))", "M(2,GF(2,2))", "FM(2,2,Z(4))", "TE(TE(Z(5)))", "M(3,Z(2))", "GR(Z(4),C(5))"],
)
def test_table_build_of_a_digit_ring_builds_no_run_table(monkeypatch, expr):
    """``maybe_memoize`` folds a digit ring's add and neg tables from its
    base's, at card 64 and below too: no sum of the ring goes through the
    run tables of ``_DigitRing``.  Only a digit base may sum the terms of
    the generator products through its own."""
    ring = rl.build(expr)
    built = []
    run_tables = constructions._RunTables

    def recording(base, length):
        built.append(base)
        return run_tables(base, length)

    monkeypatch.setattr(constructions, "_RunTables", recording)
    table = rl.maybe_memoize(ring)
    assert isinstance(table, rl.TableRing) and ring._run_ops is None
    assert built == [] or (ring.base.digits() is not None and built == [ring.base.base])
    monkeypatch.undo()
    assert_tables_match_direct(ring)


@pytest.mark.parametrize("expr", ["M(1,Z(100))", "GF(101,1)"])
def test_one_digit_ring_multiplies_its_base_only_on_generator_products(expr):
    """The add table of a one-digit ring is its base's, built alone: the
    base's mul_vec sees only the k² generator products, no table of its own."""
    ring = rl.build(expr)
    pairs = []

    def counting(xs, ys):
        out = base_mul(xs, ys)
        pairs.append(out.size)
        return out

    base_mul = ring.base.mul_vec
    ring.base.mul_vec = counting
    table = rl.TableRing(ring)
    del ring.base.mul_vec
    assert ring.digits() == (ring.base, 1)
    assert sum(pairs) == len(table._additive_generators) ** 2 == 1
    assert_tables_match_direct(ring)


def test_digit_ring_over_a_table_ring_reads_its_add_table():
    """The fold reads the table base's add table; the base's add_vec only
    sums the terms of the k² generator products, one call of k² pairs per
    summed term."""
    base = rl.maybe_memoize(rl.build("Z(6)"))
    ring = rl.matrix_ring(2, base)
    sizes = []

    def counting(xs, ys):
        out = base_add(xs, ys)
        sizes.append(out.size)
        return out

    base_add = base.add_vec
    base.add_vec = counting
    table = rl.TableRing(ring)
    del base.add_vec
    k = len(table._additive_generators)
    assert sizes and set(sizes) == {k * k} and k * k < base.card**2
    for got, want in zip((table._add, table._mul, table._neg), direct_tables(ring)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "expr", ["M(2,Z(6))", "TE(Z(27))", "T(2,Z(4)) x Z(5)", "M(2,Z(3))", "Z(12)", "M(2,Z(7))"]
)
def test_additive_generators_are_cached_per_ring(expr):
    """The cached list is the walk's over the whole carrier; a table ring
    built by the walk holds it from the start."""
    computed = rl.build(expr)
    tabled = rl.maybe_memoize(computed)
    for ring in {computed, tabled}:
        want = additive_span(ring, np.arange(ring.card))[1]
        if isinstance(ring, rl.TableRing) and ring.card > 64 and computed.factors() is None:
            assert ring._additive_generators == want
        gens = additive_generators(ring)
        assert gens == want
        assert additive_generators(ring) is gens


@pytest.mark.parametrize(
    "expr", ["M(2,Z(7))", "T(3,Z(4))", "T(2,Z(8))", "TE(Z(27))", "Z(1000)", "M(1,Z(1000))"]
)
def test_classify_walks_each_ring_once(monkeypatch, capsys, expr):
    """Each ring that classify walks, the table build's walk included, is
    walked once: the build walks the table ring it fills, which keeps the
    generators.  A ring such as Z(1000) evaluates its add table, and a
    digit ring such as M(1,Z(1000)) folds its base's, without a walk."""
    walked = []
    span = core.additive_span

    def counting(ring, seeds):
        walked.append(ring)
        return span(ring, seeds)

    monkeypatch.setattr(core, "additive_span", counting)
    assert cli.main(["classify", expr, "--json"]) == 0
    capsys.readouterr()
    assert walked
    assert len({id(r) for r in walked}) == len(walked)
    card = rl.build(expr).card
    if card <= core.MEMO_THRESHOLD:
        # the one walk of that card is the build's, of the table ring: a
        # digit ring's base of the same card is not walked
        (built,) = [r for r in walked if r.card == card]
        assert isinstance(built, rl.TableRing) and built.label == expr
