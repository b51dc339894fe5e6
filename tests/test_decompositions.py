import math

import numpy as np
import pytest

import ringlab as rl
from ringlab import decompositions, structure
from ringlab.core import maybe_memoize
from ringlab.decompositions import (
    DIAGRAM_EDGES,
    ELEMENT_PREDICATES,
    FINITE_RING_IDENTITIES,
    REPORT_FLAGS,
    idempotent_scan,
)
from ringlab.structure import _PAIR_CHUNK, ring_data
from ringlab.verify import CATALOG

from conftest import (
    AXIOM_SUITE_EXTRAS,
    LADDER_RUNGS,
    oracle_counterexample,
    oracle_idempotents,
    oracle_nilpotents,
    oracle_units,
    oracle_weakly_nil_clean_elem,
    oracle_witness,
    s3_group_ring,
    scan_witness_ranks,
)

WITNESS_RINGS = [
    "Z(6)",
    "Z(12)",
    "M(2,Z(2))",
    "T(2,Z(3))",
    "TE(Z(3))",
    "GR(Z(2),C(3))",
    "FM(2,2,Z(4))",
]


def test_units_are_clean_with_zero_idempotent(z6):
    for u in rl.units(z6):
        ok, w = ELEMENT_PREDICATES["clean"](z6, u)
        assert ok and w.idempotent == 0 and w.rest == u


def test_clean_witness_tiebreak(z6):
    # 3 - e fails for e in {0, 1, 3}; e = 4 gives the unit 5
    ok, w = ELEMENT_PREDICATES["clean"](z6, 3)
    assert ok and w.idempotent == 4 and w.rest == 5 and w.sign == 1


def test_all_elements_clean_in_local_ring():
    z4 = rl.zmod(4)
    assert all(ELEMENT_PREDICATES["clean"](z4, a)[0] for a in range(z4.card))


def test_nil_clean_examples():
    z4 = rl.zmod(4)
    ok, w = ELEMENT_PREDICATES["nil_clean"](z4, 3)
    assert ok and w.idempotent == 1 and w.rest == 2
    ok, w = ELEMENT_PREDICATES["strongly_nil_clean"](z4, 0)
    assert ok and w.idempotent == 0 and w.rest == 0
    assert not ELEMENT_PREDICATES["nil_clean"](rl.zmod(3), 2)[0]


def test_weakly_nil_clean_examples():
    z3 = rl.zmod(3)
    ok, w = ELEMENT_PREDICATES["weakly_nil_clean"](z3, 2)
    assert ok and w.sign == -1 and w.idempotent == 1 and w.rest == 0
    assert not ELEMENT_PREDICATES["weakly_nil_clean"](rl.zmod(5), 2)[0]


def test_lemma_2_32_element_is_not_weakly_nil_clean():
    m2z5 = rl.matrix_ring(2, rl.zmod(5))
    for a in (2, 3):  # outside {0, 1, -1} in Z(5)
        idx = a * 5**3  # diag(a, 0), entry (0,0) most significant
        assert not ELEMENT_PREDICATES["weakly_nil_clean"](m2z5, idx)[0]
        assert oracle_weakly_nil_clean_elem(m2z5, idx) is False


def test_weakly_clean_examples(z6):
    assert ELEMENT_PREDICATES["weakly_clean"](z6, 3)[0]
    for u in rl.units(z6):
        ok, w = ELEMENT_PREDICATES["weakly_clean"](z6, u)
        assert ok and w.idempotent == 0


def test_negatives_of_weakly_nil_clean_are_weakly_clean():
    for expr in WITNESS_RINGS:
        ring = rl.build(expr)
        for a in range(ring.card):
            if ELEMENT_PREDICATES["weakly_nil_clean"](ring, a)[0]:
                assert ELEMENT_PREDICATES["weakly_clean"](ring, ring.neg(a))[0], (expr, a)


@pytest.mark.parametrize("expr", WITNESS_RINGS)
def test_witness_validity_pass(expr):
    ring = rl.build(expr)
    for kind, predicate in ELEMENT_PREDICATES.items():
        for a in range(ring.card):
            ok, w = predicate(ring, a)
            if ok:
                rl.validate_witness(ring, a, kind, w)
            else:
                assert w is None


def test_validate_witness_rejects_bogus(z6):
    with pytest.raises(ValueError):
        rl.validate_witness(z6, 3, "nil_clean", rl.Witness(1, 4, 5, True))


def test_element_predicates_match_bruteforce():
    for expr in ("Z(12)", "T(2,Z(3))", "GR(Z(2),C(3))"):
        ring = rl.build(expr)
        nil = oracle_nilpotents(ring)
        units = oracle_units(ring)
        idem = oracle_idempotents(ring)
        for a in range(ring.card):
            wnc = any(ring.sub(a, e) in nil or ring.add(a, e) in nil for e in idem)
            assert ELEMENT_PREDICATES["weakly_nil_clean"](ring, a)[0] == wnc
            nc = any(ring.sub(a, e) in nil for e in idem)
            assert ELEMENT_PREDICATES["nil_clean"](ring, a)[0] == nc
            clean = any(ring.sub(a, e) in units for e in idem)
            assert ELEMENT_PREDICATES["clean"](ring, a)[0] == clean


ORACLE_PRODUCTS = [
    "Z(4) x Z(2)",
    "M(2,Z(2)) x Z(3)",
    "T(2,Z(3)) x Z(4)",
    "Z(2) x Z(3) x TE(Z(2))",
    "GR(Z(2),C(3)) x Z(9)",
]


# every catalog ring but the largest, M(2,Z(6)) (card 1296, 112 idempotents),
# which the scalar oracle would take minutes over
@pytest.mark.parametrize(
    "expr",
    [e.expression for e in CATALOG if e.expression != "M(2,Z(6))"] + ORACLE_PRODUCTS,
)
@pytest.mark.parametrize("tables", [False, True], ids=["computed", "tables"])
def test_witnesses_and_counterexamples_match_oracle(expr, tables):
    """Every witness and every report flag's lowest counterexample against
    the scalar search.  A product built without tables takes the factor-wise
    path, with tables the flat pass over its own carrier."""
    ring = rl.build(expr)
    if tables:
        ring = maybe_memoize(ring)
    for kind, predicate in ELEMENT_PREDICATES.items():
        for a in range(ring.card):
            ok, w = predicate(ring, a)
            got = None if w is None else (w.sign, w.idempotent, w.rest, w.commuting)
            assert ok == (got is not None)
            assert got == oracle_witness(ring, a, kind), (expr, kind, a)
    for name in REPORT_FLAGS:
        cx = oracle_counterexample(ring, name)
        assert rl.flag_counterexample(ring, name) == cx, (expr, name)
        assert rl.ring_flag(ring, name) == (cx is None), (expr, name)


def test_classify_examples(m2z3):
    report = rl.classify(m2z3)
    assert report.flags["gwnc"] and not report.flags["gnc"]
    prod = rl.build("Z(6) x Z(6)")
    rep2 = rl.classify(prod)
    assert not rep2.flags["gwnc"]
    assert "gwnc" in rep2.counterexamples
    z2 = rl.classify(rl.zmod(2))
    assert all(z2.flags[name] for name in REPORT_FLAGS)


def test_counterexample_is_lowest_failing_index():
    prod = rl.build("Z(6) x Z(6)")
    holds, cx = rl.gwnc(prod)
    assert not holds
    nil = oracle_nilpotents(prod)
    idem = oracle_idempotents(prod)
    units = oracle_units(prod)
    failing = [
        a
        for a in range(prod.card)
        if a not in units
        and not any(prod.sub(a, e) in nil or prod.add(a, e) in nil for e in idem)
    ]
    assert cx == failing[0]


def test_gwnc_examples():
    assert rl.gwnc(rl.zmod(5))[0] is True
    holds, cx = rl.gwnc(rl.build("T(2,Z(6))"))
    assert holds is False and cx is not None
    holds, cx = rl.gwnc(rl.build("GR(Z(2),C(3))"))
    assert holds is False
    ring = rl.build("GR(Z(2),C(3))")
    assert cx not in oracle_units(ring)
    assert not oracle_weakly_nil_clean_elem(ring, cx)


def test_gwnc_witness(z6):
    ok, w = ELEMENT_PREDICATES["weakly_nil_clean"](z6, 2)
    assert ok and w is not None
    rl.validate_witness(z6, 2, "weakly_nil_clean", w)
    assert ELEMENT_PREDICATES["weakly_nil_clean"](rl.zmod(5), 2) == (False, None)


def test_diagram_edges_hold_in_reports():
    for expr in WITNESS_RINGS + ["Z(5)", "M(2,Z(3))", "Z(3) x Z(3)"]:
        flags = rl.classify(rl.build(expr)).flags
        for src, dst in DIAGRAM_EDGES:
            assert not flags[src] or flags[dst], (expr, src, dst)


def test_strongly_weakly_variants_match_definition():
    for expr in ("Z(6)", "Z(12)", "M(2,Z(2))", "TE(Z(3))"):
        ring = rl.build(expr)
        flags = rl.classify(ring).flags
        swnc = all(
            ELEMENT_PREDICATES["strongly_nil_clean"](ring, a)[0]
            or ELEMENT_PREDICATES["strongly_nil_clean"](ring, ring.neg(a))[0]
            for a in range(ring.card)
        )
        swc = all(
            ELEMENT_PREDICATES["strongly_clean"](ring, a)[0]
            or ELEMENT_PREDICATES["strongly_clean"](ring, ring.neg(a))[0]
            for a in range(ring.card)
        )
        assert flags["strongly_weakly_nil_clean"] == swnc
        assert flags["strongly_weakly_clean"] == swc


def test_flags_deterministic_across_fresh_builds():
    runs = []
    for _ in range(2):
        ring = rl.build("T(2,Z(6))")
        report = rl.classify(ring)
        holds, cx = rl.gwnc(ring)
        runs.append((report.flags, report.counterexamples, holds, cx))
    assert runs[0] == runs[1]


def test_uwnc_counts_units_only():
    # Z(5): units 2 and 3 are not weakly nil-clean, so UWNC fails
    assert not rl.ring_flag(rl.zmod(5), "uwnc")
    assert rl.ring_flag(rl.zmod(4), "uwnc")


def test_uu_wuu_examples(m2z2):
    assert rl.ring_flag(rl.zmod(4), "uu")
    assert not rl.ring_flag(m2z2, "uu")  # an order-3 unit exists
    assert rl.ring_flag(rl.zmod(3), "wuu")
    assert not rl.ring_flag(rl.zmod(5), "wuu")


#: the harness rings, the classify ladder's rungs and products
IDENTITY_EXPRS = sorted(
    {e.expression for e in CATALOG}
    | set(AXIOM_SUITE_EXTRAS)
    | set(LADDER_RUNGS)
    | {"M(2,Z(2)) x Z(4)", "T(2,Z(4)) x Z(3)", "Z(6) x T(2,Z(3))"}
)
S3_RINGS = {"GR(Z(2),S3)": 2, "GR(Z(3),S3)": 3}


@pytest.mark.parametrize("expr", IDENTITY_EXPRS + sorted(S3_RINGS))
def test_clean_family_identities_hold_by_the_witness_pass(expr):
    """The clean-family flags ``classify`` sets by identity (every finite
    ring is clean and strongly clean) against the U x Id pass of the
    oracle: every element has a clean and a strongly clean decomposition,
    so it is weakly clean too."""
    ring = s3_group_ring(S3_RINGS[expr]) if expr in S3_RINGS else rl.build(expr)
    plus, plus_strong, _, missing = scan_witness_ranks(ring, False)
    assert (plus < missing).all() and (plus_strong < missing).all(), expr
    for name in FINITE_RING_IDENTITIES:
        assert rl.ring_flag(ring, name) and rl.flag_counterexample(ring, name) is None


#: the harness rings, the classify ladder's rungs and three products
RANK_EXPRS = sorted(
    {e.expression for e in CATALOG}
    | set(AXIOM_SUITE_EXTRAS)
    | set(LADDER_RUNGS)
    | {"M(2,Z(2)) x Z(4)", "T(2,Z(4)) x Z(3)", "Z(6) x T(2,Z(3))"}
    # nested products: the factors' masks combine at both levels
    | {"(Z(2) x Z(3)) x Z(4)", "T(2,Z(2)) x (Z(3) x Z(4))"}
)


def sign_masks(plus, minus, missing):
    """The stack ``RingData.nil_signs`` keeps, read off the oracle's ranks."""
    return np.stack((plus < missing, minus < missing))


@pytest.mark.parametrize("expr", RANK_EXPRS + sorted(S3_RINGS))
def test_sign_pass_and_idempotent_scan_match_the_combined_scan(expr):
    """The masks of the nil sign pass (Nil - Id read off Nil + Id at -a) and
    the keys of ``idempotent_scan`` over the whole carrier, all six kinds,
    against the combined pass of the oracle, with tables and without: a
    product without tables combines its factors' masks, the oracle always
    runs flat over the carrier."""
    computed = s3_group_ring(S3_RINGS[expr]) if expr in S3_RINGS else rl.build(expr)
    tabled = maybe_memoize(computed)
    everyone = np.arange(computed.card, dtype=np.int64)
    for nil in (True, False):
        plus, plus_strong, minus, missing = scan_witness_ranks(tabled, nil)
        family = "nil_clean" if nil else "clean"
        keys = {
            family: 2 * plus,
            "strongly_" + family: 2 * plus_strong,
            "weakly_" + family: np.minimum(2 * plus, 2 * minus + 1),
        }
        for ring in {computed, tabled}:
            if nil:
                signs = sign_masks(plus, minus, missing)
                assert np.array_equal(ring_data(ring).nil_signs(), signs), (expr, ring)
            for kind, want in keys.items():
                got = idempotent_scan(ring, kind, everyone)
                assert np.array_equal(got, want), (expr, ring, kind)


@pytest.mark.parametrize("chunk", [7, 16, 100, 1000])
@pytest.mark.parametrize("expr", ["T(2,Z(8))", "FM(2,2,Z(4))"])
def test_sign_pass_splits_rows_longer_than_a_chunk(monkeypatch, expr, chunk):
    """With |Nil| above ``_PAIR_CHUNK`` an idempotent row is split in runs
    of nilpotents, so no call of the sign pass exceeds the chunk, one that
    is no multiple of a run's length included; the masks are the oracle's."""
    ring = rl.build(expr)
    data = ring_data(ring)
    idem, nil = len(data.idem_indices), int(data.nil_mask.sum())
    sizes = []
    add = ring.add_vec

    def counted(xs, ys):
        sizes.append(np.broadcast(np.asarray(xs), np.asarray(ys)).size)
        return add(xs, ys)

    monkeypatch.setattr(structure, "_PAIR_CHUNK", chunk)
    ring.add_vec = counted
    signs = data.nil_signs()
    assert max(sizes) <= chunk and sum(sizes) == nil * idem
    if nil > chunk:
        assert len(sizes) == idem * math.ceil(nil / chunk)
    plus, _, minus, missing = scan_witness_ranks(ring, True)
    assert np.array_equal(signs, sign_masks(plus, minus, missing))


@pytest.mark.parametrize("expr", ["M(3,Z(3))", "FM(2,2,Z(8))"])
def test_sign_pass_work_and_strong_keys(expr):
    """On computed rings above the table threshold, the flags that read
    only the sign pass make no product and one addition per chunk of
    (nilpotent, idempotent) pairs, and their masks match the oracle's; the
    strongly flag agrees with the oracle's commuting ranks, and so do the
    strongly keys of the scan on a sample of elements and the
    counterexample."""
    ring = rl.build(expr)
    data = ring_data(ring)
    idem = len(data.idem_indices)  # the status and idempotent passes are not counted
    nil = int(data.nil_mask.sum())
    calls = {"add_vec": 0, "mul_vec": 0}

    def counting(name):
        op = getattr(ring, name)

        def counted(xs, ys):
            calls[name] += 1
            return op(xs, ys)

        return counted

    ring.add_vec, ring.mul_vec = counting("add_vec"), counting("mul_vec")
    for name in ("gwnc", "nil_clean", "weakly_nil_clean", "uwnc"):
        rl.ring_flag(ring, name)
    assert calls == {"add_vec": math.ceil(nil * idem / _PAIR_CHUNK), "mul_vec": 0}
    plus, plus_strong, minus, missing = scan_witness_ranks(ring, True)
    assert np.array_equal(data.nil_signs(), sign_masks(plus, minus, missing))
    failing = np.flatnonzero(plus_strong == missing)
    cx = int(failing[0]) if len(failing) else None
    assert rl.flag_counterexample(ring, "strongly_nil_clean") == cx
    assert rl.ring_flag(ring, "strongly_nil_clean") == (cx is None)
    sample = np.arange(0, ring.card, ring.card // 64)
    if cx is not None:
        sample = np.append(sample, cx)
    got = idempotent_scan(ring, "strongly_nil_clean", sample)
    assert np.array_equal(got, 2 * plus_strong[sample])


def forbid_product_ops(ring):
    """Make every operation of ``ring`` and of each product among its
    factors raise."""

    def forbidden(*args):
        raise AssertionError("an operation of a product was called")

    while ring.factors() is not None:
        for name in ("add_vec", "sub_vec", "mul_vec", "neg_vec"):
            setattr(ring, name, forbidden)
        left, right = ring.factors()
        forbid_product_ops(right)
        ring = left


@pytest.mark.parametrize(
    "expr", ["M(2,Z(2)) x Z(4)", "T(2,Z(4)) x Z(3)", "(Z(2) x M(2,Z(2))) x Z(3)"]
)
def test_scan_of_a_product_reads_its_factors(expr):
    """The keys of ``idempotent_scan`` on a computed product, nested too,
    come from its factors' first ranks per sign with no operation of a
    product, and equal the flat scan of the same ring as tables, whose
    keys the combined-scan test checks, for all six kinds."""
    computed = rl.build(expr)
    tabled = maybe_memoize(rl.build(expr))
    everyone = np.arange(computed.card, dtype=np.int64)
    want = {kind: idempotent_scan(tabled, kind, everyone) for kind in ELEMENT_PREDICATES}
    forbid_product_ops(computed)
    for kind, keys in want.items():
        assert np.array_equal(idempotent_scan(computed, kind, everyone), keys), kind
        assert np.array_equal(idempotent_scan(computed, kind, everyone[::-3]), keys[::-3]), kind


#: the rings of the benchmark's flags_large workload, above the table
#: threshold: three products and one computed ring
FLAGS_LARGE_RINGS = (
    "T(3,Z(4)) x Z(8)",
    "M(2,Z(5)) x Z(64)",
    "M(2,Z(3)) x T(2,Z(4))",
    "M(2,Z(9))",
)


@pytest.mark.parametrize(
    "expr", RANK_EXPRS + sorted(S3_RINGS) + ["T(3,Z(4))"] + list(FLAGS_LARGE_RINGS)
)
def test_nil_images_match_the_strong_ranks_and_the_translates_of_nil(expr):
    """``nil_at`` against the oracle's definitions: a - a**2 nilpotent
    exactly where the combined pass finds a strongly nil-clean
    decomposition of a (``plus_strong``), a + a**2 exactly where it finds
    one of -a, and a -+ 1 nilpotent exactly on the translates Nil(R) +- 1,
    with tables and without."""
    computed = s3_group_ring(S3_RINGS[expr]) if expr in S3_RINGS else rl.build(expr)
    tabled = maybe_memoize(computed)
    _, plus_strong, _, missing = scan_witness_ranks(tabled, True)
    strong = plus_strong < missing
    everyone = np.arange(computed.card, dtype=np.int64)
    negated = strong[tabled.neg_vec(everyone)]
    for ring in {computed, tabled}:
        data = ring_data(ring)
        nil = np.flatnonzero(data.nil_mask)
        minus_one, plus_one = (np.zeros(ring.card, dtype=bool) for _ in range(2))
        minus_one[ring.add_vec(nil, ring.one)] = True
        plus_one[ring.sub_vec(nil, ring.one)] = True
        assert np.array_equal(data.nil_at("a-a^2"), strong), (expr, ring)
        assert np.array_equal(data.nil_at("a+a^2"), negated), (expr, ring)
        assert np.array_equal(data.nil_at("a-1"), minus_one), (expr, ring)
        assert np.array_equal(data.nil_at("a+1"), plus_one), (expr, ring)


def no_scan(*args):
    raise AssertionError("idempotent_scan called")


def test_flags_of_a_product_read_its_factors(monkeypatch):
    """All 14 flags of a computed product form no sum, negation or product
    on its carrier, and none of them scans idempotents per element."""
    ring = rl.build("T(3,Z(4)) x Z(8)")
    calls = []

    def counting(name):
        op = getattr(ring, name)

        def counted(*args):
            calls.append(name)
            return op(*args)

        return counted

    for name in ("add_vec", "sub_vec", "neg_vec", "mul_vec"):
        setattr(ring, name, counting(name))
    monkeypatch.setattr(decompositions, "idempotent_scan", no_scan)
    for name in REPORT_FLAGS:
        rl.ring_flag(ring, name)
    assert calls == []


#: ``element M(2,Z(18)) 5``: (holds, (sign, idempotent, rest, commuting))
#: per kind, recorded from the rank passes the scan replaced
M2Z18_ELEMENT_5 = {
    "clean": (True, (1, 5832, 99149, True)),
    "strongly_clean": (True, (1, 5832, 99149, True)),
    "weakly_clean": (True, (1, 5832, 99149, True)),
    "nil_clean": (False, None),
    "strongly_nil_clean": (False, None),
    "weakly_nil_clean": (True, (-1, 1, 6, True)),
}


def test_element_predicates_scan_only_the_idempotents():
    """The six predicates on one element of a ring of card 104976 fill no
    sign-pass cache, and none of their sums, differences or products is
    longer than |Id|; the status and idempotent passes are not counted."""
    ring = rl.build("M(2,Z(18))")
    data = ring_data(ring)
    idem = len(data.idem_indices)
    data.unit_mask, data.nil_mask
    sizes = []

    def counting(name):
        op = getattr(ring, name)

        def counted(xs, ys):
            out = op(xs, ys)
            sizes.append(np.size(out))
            return out

        return counted

    for name in ("add_vec", "sub_vec", "mul_vec"):
        setattr(ring, name, counting(name))
    for kind, predicate in ELEMENT_PREDICATES.items():
        ok, w = predicate(ring, 5)
        got = None if w is None else (w.sign, w.idempotent, w.rest, w.commuting)
        assert (ok, got) == M2Z18_ELEMENT_5[kind], kind
    assert 0 < max(sizes) <= idem
    assert data._nil_signs is None


@pytest.mark.parametrize("expr", ["M(2,Z(6))", "T(2,Z(4)) x Z(3)"])
def test_classify_fills_only_the_nil_sign_pass(monkeypatch, expr):
    """``classify`` without witnesses scans no element's idempotents; the
    nil sign pass it fills, on a product also on the factors, is one bool
    stack of two masks that matches the oracle."""
    ring = rl.build(expr)
    monkeypatch.setattr(decompositions, "idempotent_scan", no_scan)
    rl.classify(ring)
    for part in (ring, *(ring.factors() or ())):
        signs = ring_data(part)._nil_signs
        plus, _, minus, missing = scan_witness_ranks(part, True)
        assert signs.dtype == bool and signs.shape == (2, part.card), part
        assert np.array_equal(signs, sign_masks(plus, minus, missing)), part
