import numpy as np
import pytest

import ringlab as rl
from ringlab.core import maybe_memoize
from ringlab.decompositions import DIAGRAM_EDGES, ELEMENT_PREDICATES, REPORT_FLAGS
from ringlab.verify import CATALOG

from conftest import (
    oracle_counterexample,
    oracle_idempotents,
    oracle_nilpotents,
    oracle_units,
    oracle_weakly_nil_clean_elem,
    oracle_witness,
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
        ok, w = rl.elem_is_clean(z6, u)
        assert ok and w.idempotent == 0 and w.rest == u


def test_clean_witness_tiebreak(z6):
    # 3 - e fails for e in {0, 1, 3}; e = 4 gives the unit 5
    ok, w = rl.elem_is_clean(z6, 3)
    assert ok and w.idempotent == 4 and w.rest == 5 and w.sign == 1


def test_all_elements_clean_in_local_ring():
    z4 = rl.zmod(4)
    assert all(rl.elem_is_clean(z4, a)[0] for a in z4.elements())


def test_nil_clean_examples():
    z4 = rl.zmod(4)
    ok, w = rl.elem_is_nil_clean(z4, 3)
    assert ok and w.idempotent == 1 and w.rest == 2
    ok, w = rl.elem_is_strongly_nil_clean(z4, 0)
    assert ok and w.idempotent == 0 and w.rest == 0
    assert not rl.elem_is_nil_clean(rl.zmod(3), 2)[0]


def test_weakly_nil_clean_examples():
    z3 = rl.zmod(3)
    ok, w = rl.elem_is_weakly_nil_clean(z3, 2)
    assert ok and w.sign == -1 and w.idempotent == 1 and w.rest == 0
    assert not rl.elem_is_weakly_nil_clean(rl.zmod(5), 2)[0]


def test_lemma_2_32_element_is_not_weakly_nil_clean():
    m2z5 = rl.matrix_ring(2, rl.zmod(5))
    for a in (2, 3):  # outside {0, 1, -1} in Z(5)
        idx = a * 5**3  # diag(a, 0), entry (0,0) most significant
        assert not rl.elem_is_weakly_nil_clean(m2z5, idx)[0]
        assert oracle_weakly_nil_clean_elem(m2z5, idx) is False


def test_weakly_clean_examples(z6):
    assert rl.elem_is_weakly_clean(z6, 3)[0]
    for u in rl.units(z6):
        ok, w = rl.elem_is_weakly_clean(z6, u)
        assert ok and w.idempotent == 0


def test_negatives_of_weakly_nil_clean_are_weakly_clean():
    for expr in WITNESS_RINGS:
        ring = rl.build(expr)
        for a in ring.elements():
            if rl.elem_is_weakly_nil_clean(ring, a)[0]:
                assert rl.elem_is_weakly_clean(ring, ring.neg(a))[0], (expr, a)


@pytest.mark.parametrize("expr", WITNESS_RINGS)
def test_witness_validity_pass(expr):
    ring = rl.build(expr)
    for kind, predicate in ELEMENT_PREDICATES.items():
        for a in ring.elements():
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
        for a in ring.elements():
            wnc = any(ring.sub(a, e) in nil or ring.add(a, e) in nil for e in idem)
            assert rl.elem_is_weakly_nil_clean(ring, a)[0] == wnc
            nc = any(ring.sub(a, e) in nil for e in idem)
            assert rl.elem_is_nil_clean(ring, a)[0] == nc
            clean = any(ring.sub(a, e) in units for e in idem)
            assert rl.elem_is_clean(ring, a)[0] == clean


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
        for a in ring.elements():
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
        for a in prod.elements()
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
    w = rl.gwnc_witness(z6, 2)
    assert w is not None
    rl.validate_witness(z6, 2, "weakly_nil_clean", w)
    assert rl.gwnc_witness(rl.zmod(5), 2) is None


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
            rl.elem_is_strongly_nil_clean(ring, a)[0]
            or rl.elem_is_strongly_nil_clean(ring, ring.neg(a))[0]
            for a in ring.elements()
        )
        swc = all(
            rl.elem_is_strongly_clean(ring, a)[0]
            or rl.elem_is_strongly_clean(ring, ring.neg(a))[0]
            for a in ring.elements()
        )
        assert flags["strongly_weakly_nil_clean"] == swnc
        assert flags["strongly_weakly_clean"] == swc


def test_flags_deterministic_across_threads():
    for threads in (1, 3):
        ring = rl.build("T(2,Z(6))")
        report = rl.classify(ring, threads=threads)
        holds, cx = rl.gwnc(ring, threads=threads)
        if threads == 1:
            base = (report.flags, report.counterexamples, holds, cx)
        else:
            assert (report.flags, report.counterexamples, holds, cx) == base


def test_uwnc_counts_units_only():
    # Z(5): units 2 and 3 are not weakly nil-clean, so UWNC fails
    assert not rl.ring_flag(rl.zmod(5), "uwnc")
    assert rl.ring_flag(rl.zmod(4), "uwnc")


def test_uu_wuu_examples(m2z2):
    assert rl.ring_flag(rl.zmod(4), "uu")
    assert not rl.ring_flag(m2z2, "uu")  # an order-3 unit exists
    assert rl.ring_flag(rl.zmod(3), "wuu")
    assert not rl.ring_flag(rl.zmod(5), "wuu")
