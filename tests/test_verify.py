import collections
import hashlib
import json
import pathlib
import re

import pytest

import ringlab as rl
from ringlab import decompositions as dec, structure, verify
from ringlab.verify import (
    CATALOG,
    CHECKS,
    CatalogEntry,
    VerifyContext,
    check_catalog_entry,
    run_all,
    run_check,
)

from conftest import axiom_checked_expressions


def test_catalog_shape():
    entries = CATALOG
    assert len(entries) == 26
    asserted = [e for e in entries if e.expected]
    assert len(asserted) == 11
    ids = [e.id for e in entries]
    assert ids == sorted(ids, key=ids.index)  # stable declared order
    assert len(set(ids)) == len(ids)


def test_catalog_builds_under_default_guard():
    ctx = VerifyContext(max_card=200000)  # a larger catalog ring raises GuardError
    for entry in CATALOG:
        ring = ctx.ring(entry.expression)
        assert ring.card >= 2


def test_single_checks_pass():
    ctx = VerifyContext()
    for cid in ("EX-2.1-10", "L-2.27", "P-2.18", "C-2.3"):
        result = run_check(cid, ctx=ctx)
        assert result.status == "pass", result.details


def test_l233_reports_negative_fields():
    result = run_check("L-2.33")
    assert result.status == "pass"
    text = "\n".join(result.details)
    assert "M(2,GF(2,2)): gwnc=False" in text
    assert "M(2,Z(5)): gwnc=False" in text
    assert "M(3,Z(3)): gwnc=False" in text


def test_forced_failure_self_test():
    ctx = VerifyContext()
    fake = CatalogEntry("EX-SELFTEST", "Z(5)", (("gwnc", False),), "inverted")
    result = check_catalog_entry(ctx, fake)
    assert result.status == "fail"
    assert any("expected False got True" in d for d in result.details)
    # and an honest entry passes through the same code path
    good = CatalogEntry("EX-SELFTEST2", "Z(5)", (("gwnc", True),), "ok")
    assert check_catalog_entry(ctx, good).status == "pass"


def test_run_all_parses_each_text_once(monkeypatch):
    calls = collections.Counter()
    parse = verify.parse

    def counting_parse(text):
        calls[text] += 1
        return parse(text)

    monkeypatch.setattr(verify, "parse", counting_parse)
    summary = run_all()
    assert summary.failed == 0
    assert len(calls) > 100  # the catalog, the checks' own rings and the pairs' factors
    assert set(calls.values()) == {1}


def test_run_all_single_id():
    summary = run_all(only="C-2.17")
    assert len(summary.results) == 1
    assert summary.results[0].id == "C-2.17"
    assert summary.passed == 1 and summary.failed == 0
    assert "1 passed" in str(summary)


def test_unknown_check_id():
    with pytest.raises(KeyError):
        run_check("NOPE-1")


def test_guard_skip_is_reported():
    # a guard below the needed card turns the check into a skip, not a pass
    result = run_check("T-2.35", max_card=100)
    assert result.status == "skipped"
    assert all(d.startswith("SKIP") for d in result.details)
    assert "exceeds guard" in result.details[0]


def test_guard_hit_inside_a_check_ends_it_skipped_with_the_card():
    for limit in (10, 300, 5000):
        summary = run_all(max_card=limit)
        assert len(summary.results) == 40
        interrupted = [r for r in summary.results if any(d.startswith("SKIP:") for d in r.details)]
        assert interrupted, limit
        for result in interrupted:
            assert result.status == "skipped", (result.id, result.details)
            line = result.details[-1]
            match = re.fullmatch(rf"SKIP: card (\d+) exceeds guard {limit}", line)
            assert match and int(match.group(1)) > limit, (result.id, line)


@pytest.mark.parametrize(
    "lines, guard_hit, status",
    [
        ([], False, "skipped"),
        (["note Z(2): not reduced, filtered out"], False, "skipped"),
        (["note Z(2): not reduced, filtered out", "ok Z(3)"], False, "pass"),
        (["ok Z(3)", "FAIL Z(4): planted"], False, "fail"),
        (["ok Z(3)"], True, "skipped"),
        (["FAIL planted before the guard"], True, "fail"),
    ],
)
def test_status_is_read_off_the_detail_lines(monkeypatch, lines, guard_hit, status):
    """A planted body writes lines and returns nothing: a FAIL line fails
    the check; else a guard hit, or no ``ok`` line, skips it."""

    def planted(ctx, details):
        details.extend(lines)
        if guard_hit:
            ctx.ring("M(3,Z(5))")

    monkeypatch.setitem(CHECKS, "ZZ-PLANTED", ("a planted check", planted))
    (result,) = run_all(max_card=10, only="ZZ-PLANTED").results
    assert result.status == status
    assert result.details == lines + ["SKIP: card 1953125 exceeds guard 10"] * guard_hit


def test_radical_quotient_checks_copy_no_semisimple_ring(monkeypatch):
    """T-2.36 and P-2.41 read R/J of a ring with J = 0 off R itself: they
    call ``mod_j`` once per catalog ring with J != 0 and on no other."""
    mod_j = structure.mod_j
    quotiented = []

    def counting(ring):
        quotiented.append(ring)
        return mod_j(ring)

    monkeypatch.setattr(structure, "mod_j", counting)
    for cid in ("T-2.36", "P-2.41"):
        assert run_check(cid).status == "pass", cid
    ctx = VerifyContext()
    radical = [e for e in CATALOG if len(rl.jacobson(ctx.ring(e.expression))) > 1]
    assert 0 < len(radical) < len(CATALOG)
    assert len(quotiented) == len(radical)
    assert all(len(rl.jacobson(ring)) > 1 for ring in quotiented)


def test_raised_guard_unlocks_the_3x3_base4_case():
    default = run_check("P-2.41")
    assert default.status == "pass"
    assert any("SKIP M(3,Z(4))" in d for d in default.details)
    raised = run_check("P-2.41", max_card=300000)
    assert raised.status == "pass"
    assert any(d.startswith("ok M(3,Z(4))") for d in raised.details)


def test_fail_details_carry_reproduction_command():
    ctx = VerifyContext()
    fake = CatalogEntry("EX-SELFTEST3", "Z(6) x Z(6)", (("gwnc", True),), "inverted")
    result = check_catalog_entry(ctx, fake)
    assert result.status == "fail"
    assert any("ringlab classify" in d for d in result.details)
    assert any("counterexample element" in d for d in result.details)


def test_axiom_suite_covers_small_constructions():
    checked = axiom_checked_expressions()
    assert "Z(6)" in checked
    assert "M(2,Z(2))" in checked
    assert "PAT(U(3),Z(2))" in checked
    assert "M(2,Z(6))" not in checked  # card 1296 exceeds the 512 bound


def test_check_registry_descriptions():
    for cid, (description, _) in CHECKS.items():
        assert description
        assert cid == cid.strip()


def test_nil_ideal_enumeration_on_te_z6():
    from ringlab.verify import _nil_ideals

    ring = rl.build("TE(Z(6))")
    ideals = _nil_ideals(ring)
    sizes = sorted(len(i) for i in ideals)
    # J = 0 x Z(6); its subideals here include 1, 2, 3, 6-element ones
    assert sizes[0] == 1 and sizes[-1] == 6
    for ideal in ideals:
        assert rl.is_nil_subset(ring, ideal)


@pytest.mark.parametrize(
    "expr", ["T(2,Z(4))", "TE(Z(6))", "PQ(Z(3),[0,0,1])", "T(3,Z(2))", "TE(Z(4))"]
)
def test_nil_ideals_match_the_pairwise_enumeration(expr):
    """The principal ideals and their pairwise sums against one
    ``ideal_generated`` call per member of J and per pair: the same masks,
    each once."""
    from conftest import scan_nil_ideals
    from ringlab.verify import _nil_ideals

    ring = VerifyContext().ring(expr)
    got = [ideal.mask.tobytes() for ideal in _nil_ideals(ring)]
    want = [mask.tobytes() for mask in scan_nil_ideals(ring)]
    assert len(got) == len(set(got)) == len(want)
    assert set(got) == set(want)


def test_context_builds_a_product_over_its_cached_factor_rings():
    """A product text, nested or written as a pair, is built over the very
    factor rings that the context returns for the factors' texts."""
    ctx = VerifyContext()
    triple = ctx.ring("((Z(2) x Z(3)) x Z(4))")
    pair, z4 = triple.factors()
    assert pair is ctx.ring("(Z(2) x Z(3))") is ctx.pair_ring("Z(2)", "Z(3)")
    assert z4 is ctx.ring("Z(4)")
    assert all(f is ctx.ring(t) for f, t in zip(pair.factors(), ("Z(2)", "Z(3)")))
    assert ctx.ring("(Z(2) x Z(3)) x Z(4)") is triple


def test_precondition_fail_line_carries_the_reproduce_command(monkeypatch):
    """A premise that turns a ring away with a FAIL line ends it with the
    command that reproduces it, as every other FAIL line does."""
    monkeypatch.setattr(verify, "_times", lambda ring, n: ring.one)
    result = run_check("L-2.27")
    assert result.status == "fail"
    assert result.details[0].startswith("FAIL Z(4): 2 is not in the radical")
    assert result.details[0].endswith('reproduce: ringlab classify "Z(4)" --witness')


#: run name -> (max_card, whether ``dec.ring_flag`` is negated)
HARNESS_RUNS = {
    "max_card=default": (None, False),
    "max_card=300": (300, False),
    "max_card=50": (50, False),
    "negated flags, max_card=default": (None, True),
    "negated flags, max_card=300": (300, True),
}
HARNESS_DIGESTS = pathlib.Path(__file__).with_name("verify_digests.json")


def _harness_run(run: str) -> dict[str, tuple[str, list[str]]]:
    """Each check's status and detail lines in one ``run_all`` of
    ``HARNESS_RUNS``; the caller negates the flags."""
    max_card, _ = HARNESS_RUNS[run]
    return {r.id: (r.status, r.details) for r in run_all(max_card=max_card).results}


def _digest(status: str, details: list[str]) -> list[str]:
    return [status, hashlib.sha256("\n".join(details).encode()).hexdigest()]


def _negate_flags(monkeypatch) -> None:
    flag = dec.ring_flag
    monkeypatch.setattr(dec, "ring_flag", lambda ring, name: not flag(ring, name))


@pytest.mark.parametrize("run", list(HARNESS_RUNS))
def test_harness_matches_its_recorded_digests(run, monkeypatch):
    """Every check's status and the SHA-256 of its detail lines, joined by
    newlines, against ``verify_digests.json``.  The file was recorded from
    the harness as it stood before its checks shared one verdict writer
    and one sweep, with ``PYTHONPATH=src python tests/test_verify.py >
    tests/verify_digests.json``.  The negated runs flip every answer of
    ``ring_flag``, so most checks fail (29 of 40 at the default guard) and
    their FAIL texts are pinned too; each FAIL line ends with its
    reproduce command."""
    if HARNESS_RUNS[run][1]:
        _negate_flags(monkeypatch)
    got = _harness_run(run)
    want = json.loads(HARNESS_DIGESTS.read_text())[run]
    changed = {cid: got[cid] for cid in got if _digest(*got[cid]) != want.get(cid)}
    assert not changed and got.keys() == want.keys(), changed
    fails = [d for status, details in got.values() for d in details if d.startswith("FAIL")]
    assert all(re.search(r'; reproduce: ringlab classify "[^"]+" --witness$', d) for d in fails)


if __name__ == "__main__":
    digests = {}
    for name, (_, negated) in HARNESS_RUNS.items():
        with pytest.MonkeyPatch.context() as patch:
            if negated:
                _negate_flags(patch)
            digests[name] = {cid: _digest(*out) for cid, out in _harness_run(name).items()}
    print(json.dumps(digests, indent=1, sort_keys=True))
