import hashlib
import json
import time

import jsonschema
import numpy as np
import pytest

import ringlab as rl
from ringlab import cli, structure, verify
from ringlab.cli import CATALOG_SCHEMA, REPORT_SCHEMA, VERIFY_SCHEMA, main
from ringlab.core import maybe_memoize

from conftest import LADDER_RUNGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_z5(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z(5)", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["flags"]["gwnc"] is True
    assert report["flags"]["weakly_nil_clean"] is False
    assert report["counterexamples"]["weakly_nil_clean"] == 2
    assert report["invariants"] == {
        "units": 4,
        "nilpotents": 1,
        "idempotents": 2,
        "jacobson": 1,
        "center": 5,
    }
    assert report["fingerprint"] == [[1, 5]]


def test_classify_json_m2z6(capsys):
    code, out, _ = run_cli(capsys, "classify", "M(2,Z(6))", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["flags"]["weakly_clean"] is True
    assert report["flags"]["gwnc"] is False
    assert isinstance(report["counterexamples"]["gwnc"], int)


@pytest.mark.parametrize(
    "expr", sorted({e.expression for e in verify.CATALOG} | set(LADDER_RUNGS))
)
def test_payload_fingerprint_is_that_of_the_radical_quotient(capsys, monkeypatch, expr):
    """With J = 0 the payload fingerprints R itself and builds no copy R/0."""
    mod_j = structure.mod_j
    semisimple = len(rl.jacobson(maybe_memoize(rl.build(expr)))) == 1
    if semisimple:
        monkeypatch.setattr(structure, "mod_j", None)
    code, out, _ = run_cli(capsys, "classify", expr, "--json")
    assert code == 0
    want = structure.wedderburn_fingerprint(mod_j(rl.build(expr)))
    assert json.loads(out)["fingerprint"] == want.as_lists()


def test_classify_text_and_json_agree(capsys):
    code, out_json, _ = run_cli(capsys, "classify", "Z(12)", "--json")
    report = json.loads(out_json)
    code, out_text, _ = run_cli(capsys, "classify", "Z(12)")
    for name, value in report["flags"].items():
        mark = "+" if value else "-"
        assert f"{mark} {name}" in out_text


def test_classify_guard_exit(capsys):
    code, out, err = run_cli(capsys, "classify", "M(3,Z(5))")
    assert code == 3
    assert "1953125" in err and "200000" in err
    code, _, err = run_cli(capsys, "classify", "M(2,Z(5))", "--max-card", "100")
    assert code == 3
    code, _, err = run_cli(capsys, "classify", "Z(200001)")
    assert code == 3
    assert "200001" in err


def test_classify_parse_error_exit(capsys):
    code, _, err = run_cli(capsys, "classify", "M(2,")
    assert code == 2
    assert "parse error" in err


def test_classify_env_guard(capsys, monkeypatch):
    monkeypatch.setenv("RINGLAB_MAX_CARD", "100")
    code, _, err = run_cli(capsys, "classify", "M(2,Z(5))")
    assert code == 3
    assert "exceeds guard 100" in err
    # explicit flag takes precedence over the environment
    code, out, _ = run_cli(capsys, "classify", "M(2,Z(5))", "--json", "--max-card", "1000")
    assert code == 0
    assert json.loads(out)["card"] == 625


@pytest.mark.parametrize(
    "argv, env",
    [
        (("classify", "GF(4,1)"), {}),
        (("classify", "PQ(Z(3),[0,3,1])"), {}),
        (("element", "GF(4,1)", "0"), {}),
        (("classify", "(" * 1000 + "Z(2)" + ")" * 1000), {}),
        (("classify", "M(2,Z(4))"), {"RINGLAB_MAX_CARD": "abc"}),
        (("classify", "FM(2,7,Z(4))"), {}),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


_RING_START = "(expected Z, GF, M, T, TE, PQ, FM, GR, MODJ, PAT, ()"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("classify", "M(2,"), 2, f"parse error: at offset 4: expected a ring expression {_RING_START}"),
        (("element", "M(2,", "0"), 2, f"parse error: at offset 4: expected a ring expression {_RING_START}"),
        # a literal longer than int() converts
        (("classify", f"Z({'9' * 5000})"), 2, "parse error: at offset 2: number of 5000 digits is too long"),
        (("element", f"M({'1' * 5000},Z(2))", "0"), 2, "parse error: at offset 2: number of 5000 digits is too long"),
        (("classify", "GF(4,1)"), 2, "bad input: 4 is not prime"),
        (("element", "FM(2,7,Z(4))", "0"), 2, "bad input: twist 7 is not an element of Z(4)"),
        (("element", "Z(4)", "4"), 2, "element index 4 out of range for card 4"),
        (("classify", "M(3,Z(5))"), 3, "card 1953125 exceeds guard 200000"),
        (("element", "M(3,Z(5))", "0"), 3, "card 1953125 exceeds guard 200000"),
        # cards of 2^100 and more are written as powers, never formed
        (("classify", "M(300,Z(2))"), 3, "card 2^90000 exceeds guard 200000"),
        (("element", "M(300,Z(2))", "0"), 3, "card 2^90000 exceeds guard 200000"),
        (("classify", "M(3000,Z(2))"), 3, "card 2^9000000 exceeds guard 200000"),
        (("classify", "T(3000,Z(2))"), 3, "card 2^4501500 exceeds guard 200000"),
        (("classify", f"PQ(Z(2),[{'0,' * 20000}1])"), 3, "card 2^20000 exceeds guard 200000"),
        # the guard comes before the primality test, so it bounds its trial
        # division, and a non-prime above the guard is refused by the guard
        (("classify", "GF(10000000000000061,1)"), 3, "card 10000000000000061 exceeds guard 200000"),
        (("classify", "GF(1000000,1)"), 3, "card 1000000 exceeds guard 200000"),
        # a pattern frame is refused on its class count, before it is listed
        (("classify", "PAT(S(2000),Z(2))"), 3, "card 2^1999001 exceeds guard 200000"),
        (("classify", "PAT(U(2000),Z(2))"), 3, "card 2^3998 exceeds guard 200000"),
        (("classify", "PAT(Tb(1000,1000),Z(2))"), 3, "card 2^1999 exceeds guard 200000"),
        # (n-1)^2 overflows int64: refused before any arithmetic, not mis-multiplied
        (
            ("element", "Z(4000000007)", "5", "--max-card", "10000000000"),
            2,
            "bad input: modulus 4000000007 is too large: (n-1)^2 overflows int64",
        ),
    ],
)
def test_exit_codes_through_main(capsys, argv, code, message):
    """``main`` maps every library error to its exit code and one stderr
    line; it returns, never raises, and none of these inputs does work
    before it is refused."""
    start = time.perf_counter()
    assert run_cli(capsys, *argv) == (code, "", message + "\n")
    assert time.perf_counter() - start < 5


def without_timings(out):
    payload = json.loads(out)
    payload.pop("timings")
    return payload


def test_unusable_cache_dir_leaves_the_request_uncached(capsys, tmp_path):
    _, plain, _ = run_cli(capsys, "classify", "Z(6)", "--json")
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "classify", "Z(6)", "--json", "--cache-dir", str(blocker / "x"))
    assert code == 0
    assert without_timings(out) == without_timings(plain)
    assert err.startswith("result not cached: ") and err.count("\n") == 1
    # an entry path that cannot be replaced: a miss, recomputed, not stored
    cache = tmp_path / "cache"
    run_cli(capsys, "classify", "Z(6)", "--json", "--cache-dir", str(cache))
    [entry] = cache_entries(cache)
    entry.unlink()
    entry.mkdir()
    code, out, err = run_cli(capsys, "classify", "Z(6)", "--json", "--cache-dir", str(cache))
    assert code == 0
    assert without_timings(out) == without_timings(plain)
    assert err.startswith("result not cached: ") and err.count("\n") == 1
    assert list(entry.parent.iterdir()) == [entry] and entry.is_dir()  # no temporary file left


def test_classify_witness_flag(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z(6)", "--json", "--witness")
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    rows = report["witnesses"]["weakly_nil_clean"]
    assert all(r["holds"] for r in rows)
    assert rows[2]["witness"]["idempotent"] == 4  # 2 + 4 == 0 mod 6


def test_element_command(capsys):
    code, out, _ = run_cli(capsys, "element", "Z(4)", "3", "--json")
    assert code == 0
    report = json.loads(out)
    w = report["predicates"]["nil_clean"]["witness"]
    assert (w["idempotent"], w["rest"]) == (1, 2)
    code, out, _ = run_cli(capsys, "element", "Z(5)", "2", "--json")
    assert json.loads(out)["predicates"]["weakly_nil_clean"]["holds"] is False
    code, out, _ = run_cli(capsys, "element", "Z(6)", "0", "--json")
    report = json.loads(out)
    assert report["is_idempotent"] and report["is_nilpotent"]
    assert report["nilpotency_index"] == 1


@pytest.mark.parametrize("expr", ["Z(12)", "T(2,Z(6))", "M(2,Z(2)) x Z(4)"])
def test_element_central_and_jacobson_match_masks(capsys, monkeypatch, expr):
    # one built ring serves every request, so its witness ranks are computed
    # once; the masks come from a fresh build, a product's from its factors
    ring = maybe_memoize(rl.build(expr))
    monkeypatch.setattr(cli, "build", lambda *args, **kwargs: ring)
    reference = rl.build(expr)
    center = rl.center(reference).mask
    jacobson = rl.jacobson(reference).mask
    assert 1 < jacobson.sum() < ring.card  # both answers occur
    for a in range(ring.card):
        code, out, _ = run_cli(capsys, "element", expr, str(a), "--json")
        assert code == 0
        report = json.loads(out)
        expected = (bool(center[a]), bool(jacobson[a]))
        assert (report["is_central"], report["in_jacobson"]) == expected, a


#: computed products, one nested, whose memoized copies have no factors
PRODUCT_EXPRS = ["M(2,Z(2)) x Z(4)", "T(2,Z(4)) x Z(3)", "(Z(2) x M(2,Z(2))) x Z(3)"]


@pytest.mark.parametrize("expr", PRODUCT_EXPRS)
def test_element_of_a_product_answers_as_its_tables_do(capsys, monkeypatch, expr):
    """Every element of a computed product, which answers centrality, J and
    the witness scans from its factors, against the same ring as tables,
    which takes the flat paths: the same stdout, byte for byte."""
    computed = rl.build(expr)
    tabled = rl.TableRing(rl.build(expr))
    assert computed.factors() is not None and tabled.factors() is None
    monkeypatch.setattr(cli, "maybe_memoize", lambda ring: ring)
    replies = []
    for ring in (computed, tabled):
        monkeypatch.setattr(cli, "build", lambda *args, ring=ring, **kwargs: ring)
        replies.append([run_cli(capsys, "element", expr, str(a), "--json") for a in range(ring.card)])
    assert replies[0] == replies[1]
    answers = {(r["is_central"], r["in_jacobson"]) for r in (json.loads(out) for _, out, _ in replies[0])}
    assert {True, False} == {central for central, _ in answers} == {inside for _, inside in answers}


#: sha256 prefixes of ``classify --json`` without ``timings`` and of the
#: ``element --json`` replies at ``_sample_indices``, recorded from the build
#: that tabulated products up to card 2048 whole and computed larger ones
PRODUCT_DIGESTS = {
    "M(2,GF(2,2)) x Z(4)": ("44e8a97193cae986", "c35cacdb03e5a2c8"),
    "M(2,GF(2,2)) x Z(8)": ("2ff4ed3a519f5ed7", "f651ac8aca338fef"),
    "M(2,Z(3)) x T(2,Z(4))": ("86101e7be5468763", "d97a7cea415b6aeb"),
    "Z(6) x Z(6)": ("8756839483dff1ab", "a3292d58300f0a3f"),
    "M(2,Z(2)) x M(2,Z(2))": ("12f158e059c369ae", "628b7201ce9690af"),
    "M(2,Z(5)) x Z(64)": ("ce778860512335db", "feb6ccdf8828e787"),
}


def _sample_indices(card):
    return sorted({card * i // 8 for i in range(8)} | {card - 1} | ({700} if card > 700 else set()))


@pytest.mark.parametrize("expr", sorted(PRODUCT_DIGESTS))
def test_products_of_table_factors_answer_as_recorded(capsys, expr):
    """``maybe_memoize`` tabulates a product's factors, not the product: the
    replies stay byte for byte those of the whole table or computed ring."""
    code, out, _ = run_cli(capsys, "classify", expr, "--json")
    report = json.loads(out)
    del report["timings"]
    digest = hashlib.sha256(cli._dump(report).encode()).hexdigest()[:16]
    replies = hashlib.sha256()
    for a in _sample_indices(report["card"]):
        code, out, _ = run_cli(capsys, "element", expr, str(a), "--json")
        replies.update(f"{code}\n{out}".encode())
    assert (digest, replies.hexdigest()[:16]) == PRODUCT_DIGESTS[expr]


def test_element_of_a_product_forms_no_product_over_its_carrier(capsys, monkeypatch):
    """``element`` on a computed product above the table threshold leaves
    its centrality, J and witness questions to the factors.  The product's
    own operations serve only the power walk of ``is_nilpotent`` and the
    scalar products of each witness: a few hundred products in all, where
    the centrality test alone compared two rows of card products."""
    ring = rl.build("M(2,Z(5)) x Z(64)")
    formed = []
    for name in ("add_vec", "mul_vec", "neg_vec", "sub_vec"):
        op = getattr(ring, name)

        def counted(*args, op=op):
            formed.append(np.broadcast(*map(np.asarray, args)).size)
            return op(*args)

        setattr(ring, name, counted)
    monkeypatch.setattr(cli, "build", lambda *args, **kwargs: ring)
    for a in (12345, 320, 2):  # not nilpotent; nilpotent outside J; in J
        code, _, _ = run_cli(capsys, "element", "M(2,Z(5)) x Z(64)", str(a), "--json")
        assert code == 0
        assert sum(formed) < 1024, (a, formed)
        formed.clear()


def test_element_decoded_display(capsys):
    code, out, _ = run_cli(capsys, "element", "M(2,Z(2))", "6", "--json")
    assert json.loads(out)["display"] == "[[0, 1], [1, 0]]"


def test_element_of_a_semisimple_radical_quotient_shows_its_coset(capsys):
    """``MODJ`` still builds the quotient R/0 of a semisimple ring, whose
    elements print as cosets."""
    code, out, _ = run_cli(capsys, "element", "MODJ(Z(6))", "5", "--json")
    assert code == 0
    assert json.loads(out)["display"] == "[5]"


def test_verify_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "L-2.27")
    assert code == 0
    assert "PASS" in out and "L-2.27" in out
    assert "1 passed, 0 failed, 0 skipped" in out


def test_verify_only_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "P-2.18", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert payload["summary"]["passed"] == 1


def test_verify_under_a_small_guard_skips_instead_of_raising(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-card", "10", "--json")
    assert code in (0, 1)
    payload = json.loads(out)
    jsonschema.validate(payload, VERIFY_SCHEMA)
    assert len(payload["results"]) == 40
    assert payload["summary"]["skipped"] > 0
    assert "Traceback" not in err
    code, out, _ = run_cli(capsys, "verify", "--max-card", "10")
    assert code in (0, 1)
    summary = payload["summary"]
    assert out.splitlines()[-1] == (
        f"{summary['passed']} passed, {summary['failed']} failed, {summary['skipped']} skipped"
    )


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "NOPE")
    assert code == 2


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("EX-2.1-01")
    assert any("EX-2.1-05" in l and "Z(5)" in l and "GWNC=+" in l and "WNC=-" in l for l in lines)
    code2, out2, _ = run_cli(capsys, "catalog")
    assert out2 == out  # stable ordering


def test_catalog_json_schema(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, CATALOG_SCHEMA)
    assert len(payload) == 26


def cache_entries(path):
    return sorted(path.glob("*/*.json"))


def test_cache_hit_is_byte_identical(capsys, tmp_path):
    args = ("classify", "Z(12)", "--json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run_cli(capsys, *args)
    [entry] = cache_entries(tmp_path)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert out1 == out2  # byte identical, timings included: a replay
    assert cache_entries(tmp_path) == [entry]
    assert list(tmp_path.iterdir()) == [entry.parent]  # one directory: the sources' digest
    assert list(entry.parent.iterdir()) == [entry]  # no temporary file left


def test_cached_request_is_refused_by_its_guard(capsys, tmp_path, monkeypatch):
    """The effective guard is part of the entry key: a cached request
    repeated under a lower guard, or with an unparsable guard setting, is
    refused as it is without a cache, and a repeat under the same guard
    still replays byte for byte."""
    args = ("classify", "M(2,Z(7))", "--json", "--cache-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    [entry] = cache_entries(tmp_path)
    assert run_cli(capsys, *args) == (0, out, "")
    code, hit, err = run_cli(capsys, *args, "--max-card", "100")
    assert (code, hit) == (3, "")
    assert "card 2401 exceeds guard 100" in err
    monkeypatch.setenv("RINGLAB_MAX_CARD", "abc")
    code, hit, err = run_cli(capsys, *args)
    assert (code, hit) == (2, "")
    assert "RINGLAB_MAX_CARD must be an integer" in err
    assert cache_entries(tmp_path) == [entry]


def test_classify_parses_its_expression_once(capsys, tmp_path, monkeypatch):
    """A cache miss parses once: the cache key and the build read the same
    parsed expression."""
    texts = []
    parse = cli.parse
    monkeypatch.setattr(cli, "parse", lambda text: texts.append(text) or parse(text))
    code, out, _ = run_cli(capsys, "classify", "M(2,Z(3))", "--json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["expression"] == "M(2,Z(3))"
    assert texts == ["M(2,Z(3))"]


def test_cache_corruption_is_ignored(capsys, tmp_path):
    args = ("classify", "Z(6)", "--json", "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    [entry] = cache_entries(tmp_path)
    entry.write_text('{"key": "torn wri')
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["flags"]["weakly_nil_clean"] is True
    assert json.loads(entry.read_text())["payload"] == out.rstrip("\n")


def test_cache_version_mismatch_recomputes(capsys, tmp_path):
    """An entry whose key is not the request's, here one written by another
    version of the sources, is a miss even at the request's path."""
    args = ("classify", "Z(6)", "--json", "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    [entry] = cache_entries(tmp_path)
    stored = json.loads(entry.read_text())
    digest, key = stored["key"].split(" ", 1)
    stored["key"] = "0" * len(digest) + " " + key
    stored["payload"] = '{"stale": true}'
    entry.write_text(json.dumps(stored))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "stale" not in out


def test_cache_misses_after_source_edit(capsys, tmp_path, monkeypatch):
    args = ("classify", "Z(6)", "--json", "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    [entry] = cache_entries(tmp_path)
    stored = json.loads(entry.read_text())
    stored["payload"] = '{"stale": true}'
    entry.write_text(json.dumps(stored))
    assert run_cli(capsys, *args)[1] == '{"stale": true}\n'  # the entry is read
    monkeypatch.setattr(cli, "_source_digest", lambda: "e" * 64)
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "stale" not in out
    assert [e.parent.name for e in cache_entries(tmp_path)] == ["e" * 64]
    assert not entry.parent.exists()  # the old sources' directory is gone


def test_new_sources_remove_stale_entries_only(capsys, tmp_path, monkeypatch):
    """The store that creates its digest's directory removes the other
    digests' directories and the entry files of the flat layout, and
    leaves every other file alone."""
    old, flat = tmp_path / ("a" * 64), tmp_path / f"{'b' * 64}.json"
    old.mkdir()
    (old / f"{'c' * 64}.json").write_text("{}")
    flat.write_text("{}")
    keep = [tmp_path / "notes", tmp_path / f"{'d' * 63}.json", tmp_path / ("f" * 64)]
    keep[0].mkdir()
    for path in keep[1:]:
        path.write_text("")
    args = ("classify", "Z(6)", "--json", "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    [entry] = cache_entries(tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted([entry.parent, *keep])
    # a store into an existing directory lists nothing
    monkeypatch.setattr(cli, "_remove_stale_entries", None)
    assert run_cli(capsys, "classify", "Z(4)", "--json", "--cache-dir", str(tmp_path))[0] == 0
    assert len(cache_entries(tmp_path)) == 2


def test_empty_cache_setting_disables_the_cache(capsys, tmp_path, monkeypatch):
    """An empty ``RINGLAB_CACHE_DIR`` is unset: it names no directory, so
    nothing is stored in the working directory and no digest-named entry
    there is removed as stale."""
    decoys = [tmp_path / ("a" * 64), tmp_path / f"{'b' * 64}.json"]
    decoys[0].mkdir()
    decoys[1].write_text("{}")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.CACHE_DIR_ENV, "")
    code, out, _ = run_cli(capsys, "classify", "Z(2)", "--json")
    assert code == 0
    assert json.loads(out)["card"] == 2
    assert sorted(tmp_path.iterdir()) == decoys
    assert decoys[1].read_text() == "{}"


def test_empty_cache_dir_flag_overrides_the_cache_setting(capsys, tmp_path, monkeypatch):
    """A given ``--cache-dir`` takes precedence over ``RINGLAB_CACHE_DIR``
    even when it is empty, which disables the cache: the directory the
    setting names stays empty, and so does the working directory."""
    named, cwd = tmp_path / "named", tmp_path / "cwd"
    named.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv(cli.CACHE_DIR_ENV, str(named))
    code, out, err = run_cli(capsys, "classify", "Z(6)", "--json", "--cache-dir", "")
    assert (code, err) == (0, "")
    assert json.loads(out)["card"] == 6
    assert list(named.iterdir()) == list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("element", "Z(4)", "1", "--cache-dir", "x"),
        ("verify", "--only", "L-2.2", "--cache-dir", "x"),
        ("catalog", "--cache-dir", "x"),
        ("catalog", "--max-card", "10"),
    ],
)
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    """Each command registers only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert "Traceback" not in err


def test_main_builds_its_parser_once(capsys):
    cli._parser.cache_clear()
    parsers = []
    for _ in range(2):
        assert run_cli(capsys, "catalog", "--json")[0] == 0
        parsers.append(cli._parser())
    assert parsers[0] is parsers[1]
    assert cli._parser.cache_info().misses == 1


def test_parser_keeps_no_options_between_calls(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z(6)", "--witness", "--json")
    assert code == 0 and "witnesses" in json.loads(out)
    code, out, _ = run_cli(capsys, "classify", "Z(6)", "--json")
    assert code == 0 and "witnesses" not in json.loads(out)


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    assert "usage: ringlab classify" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "classify", "Z(5)", "--json")
    assert code == 0 and json.loads(out)["card"] == 5


def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "T(2,Z(6))", "--threads", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 4" in err
    assert "Traceback" not in err
