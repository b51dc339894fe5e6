import json

import jsonschema
import pytest

from ringlab.cli import CATALOG_SCHEMA, REPORT_SCHEMA, VERIFY_SCHEMA, main


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
        (("element", "GF(4,1)", "0"), {}),
        (("element", "Z(4)", "1"), {"RINGLAB_MEMO_THRESHOLD": "x"}),
        (("classify", "M(2,Z(4))"), {"RINGLAB_MAX_CARD": "abc"}),
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


def test_element_decoded_display(capsys):
    code, out, _ = run_cli(capsys, "element", "M(2,Z(2))", "6", "--json")
    assert json.loads(out)["display"] == "[[0, 1], [1, 0]]"


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


def test_cache_hit_is_byte_identical(capsys, tmp_path):
    args = ("classify", "Z(12)", "--json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run_cli(capsys, *args)
    assert (tmp_path / "classify.jsonl").exists()
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert out1 == out2  # byte identical


def test_cache_corruption_is_ignored(capsys, tmp_path):
    cache_file = tmp_path / "classify.jsonl"
    cache_file.write_text("not json at all\n{\"broken\": \n")
    code, out, _ = run_cli(
        capsys, "classify", "Z(6)", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads(out)["flags"]["weakly_nil_clean"] is True


def test_cache_version_mismatch_recomputes(capsys, tmp_path):
    args = ("classify", "Z(6)", "--json", "--cache-dir", str(tmp_path))
    run_cli(capsys, *args)
    cache_file = tmp_path / "classify.jsonl"
    entry = json.loads(cache_file.read_text().splitlines()[0])
    entry["version"] = "0.0.0-old"
    entry["payload"] = "{\"stale\": true}"
    cache_file.write_text(json.dumps(entry) + "\n")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "stale" not in out


def test_threads_flag_matches_single_thread(capsys):
    _, out1, _ = run_cli(capsys, "classify", "T(2,Z(6))", "--json")
    _, out2, _ = run_cli(capsys, "classify", "T(2,Z(6))", "--json", "--threads", "4")
    r1, r2 = json.loads(out1), json.loads(out2)
    for key in ("flags", "counterexamples", "invariants", "fingerprint"):
        assert r1[key] == r2[key]
