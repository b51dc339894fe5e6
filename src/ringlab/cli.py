"""Command-line front end: classify rings, inspect elements, run the
verification harness, list the catalog.

Exit codes: 0 success (classification truth is data, not exit status),
1 harness failures, 2 bad input (parse error, failed construction
precondition, unparsable environment setting), 3 guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


from . import __version__
from .core import ConstructionError, GuardError, SettingError
from .core import is_nilpotent, maybe_memoize
from . import decompositions as dec
from . import structure
from .dsl import ParseError, build, canonical, parse
from . import verify as verify_mod

CACHE_DIR_ENV = "RINGLAB_CACHE_DIR"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "expression",
        "card",
        "flags",
        "counterexamples",
        "invariants",
        "fingerprint",
        "timings",
    ],
    "properties": {
        "expression": {"type": "string"},
        "card": {"type": "integer", "minimum": 2},
        "flags": {"type": "object", "additionalProperties": {"type": "boolean"}},
        "counterexamples": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "invariants": {
            "type": "object",
            "required": ["units", "nilpotents", "idempotents", "jacobson", "center"],
            "additionalProperties": {"type": "integer"},
        },
        "fingerprint": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "timings": {"type": "object", "additionalProperties": {"type": "number"}},
        "witnesses": {"type": "object"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

CATALOG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "array",
    "items": {
        "type": "object",
        "required": ["id", "expression", "expected", "source"],
        "properties": {
            "id": {"type": "string"},
            "expression": {"type": "string"},
            "expected": {"type": "object", "additionalProperties": {"type": "boolean"}},
            "source": {"type": "string"},
        },
    },
}

VERIFY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["summary", "results"],
    "properties": {
        "summary": {
            "type": "object",
            "required": ["passed", "failed", "skipped"],
            "additionalProperties": {"type": "integer"},
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "description", "details"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skipped"]},
                    "description": {"type": "string"},
                    "details": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}

_FLAG_SHORT = {
    "clean": "CLEAN",
    "strongly_clean": "SC",
    "weakly_clean": "WC",
    "strongly_weakly_clean": "SWC",
    "nil_clean": "NC",
    "strongly_nil_clean": "SNC",
    "weakly_nil_clean": "WNC",
    "strongly_weakly_nil_clean": "SWNC",
    "gnc": "GNC",
    "gsnc": "GSNC",
    "gwnc": "GWNC",
    "uu": "UU",
    "wuu": "WUU",
    "uwnc": "UWNC",
}

_WITNESS_TABLE_LIMIT = 128


def _cache_path(args) -> Path | None:
    raw = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    if raw is None:
        return None
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path / "classify.jsonl"


def _cache_lookup(path: Path | None, key: str) -> str | None:
    if path is None or not path.exists():
        return None
    hit = None
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # corruption: ignore and recompute
            if entry.get("version") == __version__ and entry.get("key") == key:
                hit = entry.get("payload")
    return hit


def _cache_store(path: Path | None, key: str, payload: str) -> None:
    if path is None:
        return
    entry = json.dumps({"version": __version__, "key": key, "payload": payload})
    with path.open("a", encoding="utf-8") as fh:
        fh.write(entry + "\n")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _witness_dict(w: dec.Witness | None) -> dict | None:
    if w is None:
        return None
    return {
        "sign": w.sign,
        "idempotent": w.idempotent,
        "rest": w.rest,
        "commuting": w.commuting,
    }


def _classify_payload(expr_text: str, args) -> str:
    expr = parse(expr_text)
    key = canonical(expr)
    t0 = time.perf_counter()
    ring = build(expr, max_card=args.max_card)
    ring = maybe_memoize(ring)
    t1 = time.perf_counter()
    report = dec.classify(ring)
    data = structure.ring_data(ring)
    quotient = structure.mod_j(ring)
    fingerprint = structure.wedderburn_fingerprint(quotient)
    t2 = time.perf_counter()
    payload = {
        "expression": key,
        "card": ring.card,
        "flags": {**report.flags, **report.structural.as_dict()},
        "counterexamples": dict(report.counterexamples),
        "invariants": {
            "units": int(data.unit_mask.sum()),
            "nilpotents": int(data.nil_mask.sum()),
            "idempotents": int(data.idem_mask.sum()),
            "jacobson": int(data.jacobson_mask.sum()),
            "center": int(data.center_mask.sum()),
        },
        "fingerprint": fingerprint.as_lists(),
        "timings": {"build": t1 - t0, "classify": t2 - t1},
        "notes": list(report.structural.notes),
    }
    if args.witness:
        witnesses: dict[str, object] = {}
        if ring.card <= _WITNESS_TABLE_LIMIT:
            for kind, predicate in dec.ELEMENT_PREDICATES.items():
                rows = []
                for a in range(ring.card):
                    ok, w = predicate(ring, a)
                    rows.append({"element": a, "holds": ok, "witness": _witness_dict(w)})
                witnesses[kind] = rows
        else:
            witnesses["note"] = (
                f"per-element witness table omitted for card > {_WITNESS_TABLE_LIMIT}; "
                "use the element command"
            )
        payload["witnesses"] = witnesses
    return _dump(payload)


def cmd_classify(args) -> int:
    cache = _cache_path(args)
    try:
        key = canonical(parse(args.expression))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    cache_key = key + (":witness" if args.witness else "")
    payload = _cache_lookup(cache, cache_key)
    if payload is None:
        try:
            payload = _classify_payload(args.expression, args)
        except GuardError as exc:
            print(str(exc), file=sys.stderr)
            return 3
        _cache_store(cache, cache_key, payload)
    if args.json:
        print(payload)
        return 0
    _print_classify_text(json.loads(payload), args)
    return 0


def _print_classify_text(report: dict, args) -> None:
    print(f"{report['expression']}  (card {report['card']})")
    print("flags:")
    for name, value in sorted(report["flags"].items()):
        mark = "+" if value else "-"
        cx = report["counterexamples"].get(name)
        extra = f"  (counterexample element {cx})" if cx is not None else ""
        print(f"  {mark} {name}{extra}")
    inv = report["invariants"]
    print(
        "invariants: |U|={units} |Nil|={nilpotents} |Id|={idempotents} "
        "|J|={jacobson} |Z|={center}".format(**inv)
    )
    fp = ", ".join(f"({n},{q})" for n, q in report["fingerprint"])
    print(f"fingerprint of the radical quotient: {{{fp}}}")
    if args.witness and "witnesses" in report:
        wit = report["witnesses"]
        if "note" in wit:
            print(f"witnesses: {wit['note']}")
        else:
            print("witnesses:")
            for kind, rows in wit.items():
                held = sum(1 for r in rows if r["holds"])
                print(f"  {kind}: {held}/{len(rows)} elements decompose")


def cmd_element(args) -> int:
    try:
        expr = parse(args.expression)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        ring = maybe_memoize(build(expr, max_card=args.max_card))
    except GuardError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    a = args.index
    if not 0 <= a < ring.card:
        print(f"element index {a} out of range for card {ring.card}", file=sys.stderr)
        return 2
    data = structure.ring_data(ring)
    nil, nil_index = is_nilpotent(ring, a)
    payload = {
        "expression": canonical(expr),
        "element": a,
        "display": ring.format_element(a),
        "is_unit": bool(data.unit_mask[a]),
        "is_nilpotent": nil,
        "nilpotency_index": nil_index,
        "is_idempotent": bool(data.idem_mask[a]),
        "is_central": bool(data.center_mask[a]),
        "in_jacobson": bool(data.jacobson_mask[a]),
        "predicates": {},
    }
    for kind, predicate in dec.ELEMENT_PREDICATES.items():
        ok, w = predicate(ring, a)
        payload["predicates"][kind] = {"holds": ok, "witness": _witness_dict(w)}
    if args.json:
        print(_dump(payload))
        return 0
    print(f"{payload['expression']} element {a} = {payload['display']}")
    for key in ("is_unit", "is_nilpotent", "is_idempotent", "is_central", "in_jacobson"):
        print(f"  {key}: {payload[key]}")
    if nil:
        print(f"  nilpotency_index: {nil_index}")
    for kind, entry in payload["predicates"].items():
        if entry["witness"] is not None:
            w = entry["witness"]
            sign = "+" if w["sign"] == 1 else "-"
            print(
                f"  {kind}: {entry['holds']}  (a = rest {sign} e with "
                f"e={w['idempotent']}, rest={w['rest']}, commuting={w['commuting']})"
            )
        else:
            print(f"  {kind}: {entry['holds']}")
    return 0


def cmd_verify(args) -> int:
    if args.only is not None and args.only not in verify_mod.CHECKS:
        print(f"unknown check id {args.only!r}", file=sys.stderr)
        return 2
    summary = verify_mod.run_all(
        max_card=args.max_card,
        memo_threshold=None,
        only=args.only,
    )
    if args.json:
        payload = {
            "summary": {
                "passed": summary.passed,
                "failed": summary.failed,
                "skipped": summary.skipped,
            },
            "results": [
                {
                    "id": r.id,
                    "status": r.status,
                    "description": r.description,
                    "details": r.details,
                }
                for r in summary.results
            ],
        }
        print(_dump(payload))
    else:
        for r in summary.results:
            print(f"{r.status.upper():7s} {r.id:10s} {r.description}")
            if r.status != "pass":
                for d in r.details:
                    print(f"        {d}")
        print(str(summary))
    return 1 if summary.failed else 0


def cmd_catalog(args) -> int:
    entries = verify_mod.catalog()
    if args.json:
        payload = [
            {
                "id": e.id,
                "expression": e.expression,
                "expected": {k: v for k, v in e.expected},
                "source": e.source,
            }
            for e in entries
        ]
        print(_dump(payload))
        return 0
    for e in entries:
        flags = " ".join(
            f"{_FLAG_SHORT.get(k, k)}={'+' if v else '-'}" for k, v in e.expected
        )
        print(f"{e.id:12s} {e.expression:28s} {flags:30s} [{e.source}]")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument(
        "--max-card",
        type=int,
        default=None,
        help="construction guard (default RINGLAB_MAX_CARD or 200000)",
    )
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default RINGLAB_CACHE_DIR; unset disables)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="classify finite rings by clean-family decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification report for one ring")
    p.add_argument("expression")
    p.add_argument("--witness", action="store_true", help="include decomposition witnesses")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("element", help="per-element predicates and witnesses")
    p.add_argument("expression")
    p.add_argument("index", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("verify", help="run the claim-regression harness")
    p.add_argument("--only", default=None, metavar="ID", help="run a single check")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list the named ring catalog")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, SettingError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
