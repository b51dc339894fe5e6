"""Command-line front end: classify rings, inspect elements, run the
verification harness, list the catalog.

Exit codes, mapped from the library's exceptions in ``main`` alone: 0
success (classification truth is data, not exit status), 1 harness
failures, 2 bad input (parse error, failed construction precondition,
unparsable environment setting), 3 guard exceeded; each error is one
stderr line.  The result cache is off unless ``--cache-dir``, when given,
or else ``RINGLAB_CACHE_DIR`` names a directory (empty disables it), and
best effort: a directory or entry that cannot be written leaves the
request uncached, with one stderr line.
JSON records are the records' own fields (``vars``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from .core import ConstructionError, GuardError, SettingError
from .core import default_max_card, is_nilpotent, maybe_memoize
from . import decompositions as dec
from . import structure
from .dsl import ParseError, Term, build, canonical, parse
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


@functools.cache
def _source_digest() -> str:
    """SHA-256 of the package's sources, computed once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cache_entry(args, key: str) -> tuple[Path, str] | None:
    """The entry file of a request and the key it must hold: the source
    digest, the canonical key and the effective guard, so other sources
    never replay it and a request is refused by its guard, or by an
    unparsable guard setting, whether or not its entry is cached.  Entries
    live in one directory per source digest."""
    raw = os.environ.get(CACHE_DIR_ENV) if args.cache_dir is None else args.cache_dir
    if not raw:
        return None
    guard = default_max_card() if args.max_card is None else args.max_card
    digest = _source_digest()
    key = f"{digest} {key} max_card={guard}"
    return Path(raw) / digest / f"{hashlib.sha256(key.encode()).hexdigest()}.json", key


def _cache_lookup(path: Path, key: str) -> str | None:
    """The stored payload; an entry that is missing, does not parse or
    holds another key is a miss."""
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
        return stored["payload"] if stored["key"] == key else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _is_digest(name: str) -> bool:
    return len(name) == 64 and all(c in "0123456789abcdef" for c in name)


def _remove_stale_entries(current: Path) -> None:
    """Remove the directories of other source digests beside ``current``,
    and the entry files of the flat layout that preceded them, whose
    sources can no longer be current.  A failed removal is ignored."""
    with contextlib.suppress(OSError):
        for other in current.parent.iterdir():
            if other != current and _is_digest(other.name) and other.is_dir():
                shutil.rmtree(other, ignore_errors=True)
            elif other.suffix == ".json" and _is_digest(other.stem):
                with contextlib.suppress(OSError):
                    other.unlink()


def _cache_store(path: Path, key: str, payload: str) -> None:
    """Write to a temporary file and rename it into place, so that a reader
    sees either no entry or a whole one; an entry that cannot be written
    leaves the request uncached.  The store that creates its digest's
    directory removes the stale ones."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        try:
            path.parent.mkdir(parents=True)
        except FileExistsError:
            pass
        else:
            _remove_stale_entries(path.parent)
        tmp.write_text(json.dumps({"key": key, "payload": payload}), encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        print(f"result not cached: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _classify_payload(expr: Term, key: str, args) -> str:
    t0 = time.perf_counter()
    ring = build(expr, max_card=args.max_card)
    ring = maybe_memoize(ring)
    t1 = time.perf_counter()
    report = dec.classify(ring)
    data = structure.ring_data(ring)
    fingerprint = structure.wedderburn_fingerprint(structure.radical_quotient(ring))
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
            everyone = np.arange(ring.card, dtype=np.int64)
            for kind in dec.ELEMENT_PREDICATES:
                witnesses[kind] = [
                    {"element": a, "holds": ok, "witness": w and vars(w)}
                    for a, (ok, w) in enumerate(dec.witnesses(ring, kind, everyone))
                ]
        else:
            witnesses["note"] = (
                f"per-element witness table omitted for card > {_WITNESS_TABLE_LIMIT}; "
                "use the element command"
            )
        payload["witnesses"] = witnesses
    return _dump(payload)


def cmd_classify(args) -> int:
    expr = parse(args.expression)
    key = canonical(expr)
    cache = _cache_entry(args, key + (":witness" if args.witness else ""))
    payload = _cache_lookup(*cache) if cache else None
    if payload is None:
        payload = _classify_payload(expr, key, args)
        if cache:
            _cache_store(*cache, payload)
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
    expr = parse(args.expression)
    ring = maybe_memoize(build(expr, max_card=args.max_card))
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
        "is_central": data.is_central(a),
        "in_jacobson": data.left_quasi_regular(a),
        "predicates": {},
    }
    for kind, predicate in dec.ELEMENT_PREDICATES.items():
        ok, w = predicate(ring, a)
        payload["predicates"][kind] = {"holds": ok, "witness": w and vars(w)}
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
    summary = verify_mod.run_all(max_card=args.max_card, only=args.only)
    if args.json:
        payload = {
            "summary": {
                "passed": summary.passed,
                "failed": summary.failed,
                "skipped": summary.skipped,
            },
            "results": [vars(r) for r in summary.results],
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
    if args.json:
        # ``expected`` is a tuple of (flag, value) pairs, an object in JSON
        payload = [{**vars(e), "expected": dict(e.expected)} for e in verify_mod.CATALOG]
        print(_dump(payload))
        return 0
    for e in verify_mod.CATALOG:
        flags = " ".join(
            f"{_FLAG_SHORT.get(k, k)}={'+' if v else '-'}" for k, v in e.expected
        )
        print(f"{e.id:12s} {e.expression:28s} {flags:30s} [{e.source}]")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    """``--json`` and ``--max-card``, which classify, element and verify
    read; catalog reads only ``--json`` and classify alone the cache."""
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument(
        "--max-card",
        type=int,
        default=None,
        help="construction guard (default RINGLAB_MAX_CARD or 200000)",
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it took most of
    a cached request's time."""
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="classify finite rings by clean-family decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification report for one ring")
    p.add_argument("expression")
    p.add_argument("--witness", action="store_true", help="include decomposition witnesses")
    _add_common(p)
    p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default RINGLAB_CACHE_DIR; unset or empty disables)",
    )
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
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, SettingError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
