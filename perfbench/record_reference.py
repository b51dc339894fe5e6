"""Record the outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once, untraced, on its default seed and writes
``perfbench/reference.json``: each classify payload without its
``timings``, each flag and counterexample pair, each harness check's status
and details, and each classify and element payload of the default-seed
``interactive_cli`` stream, as ``{workload: {key: output}}``.  Harness
statuses and element payloads are checked (the latter against the
brute-force oracle) before they are written.  Run it only at a commit whose
outputs are known to be right; the recorded reference is from the seed
commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import run_pass  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Raised  # noqa: E402


def main() -> int:
    ref = {}
    for wl in WORKLOADS.values():
        ops = wl.ops(DEFAULT_SEED)
        (start, end), _, outs = run_pass(wl, ops)
        ref[wl.name] = {}
        for op, out in zip(ops, outs):
            if isinstance(out, Raised):
                sys.exit(f"{wl.name}: {out.message}")
            problems = wl.problems(op, out) + (wl.unrecorded(op, out) or [])
            if problems:
                sys.exit(f"{wl.name}: {op}: {'; '.join(problems)}")
            ref[wl.name][wl.key(op)] = wl.norm(op, out)
        print(f"{wl.name}: {len(ops)} operations in {end - start:.1f} s")
    path = BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
