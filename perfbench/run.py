"""Run one ringlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify_ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in a fresh process

Run from the root of a checkout; the library is imported from ``src/``.
The output is the environment (machine, Python, numpy, commit), one line
per metric with its unit, and as the last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures with tracing off and reports BENCHMARK.json's
``end_to_end`` metrics.  Passes over the workload repeat while another pass
is expected to end within ``--seconds`` (at least one).  Its times are
scaled to a reference machine speed by the probes of ``speed.py``; the
unscaled pass time is printed as ``raw_wall_s``.  ``--trace 1``
makes a traced pass between untraced passes over the same operations,
checks that the traced outputs equal the untraced ones, writes the spans to
``.perfbench-work/`` and reports the ``per_layer`` metrics.  Every output is
checked against ``reference.json``, recorded at the seed commit by
``record_reference.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("classify_ladder", "verify_harness", "flags_large", "interactive_cli")
#: cleared so that no setting of the caller's shell changes a run
RINGLAB_ENV = ("RINGLAB_MAX_CARD", "RINGLAB_MEMO_THRESHOLD", "RINGLAB_CACHE_DIR")
#: one BLAS thread: ringlab's integer arithmetic makes no BLAS calls, and
#: OpenBLAS starting a thread per CPU took 70 ms of numpy's 170 ms import,
#: a share that changed with the load on the other CPU
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: cleared for the set-up probes: bytecode is cached in the checkout
BYTECODE_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
#: fresh processes timed per run for ``setup_s``, half before and half
#: after the passes; the median is reported
SETUP_PROBES = 16
CHILD_TIMEOUT_S = 170

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ringlab, workloads
workloads.WORKLOADS[sys.argv[3]].ops(int(sys.argv[4]))
elapsed = time.perf_counter() - t0
import speed
print(elapsed, speed.slowness_now())
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment() -> dict:
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringlab").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def setup_times(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Times for fresh processes to import ringlab and generate the
    workload's operations (interpreter start-up excluded), each with the
    slowness that probes in the same process measure right after.

    The probes write and read bytecode next to the sources, whatever the
    caller's environment says, so they time the import of every run after
    the first rather than the compiler; the first probe in a fresh checkout
    compiles, and the minimum over the probes leaves it out."""
    env = {k: v for k, v in os.environ.items() if k not in BYTECODE_ENV}
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed, slowness = map(float, proc.stdout.split())
        times.append((elapsed, slowness))
    return times


def run_pass(wl, ops, tracer=None, clock=time.perf_counter):
    """One closed-loop pass: returns its (start, end) on ``clock``, the
    (start, end) of each operation, and the outputs.  An operation that
    raises is recorded and the pass goes on."""
    from workloads import Raised

    stamps, outs = [], []
    with wl.session(tracer) as state:
        start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t = clock()
            try:
                out = wl.run(op, state)
            except Exception as exc:  # a failed operation is data, not a crash
                traceback.print_exc(limit=3, file=sys.stderr)
                out = Raised(f"{op}: {type(exc).__name__}: {exc}")
            stamps.append((t, clock()))
            outs.append(out)
        end = clock()
    # rings and their cached invariants form reference cycles: free the
    # pass's tables now, not at some later collection inside a timed pass
    del state
    gc.collect()
    return (start, end), stamps, outs


def durations(stamps) -> list[float]:
    return [end - start for start, end in stamps]


def report_failures(bad) -> None:
    for _, reason in bad[:10]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    if len(bad) > 10:
        print(f"perfbench: ... {len(bad) - 10} more failures", file=sys.stderr)


def untraced(wl, seed, seconds, ref):
    from workloads import failures

    from speed import SpeedMonitor

    setup = setup_times(wl.name, seed, SETUP_PROBES // 2)
    ops = wl.ops(seed)
    pass_stamps, op_stamps, passes = [], [], []
    with SpeedMonitor() as mon:
        start = mon.clock()
        while True:
            (a, b), stamps, outs = run_pass(wl, ops, clock=mon.clock)
            pass_stamps.append((a, b))
            op_stamps += stamps
            passes.append(outs)
            if mon.clock() - start + (b - a) > seconds:
                break
    # every time is scaled to the reference speed by the probes around it
    walls = [mon.scaled(a, b) for a, b in pass_stamps]
    latencies = [mon.scaled(a, b) for a, b in op_stamps]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_times(wl.name, seed, SETUP_PROBES - len(setup))
    bad = [b for outs in passes for b in failures(wl, ops, outs, ref)]
    report_failures(bad)
    attempted = len(ops) * len(passes)
    # per-request latency exists on the request stream, pooled over the
    # passes so that the percentiles average over the machine's speed
    # swings; a fixed list is one unit of work, so there a pass is one sample
    samples = latencies if wl.name == "interactive_cli" else walls
    cuts = (
        statistics.quantiles(samples, n=100, method="inclusive")
        if len(samples) > 1 else samples * 99
    )
    metrics = {
        "setup_s": statistics.median(t / slow for t, slow in setup),
        # a median over passes, so that one pass slowed by the machine
        # moves it less
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * cuts[49],
        "op_p90_ms": 1000 * cuts[89],
        "peak_rss_mb": peak_mb,
        # not in BENCHMARK.json: zero at the seed; carried by attempted/failed
        "failed_share": len(bad) / attempted,
        "op_samples": len(samples),
        "op_samples_beyond_p90": sum(1 for x in samples if x > cuts[89]),
        "passes": len(walls),
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "setup_slowness": statistics.median(slow for _, slow in setup),
        "raw_wall_s": statistics.median(durations(pass_stamps)),
        "slowness": statistics.median(mon.slowness),
        "probes": len(mon.slowness),
    }
    return attempted, len(bad), metrics


def traced(wl, seed, seconds, ref):
    """A traced pass between untraced ones.  The untraced pass after it,
    which the traced pass is compared with, is made only when a pass is
    shorter than half of ``seconds``: on a longer pass, the extra cost of
    the process's first pass is too small to matter."""
    from tracing import Tracer
    from workloads import WORK_DIR, Raised, failures

    ops = wl.ops(seed)
    (a, b), stamps, outs = run_pass(wl, ops)
    untraced_passes = [outs]
    tracer = Tracer()
    (ta, tb), _, outs_traced = run_pass(wl, ops, tracer)
    wall_traced = tb - ta
    if b - a < seconds / 2:
        (a, b), stamps, outs = run_pass(wl, ops)
        untraced_passes.append(outs)
    wall, latencies = b - a, durations(stamps)
    checked = untraced_passes + [outs_traced]
    bad = [b for o in checked for b in failures(wl, ops, o, ref)]

    def same(op, x, y):
        if isinstance(x, Raised) or isinstance(y, Raised):
            return x == y
        return wl.norm(op, x) == wl.norm(op, y)

    bad += [
        (i, f"traced output of {op} differs from the untraced one")
        for i, op in enumerate(ops)
        if not same(op, outs_traced[i], outs[i])
    ]
    report_failures(bad)
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"# spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    metrics = tracer.summary(wall_traced)
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall
    if hasattr(wl, "cache_metrics"):
        metrics.update(wl.cache_metrics(ops, outs, latencies))
    return len(checked) * len(ops), len(bad), metrics


def result_line(declared, attempted, failed, metrics) -> dict:
    """The metrics BENCHMARK.json declares, in its order; a per-layer
    metric whose layer the workload never enters reads 0."""
    out = {}
    for m in declared:
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def print_table(metrics, declared) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(metrics):
        value = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:44s} {shown:>14s} {unit}")


def run_one(args, spec) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ringlab

    if Path(ringlab.__file__).resolve().parent != (SRC / "ringlab").resolve():
        sys.exit(f"perfbench: imported ringlab from {ringlab.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ref = json.loads((BENCH / "reference.json").read_text())[wl.name]
    print(f"# environment: {json.dumps(environment())}")
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        declared = spec["per_layer"]
        attempted, failed, metrics = traced(wl, args.seed, args.seconds, ref)
    else:
        declared = spec["end_to_end"]
        attempted, failed, metrics = untraced(wl, args.seed, args.seconds, ref)
    print_table(metrics, declared)
    print(json.dumps(result_line(declared, attempted, failed, metrics)))
    return 0


def run_every(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in RINGLAB_ENV:
        os.environ.pop(var, None)
    os.environ.update(THREAD_ENV)
    if not (SRC / "ringlab" / "__init__.py").is_file():
        print(f"perfbench: no ringlab source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_every(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
