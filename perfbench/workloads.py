"""The four benchmark workloads.

Each workload is a fixed list of operations run by one closed-loop client
in one process, with ``threads=1`` and default settings.  A workload
provides:

* ``ops(seed)``: the operations; only ``interactive_cli`` uses the seed;
* ``session(tracer)``: per-pass state (a fresh harness context or cache
  directory), and with a tracer the patches that record its spans;
* ``run(op, state)``: one operation, returning its output.  The traced pass
  runs the same code as the untraced one: spans come from the patches;
* ``key(op)`` and ``norm(op, out)``: the reference record is
  ``{key: norm}``, where ``norm`` is the part of an output that must not
  change (a classify payload without its ``timings``);
* ``problems(op, out)``: what is wrong with an output whatever the
  reference says, and ``unrecorded(op, out)``: the check of an operation the
  reference does not hold, or ``None`` when there is none.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import tempfile
from pathlib import Path

from ringlab import cli, dsl, structure, verify
from ringlab import decompositions as dec

from oracle import ElementOracle
from tracing import patched

DEFAULT_SEED = 0
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench-work"

#: the five structural scans timed one by one; the rest of
#: ``structural_predicates`` is reported as ``structure.pred.rest_s``
PREDICATE_SCANS = (
    "is_commutative",
    "is_regular",
    "is_strongly_regular",
    "is_semipotent",
    "is_strongly_pi_regular",
)

#: span name -> (the ``RingData`` member that computes an invariant, the
#: field that caches it); a span is recorded only for the first computation
INVARIANTS = {
    "structure.units": ("_orbit_status", "_status"),
    "structure.idempotents": ("idem_mask", "_idem_mask"),
    "structure.jacobson": ("jacobson_mask", "_jac_mask"),
    "structure.center": ("center_mask", "_center_mask"),
}


class Raised:
    """Output of an operation that raised or exited nonzero."""

    def __init__(self, message: str) -> None:
        self.message = message

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.message == self.message

    def __repr__(self) -> str:
        return f"Raised({self.message!r})"


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"ringlab {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def without_timings(stdout: str) -> dict:
    payload = json.loads(stdout)
    payload.pop("timings")
    return payload


# ---------------------------------------------------------------------------
# spans around the layers' calls, installed by patching for a traced pass


def _first_computation(tracer, name: str, member: str, field: str):
    original = vars(structure.RingData)[member]
    compute = original.fget if isinstance(original, property) else original

    def traced(data):
        if getattr(data, field) is not None:
            return compute(data)
        with tracer.span(name):
            return compute(data)

    return property(traced) if isinstance(original, property) else traced


@contextlib.contextmanager
def layer_spans(tracer):
    """Spans around the calls that ``cli.main`` and the decomposition layer
    make into each layer, wherever they are called from."""
    compute = dec.RingAnalysis._compute

    def flag_span(analysis, name):
        with tracer.span(f"decompositions.flag.{name}"):
            return compute(analysis, name)

    parse = tracer.wrap(dsl.parse, "dsl.parse")
    build = tracer.wrap(dsl.build, "dsl.build")
    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        enter(patched(dsl, parse=parse, build=build))
        enter(patched(
            cli,
            main=tracer.wrap(cli.main, "cli.main"),
            parse=parse,
            canonical=tracer.wrap(cli.canonical, "dsl.parse"),
            build=build,
            maybe_memoize=tracer.wrap_memoize(cli.maybe_memoize),
            is_nilpotent=tracer.wrap(cli.is_nilpotent, "core.is_nilpotent"),
        ))
        enter(patched(
            structure,
            mod_j=tracer.wrap(structure.mod_j, "structure.mod_j"),
            wedderburn_fingerprint=tracer.wrap(
                structure.wedderburn_fingerprint, "structure.fingerprint"
            ),
            **{n: tracer.wrap(getattr(structure, n), f"structure.pred.{n}") for n in PREDICATE_SCANS},
        ))
        enter(patched(
            structure.RingData,
            **{m: _first_computation(tracer, name, m, f) for name, (m, f) in INVARIANTS.items()},
        ))
        enter(patched(
            dec,
            structural_predicates=tracer.wrap(dec.structural_predicates, "structure.predicates"),
        ))
        enter(patched(dec.RingAnalysis, _compute=flag_span))
        enter(patched(
            dec.ELEMENT_PREDICATES,
            **{k: tracer.wrap(p, "decompositions.element") for k, p in dec.ELEMENT_PREDICATES.items()},
        ))
        yield


# ---------------------------------------------------------------------------
# workloads


class Workload:
    def ops(self, seed: int) -> list:
        raise NotImplementedError

    @contextlib.contextmanager
    def session(self, tracer):
        if tracer is None:
            yield None
            return
        with layer_spans(tracer):
            yield None

    def key(self, op) -> str:
        return str(op)

    def norm(self, op, out):
        return out

    def problems(self, op, out) -> list[str]:
        return []

    def unrecorded(self, op, out) -> list[str] | None:
        return None


class ClassifyLadder(Workload):
    """``ringlab classify EXPR --json`` without a cache over a ladder on both
    sides of the 2048 operation-table threshold."""

    name = "classify_ladder"
    RUNGS = (
        "M(3,Z(2))",
        "M(2,Z(6))",
        "M(2,GF(2,2)) x Z(4)",
        "T(2,Z(8))",
        "TE(Z(27))",
        "GR(Z(2),C(2) x C(2) x C(2))",
        "M(2,Z(7))",
    )

    def ops(self, seed: int) -> list:
        return list(self.RUNGS)

    def run(self, expr, state) -> str:
        return run_cli(["classify", expr, "--json"])

    def norm(self, expr, out):
        return without_timings(out)


class TracedContext(verify.VerifyContext):
    """A harness context whose ``ring`` and ``pair_ring`` calls are spans,
    so that a check's own span keeps only its own work: the first check to
    request a ring pays for building it, inside ``verify.ring``."""

    def __init__(self, tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def ring(self, text):
        with self.tracer.span("verify.ring"):
            return super().ring(text)

    def pair_ring(self, a, b):
        with self.tracer.span("verify.ring"):
            return super().pair_ring(a, b)


class VerifyHarness(Workload):
    """``verify.run_all()`` with defaults: every check in its sorted order
    against one shared context."""

    name = "verify_harness"

    def ops(self, seed: int) -> list:
        return sorted(verify.CHECKS)

    @contextlib.contextmanager
    def session(self, tracer):
        if tracer is None:
            yield verify.VerifyContext()
            return
        ctx = TracedContext(tracer)
        check = verify.run_check

        def check_span(check_id, **kwargs):
            with tracer.span(f"verify.check.{check_id}"):
                return check(check_id, **kwargs)

        with patched(
            verify,
            run_check=check_span,
            parse=tracer.wrap(verify.parse, "dsl.parse"),
            canonical=tracer.wrap(verify.canonical, "dsl.parse"),
            build=tracer.wrap(verify.build, "dsl.build"),
            maybe_memoize=tracer.wrap_memoize(verify.maybe_memoize),
        ):
            yield ctx
        tracer.count("verify.rings_built", len(ctx._rings))

    def run(self, check_id, ctx) -> dict:
        result = verify.run_check(check_id, ctx=ctx)
        return {"status": result.status, "details": result.details}

    def problems(self, check_id, out) -> list[str]:
        return [] if out["status"] == "pass" else [f"status {out['status']}"]

    def unrecorded(self, check_id, out) -> list[str]:
        return []  # a check added after the seed commit has no reference yet


class FlagsLarge(Workload):
    """``ring_flag`` and ``flag_counterexample`` for the 14 report flags on
    rings above the table threshold: no tables, no structural predicates."""

    name = "flags_large"
    RINGS = (
        "T(3,Z(4)) x Z(8)",
        "M(2,Z(5)) x Z(64)",
        "M(2,Z(3)) x T(2,Z(4))",
        "M(2,Z(9))",
    )

    def ops(self, seed: int) -> list:
        return [(expr, name) for expr in self.RINGS for name in dec.REPORT_FLAGS]

    @contextlib.contextmanager
    def session(self, tracer):
        with super().session(tracer):
            yield {}  # the rings built in this pass

    def run(self, op, rings) -> list:
        expr, name = op
        ring = rings.get(expr)
        if ring is None:
            ring = rings[expr] = dsl.build(dsl.parse(expr))
        return [dec.ring_flag(ring, name), dec.flag_counterexample(ring, name)]

    def key(self, op) -> str:
        return f"{op[0]}#{op[1]}"


class InteractiveCli(Workload):
    """A seeded stream of ``element`` and cached ``classify`` requests sent
    through ``cli.main`` one at a time."""

    name = "interactive_cli"
    #: rings for element requests: card, requests.  All but the last are
    #: table rings.  The mix puts the p50 inside the 1-4 ms group of cache
    #: hits and the three smallest rings, and the p90 inside the group that
    #: builds a 216- or 256-element table; the computed product above the
    #: threshold is among the top 10 requests
    ELEMENT_RINGS = {
        "Z(12)": (12, 12),
        "GF(3,2)": (9, 12),
        "M(2,Z(2))": (16, 15),
        "M(2,Z(3))": (81, 5),
        "T(2,Z(3))": (27, 5),
        "FM(2,2,Z(4))": (256, 10),
        "T(2,Z(6))": (216, 11),
        "M(2,Z(5)) x Z(64)": (40000, 5),
    }
    #: the harness catalog at the seed commit, frozen so that a change to
    #: the catalog does not change the stream
    CATALOG_RINGS = (
        "M(2,Z(2))",
        "Z(3)",
        "Z(6)",
        "Z(5)",
        "M(2,Z(6))",
        "M(2,Z(2)) x M(2,Z(2))",
        "M(2,Z(3))",
        "Z(3) x Z(3)",
        "Z(6) x Z(6)",
        "T(2,Z(3))",
        "T(2,Z(6))",
        "Z(2)",
        "Z(4)",
        "Z(8)",
        "Z(9)",
        "Z(12)",
        "GF(2,2)",
        "GF(3,2)",
        "TE(Z(2))",
        "TE(Z(3))",
        "PQ(Z(2),[0,0,1])",
        "GR(Z(2),C(2))",
        "GR(Z(2),C(3))",
        "GR(Z(3),C(3))",
        "GR(Z(4),C(2))",
        "FM(2,2,Z(4))",
    )
    CLASSIFY_REQUESTS = 75

    def __init__(self) -> None:
        self._oracles: dict[str, ElementOracle] = {}

    def ops(self, seed: int) -> list:
        rng = random.Random(seed)
        requests = [
            ("element", expr, rng.randrange(card))
            for expr, (card, n) in self.ELEMENT_RINGS.items()
            for _ in range(n)
        ]
        catalog = self.CATALOG_RINGS
        # every catalog ring at least once, so the set of misses is fixed
        requests += [("classify", expr) for expr in catalog]
        requests += [
            ("classify", rng.choice(catalog))
            for _ in range(self.CLASSIFY_REQUESTS - len(catalog))
        ]
        rng.shuffle(requests)
        return requests

    @contextlib.contextmanager
    def session(self, tracer):
        WORK_DIR.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        try:
            with super().session(tracer):
                yield cache_dir
        finally:
            shutil.rmtree(cache_dir)

    def run(self, op, cache_dir) -> str:
        if op[0] == "classify":
            return run_cli(["classify", op[1], "--json", "--cache-dir", cache_dir])
        return run_cli(["element", op[1], str(op[2]), "--json"])

    def key(self, op) -> str:
        return " ".join(map(str, op))

    def norm(self, op, out):
        return without_timings(out) if op[0] == "classify" else json.loads(out)

    def unrecorded(self, op, out) -> list[str] | None:
        """Element requests of other seeds are checked by the oracle."""
        if op[0] != "element":
            return None
        if op[1] not in self._oracles:
            self._oracles[op[1]] = ElementOracle(dsl.build(op[1]))
        return self._oracles[op[1]].problems(json.loads(out))

    def cache_metrics(self, ops, outs, latencies) -> dict:
        """Per-request-type medians and cache counts.  A repeat counts as a
        hit only when its stdout is byte-identical to the ring's first
        reply; anything else, the first request included, is a miss."""
        first: dict[str, str] = {}
        hit, miss, element = [], [], []
        for op, out, dt in zip(ops, outs, latencies):
            if op[0] == "element":
                element.append(dt)
            elif op[1] in first and out == first[op[1]]:
                hit.append(dt)
            else:
                first.setdefault(op[1], out)
                miss.append(dt)

        def median_ms(xs):
            return 1000 * statistics.median(xs) if xs else 0.0

        return {
            "cli.classify_miss_ms": median_ms(miss),
            "cli.classify_hit_ms": median_ms(hit),
            "cli.element_ms": median_ms(element),
            "cli.cache_hits": len(hit),
            "cli.cache_misses": len(miss),
        }


WORKLOADS = {
    w.name: w for w in (ClassifyLadder(), VerifyHarness(), FlagsLarge(), InteractiveCli())
}


def failures(wl, ops, outs, ref) -> list[tuple[int, str]]:
    """Every failed operation of one pass: it raised, its output has a
    problem, it differs from the reference, or, without a reference, the
    workload's own check finds a problem (or the workload has none)."""
    bad = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Raised):
            bad.append((i, out.message))
            continue
        problems = wl.problems(op, out)
        key = wl.key(op)
        if key in ref:
            if wl.norm(op, out) != ref[key]:
                problems.append("output differs from the reference")
        else:
            extra = wl.unrecorded(op, out)
            problems += ["no reference output"] if extra is None else extra
        if problems:
            bad.append((i, f"{op}: {'; '.join(problems)}"))
    return bad
