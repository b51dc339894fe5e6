"""Spans recorded around calls into ringlab's layers, kept in memory.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that caused it and the id of the operation it belongs
to.  Every span is opened by the benchmark's own code around a call into a
layer's function, installed with ``patched``; the library itself carries no
tracing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.op)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_memoize(self, maybe_memoize):
        """``maybe_memoize`` recorded as ``core.memoize``, counting the
        tables it builds and their size as computed from the table layout
        (two int32 card x card tables plus one int32 negation row)."""

        def traced(ring, *args, **kwargs):
            with self.span("core.memoize"):
                out = maybe_memoize(ring, *args, **kwargs)
            if out is not ring:
                n = ring.card
                self.count("core.tables_built")
                self.count("core.table_bytes", 8 * n * n + 4 * n)
            return out

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        ``<span>_s`` is the summed self time (duration minus the part
        covered by child spans) of the spans of that name, so a nested call
        of the same name is not counted twice.  ``structure.predicates_s``
        and ``decompositions.flags_s`` add up the self time of the spans
        beneath them (``structure.pred.rest_s`` is the predicate pass's own
        part), ``verify.ring_s`` is the full duration of the outermost
        ``verify.ring`` spans, ``self.<layer>_s`` the self time of every
        span whose name starts with ``<layer>.``, and
        ``trace.unattributed_s`` the part of ``wall`` that no span covers.
        """
        dur = [s.end - s.start for s in self.spans]
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                own[s.parent] -= dur[i]
        out: dict[str, float] = {}
        layers: dict[str, float] = {}
        ring_s = 0.0
        for i, s in enumerate(self.spans):
            key = f"{s.name}_s"
            out[key] = out.get(key, 0.0) + own[i]
            layer = s.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own[i]
            # pair_ring calls ring for its factors: count only the outermost
            if s.name == "verify.ring" and (
                s.parent is None or self.spans[s.parent].name != "verify.ring"
            ):
                ring_s += dur[i]
        out["structure.pred.rest_s"] = out.pop("structure.predicates_s", 0.0)
        out["structure.predicates_s"] = sum(
            t for k, t in out.items() if k.startswith("structure.pred.")
        )
        out["decompositions.flags_s"] = sum(
            t for k, t in out.items() if k.startswith("decompositions.flag.")
        )
        out["verify.ring_s"] = ring_s
        out.update({f"self.{layer}_s": t for layer, t in layers.items()})
        out.update(self.counts)
        roots = sum(d for d, s in zip(dur, self.spans) if s.parent is None)
        out["trace.unattributed_s"] = wall - roots
        out["trace.spans"] = len(self.spans)
        return out


@contextmanager
def patched(target, **replacements):
    """Rebind attributes of a module or class, or items of a dict, for the
    duration of the block."""
    if isinstance(target, dict):
        get, put = target.__getitem__, target.__setitem__
    else:
        get, put = partial(getattr, target), partial(setattr, target)
    saved = {name: get(name) for name in replacements}
    for name, value in replacements.items():
        put(name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            put(name, value)
