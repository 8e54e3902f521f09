"""In-memory spans around the program's public entry points.

The program itself carries no benchmark tracing: :func:`instrument`
temporarily wraps

- ``NonlinearMultiFidelityStack.fit`` / ``LinearMultiFidelityStack.fit``
  (split on ``optimize`` into ``surrogate.refit`` / ``surrogate.commit``)
  and their ``predict_levels`` (``surrogate.predict``);
- ``eipv_mc`` and ``dominated_boxes`` as bound in
  ``repro.core.optimizer`` (``acq.eipv``, ``pareto.boxes``);
- ``HlsFlow.run`` (``hlsim.flow``);
- ``BrokerClient.submit`` / ``BrokerClient.result``
  (``fleet.submit``, ``fleet.result``),

and restores the originals on exit.  Spans are kept in memory and
written out once, as a Chrome/Perfetto JSON file, when the workload
ends.  A span's *self time* is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **args):
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), parent, name, time.perf_counter(), args=args)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def insert(self, name: str, start: float, end: float, parent: int) -> Span:
        """Add a span after the fact and adopt the spans it encloses.

        Used for decision intervals, which are only known once the next
        flow call has started: every direct child of ``parent`` lying
        inside ``[start, end]`` becomes a child of the new span.
        """
        rec = Span(len(self.spans), parent, name, start, end)
        for s in self.spans:
            if s.parent == parent and s.start >= start and s.end <= end:
                s.parent = rec.id
        self.spans.append(rec)
        return rec

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child_total: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] += s.dur
        return {s.id: s.dur - child_total[s.id] for s in self.spans}

    def within(self, ancestor_name: str) -> set[int]:
        """Ids of spans that have an ancestor called ``ancestor_name``."""
        by_id = {s.id: s for s in self.spans}
        inside = set()
        for s in self.spans:
            p = s.parent
            while p is not None:
                if by_id[p].name == ancestor_name:
                    inside.add(s.id)
                    break
                p = by_id[p].parent
        return inside

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time_by_name(self, ids: set[int] | None = None) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for s in self.spans:
            if ids is None or s.id in ids:
                totals[s.name] += selfs[s.id]
        return dict(totals)

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {"id": s.id, "parent": s.parent, **s.args},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )


@contextlib.contextmanager
def instrument(tracer: Tracer | None):
    """Wrap the program's entry points with spans; no-op for ``None``."""
    if tracer is None:
        yield
        return
    from repro.core import optimizer as optimizer_mod
    from repro.core.multifidelity import (
        LinearMultiFidelityStack,
        NonlinearMultiFidelityStack,
    )
    from repro.fleet.client import BrokerClient
    from repro.hlsim.flow import HlsFlow

    originals: list[tuple[object, str, object, bool]] = []

    def patch(owner, attr, wrap):
        orig = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, functools.wraps(orig)(wrap(orig)))
        originals.append((owner, attr, orig, own))

    def fit(orig):
        def wrapper(self, datasets, *args, **kwargs):
            optimize = kwargs.get("optimize", args[0] if args else True)
            name = "surrogate.refit" if optimize else "surrogate.commit"
            with tracer.span(name):
                return orig(self, datasets, *args, **kwargs)
        return wrapper

    def predict_levels(orig):
        def wrapper(self, levels, Xs):
            rows = len(Xs) * len(set(int(lv) for lv in levels))
            with tracer.span("surrogate.predict", rows=rows):
                return orig(self, levels, Xs)
        return wrapper

    def eipv_mc(orig):
        def wrapper(means, covs, front, ref, *args, **kwargs):
            n = len(means)
            samples = kwargs.get("n_samples", 64)
            boxes = kwargs.get("boxes")
            n_boxes = 0 if boxes is None else len(boxes)
            with tracer.span(
                "acq.eipv", box_sample_products=n * samples * n_boxes
            ):
                return orig(means, covs, front, ref, *args, **kwargs)
        return wrapper

    def dominated_boxes(orig):
        def wrapper(*args, **kwargs):
            with tracer.span("pareto.boxes") as rec:
                boxes = orig(*args, **kwargs)
                rec.args["boxes"] = len(boxes)
                return boxes
        return wrapper

    def flow_run(orig):
        def wrapper(self, *args, **kwargs):
            with tracer.span("hlsim.flow"):
                return orig(self, *args, **kwargs)
        return wrapper

    def submit(orig):
        def wrapper(self, *args, **kwargs):
            with tracer.span("fleet.submit"):
                return orig(self, *args, **kwargs)
        return wrapper

    def result(orig):
        def wrapper(self, *args, **kwargs):
            with tracer.span("fleet.result") as rec:
                state, payload = orig(self, *args, **kwargs)
                rec.args["hit"] = payload is not None
                return state, payload
        return wrapper

    try:
        for cls in (NonlinearMultiFidelityStack, LinearMultiFidelityStack):
            patch(cls, "fit", fit)
            patch(cls, "predict_levels", predict_levels)
        patch(optimizer_mod, "eipv_mc", eipv_mc)
        patch(optimizer_mod, "dominated_boxes", dominated_boxes)
        patch(HlsFlow, "run", flow_run)
        patch(BrokerClient, "submit", submit)
        patch(BrokerClient, "result", result)
        yield
    finally:
        for owner, attr, orig, own in reversed(originals):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
