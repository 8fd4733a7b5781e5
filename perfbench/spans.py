"""Spans around calls into submine's layers, recorded from outside.

``Tracer.install`` replaces module and class attributes of submine with
timing wrappers in this process only and ``Tracer.remove`` puts the
originals back; nothing under ``src/`` knows it is traced.  A span is
(id, name, start, end, parent, query).  Spans are kept in memory and
written out when the run ends.

Layers called once per propagation, per mask or per pair run up to a
hundred thousand times a batch, so their spans are folded: one record per
(parent span, layer) holding the call count, the summed duration and the
first start and last end.  Self time is exact either way: each span's duration is charged
to its parent as child time, and a layer's self time is its duration minus
its children's.  The self times of all spans under a root add up to the
root's duration.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

from submine import closedpattern, constraints, dataset, engine, queries, reference

_clock = time.perf_counter

# metric -> the span names whose self time it sums
SELF_TIME_METRICS = {
    "dataset.parse_s": ("dataset.parse_fimi", "dataset.parse_partition"),
    "queries.parse_s": ("queries.parse_query", "queries.build_query"),
    "queries.assemble_s": ("queries.assemble",),
    "engine.search_s": ("engine.search_all",),
    "closedpattern.propagate_s": ("closedpattern.propagate",),
    "constraints.propagate_s": ("constraints.propagate",),
    "reference.enumerate_s": ("reference.enumerate",),
    "reference.mine_s": ("reference.mine",),
    "reference.pp_mine_self_s": ("reference.pp_mine",),
    "queries.make_pair_s": ("queries.make_pair",),
    "queries.validate_s": ("queries.validate_pair",),
    "queries.run_theory_self_s": ("queries.run_theory",),
    "queries.tsv_s": ("cli.write",),
    # the root spans' own time: the benchmark's glue around each call
    "bench.remainder_s": ("bench.setup", "bench.query"),
}

FOLDED = frozenset(
    {
        "closedpattern.propagate",
        "constraints.propagate",
        "reference.enumerate",
        "reference.mine",
        "queries.make_pair",
        "queries.validate_pair",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.query = ""  # id of the query the next spans belong to
        self.spans: list[tuple] = []
        self.folded: dict[tuple[int, str], list] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, _clock(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = _clock()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        pid = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            pid = parent[0]
        if name in FOLDED:
            rec = self.folded.get((pid, name))
            if rec is None:
                self.folded[(pid, name)] = [1, dur, start, end, self.query]
            else:
                rec[0] += 1
                rec[1] += dur
                rec[3] = end
        else:
            self.spans.append((sid, name, start, end, pid, self.query))

    def root_seconds(self) -> float:
        return sum(end - start for _, _, start, end, parent, _ in self.spans
                   if parent == 0)

    def metrics(self) -> dict[str, float]:
        """Self time per layer metric.  Every span name maps to one metric,
        so the metrics add up to the root spans' time."""
        out = {m: sum(self.self_s.get(n, 0.0) for n in names)
               for m, names in SELF_TIME_METRICS.items()}
        known = {n for names in SELF_TIME_METRICS.values() for n in names}
        stray = set(self.self_s) - known
        if stray:
            raise RuntimeError(f"spans without a metric: {sorted(stray)}")
        if abs(sum(out.values()) - self.root_seconds()) > 1e-6:
            raise RuntimeError("self times do not add up to the root spans")
        return out

    def record(self, origin: float) -> dict:
        """Spans and folded spans as plain data, times relative to origin."""
        return {
            "spans": [
                {"id": s, "name": n, "start": a - origin, "end": b - origin,
                 "parent": p, "query": q}
                for s, n, a, b, p, q in self.spans
            ],
            "folded": [
                {"parent": p, "name": n, "calls": c, "total_s": t,
                 "first_start": a - origin, "last_end": b - origin, "query": q}
                for (p, n), (c, t, a, b, q) in self.folded.items()
            ],
        }

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str,
               after: Callable | None = None) -> None:
        original = getattr(owner, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end()
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        count = self.counts

        def propagator(layer):
            def after(args, ok):
                count[f"{layer}.calls"] += 1
                if not ok:
                    count[f"{layer}.fails"] += 1
            return after

        def searched(args, _):
            stats = args[0].stats
            count["engine.nodes"] += stats["nodes"]
            count["engine.masks_reached"] += stats["masks_reached"]

        def mined(args, patterns):
            count["reference.mine_calls"] += 1
            if patterns:
                count["reference.productive_masks"] += 1

        def made(args, pair):
            count["queries.make_pair_calls"] += 1

        p = self._patch
        p(dataset, "parse_fimi", "dataset.parse_fimi")
        p(dataset, "parse_partition", "dataset.parse_partition")
        p(queries, "parse_query", "queries.parse_query")
        p(queries, "build_query", "queries.build_query")
        p(queries, "run_theory", "queries.run_theory")
        p(queries, "assemble", "queries.assemble")
        p(queries, "validate_pair", "queries.validate_pair")
        # run_theory decodes cp solutions through queries.make_pair and
        # pp_mine through the name it imported into reference
        p(queries, "make_pair", "queries.make_pair", made)
        p(reference, "make_pair", "queries.make_pair", made)
        p(reference, "pp_mine", "reference.pp_mine")
        p(reference, "mine_closed", "reference.mine", mined)
        p(reference, "mine_frequent", "reference.mine", mined)
        p(engine.Solver, "search_all", "engine.search_all", searched)
        p(closedpattern.ClosedPatternSub, "propagate", "closedpattern.propagate",
          propagator("closedpattern"))
        for cls in vars(constraints).values():
            if (isinstance(cls, type) and cls.__module__ == constraints.__name__
                    and issubclass(cls, engine.Propagator)):
                p(cls, "propagate", "constraints.propagate", propagator("constraints"))
        self._patch_mask_iteration()

    def _patch_mask_iteration(self) -> None:
        """MaskEnumerator is lazy: each step of its iterator is a span."""
        original = reference.MaskEnumerator.__iter__
        begin, end, count = self.begin, self.end, self.counts

        def traced_iter(enum):
            it = original(enum)
            while True:
                begin("reference.enumerate")
                try:
                    mask = next(it)
                except StopIteration:
                    return
                finally:
                    end()
                count["reference.masks_enumerated"] += 1
                yield mask

        self._patches.append((reference.MaskEnumerator, "__iter__", original))
        reference.MaskEnumerator.__iter__ = traced_iter

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
