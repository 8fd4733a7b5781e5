"""Query-batch benchmark for submine's ``cp`` and ``baseline`` engines.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One client sends a workload's batch of queries in a closed loop: each query
starts after the last one returned, and the batch repeats until ``--seconds``
have passed.  Every query follows the ``submine mine`` path: parse the FIMI,
partition and query text, ``run_theory``, render the TSV.  Every query runs
on both engines; their TSVs must match byte for byte, and on the default
seed they must match the digests in ``golden.json``.  An exception, a
timeout or a mismatch fails the query.

Times are reference-speed seconds.  On a shared host the speed of one core
drifts by a third and more over tens of seconds, the same for wall and CPU
time.  So two fixed pure-Python kernels that touch no submine code are
timed before and after each engine's answers to a query, and those samples
are scaled by the mean of the speed factors around them (``calibrate``): a
figure reads as the wall time on a core that runs the kernels in
``CAL_REF_S``.  The summary also prints plain wall medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced, traced and ``workers=2`` passes and prints the per-layer metrics;
its spans and the generated input files go to
``perfbench/out/<workload>-seed<n>/``.  The last line of the output is one JSON
object; the exit code is 1 when any query failed.  ``--workload all`` runs
every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
ENGINES = ("cp", "baseline")
QUERY_TIMEOUT_S = 60.0
# the batch's files are parsed this many times per pass; parsing takes
# milliseconds, so one parse per pass gives too few samples for a median
SETUP_REPEATS = 10
PARALLEL_WORKERS = 2
# runs per query and pass in the untraced loop: baseline answers five to ten
# times faster than cp on every workload, so it runs thrice for samples
REPEATS = {"cp": 1, "baseline": 3}
CAL_REF_S = (0.022, 0.021)  # the two calibration kernels on the reference core

END_TO_END = {
    "cp.batch_s": "s",
    "baseline.batch_s": "s",
    "cp.query_p50_s": "s",
    "baseline.query_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_submine():
    """Import submine from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import submine
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import submine from {SRC}: {exc}")
    if Path(submine.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: submine imported from {submine.__file__}, not {SRC}")


_import_submine()

from submine import dataset, queries  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

_clock = time.perf_counter


_cal_rng = random.Random(20240)
_CAL_ROWS = [_cal_rng.getrandbits(40) & _cal_rng.getrandbits(40) | _cal_rng.getrandbits(40)
             for _ in range(120)]
_CAL_COLS = [sum(1 << j for j, r in enumerate(_CAL_ROWS) if r >> i & 1)
             for i in range(40)]


def _cal_loop() -> None:
    acc = 0
    for i in range(250_000):
        acc += i * i & 7


def _cal_dfs() -> None:
    """Frequent itemsets of a fixed 120x40 table, in the miners' style."""
    found = []

    def grow(pat: int, cov: int, last: int) -> None:
        found.append(pat)
        cand = ((1 << 40) - 1) & ~pat & ~((1 << (last + 1)) - 1)
        while cand:
            low = cand & -cand
            cand ^= low
            e = low.bit_length() - 1
            cov_e = cov & _CAL_COLS[e]
            if cov_e.bit_count() >= 28:
                grow(pat | low, cov_e, e)

    grow(0, (1 << 120) - 1, -1)


def calibrate() -> float:
    """Speed factor of the current core: the geometric mean over both
    kernels of reference seconds per measured second.  An integer loop
    alone tracks the drift of the miners only in part."""
    factor = 1.0
    for kernel, ref in zip((_cal_loop, _cal_dfs), CAL_REF_S):
        started = _clock()
        kernel()
        factor *= ref / (_clock() - started)
    return factor ** 0.5


@dataclass
class PassResult:
    # reference-speed seconds, one per parse of the whole batch
    setup_s: list[float] = field(default_factory=list)
    # engine -> (query index, seconds) per answer, at reference speed and wall
    latency: dict[str, list[tuple[int, float]]] = field(
        default_factory=lambda: {e: [] for e in ENGINES}
    )
    wall: dict[str, list[tuple[int, float]]] = field(
        default_factory=lambda: {e: [] for e in ENGINES}
    )
    calibrations: list[float] = field(default_factory=list)  # speed factors
    digests: list[str | None] = field(default_factory=list)  # per query
    attempted: int = 0
    failed: int = 0
    pairs: int = 0

    def speed(self) -> float:
        """Factor from wall to reference-speed seconds over the pass."""
        return statistics.median(self.calibrations)

    def _scale(self) -> float:
        """Factor for the samples between the last two calibrations."""
        return (self.calibrations[-2] + self.calibrations[-1]) / 2

    def total(self, engine: str) -> float:
        return sum(t for _, t in self.latency[engine])


def _load(job: Job):
    """Parse one call's files as ``submine mine`` does on every call."""
    db = dataset.parse_fimi(job.fimi)
    item_scheme = trans_scheme = None
    if job.item_cats:
        item_scheme = dataset.parse_partition(job.item_cats, db, "items")
    if job.trans_cats:
        trans_scheme = dataset.parse_partition(job.trans_cats, db, "transactions")
    query = queries.build_query(
        queries.parse_query(job.query), db, item_scheme, trans_scheme
    )
    return db, item_scheme, trans_scheme, query


def _answer(loaded, engine: str, tracer, workers: int, stats) -> str:
    db, item_scheme, trans_scheme, query = loaded
    pairs = queries.run_theory(
        db,
        query,
        item_scheme,
        trans_scheme,
        engine=engine,
        workers=workers,
        deadline=time.monotonic() + QUERY_TIMEOUT_S,
        stats=stats,
    )
    if tracer is not None:
        tracer.begin("cli.write")
    try:
        return "".join(p.tsv() + "\n" for p in pairs)
    finally:
        if tracer is not None:
            tracer.end()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(
    batch: tuple[Job, ...],
    golden: list[str] | None,
    pass_no: int,
    tracer: spans.Tracer | None = None,
    engines=ENGINES,
    workers: int = 1,
    setup_repeats: int = 1,
    repeats: dict[str, int] | None = None,
    stats: dict | None = None,
) -> PassResult:
    """Answer the batch on each engine, ``repeats[engine]`` times a query
    (default once), checking every output.

    With a tracer, the parse and each answer are root spans; the
    calibration loops and the output checks run between them.
    """
    repeats = repeats or {}
    res = PassResult()
    n = len(batch)
    gc.collect()

    def root(name: str, query: str):
        if tracer is not None:
            tracer.query = query
            tracer.begin(name)

    def close():
        if tracer is not None:
            tracer.end()

    res.calibrations.append(calibrate())
    walls = []
    for _ in range(setup_repeats):
        root("bench.setup", "setup")
        started = _clock()
        try:
            loaded = [_load(job) for job in batch]
        except Exception:
            traceback.print_exc()
            res.attempted = res.failed = n
            return res
        finally:
            close()
        walls.append(_clock() - started)
    res.calibrations.append(calibrate())
    res.setup_s = [w * res._scale() for w in walls]

    for qi in range(n):
        res.attempted += 1
        # alternate which engine runs first, so neither always runs warm
        order = engines if (pass_no + qi) % 2 == 0 else engines[::-1]
        texts: set[str] = set()
        ok = True
        for engine in order:
            walls = []
            for _ in range(repeats.get(engine, 1)):
                root("bench.query", f"q{qi}:{engine}")
                started = _clock()
                try:
                    texts.add(_answer(
                        loaded[qi], engine, tracer, workers,
                        None if stats is None else stats.setdefault(engine, {}),
                    ))
                except Exception:
                    print(f"perfbench: query {qi} failed on {engine}", file=sys.stderr)
                    traceback.print_exc()
                    ok = False
                    break
                finally:
                    close()
                walls.append(_clock() - started)
            res.calibrations.append(calibrate())
            res.wall[engine] += [(qi, w) for w in walls]
            res.latency[engine] += [(qi, w * res._scale()) for w in walls]
        ok = ok and len(texts) == 1
        text = texts.pop() if ok else ""
        res.digests.append(_digest(text) if ok else None)
        if ok and golden is not None:
            ok = res.digests[qi] == golden[qi]
        if ok:
            res.pairs += text.count("\n")
        else:
            res.failed += 1
            print(f"perfbench: query {qi} output mismatch", file=sys.stderr)
    return res


def golden_digests(workload: str, seed: int) -> list[str] | None:
    """The stored output digests, which exist for the default seed only."""
    with open(GOLDEN, encoding="utf-8") as fh:
        doc = json.load(fh)
    if seed != doc["seed"]:
        return None
    return doc["digests"][workload]


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(batch, golden, seconds: float):
    """End-to-end metrics: medians over the passes of a closed loop."""
    passes = []
    started = _clock()
    while not passes or _clock() - started < seconds:
        passes.append(run_pass(batch, golden, len(passes),
                               setup_repeats=SETUP_REPEATS, repeats=REPEATS))
    metrics, samples, wall = {}, {}, {}
    for engine in ENGINES:
        for out, times in ((metrics, "latency"), (wall, "wall")):
            per_query = defaultdict(list)
            for p in passes:
                for qi, t in getattr(p, times)[engine]:
                    per_query[qi].append(t)
            # the batch's time is the sum of its queries' medians
            out[f"{engine}.batch_s"] = sum(_median(ts) for ts in per_query.values())
            out[f"{engine}.query_p50_s"] = _median(
                [t for ts in per_query.values() for t in ts]
            )
        samples[f"{engine}.batch_s"] = len(passes)
        samples[f"{engine}.query_p50_s"] = sum(len(p.latency[engine]) for p in passes)
    setup = [x for p in passes for x in p.setup_s]
    metrics["setup_s"] = _median(setup)
    samples["setup_s"] = len(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mb"] = 1
    return metrics, END_TO_END, samples, wall, passes


PER_LAYER = {
    **{m: "s" for m in spans.SELF_TIME_METRICS},
    "trace.batch_s": "s",
    "trace.cp_overhead": "ratio",
    "trace.baseline_overhead": "ratio",
    "queries.serial_s": "s",
    "queries.parallel_w2_s": "s",
    "engine.nodes": "count",
    "engine.masks_reached": "count",
    "closedpattern.calls": "count",
    "closedpattern.fail_ratio": "ratio",
    "constraints.calls": "count",
    "constraints.fails": "count",
    "reference.masks_enumerated": "count",
    "reference.masks_stat": "count",
    "reference.mine_calls": "count",
    "reference.productive_ratio": "ratio",
    "queries.make_pair_calls": "count",
    "pairs": "count",
}


def counters(tracer: spans.Tracer, stats: dict, pairs: int) -> dict[str, float]:
    """Work counters of one traced pass; they repeat exactly for a seed."""
    c = tracer.counts
    out = {
        name: c[name]
        for name in (
            "engine.nodes",
            "engine.masks_reached",
            "closedpattern.calls",
            "constraints.calls",
            "constraints.fails",
            "reference.masks_enumerated",
            "reference.mine_calls",
            "queries.make_pair_calls",
        )
    }
    out["closedpattern.fail_ratio"] = c["closedpattern.fails"] / max(
        1, c["closedpattern.calls"]
    )
    # masks with at least one pair over masks mined
    out["reference.productive_ratio"] = c["reference.productive_masks"] / max(
        1, c["reference.mine_calls"]
    )
    out["reference.masks_stat"] = stats.get("baseline", {}).get("masks", 0)
    out["pairs"] = pairs
    return out


def traced_pass(batch, golden, pass_no: int):
    """One pass with every layer wrapped; returns the pass, its tracer and
    its counters."""
    tracer = spans.Tracer()
    stats: dict = {}
    try:
        tracer.install()
        res = run_pass(batch, golden, pass_no, tracer=tracer, stats=stats)
    finally:
        tracer.remove()
    return res, tracer, counters(tracer, stats, res.pairs)


def measure_traced(batch, golden, seconds: float):
    """Per-layer metrics: untraced, traced and parallel passes in turn."""
    origin = _clock()
    passes, records, rows = [], [], []
    first = None
    while not rows or _clock() - origin < seconds:
        k = len(rows)
        plain = run_pass(batch, golden, k)
        traced, tracer, now = traced_pass(batch, golden, k)
        parallel = run_pass(
            batch, golden, k, engines=("baseline",), workers=PARALLEL_WORKERS
        )
        passes += [plain, traced, parallel]
        records.append(tracer.record(origin))

        speed = traced.speed()
        row = {m: t * speed for m, t in tracer.metrics().items()}
        row["trace.batch_s"] = tracer.root_seconds() * speed
        for engine in ENGINES:
            row[f"trace.{engine}_overhead"] = traced.total(engine) / plain.total(engine)
        row["queries.serial_s"] = plain.total("baseline")
        row["queries.parallel_w2_s"] = parallel.total("baseline")
        rows.append(row)
        if first is None:
            first = now
        elif now != first:
            traced.failed += 1
            print(f"perfbench: counters changed: {first} -> {now}", file=sys.stderr)

    metrics = {m: _median([r[m] for r in rows]) for m in rows[0]}
    metrics.update(first)
    samples = {m: len(rows) for m in metrics}
    return metrics, PER_LAYER, samples, records, passes


def _write_batch(batch: tuple[Job, ...], out: Path) -> None:
    """The batch as files, so that ``submine mine`` can replay any call."""
    for qi, job in enumerate(batch):
        files = {"data.fimi": job.fimi, "items.cats": job.item_cats,
                 "trans.cats": job.trans_cats, "query": job.query}
        (out / f"q{qi}").mkdir(parents=True, exist_ok=True)
        for fname, text in files.items():
            if text:
                (out / f"q{qi}" / fname).write_text(text, encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    batch = WORKLOADS[name](seed)
    golden = golden_digests(name, seed)
    wall = {}
    if trace:
        metrics, units, samples, records, passes = measure_traced(
            batch, golden, seconds
        )
        out = OUT / f"{name}-seed{seed}"
        _write_batch(batch, out)
        with open(out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "passes": records}, fh)
        print(f"inputs and spans written to {out}")
    else:
        metrics, units, samples, wall, passes = measure(batch, golden, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"workload {name} seed {seed}: {len(batch)} queries per batch, "
          f"{len(passes)} passes, one closed-loop client")
    for m in units:
        plain = f", wall {wall[m]:.6f}" if m in wall else ""
        print(f"  {m:28s} {metrics[m]:14.6f} {units[m]:5s}"
              f" (samples={samples[m]}{plain})")
    print(f"  {'error_rate':28s} {failed / attempted:14.6f} ratio "
          f" ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        # one process per workload, so that peak_rss_mb is the workload's own
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
