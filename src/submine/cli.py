"""Command-line front end: mine theories, verify engines against each
other, and benchmark engines over query suites.

Exit codes: 0 success, 1 error, 2 timeout.  Result files are TSV lines
``item_groups  trans_groups  itemset  support  freq`` in canonical order;
frequencies print as exact ``support/active`` fractions.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

from . import reference
from .dataset import (
    PartitionScheme,
    TransactionDatabase,
    bits_of,
    parse_fimi,
    parse_labels,
    parse_partition,
)
from .engine import SearchTimeout
from .queries import AxisConstraint, Query, build_query, count_text, parse_query, run_theory

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2

# test harness hook: maps engine name to a replacement theory runner
_ENGINE_OVERRIDES: dict = {}


@dataclass
class RunReport:
    name: str
    engine: str
    masks: int
    solutions: int
    time_sec: float
    work: int
    status: str
    detail: str = ""
    axis_cols: tuple = ("", "", "", "")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(args):
    db = parse_fimi(_read(args.data))
    if args.labels:
        db = db.with_labels(parse_labels(_read(args.labels)))
    item_scheme = trans_scheme = None
    if args.item_cats:
        item_scheme = parse_partition(_read(args.item_cats), db, "items")
    if args.trans_cats:
        trans_scheme = parse_partition(_read(args.trans_cats), db, "transactions")
    query = build_query(parse_query(_read(args.query)), db, item_scheme, trans_scheme)
    return db, item_scheme, trans_scheme, query


def _deadline(args):
    """The monotonic time ``--timeout`` seconds from now, or None without
    the option; ValueError for NaN or a limit that is not positive."""
    timeout = getattr(args, "timeout", None)
    if timeout is None:
        return None
    if not timeout > 0:
        raise ValueError(f"--timeout must be a positive number of seconds, got {timeout}")
    return time.monotonic() + timeout


def _run_engine(name, db, query, item_scheme, trans_scheme, deadline, workers=1, stats=None):
    if name in _ENGINE_OVERRIDES:
        return _ENGINE_OVERRIDES[name](db, query, item_scheme, trans_scheme)
    return run_theory(
        db,
        query,
        item_scheme,
        trans_scheme,
        engine=name,
        workers=workers,
        deadline=deadline,
        stats=stats,
    )


def cmd_mine(args) -> int:
    try:
        deadline = _deadline(args)  # the limit covers parsing too
        db, item_scheme, trans_scheme, query = _load(args)
        pairs = _run_engine(
            args.engine or query.engine,
            db,
            query,
            item_scheme,
            trans_scheme,
            deadline,
            workers=args.parallel,
        )
        text = "".join(p.tsv() + "\n" for p in pairs)
        with _output(args.out, "\n") as fh:
            fh.write(text)
    except SearchTimeout:
        print("timeout exceeded", file=sys.stderr)
        return EXIT_TIMEOUT
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _output(path, newline):
    """The file at ``path`` opened for writing, or stdout (left open)."""
    if path:
        return open(path, "w", encoding="utf-8", newline=newline)
    return nullcontext(sys.stdout)


def cmd_verify(args) -> int:
    try:
        _deadline(args)  # refuse a bad limit before any work
        if args.seeds is None:
            db, item_scheme, trans_scheme, query = _load(args)
        elif args.seeds < 1:
            raise ValueError(f"--seeds must be a positive number of instances, got {args.seeds}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.seeds is not None:
        return _verify_random(args)
    theories = _all_theories(db, query, item_scheme, trans_scheme, _deadline(args))
    if isinstance(theories, int):
        return theories
    for name, pairs in theories.items():
        print(f"{name}: {len(pairs)} pairs")
    mismatches = _diff_theories(theories)
    if mismatches:
        print("\n".join(mismatches))
        return EXIT_ERROR
    print("theories agree")
    return EXIT_OK


def _all_theories(db, query, item_scheme, trans_scheme, deadline, where=""):
    """The theory of each engine by name, or the exit code of the first
    engine that times out or fails, reported on stderr after ``where``."""
    theories = {}
    for name in ("cp", "baseline", "oracle"):
        try:
            theories[name] = _run_engine(name, db, query, item_scheme, trans_scheme, deadline)
        except SearchTimeout:
            print(f"{where}{name}: timeout", file=sys.stderr)
            return EXIT_TIMEOUT
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"{where}error in engine {name}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    return theories


def _diff_theories(theories) -> list[str]:
    """One report for each engine whose theory differs from the first
    engine's, naming the first differing pair; empty when all agree."""
    names = list(theories)
    base = names[0]
    out = []
    for other in names[1:]:
        left, right = set(theories[base]), set(theories[other])
        if left != right:
            diff = sorted(left ^ right, key=lambda p: p.sort_key())
            where = "only in " + (base if diff[0] in left else other)
            out.append(f"MISMATCH {base} vs {other}: first differing pair ({where}):")
            out.append("  " + diff[0].tsv())
    return out


def _verify_random(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for k in range(args.seeds):
        db, item_scheme, trans_scheme, query = generate_random_instance(rng)
        results = _all_theories(
            db, query, item_scheme, trans_scheme, _deadline(args), f"seed {k}: "
        )
        if isinstance(results, int):
            return results
        sizes = {name: len(pairs) for name, pairs in results.items()}
        mismatches = _diff_theories(results)
        print(f"seed {k}: {'MISMATCH' if mismatches else 'ok'} {sizes}")
        if mismatches:
            print("\n".join(mismatches))
            failures += 1
    if failures:
        print(f"{failures}/{args.seeds} random instances disagree", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def generate_random_instance(rng: random.Random):
    """Random small instance for cross-engine verification: a database with
    at most 10 items and 8 transactions, random partitions on both axes
    (two levels on transactions), a random threshold, and a query drawn
    over the whole grammar: closed or not, minimum size, span, required
    and forbidden items, and all, fixed or group-bounded activation on
    each axis, or one-of-levels on transactions.  Group and span bounds
    draw lb from 0 up."""
    n = rng.randint(3, 10)
    m = rng.randint(3, 8)
    density = rng.uniform(0.3, 0.7)
    rows = [
        [i for i in range(1, n + 1) if rng.random() < density] for _ in range(m)
    ]
    db = TransactionDatabase.from_rows(rows, item_count=n)
    item_scheme = PartitionScheme.build("items", n, _random_groups(rng, n, "G"))
    trans_scheme = PartitionScheme.build(
        "transactions", m, _random_groups(rng, m, "G"), [_random_groups(rng, m, "L")]
    )
    theta = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)))
    span = None
    if rng.random() < 0.25:
        span = _random_bounds(rng, item_scheme.group_count())
    picked = rng.sample(range(1, n + 1), 3)
    query = Query(
        theta=theta,
        closed=rng.random() < 0.7,
        min_size=rng.choice((1, 1, 1, 2, 3, n)),
        span=span,
        require=bits_of(picked[:1]) if rng.random() < 0.25 else 0,
        forbid=bits_of(picked[1 : rng.randint(2, 3)]) if rng.random() < 0.25 else 0,
        items=_random_axis(rng, n, item_scheme, ("all", "all", "groups", "fixed")),
        trans=_random_axis(
            rng, m, trans_scheme, ("all", "all", "groups", "fixed", "one_per_level")
        ),
    )
    return db, item_scheme, trans_scheme, query


def _random_axis(rng, size, scheme, kinds):
    kind = rng.choice(kinds)
    if kind == "groups":
        return AxisConstraint.group_bounds(*_random_bounds(rng, scheme.group_count()))
    if kind == "fixed":
        chosen = rng.sample(range(1, size + 1), rng.randint(1, size))
        return AxisConstraint.fixed(bits_of(chosen))
    if kind == "one_per_level":
        return AxisConstraint.one_per_level()
    return AxisConstraint.all_active()


def _random_bounds(rng, k):
    lb = rng.randint(0, k)
    return lb, rng.randint(max(lb, 1), k)


def _random_groups(rng, size, prefix):
    k = rng.randint(2, max(2, min(4, size)))
    ids = list(range(1, size + 1))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, size), k - 1)) if size > 1 else []
    groups = []
    prev = 0
    for gi, cut in enumerate([*cuts, size]):
        groups.append((f"{prefix}{gi + 1}", ids[prev:cut]))
        prev = cut
    return [g for g in groups if g[1]]


def cmd_bench(args) -> int:
    try:
        _deadline(args)  # refuse a bad limit before any work
        with open(args.suite, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    reports = []
    for row in rows:
        reports.extend(_bench_row(row, args))
    try:
        with _output(args.out, "") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                (
                    "name",
                    "engine",
                    "item_cats",
                    "item_bounds",
                    "trans_cats",
                    "trans_bounds",
                    "num_masks",
                    "solutions",
                    "work",
                    "time_sec",
                    "status",
                    "detail",
                )
            )
            for r in reports:
                writer.writerow(
                    (
                        r.name,
                        r.engine,
                        *r.axis_cols,
                        count_text(r.masks),
                        r.solutions,
                        r.work,
                        f"{r.time_sec:.3f}",
                        r.status,
                        r.detail,
                    )
                )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _bench_row(row, args):
    name = row.get("name") or row.get("data") or "?"
    engines = (row.get("engines") or "cp").split("|")
    reports = []
    sub = argparse.Namespace(
        data=row.get("data"),
        query=row.get("query"),
        item_cats=row.get("item_cats"),
        trans_cats=row.get("trans_cats"),
        labels=row.get("labels"),
    )
    try:
        for key in ("data", "query"):
            if not row.get(key):
                raise ValueError(f"suite row has no {key} file")
        db, item_scheme, trans_scheme, query = _load(sub)
        num_masks = reference.enumerate_masks(
            db, query, item_scheme, trans_scheme
        ).count()
    except (OSError, ValueError) as exc:
        for engine in engines:
            reports.append(RunReport(name, engine, 0, 0, 0.0, 0, "error", str(exc)))
        return reports

    axis_cols = (
        str(item_scheme.group_count()) if item_scheme else "",
        query.items.describe(),
        str(trans_scheme.group_count()) if trans_scheme else "",
        query.trans.describe(),
    )
    for engine in engines:
        stats: dict = {}
        started = time.perf_counter()
        deadline = _deadline(args)
        try:
            if not engine:
                raise ValueError("empty engine name")
            pairs = _run_engine(
                engine, db, query, item_scheme, trans_scheme, deadline, stats=stats
            )
            elapsed = time.perf_counter() - started
            rep = RunReport(
                name,
                engine,
                num_masks,
                len(pairs),
                elapsed,
                stats.get("nodes", stats.get("masks", 0)),
                "ok",
            )
        except SearchTimeout:
            elapsed = time.perf_counter() - started
            rep = RunReport(name, engine, num_masks, 0, elapsed, 0, "to")
        except (ValueError, RuntimeError) as exc:
            elapsed = time.perf_counter() - started
            rep = RunReport(name, engine, num_masks, 0, elapsed, 0, "error", str(exc))
        rep.axis_cols = axis_cols
        reports.append(rep)
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="submine",
        description="Mine itemsets in user-constrained sub-datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_engine=True, required=True):
        p.add_argument("--data", required=required, help="FIMI transaction file")
        p.add_argument("--query", required=required, help="query file")
        p.add_argument("--item-cats", dest="item_cats", help="item partition file")
        p.add_argument("--trans-cats", dest="trans_cats", help="transaction partition file")
        p.add_argument("--labels", help="item label file (id label per line)")
        p.add_argument("--timeout", type=float, help="wall-clock limit in seconds")
        if with_engine:
            p.add_argument("--engine", choices=("cp", "baseline", "oracle"))

    p_mine = sub.add_parser("mine", help="extract the theory of a query")
    add_common(p_mine)
    p_mine.add_argument("--out", help="result file (default stdout)")
    p_mine.add_argument("--parallel", type=int, default=1, metavar="K")
    p_mine.set_defaults(func=cmd_mine)

    p_verify = sub.add_parser("verify", help="cross-check cp, baseline, oracle")
    add_common(p_verify, with_engine=False, required=False)
    p_verify.add_argument("--seeds", type=int, help="verify K random instances instead")
    p_verify.add_argument("--seed", type=int, default=20240, help="base RNG seed")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run a suite and emit a CSV report")
    p_bench.add_argument("--suite", required=True, help="suite CSV")
    p_bench.add_argument("--out", help="report CSV (default stdout)")
    p_bench.add_argument("--timeout", type=float)
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    if args.command == "verify" and args.seeds is None and not (args.data and args.query):
        parser.error("verify needs --data and --query (or --seeds K)")
    try:
        return args.func(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
