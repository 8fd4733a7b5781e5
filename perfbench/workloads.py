"""Seeded input generators for the benchmark workloads.

Each generator returns a batch of ``submine mine`` calls, each as the text
of its files: FIMI data, item and transaction partitions, and the query.
The same seed gives the same text.

Cost must not swing from seed to seed, or a change between seeds would
read as a change in speed.  So the counts that decide how much work a query
does are fixed per workload (rows per group that carry the planted block
and block items in the other rows, ones per column, occurrences of each
item per city, a theta far from the supports of chance triples) and the
seed draws everything else: which rows, which items, which co-occurrences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """The files of one ``submine mine`` call."""

    fimi: str
    item_cats: str  # "" when the call has no item partition
    trans_cats: str  # "" when the call has no transaction partition
    query: str


def _fimi(rows) -> str:
    return "".join(" ".join(map(str, sorted(r))) + "\n" for r in rows)


def _cats(levels) -> str:
    """Partition text; ``levels`` is a list of [(name, ids), ...]."""
    out = []
    for k, level in enumerate(levels, start=1):
        if len(levels) > 1:
            out.append(f"level {k}")
        out.extend(f"{name}: {' '.join(map(str, ids))}" for name, ids in level)
    return "\n".join(out) + "\n"


def _query(**keys) -> str:
    return "".join(f"{k}: {v}\n" for k, v in keys.items())


def _exact_column(rng: random.Random, n_rows: int, ones: int) -> set[int]:
    """Row indices (0-based) of a column with exactly ``ones`` ones."""
    return set(rng.sample(range(n_rows), ones))


# ------------------------------------------------------------------ zoo_q4

ZOO_ITEMS = 36
ZOO_TRANS_GROUPS = (10,) * 9 + (11,)
# rows per transaction group that carry the whole six-item block; the seed
# decides which group gets which count and which rows carry it
ZOO_CORE_ROWS = (10, 9, 8, 8, 7, 7, 7, 6, 6, 7)
# block items carried by the rows that lack the block, in turn; fixed sizes
# keep the number of closed sets per mask, and so the miners' work, steady
ZOO_PARTIAL = (2, 1, 1, 0)
ZOO_NOISE_ONES = 39  # ones per noise column: 39/101 is the zoo-like 38.5%


def zoo_q4(seed: int) -> tuple[Job, ...]:
    """Zoo-like 101x36 data, six item groups of six and ten transaction
    groups, under Q4/Q2/Q3 queries that enumerate thousands of masks."""
    rng = random.Random(seed)
    n_trans = sum(ZOO_TRANS_GROUPS)
    core = range(1, 7)
    counts = list(ZOO_CORE_ROWS)
    rng.shuffle(counts)
    rows: list[set[int]] = []
    partial = 0
    for size, n_core in zip(ZOO_TRANS_GROUPS, counts):
        carriers = set(rng.sample(range(size), n_core))
        for r in range(size):
            if r in carriers:
                rows.append(set(core))
            else:
                k = ZOO_PARTIAL[partial % len(ZOO_PARTIAL)]
                partial += 1
                rows.append(set(rng.sample(core, k)))
    for i in range(7, ZOO_ITEMS + 1):
        for r in _exact_column(rng, n_trans, ZOO_NOISE_ONES):
            rows[r].add(i)
    # FIMI cannot express an empty transaction: give it one noise item
    for row in rows:
        if not row:
            row.add(rng.randint(7, ZOO_ITEMS))

    item_groups = [(f"I{g + 1}", range(1 + 6 * g, 7 + 6 * g)) for g in range(6)]
    trans_groups = []
    start = 1
    for g, size in enumerate(ZOO_TRANS_GROUPS):
        trans_groups.append((f"T{g + 1}", range(start, start + size)))
        start += size
    queries = (
        # the acceptance query: 35 item masks x 165 transaction masks
        _query(theta="3/4", minsize=5, items_active="2 3", trans_active="2 3"),
        _query(theta="2/3", minsize=4, items_active="1 1", trans_active="3 3"),
        _query(theta="3/4", minsize=3, trans_active="1 2"),
    )
    data = (_fimi(rows), _cats([item_groups]), _cats([trans_groups]))
    return tuple(Job(*data, q) for q in queries)


# ---------------------------------------------------------------- dense_q1

DENSE_ITEMS = 40
DENSE_TRANS = 200
DENSE_ONES = 100  # ones per column: 50% density


def _dense_rows(rng: random.Random) -> str:
    rows: list[set[int]] = [set() for _ in range(DENSE_TRANS)]
    for i in range(1, DENSE_ITEMS + 1):
        for r in _exact_column(rng, DENSE_TRANS, DENSE_ONES):
            rows[r].add(i)
    for r, row in enumerate(rows):
        if not row:
            row.add(1 + r % DENSE_ITEMS)
    return _fimi(rows)


def dense_q1(seed: int) -> tuple[Job, ...]:
    """Dense random 200x40 data at low theta on the full dataset: one mask,
    some 1600 pairs a batch.  Eight item groups of five serve the span query.

    Pairs of items share about 50 rows and triples about 25, so at theta 1/6
    (34 rows) nearly every pair and almost no triple is frequent, whatever
    the seed.  Each query still gets a table of its own.
    """
    rng = random.Random(seed)
    item_groups = _cats([[(f"C{g + 1}", range(1 + 5 * g, 6 + 5 * g)) for g in range(8)]])
    # the seed also picks which items the require/forbid queries name
    picked = rng.sample(range(1, DENSE_ITEMS + 1), 4)
    queries = (
        _query(theta="1/6"),
        _query(theta="1/6", span="2 2", forbid=" ".join(map(str, picked[1:]))),
        _query(theta="1/6", closed="false", minsize=2, require=picked[0]),
    )
    return tuple(Job(_dense_rows(rng), item_groups, "", q) for q in queries)


# ----------------------------------------------------------- sparse_levels

SPARSE_REGIONS, SPARSE_DEPTS, SPARSE_CITIES = 2, 6, 18  # groups per level
SPARSE_PER_CITY = 10  # transactions per city
SPARSE_DISTINCT = 40  # distinct items
SPARSE_MAX_ID = 13 * SPARSE_DISTINCT  # ids spread over 1..520
SPARSE_BASKET = 4  # mean basket size
SPARSE_ZIPF = 1.0


def _zipf_counts(slots: int, rows: int) -> list[int]:
    """Occurrences per city of the items by popularity rank."""
    weights = [1 / (k + 1) ** SPARSE_ZIPF for k in range(SPARSE_DISTINCT)]
    total = sum(weights)
    return [min(rows, max(1, round(slots * w / total))) for w in weights]


def sparse_levels(seed: int) -> tuple[Job, ...]:
    """Basket data with Zipf item popularity and sparse item ids, its
    transactions in a region/department/city hierarchy, under one-of-levels
    queries: a few dozen masks over wide bitsets."""
    rng = random.Random(seed)
    # ids[k] is the item of popularity rank k.  Bitset operations cost with
    # the highest id they touch, so the most popular item gets the largest
    # id on every seed: each seed then pays the same width where it counts.
    ids = [SPARSE_MAX_ID] + rng.sample(range(1, SPARSE_MAX_ID), SPARSE_DISTINCT - 1)
    counts = _zipf_counts(SPARSE_PER_CITY * SPARSE_BASKET, SPARSE_PER_CITY)
    rows: list[set[int]] = []
    for _ in range(SPARSE_CITIES):
        city = [set() for _ in range(SPARSE_PER_CITY)]
        for item, n in zip(ids, counts):
            for r in rng.sample(range(SPARSE_PER_CITY), n):
                city[r].add(item)
        for row in city:
            if not row:
                row.add(ids[0])
        rows.extend(city)

    def level(prefix: str, n_groups: int):
        size = len(rows) // n_groups
        return [
            (f"{prefix}{g + 1}", range(1 + g * size, 1 + (g + 1) * size))
            for g in range(n_groups)
        ]

    trans_levels = [
        level("Reg", SPARSE_REGIONS),
        level("Dep", SPARSE_DEPTS),
        level("City", SPARSE_CITIES),
    ]
    queries = (
        _query(theta="4%", minsize=2, trans_active="one-of-levels"),
        # where are the most and the sixth most popular items frequent, and
        # with what
        _query(theta="25%", closed="false", require=ids[0], trans_active="one-of-levels"),
        _query(theta="30%", closed="false", require=ids[5], trans_active="one-of-levels"),
    )
    return tuple(Job(_fimi(rows), "", _cats(trans_levels), q) for q in queries)


WORKLOADS = {"zoo_q4": zoo_q4, "dense_q1": dense_q1, "sparse_levels": sparse_levels}
