"""Generated datasets for scale tests.

``zoo_like`` mimics the shape of the 101x36 zoo data at roughly 44%
density: one six-item block is planted to co-occur in about two thirds of
the transactions so that high-threshold queries still find closed sets,
and the remaining items carry independent noise tuned to hit the target
density.

``many_groups`` draws many small transaction groups, each favouring a few
items, with a query that chooses lb..ub of them: many masks stay open
long, where the per-group support bound does the pruning.
"""

import random
from fractions import Fraction

from submine import AxisConstraint, PartitionScheme, Query, TransactionDatabase

N_ITEMS = 36
N_TRANS = 101
CORE = list(range(1, 7))  # the planted co-occurring block (item group 1)


def zoo_like(seed=20240):
    rng = random.Random(seed)
    rows = []
    for _ in range(N_TRANS):
        row = set()
        if rng.random() < 0.68:
            row.update(CORE)
        else:
            row.update(i for i in CORE if rng.random() < 0.12)
        for i in range(7, N_ITEMS + 1):
            if rng.random() < 0.385:
                row.add(i)
        rows.append(sorted(row))
    db = TransactionDatabase.from_rows(rows, item_count=N_ITEMS)
    item_groups = [
        (f"I{g + 1}", list(range(1 + g * 6, 7 + g * 6))) for g in range(6)
    ]
    item_scheme = PartitionScheme.build("items", N_ITEMS, item_groups)
    trans_groups = []
    start = 1
    for g in range(10):
        size = 11 if g == 9 else 10
        trans_groups.append((f"T{g + 1}", list(range(start, start + size))))
        start += size
    trans_scheme = PartitionScheme.build("transactions", N_TRANS, trans_groups)
    return db, item_scheme, trans_scheme


def many_groups(seed):
    """24 items over 12, 14 or 16 transaction groups of 4-8 rows.  Each
    group favours 6 random items: a row holds each with probability 0.7
    and any other item with probability 0.1.  Returns the database, the
    transaction scheme and a closed or plain query with ``trans_active:
    lb ub``."""
    rng = random.Random(seed)
    n_items = 24
    n_groups = rng.choice((12, 14, 16))
    rows = []
    groups = []
    for g in range(n_groups):
        favoured = set(rng.sample(range(1, n_items + 1), 6))
        start = len(rows) + 1
        for _ in range(rng.randint(4, 8)):
            rows.append(
                [
                    i
                    for i in range(1, n_items + 1)
                    if rng.random() < (0.7 if i in favoured else 0.1)
                ]
            )
        groups.append((f"T{g + 1}", range(start, len(rows) + 1)))
    db = TransactionDatabase.from_rows(rows, item_count=n_items)
    scheme = PartitionScheme.build("transactions", len(rows), groups)
    lb = rng.randint(1, 3)
    query = Query(
        theta=rng.choice((Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))),
        closed=rng.random() < 0.7,
        min_size=rng.randint(3, 6),
        trans=AxisConstraint.group_bounds(lb, rng.randint(lb, n_groups)),
    )
    return db, scheme, query
