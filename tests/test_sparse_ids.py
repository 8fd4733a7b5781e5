"""Sparse item ids: the ids that no transaction holds are still items of
the axis, and the work follows the items that occur, not the largest id."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from submine import PartitionScheme, Query, build_query, parse_fimi, parse_query, run_theory
from submine.dataset import bits_of, indices_of, iter_bits, span_bits
from submine.engine import ROLE_H, ROLE_X
from submine.queries import ENGINES, AxisConstraint, assemble

# three rows over ids 1, 2, 3 and 100000
PROBE_FIMI = "1 2 3\n2 3 100000\n1 100000\n"
PROBE_PAIRS = [
    ((1,), 2),
    ((1, 2, 3), 1),
    ((1, 100000), 1),
    ((2, 3), 2),
    ((2, 3, 100000), 1),
    ((100000,), 2),
]


def _probe():
    db = parse_fimi(PROBE_FIMI)
    return db, build_query(parse_query("theta: 1/3"), db)


def _answers(pairs):
    return [(p.items, p.support) for p in pairs]


def test_probe_cp_memory_stays_linear_in_the_largest_id():
    db, query = _probe()
    tracemalloc.start()
    try:
        pairs = run_theory(db, query, engine="cp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _answers(pairs) == PROBE_PAIRS
    assert {(p.item_desc, p.trans_desc) for p in pairs} == {("ALL", "ALL")}
    assert len(pairs[0].item_mask) == 100000
    assert peak < 100 * 2**20, f"cp peaked at {peak / 2**20:.0f} MB"


def test_probe_assemble_keeps_no_object_per_position():
    db, query = _probe()
    tracemalloc.start()
    try:
        solver = assemble(db, query)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not solver.root_failed
    # measured on CPython 3.11: 0.12 MB kept, 0.21 MB at peak; tables
    # with one entry per item id of the 100000-wide axis keep 1.67 MB
    # and peak at 5.43 MB
    assert kept < 2**19, f"assemble kept {kept / 2**20:.2f} MB"
    assert peak < 2**20, f"assemble peaked at {peak / 2**20:.2f} MB"


def test_probe_baseline_follows_the_held_items():
    db, query = _probe()
    started = time.perf_counter()
    pairs = run_theory(db, query, engine="baseline")
    elapsed = time.perf_counter() - started
    assert _answers(pairs) == PROBE_PAIRS
    assert elapsed < 1.0, f"baseline took {elapsed:.2f} s"


def test_one_item_mask_is_searched_within_the_live_items():
    # at 1/2 over all three rows, id 5000 is held but infrequent and ids
    # 4..4999 are held by no row: the one item mask is projected onto the
    # live items 1, 2 and 3, so H and X are 0 at the root on 4..5000
    db = parse_fimi("1 2 3\n2 3 5000\n1 2\n")
    query = build_query(parse_query("theta: 1/2\nitems_active: all"), db)
    solver = assemble(db, query)
    dead = span_bits(4, 5000)
    assert not solver.root_failed
    for role in (ROLE_H, ROLE_X):
        assert solver.fixed(role)[1] & dead == dead
    theories = [run_theory(db, query, engine=e) for e in ("cp", "baseline")]
    assert theories[0] == theories[1]
    assert _answers(theories[0]) == [((1, 2), 2), ((2,), 3), ((2, 3), 2)]


# ids 3, 5, 6 and 9 occur in no row; the partition's group Z holds only
# absent ids, and 3 and 9 become implicit singleton groups
GAPS_FIMI = "1 2 4\n1 2 10\n2 4 7\n1 4 7 10\n1 2 4 7\n2 7 8\n"
GAPS_ITEM_GROUPS = [("P", [1, 2]), ("Q", [4, 7]), ("Z", [5, 6])]
GAPS_TRANS_GROUPS = [("S", [1, 2, 3]), ("T", [4, 5, 6])]


@pytest.fixture(scope="module")
def gaps():
    db = parse_fimi(GAPS_FIMI)
    items = PartitionScheme.build("items", db.item_count, GAPS_ITEM_GROUPS)
    trans = PartitionScheme.build("transactions", db.transaction_count, GAPS_TRANS_GROUPS)
    return db, items, trans


def test_held_items_are_the_union_of_the_rows(gaps):
    db, _, _ = gaps
    assert db.item_count == 10
    assert db.held_items == bits_of([1, 2, 4, 7, 8, 10])
    for i in (3, 5, 6, 9):
        assert db.columns[i] == 0


def _theories(db, query, items, trans):
    theories = {e: run_theory(db, query, items, trans, engine=e) for e in ENGINES}
    assert theories["cp"] == theories["baseline"] == theories["oracle"]
    return theories["cp"]


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize(
    "trans_active",
    [AxisConstraint.all_active(), AxisConstraint.group_bounds(1, 2)],
    ids=["all", "groups"],
)
def test_absent_group_still_yields_distinct_masks(gaps, closed, trans_active):
    db, items, trans = gaps
    query = Query(
        theta=Fraction(1, 2),
        closed=closed,
        items=AxisConstraint.group_bounds(1, 2),
        trans=trans_active,
    )
    pairs = _theories(db, query, items, trans)
    by_mask = {}
    for p in pairs:
        by_mask.setdefault((p.item_mask, p.trans_mask), []).append((p.items, p.support))
    with_z = [k for k in by_mask if set(k[0]) & {5, 6}]
    assert with_z, "no answer mask holds the absent group"
    for item_mask, trans_mask in with_z:
        # the absent ids change the mask but none of its answers
        rest = tuple(i for i in item_mask if i not in (5, 6))
        assert item_mask != rest
        assert by_mask[item_mask, trans_mask] == by_mask[rest, trans_mask]
        assert all(not set(x) & {5, 6} for x, _ in by_mask[item_mask, trans_mask])


@pytest.mark.parametrize("closed", [True, False])
def test_require_on_an_absent_id_gives_an_empty_theory(gaps, closed):
    db, items, trans = gaps
    for require in (3, 5):
        query = Query(
            theta=Fraction(1, 3),
            closed=closed,
            require=1 << require,
            items=AxisConstraint.group_bounds(0, 3),
            trans=AxisConstraint.group_bounds(1, 2),
        )
        assert _theories(db, query, items, trans) == []


def test_wide_bitsets_round_trip():
    rng = random.Random(15)
    for width in (1, 40, 1024, 1025, 5000):
        for density in (0.0, 0.01, 0.5, 1.0):
            picked = [i for i in range(width + 1) if rng.random() < density]
            b = bits_of(picked)
            assert indices_of(b) == tuple(iter_bits(b)) == tuple(picked)
