"""Live items: item masks that share their live items are one subproblem.

K holds the held items frequent in some transaction choice that can hold
an answer.  The answers of an item mask H are those of H ∩ K, so ``cp``
searches each projected mask once and lifts its answers, and ``baseline``
mines each distinct live part once."""

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import HALF, table1_db
from submine import PartitionScheme, Query, TransactionDatabase, run_theory
from submine import queries, reference
from submine.cli import generate_random_instance
from submine.dataset import bits_of
from submine.engine import SearchTimeout, Solver
from submine.queries import ENGINES, AxisConstraint, live_items
from submine.reference import brute_force_theory, pp_mine


def _agree(db, q, ischeme, tscheme):
    """The theory on which every engine agrees, each answer checked
    against its own mask."""
    cp, baseline, oracle = (run_theory(db, q, ischeme, tscheme, engine=e) for e in ENGINES)
    assert cp == baseline == oracle, q
    return cp


def test_projection_is_exact_on_random_instances():
    # only the draws where two item masks share a non-empty live part
    # test the projection; the others search every item mask as before
    rng = random.Random(23)
    kept = 0
    for _ in range(4000):
        db, ischeme, tscheme, q = generate_random_instance(rng)
        live = live_items(db, q, tscheme)
        parts = [ib & live for ib in q.items.masks(db.all_items(), ischeme) if ib & live]
        if len(parts) == len(set(parts)):
            continue
        kept += 1
        _agree(db, q, ischeme, tscheme)
    assert kept >= 100


def test_forbidden_frequent_item_blocks_closedness_in_one_mask_only():
    # f (item 2) is in every row that holds a (item 1), so {a} is closed in
    # the masks without f and not in those with it; f is forbidden, so
    # {a, f} is no answer either.  Item 3 is infrequent.  The masks {1, 2}
    # and {1, 3} must not share an answer, although f is in no answer.
    db = TransactionDatabase.from_rows([[1, 2], [1, 2], [1, 2], [3]])
    ischeme = PartitionScheme.build("items", 3, [])
    q = Query(theta=HALF, forbid=bits_of([2]), items=AxisConstraint.group_bounds(1, 2))
    assert live_items(db, q, None) == bits_of([1, 2])
    theory = _agree(db, q, ischeme, None)
    assert {(p.item_mask, p.items) for p in theory} == {((1,), (1,)), ((1, 3), (1,))}


def test_item_frequent_in_one_transaction_group_stays_live():
    # b (item 2) is in 2 of 6 rows, below 1/2 over the whole table, but in
    # both rows of T1: it is live, and {a, b} is an answer in T1
    db = TransactionDatabase.from_rows([[1, 2], [1, 2], [1, 3], [1, 3], [1], [3]])
    ischeme = PartitionScheme.build("items", 3, [])
    tscheme = PartitionScheme.build("transactions", 6, [("T1", [1, 2]), ("T2", [3, 4, 5, 6])])
    q = Query(
        theta=HALF,
        items=AxisConstraint.group_bounds(1, 2),
        trans=AxisConstraint.group_bounds(1, 1),
    )
    assert live_items(db, q, tscheme) == bits_of([1, 2, 3])
    theory = _agree(db, q, ischeme, tscheme)
    assert ((1, 2), (1, 2), (1, 2)) in {(p.item_mask, p.trans_mask, p.items) for p in theory}


def _with_infrequent_groups():
    """Table 1 with items 10 and 11, one row each, in two more item groups
    of their own: at θ = 1/2 neither is frequent in any choice."""
    db1 = table1_db()
    rows = [db1.row(j) for j in range(1, 7)]
    rows = [
        [i for i in range(1, 10) if r >> i & 1] + extra
        for r, extra in zip(rows, ([10], [11], [], [], [], []))
    ]
    groups = [("I1", [1, 2]), ("I2", [3, 4, 5]), ("I3", [6, 7, 8, 9])]
    wide = TransactionDatabase.from_rows(rows)
    wide_scheme = PartitionScheme.build("items", 11, [*groups, ("I4", [10]), ("I5", [11])])
    return (db1, PartitionScheme.build("items", 9, groups)), (wide, wide_scheme)


def test_cp_search_skips_item_groups_of_infrequent_items():
    # the groups that miss the live items are lifted into the answers, not
    # searched: the search with them equals the search without them
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(1, 2))
    runs = []
    for db, ischeme in _with_infrequent_groups():
        stats = {}
        theory = run_theory(db, q, ischeme, None, engine="cp", stats=stats)
        runs.append((stats, theory))
    (narrow_stats, narrow), (wide_stats, wide) = runs
    assert wide_stats == narrow_stats == {"nodes": 32, "masks": 6}
    # each answer of a mask of I1..I3 also holds with I4 or I5 added, when
    # the mask has one group
    assert len(wide) == len(narrow) + 2 * sum(1 for p in narrow if "+" not in p.item_desc)


def test_baseline_mines_once_per_distinct_live_part(monkeypatch):
    _, (db, ischeme) = _with_infrequent_groups()
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(1, 2))
    mined = []

    def counted(db, act_i, *args, _mine=reference._mine):
        mined.append(act_i)
        return _mine(db, act_i, *args)

    monkeypatch.setattr(reference, "_mine", counted)
    stats = {}
    triples = pp_mine(db, q, ischeme, None, stats=stats)
    live = live_items(db, q, None)
    masks = list(q.items.masks(db.all_items(), ischeme))
    parts = {ib & live for ib in masks} - {0}
    # 15 item masks; I1..I3 alone and in pairs are 6 live parts
    assert (stats["masks"], len(parts)) == (15, 6)
    assert sorted(mined) == sorted(parts)
    assert triples == brute_force_theory(db, q, ischeme, None)


@pytest.mark.parametrize("engine", ["cp", "baseline"])
def test_lift_reads_the_deadline(engine):
    # item 1 is in all 16 rows, each other item in one: only item 1 is
    # live, so the one answer {1} is lifted to 2^16 item masks (item 1's
    # group and any of the 16 others).  Without a deadline, each engine
    # lifts it to all of them, cp with no search node: its root fixes
    # everything.  With a deadline already passed, each engine stops before
    # its lift: cp at search_all's read before the root, baseline at the
    # mask walk's read at the first mask.  That cp's lift reads the clock
    # is checked by test_cp_lift_reads_the_clock_after_the_search
    db = TransactionDatabase.from_rows([[1, j] for j in range(2, 18)])
    ischeme = PartitionScheme.build("items", 17, [])  # one group per item
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(1, 17))
    stats = {}
    triples = queries._engine_triples(db, q, ischeme, None, engine, None, stats)
    assert len(triples) == 2**16
    assert stats.get("nodes", 0) == 0
    with pytest.raises(SearchTimeout):
        queries._engine_triples(db, q, ischeme, None, engine, time.monotonic() - 1)


def test_cp_lift_reads_the_clock_after_the_search(monkeypatch):
    # the clock passes the deadline only once the search is over, so only
    # the lift, which reads it every _CHECK_STRIDE item masks, can stop
    # the run: item 1 is live, and its one answer {1} lifts to 2^10 masks
    db = TransactionDatabase.from_rows([[1, j] for j in range(2, 12)])
    ischeme = PartitionScheme.build("items", 11, [])  # one group per item
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(1, 11))
    triples = queries._collect_cp(db, q, ischeme, None, None, None)
    assert len(triples) == 2**10 > queries._CHECK_STRIDE
    now = [0.0]
    search_all = Solver.search_all

    def search_then_pass_the_deadline(solver, *args, **kw):
        found = search_all(solver, *args, **kw)
        now[0] = 2.0
        return found

    monkeypatch.setattr(Solver, "search_all", search_then_pass_the_deadline)
    monkeypatch.setattr("submine.engine.time", SimpleNamespace(monotonic=lambda: now[0]))
    with pytest.raises(SearchTimeout):
        queries._collect_cp(db, q, ischeme, None, 1.0, None)


def test_cp_lifts_only_the_answers():
    # items 1 and 2 are in all 20 rows, each of 3..22 in one: only 1 and 2
    # are live, and minsize 3 leaves no answer.  cp lifts each answer, so
    # it lifts nothing here; walking every item mask by its live part
    # takes time doubling with each group (1.5 s at 20 groups)
    db = TransactionDatabase.from_rows([[1, 2, j] for j in range(3, 23)])
    ischeme = PartitionScheme.build("items", 22, [])  # one group per item
    q = Query(theta=HALF, min_size=3, items=AxisConstraint.group_bounds(1, 22))
    assert live_items(db, q, None) == bits_of([1, 2])
    started = time.perf_counter()
    theory = run_theory(db, q, ischeme, None, engine="cp")
    elapsed = time.perf_counter() - started
    assert theory == []
    assert elapsed < 1.0, f"cp took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "query",
    [
        Query(theta=HALF),
        Query(theta=HALF, items=AxisConstraint.group_bounds(1, 2)),
        Query(theta=HALF, min_size=2, items=AxisConstraint.group_bounds(2, 3),
              trans=AxisConstraint.group_bounds(1, 2)),
        # no item group holds a live item: the solver fails at the root
        Query(theta=Fraction(1), items=AxisConstraint.group_bounds(3, 3)),
    ],
)
def test_cp_reads_the_live_items_once_per_query(monkeypatch, db1, items3, trans3, query):
    # the projected item choice and the lift come from one projection
    calls = []
    counted = queries.live_items

    def live_items_counted(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(queries, "live_items", live_items_counted)
    theory = run_theory(db1, query, items3, trans3, engine="cp")
    assert len(calls) == 1
    monkeypatch.undo()
    assert theory == run_theory(db1, query, items3, trans3, engine="baseline")
