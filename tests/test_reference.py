import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import A, B, E, F, G, HALF, K, triples_of
from submine import Query, QueryError, TransactionDatabase, build_query, parse_query, run_theory
from submine import closedpattern, dataset, queries, reference
from submine.cli import generate_random_instance
from submine.dataset import bits_of, indices_of
from submine.queries import AxisConstraint
from submine.reference import (
    SizeLimitError,
    brute_force_theory,
    count_masks,
    enumerate_masks,
    mine_closed,
    mine_frequent,
    pp_mine,
)


# -------------------------------------------------------------- count_masks


@pytest.mark.parametrize(
    "k,lb,ub,expected",
    [
        (17, 2, 3, 816),   # 136 + 680
        (6, 2, 3, 35),
        (5, 0, 5, 32),     # full power set
        (29, 2, 5, 146566),
        (10, 1, 10, 1023),
    ],
)
def test_count_masks_values(k, lb, ub, expected):
    assert count_masks(k, lb, ub) == expected


def test_count_masks_invalid():
    with pytest.raises(ValueError):
        count_masks(5, 3, 2)
    with pytest.raises(ValueError):
        count_masks(5, 0, 6)


def test_count_matches_enumeration():
    from submine import PartitionScheme

    rng = random.Random(14)
    for _ in range(30):
        k = rng.randint(1, 8)
        lb = rng.randint(0, k)
        ub = rng.randint(lb, k)
        expected = count_masks(k, lb, ub)
        # independent route: filter all subsets by size
        seen = {sel for sel in range(1 << k) if lb <= sel.bit_count() <= ub}
        assert len(seen) == expected
        # the enumerator itself emits exactly that many distinct masks
        db = TransactionDatabase.from_rows([range(1, k + 1)], item_count=k)
        scheme = PartitionScheme.build(
            "items", k, [(f"g{i}", [i]) for i in range(1, k + 1)]
        )
        q = Query(theta=HALF, items=AxisConstraint.group_bounds(lb, ub))
        enum = enumerate_masks(db, q, scheme, None)
        masks = [m[0] for m in enum]
        assert enum.count() == expected
        assert len(masks) == len(set(masks)) == expected


def test_enumerate_masks_counts(db1, items3, trans3):
    q = Query(
        theta=HALF,
        items=AxisConstraint.group_bounds(2, 2),
        trans=AxisConstraint.group_bounds(2, 2),
    )
    enum = enumerate_masks(db1, q, items3, trans3)
    assert enum.count() == 9
    masks = list(enum)
    assert len(masks) == 9
    assert len(set(masks)) == 9


def test_enumerate_masks_materialized(db1, items3, trans3):
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(1, 3))
    enum = enumerate_masks(db1, q, items3, trans3)
    assert len(list(enum)) == enum.count() == 7


# ------------------------------------------------------------- mine_closed


def _whole(db):
    return db.all_items(), db.all_transactions()


def test_mine_closed_full_mask(db1):
    got = {
        frozenset(indices_of(p))
        for p in mine_closed(db1, _whole(db1), HALF)
    }
    assert got == {
        frozenset([A]),
        frozenset([B]),
        frozenset([E, F]),
        frozenset([G, K]),
    }


def test_mine_closed_single_transaction():
    db = TransactionDatabase.from_rows([[2, 5, 6]], item_count=6)
    got = mine_closed(db, _whole(db), Fraction(1))
    assert got == [bits_of([2, 5, 6])]  # the closure of the empty set


def test_mine_closed_item_sub(db1):
    mask = (bits_of(range(3, 10)), db1.all_transactions())  # I2+I3
    got = {frozenset(indices_of(p)) for p in mine_closed(db1, mask, HALF)}
    assert got == {frozenset([E, F]), frozenset([G, K])}


def test_mine_closed_is_complete_and_sound():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 8)
        m = rng.randint(1, 8)
        rows = [[i for i in range(1, n + 1) if rng.random() < 0.5] for _ in range(m)]
        db = TransactionDatabase.from_rows(rows, item_count=n)
        items = bits_of([i for i in range(1, n + 1) if rng.random() < 0.8])
        mask = (items, db.all_transactions())
        theta = rng.choice((Fraction(1, 4), Fraction(1, 2)))
        got = set(mine_closed(db, mask, theta))
        query = Query(
            theta=theta,
            items=AxisConstraint.fixed(items),
            trans=AxisConstraint.fixed(mask[1]),
        )
        expected = {pat for _, _, pat in brute_force_theory(db, query)}
        assert got == expected
        assert len(got) == len(mine_closed(db, mask, theta))  # no duplicates


def test_mine_frequent_counts(db1):
    got = mine_frequent(db1, _whole(db1), HALF)
    assert len(got) == len(set(got)) == 8


# ----------------------------------------------------------------- pp_mine


def test_pp_mine_families(db1, items3, trans3):
    for q, expected_pairs in [
        (Query(theta=HALF, items=AxisConstraint.group_bounds(2, 2)), 9),
        (
            Query(
                theta=HALF,
                items=AxisConstraint.group_bounds(2, 2),
                trans=AxisConstraint.group_bounds(2, 2),
            ),
            24,
        ),
        (Query(theta=HALF), 4),
    ]:
        triples = pp_mine(db1, q, items3, trans3)
        assert len(triples) == expected_pairs
        assert triples == triples_of(run_theory(db1, q, items3, trans3, engine="cp"))


def test_pp_mine_rejects_unknown_dataset_family(db1):
    from submine.reference import UnsupportedQueryError

    exotic = Query(theta=HALF, items=AxisConstraint("spatial-window"))
    with pytest.raises(UnsupportedQueryError, match="not supported"):
        pp_mine(db1, exotic)


def test_pp_mine_counts_masks(db1, items3, trans3):
    stats = {}
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(2, 3))
    pp_mine(db1, q, items3, trans3, stats=stats)
    assert stats["masks"] == 4  # C(3,2) + C(3,3)


# ------------------------------------------------------------------ oracle


def test_oracle_q1(db1):
    triples = brute_force_theory(db1, Query(theta=HALF))
    assert {"".join(db1.labels_for(x)) for _, _, x in triples} == {"A", "B", "EF", "GK"}
    assert triples == triples_of(run_theory(db1, Query(theta=HALF), engine="cp"))


def test_oracle_theta_one_empty(db1):
    assert brute_force_theory(db1, Query(theta=Fraction(1))) == set()


def test_oracle_item_guard():
    rows = [[i for i in range(1, 30)]]
    db = TransactionDatabase.from_rows(rows, item_count=30)
    with pytest.raises(SizeLimitError, match="items"):
        brute_force_theory(db, Query(theta=HALF))


def test_oracle_mask_guard(db1):
    # a 24-group scheme over 24 items blows the 2^20 candidate-mask bound
    from submine import PartitionScheme

    rows = [list(range(1, 25))]
    db = TransactionDatabase.from_rows(rows, item_count=24)
    scheme = PartitionScheme.build(
        "items", 24, [(f"g{i}", [i]) for i in range(1, 25)]
    )
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(1, 24))
    with pytest.raises(SizeLimitError, match="masks"):
        brute_force_theory(db, q, scheme, None)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda db: brute_force_theory(db, Query(theta=HALF, span=(1, 2))),
         "span needs an item partition scheme"),
        (lambda db: brute_force_theory(
            db, Query(theta=HALF, items=AxisConstraint.group_bounds(1, 2))),
         "group bounds on items need a partition scheme"),
        (lambda db: brute_force_theory(db, Query(theta=HALF, require=1 << 40)),
         "item 40 out of range 1..3"),
        (lambda db: mine_closed(db, _whole(db), Fraction(0)),
         "theta must lie in"),
        (lambda db: mine_closed(db, _whole(db), HALF, span=(1, 2)),
         "span needs an item partition scheme"),
    ],
    ids=["oracle-span", "oracle-group-bounds", "oracle-require", "miner-theta-0", "miner-span"],
)
def test_every_engine_entry_checks_its_query(call, message):
    # the oracle and the one-mask miners refuse a query check_query
    # refuses, as cp and baseline do, before they read it
    with pytest.raises(QueryError, match=message):
        call(TransactionDatabase.from_rows([[1, 2], [2, 3], [1, 3]]))


def _drop_top_row(meet_columns):
    # a planted defect: the cover loses its highest row
    def defective(db, rows, items):
        cov = meet_columns(db, rows, items)
        return cov & ~(1 << cov.bit_length() >> 1)

    return defective


def _skip_top_row(meet_rows):
    # a planted defect: the closure skips the highest covered row
    def defective(db, cov, items, floor):
        return meet_rows(db, cov & ~(1 << cov.bit_length() >> 1), items, floor)

    return defective


@pytest.mark.parametrize(
    "name,plant",
    [("meet_columns", _drop_top_row), ("meet_rows", _skip_top_row)],
    ids=["meet_columns", "meet_rows"],
)
def test_oracle_follows_no_defect_of_the_shared_primitives(monkeypatch, name, plant):
    # the oracle decides from the rows alone, so a defect planted in the
    # cover or closure that the engines and the answer check share leaves
    # its theory as it is, while the answer check or an engine follows it
    rng = random.Random(3)
    draws = []
    for _ in range(200):
        db, item_scheme, trans_scheme, query = generate_random_instance(rng)
        draws.append((db, query, item_scheme, trans_scheme))
    before = [brute_force_theory(*draw) for draw in draws]
    defective = plant(getattr(dataset, name))
    for module in (dataset, closedpattern, queries, reference):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, defective)
    assert [brute_force_theory(*draw) for draw in draws] == before
    followed = 0
    for draw, theory in zip(draws, before):
        try:
            followed += triples_of(run_theory(*draw, engine="baseline")) != theory
        except RuntimeError:
            followed += 1
    assert followed >= 20


# ---------------------------------------------------------------- deadlines


def _dense_db(n_items, n_trans, density, seed):
    rng = random.Random(seed)
    rows = [
        [i for i in range(1, n_items + 1) if rng.random() < density]
        for _ in range(n_trans)
    ]
    return TransactionDatabase.from_rows(rows, item_count=n_items)


@pytest.mark.parametrize(
    "engine,n_items", [("baseline", 40), ("oracle", 24)]
)
def test_deadline_stops_search_inside_one_mask(engine, n_items):
    # one mask whose mining alone runs far past the deadline
    import time

    from submine.engine import SearchTimeout

    db = _dense_db(n_items, 200, 0.6, seed=4)
    started = time.monotonic()
    with pytest.raises(SearchTimeout):
        run_theory(db, Query(theta=Fraction(1, 20)), engine=engine, deadline=started + 0.5)
    assert time.monotonic() - started < 2.0


def test_deadline_stops_search_over_many_transaction_masks():
    # one item mask with 165 transaction masks, all mined by one search
    import time

    from submine import PartitionScheme
    from submine.engine import SearchTimeout

    db = _dense_db(30, 200, 0.6, seed=4)
    scheme = PartitionScheme.build(
        "transactions", 200,
        [(f"T{g}", range(1 + 20 * g, 21 + 20 * g)) for g in range(10)],
    )
    q = Query(theta=Fraction(1, 20), trans=AxisConstraint.group_bounds(2, 3))
    started = time.monotonic()
    with pytest.raises(SearchTimeout):
        run_theory(db, q, None, scheme, engine="baseline", deadline=started + 0.5)
    assert time.monotonic() - started < 2.0


def test_deadline_stops_baseline_after_collecting_many_masks():
    # 2^18 - 1 transaction masks and no answer (no row holds 5 items):
    # the search carries 18 groups, not the masks, and answers well before
    # the deadline; a deadline already past still stops it
    import time

    from submine import PartitionScheme
    from submine.engine import SearchTimeout

    rng = random.Random(0)
    db = TransactionDatabase.from_rows(
        [rng.sample(range(1, 9), 4) for _ in range(18)], item_count=8
    )
    scheme = PartitionScheme.build("transactions", 18, [])  # one group per row
    q = Query(theta=HALF, min_size=5, trans=AxisConstraint.group_bounds(1, 18))
    started = time.monotonic()
    assert run_theory(db, q, None, scheme, engine="baseline", deadline=started + 1.0) == []
    assert time.monotonic() - started < 1.0
    with pytest.raises(SearchTimeout):
        run_theory(db, q, None, scheme, engine="baseline", deadline=time.monotonic() - 1)


def test_mine_reads_the_deadline_over_many_live_masks():
    # 7 singleton groups, 1..7 of them: 127 choices listed at each
    # emission, but at most 2^3 nodes, fewer than the node stride
    import time

    from submine.engine import SearchTimeout
    from submine.reference import _DEADLINE_STRIDE, _mine

    db = TransactionDatabase.from_rows([[1, 2, 3]] * 7, item_count=3)
    choices = (tuple(1 << t for t in range(1, 8)), 1, 7)
    assert count_masks(7, 1, 7) > _DEADLINE_STRIDE > 1 << db.item_count

    def mine(deadline):
        return _mine(
            db, db.all_items(), choices, HALF, False, 1, None, 0, 0, None, deadline
        )

    found = mine(None)
    assert len(found) == count_masks(7, 1, 7)
    assert all(len(pats) == 7 for pats in found.values())  # every non-empty itemset
    with pytest.raises(SearchTimeout):
        mine(time.monotonic() - 1)


def test_mine_reads_the_clock_before_a_candidate_filter_over_many_live_groups(monkeypatch):
    # 64 singleton transaction groups, one of them a mask: the root reads
    # the clock on entry and again before it filters a candidate's live
    # groups.  Each child keeps 32 groups and reads no clock, so a clock
    # that passes the deadline on its second read stops only that read
    from types import SimpleNamespace

    from submine.engine import SearchTimeout
    from submine.reference import _DEADLINE_STRIDE, _mine

    db = TransactionDatabase.from_rows([[1 + j % 2] for j in range(64)], item_count=2)
    choices = (tuple(1 << t for t in range(1, 65)), 1, 1)
    assert len(choices[0]) == _DEADLINE_STRIDE

    def mine(deadline):
        return _mine(db, db.all_items(), choices, HALF, True, 1, None, 0, 0, None, deadline)

    assert sorted(map(len, mine(None).values())) == [1] * 64  # {1} or {2} in each row
    reads = []

    def clock():
        reads.append(None)
        return len(reads)

    monkeypatch.setattr("submine.engine.time", SimpleNamespace(monotonic=clock))
    with pytest.raises(SearchTimeout):
        mine(1.5)
    assert len(reads) == 2


def test_choice_floor_keeps_the_groups_of_some_nonnegative_choice():
    # a group survives a candidate iff it lies in some lb..ub choice whose
    # score sum is ≥ 0; the candidate dies iff no choice has one
    from submine.reference import _choice_floor

    rng = random.Random(21)
    for _ in range(3000):
        n = rng.randint(1, 7)
        scores = [rng.randint(-6, 6) for _ in range(n)]
        lb = rng.randint(0, n)
        ub = rng.randint(max(lb, 1), n)
        kept = set()
        for sel in range(1 << n):
            picked = [k for k in range(n) if sel >> k & 1]
            if lb <= len(picked) <= ub and sum(scores[k] for k in picked) >= 0:
                kept.update(picked)
        reached = any(
            lb <= r <= ub and sum(c) >= 0
            for r in range(n + 1) for c in combinations(scores, r)
        )
        floor = _choice_floor(sorted(scores, reverse=True), lb, ub)
        assert (floor is not None) == reached
        if floor is not None:
            assert {k for k in range(n) if scores[k] >= floor} == kept


# ----------------------------------------------- one search, many masks


def _per_mask_union(db, q, item_scheme, trans_scheme):
    """pp_mine's answer rebuilt mask by mask with the one-mask miners."""
    miner = mine_closed if q.closed else mine_frequent
    out = set()
    for mask in enumerate_masks(db, q, item_scheme, trans_scheme):
        for pat in miner(
            db, mask, q.theta, q.min_size, q.span, q.require, q.forbid, item_scheme
        ):
            out.add((*mask, pat))
    return out


def _assert_one_search_is_per_mask(db, q, item_scheme, trans_scheme):
    got = pp_mine(db, q, item_scheme, trans_scheme)
    assert got == _per_mask_union(db, q, item_scheme, trans_scheme)
    assert got == brute_force_theory(db, q, item_scheme, trans_scheme)
    return got


def test_pp_mine_equals_per_mask_mining_random():
    from submine.cli import generate_random_instance

    many = 0  # draws where one item mask has several transaction masks
    for seed in range(200):
        db, ischeme, tscheme, q = generate_random_instance(random.Random(7000 + seed))
        _assert_one_search_is_per_mask(db, q, ischeme, tscheme)
        per_item = {}
        for ib, tb in enumerate_masks(db, q, ischeme, tscheme):
            per_item.setdefault(ib, set()).add(tb)
        many += max(map(len, per_item.values())) > 1
    assert many >= 50


def test_baseline_mines_thousands_of_level_groups_in_time():
    # two levels of one big group each, completed with singletons: 3002
    # distinct masks, and each row lies in two of them.  On a 2-core
    # container (CPython 3.11) this takes about 1.4 s; a search that first
    # makes a pass over the masks for each mask (Venn cells) took 5.5 s
    import time

    from submine.dataset import parse_partition

    rng = random.Random(0)
    db = TransactionDatabase.from_rows(
        [rng.sample(range(1, 9), 3) for _ in range(3000)], item_count=8
    )
    text = (
        f"level 1\nA: {' '.join(map(str, range(1, 1500)))}\n"
        f"level 2\nB: {' '.join(map(str, range(1500, 3000)))}\n"
    )
    scheme = parse_partition(text, db, "transactions")
    assert len({g.members for level in scheme.levels for g in level}) == 3002
    q = build_query(
        parse_query("theta: 1/2\ntrans_active: one-of-levels\n"), db, None, scheme
    )
    started = time.monotonic()
    theory = run_theory(db, q, None, scheme, engine="baseline")
    elapsed = time.monotonic() - started
    # no item lies in half of A or B; each singleton's row is closed there
    assert len(theory) == 3000
    assert {len(p.trans_mask) for p in theory} == {1}
    assert elapsed < 4.0


# verify draws at most 8 transactions, so its closures are short; here a
# cover holds up to 80 rows, and a closure that stops at its floor skips
# most of them, in the baseline's search and in run_theory's check
@pytest.mark.parametrize("trans", ["all", "groups"])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "frequent"])
def test_engines_agree_on_long_covers(closed, trans):
    rng = random.Random(80)
    rows = [[i for i in range(1, 15) if rng.random() < 0.5] for _ in range(80)]
    db = TransactionDatabase.from_rows(rows, item_count=14)
    tscheme = _trans_scheme(80, [(f"T{g}", range(20 * g - 19, 20 * g + 1)) for g in (1, 2, 3, 4)])
    axis = AxisConstraint.all_active()
    if trans == "groups":
        axis = AxisConstraint.group_bounds(1, 2)  # 10 masks over 4 cells
    q = Query(theta=Fraction(1, 8), closed=closed, trans=axis)
    cp, baseline, oracle = (
        run_theory(db, q, None, tscheme, engine=e) for e in ("cp", "baseline", "oracle")
    )
    assert cp == baseline == oracle
    assert len({p.trans_mask for p in cp}) == (1 if trans == "all" else 10)
    assert max(p.support for p in cp) >= 20 and max(len(p.items) for p in cp) >= 5


# items a..e; the item scheme only serves the span variants
_a, _b, _c, _d, _e = range(1, 6)


def _item_scheme():
    from submine import PartitionScheme

    return PartitionScheme.build("items", 5, [("I1", [_a, _b]), ("I2", [_c, _d])])


def _trans_scheme(size, groups, extra_levels=()):
    from submine import PartitionScheme

    return PartitionScheme.build("transactions", size, groups, extra_levels)


def _union_only_answer():
    # a: 1/4 in T1 (infrequent), 3/4 in T2 but closed there only with b,
    # 4/8 in T1 ∪ T2 and closed: an answer only in the two-group mask
    rows = [[_a], [_c], [_c], [_c, _e], [_a, _b], [_a, _b], [_a, _b], [_d],
            [_c, _d], [_c, _d]]
    groups = [("T1", [1, 2, 3, 4]), ("T2", [5, 6, 7, 8]), ("T3", [9, 10])]
    return rows, _trans_scheme(10, groups), AxisConstraint.group_bounds(1, 2)


def _closed_in_union_only():
    # a is in every row, so it is the closure of the empty set over
    # T1 ∪ T2, but T1 closes it with b and T2 with c; T1 ∪ T2 is no mask
    rows = [[_a, _b, _d], [_a, _b], [_a, _c], [_a, _c, _d]]
    groups = [("T1", [1, 2]), ("T2", [3, 4])]
    return rows, _trans_scheme(4, groups), AxisConstraint.group_bounds(1, 1)


def _live_set_shrinks():
    # from root a (masks T1, T2, T1 ∪ T2 live), b keeps T1 and T1 ∪ T2 and
    # closes to ab; then c keeps only T1, so the base narrows to T1 and
    # abc is reached by a closure over T1 alone
    rows = [[_a, _b, _c], [_a, _b, _c], [_a, _d], [_a, _b], [_a, _d], [_a, _d, _e]]
    groups = [("T1", [1, 2, 3]), ("T2", [4, 5, 6])]
    return rows, _trans_scheme(6, groups), AxisConstraint.group_bounds(1, 2)


def _non_nested_levels():
    # two levels whose groups cut across each other: four overlapping
    # masks over four cells of two transactions each
    rows = [[_a, _b, _c], [_a, _b], [_a, _c, _d], [_b, _c, _d],
            [_a, _b, _e], [_b, _c], [_a, _d, _e], [_a, _b, _d]]
    level1 = [("L1", [1, 2, 3, 4]), ("L2", [5, 6, 7, 8])]
    level2 = [("M1", [1, 2, 5, 6]), ("M2", [3, 4, 7, 8])]
    return rows, _trans_scheme(8, level1, [level2]), AxisConstraint.one_per_level()


_CRAFTED = {
    "union-only-answer": _union_only_answer,
    "closed-in-union-only": _closed_in_union_only,
    "live-set-shrinks": _live_set_shrinks,
    "non-nested-levels": _non_nested_levels,
}

_VARIANTS = {
    "plain": {},
    "minsize": {"min_size": 2},
    "require": {"require": bits_of([_a])},
    "forbid": {"forbid": bits_of([_b])},
    "span": {"span": (1, 1)},
}


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "frequent"])
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("case", sorted(_CRAFTED))
def test_pp_mine_crafted_many_masks(case, variant, closed):
    rows, tscheme, trans = _CRAFTED[case]()
    db = TransactionDatabase.from_rows(rows, item_count=5)
    q = Query(theta=HALF, closed=closed, trans=trans, **_VARIANTS[variant])
    _assert_one_search_is_per_mask(db, q, _item_scheme(), tscheme)


def _lb_zero_groups():
    # the union-only data with lb = 0: the empty mask is a choice too,
    # and holds no answer
    rows, tscheme, _ = _union_only_answer()
    return rows, tscheme, AxisConstraint.group_bounds(0, 2)


def _identical_group_in_two_levels():
    # level 2 repeats level 1's L1 as M1: the mask 1..4 comes from two
    # choices, and each of its pairs is one answer
    rows = [[_a, _b, _c], [_a, _b], [_a, _c, _d], [_b, _c, _d],
            [_a, _b, _e], [_b, _c], [_a, _d, _e], [_a, _b, _d]]
    level1 = [("L1", [1, 2, 3, 4]), ("L2", [5, 6, 7, 8])]
    level2 = [("M1", [1, 2, 3, 4]), ("M2", [5, 6]), ("M3", [7, 8])]
    return rows, _trans_scheme(8, level1, [level2]), AxisConstraint.one_per_level()


def _nested_three_levels():
    # region, department and city: each row lies in three nested masks,
    # and an itemset closed in a region or department may close further
    # in one of its cities (a is closed in 1..4 but closes to ab in 1, 2)
    rows = [[_a, _b, _c], [_a, _b], [_a, _b, _d], [_a, _c],
            [_b, _c, _d], [_b, _c], [_a, _b, _c, _e], [_c, _d],
            [_a, _d, _e], [_d, _e], [_a, _b, _e], [_b, _d, _e]]
    region = [("North", range(1, 9)), ("South", range(9, 13))]
    department = [("N1", [1, 2, 3, 4]), ("N2", [5, 6, 7, 8]), ("S1", [9, 10]),
                  ("S2", [11, 12])]
    city = [("C1", [1, 2]), ("C2", [3, 4]), ("C3", [5, 6]), ("C4", [7, 8]),
            ("C5", [9]), ("C6", [10]), ("C7", [11]), ("C8", [12])]
    return (rows, _trans_scheme(12, region, [department, city]),
            AxisConstraint.one_per_level())


_CRAFTED_CHOICES = {
    "lb-zero-groups": _lb_zero_groups,
    "identical-group-in-two-levels": _identical_group_in_two_levels,
    "nested-three-levels": _nested_three_levels,
}


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "frequent"])
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("case", sorted(_CRAFTED_CHOICES))
def test_engines_agree_on_crafted_choices(case, variant, closed):
    rows, tscheme, trans = _CRAFTED_CHOICES[case]()
    db = TransactionDatabase.from_rows(rows, item_count=5)
    q = Query(theta=HALF, closed=closed, trans=trans, **_VARIANTS[variant])
    _assert_one_search_is_per_mask(db, q, _item_scheme(), tscheme)
    cp, baseline, oracle = (
        run_theory(db, q, _item_scheme(), tscheme, engine=e)
        for e in ("cp", "baseline", "oracle")
    )
    assert cp == baseline == oracle
    assert len(set(cp)) == len(cp)
    if variant == "plain":
        masks = {p.trans_mask for p in cp}
        if case == "lb-zero-groups":
            # answers on one group and on two, none on the empty mask
            assert {(5, 6, 7, 8), tuple(range(1, 9))} <= masks
            assert () not in masks
        else:
            assert (1, 2, 3, 4) in masks


def _itemsets_by_mask(case):
    rows, tscheme, trans = _CRAFTED[case]()
    db = TransactionDatabase.from_rows(rows, item_count=5)
    got = _assert_one_search_is_per_mask(
        db, Query(theta=HALF, trans=trans), None, tscheme
    )
    out = {}
    for _, tb, pat in got:
        out.setdefault(tuple(indices_of(tb)), set()).add(tuple(indices_of(pat)))
    return out


def test_pp_mine_crafted_answers():
    union_only = _itemsets_by_mask("union-only-answer")
    assert (_a,) in union_only[1, 2, 3, 4, 5, 6, 7, 8]
    assert (_a,) not in union_only.get((1, 2, 3, 4), set())
    assert (_a,) not in union_only[5, 6, 7, 8]
    assert (_a, _b) in union_only[5, 6, 7, 8]

    closed_in_union = _itemsets_by_mask("closed-in-union-only")
    assert set(closed_in_union) == {(1, 2), (3, 4)}
    assert all((_a,) not in found for found in closed_in_union.values())

    shrinks = _itemsets_by_mask("live-set-shrinks")
    assert (_a, _b, _c) in shrinks[1, 2, 3]
    assert (_a, _b) in shrinks[1, 2, 3, 4, 5, 6]

    levels = _itemsets_by_mask("non-nested-levels")
    assert len(levels) == 4
