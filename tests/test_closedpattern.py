import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    HALF,
    Channel,
    apply_state,
    assign,
    build_mining_solver,
    mining_extensions,
    random_mask_state,
    theory_labels,
)
from submine import PartitionScheme, Query, TransactionDatabase, run_theory
from submine.cli import _random_groups
from submine.closedpattern import ClosedPatternSub
from submine.constraints import GroupChoice
from submine.dataset import bits_of, iter_bits, span_bits
from submine.engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, Solver
from submine.queries import AxisConstraint
from submine.reference import brute_force_theory


def test_closed_pattern_full_mask(db1):
    theory = run_theory(db1, Query(theta=HALF), engine="cp")
    assert {"".join(p.labels) for p in theory} == {"A", "B", "EF", "GK"}
    assert all(p.support == 3 for p in theory)


def test_closed_pattern_transaction_sub(db1):
    q = Query(theta=HALF, trans=AxisConstraint.fixed(bits_of([3, 4, 5, 6])))
    theory = run_theory(db1, q, engine="cp")
    assert {"".join(p.labels) for p in theory} == {"A", "BEF", "EF"}


def test_closed_pattern_double_sub(db1):
    q = Query(
        theta=HALF,
        items=AxisConstraint.fixed(bits_of(range(3, 10))),  # I2+I3
        trans=AxisConstraint.fixed(bits_of([3, 4, 5, 6])),  # T2+T3
    )
    theory = run_theory(db1, q, engine="cp")
    assert {"".join(p.labels) for p in theory} == {"EF"}


def test_frequent_sub_full_mask(db1):
    theory = run_theory(db1, Query(theta=HALF, closed=False), engine="cp")
    got = {"".join(p.labels) for p in theory}
    # brute-forced over the table: all itemsets with support >= 3
    assert got == {"A", "B", "E", "F", "G", "K", "EF", "GK"}
    assert got > {"A", "B", "EF", "GK"}


def test_frequent_sub_theta_just_above_half(db1):
    # the best support of any itemset is 3 of 6 < 51%
    assert run_theory(db1, Query(theta=Fraction(51, 100), closed=False)) == []


def test_frequent_sub_single_transaction():
    db = TransactionDatabase.from_rows([[1, 3, 4]], item_count=4)
    theory = run_theory(db, Query(theta=Fraction(1), closed=False))
    assert {p.items for p in theory} == {
        (1,),
        (3,),
        (4,),
        (1, 3),
        (1, 4),
        (3, 4),
        (1, 3, 4),
    }


def test_global_equals_oracle_random():
    from submine.cli import generate_random_instance

    rng = random.Random(77)
    for _ in range(20):
        db, ischeme, tscheme, query = generate_random_instance(rng)
        via_global = run_theory(db, query, ischeme, tscheme, engine="cp")
        via_oracle = run_theory(db, query, ischeme, tscheme, engine="oracle")
        assert theory_labels(via_global) == theory_labels(via_oracle)


def test_size_aware_rule_against_baseline_and_oracle():
    # the minimum size redrawn up to 5, so that under a fixed V cp's
    # size-aware rule fails, drops and takes on many of these queries
    from submine.cli import generate_random_instance

    rng = random.Random(28)
    for _ in range(2000):
        db, ischeme, tscheme, query = generate_random_instance(rng)
        query = replace(query, min_size=rng.randint(1, min(db.item_count, 5)))
        cp, baseline, oracle = (
            theory_labels(run_theory(db, query, ischeme, tscheme, engine=engine))
            for engine in ("cp", "baseline", "oracle")
        )
        assert cp == baseline == oracle, query


def _random_small_db(rng):
    n = rng.randint(2, 6)
    m = rng.randint(2, 6)
    rows = [[i for i in range(1, n + 1) if rng.random() < 0.5] for _ in range(m)]
    return TransactionDatabase.from_rows(rows, item_count=n)


def _absent_ids_db(rng):
    """A random small database whose item_count leaves 1-3 ids that no
    row holds; every other id is held by some row."""
    held = rng.randint(1, 4)
    n = held + rng.randint(1, 3)
    ids = rng.sample(range(1, n + 1), held)
    rows = [[i for i in ids if rng.random() < 0.5] for _ in range(rng.randint(2, 5))]
    for i in ids:
        if not any(i in r for r in rows):
            rng.choice(rows).append(i)
    return TransactionDatabase.from_rows(rows, item_count=n)


def check_state_exact(rng, closed=True, absent=False):
    """One random trial: under a fixed mask the global propagator is exact
    against the definition.  It fails iff no itemset extends the state,
    and it fixes a free item to v iff every extension has v.  With
    ``absent``, the database leaves ids that no row holds and a quarter
    of the states have V₁ = ∅.  Returns a short tag describing the
    outcome."""
    db = _absent_ids_db(rng) if absent else _random_small_db(rng)
    theta = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)))
    h_bits, v_bits, x_state = random_mask_state(rng, db.item_count, db.transaction_count)
    if absent and rng.random() < 0.25:
        v_bits = 0

    s, handles = build_mining_solver(db, theta, closed)
    ok, fixed = apply_state(s, handles, db, h_bits, v_bits, x_state)
    exts = mining_extensions(db, theta, closed, h_bits, v_bits, x_state)

    assert ok == bool(exts), (
        "global propagator failed a satisfiable state"
        if exts
        else "global propagator accepted a state with no extension"
    )
    if not ok:
        return "fail"
    for i in range(1, db.item_count + 1):
        if i in x_state:
            continue
        values = {xbits >> i & 1 for xbits in exts}
        agreed = values.pop() if len(values) == 1 else None
        assert fixed.get(i) == agreed, (
            f"x{i} fixed to {fixed.get(i)}, extensions agree on {agreed}"
        )
    return "ok"


def test_fixed_mask_dominance_and_soundness():
    rng = random.Random(42)
    for _ in range(150):
        check_state_exact(rng, closed=True)


def test_fixed_mask_dominance_frequent_mode():
    rng = random.Random(43)
    for _ in range(60):
        check_state_exact(rng, closed=False)


@pytest.mark.parametrize("closed", [True, False])
def test_fixed_mask_exact_with_ids_no_row_holds(closed):
    rng = random.Random(44 + closed)
    tags = Counter(check_state_exact(rng, closed, absent=True) for _ in range(200))
    assert tags["fail"] >= 20 and tags["ok"] >= 20, tags


def test_post_refuses_roles_short_of_the_axis(db1):
    for sizes, role, size in (
        ((9, 6, 8), "X", 9),
        ((8, 6, 9), "H", 9),
        ((9, 5, 9), "V", 6),
    ):
        s = Solver()
        for r, count in zip((ROLE_H, ROLE_V, ROLE_X), sizes):
            s.add(r, count)
        with pytest.raises(ValueError, match=f"{size} of role '{role}', which has 1..{size - 1}$"):
            s.post(ClosedPatternSub(db1, HALF))
    s = Solver()
    for r, count in zip((ROLE_H, ROLE_V, ROLE_X), (9, 6, 9)):
        s.add(r, count)
    s.post(ClosedPatternSub(db1, HALF))


# ------------------------------------------- the per-group support bound


def _random_choice(rng, m):
    """The (groups, lb, ub) of a random choice on a random transaction
    scheme: lb..ub groups of its partition, or one-of-levels over a nested
    or an unrelated second level."""
    level1 = _random_groups(rng, m, "G")
    if rng.random() < 0.5:
        scheme = PartitionScheme.build("transactions", m, level1)
        k = scheme.group_count()
        lb = rng.randint(0, k)
        con = AxisConstraint.group_bounds(lb, rng.randint(lb, k))
    else:
        if rng.random() < 0.5:
            # nested: merge runs of level-1 groups
            level2, run = [], []
            for name, ids in level1:
                run += ids
                if rng.random() < 0.5:
                    level2.append((f"L{name}", run))
                    run = []
            if run:
                level2.append(("Lrest", run))
        else:
            level2 = _random_groups(rng, m, "L")
        scheme = PartitionScheme.build("transactions", m, level1, [level2])
        con = AxisConstraint.one_per_level()
    return con.choices(span_bits(1, m), scheme)


def _answers(db, theta, closed, h_bits, v_bits):
    """Every answer itemset of the fixed mask (h_bits, v_bits), from the
    oracle, which decides from the rows alone."""
    query = Query(
        theta=theta,
        closed=closed,
        items=AxisConstraint.fixed(h_bits),
        trans=AxisConstraint.fixed(v_bits),
    )
    return [pat for _, _, pat in brute_force_theory(db, query)]


def check_group_bound(rng):
    """One random trial of ``ClosedPatternSub`` with the group bound on a
    partial state: random indicator values and a random ``x1``, one
    fixpoint, then a check against every completion.  Returns a short tag
    describing the outcome."""
    n, m = rng.randint(2, 5), rng.randint(3, 7)
    density = rng.uniform(0.3, 0.8)
    rows = [[i for i in range(1, n + 1) if rng.random() < density] for _ in range(m)]
    db = TransactionDatabase.from_rows(rows, item_count=n)
    theta = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
    closed = rng.random() < 0.6
    groups, lb, ub = _random_choice(rng, m)
    h_bits = bits_of(i for i in range(1, n + 1) if rng.random() < 0.8)
    flags = {k: rng.randint(0, 1) for k in range(len(groups)) if rng.random() < 0.3}
    x1 = bits_of(i for i in iter_bits(h_bits) if rng.random() < 0.25)

    s = Solver()
    s.add(ROLE_H, n)
    s.add(ROLE_V, m)
    s.add(ROLE_X, n)
    first = s.add(ROLE_AUX, len(groups))
    # the state first, then the propagators: one fixpoint over all of them
    s.assign_bits(ROLE_H, h_bits, 1)
    s.assign_bits(ROLE_H, span_bits(1, n) & ~h_bits, 0)
    s.assign_bits(ROLE_X, x1, 1)
    for k, val in flags.items():
        assign(s, (ROLE_AUX, first + k), val)
    s.post(GroupChoice(groups, ROLE_V, span_bits(1, m), first, lb, ub))
    s.post(ClosedPatternSub(db, theta, closed, (groups, lb, ub), first))

    answers = []  # of every completion, each a superset of x1
    for r in range(lb, ub + 1):
        for chosen in combinations(range(len(groups)), r):
            if any((k in chosen) != val for k, val in flags.items()):
                continue
            v_bits = 0
            for k in chosen:
                v_bits |= groups[k]
            answers += [a for a in _answers(db, theta, closed, h_bits, v_bits) if a & x1 == x1]
    if s.root_failed:
        assert not answers, "the bound failed a state with an answer"
        return "fail"
    dropped = s.fixed(ROLE_X)[1] & h_bits
    for a in answers:
        assert not a & dropped, f"the bound dropped an item of answer {a:b}"
    return "drop" if dropped else "ok"


def test_group_bound_against_brute_force():
    rng = random.Random(9)
    tags = Counter(check_group_bound(rng) for _ in range(400))
    # the bound must have pruned, both ways, for the check to mean anything
    assert tags["fail"] >= 20 and tags["drop"] >= 20, tags


def test_group_bound_needs_disjoint_groups_or_one_choice(db1):
    s, _ = build_mining_solver(db1, HALF, True)
    first = s.add(ROLE_AUX, 2)
    overlapping = (bits_of([1, 2, 3]), bits_of([3, 4]))
    with pytest.raises(ValueError, match="disjoint groups or ub = 1"):
        s.post(ClosedPatternSub(db1, HALF, True, (overlapping, 0, 2), first))
    # one group at most: overlap is fine
    s.post(ClosedPatternSub(db1, HALF, True, (overlapping, 1, 1), first))


# -------------------------------------------- state carried along a path

_PATH_ROLES = (ROLE_AUX, ROLE_H, ROLE_V, ROLE_X)


def _path_model(db, theta, closed, choice, state=None):
    """The transaction group choice if any, and the mining propagator,
    which also channels X to H.  ``state`` (role -> (ones, zeros)) is
    loaded before the first propagator is posted, so the solver runs one
    fixpoint on it."""
    n, m = db.item_count, db.transaction_count
    s = Solver()
    s.add(ROLE_H, n)
    s.add(ROLE_V, m)
    s.add(ROLE_X, n)
    k = len(choice[0]) if choice else 0
    first = s.add(ROLE_AUX, k)
    for role, (ones, zeros) in (state or {}).items():
        s.assign_bits(role, ones, 1)
        s.assign_bits(role, zeros, 0)
    if choice:
        groups, lb, ub = choice
        s.post(GroupChoice(groups, ROLE_V, span_bits(1, m), first, lb, ub))
    s.post(ClosedPatternSub(db, theta, closed, choice, first))
    return s, {ROLE_AUX: k, ROLE_H: n, ROLE_V: m, ROLE_X: n}


def check_search_replay(rng, closed, with_choice, steps=60):
    """Random DFS paths through one random model: push a level, fix one
    free variable (mostly in search order), propagate, and now and then
    pop back a few levels.  Every node must get the verdict and the X
    fixings of a fresh propagator posted on the node's state.  Returns
    the number of nodes reached with the mask fixed."""
    n, m = rng.randint(3, 7), rng.randint(3, 7)
    density = rng.uniform(0.4, 0.9)
    rows = [[i for i in range(1, n + 1) if rng.random() < density] for _ in range(m)]
    db = TransactionDatabase.from_rows(rows, item_count=n)
    theta = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)))
    choice = _random_choice(rng, m) if with_choice else None
    s, sizes = _path_model(db, theta, closed, choice)
    if s.root_failed:
        return 0
    depth = masked = 0
    for _ in range(steps):
        frees = []  # (role, free positions), in search order
        for role in _PATH_ROLES:
            ones, zeros = s.fixed(role)
            bits = span_bits(1, sizes[role]) & ~(ones | zeros)
            if bits:
                frees.append((role, bits))
        if not frees or depth and rng.random() < 0.15:
            if not depth:
                break
            for _ in range(rng.randint(1, min(depth, 3))):
                s.pop_level()
                depth -= 1
            continue
        role, bits = frees[0] if rng.random() < 0.9 else rng.choice(frees)
        bit = 1 << rng.choice(list(iter_bits(bits)))
        s.push_level()
        depth += 1
        assert s.assign_bits(role, bit, rng.randint(0, 1))
        state = {role: s.fixed(role) for role in _PATH_ROLES}
        ok = s.propagate_to_fixpoint()
        fresh, _ = _path_model(db, theta, closed, choice, state)
        assert ok == (not fresh.root_failed), (rows, theta, choice, state)
        if ok:
            assert s.fixed(ROLE_X) == fresh.fixed(ROLE_X), (rows, theta, choice, state)
            h1, h0 = s.fixed(ROLE_H)
            v1, v0 = s.fixed(ROLE_V)
            masked += (h1 | h0).bit_count() == n and (v1 | v0).bit_count() == m
        else:
            s.pop_level()
            depth -= 1
    return masked


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("with_choice", [True, False])
def test_search_replay_matches_fresh_propagator(closed, with_choice):
    rng = random.Random(2017 + 2 * closed + with_choice)
    masked = sum(check_search_replay(rng, closed, with_choice) for _ in range(40))
    # the reversible state is in play only under a fixed mask
    assert masked >= 100, masked


def check_search_exact(rng, tags):
    """One random model, a transaction group choice and the mining
    propagator, searched through ``search_all``.  At every fixpoint under a
    fixed mask the propagator is exact against the definition: some
    itemset extends the state, and the extensions disagree on every free
    item.  The solutions are the answers of every mask the choice allows.
    ``tags`` counts the fixed-mask fixpoints, and those reached with a
    saved fixpoint on their path."""
    n, m = rng.randint(2, 5), rng.randint(3, 7)
    density = rng.uniform(0.3, 0.8)
    rows = [[i for i in range(1, n + 1) if rng.random() < density] for _ in range(m)]
    db = TransactionDatabase.from_rows(rows, item_count=n)
    theta = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
    closed = rng.random() < 0.8
    choice = _random_choice(rng, m)
    s, _ = _path_model(db, theta, closed, choice)
    items, trans = span_bits(1, n), span_bits(1, m)
    fixpoint = s.propagate_to_fixpoint

    def checked():
        # the mining propagator's slot is the only one: (x1, cov, tested),
        # x1 None until the mask is fixed on the path
        saved_x1 = s.slots[0][0]
        ok = fixpoint()
        h1, h0 = s.fixed(ROLE_H)
        v1, v0 = s.fixed(ROLE_V)
        if ok and h1 | h0 == items and v1 | v0 == trans:
            x1, x0 = s.fixed(ROLE_X)
            x_state = {i: 1 for i in iter_bits(x1)} | {i: 0 for i in iter_bits(x0)}
            exts = mining_extensions(db, theta, closed, h1, v1, x_state)
            assert exts, (rows, theta, choice, h1, v1, x_state)
            for i in iter_bits(items & ~(x1 | x0)):
                assert {xbits >> i & 1 for xbits in exts} == {0, 1}, (rows, theta, choice, i)
            tags["fixed mask"] += 1
            tags["saved fixpoint"] += saved_x1 is not None
        return ok

    s.propagate_to_fixpoint = checked
    found = set()
    s.search_all(lambda: found.add((s.fixed(ROLE_H)[0], s.fixed(ROLE_V)[0], s.fixed(ROLE_X)[0])))
    groups, lb, ub = choice
    expected = set()
    for r in range(lb, ub + 1):
        for chosen in combinations(groups, r):
            v_bits = 0
            for g in chosen:
                v_bits |= g
            for h_bits in range(0, items + 1, 2):
                for xbits in mining_extensions(db, theta, closed, h_bits, v_bits, {}):
                    expected.add((h_bits, v_bits, xbits))
    assert found == expected, (rows, theta, closed, choice)


def test_exact_at_every_fixed_mask_fixpoint_of_the_search():
    rng = random.Random(1801)
    tags = Counter()
    for _ in range(60):
        check_search_exact(rng, tags)
    assert tags["saved fixpoint"] >= 3000, tags


def test_same_mask_reached_in_sibling_subtrees():
    # level 1 and level 2 each hold one group over all rows, so one-of-levels
    # reaches the full mask once per level; item 5's column lies inside
    # those of items 1 and 2, so the closedness rules fire in both subtrees
    rows = [[1, 2, 3, 5], [1, 2, 5], [1, 3], [2, 3], [1, 4], [2, 4]]
    db = TransactionDatabase.from_rows(rows, item_count=5)
    everything = [("T", range(1, 7))]
    scheme = PartitionScheme.build("transactions", 6, everything, [[("U", range(1, 7))]])
    q = Query(theta=Fraction(1, 3), trans=AxisConstraint.one_per_level())
    stats = {}
    cp = run_theory(db, q, None, scheme, engine="cp", stats=stats)
    assert theory_labels(cp) == theory_labels(run_theory(db, q, None, scheme, engine="baseline"))
    assert theory_labels(cp) == theory_labels(run_theory(db, q, None, scheme, engine="oracle"))
    assert {p.items for p in cp} == {(1,), (2,), (3,), (4,), (1, 2, 5), (1, 3), (2, 3)}
    # pinned: the counts of the propagator that kept no state across calls
    assert stats == {"nodes": 26, "masks": 2}


def test_items_fixed_two_at_once_retest_every_excluded_column():
    # e's column holds the cover of {a, b}, row 1, but neither that of a
    # nor that of b; the parent fixpoint tests e against the whole table
    a, b, e = 1, 2, 3
    db = TransactionDatabase.from_rows([[a, b, e], [a], [b]], item_count=3)
    theta = Fraction(1, 3)
    s = Solver()
    s.add(ROLE_H, 3)
    s.add(ROLE_V, 3)
    s.add(ROLE_X, 3)
    everything = span_bits(1, 3)
    s.assign_bits(ROLE_H, everything, 1)
    s.assign_bits(ROLE_V, everything, 1)
    s.assign_bits(ROLE_X, 1 << e, 0)
    # posted first, so it sets b before the mining propagator wakes for a
    s.post(Channel((ROLE_X, b), (ROLE_X, a)))
    s.post(ClosedPatternSub(db, theta))
    assert not s.root_failed
    saved_x1, _, tested = s.slots[0]
    assert (saved_x1, tested) == (0, 1 << e)
    s.push_level()
    assert s.assign_bits(ROLE_X, 1 << a, 1)
    assert not s.propagate_to_fixpoint()
    assert mining_extensions(db, theta, True, everything, everything, {a: 1, b: 1, e: 0}) == []


def test_excluded_column_at_the_support_threshold_still_dominates():
    # e's cover support, row 1 of rows 1-2, meets θ = 1/2 exactly, and
    # item i has the same cover, so no closed itemset holds i once e is out
    i, e, o = 1, 2, 3
    db = TransactionDatabase.from_rows([[i, e], [o]], item_count=3)
    everything = span_bits(1, 3)
    s, handles = build_mining_solver(db, HALF, True)
    ok, fixed = apply_state(s, handles, db, everything, span_bits(1, 2), {e: 0})
    assert ok and fixed == {i: 0, e: 0}
    exts = mining_extensions(db, HALF, True, everything, span_bits(1, 2), {e: 0})
    assert sorted(exts) == [0, 1 << o]
