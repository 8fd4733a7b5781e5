import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    UNASSIGNED,
    CategorySpan,
    E,
    F,
    G,
    HALF,
    K,
    add_vars,
    assign,
    snapshot,
    table1_item_scheme,
    value,
)
from submine import PartitionScheme, Query, TransactionDatabase, run_theory
from submine.constraints import GroupChoice, post_group_choice
from submine.dataset import bits_of, iter_bits, span_bits
from submine.engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, Solver


def _singleton_scheme(axis, size):
    return PartitionScheme.build(axis, size, [(f"g{i}", [i]) for i in range(1, size + 1)])


def _members(scheme):
    return [g.members for g in scheme.groups]


def _all_levels(scheme):
    return [g.members for level in scheme.levels for g in level]


# --------------------------------------------------------- group activation


@pytest.mark.parametrize(
    "k,lb,ub,expected",
    [
        (6, 2, 3, 35),  # zoo-style item bounds
        (10, 1, 10, 1023),
        (4, 4, 4, 1),
        (3, 0, 3, 8),
    ],
)
def test_group_activation_vector_counts(k, lb, ub, expected):
    s = Solver()
    s.add(ROLE_H, k)
    post_group_choice(s, _members(_singleton_scheme("items", k)), ROLE_H, span_bits(1, k), lb, ub)
    assert s.search_all() == expected


def test_group_activation_all_or_none():
    scheme = PartitionScheme.build("items", 5, [("a", [1, 2]), ("b", [3, 4, 5])])
    s = Solver()
    h = [None] + add_vars(s, ROLE_H, 5)
    post_group_choice(s, _members(scheme), ROLE_H, span_bits(1, 5), 1, 2)
    masks = set()
    s.search_all(on_solution=lambda: masks.add(snapshot(s, h[1:6])))
    assert masks == {(1, 1, 0, 0, 0), (0, 0, 1, 1, 1), (1, 1, 1, 1, 1)}


def test_group_activation_bad_bounds():
    s = Solver()
    s.add(ROLE_H, 3)
    groups = _members(_singleton_scheme("items", 3))
    with pytest.raises(ValueError, match="bounds"):
        post_group_choice(s, groups, ROLE_H, span_bits(1, 3), 2, 1)


def test_min_max_encoding_equivalence():
    # on every full assignment the indicator count equals both the sum of
    # group minima and the sum of group maxima of the member variables
    rng = random.Random(5)
    for _ in range(20):
        size = rng.randint(2, 6)
        scheme = _random_scheme(rng, size)
        k = scheme.group_count()
        lb = rng.randint(0, k)
        ub = rng.randint(lb, k)
        s = Solver()
        h = [None] + add_vars(s, ROLE_H, size)
        first = post_group_choice(s, _members(scheme), ROLE_H, span_bits(1, size), lb, ub)
        indicators = [(ROLE_AUX, first + g) for g in range(k)]
        sols = []
        s.search_all(on_solution=lambda: sols.append({v: value(s, v) for v in h[1:] + indicators}))
        for snap in sols:
            sum_min = sum(
                min(snap[h[i]] for i in iter_bits(g.members)) for g in scheme.groups
            )
            sum_max = sum(
                max(snap[h[i]] for i in iter_bits(g.members)) for g in scheme.groups
            )
            active = sum(snap[b] for b in indicators)
            assert sum_min == sum_max == active
            assert lb <= active <= ub


def _random_scheme(rng, size):
    ids = list(range(1, size + 1))
    rng.shuffle(ids)
    k = rng.randint(1, size)
    cuts = sorted(rng.sample(range(1, size), k - 1)) if k > 1 else []
    groups, prev = [], 0
    for gi, cut in enumerate([*cuts, size]):
        groups.append((f"g{gi}", ids[prev:cut]))
        prev = cut
    return PartitionScheme.build("items", size, groups)


def _group_choice_case(rng):
    """(axis size, groups, lb, ub, one level?): one partition with random
    bounds, or several levels, nested or not, with (1, 1)."""
    size = rng.randint(1, 6)
    level = _members(_random_scheme(rng, size))
    if rng.random() < 0.5:
        lb = rng.randint(0, len(level))
        return size, level, lb, rng.randint(lb, len(level)), True
    nested = rng.random() < 0.5
    groups = list(level)
    for _ in range(rng.randint(1, 2)):
        if nested:  # cut each group of the level above in one or two
            level = [part for g in level for part in _cut(rng, g)]
        else:
            level = _members(_random_scheme(rng, size))
        groups.extend(level)
    return size, groups, 1, 1, False


def _cut(rng, bits):
    members = list(iter_bits(bits))
    k = rng.randint(1, len(members))
    return [g for g in (bits_of(members[:k]), bits_of(members[k:])) if g]


def test_group_choice_against_brute_force():
    rng = random.Random(8)
    for _ in range(400):
        size, groups, lb, ub, one_level = _group_choice_case(rng)
        k = len(groups)
        # a full assignment: the indicators, then the axis positions 1..size
        solutions = []
        for r in range(lb, ub + 1):
            for chosen in combinations(range(k), r):
                active = 0
                for g in chosen:
                    active |= groups[g]
                solutions.append(
                    tuple(int(g in chosen) for g in range(k))
                    + tuple(active >> j & 1 for j in range(1, size + 1))
                )
        state = {p: rng.randint(0, 1) for p in range(k + size) if rng.random() < 0.3}
        extending = [sol for sol in solutions if all(sol[p] == b for p, b in state.items())]

        s = Solver()
        indicators = add_vars(s, ROLE_AUX, k)
        v = [None] + add_vars(s, ROLE_V, size)
        handles = indicators + v[1:]
        for p, b in state.items():
            assign(s, handles[p], b)
        s.post(GroupChoice(groups, ROLE_V, span_bits(1, size), indicators[0][1], lb, ub))
        # fails exactly when no solution extends the state
        assert s.root_failed == (not extending)
        if s.root_failed:
            continue
        for p, var in enumerate(handles):
            shared = {sol[p] for sol in extending}
            if value(s, var) != UNASSIGNED:
                assert shared == {value(s, var)}
            elif one_level:
                # on one partition every value all solutions share is fixed
                assert len(shared) == 2
        found = []
        s.search_all(on_solution=lambda: found.append(snapshot(s, handles)))
        assert sorted(found) == sorted(extending)


# ------------------------------------------------------------ category span


def _span_consistent(assignment, lb, ub):
    scheme = table1_item_scheme()
    s = Solver()
    x = [None] + add_vars(s, ROLE_X, 9)
    s.post(CategorySpan(ROLE_X, span_bits(1, 9), scheme.groups, lb, ub))
    s.push_level()
    ok = True
    for i in range(1, 10):
        ok = ok and assign(s, x[i], 1 if i in assignment else 0)
    ok = ok and s.propagate_to_fixpoint()
    s.pop_level()
    return ok


def test_span_examples():
    assert _span_consistent({E, F}, 2, 2)  # E in I2, F in I3
    assert not _span_consistent({G, K}, 2, 3)  # both in I3
    assert _span_consistent(set(), 0, 0)
    assert not _span_consistent(set(), 1, 3)


def test_span_counts_groups_on_full_assignments():
    rng = random.Random(6)
    scheme = table1_item_scheme()
    for _ in range(50):
        chosen = {i for i in range(1, 10) if rng.random() < 0.4}
        bits = bits_of(chosen)
        touched = sum(1 for g in scheme.groups if g.members & bits)
        lb = rng.randint(0, 3)
        ub = rng.randint(lb, 3)
        assert _span_consistent(chosen, lb, ub) == (lb <= touched <= ub)


# ------------------------------------------------------- min size, fixings


def test_min_size_two_filters_q1(db1):
    theory = run_theory(db1, Query(theta=HALF, min_size=2))
    assert {"".join(p.labels) for p in theory} == {"EF", "GK"}


def test_required_then_forbidden_is_root_failure():
    s = Solver()
    s.add(ROLE_X, 3)
    s.assign_root(ROLE_X, bits_of([2]), 1)
    s.assign_root(ROLE_X, bits_of([2]), 0)
    assert s.root_failed


def test_required_unsupported_item_gives_empty_theory():
    db = TransactionDatabase.from_rows([[1], [2]], item_count=3)
    theory = run_theory(db, Query(theta=Fraction(1, 2), require=bits_of([3])))
    assert theory == []


def test_requiring_ferrari_keeps_it_everywhere(db1):
    theory = run_theory(db1, Query(theta=Fraction(1, 6), require=bits_of([G])))
    assert theory and all(G in p.items for p in theory)


def test_forbid_nothing_changes_nothing(db1):
    assert run_theory(db1, Query(theta=HALF)) == run_theory(
        db1, Query(theta=HALF, forbid=0)
    )


def test_forbid_everything_empties_theory(db1):
    theory = run_theory(db1, Query(theta=Fraction(1, 6), forbid=db1.all_items()))
    assert theory == []


# -------------------------------------------------------- exactly one group


def _nested_scheme():
    regions = [("R1", [1, 2, 3, 4]), ("R2", [5, 6, 7, 8])]
    depts = [("D1", [1, 2]), ("D2", [3, 4]), ("D3", [5, 6]), ("D4", [7, 8])]
    cities = [(f"C{j}", [j]) for j in range(1, 9)]
    return PartitionScheme.build("transactions", 8, regions, extra_levels=[depts, cities])


def test_exactly_one_group_candidate_count():
    s = Solver()
    v = [None] + add_vars(s, ROLE_V, 8)
    post_group_choice(s, _all_levels(_nested_scheme()), ROLE_V, span_bits(1, 8), 1, 1)
    masks = set()
    s.search_all(on_solution=lambda: masks.add(snapshot(s, v[1:9])))
    # 2 regions + 4 departments + 8 cities
    assert s.stats["solutions"] == 14
    assert len(masks) == 14


def test_exactly_one_group_single_group_forces_everything():
    scheme = PartitionScheme.build("transactions", 4, [("all", [1, 2, 3, 4])])
    s = Solver()
    v = [None] + add_vars(s, ROLE_V, 4)
    post_group_choice(s, _all_levels(scheme), ROLE_V, span_bits(1, 4), 1, 1)
    assert all(value(s, v[j]) == 1 for j in range(1, 5))

