import random
from itertools import product
from types import SimpleNamespace

import pytest

from helpers import (
    UNASSIGNED, CardinalityRange, Channel, add_vars, assign, positions, snapshot, value,
)
from submine.engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, Propagator, SearchTimeout, Solver


def _bit(s, v):
    """The bitset of v's position within its role."""
    return 1 << v[1]


def _new_var(s, role=ROLE_AUX):
    return add_vars(s, role, 1)[0]


def test_channeling_forces_zero():
    s = Solver()
    h = _new_var(s, ROLE_H)
    x = _new_var(s, ROLE_X)
    s.post(Channel(h, x))
    assert s.assign_root(ROLE_H, _bit(s, h), 0)
    assert value(s, x) == 0


def test_channeling_contrapositive():
    s = Solver()
    h = _new_var(s, ROLE_H)
    x = _new_var(s, ROLE_X)
    s.post(Channel(h, x))
    assert s.assign_root(ROLE_X, _bit(s, x), 1)
    assert value(s, h) == 1


def test_channeling_no_forcing_from_dep_zero():
    s = Solver()
    v = _new_var(s, ROLE_H)
    y = _new_var(s, ROLE_X)
    s.post(Channel(v, y))
    assert s.assign_root(ROLE_X, _bit(s, y), 0)
    assert value(s, v) == UNASSIGNED


def test_root_failure_signal():
    s = Solver()
    a = _new_var(s)
    s.assign_root(ROLE_AUX, _bit(s, a), 1)
    s.post(CardinalityRange(ROLE_AUX, _bit(s, a), 0, 0))  # sum must be 0 but a is already 1
    assert s.root_failed
    assert s.search_all() == 0
    # a failed root stays failed
    assert not s.assign_root(ROLE_AUX, _bit(s, a), 1)


def test_post_refuses_a_position_the_role_lacks():
    s = Solver()
    a = _new_var(s)
    with pytest.raises(ValueError, match="position 5 of role 'X', which has 1..0$"):
        s.post(Channel(a, (ROLE_X, 5)))
    s.add(ROLE_X, 4)
    with pytest.raises(ValueError, match="position 5 of role 'X', which has 1..4$"):
        s.post(Channel(a, (ROLE_X, 5)))
    with pytest.raises(ValueError, match="position 0 of role 'aux'"):
        s.post(Channel((ROLE_AUX, 0), (ROLE_X, 4)))
    s.add(ROLE_X)
    s.post(Channel(a, (ROLE_X, 5)))


def test_fixpoint_chain_failure():
    # h=0 zeroes x, which starves a sum>=1 over {x}
    s = Solver()
    h = _new_var(s, ROLE_H)
    x = _new_var(s, ROLE_X)
    s.post(Channel(h, x))
    s.push_level()
    assert assign(s, h, 0) and s.propagate_to_fixpoint()
    assert value(s, x) == 0
    s.pop_level()
    s.post(CardinalityRange(ROLE_X, _bit(s, x), 1, None))  # forces x=1, hence h=1
    s.push_level()
    assert not (assign(s, h, 0) and s.propagate_to_fixpoint())
    s.pop_level()


def test_slots_follow_the_levels():
    s = Solver()
    a, b = s.new_slot(), s.new_slot()
    s.slots[a] = "root"
    s.push_level()
    s.slots[a], s.slots[b] = "one", (1,)
    s.push_level()
    s.slots[b] = (2,)
    s.pop_level()
    assert s.slots == ["one", (1,)]
    with pytest.raises(RuntimeError, match="root level"):
        s.new_slot()
    s.pop_level()
    assert s.slots == ["root", None]


class _Counting(Propagator):
    """trigger = 1 forces out = 1; watches both and counts its calls."""

    def __init__(self, trigger, out):
        self.trigger = trigger
        self.out = out
        self.calls = 0

    def watches(self):
        return ((self.trigger[0], 1 << self.trigger[1]), (self.out[0], 1 << self.out[1]))

    def propagate(self, s: Solver) -> bool:
        self.calls += 1
        if value(s, self.trigger) == 1:
            return assign(s, self.out, 1)
        return True


def test_own_assignments_do_not_wake_a_propagator():
    s = Solver()
    a, b = add_vars(s, ROLE_X, 2)
    counting = _Counting(a, b)
    s.post(counting)
    assert counting.calls == 1
    # a wakes it; its own assignment to b, which it watches, does not
    assert s.assign_root(ROLE_X, _bit(s, a), 1)
    assert value(s, b) == 1 and counting.calls == 2


def test_other_assignments_wake_a_propagator():
    s = Solver()
    a, b, c = add_vars(s, ROLE_X, 3)
    counting = _Counting(a, b)
    s.post(counting)
    s.post(Channel(c, b))
    assert counting.calls == 1
    # c = 0 makes the channel fix b, which the counting propagator watches
    assert s.assign_root(ROLE_X, _bit(s, c), 0)
    assert value(s, b) == 0 and counting.calls == 2


def test_channel_chain_solutions_and_nodes():
    # h1 >= h2 >= x1 >= x2 >= x3: a fixing at one end runs down the chain,
    # one propagator waking the next
    s = Solver()
    chain = add_vars(s, ROLE_H, 2) + add_vars(s, ROLE_X, 3)
    for gate, dep in zip(chain, chain[1:]):
        s.post(Channel(gate, dep))
    seen = []
    s.search_all(on_solution=lambda: seen.append(snapshot(s, chain)))
    assert sorted(seen) == [tuple([1] * k + [0] * (5 - k)) for k in range(6)]
    # pinned: the counts of the solver that woke a propagator for its own
    # assignments too
    assert s.stats == {"nodes": 10, "masks_reached": 3, "solutions": 6}
    s.push_level()
    assert assign(s, chain[-1], 1) and s.propagate_to_fixpoint()
    assert snapshot(s, chain) == (1,) * 5
    s.pop_level()
    assert s.assign_root(ROLE_H, _bit(s, chain[0]), 0)
    assert snapshot(s, chain) == (0,) * 5


def test_fixpoint_empty_network():
    s = Solver()
    vs = add_vars(s, ROLE_X, 3)
    assert s.propagate_to_fixpoint()
    assert all(value(s, v) == UNASSIGNED for v in vs)


def test_search_channeling_truth_table():
    s = Solver()
    h = _new_var(s, ROLE_H)
    x = _new_var(s, ROLE_X)
    s.post(Channel(h, x))
    seen = set()
    s.search_all(on_solution=lambda: seen.add(snapshot(s, (h, x))))
    assert seen == {(0, 0), (1, 0), (1, 1)}


def test_backtracking_restores_exact_state():
    rng = random.Random(3)
    s = Solver()
    vars_ = add_vars(s, ROLE_X, 8)
    for _ in range(6):
        a, b = rng.sample(vars_, 2)
        s.post(Channel(a, b))
    snaps = []
    for _ in range(10):
        snaps.append(hash(snapshot(s, vars_)))
        s.push_level()
        v = rng.choice(vars_)
        if value(s, v) == UNASSIGNED:
            assign(s, v, rng.randint(0, 1))
            s.propagate_to_fixpoint()
    while snaps:
        s.pop_level()
        assert hash(snapshot(s, vars_)) == snaps.pop()


def _random_network(rng, solver, vars_):
    preds = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("chan", "card"))
        if kind == "chan":
            a, b = rng.sample(vars_, 2)
            solver.post(Channel(a, b))
            a, b = vars_.index(a), vars_.index(b)
            preds.append(lambda vals, a=a, b=b: not (vals[a] == 0 and vals[b] == 1))
        else:
            sub = rng.sample(vars_, rng.randint(1, len(vars_)))
            lb = rng.randint(0, len(sub))
            ub = rng.randint(lb, len(sub))
            solver.post(CardinalityRange(ROLE_X, positions(sub), lb, ub))
            sub = [vars_.index(v) for v in sub]
            preds.append(
                lambda vals, sub=tuple(sub), lb=lb, ub=ub: lb
                <= sum(vals[v] for v in sub)
                <= ub
            )
    return preds


def test_search_matches_truth_table():
    rng = random.Random(11)
    for _ in range(60):
        nvars = rng.randint(2, 6)
        s = Solver()
        vars_ = add_vars(s, ROLE_X, nvars)
        preds = _random_network(rng, s, vars_)
        expected = {
            vals
            for vals in product((0, 1), repeat=nvars)
            if all(p(list(vals)) for p in preds)
        }
        seen = []
        count = s.search_all(on_solution=lambda: seen.append(snapshot(s, vars_)))
        assert count == len(seen)
        assert len(set(seen)) == len(seen)  # no duplicates
        assert set(seen) == expected


def test_add_rejects_unknown_role_and_calls_below_the_root():
    s = Solver()
    for role in ("Z", 4, -1):
        with pytest.raises(ValueError, match=f"unknown role {role!r}"):
            s.add(role)
    with pytest.raises(ValueError, match="cannot add -1 positions"):
        s.add(ROLE_X, -1)
    assert s.search_all() == 1  # nothing was added: one empty solution
    assert s.add(ROLE_X, 2) == 1 and s.add(ROLE_X) == 3
    s.push_level()
    with pytest.raises(RuntimeError, match="root level"):
        s.add(ROLE_X)
    s.pop_level()
    assert s.add(ROLE_AUX, 0) == 1


def test_masks_reached_counts_completions():
    s = Solver()
    s.add(ROLE_H, 2)
    assert s.stats["masks_reached"] == 0
    s.search_all()
    # one count per entry into a fully assigned mask state
    assert s.stats["masks_reached"] == 4


# ------------------------------------------------------- per-role bitsets


def _rebuilt(s, variables, role):
    """(ones, zeros) of ``role`` read back one position at a time."""
    ones = zeros = 0
    for v in variables:
        if v[0] == role:
            if value(s, v) == 1:
                ones |= 1 << v[1]
            elif value(s, v) == 0:
                zeros |= 1 << v[1]
    return ones, zeros


def test_role_bitsets_follow_assign_propagate_and_pop():
    from submine.constraints import GroupChoice
    from submine.engine import ROLE_V

    roles = (ROLE_AUX, ROLE_H, ROLE_V, ROLE_X)
    rng = random.Random(29)
    for _ in range(40):
        s = Solver()
        by_role = {role: [] for role in roles}
        variables = []  # in the order they were added
        for _ in range(rng.randint(8, 20)):
            role = rng.choice(roles)
            variables.append(_new_var(s, role))
            by_role[role].append(variables[-1])
        for role, vs in by_role.items():
            # positions count per role, in the order added, from 1
            assert [pos for _, pos in vs] == list(range(1, len(vs) + 1))
        for h, x in zip(by_role[ROLE_H], by_role[ROLE_X]):
            s.post(Channel(h, x))
        for role in (ROLE_V, ROLE_X):
            vs = by_role[role]
            if len(vs) >= 2:
                sub = rng.sample(vs, rng.randint(1, len(vs)))
                lb = rng.randint(0, len(sub))
                s.post(CardinalityRange(role, positions(sub), lb, rng.randint(lb, len(sub))))
        if by_role[ROLE_AUX] and len(by_role[ROLE_V]) >= 2:
            # one group of two members that the indicator equals
            group = positions(rng.sample(by_role[ROLE_V], 2))
            s.post(GroupChoice([group], ROLE_V, group, by_role[ROLE_AUX][0][1], 0, 1))
        if s.root_failed:
            continue
        saved = []
        for _ in range(30):
            op = rng.random()
            if op < 0.55 or not saved:
                saved.append(snapshot(s, variables))
                s.push_level()
                v = variables[rng.randrange(len(variables))]
                val = rng.randint(0, 1)
                before = value(s, v)
                ok = assign(s, v, val)
                assert ok == (before in (UNASSIGNED, val))
                if ok:
                    assert value(s, v) == val
                    s.propagate_to_fixpoint()
            elif op < 0.7:
                saved.append(snapshot(s, variables))
                s.push_level()
                role = rng.choice(roles)
                bits = sum(1 << pos for _, pos in by_role[role] if rng.random() < 0.4)
                val = rng.randint(0, 1)
                opposite = s.fixed(role)[val]  # zeros for 1, ones for 0
                if s.assign_bits(role, bits, val):
                    assert bits & opposite == 0
                    s.propagate_to_fixpoint()
                else:
                    assert bits & opposite
            else:
                s.pop_level()
                assert snapshot(s, variables) == saved.pop()
            for role in roles:
                assert s.fixed(role) == _rebuilt(s, variables, role)


# ------------------------------------------------------------ decision step


def test_search_stopped_partway_keeps_its_counts(monkeypatch):
    # h1 >= h2 >= v >= x1 >= x2.  The fake clock reads 1, 2, ...: read 1
    # is the root's, read k + 1 the k-th decision's, so a deadline of d
    # stops the search before decision d.  Each row is (d, nodes,
    # masks_reached, solutions) when it stops; d = 11 lets it finish
    expected = [
        (1, 0, 0, 0), (2, 1, 0, 0), (3, 2, 0, 0), (4, 3, 1, 0), (5, 4, 1, 0),
        (6, 5, 1, 1), (7, 6, 1, 2), (8, 7, 1, 3), (9, 8, 2, 4), (10, 9, 3, 5),
    ]
    for d, nodes, masks, solutions in [*expected, (11, 10, 4, 6)]:
        s = Solver()
        chain = add_vars(s, ROLE_H, 2) + add_vars(s, ROLE_V, 1) + add_vars(s, ROLE_X, 2)
        for gate, dep in zip(chain, chain[1:]):
            s.post(Channel(gate, dep))
        reads = iter(range(1, 100))
        monkeypatch.setattr("submine.engine.time", SimpleNamespace(monotonic=lambda: next(reads)))
        if d <= len(expected):
            with pytest.raises(SearchTimeout):
                s.search_all(deadline=d)
        else:
            assert s.search_all(deadline=d) == solutions
        assert s.stats == {"nodes": nodes, "masks_reached": masks, "solutions": solutions}, d


def test_pop_level_drops_an_assignment_left_without_its_fixpoint():
    s = Solver()
    a, b = add_vars(s, ROLE_X, 2)
    counting = _Counting(a, b)
    s.post(counting)
    before = snapshot(s, [a, b])
    s.push_level()
    # a wakes the propagator, but no fixpoint runs before the level closes
    assert assign(s, a, 1)
    s.pop_level()
    assert snapshot(s, [a, b]) == before == (UNASSIGNED, UNASSIGNED)
    # the queue is empty: a fixpoint runs nothing
    assert s.propagate_to_fixpoint() and counting.calls == 1
    # and nothing stays marked queued: a new assignment wakes it
    s.push_level()
    assert assign(s, a, 1) and s.propagate_to_fixpoint()
    assert counting.calls == 2 and value(s, b) == 1
    s.pop_level()
    assert snapshot(s, [a, b]) == before
