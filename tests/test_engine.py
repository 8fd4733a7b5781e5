import random
from itertools import product

import pytest

from helpers import Channel
from submine.constraints import CardinalityRange
from submine.engine import ROLE_AUX, ROLE_H, ROLE_X, UNASSIGNED, Propagator, Solver


def _bit(s, v):
    """The bitset of v's position within its role."""
    return 1 << s.position(v)


def test_channeling_forces_zero():
    s = Solver()
    h = s.new_var(ROLE_H)
    x = s.new_var(ROLE_X)
    s.post(Channel(h, x))
    assert s.assign_root(ROLE_H, _bit(s, h), 0)
    assert s.value(x) == 0


def test_channeling_contrapositive():
    s = Solver()
    h = s.new_var(ROLE_H)
    x = s.new_var(ROLE_X)
    s.post(Channel(h, x))
    assert s.assign_root(ROLE_X, _bit(s, x), 1)
    assert s.value(h) == 1


def test_channeling_no_forcing_from_dep_zero():
    s = Solver()
    v = s.new_var(ROLE_H)
    y = s.new_var(ROLE_X)
    s.post(Channel(v, y))
    assert s.assign_root(ROLE_X, _bit(s, y), 0)
    assert s.value(v) == UNASSIGNED


def test_root_failure_signal():
    s = Solver()
    a = s.new_var()
    s.assign_root(ROLE_AUX, _bit(s, a), 1)
    s.post(CardinalityRange([a], 0, 0))  # sum must be 0 but a is already 1
    assert s.root_failed
    assert s.search_all() == 0


def test_post_unknown_variable():
    s = Solver()
    s.new_var()
    with pytest.raises(ValueError, match="unknown variable"):
        s.post(Channel(0, 5))


def test_fixpoint_chain_failure():
    # h=0 zeroes x, which starves a sum>=1 over {x}
    s = Solver()
    h = s.new_var(ROLE_H)
    x = s.new_var(ROLE_X)
    s.post(Channel(h, x))
    s.push_level()
    assert s.assign(h, 0) and s.propagate_to_fixpoint()
    assert s.value(x) == 0
    s.pop_level()
    s.post(CardinalityRange([x], 1, None))  # forces x=1, hence h=1
    s.push_level()
    assert not (s.assign(h, 0) and s.propagate_to_fixpoint())
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


def test_fixpoint_empty_network():
    s = Solver()
    s.new_vars(3, ROLE_X)
    assert s.propagate_to_fixpoint()
    assert all(s.value(v) == UNASSIGNED for v in range(3))


def test_search_channeling_truth_table():
    s = Solver()
    h = s.new_var(ROLE_H)
    x = s.new_var(ROLE_X)
    s.post(Channel(h, x))
    seen = set()
    s.search_all(on_solution=lambda: seen.add(s.snapshot()))
    assert seen == {(0, 0), (1, 0), (1, 1)}


def test_backtracking_restores_exact_state():
    rng = random.Random(3)
    s = Solver()
    vars_ = s.new_vars(8, ROLE_X)
    for _ in range(6):
        a, b = rng.sample(vars_, 2)
        s.post(Channel(a, b))
    snaps = []
    for _ in range(10):
        snaps.append(hash(s.snapshot()))
        s.push_level()
        v = rng.choice(vars_)
        if s.value(v) == UNASSIGNED:
            s.assign(v, rng.randint(0, 1))
            s.propagate_to_fixpoint()
    while snaps:
        s.pop_level()
        assert hash(s.snapshot()) == snaps.pop()


class _TableConstraint(Propagator):
    """Check-only propagator used as ground truth on full assignments."""

    def __init__(self, variables, predicate):
        self.variables = variables
        self.predicate = predicate

    def vars(self):
        return self.variables

    def propagate(self, s):
        vals = [s.value(v) for v in self.variables]
        if any(v == UNASSIGNED for v in vals):
            return True
        return self.predicate(vals)


def _random_network(rng, solver, vars_):
    preds = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("chan", "card"))
        if kind == "chan":
            a, b = rng.sample(vars_, 2)
            solver.post(Channel(a, b))
            preds.append(lambda vals, a=a, b=b: not (vals[a] == 0 and vals[b] == 1))
        else:
            sub = rng.sample(vars_, rng.randint(1, len(vars_)))
            lb = rng.randint(0, len(sub))
            ub = rng.randint(lb, len(sub))
            solver.post(CardinalityRange(sub, lb, ub))
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
        vars_ = s.new_vars(nvars, ROLE_X)
        preds = _random_network(rng, s, vars_)
        expected = {
            vals
            for vals in product((0, 1), repeat=nvars)
            if all(p(list(vals)) for p in preds)
        }
        seen = []
        count = s.search_all(on_solution=lambda: seen.append(s.snapshot()))
        assert count == len(seen)
        assert len(set(seen)) == len(seen)  # no duplicates
        assert {tuple(snap[v] for v in vars_) for snap in seen} == expected


def test_new_var_rejects_unknown_role():
    s = Solver()
    with pytest.raises(ValueError, match="unknown role 'Z'"):
        s.new_var("Z")
    assert s.num_vars == 0


def test_masks_reached_counts_completions():
    s = Solver()
    s.new_vars(2, ROLE_H)
    assert s.stats["masks_reached"] == 0
    s.search_all()
    # one count per entry into a fully assigned mask state
    assert s.stats["masks_reached"] == 4


# ------------------------------------------------------- per-role bitsets


def _rebuilt(s, role):
    """(ones, zeros) of ``role`` read back one variable at a time."""
    ones = zeros = 0
    for v in range(s.num_vars):
        if s.role(v) == role:
            if s.value(v) == 1:
                ones |= 1 << s.position(v)
            elif s.value(v) == 0:
                zeros |= 1 << s.position(v)
    return ones, zeros


def test_role_bitsets_follow_assign_propagate_and_pop():
    from submine.constraints import GroupChoice
    from submine.engine import ROLE_V

    roles = (ROLE_AUX, ROLE_H, ROLE_V, ROLE_X)
    rng = random.Random(29)
    for _ in range(40):
        s = Solver()
        by_role = {role: [] for role in roles}
        for _ in range(rng.randint(8, 20)):
            role = rng.choice(roles)
            by_role[role].append(s.new_var(role))
        for role, vs in by_role.items():
            # positions count per role, in creation order, from 1
            assert [s.position(v) for v in vs] == list(range(1, len(vs) + 1))
        for h, x in zip(by_role[ROLE_H], by_role[ROLE_X]):
            s.post(Channel(h, x))
        for role in (ROLE_V, ROLE_X):
            vs = by_role[role]
            if len(vs) >= 2:
                sub = rng.sample(vs, rng.randint(1, len(vs)))
                lb = rng.randint(0, len(sub))
                s.post(CardinalityRange(sub, lb, rng.randint(lb, len(sub))))
        if by_role[ROLE_AUX] and len(by_role[ROLE_V]) >= 2:
            # one group of two members that the indicator equals
            v_vars = [None] * (len(by_role[ROLE_V]) + 1)
            for v in rng.sample(by_role[ROLE_V], 2):
                v_vars[s.position(v)] = v
            group = s.role_bits(v for v in v_vars if v is not None)[1]
            s.post(GroupChoice([(by_role[ROLE_AUX][0], group)], v_vars, 0, 1))
        if s.root_failed:
            continue
        saved = []
        for _ in range(30):
            op = rng.random()
            if op < 0.55 or not saved:
                saved.append(s.snapshot())
                s.push_level()
                v = rng.randrange(s.num_vars)
                val = rng.randint(0, 1)
                before = s.value(v)
                ok = s.assign(v, val)
                assert ok == (before in (UNASSIGNED, val))
                if ok:
                    assert s.value(v) == val
                    s.propagate_to_fixpoint()
            elif op < 0.7:
                saved.append(s.snapshot())
                s.push_level()
                role = rng.choice(roles)
                bits = sum(1 << s.position(v) for v in by_role[role] if rng.random() < 0.4)
                val = rng.randint(0, 1)
                opposite = s.fixed(role)[val]  # zeros for 1, ones for 0
                if s.assign_bits(role, bits, val):
                    assert bits & opposite == 0
                    s.propagate_to_fixpoint()
                else:
                    assert bits & opposite
            else:
                s.pop_level()
                assert s.snapshot() == saved.pop()
            for role in roles:
                assert s.fixed(role) == _rebuilt(s, role)

