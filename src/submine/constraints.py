"""Propagators for the dataset side and the itemset-side constraints.

Variable handles come in 1-based lists (slot 0 unused) matching item and
transaction indices.  Every propagator here is sound for partial states and
complete on full assignments.  They cover the dataset side, the sizes of
the itemset and of the sub-dataset, and the category span; the mining
semantics (channeling, coverage, frequency, closedness) is the one global
``ClosedPatternSub`` in ``closedpattern``.  The dataset side of a query is
one ``GroupChoice`` per axis that chooses groups: group bounds choose
lb..ub groups of one partition, one-of-levels one group of any level.
``queries.assemble`` posts each of them; only ``post_group_choice``
stands between, because it creates the group indicator variables.
"""

from __future__ import annotations

from typing import Sequence

from .engine import ROLE_AUX, Propagator, Solver


class CardinalityRange(Propagator):
    """lb <= sum(vars) <= ub over Boolean vars (ub=None leaves it open).

    The variables must share one role; the sum is a popcount of the
    solver's bitsets for that role."""

    def __init__(self, variables: Sequence[int], lb: int, ub: int | None = None):
        self.variables = list(variables)
        self.lb = lb
        self.ub = ub

    def vars(self):
        return self.variables

    def bind(self, s: Solver) -> None:
        self.role, self.bits = s.role_bits(self.variables)
        if self.bits.bit_count() != len(self.variables):
            raise ValueError("cardinality over repeated variables")

    def propagate(self, s: Solver) -> bool:
        ones, zeros = s.fixed(self.role)
        n_ones = (ones & self.bits).bit_count()
        free = self.bits & ~(ones | zeros)
        n_free = free.bit_count()
        if self.ub is not None and n_ones > self.ub:
            return False
        if n_ones + n_free < self.lb:
            return False
        if self.ub is not None and n_ones == self.ub:
            return s.assign_bits(self.role, free, 0)
        if n_ones + n_free == self.lb:
            return s.assign_bits(self.role, free, 1)
        return True


class CategorySpan(Propagator):
    """The chosen items touch between lb and ub groups of a partition.
    ``x_vars[i]`` is the variable of item i and sits at position i of its
    role (slot 0 unused)."""

    def __init__(self, x_vars: Sequence[int | None], groups, lb: int, ub: int):
        self.x_vars = x_vars
        self.groups = [g.members for g in groups]
        self.lb = lb
        self.ub = ub

    def vars(self):
        return [v for v in self.x_vars if v is not None]

    def bind(self, s: Solver) -> None:
        self.role, self.bits = s.indexed_role(self.x_vars)

    def propagate(self, s: Solver) -> bool:
        ones, zeros = s.fixed(self.role)
        x_one = ones & self.bits
        x_poss = self.bits & ~zeros
        touched = reachable = 0
        for g in self.groups:
            if x_one & g:
                touched += 1
                reachable += 1
            elif x_poss & g:
                reachable += 1
        if touched > self.ub or reachable < self.lb:
            return False
        if touched == self.ub:
            # no further group may be entered
            untouched = 0
            for g in self.groups:
                if not x_one & g:
                    untouched |= g
            return s.assign_bits(self.role, x_poss & untouched, 0)
        return True


class GroupChoice(Propagator):
    """Between lb and ub groups are chosen, and the active positions of
    the axis are the union of the chosen groups; groups may overlap.
    ``entries`` pairs each group's indicator variable (all of one role)
    with its member bitset; ``axis_vars[j]`` is the variable of position
    j of the axis and sits at position j of its role (slot 0 unused).

    A group is chosen, ruled out, or live (indicator free).  Every
    failure test runs before the first assignment, so a call that fails
    fixes nothing and never completes a mask."""

    def __init__(self, entries: Sequence[tuple[int, int]], axis_vars, lb: int, ub: int):
        self.entries = list(entries)
        self.axis_vars = axis_vars
        self.lb = lb
        self.ub = ub

    def vars(self):
        out = [b for b, _ in self.entries]
        out.extend(v for v in self.axis_vars if v is not None)
        return out

    def bind(self, s: Solver) -> None:
        self.role, self.bits = s.indexed_role(self.axis_vars)
        self.flag_role, _ = s.role_bits(b for b, _ in self.entries)
        # (indicator's bit in its role, members)
        self.groups = [(1 << s.position(b), members) for b, members in self.entries]
        for _, members in self.groups:
            if members & ~self.bits:
                raise ValueError("group holds a position outside the axis")

    def propagate(self, s: Solver) -> bool:
        f1, f0 = s.fixed(self.flag_role)
        a1, a0 = s.fixed(self.role)
        a1 &= self.bits
        lb, ub = self.lb, self.ub
        n1 = covered = take = out = 0
        live = []
        for flag, members in self.groups:
            if f1 & flag:
                if members & a0:
                    return False
                n1 += 1
                covered |= members
            elif not f0 & flag:
                if members & a0:
                    out |= flag  # a member is inactive
                else:
                    live.append((flag, members))
        while True:
            if n1 > ub or n1 + len(live) < lb:
                return False
            need = a1 & ~covered  # active positions no chosen group holds
            if n1 == ub or (n1 == ub - 1 and need):
                # at most one more group, and it must hold all of need
                dropped = [g for g in live if n1 == ub or need & ~g[1]]
                if dropped:
                    for flag, _ in dropped:
                        out |= flag
                    live = [g for g in live if not out & g[0]]
                    continue
            pick = []
            if need:
                once = twice = 0
                for _, members in live:
                    twice |= once & members
                    once |= members
                if need & ~once:
                    return False
                # positions only one live group holds choose that group
                pick = [g for g in live if g[1] & need & ~twice]
            if n1 + len(live) == lb:
                pick = live
            if not pick:
                break
            for flag, members in pick:
                take |= flag
                covered |= members
            n1 += len(pick)
            live = [g for g in live if not take & g[0]]
        held = covered
        for _, members in live:
            held |= members
        return (
            s.assign_bits(self.flag_role, take, 1)
            and s.assign_bits(self.flag_role, out, 0)
            and s.assign_bits(self.role, covered, 1)
            and s.assign_bits(self.role, self.bits & ~held, 0)
        )


# ------------------------------------------------------------ posting API


def post_group_choice(s: Solver, groups: Sequence[int], axis_vars, lb: int, ub: int) -> list[int]:
    """Between lb and ub of ``groups`` (member bitsets over the axis) are
    chosen, and the active positions are their union.  Returns the
    per-group indicator variables."""
    if not 0 <= lb <= ub <= len(groups):
        raise ValueError(f"group choice bounds ({lb},{ub}) invalid for {len(groups)} groups")
    indicators = s.new_vars(len(groups), ROLE_AUX)
    s.post(GroupChoice(zip(indicators, groups), axis_vars, lb, ub))
    return indicators
