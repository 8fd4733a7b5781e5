"""Propagators for the dataset side and the itemset-side constraints.

Each propagator works on roles and bitsets of their positions; position i
of X and H is item i, position j of V transaction j.  Every propagator
here is sound for partial states and complete on full assignments.  They
cover the dataset side, the size of the itemset and the category span;
the mining semantics (channeling, coverage, frequency, closedness) is the
one global ``ClosedPatternSub`` in ``closedpattern``.  The dataset side of
a query is one ``GroupChoice`` per axis that chooses groups: group bounds
choose lb..ub groups of one partition, one-of-levels one group of any
level.  ``queries.assemble`` posts each of them; only
``post_group_choice`` stands between, because it adds the group indicator
positions.
"""

from __future__ import annotations

from typing import Sequence

from .dataset import span_bits
from .engine import ROLE_AUX, Propagator, Solver


class CardinalityRange(Propagator):
    """lb <= the number of 1s of ``role`` at the positions in ``bits`` <=
    ub (ub=None leaves it open); a popcount of the solver's bitsets."""

    def __init__(self, role: int, bits: int, lb: int, ub: int | None = None):
        self.role = role
        self.bits = bits
        self.lb = lb
        self.ub = ub

    def watches(self):
        return ((self.role, self.bits),)

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
    """The items of ``role`` (X) chosen among the positions in ``bits``
    touch between lb and ub groups of a partition."""

    def __init__(self, role: int, bits: int, groups, lb: int, ub: int):
        self.role = role
        self.bits = bits
        self.groups = [g.members for g in groups]
        self.lb = lb
        self.ub = ub

    def watches(self):
        return ((self.role, self.bits),)

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
    ``groups`` are member bitsets over the positions ``bits`` of the axis
    role; group k's indicator is aux position ``first + k``.

    A group is chosen, ruled out, or live (indicator free).  Every
    failure test runs before the first assignment, so a call that fails
    fixes nothing and never completes a mask."""

    def __init__(self, groups: Sequence[int], role: int, bits: int, first: int, lb: int, ub: int):
        self.role = role
        self.bits = bits
        self.indicators = span_bits(first, first + len(groups) - 1)
        # (indicator's bit in its role, members)
        self.groups = [(1 << first + k, members) for k, members in enumerate(groups)]
        self.lb = lb
        self.ub = ub
        for _, members in self.groups:
            if members & ~bits:
                raise ValueError("group holds a position outside the axis")

    def watches(self):
        return ((ROLE_AUX, self.indicators), (self.role, self.bits))

    def propagate(self, s: Solver) -> bool:
        f1, f0 = s.fixed(ROLE_AUX)
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
            s.assign_bits(ROLE_AUX, take, 1)
            and s.assign_bits(ROLE_AUX, out, 0)
            and s.assign_bits(self.role, covered, 1)
            and s.assign_bits(self.role, self.bits & ~held, 0)
        )


# ------------------------------------------------------------ posting API


def post_group_choice(
    s: Solver, groups: Sequence[int], role: int, bits: int, lb: int, ub: int
) -> int:
    """Between lb and ub of ``groups`` (member bitsets over the positions
    ``bits`` of the axis role) are chosen, and the active positions are
    their union.  Returns the aux position of the first group indicator;
    the others follow it."""
    if not 0 <= lb <= ub <= len(groups):
        raise ValueError(f"group choice bounds ({lb},{ub}) invalid for {len(groups)} groups")
    first = s.add(ROLE_AUX, len(groups))
    s.post(GroupChoice(groups, role, bits, first, lb, ub))
    return first
