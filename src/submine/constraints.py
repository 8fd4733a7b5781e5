"""The propagator for the dataset side.

It works on roles and bitsets of their positions; position j of V is
transaction j, position i of H item i.  It is sound for partial states
and complete on full assignments.  The itemset side (channeling,
coverage, frequency, closedness, size and span) is the one global
``ClosedPatternSub`` in ``closedpattern``.  The dataset side of a query
is one ``GroupChoice`` per axis that chooses groups: group bounds choose
lb..ub groups of one partition, one-of-levels one group of any level.
``queries.assemble`` posts each of them through ``post_group_choice``,
because it adds the group indicator positions.
"""

from __future__ import annotations

from typing import Sequence

from .dataset import span_bits
from .engine import ROLE_AUX, Propagator, Solver


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
