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

    A group is chosen, ruled out, or live (indicator free).  A call makes
    one pass over the groups, which yields the members of the chosen
    ones, the indicator bits of the ruled-out and the live ones, and the
    union of the live ones' members; the rules then count and narrow
    those bitsets.  The live groups are a bitset, as Compact-Table's
    valid tuples are (Demeulenaere et al., CP 2016), but recomputed per
    call, not kept reversibly.  Only a rule that drops or picks some of
    the live groups, not all, passes over the groups again.  Every
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
        # one pass: the members of the chosen groups, and the indicator
        # bits of the groups ruled out here and of the live ones, with the
        # union of the live groups' members
        covered = held = live = take = out = 0
        for flag, members in self.groups:
            if f1 & flag:
                if members & a0:
                    return False
                covered |= members
            elif not f0 & flag:
                if members & a0:
                    out |= flag  # a member is inactive
                else:
                    live |= flag
                    held |= members
        n1 = (f1 & self.indicators).bit_count()
        while True:
            n = live.bit_count()
            if n1 > ub or n1 + n < lb:
                return False
            need = a1 & ~covered  # active positions no chosen group holds
            # at ub no more group; at ub - 1 one more, which must hold
            # all of need
            if n1 == ub and live:
                out |= live
                live = held = 0
                continue
            if n1 == ub - 1 and need:
                dropped = self._missing(live, need)
                if dropped:
                    out |= dropped
                    live ^= dropped
                    held = self._union(live)
                    continue
            pick = 0
            if need:
                if need & ~held:
                    return False
                # positions only one live group holds choose that group
                pick = self._unique(live, need)
            if n1 + n == lb:
                pick = live
            if not pick:
                break
            take |= pick
            n1 += pick.bit_count()
            if pick == live:
                covered |= held
                live = held = 0
            else:
                # held keeps the picked groups' members, now covered
                covered |= self._union(pick)
                live ^= pick
        return (
            s.assign_bits(ROLE_AUX, take, 1)
            and s.assign_bits(ROLE_AUX, out, 0)
            and s.assign_bits(self.role, covered, 1)
            and s.assign_bits(self.role, self.bits & ~(covered | held), 0)
        )

    def _union(self, flags: int) -> int:
        """The members of the groups whose indicator bits ``flags`` holds."""
        union = 0
        for flag, members in self.groups:
            if flags & flag:
                union |= members
        return union

    def _missing(self, flags: int, need: int) -> int:
        """The indicator bits of the groups of ``flags`` that miss a
        position of ``need``."""
        return sum(flag for flag, members in self.groups if flags & flag and need & ~members)

    def _unique(self, flags: int, need: int) -> int:
        """The indicator bits of the groups of ``flags`` that hold a
        position of ``need`` no other group of ``flags`` holds."""
        once = twice = 0
        for flag, members in self.groups:
            if flags & flag:
                twice |= once & members
                once |= members
        unique = need & ~twice
        return sum(flag for flag, members in self.groups if flags & flag and members & unique)


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
