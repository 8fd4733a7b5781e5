"""Tri-state Boolean constraint solver over roles and positions.

The solver has four roles, each a row of Boolean cells at positions 1, 2,
... in the order they were added; each cell is unassigned, 0 or 1.  The
state is, per role, two bitsets over those positions: the positions fixed
to 1 and the positions fixed to 0.  Propagators read and assign these
bitsets, and each one watches a bitset of positions per role.  Root facts
are assigned the same way.  Propagators are woken through a FIFO queue
with per-propagator dedup until fixpoint; a propagator stays queued while
it runs, so its own assignments never wake it again (each propagator is
idempotent, as in Schulte & Stuckey, "Efficient Constraint Propagation
Engines", TOPLAS 2008), while another propagator's assignments to the
positions it watches always do.  A propagator may also ask for
a reversible slot, one value of its own state.  Each decision level saves
a level record, three plain tuples: the per-role bitsets fixed to 1, those
fixed to 0 and the slots; backtracking writes them back into the solver's
lists in place, so the search and the propagators keep reading the same
lists.  Search branches on the lowest free position of the first role, in
the order aux, H, V, X, that still has one, so the sub-dataset is fixed
before the itemset; it enumerates every full assignment accepted by all
propagators, exactly once.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable

# role ids, in branching order
ROLE_AUX = 0  # group indicators and other auxiliaries
ROLE_H = 1  # item activation (mask)
ROLE_V = 2  # transaction activation (mask)
ROLE_X = 3  # itemset membership

_ROLE_NAMES = ("aux", "H", "V", "X")


def _role_name(role: int) -> str:
    if role not in range(len(_ROLE_NAMES)):
        expected = ", ".join(f"{rid} ({name})" for rid, name in enumerate(_ROLE_NAMES))
        raise ValueError(f"unknown role {role!r}; expected one of {expected}")
    return _ROLE_NAMES[role]


class SearchTimeout(Exception):
    """Raised inside search when the caller's stop predicate fires."""


def check_deadline(deadline: float) -> None:
    """Raise SearchTimeout once ``time.monotonic()`` passes ``deadline``."""
    if time.monotonic() > deadline:
        raise SearchTimeout


class Propagator:
    """Filtering procedure for one constraint.

    ``watches`` gives the (role, position bitset) pairs whose assignment
    by another propagator, a decision or a root fact wakes the
    propagator.  ``propagate`` may assign watched or other positions
    through the solver and must return False exactly when it detects a
    contradiction.  It must be sound (never remove a value that some
    solution of its constraint extends) and idempotent: a second call
    right after one that returned True assigns nothing, since the solver
    does not wake a propagator for its own assignments.
    """

    def watches(self) -> Iterable[tuple[int, int]]:
        raise NotImplementedError

    def bind(self, s: "Solver") -> None:
        """Called once by ``Solver.post`` before the first propagation."""

    def propagate(self, s: "Solver") -> bool:
        raise NotImplementedError


class Solver:
    def __init__(self) -> None:
        # per role id
        self._positions = [0] * len(_ROLE_NAMES)  # bitset of its positions
        self._ones = [0] * len(_ROLE_NAMES)  # positions fixed to 1
        self._zeros = [0] * len(_ROLE_NAMES)  # positions fixed to 0
        # (propagator id, positions of the role it watches), in posting order
        self._watchers: list[tuple[tuple[int, int], ...]] = [() for _ in _ROLE_NAMES]
        self._props: list[Propagator] = []
        # reversible propagator state, one value per slot (see new_slot)
        self.slots: list[object] = []
        # one level record per open level: (ones, zeros, slots)
        self._marks: list[tuple[tuple[int, ...], tuple[int, ...], tuple[object, ...]]] = []
        self._queue: deque[int] = deque()
        self._queued: set[int] = set()
        self.root_failed = False
        self.stats = {"nodes": 0, "masks_reached": 0, "solutions": 0}

    # -- roles ----------------------------------------------------------------

    def add(self, role: int, count: int = 1) -> int:
        """Append ``count`` unassigned positions to ``role``; returns the
        first new one."""
        if self._marks:
            raise RuntimeError("positions must be added at the root level")
        if count < 0:
            raise ValueError(f"cannot add {count} positions")
        _role_name(role)
        first = self._positions[role].bit_length() or 1
        self._positions[role] |= (1 << first + count) - (1 << first)
        return first

    def new_slot(self) -> int:
        """Index of a new reversible slot in ``slots``, holding None.
        Backtracking restores each slot to its value at the parent's
        fixpoint.  A level saves references only, so store values that are
        never mutated, such as tuples of ints."""
        if self._marks:
            raise RuntimeError("slots must be created at the root level")
        self.slots.append(None)
        return len(self.slots) - 1

    def fixed(self, role: int) -> tuple[int, int]:
        """Bitsets of the positions of ``role`` fixed to 1 and fixed to 0;
        (0, 0) for a role without positions."""
        return self._ones[role], self._zeros[role]

    # -- assignment and backtracking ------------------------------------------

    def assign_bits(self, role: int, bits: int, val: int) -> bool:
        """Assign val to ``role`` at the positions in ``bits``; False iff
        one of them holds the opposite value."""
        return not bits or self._assign(role, bits, val)

    def _assign(self, rid: int, bits: int, val: int) -> bool:
        ones, zeros = self._ones, self._zeros
        one, zero = ones[rid], zeros[rid]
        if bits & (zero if val else one):
            return False
        bits &= ~(one | zero)
        if not bits:
            return True
        if val:
            ones[rid] = one | bits
        else:
            zeros[rid] = zero | bits
        if rid == ROLE_H or rid == ROLE_V:
            # the mask is complete once H and V have no free position
            positions = self._positions
            if not (
                positions[ROLE_H] & ~(ones[ROLE_H] | zeros[ROLE_H])
                or positions[ROLE_V] & ~(ones[ROLE_V] | zeros[ROLE_V])
            ):
                self.stats["masks_reached"] += 1
        queued = self._queued
        for pid, watched in self._watchers[rid]:
            if watched & bits and pid not in queued:
                queued.add(pid)
                self._queue.append(pid)
        return True

    def push_level(self) -> None:
        self._marks.append((tuple(self._ones), tuple(self._zeros), tuple(self.slots)))

    def pop_level(self) -> None:
        # in place: search_all and fixed's callers hold on to these lists
        self._ones[:], self._zeros[:], self.slots[:] = self._marks.pop()
        if self._queue:  # only an assignment left without its fixpoint
            self._queue.clear()
            self._queued.clear()

    # -- propagation ----------------------------------------------------------

    def post(self, prop: Propagator) -> int:
        """Register a propagator and run its initial filtering at the root.

        A root-level contradiction sets ``root_failed`` instead of raising.
        """
        watched: dict[int, int] = {}  # role -> watched positions
        for role, bits in prop.watches():
            name = _role_name(role)
            outside = bits & ~self._positions[role]
            if outside:
                p = (outside & -outside).bit_length() - 1
                size = max(self._positions[role].bit_length() - 1, 0)
                raise ValueError(
                    f"propagator watches position {p} of role {name!r}, which has 1..{size}"
                )
            if bits:
                watched[role] = watched.get(role, 0) | bits
        prop.bind(self)
        pid = len(self._props)
        self._props.append(prop)
        for role, bits in watched.items():
            self._watchers[role] += ((pid, bits),)
        if not self.root_failed:
            self._queued.add(pid)
            self._queue.append(pid)
            if not self.propagate_to_fixpoint():
                self.root_failed = True
        return pid

    def assign_root(self, role: int, bits: int, val: int) -> bool:
        """``assign_bits`` at the root, then propagate; records root
        failure."""
        if self.root_failed:
            return False
        if not (self.assign_bits(role, bits, val) and self.propagate_to_fixpoint()):
            self.root_failed = True
            return False
        return True

    def propagate_to_fixpoint(self) -> bool:
        queue = self._queue
        queued = self._queued
        props = self._props
        while queue:
            pid = queue.popleft()
            # queued while it runs, so its own assignments do not wake it
            if not props[pid].propagate(self):
                queue.clear()
                queued.clear()
                return False
            queued.discard(pid)
        return True

    # -- search -----------------------------------------------------------------

    def search_all(
        self,
        on_solution: Callable[[], None] | None = None,
        deadline: float | None = None,
    ) -> int:
        """Exhaustive DFS over all full assignments accepted by every
        propagator.  It branches on the lowest free position of the first
        role, in the order aux, H, V, X, that still has one; value 1 is
        tried before 0.  ``on_solution()`` is called once per solution,
        while the solver holds it (read each role's bitsets through
        ``fixed``).  Returns the solution count.  Raises SearchTimeout
        once ``time.monotonic()`` passes ``deadline``; the clock is read
        once before the root, even a failed one, and before each
        decision.  Iterative, so the depth is bounded by memory, not the
        interpreter's recursion limit."""
        if deadline is not None:
            check_deadline(deadline)
        if self.root_failed:
            return 0
        ones, zeros, positions = self._ones, self._zeros, self._positions
        n_roles = len(positions)
        stats = self.stats
        count = 0

        def next_free(rid: int) -> tuple[int, int] | None:
            """(role id, bit) of the next decision, from role id ``rid``
            on; None once every position is fixed."""
            while rid < n_roles:
                free = positions[rid] & ~(ones[rid] | zeros[rid])
                if free:
                    return rid, free & -free
                rid += 1
            return None

        def emit() -> None:
            nonlocal count
            count += 1
            stats["solutions"] += 1
            if on_solution is not None:
                on_solution()

        nxt = next_free(ROLE_AUX)
        if nxt is None:
            emit()
            return count
        push, pop = self.push_level, self.pop_level
        assign, fixpoint = self._assign, self.propagate_to_fixpoint
        # the (role id, bit, value) decisions still to try, the next one
        # last; None closes the level a decision's subtree ran under
        todo: list[tuple[int, int, int] | None] = [(*nxt, 0), (*nxt, 1)]
        while todo:
            decision = todo.pop()
            if decision is None:
                pop()
                continue
            if deadline is not None:
                check_deadline(deadline)
            push()
            stats["nodes"] += 1
            rid, bit, val = decision
            if assign(rid, bit, val) and fixpoint():
                nxt = next_free(rid)
                if nxt is not None:
                    rid, bit = nxt
                    todo += (None, (rid, bit, 0), (rid, bit, 1))
                    continue
                emit()
            pop()
        return count
