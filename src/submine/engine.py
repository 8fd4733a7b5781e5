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
the bitsets and the slots, and backtracking restores them.  Search
branches on the lowest free position of the first role, in the order aux,
H, V, X, that still has one, so the sub-dataset is fixed before the
itemset; it enumerates every full assignment accepted by all propagators,
exactly once.
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
_MASK_ROLES = frozenset((ROLE_H, ROLE_V))


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
        self._role_size = [0] * len(_ROLE_NAMES)
        self._ones = [0] * len(_ROLE_NAMES)  # positions fixed to 1
        self._zeros = [0] * len(_ROLE_NAMES)  # positions fixed to 0
        # propagator id -> positions of the role it watches
        self._watchers: list[dict[int, int]] = [{} for _ in _ROLE_NAMES]
        self._props: list[Propagator] = []
        # reversible propagator state, one value per slot (see new_slot)
        self.slots: list[object] = []
        # per open level: the per-role bitsets, the unassigned mask count
        # and the slots
        self._marks: list[tuple[list[int], list[int], int, list[object]]] = []
        self._queue: deque[int] = deque()
        self._queued: set[int] = set()
        self._mask_unassigned = 0
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
        first = self._role_size[role] + 1
        self._role_size[role] += count
        if role in _MASK_ROLES:
            self._mask_unassigned += count
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
        ones, zeros = self._ones[rid], self._zeros[rid]
        if bits & (zeros if val else ones):
            return False
        bits &= ~(ones | zeros)
        if not bits:
            return True
        if val:
            self._ones[rid] = ones | bits
        else:
            self._zeros[rid] = zeros | bits
        if rid in _MASK_ROLES:
            self._mask_unassigned -= bits.bit_count()
            if self._mask_unassigned == 0:
                self.stats["masks_reached"] += 1
        queued = self._queued
        for pid, watched in self._watchers[rid].items():
            if watched & bits and pid not in queued:
                queued.add(pid)
                self._queue.append(pid)
        return True

    def push_level(self) -> None:
        self._marks.append((self._ones[:], self._zeros[:], self._mask_unassigned, self.slots[:]))

    def pop_level(self) -> None:
        ones, zeros, self._mask_unassigned, slots = self._marks.pop()
        # in place: search_all holds on to these lists
        self._ones[:] = ones
        self._zeros[:] = zeros
        self.slots[:] = slots
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
            size = self._role_size[role]
            outside = bits & ~((1 << size + 1) - 2)
            if outside:
                p = (outside & -outside).bit_length() - 1
                raise ValueError(
                    f"propagator watches position {p} of role {name!r}, which has 1..{size}"
                )
            if bits:
                watched[role] = watched.get(role, 0) | bits
        prop.bind(self)
        pid = len(self._props)
        self._props.append(prop)
        for role, bits in watched.items():
            self._watchers[role][pid] = bits
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
        ones, zeros = self._ones, self._zeros
        roles = [(rid, (1 << size + 1) - 2) for rid, size in enumerate(self._role_size)]
        stats = self.stats
        count = 0

        def next_free(start: int) -> list[int] | None:
            """The frame [role id, bit, tried] of the next decision, from
            role id ``start`` on; None once every position is fixed."""
            for rid, positions in roles[start:]:
                free = positions & ~(ones[rid] | zeros[rid])
                if free:
                    return [rid, free & -free, 0]
            return None

        def emit() -> None:
            nonlocal count
            count += 1
            stats["solutions"] += 1
            if on_solution is not None:
                on_solution()

        first = next_free(0)
        if first is None:
            emit()
            return count
        # one frame per decision position; a frame's parent keeps the level
        # of its successful assignment open until the frame is exhausted
        frames = [first]
        while frames:
            frame = frames[-1]
            rid, bit, tried = frame
            if tried == 2:
                frames.pop()
                if frames:
                    self.pop_level()
                continue
            if deadline is not None:
                check_deadline(deadline)
            frame[2] += 1
            self.push_level()
            stats["nodes"] += 1
            if self._assign(rid, bit, 1 if tried == 0 else 0) and self.propagate_to_fixpoint():
                nxt = next_free(rid)
                if nxt is None:
                    emit()
                    self.pop_level()
                else:
                    frames.append(nxt)
            else:
                self.pop_level()
        return count
