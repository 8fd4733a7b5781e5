"""Tri-state Boolean constraint solver.

Variables hold one of {unassigned, 0, 1}.  Every variable has one of four
roles and a 1-based position within it, in creation order.  The state is,
per role, two bitsets over those positions: the variables fixed to 1 and
the variables fixed to 0.  Propagators that work on whole roles read and
assign these bitsets instead of single variables, and root facts are
assigned the same way.  Propagators are woken through a FIFO queue with
per-propagator dedup until fixpoint.  A propagator may also ask for a
reversible slot, one value of its own state.  Each decision level saves
the bitsets and the slots, and backtracking restores them.  Search
branches on the lowest free position of the first role, in the order aux,
H, V, X, that still has one, so the sub-dataset is fixed before the
itemset; it enumerates every full assignment accepted by all propagators,
exactly once.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from .dataset import wide_bits_of

UNASSIGNED = -1

ROLE_X = "X"  # itemset membership
ROLE_H = "H"  # item activation (mask)
ROLE_V = "V"  # transaction activation (mask)
ROLE_AUX = "aux"  # group indicators and other auxiliaries

# role -> role id; also the branching order
_ROLE_IDS = {role: rid for rid, role in enumerate((ROLE_AUX, ROLE_H, ROLE_V, ROLE_X))}
_MASK_RIDS = frozenset((_ROLE_IDS[ROLE_H], _ROLE_IDS[ROLE_V]))


class SearchTimeout(Exception):
    """Raised inside search when the caller's stop predicate fires."""


class Propagator:
    """Filtering procedure for one constraint.

    ``propagate`` may assign watched or other variables through the solver
    and must return False exactly when it detects a contradiction.  It must
    be sound (never remove a value that some solution of its constraint
    extends) and idempotent at fixpoint.
    """

    def vars(self) -> Iterable[int]:
        raise NotImplementedError

    def bind(self, s: "Solver") -> None:
        """Called once by ``Solver.post`` before the first propagation."""

    def propagate(self, s: "Solver") -> bool:
        raise NotImplementedError


class Solver:
    def __init__(self) -> None:
        self._roles: list[str] = []
        self._rid: list[int] = []  # role id of each variable
        # position of each variable in its role; one bit per variable would
        # cost memory quadratic in the size of the role
        self._pos: list[int] = []
        # per role id
        self._role_size = [0] * len(_ROLE_IDS)
        self._ones = [0] * len(_ROLE_IDS)  # positions fixed to 1
        self._zeros = [0] * len(_ROLE_IDS)  # positions fixed to 0
        # propagator id -> positions of the role it watches
        self._watchers: list[dict[int, int]] = [{} for _ in _ROLE_IDS]
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

    # -- variables ----------------------------------------------------------

    def new_var(self, role: str = ROLE_AUX) -> int:
        return self.new_vars(1, role)[0]

    def new_vars(self, count: int, role: str) -> list[int]:
        """``count`` new variables of ``role``, at the next positions."""
        if self._marks:
            raise RuntimeError("variables must be created at the root level")
        if count < 0:
            raise ValueError(f"cannot create {count} variables")
        rid = _ROLE_IDS.get(role)
        if rid is None:
            raise ValueError(f"unknown role {role!r}; expected one of {', '.join(_ROLE_IDS)}")
        first, size = len(self._roles), self._role_size[rid]
        self._role_size[rid] += count
        self._pos.extend(range(size + 1, size + count + 1))
        self._roles.extend([role] * count)
        self._rid.extend([rid] * count)
        if rid in _MASK_RIDS:
            self._mask_unassigned += count
        return list(range(first, first + count))

    def new_slot(self) -> int:
        """Index of a new reversible slot in ``slots``, holding None.
        Backtracking restores each slot to its value at the parent's
        fixpoint.  A level saves references only, so store values that are
        never mutated, such as tuples of ints."""
        if self._marks:
            raise RuntimeError("slots must be created at the root level")
        self.slots.append(None)
        return len(self.slots) - 1

    def value(self, v: int) -> int:
        rid = self._rid[v]
        pos = self._pos[v]
        if self._ones[rid] >> pos & 1:
            return 1
        if self._zeros[rid] >> pos & 1:
            return 0
        return UNASSIGNED

    def role(self, v: int) -> str:
        return self._roles[v]

    def position(self, v: int) -> int:
        """1-based position of v among the variables of its role."""
        return self._pos[v]

    def fixed(self, role: str) -> tuple[int, int]:
        """Bitsets of the positions of ``role`` fixed to 1 and fixed to 0;
        (0, 0) for a role without variables."""
        rid = _ROLE_IDS[role]
        return self._ones[rid], self._zeros[rid]

    def role_bits(self, variables: Iterable[int]) -> tuple[str | None, int]:
        """The one role shared by ``variables`` and the bitset of their
        positions; (None, 0) for no variables.  Mixed roles are an error."""
        role = None
        positions = []
        for v in variables:
            if role is None:
                role = self._roles[v]
            elif self._roles[v] != role:
                raise ValueError(f"variables mix roles {role!r} and {self._roles[v]!r}")
            positions.append(self._pos[v])
        return role, wide_bits_of(positions)

    def indexed_role(self, variables: Sequence[int | None]) -> tuple[str | None, int]:
        """``role_bits`` of a list whose entry i, where not None, must sit
        at position i of its role."""
        for i, v in enumerate(variables):
            if v is not None and self.position(v) != i:
                raise ValueError(f"variable {v} is not at position {i} of its role")
        return self.role_bits(v for v in variables if v is not None)

    @property
    def num_vars(self) -> int:
        return len(self._roles)

    def snapshot(self) -> tuple[int, ...]:
        """Every variable's value, in creation order; search never builds it."""
        ones, zeros = self._ones, self._zeros
        return tuple(
            [
                1 if ones[rid] >> pos & 1 else 0 if zeros[rid] >> pos & 1 else UNASSIGNED
                for rid, pos in zip(self._rid, self._pos)
            ]
        )

    # -- assignment and backtracking ------------------------------------------

    def assign(self, v: int, val: int) -> bool:
        """Assign v := val; False iff v already holds the opposite value."""
        return self._assign(self._rid[v], 1 << self._pos[v], val)

    def assign_bits(self, role: str, bits: int, val: int) -> bool:
        """Assign val to the variables of ``role`` at the positions in
        ``bits``; False iff one of them holds the opposite value."""
        return not bits or self._assign(_ROLE_IDS[role], bits, val)

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
        if rid in _MASK_RIDS:
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
        n = len(self._roles)
        by_role: dict[int, list[int]] = {}  # role id -> watched positions
        for v in prop.vars():
            if not 0 <= v < n:
                raise ValueError(f"propagator watches unknown variable {v}")
            by_role.setdefault(self._rid[v], []).append(self._pos[v])
        prop.bind(self)
        pid = len(self._props)
        self._props.append(prop)
        for rid, positions in by_role.items():
            self._watchers[rid][pid] = wide_bits_of(positions)
        if not self.root_failed:
            self._queued.add(pid)
            self._queue.append(pid)
            if not self.propagate_to_fixpoint():
                self.root_failed = True
        return pid

    def assign_root(self, role: str, bits: int, val: int) -> bool:
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
            queued.discard(pid)
            if not props[pid].propagate(self):
                queue.clear()
                queued.clear()
                return False
        return True

    # -- search -----------------------------------------------------------------

    def search_all(
        self,
        on_solution: Callable[[], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> int:
        """Exhaustive DFS over all full assignments accepted by every
        propagator.  It branches on the lowest free position of the first
        role, in the order aux, H, V, X, that still has one; value 1 is
        tried before 0.  ``on_solution()`` is called once per solution,
        while the solver holds it (read it through ``fixed`` or
        ``value``).  Returns the solution count.  Iterative, so the depth
        is bounded by memory, not the interpreter's recursion limit."""
        if self.root_failed:
            return 0
        ones, zeros = self._ones, self._zeros
        roles = [(rid, (1 << size + 1) - 2) for rid, size in enumerate(self._role_size)]
        stats = self.stats
        count = 0

        def next_free(start: int) -> list[int] | None:
            """The frame [role id, bit, tried] of the next decision, from
            role id ``start`` on; None once every variable is fixed."""
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
        # one frame per decision variable; a frame's parent keeps the level
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
            if should_stop is not None and should_stop():
                raise SearchTimeout
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
