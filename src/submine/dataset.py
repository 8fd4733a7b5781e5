"""Transactional datasets, category schemes, and cover/closure primitives.

Items and transactions are dense 1-based integer indices.  Index sets are
plain Python ints used as bitsets: bit i holds index i, bit 0 stays clear.
Nothing in this module touches floats.  Every cover the engines and the
answer check take is ``meet_columns`` and every closure ``meet_rows``;
the oracle (``reference.brute_force_theory``) shares neither.  A scheme
or database built in Python obeys the rules of a file: ``_group_fault``
and ``_label_fault`` hold them, and the type and the parser call each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from operator import or_
from typing import IO, Iterable, Iterator, Sequence


class FormatError(ValueError):
    """Malformed input file; the message carries the 1-based line number."""


class EmptyDatabaseError(ValueError):
    """The parsed data contains no transactions."""


# ----------------------------------------------------------------- bitsets


def bits_of(indices: Iterable[int]) -> int:
    """Pack an iterable of indices into a bitset."""
    b = 0
    for i in indices:
        b |= 1 << i
    return b


def iter_bits(b: int) -> Iterator[int]:
    """Yield the set bit positions of ``b`` in increasing order."""
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


# iter_bits copies the whole bitset at each set bit; above this width a
# scan of the bitset's binary string, linear in the width, is the faster
# decode once the mask holds a few dozen indices, and at or below it the
# two tie or iter_bits wins
_WIDE_MASK = 1024


def indices_of(b: int) -> tuple[int, ...]:
    """The set bit positions of ``b`` in increasing order."""
    if b.bit_length() <= _WIDE_MASK:
        return tuple(iter_bits(b))
    digits = bin(b)[:1:-1]  # digit i is bit i
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return tuple(out)


def span_bits(lo: int, hi: int) -> int:
    """Bitset holding every index in [lo, hi]."""
    if hi < lo:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def best_choice(total: int, count: int, ranked: Sequence[int], lb: int, ub: int) -> int:
    """The largest ``total + Σ S`` over the subsets S of the scores
    ``ranked``, given in descending order, with ``lb ≤ count + |S| ≤ ub``:
    ``count`` groups are chosen already, their scores summing to ``total``.
    Greedy: the scores are added in order while they raise the sum or are
    needed to reach lb, up to ub.  Exact whenever some S qualifies.  A
    group choice's score is the sum of its groups' scores when the groups
    are disjoint or at most one is chosen: support over a union of
    disjoint groups is the sum of the per-group supports (the partition
    counting of Savasere, Omiecinski & Navathe, VLDB 1995)."""
    for a in ranked:
        if count >= ub or (a <= 0 and count >= lb):
            break
        total += a
        count += 1
    return total


# ---------------------------------------------------------------- database


@dataclass(frozen=True)
class TransactionDatabase:
    """Immutable 0/1 incidence structure with dual row/column bitset views.

    ``columns[i]`` is the bitset of transactions containing item i;
    ``rows[j]`` is the bitset of items in transaction j.  Slot 0 of either
    tuple is unused.  Labels are presentation-only.  ``held_items`` is the
    union of the rows: the items some transaction holds.  Item ids may be
    sparse, so the other items 1..item_count have empty columns.  The
    live items (``queries.live_items``), within which both engines
    search, and ``reference._mine`` start from the held items, so no
    miner visits the others.
    """

    item_count: int
    transaction_count: int
    columns: tuple[int, ...]
    rows: tuple[int, ...]
    item_labels: dict[int, str] | None = None
    held_items: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "held_items", reduce(or_, self.rows, 0))
        labels = self.item_labels or {}
        ids: dict[str, int] = {}  # label -> the id it names
        for i, label in labels.items():
            fault = _label_fault(label, i, ids)
            # an unlabelled item prints as its id, so no label may spell it
            k = int(label) if label.isascii() and label.isdigit() else 0
            if not fault and str(k) == label and 1 <= k <= self.item_count and k not in labels:
                fault = f"label {label!r} of item {i} spells the id of unlabelled item {k}"
            if fault:
                raise ValueError(fault)

    @classmethod
    def from_rows(
        cls,
        row_items: Iterable[Iterable[int]],
        item_count: int | None = None,
        item_labels: dict[int, str] | None = None,
    ) -> "TransactionDatabase":
        """Build a database from per-transaction item collections."""
        row_bits: list[int] = [0]
        max_item = 0
        for items in row_items:
            b = bits_of(items)
            if b & 1:
                raise ValueError("item indices must be >= 1")
            if b:
                max_item = max(max_item, b.bit_length() - 1)
            row_bits.append(b)
        m = len(row_bits) - 1
        if m == 0:
            raise EmptyDatabaseError("database has no transactions")
        n = item_count if item_count is not None else max_item
        if n < max_item:
            raise ValueError(f"item index {max_item} exceeds item_count={n}")
        if n < 1:
            raise ValueError("database needs at least one item")
        cols = [0] * (n + 1)
        for j in range(1, m + 1):
            for i in iter_bits(row_bits[j]):
                cols[i] |= 1 << j
        return cls(n, m, tuple(cols), tuple(row_bits), item_labels)

    def with_labels(self, labels: dict[int, str]) -> "TransactionDatabase":
        return replace(self, item_labels=dict(labels))

    # -- views -------------------------------------------------------------

    def column(self, item: int) -> int:
        if not 1 <= item <= self.item_count:
            raise ValueError(f"item index {item} out of range 1..{self.item_count}")
        return self.columns[item]

    def row(self, trans: int) -> int:
        if not 1 <= trans <= self.transaction_count:
            raise ValueError(
                f"transaction index {trans} out of range 1..{self.transaction_count}"
            )
        return self.rows[trans]

    def all_items(self) -> int:
        return span_bits(1, self.item_count)

    def all_transactions(self) -> int:
        return span_bits(1, self.transaction_count)

    def label(self, item: int) -> str:
        if self.item_labels and item in self.item_labels:
            return self.item_labels[item]
        return str(item)

    def labels_for(self, item_bits: int) -> tuple[str, ...]:
        return tuple(self.label(i) for i in iter_bits(item_bits))


# ----------------------------------------------------------------- parsing


def _read_lines(source: str | IO[str]) -> list[str]:
    if hasattr(source, "read"):
        return source.read().splitlines()
    return source.splitlines()


def parse_fimi(source: str | IO[str]) -> TransactionDatabase:
    """Parse FIMI transaction data: one transaction per non-blank line,
    whitespace-separated positive integer item ids.  Duplicate items within
    a line collapse to a single occurrence."""
    rows: list[set[int]] = []
    for lineno, raw in enumerate(_read_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        items: set[int] = set()
        for tok in line.split():
            try:
                i = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: not an item id: {tok!r}") from None
            if i < 1:
                raise FormatError(f"line {lineno}: item ids must be positive, got {i}")
            items.add(i)
        rows.append(items)
    return TransactionDatabase.from_rows(rows)


def parse_labels(source: str | IO[str]) -> dict[int, str]:
    """Parse an item-label file: ``<id> <label>`` per line, split on the
    first run of whitespace, and ``#`` comment lines.
    An id labelled twice, or a label ``_label_fault`` refuses, is a
    FormatError: a query could not name such a label, and it would blur
    the space-separated itemset column of the output."""
    labels: dict[int, str] = {}
    ids: dict[str, int] = {}  # label -> the id it names
    for lineno, raw in enumerate(_read_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *tail = line.split(maxsplit=1)
        rest = tail[0] if tail else ""
        try:
            i = int(head)
        except ValueError:
            raise FormatError(f"line {lineno}: expected '<id> <label>'") from None
        if i in labels:
            raise FormatError(f"line {lineno}: item {i} already labelled {labels[i]!r}")
        fault = _label_fault(rest, i, ids)
        if fault:
            raise FormatError(f"line {lineno}: {fault}")
        labels[i] = rest
    return labels


def _label_fault(label: str, item: int, ids: dict[str, int]) -> str | None:
    """Why ``label`` cannot label ``item``, or None, given ``ids``, the item
    each label met so far names; a label that can is added to ``ids``."""
    if not label:
        return f"missing label for item {item}"
    if any(c.isspace() for c in label):
        return f"label {label!r} contains whitespace"
    if ids.setdefault(label, item) != item:
        return f"label {label!r} already names item {ids[label]}"
    return None


# --------------------------------------------------------------- partitions


@dataclass(frozen=True)
class Group:
    name: str
    members: int  # bitset


@dataclass(frozen=True)
class PartitionScheme:
    """Named disjoint, non-empty groups of item or transaction indices.

    ``levels`` holds one full partition of 1..size per level; flat schemes
    have a single level.  Indices never mentioned in the input become
    implicit singleton groups.  Names fill the output's mask columns, so
    a name is one ``_name_fault`` allows and names one set of members.
    """

    axis: str  # "items" | "transactions"
    size: int
    levels: tuple[tuple[Group, ...], ...]

    def __post_init__(self) -> None:
        if self.axis not in ("items", "transactions"):
            raise ValueError(f"unknown axis {self.axis!r}")
        universe = span_bits(1, self.size)
        named: dict[str, tuple[int, int]] = {}  # name -> (members, level)
        for k, level in enumerate(self.levels):
            seen = 0
            for g in level:
                fault = _group_fault(g.name, g.members, self.size, seen, named, k)
                if fault:
                    raise ValueError(fault)
                seen |= g.members
            if seen != universe:
                missing = next(iter_bits(universe & ~seen))
                raise ValueError(f"level does not cover index {missing}")

    @property
    def groups(self) -> tuple[Group, ...]:
        return self.levels[0]

    def group_count(self) -> int:
        return len(self.groups)

    @classmethod
    def build(
        cls,
        axis: str,
        size: int,
        groups: Iterable[tuple[str, Iterable[int]]],
        extra_levels: Iterable[Iterable[tuple[str, Iterable[int]]]] = (),
    ) -> "PartitionScheme":
        """Construct a scheme, completing each level with singleton groups."""
        raw_levels = [
            [Group(name, bits_of(ids)) for name, ids in lv]
            for lv in [groups, *extra_levels]
        ]
        return cls(axis, size, _complete_levels(raw_levels, size, axis, None))


def _name_fault(name: str) -> str | None:
    """Why ``name`` cannot name a group in the tab-separated mask columns,
    where '+' joins the names of a union and 'ALL' is the whole axis."""
    if not name:
        return "empty group name"
    if "\t" in name or "\n" in name or "\r" in name:
        return f"group name {name!r} holds a tab or line break"
    if "+" in name:
        return f"group name {name!r} holds a '+', which joins the names of a union"
    if name == "ALL":
        return f"group name {name!r} is reserved for the whole axis"
    return None


def _group_fault(name, members, size, seen, named, level) -> str | None:
    """Why group ``name: members`` cannot join ``level`` of a scheme of
    1..size, or None, given ``seen``, the level's members so far, and
    ``named``, name -> (members, level), to which a group that can is added."""
    fault = _name_fault(name)
    if fault:
        return fault
    if not members:
        return f"group {name!r} has no members"
    if members & 1 or members >> size + 1:  # also true of a negative int
        bad = 0 if members & 1 else members.bit_length() - 1
        return f"group {name!r}: index {bad} out of range 1..{size}"
    if members & seen:
        dup = next(iter_bits(members & seen))
        return f"index {dup} appears in two groups of one level (overlap)"
    prior, first = named.setdefault(name, (members, level))
    if prior != members and first == level:
        return f"duplicate group name {name!r}"
    if prior != members:
        return f"group name {name!r} names other members in an earlier level"
    return None


def _complete_levels(
    raw_levels: list[list[Group]],
    size: int,
    axis: str,
    db: TransactionDatabase | None,
) -> tuple[tuple[Group, ...], ...]:
    """Each level completed with a singleton group per index it misses,
    named by its label if that can name a group, else its id or t<j>, with
    the index appended while the name names other members in some level."""
    named = {g.name: g.members for level in raw_levels for g in level}
    universe = span_bits(1, size)
    levels = []
    for level in raw_levels:
        out = list(level)
        for i in indices_of(universe & ~reduce(or_, (g.members for g in level), 0)):
            own = str(i) if axis == "items" else f"t{i}"
            name = db.label(i) if axis == "items" and db is not None else own
            if _name_fault(name):
                name = own
            bit = 1 << i
            while named.setdefault(name, bit) != bit:
                name = f"{name}({i})"
            out.append(Group(name, bit))
        levels.append(tuple(out))
    return tuple(levels)


def parse_partition(
    source: str | IO[str],
    db: TransactionDatabase,
    axis: str,
) -> PartitionScheme:
    """Parse a partition file.

    Lines are ``name: id id ...``, each a group ``PartitionScheme``
    allows, else a FormatError with the line number and the scheme's text;
    ``level <k>`` headers introduce hierarchy levels; ``#`` begins a
    comment line.  Unmentioned indices are singleton groups in every level.
    """
    # PartitionScheme refuses an axis that is neither
    size = db.item_count if axis == "items" else db.transaction_count

    raw_levels: list[list[Group]] = []
    current: list[Group] = []
    named: dict[str, tuple[int, int]] = {}  # name -> (members, level)
    seen = 0  # the indices of the current level's groups
    last_level_no = 0
    for lineno, raw in enumerate(_read_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "level":
            if len(parts) != 2 or not parts[1].isdigit():
                raise FormatError(f"line {lineno}: expected 'level <k>'")
            if int(parts[1]) <= last_level_no:
                raise FormatError(f"line {lineno}: level numbers must increase")
            if current or last_level_no:  # a group or header came before
                raw_levels.append(current)
                current, seen = [], 0
            last_level_no = int(parts[1])
            continue
        name, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'name: id id ...'")
        name = name.strip()
        members = 0
        for tok in rest.split():
            try:
                i = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: not an index: {tok!r}") from None
            if not 1 <= i <= size:  # before 1 << i is built
                raise FormatError(
                    f"line {lineno}: group {name!r}: index {i} out of range 1..{size}"
                )
            if members >> i & 1:
                raise FormatError(f"line {lineno}: index {i} repeated in {name!r}")
            members |= 1 << i
        fault = _group_fault(name, members, size, seen, named, len(raw_levels))
        if fault:
            raise FormatError(f"line {lineno}: {fault}")
        seen |= members
        current.append(Group(name, members))
    raw_levels.append(current)

    return PartitionScheme(axis, size, _complete_levels(raw_levels, size, axis, db))


# ------------------------------------------------------- meets of bitsets


def meet_columns(db: TransactionDatabase, rows: int, items: int) -> int:
    """``rows`` intersected with the column of every item of ``items``:
    the cover of ``items`` within ``rows``.  It stops once it is empty."""
    cols = db.columns
    while items and rows:
        i = items.bit_length() - 1
        rows &= cols[i]
        items ^= 1 << i
    return rows


def meet_rows(db: TransactionDatabase, cov: int, items: int, floor: int) -> int:
    """``items`` intersected with every row of ``cov``: the closure of
    ``floor`` within ``items`` when ``cov`` is its cover.  Every row of
    ``cov`` must hold ``floor``; the intersection then never drops below
    it, so it stops once it reaches it."""
    rows = db.rows
    while cov:
        low = cov & -cov
        items &= rows[low.bit_length() - 1]
        if items == floor:
            break
        cov ^= low
    return items
