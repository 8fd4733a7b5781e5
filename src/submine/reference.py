"""Preprocess-then-mine baseline and the exhaustive brute-force oracle.

The baseline enumerates every sub-dataset satisfying the query's dataset
constraints, then runs one closure-extension depth-first search per item
mask that decides frequency and closedness for all of that item mask's
transaction masks at once; mining-side constraints are applied during the
search, not as a post-pass.  The oracle evaluates the query predicate by
definition over every feasible mask and every non-empty subset of active
items, using nothing but the dataset primitives.  All three engines must
agree on every theory.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, groupby
from operator import attrgetter, or_
from typing import Iterator

from .dataset import (
    Mask,
    PartitionScheme,
    TransactionDatabase,
    bits_of,
    indices_of,
)
from .engine import SearchTimeout

# count_masks, make_pair and UnsupportedQueryError live in queries;
# importers of this module find them here too
from .queries import (
    AxisConstraint,
    Query,
    UnsupportedQueryError,
    check_query,
    count_masks,
    make_pair,
)

_ORACLE_MAX_ITEMS = 24
_ORACLE_MAX_MASKS = 1 << 20
# search nodes (or oracle subsets) between two reads of the clock
_DEADLINE_STRIDE = 64


class SizeLimitError(ValueError):
    """Instance exceeds the oracle's safety bounds."""


def _check(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise SearchTimeout


# --------------------------------------------------------- mask enumeration


class MaskEnumerator:
    """Iterates every sub-dataset mask a query's dataset part allows,
    each exactly once per group choice; count() needs no materialization."""

    def __init__(
        self,
        db: TransactionDatabase,
        query: Query,
        item_scheme: PartitionScheme | None = None,
        trans_scheme: PartitionScheme | None = None,
    ):
        check_query(db, query, item_scheme, trans_scheme)
        self.db = db
        self.query = query
        self.item_scheme = item_scheme
        self.trans_scheme = trans_scheme
        self._count = query.items.count(db.all_items(), item_scheme)
        self._count *= query.trans.count(db.all_transactions(), trans_scheme)

    def count(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Mask]:
        trans_opts = list(
            self.query.trans.masks(self.db.all_transactions(), self.trans_scheme)
        )
        for ib in self.query.items.masks(self.db.all_items(), self.item_scheme):
            for tb in trans_opts:
                yield Mask(ib, tb)


def enumerate_masks(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
) -> MaskEnumerator:
    return MaskEnumerator(db, query, item_scheme, trans_scheme)


# ------------------------------------------------------------------ miners


def mine_closed(
    db: TransactionDatabase,
    mask: Mask,
    theta: Fraction,
    min_size: int = 1,
    span: tuple[int, int] | None = None,
    require: int = 0,
    forbid: int = 0,
    item_scheme: PartitionScheme | None = None,
    deadline: float | None = None,
) -> list[int]:
    """All frequent closed itemsets of the sub-dataset satisfying the
    itemset-side constraints, as bitsets: the one-mask case of ``_mine``."""
    return _mine_mask(
        db, mask, theta, True, min_size, span, require, forbid, item_scheme, deadline
    )


def mine_frequent(
    db: TransactionDatabase,
    mask: Mask,
    theta: Fraction,
    min_size: int = 1,
    span: tuple[int, int] | None = None,
    require: int = 0,
    forbid: int = 0,
    item_scheme: PartitionScheme | None = None,
    deadline: float | None = None,
) -> list[int]:
    """All frequent itemsets (no closedness) of the sub-dataset, same
    constraint handling and deadline as mine_closed."""
    return _mine_mask(
        db, mask, theta, False, min_size, span, require, forbid, item_scheme, deadline
    )


def _mine_mask(db, mask: Mask, theta, closed, *constraints) -> list[int]:
    """The body of both one-mask miners."""
    trans, cells = _trans_plan([mask.active_transactions])
    found = _mine(db, mask.active_items, trans, cells, theta, closed, *constraints)
    return found.get(mask.active_transactions, [])


def _trans_plan(
    masks: list[int], deadline: float | None = None
) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """The distinct non-empty transaction masks, fewest transactions first,
    each with the indices of the cells it is the union of; and the cells,
    the Venn blocks of all the masks (disjoint, non-empty).  Each mask
    costs a pass over the cells, so the deadline is read once per mask."""
    distinct = sorted({m for m in masks if m})
    distinct.sort(key=int.bit_count)  # stable: by size, then by value
    cells = [reduce(or_, distinct)] if distinct else []
    for m in distinct:
        if deadline is not None:
            _check(deadline)
        cells = [part for c in cells for part in (c & m, c & ~m) if part]
    plan = []
    for m in distinct:
        if deadline is not None:
            _check(deadline)
        plan.append((m, [i for i, c in enumerate(cells) if c & m]))
    return plan, cells


def _mine(
    db: TransactionDatabase,
    act_i: int,
    trans: list[tuple[int, list[int]]],
    cells: list[int],
    theta: Fraction,
    closed: bool,
    min_size: int,
    span: tuple[int, int] | None,
    require: int,
    forbid: int,
    item_scheme: PartitionScheme | None,
    deadline: float | None,
) -> dict[int, list[int]]:
    """The one miner: for every transaction mask of ``trans`` (a
    ``_trans_plan``) at once, the itemsets that are answers in the
    sub-dataset of the items ``act_i`` and that mask, keyed by the mask.

    Each node extends its itemset by one item e above the node's core (the
    item that created it).  A node carries its *live* masks, those in which
    its itemset is frequent, fewest transactions first.  A candidate is
    rejected outright when q·|cover| < p·|M| for the smallest live M, and
    otherwise keeps the live masks M with q·|cover ∧ M| ≥ p·|M| (exact
    integers); a subtree dies with its last live mask.  The node's cover is
    kept inside the union of its live masks, the *closure base*.  The
    frequent miner adds e; the closed miner jumps to the closure over the
    base, with a prefix-preservation test to kill duplicates.  No answer is
    lost: an itemset Y closed in M contains the base closure of every
    itemset on its path, because every base on that path contains M.  A
    node emits each live mask in which its itemset is closed: its closure
    in M is the intersection of its closures in M's cells.  With one live
    mask, that mask is the base, so the node is closed there by
    construction and does exactly the work of a one-mask search.  Every
    closure stops at its floor: each covered row holds the itemset being
    closed (the candidate in ``extend``, the node's itemset in each of
    ``emit``'s cells, the empty set at the root), so a running
    intersection of those rows never drops below it, and once it reaches
    it the rest of the rows cannot change it.  The closed search starts
    at the closure of the empty set over all masks, the frequent one at
    the empty set.  Constraints prune during the search where they are
    monotone (forbidden items, size bound, span upper bound, required
    items that can no longer join) and filter at emission otherwise.
    Raises SearchTimeout once ``time.monotonic()`` passes
    ``deadline``.
    """
    # every planned transaction mask is non-empty, so an item no
    # transaction holds is frequent in none of them; and every row lies
    # inside the held items, so no closure changes
    act_i &= db.held_items
    if not trans or not act_i or require & ~act_i:
        return {}
    p, q = theta.numerator, theta.denominator
    # (mask, p·|mask|, its cell indices, its answers), least need first
    live = [(tb, p * tb.bit_count(), ids, []) for tb, ids in trans]
    base = reduce(or_, (tb for tb, _ in trans))
    cols = db.columns
    rows = db.rows
    group_bits = [g.members for g in item_scheme.groups] if item_scheme else None

    def span_of(bits: int) -> int:
        return sum(1 for g in group_bits if g & bits)

    def closure(cov: int, floor: int) -> int:
        ext = act_i  # the active items of every covered row
        while cov:
            t = cov & -cov
            ext &= rows[t.bit_length() - 1]
            if ext == floor:
                break  # every covered row holds floor: ext is final
            cov ^= t
        return ext

    if closed:

        def extend(pat: int, low: int, cov: int) -> int:
            floor = pat | low  # inline closure(cov, floor): once per candidate
            ext = act_i
            while cov:
                t = cov & -cov
                ext &= rows[t.bit_length() - 1]
                if ext == floor:
                    break
                cov ^= t
            below = low - 1
            if (ext & below) != (pat & below):
                return 0  # already reached from a smaller seed
            return 0 if ext & forbid else ext

        def emit(pat: int, cov: int, live: list) -> None:
            per_cell = [closure(cov & c, pat) for c in cells]
            for _, _, ids, found in live:
                ext = act_i
                for i in ids:
                    ext &= per_cell[i]
                if ext == pat:
                    found.append(pat)

        root = closure(base, 0)
        if root & forbid:
            # every closed set contains the root closure, so nothing qualifies
            return {}
    else:

        def extend(pat: int, low: int, cov: int) -> int:
            return pat | low

        def emit(pat: int, cov: int, live: list) -> None:
            for m in live:
                m[3].append(pat)

        root = 0

    nodes = 0

    def grow(pat: int, cov: int, core: int, live: list, found: list | None) -> None:
        # found: the one live mask's answers, or None with several live masks
        nonlocal nodes
        nodes += 1
        # the clock is read every _DEADLINE_STRIDE nodes, and before each
        # pass (emit, or a candidate's filter) over as many live masks
        watch = deadline is not None and len(live) >= _DEADLINE_STRIDE
        if watch or deadline is not None and nodes % _DEADLINE_STRIDE == 0:
            _check(deadline)
        if pat and pat.bit_count() >= min_size and not require & ~pat:
            if span is None or span[0] <= span_of(pat) <= span[1]:
                if found is not None:
                    found.append(pat)
                else:
                    emit(pat, cov, live)
        if span is not None and span_of(pat) > span[1]:
            return
        missing = require & ~pat
        if missing and (missing & -missing).bit_length() - 1 <= core:
            return  # a required item below the core can never join
        cand = act_i & ~pat & ~forbid & ~((1 << (core + 1)) - 1)
        if pat.bit_count() + cand.bit_count() < min_size:
            return
        need = live[0][1]  # with one live mask the exact test, else a cheap reject
        while cand:
            low = cand & -cand
            cand ^= low
            e = low.bit_length() - 1
            cov_e = cov & cols[e]
            if q * cov_e.bit_count() < need:
                continue
            kids, sink = live, found
            if found is None:
                if watch:
                    _check(deadline)
                kids = [m for m in live if q * (cov_e & m[0]).bit_count() >= m[1]]
                if not kids:
                    continue
                if len(kids) < len(live):
                    cov_e &= reduce(or_, (m[0] for m in kids))
                    if len(kids) == 1:
                        sink = kids[0][3]
            child = extend(pat, low, cov_e)
            if child:
                grow(child, cov_e, e, kids, sink)

    grow(root, base, 0, live, live[0][3] if len(live) == 1 else None)
    return {m[0]: m[3] for m in live}


# ---------------------------------------------------------------- baseline


def pp_mine(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
    deadline: float | None = None,
    stats: dict | None = None,
) -> set[tuple[int, int, int]]:
    """Two-step baseline: enumerate every feasible sub-dataset, then mine
    them, one search per item mask for all of its transaction masks
    (``_mine``).  The enumerator yields the masks item-major; their
    transaction masks, and so their cells, are built once per query.
    Answers with the set of (item_bits, trans_bits, itemset_bits) triples,
    which equals cp's; ``run_theory`` checks and decodes them."""
    enum = enumerate_masks(db, query, item_scheme, trans_scheme)
    triples: set[tuple[int, int, int]] = set()
    n_masks = 0
    planned = None
    for ib, group in groupby(enum, key=attrgetter("active_items")):
        tbs = []
        for mask in group:
            n_masks += 1
            if deadline is not None:
                _check(deadline)
            tbs.append(mask.active_transactions)
        if tbs != planned:
            planned = tbs
            trans, cells = _trans_plan(tbs, deadline)
        for tb, found in _mine(
            db, ib, trans, cells, query.theta, query.closed,
            query.min_size, query.span, query.require, query.forbid,
            item_scheme, deadline,
        ).items():
            triples.update((ib, tb, pat) for pat in found)
    if stats is not None:
        stats["masks"] = stats.get("masks", 0) + n_masks
    return triples


# ------------------------------------------------------------------ oracle


def _oracle_axis(
    con: AxisConstraint, universe: int, scheme: PartitionScheme | None
) -> Iterator[int]:
    """By-definition activation enumeration: all subsets of groups filtered
    by the bounds, independent of the combination iterator above."""
    if con.kind == "all":
        yield universe
    elif con.kind == "fixed":
        yield con.members
    elif con.kind == "groups":
        groups = scheme.groups
        k = len(groups)
        for sel in range(1 << k):
            size = sel.bit_count()
            if not con.lb <= size <= con.ub:
                continue
            bits = 0
            for gi in range(k):
                if sel >> gi & 1:
                    bits |= groups[gi].members
            yield bits
    elif con.kind == "one_per_level":
        for level in scheme.levels:
            for g in level:
                yield g.members
    else:
        raise UnsupportedQueryError(f"dataset constraint {con.kind!r} not supported")


def _oracle_axis_space(con: AxisConstraint, scheme: PartitionScheme | None) -> int:
    if con.kind in ("all", "fixed"):
        return 1
    if con.kind == "groups":
        return 1 << scheme.group_count()
    if con.kind == "one_per_level":
        return sum(len(level) for level in scheme.levels)
    raise UnsupportedQueryError(f"dataset constraint {con.kind!r} not supported")


def brute_force_theory(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
    deadline: float | None = None,
) -> set[tuple[int, int, int]]:
    """Evaluate the query predicate by definition over every feasible mask
    and every non-empty subset of active items; no solver, no miner.
    Answers with (item_bits, trans_bits, itemset_bits) triples, as pp_mine."""
    from .dataset import closure, cover  # dataset primitives only

    if db.item_count > _ORACLE_MAX_ITEMS:
        raise SizeLimitError(
            f"oracle refuses {db.item_count} items (bound {_ORACLE_MAX_ITEMS})"
        )
    space = _oracle_axis_space(query.items, item_scheme) * _oracle_axis_space(
        query.trans, trans_scheme
    )
    if space > _ORACLE_MAX_MASKS:
        raise SizeLimitError(
            f"oracle refuses {space} candidate masks (bound {_ORACLE_MAX_MASKS})"
        )
    p, q = query.theta.numerator, query.theta.denominator
    triples: set[tuple[int, int, int]] = set()
    trans_options = list(
        _oracle_axis(query.trans, db.all_transactions(), trans_scheme)
    )
    subsets = 0
    for item_bits in _oracle_axis(query.items, db.all_items(), item_scheme):
        active = indices_of(item_bits)
        for trans_bits in trans_options:
            if deadline is not None:
                _check(deadline)
            n_act = trans_bits.bit_count()
            if n_act == 0:
                continue
            mask = Mask(item_bits, trans_bits)
            need = p * n_act
            for r in range(max(1, query.min_size), len(active) + 1):
                for chosen in combinations(active, r):
                    subsets += 1
                    if deadline is not None and subsets % _DEADLINE_STRIDE == 0:
                        _check(deadline)
                    pat = bits_of(chosen)
                    if pat & query.forbid or query.require & ~pat:
                        continue
                    if query.span is not None:
                        touched = sum(
                            1 for g in item_scheme.groups if g.members & pat
                        )
                        if not query.span[0] <= touched <= query.span[1]:
                            continue
                    cov = cover(db, pat, mask)
                    if q * cov.bit_count() < need:
                        continue
                    if query.closed and closure(db, pat, mask) != pat:
                        continue
                    triples.add((item_bits, trans_bits, pat))
    return triples
