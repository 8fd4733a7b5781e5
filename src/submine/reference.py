"""Preprocess-then-mine baseline and the exhaustive brute-force oracle.

The baseline enumerates every sub-dataset satisfying the query's dataset
constraints, then runs a closure-extension depth-first miner on each;
mining-side constraints are applied during the search, not as a post-pass.
The oracle evaluates the query predicate by definition over every feasible
mask and every non-empty subset of active items, using nothing but the
dataset primitives.  All three engines must agree on every theory.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
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
        self._count = query.items.count(item_scheme) * query.trans.count(trans_scheme)

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
    itemset-side constraints, as bitsets (see ``_mine``)."""
    return _mine(db, mask, theta, True, min_size, span, require, forbid, item_scheme, deadline)


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
    return _mine(db, mask, theta, False, min_size, span, require, forbid, item_scheme, deadline)


def _mine(
    db: TransactionDatabase,
    mask: Mask,
    theta: Fraction,
    closed: bool,
    min_size: int,
    span: tuple[int, int] | None,
    require: int,
    forbid: int,
    item_scheme: PartitionScheme | None,
    deadline: float | None,
) -> list[int]:
    """Depth-first miner behind mine_closed and mine_frequent.

    Each node extends its itemset by one frequent item e above the node's
    core (the item that created it).  The frequent miner adds e; the
    closed miner jumps to the closure, so each closed set is reached once,
    from the seed item whose addition created it, with a
    prefix-preservation test to kill duplicates.  The closed search starts
    at the closure of the empty set, the frequent one at the empty set.
    Constraints prune during the search where they are monotone (forbidden
    items, size bound, span upper bound, required items that can no longer
    join) and filter at emission otherwise.  Raises SearchTimeout once
    ``time.monotonic()`` passes ``deadline``.
    """
    act_t = mask.active_transactions
    n_act = act_t.bit_count()
    if n_act == 0:
        return []
    act_i = mask.active_items
    if require & ~act_i:
        return []
    p, q = theta.numerator, theta.denominator
    need = p * n_act
    cols = db.columns
    rows = db.rows
    group_bits = [g.members for g in item_scheme.groups] if item_scheme else None
    out: list[int] = []

    def span_of(bits: int) -> int:
        return sum(1 for g in group_bits if g & bits)

    if closed:

        def extend(pat: int, low: int, cov: int) -> int:
            ext = act_i  # the closure: active items of every covered row
            while cov:
                t = cov & -cov
                ext &= rows[t.bit_length() - 1]
                cov ^= t
            below = low - 1
            if (ext & below) != (pat & below):
                return 0  # already reached from a smaller seed
            return 0 if ext & forbid else ext

        root = act_i
        rest = act_t
        while rest:
            t = rest & -rest
            root &= rows[t.bit_length() - 1]
            rest ^= t
        if root & forbid:
            # every closed set contains the root closure, so nothing qualifies
            return []
    else:

        def extend(pat: int, low: int, cov: int) -> int:
            return pat | low

        root = 0

    nodes = 0

    def grow(pat: int, cov: int, core: int) -> None:
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes % _DEADLINE_STRIDE == 0:
            _check(deadline)
        if pat and pat.bit_count() >= min_size and not require & ~pat:
            if span is None or span[0] <= span_of(pat) <= span[1]:
                out.append(pat)
        if span is not None and span_of(pat) > span[1]:
            return
        missing = require & ~pat
        if missing and (missing & -missing).bit_length() - 1 <= core:
            return  # a required item below the core can never join
        cand = act_i & ~pat & ~forbid & ~((1 << (core + 1)) - 1)
        if pat.bit_count() + cand.bit_count() < min_size:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            e = low.bit_length() - 1
            cov_e = cov & cols[e]
            if q * cov_e.bit_count() < need:
                continue
            child = extend(pat, low, cov_e)
            if child:
                grow(child, cov_e, e)

    grow(root, act_t, 0)
    return out


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
    each one with the specialized miner.  Answers with the set of
    (item_bits, trans_bits, itemset_bits) triples, which equals cp's;
    ``run_theory`` checks and decodes them."""
    enum = enumerate_masks(db, query, item_scheme, trans_scheme)
    miner = mine_closed if query.closed else mine_frequent
    triples: set[tuple[int, int, int]] = set()
    n_masks = 0
    for mask in enum:
        n_masks += 1
        if deadline is not None:
            _check(deadline)
        if mask.active_transactions == 0 or mask.active_items == 0:
            continue
        for pat in miner(
            db,
            mask,
            query.theta,
            min_size=query.min_size,
            span=query.span,
            require=query.require,
            forbid=query.forbid,
            item_scheme=item_scheme,
            deadline=deadline,
        ):
            triples.add((mask.active_items, mask.active_transactions, pat))
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
