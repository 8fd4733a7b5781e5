"""Preprocess-then-mine baseline and the exhaustive brute-force oracle.

The baseline enumerates every sub-dataset satisfying the query's dataset
constraints, then runs one closure-extension depth-first search per
distinct live part of the item masks (``queries.live_items``), which
decides frequency and closedness for all of the transaction masks at
once; item masks that share their live items share its answers.  The
search carries the transaction axis's groups, not its masks: over
disjoint groups a mask's support is the sum of its groups' supports, so
one score per group bounds every mask, and the masks are listed only
where an itemset is emitted.  Mining-side constraints are applied during
the search, not as a post-pass.  The oracle evaluates the query predicate
by definition over every feasible mask and every non-empty subset of
active items from the rows alone, sharing no cover or closure with the
other engines or the answer check.  All three engines must agree on
every theory.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, groupby
from operator import and_, itemgetter, or_
from typing import Iterator

from .dataset import (
    PartitionScheme,
    TransactionDatabase,
    best_choice,
    bits_of,
    indices_of,
    meet_rows,
)
from .engine import check_deadline

# count_masks, make_pair and UnsupportedQueryError live in queries;
# importers of this module find them here too
from .queries import (
    AxisConstraint,
    Query,
    UnsupportedQueryError,
    check_query,
    count_masks,
    count_text,
    live_items,
    make_pair,
)

_ORACLE_MAX_ITEMS = 24
_ORACLE_MAX_MASKS = 1 << 20
# search nodes (or listed masks, or oracle subsets) between two reads of
# the clock
_DEADLINE_STRIDE = 64


class SizeLimitError(ValueError):
    """Instance exceeds the oracle's safety bounds."""


# --------------------------------------------------------- mask enumeration


class MaskEnumerator:
    """Iterates every sub-dataset mask a query's dataset part allows, as
    an (item_bits, trans_bits) pair, each exactly once per group choice
    and lazily over the item masks; count() needs no materialization."""

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

    def __iter__(self) -> Iterator[tuple[int, int]]:
        trans_opts = list(
            self.query.trans.masks(self.db.all_transactions(), self.trans_scheme)
        )
        for ib in self.query.items.masks(self.db.all_items(), self.item_scheme):
            for tb in trans_opts:
                yield ib, tb


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
    mask: tuple[int, int],
    theta: Fraction,
    min_size: int = 1,
    span: tuple[int, int] | None = None,
    require: int = 0,
    forbid: int = 0,
    item_scheme: PartitionScheme | None = None,
    deadline: float | None = None,
) -> list[int]:
    """All frequent closed itemsets of the sub-dataset ``mask``, an
    (item_bits, trans_bits) pair, satisfying the itemset-side
    constraints, as bitsets: the one-mask case of ``_mine``."""
    return _mine_mask(
        db, mask, theta, True, min_size, span, require, forbid, item_scheme, deadline
    )


def mine_frequent(
    db: TransactionDatabase,
    mask: tuple[int, int],
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


def _mine_mask(db, mask, theta, closed, *constraints) -> list[int]:
    """The body of both one-mask miners.  The query of the fixed mask goes
    through ``check_query`` first, as every engine's does."""
    ib, tb = mask
    min_size, span, require, forbid, item_scheme, _ = constraints
    fixed = AxisConstraint.fixed
    query = Query(theta, closed, min_size, span, require, forbid, fixed(ib), fixed(tb))
    check_query(db, query, item_scheme)
    choices = query.trans.answer_choices(db.all_transactions(), None)
    return _mine(db, ib, choices, theta, closed, *constraints).get(tb, [])


def _choice_floor(ranked: list[int], lb: int, ub: int) -> int | None:
    """For group scores ``ranked``, in descending order, of at least lb
    disjoint groups: None when no choice of lb..ub of them sums to ≥ 0,
    else the least score of a group that lies in such a choice.  The best
    choice that holds group g scores g's score plus the best lb-1..ub-1
    of the other groups.  The floor takes the best lb-1..ub-1 of all the
    groups in their place: for a group outside the greedy best choice the
    two agree, and a group inside it lies in a choice that reaches 0 and
    clears the floor too."""
    if best_choice(0, 0, ranked, lb, ub) < 0:
        return None
    return -best_choice(0, 0, ranked, lb - 1, ub - 1)


def _mine(
    db: TransactionDatabase,
    act_i: int,
    choices: tuple[tuple[int, ...], int, int],
    theta: Fraction,
    closed: bool,
    min_size: int,
    span: tuple[int, int] | None,
    require: int,
    forbid: int,
    item_scheme: PartitionScheme | None,
    deadline: float | None,
) -> dict[int, list[int]]:
    """The one miner: for every transaction mask of the group choice
    ``choices`` (the (groups, lb, ub) of ``AxisConstraint.answer_choices``:
    non-empty groups, lb ≥ 1, and none when lb > ub) at once, the
    itemsets that are answers in the sub-dataset of the items ``act_i``
    and that mask, keyed by the mask.  With ub > 1 the groups must be
    disjoint, as the groups of a partition are.

    Each node extends its itemset by one item e above the node's core (the
    item that created it).  A node carries one *live* entry (members,
    p·|g|) per distinct group in which its itemset may still be frequent,
    fewest transactions first.  A subtree dies with its last live group,
    and the node's cover is kept inside the union of its live groups, the
    *closure base*.

    With ub = 1 (``all``, ``fixed``, one-of-levels, one group of a
    partition) every choice is one group, a mask.  A candidate is
    rejected outright when q·|cover| < p·|M| for the smallest live M, and
    otherwise keeps the live masks M with q·|cover ∧ M| ≥ p·|M| (exact
    integers).

    With ub > 1 the groups are disjoint, so a choice's support is the sum
    of its groups' supports (the partition counting of Savasere,
    Omiecinski & Navathe, VLDB 1995).  A candidate scores each live group
    g with ``q·|cover ∧ g| − p·|g|``.  It dies when no lb..ub choice of
    the live groups has a score sum ≥ 0 (``dataset.best_choice``, exact
    for disjoint groups), and keeps the groups that lie in some choice
    that has (``_choice_floor``).  A group's score only falls as the
    itemset grows, so a group dropped there lies in no answer's choice
    below.

    The frequent miner adds e; the closed miner jumps to the closure over
    the base, with a prefix-preservation test to kill duplicates.  No
    answer is lost: an itemset Y closed in M contains the base closure of
    every itemset on its path, because every base on that path contains
    M.  A node's closure in a live group is the meet of the group's
    covered rows (``dataset.meet_rows``; Pasquier et al., ICDT 1999).
    With ub = 1 a node emits each live mask in which its itemset is
    closed.  With ub > 1 it lists the choices of its live groups whose
    score sum is ≥ 0 and, in closed mode, whose groups' closures meet at
    the itemset: a depth-first walk over the groups by descending score
    that leaves a branch once the greedy bound of what the rest can add
    falls below 0.  With one live group, that group is the base, so the
    node is closed there by construction and does exactly the work of a
    one-mask search.  Every closure stops at its floor: each covered row
    holds the itemset being closed (the candidate in ``extend``, the
    node's itemset at emission, the empty set at the root), so a running
    intersection of those rows never drops below it, and once it reaches
    it the rest of the rows cannot change it.  The closed search starts
    at the closure of the empty set over all groups, the frequent one at
    the empty set.  Constraints prune during the search where they are
    monotone (forbidden items, size bound, span upper bound, required
    items that can no longer join) and filter at emission otherwise.
    Raises SearchTimeout once ``time.monotonic()`` passes ``deadline``;
    the clock is read every ``_DEADLINE_STRIDE`` nodes and listed
    choices, and before each pass over as many live groups.
    """
    groups, lb, ub = choices
    # every choice is a non-empty mask, so an item no transaction holds is
    # frequent in none; and every row lies inside the held items, so no
    # closure changes
    act_i &= db.held_items
    if lb > ub or not act_i or require & ~act_i:
        return {}
    p, q = theta.numerator, theta.denominator
    # two levels can hold the same group
    full = sorted(sorted(set(groups)), key=int.bit_count)
    live = [(g, p * g.bit_count()) for g in full]
    base = reduce(or_, full)
    answers: dict[int, list[int]] = {}
    cols = db.columns
    group_bits = [g.members for g in item_scheme.groups] if item_scheme else None

    def span_of(bits: int) -> int:
        return sum(1 for g in group_bits if g & bits)

    if closed:

        def extend(pat: int, low: int, cov: int) -> int:
            ext = meet_rows(db, cov, act_i, pat | low)
            below = low - 1
            if (ext & below) != (pat & below):
                return 0  # already reached from a smaller seed
            return 0 if ext & forbid else ext

        def emit(pat: int, cov: int, live: list) -> None:
            for m, _ in live:
                if meet_rows(db, cov & m, act_i, pat) == pat:
                    answers.setdefault(m, []).append(pat)

        root = meet_rows(db, base, act_i, 0)
        if root & forbid:
            # every closed set contains the root closure, so nothing qualifies
            return {}
    else:

        def extend(pat: int, low: int, cov: int) -> int:
            return pat | low

        def emit(pat: int, cov: int, live: list) -> None:
            for m, _ in live:
                answers.setdefault(m, []).append(pat)

        root = 0

    listed = 0  # choices listed at emission

    def emit_choices(pat: int, cov: int, live: list) -> None:
        scores = [q * (cov & m[0]).bit_count() - m[1] for m in live]
        order = sorted(range(len(live)), key=scores.__getitem__, reverse=True)
        ranked = [scores[k] for k in order]
        members = [live[k][0] for k in order]
        if closed:
            exts = [meet_rows(db, cov & m, act_i, pat) for m in members]
        else:
            exts = [pat] * len(order)
        n = len(ranked)
        prefix = list(accumulate(ranked, initial=0))

        def walk(start: int, count: int, total: int, bits: int, ext: int) -> None:
            # every choice that adds one group of ranked[start:] to the
            # count groups of bits.  The best choice through group i adds
            # the lo groups after it: a group past those adds to the sum
            # only when its score is positive, and then so is every score
            # up to it, so the sum is positive already
            nonlocal listed
            count += 1
            lo = max(lb - count, 0)
            for i in range(start, n):
                j = i + 1
                if j + lo > n:
                    return  # too few groups left to reach lb
                score = total + ranked[i]
                if score + prefix[j + lo] - prefix[j] < 0:
                    return  # nor does any later group, scoring no higher
                chosen = bits | members[i]
                meet = ext & exts[i]
                if count >= lb and score >= 0:
                    listed += 1
                    if deadline is not None and listed % _DEADLINE_STRIDE == 0:
                        check_deadline(deadline)
                    if meet == pat:
                        answers.setdefault(chosen, []).append(pat)
                if count < ub:
                    walk(j, count, score, chosen, meet)

        walk(0, 0, 0, 0, act_i)

    nodes = 0

    def grow(pat: int, cov: int, core: int, live: list, found: list | None) -> None:
        # found: the one live group's answers, or None with several live groups
        nonlocal nodes
        nodes += 1
        # the clock is read every _DEADLINE_STRIDE nodes, and before each
        # pass (emit, or a candidate's filter) over as many live groups
        watch = deadline is not None and len(live) >= _DEADLINE_STRIDE
        if watch or deadline is not None and nodes % _DEADLINE_STRIDE == 0:
            check_deadline(deadline)
        if pat and pat.bit_count() >= min_size and not require & ~pat:
            if span is None or span[0] <= span_of(pat) <= span[1]:
                if found is not None:
                    found.append(pat)
                elif ub == 1:
                    emit(pat, cov, live)
                else:
                    emit_choices(pat, cov, live)
        if span is not None and span_of(pat) > span[1]:
            return
        missing = require & ~pat
        if missing and (missing & -missing).bit_length() - 1 <= core:
            return  # a required item below the core can never join
        cand = act_i & ~pat & ~forbid & ~((1 << (core + 1)) - 1)
        if pat.bit_count() + cand.bit_count() < min_size:
            return
        # the least p·|mask| of a choice: with one live group the exact
        # test, else a cheap reject
        need = live[0][1] if lb == 1 else sum(m[1] for m in live[:lb])
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
                    check_deadline(deadline)
                if ub == 1:
                    kids = [m for m in live if q * (cov_e & m[0]).bit_count() >= m[1]]
                    if not kids:
                        continue
                else:
                    scores = [q * (cov_e & m[0]).bit_count() - m[1] for m in live]
                    floor = _choice_floor(sorted(scores, reverse=True), lb, ub)
                    if floor is None:
                        continue
                    kids = [m for m, a in zip(live, scores) if a >= floor]
                if len(kids) < len(live):
                    cov_e &= reduce(or_, (m[0] for m in kids))
                    if len(kids) == 1:
                        sink = answers.setdefault(kids[0][0], [])
            child = extend(pat, low, cov_e)
            if child:
                grow(child, cov_e, e, kids, sink)

    grow(root, base, 0, live, answers.setdefault(base, []) if len(live) == 1 else None)
    return answers


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
    them, one search per distinct live part ib ∩ K of the item masks ib
    (``queries.live_items``), for all of its transaction masks at once.
    Item masks that share their live items have the same answers, so each
    search's answers are written under every item mask of its live part.
    A search is ``_mine`` over the transaction axis's group choice, so it
    carries groups, not masks, and answers with one map from transaction
    mask to itemsets for every choice kind.  The enumerator yields the
    masks item-major; each is counted as it passes, and the deadline read
    at the first and then every ``_DEADLINE_STRIDE`` masks.  Answers with
    the set of (item_bits, trans_bits, itemset_bits) triples, which
    equals cp's; ``run_theory`` checks and decodes them."""
    enum = enumerate_masks(db, query, item_scheme, trans_scheme)
    choices = query.trans.answer_choices(db.all_transactions(), trans_scheme)
    live = live_items(db, query, trans_scheme)
    mined: dict[int, dict[int, list[int]]] = {}  # ib ∩ K -> _mine's answer
    triples: set[tuple[int, int, int]] = set()
    n_masks = 0
    for ib, group in groupby(enum, key=itemgetter(0)):
        for _ in group:
            n_masks += 1
            if deadline is not None and n_masks % _DEADLINE_STRIDE == 1:
                check_deadline(deadline)
        part = ib & live
        if not part:
            continue  # no item can be in an answer
        if part not in mined:
            mined[part] = _mine(
                db, part, choices, query.theta, query.closed,
                query.min_size, query.span, query.require, query.forbid,
                item_scheme, deadline,
            )
        for tb, found in mined[part].items():
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
    and every non-empty subset of active items, from ``db.rows`` alone: X
    is frequent when q·|rows holding X| ≥ p·|rows| and closed when those
    rows meet at X.  Answers with (item_bits, trans_bits, itemset_bits)
    triples, as pp_mine.  ``check_query`` checks the query first."""
    check_query(db, query, item_scheme, trans_scheme)
    if db.item_count > _ORACLE_MAX_ITEMS:
        raise SizeLimitError(
            f"oracle refuses {db.item_count} items (bound {_ORACLE_MAX_ITEMS})"
        )
    space = _oracle_axis_space(query.items, item_scheme) * _oracle_axis_space(
        query.trans, trans_scheme
    )
    if space > _ORACLE_MAX_MASKS:
        raise SizeLimitError(
            f"oracle refuses {count_text(space)} candidate masks (bound {_ORACLE_MAX_MASKS})"
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
                check_deadline(deadline)
            if not trans_bits:
                continue
            rows = [db.rows[j] & item_bits for j in indices_of(trans_bits)]
            need = p * len(rows)
            for r in range(max(1, query.min_size), len(active) + 1):
                for chosen in combinations(active, r):
                    subsets += 1
                    if deadline is not None and subsets % _DEADLINE_STRIDE == 0:
                        check_deadline(deadline)
                    pat = bits_of(chosen)
                    if pat & query.forbid or query.require & ~pat:
                        continue
                    if query.span is not None:
                        touched = sum(
                            1 for g in item_scheme.groups if g.members & pat
                        )
                        if not query.span[0] <= touched <= query.span[1]:
                            continue
                    covered = [row for row in rows if not pat & ~row]
                    if q * len(covered) < need:
                        continue
                    if query.closed and reduce(and_, covered, item_bits) != pat:
                        continue
                    triples.add((item_bits, trans_bits, pat))
    return triples
