"""Declarative queries compiled onto a database and partition schemes.

A query bundles a minimum frequency, itemset-side constraints (closedness,
minimum size, category span, required/forbidden items) and dataset-side
constraints (which items/transactions are active).  ``run_theory`` returns
the complete theory of (sub-dataset, itemset) pairs, canonically sorted,
and re-validates every engine's answer against the raw definitions.

Query file grammar (one ``key: value`` per line, ``#`` comment lines,
unknown keys rejected)::

    # minimum frequency, exact: 1/2, 50% or 0.5; no exponent (1e-1 is refused)
    theta: 1/2
    # default true
    closed: true
    # default 1
    minsize: 2
    # the itemset touches between lb and ub item groups
    span: 1 2
    # item labels (or ids) that must appear
    require: A K
    # item labels (or ids) that must not appear
    forbid: C D
    # lb ub over item groups | all | list <labels>
    items_active: 2 3
    # lb ub | all | list <ids> | one-of-levels
    trans_active: all
    # cp | baseline | oracle (the CLI flag overrides)
    engine: cp
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import closedpattern, constraints
from .dataset import (
    PartitionScheme,
    TransactionDatabase,
    best_choice,
    indices_of,
    iter_bits,
    meet_columns,
    meet_rows,
)
from .engine import ROLE_H, ROLE_V, ROLE_X, Solver, check_deadline

ENGINES = ("cp", "baseline", "oracle")

_QUERY_KEYS = (
    "theta",
    "closed",
    "minsize",
    "span",
    "require",
    "forbid",
    "items_active",
    "trans_active",
    "engine",
)

# answers the self-check passes, or item masks an answer is lifted to,
# between two reads of the clock
_CHECK_STRIDE = 256


class QueryError(ValueError):
    """Bad query description: grammar, unknown names, or bounds."""


class UnsupportedQueryError(QueryError):
    """The query uses a dataset constraint kind no engine understands."""


def count_masks(n_groups: int, lb: int, ub: int) -> int:
    """Number of ways to activate between lb and ub of n_groups groups.
    Each binomial comes from the one before: a ``math.comb`` per size
    takes a minute on 20000 groups."""
    if not 0 <= lb <= ub <= n_groups:
        raise ValueError(f"bounds ({lb},{ub}) invalid for {n_groups} groups")
    total, term = 0, math.comb(n_groups, lb)
    for r in range(lb, ub + 1):
        total, term = total + term, term * (n_groups - r) // (r + 1)
    return total


def count_text(n: int) -> str:
    """The decimal digits of the count ``n`` ≥ 0, 600 at a time: ``str``
    refuses an int of more than 4300 digits, or of the limit that
    ``sys.set_int_max_str_digits`` sets, which is 640 or more."""
    if n < 10**600:
        return str(n)
    high, low = divmod(n, 10**600)
    return count_text(high) + f"{low:0600d}"


@dataclass(frozen=True)
class AxisConstraint:
    """Dataset-side constraint on one axis, read as a choice of groups.

    kind "all" activates everything, "fixed" exactly the given bitset,
    "groups" any lb..ub whole groups of the partition, "one_per_level"
    exactly one group drawn from any level of the scheme.  ``choices``
    turns every kind into (groups, lb, ub), "all" and "fixed" into a
    choice of their one mask; ``count``, ``masks``, ``allowed`` and
    ``satisfied`` read that triple alone, and both engines read the
    narrower ``answer_choices``.  ``universe`` is the bitset of the whole
    axis and ``scheme`` its partition (or None); every method but
    ``check`` expects a constraint that passed ``check``.
    """

    kind: str
    members: int = 0
    lb: int = 0
    ub: int = 0

    @classmethod
    def all_active(cls) -> "AxisConstraint":
        return cls("all")

    @classmethod
    def fixed(cls, members: int) -> "AxisConstraint":
        return cls("fixed", members=members)

    @classmethod
    def group_bounds(cls, lb: int, ub: int) -> "AxisConstraint":
        return cls("groups", lb=lb, ub=ub)

    @classmethod
    def one_per_level(cls) -> "AxisConstraint":
        return cls("one_per_level")

    def check(self, axis: str, universe: int, scheme: PartitionScheme | None) -> None:
        """Raise QueryError unless the constraint can be read on ``axis``
        ("items" or "transactions")."""
        if self.kind == "fixed":
            if self.members & ~universe:
                raise QueryError(f"fixed activation references unknown {axis}")
        elif self.kind == "groups":
            if scheme is None:
                raise QueryError(f"group bounds on {axis} need a partition scheme")
            k = scheme.group_count()
            if not 0 <= self.lb <= self.ub <= k:
                raise QueryError(
                    f"bounds ({self.lb},{self.ub}) on {axis} invalid for {k} groups"
                )
        elif self.kind == "one_per_level":
            if axis != "transactions":
                raise QueryError("one-of-levels applies to transactions only")
            if scheme is None:
                raise QueryError("one-of-levels needs a transaction scheme")
        elif self.kind != "all":
            raise UnsupportedQueryError(f"dataset constraint {self.kind!r} not supported")

    def choices(
        self, universe: int, scheme: PartitionScheme | None
    ) -> tuple[tuple[int, ...], int, int]:
        """(groups, lb, ub): the mask is the union of between lb and ub of
        the groups (member bitsets).  The groups of the partition with the
        constraint's bounds; every group of every level with bounds (1, 1)
        for one-of-levels; the one mask with bounds (1, 1) for "all" and
        "fixed".  The groups are disjoint whenever ub > 1."""
        if self.kind == "groups":
            return tuple(g.members for g in scheme.groups), self.lb, self.ub
        if self.kind == "one_per_level":
            return tuple(g.members for level in scheme.levels for g in level), 1, 1
        return (universe if self.kind == "all" else self.members,), 1, 1

    def answer_choices(
        self, universe: int, scheme: PartitionScheme | None
    ) -> tuple[tuple[int, ...], int, int]:
        """The group choices that can hold an answer: ``choices`` with the
        empty groups dropped, lb raised to 1 and ub capped at the number
        of groups left.  The empty mask holds no answer: a pair's
        frequency is taken over its active transactions, and its itemset
        is non-empty and lies in its active items.  When lb > ub, as for
        an empty fixed mask, no choice can hold one."""
        groups, lb, ub = self.choices(universe, scheme)
        groups = tuple(g for g in groups if g)
        return groups, max(lb, 1), min(ub, len(groups))

    def count(self, universe: int, scheme: PartitionScheme | None) -> int:
        """Number of masks the constraint allows, one per group choice."""
        groups, lb, ub = self.choices(universe, scheme)
        return count_masks(len(groups), lb, ub)

    def masks(self, universe: int, scheme: PartitionScheme | None) -> Iterator[int]:
        """Every allowed mask once per group choice, lazily; choices by
        size, then in the order of ``itertools.combinations``."""
        groups, lb, ub = self.choices(universe, scheme)
        for r in range(lb, ub + 1):
            for chosen in combinations(groups, r):
                yield reduce(or_, chosen, 0)

    def allowed(self, universe: int, scheme: PartitionScheme | None) -> Callable[[int], bool]:
        """``satisfied`` with the choice read once, for testing many masks:
        each test then looks up the groups by the highest position of the
        mask, with no pass over them."""
        groups, lb, ub = self.choices(universe, scheme)
        if ub > 1:
            top = _top_index(groups)

            def test(bits: int) -> bool:
                chosen = _split(bits, groups, top)
                return chosen is not None and lb <= len(chosen) <= ub

            return test
        # one-of-levels: groups of two levels may share their highest position
        by_top: dict[int, list[int]] = {}
        for g in groups if ub == 1 else ():
            by_top.setdefault(g.bit_length(), []).append(g)
        return lambda bits: bits in by_top.get(bits.bit_length(), ()) or (lb == 0 and bits == 0)

    def satisfied(self, bits: int, universe: int, scheme: PartitionScheme | None) -> bool:
        """Whether the mask ``bits`` is one the constraint allows.  With at
        most one group chosen, it must be one of them whole (or empty when
        lb = 0); otherwise the groups are disjoint, and it must be the
        union of lb..ub of them."""
        return self.allowed(universe, scheme)(bits)

    def describe(self) -> str:
        """Short form for reports: "(lb,ub)" for group bounds, else the kind."""
        if self.kind == "groups":
            return f"({self.lb},{self.ub})"
        return self.kind


@dataclass(frozen=True)
class Query:
    theta: Fraction
    closed: bool = True
    min_size: int = 1
    span: tuple[int, int] | None = None
    require: int = 0
    forbid: int = 0
    items: AxisConstraint = AxisConstraint("all")
    trans: AxisConstraint = AxisConstraint("all")
    engine: str = "cp"

    def __post_init__(self):
        if not isinstance(self.theta, numbers.Rational):
            raise QueryError(f"theta must be an exact fraction, got {self.theta!r}")
        if not 0 < self.theta <= 1:
            raise QueryError(f"theta must lie in (0,1], got {self.theta}")
        if self.min_size < 1:
            raise QueryError("minsize must be at least 1")
        if self.engine not in ENGINES:
            raise QueryError(f"unknown engine {self.engine!r}")
        if self.require & self.forbid:
            bad = next(iter_bits(self.require & self.forbid))
            raise QueryError(f"item {bad} both required and forbidden")


@dataclass(frozen=True, init=False)
class SolutionPair:
    """One element of a theory: a sub-dataset plus an itemset with its
    support.  Identity is index-based; group names and labels ride along
    for display only."""

    item_mask: tuple[int, ...]
    trans_mask: tuple[int, ...]
    items: tuple[int, ...]
    support: int
    item_desc: str = field(compare=False, default="", hash=False)
    trans_desc: str = field(compare=False, default="", hash=False)
    labels: tuple[str, ...] = field(compare=False, default=(), hash=False)

    def __init__(
        self, item_mask, trans_mask, items, support, item_desc="", trans_desc="", labels=()
    ):
        # one dict update, where the generated frozen __init__ makes seven
        # object.__setattr__ calls: a theory builds one pair per answer
        self.__dict__.update(
            item_mask=item_mask, trans_mask=trans_mask, items=items, support=support,
            item_desc=item_desc, trans_desc=trans_desc, labels=labels,
        )

    def freq_str(self) -> str:
        return f"{self.support}/{len(self.trans_mask)}"

    def sort_key(self):
        return (self.item_mask, self.trans_mask, self.items)

    def tsv(self) -> str:
        return "\t".join(
            (
                self.item_desc,
                self.trans_desc,
                " ".join(self.labels),
                str(self.support),
                self.freq_str(),
            )
        )


def _top_index(groups: Sequence[int]) -> dict[int, int]:
    """Index k of each of the disjoint, non-empty ``groups``, keyed by the
    bit length of group k (its highest position plus one)."""
    return {g.bit_length(): k for k, g in enumerate(groups)}


def _split(bits: int, groups: Sequence[int], top: dict[int, int]) -> list[int] | None:
    """The indices of the disjoint ``groups`` whose union is ``bits``, or
    None when no such groups exist.  The group that holds the highest
    position left must end there, or it is not inside ``bits``; so each
    group of the union costs one look-up, whatever the number of groups."""
    chosen = []
    while bits:
        k = top.get(bits.bit_length())
        if k is None or groups[k] & ~bits:
            return None
        chosen.append(k)
        bits ^= groups[k]
    return chosen


def _mask_namer(universe: int, scheme: PartitionScheme | None) -> Callable[[int], str]:
    """``describe_mask`` for one axis, with each level's groups read once."""
    levels = []
    for level in scheme.levels if scheme is not None else ():
        groups = [g.members for g in level]
        levels.append((level, groups, _top_index(groups)))

    def name(bits: int) -> str:
        if bits == universe:
            return "ALL"
        for level, groups, top in levels:
            chosen = _split(bits, groups, top)
            if chosen:
                return "+".join(level[k].name for k in sorted(chosen))
        return "{" + ",".join(map(str, indices_of(bits))) + "}"

    return name


def describe_mask(bits: int, universe: int, scheme: PartitionScheme | None) -> str:
    """Group names joined by '+', in level order, when the mask is a union
    of whole groups of one level (the first such level), 'ALL' for the
    full axis, else the explicit index list."""
    return _mask_namer(universe, scheme)(bits)


def make_pair(
    db: TransactionDatabase,
    item_bits: int,
    trans_bits: int,
    itemset_bits: int,
    support: int,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
) -> SolutionPair:
    """Decode one answer triple, with the support ``validate_pair`` found
    for it, into a SolutionPair with display names and labels.
    ``run_theory`` builds the same pair from decodings it shares."""
    return SolutionPair(
        item_mask=indices_of(item_bits),
        trans_mask=indices_of(trans_bits),
        items=indices_of(itemset_bits),
        support=support,
        item_desc=describe_mask(item_bits, db.all_items(), item_scheme),
        trans_desc=describe_mask(trans_bits, db.all_transactions(), trans_scheme),
        labels=db.labels_for(itemset_bits),
    )


# ----------------------------------------------------------------- parsing


def parse_query(source: str | IO[str]) -> dict[str, str]:
    """Parse the query file into a raw key/value mapping."""
    text = source.read() if hasattr(source, "read") else source
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key:
            raise QueryError(f"line {lineno}: expected 'key: value'")
        if key not in _QUERY_KEYS:
            raise QueryError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise QueryError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    if "theta" not in out:
        raise QueryError("query is missing required key 'theta'")
    return out


def _parse_theta(text: str) -> Fraction:
    # an exponent would make the denominator as large as the writer likes,
    # and every support test multiplies by it
    if "e" in text.lower():
        raise QueryError(f"cannot parse frequency {text!r}")
    try:
        if text.endswith("%"):
            return Fraction(text[:-1].strip()) / 100
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise QueryError(f"cannot parse frequency {text!r}") from None


def _parse_bounds(key: str, value: str) -> tuple[int, int]:
    parts = value.split()
    try:
        lb, ub = map(int, parts)
    except ValueError:
        raise QueryError(f"{key}: expected 'lb ub', got {value!r}") from None
    return lb, ub


def _resolve(tokens: Iterable[str], size: int, what: str, by_label: dict) -> int:
    """Bitset of the labelled or numbered indices; a label wins over a
    number that reads the same."""
    bits = 0
    for tok in tokens:
        i = by_label.get(tok)
        if i is None:
            try:
                i = int(tok)
            except ValueError:
                raise QueryError(f"unknown {what} label {tok!r}") from None
        if not 1 <= i <= size:
            raise QueryError(f"{what} {i} out of range 1..{size}")
        bits |= 1 << i
    return bits


def _parse_axis(key: str, value: str, size: int, what: str, by_label: dict) -> AxisConstraint:
    if value == "all":
        return AxisConstraint.all_active()
    if value == "one-of-levels":
        return AxisConstraint.one_per_level()
    parts = value.split()
    if parts and parts[0] == "list":
        return AxisConstraint.fixed(_resolve(parts[1:], size, what, by_label))
    if len(parts) == 2:
        return AxisConstraint.group_bounds(*_parse_bounds(key, value))
    raise QueryError(f"{key}: cannot parse {value!r}")


def build_query(
    desc: dict[str, str],
    db: TransactionDatabase,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
) -> Query:
    """Resolve a parsed query description against a database and schemes:
    parse each value and map labels to indices, then ``check_query``."""
    unknown = set(desc) - set(_QUERY_KEYS)
    if unknown:
        raise QueryError(f"unknown keys: {sorted(unknown)}")
    if "theta" not in desc:
        raise QueryError("query is missing required key 'theta'")
    theta = _parse_theta(desc["theta"])

    closed = True
    if "closed" in desc:
        val = desc["closed"].lower()
        if val not in ("true", "false"):
            raise QueryError(f"closed: expected true or false, got {desc['closed']!r}")
        closed = val == "true"

    min_size = 1
    if "minsize" in desc:
        try:
            min_size = int(desc["minsize"])
        except ValueError:
            raise QueryError(f"minsize: not an integer: {desc['minsize']!r}") from None

    span = _parse_bounds("span", desc["span"]) if "span" in desc else None

    labels = {lab: i for i, lab in (db.item_labels or {}).items()}
    n, m = db.item_count, db.transaction_count
    require = _resolve(desc.get("require", "").split(), n, "item", labels)
    forbid = _resolve(desc.get("forbid", "").split(), n, "item", labels)
    items = trans = AxisConstraint.all_active()
    if "items_active" in desc:
        items = _parse_axis("items_active", desc["items_active"], n, "item", labels)
    if "trans_active" in desc:
        trans = _parse_axis("trans_active", desc["trans_active"], m, "transaction", {})

    query = Query(
        theta=theta,
        closed=closed,
        min_size=min_size,
        span=span,
        require=require,
        forbid=forbid,
        items=items,
        trans=trans,
        engine=desc.get("engine", "cp").lower(),
    )
    check_query(db, query, item_scheme, trans_scheme)
    return query


def check_query(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
) -> None:
    """Check a query against its data and schemes; raises QueryError
    (UnsupportedQueryError for an unknown dataset constraint kind).  The
    checks that need no data live in ``Query`` itself.  A query file goes
    through here in ``build_query``; every engine goes through here in
    ``run_theory``, ``assemble``, the mask enumerator, the oracle and the
    one-mask miners.  Each scheme must partition its own axis of the
    data, read or not."""
    n, m = db.item_count, db.transaction_count
    for scheme, axis, size in ((item_scheme, "items", n), (trans_scheme, "transactions", m)):
        if scheme is not None and (scheme.axis, scheme.size) != (axis, size):
            got = f"{scheme.axis} 1..{scheme.size}"
            raise QueryError(f"the {axis} scheme partitions {got}, not {axis} 1..{size}")
    if query.min_size > n:
        raise QueryError(f"minsize {query.min_size} out of range 1..{n}")
    outside = (query.require | query.forbid) & ~db.all_items()
    if outside:
        raise QueryError(f"item {next(iter_bits(outside))} out of range 1..{n}")
    if query.span is not None:
        if item_scheme is None:
            raise QueryError("span needs an item partition scheme")
        lb, ub = query.span
        k = item_scheme.group_count()
        if not 0 <= lb <= ub <= k:
            raise QueryError(f"span bounds ({lb},{ub}) invalid for {k} groups")
    query.items.check("items", db.all_items(), item_scheme)
    query.trans.check("transactions", db.all_transactions(), trans_scheme)


# -------------------------------------------------------------- live items


def live_items(
    db: TransactionDatabase,
    query: Query,
    trans_scheme: PartitionScheme | None = None,
) -> int:
    """K, the live items: the held items frequent in some transaction
    choice that can hold an answer.  Item i is live when
    ``dataset.best_choice`` over its column's group scores
    ``q·|col_i ∧ g| − p·|g|`` (``AxisConstraint.answer_choices``) reaches
    0.  The answers of an item mask H are exactly those of H ∩ K, so
    item masks with the same live part are one subproblem (Chu, García de
    la Banda & Stuckey, CPAIOR 2010): an item outside K is in no answer,
    since every item of a frequent itemset is frequent in V, and it
    blocks no answer's closedness, since an item whose column holds a
    frequent cover is frequent in V itself.  Minsize, require, forbid and
    span read the itemset alone; a forbidden item stays in K when it is
    frequent, for it can block closedness.  K reads the transaction axis
    alone, so it is the same for every item axis: an item no row holds
    (sparse ids leave many) is never in it."""
    groups, lb, ub = query.trans.answer_choices(db.all_transactions(), trans_scheme)
    if lb > ub:
        return 0
    p, q = query.theta.numerator, query.theta.denominator
    sized = [(g, p * g.bit_count()) for g in groups]
    cols = db.columns
    live = 0
    for i in indices_of(db.held_items):
        col = cols[i]
        ranked = sorted([q * (col & g).bit_count() - need for g, need in sized], reverse=True)
        if best_choice(0, 0, ranked, lb, ub) >= 0:
            live |= 1 << i
    return live


def _project_items(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None,
    trans_scheme: PartitionScheme | None,
) -> tuple[tuple[tuple[int, ...], int, int], Callable[[int], Iterator[int]]]:
    """(choices, lift): the item axis's answer choice projected onto the
    live items K (``live_items``), and ``lift(E)``, every item mask H of
    the query's choice with H ∩ K = E, for a mask E of the projected
    choice.  The item groups are disjoint whenever there is more than
    one of them (items allow no one-of-levels), so each non-empty g ∩ K
    is its own group.  With z groups that miss K, a choice of s
    projected groups lifts to the union of their whole groups plus any t
    of the z groups with lb ≤ s + t ≤ ub; so s runs over
    max(1, lb − z)..min(ub, groups left)."""
    groups, lb, ub = query.items.answer_choices(db.all_items(), item_scheme)
    live = live_items(db, query, trans_scheme)
    whole = [g for g in groups if g & live]
    zero = [g for g in groups if not g & live]
    kept = tuple(g & live for g in whole)
    top = _top_index(kept)

    def lift(bits: int) -> Iterator[int]:
        chosen = _split(bits, kept, top)
        base = reduce(or_, (whole[k] for k in chosen), 0)
        s = len(chosen)
        for t in range(max(lb - s, 0), min(ub - s, len(zero)) + 1):
            for extra in combinations(zero, t):
                yield reduce(or_, extra, base)

    return (kept, max(1, lb - len(zero)), min(ub, len(kept))), lift


# ---------------------------------------------------------------- assembly


def assemble(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
) -> Solver:
    """Compile the query into a solver: roles X/H/V plus group
    indicators, one ``GroupChoice`` per axis for the dataset part, and
    the itemset part, one ``ClosedPatternSub`` that channels X to H,
    derives the cover from X and V and bounds the itemset's size and
    span.  The
    transaction choice is the one that can hold an answer
    (``AxisConstraint.answer_choices``); the item choice is that one
    projected onto the live items (``live_items``), so item masks that
    share their live items are searched once, as their projection, and
    ``_collect_cp`` lifts each answer back to them.  Position i of X and
    H is item i, position j of V transaction j; read a state through
    ``Solver.fixed``.  When an axis has no choice, the solver fails at
    the root.  H, and X through the channeling, are 0 at the root on
    every item outside K, every id no transaction holds among them, so
    the search and the mining propagator skip sparse ids; X is 0 on the
    forbidden items too.  ``check_query`` has checked every bound posted
    here."""
    return _compile(db, query, item_scheme, trans_scheme)[0]


def _compile(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None,
    trans_scheme: PartitionScheme | None,
) -> tuple[Solver, Callable[[int], Iterator[int]]]:
    """``assemble``'s solver, and the lift of ``_project_items``, from one
    projection: one ``live_items`` call."""
    check_query(db, query, item_scheme, trans_scheme)
    items, trans = db.all_items(), db.all_transactions()
    s = Solver()
    s.add(ROLE_H, db.item_count)
    s.add(ROLE_V, db.transaction_count)
    s.add(ROLE_X, db.item_count)

    # dataset part: one group choice per axis; the mining part bounds
    # support per transaction group
    item_choices, lift = _project_items(db, query, item_scheme, trans_scheme)
    trans_choices = query.trans.answer_choices(trans, trans_scheme)
    if any(lb > ub for _, lb, ub in (item_choices, trans_choices)):
        s.root_failed = True  # no sub-dataset can hold an answer
        return s, lift
    groups, lb, ub = item_choices
    constraints.post_group_choice(s, groups, ROLE_H, items, lb, ub)
    groups, lb, ub = trans_choices
    first = constraints.post_group_choice(s, groups, ROLE_V, trans, lb, ub)

    # itemset part, with its size (itemsets are non-empty by definition)
    # and span bounds
    s.assign_root(ROLE_X, query.require, 1)
    s.assign_root(ROLE_X, query.forbid, 0)
    span = query.span and ([g.members for g in item_scheme.groups], *query.span)
    s.post(
        closedpattern.ClosedPatternSub(
            db, query.theta, query.closed, trans_choices, first, query.min_size, span
        )
    )
    return s, lift


# ---------------------------------------------------------------- running


def _collect_cp(
    db: TransactionDatabase,
    query: Query,
    item_scheme,
    trans_scheme,
    deadline: float | None,
    stats: dict | None,
) -> set[tuple[int, int, int]]:
    """The search over the item choice projected onto the live items, with
    each answer (E, V, X) lifted to every item mask H of the query with
    H ∩ K = E.  The lift reads the clock every ``_CHECK_STRIDE`` item
    masks and raises SearchTimeout once ``time.monotonic()`` passes
    ``deadline``."""
    solver, lift = _compile(db, query, item_scheme, trans_scheme)
    fixed = solver.fixed
    # projected item mask -> [(trans_bits, itemset_bits)]
    found: dict[int, list[tuple[int, int]]] = {}

    def sink():
        # bit i of a role's bitset is item or transaction i (see assemble)
        found.setdefault(fixed(ROLE_H)[0], []).append((fixed(ROLE_V)[0], fixed(ROLE_X)[0]))

    solver.search_all(on_solution=sink, deadline=deadline)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + solver.stats["nodes"]
        stats["masks"] = stats.get("masks", 0) + solver.stats["masks_reached"]
    triples: set[tuple[int, int, int]] = set()
    lifted = 0
    for projected, answers in found.items():
        for ib in lift(projected):
            lifted += 1
            if deadline is not None and lifted % _CHECK_STRIDE == 0:
                check_deadline(deadline)
            triples.update((ib, tb, xb) for tb, xb in answers)
    return triples


def _engine_triples(
    db, query, item_scheme, trans_scheme, engine, deadline, stats=None
) -> set[tuple[int, int, int]]:
    """One engine's answer as (item_bits, trans_bits, itemset_bits) triples;
    also the parallel mode's pool worker, on one fixed mask each."""
    if engine == "cp":
        return _collect_cp(db, query, item_scheme, trans_scheme, deadline, stats)
    from . import reference

    if engine == "baseline":
        return reference.pp_mine(
            db, query, item_scheme, trans_scheme, deadline=deadline, stats=stats
        )
    return reference.brute_force_theory(db, query, item_scheme, trans_scheme, deadline=deadline)


def run_theory(
    db: TransactionDatabase,
    query: Query,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
    engine: str | None = None,
    workers: int = 1,
    deadline: float | None = None,
    stats: dict | None = None,
) -> list[SolutionPair]:
    """The complete theory of the query, canonically sorted (masks then
    itemsets, lexicographic on indices).  Every engine answers with a set
    of (item_bits, trans_bits, itemset_bits) triples; this is the one place
    that checks and decodes them, so the result is identical for every
    engine.  Triples are grouped by (trans_bits, itemset_bits), (V, X):
    ``_itemset_fault`` computes the cover, support and closure of X in V
    once for all the item masks H that hold it and tests each H with two
    ANDs.  Each distinct item mask, transaction mask and itemset is
    decoded (indices, and a ``describe_mask`` string or labels) once, and
    each mask checked against its axis's constraint once.  A triple fails
    with the reason ``validate_pair`` gives it, and each pair equals what
    ``make_pair`` builds.  The check reads the clock every
    ``_CHECK_STRIDE`` answers and raises SearchTimeout once
    ``time.monotonic()`` passes ``deadline``."""
    chosen = engine or query.engine
    if chosen not in ENGINES:
        raise QueryError(f"unknown engine {chosen!r}")
    check_query(db, query, item_scheme, trans_scheme)

    if workers > 1 and chosen in ("cp", "baseline"):
        triples = _run_parallel(db, query, item_scheme, trans_scheme, chosen, workers, deadline)
    else:
        triples = _engine_triples(db, query, item_scheme, trans_scheme, chosen, deadline, stats)
    # (trans_bits, itemset_bits) -> [item_bits]
    by_vx: dict = {}
    for ib, tb, xb in triples:
        by_vx.setdefault((tb, xb), []).append(ib)
    # bitset -> (index tuple, description, allowed by its axis), per axis
    items_of = _decode({ib for ib, _, _ in triples}, query.items, db.all_items(), item_scheme)
    trans_of = _decode({tb for tb, _ in by_vx}, query.trans, db.all_transactions(), trans_scheme)
    sets_of = {xb: indices_of(xb) for _, xb in by_vx}
    # each pair's place in the canonical order, as one int: the ranks of
    # its item mask, transaction mask and itemset; and each label read once
    n_sets = len(sets_of)
    item_rank = {
        b: r * len(trans_of) * n_sets for r, b in enumerate(sorted(items_of, key=items_of.get))
    }
    trans_rank = {b: r * n_sets for r, b in enumerate(sorted(trans_of, key=trans_of.get))}
    label = {i: db.label(i) for i in iter_bits(reduce(or_, sets_of, 0))}.__getitem__
    sets_of = {
        xb: (sets_of[xb], tuple(map(label, sets_of[xb])), r)
        for r, xb in enumerate(sorted(sets_of, key=sets_of.get))
    }
    pairs: dict[int, SolutionPair] = {}
    for (tb, xb), ibs in by_vx.items():
        items, labels, rank = sets_of[xb]
        support, bad, fault = _itemset_fault(db, query, tb, xb, ibs, item_scheme)
        if fault:
            raise _self_check_error(fault, bad, tb, xb)
        trans_mask, trans_desc, trans_ok = trans_of[tb]
        rank += trans_rank[tb]
        for ib in ibs:
            if deadline is not None and len(pairs) % _CHECK_STRIDE == 0:
                check_deadline(deadline)
            item_mask, item_desc, items_ok = items_of[ib]
            if not (items_ok and trans_ok and tb):
                raise _self_check_error(_mask_fault(tb, items_ok, trans_ok), ib, tb, xb)
            pairs[item_rank[ib] + rank] = SolutionPair(
                item_mask, trans_mask, items, support, item_desc, trans_desc, labels
            )
    return [pairs[k] for k in sorted(pairs)]


def _decode(
    masks: set[int], con: AxisConstraint, universe: int, scheme: PartitionScheme | None
) -> dict[int, tuple[tuple[int, ...], str, bool]]:
    # the axis's choice and its levels are read once, not once per mask
    allowed = con.allowed(universe, scheme)
    name = _mask_namer(universe, scheme)
    return {b: (indices_of(b), name(b), allowed(b)) for b in masks}


def _run_parallel(
    db, query, item_scheme, trans_scheme, engine, workers, deadline
) -> set[tuple[int, int, int]]:
    import multiprocessing

    from . import reference

    # two levels can hold the same group, and so yield one mask twice
    masks = dict.fromkeys(reference.enumerate_masks(db, query, item_scheme, trans_scheme))
    fixed = AxisConstraint.fixed
    tasks = [
        (db, replace(query, items=fixed(ib), trans=fixed(tb)), item_scheme, trans_scheme,
         engine, deadline)
        for ib, tb in masks
    ]
    triples: set[tuple[int, int, int]] = set()
    if not tasks:
        return triples
    # one process per core at most, and none without a task
    size = min(workers, len(tasks), os.cpu_count() or 1)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(size) as pool:
        for part in pool.starmap(_engine_triples, tasks):
            triples |= part
    return triples


# -------------------------------------------------------------- validation


def validate_pair(
    db: TransactionDatabase,
    query: Query,
    item_bits: int,
    trans_bits: int,
    itemset: int,
    item_scheme: PartitionScheme | None = None,
    trans_scheme: PartitionScheme | None = None,
) -> int:
    """Re-check one answer triple from first principles and return its
    support; raises RuntimeError on any violation.  ``_itemset_fault``
    with the one item mask comes first, then ``_mask_fault``: the same two
    checks ``run_theory`` runs on every answer of every engine."""
    support, _, fault = _itemset_fault(db, query, trans_bits, itemset, (item_bits,), item_scheme)
    fault = fault or _mask_fault(
        trans_bits,
        query.items.satisfied(item_bits, db.all_items(), item_scheme),
        query.trans.satisfied(trans_bits, db.all_transactions(), trans_scheme),
    )
    if fault:
        raise _self_check_error(fault, item_bits, trans_bits, itemset)
    return support


def _mask_fault(trans_bits: int, items_ok: bool, trans_ok: bool) -> str | None:
    """Why the sub-dataset is not one the query allows, or None, given
    whether each axis's constraint allows its mask."""
    if trans_bits == 0:
        return "no active transactions"
    if not items_ok:
        return "item activation violates dataset constraint"
    if not trans_ok:
        return "transaction activation violates dataset constraint"
    return None


def _itemset_fault(
    db, query, trans_bits: int, itemset: int, item_masks, item_scheme
) -> tuple[int, int | None, str | None]:
    """The support of ``itemset`` in ``trans_bits``, and an item mask H of
    ``item_masks`` with the first reason, in this order, the itemset is
    not an answer in (H, trans_bits), or None twice.  Cover and support do
    not depend on H, and the closure within H is the one within the union
    of ``item_masks`` met with H."""
    first = item_masks[0]
    if itemset == 0:
        return 0, first, "empty itemset"
    for h in item_masks:
        if itemset & ~h:
            return 0, h, "itemset outside active items"
    cov = meet_columns(db, trans_bits, itemset)
    support = cov.bit_count()
    if support * query.theta.denominator < query.theta.numerator * trans_bits.bit_count():
        return support, first, "below minimum frequency"
    # with no active transactions the cover is empty and there is no
    # closure; _mask_fault says so
    if query.closed and cov:
        union = reduce(or_, item_masks) if len(item_masks) > 1 else first
        clo = meet_rows(db, cov, union, itemset)
        for h in item_masks:
            if clo & h != itemset:
                return support, h, "not closed in the sub-dataset"
    if itemset.bit_count() < query.min_size:
        return support, first, "below minimum size"
    if query.require & ~itemset:
        return support, first, "missing required item"
    if query.forbid & itemset:
        return support, first, "contains forbidden item"
    if query.span is not None:
        touched = sum(1 for g in item_scheme.groups if g.members & itemset)
        if not query.span[0] <= touched <= query.span[1]:
            return support, first, "category span out of bounds"
    return support, None, None


def _self_check_error(reason, item_bits, trans_bits, itemset) -> RuntimeError:
    return RuntimeError(
        f"solution failed self-check ({reason}): itemset {indices_of(itemset)}"
        f" in items {indices_of(item_bits)}, transactions {indices_of(trans_bits)}"
    )
