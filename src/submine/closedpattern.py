"""Global frequent(-closed) itemset propagator over a circumscribed
sub-dataset.

``ClosedPatternSub`` is the whole itemset side of the model (channeling,
coverage, frequency, closedness, size and span): it filters the itemset X
directly from bitset covers and accepts exactly the full assignments that
satisfy the definition.  Under a fixed mask its mining rules are also
exact on partial states, as ClosedPattern is (Lazaar et al., CP 2016):
they fail exactly when no itemset extends the state, and fix a free item
exactly when every extension agrees on it.  It has no cover role: it
reads X and the mask (H, V) as the solver's per-role bitsets and derives
the cover of the items fixed to 1 from their columns (``meet_columns``).
Every wake-up starts with the channeling X ⊆ H (X is 0 on the inactive
items, H is 1 on the items of the itemset), skipped when it holds.

It runs one support test per state of V.  While V is open, the test is a
per-group support bound over the transaction axis's group choice
(``choices``, read through the group indicator positions): support over a
union of disjoint groups is the sum of the per-group supports (the
partition counting of Savasere, Omiecinski & Navathe, VLDB 1995).  For a
cover c, group g scores ``q·|c ∧ g| − p·|g|``; ``best(c)`` is the greedy
bound of ``dataset.best_choice``: it adds the scores of the chosen groups
and, in descending order, those of the live groups that raise the sum or
are needed to reach lb, up to ub.  An itemset whose cover lies within c
is frequent in no completion of the mask when ``best(c) < 0``; with no
live group left, ``best`` is the exact test over the chosen groups.  The
bound is sound only when the groups of one choice are disjoint (one
partition level) or at most one is chosen (ub = 1, one-of-levels); the
constructor refuses anything else.  ``cp`` decides it in ``_reaches``,
on residual supports (Lecoutre & Hemery, IJCAI 2007), and never calls
``best_choice``, which ``baseline``'s search (``reference._mine``) and the
live items (``queries.live_items``) call.  The first time a cover is
tested, its ranking is computed once for the life of the propagator: the
(indicator bit, score) pairs of the groups in descending score, ties
going to the higher index, whose indicator the search fixes later.
Beside it each cover keeps a support, the indicator bits of the last
group choice found with a score sum ≥ 0.  While every chosen group is in
the support and none of its groups is ruled out, the support is a choice
the state allows, so ``best(c) ≥ 0`` and the itemset survives untested.
Otherwise a new support is sought in two passes over the ranking: one
sums the scores of the chosen groups, and one walks down it past the
chosen and the ruled-out groups, adding live ones until the choice has
lb groups and a sum ≥ 0, or ub groups; that run with the chosen groups
is the new support.  The walk adds the scores in ``best``'s order, so
when it finds no support its sum is ``best(c)``.  The decisions are
exactly ``best``'s, a support that still holds costs two ANDs, and a
stale one builds no list and sorts nothing.
Once V is fixed, the test is exact: ``q·|cover ∧ V₁| ≥ p·|V₁|``.  A
propagator posted without a choice, as a mining-only solver is, runs no
test while V is open.  The test fails when the cover of X₁ cannot reach
the threshold and drops a free item whose addition kills it.  An item no
transaction holds has the empty column; ``assemble`` fixes H, and so X,
to 0 at the root on every such item, so the per-item loops run over the
live items only.

Once the whole mask (H and V) is fixed, closed mode also forces a free
active item whose addition leaves the cover unchanged, fails when the
cover lies within an excluded item e's column, and drops a free active
item dominated by e.  For ``z = cover ∧ ¬col_e``, an item is dominated
exactly when no row of z holds it: the union of z's rows (``db.rows``),
joined until it holds every free item left or for as many rows as there
are free items, leaves the dominated ones out, and the items still
outside it are tested one by one against the rows not yet joined.

Under a fixed mask a wake-up redoes only what changed on the search path
(after the reversible cover state of CoverSize, Schaus, Aoga & Guns,
CPAIOR 2017).  A reversible solver slot keeps the X₁, the cover
``cols(X₁) ∧ V₁`` and the excluded columns already tested at the last
fixpoint on the path.  When X₁ is unchanged, so is the cover, and only the
newly excluded columns are tested; when X₁ grew, the cover is the saved
one narrowed by the new columns only, and every rule runs on it.  The
slot follows the path, not the mask: one-of-levels reaches the same mask
in sibling subtrees under different group indicators, each with its own
X.  Two exact rules spare the exclusion tests whose outcome is known:

  * (a) after X₁ grew by one item k, with no free active item left, only
    the columns excluded since the saved fixpoint are tested: there no
    tested column dominated the free item k, so none holds ``cov ∧ col_k``,
    the new cover.  Growth by two items at once retests them all: a
    column may hold {a, b}'s cover, not a's or b's;
  * (b) only a frequent column, ``q·|cov ∧ col_e| ≥ p·|V₁|``, is tested:
    only such can hold the cover or a surviving free item's, both frequent.

Under a fixed V, where X₁ grew, a size-aware rule reads the rows that can
hold an answer (the size/coverage interplay of CP4IM, Guns, Nijssen &
De Raedt, AIJ 2011, on the reduced rows of LCM, Uno, Kiyomi & Arimura,
FIMI 2004).  When X still needs ``short = min_size − |X₁| ≥ 2`` free
items, let R be the rows of the cover that hold at least ``short`` of
them.  A row that covers an answer holds all of its items, so every
answer's cover lies in R.  The rule fails when R has fewer rows than a
frequent cover, and drops a free item whose column holds too few rows of
R; a drop shrinks R, so it repeats to a local fixpoint.  The rows that
hold every free item are found by ``meet_columns``, the others one by one.
Only an item of a row outside R can hold fewer rows of R than of the
cover, where the support test passed it, so only those are tested.  In
closed mode under a fixed mask the rule then takes every free item whose
column holds R: that column holds every answer's cover, so the item is
in every answer's closure.  A take narrows the cover, so the propagator
calls itself once more, and the slot saves X₁ without the taken items.

The size and span rules run last, in every state, open V included: X
fails below ``min_size`` items (X₁ and the free ones), and takes every
free item at equality; with a span, X fails when it touches more than ub
of the item groups or can reach fewer than lb, and at ub touched groups
it drops the free items of the others.  At equality it also fails when
the free items it would take enter more than ub groups.  The items they
fix are not dropped by a mining rule.  The solver does
not wake a propagator for its own assignments, so when they fix an item
the propagator calls itself once more, and the mining rules run on it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .dataset import TransactionDatabase, meet_columns, span_bits
from .engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, Propagator, Solver


class ClosedPatternSub(Propagator):
    """Position i of X and H is item i of ``db``, position j of V
    transaction j.  ``choices`` is the transaction axis's (member bitsets,
    lb, ub), as ``AxisConstraint.answer_choices`` gives it, and group k's
    indicator is aux position ``first + k``.  X holds at least
    ``min_size`` items and, with a ``span`` (item group member bitsets,
    lb, ub), touches lb..ub of those groups."""

    def __init__(
        self,
        db: TransactionDatabase,
        theta: Fraction,
        closed: bool = True,
        choices: tuple[Sequence[int], int, int] | None = None,
        first: int = 1,
        min_size: int = 0,
        span: tuple[Sequence[int], int, int] | None = None,
    ):
        if not 0 < theta <= 1:
            raise ValueError(f"theta must lie in (0,1], got {theta}")
        self.groups = []  # (members, size) per indicator
        self.lb = self.ub = 0
        if choices is not None:
            groups, self.lb, self.ub = choices
            seen = 0
            for g in groups:
                if self.ub > 1 and g & seen:
                    raise ValueError("the support bound needs disjoint groups or ub = 1")
                seen |= g
                self.groups.append((g, g.bit_count()))
        self.flags = [1 << first + j for j in range(len(self.groups))]
        self.indicators = sum(self.flags)
        # the ranking of the groups per distinct cover, for the life of the
        # propagator, and beside it the cover's residual support: the
        # indicator bits of the last group choice found with a score sum
        # >= 0
        self.rankings: dict[int, tuple[tuple[int, int], ...]] = {}
        self.supports: dict[int, int] = {}
        self.db = db
        self.p = theta.numerator
        self.q = theta.denominator
        self.closed = closed
        self.min_size = min_size
        self.span = span
        self.item_universe = span_bits(1, db.item_count)
        self.trans_universe = span_bits(1, db.transaction_count)

    def watches(self):
        items, trans = self.item_universe, self.trans_universe
        return (ROLE_AUX, self.indicators), (ROLE_X, items), (ROLE_H, items), (ROLE_V, trans)

    def bind(self, s: Solver) -> None:
        # (x1, cov, tested) of the last fixpoint on the search path under
        # a fixed mask, x1 None before it
        self.slot = s.new_slot()
        s.slots[self.slot] = (None, None, 0)

    def _rank(self, cover: int) -> tuple[tuple[int, int], ...]:
        """The (indicator bit, score) pairs of the groups, score
        ``q·|cover ∧ g| − p·|g|``, in descending score, ties going to the
        higher index, whose indicator the search fixes later."""
        p, q = self.p, self.q
        pairs = [
            (flag, q * (cover & g).bit_count() - p * size)
            for flag, (g, size) in zip(self.flags, self.groups)
        ]
        pairs.reverse()
        pairs.sort(key=itemgetter(1), reverse=True)  # stable: the reversal breaks ties
        return tuple(pairs)

    def _reaches(self, cover: int, chosen: int, out: int) -> bool:
        """Whether ``best(cover) >= 0``: some group choice that keeps every
        chosen group, no ruled-out one and lb..ub in all has a score sum
        >= 0.  ``chosen`` and ``out`` are the indicator bits of the chosen
        and the ruled-out groups.  The cover's residual support answers
        while it holds every chosen group and no ruled-out one.
        Otherwise the new support is the chosen groups and the shortest
        run of live ones down the cover's ranking that reaches lb groups
        and a score sum >= 0 within ub."""
        support = self.supports.get(cover)
        if support is not None and not (chosen & ~support or out & support):
            return True
        ranking = self.rankings.get(cover)
        if ranking is None:
            ranking = self.rankings[cover] = self._rank(cover)
        lb, ub = self.lb, self.ub
        total = 0
        if chosen:
            for flag, score in ranking:
                if chosen & flag:
                    total += score
        count = chosen.bit_count()
        support = chosen
        skip = chosen | out
        for flag, score in ranking:
            if total >= 0 and count >= lb or count >= ub:
                break
            if not skip & flag:
                total += score
                count += 1
                support |= flag
        if total >= 0 and lb <= count <= ub:
            self.supports[cover] = support
            return True
        # no support: the walk added the scores in best_choice's order and
        # stopped where it stops, so its sum is best's, also in a state no
        # choice satisfies (more than ub chosen, or lb out of reach)
        return total >= 0

    def _bounds(self, x1: int, free: int) -> tuple[int, int] | None:
        """The free items the span rule fixes to 0 and those the size rule
        fixes to 1; None when either rule fails."""
        zero = 0
        if self.span is not None:
            groups, lb, ub = self.span
            touched = reachable = untouched = 0
            for g in groups:
                if x1 & g:
                    touched += 1
                else:
                    untouched |= g
                    if free & g:
                        reachable += 1
            if touched > ub or touched + reachable < lb:
                return None
            if touched == ub:
                # no further group may be entered
                zero = free & untouched
                free ^= zero
                reachable = 0
        size = x1.bit_count() + free.bit_count()
        if size < self.min_size:
            return None
        if size > self.min_size:
            return zero, 0
        # at equality every free item is taken: fail when they would
        # enter more groups than the span allows
        if self.span is not None and touched + reachable > ub:
            return None
        return zero, free

    def propagate(self, s: Solver) -> bool:
        cols = self.db.columns
        items = self.item_universe
        trans = self.trans_universe
        # channeling, X ⊆ H: inactive items leave X, and X's items are
        # active; only the bits not yet fixed so are assigned
        x1, x0 = s.fixed(ROLE_X)
        h1, h0 = s.fixed(ROLE_H)
        x1 &= items
        h0 &= items
        if x1 & ~h1 or h0 & ~x0:
            if not (s.assign_bits(ROLE_X, h0 & ~x0, 0) and s.assign_bits(ROLE_H, x1 & ~h1, 1)):
                return False
            x0 |= h0
        free = items & ~(x1 | x0)
        v1, v0 = s.fixed(ROLE_V)
        v1 &= trans
        v0 &= trans
        # free items to fix to 0 and to 1, and those the size-aware rule
        # takes
        drop = take = grow = 0

        if v1 | v0 != trans:
            # without the choice, as in a mining-only solver, no test
            if self.flags:
                # the per-group support bound; V's zeros stay in the
                # cover, which can only weaken the bound, so covers recur
                # across masks
                cov = meet_columns(self.db, trans, x1)
                f1, f0 = s.fixed(ROLE_AUX)
                chosen, out = f1 & self.indicators, f0 & self.indicators
                reaches = self._reaches
                if x1 and not reaches(cov, chosen, out):
                    return False
                fr = free
                while fr:
                    low = fr & -fr
                    fr ^= low
                    if not reaches(cov & cols[low.bit_length() - 1], chosen, out):
                        drop |= low
        else:
            h1 = (h1 | x1) & items  # as the channeling left it
            mask_fixed = (h1 | h0) & items == items
            saved_x1, cov, tested = s.slots[self.slot]
            # the fewest rows a frequent cover holds
            need = -(-self.p * v1.bit_count() // self.q)
            # with X₁ as saved, the support test, the per-item tests and
            # the forcing rule already ran on the saved cover
            if saved_x1 != x1:
                # V is fixed: the exact support test, on the saved cover
                # narrowed by the items fixed to 1 since, if there is one
                grown = x1 if saved_x1 is None else x1 & ~saved_x1
                cov = meet_columns(self.db, v1 if saved_x1 is None else cov, grown)
                if cov.bit_count() < need:
                    return False
                # the free items the forcing rule may take
                forced = h1 if self.closed and mask_fixed else 0
                fr = free
                while fr:
                    low = fr & -fr
                    fr ^= low
                    ci = cov & cols[low.bit_length() - 1]
                    if ci.bit_count() < need:
                        drop |= low
                    elif ci == cov and forced & low:
                        take |= low
                # the size-aware rule, on the cover rows that can hold an
                # answer
                short = self.min_size - (x1 | take).bit_count()
                if short >= 2:
                    rule = self._short_rows(
                        cov, free & ~(drop | take), short, need, bool(forced)
                    )
                    if rule is None:
                        return False
                    drop |= rule[0]
                    grow = rule[1]
                # rule (a) of the module docstring; otherwise every
                # excluded item is tested again
                if saved_x1 is None or grown & (grown - 1) or free & h1 & ~(drop | take | grow):
                    tested = 0
            if mask_fixed:
                excluded = x0 & h1 & ~tested
                if self.closed and excluded:
                    # the cover rows each newly excluded frequent column
                    # misses
                    fr = free & h1 & ~(drop | take | grow)
                    zs = set()
                    tested |= excluded
                    while excluded:
                        low = excluded & -excluded
                        excluded ^= low
                        ce = cov & cols[low.bit_length() - 1]
                        if ce.bit_count() >= need:
                            zs.add(cov ^ ce)
                    if 0 in zs:
                        return False
                    drop |= self._dominated(fr, zs)
                # the forced items leave the cover as it is; those the
                # size-aware rule takes narrow it, so they are not saved.
                # At this X₁ a drop is infrequent (rule (b)), dominated by
                # a column just tested, or has too few rows of R to hold
                # the cover or a free item's: no test of it can act
                s.slots[self.slot] = (x1 | take, cov, tested | drop)
        if (drop or take or grow) and not (
            s.assign_bits(ROLE_X, drop, 0) and s.assign_bits(ROLE_X, take | grow, 1)
        ):
            return False
        if grow:
            # the cover narrows: every rule runs once more on it
            return self.propagate(s)
        x1 |= take
        free &= ~(drop | take)
        if self.span is None and (x1 | free).bit_count() > self.min_size:
            return True  # the size rule holds and fixes nothing
        bounds = self._bounds(x1, free)
        if bounds is None:
            return False
        zero, one = bounds
        if not zero | one:
            return True
        if not (s.assign_bits(ROLE_X, zero, 0) and s.assign_bits(ROLE_X, one, 1)):
            return False
        # the solver does not wake a propagator for its own assignments,
        # so the rules above run once more on what the bounds fixed
        return self.propagate(s)

    def _short_rows(
        self, cov: int, fr: int, short: int, need: int, force: bool
    ) -> tuple[int, int] | None:
        """The items of ``fr``, each frequent in ``cov``, that the
        size-aware rule fixes to 0 and, with ``force``, those it fixes to
        1; None when it fails.  R is the rows of ``cov`` that hold at
        least ``short`` items of ``fr``."""
        rows = self.db.rows
        cols = self.db.columns
        drop = 0
        while fr.bit_count() >= short:  # else no row can hold an answer
            # R: the rows that hold every item of fr, found by columns,
            # and the others row by row; the items every row of R holds,
            # and those of the rows outside R, the only items with fewer
            # rows in R than in cov
            r = meet_columns(self.db, cov, fr)
            meet = fr
            other = 0
            rest = cov ^ r
            while rest:
                low = rest & -rest
                rest ^= low
                row = rows[low.bit_length() - 1] & fr
                if row.bit_count() >= short:
                    r |= low
                    meet &= row
                else:
                    other |= row
            if r.bit_count() < need:
                return None
            # a drop shrinks R: to a local fixpoint
            out = 0
            while other:
                low = other & -other
                other ^= low
                if (r & cols[low.bit_length() - 1]).bit_count() < need:
                    out |= low
            if not out:
                return drop, meet if force else 0
            drop |= out
            fr ^= out
        return None

    def _dominated(self, fr: int, zs: set[int]) -> int:
        """The items of ``fr`` that no row of some z in ``zs`` holds."""
        rows = self.db.rows
        cols = self.db.columns
        out = 0
        for z in zs:
            if not fr:
                break
            # the free items left outside the union of z's rows, joined
            # until none is or for |fr| rows; the items still outside are
            # tested one by one against the rows not yet joined
            miss = fr
            rest = z
            budget = fr.bit_count()
            while rest and miss and budget:
                low = rest & -rest
                rest ^= low
                miss &= ~rows[low.bit_length() - 1]
                budget -= 1
            if rest:
                left = miss
                while left:
                    low = left & -left
                    left ^= low
                    if rest & cols[low.bit_length() - 1]:
                        miss ^= low
            out |= miss
            fr ^= miss
        return out
