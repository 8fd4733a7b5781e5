"""Global frequent(-closed) itemset propagator over a circumscribed
sub-dataset.

``ClosedPatternSub`` is the whole mining semantics of the model
(channeling, coverage, frequency, closedness): it filters the itemset X
directly from bitset covers and accepts exactly the full assignments that
satisfy the definition.  Under a fixed mask it is also
exact on partial states, as ClosedPattern is (Lazaar et al., CP 2016): it
fails exactly when no itemset extends the state, and fixes a free item
exactly when every extension agrees on it.  It has no cover role: it
reads the itemset X and the mask (H, V) as the solver's per-role bitsets,
so a wake-up costs no scan over positions, and derives the cover of the
items fixed to 1 as the intersection of their columns.  Every wake-up
starts with the channeling X ⊆ H: it fixes X to 0 on the inactive items
and H to 1 on the items of the itemset, and the rules below run on the
bitsets that leaves.

It runs one support test per state of V.  While V is open, the test is a
per-group support bound over the transaction axis's group choice
(``choices``, read through the group indicator positions): support over a
union of disjoint groups is the sum of the per-group supports (the
partition counting of Savasere, Omiecinski & Navathe, VLDB 1995).  For a cover c,
group g scores ``q·|c ∧ g| − p·|g|``; ``best(c)`` adds the scores of the
chosen groups and, greedily and in descending order, those of the live
groups that raise the sum or are needed to reach lb, up to ub
(``dataset.best_choice``, which ``baseline``'s search shares).  An itemset
whose cover lies within c is frequent in no completion of the mask when
``best(c) < 0``; with no live group left, ``best`` is the exact test over
the chosen groups.  The bound is sound only when the groups of one choice
are disjoint (one partition level) or at most one is chosen (ub = 1,
one-of-levels); the constructor refuses anything else.  Once V is fixed,
the test is exact: ``q·|cover ∧ V₁| ≥ p·|V₁|``.  ``assemble`` always
passes the choice; a propagator posted without one, as a mining-only
solver is, runs no test while V is open.  The test will

  * fail when the cover of the itemset cannot reach the support threshold;
  * drop a free item whose addition kills the threshold.

An item no transaction holds (sparse item ids leave many) has the empty
column, which these rules treat like any other.  No such item is live,
and ``assemble`` fixes H, and through the channeling X, to 0 at the root
on every item that is not, so the per-item loops run over the live items
only and no exclusion test reads an empty column.

Once the whole mask (H and V) is fixed, closed mode also will

  * force a free active item whose addition leaves the cover unchanged;
  * drop a free active item dominated by an excluded one, and fail when
    the cover is contained in an excluded item's column.

Under a fixed mask a wake-up redoes only what changed on the search path
(after the reversible cover state of CoverSize, Schaus, Aoga & Guns,
CPAIOR 2017).  The propagator keeps, in a reversible solver slot, the X₁,
the cover ``cols(X₁) ∧ V₁`` and the excluded columns already tested at the
last fixpoint on the path; backtracking restores it with the bitsets.
When X₁ is unchanged, so is the cover: the support test, the per-item
tests and the forcing rule already ran on it, so the wake-up only tests
the newly excluded columns against the free active items.  When X₁ grew,
the cover is the saved one intersected with the new columns only, and
every rule runs on it.  The slot follows the path, not the mask: one-of-
levels reaches the same mask in sibling subtrees under different group
indicators, each with its own X.  Two exact rules spare the exclusion
tests whose outcome is known:

  * (a) after X₁ grew by one item k, with no free active item left, only
    the columns excluded since the saved fixpoint are tested: there no
    tested column dominated the free item k, so none holds ``cov ∧ col_k``,
    the new cover.  Growth by two items at once (another propagator forced
    one) retests them all: a column may hold {a, b}'s cover, not a's or b's;
  * (b) only a frequent column, ``q·|cov ∧ col_e| ≥ p·|V₁|``, is tested:
    only such can hold the cover or a surviving free item's, both frequent.

The slot also records every item the propagator dropped on the path, from
the open-V bound on, and an exclusion test starts from that record: such
an item is never tested, whatever cover X₁ has grown to.  An item the
support test (open-V or exact) dropped is infrequent for every superset
of the X₁ it was dropped under, so its column holds no frequent cover, and
every item it dominates is infrequent too and fails the support test.  An
item dropped because an excluded item e dominates it is dominated by e
under every smaller cover, and so is every item it dominates; e's own
test fails or drops them, or, when e was dropped too, what dropped e
does.  Skipping these tests changes no fixpoint.
Until the mask is fixed on the path, the slot holds this record alone
(X₁ None).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .dataset import TransactionDatabase, best_choice, span_bits
from .engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, Propagator, Solver


class ClosedPatternSub(Propagator):
    """Position i of X and H is item i of ``db``, position j of V
    transaction j.  ``choices`` is the transaction axis's (member bitsets,
    lb, ub), as ``AxisConstraint.answer_choices`` gives it, and group k's
    indicator is aux position ``first + k``."""

    def __init__(
        self,
        db: TransactionDatabase,
        theta: Fraction,
        closed: bool = True,
        choices: tuple[Sequence[int], int, int] | None = None,
        first: int = 1,
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
        k = len(self.groups)
        self.indicators = span_bits(first, first + k - 1)
        self.flags = [1 << first + j for j in range(k)]
        # group scores per distinct cover, for the life of the propagator
        self.scores: dict[int, list[int]] = {}
        self.db = db
        self.p = theta.numerator
        self.q = theta.denominator
        self.closed = closed
        self.item_universe = span_bits(1, db.item_count)
        self.trans_universe = span_bits(1, db.transaction_count)

    def watches(self):
        items = self.item_universe
        return (
            (ROLE_AUX, self.indicators),
            (ROLE_X, items),
            (ROLE_H, items),
            (ROLE_V, self.trans_universe),
        )

    def bind(self, s: Solver) -> None:
        # (x1, cov, tested, dropped): x1, cov and tested of the last
        # fixpoint on the search path under a fixed mask, x1 None before
        # it, and the items this propagator dropped on the path
        self.slot = s.new_slot()
        s.slots[self.slot] = (None, None, 0, 0)

    def _open_groups(self, s: Solver) -> tuple[list[int], list[int]]:
        """Indices of the chosen and of the live groups."""
        f1, f0 = s.fixed(ROLE_AUX)
        chosen = []
        live = []
        for k, flag in enumerate(self.flags):
            if f1 & flag:
                chosen.append(k)
            elif not f0 & flag:
                live.append(k)
        return chosen, live

    def _best(self, cover: int, chosen: list[int], live: list[int]) -> int:
        """The largest ``Σ q·|cover ∧ g| − p·|g|`` over the group choices
        that keep every chosen group, no ruled-out one and lb..ub in all."""
        scores = self.scores.get(cover)
        if scores is None:
            p, q = self.p, self.q
            scores = [q * (cover & g).bit_count() - p * size for g, size in self.groups]
            self.scores[cover] = scores
        total = 0
        for k in chosen:
            total += scores[k]
        ranked = sorted([scores[k] for k in live], reverse=True)
        return best_choice(total, len(chosen), ranked, self.lb, self.ub)

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
        if not (
            s.assign_bits(ROLE_X, h0 & ~x0, 0) and s.assign_bits(ROLE_H, x1 & ~h1, 1)
        ):
            return False
        x0 = s.fixed(ROLE_X)[1]
        free = items & ~(x1 | x0)
        v1, v0 = s.fixed(ROLE_V)
        v1 &= trans
        v0 &= trans
        drop = 0  # free items to fix to 0

        if v1 | v0 != trans:
            if not self.flags:
                return True
            # the per-group support bound; V's zeros stay in the cover,
            # which can only weaken the bound, so covers recur across masks
            cov = _cover(cols, trans, x1)
            groups = self._open_groups(s)
            if x1 and self._best(cov, *groups) < 0:
                return False
            fr = free
            while fr:
                low = fr & -fr
                fr ^= low
                if self._best(cov & cols[low.bit_length() - 1], *groups) < 0:
                    drop |= low
            if drop:
                dropped = s.slots[self.slot][3]
                s.slots[self.slot] = (None, None, 0, dropped | drop)
            return s.assign_bits(ROLE_X, drop, 0)

        h1, h0 = s.fixed(ROLE_H)
        h1 &= items
        mask_fixed = (h1 | h0) & items == items
        saved_x1, cov, tested, dropped = s.slots[self.slot]
        p, q = self.p, self.q
        need = p * v1.bit_count()
        take = 0  # free items to fix to 1
        # with X₁ as saved, the support test, the per-item tests and the
        # forcing rule already ran on the saved cover
        if saved_x1 != x1:
            # V is fixed: the exact support test, on the saved cover
            # narrowed by the items fixed to 1 since, if there is one
            grown = x1 if saved_x1 is None else x1 & ~saved_x1
            cov = _cover(cols, v1 if saved_x1 is None else cov, grown)
            if q * cov.bit_count() < need:
                return False
            fr = free
            while fr:
                low = fr & -fr
                fr ^= low
                ci = cov & cols[low.bit_length() - 1]
                if q * ci.bit_count() < need:
                    drop |= low
                elif self.closed and mask_fixed and h1 & low and ci == cov:
                    take |= low
            # rule (a) of the module docstring; otherwise every excluded
            # item but the dropped ones is tested again
            if saved_x1 is None or grown & (grown - 1) or free & h1 & ~(drop | take):
                tested = dropped
        if mask_fixed:
            excluded = x0 & h1 & ~tested
            if self.closed and excluded:
                # the cover rows each newly excluded frequent column misses
                fr = free & h1 & ~(drop | take)
                zs = set()
                tested |= excluded
                while excluded:
                    low = excluded & -excluded
                    excluded ^= low
                    ce = cov & cols[low.bit_length() - 1]
                    if q * ce.bit_count() >= need:
                        zs.add(cov ^ ce)
                if 0 in zs:
                    return False
                while fr:
                    low = fr & -fr
                    fr ^= low
                    ci = cols[low.bit_length() - 1]
                    for z in zs:
                        if z & ci == 0:
                            drop |= low
                            break
            # the forced items leave the cover as it is
            s.slots[self.slot] = (x1 | take, cov, tested | drop, dropped | drop)
        return s.assign_bits(ROLE_X, drop, 0) and s.assign_bits(ROLE_X, take, 1)


def _cover(cols: Sequence[int], cov: int, items: int) -> int:
    """``cov`` intersected with the column of each item in ``items``."""
    while items:
        low = items & -items
        cov &= cols[low.bit_length() - 1]
        items ^= low
    return cov
