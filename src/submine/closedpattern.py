"""Global frequent(-closed) itemset propagators over a circumscribed
sub-dataset.

``ClosedPatternSub`` filters the itemset variables directly from bitset
covers instead of going through the reified decomposition; it accepts
exactly the same full assignments.  It reads the itemset X, the mask (H, V)
and the optional cover variables Y as the solver's per-role bitsets, so a
wake-up costs no scan over variables.  The cover is derived state: the
intersection of the columns of the items fixed to 1, restricted to the
transactions whose cover variable (where one exists) is not fixed to 0.

It runs one frequency filter on every mask state.  While V is open and
the query's transaction axis chooses groups (``choices``, read through
their indicator variables) with some indicator still free, the filter is
a per-group support bound: support over a union of disjoint groups is the
sum of the per-group supports (the partition counting of Savasere,
Omiecinski & Navathe, VLDB 1995).  For a cover c, group g scores
``q·|c ∧ g| − p·|g|``; ``best(c)`` adds the scores of the chosen groups
and, greedily and in descending order, those of the live groups that
raise the sum or are needed to reach lb, up to ub.  An itemset whose
cover lies within c is frequent in no completion of the mask when
``best(c) < 0``.  The bound is sound only when the groups of one choice
are disjoint (one partition level) or at most one is chosen (ub = 1,
one-of-levels); the constructor refuses anything else.  In every other
state the filter compares an optimistic cover, over the transactions not
fixed inactive, with the threshold of the transactions fixed active; once
V is fixed, that is the exact cover of the sub-dataset.  The filter will

  * fail when the cover of the itemset cannot reach the support threshold;
  * drop a free item whose addition kills the threshold.

Once the whole mask (H and V) is fixed, closed mode also will

  * force a free active item whose addition leaves the cover unchanged;
  * drop a free active item dominated by an excluded one, and fail when
    the cover is contained in an excluded item's column.

Where Y variables exist they follow the itemset and the mask.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .dataset import TransactionDatabase, iter_bits, span_bits
from .engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, ROLE_Y, Propagator, Solver


class ClosedPatternSub(Propagator):
    """Variable handles are 1-based lists (slot 0 unused) whose i-th entry
    must sit at position i of its role; ``y_vars`` may be empty or hold
    None for transactions without a cover variable.  ``choices`` is the
    transaction axis's (member bitsets, lb, ub) when it chooses groups,
    and ``indicators`` the group indicator variables, one per bitset."""

    def __init__(
        self,
        db: TransactionDatabase,
        x_vars,
        h_vars,
        y_vars,
        v_vars,
        theta: Fraction,
        closed: bool = True,
        choices: tuple[Sequence[int], int, int] | None = None,
        indicators: Sequence[int] = (),
    ):
        if not 0 < theta <= 1:
            raise ValueError(f"theta must lie in (0,1], got {theta}")
        self.indicators = list(indicators)
        self.groups = []  # (members, size) per indicator
        self.lb = self.ub = 0
        if choices is not None:
            groups, self.lb, self.ub = choices
            if len(groups) != len(self.indicators):
                raise ValueError("one indicator per group expected")
            seen = 0
            for g in groups:
                if self.ub > 1 and g & seen:
                    raise ValueError("the support bound needs disjoint groups or ub = 1")
                seen |= g
                self.groups.append((g, g.bit_count()))
        # group scores per distinct cover, for the life of the propagator
        self.scores: dict[int, list[int]] = {}
        self.db = db
        self.x_vars = x_vars
        self.h_vars = h_vars
        self.y_vars = y_vars
        self.v_vars = v_vars
        self.p = theta.numerator
        self.q = theta.denominator
        self.closed = closed
        self.n = db.item_count
        self.m = db.transaction_count
        self.item_universe = span_bits(1, self.n)
        self.trans_universe = span_bits(1, self.m)
        # transactions that have a cover variable
        self.y_here = sum(1 << j for j, y in enumerate(y_vars) if y is not None)
        # per item, the items with the same column (sparse ids leave many
        # empty ones); they exclude the same cover rows
        by_column: dict[int, int] = {}
        for i in range(1, self.n + 1):
            by_column[db.columns[i]] = by_column.get(db.columns[i], 0) | 1 << i
        self.same_column = [0] + [by_column[db.columns[i]] for i in range(1, self.n + 1)]

    def vars(self):
        out = list(self.indicators)
        for vs in (self.x_vars, self.h_vars, self.y_vars, self.v_vars):
            out.extend(v for v in vs if v is not None)
        return out

    def bind(self, s: Solver) -> None:
        for role, vs in (
            (ROLE_X, self.x_vars),
            (ROLE_H, self.h_vars),
            (ROLE_Y, self.y_vars),
            (ROLE_V, self.v_vars),
        ):
            if s.indexed_role(vs)[0] not in (role, None):
                raise ValueError(f"expected variables of role {role!r}")
        if s.role_bits(self.indicators)[0] not in (ROLE_AUX, None):
            raise ValueError(f"expected indicators of role {ROLE_AUX!r}")
        self.flags = [1 << s.position(b) for b in self.indicators]

    def _open_groups(self, s: Solver) -> tuple[list[int], list[int]] | None:
        """Indices of the chosen and of the live groups; None unless some
        indicator is free."""
        f1, f0 = s.fixed(ROLE_AUX)
        chosen = []
        live = []
        for k, flag in enumerate(self.flags):
            if f1 & flag:
                chosen.append(k)
            elif not f0 & flag:
                live.append(k)
        return (chosen, live) if live else None

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
        count = len(chosen)
        for a in sorted([scores[k] for k in live], reverse=True):
            if count >= self.ub or (a <= 0 and count >= self.lb):
                break
            total += a
            count += 1
        return total

    def propagate(self, s: Solver) -> bool:
        cols = self.db.columns
        rows = self.db.rows
        p, q = self.p, self.q
        items = self.item_universe
        trans = self.trans_universe
        x1, x0 = s.fixed(ROLE_X)
        x1 &= items
        xnz = items & ~x0
        h1, h0 = s.fixed(ROLE_H)
        h1 &= items
        v1, v0 = s.fixed(ROLE_V)
        v1 &= trans
        v0 &= trans
        y1, y0 = s.fixed(ROLE_Y)
        y1 &= self.y_here
        ynz = trans & ~(y0 & self.y_here)
        drop = 0  # free items to fix to 0
        take = 0  # free items to fix to 1

        # items ruled out by transactions already committed to the cover
        if y1:
            allowed = items
            for j in iter_bits(y1):
                allowed &= rows[j]
            if x1 & ~allowed:
                return False
            drop = xnz & ~allowed
            xnz &= allowed

        sigma_cover = trans
        rest = x1
        while rest:
            low = rest & -rest
            sigma_cover &= cols[low.bit_length() - 1]
            rest ^= low

        cov = sigma_cover & ~v0 & ynz
        mask_fixed = (h1 | h0) & items == items and v1 | v0 == trans
        free = xnz & ~x1
        open_groups = self._open_groups(s) if self.flags and v1 | v0 != trans else None
        if open_groups is not None:
            # the per-group support bound; V's zeros stay in the cover,
            # which can only weaken the bound, so covers recur across masks
            base = sigma_cover & ynz
            if x1 and self._best(base, *open_groups) < 0:
                return False
            fr = free
            while fr:
                low = fr & -fr
                fr ^= low
                if self._best(base & cols[low.bit_length() - 1], *open_groups) < 0:
                    drop |= low
        else:
            # the support bound over the possibly-active transactions,
            # against the definitely-active ones; exact once V is fixed
            need = p * v1.bit_count()
            if q * cov.bit_count() < need:
                return False
            # with no transaction active yet and the mask open, no support
            # can fall short and no item is taken
            fr = free if need or mask_fixed else 0
            while fr:
                low = fr & -fr
                fr ^= low
                ci = cov & cols[low.bit_length() - 1]
                if q * ci.bit_count() < need:
                    drop |= low
                elif self.closed and mask_fixed and h1 & low and ci == cov:
                    take |= low
        excluded = items & ~xnz & h1
        if self.closed and mask_fixed and excluded:
            # the cover rows each excluded column misses
            zs = set()
            ex = excluded
            while ex:
                i = (ex & -ex).bit_length() - 1
                ex &= ~self.same_column[i]
                z = cov & ~cols[i]
                if z == 0:
                    return False
                zs.add(z)
            fr = free & h1 & ~(drop | take)
            while fr:
                low = fr & -fr
                fr ^= low
                ci = cols[low.bit_length() - 1]
                for z in zs:
                    if z & ci == 0:
                        drop |= low
                        break
        s.assign_bits(ROLE_X, drop, 0)
        s.assign_bits(ROLE_X, take, 1)

        # cover variables, where they exist, follow the itemset and the mask
        if self.y_here:
            off = self.y_here & (v0 | ~sigma_cover)
            cov_nz = trans
            for i in iter_bits(xnz):
                cov_nz &= cols[i]
            on = self.y_here & v1 & cov_nz
            return s.assign_bits(ROLE_Y, off, 0) and s.assign_bits(ROLE_Y, on, 1)
        return True


def post_closed_pattern_sub(
    s: Solver,
    db: TransactionDatabase,
    x_vars,
    h_vars,
    y_vars,
    v_vars,
    theta: Fraction,
    choices=None,
    indicators=(),
) -> int:
    """Frequent-closed mining confined to the (H, V) sub-dataset."""
    return s.post(
        ClosedPatternSub(db, x_vars, h_vars, y_vars, v_vars, theta, True, choices, indicators)
    )


def post_frequent_sub(
    s: Solver,
    db: TransactionDatabase,
    x_vars,
    h_vars,
    y_vars,
    v_vars,
    theta: Fraction,
    choices=None,
    indicators=(),
) -> int:
    """Frequent mining confined to the (H, V) sub-dataset; no closedness."""
    return s.post(
        ClosedPatternSub(db, x_vars, h_vars, y_vars, v_vars, theta, False, choices, indicators)
    )
