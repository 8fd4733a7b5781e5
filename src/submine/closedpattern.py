"""Global frequent(-closed) itemset propagators over a circumscribed
sub-dataset.

``ClosedPatternSub`` filters the itemset variables directly from bitset
covers instead of going through the reified decomposition; it accepts
exactly the same full assignments.  It reads the itemset X, the mask (H, V)
and the optional cover variables Y as the solver's per-role bitsets, so a
wake-up costs no scan over variables.  The cover is derived state: the
intersection of the columns of the items fixed to 1, restricted to the
transactions whose cover variable (where one exists) is not fixed to 0.

It runs one frequency filter on every mask state: an optimistic cover,
over the transactions not fixed inactive, against the threshold of the
transactions fixed active.  Once V is fixed, that is the exact cover of
the sub-dataset.  The filter will

  * fail when that cover cannot reach the support threshold;
  * drop a free item whose addition kills the threshold.

Once the whole mask (H and V) is fixed, closed mode also will

  * force a free active item whose addition leaves the cover unchanged;
  * drop a free active item dominated by an excluded one, and fail when
    the cover is contained in an excluded item's column.

Where Y variables exist they follow the itemset and the mask.
"""

from __future__ import annotations

from fractions import Fraction

from .dataset import TransactionDatabase, iter_bits, span_bits
from .engine import ROLE_H, ROLE_V, ROLE_X, ROLE_Y, Propagator, Solver


class ClosedPatternSub(Propagator):
    """Variable handles are 1-based lists (slot 0 unused) whose i-th entry
    must sit at position i of its role; ``y_vars`` may be empty or hold
    None for transactions without a cover variable."""

    def __init__(
        self,
        db: TransactionDatabase,
        x_vars,
        h_vars,
        y_vars,
        v_vars,
        theta: Fraction,
        closed: bool = True,
    ):
        if not 0 < theta <= 1:
            raise ValueError(f"theta must lie in (0,1], got {theta}")
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
        out = []
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

        # the support bound over the possibly-active transactions, against
        # the definitely-active ones; exact once V is fixed
        need = p * v1.bit_count()
        cov = sigma_cover & ~v0 & ynz
        if q * cov.bit_count() < need:
            return False
        mask_fixed = (h1 | h0) & items == items and v1 | v0 == trans
        free = xnz & ~x1
        # with no transaction active yet and the mask open, no support can
        # fall short and no item is taken
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
) -> int:
    """Frequent-closed mining confined to the (H, V) sub-dataset."""
    return s.post(ClosedPatternSub(db, x_vars, h_vars, y_vars, v_vars, theta, closed=True))


def post_frequent_sub(
    s: Solver,
    db: TransactionDatabase,
    x_vars,
    h_vars,
    y_vars,
    v_vars,
    theta: Fraction,
) -> int:
    """Frequent mining confined to the (H, V) sub-dataset; no closedness."""
    return s.post(ClosedPatternSub(db, x_vars, h_vars, y_vars, v_vars, theta, closed=False))
