"""Shared builders for the running-example dataset and synthetic instances."""

from fractions import Fraction

from submine import PartitionScheme, TransactionDatabase
from submine.dataset import bits_of, iter_bits

# running example: 9 items A..K (no I/J) mapped to 1..9, 6 transactions
A, B, C, D, E, F, G, H, K = range(1, 10)
ITEM_LABELS = dict(zip(range(1, 10), "A B C D E F G H K".split()))

TABLE1_ROWS = [
    [B, C, G, H, K],  # t1
    [A, D, G, K],     # t2
    [A, C, D, H],     # t3
    [A, E, F],        # t4
    [B, E, F],        # t5
    [B, E, F, G, K],  # t6
]

TABLE1_FIMI = "\n".join(" ".join(str(i) for i in row) for row in TABLE1_ROWS) + "\n"

HALF = Fraction(1, 2)


def table1_db() -> TransactionDatabase:
    return TransactionDatabase.from_rows(TABLE1_ROWS, item_labels=ITEM_LABELS)


def table1_item_scheme() -> PartitionScheme:
    return PartitionScheme.build(
        "items", 9, [("I1", [A, B]), ("I2", [C, D, E]), ("I3", [F, G, H, K])]
    )


def table1_trans_scheme() -> PartitionScheme:
    return PartitionScheme.build(
        "transactions", 6, [("T1", [1, 2]), ("T2", [3, 4]), ("T3", [5, 6])]
    )


def theory_labels(pairs) -> set:
    """(item mask, trans mask, joined labels, support) per pair."""
    return {(p.item_mask, p.trans_mask, "".join(p.labels), p.support) for p in pairs}


def triples_of(pairs) -> set:
    """The (item_bits, trans_bits, itemset_bits) triples the engines answer
    with, read back from a decoded theory."""
    return {(bits_of(p.item_mask), bits_of(p.trans_mask), bits_of(p.items)) for p in pairs}


def car_purchases():
    """Synthetic car-purchase data: 2 regions x 2 departments x 2 cities,
    5 purchases per city.  One Ferrari is planted in city 1, which puts
    exactly two administrative entities at or above 10% Ferrari frequency:
    City1 (1/5) and Dep1 (1/10, met exactly)."""
    brands = {1: "Ferrari", 2: "Renault", 3: "Peugeot", 4: "Fiat", 5: "VW"}
    rows = []
    tid = 0
    city_idx = 0
    for reg in range(2):
        for dep in range(2):
            for _city in range(2):
                city_idx += 1
                for k in range(5):
                    tid += 1
                    brand = 1 if (city_idx == 1 and k == 0) else 2 + (tid % 4)
                    rows.append(
                        [brand, 5 + city_idx, 13 + (reg * 2 + dep + 1), 17 + reg + 1]
                    )
    labels = dict(brands)
    for c in range(1, 9):
        labels[5 + c] = f"city{c}"
    for d in range(1, 5):
        labels[13 + d] = f"dep{d}"
    for r in range(1, 3):
        labels[17 + r] = f"reg{r}"
    db = TransactionDatabase.from_rows(rows, item_labels=labels)
    regions = [("Reg1", list(range(1, 21))), ("Reg2", list(range(21, 41)))]
    depts = [(f"Dep{d}", list(range(1 + (d - 1) * 10, 1 + d * 10))) for d in range(1, 5)]
    cities = [(f"City{c}", list(range(1 + (c - 1) * 5, 1 + c * 5))) for c in range(1, 9)]
    scheme = PartitionScheme.build(
        "transactions", 40, regions, extra_levels=[depts, cities]
    )
    return db, scheme


FERRARI = 1
FERRARI_BITS = bits_of([FERRARI])


# ------------------------------------------------------------------------
# Machinery for checking the global propagator against the definition
# on random partial states with a fully assigned mask.

from submine.closedpattern import ClosedPatternSub
from submine.dataset import span_bits
from submine.engine import ROLE_AUX, ROLE_H, ROLE_V, ROLE_X, Propagator, Solver

# A single cell of the solver is a (role, position) pair in these tests.

UNASSIGNED = -1


def add_vars(s, role, count):
    """``count`` new positions of ``role``, as (role, position) pairs."""
    first = s.add(role, count)
    return [(role, p) for p in range(first, first + count)]


def value(s, var):
    """1, 0 or UNASSIGNED: what the solver holds at var."""
    role, pos = var
    ones, zeros = s.fixed(role)
    return 1 if ones >> pos & 1 else 0 if zeros >> pos & 1 else UNASSIGNED


def assign(s, var, val):
    """Assign val at var; False iff var holds the opposite value."""
    role, pos = var
    return s.assign_bits(role, 1 << pos, val)


def snapshot(s, variables):
    """The values of ``variables``, in order."""
    return tuple(value(s, v) for v in variables)


def state(s):
    """The whole state: each role's (ones, zeros) bitsets."""
    return tuple(s.fixed(role) for role in (ROLE_AUX, ROLE_H, ROLE_V, ROLE_X))


def positions(variables):
    """The bitset of the positions of ``variables``, all of one role."""
    bits = 0
    for _, pos in variables:
        bits |= 1 << pos
    return bits


class Channel(Propagator):
    """gate = 0 forces dep = 0; dep = 1 forces gate = 1 (dep <= gate),
    where gate and dep are (role, position) pairs.  A toy propagator for
    the engine tests; in the model, ``ClosedPatternSub`` channels X to H
    itself."""

    __slots__ = ("gate", "dep")

    def __init__(self, gate, dep):
        self.gate = gate
        self.dep = dep

    def watches(self):
        return ((self.gate[0], 1 << self.gate[1]), (self.dep[0], 1 << self.dep[1]))

    def propagate(self, s: Solver) -> bool:
        if value(s, self.gate) == 0:
            return assign(s, self.dep, 0)
        if value(s, self.dep) == 1:
            return assign(s, self.gate, 1)
        return True


# Size and span bounds as propagators of their own.  ClosedPatternSub
# applies both to X itself; the engine tests use these as small
# propagators, and the model is checked against one built with them.


class CardinalityRange(Propagator):
    """lb <= the number of 1s of ``role`` at the positions in ``bits`` <=
    ub (ub=None leaves it open); a popcount of the solver's bitsets."""

    def __init__(self, role: int, bits: int, lb: int, ub: int | None = None):
        self.role = role
        self.bits = bits
        self.lb = lb
        self.ub = ub

    def watches(self):
        return ((self.role, self.bits),)

    def propagate(self, s: Solver) -> bool:
        ones, zeros = s.fixed(self.role)
        n_ones = (ones & self.bits).bit_count()
        free = self.bits & ~(ones | zeros)
        n_free = free.bit_count()
        if self.ub is not None and n_ones > self.ub:
            return False
        if n_ones + n_free < self.lb:
            return False
        if self.ub is not None and n_ones == self.ub:
            return s.assign_bits(self.role, free, 0)
        if n_ones + n_free == self.lb:
            return s.assign_bits(self.role, free, 1)
        return True


class CategorySpan(Propagator):
    """The items of ``role`` (X) chosen among the positions in ``bits``
    touch between lb and ub groups of a partition."""

    def __init__(self, role: int, bits: int, groups, lb: int, ub: int):
        self.role = role
        self.bits = bits
        self.groups = [g.members for g in groups]
        self.lb = lb
        self.ub = ub

    def watches(self):
        return ((self.role, self.bits),)

    def propagate(self, s: Solver) -> bool:
        ones, zeros = s.fixed(self.role)
        x_one = ones & self.bits
        x_poss = self.bits & ~zeros
        touched = reachable = 0
        for g in self.groups:
            if x_one & g:
                touched += 1
                reachable += 1
            elif x_poss & g:
                reachable += 1
        if touched > self.ub or reachable < self.lb:
            return False
        if touched == self.ub:
            # no further group may be entered
            untouched = 0
            for g in self.groups:
                if not x_one & g:
                    untouched |= g
            return s.assign_bits(self.role, x_poss & untouched, 0)
        return True


def build_mining_solver(db, theta, closed):
    """X/H/V and the mining part, the global propagator alone, which
    also channels X to H; returns the solver and the 1-based lists of
    (role, position) pairs (x, h, v), slot 0 unused."""
    s = Solver()
    n, m = db.item_count, db.transaction_count
    h = [None] + add_vars(s, ROLE_H, n)
    v = [None] + add_vars(s, ROLE_V, m)
    x = [None] + add_vars(s, ROLE_X, n)
    s.post(ClosedPatternSub(db, theta, closed))
    return s, (x, h, v)


def random_mask_state(rng, n, m):
    """A fully assigned mask plus a random partial assignment of X.  A
    partial cover state is drawn too and discarded, so that each seed
    keeps the trials it has always drawn."""
    h_bits = bits_of([i for i in range(1, n + 1) if rng.random() < 0.8])
    v_bits = bits_of([j for j in range(1, m + 1) if rng.random() < 0.8])
    x_state = {
        i: rng.randint(0, 1) for i in range(1, n + 1) if rng.random() < 0.3
    }
    for _ in range(1, m + 1):
        if rng.random() < 0.3:
            rng.randint(0, 1)
    return h_bits, v_bits, x_state


def apply_state(s, handles, db, h_bits, v_bits, x_state):
    """Load the state without intermediate propagation, then run one
    fixpoint.  Returns (ok, fixed) where fixed maps item i to the value
    the solver holds for X_i at fixpoint."""
    x, h, v = handles
    n, m = db.item_count, db.transaction_count
    for i in range(1, n + 1):
        assert assign(s, h[i], h_bits >> i & 1)
    for j in range(1, m + 1):
        assert assign(s, v[j], v_bits >> j & 1)
    for i, val in x_state.items():
        assert assign(s, x[i], val)
    if not s.propagate_to_fixpoint():
        return False, {}
    fixed = {}
    for i in range(1, n + 1):
        if value(s, x[i]) != UNASSIGNED:
            fixed[i] = value(s, x[i])
    return True, fixed


def mining_extensions(db, theta, closed, h_bits, v_bits, x_state):
    """The itemsets of all full assignments extending the state that
    satisfy the mining semantics by definition (channeling, coverage,
    frequency, closedness)."""
    n, m = db.item_count, db.transaction_count
    p, q = theta.numerator, theta.denominator
    n_act = v_bits.bit_count()
    universe_t = span_bits(1, m)
    free = [i for i in range(1, n + 1) if i not in x_state]
    out = []
    base = bits_of([i for i, val in x_state.items() if val == 1])
    for sel in range(1 << len(free)):
        xbits = base
        for k, i in enumerate(free):
            if sel >> k & 1:
                xbits |= 1 << i
        if xbits & ~h_bits:
            continue  # channeling
        ybits = 0
        for j in range(1, m + 1):
            if (v_bits >> j & 1) and not (xbits & ~db.rows[j]):
                ybits |= 1 << j
        ok = True
        for i in iter_bits(xbits):
            if q * (ybits & db.columns[i]).bit_count() < p * n_act:
                ok = False
                break
        if ok and closed:
            for i in iter_bits(h_bits):
                covered = (ybits & ~db.columns[i] & universe_t) == 0
                if bool(xbits >> i & 1) != covered:
                    ok = False
                    break
        if ok:
            out.append(xbits)
    return out
