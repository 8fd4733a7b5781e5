"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import A, B, C, D, E, F, FERRARI_BITS, G, H, HALF, car_purchases
from submine import Query, run_theory
from submine.dataset import bits_of
from submine.queries import AxisConstraint
from submine.reference import count_masks, enumerate_masks


@contextmanager
def report(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(f"{name} took {dt:.2f}s, budget {budget}s")
    except BaseException:
        print(f"[criterion {num:2}] FAIL  {name}")
        raise
    print(f"[criterion {num:2}] PASS  {name} ({dt:.2f}s)")


def _lab(pairs):
    return {("".join(p.labels)) for p in pairs}


def _pairs_by_desc(pairs):
    return {(p.item_desc, p.trans_desc, "".join(p.labels), p.support) for p in pairs}


def test_criterion_1_q1_golden(db1):
    with report(1, "Q1 golden theory", budget=1.0):
        theory = run_theory(db1, Query(theta=HALF))
        assert _lab(theory) == {"A", "B", "EF", "GK"}
        assert sorted(p.support for p in theory) == [3, 3, 3, 3]


def test_criterion_2_q1_prime_golden(db1, items3):
    with report(2, "Q1' golden theory", budget=1.0):
        theory = run_theory(db1, Query(theta=HALF, span=(2, 2)), items3)
        assert _lab(theory) == {"EF"}


def test_criterion_3_q2_golden(db1, items3, trans3):
    with report(3, "Q2 golden theory", budget=1.0):
        q = Query(theta=HALF, items=AxisConstraint.group_bounds(2, 2))
        theory = run_theory(db1, q, items3, trans3)
        got = {(p.item_desc, "".join(p.labels)) for p in theory}
        assert len(theory) == 9
        assert got == {
            ("I1+I2", "A"), ("I1+I2", "B"), ("I1+I2", "E"),
            ("I1+I3", "A"), ("I1+I3", "B"), ("I1+I3", "F"), ("I1+I3", "GK"),
            ("I2+I3", "EF"), ("I2+I3", "GK"),
        }


def test_criterion_4_q3_golden(db1, items3, trans3):
    with report(4, "Q3 golden theory", budget=1.0):
        q = Query(theta=HALF, trans=AxisConstraint.group_bounds(2, 2))
        theory = run_theory(db1, q, items3, trans3)
        got = {(p.trans_desc, "".join(p.labels)) for p in theory}
        assert len(theory) == 11
        assert got == {
            ("T1+T2", "A"), ("T1+T2", "AD"), ("T1+T2", "CH"), ("T1+T2", "GK"),
            ("T1+T3", "B"), ("T1+T3", "BEF"), ("T1+T3", "BGK"), ("T1+T3", "GK"),
            ("T2+T3", "A"), ("T2+T3", "BEF"), ("T2+T3", "EF"),
        }


def test_criterion_5_q4_golden(db1, items3, trans3):
    with report(5, "Q4 golden theory (3x3 table)", budget=1.0):
        q = Query(
            theta=HALF,
            items=AxisConstraint.group_bounds(2, 2),
            trans=AxisConstraint.group_bounds(2, 2),
        )
        theory = run_theory(db1, q, items3, trans3)
        assert len(theory) == 24
        cells = {}
        for p in theory:
            cells.setdefault((p.trans_desc, p.item_desc), set()).add("".join(p.labels))
        assert cells == {
            ("T1+T2", "I1+I2"): {"A", "AD", "C"},
            ("T1+T2", "I1+I3"): {"A", "GK", "H"},
            ("T1+T2", "I2+I3"): {"CH", "D", "GK"},
            ("T1+T3", "I1+I2"): {"B", "BE"},
            ("T1+T3", "I1+I3"): {"B", "BF", "GK", "BGK"},
            ("T1+T3", "I2+I3"): {"EF", "GK"},
            ("T2+T3", "I1+I2"): {"A", "BE", "E"},
            ("T2+T3", "I1+I3"): {"A", "BF", "F"},
            ("T2+T3", "I2+I3"): {"EF"},
        }


def test_criterion_6_closedness_interaction(db1):
    with report(6, "closedness under forbidden items (BG)", budget=1.0):
        q = Query(
            theta=Fraction(3, 10),
            min_size=2,
            forbid=bits_of([C, D, E, F]),
            items=AxisConstraint.fixed(bits_of([A, B, C, D, E, F, G, H])),
        )
        theory = run_theory(db1, q, engine="cp")
        entries = {(p.item_mask, "".join(p.labels), p.support) for p in theory}
        assert (tuple(range(1, 9)), "BG", 2) in entries
        oracle = run_theory(db1, q, engine="oracle")
        assert theory == oracle


def test_criterion_7_mask_combinatorics():
    with report(7, "sub-dataset counts from the binomial sums"):
        cases = [
            (count_masks(6, 2, 3), 35),
            (count_masks(3, 2, 3), 4),
            (count_masks(17, 2, 2), 136),
            (count_masks(17, 2, 3), 816),
            (count_masks(5, 2, 3), 20),
            (count_masks(5, 2, 5), 26),
            (count_masks(15, 2, 2), 105),
            (count_masks(15, 2, 3), 560),
            (count_masks(10, 1, 10), 1023),
            (count_masks(10, 2, 10), 1013),
            (count_masks(7, 2, 7), 120),
            (count_masks(29, 2, 3), 4060),
            (count_masks(29, 2, 4), 27811),
            (count_masks(29, 2, 5), 146566),
            (count_masks(12, 2, 2), 66),
            (count_masks(12, 3, 3), 220),
            (count_masks(34, 2, 2), 561),
            (count_masks(94, 2, 2), 4371),
            (count_masks(6, 2, 3) * count_masks(10, 2, 3), 5775),
            (count_masks(6, 3, 4) * count_masks(10, 3, 4), 11550),
            (count_masks(6, 2, 6) * count_masks(10, 2, 10), 57741),
            (count_masks(3, 2, 3) * count_masks(12, 2, 10), 16280),
            (count_masks(6, 2, 3) * count_masks(29, 2, 3), 142100),
            (count_masks(8, 2, 3) * count_masks(29, 2, 3), 341040),
            (count_masks(17, 2, 2) * count_masks(12, 2, 2), 8976),
            (count_masks(17, 2, 2) * count_masks(12, 3, 3), 29920),
            (count_masks(5, 2, 3) * count_masks(34, 2, 2), 11220),
        ]
        for got, want in cases:
            assert got == want, f"expected {want}, got {got}"


def test_criterion_8_oracle_equivalence():
    from submine.cli import generate_random_instance

    with report(8, "cp = baseline = oracle on 100 random instances", budget=60.0):
        rng = random.Random(8451)
        for k in range(100):
            db, ischeme, tscheme, query = generate_random_instance(rng)
            cp = run_theory(db, query, ischeme, tscheme, engine="cp")
            baseline = run_theory(db, query, ischeme, tscheme, engine="baseline")
            oracle = run_theory(db, query, ischeme, tscheme, engine="oracle")
            assert cp == baseline == oracle, f"instance {k} disagrees"


def test_criterion_9_propagator_parity():
    from test_closedpattern import check_state_exact

    with report(9, "global propagator exact on 1000 partial states"):
        rng = random.Random(1717)
        for _ in range(1000):
            check_state_exact(rng, closed=True)


def test_criterion_10_rq_scenario():
    with report(10, "hierarchical where-frequent scenario", budget=1.0):
        db, scheme = car_purchases()
        q = Query(
            theta=Fraction(1, 10),
            closed=False,
            require=FERRARI_BITS,
            items=AxisConstraint.fixed(FERRARI_BITS),
            trans=AxisConstraint.one_per_level(),
        )
        assert enumerate_masks(db, q, None, scheme).count() == 14
        cp = run_theory(db, q, None, scheme, engine="cp")
        oracle = run_theory(db, q, None, scheme, engine="oracle")
        assert cp == oracle
        found = {(p.trans_desc, "".join(p.labels), p.freq_str()) for p in cp}
        assert found == {("City1", "Ferrari", "1/5"), ("Dep1", "Ferrari", "1/10")}


def test_criterion_11_scale_sanity():
    from synth import zoo_like

    with report(11, "zoo-like Q4 with 5775 sub-datasets", budget=120.0):
        db, ischeme, tscheme = zoo_like()
        assert (db.transaction_count, db.item_count) == (101, 36)
        ones = sum(r.bit_count() for r in db.rows)
        assert 0.40 <= ones / (101 * 36) <= 0.48
        q = Query(
            theta=Fraction(3, 4),
            min_size=5,
            items=AxisConstraint.group_bounds(2, 3),
            trans=AxisConstraint.group_bounds(2, 3),
        )
        enumerated = enumerate_masks(db, q, ischeme, tscheme).count()
        assert enumerated == 5775
        stats = {}
        theory = run_theory(db, q, ischeme, tscheme, engine="cp", stats=stats)
        assert stats["masks"] <= enumerated
        assert theory  # the planted block yields closed sets under the bounds
