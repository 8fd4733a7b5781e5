import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    A, B, E, F, G, HALF, K, FERRARI_BITS, CardinalityRange, CategorySpan, car_purchases,
    state, theory_labels, triples_of, value,
)
from synth import many_groups
from submine import (
    FormatError,
    PartitionScheme,
    Query,
    QueryError,
    TransactionDatabase,
    UnsupportedQueryError,
    assemble,
    build_query,
    parse_query,
    run_theory,
)
from submine import queries
from submine.cli import _random_bounds, generate_random_instance
from submine.closedpattern import ClosedPatternSub
from submine.dataset import bits_of, indices_of
from submine.constraints import post_group_choice
from submine.engine import ROLE_H, ROLE_V, ROLE_X, SearchTimeout, Solver
from submine.queries import (
    ENGINES,
    AxisConstraint,
    SolutionPair,
    describe_mask,
    make_pair,
    validate_pair,
)


# ----------------------------------------------------------------- grammar


def test_parse_query_roundtrip(db1, items3, trans3):
    text = """
    # frequent closed itemsets over two item categories
    theta: 50%
    closed: true
    minsize: 2
    items_active: 2 2
    trans_active: all
    engine: baseline
    """
    q = build_query(parse_query(text), db1, items3, trans3)
    assert q.theta == HALF
    assert q.min_size == 2
    assert q.items == AxisConstraint.group_bounds(2, 2)
    assert q.trans == AxisConstraint.all_active()
    assert q.engine == "baseline"


@pytest.mark.parametrize("text,msg", [
    ("theta: 1/2\nfoo: 1\n", "unknown key"),
    ("theta: 1/2\ntheta: 1/3\n", "duplicate"),
    ("closed: true\n", "missing required key"),
    ("theta: 0\n", "theta"),
    ("theta: 3/2\n", "theta"),
    ("theta: huh\n", "frequency"),
    ("theta: 5E-1\n", "frequency"),
    ("theta: 1e-1000000\n", "frequency"),
    ("theta: 1/2  # half\n", "frequency"),
    ("theta: 1/2\nclosed: maybe\n", "closed"),
    ("theta: 1/2\nminsize: zero\n", "minsize"),
    ("theta: 1/2\nitems_active: 1 2 3\n", "^items_active: cannot parse '1 2 3'$"),
])
def test_parse_query_rejects(text, msg, db1):
    with pytest.raises(QueryError, match=msg):
        build_query(parse_query(text), db1)


def test_theta_forms(db1):
    for text in ("1/2", "50%", "0.5"):
        q = build_query({"theta": text}, db1)
        assert q.theta == HALF


def test_labels_resolve(db1):
    q = build_query({"theta": "1/2", "require": "G K", "forbid": "C"}, db1)
    assert q.require == bits_of([G, K])
    assert q.forbid == bits_of([3])
    with pytest.raises(QueryError, match="unknown item label"):
        build_query({"theta": "1/2", "require": "Z"}, db1)


def test_items_parse_as_ids_without_labels():
    from submine import TransactionDatabase

    db = TransactionDatabase.from_rows([[1, 2], [2, 3]], item_count=3)
    q = build_query({"theta": "1/2", "require": "3", "items_active": "list 1 3"}, db)
    assert q.require == bits_of([3])
    assert q.items == AxisConstraint.fixed(bits_of([1, 3]))


def test_bounds_validation(db1, items3, trans3):
    with pytest.raises(QueryError, match="bounds"):
        build_query({"theta": "1/2", "items_active": "2 5"}, db1, items3)
    with pytest.raises(QueryError, match="scheme"):
        build_query({"theta": "1/2", "items_active": "1 2"}, db1, None)
    with pytest.raises(QueryError, match="span"):
        build_query({"theta": "1/2", "span": "0 9"}, db1, items3)
    with pytest.raises(QueryError, match="one-of-levels"):
        build_query({"theta": "1/2", "trans_active": "one-of-levels"}, db1, items3, None)


# query files: theta always, each other key now and then; a value is a
# sample that hits one branch of the grammar (valid or not) or free text
_AXIS = ["all", "one-of-levels", "list A G K", "list 1 9", "list Z", "1 2", "2 2", "0 3", "2 5"]
_SAMPLES = {
    "closed": ["true", "false", "maybe"],
    "minsize": ["1", "2", "3", "0", "10", "two"],
    "span": ["1 2", "2 2", "0 9", "-1 1", "1"],
    "require": ["A", "G K", "1", "9", "Z", "0"],
    "forbid": ["C", "B E", "9", "K"],
    "items_active": _AXIS,
    "trans_active": _AXIS,
    "engine": ["cp", "baseline", "gpu"],
}
_THETAS = ["1/2", "1/6", "50%", "0.5", "0", "3/2", "1/0"]
_FREE = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=4)


def _query_text(value):
    keys = st.fixed_dictionaries(
        {"theta": value(_THETAS)}, optional={k: value(v) for k, v in _SAMPLES.items()}
    )
    return keys.map(lambda d: "".join(f"{k}: {v}\n" for k, v in d.items()))


_QUERY_TEXT = (
    _query_text(st.sampled_from)
    | _query_text(lambda samples: st.sampled_from(samples) | _FREE)
    | st.text(max_size=40)
)


@settings(max_examples=150, deadline=None)
@given(
    text=_QUERY_TEXT,
    with_schemes=st.booleans(),
)
def test_query_text_builds_or_fails_cleanly(db1, items3, trans3, text, with_schemes):
    schemes = (items3, trans3) if with_schemes else (None, None)
    try:
        query = build_query(parse_query(text), db1, *schemes)
    except (QueryError, FormatError):
        return
    theories = [run_theory(db1, query, *schemes, engine=e) for e in ENGINES]
    assert theories[0] == theories[1] == theories[2]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: Query(theta=HALF, require=bits_of([9])), QueryError, "item 9 out of range 1..3"),
        (lambda: Query(theta=HALF, forbid=bits_of([9])), QueryError, "item 9 out of range 1..3"),
        (lambda: Query(theta=HALF, min_size=9), QueryError, "minsize 9 out of range 1..3"),
        (
            lambda: Query(theta=HALF, items=AxisConstraint("spatial-window")),
            UnsupportedQueryError,
            "dataset constraint 'spatial-window' not supported",
        ),
        (
            lambda: Query(theta=HALF, trans=AxisConstraint.group_bounds(1, 2)),
            QueryError,
            "group bounds on transactions need a partition scheme",
        ),
        (
            lambda: Query(theta=0.5),
            QueryError,
            "theta must be an exact fraction, got 0.5",
        ),
        (
            lambda: Query(theta=HALF, items=AxisConstraint.fixed(bits_of([2, 9]))),
            QueryError,
            "fixed activation references unknown items",
        ),
        (lambda: Query(theta=HALF, engine="gpu"), QueryError, "unknown engine 'gpu'"),
        (
            lambda: Query(theta=HALF, items=AxisConstraint.one_per_level()),
            QueryError,
            "one-of-levels applies to transactions only",
        ),
        (lambda: Query(theta=HALF, span=(1, 1)), QueryError, "span needs an item partition scheme"),
    ],
    ids=[
        "require", "forbid", "minsize", "unknown-kind", "no-scheme", "float-theta",
        "fixed-outside", "unknown-engine", "item-levels", "span-no-scheme",
    ],
)
def test_engines_reject_invalid_queries_alike(engine, make, error, message):
    db = TransactionDatabase.from_rows([[1, 2], [2, 3], [1, 3]], item_count=3)
    with pytest.raises(error) as info:
        run_theory(db, make(), engine=engine)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda db: build_query({"theta": "1/2", "foo": "1"}, db), "unknown keys: ['foo']"),
        (lambda db: build_query({"closed": "true"}, db), "query is missing required key 'theta'"),
        (lambda db: run_theory(db, Query(theta=HALF), engine="x"), "unknown engine 'x'"),
    ],
    ids=["build-unknown-key", "build-no-theta", "run-unknown-engine"],
)
def test_query_api_rejects_unknown_names(db1, call, message):
    with pytest.raises(QueryError) as info:
        call(db1)
    assert str(info.value) == message


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_reject_schemes_that_do_not_fit_alike(db1, items3, trans3, engine):
    # the two schemes swapped, and a 4-item scheme on the 9 items
    bounds = AxisConstraint.group_bounds(1, 2)
    short = PartitionScheme.build("items", 4, [("P", [1, 2])])
    for schemes, trans, wrong in (
        ((trans3, items3), bounds, "transactions 1..6"),
        ((short, None), AxisConstraint.all_active(), "items 1..4"),
    ):
        q = Query(theta=HALF, items=bounds, trans=trans)
        with pytest.raises(QueryError) as info:
            run_theory(db1, q, *schemes, engine=engine)
        assert type(info.value) is QueryError
        assert str(info.value) == f"the items scheme partitions {wrong}, not items 1..9"


def test_require_conflicts_forbid(db1):
    with pytest.raises(QueryError, match="required and forbidden"):
        Query(theta=HALF, require=bits_of([A]), forbid=bits_of([A]))


# ---------------------------------------------------------------- assembly


def test_q1_fixes_all_activations(db1):
    # the one item mask is projected onto the live items A B E F G K, the
    # items frequent at 1/2 in the whole table; C, D and H are 0 at the root
    solver = assemble(db1, Query(theta=HALF))
    mask_roles = ((ROLE_H, db1.item_count), (ROLE_V, db1.transaction_count))
    fixed = [value(solver, (role, p)) for role, size in mask_roles for p in range(1, size + 1)]
    live = {A, B, E, F, G, K}
    assert fixed[:9] == [int(i in live) for i in range(1, 10)]  # 9 items
    assert fixed[9:] == [1] * 6  # 6 transactions


def test_q1_search_visits_each_solution_once(db1):
    solver = assemble(db1, Query(theta=HALF))
    seen = []
    count = solver.search_all(on_solution=lambda: seen.append(state(solver)))
    assert count == 4
    assert len(set(seen)) == 4


def _bounded_instance(rng):
    """A random instance whose query bounds the span and asks for 1 to 3
    items."""
    db, ischeme, tscheme, query = generate_random_instance(rng)
    span = _random_bounds(rng, ischeme.group_count())
    return db, ischeme, tscheme, replace(query, min_size=rng.randint(1, 3), span=span)


def _assemble_apart(db, query, item_scheme, trans_scheme):
    """The model ``assemble`` builds, with the size and span bounds posted
    as propagators of their own ahead of a ``ClosedPatternSub`` without
    them."""
    items, trans = db.all_items(), db.all_transactions()
    s = Solver()
    s.add(ROLE_H, db.item_count)
    s.add(ROLE_V, db.transaction_count)
    s.add(ROLE_X, db.item_count)
    item_choices = queries._project_items(db, query, item_scheme, trans_scheme)[0]
    trans_choices = query.trans.answer_choices(trans, trans_scheme)
    if any(lb > ub for _, lb, ub in (item_choices, trans_choices)):
        s.root_failed = True
        return s
    groups, lb, ub = item_choices
    post_group_choice(s, groups, ROLE_H, items, lb, ub)
    groups, lb, ub = trans_choices
    first = post_group_choice(s, groups, ROLE_V, trans, lb, ub)
    s.post(CardinalityRange(ROLE_X, items, query.min_size))
    if query.span is not None:
        s.post(CategorySpan(ROLE_X, items, item_scheme.groups, *query.span))
    s.assign_root(ROLE_X, query.require, 1)
    s.assign_root(ROLE_X, query.forbid, 0)
    s.post(ClosedPatternSub(db, query.theta, query.closed, trans_choices, first))
    return s


def test_size_and_span_rules_search_as_their_own_propagators():
    # ClosedPatternSub's size and span rules reach the fixpoints the two
    # propagators reach, so the search finds the same solutions in the same
    # order; its size-aware rule under a fixed V prunes further, so the
    # search may only shrink, and does on some instances
    rng = random.Random(31)
    smaller = 0
    for _ in range(300):
        db, ischeme, tscheme, query = _bounded_instance(rng)
        runs = []
        for build in (assemble, _assemble_apart):
            solver = build(db, query, ischeme, tscheme)
            seen = []
            solver.search_all(on_solution=lambda: seen.append(state(solver)))
            runs.append((seen, solver.stats["nodes"], solver.stats["masks_reached"]))
        (seen, nodes, masks), (apart_seen, apart_nodes, apart_masks) = runs
        assert seen == apart_seen, query
        assert nodes <= apart_nodes and masks <= apart_masks, query
        smaller += nodes < apart_nodes
    assert smaller >= 20, smaller


def test_every_propagator_is_idempotent_where_the_search_goes(monkeypatch):
    # the solver does not wake a propagator for its own assignments, so a
    # second call right after a successful one must fail nothing and
    # assign nothing
    checked = Counter()

    def post(s, prop, post=Solver.post):
        run = prop.propagate
        name = type(prop).__name__

        def propagate(solver):
            if not run(solver):
                return False
            before = state(solver)
            assert run(solver), f"{name} failed right after it succeeded"
            assert state(solver) == before, f"{name} assigned on a second call"
            checked[name] += 1
            return True

        prop.propagate = propagate
        return post(s, prop)

    def bounds(prop, x1, free, bounds=ClosedPatternSub._bounds):
        # the size and span rules of ClosedPatternSub, counted where they
        # assign
        found = bounds(prop, x1, free)
        if found is not None:
            checked["span rule"] += found[0] != 0
            checked["size rule"] += found[1] != 0
        return found

    def short_rows(prop, *args, short_rows=ClosedPatternSub._short_rows):
        # the size-aware rule under a fixed V, counted where it assigns
        found = short_rows(prop, *args)
        if found is not None:
            checked["short-rows drop"] += found[0] != 0
            checked["short-rows take"] += found[1] != 0
        return found

    monkeypatch.setattr(Solver, "post", post)
    monkeypatch.setattr(ClosedPatternSub, "_bounds", bounds)
    monkeypatch.setattr(ClosedPatternSub, "_short_rows", short_rows)
    rng = random.Random(19)
    for _ in range(150):
        db, ischeme, tscheme, query = generate_random_instance(rng)
        # group choices on both axes
        items = AxisConstraint.group_bounds(*_random_bounds(rng, ischeme.group_count()))
        trans = rng.choice((
            AxisConstraint.group_bounds(*_random_bounds(rng, tscheme.group_count())),
            AxisConstraint.one_per_level(),
        ))
        assemble(db, replace(query, items=items, trans=trans), ischeme, tscheme).search_all()
    # few of those queries bound the span; these all do, and the span rule
    # assigns on about one in ten of them
    rng = random.Random(27)
    for _ in range(1000):
        db, ischeme, tscheme, query = _bounded_instance(rng)
        assemble(db, query, ischeme, tscheme).search_all()
    # closed queries that ask for 3 to 5 items, where the size-aware rule
    # both drops and takes
    rng = random.Random(28)
    for _ in range(1000):
        db, ischeme, tscheme, query = generate_random_instance(rng)
        size = rng.randint(3, min(db.item_count, 5))
        assemble(db, replace(query, closed=True, min_size=size), ischeme, tscheme).search_all()
    kinds = ("GroupChoice", "ClosedPatternSub")
    assert min(checked[kind] for kind in kinds) >= 1000, checked
    assert min(checked["size rule"], checked["span rule"]) >= 200, checked
    assert min(checked["short-rows drop"], checked["short-rows take"]) >= 200, checked


def test_q4_candidate_masks(db1, items3, trans3):
    from submine.reference import enumerate_masks

    q = Query(
        theta=HALF,
        items=AxisConstraint.group_bounds(2, 2),
        trans=AxisConstraint.group_bounds(2, 2),
    )
    assert enumerate_masks(db1, q, items3, trans3).count() == 9


def test_rq_template_from_text(db1, items3, trans3):
    text = "theta: 10%\nclosed: false\nrequire: G\nitems_active: list G\ntrans_active: one-of-levels\n"
    q = build_query(parse_query(text), db1, items3, trans3)
    assert not q.closed
    assert q.require == bits_of([G])
    assert q.items == AxisConstraint.fixed(bits_of([G]))
    assert q.trans == AxisConstraint.one_per_level()


# ----------------------------------------------------------------- running


def test_q1_theory(db1):
    theory = run_theory(db1, Query(theta=HALF))
    assert {"".join(p.labels) for p in theory} == {"A", "B", "EF", "GK"}
    assert all(p.trans_mask == (1, 2, 3, 4, 5, 6) for p in theory)


def test_q1_prime_only_ef(db1, items3):
    theory = run_theory(db1, Query(theta=HALF, span=(2, 2)), items3)
    assert [(p.item_desc, "".join(p.labels)) for p in theory] == [("ALL", "EF")]


def test_q2_pairs(db1, items3, trans3):
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(2, 2))
    theory = run_theory(db1, q, items3, trans3)
    got = {(p.item_desc, "".join(p.labels)) for p in theory}
    assert got == {
        ("I1+I2", "A"), ("I1+I2", "B"), ("I1+I2", "E"),
        ("I1+I3", "A"), ("I1+I3", "B"), ("I1+I3", "F"), ("I1+I3", "GK"),
        ("I2+I3", "EF"), ("I2+I3", "GK"),
    }


def test_q3_pairs(db1, items3, trans3):
    q = Query(theta=HALF, trans=AxisConstraint.group_bounds(2, 2))
    theory = run_theory(db1, q, items3, trans3)
    got = {(p.trans_desc, "".join(p.labels)) for p in theory}
    assert got == {
        ("T1+T2", "A"), ("T1+T2", "AD"), ("T1+T2", "CH"), ("T1+T2", "GK"),
        ("T1+T3", "B"), ("T1+T3", "BEF"), ("T1+T3", "BGK"), ("T1+T3", "GK"),
        ("T2+T3", "A"), ("T2+T3", "BEF"), ("T2+T3", "EF"),
    }


def test_engine_independence_on_families(db1, items3, trans3):
    queries = [
        Query(theta=HALF),
        Query(theta=HALF, span=(2, 2)),
        Query(theta=HALF, items=AxisConstraint.group_bounds(2, 2)),
        Query(theta=HALF, trans=AxisConstraint.group_bounds(2, 2)),
        Query(
            theta=HALF,
            items=AxisConstraint.group_bounds(2, 2),
            trans=AxisConstraint.group_bounds(2, 2),
        ),
    ]
    for q in queries:
        results = [
            run_theory(db1, q, items3, trans3, engine=e)
            for e in ("cp", "baseline", "oracle")
        ]
        assert results[0] == results[1] == results[2]


def test_q4_decomposes_into_per_mask_q1(db1, items3, trans3):
    from submine.reference import enumerate_masks

    q4 = Query(
        theta=HALF,
        items=AxisConstraint.group_bounds(2, 2),
        trans=AxisConstraint.group_bounds(2, 2),
    )
    whole = theory_labels(run_theory(db1, q4, items3, trans3))
    parts = set()
    for ib, tb in enumerate_masks(db1, q4, items3, trans3):
        fixed = Query(
            theta=HALF,
            items=AxisConstraint.fixed(ib),
            trans=AxisConstraint.fixed(tb),
        )
        parts |= theory_labels(run_theory(db1, fixed, items3, trans3))
    assert whole == parts


def test_theory_is_sorted_canonically(db1, items3, trans3):
    q = Query(
        theta=HALF,
        items=AxisConstraint.group_bounds(2, 2),
        trans=AxisConstraint.group_bounds(2, 2),
    )
    theory = run_theory(db1, q, items3, trans3)
    assert theory == sorted(theory, key=SolutionPair.sort_key)


def test_same_itemset_under_two_masks_is_two_pairs(db1, items3, trans3):
    q = Query(theta=HALF, items=AxisConstraint.group_bounds(2, 2))
    theory = run_theory(db1, q, items3, trans3)
    gk = [p for p in theory if "".join(p.labels) == "GK"]
    assert len(gk) == 2 and gk[0].item_mask != gk[1].item_mask


@pytest.mark.parametrize("seed", ["table1-q4", *range(10)])
def test_parallel_mode_matches_serial(db1, items3, trans3, seed):
    if seed == "table1-q4":
        db, ischeme, tscheme = db1, items3, trans3
        q = Query(
            theta=HALF,
            items=AxisConstraint.group_bounds(2, 2),
            trans=AxisConstraint.group_bounds(2, 2),
        )
    else:
        db, ischeme, tscheme, q = generate_random_instance(random.Random(seed))
    serial = run_theory(db, q, ischeme, tscheme)
    for engine in ("cp", "baseline"):
        parallel = run_theory(db, q, ischeme, tscheme, engine=engine, workers=2)
        assert parallel == serial


def test_parallel_mode_over_hierarchy():
    from helpers import car_purchases

    db, scheme = car_purchases()
    q = Query(
        theta=Fraction(1, 10),
        closed=False,
        require=bits_of([1]),
        items=AxisConstraint.fixed(bits_of([1])),
        trans=AxisConstraint.one_per_level(),
    )
    serial = run_theory(db, q, None, scheme)
    assert run_theory(db, q, None, scheme, workers=3) == serial


def test_parallel_pool_size_is_bounded(monkeypatch, db1, items3, trans3):
    # a fake pool records its size and runs the tasks in this process
    import multiprocessing
    import os

    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext())
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    q4 = Query(  # 9 masks
        theta=HALF,
        items=AxisConstraint.group_bounds(2, 2),
        trans=AxisConstraint.group_bounds(2, 2),
    )
    q1 = Query(theta=HALF)  # 1 mask
    assert run_theory(db1, q4, items3, trans3, workers=5000) == run_theory(
        db1, q4, items3, trans3
    )
    assert run_theory(db1, q4, items3, trans3, workers=3) == run_theory(
        db1, q4, items3, trans3
    )
    assert run_theory(db1, q1, workers=5000) == run_theory(db1, q1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown core count
    assert run_theory(db1, q4, items3, trans3, workers=5000) == run_theory(
        db1, q4, items3, trans3
    )
    assert sizes == [4, 3, 1, 1]


# ------------------------------------------------------------- self-check


# each case corrupts the Q1 answer EF (all items, all transactions) and
# names the check that must catch it
@pytest.mark.parametrize(
    "corrupt,reason",
    [
        (lambda q, ib, tb, xb: (q, ib, tb, bits_of([E])), "not closed"),
        (lambda q, ib, tb, xb: (q, ib, tb, xb | bits_of([G])), "below minimum frequency"),
        (lambda q, ib, tb, xb: (q, ib & ~bits_of([F]), tb, xb), "itemset outside active items"),
        (
            lambda q, ib, tb, xb: (replace(q, trans=AxisConstraint.group_bounds(2, 2)), ib, tb, xb),
            "transaction activation violates",
        ),
        (lambda q, ib, tb, xb: (q, ib, tb, 0), "empty itemset"),
        (lambda q, ib, tb, xb: (replace(q, min_size=3), ib, tb, xb), "below minimum size"),
        (
            lambda q, ib, tb, xb: (replace(q, require=bits_of([A])), ib, tb, xb),
            "missing required item",
        ),
        (
            lambda q, ib, tb, xb: (replace(q, forbid=bits_of([F])), ib, tb, xb),
            "contains forbidden item",
        ),
        # E lies in I2 and F in I3 of the item scheme: a span of 2
        (
            lambda q, ib, tb, xb: (replace(q, span=(1, 1)), ib, tb, xb),
            "category span out of bounds",
        ),
    ],
    ids=[
        "not-closed", "infrequent", "inactive-item", "trans-bounds", "empty",
        "min-size", "require", "forbid", "span",
    ],
)
def test_validate_pair_catches_corruption(db1, items3, trans3, corrupt, reason):
    q1 = Query(theta=HALF)
    (good,) = [p for p in run_theory(db1, q1) if p.labels == ("E", "F")]
    (triple,) = triples_of([good])
    assert validate_pair(db1, q1, *triple, items3, trans3) == good.support
    query, *bad = corrupt(q1, *triple)
    with pytest.raises(RuntimeError, match=f"self-check \\({reason}"):
        validate_pair(db1, query, *bad, items3, trans3)


def test_validate_pair_names_empty_transaction_mask(db1):
    # the itemset checks run first and must not ask for the closure of an
    # empty cover; the mask check then names the fault
    q1 = Query(theta=HALF)
    with pytest.raises(RuntimeError, match="self-check \\(no active transactions"):
        validate_pair(db1, q1, db1.all_items(), 0, bits_of([E, F]))


def _self_check_reason(db, query, triple, item_scheme, trans_scheme):
    with pytest.raises(RuntimeError, match="self-check") as err:
        validate_pair(db, query, *triple, item_scheme, trans_scheme)
    return str(err.value).split("(")[1].split(")")[0]


# a corrupted triple that shares its mask, or its (V, X), with correct
# ones: run_theory checks each once, yet must still reject the triple with
# the reason validate_pair gives it
@pytest.mark.parametrize(
    "case", ["not-closed", "trans-bounds", "shared-vx-not-closed", "shared-vx-outside"]
)
def test_run_theory_catches_corruption_in_shared_mask(
    db1, items3, trans3, monkeypatch, case
):
    if case.startswith("shared-vx"):
        # X answers Q2 under item mask I1+I2 and is planted under I2+I3, with
        # the same V: E is not closed there (F joins it), A lies outside it
        q2 = Query(theta=HALF, items=AxisConstraint.group_bounds(2, 2))
        answer = triples_of(run_theory(db1, q2, items3))
        i1, i2, i3 = (g.members for g in items3.groups)
        x, reason = {
            "shared-vx-not-closed": (bits_of([E]), "not closed in the sub-dataset"),
            "shared-vx-outside": (bits_of([A]), "itemset outside active items"),
        }[case]
        good, bad = (i1 | i2, db1.all_transactions(), x), (i2 | i3, db1.all_transactions(), x)
        assert good in answer and bad not in answer
        with pytest.raises(RuntimeError, match=f"self-check \\({reason}\\)") as expected:
            validate_pair(db1, q2, *bad, items3)
        # the triple blamed must not depend on the order of the engine's answer
        for planted in ([bad, *answer], [*answer, bad]):
            monkeypatch.setattr(queries, "_engine_triples", lambda *args, **kw: planted)
            with pytest.raises(RuntimeError) as err:
                run_theory(db1, q2, items3)
            assert str(err.value) == str(expected.value)
        monkeypatch.setattr(queries, "_engine_triples", lambda *args, **kw: answer)
        assert triples_of(run_theory(db1, q2, items3)) == answer
        return
    q1 = Query(theta=HALF)
    answer = triples_of(run_theory(db1, q1))
    ((ib, tb),) = {(ib, tb) for ib, tb, _ in answer}
    if case == "not-closed":
        query, reason = q1, "not closed"
        bad = {(ib, tb, bits_of([E]))}
        triples = answer | bad
    else:
        # Q1's mask has all three transaction groups, Q3 allows two: each
        # of its itemsets is a Q1 answer, yet each triple is corrupt
        query = replace(q1, trans=AxisConstraint.group_bounds(2, 2))
        reason = "transaction activation violates"
        bad = answer
        triples = triples_of(run_theory(db1, query, None, trans3)) | answer
    assert len({xb for i, t, xb in triples if (i, t) == (ib, tb)}) >= 4
    for triple in triples - bad:
        validate_pair(db1, query, *triple, None, trans3)
    for triple in bad:
        assert _self_check_reason(db1, query, triple, None, trans3).startswith(reason)
    monkeypatch.setattr(queries, "_engine_triples", lambda *args, **kw: set(triples))
    with pytest.raises(RuntimeError, match=f"self-check \\({reason}"):
        run_theory(db1, query, None, trans3)


# run_theory reads each axis's constraint once per distinct mask: an item
# mask that breaks the item bounds under two transaction masks must still
# fail with the reason validate_pair gives each of its triples
def test_run_theory_catches_item_mask_shared_by_transaction_masks(
    db1, items3, trans3, monkeypatch
):
    one_group = AxisConstraint.group_bounds(1, 1)
    query = Query(theta=HALF, items=one_group, trans=one_group)
    loose = replace(query, items=AxisConstraint.all_active())
    bad = triples_of(run_theory(db1, loose, items3, trans3))
    assert {ib for ib, _, _ in bad} == {db1.all_items()}
    assert len({tb for _, tb, _ in bad}) >= 2
    good = triples_of(run_theory(db1, query, items3, trans3))
    assert good
    reason = "item activation violates"
    for triple in bad:
        assert _self_check_reason(db1, query, triple, items3, trans3).startswith(reason)
    monkeypatch.setattr(queries, "_engine_triples", lambda *args, **kw: good | bad)
    with pytest.raises(RuntimeError, match=f"self-check \\({reason}"):
        run_theory(db1, query, items3, trans3)


def test_run_theory_check_reads_the_deadline(monkeypatch):
    # every nonempty itemset of a full 10-item table is frequent: 1023
    # answers, several strides of the self-check
    db = TransactionDatabase.from_rows([range(1, 11)] * 4)
    q = Query(theta=HALF, closed=False)
    triples = triples_of(run_theory(db, q))
    assert len(triples) > 2 * queries._CHECK_STRIDE
    monkeypatch.setattr(queries, "_engine_triples", lambda *args, **kw: set(triples))
    with pytest.raises(SearchTimeout):
        run_theory(db, q, deadline=time.monotonic() - 1)
    # a clock that passes the deadline on its second read: the check must
    # read it again after one stride of answers, not only at the start
    reads = []

    def clock():
        reads.append(None)
        return len(reads)

    # every deadline check is engine.check_deadline
    monkeypatch.setattr("submine.engine.time", SimpleNamespace(monotonic=clock))
    with pytest.raises(SearchTimeout):
        run_theory(db, q, deadline=1.5)
    assert len(reads) == 2


# run_theory checks each (V, X) once for all the item masks that hold it;
# one mutated triple planted among an engine's answers must get exactly
# the verdict validate_pair gives it
def test_run_theory_and_validate_pair_agree_on_planted_triples(monkeypatch):
    engine_triples = queries._engine_triples
    rng = random.Random(26)
    shared = planted = 0
    for seed in range(400):
        db, ischeme, tscheme, q = generate_random_instance(random.Random(seed))
        if q.items.kind != "groups":
            continue
        answer = engine_triples(db, q, ischeme, tscheme, "baseline", None)
        if not answer:
            continue
        holders = Counter((tb, xb) for _, tb, xb in answer)
        shared += max(holders.values()) >= 2
        ib, tb, xb = rng.choice(sorted(answer))
        how = rng.choice(("drop-from-h", "add-to-x", "drop-from-x"))
        if how == "drop-from-h":
            ib &= ~(1 << rng.choice(indices_of(ib)))
        elif how == "add-to-x":
            xb |= 1 << rng.choice(indices_of(db.all_items() & ~xb) or indices_of(xb))
        else:
            xb &= ~(1 << rng.choice(indices_of(xb)))
        triple = (ib, tb, xb)
        try:
            validate_pair(db, q, *triple, ischeme, tscheme)
            reason = None
        except RuntimeError as exc:
            reason = str(exc)
        monkeypatch.setattr(queries, "_engine_triples", lambda *args, **kw: answer | {triple})
        if reason is None:
            assert triple in triples_of(run_theory(db, q, ischeme, tscheme))
        else:
            with pytest.raises(RuntimeError) as err:
                run_theory(db, q, ischeme, tscheme)
            assert str(err.value) == reason
        planted += 1
    assert planted >= 50
    assert shared >= 10


@pytest.mark.parametrize("engine", ["cp", "baseline"])
@pytest.mark.parametrize("seed", ["one-of-levels", *range(10)])
def test_run_theory_matches_per_triple_path(engine, seed):
    if seed == "one-of-levels":
        (db, tscheme), ischeme = car_purchases(), None
        q = Query(theta=Fraction(1, 5), closed=False, trans=AxisConstraint.one_per_level())
    else:
        db, ischeme, tscheme, q = generate_random_instance(random.Random(seed))
    triples = queries._engine_triples(db, q, ischeme, tscheme, engine, None)
    expected = sorted(
        (
            make_pair(
                db, ib, tb, xb, validate_pair(db, q, ib, tb, xb, ischeme, tscheme),
                ischeme, tscheme,
            )
            for ib, tb, xb in triples
        ),
        key=SolutionPair.sort_key,
    )
    theory = run_theory(db, q, ischeme, tscheme, engine=engine)
    assert theory == expected
    # descriptions and labels do not take part in ==
    assert [p.tsv() for p in theory] == [p.tsv() for p in expected]
    if seed == "one-of-levels":
        per_mask = Counter((p.item_mask, p.trans_mask) for p in theory)
        assert sum(1 for n in per_mask.values() if n >= 2) >= 3


def test_describe_mask(db1, items3):
    assert describe_mask(db1.all_items(), db1.all_items(), items3) == "ALL"
    assert describe_mask(bits_of([1, 2, 3, 4, 5]), db1.all_items(), items3) == "I1+I2"
    assert describe_mask(bits_of([1, 3]), db1.all_items(), items3) == "{1,3}"
    assert describe_mask(bits_of([1, 3]), db1.all_items(), None) == "{1,3}"


def _describe_by_definition(bits, universe, scheme):
    # describe_mask's reading, one pass over every group of every level
    if bits == universe:
        return "ALL"
    for level in scheme.levels:
        chosen = [g for g in level if g.members & bits]
        if chosen and reduce(or_, (g.members for g in chosen)) == bits:
            return "+".join(g.name for g in chosen)
    return "{" + ",".join(map(str, indices_of(bits))) + "}"


@pytest.mark.parametrize("seed", range(6))
def test_describe_mask_names_the_first_level_that_fits(seed):
    # the first level whose whole groups make up the mask names it, its
    # groups in level order, on two- and three-level schemes
    from submine.cli import _random_groups

    rng = random.Random(seed)
    size = rng.randint(2, 7)
    extra = [_random_groups(rng, size, f"L{k}") for k in range(rng.randint(1, 2))]
    scheme = PartitionScheme.build("transactions", size, _random_groups(rng, size, "G"), extra)
    universe = (1 << size + 1) - 2
    for b in range(1 << size + 1):
        assert describe_mask(b, universe, scheme) == _describe_by_definition(b, universe, scheme)


def test_run_theory_decodes_thousands_of_level_groups_in_time():
    # two levels of one big group each, completed with singletons: 6002
    # groups, each answer mask a singleton.  The check reads the axis's
    # choice and each level once, so the run takes about 0.3 s on a 2-core
    # container (CPython 3.11); one pass over every group for each mask
    # took 5.5 s
    from submine.dataset import parse_partition

    rng = random.Random(0)
    db = TransactionDatabase.from_rows(
        [rng.sample(range(1, 9), 3) for _ in range(6000)], item_count=8
    )
    text = (
        f"level 1\nA: {' '.join(map(str, range(1, 3000)))}\n"
        f"level 2\nB: {' '.join(map(str, range(3000, 6000)))}\n"
    )
    scheme = parse_partition(text, db, "transactions")
    assert len({g.members for level in scheme.levels for g in level}) == 6002
    q = build_query(parse_query("theta: 1/2\ntrans_active: one-of-levels\n"), db, None, scheme)
    started = time.monotonic()
    theory = run_theory(db, q, None, scheme, engine="baseline")
    elapsed = time.monotonic() - started
    assert len(theory) == 6000
    assert {p.trans_desc for p in theory} == {f"t{j}" for j in range(1, 6001)}
    assert elapsed < 2.0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", ["items_active", "trans_active"])
def test_empty_fixed_mask_has_the_empty_theory(db1, key, engine):
    # no answer lies in a sub-dataset with no items or no transactions
    q = build_query(parse_query(f"theta: 1/2\n{key}: list\n"), db1)
    assert (q.items if key == "items_active" else q.trans) == AxisConstraint.fixed(0)
    assert run_theory(db1, q, engine=engine) == []


@pytest.mark.parametrize("seed", range(8))
def test_axis_constraint_has_one_reading(seed):
    # every kind on one- and two-level random schemes of a small axis:
    # satisfied accepts exactly the masks that masks yields, count is their
    # number, and the oracle's own enumeration yields the same masks
    from submine.cli import _random_groups
    from submine.dataset import span_bits
    from submine.reference import _oracle_axis, enumerate_masks

    rng = random.Random(seed)
    size = rng.randint(1, 6)
    db = TransactionDatabase.from_rows([range(1, size + 1)] * size)
    universe = span_bits(1, size)
    for axis, key in (("items", "items"), ("transactions", "trans")):
        first = _random_groups(rng, size, "G")
        for extra in ([], [_random_groups(rng, size, "L")]):
            scheme = PartitionScheme.build(axis, size, first, extra)
            k = scheme.group_count()
            picked = rng.sample(range(1, size + 1), rng.randint(1, size))
            cons = [
                AxisConstraint.all_active(),
                AxisConstraint.fixed(0),
                AxisConstraint.fixed(bits_of(picked)),
                *(
                    AxisConstraint.group_bounds(lb, ub)
                    for lb in range(k + 1)
                    for ub in range(lb, k + 1)
                ),
            ]
            if axis == "transactions":
                cons.append(AxisConstraint.one_per_level())
            schemes = {"items": (scheme, None), "transactions": (None, scheme)}[axis]
            for con in cons:
                masks = list(con.masks(universe, scheme))
                allowed = set(masks)
                assert allowed == set(_oracle_axis(con, universe, scheme)), con
                q = Query(theta=HALF, **{key: con})
                assert enumerate_masks(db, q, *schemes).count() == len(masks), con
                for b in range(1 << size):
                    bits = b << 1
                    assert con.satisfied(bits, universe, scheme) == (bits in allowed), (con, bits)


@pytest.mark.parametrize(
    "items,trans,span,nodes,masks",
    [
        ("all", "all", None, 8, 1),  # Q1
        ("all", "all", (2, 2), 6, 1),  # Q1'
        ((2, 2), "all", None, 20, 3),  # Q2
        ("all", (2, 2), None, 26, 3),  # Q3
        ((2, 2), (2, 2), None, 56, 9),  # Q4
    ],
)
def test_cp_search_counters_on_table1_queries(db1, items3, trans3, items, trans, span, nodes, masks):
    # pinned: a change to the model or its propagators must not enlarge
    # the search
    def axis(bounds):
        return AxisConstraint.all_active() if bounds == "all" else AxisConstraint.group_bounds(*bounds)

    q = Query(theta=HALF, span=span, items=axis(items), trans=axis(trans))
    stats = {}
    run_theory(db1, q, items3, trans3, engine="cp", stats=stats)
    assert stats == {"nodes": nodes, "masks": masks}


_OLV = AxisConstraint.one_per_level()


@pytest.mark.parametrize(
    "case,query,nodes,masks",
    [
        (
            "cars",
            Query(theta=Fraction(1, 10), closed=False, require=FERRARI_BITS, trans=_OLV),
            42,
            7,
        ),
        ("cars", Query(theta=Fraction(1, 5), trans=_OLV), 194, 14),
        ("cars", Query(theta=Fraction(1, 5), min_size=2, closed=False, trans=_OLV), 804, 14),
        (
            "table1",
            Query(
                theta=HALF,
                items=AxisConstraint.group_bounds(0, 3),
                trans=AxisConstraint.group_bounds(2, 2),
            ),
            112,
            21,
        ),
        (
            "table1",
            Query(
                theta=HALF,
                items=AxisConstraint.group_bounds(3, 3),
                trans=AxisConstraint.group_bounds(0, 1),
            ),
            14,
            3,
        ),
        (
            # the required item's group is chosen at the root, where the
            # mining propagator fixes H to 1 on the items of X
            "table1",
            Query(theta=HALF, require=bits_of([A]), items=AxisConstraint.group_bounds(1, 1)),
            0,
            1,
        ),
        # closed, at least 4 items: under a fixed V the size-aware rule
        # prunes (184 nodes without it)
        ("cars", Query(theta=Fraction(1, 10), min_size=4, trans=_OLV), 170, 14),
    ],
)
def test_cp_search_counters_on_group_choices(db1, items3, trans3, case, query, nodes, masks):
    # pinned: the dataset side of the model, one-of-levels and group bounds
    # that admit no or every group, must not enlarge the search
    if case == "cars":
        (db, tscheme), ischeme = car_purchases(), None
    else:
        db, ischeme, tscheme = db1, items3, trans3
    stats = {}
    run_theory(db, query, ischeme, tscheme, engine="cp", stats=stats)
    assert stats == {"nodes": nodes, "masks": masks}


@pytest.mark.parametrize(
    "seed,nodes,masks",
    [(3, 714, 104), (13, 2982, 429), (19, 3042, 209)],
)
def test_cp_search_counters_on_many_groups(seed, nodes, masks):
    # pinned: while V is open the search branches on V and the groups
    # only, so the support bound's per-item drops pay through the size
    # rule alone, which the benchmark's workloads do not exercise
    # (without them: 8162/4082, 32560/16278 and 131072/65518)
    db, scheme, query = many_groups(seed)
    stats = {}
    cp = run_theory(db, query, None, scheme, engine="cp", stats=stats)
    assert stats == {"nodes": nodes, "masks": masks}
    assert theory_labels(cp) == theory_labels(run_theory(db, query, None, scheme, engine="baseline"))


def test_group_lower_bound_zero_searches_like_one():
    # the empty mask holds no answer, so on either axis group bounds
    # (0, ub) admit no answer that (1, ub) do not: cp searches the same
    # nodes and masks for the same theory
    rng = random.Random(5)
    for _ in range(400):
        db, ischeme, tscheme, query = generate_random_instance(rng)
        for key, scheme in (("items", ischeme), ("trans", tscheme)):
            ub = rng.randint(1, scheme.group_count())
            runs = []
            for lb in (0, 1):
                q = replace(query, **{key: AxisConstraint.group_bounds(lb, ub)})
                stats = {}
                theory = run_theory(db, q, ischeme, tscheme, engine="cp", stats=stats)
                runs.append((stats, theory))
            assert runs[0] == runs[1], (key, q)
