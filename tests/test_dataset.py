import io
import random
import re
from fractions import Fraction

import pytest

from helpers import A, B, C, D, E, F, G, H, K, TABLE1_FIMI
from submine.dataset import (
    EmptyDatabaseError,
    FormatError,
    Group,
    PartitionScheme,
    TransactionDatabase,
    best_choice,
    bits_of,
    indices_of,
    meet_columns,
    meet_rows,
    parse_fimi,
    parse_labels,
    parse_partition,
)
from submine.queries import Query, run_theory


# ----------------------------------------------------------- FIMI parsing


def test_parse_fimi_minimal():
    db = parse_fimi("1 3\n2 3\n")
    assert db.item_count == 3
    assert db.transaction_count == 2
    assert indices_of(db.column(3)) == (1, 2)


def test_parse_fimi_table1():
    db = parse_fimi(TABLE1_FIMI)
    assert db.item_count == 9
    assert db.transaction_count == 6
    assert indices_of(db.row(1)) == (B, C, G, H, K)


def test_parse_fimi_blank_lines_and_duplicates():
    db = parse_fimi("\n1 1 2\n\n2\n\n")
    assert db.transaction_count == 2
    assert indices_of(db.row(1)) == (1, 2)


def test_parse_fimi_bad_token():
    with pytest.raises(FormatError, match="line 1"):
        parse_fimi("1 x\n")


def test_parse_fimi_nonpositive_id():
    with pytest.raises(FormatError, match="positive"):
        parse_fimi("1 0\n")


def test_parse_fimi_empty():
    with pytest.raises(EmptyDatabaseError):
        parse_fimi("\n\n")


def test_parse_labels():
    labels = parse_labels("# brands\n1 Ferrari\n2 Alfa-Romeo\n")
    assert labels == {1: "Ferrari", 2: "Alfa-Romeo"}
    assert parse_labels("1\tFerrari\n2 \t Alfa-Romeo\n") == labels
    # a query could not name a label with a space in it
    with pytest.raises(FormatError, match="line 3: label 'Alfa Romeo' contains whitespace"):
        parse_labels("# brands\n1 Ferrari\n2 Alfa Romeo\n")
    with pytest.raises(FormatError):
        parse_labels("x Ferrari\n")
    with pytest.raises(FormatError, match="^line 2: missing label for item 2$"):
        parse_labels("1 Ferrari\n2\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 A\n1 B\n", "line 2: item 1 already labelled 'A'"),
        ("1 A\n# c\n2 A\n", "line 3: label 'A' already names item 1"),
    ],
    ids=["repeated-id", "repeated-label"],
)
def test_parse_labels_rejects_repeats(text, message):
    with pytest.raises(FormatError, match=message):
        parse_labels(text)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda db: TransactionDatabase.from_rows([[0, 1]]), ValueError, "item indices must be >= 1"),
        (lambda db: TransactionDatabase.from_rows([]), EmptyDatabaseError, "database has no transactions"),
        (
            lambda db: TransactionDatabase.from_rows([[1, 5]], item_count=3),
            ValueError,
            "item index 5 exceeds item_count=3",
        ),
        (lambda db: TransactionDatabase.from_rows([[], []]), ValueError, "database needs at least one item"),
        (lambda db: db.column(10), ValueError, "item index 10 out of range 1..9"),
        (lambda db: db.row(0), ValueError, "transaction index 0 out of range 1..6"),
    ],
    ids=["id-below-1", "no-rows", "id-above-count", "no-item", "column", "row"],
)
def test_database_rejects_bad_indices(db1, call, error, message):
    with pytest.raises(error) as info:
        call(db1)
    assert type(info.value) is error
    assert str(info.value) == message


# ------------------------------------------------------ partition parsing


def test_parse_partition_table1(db1):
    text = "# product categories\nI1: 1 2\nI2: 3 4 5\nI3: 6 7 8 9\n"
    scheme = parse_partition(text, db1, "items")
    assert [g.members.bit_count() for g in scheme.groups] == [2, 3, 4]
    assert [g.name for g in scheme.groups] == ["I1", "I2", "I3"]


def test_parse_partition_completion(db1):
    # item 9 never mentioned: becomes an implicit singleton group
    scheme = parse_partition("I1: 1 2\nI2: 3 4 5\nI3: 6 7 8\n", db1, "items")
    assert len(scheme.groups) == 4
    assert scheme.groups[3].members == bits_of([9])


def test_parse_partition_renames_a_singleton_whose_name_is_taken(db1):
    # an unmentioned index is named by its label (items) or t<j>
    # (transactions); a name a group already has gets the index appended
    scheme = parse_partition("C: 1 2\n", db1, "items")
    assert [g.name for g in scheme.groups] == ["C", "C(3)", "D", "E", "F", "G", "H", "K"]
    scheme = parse_partition("t1: 2 3\n", db1, "transactions")
    assert [g.name for g in scheme.groups] == ["t1", "t1(1)", "t4", "t5", "t6"]


def test_a_singleton_name_is_a_valid_name_no_level_holds(db1):
    # a label that cannot name a group gives way to the id
    db = TransactionDatabase.from_rows([[1, 2, 3]], item_labels={1: "ALL", 2: "a+b"})
    scheme = parse_partition("g: 3\n", db, "items")
    assert [g.name for g in scheme.groups] == ["g", "1", "2"]
    # t3 names other members in level 1, so index 3 takes another name in both
    scheme = PartitionScheme.build(
        "transactions", 3, [("t3", [1, 2])], [[("a", [1]), ("b", [2])]]
    )
    assert [[g.name for g in level] for level in scheme.levels] == [
        ["t3", "t3(3)"],
        ["a", "b", "t3(3)"],
    ]
    # one name may name one group in two levels
    text = "level 1\nP: 1 2\nQ: 3\nlevel 2\nP: 1 2\nR: 4 5 6\n"
    assert parse_partition(text, db1, "transactions").levels[1][0] == Group("P", bits_of([1, 2]))


def test_database_refuses_a_label_that_spells_an_unlabelled_id():
    # item 2 prints as 2, so item 1 may not print as 2 too
    with pytest.raises(ValueError, match="^label '2' of item 1 spells the id of unlabelled item 2$"):
        TransactionDatabase.from_rows([[1, 2], [1, 2]], item_labels={1: "2"})
    db = TransactionDatabase.from_rows([[1, 2], [1, 2]])
    with pytest.raises(ValueError, match="unlabelled item 2"):
        db.with_labels({1: "2"})
    # an id that is labelled, an item's own id, or no id of the axis is free
    for labels in ({1: "2", 2: "1"}, {2: "2"}, {1: "3"}, {1: "02"}):
        assert db.with_labels(labels).item_labels == labels


# a label given in Python obeys the rules of a label file; line is where
# the label file with the same labels fails, or None if no file holds them
@pytest.mark.parametrize(
    "labels,message,line",
    [
        ({1: "x", 2: "a b"}, "label 'a b' contains whitespace", 2),
        ({1: "x\ty"}, "label 'x\\ty' contains whitespace", 1),
        ({1: "x\ny"}, "label 'x\\ny' contains whitespace", None),
        ({1: "x\ry"}, "label 'x\\ry' contains whitespace", None),
        ({1: "a", 2: "a"}, "label 'a' already names item 1", 2),
        ({1: "x", 2: ""}, "missing label for item 2", 2),
    ],
    ids=["space", "tab", "line-feed", "carriage-return", "one-label-two-ids", "empty"],
)
def test_database_refuses_what_a_label_file_refuses(labels, message, line):
    rows = [[1, 2], [1], [2], [1, 2]]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransactionDatabase.from_rows(rows, item_labels=labels)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransactionDatabase.from_rows(rows).with_labels(labels)
    if line is not None:
        text = "".join(f"{i} {label}\n" for i, label in labels.items())
        with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}$"):
            parse_labels(text)


def test_two_ids_with_one_label_cannot_print_two_pairs_alike():
    # items 1 and 2 are both closed answers; labelled alike, they would
    # print the same line twice
    rows = [[1, 2], [1], [2], [1, 2]]
    query = Query(theta=Fraction(3, 4))
    db = TransactionDatabase.from_rows(rows)
    assert [p.tsv() for p in run_theory(db, query)] == ["ALL\tALL\t1\t3\t3/4", "ALL\tALL\t2\t3\t3/4"]
    with pytest.raises(ValueError, match="^label 'a' already names item 1$"):
        TransactionDatabase.from_rows(rows, item_labels={1: "a", 2: "a"})
    with pytest.raises(ValueError, match="^label 'a' already names item 1$"):
        db.with_labels({1: "a", 2: "a"})
    labelled = db.with_labels({1: "a", 2: "b"})
    assert [p.tsv() for p in run_theory(labelled, query)] == ["ALL\tALL\ta\t3\t3/4", "ALL\tALL\tb\t3\t3/4"]


def test_parse_partition_reads_a_file_object(db1):
    text = "I1: 1 2\nI2: 3 4 5\nI3: 6 7 8 9\n"
    assert parse_partition(io.StringIO(text), db1, "items") == parse_partition(text, db1, "items")


def test_parse_partition_rejects_unknown_axis(db1):
    with pytest.raises(ValueError, match="^unknown axis 'rows'$"):
        parse_partition("G1: 1\n", db1, "rows")


def test_parse_partition_overlap(db1):
    with pytest.raises(FormatError, match="overlap|already"):
        parse_partition("G1: 1\nG2: 1\n", db1, "items")
    with pytest.raises(FormatError, match=r"^line 5: index 2 .*overlap"):
        parse_partition("level 1\nG1: 1 2\nlevel 2\nH1: 1 2\nH2: 2 3\n", db1, "items")


def test_parse_partition_out_of_range(db1):
    with pytest.raises(FormatError, match="out of range"):
        parse_partition("G1: 1 99\n", db1, "items")


def test_parse_partition_levels(db1):
    text = "level 1\nL: 1 2 3\nR: 4 5 6\nlevel 2\na: 1 2\nb: 3 4\nc: 5 6\n"
    scheme = parse_partition(text, db1, "transactions")
    assert len(scheme.levels) == 2
    assert [g.name for g in scheme.levels[0]] == ["L", "R"]
    assert [g.name for g in scheme.levels[1]] == ["a", "b", "c"]


def test_parse_partition_empty_group(db1):
    with pytest.raises(FormatError, match="line 2: group 'E' has no members"):
        parse_partition("A: 1\nE:\nB: 2 3\n", db1, "items")


@pytest.mark.parametrize(
    "text,message",
    [
        ("level one\nG1: 1\n", "line 1: expected 'level <k>'"),
        ("level 2\nG1: 1\nlevel 1\nH1: 2\n", "line 3: level numbers must increase"),
        ("G1: 1\nG2 2 3\n", "line 2: expected 'name: id id ...'"),
        ("# c\n: 1 2\n", "line 2: empty group name"),
        ("G1: 1\nG1: 2\n", "line 2: duplicate group name 'G1'"),
        ("G1: 1 x\n", "line 1: not an index: 'x'"),
        ("G1: 1\nG2: 2 3 2\n", "line 2: index 2 repeated in 'G2'"),
        # a name fills a column of the tab-separated output
        ("c d: 2 3\na\tb: 1\n", "line 2: group name 'a\\tb' holds a tab or line break"),
        ("ALL: 1 2\nB: 3\n", "line 1: group name 'ALL' is reserved for the whole axis"),
        ("a: 1\na+b: 2 3\n", "line 2: group name 'a+b' holds a '+', which joins the names of a union"),
        (
            "level 1\nP: 1 2\nlevel 2\nP: 1 3\n",
            "line 4: group name 'P' names other members in an earlier level",
        ),
    ],
    ids=["level-header", "level-order", "no-colon", "no-name", "duplicate-name",
         "not-an-index", "repeated-index", "tab-in-name", "name-ALL", "plus-in-name",
         "name-in-two-levels"],
)
def test_parse_partition_rejects_malformed_lines(db1, text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_partition(text, db1, "items")


def test_scheme_rejects_empty_group():
    with pytest.raises(ValueError, match="group 'E' has no members"):
        PartitionScheme("items", 2, ((Group("E", 0), Group("A", bits_of([1, 2]))),))


@pytest.mark.parametrize(
    "axis,levels,message",
    [
        ("rows", [[("A", [1, 2])]], "unknown axis 'rows'"),
        ("items", [[("A", [1, 2, 3])]], "group 'A': index 3 out of range 1..2"),
        ("items", [[("A", [1, 2])], [("B", [1])]], "level does not cover index 2"),
        ("items", [[("a\tb", [1, 2])]], "group name 'a\\tb' holds a tab or line break"),
        ("items", [[("a\nb", [1, 2])]], "group name 'a\\nb' holds a tab or line break"),
        ("items", [[("ALL", [1, 2])]], "group name 'ALL' is reserved for the whole axis"),
        ("items", [[("a+b", [1, 2])]], "group name 'a+b' holds a '+', which joins the names of a union"),
        ("items", [[("P", [1]), ("P", [2])]], "duplicate group name 'P'"),
        (
            "items",
            [[("P", [1]), ("Q", [2])], [("Q", [1]), ("P", [2])]],
            "group name 'Q' names other members in an earlier level",
        ),
    ],
    ids=["unknown-axis", "index-out-of-range", "level-misses-index", "tab-in-name",
         "line-break-in-name", "name-ALL", "plus-in-name", "duplicate-name",
         "name-in-two-levels"],
)
def test_scheme_rejects_bad_levels(axis, levels, message):
    built = tuple(tuple(Group(name, bits_of(ids)) for name, ids in level) for level in levels)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PartitionScheme(axis, 2, built)


# one table of faulty groups run down both paths, so the two texts cannot
# drift apart: the parser's message is the line of the faulty group, which
# each case puts last, and then the scheme's message
@pytest.mark.parametrize(
    "levels,message",
    [
        ([[("c d", [2, 3]), ("a\tb", [1])]], "group name 'a\\tb' holds a tab or line break"),
        ([[("ALL", [1, 2])]], "group name 'ALL' is reserved for the whole axis"),
        ([[("a", [1]), ("a+b", [2, 3])]], "group name 'a+b' holds a '+', which joins the names of a union"),
        ([[("a+b", [])]], "group name 'a+b' holds a '+', which joins the names of a union"),
        ([[("A", [1]), ("", [2, 3])]], "empty group name"),
        ([[("A", [1]), ("E", [])]], "group 'E' has no members"),
        ([[("A", [1]), ("B", [2, 7])]], "group 'B': index 7 out of range 1..6"),
        ([[("A", [1]), ("B", [0, 2])]], "group 'B': index 0 out of range 1..6"),
        ([[("G1", [1, 2]), ("G2", [2, 3])]], "index 2 appears in two groups of one level (overlap)"),
        (
            [[("G1", [1, 2])], [("H1", [1, 2]), ("H2", [2, 3])]],
            "index 2 appears in two groups of one level (overlap)",
        ),
        ([[("G1", [1]), ("G1", [2])]], "duplicate group name 'G1'"),
        ([[("P", [1, 2])], [("P", [1, 3])]], "group name 'P' names other members in an earlier level"),
    ],
    ids=["tab-in-name", "name-ALL", "plus-in-name", "bad-name-first", "empty-name",
         "empty-group", "index-above-range", "index-0", "overlap", "overlap-in-level-2",
         "duplicate-name", "name-in-two-levels"],
)
def test_parser_and_scheme_refuse_a_group_with_one_text(db1, levels, message):
    with pytest.raises(ValueError) as built:
        PartitionScheme.build("transactions", 6, levels[0], levels[1:])
    assert type(built.value) is ValueError
    assert str(built.value) == message
    lines = []
    for k, level in enumerate(levels, start=1):
        lines += [f"level {k}"] if len(levels) > 1 else []
        lines += [f"{name}: {' '.join(map(str, ids))}" for name, ids in level]
    with pytest.raises(FormatError) as parsed:
        parse_partition("# groups\n" + "\n".join(lines) + "\n", db1, "transactions")
    assert str(parsed.value) == f"line {len(lines) + 1}: {message}"


def test_scheme_build_rejects_overlap():
    with pytest.raises(ValueError):
        PartitionScheme.build("items", 3, [("g1", [1, 2]), ("g2", [2, 3])])


def test_group_names_may_hold_spaces(db1):
    scheme = parse_partition("a b: 1\nc d: 2 3\n", db1, "items")
    assert [g.name for g in scheme.groups[:2]] == ["a b", "c d"]


# ------------------------------------------------------- covers and closures


def _cover(db, itemset, mask):
    return meet_columns(db, mask[1], itemset)


def _closure(db, itemset, mask):
    return meet_rows(db, _cover(db, itemset, mask), mask[0], itemset)


def test_cover_examples(db1):
    full = (db1.all_items(), db1.all_transactions())
    assert indices_of(_cover(db1, bits_of([G, K]), full)) == (1, 2, 6)
    assert _cover(db1, 0, full) == db1.all_transactions()
    sub = (db1.all_items(), bits_of([1, 2, 3, 4]))
    assert indices_of(_cover(db1, bits_of([A, D]), sub)) == (2, 3)


def _frequency(db, itemset, mask):
    return Fraction(_cover(db, itemset, mask).bit_count(), mask[1].bit_count())


def test_frequency_examples(db1):
    full = (db1.all_items(), db1.all_transactions())
    assert _frequency(db1, bits_of([A]), full) == Fraction(3, 6)
    assert _frequency(db1, 0, full) == 1
    assert _frequency(db1, 0, (db1.all_items(), bits_of([2, 5]))) == 1
    # derived by intersecting rows of the table: B and G share t1, t6
    assert _frequency(db1, bits_of([B, G]), full) == Fraction(2, 6)


def _check_meet_columns(db, within, itemset, held, rng):
    assert meet_columns(db, within, itemset) == held
    assert meet_columns(db, within, 0) == within
    assert meet_columns(db, 0, itemset) == 0


def _check_meet_rows(db, within, itemset, held, rng):
    # items ANDed with every row of the cover, whenever each of its rows
    # holds the floor: the itemset over its cover, the empty set over any
    # rows, and anything over no rows
    items = itemset | bits_of(i for i in range(1, db.item_count + 1) if rng.random() < 0.7)
    for cov, floor in ((held, itemset), (within, 0), (0, itemset)):
        meet = items
        for j in indices_of(cov):
            meet &= db.rows[j]
        assert meet_rows(db, cov, items, floor) == meet


@pytest.mark.parametrize(
    "check", [_check_meet_columns, _check_meet_rows], ids=["meet_columns", "meet_rows"]
)
def test_cover_is_the_rows_that_hold_the_itemset(check):
    # read row by row: a row is in the cover iff it holds every item of
    # the itemset.  Item ids are sparse, so most columns are empty
    rng = random.Random(30)
    for _ in range(300):
        ids = sorted(rng.sample(range(1, 200), rng.randint(1, 8)))
        m = rng.randint(1, 8)
        rows = [[i for i in ids if rng.random() < 0.6] for _ in range(m)]
        db = TransactionDatabase.from_rows(rows, item_count=ids[-1] + rng.randint(0, 3))
        within = bits_of(j for j in range(1, m + 1) if rng.random() < 0.8)
        itemset = bits_of(i for i in [*ids, db.item_count] if rng.random() < 0.3)
        held = bits_of(j for j in indices_of(within) if db.rows[j] & itemset == itemset)
        check(db, within, itemset, held, rng)


def test_closure_examples(db1):
    full = (db1.all_items(), db1.all_transactions())
    # G appears in t1, t2, t6 which also all contain K
    assert _closure(db1, bits_of([G]), full) == bits_of([G, K])
    # EF is already closed on the full dataset
    assert _closure(db1, bits_of([E, F]), full) == bits_of([E, F])
    # with K deactivated, BG is closed in the sub-dataset
    no_k = (bits_of(range(1, 9)), db1.all_transactions())
    assert _closure(db1, bits_of([B, G]), no_k) == bits_of([B, G])


# ------------------------------------------------------------- properties


def _random_db(rng):
    n = rng.randint(2, 8)
    m = rng.randint(1, 8)
    rows = [[i for i in range(1, n + 1) if rng.random() < 0.5] for _ in range(m)]
    return TransactionDatabase.from_rows(rows, item_count=n)


def _random_mask(rng, db):
    items = bits_of([i for i in range(1, db.item_count + 1) if rng.random() < 0.8])
    trans = bits_of(
        [j for j in range(1, db.transaction_count + 1) if rng.random() < 0.8]
    )
    return (items, trans)


def test_transpose_consistency():
    rng = random.Random(7)
    for _ in range(50):
        db = _random_db(rng)
        for i in range(1, db.item_count + 1):
            for j in range(1, db.transaction_count + 1):
                assert bool(db.column(i) >> j & 1) == bool(db.row(j) >> i & 1)


def test_cover_antitone():
    rng = random.Random(8)
    for _ in range(100):
        db = _random_db(rng)
        mask = _random_mask(rng, db)
        small = bits_of([i for i in range(1, db.item_count + 1) if rng.random() < 0.3])
        big = small | bits_of(
            [i for i in range(1, db.item_count + 1) if rng.random() < 0.3]
        )
        small &= mask[0]
        big = (big & mask[0]) | small
        assert _cover(db, big, mask) & ~_cover(db, small, mask) == 0


def test_closure_extensive_idempotent_monotone():
    rng = random.Random(9)
    checked = 0
    while checked < 100:
        db = _random_db(rng)
        mask = _random_mask(rng, db)
        pat = mask[0] & bits_of(
            [i for i in range(1, db.item_count + 1) if rng.random() < 0.3]
        )
        if not _cover(db, pat, mask):
            continue
        checked += 1
        cl = _closure(db, pat, mask)
        assert cl & ~mask[0] == 0
        assert pat & ~cl == 0  # extensive
        assert _closure(db, cl, mask) == cl  # idempotent
        # shrinking the active items shrinks the closure pointwise
        smaller = (
            mask[0] & ~(1 << rng.randint(1, db.item_count)),
            mask[1],
        )
        if pat & ~smaller[0] == 0:
            assert _closure(db, pat, smaller) == cl & smaller[0]


def test_mask_monotonicity_cover():
    rng = random.Random(10)
    for _ in range(100):
        db = _random_db(rng)
        mask = _random_mask(rng, db)
        pat = mask[0] & bits_of(
            [i for i in range(1, db.item_count + 1) if rng.random() < 0.3]
        )
        drop = 1 << rng.randint(1, db.transaction_count)
        shrunk = (mask[0], mask[1] & ~drop)
        assert _cover(db, pat, shrunk) & ~_cover(db, pat, mask) == 0


# ------------------------------------------------------------ group choices


def test_best_choice_is_the_best_allowed_subset():
    # every group is chosen, ruled out or free; the bound must equal the
    # best score sum over the lb..ub subsets that keep the chosen groups
    # and none of the ruled-out ones, whenever there is such a subset
    rng = random.Random(20)
    checked = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        scores = [rng.randint(-6, 6) for _ in range(n)]
        state = [rng.choice("cfff-") for _ in range(n)]  # chosen, free, ruled out
        lb = rng.randint(0, n)
        ub = rng.randint(lb, n)
        chosen = [k for k in range(n) if state[k] == "c"]
        free = [k for k in range(n) if state[k] == "f"]
        best = None
        for sel in range(1 << len(free)):
            picked = chosen + [k for j, k in enumerate(free) if sel >> j & 1]
            if lb <= len(picked) <= ub:
                total = sum(scores[k] for k in picked)
                best = total if best is None else max(best, total)
        if best is None:
            continue  # no allowed choice: the bound promises nothing
        ranked = sorted((scores[k] for k in free), reverse=True)
        total = sum(scores[k] for k in chosen)
        assert best_choice(total, len(chosen), ranked, lb, ub) == best
        checked += 1
    assert checked > 1500
