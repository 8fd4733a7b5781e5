import csv
import time

import pytest

from helpers import TABLE1_FIMI
from submine import cli
from submine.engine import SearchTimeout

ITEM_CATS = "I1: 1 2\nI2: 3 4 5\nI3: 6 7 8 9\n"
TRANS_CATS = "T1: 1 2\nT2: 3 4\nT3: 5 6\n"
LABELS = "\n".join(f"{i} {lab}" for i, lab in enumerate("ABCDEFGHK", start=1)) + "\n"
Q1_QUERY = "theta: 50%\nclosed: true\n"

GOLDEN_Q1 = (
    "ALL\tALL\tA\t3\t3/6\n"
    "ALL\tALL\tB\t3\t3/6\n"
    "ALL\tALL\tE F\t3\t3/6\n"
    "ALL\tALL\tG K\t3\t3/6\n"
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("data.fimi", TABLE1_FIMI),
        ("items.cats", ITEM_CATS),
        ("trans.cats", TRANS_CATS),
        ("labels.txt", LABELS),
        ("q1.query", Q1_QUERY),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def _mine_args(files, query, engine=None, extra=()):
    args = [
        "mine",
        "--data", files["data.fimi"],
        "--query", query,
        "--item-cats", files["items.cats"],
        "--trans-cats", files["trans.cats"],
        "--labels", files["labels.txt"],
    ]
    if engine:
        args += ["--engine", engine]
    return args + list(extra)


def test_mine_q1_golden_file(files):
    out = files["dir"] / "out.tsv"
    rc = cli.main(_mine_args(files, files["q1.query"], "cp", ["--out", str(out)]))
    assert rc == 0
    text = out.read_text()
    assert text == GOLDEN_Q1
    assert "ALL\tALL\tG K\t3\t3/6\n" in text


def test_mine_engines_byte_identical(files):
    outputs = []
    for engine in ("cp", "baseline", "oracle"):
        out = files["dir"] / f"out-{engine}.tsv"
        rc = cli.main(_mine_args(files, files["q1.query"], engine, ["--out", str(out)]))
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_mine_to_stdout(files, capsys):
    rc = cli.main(_mine_args(files, files["q1.query"]))
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN_Q1


def test_mine_parallel_same_output(files):
    q4 = files["dir"] / "q4.query"
    q4.write_text("theta: 50%\nitems_active: 2 2\ntrans_active: 2 2\n")
    serial = files["dir"] / "serial.tsv"
    par = files["dir"] / "par.tsv"
    assert cli.main(_mine_args(files, str(q4), "cp", ["--out", str(serial)])) == 0
    assert (
        cli.main(_mine_args(files, str(q4), "cp", ["--out", str(par), "--parallel", "2"]))
        == 0
    )
    assert serial.read_bytes() == par.read_bytes()


def test_mine_uses_query_file_engine(files, capsys, monkeypatch):
    # the query file may pick the engine; the --engine flag overrides it
    seen = []

    def spy(db, query, item_scheme, trans_scheme):
        seen.append("override")
        from submine.queries import run_theory

        return run_theory(db, query, item_scheme, trans_scheme, engine="oracle")

    monkeypatch.setitem(cli._ENGINE_OVERRIDES, "baseline", spy)
    q = files["dir"] / "qbl.query"
    q.write_text("theta: 50%\nengine: baseline\n")
    assert cli.main(_mine_args(files, str(q))) == 0
    assert seen == ["override"]
    assert capsys.readouterr().out == GOLDEN_Q1


def test_mine_missing_file(files):
    rc = cli.main(_mine_args(files, str(files["dir"] / "nope.query")))
    assert rc == 1


def test_mine_unwritable_out(files, capsys):
    out = files["dir"] / "missing" / "out.tsv"
    rc = cli.main(_mine_args(files, files["q1.query"], extra=["--out", str(out)]))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_mine_malformed_query(files):
    bad = files["dir"] / "bad.query"
    bad.write_text("theta: 1/2\nwat: 7\n")
    assert cli.main(_mine_args(files, str(bad))) == 1


def test_mine_rejects_label_with_whitespace(files, capsys):
    labels = files["dir"] / "spaced.txt"
    labels.write_text("1 Ferrari car\n")
    args = _mine_args(files, files["q1.query"])
    args[args.index("--labels") + 1] = str(labels)
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "line 1: label 'Ferrari car' contains whitespace" in err


@pytest.mark.parametrize("engine", ["cp", "baseline", "oracle"])
def test_mine_rejects_empty_group(files, capsys, engine):
    cats = files["dir"] / "empty.cats"
    cats.write_text("E:\nA: 1\nB: 2 3\n")
    q = files["dir"] / "q.query"
    q.write_text("theta: 1/2\nitems_active: 2 2\n")
    args = _mine_args(files, str(q), engine)
    args[args.index("--item-cats") + 1] = str(cats)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: line 1: group 'E' has no members\n"


@pytest.mark.parametrize("engine", ["cp", "baseline", "oracle"])
@pytest.mark.parametrize("key", ["items_active", "trans_active"])
def test_mine_empty_fixed_mask_writes_nothing(files, capsys, key, engine):
    q = files["dir"] / "empty.query"
    q.write_text(f"theta: 1/2\n{key}: list\n")
    assert cli.main(_mine_args(files, str(q), engine)) == cli.EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_mine_rejects_malformed_partition_line(files, capsys):
    cats = files["dir"] / "bad.cats"
    cats.write_text("T1: 1 2\nT2 3 4\n")
    args = _mine_args(files, files["q1.query"])
    args[args.index("--trans-cats") + 1] = str(cats)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: line 2: expected 'name: id id ...'\n"


@pytest.mark.parametrize(
    "data,option,text,query,message",
    [
        # masks {1,2} and {1,2,3} would both print ALL
        (
            "1 2 3\n1 2\n1 2 3\n", "--item-cats", "ALL: 1 2\nrest: 3\n",
            "theta: 1/2\nitems_active: 1 2\n",
            "line 1: group name 'ALL' is reserved for the whole axis",
        ),
        # the union of a and b and the group a+b would both print a+b
        (
            "1\n1\n1\n1\n", "--trans-cats", "a: 1\nb: 2\na+b: 3 4\n",
            "theta: 1/2\ntrans_active: 1 2\n",
            "line 3: group name 'a+b' holds a '+', which joins the names of a union",
        ),
        # {1,2} and {1,3} would both print Paris
        (
            "1\n1\n1\n1\n", "--trans-cats",
            "level 1\nParis: 1 2\nLyon: 3 4\nlevel 2\nParis: 1 3\nRhone: 2 4\n",
            "theta: 1/2\ntrans_active: one-of-levels\n",
            "line 5: group name 'Paris' names other members in an earlier level",
        ),
        # the itemsets {1} and {2} would both print 2
        (
            "1 2\n1 2\n", "--labels", "1 2\n", "theta: 1/2\nclosed: false\n",
            "label '2' of item 1 spells the id of unlabelled item 2",
        ),
    ],
    ids=["group-named-ALL", "plus-in-name", "name-in-two-levels", "label-spells-an-id"],
)
def test_mine_refuses_names_that_print_two_pairs_alike(tmp_path, capsys, data, option, text, query, message):
    paths = {}
    for name, content in [("data", data), ("extra", text), ("query", query)]:
        paths[name] = tmp_path / name
        paths[name].write_text(content)
    args = ["mine", "--data", str(paths["data"]), "--query", str(paths["query"])]
    assert cli.main(args + [option, str(paths["extra"])]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _read_count(digits: str) -> int:
    # str() and int() convert at most 4300 digits
    n = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k : k + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_mine_oracle_refuses_a_mask_count_wider_than_str_converts(tmp_path, capsys):
    # 15000 singleton transaction groups, any 1..15000 of them: the
    # oracle refuses 2^15000 candidate masks, 4516 digits
    data = tmp_path / "tall.fimi"
    data.write_text("1 2 3\n" * 15000)
    q = tmp_path / "q.query"
    q.write_text("theta: 1/2\ntrans_active: 1 15000\n")
    cats = tmp_path / "empty.cats"
    cats.write_text("")
    args = ["mine", "--data", str(data), "--query", str(q), "--trans-cats", str(cats)]
    assert cli.main([*args, "--engine", "oracle"]) == 1
    err = capsys.readouterr().err
    head, tail = "error: oracle refuses ", " candidate masks (bound 1048576)\n"
    assert err.startswith(head) and err.endswith(tail)
    assert _read_count(err[len(head) : -len(tail)]) == 1 << 15000


def test_mine_oracle_size_guard(tmp_path, files):
    big = tmp_path / "big.fimi"
    big.write_text(" ".join(str(i) for i in range(1, 31)) + "\n")
    q = tmp_path / "q.query"
    q.write_text("theta: 1/2\n")
    rc = cli.main(
        ["mine", "--data", str(big), "--query", str(q), "--engine", "oracle"]
    )
    assert rc == 1


def test_mine_timeout_exit_code(tmp_path):
    # 18 items in 3 categories, dense rows: plenty of masks and patterns
    import random

    rng = random.Random(0)
    rows = [
        [i for i in range(1, 19) if rng.random() < 0.7] for _ in range(24)
    ]
    data = tmp_path / "slow.fimi"
    data.write_text("\n".join(" ".join(map(str, r)) for r in rows if r) + "\n")
    cats = tmp_path / "slow.cats"
    cats.write_text(
        "g1: " + " ".join(map(str, range(1, 7))) + "\n"
        "g2: " + " ".join(map(str, range(7, 13))) + "\n"
        "g3: " + " ".join(map(str, range(13, 19))) + "\n"
    )
    q = tmp_path / "slow.query"
    q.write_text("theta: 1/24\nitems_active: 1 3\n")
    rc = cli.main(
        [
            "mine",
            "--data", str(data),
            "--query", str(q),
            "--item-cats", str(cats),
            "--timeout", "0.01",
        ]
    )
    assert rc == 2


# the limit covers the whole command: a clock that passes the limit while
# the input is parsed must end the run with exit code 2 on every engine
def _slow_load(monkeypatch):
    """A clock that passes 10 s while the input is parsed."""
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    load = cli._load

    def slow_load(args):
        loaded = load(args)
        now[0] += 10.0
        return loaded

    monkeypatch.setattr(cli, "_load", slow_load)


@pytest.mark.parametrize("engine", ["cp", "baseline"])
def test_mine_limit_covers_parsing(files, monkeypatch, engine):
    _slow_load(monkeypatch)
    rc = cli.main(_mine_args(files, files["q1.query"], engine, ["--timeout", "1"]))
    assert rc == 2


# a query that fails at the root of cp's search (no row holds 9 items)
# still ends past the limit with exit code 2
@pytest.mark.parametrize("engine", ["cp", "baseline", "oracle"])
@pytest.mark.parametrize("query", [Q1_QUERY, "theta: 1/2\nminsize: 9\n"], ids=["q1", "minsize9"])
def test_mine_limit_holds_on_every_engine(files, monkeypatch, engine, query):
    path = files["dir"] / "limit.query"
    path.write_text(query)
    _slow_load(monkeypatch)
    rc = cli.main(_mine_args(files, str(path), engine, ["--timeout", "1"]))
    assert rc == 2


# a bad limit is refused before any input is read: the data file is missing
def test_mine_refuses_bad_timeout_before_reading_data(files, tmp_path, capsys):
    args = _mine_args(files, files["q1.query"], extra=["--timeout", "0"])
    args[args.index("--data") + 1] = str(tmp_path / "missing.fimi")
    rc = cli.main(args)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --timeout must be a positive number")


_BAD_TIMEOUTS = ["nan", "-1", "0"]


@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
def test_mine_rejects_bad_timeout(files, capsys, timeout):
    rc = cli.main(_mine_args(files, files["q1.query"], extra=[f"--timeout={timeout}"]))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --timeout must be a positive number")
    assert captured.out == ""


@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
def test_verify_rejects_bad_timeout(capsys, timeout):
    rc = cli.main(["verify", "--seeds", "2", f"--timeout={timeout}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --timeout must be a positive number")
    assert captured.out == ""


@pytest.mark.parametrize("timeout", _BAD_TIMEOUTS)
def test_bench_rejects_bad_timeout(files, tmp_path, capsys, timeout):
    suite = tmp_path / "suite.csv"
    suite.write_text(
        "name,data,query,item_cats,trans_cats,labels,engines\n"
        f"t1,{files['data.fimi']},{files['q1.query']},,,,cp\n"
    )
    out = tmp_path / "report.csv"
    rc = cli.main(["bench", "--suite", str(suite), "--out", str(out), f"--timeout={timeout}"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --timeout must be a positive number")
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_rejects_bad_seeds(capsys, seeds):
    rc = cli.main(["verify", "--seeds", seeds])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seeds must be a positive number of instances")
    assert captured.out == ""


def test_verify_agrees(files, capsys):
    rc = cli.main(
        [
            "verify",
            "--data", files["data.fimi"],
            "--query", files["q1.query"],
            "--item-cats", files["items.cats"],
            "--trans-cats", files["trans.cats"],
        ]
    )
    assert rc == 0
    assert "theories agree" in capsys.readouterr().out


def test_verify_returns_the_exit_code_of_a_timed_out_engine(files, capsys):
    # Q1 has four pairs, so cp makes decisions and reads the clock
    rc = cli.main(
        ["verify", "--data", files["data.fimi"], "--query", files["q1.query"], "--timeout", "1e-9"]
    )
    assert rc == cli.EXIT_TIMEOUT
    captured = capsys.readouterr()
    assert captured.err == "cp: timeout\n"
    assert captured.out == ""


def test_verify_detects_broken_engine(files, capsys, monkeypatch):
    # harness hook: replace the baseline with one that drops a pair
    def broken(db, query, item_scheme, trans_scheme):
        from submine.queries import run_theory

        return run_theory(db, query, item_scheme, trans_scheme, engine="baseline")[:-1]

    monkeypatch.setitem(cli._ENGINE_OVERRIDES, "baseline", broken)
    rc = cli.main(
        [
            "verify",
            "--data", files["data.fimi"],
            "--query", files["q1.query"],
        ]
    )
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_random_seeds(capsys):
    rc = cli.main(["verify", "--seeds", "5", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 5


def test_verify_random_seeds_names_the_differing_pair(capsys, monkeypatch):
    # harness hook: a baseline that drops the first pair of its theory
    dropped = []

    def broken(db, query, item_scheme, trans_scheme):
        from submine.queries import run_theory

        pairs = run_theory(db, query, item_scheme, trans_scheme, engine="baseline")
        dropped.extend(pairs[:1])
        return pairs[1:]

    monkeypatch.setitem(cli._ENGINE_OVERRIDES, "baseline", broken)
    rc = cli.main(["verify", "--seeds", "5", "--seed", "7"])
    assert rc == 1
    captured = capsys.readouterr()
    assert dropped
    for pair in dropped:
        assert (
            "MISMATCH cp vs baseline: first differing pair (only in cp):\n"
            f"  {pair.tsv()}\n"
        ) in captured.out
    assert captured.out.count("MISMATCH") == 2 * len(dropped)
    assert f"{len(dropped)}/5 random instances disagree" in captured.err


def test_bench_reports_mask_counts(files, tmp_path, capsys):
    q2 = tmp_path / "q2.query"
    q2.write_text("theta: 50%\nitems_active: 2 3\n")
    suite = tmp_path / "suite.csv"
    with open(suite, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, ["name", "data", "query", "item_cats", "trans_cats", "labels", "engines"]
        )
        writer.writeheader()
        writer.writerow(
            {
                "name": "t1-q2",
                "data": files["data.fimi"],
                "query": str(q2),
                "item_cats": files["items.cats"],
                "trans_cats": files["trans.cats"],
                "labels": files["labels.txt"],
                "engines": "cp|baseline",
            }
        )
    out = tmp_path / "report.csv"
    rc = cli.main(["bench", "--suite", str(suite), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["engine"] for r in rows} == {"cp", "baseline"}
    assert all(r["num_masks"] == "4" for r in rows)  # C(3,2)+C(3,3)
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["solutions"] == rows[0]["solutions"] for r in rows)


def test_bench_writes_a_mask_count_wider_than_str_converts(tmp_path):
    # 20000 singleton item groups, any 1..20000 of them: 2^20000 − 1
    # masks, 6021 digits
    data = tmp_path / "wide.fimi"
    data.write_text("1 2 3\n2 3 20000\n1 20000\n")
    q = tmp_path / "wide.query"
    q.write_text("theta: 1/3\nitems_active: 1 20000\n")
    cats = tmp_path / "empty.cats"
    cats.write_text("")
    suite = tmp_path / "suite.csv"
    suite.write_text(
        "name,data,query,item_cats,trans_cats,labels,engines\n"
        f"wide,{data},{q},{cats},,,oracle\n"
    )
    out = tmp_path / "report.csv"
    assert cli.main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert len(row["num_masks"]) == 6021
    assert _read_count(row["num_masks"]) == (1 << 20000) - 1
    assert (row["status"], row["detail"]) == ("error", "oracle refuses 20000 items (bound 24)")


def test_bench_timeout_row_status(files, tmp_path):
    import random

    rng = random.Random(1)
    rows = [[i for i in range(1, 19) if rng.random() < 0.7] for _ in range(24)]
    data = tmp_path / "slow.fimi"
    data.write_text("\n".join(" ".join(map(str, r)) for r in rows if r) + "\n")
    q = tmp_path / "slow.query"
    q.write_text("theta: 1/24\n")
    suite = tmp_path / "suite.csv"
    suite.write_text(
        "name,data,query,item_cats,trans_cats,labels,engines\n"
        f"slow,{data},{q},,,,cp\n"
    )
    out = tmp_path / "report.csv"
    rc = cli.main(["bench", "--suite", str(suite), "--out", str(out), "--timeout", "0.01"])
    assert rc == 0
    with open(out, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["status"] == "to"


def test_bench_empty_suite(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text("name,data,query,item_cats,trans_cats,labels,engines\n")
    rc = cli.main(["bench", "--suite", str(suite)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # header only


def test_bench_unwritable_out(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text("name,data,query,item_cats,trans_cats,labels,engines\n")
    out = tmp_path / "missing" / "report.csv"
    rc = cli.main(["bench", "--suite", str(suite), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_row_error_recorded(tmp_path):
    suite = tmp_path / "suite.csv"
    suite.write_text(
        "name,data,query,item_cats,trans_cats,labels,engines\n"
        "broken,missing.fimi,missing.query,,,,cp\n"
    )
    out = tmp_path / "report.csv"
    rc = cli.main(["bench", "--suite", str(suite), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "error"


@pytest.mark.parametrize(
    "cells,statuses,detail",
    [
        ({"query": "q1.query"}, ["error"], "suite row has no data file"),
        ({"data": "data.fimi"}, ["error"], "suite row has no query file"),
        (
            {"data": "data.fimi", "query": "q1.query", "engines": "cp|"},
            ["ok", "error"],
            "empty engine name",
        ),
    ],
    ids=["no-data", "no-query", "blank-engine"],
)
def test_bench_row_without_data_query_or_engine(files, tmp_path, cells, statuses, detail):
    suite = tmp_path / "suite.csv"
    with open(suite, "w", newline="") as fh:
        writer = csv.DictWriter(fh, ["name", *cells])
        writer.writeheader()
        writer.writerow({"name": "x", **{k: files.get(v, v) for k, v in cells.items()}})
    out = tmp_path / "report.csv"
    assert cli.main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == statuses
    assert rows[-1]["detail"] == detail


@pytest.mark.parametrize(
    "exc,code,message",
    [
        (SearchTimeout, cli.EXIT_TIMEOUT, "seed 0: baseline: timeout"),
        (ValueError("bad"), cli.EXIT_ERROR, "seed 0: error in engine baseline: bad"),
        (RuntimeError("bad"), cli.EXIT_ERROR, "seed 0: error in engine baseline: bad"),
    ],
)
def test_verify_random_seeds_reports_engine_errors(exc, code, message, capsys, monkeypatch):
    def failing(db, query, item_scheme, trans_scheme):
        raise exc

    monkeypatch.setitem(cli._ENGINE_OVERRIDES, "baseline", failing)
    rc = cli.main(["verify", "--seeds", "3", "--seed", "7"])
    assert rc == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mine", "verify", "bench"])
def test_out_of_memory_is_an_error(files, tmp_path, capsys, monkeypatch, command):
    def out_of_memory(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_fimi", out_of_memory)
    args = ["--data", files["data.fimi"], "--query", files["q1.query"]]
    if command == "bench":
        suite = tmp_path / "suite.csv"
        suite.write_text(f"name,data,query,engines\nx,{args[1]},{args[3]},cp\n")
        args = ["--suite", str(suite)]
    assert cli.main([command, *args]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""
