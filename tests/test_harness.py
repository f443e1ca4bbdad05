import csv
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlab
from sqlab import cli, harness, sqcore
from sqlab.errors import InvariantBreachError, UsageError
from sqlab.fnspace import MAX_CLASS_N, MAX_N, Domain, dist_random, dist_to_text, random_real_fn
from sqlab.oracles import MAX_SAMPLE_SIZE, SQOracle
from sqlab.rng import make_rng

from conftest import class_table


def _cfg(**kw):
    data = {"command": "learn", "out": "unused"}
    data.update(kw)
    if "cclass" in data:
        data["class"] = data.pop("cclass")
    return harness.make_config(data)


def test_make_config_defaults_and_seed_forms():
    cfg = _cfg(seeds="0,2,5")
    assert cfg.seeds == [0, 2, 5]
    assert cfg.fmt == "csv" and cfg.workers == 1
    assert _cfg(seeds="3..6").seeds == [3, 4, 5, 6]
    snap = cfg.snapshot()
    assert snap["seeds"] == "0,2,5" and snap["class"] == "conjunctions"
    # a snapshot round-trips through make_config
    again = harness.make_config(snap)
    assert again.snapshot() == snap


def test_make_config_rejects_bad_values():
    with pytest.raises(UsageError, match="command"):
        harness.make_config({})
    with pytest.raises(UsageError, match="command"):
        _cfg(command="ponder")
    with pytest.raises(UsageError, match="unknown config keys"):
        _cfg(flavor="salt")
    for key, val in (
        ("n", 0),
        ("n", 21),
        ("epsilon", 0.0),
        ("epsilon", 1.0),
        ("tau", 0.0),
        ("class", "monomials"),
        ("dist", "gaussian"),
        ("oracle", "psychic"),
        ("seeds", ""),
        ("format", "xml"),
        ("workers", 0),
        ("theta", -1.0),
        ("n", "abc"),
        ("n", 3.5),
        ("tau", "x"),
        ("workers", "two"),
    ):
        with pytest.raises(UsageError):
            _cfg(**{key: val})


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\ncommand = learn\nn = 3  # trailing comment\n\nseeds = 0..2\n"
    )
    data = harness.parse_config_file(p)
    assert data == {"command": "learn", "n": "3", "seeds": "0..2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(UsageError, match="bad.cfg:1"):
        harness.parse_config_file(bad)
    # lines end at \n only: a form feed leaves "n = 5" inside the comment
    p.write_text("# note\x0cn = 5\ncommand = learn\n")
    assert harness.parse_config_file(p) == {"command": "learn"}
    bad.write_text("# note\x0cn = 5\ncommand = learn\njust words\n")
    with pytest.raises(UsageError, match="bad.cfg:3"):
        harness.parse_config_file(bad)
    with pytest.raises(UsageError, match="cannot read"):
        harness.parse_config_file(tmp_path / "absent.cfg")


def test_format_value_twelve_digits():
    assert harness.format_value(None) == ""
    assert harness.format_value(1 / 3) == "0.333333333333"
    assert harness.format_value(5) == "5"
    assert harness.format_value("x") == "x"


def test_render_formats_agree(tmp_path):
    records = [
        {"a": 1, "b": 0.1 + 0.2, "c": None},
        {"a": 2, "b": -1.5, "c": "word"},
    ]
    columns = ("a", "b", "c")
    blob = harness.rows_to_csv(records, columns)
    rows = list(csv.DictReader(io.StringIO(blob.decode())))
    jl = [json.loads(line) for line in harness.rows_to_jsonl(records, columns).decode().splitlines()]
    assert len(rows) == len(jl) == 2
    for r_csv, r_json in zip(rows, jl):
        assert float(r_csv["b"]) == r_json["b"]
        assert r_csv["a"] == str(r_json["a"])
    assert rows[0]["c"] == ""
    # empty trace still renders a header line
    assert harness.rows_to_csv([], columns) == b"a,b,c\n"
    assert harness.rows_to_jsonl([], columns) == b""


_CELL = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), st.floats(),
                  st.text(max_size=6), st.sampled_from(["a, b", "%s", "\"q\"", "\u00e9"]))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(_CELL, min_size=3, max_size=3), max_size=16),
       uniform=st.sampled_from([None, 1.5, 7, "x"]))
def test_render_matches_a_cell_by_cell_reference(rows, uniform):
    # column by column rendering writes the bytes of a per-cell, per-row render
    columns = ("a", "b%", "c")
    records = [dict(zip(columns, row)) for row in rows]
    if uniform is not None:  # one column of a single type, the fast path
        for i, rec in enumerate(records):
            rec["c"] = uniform / (i + 1) if type(uniform) is float else uniform
    for rec in records[::3]:
        rec.pop("a")  # a missing key renders as None
    want_csv = [",".join(columns)] + [
        ",".join(harness.format_value(rec.get(c)) for c in columns) for rec in records]
    want_json = [json.dumps({c: harness._json_value(rec.get(c)) for c in columns})
                 for rec in records]
    for chunk in (harness.RENDER_ROWS, 5):  # a trace of any length is split alike
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "RENDER_ROWS", chunk)
            assert harness.render(records, columns, "csv") == \
                ("\n".join(want_csv) + "\n").encode()
            assert harness.render(records, columns, "json") == \
                ("\n".join(want_json) + ("\n" if want_json else "")).encode()


def test_learn_run_artifacts(tmp_path):
    cfg = _cfg(n=3, tau=0.05, epsilon=0.1, seeds="0..4", out=str(tmp_path / "o"))
    artifacts, summaries = harness.run_config(cfg)
    assert sorted(artifacts) == [f"learn_run{k:03d}.csv" for k in range(5)]
    cap = math.ceil(1 / (3 * 0.05**2))
    for blob, s in zip(artifacts.values(), summaries):
        lines = blob.decode().splitlines()
        assert lines[0] == "iteration,gamma,potential,queries"
        assert s["halt"] == "converged"
        assert s["updates"] <= cap
        assert s["final_disagreement"] <= 0.1
        last = lines[-1].split(",")
        assert last[1] == ""  # converged row has no accepted step


def test_run_config_deterministic_across_workers(tmp_path):
    base = dict(n=3, seeds="0..5", epsilon=0.1, tau=0.05, out="x")
    solo, _ = harness.run_config(_cfg(**base, workers=1))
    multi, _ = harness.run_config(_cfg(**base, workers=3))
    assert solo == multi
    again, _ = harness.run_config(_cfg(**base, workers=3))
    assert again == solo


def test_run_config_starts_no_more_workers_than_runs(monkeypatch):
    # a fork pool starts all its workers at the first submit, so --workers 5000
    # on two runs must ask for two; the stand-in pool maps in this process
    import concurrent.futures
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    base = dict(n=3, seeds="0,1", tau=0.05, out="x")
    solo, _ = harness.run_config(_cfg(**base))
    for workers in (2, 3, 5000):
        got, _ = harness.run_config(_cfg(**base, workers=workers))
        assert got == solo
    assert sizes == [2, 2, 2]


def test_evolve_run_artifacts(tmp_path):
    cfg = _cfg(
        command="evolve", n=2, epsilon=0.3, theta=0.29, seeds="0,1",
        out=str(tmp_path / "e"),
    )
    artifacts, summaries = harness.run_config(cfg)
    blob = artifacts["evolve_run000.csv"].decode().splitlines()
    assert blob[0] == "generation,true_perf,empirical_perf,outcome,bene_count,neut_count"
    assert len(blob) - 1 <= math.ceil(8 / 0.29)
    for s in summaries:
        assert isinstance(s["reached_target"], bool)
        assert s["generations"] >= 1


def test_evolve_artifacts_identical_across_workers_and_reruns(tmp_path):
    data = {"command": "evolve", "n": 3, "epsilon": 0.3, "theta": 0.01, "dist": "random",
            "seeds": "0..7", "out": str(tmp_path / "a")}
    solo, sums = harness.run_config(harness.make_config(data))
    multi, _ = harness.run_config(harness.make_config({**data, "workers": 8}))
    assert list(solo) == [f"evolve_run{k:03d}.csv" for k in range(8)]
    assert multi == solo
    assert len(set(solo.values())) == 8 and sum(s["beneficial"] for s in sums) > 0
    harness.execute(harness.make_config(data))
    harness.rerun_manifest(tmp_path / "a" / "manifest.json", tmp_path / "b")
    for name, blob in solo.items():
        assert (tmp_path / "a" / name).read_bytes() == blob
        assert (tmp_path / "b" / name).read_bytes() == blob


def test_evolve_outcome_histogram_in_the_manifest(tmp_path):
    cfg = _cfg(command="evolve", n=3, epsilon=0.3, dist="random", seeds="0..2",
               out=str(tmp_path / "e"))
    paths, summaries = harness.execute(cfg)
    results = json.loads((tmp_path / "e" / "manifest.json").read_text())["results"]
    for k, s in enumerate(results):
        counts = [s["beneficial"], s["neutral"], s["bottom"]]
        assert sum(counts) == s["generations"] == summaries[k]["generations"]
        rows = list(csv.DictReader(io.StringIO(
            (tmp_path / "e" / f"evolve_run{k:03d}.csv").read_text())))
        assert counts == [sum(r["outcome"] == o for r in rows)
                          for o in ("beneficial", "neutral", "bottom")]


def test_dim_and_agnostic_runs(tmp_path):
    arts, sums = harness.run_config(
        _cfg(command="dim", cclass="parities", n=3, seeds="0", out="x")
    )
    rows = arts["dim_run000.csv"].decode().splitlines()
    assert rows[0] == "value,certainty,witness,params"
    value, certainty, witness = rows[1].split(",")[:3]
    assert value == "8" and certainty == "exact"
    assert witness == "0 1 2 3 4 5 6 7"
    arts, sums = harness.run_config(
        _cfg(command="agnostic", n=3, tau=0.05, seeds="0..9", out="x")
    )
    assert all(s["guarantee_ok"] for s in sums)


def test_dim_summaries_count_the_clique_search():
    # the 8 parities on 3 variables: one search, which colours 8 nodes
    _, sums = harness.run_config(_cfg(command="dim", cclass="parities", n=3, out="x"))
    assert sums == [{"seed": 0, "value": 8, "certainty": "exact",
                     "clique_searches": 1, "clique_nodes": 8}]


def test_agnostic_best_correlation_matches_a_row_by_row_reference():
    _, sums = harness.run_config(
        _cfg(command="agnostic", n=4, tau=0.05, dist="random", seeds="0..5", out="x"))
    domain, table = Domain(4), class_table("conjunctions", 4)
    for k, s in enumerate(sums):
        w = dist_random(domain, make_rng(s["seed"], k, "dist")).weights
        phi = random_real_fn(domain, make_rng(s["seed"], k, "phi")).values
        want = max(abs(float(np.dot(w, row * phi))) for row in table)
        assert s["best_correlation"] == pytest.approx(want, rel=0, abs=1e-12)


def test_class_file_runs_like_the_builtin_class(tmp_path):
    rows = [" ".join(f"{v:g}" for v in row) for row in class_table("parities", 3)]
    good = tmp_path / "par3.txt"
    good.write_text("# the parities on 3 variables\n\n" + "\n".join(rows) + "\n")
    builtin, _ = harness.run_config(_cfg(command="dim", cclass="parities", n=3, out="x"))
    from_file, _ = harness.run_config(_cfg(command="dim", cclass=f"file:{good}", n=3, out="x"))
    assert from_file == builtin
    # the parse errors name the line as numbered in the file, comments and blanks too
    for name, text, fault in (
        ("empty", "# no functions\n", None),
        ("word", rows[0].replace("1", "one", 1) + "\n", "line 1: 'one' is not a number"),
        ("ragged", rows[0] + "\n" + rows[1] + " 1\n",
         "line 2 has 9 entries, not 8 like the first function"),
        ("commented-ragged", "# c\n" + rows[0] + "\n\n# c\n" + rows[1].rsplit(" ", 1)[0] + "\n",
         "line 5 has 7 entries, not 8 like the first function"),
        ("commented-word", rows[0] + "\n# c\n" + rows[1].replace("-1", "minus", 1) + "\n",
         "line 3: 'minus' is not a number"),
        ("real", rows[0].replace("1", "0.5", 1) + "\n", "entries must be exactly -1 or +1"),
        ("wide", rows[0] + "\n", None),  # 8 values, but n = 2 has 4 points
        ("note", rows[0] + " # note\n", "line 1: '#' is not a number"),  # only whole lines
        ("nan", rows[0].replace("1", "nan", 1) + "\n", None),
        ("inf", rows[0].replace("1", "inf", 1) + "\n", None),
    ):
        bad = tmp_path / f"{name}.txt"
        bad.write_text(text)
        out = CliRunner().invoke(cli.main, ["dim", "--class", f"file:{bad}", "--n",
                                            "2" if name == "wide" else "3",
                                            "--out", str(tmp_path / "o")])
        assert out.exit_code == 1 and isinstance(out.exception, SystemExit), name
        assert "usage error: " in out.output, name
        if fault is not None:
            assert out.output == f"usage error: class file {bad}: {fault}\n", name


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"])
def test_class_file_lines_end_at_newline_only(tmp_path, sep):
    # a form feed (say) inside a function line is whitespace, not a line break
    rows = ["1 1 1 1 1 1 1 1", f"1{sep}-1 1 -1 1 -1 1 -1"]
    path = tmp_path / "class.txt"
    path.write_text("\n".join(rows) + "\n")
    cfg = _cfg(command="dim", cclass=f"file:{path}", n=3)
    got = harness._build_class(cfg, Domain(3))
    assert got.matrix.tolist() == [[1.0] * 8, [1.0, -1.0] * 4]
    # and a fault after it is reported at its line in the file
    path.write_text("\n".join(rows + ["# c", "1 -1 1"]) + "\n")
    with pytest.raises(UsageError) as e:
        harness._build_class(cfg, Domain(3))
    assert str(e.value) == f"class file {path}: line 4 has 3 entries, not 8 like the first function"


@pytest.mark.parametrize("seed", range(5))
def test_class_file_parse_is_bit_identical_to_parsing_each_entry(tmp_path, seed):
    rng = np.random.default_rng(seed)
    spellings = np.array(["1", "-1", "1.0", "-1.0", "+1", "1e0", "-1E+00", "1.", "-.1e1"])
    table = rng.choice(spellings, size=(30, 256))
    path = tmp_path / "class.txt"
    path.write_text("\n".join(" ".join(row) for row in table) + "\n")
    got = harness._build_class(_cfg(command="dim", cclass=f"file:{path}", n=8), Domain(8))
    want = np.array(table.tolist(), dtype=np.float64)  # one float() per entry
    assert got.matrix.tobytes() == want.tobytes() and got.matrix.shape == (30, 256)


def test_class_file_takes_crlf_tabs_and_whole_line_comments(tmp_path):
    matrix = class_table("parities", 3)
    lines = ["# the parities on 3 variables", "", "   # an indented comment"]
    lines += ["\t".join(f"{v:g}" for v in row) + " \t" for row in matrix]
    path = tmp_path / "par3.txt"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    got = harness._build_class(_cfg(command="dim", cclass=f"file:{path}", n=3), Domain(3))
    assert got.matrix.tobytes() == matrix.tobytes()


def _class_from_text(tmp_path, text):
    path = tmp_path / "class.txt"
    path.write_text(text)
    return harness._build_class(_cfg(command="dim", cclass=f"file:{path}", n=3), Domain(3))


@pytest.mark.parametrize("one, minus_one", [("1.0", "-1.0"), ("+1", "-1.0"), ("1e0", "-1")])
def test_class_file_real_spellings_load_the_integer_matrix(tmp_path, one, minus_one):
    # 1 and -1 take the vectorised sign pass, any other spelling the float parse: same table
    rows = class_table("parities", 3)
    ints = "\n".join(" ".join("1" if v > 0 else "-1" for v in row) for row in rows)
    reals = "\n".join(" ".join(one if v > 0 else minus_one for v in row) for row in rows)
    want = _class_from_text(tmp_path, ints + "\n").matrix
    got = _class_from_text(tmp_path, reals + "\n").matrix
    assert want.dtype == got.dtype == np.float64
    assert got.tobytes() == want.tobytes() == rows.tobytes()


@pytest.mark.parametrize("entry, message", [
    ("2", "class file {path}: entries must be exactly -1 or +1"),
    ("-0", "class file {path}: entries must be exactly -1 or +1"),
    # past int8: the float parse reads them, so 255 and 257 do not wrap to -1 and +1
    ("300", "class file {path}: entries must be exactly -1 or +1"),
    ("255", "class file {path}: entries must be exactly -1 or +1"),
    ("257", "class file {path}: entries must be exactly -1 or +1"),
    ("-255", "class file {path}: entries must be exactly -1 or +1"),
    ("0.5", "class file {path}: entries must be exactly -1 or +1"),
    ("1.5", "class file {path}: entries must be exactly -1 or +1"),
    ("nan", "class file {path}: function matrix entries must be finite, got [nan, nan]"),
    ("1 1", "class file {path}: line 2 has 9 entries, not 8 like the first function"),
])
def test_class_file_faults_keep_their_messages(tmp_path, entry, message):
    row = "1 -1 1 -1 1 -1 1 -1"
    with pytest.raises(UsageError) as e:
        _class_from_text(tmp_path, row + "\n" + row.replace("-1", entry, 1) + "\n")
    assert str(e.value) == message.format(path=tmp_path / "class.txt")


@pytest.mark.parametrize("entry", ["1.5", "255", "257", "-255"])
def test_class_file_int_parse_through_a_float_is_refused(tmp_path, monkeypatch, entry):
    # No integer parse reads a class file, so none can read 1.5 or 257 as +1
    # through a float cast: text other than 1 and -1 goes to the float64 parse alone.
    loadtxt = np.loadtxt

    def float_only(lines, dtype=float, **kwargs):
        assert dtype is np.float64, f"a class file parsed as {dtype}"
        return loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", float_only)
    row = "1 -1 1 -1 1 -1 1 -1"
    with pytest.raises(UsageError) as e:
        _class_from_text(tmp_path, row + "\n" + row.replace("1", entry, 1) + "\n")
    assert str(e.value) == f"class file {tmp_path / 'class.txt'}: entries must be exactly -1 or +1"


@pytest.mark.parametrize("text", ["1 -1 1 -1\n1 1 1 1\n", "1.0 -1 1 -1\n1 1 1 1\n"],
                         ids=["sign-pass", "float-parse"])
def test_class_file_of_another_width_names_its_width_and_2_to_the_n(tmp_path, text):
    # the sign pass and the float parse give one message, naming the file
    path = tmp_path / "w4.txt"
    path.write_text(text)
    out = CliRunner().invoke(cli.main, ["dim", "--n", "3", "--class", f"file:{path}",
                                        "--out", str(tmp_path / "o")])
    assert out.exit_code == 1
    assert out.output == (f"usage error: class file {path}: its lines have 4 entries, "
                          "but --n 3 needs 2^3 = 8\n")


def _lines_of(path):
    """The lines of class file `path`, and those that hold functions."""
    raw = path.read_text().split("\n")
    return raw, [s for s in map(str.strip, raw) if s and not s.startswith("#")]


def _float_parse_of(path, domain):
    """What the float64 parse alone makes of class file `path` over `domain`:
    its table, or the text of the UsageError it raises (no sign pass runs)."""
    raw, lines = _lines_of(path)
    if not lines:
        return f"class file {path} contains no functions"
    try:
        mat = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return f"class file {path}: {harness._class_file_fault(raw)}"
    if mat.shape[1] != domain.size:
        return (f"class file {path}: its lines have {mat.shape[1]} entries, but "
                f"--n {domain.n} needs 2^{domain.n} = {domain.size}")
    if not np.all(np.abs(mat) == 1.0):
        return f"class file {path}: entries must be exactly -1 or +1"
    return mat


def _build_class_of(path, domain):
    """_build_class's table of class file `path`, or the text of its UsageError."""
    try:
        got = harness._build_class(_cfg(command="dim", cclass=f"file:{path}", n=domain.n), domain)
    except UsageError as e:
        return str(e)
    assert not got.matrix.flags.writeable
    return got.matrix


_RUN = st.text(alphabet=" \t", min_size=1, max_size=3)  # a separator: spaces and tabs


@st.composite
def _sign_class_file(draw):
    """A class file of 1 and -1 entries over n = 1..4: entries parted by runs
    of spaces and tabs, lines padded with them and ending in \\n or \\r\\n,
    blank and whole-line comment lines between them.  Returns n, the data
    lines as token lists (entry, separator, entry, ...), and a function
    that writes the file's text from such lists."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    rows = []
    for _ in range(k):
        tokens = []
        for j in range(1 << n):
            if j:
                tokens.append(draw(_RUN))
            tokens.append(draw(st.sampled_from(["1", "-1"])))
        rows.append(tokens)
    pads = [(draw(st.sampled_from(["", " ", "\t "])), draw(st.sampled_from(["", "\t", "  "])))
            for _ in rows]
    notes = [draw(st.sampled_from([None, "", "# a comment", "  # 1 -1 1", "\t"])) for _ in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))

    def text(rows):
        out = []
        for tokens, (lead, trail), note in zip(rows, pads, notes):
            if note is not None:
                out.append(note)
            out.append(lead + "".join(tokens) + trail)
        return end.join(out) + end

    return n, rows, text


@settings(max_examples=150, deadline=None)
@given(case=_sign_class_file(), at=st.data(),
       spelling=st.sampled_from(["+1", "1.0", "01", "-0", "11", "--1", "1-", "2", "\x0c"]))
def test_the_sign_pass_gives_what_the_float_parse_gives(tmp_path_factory, case, at, spelling):
    n, rows, text = case
    domain, path = Domain(n), tmp_path_factory.mktemp("signs") / "class.txt"
    path.write_bytes(text(rows).encode())
    assert harness._sign_table(_lines_of(path)[1]) is not None  # the sign pass takes it
    got, want = _build_class_of(path, domain), _float_parse_of(path, domain)
    assert isinstance(want, np.ndarray)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # respell one entry, or join two with no separator between them: the outcome
    # is the float parse's, table or message
    i = at.draw(st.integers(0, len(rows) - 1))
    for j, token in ((2 * at.draw(st.integers(0, len(rows[i]) // 2)), spelling),  # an entry
                     (2 * at.draw(st.integers(0, len(rows[i]) // 2 - 1)) + 1, "")):  # a separator
        changed = [list(r) for r in rows]
        changed[i][j] = token
        path.write_bytes(text(changed).encode())
        got, want = _build_class_of(path, domain), _float_parse_of(path, domain)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("command", harness.COMMANDS)
def test_a_distribution_file_over_another_n_is_a_usage_error(tmp_path, command):
    path = tmp_path / "d3.txt"
    path.write_text(dist_to_text(dist_random(Domain(3), make_rng(1, 0, "dist"))))
    out = CliRunner().invoke(cli.main, [command, "--n", "4", "--dist", f"file:{path}",
                                        "--out", str(tmp_path / "o")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == f"usage error: distribution file {path} has n=3, but --n is 4\n"
    same = CliRunner().invoke(cli.main, [command, "--n", "3", "--dist", f"file:{path}",
                                         "--out", str(tmp_path / "o")])
    assert same.exit_code == 0, same.output


def test_a_distribution_file_that_repeats_a_point_is_a_usage_error(tmp_path):
    path = tmp_path / "d2.txt"
    path.write_text("00 0.7\n10 0.25\n01 0.25\n11 0.25\n00 0.25\n")
    out = CliRunner().invoke(cli.main, ["learn", "--n", "2", "--dist", f"file:{path}",
                                        "--out", str(tmp_path / "o")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == (f"usage error: distribution file {path}: "
                          "point 00 on line 5 is given already on line 1\n")
    assert not (tmp_path / "o").exists()


def test_a_distribution_file_short_of_points_names_its_path(tmp_path):
    path = tmp_path / "d2.txt"
    path.write_text("00 0.5\n10 0.5\n")
    out = CliRunner().invoke(cli.main, ["learn", "--n", "2", "--dist", f"file:{path}",
                                        "--out", str(tmp_path / "o")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == (f"usage error: distribution file {path}: "
                          "expected 4 points for n=2, got 2\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad", [{"n": 0}, {"seeds": [-1]}, {"fmt": "xml"}],
                         ids=["n-zero", "seed-negative", "format-xml"])
def test_run_config_validates_a_hand_built_config(tmp_path, workers, bad):
    fields = dict(command="dim", seeds=[0, 1], workers=workers, out=str(tmp_path / "o"))
    cfg = harness.ExperimentConfig(**{**fields, **bad})
    with pytest.raises(UsageError):
        harness.run_config(cfg)
    assert not (tmp_path / "o").exists()


def test_liar_oracle_trips_invariant(tmp_path, monkeypatch):
    oracles = []

    def recording(gen, oracle, *args, **kwargs):
        oracles.append(oracle)
        return sqcore.projected_learner(gen, oracle, *args, **kwargs)

    monkeypatch.setattr(harness, "projected_learner", recording)
    cfg = _cfg(oracle="liar", n=3, seeds="0", out=str(tmp_path / "l"))
    with pytest.raises(InvariantBreachError, match="update-count ledger"):
        harness.run_config(cfg)
    (oracle,) = oracles
    # every lie is logged, so the audit sees it
    assert oracle.mode == "liar" and oracle.query_count > 0
    assert sum(batch.queries for batch in oracle.query_log) == oracle.query_count
    assert oracle.audit() > 0


def test_empirical_sample_size_is_at_most_2_to_the_53(tmp_path):
    assert _cfg(oracle=f"empirical:{MAX_SAMPLE_SIZE}").oracle == "empirical:9007199254740992"
    for size in (MAX_SAMPLE_SIZE + 1, 2**64):
        flag = f"empirical:{size}"
        with pytest.raises(UsageError, match=r"1 <= s <= 2\^53, got"):
            _cfg(oracle=flag)
        for command in ("learn", "agnostic"):
            out = CliRunner().invoke(
                cli.main, [command, "--n", "3", "--oracle", flag, "--out", str(tmp_path / "o")])
            assert out.exit_code == 1, out.output
            assert isinstance(out.exception, SystemExit)  # a usage error, not a traceback
            assert "usage error" in out.output and "1 <= s <= 2^53" in out.output


@pytest.mark.parametrize("flag, mode, sample_size",
                         [("noisy", "noisy", None), ("empirical:300", "empirical", 300)])
def test_agnostic_answers_in_the_oracle_mode(monkeypatch, flag, mode, sample_size):
    oracles = []

    def recording(*args, **kwargs):
        oracles.append(SQOracle(*args, **kwargs))
        return oracles[-1]

    monkeypatch.setattr(harness, "SQOracle", recording)
    base = dict(command="agnostic", n=3, tau=0.05, seeds="0..3", out="x")
    arts, _ = harness.run_config(_cfg(**base, oracle=flag))
    calls = [(o.mode, o.sample_size, o.query_count > 0) for o in oracles]
    assert calls and set(calls) == {(mode, sample_size, True)}
    again, _ = harness.run_config(_cfg(**base, oracle=flag, workers=2))
    assert again == arts


def test_agnostic_rejects_the_liar_oracle(tmp_path):
    with pytest.raises(UsageError, match="--oracle"):
        _cfg(command="agnostic", oracle="liar")
    out = CliRunner().invoke(
        cli.main, ["agnostic", "--oracle", "liar", "--out", str(tmp_path / "a")])
    assert out.exit_code == 1
    assert "--oracle" in out.output


@pytest.mark.parametrize("flag", [
    "empirical:abc", "empirical:-3", "empirical:0", "empirical:", "empirical",
    "exact:5", "liar:3", "noisy:1", "grid_adversary:2", "psychic",
])
def test_oracle_flag_is_validated_at_the_boundary(tmp_path, flag):
    for command in ("learn", "agnostic"):
        out = CliRunner().invoke(
            cli.main, [command, "--n", "3", "--oracle", flag, "--out", str(tmp_path / "o")])
        assert out.exit_code == 1, out.output
        assert isinstance(out.exception, SystemExit)  # a usage error, not a traceback
        assert "usage error" in out.output and "--oracle" in out.output


@pytest.mark.parametrize("args, names", [
    # theta ** -2 overflows a float
    (["--theta", "1e-200"], ("theta=1e-200", "s > 10^402")),
    # s = 35840126498027933696 does not fit the int64 numpy's multinomial takes
    (["--theta", "1e-8"], ("theta=1e-08", "s = 35840126498027933696")),
    # gamma = eps^1.5/21 underflows to 0, so the default theta = gamma/8 is 0
    (["--epsilon", "1e-300"], ("--epsilon 1e-300", "gamma = eps^1.5/21 = 0.0")),
    # the default theta's 4g/eps overflows a float
    (["--epsilon", "1e-150"], ("--epsilon 1e-150", "gamma = eps^1.5/21 = 4.76")),
], ids=["theta-1e-200", "theta-1e-8", "epsilon-1e-300", "epsilon-1e-150"])
def test_evolve_parameters_past_numeric_range_are_usage_errors(tmp_path, args, names):
    out = CliRunner().invoke(cli.main, ["evolve", "--n", "3", "--epsilon", "0.5", *args,
                                        "--out", str(tmp_path / "o")])
    assert out.exit_code == 1, out.output
    assert isinstance(out.exception, SystemExit)  # a usage error, not a traceback
    assert out.output.startswith("usage error: ")
    for name in names:
        assert name in out.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, config", [
    (["--dist", "random:abc"], ""),
    (["--dist", "random:-1"], ""),
    (["--dist", "random:"], ""),
    (["--seeds=-1"], ""),
    (["--seeds=-3..0"], ""),
    ([], "theta = nan\n"),
    ([], "theta = inf\n"),
    (["--n", "abc"], ""),
    (["--n", "3.5"], ""),
    (["--tau", "x"], ""),
    (["--workers", "two"], ""),
    (["--theta", "abc"], ""),
    ([], "n = abc\n"),
    ([], "tau = x\n"),
    ([], "workers = two\n"),
    ([], "theta = abc\n"),
], ids=["dist-abc", "dist-negative", "dist-empty", "seed-negative", "seed-range-negative",
        "theta-nan", "theta-inf", "n-abc", "n-fraction", "tau-word", "workers-word",
        "theta-word", "file-n-abc", "file-tau-word", "file-workers-word", "file-theta-word"])
def test_config_values_are_validated_at_the_boundary(tmp_path, args, config):
    conf = tmp_path / "run.cfg"
    conf.write_text("n = 2\nepsilon = 0.3\n" + config)
    out = CliRunner().invoke(
        cli.main, ["evolve", "--config", str(conf), *args, "--out", str(tmp_path / "o")])
    assert out.exit_code == 1, out.output
    key = args[0].split("=")[0] if args else "--" + config.split(" =")[0]
    assert out.output.startswith(f"usage error: {key} "), out.output
    assert "Traceback" not in out.output and isinstance(out.exception, SystemExit)
    assert not (tmp_path / "o").exists()


def _assert_flag_rejected(tmp_path, command, flag, value):
    out = CliRunner().invoke(cli.main, [command, "--n", "2", flag, value,
                                        "--out", str(tmp_path / "e")])
    assert out.exit_code == 1, out.output
    assert isinstance(out.exception, SystemExit)
    readers = ", ".join(harness.KEYS[flag[2:]].metadata["readers"])
    assert f"usage error: {command} does not read {flag}; it is read by {readers}" in out.output
    assert not (tmp_path / "e").exists()
    conf = tmp_path / f"{command}.cfg"
    conf.write_text(f"n = 2\n{flag[2:]} = {value}\n")
    out = CliRunner().invoke(cli.main, [command, "--config", str(conf)])
    assert out.exit_code == 1 and flag in out.output
    # a manifest's config snapshot names every key; make_config takes it back
    snap = _cfg(command=command, **{flag[2:]: value}).snapshot()
    assert harness.make_config(snap).snapshot() == snap


@pytest.mark.parametrize("flag, value", [("--class", "parities"), ("--tau", "0.1"),
                                         ("--oracle", "noisy")])
def test_evolve_rejects_the_flags_it_does_not_use(tmp_path, flag, value):
    _assert_flag_rejected(tmp_path, "evolve", flag, value)


@pytest.mark.parametrize("command, flag, value", [
    ("dim", "--tau", "0.1"), ("dim", "--oracle", "noisy"), ("dim", "--epsilon", "0.5"),
    ("learn", "--epsilon", "0.5"), ("agnostic", "--epsilon", "0.5"),
    ("learn", "--theta", "0.1"), ("dim", "--theta", "0.1"), ("agnostic", "--theta", "0.1"),
])
def test_commands_reject_the_flags_they_do_not_use(tmp_path, command, flag, value):
    _assert_flag_rejected(tmp_path, command, flag, value)


def test_every_config_key_but_command_is_a_flag_of_every_command():
    want = {f"--{key}" for key in harness.KEYS if key != "command"} | {"--config"}
    for name, command in cli.main.commands.items():
        flags = {opt for p in command.params for opt in p.opts}
        assert flags == want, name


def test_empirical_ledger_overrun_is_an_honest_halt(tmp_path):
    # single-draw answers are +-1, far outside tau = 0.3 of the truth; seed 0
    # accepts a fifth update against the ledger ceil(1/(3*0.3^2)) = 4
    out_dir = tmp_path / "emp"
    out = CliRunner().invoke(cli.main, ["learn", "--n", "3", "--tau", "0.3", "--oracle",
                                        "empirical:1", "--seeds", "0", "--out", str(out_dir)])
    assert out.exit_code == 0, out.output
    assert "halt=empirical-overrun" in out.output and "invariant breach" not in out.output
    (result,) = json.loads((out_dir / "manifest.json").read_text())["results"]
    assert result["halt"] == "empirical-overrun"
    assert result["updates"] == 5
    for part in ("= 4", "tau=0.3", "empirical:1"):
        assert part in result["overrun"]
    rows = (out_dir / "learn_run000.csv").read_text().splitlines()
    assert len(rows) == 1 + 5  # the header and the five accepted steps


def test_builtin_class_tables_beyond_max_class_n_are_refused(tmp_path):
    n = MAX_CLASS_N + 1
    # what binds is the dense table, which only dim's Gram reads
    cost = f"its Gram takes 8*4^n = {8 * 4 ** n} bytes"
    for cls in ("parities", "conjunctions", "disjunctions"):
        with pytest.raises(UsageError, match=re.escape(f"--n {n} is too large for dim on "
                                                       f"the built-in class {cls}: {cost}; "
                                                       f"use n <= {MAX_CLASS_N}")):
            _cfg(command="dim", n=n, cclass=cls)
    _cfg(command="dim", n=MAX_CLASS_N)  # the largest size is still accepted
    _cfg(command="dim", n=n, cclass="file:rows.txt")  # a file class is not refused
    out = CliRunner().invoke(cli.main, ["dim", "--n", str(n), "--out", str(tmp_path / "o")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert "--n" in out.output and cost in out.output
    # learn and agnostic read the class through transforms, up to MAX_N, and an
    # empirical oracle answers a batch from one transform of its sample's counts
    for command in ("learn", "agnostic"):
        _cfg(command=command, n=n, oracle="empirical:100")
        for oracle in ("exact", "grid_adversary", "noisy", "empirical:100"):
            _cfg(command=command, n=MAX_N, oracle=oracle)
    _cfg(command="evolve", n=n)  # evolve builds no class table


def test_execute_writes_manifest_and_rerun_matches(tmp_path):
    out1 = tmp_path / "a"
    cfg = harness.make_config(
        dict(command="learn", n=3, seeds="0..3", out=str(out1), format="json")
    )
    paths, summaries = harness.execute(cfg)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == "0,1,2,3"
    assert len(manifest["results"]) == 4
    out2 = tmp_path / "b"
    harness.rerun_manifest(out1 / "manifest.json", out=out2)
    for p in sorted(out1.iterdir()):
        if p.name == "manifest.json":
            continue
        assert (out2 / p.name).read_bytes() == p.read_bytes()
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["results"] == manifest["results"]


def test_learn_manifest_reports_the_ledger_and_the_audit_gap(tmp_path):
    tau = 0.05
    ledger = math.ceil(1 / (3 * tau * tau))
    for oracle in ("exact", "empirical:300"):
        out = tmp_path / oracle.replace(":", "-")
        harness.execute(_cfg(n=3, tau=tau, oracle=oracle, seeds="0..2", out=str(out)))
        text = (out / "manifest.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        results = json.loads(text)["results"]
        assert [s["ledger"] for s in results] == [ledger] * 3
        if oracle == "exact":
            assert all(s["audit_gap"] <= 0 for s in results)
            assert all(s["examples"] is None for s in results)
        else:  # sampled answers are valid only with high probability: nothing to audit
            assert all(s["audit_gap"] is None for s in results)
            # one sample of 300 examples per round, and a round asks all 8 conjunctions
            assert [s["examples"] for s in results] == [300 * s["queries"] // 8 for s in results]
        for path in out.glob("learn_run*"):  # the telemetry stays out of the artifacts
            assert b"ledger" not in path.read_bytes() and b"audit" not in path.read_bytes()


def test_agnostic_manifest_reports_the_queries_and_the_audit_gap(tmp_path):
    n = 4
    for oracle in ("exact", "empirical:300"):
        out = tmp_path / oracle.replace(":", "-")
        harness.execute(_cfg(command="agnostic", n=n, tau=0.05, oracle=oracle,
                             seeds="0..2", out=str(out)))
        text = (out / "manifest.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        results = json.loads(text)["results"]
        assert [s["queries"] for s in results] == [2 ** n] * 3  # one query per conjunction
        if oracle == "exact":
            assert all(s["audit_gap"] <= 0 for s in results)
            assert all(s["examples"] is None for s in results)
        else:  # sampled answers are valid only with high probability: nothing to audit
            assert all(s["audit_gap"] is None for s in results)
            assert [s["examples"] for s in results] == [300] * 3  # one batch, one sample
        for path in out.glob("agnostic_run*"):  # the telemetry stays out of the artifacts
            assert b"queries" not in path.read_bytes() and b"audit" not in path.read_bytes()


def test_a_learn_runs_memory_does_not_grow_with_its_rounds():
    # the oracle logs four numbers a round, not the round's answers, so 14 or
    # 15 updates at n=16 peak as one does, exact or sampled; keeping each
    # round's sampled answers would add 0.5 MiB a round
    def run(oracle, seed):
        cfg = _cfg(n=16, cclass="conjunctions", dist="random", tau=0.02, oracle=oracle,
                   seeds=str(seed))
        tracemalloc.start()
        try:
            (summary,) = harness.run_config(cfg)[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return summary["updates"], peak

    for oracle, updates in (("exact", 14), ("empirical:20000", 15)):
        run(oracle, 1)  # the first run allocates what later runs reuse
        (few, one_update), (many, most_updates) = run(oracle, 1), run(oracle, 3)
        assert (few, many) == (1, updates), oracle
        assert most_updates <= one_update + 2**20, (oracle, one_update, most_updates)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert sqlab.__version__ == version


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    ok = runner.invoke(
        cli.main,
        ["learn", "--n", "3", "--seeds", "0,1", "--out", str(tmp_path / "ok")],
    )
    assert ok.exit_code == 0, ok.output
    assert "halt=converged" in ok.output
    usage = runner.invoke(cli.main, ["learn", "--n", "25"])
    assert usage.exit_code == 1
    # click's own usage errors exit 1 too, not its default 2 (an invariant breach here)
    for args in (["learn", "--nn", "3"], ["learn", "--n"], ["ponder"]):
        usage = runner.invoke(cli.main, args)
        assert usage.exit_code == 1 and "Error:" in usage.output, args
    for args in (["--help"], ["learn", "--help"], ["--version"]):
        assert runner.invoke(cli.main, args).exit_code == 0, args
    # 3*tau^2 underflows to 0: no finite update ledger
    tiny = runner.invoke(cli.main, ["learn", "--tau", "1e-200", "--out", str(tmp_path / "t")])
    assert tiny.exit_code == 1 and isinstance(tiny.exception, SystemExit)
    assert "tau" in tiny.output and "ledger" in tiny.output
    liar = runner.invoke(
        cli.main,
        ["learn", "--oracle", "liar", "--out", str(tmp_path / "liar")],
    )
    assert liar.exit_code == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    io_err = runner.invoke(
        cli.main,
        ["dim", "--class", "parities", "--out", str(blocker / "sub")],
    )
    assert io_err.exit_code == 3


def test_cli_config_file_with_flag_overrides(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("n = 3\nseeds = 0\nclass = parities\nout = %s\n" % (tmp_path / "c1"))
    runner = CliRunner()
    r = runner.invoke(cli.main, ["dim", "--config", str(p)])
    assert r.exit_code == 0, r.output
    assert "value=8" in r.output
    r2 = runner.invoke(
        cli.main,
        ["dim", "--config", str(p), "--n", "2", "--out", str(tmp_path / "c2")],
    )
    assert r2.exit_code == 0
    assert "value=4" in r2.output  # flag wins over the file
