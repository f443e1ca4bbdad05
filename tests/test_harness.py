import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from sqlab import cli, harness, sqcore
from sqlab.errors import InvariantBreachError, UsageError
from sqlab.fnspace import MAX_CLASS_N, parity_class


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


def test_class_file_runs_like_the_builtin_class(tmp_path):
    rows = [" ".join(f"{v:g}" for v in row) for row in parity_class(3).matrix]
    good = tmp_path / "par3.txt"
    good.write_text("# the parities on 3 variables\n\n" + "\n".join(rows) + "\n")
    builtin, _ = harness.run_config(_cfg(command="dim", cclass="parities", n=3, out="x"))
    from_file, _ = harness.run_config(_cfg(command="dim", cclass=f"file:{good}", n=3, out="x"))
    assert from_file == builtin
    for name, text in (
        ("empty", "# no functions\n"),
        ("word", rows[0].replace("1", "one", 1) + "\n"),
        ("ragged", rows[0] + "\n" + rows[1] + " 1\n"),
        ("real", rows[0].replace("1", "0.5", 1) + "\n"),
        ("wide", rows[0] + "\n"),  # 8 values, but n = 2 has 4 points
    ):
        bad = tmp_path / f"{name}.txt"
        bad.write_text(text)
        out = CliRunner().invoke(cli.main, ["dim", "--class", f"file:{bad}", "--n",
                                            "2" if name == "wide" else "3",
                                            "--out", str(tmp_path / "o")])
        assert out.exit_code == 1 and isinstance(out.exception, SystemExit), name


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
    assert len(oracle.query_log) == oracle.query_count
    assert oracle.audit() > 0


@pytest.mark.parametrize("flag, mode, sample_size",
                         [("noisy", "noisy", None), ("empirical:300", "empirical", 300)])
def test_agnostic_answers_in_the_oracle_mode(monkeypatch, flag, mode, sample_size):
    calls = []
    answer = sqcore.answer

    def recording(truth, tau, mode, rng=None, sample_size=None, joint=None, cells=None):
        calls.append((mode, sample_size, rng is not None))
        return answer(truth, tau, mode, rng, sample_size, joint, cells)

    monkeypatch.setattr(sqcore, "answer", recording)
    base = dict(command="agnostic", n=3, tau=0.05, seeds="0..3", out="x")
    arts, _ = harness.run_config(_cfg(**base, oracle=flag))
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


def test_builtin_class_tables_beyond_max_class_n_are_refused(tmp_path):
    n = MAX_CLASS_N + 1
    for command in ("learn", "dim", "agnostic"):
        for cls in ("parities", "conjunctions", "disjunctions"):
            with pytest.raises(UsageError, match=f"--n {n}.*{8 * 4 ** n} bytes"):
                _cfg(command=command, n=n, cclass=cls)
        _cfg(command=command, n=MAX_CLASS_N)  # the largest size is still accepted
        _cfg(command=command, n=n, cclass="file:rows.txt")  # a file class is not refused
        out = CliRunner().invoke(
            cli.main, [command, "--n", str(n), "--out", str(tmp_path / "o")])
        assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
        assert "--n" in out.output and str(8 * 4 ** n) in out.output
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
