"""Tests of the benchmark itself: seeded inputs, output checks, failure
accounting and the span recorder.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sqlab import harness, sqcore  # noqa: E402
from workloads import CheckFailed, Job  # noqa: E402


def _learn_job(oracle="exact"):
    return Job("learn", {"command": "learn", "n": 4, "class": "conjunctions",
                         "oracle": oracle, "tau": 0.05, "seeds": "3", "workers": 1})


def _first_cycles(name, seed, workdir, count=2):
    stream = workloads.cycles(name, seed, workdir, nproc=2)
    return [job for _ in range(count) for job in next(stream)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    first = _first_cycles(name, 5, tmp_path)
    files = sorted(p.read_bytes() for p in tmp_path.iterdir())
    again = _first_cycles(name, 5, tmp_path)
    assert [j.config for j in again] == [j.config for j in first]
    assert sorted(p.read_bytes() for p in tmp_path.iterdir()) == files
    other = _first_cycles(name, 6, tmp_path)
    assert [j.config for j in other] != [j.config for j in first]


def test_liar_learn_is_a_failure_and_the_benchmark_goes_on():
    bench = run.Bench(harness, workloads)
    assert bench.execute(_learn_job(oracle="liar")) == (None, None, None)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "InvariantBreachError" in bench.failures[0]["reason"]
    start, end, artifacts = bench.execute(_learn_job())
    assert end > start and artifacts
    assert (bench.attempted, bench.failed) == (2, 1)


def test_learn_check_rejects_a_short_potential_drop():
    job = _learn_job()
    artifacts, summaries = harness.run_config(harness.make_config(job.config))
    workloads.check(job, artifacts, summaries)
    (name, blob), = artifacts.items()
    lines = blob.decode().splitlines()
    header = lines[0].split(",")
    col = header.index("potential")
    step, after = lines[1].split(","), lines[2].split(",")
    assert step[header.index("gamma")] != ""
    after[col] = step[col]
    lines[2] = ",".join(after)
    with pytest.raises(CheckFailed, match="drops the potential"):
        workloads.check(job, {name: ("\n".join(lines) + "\n").encode()}, summaries)


def test_dim_check_recomputes_the_gram_matrix(tmp_path):
    job = _first_cycles("probe-mix", 1, tmp_path, count=1)[0]
    assert job.kind == "dim"
    artifacts, summaries = harness.run_config(harness.make_config(job.config))
    workloads.check(job, artifacts, summaries)
    (rec,) = workloads.csv_rows(next(iter(artifacts.values())))
    a, b = (int(v) for v in rec["witness"].split()[:2])
    path = Path(job.config["class"].split(":", 1)[1])
    rows = path.read_text().splitlines()
    rows[b] = rows[a]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckFailed, match="correlates"):
        workloads.check(job, artifacts, summaries)


def test_evolve_gate_needs_ninety_percent():
    ok = {"reached_target": True, "monotone_vs_start": True}
    job = Job("evolve", {"command": "evolve"}, runs=4)
    workloads.check(job, {}, [ok] * 4)
    with pytest.raises(CheckFailed, match="criterion-7"):
        workloads.check(job, {}, [ok] * 3 + [dict(ok, reached_target=False)])


def test_changed_artifacts_on_a_repeat_are_a_failure():
    bench = run.Bench(harness, workloads)
    job = Job("agnostic", {"command": "agnostic", "n": 3, "class": "parities",
                           "tau": 0.05, "seeds": "0", "workers": 1})
    assert bench.execute(job)[2] is not None

    def tampered(cfg):
        artifacts, summaries = harness.run_config(cfg)
        return {k: v + b"x" for k, v in artifacts.items()}, summaries

    assert bench.execute(job.with_workers(2), tampered)[2] is None
    assert bench.failed == 1 and "repeat" in bench.failures[0]["reason"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90, 100)
    assert run.tail([0.3, 0.1, 0.2]) == (0.3, 100, 3)


def test_hoeffding_sample_size_is_the_smallest_valid_one():
    tau, m = workloads.PROBE_TAU, 1 << workloads.PROBE_N
    rounds = math.ceil(1 / (3 * tau * tau)) + 1
    s = workloads.hoeffding_samples(tau, m)

    def failure_bound(samples):
        return m * rounds * 2 * math.exp(-samples * tau * tau / 2)

    assert failure_bound(s) <= workloads.EMPIRICAL_DELTA < failure_bound(s - 1)


def test_host_speed_scales_by_the_interpolated_reference():
    host = hostspeed.HostSpeed()
    host.times, host.refs = [0.0, 10.0], [hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S]
    assert host.factor(0.0, 0.0) == 1.0
    assert host.factor(4.0, 6.0) == pytest.approx(1 / 1.5)
    assert host.factor(20.0, 30.0) == 0.5


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, 1), ("b", 1.0, 4.0, 0, 1),
             ("c", 5.0, 6.0, 0, 1), ("d", 2.0, 3.0, 1, 1)]
    total, self_time = tracer.span_times(spans)
    assert total["a"] == 10.0 and self_time["a"] == 6.0
    assert self_time["b"] == 2.0 and self_time["d"] == 1.0


def test_recorder_counts_a_learn_run_and_restores_the_names(tmp_path):
    originals = (harness.projected_learner, harness.render, sqcore.project_unit)
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        cfg = harness.make_config(_learn_job().config)
        artifacts, summaries = rec.run(harness.run_config, cfg)
    finally:
        undo()
    assert (harness.projected_learner, harness.render, sqcore.project_unit) == originals
    (summary,) = summaries
    assert rec.counts["updates"] == summary["updates"]
    assert rec.counts["answers"] == summary["queries"]
    assert rec.counts["rows"] == len(workloads.csv_rows(next(iter(artifacts.values()))))
    metrics = tracer.layer_metrics(rec, Counter(), 1.0, 1.0, 0.0)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["oracles.audit_gap"] <= 0
    assert metrics["harness.self_s"] > 0
    rec.write(tmp_path / "spans.csv.gz")
    names = {span[0] for span in rec.spans}
    assert {tracer.RUN_SPAN, "sqcore.projected_learner", "oracles.correlational_many",
            "fnspace.class_build", "harness.render"} <= names


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: row[:2] for name, row in tracer.PER_LAYER.items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probe-mix",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
