"""Seeded workload inputs for the sqlab benchmark, and the checks on their outputs.

A workload is an endless sequence of *cycles*; a cycle is a fixed,
interleaved list of jobs, and a job is one ``sqlab.harness.run_config`` call.
Every input (master seeds, class files) is drawn from the workload seed, so
the same seed gives the same jobs; the program only ever sees those inputs.

Each job carries the check its outputs must pass.  A failed check raises
``CheckFailed``; the runner counts it in ``failed`` next to runs that raised.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Workload name -> why it is in the benchmark (copied into BENCHMARK.json).
WHY = {
    "evolve-sweep": (
        "criterion-7 evolve sweep on nproc workers: one evolution generation plus "
        "fnspace validation is ~95% of the work; no class, oracle or dimension code runs"),
    "learn-wide": (
        "learn at n=12 on dense 4096-member classes with exact batched oracles: class "
        "build, pool stacking and 4096x4096 correlation batches dominate; evolve is bypassed"),
    "probe-mix": (
        "short dim/agnostic/empirical/noisy runs interleaved: single and sampled oracle "
        "answers, the max-clique scan and per-run harness overhead"),
}
WORKLOADS = tuple(WHY)

PROBE_TAU = 0.1       # learn runs in probe-mix
PROBE_N = 8
DIM_FUNCTIONS = 30    # largest class sq_dim still scans exactly
EMPIRICAL_DELTA = 0.01

# probe-mix cycle, in this fixed interleaved order.  The mix sets where the
# statistics land: dim runs (~10 ms) are 90% of the jobs, so the median falls
# near the dim median.  The empirical learn runs (~170 ms) are the slowest
# kind and about 40% of them take several rounds, several times as long; at
# one per cycle a run has 16, and the tail falls among the short ones.
PROBE_CYCLE = (("dim",) * 10 + ("agnostic",)) * 6 + ("dim",) * 10 + (
    "learn-empirical", "learn-noisy")

# Seconds one cycle takes on a 2-CPU box; a run does --seconds worth of them.
CYCLE_SECONDS = {"evolve-sweep": 3.6, "learn-wide": 2.0, "probe-mix": 1.9}


class CheckFailed(Exception):
    """A run returned, but its outputs break a guarantee the benchmark checks."""


@dataclass
class Job:
    kind: str
    config: dict
    runs: int = 1

    def key(self):
        """Identity of the computation; the worker count must not change outputs."""
        return json.dumps({k: v for k, v in self.config.items() if k != "workers"},
                          sort_keys=True)

    def with_workers(self, workers):
        return Job(self.kind, dict(self.config, workers=workers), self.runs)


def hoeffding_samples(tau, queries_per_round):
    """Sample size s making every answer of a learn run tau-accurate with
    probability at least 1 - EMPIRICAL_DELTA.

    An empirical answer averages s draws of a value in [-1, 1], so by Hoeffding
    P(|answer - truth| > tau) <= 2 exp(-s tau^2 / 2).  A union bound over the
    queries of one round and the at most ceil(1/(3 tau^2)) + 1 rounds of a run
    gives s = ceil(2 ln(2 m R / delta) / tau^2).
    """
    rounds = math.ceil(1 / (3 * tau * tau)) + 1
    return math.ceil(2 * math.log(2 * queries_per_round * rounds / EMPIRICAL_DELTA)
                     / tau ** 2)


def _seed(rng):
    return int(rng.integers(0, 2 ** 31))


def _dim_job(rng, workdir, index):
    signs = rng.choice(np.array([-1, 1]), size=(DIM_FUNCTIONS, 1 << PROBE_N))
    path = Path(workdir) / f"dimclass{index:05d}.txt"
    path.write_text("\n".join(" ".join(map(str, row)) for row in signs) + "\n")
    cfg = {"command": "dim", "n": PROBE_N, "class": f"file:{path}", "dist": "uniform",
           "seeds": str(_seed(rng)), "workers": 1}
    return Job("dim", cfg)


def _probe_job(kind, rng, workdir, index):
    if kind == "dim":
        return _dim_job(rng, workdir, index)
    seed = str(_seed(rng))
    if kind == "agnostic":
        cfg = {"command": "agnostic", "n": 10, "class": "conjunctions",
               "oracle": "grid_adversary", "tau": 0.05, "seeds": seed, "workers": 1}
    else:
        oracle = "noisy" if kind == "learn-noisy" else \
            f"empirical:{hoeffding_samples(PROBE_TAU, 1 << PROBE_N)}"
        cfg = {"command": "learn", "n": PROBE_N, "class": "conjunctions",
               "oracle": oracle, "tau": PROBE_TAU, "seeds": seed, "workers": 1}
    return Job(kind, cfg)


def cycles(name, seed, workdir, nproc):
    """Endless cycles of jobs for a workload; deterministic in `seed`."""
    rng = np.random.default_rng(seed)
    if name == "evolve-sweep":
        block = [_seed(rng) for _ in range(nproc)]
        job = Job("evolve", {"command": "evolve", "n": 4, "epsilon": 0.2,
                             "dist": "uniform", "seeds": ",".join(map(str, block)),
                             "workers": nproc}, runs=len(block))
        while True:
            yield [job]
    elif name == "learn-wide":
        while True:
            yield [Job(f"learn-{cls}", {"command": "learn", "n": 12, "class": cls,
                                        "dist": "random", "oracle": "exact", "tau": 0.02,
                                        "seeds": str(_seed(rng)), "workers": 1})
                   for cls in ("conjunctions", "parities")]
    elif name == "probe-mix":
        index = 0
        while True:
            cycle = []
            for kind in PROBE_CYCLE:
                cycle.append(_probe_job(kind, rng, workdir, index))
                index += 1
            yield cycle
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def cycle_count(name, seconds):
    """Cycles that take about `seconds` on a 2-CPU box."""
    return max(1, round(seconds / CYCLE_SECONDS[name]))


def digest(artifacts):
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + artifacts[name] + b"\0")
    return h.hexdigest()


def csv_rows(blob):
    lines = blob.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_learn(cfg, artifacts, summaries):
    tau = float(cfg["tau"])
    ledger = math.ceil(1 / (3 * tau * tau))
    (summary,), (blob,) = summaries, artifacts.values()
    if summary["halt"] != "converged":
        raise CheckFailed(f"learn halted {summary['halt']!r}, expected 'converged'")
    if summary["updates"] > ledger:
        raise CheckFailed(f"{summary['updates']} updates exceed the ledger "
                          f"ceil(1/(3 tau^2)) = {ledger}")
    rows = csv_rows(blob)
    accepted = [i for i, r in enumerate(rows) if r["gamma"] != ""]
    if len(accepted) != summary["updates"]:
        raise CheckFailed(f"trace has {len(accepted)} accepted steps, summary "
                          f"reports {summary['updates']}")
    if cfg["oracle"].startswith("empirical"):
        return  # answers are only valid with high probability
    need = 3 * tau * tau - 1e-12
    for i in accepted:
        drop = float(rows[i]["potential"]) - float(rows[i + 1]["potential"])
        if drop < need:
            raise CheckFailed(f"step {i} drops the potential by {drop:.3e}, "
                              f"below 3*tau^2 = {3 * tau * tau:.3e}")


def class_matrix(cfg):
    """The +-1 rows of the class file the benchmark wrote for a dim job."""
    text = Path(cfg["class"].split(":", 1)[1]).read_text()
    return np.array(text.split(), dtype=np.float64).reshape(DIM_FUNCTIONS, -1)


def _check_dim(cfg, artifacts):
    (blob,) = artifacts.values()
    (rec,) = csv_rows(blob)
    value = int(rec["value"])
    witness = [int(v) for v in rec["witness"].split()]
    mat = class_matrix(cfg)
    if rec["certainty"] != "exact":
        raise CheckFailed(f"dim certainty {rec['certainty']!r}, expected 'exact'")
    if len(witness) != value or len(set(witness)) != value:
        raise CheckFailed(f"witness {witness} does not hold {value} distinct functions")
    gram = np.abs(mat @ mat.T) / mat.shape[1]   # uniform D
    for a in range(value):
        for b in range(a + 1, value):
            g = gram[witness[a], witness[b]]
            if g > 1.0 / value + 1e-12:
                raise CheckFailed(f"witness pair ({witness[a]}, {witness[b]}) "
                                  f"correlates at {g}, over 1/{value}")


def _check_evolve(summaries):
    reached = [s for s in summaries if s["reached_target"]]
    mono = sum(1 for s in reached if s["monotone_vs_start"])
    if len(reached) < 0.9 * len(summaries) or mono < 0.9 * len(reached):
        raise CheckFailed(f"criterion-7 gate: {len(reached)}/{len(summaries)} reached "
                          f"perf > 0.8, {mono} of those monotone vs start")


def check(job, artifacts, summaries):
    """Raise CheckFailed unless the job's outputs meet its guarantee."""
    command = job.config["command"]
    if command == "learn":
        _check_learn(job.config, artifacts, summaries)
    elif command == "agnostic":
        (summary,) = summaries
        if not summary["guarantee_ok"]:
            raise CheckFailed(f"agnostic guarantee failed: {summary}")
    elif command == "dim":
        _check_dim(job.config, artifacts)
    else:
        _check_evolve(summaries)
