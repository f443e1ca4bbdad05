"""sqlab benchmark: closed-loop workloads driven through ``sqlab.harness``.

Run from the root of a sqlab checkout:

    python3 perfbench/run.py --workload evolve-sweep|learn-wide|probe-mix \
        --seed N --seconds S --trace 0|1

One client issues each ``run_config`` call only after the previous one
returned.  Inputs come from ``--seed`` (see workloads.py) and every run's
outputs are checked, including that a repeated job returns the same bytes.
A run does a fixed amount of work, sized so that it takes about ``--seconds``
seconds on a 2-CPU box; the same seed and seconds give the same jobs, so
latency percentiles and counts fall on the same jobs in every run.
``--trace 0`` measures the end-to-end metrics with tracing off, each time
corrected for the host's speed (hostspeed.py).  ``--trace 1`` runs each job
once untraced and once traced at workers=1, and reports the per-layer
metrics of tracer.py, in uncorrected seconds.

The last line of stdout is one JSON object ``{correct, attempted, failed,
metrics}``.  The lines before it name each metric with its unit, and the
environment.  The full result (tail percentile, failures, environment) and,
for ``--trace 1``, the spans are written under ``perfbench/.work/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread per process keeps workers x BLAS threads <= nproc for every
# pool size; a second thread did not speed up the n=12 correlation batches.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 6     # fresh interpreters at the start and at the end of a run
END_TO_END = {
    "runs_per_s": "1/s",
    "run_s.p50": "s",
    "run_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_CODE = ("import json, sys\n"
              "import sqlab.harness as harness\n"
              "harness.make_config(json.loads(sys.argv[1]))\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With ten samples or fewer no such percentile exists; the maximum is
    returned and labelled p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    return xs[n - 11], 100 * (n - 10) // n, n


def peak_rss_mb():
    """Largest resident set of this process or any finished child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Bench:
    """Runs jobs, checks their outputs and keeps the attempted/failed tally."""

    def __init__(self, harness, workloads):
        self.harness = harness
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}

    def _fail(self, job, reason):
        self.failed += job.runs
        self.failures.append({"kind": job.kind, "config": job.config, "reason": reason})

    def execute(self, job, call=None):
        """One run_config call: (start, end, artifacts), or Nones if it failed."""
        wl = self.workloads
        self.attempted += job.runs
        try:
            cfg = self.harness.make_config(job.config)
            start = time.perf_counter()
            artifacts, summaries = (call or self.harness.run_config)(cfg)
            end = time.perf_counter()
        except Exception as e:  # a run that raises is a failed run; keep going
            self._fail(job, f"{type(e).__name__}: {e}")
            return None, None, None
        try:
            wl.check(job, artifacts, summaries)
            d = self.digests.setdefault(job.key(), wl.digest(artifacts))
            if d != wl.digest(artifacts):
                raise wl.CheckFailed("artifacts differ from an earlier repeat of this config")
        except wl.CheckFailed as e:
            self._fail(job, str(e))
            return None, None, None
        return start, end, artifacts


def measure_setup(config, host):
    """Corrected wall times of fresh interpreters that import the harness and
    validate `config`.  The first interpreter of a checkout compiles the
    bytecode; it is not timed."""
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(config)]
    subprocess.run(cmd, check=True)
    host.probe()
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        spans.append((start, time.perf_counter()))
    host.probe()
    return [(end - start) * host.factor(start, end) for start, end in spans]


def end_to_end(bench, cycles, host):
    """Warm up on the first cycle, then time every cycle once.

    Set-up is measured at the start and at the end of the run.  Every time is
    corrected for the host's speed (see hostspeed.py); the raw values go to
    the result file.
    """
    jobs = [job for cycle in cycles for job in cycle]
    setup_s = measure_setup(jobs[0].config, host)
    for job in cycles[0]:
        bench.execute(job)
    timed = []
    for job in jobs:
        host.maybe_probe()
        start, end, _ = bench.execute(job)
        if start is not None:
            timed.append((job, start, end))
    host.probe()
    setup_s += measure_setup(jobs[0].config, host)
    if not timed:
        return {}, {}

    def summary(samples, runs):
        value, pct, n = tail(samples)
        return {"runs_per_s": runs / sum(samples), "run_s.p50": statistics.median(samples),
                "run_s.tail": value}, pct, n

    runs = sum(job.runs for job, _, _ in timed)
    samples = [(end - start) * host.factor(start, end) for _, start, end in timed]
    metrics, pct, n = summary(samples, runs)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setup_s)
    raw, _, _ = summary([end - start for _, start, end in timed], runs)
    by_kind = {}
    for (job, _, _), dt in zip(timed, samples):
        by_kind.setdefault(job.kind, []).append(dt)
    notes = {"run_s.p50": f"median of {n} jobs",
             "run_s.tail": f"p{pct} of {n} jobs",
             "setup_s": f"median of {len(setup_s)} fresh interpreters",
             "uncorrected": raw,
             "host_factor": {"median": host.median_factor(), "probes": len(host.refs)},
             "per_kind": {kind: {"n": len(xs), "median_s": statistics.median(xs),
                                 "max_s": max(xs)} for kind, xs in by_kind.items()}}
    return metrics, notes


def traced(bench, cycles, nproc, tracer, spans_path):
    """Each distinct job runs untraced and then traced, at workers=1, so both
    see the same host phase.  A workload that fans out first runs its first
    cycle at its own worker count, for parallel_eff."""
    fans_out = any(job.config["workers"] > 1 for job in cycles[0])
    wall_par = 0.0
    if fans_out:
        for job in cycles[0]:
            start, end, _ = bench.execute(job)
            wall_par += end - start if start is not None else 0.0
    rec = tracer.Recorder()
    untraced_s = traced_s = busy = 0.0
    runs = 0
    outcomes = Counter()
    distinct = {job.key(): job.with_workers(1) for cycle in cycles for job in cycle}
    for i, job in enumerate(distinct.values()):
        start, end, _ = bench.execute(job)
        undo = tracer.install(rec)
        try:
            t_start, t_end, artifacts = bench.execute(
                job, lambda cfg: rec.run(bench.harness.run_config, cfg))
        finally:
            undo()
        if start is None or t_start is None:
            continue
        untraced_s += end - start
        traced_s += t_end - t_start
        runs += job.runs
        if i < len(cycles[0]):
            busy += end - start
        for art_name, blob in artifacts.items():
            if art_name.startswith("evolve_run"):
                outcomes.update(row["outcome"] for row in bench.workloads.csv_rows(blob))
    rec.write(spans_path)
    if rec.counts["audit_violations"]:
        bench.failed += rec.counts["audit_violations"]
        bench.failures.append({"reason": "oracle audit gap above 0 in a "
                                         "non-probabilistic mode"})
    if not runs:
        return {}, {}
    parallel_eff = busy / (nproc * wall_par) if wall_par else 0.0
    metrics = tracer.layer_metrics(rec, outcomes, runs / untraced_s, runs / traced_s,
                                   parallel_eff)
    return metrics, {}


def environment(np, nproc):
    try:
        from sqlab import kernels
        backend = kernels.BACKEND
    except ImportError:
        backend = "none (no sqlab.kernels)"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": backend,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sqlab" / "harness.py").is_file():
        sys.exit(f"run.py: no sqlab source at {src / 'sqlab'}; "
                 "run from the root of a sqlab checkout")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))

    import numpy as np
    import sqlab
    from sqlab import harness

    import hostspeed
    import tracer
    import workloads

    if Path(sqlab.__file__).resolve().parent != (src / "sqlab").resolve():
        sys.exit(f"run.py: imported sqlab from {sqlab.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    nproc = len(os.sched_getaffinity(0))
    workdir = root / "perfbench" / ".work"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(np, nproc)
    bench = Bench(harness, workloads)
    stream = workloads.cycles(args.workload, args.seed, workdir, nproc)

    if args.trace:
        # half the cycles: each distinct job runs twice, untraced and traced
        count = workloads.cycle_count(args.workload, args.seconds / 2)
        spans = workdir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        metrics, notes = traced(bench, [next(stream) for _ in range(count)], nproc,
                                tracer, spans)
        units = {name: spec[0] for name, spec in tracer.PER_LAYER.items()}
    else:
        count = workloads.cycle_count(args.workload, args.seconds)
        metrics, notes = end_to_end(bench, [next(stream) for _ in range(count)],
                                    hostspeed.HostSpeed())
        units = END_TO_END
    if not metrics:
        sys.exit("run.py: every run failed; no metric to report")

    failed_frac = bench.failed / bench.attempted
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={bench.attempted} failed={bench.failed}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<32} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'failed_frac':<32} {failed_frac:.6g} frac ({bench.failed}/{bench.attempted})")
    for failure in bench.failures:
        print(f"  FAILED {failure}")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, notes=notes, failed_frac=failed_frac,
                  failures=bench.failures)
    (workdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
