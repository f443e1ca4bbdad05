"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

Spans are recorded around calls into each layer's public functions.  The
recorder patches the names where ``sqlab.harness`` and the layer modules look
them up at call time, and restores them afterwards; nothing in ``src/``
changes.  Each span is ``(name, start, end, parent, run id)``, kept in memory
and written out once the run ends.  Counts are recorded at the same
boundaries; byte counts labelled "computed" come from array shapes.
"""

import csv
import gzip
import math
from collections import Counter
from time import perf_counter

# name -> (unit, better, the end-to-end metric it should move and on which workload)
EVOLVE = "runs_per_s on evolve-sweep"
LEARN = "run_s.p50 on learn-wide"
LEARN_MEM = "run_s.p50 and peak_rss_mb on learn-wide"
PROBE = "runs_per_s on probe-mix"
PER_LAYER = {
    "evolve.gen_us": ("us", "lower", EVOLVE),
    "evolve.generations": ("count", "lower", EVOLVE),
    "evolve.beneficial": ("count", "higher", EVOLVE),
    "evolve.neutral": ("count", "lower", EVOLVE),
    "evolve.bottom": ("count", "lower", EVOLVE),
    "fnspace.project_unit_calls": ("count", "lower", EVOLVE),
    "fnspace.project_unit_s": ("s", "lower", EVOLVE),
    "fnspace.realfn_constructs": ("count", "lower", EVOLVE),
    "fnspace.class_build_s": ("s", "lower", LEARN_MEM),
    "fnspace.class_members": ("count", "lower", LEARN_MEM),
    "sqcore.pool_build_s": ("s", "lower", LEARN),
    "sqcore.learn_s": ("s", "lower", LEARN),
    "sqcore.rounds": ("count", "lower", LEARN),
    "sqcore.updates": ("count", "lower", LEARN),
    "sqcore.round_ms": ("ms", "lower", LEARN),
    "sqcore.accept_ratio": ("frac", "higher", LEARN),
    "sqcore.ledger_use": ("frac", "lower", LEARN),
    "oracles.batch_calls": ("count", "lower", LEARN_MEM),
    # probe-mix's empirical (sampled) answers are batches too
    "oracles.batch_s": ("s", "lower", LEARN_MEM + "; run_s.tail on probe-mix"),
    "oracles.batch_bytes_computed": ("bytes", "lower", LEARN_MEM),
    "oracles.answers": ("count", "lower", LEARN_MEM),
    "oracles.log_entries": ("count", "lower", LEARN_MEM),
    "oracles.single_calls": ("count", "lower", PROBE),
    "oracles.single_s": ("s", "lower", PROBE),
    "oracles.answer_us": ("us", "lower", PROBE),
    "oracles.audit_gap": ("1", "lower", "none: a correctness gauge that must stay <= 0"),
    "dimensions.sq_dim_s": ("s", "lower", "run_s.p50 on probe-mix"),
    "dimensions.sq_dim_calls": ("count", "lower", "run_s.p50 on probe-mix"),
    "dimensions.clique_scans": ("count", "lower", "run_s.p50 on probe-mix"),
    "dimensions.gram_bytes_computed": ("bytes", "lower", "run_s.p50 on probe-mix"),
    "sqcore.agnostic_s": ("s", "lower", PROBE),
    "harness.render_s": ("s", "lower", PROBE),
    "harness.rows": ("count", "lower", PROBE),
    "harness.bytes_out": ("bytes", "lower", PROBE),
    "harness.self_s": ("s", "lower", PROBE),
    "harness.parallel_eff": ("frac", "higher", EVOLVE),
    "trace.untraced_runs_per_s": ("1/s", "higher", "none: the tracing overhead"),
    "trace.traced_runs_per_s": ("1/s", "higher", "none: the tracing overhead"),
    "trace.overhead": ("frac", "lower", "none: the tracing overhead"),
}

RUN_SPAN = "harness.run"


class Recorder:
    """In-memory spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, run id)
        self._stack = []
        self.run_id = 0
        self.counts = Counter()
        self.audit_gap = None

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run(self, fn, *args):
        """Call fn(*args) as one harness run: a new run id and a root span."""
        self.run_id += 1
        return self.wrap(RUN_SPAN, fn)(*args)

    def write(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "run"))
            out.writerows(self.spans)

    # -- counters fed from return values -------------------------------------

    def _on_class(self, args, cclass):
        self.counts["class_members"] += len(cclass)

    def _on_learner(self, args, result):
        _, trace = result
        oracle, tau = args[1], args[2]
        self.counts["rounds"] += len(trace.rows)
        self.counts["updates"] += trace.updates
        self.counts["ledger"] += math.ceil(1 / (3 * tau * tau))
        self.counts["log_entries"] += len(oracle.query_log)
        if oracle.mode != "empirical" and oracle.query_log:
            gap = oracle.audit()
            self.audit_gap = gap if self.audit_gap is None else max(self.audit_gap, gap)
            self.counts["audit_violations"] += gap > 0

    def _on_batch(self, args, values):
        mat = args[1]
        rows, cols = mat.shape
        self.counts["batch_calls"] += 1
        self.counts["answers"] += rows
        # matrix, target and weights read; one value written per row
        self.counts["batch_bytes"] += 8 * (rows * cols + 2 * cols + rows)

    def _on_single(self, args, value):
        self.counts["single_calls"] += 1
        self.counts["answers"] += 1

    def _on_sq_dim(self, args, report):
        fset = args[0]
        k, size = len(fset), fset.domain.size
        self.counts["sq_dim_calls"] += 1
        if report.certainty == "exact":
            # candidate values scanned downward from k until one is found
            self.counts["clique_scans"] += min(k - report.value + 1, k - 1)
        # matrix read twice (weighted copy and transpose), k x k Gram written
        self.counts["gram_bytes"] += 8 * (2 * k * size + size + k * k)

    def _on_evolve(self, args, trace):
        self.counts["generations"] += len(trace)

    def _on_render(self, args, blob):
        self.counts["rows"] += len(args[0])
        self.counts["bytes_out"] += len(blob)

    def _on_project(self, args, fn):
        self.counts["project_unit_calls"] += 1


def install(rec):
    """Patch the layer boundaries to record into `rec`; returns an undo function."""
    from sqlab import evolve, fnspace, harness, oracles, sqcore

    patches = []

    def patch(owner, attr, name, on_return=None):
        orig = getattr(owner, attr)
        patches.append((owner, attr, orig))
        setattr(owner, attr, rec.wrap(name, orig, on_return))

    patch(harness, "make_config", "harness.make_config")
    for attr in ("parity_class", "conjunction_class", "disjunction_class"):
        patch(harness, attr, "fnspace.class_build", rec._on_class)
    for attr in ("dist_uniform", "dist_random", "dist_from_text"):
        patch(harness, attr, "fnspace.dist_build")
    patch(harness, "SQOracle", "oracles.build")
    patch(harness, "class_pool_generator", "sqcore.pool_build")
    patch(harness, "projected_learner", "sqcore.projected_learner", rec._on_learner)
    patch(harness, "weak_agnostic_learner", "sqcore.weak_agnostic_learner")
    patch(harness, "sq_dim", "dimensions.sq_dim", rec._on_sq_dim)
    patch(harness, "evolve_run", "evolve.evolve_run", rec._on_evolve)
    patch(harness, "render", "harness.render", rec._on_render)
    patch(oracles.SQOracle, "correlational_many", "oracles.correlational_many",
          rec._on_batch)
    patch(oracles.SQOracle, "query", "oracles.single", rec._on_single)
    patch(sqcore, "agnostic_stat_query", "oracles.single", rec._on_single)
    for module in (sqcore, evolve):
        patch(module, "project_unit", "fnspace.project_unit", rec._on_project)

    init = fnspace.RealFn.__init__
    patches.append((fnspace.RealFn, "__init__", init))

    def counted_init(self, *args, **kwargs):
        rec.counts["realfn_constructs"] += 1
        init(self, *args, **kwargs)

    fnspace.RealFn.__init__ = counted_init

    def undo():
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

    return undo


def span_times(spans):
    """(total duration, self time) per span name; self excludes direct children."""
    total, child = Counter(), Counter()
    for name, t0, t1, parent, _ in spans:
        total[name] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
    self_time = Counter()
    for idx, (name, t0, t1, _, _) in enumerate(spans):
        self_time[name] += (t1 - t0) - child[idx]
    return total, self_time


def layer_metrics(rec, outcomes, untraced_rate, traced_rate, parallel_eff):
    """Every PER_LAYER metric; 0 where the workload does not exercise the layer."""
    total, self_time = span_times(rec.spans)
    c = rec.counts

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    values = {
        "evolve.gen_us": ratio(total["evolve.evolve_run"], c["generations"], 1e6),
        "evolve.generations": c["generations"],
        "evolve.beneficial": outcomes["beneficial"],
        "evolve.neutral": outcomes["neutral"],
        "evolve.bottom": outcomes["bottom"],
        "fnspace.project_unit_calls": c["project_unit_calls"],
        "fnspace.project_unit_s": total["fnspace.project_unit"],
        "fnspace.realfn_constructs": c["realfn_constructs"],
        "fnspace.class_build_s": total["fnspace.class_build"],
        "fnspace.class_members": c["class_members"],
        "sqcore.pool_build_s": total["sqcore.pool_build"],
        "sqcore.learn_s": total["sqcore.projected_learner"],
        "sqcore.rounds": c["rounds"],
        "sqcore.updates": c["updates"],
        "sqcore.round_ms": ratio(total["sqcore.projected_learner"], c["rounds"], 1e3),
        "sqcore.accept_ratio": ratio(c["updates"], c["rounds"]),
        "sqcore.ledger_use": ratio(c["updates"], c["ledger"]),
        "oracles.batch_calls": c["batch_calls"],
        "oracles.batch_s": total["oracles.correlational_many"],
        "oracles.batch_bytes_computed": c["batch_bytes"],
        "oracles.answers": c["answers"],
        "oracles.log_entries": c["log_entries"],
        "oracles.single_calls": c["single_calls"],
        "oracles.single_s": total["oracles.single"],
        "oracles.answer_us": ratio(total["oracles.single"], c["single_calls"], 1e6),
        "oracles.audit_gap": rec.audit_gap if rec.audit_gap is not None else 0.0,
        "dimensions.sq_dim_s": total["dimensions.sq_dim"],
        "dimensions.sq_dim_calls": c["sq_dim_calls"],
        "dimensions.clique_scans": c["clique_scans"],
        "dimensions.gram_bytes_computed": c["gram_bytes"],
        "sqcore.agnostic_s": total["sqcore.weak_agnostic_learner"],
        "harness.render_s": total["harness.render"],
        "harness.rows": c["rows"],
        "harness.bytes_out": c["bytes_out"],
        "harness.self_s": self_time[RUN_SPAN],
        "harness.parallel_eff": parallel_eff,
        "trace.untraced_runs_per_s": untraced_rate,
        "trace.traced_runs_per_s": traced_rate,
        "trace.overhead": ratio(untraced_rate, traced_rate) - 1.0 if traced_rate else 0.0,
    }
    return values
