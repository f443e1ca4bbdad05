"""Experiment orchestration: config parsing, seeded batch runs, exports.

A run is fully determined by (per-run master seed, run index, purpose tag):
every random stream is derived from those three, so results do not depend on
worker scheduling.  Artifacts (CSV / JSON lines) are rendered to bytes before
writing, with floats at 12 significant digits and fixed column order, making
re-runs byte-identical.  The manifest (config snapshot, code version,
per-run summaries, wall clock) is written alongside the artifacts; only the
wall-clock field is allowed to differ between re-runs.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dimensions import FnSet, sq_dim
from .errors import InvariantBreachError, UsageError
from .evolve import (disjunction_mutator, disjunction_params, evolve_lsq_params, evolve_run,
                     evolve_streams)
from .fnspace import (
    MAX_CLASS_N,
    MAX_N,
    ConceptClass,
    Domain,
    RealFn,
    conjunction_class,
    disagreement,
    disjunction_class,
    dist_from_text,
    dist_random,
    dist_uniform,
    make_disjunction,
    parity_class,
    random_real_fn,
)
from .oracles import MODES, SQOracle
from .rng import make_rng
from .sqcore import ApproxSet, class_pool_generator, projected_learner, weak_agnostic_learner

COMMANDS = ("learn", "evolve", "dim", "agnostic")
CLASSES = ("parities", "conjunctions", "disjunctions")
FORMATS = ("csv", "json")

LEARN_COLUMNS = ("iteration", "gamma", "potential", "queries")
EVOLVE_COLUMNS = ("generation", "true_perf", "empirical_perf", "outcome",
                  "bene_count", "neut_count")
DIM_COLUMNS = ("value", "certainty", "witness", "params")
AGNOSTIC_COLUMNS = ("seed", "best_correlation", "achieved_correlation",
                    "guarantee_ok")


@dataclass
class ExperimentConfig:
    command: str
    n: int = 3
    epsilon: float = 0.1
    tau: float = 0.05
    cclass: str = "conjunctions"
    dist: str = "uniform"
    oracle: str = "exact"
    seeds: list = field(default_factory=lambda: [0])
    out: str = "out"
    fmt: str = "csv"
    workers: int = 1
    theta: float = None

    def snapshot(self):
        return {
            "command": self.command,
            "n": self.n,
            "epsilon": self.epsilon,
            "tau": self.tau,
            "class": self.cclass,
            "dist": self.dist,
            "oracle": self.oracle,
            "seeds": ",".join(str(s) for s in self.seeds),
            "out": self.out,
            "format": self.fmt,
            "workers": self.workers,
            "theta": self.theta,
        }


KNOWN_KEYS = set(ExperimentConfig("learn").snapshot())


def _nonnegative_int(text, what):
    text = str(text).strip()
    if not text.isdecimal():
        raise UsageError(f"{what} must be a nonnegative integer, got {text!r}")
    return int(text)


def _parse_seeds(text):
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(_nonnegative_int(lo, "seeds"), _nonnegative_int(hi, "seeds") + 1))
    return [_nonnegative_int(s, "seeds") for s in text.split(",") if s.strip() != ""]


def make_config(data):
    """Validate a key-value mapping into an ExperimentConfig."""
    data = {k: v for k, v in data.items() if v is not None}
    unknown = set(data) - KNOWN_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "command" not in data:
        raise UsageError("config key 'command' is required")
    command = str(data["command"])
    if command not in COMMANDS:
        raise UsageError(f"command must be one of {COMMANDS}, got {command!r}")
    cfg = ExperimentConfig(command)
    if "n" in data:
        cfg.n = int(data["n"])
        if not 1 <= cfg.n <= MAX_N:
            raise UsageError(f"n must be in [1, {MAX_N}], got {cfg.n}")
    if "epsilon" in data:
        cfg.epsilon = float(data["epsilon"])
        if not 0 < cfg.epsilon < 1:
            raise UsageError(f"epsilon must be in (0, 1), got {cfg.epsilon}")
    if "tau" in data:
        cfg.tau = float(data["tau"])
        if not 0 < cfg.tau < 1:
            raise UsageError(f"tau must be in (0, 1), got {cfg.tau}")
    if "class" in data:
        cfg.cclass = str(data["class"])
        if cfg.cclass not in CLASSES and not cfg.cclass.startswith("file:"):
            raise UsageError(
                f"class must be one of {CLASSES} or file:<path>, got {cfg.cclass!r}")
    if "dist" in data:
        cfg.dist = str(data["dist"])
        if cfg.dist.startswith("random:"):
            _nonnegative_int(cfg.dist[len("random:"):], "the seed of dist random:<seed>")
        elif cfg.dist not in ("uniform", "random") and not cfg.dist.startswith("file:"):
            raise UsageError(
                f"dist must be uniform, random[:seed] or file:<path>, got {cfg.dist!r}")
    if "oracle" in data:
        cfg.oracle = str(data["oracle"])
        if _oracle_mode(cfg)[0] == "liar" and command == "agnostic":
            raise UsageError(
                "--oracle liar does not apply to agnostic: its pool learner keeps "
                "no update ledger that a lying oracle could trip")
    if "seeds" in data:
        cfg.seeds = _parse_seeds(data["seeds"])
        if not cfg.seeds:
            raise UsageError("seeds must be a nonempty list")
    if "out" in data:
        cfg.out = str(data["out"])
    if "format" in data:
        cfg.fmt = str(data["format"])
        if cfg.fmt not in FORMATS:
            raise UsageError(f"format must be one of {FORMATS}, got {cfg.fmt!r}")
    if "workers" in data:
        cfg.workers = int(data["workers"])
        if cfg.workers < 1:
            raise UsageError(f"workers must be >= 1, got {cfg.workers}")
    if "theta" in data and str(data["theta"]) != "None":
        cfg.theta = float(data["theta"])
        if not 0 < cfg.theta < math.inf:
            raise UsageError(f"theta must be positive and finite, got {cfg.theta}")
    if command != "evolve" and cfg.cclass in CLASSES and cfg.n > MAX_CLASS_N:
        raise UsageError(
            f"--n {cfg.n} is too large for the built-in class {cfg.cclass}: its dense "
            f"table takes 8*4^n = {8 * 4 ** cfg.n} bytes; use n <= {MAX_CLASS_N}")
    return cfg


def parse_config_file(path):
    """Key = value lines; # comments and blank lines ignored."""
    data = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        data[key.strip()] = value.strip()
    return data


def format_value(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_value(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


RENDER_ROWS = 1024  # rows formatted together: whole columns, in bounded memory


def _column(records, c):
    """Column c of `records` and the set of its cell types."""
    col = [rec.get(c) for rec in records]
    return col, set(map(type, col))


def _csv_lines(records, columns):
    cells = []
    for c in columns:
        col, kinds = _column(records, c)
        if kinds <= {float}:
            cells.append(map("{:.12g}".format, col))
        elif not any(issubclass(k, float) or k is type(None) for k in kinds):
            cells.append(map(str, col))
        else:
            cells.append(map(format_value, col))
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _json_lines(records, columns, template):
    cells = []
    for c in columns:
        col, kinds = _column(records, c)
        col = list(map(_json_value, col))
        if kinds <= {float, int, bool, type(None)}:
            cells.append(json.dumps(col)[1:-1].split(", "))
        else:
            cells.append(map(json.dumps, col))
    return "\n".join([template % cell for cell in zip(*cells)]) + "\n"


def rows_to_csv(records, columns):
    """A header line, then one line per record.  Each column is formatted
    whole, RENDER_ROWS records at a time: a column of floats alone in one
    pass, one with no float and no None by str, any other cell by cell."""
    body = [_csv_lines(records[i:i + RENDER_ROWS], columns)
            for i in range(0, len(records), RENDER_ROWS)]
    return (",".join(columns) + "\n" + "".join(body)).encode()


def rows_to_jsonl(records, columns):
    """One json object per record, as json.dumps writes it.  Each column is
    encoded whole, RENDER_ROWS records at a time: one json.dumps of the column
    list when no cell's text can hold the ", " separator, else cell by cell."""
    template = "{" + ", ".join(json.dumps(c).replace("%", "%%") + ": %s" for c in columns) + "}"
    return "".join([_json_lines(records[i:i + RENDER_ROWS], columns, template)
                    for i in range(0, len(records), RENDER_ROWS)]).encode()


def render(records, columns, fmt):
    if fmt == "csv":
        return rows_to_csv(records, columns)
    return rows_to_jsonl(records, columns)


def export(artifacts, out_dir):
    """Write name -> bytes artifacts under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, blob in artifacts.items():
        p = out / name
        p.write_bytes(blob)
        paths.append(p)
    return paths


def _build_class(cfg, domain):
    if cfg.cclass == "parities":
        return parity_class(domain.n)
    if cfg.cclass == "conjunctions":
        return conjunction_class(domain.n)
    if cfg.cclass == "disjunctions":
        return disjunction_class(domain.n)
    path = cfg.cclass.split(":", 1)[1]
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if line.strip() and not line.strip().startswith("#")]
    if not rows:
        raise UsageError(f"class file {path} contains no functions")
    try:
        mat = np.array(rows, dtype=np.float64)
    except ValueError as e:
        raise UsageError(f"class file {path}: {e}") from None
    return ConceptClass(f"file-{Path(path).stem}", domain, mat)


def _build_dist(cfg, domain, master, k):
    if cfg.dist == "uniform":
        return dist_uniform(domain)
    if cfg.dist == "random":
        return dist_random(domain, make_rng(master, k, "dist"))
    if cfg.dist.startswith("random:"):
        return dist_random(domain, make_rng(int(cfg.dist.split(":", 1)[1]), 0, "dist"))
    return dist_from_text(Path(cfg.dist.split(":", 1)[1]).read_text())


def _oracle_mode(cfg):
    """(mode, sample size) of the --oracle value: a mode, or empirical:<s> with s >= 1."""
    mode, colon, arg = cfg.oracle.partition(":")
    if mode == "empirical" and arg.isdecimal() and int(arg) >= 1:
        return mode, int(arg)
    if mode not in MODES or mode == "empirical" or colon:
        raise UsageError(f"--oracle must be one of {MODES} (empirical as empirical:<s> "
                         f"with an integer sample size s >= 1), got {cfg.oracle!r}")
    return mode, None


def _build_oracle(cfg, target, dist, master, k):
    mode, sample_size = _oracle_mode(cfg)
    return SQOracle(target, dist, mode=mode, seed=make_rng(master, k, "oracle").integers(2 ** 63),
                    sample_size=sample_size)


def _learn_one(cfg, k, master):
    domain = Domain(cfg.n)
    cclass = _build_class(cfg, domain)
    target = cclass[int(make_rng(master, k, "target").integers(len(cclass)))]
    dist = _build_dist(cfg, domain, master, k)
    oracle = _build_oracle(cfg, target, dist, master, k)
    gen = class_pool_generator(cclass, gamma=4 * cfg.tau)
    hyp, trace = projected_learner(gen, oracle, cfg.tau, audit_target=target)
    ledger = math.ceil(1 / (3 * cfg.tau * cfg.tau))
    gap = oracle.audit()  # -inf when no logged answer is checkable (empirical)
    summary = {
        "seed": master,
        "halt": trace.halt_reason,
        "updates": trace.updates,
        "queries": trace.queries,
        "final_disagreement": disagreement(hyp, target, dist),
        "ledger": ledger,
        "audit_gap": gap if gap > -math.inf else None,
    }
    if trace.halt_reason == "oracle-violation":
        overrun = (f"{trace.updates} accepted updates exceed the ledger ceil(1/(3*tau^2)) = "
                   f"{ledger} at tau={cfg.tau}")
        if oracle.mode != "empirical":
            raise InvariantBreachError(
                f"update-count ledger exhausted: {overrun}; the oracle's answers are "
                "inconsistent with any single target")
        # a mean of s draws is within tau only with high probability, so an
        # overrun is a possible outcome of a valid oracle, not a breach
        summary["halt"] = "empirical-overrun"
        summary["overrun"] = f"{overrun} with empirical:{oracle.sample_size} answers"
    name = f"learn_run{k:03d}.{cfg.fmt}"
    return name, render(trace.records(), LEARN_COLUMNS, cfg.fmt), summary


def _evolve_one(cfg, k, master):
    domain = Domain(cfg.n)
    rng_t = make_rng(master, k, "target")
    bits = int(rng_t.integers(1, 2 ** cfg.n))
    target = make_disjunction(domain, [i + 1 for i in range(cfg.n) if bits >> i & 1])
    dist = _build_dist(cfg, domain, master, k)
    gamma, _ = disjunction_params(cfg.n, cfg.epsilon)
    theta = cfg.theta if cfg.theta is not None else gamma / 8.0
    params, g, _delta = evolve_lsq_params(theta, cfg.epsilon, cfg.n + 2)
    mutator = disjunction_mutator(cfg.n, cfg.epsilon)
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    trace = evolve_run(mutator, params, target, dist, cfg.epsilon, g, r0,
                       evolve_streams(master, k))
    summary = {
        "seed": master,
        "reached_target": trace.reached_target,
        "monotone_within_slack": trace.monotone_within_slack,
        "monotone_vs_start": trace.monotone_vs_start,
        "final_perf": trace.final_perf,
        "generations": len(trace),
        **trace.outcomes,
    }
    name = f"evolve_run{k:03d}.{cfg.fmt}"
    return name, render(trace.records(), EVOLVE_COLUMNS, cfg.fmt), summary


def _dim_one(cfg, k, master):
    domain = Domain(cfg.n)
    cclass = _build_class(cfg, domain)
    dist = _build_dist(cfg, domain, master, k)
    fs = FnSet(domain, cclass.matrix)
    mode = "exact" if len(fs) <= 30 else "greedy"
    report = sq_dim(fs, dist, mode=mode)
    rec = report.as_record()
    rec["witness"] = " ".join(str(i) for i in rec["witness"])
    rec["params"] = json.dumps(rec["params"], sort_keys=True).replace(",", ";")
    summary = {"seed": master, "value": report.value, "certainty": report.certainty}
    name = f"dim_run{k:03d}.{cfg.fmt}"
    return name, render([rec], DIM_COLUMNS, cfg.fmt), summary


def _agnostic_one(cfg, k, master):
    domain = Domain(cfg.n)
    cclass = _build_class(cfg, domain)
    dist = _build_dist(cfg, domain, master, k)
    phi = random_real_fn(domain, make_rng(master, k, "phi"))
    oracle = _build_oracle(cfg, phi, dist, master, k)
    pool = ApproxSet(domain, cclass.matrix, gamma=cfg.tau)
    hyp = weak_agnostic_learner(pool, oracle, cfg.tau)
    best = float(np.abs(oracle.true_values(pool.matrix)).max())  # the batch's truth, reused
    achieved = float(np.dot(dist.weights, hyp.values * phi.values))
    rec = {
        "seed": master,
        "best_correlation": best,
        "achieved_correlation": achieved,
        "guarantee_ok": achieved >= best - 2 * cfg.tau - 1e-12,
    }
    gap = oracle.audit()  # -inf for empirical answers, as in _learn_one
    summary = dict(rec, queries=oracle.query_count,
                   audit_gap=gap if gap > -math.inf else None)
    name = f"agnostic_run{k:03d}.{cfg.fmt}"
    return name, render([rec], AGNOSTIC_COLUMNS, cfg.fmt), summary


_RUNNERS = {
    "learn": _learn_one,
    "evolve": _evolve_one,
    "dim": _dim_one,
    "agnostic": _agnostic_one,
}


def _run_indexed(args):
    snapshot, k = args
    cfg = make_config(snapshot)
    return _RUNNERS[cfg.command](cfg, k, cfg.seeds[k])


def run_config(cfg):
    """Execute all runs of a config; returns (artifacts dict, summaries list).

    Artifacts are name -> bytes in run-index order, identical for any worker
    count.
    """
    jobs = [(cfg.snapshot(), k) for k in range(len(cfg.seeds))]
    if cfg.workers == 1 or len(jobs) == 1:
        results = [_run_indexed(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_indexed, jobs))
    artifacts = {}
    summaries = []
    for name, blob, summary in results:
        artifacts[name] = blob
        summaries.append(summary)
    return artifacts, summaries


def execute(cfg):
    """run_config + write artifacts and manifest under cfg.out."""
    t0 = time.monotonic()
    artifacts, summaries = run_config(cfg)
    paths = export(artifacts, cfg.out)
    manifest = {
        "config": cfg.snapshot(),
        "version": __version__,
        "results": [
            {k: _json_value(v) for k, v in s.items()} for s in summaries
        ],
        "wall_clock_s": round(time.monotonic() - t0, 3),
    }
    mpath = Path(cfg.out) / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2) + "\n")
    paths.append(mpath)
    return paths, summaries


def rerun_manifest(manifest_path, out=None):
    """Re-execute the config recorded in a manifest (traces are byte-identical)."""
    manifest = json.loads(Path(manifest_path).read_text())
    snapshot = dict(manifest["config"])
    if out is not None:
        snapshot["out"] = str(out)
    return execute(make_config(snapshot))
