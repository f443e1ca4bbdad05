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
from dataclasses import dataclass, field, fields
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


def _checked(convert, ok, rule):
    """The parser of one config key: `convert` of the value's text, which `ok`
    must accept; anything else is a usage error that names the key."""
    def parse(key, value):
        try:
            x = convert(str(value))
            if ok(x):
                return x
        except ValueError:
            pass
        raise UsageError(f"--{key} must be {rule}, got {value!r}")
    return parse


def _text(key, value):
    return str(value)


def _nonnegative_int(text):
    text = text.strip()
    if not text.isdecimal():
        raise ValueError(text)
    return int(text)


def _parse_seeds(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(_nonnegative_int(lo), _nonnegative_int(hi) + 1))
    return [_nonnegative_int(s) for s in text.split(",") if s.strip() != ""]


def _dist_ok(d):
    if d.startswith("random:"):
        return d[len("random:"):].strip().isdecimal()
    return d in ("uniform", "random") or d.startswith("file:")


def _oracle_mode(oracle):
    """(mode, sample size) of an --oracle value: a mode, or empirical:<s> with s >= 1."""
    mode, colon, arg = oracle.partition(":")
    if mode == "empirical" and arg.isdecimal() and int(arg) >= 1:
        return mode, int(arg)
    if mode not in MODES or mode == "empirical" or colon:
        raise ValueError(oracle)
    return mode, None


def _key(parse, help=None, readers=COMMANDS, **kw):
    """A config field: its parser, its --help text and the commands that read it."""
    return field(metadata={"parse": parse, "help": help, "readers": readers}, **kw)


@dataclass
class ExperimentConfig:
    """One row per config key.  Each key is a --flag and a config-file key of
    the same name, but `command`, which is the subcommand."""

    command: str = _key(_text)
    n: int = _key(_checked(int, lambda n: 1 <= n <= MAX_N, f"an integer in [1, {MAX_N}]"),
                  "number of variables", default=3)
    epsilon: float = _key(_checked(float, lambda e: 0 < e < 1, "a number in (0, 1)"),
                          "target accuracy", ("evolve",), default=0.1)
    tau: float = _key(_checked(float, lambda t: 0 < t < 1, "a number in (0, 1)"),
                      "oracle tolerance", ("learn", "agnostic"), default=0.05)
    cclass: str = _key(_checked(str, lambda c: c in CLASSES or c.startswith("file:"),
                                f"one of {CLASSES} or file:<path>"),
                       "parities | conjunctions | disjunctions | file:<path>",
                       ("learn", "dim", "agnostic"), default="conjunctions")
    dist: str = _key(_checked(str, _dist_ok, "uniform, random[:seed] or file:<path>"),
                     "uniform | random[:seed] | file:<path>", default="uniform")
    oracle: str = _key(_checked(str, _oracle_mode, f"one of {MODES}, empirical as "
                                "empirical:<s> with an integer sample size s >= 1"),
                       "exact | grid_adversary | noisy | empirical:<s> | liar",
                       ("learn", "agnostic"), default="exact")
    seeds: list = _key(_checked(_parse_seeds, bool, "a nonempty list of nonnegative "
                                "integers, 0,1,2 or 0..99"),
                       "comma list (0,1,2) or inclusive range (0..99)",
                       default_factory=lambda: [0])
    out: str = _key(_text, "output directory", default="out")
    fmt: str = _key(_checked(str, FORMATS.__contains__, f"one of {FORMATS}"),
                    "artifact format: csv | json", default="csv")
    workers: int = _key(_checked(int, lambda w: w >= 1, "an integer >= 1"),
                        "worker processes; artifacts do not depend on it", default=1)
    theta: float = _key(_checked(float, lambda t: 0 < t < math.inf,
                                 "a positive finite number"),
                        "evolution gain parameter (default gamma/8)", ("evolve",),
                        default=None)

    def snapshot(self):
        """key -> value for every key, seeds as text: make_config takes it back."""
        snap = {key: getattr(self, f.name) for key, f in KEYS.items()}
        snap["seeds"] = ",".join(map(str, self.seeds))
        return snap


# config key -> field of the table; two keys are not valid Python names
KEYS = {{"cclass": "class", "fmt": "format"}.get(f.name, f.name): f
        for f in fields(ExperimentConfig)}


def make_config(data):
    """Validate a key -> value mapping (values as text or as numbers) into an
    ExperimentConfig; a key absent or None takes its default."""
    data = {k: v for k, v in data.items() if v is not None}
    unknown = set(data) - set(KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if data.get("command") not in COMMANDS:
        raise UsageError(f"config key 'command' must be one of {COMMANDS}, "
                         f"got {data.get('command')!r}")
    cfg = ExperimentConfig(**{f.name: f.metadata["parse"](key, data[key])
                              for key, f in KEYS.items() if key in data})
    if cfg.oracle == "liar" and cfg.command == "agnostic":
        raise UsageError(
            "--oracle liar does not apply to agnostic: its pool learner keeps "
            "no update ledger that a lying oracle could trip")
    if cfg.command != "evolve" and cfg.cclass in CLASSES and cfg.n > MAX_CLASS_N:
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


def _build_oracle(cfg, target, dist, master, k):
    mode, sample_size = _oracle_mode(cfg.oracle)
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
