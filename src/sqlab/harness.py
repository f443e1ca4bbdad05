"""Experiment orchestration: config parsing, seeded batch runs, exports.

A run is fully determined by (per-run master seed, run index, purpose tag):
every random stream is derived from those three, so results do not depend on
worker scheduling.  Each run returns its artifact's cells as ``Columns``,
name -> an equal-length column, and ``COLUMNS`` alone decides which of them
an artifact (CSV / JSON lines) holds, in a fixed order; artifacts are
rendered to bytes before writing, with floats at 12 significant digits,
making re-runs byte-identical.  The manifest (config
snapshot, code version, per-run summaries, wall clock) is written alongside
the artifacts; only the wall-clock field is allowed to differ between re-runs.
"""

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dimensions import sq_dim
from .errors import InvariantBreachError, UsageError
from .evolve import (disjunction_lsq_params, disjunction_mutator, disjunction_params, evolve_run,
                     evolve_streams)
from .fnspace import (
    MAX_CLASS_N,
    MAX_N,
    Domain,
    FnSet,
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
from .oracles import MAX_SAMPLE_SIZE, MODES, SQOracle
from .rng import make_rng
from .sqcore import class_pool_generator, projected_learner, weak_agnostic_learner

COMMANDS = ("learn", "evolve", "dim", "agnostic")
CLASSES = ("parities", "conjunctions", "disjunctions")
FORMATS = ("csv", "json")

COLUMNS = {  # command -> the columns of its artifacts: the ones written, in order
    "learn": ("iteration", "gamma", "potential", "queries"),
    "evolve": ("generation", "true_perf", "empirical_perf", "outcome", "bene_count", "neut_count"),
    "dim": ("value", "certainty", "witness", "params"),
    "agnostic": ("seed", "best_correlation", "achieved_correlation", "guarantee_ok"),
}


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
    """(mode, sample size) of an --oracle value: a mode, or empirical:<s>, 1 <= s <= 2^53."""
    mode, colon, arg = oracle.partition(":")
    if mode == "empirical" and arg.isdecimal() and 1 <= int(arg) <= MAX_SAMPLE_SIZE:
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
                                "empirical:<s> with an integer sample size 1 <= s <= 2^53"),
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
    # learn and agnostic read a built-in class through transforms, up to MAX_N; dim's
    # Gram reads one transform of D, but is itself a dense (2^n, 2^n) array
    if cfg.cclass in CLASSES and cfg.n > MAX_CLASS_N and cfg.command == "dim":
        raise UsageError(f"--n {cfg.n} is too large for dim on the built-in class "
                         f"{cfg.cclass}: its Gram takes 8*4^n = {8 * 4 ** cfg.n} bytes; "
                         f"use n <= {MAX_CLASS_N}")
    if cfg.command == "evolve":
        _evolve_params(cfg)
    return cfg


def parse_config_file(path):
    """Key = value lines; # comments and blank lines ignored, and a key given
    twice is a usage error."""
    data, lines = {}, {}  # key -> value, key -> line number
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise UsageError(f"{path}:{lineno}: key {key!r} is given already on "
                             f"line {lines[key]}")
        data[key], lines[key] = value, lineno
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


class Columns(dict):
    """An artifact's cells by column: name -> a sequence (a list or a range),
    all of one length.  As for a data frame, len() is that length, the
    number of rows, not the number of names: render's callers and
    perfbench's tracer count an artifact's rows as len() of its cells."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        lengths = set(map(len, self.values()))
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal lengths: {sorted(lengths)}")
        self.rows = lengths.pop() if lengths else 0

    def __len__(self):
        return self.rows

    @classmethod
    def of_rows(cls, rows):
        """The Columns of a nonempty list of row dicts, keyed as the first."""
        return cls({key: [row[key] for row in rows] for key in rows[0]})


RENDER_ROWS = 1024  # CSV rows formatted together: whole columns, in bounded memory


def _csv_cells(chunk):
    """The CSV text of each cell of a column chunk: a chunk of floats alone in
    one pass, one with no float and no None by str, any other cell by cell."""
    kinds = set(map(type, chunk))
    if kinds <= {float}:
        return map("{:.12g}".format, chunk)
    if not any(issubclass(k, float) or k is type(None) for k in kinds):
        return map(str, chunk)
    return map(format_value, chunk)


def rows_to_csv(columns, names):
    """A header line of `names`, then one line per row of the Columns
    `columns`, each column formatted RENDER_ROWS cells at a time."""
    cols = [columns[c] for c in names]
    body = []
    for i in range(0, len(columns), RENDER_ROWS):
        cells = [_csv_cells(col[i:i + RENDER_ROWS]) for col in cols]
        body.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return (",".join(names) + "\n" + "".join(body)).encode()


def rows_to_jsonl(columns, names):
    """One json object per row of the Columns `columns`, keyed by `names`,
    as json.dumps writes it."""
    cols = [list(map(_json_value, columns[c])) for c in names]
    return "".join([json.dumps(dict(zip(names, row))) + "\n" for row in zip(*cols)]).encode()


def render(columns, names, fmt):
    """The artifact bytes of the Columns `columns`: the columns `names`, in order."""
    if fmt == "csv":
        return rows_to_csv(columns, names)
    return rows_to_jsonl(columns, names)


def export(artifacts, out_dir):
    """Write name -> bytes artifacts under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, blob in artifacts.items():
        (out / name).write_bytes(blob)
    return [out / name for name in artifacts]


def _reads(entries):
    try:  # one entry per row, so the number of entries does not matter
        np.loadtxt(entries, dtype=np.float64, comments=None)
    except ValueError:
        return False
    return True


def _class_file_fault(raw):
    """The first line of class file text `raw` (numbered as in the file) with an
    entry np.loadtxt cannot read, or with another width than the first function's."""
    width = None
    for lineno, entries in enumerate(map(str.split, raw), 1):
        if not entries or entries[0].startswith("#"):
            continue
        if not _reads(entries):
            bad = next(e for e in entries if not _reads([e]))
            return f"line {lineno}: {bad!r} is not a number"
        width = width or len(entries)
        if len(entries) != width:
            return f"line {lineno} has {len(entries)} entries, not {width} like the first function"
    return "it is not a table of numbers"


# the value of a class file entry by the byte before its `1`: -1 after a `-`
_SIGN_AFTER = np.where(np.arange(256) == ord("-"), -1.0, 1.0)


def _sign_table(lines):
    """The float64 table of class file lines `lines` (stripped, no comments) when
    every entry is exactly `1` or `-1`, entries are separated by spaces or tabs
    and every line has as many entries as the first; else None.  Vectorised
    byte tests over the joined lines stand in for np.loadtxt's parse of each
    entry: the table is the one the float parse returns, +-1 by construction."""
    b = np.frombuffer(("\n" + "\n".join(lines) + "\n").encode(), dtype=np.uint8)
    one, minus, newline = b == ord("1"), b == ord("-"), b == ord("\n")
    sep = newline | (b == ord(" ")) | (b == ord("\t"))
    ones, minuses = np.count_nonzero(one), np.count_nonzero(minus)
    # every byte is 1, - or a separator, every - comes right before a 1 and every
    # 1 right before a separator: so each run between separators is 1 or -1
    if (ones + minuses + np.count_nonzero(sep) != len(b)
            or np.count_nonzero(minus[:-1] & one[1:]) != minuses
            or np.count_nonzero(one[:-1] & sep[1:]) != ones):
        return None
    before = np.flatnonzero(one[1:])  # the byte before each entry's 1
    width = ones // len(lines)  # at least 1: every line holds a 1
    # entries before each line break: 0, width, 2 * width, ...
    if np.searchsorted(before, np.flatnonzero(newline)).tolist() != list(range(0, ones + 1, width)):
        return None
    table = _SIGN_AFTER.take(b.take(before)).reshape(len(lines), width)
    table.flags.writeable = False
    return table


def _build_class(cfg, domain):
    if cfg.cclass == "parities":
        return parity_class(domain.n)
    if cfg.cclass == "conjunctions":
        return conjunction_class(domain.n)
    if cfg.cclass == "disjunctions":
        return disjunction_class(domain.n)
    path = cfg.cclass.split(":", 1)[1]
    raw = Path(path).read_text().split("\n")  # read_text makes \r\n and \r one \n
    lines = [s for s in map(str.strip, raw) if s and not s.startswith("#")]
    if not lines:
        raise UsageError(f"class file {path} contains no functions")
    # A file of 1 and -1 entries takes the vectorised pass, whose table is +-1 by
    # construction and skips the +-1 check; any other text goes to the float64
    # parse, which decides its values and messages.  comments=None:
    # a `#` after a value is a bad entry, not a comment.
    signs = _sign_table(lines)
    mat = signs
    if signs is None:
        try:
            mat = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            raise UsageError(f"class file {path}: {_class_file_fault(raw)}") from None
    if mat.shape[1] != domain.size:
        raise UsageError(f"class file {path}: its lines have {mat.shape[1]} entries, but "
                         f"--n {domain.n} needs 2^{domain.n} = {domain.size}")
    try:
        cclass = FnSet(domain, mat)
    except UsageError as e:
        raise UsageError(f"class file {path}: {e}") from None
    if signs is None and not np.all(np.abs(mat) == 1.0):
        raise UsageError(f"class file {path}: entries must be exactly -1 or +1")
    return cclass


def _build_dist(cfg, domain, master, k):
    if cfg.dist == "uniform":
        return dist_uniform(domain)
    if cfg.dist == "random":
        return dist_random(domain, make_rng(master, k, "dist"))
    if cfg.dist.startswith("random:"):
        return dist_random(domain, make_rng(int(cfg.dist.split(":", 1)[1]), 0, "dist"))
    path = cfg.dist.split(":", 1)[1]
    try:
        dist = dist_from_text(Path(path).read_text())
    except UsageError as e:
        raise UsageError(f"distribution file {path}: {e}") from None
    if dist.domain != domain:
        raise UsageError(f"distribution file {path} has n={dist.domain.n}, but --n is {domain.n}")
    return dist


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
    hyp, trace = projected_learner(gen, oracle, cfg.tau)
    summary = {
        "seed": master,
        "halt": trace.halt_reason,
        "updates": trace.updates,
        "queries": trace.queries,
        "final_disagreement": disagreement(hyp, target, dist),
        "ledger": trace.ledger,
        "audit_gap": oracle.audit(),
        "examples": oracle.examples,
    }
    if trace.halt_reason == "oracle-violation":
        overrun = (f"{trace.updates} accepted updates exceed the ledger ceil(1/(3*tau^2)) = "
                   f"{trace.ledger} at tau={cfg.tau}")
        if not oracle.probabilistic:
            raise InvariantBreachError(
                f"update-count ledger exhausted: {overrun}; the oracle's answers are "
                "inconsistent with any single target")
        # a mean of s draws is within tau only with high probability, so an
        # overrun is a possible outcome of a valid oracle, not a breach
        summary["halt"] = "empirical-overrun"
        summary["overrun"] = f"{overrun} with empirical:{oracle.sample_size} answers"
    return Columns.of_rows(trace.rows), summary


def _evolve_params(cfg):
    """(selection params, generations g, gain theta) of an evolve config.  An --epsilon
    whose default theta = gamma/8 gives no usable parameters is a usage error
    that names it."""
    try:
        return disjunction_lsq_params(cfg.n, cfg.epsilon, cfg.theta)
    except UsageError as e:
        if cfg.theta is not None:
            raise
        gamma, _ = disjunction_params(cfg.n, cfg.epsilon)
        raise UsageError(f"--epsilon {cfg.epsilon} gives gamma = eps^1.5/21 = {gamma}, and "
                         f"the default theta = gamma/8 = {gamma / 8.0} is unusable: {e}") from e


def _evolve_one(cfg, k, master):
    domain = Domain(cfg.n)
    rng_t = make_rng(master, k, "target")
    bits = int(rng_t.integers(1, 2 ** cfg.n))
    target = make_disjunction(domain, [i + 1 for i in range(cfg.n) if bits >> i & 1])
    dist = _build_dist(cfg, domain, master, k)
    mutator = disjunction_mutator(cfg.n, cfg.epsilon)
    params, g, theta = _evolve_params(cfg)
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    trace = evolve_run(mutator, params, target, dist, cfg.epsilon, g, r0,
                       evolve_streams(master, k))
    summary = {
        "seed": master,
        "k": mutator.k, "g": g, "p": params.p, "s": params.s, "t": params.t, "theta": theta,
        "reached_target": trace.reached_target,
        "monotone_within_slack": trace.monotone_within_slack,
        "slack_breaches": trace.slack_breaches,
        "monotone_vs_start": trace.monotone_vs_start,
        "final_perf": trace.final_perf,
        "generations": len(trace),
        **trace.outcomes,
    }
    return Columns(trace.columns), summary


def _dim_one(cfg, k, master):
    domain = Domain(cfg.n)
    cclass = _build_class(cfg, domain)
    dist = _build_dist(cfg, domain, master, k)
    report = sq_dim(cclass, dist)
    rec = {
        "value": report.value,
        "certainty": report.certainty,
        "witness": " ".join(map(str, report.witness)),
        "params": json.dumps(report.params, sort_keys=True).replace(",", ";"),
    }
    summary = {"seed": master, "value": report.value, "certainty": report.certainty,
               **report.search}
    return Columns.of_rows([rec]), summary


def _agnostic_one(cfg, k, master):
    domain = Domain(cfg.n)
    cclass = _build_class(cfg, domain)
    dist = _build_dist(cfg, domain, master, k)
    phi = random_real_fn(domain, make_rng(master, k, "phi"))
    oracle = _build_oracle(cfg, phi, dist, master, k)
    hyp = weak_agnostic_learner(cclass, oracle, cfg.tau)
    best = float(np.abs(oracle.true_values(cclass)).max())  # the batch's truth, reused
    achieved = float(np.dot(dist.weights, hyp.values * phi.values))
    rec = {
        "seed": master,
        "best_correlation": best,
        "achieved_correlation": achieved,
        "guarantee_ok": achieved >= best - 2 * cfg.tau - 1e-12,
    }
    return Columns.of_rows([rec]), dict(rec, queries=oracle.query_count,
                                        audit_gap=oracle.audit(), examples=oracle.examples)


# command -> runner: (cfg, run index k, master seed) -> (Columns, manifest summary)
_RUNNERS = {
    "learn": _learn_one,
    "evolve": _evolve_one,
    "dim": _dim_one,
    "agnostic": _agnostic_one,
}


def _run_indexed(args):
    """(artifact name, artifact bytes, summary) of run k of a validated config."""
    cfg, k = args
    columns, summary = _RUNNERS[cfg.command](cfg, k, cfg.seeds[k])
    blob = render(columns, COLUMNS[cfg.command], cfg.fmt)
    return f"{cfg.command}_run{k:03d}.{cfg.fmt}", blob, summary


def run_config(cfg):
    """Execute all runs of a config, validated once here (a hand-built one
    too); returns (artifacts dict, summaries list).  Artifacts are name ->
    bytes in run-index order, identical for any worker count."""
    cfg = make_config(cfg.snapshot())
    jobs = [(cfg, k) for k in range(len(cfg.seeds))]
    if cfg.workers == 1 or len(jobs) == 1:
        results = [_run_indexed(j) for j in jobs]
    else:
        # imported here: a process pool's modules take about 30 ms to load
        from concurrent.futures import ProcessPoolExecutor
        # no more workers than runs: a fork pool starts every worker at once
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs))) as pool:
            results = list(pool.map(_run_indexed, jobs))
    return {name: blob for name, blob, _ in results}, [summary for *_, summary in results]


def execute(cfg):
    """run_config + write artifacts and manifest under cfg.out."""
    t0 = time.monotonic()
    artifacts, summaries = run_config(cfg)
    paths = export(artifacts, cfg.out)
    manifest = {
        "config": cfg.snapshot(),
        "version": __version__,
        "results": [{k: _json_value(v) for k, v in s.items()} for s in summaries],
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
