"""Fitness-driven evolution of real-valued hypotheses.

Fitness of phi against the Boolean ideal f is 1 - 2*E_D[L(f,phi)]/L(-1,1),
so it lives in [-1,1] and equals 1 exactly at phi = f.  For quadratic loss,
2*(1 - fitness) = ||f - phi||_D^2.

Evolution works on raw value tables: the hypothesis is one length-2^n array,
and a neighbourhood is one (k, 2^n) candidate table per generation.

Selection (one generation): draw p candidates from the mutator, estimate
every distinct candidate's fitness (and the incumbent's) from s fresh draws
each, call a candidate beneficial when it beats the incumbent's estimate by
the tolerance t and neutral when it is within t, then pick
frequency-weighted from the beneficial tier if nonempty, else from the
neutral tier, else fail the run.

A run draws from four streams, one per purpose (mutation rows, laziness
uniforms, fitness count rows, the pick uniform), each in blocks of
generations: per-call draws, not arithmetic, dominate a generation's cost.

Empirical fitness draws a multinomial count vector over the (explicit)
domain, which is distribution-identical to averaging s i.i.d. point draws
but costs O(2^n) regardless of s -- the prescribed sample sizes reach 1e9+.
"""

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Optional

import numpy as np

from .errors import ThetaExceedsEpsError, UsageError
from .fnspace import Domain, sign_of
from .fnspace import project_unit  # noqa: F401 -- unused here; perfbench's tracer patches it
from .rng import make_rng


class Loss:
    __slots__ = ("kind", "span")

    def __init__(self, kind):
        if kind not in ("linear", "quadratic"):
            raise UsageError(f"loss kind must be linear or quadratic, got {kind!r}")
        self.kind = kind
        self.span = 2.0 if kind == "linear" else 4.0

    def table(self, f_values, phi_values):
        diff = phi_values - f_values
        return np.abs(diff) if self.kind == "linear" else diff * diff

    def __repr__(self):
        return f"Loss({self.kind!r})"


LINEAR = Loss("linear")
QUADRATIC = Loss("quadratic")


def _fitness(loss, costs, weights, total=1):
    """Fitness of each loss row of `costs` scored against its own weight row
    (or all against one weight vector): 1 - 2*<w, cost>/(total*span) as a
    list.  np.vecdot sums each row as np.dot does, in one call.
    """
    scale = total * loss.span
    return [1.0 - 2.0 * x / scale for x in np.vecdot(weights, costs).tolist()]


def lperf(loss, f, phi, d):
    """Fitness 1 - 2*E_D[L(f, phi)]/span, in [-1, 1]."""
    return _fitness(loss, loss.table(f.values, phi.values[None]), d.weights)[0]


def empirical_lperf(loss, f, phi, d, s, rng):
    """Fitness from s seeded i.i.d. draws (via multinomial point counts)."""
    if s < 1:
        raise UsageError(f"sample size must be >= 1, got {s}")
    counts = rng.multinomial(s, d.weights).astype(np.float64)
    return _fitness(loss, loss.table(f.values, phi.values[None]), counts, s)[0]


class NeighborhoodMutator:
    """Uniform draw from a neighbourhood table of fixed height k, optionally lazy.

    neigh_fn(phi, eps) returns the (k, 2^n) table of the neighbours of the
    incumbent table phi.  A draw is a uniform neighbour, or, with probability
    1 - delta_self, the incumbent itself.
    """

    def __init__(self, neigh_fn, k, delta_self=1.0):
        if k < 1:
            raise UsageError(f"neighbourhood height k must be >= 1, got {k}")
        if not 0 < delta_self <= 1:
            raise UsageError(f"delta_self must be in (0, 1], got {delta_self}")
        self.neigh_fn = neigh_fn
        self.k = k
        self.delta_self = delta_self

    def table(self, phi, eps):
        """The (k+1, 2^n) table: the k neighbours of phi, then phi as row k."""
        neigh = self.neigh_fn(phi, eps)
        if len(neigh) != self.k:
            raise UsageError(f"the neighbourhood has {len(neigh)} rows; this mutator "
                             f"was built for k = {self.k}")
        return np.concatenate((neigh, phi[None]))


@dataclass
class SelNBParams:
    loss: Loss
    t: float
    p: int
    s: Optional[int]  # None = exact fitness (the s -> infinity mode)

    def __post_init__(self):
        if self.t <= 0:
            raise UsageError(f"tolerance t must be positive, got {self.t}")
        if self.p < 1:
            raise UsageError(f"pool size p must be >= 1, got {self.p}")
        if self.s is not None and self.s < 1:
            raise UsageError(f"sample size s must be >= 1, got {self.s}")


STREAMS = ("mutate", "lazy", "fitness", "pick")
BLOCK = 256  # generations drawn per block
BLOCK_BYTES = 1 << 20  # fewer generations per block when one would pass this


def evolve_streams(master, k):
    """The per-purpose random streams of run k: purpose -> Generator."""
    return {purpose: make_rng(master, k, purpose) for purpose in STREAMS}


def _row_counts(a, p, b, streams):
    """How often each of the k+1 table rows is drawn among p draws, for each
    of b generations, as lists: lazy draws count toward row k."""
    rows = a.k + 1
    idx = streams["mutate"].integers(0, a.k, size=(b, p))
    if a.delta_self < 1:
        idx[streams["lazy"].random((b, p)) >= a.delta_self] = a.k
    idx += np.arange(0, b * rows, rows)[:, None]
    return np.bincount(idx.ravel(), minlength=b * rows).reshape(b, rows).tolist()


def generation_draws(a, params, d, g, streams):
    """Yield the random draws of g generations, one tuple per generation.

    A tuple is (counts, fitness, pick): the k+1 table rows' draw counts (see
    _row_counts); the (k+1, 2^n) float64 multinomial point-count rows that
    score each table row (None for exact fitness); and the pick uniform.
    Each stream is drawn in blocks of up to BLOCK generations, all with the
    same block boundaries, so a run's draws depend on (a, params, d, g,
    streams) alone.
    """
    p, s, w = params.p, params.s, d.weights
    rows = a.k + 1
    row_bytes = 8 * max(p, 0 if s is None else rows * len(w))
    block = max(1, min(BLOCK, BLOCK_BYTES // row_bytes))
    for start in range(0, g, block):
        b = min(block, g - start)
        # only one block's arrays live at a time, which keeps the peak
        # resident set at the per-generation draws' level
        counts = _row_counts(a, p, b, streams)  # frees its index block on return
        fitness = None  # frees the last block's rows before the next is drawn
        fitness = repeat(None, b) if s is None else \
            streams["fitness"].multinomial(s, w, size=(b, rows)).astype(np.float64)
        yield from zip(counts, fitness, streams["pick"].random(b).tolist())


@dataclass
class StepInfo:
    v_incumbent: float
    outcome: str  # beneficial | neutral | bottom
    bene_count: int
    neut_count: int
    distinct: int
    # the loss row of the returned table (of the incumbent when bottomed)
    cost: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


def selnb_step(params, f, d, a, phi, eps, draws):
    """One generation of tolerance-t selection from the incumbent table phi,
    on that generation's `draws` from generation_draws; returns (the next
    table or None, info).

    Every row of the (k+1)-row table is scored against its own count row.
    Drawn rows with identical bytes are one candidate, scored by its first
    row; a row equal to the incumbent joins the incumbent's candidate, scored
    by row k.  Candidate frequencies are the draw counts.  None means both
    tiers were empty.

    Neighbourhoods are a handful of rows, so the bookkeeping runs on Python
    ints and floats, in table-row order.
    """
    counts, fitness, u = draws
    table = a.table(phi, eps)
    costs = params.loss.table(f.values, table)
    if fitness is None:
        scores = _fitness(params.loss, costs, d.weights)
    else:
        scores = _fitness(params.loss, costs, fitness, params.s)
    k = a.k
    width = table.shape[1] * table.itemsize
    raw = table.tobytes()
    mine = raw[k * width:]
    groups = {}  # row bytes -> [first row drawn, draws, scored row]
    for j, c in enumerate(counts):
        if c:
            key = raw[j * width:(j + 1) * width]
            grp = groups.get(key)
            if grp is not None:
                grp[1] += c
            else:
                groups[key] = [j, c, k if key == mine else j]
    v_r, t = scores[k], params.t
    bene, neut = [], []  # two separate tests: rounding can let a row pass both
    for grp in groups.values():
        v = scores[grp[2]]
        if v >= v_r + t:
            bene.append(grp)
        if abs(v - v_r) < t:
            neut.append(grp)
    if bene:
        tier, outcome = bene, "beneficial"
    elif neut:
        tier, outcome = neut, "neutral"
    else:
        return None, StepInfo(v_r, "bottom", 0, 0, len(groups), costs[k])
    cum = list(accumulate([grp[1] for grp in tier]))
    j, _, r = tier[min(bisect_right(cum, u * cum[-1]), len(tier) - 1)]
    return table[j], StepInfo(v_r, outcome, len(bene), len(neut), len(groups), costs[r])


@dataclass
class GenRow:
    generation: int
    true_perf: float
    empirical_perf: float
    outcome: str
    bene_count: int
    neut_count: int

    def as_record(self):
        return dict(vars(self))   # the fields, in order; asdict is slow per generation


class EvolutionTrace:
    """Per-generation audit of an evolve_run.

    `true_perf` in row i is the exact fitness of the representation selected
    at generation i (the incumbent's when the step bottomed out).
    reached_target is judged on the final generation's true fitness;
    monotone_vs_start audits the no-regression clause exactly, while
    monotone_within_slack allows per-step slack t.  `outcomes` counts the
    beneficial, neutral and bottom generations.
    """

    def __init__(self, rows, start_perf, eps, t):
        self.rows = rows
        self.start_perf = start_perf
        trail = [r.true_perf for r in rows]
        self.bottomed = bool(rows) and rows[-1].outcome == "bottom"
        self.final_perf = trail[-1] if trail else start_perf
        self.reached_target = (not self.bottomed) and self.final_perf > 1 - eps
        path = [start_perf] + trail
        self.monotone_within_slack = all(
            path[i + 1] >= path[i] - t - 1e-12 for i in range(len(path) - 1))
        self.monotone_vs_start = all(v >= start_perf - 1e-12 for v in trail)
        tally = Counter(r.outcome for r in rows)
        self.outcomes = {k: tally[k] for k in ("beneficial", "neutral", "bottom")}

    def records(self):
        return [r.as_record() for r in self.rows]

    def __len__(self):
        return len(self.rows)


def evolve_run(a, params, f, d, eps, g, r0, streams):
    """Evolve for g generations (or until a bottomed step) from the function
    r0, on the per-purpose `streams` of evolve_streams."""
    if g < 1:
        raise UsageError(f"generation count must be >= 1, got {g}")
    phi = r0.values + 0.0  # + 0.0 turns -0.0 into 0.0, as a zero step row does
    loss = params.loss

    def true_perf(cost):
        # exact fitness from a loss row, as _fitness computes it
        return 1.0 - 2.0 * float(np.dot(d.weights, cost)) / loss.span

    start = true_perf(loss.table(f.values, phi))
    rows = []
    for gen, draws in enumerate(generation_draws(a, params, d, g, streams), 1):
        nxt, info = selnb_step(params, f, d, a, phi, eps, draws)
        rows.append(GenRow(gen, true_perf(info.cost), info.v_incumbent, info.outcome,
                           info.bene_count, info.neut_count))
        if nxt is None:
            break
        phi = nxt
    return EvolutionTrace(rows, start, eps, params.t)


def disjunction_params(n, eps):
    """Step size gamma = eps^1.5/21 and guaranteed per-step gain gamma^4/(8n)."""
    if not 0 < eps <= 1:
        raise UsageError(f"eps must be in (0, 1], got {eps}")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    gamma = eps ** 1.5 / 21.0
    return gamma, gamma ** 4 / (8.0 * n)


def _disjunction_steps(domain, gamma):
    """The (n+2, 2^n) step table: gamma*[x_i = 1] for each coordinate i, a
    zero row and -gamma."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    ups = [gamma * domain.coordinate(i) for i in range(1, domain.n + 1)]
    return np.vstack(ups + [np.zeros(domain.size), np.full(domain.size, -gamma)])


def disjunction_neighborhood(phi, gamma):
    """The n+2 step candidates as one table: clamp(phi + gamma*[x_i = 1]) for
    each coordinate, phi itself, and clamp(phi - gamma)."""
    return np.clip(phi.values + _disjunction_steps(phi.domain, gamma), -1.0, 1.0)


def disjunction_mutator(n, eps, delta_self=1.0):
    """Uniform mutator over the disjunction neighborhood at gamma(n, eps).

    The step table is built once, at construction; the eps passed per-call
    by the selection loop does not rescale it.
    """
    gamma, _ = disjunction_params(n, eps)
    steps = _disjunction_steps(Domain(n), gamma)

    def neighbours(phi, _eps):
        out = phi + steps  # clamped in place: np.clip's wrapper costs more than the work
        np.maximum(out, -1.0, out=out)
        return np.minimum(out, 1.0, out=out)

    return NeighborhoodMutator(neighbours, n + 2, delta_self=delta_self)


def sq_neighborhood(psi, eps, gpsi_builder, gamma):
    """Step candidates from a distinguishing set built at accuracy eps/4.

    Returns one table: clamp(psi + gamma*g) for every member g, then
    clamp(psi - gamma*g) for every member, then sign(psi): 2|G| + 1 rows.
    For every target f in the covered class, some row improves
    ||f - .||^2 by gamma^2 unless f is already within eps of sign(psi).
    """
    mat = gpsi_builder(psi, eps / 4.0).matrix
    steps = np.clip(np.vstack([psi.values + gamma * mat, psi.values - gamma * mat]), -1.0, 1.0)
    return np.vstack([steps, sign_of(psi).values])


C_HOEFFDING = 128.0  # the Hoeffding constant of the fitness sample size s


def evolve_lsq_params(theta, eps, neigh_size):
    """Selection parameters for quadratic-loss evolution with gain theta.

    g = ceil(8/theta) generations, tolerance t = 3*theta/8, pool size
    p = ceil(neigh_size*ln(4g/eps)), sample size s = ceil(C_HOEFFDING/theta^2 *
    ln(8pg/eps)), laziness delta = eps/(2g).  Natural logarithms.
    """
    if theta <= 0:
        raise UsageError(f"theta must be positive, got {theta}")
    if theta > eps:
        raise ThetaExceedsEpsError(
            f"theta={theta} exceeds eps={eps}; the gain parameter may be "
            "assumed <= eps")
    if neigh_size < 1:
        raise UsageError(f"neigh_size must be >= 1, got {neigh_size}")
    g = math.ceil(8.0 / theta)
    t = 3.0 * theta / 8.0
    p = math.ceil(neigh_size * math.log(4.0 * g / eps))
    s = math.ceil(C_HOEFFDING * theta ** -2 * math.log(8.0 * p * g / eps))
    delta = eps / (2.0 * g)
    return SelNBParams(QUADRATIC, t, p, s), g, delta
