"""Fitness-driven evolution of real-valued hypotheses.

Fitness of phi against the Boolean ideal f is 1 - 2*E_D[L(f,phi)]/L(-1,1)
for the square loss L(y, z) = (y - z)^2, so it lives in [-1,1], equals 1
exactly at phi = f, and 2*(1 - fitness) = ||f - phi||_D^2.

Evolution works on raw value tables: the hypothesis is one length-2^n array,
and a neighbourhood is one (k, 2^n) candidate table per generation.

Selection (one generation): draw p candidates from the mutator, estimate
every distinct candidate's fitness (and the incumbent's) from s fresh draws
each, call a candidate beneficial when it beats the incumbent's estimate by
the tolerance t and neutral when it is within t, then pick
frequency-weighted from the beneficial tier if nonempty, else from the
neutral tier, else fail the run.

A run draws from three streams, one per purpose (mutation rows, fitness
count rows, the pick uniform), each in blocks of generations: per-call
draws, not arithmetic, dominate a generation's cost.

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
from .fnspace import Domain, is_int, sign_of
from .fnspace import project_unit  # noqa: F401 -- unused here; perfbench's tracer patches it
from .rng import make_rng


def _loss(f_values, phi_values):
    """The square loss of each entry of phi_values against f_values, as a fresh array."""
    diff = phi_values - f_values  # the one allocation; the loss is taken in place
    return np.multiply(diff, diff, out=diff)


def _fitness(costs, weights, total=1):
    """Fitness of each loss row of `costs` scored against its own weight row
    (or all against one weight vector): 1 - 2*<w, cost>/(total*4) as a list,
    4 being the square loss of -1 against 1.  np.vecdot sums each row as
    np.dot does, in one call.
    """
    scale = total * 4.0
    return [1.0 - 2.0 * x / scale for x in np.vecdot(weights, costs).tolist()]


def lperf(f, phi, d):
    """Fitness 1 - 2*E_D[(f - phi)^2]/4, in [-1, 1]."""
    return _fitness(_loss(f.values, phi.values[None]), d.weights)[0]


class _Mutator:
    """A uniform draw from a neighbourhood of fixed height k.  table(phi, eps)
    gives the (k+1, 2^n) table: the k neighbours of the incumbent table phi,
    then phi as row k, which is scored but never drawn."""

    def __init__(self, k):
        if k < 1:
            raise UsageError(f"neighbourhood height k must be >= 1, got {k}")
        self.k = k


class NeighborhoodMutator(_Mutator):
    """neigh_fn(phi, eps) returns the (k, 2^n) table of the neighbours of phi."""

    def __init__(self, neigh_fn, k):
        super().__init__(k)
        self.neigh_fn = neigh_fn

    def table(self, phi, eps):
        neigh = self.neigh_fn(phi, eps)
        if len(neigh) != self.k:
            raise UsageError(f"the neighbourhood has {len(neigh)} rows; this mutator "
                             f"was built for k = {self.k}")
        return np.concatenate((neigh, phi[None]))


class StepMutator(_Mutator):
    """The neighbours clamp(phi + step), one per row of a (k, 2^n) step table
    fixed at construction; eps does not rescale it."""

    # 0-d bounds: a Python float costs the ufunc a scalar conversion per call
    _lo, _hi = np.array(-1.0), np.array(1.0)

    def __init__(self, steps):
        super().__init__(len(steps))
        # row k adds nothing: table() writes phi over it
        self.steps = np.vstack((steps, np.zeros(steps.shape[1])))

    def table(self, phi, eps):
        """One add into a fresh array, clamped in place (np.clip's wrapper
        costs more than the work), then phi as row k."""
        out = phi + self.steps
        np.maximum(out, self._lo, out=out)
        np.minimum(out, self._hi, out=out)
        out[self.k] = phi  # phi's own bytes: phi + 0.0 would turn a -0.0 into 0.0
        return out


@dataclass
class SelNBParams:
    t: float
    p: int
    s: Optional[int]  # None = exact fitness (the s -> infinity mode)

    def __post_init__(self):
        # NaN fails the comparison too
        if not 0 < self.t < math.inf:
            raise UsageError(f"tolerance t must be positive and finite, got {self.t}")
        # a float would divide the integer draw counts, a bool would pass as 1
        if not (is_int(self.p) and self.p >= 1):
            raise UsageError(f"pool size p must be an integer >= 1, got {self.p!r}")
        if self.s is not None and not (is_int(self.s) and self.s >= 1):
            raise UsageError(f"sample size s must be an integer >= 1, got {self.s!r}")


STREAMS = ("mutate", "fitness", "pick")
BLOCK = 256  # generations drawn per block
BLOCK_BYTES = 1 << 20  # fewer generations per block when one would pass this


def evolve_streams(master, k):
    """The per-purpose random streams of run k: purpose -> Generator."""
    return {purpose: make_rng(master, k, purpose) for purpose in STREAMS}


def _block_size(a, params, d):
    """Generations per block: BLOCK, or fewer when one block's largest array
    (the index block, the fitness count rows, or evolve_run's selected loss
    rows) would pass BLOCK_BYTES."""
    rows = 1 if params.s is None else a.k + 1
    return max(1, min(BLOCK, BLOCK_BYTES // (8 * max(params.p, rows * len(d.weights)))))


def _row_counts(a, p, b, streams):
    """How often each of the k neighbours is drawn among p draws, for each of
    b generations, as lists."""
    k = a.k
    idx = streams["mutate"].integers(0, k, size=(b, p))
    idx += np.arange(0, b * k, k)[:, None]
    return np.bincount(idx.ravel(), minlength=b * k).reshape(b, k).tolist()


def generation_draws(a, params, d, g, streams):
    """Yield the random draws of g generations, one tuple per generation.

    A tuple is (counts, fitness, pick): the k neighbours' draw counts; the
    (k+1, 2^n) float64 multinomial point-count rows that score each table
    row (None for exact fitness); and the pick uniform.
    Each stream is drawn in blocks of up to BLOCK generations, all with the
    same block boundaries, so a run's draws depend on (a, params, d, g,
    streams) alone.
    """
    p, s, w = params.p, params.s, d.weights
    rows = a.k + 1
    block = _block_size(a, params, d)
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
    k = a.k
    costs = _loss(f.values, table)
    scores = _fitness(costs, d.weights) if fitness is None else \
        _fitness(costs, fitness, params.s)
    width = table.shape[1] * table.itemsize
    raw = table.tobytes()
    mine = raw[k * width:]
    v_r, t = scores[k], params.t
    bar = v_r + t
    groups = {}  # row bytes -> [first row drawn, draws, scored row]
    # a candidate's tiers follow from its scored row, so it joins them when
    # first drawn; two separate tests: rounding can let a row pass both
    bene, neut = [], []
    for j, c in enumerate(counts):
        if c:
            key = raw[j * width:(j + 1) * width]
            grp = groups.get(key)
            if grp is not None:
                grp[1] += c
                continue
            r = k if key == mine else j
            grp = groups[key] = [j, c, r]
            v = scores[r]
            if v >= bar:
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


class EvolutionTrace:
    """Per-generation audit of an evolve_run.

    `rows` holds one artifact record per generation: a dict of generation,
    true_perf, empirical_perf (the incumbent's fitness estimate), outcome,
    bene_count and neut_count.  `true_perf` in row i is the exact fitness of
    the representation selected at generation i (the incumbent's when the
    step bottomed out).
    reached_target is judged on the final generation's true fitness;
    monotone_vs_start audits the no-regression clause exactly, while
    monotone_within_slack allows per-step slack t.  `outcomes` counts the
    beneficial, neutral and bottom generations.
    """

    def __init__(self, rows, start_perf, eps, t):
        self.rows = rows
        self.start_perf = start_perf
        trail = [r["true_perf"] for r in rows]
        self.bottomed = bool(rows) and rows[-1]["outcome"] == "bottom"
        self.final_perf = trail[-1] if trail else start_perf
        self.reached_target = (not self.bottomed) and self.final_perf > 1 - eps
        path = [start_perf] + trail
        self.monotone_within_slack = all(
            path[i + 1] >= path[i] - t - 1e-12 for i in range(len(path) - 1))
        self.monotone_vs_start = all(v >= start_perf - 1e-12 for v in trail)
        tally = Counter(r["outcome"] for r in rows)
        self.outcomes = {k: tally[k] for k in ("beneficial", "neutral", "bottom")}

    def __len__(self):
        return len(self.rows)


def evolve_run(a, params, f, d, eps, g, r0, streams):
    """Evolve for g generations (or until a bottomed step) from the function
    r0, on the per-purpose `streams` of evolve_streams."""
    if not (is_int(g) and g >= 1):  # a bool would pass as 1
        raise UsageError(f"generation count g must be an integer >= 1, got {g!r}")
    phi = r0.values + 0.0  # + 0.0 turns -0.0 into 0.0, as a zero step row does
    w = d.weights
    start = lperf(f, r0, d)
    # the selected loss rows of up to one draw block
    block = min(_block_size(a, params, d), g)
    chosen = np.empty((block, len(phi)))
    rows = []
    for gen, draws in enumerate(generation_draws(a, params, d, g, streams), 1):
        nxt, info = selnb_step(params, f, d, a, phi, eps, draws)
        i = (gen - 1) % block
        chosen[i] = info.cost
        rows.append({"generation": gen, "true_perf": None, "empirical_perf": info.v_incumbent,
                     "outcome": info.outcome, "bene_count": info.bene_count,
                     "neut_count": info.neut_count})
        if nxt is None or i == block - 1 or gen == g:
            # the exact fitness of the block's selected rows, from one vecdot
            for row, perf in zip(rows[gen - 1 - i:], _fitness(chosen[:i + 1], w)):
                row["true_perf"] = perf
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
    ups = [gamma * domain.coordinate(i) for i in range(1, domain.n + 1)]
    return np.vstack(ups + [np.zeros(domain.size), np.full(domain.size, -gamma)])


def disjunction_mutator(n, eps):
    """Uniform mutator over the n+2 disjunction neighbours of phi at gamma(n, eps):
    clamp(phi + gamma*[x_i = 1]) for each i, phi itself and clamp(phi - gamma).

    The step table is built once, at construction; the eps passed per-call
    by the selection loop does not rescale it.
    """
    gamma, _ = disjunction_params(n, eps)
    return StepMutator(_disjunction_steps(Domain(n), gamma))


def sq_neighborhood(psi, eps, gpsi_builder, gamma):
    """Step candidates from a distinguishing set built at accuracy eps/4.

    Returns one table: clamp(psi + gamma*g) for every member g, then
    clamp(psi - gamma*g) for every member, then sign(psi): 2|G| + 1 rows.
    For every target f in the covered class, some row improves
    ||f - .||^2 by gamma^2 unless f is already within eps of sign(psi).
    """
    gset = gpsi_builder(psi, eps / 4.0)
    steps = [psi.values + s * gamma * gset.row(i) for s in (1.0, -1.0) for i in range(len(gset))]
    return np.vstack([np.clip(steps, -1.0, 1.0), sign_of(psi).values])


C_HOEFFDING = 128.0  # the Hoeffding constant of the fitness sample size s
MAX_SAMPLE = 2 ** 63 - 1  # the largest s numpy's multinomial takes: an int64


def evolve_lsq_params(theta, eps, neigh_size):
    """Selection parameters for square-loss evolution with gain theta.

    g = ceil(8/theta) generations, tolerance t = 3*theta/8, pool size
    p = ceil(neigh_size*ln(4g/eps)), sample size s = ceil(C_HOEFFDING/theta^2 *
    ln(8pg/eps)).  Natural logarithms; returns (params, g).  A theta
    whose s passes MAX_SAMPLE is a usage error, and so is any value outside
    0 < theta <= eps <= 1 (NaN included); theta in (eps, 1] is a
    ThetaExceedsEpsError.
    """
    # NaN fails every comparison
    if not 0 < eps <= 1:
        raise UsageError(f"eps must be in (0, 1], got {eps}")
    if not 0 < theta <= 1:
        raise UsageError(f"theta must be in (0, 1], got {theta}")
    if theta > eps:
        raise ThetaExceedsEpsError(
            f"theta={theta} exceeds eps={eps}; the gain parameter may be "
            "assumed <= eps")
    if not (is_int(neigh_size) and neigh_size >= 1):
        raise UsageError(f"neigh_size must be an integer >= 1, got {neigh_size!r}")
    try:
        g = math.ceil(8.0 / theta)
        p = math.ceil(neigh_size * math.log(4.0 * g / eps))
        s = math.ceil(C_HOEFFDING * theta ** -2 * math.log(8.0 * p * g / eps))
    except OverflowError:  # theta ** -2, or a ceil of the inf that 8/theta or 4g/eps became
        s = None
    if s is None or s > MAX_SAMPLE:
        # s >= C_HOEFFDING/theta^2, whose decimal exponent stays finite
        size = f"= {s}" if s is not None else \
            f"> 10^{math.floor(math.log10(C_HOEFFDING) - 2 * math.log10(theta))}"
        raise UsageError(f"theta={theta} gives a fitness sample size s {size}, more than "
                         f"numpy's multinomial takes (at most {MAX_SAMPLE})")
    return SelNBParams(3.0 * theta / 8.0, p, s), g


def disjunction_lsq_params(n, eps, theta=None):
    """evolve_lsq_params over the n + 2 neighbours of disjunction_mutator(n, eps),
    at gain theta or, by default, gamma/8."""
    gamma, _ = disjunction_params(n, eps)
    return evolve_lsq_params(gamma / 8.0 if theta is None else theta, eps, n + 2)
