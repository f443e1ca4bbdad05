"""Fitness-driven evolution of real-valued hypotheses.

Fitness of phi against the Boolean ideal f is 1 - 2*E_D[L(f,phi)]/L(-1,1)
for the square loss L(y, z) = (y - z)^2, so it lives in [-1,1], equals 1
exactly at phi = f, and 2*(1 - fitness) = ||f - phi||_D^2.

Evolution works on raw value tables: the hypothesis is one length-2^n array,
and a neighbourhood is one (k, 2^n) candidate table per generation, built
from the incumbent alone and holding it once, as its last row.

Selection (one generation): draw p candidates uniformly from the k rows,
estimate every distinct candidate's fitness (and the incumbent's) from s
fresh draws each, call a candidate beneficial when it beats the
incumbent's estimate by the tolerance t and neutral when it is within t,
then pick frequency-weighted from the beneficial tier if nonempty, else
from the neutral tier, else fail the run.

A run draws from three streams, one per purpose (mutation rows, fitness
count rows, the pick uniform), each in blocks of generations: per-call
draws, not arithmetic, dominate a generation's cost.

Empirical fitness draws a multinomial count vector over the (explicit)
domain, which is distribution-identical to averaging s i.i.d. point draws
but costs O(2^n) regardless of s -- the prescribed sample sizes reach 1e9+.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
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


def _fitness(x, scale):
    """Fitness 1 - 2x/scale of a weighted square-loss sum x (a float or an
    array of them), with scale = 4*total for weights that add up to total:
    4 is the square loss of -1 against 1."""
    return 1.0 - 2.0 * x / scale


def lperf(f, phi, d):
    """Fitness 1 - 2*E_D[(f - phi)^2]/4, in [-1, 1]."""
    return _fitness(np.vecdot(d.weights, _loss(f.values, phi.values[None])).item(), 4.0)


class _Mutator:
    """A uniform draw from a neighbourhood of fixed height k.  table(phi)
    gives the (k, 2^n) table of the neighbours of the incumbent table phi,
    the incumbent itself as the last row."""

    def __init__(self, k):
        if k < 1:
            raise UsageError(f"neighbourhood height k must be >= 1, got {k}")
        self.k = k


class NeighborhoodMutator(_Mutator):
    """neigh_fn(phi) returns the (k-1, 2^n) table of the other neighbours of
    phi, and phi follows them as row k-1."""

    def __init__(self, neigh_fn, k):
        super().__init__(k)
        self.neigh_fn = neigh_fn

    def table(self, phi):
        table = np.concatenate((self.neigh_fn(phi), phi[None]))
        if len(table) != self.k:
            raise UsageError(f"the neighbourhood has {len(table)} rows with phi; this "
                             f"mutator was built for k = {self.k}")
        return table


class StepMutator(_Mutator):
    """The neighbours clamp(phi + step), one per row of a (k, 2^n) step table
    fixed at construction, whose last row is zero: phi itself."""

    # 0-d bounds: a Python float costs the ufunc a scalar conversion per call
    _lo, _hi = np.array(-1.0), np.array(1.0)

    def __init__(self, steps):
        super().__init__(len(steps))
        self.steps = steps

    def table(self, phi):
        """phi copied into every row of a fresh array, the steps added and the
        sums clamped in place (np.clip's wrapper costs more than the work).
        A broadcast add costs about twice a same-shape one, and the broadcast
        copy much less."""
        out = np.empty(self.steps.shape)
        out[...] = phi
        np.add(out, self.steps, out=out)
        np.maximum(out, self._lo, out=out)
        np.minimum(out, self._hi, out=out)
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
    rows = 1 if params.s is None else a.k
    return max(1, min(BLOCK, BLOCK_BYTES // (8 * max(params.p, rows * len(d.weights)))))


def _row_counts(a, p, b, streams):
    """How often each of the k table rows is drawn among p draws, for each of
    b generations, as lists."""
    k = a.k
    idx = streams["mutate"].integers(0, k, size=(b, p))
    idx += np.arange(0, b * k, k)[:, None]
    return np.bincount(idx.ravel(), minlength=b * k).reshape(b, k).tolist()


def generation_draws(a, params, d, g, streams):
    """Yield the random draws of g generations, one tuple per generation.

    A tuple is (counts, fitness, pick): the k table rows' draw counts; the
    (k, 2^n) float64 multinomial point-count rows that score each table row
    (None for exact fitness); and the pick uniform.
    Each stream is drawn in blocks of up to BLOCK generations, all with the
    same block boundaries, so a run's draws depend on (a, params, d, g,
    streams) alone.
    """
    p, s, w, k = params.p, params.s, d.weights, a.k
    block = _block_size(a, params, d)
    for start in range(0, g, block):
        b = min(block, g - start)
        # only one block's arrays live at a time, which keeps the peak
        # resident set at the per-generation draws' level
        counts = _row_counts(a, p, b, streams)  # frees its index block on return
        fitness = None  # frees the last block's rows before the next is drawn
        fitness = repeat(None, b) if s is None else \
            streams["fitness"].multinomial(s, w, size=(b, k)).astype(np.float64)
        yield from zip(counts, fitness, streams["pick"].random(b).tolist())


def selnb(params, f, d, a):
    """Tolerance-t selection for one run towards the ideal f under D, on the
    mutator a: returns that run's selnb_step, with the run's constants (f's
    values, the weights, the fitness scale, k, the row width, t and a's
    table) read once here."""
    fv, w, t, k, table_of = f.values, d.weights, params.t, a.k, a.table
    # f's values in every table row: a broadcast subtract costs about twice
    # a same-shape one
    fv_rows = np.tile(fv, (k, 1))
    scale = 4.0 if params.s is None else params.s * 4.0  # see _fitness
    row_bytes = np.dtype((np.void, fv.nbytes))  # one table row as one bytes object

    def selnb_step(phi, draws):
        """One generation from the incumbent table phi, on that generation's
        `draws` from generation_draws: (the next table or None, the
        incumbent's fitness estimate, outcome, beneficial and neutral
        candidates, distinct candidates, the loss row of the next table or,
        when bottomed, of the incumbent).

        Every row of the k-row table gets its weighted loss against its own
        count row (against D's weights for exact fitness).  Drawn rows with
        identical bytes are one candidate, scored by its first row; a row
        equal to the last, the incumbent, joins the incumbent's candidate,
        scored by the last row whether or not that row is drawn.  A
        candidate is beneficial when its fitness beats the incumbent's by t
        and neutral when it is within t.  The next table is picked
        frequency-weighted, by draw count, from the beneficial tier if
        nonempty, else from the neutral tier; outcome is "beneficial",
        "neutral" or, with both tiers empty, "bottom".

        Neighbourhoods are a handful of rows, so the bookkeeping runs on
        Python ints and floats, in table-row order.
        """
        counts, fitness, u = draws
        table = table_of(phi)
        costs = _loss(fv_rows, table)
        sums = np.vecdot(w if fitness is None else fitness, costs).tolist()
        keys = table.view(row_bytes).ravel().tolist()
        mine = keys[-1]
        v_r = _fitness(sums[-1], scale)
        bar = v_r + t
        groups = {}  # row bytes -> [first row drawn, draws, scored row]
        # a candidate's tiers follow from its fitness, so it joins them when
        # first drawn; two separate tests: rounding can let a row pass both
        bene, neut = [], []
        for j, c, key in zip(range(k), counts, keys):
            if c:
                grp = groups.get(key)
                if grp is not None:
                    grp[1] += c
                    continue
                if key == mine:
                    grp = groups[key] = [j, c, k - 1]
                    v = v_r
                else:
                    grp = groups[key] = [j, c, j]
                    v = _fitness(sums[j], scale)
                if v >= bar:
                    bene.append(grp)
                if abs(v - v_r) < t:
                    neut.append(grp)
        if bene:
            tier, outcome = bene, "beneficial"
        elif neut:
            tier, outcome = neut, "neutral"
        else:
            return None, v_r, "bottom", 0, 0, len(groups), costs[-1]
        # the first candidate whose running draw count passes u times the
        # tier's, or the last if rounding lets none pass
        x, drawn = u * sum([grp[1] for grp in tier]), 0
        for grp in tier:
            drawn += grp[1]
            if drawn > x:
                break
        j, _, r = grp
        return table[j], v_r, outcome, len(bene), len(neut), len(groups), costs[r]

    return selnb_step


class EvolutionTrace:
    """Per-generation audit of an evolve_run, one column per field.

    `columns` maps generation (a range), true_perf, empirical_perf (the
    incumbent's fitness estimate), outcome, bene_count and neut_count to
    equal-length sequences, entry i for generation i + 1; the constructor
    takes the mapping without generation, and needs true_perf (a list or
    an array) and outcome.  `true_perf` is the exact fitness of the
    representation selected at that generation (the incumbent's when the
    step bottomed out).
    reached_target is judged on the final generation's true fitness;
    monotone_vs_start audits the no-regression clause exactly, while
    monotone_within_slack allows per-step slack t.  `outcomes` counts the
    beneficial, neutral and bottom generations.
    """

    def __init__(self, columns, start_perf, eps, t):
        trail = np.asarray(columns["true_perf"], dtype=np.float64)
        outcome = columns["outcome"]
        self.columns = {"generation": range(1, len(trail) + 1), **columns,
                        "true_perf": trail.tolist()}
        self.start_perf = start_perf
        self.bottomed = bool(outcome) and outcome[-1] == "bottom"
        self.final_perf = float(trail[-1]) if len(trail) else start_perf
        self.reached_target = (not self.bottomed) and self.final_perf > 1 - eps
        path = np.concatenate(([start_perf], trail))
        self.monotone_within_slack = bool(np.all(path[1:] >= path[:-1] - t - 1e-12))
        self.monotone_vs_start = bool(np.all(trail >= start_perf - 1e-12))
        tally = Counter(outcome)
        self.outcomes = {k: tally[k] for k in ("beneficial", "neutral", "bottom")}

    def __len__(self):
        return len(self.columns["generation"])


def evolve_run(a, params, f, d, eps, g, r0, streams):
    """Evolve for g generations (or until a bottomed step) from the function
    r0, on the per-purpose `streams` of evolve_streams."""
    if not (is_int(g) and g >= 1):  # a bool would pass as 1
        raise UsageError(f"generation count g must be an integer >= 1, got {g!r}")
    phi, w = r0.values, d.weights
    start = lperf(f, r0, d)
    step = selnb(params, f, d, a)
    # the selected loss rows of up to one draw block
    block = min(_block_size(a, params, d), g)
    chosen = np.empty((block, len(phi)))
    true_perf = np.empty(g)
    empirical, outcomes, bene, neut = [], [], [], []
    done = 0  # generations whose true_perf is filled
    for gen, draws in enumerate(generation_draws(a, params, d, g, streams), 1):
        nxt, v_r, outcome, b, nt, _, cost = step(phi, draws)
        chosen[gen - done - 1] = cost
        empirical.append(v_r)
        outcomes.append(outcome)
        bene.append(b)
        neut.append(nt)
        if nxt is None or gen - done == block or gen == g:
            # the exact fitness of the block's selected rows, from one vecdot
            true_perf[done:gen] = _fitness(np.vecdot(w, chosen[:gen - done]), 4.0)
            done = gen
        if nxt is None:
            break
        phi = nxt
    return EvolutionTrace({"true_perf": true_perf[:done], "empirical_perf": empirical,
                           "outcome": outcomes, "bene_count": bene, "neut_count": neut},
                          start, eps, params.t)


def disjunction_params(n, eps):
    """Step size gamma = eps^1.5/21 and guaranteed per-step gain gamma^4/(8n)."""
    if not 0 < eps <= 1:
        raise UsageError(f"eps must be in (0, 1], got {eps}")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    gamma = eps ** 1.5 / 21.0
    return gamma, gamma ** 4 / (8.0 * n)


def _disjunction_steps(domain, gamma):
    """The (n+2, 2^n) step table: gamma*[x_i = 1] for each coordinate i,
    -gamma, then the zero row of phi itself."""
    ups = [gamma * domain.coordinate(i) for i in range(1, domain.n + 1)]
    return np.vstack(ups + [np.full(domain.size, -gamma), np.zeros(domain.size)])


def disjunction_mutator(n, eps):
    """Uniform mutator over the n+2 disjunction neighbours of phi at gamma(n, eps),
    bound at construction: clamp(phi + gamma*[x_i = 1]) for each i,
    clamp(phi - gamma), then phi itself."""
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
    at gain theta or, by default, gamma/8; returns (params, g, theta)."""
    gamma, _ = disjunction_params(n, eps)
    theta = gamma / 8.0 if theta is None else theta
    return (*evolve_lsq_params(theta, eps, n + 2), theta)
