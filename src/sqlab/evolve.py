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
count rows, the pick uniform), each in blocks of generations, and selects
a block at a time, in one loop on buffers allocated once a run: per-call
draws and per-call interpreter work, not arithmetic, dominate a
generation's cost.

Empirical fitness draws a multinomial count vector over the (explicit)
domain, which is distribution-identical to averaging s i.i.d. point draws
but costs O(2^n) regardless of s -- the prescribed sample sizes reach 1e9+.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainMismatchError, ThetaExceedsEpsError, UsageError
from .fnspace import Domain, _check_domains, is_int, sign_of
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
    _check_domains(d, f, phi)
    return _fitness(np.vecdot(d.weights, _loss(f.values, phi.values[None])).item(), 4.0)


class _Mutator:
    """A uniform draw from a neighbourhood of fixed height k.  table(phi, out)
    writes the (k, 2^n) table of the neighbours of the incumbent table phi,
    the incumbent itself as the last row, into out.  `width` is the row
    length the mutator was built for, or None when only its table can tell."""

    width = None

    def __init__(self, k):
        if k < 1:
            raise UsageError(f"neighbourhood height k must be >= 1, got {k}")
        self.k = k


class NeighborhoodMutator(_Mutator):
    """neigh_fn(phi) returns the (k-1, 2^n) table of the other neighbours of
    phi, and phi's own bytes follow them as row k-1.  neigh_fn must be a
    function of phi's values: evolve_run calls it again only when the
    incumbent's bytes change."""

    def __init__(self, neigh_fn, k):
        super().__init__(k)
        self.neigh_fn = neigh_fn

    def table(self, phi, out):
        rows = self.neigh_fn(phi)
        shape = np.shape(rows)
        if shape[0] + 1 != self.k:
            raise UsageError(f"the neighbourhood has {shape[0] + 1} rows with phi; this "
                             f"mutator was built for k = {self.k}")
        if shape[1:] != out.shape[1:]:
            raise DomainMismatchError(f"the neighbourhood's rows have shape {shape[1:]}, "
                                      f"its table's {out.shape[1:]}")
        out[:-1] = rows
        out[-1] = phi


class StepMutator(_Mutator):
    """The neighbours clamp(phi + step), one per row of a (k, 2^n) step table
    fixed at construction, whose last row is zero: phi itself."""

    # 0-d bounds: a Python float costs the ufunc a scalar conversion per call
    _lo, _hi = np.array(-1.0), np.array(1.0)

    def __init__(self, steps):
        super().__init__(len(steps))
        self.steps = steps + 0.0  # no -0.0 step: see selnb's rebuild rule
        self.width = steps.shape[1]

    def table(self, phi, out):
        """phi copied into every row of out, the steps added and the sums
        clamped in place (np.clip's wrapper costs more than the work).  A
        broadcast add costs about twice the broadcast copy and a same-shape
        add together."""
        out[...] = phi
        np.add(out, self.steps, out)
        np.maximum(out, self._lo, out=out)
        np.minimum(out, self._hi, out=out)


@dataclass
class SelNBParams:
    t: float
    p: int
    s: Optional[int]  # None = exact fitness: the s -> infinity mode, scored on D's weights

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
    """Yield the random draws of g generations, one draw block at a time.

    A block of b generations is (counts, fitness, picks): b lists of the k
    table rows' draw counts; the (b, k, 2^n) float64 point-count rows that
    score each table row, multinomial draws of s points each or, for exact
    fitness, D's weights in every row (a read-only broadcast view that draws
    nothing); and b pick uniforms, as a list.
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
        fitness = (np.broadcast_to(w, (b, k, len(w))) if s is None else
                   streams["fitness"].multinomial(s, w, size=(b, k)).astype(np.float64))
        yield counts, fitness, streams["pick"].random(b).tolist()


def selnb(params, f, a):
    """Tolerance-t selection for one run towards the ideal f, on the mutator
    a: returns that run's block runner, with the run's constants (f's values,
    the fitness scale, k and t) read and its table buffers allocated once
    here.  D enters only through the count rows of generation_draws.

    run(phi, counts, fitness, picks, losses) runs the generations of one
    draw block of generation_draws from the incumbent table phi, and writes
    the loss row of each generation's selected table (the incumbent's when
    the generation bottomed) into the rows of losses.  It returns (the next
    incumbent as a fresh array, or None when the block bottomed; the block's
    columns: the incumbent's fitness estimate, outcome, beneficial and
    neutral candidates, one entry a generation up to a bottom).

    One generation: every row of the k-row table gets its weighted loss
    against its own count row, scaled by 4 times that row's total (see
    _fitness): s, or 1 for exact fitness, whose count rows are D's weights.
    Drawn rows with identical bytes are one candidate, scored by its first
    drawn row; a row equal to the last, the incumbent, joins the incumbent's
    candidate, scored by the last row whether or not that row is drawn.  A
    candidate is beneficial when its fitness beats the incumbent's by t and
    neutral when it is within t.  The next table is picked
    frequency-weighted, by draw count, from the beneficial tier if nonempty,
    else from the neutral tier; outcome is "beneficial", "neutral" or, with
    both tiers empty, "bottom".

    The table, its loss rows and its row keys are rebuilt only when the
    incumbent's bytes differ from the table's last row.  That is exact: a
    NeighborhoodMutator's last row holds phi's own bytes, and its neigh_fn
    is a function of phi's values; a StepMutator's last row is
    clamp(phi + 0), and clamp(clamp(phi + 0) + s) == clamp(phi + s) for phi
    in [-1, 1] and steps s without -0.0.

    Neighbourhoods are a handful of rows, so the bookkeeping runs on Python
    ints and floats, in table-row order.
    """
    fv, t, k, table_of = f.values, params.t, a.k, a.table
    scale = 4.0 * (params.s or 1)  # see _fitness
    # f's values in every table row: a broadcast subtract costs about twice
    # a same-shape one
    fv_rows = np.tile(fv, (k, 1))
    costs = np.empty_like(fv_rows)
    # two table buffers, so a table is built from a row of the other one;
    # the buffers, their rows, their loss rows and their rows' bytes (one
    # void item a row) are views made once here, not once a generation
    tables = list(np.empty((2, k, len(fv))))
    table_rows = [list(table) for table in tables]
    row_keys = [table.view(np.dtype((np.void, fv.nbytes))).ravel() for table in tables]
    cost_rows = list(costs)
    rows = range(k)

    def build(phi, cur):
        """Write the table of phi into buffer cur and its loss rows into
        costs; returns its row keys."""
        table = tables[cur]
        table_of(phi, table)
        np.subtract(table, fv_rows, costs)
        np.multiply(costs, costs, costs)
        return row_keys[cur].tolist()

    # the current table's buffer and its row keys (None before the first build)
    state = [0, None]

    def run(phi, counts, fitness, picks, losses):
        cur, keys = state
        if keys is None or phi.tobytes() != keys[-1]:
            keys = build(phi, cur)
        mine = keys[-1]
        empirical, outcomes, benes, neuts = columns = [], [], [], []
        for i, c in enumerate(counts):
            sums = np.vecdot(fitness[i], costs).tolist()
            v_r = 1.0 - 2.0 * sums[-1] / scale
            bar = v_r + t
            groups = {}  # row bytes -> [first row drawn, draws]
            # a candidate's tiers follow from its fitness, so it joins them
            # when first drawn; two separate tests: rounding can let a row
            # pass both
            bene, neut = [], []
            for j, cj, key in zip(rows, c, keys):
                if cj:
                    grp = groups.get(key)
                    if grp is not None:
                        grp[1] += cj
                        continue
                    grp = groups[key] = [j, cj]
                    v = v_r if key == mine else 1.0 - 2.0 * sums[j] / scale
                    if v >= bar:
                        bene.append(grp)
                    if abs(v - v_r) < t:
                        neut.append(grp)
            empirical.append(v_r)
            if bene:
                tier, outcome = bene, "beneficial"
            elif neut:
                tier, outcome = neut, "neutral"
            else:
                losses[i] = cost_rows[-1]
                outcomes.append("bottom")
                benes.append(0)
                neuts.append(0)
                phi = None
                break
            outcomes.append(outcome)
            benes.append(len(bene))
            neuts.append(len(neut))
            # the first candidate whose running draw count passes u times the
            # tier's, or the last if rounding lets none pass
            x, drawn = picks[i] * sum([grp[1] for grp in tier]), 0
            for grp in tier:
                drawn += grp[1]
                if drawn > x:
                    break
            j = grp[0]
            losses[i] = cost_rows[j]
            phi = table_rows[cur][j]
            if keys[j] != mine:
                cur = 1 - cur
                keys = build(phi, cur)
                mine = keys[-1]
        state[:] = cur, keys
        return None if phi is None else phi.copy(), columns

    return run


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
    monotone_within_slack allows per-step slack t: slack_breaches counts the
    generations whose true perf dropped by more than t + 1e-12, and the
    flag is slack_breaches == 0.  `outcomes` counts the
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
        self.slack_breaches = int(np.count_nonzero(path[1:] < path[:-1] - t - 1e-12))
        self.monotone_within_slack = self.slack_breaches == 0
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
    if a.width not in (None, d.domain.size):
        raise DomainMismatchError(f"mutator rows of {a.width} points used with distribution "
                                  f"over n={d.domain.n} ({d.domain.size} points)")
    phi, w = r0.values, d.weights
    start = lperf(f, r0, d)
    run = selnb(params, f, a)
    # the selected loss rows of one draw block
    chosen = np.empty((min(_block_size(a, params, d), g), len(phi)))
    true_perf = np.empty(g)
    empirical, outcomes, bene, neut = columns = [], [], [], []
    done = 0  # generations run
    for counts, fitness, picks in generation_draws(a, params, d, g, streams):
        phi, block = run(phi, counts, fitness, picks, chosen)
        b = len(block[0])
        # the exact fitness of the block's selected rows, from one vecdot
        true_perf[done:done + b] = _fitness(np.vecdot(w, chosen[:b]), 4.0)
        done += b
        for column, part in zip(columns, block, strict=True):
            column += part
        if phi is None:
            break
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
