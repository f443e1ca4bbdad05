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

Empirical fitness draws a multinomial count vector over the (explicit)
domain, which is distribution-identical to averaging s i.i.d. point draws
but costs O(2^n) regardless of s -- the prescribed sample sizes reach 1e9+.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ThetaExceedsEpsError, UsageError
from .fnspace import Domain, sign_of
from .fnspace import project_unit  # noqa: F401 -- unused here; perfbench's tracer patches it


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


def _fitness(loss, f, rows, d, s=None, rng=None):
    """Fitness of each row of the table `rows` against the values f: exact
    under D (s None), or from s i.i.d. draws per row, drawn as one multinomial
    point-count row each.  One np.dot per row, because a matrix product sums
    in another order and moves the last bit.
    """
    losses = loss.table(f, rows)
    if s is None:
        weights, total = [d.weights] * len(rows), 1
    else:
        weights, total = rng.multinomial(s, d.weights, size=len(rows)).astype(np.float64), s
    return [1.0 - 2.0 * float(np.dot(c, cost)) / (total * loss.span)
            for c, cost in zip(weights, losses)]


def lperf(loss, f, phi, d):
    """Fitness 1 - 2*E_D[L(f, phi)]/span, in [-1, 1]."""
    return _fitness(loss, f.values, phi.values[None], d)[0]


def empirical_lperf(loss, f, phi, d, s, rng):
    """Fitness from s seeded i.i.d. draws (via multinomial point counts)."""
    if s < 1:
        raise UsageError(f"sample size must be >= 1, got {s}")
    return _fitness(loss, f.values, phi.values[None], d, s, rng)[0]


class NeighborhoodMutator:
    """Uniform draw from a neighbourhood table, optionally lazy.

    neigh_fn(phi, eps) returns the (k, 2^n) table of the neighbours of the
    incumbent table phi.  A draw is a uniform neighbour, or, with probability
    1 - delta_self, the incumbent itself.
    """

    def __init__(self, neigh_fn, delta_self=1.0):
        if not 0 < delta_self <= 1:
            raise UsageError(f"delta_self must be in (0, 1], got {delta_self}")
        self.neigh_fn = neigh_fn
        self.delta_self = delta_self

    def sample(self, phi, eps, rng, p):
        """(table, rows): the k neighbours of phi with phi appended as row k,
        and the row indices of p draws (k for a lazy draw)."""
        neigh = self.neigh_fn(phi, eps)
        rows = rng.integers(0, len(neigh), size=p)
        if self.delta_self < 1:
            rows[rng.random(p) >= self.delta_self] = len(neigh)
        return np.vstack([neigh, phi]), rows


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


@dataclass
class StepInfo:
    v_incumbent: float
    outcome: str  # beneficial | neutral | bottom
    bene_count: int
    neut_count: int
    distinct: int


def selnb_step(params, f, d, a, phi, eps, rng):
    """One generation of tolerance-t selection from the incumbent table phi;
    returns (the next table or None, info).

    Rows with identical bytes are one candidate.  Candidate frequencies are
    the observed relative counts among the p draws; the incumbent and then
    each distinct candidate, in order of first draw, get an independent
    fitness estimate.  None means both tiers were empty.
    """
    table, rows = a.sample(phi, eps, rng, params.p)
    first = {}
    group = np.array([first.setdefault(row.tobytes(), j) for j, row in enumerate(table)])
    drawn = group[rows]
    counts = np.bincount(drawn, minlength=len(table))
    order = np.array(list(dict.fromkeys(drawn.tolist())))
    me = group[-1]
    new = order[order != me]
    scores = _fitness(params.loss, f.values, table[np.append(me, new)], d, params.s, rng)
    v_r = scores[0]
    value = np.empty(len(table))
    value[me] = v_r
    value[new] = scores[1:]
    bene = order[value[order] >= v_r + params.t]
    neut = order[np.abs(value[order] - v_r) < params.t]
    if len(bene):
        tier, outcome = bene, "beneficial"
    elif len(neut):
        tier, outcome = neut, "neutral"
    else:
        return None, StepInfo(v_r, "bottom", 0, 0, len(order))
    info = StepInfo(v_r, outcome, len(bene), len(neut), len(order))
    freq = counts[tier].astype(np.float64)
    pick = np.searchsorted(np.cumsum(freq / freq.sum()), rng.random(), side="right")
    return table[tier[min(int(pick), len(tier) - 1)]], info


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
    monotone_within_slack allows per-step slack t.
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

    def records(self):
        return [r.as_record() for r in self.rows]

    def __len__(self):
        return len(self.rows)


def evolve_run(a, params, f, d, eps, g, r0, rng):
    """Evolve for g generations (or until a bottomed step) from the function r0."""
    if g < 1:
        raise UsageError(f"generation count must be >= 1, got {g}")
    phi = r0.values + 0.0  # + 0.0 turns -0.0 into 0.0, as a zero step row does

    def true_perf(phi):
        return _fitness(params.loss, f.values, phi[None], d)[0]

    start = true_perf(phi)
    rows = []
    for gen in range(1, g + 1):
        nxt, info = selnb_step(params, f, d, a, phi, eps, rng)
        if nxt is None:
            rows.append(GenRow(gen, true_perf(phi), info.v_incumbent, "bottom", 0, 0))
            break
        phi = nxt
        rows.append(GenRow(gen, true_perf(phi), info.v_incumbent, info.outcome,
                           info.bene_count, info.neut_count))
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
    return NeighborhoodMutator(lambda phi, _eps: np.clip(phi + steps, -1.0, 1.0),
                               delta_self=delta_self)


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


def evolve_lsq_params(theta, eps, neigh_size, c_hoeffding=128.0):
    """Selection parameters for quadratic-loss evolution with gain theta.

    g = ceil(8/theta) generations, tolerance t = 3*theta/8, pool size
    p = ceil(neigh_size*ln(4g/eps)), sample size s = ceil(c/theta^2 *
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
    s = math.ceil(c_hoeffding * theta ** -2 * math.log(8.0 * p * g / eps))
    delta = eps / (2.0 * g)
    return SelNBParams(QUADRATIC, t, p, s), g, delta
