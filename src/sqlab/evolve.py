"""Fitness-driven evolution of real-valued hypotheses.

Fitness of phi against the Boolean ideal f is 1 - 2*E_D[L(f,phi)]/L(-1,1),
so it lives in [-1,1] and equals 1 exactly at phi = f.  For quadratic loss,
2*(1 - fitness) = ||f - phi||_D^2.

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
from .fnspace import BoolFn, RealFn, project_unit, sign_of
from .sqcore import _as_real


class Loss:
    __slots__ = ("kind", "span")

    def __init__(self, kind):
        if kind not in ("linear", "quadratic"):
            raise UsageError(f"loss kind must be linear or quadratic, got {kind!r}")
        self.kind = kind
        self.span = 2.0 if kind == "linear" else 4.0

    def eval(self, y, yp):
        return abs(yp - y) if self.kind == "linear" else (yp - y) ** 2

    def table(self, f_values, phi_values):
        diff = phi_values - f_values
        return np.abs(diff) if self.kind == "linear" else diff * diff

    def __repr__(self):
        return f"Loss({self.kind!r})"


LINEAR = Loss("linear")
QUADRATIC = Loss("quadratic")


class Representation:
    """A hypothesis with a provenance tag; identity is the value table."""

    __slots__ = ("hypothesis", "tag", "key")

    def __init__(self, hypothesis, tag="initial"):
        self.hypothesis = _as_real(hypothesis)
        self.tag = tag
        self.key = self.hypothesis.values.tobytes()

    def __repr__(self):
        return f"Representation(tag={self.tag!r})"


def lperf(loss, f, phi, d):
    """Fitness 1 - 2*E_D[L(f, phi)]/span, in [-1, 1]."""
    phi = _as_real(phi)
    return 1.0 - 2.0 * float(np.dot(d.weights, loss.table(f.values, phi.values))) / loss.span


def empirical_lperf(loss, f, phi, d, s, rng):
    """Fitness from s seeded i.i.d. draws (via multinomial point counts)."""
    if s < 1:
        raise UsageError(f"sample size must be >= 1, got {s}")
    phi = _as_real(phi)
    counts = rng.multinomial(s, d.weights)
    total = float(np.dot(counts.astype(np.float64), loss.table(f.values, phi.values)))
    return 1.0 - 2.0 * total / (s * loss.span)


class MutationAlgorithm:
    """Randomized mutator with an enumerable support."""

    def support(self, r, eps):
        raise NotImplementedError

    def sample(self, r, eps, rng):
        raise NotImplementedError

    def sample_many(self, r, eps, rng, p):
        return [self.sample(r, eps, rng) for _ in range(p)]


class NeighborhoodMutator(MutationAlgorithm):
    """Uniform draw from a neighborhood function, optionally lazy.

    With probability `delta_self` emits a uniform member of
    neigh_fn(r, eps); otherwise emits r unchanged.  Support is the
    neighborhood plus r.
    """

    def __init__(self, neigh_fn, delta_self=1.0, tag="mutated"):
        if not 0 < delta_self <= 1:
            raise UsageError(f"delta_self must be in (0, 1], got {delta_self}")
        self.neigh_fn = neigh_fn
        self.delta_self = delta_self
        self.tag = tag

    def _neighbors(self, r, eps):
        return [Representation(fn, tag=self.tag) for fn in self.neigh_fn(r, eps)]

    def support(self, r, eps):
        out = self._neighbors(r, eps)
        if all(rep.key != r.key for rep in out):
            out.append(r)
        return out

    def sample(self, r, eps, rng):
        if self.delta_self < 1 and rng.random() >= self.delta_self:
            return r
        neigh = self._neighbors(r, eps)
        return neigh[int(rng.integers(len(neigh)))]

    def sample_many(self, r, eps, rng, p):
        neigh = self._neighbors(r, eps)
        idx = rng.integers(0, len(neigh), size=p)
        if self.delta_self < 1:
            lazy = rng.random(p) >= self.delta_self
            return [r if lazy[j] else neigh[idx[j]] for j in range(p)]
        return [neigh[j] for j in idx]


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


def _fitness(params, f, phi, d, rng):
    if params.s is None:
        return lperf(params.loss, f, phi, d)
    return empirical_lperf(params.loss, f, phi, d, params.s, rng)


def selnb_step(params, f, d, a, r, eps, rng):
    """One generation of tolerance-t selection; returns (next rep or None, info).

    Candidate frequencies are the observed relative counts among the p draws;
    each distinct candidate (and the incumbent) gets an independent fitness
    estimate.  None means both tiers were empty.
    """
    draws = a.sample_many(r, eps, rng, params.p)
    groups = {}
    order = []
    for rep in draws:
        if rep.key in groups:
            groups[rep.key][1] += 1
        else:
            groups[rep.key] = [rep, 1]
            order.append(rep.key)
    v_r = _fitness(params, f, r.hypothesis, d, rng)
    values = {r.key: v_r}
    for key in order:
        if key not in values:
            values[key] = _fitness(params, f, groups[key][0].hypothesis, d, rng)
    bene = [k for k in order if values[k] >= v_r + params.t]
    neut = [k for k in order if abs(values[k] - v_r) < params.t]
    if bene:
        tier, outcome = bene, "beneficial"
    elif neut:
        tier, outcome = neut, "neutral"
    else:
        return None, StepInfo(v_r, "bottom", 0, 0, len(order))
    info = StepInfo(v_r, outcome, len(bene), len(neut), len(order))
    counts = np.array([groups[k][1] for k in tier], dtype=np.float64)
    pick = np.searchsorted(np.cumsum(counts / counts.sum()), rng.random(), side="right")
    return groups[tier[min(int(pick), len(tier) - 1)]][0], info


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
    """Evolve for g generations (or until a bottomed step) from r0."""
    if g < 1:
        raise UsageError(f"generation count must be >= 1, got {g}")
    start = lperf(params.loss, f, r0.hypothesis, d)
    r = r0
    rows = []
    for gen in range(1, g + 1):
        nxt, info = selnb_step(params, f, d, a, r, eps, rng)
        if nxt is None:
            rows.append(GenRow(gen, lperf(params.loss, f, r.hypothesis, d),
                               info.v_incumbent, "bottom", 0, 0))
            break
        r = nxt
        rows.append(GenRow(gen, lperf(params.loss, f, r.hypothesis, d),
                           info.v_incumbent, info.outcome,
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


def disjunction_neighborhood(phi, gamma):
    """The n+2 step candidates: clamp(phi + gamma*[x_i = 1]) for each
    coordinate, phi itself, and clamp(phi - gamma)."""
    if gamma <= 0:
        raise UsageError(f"gamma must be positive, got {gamma}")
    phi = _as_real(phi)
    domain = phi.domain
    out = [
        project_unit(phi.values + gamma * domain.coordinate(i), domain)
        for i in range(1, domain.n + 1)
    ]
    out.append(phi)
    out.append(project_unit(phi.values - gamma, domain))
    return out


def disjunction_mutator(n, eps, delta_self=1.0):
    """Uniform mutator over the disjunction neighborhood at gamma(n, eps).

    The step size is fixed at construction; the eps passed per-call by the
    selection loop does not rescale it.
    """
    gamma, _ = disjunction_params(n, eps)
    return NeighborhoodMutator(
        lambda r, _eps: disjunction_neighborhood(r.hypothesis, gamma),
        delta_self=delta_self,
        tag="disjunction-evolver",
    )


def sq_neighborhood(psi, eps, gpsi_builder, gamma):
    """Step candidates from a distinguishing set built at accuracy eps/4.

    Returns clamp(psi + gamma*g) and clamp(psi - gamma*g) for every member g,
    plus sign(psi): 2|G| + 1 functions.  For every target f in the covered
    class, some member improves ||f - .||^2 by gamma^2 unless f is already
    within eps of sign(psi).
    """
    psi = _as_real(psi)
    aset = gpsi_builder(psi, eps / 4.0)
    domain = psi.domain
    out = [project_unit(psi.values + gamma * g, domain) for g in aset.matrix]
    out += [project_unit(psi.values - gamma * g, domain) for g in aset.matrix]
    out.append(sign_of(psi).as_real())
    return out


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
