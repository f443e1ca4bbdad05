"""Core SQ constructions.

* ``build_gpsi`` -- run any SQ algorithm while answering its correlational
  query parts with inner products against a reference function psi; the
  queried functions (plus sign(psi) and the algorithm's output) form a set
  that can distinguish any learnable target from psi.
* ``projected_learner`` -- iterative learner that maintains a real-valued
  approximation psi_i, queries the current candidate set, steps along the
  first function whose answer moves by >= 3*tau, and clamps back into the
  unit sup-norm ball.  The squared distance to the target drops by >= 3*tau^2
  per accepted step, which bounds the number of updates by ceil(1/(3 tau^2)).
* ``ExhaustiveCSQ`` -- baseline algorithm that scores every class member with
  one correlational query and returns the argmax.
* ``weak_agnostic_learner`` -- scores a pool against an agnostic source and
  returns the best member, signed.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import QueryBudgetError, UsageError
from .fnspace import ATOL, BoolFn, Dist, RealFn, project_unit, sign_of
from .oracles import agnostic_stat_query, correlational, csq_decompose


def _as_real(fn):
    return fn.as_real() if isinstance(fn, BoolFn) else fn


class ApproxSet:
    """Ordered set of candidate step directions, all in the unit sup-norm ball.

    `gamma` is the claimed correlation threshold: for any target f outside the
    provenance-dependent ball around sign(psi), some member g is claimed to
    satisfy |<f - psi, g>_D| >= gamma.
    """

    __slots__ = ("members", "gamma", "provenance", "_matrix")

    def __init__(self, members, gamma, provenance="user"):
        members = tuple(_as_real(m) for m in members)
        if not members:
            raise UsageError("ApproxSet needs at least one member")
        dom = members[0].domain
        if any(m.domain != dom for m in members):
            raise UsageError("ApproxSet members must share a domain")
        if gamma <= 0:
            raise UsageError("gamma must be positive")
        self.members = members
        self.gamma = float(gamma)
        self.provenance = provenance
        self._matrix = None

    def __len__(self):
        return len(self.members)

    @property
    def domain(self):
        return self.members[0].domain

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = np.stack([m.values for m in self.members])
        return self._matrix


class SQAlgorithm:
    """Interactive statistical-query algorithm.

    Subclasses implement ``reset``, ``next_query`` (None when finished),
    ``receive_answer`` and ``output``, and declare ``tau`` and ``epsilon``.
    """

    name = "sq-algorithm"
    tau = None
    epsilon = None

    def reset(self):
        raise NotImplementedError

    def next_query(self):
        raise NotImplementedError

    def receive_answer(self, value):
        raise NotImplementedError

    def output(self):
        raise NotImplementedError


class ExhaustiveCSQ(SQAlgorithm):
    """Score every class member with one correlational query; return argmax.

    Queries at tolerance eps/2, so if the target is a member and the oracle is
    valid, the target scores >= 1 - eps/2 while an argmax impostor can beat it
    only if its true correlation is >= 1 - eps.  First-index tie-break.
    """

    name = "exhaustive-csq"

    def __init__(self, cclass, eps):
        if len(cclass) == 0:
            raise UsageError("class must be nonempty")
        if not 0 < eps < 1:
            raise UsageError(f"eps must be in (0, 1), got {eps}")
        self.cclass = cclass
        self.epsilon = float(eps)
        self.tau = eps / 2.0
        self.reset()

    def reset(self):
        self._next = 0
        self._answers = []

    def next_query(self):
        if self._next >= len(self.cclass):
            return None
        q = correlational(self.cclass[self._next], self.tau)
        self._next += 1
        return q

    def receive_answer(self, value):
        self._answers.append(float(value))

    def output(self):
        if len(self._answers) != len(self.cclass):
            raise UsageError("algorithm has unanswered queries")
        return self.cclass[int(np.argmax(self._answers))]


def run_with_oracle(alg, oracle):
    """Drive an SQ algorithm against a live oracle and return its hypothesis."""
    alg.reset()
    while (q := alg.next_query()) is not None:
        alg.receive_answer(oracle.query(q))
    return alg.output()


def build_gpsi(alg, psi, d, budget=100_000):
    """Extract a distinguishing set for `psi` by simulating `alg`.

    Each query is split into a target-independent part (answered exactly under
    `d`) and a correlational part phi_i, which is answered with <psi, phi_i>_D
    and appended to the set.  After the run, sign(psi) and the algorithm's
    hypothesis are appended.  Set size = #correlational queries + 2.

    If the target f satisfies disagreement(f, sign(psi), d) > alg.epsilon +
    alg.tau, some member g has |<f - psi, g>_D| >= alg.tau: otherwise every
    simulated answer would have been valid for f, forcing the hypothesis (a
    set member) to land within alg.epsilon of f.
    """
    if not isinstance(psi, RealFn):
        psi = _as_real(psi)
    w = d.weights
    alg.reset()
    members = []
    count = 0
    while (q := alg.next_query()) is not None:
        count += 1
        if count > budget:
            raise QueryBudgetError(f"algorithm exceeded query budget {budget}")
        if q.kind == "target_independent":
            alg.receive_answer(float(np.dot(w, q.phi.values)))
            continue
        if q.kind == "correlational":
            phi1, shift = _as_real(q.phi), 0.0
        else:
            phi1, phi2 = csq_decompose(q)
            shift = float(np.dot(w, phi2.values))
        members.append(phi1)
        alg.receive_answer(float(np.dot(psi.values * w, phi1.values)) + shift)
    members.append(sign_of(psi).as_real())
    members.append(_as_real(alg.output()))
    return ApproxSet(members, gamma=alg.tau, provenance=f"simulated:{alg.name}")


def gpsi_generator(alg_factory, d, budget=100_000):
    """Generator closure: psi -> distinguishing set via a fresh algorithm run."""
    def gen(psi):
        return build_gpsi(alg_factory(), psi, d, budget=budget)
    return gen


def class_pool_generator(pool, gamma, provenance="class-pool"):
    """Generator closure returning a fixed pool regardless of psi."""
    members = [_as_real(m) for m in pool]
    aset = ApproxSet(members, gamma=gamma, provenance=provenance)
    return lambda psi: aset


@dataclass
class TraceRow:
    iteration: int
    chosen: Optional[int]
    gamma: Optional[float]
    potential: Optional[float]
    queries: int

    def as_record(self):
        return {
            "iteration": self.iteration,
            "gamma": self.gamma,
            "potential": self.potential,
            "queries": self.queries,
        }


class LearnerTrace:
    """Per-round log of a projected_learner run."""

    def __init__(self, rows, halt_reason, hypothesis, tau, updates):
        self.rows = rows
        self.halt_reason = halt_reason
        self.hypothesis = hypothesis
        self.tau = tau
        self.updates = updates

    def records(self):
        return [r.as_record() for r in self.rows]

    @property
    def queries(self):
        return self.rows[-1].queries if self.rows else 0


def projected_learner(gen, oracle, tau, eps, cap=None, audit_target=None,
                      warm_start=None):
    """Iterative clamped learner driven by candidate-set generation.

    Starts at psi_0 == 0 (or `warm_start`).  Each round queries every member
    of gen(psi_i) at tolerance `tau` and picks the FIRST g whose answer v(g)
    satisfies |v(g) - <psi_i, g>_D| >= 3*tau; then psi_{i+1} is the clamp of
    psi_i + gamma_i*g with gamma_i = v(g) - <psi_i, g>_D.  Halts with
    "converged" when no member qualifies, outputting sign(psi_i).

    A valid oracle admits at most ceil(1/(3*tau^2)) accepted updates; one more
    means the oracle lied or the generator's threshold claim is false, and the
    run halts with "oracle-violation".

    `audit_target` (optional, supplied by the harness, never read for
    learning) enables the potential column ||f - psi_i||_D^2 in the trace.
    """
    if not 0 < tau < 1 / 3:
        raise UsageError(f"tau must be in (0, 1/3), got {tau}")
    d = oracle.dist
    w = d.weights
    psi = warm_start if warm_start is not None else RealFn(
        d.domain, np.zeros(d.domain.size))
    psi = _as_real(psi)
    max_updates = math.ceil(1 / (3 * tau * tau))
    rounds = cap if cap is not None else max_updates + 1
    updates = 0
    queries = 0
    rows = []
    halt = "iteration-cap"
    for i in range(rounds):
        aset = gen(psi)
        if aset.gamma < 4 * tau - ATOL:
            raise UsageError(
                f"generator claims threshold {aset.gamma}, needs >= 4*tau = {4 * tau}")
        mat = aset.matrix
        values = oracle.correlational_many(mat, tau)
        current = mat @ (psi.values * w)
        queries += len(aset)
        diffs = values - current
        hits = np.abs(diffs) >= 3 * tau
        potential = None
        if audit_target is not None:
            potential = float(np.dot(w, (audit_target.values - psi.values) ** 2))
        if not hits.any():
            rows.append(TraceRow(i, None, None, potential, queries))
            halt = "converged"
            break
        j = int(np.argmax(hits))
        gamma_i = float(diffs[j])
        rows.append(TraceRow(i, j, gamma_i, potential, queries))
        psi = project_unit(psi.values + gamma_i * mat[j], d.domain)
        updates += 1
        if updates > max_updates:
            halt = "oracle-violation"
            break
    hypothesis = sign_of(psi)
    return hypothesis, LearnerTrace(rows, halt, hypothesis, tau, updates)


def exhaustive_csq_learner(cclass, oracle, eps):
    """One-shot baseline: query every member at tolerance eps/2, return argmax."""
    return run_with_oracle(ExhaustiveCSQ(cclass, eps), oracle)


def weak_agnostic_learner(pool, a, tau, mode="exact", rng=None, sample_size=None):
    """Best pool member against an agnostic source, oriented by its score sign.

    Queries v(g) for every member, picks g' maximizing |v(g)| (first-index
    tie-break) and returns sign(v(g'))*g'.  The result h satisfies
    <h, phi_A>_D >= max_g |<g, phi_A>_D| - 2*tau for any valid answers.
    """
    if len(pool) == 0:
        raise UsageError("pool must be nonempty")
    values = [
        agnostic_stat_query(a, correlational(g, tau), mode=mode, rng=rng,
                            sample_size=sample_size)
        for g in pool.members
    ]
    j = int(np.argmax(np.abs(values)))
    orient = 1.0 if values[j] >= 0 else -1.0
    return RealFn(pool.domain, orient * pool.members[j].values)
