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
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import QueryBudgetError, UsageError
from .fnspace import ATOL, BoolFn, RealFn, check_matrix, project_unit, sign_of
from .oracles import _check_tau, answer, correlational, csq_decompose
from .oracles import agnostic_stat_query  # noqa: F401 -- unused here; perfbench's tracer patches it


def _as_real(fn):
    return fn.as_real() if isinstance(fn, BoolFn) else fn


class ApproxSet:
    """Ordered set of candidate step directions, all in the unit sup-norm ball.

    `matrix` is the only storage: a read-only (k, 2^n) table, row i the i-th
    direction, k >= 1.  `gamma` is the claimed correlation threshold: for any
    target f outside the provenance-dependent ball around sign(psi), some
    member g is claimed to satisfy |<f - psi, g>_D| >= gamma.
    """

    __slots__ = ("domain", "matrix", "gamma", "provenance")

    def __init__(self, domain, matrix, gamma, provenance="user"):
        mat = check_matrix(domain, matrix, 1.0)
        if len(mat) == 0:
            raise UsageError("ApproxSet needs at least one member")
        if not 0 < gamma < math.inf:
            raise UsageError(f"gamma must be positive and finite, got {gamma}")
        self.domain = domain
        self.matrix = mat
        self.gamma = float(gamma)
        self.provenance = provenance

    def __len__(self):
        return len(self.matrix)


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
    psi = _as_real(psi)
    w = d.weights
    alg.reset()
    rows = []
    count = 0
    while (q := alg.next_query()) is not None:
        count += 1
        if count > budget:
            raise QueryBudgetError(f"algorithm exceeded query budget {budget}")
        if q.kind == "target_independent":
            alg.receive_answer(float(np.dot(w, q.phi.values)))
            continue
        if q.kind == "correlational":
            phi1, shift = q.phi, 0.0
        else:
            phi1, phi2 = csq_decompose(q)
            shift = float(np.dot(w, phi2.values))
        rows.append(phi1.values)
        alg.receive_answer(float(np.dot(psi.values * w, phi1.values)) + shift)
    rows.append(sign_of(psi).values)
    rows.append(alg.output().values)
    return ApproxSet(psi.domain, np.stack(rows), gamma=alg.tau,
                     provenance=f"simulated:{alg.name}")


def gpsi_generator(alg_factory, d, budget=100_000):
    """Generator closure: psi -> distinguishing set via a fresh algorithm run."""
    return lambda psi: build_gpsi(alg_factory(), psi, d, budget=budget)


def class_pool_generator(pool, gamma, provenance="class-pool"):
    """Generator closure returning a fixed pool regardless of psi; the pool's
    `matrix` (a ConceptClass's, say) is shared, not copied."""
    aset = ApproxSet(pool.domain, pool.matrix, gamma=gamma, provenance=provenance)
    return lambda psi: aset


@dataclass
class TraceRow:
    iteration: int
    chosen: Optional[int]
    gamma: Optional[float]
    potential: Optional[float]
    queries: int

    def as_record(self):
        return {k: v for k, v in asdict(self).items() if k != "chosen"}


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


def _first_hit(mat, values, v, threshold):
    """(j, gamma) for the first row j with |gamma = values[j] - mat[j] @ v| >=
    threshold, else (None, None).  Rows go in doubling blocks, so a hit at row
    j reads about 2j + 64 rows; blocks start at multiples of 64, so a BLAS that
    sums rows in groups sees the groups of one full product, bit for bit.
    """
    lo, size = 0, 64
    while lo < len(mat):
        diffs = values[lo:lo + size] - mat[lo:lo + size] @ v
        hits = np.flatnonzero(np.abs(diffs) >= threshold)
        if hits.size:
            return lo + int(hits[0]), float(diffs[hits[0]])
        lo, size = lo + size, 2 * size
    return None, None


def projected_learner(gen, oracle, tau, cap=None, audit_target=None,
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
    try:
        max_updates = math.ceil(1 / (3 * tau * tau))
    except (ZeroDivisionError, OverflowError):
        raise UsageError(
            f"tau={tau} is too small for the update ledger ceil(1/(3*tau^2)): "
            "3*tau^2 underflows to zero or its inverse overflows") from None
    d = oracle.dist
    w = d.weights
    psi = warm_start if warm_start is not None else RealFn(
        d.domain, np.zeros(d.domain.size))
    psi = _as_real(psi)
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
        queries += len(aset)
        j, gamma_i = _first_hit(mat, values, psi.values * w, 3 * tau)
        potential = None
        if audit_target is not None:
            potential = float(np.dot(w, (audit_target.values - psi.values) ** 2))
        if j is None:
            rows.append(TraceRow(i, None, None, potential, queries))
            halt = "converged"
            break
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

    Answers one correlational query per member, in one batch that draws
    randomness as the single queries would (its true values are summed in
    another order, so they can differ from single answers in the last bits),
    picks g' maximizing |v(g)| (first-index tie-break) and returns
    sign(v(g'))*g'.  The result h satisfies <h, phi_A>_D >= max_g
    |<g, phi_A>_D| - 2*tau for any valid answers.
    """
    _check_tau(tau)
    mat = pool.matrix
    truth = mat @ (a.phi.values * a.dist.weights)
    values = answer(truth, tau, mode, rng, sample_size, a._joint, lambda: np.hstack([mat, -mat]))
    j = int(np.argmax(np.abs(values)))
    orient = 1.0 if values[j] >= 0 else -1.0
    return RealFn(pool.domain, orient * mat[j])
