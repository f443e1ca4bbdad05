"""Core SQ constructions.

* ``SQAlgorithm`` -- one method, ``run(ask)``: the algorithm asks its
  queries in rounds of matrix rows and returns its hypothesis.
  ``run_with_oracle`` answers each round with one ``SQOracle.query``.
* ``build_gpsi`` -- run any SQ algorithm while answering the correlational
  part of each query with its inner product against a reference function
  psi; the queried rows (plus sign(psi) and the algorithm's output) form a
  set that can distinguish any learnable target from psi.
* ``projected_learner`` -- iterative learner that maintains a real-valued
  approximation psi_i, queries the current candidate set, steps along the
  first function whose answer moves by >= 3*tau, and clamps back into the
  unit sup-norm ball.  The squared distance to the target drops by >= 3*tau^2
  per accepted step, which bounds the number of updates by ceil(1/(3 tau^2)).
* ``ExhaustiveCSQ`` -- baseline algorithm: one round of correlational queries,
  one per class member, then the argmax.
* ``weak_agnostic_learner`` -- scores a pool with one oracle batch (an
  agnostic source's, say) and returns the best member, signed.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import QueryBudgetError, UsageError
from .fnspace import ATOL, BoolFn, RealFn, check_matrix, project_unit, sign_of

agnostic_stat_query = None  # nothing calls it; perfbench's tracer patches this name


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
    """Statistical-query algorithm that asks its queries in rounds.

    Subclasses declare ``name``, ``tau`` and ``epsilon`` and implement
    ``run(ask)``, which returns the hypothesis (a BoolFn).  ``ask(phi1, phi2)``
    answers one round of general queries psi_i(x, b) = phi1_i(x)*b + phi2_i(x),
    one per row of the (k, 2^n) tables phi1 and phi2, at tolerance ``tau``,
    and returns the k answers.  phi1 and phi2 are the ``oracles.decompose``
    parts of the queries, taken row-wise; without phi2 the round is purely
    correlational.
    """

    name = "sq-algorithm"
    tau = None
    epsilon = None

    def run(self, ask):
        raise NotImplementedError


class ExhaustiveCSQ(SQAlgorithm):
    """Score every class member with one correlational query; return argmax.

    One round: the class matrix.  Queries at tolerance eps/2, so if the target
    is a member and the oracle is valid, the target scores >= 1 - eps/2 while
    an argmax impostor can beat it only if its true correlation is >= 1 - eps.
    First-index tie-break.
    """

    name = "exhaustive-csq"

    def __init__(self, cclass, eps):
        if not 0 < eps < 1:
            raise UsageError(f"eps must be in (0, 1), got {eps}")
        self.cclass = cclass
        self.epsilon = float(eps)
        self.tau = eps / 2.0

    def run(self, ask):
        return self.cclass[int(np.argmax(ask(self.cclass.matrix)))]


def run_with_oracle(alg, oracle):
    """Run an SQ algorithm against a live oracle and return its hypothesis.

    Each round goes to the oracle as one ``query`` at ``alg.tau``.
    """
    return alg.run(lambda phi1, phi2=None: oracle.query(phi1, alg.tau, phi2))


def build_gpsi(alg, psi, d, budget=100_000):
    """Extract a distinguishing set for `psi` by simulating `alg`.

    Each round of queries is answered as if the target were psi: row i gets
    <phi1_i, psi>_D + E_D[phi2_i].  The rounds' phi1 rows, in order, then
    sign(psi) and the algorithm's hypothesis form the set, so its size is the
    number of queries + 2.  A round that would take the query count past
    `budget` raises QueryBudgetError before it is answered.

    If the target f satisfies disagreement(f, sign(psi), d) > alg.epsilon +
    alg.tau, some member g has |<f - psi, g>_D| >= alg.tau: otherwise every
    simulated answer would have been valid for f, forcing the hypothesis (a
    set member) to land within alg.epsilon of f.
    """
    psi = _as_real(psi)
    w = d.weights
    psi_w = psi.values * w
    rounds = []
    asked = 0

    def ask(phi1, phi2=None):
        nonlocal asked
        asked += len(phi1)
        if asked > budget:
            raise QueryBudgetError(f"algorithm exceeded query budget {budget}")
        rounds.append(phi1)
        values = phi1 @ psi_w
        return values if phi2 is None else values + phi2 @ w

    hypothesis = alg.run(ask)
    mat = np.vstack(rounds + [sign_of(psi).values, hypothesis.values])
    mat.flags.writeable = False  # ours alone: ApproxSet keeps it without a copy
    return ApproxSet(psi.domain, mat, gamma=alg.tau,
                     provenance=f"simulated:{alg.name}")


def gpsi_generator(alg, d, budget=100_000):
    """Generator closure: psi -> distinguishing set via a run of `alg`."""
    return lambda psi: build_gpsi(alg, psi, d, budget=budget)


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

    def __init__(self, rows, halt_reason, updates):
        self.rows = rows
        self.halt_reason = halt_reason
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


def projected_learner(gen, oracle, tau, cap=None, audit_target=None):
    """Iterative clamped learner driven by candidate-set generation.

    Starts at psi_0 == 0.  Each round queries every member
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
    psi = RealFn(d.domain, np.zeros(d.domain.size))
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
    return sign_of(psi), LearnerTrace(rows, halt, updates)


def weak_agnostic_learner(pool, oracle, tau):
    """Best pool member against the oracle's source, oriented by its score sign.

    Asks one correlational query per member in one batch, picks g' maximizing
    |v(g)| (first-index tie-break) and returns sign(v(g'))*g'.  Against an
    agnostic source (target phi_A) the result h satisfies <h, phi_A>_D >=
    max_g |<g, phi_A>_D| - 2*tau for any valid answers.
    """
    mat = pool.matrix
    values = oracle.correlational_many(mat, tau)
    j = int(np.argmax(np.abs(values)))
    orient = 1.0 if values[j] >= 0 else -1.0
    return RealFn(pool.domain, orient * mat[j])
