"""Core SQ constructions.

Every set of functions here is one ``fnspace.FnSet``, row i the i-th
function, with its ``sup``: a read-only (k, 2^n) table, a built-in class
that keeps none (``ClassSet``) or a stack of sets (``StackSet``); the
learners read it through ``correlate`` and ``row``.  A generator maps the
learner's current approximation psi, a read-only float64 table, to
``(rows, gamma)``: an FnSet in the unit ball, and the claimed threshold
gamma -- any target far enough from sign(psi) has some row g with
|<f - psi, g>_D| >= gamma.

* ``SQAlgorithm`` -- one method, ``run(ask)``: the algorithm asks its
  queries in rounds, each an FnSet, and returns its hypothesis.
  ``run_with_oracle`` answers each round with one ``SQOracle.query``.
* ``build_gpsi`` -- run any SQ algorithm against an exact oracle whose
  target is a reference function psi; the rounds' sets (plus sign(psi) and
  the algorithm's output) stack into a set that can distinguish any
  learnable target from psi.
  ``gpsi_generator`` pairs it with the algorithm's tau;
  ``class_pool_generator`` gives a fixed pool (a class, itself) and gamma.
* ``projected_learner`` -- iterative learner that maintains a real-valued
  approximation psi_i, queries the current candidate set, steps along the
  first function whose answer moves by >= 3*tau, and clamps back into the
  unit sup-norm ball, all on one float64 table.  The squared distance to the
  target drops by >= 3*tau^2 per accepted step, which bounds the number of
  updates by ceil(1/(3 tau^2)); each round logs one plain dict row.
* ``ExhaustiveCSQ`` -- baseline algorithm: one round of correlational queries,
  the class itself, then the argmax.
* ``weak_agnostic_learner`` -- scores a pool with one oracle batch (an
  agnostic source's, say) and returns the best member, signed.
"""

import math

import numpy as np

from .errors import QueryBudgetError, UsageError
from .fnspace import ATOL, FnSet, RealFn, StackSet, is_int, project_unit, sign_of
from .oracles import SQOracle, check_round

agnostic_stat_query = None  # nothing calls it; perfbench's tracer patches this name


def _pool(pool):
    """`pool` (an FnSet), once it is nonempty and in the unit ball."""
    if len(pool) == 0:
        raise UsageError("a pool needs at least one function")
    check_round(pool, pool.domain)
    return pool


def _check_budget(budget):
    if not (is_int(budget) and budget >= 0):
        raise UsageError(f"query budget must be an integer >= 0, got {budget!r}")


class SQAlgorithm:
    """Statistical-query algorithm that asks its queries in rounds.

    Subclasses declare ``tau`` and ``epsilon`` and implement ``run(ask)``,
    which returns the hypothesis (a BoolFn).  ``ask(fs, phi2=None)`` returns
    the answers, at tolerance ``tau``, to a round of general queries
    psi_i(x, b) = fs_i(x)*b + phi2_i(x) that passes ``oracles.check_round``:
    `fs` an FnSet, phi2 None (a correlational round) or a (k, 2^n) table.
    """

    tau = None
    epsilon = None

    def run(self, ask):
        raise NotImplementedError


class ExhaustiveCSQ(SQAlgorithm):
    """Score every class member with one correlational query; return argmax.

    One round: `cclass`, any FnSet of +-1 rows (a built-in class: one transform).
    Queries at tolerance eps/2, so if the target is a member and the oracle is
    valid, the target scores >= 1 - eps/2 while an argmax impostor can beat it
    only if its true correlation is >= 1 - eps.  First-index tie-break.
    """

    def __init__(self, cclass, eps):
        if not 0 < eps < 1:
            raise UsageError(f"eps must be in (0, 1), got {eps}")
        self.cclass = cclass
        self.epsilon = float(eps)
        self.tau = eps / 2.0

    def run(self, ask):
        return self.cclass[int(np.argmax(ask(self.cclass)))]


def run_with_oracle(alg, oracle):
    """Run an SQ algorithm against a live oracle and return its hypothesis.

    Each round goes to the oracle as one ``query`` at ``alg.tau``.
    """
    return alg.run(lambda fs, phi2=None: oracle.query(fs, alg.tau, phi2))


def build_gpsi(alg, psi, d, budget=100_000):
    """Extract a distinguishing set for `psi` by simulating `alg`.

    Each round of queries is answered as if the target were psi: by an exact
    SQOracle(psi, d), whose ``query`` checks it as a live oracle does; a round
    that takes the query count past `budget` (an integer >= 0) raises
    QueryBudgetError.  The set is a StackSet of the rounds' sets, uncopied,
    then a +-1 table of sign(psi) and the hypothesis.

    If the target f satisfies disagreement(f, sign(psi), d) > alg.epsilon +
    alg.tau, some member g has |<f - psi, g>_D| >= alg.tau: otherwise every
    simulated answer would have been valid for f, forcing the hypothesis (a
    set member) to land within alg.epsilon of f.
    """
    _check_budget(budget)
    oracle = SQOracle(psi, d)
    rounds = []

    def ask(fs, phi2=None):
        values = oracle.query(fs, alg.tau, phi2)
        if oracle.query_count > budget:
            raise QueryBudgetError(f"algorithm exceeded query budget {budget}")
        rounds.append(fs)
        return values

    hypothesis = alg.run(ask)
    ends = np.vstack([sign_of(psi).values, hypothesis.values])
    ends.flags.writeable = False  # ours alone: FnSet keeps it without a copy
    return StackSet(rounds + [FnSet(d.domain, ends)])


def gpsi_generator(alg, d, budget=100_000):
    """Generator: psi's table -> (distinguishing set via a run of `alg`, alg.tau)."""
    _check_budget(budget)
    return lambda psi: (build_gpsi(alg, RealFn(d.domain, psi), d, budget=budget), alg.tau)


def class_pool_generator(pool, gamma):
    """Generator returning (pool, gamma) for every psi: the pool itself (a
    class, say; never copied) and its claimed threshold gamma."""
    _pool(pool)
    if not 0 < gamma < math.inf:
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    claim = (pool, float(gamma))
    return lambda psi: claim


class LearnerTrace:
    """Per-round log of a projected_learner run and its update ledger.

    `rows` holds one artifact row per round: a dict of iteration, chosen (the
    stepped row's index, None on the converged round), gamma (its step, None
    likewise), potential ||f - psi_i||_D^2 and the queries asked so far.
    """

    def __init__(self, rows, halt_reason, updates, ledger):
        self.rows = rows
        self.halt_reason = halt_reason
        self.updates = updates
        self.ledger = ledger

    @property
    def queries(self):
        return self.rows[-1]["queries"] if self.rows else 0


def _first_hit(fs, values, v, threshold):
    """(j, gamma) for the first row j of the FnSet `fs` with |gamma = values[j] -
    row j @ v| >= threshold, else (None, None).  One pass reads every row; v is
    None for the zero vector, whose products are 0 and take no pass."""
    diffs = values if v is None else values - fs.correlate(v)
    hits = np.flatnonzero(np.abs(diffs) >= threshold)
    if hits.size:
        return int(hits[0]), float(diffs[hits[0]])
    return None, None


def projected_learner(gen, oracle, tau):
    """Iterative clamped learner driven by candidate-set generation.

    Starts at psi_0 == 0.  Each round, gen(psi_i) gives a set (an FnSet in
    the unit ball) and its claimed threshold gamma >= 4*tau; the round queries
    every member at tolerance `tau` and picks the FIRST g whose answer v(g)
    satisfies |v(g) - <psi_i, g>_D| >= 3*tau; then psi_{i+1} is the clamp of
    psi_i + gamma_i*g with gamma_i = v(g) - <psi_i, g>_D.  Halts with
    "converged" when no member qualifies, outputting sign(psi_i).  Round 0
    takes <psi_0, g>_D = 0 for every g, and so asks the set for no transform.

    psi is a read-only float64 table from start to end, and the generator
    gets it as one; the output alone is a validated function.  A valid oracle
    admits at most ceil(1/(3*tau^2)) accepted updates; one more means the
    oracle lied or the generator's threshold claim is false, and the run
    halts with "oracle-violation".  Every round that does not converge
    accepts an update, so these are the only two halts.

    The potential column ||f - psi_i||_D^2 reads the oracle's target f, which
    no learning decision reads.
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
    f = oracle.target.values
    psi = np.zeros(d.domain.size)
    updates = 0
    queries = 0
    rows = []
    halt = "oracle-violation"  # unless a round converges first
    for i in range(max_updates + 1):
        psi.flags.writeable = False  # the generator may keep it
        fs, claim = gen(psi)
        if not 4 * tau - ATOL <= claim < math.inf:
            raise UsageError(f"generator claims threshold {claim}, needs a finite "
                             f"value >= 4*tau = {4 * tau}")
        values = oracle.correlational_many(fs, tau)
        queries += len(fs)
        j, gamma_i = _first_hit(fs, values, psi * w if updates else None, 3 * tau)
        rows.append({"iteration": i, "chosen": j, "gamma": gamma_i,
                     "potential": float(np.dot(w, (f - psi) ** 2)), "queries": queries})
        if j is None:
            halt = "converged"
            break
        psi = np.clip(psi + gamma_i * fs.row(j), -1.0, 1.0)
        updates += 1
    return sign_of(project_unit(psi, d.domain)), LearnerTrace(rows, halt, updates, max_updates)


def weak_agnostic_learner(pool, oracle, tau):
    """Best pool member against the oracle's source, oriented by its score sign.

    Asks one correlational query per member of `pool` (a nonempty FnSet in
    the unit ball) in one batch, picks g' maximizing |v(g)| (first-index
    tie-break) and returns sign(v(g'))*g'.  Against an agnostic source (target
    phi_A) the result h satisfies <h, phi_A>_D >= max_g |<g, phi_A>_D| - 2*tau
    for any valid answers.
    """
    values = oracle.correlational_many(_pool(pool), tau)
    j = int(np.argmax(np.abs(values)))
    orient = 1.0 if values[j] >= 0 else -1.0
    return RealFn(pool.domain, orient * pool.row(j))
