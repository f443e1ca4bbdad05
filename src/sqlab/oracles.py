"""STAT oracles and the correlational-query decomposition.

An oracle answers queries for E[psi(x, b)] within the query's tolerance, where
x ~ D and the label b has E[b | x] = y(x): y is the Boolean target f for the
realizable source (b = f(x)) and phi_A for an agnostic source.  One
``SQOracle`` serves both sources, and every answer comes from its ``_answer``,
in one of these modes:

* ``exact``          -- returns the true expectation;
* ``grid_adversary`` -- rounds the true value to the nearest multiple of
  2*tau: provably valid (|v - true| <= tau) while destroying all sub-tau
  information;
* ``noisy``          -- adds seeded uniform noise in [-tau, tau];
* ``empirical``      -- averages psi over `sample_size` seeded i.i.d. labelled
  examples (only probabilistically valid; log entries are flagged);
* ``liar``           -- answers 1.0 to every query regardless of truth.  No
  single target is consistent with it, so a learner driving it trips the
  update-count ledger, and the audit of its log shows the lie.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidToleranceError,
    QueryRangeError,
    UsageError,
)
from .fnspace import ATOL, BoolFn, RealFn
from .rng import make_rng

MODES = ("exact", "grid_adversary", "noisy", "empirical", "liar")


def _check_tau(tau):
    # normal floats only: a subnormal tau overflows the grid adversary's 1/(2 tau)
    if not np.finfo(np.float64).tiny <= tau <= 1:
        raise InvalidToleranceError(f"tolerance must be in (0, 1], got {tau}")


class Query:
    """A statistical query: kind, query function, tolerance.

    kind 'general' carries the two label slices pos = psi(., +1) and
    neg = psi(., -1); 'correlational' and 'target_independent' carry a single
    RealFn phi.
    """

    __slots__ = ("kind", "phi", "pos", "neg", "tau", "domain")

    def __init__(self, kind, tau, phi=None, pos=None, neg=None, domain=None):
        _check_tau(tau)
        self.kind = kind
        self.tau = float(tau)
        if kind in ("correlational", "target_independent"):
            if not isinstance(phi, (RealFn, BoolFn)):
                raise UsageError(f"{kind} query needs a RealFn/BoolFn")
            self.phi = phi
            self.pos = self.neg = None
            self.domain = phi.domain
        elif kind == "general":
            pos = np.asarray(pos, dtype=np.float64)
            neg = np.asarray(neg, dtype=np.float64)
            if domain is None or pos.shape != (domain.size,) or neg.shape != (domain.size,):
                raise UsageError("general query needs a domain and full label slices")
            if np.abs(pos).max(initial=0.0) > 1 + ATOL or np.abs(neg).max(initial=0.0) > 1 + ATOL:
                raise QueryRangeError("query function must map into [-1, 1]")
            self.phi = None
            self.pos = pos
            self.neg = neg
            self.domain = domain
        else:
            raise UsageError(f"unknown query kind {kind!r}")


def correlational(phi, tau):
    return Query("correlational", tau, phi=phi)


def target_independent(phi, tau):
    return Query("target_independent", tau, phi=phi)


def general(domain, pos, neg, tau):
    return Query("general", tau, pos=pos, neg=neg, domain=domain)


def csq_decompose(q):
    """Split a general query into (phi1, phi2) with psi(x,l) = phi1(x)*l + phi2(x).

    phi1 = (psi(.,1) - psi(.,-1)) / 2 and phi2 = (psi(.,1) + psi(.,-1)) / 2,
    both members of the unit sup-norm ball.
    """
    if q.kind != "general":
        raise UsageError("csq_decompose expects a general query")
    phi1 = RealFn(q.domain, (q.pos - q.neg) / 2.0)
    phi2 = RealFn(q.domain, (q.pos + q.neg) / 2.0)
    return phi1, phi2


# The examples (x, b) live on 2m cells: (x, +1) for the first m, (x, -1) for
# the last m.  A source is the weight of each cell, a query psi its value there.

def _joint(w, y):
    """Cell weights of x ~ w with E[b | x] = y(x)."""
    p = (1.0 + y) / 2.0
    return np.concatenate([w * p, w * (1.0 - p)])


def _cells(q):
    """psi over the 2m cells, as a 1 x 2m table."""
    if q.kind == "general":
        return np.concatenate([q.pos, q.neg])[None]
    phi = q.phi.values
    return np.concatenate([phi, -phi if q.kind == "correlational" else phi])[None]


def true_query_value(q, target, dist):
    """Exact E_D[psi(x, b)] with E[b | x] = target(x), for a Boolean or real target."""
    if q.domain != dist.domain or q.domain != target.domain:
        raise DomainMismatchError("query, target and distribution must share a domain")
    if q.kind == "correlational":
        # the common case, without building the cell tables
        return float(np.dot(q.phi.values * dist.weights, target.values))
    return float(np.dot(_joint(dist.weights, target.values), _cells(q)[0]))


@dataclass
class LogEntry:
    kind: str
    tau: float
    value: float
    true_value: float
    probabilistic: bool = False

    def as_record(self):
        return asdict(self)


class SQOracle:
    """Statistical-query oracle for a fixed source: x ~ dist, E[b | x] = target(x).

    `target` is any label expectation in the unit ball: a BoolFn f for the
    realizable source (b = f(x)), or a RealFn phi_A for an agnostic one.

    Single-owner: the query log and the noise stream are mutable state, so an
    instance must not be shared between concurrent runs.
    """

    def __init__(self, target, dist, mode="exact", seed=0, sample_size=None):
        if target.domain != dist.domain:
            raise DomainMismatchError("target and distribution must share a domain")
        if mode not in MODES:
            raise UsageError(f"oracle mode must be one of {MODES}, got {mode!r}")
        if mode == "empirical" and not sample_size:
            raise UsageError("empirical mode needs a sample_size")
        self.target = target
        self.dist = dist
        self.mode = mode
        self.sample_size = sample_size
        self.query_count = 0
        self._batches = []      # (kind, tau, answers, truths) of each call
        self._last_batch = None  # (matrix, truths) of the last read-only batch matrix
        self._rng = make_rng(seed, purpose="oracle")
        self._joint = _joint(dist.weights, target.values)

    def _answer(self, truth, tau, cells):
        """The answers, in this oracle's mode, to queries whose true values are `truth`.

        Empirical mode draws the point counts of `sample_size` i.i.d. examples
        for all queries at once, one multinomial row over the cell weights per
        query -- the same distribution as averaging psi over that many draws --
        and averages the query table `cells()` (k x 2m, built only here) over
        them.
        """
        mode = self.mode
        if mode == "exact":
            return truth.copy()
        if mode == "grid_adversary":
            return np.round(truth / (2 * tau)) * 2 * tau
        if mode == "liar":
            return np.ones(len(truth))
        if mode == "noisy":
            return truth + self._rng.uniform(-tau, tau, len(truth))
        counts = self._rng.multinomial(self.sample_size, self._joint, size=len(truth))
        return np.einsum("ij,ij->i", counts, cells()) / self.sample_size

    def _log(self, kind, tau, values, truth):
        self.query_count += len(values)
        self._batches.append((kind, tau, np.array(values), truth))

    @property
    def query_log(self):
        """One LogEntry per answered query, in answer order (built on each access)."""
        probabilistic = self.mode == "empirical"
        return [LogEntry(kind, tau, float(v), float(t), probabilistic)
                for kind, tau, values, truth in self._batches
                for v, t in zip(values, truth)]

    def query(self, q):
        truth = np.array([true_query_value(q, self.target, self.dist)])
        values = self._answer(truth, q.tau, lambda: _cells(q))
        self._log(q.kind, q.tau, values, truth)
        return float(values[0])

    def true_values(self, mat):
        """<g, target>_D for each row g of `mat`, as a read-only vector.

        A read-only `mat` (a function set's) is taken not to change: its true
        values are reused while the next calls ask about the same matrix.
        """
        if self._last_batch is not None and self._last_batch[0] is mat:
            return self._last_batch[1]
        truth = mat @ (self.target.values * self.dist.weights)
        truth.flags.writeable = False
        self._last_batch = None if mat.flags.writeable else (mat, truth)
        return truth

    def correlational_many(self, mat, tau):
        """Batch of correlational queries, one per row of `mat`, in row order.

        Counts, logs and draws randomness exactly as len(mat) single
        correlational queries would; the true values (``true_values``) are
        summed in another order, so they can differ from single answers in
        the last bits.
        """
        _check_tau(tau)
        truth = self.true_values(mat)
        values = self._answer(truth, tau, lambda: np.hstack([mat, -mat]))
        self._log("correlational", tau, values, truth)
        return values

    def audit(self):
        """Max |answer - truth| - tau over all non-probabilistic logged queries."""
        return max((float(np.max(np.abs(values - truth))) - tau
                    for _, tau, values, truth in self._batches
                    if len(values) and self.mode != "empirical"), default=float("-inf"))
