"""STAT oracles and the one check of a round of queries.

An oracle answers queries for E[psi(x, b)] within the query's tolerance, where
x ~ D and the label b has E[b | x] = y(x): y is the Boolean target f for the
realizable source (b = f(x)) and phi_A for an agnostic one.  A round of
queries psi_i(x, b) = phi1_i(x)*b + phi2_i(x) is an ``fnspace.FnSet`` of the
correlational parts phi1 and, optionally, a (k, 2^n) table of the
target-independent parts phi2 (Bshouty & Feldman 2002), held to the unit ball
by ``check_round`` for a live oracle and a simulated one alike.  One
``SQOracle`` serves both sources, and every correlational answer comes from
its ``_answer``, in one of these modes (a batch's answers are one read-only
array, which the oracle does not keep: its log keeps four numbers, a ``Batch``):

* ``exact``          -- returns the true expectation;
* ``grid_adversary`` -- rounds the true value to the nearest multiple of
  2*tau, stepped a float at a time toward the truth where rounding lands it
  past tau: valid (|v - true| <= tau, in floats as the audit checks) while
  destroying all sub-tau information;
* ``noisy``          -- adds seeded uniform noise in [-tau, tau];
* ``empirical``      -- averages psi over `sample_size` seeded i.i.d. labelled
  examples, one sample per batch that all its queries share (Kearns 1998:
  the queries are fixed before the sample is drawn); only probabilistically
  valid (``SQOracle.probabilistic``): the audit checks none of its batches;
* ``liar``           -- answers 1.0 to every query regardless of truth.  No
  single target is consistent with it, so a learner driving it trips the
  update-count ledger, and the audit of its log shows the lie.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidToleranceError,
    QueryRangeError,
    UsageError,
)
from .fnspace import ATOL, is_int
from .rng import make_rng

MODES = ("exact", "grid_adversary", "noisy", "empirical", "liar")
MAX_SAMPLE_SIZE = 2 ** 53  # the largest s whose counts' sums with +-1 rows are exact floats


def _check_tau(tau):
    # normal floats only: a subnormal tau overflows the grid adversary's 1/(2 tau)
    if not np.finfo(np.float64).tiny <= tau <= 1:
        raise InvalidToleranceError(f"tolerance must be in (0, 1], got {tau}")


def _check_domain(fs, domain):
    if fs.domain != domain:
        raise DomainMismatchError(
            f"queries over n={fs.domain.n} asked under a distribution over n={domain.n}")


def check_round(fs, domain, phi2=None):
    """`phi2` as a float array (or None), once the round (fs, phi2) over
    `domain` is in the unit ball: fs.sup <= 1 without phi2, else a phi2 of
    fs's shape with |fs_i| + |phi2_i| <= 1 at every point, read a row of fs
    at a time.  A range fault (NaN too) is a QueryRangeError."""
    _check_domain(fs, domain)
    if phi2 is None:
        if fs.sup <= 1 + ATOL:
            return None
        raise QueryRangeError(f"queries must map into [-1, 1]; the largest |entry| is {fs.sup:.6g}")
    phi2 = np.asarray(phi2, dtype=np.float64)
    if phi2.shape != fs.shape:
        raise UsageError(f"phi2 has shape {phi2.shape}, the round has {fs.shape}")
    for i, part in enumerate(phi2):
        # NaN fails the comparison too
        if not np.all(np.abs(fs.row(i)) + np.abs(part) <= 1 + ATOL):
            raise QueryRangeError(f"query {i} must map into [-1, 1]: |phi1| + |phi2| > 1")
    return phi2


class Batch(NamedTuple):
    """A nonempty batch's tolerance, query count, largest |answer - truth|
    and count of answers with |answer - truth| > tau."""
    tau: float
    queries: int
    worst_gap: float
    over_tau: int


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
        if sample_size is not None and not (is_int(sample_size)
                                            and 1 <= sample_size <= MAX_SAMPLE_SIZE):
            # a float size would divide integer counts, a bool would pass as 1
            raise UsageError(
                f"sample_size must be an integer >= 1 and <= 2^53, got {sample_size!r}")
        if mode == "empirical" and sample_size is None:
            raise UsageError("empirical mode needs a sample_size")
        self.target = target
        self.dist = dist
        self.mode = mode
        self.probabilistic = mode == "empirical"  # valid only w.h.p.: not audited
        self.sample_size = sample_size
        self.query_count = 0
        self.query_log = []     # a Batch per nonempty batch, in order
        self._last_batch = None  # (fs, truths) of the last FnSet asked
        self._rng = make_rng(seed, purpose="oracle")

    def _answer(self, truth, tau, fs):
        """The answers, in this oracle's mode, to the correlational queries
        (the functions of the FnSet `fs`) whose true values are `truth`.

        Exact answers are `truth` itself.  Empirical mode draws one sample of
        `sample_size` i.i.d. examples (x, b) for the whole batch, as one
        multinomial count vector over the 2m cells: (x, +1) for the first m,
        with weight D(x) * (1 + y(x))/2, and (x, -1) for the last m.  With c
        the +1 counts minus the -1 counts, every query phi scores
        fs.correlate(c) / sample_size, the mean of phi(x)*b over the sample:
        one class transform or one product, exact in any summation order for
        +-1 rows, as c is integer.  The batch is fixed before any answer, so
        the union bound over its queries holds for the shared sample.  An
        empty batch draws nothing.
        """
        mode = self.mode
        if mode == "exact":
            return truth
        if mode == "grid_adversary":
            grid = np.round(truth / (2 * tau)) * 2 * tau
            # float rounding can land a grid point just past tau: step each such
            # answer toward its truth, a float at a time, until the audit's test passes
            over = np.abs(grid - truth) > tau
            while over.any():
                grid[over] = np.nextafter(grid[over], truth[over])
                over = np.abs(grid - truth) > tau
            return grid
        if mode == "liar":
            return np.ones(len(truth))
        if mode == "noisy":
            return truth + self._rng.uniform(-tau, tau, len(truth))
        if not len(truth):
            return np.zeros(0)
        w, p = self.dist.weights, (1.0 + self.target.values) / 2.0
        counts = self._rng.multinomial(self.sample_size, np.concatenate([w * p, w * (1.0 - p)]))
        signed = (counts[:len(w)] - counts[len(w):]).astype(np.float64)
        return fs.correlate(signed) / self.sample_size

    @property
    def examples(self):
        """Labelled examples drawn so far: sample_size per nonempty batch in
        empirical mode, None in the modes that sample none."""
        if self.mode != "empirical":
            return None
        return self.sample_size * len(self.query_log)

    def query(self, fs, tau, phi2=None):
        """The answers to a round that passes ``check_round``: its FnSet `fs`
        as one ``correlational_many`` batch in this oracle's mode, plus the
        exact E_D[phi2_i], valid in every mode as phi2 ignores the target."""
        phi2 = check_round(fs, self.dist.domain, phi2)
        values = self.correlational_many(fs, tau)
        return values if phi2 is None else values + phi2 @ self.dist.weights

    def true_values(self, fs):
        """<g, target>_D for each function g of the FnSet `fs`, as a read-only
        vector.  An FnSet does not change: its true values are reused while the
        next calls ask about the same set.
        """
        if self._last_batch is not None and self._last_batch[0] is fs:
            return self._last_batch[1]
        _check_domain(fs, self.dist.domain)
        truth = fs.correlate(self.target.values * self.dist.weights)
        truth.flags.writeable = False
        self._last_batch = (fs, truth)
        return truth

    def correlational_many(self, fs, tau):
        """Batch of correlational queries, one per function of the FnSet `fs`
        over the oracle's domain, in row order, as a read-only vector; the log
        keeps its ``Batch``, not the answers.

        Counts as len(fs) correlational queries asked one at a time would, and
        noisy mode draws their noise as they would; empirical mode answers the
        whole batch from one sample.  The functions are taken as given:
        callers hold them in the unit ball (``query`` checks them).
        """
        _check_tau(tau)
        truth = self.true_values(fs)
        values = self._answer(truth, tau, fs)
        values.flags.writeable = False
        self.query_count += len(values)
        if values is truth and len(values):  # exact answers are the truth: no gap to measure
            self.query_log.append(Batch(tau, len(values), 0.0, 0))
        elif len(values):
            gaps = np.abs(values - truth)
            self.query_log.append(Batch(tau, len(values), float(np.max(gaps)),
                                        int(np.count_nonzero(gaps > tau))))
        return values

    def audit(self):
        """Max |answer - truth| - tau over the logged batches, or None when no
        logged answer is checkable: none was asked, or they are probabilistic."""
        return max((b.worst_gap - b.tau for b in self.query_log if not self.probabilistic),
                   default=None)
