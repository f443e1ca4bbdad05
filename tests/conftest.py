import numpy as np
import pytest

from sqlab.fnspace import ATOL, BoolFn, Domain, FnSet, dist_uniform
from sqlab.oracles import SQOracle
from sqlab.rng import make_rng


@pytest.fixture
def domain3():
    return Domain(3)


@pytest.fixture
def uniform3(domain3):
    return dist_uniform(domain3)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_bool_fn(domain, rng):
    """A uniform random +-1 table: each point -1 with probability 1/2."""
    return BoolFn(domain, np.where(rng.random(domain.size) < 0.5, -1.0, 1.0))


# The dense recurrence that built every built-in class table before the factor
# tables, kept as the reference their products are checked against: member
# t | 2^(i-1) is op(member t, lit_i) for t < 2^(i-1), with lit_i = +1 iff x_i = 1.
_CLASS_OPS = {
    "parities": (np.multiply, 1.0),
    "conjunctions": (np.minimum, 1.0),
    "disjunctions": (np.maximum, -1.0),
}


def class_table(kind, n):
    """Read-only +-1 (2^n, 2^n) table of class `kind` over n variables, all members in order."""
    op, start = _CLASS_OPS[kind]
    out = np.empty((1 << n, 1 << n))
    out[0] = start
    for i in range(1, n + 1):
        m = 1 << (i - 1)
        op(out[:m], np.where(np.arange(1 << n) >> (i - 1) & 1, 1.0, -1.0), out=out[m:2 * m])
    out.flags.writeable = False
    return out


def butterflies_in_place(x, step):
    """fnspace._butterflies with every stage on the vector itself, in place,
    pairs 2^i apart at stage i: the reference for its transposed low stages."""
    v = np.array(x, dtype=np.float64)
    for i in range(v.size.bit_length() - 1):
        halves = v.reshape(-1, 2, 1 << i)
        step(halves[:, 0], halves[:, 1])
    return v


def dense_class(kind, n):
    """The table FnSet of class `kind` over n variables (class_table): the
    dense reference for a built-in ClassSet, which keeps no table."""
    return FnSet.from_signs(Domain(n), class_table(kind, n))


def table_set(table):
    """The table FnSet of a (k, 2^n) table, or of one function's 2^n table,
    over the domain that its width gives."""
    table = np.asarray(table, dtype=np.float64)
    table = table.reshape(-1, table.shape[-1])
    return FnSet(Domain(table.shape[1].bit_length() - 1), table)


def rows_of(fs):
    """Every row of the FnSet `fs`, in order, as one new (k, 2^n) array: the
    dense copy of a set that keeps no table (a ClassSet or a StackSet)."""
    return np.array([fs.row(i) for i in range(len(fs))]).reshape(len(fs), fs.domain.size)


def decompose(pos, neg):
    """(phi1, phi2) with psi(x, b) = phi1(x)*b + phi2(x), from the label
    slices pos = psi(., +1) and neg = psi(., -1) (Bshouty & Feldman 2002).

    phi1 = (pos - neg) / 2 is the correlational part and phi2 = (pos + neg) / 2
    the target-independent one.  Tables or (k, 2^n) matrices of rows both
    work; for psi in [-1, 1], |phi1| + |phi2| = max(|pos|, |neg|) <= 1.
    """
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    return (pos - neg) / 2.0, (pos + neg) / 2.0


def greedy_extension(fs, d, witness, threshold):
    """`witness` extended in row order by each row of the FnSet `fs` whose
    |correlation| under `d` with every row taken so far is within `threshold`:
    an index set inclusion-maximal at that threshold."""
    absgram = np.abs(fs.gram(d.weights))
    out = list(witness)
    for j in range(len(fs)):
        if j not in out and all(absgram[j, c] <= threshold + ATOL for c in out):
            out.append(j)
    return out


def _cell_mean(pos, neg, y, w):
    """E[psi(x, b)] summed over the 2^(n+1) cells (x, b), where x ~ w,
    P(b = +1 | x) = (1 + y(x)) / 2, psi(x, +1) = pos(x) and psi(x, -1) = neg(x)."""
    p = (1.0 + y) / 2.0
    return float(np.sum(w * p * pos) + np.sum(w * (1.0 - p) * neg))


def _one_by_one(target, dist, mat, tau, mode="exact", seed=0, sample_size=None):
    """(answers, truths) an SQOracle owes the correlational rows of `mat` asked
    as one batch, row by row: each row's true value, then the mode's rule,
    drawing from the oracle's own "oracle" stream.  The empirical rule draws
    one sample of `sample_size` examples for the batch, and scores each row
    by its dense dot with the counts over the cells (x, +1) and (x, -1)."""
    rng = make_rng(seed, purpose="oracle")
    w, y = dist.weights, target.values
    p = (1.0 + y) / 2.0
    joint = np.concatenate([w * p, w * (1.0 - p)])
    mat = np.asarray(mat, dtype=np.float64)
    if mode == "empirical" and len(mat):
        counts = rng.multinomial(sample_size, joint)
    answers, truths = [], []
    for row in mat:
        truth = float(np.dot(row * w, y))
        if mode == "exact":
            value = truth
        elif mode == "grid_adversary":
            value = float(np.round(truth / (2 * tau)) * 2 * tau)
            while abs(value - truth) > tau:  # a float past tau: step toward the truth
                value = float(np.nextafter(value, truth))
        elif mode == "liar":
            value = 1.0
        elif mode == "noisy":
            value = truth + float(rng.uniform(-tau, tau))
        else:
            value = float(np.dot(counts, np.concatenate([row, -row]))) / sample_size
        answers.append(value)
        truths.append(truth)
    return answers, truths


class RecordingOracle(SQOracle):
    """An SQOracle that also keeps every batch it answers, as (tau, answers,
    truths): the per-answer record that SQOracle itself reduces to a Batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def correlational_many(self, fs, tau):
        values = super().correlational_many(fs, tau)
        self.batches.append((tau, values, self.true_values(fs)))
        return values

    @property
    def answers(self):
        """(tau, answer, truth) of every answer, in answer order."""
        return [(tau, float(v), float(t)) for tau, values, truths in self.batches
                for v, t in zip(values, truths)]


@pytest.fixture(scope="session")
def cell_mean():
    return _cell_mean


@pytest.fixture(scope="session")
def one_by_one():
    return _one_by_one
