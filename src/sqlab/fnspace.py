"""Function-space core over explicit Boolean domains.

Boolean (+/-1) functions, real [-1,1]-valued functions, distributions and
sets of functions (an FnSet, one row per function: a concept class, a
candidate set, a shifted set) are dense tables over {0,1}^n, but for a built-in
class (ClassSet) and a stack of sets (StackSet), which keep none.  Point index
p encodes the bit vector with coordinate x_i = (p >> (i-1)) & 1 for i in 1..n
(variable 1 is the least significant bit).  All values are immutable after construction.

Conventions fixed here and used everywhere downstream:
  * sign(0) = +1;
  * parity chi_T(x) = prod_{i in T} (2*x_i - 1), so chi_T agrees with the
    monotone conjunction c_T on the all-ones assignment;
  * empty index set: parity == +1, conjunction == +1, disjunction == -1.
"""

import numpy as np

from .errors import DomainMismatchError, UsageError

ATOL = 1e-12
MAX_N = 20  # 2**20 doubles per function; exactness beats sparsity at desk scale
# a built-in class has 2^n members of 2^n entries, read through O(n 2^n) transforms up to
# MAX_N; dim's Gram of it, one lookup per entry, is still 8*4^n bytes, 2 GiB at n=14
MAX_CLASS_N = 14


def is_int(x):
    """Whether x is an integer: an int or a numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class Domain:
    """The hypercube {0,1}^n, points indexed 0 .. 2^n - 1."""

    __slots__ = ("n", "size")

    def __init__(self, n):
        if not is_int(n):  # int(n) would read 2.7 as 2 and True as 1
            raise UsageError(f"domain size n must be an integer, got {n!r}")
        if not 1 <= n <= MAX_N:
            raise UsageError(f"domain size n must be in [1, {MAX_N}], got {n}")
        self.n = int(n)
        self.size = 1 << self.n

    def __eq__(self, other):
        return isinstance(other, Domain) and other.n == self.n

    def __hash__(self):
        return hash(("Domain", self.n))

    def __repr__(self):
        return f"Domain(n={self.n})"

    def coordinate(self, i):
        """0/1 column of variable i (1-based) over all points."""
        if not 1 <= i <= self.n:
            raise UsageError(f"variable index {i} out of range [1, {self.n}]")
        idx = np.arange(self.size)
        return ((idx >> (i - 1)) & 1).astype(np.float64)

    def bitstring(self, p):
        """Point index -> 'x1x2...xn' string."""
        return "".join(str((p >> i) & 1) for i in range(self.n))

    def point_index(self, bits):
        """'x1x2...xn' string -> point index."""
        if len(bits) != self.n or set(bits) - {"0", "1"}:
            raise UsageError(f"bad bitstring {bits!r} for n={self.n}")
        return sum(int(b) << i for i, b in enumerate(bits))


def _freeze(values):
    """Read-only float64 array of `values`, copied unless it is read-only already."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


class BoolFn:
    """Total {-1,+1}-valued function, stored as an explicit table."""

    __slots__ = ("domain", "values")

    def __init__(self, domain, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (domain.size,):
            raise UsageError(
                f"value table has shape {arr.shape}, expected ({domain.size},)"
            )
        if not np.all(np.abs(arr) == 1.0):
            raise UsageError("BoolFn entries must be exactly -1 or +1")
        self.domain = domain
        self.values = _freeze(arr)

    def __eq__(self, other):
        return (
            isinstance(other, BoolFn)
            and other.domain == self.domain
            and np.array_equal(other.values, self.values)
        )

    def __hash__(self):
        return hash(("BoolFn", self.domain.n, self.values.tobytes()))

    def __neg__(self):
        return BoolFn(self.domain, -self.values)


class RealFn:
    """Total [-1,1]-valued function (membership in the unit sup-norm ball)."""

    __slots__ = ("domain", "values")

    def __init__(self, domain, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (domain.size,):
            raise UsageError(
                f"value table has shape {arr.shape}, expected ({domain.size},)"
            )
        over = np.abs(arr) - 1.0
        # NaN fails every comparison, so this test also rejects non-finite entries
        if not np.all(over <= ATOL):
            raise UsageError(f"RealFn entries must be finite and lie in [-1,1]; "
                             f"worst overshoot {over.max():.3g}")
        self.domain = domain
        self.values = np.clip(arr, -1.0, 1.0)  # a fresh array: no copy to freeze
        self.values.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, RealFn)
            and other.domain == self.domain
            and np.array_equal(other.values, self.values)
        )

    def __hash__(self):
        return hash(("RealFn", self.domain.n, self.values.tobytes()))

    def __neg__(self):
        return RealFn(self.domain, -self.values)


class Dist:
    """Probability distribution over the domain, dense weight vector."""

    __slots__ = ("domain", "weights")

    def __init__(self, domain, weights):
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != (domain.size,):
            raise UsageError(
                f"weight table has shape {arr.shape}, expected ({domain.size},)"
            )
        if not np.isfinite(arr).all():
            raise UsageError("distribution weights must be finite")
        if np.any(arr < 0):
            raise UsageError("distribution weights must be nonnegative")
        total = arr.sum()
        if total <= 0:
            raise UsageError("distribution weights must not be all zero")
        if abs(total - 1.0) > 1e-6:
            raise UsageError(
                f"distribution weights sum to {total:.9g}, beyond renormalization drift"
            )
        self.domain = domain
        self.weights = arr / total  # a fresh array: no copy to freeze
        self.weights.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, Dist)
            and other.domain == self.domain
            and np.array_equal(other.weights, self.weights)
        )

    def __hash__(self):
        return hash(("Dist", self.domain.n, self.weights.tobytes()))


class FnSet:
    """Ordered set of real-valued functions over one domain.

    A read-only (k, 2^n) table `matrix`, row i the i-th function; k may be 0.
    Its consumers read any FnSet one way, through `shape`, `row(i)`,
    `correlate(x)` (every row times the vector x) and `gram(w)`; only this
    module reads `matrix`.  `sup` is the largest |entry| (0 for an empty
    set), measured by the one scan a table from outside gets here: its
    shape and min/max, which also rejects NaN and +-inf.  A table
    that is +-1 by construction (a class file of 1 and -1 entries) skips the
    scan through from_signs; a ClassSet and a StackSet keep no table.
    Indexing and iteration build the BoolFn of a row on demand, so they hold
    for +-1 rows (a concept class).  Row order is deterministic and defines
    tie-breaking downstream; reports name a row by its index.
    """

    __slots__ = ("domain", "sup", "matrix")

    def __init__(self, domain, matrix):
        mat = _freeze(matrix)
        if mat.ndim != 2 or mat.shape[1] != domain.size:
            raise UsageError(
                f"function matrix has shape {mat.shape}, expected (k, {domain.size})")
        lo, hi = mat.min(initial=0.0), mat.max(initial=0.0)
        # min and max are NaN if any entry is, and NaN fails every comparison
        if not -np.inf < lo <= hi < np.inf:
            raise UsageError(f"function matrix entries must be finite, got [{lo}, {hi}]")
        self._fill(domain, mat, max(-lo, hi))

    @classmethod
    def from_signs(cls, domain, table):
        """FnSet of a read-only float64 (k, 2^n) table of +-1 entries, taken as
        it is: the caller's construction stands for the scan."""
        fs = cls.__new__(cls)
        fs._fill(domain, table, 1.0)
        return fs

    def _fill(self, domain, matrix, sup):
        self.domain = domain
        self.matrix = matrix
        self.sup = float(sup)

    @property
    def shape(self):
        return self.matrix.shape

    def row(self, i):
        """Row i, read-only."""
        return self.matrix[i]

    def correlate(self, x):
        """Every row times the vector x."""
        return self.matrix @ x

    def gram(self, w):
        """A new (k, k) array: sum_x w(x) g_S(x) g_T(x) for every pair of rows S, T."""
        return (self.matrix * w) @ self.matrix.T

    def __len__(self):
        return self.shape[0]

    def __iter__(self):
        return (BoolFn(self.domain, self.row(i)) for i in range(len(self)))

    def __getitem__(self, i):
        return BoolFn(self.domain, self.row(i))


def _check_domains(d, *fns):
    for f in fns:
        if f.domain != d.domain:
            raise DomainMismatchError(
                f"function over n={f.domain.n} used with distribution over n={d.domain.n}"
            )


def inner_product(phi, psi, d):
    """<phi, psi>_D = E_D[phi * psi]."""
    _check_domains(d, phi, psi)
    return float(np.dot(phi.values * d.weights, psi.values))


def disagreement(f, g, d):
    """Pr_D[f != g]; satisfies <f,g>_D = 1 - 2*disagreement."""
    _check_domains(d, f, g)
    return float(d.weights[f.values != g.values].sum())


def l1_distance(phi, psi, d):
    """L1-distance E_D[|phi - psi|], in [0, 2]."""
    _check_domains(d, phi, psi)
    return float(np.dot(d.weights, np.abs(phi.values - psi.values)))


def project_unit(values, domain):
    """RealFn of the table `values` clamped pointwise into [-1, 1] (idempotent)."""
    return RealFn(domain, np.clip(np.asarray(values, dtype=np.float64), -1.0, 1.0))


def sign_of(phi):
    """Pointwise sign; sign(0) = +1."""
    signs = np.where(phi.values >= 0, 1.0, -1.0)
    signs.flags.writeable = False  # ours alone: BoolFn keeps it without a copy
    return BoolFn(phi.domain, signs)


def _index_set(domain, T):
    """The distinct variable indices in T, each an int (not a bool) in [1, n]."""
    out = set()
    for i in T:
        # int(i) would read 1.7 as 1, and '2' or True as indices
        if not is_int(i):
            raise UsageError(f"variable index {i!r} is not an integer")
        if not 1 <= i <= domain.n:
            raise UsageError(f"variable index {i} out of range [1, {domain.n}]")
        out.add(int(i))
    return out


# A class over {0,1}^n has one member per index set T; member t (the bitmask of
# T) is its row t.  In the +-1 domain, with literal lit_i = +1 iff
# x_i = 1, each member folds one op over the literals of T from a start row:
# the product for parities, the minimum for conjunctions (+1 iff every x_i = 1)
# and the maximum for disjunctions (+1 iff some x_i = 1).  The start row is the
# op's identity on +-1, so for T = S u U with S and U disjoint, member T is
# op(member S, member U), exactly.
_CLASS_OPS = {
    "parities": (np.multiply, 1.0),
    "conjunctions": (np.minimum, 1.0),
    "disjunctions": (np.maximum, -1.0),
}


def _fold(kind, n, variables):
    """Read-only +-1 row over {0,1}^n of the member of class `kind` whose index
    set is `variables`."""
    op, start = _CLASS_OPS[kind]
    points = np.arange(1 << n)
    row = np.full(1 << n, start)
    for i in variables:
        op(row, np.where(points >> (i - 1) & 1, 1.0, -1.0), out=row)  # lit_i
    row.flags.writeable = False
    return row


LOW_STAGES = 4  # butterfly stages run on the transposed copy


def _butterflies(x, step):
    """A float64 copy of the vector x over the points after step(a, b) at each
    variable in turn, in place: a and b are the entries whose point has that
    variable's bit clear and set, paired by the other bits.

    The first L = LOW_STAGES variables pair entries 1 to 8 apart, in short
    strided operands.  Past n = 2L their stages run on one transposed copy,
    of shape (2^L, 2^(n-L)), where each pair is two contiguous rows, and the
    result is copied back; up to n = 2L the two copies cost about what they
    save.  The pairs and the ops are the same, so every bit is."""
    v = np.array(x, dtype=np.float64)
    n = v.size.bit_length() - 1
    low = LOW_STAGES if n > 2 * LOW_STAGES else 0
    if low:
        t = v.reshape(-1, 1 << low).T.copy()  # t[lo, hi] = v[hi * 2^L + lo]
        for i in range(low):
            halves = t.reshape(-1, 2, 1 << i, t.shape[1])
            step(halves[:, 0], halves[:, 1])
        v.reshape(-1, 1 << low)[...] = t.T
    for i in range(low, n):
        halves = v.reshape(-1, 2, 1 << i)
        step(halves[:, 0], halves[:, 1])
    return v


def _signed_hadamard(a, b):
    # a, b <- a + b, b - a: the Walsh-Hadamard butterfly with chi_T's sign
    # folded in, as a member with i in T takes lit_i = -1 where x_i = 0
    diff = b - a
    a += b
    b[...] = diff


def _superset_sum(a, b):
    a += b


def _subset_sum(a, b):
    b += a


class ClassSet(FnSet):
    """A built-in class read through one add-only transform of the vector, in
    place of its 2^n x 2^n table: its `matrix` is None.

    `correlate(x)` gives all 2^n members' products with x from O(n 2^n) adds:
    the Walsh-Hadamard transform for parities (Kushilevitz & Mansour 1993),
    the superset sum for conjunctions and the subset sum for disjunctions
    (Bjorklund, Husfeldt, Kaski & Koivisto 2007).  Sums go in another order
    than a dense product's, so they agree with it to rounding, and exactly on
    integer vectors small enough to sum exactly.  `gram(w)` reads every
    entry from c = correlate(w), c[U] = E_D[member U], with one lookup:
    c[S ^ T] for parities, 1 + 2c[S | T] - c[S] - c[T] for conjunctions and
    1 - 2c[S | T] + c[S] + c[T] for disjunctions.  `row(i)` folds the op
    over member i's literals, as make_parity and its siblings do.
    """

    __slots__ = ("_kind",)

    def __init__(self, kind, n):
        self._fill(Domain(n), None, 1.0)
        self._kind = kind

    @property
    def shape(self):
        return self.domain.size, self.domain.size

    def row(self, i):
        t, n = range(len(self))[i], self.domain.n
        return _fold(self._kind, n, [k + 1 for k in range(n) if t >> k & 1])

    def gram(self, w):
        # chi_S chi_T = chi_{S ^ T}.  A conjunction, or a disjunction negated (which
        # leaves its pairs' products as they are), is 2a_S - 1 with a_S a_T = a_{S | T};
        # with e = +-c their means, a pair's mean is 2e[S | T] - e[S] - e[T] + e[0]
        e = self.correlate(w) * (-1.0 if self._kind == "disjunctions" else 1.0)
        pair = np.bitwise_xor if self._kind == "parities" else np.bitwise_or
        idx = np.arange(e.size)
        g = np.empty((e.size, e.size))
        for s, row in enumerate(g):
            np.take(e, pair(idx, s), out=row)
        if self._kind != "parities":
            g *= 2.0
            g -= e[:, None]
            g -= e
            g += e[0]
        return g

    def correlate(self, x):
        if self._kind == "parities":
            return _butterflies(x, _signed_hadamard)
        # with Z(x)[U] the sum of x over the points p >= U (bitwise) and S(x)[U]
        # that over p <= U: a conjunction c_T is +1 on T's supersets and a
        # disjunction d_T is -1 on ~T's subsets, the points that miss T
        if self._kind == "conjunctions":
            z = _butterflies(x, _superset_sum)
            return 2.0 * z - z[0]
        s = _butterflies(x, _subset_sum)
        return s[-1] - 2.0 * s[::-1]


class StackSet(FnSet):
    """The rows of `parts`, a nonempty list of FnSets over one domain, in order,
    read through the parts: `correlate` joins theirs, `sup` is their largest,
    and row i of `gram(w)` is one `correlate` of row i times w.  It keeps no
    table (`matrix` is None)."""

    __slots__ = ("_parts", "_starts")

    def __init__(self, parts):
        self._fill(parts[0].domain, None, max(p.sup for p in parts))
        self._parts = parts
        self._starts = np.cumsum([0] + [len(p) for p in parts])

    @property
    def shape(self):
        return int(self._starts[-1]), self.domain.size

    def row(self, i):
        i = range(len(self))[i]
        j = int(np.searchsorted(self._starts, i, side="right")) - 1
        return self._parts[j].row(i - int(self._starts[j]))

    def correlate(self, x):
        return np.concatenate([p.correlate(x) for p in self._parts])

    def gram(self, w):
        k = len(self)
        return np.reshape([self.correlate(self.row(i) * w) for i in range(k)], (k, k))


def _class_member(kind, domain, T):
    """BoolFn of the one member of class `kind` with index set T."""
    return BoolFn(domain, _fold(kind, domain.n, _index_set(domain, T)))


def make_parity(domain, T):
    """chi_T(x) = prod_{i in T}(2*x_i - 1); empty T gives the constant +1."""
    return _class_member("parities", domain, T)


def make_conjunction(domain, T):
    """+1 iff x_i = 1 for all i in T; empty T gives the constant +1."""
    return _class_member("conjunctions", domain, T)


def make_disjunction(domain, T):
    """+1 iff x_i = 1 for some i in T; empty T gives the constant -1."""
    return _class_member("disjunctions", domain, T)


def parity_class(n):
    return ClassSet("parities", n)


def conjunction_class(n):
    return ClassSet("conjunctions", n)


def disjunction_class(n):
    return ClassSet("disjunctions", n)


def dist_uniform(domain):
    return Dist(domain, np.full(domain.size, 1.0 / domain.size))


def dist_random(domain, rng):
    """I.i.d. exponential weights, normalized; deterministic in the Generator's state."""
    w = rng.exponential(1.0, domain.size)
    w = np.maximum(w, 1e-300)
    return Dist(domain, w / w.sum())


def random_real_fn(domain, rng):
    """Uniform random table in [-1,1]^size (a generic unit-ball member)."""
    return RealFn(domain, rng.uniform(-1.0, 1.0, domain.size))


# ---------------------------------------------------------------------------
# distribution text: one line per point, "bitstring weight"


def dist_to_text(d):
    """`bitstring weight` lines; 17 significant digits read back as the same float.

    The round trip through dist_from_text is not bit-exact; see there.
    """
    dom, w = d.domain, d.weights
    return "\n".join(f"{dom.bitstring(p)} {w[p]:.17g}" for p in range(dom.size)) + "\n"


def dist_from_text(text):
    """Dist of `bitstring weight` lines; blank lines and # comments are skipped,
    and a point given twice is a usage error.

    Like every Dist, the weights read are divided by their floating-point sum,
    which for weights written by dist_to_text lies within about 2^n ulp of 1.
    So each weight comes back within a relative 2^(n+1) * 2^-52 of the one
    written, not bit for bit; distributions from dist_random come back within
    2 ulp, and about one in ten moves at all.
    """
    rows = {}  # bitstring -> (line number, weight)
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        bits, _, val = line.partition(" ")
        if bits in rows:
            raise UsageError(f"point {bits} on line {lineno} is given already on "
                             f"line {rows[bits][0]}")
        try:
            rows[bits] = lineno, float(val)
        except ValueError as e:
            raise UsageError(f"bad distribution line {line!r}: {e}") from e
    if not rows:
        raise UsageError("empty distribution text")
    dom = Domain(len(next(iter(rows))))
    if len(rows) != dom.size:
        raise UsageError(f"expected {dom.size} points for n={dom.n}, got {len(rows)}")
    weights = np.empty(dom.size)
    for bits, (_, w) in rows.items():
        weights[dom.point_index(bits)] = w
    return Dist(dom, weights)
