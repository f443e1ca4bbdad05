"""Function-space core over explicit Boolean domains.

Everything is a dense table over {0,1}^n: Boolean (+/-1) functions, real
[-1,1]-valued functions, and distributions.  Point index p encodes the bit
vector with coordinate x_i = (p >> (i-1)) & 1 for i in 1..n (variable 1 is the
least significant bit).  All values are immutable after construction.

Conventions fixed here and used everywhere downstream:
  * sign(0) = +1;
  * parity chi_T(x) = prod_{i in T} (2*x_i - 1), so chi_T agrees with the
    monotone conjunction c_T on the all-ones assignment;
  * empty index set: parity == +1, conjunction == +1, disjunction == -1.
"""

import numpy as np

from .errors import DomainMismatchError, UsageError
from .rng import make_rng

ATOL = 1e-12
MAX_N = 20  # 2**20 doubles per function; exactness beats sparsity at desk scale
MAX_CLASS_N = 14  # a built-in class is a dense 2^n x 2^n table: 8*4^n bytes, 2 GiB at n=14


class Domain:
    """The hypercube {0,1}^n, points indexed 0 .. 2^n - 1."""

    __slots__ = ("n", "size")

    def __init__(self, n):
        n = int(n)
        if not 1 <= n <= MAX_N:
            raise UsageError(f"domain size n must be in [1, {MAX_N}], got {n}")
        self.n = n
        self.size = 1 << n

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


def check_matrix(domain, matrix, bound):
    """`matrix` as a read-only (k, 2^n) table of finite values in [-bound, bound].

    Row i is the i-th function of a set; k may be 0.  Entries may overshoot
    the bound by ATOL (rounding) and are kept as given.
    """
    mat = _freeze(matrix)
    if mat.ndim != 2 or mat.shape[1] != domain.size:
        raise UsageError(
            f"function matrix has shape {mat.shape}, expected (k, {domain.size})")
    lo, hi = mat.min(initial=0.0), mat.max(initial=0.0)
    # min and max are NaN if any entry is, and NaN fails every comparison
    if not -bound - ATOL <= lo <= hi <= bound + ATOL:
        raise UsageError(f"function matrix entries must be finite and lie in "
                         f"[-{bound}, {bound}], got [{lo:.6g}, {hi:.6g}]")
    return mat


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

    def as_real(self):
        return RealFn(self.domain, self.values)


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
        arr = np.clip(arr, -1.0, 1.0)
        self.domain = domain
        self.values = _freeze(arr)

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
        self.weights = _freeze(arr / total)

    def __eq__(self, other):
        return (
            isinstance(other, Dist)
            and other.domain == self.domain
            and np.array_equal(other.weights, self.weights)
        )

    def __hash__(self):
        return hash(("Dist", self.domain.n, self.weights.tobytes()))


class ConceptClass:
    """Named, ordered, nonempty set of Boolean functions over one domain.

    `matrix` is the only storage: a read-only (k, 2^n) table whose row i is
    member i, every entry -1 or +1.  Indexing and iteration build the BoolFn
    of a row on demand.  Member order is deterministic and defines
    tie-breaking downstream.
    """

    __slots__ = ("name", "domain", "matrix")

    def __init__(self, name, domain, matrix):
        mat = check_matrix(domain, matrix, 1.0)
        if len(mat) == 0:
            raise UsageError("concept class must be nonempty")
        if np.count_nonzero(mat == 1.0) + np.count_nonzero(mat == -1.0) != mat.size:
            raise UsageError("concept class entries must be exactly -1 or +1")
        self.name = str(name)
        self.domain = domain
        self.matrix = mat

    def __len__(self):
        return len(self.matrix)

    def __iter__(self):
        return (BoolFn(self.domain, row) for row in self.matrix)

    def __getitem__(self, i):
        return BoolFn(self.domain, self.matrix[i])


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


def norm(phi, d):
    """||phi||_D = sqrt(E_D[phi^2])."""
    _check_domains(d, phi)
    return float(np.sqrt(max(0.0, inner_product(phi, phi, d))))


def disagreement(f, g, d):
    """Pr_D[f != g]; satisfies <f,g>_D = 1 - 2*disagreement."""
    _check_domains(d, f, g)
    return float(d.weights[f.values != g.values].sum())


def l1_distance(phi, psi, d):
    """L1-distance E_D[|phi - psi|], in [0, 2]."""
    _check_domains(d, phi, psi)
    return float(np.dot(d.weights, np.abs(phi.values - psi.values)))


def project_unit(values, domain=None):
    """Pointwise clamp into [-1, 1] (idempotent)."""
    if isinstance(values, (RealFn, BoolFn)):
        domain = values.domain
        values = values.values
    if domain is None:
        raise UsageError("project_unit needs a domain for a raw table")
    return RealFn(domain, np.clip(np.asarray(values, dtype=np.float64), -1.0, 1.0))


def sign_of(phi):
    """Pointwise sign; sign(0) = +1."""
    return BoolFn(phi.domain, np.where(phi.values >= 0, 1.0, -1.0))


def _index_set(domain, T):
    T = sorted(set(int(i) for i in T))
    for i in T:
        if not 1 <= i <= domain.n:
            raise UsageError(f"variable index {i} out of range [1, {domain.n}]")
    return T


# A class over {0,1}^n has one member per index set T, and member t (the
# bitmask of T) is row t of a table whose entry at (T, x) is a product over the
# variables i of block[i in T][x_i], mapped to +-1 by scale * product + shift.
# The whole table is the n-fold Kronecker power of the 2x2 block.
_CLASS_BLOCKS = {
    # prod_{i in T}(2 x_i - 1)
    "parities": (((1.0, 1.0), (-1.0, 1.0)), 1.0, 0.0),
    # product 1 iff x_i = 1 for all i in T
    "conjunctions": (((1.0, 1.0), (0.0, 1.0)), 2.0, -1.0),
    # product 1 iff x_i = 0 for all i in T, i.e. the disjunction is false
    "disjunctions": (((1.0, 1.0), (1.0, 0.0)), -2.0, 1.0),
}


def _class_table(kind, n, T=None):
    """Read-only +-1 table of class `kind` over n variables: all 2^n members
    in order, or (T given) the single row of index set T."""
    block, scale, shift = _CLASS_BLOCKS[kind]
    block = np.array(block)
    out = np.ones((1, 1))
    for i in range(1, n + 1):
        # variable i goes on the high bit of both the row and the column index
        out = np.kron(block if T is None else block[[int(i in T)]], out)
    if (scale, shift) != (1.0, 0.0):  # parities are +-1 already; skip two passes
        out *= scale
        out += shift
    out.flags.writeable = False
    return out


def make_parity(domain, T):
    """chi_T(x) = prod_{i in T}(2*x_i - 1); empty T gives the constant +1."""
    return BoolFn(domain, _class_table("parities", domain.n, _index_set(domain, T))[0])


def make_conjunction(domain, T):
    """+1 iff x_i = 1 for all i in T; empty T gives the constant +1."""
    return BoolFn(domain, _class_table("conjunctions", domain.n, _index_set(domain, T))[0])


def make_disjunction(domain, T):
    """+1 iff x_i = 1 for some i in T; empty T gives the constant -1."""
    return BoolFn(domain, _class_table("disjunctions", domain.n, _index_set(domain, T))[0])


def _make_class(kind, n):
    return ConceptClass(f"{kind}-{n}", Domain(n), _class_table(kind, n))


def parity_class(n):
    return _make_class("parities", n)


def conjunction_class(n):
    return _make_class("conjunctions", n)


def disjunction_class(n):
    return _make_class("disjunctions", n)


def dist_uniform(domain):
    return Dist(domain, np.full(domain.size, 1.0 / domain.size))


def dist_random(domain, seed):
    """I.i.d. exponential weights, normalized; deterministic in the seed."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed, purpose="dist")
    w = rng.exponential(1.0, domain.size)
    w = np.maximum(w, 1e-300)
    return Dist(domain, w / w.sum())


def random_real_fn(domain, rng):
    """Uniform random table in [-1,1]^size (a generic unit-ball member)."""
    return RealFn(domain, rng.uniform(-1.0, 1.0, domain.size))


def random_bool_fn(domain, rng):
    return BoolFn(domain, np.where(rng.random(domain.size) < 0.5, -1.0, 1.0))


# ---------------------------------------------------------------------------
# text serialization: one line per point, "bitstring value"


def _table_to_text(dom, table):
    return "\n".join(f"{dom.bitstring(p)} {table[p]:.17g}" for p in range(dom.size)) + "\n"


def fn_to_text(fn):
    return _table_to_text(fn.domain, fn.values)


def dist_to_text(d):
    return _table_to_text(d.domain, d.weights)


def _table_from_text(text):
    rows = {}
    n = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        bits, _, val = line.partition(" ")
        if n is None:
            n = len(bits)
        try:
            rows[bits] = float(val)
        except ValueError as e:
            raise UsageError(f"bad table line {line!r}: {e}") from e
    if n is None:
        raise UsageError("empty function text")
    dom = Domain(n)
    if len(rows) != dom.size:
        raise UsageError(f"expected {dom.size} points for n={n}, got {len(rows)}")
    vals = np.empty(dom.size)
    for bits, v in rows.items():
        vals[dom.point_index(bits)] = v
    return dom, vals


def real_fn_from_text(text):
    dom, vals = _table_from_text(text)
    return RealFn(dom, vals)


def bool_fn_from_text(text):
    dom, vals = _table_from_text(text)
    return BoolFn(dom, vals)


def dist_from_text(text):
    dom, vals = _table_from_text(text)
    return Dist(dom, vals)
