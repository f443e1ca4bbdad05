"""Hardness dimensions for SQ learning.

Each helper takes any fnspace.FnSet (a table, a built-in class, a shifted set
or a distinguishing set G(psi)) and reads it through its row, correlate and
gram.  The central quantity is the largest d such that d of the supplied
functions have pairwise |<f_i, f_j>_D| <= 1/d ("weak dimension", computed
exactly via max-clique on a threshold graph for up to EXACT_CAP functions,
and greedily as a lower bound beyond).  On top of it:

* greedy covering numbers (upper bounds on the size of a set of bounded
  functions gamma-correlating with every member);
* a norm-scaling lower bound converting the weak dimension of arbitrary
  bounded sets into a covering lower bound;
* shifted sets (class members minus a reference psi, keeping only members
  disagreeing with sign(psi) on more than eps mass) and the induced
  shift-parameterized dimension estimate;
* the parity construction: all parities on at most k of n variables, each
  within L1 distance 1 - 2^(1-k) of its monotone conjunction, pairwise
  orthogonal under the uniform distribution.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvariantBreachError,
    NormRangeError,
    PoolInsufficientError,
    UsageError,
)
from .fnspace import (
    ATOL,
    Domain,
    FnSet,
    dist_uniform,
    disagreement,
    l1_distance,
    make_conjunction,
    make_parity,
    sign_of,
)

EXACT_CAP = 30  # the most functions an exact sq_dim scan takes; more take the greedy bound
# an exact scan builds the masks of this many candidate values at a time: a build
# costs about 10 us plus 2.3 us per value, and on 30 random +-1 functions at n = 8
# the scan stops after searching 6 to 9 of the 15 to 17 values that pass the
# degree test
MASK_SLICE = 8


@dataclass
class DimReport:
    value: int
    certainty: str  # exact | lower-bound | upper-bound
    witness: list
    params: dict = field(default_factory=dict)
    # sq_dim's clique_searches and clique_nodes: run statistics, not part of the result
    search: dict = field(default_factory=dict, compare=False)

    def as_record(self):
        return {
            "value": self.value,
            "certainty": self.certainty,
            "witness": list(self.witness),
            "params": dict(self.params),
        }


def _abs_gram(f, d):
    g = f.gram(d.weights)
    np.abs(g, out=g)
    np.fill_diagonal(g, 0.0)
    return g


def _threshold_masks(absgram, thresholds):
    """For each threshold t, the graph `absgram <= t` as (row masks per
    threshold, colour-class masks per threshold): bit j of a row mask masks[i]
    is absgram[i, j] <= t, and free[i] has the vertices a colour class holding
    i may still take, neither i nor its neighbours.  One comparison and one
    np.packbits serve every threshold: each row is padded with +inf to 32
    entries, one uint32 of the packed bytes, so it takes at most 32 vertices
    (EXACT_CAP or fewer)."""
    t, k = len(thresholds), len(absgram)
    padded = np.full((k, 32), np.inf)
    padded[:, :k] = absgram
    adj = padded <= np.reshape(thresholds, (t, 1, 1))
    masks = np.packbits(adj, bitorder="little").view("<u4").reshape(t, k).astype(np.int64)
    free = ((1 << k) - 1) ^ (masks | 1 << np.arange(k))
    return masks.tolist(), free.tolist()


def _clique_search(masks, free, floor):
    """Maximum clique, by branch and bound, of the graph of row masks `masks`
    and colour-class masks `free` (as _threshold_masks builds them).

    The bound starts at `floor`: returns (size, sorted vertex tuple, nodes)
    with the lexicographically first maximum clique when it has more than
    `floor` vertices, else (0, (), nodes); `nodes` counts the search nodes
    coloured.  A floor below the clique number prunes no ancestor of that
    clique (at each, |R| plus the suffix class count is at least its size),
    so the clique returned is the one floor=0 returns.

    A node (clique R, candidates P) colours P once, greedily: each colour
    class (an independent set) starts at the highest uncoloured vertex and
    takes lower ones in descending order, so the classes that meet the suffix
    {u in P : u >= v} are those whose top vertex is >= v, and a clique in
    that suffix takes at most one vertex of each.  The node's children are
    the vertices v of P in ascending index order: child v has clique R + v
    and candidates {u in P : u > v} that are neighbours of v.  The node stops
    at the first v where |R| plus the suffix class count cannot beat the best
    size, which it re-reads after each child returns.  This is the include-first order
    of branching on the lowest candidate, and the bound is sound, so the
    clique returned is the lexicographically first maximum clique.  The
    search keeps its own stack, so its depth is not Python's recursion limit.
    """
    n = len(masks)
    best_size = floor
    best_mask = 0
    nodes = 0
    # stack of (clique_mask, clique_size, candidates not yet branched on, the
    # top vertices of the node's colour classes as a mask); with no candidate
    # left, low = 0 and -low has no bit set
    stack = []
    r_mask, r_size, p_mask = 0, 0, (1 << n) - 1
    while True:
        if r_size > best_size:
            best_size, best_mask = r_size, r_mask
        if r_size + p_mask.bit_count() > best_size:
            nodes += 1
            tops = 0
            uncoloured = p_mask
            while uncoloured:
                v = uncoloured.bit_length() - 1
                top = 1 << v
                tops |= top
                uncoloured ^= top
                avail = uncoloured & free[v]
                while avail:
                    v = avail.bit_length() - 1
                    uncoloured ^= 1 << v
                    avail &= free[v]
            if r_size + tops.bit_count() > best_size:
                stack.append((r_mask, r_size, p_mask, tops))
        # the next child: the lowest unbranched candidate of the top node, while
        # the classes whose tops are at or above it can still beat the best
        while stack:
            r_mask, r_size, rest, tops = stack[-1]
            low = rest & -rest
            if (tops & -low).bit_count() > best_size - r_size:
                rest ^= low
                stack[-1] = (r_mask, r_size, rest, tops)
                p_mask = rest & masks[low.bit_length() - 1]
                r_mask, r_size = r_mask | low, r_size + 1
                break
            stack.pop()
        else:
            break
    clique = tuple(i for i in range(n) if best_mask >> i & 1)
    return (best_size if best_mask else 0), clique, nodes


def _check_pairwise(absgram, witness, threshold):
    """Raise on the first witness pair, in row order, over `threshold`."""
    idx = np.asarray(witness, dtype=np.intp)
    over = np.triu(absgram[np.ix_(idx, idx)] > threshold + ATOL, 1)
    if over.any():
        a, b = divmod(int(over.argmax()), len(idx))  # the first True, row by row
        raise InvariantBreachError(
            f"witness pair ({witness[a]}, {witness[b]}) correlates at "
            f"{absgram[idx[a], idx[b]]}, over threshold {threshold}")


def _greedy_witness(absgram):
    """Rows inserted in set order while the largest pairwise correlation
    stays within the tightened threshold 1/(size + 1): a lower bound."""
    k = len(absgram)
    chosen = np.zeros(k, dtype=bool)
    chosen[0] = True
    size, worst = 1, 0.0  # worst: largest |correlation| of two chosen rows
    for j in range(1, k):
        with_j = max(worst, absgram[j, :j].max(where=chosen[:j], initial=0.0))
        if with_j <= 1.0 / (size + 1) + ATOL:
            chosen[j] = True
            size, worst = size + 1, with_j
    return np.flatnonzero(chosen).tolist()


def sq_dim(f, d):
    """Largest d with d functions pairwise |<.,.>_D| <= 1/d.

    `f` is an FnSet.  A set of at most EXACT_CAP functions gets the exact
    scan, which scans candidate values downward from |f|.  A value is
    skipped when fewer than cand functions keep cand - 1 others within
    1/cand; otherwise _clique_search, with its bound seeded at cand - 1,
    asks whether the graph keeping edges with |correlation| <= 1/cand has a
    cand-clique.  The masks of these graphs are built MASK_SLICE values at a
    time, from the top.  On random +-1 classes most such values are refuted by the
    colouring of the search's root.  The scan stops at the first value that
    has one; the witness is the first cand vertices of the clique found, the
    lexicographically first maximum clique, which an unbounded search
    returns too.  A larger set gets _greedy_witness, only a lower bound.
    params["mode"] names the mode used; `search` counts the values searched
    and the search nodes coloured.
    """
    k = len(f)
    mode, certainty = ("exact", "exact") if k <= EXACT_CAP else ("greedy", "lower-bound")
    searches, nodes = 0, 0
    if k == 0:
        return DimReport(0, certainty, [], {"mode": mode},
                         {"clique_searches": 0, "clique_nodes": 0})
    absgram = _abs_gram(f, d)
    if mode == "greedy":
        witness = _greedy_witness(absgram)
    else:
        witness = [0]
        # a cand-clique needs cand rows with cand entries within 1/cand (the
        # diagonal's 0 and cand - 1 neighbours): with each row sorted, then
        # each column, entry [cand - 1, cand - 1] must be within 1/cand
        degree_bound = np.sort(np.sort(absgram, axis=1), axis=0).diagonal()
        cands = np.arange(k, 1, -1)
        thresholds = 1.0 / cands + ATOL
        kept = degree_bound[cands - 1] <= thresholds
        cands, thresholds = cands[kept].tolist(), thresholds[kept]
        # a slice's masks are built only once the scan reaches it
        sliced = (pair for lo in range(0, len(cands), MASK_SLICE)
                  for pair in zip(*_threshold_masks(absgram, thresholds[lo:lo + MASK_SLICE])))
        for cand, (masks, free) in zip(cands, sliced):
            searches += 1
            size, verts, coloured = _clique_search(masks, free, cand - 1)
            nodes += coloured
            if size:
                witness = list(verts[:cand])
                break
    value = len(witness)
    _check_pairwise(absgram, witness, 1.0 / value)
    return DimReport(value, certainty, witness, {"mode": mode},
                     {"clique_searches": searches, "clique_nodes": nodes})


def sqd_upper(f, d, gamma, pool):
    """Greedy covering number: pool functions gamma-correlating with all of f.

    Returns the chosen pool indices as an upper bound on the smallest
    approximating set restricted to the pool.  Member i's coverage is one
    pool.correlate of its row times D's weights.
    """
    if not 0 < gamma < math.inf:
        raise UsageError(f"gamma must be positive and finite, got {gamma}")
    if pool.sup > 1 + ATOL:
        raise UsageError(f"pool functions must map into [-1, 1], got sup {pool.sup:.6g}")
    k = len(f)
    if k == 0:
        return DimReport(0, "upper-bound", [], {"gamma": gamma})
    if len(pool) == 0:
        raise PoolInsufficientError(f"empty pool cannot cover {k} members")
    # cov[i, j]: pool member j gamma-correlates with member i
    cov = np.abs([pool.correlate(f.row(i) * d.weights) for i in range(k)]) >= gamma - ATOL
    uncovered = np.ones(k, dtype=bool)
    chosen = []
    while uncovered.any():
        counts = cov[uncovered].sum(axis=0)
        j = int(np.argmax(counts))
        if counts[j] == 0:
            raise PoolInsufficientError(f"pool cannot cover rows "
                                        f"{np.flatnonzero(uncovered).tolist()} at gamma={gamma}")
        chosen.append(j)
        uncovered &= ~cov[:, j]
    return DimReport(len(chosen), "upper-bound", chosen, {"gamma": gamma})


def sqd_lower_scaling(f, d, m, M):
    """Covering lower bound for sets with norms in [m, M].

    With dim the size of any verified weak-dimension witness (sq_dim's:
    exact up to EXACT_CAP functions, greedy beyond), a set of functions
    gamma-correlating with every member needs >= (dim*m^2)^(1/3)/2 members
    at gamma = M*(dim*m^2)^(-1/3).  The norms are the diagonal of f's Gram.
    """
    if not (M >= 1 >= m > 0):
        raise UsageError(f"need M >= 1 >= m > 0, got m={m}, M={M}")
    if len(f) == 0:
        raise UsageError("sqd_lower_scaling needs a nonempty set: gamma divides by its dimension")
    norms = np.sqrt(np.maximum(f.gram(d.weights).diagonal(), 0.0))
    for i, nm in enumerate(norms):
        if nm < m - ATOL or nm > M + ATOL:
            raise NormRangeError(f"row {i} has norm {nm}, outside [{m}, {M}]")
    base = sq_dim(f, d)
    scale = (base.value * m * m) ** (1.0 / 3.0)
    bound = scale / 2.0
    return DimReport(
        math.ceil(bound - ATOL),
        "lower-bound",
        base.witness,
        {"gamma": M / scale, "bound": bound, "base_dim": base.value},
    )


def shifted_set(c, psi, d, eps):
    """(members of c disagreeing with sign(psi) on > eps mass, shifted by
    -psi; the list of their row indices in c).

    May be empty (that is a signal, not an error).  Every member keeps norm
    >= sqrt(eps): each point of disagreement contributes at least 1 to the
    squared difference.  The rows of `c` are read one at a time.
    """
    if not 0 < eps < 1:
        raise UsageError(f"eps must be in (0, 1), got {eps}")
    s = sign_of(psi).values
    far = [j for j in range(len(c)) if d.weights[c.row(j) != s].sum() > eps]
    rows = [c.row(j) - psi.values for j in far]
    return FnSet(psi.domain, np.reshape(rows, (len(far), psi.domain.size))), far


def sq_sdim_estimate(c, d, eps, psi_family):
    """Max over supplied psi of the shifted set's weak dimension: a lower
    bound, as the size of any verified witness is; the witness is row
    indices of c (see shifted_set)."""
    psi_family = list(psi_family)
    if not psi_family:
        raise UsageError("psi_family must be nonempty")
    best_value, best_idx, best_witness = 0, None, []
    for idx, psi in enumerate(psi_family):
        fs, kept = shifted_set(c, psi, d, eps)
        if len(fs) == 0:
            continue
        rep = sq_dim(fs, d)
        if rep.value > best_value:
            best_value = rep.value
            best_idx = idx
            best_witness = [kept[j] for j in rep.witness]
    return DimReport(
        best_value,
        "lower-bound",
        best_witness,
        {"eps": eps, "psi_index": best_idx, "family_size": len(psi_family)},
    )


def parity_witness(n, k):
    """All parities on 1..k of n variables, with their conjunction-distance check.

    Each parity chi_T sits at L1 distance exactly 1 - 2^(1-|T|) from the
    monotone conjunction on T (disagreement 1/2 - 2^(-|T|)), and distinct
    parities are orthogonal under uniform, so the whole set is its own
    dimension witness: value = sum_{1<=i<=k} C(n, i).  Every pair is checked
    to correlate within ATOL of 0.
    """
    if k > n:
        raise UsageError(f"k must be at most n, got k={k} > n={n}")
    if k < 1:
        raise UsageError("k must be at least 1")
    domain = Domain(n)
    uniform = dist_uniform(domain)
    rows = []
    for bits in range(1, 2 ** n):
        size = int(bin(bits).count("1"))
        if size > k:
            continue
        subset = [i + 1 for i in range(n) if bits >> i & 1]
        chi = make_parity(domain, subset)
        conj = make_conjunction(domain, subset)
        dis = disagreement(chi, conj, uniform)
        l1 = l1_distance(chi, conj, uniform)
        if abs(dis - (0.5 - 2.0 ** -size)) > ATOL:
            raise InvariantBreachError(
                f"parity on {subset}: disagreement {dis} != 1/2 - 2^-{size}")
        if abs(l1 - (1.0 - 2.0 ** (1 - size))) > ATOL:
            raise InvariantBreachError(
                f"parity on {subset}: L1 distance {l1} != 1 - 2^(1-{size})")
        rows.append(chi.values)
    fs = FnSet(domain, rows)
    absgram = _abs_gram(fs, uniform)
    witness = list(range(len(fs)))
    _check_pairwise(absgram, witness, 0.0)
    report = DimReport(
        len(fs),
        "exact",
        witness,
        {"n": n, "k": k, "l1_radius": 1.0 - 2.0 ** (1 - k)},
    )
    return fs, report
