"""The weak SQ dimension of a set of functions.

sq_dim takes any fnspace.FnSet (a table, a built-in class or a distinguishing
set G(psi)) and reads it through its gram: the largest d such that d of the
supplied functions have pairwise |<f_i, f_j>_D| <= 1/d, computed exactly via
max-clique on a threshold graph for up to EXACT_CAP functions, and greedily as
a lower bound beyond.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantBreachError
from .fnspace import ATOL

EXACT_CAP = 30  # the most functions an exact sq_dim scan takes; more take the greedy bound
# an exact scan builds the masks of this many candidate values at a time: a build
# costs about 10 us plus 2.3 us per value, and on 30 random +-1 functions at n = 8
# the scan stops after searching 6 to 9 of the 15 to 17 values that pass the
# degree test
MASK_SLICE = 8


@dataclass
class DimReport:
    value: int
    certainty: str  # exact | lower-bound
    witness: list
    params: dict = field(default_factory=dict)
    # sq_dim's clique_searches and clique_nodes: run statistics, not part of the result
    search: dict = field(default_factory=dict, compare=False)


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

