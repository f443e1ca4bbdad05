import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.dimensions import (
    DimReport,
    parity_witness,
    shifted_set,
    sq_dim,
    sq_sdim_estimate,
    sqd_lower_scaling,
    sqd_upper,
)
from sqlab.dimensions import (EXACT_CAP, _abs_gram, _check_pairwise, _clique_search,
                              _greedy_witness, _threshold_masks)
from sqlab.errors import (InvariantBreachError, NormRangeError, PoolInsufficientError,
                          UsageError)
from sqlab.fnspace import (
    ATOL,
    Domain,
    FnSet,
    RealFn,
    dist_random,
    dist_uniform,
    parity_class,
    random_real_fn,
    sign_of,
)
from sqlab.rng import make_rng

from conftest import class_table, dense_class, greedy_extension, random_bool_fn


def _half_pool(fs, idx):
    return FnSet(fs.domain, fs.matrix[list(idx)] / 2.0)


def _fnset(fns):
    return FnSet(fns[0].domain, [f.values for f in fns])


def _one_member(cclass, i):
    return FnSet(cclass.domain, cclass.matrix[[i]])


def test_fnset_validation(domain3):
    # no fixed bound: the scan measures the largest |entry|
    assert FnSet(domain3, [np.full(8, 0.5), np.full(8, -2.5)]).sup == 2.5
    with pytest.raises(UsageError):
        FnSet(domain3, [np.zeros(4)])
    with pytest.raises(UsageError):
        FnSet(domain3, np.zeros(8))  # one table, not a (k, 2^n) matrix
    empty = FnSet(domain3, np.empty((0, 8)))
    assert len(empty) == 0 and empty.matrix.shape == (0, 8) and empty.sup == 0.0
    cclass = parity_class(3)
    assert cclass.sup == 1.0 and cclass.matrix is None  # a built-in class keeps no table
    table = class_table("parities", 3)
    shared = FnSet(domain3, table)
    assert shared.matrix is table and not shared.matrix.flags.writeable
    assert shared.sup == 1.0


def test_sq_dim_parities_is_class_size(uniform3):
    for n in (1, 2, 3):
        for fs in (parity_class(n), FnSet(Domain(n), class_table("parities", n))):
            rep = sq_dim(fs, dist_uniform(Domain(n)))
            assert rep.value == 2**n
            assert rep.certainty == "exact"
            assert sorted(rep.witness) == list(range(2**n))


def test_sq_dim_trivial_sets(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(1, 0, "f"))
    single = _fnset([f])
    assert sq_dim(single, uniform3).value == 1
    dup = _fnset([f, f])
    assert sq_dim(dup, uniform3).value == 1  # |<f,f>| = 1 > 1/2


def test_sq_dim_negation_invariance(domain3, uniform3):
    fns = list(parity_class(3))[:5]
    a = sq_dim(_fnset(fns), uniform3).value
    b = sq_dim(_fnset([-f for f in fns]), uniform3).value
    assert a == b


def test_sq_dim_greedy_never_exceeds_exact(uniform3, domain3):
    rng = make_rng(2, 0, "f")
    for _ in range(10):
        fs = _fnset([random_bool_fn(domain3, rng) for _ in range(8)])
        exact = sq_dim(fs, uniform3)
        assert exact.certainty == "exact"
        assert len(_greedy_witness(_abs_gram(fs, uniform3))) <= exact.value


def test_sq_dim_exact_cap(uniform3, domain3):
    # sq_dim scans exactly up to EXACT_CAP functions and bounds greedily beyond
    rng = make_rng(3, 0, "f")
    fs = _fnset([random_bool_fn(domain3, rng) for _ in range(EXACT_CAP + 1)])
    absgram = _abs_gram(fs, uniform3)
    for k, mode, certainty in ((EXACT_CAP, "exact", "exact"),
                               (EXACT_CAP + 1, "greedy", "lower-bound")):
        rep = sq_dim(FnSet(domain3, fs.matrix[:k]), uniform3)
        assert (rep.certainty, rep.params) == (certainty, {"mode": mode})
        assert rep.value == len(rep.witness) >= 1
        _check_pairwise(absgram[:k, :k], rep.witness, 1.0 / rep.value)
    assert rep.witness == _greedy_witness(absgram)


def test_sqd_upper_parities_cover_only_themselves(domain3, uniform3):
    parities = dense_class("parities", 3)
    fs = FnSet(domain3, parities.matrix)
    rep = sqd_upper(fs, uniform3, 0.5, parities)
    assert rep.value == len(fs)  # orthogonal members: one pool fn each
    rep1 = sqd_upper(_fnset([parities[3]]), uniform3, 0.5, parities)
    assert rep1.value == 1


def test_sqd_upper_insufficient_pool(domain3, uniform3):
    fs = FnSet(domain3, class_table("parities", 3)[:4])
    blind = FnSet(domain3, np.zeros((1, 8)))
    with pytest.raises(PoolInsufficientError):
        sqd_upper(fs, uniform3, 0.5, blind)
    for gamma in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="gamma must be positive and finite"):
            sqd_upper(fs, uniform3, gamma, blind)
    with pytest.raises(UsageError, match="1.5"):  # the pool's sup, outside the unit ball
        sqd_upper(fs, uniform3, 0.5, FnSet(domain3, np.full((1, 8), 1.5)))


def test_sqd_lower_scaling_boolean_example(domain3, uniform3):
    fs = FnSet(domain3, class_table("parities", 3))
    rep = sqd_lower_scaling(fs, uniform3, 1.0, 1.0)
    # base dim 8, unit norms: bound = 8^(1/3)/2 = 1, at gamma = 1/2
    assert rep.value == 1
    assert rep.params["bound"] == pytest.approx(1.0, abs=1e-12)
    assert rep.params["gamma"] == pytest.approx(0.5, abs=1e-12)
    assert rep.params["base_dim"] == 8


def test_sqd_lower_scaling_norm_validation(domain3, uniform3):
    small = FnSet(domain3, [np.ones(8), np.full(8, 0.5)])
    with pytest.raises(NormRangeError, match="^row 1 has norm 0.5, outside"):
        sqd_lower_scaling(small, uniform3, 0.9, 1.0)
    with pytest.raises(UsageError):
        sqd_lower_scaling(small, uniform3, 0.5, 0.9)  # M < 1
    # no parity is more than 1/2-far from sign(0) = +1: the shifted set is empty
    empty, kept = shifted_set(dense_class("parities", 3), RealFn(domain3, np.zeros(8)), uniform3,
                              0.9)
    assert len(empty) == 0 and kept == []
    with pytest.raises(UsageError, match="nonempty"):
        sqd_lower_scaling(empty, uniform3, 0.5, 1.0)


def test_shifted_set_zero_psi_keeps_far_members(domain3, uniform3):
    cclass = dense_class("parities", 3)
    zero = RealFn(domain3, np.zeros(8))
    fs, kept = shifted_set(cclass, zero, uniform3, 0.1)
    # every nonconstant parity is 1/2-far from sign(0) = +1; chi_empty is not
    assert len(fs) == 7
    assert kept == list(range(1, 8))
    np.testing.assert_array_equal(fs.matrix, cclass.matrix[1:] - zero.values)


def test_shifted_set_self_psi_is_empty(domain3, uniform3):
    cclass = dense_class("parities", 3)
    fs, _ = shifted_set(_one_member(cclass, 3), cclass[3], uniform3, 0.1)
    assert len(fs) == 0
    assert sq_dim(fs, uniform3).value == 0


def test_shifted_set_member_norms(domain3, uniform3):
    rng = make_rng(4, 0, "psi")
    eps = 0.2
    for _ in range(10):
        psi = random_real_fn(domain3, rng)
        fs, _ = shifted_set(dense_class("parities", 3), psi, uniform3, eps)
        if len(fs) == 0:
            continue
        norms = np.sqrt((fs.matrix**2 * uniform3.weights).sum(axis=1))
        assert norms.min() >= np.sqrt(eps) - 1e-12


def test_sq_sdim_estimate_zero_family(domain3, uniform3):
    zero = RealFn(domain3, np.zeros(8))
    rep = sq_sdim_estimate(dense_class("parities", 3), uniform3, 0.1, [zero])
    # sign(0) = +1 coincides with chi_empty, so only the 7 others survive
    assert rep.value == 7
    assert rep.certainty == "lower-bound"
    assert rep.params["psi_index"] == 0
    assert 0 not in rep.witness


def test_sq_sdim_estimate_monotone_in_family(domain3, uniform3):
    cclass = dense_class("parities", 3)
    rng = make_rng(5, 0, "psi")
    # shift candidates: zero, every class member, and three random tables
    family = [RealFn(domain3, np.zeros(8))] + [RealFn(domain3, row) for row in cclass.matrix]
    family += [RealFn(domain3, rng.uniform(-1.0, 1.0, 8)) for _ in range(3)]
    small = sq_sdim_estimate(cclass, uniform3, 0.1, family[:2])
    big = sq_sdim_estimate(cclass, uniform3, 0.1, family)
    assert big.value >= small.value
    assert big.params["family_size"] == len(family)
    single = sq_sdim_estimate(_one_member(cclass, 3), uniform3, 0.1, [cclass[3]])
    assert single.value == 0 and single.params["psi_index"] is None


def test_parity_witness_counts_and_radius():
    fs, rep = parity_witness(5, 2)
    assert rep.value == len(fs) == 15  # C(5,1) + C(5,2)
    assert rep.certainty == "exact"
    assert rep.params["l1_radius"] == pytest.approx(0.5)
    fs3, rep3 = parity_witness(3, 3)
    assert rep3.value == 7
    uniform = dist_uniform(Domain(3))
    gram = fs3.matrix * uniform.weights @ fs3.matrix.T
    np.testing.assert_allclose(gram - np.eye(7), 0.0, atol=1e-12)


def test_parity_witness_validation():
    with pytest.raises(UsageError):
        parity_witness(3, 4)
    with pytest.raises(UsageError):
        parity_witness(3, 0)
    # parities are orthogonal under uniform: every pair passes the check at 0
    _, rep = parity_witness(4, 2)
    assert rep.value == 10


def test_duality_cover_on_maximizer(uniform3, domain3):
    # the witness pool, halved, covers the shifted set it came from
    eps = 0.4
    cclass = dense_class("conjunctions", 3)
    best = None
    for j in range(20):
        psi = random_real_fn(domain3, make_rng(100 + j, 0, "psi"))
        fs, _ = shifted_set(cclass, psi, uniform3, eps)
        if len(fs) == 0:
            continue
        rep = sq_dim(fs, uniform3)
        if best is None or rep.value > best[1].value:
            best = (fs, rep)
    fs, rep = best
    ext = greedy_extension(fs, uniform3, rep.witness, 1.0 / rep.value)
    d = len(ext)
    cover = sqd_upper(fs, uniform3, 1.0 / (2 * d), _half_pool(fs, ext))
    assert cover.value <= d


def _brute_clique(adj):
    n = adj.shape[0]
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(adj[i, j] for i, j in itertools.combinations(combo, 2)):
                return r
    return 0


def _packbits_row_masks(adj):
    """Row masks and colour-class masks of the boolean matrix `adj`: one
    int.from_bytes per packed row."""
    n = adj.shape[0]
    packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
    width = (n + 7) // 8
    masks = [int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(n)]
    full = (1 << n) - 1
    return masks, [full & ~(m | 1 << i) for i, m in enumerate(masks)]


def max_clique(adj, floor=0):
    """(size, clique) of _clique_search on the graph of the boolean matrix `adj`."""
    return _clique_search(*_packbits_row_masks(adj), floor)[:2]


def test_max_clique_matches_brute_force(rng):
    for trial in range(25):
        n = int(rng.integers(1, 13))
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        size, verts = max_clique(adj)
        assert size == _brute_clique(adj)
        assert len(verts) == size
        for i, j in itertools.combinations(verts, 2):
            assert adj[i, j]


def test_max_clique_edge_cases():
    assert max_clique(np.zeros((0, 0), dtype=bool))[0] == 0
    assert max_clique(np.zeros((1, 1), dtype=bool)) == (1, (0,))
    full = np.ones((5, 5), dtype=bool)
    assert max_clique(full)[0] == 5


def test_max_clique_of_a_complete_graph_deeper_than_the_recursion_limit():
    # one search node per clique vertex, on the search's own stack
    n = 1200
    assert max_clique(np.ones((n, n), dtype=bool)) == (n, tuple(range(n)))
    assert max_clique(np.ones((n, n), dtype=bool), n) == (0, ())


def _reference_clique(adj):
    """Unfloored reference max_clique: masks from an n^2 loop over a hollow
    matrix, bound from 0."""
    n = adj.shape[0]
    if n == 0:
        return 0, ()
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and adj[i, j]:
                masks[i] |= 1 << j
    best_size, best_mask = 0, 0
    stack = [(0, 0, (1 << n) - 1)]
    while stack:
        r_mask, r_size, p_mask = stack.pop()
        if r_size + p_mask.bit_count() <= best_size:
            continue
        if p_mask == 0:
            best_size, best_mask = r_size, r_mask
            continue
        low = p_mask & -p_mask
        v = low.bit_length() - 1
        rest = p_mask ^ low
        stack.append((r_mask, r_size, rest))
        stack.append((r_mask | low, r_size + 1, rest & masks[v]))
    return best_size, tuple(i for i in range(n) if best_mask >> i & 1)


def _reference_sq_dim(f, d, mode):
    """Reference sq_dim: the exact scan solves every threshold's maximum
    clique from a bound of 0; greedy mode re-tests every witness pair at each
    insertion."""
    absgram = _abs_gram(f, d)
    k = len(f)
    if mode == "exact":
        witness = [0]
        for cand in range(k, 1, -1):
            adj = absgram <= 1.0 / cand + ATOL
            np.fill_diagonal(adj, False)
            size, verts = _reference_clique(adj)
            if size >= cand:
                witness = list(verts[:cand])
                break
    else:
        witness = []
        for j in range(k):
            cand = witness + [j]
            t = 1.0 / len(cand)
            if all(absgram[a, b] <= t + ATOL for a, b in itertools.combinations(cand, 2)):
                witness = cand
    certainty = "exact" if mode == "exact" else "lower-bound"
    return DimReport(len(witness), certainty, witness, {"mode": mode})


@st.composite
def _dim_case(draw):
    """Up to 30 random +-1 rows, or the same shifted by a psi in [-1, 1] into
    [-2, 2], under uniform or a random D."""
    domain = Domain(draw(st.integers(2, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.choice([-1.0, 1.0], size=(draw(st.integers(1, 30)), domain.size))
    if draw(st.booleans()):
        rows = rows - rng.uniform(-1.0, 1.0, domain.size)
    d = dist_random(domain, rng) if draw(st.booleans()) else dist_uniform(domain)
    return FnSet(domain, rows), d


@settings(max_examples=120, deadline=None)
@given(case=_dim_case(), greedy=st.booleans())
def test_sq_dim_matches_the_unpruned_reference(case, greedy):
    # sq_dim scans exactly at these sizes; its greedy witness is compared directly
    fs, d = case
    if greedy:
        assert _greedy_witness(_abs_gram(fs, d)) == _reference_sq_dim(fs, d, "greedy").witness
    else:
        assert sq_dim(fs, d) == _reference_sq_dim(fs, d, "exact")


@st.composite
def _graph(draw):
    """A symmetric boolean matrix on up to 64 vertices, with a True or a
    False diagonal.  Density 0.95 stops at 40 vertices: past that the
    unpruned reference search takes seconds to minutes a graph."""
    n = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95] if n <= 40 else [0.2, 0.5, 0.8]))
    adj = np.triu(rng.random((n, n)) < density, 1)
    adj = adj | adj.T
    np.fill_diagonal(adj, draw(st.booleans()))
    return adj


def _assert_matches_the_reference(adj, floor):
    hollow = adj.copy()
    np.fill_diagonal(hollow, False)
    want = _reference_clique(hollow)
    assert max_clique(adj) == want
    assert max_clique(adj, floor) == (want if want[0] > floor else (0, ()))


@settings(max_examples=200, deadline=None)
@given(adj=_graph(), floor=st.integers(0, 31))
def test_max_clique_floor_refutes_or_returns_the_unfloored_clique(adj, floor):
    _assert_matches_the_reference(adj, floor)


@st.composite
def _threshold_graph(draw):
    """The question sq_dim's exact scan asks at one candidate value: up to 30
    random +-1 rows at n=8, an edge where |correlation| <= 1/cand (diagonal
    True), and the floor cand - 1.  Most such graphs have no cand-clique:
    these are the refutations the colouring bound cuts short."""
    domain = Domain(8)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(2, 30))
    fs = FnSet(domain, rng.choice([-1.0, 1.0], size=(k, domain.size)))
    cand = draw(st.integers(2, k))
    return _abs_gram(fs, dist_uniform(domain)) <= 1.0 / cand + ATOL, cand - 1


@settings(max_examples=200, deadline=None)
@given(case=_threshold_graph())
def test_max_clique_on_sq_dim_threshold_graphs_matches_the_reference(case):
    _assert_matches_the_reference(*case)


def _pairwise_failure(check, absgram, witness, threshold):
    try:
        check(absgram, witness, threshold)
    except InvariantBreachError as e:
        return str(e)
    return None


def _reference_check_pairwise(absgram, witness, threshold):
    for a in range(len(witness)):
        for b in range(a + 1, len(witness)):
            v = absgram[witness[a], witness[b]]
            if v > threshold + ATOL:
                raise InvariantBreachError(
                    f"witness pair ({witness[a]}, {witness[b]}) correlates at "
                    f"{v}, over threshold {threshold}")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 12),
       threshold=st.sampled_from([0.05, 0.3, 0.6, 1.0]))
def test_check_pairwise_names_the_first_pair_over_the_threshold(seed, size, threshold):
    rng = np.random.default_rng(seed)
    absgram = np.abs(rng.uniform(-0.7, 0.7, (12, 12)))
    absgram = np.triu(absgram, 1) + np.triu(absgram, 1).T
    witness = rng.permutation(12)[:size].tolist()
    assert _pairwise_failure(_check_pairwise, absgram, witness, threshold) == \
        _pairwise_failure(_reference_check_pairwise, absgram, witness, threshold)


@pytest.mark.parametrize("n", list(range(0, 18)) + [31, 32])
def test_row_masks_match_one_from_bytes_per_row(n):
    # _threshold_masks packs each row into one uint32: up to 32 vertices
    rng = np.random.default_rng(n)
    for density in (0.0, 0.3, 0.7, 1.0):
        adj = rng.random((n, n)) < density
        adj = np.triu(adj, 1) | np.triu(adj, 1).T
        np.fill_diagonal(adj, bool(rng.integers(2)))
        masks, free = _threshold_masks(np.where(adj, 0.0, 1.0), [0.5])
        assert (masks[0], free[0]) == _packbits_row_masks(adj)


def _frozen_max_clique(adj, floor, tally=None):
    """max_clique as it was before its masks came from one integer.  Each
    colouring it starts adds 1 to tally[0], if a tally is given."""
    n = adj.shape[0]
    masks, free = _packbits_row_masks(adj)
    best_size, best_mask = floor, 0
    stack = [(0, 0, (1 << n) - 1)]
    while stack:
        r_mask, r_size, p_mask = stack.pop()
        room = best_size - r_size
        if p_mask.bit_count() <= room:
            continue
        if p_mask == 0:
            best_size, best_mask = r_size, r_mask
            continue
        if tally is not None:
            tally[0] += 1
        uncoloured = p_mask
        while uncoloured and room > 0:
            room -= 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                uncoloured ^= low
                avail &= free[low.bit_length() - 1]
        if not uncoloured:
            continue
        low = p_mask & -p_mask
        v = low.bit_length() - 1
        rest = p_mask ^ low
        stack.append((r_mask, r_size, rest))
        stack.append((r_mask | low, r_size + 1, rest & masks[v]))
    if best_mask == 0:
        return 0, ()
    return best_size, tuple(i for i in range(n) if best_mask >> i & 1)


def _frozen_sq_dim_exact(f, d, tally=None):
    """The exact scan of sq_dim, frozen: degree test, then a floored search.
    With a tally, tally[0] counts colourings and tally[1] searches."""
    absgram = _abs_gram(f, d)
    k = len(f)
    witness = [0]
    degree_bound = np.sort(np.sort(absgram, axis=1), axis=0).diagonal()
    for cand in range(k, 1, -1):
        threshold = 1.0 / cand + ATOL
        if degree_bound[cand - 1] > threshold:
            continue
        if tally is not None:
            tally[1] += 1
        size, verts = _frozen_max_clique(absgram <= threshold, cand - 1, tally)
        if size:
            witness = list(verts[:cand])
            break
    return len(witness), witness


@pytest.mark.parametrize("dist", ["uniform", "random"])
def test_sq_dim_matches_the_frozen_scan_on_probe_sized_sets(dist):
    # the probe-mix benchmark's dim sets: 30 random +-1 functions at n = 8
    domain = Domain(8)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        fs = FnSet(domain, rng.choice([-1.0, 1.0], size=(30, domain.size)))
        d = dist_uniform(domain) if dist == "uniform" else dist_random(domain, rng)
        rep = sq_dim(fs, d)
        assert (rep.value, rep.witness) == _frozen_sq_dim_exact(fs, d), seed


def test_sq_dim_colours_at_most_0_7x_the_nodes_of_the_frozen_scan():
    # the probe-mix sets under uniform D: the frozen search recolours P at every
    # exclude node, the index-order search colours each node once
    domain = Domain(8)
    uniform = dist_uniform(domain)
    frozen, nodes = [0, 0], 0
    for seed in range(200):
        fs = FnSet(domain, np.random.default_rng(seed).choice([-1.0, 1.0], size=(30, domain.size)))
        rep = sq_dim(fs, uniform)
        searched = frozen[1]
        assert (rep.value, rep.witness) == _frozen_sq_dim_exact(fs, uniform, frozen), seed
        assert rep.search["clique_searches"] == frozen[1] - searched, seed
        nodes += rep.search["clique_nodes"]
    assert 0 < nodes <= 0.7 * frozen[0]


def test_search_counts_stay_out_of_the_result():
    domain = Domain(3)
    fs = FnSet(domain, class_table("parities", 3))
    rep = sq_dim(fs, dist_uniform(domain))
    # the complete graph on 8 vertices: one search, a colouring per clique prefix
    assert rep.search == {"clique_searches": 1, "clique_nodes": 8}
    assert rep == DimReport(rep.value, rep.certainty, rep.witness, rep.params)
    assert "search" not in rep.as_record()
    assert sq_dim(FnSet(domain, np.empty((0, 8))), dist_uniform(domain)).search == \
        {"clique_searches": 0, "clique_nodes": 0}
    greedy = sq_dim(FnSet(domain, np.ones((EXACT_CAP + 1, 8))), dist_uniform(domain))
    assert greedy.search == {"clique_searches": 0, "clique_nodes": 0}


@st.composite
def _gram_and_thresholds(draw):
    """A symmetric matrix on up to 30 vertices (sq_dim's exact cap) with
    entries from nine levels in [0, 1], so that entries fall on thresholds,
    and any diagonal; thresholds on the levels and between them, ascending as
    sq_dim's scan takes them, each with a floor."""
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = np.linspace(0.0, 1.0, 9)
    g = np.triu(rng.choice(levels, size=(n, n)), 1)
    g = g + g.T + np.diag(rng.choice(levels, n) if draw(st.booleans()) else np.zeros(n))
    thresholds = np.sort(rng.choice(np.concatenate([levels, levels + 1 / 16]),
                                    draw(st.integers(0, 8))))
    return g, thresholds, [draw(st.integers(0, 31)) for _ in thresholds]


@settings(max_examples=200, deadline=None)
@given(case=_gram_and_thresholds())
def test_masks_built_once_per_scan_search_like_max_clique(case):
    g, thresholds, floors = case
    masks, free = _threshold_masks(g, thresholds)
    assert len(masks) == len(free) == len(thresholds)
    for t, m, f, floor in zip(thresholds, masks, free, floors):
        adj = g <= t
        assert (m, f) == _packbits_row_masks(adj)
        assert _clique_search(m, f, floor)[:2] == _frozen_max_clique(adj, floor)
