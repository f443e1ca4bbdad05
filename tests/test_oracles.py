import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.errors import (
    DomainMismatchError,
    InvalidToleranceError,
    QueryRangeError,
    UsageError,
)
from sqlab.fnspace import (
    BoolFn,
    Dist,
    Domain,
    FnSet,
    RealFn,
    dist_random,
    dist_uniform,
    parity_class,
    random_real_fn,
)
from sqlab.oracles import MAX_SAMPLE_SIZE, MODES, Batch, SQOracle
from sqlab.rng import make_rng
from sqlab.sqcore import weak_agnostic_learner

from conftest import (RecordingOracle, decompose, inner_product, l1_distance, random_bool_fn,
                      table_set)


def _setup(n=3, seed=0):
    domain = Domain(n)
    rng = make_rng(seed, 0, "test")
    target = random_bool_fn(domain, rng)
    dist = dist_random(domain, rng)
    return domain, target, dist, rng


def test_query_validation():
    domain, target, dist, rng = _setup()
    orc = SQOracle(target, dist)
    ok = rng.uniform(-0.5, 0.5, (3, domain.size))
    for bad in (ok[0], ok[None]):  # not (k, 2^n): no set at all
        with pytest.raises(UsageError):
            FnSet(domain, bad)
    for bad in (ok[:, :4], np.zeros((2, 16))):  # a set over another domain
        with pytest.raises(DomainMismatchError):
            orc.query(table_set(bad), 0.1)
    for bad in (ok[:2], ok[0], ok[:, :4]):  # phi2 shaped unlike phi1
        with pytest.raises(UsageError):
            orc.query(table_set(ok), 0.1, bad)
    nan = ok.copy()
    nan[1, 2] = np.nan
    for phi1 in (nan, np.full((1, 8), np.nan)):  # a set holds no NaN
        with pytest.raises(UsageError):
            table_set(phi1)
    for phi1, phi2 in ((np.full((1, 8), 1.2), None), (ok, np.full((3, 8), 0.6)), (ok, nan)):
        with pytest.raises(QueryRangeError):
            orc.query(table_set(phi1), 0.1, phi2)
    for tau in (0.0, -0.1, 1.5, float("nan"), 5e-324):  # a subnormal 2*tau overflows the grid
        with pytest.raises(InvalidToleranceError):
            orc.query(table_set(ok), tau)
        with pytest.raises(InvalidToleranceError):
            orc.correlational_many(FnSet(domain, ok), tau)
    assert orc.query_count == 0 and orc.query_log == []
    # the unit ball's edge is in range: |phi1| + |phi2| = 1
    half = np.full((1, 8), 0.5)
    assert orc.query(table_set(half), 1.0, -half)[0] == pytest.approx(
        0.5 * float(np.dot(dist.weights, target.values)) - 0.5, abs=1e-12)
    assert orc.query(table_set(np.zeros((0, 8))), 0.1, np.zeros((0, 8))).shape == (0,)


def test_exact_correlational_matches_inner_product():
    domain, target, dist, rng = _setup()
    phi = random_real_fn(domain, rng)
    orc = SQOracle(target, dist, mode="exact")
    (got,) = orc.query(table_set(phi.values), 0.1)
    assert got == pytest.approx(inner_product(phi, target, dist), abs=1e-12)
    assert orc.query_count == 1


def test_target_independent_ignores_target():
    domain, target, dist, rng = _setup()
    phi = random_real_fn(domain, rng)
    zero = np.zeros((1, domain.size))
    (a,) = SQOracle(target, dist).query(table_set(zero), 0.1, phi.values[None])
    (b,) = SQOracle(BoolFn(domain, -target.values), dist).query(table_set(zero), 0.1, phi.values[None])
    assert a == b == pytest.approx(float(np.dot(dist.weights, phi.values)), abs=1e-12)


def test_grid_adversary_rounds_to_tolerance_grid():
    # true value 0.37 at tau = 0.1 snaps to the nearest multiple of 2*tau = 0.4
    domain = Domain(1)
    target = BoolFn(domain, np.ones(2))
    dist = dist_uniform(domain)
    phi = RealFn(domain, np.full(2, 0.37))
    orc = SQOracle(target, dist, mode="grid_adversary")
    (got,) = orc.query(table_set(phi.values), 0.1)
    assert got == pytest.approx(0.4, abs=1e-12)
    assert abs(got - 0.37) <= 0.1


def test_grid_adversary_never_lands_past_tau():
    # truths at the odd multiples of tau = 0.07, halfway between grid points:
    # in floats, the grid point of each of +-0.63, +-0.77 and +-0.91 lands
    # 5.6e-17 past tau from it, so those answers step a float toward their
    # truths and the audit finds no gap
    domain = Domain(1)
    tau = 0.07
    truths = np.arange(-13, 14, 2) * tau
    orc = SQOracle(BoolFn(domain, np.ones(2)), dist_uniform(domain), mode="grid_adversary")
    fs = FnSet(domain, np.repeat(truths[:, None], 2, axis=1))
    got = orc.correlational_many(fs, tau)
    np.testing.assert_array_equal(orc.true_values(fs), truths)
    assert np.all(np.abs(got - truths) <= tau)
    assert orc.audit() <= 0
    grid = np.round(truths / (2 * tau)) * 2 * tau
    np.testing.assert_array_equal(np.flatnonzero(got != grid), [0, 1, 2, 11, 12, 13])
    np.testing.assert_allclose(got, grid, rtol=0, atol=1e-15)


def test_noisy_mode_bounded_and_seeded():
    domain, target, dist, rng = _setup()
    phi = random_real_fn(domain, rng)
    tau = 0.05
    a = SQOracle(target, dist, mode="noisy", seed=9)
    b = SQOracle(target, dist, mode="noisy", seed=9)
    truth = inner_product(phi, target, dist)
    va = [float(a.query(table_set(phi.values), tau)[0]) for _ in range(20)]
    vb = [float(b.query(table_set(phi.values), tau)[0]) for _ in range(20)]
    assert va == vb
    assert all(abs(v - truth) <= tau for v in va)
    assert len(set(va)) > 1  # fresh noise per query


def test_empirical_mode_concentrates():
    domain, target, dist, rng = _setup()
    phi = random_real_fn(domain, rng)
    truth = inner_product(phi, target, dist)
    s = 10_000
    hits = 0
    for seed in range(50):
        orc = SQOracle(target, dist, mode="empirical", seed=seed, sample_size=s)
        (v,) = orc.query(table_set(phi.values), 0.05)
        hits += abs(v - truth) <= 3.0 / np.sqrt(s)
    assert hits >= 45
    assert orc.probabilistic and orc.query_log[-1].queries == 1


def test_empirical_mode_requires_sample_size():
    _, target, dist, _ = _setup()
    with pytest.raises(UsageError):
        SQOracle(target, dist, mode="empirical")
    for size in (1, np.int64(7), np.uint8(7)):  # numpy integers are sizes too
        orc = SQOracle(target, dist, mode="empirical", seed=3, sample_size=size)
        assert orc.query(table_set(target.values), 0.05)[0] == 1.0  # every draw agrees
    with pytest.raises(UsageError):
        SQOracle(target, dist, mode="psychic")


def test_sample_size_is_at_most_2_to_the_53():
    # past 2^53 the signed counts, and their sums with +-1 rows, stop being
    # exact in float64
    _, target, dist, _ = _setup()
    assert MAX_SAMPLE_SIZE == 2**53
    orc = SQOracle(target, dist, mode="empirical", sample_size=2**53)
    fs = FnSet(dist.domain, [target.values, -target.values])
    assert orc.correlational_many(fs, 0.05).tolist() == [1.0, -1.0]
    for size in (2**53 + 1, 2**64):
        for mode in MODES:
            with pytest.raises(UsageError, match=r"<= 2\^53, got"):
                SQOracle(target, dist, mode=mode, sample_size=size)


@pytest.mark.parametrize("size", [2.5, 2.0, 0, -3, True, np.True_, "2", np.float64(4.0)])
def test_sample_size_must_be_an_integer_of_at_least_one(size):
    # a float size would divide the counts of int(size) draws by size: at 2.5,
    # 2 draws read +-0.8 where the truth is +-1
    _, target, dist, _ = _setup()
    for mode in MODES:
        with pytest.raises(UsageError, match="sample_size must be an integer >= 1"):
            SQOracle(target, dist, mode=mode, sample_size=size)


def test_query_log_and_audit():
    domain, target, dist, rng = _setup()
    phis = [random_real_fn(domain, rng) for _ in range(5)]
    for mode in ("exact", "grid_adversary", "noisy"):
        orc = SQOracle(target, dist, mode=mode, seed=3)
        for phi in phis:
            orc.query(table_set(phi.values), 0.07)
        assert orc.query_count == 5
        assert len(orc.query_log) == 5
        assert orc.audit() <= 1e-12
        first = orc.query_log[0]
        assert (first.tau, first.queries) == (0.07, 1) and orc.probabilistic is False


def test_batch_truth_reused_for_the_same_fn_set():
    domain, target, dist, rng = _setup()
    mat = rng.uniform(-1, 1, (5, domain.size))
    fs = FnSet(domain, mat)
    orc = SQOracle(target, dist)
    first = orc.correlational_many(fs, 0.1)
    assert orc.true_values(fs) is orc.true_values(fs)
    np.testing.assert_array_equal(orc.correlational_many(fs, 0.1), first)
    assert orc.query_count == 10 and [b.queries for b in orc.query_log] == [5, 5]
    # an FnSet copies a writeable table, so a change to it makes another set
    mat[0] = -mat[0]
    assert orc.correlational_many(FnSet(domain, mat), 0.1)[0] == pytest.approx(
        -first[0], abs=1e-12)
    np.testing.assert_array_equal(orc.correlational_many(fs, 0.1), first)
    assert orc.audit() <= 1e-12


def test_audit_is_the_worst_logged_gap():
    # an exact batch logs the gap 0 without measuring it, the other modes measure
    # theirs: in every mode the log is the one recomputed from the true values
    domain, target, dist, rng = _setup()
    mat = rng.uniform(-1, 1, (6, domain.size))
    fs = FnSet(domain, mat)
    for mode in MODES:
        orc = RecordingOracle(target, dist, mode=mode, seed=2, sample_size=5)
        orc.correlational_many(fs, 0.05)
        orc.query(table_set(mat[:1]), 0.2)
        orc.correlational_many(FnSet(domain, mat[:0]), 0.3)
        orc.correlational_many(fs, 0.1)  # the same set again: its true values are reused
        # the empty batch leaves no record
        assert [(b.tau, b.queries) for b in orc.query_log] == [(0.05, 6), (0.2, 1), (0.1, 6)], mode
        gaps = [(tau, np.abs(v - t)) for tau, v, t in orc.batches if len(v)]
        assert orc.query_log == [Batch(tau, len(g), float(g.max()), int(np.sum(g > tau)))
                                 for tau, g in gaps], mode
        want = max(abs(value - truth) - tau for tau, value, truth in orc.answers)
        assert orc.audit() == (None if mode == "empirical" else want), mode
        assert orc.probabilistic == (mode == "empirical") and len(orc.answers) == 13


def test_answers_are_read_only_and_kept_once():
    # no mode's oracle keeps a reference to the answers it returns, save the
    # exact mode's, whose answers are the cached truth
    domain, target, dist, rng = _setup()
    fs = FnSet(domain, rng.uniform(-1, 1, (4, domain.size)))
    for mode in MODES:
        orc = SQOracle(target, dist, mode=mode, seed=1, sample_size=20)
        values = orc.correlational_many(fs, 0.1)
        with pytest.raises(ValueError):
            values[0] = 0.0
        answers = weakref.ref(values)
        del values
        gc.collect()
        if mode == "exact":
            assert answers() is orc.true_values(fs)
        else:
            assert answers() is None, mode
    assert SQOracle(target, dist).audit() is None  # nothing asked: nothing to check


def test_a_set_over_another_domain_is_refused():
    # a class over n=3 asked of an oracle over n=4 has 8 members, not 16 answers
    domain, target, dist, rng = _setup(n=4)
    for fs in (parity_class(3), table_set(rng.uniform(-1, 1, (2, 8)))):
        for mode in MODES:
            orc = SQOracle(target, dist, mode=mode, sample_size=20)
            with pytest.raises(DomainMismatchError, match="over n=3 asked under"):
                orc.correlational_many(fs, 0.1)
            with pytest.raises(DomainMismatchError):
                orc.true_values(fs)
            with pytest.raises(DomainMismatchError):
                weak_agnostic_learner(fs, orc, 0.1)
            assert orc.query_count == 0 and orc.query_log == [], mode


def test_an_empty_batch_advances_the_stream_by_nothing():
    # an empty batch draws no sample and no noise: the next batch's answers are
    # those of an oracle that never saw it
    domain, target, dist, rng = _setup()
    fs = FnSet(domain, rng.uniform(-1, 1, (4, domain.size)))
    empty = FnSet(domain, np.zeros((0, domain.size)))
    for mode in MODES:
        asked, fresh = (SQOracle(target, dist, mode=mode, seed=3, sample_size=50)
                        for _ in range(2))
        assert asked.correlational_many(empty, 0.1).shape == (0,)
        # Philox's state holds arrays: its repr compares them whole
        assert repr(asked._rng.bit_generator.state) == repr(fresh._rng.bit_generator.state), mode
        assert asked.examples == fresh.examples == (0 if mode == "empirical" else None)
        got, want = asked.correlational_many(fs, 0.1), fresh.correlational_many(fs, 0.1)
        assert got.tobytes() == want.tobytes(), mode
        assert asked.examples == fresh.examples == (50 if mode == "empirical" else None)


@st.composite
def _dyadic_case(draw):
    """Target, weights a/2^K and query rows in quarters: every product and
    partial sum is exact, so any summation order gives the same bits."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    units = draw(st.lists(st.integers(0, 7), min_size=size - 1, max_size=size - 1))
    scale = 1 << sum(units).bit_length()
    weights = np.array(units + [scale - sum(units)]) / scale
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
    quarters = st.integers(-4, 4).map(lambda v: v / 4)
    rows = draw(st.lists(st.lists(quarters, min_size=size, max_size=size),
                         min_size=1, max_size=6))
    domain = Domain(n)
    return BoolFn(domain, signs), Dist(domain, weights), np.array(rows)


@settings(max_examples=60, deadline=None)
@given(case=_dyadic_case(), tau=st.floats(0.01, 1.0), seed=st.integers(0, 2**32),
       sample_size=st.integers(1, 50))
def test_correlational_many_matches_single_queries(case, tau, seed, sample_size, one_by_one):
    # the batch answers, counts and logs as the reference that takes its rows one by one
    target, dist, mat = case
    for mode in MODES:
        batch = RecordingOracle(target, dist, mode=mode, seed=seed, sample_size=sample_size)
        got = batch.correlational_many(FnSet(dist.domain, mat), tau)
        want, truths = one_by_one(target, dist, mat, tau, mode, seed, sample_size)
        assert got.tolist() == want, mode
        assert batch.query_count == len(mat)
        assert batch.answers == [(tau, v, t) for v, t in zip(want, truths)]
        assert batch.probabilistic == (mode == "empirical")
        gaps = [abs(v - t) for v, t in zip(want, truths)]
        assert batch.query_log == \
            [Batch(tau, len(mat), max(gaps), sum(g > tau for g in gaps))], mode


_unit = st.floats(-1.0, 1.0)


@st.composite
def _float_case(draw):
    n = draw(st.integers(1, 3))
    size = 1 << n
    table = st.lists(_unit, min_size=size, max_size=size).map(np.array)
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
               .filter(lambda v: sum(v) > 1e-3))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
    rows = draw(st.lists(table, min_size=1, max_size=4))
    domain = Domain(n)
    return (domain, Dist(domain, np.array(raw) / sum(raw)), BoolFn(domain, signs),
            draw(table), rows, draw(table), draw(table))


@settings(max_examples=60, deadline=None)
@given(case=_float_case(), tau=st.floats(np.finfo(np.float64).tiny, 1.0),
       seed=st.integers(0, 2**32))
def test_valid_modes_answer_within_tau_at_every_entry_point(case, tau, seed):
    domain, dist, target, phi_a, rows, pos, neg = case
    w = dist.weights
    p = (1.0 + phi_a) / 2.0
    rows = np.array(rows)
    # the rows, then one target-independent row and one general query, as
    # (phi1, phi2) tables
    phi1, phi2 = decompose(pos, neg)
    zero = np.zeros_like(rows)
    general1 = np.vstack([rows, np.zeros(domain.size), phi1])
    general2 = np.vstack([zero, rows[0], phi2])
    # E[psi(x, b)] written out per kind, for the target and for phi_A
    truth = [float(np.sum(w * r * target.values)) for r in rows]
    truth += [float(np.sum(w * rows[0])),
              float(np.sum(w * np.where(target.values > 0, pos, neg)))]
    agnostic_truth = [float(np.sum(w * r * phi_a)) for r in rows]
    agnostic_truth += [truth[len(rows)], float(np.sum(w * (p * pos + (1 - p) * neg)))]
    for mode in ("exact", "grid_adversary", "noisy"):
        oracle = SQOracle(target, dist, mode=mode, seed=seed)
        answers = oracle.correlational_many(FnSet(domain, rows), tau).tolist()
        answers += oracle.query(FnSet(domain, rows), tau).tolist()
        answers += oracle.query(FnSet(domain, general1), tau, general2).tolist()
        agnostic = SQOracle(RealFn(domain, phi_a), dist, mode=mode, seed=seed)
        answers += agnostic.correlational_many(FnSet(domain, rows), tau).tolist()
        answers += agnostic.query(FnSet(domain, rows), tau).tolist()
        answers += agnostic.query(FnSet(domain, general1), tau, general2).tolist()
        want = truth[:len(rows)] * 2 + truth + agnostic_truth[:len(rows)] * 2 + agnostic_truth
        gaps = np.abs(np.array(answers) - np.array(want))
        assert gaps.max() <= tau + 1e-12, (mode, gaps.max(), tau)
        assert oracle.audit() <= 1e-12
        assert agnostic.audit() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(case=_float_case())
def test_decomposition_identity(case, cell_mean):
    # E_D[psi(x, b)] = <phi1, y>_D + E_D[phi2] for a Boolean and a real target y
    domain, dist, target, phi_a, _, pos, neg = case
    phi1, phi2 = decompose(pos, neg)
    for y in (target, RealFn(domain, phi_a)):
        want = float(np.dot(dist.weights, phi1 * y.values)) + float(np.dot(dist.weights, phi2))
        assert abs(cell_mean(pos, neg, y.values, dist.weights) - want) <= 1e-12
        (got,) = SQOracle(y, dist).query(table_set(phi1), 0.05, phi2[None])
        assert abs(got - want) <= 1e-12


def test_decompose_roundtrip(cell_mean):
    domain, target, dist, rng = _setup()
    pos = rng.uniform(-1, 1, (4, domain.size))
    neg = rng.uniform(-1, 1, (4, domain.size))
    phi1, phi2 = decompose(pos, neg)
    np.testing.assert_allclose(phi1 + phi2, pos, atol=1e-12)
    np.testing.assert_allclose(phi2 - phi1, neg, atol=1e-12)
    # each general value is its correlational part plus its target-independent part
    got = SQOracle(target, dist).query(table_set(phi1), 0.1, phi2)
    want = [cell_mean(a, b, target.values, dist.weights) for a, b in zip(pos, neg)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # one row's tables split the same way as the matrix's rows
    one1, one2 = decompose(pos[2], neg[2])
    np.testing.assert_array_equal(one1, phi1[2])
    np.testing.assert_array_equal(one2, phi2[2])


def test_decompose_label_only_query():
    # psi(x, l) = l has phi1 = 1 and phi2 = 0: it measures E[f]
    domain, target, dist, _ = _setup()
    phi1, phi2 = decompose(np.ones(8), -np.ones(8))
    np.testing.assert_array_equal(phi1, np.ones(8))
    np.testing.assert_array_equal(phi2, np.zeros(8))
    want = float(np.dot(dist.weights, target.values))
    (got,) = SQOracle(target, dist).query(table_set(phi1), 0.1, phi2[None])
    assert got == pytest.approx(want, abs=1e-12)


def test_agnostic_source_basics():
    domain, target, dist, rng = _setup()
    phi = random_real_fn(domain, rng)
    with pytest.raises(DomainMismatchError):
        SQOracle(random_real_fn(Domain(2), rng), dist)
    # Boolean phi_A reduces to the plain oracle on that target
    phi_a = RealFn(domain, target.values)
    assert SQOracle(phi_a, dist).query(table_set(phi.values), 0.1)[0] == pytest.approx(
        SQOracle(target, dist).query(table_set(phi.values), 0.1)[0], abs=1e-12
    )


def test_agnostic_disagreement_recovery(cell_mean):
    # psi(x,l) = (1 - l*h(x))/2 measures half the L1 distance between phi_A and h
    domain, _, dist, rng = _setup(seed=5)
    h = random_bool_fn(domain, rng)
    phi_a = random_real_fn(domain, rng)
    pos, neg = (1 - h.values) / 2.0, (1 + h.values) / 2.0
    got = cell_mean(pos, neg, phi_a.values, dist.weights)
    assert got == pytest.approx(l1_distance(phi_a, h, dist) / 2.0, abs=1e-12)
    phi1, phi2 = decompose(pos, neg)
    assert SQOracle(phi_a, dist).query(table_set(phi1), 0.1, phi2[None])[0] == \
        pytest.approx(got, abs=1e-12)


def test_agnostic_stat_query_modes():
    domain, _, dist, rng = _setup(seed=6)
    phi_a = random_real_fn(domain, rng)
    g = table_set(random_real_fn(domain, rng).values)
    truth = inner_product(RealFn(domain, g.row(0)), phi_a, dist)
    assert SQOracle(phi_a, dist).query(g, 0.05)[0] == pytest.approx(truth, abs=1e-12)
    (grid,) = SQOracle(phi_a, dist, mode="grid_adversary").query(g, 0.05)
    assert abs(grid - truth) <= 0.05 + 1e-12
    assert grid == pytest.approx(round(truth / 0.1) * 0.1, abs=1e-12)
    (noisy,) = SQOracle(phi_a, dist, mode="noisy", seed=1).query(g, 0.05)
    assert abs(noisy - truth) <= 0.05
    (emp,) = SQOracle(phi_a, dist, mode="empirical", seed=2, sample_size=200_000).query(g, 0.05)
    assert abs(emp - truth) <= 0.02
