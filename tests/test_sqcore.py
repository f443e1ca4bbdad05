import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.errors import InvalidToleranceError, QueryBudgetError, QueryRangeError, UsageError
from sqlab.fnspace import (
    BoolFn,
    Dist,
    Domain,
    FnSet,
    RealFn,
    conjunction_class,
    disagreement,
    dist_random,
    inner_product,
    make_parity,
    parity_class,
    project_unit,
    random_real_fn,
    sign_of,
)
from sqlab.oracles import MODES, SQOracle
from sqlab.rng import make_rng
from sqlab.sqcore import (
    ExhaustiveCSQ,
    SQAlgorithm,
    build_gpsi,
    class_pool_generator,
    gpsi_generator,
    _first_hit,
    projected_learner,
    run_with_oracle,
    weak_agnostic_learner,
)

from conftest import (
    RecordingOracle,
    class_table,
    decompose,
    dense_class,
    random_bool_fn,
    rows_of,
)


def _single(f):
    return FnSet(f.domain, [f.values])


def test_class_pool_generator_validation(domain3):
    with pytest.raises(UsageError):
        class_pool_generator(FnSet(domain3, np.empty((0, 8))), gamma=0.1)
    f = np.zeros(8)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            class_pool_generator(FnSet(domain3, [f]), gamma=bad)
    with pytest.raises(UsageError):
        FnSet(domain3, np.zeros((2, 4)))  # rows over another domain
    with pytest.raises(UsageError):  # outside the unit ball
        class_pool_generator(FnSet(domain3, np.full((1, 8), 1.5)), gamma=0.1)
    pool = FnSet(domain3, [f, -f])
    rows, gamma = class_pool_generator(pool, gamma=0.25)(None)
    assert rows is pool and gamma == 0.25
    assert len(rows) == 2 and rows.matrix.shape == (2, 8)
    assert not rows.matrix.flags.writeable


def test_exhaustive_csq_recovers_every_target(domain3, uniform3):
    cclass = dense_class("conjunctions", 3)
    for mode in ("exact", "grid_adversary"):
        for f in cclass:
            orc = SQOracle(f, uniform3, mode=mode)
            h = run_with_oracle(ExhaustiveCSQ(cclass, 0.1), orc)
            assert disagreement(h, f, uniform3) <= 0.1
            assert orc.query_count == len(cclass)


def test_exhaustive_csq_tie_breaks_to_first_index(domain3, uniform3):
    # chi_1 and chi_2 both score 0 against chi_{1,2}: the first one wins
    f = make_parity(domain3, [1, 2])
    rows = [make_parity(domain3, [1]).values, make_parity(domain3, [2]).values]
    tie = FnSet(domain3, rows)
    h = run_with_oracle(ExhaustiveCSQ(tie, 0.1), SQOracle(f, uniform3))
    assert h == tie[0] and h != tie[1]


def test_build_gpsi_size_and_order(domain3, uniform3):
    cclass = dense_class("parities", 3)
    alg = ExhaustiveCSQ(cclass, 0.1)
    psi = random_real_fn(domain3, make_rng(2, 0, "psi"))
    aset = build_gpsi(alg, psi, uniform3)
    # one member per correlational query, then sign(psi), then the hypothesis
    assert len(aset) == len(cclass) + 2
    rows, gamma = gpsi_generator(alg, uniform3)(psi)
    assert gamma == alg.tau and rows_of(rows).tobytes() == rows_of(aset).tobytes()
    np.testing.assert_array_equal(rows_of(aset)[:-2], cclass.matrix)
    np.testing.assert_array_equal(aset.row(-2), sign_of(psi).values)


def test_build_gpsi_memory_does_not_grow_with_its_rounds():
    # the simulating oracle logs four numbers a round, not the round's answers:
    # 20 rounds of distinct n=16 classes, each with its own 0.5 MiB of true
    # values, peak as one round does
    class Distinct(SQAlgorithm):
        """Asks `rounds` rounds, each a new conjunction_class(16)."""

        tau = 0.05
        epsilon = 0.1

        def __init__(self, rounds):
            self.rounds = rounds

        def run(self, ask):
            for _ in range(self.rounds):
                cclass = conjunction_class(16)
                values = ask(cclass)
            return cclass[int(np.argmax(values))]

    domain = Domain(16)
    d = dist_random(domain, make_rng(0, 16, "dist"))
    psi = random_real_fn(domain, make_rng(0, 16, "psi"))
    peaks = []
    for rounds in (1, 1, 10, 20):  # the first run allocates what later runs reuse
        tracemalloc.start()
        try:
            gset = build_gpsi(Distinct(rounds), psi, d, budget=20 * 2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gset) == rounds * 2**16 + 2 and gset.matrix is None
        peaks.append(peak)
    assert max(peaks[2:]) <= peaks[1] + 2**20, peaks


def test_build_gpsi_respects_budget(domain3, uniform3):
    class Chatty(SQAlgorithm):
        """Asks `rounds` rounds (None: forever) of `rows` zero rows."""

        tau = 0.1
        epsilon = 0.1

        def __init__(self, rows, rounds=None):
            self.rows = rows
            self.rounds = rounds

        def run(self, ask):
            asked = 0
            while self.rounds is None or asked < self.rounds:
                ask(FnSet(domain3, np.zeros((self.rows, 8))))
                asked += 1
            return BoolFn(domain3, np.ones(8))

    psi = RealFn(domain3, np.zeros(8))
    with pytest.raises(QueryBudgetError):
        build_gpsi(Chatty(1), psi, uniform3, budget=10)
    # one round larger than the whole budget is refused
    with pytest.raises(QueryBudgetError):
        build_gpsi(Chatty(11, rounds=1), psi, uniform3, budget=10)
    assert len(build_gpsi(Chatty(10, rounds=1), psi, uniform3, budget=10)) == 12
    assert len(build_gpsi(Chatty(3, rounds=0), psi, uniform3, budget=np.int64(0))) == 2
    # a budget that is not an integer >= 0 is refused up front, naming the value
    for bad in (math.nan, 2.5, True, -1):
        with pytest.raises(UsageError, match=f"budget must be an integer >= 0, got {bad!r}"):
            build_gpsi(Chatty(0, rounds=0), psi, uniform3, budget=bad)
        with pytest.raises(UsageError, match=f"budget must be an integer >= 0, got {bad!r}"):
            gpsi_generator(Chatty(0, rounds=0), uniform3, budget=bad)


@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_build_gpsi_rejects_rows_outside_the_unit_ball(domain3, uniform3, bad):
    class Wild(SQAlgorithm):
        """Asks one round whose second row holds `bad`."""

        tau = 0.1
        epsilon = 0.1

        def run(self, ask):
            rows = np.zeros((2, 8))
            rows[1, 3] = bad
            ask(FnSet(domain3, rows))
            return BoolFn(domain3, np.ones(8))

    with pytest.raises(UsageError):
        build_gpsi(Wild(), RealFn(domain3, np.zeros(8)), uniform3)


@pytest.mark.parametrize("fault, error", [
    ("phi2 2.0", QueryRangeError), ("phi2 NaN", QueryRangeError),
    ("phi2 (k+1, 2^n)", UsageError), ("phi1 1.5", QueryRangeError)])
def test_the_oracle_and_the_simulation_refuse_the_same_rounds(domain3, uniform3, fault, error):
    # one round check serves both entry points: a round that the live oracle
    # refuses is not answered in simulation either
    phi1, phi2 = np.zeros((2, 8)), np.zeros((2, 8))
    if fault == "phi1 1.5":
        phi1[1, 3], phi2 = 1.5, None
    elif fault == "phi2 (k+1, 2^n)":
        phi2 = np.zeros((3, 8))
    else:
        phi2[1, 3] = 2.0 if fault == "phi2 2.0" else math.nan

    class OneRound(SQAlgorithm):
        tau = 0.1
        epsilon = 0.1

        def run(self, ask):
            ask(FnSet(domain3, phi1), phi2)
            return BoolFn(domain3, np.ones(8))

    oracle = SQOracle(BoolFn(domain3, np.ones(8)), uniform3)
    with pytest.raises(UsageError) as live:
        run_with_oracle(OneRound(), oracle)
    with pytest.raises(UsageError) as simulated:
        build_gpsi(OneRound(), RealFn(domain3, np.zeros(8)), uniform3)
    assert type(live.value) is type(simulated.value) is error
    assert oracle.query_count == 0


@pytest.mark.parametrize("tau", [0.0, 1.5, math.nan])
def test_the_simulation_refuses_a_tolerance_the_oracle_refuses(domain3, uniform3, tau):
    # a simulated round is an exact oracle's round, tolerance check included
    class Loose(SQAlgorithm):
        epsilon = 0.1

        def run(self, ask):
            ask(FnSet(domain3, np.zeros((1, 8))))
            return BoolFn(domain3, np.ones(8))

    alg = Loose()
    alg.tau = tau
    with pytest.raises(InvalidToleranceError):
        run_with_oracle(alg, SQOracle(BoolFn(domain3, np.ones(8)), uniform3))
    with pytest.raises(InvalidToleranceError):
        build_gpsi(alg, RealFn(domain3, np.zeros(8)), uniform3)


def test_learn_pool_is_the_class_and_its_truths_are_computed_once(domain3):
    # every round gets the class itself, so the oracle's identity cache
    # answers every round after the first from the first round's truths
    dist = dist_random(domain3, make_rng(6, 0, "dist"))
    cclass = conjunction_class(3)
    pool_gen = class_pool_generator(cclass, gamma=0.08)
    seen = []

    def gen(psi):
        seen.append(pool_gen(psi))
        return seen[-1]

    oracle = RecordingOracle(cclass[3], dist)
    _, trace = projected_learner(gen, oracle, 0.02)
    assert trace.halt_reason == "converged" and len(trace.rows) >= 3
    assert all(rows is cclass and rows.matrix is cclass.matrix for rows, _ in seen)
    truths = [truth for _, _, truth in oracle.batches]
    assert len(truths) == len(trace.rows)
    assert all(t is truths[0] for t in truths)


class GeneralRounds(SQAlgorithm):
    """Asks the decomposed general queries with label slices (pos, neg), in
    rounds of the given sizes, and keeps the answers; its hypothesis is the
    sign of the first phi1."""

    tau = 0.05
    epsilon = 0.1

    def __init__(self, domain, pos, neg, sizes):
        self.domain = domain
        self.phi1, self.phi2 = decompose(pos, neg)
        self.sizes = sizes
        self.answers = []

    def run(self, ask):
        lo = 0
        for k in self.sizes:
            self.answers.extend(ask(FnSet(self.domain, self.phi1[lo:lo + k]),
                                    self.phi2[lo:lo + k]))
            lo += k
        return sign_of(RealFn(self.domain, self.phi1[0]))


def test_general_query_rounds(domain3, cell_mean):
    # no built-in algorithm asks a target-independent part: this one does
    rng = make_rng(16, 0, "general")
    d = dist_random(domain3, rng)
    pos, neg = rng.uniform(-1, 1, (7, 8)), rng.uniform(-1, 1, (7, 8))
    sizes = [3, 1, 0, 3]
    psi = random_real_fn(domain3, rng)
    alg = GeneralRounds(domain3, pos, neg, sizes)
    aset = build_gpsi(alg, psi, d)
    want = [cell_mean(a, b, psi.values, d.weights) for a, b in zip(pos, neg)]
    np.testing.assert_allclose(alg.answers, want, rtol=0, atol=1e-12)
    # the phi1 rows in asking order, then sign(psi), then the hypothesis
    np.testing.assert_array_equal(rows_of(aset)[:-2], alg.phi1)
    np.testing.assert_array_equal(aset.row(-2), sign_of(psi).values)
    np.testing.assert_array_equal(aset.row(-1), np.where(alg.phi1[0] >= 0, 1.0, -1.0))

    f = random_bool_fn(domain3, rng)
    alg = GeneralRounds(domain3, pos, neg, sizes)
    orc = SQOracle(f, d)
    run_with_oracle(alg, orc)
    want = [cell_mean(a, b, f.values, d.weights) for a, b in zip(pos, neg)]
    np.testing.assert_allclose(alg.answers, want, rtol=0, atol=1e-12)
    assert orc.query_count == len(pos)


def test_build_gpsi_distinguishing_margin(domain3, uniform3):
    # any target far from sign(psi) correlates with some set member by >= tau
    cclass = dense_class("parities", 3)
    eps = 0.1
    rng = make_rng(3, 0, "psi")
    for _ in range(10):
        psi = random_real_fn(domain3, rng)
        alg = ExhaustiveCSQ(cclass, eps)
        aset = build_gpsi(alg, psi, uniform3)
        ball = eps + eps / 2.0
        for f in cclass:
            if disagreement(f, sign_of(psi), uniform3) <= ball:
                continue
            shifted = f.values - psi.values
            margins = np.abs(aset.correlate(shifted * uniform3.weights))
            assert margins.max() >= alg.tau - 1e-12


def test_projected_learner_singleton_generator(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(4, 0, "f"))
    gen = class_pool_generator(_single(f), gamma=1.0)
    orc = SQOracle(f, uniform3)
    hyp, trace = projected_learner(gen, orc, tau=0.05, audit_target=f)
    assert trace.halt_reason == "converged"
    assert trace.updates == 1  # one jump to the target, then no margin left
    assert disagreement(hyp, f, uniform3) == 0.0
    assert trace.rows[0].gamma == pytest.approx(1.0)
    assert trace.rows[-1].potential <= 4 * 0.05


def test_projected_learner_tau_and_claim_validation(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(5, 0, "f"))
    gen = class_pool_generator(_single(f), gamma=1.0)
    orc = SQOracle(f, uniform3)
    for bad in (0.0, 1 / 3, 0.5, math.nan):
        with pytest.raises(UsageError):
            projected_learner(gen, orc, tau=bad)
    # 3*tau^2 underflows to 0, or its inverse overflows: no finite ledger
    for tiny in (1e-200, 1e-160):
        with pytest.raises(UsageError, match="ledger"):
            projected_learner(gen, orc, tau=tiny)
    weak = class_pool_generator(_single(f), gamma=0.1)
    with pytest.raises(UsageError):
        projected_learner(weak, orc, tau=0.05)  # claims 0.1 < 4*tau
    for bad in (math.nan, math.inf):  # a generator that skips class_pool_generator's check
        with pytest.raises(UsageError):
            projected_learner(lambda psi: (_single(f), bad), orc, tau=0.05)


def test_projected_learner_trace_replay(domain3):
    # the trace determines the full psi path: replaying it reproduces the run
    dist = dist_random(domain3, make_rng(6, 0, "dist"))
    cclass = conjunction_class(3)
    f = cclass[3]
    tau = 0.02
    gen = class_pool_generator(cclass, gamma=4 * tau)
    hyp, trace = projected_learner(gen, SQOracle(f, dist), tau, audit_target=f)
    assert trace.halt_reason == "converged"
    psi = np.zeros(8)
    pool = gen(None)[0]
    assert pool is cclass  # the pool is the class itself
    for row in trace.rows:
        pot = float(np.dot(dist.weights, (f.values - psi) ** 2))
        assert row.potential == pytest.approx(pot, abs=1e-12)
        if row.chosen is None:
            continue
        # accepted step: margin vs current psi at least 3*tau, sign preserved
        true_gap = inner_product(f, cclass[row.chosen], dist) - float(
            np.dot(dist.weights, psi * pool.row(row.chosen))
        )
        assert abs(row.gamma) >= 3 * tau
        assert math.copysign(1, row.gamma) == math.copysign(1, true_gap)
        psi = np.clip(psi + row.gamma * pool.row(row.chosen), -1.0, 1.0)
    np.testing.assert_array_equal(sign_of(project_unit(psi, domain3)).values, hyp.values)



@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 300), hit=st.one_of(st.none(), st.integers(0, 299)),
       seed=st.integers(0, 2**32))
def test_first_hit_matches_a_full_scan(k, hit, seed):
    # quarter-valued rows and vectors: every sum is exact, so the scan must
    # return exactly the first hit of the full product
    rng = np.random.default_rng(seed)
    mat = rng.integers(-4, 5, (k, 8)) / 4
    v = rng.integers(-4, 5, 8) / 4
    values = mat @ v + rng.integers(-1, 2, k) / 8
    if hit is not None and hit < k:
        values[hit] += 1.0
    diffs = values - mat @ v
    hits = np.flatnonzero(np.abs(diffs) >= 0.5)
    want = (int(hits[0]), float(diffs[hits[0]])) if hits.size else (None, None)
    assert _first_hit(FnSet(Domain(3), mat), values, v, 0.5) == want

def test_projected_learner_flags_lying_oracle(domain3, uniform3):
    class Liar(SQOracle):
        def correlational_many(self, mat, tau):
            self.query_count += len(mat)
            return np.ones(len(mat))

    cclass = conjunction_class(3)
    gen = class_pool_generator(cclass, gamma=0.2)
    orc = Liar(cclass[0], uniform3)
    hyp, trace = projected_learner(gen, orc, tau=0.05)
    assert trace.halt_reason == "oracle-violation"
    # every round accepted an update, and the one past the ledger ended the run
    assert trace.updates == len(trace.rows) == math.ceil(1 / (3 * 0.05**2)) + 1


def test_gpsi_generator_learns_conjunctions(domain3, uniform3):
    cclass = dense_class("conjunctions", 3)
    eps_alg = 1 / 15
    gen = gpsi_generator(ExhaustiveCSQ(cclass, eps_alg), uniform3)
    f = cclass[4]
    hyp, trace = projected_learner(gen, SQOracle(f, uniform3), tau=1 / 120)
    assert trace.halt_reason == "converged"
    assert disagreement(hyp, f, uniform3) <= 0.1


def test_weak_agnostic_learner_guarantee(domain3, uniform3):
    parities = parity_class(3)
    pool = FnSet(domain3, class_table("parities", 3))
    rng = make_rng(7, 0, "agn")
    for _ in range(10):
        phi_a = random_real_fn(domain3, rng)
        best = max(abs(inner_product(g, phi_a, uniform3)) for g in parities)
        for mode in ("exact", "grid_adversary"):
            h = weak_agnostic_learner(pool, SQOracle(phi_a, uniform3, mode=mode), tau=0.05)
            got = inner_product(h, phi_a, uniform3)
            assert got >= best - 2 * 0.05 - 1e-12


@st.composite
def _agnostic_case(draw):
    """Weights a/2^K, phi_A and pool rows in quarters: every product and
    partial sum is exact, so any summation order gives the same bits."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    units = draw(st.lists(st.integers(0, 7), min_size=size - 1, max_size=size - 1))
    scale = 1 << sum(units).bit_length()
    row = st.lists(st.integers(-4, 4).map(lambda v: v / 4), min_size=size, max_size=size)
    domain = Domain(n)
    dist = Dist(domain, np.array(units + [scale - sum(units)]) / scale)
    pool = np.array(draw(st.lists(row, min_size=1, max_size=6)))
    return RealFn(domain, draw(row)), dist, FnSet(domain, pool)


@settings(max_examples=60, deadline=None)
@given(case=_agnostic_case(), tau=st.floats(0.01, 1.0), seed=st.integers(0, 2**32),
       sample_size=st.integers(1, 50))
def test_weak_agnostic_learner_matches_single_queries(case, tau, seed, sample_size,
                                                      one_by_one):
    # also run_with_oracle(ExhaustiveCSQ) on the signs of the same case: +-1
    # rows and target keep every sum exact, so the one batch must give the
    # hypothesis, count and log of the members asked one at a time, bit for bit
    phi_a, dist, pool = case
    cclass = FnSet(pool.domain, np.where(pool.matrix >= 0, 1.0, -1.0))
    f = sign_of(phi_a)
    alg = ExhaustiveCSQ(cclass, tau / 2)
    for mode in MODES:
        kw = dict(mode=mode, seed=seed, sample_size=sample_size)
        got = weak_agnostic_learner(pool, SQOracle(phi_a, dist, **kw), tau)
        values, _ = one_by_one(phi_a, dist, pool.matrix, tau, mode, seed, sample_size)
        j = int(np.argmax(np.abs(values)))
        want = pool.matrix[j] if values[j] >= 0 else -pool.matrix[j]
        assert got.values.tobytes() == want.tobytes(), mode

        batch = RecordingOracle(f, dist, **kw)
        got = run_with_oracle(alg, batch)
        values, truths = one_by_one(f, dist, cclass.matrix, alg.tau, mode, seed, sample_size)
        assert got.values.tobytes() == cclass.matrix[int(np.argmax(values))].tobytes(), mode
        assert batch.query_count == len(cclass)
        assert [(value, truth) for _, value, truth in batch.answers] == \
            list(zip(values, truths)), mode


def test_weak_agnostic_learner_orients_by_sign(domain3, uniform3):
    chi = make_parity(domain3, [1, 3])
    pool = parity_class(3)
    phi_a = RealFn(domain3, -0.5 * chi.values)
    h = weak_agnostic_learner(pool, SQOracle(phi_a, uniform3), tau=0.05)
    np.testing.assert_array_equal(h.values, -chi.values)
    assert inner_product(h, phi_a, uniform3) == pytest.approx(0.5, abs=1e-12)
