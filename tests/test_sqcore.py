import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import make_rng
from sqlab.errors import QueryBudgetError, UsageError
from sqlab.fnspace import (
    BoolFn,
    ConceptClass,
    Dist,
    Domain,
    RealFn,
    conjunction_class,
    disagreement,
    dist_random,
    dist_uniform,
    inner_product,
    make_parity,
    parity_class,
    project_unit,
    random_bool_fn,
    random_real_fn,
    sign_of,
)
from sqlab.oracles import (
    AgnosticDist,
    SQOracle,
    agnostic_stat_query,
    agnostic_true_value,
    correlational,
)
from sqlab.sqcore import (
    ApproxSet,
    ExhaustiveCSQ,
    SQAlgorithm,
    build_gpsi,
    class_pool_generator,
    exhaustive_csq_learner,
    gpsi_generator,
    _first_hit,
    projected_learner,
    run_with_oracle,
    weak_agnostic_learner,
)


def _single(f):
    return ConceptClass("single", f.domain, [f.values])


def test_approx_set_validation(domain3):
    with pytest.raises(UsageError):
        ApproxSet(domain3, np.empty((0, 8)), gamma=0.1)
    f = np.zeros(8)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            ApproxSet(domain3, [f], gamma=bad)
    with pytest.raises(UsageError):
        ApproxSet(domain3, np.zeros((2, 4)), gamma=0.1)  # rows over another domain
    with pytest.raises(UsageError):
        ApproxSet(domain3, np.full((1, 8), 1.5), gamma=0.1)  # outside the unit ball
    aset = ApproxSet(domain3, [f, -f], gamma=0.25, provenance="demo")
    assert len(aset) == 2 and aset.matrix.shape == (2, 8)
    assert not aset.matrix.flags.writeable


def test_exhaustive_csq_recovers_every_target(domain3, uniform3):
    cclass = conjunction_class(3)
    for mode in ("exact", "grid_adversary"):
        for f in cclass:
            orc = SQOracle(f, uniform3, mode=mode)
            h = exhaustive_csq_learner(cclass, orc, eps=0.1)
            assert disagreement(h, f, uniform3) <= 0.1
            assert orc.query_count == len(cclass)


def test_exhaustive_csq_tie_breaks_to_first_index(domain3, uniform3):
    # chi_1 and chi_2 both score 0 against chi_{1,2}: the first one wins
    f = make_parity(domain3, [1, 2])
    rows = [make_parity(domain3, [1]).values, make_parity(domain3, [2]).values]
    tie = ConceptClass("tie", domain3, rows)
    h = run_with_oracle(ExhaustiveCSQ(tie, 0.1), SQOracle(f, uniform3))
    assert h == tie[0] and h != tie[1]


def test_build_gpsi_size_and_order(domain3, uniform3):
    cclass = parity_class(3)
    alg = ExhaustiveCSQ(cclass, 0.1)
    psi = random_real_fn(domain3, make_rng(2, 0, "psi"))
    aset = build_gpsi(alg, psi, uniform3)
    # one member per correlational query, then sign(psi), then the hypothesis
    assert len(aset) == len(cclass) + 2
    assert aset.gamma == alg.tau
    assert aset.provenance == "simulated:exhaustive-csq"
    np.testing.assert_array_equal(aset.matrix[:-2], cclass.matrix)
    np.testing.assert_array_equal(aset.matrix[-2], sign_of(psi).values)


def test_build_gpsi_respects_budget(domain3, uniform3):
    class Chatty(SQAlgorithm):
        name = "chatty"
        tau = 0.1
        epsilon = 0.1

        def reset(self):
            pass

        def next_query(self):
            return correlational(RealFn(domain3, np.zeros(8)), self.tau)

        def receive_answer(self, value):
            pass

        def output(self):  # pragma: no cover - never reached
            return BoolFn(domain3, np.ones(8))

    with pytest.raises(QueryBudgetError):
        build_gpsi(Chatty(), RealFn(domain3, np.zeros(8)), uniform3, budget=10)


def test_build_gpsi_distinguishing_margin(domain3, uniform3):
    # any target far from sign(psi) correlates with some set member by >= tau
    cclass = parity_class(3)
    eps = 0.1
    rng = make_rng(3, 0, "psi")
    for _ in range(10):
        psi = random_real_fn(domain3, rng)
        aset = build_gpsi(ExhaustiveCSQ(cclass, eps), psi, uniform3)
        ball = eps + eps / 2.0
        for f in cclass:
            if disagreement(f, sign_of(psi), uniform3) <= ball:
                continue
            shifted = f.values - psi.values
            margins = np.abs(aset.matrix @ (shifted * uniform3.weights))
            assert margins.max() >= aset.gamma - 1e-12


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


def test_projected_learner_iteration_cap(domain3, uniform3):
    cclass = conjunction_class(3)
    f = cclass[5]
    gen = class_pool_generator(cclass, gamma=0.2)
    orc = SQOracle(f, uniform3)
    hyp, trace = projected_learner(gen, orc, tau=0.05, cap=1)
    assert trace.halt_reason == "iteration-cap"
    assert len(trace.rows) == 1


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
    mat = gen(None).matrix
    assert mat is cclass.matrix  # the pool shares the class's matrix
    for row in trace.rows:
        pot = float(np.dot(dist.weights, (f.values - psi) ** 2))
        assert row.potential == pytest.approx(pot, abs=1e-12)
        if row.chosen is None:
            continue
        # accepted step: margin vs current psi at least 3*tau, sign preserved
        true_gap = inner_product(f, cclass[row.chosen], dist) - float(
            np.dot(dist.weights, psi * mat[row.chosen])
        )
        assert abs(row.gamma) >= 3 * tau
        assert math.copysign(1, row.gamma) == math.copysign(1, true_gap)
        psi = np.clip(psi + row.gamma * mat[row.chosen], -1.0, 1.0)
    np.testing.assert_array_equal(sign_of(project_unit(psi, domain3)).values, hyp.values)



@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 300), hit=st.one_of(st.none(), st.integers(0, 299)),
       seed=st.integers(0, 2**32))
def test_first_hit_matches_a_full_scan(k, hit, seed):
    # quarter-valued rows and vectors: every sum is exact, so the blocked scan
    # must return exactly what one product over the whole matrix gives
    rng = np.random.default_rng(seed)
    mat = rng.integers(-4, 5, (k, 8)) / 4
    v = rng.integers(-4, 5, 8) / 4
    values = mat @ v + rng.integers(-1, 2, k) / 8
    if hit is not None and hit < k:
        values[hit] += 1.0
    diffs = values - mat @ v
    hits = np.flatnonzero(np.abs(diffs) >= 0.5)
    want = (int(hits[0]), float(diffs[hits[0]])) if hits.size else (None, None)
    assert _first_hit(mat, values, v, 0.5) == want

def test_projected_learner_flags_lying_oracle(domain3, uniform3):
    class Liar(SQOracle):
        def correlational_many(self, mat, tau):
            self.query_count += len(mat)
            return np.ones(len(mat))

    cclass = conjunction_class(3)
    gen = class_pool_generator(cclass, gamma=0.2)
    orc = Liar(cclass[0], uniform3, keep_log=False)
    hyp, trace = projected_learner(gen, orc, tau=0.05)
    assert trace.halt_reason == "oracle-violation"
    assert trace.updates == math.ceil(1 / (3 * 0.05**2)) + 1


def test_gpsi_generator_learns_conjunctions(domain3, uniform3):
    cclass = conjunction_class(3)
    eps_alg = 1 / 15
    gen = gpsi_generator(lambda: ExhaustiveCSQ(cclass, eps_alg), uniform3)
    f = cclass[4]
    hyp, trace = projected_learner(gen, SQOracle(f, uniform3), tau=1 / 120)
    assert trace.halt_reason == "converged"
    assert disagreement(hyp, f, uniform3) <= 0.1


def test_weak_agnostic_learner_guarantee(domain3, uniform3):
    parities = parity_class(3)
    pool = ApproxSet(domain3, parities.matrix, gamma=0.05)
    rng = make_rng(7, 0, "agn")
    for _ in range(10):
        phi_a = random_real_fn(domain3, rng)
        a = AgnosticDist(uniform3, phi_a)
        best = max(abs(inner_product(g, phi_a, uniform3)) for g in parities)
        for mode in ("exact", "grid_adversary"):
            h = weak_agnostic_learner(pool, a, tau=0.05, mode=mode)
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
    return AgnosticDist(dist, RealFn(domain, draw(row))), ApproxSet(domain, pool, gamma=0.1)


@settings(max_examples=60, deadline=None)
@given(case=_agnostic_case(), tau=st.floats(0.01, 1.0), seed=st.integers(0, 2**32),
       sample_size=st.integers(1, 50))
def test_weak_agnostic_learner_matches_single_queries(case, tau, seed, sample_size):
    a, pool = case
    for mode in ("exact", "grid_adversary", "noisy", "empirical"):
        got = weak_agnostic_learner(pool, a, tau, mode=mode, rng=make_rng(seed),
                                    sample_size=sample_size)
        rng = make_rng(seed)
        values = [agnostic_stat_query(a, correlational(RealFn(pool.domain, g), tau),
                                      mode=mode, rng=rng, sample_size=sample_size)
                  for g in pool.matrix]
        j = int(np.argmax(np.abs(values)))
        want = pool.matrix[j] if values[j] >= 0 else -pool.matrix[j]
        assert got.values.tobytes() == want.tobytes(), mode


def test_weak_agnostic_learner_orients_by_sign(domain3, uniform3):
    chi = make_parity(domain3, [1, 3])
    pool = ApproxSet(domain3, parity_class(3).matrix, gamma=0.05)
    a = AgnosticDist(uniform3, RealFn(domain3, -0.5 * chi.values))
    h = weak_agnostic_learner(pool, a, tau=0.05)
    np.testing.assert_array_equal(h.values, -chi.values)
    assert inner_product(h, a.phi, uniform3) == pytest.approx(0.5, abs=1e-12)
