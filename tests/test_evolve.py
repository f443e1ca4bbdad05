import math

import numpy as np
import pytest

from sqlab import make_rng
from sqlab.errors import ThetaExceedsEpsError, UsageError
from sqlab.evolve import (
    LINEAR,
    QUADRATIC,
    EvolutionTrace,
    MutationAlgorithm,
    NeighborhoodMutator,
    Representation,
    SelNBParams,
    disjunction_mutator,
    disjunction_neighborhood,
    disjunction_params,
    empirical_lperf,
    evolve_lsq_params,
    evolve_run,
    lperf,
    selnb_step,
    sq_neighborhood,
)
from sqlab.fnspace import (
    BoolFn,
    Domain,
    RealFn,
    conjunction_class,
    make_disjunction,
    norm,
    random_bool_fn,
    random_real_fn,
)
from sqlab.sqcore import ExhaustiveCSQ, build_gpsi


def test_loss_tables_and_spans():
    assert LINEAR.span == 2.0 and QUADRATIC.span == 4.0
    assert LINEAR.eval(1.0, -0.5) == pytest.approx(1.5)
    assert QUADRATIC.eval(1.0, -0.5) == pytest.approx(2.25)
    got = QUADRATIC.table(np.array([1.0, -1.0]), np.array([0.0, -1.0]))
    np.testing.assert_allclose(got, [1.0, 0.0])


def test_lperf_endpoints(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(1, 0, "f"))
    assert lperf(QUADRATIC, f, f, uniform3) == pytest.approx(1.0)
    assert lperf(LINEAR, f, f, uniform3) == pytest.approx(1.0)
    assert lperf(QUADRATIC, f, -f, uniform3) == pytest.approx(-1.0)
    zero = RealFn(domain3, np.zeros(8))
    assert lperf(QUADRATIC, f, zero, uniform3) == pytest.approx(0.5)
    assert lperf(LINEAR, f, zero, uniform3) == pytest.approx(0.0)


def test_lperf_quadratic_distance_identity(domain3, uniform3):
    rng = make_rng(2, 0, "f")
    for _ in range(20):
        f = random_bool_fn(domain3, rng)
        phi = random_real_fn(domain3, rng)
        gap = 2.0 * (1.0 - lperf(QUADRATIC, f, phi, uniform3))
        diff = f.values - phi.values
        assert gap == pytest.approx(float(uniform3.weights @ (diff * diff)), abs=1e-12)


def test_empirical_lperf_exact_on_perfect_fit(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(3, 0, "f"))
    v = empirical_lperf(QUADRATIC, f, f, uniform3, 100, make_rng(0, 0, "s"))
    assert v == pytest.approx(1.0)
    with pytest.raises(UsageError):
        empirical_lperf(QUADRATIC, f, f, uniform3, 0, make_rng(0, 0, "s"))


def test_empirical_lperf_concentrates(domain3, uniform3):
    rng = make_rng(4, 0, "f")
    f = random_bool_fn(domain3, rng)
    phi = random_real_fn(domain3, rng)
    want = lperf(QUADRATIC, f, phi, uniform3)
    vals = [
        empirical_lperf(QUADRATIC, f, phi, uniform3, 10_000, make_rng(s, 0, "e"))
        for s in range(50)
    ]
    assert empirical_lperf(
        QUADRATIC, f, phi, uniform3, 10_000, make_rng(1, 0, "e")
    ) == vals[1]  # seeded draws are reproducible
    assert abs(np.mean(vals) - want) < 0.01
    assert max(abs(v - want) for v in vals) < 0.1


def test_representation_identity_is_table(domain3):
    a = Representation(RealFn(domain3, np.zeros(8)), tag="x")
    b = Representation(RealFn(domain3, np.zeros(8)), tag="y")
    assert a.key == b.key


def test_neighborhood_mutator_support_and_frequencies(domain3):
    base = [RealFn(domain3, np.full(8, v)) for v in (-0.5, 0.0, 0.5)]
    mut = NeighborhoodMutator(lambda r, eps: base)
    r = Representation(RealFn(domain3, np.ones(8)))
    sup = mut.support(r, 0.1)
    assert len(sup) == 4  # the three neighbors plus the incumbent
    draws = mut.sample_many(r, 0.1, make_rng(5, 0, "m"), 30_000)
    keys = [rep.key for rep in draws]
    for fn in base:
        frac = keys.count(fn.values.tobytes()) / len(keys)
        assert abs(frac - 1 / 3) < 0.02
    assert r.key not in keys  # delta_self = 1 never emits the incumbent


def test_neighborhood_mutator_lazy_self(domain3):
    base = [RealFn(domain3, np.zeros(8))]
    mut = NeighborhoodMutator(lambda r, eps: base, delta_self=0.25)
    r = Representation(RealFn(domain3, np.ones(8)))
    draws = mut.sample_many(r, 0.1, make_rng(6, 0, "m"), 40_000)
    self_frac = sum(rep.key == r.key for rep in draws) / len(draws)
    assert abs(self_frac - 0.75) < 0.02
    single = [mut.sample(r, 0.1, make_rng(7, 0, "m")) for _ in range(200)]
    assert any(rep.key == r.key for rep in single)
    with pytest.raises(UsageError):
        NeighborhoodMutator(lambda r, eps: base, delta_self=0.0)


def test_selnb_validation():
    with pytest.raises(UsageError):
        SelNBParams(QUADRATIC, t=0.0, p=10, s=None)
    with pytest.raises(UsageError):
        SelNBParams(QUADRATIC, t=0.1, p=0, s=None)
    with pytest.raises(UsageError):
        SelNBParams(QUADRATIC, t=0.1, p=10, s=0)


def test_selnb_step_picks_beneficial(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(8, 0, "f"))
    better = Representation(f.as_real(), tag="hit")
    worse = Representation(RealFn(domain3, -f.values * 0.5), tag="miss")
    mut = NeighborhoodMutator(lambda r, eps: [better.hypothesis, worse.hypothesis])
    r0 = Representation(RealFn(domain3, np.zeros(8)))
    params = SelNBParams(QUADRATIC, t=0.01, p=40, s=None)
    for seed in range(10):
        nxt, info = selnb_step(params, f, uniform3, mut, r0, 0.1, make_rng(seed, 0, "s"))
        assert info.outcome == "beneficial"
        assert info.bene_count == 1
        assert nxt.key == Representation(better.hypothesis).key


def test_selnb_step_neutral_keeps_incumbent_reachable(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(9, 0, "f"))
    r0 = Representation(RealFn(domain3, np.zeros(8)))
    mut = NeighborhoodMutator(lambda r, eps: [r.hypothesis])  # only itself
    params = SelNBParams(QUADRATIC, t=0.05, p=5, s=None)
    nxt, info = selnb_step(params, f, uniform3, mut, r0, 0.1, make_rng(0, 0, "s"))
    assert info.outcome == "neutral"
    assert nxt.key == r0.key
    assert info.v_incumbent == pytest.approx(0.5)


def test_selnb_step_bottom_returns_none(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(10, 0, "f"))
    r0 = Representation(f.as_real())  # already perfect, fitness 1
    drop = RealFn(domain3, -f.values)  # fitness -1, below any tolerance
    mut = NeighborhoodMutator(lambda r, eps: [drop])
    params = SelNBParams(QUADRATIC, t=0.1, p=8, s=None)
    nxt, info = selnb_step(params, f, uniform3, mut, r0, 0.1, make_rng(0, 0, "s"))
    assert nxt is None
    assert info.outcome == "bottom"
    assert info.distinct == 1


def test_selnb_step_exact_mode_never_drops_beyond_tolerance(domain3, uniform3):
    rng = make_rng(11, 0, "f")
    f = random_bool_fn(domain3, rng)
    neigh = [random_real_fn(domain3, rng) for _ in range(6)]
    mut = NeighborhoodMutator(lambda r, eps: neigh, delta_self=0.5)
    params = SelNBParams(QUADRATIC, t=0.07, p=12, s=None)
    r = Representation(random_real_fn(domain3, rng))
    for seed in range(50):
        nxt, info = selnb_step(params, f, uniform3, mut, r, 0.1, make_rng(seed, 0, "s"))
        if nxt is None:
            continue
        assert lperf(QUADRATIC, f, nxt.hypothesis, uniform3) >= info.v_incumbent - params.t


def test_selnb_step_weights_by_frequency(domain3, uniform3):
    # two equal-fitness beneficial candidates offered 3:1 get picked ~3:1
    f = BoolFn(domain3, np.ones(8))
    va = np.zeros(8)
    va[0] = 0.8
    vb = np.zeros(8)
    vb[1] = 0.8
    a, b = RealFn(domain3, va), RealFn(domain3, vb)
    assert lperf(QUADRATIC, f, a, uniform3) == pytest.approx(
        lperf(QUADRATIC, f, b, uniform3)
    )

    class Skewed(MutationAlgorithm):
        def support(self, r, eps):
            return [Representation(a, tag="a"), Representation(b, tag="b"), r]

        def sample_many(self, r, eps, rng, p):
            return [
                Representation(a if rng.random() < 0.75 else b) for _ in range(p)
            ]

    r0 = Representation(RealFn(domain3, np.zeros(8)))
    # p large enough that both candidates show up in every sample
    params = SelNBParams(QUADRATIC, t=0.05, p=64, s=None)
    picks_a = 0
    trials = 600
    for seed in range(trials):
        nxt, info = selnb_step(
            params, f, uniform3, Skewed(), r0, 0.1, make_rng(seed, 0, "s")
        )
        assert info.outcome == "beneficial" and info.bene_count == 2
        picks_a += nxt.key == Representation(a).key
    assert abs(picks_a / trials - 0.75) < 0.06


def test_evolve_run_reaches_target_with_exact_fitness(domain3, uniform3):
    # the guaranteed per-step gain is a gross worst case; in practice the
    # up-moves pay ~gamma per accepted step, so a few thousand rounds suffice
    n, eps = 3, 0.25
    f = make_disjunction(domain3, [1, 3])
    mut = disjunction_mutator(n, eps)
    gamma, gain = disjunction_params(n, eps)
    params = SelNBParams(QUADRATIC, t=gain / 2.0, p=30, s=None)
    r0 = Representation(RealFn(domain3, np.full(8, -1.0)))
    g = 5000
    trace = evolve_run(mut, params, f, uniform3, eps, g, r0, make_rng(0, 0, "e"))
    assert trace.reached_target
    assert trace.monotone_vs_start
    assert trace.final_perf > 1 - eps
    assert len(trace) <= g


def test_evolve_run_bottom_marks_failure(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(13, 0, "f"))
    r0 = Representation(f.as_real())
    drop = RealFn(domain3, -f.values)
    mut = NeighborhoodMutator(lambda r, eps: [drop])
    params = SelNBParams(QUADRATIC, t=0.05, p=4, s=None)
    trace = evolve_run(mut, params, f, uniform3, 0.1, 5, r0, make_rng(0, 0, "e"))
    assert trace.bottomed
    assert not trace.reached_target
    assert len(trace) == 1
    assert trace.rows[0].outcome == "bottom"
    with pytest.raises(UsageError):
        evolve_run(mut, params, f, uniform3, 0.1, 0, r0, make_rng(0, 0, "e"))


def test_evolution_trace_monotonicity_flags():
    rows = [
        type("R", (), {"true_perf": v, "outcome": "beneficial"})()
        for v in (0.2, 0.4, 0.35)
    ]
    tr = EvolutionTrace(rows, start_perf=0.1, eps=0.5, t=0.06)
    assert tr.monotone_vs_start  # never below the start
    assert tr.monotone_within_slack  # 0.4 -> 0.35 within t
    tr2 = EvolutionTrace(rows, start_perf=0.1, eps=0.5, t=0.01)
    assert not tr2.monotone_within_slack
    tr3 = EvolutionTrace(rows, start_perf=0.39, eps=0.5, t=0.06)
    assert not tr3.monotone_vs_start


def test_disjunction_params_values():
    gamma, gain = disjunction_params(4, 0.2)
    assert gamma == pytest.approx(0.2**1.5 / 21.0, rel=1e-12)
    assert gain == pytest.approx(gamma**4 / 32.0, rel=1e-12)
    assert disjunction_params(1, 1.0)[0] == pytest.approx(1 / 21)
    with pytest.raises(UsageError):
        disjunction_params(0, 0.2)
    with pytest.raises(UsageError):
        disjunction_params(4, 0.0)


def test_disjunction_neighborhood_structure(domain3):
    gamma = 0.5
    phi = RealFn(domain3, np.zeros(8))
    out = disjunction_neighborhood(phi, gamma)
    assert len(out) == 5  # n coordinate moves, phi itself, the down-shift
    for i in (1, 2, 3):
        lifted = out[i - 1].values
        mask = domain3.coordinate(i).astype(bool)
        np.testing.assert_allclose(lifted[mask], 0.5)
        np.testing.assert_allclose(lifted[~mask], 0.0)
    assert out[3] is phi
    np.testing.assert_allclose(out[4].values, -0.5)
    with pytest.raises(UsageError):
        disjunction_neighborhood(phi, 0.0)


def test_disjunction_neighborhood_saturates(domain3):
    top = RealFn(domain3, np.ones(8))
    out = disjunction_neighborhood(top, 0.25)
    for i in range(3):
        np.testing.assert_array_equal(out[i].values, top.values)  # clamped
    np.testing.assert_allclose(out[4].values, 0.75)


def test_disjunction_mutator_binds_gamma_at_construction(domain3):
    mut = disjunction_mutator(3, 0.25)
    gamma, _ = disjunction_params(3, 0.25)
    r = Representation(RealFn(domain3, np.zeros(8)))
    sup = mut.support(r, 0.9)  # per-call eps must not rescale the step
    vals = sorted(float(rep.hypothesis.values.max()) for rep in sup)
    assert vals[-1] == pytest.approx(gamma)
    assert len(sup) == 5
    assert mut.tag == "disjunction-evolver"


def test_sq_neighborhood_size_and_membership(domain3, uniform3):
    cclass = conjunction_class(3)
    psi = random_real_fn(domain3, make_rng(14, 0, "psi"))
    builder = lambda p, acc: build_gpsi(ExhaustiveCSQ(cclass, acc * 2 / 3), p, uniform3)
    out = sq_neighborhood(psi, 0.2, builder, gamma=0.05)
    aset = builder(psi, 0.05)
    assert len(out) == 2 * len(aset) + 1
    np.testing.assert_array_equal(
        out[0].values, np.clip(psi.values + 0.05 * aset.matrix[0], -1, 1)
    )
    np.testing.assert_array_equal(out[-1].values, np.where(psi.values >= 0, 1.0, -1.0))


def test_sq_neighborhood_improvement_property(domain3, uniform3):
    # either sign(psi) is already eps-close, or some candidate cuts the
    # squared distance by gamma^2
    cclass = conjunction_class(3)
    eps = 0.2
    gamma = eps / 12.0
    builder = lambda p, acc: build_gpsi(ExhaustiveCSQ(cclass, acc * 2 / 3), p, uniform3)
    rng = make_rng(15, 0, "psi")
    w = uniform3.weights
    for _ in range(10):
        psi = random_real_fn(domain3, rng)
        out = sq_neighborhood(psi, eps, builder, gamma)
        for f in cclass:
            before = float(np.dot(w, (f.values - psi.values) ** 2))
            after = min(float(np.dot(w, (f.values - c.values) ** 2)) for c in out)
            assert after <= max(eps, before - gamma**2) + 1e-9


def test_evolve_lsq_params_arithmetic():
    params, g, delta = evolve_lsq_params(0.01, 0.1, neigh_size=6)
    assert g == 800
    assert params.t == pytest.approx(0.00375)
    assert delta == pytest.approx(6.25e-5)
    assert params.p == math.ceil(6 * math.log(4 * 800 / 0.1))
    assert params.s == math.ceil(128.0 * 1e4 * math.log(8 * params.p * 800 / 0.1))
    params2, g2, _ = evolve_lsq_params(1.0, 1.0, neigh_size=4)
    assert g2 == 8 and params2.t == pytest.approx(0.375)
    with pytest.raises(ThetaExceedsEpsError):
        evolve_lsq_params(0.2, 0.1, neigh_size=4)
    with pytest.raises(UsageError):
        evolve_lsq_params(0.0, 0.1, neigh_size=4)
