import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import make_rng
from sqlab.errors import ThetaExceedsEpsError, UsageError
from sqlab.evolve import (
    LINEAR,
    QUADRATIC,
    EvolutionTrace,
    NeighborhoodMutator,
    SelNBParams,
    StepInfo,
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
    Dist,
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
    assert LINEAR.table(np.array([1.0]), np.array([-0.5])) == pytest.approx(1.5)
    assert QUADRATIC.table(np.array([1.0]), np.array([-0.5])) == pytest.approx(2.25)
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


def test_neighborhood_mutator_table_and_frequencies(domain3):
    base = np.array([np.full(8, v) for v in (-0.5, 0.0, 0.5)])
    mut = NeighborhoodMutator(lambda phi, eps: base)
    phi = np.ones(8)
    table, rows = mut.sample(phi, 0.1, make_rng(5, 0, "m"), 30_000)
    # the three neighbours, then the incumbent as row 3
    np.testing.assert_array_equal(table, np.vstack([base, phi]))
    for j in range(3):
        assert abs(np.mean(rows == j) - 1 / 3) < 0.02
    assert not np.any(rows == 3)  # delta_self = 1 never emits the incumbent


def test_neighborhood_mutator_lazy_self(domain3):
    base = np.zeros((1, 8))
    mut = NeighborhoodMutator(lambda phi, eps: base, delta_self=0.25)
    table, rows = mut.sample(np.ones(8), 0.1, make_rng(6, 0, "m"), 40_000)
    assert abs(np.mean(rows == 1) - 0.75) < 0.02
    np.testing.assert_array_equal(table[1], np.ones(8))
    with pytest.raises(UsageError):
        NeighborhoodMutator(lambda phi, eps: base, delta_self=0.0)


def test_selnb_validation():
    with pytest.raises(UsageError):
        SelNBParams(QUADRATIC, t=0.0, p=10, s=None)
    with pytest.raises(UsageError):
        SelNBParams(QUADRATIC, t=0.1, p=0, s=None)
    with pytest.raises(UsageError):
        SelNBParams(QUADRATIC, t=0.1, p=10, s=0)


def test_selnb_step_picks_beneficial(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(8, 0, "f"))
    better, worse = f.values, -f.values * 0.5
    mut = NeighborhoodMutator(lambda phi, eps: np.array([better, worse]))
    phi0 = np.zeros(8)
    params = SelNBParams(QUADRATIC, t=0.01, p=40, s=None)
    for seed in range(10):
        nxt, info = selnb_step(params, f, uniform3, mut, phi0, 0.1, make_rng(seed, 0, "s"))
        assert info.outcome == "beneficial"
        assert info.bene_count == 1
        np.testing.assert_array_equal(nxt, better)


def test_selnb_step_neutral_keeps_incumbent_reachable(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(9, 0, "f"))
    phi0 = np.zeros(8)
    mut = NeighborhoodMutator(lambda phi, eps: phi[None])  # only itself
    params = SelNBParams(QUADRATIC, t=0.05, p=5, s=None)
    nxt, info = selnb_step(params, f, uniform3, mut, phi0, 0.1, make_rng(0, 0, "s"))
    assert info.outcome == "neutral"
    assert info.distinct == 1  # the neighbour and the incumbent are one candidate
    np.testing.assert_array_equal(nxt, phi0)
    assert info.v_incumbent == pytest.approx(0.5)


def test_selnb_step_bottom_returns_none(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(10, 0, "f"))
    phi0 = f.values  # already perfect, fitness 1
    drop = -f.values[None]  # fitness -1, below any tolerance
    mut = NeighborhoodMutator(lambda phi, eps: drop)
    params = SelNBParams(QUADRATIC, t=0.1, p=8, s=None)
    nxt, info = selnb_step(params, f, uniform3, mut, phi0, 0.1, make_rng(0, 0, "s"))
    assert nxt is None
    assert info.outcome == "bottom"
    assert info.distinct == 1


def test_selnb_step_exact_mode_never_drops_beyond_tolerance(domain3, uniform3):
    rng = make_rng(11, 0, "f")
    f = random_bool_fn(domain3, rng)
    neigh = np.array([random_real_fn(domain3, rng).values for _ in range(6)])
    mut = NeighborhoodMutator(lambda phi, eps: neigh, delta_self=0.5)
    params = SelNBParams(QUADRATIC, t=0.07, p=12, s=None)
    phi = random_real_fn(domain3, rng).values
    for seed in range(50):
        nxt, info = selnb_step(params, f, uniform3, mut, phi, 0.1, make_rng(seed, 0, "s"))
        if nxt is None:
            continue
        got = lperf(QUADRATIC, f, RealFn(domain3, nxt), uniform3)
        assert got >= info.v_incumbent - params.t


def test_selnb_step_weights_by_frequency(domain3, uniform3):
    # two equal-fitness beneficial candidates offered 3:1 get picked ~3:1
    f = BoolFn(domain3, np.ones(8))
    va = np.zeros(8)
    va[0] = 0.8
    vb = np.zeros(8)
    vb[1] = 0.8
    assert lperf(QUADRATIC, f, RealFn(domain3, va), uniform3) == pytest.approx(
        lperf(QUADRATIC, f, RealFn(domain3, vb), uniform3)
    )
    skewed = NeighborhoodMutator(lambda phi, eps: np.array([va, va, va, vb]))
    phi0 = np.zeros(8)
    # p large enough that both candidates show up in every sample
    params = SelNBParams(QUADRATIC, t=0.05, p=64, s=None)
    picks_a = 0
    trials = 600
    for seed in range(trials):
        nxt, info = selnb_step(
            params, f, uniform3, skewed, phi0, 0.1, make_rng(seed, 0, "s")
        )
        assert info.outcome == "beneficial" and info.bene_count == 2
        picks_a += np.array_equal(nxt, va)
    assert abs(picks_a / trials - 0.75) < 0.06


def _reference_step(params, f, d, steps, delta_self, phi, rng):
    """One generation as a dict keyed by row bytes, with one multinomial call
    per scored candidate: the selection rule written out row by row."""
    neigh = np.clip(phi + steps, -1.0, 1.0)
    idx = rng.integers(0, len(neigh), size=params.p)
    lazy = rng.random(params.p) >= delta_self if delta_self < 1 else np.zeros(params.p, bool)
    groups, order = {}, []
    for row in (phi if lazy[j] else neigh[idx[j]] for j in range(params.p)):
        key = row.tobytes()
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [row, 1]
            order.append(key)

    def fitness(row):
        loss = params.loss.table(f.values, row)
        if params.s is None:
            return 1.0 - 2.0 * float(np.dot(d.weights, loss)) / params.loss.span
        counts = rng.multinomial(params.s, d.weights).astype(np.float64)
        return 1.0 - 2.0 * float(np.dot(counts, loss)) / (params.s * params.loss.span)

    v_r = fitness(phi)
    values = {phi.tobytes(): v_r}
    for key in order:
        if key not in values:
            values[key] = fitness(groups[key][0])
    bene = [k for k in order if values[k] >= v_r + params.t]
    neut = [k for k in order if abs(values[k] - v_r) < params.t]
    if not bene and not neut:
        return None, StepInfo(v_r, "bottom", 0, 0, len(order))
    tier, outcome = (bene, "beneficial") if bene else (neut, "neutral")
    counts = np.array([groups[k][1] for k in tier], dtype=np.float64)
    pick = np.searchsorted(np.cumsum(counts / counts.sum()), rng.random(), side="right")
    info = StepInfo(v_r, outcome, len(bene), len(neut), len(order))
    return groups[tier[min(int(pick), len(tier) - 1)]][0], info


@st.composite
def _selection_case(draw):
    """A target, weights, an incumbent and a step table whose rows repeat,
    vanish (the incumbent itself) or saturate at +-1."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    domain = Domain(n)
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
               .filter(lambda v: sum(v) > 1e-3))
    f = BoolFn(domain, draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size,
                                     max_size=size)))
    phi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    step = st.sampled_from([-3.0, -0.25, 0.0, 0.125, 0.25, 3.0])
    distinct = draw(st.lists(st.lists(step, min_size=size, max_size=size),
                             min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    steps = np.array([distinct[i] for i in picks])
    return f, Dist(domain, np.array(raw) / sum(raw)), phi, steps


@settings(max_examples=80, deadline=None)
@given(case=_selection_case(), delta_self=st.sampled_from([1.0, 0.5]),
       s=st.one_of(st.none(), st.integers(1, 10 ** 6)), t=st.floats(1e-3, 1.0),
       p=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
def test_selnb_step_matches_a_row_by_row_reference(case, delta_self, s, t, p, seed):
    f, d, phi, steps = case
    params = SelNBParams(QUADRATIC, t=t, p=p, s=s)
    mut = NeighborhoodMutator(lambda phi, eps: np.clip(phi + steps, -1.0, 1.0), delta_self)
    rng, ref_rng = make_rng(seed, 0, "sel"), make_rng(seed, 0, "sel")
    for _ in range(3):
        got, info = selnb_step(params, f, d, mut, phi, 0.1, rng)
        want, want_info = _reference_step(params, f, d, steps, delta_self, phi, ref_rng)
        assert info == want_info
        # the Philox state holds small arrays, printed in full
        assert str(rng.bit_generator.state) == str(ref_rng.bit_generator.state)
        if want is None:
            assert got is None
            break
        assert got.tobytes() == want.tobytes()
        phi = got


def test_evolve_run_reaches_target_with_exact_fitness(domain3, uniform3):
    # the guaranteed per-step gain is a gross worst case; in practice the
    # up-moves pay ~gamma per accepted step, so a few thousand rounds suffice
    n, eps = 3, 0.25
    f = make_disjunction(domain3, [1, 3])
    mut = disjunction_mutator(n, eps)
    gamma, gain = disjunction_params(n, eps)
    params = SelNBParams(QUADRATIC, t=gain / 2.0, p=30, s=None)
    r0 = RealFn(domain3, np.full(8, -1.0))
    g = 5000
    trace = evolve_run(mut, params, f, uniform3, eps, g, r0, make_rng(0, 0, "e"))
    assert trace.reached_target
    assert trace.monotone_vs_start
    assert trace.final_perf > 1 - eps
    assert len(trace) <= g


def test_evolve_run_bottom_marks_failure(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(13, 0, "f"))
    r0 = f.as_real()
    drop = -f.values[None]
    mut = NeighborhoodMutator(lambda phi, eps: drop)
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
    assert out.shape == (5, 8)  # n coordinate moves, phi itself, the down-shift
    for i in (1, 2, 3):
        lifted = out[i - 1]
        mask = domain3.coordinate(i).astype(bool)
        np.testing.assert_allclose(lifted[mask], 0.5)
        np.testing.assert_allclose(lifted[~mask], 0.0)
    np.testing.assert_array_equal(out[3], phi.values)
    np.testing.assert_allclose(out[4], -0.5)
    with pytest.raises(UsageError):
        disjunction_neighborhood(phi, 0.0)


def test_disjunction_neighborhood_saturates(domain3):
    top = RealFn(domain3, np.ones(8))
    out = disjunction_neighborhood(top, 0.25)
    for i in range(3):
        np.testing.assert_array_equal(out[i], top.values)  # clamped
    np.testing.assert_allclose(out[4], 0.75)


def test_disjunction_mutator_binds_gamma_at_construction(domain3):
    mut = disjunction_mutator(3, 0.25)
    gamma, _ = disjunction_params(3, 0.25)
    phi = np.zeros(8)
    table, _ = mut.sample(phi, 0.9, make_rng(0, 0, "m"), 1)  # eps must not rescale
    # the n+2 neighbours, then the incumbent
    np.testing.assert_array_equal(
        table[:5], disjunction_neighborhood(RealFn(domain3, phi), gamma))
    np.testing.assert_array_equal(table[5], phi)
    assert table.max() == gamma


def test_sq_neighborhood_size_and_membership(domain3, uniform3):
    cclass = conjunction_class(3)
    psi = random_real_fn(domain3, make_rng(14, 0, "psi"))
    builder = lambda p, acc: build_gpsi(ExhaustiveCSQ(cclass, acc * 2 / 3), p, uniform3)
    out = sq_neighborhood(psi, 0.2, builder, gamma=0.05)
    aset = builder(psi, 0.05)
    assert out.shape == (2 * len(aset) + 1, 8)
    np.testing.assert_array_equal(
        out[0], np.clip(psi.values + 0.05 * aset.matrix[0], -1, 1)
    )
    np.testing.assert_array_equal(
        out[len(aset)], np.clip(psi.values - 0.05 * aset.matrix[0], -1, 1)
    )
    np.testing.assert_array_equal(out[-1], np.where(psi.values >= 0, 1.0, -1.0))


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
            after = min(float(np.dot(w, (f.values - c) ** 2)) for c in out)
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
