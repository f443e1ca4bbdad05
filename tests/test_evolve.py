import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.errors import ThetaExceedsEpsError, UsageError
from sqlab.evolve import (
    BLOCK,
    BLOCK_BYTES,
    MAX_SAMPLE,
    EvolutionTrace,
    NeighborhoodMutator,
    SelNBParams,
    disjunction_lsq_params,
    disjunction_mutator,
    disjunction_params,
    evolve_lsq_params,
    evolve_run,
    evolve_streams,
    generation_draws,
    lperf,
    selnb,
    sq_neighborhood,
)
from sqlab.evolve import STREAMS, _block_size, _disjunction_steps, _loss
from sqlab.fnspace import (
    BoolFn,
    Dist,
    Domain,
    RealFn,
    dist_random,
    dist_uniform,
    make_disjunction,
    random_real_fn,
)
from sqlab.rng import make_rng
from sqlab.sqcore import ExhaustiveCSQ, build_gpsi

from conftest import dense_class, random_bool_fn


def test_square_loss_table():
    assert _loss(np.array([1.0]), np.array([-0.5])) == pytest.approx(2.25)
    got = _loss(np.array([1.0, -1.0]), np.array([0.0, -1.0]))
    np.testing.assert_allclose(got, [1.0, 0.0])


def test_lperf_endpoints(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(1, 0, "f"))
    assert lperf(f, f, uniform3) == pytest.approx(1.0)
    assert lperf(f, -f, uniform3) == pytest.approx(-1.0)
    zero = RealFn(domain3, np.zeros(8))
    assert lperf(f, zero, uniform3) == pytest.approx(0.5)


def test_lperf_quadratic_distance_identity(domain3, uniform3):
    rng = make_rng(2, 0, "f")
    for _ in range(20):
        f = random_bool_fn(domain3, rng)
        phi = random_real_fn(domain3, rng)
        gap = 2.0 * (1.0 - lperf(f, phi, uniform3))
        diff = f.values - phi.values
        assert gap == pytest.approx(float(uniform3.weights @ (diff * diff)), abs=1e-12)


def _draws(mut, params, d, seed):
    """The draws of one generation on the streams of run (seed, 0)."""
    return next(generation_draws(mut, params, d, 1, evolve_streams(seed, 0)))


def _row_counts(mut, p, d, seed, g):
    """Draws per table row, summed over g generations of p draws each."""
    params = SelNBParams(t=0.1, p=p, s=None)
    return np.sum([c for c, _, _ in generation_draws(mut, params, d, g,
                                                     evolve_streams(seed, 0))], axis=0)


def test_neighborhood_mutator_table_and_frequencies(domain3, uniform3):
    base = np.array([np.full(8, v) for v in (-0.5, 0.0, 0.5)])
    mut = NeighborhoodMutator(lambda phi, eps: base, 3)
    phi = np.ones(8)
    # the three neighbours, then the incumbent as row 3
    np.testing.assert_array_equal(mut.table(phi, 0.1), np.vstack([base, phi]))
    counts = _row_counts(mut, 30, uniform3, 5, 1000)
    assert len(counts) == 3  # the incumbent, row 3, is never drawn
    assert counts.sum() == 30_000
    for j in range(3):
        assert abs(counts[j] / 30_000 - 1 / 3) < 0.02


def test_neighborhood_mutator_height_is_fixed():
    mut = NeighborhoodMutator(lambda phi, eps: np.zeros((len(phi) // 4, 8)), 2)
    assert mut.table(np.zeros(8), 0.1).shape == (3, 8)
    with pytest.raises(UsageError, match="3 rows.*k = 2"):
        mut.table(np.zeros(12), 0.1)
    with pytest.raises(UsageError):
        NeighborhoodMutator(lambda phi, eps: np.zeros((0, 8)), 0)
    assert disjunction_mutator(3, 0.25).k == 5


class _Recording:
    """A Generator stand-in that records the shape of each draw."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.log.append((name, kwargs["size"] if "size" in kwargs else args[0]))
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def _block(k, params, d):
    """The block rule: BLOCK generations, or fewer when the index block, the
    fitness count rows or the selected loss rows would pass BLOCK_BYTES."""
    rows = 1 if params.s is None else k + 1
    return max(1, min(BLOCK, BLOCK_BYTES // (8 * max(params.p, rows * len(d.weights)))))


@pytest.mark.parametrize("n, s", [(3, None), (3, 1000), (10, 1000)])
def test_generation_draws_come_in_blocks_under_a_megabyte(n, s):
    domain = Domain(n)
    mut = disjunction_mutator(n, 0.2)
    params = SelNBParams(t=0.1, p=50, s=s)
    logs = {purpose: [] for purpose in STREAMS}
    streams = {purpose: _Recording(rng, logs[purpose])
               for purpose, rng in evolve_streams(0, 0).items()}
    assert tuple(streams) == STREAMS == ("mutate", "fitness", "pick")
    g = 600
    draws = list(generation_draws(mut, params, dist_uniform(domain), g, streams))
    assert len(draws) == g
    k, rows = n + 2, n + 3
    for counts, fitness, pick in draws:
        assert len(counts) == k and sum(counts) == params.p and 0 <= pick < 1
        assert fitness is None if s is None else \
            fitness.shape == (rows, domain.size) and (fitness.sum(axis=1) == s).all()
    block = _block(k, params, dist_uniform(domain))
    assert block == (256 if n == 3 else 9)
    lengths = [block] * (g // block) + [g % block] * (g % block > 0)
    assert logs["mutate"] == [("integers", (b, params.p)) for b in lengths]
    assert logs["pick"] == [("random", b) for b in lengths]
    assert logs["fitness"] == ([] if s is None else
                               [("multinomial", (b, rows)) for b in lengths])
    for name, size in sum(logs.values(), []):
        assert 8 * np.prod(size) * (domain.size if name == "multinomial" else 1) < 1 << 20


def test_block_size_bounds_the_selected_loss_rows_at_exact_fitness():
    # at n = 12 one selected loss row is 32 KiB, past p = 50 draws of 8 bytes:
    # the rows of one block, not its index block, set its size
    domain = Domain(12)
    d = dist_uniform(domain)
    mut = disjunction_mutator(12, 0.2)
    params = SelNBParams(t=0.1, p=50, s=None)
    assert _block_size(mut, params, d) == _block(mut.k, params, d) == \
        BLOCK_BYTES // (8 * domain.size) == 32
    log = []
    streams = evolve_streams(0, 0)
    streams["mutate"] = _Recording(streams["mutate"], log)
    assert len(list(generation_draws(mut, params, d, 70, streams))) == 70
    assert log == [("integers", (b, params.p)) for b in (32, 32, 6)]
    # a sampled s scores k + 1 rows a generation, which bound the block already
    sampled = SelNBParams(t=0.1, p=50, s=1000)
    assert _block_size(mut, sampled, d) == BLOCK_BYTES // (8 * (mut.k + 1) * domain.size) == 2


def test_selnb_validation():
    with pytest.raises(UsageError):
        SelNBParams(t=0.0, p=10, s=None)
    with pytest.raises(UsageError):
        SelNBParams(t=0.1, p=0, s=None)
    with pytest.raises(UsageError):
        SelNBParams(t=0.1, p=10, s=0)
    # a float p or s would divide the integer draw counts, a bool would pass as 1 or 0
    for p, s in [(2.5, None), (2.0, None), (True, None), ("3", None),
                 (10, 2.5), (10, 7.0), (10, True), (10, False)]:
        with pytest.raises(UsageError, match="must be an integer >= 1"):
            SelNBParams(t=0.1, p=p, s=s)
    assert SelNBParams(t=0.1, p=np.int64(10), s=np.int64(7)).s == 7


def test_selnb_step_picks_beneficial(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(8, 0, "f"))
    better, worse = f.values, -f.values * 0.5
    mut = NeighborhoodMutator(lambda phi, eps: np.array([better, worse]), 2)
    phi0 = np.zeros(8)
    params = SelNBParams(t=0.01, p=40, s=None)
    for seed in range(10):
        nxt, _, outcome, bene, _, _, _ = selnb(params, f, uniform3, mut, 0.1)(
            phi0, _draws(mut, params, uniform3, seed))
        assert outcome == "beneficial"
        assert bene == 1
        np.testing.assert_array_equal(nxt, better)


def test_selnb_step_neutral_keeps_incumbent_reachable(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(9, 0, "f"))
    phi0 = np.zeros(8)
    mut = NeighborhoodMutator(lambda phi, eps: phi[None], 1)  # only itself
    params = SelNBParams(t=0.05, p=5, s=None)
    nxt, v_incumbent, outcome, _, _, distinct, _ = selnb(params, f, uniform3, mut, 0.1)(
        phi0, _draws(mut, params, uniform3, 0))
    assert outcome == "neutral"
    assert distinct == 1  # the neighbour and the incumbent are one candidate
    np.testing.assert_array_equal(nxt, phi0)
    assert v_incumbent == pytest.approx(0.5)


def test_selnb_step_bottom_returns_none(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(10, 0, "f"))
    phi0 = f.values  # already perfect, fitness 1
    drop = -f.values[None]  # fitness -1, below any tolerance
    mut = NeighborhoodMutator(lambda phi, eps: drop, 1)
    params = SelNBParams(t=0.1, p=8, s=None)
    nxt, _, outcome, _, _, distinct, cost = selnb(params, f, uniform3, mut, 0.1)(
        phi0, _draws(mut, params, uniform3, 0))
    assert nxt is None
    assert outcome == "bottom"
    assert distinct == 1
    assert not cost.any()  # the incumbent's loss row: phi0 is f


def test_selnb_step_exact_mode_never_drops_beyond_tolerance(domain3, uniform3):
    rng = make_rng(11, 0, "f")
    f = random_bool_fn(domain3, rng)
    neigh = np.array([random_real_fn(domain3, rng).values for _ in range(6)])
    mut = NeighborhoodMutator(lambda phi, eps: neigh, 6)
    params = SelNBParams(t=0.07, p=12, s=None)
    phi = random_real_fn(domain3, rng).values
    step = selnb(params, f, uniform3, mut, 0.1)
    for seed in range(50):
        nxt, v_incumbent, *_ = step(phi, _draws(mut, params, uniform3, seed))
        if nxt is None:
            continue
        got = lperf(f, RealFn(domain3, nxt), uniform3)
        assert got >= v_incumbent - params.t


def test_selnb_step_weights_by_frequency(domain3, uniform3):
    # two equal-fitness beneficial candidates offered 3:1 get picked ~3:1
    f = BoolFn(domain3, np.ones(8))
    va = np.zeros(8)
    va[0] = 0.8
    vb = np.zeros(8)
    vb[1] = 0.8
    assert lperf(f, RealFn(domain3, va), uniform3) == pytest.approx(
        lperf(f, RealFn(domain3, vb), uniform3)
    )
    skewed = NeighborhoodMutator(lambda phi, eps: np.array([va, va, va, vb]), 4)
    phi0 = np.zeros(8)
    # p large enough that both candidates show up in every sample
    params = SelNBParams(t=0.05, p=64, s=None)
    picks_a = 0
    trials = 600
    step = selnb(params, f, uniform3, skewed, 0.1)
    for seed in range(trials):
        nxt, _, outcome, bene, *_ = step(phi0, _draws(skewed, params, uniform3, seed))
        assert outcome == "beneficial" and bene == 2
        picks_a += np.array_equal(nxt, va)
    assert abs(picks_a / trials - 0.75) < 0.06


def _reference_draws(k, params, d, g, streams):
    """Each generation's (neighbour counts, fitness count rows, pick): every
    purpose block drawn with generation_draws' numpy call, then the draws
    tallied one by one.  A generator like generation_draws, so a run that
    stops early leaves the streams where generation_draws leaves them."""
    p, s = params.p, params.s
    block = _block(k, params, d)
    for start in range(0, g, block):
        b = min(block, g - start)
        idx = streams["mutate"].integers(0, k, size=(b, p))
        fitness = None if s is None else streams["fitness"].multinomial(s, d.weights,
                                                                         size=(b, k + 1))
        picks = streams["pick"].random(b)
        for i in range(b):
            counts = [0] * k
            for j in range(p):
                counts[int(idx[i, j])] += 1
            yield counts, None if s is None else fitness[i], float(picks[i])


def _reference_step(params, f, d, steps, phi, draws):
    """One generation as a dict keyed by row bytes, each candidate scored on
    its own: the selection rule written out row by row.  Returns (the next
    table or None, (the incumbent's fitness, outcome, beneficial, neutral and
    distinct candidates))."""
    counts, fitness, u = draws
    k = len(steps)
    table = list(np.clip(phi + steps, -1.0, 1.0)) + [phi]

    def score(j):
        loss = (table[j] - f.values) ** 2
        if params.s is None:
            return 1.0 - 2.0 * float(np.dot(d.weights, loss)) / 4.0
        w = fitness[j].astype(np.float64)
        return 1.0 - 2.0 * float(np.dot(w, loss)) / (params.s * 4.0)

    v_r = score(k)
    groups = {}  # row bytes -> [row, draws, fitness]
    for j in range(k):
        if counts[j]:
            key = table[j].tobytes()
            if key not in groups:
                groups[key] = [table[j], 0, v_r if key == phi.tobytes() else score(j)]
            groups[key][1] += counts[j]
    bene = [grp for grp in groups.values() if grp[2] >= v_r + params.t]
    neut = [grp for grp in groups.values() if abs(grp[2] - v_r) < params.t]
    if not bene and not neut:
        return None, (v_r, "bottom", 0, 0, len(groups))
    tier, outcome = (bene, "beneficial") if bene else (neut, "neutral")
    weights = np.array([grp[1] for grp in tier])
    pick = np.searchsorted(np.cumsum(weights), u * weights.sum(), side="right")
    info = (v_r, outcome, len(bene), len(neut), len(groups))
    return tier[min(int(pick), len(tier) - 1)][0], info


def _stream_states(streams):
    # the Philox state holds small arrays, printed in full
    return {purpose: str(rng.bit_generator.state) for purpose, rng in streams.items()}


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
@given(case=_selection_case(), s=st.one_of(st.none(), st.integers(1, 10 ** 6)),
       t=st.floats(1e-3, 1.0), p=st.integers(1, 40), seed=st.integers(0, 2 ** 32))
def test_selnb_step_matches_a_row_by_row_reference(case, s, t, p, seed):
    f, d, phi, steps = case
    params = SelNBParams(t=t, p=p, s=s)
    mut = NeighborhoodMutator(lambda phi, eps: np.clip(phi + steps, -1.0, 1.0), len(steps))
    streams, ref_streams = evolve_streams(seed, 0), evolve_streams(seed, 0)
    draws = generation_draws(mut, params, d, 3, streams)
    ref_draws = _reference_draws(len(steps), params, d, 3, ref_streams)
    step = selnb(params, f, d, mut, 0.1)
    for _ in range(3):
        got, *info, cost = step(phi, next(draws))
        want, want_info = _reference_step(params, f, d, steps, phi, next(ref_draws))
        assert tuple(info) == want_info
        assert _stream_states(streams) == _stream_states(ref_streams)
        # the loss row of the next table, or of the incumbent when bottomed
        assert cost.tobytes() == (((phi if want is None else want) - f.values) ** 2).tobytes()
        if want is None:
            assert got is None
            break
        assert got.tobytes() == want.tobytes()
        phi = got


# the 1.0 in the ids is the share of draws that go to a neighbour: all of them
@pytest.mark.parametrize("s", [pytest.param(s, id=f"1.0-{s}") for s in (None, 400)])
def test_selnb_step_on_a_negative_zero_incumbent_matches_the_reference(s):
    # the zero step row is phi + 0.0, which turns -0.0 into 0.0; the incumbent
    # row keeps phi's bytes, so the two are separate candidates
    n, eps = 3, 0.25
    domain = Domain(n)
    d = dist_random(domain, make_rng(4, 0, "d"))
    f = make_disjunction(domain, [2])
    gamma, gain = disjunction_params(n, eps)
    mut = disjunction_mutator(n, eps)
    phi = np.array([-0.0, 0.0, -0.0, 0.5, -0.0, -1.0, 1.0, -0.0])
    table = mut.table(phi, eps)
    assert table[n + 2].tobytes() == phi.tobytes()
    assert table[n].tobytes() == (phi + 0.0).tobytes() != phi.tobytes()
    params = SelNBParams(t=gain, p=12, s=s)
    step = selnb(params, f, d, mut, eps)
    for seed in range(20):
        got, *info, _ = step(phi, _draws(mut, params, d, seed))
        want, want_info = _reference_step(
            params, f, d, _disjunction_steps(domain, gamma), phi,
            next(_reference_draws(mut.k, params, d, 1, evolve_streams(seed, 0))))
        assert tuple(info) == want_info
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


def _reference_run(params, f, d, steps, eps, g, phi, streams):
    """evolve_run as a chain of _reference_step generations, each appended
    to the columns as it is taken."""
    def true_perf(row):
        return 1.0 - 2.0 * float(np.dot(d.weights, (row - f.values) ** 2)) / 4.0

    names = ("true_perf", "empirical_perf", "outcome", "bene_count", "neut_count")
    start, columns = true_perf(phi), {name: [] for name in names}
    draws = _reference_draws(len(steps), params, d, g, streams)
    for gen in range(1, g + 1):
        nxt, (v_r, outcome, bene, neut, _) = _reference_step(params, f, d, steps, phi,
                                                              next(draws))
        phi = phi if nxt is None else nxt
        for name, value in zip(names, (true_perf(phi), v_r, outcome, bene, neut)):
            columns[name].append(value)
        if nxt is None:
            break
    return EvolutionTrace(columns, start, eps, params.t)


@pytest.mark.parametrize("n, eps, g, pool, dist, bottoms", [
    # the 1.0 in the ids is the share of draws that go to a neighbour: all of them
    *[pytest.param(3, 0.25, 2000, (60, s), dist, False, id=f"{dist}-1.0-{s}")
      for s in (None, 400) for dist in ("uniform", "random")],
    # two draws of five rows often miss the incumbent's: the run bottoms early
    pytest.param(3, 0.25, 2000, (2, 400), "uniform", True, id="bottoms-early"),
    # the benchmark's shape: the harness's parameters, theta = gamma/8
    pytest.param(4, 0.2, 300, "lsq", "uniform", False, id="benchmark-shape"),
])
def test_evolve_run_matches_the_chained_reference_steps(n, eps, g, pool, dist, bottoms):
    domain = Domain(n)
    d = dist_uniform(domain) if dist == "uniform" else dist_random(domain, make_rng(3, 0, "d"))
    f = make_disjunction(domain, [1, 3])
    gamma, gain = disjunction_params(n, eps)
    if pool == "lsq":
        params, _ = disjunction_lsq_params(n, eps)
        assert (params.p, params.s) == (76, 7964684847)
    else:
        params = SelNBParams(t=gain, p=pool[0], s=pool[1])
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    streams, ref_streams = evolve_streams(5, 0), evolve_streams(5, 0)
    trace = evolve_run(disjunction_mutator(n, eps), params, f, d, eps, g, r0, streams)
    want = _reference_run(params, f, d, _disjunction_steps(domain, gamma), eps, g,
                          r0.values + 0.0, ref_streams)
    assert list(trace.columns) == list(want.columns) == [
        "generation", "true_perf", "empirical_perf", "outcome", "bene_count", "neut_count"]
    for name, column in want.columns.items():
        assert trace.columns[name] == column, name
    if bottoms:
        assert want.bottomed and len(trace) < g
    else:
        assert not want.bottomed and len(trace) == g
    for flag in ("start_perf", "final_perf", "bottomed", "reached_target",
                 "monotone_within_slack", "monotone_vs_start"):
        assert getattr(trace, flag) == getattr(want, flag), flag
    assert _stream_states(streams) == _stream_states(ref_streams)


def test_evolve_run_reaches_target_with_exact_fitness(domain3, uniform3):
    # the guaranteed per-step gain is a gross worst case; in practice the
    # up-moves pay ~gamma per accepted step, so a few thousand rounds suffice
    n, eps = 3, 0.25
    f = make_disjunction(domain3, [1, 3])
    mut = disjunction_mutator(n, eps)
    gamma, gain = disjunction_params(n, eps)
    params = SelNBParams(t=gain / 2.0, p=30, s=None)
    r0 = RealFn(domain3, np.full(8, -1.0))
    g = 5000
    trace = evolve_run(mut, params, f, uniform3, eps, g, r0, evolve_streams(0, 0))
    assert trace.reached_target
    assert trace.monotone_vs_start
    assert trace.final_perf > 1 - eps
    assert len(trace) <= g


def test_evolve_run_bottom_marks_failure(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(13, 0, "f"))
    r0 = f
    drop = -f.values[None]
    mut = NeighborhoodMutator(lambda phi, eps: drop, 1)
    params = SelNBParams(t=0.05, p=4, s=None)
    trace = evolve_run(mut, params, f, uniform3, 0.1, 5, r0, evolve_streams(0, 0))
    assert trace.bottomed
    assert not trace.reached_target
    assert len(trace) == 1
    assert trace.columns["outcome"] == ["bottom"]
    with pytest.raises(UsageError):
        evolve_run(mut, params, f, uniform3, 0.1, 0, r0, evolve_streams(0, 0))



def test_evolve_run_keeps_its_loss_row_buffer_within_block_bytes():
    # exact fitness at p=1 draws BLOCK generations per block, but at n=16 one
    # block of selected loss rows would be BLOCK * 512 KiB
    domain = Domain(16)
    d, f = dist_uniform(domain), make_disjunction(domain, [1])
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    mut = NeighborhoodMutator(lambda phi, eps: phi[None], 1)  # only itself: all neutral
    params = SelNBParams(t=0.05, p=1, s=None)
    tracemalloc.start()
    try:
        trace = evolve_run(mut, params, f, d, 0.1, 64, r0, evolve_streams(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 64 and trace.outcomes["neutral"] == 64
    # about 8 MiB: the step's table, its bytes and loss rows, the buffer and a
    # few 2^n vectors; a buffer of all 64 generations would alone take 32 MiB
    assert peak < 16 * BLOCK_BYTES

def test_evolution_trace_monotonicity_flags():
    columns = {"true_perf": [0.2, 0.4, 0.35], "outcome": ["beneficial"] * 3}
    tr = EvolutionTrace(columns, start_perf=0.1, eps=0.5, t=0.06)
    assert tr.monotone_vs_start  # never below the start
    assert tr.monotone_within_slack  # 0.4 -> 0.35 within t
    tr2 = EvolutionTrace(columns, start_perf=0.1, eps=0.5, t=0.01)
    assert not tr2.monotone_within_slack
    tr3 = EvolutionTrace(columns, start_perf=0.39, eps=0.5, t=0.06)
    assert not tr3.monotone_vs_start


def _reference_flags(trail, outcome, start_perf, eps, t):
    """EvolutionTrace's flags and tallies from plain Python lists, one
    generation at a time."""
    bottomed = bool(outcome) and outcome[-1] == "bottom"
    final = trail[-1] if trail else start_perf
    path = [start_perf] + trail
    return {
        "bottomed": bottomed,
        "final_perf": final,
        "reached_target": (not bottomed) and final > 1 - eps,
        "monotone_within_slack": all(path[i + 1] >= path[i] - t - 1e-12
                                     for i in range(len(path) - 1)),
        "monotone_vs_start": all(v >= start_perf - 1e-12 for v in trail),
        "outcomes": {o: outcome.count(o) for o in ("beneficial", "neutral", "bottom")},
    }


def _flag_cases():
    """(true_perf, outcome, start_perf, t) at the edges of every flag: a drop
    of exactly t + 1e-12 below the previous perf and one float more, a perf of
    exactly start - 1e-12 and one float less, and runs that bottom at
    generation 1 or end on a perf at 1 - eps."""
    start, t, eps = 0.3, 0.0625, 0.25
    edge = 0.55 - t - 1e-12  # the float the slack test computes from 0.55
    below = math.nextafter(edge, -1.0)
    floor = start - 1e-12
    return [
        ([0.55, edge, 0.8], ["beneficial", "neutral", "beneficial"], start, t),
        ([0.55, below, 0.8], ["beneficial", "neutral", "beneficial"], start, t),
        ([floor, 0.8], ["neutral", "beneficial"], start, t),
        ([math.nextafter(floor, -1.0), 0.8], ["neutral", "beneficial"], start, t),
        ([start], ["bottom"], start, t),
        ([start - 0.5], ["bottom"], start, t),
        ([0.5, 1 - eps], ["beneficial", "neutral"], start, t),
        ([0.5, math.nextafter(1 - eps, 2.0)], ["beneficial", "neutral"], start, t),
        ([], [], start, t),
    ]


@pytest.mark.parametrize("trail, outcome, start_perf, t", _flag_cases())
def test_evolution_trace_flags_match_a_python_reference_at_their_edges(
        trail, outcome, start_perf, t):
    eps = 0.25
    trace = EvolutionTrace({"true_perf": trail, "outcome": outcome}, start_perf, eps, t)
    want = _reference_flags(trail, outcome, start_perf, eps, t)
    for flag, value in want.items():
        got = getattr(trace, flag)
        assert got == value and type(got) is type(value), flag
    assert len(trace) == len(trail) and trace.columns["generation"] == range(1, len(trail) + 1)


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
    eps = 0.25
    gamma, _ = disjunction_params(3, eps)
    phi = np.zeros(8)
    out = disjunction_mutator(3, eps).table(phi, eps)[:-1]  # the last row is phi again
    assert out.shape == (5, 8)  # n coordinate moves, phi itself, the down-shift
    for i in (1, 2, 3):
        lifted = out[i - 1]
        mask = domain3.coordinate(i).astype(bool)
        np.testing.assert_allclose(lifted[mask], gamma)
        np.testing.assert_allclose(lifted[~mask], 0.0)
    np.testing.assert_array_equal(out[3], phi)
    np.testing.assert_allclose(out[4], -gamma)
    with pytest.raises(UsageError):
        disjunction_mutator(3, 0.0)


def test_disjunction_neighborhood_saturates(domain3):
    eps = 0.25
    gamma, _ = disjunction_params(3, eps)
    top = np.ones(8)
    out = disjunction_mutator(3, eps).table(top, eps)[:-1]
    for i in range(3):
        np.testing.assert_array_equal(out[i], top)  # clamped
    np.testing.assert_allclose(out[4], 1.0 - gamma)


def test_disjunction_mutator_binds_gamma_at_construction(domain3):
    mut = disjunction_mutator(3, 0.25)
    gamma, _ = disjunction_params(3, 0.25)
    phi = np.zeros(8)
    table = mut.table(phi, 0.9)  # eps must not rescale
    # the n+2 neighbours, then the incumbent
    np.testing.assert_array_equal(table[:5], mut.table(phi, 0.25)[:-1])
    np.testing.assert_array_equal(table[:5], np.clip(phi + _disjunction_steps(domain3, gamma),
                                                     -1.0, 1.0))
    np.testing.assert_array_equal(table[5], phi)
    assert table.max() == gamma


def test_sq_neighborhood_size_and_membership(domain3, uniform3):
    cclass = dense_class("conjunctions", 3)
    psi = random_real_fn(domain3, make_rng(14, 0, "psi"))
    builder = lambda p, acc: build_gpsi(ExhaustiveCSQ(cclass, acc * 2 / 3), p, uniform3)
    out = sq_neighborhood(psi, 0.2, builder, gamma=0.05)
    aset = builder(psi, 0.05)
    assert out.shape == (2 * len(aset) + 1, 8)
    np.testing.assert_array_equal(
        out[0], np.clip(psi.values + 0.05 * aset.row(0), -1, 1)
    )
    np.testing.assert_array_equal(
        out[len(aset)], np.clip(psi.values - 0.05 * aset.row(0), -1, 1)
    )
    np.testing.assert_array_equal(out[-1], np.where(psi.values >= 0, 1.0, -1.0))


def test_sq_neighborhood_improvement_property(domain3, uniform3):
    # either sign(psi) is already eps-close, or some candidate cuts the
    # squared distance by gamma^2
    cclass = dense_class("conjunctions", 3)
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
    params, g = evolve_lsq_params(0.01, 0.1, neigh_size=6)
    assert g == 800
    assert params.t == pytest.approx(0.00375)
    assert params.p == math.ceil(6 * math.log(4 * 800 / 0.1))
    assert params.s == math.ceil(128.0 * 1e4 * math.log(8 * params.p * 800 / 0.1))
    params2, g2 = evolve_lsq_params(1.0, 1.0, neigh_size=4)
    assert g2 == 8 and params2.t == pytest.approx(0.375)
    with pytest.raises(ThetaExceedsEpsError):
        evolve_lsq_params(0.2, 0.1, neigh_size=4)
    with pytest.raises(UsageError):
        evolve_lsq_params(0.0, 0.1, neigh_size=4)
    # s past numpy's multinomial (int64), or theta ** -2 past the float range
    assert evolve_lsq_params(1e-7, 0.5, neigh_size=5)[0].s < MAX_SAMPLE
    for theta in (1e-8, 1e-200, 5e-324):
        with pytest.raises(UsageError, match=f"theta={theta} gives a fitness sample size"):
            evolve_lsq_params(theta, 0.5, neigh_size=5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 2.0])
def test_evolve_parameters_reject_non_finite_and_out_of_range_values(bad):
    # 0 < theta <= eps <= 1 and 0 < t < inf: NaN used to reach math.ceil as a
    # bare ValueError, and with t = NaN every step bottomed
    with pytest.raises(UsageError, match="theta must be in"):
        evolve_lsq_params(bad, 0.1, 5)
    with pytest.raises(UsageError, match="eps must be in"):
        evolve_lsq_params(0.01, bad, 5)
    if bad != 2.0:  # a tolerance of 2 is valid
        with pytest.raises(UsageError, match="tolerance t must be positive and finite"):
            SelNBParams(t=bad, p=10, s=None)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True, "3"])
def test_evolve_counts_must_be_integers_at_least_1(bad, domain3, uniform3):
    # a float or a string used to die as a bare TypeError or ValueError (or, at inf,
    # as a sample-size error), and True ran one generation
    message = f"neigh_size must be an integer >= 1, got {bad!r}"
    with pytest.raises(UsageError, match=re.escape(message)):
        evolve_lsq_params(0.01, 0.1, bad)
    f = random_bool_fn(domain3, make_rng(13, 0, "f"))
    mut = NeighborhoodMutator(lambda phi, eps: -f.values[None], 1)
    params = SelNBParams(t=0.05, p=4, s=None)
    message = f"generation count g must be an integer >= 1, got {bad!r}"
    with pytest.raises(UsageError, match=re.escape(message)):
        evolve_run(mut, params, f, uniform3, 0.1, bad, f, evolve_streams(0, 0))


@pytest.mark.parametrize("n, eps, theta", [(3, 0.5, None), (4, 0.2, None), (5, 0.3, 0.001)])
def test_disjunction_lsq_params_use_the_mutator_height(n, eps, theta):
    gamma, _ = disjunction_params(n, eps)
    k = disjunction_mutator(n, eps).k
    assert disjunction_lsq_params(n, eps, theta) == \
        evolve_lsq_params(gamma / 8.0 if theta is None else theta, eps, k)
