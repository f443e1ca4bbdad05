import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.errors import DomainMismatchError, ThetaExceedsEpsError, UsageError
from sqlab.evolve import (
    BLOCK,
    BLOCK_BYTES,
    MAX_SAMPLE,
    EvolutionTrace,
    NeighborhoodMutator,
    SelNBParams,
    StepMutator,
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


def _generations(blocks):
    """The (counts, fitness count rows, pick) of each generation in
    generation_draws' blocks."""
    for block in blocks:
        yield from zip(*block)


def _draws(mut, params, d, seed):
    """The draws of one generation on the streams of run (seed, 0)."""
    return next(_generations(generation_draws(mut, params, d, 1, evolve_streams(seed, 0))))


def _stepper(params, f, mut):
    """selnb's block runner driven one generation at a time: step(phi, draws)
    gives (the next incumbent or None, the incumbent's fitness estimate,
    outcome, beneficial and neutral candidates, the loss row the runner
    wrote).  The draws carry D, through their count rows."""
    run = selnb(params, f, mut)

    def step(phi, draws):
        counts, fitness, u = draws
        losses = np.full((1, len(phi)), np.nan)
        nxt, columns = run(phi, [counts], fitness[None], [u], losses)
        assert [len(column) for column in columns] == [1] * 4
        return (nxt, *(column[0] for column in columns), losses[0])

    return step


def _table(mut, phi):
    """The mutator's table of phi, in a fresh buffer."""
    out = np.full((mut.k, len(phi)), np.nan)
    mut.table(phi, out)
    return out


def _row_counts(mut, p, d, seed, g):
    """Draws per table row, summed over g generations of p draws each."""
    params = SelNBParams(t=0.1, p=p, s=None)
    return np.sum([c for c, _, _ in _generations(generation_draws(mut, params, d, g,
                                                                  evolve_streams(seed, 0)))],
                  axis=0)


def test_neighborhood_mutator_table_and_frequencies(domain3, uniform3):
    base = np.array([np.full(8, v) for v in (-0.5, 0.0, 0.5)])
    mut = NeighborhoodMutator(lambda phi: base, 4)
    phi = np.ones(8)
    # the three other neighbours, then the incumbent as row 3
    np.testing.assert_array_equal(_table(mut, phi), np.vstack([base, phi]))
    counts = _row_counts(mut, 30, uniform3, 5, 1000)
    assert len(counts) == 4  # the incumbent, row 3, is drawn like the others
    assert counts.sum() == 30_000
    for j in range(4):
        assert abs(counts[j] / 30_000 - 1 / 4) < 0.02


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_neighborhood_mutator_draws_its_appended_incumbent_at_rate_1_over_k(k, domain3,
                                                                              uniform3):
    # every other row is -f, far below the incumbent f: a generation of one
    # draw is neutral when it draws the incumbent and bottoms otherwise
    f = random_bool_fn(domain3, make_rng(16, 0, "f"))
    mut = NeighborhoodMutator(lambda phi: np.tile(-f.values, (k - 1, 1)), k)
    params = SelNBParams(t=0.1, p=1, s=None)
    step = _stepper(params, f, mut)
    g = 8000
    outcomes = [step(f.values, draws)[2] for draws in
                _generations(generation_draws(mut, params, uniform3, g, evolve_streams(17, 0)))]
    assert outcomes.count("neutral") + outcomes.count("bottom") == g
    assert abs(outcomes.count("neutral") / g - 1 / k) < 0.02


def test_neighborhood_mutator_height_is_fixed():
    mut = NeighborhoodMutator(lambda phi: np.zeros((len(phi) // 4, len(phi))), 3)
    assert _table(mut, np.zeros(8)).shape == (3, 8)
    with pytest.raises(UsageError, match="4 rows with phi.*k = 3"):
        _table(mut, np.zeros(12))
    with pytest.raises(UsageError):
        NeighborhoodMutator(lambda phi: np.zeros((0, 8)), 0)
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
    rows = 1 if params.s is None else k
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
    # a random D, so a row of its weights is not one number repeated
    d = dist_random(domain, make_rng(0, 0, "d"))
    blocks = list(generation_draws(mut, params, d, g, streams))
    draws = list(_generations(blocks))
    assert len(draws) == g
    k = n + 2
    for counts, fitness, pick in draws:
        assert len(counts) == k and sum(counts) == params.p and 0 <= pick < 1
        assert fitness.shape == (k, domain.size)
        if s is None:
            assert (fitness == d.weights).all()
        else:
            assert (fitness.sum(axis=1) == s).all()
    if s is None:
        # exact fitness scores on D's weights: a read-only view, one row
        # repeated over the block's generations and table rows
        for _, fitness, _ in blocks:
            assert not fitness.flags.writeable and fitness.strides[:2] == (0, 0)
    block = _block(k, params, d)
    assert block == (256 if n == 3 else 10)
    lengths = [block] * (g // block) + [g % block] * (g % block > 0)
    assert [len(picks) for _, _, picks in blocks] == lengths
    assert logs["mutate"] == [("integers", (b, params.p)) for b in lengths]
    assert logs["pick"] == [("random", b) for b in lengths]
    assert logs["fitness"] == ([] if s is None else
                               [("multinomial", (b, k)) for b in lengths])
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
    assert len(list(_generations(generation_draws(mut, params, d, 70, streams)))) == 70
    assert log == [("integers", (b, params.p)) for b in (32, 32, 6)]
    # a sampled s scores k rows a generation, which bound the block already
    sampled = SelNBParams(t=0.1, p=50, s=1000)
    assert _block_size(mut, sampled, d) == BLOCK_BYTES // (8 * mut.k * domain.size) == 2


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
    mut = NeighborhoodMutator(lambda phi: np.array([better, worse]), 3)
    phi0 = np.zeros(8)
    params = SelNBParams(t=0.01, p=40, s=None)
    for seed in range(10):
        nxt, _, outcome, bene, _, _ = _stepper(params, f, mut)(
            phi0, _draws(mut, params, uniform3, seed))
        assert outcome == "beneficial"
        assert bene == 1
        np.testing.assert_array_equal(nxt, better)


def test_selnb_step_neutral_keeps_incumbent_reachable(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(9, 0, "f"))
    phi0 = np.zeros(8)
    mut = NeighborhoodMutator(lambda phi: phi[None], 2)  # a copy of itself, then itself
    params = SelNBParams(t=0.05, p=5, s=None)
    nxt, v_incumbent, outcome, _, neut, _ = _stepper(params, f, mut)(
        phi0, _draws(mut, params, uniform3, 0))
    assert outcome == "neutral"
    assert neut == 1  # the copy and the incumbent are one candidate
    np.testing.assert_array_equal(nxt, phi0)
    assert v_incumbent == pytest.approx(0.5)


def test_selnb_step_bottom_returns_none(domain3, uniform3):
    f = random_bool_fn(domain3, make_rng(10, 0, "f"))
    phi0 = f.values  # already perfect, fitness 1
    drop = -f.values[None]  # fitness -1, below any tolerance
    mut = NeighborhoodMutator(lambda phi: drop, 2)
    params = SelNBParams(t=0.1, p=1, s=None)
    step = _stepper(params, f, mut)
    # one draw: the incumbent, neutral to itself, or the drop, and then bottom
    outcomes = set()
    for seed in range(20):
        draws = _draws(mut, params, uniform3, seed)
        nxt, _, outcome, _, neut, cost = step(phi0, draws)
        outcomes.add(outcome)
        assert neut == (1 if outcome == "neutral" else 0)  # the incumbent alone, or none
        assert not cost.any()  # the incumbent's loss row: phi0 is f
        if draws[0][-1]:
            assert outcome == "neutral"
            np.testing.assert_array_equal(nxt, phi0)
        else:
            assert nxt is None
            assert outcome == "bottom"
    assert outcomes == {"neutral", "bottom"}


def test_selnb_step_exact_mode_never_drops_beyond_tolerance(domain3, uniform3):
    rng = make_rng(11, 0, "f")
    f = random_bool_fn(domain3, rng)
    neigh = np.array([random_real_fn(domain3, rng).values for _ in range(6)])
    mut = NeighborhoodMutator(lambda phi: neigh, 7)
    params = SelNBParams(t=0.07, p=12, s=None)
    phi = random_real_fn(domain3, rng).values
    step = _stepper(params, f, mut)
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
    skewed = NeighborhoodMutator(lambda phi: np.array([va, va, va, vb]), 5)
    phi0 = np.zeros(8)
    # p large enough that both candidates show up in every sample
    params = SelNBParams(t=0.05, p=64, s=None)
    picks_a = 0
    trials = 600
    step = _stepper(params, f, skewed)
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
                                                                         size=(b, k))
        picks = streams["pick"].random(b)
        for i in range(b):
            counts = [0] * k
            for j in range(p):
                counts[int(idx[i, j])] += 1
            yield counts, None if s is None else fitness[i], float(picks[i])


def _reference_step(params, f, d, table, draws):
    """One generation on the (k, 2^n) table, the incumbent as its last row,
    as a dict keyed by row bytes, each candidate scored on its own: the
    selection rule written out row by row.  Returns (the next table or None,
    (the incumbent's fitness, outcome, beneficial and neutral candidates))."""
    counts, fitness, u = draws
    k = len(table)

    def score(j):
        loss = (table[j] - f.values) ** 2
        if params.s is None:
            return 1.0 - 2.0 * float(np.dot(d.weights, loss)) / 4.0
        w = fitness[j].astype(np.float64)
        return 1.0 - 2.0 * float(np.dot(w, loss)) / (params.s * 4.0)

    v_r = score(k - 1)
    groups = {}  # row bytes -> [row, draws, fitness]
    for j in range(k):
        if counts[j]:
            key = table[j].tobytes()
            if key not in groups:
                groups[key] = [table[j], 0, v_r if key == table[-1].tobytes() else score(j)]
            groups[key][1] += counts[j]
    bene = [grp for grp in groups.values() if grp[2] >= v_r + params.t]
    neut = [grp for grp in groups.values() if abs(grp[2] - v_r) < params.t]
    if not bene and not neut:
        return None, (v_r, "bottom", 0, 0)
    tier, outcome = (bene, "beneficial") if bene else (neut, "neutral")
    weights = np.array([grp[1] for grp in tier])
    pick = np.searchsorted(np.cumsum(weights), u * weights.sum(), side="right")
    info = (v_r, outcome, len(bene), len(neut))
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
    mut = NeighborhoodMutator(lambda phi: np.clip(phi + steps, -1.0, 1.0), len(steps) + 1)
    streams, ref_streams = evolve_streams(seed, 0), evolve_streams(seed, 0)
    draws = _generations(generation_draws(mut, params, d, 3, streams))
    ref_draws = _reference_draws(len(steps) + 1, params, d, 3, ref_streams)
    step = _stepper(params, f, mut)
    for _ in range(3):
        got, *info, cost = step(phi, next(draws))
        table = np.vstack([np.clip(phi + steps, -1.0, 1.0), phi])
        want, want_info = _reference_step(params, f, d, table, next(ref_draws))
        assert tuple(info) == want_info
        assert _stream_states(streams) == _stream_states(ref_streams)
        # the loss row of the next table, or of the incumbent when bottomed
        assert cost.tobytes() == (((phi if want is None else want) - f.values) ** 2).tobytes()
        if want is None:
            assert got is None
            break
        assert got.tobytes() == want.tobytes()
        phi = got


# the 1.0 in the ids is the share of draws that go to a table row: all of them
@pytest.mark.parametrize("s", [pytest.param(s, id=f"1.0-{s}") for s in (None, 400)])
def test_selnb_step_on_a_negative_zero_incumbent_matches_the_reference(s):
    # the incumbent's row, the last, is phi + 0.0, which turns -0.0 into 0.0:
    # the table holds the incumbent once, and not phi's own bytes
    n, eps = 3, 0.25
    domain = Domain(n)
    d = dist_random(domain, make_rng(4, 0, "d"))
    f = make_disjunction(domain, [2])
    gamma, gain = disjunction_params(n, eps)
    mut = disjunction_mutator(n, eps)
    phi = np.array([-0.0, 0.0, -0.0, 0.5, -0.0, -1.0, 1.0, -0.0])
    table = _table(mut, phi)
    assert len(table) == n + 2
    assert table[n + 1].tobytes() == (phi + 0.0).tobytes() != phi.tobytes()
    params = SelNBParams(t=gain, p=12, s=s)
    step = _stepper(params, f, mut)
    for seed in range(20):
        got, *info, _ = step(phi, _draws(mut, params, d, seed))
        want, want_info = _reference_step(
            params, f, d, np.clip(phi + _disjunction_steps(domain, gamma), -1.0, 1.0),
            next(_reference_draws(mut.k, params, d, 1, evolve_streams(seed, 0))))
        assert tuple(info) == want_info
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


def _reference_run(params, f, d, table_of, k, eps, g, phi, streams):
    """evolve_run as a chain of _reference_step generations on the k-row
    tables table_of(phi), each appended to the columns as it is taken.
    Returns the trace and the number of generations whose pick differs in
    bytes from the table's last row."""
    def true_perf(row):
        return 1.0 - 2.0 * float(np.dot(d.weights, (row - f.values) ** 2)) / 4.0

    names = ("true_perf", "empirical_perf", "outcome", "bene_count", "neut_count")
    start, columns = true_perf(phi), {name: [] for name in names}
    moves = 0
    draws = _reference_draws(k, params, d, g, streams)
    for gen in range(1, g + 1):
        table = table_of(phi)
        nxt, (v_r, outcome, bene, neut) = _reference_step(params, f, d, table, next(draws))
        moves += nxt is not None and nxt.tobytes() != table[-1].tobytes()
        phi = phi if nxt is None else nxt
        for name, value in zip(names, (true_perf(phi), v_r, outcome, bene, neut)):
            columns[name].append(value)
        if nxt is None:
            break
    return EvolutionTrace(columns, start, eps, params.t), moves


def _clamped(steps):
    """The table function clamp(phi + steps), one row per step."""
    return lambda phi: np.clip(phi + steps, -1.0, 1.0)


def _assert_same_run(trace, want, streams, ref_streams):
    """The trace equals the reference's, column by column and flag by flag,
    and both left their streams in the same state."""
    assert list(trace.columns) == list(want.columns) == [
        "generation", "true_perf", "empirical_perf", "outcome", "bene_count", "neut_count"]
    for name, column in want.columns.items():
        assert trace.columns[name] == column, name
    for flag in ("start_perf", "final_perf", "bottomed", "reached_target",
                 "monotone_within_slack", "slack_breaches", "monotone_vs_start"):
        assert getattr(trace, flag) == getattr(want, flag), flag
    assert _stream_states(streams) == _stream_states(ref_streams)


@pytest.mark.parametrize("n, eps, g, pool, dist, bottoms", [
    # the 1.0 in the ids is the share of draws that go to a table row: all of them
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
        params, _, _ = disjunction_lsq_params(n, eps)
        assert (params.p, params.s) == (76, 7964684847)
    else:
        params = SelNBParams(t=gain, p=pool[0], s=pool[1])
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    streams, ref_streams = evolve_streams(5, 0), evolve_streams(5, 0)
    trace = evolve_run(disjunction_mutator(n, eps), params, f, d, eps, g, r0, streams)
    want, _ = _reference_run(params, f, d, _clamped(_disjunction_steps(domain, gamma)), n + 2,
                             eps, g, r0.values, ref_streams)
    _assert_same_run(trace, want, streams, ref_streams)
    if bottoms:
        assert want.bottomed and len(trace) < g
    else:
        assert not want.bottomed and len(trace) == g


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("dist", ["uniform", "random"])
def test_the_exact_score_is_the_true_fitness(n, dist):
    """Exact fitness scores a generation's incumbent on D's weights, so its
    estimate is, bit for bit, the start's true fitness at generation 1 and
    the true fitness of the row selected a generation before after that.
    The runner's sums and evolve_run's true perfs are separate vecdots."""
    eps = 0.25
    domain = Domain(n)
    mut = disjunction_mutator(n, eps)
    _, gain = disjunction_params(n, eps)
    params = SelNBParams(t=gain, p=3 * mut.k, s=None)
    generations = 0
    for seed in range(4):
        rng = make_rng(seed, n, "exact-score")
        d = dist_uniform(domain) if dist == "uniform" else dist_random(domain, rng)
        f = make_disjunction(domain, [i for i in range(1, n + 1) if rng.random() < 0.5])
        # a random start, so the scores are not a few lattice values
        r0 = random_real_fn(domain, rng)
        trace = evolve_run(mut, params, f, d, eps, 2000, r0, evolve_streams(seed, n))
        empirical = np.array(trace.columns["empirical_perf"])
        true = np.array(trace.columns["true_perf"])
        assert empirical[0] == trace.start_perf
        assert empirical[1:].tobytes() == true[:-1].tobytes()
        generations += len(trace)
    assert generations > 4 * 1000


@pytest.mark.parametrize("s", [None, 400])
def test_evolve_run_matches_the_reference_one_generation_past_a_block(s):
    n, eps = 3, 0.25
    domain = Domain(n)
    d = dist_random(domain, make_rng(3, 0, "d"))
    f = make_disjunction(domain, [1, 3])
    gamma, gain = disjunction_params(n, eps)
    mut = disjunction_mutator(n, eps)
    params = SelNBParams(t=gain, p=60, s=s)
    g = _block_size(mut, params, d) + 1
    assert g == BLOCK + 1
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    streams, ref_streams = evolve_streams(7, 0), evolve_streams(7, 0)
    trace = evolve_run(mut, params, f, d, eps, g, r0, streams)
    want, _ = _reference_run(params, f, d, _clamped(_disjunction_steps(domain, gamma)), n + 2,
                             eps, g, r0.values, ref_streams)
    _assert_same_run(trace, want, streams, ref_streams)
    assert not want.bottomed and len(trace) == g


@pytest.mark.parametrize("n, s", [(15, None), (13, 1000)])
def test_evolve_run_matches_the_reference_when_a_later_block_bottoms_at_once(n, s):
    # the drop, then two copies of the incumbent: one draw a generation keeps
    # the incumbent, or draws the drop and bottoms.  n is large enough for a
    # block of 4 generations
    domain = Domain(n)
    d, f = dist_uniform(domain), make_disjunction(domain, [1])
    neigh = lambda phi: np.vstack([-f.values, phi, phi])
    mut = NeighborhoodMutator(neigh, 4)
    params = SelNBParams(t=0.05, p=1, s=s)
    block = _block_size(mut, params, d)
    assert block == 4
    g = 5 * block

    def first_drop(seed):
        draws = _generations(generation_draws(mut, params, d, g, evolve_streams(seed, 0)))
        return next((gen for gen, (counts, _, _) in enumerate(draws) if counts[0]), 0)

    # the first seed whose first draw of the drop opens a block after the first
    seed = next(seed for seed in range(200) if first_drop(seed) % block == 0 < first_drop(seed))
    streams, ref_streams = evolve_streams(seed, 0), evolve_streams(seed, 0)
    trace = evolve_run(mut, params, f, d, 0.1, g, f, streams)
    want, _ = _reference_run(params, f, d, lambda phi: np.vstack([neigh(phi), phi]), 4, 0.1,
                             g, f.values, ref_streams)
    _assert_same_run(trace, want, streams, ref_streams)
    assert want.bottomed and len(trace) == first_drop(seed) + 1
    assert (len(trace) - 1) % block == 0
    assert trace.columns["outcome"] == ["neutral"] * (len(trace) - 1) + ["bottom"]


@pytest.mark.parametrize("s", [None, 400])
def test_a_neighbourhood_is_built_once_per_incumbent(s):
    # neigh_fn runs once at the start, then once for each generation whose
    # pick differs in bytes from the incumbent row, across blocks
    n, eps = 3, 0.25
    domain = Domain(n)
    d = dist_random(domain, make_rng(3, 0, "d"))
    f = make_disjunction(domain, [1, 3])
    gamma, _ = disjunction_params(n, eps)
    moves = _disjunction_steps(domain, gamma)[:-1]  # phi's own bytes come last
    calls = []

    def neigh(phi):
        calls.append(phi.tobytes())
        return np.clip(phi + moves, -1.0, 1.0)

    mut = NeighborhoodMutator(neigh, n + 2)
    # a tolerance past most steps' gain: neutral picks keep the incumbent
    params = SelNBParams(t=0.01, p=60, s=s)
    g = 2 * _block_size(mut, params, d) + 50
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    streams, ref_streams = evolve_streams(6, 0), evolve_streams(6, 0)
    trace = evolve_run(mut, params, f, d, eps, g, r0, streams)
    want, changes = _reference_run(params, f, d,
                                   lambda phi: np.vstack([_clamped(moves)(phi), phi]), n + 2,
                                   eps, g, r0.values, ref_streams)
    _assert_same_run(trace, want, streams, ref_streams)
    assert len(trace) == g and 0 < changes < g  # the incumbent both moves and stays
    assert len(calls) == 1 + changes
    assert calls[0] == r0.values.tobytes()
    assert all(a != b for a, b in zip(calls, calls[1:]))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_a_table_is_the_table_of_its_own_last_row(n, data):
    # the rule that lets the runner keep its table when a pick keeps the
    # incumbent, on signed zeros in phi, in the steps and in the zero step
    size = 1 << n
    phi = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
                                      min_size=size, max_size=size)))
    step = st.sampled_from([-3.0, -0.25, -0.0, 0.0, 0.25, 3.0])
    moves = data.draw(st.lists(st.lists(step, min_size=size, max_size=size),
                               min_size=1, max_size=4))
    zero = data.draw(st.lists(st.sampled_from([-0.0, 0.0]), min_size=size, max_size=size))
    steps = np.array(moves + [zero])
    for mut in (StepMutator(steps), NeighborhoodMutator(_clamped(steps[:-1]), len(steps))):
        table = _table(mut, phi)
        assert _table(mut, table[-1]).tobytes() == table.tobytes()
    # a StepMutator reads its steps as values: a -0.0 step is the zero step
    assert _table(StepMutator(steps), phi).tobytes() == \
        np.clip(phi + (steps + 0.0), -1.0, 1.0).tobytes()


def test_the_runner_returns_no_view_of_a_buffer_it_writes_again():
    # three blocks on one runner: what the first call returned, and the loss
    # rows it wrote, stay as they were while the next two rebuild its tables
    n, eps = 3, 0.25
    domain = Domain(n)
    d = dist_uniform(domain)
    f = make_disjunction(domain, [1, 3])
    gamma, gain = disjunction_params(n, eps)
    mut = disjunction_mutator(n, eps)
    params = SelNBParams(t=gain, p=30, s=400)
    run = selnb(params, f, mut)
    phi = np.full(domain.size, -1.0)
    returned = []
    for counts, fitness, picks in generation_draws(mut, params, d, 3 * BLOCK,
                                                   evolve_streams(9, 0)):
        losses = np.empty((len(picks), domain.size))
        phi, columns = run(phi, counts, fitness, picks, losses)
        assert phi is not None and [len(column) for column in columns] == [BLOCK] * 4
        returned.append((phi, losses, columns,
                         (phi.copy(), losses.copy(), [list(c) for c in columns])))
    assert len({phi.tobytes() for phi, *_ in returned}) == 3  # the incumbent moved each time
    for phi, losses, columns, (phi0, losses0, columns0) in returned:
        assert phi.tobytes() == phi0.tobytes()
        assert losses.tobytes() == losses0.tobytes()
        assert list(columns) == columns0
    # the last loss row of a block is its incumbent's
    assert returned[0][1][-1].tobytes() == ((returned[0][0] - f.values) ** 2).tobytes()


def test_evolve_run_on_mismatched_domains_names_both_sizes():
    d3, d4 = Domain(3), Domain(4)
    f, d = make_disjunction(d4, [1]), dist_uniform(d4)
    r0 = RealFn(d4, np.full(16, -1.0))
    params = SelNBParams(t=0.01, p=4, s=None)
    streams = evolve_streams(0, 0)
    # a mutator built for n = 3 used to die on a broadcast of 16 entries into (5, 8)
    with pytest.raises(DomainMismatchError, match=r"rows of 8 points .* n=4 \(16 points\)"):
        evolve_run(disjunction_mutator(3, 0.25), params, f, d, 0.25, 10, r0, streams)
    mut = disjunction_mutator(4, 0.25)
    with pytest.raises(DomainMismatchError, match="over n=3 used with distribution over n=4"):
        evolve_run(mut, params, make_disjunction(d3, [1]), d, 0.25, 10, r0, streams)
    with pytest.raises(DomainMismatchError, match="over n=3 used with distribution over n=4"):
        evolve_run(mut, params, f, d, 0.25, 10, RealFn(d3, np.zeros(8)), streams)
    # lperf names the mismatch too, where numpy would fail a broadcast of 8
    # entries against 16
    for fn, phi in [(make_disjunction(d3, [1]), r0), (f, RealFn(d3, np.zeros(8))),
                    (make_disjunction(d3, [1]), RealFn(d3, np.zeros(8)))]:
        with pytest.raises(DomainMismatchError, match="over n=3 used with distribution over n=4"):
            lperf(fn, phi, d)
    with pytest.raises(DomainMismatchError, match="over n=4 used with distribution over n=3"):
        lperf(f, r0, dist_uniform(d3))
    # a neighbourhood's width shows only in its rows
    narrow = NeighborhoodMutator(lambda phi: np.zeros((1, 8)), 2)
    with pytest.raises(DomainMismatchError, match=r"rows have shape \(8,\), its table's \(16,\)"):
        evolve_run(narrow, params, f, d, 0.25, 10, r0, streams)


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
    mut = NeighborhoodMutator(lambda phi: drop, 2)
    params = SelNBParams(t=0.05, p=1, s=None)
    # the run stays neutral while its one draw is the incumbent and bottoms
    # at the first draw of the drop
    first = 1 + [c[0] for c, _, _ in _generations(generation_draws(
        mut, params, uniform3, 20, evolve_streams(0, 0)))].index(1)
    trace = evolve_run(mut, params, f, uniform3, 0.1, 20, r0, evolve_streams(0, 0))
    assert trace.bottomed
    assert not trace.reached_target
    assert len(trace) == first
    assert trace.columns["outcome"] == ["neutral"] * (first - 1) + ["bottom"]
    with pytest.raises(UsageError):
        evolve_run(mut, params, f, uniform3, 0.1, 0, r0, evolve_streams(0, 0))



def test_evolve_run_keeps_its_loss_row_buffer_within_block_bytes():
    # exact fitness at p=1 draws BLOCK generations per block, but at n=16 one
    # block of selected loss rows would be BLOCK * 512 KiB
    domain = Domain(16)
    d, f = dist_uniform(domain), make_disjunction(domain, [1])
    r0 = RealFn(domain, np.full(domain.size, -1.0))
    mut = NeighborhoodMutator(lambda phi: phi[None], 2)  # a copy of itself: all neutral
    params = SelNBParams(t=0.05, p=1, s=None)
    tracemalloc.start()
    try:
        trace = evolve_run(mut, params, f, d, 0.1, 64, r0, evolve_streams(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 64 and trace.outcomes["neutral"] == 64
    # about 8 MiB: the runner's two tables, its loss rows and row keys, the
    # buffer and a few 2^n vectors; a buffer of all 64 generations would
    # alone take 32 MiB
    assert peak < 16 * BLOCK_BYTES

def test_evolution_trace_monotonicity_flags():
    columns = {"true_perf": [0.2, 0.4, 0.35], "outcome": ["beneficial"] * 3}
    tr = EvolutionTrace(columns, start_perf=0.1, eps=0.5, t=0.06)
    assert tr.monotone_vs_start  # never below the start
    assert tr.monotone_within_slack  # 0.4 -> 0.35 within t
    assert tr.slack_breaches == 0
    tr2 = EvolutionTrace(columns, start_perf=0.1, eps=0.5, t=0.01)
    assert not tr2.monotone_within_slack
    assert tr2.slack_breaches == 1
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
        "slack_breaches": sum(path[i + 1] < path[i] - t - 1e-12 for i in range(len(path) - 1)),
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
    out = _table(disjunction_mutator(3, eps), phi)
    assert out.shape == (5, 8)  # n coordinate moves, the down-shift, phi itself
    for i in (1, 2, 3):
        lifted = out[i - 1]
        mask = domain3.coordinate(i).astype(bool)
        np.testing.assert_allclose(lifted[mask], gamma)
        np.testing.assert_allclose(lifted[~mask], 0.0)
    np.testing.assert_allclose(out[3], -gamma)
    np.testing.assert_array_equal(out[4], phi)
    with pytest.raises(UsageError):
        disjunction_mutator(3, 0.0)


def test_disjunction_neighborhood_saturates(domain3):
    eps = 0.25
    gamma, _ = disjunction_params(3, eps)
    top = np.ones(8)
    out = _table(disjunction_mutator(3, eps), top)
    for i in range(3):
        np.testing.assert_array_equal(out[i], top)  # clamped
    np.testing.assert_allclose(out[3], 1.0 - gamma)
    np.testing.assert_array_equal(out[4], top)


def test_disjunction_mutator_binds_gamma_at_construction(domain3):
    mut = disjunction_mutator(3, 0.25)
    gamma, _ = disjunction_params(3, 0.25)
    phi = np.zeros(8)
    table = _table(mut, phi)
    # the n+2 neighbours, the incumbent last
    np.testing.assert_array_equal(table, np.clip(phi + _disjunction_steps(domain3, gamma),
                                                 -1.0, 1.0))
    np.testing.assert_array_equal(table[4], phi)
    assert table.max() == gamma


@pytest.mark.parametrize("n", [3, 4, 5])
def test_disjunction_table_is_the_neighbourhood_with_the_incumbent_once_and_last(n):
    eps = 0.25
    domain = Domain(n)
    gamma, _ = disjunction_params(n, eps)
    mut = disjunction_mutator(n, eps)
    # an interior phi: no move clamps, so every move changes it
    phi = make_rng(18, n, "phi").uniform(-1.0 + 2 * gamma, 1.0 - 2 * gamma, domain.size)
    table = _table(mut, phi)
    assert mut.k == len(table) == n + 2
    want = [np.clip(phi + gamma * domain.coordinate(i), -1.0, 1.0) for i in range(1, n + 1)]
    want += [np.clip(phi - gamma, -1.0, 1.0), phi]
    assert [row.tobytes() for row in table] == [row.tobytes() for row in want]
    assert all(row.tobytes() != table[-1].tobytes() for row in table[:-1])
    # a generation draws and scores those n+2 rows and no other
    counts, fitness, _ = _draws(mut, SelNBParams(t=0.1, p=10, s=1000), dist_uniform(domain), 0)
    assert len(counts) == n + 2 and fitness.shape == (n + 2, domain.size)


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
    mut = NeighborhoodMutator(lambda phi: -f.values[None], 2)
    params = SelNBParams(t=0.05, p=4, s=None)
    message = f"generation count g must be an integer >= 1, got {bad!r}"
    with pytest.raises(UsageError, match=re.escape(message)):
        evolve_run(mut, params, f, uniform3, 0.1, bad, f, evolve_streams(0, 0))


@pytest.mark.parametrize("n, eps, theta", [(3, 0.5, None), (4, 0.2, None), (5, 0.3, 0.001)])
def test_disjunction_lsq_params_use_the_mutator_height(n, eps, theta):
    gamma, _ = disjunction_params(n, eps)
    k = disjunction_mutator(n, eps).k
    used = gamma / 8.0 if theta is None else theta
    assert disjunction_lsq_params(n, eps, theta) == (*evolve_lsq_params(used, eps, k), used)
