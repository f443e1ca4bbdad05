"""Built-in classes read through their transforms agree with the dense table.

The reference is the dense recurrence in conftest.class_table.  A transform
sums in another order than a dense product, so on float vectors the two agree
to rounding, within 1e-12 * sum|x|.  Where both sides are exact they agree
byte for byte: on integer vectors whose every partial sum is an integer
below 2^53, and on unit vectors, whose products are the table's columns.
`row` holds the table's own entries, byte for byte; a class keeps no
`matrix`.  `gram` and the dimension helpers on it agree with the dense Gram
and the helpers on the dense table, and a distinguishing set G(psi) built on
it, its Gram and the learner that it drives, with those built on the dense
table.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import harness
from sqlab.dimensions import (shifted_set, sq_dim, sq_sdim_estimate, sqd_lower_scaling,
                               sqd_upper)
from sqlab.fnspace import (
    ATOL,
    Domain,
    FnSet,
    RealFn,
    conjunction_class,
    disagreement,
    disjunction_class,
    dist_from_text,
    dist_random,
    dist_to_text,
    dist_uniform,
    parity_class,
    random_real_fn,
    sign_of,
)
from sqlab.harness import make_config, run_config
from sqlab.oracles import SQOracle
from sqlab.rng import make_rng
from sqlab.sqcore import (
    ExhaustiveCSQ,
    build_gpsi,
    class_pool_generator,
    gpsi_generator,
    projected_learner,
    weak_agnostic_learner,
)

from conftest import RecordingOracle, class_table, dense_class, rows_of, table_set

BUILDERS = {
    "parities": parity_class,
    "conjunctions": conjunction_class,
    "disjunctions": disjunction_class,
}
TOL = 1e-12


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 11), kind=st.sampled_from(sorted(BUILDERS)),
       seed=st.integers(0, 2**32 - 1))
def test_class_products_equal_the_dense_reference_bit_for_bit(n, kind, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    ref = class_table(kind, n)
    fs = BUILDERS[kind](n)
    assert len(fs) == size and fs.shape == (size, size) and fs.sup == 1.0
    # integers of mixed signs below 2^40: at n <= 11 every partial sum on
    # either side is an integer below 2^51, so both are exact
    x = rng.integers(-2**40 + 1, 2**40, size).astype(np.float64)
    x[rng.random(size) < 0.2] = 0.0
    assert _same_bits(fs.correlate(x), ref @ x)
    for p in rng.integers(0, size, 4).tolist() + [0, size - 1]:
        assert _same_bits(fs.correlate(np.eye(1, size, p)[0]), ref[:, p]), p
    for i in range(size):
        row = fs.row(i)
        assert _same_bits(row, ref[i]) and not row.flags.writeable
    assert fs.matrix is None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), kind=st.sampled_from(sorted(BUILDERS)),
       seed=st.integers(0, 2**32 - 1))
def test_class_products_are_within_1e_12_of_the_dense_reference(n, kind, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    # mixed signs, magnitudes 16 decades apart and zeros of both signs
    x = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size)
    x[rng.random(size) < 0.2] = 0.0
    x[rng.random(size) < 0.2] *= -1.0
    got = BUILDERS[kind](n).correlate(x)
    assert got.shape == (size,) and got.dtype == np.float64
    assert np.all(np.abs(got - class_table(kind, n) @ x) <= TOL * np.abs(x).sum())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), kind=st.sampled_from(sorted(BUILDERS)),
       seed=st.integers(0, 2**32 - 1), sample_size=st.integers(1, 10**6),
       agnostic=st.booleans())
def test_empirical_answers_on_a_class_equal_its_dense_table_bit_for_bit(
        n, kind, seed, sample_size, agnostic, one_by_one):
    # the sample's signed counts are integers, so the class transform and each
    # row's dense dot with the counts sum them exactly, in any order
    domain = Domain(n)
    dist = dist_random(domain, make_rng(seed, n, "dist"))
    phi = random_real_fn(domain, make_rng(seed, n, "phi"))
    target = phi if agnostic else sign_of(phi)
    ref = class_table(kind, n)
    want, _ = one_by_one(target, dist, ref, 0.1, "empirical", seed, sample_size)
    for fs in (BUILDERS[kind](n), FnSet.from_signs(domain, ref)):
        oracle = SQOracle(target, dist, mode="empirical", seed=seed, sample_size=sample_size)
        assert _same_bits(oracle.correlational_many(fs, 0.1), np.array(want)), type(fs)


def _dist(kind, domain, seed):
    """Uniform D, a random D, or a random D through the text of a --dist file:."""
    if kind == "uniform":
        return dist_uniform(domain)
    dist = dist_random(domain, make_rng(seed, domain.n, "dist"))
    return dist if kind == "random" else dist_from_text(dist_to_text(dist))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), kind=st.sampled_from(sorted(BUILDERS)),
       dist=st.sampled_from(["uniform", "random", "file", "signed"]),
       seed=st.integers(0, 2**32 - 1))
def test_class_gram_is_within_1e_12_of_the_dense_gram(n, kind, dist, seed):
    # under uniform D every correlation is a multiple of 2^-n that both sides sum
    # exactly, so |G| agrees byte for byte; "signed" weights sum to no fixed total
    if dist == "signed":
        w = np.random.default_rng(seed).normal(size=1 << n)
    else:
        w = _dist(dist, Domain(n), seed).weights
    ref = class_table(kind, n)
    want = (ref * w) @ ref.T
    got = BUILDERS[kind](n).gram(w)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.all(np.abs(got - want) <= TOL * np.abs(w).sum())
    if dist == "uniform":
        assert _same_bits(np.abs(got), np.abs(want))


def test_sq_dim_on_a_class_equals_sq_dim_on_its_dense_table():
    for n in range(1, 9):
        domain = Domain(n)
        for kind, build in BUILDERS.items():
            dense = dense_class(kind, n)
            for seed in [None] + list(range(10)):
                d = _dist("uniform" if seed is None else "random", domain, seed)
                got, want = sq_dim(build(n), d), sq_dim(dense, d)
                where = (kind, n, seed)
                assert got.as_record() == want.as_record(), where
                absgram = np.abs((dense.matrix * d.weights) @ dense.matrix.T)
                w = got.witness
                assert all(absgram[a, b] <= 1.0 / got.value + ATOL
                           for a in w for b in w if a != b), where


def test_dimension_helpers_on_a_class_or_a_stack_equal_them_on_the_dense_table():
    for n in (3, 4, 5):
        domain = Domain(n)
        for kind, build in BUILDERS.items():
            fs, dense = build(n), table_set(class_table(kind, n))
            for seed in (None, 0, 1):
                d = _dist("uniform" if seed is None else "random", domain, seed)
                where = (kind, n, seed)
                psis = [random_real_fn(domain, make_rng(j, n, "psi")) for j in range(3)]
                # the reports' float params derive from integers and the inputs alone,
                # so they are equal, not only within 1e-12
                for call in (lambda s: sq_dim(s, d), lambda s: sqd_upper(s, d, 0.4, s),
                             lambda s: sqd_lower_scaling(s, d, 0.5, 1.0),
                             lambda s: sq_sdim_estimate(s, d, 0.2, psis)):
                    assert call(fs).as_record() == call(dense).as_record(), where
                for psi in psis:
                    (got, got_kept), (want, want_kept) = (shifted_set(c, psi, d, 0.2)
                                                          for c in (fs, dense))
                    assert got_kept == want_kept and len(got_kept) > 0, where
                    assert _same_bits(got.matrix, want.matrix), where
                gset = build_gpsi(ExhaustiveCSQ(fs, 0.1), psis[0], d)
                rows = rows_of(gset)
                assert sq_dim(gset, d).as_record() == sq_dim(table_set(rows), d).as_record()
                assert np.all(np.abs(gset.gram(d.weights) - (rows * d.weights) @ rows.T) <= TOL)
            # every parity but the constant disagrees with +1 on half the mass
            if kind == "parities":
                empty, kept = shifted_set(fs, RealFn(domain, np.ones(1 << n)), dist_uniform(domain),
                                          0.5)
                assert kept == [] and empty.matrix.shape == (0, 1 << n)


def _learn(fs, target, dist, tau):
    gen = class_pool_generator(fs, gamma=4 * tau)
    oracle = RecordingOracle(target, dist)
    hyp, trace = projected_learner(gen, oracle, tau, audit_target=target)
    return hyp.values.tobytes(), trace, oracle


def _agnostic(fs, phi, dist, tau, mode):
    oracle = RecordingOracle(phi, dist, mode=mode, seed=5)
    hyp = weak_agnostic_learner(fs, oracle, tau)
    return hyp.values.tobytes(), oracle.true_values(fs), oracle


def _close(a, b):
    return a is b is None or abs(a - b) <= TOL


def _same_log(got, want):
    """Whether two RecordingOracles answered alike: the same taus and flag,
    and every answer and truth within TOL."""
    return got.probabilistic == want.probabilistic and len(got.answers) == len(want.answers) \
        and all(g_tau == w_tau and _close(g, w) and _close(g_truth, w_truth)
                for (g_tau, g, g_truth), (w_tau, w, w_truth) in zip(got.answers, want.answers))


def test_learners_on_class_transforms_match_the_dense_table_run_for_run():
    # random D makes every weight and correlation a full-precision float: the
    # steps taken, the halt and the hypothesis match exactly, the values to 1e-12
    for n in (8, 9, 10):
        domain = Domain(n)
        for kind, build in BUILDERS.items():
            fs, dense = build(n), FnSet.from_signs(domain, class_table(kind, n))
            for seed in range(2):
                dist = dist_random(domain, make_rng(seed, n, "dist"))
                target = dense[int(make_rng(seed, n, "target").integers(len(dense)))]
                hyp, trace, oracle = _learn(fs, target, dist, 0.02)
                want_hyp, want, want_oracle = _learn(dense, target, dist, 0.02)
                where = (kind, n, seed)
                assert hyp == want_hyp, where
                assert (trace.halt_reason, trace.updates) == (want.halt_reason, want.updates)
                assert trace.halt_reason == "converged" and len(trace.rows) > 1, where
                assert [(r.iteration, r.chosen, r.queries) for r in trace.rows] == \
                    [(r.iteration, r.chosen, r.queries) for r in want.rows], where
                assert all(_close(r.gamma, w.gamma) and _close(r.potential, w.potential)
                           for r, w in zip(trace.rows, want.rows)), where
                assert _same_log(oracle, want_oracle), where
                phi = random_real_fn(domain, make_rng(seed, n, "phi"))
                for mode in ("exact", "grid_adversary", "noisy"):
                    hyp, truth, oracle = _agnostic(fs, phi, dist, 0.05, mode)
                    want_hyp, want_truth, want_oracle = _agnostic(dense, phi, dist, 0.05, mode)
                    assert hyp == want_hyp, where + (mode,)
                    assert np.all(np.abs(truth - want_truth) <= TOL), where + (mode,)
                    assert _same_log(oracle, want_oracle), where + (mode,)
            assert fs.matrix is None  # the class keeps no dense table


def test_learn_and_agnostic_on_builtin_classes_allocate_no_dense_table(tmp_path, monkeypatch):
    # the (2^14, 2^14) table alone is 2 GiB; what the runs hold grows with 2^n,
    # about 4x per two more variables, under either oracle (an empirical run's
    # log adds one 2^n answer vector a round)
    built, build = [], harness._build_class

    def build_class(cfg, domain):
        built.append(build(cfg, domain))
        return built[-1]

    monkeypatch.setattr(harness, "_build_class", build_class)
    for command in ("learn", "agnostic"):
        for kind in BUILDERS:
            for oracle in ("exact", "empirical:20000"):
                where, peaks = (command, kind, oracle), []
                for n in (14, 16):
                    cfg = make_config({"command": command, "n": n, "class": kind, "dist": "random",
                                       "tau": 0.02, "oracle": oracle, "seeds": "3",
                                       "out": str(tmp_path)})
                    tracemalloc.start()
                    try:
                        run_config(cfg)
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    peaks.append(peak)
                    assert built[-1].matrix is None, where + (n,)
                assert peaks[1] <= 4.5 * peaks[0], where + (peaks,)
                assert peaks[1] < 16 * 2**20, where + (peaks,)


def test_gpsi_on_a_class_equals_gpsi_on_its_dense_table_row_for_row():
    # the simulated answers are sums in another order than the dense table's,
    # yet every case picks the same hypothesis
    for n in range(1, 9):
        domain = Domain(n)
        for kind, build in BUILDERS.items():
            fs, dense = ExhaustiveCSQ(build(n), 0.1), ExhaustiveCSQ(dense_class(kind, n), 0.1)
            for seed in [None, 0, 1, 2]:
                d = _dist("uniform" if seed is None else "random", domain, seed)
                for j in range(5):
                    psi = random_real_fn(domain, make_rng(j, n, "psi"))
                    got, want = build_gpsi(fs, psi, d), build_gpsi(dense, psi, d)
                    assert got.matrix is None and len(got) == (1 << n) + 2
                    assert _same_bits(rows_of(got), rows_of(want)), (kind, n, seed, j)


def test_gpsi_learner_on_a_class_traces_the_dense_run():
    # every round chooses the same row, and every run takes as many rounds;
    # gamma moves by rounding only
    for n in range(1, 7):
        domain = Domain(n)
        for kind, build in BUILDERS.items():
            for seed in (None, 0):
                d = _dist("uniform" if seed is None else "random", domain, seed)
                for t in make_rng(seed or 0, n, "target").integers(1 << n, size=2).tolist():
                    target = build(n)[t]
                    got, want = (projected_learner(gpsi_generator(ExhaustiveCSQ(fs, 1 / 15), d),
                                                   SQOracle(target, d), 1 / 120)[1]
                                 for fs in (build(n), dense_class(kind, n)))
                    where = (kind, n, seed, t)
                    assert got.halt_reason == want.halt_reason == "converged", where
                    assert [(r.chosen, r.queries) for r in got.rows] == \
                        [(r.chosen, r.queries) for r in want.rows], where
                    assert all(r.gamma is w.gamma is None or abs(r.gamma - w.gamma) <= 1e-15
                               for r, w in zip(got.rows, want.rows)), where


def test_gpsi_of_a_class_at_n16_is_a_stack_not_a_table():
    # the dense table alone would be 32 GiB: G(psi) is the class and two rows,
    # and the learner it drives converges, here on x1 x2 x3 in 51 updates
    domain = Domain(16)
    d = dist_random(domain, make_rng(0, 16, "dist"))
    psi = random_real_fn(domain, make_rng(0, 16, "psi"))
    for kind, build in BUILDERS.items():
        alg = ExhaustiveCSQ(build(16), 0.1)
        tracemalloc.start()
        try:
            gset = build_gpsi(alg, psi, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gset) == 2**16 + 2 and gset.matrix is None, kind
        assert peak < 8 * 2**20, (kind, peak)
    cclass = conjunction_class(16)
    target = cclass[0b111]
    gen = gpsi_generator(ExhaustiveCSQ(cclass, 1 / 15), d)
    hyp, trace = projected_learner(gen, SQOracle(target, d), 1 / 120)
    assert trace.halt_reason == "converged" and trace.updates > 10
    assert disagreement(hyp, target, d) <= 0.1
