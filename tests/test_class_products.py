"""Built-in classes read through their factor tables give the dense table's bits.

The reference is the dense recurrence in conftest.class_table.  Every
comparison is of bytes, not within a tolerance: a summation order that moved
would change a learner's first hit at a 3*tau boundary, and the golden grid's
dyadic configs cannot see it.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.fnspace import (
    Domain,
    FnSet,
    conjunction_class,
    disjunction_class,
    dist_random,
    parity_class,
    random_real_fn,
)
from sqlab.harness import make_config, run_config
from sqlab.oracles import SQOracle
from sqlab.rng import make_rng
from sqlab.sqcore import class_pool_generator, projected_learner, weak_agnostic_learner

from conftest import class_table

BUILDERS = {
    "parities": parity_class,
    "conjunctions": conjunction_class,
    "disjunctions": disjunction_class,
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 11), kind=st.sampled_from(sorted(BUILDERS)),
       seed=st.integers(0, 2**32 - 1))
def test_class_products_equal_the_dense_reference_bit_for_bit(n, kind, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    # mixed signs, magnitudes 16 decades apart and zeros of both signs: a
    # summation order that moved would show in the low bits
    x = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size)
    x[rng.random(size) < 0.2] = 0.0
    x[rng.random(size) < 0.2] *= -1.0
    ref = class_table(kind, n)
    fs = BUILDERS[kind](n)
    assert len(fs) == size and fs.shape == (size, size) and fs.sup == 1.0
    assert _same_bits(fs.correlate(x), ref @ x)
    for lo in range(0, size, 64):
        for hi in (lo + 64, lo + 128, size):
            assert _same_bits(fs.correlate(x, lo, hi), ref[lo:hi] @ x), (lo, hi)
    # any other range holds the same rows, if not every bit of their sums
    lo, hi = sorted(rng.integers(0, size + 1, 2).tolist())
    got = fs.correlate(x, lo, hi)
    assert got.shape == (hi - lo,)
    assert np.all(np.abs(got - ref[lo:hi] @ x) <= 1e-12 * np.abs(x).sum())
    for i in rng.integers(0, size, 8).tolist() + [0, size - 1]:
        row = fs.row(i)
        assert _same_bits(row, ref[i]) and not row.flags.writeable
    assert _same_bits(fs.matrix, ref) and not fs.matrix.flags.writeable


def _learn(fs, target, dist, tau):
    gen = class_pool_generator(fs, gamma=4 * tau)
    oracle = SQOracle(target, dist)
    hyp, trace = projected_learner(gen, oracle, tau, audit_target=target)
    return hyp.values.tobytes(), trace.rows, trace.halt_reason, oracle.query_log


def _agnostic(fs, phi, dist, tau, mode):
    oracle = SQOracle(phi, dist, mode=mode, seed=5)
    hyp = weak_agnostic_learner(fs, oracle, tau)
    return hyp.values.tobytes(), oracle.true_values(fs).tobytes(), oracle.query_log


def test_learners_on_factor_tables_match_the_dense_table_run_for_run():
    # random D makes every weight and correlation a full-precision float; at
    # n=8 the low factor is the whole table, at n=9 and 10 rows go in blocks
    for n in (8, 9, 10):
        domain = Domain(n)
        for kind, build in BUILDERS.items():
            fs, dense = build(n), FnSet.from_signs(domain, class_table(kind, n))
            for seed in range(2):
                dist = dist_random(domain, make_rng(seed, n, "dist"))
                target = dense[int(make_rng(seed, n, "target").integers(len(dense)))]
                got = _learn(fs, target, dist, 0.02)
                assert got == _learn(dense, target, dist, 0.02), (kind, n, seed)
                assert len(got[1]) > 1 and got[2] == "converged"
                phi = random_real_fn(domain, make_rng(seed, n, "phi"))
                for mode in ("exact", "grid_adversary", "noisy"):
                    assert _agnostic(fs, phi, dist, 0.05, mode) == \
                        _agnostic(dense, phi, dist, 0.05, mode), (kind, n, seed, mode)
            if n > 8:  # neither learner built the dense table
                assert fs._matrix is None


def test_learn_and_agnostic_on_builtin_classes_allocate_no_dense_table(tmp_path):
    # the (2^12, 2^12) table alone is 128 MB
    for command in ("learn", "agnostic"):
        for kind in BUILDERS:
            cfg = make_config({"command": command, "n": 12, "class": kind, "dist": "random",
                               "tau": 0.02, "seeds": "3", "out": str(tmp_path)})
            tracemalloc.start()
            try:
                run_config(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, (command, kind, peak)
