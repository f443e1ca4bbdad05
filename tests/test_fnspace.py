import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import fnspace
from sqlab.errors import DomainMismatchError, UsageError
from sqlab.fnspace import (
    BoolFn,
    Dist,
    Domain,
    FnSet,
    RealFn,
    StackSet,
    conjunction_class,
    disagreement,
    disjunction_class,
    dist_from_text,
    dist_random,
    dist_to_text,
    dist_uniform,
    inner_product,
    l1_distance,
    make_conjunction,
    make_disjunction,
    make_parity,
    parity_class,
    project_unit,
    random_real_fn,
    sign_of,
)
from sqlab.oracles import SQOracle
from sqlab.rng import make_rng
from sqlab.sqcore import class_pool_generator, weak_agnostic_learner

from conftest import butterflies_in_place, class_table, random_bool_fn, rows_of


def test_domain_bitstring_roundtrip():
    d = Domain(4)
    assert d.size == 16
    for p in range(d.size):
        bits = d.bitstring(p)
        assert d.point_index(bits) == p
    # coordinate i reads bit i (1-based), as a 0/1 table over all points
    c2 = d.coordinate(2)
    assert c2.shape == (16,)
    for p in range(16):
        assert c2[p] == float(d.bitstring(p)[1])


def test_domain_rejects_bad_n():
    with pytest.raises(UsageError):
        Domain(0)
    with pytest.raises(UsageError):
        Domain(21)
    # int(n) would read 2.7 as 2 and True as 1
    for bad in (2.7, 3.0, True, False, "3", None):
        with pytest.raises(UsageError, match="domain size n must be an integer"):
            Domain(bad)
    assert Domain(np.int64(3)) == Domain(3) and type(Domain(np.int64(3)).n) is int


def test_boolfn_requires_pm1(domain3):
    with pytest.raises(UsageError):
        BoolFn(domain3, np.zeros(8))
    fn = BoolFn(domain3, np.ones(8))
    assert fn.values.dtype == np.float64
    with pytest.raises(ValueError):
        fn.values[0] = -1.0  # tables are frozen


def test_realfn_bounds(domain3):
    RealFn(domain3, np.full(8, 1.0 + 1e-13))  # within tolerance, clamped
    with pytest.raises(UsageError):
        RealFn(domain3, np.full(8, 1.01))
    fn = RealFn(domain3, np.full(8, 1.0 + 1e-13))
    assert fn.values.max() <= 1.0


def test_dist_validation(domain3):
    with pytest.raises(UsageError):
        Dist(domain3, np.full(8, -0.125))
    with pytest.raises(UsageError):
        Dist(domain3, np.zeros(8))
    with pytest.raises(UsageError):
        Dist(domain3, np.full(8, 0.2))  # sums to 1.6
    d = Dist(domain3, np.full(8, 0.125 * (1 + 1e-9)))
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_inner_product_identities(domain3, uniform3):
    rng = make_rng(3, 0, "test")
    f = random_bool_fn(domain3, rng)
    g = random_bool_fn(domain3, rng)
    assert inner_product(f, f, uniform3) == pytest.approx(1.0, abs=1e-12)
    got = inner_product(f, g, uniform3)
    assert got == pytest.approx(1.0 - 2.0 * disagreement(f, g, uniform3), abs=1e-12)
    want = float(np.dot(uniform3.weights, f.values * g.values))
    assert got == pytest.approx(want, abs=1e-12)


def test_norm_and_l1(domain3, uniform3):
    rng = make_rng(4, 0, "test")
    phi = random_real_fn(domain3, rng)
    psi = random_real_fn(domain3, rng)
    # the squared D-norm of phi is <phi, phi>_D
    assert inner_product(phi, phi, uniform3) == pytest.approx(
        np.dot(uniform3.weights, phi.values**2), abs=1e-12
    )
    assert l1_distance(phi, psi, uniform3) == pytest.approx(
        np.dot(uniform3.weights, np.abs(phi.values - psi.values)), abs=1e-12
    )
    assert 0.0 <= l1_distance(phi, psi, uniform3) <= 2.0


def test_domain_mismatch_raises(uniform3):
    f = BoolFn(Domain(2), np.ones(4))
    g = BoolFn(Domain(3), np.ones(8))
    with pytest.raises(DomainMismatchError):
        inner_product(f, g, uniform3)


def test_project_unit_and_sign(domain3):
    raw = np.array([-3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 2.5, 9.0])
    proj = project_unit(raw, domain3)
    np.testing.assert_array_equal(
        proj.values, np.array([-1.0, -1.0, -0.2, 0.0, 0.4, 1.0, 1.0, 1.0])
    )
    again = project_unit(proj.values, domain3)
    np.testing.assert_array_equal(again.values, proj.values)
    s = sign_of(proj)
    np.testing.assert_array_equal(
        s.values, np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    )


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_project_unit_is_idempotent(n, data):
    raw = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1 << n, max_size=1 << n))
    once = project_unit(np.array(raw), Domain(n))
    assert np.all(np.abs(once.values) <= 1.0)
    assert project_unit(once.values, Domain(n)).values.tobytes() == once.values.tobytes()


def test_parity_truth_table():
    d = Domain(2)
    # points ordered by index: bits (x1,x2) = 00, 10, 01, 11
    chi = make_parity(d, [1, 2])
    np.testing.assert_array_equal(chi.values, np.array([1.0, -1.0, -1.0, 1.0]))
    empty = make_parity(d, [])
    np.testing.assert_array_equal(empty.values, np.ones(4))


def test_conjunction_disjunction_truth_tables():
    d = Domain(2)
    both = make_conjunction(d, [1, 2])
    np.testing.assert_array_equal(both.values, np.array([-1.0, -1.0, -1.0, 1.0]))
    either = make_disjunction(d, [1, 2])
    np.testing.assert_array_equal(either.values, np.array([-1.0, 1.0, 1.0, 1.0]))
    # empty index set: conjunction is vacuously true, disjunction vacuously false
    np.testing.assert_array_equal(make_conjunction(d, []).values, np.ones(4))
    np.testing.assert_array_equal(make_disjunction(d, []).values, -np.ones(4))


def test_index_set_validation():
    d = Domain(3)
    with pytest.raises(UsageError):
        make_parity(d, [0])
    with pytest.raises(UsageError):
        make_parity(d, [4])


@pytest.mark.parametrize("bad", [1.7, math.nan, math.inf, "2", True, np.float64(2.0), np.bool_(True)],
                         ids=repr)
@pytest.mark.parametrize("build", [make_parity, make_conjunction, make_disjunction])
def test_index_set_rejects_non_integer_indices(build, bad):
    with pytest.raises(UsageError, match=f"index {re.escape(repr(bad))} is not an integer"):
        build(Domain(3), [1, bad])


def test_index_set_takes_numpy_integers_and_duplicates():
    d = Domain(3)
    want = make_parity(d, [1, 3]).values.tobytes()
    assert make_parity(d, [np.int64(3), np.uint8(1)]).values.tobytes() == want
    assert make_parity(d, (i for i in [3, 1, 3])).values.tobytes() == want


def test_class_constructors_sizes():
    for n in (1, 2, 3):
        assert len(parity_class(n)) == 2**n
        assert len(conjunction_class(n)) == 2**n
        assert len(disjunction_class(n)) == 2**n


@pytest.mark.parametrize("n", range(1, 9))
def test_class_builders_match_their_definitions(n):
    # member t is the index set T = {i : bit i-1 of t is set}; x_i is bit i-1 of p
    d = Domain(n)
    x = [[(p >> (i - 1)) & 1 for i in range(1, n + 1)] for p in range(d.size)]
    builders = (
        (parity_class, make_parity,
         lambda xs, T: math.prod(2 * xs[i - 1] - 1 for i in T)),
        (conjunction_class, make_conjunction,
         lambda xs, T: 1 if all(xs[i - 1] == 1 for i in T) else -1),
        (disjunction_class, make_disjunction,
         lambda xs, T: 1 if any(xs[i - 1] == 1 for i in T) else -1),
    )
    for build_class, build_member, value in builders:
        subsets = [[i for i in range(1, n + 1) if t >> (i - 1) & 1] for t in range(d.size)]
        want = np.array([[value(xs, T) for xs in x] for T in subsets], dtype=np.float64)
        cclass = build_class(n)
        assert cclass.matrix is None and cclass.shape == want.shape
        for i, want_row in enumerate(want):
            got = cclass.row(i)
            assert got.dtype == np.float64 and got.tobytes() == want_row.tobytes()
        for T, row in zip(subsets, want):
            assert build_member(d, T).values.tobytes() == row.tobytes()


# The Kronecker build that the doubling recurrence replaced, frozen here as a
# byte-level reference: entry (T, x) is a product over the variables i of
# block[i in T][x_i], mapped to +-1 by scale * product + shift.
_KRON_BLOCKS = {
    "parities": (((1.0, 1.0), (-1.0, 1.0)), 1.0, 0.0),
    "conjunctions": (((1.0, 1.0), (0.0, 1.0)), 2.0, -1.0),
    "disjunctions": (((1.0, 1.0), (1.0, 0.0)), -2.0, 1.0),
}
_BUILDERS = {
    "parities": (parity_class, make_parity),
    "conjunctions": (conjunction_class, make_conjunction),
    "disjunctions": (disjunction_class, make_disjunction),
}


def _kron_reference(kind, n, T=None):
    block, scale, shift = _KRON_BLOCKS[kind]
    block = np.array(block)
    out = np.ones((1, 1))
    for i in range(1, n + 1):
        out = np.kron(block if T is None else block[[int(i in T)]], out)
    return out * scale + shift


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_class_tables_are_byte_identical_to_the_kronecker_build(kind, n):
    build_class, build_member = _BUILDERS[kind]
    want = _kron_reference(kind, n)
    assert class_table(kind, n).tobytes() == want.tobytes()
    cclass = build_class(n)
    for i, want_row in enumerate(want):
        got = cclass.row(i)
        assert got.flags.c_contiguous and not got.flags.writeable
        assert got.dtype == np.float64 and got.tobytes() == want_row.tobytes()
    if n == 10:
        rng = make_rng(20, 0, "test")
        d = Domain(n)
        for _ in range(8):
            T = [i for i in range(1, n + 1) if rng.random() < 0.5]
            row = build_member(d, T).values
            assert row.tobytes() == _kron_reference(kind, n, T)[0].tobytes()


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_class_build_allocates_little_beyond_its_table(kind):
    # the table itself is 8*4^n bytes; the Kronecker build peaked at 1.27x that
    build_class, _ = _BUILDERS[kind]
    tracemalloc.start()
    try:
        build_class(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * 4 ** 10


def _text(table):
    d = Domain(3)
    return "".join(f"{d.bitstring(p)} {float(v)!r}\n" for p, v in enumerate(table))


def _pm1(t):
    return np.where(t < 0, -1.0, 1.0)


def _weights(t):
    return (np.abs(t) + 1.0) / (np.abs(t) + 1.0).sum()


# name -> (valid table made from a draw in [-1, 1]^8, constructor of that table)
_TABLE_CONSTRUCTORS = {
    "Dist": (_weights, lambda t: Dist(Domain(3), t)),
    "dist_from_text": (_weights, lambda t: dist_from_text(_text(t))),
    "RealFn": (lambda t: t, lambda t: RealFn(Domain(3), t)),
    "BoolFn": (_pm1, lambda t: BoolFn(Domain(3), t)),
    "FnSet": (lambda t: 2 * t, lambda t: FnSet(Domain(3), [t])),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_TABLE_CONSTRUCTORS)),
       draw=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       where=st.integers(0, 7), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_constructors_reject_non_finite_values(name, draw, where, bad):
    valid, construct = _TABLE_CONSTRUCTORS[name]
    table = valid(np.array(draw))
    construct(table)
    table[where] = bad
    with pytest.raises(UsageError):
        construct(table)


def test_parity_multiplication_group(uniform3, domain3):
    # chi_S * chi_T = chi_{S xor T}; distinct parities are orthogonal under uniform
    subsets = [frozenset(s) for r in range(4) for s in itertools.combinations((1, 2, 3), r)]
    for S, T in itertools.combinations(subsets, 2):
        a = make_parity(domain3, S)
        b = make_parity(domain3, T)
        prod = BoolFn(domain3, a.values * b.values)
        assert prod == make_parity(domain3, S ^ T)
        assert inner_product(a, b, uniform3) == pytest.approx(0.0, abs=1e-12)


def test_concept_class_rejects_empty_and_mixed_domains(domain3, uniform3):
    # a class is an FnSet of +-1 rows; the learners take no empty one
    empty = FnSet(domain3, np.empty((0, 8)))
    with pytest.raises(UsageError):
        class_pool_generator(empty, gamma=0.2)
    with pytest.raises(UsageError):
        weak_agnostic_learner(empty, SQOracle(BoolFn(domain3, np.ones(8)), uniform3), 0.05)
    # rows over another domain: a matrix of the wrong width
    with pytest.raises(UsageError):
        FnSet(domain3, np.ones((2, 4)))
    with pytest.raises(UsageError):
        FnSet(domain3, np.full((2, 8), 0.5))[0]  # a member is a BoolFn: not +-1
    cclass = FnSet(domain3, [np.ones(8), -np.ones(8)])
    assert len(cclass) == 2 and not cclass.matrix.flags.writeable
    assert cclass[1] == BoolFn(domain3, -np.ones(8))
    assert [f.values.tolist() for f in cclass] == cclass.matrix.tolist()


@st.composite
def _stack_parts(draw):
    """A list of FnSets over one domain: tables of +-1 or of real entries,
    empty tables and built-in classes, with a vector to correlate."""
    n = draw(st.integers(1, 4))
    domain, size = Domain(n), 1 << n
    parts = []
    for kind in draw(st.lists(st.sampled_from(["signs", "reals", "empty", "class"]),
                              min_size=1, max_size=4)):
        if kind == "class":
            parts.append(_BUILDERS[draw(st.sampled_from(sorted(_BUILDERS)))][0](n))
            continue
        entry = st.sampled_from([-1.0, 1.0]) if kind == "signs" else st.floats(-2.0, 2.0)
        k = 0 if kind == "empty" else draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                             min_size=k, max_size=k))
        parts.append(FnSet(domain, np.array(rows).reshape(k, size)))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    return parts, x


@settings(max_examples=100, deadline=None)
@given(case=_stack_parts())
def test_a_stack_reads_as_the_vstack_of_its_parts(case):
    parts, x = case
    dense = np.vstack([rows_of(p) for p in parts])
    fs = StackSet(parts)
    k = len(dense)
    assert fs.shape == dense.shape and len(fs) == k and fs.matrix is None
    for i in range(-k, k):
        assert fs.row(i).tobytes() == dense[i].tobytes(), i
    for i in (k, -k - 1):
        with pytest.raises(IndexError):
            fs.row(i)
    got = fs.correlate(x)
    assert got.tobytes() == np.concatenate([p.correlate(x) for p in parts]).tobytes()
    assert np.all(np.abs(got - dense @ x) <= 1e-12 * 2 * np.abs(x).sum())
    assert fs.sup == np.abs(dense).max(initial=0.0)
    if np.all(np.abs(dense) == 1.0):
        assert [f.values.tobytes() for f in fs] == [row.tobytes() for row in dense]
    else:
        with pytest.raises(UsageError):
            list(fs)  # a member is a BoolFn: not +-1


def test_dist_random_deterministic(domain3):
    a = dist_random(domain3, make_rng(11, 0, "dist"))
    b = dist_random(domain3, make_rng(11, 0, "dist"))
    c = dist_random(domain3, make_rng(12, 0, "dist"))
    np.testing.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    assert a.weights.min() > 0
    assert dist_uniform(domain3).weights[0] == pytest.approx(0.125)


def test_dist_text_roundtrip_is_within_the_documented_bound():
    domain = Domain(4)
    moved = 0
    for seed in range(200):
        d = dist_random(domain, make_rng(seed, 0, "test"))
        w, back = d.weights, dist_from_text(dist_to_text(d)).weights
        assert np.all(np.abs(back - w) <= 2.0 ** (domain.n + 1) * 2.0 ** -52 * w), seed
        assert np.all(np.abs(back - w) <= 2 * np.spacing(w)), seed
        moved += back.tobytes() != w.tobytes()
    assert 0 < moved < 40  # renormalization moves some weights: not bit-exact


def test_text_lines_split_at_newline_only():
    # a form feed or \x85 inside a comment does not start a line "00 1.0"
    text = "".join(f"{b} 0.25\n" for b in ("00", "10", "01", "11"))
    for sep in ("\x0b", "\x0c", "\x1c", "\x85"):
        d = dist_from_text(text + f"# weights{sep}00 1.0\n")
        np.testing.assert_array_equal(d.weights, np.full(4, 0.25))


def test_text_roundtrips(domain3):
    rng = make_rng(5, 0, "test")
    d = dist_random(domain3, rng)
    got = dist_from_text(dist_to_text(d))
    np.testing.assert_allclose(got.weights, d.weights, atol=1e-12)
    with pytest.raises(UsageError):
        dist_from_text("1 2 3")  # malformed value field
    with pytest.raises(UsageError):
        dist_from_text("00 0.5\n01 0.25\n10 0.25")  # missing a point
    with pytest.raises(UsageError):
        dist_from_text("# nothing\n")


def test_dist_text_rejects_a_repeated_point():
    # the last line would overwrite the first: 00's 0.7 would read as 0.25
    text = "00 0.7\n10 0.25\n01 0.25\n11 0.25\n00 0.25\n"
    with pytest.raises(UsageError, match="^point 00 on line 5 is given already on line 1$"):
        dist_from_text(text)
    # a comment line counts toward the line numbers
    with pytest.raises(UsageError, match="^point 11 on line 5 is given already on line 3$"):
        dist_from_text("# w\n00 0.25\n11 0.25\n10 0.25\n11 0.25\n01 0.25\n")


# the butterfly of each built-in class's transform
_STEPS = {"parities": fnspace._signed_hadamard, "conjunctions": fnspace._superset_sum,
          "disjunctions": fnspace._subset_sum}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 2.0 ** -40, 1e300]),
       zeros=st.floats(0.0, 1.0))
def test_transforms_match_the_in_place_stages_bit_for_bit(seed, scale, zeros):
    # the low stages run on a transposed copy past n = 2 * LOW_STAGES; the
    # pairs and ops are those of the in-place stages, so every bit is too
    rng = np.random.default_rng(seed)
    for n in range(1, 17):
        x = rng.standard_normal(1 << n) * scale
        x[rng.random(1 << n) < zeros] = -0.0
        for kind, step in _STEPS.items():
            want = butterflies_in_place(x, step)
            assert fnspace._butterflies(x, step).tobytes() == want.tobytes(), (kind, n)
