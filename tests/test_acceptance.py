"""Acceptance suite: eleven end-to-end guarantees, one test (and one printed
PASS/FAIL line) each.  Run with `pytest tests/test_acceptance.py -v -s` to see
the detail lines; the slowest test is the 100-seed evolution sweep (criterion
7, 100 runs on 8 workers: 12-20 s on 2 CPUs)."""

import math

import numpy as np

from sqlab import harness
from sqlab.dimensions import sq_dim
from sqlab.evolve import (
    disjunction_mutator,
    disjunction_params,
    lperf,
)
from sqlab.fnspace import (
    Domain,
    FnSet,
    RealFn,
    conjunction_class,
    disagreement,
    dist_random,
    dist_uniform,
    make_conjunction,
    make_disjunction,
    make_parity,
    parity_class,
    random_real_fn,
    sign_of,
)
from sqlab.oracles import SQOracle
from sqlab.rng import make_rng
from sqlab.sqcore import (
    ExhaustiveCSQ,
    build_gpsi,
    class_pool_generator,
    gpsi_generator,
    projected_learner,
)

from conftest import (
    RecordingOracle,
    decompose,
    dense_class,
    greedy_extension,
    l1_distance,
    random_bool_fn,
    rows_of,
    shifted_set,
    sqd_upper,
    table_set,
)


def _report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_every_accepted_step_pays_its_potential():
    # full grid: n in {3,4,5}, every conjunction target, uniform + 10 random
    # distributions, exact and rounding-adversary oracles, tau in {.05,.02}
    runs = 0
    drop_floor = math.inf
    worst_dis = 0.0
    max_updates_seen = 0
    for n in (3, 4, 5):
        domain = Domain(n)
        cclass = conjunction_class(n)
        dists = [dist_uniform(domain)] + [
            dist_random(domain, make_rng(100 + j, 0, "dist")) for j in range(10)
        ]
        for d in dists:
            for mode in ("exact", "grid_adversary"):
                for tau in (0.05, 0.02):
                    gen = class_pool_generator(cclass, gamma=4 * tau)
                    cap = math.ceil(1 / (3 * tau * tau))
                    for f in cclass:
                        orc = SQOracle(f, d, mode=mode)
                        hyp, trace = projected_learner(gen, orc, tau)
                        runs += 1
                        assert trace.halt_reason == "converged"
                        assert trace.updates <= cap
                        max_updates_seen = max(max_updates_seen, trace.updates)
                        rows = trace.rows
                        for a, b in zip(rows, rows[1:]):
                            if a["gamma"] is not None:
                                drop = a["potential"] - b["potential"]
                                assert drop >= 3 * tau * tau - 1e-9
                                drop_floor = min(drop_floor, drop)
                        worst_dis = max(worst_dis, disagreement(f, hyp, d))
    ok = runs == 2464 and worst_dis <= 0.1
    _report(
        1,
        ok,
        f"{runs} runs converged; min accepted drop {drop_floor:.5f} vs floors "
        f"0.0075/0.0012; max updates {max_updates_seen}; "
        f"worst final disagreement {worst_dis:.4f} <= 0.1",
    )


def test_criterion_02_simulated_candidate_sets_feed_the_learner():
    # candidate sets produced by simulating the exhaustive baseline are good
    # enough for the projected learner to recover every n=4 conjunction
    domain = Domain(4)
    cclass = dense_class("conjunctions", 4)
    runs = conv = 0
    worst = 0.0
    for j in range(10):
        d = dist_random(domain, make_rng(100 + j, 0, "dist"))
        gen = gpsi_generator(ExhaustiveCSQ(cclass, 1.0 / 15.0), d)
        for f in cclass:
            hyp, trace = projected_learner(gen, SQOracle(f, d), tau=1 / 120)
            runs += 1
            conv += trace.halt_reason == "converged"
            worst = max(worst, disagreement(f, hyp, d))
    ok = runs == 160 and conv == 160 and worst <= 0.1
    _report(2, ok, f"{conv}/{runs} converged; worst disagreement {worst:.4f} <= 0.1")


def test_criterion_03_candidate_sets_distinguish_far_targets():
    # every class member still far from sign(psi) correlates with some
    # candidate at the advertised threshold
    domain = Domain(3)
    u = dist_uniform(domain)
    cclass = dense_class("parities", 3)
    alg = ExhaustiveCSQ(cclass, 0.1)
    tau = alg.tau
    checked = fails = 0
    min_margin = math.inf
    for j in range(50):
        psi = random_real_fn(domain, make_rng(300 + j, 0, "psi"))
        gset = build_gpsi(alg, psi, u)
        h = sign_of(psi)
        for f in cclass:
            if disagreement(f, h, u) > 0.1 + tau:
                checked += 1
                margin = max(
                    abs(float(u.weights @ ((f.values - psi.values) * m)))
                    for m in rows_of(gset)
                )
                min_margin = min(min_margin, margin)
                fails += margin < tau - 1e-12
    ok = checked > 0 and fails == 0
    _report(
        3,
        ok,
        f"{checked} far members over 50 sampled shifts; min margin "
        f"{min_margin:.4f} >= tau {tau}; {fails} failures",
    )


def test_criterion_04_parity_dimension_is_the_whole_class():
    values = []
    for n in (1, 2, 3, 4):
        rep = sq_dim(parity_class(n), dist_uniform(Domain(n)))
        assert rep.certainty == "exact"
        assert rep.value == 2 ** n
        values.append(rep.value)
    worst_off = 0.0
    for n in range(1, 11):
        domain = Domain(n)
        u = dist_uniform(domain)
        mat = np.stack([m.values for m in parity_class(n)])
        g = (mat * u.weights) @ mat.T
        worst_off = max(worst_off, float(np.abs(g - np.eye(len(mat))).max()))
    ok = worst_off <= 1e-12
    _report(
        4,
        ok,
        f"exact dimensions {values} for n=1..4; max pairwise correlation "
        f"deviation {worst_off:.2e} <= 1e-12 up to n=10",
    )


def test_criterion_05_parity_conjunction_distance_formulas():
    worst = 0.0
    count = 0
    for n in range(1, 11):
        domain = Domain(n)
        u = dist_uniform(domain)
        for bits in range(1, 2 ** n):
            subset = [i + 1 for i in range(n) if bits >> i & 1]
            k = len(subset)
            chi = make_parity(domain, subset)
            conj = make_conjunction(domain, subset)
            worst = max(
                worst,
                abs(disagreement(chi, conj, u) - (0.5 - 2.0 ** -k)),
                abs(l1_distance(chi, conj, u) - (1.0 - 2.0 ** (1 - k))),
            )
            count += 1
    # the witness: every parity on 1..2 of 5 variables, within L1 1 - 2^(1-2) of its conjunction
    domain = Domain(5)
    u = dist_uniform(domain)
    members = []
    for bits in range(1, 2 ** 5):
        subset = [i + 1 for i in range(5) if bits >> i & 1]
        if len(subset) <= 2:
            chi = make_parity(domain, subset)
            conj = make_conjunction(domain, subset)
            assert l1_distance(chi, conj, u) <= 0.5 + 1e-12
            members.append(chi.values)
    mat = np.stack(members)
    g = (mat * u.weights) @ mat.T
    ortho = float(np.abs(g - np.eye(15)).max())
    ok = worst <= 1e-12 and len(members) == 15 and ortho <= 1e-12
    _report(
        5,
        ok,
        f"{count} index sets up to n=10, max formula deviation {worst:.2e}; "
        f"witness(5,2) has 15 members, orthogonality deviation {ortho:.2e}",
    )


def test_criterion_06_disjunction_neighborhood_gains_or_is_done():
    total = bad = 0
    worst_slack = math.inf
    for n in range(1, 7):
        domain = Domain(n)
        for eps in (0.2, 0.1):
            _, gain = disjunction_params(n, eps)
            mutator = disjunction_mutator(n, eps)
            table = np.empty((mutator.k, domain.size))
            for j in range(200):
                rng = make_rng(7000 + j, n * 10 + int(eps * 10), "triple")
                d = dist_random(domain, rng)
                subset = [i + 1 for i in range(n) if rng.random() < 0.5]
                f = make_disjunction(domain, subset)
                phi = random_real_fn(domain, rng)
                base = lperf(f, phi, d)
                need = min(base + gain, 1.0 - eps)
                mutator.table(phi.values, table)  # the n+2 neighbours, phi last
                best = max(lperf(f, RealFn(domain, row), d) for row in table)
                total += 1
                worst_slack = min(worst_slack, best - need)
                bad += best < need - 1e-12
    ok = total == 2400 and bad == 0
    _report(
        6,
        ok,
        f"{total} sampled (distribution, disjunction, hypothesis) triples; "
        f"{bad} counterexamples; worst slack {worst_slack:.2e}",
    )


def test_criterion_07_disjunction_evolution_reaches_target():
    cfg = harness.make_config(
        {
            "command": "evolve",
            "n": 4,
            "epsilon": 0.2,
            "dist": "uniform",
            "seeds": "0..99",
            "workers": 8,
            "out": "unused",
        }
    )
    arts, sums = harness.run_config(cfg)
    reached = [s for s in sums if s["reached_target"]]
    mono = sum(1 for s in reached if s["monotone_vs_start"])
    ok = len(reached) >= 90 and mono >= 0.9 * len(reached)
    _report(
        7,
        ok,
        f"{len(reached)}/100 seeds reached performance > 0.8 "
        f"(>=90 required); {mono}/{len(reached)} of those monotone vs start",
    )


def _half_pool(fs, idx):
    return FnSet(fs.domain, fs.matrix[list(idx)] / 2.0)


def test_criterion_08_witness_pool_covers_the_shifted_set():
    eps = 0.4
    norm_floor = math.inf
    covers = []
    for kind in ("parities", "conjunctions"):
        for n in (2, 3, 4):
            domain = Domain(n)
            u = dist_uniform(domain)
            cclass = dense_class(kind, n)
            best = None
            for j in range(20):
                psi = random_real_fn(domain, make_rng(100 + j, 0, "psi"))
                fs = shifted_set(cclass, psi, u, eps)
                if len(fs) == 0:
                    continue
                norms = np.sqrt(fs.matrix ** 2 @ u.weights)
                norm_floor = min(norm_floor, float(norms.min()))
                assert norms.min() >= math.sqrt(eps) - 1e-12
                rep = sq_dim(fs, u)
                if best is None or rep.value > best[1].value:
                    best = (fs, rep)
            fs, rep = best
            ext = greedy_extension(fs, u, rep.witness, 1.0 / rep.value)
            d = len(ext)
            cover = len(sqd_upper(fs, u, 1.0 / (2 * d), _half_pool(fs, ext)))
            assert cover <= d
            covers.append((d, cover))
    ok = len(covers) == 6
    _report(
        8,
        ok,
        f"all shifted-set norms >= sqrt(0.4) (floor {norm_floor:.4f}); "
        f"(pool size, cover size) per class: {covers}",
    )


def test_criterion_09_decomposition_identity_and_oracle_audit(cell_mean):
    domain = Domain(4)
    bad_id = bad_audit = 0
    worst_gap = 0.0
    for j in range(10_000):
        rng = make_rng(900 + j, 0, "nine")
        d = dist_random(domain, rng)
        f = random_bool_fn(domain, rng)
        pos, neg = rng.uniform(-1, 1, domain.size), rng.uniform(-1, 1, domain.size)
        phi1, phi2 = decompose(pos, neg)
        lhs = cell_mean(pos, neg, f.values, d.weights)
        rhs = float(d.weights @ (phi1 * f.values)) + float(d.weights @ phi2)
        worst_gap = max(worst_gap, abs(lhs - rhs))
        bad_id += abs(lhs - rhs) > 1e-12
        for mode in ("exact", "grid_adversary", "noisy"):
            orc = SQOracle(f, d, mode=mode, seed=j)
            (answer,) = orc.query(table_set(phi1), 0.05, phi2[None])
            # the log audits the correlational part; the answer is checked whole
            bound = 1e-12 if mode == "exact" else 0.05 + 1e-12
            bad_audit += orc.audit() > bound or abs(answer - lhs) > bound
    ok = bad_id == 0 and bad_audit == 0
    _report(
        9,
        ok,
        f"10000 random (query, target, distribution) triples: identity gap "
        f"max {worst_gap:.2e} <= 1e-12; {bad_audit} audit violations across "
        f"3 oracle modes",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    data = {
        "command": "learn",
        "n": 3,
        "class": "conjunctions",
        "dist": "random",
        "tau": 0.05,
        "seeds": "0..7",
        "out": str(tmp_path / "a"),
    }
    arts1, _ = harness.run_config(harness.make_config(data))
    arts8, _ = harness.run_config(harness.make_config({**data, "workers": 8}))
    assert list(arts1) == list(arts8)
    same_workers = arts1 == arts8

    harness.execute(harness.make_config(data))
    rerun_dir = tmp_path / "b"
    harness.rerun_manifest(tmp_path / "a" / "manifest.json", rerun_dir)
    names = sorted(p.name for p in (tmp_path / "a").iterdir() if p.name != "manifest.json")
    same_rerun = all(
        (tmp_path / "a" / nm).read_bytes() == (rerun_dir / nm).read_bytes()
        for nm in names
    )
    ok = same_workers and same_rerun and len(names) == 8
    _report(
        10,
        ok,
        f"8 artifacts byte-identical across 1 vs 8 workers ({same_workers}) "
        f"and across manifest re-run ({same_rerun})",
    )


def test_criterion_11_empirical_learn_converges_at_the_hoeffding_size(monkeypatch):
    # s = ceil(2 ln(2 m R / delta) / tau^2) = 2880 for m = 256 queries a round, at
    # most R = ceil(1/(3 tau^2)) + 1 = 35 rounds and delta = 0.01: each answer of
    # a run is within tau with probability >= 1 - delta / (m R), whether or not
    # the answers of one round share their sample.  Both bounds were fixed before
    # the first run: every run converges within its ledger, and at most 1% of
    # all answers are off by more than tau.
    tau, size = 0.1, 2880
    oracles = []

    class Kept(RecordingOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            oracles.append(self)

    monkeypatch.setattr(harness, "SQOracle", Kept)
    cfg = harness.make_config({"command": "learn", "n": 8, "class": "conjunctions",
                               "tau": tau, "oracle": f"empirical:{size}", "seeds": "0..99"})
    _, summaries = harness.run_config(cfg)
    converged = sum(s["halt"] == "converged" and s["updates"] <= s["ledger"] for s in summaries)
    gaps = np.array([abs(value - truth) for o in oracles for _, value, truth in o.answers])
    off = float(np.mean(gaps > tau))
    ok = converged == len(summaries) == len(oracles) == 100 and off <= 0.01
    _report(11, ok, f"{converged}/100 empirical:{size} runs converged within the ledger; "
                    f"{np.count_nonzero(gaps > tau)} of {len(gaps)} answers off by more than "
                    f"tau = {tau} ({off:.2e}, bound 0.01)")
