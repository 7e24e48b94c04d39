"""Acceptance gate: one test per numbered criterion, in order.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion. Each test also prints its measured margin and elapsed time, and
asserts the runtime ceiling where its criterion states one.
"""
import time

import numpy as np

from discrep import (
    ExperimentConfig,
    GaussianKernel,
    LinearKernel,
    SolverConfig,
    Threshold1D,
    WeightedEmpirical,
    bound_value,
    canonical_regions_1d,
    disc_01_threshold1d,
    disc_l2_kernel,
    disc_l2_linear,
    gram_matrix,
    joint_support,
    minimize_01_lp,
    minimize_1d,
    minimize_l2_kernel,
    minimize_l2_linear,
    rademacher_montecarlo,
    rademacher_threshold1d_exact,
    run_experiment_1,
    run_experiment_2,
    verify_stability_bound,
)
from oracles import disc_01_bruteforce

# Weights are multiples of 1/1024, so every mass sum below is exact in binary
# floating point and value comparisons can demand bitwise equality.
DENOM = 1024


def dyadic_weights(rng, k):
    counts = rng.multinomial(DENOM - k, np.full(k, 1.0 / k)) + 1
    return counts.astype(float) / DENOM


def distinct_uniform(rng, lo, hi, k):
    xs = rng.uniform(lo, hi, k)
    while np.unique(xs).size < k:
        xs = rng.uniform(lo, hi, k)
    return xs


def pair_1d(rng, max_size, lo, hi, shared_prob, left_mass=True):
    """Random weighted pair on the line; optionally no target mass left of q."""
    m0 = int(rng.integers(1, max_size + 1))
    n0 = int(rng.integers(1, max_size + 1))
    qx = distinct_uniform(rng, lo, hi, m0)
    p_lo = lo if left_mass else float(qx.min())
    px = rng.uniform(p_lo, hi + 0.5, n0)
    if rng.random() < shared_prob:
        px[int(rng.integers(0, n0))] = qx[int(rng.integers(0, m0))]
    while np.unique(px).size < n0:
        px = rng.uniform(p_lo, hi + 0.5, n0)
    q = WeightedEmpirical(qx[:, None], dyadic_weights(rng, m0))
    p = WeightedEmpirical(px[:, None], dyadic_weights(rng, n0))
    return q, p


def planar_pair(rng, m0, n0):
    q = WeightedEmpirical(rng.normal(0.0, 1.0, (m0, 2)), rng.dirichlet(np.ones(m0)))
    p = WeightedEmpirical(rng.normal(0.5, 1.0, (n0, 2)), rng.dirichlet(np.ones(n0)))
    return q, p


def max_unlabeled_mass(q, p):
    """Largest target mass over regions that avoid every reweightable point."""
    _, _, pm = joint_support(q, p)
    best = 0.0
    for row in canonical_regions_1d(q, p):
        if not row[: q.size].any():  # joint_support puts q's points first
            best = max(best, float(pm[row].sum()))
    return best


def test_criterion_01_exact_1d_minimizer_is_optimal():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_lp = 0.0
    for _ in range(500):
        q, p = pair_1d(rng, 8, 0.0, 1.0, shared_prob=0.4, left_mass=False)
        res = minimize_1d(q, p)
        assert res.warnings == ()
        lp = minimize_01_lp(q, p, canonical_regions_1d(q, p))
        worst_lp = max(worst_lp, abs(res.achieved_disc - lp.achieved_disc))
        assert worst_lp <= 1e-9
        assert res.achieved_disc == max_unlabeled_mass(q, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"criterion 1 PASS ({elapsed:.1f}s): 500 instances, LP gap <= {worst_lp:.1e}, "
        "achieved value == max unlabeled-region mass bitwise"
    )


def test_criterion_02_threshold_scan_matches_bruteforce():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(200):
        q, p = pair_1d(rng, 6, -1.0, 1.0, shared_prob=0.3)
        fast = disc_01_threshold1d(q, p).value
        brute, _ = disc_01_bruteforce(q, p, max_support=12, hypothesis=Threshold1D())
        assert fast == brute
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS ({elapsed:.1f}s): 200 instances match the enumerator bitwise")


def _normalized_objective(q, p):
    """Scaled distance objective evaluated through LAPACK, not the package."""
    tgt = np.zeros((2, 2))
    for x, w in zip(p.points, p.weights):
        tgt += w * np.outer(x, x)
    terms = np.stack([np.outer(x, x) for x in q.points])
    scale = float(np.linalg.norm(tgt))
    return tgt, terms, scale


def _grid_minimum(tgt, terms, scale, step=0.005):
    k = round(1.0 / step)
    grid = np.array(
        [(a, b, k - a - b) for a in range(k + 1) for b in range(k + 1 - a)], dtype=float
    )
    pencils = np.einsum("gi,ijk->gjk", grid / k, terms) - tgt[None]
    vals = 4.0 * np.abs(np.linalg.eigvalsh(pencils)).max(axis=1) / scale
    return float(vals.min())


def test_criterion_03_mirror_descent_reaches_grid_minimum():
    # The default solver, now the interior-point method; the test id is kept.
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    cfg = SolverConfig(max_iters=30000)
    worst = -np.inf
    for _ in range(50):
        q, p = planar_pair(rng, 3, 4)
        tgt, terms, scale = _normalized_objective(q, p)
        grid_val = _grid_minimum(tgt, terms, scale)
        md_val = minimize_l2_linear(q, p, cfg).achieved_disc / scale
        worst = max(worst, md_val - grid_val)
        assert md_val <= grid_val + 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS ({elapsed:.1f}s): 50 instances, worst scaled gap {worst:+.1e}")


def test_criterion_04_linear_kernel_routes_agree():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    cfg = SolverConfig(max_iters=1000)
    worst_disc = worst_min = 0.0
    for _ in range(50):
        q, p = planar_pair(rng, 3, 3)
        pts, _, _ = joint_support(q, p)
        gram = gram_matrix(pts, LinearKernel())
        worst_disc = max(
            worst_disc, abs(disc_l2_linear(q, p).value - disc_l2_kernel(q, p, gram).value)
        )
        rl = minimize_l2_linear(q, p, cfg)
        rk = minimize_l2_kernel(q, p, gram, cfg)
        worst_min = max(worst_min, abs(rl.achieved_disc - rk.achieved_disc))
        assert worst_disc <= 1e-4 and worst_min <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 4 PASS ({elapsed:.1f}s): 50 instances, distance gap <= {worst_disc:.1e}, "
        f"minimizer gap <= {worst_min:.1e}"
    )


def test_criterion_05_stability_ceiling_never_violated():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    kernels = [LinearKernel(), GaussianKernel(0.5), GaussianKernel(1.5)]
    lams = [0.01, 0.1, 1.0]
    for i in range(100):
        kernel = kernels[i % 3]
        lam = lams[(i // 3) % 3]
        m0 = int(rng.integers(4, 9))
        n0 = int(rng.integers(4, 9))
        qx = distinct_uniform(rng, -2.0, 2.0, m0)
        px = distinct_uniform(rng, -2.0, 2.0, n0)
        q = WeightedEmpirical(qx[:, None], rng.dirichlet(np.ones(m0)))
        p = WeightedEmpirical(px[:, None], rng.dirichlet(np.ones(n0)))
        pts, _, _ = joint_support(q, p)
        # Labeling functions are explicit kernel expansions with known norms.
        anchors = rng.uniform(-2.0, 2.0, (3, 1))
        ka = gram_matrix(anchors, kernel).data
        coef_q = rng.normal(0.0, 1.0, 3)
        norm_q = float(np.sqrt(max(coef_q @ ka @ coef_q, 0.0)))
        labels_q = kernel.pairwise(pts, anchors) @ coef_q
        if i % 2 == 1:
            coef_p = coef_q + rng.normal(0.0, 0.5, 3)
            labels_p = kernel.pairwise(pts, anchors) @ coef_p
            norm_p = float(np.sqrt(max(coef_p @ ka @ coef_p, 0.0)))
        else:
            coef_p, labels_p, norm_p = coef_q, labels_q, norm_q
        probe = np.linspace(-2.5, 2.5, 41)[:, None]
        probe_labels = kernel.pairwise(probe, anchors) @ coef_p
        rep = verify_stability_bound(
            q, p, labels_q, labels_p, lam, kernel, probe, probe_labels,
            target_norm_bound=max(norm_q, norm_p),
        )
        assert rep.satisfied
    elapsed = time.perf_counter() - start
    print(f"criterion 5 PASS ({elapsed:.1f}s): ceiling held in 100/100 instances")


def test_criterion_06_classification_curves_ordinal():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="exp1", m=50, seed=0, trials=20)
    rec = run_experiment_1(cfg, m_values=[50, 100, 200, 500])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    means = {(r.m, r.variant, r.metric): r.mean for r in rec.summary_rows}
    for m in (50, 100, 200, 500):
        assert means[(m, "weighted", "accuracy")] > means[(m, "unweighted", "accuracy")]
        assert means[(m, "unweighted", "cutoff")] < 0.0
        assert means[(m, "weighted", "cutoff")] > 0.0
    gap = min(
        means[(m, "weighted", "accuracy")] - means[(m, "unweighted", "accuracy")]
        for m in (50, 100, 200, 500)
    )
    print(f"criterion 6 PASS ({elapsed:.1f}s): smallest weighted accuracy lead {gap:.3f}")


def test_criterion_07_regression_curves_ordinal():
    m_values = [100, 400, 1600]
    timings = {}
    for dim in (2, 16):
        cfg = ExperimentConfig(experiment="exp2", m=100, dim=dim, seed=0, trials=10)
        start = time.perf_counter()
        rec = run_experiment_2(cfg, m_values=m_values)
        timings[dim] = time.perf_counter() - start
        means = {(r.m, r.variant): r.mean for r in rec.summary_rows if r.metric == "mse"}
        for m in m_values:
            assert means[(m, "source")] > means[(m, "reweighted")]
            assert means[(m, "reweighted")] >= means[(m, "target")]
    assert timings[16] < 300.0
    print(
        f"criterion 7 PASS (2d {timings[2]:.1f}s, 16d {timings[16]:.1f}s): "
        "source > reweighted >= target at every m in both dimensions"
    )


def _random_cloud(rng, dim):
    k = int(rng.integers(2, 7))
    if dim == 1:
        pts = distinct_uniform(rng, -1.0, 1.0, k)[:, None]
    else:
        pts = rng.normal(0.0, 1.0, (k, dim))
    return WeightedEmpirical(pts, rng.dirichlet(np.ones(k)))


def test_criterion_08_distance_axioms():
    kernel = GaussianKernel(0.8)

    def thresh_disc(a, b):
        return disc_01_threshold1d(a, b).value

    def linear_disc(a, b):
        return disc_l2_linear(a, b).value

    def kernel_disc(a, b):
        pts, _, _ = joint_support(a, b)
        return disc_l2_kernel(a, b, gram_matrix(pts, kernel)).value

    start = time.perf_counter()
    for op, dim, seed in ((thresh_disc, 1, 808), (linear_disc, 2, 809), (kernel_disc, 2, 810)):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            a, b, c = (_random_cloud(rng, dim) for _ in range(3))
            assert abs(op(a, b) - op(b, a)) <= 1e-9
            assert op(a, c) <= op(a, b) + op(b, c) + 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8 PASS ({elapsed:.1f}s): symmetry and triangle inequality over "
        "200 triples per distance"
    )


def test_criterion_09_rademacher_estimates_and_ceiling():
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    worst_z = 0.0
    for _ in range(20):
        m = int(rng.integers(5, 15))
        pts = rng.normal(0.0, 1.0, m)
        exact = rademacher_threshold1d_exact(pts)
        assert exact.exact and exact.stderr == 0.0
        mc = rademacher_montecarlo(
            Threshold1D(), pts, trials=5000, seed=int(rng.integers(0, 2**31))
        )
        assert abs(exact.value - mc.value) <= 3.0 * mc.stderr
        worst_z = max(worst_z, abs(exact.value - mc.value) / mc.stderr)
    hits = 0
    for _ in range(100):
        full = rng.normal(0.0, 1.0, 300)
        sub_idx = rng.integers(0, 300, 16)
        whole = WeightedEmpirical.from_points(full[:, None])
        sub = WeightedEmpirical.from_points(full[sub_idx][:, None])
        proxy = disc_01_threshold1d(whole, sub).value
        rad = rademacher_threshold1d_exact(full[sub_idx]).value
        ceiling = bound_value("zeroone_disc_estimation", rad=rad, m=16, delta=0.05).value
        hits += ceiling >= proxy
    assert hits >= 95
    elapsed = time.perf_counter() - start
    print(
        f"criterion 9 PASS ({elapsed:.1f}s): exact vs Monte Carlo within "
        f"{worst_z:.2f} standard errors; estimation ceiling held in {hits}/100 trials"
    )
