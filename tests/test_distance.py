import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discrep.core import (
    KernelBounded,
    LinearBounded,
    Threshold1D,
    WeightedEmpirical,
)
from discrep.distance import (
    DirectionWitness,
    IntervalWitness,
    disc_01_threshold1d,
    disc_l2_kernel,
    disc_l2_linear,
    joint_support,
    l1_distance,
    moment_gap_matrix,
    rademacher_montecarlo,
    rademacher_threshold1d_exact,
)
from discrep.linalg import GaussianKernel, LinearKernel, gram_matrix
from oracles import disc_01_bruteforce


def rand_dist(rng, dim=1, max_pts=6, grid=None):
    k = int(rng.integers(1, max_pts + 1))
    if grid is not None:
        pts = rng.choice(grid, size=(k, dim))
    else:
        pts = rng.normal(size=(k, dim))
    w = rng.random(k) + 0.05
    return WeightedEmpirical.from_points(pts, w)


def interval_mass(dist, lo, hi):
    xs = dist.points[:, 0]
    return float(dist.weights[(xs > lo) & (xs <= hi)].sum())


def test_joint_support_q_first():
    q = WeightedEmpirical.from_points([0.0, 1.0])
    p = WeightedEmpirical.from_points([1.0, 2.0])
    pts, qm, pm = joint_support(q, p)
    assert pts[:, 0].tolist() == [0.0, 1.0, 2.0]
    np.testing.assert_allclose(qm, [0.5, 0.5, 0.0])
    np.testing.assert_allclose(pm, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError, match="dimension"):
        joint_support(q, WeightedEmpirical.from_points([[0.0, 1.0]]))


def test_l1_distance_basic():
    q = WeightedEmpirical.from_points([0.0, 1.0])
    assert l1_distance(q, q) == 0.0
    p = WeightedEmpirical.from_points([2.0, 3.0])
    assert l1_distance(q, p) == pytest.approx(2.0)
    r = WeightedEmpirical.from_points([0.0, 2.0])
    assert l1_distance(q, r) == pytest.approx(1.0)


def test_disc_threshold_point_masses():
    q = WeightedEmpirical.from_points([0.0])
    p = WeightedEmpirical.from_points([1.0])
    res = disc_01_threshold1d(q, p)
    assert res.value == pytest.approx(1.0)
    lo, hi = res.witness.lo, res.witness.hi
    assert abs(interval_mass(q, lo, hi) - interval_mass(p, lo, hi)) == pytest.approx(1.0)


def test_disc_threshold_partial_overlap():
    q = WeightedEmpirical.from_points([1.0, 2.0])
    p = WeightedEmpirical.from_points([1.5, 2.0])
    res = disc_01_threshold1d(q, p)
    assert res.value == pytest.approx(0.5)
    assert disc_01_threshold1d(q, q).value == 0.0


def test_disc_threshold_witness_consistency():
    rng = np.random.default_rng(31)
    for _ in range(100):
        q = rand_dist(rng, grid=np.linspace(-2, 2, 9))
        p = rand_dist(rng, grid=np.linspace(-2, 2, 9))
        res = disc_01_threshold1d(q, p)
        w = res.witness
        assert isinstance(w, IntervalWitness)
        gap = abs(interval_mass(q, w.lo, w.hi) - interval_mass(p, w.lo, w.hi))
        assert gap == pytest.approx(res.value, abs=1e-12)


def test_disc_threshold_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(60):
        q = rand_dist(rng, grid=np.linspace(-1, 1, 7))
        p = rand_dist(rng, grid=np.linspace(-1, 1, 7))
        fast = disc_01_threshold1d(q, p).value
        slow, _ = disc_01_bruteforce(q, p, hypothesis=Threshold1D())
        assert fast == pytest.approx(slow, abs=1e-12)


def test_disc_threshold_at_most_l1():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q, p = rand_dist(rng), rand_dist(rng)
        assert disc_01_threshold1d(q, p).value <= l1_distance(q, p) + 1e-12


def test_bruteforce_unfiltered_is_total_variation():
    rng = np.random.default_rng(5)
    for _ in range(40):
        q, p = rand_dist(rng, dim=2, max_pts=4), rand_dist(rng, dim=2, max_pts=4)
        value, region = disc_01_bruteforce(q, p)
        assert value == pytest.approx(0.5 * l1_distance(q, p), abs=1e-12)
        _, qm, pm = joint_support(q, p)
        assert region.dtype == bool and region.shape == qm.shape
        assert abs(region @ (qm - pm)) == pytest.approx(value, abs=1e-12)


def test_bruteforce_refuses_blowup():
    pts = np.arange(20.0)
    q = WeightedEmpirical.from_points(pts[:10])
    p = WeightedEmpirical.from_points(pts[10:])
    with pytest.raises(ValueError, match="combinatorial blowup"):
        disc_01_bruteforce(q, p, max_support=16)
    disc_01_bruteforce(q, p, max_support=20)  # explicit cap raise is allowed


def test_disc_l2_linear_1d_example():
    q = WeightedEmpirical.from_points([1.0])
    p = WeightedEmpirical.from_points([2.0])
    res = disc_l2_linear(q, p)
    # moment gap is the scalar 2^2 - 1^2 = 3; directions of norm 2 scale it by 4
    assert res.value == pytest.approx(12.0)
    assert isinstance(res.witness, DirectionWitness)


def test_disc_l2_linear_matches_direction_grid():
    rng = np.random.default_rng(77)
    thetas = np.linspace(0.0, np.pi, 20001)
    dirs = 2.0 * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for _ in range(20):
        q = rand_dist(rng, dim=2, max_pts=4)
        p = rand_dist(rng, dim=2, max_pts=4)
        m = moment_gap_matrix(q, p).data
        grid_val = np.abs(np.einsum("ki,ij,kj->k", dirs, m, dirs)).max()
        res = disc_l2_linear(q, p)
        assert res.value == pytest.approx(grid_val, rel=1e-6, abs=1e-9)
        u = res.witness.vector
        assert abs(u @ m @ u) == pytest.approx(res.value, abs=1e-9)


def test_disc_l2_linear_scale_law():
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = rand_dist(rng, dim=2, max_pts=4)
        p = rand_dist(rng, dim=2, max_pts=4)
        c = float(rng.uniform(0.2, 3.0))
        qc = WeightedEmpirical(c * q.points, q.weights)
        pc = WeightedEmpirical(c * p.points, p.weights)
        assert disc_l2_linear(qc, pc).value == pytest.approx(
            c * c * disc_l2_linear(q, p).value, rel=1e-9, abs=1e-12
        )


def test_disc_l2_kernel_linear_kernel_matches_linear():
    rng = np.random.default_rng(11)
    for _ in range(30):
        q = rand_dist(rng, dim=2, max_pts=4)
        p = rand_dist(rng, dim=2, max_pts=4)
        pts, _, _ = joint_support(q, p)
        gram = gram_matrix(pts, LinearKernel())
        lin = disc_l2_linear(q, p).value
        ker = disc_l2_kernel(q, p, gram).value
        assert ker == pytest.approx(lin, rel=1e-6, abs=1e-9)


def test_disc_l2_kernel_gaussian_vs_function_ball_sampling():
    rng = np.random.default_rng(2)
    q = WeightedEmpirical.from_points([[0.0], [1.0]], [0.6, 0.4])
    p = WeightedEmpirical.from_points([[0.5], [2.0]], [0.3, 0.7])
    pts, qm, pm = joint_support(q, p)
    gram = gram_matrix(pts, GaussianKernel(0.7)).data
    value = disc_l2_kernel(q, p, gram).value
    diff = pm - qm
    betas = rng.normal(size=(200000, pts.shape[0]))
    kb = betas @ gram
    norms_sq = np.sum(betas * kb, axis=1)
    candidates = np.abs(np.sum(diff[None, :] * kb * kb, axis=1)) * 4.0 / norms_sq
    sampled = candidates.max()
    assert sampled <= value + 1e-9
    assert sampled >= 0.98 * value


def test_disc_l2_kernel_validates_gram():
    q = WeightedEmpirical.from_points([0.0])
    p = WeightedEmpirical.from_points([1.0])
    with pytest.raises(ValueError, match="gram order mismatch"):
        disc_l2_kernel(q, p, np.eye(3))
    with pytest.raises(ValueError, match="matrix not PSD"):
        disc_l2_kernel(q, p, np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_disc_symmetry_small():
    rng = np.random.default_rng(19)
    for _ in range(25):
        q, p = rand_dist(rng), rand_dist(rng)
        assert disc_01_threshold1d(q, p).value == pytest.approx(
            disc_01_threshold1d(p, q).value, abs=1e-12
        )
        assert disc_l2_linear(q, p).value == pytest.approx(
            disc_l2_linear(p, q).value, abs=1e-12
        )


# -- Rademacher ------------------------------------------------------------


def test_rademacher_exact_tiny_cases():
    # m=1: sup over {0,1}-valued thresholds of |sigma*h(x)| is 1 for both signs
    est = rademacher_threshold1d_exact([0.3])
    assert est.exact and est.stderr == 0.0
    assert est.value == pytest.approx(2.0)
    # m=2: enumeration over 4 sign patterns gives E[sup] = 1.5
    est2 = rademacher_threshold1d_exact([0.1, 0.9])
    assert est2.value == pytest.approx(1.5)
    assert est2.trials == 4


def brute_threshold_rademacher(xs):
    """(2/m) E_sigma max |sigma . h| over the labelings thresholds realize on xs."""
    m = len(xs)
    cuts = [-np.inf] + sorted(set(xs))  # the set holds one of 0.0 and -0.0
    below = np.array([[x <= t for x in xs] for t in cuts], dtype=float)
    labelings = np.vstack([below, 1.0 - below])
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
    return (2.0 / m) * float(np.abs(signs @ labelings.T).max(axis=1).mean())


def test_rademacher_exact_counts_tied_points_once():
    # no threshold separates equal points, so [0, 0] acts as one point of weight 2
    assert rademacher_threshold1d_exact([0.0, 0.0]).value == 1.0
    assert rademacher_threshold1d_exact([3.0, 3.0, 3.0]).value == 1.0
    assert rademacher_threshold1d_exact([0.0, -0.0, 1.0]).value == pytest.approx(7 / 6, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 2.5]), min_size=1, max_size=10))
@example([0.0, -0.0, 0.0, 1.0, -0.0])
def test_rademacher_exact_matches_brute_force_on_ties(xs):
    got = rademacher_threshold1d_exact(xs).value
    assert got == pytest.approx(brute_threshold_rademacher(xs), abs=1e-12)


def test_rademacher_montecarlo_counts_tied_points_once():
    # on one repeated point every threshold labels all or none, so each draw's
    # sup is |sum sigma|: the linear class on x = 1 under the same signs
    tied = rademacher_montecarlo(Threshold1D(), np.full(7, -0.0), trials=300, seed=3)
    linear = rademacher_montecarlo(LinearBounded(1), np.ones(7), trials=300, seed=3)
    assert tied == linear


def test_rademacher_exact_vs_montecarlo():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=12)
    exact = rademacher_threshold1d_exact(xs).value
    mc = rademacher_montecarlo(Threshold1D(), xs, trials=4000, seed=99)
    assert abs(mc.value - exact) <= 3.0 * mc.stderr
    assert mc.stderr > 0.0


def test_rademacher_montecarlo_deterministic_under_seed():
    xs = np.linspace(-1, 1, 25)
    a = rademacher_montecarlo(Threshold1D(), xs, trials=200, seed=5)
    b = rademacher_montecarlo(Threshold1D(), xs, trials=200, seed=5)
    assert a == b
    c = rademacher_montecarlo(Threshold1D(), xs, trials=200, seed=6)
    assert c.value != a.value


def test_rademacher_seed_required_beyond_enumeration():
    xs = np.linspace(0, 1, 25)
    with pytest.raises(ValueError, match="seed"):
        rademacher_threshold1d_exact(xs, trials=100, seed=None)
    with pytest.raises(ValueError, match="seed"):
        rademacher_montecarlo(Threshold1D(), xs, trials=100, seed=None)


def test_rademacher_linear_matches_enumeration():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(8, 2))
    signs = np.where(
        ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(bool), 1.0, -1.0
    )
    exact = (2.0 / 8) * np.linalg.norm(signs @ pts, axis=1).mean()
    mc = rademacher_montecarlo(LinearBounded(2), pts, trials=6000, seed=1)
    assert abs(mc.value - exact) <= 3.0 * mc.stderr


def test_rademacher_kernel_linear_consistency():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 3))
    gram = gram_matrix(pts, LinearKernel()).data
    a = rademacher_montecarlo(LinearBounded(3), pts, trials=500, seed=42)
    b = rademacher_montecarlo(KernelBounded(gram), pts, trials=500, seed=42)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_rademacher_decay_trend():
    rng = np.random.default_rng(15)
    small = rademacher_threshold1d_exact(rng.normal(size=10)).value
    mid = rademacher_threshold1d_exact(rng.normal(size=20)).value
    big = rademacher_threshold1d_exact(rng.normal(size=200), trials=3000, seed=0).value
    assert small > mid > big


def test_rademacher_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rademacher_threshold1d_exact(np.empty(0))
    with pytest.raises(ValueError):
        rademacher_montecarlo(Threshold1D(), np.ones((3, 2)), trials=10, seed=0)
    with pytest.raises(ValueError):
        rademacher_montecarlo(LinearBounded(3), np.ones((3, 2)), trials=10, seed=0)
    with pytest.raises(TypeError, match="unsupported hypothesis"):
        rademacher_montecarlo(object(), np.ones(3), trials=10, seed=0)
    with pytest.raises(ValueError, match="gram order"):
        rademacher_montecarlo(KernelBounded(np.eye(2)), np.ones((3, 1)), trials=10, seed=0)
