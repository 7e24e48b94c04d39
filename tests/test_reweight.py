"""Tests for the discrepancy-minimizing reweighting solvers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrep.cli import main
from discrep.core import SimplexVector, WeightedEmpirical
from discrep.distance import disc_01_threshold1d, disc_l2_linear, joint_support, moment_gap_matrix
from discrep.linalg import GaussianKernel, gram_matrix, spectral_abs_max
from discrep.reweight import (
    LEFT_MASS_WARNING,
    ReweightResult,
    SolverConfig,
    _family_objective,
    canonical_regions_1d,
    l2_kernel_family,
    l2_linear_family,
    minimize_01_lp,
    minimize_1d,
    minimize_l2_kernel,
    minimize_l2_linear,
)
from discrep.sample_io import write_sample_csv
from oracles import grid_oracle, point_key

from_points = WeightedEmpirical.from_points


def rand_1d(rng, max_pts=8):
    kq = int(rng.integers(1, max_pts + 1))
    kp = int(rng.integers(1, max_pts + 1))
    q = from_points(rng.normal(size=kq), rng.dirichlet(np.ones(kq)))
    # Keep all target mass right of the smallest reweightable point.
    lo = q.points[:, 0].min()
    p = from_points(lo + np.abs(rng.normal(size=kp)) + 1e-3, rng.dirichlet(np.ones(kp)))
    return q, p


# --------------------------------------------------------------------------
# 1-d exact algorithm
# --------------------------------------------------------------------------


def test_minimize_1d_worked_example():
    q = from_points([0.1, 0.5])
    p = from_points([0.2, 0.3, 0.6])
    res = minimize_1d(q, p)
    assert res.weights.entries == pytest.approx([2 / 3, 1 / 3])
    assert res.achieved_disc == pytest.approx(2 / 3)
    assert res.lower_bound == pytest.approx(res.achieved_disc)
    assert res.converged and not res.warnings
    assert (res.stop_reason, res.iterations) == ("exact", 0)
    lp = minimize_01_lp(q, p, canonical_regions_1d(q, p))
    assert lp.achieved_disc == pytest.approx(res.achieved_disc, abs=1e-9)
    assert (lp.stop_reason, lp.iterations) == ("exact", 0)


def test_minimize_1d_colocated_target_is_exact():
    q = from_points([0.0, 10.0])
    p = from_points([0.0, 10.0], [0.3, 0.7])
    res = minimize_1d(q, p)
    assert res.achieved_disc == pytest.approx(0.0, abs=1e-12)
    assert res.weights.entries == pytest.approx([0.3, 0.7])


def test_minimize_1d_single_point_left_of_target():
    q = from_points([0.0])
    p = from_points([1.0, 2.0], [0.3, 0.7])
    res = minimize_1d(q, p)
    assert res.weights.entries == pytest.approx([1.0])
    assert res.achieved_disc == pytest.approx(1.0)
    assert res.lower_bound == pytest.approx(1.0)
    assert not res.warnings


def test_minimize_1d_left_mass_is_flagged():
    q = from_points([0.0, 2.0])
    p = from_points([-1.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    res = minimize_1d(q, p)
    assert res.warnings == (LEFT_MASS_WARNING,)
    assert res.weights.entries == pytest.approx([0.7, 0.3])
    assert res.achieved_disc == pytest.approx(0.7)
    assert res.lower_bound == pytest.approx(0.5)


def test_minimize_1d_weights_follow_input_order():
    res = minimize_1d(from_points([0.5, 0.1]), from_points([0.2, 0.3, 0.6]))
    assert res.weights.entries == pytest.approx([1 / 3, 2 / 3])


def test_minimize_1d_matches_lp_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(20):
        q, p = rand_1d(rng, max_pts=6)
        res = minimize_1d(q, p)
        lp = minimize_01_lp(q, p, canonical_regions_1d(q, p))
        assert res.achieved_disc == pytest.approx(lp.achieved_disc, abs=1e-9)
        assert res.achieved_disc == pytest.approx(res.lower_bound, abs=1e-12)


def test_minimize_1d_rejects_wide_points():
    q = from_points(np.zeros((2, 2)) + [[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="1-d"):
        minimize_1d(q, from_points([0.5]))


# --------------------------------------------------------------------------
# canonical regions and the LP
# --------------------------------------------------------------------------


def region_keys(q, p, regions):
    """The membership rows as sets of point keys over the joint support."""
    pts, _, _ = joint_support(q, p)
    keys = [point_key(r) for r in pts]
    return [frozenset(keys[c] for c in np.flatnonzero(row)) for row in regions]


def test_canonical_regions_single_point():
    q = from_points([1.0])
    regions = canonical_regions_1d(q, q)
    assert regions.dtype == bool and regions.shape == (1, 1)
    assert region_keys(q, q, regions) == [frozenset({point_key([1.0])})]


def test_canonical_regions_three_points():
    q = from_points([1.0, 2.0])
    p = from_points([3.0])
    regions = canonical_regions_1d(q, p)
    k1, k2, k3 = point_key([1.0]), point_key([2.0]), point_key([3.0])
    expected = {
        frozenset({k1}),
        frozenset({k2}),
        frozenset({k3}),
        frozenset({k1, k2}),
        frozenset({k2, k3}),
        frozenset({k1, k2, k3}),
        frozenset({k1, k3}),
    }
    assert set(region_keys(q, p, regions)) == expected
    assert len(regions) == len(expected)


def test_canonical_regions_never_contain_empty_trace():
    rng = np.random.default_rng(3)
    q, p = rand_1d(rng, max_pts=4)
    regions = region_keys(q, p, canonical_regions_1d(q, p))
    assert all(region for region in regions)
    assert len(set(regions)) == len(regions)


def test_lp_identical_distributions():
    q = from_points([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    res = minimize_01_lp(q, q, canonical_regions_1d(q, q))
    assert res.achieved_disc == pytest.approx(0.0, abs=1e-12)
    assert res.weights.entries == pytest.approx([0.2, 0.3, 0.5], abs=1e-9)


def test_lp_unlabeled_region_mass_is_floor():
    q = from_points([0.0, 10.0])
    p = from_points([0.0, 3.0, 10.0], [0.25, 0.5, 0.25])
    res = minimize_01_lp(q, p, canonical_regions_1d(q, p))
    assert res.achieved_disc == pytest.approx(0.5, abs=1e-12)
    assert res.lower_bound == pytest.approx(0.5)


def test_lp_region_validation():
    q = from_points([0.0])
    p = from_points([1.0])
    with pytest.raises(ValueError, match="at least one region"):
        minimize_01_lp(q, p, np.zeros((0, 2), dtype=bool))
    with pytest.raises(ValueError, match="at least one region"):
        minimize_01_lp(q, p, ())
    for wrong in (np.ones((1, 3), dtype=bool), np.ones((1, 2)), np.ones(2, dtype=bool)):
        with pytest.raises(ValueError, match="boolean column per joint-support point"):
            minimize_01_lp(q, p, wrong)


# --------------------------------------------------------------------------
# squared-loss families and mirror descent
# --------------------------------------------------------------------------


def test_l2_linear_family_matches_moment_gap():
    rng = np.random.default_rng(5)
    q = from_points(rng.normal(size=(3, 2)), rng.dirichlet(np.ones(3)))
    p = from_points(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
    family = l2_linear_family(q, p)
    gap = moment_gap_matrix(q, p).data
    assert family.evaluate(q.weights).data == pytest.approx(gap, abs=1e-12)
    val, _ = spectral_abs_max(family.evaluate(q.weights))
    assert 4.0 * val == pytest.approx(disc_l2_linear(q, p).value, rel=1e-12)


def test_minimize_l2_linear_single_atom_is_closed_form():
    rng = np.random.default_rng(8)
    q = from_points(rng.normal(size=(1, 3)))
    p = from_points(rng.normal(size=(4, 3)), rng.dirichlet(np.ones(4)))
    res = minimize_l2_linear(q, p)
    assert res.weights.entries == pytest.approx([1.0])
    assert res.achieved_disc == pytest.approx(disc_l2_linear(q, p).value, rel=1e-12)
    assert res.lower_bound == pytest.approx(res.achieved_disc, rel=1e-9)
    assert res.converged and len(res.trace) == 1


def test_minimize_l2_linear_colocated_target_reaches_zero():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    q = from_points(pts)
    p = from_points(pts, [0.5, 0.3, 0.2])
    res = minimize_l2_linear(q, p)
    assert res.lower_bound == pytest.approx(0.0, abs=1e-12)
    assert res.achieved_disc < 5e-3
    assert res.weights.entries == pytest.approx([0.5, 0.3, 0.2], abs=0.01)


def test_minimize_l2_linear_never_worse_than_uniform_weights():
    rng = np.random.default_rng(13)
    for _ in range(5):
        q = from_points(rng.normal(size=(4, 2)))
        p = from_points(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
        res = minimize_l2_linear(q, p)
        assert res.achieved_disc <= disc_l2_linear(q, p).value + 1e-9
        assert res.lower_bound <= res.achieved_disc + 1e-9


def test_minimize_l2_linear_trace_and_convergence_flags():
    rng = np.random.default_rng(17)
    q = from_points(rng.normal(size=(3, 2)))
    p = from_points(rng.normal(size=(4, 2)))
    res = minimize_l2_linear(q, p)
    best = np.minimum.accumulate(res.trace)
    assert np.all(np.diff(best) <= 1e-15)
    assert res.converged and res.stop_reason == "gap"
    assert res.iterations == len(res.trace)
    short = minimize_l2_linear(q, p, SolverConfig(max_iters=5))
    assert not short.converged
    assert any("max_iters" in w for w in short.warnings)
    assert len(short.trace) == 5
    assert (short.stop_reason, short.iterations) == ("cap", 5)


def test_objective_is_convex_along_random_segments():
    rng = np.random.default_rng(19)
    q = from_points(rng.normal(size=(4, 3)))
    p = from_points(rng.normal(size=(5, 3)))
    objective = _family_objective(l2_linear_family(q, p))
    for _ in range(50):
        z1 = rng.dirichlet(np.ones(4))
        z2 = rng.dirichlet(np.ones(4))
        alpha = float(rng.uniform())
        mid = objective(alpha * z1 + (1 - alpha) * z2)
        assert mid <= alpha * objective(z1) + (1 - alpha) * objective(z2) + 1e-9


SEED7_GRID_Z = (0.05, 0.95, 0.0)
SEED7_GRID_VALUE = 0.1469259986970802


def seed7_instance():
    rng = np.random.default_rng(7)
    q = from_points(rng.normal(size=(3, 2)))
    p = from_points(rng.normal(size=(5, 2)))
    return q, p


def test_grid_oracle_seed7_fixture():
    # Fixture values were generated by a standalone grid enumeration script
    # before the mirror-descent solver existed.
    q, p = seed7_instance()
    objective = _family_objective(l2_linear_family(q, p))
    z_star, value = grid_oracle(objective, 3, 0.01)
    assert z_star == pytest.approx(SEED7_GRID_Z, abs=1e-15)
    assert value == pytest.approx(SEED7_GRID_VALUE, rel=1e-12)


def test_mirror_descent_reaches_seed7_grid_optimum():
    q, p = seed7_instance()
    res = minimize_l2_linear(q, p, SolverConfig(eta0=1.0))
    # One-sided: the coarse grid can sit above the true optimum, so the solver
    # only has to match or beat it up to the acceptance tolerance.
    assert res.achieved_disc / 4.0 <= SEED7_GRID_VALUE + 1e-3


# --------------------------------------------------------------------------
# kernelized solver
# --------------------------------------------------------------------------


def joint_points(q, p):
    pts, _, _ = joint_support(q, p)
    return pts


def test_kernel_family_linear_matches_feature_family_spectrum():
    rng = np.random.default_rng(29)
    q = from_points(rng.normal(size=(3, 2)))
    p = from_points(rng.normal(size=(4, 2)))
    pts = joint_points(q, p)
    gram = pts @ pts.T
    fam_k = l2_kernel_family(q, p, gram)
    fam_l = l2_linear_family(q, p)
    for z in (np.ones(3) / 3, np.array([0.6, 0.3, 0.1])):
        vk, _ = spectral_abs_max(fam_k.evaluate(z))
        vl, _ = spectral_abs_max(fam_l.evaluate(z))
        assert vk == pytest.approx(vl, rel=1e-9, abs=1e-12)


def test_minimize_l2_kernel_linear_agrees_with_feature_space():
    rng = np.random.default_rng(31)
    q = from_points(rng.normal(size=(3, 2)))
    p = from_points(rng.normal(size=(4, 2)))
    pts = joint_points(q, p)
    cfg = SolverConfig(max_iters=500)
    res_k = minimize_l2_kernel(q, p, pts @ pts.T, cfg)
    res_l = minimize_l2_linear(q, p, cfg)
    assert res_k.achieved_disc == pytest.approx(res_l.achieved_disc, abs=1e-4)


def test_minimize_l2_kernel_colocated_target():
    pts = np.array([[0.0], [1.0], [2.0]])
    q = from_points(pts)
    p = from_points(pts, [0.2, 0.5, 0.3])
    gram = gram_matrix(pts, GaussianKernel(gamma=0.7)).data
    res = minimize_l2_kernel(q, p, gram)
    assert res.lower_bound == pytest.approx(0.0, abs=1e-12)
    assert res.achieved_disc < 5e-3


def test_minimize_l2_kernel_gaussian_two_atoms_matches_grid():
    rng = np.random.default_rng(37)
    q = from_points(rng.normal(size=(2, 2)))
    p = from_points(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
    pts = joint_points(q, p)
    gram = gram_matrix(pts, GaussianKernel(gamma=0.5)).data
    objective = _family_objective(l2_kernel_family(q, p, gram))
    _, grid_val = grid_oracle(objective, 2, 0.005)
    res = minimize_l2_kernel(q, p, gram)
    assert res.achieved_disc / 4.0 <= grid_val + 1e-3


def test_minimize_l2_kernel_validates_gram():
    q = from_points([0.0, 1.0])
    p = from_points([2.0])
    with pytest.raises(ValueError, match="gram matrix must be 3x3"):
        minimize_l2_kernel(q, p, np.eye(2))
    bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="not PSD"):
        minimize_l2_kernel(q, p, bad)


# --------------------------------------------------------------------------
# grid oracle and config plumbing
# --------------------------------------------------------------------------


def test_grid_oracle_constant_objective_returns_first_grid_point():
    z, value = grid_oracle(lambda z: 7.5, 2, 0.25)
    assert value == 7.5
    assert z == pytest.approx([0.0, 1.0])


def test_grid_oracle_linear_objective():
    z, value = grid_oracle(lambda z: z[0], 2, 0.1)
    assert value == 0.0
    assert z == pytest.approx([0.0, 1.0])


def test_grid_oracle_validation():
    with pytest.raises(ValueError, match="between 1 and 4"):
        grid_oracle(lambda z: 0.0, 5, 0.1)
    with pytest.raises(ValueError, match="evenly divide"):
        grid_oracle(lambda z: 0.0, 2, 0.3)
    with pytest.raises(ValueError, match="step must lie"):
        grid_oracle(lambda z: 0.0, 2, 0.0)


def test_solver_config_validation():
    assert SolverConfig().eta0 is None  # the interior-point method
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="eta0"):
        SolverConfig(eta0=-1.0)
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=0.0)


def test_reweight_result_invariant():
    with pytest.raises(ValueError, match="lower_bound exceeds"):
        ReweightResult(
            weights=SimplexVector.uniform(2),
            achieved_disc=0.1,
            lower_bound=0.5,
        )
    with pytest.raises(ValueError, match="stop_reason must be one of"):
        ReweightResult(
            weights=SimplexVector.uniform(2),
            achieved_disc=0.5,
            lower_bound=0.1,
            stop_reason="plateau",
        )


def large_scale_pair(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1e4, (1, 3)), rng.normal(0.0, 1e4, (5, 3))


def test_lower_bound_tolerance_is_relative_at_large_scale(tmp_path, capsys):
    # With one reweightable point the lower bound equals the achieved value up
    # to rounding, which at coordinate scale 1e4 exceeds any absolute 1e-9.
    for seed in range(10):
        xq, xp = large_scale_pair(seed)
        res = minimize_l2_linear(from_points(xq), from_points(xp))
        assert res.lower_bound == pytest.approx(res.achieved_disc, rel=1e-9)
    xq, xp = large_scale_pair(1)
    write_sample_csv(tmp_path / "src.csv", xq)
    write_sample_csv(tmp_path / "tgt.csv", xp)
    code = main(["minimize", "--loss", "l2", str(tmp_path / "src.csv"), str(tmp_path / "tgt.csv")])
    capsys.readouterr()
    assert code == 0


# --------------------------------------------------------------------------
# the certificates: interior-point method and mirror descent
# --------------------------------------------------------------------------

SCALES = (1e-3, 1e-1, 1.0, 1e2, 1e4)


@st.composite
def degenerate_samples(draw, size):
    """Rows that are multiples of one to three generators, so repeated and
    collinear rows (rank-deficient pencils) are common, with per-coordinate
    scales from 1e-3 to 1e4."""
    dim = draw(st.integers(1, 4))
    n_gen = draw(st.integers(1, 3))
    gens = np.array(
        draw(st.lists(st.integers(-3, 3), min_size=n_gen * dim, max_size=n_gen * dim)),
        dtype=float,
    ).reshape(n_gen, dim)
    gens[np.all(gens == 0, axis=1)] = 1.0
    scales = np.array(draw(st.lists(st.sampled_from(SCALES), min_size=dim, max_size=dim)))

    def rows(k):
        picks = draw(st.lists(st.integers(0, n_gen - 1), min_size=k, max_size=k))
        mults = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]), min_size=k, max_size=k))
        return np.array(mults)[:, None] * gens[picks] * scales

    q_size = size if size is not None else draw(st.integers(1, 6))
    xq, xp = rows(q_size), rows(draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = from_points(xq)
    p = from_points(xp, rng.dirichlet(np.ones(len(xp))))
    return q, p, rng


def l2_route(q, p, route, cfg):
    """The pencil and the result of one squared-loss route."""
    if route == "linear":
        return l2_linear_family(q, p), minimize_l2_linear(q, p, cfg)
    gram = gram_matrix(joint_points(q, p), GaussianKernel(gamma=0.5)).data
    return l2_kernel_family(q, p, gram), minimize_l2_kernel(q, p, gram, cfg)


def ipm_scale(family):
    """The interior-point method's normalization, max(||B||_F, max_k |f_k|^2):
    its ``tol`` bounds the certified gap of the objective divided by this."""
    largest = max(np.linalg.norm(family.base.data), np.max(np.sum(family.factor**2, axis=1)))
    return largest if largest > 0.0 else 1.0


def rounding_slack(family, achieved):
    """1e-9 relative to the result, plus rounding: 4 * specmax is computed from
    entries as large as 4 * (|B| + max_k |f_k|^2), and carries an absolute error
    of a few ulps of that even where the optimum is far smaller (for instance
    q = {2x, x} and p = {x} at |x| = 1e4: optimum 0, entries 4e8)."""
    entries = np.linalg.norm(family.base.data, 2) + np.max(np.sum(family.factor**2, axis=1))
    return 1e-9 * max(1.0, achieved) + 1e-12 * 4.0 * entries


# Each route once by the interior-point method (eta0 unset) and once by
# mirror descent; the first two keep the ids these tests had before the
# interior-point method existed.
ROUTES_AND_STEPS = [
    pytest.param("linear", None, id="linear"),
    pytest.param("kernel", None, id="kernel"),
    pytest.param("linear", 1.0, id="linear-mirror"),
    pytest.param("kernel", 1.0, id="kernel-mirror"),
]


@pytest.mark.parametrize("route, eta0", ROUTES_AND_STEPS)
@settings(max_examples=60, deadline=None)
@given(case=degenerate_samples(None))
def test_lower_bound_is_below_the_objective_everywhere(route, eta0, case):
    q, p, rng = case
    family, res = l2_route(q, p, route, SolverConfig(max_iters=200, eta0=eta0))
    objective = _family_objective(family)
    slack = rounding_slack(family, res.achieved_disc)
    points = list(np.eye(q.size)) + list(rng.dirichlet(np.ones(q.size), size=8))
    for z in points:
        assert res.lower_bound <= 4.0 * objective(z) + slack
    assert res.lower_bound <= res.achieved_disc
    assert res.achieved_disc == pytest.approx(4.0 * objective(res.weights.entries), abs=slack)


@pytest.mark.parametrize("route, eta0", ROUTES_AND_STEPS)
@settings(max_examples=40, deadline=None)
@given(case=degenerate_samples(1))
def test_one_point_source_is_certified_at_once(route, eta0, case):
    q, p, _ = case
    family, res = l2_route(q, p, route, SolverConfig(max_iters=200, eta0=eta0))
    assert len(res.trace) == 1 and res.iterations == 1
    assert res.converged and not res.warnings and res.stop_reason == "gap"
    assert res.lower_bound == pytest.approx(
        res.achieved_disc, abs=rounding_slack(family, res.achieved_disc)
    )


@pytest.mark.parametrize("route", ["linear", "kernel"])
@settings(max_examples=100, deadline=None)
@given(case=degenerate_samples(None))
def test_interior_point_certifies_degenerate_pencils(route, case):
    # Collinear and repeated rows at mixed scales, down to a tolerance near
    # rounding: the solver never raises, its bound holds everywhere, a "gap"
    # stop is a true certificate, and its value is never worse than long
    # mirror descent's beyond the tolerance.
    q, p, rng = case
    family, mirror = l2_route(q, p, route, SolverConfig(max_iters=2000, eta0=1.0))
    objective = _family_objective(family)
    points = list(np.eye(q.size)) + list(rng.dirichlet(np.ones(q.size), size=8))
    scale = ipm_scale(family)
    for tol in (1e-6, 1e-9, 1e-12):
        _, res = l2_route(q, p, route, SolverConfig(tol=tol))
        slack = rounding_slack(family, max(res.achieved_disc, mirror.achieved_disc))
        assert res.stop_reason in ("gap", "stall")
        assert res.converged == (res.stop_reason == "gap")
        for z in points:
            assert res.lower_bound <= 4.0 * objective(z) + slack
        if res.stop_reason == "gap":
            assert res.achieved_disc - res.lower_bound <= 4.0 * scale * tol + slack
        assert res.achieved_disc <= mirror.achieved_disc + 4.0 * scale * tol + slack


def kernel_bench_pair():
    """8 source and 16 target points in 2-d with their Gaussian gram: the
    inputs of the kernel-minimize benchmark's first quality round."""
    rng = np.random.default_rng([0x0D15C, 0])
    q = from_points(rng.normal(-0.5, 1.0, (8, 2)))
    p = from_points(rng.normal(0.5, 1.0, (16, 2)))
    return q, p, gram_matrix(joint_points(q, p), GaussianKernel(gamma=0.5)).data


def test_certified_gap_on_a_gaussian_kernel_pair():
    # The interior-point method certifies the optimum to its tolerance well
    # within the 200 iterations mirror descent is given below.
    q, p, gram = kernel_bench_pair()
    res = minimize_l2_kernel(q, p, gram, SolverConfig(max_iters=200))
    assert res.converged and res.stop_reason == "gap" and not res.warnings
    assert res.iterations == len(res.trace) < 200
    scale = ipm_scale(l2_kernel_family(q, p, gram))
    assert 0.0 <= res.achieved_disc - res.lower_bound <= 4.0 * scale * SolverConfig().tol
    # Iterates do not improve monotonically: the third is the worst so far,
    # and a capped solve returns the best one, not the last.
    capped = minimize_l2_kernel(q, p, gram, SolverConfig(max_iters=3))
    assert capped.trace[-1] > min(capped.trace)
    assert capped.achieved_disc == pytest.approx(min(capped.trace), rel=1e-12)


def test_certified_gap_on_a_gaussian_kernel_pair_by_mirror_descent():
    # Bounding along fixed directions (the eigenvectors of B and of the pencil
    # at the returned weights) leaves a gap of 0.212 here; the running-mean
    # certificate leaves 0.022.
    q, p, gram = kernel_bench_pair()
    res = minimize_l2_kernel(q, p, gram, SolverConfig(max_iters=200, eta0=1.0))
    assert len(res.trace) == 200 and not res.converged and res.stop_reason == "cap"
    assert 0.0 <= res.achieved_disc - res.lower_bound <= 0.05


def test_certified_gap_keeps_the_iterate_bound():
    # On this instance a single step's matrix U_t certifies far more than the
    # running mean (gap about 2e-5 against 8e-3), so the bound keeps both.
    rng = np.random.default_rng(17)
    q = from_points(rng.normal(size=(3, 2)))
    p = from_points(rng.normal(size=(4, 2)))
    res = minimize_l2_linear(q, p, SolverConfig(eta0=1.0))
    assert 0.0 <= res.achieved_disc - res.lower_bound <= 1e-4


def test_closed_gap_stops_the_solver():
    # Colocated target: the optimum is 0 at the target's weights, and the
    # certified gap closes long before the iteration budget.
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = from_points(pts)
    p = from_points(pts, [0.7, 0.3])
    res = minimize_l2_linear(q, p)
    assert res.converged and not res.warnings
    assert len(res.trace) < 500
    scale = np.linalg.norm(l2_linear_family(q, p).base.data)
    assert 0.0 <= res.achieved_disc - res.lower_bound <= 4.0 * scale * SolverConfig().tol


@pytest.mark.parametrize("routine", ["cholesky", "eigvalsh"])
def test_failed_linear_algebra_returns_the_best_iterate(monkeypatch, routine):
    # A factorization that fails, of the cones or of a step, stops the
    # interior-point method with the best iterate so far (here the uniform
    # start) and a valid bound.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    q, p = seed7_instance()
    monkeypatch.setattr(np.linalg, routine, fail)
    res = minimize_l2_linear(q, p)
    assert (res.stop_reason, res.iterations, res.converged) == ("stall", 1, False)
    assert any("stalled" in w for w in res.warnings)
    assert res.weights.entries == pytest.approx(np.full(3, 1 / 3))
    assert res.achieved_disc == pytest.approx(disc_l2_linear(q, p).value, rel=1e-12)
    assert 0.0 <= res.lower_bound <= res.achieved_disc


def test_interior_point_certifies_when_the_factors_dwarf_the_base():
    # Source points at scale 1e4 and target points near 1e-3: normalizing by
    # ||B||_F alone would put the objective near 1e14 and leave the gap open.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q = from_points(rng.normal(0.0, 1e4, (4, 3)))
        p = from_points(rng.normal(0.0, 1e-3, (5, 3)))
        res = minimize_l2_linear(q, p)
        scale = ipm_scale(l2_linear_family(q, p))
        assert res.converged and res.stop_reason == "gap"
        assert 0.0 <= res.achieved_disc - res.lower_bound <= 4.0 * scale * SolverConfig().tol
