"""Exactness of the array-backed support layer against per-row loop oracles.

The oracles below are the row-by-row implementations, keying every point with
``point_key``, of ``merge_duplicates``, ``joint_support``, ``minimize_1d``,
``per_example_weights`` and ``canonical_regions_1d``, and the two-sort version
of the sorted 1-d support behind ``disc_01_threshold1d``. The properties
require exact equality: the same points (sign bits of zeros included),
weights, order, values and warnings. The 0-1 LP, which sums region masses in
another order, is held to its key-set oracle within 1e-12 and, on arbitrary
membership matrices, to scipy's HiGHS on the ungrouped program.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from discrep import core, distance
from discrep.core import SimplexVector, WeightedEmpirical, merge_duplicates, point_key
from discrep.distance import disc_01_threshold1d, joint_support
from discrep.experiments import per_example_weights
from discrep.reweight import LEFT_MASS_WARNING, canonical_regions_1d, minimize_01_lp, minimize_1d
from discrep.simplex_lp import solve_lp

# --------------------------------------------------------------------------
# loop oracles
# --------------------------------------------------------------------------


def loop_merge_duplicates(points, weights):
    """Points and normalized weights of the merged support, summed row by row."""
    pts = np.array(points, dtype=float)
    wts = np.asarray(weights, dtype=float)
    total = float(wts.sum())
    order: dict[tuple, int] = {}
    merged: list[float] = []
    rows: list[np.ndarray] = []
    for row, w in zip(pts, wts):
        k = point_key(row)
        if k in order:
            merged[order[k]] += float(w)
        else:
            order[k] = len(rows)
            rows.append(np.asarray(row, dtype=float))
            merged.append(float(w))
    return np.vstack(rows), np.asarray(merged, dtype=float) / total


def _masses(dist):
    return dict(zip((point_key(r) for r in dist.points), dist.weights.tolist()))


def loop_joint_support(q, p):
    if q.dim != p.dim:
        raise ValueError("dimension mismatch between distributions")
    q_mass, p_mass = _masses(q), _masses(p)
    rows = [np.asarray(r, dtype=float) for r in q.points]
    keys = list(q_mass)
    seen = set(keys)
    for r in p.points:
        k = point_key(r)
        if k not in seen:
            seen.add(k)
            keys.append(k)
            rows.append(np.asarray(r, dtype=float))
    qm = np.array([q_mass.get(k, 0.0) for k in keys])
    pm = np.array([p_mass.get(k, 0.0) for k in keys])
    return np.vstack(rows), qm, pm


def argsort_sorted_support_1d(q, p):
    """The joint support argsorted by value: a second sort after the grouping one."""
    if q.dim != 1 or p.dim != 1:
        raise ValueError("threshold-class distances need 1-d supports")
    pts, qm, pm = distance.joint_support(q, p)
    xs = pts[:, 0]
    order = np.argsort(xs, kind="stable")
    return xs[order], qm[order], pm[order]


def loop_minimize_1d(q, p):
    """(weights, achieved_disc, lower_bound, warnings) by one search per target point.

    The achieved value is measured on ``argsort_sorted_support_1d`` over
    ``loop_joint_support`` in place of the array-backed support, so no part of
    the result goes through the new layer.
    """
    xs_q = np.array([r[0] for r in q.points])
    order = np.argsort(xs_q, kind="stable")
    s = xs_q[order]
    m0 = s.shape[0]
    gaps = np.zeros(m0)
    left_mass = 0.0
    interior_open = np.zeros(max(m0 - 1, 0))
    right_open = 0.0
    for row, w in zip(p.points, p.weights):
        x = float(row[0])
        idx = int(np.searchsorted(s, x, side="right")) - 1
        if idx < 0:
            left_mass += w
            gaps[0] += w
            continue
        gaps[idx] += w
        if x > s[idx]:
            if idx == m0 - 1:
                right_open += w
            else:
                interior_open[idx] += w
    scattered = np.zeros(m0)
    scattered[order] = gaps
    weights = SimplexVector.normalized(scattered)
    with mock.patch.object(distance, "joint_support", loop_joint_support), mock.patch.object(
        distance, "_sorted_support_1d", argsort_sorted_support_1d
    ):
        achieved = disc_01_threshold1d(WeightedEmpirical(q.points, weights.entries), p).value
    interior_best = float(interior_open.max()) if interior_open.size else 0.0
    lower = max(interior_best, left_mass + right_open)
    warned = (LEFT_MASS_WARNING,) if left_mass > 0 else ()
    return weights.entries, float(achieved), float(lower), warned


def loop_per_example_weights(points, support_weights, support):
    pts = np.array(points, dtype=float)
    keys = [point_key(row) for row in pts]
    counts = {k: keys.count(k) for k in keys}
    index = {key: i for i, key in enumerate(point_key(r) for r in support.points)}
    if set(keys) != set(index):
        raise ValueError("support does not match the sample points")
    raw = np.array([support_weights.entries[index[k]] / counts[k] for k in keys])
    return SimplexVector.normalized(raw).entries


def loop_canonical_regions_1d(q, p):
    pts, _, _ = loop_joint_support(q, p)
    keys = [point_key(pts[i]) for i in np.argsort(pts[:, 0], kind="stable")]
    all_keys = frozenset(keys)
    regions = [frozenset(keys[i : j + 1]) for i in range(len(keys)) for j in range(i, len(keys))]
    regions += [all_keys - run for run in regions]
    return tuple(r for r in dict.fromkeys(regions) if r)


def loop_minimize_01_lp(q, p, regions):
    """(objective, lower bound, LP rows) of the LP over key-set regions, built
    region by region: one dict entry per distinct q-indicator keeps its mass
    range, and equal rows are dropped."""
    q_keys = q.keys()
    m0 = len(q_keys)
    mass_range: dict[tuple, list[float]] = {}
    lower = 0.0
    for region in regions:
        ind = tuple(1.0 if key in region else 0.0 for key in q_keys)
        mass = p.mass_of_keys(region)
        span = mass_range.setdefault(ind, [mass, mass])
        span[0] = min(span[0], mass)
        span[1] = max(span[1], mass)
        if not any(ind):
            lower = max(lower, mass)
    rows: list[tuple] = []
    for ind, (low_mass, high_mass) in mass_range.items():
        rows.append((ind + (-1.0,), low_mass))
        rows.append((tuple(-v for v in ind) + (-1.0,), -high_mass))
    rows.append(((1.0,) * m0 + (0.0,), 1.0))
    rows.append(((-1.0,) * m0 + (0.0,), -1.0))
    unique = list(dict.fromkeys(rows))
    c = np.zeros(m0 + 1)
    c[-1] = 1.0
    res = solve_lp(c, np.array([r[0] for r in unique]), np.array([r[1] for r in unique]))
    return float(res.objective), float(lower), len(unique)


# --------------------------------------------------------------------------
# inputs: few distinct coordinate values per example, so rows repeat, tie,
# mix 0.0 with -0.0 and differ in a single coordinate; scales 1e-300..1e300
# --------------------------------------------------------------------------

COORDS = (
    st.sampled_from([0.0, -0.0])
    | st.builds(lambda k, e: k * 10.0**e, st.integers(-3, 3), st.integers(-300, 300))
    | st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True)
)
WEIGHTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0]) | st.floats(min_value=0.0, max_value=1e6)


@st.composite
def point_rows(draw, dim, max_rows=12):
    alphabet = draw(st.lists(COORDS, min_size=1, max_size=4))
    n = draw(st.integers(1, max_rows))
    flat = draw(st.lists(st.sampled_from(alphabet), min_size=n * dim, max_size=n * dim))
    return np.array(flat, dtype=float).reshape(n, dim)


@st.composite
def raw_samples(draw, dims=st.integers(0, 3)):
    """Points with repeats, and weights of positive total."""
    pts = draw(point_rows(draw(dims)))
    wts = np.array(draw(st.lists(WEIGHTS, min_size=len(pts), max_size=len(pts))))
    assume(wts.sum() > 0)
    return pts, wts


@st.composite
def distribution_pairs(draw, dims=st.integers(1, 3)):
    """Two merged distributions that share a coordinate alphabet, so points coincide."""
    dim = draw(dims)
    alphabet = draw(st.lists(COORDS, min_size=1, max_size=4))
    out = []
    for _ in range(2):
        n = draw(st.integers(1, 10))
        flat = draw(st.lists(st.sampled_from(alphabet), min_size=n * dim, max_size=n * dim))
        wts = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
        assume(wts.sum() > 0)
        out.append(merge_duplicates(np.array(flat, dtype=float).reshape(n, dim), wts))
    return tuple(out)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(raw_samples())
def test_merge_duplicates_matches_loop_bitwise(sample):
    pts, wts = sample
    got = merge_duplicates(pts, wts)
    want_points, want_weights = loop_merge_duplicates(pts, wts)
    assert_same_bits(got.points, want_points)
    assert_same_bits(got.weights, want_weights)
    assert got.keys() == [point_key(r) for r in want_points]


@settings(max_examples=300, deadline=None)
@given(raw_samples())
def test_constructor_distinctness_matches_point_keys(sample):
    pts, _ = sample
    distinct = len({point_key(r) for r in pts}) == len(pts)
    weights = np.full(len(pts), 1.0 / len(pts))
    if distinct:
        assert WeightedEmpirical(pts, weights).size == len(pts)
    else:
        with pytest.raises(ValueError, match="distinct"):
            WeightedEmpirical(pts, weights)


@settings(max_examples=300, deadline=None)
@given(distribution_pairs())
def test_joint_support_matches_loop_bitwise(pair):
    q, p = pair
    got = joint_support(q, p)
    want = loop_joint_support(q, p)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@settings(max_examples=300, deadline=None)
@given(distribution_pairs(dims=st.just(1)))
def test_minimize_1d_matches_loop_bitwise(pair):
    q, p = pair
    got = minimize_1d(q, p)
    weights, achieved, lower, warned = loop_minimize_1d(q, p)
    assert_same_bits(got.weights.entries, weights)
    assert_same_bits(np.float64(got.achieved_disc), np.float64(achieved))
    assert_same_bits(np.float64(got.lower_bound), np.float64(lower))
    assert got.warnings == warned


@settings(max_examples=200, deadline=None)
@given(distribution_pairs(dims=st.just(1)))
def test_canonical_regions_match_loop_exactly(pair):
    q, p = pair
    pts, _, _ = joint_support(q, p)
    regions = canonical_regions_1d(q, p)
    assert regions.dtype == bool and regions.shape[1] == len(pts)
    # repr shows the region order and the signs of zeros
    got = [repr(sorted((point_key(pts[c]) for c in np.flatnonzero(row)), key=repr))
           for row in regions]
    want = [repr(sorted(r, key=repr)) for r in loop_canonical_regions_1d(q, p)]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(distribution_pairs(dims=st.just(1)))
def test_minimize_01_lp_matches_key_set_oracle(pair):
    q, p = pair
    with mock.patch("discrep.reweight.solve_lp", wraps=solve_lp) as solved:
        got = minimize_01_lp(q, p, canonical_regions_1d(q, p))
    objective, lower, n_rows = loop_minimize_01_lp(q, p, loop_canonical_regions_1d(q, p))
    assert solved.call_args.args[1].shape[0] == n_rows
    assert abs(got.achieved_disc - objective) <= 1e-12
    assert abs(got.lower_bound - lower) <= 1e-12


@st.composite
def membership_problems(draw):
    """A pair of distributions in 1 to 3 dimensions and any boolean
    membership matrix over their joint support."""
    q, p = draw(distribution_pairs())
    k = joint_support(q, p)[0].shape[0]
    n = draw(st.integers(1, 12))
    flat = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    return q, p, np.array(flat, dtype=bool).reshape(n, k)


@settings(max_examples=200, deadline=None)
@given(membership_problems())
def test_minimize_01_lp_matches_highs_on_any_membership(problem):
    q, p, member = problem
    got = minimize_01_lp(q, p, member)
    # the ungrouped program: min t s.t. |ind z - mass| <= t, z on the simplex
    _, _, pm = joint_support(q, p)
    ind = member[:, : q.size].astype(float)
    mass = member.astype(float) @ pm
    gap = -np.ones((len(member), 1))
    want = linprog(
        np.r_[np.zeros(q.size), 1.0],
        A_ub=np.block([[ind, gap], [-ind, gap]]),
        b_ub=np.r_[mass, -mass],
        A_eq=np.r_[np.ones(q.size), 0.0][None, :],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
        # HiGHS's default feasibility tolerance, 1e-7, would hide masses below it
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert want.status == 0
    assert abs(got.achieved_disc - want.fun) <= 1e-9
    assert np.abs(ind @ got.weights.entries - mass).max() <= got.achieved_disc + 1e-9
    assert abs(got.lower_bound - mass[~ind.any(axis=1)].max(initial=0.0)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(raw_samples(dims=st.integers(1, 3)), st.data())
def test_per_example_weights_matches_loop_bitwise(sample, data):
    pts, _ = sample
    support = WeightedEmpirical.from_points(pts)
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=support.size, max_size=support.size))
    support_weights = SimplexVector.normalized(raw)
    # the same rows shuffled, with some dropped, so atoms may go missing
    keep = data.draw(st.permutations(range(len(pts))).map(list))
    keep = keep[: data.draw(st.integers(1, len(pts)))]
    sample_rows = pts[keep]
    if data.draw(st.booleans()):
        sample_rows = np.vstack([sample_rows, sample_rows[:1] * 2.0 + 1.0])
    try:
        want = loop_per_example_weights(sample_rows, support_weights, support)
    except ValueError:
        with pytest.raises(ValueError, match="does not match"):
            per_example_weights(sample_rows, support_weights, support)
        return
    got = per_example_weights(sample_rows, support_weights, support)
    assert_same_bits(got.entries, want)


# 37 support values with -0.0 in q and 0.0 in p: long enough that numpy's
# unstable sort puts p's zero first
_Q_LONG = [-1.25, -1.75, 2.25, -4.25, -0.0, -4.75, 0.75, 1.75, 0.25, -3.75, 1.0, -0.75, 3.75,
           -1.0, 2.75, 4.0]
_P_LONG = [-1.25, 1.25, 3.75, -2.5, 0.0, 2.0, 4.5, 3.0, -3.75, 3.5, 2.5, 5.0, 3.25, -4.25,
           -3.25, -2.0, -0.75, -5.0, 4.75, -4.0, -1.5]


@settings(max_examples=300, deadline=None)
@given(distribution_pairs(dims=st.just(1)))
@example((WeightedEmpirical.from_points(_Q_LONG), WeightedEmpirical.from_points(_P_LONG)))
def test_sorted_support_1d_matches_argsort_oracle_bitwise(pair):
    q, p = pair
    for got, want in zip(distance._sorted_support_1d(q, p), argsort_sorted_support_1d(q, p)):
        assert_same_bits(got, want)
    got = disc_01_threshold1d(q, p)
    with mock.patch.object(distance, "_sorted_support_1d", argsort_sorted_support_1d):
        want = disc_01_threshold1d(q, p)
    for g, w in [(got.value, want.value), (got.witness.lo, want.witness.lo),
                 (got.witness.hi, want.witness.hi)]:
        assert_same_bits(np.float64(g), np.float64(w))


@pytest.mark.parametrize(
    "points",
    [[[1.0], [2.0], [1.0]], [[0.0], [-0.0], [3.0]], [[1.0, -0.0], [2.0, 0.0], [1.0, 0.0]]],
)
def test_support_rows_are_grouped_once(points):
    """``merge_duplicates`` groups its rows once; ``minimize_1d`` never regroups."""
    weights = np.full(len(points), 1.0 / len(points))
    with mock.patch.object(core, "_unique_rows", wraps=core._unique_rows) as grouped:
        merged = merge_duplicates(points, weights)
    assert grouped.call_count == 1
    assert_same_bits(merged.points, loop_merge_duplicates(points, weights)[0])
    if merged.dim == 1:
        p = merge_duplicates([[0.5], [2.0], [-1.0]], [1.0, 1.0, 1.0])
        with mock.patch.object(core, "_unique_rows") as core_grouped, mock.patch.object(
            distance, "_unique_rows"
        ) as distance_grouped:
            minimize_1d(merged, p)
        assert core_grouped.call_count == distance_grouped.call_count == 0


def test_constructor_still_rejects_duplicate_rows():
    dist = merge_duplicates([[1.0, 2.0], [-0.0, 1.0], [3.0, 2.0]], [1.0, 1.0, 1.0])
    duplicated = [
        dist.points[[0, 1, 0]],
        np.array([[0.0, 1.0], [-0.0, 1.0], [3.0, 2.0]]),
        np.array([[0.0], [-0.0], [1.0]]),
    ]
    for points in duplicated:
        with pytest.raises(ValueError, match="distinct"):
            WeightedEmpirical(points, np.full(len(points), 1.0 / len(points)))
    # the internal path for grouped rows skips that check only
    with pytest.raises(ValueError, match="sum to 1"):
        WeightedEmpirical._of_distinct(dist.points, np.array([0.5, 0.5, 0.5]))


def test_oracles_on_a_worked_example():
    """Guards the oracles themselves: -0.0 merges with 0.0 and keeps its sign."""
    pts, wts = loop_merge_duplicates([[-0.0], [1.0], [0.0], [1.0]], [1.0, 1.0, 1.0, 1.0])
    assert np.signbit(pts[0, 0]) and pts[:, 0].tolist() == [0.0, 1.0]
    assert wts.tolist() == [0.5, 0.5]
    q = WeightedEmpirical(pts, wts)
    p = WeightedEmpirical(np.array([[-1.0], [2.0]]), np.array([0.5, 0.5]))
    weights, achieved, lower, warned = loop_minimize_1d(q, p)
    assert weights.tolist() == [0.5, 0.5]
    assert (achieved, lower, warned) == (1.0, 1.0, (LEFT_MASS_WARNING,))
