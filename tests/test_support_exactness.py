"""Exactness of the array-backed support layer against per-row loop oracles.

The oracles below are the row-by-row implementations, keying every point with
``point_key``, of ``merge_duplicates``, ``joint_support``, ``minimize_1d``,
``per_example_weights`` and ``canonical_regions_1d``. The properties require
exact equality: the same points (sign bits of zeros included), weights,
order, values and warnings.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discrep import distance
from discrep.core import SimplexVector, WeightedEmpirical, merge_duplicates, point_key
from discrep.distance import disc_01_threshold1d, joint_support
from discrep.experiments import per_example_weights
from discrep.reweight import LEFT_MASS_WARNING, canonical_regions_1d, minimize_1d

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


def loop_minimize_1d(q, p):
    """(weights, achieved_disc, lower_bound, warnings) by one search per target point.

    The achieved value is measured with ``loop_joint_support`` in place of the
    array-backed one, so no part of the result goes through the new layer.
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
    with mock.patch.object(distance, "joint_support", loop_joint_support):
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
    # repr shows the region order and the signs of zeros
    got = [repr(sorted(r, key=repr)) for r in canonical_regions_1d(q, p)]
    want = [repr(sorted(r, key=repr)) for r in loop_canonical_regions_1d(q, p)]
    assert got == want


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
