import numpy as np
import pytest

from discrep.core import (
    KernelBounded,
    LabeledSample,
    LinearBounded,
    SimplexVector,
    Threshold1D,
    WeightedEmpirical,
    merge_duplicates,
    require_binary_labels,
)


def test_merge_duplicates_sums_and_renormalizes():
    dist = merge_duplicates([[0.0], [0.0], [1.0]], [1.0, 1.0, 2.0])
    assert dist.size == 2
    assert dist.points[:, 0].tolist() == [0.0, 1.0]
    np.testing.assert_allclose(dist.weights, [0.5, 0.5])


def test_merge_duplicates_keeps_first_occurrence_order():
    dist = merge_duplicates([[2.0], [1.0], [2.0]], [0.25, 0.5, 0.25])
    assert dist.points[:, 0].tolist() == [2.0, 1.0]
    np.testing.assert_allclose(dist.weights, [0.5, 0.5])


def test_merge_duplicates_rejects_bad_input():
    with pytest.raises(ValueError, match="empty support"):
        merge_duplicates(np.empty((0, 1)), np.empty(0))
    with pytest.raises(ValueError):
        merge_duplicates([[0.0]], [-1.0])
    with pytest.raises(ValueError):
        merge_duplicates([[0.0], [1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        merge_duplicates([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        merge_duplicates([[np.inf]], [1.0])


def test_weighted_empirical_validates():
    with pytest.raises(ValueError, match="distinct"):
        WeightedEmpirical(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        WeightedEmpirical(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        WeightedEmpirical(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
    dist = WeightedEmpirical(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    assert dist.points[:, 0].tolist() == [0.0, 1.0]
    assert dist.weights.tolist() == [0.25, 0.75]
    with pytest.raises(Exception):
        dist.points[0, 0] = 5.0  # read-only storage


def test_from_points_uniform_default():
    dist = WeightedEmpirical.from_points([0.0, 1.0, 1.0])
    assert dist.dim == 1
    np.testing.assert_allclose(sorted(dist.weights), [1 / 3, 2 / 3])


def test_labeled_sample_validation():
    s = LabeledSample(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    assert s.size == 2 and s.dim == 1
    with pytest.raises(ValueError):
        LabeledSample(np.array([[0.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        LabeledSample(np.array([[0.0]]), np.array([np.nan]))
    with pytest.raises(ValueError):
        require_binary_labels(np.array([0.0, 0.5]))


def test_hypothesis_specs():
    assert Threshold1D() == Threshold1D()
    assert LinearBounded(3).dim == 3
    with pytest.raises(ValueError):
        LinearBounded(0)
    spec = KernelBounded(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert spec.gram.shape == (2, 2)
    with pytest.raises(ValueError):
        KernelBounded(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1


def test_simplex_vector():
    v = SimplexVector.uniform(4)
    np.testing.assert_allclose(v.entries, 0.25)
    w = SimplexVector.normalized([2.0, 2.0, -1e-12])
    np.testing.assert_allclose(w.entries, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        SimplexVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexVector(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        SimplexVector.normalized([-1.0, 2.0])
    with pytest.raises(ValueError):
        SimplexVector(np.array([np.nan, 1.0]))
