"""Tests for the synthetic benchmark generators."""
import numpy as np
import pytest

from discrep import datagen


def rng(seed):
    return np.random.default_rng(seed)


def pair_1d(seed, m, n):
    """Source then target from one stream, as a trial of ``run_experiment_1`` draws them."""
    r = rng(seed)
    return datagen.draw_source_1d(r, m), datagen.draw_target_1d(r, n)


def pair_regression(seed, m, n, dim):
    r = rng(seed)
    return datagen.draw_source_regression(r, m, dim), datagen.draw_target_regression(r, n, dim)


def test_gen_1d_is_deterministic():
    a_src, a_tgt = pair_1d(11, 40, 60)
    b_src, b_tgt = pair_1d(11, 40, 60)
    assert np.array_equal(a_src.points, b_src.points)
    assert np.array_equal(a_src.labels, b_src.labels)
    assert np.array_equal(a_tgt, b_tgt)
    c_src, _ = pair_1d(12, 40, 60)
    assert not np.array_equal(a_src.points, c_src.points)


def test_gen_1d_clt_band():
    src, tgt = pair_1d(0, 10000, 10000)
    band = 3.0 * 2.0 / np.sqrt(10000)
    assert abs(src.points.mean() - (-1.0)) < band
    assert abs(np.mean(tgt) - 1.0) < band


def test_interval_labels():
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 1.5])
    assert datagen.interval_labels(xs).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]
    src = datagen.draw_source_1d(rng(5), 200)
    assert np.array_equal(src.labels, datagen.interval_labels(src.points))
    test = datagen.draw_labeled_target_1d(rng(5), 200)
    assert np.array_equal(test.labels, datagen.interval_labels(test.points))


def test_gen_1d_count_validation():
    with pytest.raises(ValueError, match="m must be"):
        datagen.draw_source_1d(rng(0), 0)
    with pytest.raises(ValueError, match="n must be"):
        datagen.draw_target_1d(rng(0), 0)


def test_tent_values():
    assert datagen.tent_values([[0.0, 0.0]])[0] == pytest.approx(2.0)
    r = np.sqrt(2.0)
    assert datagen.tent_values([[r, r]])[0] == pytest.approx(2.0 * (1.0 - r))
    assert datagen.tent_values([[0.5, -0.5, 2.0]])[0] == pytest.approx(0.5 + 0.5 - 1.0)


def test_gen_regression_shapes_and_determinism():
    src, tgt = pair_regression(3, 30, 50, 2)
    assert src.points.shape == (30, 2)
    assert tgt.shape == (50, 2)
    assert np.array_equal(src.labels, datagen.tent_values(src.points))
    again, _ = pair_regression(3, 30, 50, 2)
    assert np.array_equal(src.points, again.points)
    test = datagen.draw_labeled_target_regression(rng(3), 50, 2)
    assert np.array_equal(test.labels, datagen.tent_values(test.points))


def test_gen_regression_16d_supported():
    src, tgt = pair_regression(4, 20, 20, 16)
    assert src.points.shape == (20, 16)
    assert tgt.shape == (20, 16)


def test_gen_regression_rejects_other_dims():
    with pytest.raises(ValueError, match="dim must be one of"):
        datagen.draw_source_regression(rng(0), 10, 3)
    with pytest.raises(ValueError, match="dim must be one of"):
        datagen.draw_target_regression(rng(0), 10, 3)


def test_gen_regression_cloud_centers():
    src, tgt = pair_regression(1, 20000, 20000, 2)
    band = 3.0 * np.sqrt(2.0) / np.sqrt(20000)
    for j in range(2):
        assert abs(src.points[:, j].mean() - datagen.reg_center(2)) < band
        assert abs(tgt[:, j].mean() + datagen.reg_center(2)) < band
