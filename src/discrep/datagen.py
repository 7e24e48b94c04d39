"""Synthetic shifted-Gaussian benchmarks.

Two generator families:

* a 1-d classification pair: source N(-1, 2^2) and target N(+1, 2^2), labels
  given by the indicator of the unit interval [-1, 1],
* an N-d regression pair (N in {2, 16}): mirrored Gaussian clouds centered at
  +c(N)*(1,...,1) for the source and -c(N)*(1,...,1) for the target with
  c(N) = 2/sqrt(N), covariance 2I, labels given by the tent function
  sum_i (1 - |x_i|). The scaling keeps the inter-center Mahalanobis distance
  at 2*sqrt(2) for every N, so the 16-d clouds overlap exactly as much as the
  2-d ones do (c(2) = sqrt(2) is the plain 2-d setup).

All draws go through numpy's default_rng so runs are reproducible bit-for-bit
from a seed.
"""
from __future__ import annotations

import math

import numpy as np

from .core import LabeledSample

SOURCE_CENTER_1D = -1.0
TARGET_CENTER_1D = 1.0
STD_1D = 2.0

REG_DIMS = (2, 16)
REG_STD = math.sqrt(2.0)


def reg_center(dim) -> float:
    """Per-coordinate center magnitude 2/sqrt(N) of the mirrored clouds."""
    return 2.0 / math.sqrt(_check_dim(dim))


def interval_labels(points) -> np.ndarray:
    """1 inside [-1, 1], 0 outside, applied elementwise to 1-d points."""
    xs = np.asarray(points, dtype=float).reshape(-1)
    return (np.abs(xs) <= 1.0).astype(float)


def tent_values(points) -> np.ndarray:
    """Row-wise value of the tent target sum_i (1 - |x_i|)."""
    xs = np.asarray(points, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    return np.sum(1.0 - np.abs(xs), axis=1)


def _count(name: str, value) -> int:
    count = int(value)
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    return count


def draw_source_1d(rng: np.random.Generator, m) -> LabeledSample:
    xs = rng.normal(SOURCE_CENTER_1D, STD_1D, size=_count("m", m))
    return LabeledSample(xs, interval_labels(xs))


def draw_target_1d(rng: np.random.Generator, n) -> np.ndarray:
    return rng.normal(TARGET_CENTER_1D, STD_1D, size=_count("n", n))


def draw_labeled_target_1d(rng: np.random.Generator, n) -> LabeledSample:
    xs = draw_target_1d(rng, n)
    return LabeledSample(xs, interval_labels(xs))


def _check_dim(dim) -> int:
    dim = int(dim)
    if dim not in REG_DIMS:
        raise ValueError(f"dim must be one of {REG_DIMS}, got {dim}")
    return dim


def draw_source_regression(rng: np.random.Generator, m, dim) -> LabeledSample:
    dim = _check_dim(dim)
    xs = rng.normal(reg_center(dim), REG_STD, size=(_count("m", m), dim))
    return LabeledSample(xs, tent_values(xs))


def draw_target_regression(rng: np.random.Generator, n, dim) -> np.ndarray:
    dim = _check_dim(dim)
    return rng.normal(-reg_center(dim), REG_STD, size=(_count("n", n), dim))


def draw_labeled_target_regression(rng: np.random.Generator, n, dim) -> LabeledSample:
    xs = draw_target_regression(rng, n, dim)
    return LabeledSample(xs, tent_values(xs))

