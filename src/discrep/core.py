"""Shared domain types: weighted empirical distributions, labeled samples,
hypothesis-class descriptors, loss specifications, and simplex weight vectors.

Conventions used throughout the package:

* points are row vectors in a float array of shape (k, dim); 1-d inputs are
  promoted to shape (k, 1),
* weights are probability vectors (entries >= 0, sum within 1e-12 of 1),
* classification labels live in {0, 1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

WEIGHT_TOL = 1e-12


def as_point_array(points) -> np.ndarray:
    """Coerce input to a read-only (k, dim) float array, rejecting non-finite rows."""
    pts = np.array(points, dtype=float)
    if pts.ndim == 0:
        raise ValueError("points must be a sequence of vectors")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be at most 2-dimensional, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN or inf)")
    pts.setflags(write=False)
    return pts


def point_key(vec) -> tuple:
    """Hashable exact-equality key for a support point."""
    return tuple(float(c) for c in np.atleast_1d(vec))


def _unique_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by the identity rule of :class:`WeightedEmpirical`.

    Returns ``(first, inverse)``: the ascending rows where each distinct point
    first occurs, and for every row the position of its point in ``first``.
    """
    # adding 0.0 turns -0.0 into 0.0, so equal points have equal bytes; rows
    # without coordinates get one zero coordinate and are all one point
    rows = np.zeros((points.shape[0], max(points.shape[1], 1)))
    np.add(points, 0.0, out=rows[:, : points.shape[1]])
    row_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    # numpy sorts one float column faster than bytes; either order groups equal rows
    order = np.argsort(rows[:, 0] if rows.shape[1] == 1 else row_bytes, kind="stable")
    ranked = row_bytes[order]
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    head = np.empty_like(order)  # each row's first occurrence: the sort is stable
    head[order] = order[starts][np.cumsum(starts) - 1]
    is_first = head == np.arange(head.size)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[head]


@dataclass(frozen=True)
class WeightedEmpirical:
    """A finitely supported probability distribution: distinct points plus weights.

    Two points are the same point when every coordinate is exactly equal, with
    0.0 == -0.0. Construct through :func:`merge_duplicates` (or ``from_points``)
    when the raw input may contain repeated points or unnormalized weights;
    the constructor itself only validates.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = as_point_array(self.points)
        wts = np.array(self.weights, dtype=float)
        if wts.ndim != 1 or wts.shape[0] != pts.shape[0]:
            raise ValueError("weights must align one-to-one with points")
        if not np.isfinite(wts).all():
            raise ValueError("weights must be finite")
        if (wts < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(float(wts.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}, got {wts.sum()!r}")
        if pts.shape[0] == 0:
            raise ValueError("empty support")
        if _unique_rows(pts)[0].size != pts.shape[0]:
            raise ValueError("support points must be pairwise distinct; merge duplicates first")
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @cached_property
    def _mass(self) -> dict:
        # tuple(row.tolist()) is point_key(row), built without a per-row numpy call
        return dict(zip(map(tuple, self.points.tolist()), self.weights.tolist()))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def keys(self) -> list[tuple]:
        return list(self._mass)

    def mass(self, key: tuple) -> float:
        """Probability of a single support point (0.0 off-support)."""
        return self._mass.get(key, 0.0)

    def mass_of_keys(self, keys) -> float:
        return float(sum(self._mass.get(k, 0.0) for k in keys))

    @classmethod
    def from_points(cls, points, weights=None) -> "WeightedEmpirical":
        """Build from raw points; duplicates merged, uniform weights when omitted."""
        pts = as_point_array(points)
        if weights is None:
            weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return merge_duplicates(pts, weights)


def merge_duplicates(points, weights) -> WeightedEmpirical:
    """Merge repeated points by summing their weights, then renormalize.

    Rows that are the same point (see :class:`WeightedEmpirical`) merge into
    one. Keeps first-occurrence order, and the first occurrence's row, with
    its sign of zero, represents the point. Raises on empty input, negative
    weights, or an all-zero weight vector.
    """
    pts = as_point_array(points)
    wts = np.asarray(weights, dtype=float)
    if pts.shape[0] == 0 or wts.size == 0:
        raise ValueError("empty support")
    if wts.ndim != 1 or wts.shape[0] != pts.shape[0]:
        raise ValueError("weights must align one-to-one with points")
    if not np.isfinite(wts).all():
        raise ValueError("weights must be finite")
    if (wts < 0).any():
        raise ValueError("weights must be nonnegative")
    total = float(wts.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; a distribution needs positive total mass")
    first, inverse = _unique_rows(pts)
    # a running sum per point in row order; np.sum's pairwise order rounds differently
    merged = np.bincount(inverse, weights=wts, minlength=first.size)
    return WeightedEmpirical(pts[first], merged / total)


@dataclass(frozen=True)
class LabeledSample:
    """Points paired with real labels; repeats allowed (a sample is a multiset)."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = as_point_array(self.points)
        lbl = np.array(self.labels, dtype=float)
        if lbl.ndim != 1 or lbl.shape[0] != pts.shape[0]:
            raise ValueError("labels must align one-to-one with points")
        if not np.isfinite(lbl).all():
            raise ValueError("labels must be finite")
        lbl.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lbl)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def require_binary_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("classification labels must lie in {0, 1}")
    return labels


# --------------------------------------------------------------------------
# hypothesis-class descriptors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Threshold1D:
    """Half-line indicator functions on the real line ({0,1}-valued)."""


@dataclass(frozen=True)
class LinearBounded:
    """Homogeneous linear functions with Euclidean norm bound 1."""

    dim: int

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class KernelBounded:
    """Functions with RKHS norm bound 1, described by a gram matrix over the sample.

    The gram must be symmetric with eigenvalues >= -1e-9 (tiny negatives are
    treated as 0 by downstream square-root machinery).
    """

    gram: np.ndarray

    def __post_init__(self):
        from . import linalg  # local import; linalg has no core dependency

        g = linalg.SymMatrix(self.gram)
        if np.linalg.eigvalsh(g.data).min() < -1e-9:
            raise ValueError("gram matrix is not positive semidefinite")
        object.__setattr__(self, "gram", g.data)


HypothesisSpec = Union[Threshold1D, LinearBounded, KernelBounded]


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """A bounded loss: zero-one, |a-b|^q, or the square loss (q = 2).

    ``bound`` is the promised ceiling M on attained loss values; zero-one
    forces bound = 1.
    """

    kind: str
    bound: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero_one", "lq", "square"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "zero_one" and self.bound != 1.0:
            raise ValueError("zero-one loss has bound 1 by definition")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError("bound must be a positive finite real")
        if self.kind == "square" and self.q != 2.0:
            raise ValueError("square loss has exponent 2 by definition")
        if self.kind == "lq" and not (math.isfinite(self.q) and self.q >= 1.0):
            raise ValueError("exponent q must satisfy q >= 1")

    @classmethod
    def zero_one(cls) -> "LossSpec":
        return cls("zero_one", 1.0, 1.0)

    @classmethod
    def lq(cls, q: float, bound: float) -> "LossSpec":
        return cls("lq", bound, q)

    @classmethod
    def square(cls, bound: float) -> "LossSpec":
        return cls("square", bound, 2.0)

    def pointwise(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "zero_one":
            return (a != b).astype(float)
        return np.abs(a - b) ** self.q

    def sigma_admissibility(self) -> float:
        """Lipschitz factor relating loss differences to prediction differences:
        q * (2M)^(q-1) for the |a-b|^q family (4M for the square loss)."""
        if self.kind == "zero_one":
            raise ValueError("zero-one loss is not sigma-admissible")
        return float(self.q * (2.0 * self.bound) ** (self.q - 1.0))


def hinge_sigma_admissibility() -> float:
    """Lipschitz factor of the hinge loss (exposed for reference; no hinge training here)."""
    return 1.0


def empirical_loss(loss: LossSpec, dist: WeightedEmpirical, f_values, g_values) -> float:
    """Weighted average loss sum_i w_i * L(f_i, g_i) over the support of ``dist``."""
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if f.shape != (dist.size,) or g.shape != (dist.size,):
        raise ValueError("value arrays must align with the distribution support")
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise ValueError("loss arguments must be finite")
    return float(np.dot(dist.weights, loss.pointwise(f, g)))


# --------------------------------------------------------------------------
# simplex weight vectors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexVector:
    """Probability weights: entries >= 0 summing to 1 within 1e-12."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise ValueError("entries must be a nonempty vector")
        if not np.isfinite(e).all():
            raise ValueError("entries must be finite")
        if (e < 0).any():
            raise ValueError("entries must be nonnegative")
        if abs(float(e.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"entries must sum to 1 within {WEIGHT_TOL}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    def __len__(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def uniform(cls, k: int) -> "SimplexVector":
        if k < 1:
            raise ValueError("need at least one entry")
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def normalized(cls, raw) -> "SimplexVector":
        """Clip tiny negative noise (>= -1e-9) to zero and rescale to total 1."""
        r = np.asarray(raw, dtype=float)
        if (r < -1e-9).any():
            raise ValueError("entries are too negative to renormalize")
        r = np.clip(r, 0.0, None)
        total = float(r.sum())
        if total <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(r / total)
