"""Distances between weighted empirical distributions, and Rademacher averages.

The discrepancy between two distributions, relative to a loss and a hypothesis
class, is the largest gap between the expected losses a pair of hypotheses can
exhibit under the two distributions. Each ``disc_*`` routine below computes it
for one (loss, class) combination and reports a witness of the maximizing
pair: a region on the real line for the 0-1 threshold class, a subset of the
joint support for the brute-force enumerator, or a direction vector for the
quadratic-loss classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    HypothesisSpec,
    KernelBounded,
    LinearBounded,
    Threshold1D,
    WeightedEmpirical,
    _unique_rows,
    point_key,
)
from .linalg import MatrixLike, SymMatrix, psd_sqrt, spectral_abs_max

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class IntervalWitness:
    """Half-open region (lo, hi] on the real line; lo/hi may be infinite."""

    lo: float
    hi: float


@dataclass(frozen=True)
class RegionWitness:
    """A subset of the joint support (as exact point tuples)."""

    points: tuple


@dataclass(frozen=True)
class DirectionWitness:
    """A direction of norm <= 2 witnessing a quadratic-form gap."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


Witness = Union[IntervalWitness, RegionWitness, DirectionWitness]


@dataclass(frozen=True)
class DiscrepancyResult:
    value: float
    witness: Witness


def joint_support(q: WeightedEmpirical, p: WeightedEmpirical):
    """Shared support of two distributions: q's points first, then p-only points.

    Returns ``(points, q_mass, p_mass)`` where the arrays align row-for-row.
    The q-first ordering is what the kernelized machinery expects: the first
    ``q.size`` coordinates are the reweightable ones.
    """
    if q.dim != p.dim:
        raise ValueError("dimension mismatch between distributions")
    both = np.vstack([q.points, p.points])
    first, inverse = _unique_rows(both)
    qm = np.zeros(first.size)
    qm[inverse[: q.size]] = q.weights
    pm = np.zeros(first.size)
    pm[inverse[q.size :]] = p.weights
    return both[first], qm, pm


def l1_distance(q: WeightedEmpirical, p: WeightedEmpirical) -> float:
    """Total mass difference sum_x |q(x) - p(x)| over the joint support; in [0, 2]."""
    _, qm, pm = joint_support(q, p)
    return float(np.abs(qm - pm).sum())


# --------------------------------------------------------------------------
# 0-1 loss, interval regions on the line
# --------------------------------------------------------------------------


def _sorted_support_1d(q: WeightedEmpirical, p: WeightedEmpirical):
    """The joint support in ascending order, with its q and p masses.

    Equal values (0.0 == -0.0) are one point, represented by its first
    occurrence with q's points first, as in :func:`joint_support`.
    """
    if q.dim != 1 or p.dim != 1:
        raise ValueError("threshold-class distances need 1-d supports")
    both = np.concatenate([q.points[:, 0], p.points[:, 0]])
    # one stable sort orders the support and groups equal values (the sort and
    # != both treat -0.0 as 0.0); a group's first row is its first occurrence
    order = np.argsort(both, kind="stable")
    ranked = both[order]
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    point = np.empty_like(order)
    point[order] = np.cumsum(starts) - 1
    qm = np.zeros(int(starts.sum()))
    qm[point[: q.size]] = q.weights
    pm = np.zeros(qm.size)
    pm[point[q.size :]] = p.weights
    return both[order[starts]], qm, pm


def disc_01_threshold1d(q: WeightedEmpirical, p: WeightedEmpirical) -> DiscrepancyResult:
    """0-1 discrepancy for 1-d threshold classifiers.

    The symmetric-difference regions of threshold pairs are the half-open
    intervals (and their complements, which give identical gaps), so the value
    is the largest |q(a) - p(a)| over intervals with endpoints at support
    points. Computed by a linear scan over prefix sums of the sorted mass
    difference; exactness is cross-checked against the power-set enumerator in
    the test suite.
    """
    xs, qm, pm = _sorted_support_1d(q, p)
    d = qm - pm
    pre = np.concatenate([[0.0], np.cumsum(d)])
    run_min = np.minimum.accumulate(pre)[:-1]
    run_max = np.maximum.accumulate(pre)[:-1]
    pos = pre[1:] - run_min
    neg = pre[1:] - run_max
    j_pos = int(np.argmax(pos))
    j_neg = int(np.argmin(neg))
    if pos[j_pos] >= -neg[j_neg]:
        value, j = float(pos[j_pos]), j_pos
        i = int(np.argmax(pre[: j + 1] == run_min[j]))
    else:
        value, j = float(-neg[j_neg]), j_neg
        i = int(np.argmax(pre[: j + 1] == run_max[j]))
    lo = float(xs[i - 1]) if i > 0 else NEG_INF
    hi = float(xs[j])
    return DiscrepancyResult(max(value, 0.0), IntervalWitness(lo, hi))


def _mask_bits(count: int, width: int) -> np.ndarray:
    masks = np.arange(count, dtype=np.int64)
    return ((masks[:, None] >> np.arange(width)[None, :]) & 1).astype(bool)


def disc_01_bruteforce(
    q: WeightedEmpirical,
    p: WeightedEmpirical,
    max_support: int = 16,
    hypothesis: Optional[HypothesisSpec] = None,
) -> DiscrepancyResult:
    """0-1 discrepancy by exhaustive region enumeration over the joint support.

    Every subset of the support is a candidate region. When ``hypothesis`` is
    the 1-d threshold class the candidates are filtered to interval traces and
    their complements (realizability is decidable there); for other classes
    the unfiltered power set is used, which upper-bounds any class-restricted
    value. Supports of more than ``max_support`` points are refused: the
    enumeration is exponential and anything larger is a combinatorial blowup.
    """
    pts, qm, pm = joint_support(q, p)
    p0 = pts.shape[0]
    if p0 > max_support:
        raise ValueError(
            f"joint support has {p0} points > max_support={max_support}: "
            "refusing combinatorial blowup"
        )
    d = qm - pm
    bits = _mask_bits(2**p0, p0)
    if hypothesis is not None and isinstance(hypothesis, Threshold1D):
        if q.dim != 1:
            raise ValueError("threshold-class filtering needs 1-d supports")
        order = np.argsort(pts[:, 0], kind="stable")
        sb = bits[:, order]

        def contiguous(b):
            count = b.sum(axis=1)
            first = np.argmax(b, axis=1)
            last = b.shape[1] - 1 - np.argmax(b[:, ::-1], axis=1)
            return (count > 0) & (last - first + 1 == count)

        keep = contiguous(sb) | contiguous(~sb)
        bits = bits[keep]
    gaps = np.abs(bits @ d)
    best = int(np.argmax(gaps))
    chosen = bits[best]
    region = tuple(point_key(pts[i]) for i in np.nonzero(chosen)[0])
    return DiscrepancyResult(float(gaps[best]), RegionWitness(region))


# --------------------------------------------------------------------------
# quadratic loss, norm-bounded linear / kernel classes
# --------------------------------------------------------------------------


def moment_gap_matrix(q: WeightedEmpirical, p: WeightedEmpirical) -> SymMatrix:
    """Second-moment gap sum_x (p(x) - q(x)) x x' over the joint support."""
    pts, qm, pm = joint_support(q, p)
    diff = pm - qm
    m = (pts * diff[:, None]).T @ pts
    return SymMatrix(0.5 * (m + m.T))


def disc_l2_linear(q: WeightedEmpirical, p: WeightedEmpirical) -> DiscrepancyResult:
    """Square-loss discrepancy for unit-norm linear hypotheses.

    Hypothesis pairs differ by a vector of norm at most 2, so the value is
    max over ||u|| <= 2 of |u' M u| = 4 * (largest absolute eigenvalue of M),
    with M the second-moment gap matrix.
    """
    val, u = spectral_abs_max(moment_gap_matrix(q, p))
    return DiscrepancyResult(4.0 * val, DirectionWitness(2.0 * u))


def disc_l2_kernel(
    q: WeightedEmpirical, p: WeightedEmpirical, gram: MatrixLike
) -> DiscrepancyResult:
    """Square-loss discrepancy for the unit ball of an RKHS.

    ``gram`` must be the kernel matrix over :func:`joint_support` order (q's
    points first). The value is 4 * spectral_abs_max(G^{1/2} A G^{1/2}) with
    A = diag(p - q); the witness direction lives in the G^{1/2} coordinate
    system.
    """
    pts, qm, pm = joint_support(q, p)
    g = gram.data if isinstance(gram, SymMatrix) else np.asarray(gram, dtype=float)
    if g.shape != (pts.shape[0], pts.shape[0]):
        raise ValueError(
            f"gram order mismatch: expected {pts.shape[0]}, got {g.shape}"
        )
    root = psd_sqrt(g).data
    diff = pm - qm
    m = root @ (diff[:, None] * root)
    val, u = spectral_abs_max(0.5 * (m + m.T))
    return DiscrepancyResult(4.0 * val, DirectionWitness(2.0 * u))


# --------------------------------------------------------------------------
# Rademacher averages
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RademacherEstimate:
    """Estimate of (2/m) E_sigma sup_h |sum_i sigma_i h(x_i)| with its standard error."""

    value: float
    stderr: float
    trials: int
    exact: bool


def _threshold_sups(sigma_sorted: np.ndarray) -> np.ndarray:
    """Per-row sup over prefix/suffix {0,1} indicators, columns in sorted-x order."""
    pre = np.concatenate(
        [np.zeros((sigma_sorted.shape[0], 1)), np.cumsum(sigma_sorted, axis=1)], axis=1
    )
    tot = pre[:, -1:]
    return np.maximum(np.abs(pre).max(axis=1), np.abs(tot - pre).max(axis=1))


def _points_1d(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        if pts.shape[1] != 1:
            raise ValueError("threshold-class Rademacher needs 1-d points")
        pts = pts[:, 0]
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a nonempty 1-d point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _sigma_rows(m: int, trials: int, seed) -> np.ndarray:
    """Sign matrix with row t drawn from generator seed + t (reduced in row order)."""
    if seed is None:
        raise ValueError("seed required for Monte Carlo sign draws")
    if trials < 1:
        raise ValueError("need at least one trial")
    out = np.empty((trials, m))
    for t in range(trials):
        rng = np.random.default_rng(int(seed) + t)
        out[t] = rng.integers(0, 2, m) * 2.0 - 1.0
    return out


def _enumerated_sigma(m: int) -> np.ndarray:
    return np.where(_mask_bits(2**m, m), 1.0, -1.0)


EXACT_ENUMERATION_LIMIT = 20


def rademacher_threshold1d_exact(points, trials: int = 1000, seed=None) -> RademacherEstimate:
    """Rademacher average of {0,1}-valued threshold functions on 1-d points.

    All 2^m sign patterns are enumerated when m <= 20 (exact, zero standard
    error); larger samples fall back to Monte Carlo over ``trials`` seeded
    sign draws.
    """
    xs = _points_1d(points)
    m = xs.size
    order = np.argsort(xs, kind="stable")
    if m <= EXACT_ENUMERATION_LIMIT:
        total = 2**m
        acc = 0.0
        for start in range(0, total, 1 << 16):
            stop = min(start + (1 << 16), total)
            masks = np.arange(start, stop, dtype=np.int64)
            sigma = np.where(
                ((masks[:, None] >> np.arange(m)[None, :]) & 1).astype(bool), 1.0, -1.0
            )
            acc += _threshold_sups(sigma).sum()
        return RademacherEstimate((2.0 / m) * acc / total, 0.0, total, True)
    sups = _threshold_sups(_sigma_rows(m, trials, seed)[:, order])
    value = (2.0 / m) * float(sups.mean())
    stderr = (2.0 / m) * float(sups.std(ddof=1)) / math.sqrt(trials)
    return RademacherEstimate(value, stderr, trials, False)


def rademacher_montecarlo(
    hypothesis: HypothesisSpec, points, trials: int = 1000, seed=None
) -> RademacherEstimate:
    """Monte Carlo Rademacher average for a hypothesis class on given points.

    The per-draw supremum has a closed form for each supported class: a
    prefix/suffix scan for 1-d thresholds, ||sum_i sigma_i x_i|| for the unit
    linear class, and sqrt(sigma' K sigma) for the unit RKHS ball.
    """
    if isinstance(hypothesis, Threshold1D):
        xs = _points_1d(points)
        m = xs.size
        order = np.argsort(xs, kind="stable")
        sups = _threshold_sups(_sigma_rows(m, trials, seed)[:, order])
    elif isinstance(hypothesis, LinearBounded):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or not np.isfinite(pts).all():
            raise ValueError("need a nonempty finite (k, dim) point array")
        if pts.shape[1] != hypothesis.dim:
            raise ValueError("points do not match the declared dimension")
        m = pts.shape[0]
        sums = _sigma_rows(m, trials, seed) @ pts
        sups = np.sqrt(np.sum(sums * sums, axis=1))
    elif isinstance(hypothesis, KernelBounded):
        gram = hypothesis.gram
        m = gram.shape[0]
        pts = np.asarray(points, dtype=float)
        count = pts.shape[0] if pts.ndim > 0 else 0
        if count != m:
            raise ValueError("gram order must match the number of points")
        sigma = _sigma_rows(m, trials, seed)
        quad = np.einsum("ti,ij,tj->t", sigma, gram, sigma)
        sups = np.sqrt(np.clip(quad, 0.0, None))
    else:
        raise TypeError(f"unsupported hypothesis specification: {hypothesis!r}")
    value = (2.0 / m) * float(sups.mean())
    if trials > 1:
        stderr = (2.0 / m) * float(sups.std(ddof=1)) / math.sqrt(trials)
    else:
        stderr = float("nan")
    return RademacherEstimate(value, stderr, trials, False)
