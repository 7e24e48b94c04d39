"""Reference computations the benchmark checks the program against.

Written with plain numpy; nothing here goes through ``discrep.linalg`` or
``discrep.distance``, and every input is a plain array (points, weights),
never one of the package's types.
"""
from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with a reference or a property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(name: str, got: float, want: float, tol: float) -> None:
    """``|got - want| <= tol * max(1, |want|)``."""
    got, want = float(got), float(want)
    limit = tol * max(1.0, abs(want))
    require(abs(got - want) <= limit, f"{name}: got {got!r}, reference {want!r} (tol {limit:.1e})")


def require_simplex(name: str, weights, size: int) -> None:
    w = np.asarray(weights, dtype=float)
    require(w.shape == (size,), f"{name}: {w.shape} weights for {size} support points")
    require(bool(np.isfinite(w).all()), f"{name}: weights are not finite")
    require(bool((w >= 0).all()), f"{name}: negative weight {w.min()!r}")
    require(abs(float(w.sum()) - 1.0) <= 1e-12, f"{name}: weights sum to {w.sum()!r}")


def require_lower_bound(lower: float, achieved: float, objective_values, tol: float) -> None:
    """A certified lower bound lies at or below the value the solver achieved
    and at or below the objective at every point it is compared with."""
    require(lower <= achieved + tol, f"lower_bound {lower!r} exceeds achieved_disc {achieved!r}")
    least = float(np.min(objective_values))
    require(lower <= least + tol, f"lower_bound {lower!r} above the objective {least!r}")


def normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def simplex_samples(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """``count`` points of the simplex: the first vertex and Dirichlet(1) draws."""
    draws = rng.dirichlet(np.ones(size), count - 1) if count > 1 else np.empty((0, size))
    vertex = np.zeros((1, size))
    vertex[0, 0] = 1.0
    return np.vstack([vertex, draws])


# --------------------------------------------------------------------------
# 1-d, zero-one loss
# --------------------------------------------------------------------------


def signed_mass_1d(xq, wq, xp, wp):
    """Sorted distinct points of both samples and ``q(x) - p(x)`` on each.

    Repeated points add their weights; ``wq`` and ``wp`` are normalized here.
    """
    xq = np.asarray(xq, dtype=float).reshape(-1)
    xp = np.asarray(xp, dtype=float).reshape(-1)
    xs, inverse = np.unique(np.concatenate([xq, xp]), return_inverse=True)
    diff = np.zeros(xs.size)
    np.add.at(diff, inverse[: xq.size], normalized(wq))
    np.add.at(diff, inverse[xq.size :], -normalized(wp))
    return xs, diff


def interval_disc_enumerated(diff) -> float:
    """Largest ``|q(I) - p(I)|`` over every interval I of the sorted support.

    Enumerates all ``k (k + 1) / 2`` runs of consecutive points. Complements
    of intervals give the same gap, as both samples have total mass 1.
    """
    pre = np.concatenate([[0.0], np.cumsum(diff)])
    gaps = np.abs(pre[None, :] - pre[:, None])
    return float(gaps.max())


def interval_disc_prefix_range(diff) -> float:
    """The same maximum in linear time: every interval's gap is a difference of
    two prefix sums, so the largest is the range of the prefix sums. Used where
    the support is too large to enumerate; the self-test holds it equal to
    :func:`interval_disc_enumerated`."""
    pre = np.concatenate([[0.0], np.cumsum(diff)])
    return float(pre.max() - pre.min())


def max_unlabeled_mass(xq, xp, wp) -> float:
    """Largest target mass of an interval, or an interval's complement, that
    holds no source point: no reweighting can move such a region's gap, so it
    bounds every reweighting's discrepancy from below."""
    xq = np.asarray(xq, dtype=float).reshape(-1)
    xp = np.asarray(xp, dtype=float).reshape(-1)
    xs, inverse = np.unique(np.concatenate([xq, xp]), return_inverse=True)
    p_mass = np.zeros(xs.size)
    np.add.at(p_mass, inverse[xq.size :], normalized(wp))
    q_count = np.zeros(xs.size)
    np.add.at(q_count, inverse[: xq.size], 1.0)
    pre_p = np.concatenate([[0.0], np.cumsum(p_mass)])
    pre_q = np.concatenate([[0.0], np.cumsum(q_count)])
    # run (i, j] holds points i .. j-1 of the sorted support
    inside_p = pre_p[None, :] - pre_p[:, None]
    inside_q = pre_q[None, :] - pre_q[:, None]
    upper = np.triu(np.ones_like(inside_p, dtype=bool), 1)
    best = 0.0
    empty_runs = upper & (inside_q == 0)
    if empty_runs.any():
        best = max(best, float(inside_p[empty_runs].max()))
    covering_runs = upper & (inside_q == xq.size)
    if covering_runs.any():
        best = max(best, float((pre_p[-1] - inside_p[covering_runs]).max()))
    return best


def threshold_accuracy(cutoff: float, orientation: str, xs, labels) -> float:
    """Accuracy of the half-line rule ``x >= cutoff`` (predict-1-right) or
    ``x <= cutoff`` (predict-1-left) on labeled points."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if orientation == "predict-1-right":
        predictions = xs >= cutoff
    elif orientation == "predict-1-left":
        predictions = xs <= cutoff
    else:
        raise CheckFailed(f"unknown orientation {orientation!r}")
    return float(np.mean(predictions == (np.asarray(labels) == 1.0)))


# --------------------------------------------------------------------------
# squared loss
# --------------------------------------------------------------------------


def spectral_disc(matrix) -> float:
    """``4 * max |eigenvalue|`` of a symmetric matrix: the squared-loss
    discrepancy over hypothesis pairs whose difference has norm at most 2."""
    m = np.asarray(matrix, dtype=float)
    return 4.0 * float(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T))).max())


def moment_gap(xq, zq, xp, wp) -> np.ndarray:
    """``sum_j p_j x_j x_j' - sum_i z_i x_i x_i'`` for the linear route."""
    xq = np.asarray(xq, dtype=float)
    xp = np.asarray(xp, dtype=float)
    return (xp * normalized(wp)[:, None]).T @ xp - (xq * np.asarray(zq)[:, None]).T @ xq


def linear_disc(xq, zq, xp, wp) -> float:
    return spectral_disc(moment_gap(xq, zq, xp, wp))


def gaussian_gram(points, gamma: float) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * sq)


def gram_factor(gram) -> np.ndarray:
    """A factor ``F`` with ``F F' = gram`` (eigenvalues below 0 clipped)."""
    vals, vecs = np.linalg.eigh(np.asarray(gram, dtype=float))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def kernel_disc(factor, mass_diff) -> float:
    """Kernel-route discrepancy from a gram factor: ``F' diag(d) F`` has the
    same nonzero spectrum as ``G^(1/2) diag(d) G^(1/2)``."""
    f = np.asarray(factor, dtype=float)
    return spectral_disc(f.T @ (np.asarray(mass_diff)[:, None] * f))


def ridge_residual(x, y, w, lam: float, coef) -> np.ndarray:
    """Gradient of ``sum_i w_i (coef . x_i - y_i)^2 + lam |coef|^2``, halved."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    c = np.asarray(coef, dtype=float)
    return x.T @ (w * (x @ c - np.asarray(y, dtype=float))) + lam * c
