"""Dense symmetric linear algebra used by the quadratic-loss machinery.

Eigendecompositions go through LAPACK's symmetric solver (``numpy.linalg.eigh``)
with a deterministic order and sign convention on top. Everything here works on
plain float arrays; ``SymMatrix`` is a thin validated wrapper used at module
boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class SymMatrix:
    """A validated symmetric matrix (symmetrized copy, read-only)."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("need a nonempty square matrix")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        tol = 1e-12 * np.maximum(1.0, np.abs(a))
        if (np.abs(a - a.T) > tol).any():
            raise ValueError("matrix is not symmetric within tolerance")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def order(self) -> int:
        return self.data.shape[0]

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.data))


MatrixLike = Union[SymMatrix, np.ndarray]


def _as_array(mat: MatrixLike) -> np.ndarray:
    a = mat.data if isinstance(mat, SymMatrix) else np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("need a nonempty square matrix")
    return a


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector orientation: first non-tiny component positive.

    The columns are unit vectors, so each has a component above 1e-12.
    """
    lead = (np.abs(vecs) > 1e-12).argmax(axis=0)
    return vecs * np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def sym_eigen(mat: MatrixLike):
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns ``(values, vectors)`` with eigenvalues sorted descending and
    eigenvectors as matching columns (orthonormal, leading component positive).
    The sort is stable, so equal eigenvalues keep the order LAPACK returns.
    """
    a = _as_array(mat)
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-vals, kind="stable")
    return vals[order], _fix_signs(vecs[:, order])


def _abs_max(a: np.ndarray):
    """:func:`spectral_abs_max` of a square array, with the vector's sign left as
    ``eigh`` gives it; ties resolve as in :func:`sym_eigen`'s stable order."""
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))  # ascending
    if vals[-1] >= -vals[0]:
        i = int(vals.searchsorted(vals[-1]))
        return float(vals[i]), vecs[:, i]
    i = int(vals.searchsorted(vals[0], "right")) - 1
    return float(-vals[i]), vecs[:, i]


def spectral_abs_max(mat: MatrixLike):
    """Largest absolute eigenvalue of a symmetric matrix with a witness direction.

    Returns ``(value, u)`` where ``value = max(lam_max(A), lam_max(-A)) >= 0``
    and ``u`` is a unit vector with ``|u' A u| = value``, leading component
    positive. Ties between the two branches resolve to the positive branch.
    """
    value, u = _abs_max(_as_array(mat))
    return value, _fix_signs(u[:, None])[:, 0]


def psd_sqrt(mat: MatrixLike) -> SymMatrix:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-9, 0) are clamped to zero; anything more negative
    raises ``ValueError("matrix not PSD")``.
    """
    vals, vecs = sym_eigen(mat)
    if float(vals.min()) < -1e-9:
        raise ValueError("matrix not PSD")
    root = np.sqrt(np.clip(vals, 0.0, None))
    r = (vecs * root) @ vecs.T
    return SymMatrix(0.5 * (r + r.T))


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearKernel:
    """k(x, y) = x . y"""

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float) @ np.asarray(ys, dtype=float).T

    def kappa(self, points: np.ndarray) -> float:
        pts = np.asarray(points, dtype=float)
        return float(np.sqrt(np.max(np.sum(pts * pts, axis=1))))


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-gamma * ||x - y||^2), gamma > 0; k(x, x) = 1."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive")

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        sq = (
            np.sum(xs * xs, axis=1)[:, None]
            + np.sum(ys * ys, axis=1)[None, :]
            - 2.0 * xs @ ys.T
        )
        return np.exp(-self.gamma * np.clip(sq, 0.0, None))

    def kappa(self, points: np.ndarray) -> float:
        return 1.0


@dataclass(frozen=True)
class PolynomialKernel:
    """k(x, y) = (x . y + offset)^degree with offset >= 0 and integer degree >= 1."""

    offset: float
    degree: int

    def __post_init__(self):
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError("offset must be nonnegative")
        if int(self.degree) != self.degree or self.degree < 1:
            raise ValueError("degree must be a positive integer")
        object.__setattr__(self, "degree", int(self.degree))

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return (xs @ ys.T + self.offset) ** self.degree

    def kappa(self, points: np.ndarray) -> float:
        pts = np.asarray(points, dtype=float)
        return float(np.max((np.sum(pts * pts, axis=1) + self.offset) ** (self.degree / 2.0)))


KernelSpec = Union[LinearKernel, GaussianKernel, PolynomialKernel]


def gram_matrix(points, kernel: KernelSpec) -> SymMatrix:
    """Kernel gram matrix over a point set, validated symmetric."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty (k, dim) point array")
    g = kernel.pairwise(pts, pts)
    return SymMatrix(0.5 * (g + g.T))


# --------------------------------------------------------------------------
# rank-one pencils
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RankOnePencil:
    """The symmetric-matrix pencil z -> base - sum_k z_k f_k f_k' whose terms
    are rank one, held by their factors: ``f_k`` is row k of ``factor``.

    The weighted term sum is ``factor' diag(z) factor`` and term k's quadratic
    form along u is ``(f_k . u)^2``, so no term is ever formed as a matrix.
    """

    base: SymMatrix
    factor: np.ndarray

    def __post_init__(self):
        base = self.base if isinstance(self.base, SymMatrix) else SymMatrix(self.base)
        factor = np.array(self.factor, dtype=float)
        if factor.ndim != 2:
            raise ValueError("factor must be an (n_terms, order) array")
        if factor.shape[0] == 0:
            raise ValueError("need at least one term")
        if factor.shape[1] != base.order:
            raise ValueError("all terms must share the base matrix order")
        if not np.isfinite(factor).all():
            raise ValueError("factor entries must be finite")
        factor.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "factor", factor)

    @property
    def order(self) -> int:
        return self.base.order

    @property
    def n_terms(self) -> int:
        return self.factor.shape[0]

    def term_sum(self, z: np.ndarray) -> np.ndarray:
        """sum_k z_k f_k f_k' for an aligned float vector (unvalidated; solver use)."""
        return self.factor.T @ (z[:, None] * self.factor)

    def evaluate(self, z) -> SymMatrix:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n_terms,):
            raise ValueError("coefficient vector must align with the terms")
        return SymMatrix(self.base.data - self.term_sum(z))
