"""Reweight a labeled sample to minimize empirical discrepancy.

Three solver families cover the cases the rest of the package needs:

- an exact combinatorial rule for 1-d threshold classes,
- a small linear program for the 0-1 loss over a boolean region-membership
  matrix whose columns are the joint support (q's points first),
- entropic mirror descent on the spectral objective for the squared loss,
  in feature space or through a kernel gram matrix.

All solvers report a certified ``lower_bound`` alongside the achieved value,
so callers can see how close to optimal the returned weights are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimplexVector, WeightedEmpirical, _unique_rows
from .distance import disc_01_threshold1d, joint_support
from .linalg import RankOnePencil, SymMatrix, _abs_max, psd_sqrt
from .simplex_lp import solve_lp

STABILIZATION_WINDOW = 100


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the first-order solvers (all deterministic). ``tol`` is both
    the certified-gap and the plateau threshold on the normalized objective."""

    max_iters: int = 2000
    eta0: float = 1.0
    tol: float = 1e-6

    def __post_init__(self):
        if int(self.max_iters) != self.max_iters or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if not (math.isfinite(self.eta0) and self.eta0 > 0):
            raise ValueError("eta0 must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class ReweightResult:
    """Solver output: new weights for the reweightable support, the measured
    discrepancy they achieve, and a certified lower bound on the optimum."""

    weights: SimplexVector
    achieved_disc: float
    lower_bound: float
    trace: tuple = ()
    converged: bool = True
    warnings: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.achieved_disc) and math.isfinite(self.lower_bound)):
            raise ValueError("discrepancy values must be finite")
        if self.lower_bound > self.achieved_disc + 1e-9 * max(1.0, abs(self.achieved_disc)):
            raise ValueError("lower_bound exceeds achieved_disc")


# --------------------------------------------------------------------------
# 1-d combinatorial algorithm (0-1 loss, threshold classes)
# --------------------------------------------------------------------------

LEFT_MASS_WARNING = (
    "target mass lies left of the smallest reweightable point; it was folded "
    "into that point's weight and optimality is no longer guaranteed"
)


def minimize_1d(q: WeightedEmpirical, p: WeightedEmpirical) -> ReweightResult:
    """Exact discrepancy-minimizing reweighting on the line.

    Each reweightable point receives the target mass sitting on it plus the
    target mass in the open gap to its right; the gap of the last point extends
    to infinity. When no target mass lies left of the smallest reweightable
    point this meets the unlabeled-region lower bound exactly.
    """
    if q.dim != 1 or p.dim != 1:
        raise ValueError("minimize_1d needs 1-d supports")
    order = np.argsort(q.points[:, 0], kind="stable")
    s = q.points[order, 0]
    m0 = s.shape[0]
    xs = p.points[:, 0]
    idx = np.searchsorted(s, xs, side="right") - 1
    at = np.maximum(idx, 0)  # mass left of every point is folded into the smallest
    gaps = np.bincount(order[at], weights=p.weights, minlength=m0)
    # mass off the points: bins 0..m0-2 are the open gaps between sorted
    # points, m0-1 the open ray to the right, m0 the mass left of them all
    left = idx < 0
    outside = left | (xs > s[at])
    bins = np.where(left, m0, idx)[outside]
    open_mass = np.bincount(bins, weights=p.weights[outside], minlength=m0 + 1)
    interior_open, right_open, left_mass = open_mass[: m0 - 1], open_mass[m0 - 1], open_mass[m0]
    weights = SimplexVector.normalized(gaps)
    reweighted = WeightedEmpirical._of_distinct(q.points, weights.entries)
    achieved = disc_01_threshold1d(reweighted, p).value
    lower = max(interior_open.max(initial=0.0), left_mass + right_open)
    warnings = (LEFT_MASS_WARNING,) if left_mass > 0 else ()
    return ReweightResult(
        weights=weights,
        achieved_disc=float(achieved),
        lower_bound=float(lower),
        warnings=warnings,
    )


# --------------------------------------------------------------------------
# canonical regions and the 0-1 linear program
# --------------------------------------------------------------------------


def canonical_regions_1d(q: WeightedEmpirical, p: WeightedEmpirical) -> np.ndarray:
    """Distinct traces of intervals (and their complements) on the joint support.

    Returns the membership matrix :func:`minimize_01_lp` takes: the runs of
    consecutive points in (first, last) order, then the complements of the
    runs that touch neither end; other complements repeat a run or are empty.
    """
    if q.dim != 1 or p.dim != 1:
        raise ValueError("canonical regions are generated for 1-d supports only")
    pts, _, _ = joint_support(q, p)
    rank = np.argsort(np.argsort(pts[:, 0], kind="stable"))  # ascending position
    first, last = np.nonzero(np.tri(rank.size, dtype=bool).T)  # np.triu_indices, faster
    runs = (rank >= first[:, None]) & (rank <= last[:, None])
    inner = (first > 0) & (last < rank.size - 1)
    return np.vstack([runs, ~runs[inner]])


def minimize_01_lp(q: WeightedEmpirical, p: WeightedEmpirical, regions) -> ReweightResult:
    """Minimize the maximum weighted-mass gap over the given regions by LP.

    ``regions`` is a boolean matrix, a row per region and a column per point
    of ``joint_support(q, p)``, q's points first, in any dimension. Variables
    are the new weights, on the simplex, and the gap bound t; each region
    demands +/-(sum of region weights - target mass) <= t. Regions that put
    the same reweightable points together differ only in target mass, so each
    such group gives just its tightest pair of rows (smallest mass above,
    largest below). Where several weight vectors reach the optimal gap, the
    weights are one optimal vertex of the LP; which one is not promised.
    """
    _, _, pm = joint_support(q, p)
    member = np.asarray(regions)
    if member.shape[:1] == (0,):
        raise ValueError("need at least one region")
    if member.dtype != bool or member.shape[1:] != pm.shape:
        raise ValueError(f"regions need one boolean column per joint-support point ({pm.size})")
    m0 = q.size
    mass = member @ pm
    first, group = _unique_rows(member[:, :m0])
    # a last group, covering every weight with mass 1, pins sum z to 1
    ind = np.vstack([member[first, :m0], np.ones(m0)])
    low = np.append(np.full(first.size, np.inf), 1.0)
    high = np.append(np.zeros(first.size), 1.0)
    np.minimum.at(low, group, mass)
    np.maximum.at(high, group, mass)
    covered = ind.any(axis=1)
    # rows ind z - t <= low and -ind z - t <= -high; the simplex pair has no t
    a_ub = np.zeros((2 * ind.shape[0], m0 + 1))
    a_ub[::2, :m0], a_ub[1::2, :m0] = ind, -ind
    a_ub[:-2, m0] = -1.0
    b_ub = np.column_stack([low, -high]).ravel()
    # a group covering no q point and no target mass gives two equal rows
    keep = np.column_stack([np.ones_like(covered), covered | (high > 0.0)]).ravel()
    res = solve_lp(np.r_[np.zeros(m0), 1.0], a_ub[keep], b_ub[keep])
    return ReweightResult(
        weights=SimplexVector.normalized(res.x[:m0]),
        achieved_disc=float(res.objective),
        lower_bound=float(high[~covered].max(initial=0.0)),
    )


# --------------------------------------------------------------------------
# spectral objective (squared loss) via entropic mirror descent
# --------------------------------------------------------------------------


def l2_linear_family(q: WeightedEmpirical, p: WeightedEmpirical) -> RankOnePencil:
    """Second-moment pencil for feature-space reweighting: the target moment
    matrix as base and the reweightable points ``x_k`` as the term factors.

    ``evaluate(z)`` returns (target moment matrix) - (reweighted moment
    matrix); the spectral objective is sign-symmetric so the orientation does
    not affect values.
    """
    if q.dim != p.dim:
        raise ValueError("dimension mismatch between distributions")
    base = p.points.T @ (p.weights[:, None] * p.points)
    return RankOnePencil(base, q.points)


def l2_kernel_family(q: WeightedEmpirical, p: WeightedEmpirical, gram) -> RankOnePencil:
    """Gram-space pencil: conjugate the mass-difference diagonal by the psd
    square root R of the gram matrix over the joint support (q points first).
    Term k's factor is column k of R."""
    pts, _, pm = joint_support(q, p)
    k = pts.shape[0]
    g = gram.data if isinstance(gram, SymMatrix) else np.asarray(gram, dtype=float)
    if g.shape != (k, k):
        raise ValueError(
            f"gram matrix must be {k}x{k} over the joint support with q points first"
        )
    root = psd_sqrt(g).data
    base = (root * pm) @ root
    return RankOnePencil(base, root[:, : q.size].T)


def _family_objective(family: RankOnePencil):
    """The map z -> largest absolute eigenvalue of the pencil at z."""
    base = family.base.data

    def objective(z) -> float:
        return _abs_max(family.term_sum(np.asarray(z, dtype=float)) - base)[0]

    return objective


def _mirror_descent(family: RankOnePencil, cfg: SolverConfig):
    """Entropic mirror descent for F(z) = specmax(sum_k z_k f_k f_k' - B) on the
    simplex, where B is the pencil's base and f_k its term factors.

    Step t's subgradient comes from U_t = s_t u_t u_t', of unit trace norm, so
    <U_t, M(z)> = grad_t . z - s_t u_t' B u_t is at most F(z). Its smallest
    value over the simplex bounds min F from below, for the mean of the U_t
    (an accuracy certificate: Nemirovski, Onn & Rothblum, 2010) and for U_t
    alone, which is tightest, and taken, where the best value improves.

    Returns ``(z_best, lower, per_iter_values, converged)``. The loop stops
    once the best value is within ``cfg.tol`` of ``lower``, converged; else
    ``converged`` means the best value moved by less than ``cfg.tol`` over the
    final stabilization window, a postmortem only, as subgradient methods
    plateau and recover.
    """
    base = family.base.data
    m0 = family.n_terms
    log_w = np.zeros(m0)
    best_val = np.inf
    best_z = np.full(m0, 1.0 / m0)
    grad_sum = np.zeros(m0)
    offset_sum = 0.0
    lower = 0.0
    trace: list[float] = []
    for t in range(1, cfg.max_iters + 1):
        shifted = log_w - log_w.max()
        z = np.exp(shifted)
        z /= z.sum()
        m = family.term_sum(z) - base
        val, u = _abs_max(m)  # u's sign is irrelevant: grad squares F u
        trace.append(float(val))
        sign = 1.0 if float(u @ m @ u) >= 0.0 else -1.0
        grad = sign * (family.factor @ u) ** 2
        offset = float(grad @ z) - val
        if val < best_val:
            best_val = float(val)
            best_z = z
            lower = max(lower, grad.min() - offset)
        grad_sum += grad
        offset_sum += offset
        lower = max(lower, (grad_sum.min() - offset_sum) / t)
        if best_val - lower <= cfg.tol:
            return best_z, lower, trace, True
        log_w -= (cfg.eta0 / math.sqrt(t)) * grad
    best = np.minimum.accumulate(trace)
    converged = (
        len(best) > STABILIZATION_WINDOW
        and best[-1 - STABILIZATION_WINDOW] - best[-1] < cfg.tol
    )
    return best_z, lower, trace, bool(converged)


def _minimize_l2(family: RankOnePencil, cfg: SolverConfig) -> ReweightResult:
    base = family.base.data
    scale = float(np.linalg.norm(base))
    if scale <= 0.0:
        scale = 1.0
    scaled = RankOnePencil(base / scale, family.factor / math.sqrt(scale))
    z_best, lower, raw_trace, converged = _mirror_descent(scaled, cfg)
    achieved = 4.0 * _family_objective(family)(z_best)
    # the scaled bound passes the achieved value only by rounding
    lower = min(4.0 * scale * lower, achieved)
    warnings = () if converged else (
        f"mirror descent hit max_iters={cfg.max_iters} before its gap closed or it stabilized",
    )
    return ReweightResult(
        weights=SimplexVector.normalized(z_best),
        achieved_disc=achieved,
        lower_bound=lower,
        trace=tuple(4.0 * scale * v for v in raw_trace),
        converged=converged,
        warnings=warnings,
    )


def minimize_l2_linear(
    q: WeightedEmpirical, p: WeightedEmpirical, cfg: SolverConfig | None = None
) -> ReweightResult:
    """Reweight q's support to minimize the squared-loss discrepancy to p for
    norm-bounded linear predictors on the raw features."""
    cfg = cfg or SolverConfig()
    family = l2_linear_family(q, p)
    return _minimize_l2(family, cfg)


def minimize_l2_kernel(
    q: WeightedEmpirical, p: WeightedEmpirical, gram, cfg: SolverConfig | None = None
) -> ReweightResult:
    """Kernelized variant of :func:`minimize_l2_linear` driven entirely by the
    gram matrix over the joint support (q points first, then p-only points)."""
    cfg = cfg or SolverConfig()
    family = l2_kernel_family(q, p, gram)
    return _minimize_l2(family, cfg)


# --------------------------------------------------------------------------
# brute-force oracle
# --------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_oracle(objective, m0: int, step: float):
    """Exhaustive simplex-grid minimization for tiny problems.

    Enumerates the grid in lexicographic order and keeps the first strict
    minimum, so results are deterministic. Returns ``(z, value)``.
    """
    if int(m0) != m0 or not (1 <= m0 <= 4):
        raise ValueError("grid oracle supports between 1 and 4 weights")
    m0 = int(m0)
    if not (math.isfinite(step) and 0 < step <= 1):
        raise ValueError("step must lie in (0, 1]")
    k = round(1.0 / step)
    if abs(k * step - 1.0) > 1e-9:
        raise ValueError("step must evenly divide 1")
    best_z = None
    best_val = np.inf
    for comp in _compositions(k, m0):
        z = np.array(comp, dtype=float) / k
        val = float(objective(z))
        if val < best_val:
            best_val = val
            best_z = z
    return best_z, best_val
