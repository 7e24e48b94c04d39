"""Reweight a labeled sample to minimize empirical discrepancy.

Three solver families cover the cases the rest of the package needs:

- an exact combinatorial rule for 1-d threshold classes,
- a small linear program over canonical regions for the 0-1 loss,
- entropic mirror descent on the spectral objective for the squared loss,
  in feature space or through a kernel gram matrix.

All solvers report a certified ``lower_bound`` alongside the achieved value,
so callers can see how close to optimal the returned weights are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimplexVector, WeightedEmpirical
from .distance import disc_01_threshold1d, joint_support
from .linalg import RankOnePencil, SymMatrix, psd_sqrt, spectral_abs_max, sym_eigen
from .simplex_lp import solve_lp

STABILIZATION_WINDOW = 100


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the first-order solvers (all deterministic)."""

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
    reweighted = WeightedEmpirical(q.points, weights.entries)
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


def canonical_regions_1d(q: WeightedEmpirical, p: WeightedEmpirical) -> tuple:
    """Distinct traces of intervals (and their complements) on the joint support.

    Two regions with the same trace constrain the weights identically, so only
    one representative per trace is kept; the empty trace is dropped.
    """
    if q.dim != 1 or p.dim != 1:
        raise ValueError("canonical regions are generated for 1-d supports only")
    keys = sorted(set(q.keys()) | set(p.keys()))  # the joint support, left to right
    k = len(keys)
    all_keys = frozenset(keys)
    regions: list[frozenset] = []
    for i in range(k):
        for j in range(i, k):
            regions.append(frozenset(keys[i : j + 1]))
    for run in list(regions):
        regions.append(all_keys - run)
    deduped = [r for r in dict.fromkeys(regions) if r]
    return tuple(deduped)


def minimize_01_lp(q: WeightedEmpirical, p: WeightedEmpirical, regions) -> ReweightResult:
    """Minimize the maximum weighted-mass gap over the given regions by LP.

    Variables are the new weights plus the gap bound t; each region demands
    +/-(sum of region weights - target mass) <= t, and the weights are pinned
    to the simplex. Regions that restrict to the same subset of reweightable
    points differ only in their target mass, so each such group contributes
    just its tightest pair of rows (smallest mass above, largest below).
    """
    regions = tuple(regions)
    if not regions:
        raise ValueError("need at least one region")
    q_keys = q.keys()
    support_keys = set(q_keys) | set(p.keys())
    m0 = len(q_keys)
    mass_range: dict[tuple, list[float]] = {}
    lower = 0.0
    for region in regions:
        if not frozenset(region) <= support_keys:
            raise ValueError("region contains points outside the joint support")
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
    a_ub = np.array([r[0] for r in unique])
    b_ub = np.array([r[1] for r in unique])
    c = np.zeros(m0 + 1)
    c[-1] = 1.0
    res = solve_lp(c, a_ub, b_ub)
    return ReweightResult(
        weights=SimplexVector.normalized(res.x[:m0]),
        achieved_disc=float(res.objective),
        lower_bound=float(lower),
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
        value, _ = spectral_abs_max(family.term_sum(np.asarray(z, dtype=float)) - base)
        return float(value)

    return objective


def _mirror_descent(family: RankOnePencil, cfg: SolverConfig):
    """Entropic mirror descent for F(z) = specmax(sum_k z_k f_k f_k' - B) on the
    simplex, where B is the pencil's base and f_k its term factors.

    Runs the full iteration budget and returns
    ``(z_best, f_best, per_iter_values, converged)`` where ``converged`` means
    the best value improved by less than ``cfg.tol`` over the final
    stabilization window. Subgradient methods plateau and recover, so an early
    stop on a flat window would be premature; the window is only a postmortem.
    """
    base = family.base.data
    m0 = family.n_terms
    log_w = np.zeros(m0)
    best_val = np.inf
    best_z = np.full(m0, 1.0 / m0)
    history: list[float] = []
    trace: list[float] = []
    for t in range(1, cfg.max_iters + 1):
        shifted = log_w - log_w.max()
        z = np.exp(shifted)
        z /= z.sum()
        m = family.term_sum(z) - base
        val, u = spectral_abs_max(m)
        trace.append(float(val))
        if val < best_val:
            best_val = float(val)
            best_z = z
        history.append(best_val)
        sign = 1.0 if float(u @ m @ u) >= 0.0 else -1.0
        grad = sign * (family.factor @ u) ** 2
        log_w -= (cfg.eta0 / math.sqrt(t)) * grad
    converged = (
        len(history) > STABILIZATION_WINDOW
        and history[-1 - STABILIZATION_WINDOW] - history[-1] < cfg.tol
    )
    return best_z, best_val, trace, converged


def _spectral_lower_bound(family: RankOnePencil, z_best: np.ndarray) -> float:
    """Certified lower bound on min_z 4 * specmax(pencil(z)).

    For any fixed direction u the pencil's quadratic form is an affine function
    of z whose range over the simplex is the interval spanned by the per-term
    values (f_k . u)^2; its distance from the target value bounds every z from
    below. The candidate directions are the eigenvectors of the target moment
    matrix and of the pencil at the returned weights.
    """
    base = family.base.data
    best = 0.0
    for mat in (base, family.term_sum(z_best) - base):
        vecs = sym_eigen(mat)[1]
        targets = np.sum(vecs * (base @ vecs), axis=0)
        spans = (family.factor @ vecs) ** 2
        best = max(
            best,
            float(np.max(spans.min(axis=0) - targets)),
            float(np.max(targets - spans.max(axis=0))),
        )
    return 4.0 * best


def _minimize_l2(family: RankOnePencil, cfg: SolverConfig) -> ReweightResult:
    base = family.base.data
    objective = _family_objective(family)
    if family.n_terms == 1:
        z = np.ones(1)
        achieved = 4.0 * objective(z)
        return ReweightResult(
            weights=SimplexVector(z),
            achieved_disc=achieved,
            lower_bound=_spectral_lower_bound(family, z),
            trace=(achieved,),
        )
    scale = float(np.linalg.norm(base))
    if scale <= 0.0:
        scale = 1.0
    scaled = RankOnePencil(base / scale, family.factor / math.sqrt(scale))
    z_best, _, raw_trace, converged = _mirror_descent(scaled, cfg)
    achieved = 4.0 * objective(z_best)
    lower = _spectral_lower_bound(family, z_best)
    warnings = () if converged else (
        f"mirror descent hit max_iters={cfg.max_iters} before stabilizing",
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
