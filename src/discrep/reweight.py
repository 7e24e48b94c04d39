"""Reweight a labeled sample to minimize empirical discrepancy.

Three solver families cover the cases the rest of the package needs:

- an exact combinatorial rule for 1-d threshold classes,
- a small linear program for the 0-1 loss over a boolean region-membership
  matrix whose columns are the joint support (q's points first),
- for the squared loss, in feature space or through a kernel gram matrix, the
  semidefinite program ``min_z ||sum_k z_k f_k f_k' - B||_2`` over the simplex:
  a primal-dual interior-point method solves it to a certified gap; entropic
  mirror descent runs instead when the solver configuration names a step
  size ``eta0`` (the regression pipeline, whose weights are an early-stopped
  iterate by design).

All solvers report a certified ``lower_bound`` alongside the achieved value,
so callers can see how close to optimal the returned weights are, and say why
they stopped (``ReweightResult.stop_reason``).
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
    """Knobs for the squared-loss solvers (all deterministic).

    By default (``eta0`` unset) the interior-point method runs: at most
    ``max_iters`` iterations, stopping once its certified gap on the
    normalized objective is at most ``tol``. A step size ``eta0`` asks for
    entropic mirror descent instead: at most ``max_iters`` steps, stopping on
    the same gap, and otherwise reporting ``converged`` when its best value
    moved by less than ``tol`` over the last ``STABILIZATION_WINDOW`` steps.
    """

    max_iters: int = 2000
    eta0: float | None = None
    tol: float = 1e-6

    def __post_init__(self):
        if int(self.max_iters) != self.max_iters or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if self.eta0 is not None and not (math.isfinite(self.eta0) and self.eta0 > 0):
            raise ValueError("eta0 must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive")


STOP_REASONS = ("gap", "cap", "stall", "exact")


@dataclass(frozen=True)
class ReweightResult:
    """Solver output: new weights for the reweightable support, the measured
    discrepancy they achieve, and a certified lower bound on the optimum.

    ``iterations`` counts the iterates an iterative solver evaluated (0 for
    the exact solvers). ``stop_reason`` says why the solver stopped: ``gap``
    once the certified gap closed, ``cap`` at ``max_iters``, ``stall`` when a
    step failed or made no progress (the best iterate so far is returned),
    ``exact`` for the 1-d rule and the LP.
    """

    weights: SimplexVector
    achieved_disc: float
    lower_bound: float
    trace: tuple = ()
    converged: bool = True
    warnings: tuple = ()
    iterations: int = 0
    stop_reason: str = "exact"

    def __post_init__(self):
        if not (math.isfinite(self.achieved_disc) and math.isfinite(self.lower_bound)):
            raise ValueError("discrepancy values must be finite")
        if self.lower_bound > self.achieved_disc + 1e-9 * max(1.0, abs(self.achieved_disc)):
            raise ValueError("lower_bound exceeds achieved_disc")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}")


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

    Returns ``(z_best, lower, per_iter_values, converged, stop_reason)``. The
    loop stops once the best value is within ``cfg.tol`` of ``lower``,
    converged; else it stops at the cap and ``converged`` means the best
    value moved by less than ``cfg.tol`` over the final stabilization window,
    a postmortem only, as subgradient methods plateau and recover.
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
            return best_z, lower, trace, True, "gap"
        log_w -= (cfg.eta0 / math.sqrt(t)) * grad
    best = np.minimum.accumulate(trace)
    converged = (
        len(best) > STABILIZATION_WINDOW
        and best[-1 - STABILIZATION_WINDOW] - best[-1] < cfg.tol
    )
    return best_z, lower, trace, bool(converged), "cap"


# interior-point steps go this fraction of the way to the boundary of the cone
_STEP_FRACTION = 0.98
# a step shorter than this on both sides counts as no progress
_MIN_STEP = 1e-10


def _ratio_step(v: np.ndarray, dv: np.ndarray) -> float:
    """The largest alpha (inf if none) keeping ``v + alpha dv`` nonnegative."""
    falling = dv < 0.0
    return float((-v[falling] / dv[falling]).min(initial=np.inf))


def _interior_point(family: RankOnePencil, cfg: SolverConfig):
    """Primal-dual interior-point method for min ||M(z)||_2 over the simplex,
    where M(z) = F' diag(z) F - B with B the pencil's base and F its factor:

        min t  s.t.  S_1 = tI - M(z) >= 0,  S_2 = tI + M(z) >= 0,  z >= 0,  1'z = 1,

    with dual variables X_1, X_2 >= 0 for the matrix constraints, x >= 0 for
    z and y for the simplex. Each step takes the HKM direction with
    Mehrotra's predictor-corrector, as in SDPT3 (Todd, Toh & Tutuncu, 1999;
    see also Vandenberghe & Boyd, SIAM Review 1996). The Newton
    system has only the m + 2 unknowns (dz, dt, dy): every term f_k f_k' is
    rank one, so its z block is (F X_1 F')o(F S_1^-1 F') + (F X_2 F')o(F S_2^-1 F')
    + diag(x / z), with o the entrywise product, and no term is ever formed.
    The start is feasible and centred, and Newton steps keep the equality
    constraints up to rounding; the bounds below need neither.

    Lower bounds: W = (X_1 - X_2) / (tr X_1 + tr X_2) has trace norm at most
    1, so <W, M(z)> <= ||M(z)||_2 for every z and min_k f_k'Wf_k - <B, W>
    bounds the optimum; so does the bound from the top eigenvector of M at
    each iterate (as in :func:`_mirror_descent`), exact with one term. Both
    hold at any iterate. The loop stops once the best value is within
    ``cfg.tol`` of the best bound; a failed factorization or a step that
    makes no progress stops it early, with the best iterate.

    Returns ``(z_best, lower, per_iter_values, converged, stop_reason)``.
    """
    base = family.base.data
    f = family.factor
    m0, order = f.shape
    eye = np.eye(order)
    signs = np.array([1.0, -1.0])[:, None, None]  # S_1 = tI - M, S_2 = tI + M
    barrier = 2 * order + m0  # the number of complementary pairs
    kkt = np.zeros((m0 + 2, m0 + 2))  # unknowns (dz, dt, dy)
    kkt[:m0, m0 + 1] = kkt[m0 + 1, :m0] = -1.0
    z_diag = np.diag_indices(m0)
    rhs = np.zeros(m0 + 2)
    z = np.full(m0, 1.0 / m0)
    best_val, best_z, lower = np.inf, z, 0.0
    trace: list[float] = []
    stop = "cap"
    for it in range(1, cfg.max_iters + 1):
        m = family.term_sum(z) - base
        val, u = _abs_max(m)
        trace.append(val)
        if val < best_val:
            best_val, best_z = val, z
        sign = 1.0 if float(u @ m @ u) >= 0.0 else -1.0
        lower = max(lower, float((sign * (f @ u) ** 2).min()) - sign * float(u @ base @ u))
        if it == 1:
            # centred start: X_i = I / 2n and t = 2 ||M(z)||, so X_i S_i is
            # within a factor 3 of mu I; x_k z_k = mu and 1'z = tr X_1 + tr X_2 = 1
            t = 2.0 * val
            xs = np.broadcast_to(eye / (2 * order), (2, order, order)).copy()
            x = np.full(m0, m0 * t / (2 * order))
            y = -x[0]
        else:
            w = (xs[0] - xs[1]) / (np.trace(xs[0]) + np.trace(xs[1]))
            lower = max(lower, float(((f @ w) * f).sum(1).min()) - float((base * w).sum()))
        if best_val - lower <= cfg.tol:
            stop = "gap"
            break
        if it == cfg.max_iters:
            break
        s = t * eye - signs * m
        try:
            # inverse Cholesky factors of S_1, S_2, X_1, X_2: they give S_i^-1
            # here and the longest steps that stay in the cones in direction()
            inv_low = np.linalg.inv(np.linalg.cholesky(np.concatenate([s, xs])))
        except np.linalg.LinAlgError:
            stop = "stall"
            break
        s_inv = inv_low[:2].transpose(0, 2, 1) @ inv_low[:2]
        fx, fs = f @ xs, f @ s_inv
        kkt[:m0, :m0] = ((fx @ f.T) * (fs @ f.T)).sum(0)
        kkt[z_diag] += x / z
        h = (fx * fs).sum(2)  # h_ik = f_k' X_i S_i^-1 f_k
        kkt[:m0, m0] = kkt[m0, :m0] = h[1] - h[0]
        kkt[m0, m0] = (xs * s_inv).sum()
        rhs[m0 + 1] = z.sum() - 1.0
        mu = ((xs * s).sum() + x @ z) / barrier

        def direction(q, rx):
            """Newton step towards X_i S_i = R_i and x z = rx, where
            q_i = sym(R_i S_i^-1), with the largest primal and dual steps."""
            qf = ((f @ q) * f).sum(2)
            rhs[:m0] = y - qf[0] + qf[1] + rx / z
            rhs[m0] = np.trace(q, axis1=1, axis2=2).sum() - 1.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:  # singular where the optimal z is not unique
                sol = np.linalg.lstsq(kkt, rhs)[0]
            dz, dt = sol[:m0], sol[m0]
            ds = dt * eye - signs * family.term_sum(dz)
            dxs = xs @ ds @ s_inv
            dxs = q - xs - 0.5 * (dxs + dxs.transpose(0, 2, 1))
            dx = rx / z - x - x / z * dz
            moves = inv_low @ np.concatenate([ds, dxs]) @ inv_low.transpose(0, 2, 1)
            least = np.linalg.eigvalsh(moves)
            with np.errstate(divide="ignore"):
                steps = np.where(least[:, 0] < 0.0, -1.0 / least[:, 0], np.inf)
            primal = min(steps[0], steps[1], _ratio_step(z, dz))
            dual = min(steps[2], steps[3], _ratio_step(x, dx))
            return sol, ds, dxs, dx, primal, dual

        try:
            sol, ds, dxs, dx, primal, dual = direction(np.zeros((2, order, order)), np.zeros(m0))
            dz, primal, dual = sol[:m0], min(1.0, primal), min(1.0, dual)
            mu_aff = (
                ((xs + dual * dxs) * (s + primal * ds)).sum() + (x + dual * dx) @ (z + primal * dz)
            ) / barrier
            target = min(1.0, mu_aff / mu) ** 3 * mu
            corr = dxs @ ds @ s_inv
            q = target * s_inv - 0.5 * (corr + corr.transpose(0, 2, 1))
            sol, _, dxs, dx, primal, dual = direction(q, target - dx * dz)
        except np.linalg.LinAlgError:
            stop = "stall"
            break
        primal = min(1.0, _STEP_FRACTION * primal)
        dual = min(1.0, _STEP_FRACTION * dual)
        if max(primal, dual) < _MIN_STEP or not all(np.isfinite(a).all() for a in (sol, dxs, dx)):
            stop = "stall"
            break
        z = z + primal * sol[:m0]
        t = t + primal * sol[m0]
        xs = xs + dual * dxs
        x = x + dual * dx
        y = y + dual * sol[m0 + 1]
    return best_z, lower, trace, stop == "gap", stop


def _minimize_l2(family: RankOnePencil, cfg: SolverConfig) -> ReweightResult:
    """Minimize the spectral objective over the simplex and measure the result.

    The interior-point method runs unless ``cfg.eta0`` sets a mirror-descent
    step size. Each works on a normalized pencil: mirror descent divides by
    ``||B||_F``; the interior-point method by ``max(||B||_F, max_k |f_k|^2)``,
    so that neither the base nor the factors dominate. ``cfg.tol`` applies to
    the normalized objective.
    """
    base = family.base.data
    scale = float(np.linalg.norm(base))
    if cfg.eta0 is None:
        solver, name = _interior_point, "interior-point method"
        scale = max(scale, float(np.einsum("ij,ij->i", family.factor, family.factor).max()))
    else:
        solver, name = _mirror_descent, "mirror descent"
    if scale <= 0.0:
        scale = 1.0
    scaled = RankOnePencil(base / scale, family.factor / math.sqrt(scale))
    z_best, lower, raw_trace, converged, stop = solver(scaled, cfg)
    achieved = 4.0 * _family_objective(family)(z_best)
    # the scaled bound passes the achieved value only by rounding
    lower = min(4.0 * scale * lower, achieved)
    if converged:
        warnings = ()
    elif stop == "stall":
        warnings = (
            f"{name} stalled after {len(raw_trace)} iterations before its gap closed; "
            "the weights are its best iterate",
        )
    else:
        plateau = "" if cfg.eta0 is None else " or it stabilized"
        warnings = (f"{name} hit max_iters={cfg.max_iters} before its gap closed{plateau}",)
    return ReweightResult(
        weights=SimplexVector.normalized(z_best),
        achieved_disc=achieved,
        lower_bound=lower,
        trace=tuple(4.0 * scale * v for v in raw_trace),
        converged=converged,
        warnings=warnings,
        iterations=len(raw_trace),
        stop_reason=stop,
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
