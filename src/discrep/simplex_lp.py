"""Dense simplex solver for small linear programs, worked on the dual tableau.

Solves min c.x subject to A x <= b, x >= 0. Equality constraints are encoded
by the caller as opposing inequality pairs. The dual of that problem has the
same form, min b.w subject to -A' w <= c, w >= 0, and ``solve_lp`` hands it to
a textbook two-phase tableau method with Bland's anti-cycling pivot rule. The
primal solution x is read off the dual's final reduced costs on its slack
columns. The programs the reweighting solvers produce are tall and thin (many
region rows, few weights) with c >= 0, so the dual tableau has one row per
primal variable and starts feasible: phase 1 never runs there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    objective: float


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _bland_iterate(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iters: int
) -> bool:
    """Run simplex iterations on (tableau, cost) until optimality.

    ``cost`` is the reduced-cost row (same column count as the tableau, last
    entry holding the negated objective). Returns False when the objective is
    unbounded below, True at an optimum.
    """
    m = tableau.shape[0]
    for _ in range(max_iters):
        entering = -1
        for j in range(tableau.shape[1] - 1):
            if cost[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return True
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            coef = tableau[i, entering]
            if coef > PIVOT_TOL:
                ratio = tableau[i, -1] / coef
                if ratio < best_ratio - PIVOT_TOL or (
                    ratio < best_ratio + PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = min(ratio, best_ratio)
                    leaving = i
        if leaving < 0:
            return False
        _pivot(tableau, basis, leaving, entering)
        cost -= cost[entering] * tableau[leaving]
    raise ArithmeticError(f"simplex iteration cap exceeded ({max_iters} pivots)")


def _two_phase(c: np.ndarray, a: np.ndarray, b: np.ndarray, max_iters: int):
    """Minimize ``c . x`` subject to ``a @ x <= b``, ``x >= 0`` on a dense tableau.

    Returns ``(status, cost)``: status is "optimal", "infeasible" or
    "unbounded", and at an optimum ``cost`` is the final reduced-cost row over
    the n structural and m slack columns, then the negated objective.
    """
    m, n = a.shape
    # Tableau columns: n structural, m slack, then one artificial per row whose
    # right-hand side is negative (after sign normalization), then the RHS.
    negative = b < 0
    n_art = int(negative.sum())
    width = n + m + n_art + 1
    tableau = np.zeros((m, width))
    tableau[:, :n] = a
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = b
    tableau[negative] *= -1.0
    basis = np.arange(n, n + m)
    if n_art:
        rows = np.flatnonzero(negative)
        art = np.arange(n + m, n + m + n_art)
        tableau[rows, art] = 1.0
        basis[rows] = art
        phase1 = np.zeros(width)
        phase1[art] = 1.0
        phase1 -= tableau[rows].sum(axis=0)
        _bland_iterate(tableau, basis, phase1, max_iters)  # bounded below by 0
        if -phase1[-1] > 1e-8:
            return "infeasible", None
        for i in range(m):
            if basis[i] >= n + m:
                # Degenerate artificial still in the basis: pivot it out on any
                # usable structural or slack column, else the row is redundant.
                for j in range(n + m):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        _pivot(tableau, basis, i, j)
                        break
        keep = basis < n + m
        tableau = np.hstack([tableau[keep, : n + m], tableau[keep, -1:]])
        basis = basis[keep]

    cost = np.zeros(tableau.shape[1])
    cost[:n] = c
    for i, var in enumerate(basis):
        if var < n and cost[var] != 0.0:
            cost -= cost[var] * tableau[i]
    if not _bland_iterate(tableau, basis, cost, max_iters):
        return "unbounded", None
    return "optimal", cost


def solve_lp(c, a_ub, b_ub, max_iters: int = 10000) -> LPResult:
    """Minimize ``c . x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``.

    Where the optimum is not unique, ``x`` is one optimal vertex. Raises
    ``ValueError`` for an infeasible or unbounded program and
    ``ArithmeticError`` when a simplex phase needs more than ``max_iters``
    pivots.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    if a.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,) or m == 0 or n == 0:
        raise ValueError("inconsistent LP dimensions")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("LP data must be finite")

    # The dual: min b.w subject to -A' w <= c, w >= 0.
    status, cost = _two_phase(b, -a.T, c, max_iters)
    if status == "unbounded":
        raise ValueError("LP is infeasible")
    if status == "infeasible":
        # The primal is infeasible or unbounded. The zero-cost dual is feasible
        # at w = 0, and it is unbounded exactly when the primal is infeasible.
        if _two_phase(b, -a.T, np.zeros(n), max_iters)[0] == "unbounded":
            raise ValueError("LP is infeasible")
        raise ValueError("LP is unbounded")
    # The reduced costs on the dual's n slack columns are the primal solution.
    x = cost[m : m + n].copy()
    x[np.abs(x) < PIVOT_TOL] = 0.0
    return LPResult(x=x, objective=float(c @ x))
