"""Tests for the dense simplex solver, which works on the dual tableau."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from discrep.simplex_lp import LPResult, solve_lp


def test_simple_maximization_as_minimization():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  optimum at (1.6, 1.2).
    res = solve_lp(c=[-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert res.x == pytest.approx([1.6, 1.2])
    assert res.objective == pytest.approx(-2.8)


def test_negative_rhs_forces_phase_one():
    # min x s.t. x >= 3 (encoded as -x <= -3).
    res = solve_lp(c=[1.0], a_ub=[[-1.0]], b_ub=[-3.0])
    assert res.x == pytest.approx([3.0])
    assert res.objective == pytest.approx(3.0)


def test_equality_via_paired_inequalities():
    # min 2a + b s.t. a + b = 1, a,b >= 0 -> b = 1.
    a_ub = [[1.0, 1.0], [-1.0, -1.0]]
    res = solve_lp(c=[2.0, 1.0], a_ub=a_ub, b_ub=[1.0, -1.0])
    assert res.x == pytest.approx([0.0, 1.0])
    assert res.objective == pytest.approx(1.0)


def test_infeasible_raises():
    # x <= 1 and x >= 2 cannot both hold.
    with pytest.raises(ValueError, match="infeasible"):
        solve_lp(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])


def test_unbounded_raises():
    with pytest.raises(ValueError, match="unbounded"):
        solve_lp(c=[-1.0], a_ub=[[-1.0]], b_ub=[0.0])


def test_iteration_cap_raises():
    with pytest.raises(ArithmeticError, match="iteration cap"):
        solve_lp(c=[-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6], max_iters=1)


def test_degenerate_redundant_rows():
    # Duplicate equality rows leave a zero-level artificial to clean up.
    a_ub = [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]
    res = solve_lp(c=[1.0, 3.0], a_ub=a_ub, b_ub=[1.0, -1.0, 1.0, -1.0])
    assert res.x == pytest.approx([1.0, 0.0])
    assert res.objective == pytest.approx(1.0)


def test_invalid_inputs():
    with pytest.raises(ValueError, match="dimensions"):
        solve_lp(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="finite"):
        solve_lp(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="two-dimensional"):
        solve_lp(c=[1.0], a_ub=[1.0], b_ub=[1.0])


def test_result_type():
    res = solve_lp(c=[0.0], a_ub=[[1.0]], b_ub=[1.0])
    assert isinstance(res, LPResult)
    assert res.x.shape == (1,)


def test_random_instances_match_scipy():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(120):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        if ref.status in (2, 3):
            # HiGHS presolve may conflate infeasible and unbounded, so only
            # require agreement that no finite optimum exists.
            with pytest.raises(ValueError, match="infeasible|unbounded"):
                solve_lp(c, a, b)
            checked += 1
            continue
        assert ref.status == 0
        res = solve_lp(c, a, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(res.x >= -1e-9)
        assert np.all(a @ res.x <= b + 1e-7)
        checked += 1
    assert checked == 120


def test_random_discrepancy_shaped_instances_match_scipy():
    # Mimic the reweighting LP shape: minimize t subject to mass-gap rows.
    rng = np.random.default_rng(23)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, 9))
        masses = rng.dirichlet(np.ones(r))
        members = rng.integers(0, 2, size=(r, k)).astype(float)
        # Variables (z_1..z_k, t): rows +/- (sum_{i in a} z_i - mass_a) <= t.
        a_rows = []
        b_rows = []
        for j in range(r):
            a_rows.append(np.append(members[j], -1.0))
            b_rows.append(masses[j])
            a_rows.append(np.append(-members[j], -1.0))
            b_rows.append(-masses[j])
        a_rows.append(np.append(np.ones(k), 0.0))
        b_rows.append(1.0)
        a_rows.append(np.append(-np.ones(k), 0.0))
        b_rows.append(-1.0)
        c = np.zeros(k + 1)
        c[-1] = 1.0
        a = np.array(a_rows)
        b = np.array(b_rows)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        res = solve_lp(c, a, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-8)


def test_primal_and_dual_both_infeasible_raises_infeasible():
    # min -x1 - x2 s.t. x1 - x2 <= -1 and -x1 + x2 <= -1: the rows sum to 0 <= -2,
    # and the dual, -w1 + w2 <= -1 and w1 - w2 <= -1, is infeasible as well.
    with pytest.raises(ValueError, match="LP is infeasible"):
        solve_lp(c=[-1.0, -1.0], a_ub=[[1.0, -1.0], [-1.0, 1.0]], b_ub=[-1.0, -1.0])


def test_iteration_cap_limits_the_dual_solve():
    # c >= 0, so the dual starts feasible and only its phase 2 runs.
    # Variables (z1, z2, t): |z1 - 0.3| <= t, |z2 - 0.7| <= t, z1 + z2 = 1.
    c = [0.0, 0.0, 1.0]
    a_ub = [
        [1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, -1.0],
        [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0],
    ]
    b_ub = [0.3, -0.3, 0.7, -0.7, 1.0, -1.0]
    with pytest.raises(ArithmeticError, match="iteration cap"):
        solve_lp(c, a_ub, b_ub, max_iters=1)
    res = solve_lp(c, a_ub, b_ub)
    assert res.x == pytest.approx([0.3, 0.7, 0.0], abs=1e-12)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


ENTRIES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def tall_lps(draw):
    """LPs with many more rows than columns, built from a few base rows plus
    duplicates, zero rows and sign-flipped rows (equalities where both are tight), over
    small dyadic entries. Half the programs place every right-hand side at or
    just above its row's value at a point ``x0 >= 0``, so they are feasible,
    and the many rows tight at ``x0`` make it a degenerate vertex. The other
    half draw right-hand sides freely and are mostly infeasible."""
    n = draw(st.integers(1, 5))
    x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    anchored = draw(st.booleans())

    def placed(row, value):
        if anchored:
            return row, float(np.dot(row, x0)) + draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]))
        return row, value

    def new_row():
        return placed(draw(st.lists(ENTRIES, min_size=n, max_size=n)), draw(ENTRIES))

    rows, rhs = map(list, zip(*[new_row() for _ in range(draw(st.integers(1, 6)))]))
    for _ in range(draw(st.integers(3 * n, 8 * n + 10))):
        kind = draw(st.sampled_from(["duplicate", "flip", "zero", "new"]))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            row, value = rows[i], rhs[i]
        elif kind == "flip":
            row, value = placed([-v for v in rows[i]], -rhs[i])
        elif kind == "zero":
            row, value = [0.0] * n, draw(st.sampled_from([0.0, 1.0]))
        else:
            row, value = new_row()
        rows.append(row)
        rhs.append(value)
    order = draw(st.permutations(range(len(rows))))
    c = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    return np.array(c), np.array(rows)[order], np.array(rhs)[order]


@settings(max_examples=300, deadline=None)
@given(tall_lps())
def test_tall_lps_match_highs(lp):
    c, a, b = lp
    ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert ref.status in (0, 2, 3)
    if ref.status != 0:
        # A zero-cost program cannot be unbounded, so HiGHS's verdict on it
        # tells an infeasible program from an unbounded one.
        feasible = linprog(np.zeros_like(c), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert feasible.status in (0, 2)
        verdict = "infeasible" if feasible.status == 2 else "unbounded"
        with pytest.raises(ValueError, match=f"LP is {verdict}"):
            solve_lp(c, a, b)
        return
    res = solve_lp(c, a, b)
    assert res.objective == pytest.approx(ref.fun, rel=0.0, abs=1e-9)
    assert np.all(res.x >= 0.0)
    assert np.all(a @ res.x <= b + 1e-9)
