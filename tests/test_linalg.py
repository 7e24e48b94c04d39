import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrep.linalg import (
    GaussianKernel,
    LinearKernel,
    PolynomialKernel,
    RankOnePencil,
    SymMatrix,
    _abs_max,
    _fix_signs,
    gram_matrix,
    psd_sqrt,
    spectral_abs_max,
    sym_eigen,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def test_sym_matrix_validation():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        SymMatrix(np.ones((2, 3)))
    m = SymMatrix(np.array([[1.0, 2.0], [2.0, 5.0]]))
    assert m.order == 2
    assert m.frobenius() == pytest.approx(np.sqrt(1 + 4 + 4 + 25))


def test_jacobi_identity_and_diagonal():
    vals, vecs = sym_eigen(np.eye(3))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(vecs, np.eye(3))
    vals, vecs = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(vals, [3.0, 2.0, 1.0])
    # columns are the standard basis vectors matching the sort order
    np.testing.assert_allclose(vecs[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(vecs[:, 1], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(vecs[:, 2], [0.0, 1.0, 0.0])


def test_jacobi_2x2_hand_values():
    # characteristic polynomial of [[0,1],[1,0]] is t^2 - 1 -> eigenvalues 1, -1
    vals, vecs = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(vecs), np.full((2, 2), np.sqrt(0.5)), atol=1e-12)
    # [[2,1],[1,2]]: t^2 - 4t + 3 -> 3 and 1
    vals, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)


def test_jacobi_reconstruction_and_residual():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 5, 8, 16, 40):
        a = random_symmetric(rng, n, scale=rng.uniform(0.5, 5.0))
        vals, vecs = sym_eigen(a)
        norm = np.linalg.norm(a)
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)
        np.testing.assert_allclose((vecs * vals) @ vecs.T, a, atol=1e-8 * max(1.0, norm))
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0).max()
        assert resid <= 1e-9 * (1.0 + norm)


def test_jacobi_matches_library_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        a = random_symmetric(rng, n, scale=3.0)
        vals, _ = sym_eigen(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        np.testing.assert_allclose(vals, ref, atol=1e-9 * (1 + np.linalg.norm(a)))


def test_jacobi_sign_convention_deterministic():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 6)
    _, v1 = sym_eigen(a)
    _, v2 = sym_eigen(a.copy())
    np.testing.assert_array_equal(v1, v2)
    for j in range(v1.shape[1]):
        lead = np.nonzero(np.abs(v1[:, j]) > 1e-12)[0][0]
        assert v1[lead, j] > 0


def test_spectral_abs_max_basics():
    val, u = spectral_abs_max(np.diag([-3.0, 2.0]))
    assert val == pytest.approx(3.0)
    assert abs(u @ np.diag([-3.0, 2.0]) @ u) == pytest.approx(3.0)
    val, u = spectral_abs_max(np.zeros((2, 2)))
    assert val == 0.0


def test_spectral_abs_max_tie_prefers_positive_branch():
    val, u = spectral_abs_max(np.diag([2.0, -2.0]))
    assert val == pytest.approx(2.0)
    assert u @ np.diag([2.0, -2.0]) @ u == pytest.approx(2.0)  # + branch witness


def test_spectral_abs_max_properties():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = random_symmetric(rng, n, scale=2.0)
        val, u = spectral_abs_max(a)
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        assert val == pytest.approx(ref, abs=1e-9 * (1 + np.linalg.norm(a)))
        assert abs(u @ a @ u) == pytest.approx(val, abs=1e-9 * (1 + np.linalg.norm(a)))
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
        neg_val, _ = spectral_abs_max(-a)
        assert neg_val == pytest.approx(val, abs=1e-12 * (1 + val))
        c = float(rng.normal())
        scaled, _ = spectral_abs_max(c * a)
        assert scaled == pytest.approx(abs(c) * val, rel=1e-9, abs=1e-12)


def sorted_abs_max(a):
    """spectral_abs_max read off the full descending decomposition."""
    vals, vecs = sym_eigen(a)
    if vals[0] >= -vals[-1]:
        return float(vals[0]), vecs[:, 0]
    return float(-vals[-1]), vecs[:, -1]


@st.composite
def spectra(draw):
    """Symmetric matrices with repeated eigenvalues and signed zeros: a
    diagonal drawn from a small alphabet, optionally rotated, or a dense draw."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["diagonal", "rotated", "dense"]))
    if kind == "dense":
        flat = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * n, max_size=n * n))
        a = np.array(flat).reshape(n, n)
        return a + a.T
    alphabet = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(-1e3, 1e3)
    a = np.diag(draw(st.lists(alphabet, min_size=n, max_size=n)))
    if kind == "diagonal":
        return a
    rot, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, n)))
    return rot @ a @ rot.T


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_abs_max_matches_sorted_decomposition_bitwise(a):
    want_val, want_vec = sorted_abs_max(a)
    raw_val, raw_vec = _abs_max(a)
    val, vec = spectral_abs_max(a)
    for got in (raw_val, val):
        assert np.float64(got).tobytes() == np.float64(want_val).tobytes()
    assert vec.tobytes() == want_vec.tobytes()
    assert _fix_signs(raw_vec[:, None])[:, 0].tobytes() == want_vec.tobytes()


def test_psd_sqrt_diagonal_and_roundtrip():
    r = psd_sqrt(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(r.data, np.diag([2.0, 3.0]), atol=1e-12)
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        b = rng.normal(size=(n, n))
        k = b @ b.T
        r = psd_sqrt(k).data
        assert np.linalg.norm(r @ r - k) <= 1e-8 * (1.0 + np.linalg.norm(k))
        np.testing.assert_allclose(r, r.T, atol=1e-12)
        # idempotence on an already-PSD root: sqrt(r)^2 == r
        r2 = psd_sqrt(r).data
        assert np.linalg.norm(r2 @ r2 - r) <= 1e-7 * (1.0 + np.linalg.norm(r))


def test_psd_sqrt_clamps_tiny_negatives_and_rejects_indefinite():
    k = np.diag([1.0, -0.5e-9])
    r = psd_sqrt(k).data
    assert r[1, 1] == 0.0
    with pytest.raises(ValueError, match="matrix not PSD"):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_gram_matrix_kernels():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    lin = gram_matrix(pts, LinearKernel()).data
    np.testing.assert_allclose(lin, pts @ pts.T)
    g = gram_matrix(pts, GaussianKernel(0.5)).data
    np.testing.assert_allclose(np.diag(g), 1.0)
    assert g[0, 1] == pytest.approx(np.exp(-0.5))
    assert g[0, 2] == pytest.approx(np.exp(-2.0))
    poly = gram_matrix(pts, PolynomialKernel(1.0, 2)).data
    assert poly[1, 2] == pytest.approx(1.0)  # (0 + 1)^2
    assert poly[1, 1] == pytest.approx(4.0)  # (1 + 1)^2


def test_kernel_validation():
    with pytest.raises(ValueError, match="gamma"):
        GaussianKernel(0.0)
    with pytest.raises(ValueError, match="gamma"):
        GaussianKernel(-1.0)
    with pytest.raises(ValueError):
        PolynomialKernel(-1.0, 2)
    with pytest.raises(ValueError):
        PolynomialKernel(1.0, 0)
    assert GaussianKernel(1.0).kappa(np.array([[5.0]])) == 1.0
    assert LinearKernel().kappa(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_affine_family_evaluate():
    # the single term diag(1, 0) is the rank-one outer((1, 0), (1, 0))
    fam = RankOnePencil(np.eye(2), np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(fam.evaluate([0.5]).data, np.diag([0.5, 1.0]))
    assert fam.order == 2 and fam.n_terms == 1
    with pytest.raises(ValueError, match="at least one term"):
        RankOnePencil(np.eye(2), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="share the base matrix order"):
        RankOnePencil(np.eye(2), np.ones((1, 3)))
    with pytest.raises(ValueError, match="align with the terms"):
        fam.evaluate([0.5, 0.5])


# --------------------------------------------------------------------------
# property-based checks
# --------------------------------------------------------------------------

SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])


@st.composite
def repeated_spectrum_matrices(draw):
    """Q diag(lam) Q' with eigenvalues drawn from a few integers, so repeats are common."""
    n = draw(st.integers(1, 7))
    lam = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return draw(SCALES) * (q * lam) @ q.T


@st.composite
def signed_zero_matrices(draw):
    """Symmetric matrices whose entries are mostly +0.0 and -0.0."""
    n = draw(st.integers(1, 7))
    entries = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5])
    upper = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    a = np.triu(upper) + np.triu(upper, 1).T
    return draw(SCALES) * a


@settings(max_examples=150, deadline=None)
@given(st.one_of(repeated_spectrum_matrices(), signed_zero_matrices()))
def test_sym_eigen_contract_properties(a):
    n = a.shape[0]
    vals, vecs = sym_eigen(a)
    norm = np.linalg.norm(a)
    assert np.all(np.diff(vals) <= 0.0)
    np.testing.assert_allclose(vals, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-12 * norm)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, a, atol=1e-9 * norm)
    for j in range(n):
        lead = np.nonzero(np.abs(vecs[:, j]) > 1e-12)[0][0]
        assert vecs[lead, j] > 0
    again_vals, again_vecs = sym_eigen(a.copy())
    np.testing.assert_array_equal(again_vals, vals)
    np.testing.assert_array_equal(again_vecs, vecs)


@st.composite
def pencils_and_weights(draw):
    order = draw(st.integers(1, 6))
    n_terms = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(SCALES)
    base = random_symmetric(rng, order, scale=scale**2)
    factor = scale * rng.normal(size=(n_terms, order))
    z = rng.dirichlet(np.ones(n_terms))
    return base, factor, z


@settings(max_examples=150, deadline=None)
@given(pencils_and_weights())
def test_rank_one_pencil_matches_stacked_terms(case):
    base, factor, z = case
    expected = base.copy()
    for zk, fk in zip(z, factor):
        expected -= zk * np.outer(fk, fk)
    got = RankOnePencil(base, factor).evaluate(z).data
    size = np.linalg.norm(base) + float(z @ np.sum(factor * factor, axis=1))
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * size)
