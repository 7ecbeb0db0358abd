import numpy as np
import pytest
import scipy.sparse as sp

from tsopt.hdarray import HyperDualArray, HyperDualMatrix
from tsopt.ldlt import SolverBreakdown, band_storage, ldlt_factor, ldlt_solve
from tsopt.mesh import band_layout
from tsopt.problems import experiment_mesh, interpolate_target, setup_problem
from tsopt.fem import assemble


def random_spd(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n)


def random_sym(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


def hd_system(rng, n, scale=1.0):
    """Random hyper-dual matrix (dense components) and right-hand side."""
    comps = [random_spd(rng, n)] + [scale * random_sym(rng, n)
                                    for _ in range(3)]
    matrix = HyperDualMatrix(*(sp.csr_matrix(c) for c in comps))
    return comps, matrix, HyperDualArray(*rng.normal(size=(4, n)))


def layout(a):
    pattern = a.re if isinstance(a, HyperDualMatrix) else a
    return band_layout(pattern.indptr, pattern.indices)


def factor(a):
    return ldlt_factor(a, layout(a))


def solve(a, b):
    return ldlt_solve(factor(a), b)


def test_real_solve_matches_lapack(rng):
    for n in (1, 2, 5, 20):
        a = random_spd(rng, n)
        b = rng.normal(size=n)
        x = solve(sp.csr_matrix(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_factorization_reconstructs_matrix():
    # the band array the LU factors holds exactly P A P^T: B[i, j] in row
    # 2w + i - j of column j, zeros elsewhere (fill-in room included)
    mesh = experiment_mesh(4)
    params = setup_problem(mesh, uhat="zero")
    real = assemble(mesh, interpolate_target(mesh), params).matrix
    sparse = sp.random(30, 30, density=0.1, random_state=3)
    sparse = sparse + sparse.T + 30 * sp.identity(30)
    sparse = sp.csr_matrix(sparse + 1j * 1e-3 * sparse)
    for a in (real, sparse):
        band = layout(a)
        w, n = band.width, a.shape[0]
        b = a.toarray()[band.perm][:, band.perm]
        assert np.array_equal(np.triu(np.tril(b, w), -w), b)
        expected = np.zeros(band.shape, dtype=b.dtype)
        for j in range(n):
            for i in range(max(0, j - w), min(n, j + w + 1)):
                expected[2 * w + i - j, j] = b[i, j]
        ab = band_storage(a, band)
        assert ab.dtype == a.dtype and ab.flags.f_contiguous
        assert np.array_equal(ab, expected)
    assert 0 < band.width < n - 1


def test_complex_symmetric_solve(rng):
    n = 12
    a0 = random_spd(rng, n)
    s = rng.normal(size=(n, n)) * 1e-3
    a = a0 + 1j * (s + s.T)     # complex symmetric, not Hermitian
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = solve(sp.csr_matrix(a), b)
    assert np.allclose(a @ x, b, atol=1e-10)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-12)


def test_hyperdual_solve_against_nilpotent_substitution(rng):
    # A x = b over hyper-duals decouples into real solves:
    # A0 x0 = b0, A0 x1 = b1 - A1 x0, A0 x2 = b2 - A2 x0,
    # A0 x12 = b12 - A1 x2 - A2 x1 - A12 x0
    (a0, a1, a2, a12), a, b = hd_system(rng, 10)

    x = solve(a, b)

    x0 = np.linalg.solve(a0, b.re)
    x1 = np.linalg.solve(a0, b.e1 - a1 @ x0)
    x2 = np.linalg.solve(a0, b.e2 - a2 @ x0)
    x12 = np.linalg.solve(a0, b.e12 - a1 @ x2 - a2 @ x1 - a12 @ x0)
    assert np.allclose(x.re, x0, atol=1e-12)
    assert np.allclose(x.e1, x1, atol=1e-12)
    assert np.allclose(x.e2, x2, atol=1e-12)
    assert np.allclose(x.e12, x12, atol=1e-12)


def test_hyperdual_residual_is_exact(rng):
    (a0, a1, a2, a12), a, b = hd_system(rng, 8, scale=0.1)
    x = solve(a, b)
    # components of A x - b, multiplied out with e1^2 = e2^2 = 0
    r = (a0 @ x.re - b.re,
         a0 @ x.e1 + a1 @ x.re - b.e1,
         a0 @ x.e2 + a2 @ x.re - b.e2,
         a0 @ x.e12 + a1 @ x.e2 + a2 @ x.e1 + a12 @ x.re - b.e12)
    for comp in r:
        assert np.abs(comp).max() < 1e-12


def test_breakdown_on_vanishing_pivot():
    # the second pivot is exactly zero whatever the ordering
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverBreakdown):
        factor(a)
    with pytest.raises(SolverBreakdown):
        factor(a.astype(complex))
    with pytest.raises(SolverBreakdown):
        factor(HyperDualMatrix(a, sp.identity(2, format="csr"), a, a))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_breakdown_on_non_finite_entry(rng, bad):
    a = sp.csr_matrix(random_spd(rng, 6))
    poisoned = a.copy()
    poisoned.data[7] = bad
    with pytest.raises(SolverBreakdown):
        factor(poisoned)
    with pytest.raises(SolverBreakdown):
        factor(poisoned.astype(complex))
    complex_poisoned = a.astype(complex)
    complex_poisoned.data[7] = complex(1.0, bad)
    with pytest.raises(SolverBreakdown):
        factor(complex_poisoned)
    for position in range(4):
        parts = [a, a, a, a]
        parts[position] = poisoned
        with pytest.raises(SolverBreakdown):
            factor(HyperDualMatrix(*parts))


def test_reuse_factorization(rng):
    a = random_spd(rng, 6)
    lu = factor(sp.csr_matrix(a.astype(complex)))
    for _ in range(3):
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(ldlt_solve(lu, b), np.linalg.solve(a, b),
                           atol=1e-12)
    (a0, a1, _, _), hd, _ = hd_system(rng, 6)
    lu = factor(hd)
    for _ in range(3):
        b = HyperDualArray(*rng.normal(size=(4, 6)))
        x = ldlt_solve(lu, b)
        x0 = np.linalg.solve(a0, b.re)
        assert np.allclose(x.re, x0, atol=1e-12)
        assert np.allclose(x.e1, np.linalg.solve(a0, b.e1 - a1 @ x0),
                           atol=1e-12)
