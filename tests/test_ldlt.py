import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tsopt import ldlt
from tsopt.hdarray import HyperDualArray, HyperDualMatrix
from tsopt.ldlt import (SolverBreakdown, band_layout, band_storage,
                        ldlt_factor, ldlt_solve)
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import experiment_mesh, interpolate_target, setup_problem
from tsopt.fem import assemble, solve_adjoint, solve_state
from tsopt.verify import analytic_field


def random_spd(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n)


def random_sym(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


def hd_system(rng, n, scale=1.0):
    """Random hyper-dual matrix (dense lanes) and right-hand side."""
    comps = [random_spd(rng, n)] + [scale * random_sym(rng, n)
                                    for _ in range(2)]
    matrix = HyperDualMatrix(*(sp.csr_matrix(c) for c in comps))
    return comps, matrix, HyperDualArray(*rng.normal(size=(3, n)))


def layout(a):
    pattern = a.re if isinstance(a, HyperDualMatrix) else a
    return band_layout(pattern)


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
    # a real matrix is stored for banded Cholesky: the lower triangle of
    # P A P^T, B[i, j] (i >= j) in row i - j of column j of w + 1 rows; a
    # complex one for banded LU: B[i, j] in row 2w + i - j of column j of
    # 3w + 1 rows (fill-in room included); zeros elsewhere
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
        lower = not np.iscomplexobj(b)
        top = 0 if lower else 2 * w
        expected = np.zeros((top + w + 1, n), dtype=b.dtype)
        for j in range(n):
            for i in range(j if lower else max(0, j - w), min(n, j + w + 1)):
                expected[top + i - j, j] = b[i, j]
        ab = band_storage(a, band)
        assert ab.dtype == a.dtype and ab.flags.f_contiguous
        assert ab.shape == ((w + 1, n) if lower else (3 * w + 1, n))
        assert np.array_equal(ab, expected)
        assert 0 < band.width < n - 1
    # the Cholesky factor of the real matrix multiplies back to P A P^T
    band = layout(real)
    w, n = band.width, real.shape[0]
    chol = ldlt_factor(real, band).ab
    ell = np.zeros((n, n))
    for j in range(n):
        for i in range(j, min(n, j + w + 1)):
            ell[i, j] = chol[i - j, j]
    b = real.toarray()[band.perm][:, band.perm]
    assert np.abs(ell @ ell.T - b).max() <= 1e-14 * np.abs(b).max()


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
    # A x = b over hyper-duals with E2 parts tied to E1 parts decouples into
    # real solves: A0 x0 = b0, A0 x1 = b1 - A1 x0,
    # A0 x12 = b12 - A1 x1 - A1 x1 - A12 x0
    (a0, a1, a12), a, b = hd_system(rng, 10)

    x = solve(a, b)

    x0 = np.linalg.solve(a0, b.re)
    x1 = np.linalg.solve(a0, b.e1 - a1 @ x0)
    x12 = np.linalg.solve(a0, b.e12 - a1 @ x1 - a1 @ x1 - a12 @ x0)
    assert np.allclose(x.re, x0, atol=1e-12)
    assert np.allclose(x.e1, x1, atol=1e-12)
    assert np.allclose(x.e12, x12, atol=1e-12)


def test_hyperdual_solve_makes_three_real_solves(rng, monkeypatch):
    calls = []
    real_solve = ldlt._band_solve

    def counted(factor, b):
        calls.append(None)
        return real_solve(factor, b)

    monkeypatch.setattr(ldlt, "_band_solve", counted)
    _, a, b = hd_system(rng, 10)
    lu = factor(a)
    solve_calls = len(calls)
    ldlt_solve(lu, b)
    assert solve_calls == 0 and len(calls) == 3


def test_hyperdual_residual_is_exact(rng):
    (a0, a1, a12), a, b = hd_system(rng, 8, scale=0.1)
    x = solve(a, b)
    # lanes of A x - b, multiplied out with E1^2 = E2^2 = 0 and the E2
    # parts equal to the E1 parts
    r = (a0 @ x.re - b.re,
         a0 @ x.e1 + a1 @ x.re - b.e1,
         a0 @ x.e12 + a1 @ x.e1 + a1 @ x.e1 + a12 @ x.re - b.e12)
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
        factor(HyperDualMatrix(a, sp.identity(2, format="csr"), a))


def test_breakdown_on_indefinite_real_matrix(rng):
    # nonsingular, so banded LU would factor it; Cholesky stops at the
    # first leading minor that is not positive definite
    with pytest.raises(SolverBreakdown, match="leading minor of order 2"):
        factor(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    a = sp.csr_matrix((q * np.linspace(-1.0, 2.0, 8)) @ q.T)
    with pytest.raises(SolverBreakdown, match="leading minor"):
        factor(a)
    with pytest.raises(SolverBreakdown, match="leading minor"):
        factor(HyperDualMatrix(a, a, a))
    b = rng.normal(size=8)
    assert np.allclose(solve(a.astype(complex), b),
                       np.linalg.solve(a.toarray(), b), atol=1e-10)


def test_complex_step_system_is_factored_once_by_banded_lu(monkeypatch):
    # complex-symmetric systems are not Hermitian: they take banded LU,
    # one factor shared by the state and adjoint solves; real and
    # hyper-dual systems take banded Cholesky of their real part
    mesh = experiment_mesh(4)
    params = setup_problem(mesh, uhat="zero")
    phi = interpolate_target(mesh)
    calls = []
    for name in ("dpbtrf", "zgbtrf"):
        def counted(*args, _real=getattr(ldlt, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(ldlt, name, counted)
    x = mesh.nodes[:, 0]
    for design, expected in ((phi + 1e-4j * x, ["zgbtrf"]),
                             (phi, ["dpbtrf"]),
                             (HyperDualArray(phi, x, x), ["dpbtrf"])):
        calls.clear()
        system = assemble(mesh, design, params)
        solve_adjoint(system, solve_state(system), params)
        assert calls == expected


def test_non_finite_solution_raises_at_every_entry_point(rng):
    a = sp.csr_matrix(random_spd(rng, 6))
    b = rng.normal(size=6)
    b[2] = np.nan
    for matrix in (a, a.astype(complex)):
        with pytest.raises(SolverBreakdown, match="solution"):
            solve(matrix, b)
    lanes = rng.normal(size=(3, 6))
    lanes[2, 4] = np.inf
    with pytest.raises(SolverBreakdown, match="solution"):
        solve(HyperDualMatrix(a, a, a), HyperDualArray(*lanes))
    # a NaN in the tracking target reaches the adjoint solve: the closed
    # form and the optimizer stop there instead of returning a NaN field or
    # failing later on the slerp angle
    mesh = experiment_mesh(4)
    params = setup_problem(mesh, uhat="zero")
    uhat = params.uhat.copy()
    uhat[mesh.reduced_index.free[5]] = np.nan
    poisoned = params.with_uhat(uhat)
    with pytest.raises(SolverBreakdown, match="solution"):
        analytic_field(mesh, interpolate_target(mesh), poisoned)
    with pytest.raises(SolverBreakdown, match="solution"):
        run(mesh, poisoned, OptimizerConfig(max_iter=3, snapshot_cadence=0))


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
    for position in range(3):
        parts = [a, a, a]
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
    (a0, a1, _), hd, _ = hd_system(rng, 6)
    lu = factor(hd)
    for _ in range(3):
        b = HyperDualArray(*rng.normal(size=(3, 6)))
        x = ldlt_solve(lu, b)
        x0 = np.linalg.solve(a0, b.re)
        assert np.allclose(x.re, x0, atol=1e-12)
        assert np.allclose(x.e1, np.linalg.solve(a0, b.e1 - a1 @ x0),
                           atol=1e-12)


_MESH_PATTERNS = [experiment_mesh(level).reduced_index.ff.pattern
                  for level in range(1, 9)]


@st.composite
def _symmetric_patterns(draw):
    """The reduced pattern of an experiment mesh, or a random structurally
    symmetric pattern with its diagonal."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_MESH_PATTERNS))
    n = draw(st.integers(1, 25))
    node = st.integers(0, n - 1)
    mask = np.eye(n, dtype=bool)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=4 * n)):
        mask[i, j] = mask[j, i] = True
    return sp.csr_matrix(mask.astype(float))


def _on_pattern(pattern, dense):
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    return sp.csr_matrix((dense[rows, pattern.indices], pattern.indices,
                          pattern.indptr), shape=pattern.shape)


def _assert_matches(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=150)
@given(_symmetric_patterns(), st.sampled_from(["real", "complex", "hd"]),
       st.integers(0, 2**32 - 1))
def test_banded_solves_match_dense_solves(pattern, kind, seed):
    rng = np.random.default_rng(seed)
    n = pattern.shape[0]
    mask = pattern.toarray() != 0

    def symmetric(scale=1.0):
        upper = np.triu(rng.uniform(-scale, scale, size=(n, n)), 1)
        return (upper + upper.T) * mask

    # strictly diagonally dominant, so symmetric positive definite
    off = symmetric()
    a0 = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    if kind == "hd":
        a1, a12 = symmetric(), symmetric()
        matrix = HyperDualMatrix(*(_on_pattern(pattern, part)
                                   for part in (a0, a1, a12)))
    else:
        if kind == "complex":
            # imaginary part at most 1e-3 of the real part, entry by entry
            a0 = a0 + 1j * symmetric(1e-3) * a0
        matrix = _on_pattern(pattern, a0)
    lu = ldlt_factor(matrix, layout(matrix))

    def check(b):
        x = ldlt_solve(lu, b)
        if kind != "hd":
            _assert_matches(x, np.linalg.solve(a0, b))
            return x
        x0 = np.linalg.solve(a0, b.re)
        x1 = np.linalg.solve(a0, b.e1 - a1 @ x0)
        x12 = np.linalg.solve(a0, b.e12 - a1 @ x1 - a1 @ x1 - a12 @ x0)
        for got, want in zip(x.lanes, (x0, x1, x12)):
            _assert_matches(got, want)
        return x

    def rhs():
        if kind == "hd":
            return HyperDualArray(*rng.normal(size=(3, n)))
        if kind == "complex":
            return rng.normal(size=n) + 1j * rng.normal(size=n)
        return rng.normal(size=n)

    # the factor stays reusable: a second right-hand side, then the first
    # again with the same bits
    first = rhs()
    x_first = check(first)
    check(rhs())
    again = ldlt_solve(lu, first)
    for got, want in zip(getattr(again, "lanes", (again,)),
                         getattr(x_first, "lanes", (x_first,))):
        assert np.array_equal(got, want)
