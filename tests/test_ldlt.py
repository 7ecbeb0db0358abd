import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import band_to_dense, dense_to_band
from tsopt import ldlt
from tsopt.hdarray import HyperDualArray
from tsopt.ldlt import SolverBreakdown, band_layout, ldlt_factor, ldlt_solve
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
    return comps, HyperDualArray(*rng.normal(size=(3, n)))


def layout(mask):
    """Band layout of the nonzero pattern of the dense ``mask``, one entry
    per nonzero."""
    rows, cols = np.nonzero(mask)
    return band_layout(rows, cols, np.arange(len(rows)), len(mask))


def factor(*lanes):
    """Factor the dense matrix ``lanes[0]``, or the hyper-dual one of the
    three dense ``lanes``, in the band of its real lane's pattern."""
    band = layout(lanes[0])
    ab = [dense_to_band(lane, band) for lane in lanes]
    return ldlt_factor(HyperDualArray(*ab) if len(ab) == 3 else ab[0], band)


def solve(b, *lanes):
    return ldlt_solve(factor(*lanes), b)


def test_real_solve_matches_lapack(rng):
    for n in (1, 2, 5, 20):
        a = random_spd(rng, n)
        b = rng.normal(size=n)
        x = solve(b, a)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_factorization_reconstructs_matrix(monkeypatch):
    # a real system is its lower band for banded Cholesky: the lower
    # triangle of P A P^T, B[i, j] (i >= j) in row i - j of column j of
    # w + 1 rows; a complex one is mirrored for banded LU: B[i, j] in row
    # 2w + i - j of column j of 3w + 1 rows (fill-in room included); zeros
    # elsewhere
    mesh = experiment_mesh(4)
    params = setup_problem(mesh, uhat="zero")
    real = assemble(mesh, interpolate_target(mesh), params).matrix
    sparse = sp.random(30, 30, density=0.1, random_state=3)
    sparse = sparse + sparse.T + 30 * sp.identity(30)
    sparse = (sparse + 1j * 1e-3 * sparse).toarray()
    lu_storage = []

    def captured(ab, *args, _real=ldlt.zgbtrf, **kwargs):
        lu_storage.append(ab.copy(order="F"))
        return _real(ab, *args, **kwargs)

    monkeypatch.setattr(ldlt, "zgbtrf", captured)
    for a, band in ((real, mesh.reduced_index.band),
                    (sparse, layout(sparse))):
        w, n = band.width, len(band.perm)
        lower = not np.iscomplexobj(a)
        b = (band_to_dense(a, band) if lower else a)[band.perm][:, band.perm]
        assert np.array_equal(np.triu(np.tril(b, w), -w), b)
        top = 0 if lower else 2 * w
        expected = np.zeros((top + w + 1, n), dtype=b.dtype)
        for j in range(n):
            for i in range(j if lower else max(0, j - w), min(n, j + w + 1)):
                expected[top + i - j, j] = b[i, j]
        if lower:
            ab = a
        else:
            ldlt_factor(dense_to_band(a, band), band)
            ab = lu_storage.pop()
        assert ab.dtype == a.dtype and ab.flags.f_contiguous
        assert ab.shape == ((w + 1, n) if lower else (3 * w + 1, n))
        assert np.array_equal(ab, expected)
        assert 0 < band.width < n - 1
    # the Cholesky factor of the real matrix multiplies back to P A P^T,
    # and the system keeps its band
    band = mesh.reduced_index.band
    w, n = band.width, real.shape[1]
    kept = real.copy()
    chol = ldlt_factor(real, band).ab
    assert np.array_equal(real, kept)
    ell = np.zeros((n, n))
    for j in range(n):
        for i in range(j, min(n, j + w + 1)):
            ell[i, j] = chol[i - j, j]
    b = band_to_dense(real, band)[band.perm][:, band.perm]
    assert np.abs(ell @ ell.T - b).max() <= 1e-14 * np.abs(b).max()


def test_complex_symmetric_solve(rng):
    n = 12
    a0 = random_spd(rng, n)
    s = rng.normal(size=(n, n)) * 1e-3
    a = a0 + 1j * (s + s.T)     # complex symmetric, not Hermitian
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = solve(b, a)
    assert np.allclose(a @ x, b, atol=1e-10)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-12)


def test_hyperdual_solve_against_nilpotent_substitution(rng):
    # A x = b over hyper-duals with E2 parts tied to E1 parts decouples into
    # real solves: A0 x0 = b0, A0 x1 = b1 - A1 x0,
    # A0 x12 = b12 - A1 x1 - A1 x1 - A12 x0
    (a0, a1, a12), b = hd_system(rng, 10)

    x = solve(b, a0, a1, a12)

    x0 = np.linalg.solve(a0, b.re)
    x1 = np.linalg.solve(a0, b.e1 - a1 @ x0)
    x12 = np.linalg.solve(a0, b.e12 - a1 @ x1 - a1 @ x1 - a12 @ x0)
    assert np.allclose(x.re, x0, atol=1e-12)
    assert np.allclose(x.e1, x1, atol=1e-12)
    assert np.allclose(x.e12, x12, atol=1e-12)


def test_hyperdual_solve_makes_three_real_solves(rng, monkeypatch):
    calls = []
    real_solve = ldlt._permuted_solve

    def counted(factor, b):
        calls.append(None)
        return real_solve(factor, b)

    monkeypatch.setattr(ldlt, "_permuted_solve", counted)
    comps, b = hd_system(rng, 10)
    lu = factor(*comps)
    solve_calls = len(calls)
    ldlt_solve(lu, b)
    assert solve_calls == 0 and len(calls) == 3


def test_hyperdual_residual_is_exact(rng):
    (a0, a1, a12), b = hd_system(rng, 8, scale=0.1)
    x = solve(b, a0, a1, a12)
    # lanes of A x - b, multiplied out with E1^2 = E2^2 = 0 and the E2
    # parts equal to the E1 parts
    r = (a0 @ x.re - b.re,
         a0 @ x.e1 + a1 @ x.re - b.e1,
         a0 @ x.e12 + a1 @ x.e1 + a1 @ x.e1 + a12 @ x.re - b.e12)
    for comp in r:
        assert np.abs(comp).max() < 1e-12


def test_breakdown_on_vanishing_pivot():
    # the second pivot is exactly zero whatever the ordering
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverBreakdown):
        factor(a)
    with pytest.raises(SolverBreakdown):
        factor(a.astype(complex))
    with pytest.raises(SolverBreakdown):
        factor(a, np.identity(2), a)


def test_breakdown_on_indefinite_real_matrix(rng):
    # nonsingular, so banded LU would factor it; Cholesky stops at the
    # first leading minor that is not positive definite
    with pytest.raises(SolverBreakdown, match="leading minor of order 2"):
        factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    a = (q * np.linspace(-1.0, 2.0, 8)) @ q.T
    with pytest.raises(SolverBreakdown, match="leading minor"):
        factor(a)
    with pytest.raises(SolverBreakdown, match="leading minor"):
        factor(a, a, a)
    b = rng.normal(size=8)
    assert np.allclose(solve(b, a.astype(complex)), np.linalg.solve(a, b),
                       atol=1e-10)


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
    a = random_spd(rng, 6)
    b = rng.normal(size=6)
    b[2] = np.nan
    for matrix in (a, a.astype(complex)):
        with pytest.raises(SolverBreakdown, match="solution"):
            solve(b, matrix)
    lanes = rng.normal(size=(3, 6))
    lanes[2, 4] = np.inf
    with pytest.raises(SolverBreakdown, match="solution"):
        solve(HyperDualArray(*lanes), a, a, a)
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
    a = random_spd(rng, 6)
    poisoned = a.copy()
    poisoned.flat[7] = bad
    with pytest.raises(SolverBreakdown):
        factor(poisoned)
    with pytest.raises(SolverBreakdown):
        factor(poisoned.astype(complex))
    complex_poisoned = a.astype(complex)
    complex_poisoned.flat[7] = complex(1.0, bad)
    with pytest.raises(SolverBreakdown):
        factor(complex_poisoned)
    for position in range(3):
        parts = [a, a, a]
        parts[position] = poisoned
        with pytest.raises(SolverBreakdown):
            factor(*parts)


def test_reuse_factorization(rng):
    a = random_spd(rng, 6)
    lu = factor(a.astype(complex))
    for _ in range(3):
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(ldlt_solve(lu, b), np.linalg.solve(a, b),
                           atol=1e-12)
    (a0, a1, a12), _ = hd_system(rng, 6)
    lu = factor(a0, a1, a12)
    for _ in range(3):
        b = HyperDualArray(*rng.normal(size=(3, 6)))
        x = ldlt_solve(lu, b)
        x0 = np.linalg.solve(a0, b.re)
        assert np.allclose(x.re, x0, atol=1e-12)
        assert np.allclose(x.e1, np.linalg.solve(a0, b.e1 - a1 @ x0),
                           atol=1e-12)


def _free_pattern(mesh):
    """The free x free pattern of a mesh's P1 matrices, which is that of
    its one-ring adjacency, as a dense mask."""
    free = mesh.reduced_index.free
    return mesh.ring_matrix.toarray()[np.ix_(free, free)] != 0


_MESH_PATTERNS = [_free_pattern(experiment_mesh(level))
                  for level in range(1, 9)]


@st.composite
def _symmetric_patterns(draw):
    """The reduced pattern of an experiment mesh, or a random structurally
    symmetric pattern with its diagonal, as a dense mask."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_MESH_PATTERNS))
    n = draw(st.integers(1, 25))
    node = st.integers(0, n - 1)
    mask = np.eye(n, dtype=bool)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=4 * n)):
        mask[i, j] = mask[j, i] = True
    return mask


def _assert_matches(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=150)
@given(_symmetric_patterns(), st.sampled_from(["real", "complex", "hd"]),
       st.integers(0, 2**32 - 1))
def test_banded_solves_match_dense_solves(mask, kind, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)

    def symmetric(scale=1.0):
        upper = np.triu(rng.uniform(-scale, scale, size=(n, n)), 1)
        return (upper + upper.T) * mask

    # strictly diagonally dominant, so symmetric positive definite
    off = symmetric()
    a0 = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    band = layout(mask)
    if kind == "hd":
        a1, a12 = symmetric(), symmetric()
        matrix = HyperDualArray(*(dense_to_band(part, band)
                                  for part in (a0, a1, a12)))
    else:
        if kind == "complex":
            # imaginary part at most 1e-3 of the real part, entry by entry
            a0 = a0 + 1j * symmetric(1e-3) * a0
        matrix = dense_to_band(a0, band)
    lu = ldlt_factor(matrix, band)

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
