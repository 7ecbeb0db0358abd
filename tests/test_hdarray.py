import numpy as np
import pytest

from tsopt.hdarray import (HyperDualArray, generic_zeros, promote_like,
                           real_part, scatter_add, sign_array)
from tsopt.scalars import DivisionByZeroRealPart, HyperDual, scalar_sign


def random_hda(rng, shape):
    return HyperDualArray(rng.normal(size=shape), rng.normal(size=shape),
                          rng.normal(size=shape), rng.normal(size=shape))


def check_matches_scalars(arr, expected_fn, a, b):
    flat = arr.reshape(-1)
    fa = a.reshape(-1)
    fb = b.reshape(-1)
    for i in range(flat.shape[0]):
        want = expected_fn(fa[i], fb[i])
        got = flat[i]
        for u, v in zip((got.re, got.e1, got.e2, got.e12),
                        (want.re, want.e1, want.e2, want.e12)):
            assert u == pytest.approx(v, rel=1e-13, abs=1e-13)


def test_elementwise_ops_match_scalar_arithmetic(rng):
    a = random_hda(rng, (4, 3))
    b = random_hda(rng, (4, 3))
    b.re += 3.0  # keep real parts away from zero for division
    check_matches_scalars(a + b, lambda x, y: x + y, a, b)
    check_matches_scalars(a - b, lambda x, y: x - y, a, b)
    check_matches_scalars(a * b, lambda x, y: x * y, a, b)
    check_matches_scalars(a / b, lambda x, y: x / y, a, b)


def test_scalar_and_ndarray_operands(rng):
    a = random_hda(rng, 5)
    s = HyperDual(0.3, 1.0, 2.0, -1.0)
    r = np.linspace(1.0, 2.0, 5)
    assert isinstance(a * s, HyperDualArray)
    assert np.allclose((a * 2.0).re, 2.0 * a.re)
    assert np.allclose((r - a).re, r - a.re)
    assert np.allclose((r - a).e1, -a.e1)
    left = (s * a).reshape(-1)
    right = (a * s).reshape(-1)
    assert all(left[i] == right[i] for i in range(5))


def test_indexing_and_assignment():
    a = HyperDualArray.zeros((3, 3))
    a[1, 2] = HyperDual(1.0, 2.0, 3.0, 4.0)
    v = a[1, 2]
    assert isinstance(v, HyperDual) and v.e2 == 3.0
    sub = a[1]
    assert isinstance(sub, HyperDualArray) and sub.shape == (3,)
    a[0] = np.ones(3)
    assert np.allclose(a.re[0], 1.0) and np.allclose(a.e1[0], 0.0)


def test_sum_and_reductions(rng):
    a = random_hda(rng, (6, 3))
    total = a.sum()
    assert isinstance(total, HyperDual)
    assert total.re == pytest.approx(a.re.sum())
    rows = a.sum(axis=1)
    assert rows.shape == (6,)
    assert np.allclose(rows.e12, a.e12.sum(axis=1))


def test_reciprocal_requires_nonzero_real_parts():
    bad = HyperDualArray(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(DivisionByZeroRealPart):
        bad.reciprocal()


def test_sign_array_matches_scalar_rule(rng):
    a = random_hda(rng, 50)
    a.re[::5] = 0.0
    a.e1[::10] = 0.0
    signs = sign_array(a)
    flat = a.reshape(-1)
    for i in range(50):
        assert signs[i] == scalar_sign(flat[i])
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    z[::4] = 1j * z[::4].imag
    signs = sign_array(z)
    for i in range(20):
        assert signs[i] == scalar_sign(complex(z[i]))


def test_promote_and_zeros():
    phi = np.array([1.0, -2.0])
    assert promote_like(phi, 0.5).dtype == float
    assert promote_like(phi, 1j).dtype == complex
    hd = promote_like(phi, HyperDual(0, 1, 1, 0))
    assert isinstance(hd, HyperDualArray)
    z = generic_zeros((2, 2), like=hd)
    assert isinstance(z, HyperDualArray) and z.shape == (2, 2)
    assert generic_zeros(3, like=np.zeros(1, dtype=complex)).dtype == complex
    assert real_part(hd) is hd.re


def test_scatter_add_accumulates(rng):
    target = HyperDualArray.zeros(4)
    vals = random_hda(rng, 5)
    idx = np.array([0, 1, 1, 3, 3])
    scatter_add(target, idx, vals)
    assert target[1].re == pytest.approx(vals.re[1] + vals.re[2])
    assert target[3].e12 == pytest.approx(vals.e12[3] + vals.e12[4])
    plain = np.zeros(4)
    scatter_add(plain, idx, np.ones(5))
    assert plain.tolist() == [1.0, 2.0, 0.0, 2.0]
