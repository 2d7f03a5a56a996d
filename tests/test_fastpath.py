import numpy as np
import pytest

from matpi import fastpath
from matpi.matrices import Matrix
from matpi.rings import GF
from matpi.standardpoly import _eval_standard_dp_py, _eval_standard_naive_py

F = GF(101)


def random_mats(rng, t, n):
    return [Matrix(F, n, n, [int(x) for x in rng.integers(0, 101, n * n)])
            for _ in range(t)]


def test_supports_budget():
    assert fastpath.supports(101, 3, 8)
    # t*n*(p-1)^2 must stay under 2^62
    huge_p = 2**31
    assert not fastpath.supports(huge_p, 4, 8)


def test_roundtrip_conversions():
    rng = np.random.default_rng(0)
    mats = random_mats(rng, 3, 2)
    arr = fastpath.mats_to_array(mats)
    assert arr.shape == (3, 2, 2)
    back = fastpath.array_to_matrix(F, arr[1])
    assert back == mats[1]


@pytest.mark.parametrize("t,n", [(2, 2), (3, 2), (4, 3), (6, 2), (8, 2), (10, 2)])
def test_dp_batch_matches_pure(t, n):
    rng = np.random.default_rng(t * 31 + n)
    cases = [random_mats(rng, t, n) for _ in range(5)]
    stack = np.stack([fastpath.mats_to_array(ms) for ms in cases], axis=1)
    out = fastpath.dp_batch(stack, 101)
    for b, ms in enumerate(cases):
        got = fastpath.array_to_matrix(F, out[b])
        assert got == _eval_standard_dp_py(ms)


@pytest.mark.parametrize("t,n", [(2, 2), (4, 2), (5, 3), (8, 2)])
def test_naive_single_matches_pure(t, n):
    rng = np.random.default_rng(t * 17 + n)
    for _ in range(3):
        ms = random_mats(rng, t, n)
        arr = fastpath.mats_to_array(ms)
        got = fastpath.array_to_matrix(F, fastpath.naive_single(arr, 101))
        assert got == _eval_standard_naive_py(ms)


def test_naive_vs_dp_cross_check():
    rng = np.random.default_rng(5)
    for _ in range(3):
        ms = random_mats(rng, 7, 2)
        a = fastpath.naive_to_matrix(ms)
        b = fastpath.dp_to_matrix(ms)
        assert a == b


def test_combos_to_stack():
    rng = np.random.default_rng(9)
    basis = random_mats(rng, 5, 2)
    basis_arr = fastpath.basis_to_flat(basis)
    combos = np.array([[0, 1, 2], [1, 3, 4]], dtype=np.int64)
    stack = fastpath.combos_to_stack(basis_arr, combos, 2)
    assert stack.shape == (3, 2, 2, 2)
    assert fastpath.array_to_matrix(F, stack[0, 0]) == basis[0]
    assert fastpath.array_to_matrix(F, stack[2, 1]) == basis[4]


def test_coords_to_stack_linear_combinations():
    rng = np.random.default_rng(13)
    basis = random_mats(rng, 4, 2)
    basis_arr = fastpath.basis_to_flat(basis)
    coords = rng.integers(0, 101, size=(2, 3, 4))
    stack = fastpath.coords_to_stack(basis_arr, coords, 2, 101)
    for b in range(2):
        for slot in range(3):
            want = None
            for k in range(4):
                term = int(coords[b, slot, k]) * basis[k]
                want = term if want is None else want + term
            assert fastpath.array_to_matrix(F, stack[slot, b]) == want


def test_coords_to_stack_exact_at_int64_edge():
    # supports() holds here, yet one matmul over d = 64 products of size
    # (p-1)^2 would wrap int64
    p, n, t, d = 536870909, 8, 2, 64
    assert fastpath.supports(p, n, t)
    basis_arr = np.full((d, n * n), p - 1, dtype=np.int64)
    coords = np.full((1, t, d), p - 1, dtype=np.int64)
    stack = fastpath.coords_to_stack(basis_arr, coords, n, p)
    assert (stack == d).all()


def test_suggested_batch_positive():
    assert fastpath.suggested_batch(8, 2) >= 1
    assert fastpath.suggested_batch(16, 4) >= 1
