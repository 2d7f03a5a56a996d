import math
import os
import subprocess
import sys
import textwrap
from itertools import permutations as iperm
from pathlib import Path

import pytest

import matpi
from hypothesis import given, settings
from hypothesis import strategies as st

from matpi.errors import DegreeGuardError, RingMismatchError
from matpi.matrices import Matrix, matrix_unit, zero_matrix
from matpi.rings import GF, QQ
from matpi.standardpoly import (
    MultilinearPoly,
    consecutive_factor_sum,
    eval_multilinear,
    eval_standard_dp,
    eval_standard_naive,
    perm_rank,
    perm_sign,
    perm_unrank,
    product_of,
    signed_permutations,
    word_products,
)

F = GF(101)


def gfmat(n):
    return st.builds(
        lambda entries: Matrix(F, n, n, entries),
        st.lists(st.integers(0, 100), min_size=n * n, max_size=n * n),
    )


def test_signed_permutations_order_and_signs():
    words = list(signed_permutations(3))
    assert [w for w, _ in words] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
    ]
    for w, s in signed_permutations(4):
        assert s == perm_sign(w)
    assert sum(1 for _ in signed_permutations(5)) == 120


def test_perm_sign_is_inversion_parity():
    for p in iperm(range(1, 5)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        assert perm_sign(p) == (-1) ** inv


def test_perm_rank_unrank_roundtrip():
    for t in (1, 2, 3, 4):
        for r, p in enumerate(iperm(range(1, t + 1))):
            assert perm_rank(p) == r
            assert perm_unrank(t, r) == p


def _brute_word_products(mats):
    """(rank, sign, product data) of every nonzero word product, word by
    word."""
    t = len(mats)
    out = []
    for rank in range(math.factorial(t)):
        word = perm_unrank(t, rank)
        prod = product_of([mats[w - 1] for w in word])
        if not prod.is_zero():
            out.append((rank, perm_sign(word), prod.data))
    return out


@pytest.mark.parametrize("ring", [F, QQ], ids=["GF101", "QQ"])
def test_word_products_matches_brute_force(ring):
    def e(i, j):
        return matrix_unit(ring, 3, i, j)

    generic = Matrix(ring, 3, 3, [2, -1, 0, 3, 5, 7, 0, 1, -4])
    cases = [
        # zero prefixes: e12*e12 and e23*e11 vanish, e11*e23 vanishes
        [e(1, 1), e(1, 2), e(2, 3), e(3, 3)],
        # a repeated argument and a zero argument
        [e(1, 2), e(2, 2), e(1, 2), zero_matrix(ring, 3)],
        [e(1, 1), generic, e(2, 3), generic, e(3, 1)],
        [generic, e(2, 1), generic * generic, e(1, 3), e(3, 3), e(2, 2)],
        [e(1, 3)],
    ]
    for mats in cases:
        got = list(word_products([a.data for a in mats], 3, ring))
        assert [(r, s, tuple(p)) for r, s, p in got] == _brute_word_products(mats)


@pytest.mark.parametrize("t", range(1, 8))
def test_word_products_signs_match_perm_sign(t):
    # 1 x 1 ones: every product is nonzero, so the walk visits all t! words
    ones = [(1,)] * t
    got = [(r, s) for r, s, _ in word_products(ones, 1, F)]
    assert [r for r, _ in got] == list(range(math.factorial(t)))
    assert [s for _, s in got] == [perm_sign(perm_unrank(t, r)) for r, _ in got]


def test_eval_standard_dp_leaves_numpy_unimported():
    # s_7 on the n = 4 staircase over GF(101) is in the int64 kernel's
    # range, yet a single tuple runs the pure-Python DP
    script = textwrap.dedent("""
        import sys
        from matpi.blocks import staircase_units
        from matpi.matrices import matrix_unit
        from matpi.rings import GF
        from matpi.standardpoly import eval_standard_dp
        F = GF(101)
        assert eval_standard_dp(staircase_units(F, 4)) == matrix_unit(F, 4, 1, 4)
        print("numpy" in sys.modules)
    """)
    src = str(Path(matpi.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], text=True, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_staircase_values_frozen_oracle():
    # independent oracle: s_2(e11, e12) = e12 and s_3(e11, e12, e22) = e12
    e11 = matrix_unit(F, 2, 1, 1)
    e12 = matrix_unit(F, 2, 1, 2)
    e22 = matrix_unit(F, 2, 2, 2)
    assert eval_standard_naive([e11, e12]) == e12
    assert eval_standard_naive([e11, e12, e22]) == e12
    assert eval_standard_dp([e11, e12, e22]) == e12


def test_staircase_n3_tail_frozen_oracle():
    # independent oracle: s_4(e12, e22, e23, e33) = e13 in M_3
    mats = [
        matrix_unit(F, 3, 1, 2),
        matrix_unit(F, 3, 2, 2),
        matrix_unit(F, 3, 2, 3),
        matrix_unit(F, 3, 3, 3),
    ]
    expect = matrix_unit(F, 3, 1, 3)
    assert eval_standard_naive(mats) == expect
    assert eval_standard_dp(mats) == expect


def test_al_on_m2_units_frozen_oracle():
    units = [matrix_unit(F, 2, i, j) for i in (1, 2) for j in (1, 2)]
    assert eval_standard_naive(units).is_zero()
    assert eval_standard_dp(units).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(gfmat(2), min_size=2, max_size=5))
def test_dp_matches_naive(mats):
    assert eval_standard_dp(mats) == eval_standard_naive(mats)


@settings(max_examples=30, deadline=None)
@given(gfmat(2), gfmat(2), gfmat(2))
def test_alternating_on_repeats(a, b, c):
    assert eval_standard_dp([a, a, b]).is_zero()
    assert eval_standard_dp([a, b, a]).is_zero()
    assert eval_standard_dp([c, a, b, c]).is_zero()


@settings(max_examples=30, deadline=None)
@given(gfmat(2), gfmat(2), gfmat(2))
def test_swap_antisymmetry(a, b, c):
    v = eval_standard_dp([a, b, c])
    w = eval_standard_dp([b, a, c])
    assert (v + w).is_zero()


@settings(max_examples=30, deadline=None)
@given(gfmat(2), gfmat(2), gfmat(2), st.integers(0, 100), st.integers(0, 100))
def test_multilinearity(a, b, c, alpha, beta):
    lhs = eval_standard_dp([alpha * a + beta * b, c])
    rhs = alpha * eval_standard_dp([a, c]) + beta * eval_standard_dp([b, c])
    assert lhs == rhs
    lhs3 = eval_standard_dp([c, alpha * a + beta * b, c * c])
    rhs3 = alpha * eval_standard_dp([c, a, c * c]) + beta * eval_standard_dp([c, b, c * c])
    assert lhs3 == rhs3


@settings(max_examples=25, deadline=None)
@given(st.lists(gfmat(2), min_size=2, max_size=4))
def test_unital_reduction(mats):
    # over a unital algebra s_t identity iff s_{t+1} identity; pointwise:
    # s_{t+1}(I, x_1..x_t) relates to s_t by the even/odd reduction; at the
    # value level check the expansion identity s_{t+1} = sum_i +- x_i s_t(rest)
    t = len(mats)
    total = zero_matrix(F, 2)
    v = eval_standard_dp(mats + [Matrix(F, 2, 2, [1, 0, 0, 1])])
    for i in range(t + 1):
        rest = (mats + [Matrix(F, 2, 2, [1, 0, 0, 1])])[:i] + (mats + [Matrix(F, 2, 2, [1, 0, 0, 1])])[i + 1:]
        full = mats + [Matrix(F, 2, 2, [1, 0, 0, 1])]
        total = total + (-1) ** i * (full[i] * eval_standard_dp(rest) if len(rest) >= 2 else full[i] * rest[0])
    assert v == total


def test_eval_rejects_mixed_rings_and_bad_degree():
    a = matrix_unit(F, 2, 1, 1)
    b = matrix_unit(QQ, 2, 1, 1)
    with pytest.raises(RingMismatchError):
        eval_standard_dp([a, b])
    with pytest.raises(DegreeGuardError):
        eval_standard_naive([a] * 9)
    with pytest.raises(DegreeGuardError):
        eval_standard_dp([a] * 25)


def test_multilinear_poly_standard():
    p = MultilinearPoly.standard(F, 3)
    assert not p.is_zero()
    assert len(p.coeffs) == 6
    mats = [matrix_unit(F, 2, 1, 1), matrix_unit(F, 2, 1, 2), matrix_unit(F, 2, 2, 2)]
    assert eval_multilinear(p, mats) == eval_standard_naive(mats)


def test_consecutive_factor_sum_collapses():
    # oracle-checked lemma: summing the s_m monomials that contain the run
    # x_{o+1}..x_{o+r} consecutively equals s_{m-r+1} with the windowed
    # product substituted (odd r)
    import random

    rng = random.Random(7)
    for (m, r) in ((4, 3), (5, 3)):
        for _ in range(10):
            mats = [Matrix(F, 2, 2, [rng.randrange(101) for _ in range(4)])
                    for _ in range(m)]
            for offset in range(m - r + 1):
                lhs = consecutive_factor_sum(mats, offset, r)
                collapsed = (mats[:offset]
                             + [product_of(mats[offset:offset + r])]
                             + mats[offset + r:])
                assert lhs == eval_standard_naive(collapsed)


def test_product_of():
    a = matrix_unit(F, 2, 1, 2)
    b = matrix_unit(F, 2, 2, 1)
    assert product_of([a, b]) == matrix_unit(F, 2, 1, 1)
    assert product_of([a]) == a


def test_factorial_coverage_dp():
    # s_4 over QQ on generic integer matrices: DP equals the direct
    # 24-term permutation sum (naive), exact rational arithmetic
    mats = [Matrix(QQ, 2, 2, [i + j, i - j, 2 * i, 3 - j]) for i, j in
            ((1, 2), (3, 4), (5, 6), (7, 8))]
    assert eval_standard_dp(mats) == eval_standard_naive(mats)
    assert math.factorial(4) == 24
