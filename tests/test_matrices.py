import random
from fractions import Fraction

import pytest

from matpi.errors import DimensionError, RingMismatchError
from matpi.matrices import (
    Echelon,
    Matrix,
    identity_matrix,
    matrix_unit,
    nullspace,
    trace_pair,
    zero_matrix,
)
from matpi.rings import GF, QQ


F = GF(101)


def test_matrix_canonicalizes():
    a = Matrix(F, 2, 2, [102, -1, 0, 1])
    assert a.data == (1, 100, 0, 1)
    assert a[0, 0] == 1 and a[0, 1] == 100


def test_matrix_is_immutable_and_hashable():
    a = matrix_unit(F, 2, 1, 2)
    assert hash(a) == hash(Matrix(F, 2, 2, [0, 1, 0, 0]))
    with pytest.raises(AttributeError):
        a.data = ()
    s = {a, matrix_unit(F, 2, 1, 2)}
    assert len(s) == 1


def test_arithmetic():
    a = Matrix(F, 2, 2, [1, 2, 3, 4])
    b = Matrix(F, 2, 2, [0, 1, 1, 0])
    assert (a + b).data == (1, 3, 4, 4)
    assert (a - a).is_zero()
    assert (a * b).data == (2, 1, 4, 3)
    assert (3 * a).data == (3, 6, 9, 12)
    assert (-a) + a == zero_matrix(F, 2)


def test_ring_mismatch():
    a = matrix_unit(F, 2, 1, 1)
    b = matrix_unit(QQ, 2, 1, 1)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b


def test_shape_mismatch():
    a = zero_matrix(F, 2, 3)
    b = zero_matrix(F, 2, 2)
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        b * zero_matrix(F, 3, 2)


def test_matrix_unit_is_one_based():
    e = matrix_unit(F, 3, 1, 3)
    assert e[0, 2] == 1
    assert sum(1 for v in e.data if v) == 1
    with pytest.raises(DimensionError):
        matrix_unit(F, 3, 0, 1)
    with pytest.raises(DimensionError):
        matrix_unit(F, 3, 1, 4)


def test_unit_multiplication_rule():
    # e_ij e_kl = delta_jk e_il
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    prod = matrix_unit(F, n, i, j) * matrix_unit(F, n, k, l)
                    if j == k:
                        assert prod == matrix_unit(F, n, i, l)
                    else:
                        assert prod.is_zero()


def test_trace_and_submatrix():
    a = Matrix(F, 3, 3, range(9))
    assert a.trace() == (0 + 4 + 8) % 101
    sub = a.submatrix(0, 2, 1, 3)
    assert sub.rows == 2 and sub.cols == 2
    assert sub.data == (1, 2, 4, 5)


def test_trace_pair_equals_trace_of_product():
    rng = random.Random(3)
    for _ in range(20):
        a = Matrix(F, 3, 3, [rng.randrange(101) for _ in range(9)])
        b = Matrix(F, 3, 3, [rng.randrange(101) for _ in range(9)])
        assert trace_pair(a, b) == (a * b).trace()


def test_nullspace():
    a = Matrix(QQ, 2, 3, [1, 0, -1, 0, 1, 2])
    basis = nullspace(a)
    assert len(basis) == 1
    v = basis[0]
    # A v = 0
    for r in range(2):
        assert sum(a[r, c] * v[c] for c in range(3)) == 0


def test_echelon_insert_and_contains():
    ech = Echelon(QQ, 4)
    assert ech.insert((1, 0, 0, 0))
    assert ech.insert((1, 1, 0, 0))
    assert not ech.insert((2, 3, 0, 0))  # dependent
    assert ech.rank == 2
    assert ech.contains((5, -7, 0, 0))
    assert not ech.contains((0, 0, 1, 0))


def test_echelon_nullspace_kernel_property():
    # rows of a map; nullspace vectors must reduce to zero against... here:
    # check A v = 0 for the matrix whose rows were inserted
    rows = [(1, 2, 0, 1), (0, 1, 1, 0)]
    ech = Echelon(QQ, 4)
    for r in rows:
        ech.insert(r)
    for v in ech.nullspace_basis():
        for r in rows:
            assert sum(Fraction(x) * y for x, y in zip(r, v)) == 0


@pytest.mark.parametrize("ring", [F, QQ], ids=lambda r: r.name)
def test_echelon_form_ignores_insertion_order_and_zero_rows(ring):
    rng = random.Random(5)
    width = 7
    rows = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(4)]
    rows += [[a + 2 * b for a, b in zip(rows[0], rows[1])],
             [3 * a - b for a, b in zip(rows[2], rows[3])]]
    zeros = [[0] * width] * 3

    def echelon(vecs):
        ech = Echelon(ring, width)
        for v in vecs:
            ech.insert(v)
        return ech.rows, ech.pivots, ech.nullspace_basis()

    first = echelon(rows)
    assert len(first[0]) == 4 and len(first[2]) == width - 4
    for i in range(20):
        order = rows + (zeros if i % 2 else [])
        rng.shuffle(order)
        assert echelon(order) == first
    ech = Echelon(ring, width)
    assert not ech.insert(zeros[0]) and ech.rows == []
    for v in rows:
        ech.insert(v)
    before = [list(row) for row in ech.rows]
    assert not ech.insert(zeros[0])
    assert ech.rows == before


def test_rational_stress_products():
    # exact arithmetic safety net: 50 random 4x4 rational triple products
    # satisfy associativity on the nose
    rng = random.Random(11)

    def rnd():
        return Matrix(QQ, 4, 4, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                 for _ in range(16)])

    for _ in range(50):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c


def test_identity_and_scalar():
    i3 = identity_matrix(F, 3)
    a = Matrix(F, 3, 3, range(9))
    assert i3 * a == a and a * i3 == a
