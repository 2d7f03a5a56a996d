import pytest

from matpi.blocks import BlockShape, staircase_units
from matpi.constructions import (
    SpanningSetAlgebra,
    constrained_triangular,
    diagonal_algebra,
    diagonal_embedding,
    full_block_algebra,
    full_matrix_algebra,
    repetition_algebra,
    repetition_units,
    two_block_radical,
    upper_triangular,
)
from matpi.errors import UnsupportedRingError
from matpi.matrices import Matrix, identity_matrix, matrix_unit
from matpi.rings import GF, Zmod

F = GF(101)


def test_full_block_dims():
    for parts in ((1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 3), (1, 2, 1)):
        s = BlockShape(parts)
        e = full_block_algebra(F, s)
        assert e.dim == s.triangular_dim()
        assert e.is_unital()


def test_upper_triangular_and_full():
    assert upper_triangular(F, 3).dim == 6
    assert full_matrix_algebra(F, 3).dim == 9
    assert upper_triangular(F, 3).label == "U_3"
    assert full_matrix_algebra(F, 3).label == "M_3"


def test_staircase_members_live_in_triangular():
    u = upper_triangular(F, 4)
    for m in staircase_units(F, 4):
        assert u.contains(m)


def test_repetition_algebra_structure():
    a = repetition_algebra(F, 1, 1)
    assert a.n == 3
    assert a.dim == 5
    assert a.is_unital()
    # members look like [[a,b,c],[0,e,d],[0,0,a]]
    for x in a.mats:
        assert x[0, 0] == x[2, 2]
        assert x[1, 0] == 0 and x[2, 0] == 0 and x[2, 1] == 0
    # closed under multiplication
    for x in a.mats:
        for y in a.mats:
            assert a.contains(x * y)


def test_repetition_dims():
    assert repetition_algebra(F, 1, 2).dim == 10
    assert repetition_algebra(F, 2, 1).dim == 13


def test_repetition_units_without_corner_spans_smaller():
    full = repetition_units(F, 1, 1)
    partial = repetition_units(F, 1, 1, include_corner=False)
    assert len(full) == len(partial) + 1


def test_two_block_radical():
    t = two_block_radical(F, 2, 3)
    assert t.n == 5
    assert t.dim == 6
    for x in t.mats:
        for y in t.mats:
            assert (x * y).is_zero()


def test_diagonal_algebra_and_embedding():
    d = diagonal_algebra(F, 3)
    assert d.dim == 3
    e = diagonal_embedding(F, 2, 2)
    assert e.n == 4
    assert e.dim == 4
    for x in e.mats:
        assert x.submatrix(0, 2, 0, 2) == x.submatrix(2, 4, 2, 4)


def test_constrained_triangular():
    b = constrained_triangular(Zmod(4), 2, 2)
    assert isinstance(b, SpanningSetAlgebra)
    assert b.n == 2
    assert b.contains(Matrix(Zmod(4), 2, 2, [1, 2, 0, 3]))
    assert not b.contains(Matrix(Zmod(4), 2, 2, [1, 1, 0, 3]))
    assert not b.contains(Matrix(Zmod(4), 2, 2, [1, 2, 1, 3]))


def test_constrained_triangular_field_rejected():
    with pytest.raises(UnsupportedRingError):
        constrained_triangular(F, 2, 2)


def test_identity_membership():
    for alg in (repetition_algebra(F, 1, 2), diagonal_embedding(F, 2, 2),
                full_block_algebra(F, BlockShape((2, 2)))):
        assert alg.contains(identity_matrix(F, alg.n))
