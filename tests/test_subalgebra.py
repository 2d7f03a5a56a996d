import pytest

from matpi.constructions import (
    full_block_algebra,
    full_matrix_algebra,
    two_block_radical,
    upper_triangular,
)
from matpi.blocks import BlockShape
from matpi.errors import CharacteristicError, RingMismatchError, UnsupportedRingError
from matpi.matrices import Matrix, identity_matrix, matrix_unit
from matpi.rings import GF, QQ, Zmod
from matpi.subalgebra import (
    SubalgebraBasis,
    close_generators,
    is_semisimple,
    jacobson_radical,
    span_basis,
)

F = GF(101)


def test_span_basis_dedups_and_canonicalizes():
    e = matrix_unit(F, 2, 1, 2)
    a = span_basis(F, 2, [e, 2 * e, e + e], label="A")
    assert a.dim == 1
    assert a.contains(5 * e)
    assert not a.contains(matrix_unit(F, 2, 1, 1))


def test_close_generators_staircase_n2():
    # <e11, e12, e22> closes to all of U_2
    gens = [matrix_unit(F, 2, 1, 1), matrix_unit(F, 2, 1, 2), matrix_unit(F, 2, 2, 2)]
    a = close_generators(gens)
    assert a.dim == 3
    for g in gens:
        assert a.contains(g)


def test_close_generators_generates_full_m2():
    gens = [matrix_unit(F, 2, 1, 2), matrix_unit(F, 2, 2, 1)]
    a = close_generators(gens)
    assert a.dim == 4  # e12*e21 = e11, e21*e12 = e22


def test_closure_is_multiplicatively_closed_and_idempotent():
    gens = [Matrix(F, 3, 3, [0, 1, 0, 0, 0, 1, 0, 0, 0]),
            matrix_unit(F, 3, 1, 1)]
    a = close_generators(gens)
    for x in a.mats:
        for y in a.mats:
            assert a.contains(x * y)
    again = close_generators(list(a.mats))
    assert again.dim == a.dim


def test_include_identity():
    gens = [matrix_unit(F, 2, 1, 2)]
    a = close_generators(gens)
    assert a.dim == 1
    assert not a.is_unital()
    b = close_generators(gens, include_identity=True)
    assert b.dim == 2
    assert b.is_unital()
    assert b.contains(identity_matrix(F, 2))


def test_generator_set_validates():
    with pytest.raises(RingMismatchError):
        close_generators([matrix_unit(F, 2, 1, 1), matrix_unit(QQ, 2, 1, 1)])


def test_close_generators_needs_field():
    with pytest.raises(UnsupportedRingError):
        close_generators([matrix_unit(Zmod(4), 2, 1, 1)])


def test_radical_of_full_matrix_algebra_is_zero():
    for ring in (F, QQ):
        for n in (1, 2, 3):
            rad = jacobson_radical(full_matrix_algebra(ring, n))
            assert rad.dim == 0
            assert is_semisimple(full_matrix_algebra(ring, n))


def test_radical_of_u3_is_strict_upper():
    # frozen oracle: dim rad(U_3) = 3
    rad = jacobson_radical(upper_triangular(QQ, 3))
    assert rad.dim == 3
    for x in rad.mats:
        assert x[0, 0] == 0 and x[1, 1] == 0 and x[2, 2] == 0


def test_radical_of_two_block_equals_strip():
    # frozen oracle: rad(E(l,m)) is the off-diagonal l x m strip
    for (l, m) in ((1, 2), (2, 1), (2, 2)):
        shape = BlockShape((l, m))
        e = full_block_algebra(QQ, shape)
        rad = jacobson_radical(e)
        strip = two_block_radical(QQ, l, m)
        assert rad.dim == l * m == strip.dim
        for x in strip.mats:
            assert rad.contains(x)


def test_radical_is_nilpotent_ideal():
    e = full_block_algebra(F, BlockShape((1, 2)))
    rad = jacobson_radical(e)
    # ideal: a*r and r*a stay in rad
    for r in rad.mats:
        for a in e.mats:
            assert rad.contains(a * r)
            assert rad.contains(r * a)
    # nilpotent: products of rad elements vanish quickly (strip squares to 0)
    for r in rad.mats:
        for s in rad.mats:
            assert (r * s).is_zero()


def test_radical_characteristic_guard():
    with pytest.raises(CharacteristicError):
        jacobson_radical(full_matrix_algebra(GF(2), 3))
    # char > n fine
    assert jacobson_radical(full_matrix_algebra(GF(5), 3)).dim == 0


def test_subalgebra_requires_field():
    with pytest.raises(UnsupportedRingError):
        span_basis(Zmod(4), 2, [matrix_unit(Zmod(4), 2, 1, 1)])
