from fractions import Fraction

import pytest

from matpi.errors import UnsupportedRingError
from matpi.rings import GF, QQ, IntegerModRing, Zmod, is_prime, ring_from_params


def _trial_division(k):
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small():
    for k in range(-3, 500):
        assert is_prime(k) == _trial_division(k), k
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)
    assert not is_prime(561)  # Carmichael


def test_gf_basics():
    F = GF(101)
    assert F.is_field
    assert F.characteristic == 101
    assert F.canon(-1) == 100
    assert F.canon(Fraction(1, 2)) == F.mul(F.canon(1), F.inv(2))
    assert F.add(100, 2) == 1
    assert F.mul(F.inv(7), 7) == 1
    assert F.name == "GF(101)"
    assert F is GF(101)  # cached


def test_gf_rejects_composite():
    with pytest.raises(UnsupportedRingError):
        GF(4)
    with pytest.raises(UnsupportedRingError):
        GF(1)


def test_gf_parse():
    F = GF(7)
    assert F.parse("13") == 6
    assert F.parse("-1") == 6
    with pytest.raises(ValueError):
        F.parse("1/2")


def test_qq_basics():
    assert QQ.is_field
    assert QQ.characteristic == 0
    assert QQ.canon(3) == Fraction(3)
    assert QQ.parse("-7/3") == Fraction(-7, 3)
    assert QQ.inv(Fraction(2, 5)) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(101).inv(0)


def test_zmod_basics():
    R = Zmod(4)
    assert not R.is_field
    assert R.characteristic == 4
    assert R.canon(-1) == 3
    assert R.mul(2, 2) == 0
    assert R.inv(3) == 3
    with pytest.raises(UnsupportedRingError):
        R.inv(2)
    assert R.parse("7 mod 4") == 3


def test_zmod_prime_still_not_field_kind():
    # Zmod(5) deliberately stays a Z/m descriptor; GF(5) is the field
    R = Zmod(5)
    assert R.kind == "integers_mod"
    assert GF(5).kind == "prime_field"
    assert R != GF(5)


def test_ring_equality_and_hash():
    assert GF(101) == GF(101)
    assert hash(GF(101)) == hash(GF(101))
    assert GF(101) != GF(7)
    assert QQ == QQ
    assert Zmod(4) == Zmod(4)
    assert Zmod(4) != Zmod(8)


def test_ring_from_params():
    assert ring_from_params("gf", 101) == GF(101)
    assert ring_from_params("prime_field", 7) == GF(7)
    assert ring_from_params("q", None) == QQ
    assert ring_from_params("rationals", None) == QQ
    assert ring_from_params("zmod", 6) == Zmod(6)
    with pytest.raises(UnsupportedRingError):
        ring_from_params("octonions", None)


def test_canon_list_matches_canon():
    F = GF(11)
    vals = list(range(-5, 25))
    assert F.canon_list(vals) == [F.canon(v) for v in vals]
