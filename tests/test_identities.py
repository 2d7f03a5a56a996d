import math
import random
from itertools import combinations, product

import pytest

from matpi.blocks import BlockShape
from matpi.constructions import (
    constrained_triangular,
    diagonal_embedding,
    full_block_algebra,
    full_matrix_algebra,
    repetition_algebra,
    upper_triangular,
)
from matpi import fastpath
from matpi.errors import ContractViolationError, DegreeGuardError, UnsupportedRingError
from matpi.identities import (
    block_assembly_check,
    is_standard_identity,
    min_standard_degree,
    multilinear_identity_space,
    random_triangular_closures,
    standard_sign_vector,
    ur_vanishing_check,
)
from matpi.matrices import Matrix, matrix_unit
from matpi.rings import GF, QQ, Zmod
from matpi.standardpoly import eval_multilinear, eval_standard_naive
from matpi.subalgebra import span_basis

F = GF(101)


# -- is_standard_identity -------------------------------------------------------

def test_m2_s4_is_identity():
    rep = is_standard_identity(full_matrix_algebra(F, 2), 4)
    assert rep.is_identity
    assert not rep.probabilistic
    assert rep.witness is None
    assert rep.tuples_checked == rep.tuple_space == 1  # C(4,4)


def test_m2_s2_witness():
    rep = is_standard_identity(full_matrix_algebra(F, 2), 2)
    assert not rep.is_identity
    w = rep.witness
    assert w is not None
    # first combination in order: (e11, e12); s_2 = e12 (frozen oracle)
    assert w.indices == (1, 2)
    assert w.value == matrix_unit(F, 2, 1, 2)
    assert rep.tuples_checked == 1  # early stop
    assert rep.tuple_space == math.comb(4, 2)


def test_m2_s3_witness():
    rep = is_standard_identity(full_matrix_algebra(F, 2), 3)
    assert not rep.is_identity
    assert rep.witness is not None
    # re-verify independently
    mats = rep.witness.mats
    assert eval_standard_naive(list(mats)) == rep.witness.value
    assert not rep.witness.value.is_zero()


def test_vacuous_identity_beyond_dimension():
    u2 = upper_triangular(F, 2)  # dim 3
    rep = is_standard_identity(u2, 4)
    assert rep.is_identity
    assert rep.tuples_checked == 0
    assert rep.tuple_space == 0
    assert "degree exceeds the dimension" in rep.note


def test_degree_guard():
    with pytest.raises(DegreeGuardError):
        is_standard_identity(full_matrix_algebra(F, 2), 1)


def test_identity_verdict_exact_tuple_count():
    u3 = upper_triangular(F, 3)  # dim 6, s_6: C(6,6)=1... use t=5
    rep = is_standard_identity(u3, 6)
    assert rep.is_identity
    assert rep.tuples_checked == rep.tuple_space == math.comb(6, 6)


def test_pruning_soundness_small():
    # combination sweep (strictly increasing tuples) must agree with the
    # full ordered-tuple sweep: dims <= 5, t <= 4, brute force both ways
    rng = random.Random(0)
    algebras = [
        upper_triangular(F, 2),                      # dim 3
        full_matrix_algebra(F, 2),                   # dim 4
        span_basis(F, 3, [matrix_unit(F, 3, 1, 1),
                          matrix_unit(F, 3, 1, 2),
                          matrix_unit(F, 3, 2, 2),
                          matrix_unit(F, 3, 3, 3),
                          matrix_unit(F, 3, 1, 3)], label="misc5"),
    ]
    for a in algebras:
        for t in (2, 3, 4):
            if t > a.dim:
                continue
            rep = is_standard_identity(a, t)
            brute = True
            for tup in product(a.mats, repeat=t):
                if not eval_standard_naive(list(tup)).is_zero():
                    brute = False
                    break
            assert rep.is_identity == brute, (a.label, t)


def test_randomized_mode_agrees_on_m3():
    a = full_matrix_algebra(F, 3)
    exact = is_standard_identity(a, 6)
    rand = is_standard_identity(a, 6, mode="randomized", trials=300, seed=1)
    assert exact.is_identity and rand.is_identity
    assert rand.probabilistic
    rand2 = is_standard_identity(a, 4, mode="randomized", trials=300, seed=1)
    assert not rand2.is_identity
    assert not rand2.probabilistic  # counterexample is a certificate
    assert eval_standard_naive(list(rand2.witness.mats)) == rand2.witness.value


def test_randomized_deterministic_per_seed():
    a = full_matrix_algebra(F, 3)
    r1 = is_standard_identity(a, 4, mode="randomized", trials=50, seed=7)
    r2 = is_standard_identity(a, 4, mode="randomized", trials=50, seed=7)
    assert r1.to_dict() == r2.to_dict()


def test_threads_do_not_change_report():
    a = full_matrix_algebra(F, 3)
    r1 = is_standard_identity(a, 4, threads=1)
    r4 = is_standard_identity(a, 4, threads=4)
    assert r1.to_dict() == r4.to_dict()
    i1 = is_standard_identity(a, 6, threads=1)
    i4 = is_standard_identity(a, 6, threads=4)
    assert i1.to_dict() == i4.to_dict()
    # 5000 trials span two int64 batches, so the pool evaluates both at once
    for t in (4, 6):
        r1 = is_standard_identity(a, t, mode="randomized", trials=5000, seed=2, threads=1)
        r4 = is_standard_identity(a, t, mode="randomized", trials=5000, seed=2, threads=4)
        assert r1.to_dict() == r4.to_dict()


@pytest.mark.parametrize("mode,builder", [("exhaustive", "combos_to_stack"),
                                          ("randomized", "coords_to_stack")])
def test_witness_outside_algebra_is_rejected(monkeypatch, mode, builder):
    real = getattr(fastpath, builder)

    def corrupted(*args, **kwargs):
        stack = real(*args, **kwargs)
        stack[..., 2, 0] = 1  # below the diagonal: outside U_3
        return stack

    monkeypatch.setattr(fastpath, builder, corrupted)
    with pytest.raises(ContractViolationError, match="outside the algebra"):
        is_standard_identity(upper_triangular(F, 3), 2, mode=mode, trials=20)


def test_unital_monotonicity():
    # for unital algebras: s_t identity implies s_{t+1} identity
    for a in (full_matrix_algebra(F, 2), upper_triangular(F, 2),
              repetition_algebra(F, 1, 1)):
        found = False
        for t in range(2, 2 * a.n + 2):
            rep = is_standard_identity(a, t)
            if found:
                assert rep.is_identity, (a.label, t)
            if rep.is_identity:
                found = True


def test_qq_and_gf_agree():
    for build in (lambda R: full_matrix_algebra(R, 2),
                  lambda R: upper_triangular(R, 3),
                  lambda R: repetition_algebra(R, 1, 1)):
        aq, af = build(QQ), build(F)
        for t in (2, 3, 4):
            if t > aq.dim:
                break
            assert (is_standard_identity(aq, t).is_identity
                    == is_standard_identity(af, t).is_identity)


def test_spanning_sweep_zmod():
    b = constrained_triangular(Zmod(4), 2, 2)
    rep = is_standard_identity(b, 2)
    assert not rep.is_identity
    assert rep.witness is not None
    # witness value recomputed: s_2(x, y) = xy - yx
    x, y = rep.witness.mats
    assert x * y - y * x == rep.witness.value
    assert rep.tuple_space == b.dim ** 2


def test_zmod_randomized_rejected():
    b = constrained_triangular(Zmod(4), 2, 2)
    with pytest.raises(UnsupportedRingError):
        is_standard_identity(b, 2, mode="randomized")


# -- min_standard_degree ---------------------------------------------------------

def test_min_degree_m2():
    res = min_standard_degree(full_matrix_algebra(F, 2))
    assert res.degree == 4
    assert [r.degree for r in res.reports] == [2, 3, 4]
    assert res.cross_check is not None  # unital, even degree => s_5 checked
    assert res.cross_check.is_identity


def test_min_degree_u2():
    res = min_standard_degree(upper_triangular(F, 2))
    assert res.degree == 4


def test_min_degree_scalars():
    res = min_standard_degree(full_matrix_algebra(F, 1))
    assert res.degree == 2


def test_min_degree_over_qq():
    assert min_standard_degree(full_matrix_algebra(QQ, 2)).degree == 4


def test_min_degree_no_identity_below_bound():
    res = min_standard_degree(full_matrix_algebra(F, 3), t_max=4)
    assert res.degree is None
    assert len(res.reports) == 3


# -- multilinear_identity_space ---------------------------------------------------

def test_identity_space_m2_frozen_oracle():
    # independent oracle: dim 0 at t=3, dim 1 at t=4 spanned by sign vector
    a = full_matrix_algebra(F, 2)
    s3 = multilinear_identity_space(a, 3)
    assert s3.dimension == 0
    s4 = multilinear_identity_space(a, 4)
    assert s4.dimension == 1
    vec = s4.basis[0]
    signs = standard_sign_vector(F, 4)
    neg = tuple(F.neg(c) for c in signs)
    assert vec in (signs, neg)
    assert s4.verified


def test_identity_space_scalars_t2():
    a = full_matrix_algebra(F, 1)
    s2 = multilinear_identity_space(a, 2)
    assert s2.dimension == 1  # commutativity: xy - yx


def test_identity_space_u2_degree3_empty():
    # U_2's minimal identity has degree 4; no multilinear identity at t=3
    assert multilinear_identity_space(upper_triangular(F, 3), 3).dimension == 0


def test_identity_space_members_vanish_on_fresh_random_tuples():
    # commutative diagonal algebra: all degree-3 monomials coincide, so the
    # identity space is the sum-zero hyperplane (dim 5); every kernel vector
    # must evaluate to zero on 100 fresh random tuples
    from matpi.constructions import diagonal_algebra
    from matpi.standardpoly import MultilinearPoly

    a = diagonal_algebra(F, 2)
    space = multilinear_identity_space(a, 3)
    assert space.dimension == 5
    rng = random.Random(99)
    for vec in space.basis:
        poly = MultilinearPoly(F, 3, dict(enumerate(vec)))
        for _ in range(100 // space.dimension):
            mats = []
            for _k in range(3):
                coords = [rng.randrange(101) for _ in range(a.dim)]
                x = None
                for c, b in zip(coords, a.mats):
                    term = c * b
                    x = term if x is None else x + term
                mats.append(x)
            assert eval_multilinear(poly, mats).is_zero()


def test_identity_space_degree_guard():
    with pytest.raises(DegreeGuardError):
        multilinear_identity_space(full_matrix_algebra(F, 2), 7)


# -- lemma harnesses ---------------------------------------------------------------

def test_ur_vanishing_small():
    rep = ur_vanishing_check(F, 1, 1, trials=50, seed=0)
    assert rep.status == "ok"
    assert rep.violations == 0
    assert rep.degree == 4


def test_block_assembly_ok_and_invalid():
    top = full_matrix_algebra(F, 1)
    bot = full_matrix_algebra(F, 2)
    rep = block_assembly_check(top, bot, 2, 4, trials=100, seed=0)
    assert rep.status == "ok"
    assert rep.violations == 0
    bad = block_assembly_check(top, bot, 1, 4, trials=10, seed=0)
    assert bad.status == "invalid-instance"


def test_block_assembly_detects_violation_when_degree_too_low():
    # degrees below 2l / 2m do NOT vanish in general; q=2,r=2 over M_1/M_2
    # means r < 2m so the instance is invalid rather than a claim
    top = full_matrix_algebra(F, 1)
    bot = full_matrix_algebra(F, 2)
    rep = block_assembly_check(top, bot, 2, 2, trials=10, seed=0)
    assert rep.status == "invalid-instance"


def test_random_triangular_closures():
    algs = random_triangular_closures(F, 4, 5, seed=3)
    assert len(algs) == 5
    u4 = upper_triangular(F, 4)
    for a in algs:
        for m in a.mats:
            assert u4.contains(m)
    proper = random_triangular_closures(F, 4, 5, seed=3, proper=True)
    for a in proper:
        assert a.dim < 10


# -- report serialization -----------------------------------------------------------

def test_report_to_dict_stable():
    a = full_matrix_algebra(F, 2)
    d1 = is_standard_identity(a, 4).to_dict()
    d2 = is_standard_identity(a, 4).to_dict()
    assert d1 == d2
    assert "elapsed_ms" not in d1
    d3 = is_standard_identity(a, 4).to_dict(include_timing=True)
    assert "elapsed_ms" in d3


def test_witness_serialization():
    rep = is_standard_identity(full_matrix_algebra(F, 2), 2)
    d = rep.to_dict()
    assert d["witness"]["indices"] == [1, 2]
    assert d["witness"]["value"] == [["0", "1"], ["0", "0"]]
