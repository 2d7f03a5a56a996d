import json
import math
import random
import tracemalloc
from itertools import combinations, islice, permutations, product

import numpy as np
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
from matpi import fastpath, identities, standardpoly
from matpi.errors import (ContractViolationError, DegreeGuardError, DimensionError,
                          UnsupportedRingError)
from matpi.identities import (
    block_assembly_check,
    is_standard_identity,
    min_standard_degree,
    multilinear_identity_space,
    random_triangular_closures,
    standard_sign_vector,
    ur_vanishing_check,
)
from matpi.matrices import Echelon, Matrix, matrix_unit, mul_flat
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


@pytest.mark.parametrize("t,trials", [(4, 50), (6, 5000)])
def test_randomized_deterministic_per_seed(monkeypatch, t, trials):
    a = full_matrix_algebra(F, 3)
    sizes = _count_dp_items(monkeypatch)
    r1 = is_standard_identity(a, t, mode="randomized", trials=trials, seed=7)
    r2 = is_standard_identity(a, t, mode="randomized", trials=trials, seed=7)
    assert r1.to_dict() == r2.to_dict()
    if t == 6:
        # s_6 vanishes on M_3, so all 5000 trials run: a probe block of
        # PROBE_ITEMS, and the rest, which fit one dp_batch slice
        assert r1.is_identity and r1.tuples_checked == 5000
        probe = identities.PROBE_ITEMS
        assert 5000 - probe <= fastpath.slice_items(6, 3, 101)
        assert sizes == [probe, 5000 - probe] * 2


@pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
def test_witness_outside_algebra_is_rejected(monkeypatch, mode):
    # exhaustive sweeps gather their stacks, randomized ones combine rows
    real = fastpath.combos_to_stack if mode == "exhaustive" else fastpath.coords_to_stack

    def corrupted(*args, **kwargs):
        stack = real(*args, **kwargs)
        stack[..., 2, 0] = 1  # below the diagonal: outside U_3
        return stack

    monkeypatch.setattr(fastpath, real.__name__, corrupted)
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


@pytest.mark.parametrize("n,t", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_spanning_sweep_matches_full_tuple_sweep(n, t):
    # the combination sweep reports the witness and count of a sweep over
    # all dim^t tuples in product order
    b = constrained_triangular(Zmod(4), n, 2)
    rep = is_standard_identity(b, t)
    for pos, tup in enumerate(product(range(b.dim), repeat=t), 1):
        if not eval_standard_naive([b.mats[i] for i in tup]).is_zero():
            assert rep.witness.indices == tuple(i + 1 for i in tup)
            assert rep.tuples_checked == pos
            break
    else:
        assert rep.is_identity and rep.tuples_checked == b.dim ** t
    assert rep.tuple_space == b.dim ** t


def test_spanning_sweep_guard_counts_combinations(monkeypatch):
    # the guard bounds the C(dim, t) combinations swept, not the dim^t
    # tuples the report counts
    b = constrained_triangular(Zmod(4), 4, 2)
    assert b.dim == 10
    monkeypatch.setattr(identities, "SPANNING_SWEEP_LIMIT", math.comb(10, 3))
    assert is_standard_identity(b, 3).tuple_space == 10**3
    monkeypatch.setattr(identities, "SPANNING_SWEEP_LIMIT", math.comb(10, 3) - 1)
    with pytest.raises(DegreeGuardError, match="120 combinations"):
        is_standard_identity(b, 3)


def test_min_degree_zmod_past_tuple_count_guard():
    # 10^7 tuples at t = 7 exceed SPANNING_SWEEP_LIMIT; the 120
    # combinations swept do not
    res = min_standard_degree(constrained_triangular(Zmod(4), 4, 2))
    assert res.degree == 8
    assert res.reports[5].tuple_space == 10**7 > identities.SPANNING_SWEEP_LIMIT


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


# Published codimensions c_t = t! - dim(P_t cap Id(A)) of U_2 (Giambruno and
# Zaicev, Polynomial Identities and Asymptotic Methods, 2005) and of M_2
# (Procesi 1984; Drensky 2000): oracles from outside matpi
CODIMENSIONS = {
    "U_2": (upper_triangular, lambda t: 2 ** (t - 1) * (t - 2) + 2),
    "M_2": (full_matrix_algebra,
            lambda t: math.comb(2 * t + 2, t + 1) // (t + 2) - math.comb(t, 3) + 1 - 2**t),
}


@pytest.mark.parametrize("ring,name,t", [
    *((F, "U_2", t) for t in range(2, 7)), *((F, "M_2", t) for t in range(2, 6)),
    *((QQ, "U_2", t) for t in range(2, 6)), *((QQ, "M_2", t) for t in range(2, 5)),
], ids=lambda v: v.name if hasattr(v, "name") else str(v))
def test_identity_space_matches_published_codimensions(ring, name, t):
    build, codim = CODIMENSIONS[name]
    space = multilinear_identity_space(build(ring, 2), t)
    assert space.dimension == math.factorial(t) - codim(t)


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


def _without_memo(monkeypatch):
    walk = identities.word_products
    monkeypatch.setattr(identities, "word_products",
                        lambda flats, n, ring, memo=None, keys=None: walk(flats, n, ring))


def _products_by_walk(monkeypatch) -> tuple:
    """Spy on the identity space's walks: returns a dict counting the
    mul_flat calls inside walks with a memo ("memo") and without one
    ("fresh"), and the list of distinct memos passed.  Each walk is
    consumed before the next starts, so the kind of the latest walk is
    the kind of every product formed."""
    calls, memos, kind = {"memo": 0, "fresh": 0}, [], []
    mul, walk = standardpoly.mul_flat, identities.word_products

    def counting(*args):
        calls[kind[-1]] += 1
        return mul(*args)

    def spying(flats, n, ring, memo=None, keys=None):
        kind.append("fresh" if memo is None else "memo")
        if memo is not None and not any(m is memo for m in memos):
            memos.append(memo)
        yield from walk(flats, n, ring, memo=memo, keys=keys)

    monkeypatch.setattr(standardpoly, "mul_flat", counting)
    monkeypatch.setattr(identities, "word_products", spying)
    return calls, memos


MEMO_CASES = [
    (full_matrix_algebra(F, 2), 3), (full_matrix_algebra(F, 2), 4),
    (full_matrix_algebra(QQ, 2), 3), (full_matrix_algebra(QQ, 2), 4),
    (upper_triangular(F, 3), 4), (full_block_algebra(F, BlockShape((1, 2))), 4),
    (repetition_algebra(F, 1, 1), 4),
]


@pytest.mark.parametrize("a,t", MEMO_CASES,
                         ids=[f"{a.label} over {a.ring.name} t={t}" for a, t in MEMO_CASES])
def test_identity_space_memo_on_and_off_agree(monkeypatch, a, t):
    memoized = multilinear_identity_space(a, t).to_dict()
    _without_memo(monkeypatch)
    assert multilinear_identity_space(a, t).to_dict() == memoized


@pytest.mark.parametrize("a,memoized,plain,recheck,inserted", [
    (full_matrix_algebra(F, 2), 224, 72720, 72720, 862),
    (upper_triangular(F, 3), 211, 102995, 0, 690),  # no kernel, so no re-check
], ids=["M_2", "U_3"])
def test_identity_space_sweep_forms_each_basis_word_once(monkeypatch, a, memoized, plain, recheck,
                                                         inserted):
    rows, insert = [], Echelon.insert

    def recording(self, vec):
        rows.append(list(vec))
        return insert(self, vec)

    with monkeypatch.context() as mp:
        calls, memos = _products_by_walk(mp)
        mp.setattr(Echelon, "insert", recording)
        multilinear_identity_space(a, 5)
    [memo] = memos  # one memo, shared by every walk of the sweep
    assert calls == {"memo": memoized, "fresh": recheck}
    assert sum(len(key) >= 2 for key in memo) == memoized
    # only entries some word product reaches give rows, so none is zero
    assert len(rows) == inserted
    assert all(any(v != F.zero for v in row) for row in rows)
    calls, memos = _products_by_walk(monkeypatch)
    _without_memo(monkeypatch)
    multilinear_identity_space(a, 5)
    assert memos == [] and calls == {"memo": 0, "fresh": plain + recheck}


def test_identity_space_recheck_walks_every_feasible_tuple_afresh(monkeypatch):
    a = full_matrix_algebra(F, 2)
    walks, walk = [], identities.word_products

    def spying(flats, n, ring, memo=None, keys=None):
        walks.append(([next(i for i, m in enumerate(a.mats) if m.data is f) for f in flats],
                      memo, keys))
        return walk(flats, n, ring, memo=memo, keys=keys)

    monkeypatch.setattr(identities, "word_products", spying)
    space = multilinear_identity_space(a, 4)
    assert space.dimension == 1 and space.verified
    feasible = [list(tup) for tup in product(range(a.dim), repeat=4)
                if identities._weight_feasible(a, 4)(tup)]
    sweep = [w for w in walks if w[1] is not None]
    recheck = walks[len(sweep):]
    assert [tup for tup, _, keys in sweep] == [list(keys) for _, _, keys in sweep]
    assert len({id(memo) for _, memo, _ in sweep}) == 1
    assert [tup for tup, _, _ in recheck] == feasible
    assert all(memo is None and keys is None for _, memo, keys in recheck)


def test_identity_space_recheck_rejects_a_wrongly_keyed_memo(monkeypatch):
    # keys that forget which basis element each letter is give the sweep
    # wrong rows
    walk = identities.word_products
    monkeypatch.setattr(identities, "word_products",
                        lambda flats, n, ring, memo=None, keys=None:
                        walk(flats, n, ring, memo=memo, keys=keys and [0] * len(keys)))
    with pytest.raises(ContractViolationError, match="re-verification"):
        multilinear_identity_space(full_matrix_algebra(F, 2), 4)


# -- lemma harnesses ---------------------------------------------------------------

# GF(101) runs the int64 kernel; QQ and GF(2^31 - 1) the exact one
LEMMA_RINGS = (F, QQ, GF(2147483647))


def test_ur_vanishing_small():
    for ring in LEMMA_RINGS:
        rep = ur_vanishing_check(ring, 1, 1, trials=50, seed=0)
        assert rep.status == "ok", ring
        assert rep.violations == 0
        assert rep.degree == 4


def test_block_assembly_ok_and_invalid():
    for ring in LEMMA_RINGS:
        top = full_matrix_algebra(ring, 1)
        bot = full_matrix_algebra(ring, 2)
        rep = block_assembly_check(top, bot, 2, 4, trials=100, seed=0)
        assert rep.status == "ok", ring
        assert rep.violations == 0
        bad = block_assembly_check(top, bot, 1, 4, trials=10, seed=0)
        assert bad.status == "invalid-instance"


def test_block_assembly_with_no_trials_is_ok():
    # zero trials evaluate no assembly on either kernel, so there is
    # nothing to violate
    for ring in LEMMA_RINGS:
        top = full_matrix_algebra(ring, 1)
        bot = full_matrix_algebra(ring, 2)
        rep = block_assembly_check(top, bot, 2, 4, trials=0, seed=0)
        assert (rep.status, rep.violations, rep.first_violation) == ("ok", 0, None), ring


@pytest.mark.parametrize("ring", [F, QQ], ids=["GF(101)", "QQ"])
def test_lemma_checks_reject_negative_trials(ring):
    # a negative trial count is a usage error on both kernels, not an `ok`
    # report with a negative count (QQ) or a numpy error (GF(101))
    top, bot = full_matrix_algebra(ring, 1), full_matrix_algebra(ring, 2)
    with pytest.raises(DimensionError, match="trials >= 0"):
        block_assembly_check(top, bot, 2, 4, trials=-1, seed=0)
    with pytest.raises(DimensionError, match="trials >= 0"):
        ur_vanishing_check(ring, 1, 1, trials=-3, seed=0)


def test_counted_hits_agree_across_kernels(monkeypatch):
    # Rep(1,2) in M_4 satisfies s_6 but not s_4; at t = 4 its corner entry
    # (1, 4), flat index 3, is zero on some tuples whose value is not
    a = repetition_algebra(F, 1, 2)

    def hits(t):
        rng = random.Random(0)
        rows = iter([[[rng.randrange(101) for _ in range(a.dim)] for _ in range(t)]
                     for _ in range(40)])
        return [(pos, w.mats, w.value) for pos, w in
                identities._row_hits(a, t, 40, lambda k: list(islice(rows, k)))]

    fast = hits(4)
    cornered = [hit for hit in fast if hit[2].data[3] != 0]
    assert cornered and len(cornered) < len(fast) == 40
    assert hits(6) == []
    monkeypatch.setattr(identities, "int64_eligible", lambda *args: False)
    assert hits(4) == fast


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


# -- torus-weight pruning --------------------------------------------------------

def _unpruned(monkeypatch):
    monkeypatch.setattr(identities, "_torus_weights", lambda a, t: None)


def _count_dp_items(monkeypatch) -> list:
    """Record the batch size of every fastpath.dp_batch call."""
    sizes = []
    dp_batch = fastpath.dp_batch

    def counting_dp(stack, p):
        sizes.append(stack.shape[1])
        return dp_batch(stack, p)

    monkeypatch.setattr(fastpath, "dp_batch", counting_dp)
    return sizes


# -- the probe block: a sweep's first numpy block is PROBE_ITEMS tuples -------------

def _unprobed(monkeypatch):
    """Make the first block a whole batch of 4,096 tuples."""
    monkeypatch.setattr(identities, "PROBE_ITEMS", 4096)


def test_randomized_witness_at_first_trial_evaluates_only_the_probe(monkeypatch):
    # s_4 is nonzero on almost every random 4-tuple of M_3
    a = full_matrix_algebra(F, 3)
    sizes = _count_dp_items(monkeypatch)
    rep = is_standard_identity(a, 4, mode="randomized", trials=5000, seed=7)
    assert not rep.is_identity and rep.tuples_checked == 1
    assert sizes == [identities.PROBE_ITEMS]
    _unprobed(monkeypatch)
    sizes.clear()
    assert is_standard_identity(a, 4, mode="randomized", trials=5000, seed=7).to_dict() \
        == rep.to_dict()
    assert sizes == [4096]


def test_exhaustive_m4_s6_evaluates_only_the_probe(monkeypatch):
    a = full_matrix_algebra(F, 4)
    feasible_check = identities._weight_feasible(a, 6)
    feasible = sum(1 for c in combinations(range(a.dim), 6) if feasible_check(c))
    sizes = _count_dp_items(monkeypatch)
    rep = is_standard_identity(a, 6)
    assert not rep.is_identity and rep.tuples_checked == 4
    assert sizes == [min(feasible, identities.PROBE_ITEMS)]
    # the pass budget does not size the probe
    monkeypatch.setattr(fastpath, "BATCH_BUDGET_BYTES", 0)
    sizes.clear()
    assert is_standard_identity(a, 6).to_dict() == rep.to_dict()
    assert sizes == [min(feasible, identities.PROBE_ITEMS)]
    _unprobed(monkeypatch)
    sizes.clear()
    assert is_standard_identity(a, 6).to_dict() == rep.to_dict()
    assert sizes == [min(feasible, 4096)]


PRUNING_CASES = [
    (upper_triangular(F, 4), (4, 6, 8)),
    (full_matrix_algebra(F, 3), (4, 5, 6)),
    (upper_triangular(QQ, 3), (3, 4, 6)),
    (full_matrix_algebra(QQ, 2), (2, 3, 4)),
    (full_block_algebra(F, BlockShape((1, 2))), (3, 4, 5)),
    (constrained_triangular(Zmod(8), 2, 2), (2, 3, 4)),
    (constrained_triangular(Zmod(4), 3, 2), (2, 3, 4)),
]


@pytest.mark.parametrize("a,degrees", PRUNING_CASES,
                         ids=[f"{a.label} over {a.ring.name}" for a, _ in PRUNING_CASES])
def test_pruning_on_and_off_agree(monkeypatch, a, degrees):
    assert identities._torus_weights(a, max(degrees)) is not None
    pruned = [is_standard_identity(a, t).to_dict() for t in degrees]
    _unpruned(monkeypatch)
    assert [is_standard_identity(a, t).to_dict() for t in degrees] == pruned


def test_pruning_on_and_off_agree_on_closures(monkeypatch):
    # seeded closures in U_3: some have matrix-unit bases, some do not
    algs = random_triangular_closures(F, 3, 8, seed=5, include_identity=True)
    algs += random_triangular_closures(F, 4, 6, seed=5)
    algs += random_triangular_closures(QQ, 3, 4, seed=6)
    graded = [identities._torus_weights(a, 6) is not None for a in algs]
    assert any(graded) and not all(graded)
    pruned = [min_standard_degree(a).to_dict() for a in algs]
    _unpruned(monkeypatch)
    assert [min_standard_degree(a).to_dict() for a in algs] == pruned


@pytest.mark.parametrize("a", [upper_triangular(F, 3), upper_triangular(F, 2),
                               full_matrix_algebra(QQ, 2)], ids=lambda a: a.label)
def test_identity_space_pruning_on_and_off_agree(monkeypatch, a):
    pruned = multilinear_identity_space(a, 4)
    _unpruned(monkeypatch)
    assert multilinear_identity_space(a, 4).to_dict() == pruned.to_dict()


@pytest.mark.parametrize("t,space", [(10, 3003), (11, 1365)])
def test_u5_top_degrees_send_nothing_to_the_kernel(monkeypatch, t, space):
    sizes = _count_dp_items(monkeypatch)
    rep = is_standard_identity(upper_triangular(F, 5), t)
    assert rep.is_identity
    assert rep.tuples_checked == rep.tuple_space == space
    assert sizes == []


def test_m4_s8_evaluates_only_weight_feasible_combinations(monkeypatch):
    a = full_matrix_algebra(F, 4)
    sizes = _count_dp_items(monkeypatch)
    rep = is_standard_identity(a, 8)
    assert rep.is_identity
    assert rep.tuples_checked == rep.tuple_space == 12870
    # the probe takes the first 64 weight-feasible combinations, and the
    # sparse pass the rest
    assert sizes == [64]
    # the pass forms a child only from a parent and an element whose
    # supports meet: every row of every layer has a feasible weight, and
    # each step forms fewer children than the subsets of feasible weight
    # that extend a row of the layer before (84, 272, ..., 3,372)
    formed = _count_sparse_children(monkeypatch)
    layers = list(fastpath.sparse_layers(fastpath.basis_to_flat(a.mats), 4, 101, 8))
    assert len(layers[-1][0]) == 0
    assert formed == [54, 176, 504, 1128, 2116, 2596, 2796]
    feasible = identities._weight_feasible(a, 8)
    extended = []
    for k, (keys, _) in enumerate(layers, 1):
        combos = fastpath.layer_combos(keys, a.dim, k).tolist()
        assert all(feasible(c) for c in combos)
        children = {tuple(sorted(c + [e])) for c in combos for e in range(a.dim) if e not in c}
        extended.append(sum(map(feasible, children)))
    assert extended[:-1] == [84, 272, 704, 1452, 2524, 3220, 3372]
    assert all(f < e for f, e in zip(formed, extended))


def test_infeasible_tuples_have_only_zero_products():
    # the pruning argument itself, checked by brute force on M_3
    a = full_matrix_algebra(F, 3)
    for t in (2, 3):
        feasible = identities._weight_feasible(a, t)
        dropped = 0
        for tup in product(range(a.dim), repeat=t):
            if feasible(tup):
                continue
            dropped += 1
            for order in permutations(tup):
                prod = a.mats[order[0]]
                for i in order[1:]:
                    prod = prod * a.mats[i]
                assert prod.is_zero(), tup
        assert dropped > 0


def test_torus_weights_of_matrix_units():
    # U_2 basis e11, e12, e22; base 2t + 1 = 5 at t = 2
    assert identities._torus_weights(upper_triangular(F, 2), 2) == [0, 1 - 5, 0]


@pytest.mark.parametrize("mats", [
    [matrix_unit(F, 3, 1, 2) + matrix_unit(F, 3, 2, 3), matrix_unit(F, 3, 1, 3)],
    [matrix_unit(F, 3, 1, 1) + matrix_unit(F, 3, 1, 2), matrix_unit(F, 3, 2, 2)],
], ids=["e12+e23", "e11+e12"])
def test_torus_weights_decline_on_mixed_support(mats):
    a = span_basis(F, 3, mats)
    assert identities._torus_weights(a, 4) is None
    assert identities._weight_feasible(a, 4) is None


# -- the sparse layer pass past the probe ------------------------------------------

def _over_budget(monkeypatch):
    """Make every sparse pass exceed its memory budget, a budget of 0
    bytes, so that sweeps go on in dp_batch blocks past layer 1."""
    monkeypatch.setattr(fastpath, "BATCH_BUDGET_BYTES", 0)


def _sparse_layer(basis_arr, n: int, t: int):
    """Layer t, as (keys, values), of the sparse pass over basis_arr at
    p = 101 (fastpath.sparse_layers), or None where the pass stops before
    it."""
    layers = fastpath.sparse_layers(basis_arr, n, 101, t)
    return next(islice(layers, t - 1, None), None)


def _count_sparse_passes(monkeypatch) -> list:
    """Record the last layer of every sparse pass: the degree of each
    fastpath.sparse_layers generator made, by an exhaustive sweep past its
    probe block or by min_standard_degree."""
    degrees = []
    sparse_layers = fastpath.sparse_layers
    monkeypatch.setattr(fastpath, "sparse_layers",
                        lambda *args: degrees.append(args[3]) or sparse_layers(*args))
    return degrees


def _count_sweeps(monkeypatch) -> list:
    """Record the degree of every is_standard_identity call that
    min_standard_degree makes."""
    degrees = []
    sweep = identities.is_standard_identity
    monkeypatch.setattr(identities, "is_standard_identity",
                        lambda a, t, **kw: degrees.append(t) or sweep(a, t, **kw))
    return degrees


def _count_sparse_children(monkeypatch) -> list:
    """Record how many children each layer of a sparse pass forms: the
    rows of the sums it reduces mod p."""
    formed = []
    reduce = fastpath._reduce
    monkeypatch.setattr(fastpath, "_reduce",
                        lambda acc, p, *rest: formed.append(len(acc)) or reduce(acc, p, *rest))
    return formed


def _forbid(monkeypatch, *names):
    def unused(*args, **kwargs):
        raise AssertionError("unexpected kernel call")

    for name in names:
        monkeypatch.setattr(fastpath, name, unused)


SPARSE_SWEEPS = [
    (full_matrix_algebra(F, 3), (4, 5, 6)),
    (full_matrix_algebra(F, 4), (6, 7, 8)),
    (upper_triangular(F, 4), (6, 7, 8)),
    (full_block_algebra(F, BlockShape((2, 3))), (7, 8)),
]


@pytest.mark.parametrize("probe", [identities.PROBE_ITEMS, 1],
                         ids=["default-probe", "one-tuple-probe"])
def test_sparse_pass_on_and_off_agree(monkeypatch, probe):
    # the pass proves M_4 s_8; with a one-tuple probe it also finds the
    # M_3 s_5, M_4 s_7 and E(2,3) witnesses.  Reports, witnesses and counts
    # are byte-equal with the pass over its budget, where dp_batch runs on
    one_tuple_probe = probe == 1
    monkeypatch.setattr(identities, "PROBE_ITEMS", probe)
    sizes = _count_dp_items(monkeypatch)
    passes = _count_sparse_passes(monkeypatch)
    reports = [is_standard_identity(a, t).to_dict() for a, degrees in SPARSE_SWEEPS for t in degrees]
    assert passes == ([5, 6, 7, 8, 7, 8] if one_tuple_probe else [8])
    probes = list(sizes)
    sizes.clear()
    passes.clear()
    _over_budget(monkeypatch)
    assert [is_standard_identity(a, t).to_dict() for a, degrees in SPARSE_SWEEPS
            for t in degrees] == reports
    # every pass declined, and dp_batch went on after the same probes
    assert passes == ([5, 6, 7, 8, 7, 8] if one_tuple_probe else [8])
    assert len(sizes) > len(probes)


def test_sparse_pass_on_and_off_agree_on_closures(monkeypatch):
    # graded and ungraded closures over GF(101) and GF(7): min_standard_degree
    # reads every degree from one pass, and over budget every degree is its
    # own sweep in dp_batch blocks after a one-tuple probe.  The sweeps of
    # s_t at t = 2n-3, 2n-2 and 2n-1 decide past that probe from layer t of
    # a pass, or from dp_batch blocks over budget; on these closures every
    # witness the pass gives is at t = 2n-3, graded and ungraded
    monkeypatch.setattr(identities, "PROBE_ITEMS", 1)
    algs = []
    for ring in (F, GF(7)):
        algs += random_triangular_closures(ring, 4, 6, seed=5)
        algs += random_triangular_closures(ring, 3, 6, seed=5, include_identity=True)
    graded = [identities._torus_weights(a, 9) is not None for a in algs]
    assert any(graded) and not all(graded)
    passes = _count_sparse_passes(monkeypatch)
    sweeps = _count_sweeps(monkeypatch)
    reports = [min_standard_degree(a).to_dict() for a in algs]
    assert passes == [2 * a.n + 1 for a in algs] and sweeps == []
    cases = [(a, t) for a in algs for t in (2 * a.n - 3, 2 * a.n - 2, 2 * a.n - 1)]
    identity_reports, from_pass = [], set()
    for (a, t), is_graded in zip(cases, (g for g in graded for _ in range(3))):
        passes.clear()
        identity_reports.append(is_standard_identity(a, t).to_dict())
        if passes and identity_reports[-1]["witness"]:
            from_pass.add((a.ring.name, is_graded))
    assert from_pass == {(ring.name, g) for ring in (F, GF(7)) for g in (True, False)}
    _over_budget(monkeypatch)
    assert [min_standard_degree(a).to_dict() for a in algs] == reports
    assert sweeps
    assert [is_standard_identity(a, t).to_dict() for a, t in cases] == identity_reports


# -- min_standard_degree in one sparse layer pass ----------------------------------

def _per_degree(monkeypatch):
    """Send min_standard_degree down the per-degree route: one exhaustive
    is_standard_identity sweep per degree, with its own sparse pass."""
    monkeypatch.setattr(identities, "_layer_reports", lambda a, t_last: iter(()))


@pytest.mark.parametrize("a", [full_block_algebra(F, BlockShape((2, 2, 2))), upper_triangular(F, 6),
                               full_matrix_algebra(F, 4)], ids=lambda a: a.label)
def test_one_pass_min_degree_matches_the_per_degree_route(monkeypatch, a):
    sweeps = _count_sweeps(monkeypatch)
    result = min_standard_degree(a)
    assert result.degree == 2 * a.n and sweeps == []
    _per_degree(monkeypatch)
    assert min_standard_degree(a).to_dict() == result.to_dict()
    assert sweeps == list(range(2, 2 * a.n + 2))


def test_min_degree_goes_on_per_degree_where_the_pass_stops(monkeypatch):
    # with 28 KiB the pass over M_3 builds layers 1 to 3 and stops before 4
    a = full_matrix_algebra(F, 3)
    want = min_standard_degree(a).to_dict()
    monkeypatch.setattr(fastpath, "BATCH_BUDGET_BYTES", 28 * 2**10)
    sweeps = _count_sweeps(monkeypatch)
    assert min_standard_degree(a).to_dict() == want
    assert sweeps == [4, 5, 6, 7]


def test_min_degree_past_key_bits_sweeps_every_degree(monkeypatch):
    # a basis wider than KEY_BITS gets no pass: every degree is its own sweep
    a = full_matrix_algebra(F, 3)
    want = min_standard_degree(a).to_dict()
    monkeypatch.setattr(fastpath, "KEY_BITS", a.dim - 1)
    sweeps = _count_sweeps(monkeypatch)
    assert min_standard_degree(a).to_dict() == want
    assert sweeps == [2, 3, 4, 5, 6, 7]


def test_min_degree_past_the_dimension_is_vacuous_in_the_pass(monkeypatch):
    # U_2 (dim 3) needs degree 4 and E = span(e11, e12) (dim 2) degree 3:
    # both past the dimension, read from the pass with nothing checked
    e = span_basis(F, 2, [matrix_unit(F, 2, 1, 1), matrix_unit(F, 2, 1, 2)])
    cases = [(upper_triangular(F, 2), 4), (e, 3)]
    sweeps = _count_sweeps(monkeypatch)
    results = [min_standard_degree(a) for a, _ in cases]
    assert sweeps == []
    for result, (a, degree) in zip(results, cases):
        last = result.reports[-1]
        assert result.degree == degree == a.dim + 1
        assert last.note == identities.VACUOUS_NOTE and last.tuples_checked == 0
    assert results[0].cross_check.note == identities.VACUOUS_NOTE
    assert results[1].cross_check is None  # odd degree
    _per_degree(monkeypatch)
    assert [min_standard_degree(a).to_dict() for a, _ in cases] == [r.to_dict() for r in results]


def test_unital_cross_check_is_the_next_layer_of_the_pass(monkeypatch):
    a = full_matrix_algebra(F, 3)
    want = is_standard_identity(a, 7).to_dict()
    sweeps = _count_sweeps(monkeypatch)
    result = min_standard_degree(a)
    assert result.degree == 6 and sweeps == []
    assert result.cross_check.to_dict() == want
    assert want["verdict"] == "identity" and want["tuples_checked"] == want["tuple_space"] == 36


def test_unital_cross_check_guard_stays(monkeypatch):
    # a cross-check that is not an identity contradicts the unital reduction
    a = full_matrix_algebra(F, 2)
    reports = [is_standard_identity(a, t) for t in (2, 3, 4, 3)]
    monkeypatch.setattr(identities, "_layer_reports", lambda a, t_last: iter(reports))
    with pytest.raises(ContractViolationError, match="even/odd"):
        min_standard_degree(a)


def test_probe_and_pass_disagreeing_raises(monkeypatch):
    # a probe that finds every combination zero (dp_batch forged to return
    # zeros) while the pass finds M_4 s_6 nonzero at combination 4, inside
    # the probe: the disagreement raises instead of a later witness
    dp_batch = fastpath.dp_batch
    monkeypatch.setattr(fastpath, "dp_batch", lambda stack, p: 0 * dp_batch(stack, p))
    with pytest.raises(ContractViolationError, match="combination 4, which the probe"):
        is_standard_identity(full_matrix_algebra(F, 4), 6)


@pytest.mark.parametrize("a,t,checked", [
    (full_matrix_algebra(F, 4), 6, 4),
    (full_matrix_algebra(F, 5), 8, 71),
    (upper_triangular(F, 5), 9, 1650),
], ids=["M_4 s_6", "M_5 s_8", "U_5 s_9"])
def test_witness_in_the_probe_never_builds_layers(monkeypatch, a, t, checked):
    _forbid(monkeypatch, "sparse_layers")
    rep = is_standard_identity(a, t)
    assert not rep.is_identity and rep.tuples_checked == checked


def test_tables_over_budget_fall_back_to_dp_batch(monkeypatch):
    a = full_matrix_algebra(F, 4)
    sizes = _count_dp_items(monkeypatch)
    passes = _count_sparse_passes(monkeypatch)
    sparse, sparse_sizes = is_standard_identity(a, 8).to_dict(), list(sizes)
    assert passes == [8] and sparse_sizes == [64]
    sizes.clear()
    _over_budget(monkeypatch)
    assert is_standard_identity(a, 8).to_dict() == sparse
    # the probe, then the rest as one dp_batch slice, with no second probe
    assert sizes == [64, 3978 - 64]


def test_basis_past_key_bits_falls_back_to_dp_batch(monkeypatch):
    # M_8 has 64 basis elements, more than the KEY_BITS = 63 that int64
    # bitmasks key; its s_2 witness is the first combination, in the probe
    m8 = full_matrix_algebra(F, 8)
    assert _sparse_layer(fastpath.basis_to_flat(m8.mats), 8, 2) is None
    rep = is_standard_identity(m8, 2)
    assert rep.witness.indices == (1, 2) and rep.tuples_checked == 1
    # a basis past KEY_BITS sweeps on in dp_batch blocks, with equal reports
    a = full_matrix_algebra(F, 4)
    sparse = is_standard_identity(a, 8).to_dict()
    sizes = _count_dp_items(monkeypatch)
    monkeypatch.setattr(fastpath, "KEY_BITS", a.dim - 1)
    assert is_standard_identity(a, 8).to_dict() == sparse
    assert sizes == [64, 3978 - 64]


def _slice_items(monkeypatch, t, n, items):
    """Make dp_batch's slices hold `items` items at (t, n) over GF(101)."""
    itemsize = np.dtype(fastpath._dp_tier(101, n, t)[0]).itemsize
    monkeypatch.setattr(fastpath, "SLICE_BUDGET_BYTES",
                        items * 2 * math.comb(t, t // 2) * n * n * itemsize)
    assert fastpath.slice_items(t, n, 101) == items


def test_stopped_pass_probes_once_and_gathers_its_stacks(monkeypatch):
    # M_4 s_8 with no pass (KEY_BITS = 0) and slices of 1,000 items: the
    # probe, then the 3,914 combinations left in slice-sized blocks, each
    # stack a gather of basis elements equal to coords_to_stack of the
    # combinations' unit rows; the report is byte-identical to the pass's
    a = full_matrix_algebra(F, 4)
    want = json.dumps(is_standard_identity(a, 8).to_dict())
    stacks = []
    dp_batch = fastpath.dp_batch
    monkeypatch.setattr(fastpath, "dp_batch",
                        lambda stack, p: stacks.append(stack) or dp_batch(stack, p))
    monkeypatch.setattr(fastpath, "KEY_BITS", 0)
    _slice_items(monkeypatch, 8, 4, 1000)
    assert json.dumps(is_standard_identity(a, 8).to_dict()) == want
    assert [s.shape[1] for s in stacks] == [64, 1000, 1000, 1000, 914]
    feasible = identities._weight_feasible(a, 8)
    combos = [c for c in combinations(range(a.dim), 8) if feasible(c)]
    units = np.eye(a.dim, dtype=np.int64)[combos]
    want_stack = fastpath.coords_to_stack(fastpath.basis_to_flat(a.mats), units, a.n, 101)
    assert np.array_equal(np.concatenate(stacks, axis=1), want_stack)


def test_every_dp_batch_call_of_both_sweeps_holds_at_most_one_slice(monkeypatch):
    # with slices of 20 items the probe is cut to one slice too: M_4 s_8
    # probes 20 combinations before the pass decides the rest, and 200
    # randomized M_3 s_6 rows come in ten blocks of 20; the reports are
    # those of the default slices
    exhaustive = (full_matrix_algebra(F, 4), 8, {})
    randomized = (full_matrix_algebra(F, 3), 6, dict(mode="randomized", trials=200, seed=0))
    for (a, t, kwargs), blocks in ((exhaustive, [20]), (randomized, [20] * 10)):
        want = is_standard_identity(a, t, **kwargs).to_dict()
        with monkeypatch.context() as patch:
            sizes = _count_dp_items(patch)
            _slice_items(patch, t, a.n, 20)
            assert is_standard_identity(a, t, **kwargs).to_dict() == want
        assert sizes == blocks


def test_row_sweep_streams_compact_rows_one_slice_at_a_time(monkeypatch):
    # 5,000 randomized M_3 s_6 rows with slices of at most 700 items: after
    # the probe the 4,936 rows left come in 8 equal slices, and each
    # dp_batch call gets one slice, drawn and stacked in int16 just before
    # it; the report matches one whole-batch sweep
    a = full_matrix_algebra(F, 3)
    held, sizes = [], []
    coords_to_stack, dp_batch = fastpath.coords_to_stack, fastpath.dp_batch

    def stacking(basis_arr, coords, n, p):
        held.append(len(coords))
        stack = coords_to_stack(basis_arr, coords, n, p)
        assert stack.dtype == np.int16
        return stack

    def slicing(stack, p):
        sizes.append(stack.shape[1])
        assert stack.shape[1] <= fastpath.slice_items(6, 3, p)
        return dp_batch(stack, p)

    want = is_standard_identity(a, 6, mode="randomized", trials=5000, seed=3).to_dict()
    monkeypatch.setattr(fastpath, "coords_to_stack", stacking)
    monkeypatch.setattr(fastpath, "dp_batch", slicing)
    _slice_items(monkeypatch, 6, 3, 700)
    assert is_standard_identity(a, 6, mode="randomized", trials=5000, seed=3).to_dict() == want
    probe = identities.PROBE_ITEMS
    assert sizes == [probe] + [617] * 8 == [probe] + identities._equal_slices(5000 - probe, 700)
    assert held == sizes


@pytest.mark.parametrize("p", [2, 101, 65537])
@pytest.mark.parametrize("blocks", [(41, 1331, 628), (1, 1, 1998), (3, 997, 1000), (5, 7, 11)],
                         ids=lambda b: "-".join(map(str, b)))
def test_random_rows_drawn_in_blocks_equal_one_draw(p, blocks):
    # a sweep draws each block's rows just before it stacks them; the
    # blocks, odd sizes included, concatenate to the single draw of every
    # trial at once that seeded reports were computed from
    a, t, seed = full_matrix_algebra(GF(p), 3), 6, 4
    assert standardpoly.int64_eligible(a.ring, a.n, t)
    draw = identities._random_rows(a, t, seed)
    got = np.concatenate([draw(k) for k in blocks])
    want = np.random.default_rng(seed).integers(0, p, size=(sum(blocks), t, a.dim),
                                                dtype=np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def _traced(run):
    """run()'s result and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_randomized_sweep_peak_does_not_grow_with_trials(monkeypatch):
    # M_3 s_6 with slices of at most 500 items: 40,000 trials trace the
    # peak of 2,000 to within 10%, since rows are drawn, stacked and
    # evaluated one slice at a time (0.39 and 0.41 MiB; one int64 draw of
    # all 40,000 rows alone takes 16.5 MiB)
    a = full_matrix_algebra(F, 3)
    _slice_items(monkeypatch, 6, 3, 500)
    is_standard_identity(a, 6, mode="randomized", trials=50, seed=1)  # imports, caches
    peaks = []
    for trials in (2000, 40000):
        rep, peak = _traced(lambda: is_standard_identity(a, 6, mode="randomized",
                                                         trials=trials, seed=0))
        assert rep.is_identity and rep.tuples_checked == trials
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0]


def test_randomized_s10_sweep_on_m5_stays_inside_one_slice(monkeypatch):
    # the s_10 sweep of `verify-al --n 5`: a 64-row probe and two equal
    # slices of 968 rows (not 1,331 and 605), each drawn and stacked in
    # int16 just before its dp_batch call: 14.2 MiB traced, where whole
    # int64 draws, int64 stacks and 1,331-item slices took 22.4
    a = full_matrix_algebra(F, 5)
    is_standard_identity(a, 10, mode="randomized", trials=50, seed=1)  # imports, caches
    sizes = _count_dp_items(monkeypatch)
    rep, peak = _traced(lambda: is_standard_identity(a, 10, mode="randomized",
                                                     trials=2000, seed=0))
    assert rep.is_identity and rep.tuples_checked == 2000
    assert sizes == [64, 968, 968] == [64, *identities._equal_slices(1936, 1331)]
    assert peak <= 17 * 2**20


@pytest.mark.parametrize("a,t", [(full_matrix_algebra(F, 3), 5), (upper_triangular(F, 5), 9),
                                 (full_block_algebra(F, BlockShape((2, 3))), 7)],
                         ids=["M_3 s_5", "U_5 s_9", "E(2,3) s_7"])
def test_sparse_pass_witness_is_the_lex_first_nonzero_combination(monkeypatch, a, t):
    # with a one-tuple probe the pass finds the witness; its position is
    # its lexicographic rank plus 1, as a one-by-one sweep counts it
    monkeypatch.setattr(identities, "PROBE_ITEMS", 1)
    rep = is_standard_identity(a, t)
    combos = list(combinations(range(a.dim), t))
    want = rep.tuples_checked - 1
    assert combos[want] == tuple(i - 1 for i in rep.witness.indices)
    basis_arr = fastpath.basis_to_flat(a.mats)
    units = np.eye(a.dim, dtype=np.int64)[combos[:want + 1]]
    values = fastpath.dp_batch(fastpath.coords_to_stack(basis_arr, units, a.n, 101), 101)
    assert values.any(axis=(1, 2)).tolist() == [False] * want + [True]


def test_lex_rank_counts_the_combinations_before():
    for d in range(1, 8):
        for t in range(1, d + 1):
            for rank, c in enumerate(combinations(range(d), t)):
                assert identities._lex_rank(c, d) == rank


# -- the witness re-check at every degree ------------------------------------------

def _walks(monkeypatch) -> list:
    """Spy on the re-check's pure walk: returns the list that receives the
    ring of each word_products walk."""
    walks, walk = [], standardpoly.word_products
    monkeypatch.setattr(standardpoly, "word_products",
                        lambda flats, n, ring, budget=None, **kw: walks.append(ring)
                        or walk(flats, n, ring, budget, **kw))
    return walks


def _walk_size(monkeypatch, mats) -> int:
    """Products the re-check of the nonzero s_t(mats) forms by mul_flat."""
    formed = 0

    def counting(*args):
        nonlocal formed
        formed += 1
        return mul_flat(*args)

    value = standardpoly.eval_standard_dp(mats)
    with monkeypatch.context() as mp:
        mp.setattr(standardpoly, "mul_flat", counting)
        standardpoly._reverify_witness(mats, value)
    return formed


def _chain():
    # a t = 8 chain of units over QQ, past the numpy gate: s_8 = e_19
    return [matrix_unit(QQ, 9, i, i + 1) for i in range(1, 9)]


@pytest.mark.parametrize("a,t", [(upper_triangular(F, 5), 9), (upper_triangular(F, 6), 11), (None, 8)],
                         ids=["U_5 s_9", "U_6 s_11", "chain s_8"])
def test_high_degree_witnesses_recheck_without_the_dp(monkeypatch, a, t):
    def unused(mats):
        raise AssertionError("the re-check fell back to the DP")

    monkeypatch.setattr(standardpoly, "eval_standard_dp", unused)
    if a is None:
        mats, value = _chain(), matrix_unit(QQ, 9, 1, 9)
    else:
        rep = is_standard_identity(a, t)
        assert not rep.is_identity
        mats, value = rep.witness.mats, rep.witness.value
    walks = _walks(monkeypatch)
    standardpoly._reverify_witness(mats, value)
    assert walks == [value.ring]  # one walk, in the witness's own ring
    with pytest.raises(ContractViolationError):
        standardpoly._reverify_witness(mats, value + value)


def test_recheck_past_the_walk_budget_falls_back_to_the_dp(monkeypatch):
    witness = is_standard_identity(upper_triangular(F, 5), 9).witness
    calls = []
    dp = standardpoly.eval_standard_dp
    monkeypatch.setattr(standardpoly, "eval_standard_dp", lambda mats: calls.append(1) or dp(mats))
    standardpoly._reverify_witness(witness.mats, witness.value)
    assert calls == []
    monkeypatch.setattr(standardpoly, "WALK_BUDGET", 491)
    standardpoly._reverify_witness(witness.mats, witness.value)
    assert calls == [1]


def test_recheck_takes_naive_single_exactly_inside_the_int64_gate(monkeypatch):
    # an M_2 s_3 witness over GF(101) is re-checked by naive_single, with
    # the pure walk made to raise; the same witness over QQ takes the walk
    gf = is_standard_identity(full_matrix_algebra(F, 2), 3).witness
    qq = is_standard_identity(full_matrix_algebra(QQ, 2), 3).witness
    kernel, walk = fastpath.naive_single, standardpoly._eval_standard_naive_py
    kernels, walks = [], []
    monkeypatch.setattr(fastpath, "naive_single",
                        lambda arr, p: kernels.append(p) or kernel(arr, p))

    def unused(mats, budget=None):
        raise AssertionError("the re-check took the pure walk")

    monkeypatch.setattr(standardpoly, "_eval_standard_naive_py", unused)
    standardpoly._reverify_witness(gf.mats, gf.value)
    assert kernels == [101]
    monkeypatch.setattr(standardpoly, "_eval_standard_naive_py",
                        lambda mats, budget=None: walks.append(len(mats)) or walk(mats, budget))
    standardpoly._reverify_witness(qq.mats, qq.value)
    assert kernels == [101] and walks == [3]


def test_dense_witness_past_the_budget_skips_the_walk(monkeypatch):
    # a dense s_9 witness: its walk would form about 986,000 products
    rng = random.Random(9)
    mats = [Matrix(F, 5, 5, [rng.randrange(101) for _ in range(25)]) for _ in range(9)]
    value = standardpoly.eval_standard_dp(mats)
    assert not value.is_zero()

    def unused(mats):
        raise AssertionError("the re-check walked a dense degree-9 witness")

    monkeypatch.setattr(standardpoly, "_eval_standard_naive_py", unused)
    standardpoly._reverify_witness(mats, value)


def test_dense_witness_never_walks_its_supports(monkeypatch):
    # no factor has a zero row or column, so no prefix is zero and its walk
    # would form every product, past the budget: a randomized M_5 s_9
    # witness goes to the DP without walking
    walks = _walks(monkeypatch)
    rep = is_standard_identity(full_matrix_algebra(F, 5), 9, mode="randomized", trials=20)
    assert not rep.is_identity and rep.tuples_checked == 1
    standardpoly._reverify_witness(rep.witness.mats, rep.witness.value)
    assert walks == []


def test_walk_budget_covers_every_walk_up_to_degree_7(monkeypatch):
    # a dense t = 7 tuple, past the numpy gate, forms every product of its
    # walk, all inside the budget
    rng = random.Random(7)
    ring = GF(2**61 - 1)
    dense = [Matrix(ring, 4, 4, [rng.randrange(1, 10) for _ in range(16)]) for _ in range(7)]
    total = sum(math.perm(7, k) for k in range(2, 8))
    assert _walk_size(monkeypatch, dense) == total == 13692 <= standardpoly.WALK_BUDGET
    # a sparse t = 8 tuple is walked: a chain of units forms 168 products
    assert _walk_size(monkeypatch, _chain()) == 168
    # the walk of the U_5 s_9 witness forms 492 products
    witness = is_standard_identity(upper_triangular(F, 5), 9).witness
    assert _walk_size(monkeypatch, list(witness.mats)) == 492
