from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpi import blocks, standardpoly
from matpi.blocks import (
    BlockShape,
    FullBlockTriangular,
    NonSemisimpleBlock,
    NotCanonical,
    NotUniserial,
    OutsideHypotheses,
    ProperSimpleBlock,
    Repetition,
    SatisfiesLowDegree,
    ZeroDiagonalBlock,
    classify,
    diag_block,
    first_below_block_violation,
    intertwiner_space,
    staircase_units,
    tail_staircase_units,
    window_block,
    _project,
)
from matpi.constructions import (
    diagonal_algebra,
    diagonal_embedding,
    full_block_algebra,
    full_matrix_algebra,
    repetition_algebra,
    upper_triangular,
)
from matpi.errors import ContractViolationError, DimensionError
from matpi.identities import is_standard_identity, random_triangular_closures
from matpi.matrices import Matrix, matrix_unit
from matpi.rings import GF, QQ
from matpi.standardpoly import eval_standard_dp, eval_standard_naive
from matpi.subalgebra import span_basis

F = GF(101)


def test_block_shape_basics():
    s = BlockShape((1, 2))
    assert s.n == 3
    assert s.num_blocks == 2
    assert s.row_range(1) == (0, 1)
    assert s.row_range(2) == (1, 3)
    assert s.triangular_dim() == 1 + 4 + 2
    assert str(s) == "(1,2)"
    with pytest.raises(DimensionError):
        BlockShape((1, 0))


def test_block_of():
    s = BlockShape((2, 1, 3))
    assert [s.block_of(r) for r in range(6)] == [1, 1, 2, 3, 3, 3]


def test_is_block_triangular_and_violation():
    s = BlockShape((1, 2))
    x = Matrix(F, 3, 3, [1, 2, 3, 0, 4, 5, 0, 6, 7])
    y = Matrix(F, 3, 3, [1, 0, 0, 9, 1, 0, 0, 0, 1])
    assert first_below_block_violation(y, s) == (2, 1)
    assert first_below_block_violation(x, s) is None


def test_diag_and_window_blocks():
    s = BlockShape((1, 2))
    x = Matrix(F, 3, 3, [1, 2, 3, 0, 4, 5, 0, 6, 7])
    assert diag_block(x, s, 1) == Matrix(F, 1, 1, [1])
    assert diag_block(x, s, 2) == Matrix(F, 2, 2, [4, 5, 6, 7])
    w = window_block(x, s, 1, 2)
    assert w.rows == 3 and w.cols == 3
    assert w == x  # window 1..2 is everything here


def test_project_homomorphism():
    s = BlockShape((1, 2))
    e = full_block_algebra(F, s)
    p2 = _project(e, s, 2, 2)
    assert p2.n == 2 and p2.dim == 4
    # projection of a product = product of projections (spot check)
    x = Matrix(F, 3, 3, [1, 2, 3, 0, 4, 5, 0, 6, 7])
    y = Matrix(F, 3, 3, [2, 0, 1, 0, 1, 2, 0, 3, 4])
    assert diag_block(x * y, s, 2) == diag_block(x, s, 2) * diag_block(y, s, 2)


def test_intertwiner_space_identity_coupling():
    # spec-style example: two tied 2x2 diagonal copies; intertwiners are
    # scalar multiples of the identity
    a = diagonal_embedding(F, 2, 2)
    s = BlockShape((2, 2))
    space = intertwiner_space(a, s, 1, 2)
    assert len(space) == 1
    t = space[0]
    assert t == t[0, 0] * Matrix(F, 2, 2, [1, 0, 0, 1])


def test_intertwiner_space_zero_when_inequivalent():
    # U_2 diagonal blocks are the two independent coordinates
    a = upper_triangular(F, 2)
    s = BlockShape((1, 1))
    assert intertwiner_space(a, s, 1, 2) == []


def test_staircase_units_shape_and_value():
    st = staircase_units(F, 3)
    assert len(st) == 5
    assert eval_standard_dp(st) == matrix_unit(F, 3, 1, 3)
    tail = tail_staircase_units(F, 3)
    assert len(tail) == 4
    assert tail == st[1:]
    assert eval_standard_naive(tail) == matrix_unit(F, 3, 1, 3)


# -- classify ------------------------------------------------------------------

def test_classify_full_block_shapes():
    for parts in ((1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (3,)):
        s = BlockShape(parts)
        e = full_block_algebra(F, s)
        v = classify(e, s)
        assert isinstance(v, FullBlockTriangular), (parts, v)
        assert v.shape == s
        w = v.witness
        assert len(w.mats) == max(2 * s.n - 2, 1)
        assert not w.value.is_zero()
        for m in w.mats:
            assert e.contains(m)
        # independent recomputation of the witness value
        if len(w.mats) >= 2:
            assert eval_standard_dp(list(w.mats)) == w.value


def test_classify_not_canonical():
    a = full_matrix_algebra(F, 2)
    v = classify(a, BlockShape((1, 1)))
    assert isinstance(v, NotCanonical)
    assert (v.row, v.col) == (2, 1)


def test_classify_proper_simple_block():
    a = diagonal_algebra(F, 2)
    v = classify(a, BlockShape((2,)))
    assert isinstance(v, SatisfiesLowDegree)
    assert isinstance(v.reason, ProperSimpleBlock)
    assert v.reason.block_index == 1


@pytest.mark.parametrize("a,shape,reason", [
    (upper_triangular(F, 2), (2,), NonSemisimpleBlock(1)),
    (upper_triangular(F, 3), (1, 2), NonSemisimpleBlock(2)),
    (span_basis(F, 3, [matrix_unit(F, 3, i, j) for i, j in
                       ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))]), (3,), NonSemisimpleBlock(1)),
    (span_basis(F, 3, [matrix_unit(F, 3, i, j) for i, j in
                       ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))]), (1, 1, 1), ZeroDiagonalBlock(3)),
], ids=["U_2 (2)", "U_3 (1,2)", "no e33 (3)", "no e33 (1,1,1)"])
def test_classify_outside_hypotheses(a, shape, reason):
    # each fails s_(2n-2), which a SatisfiesLowDegree verdict would deny
    assert not is_standard_identity(a, 2 * a.n - 2).is_identity
    assert classify(a, BlockShape(shape)) == OutsideHypotheses(reason)


def compositions(n):
    """Every ordered composition of n."""
    for cuts in range(n):
        for inner in combinations(range(1, n), cuts):
            bounds = (0, *inner, n)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def transitive_relations(n):
    """Every nonempty transitive relation inside {(i, j) : i <= j} on 1..n:
    the spans of their matrix units are exactly the subalgebras of U_n
    spanned by matrix units, unital or not."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for k in range(1, len(cells) + 1):
        for rel in combinations(cells, k):
            held = set(rel)
            if all((i, l) in held for i, j in rel for jj, l in rel if j == jj):
                yield rel


@pytest.mark.parametrize("n,pairs,outside", [(2, 14, 9), (3, 220, 170), (4, 5112, 4064)])
def test_classify_has_no_false_verdict_on_matrix_unit_subalgebras(n, pairs, outside):
    # every subalgebra of U_n spanned by matrix units against every shape:
    # SatisfiesLowDegree only where s_(2n-2) vanishes, FullBlockTriangular
    # only where it does not, and the rest outside the hypotheses
    seen = moved = 0
    for rel in transitive_relations(n):
        a = span_basis(F, n, [matrix_unit(F, n, i, j) for i, j in rel])
        identity = is_standard_identity(a, 2 * n - 2).is_identity
        for shape in compositions(n):
            verdict = classify(a, BlockShape(shape))
            if isinstance(verdict, NotCanonical):
                continue
            seen += 1
            moved += isinstance(verdict, OutsideHypotheses)
            if isinstance(verdict, SatisfiesLowDegree):
                assert identity, (rel, shape, verdict.describe())
            if isinstance(verdict, FullBlockTriangular):
                assert not identity, (rel, shape)
    assert (seen, moved) == (pairs, outside)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32), st.booleans())
def test_classify_has_no_false_verdict_on_random_closures(n, seed, unital):
    # seeded closures inside U_3 and U_4 against every shape: never
    # SatisfiesLowDegree where the exhaustive sweep finds an s_(2n-2)
    # witness, and FullBlockTriangular only where it does
    a, = random_triangular_closures(F, n, 1, seed=seed, include_identity=unital)
    identity = is_standard_identity(a, 2 * n - 2).is_identity
    for shape in compositions(n):
        verdict = classify(a, BlockShape(shape))
        if isinstance(verdict, SatisfiesLowDegree):
            assert identity, (shape, verdict.describe())
        if isinstance(verdict, FullBlockTriangular):
            assert not identity, shape


def test_classify_repetition():
    a = repetition_algebra(F, 1, 2)
    v = classify(a, BlockShape((1, 2, 1)))
    assert isinstance(v, SatisfiesLowDegree)
    assert isinstance(v.reason, Repetition)
    assert (v.reason.first, v.reason.second) == (1, 3)


def test_classify_repetition_on_unit_blocks():
    # blocks 1 and 3 of Rep(1,1) carry the same scalar; U_3 ties none
    s = BlockShape((1, 1, 1))
    assert classify(repetition_algebra(F, 1, 1), s) == SatisfiesLowDegree(Repetition(1, 3))
    assert isinstance(classify(upper_triangular(F, 3), s), FullBlockTriangular)


def test_classify_diagonal_embedding_is_repetition():
    a = diagonal_embedding(F, 2, 2)
    v = classify(a, BlockShape((2, 2)))
    assert isinstance(v, SatisfiesLowDegree)
    assert isinstance(v.reason, Repetition)


# block-diagonal: U_1 x M_2 inside shape (1,2) with no coupling
U1xM2 = span_basis(F, 3, [matrix_unit(F, 3, 1, 1)] + [
    matrix_unit(F, 3, i, j) for i in (2, 3) for j in (2, 3)], label="U1xM2")


def test_classify_not_uniserial():
    v = classify(U1xM2, BlockShape((1, 2)))
    assert isinstance(v, SatisfiesLowDegree)
    assert isinstance(v.reason, NotUniserial)
    assert v.reason.coupling_index == 1


def test_classify_rejects_non_closed_span():
    # span{e11,e22,e33,e12,e23} is not multiplicatively closed (e12*e23=e13
    # escapes); the structural scans find no obstruction, so the dimension
    # consistency check must flag the bad input loudly
    mats = [matrix_unit(F, 3, i, j) for (i, j) in
            ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3))]
    a = span_basis(F, 3, mats, label="U3-minus-corner")
    with pytest.raises(ContractViolationError):
        classify(a, BlockShape((1, 1, 1)))


@pytest.mark.parametrize("a,parts,verdict,calls", [
    (full_block_algebra(F, BlockShape((1, 2, 1))), (1, 2, 1), "full-block-triangular(1,2,1)", 5),
    (upper_triangular(F, 4), (1, 1, 1, 1), "full-block-triangular(1,1,1,1)", 7),
    (repetition_algebra(F, 1, 2), (1, 2, 1), "satisfies-low-degree(repetition[1,3])", 3),
    (U1xM2, (1, 2), "satisfies-low-degree(not-uniserial[1])", 3),
], ids=["E(1,2,1)", "U_4", "Rep(1,2)", "U_1xM_2"])
def test_classify_projects_each_block_and_coupling_once(monkeypatch, a, parts, verdict, calls):
    # one projection per diagonal block and per coupling reached: 2k - 1 on
    # a full verdict with k blocks
    seen = []

    def spy(a, shape, i, j):
        seen.append((i, j))
        return _project(a, shape, i, j)

    monkeypatch.setattr(blocks, "_project", spy)
    assert classify(a, BlockShape(parts)).describe() == verdict
    assert len(seen) == len(set(seen)) == calls


@pytest.mark.parametrize("a,parts,scans", [
    (full_block_algebra(F, BlockShape((1, 2, 1))), (1, 2, 1), 11),
    (upper_triangular(F, 4), (1, 1, 1, 1), 10),
    (repetition_algebra(F, 1, 2), (1, 2, 1), 10),
    (U1xM2, (1, 2), 5),
], ids=["E(1,2,1)", "U_4", "Rep(1,2)", "U_1xM_2"])
def test_classify_scans_each_basis_element_once(monkeypatch, a, parts, scans):
    # the up-front NotCanonical check is the only triangularity scan; the
    # projections cut after it do not repeat it
    seen = []

    def spy(x, shape):
        seen.append(x)
        return first_below_block_violation(x, shape)

    monkeypatch.setattr(blocks, "first_below_block_violation", spy)
    classify(a, BlockShape(parts))
    assert len(seen) == a.dim == scans


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_rejects_a_staircase_value_other_than_the_corner_unit(monkeypatch, n):
    # s_(2n-2) on the tail staircase is e_(1,n) exactly; a nonzero value
    # that is not, here 2 e_(1,n), fails the re-check
    monkeypatch.setattr(standardpoly, "eval_standard_naive",
                        lambda mats: eval_standard_naive(mats).scale(2))
    with pytest.raises(ContractViolationError, match="witness failed re-verification"):
        classify(upper_triangular(F, n), BlockShape((1,) * n))


@pytest.mark.parametrize("ring", [F, QQ], ids=["GF(101)", "QQ"])
@pytest.mark.parametrize("parts", [(1, 2), (1, 1, 1), (2, 2)], ids=["E(1,2)", "U_3", "E(2,2)"])
def test_classify_rechecks_its_staircase_once_without_the_dp(monkeypatch, ring, parts):
    # a full verdict's witness goes through the shared witness check: one
    # re-check of the tail staircase against e_(1,n), and no DP call
    calls = []
    reverify = standardpoly._reverify_witness

    def spy(mats, expected):
        calls.append((tuple(mats), expected))
        reverify(mats, expected)

    def no_dp(mats):
        raise AssertionError("the staircase re-check ran the DP")

    monkeypatch.setattr(standardpoly, "_reverify_witness", spy)
    monkeypatch.setattr(standardpoly, "eval_standard_dp", no_dp)
    s = BlockShape(parts)
    v = classify(full_block_algebra(ring, s), s)
    assert isinstance(v, FullBlockTriangular)
    assert isinstance(v.witness, standardpoly.Witness) and v.witness.indices is None
    corner = matrix_unit(ring, s.n, 1, s.n)
    assert calls == [(tuple(tail_staircase_units(ring, s.n)), corner)]
    assert v.witness.mats == calls[0][0] and v.witness.value == corner


def test_classify_over_qq_matches_gf():
    for parts in ((1, 2), (1, 1)):
        s = BlockShape(parts)
        vq = classify(full_block_algebra(QQ, s), s)
        vf = classify(full_block_algebra(F, s), s)
        assert type(vq) is type(vf) is FullBlockTriangular
