"""Acceptance suite: the thirteen headline claims, one pass/fail line each.

Each test prints a single `[PASS]`/`[FAIL]` line (straight to the terminal,
bypassing capture) with the measured quantities, then asserts.  Time bounds
stated with a criterion are asserted; throughput comparisons are printed as
informative only.
"""

import math
import sys
import time
from itertools import combinations, product

import numpy as np

from matpi import fastpath
from matpi.blocks import (
    BlockShape,
    FullBlockTriangular,
    classify,
    staircase_units,
)
from matpi.constructions import (
    constrained_triangular,
    diagonal_algebra,
    diagonal_embedding,
    full_block_algebra,
    full_matrix_algebra,
    repetition_algebra,
    two_block_radical,
    upper_triangular,
)
from matpi.identities import (
    block_assembly_check,
    is_standard_identity,
    multilinear_identity_space,
    random_triangular_closures,
    standard_sign_vector,
    ur_vanishing_check,
)
from matpi.matrices import Matrix, matrix_unit
from matpi.rings import GF, QQ, Zmod
from matpi.standardpoly import (
    consecutive_factor_sum,
    eval_standard_dp,
    eval_standard_naive,
    product_of,
)
from matpi.subalgebra import close_generators, jacobson_radical, span_basis

F = GF(101)


# One line per criterion; conftest re-emits these in the terminal summary
# because the per-test prints are swallowed by output capture on success.
RECORDED_LINES = []


def log_line(line):
    RECORDED_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def record(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    log_line(f"[{tag}] acceptance {num:02d} {name}: {detail}")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_criterion_01_staircase_identity():
    started = time.perf_counter()
    checked = 0
    ok = True
    for ring in (QQ, F):
        for n in range(2, 7):
            v = eval_standard_dp(staircase_units(ring, n))
            ok = ok and v == matrix_unit(ring, n, 1, n)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    record(1, "staircase-value", ok,
           f"s_(2n-1)(staircase) = e_(1,n) exactly for n=2..6 over QQ and "
           f"GF(101) ({checked} cases, {elapsed:.2f}s < 1s)")


def test_criterion_02_amitsur_levitski():
    started = time.perf_counter()
    counts = []
    ok = True
    for n in (2, 3, 4):
        rep = is_standard_identity(full_matrix_algebra(F, n), 2 * n)
        ok = ok and rep.is_identity and rep.tuples_checked == math.comb(n * n, 2 * n)
        counts.append(rep.tuples_checked)
    rand = is_standard_identity(full_matrix_algebra(F, 5), 10,
                                mode="randomized", trials=2000, seed=0)
    ok = ok and rand.is_identity and rand.tuples_checked == 2000
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    record(2, "amitsur-levitski", ok,
           f"s_(2n) identity of M_n exhaustively for n=2,3,4 "
           f"({'+'.join(map(str, counts))} combinations) and randomized for "
           f"n=5 (2000 trials, 0 counterexamples) ({elapsed:.2f}s < 60s)")


def test_criterion_03_minimality_witnesses():
    started = time.perf_counter()
    ok = True
    degrees = []
    for n in (2, 3, 4):
        rep = is_standard_identity(full_matrix_algebra(F, n), 2 * n - 2)
        w = rep.witness
        ok = ok and not rep.is_identity and w is not None
        if w is not None:
            # independent re-verification through the naive evaluator
            ok = ok and eval_standard_naive(list(w.mats)) == w.value
            ok = ok and not w.value.is_zero()
        degrees.append(2 * n - 2)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    record(3, "below-bound-witnesses", ok,
           f"s_t NOT an identity of M_n at t=2n-2 for n=2,3,4 "
           f"(t={degrees}); witnesses naive-re-verified ({elapsed:.2f}s < 10s)")


def test_criterion_04_identity_space_uniqueness():
    started = time.perf_counter()
    ok = True
    for ring in (F, QQ):
        s4 = multilinear_identity_space(full_matrix_algebra(ring, 2), 4)
        signs = standard_sign_vector(ring, 4)
        neg = tuple(ring.neg(c) for c in signs)
        ok = ok and s4.dimension == 1 and s4.basis[0] in (signs, neg)
        ok = ok and s4.verified
        s3 = multilinear_identity_space(full_matrix_algebra(ring, 2), 3)
        ok = ok and s3.dimension == 0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    record(4, "identity-space-uniqueness", ok,
           f"multilinear identities of M_2: dim 1 at t=4 (permutation-sign "
           f"vector), dim 0 at t=3, over GF(101) and QQ ({elapsed:.2f}s < 5s)")


def test_criterion_05_embedded_diagonal_identities():
    d = diagonal_embedding(F, 2, 2)
    s4 = is_standard_identity(d, 4)
    s6 = is_standard_identity(d, 6)
    scalars3 = diagonal_embedding(F, 1, 3)
    s2 = is_standard_identity(scalars3, 2)
    ok = (s4.is_identity and s4.tuples_checked == 1
          and s6.is_identity and s2.is_identity)
    record(5, "embedded-diagonal-identities", ok,
           f"two tied copies of M_2 in M_4 satisfy s_4 (1 combination) and "
           f"s_6; scalars in M_3 satisfy s_2")


def test_criterion_06_block_assembly():
    started = time.perf_counter()
    configs = (
        (full_matrix_algebra(F, 1), full_matrix_algebra(F, 1), 2, 2),
        (full_matrix_algebra(F, 1), full_matrix_algebra(F, 2), 2, 4),
        (diagonal_algebra(F, 2), full_matrix_algebra(F, 1), 2, 2),
    )
    ok = True
    for top, bot, q, r in configs:
        rep = block_assembly_check(top, bot, q, r, trials=500, seed=0)
        ok = ok and rep.status == "ok" and rep.violations == 0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    record(6, "block-assembly", ok,
           f"s_(q+r) vanishes on 500 seeded assemblies for all 3 (l,m,q,r) "
           f"configurations, zero violations ({elapsed:.2f}s < 10s)")


def test_criterion_07_consecutive_factor_collapse():
    import random

    rng = random.Random(0)
    checked = 0
    ok = True
    for (m, r) in ((4, 3), (5, 3), (6, 3), (6, 5)):
        for _ in range(100):
            mats = [Matrix(F, 2, 2, [rng.randrange(101) for _ in range(4)])
                    for _ in range(m)]
            offset = rng.randrange(m - r + 1)
            lhs = consecutive_factor_sum(mats, offset, r)
            collapsed = (mats[:offset] + [product_of(mats[offset:offset + r])]
                         + mats[offset + r:])
            rhs = eval_standard_naive(collapsed)
            ok = ok and lhs == rhs
            checked += 1
    record(7, "consecutive-factor-collapse", ok,
           f"window partial sum equals contracted standard polynomial on "
           f"{checked} random instances, (m,r) in (4,3),(5,3),(6,3),(6,5)")


def test_criterion_08_corner_vanishing_and_repetition():
    started = time.perf_counter()
    ok = True
    for (l, m) in ((1, 1), (1, 2), (2, 1)):
        rep = ur_vanishing_check(F, l, m, trials=200, seed=0)
        ok = ok and rep.status == "ok" and rep.violations == 0
    counts = []
    for (l, m) in ((1, 1), (1, 2)):
        a = repetition_algebra(F, l, m)
        rep = is_standard_identity(a, 2 * (l + m))
        ok = ok and rep.is_identity
        counts.append(rep.tuples_checked)
    ok = ok and counts == [5, 210]  # C(5,4) and C(10,6)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    record(8, "corner-vanishing-and-repetition", ok,
           f"upper-right corner of s_(2(l+m)) vanishes on 200 zero-corner "
           f"tuples for (1,1),(1,2),(2,1); repetition algebras satisfy it "
           f"exhaustively ({counts[0]}+{counts[1]} combinations) "
           f"({elapsed:.2f}s < 10s)")


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _block_diagonal(ring, sizes):
    n = sum(sizes)
    mats = []
    off = 0
    for s in sizes:
        for r in range(s):
            for c in range(s):
                mats.append(matrix_unit(ring, n, off + r + 1, off + c + 1))
        off += s
    return span_basis(ring, n, mats, label=f"diag{sizes}")


def test_criterion_09_classification_consistency():
    started = time.perf_counter()
    corpus = []
    # all full-block shapes for n = 2..4
    for n in (2, 3, 4):
        for parts in _compositions(n):
            s = BlockShape(parts)
            corpus.append((full_block_algebra(F, s), s))
    # repetition algebras
    corpus.append((repetition_algebra(F, 1, 1), BlockShape((1, 1, 1))))
    corpus.append((repetition_algebra(F, 1, 2), BlockShape((1, 2, 1))))
    # block-diagonal (non-uniserial) examples
    corpus.append((diagonal_embedding(F, 1, 2), BlockShape((1, 1))))
    corpus.append((diagonal_embedding(F, 1, 3), BlockShape((1, 1, 1))))
    corpus.append((diagonal_embedding(F, 1, 4), BlockShape((1, 1, 1, 1))))
    corpus.append((diagonal_embedding(F, 2, 2), BlockShape((2, 2))))
    corpus.append((_block_diagonal(F, (1, 2)), BlockShape((1, 2))))
    corpus.append((_block_diagonal(F, (2, 1)), BlockShape((2, 1))))
    corpus.append((_block_diagonal(F, (1, 3)), BlockShape((1, 3))))
    u2xu2 = span_basis(F, 4, [
        matrix_unit(F, 4, i, j) for (i, j) in
        ((1, 1), (1, 2), (2, 2), (3, 3), (3, 4), (4, 4))
    ], label="U2xU2")
    corpus.append((u2xu2, BlockShape((1, 1, 1, 1))))
    # proper-simple-block examples
    corpus.append((diagonal_algebra(F, 2), BlockShape((2,))))
    corpus.append((diagonal_algebra(F, 3), BlockShape((3,))))
    corpus.append((diagonal_algebra(F, 4), BlockShape((4,))))
    diag_top = span_basis(F, 4, [
        matrix_unit(F, 4, 1, 1), matrix_unit(F, 4, 2, 2),
        matrix_unit(F, 4, 3, 3), matrix_unit(F, 4, 3, 4),
        matrix_unit(F, 4, 4, 3), matrix_unit(F, 4, 4, 4),
        matrix_unit(F, 4, 1, 3), matrix_unit(F, 4, 1, 4),
        matrix_unit(F, 4, 2, 3), matrix_unit(F, 4, 2, 4),
    ], label="D2+strip+M2")
    corpus.append((diag_top, BlockShape((2, 2))))
    # seeded random generator closures inside U_4, sampled unitally: the
    # classifier reasons in simple-block presentations, and adjoining the
    # identity makes every diagonal coordinate of a closure full.  Closures
    # with an identically zero diagonal coordinate fall outside that
    # framework and genuinely escape the low-degree lemmas; criterion 10
    # exercises those and records the exceptions.
    for a in random_triangular_closures(F, 4, 12, seed=42, include_identity=True):
        corpus.append((a, BlockShape((1, 1, 1, 1))))

    assert len(corpus) >= 30
    disagreements = 0
    full_count = 0
    for a, shape in corpus:
        verdict = classify(a, shape)
        is_full = isinstance(verdict, FullBlockTriangular)
        rep = is_standard_identity(a, 2 * a.n - 2)
        if is_full == rep.is_identity:
            disagreements += 1
        full_count += is_full
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 300.0
    record(9, "classification-consistency", ok,
           f"verdict FullBlockTriangular <=> s_(2n-2) not an identity across "
           f"{len(corpus)} algebras ({full_count} full), "
           f"{disagreements} disagreements ({elapsed:.2f}s < 300s)")


def test_criterion_10_proper_subalgebras_satisfy():
    # The claim under test: every proper subalgebra of U_3 obtained by
    # closing a subset of the six matrix units satisfies s_4.  The sweep
    # below finds exact counterexamples: the six non-unital closures that
    # omit one diagonal unit (e.g. span{e11,e12,e13,e22,e23}) fail s_4
    # with a shifted-staircase witness such as s_4(e11,e12,e22,e23) = e13.
    # Each failure is re-verified by the naive evaluator before being
    # counted.  The assertion states the claim as written, so this
    # criterion records the exceptions and fails; see the README's
    # unitality caveat for the analysis.
    started = time.perf_counter()
    pos = ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))
    units = [matrix_unit(F, 3, i, j) for (i, j) in pos]
    proper = []
    full_closures = 0
    for k in range(len(units) + 1):
        for idx in combinations(range(len(units)), k):
            subset = [units[i] for i in idx]
            names = "{" + ",".join(f"e{i}{j}" for (i, j) in
                                   (pos[i] for i in idx)) + "}"
            a = (close_generators(subset, label=names) if subset
                 else span_basis(F, 3, [], label="0"))
            if a.dim == 6:
                full_closures += 1
            else:
                proper.append((names, a))
    ok = len(proper) == 62 and full_closures == 2
    failures = []
    for names, a in proper:
        rep = is_standard_identity(a, 4)
        if not rep.is_identity:
            wit = rep.witness
            value = eval_standard_naive([a.mats[i - 1] for i in wit.indices])
            assert value == wit.value and not value.is_zero()
            failures.append(f"{names} dim {a.dim} witness {wit.indices}")
    ok = ok and not failures
    rand_ok = 0
    for a in random_triangular_closures(F, 4, 20, seed=7, proper=True):
        rep = is_standard_identity(a, 6)
        rand_ok += rep.is_identity
    ok = ok and rand_ok == 20
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    exceptions = ("" if not failures else
                  f"; EXCEPTIONS (non-unital, one diagonal unit omitted): "
                  f"{'; '.join(failures)}")
    record(10, "proper-subalgebras-satisfy", ok,
           f"{len(proper) - len(failures)}/{len(proper)} proper unit-subset "
           f"closures in U_3 satisfy s_4 ({full_closures} subsets close to "
           f"full U_3); {rand_ok}/20 random proper closures in U_4 satisfy "
           f"s_6 ({elapsed:.2f}s < 120s){exceptions}")


def test_criterion_11_mod4_witnesses():
    ok = True
    details = []
    for n in (2, 3):
        b = constrained_triangular(Zmod(4), n, 2)
        rep = is_standard_identity(b, 2 * n - 2)
        ok = ok and not rep.is_identity and rep.witness is not None
        if rep.witness is not None:
            ok = ok and not rep.witness.value.is_zero()
            details.append(f"n={n}: s_{2 * n - 2} witness at "
                           f"{rep.witness.indices}")
    record(11, "mod4-witnesses", ok,
           f"constrained triangular algebra over Z/4 with ideal (2) gives "
           f"nonzero witnesses ({'; '.join(details)})")


def test_criterion_12_radical_exactness():
    started = time.perf_counter()
    ok = True
    pairs = 0
    for ring in (QQ, F):
        for n in range(2, 6):
            for l in range(1, n):
                m = n - l
                rad = jacobson_radical(full_block_algebra(ring, BlockShape((l, m))))
                strip = two_block_radical(ring, l, m)
                same = rad.dim == strip.dim == l * m
                same = same and all(rad.contains(x) for x in strip.mats)
                same = same and all(strip.contains(x) for x in rad.mats)
                ok = ok and same
                pairs += 1
        for n in range(1, 6):
            ok = ok and jacobson_radical(full_matrix_algebra(ring, n)).dim == 0
    elapsed = time.perf_counter() - started
    record(12, "radical-exactness", ok,
           f"rad(E_(l,m)) equals the coupling strip for all l+m=n<=5 "
           f"({pairs} pairs over QQ and GF(101)); rad(M_n)=0 for n<=5 "
           f"({elapsed:.2f}s)")


def test_criterion_13_evaluator_equivalence():
    started = time.perf_counter()
    units = [matrix_unit(F, 2, i, j) for i in (1, 2) for j in (1, 2)]
    basis_arr = fastpath.basis_to_flat(units)
    mismatches = 0
    total = 0
    for t in range(2, 7):
        tuples = np.array(list(product(range(4), repeat=t)), dtype=np.int64)
        stack = fastpath.coords_to_stack(basis_arr, np.eye(4, dtype=np.int64)[tuples], 2, 101)
        dp_vals = fastpath.dp_batch(stack, 101)
        for b in range(stack.shape[1]):
            nv = fastpath.naive_single(np.ascontiguousarray(stack[:, b]), 101)
            mismatches += int(not (nv == dp_vals[b]).all())
            total += 1
    # pure-python spot check on a sample of the same tuples
    import random

    rng = random.Random(1)
    for _ in range(60):
        t = rng.randint(2, 5)
        mats = [units[rng.randrange(4)] for _ in range(t)]
        mismatches += int(eval_standard_dp(mats) != eval_standard_naive(mats))
        total += 1
    rng_np = np.random.default_rng(0)
    for t in (7, 8):
        # the same 500 draws per t, in order, evaluated by one batched DP
        arrs = [rng_np.integers(0, 101, size=(t, 2, 2), dtype=np.int64) for _ in range(500)]
        dp_vals = fastpath.dp_batch(np.stack(arrs, axis=1), 101)
        for arr, dp in zip(arrs, dp_vals):
            nv = fastpath.naive_single(arr, 101)
            mismatches += int(not (nv == dp).all())
            total += 1
    elapsed = time.perf_counter() - started

    # informative throughput comparison (not gating)
    arr8 = rng_np.integers(0, 101, size=(8, 2, 2), dtype=np.int64)
    t0 = time.perf_counter()
    reps = 0
    while time.perf_counter() - t0 < 0.3:
        fastpath.naive_single(arr8, 101)
        reps += 1
    naive_rate = reps / (time.perf_counter() - t0)
    B = 4096
    stack = rng_np.integers(0, 101, size=(8, B, 2, 2), dtype=np.int64)
    t0 = time.perf_counter()
    reps = 0
    while time.perf_counter() - t0 < 0.3:
        fastpath.dp_batch(stack, 101)
        reps += 1
    dp_rate = reps * B / (time.perf_counter() - t0)
    ratio = dp_rate / naive_rate
    log_line(f"[INFO] acceptance 13 throughput: dp {dp_rate:.0f}/s vs naive "
             f"{naive_rate:.0f}/s at t=8 ({ratio:.0f}x; informative, "
             f"target >= 100x)")

    ok = mismatches == 0
    record(13, "evaluator-equivalence", ok,
           f"DP == naive on all {4 ** 2 + 4 ** 3 + 4 ** 4 + 4 ** 5 + 4 ** 6} "
           f"matrix-unit tuples t<=6 of M_2, 60 pure-python spot checks, and "
           f"1000 random tuples at t=7,8 ({mismatches} mismatches, "
           f"{elapsed:.1f}s)")


def test_criterion_13_dense_tuples_past_m2_are_nonzero():
    # criterion 13's random 2x2 tuples at t = 7, 8 all have s_t = 0, since
    # s_4 vanishes on M_2; dense 5x5 tuples at those degrees do not, so
    # there the DP and the naive walk are compared on nonzero values
    rng = np.random.default_rng(13)
    for t in (7, 8):
        stack = rng.integers(0, 101, size=(t, 10, 5, 5), dtype=np.int64)
        dp_vals = fastpath.dp_batch(stack, 101)
        assert dp_vals.reshape(10, -1).any(axis=1).all()
        for b in range(10):
            nv = fastpath.naive_single(np.ascontiguousarray(stack[:, b]), 101)
            assert (nv == dp_vals[b]).all(), (t, b)
