import random
import tracemalloc
import weakref
from itertools import combinations, islice, permutations
from math import comb, factorial, isqrt, perm

import numpy as np
import pytest

from matpi import fastpath, identities, standardpoly
from matpi.blocks import BlockShape, staircase_units
from matpi.constructions import (full_block_algebra, full_matrix_algebra, repetition_algebra,
                                 repetition_units, upper_triangular)
from matpi.errors import ContractViolationError, DegreeGuardError
from matpi.identities import is_standard_identity, random_triangular_closures
from matpi.matrices import Matrix, identity_matrix, matrix_unit
from matpi.rings import GF, QQ, is_prime
from matpi.standardpoly import (
    NAIVE_MAX_DEGREE,
    _eval_standard_naive_py,
    _reverify_witness,
    eval_standard_dp,
    eval_standard_naive,
    perm_sign,
)
from matpi.subalgebra import span_basis

F = GF(101)


def random_mats(rng, t, n, ring=F):
    return [Matrix(ring, n, n, [int(x) for x in rng.integers(0, 101, n * n)])
            for _ in range(t)]


def perturbed_staircase(ring, t, n, rng):
    """The first t staircase units of M_n, each plus a multiple of a random
    strictly upper unit, shuffled: sparse tuples with s_t nonzero."""
    units = []
    for x in staircase_units(ring, n)[:t]:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        units.append(x + rng.randrange(1, 101) * matrix_unit(ring, n, i, j))
    rng.shuffle(units)
    return units


def to_array(mats):
    n = mats[0].rows
    return fastpath.basis_to_flat(mats).reshape(len(mats), n, n)


def dp_batch_matrices(cases, p=101):
    stack = np.stack([to_array(ms) for ms in cases], axis=1)
    return [fastpath.array_to_matrix(GF(p), v) for v in fastpath.dp_batch(stack, p)]


def test_supports_budget():
    assert fastpath.supports(101, 3, 8)
    # t*n*(p-1)^2 must stay under 2^62
    huge_p = 2**31
    assert not fastpath.supports(huge_p, 4, 8)


def test_roundtrip_conversions():
    rng = np.random.default_rng(0)
    mats = random_mats(rng, 3, 2)
    arr = to_array(mats)
    assert arr.shape == (3, 2, 2)
    back = fastpath.array_to_matrix(F, arr[1])
    assert back == mats[1]


# s_t vanishes on M_n for t >= 2n (Amitsur-Levitski), so only the cases
# with t < 2n compare nonzero values; those assert that they do
@pytest.mark.parametrize("t,n", [(2, 2), (3, 2), (4, 3), (6, 2), (8, 2), (10, 2),
                                 (6, 4), (8, 5), (10, 6)])
def test_dp_batch_matches_pure(t, n):
    rng = np.random.default_rng(t * 31 + n)
    cases = [random_mats(rng, t, n) for _ in range(5)]
    stack = np.stack([to_array(ms) for ms in cases], axis=1)
    out = fastpath.dp_batch(stack, 101)
    for b, ms in enumerate(cases):
        want = eval_standard_dp(ms)
        assert want.is_zero() == (t >= 2 * n)
        assert fastpath.array_to_matrix(F, out[b]) == want


@pytest.mark.parametrize("t,n", [(1, 3), (2, 2), (3, 2), (4, 2), (5, 3), (8, 2), (6, 4),
                                 (7, 4), (8, 5)])
def test_naive_single_matches_pure(t, n):
    rng = np.random.default_rng(t * 17 + n)
    prng = random.Random(t * 17 + n)
    # dense tuples; at (8, 5) the pure-Python sum of a dense tuple takes
    # seconds, and test_naive_single_exact_at_largest_prime covers it
    dense = [random_mats(rng, t, n) for _ in range(3 if (t, n) != (8, 5) else 0)]
    # matrix units of U_n, whose prefixes die mid-walk, and perturbed
    # staircases, sparse with s_t nonzero while t < 2n
    upper = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    sparse = [[matrix_unit(F, n, *prng.choice(upper)) for _ in range(t)] for _ in range(3)]
    if t < 2 * n:
        sparse += [perturbed_staircase(F, t, n, prng) for _ in range(3)]
    base = (dense + sparse)[-1]
    zero = Matrix(F, n, n, [0] * (n * n))
    zero_arg = base[:t // 2] + [zero] + base[t // 2 + 1:]
    repeated = [base[:-1] + base[:1]] if t > 1 else []
    cases = dense + sparse + [zero_arg] + repeated
    # s_t vanishes on M_n at t >= 2n (Amitsur-Levitski), and the pure walk
    # of a dense tuple forms every product (about 109,600 at t = 8), so
    # there the first dense tuple is walked and the others are held to zero
    held = range(1, len(dense)) if t >= 2 * n else ()
    want = [zero if i in held else _eval_standard_naive_py(ms) for i, ms in enumerate(cases)]
    assert [w.is_zero() for w in want[:len(dense)]] == [t >= 2 * n] * len(dense)
    assert want[len(dense + sparse) - 1].is_zero() == (t >= 2 * n)
    got = [fastpath.array_to_matrix(F, fastpath.naive_single(to_array(ms), 101)) for ms in cases]
    assert got == want


@pytest.mark.parametrize("n", [5, 6])
def test_naive_single_matches_the_dp_on_nonzero_dense_tuples(n):
    # beside the (8, 2) case above, whose dense tuples have s_8 = 0 by
    # Amitsur-Levitski: at t = 8 < 2n dense tuples over GF(101) have s_8
    # nonzero, so a walk that lost terms would fail here.  Their pure-Python
    # naive sums take seconds, so the exact pure-Python DP is the reference
    rng = np.random.default_rng(80 + n)
    cases = [random_mats(rng, 8, n) for _ in range(3)]
    want = [eval_standard_dp(ms) for ms in cases]
    assert not any(w.is_zero() for w in want)
    got = [fastpath.array_to_matrix(F, fastpath.naive_single(to_array(ms), 101)) for ms in cases]
    assert got == want


@pytest.mark.parametrize("t", range(2, 8))
def test_walk_tables_cached_and_read_only(t):
    levels, missing = fastpath._walk_tables(t)
    assert fastpath._walk_tables(t)[0] is levels
    assert not any(a.flags.writeable for a in [missing, *(a for lv in levels for a in lv)])
    assert [len(parent) for parent, _ in levels] == [perm(t, k) for k in range(1, t)]
    assert (np.diff(missing) >= 0).all()
    # follow each last-level row up its parents: with the missing letter
    # appended the words are all t! permutations, and the parity of the
    # odd-ranked letters (factor >= t) is the sign perm_sign gives
    words = []
    for r, last in enumerate(missing):
        letters, odd = [int(last)], 0
        for parent, factor in reversed(levels):
            letters.append(int(factor[r]) % t)
            odd ^= int(factor[r]) >= t
            r = parent[r]
        word = tuple(reversed(letters))
        words.append(word)
        assert (-1 if odd else 1) == perm_sign(tuple(i + 1 for i in word))
    assert sorted(words) == list(permutations(range(t)))


def test_naive_vs_dp_cross_check():
    # s_7 vanishes on M_2 but not on M_4
    rng = np.random.default_rng(5)
    for n in (2, 4):
        for _ in range(3):
            ms = random_mats(rng, 7, n)
            want = eval_standard_dp(ms)
            assert want.is_zero() == (n == 2)
            assert eval_standard_naive(ms) == want


def test_combos_to_stack():
    # unit coordinate rows pick basis elements: the stacks of the exhaustive sweeps
    rng = np.random.default_rng(9)
    basis = random_mats(rng, 5, 2)
    basis_arr = fastpath.basis_to_flat(basis)
    combos = np.array([[0, 1, 2], [1, 3, 4]], dtype=np.int64)
    stack = fastpath.coords_to_stack(basis_arr, np.eye(5, dtype=np.int64)[combos], 2, 101)
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
    # random entries near p - 1 against Python's own sums mod p
    rng = np.random.default_rng(p)
    basis_arr = p - rng.integers(1, 40, size=(d, n * n))
    coords = p - rng.integers(1, 40, size=(2, t, d))
    stack = fastpath.coords_to_stack(basis_arr, coords, n, p)
    for b in range(2):
        for slot in range(t):
            want = [sum(int(coords[b, slot, k]) * int(basis_arr[k, e]) for k in range(d)) % p
                    for e in range(n * n)]
            assert stack[slot, b].ravel().tolist() == want


# -- the half-depth split: layers to ceil(t/2), then one join ------------------

@pytest.mark.parametrize("t", [1, 2, 5, 7, 9])
def test_split_edges_match_naive(t):
    # n > t/2 keeps s_t nonzero on M_n; the permutation sum past its
    # degree guard runs unguarded, cheap here because zero prefixes prune
    n = max(2, t // 2 + 1)
    naive = eval_standard_naive if t <= NAIVE_MAX_DEGREE else _eval_standard_naive_py
    rng = random.Random(t)
    for ring in (F, QQ):
        cases = [perturbed_staircase(ring, t, n, rng) for _ in range(3)]
        if t <= 2:
            cases += [random_mats(np.random.default_rng(t), t, n, ring) for _ in range(3)]
        want = [naive(ms) for ms in cases]
        assert any(not w.is_zero() for w in want)
        assert [eval_standard_dp(ms) for ms in cases] == want
        if ring is F:
            assert dp_batch_matrices(cases) == want


def test_split_t11_dp_batch_matches_pure():
    rng = random.Random(11)
    cases = [perturbed_staircase(F, 11, 6, rng), random_mats(np.random.default_rng(11), 11, 6)]
    want = [eval_standard_dp(ms) for ms in cases]
    assert all(not w.is_zero() for w in want)
    assert dp_batch_matrices(cases) == want


def test_split_n5_t10_amitsur_levitski():
    # s_10 vanishes on M_5 while s_9 does not: a wrong join sign would leave
    # s_10 nonzero
    rng = np.random.default_rng(510)
    cases = [random_mats(rng, 10, 5) for _ in range(4)]
    assert all(v.is_zero() for v in dp_batch_matrices(cases))
    assert eval_standard_dp(cases[0]).is_zero()
    shorter = [ms[:9] for ms in cases]
    want = [eval_standard_dp(ms) for ms in shorter]
    assert all(not w.is_zero() for w in want)
    assert dp_batch_matrices(shorter) == want


@pytest.mark.parametrize("ring", [F, QQ], ids=["GF(101)", "QQ"])
@pytest.mark.parametrize("t", [4, 5, 6])
def test_split_with_zero_half_layer(ring, t):
    # strictly upper 3x3 arguments: every product of three vanishes, so
    # layer 3 is all zero while layer 2 is not.  That is the upper half
    # at t = 5 and both halves at t = 6; at t = 4 the join multiplies
    # partly nonzero halves to zero
    e12, e13, e23 = (matrix_unit(ring, 3, i, j) for i, j in ((1, 2), (1, 3), (2, 3)))
    pool = [e12, e13, e23, e12 + e23, e12 + 2 * e13, e23 + 3 * e13, e12 + 5 * e23]
    cases = [pool[:t], pool[-t:], pool[1:t + 1]]
    for ms in cases:
        assert eval_standard_dp(ms) == eval_standard_naive(ms) == Matrix(ring, 3, 3, [0] * 9)
    if ring is F:
        assert all(v.is_zero() for v in dp_batch_matrices(cases))


def centred(v, p):
    """The residue of v mod p in [-m, m], m = floor(p/2)."""
    m = p // 2
    return (v + m) % p - m


def test_split_at_largest_prime_for_t10():
    # largest p with 10 * 2 * (p-1)^2 < 2^62; residues within 40 of p
    p = isqrt(fastpath.INT64_BUDGET // 20) + 1
    while not (is_prime(p) and fastpath.supports(p, 2, 10)):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    assert not fastpath.supports(q, 2, 10)
    ring = GF(p)
    rng = random.Random(p)
    for t in (3, 10):
        cases = [[Matrix(ring, 2, 2, [p - rng.randrange(1, 40) for _ in range(4)])
                  for _ in range(t)] for _ in range(3)]
        assert dp_batch_matrices(cases, p) == [eval_standard_dp(ms) for ms in cases]
    # the join sums C(10, 5) = 252 products of size 2 * m^2, about 2^64.7
    # together: exact only because it reduces every `every` products
    tier = fastpath._dp_tier(p, 2, 10)
    m = p // 2
    assert tier[0] is np.int64 and 10 <= tier[3] < comb(10, 5)
    big = np.full((2, 2, 1), m, dtype=np.int64)   # batch-last (n, n, B)
    got = fastpath._signed_sum(p, tier, big.shape)([(big, big, 0)] * comb(10, 5))
    assert (got == centred(comb(10, 5) * 2 * m * m, p)).all()


def tier_boundary_primes(admits):
    """The largest prime p with admits(p), for admits true on an initial
    run of the primes, and the next prime, where it is false."""
    p = 2
    while True:
        q = p + 1
        while not is_prime(q):
            q += 1
        if not admits(q):
            assert admits(p)
            return p, q
        p = q


def int16_boundary_primes(t, n):
    """The largest prime the int16 rule n * m^2 + m <= 2^15 - 1 admits,
    m = floor(p/2), and the next prime, which runs int32."""
    return tier_boundary_primes(lambda p: n * (p // 2) ** 2 + p // 2 <= 2**15 - 1)


def int32_boundary_primes(t, n):
    """The largest prime dp_batch's int32 rule t * n * m^2 + p < 2^31
    admits and the next prime, which runs int64."""
    p = 2 * isqrt(2**31 // (t * n)) + 3
    while not (is_prime(p) and t * n * (p // 2) ** 2 + p < 2**31):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    return p, q


def layer_int32_boundary_primes(t, n):
    """The largest prime sparse_layers' int32 rule t * n * (p-1)^2 + p
    < 2^31 admits and the next prime, which runs int64."""
    p = isqrt(2**31 // (t * n)) + 1
    while not (is_prime(p) and t * n * (p - 1) ** 2 + p < 2**31):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    return p, q


def boundary_cases(ring, t, n, rng):
    """A seeded tuple and a worst-magnitude one, each of whose residues is
    m or p - m (so +-m centred), of t n x n matrices over ring."""
    p, m = ring.p, ring.p // 2
    return [[Matrix(ring, n, n, [rng.randrange(p) for _ in range(n * n)]) for _ in range(t)],
            [Matrix(ring, n, n, [rng.choice((m, p - m)) for _ in range(n * n)])
             for _ in range(t)]]


# s_t vanishes on M_n for t >= 2n, where a wrapped sum would show as a
# nonzero entry; below that the values are compared entrywise
@pytest.mark.parametrize("t", [9, 10])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dp_batch_int16_boundary_matches_pure(t, n):
    p, q = int16_boundary_primes(t, n)
    assert fastpath._dp_tier(p, n, t)[:3] == (np.int16, 1, np.int32)
    assert fastpath._dp_tier(q, n, t)[0] is np.int32
    rng = random.Random(p * t + n)
    for prime in (p, q):
        cases = boundary_cases(GF(prime), t, n, rng)
        want = [eval_standard_dp(ms) for ms in cases]
        assert all(w.is_zero() == (t >= 2 * n) for w in want)
        assert dp_batch_matrices(cases, prime) == want


@pytest.mark.parametrize("t,n", [(10, 2), (10, 5), (9, 5)])
def test_dp_batch_int32_boundary_matches_pure(t, n):
    p, q = int32_boundary_primes(t, n)
    assert fastpath._dp_tier(p, n, t) == (np.int32, 1, np.int32, t)
    assert fastpath._dp_tier(q, n, t)[0] is np.int64
    rng = random.Random(p * t + n)
    for prime in (p, q):
        cases = boundary_cases(GF(prime), t, n, rng)
        want = [eval_standard_dp(ms) for ms in cases]
        assert all(w.is_zero() == (t >= 2 * n) for w in want)
        assert dp_batch_matrices(cases, prime) == want


def check_join_at_boundary(p, n, product):
    """dp_batch's signed sum of the C(10, 5) = 252 products of factors of
    magnitude m, signed as the join signs them and all added, at p."""
    m, tier = p // 2, fastpath._dp_tier(p, n, 10)
    assert tier[0] is product and tier[2] is np.int32
    big = np.full((n, n, 3), m, dtype=product)
    negates = [negate for _, negate in standardpoly.join_splits(10)]
    assert len(negates) == comb(10, 5)
    signed_sum = fastpath._signed_sum(p, tier, big.shape)
    for signs in (negates, [0] * len(negates)):
        want = centred(sum(1 - 2 * s for s in signs) * n * m * m, p)
        got = signed_sum([(big, -big if s else big, 0) for s in signs])
        assert got.dtype == product and (got == want).all()
        assert (signed_sum([(big, big, s) for s in signs]) == want).all()


@pytest.mark.parametrize("n", [2, 5])
def test_int32_join_exact_at_boundary_prime(n):
    # each product entry is n * m^2, near 2^31 / 10, and 252 of them wrap
    # int32 many times over unless the sum reduces every `every` products
    check_join_at_boundary(int32_boundary_primes(10, n)[0], n, np.int32)


@pytest.mark.parametrize("n", [2, 5])
def test_int16_join_exact_at_boundary_prime(n):
    # each product entry is n * m^2, near 2^15, so each group of products
    # must reach the int32 accumulator before the next would wrap int16
    check_join_at_boundary(int16_boundary_primes(10, n)[0], n, np.int16)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("t", [1, 4, 7])
def test_dp_batch_returns_int64_batch_first(t, B):
    n = 3
    stack = np.random.default_rng(t * 10 + B).integers(0, 101, size=(t, B, n, n))
    out = fastpath.dp_batch(stack, 101)
    assert out.dtype == np.int64 and out.shape == (B, n, n) and out.flags.c_contiguous
    assert out.min() >= 0 and out.max() < 101
    want = [eval_standard_dp([Matrix(F, n, n, [int(v) for v in stack[k, b].ravel()])
                              for k in range(t)]) for b in range(B)]
    assert [fastpath.array_to_matrix(F, v) for v in out] == want


def test_dp_batch_rejects_entries_outside_residues():
    stack = np.ones((4, 1, 2, 2), dtype=np.int64)
    for bad in (-1, 101):
        stack[2, 0, 1, 0] = bad
        with pytest.raises(DegreeGuardError, match="residues"):
            fastpath.dp_batch(stack, 101)


@pytest.mark.parametrize("kernel", ["int64", "exact"])
@pytest.mark.parametrize("t", range(2, 11))
def test_dp_batch_t10_product_count(monkeypatch, kernel, t):
    # layers 2..ceil(t/2) form k * C(t, k) products each and the join
    # C(t, floor(t/2)): 2,802 at t = 10, where all ten layers would form
    # 10 * 2^9 = 5,120.  The numpy kernel forms each product with one
    # einsum.  Dense 3x3 factors keep every g(S) nonzero, so the exact
    # kernel skips no product
    want = sum(k * comb(t, k) for k in range(2, (t + 1) // 2 + 1)) + comb(t, t // 2)
    calls = []
    if kernel == "int64":
        module, name = np, "einsum"
    else:
        module, name = standardpoly, "mul_flat"
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(t)
    if kernel == "int64":
        fastpath.dp_batch(rng.integers(0, 101, size=(t, 2, 3, 3)), 101)
    else:
        eval_standard_dp(random_mats(rng, t, 3, QQ))
    assert len(calls) == want
    if t == 10:
        assert want == 2802


class _Tracked(list):
    """A flat g value of the exact DP that weak references can follow."""


@pytest.mark.parametrize("kernel", ["int64", "exact"])
@pytest.mark.parametrize("t,peak", [(8, 79), (9, 252), (10, 275)])
def test_half_depth_dp_frees_each_parent_after_its_last_child(monkeypatch, kernel, t, peak):
    # live g values, counted as each signed sum of a layer step returns:
    # two whole layers held C(t, 4) + C(t, 5) = 462 at t = 10 and 126 at
    # t = 8; an odd t keeps its lower layer whole at its last step, which
    # the join reads (C(9, 4) + C(9, 5) = 252).  The last signed sum is the
    # join, whose value is s_t, not a g value
    live, counts = [0], []

    def track(value):
        if value is not None:
            value = value if kernel == "int64" else _Tracked(value)
            live[0] += 1
            weakref.finalize(value, _release, live)
        counts.append(live[0])
        return value

    if kernel == "int64":
        real = fastpath._signed_sum

        def tracking(*args):
            signed_sum = real(*args)
            return lambda pairs: track(signed_sum(pairs))

        monkeypatch.setattr(fastpath, "_signed_sum", tracking)
        fastpath.dp_batch(np.random.default_rng(t).integers(0, 101, size=(t, 2, 3, 3)), 101)
    else:
        real = standardpoly._signed_sum
        monkeypatch.setattr(standardpoly, "_signed_sum",
                            lambda pairs, n, ring: track(real(pairs, n, ring)))
        eval_standard_dp(random_mats(np.random.default_rng(t), t, 3))
    assert len(counts) == sum(comb(t, k) for k in range(2, (t + 1) // 2 + 1)) + 1
    assert max(counts[:-1]) == peak


def _release(live):
    live[0] -= 1


# -- reduction mod p by floor division ------------------------------------------

def largest_supported_prime(t, n):
    """The largest prime p with t * n * (p-1)^2 < 2^62 (int64 only)."""
    p = isqrt(fastpath.INT64_BUDGET // (t * n)) + 1
    while not (is_prime(p) and fastpath.supports(p, n, t)):
        p -= 1
    return p


def near(*centres):
    """Each centre and its neighbours."""
    return [c + e for c in centres for e in (-1, 0, 1)]


@pytest.mark.parametrize("kind", ["int16", "int32", "int64"])
def test_reduce_matches_python_mod_at_the_extremes_every_admits(kind):
    # dp_batch's accumulator holds a centred residue plus at most `every`
    # products of size n * m^2, so it lies in [low, high] = +-(m + every *
    # size); check both ends, the multiples of p nearest them and 0, p,
    # -p, each with its neighbours, reduced to [-m, m] either way round.
    # In int16 a group sum of up to `group` products is also reduced in
    # int16, at both ends of its range
    t, n = 10, 5
    p = {"int16": int16_boundary_primes(t, n)[0], "int32": int32_boundary_primes(t, n)[0],
         "int64": largest_supported_prime(t, n)}[kind]
    product, group, accumulator, every = fastpath._dp_tier(p, n, t)
    assert product is getattr(np, kind)
    m = p // 2
    size = n * m * m
    high = m + every * size
    ranges = [(accumulator, high)]
    if product is not accumulator:
        ranges.append((product, group * size))
    for dtype, high in ranges:
        values = near(-high, high, -(high // p) * p, high // p * p, 0, p, -p)
        values = [v for v in values if abs(v) <= high]
        info = np.iinfo(dtype)
        assert info.min < -high - m and high + m <= info.max
        acc = np.array(values, dtype=dtype)
        for negate in (False, True):
            out = fastpath._centre(acc, p, np.empty_like(acc), negate)
            assert out.dtype == dtype and acc.tolist() == values
            assert out.tolist() == [(-1) ** negate * centred(v, p) for v in values]


@pytest.mark.parametrize("kind", ["int32", "int64"])
def test_reduce_matches_python_mod_at_the_sparse_layer_extremes(kind):
    # a child of sparse_layers sums at most t terms of size n * (p-1)^2
    # from 0, and dp_batch's result is reduced from [-m, m] to [0, p)
    t, n = 10, 5
    p = layer_int32_boundary_primes(t, n)[0] if kind == "int32" else largest_supported_prime(t, n)
    dtype = getattr(np, kind)
    high = t * n * (p - 1) ** 2
    assert (high + p < 2**31) == (kind == "int32")
    values = near(-high, high, -(high // p) * p, high // p * p, 0, p, -p, p // 2, -(p // 2))
    values = [v for v in values if abs(v) <= high]
    for scratch in (None, np.empty(len(values), dtype=dtype)):
        acc = np.array(values, dtype=dtype)
        out = fastpath._reduce(acc, p, scratch)
        assert out is acc and out.dtype == dtype
        assert out.tolist() == [v % p for v in values]


def test_naive_single_exact_at_int64_edge():
    # the prime of test_coords_to_stack_exact_at_int64_edge, with factors
    # near p - 1, where t * n * (p-1)^2 is just below 2^62
    p, n, t = 536870909, 8, 2
    assert fastpath.supports(p, n, t)
    ring = GF(p)
    rng = random.Random(p)
    for _ in range(3):
        ms = [Matrix(ring, n, n, [p - rng.randrange(1, 40) for _ in range(n * n)])
              for _ in range(t)]
        got = fastpath.naive_single(to_array(ms), p)
        assert fastpath.array_to_matrix(ring, got) == _eval_standard_naive_py(ms)


@pytest.mark.parametrize("t", [6, 7, 8])
def test_naive_single_exact_at_largest_prime(t):
    # the largest p that supports admits at n = 5, with factors near p - 1:
    # the walk then reduces before every product past the first and before
    # its group sums.  The pure-Python sum of a dense t = 8 tuple takes
    # seconds, so t = 8 is checked against the exact pure-Python DP
    n = 5
    p = largest_supported_prime(t, n)
    ring = GF(p)
    rng = random.Random(p)
    ms = [Matrix(ring, n, n, [p - rng.randrange(1, 40) for _ in range(n * n)])
          for _ in range(t)]
    want = _eval_standard_naive_py(ms) if t < 8 else eval_standard_dp(ms)
    assert not want.is_zero()
    assert fastpath.array_to_matrix(ring, fastpath.naive_single(to_array(ms), p)) == want


# -- the naive walk: independent of the DP, and pruned ---------------------------

def _sweep_witnesses():
    """The s_8 witnesses of the randomized M_5 sweep and the exhaustive
    U_5 sweep over GF(101), as the sweeps' DP found them."""
    dense = is_standard_identity(full_matrix_algebra(F, 5), 8, mode="randomized",
                                 trials=2000, seed=1).witness
    sparse = is_standard_identity(upper_triangular(F, 5), 8).witness
    return dense, sparse


def test_witness_recheck_runs_without_the_dp(monkeypatch):
    witnesses = _sweep_witnesses()

    def unused(*args, **kwargs):
        raise AssertionError("the naive re-check reached the DP")

    for module, name in ((standardpoly, "half_depth_dp"), (fastpath, "half_depth_dp"),
                         (fastpath, "dp_batch")):
        monkeypatch.setattr(module, name, unused)
    for w in witnesses:
        _reverify_witness(w.mats, w.value)
        with pytest.raises(ContractViolationError):
            _reverify_witness(w.mats, w.value + w.value)


def _nonzero_prefixes(mats) -> list:
    """Letter tuples of the nonzero prefixes of length <= t - 2, walked in
    pure Python."""
    t, found = len(mats), []

    def walk(prod, word):
        for i in range(t):
            if i not in word:
                nxt = mats[i] if prod is None else prod * mats[i]
                if not nxt.is_zero():
                    found.append(word + (i,))
                    if len(word) + 1 < t - 2:
                        walk(nxt, word + (i,))

    walk(None, ())
    return found


def test_naive_single_product_counts(monkeypatch):
    dense, sparse = _sweep_witnesses()
    formed = []  # matrix products per np.matmul call
    matmul = np.matmul

    def counting(a, b, **kwargs):
        out = matmul(a, b, **kwargs)
        formed.append(1 if out.ndim == 2 else len(out))
        return out

    monkeypatch.setattr(np, "matmul", counting)
    fastpath.naive_single(to_array(dense.mats), 101)
    # sum over k = 2..7 of 8!/(8-k)!, plus one product per last letter
    assert sum(formed) == 69280 == sum(perm(8, k) for k in range(2, 8)) + 8
    # sparse: one product per child of a nonzero prefix of length <= t - 2,
    # plus one per letter left free by a nonzero (t-2)-prefix
    formed.clear()
    fastpath.naive_single(to_array(sparse.mats), 101)
    t = len(sparse.mats)
    prefixes = _nonzero_prefixes(sparse.mats)
    last = {i for w in prefixes if len(w) == t - 2 for i in range(t) if i not in w}
    assert sum(formed) == sum(t - len(w) for w in prefixes) + len(last)
    assert sum(formed) == 314


# -- the sparse layer pass over basis subsets ------------------------------------

def conjugated_closure():
    """A seeded closure in U_4 conjugated by a product of elementary
    matrices: its echelon basis has elements that are not weight vectors."""
    a = next(c for c in random_triangular_closures(F, 4, 6, seed=11) if c.dim >= 6)
    n = a.n
    p = q = identity_matrix(F, n)
    for i, j, c in ((1, 2, 3), (3, 4, 5), (4, 1, 7), (2, 3, 2)):
        p = p * (identity_matrix(F, n) + c * matrix_unit(F, n, i, j))
        q = (identity_matrix(F, n) - c * matrix_unit(F, n, i, j)) * q
    assert (p * q).data == identity_matrix(F, n).data
    return span_basis(F, n, [p * x * q for x in a.mats], label=f"conj {a.label}")


SPARSE_CASES = [full_matrix_algebra(F, 3), upper_triangular(F, 4),
                full_block_algebra(F, BlockShape((1, 2))), conjugated_closure(),
                repetition_algebra(F, 1, 2),
                span_basis(F, 4, repetition_units(F, 1, 2, include_corner=False),
                           label="zero-corner (1,2)")]


def nonzero_rows(basis_arr, n, t, p=101):
    """dp_batch on every t-combination of the basis: the nonzero ones, in
    lexicographic order, and their values."""
    block = np.array(list(combinations(range(len(basis_arr)), t)))
    units = np.eye(len(basis_arr), dtype=np.int64)[block]
    values = fastpath.dp_batch(fastpath.coords_to_stack(basis_arr, units, n, p), p)
    keep = values.reshape(len(block), -1).any(axis=1)
    return block[keep], values[keep]


def lex_layer(basis_arr, n, p, t):
    """Layer t of fastpath.sparse_layers (same arguments) as (combos,
    values): the t-combinations with s_t nonzero, an (R, t) array in
    lexicographic order, and their values as int64; None where the pass
    stops before layer t."""
    layer = next(islice(fastpath.sparse_layers(basis_arr, n, p, t), t - 1, None), None)
    if layer is None:
        return None
    keys, values = layer
    return (fastpath.layer_combos(keys[::-1], len(basis_arr), t),
            np.ascontiguousarray(values[::-1], dtype=np.int64))


@pytest.mark.parametrize("a", SPARSE_CASES, ids=lambda a: a.label)
def test_sparse_layer_matches_dp_batch_on_every_combination(a):
    basis_arr = fastpath.basis_to_flat(a.mats)
    for t in range(1, min(8, a.dim) + 1):
        combos, values = lex_layer(basis_arr, a.n, 101, t)
        want_combos, want_values = nonzero_rows(basis_arr, a.n, t)
        assert combos.shape == (len(want_combos), t) and values.dtype == np.int64
        assert (combos == want_combos).all() and (values == want_values).all(), t
        assert values.any(axis=(1, 2)).all()  # no zero row


@pytest.mark.parametrize("a", [repetition_algebra(F, 1, 2), full_matrix_algebra(F, 3)],
                         ids=lambda a: a.label)
def test_support_filter_drops_only_zero_products(monkeypatch, a):
    # brute force up to layer 5: every pair of a row A of layer k and an
    # element c not in A that the pass does not form (its one run's
    # candidate mask is clear there) has s_k(b_A) * b_c = 0, multiplied
    # out exactly, and the supports drop at least one pair
    masks, flatnonzero = [], np.flatnonzero
    with monkeypatch.context() as mp:
        mp.setattr(np, "flatnonzero",
                   lambda x: (x.ndim == 2 and masks.append(x.copy())) or flatnonzero(x))
        layers = _layers(a, 5)
    dropped = 0
    for k, ((keys, values), formed) in enumerate(zip(layers, masks), 1):
        for r, combo in enumerate(fastpath.layer_combos(keys, a.dim, k).tolist()):
            g = Matrix(F, a.n, a.n, values[r].ravel().tolist())
            assert g == eval_standard_dp([a.mats[i] for i in combo])
            for c in set(range(a.dim)) - set(combo):
                if not formed[r, c]:
                    dropped += 1
                    assert (g * a.mats[c]).is_zero(), (combo, c)
    assert len(masks) == 4 and dropped > 0  # one run per step


def test_conjugated_closure_is_ungraded():
    assert identities._torus_weights(conjugated_closure(), 2) is None


def test_identity_space_memo_on_and_off_agree_on_a_dense_basis(monkeypatch):
    # no zero prefix prunes the memo of an ungraded, dense basis
    a = conjugated_closure()
    memoized = identities.multilinear_identity_space(a, 4).to_dict()
    walk = identities.word_products
    monkeypatch.setattr(identities, "word_products",
                        lambda flats, n, ring, memo=None, keys=None: walk(flats, n, ring))
    assert identities.multilinear_identity_space(a, 4).to_dict() == memoized


def join_boundary_primes(t, n):
    """The largest prime at which dp_batch's int64 join sums all its
    C(t, floor(t/2)) products before reducing, and the largest prime that
    supports admits, at which it reduces on the way when that is larger."""
    size = comb(t, t // 2) * n
    p = 2 * isqrt((2**63 - 1) // size) + 3
    while not (is_prime(p) and fastpath._dp_tier(p, n, t)[3] >= comb(t, t // 2)):
        p -= 1
    return p, largest_supported_prime(t, n)


@pytest.mark.parametrize("t,n", [(6, 4), (8, 5)])
def test_join_exact_at_boundary_primes(t, n):
    # t < 2n, so s_t of dense factors near p - 1 is not zero; dp_batch's
    # join and the sparse pass, whose children sum all k + 1 terms of size
    # up to n * (p-1)^2, agree with the exact DP at the largest primes of
    # the pass's int32 rule, dp_batch's int32 rule and the int64 gate, and
    # at t = 8 at the largest prime whose int64 join does not reduce on the
    # way (at t = 6 none of the 20 join products needs it)
    unreduced, largest = join_boundary_primes(t, n)
    assert (unreduced < largest) == (t == 8)
    primes = [layer_int32_boundary_primes(t, n)[0], int32_boundary_primes(t, n)[0],
              *([unreduced] if unreduced < largest else []), largest]
    assert primes == sorted(set(primes))
    for p in primes:
        ring = GF(p)
        rng = random.Random(p)
        mats = [Matrix(ring, n, n, [p - rng.randrange(1, 40) for _ in range(n * n)])
                for _ in range(t + 1)]
        basis_arr = fastpath.basis_to_flat(mats)
        combos, values = lex_layer(basis_arr, n, p, t)
        want_combos, want_values = nonzero_rows(basis_arr, n, t, p)
        assert len(combos) == t + 1
        assert (combos == want_combos).all() and (values == want_values).all()
        exact = [eval_standard_dp([mats[i] for i in c]) for c in combos[:2].tolist()]
        assert [fastpath.array_to_matrix(ring, v) for v in values[:2]] == exact


def test_layer_tables_fit_the_budget_up_to_m5():
    # the sparse pass proves s_10 on M_5 inside BATCH_BUDGET_BYTES: its
    # largest layer, 9, holds 96,365 rows
    m5 = fastpath.basis_to_flat(full_matrix_algebra(F, 5).mats)
    combos, values = lex_layer(m5, 5, 101, 10)
    assert combos.shape == (0, 10) and values.shape == (0, 5, 5)


def test_sparse_layers_keep_their_own_int32_residues():
    # dp_batch runs int16 at p = 101; the pass keeps int32 layers of
    # residues in [0, p), which _layer_hit reads as they are
    a = full_matrix_algebra(F, 3)
    assert fastpath._dp_tier(101, 3, 5)[0] is np.int16
    layers = list(fastpath.sparse_layers(fastpath.basis_to_flat(a.mats), 3, 101, 5))
    assert len(layers) == 5 and all(len(keys) for keys, _ in layers)
    for keys, values in layers:
        assert values.dtype == np.int32 and keys.dtype == np.int64
        assert values.min() >= 0 and values.max() < 101


def test_sparse_layer_declines_past_its_budget(monkeypatch):
    m4 = fastpath.basis_to_flat(full_matrix_algebra(F, 4).mats)
    assert lex_layer(m4, 4, 101, 8)[0].shape == (0, 8)
    monkeypatch.setattr(fastpath, "BATCH_BUDGET_BYTES", 2**20)
    assert lex_layer(m4, 4, 101, 8) is None


def test_sparse_layer_rejects_unsupported_bounds():
    m2 = fastpath.basis_to_flat(full_matrix_algebra(F, 2).mats)
    with pytest.raises(DegreeGuardError):
        lex_layer(m2, 2, 2**31 + 11, 8)


# -- bounded working sets: dp_batch slices, naive_single chunks, layer ranges -----

@pytest.mark.parametrize("t", [1, 2, 7, 10])
@pytest.mark.parametrize("p", [101, 1009, 65537], ids=["int16", "int32", "int64"])
def test_dp_batch_slices_agree(monkeypatch, t, p):
    # dp_batch evaluates the whole stack in one DP, and the slices a sweep
    # cuts (one item, a boundary inside the batch) give the same values in
    # each tier, each equal to the exact DP's; s_t does not vanish on M_6
    # at t < 12
    n, batch = 6, 3
    dtype = fastpath._dp_tier(p, n, t)[0]
    assert dtype is {101: np.int16, 1009: np.int32, 65537: np.int64}[p]
    stack = np.random.default_rng(t).integers(0, p, size=(t, batch, n, n))
    sizes = []
    dp = fastpath.half_depth_dp
    monkeypatch.setattr(fastpath, "half_depth_dp",
                        lambda x, signed_sum: sizes.append(x.shape[-1]) or dp(x, signed_sum))
    before = stack.copy()
    values = fastpath.dp_batch(stack, p)
    assert sizes == [batch]
    assert (stack == before).all()  # the arguments are centred in a copy
    assert values.dtype == np.int64 and values.shape == (batch, n, n)
    assert values.reshape(batch, -1).any(axis=1).all()
    for items in (1, 2):
        cut = [fastpath.dp_batch(stack[:, lo:lo + items], p) for lo in range(0, batch, items)]
        assert (np.concatenate(cut) == values).all()
    ring = GF(p)
    for b in range(batch):
        mats = [fastpath.array_to_matrix(ring, x) for x in stack[:, b]]
        assert fastpath.array_to_matrix(ring, values[b]) == eval_standard_dp(mats)


def test_dp_batch_peak_memory_stays_in_its_slice_budget():
    # a full slice at t = 10, n = 5, the most the sweeps hand it: 1,331
    # items, whose two DP layers take 64 MiB in int32 when held at once
    stack = np.random.default_rng(5).integers(0, 101, size=(10, 1331, 5, 5))
    tracemalloc.start()
    try:
        out = fastpath.dp_batch(stack, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fastpath.SLICE_BUDGET_BYTES + stack.nbytes + out.nbytes


def test_dp_batch_peak_memory_with_parents_freed():
    # the same 1,331 items, one slice: they hold at most 275 int16 g values
    # (18.3 MB) where two whole layers held 462
    stack = np.random.default_rng(5).integers(0, 101, size=(10, 1331, 5, 5))
    assert fastpath.slice_items(10, 5, 101) == 1331
    tracemalloc.start()
    try:
        fastpath.dp_batch(stack, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20


def _naive_cases(t):
    """(label, p, mats) of s_t-nonzero tuples for naive_single: dense
    (no prefix dies), sparse (the walk prunes rows, so `alive` is set) and
    dense at the largest prime supports admits (each chunk of the last
    level is reduced before it is added)."""
    rng = random.Random(t)
    n = t // 2 + 1
    big = largest_supported_prime(t, n)
    return [
        ("dense", 101, random_mats(np.random.default_rng(t), t, n)),
        ("sparse", 101, perturbed_staircase(F, t, 5, rng)),
        ("reducing", big, [Matrix(GF(big), n, n, [big - rng.randrange(1, 40) for _ in range(n * n)])
                           for _ in range(t)]),
    ]


@pytest.mark.parametrize("t", [7, 8])
def test_naive_single_chunked_matches_unchunked(monkeypatch, t):
    for label, p, mats in _naive_cases(t):
        arr = to_array(mats)
        got = []
        for chunk in (factorial(t - 1), fastpath.SPARSE_CHUNK, 97):
            monkeypatch.setattr(fastpath, "SPARSE_CHUNK", chunk)
            got.append(fastpath.naive_single(arr, p))
        want = eval_standard_dp(mats)
        assert not want.is_zero(), label
        for value in got:
            assert fastpath.array_to_matrix(GF(p), value) == want, label


def test_naive_single_dense_t8_walk_peaks_below_8_mib(monkeypatch):
    # a dense t = 8 tuple at n = 5 forms levels of 6,720 and 20,160
    # prefixes before its last; each level is formed SPARSE_CHUNK rows at
    # a time into one array (7.0 MiB traced, against 12.8 when each level
    # and its two gathers were whole), and the value is the one the walk
    # gives with every level formed in one chunk
    arr = np.random.default_rng(8).integers(0, 101, size=(8, 5, 5))
    chunk = fastpath.SPARSE_CHUNK
    monkeypatch.setattr(fastpath, "SPARSE_CHUNK", factorial(8))
    whole = fastpath.naive_single(arr, 101)  # also builds the walk's tables
    monkeypatch.setattr(fastpath, "SPARSE_CHUNK", chunk)
    tracemalloc.start()
    try:
        value = fastpath.naive_single(arr, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert np.array_equal(value, whole) and whole.any()
    mats = [Matrix(F, 5, 5, x.ravel().tolist()) for x in arr]
    assert fastpath.array_to_matrix(F, whole) == eval_standard_dp(mats)


def _layers(a, t):
    layers = fastpath.sparse_layers(fastpath.basis_to_flat(a.mats), a.n, 101, t)
    return [(keys.copy(), values.copy()) for keys, values in layers]


# per budget in KiB, with 64-product chunks: the layers the pass builds,
# and the steps (layer k to k+1, numbered k) built in more than one run of
# the child's smallest member or whose children are summed in more than one
# slice.  From 1 MiB on M_4, 24 KiB on E(1,2,1) and 32 KiB on M_3 every
# step is built whole, as at the default budget.  The conjugated closure's
# dense basis splits steps into runs
BUDGET_CASES = {
    "M_4": {16: (1, [1]), 24: (2, [2]), 32: (2, [2]), 42: (2, [2]), 64: (3, [3]),
            128: (4, [4]), 256: (5, [4, 5]), 448: (6, [5, 6]), 512: (9, [5, 6, 7]),
            1024: (9, []), 2048: (9, [])},
    "E(1,2,1)": {16: (1, [1]), 20: (3, [2, 3]), 22: (9, [3, 4]), 24: (9, []), 32: (9, []),
                 42: (9, []), 2048: (9, [])},
    "M_3": {16: (4, [3, 4]), 18: (7, [3, 4, 5]), 24: (7, [4]), 32: (7, []), 42: (7, []),
            2048: (7, [])},
    "conj rand11[0]<=U_4": {18: (3, [2, 3]), 20: (9, [2, 3, 4])},
}
BUDGET_ALGEBRAS = [full_matrix_algebra(F, 4), full_block_algebra(F, BlockShape((1, 2, 1))),
                   full_matrix_algebra(F, 3), conjugated_closure()]


def _count_runs_and_slices(monkeypatch) -> list:
    """Record [runs, slices, sorted] per _grow_layer call: the np.argsort
    calls that sort a run's candidates, the _reduce calls that reduce a
    slice of children's sums, and the candidates sorted."""
    steps = []
    grow, argsort, reduce = fastpath._grow_layer, np.argsort, fastpath._reduce

    def growing(*args):
        steps.append([0, 0, 0])
        return grow(*args)

    def sorting(arr, *args, **kwargs):
        steps[-1][0] += 1
        steps[-1][2] += len(arr)
        return argsort(arr, *args, **kwargs)

    def reducing(*args):
        steps[-1][1] += 1
        return reduce(*args)

    monkeypatch.setattr(fastpath, "_grow_layer", growing)
    monkeypatch.setattr(np, "argsort", sorting)
    monkeypatch.setattr(fastpath, "_reduce", reducing)
    return steps


@pytest.mark.parametrize("a,budget_kib", [(a, kib) for a in BUDGET_ALGEBRAS
                                          for kib in BUDGET_CASES[a.label]],
                         ids=lambda x: getattr(x, "label", x))
def test_budget_limited_layer_steps_build_the_same_layers(monkeypatch, a, budget_kib):
    # with 64 products per chunk and this budget the pass splits exactly
    # the listed steps into runs or slices, and every layer it builds is
    # the one whole steps build
    t = 2 * a.n + 1
    layers, split = BUDGET_CASES[a.label][budget_kib]
    want = _layers(a, t)
    monkeypatch.setattr(fastpath, "SPARSE_CHUNK", 64)
    monkeypatch.setattr(fastpath, "BATCH_BUDGET_BYTES", budget_kib * 2**10)
    steps = _count_runs_and_slices(monkeypatch)
    got = _layers(a, t)
    assert len(want) == t and len(got) == layers
    assert [k for k, (runs, slices, _) in enumerate(steps, 1) if runs > 1 or slices > 1] == split
    for (keys, values), (want_keys, want_values) in zip(got, want):
        assert np.array_equal(keys, want_keys) and np.array_equal(values, want_values)


def _step_candidates(a, layers) -> list:
    """Per step from a nonempty layer k: the pairs of a row of layer k and
    a basis element c not in it such that some column where the row's
    value is nonzero is a row where b_c is nonzero."""
    basis_rows = (fastpath.basis_to_flat(a.mats).reshape(a.dim, a.n, a.n) != 0).any(axis=2)
    counts = []
    for k, (keys, values) in enumerate(layers, 1):
        if len(keys):
            combos = fastpath.layer_combos(keys, a.dim, k)
            columns = (values != 0).any(axis=1)
            meet = (columns[:, None, :] & basis_rows[None, :, :]).any(axis=2)
            meet[np.arange(len(combos))[:, None], combos] = False
            counts.append(np.count_nonzero(meet))
    return counts


# the steps that these budgets split into runs, and the candidates of the
# first step (M_4: 60 of its 240 free pairs)
SPLIT_STEPS = {"M_4": ([6, 7], 60), "M_3": ([4, 5], 24)}


@pytest.mark.parametrize("a,budget_kib", [(full_matrix_algebra(F, 4), 512),
                                          (full_matrix_algebra(F, 3), 20)],
                         ids=lambda x: getattr(x, "label", x))
def test_each_layer_step_sorts_its_candidates_once(monkeypatch, a, budget_kib):
    # at these budgets some steps do not fit as one run; each of a step's
    # candidates, the pairs whose supports meet, is still sorted exactly once
    t = 2 * a.n + 1
    split, first = SPLIT_STEPS[a.label]
    want = _step_candidates(a, _layers(a, t))
    assert want[0] == first
    monkeypatch.setattr(fastpath, "SPARSE_CHUNK", 64)
    monkeypatch.setattr(fastpath, "BATCH_BUDGET_BYTES", budget_kib * 2**10)
    steps = _count_runs_and_slices(monkeypatch)
    assert len(_layers(a, t)) == t
    assert [sorted_ for _, _, sorted_ in steps] == want
    assert [k for k, (runs, _, _) in enumerate(steps, 1) if runs > 1] == split
