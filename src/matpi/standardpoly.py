"""The standard polynomial s_t and multilinear evaluation.

s_t(x_1, ..., x_t) = sum over all permutations w of {1..t} of
sign(w) * x_{w(1)} * ... * x_{w(t)}.  Two evaluators are provided: a naive
sum over all t! permutation products (the oracle, guarded to t <= 8) and a
subset dynamic program that is exact over any coefficient ring and runs in
O(2^t * t) matrix products.

Permutation words are tuples over {1..t} everywhere in the public API, to
match the 1-based matrix unit convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional, Sequence

from .errors import DegreeGuardError, DimensionError, RingMismatchError
from .matrices import Matrix, flat_is_zero, mul_flat, zero_matrix
from .rings import Ring

NAIVE_MAX_DEGREE = 8
DP_MAX_DEGREE = 24
FASTPATH_MIN_DEGREE = 6


def signed_permutations(t: int):
    """Yield (word, sign) over all of S_t in lexicographic word order.

    Words are 1-based tuples.  The sign is tracked incrementally: the
    classic next-permutation step applies one transposition and then
    reverses a suffix of length L, which multiplies the sign by
    (-1)^(1 + L*(L-1)/2).
    """
    if t < 0:
        raise DegreeGuardError(f"degree {t} < 0")
    if t == 0:
        yield (), 1
        return
    word = list(range(1, t + 1))
    sign = 1
    while True:
        yield tuple(word), sign
        # find longest descending suffix
        i = t - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = t - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        suffix = t - 1 - i
        word[i + 1 :] = word[: i : -1]
        # one swap, then reversal of `suffix` letters = suffix*(suffix-1)/2 swaps
        flips = 1 + (suffix * (suffix - 1)) // 2
        if flips & 1:
            sign = -sign


def perm_sign(word: Sequence[int]) -> int:
    """Sign of a permutation word by inversion count."""
    w = tuple(word)
    inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])
    return -1 if inv & 1 else 1


def perm_rank(word: Sequence[int]) -> int:
    """Lexicographic rank of a word over {1..t} among all t! words."""
    w = tuple(word)
    t = len(w)
    if sorted(w) != list(range(1, t + 1)):
        raise DimensionError(f"{w} is not a permutation of 1..{t}")
    rank = 0
    for i in range(t):
        smaller = sum(1 for j in range(i + 1, t) if w[j] < w[i])
        rank += smaller * factorial(t - 1 - i)
    return rank


def perm_unrank(t: int, rank: int) -> tuple:
    """Inverse of perm_rank."""
    if not 0 <= rank < factorial(t):
        raise DimensionError(f"rank {rank} out of range for degree {t}")
    avail = list(range(1, t + 1))
    word = []
    for i in range(t):
        f = factorial(t - 1 - i)
        idx, rank = divmod(rank, f)
        word.append(avail.pop(idx))
    return tuple(word)


@dataclass(frozen=True)
class MultilinearPoly:
    """A multilinear polynomial of fixed degree in noncommuting variables.

    Coefficients are keyed by the lexicographic rank of the permutation word
    (so the monomial x_{w(1)}...x_{w(t)} has key perm_rank(w)).  Zero
    coefficients are dropped.
    """

    ring: Ring
    degree: int
    coeffs: dict

    def __post_init__(self):
        t = self.degree
        if t < 0:
            raise DegreeGuardError(f"degree {t} < 0")
        limit = factorial(t)
        clean = {}
        zero = self.ring.zero
        for rank, c in self.coeffs.items():
            if not 0 <= rank < limit:
                raise DimensionError(f"monomial rank {rank} out of range for degree {t}")
            c = self.ring.canon(c)
            if c != zero:
                clean[rank] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def standard(cls, ring: Ring, t: int) -> "MultilinearPoly":
        coeffs = {}
        for word, sign in signed_permutations(t):
            coeffs[perm_rank(word)] = sign
        return cls(ring, t, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


def _check_eval_args(mats: Sequence[Matrix]) -> tuple:
    if not mats:
        raise DimensionError("need at least one matrix")
    ring = mats[0].ring
    n = mats[0].rows
    for a in mats:
        if a.ring != ring:
            raise RingMismatchError(f"{a.ring} vs {ring}")
        if not a.is_square or a.rows != n:
            raise DimensionError(f"all arguments must be {n}x{n}")
    return ring, n


def eval_multilinear(poly: MultilinearPoly, mats: Sequence[Matrix]) -> Matrix:
    """Evaluate an arbitrary multilinear polynomial by expanding monomials."""
    if poly.degree != len(mats):
        raise DimensionError(f"degree {poly.degree} poly applied to {len(mats)} matrices")
    if poly.degree == 0:
        raise DimensionError("need at least one matrix")
    ring, n = _check_eval_args(mats)
    if ring != poly.ring:
        raise RingMismatchError(f"{poly.ring} vs {ring}")
    zero = ring.zero
    flats = [a.data for a in mats]
    acc = [zero] * (n * n)
    for rank, c in sorted(poly.coeffs.items()):
        word = perm_unrank(poly.degree, rank)
        prod = flats[word[0] - 1]
        for w in word[1:]:
            prod = mul_flat(prod, flats[w - 1], n, n, n, ring)
            if flat_is_zero(prod, zero):
                prod = None
                break
        if prod is None:
            continue
        for idx, v in enumerate(prod):
            if v != zero:
                acc[idx] += c * v
    return Matrix._new(ring, n, n, ring.canon_list(acc))


def eval_standard_naive(mats: Sequence[Matrix]) -> Matrix:
    """s_t by direct summation over all t! permutation products.

    Oracle implementation, guarded to t <= 8.  Prime-field inputs at
    t >= 6 go through the vectorized kernel when its overflow bound holds;
    both paths compute the same exact value.
    """
    t = len(mats)
    if t > NAIVE_MAX_DEGREE:
        raise DegreeGuardError(
            f"naive evaluation guarded to degree {NAIVE_MAX_DEGREE}, got {t}"
        )
    ring, n = _check_eval_args(mats)
    if ring.kind == "prime_field" and t >= FASTPATH_MIN_DEGREE:
        from . import fastpath

        if fastpath.supports(ring.p, n, t):
            return fastpath.naive_to_matrix(mats)
    return _eval_standard_naive_py(mats)


def _eval_standard_naive_py(mats: Sequence[Matrix]) -> Matrix:
    ring, n = _check_eval_args(mats)
    zero = ring.zero
    t = len(mats)
    # alternation: a repeated argument forces s_t = 0
    seen = set()
    for a in mats:
        if a.data in seen:
            return zero_matrix(ring, n)
        seen.add(a.data)
    flats = [a.data for a in mats]
    acc = [zero] * (n * n)
    for word, sign in signed_permutations(t):
        prod = flats[word[0] - 1]
        for w in word[1:]:
            prod = mul_flat(prod, flats[w - 1], n, n, n, ring)
            if flat_is_zero(prod, zero):
                prod = None
                break
        if prod is None:
            continue
        if sign > 0:
            for idx, v in enumerate(prod):
                if v != zero:
                    acc[idx] += v
        else:
            for idx, v in enumerate(prod):
                if v != zero:
                    acc[idx] -= v
    return Matrix._new(ring, n, n, ring.canon_list(acc))


def eval_standard_dp(mats: Sequence[Matrix]) -> Matrix:
    """s_t by the subset dynamic program.

    For a subset S of arguments let g(S) = s_{|S|} applied to S (in index
    order).  Then g({}) = I and

        g(S) = sum over i in S of (-1)^(|S| - pos_S(i)) * g(S - {i}) * x_i

    where pos_S(i) is the 1-based position of i in the sorted order of S.
    The answer is g(full set), reached layer by layer in O(2^t * t)
    products.  Exact over any coefficient ring.
    """
    t = len(mats)
    if t > DP_MAX_DEGREE:
        raise DegreeGuardError(f"DP evaluation guarded to degree {DP_MAX_DEGREE}, got {t}")
    ring, n = _check_eval_args(mats)
    if ring.kind == "prime_field" and t >= FASTPATH_MIN_DEGREE:
        from . import fastpath

        if fastpath.supports(ring.p, n, t):
            return fastpath.dp_to_matrix(mats)
    return _eval_standard_dp_py(mats)


def _eval_standard_dp_py(mats: Sequence[Matrix]) -> Matrix:
    from itertools import combinations

    ring, n = _check_eval_args(mats)
    zero = ring.zero
    t = len(mats)
    flats = [a.data for a in mats]
    size = n * n
    ident = [zero] * size
    one = ring.one
    for i in range(n):
        ident[i * n + i] = one
    # g values for the previous layer, keyed by subset bitmask; None = zero
    prev = {0: ident}
    for k in range(1, t + 1):
        cur = {}
        for comb in combinations(range(t), k):
            acc = None
            mask = 0
            for i in comb:
                mask |= 1 << i
            for pos, i in enumerate(comb):
                g = prev[mask ^ (1 << i)]
                if g is None:
                    continue
                term = mul_flat(g, flats[i], n, n, n, ring)
                # sign (-1)^(k - (pos+1))
                negate = (k - 1 - pos) & 1
                if acc is None:
                    acc = [-v for v in term] if negate else list(term)
                elif negate:
                    for idx, v in enumerate(term):
                        if v != zero:
                            acc[idx] -= v
                else:
                    for idx, v in enumerate(term):
                        if v != zero:
                            acc[idx] += v
            if acc is not None:
                acc = ring.canon_list(acc)
                if flat_is_zero(acc, zero):
                    acc = None
            cur[mask] = acc
        prev = cur
    full = prev[(1 << t) - 1]
    if full is None:
        return zero_matrix(ring, n)
    return Matrix._new(ring, n, n, full)


def consecutive_factor_sum(mats: Sequence[Matrix], offset: int, window: int) -> Matrix:
    """Partial sum of s_t over permutations with a fixed consecutive run.

    Keeps exactly the monomials of s_t whose word contains the letters
    offset+1, offset+2, ..., offset+window as a contiguous ascending block,
    and sums them with their s_t signs.  For an odd window length this
    partial sum collapses to a lower-degree standard polynomial with the
    windowed product substituted as a single argument; that collapse is one
    of the identities the test suite checks.
    """
    t = len(mats)
    if t > NAIVE_MAX_DEGREE:
        raise DegreeGuardError(
            f"consecutive factor sum guarded to degree {NAIVE_MAX_DEGREE}, got {t}"
        )
    if window < 1 or offset < 0 or offset + window > t:
        raise DimensionError(
            f"window [{offset + 1}..{offset + window}] out of range for degree {t}"
        )
    ring, n = _check_eval_args(mats)
    zero = ring.zero
    flats = [a.data for a in mats]
    first = offset + 1
    acc = [zero] * (n * n)
    for word, sign in signed_permutations(t):
        pos = word.index(first)
        if pos + window > t:
            continue
        ok = True
        for k in range(1, window):
            if word[pos + k] != first + k:
                ok = False
                break
        if not ok:
            continue
        prod = flats[word[0] - 1]
        for w in word[1:]:
            prod = mul_flat(prod, flats[w - 1], n, n, n, ring)
            if flat_is_zero(prod, zero):
                prod = None
                break
        if prod is None:
            continue
        if sign > 0:
            for idx, v in enumerate(prod):
                if v != zero:
                    acc[idx] += v
        else:
            for idx, v in enumerate(prod):
                if v != zero:
                    acc[idx] -= v
    return Matrix._new(ring, n, n, ring.canon_list(acc))


def product_of(mats: Sequence[Matrix]) -> Matrix:
    """Plain ordered product of the given square matrices."""
    ring, n = _check_eval_args(mats)
    out = mats[0]
    for a in mats[1:]:
        out = out * a
    return out
