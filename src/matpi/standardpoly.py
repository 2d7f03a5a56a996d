"""The standard polynomial s_t and multilinear evaluation.

s_t(x_1, ..., x_t) = sum over all permutations w of {1..t} of
sign(w) * x_{w(1)} * ... * x_{w(t)}.  Two evaluators are provided: a naive
sum over all t! permutation products (the oracle, guarded to t <= 8) and a
subset dynamic program that is exact over any coefficient ring.  The DP,
:func:`half_depth_dp`, builds s_k of every k-subset of the arguments for k
up to ceil(t/2) and joins complementary halves, so it forms about
t * 2^(t-2) + C(t, t/2) matrix products, half of the t * 2^(t-1) that
building all t layers takes.  It is written once and takes its arithmetic
from the caller: flat exact lists in :func:`eval_standard_dp`, batches of
numpy residues centred in [-p/2, p/2], in int16, int32 or int64, in
:func:`fastpath.dp_batch`.
:func:`int64_eligible` decides which of the two a prime-field input may
use.  The naive sum walks the words depth first with
:func:`word_products`, so words that share a prefix share its product, a
zero prefix skips every word that extends it, and each word's sign comes
with its product.

Every witness reported, by the sweeps of :mod:`identities` or as the
staircase of a full :func:`blocks.classify` verdict, passes one check that
chooses among these evaluators, :func:`checked_witness`: its arguments lie
in the algebra, and its value is evaluated again (:func:`_reverify_witness`).

Permutation words are tuples over {1..t} everywhere in the public API, to
match the 1-based matrix unit convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, perm
from typing import Optional, Sequence

from .errors import ContractViolationError, DegreeGuardError, DimensionError, RingMismatchError
from .matrices import Matrix, flat_is_zero, format_matrix, mul_flat, zero_matrix
from .rings import Ring

NAIVE_MAX_DEGREE = 8
DP_MAX_DEGREE = 24
# products the witness re-check's naive walk may form (_reverify_witness)
WALK_BUDGET = 2**15
_UNSEEN = object()  # a prefix not yet in a word_products memo


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
        return cls(ring, t, {rank: sign for rank, (_, sign) in enumerate(signed_permutations(t))})

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
    """Evaluate an arbitrary multilinear polynomial by expanding monomials.

    Each word of the support is multiplied out on its own, which suits
    sparse supports; the all-words sums use :func:`word_products`.
    """
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


def word_products(flats: Sequence, n: int, ring: Ring, budget: Optional[int] = None,
                  memo: Optional[dict] = None, keys: Optional[Sequence] = None):
    """Yield (rank, sign, product) for every permutation word of the flat
    n x n matrices whose product is nonzero, in lexicographic word order.

    The walk is depth first: each prefix product is formed once and shared
    by every word that extends it, and a zero prefix ends its subtree.
    Ranks are lexicographic among all t! words, as in :func:`perm_rank`.
    Picking the k-th smallest remaining letter (k from 0) puts it before k
    smaller letters, adding k inversions, so the sign of the word, as in
    :func:`perm_sign`, is carried along the prefix.  A walk of t dense
    factors forms sum over k = 2..t of t!/(t-k)! products.  With `budget`,
    it raises DegreeGuardError instead of forming more than budget
    products: a nonzero prefix forms one product per free letter, so the
    count is kept per prefix.

    With `memo`, a dict the caller owns and may share between walks, each
    prefix product is looked up before mul_flat forms it, under the tuple
    of `keys` (one per flat, equal for equal flats) of its letters, and
    stored there after; a zero prefix is stored as None, so it still ends
    its subtree.  Order, ranks and signs do not change, and walks over
    words of one basis form each distinct basis word once between them.
    """
    if not flats:
        raise DimensionError("need at least one matrix")
    zero = ring.zero
    formed = 0

    def walk(prod, rest, rank, sign, prefix):
        nonlocal formed
        if budget is not None and prod is not None:
            formed += len(rest)
            if formed > budget:
                raise DegreeGuardError(f"word walk exceeds its budget of {budget} products")
        step = factorial(len(rest) - 1)
        for k, i in enumerate(rest):
            key = None if memo is None else prefix + (keys[i],)
            nxt = _UNSEEN if key is None else memo.get(key, _UNSEEN)
            if nxt is _UNSEEN:
                nxt = flats[i] if prod is None else mul_flat(prod, flats[i], n, n, n, ring)
                if flat_is_zero(nxt, zero):
                    nxt = None
                if key is not None:
                    memo[key] = nxt
            if nxt is None:
                continue
            word_sign = -sign if k & 1 else sign
            if len(rest) == 1:
                yield rank, word_sign, nxt
            else:
                yield from walk(nxt, rest[:k] + rest[k + 1:], rank + k * step, word_sign, key)

    return walk(None, tuple(range(len(flats))), 0, 1, ())


def eval_standard_naive(mats: Sequence[Matrix]) -> Matrix:
    """s_t by direct summation over all t! permutation products.

    Oracle implementation, guarded to t <= 8.  Prime-field inputs go
    through the vectorized kernel :func:`fastpath.naive_single`, at every
    t, whenever :func:`int64_eligible` holds; both paths compute the same
    exact value.
    """
    t = len(mats)
    if t > NAIVE_MAX_DEGREE:
        raise DegreeGuardError(
            f"naive evaluation guarded to degree {NAIVE_MAX_DEGREE}, got {t}"
        )
    ring, n = _check_eval_args(mats)
    if int64_eligible(ring, n, t):
        from . import fastpath

        arr = fastpath.naive_single(fastpath.basis_to_flat(mats).reshape(t, n, n), ring.p)
        return fastpath.array_to_matrix(ring, arr)
    return _eval_standard_naive_py(mats)


def int64_eligible(ring: Ring, n: int, t: int) -> bool:
    """True when s_t of n x n matrices over ring may run on the numpy
    kernels of :mod:`fastpath`: the ring is a prime field and the int64
    overflow bound of :func:`fastpath.supports` holds.  The name stays
    because that int64 bound decides whether fastpath runs at all;
    :func:`fastpath.dp_batch` then picks int32 or int64 inside it.  Only
    a prime field imports fastpath, and with it numpy.
    """
    if ring.kind != "prime_field":
        return False
    from . import fastpath

    return fastpath.supports(ring.p, n, t)


def _eval_standard_naive_py(mats: Sequence[Matrix], budget: Optional[int] = None) -> Matrix:
    """The naive sum as a fold over :func:`word_products`, at any t; with
    `budget`, DegreeGuardError past that many products formed."""
    ring, n = _check_eval_args(mats)
    zero = ring.zero
    # alternation: a repeated argument forces s_t = 0
    if len({a.data for a in mats}) < len(mats):
        return zero_matrix(ring, n)
    acc = [zero] * (n * n)
    for _, sign, prod in word_products([a.data for a in mats], n, ring, budget):
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
    """s_t by the half-depth subset DP of :func:`half_depth_dp`.

    Exact over any coefficient ring, in pure Python: products are flat
    lists and None stands for a zero g(S), whose products are skipped.
    Batched sweeps over GF(p) run the same recurrence on numpy integer
    batches through :func:`fastpath.dp_batch`.
    """
    t = len(mats)
    if t > DP_MAX_DEGREE:
        raise DegreeGuardError(f"DP evaluation guarded to degree {DP_MAX_DEGREE}, got {t}")
    ring, n = _check_eval_args(mats)
    zero = ring.zero
    x = [None if flat_is_zero(m.data, zero) else m.data for m in mats]
    value = half_depth_dp(x, lambda pairs: _signed_sum(pairs, n, ring))
    if value is None:
        return zero_matrix(ring, n)
    return Matrix._new(ring, n, n, value)


def half_depth_dp(x: Sequence, signed_sum):
    """s_t of the t factors x by the half-depth subset dynamic program.

    For a subset S of arguments let g(S) = s_{|S|} applied to S (in index
    order).  Then g({i}) = x_i and

        g(S) = sum over i in S of (-1)^(|S| - pos_S(i)) * g(S - {i}) * x_i

    where pos_S(i) is the 1-based position of i in the sorted order of S.
    The layers stop at b = ceil(t/2), and one join gives the answer.
    Splitting each word of s_t after its first a = floor(t/2) letters,

        s_t = sum over a-subsets S of (-1)^inv(S) * g(S) * g(complement of S)

    where inv(S) counts the pairs s in S, c not in S with s > c: the sign
    of the shuffle that lists S before its complement.  This is
    X^t = X^a * X^b for X = sum of x_i e_i over the Grassmann algebra.  The
    layers and the join form sum_{k=2..b} k * C(t, k) + C(t, a) products
    (2,802 at t = 10), against t * 2^(t-1) = 5,120 for all t layers.

    Layers are keyed by subset bitmask and built in lexicographic order of
    their subsets, by the schedule of :func:`_dp_schedule`.  Each parent
    g(S - {i}) is deleted right after its last child is built, so a step
    holds the parents that still have children to come and the children
    built so far: at most 275 g values at t = 10, against the 462 of two
    whole layers, and 79 against 126 at t = 8.  The one exception is the
    last step of an odd t, whose lower layer (the a-subsets) the join
    reads, so it stays whole there: 252 values at t = 9.

    The arithmetic is the caller's: signed_sum takes a list of
    (left, right, negate) triples and returns the sum of
    (-1)^negate * left * right, which becomes the next g value.
    """
    t = len(x)
    if t == 1:
        return x[0]
    steps, join = _dp_schedule(t)
    layer = {1 << i: x[i] for i in range(t)}
    for step in steps:
        lower, layer = layer, {}
        for mask, terms, last in step:
            layer[mask] = signed_sum([(lower[parent], x[i], negate)
                                      for parent, i, negate in terms])
            for parent in last:
                del lower[parent]
    if t % 2 == 0:
        lower = layer
    return signed_sum([(lower[mask], layer[rest], negate) for mask, rest, negate in join])


@lru_cache(maxsize=None)
def _dp_schedule(t: int) -> tuple:
    """The schedule of :func:`half_depth_dp` for t >= 2, built once per t
    and kept for the process (0.35 MiB at t = 10, 1.7 MiB at t = 12,
    35 MiB at t = 16), so a call pays only for its products.

    Returns (steps, join).  steps holds one tuple per layer k = 2, ...,
    ceil(t/2) of (mask, terms, last) per k-subset S in lexicographic
    order: mask is the bitmask of S, terms the (parent, i, negate) triples
    of its recurrence, the parent being the bitmask of S - {i} and negate
    :func:`term_negate` of i's position, and last the parents whose last
    child S is.  At the last step of an odd t, last is empty throughout,
    because the join reads that step's lower layer.  join holds
    (mask, complement, negate) per split of :func:`join_splits`.
    """
    a, b = t // 2, t - t // 2
    steps = []
    for k in range(2, b + 1):
        negates = [term_negate(k, pos) for pos in range(k)]
        keep = k == b and a < b
        step = []
        for comb in combinations(range(t), k):
            mask = sum(1 << i for i in comb)
            terms = tuple((mask ^ (1 << i), i, negates[pos]) for pos, i in enumerate(comb))
            # the children S - {i} + {c} of S - {i} come in the order of c,
            # so S is the last one exactly when i exceeds every non-member
            top = max(set(range(t)).difference(comb))
            last = () if keep else tuple(mask ^ (1 << i) for i in comb if i > top)
            step.append((mask, terms, last))
        steps.append(tuple(step))
    full = (1 << t) - 1
    join = []
    for comb, negate in join_splits(t):
        mask = sum(1 << i for i in comb)
        join.append((mask, full ^ mask, negate))
    return tuple(steps), tuple(join)


def term_negate(k: int, pos: int) -> int:
    """1 when the term g(S - {i}) * x_i of the recurrence of
    :func:`half_depth_dp` is negated, for i the pos-th member (from 0) of a
    k-subset S, else 0: the parity of |S| - pos_S(i) = k - 1 - pos."""
    return (k - 1 - pos) & 1


def join_splits(t: int):
    """Yield (S, negate) for the floor(t/2)-subsets S of range(t) in
    lexicographic order: the splits of the join of :func:`half_depth_dp`,
    with negate the parity of inv(S)."""
    a = t // 2
    for comb in combinations(range(t), a):
        # s_j, the j-th member of S, exceeds s_j - j members of the complement
        yield comb, (sum(comb) - a * (a - 1) // 2) & 1


def _signed_sum(pairs, n: int, ring: Ring):
    """Canonical flat sum of (-1)^negate * left * right over the
    (left, right, negate) triples, skipping None factors; None if zero."""
    zero = ring.zero
    acc = None
    for left, right, negate in pairs:
        if left is None or right is None:
            continue
        term = mul_flat(left, right, n, n, n, ring)
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
    if acc is None:
        return None
    acc = ring.canon_list(acc)
    return None if flat_is_zero(acc, zero) else acc


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
    ring, _ = _check_eval_args(mats)
    run = tuple(range(offset + 1, offset + window + 1))
    coeffs = {}
    for rank, (word, sign) in enumerate(signed_permutations(t)):
        pos = word.index(offset + 1)
        if word[pos:pos + window] == run:
            coeffs[rank] = sign
    return eval_multilinear(MultilinearPoly(ring, t, coeffs), mats)


def product_of(mats: Sequence[Matrix]) -> Matrix:
    """Plain ordered product of the given square matrices."""
    ring, n = _check_eval_args(mats)
    out = mats[0]
    for a in mats[1:]:
        out = out * a
    return out


# -- the witness check ---------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """A tuple of elements on which the polynomial evaluated nonzero.

    indices are 1-based positions into the basis/spanning list when the
    tuple came from an exhaustive sweep; None for random elements and for
    the staircase of a full :func:`blocks.classify` verdict.
    """

    indices: Optional[tuple]
    mats: tuple
    value: Matrix

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices) if self.indices is not None else None,
            "mats": [format_matrix(m) for m in self.mats],
            "value": format_matrix(self.value),
        }


def _reverify_witness(mats: Sequence[Matrix], expected: Matrix) -> None:
    """Witnesses never ship unvalidated: re-evaluate them once more.

    Per case, the re-check and what it shares with the sweep:
    - t <= 8 over GF(p) inside the int64 bound of :func:`int64_eligible`,
      the gate of every numpy kernel: the naive permutation sum
      :func:`fastpath.naive_single` (through :func:`eval_standard_naive`).
    - otherwise, at any t: one walk of the witness in its own ring, the
      pure-Python naive sum over :func:`word_products`, which stops with
      DegreeGuardError past WALK_BUDGET products.  Every walk up to t = 7
      forms at most sum over k = 2..t of t!/(t-k)! = 13,692, and the
      sparse witnesses of sweeps stay inside it too (the largest
      measured, M_6 s_11, forms 20,450).  The walk shares prefix products
      and drops zero prefixes, and calls nothing of :func:`half_depth_dp`,
      so it shares no recurrence with the DP.
    - past the budget: :func:`eval_standard_dp`.  A witness with more
      dense-walk products than the budget (t >= 8) none of whose factors
      has a zero row or column goes there without walking: no product of
      such factors has one either (row i of A has some A[i, j] != 0, and
      row j of B some B[j, k] != 0), so no prefix is zero and its walk
      would form every product, 109,592 at t = 8.  The DP is not
      independent: over GF(p) it shares the recurrence
      :func:`half_depth_dp` with the sweep's numpy kernels, and over QQ,
      Z/m or a prime past the int64 bound it repeats the very call the
      sweep made, so only the `contains` check and the nonzero test add
      anything.
    """
    mats = list(mats)
    t, ring, n = len(mats), expected.ring, expected.rows
    if t <= NAIVE_MAX_DEGREE and int64_eligible(ring, n, t):
        got = eval_standard_naive(mats)
    elif sum(perm(t, k) for k in range(2, t + 1)) > WALK_BUDGET and all(
            any(x.data[i * n:(i + 1) * n]) and any(x.data[i::n]) for x in mats for i in range(n)):
        got = eval_standard_dp(mats)
    else:
        try:
            got = _eval_standard_naive_py(mats, WALK_BUDGET)
        except DegreeGuardError:
            got = eval_standard_dp(mats)
    if got != expected or got.is_zero():
        raise ContractViolationError(
            "witness failed re-verification; evaluators disagree"
        )


def checked_witness(a, combo, mats, value) -> Witness:
    """The witness of a nonzero value of s_t on mats, whose arguments are
    checked to lie in the algebra a (anything with a `contains` test) and
    whose value is re-verified first; combo is the 0-based combination of
    a.mats that mats is, or None.  Every sweep witness of
    :mod:`identities` and :func:`blocks.classify`'s staircase come here."""
    if not all(a.contains(x) for x in mats):
        raise ContractViolationError("witness argument lies outside the algebra")
    _reverify_witness(mats, value)
    return Witness(None if combo is None else tuple(i + 1 for i in combo), mats, value)
