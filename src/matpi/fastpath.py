"""Vectorized numpy arithmetic for standard-polynomial evaluation over GF(p).

This module holds only numpy integer arithmetic, and each of its three
kernels has one caller.  :func:`dp_batch` runs the half-depth subset DP
of :func:`standardpoly.half_depth_dp`, the one copy of that recurrence,
over a batch of argument tuples, for identities._dp_hits, in one DP per
call.  The sweeps there alone size its blocks, at most :func:`slice_items`
items each, and build their stacks by :func:`coords_to_stack` from
coefficient rows, at the kernel's product dtype, or by
:func:`combos_to_stack` as a gather of the basis elements of an
exhaustive sweep's combinations.  It works on batch-last (n, n, B)
arrays of centred residues, in [-m, m] for m = floor(p/2), and forms
each product with one einsum over the contiguous batch axis: in int16,
summing a few products there before an int32 accumulator takes them,
when n * m^2 + m < 2^15 (every p <= 157 at n = 5); in int32 when
t * n * m^2 + p < 2^31; in int64 otherwise.  The DP frees each g(S)
after its last child, so a call holds at most 275 of the 462 g values
of two whole layers at t = 10.
Exhaustive sweeps decide all basis combinations past their probe block
at once instead: :func:`sparse_layers` (called by
identities._first_combination_hit and identities._layer_reports) runs the
DP's recurrence and signs (:func:`standardpoly.term_negate`) forward over
basis subsets, keeping only the subsets whose s_k is nonzero, and yields
the layers one at a time, so layer k holds exactly the combinations on
which s_k does not vanish (:func:`layer_combos` names them).  Its layers
hold residues in [0, p), in int32 or int64 by a rule of its own.
:func:`naive_single` sums the t! signed permutation products of one tuple
in int64 for :func:`standardpoly.eval_standard_naive`, at every t <= 8,
and so re-checks witnesses.  It shares nothing with the DP: it
walks the words prefix by prefix, level by level, each level
SPARSE_CHUNK prefixes at a time, so words share their prefixes'
products, a zero prefix drops every word that extends it, and each
word's sign rides along as a parity (the batched form of
:func:`standardpoly.word_products`).  All three are exact
only inside proven overflow bounds.  Products of residues in [0, p) have
entries at most n * (p-1)^2, and products of centred ones at most
n * m^2.  The int64 gate, t * n * (p-1)^2 < 2^62
(:func:`supports`), decides whether this module runs at all.  Inside it,
:func:`dp_batch` reduces mod p often enough that a residue plus the
products summed since stays inside its dtype, :func:`sparse_layers`
keeps its sums below 2^31 - p or 2^62, and :func:`naive_single` reduces
whenever its next step could pass 2^62 (each docstring gives the counts).
Every reduction mod p on arrays here is a floor-division one:
acc - (acc // p) * p into [0, p) (:func:`_reduce`), or
acc - ((acc + m) // p) * p into [-m, m] (:func:`_centre`).  On integer
arrays numpy's `%` costs several times as much, and the result is the
same.  Each caller runs its kernel exactly when
:func:`standardpoly.int64_eligible` holds; the pure-Python paths remain
the reference and the fallback.  Results agree entrywise with the exact
evaluators (the test suite cross-checks both directions).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import DegreeGuardError
from .matrices import Matrix
from .rings import PrimeField
from .standardpoly import NAIVE_MAX_DEGREE, half_depth_dp, term_negate

INT64_BUDGET = 2**62
BATCH_BUDGET_BYTES = 256 * 2**20
# slice_items, read by the sweeps: bytes that two whole DP layers of one block take
SLICE_BUDGET_BYTES = 32 * 2**20
# sparse_layers: basis sizes whose subset bitmasks fit int64, and products per chunk
KEY_BITS = 63
SPARSE_CHUNK = 4096


def supports(p: int, n: int, t: int) -> bool:
    """True when the layered accumulation cannot overflow int64."""
    return t >= 1 and t * n * (p - 1) ** 2 < INT64_BUDGET


def array_to_matrix(ring: PrimeField, arr: np.ndarray) -> Matrix:
    n, m = arr.shape
    return Matrix._new(ring, n, m, [int(v) % ring.p for v in arr.reshape(-1)])


def basis_to_flat(basis_mats) -> np.ndarray:
    """(d, n*n) int64 array of flattened basis matrices."""
    d = len(basis_mats)
    n = basis_mats[0].rows
    out = np.empty((d, n * n), dtype=np.int64)
    for k, a in enumerate(basis_mats):
        out[k] = np.array(a.data, dtype=np.int64)
    return out


def dp_batch(stack: np.ndarray, p: int) -> np.ndarray:
    """Evaluate s_t on a batch of argument tuples by the half-depth subset DP.

    stack has shape (t, B, n, n) and holds residues in [0, p): argument k
    of batch item b is stack[k, b].  Returns C-contiguous int64 (B, n, n)
    residues mod p.  The recurrence is :func:`standardpoly.half_depth_dp`.

    Centred residues: the kernel works with m = floor(p/2) and stores every
    argument and every g(S) as a residue in [-m, m], so a product of two
    of them has entries of size at most size = n * m^2.  The result goes
    back to [0, p) at the end.

    Tiers (:func:`_dp_tier`), each a product dtype, a group and an
    accumulator dtype:

    - int16 when size + m <= 2^15 - 1 (p <= 157 at n = 5): products are
      formed in int16, and group = floor((2^15 - 1 - m) / size) of them
      (2 at p = 101, n = 5) are summed in int16, so a group sum is at most
      2^15 - 1 - m in size.  A sum of one group is reduced in int16; a
      longer one adds each group sum into an int32 accumulator;
    - int32 when t * size + p < 2^31, with products and sums in int32
      and groups of one product;
    - int64 otherwise, inside the gate t * n * (p-1)^2 < 2^62 of
      :func:`supports`, with groups of one product.

    The same code runs in every tier (:func:`_signed_sum`).

    Overflow bounds: an accumulator of L + 1 bits (L = 31 for the int32
    one of the int16 and int32 tiers, 63 for int64) is reduced after every
    `every` products,

        every = floor((2^L - 1 - p) / size), rounded down to whole groups,

    and after each reduction it holds a residue in [-m, m], so a running
    sum is at most m + every * size <= 2^L - 1 - p + m in size.  The int32
    rule and the int64 gate both make every >= t, so a layer (k <= t
    products) reduces only at its end, and in the int16 tier every is at
    least 65,000.  The join sums C(t, floor(t/2)) products, 252 at t = 10,
    so in the int32 and int64 tiers it reduces on the way at the largest
    primes they admit.

    Reduction: each g(S) is reduced straight to [-m, m] as
    acc - ((acc + m) // p) * p (:func:`_centre`), into a second buffer.
    (acc + m) // p * p lies in [acc + m - (p-1), acc + m], so for a sum of
    size at most 2^L - 1 - p + m every value formed lies in
    [-2^L + 2, 2^L - 1], and for an int16 group sum, at most 2^15 - 1 - m
    in size, in [-2^15 + 1, 2^15 - 1].  An int32 accumulator's residue is
    then copied to int16.  The arguments are centred the same way on
    entry, where x + m < p + m fits every tier's dtype.

    Memory: callers hand it at most :func:`slice_items` items (the sweeps
    in identities cut every block to that size), and it evaluates the
    whole stack in one :func:`standardpoly.half_depth_dp` call.  Besides
    the caller's stack and the (B, n, n) int64 result, one call holds the
    live g values of its items, its batch-last copy of the arguments and
    the four buffers of its signed sums (two g-sized ones at the product
    dtype and two at the accumulator's).  :func:`standardpoly.half_depth_dp`
    frees each parent after its last child, so the live g values are at
    most 275 of the 462 of two whole layers at t = 10 and 79 of 126 at
    t = 8, while an odd t keeps both layers whole at its last step, whose
    lower layer the join reads (252 at t = 9).

    Layout: the stack is copied once to batch-last (t, n, n, B) at the
    product dtype, so each g(S) is an (n, n, B) array whose batch axis is
    contiguous, and every product is one einsum over that axis.
    """
    t, _, n, _ = stack.shape
    if not supports(p, n, t):
        raise DegreeGuardError(f"int64 budget exceeded for p={p}, n={n}, t={t}")
    if stack.min() < 0 or stack.max() >= p:
        raise DegreeGuardError(f"int64 bound needs residues in [0, {p})")
    tier = _dp_tier(p, n, t)
    x = np.ascontiguousarray(stack.transpose(0, 2, 3, 1), dtype=tier[0])
    x = _centre(x, p, np.empty_like(x))
    value = half_depth_dp(x, _signed_sum(p, tier, x.shape[1:]))
    return _reduce(value.transpose(2, 0, 1).astype(np.int64, order="C"), p)


def slice_items(t: int, n: int, p: int) -> int:
    """The most items one :func:`dp_batch` call holds, read by the sweeps
    (identities._first_combination_hit and identities._row_hits) to cut
    every block, their probes included: as many as two DP layers of
    C(t, floor(t/2)) g values at the product dtype of :func:`_dp_tier`
    take inside SLICE_BUDGET_BYTES, and at least one (1,331 at t = 10,
    n = 5, p = 101).  The row sweep cuts its rows into the fewest equal
    slices of at most this many, and draws and stacks one slice per call:
    its s_10 sweep of M_5 at 2,000 trials traces 14.2 MiB."""
    per_item = 2 * comb(t, t // 2) * n * n * np.dtype(_dp_tier(p, n, t)[0]).itemsize
    return max(1, SLICE_BUDGET_BYTES // per_item)


def _dp_tier(p: int, n: int, t: int) -> tuple:
    """(product, group, accumulator, every) of :func:`dp_batch`: the dtype
    products are formed and summed in, how many are summed before their
    sum joins the accumulator, its dtype, and how many products it takes
    between reductions; see :func:`dp_batch` for the bounds."""
    m = p // 2
    size = n * m * m
    if size + m <= 2**15 - 1:
        group = (2**15 - 1 - m) // size
        return np.int16, group, np.int32, (2**31 - 1 - p) // size // group * group
    dtype = np.int32 if t * size + p < 2**31 else np.int64
    return dtype, 1, dtype, (np.iinfo(dtype).max - p) // size


def _signed_sum(p: int, tier, shape):
    """The signed sum of :func:`half_depth_dp` for batch-last arrays of the
    given (n, n, B) shape holding centred residues at the product dtype of
    tier (:func:`_dp_tier`): a function of a list of (left, right, negate)
    triples that returns the sum of (-1)^negate * left @ right as a new
    array of centred residues at that dtype.

    Each group of consecutive products is summed in one buffer at the
    product dtype, signed relative to its first product: every product
    after a group's first is formed in a second buffer and added or
    subtracted.  A sum of one group is reduced there (:func:`_centre`);
    otherwise each group is added into or subtracted from the accumulator,
    which is reduced after every `every` products and at the end.  The
    four buffers are made once and serve every sum."""
    product, group, accumulator, every = tier
    part, term = np.empty(shape, product), np.empty(shape, product)
    acc, scratch = np.empty(shape, accumulator), np.empty(shape, accumulator)

    def signed_sum(pairs) -> np.ndarray:
        nonlocal acc, scratch
        for lo in range(0, len(pairs), group):
            (left, right, sign), *rest = pairs[lo:lo + group]
            np.einsum("imb,mjb->ijb", left, right, out=part)
            for left, right, negate in rest:
                np.einsum("imb,mjb->ijb", left, right, out=term)
                (np.subtract if negate != sign else np.add)(part, term, out=part)
            if lo == 0:
                if len(pairs) <= group:
                    return _centre(part, p, np.empty(shape, product), sign)
                (np.negative if sign else np.positive)(part, out=acc)
            else:
                (np.subtract if sign else np.add)(acc, part, out=acc)
            if (lo + group) % every == 0 and lo + group < len(pairs):
                acc, scratch = _centre(acc, p, scratch), acc
        return _centre(acc, p, np.empty(shape, accumulator)).astype(product, copy=False)

    return signed_sum


def _centre(acc: np.ndarray, p: int, out: np.ndarray, negate=False) -> np.ndarray:
    """acc, or -acc when negate, reduced mod p into [-m, m], m = floor(p/2),
    as +-(acc - ((acc + m) // p) * p), written to out (an array shaped and
    typed like acc, not acc itself), which is returned.  Equal to
    ((acc + m) % p) - m wherever acc + m does not wrap (:func:`dp_batch`
    shows that it does not)."""
    np.add(acc, p // 2, out=out)
    np.floor_divide(out, p, out=out)
    out *= p
    if negate:
        return np.subtract(out, acc, out=out)
    return np.subtract(acc, out, out=out)


def _reduce(acc: np.ndarray, p: int, scratch=None) -> np.ndarray:
    """acc mod p in place, as acc - (acc // p) * p through scratch (an
    array shaped and typed like acc, allocated when None); returns acc.
    Equal to acc % p wherever acc - (p-1) does not wrap (:func:`naive_single`
    and :func:`sparse_layers` show that it does not)."""
    if scratch is None:
        scratch = np.empty_like(acc)
    np.floor_divide(acc, p, out=scratch)
    scratch *= p
    acc -= scratch
    return acc


@lru_cache(maxsize=None)
def _walk_tables(t: int) -> tuple:
    """The permutation-prefix tables of :func:`naive_single`, built once
    per t >= 2 and read-only.

    Returns (levels, missing).  levels[k - 1], for k = 1 .. t-1, is a pair
    (parent, factor) of intp arrays with one row per k-letter prefix of a
    word over range(t): parent is the row of its (k-1)-letter prefix in
    levels[k - 2] (0 at k = 1), and factor is the letter appended, plus t
    when that letter is the odd-ranked one among the free letters (it is
    then read from -x).  Levels below t-1 list their prefixes in
    lexicographic order; the last level is sorted stably by the one letter
    its prefixes miss, which missing[r] gives for its row r.
    """
    letters = np.arange(t)[None, :]  # free letters of each prefix, sorted
    levels = []
    for _ in range(1, t):
        rows, m = letters.shape
        parent = np.repeat(np.arange(rows), m)
        factor = (letters + t * (np.arange(m) & 1)).ravel()
        rest = np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)
        letters = letters[:, rest].reshape(rows * m, m - 1)
        levels.append((parent, factor))
    missing = letters.ravel()
    order = np.argsort(missing, kind="stable")
    levels[-1] = tuple(a[order] for a in levels[-1])
    missing = missing[order]
    for a in (missing, *(a for level in levels for a in level)):
        a.setflags(write=False)
    return tuple(levels), missing


def naive_single(arr: np.ndarray, p: int) -> np.ndarray:
    """Evaluate s_t on one argument tuple as the sum of its t! signed
    permutation products, walked prefix by prefix.

    arr has shape (t, n, n) and holds residues in [0, p); the result is
    an (n, n) int64 array of residues mod p.  The walk is the batched twin
    of :func:`standardpoly.word_products` over the tables of
    :func:`_walk_tables`: level k forms every k-letter prefix product at
    once, as gathers of the parent products and of the appended factors
    and batched matmuls (:func:`_extend`), SPARSE_CHUNK rows at a time
    into one array made first, so its gathers hold one chunk.  Prefixes
    share their parent's product, and a zero product drops its prefix and
    every prefix that extends it, so sparse tuples form few products;
    while no row has died the tables are used as they are, and after that
    the parent indices are remapped.

    Sign: picking the k-th smallest free letter (k from 0) puts it before
    k smaller letters, adding k inversions, so a word's sign is the parity
    carried along its prefix.  The walk carries it in the products: an
    odd-ranked letter is appended as -x.  The last letter is collected:

        s_t = sum over j of (sum of the signed products of the
              (t-1)-letter prefixes missing j) * x_j

    (the last letter is the only free one, rank 0, so it keeps the
    prefix's sign).  The last level, sorted by missing letter, is formed
    SPARSE_CHUNK rows at a time, and np.add.reduceat adds each chunk into
    the group sums, so the (t-1)! products of a dense last level (40,320
    at t = 8) are never held at once.  A dense t = 8 tuple at n = 5 holds
    at most its 20,160-row level, the level before it and one chunk's
    gathers: 7.0 MiB traced.
    Each word's product up to its last letter is still formed, and a
    dense tuple forms sum over k = 2..t-1 of t!/(t-k)! products plus t:
    69,280 at t = 8, against 7 * 8! = 282,240 for the words one by one.

    Overflow: the walk reduces mod p only when the next step could pass
    2^62 = INT64_BUDGET.  It tracks a bound b on the size of every entry:
    b = p - 1 for the arguments, their negatives and reduced values, and
    a product of factors of sizes b and p - 1 has entries of size at most
    n * b * (p-1), its partial sums included.  Before a product, when
    n * b * (p-1) >= 2^62, the prefixes are reduced to [0, p), and then
    n * (p-1)^2 < 2^62 by :func:`supports`.  A group sum adds at most
    (t-1)! rows, over all chunks, so its partial sums stay below
    (t-1)! * b when the chunks are added unreduced, which they are when
    (t-1)! * b < 2^62.  Otherwise each chunk is reduced to [0, p) before
    it is added, and (t-1)! * (p-1) < 5040 * 2^31 < 2^62, because t <= 8
    and :func:`supports` gives p - 1 < 2^31.  With group entries of size
    g, the result sums t products, of entries of size at most
    t * n * g * (p-1); when that reaches 2^62 the groups are reduced
    first, and t * n * (p-1)^2 < 2^62 by :func:`supports`.  Every value
    therefore stays below 2^62 in size, so the floor-division reductions
    (:func:`_reduce`) never wrap.  A prefix whose entries are multiples
    of p but not 0 is not pruned; it only costs products that sum to 0
    mod p.  At p = 101 and n <= 5 no product is preceded by a reduction.
    """
    t, n, _ = arr.shape
    if t > NAIVE_MAX_DEGREE:
        raise DegreeGuardError(f"naive kernel guarded to degree {NAIVE_MAX_DEGREE}, got {t}")
    if not supports(p, n, t):
        raise DegreeGuardError(f"int64 budget exceeded for p={p}, n={n}, t={t}")
    if t == 1:
        return _reduce(arr[0].astype(np.int64), p)
    levels, missing = _walk_tables(t)
    signed = np.concatenate([arr, -arr]).astype(np.int64, copy=False)
    prod, bound, alive = None, p - 1, None  # alive: surviving table rows
    for k, (parent, factor) in enumerate(levels, 1):
        if alive is not None:
            local = np.full(len(levels[k - 2][0]), -1)
            local[alive] = np.arange(len(alive))
            local = local[parent]
            alive = np.flatnonzero(local >= 0)
            parent, factor = local[alive], factor[alive]
        if prod is not None:
            if n * bound * (p - 1) >= INT64_BUDGET:
                prod, bound = _reduce(prod, p), p - 1
            bound *= n * (p - 1)
        if k == t - 1:
            break
        prod = _extend(prod, parent, factor, signed)
        nonzero = prod.any(axis=(1, 2))
        if not nonzero.all():
            keep = np.flatnonzero(nonzero)
            if not len(keep):
                return np.zeros((n, n), dtype=np.int64)
            prod = prod[keep]
            alive = keep if alive is None else alive[keep]
    size = len(missing) // t
    reduce_rows = size * bound >= INT64_BUDGET
    if reduce_rows:
        bound = p - 1
    missed = missing if alive is None else missing[alive]
    groups = np.zeros((t, n, n), dtype=np.int64)
    for lo in range(0, len(factor), SPARSE_CHUNK):
        part = slice(lo, lo + SPARSE_CHUNK)
        rows = _extend(prod, parent[part], factor[part], signed)
        if reduce_rows:
            _reduce(rows, p)
        letters = missed[part]
        starts = np.flatnonzero(np.r_[True, letters[1:] != letters[:-1]])
        groups[letters[starts]] += np.add.reduceat(rows, starts, axis=0)
    last = np.unique(missed)
    if t * n * size * bound * (p - 1) >= INT64_BUDGET:
        _reduce(groups, p)
    return _reduce(np.matmul(groups[last], arr[last]).sum(axis=0), p)


def _extend(prod, parent, factor, signed) -> np.ndarray:
    """One level of :func:`naive_single`'s walk for the given table rows:
    the products prod[parent] @ signed[factor], or the factors alone at
    the first level, where prod is None.  The products are formed
    SPARSE_CHUNK rows at a time into one array made first, so the gathers
    hold one chunk at a time."""
    if prod is None:
        return signed.take(factor, axis=0)
    level = np.empty((len(parent),) + prod.shape[1:], dtype=prod.dtype)
    for lo in range(0, len(parent), SPARSE_CHUNK):
        part = slice(lo, lo + SPARSE_CHUNK)
        np.matmul(prod.take(parent[part], axis=0), signed.take(factor[part], axis=0),
                  out=level[part])
    return level


def sparse_layers(basis_arr: np.ndarray, n: int, p: int, t: int):
    """Yield the layers k = 1, ..., t of one sparse pass over basis subsets.

    basis_arr is the (d, n*n) residue array of the basis.  Layer k is a
    pair (keys, values): the k-subsets A of the basis where g(A) =
    s_k(b_A) mod p is nonzero, and those g(A) as an (R, n, n) array of
    residues.  Each key is an int64 bitmask with bit d-1-c for member c
    (:func:`layer_combos` lists the members), and keys ascend, so that the
    rows are in descending lexicographic order of their subsets.  Every
    other k-subset has g(A) = 0, so s_k is an identity of the span exactly
    when layer k is empty; every layer after an empty one is empty too.
    The pass stops, yielding fewer than t layers, where the next layer
    cannot be built inside BATCH_BUDGET_BYTES, and yields nothing when
    d > KEY_BITS, where keys would not fit int64.

    Layer 1 holds the nonzero basis elements.  Layer k+1 follows by the
    recurrence of :func:`standardpoly.half_depth_dp`, read from the
    parents' side: each row A and each c not in A contribute
    (-1)^negate * g(A) * b_c to g(A + {c}), with negate
    :func:`standardpoly.term_negate` of c's position in A + {c}.  A zero
    g(A) would contribute nothing, so its row is dropped.  Nor is a
    candidate (A, c) formed where the columns in which g(A) is nonzero miss
    the rows in which b_c is nonzero: their product is then zero, on any
    basis.  On matrix units, as in Swan's graph view, g(A) * e_uv is zero
    unless column u of g(A) is nonzero, and this prunes most candidates;
    on a dense basis it prunes none.  The filter is one boolean matmul per
    chunk of SPARSE_CHUNK rows, of their column masks (R, n) by the row
    masks (n, d) of the basis, made once per pass.

    Memory: the candidates (row, c) of a layer are sorted by child key,
    and their products are formed SPARSE_CHUNK at a time and summed per
    child with np.add.reduceat.  The work arrays of a step live only in
    :func:`_grow_layer`, so between layers the pass holds just the layer
    it yielded.  They are counted before they are made, every value at
    the layers' dtype (4 bytes an entry in int32) and every other array
    at its own size: per row its value, key and three d-wide byte arrays
    (members, free places, members below each place); a chunk of rows'
    column masks and support test, n + d bytes a row; 40 bytes of
    indices, keys and sort order per candidate of a run; one chunk's
    three product-sized arrays, a chunk holding at most the step's
    rows * (d - k) pairs of a row and a free place; and a slice's
    children's sums and the copy of their nonzero rows.  A step whose candidates do not fit as
    one run is built in runs of the child's smallest member, planned from
    the exact count of each member's candidates: a run holds only its own
    candidates, at most rows + rows_s * d for one member s, where rows_s
    rows have smallest member s, besides the rows kept before it.  Each
    run's candidates are sorted once, and its children are summed in
    slices of whole children that fit the bytes left.  The parts are
    joined at the end, which holds the kept rows twice.  The pass stops
    where one member's run with one child's sums, or the join, passes
    BATCH_BUDGET_BYTES.  The budget bounds these counted arrays, not the
    process: the interpreter and imports (about 35 MB), the temporaries
    the count leaves out (cand // d, a chunk's gathers) and the memory
    the allocator keeps after numpy frees it come on top.  With the
    256 MiB budget, min_standard_degree on E(1,5) and E(5,1) peaks at 277
    and 224 MB of RSS in-process on x86-64, while the arrays numpy traces
    peak at 192 and 164 MiB.

    Dtype and overflow: the layers are int32 when t * n * (p-1)^2 + p
    < 2^31 and int64 otherwise, a rule of their own: :func:`dp_batch`'s
    centred residues and int16 tier stay inside that kernel, and
    identities._layer_hit reads these values as residues in [0, p).  Every
    g(A) is a residue in [0, p) and every factor +-b_c has entries of size
    at most p - 1, so a product has entries of size at most n * (p-1)^2.
    A child A + {c} of layer k + 1 <= t
    receives one term per member c, from the parent A, so its sum, partial
    ones included, has at most t terms before its one reduction: at most
    t * n * (p-1)^2, below 2^31 - p under the int32 rule and below 2^62 by
    :func:`supports`, so neither the sums nor the floor-division reduction
    (:func:`_reduce`) can wrap.
    """
    d = basis_arr.shape[0]
    if not supports(p, n, t):
        raise DegreeGuardError(f"int64 budget exceeded for p={p}, n={n}, t={t}")
    if d > KEY_BITS:
        return
    dtype = np.int32 if t * n * (p - 1) ** 2 + p < 2**31 else np.int64
    bits = np.left_shift(1, np.arange(d - 1, -1, -1, dtype=np.int64))
    basis = basis_arr.reshape(d, n, n).astype(dtype)
    signed = np.concatenate([basis, -basis])
    rowsup = basis.any(axis=2).T  # rowsup[i, c]: row i of b_c is nonzero
    live = np.flatnonzero(basis.reshape(d, -1).any(axis=1))[::-1]  # ascending keys
    keys, values = bits[live], basis[live]
    yield keys, values
    for k in range(1, t):
        if len(keys):
            layer = _grow_layer(keys, values, signed, rowsup, bits, k, p)
            if layer is None:
                return
            keys, values = layer
        yield keys, values


def _grow_layer(keys, values, signed, rowsup, bits, k: int, p: int):
    """Layer k+1 of :func:`sparse_layers` from its nonempty layer k, or None
    where one member's run, or the join of the parts, would not fit
    BATCH_BUDGET_BYTES, counted as that docstring says.  signed holds each
    basis element b_c at c and -b_c at d + c, so a term's sign picks its
    factor, and rowsup is the (n, d) bool row support of the basis, which
    clears the free places whose products are zero by support.  The work
    arrays are this call's locals, so they are freed before the pass
    yields the layer.

    The step is built in runs lo..hi of the child's smallest member s,
    from the largest s down.  A child's smallest member is its top key
    bit, so each run is a run of ascending keys, and the parts join in key
    order.  The children whose smallest member is s come from the rows
    whose smallest member is s, adding any larger free c, and from the
    rows whose members all lie above s (the rows below edges[s] in key
    order), adding s itself.  The whole step is one run when its
    candidates take at most half the bytes left, which leaves at least as
    many to the slices; otherwise each run takes members while its
    candidates, counted exactly per member, do, and a run of one member
    may take all but one child's sums.  A run's candidates are flat
    indices r * d + c of the pairs of a row r and a place c, sorted once
    by child key; its children are then summed in slices of whole
    children whose sums, and the copy of their nonzero rows, fit the
    bytes left."""
    rows, d, n = len(keys), len(bits), signed.shape[1]
    entry = n * n * signed.itemsize
    held = (rows * (entry + 8 + 3 * d) + 3 * min(rows * (d - k), SPARSE_CHUNK) * entry
            + min(rows, SPARSE_CHUNK) * (n + d))
    if held > BATCH_BUDGET_BYTES:
        return None
    member = (keys[:, None] & bits) != 0
    free = ~member
    for lo in range(0, rows, SPARSE_CHUNK):
        part = slice(lo, lo + SPARSE_CHUNK)
        free[part] &= values[part].any(axis=1) @ rowsup
    # the members of row r below c, for each c not in row r
    below = np.cumsum(member, axis=1, dtype=np.int8).ravel()
    del member
    count, per_s = np.count_nonzero(free), None
    parts, kept, hi = [], 0, d - 1
    while hi >= 0:
        room = BATCH_BUDGET_BYTES - held - kept
        if per_s is None and 2 * count * 40 <= room:
            lo, window = 0, free
        else:
            if per_s is None:
                edges = np.searchsorted(keys, bits).tolist()
                ends = [rows] + edges[:-1]  # ends[s]: the rows whose members are all >= s
                per_s = [np.count_nonzero(free[:edges[s], s])
                         + np.count_nonzero(free[edges[s]:ends[s], s + 1:]) for s in range(d)]
            lo, count = hi, per_s[hi]
            while lo and 2 * (count + per_s[lo - 1]) * 40 <= room:
                lo -= 1
                count += per_s[lo]
            # the copy takes the place of the members array, freed above
            window = free[:ends[lo]].copy()
            window[:, :lo] = False
            window[:edges[hi], hi + 1:] = False
        cand = np.flatnonzero(window)
        del window
        child = keys[cand // d] | bits[cand % d]
        order = np.argsort(child)
        cand, child = cand[order], child[order]
        del order
        first = np.ones(len(child), dtype=bool)
        np.not_equal(child[1:], child[:-1], out=first[1:])
        heads = np.append(np.flatnonzero(first), len(cand))  # each child's first candidate
        child = child[first]
        del first
        g0 = 0  # the first child of a slice
        while True:
            spare = BATCH_BUDGET_BYTES - held - kept - count * 40
            if spare < 2 * entry:
                return None
            g1 = min(len(child), g0 + spare // (2 * entry))
            stop = int(heads[g1])
            acc = np.zeros((g1 - g0, n, n), dtype=signed.dtype)
            for i in range(int(heads[g0]), stop, SPARSE_CHUNK):
                j = min(i + SPARSE_CHUNK, stop)
                part = cand[i:j]
                factor = part % d + d * term_negate(k + 1, below[part])
                prod = np.matmul(values[part // d], signed[factor])
                # the chunk's children: c, which may begin before it, and those after
                c = int(np.searchsorted(heads, i, side="right")) - 1
                starts = heads[c:np.searchsorted(heads, j)] - i
                starts[0] = 0
                acc[c - g0:c - g0 + len(starts)] += np.add.reduceat(prod, starts, axis=0)
            _reduce(acc, p)
            nonzero = acc.any(axis=(1, 2))
            parts.append((child[g0:g1][nonzero], acc[nonzero]))
            kept += len(parts[-1][0]) * (8 + entry)
            del acc
            if g1 == len(child):
                break
            g0 = g1
        del cand, child, heads
        hi = lo - 1
    if len(parts) == 1:
        return parts[0]
    if held + 2 * kept > BATCH_BUDGET_BYTES:
        return None
    return np.concatenate([c for c, _ in parts]), np.concatenate([v for _, v in parts])


def layer_combos(keys: np.ndarray, d: int, k: int) -> np.ndarray:
    """(R, k) intp array of the members, ascending, of the k-subsets that
    the keys of a :func:`sparse_layers` layer over d basis elements name."""
    bits = np.left_shift(1, np.arange(d - 1, -1, -1, dtype=np.int64))
    return np.nonzero((keys[:, None] & bits) != 0)[1].reshape(len(keys), k)


def coords_to_stack(basis_arr: np.ndarray, coords, n: int, p: int) -> np.ndarray:
    """The (t, B, n, n) stack of random linear combinations of the basis:
    coords is a (B, t, d) array of residues in [0, p), and argument k of
    item b is the sum over c of coords[b, k, c] * basis_arr[c], mod p.

    The stack holds residues in [0, p) at the product dtype of
    :func:`dp_batch` (:func:`_dp_tier`), which takes them without a cast.
    It is built one argument k at a time, each as a (B, n*n) int64 sum of
    column chunks, so besides the stack only three such arrays live.  A
    chunk of `step` = floor((2^63 - 1) / (p-1)^2) columns sums at most
    step * (p-1)^2 <= 2^63 - 1 in size, so one matmul of it cannot wrap
    int64 even where :func:`supports` holds; it is reduced to [0, p)
    (:func:`_reduce`), added to the running sum, which is below p, and the
    sum, below 2p, is reduced again.  The residues fit the product dtype:
    the int16 tier needs p < 2^15 and the int32 tier p < 2^31.
    """
    coords = np.asarray(coords)
    B, t, d = coords.shape
    step = (2**63 - 1) // (p - 1) ** 2
    out = np.empty((t, B, basis_arr.shape[1]), dtype=_dp_tier(p, n, t)[0])
    flat = np.empty((B, basis_arr.shape[1]), dtype=np.int64)
    part, scratch = np.empty_like(flat), np.empty_like(flat)
    for k in range(t):
        flat.fill(0)
        for lo in range(0, d, step):
            np.matmul(coords[:, k, lo:lo + step], basis_arr[lo:lo + step], out=part)
            flat += _reduce(part, p, scratch)
            _reduce(flat, p, scratch)
        out[k] = flat
    return out.reshape(t, B, n, n)


def combos_to_stack(basis_arr: np.ndarray, combos, n: int) -> np.ndarray:
    """The (t, B, n, n) stack of the basis combinations combos, a list of
    B increasing index t-tuples into basis_arr: one gather of its rows,
    in int64, equal in value to :func:`coords_to_stack` of the
    combinations' unit rows."""
    index = np.array(combos, dtype=np.intp).T
    return basis_arr[index].reshape(*index.shape, n, n)
