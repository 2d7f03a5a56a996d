"""Vectorized prime-field kernels for batched standard-polynomial sweeps.

Everything here is an int64 numpy re-implementation of the exact evaluators
in :mod:`standardpoly`, valid only when the overflow bound holds:
accumulating t products of reduced n x n matrices keeps every intermediate
below t * n * (p-1)^2, which must stay inside int64.  Callers must check
:func:`supports` first; the pure-Python paths remain the reference and the
fallback.  Results agree entrywise with the exact evaluators (the test suite
cross-checks both directions).
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from .errors import DegreeGuardError
from .matrices import Matrix
from .rings import PrimeField

INT64_BUDGET = 2**62


def supports(p: int, n: int, t: int) -> bool:
    """True when the layered accumulation cannot overflow int64."""
    return t >= 1 and t * n * (p - 1) ** 2 < INT64_BUDGET


def mats_to_array(mats) -> np.ndarray:
    """Stack matrices into a (t, n, n) int64 array of residues."""
    t = len(mats)
    n = mats[0].rows
    arr = np.empty((t, n, n), dtype=np.int64)
    for k, a in enumerate(mats):
        arr[k] = np.array(a.data, dtype=np.int64).reshape(n, n)
    return arr


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
    """Evaluate s_t on a batch of argument tuples by the subset DP.

    stack has shape (t, B, n, n): argument k of batch item b is
    stack[k, b].  Returns (B, n, n) residues mod p.  Layers are kept two
    at a time, keyed by subset bitmask, so peak memory is
    O(C(t, t/2) * B * n^2).
    """
    t, B, n, _ = stack.shape
    if not supports(p, n, t):
        raise DegreeGuardError(f"int64 budget exceeded for p={p}, n={n}, t={t}")
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), (B, n, n))
    prev = {0: eye}
    for k in range(1, t + 1):
        cur = {}
        for comb_idx in combinations(range(t), k):
            mask = 0
            for i in comb_idx:
                mask |= 1 << i
            acc = None
            for pos, i in enumerate(comb_idx):
                g = prev[mask ^ (1 << i)]
                term = np.matmul(g, stack[i])
                if (k - 1 - pos) & 1:
                    term = -term
                if acc is None:
                    acc = term
                else:
                    acc += term
            acc %= p
            cur[mask] = acc
        prev = cur
    return prev[(1 << t) - 1]


def naive_single(arr: np.ndarray, p: int) -> np.ndarray:
    """Evaluate s_t on one argument tuple by summing all t! products.

    arr has shape (t, n, n).  The t! permutation words are materialized as
    one index array; products are chained with batched matmul and reduced
    mod p after every step, and the signed sum fits int64 because
    t! * (p-1) does for t <= 8.
    """
    t, n, _ = arr.shape
    if t > 8:
        raise DegreeGuardError(f"naive kernel guarded to degree 8, got {t}")
    if not supports(p, n, t) or factorial(t) * (p - 1) >= INT64_BUDGET:
        raise DegreeGuardError(f"int64 budget exceeded for p={p}, n={n}, t={t}")
    words = np.array(list(permutations(range(t))), dtype=np.int64)
    # sign by inversion count
    inv = np.zeros(len(words), dtype=np.int64)
    for i in range(t):
        for j in range(i + 1, t):
            inv += words[:, i] > words[:, j]
    signs = np.where(inv & 1, -1, 1).astype(np.int64)
    prod = arr[words[:, 0]]
    for k in range(1, t):
        prod = np.matmul(prod, arr[words[:, k]])
        prod %= p
    total = (signs[:, None, None] * prod).sum(axis=0)
    return total % p


def dp_to_matrix(mats) -> Matrix:
    ring = mats[0].ring
    stack = mats_to_array(mats)[:, None, :, :]
    out = dp_batch(stack, ring.p)[0]
    return array_to_matrix(ring, out)


def naive_to_matrix(mats) -> Matrix:
    ring = mats[0].ring
    return array_to_matrix(ring, naive_single(mats_to_array(mats), ring.p))


def combos_to_stack(basis_arr: np.ndarray, combo_block, n: int) -> np.ndarray:
    """Gather a (t, B, n, n) stack from basis indices.

    basis_arr is (d, n*n); combo_block is a (B, t) integer array of basis
    indices (one tuple per row).
    """
    block = np.asarray(combo_block, dtype=np.int64)
    B, t = block.shape
    gathered = basis_arr[block]            # (B, t, n*n)
    stack = gathered.reshape(B, t, n, n).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(stack)


def coords_to_stack(basis_arr: np.ndarray, coords, n: int, p: int) -> np.ndarray:
    """Random-linear-combination stack: coords is (B, t, d) residues.

    A single matmul would sum d products of size up to (p-1)^2, which can
    wrap int64 even where :func:`supports` holds, so the combination is
    summed over column chunks short enough that each partial sum stays
    below 2^63.
    """
    coords = np.asarray(coords, dtype=np.int64)
    B, t, d = coords.shape
    step = (2**63 - 1) // (p - 1) ** 2
    flat = np.zeros((B, t, basis_arr.shape[1]), dtype=np.int64)
    for lo in range(0, d, step):
        flat += coords[..., lo : lo + step] @ basis_arr[lo : lo + step] % p
        flat %= p
    return np.ascontiguousarray(flat.reshape(B, t, n, n).transpose(1, 0, 2, 3))


def suggested_batch(t: int, n: int, budget_bytes: int = 256 * 2**20) -> int:
    """Batch size keeping two DP layers inside the memory budget."""
    per_item = 2 * comb(t, t // 2) * n * n * 8
    return max(1, min(4096, budget_bytes // max(per_item, 1)))
