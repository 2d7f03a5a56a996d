"""Deciding polynomial identities of matrix subalgebras.

The main entry point, :func:`is_standard_identity`, decides whether the
standard polynomial s_t vanishes identically on a subalgebra.  Over a field
the exhaustive mode sweeps strictly increasing basis combinations only:
s_t is multilinear, so vanishing on basis tuples decides the identity, and
alternating, so tuples with a repeated element vanish automatically and
reorderings change nothing but sign.  Both hold over any commutative ring,
so over Z/m the same combinations of the spanning set are swept, while the
counts refer to all tuples from it.  Randomized mode evaluates seeded
random linear combinations of the basis instead.

Every s_t sweep asks one of two questions.  Which combination of basis
elements is the lex-first nonzero one (exhaustive mode and the Z/m
spanning sweep; :func:`_first_combination_hit`)?  Which coefficient rows
are nonzero (randomized mode, the block-assembly and corner-vanishing
checks; :func:`_row_hits`)?
Each picks its kernel once: numpy over GF(p) when the int64 bound of
:func:`int64_eligible` holds, and the exact pure-Python DP otherwise (QQ,
Z/m, large p), which never imports numpy.  Each numpy kernel has one
caller.  :func:`_dp_hits` evaluates stacks by :func:`fastpath.dp_batch`:
:func:`_row_hits` stacks coefficient rows, and an exhaustive sweep
(:func:`_block_hit`) gathers the basis elements of its combinations, both
one block of at most one kernel slice (:func:`fastpath.slice_items`) at
a time: a first probe block of PROBE_ITEMS items, or one slice if fewer,
where early witnesses are found, and past it one slice per block, the
row sweep's slices equal in size (:func:`_equal_slices`) and each block
of its seeded rows drawn just before it is stacked (:func:`_random_rows`).
The exhaustive sweep sends past its probe only what the sparse pass
leaves.  That pass (:func:`fastpath.sparse_layers`) decides every
combination past the probe at once: it builds s_k of the basis subsets
layer by layer from the nonzero ones alone, so layer t holds exactly the
nonzero combinations, and :func:`_layer_hit` reads its lex-first row.
Where the pass stops (over fastpath.BATCH_BUDGET_BYTES, which bounds
that pass alone, or more than fastpath.KEY_BITS basis elements) the
combinations left go on in blocks, with no second probe.  Every position a sweep reports is the
combination's lexicographic rank plus 1 (:func:`_lex_rank`).
:func:`min_standard_degree` needs no probe and makes no sweep per degree
over GF(p): one pass yields its layers one at a time, layer t decides s_t,
the least degree is the first empty layer and the unital cross-check the
layer after it (:func:`_layer_reports`).  Where that pass stops, the
remaining degrees are swept one by one as above.

Sweeps over index tuples (the two exhaustive modes and both loops of
:func:`multilinear_identity_space`) also skip tuples that are zero by the
grading of M_n by the diagonal torus, as in Swan's graph proof of
Amitsur-Levitski.  The matrix unit e_ij has weight eps_i - eps_j, a matrix
is a weight vector exactly when it is diagonal (weight 0) or has a single
off-diagonal entry, and a product of weight vectors has the sum of their
weights.  A nonzero n x n matrix of one weight has weight 0 or some
eps_a - eps_b, so when the weights of a tuple sum to anything else every
product of it, and with it every multilinear value, is zero.  A graded
span is the direct sum of its weight spaces, which live on disjoint sets
of entries, so its reduced echelon basis is the union of theirs and
consists of weight vectors; this covers every span of matrix units, such
as the block triangular and full block algebras.  When some element of the
basis or spanning set is not a weight vector the sweep evaluates every
tuple.  A tuple skipped this way is proved zero, so it counts in
`tuples_checked` and `tuples_swept` as an evaluated one would, and
witnesses stay the lex-first nonzero tuples.  The sparse pass needs no
grading: it forms no product s_k(b_A) * b_c where the columns in which
s_k(b_A) is nonzero miss the rows in which b_c is nonzero.  That test is
sound on any basis, and on a graded one it drops every pair the weights
would, since a nonzero weight vector off the diagonal has one entry.

Verdicts of "not an identity", and the staircase of a full
:func:`blocks.classify` verdict, always carry a witness tuple built by
:func:`checked_witness`: its arguments are checked to lie in the algebra
and its value is re-evaluated before being reported by the naive
permutation sum: numpy's :func:`fastpath.naive_single` up to t = 8
inside the int64 bound, and elsewhere one pure-Python walk of the
witness in its own ring, which stops past a budget of products formed
and leaves the witness to the DP (see :func:`_reverify_witness` for the
cases and what each re-check shares with the sweep).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb, factorial, perm
from typing import Optional, Sequence

from .constructions import SpanningSetAlgebra, repetition_units
from .errors import (
    ContractViolationError,
    DegreeGuardError,
    DimensionError,
    RingMismatchError,
    UnsupportedRingError,
)
from .matrices import Echelon, Matrix, matrix_unit
from .rings import Ring
from .standardpoly import (
    NAIVE_MAX_DEGREE,
    _eval_standard_naive_py,
    eval_standard_dp,
    eval_standard_naive,
    int64_eligible,
    signed_permutations,
    word_products,
)
from .subalgebra import SubalgebraBasis, _linear_combination, close_generators

QQ_RANDOM_BOUND = 100
SPANNING_SWEEP_LIMIT = 5_000_000
IDENTITY_SPACE_MAX_DEGREE = 6
# tuples in the numpy sweeps' first, probe block, at most one slice: a DP's
# cost grows with its batch, so an early witness costs one small DP
PROBE_ITEMS = 64
# products the witness re-check's naive walk may form (_reverify_witness)
WALK_BUDGET = 2**15

PRUNING_NOTE = (
    "exhaustive over strictly increasing basis combinations: s_t is "
    "multilinear (basis tuples decide) and alternating (repeats vanish, "
    "reorderings only flip sign)"
)
VACUOUS_NOTE = (
    "degree exceeds the dimension: every t-tuple is linearly dependent and "
    "alternating multilinear polynomials vanish on dependent tuples"
)
SPANNING_NOTE = (
    "coefficient ring has zero divisors: exhaustive over strictly increasing "
    "spanning-set combinations (s_t is alternating over any commutative ring); "
    "counts refer to all dim^t tuples"
)
RANDOM_NOTE = (
    "randomized sweep; identity verdicts are heuristic (no counterexample "
    "found), non-identity verdicts are certain"
)


def format_matrix(x: Matrix) -> list:
    ring = x.ring
    return [[ring.format(x[i, j]) for j in range(x.cols)] for i in range(x.rows)]


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


@dataclass
class IdentityReport:
    algebra: str
    ring: str
    n: int
    dim: int
    degree: int
    mode: str
    is_identity: bool
    probabilistic: bool
    witness: Optional[Witness]
    tuples_checked: int
    tuple_space: int
    trials: Optional[int]
    seed: Optional[int]
    note: str
    elapsed_ms: float

    @property
    def verdict(self) -> str:
        return "identity" if self.is_identity else "not-identity"

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "algebra": self.algebra,
            "ring": self.ring,
            "n": self.n,
            "dim": self.dim,
            "degree": self.degree,
            "mode": self.mode,
            "verdict": self.verdict,
            "probabilistic": self.probabilistic,
            "witness": self.witness.to_dict() if self.witness else None,
            "tuples_checked": self.tuples_checked,
            "tuple_space": self.tuple_space,
            "trials": self.trials,
            "seed": self.seed,
            "note": self.note,
        }
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


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


def _random_coords(ring: Ring, d: int, rng: random.Random) -> list:
    if ring.kind == "prime_field":
        return [rng.randrange(ring.p) for _ in range(d)]
    return [rng.randint(-QQ_RANDOM_BOUND, QQ_RANDOM_BOUND) for _ in range(d)]


def _torus_weights(a, t: int) -> Optional[list]:
    """Torus weight of each element of a.mats packed into one int, or None.

    e_ij has weight eps_i - eps_j, packed as B**i - B**j with B = 2t + 1;
    diagonal elements weigh 0.  A sum of at most t weights has coordinates
    in [-t, t], which base B represents injectively.  Returns None unless
    every element is homogeneous: diagonal, or a single off-diagonal entry.
    """
    base, n, zero = 2 * t + 1, a.n, a.ring.zero
    weights = []
    for x in a.mats:
        support = [divmod(k, n) for k, v in enumerate(x.data) if v != zero]
        if all(i == j for i, j in support):
            weights.append(0)
        elif len(support) == 1:
            (i, j), = support
            weights.append(base**i - base**j)
        else:
            return None
    return weights


def _weight_feasible(a, t: int):
    """Predicate on index t-tuples into a.mats that is False only where
    every product of the tuple is zero by weight: where the packed torus
    weights (:func:`_torus_weights`) do not sum to that of a nonzero n x n
    weight vector, 0 or some eps_i - eps_j; None for ungraded a."""
    weights = _torus_weights(a, t)
    if weights is None:
        return None
    base = 2 * t + 1
    targets = frozenset(base**i - base**j for i in range(a.n) for j in range(a.n))
    return lambda tup: sum(map(weights.__getitem__, tup)) in targets


def _lex_rank(combo, d: int) -> int:
    """Rank from 0 of the increasing tuple combo in the lexicographic order
    of combinations(range(d), len(combo)).  The tuples before it that first
    differ at position i hold some prev < v < combo[i] there and then any
    larger indices: C(d-1-prev, t-i) - C(d-combo[i], t-i) of them."""
    t, rank, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        rank += comb(d - 1 - prev, t - i) - comb(d - c, t - i)
        prev = c
    return rank


def checked_witness(a, combo, mats, value) -> Witness:
    """The witness of a nonzero value of s_t on mats, whose arguments are
    checked to lie in the algebra and whose value is re-verified first;
    combo is the 0-based combination of a.mats that mats is, or None.
    Every sweep witness and :func:`blocks.classify`'s staircase come here."""
    if not all(a.contains(x) for x in mats):
        raise ContractViolationError("witness argument lies outside the algebra")
    _reverify_witness(mats, value)
    return Witness(None if combo is None else tuple(i + 1 for i in combo), mats, value)


def _first_combination_hit(a, t: int):
    """(pos, witness) of the lexicographically first t-combination of
    a.mats on which s_t is nonzero, or None if all vanish; pos is its
    lexicographic rank plus 1 (:func:`_lex_rank`), counted among
    combinations(range(a.dim), t).

    Combinations zero by weight are skipped unevaluated.  Inside the int64
    bound of :func:`int64_eligible` the combinations are evaluated in
    blocks of at most one :func:`fastpath.dp_batch` slice
    (:func:`fastpath.slice_items`) by :func:`_block_hit`, first a probe
    block of PROBE_ITEMS of them, or one slice if fewer.  Past a full
    probe, layer t of the sparse pass :func:`fastpath.sparse_layers`
    decides the rest (:func:`_layer_hit`).  The probe found every
    combination in it zero, so a layer whose first row is not past it
    contradicts the probe and raises.  Where the pass stops, the
    combinations left go on in blocks of one slice, with no second probe.
    Outside the bound each combination is its own :func:`eval_standard_dp`.
    """
    d = a.dim
    combos = combinations(range(d), t)
    feasible = _weight_feasible(a, t)
    if feasible is not None:
        combos = filter(feasible, combos)
    if not int64_eligible(a.ring, a.n, t):
        for combo in combos:
            mats = tuple(a.mats[i] for i in combo)
            value = eval_standard_dp(list(mats))
            if not value.is_zero():
                return _lex_rank(combo, d) + 1, checked_witness(a, combo, mats, value)
        return None
    from . import fastpath

    basis_arr = fastpath.basis_to_flat(a.mats)
    size = fastpath.slice_items(t, a.n, a.ring.p)
    first = min(PROBE_ITEMS, size)
    probe = list(islice(combos, first))
    hit = _block_hit(a, basis_arr, probe)
    if hit is not None or len(probe) < first:
        return hit
    layer = next(islice(fastpath.sparse_layers(basis_arr, a.n, a.ring.p, t), t - 1, None), None)
    if layer is not None:
        hit = _layer_hit(a, t, layer)
        if hit is not None and hit[0] <= _lex_rank(probe[-1], d) + 1:
            raise ContractViolationError(
                f"the sparse pass finds s_{t} nonzero at combination {hit[0]}, "
                f"which the probe found zero"
            )
        return hit
    while block := list(islice(combos, size)):
        hit = _block_hit(a, basis_arr, block)
        if hit is not None:
            return hit
    return None


def _block_hit(a, basis_arr, block):
    """(pos, witness) of the first combination in block, a list of
    t-combinations of a.mats in lexicographic order, on which s_t is
    nonzero, or None.  The block's stack is a gather of the basis rows
    basis_arr (:func:`fastpath.combos_to_stack`), evaluated by
    :func:`_dp_hits`; pos is as in :func:`_first_combination_hit`."""
    from . import fastpath

    if not block:
        return None
    stack = fastpath.combos_to_stack(basis_arr, block, a.n)
    for b, mats, value in _dp_hits(a.ring, stack):
        combo = block[b]
        return _lex_rank(combo, a.dim) + 1, checked_witness(a, combo, mats, value)
    return None


def _dp_hits(ring, stack):
    """Yield (b, mats, value) for every item b (from 0) of the (t, B, n, n)
    residue stack on which s_t is nonzero: mats are its arguments and value
    is s_t, as matrices over the prime field ring.  The one caller of
    :func:`fastpath.dp_batch`."""
    from . import fastpath

    values = fastpath.dp_batch(stack, ring.p)
    for b in values.reshape(len(values), -1).any(axis=1).nonzero()[0].tolist():
        mats = tuple(fastpath.array_to_matrix(ring, x) for x in stack[:, b])
        yield b, mats, fastpath.array_to_matrix(ring, values[b])


def _row_hits(a, t: int, trials: int, draw):
    """Yield (pos, witness) for every one of `trials` coefficient rows,
    counted from 1, on which s_t is nonzero.  Each row is a t x dim array
    of coefficients in a.mats of the t arguments, and draw(k) returns the
    next k rows (:func:`_random_rows`).  Inside the int64 bound of
    :func:`int64_eligible` the rows are evaluated by :func:`_dp_hits` in
    blocks of at most one :func:`fastpath.dp_batch` slice
    (:func:`fastpath.slice_items`): a probe block of PROBE_ITEMS, or one
    slice if fewer, and then the rest in equal slices of at most that
    many (:func:`_equal_slices`), each drawn as a (k, t, dim) array and
    stacked by :func:`fastpath.coords_to_stack` just before it is
    evaluated, so that no array of the sweep holds more than one slice
    and its peak is bounded by a full slice, not by the trials: the s_10
    sweep of `verify-al --n 5` (M_5) evaluates 64, 968 and 968 rows at
    2,000 trials and traces 14.2 MiB, and 64 rows and 31 slices of 1,288
    or 1,289 at 40,000 trials, 18.9 MiB.  Otherwise the rows are drawn and
    evaluated one by one by :func:`eval_standard_dp`."""
    ring, n = a.ring, a.n
    if not int64_eligible(ring, n, t):
        for pos in range(1, trials + 1):
            mats = tuple(_linear_combination(a, coords) for coords in draw(1)[0])
            value = eval_standard_dp(list(mats))
            if not value.is_zero():
                yield pos, checked_witness(a, None, mats, value)
        return
    if not trials:
        return
    from . import fastpath

    p = ring.p
    basis_arr = fastpath.basis_to_flat(a.mats)
    most = fastpath.slice_items(t, n, p)
    probe = min(trials, PROBE_ITEMS, most)
    lo = 0
    for size in [probe, *_equal_slices(trials - probe, most)]:
        stack = fastpath.coords_to_stack(basis_arr, draw(size), n, p)
        for b, mats, value in _dp_hits(ring, stack):
            yield lo + b + 1, checked_witness(a, None, mats, value)
        del stack
        lo += size


def _equal_slices(items: int, most: int) -> list:
    """Sizes of the fewest slices of `items` items with at most `most`
    each, equal to within one, the larger first: 1,936 items at most
    1,331 make 968 + 968, not 1,331 + 605."""
    count = -(-items // most)
    size, extra = divmod(items, max(count, 1))
    return [size + 1] * extra + [size] * (count - extra)


def _layer_hit(a, t: int, layer):
    """(pos, witness) of the lexicographically first t-combination of
    a.mats on which s_t is nonzero, read from layer t of a sparse pass, or
    None when the layer is empty.  That combination is the layer's largest
    key, its position is its lexicographic rank plus 1 (:func:`_lex_rank`),
    and its witness is checked as a sweep's is (:func:`checked_witness`)."""
    from . import fastpath

    keys, values = layer
    if not len(keys):
        return None
    combo = tuple(fastpath.layer_combos(keys[-1:], a.dim, t)[0].tolist())
    witness = checked_witness(a, combo, tuple(a.mats[i] for i in combo),
                              fastpath.array_to_matrix(a.ring, values[-1]))
    return _lex_rank(combo, a.dim) + 1, witness


def _random_rows(a: SubalgebraBasis, t: int, seed: int):
    """The seeded stream of t x dim coefficient rows of random elements of
    a, as a function draw(k) that returns the next k rows.

    The numpy kernel (:func:`fastpath.dp_batch`, taken when
    :func:`int64_eligible` holds) draws (k, t, dim) int64 arrays from
    numpy's generator, and the exact kernel lists of rows from
    random.Random: the streams that seeded randomized-mode reports have
    always been computed from.  Drawing the rows in blocks gives the very
    rows of one rng.integers(0, p, (trials, t, dim), int64) draw, whatever
    the block sizes: the generator keeps what it has not yet used of a
    64-bit word between calls.  So a sweep holds the int64 rows of one
    block at a time, 2 MB for a 968-row s_10 slice on M_5, not
    trials * t * dim * 8 bytes.
    """
    ring = a.ring
    if int64_eligible(ring, a.n, t):
        import numpy as np

        rng = np.random.default_rng(seed)
        return lambda k: rng.integers(0, ring.p, size=(k, t, a.dim), dtype=np.int64)
    rng = random.Random(seed)
    return lambda k: [[_random_coords(ring, a.dim, rng) for _ in range(t)] for _ in range(k)]


def _report(a, t: int, mode: str, started: float, checked: int, witness,
            space: int, note: str, trials=None, seed=None,
            probabilistic: bool = False) -> IdentityReport:
    return IdentityReport(
        algebra=a.label, ring=a.ring.name, n=a.n, dim=a.dim, degree=t, mode=mode,
        is_identity=witness is None, probabilistic=probabilistic, witness=witness,
        tuples_checked=checked, tuple_space=space, trials=trials, seed=seed,
        note=note, elapsed_ms=(time.perf_counter() - started) * 1e3,
    )


def is_standard_identity(a, t: int, mode: str = "exhaustive", trials: int = 2000,
                         seed: int = 0) -> IdentityReport:
    """Decide whether s_t is a polynomial identity of the subalgebra.

    Exhaustive mode is a proof either way over a field (combination sweep;
    see module docstring) and over Z/m spanning-set descriptors (combination
    sweep of the spanning set).  Randomized mode draws `trials` seeded tuples of random algebra
    elements; its identity verdicts are heuristic and flagged probabilistic.
    Any witness is re-verified with a second evaluator before reporting.
    """
    started = time.perf_counter()
    if t < 2:
        raise DegreeGuardError(f"identity testing starts at degree 2, got {t}")
    if isinstance(a, SpanningSetAlgebra):
        if mode != "exhaustive":
            raise UnsupportedRingError(
                f"randomized mode needs a field; {a.ring.name} descriptors are exhaustive-only"
            )
        total = a.dim**t
        combos = comb(a.dim, t)
        if combos > SPANNING_SWEEP_LIMIT:
            raise DegreeGuardError(
                f"spanning sweep of {combos} combinations exceeds the {SPANNING_SWEEP_LIMIT} guard"
            )
        hit = _first_combination_hit(a, t)
        if hit is None:
            return _report(a, t, "exhaustive", started, total, None, total, SPANNING_NOTE)
        witness = hit[1]
        # the lex-first nonzero one of all dim^t tuples is this increasing
        # one; count the tuples a sweep over all of them would have checked
        checked = 1 + sum((i - 1) * a.dim ** (t - k) for k, i in enumerate(witness.indices, 1))
        return _report(a, t, "exhaustive", started, checked, witness, total, SPANNING_NOTE)
    if not isinstance(a, SubalgebraBasis):
        raise DimensionError(f"cannot test identities of {type(a).__name__}")
    if not a.ring.is_field:
        raise UnsupportedRingError(
            f"exhaustive basis sweep needs a field; over {a.ring.name} use a "
            f"spanning-set descriptor"
        )
    if mode == "exhaustive":
        total = comb(a.dim, t)
        if t > a.dim:
            return _report(a, t, mode, started, 0, None, total, VACUOUS_NOTE)
        checked, witness = _first_combination_hit(a, t) or (total, None)
        return _report(a, t, mode, started, checked, witness, total, PRUNING_NOTE)
    if mode == "randomized":
        if trials < 1:
            raise DimensionError(f"need trials >= 1, got {trials}")
        if a.dim == 0:
            return _report(a, t, mode, started, 0, None, trials, VACUOUS_NOTE, trials, seed)
        hit = next(_row_hits(a, t, trials, _random_rows(a, t, seed)), None)
        checked, witness = hit or (trials, None)
        return _report(a, t, mode, started, checked, witness, trials, RANDOM_NOTE,
                       trials, seed, probabilistic=witness is None)
    raise DimensionError(f"unknown mode {mode!r}")


@dataclass
class MinDegreeResult:
    algebra: str
    degree: Optional[int]
    reports: tuple
    cross_check: Optional[IdentityReport]

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "algebra": self.algebra,
            "min_standard_degree": self.degree,
            "reports": [r.to_dict(include_timing) for r in self.reports],
            "odd_cross_check": self.cross_check.to_dict(include_timing) if self.cross_check else None,
        }


def _layer_reports(a, t_last: int):
    """Exhaustive reports of s_t for t = 2, 3, ..., t_last, read one layer
    at a time from one sparse pass (:func:`fastpath.sparse_layers`) whose
    dtype is sized for t_last.

    Yields nothing unless a is a nonzero basis inside the int64 bound of
    :func:`int64_eligible` at t_last, and stops at the degree where the
    pass stops (its byte budget, or more than fastpath.KEY_BITS basis
    elements).  Each report is the one :func:`is_standard_identity` makes:
    an empty layer t is an identity with all C(d, t) combinations
    checked, a degree past the dimension is vacuous with none checked, and
    otherwise the witness and its position are the layer's first row
    (:func:`_layer_hit`).  A report's elapsed_ms is the time of its layer.
    """
    if not (isinstance(a, SubalgebraBasis) and a.dim and int64_eligible(a.ring, a.n, t_last)):
        return
    from . import fastpath

    layers = islice(fastpath.sparse_layers(fastpath.basis_to_flat(a.mats), a.n, a.ring.p,
                                           t_last), 1, None)
    for t in range(2, t_last + 1):
        started = time.perf_counter()
        total = comb(a.dim, t)
        if t > a.dim:
            yield _report(a, t, "exhaustive", started, 0, None, total, VACUOUS_NOTE)
            continue
        layer = next(layers, None)
        if layer is None:
            return
        checked, witness = _layer_hit(a, t, layer) or (total, None)
        yield _report(a, t, "exhaustive", started, checked, witness, total, PRUNING_NOTE)


def min_standard_degree(a, t_max: Optional[int] = None) -> MinDegreeResult:
    """Smallest degree t <= t_max with s_t an identity, sweeping t = 2, 3, ...

    Both parities are tested rather than assuming the unital even/odd
    reduction, because non-unital algebras are first-class inputs here.
    When the minimum lands on an even degree and the algebra is unital, the
    odd cross-check at t+1 runs as well and a failure of the unital
    reduction is treated as an internal contradiction.

    Over GF(p) inside the int64 bound at t_max + 1, every degree, the
    cross-check included, is read from one sparse layer pass
    (:func:`_layer_reports`): layer t decides s_t, so the degree found is
    the first empty layer and its cross-check the layer after it.  Where
    that pass stops, and over QQ, Z/m or a large p, each remaining degree
    is its own exhaustive :func:`is_standard_identity` sweep.  The reports
    are the same either way.
    """
    if t_max is None:
        t_max = 2 * a.n
    if t_max < 2:
        raise DegreeGuardError(f"need t_max >= 2, got {t_max}")
    layered = _layer_reports(a, t_max + 1)

    def decide(t: int) -> IdentityReport:
        return next(layered, None) or is_standard_identity(a, t, mode="exhaustive")

    reports = []
    found = None
    for t in range(2, t_max + 1):
        rep = decide(t)
        reports.append(rep)
        if rep.is_identity:
            found = t
            break
    cross = None
    if (
        found is not None
        and found % 2 == 0
        and isinstance(a, SubalgebraBasis)
        and a.is_unital()
    ):
        cross = decide(found + 1)
        if not cross.is_identity:
            raise ContractViolationError(
                f"s_{found} is an identity of unital {a.label} but s_{found + 1} is not; "
                f"the even/odd reduction is violated"
            )
    return MinDegreeResult(a.label, found, tuple(reports), cross)


# -- full multilinear identity space ----------------------------------------

@dataclass
class IdentitySpace:
    """Canonical basis of all degree-t multilinear identities of an algebra.

    Coefficient vectors are indexed by lexicographic permutation rank; the
    standard polynomial corresponds to the vector of permutation signs.
    """

    algebra: str
    ring: str
    degree: int
    dimension: int
    basis: tuple
    tuples_swept: int
    verified: bool
    sweep_ms: float
    recheck_ms: float

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "algebra": self.algebra,
            "ring": self.ring,
            "degree": self.degree,
            "dimension": self.dimension,
            "basis": [[str(c) for c in vec] for vec in self.basis],
            "tuples_swept": self.tuples_swept,
            "verified": self.verified,
        }
        if include_timing:
            out["elapsed_ms"] = {"sweep": round(self.sweep_ms, 3),
                                 "recheck": round(self.recheck_ms, 3)}
        return out


def multilinear_identity_space(a: SubalgebraBasis, t: int) -> IdentitySpace:
    """Nullspace of the evaluation map on all multilinear degree-t polynomials.

    Builds the matrix with one column per permutation monomial and one row
    per (basis tuple, matrix entry) pair; alternation pruning does not apply
    to general multilinear polynomials, so all dim^t tuples contribute,
    except that tuples zero by weight would give only zero rows and are
    skipped (they still count as swept).  Rows feed an incremental echelon
    and the sweep stops as soon as the rank hits t! (zero space).

    A word's product depends only on its sequence of basis indices, so the
    sweep's walks share one :func:`word_products` memo keyed by those
    sequences, and each distinct basis word is formed once per call, not
    once per (tuple, word).  The memo holds at most sum over k <= t of
    dim^k entries, fewer where zero prefixes prune, and is dropped when the
    call returns.  Each kernel vector is then re-checked against every
    tuple by fresh walks without the memo: a wrongly keyed memo would give
    the sweep wrong rows, and the fresh walk would reject the kernel.
    """
    if not 1 <= t <= IDENTITY_SPACE_MAX_DEGREE:
        raise DegreeGuardError(
            f"identity space guarded to 1 <= t <= {IDENTITY_SPACE_MAX_DEGREE}, got {t}"
        )
    if not isinstance(a, SubalgebraBasis) or not a.ring.is_field:
        raise UnsupportedRingError("identity space needs a field-backed basis")
    started = time.perf_counter()
    ring, n, d = a.ring, a.n, a.dim
    fact = factorial(t)
    zero = ring.zero
    sieve = Echelon(ring, fact)
    flats = [m.data for m in a.mats]
    feasible = _weight_feasible(a, t) or (lambda tup: True)
    memo = {}
    swept = 0
    for tup in product(range(d), repeat=t):
        swept += 1
        if not feasible(tup):
            continue
        rows = [[zero] * fact for _ in range(n * n)]
        for r, _, prod in word_products([flats[i] for i in tup], n, ring, memo=memo, keys=tup):
            for e, v in enumerate(prod):
                rows[e][r] = v
        for row in rows:
            sieve.insert(row)
        if sieve.rank == fact:
            break
    kernel = sieve.nullspace_basis()
    swept_at = time.perf_counter()
    if kernel:
        for tup in filter(feasible, product(range(d), repeat=t)):
            prods = list(word_products([flats[i] for i in tup], n, ring))
            for vec in kernel:
                acc = [zero] * (n * n)
                for r, _, prod in prods:
                    c = vec[r]
                    if c != zero:
                        for e, v in enumerate(prod):
                            acc[e] += c * v
                if any(ring.canon(v) != zero for v in acc):
                    raise ContractViolationError(
                        "identity-space vector failed re-verification"
                    )
    return IdentitySpace(
        algebra=a.label, ring=ring.name, degree=t, dimension=fact - sieve.rank,
        basis=tuple(kernel), tuples_swept=swept, verified=bool(kernel),
        sweep_ms=(swept_at - started) * 1e3,
        recheck_ms=(time.perf_counter() - swept_at) * 1e3,
    )


def standard_sign_vector(ring: Ring, t: int) -> tuple:
    """Coefficient vector of s_t in the lexicographic-rank indexing."""
    return tuple(ring.canon(sign) for _, sign in signed_permutations(t))


# -- block assembly property (two triangular blocks) -------------------------

@dataclass
class BlockAssemblyReport:
    top: str
    bottom: str
    ring: str
    degree_top: int
    degree_bottom: int
    trials: int
    seed: int
    status: str  # ok | violation | invalid-instance
    violations: int
    first_violation: Optional[Witness]
    note: str
    elapsed_ms: float

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "top": self.top,
            "bottom": self.bottom,
            "ring": self.ring,
            "degree_top": self.degree_top,
            "degree_bottom": self.degree_bottom,
            "degree_total": self.degree_top + self.degree_bottom,
            "trials": self.trials,
            "seed": self.seed,
            "status": self.status,
            "violations": self.violations,
            "first_violation": self.first_violation.to_dict() if self.first_violation else None,
            "note": self.note,
        }
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def _embed(x: Matrix, n: int, offset: int) -> Matrix:
    """x placed as the diagonal block at (offset, offset) of an n x n zero."""
    k = x.rows
    data = [x.ring.zero] * (n * n)
    for i in range(k):
        start = (offset + i) * n + offset
        data[start : start + k] = x.data[i * k : (i + 1) * k]
    return Matrix._new(x.ring, n, n, data)


def block_assembly_check(a_top: SubalgebraBasis, a_bot: SubalgebraBasis,
                         q: int, r: int, trials: int = 500, seed: int = 0) -> BlockAssemblyReport:
    """Random-assembly test that two stacked identities compose.

    If the top factor (in M_l) satisfies s_q and the bottom factor (in M_m)
    satisfies s_r, then every 2x2-block upper triangular assembly with
    diagonal parts from the factors and arbitrary l x m coupling satisfies
    s_{q+r}.  The check first verifies both factor identities exhaustively
    (failures are reported as invalid-instance, not violations), then
    evaluates s_{q+r} on `trials` seeded random assemblies.
    """
    started = time.perf_counter()
    if trials < 0:
        raise DimensionError(f"need trials >= 0, got {trials}")
    if a_top.ring != a_bot.ring:
        raise RingMismatchError(f"{a_top.ring} vs {a_bot.ring}")
    ring = a_top.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"assembly check needs a field, not {ring.name}")
    l, m = a_top.n, a_bot.n
    common = dict(
        top=a_top.label, bottom=a_bot.label, ring=ring.name,
        degree_top=q, degree_bottom=r, trials=trials, seed=seed,
    )
    if not (2 <= q <= 2 * l and 2 <= r <= 2 * m):
        return BlockAssemblyReport(
            status="invalid-instance", violations=0, first_violation=None,
            note=(f"degrees out of range: need 2 <= q <= 2l and 2 <= r <= 2m, "
                  f"got q={q} (l={l}), r={r} (m={m})"),
            elapsed_ms=(time.perf_counter() - started) * 1e3, **common,
        )
    for label, alg, deg in (("top", a_top, q), ("bottom", a_bot, r)):
        pre = is_standard_identity(alg, deg)
        if not pre.is_identity:
            return BlockAssemblyReport(
                status="invalid-instance", violations=0, first_violation=None,
                note=f"{label} factor does not satisfy s_{deg}; nothing to test",
                elapsed_ms=(time.perf_counter() - started) * 1e3, **common,
            )
    n = l + m
    parts = [_embed(x, n, 0) for x in a_top.mats] + [_embed(y, n, l) for y in a_bot.mats]
    parts += [matrix_unit(ring, n, i, l + j) for i in range(1, l + 1) for j in range(1, m + 1)]
    span = SubalgebraBasis(ring, n, parts, label=f"{a_top.label}+{a_bot.label}")
    violations = 0
    first: Optional[Witness] = None
    for _, witness in _row_hits(span, q + r, trials, _random_rows(span, q + r, seed)):
        violations += 1
        first = first or witness
    return BlockAssemblyReport(
        status="ok" if violations == 0 else "violation",
        violations=violations, first_violation=first,
        note="diagonal parts drawn from the factors, coupling block arbitrary",
        elapsed_ms=(time.perf_counter() - started) * 1e3, **common,
    )


# -- upper-right corner vanishing ---------------------------------------------

@dataclass
class CornerVanishingReport:
    ring: str
    l: int
    m: int
    degree: int
    trials: int
    seed: int
    status: str
    violations: int
    note: str
    elapsed_ms: float

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "ring": self.ring, "l": self.l, "m": self.m, "degree": self.degree,
            "trials": self.trials, "seed": self.seed, "status": self.status,
            "violations": self.violations, "note": self.note,
        }
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def ur_vanishing_check(ring: Ring, l: int, m: int, trials: int = 200, seed: int = 0) -> CornerVanishingReport:
    """Upper-right corner of s_{2(l+m)} vanishes on zero-corner tuples.

    Samples random matrices of the tied-corner shape [[a, b, 0], [0, e, d],
    [0, 0, a]] (the repeated-block form with the upper-right l x l corner
    pinned to zero), evaluates the degree 2(l+m) standard polynomial, and
    asserts the upper-right corner of the value is zero.  Only corner
    violations are counted; the rest of the value is not checked.
    """
    started = time.perf_counter()
    if trials < 0:
        raise DimensionError(f"need trials >= 0, got {trials}")
    if not ring.is_field:
        raise UnsupportedRingError(f"corner check needs a field, not {ring.name}")
    units = repetition_units(ring, l, m, include_corner=False)
    span = SubalgebraBasis(ring, 2 * l + m, units, label=f"RepZeroCorner({l},{m})")
    # pinning the corner to zero is not multiplicatively closed; the span is
    # only a sampling domain here, so SubalgebraBasis is used as a plain span
    t = 2 * (l + m)
    n = 2 * l + m
    corner = [i * n + j for i in range(l) for j in range(l + m, n)]
    violations = sum(1 for _, w in _row_hits(span, t, trials, _random_rows(span, t, seed))
                     if any(w.value.data[e] != ring.zero for e in corner))
    return CornerVanishingReport(
        ring=ring.name, l=l, m=m, degree=t, trials=trials, seed=seed,
        status="ok" if violations == 0 else "violation", violations=violations,
        note="tied-corner form with zero upper-right block; only the corner of the value must vanish",
        elapsed_ms=(time.perf_counter() - started) * 1e3,
    )


# -- corpus helpers -----------------------------------------------------------

def random_triangular_closures(ring: Ring, n: int, count: int, seed: int = 0,
                               proper: bool = False,
                               include_identity: bool = False) -> list:
    """Seeded random generator-closures inside the upper triangular matrices.

    Each algebra is the closure of 1..3 random sparse upper triangular
    generators.  With proper=True only closures strictly smaller than the
    full upper triangular algebra are kept (resampling as needed).  With
    include_identity=True the identity matrix is adjoined before closing,
    so every diagonal coordinate of the closure is full; classification
    of such unital closures is exact, while closures with an identically
    zero diagonal coordinate sit outside the simple-block framework the
    classifier reasons in (see README on unitality).
    """
    if not ring.is_field:
        raise UnsupportedRingError(f"closures need a field, not {ring.name}")
    rng = random.Random(seed)
    full_dim = n * (n + 1) // 2
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count:
            raise ContractViolationError("random closure sampling failed to converge")
        gens = []
        for _ in range(rng.randint(1, 3)):
            data = [ring.zero] * (n * n)
            for row in range(n):
                for col in range(row, n):
                    if rng.random() < 0.5:
                        if ring.kind == "prime_field":
                            data[row * n + col] = rng.randrange(ring.p)
                        else:
                            data[row * n + col] = rng.randint(-3, 3)
            gens.append(Matrix(ring, n, n, data))
        if all(g.is_zero() for g in gens):
            continue
        alg = close_generators(gens, include_identity=include_identity,
                               label=f"rand{seed}[{len(out)}]<=U_{n}")
        if proper and alg.dim >= full_dim:
            continue
        out.append(alg)
    return out
