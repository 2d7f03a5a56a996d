"""Deciding polynomial identities of matrix subalgebras.

The main entry point, :func:`is_standard_identity`, decides whether the
standard polynomial s_t vanishes identically on a subalgebra.  Over a field
the exhaustive mode sweeps strictly increasing basis combinations only:
s_t is multilinear, so vanishing on basis tuples decides the identity, and
alternating, so tuples with a repeated element vanish automatically and
reorderings change nothing but sign.  Over Z/m no such pruning is attempted
and all tuples from the spanning set are swept.  Randomized mode evaluates
seeded random linear combinations of the basis instead.

All three reach s_t through one driver, :func:`_first_nonzero`: each mode
only supplies its ordered source of argument tuples (basis combinations,
spanning-set tuples or coefficient rows) and its report fields.  The driver
picks the kernel once per sweep: batched int64 evaluation by
:func:`fastpath.dp_batch` over GF(p) when the overflow bound allows it,
spread over a thread pool when asked, and the exact pure-Python DP
otherwise (QQ, Z/m, large p), which never imports numpy.  It stops at the
first nonzero value.

Verdicts of "not an identity" always carry a witness tuple whose arguments
are checked to lie in the algebra and whose value is re-evaluated with an
independent evaluator before being reported.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice, product
from math import comb, factorial
from typing import Optional, Sequence, Union

from .constructions import SpanningSetAlgebra, repetition_units
from .errors import (
    ContractViolationError,
    DegreeGuardError,
    DimensionError,
    RingMismatchError,
    UnsupportedRingError,
)
from .matrices import Echelon, Matrix, mul_flat
from .rings import Ring
from .standardpoly import (
    NAIVE_MAX_DEGREE,
    _eval_standard_dp_py,
    eval_standard_dp,
    eval_standard_naive,
    signed_permutations,
)
from .subalgebra import SubalgebraBasis, close_generators

QQ_RANDOM_BOUND = 100
SPANNING_SWEEP_LIMIT = 5_000_000
IDENTITY_SPACE_MAX_DEGREE = 6

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
    "coefficient ring has zero divisors: no combination pruning; all tuples "
    "from the spanning set were swept"
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
    tuple came from an exhaustive sweep; None for random elements.
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
    """Witnesses never ship unvalidated: re-evaluate with a second evaluator.

    The naive evaluator is the re-check up to its degree guard; past it the
    pure-Python DP (independent of any vectorized kernel) re-evaluates.
    """
    if len(mats) <= NAIVE_MAX_DEGREE:
        got = eval_standard_naive(list(mats))
    else:
        got = _eval_standard_dp_py(list(mats))
    if got != expected or got.is_zero():
        raise ContractViolationError(
            "witness failed re-verification; evaluators disagree"
        )


def _linear_combination(a: SubalgebraBasis, coords) -> Matrix:
    ring = a.ring
    zero = ring.zero
    acc = [zero] * (a.n * a.n)
    for c, b in zip(coords, a.mats):
        c = ring.canon(c)
        if c != zero:
            for idx, v in enumerate(b.data):
                if v != zero:
                    acc[idx] += c * v
    return Matrix._new(ring, a.n, a.n, ring.canon_list(acc))


def _random_coords(ring: Ring, d: int, rng: random.Random) -> list:
    if ring.kind == "prime_field":
        return [rng.randrange(ring.p) for _ in range(d)]
    return [rng.randint(-QQ_RANDOM_BOUND, QQ_RANDOM_BOUND) for _ in range(d)]


def _chunked(iterable, size: int):
    it = iter(iterable)
    while True:
        block = list(islice(it, size))
        if not block:
            return
        yield block


def _use_fastpath(ring: Ring, n: int, t: int) -> bool:
    if ring.kind != "prime_field":
        return False
    from . import fastpath

    return fastpath.supports(ring.p, n, t)


def _dp_batches(blocks, build, p: int, threads: int = 1):
    """Yield (block, stack, values) for each block, in order.

    build(block) makes a (t, B, n, n) int64 stack on the calling thread, so
    seeded draws keep their order; values are its s_t residues mod p.  With
    threads > 1 that many stacks are evaluated at a time.
    """
    from . import fastpath

    evaluate = partial(fastpath.dp_batch, p=p)
    pool, mapper = nullcontext(), map
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(threads)
        mapper = pool.map
    with pool:
        for group in _chunked(blocks, max(threads, 1)):
            stacks = [build(block) for block in group]
            yield from zip(group, stacks, mapper(evaluate, stacks))


def _first_nonzero(a, t: int, tuples, coords: bool = False, threads: int = 1):
    """Evaluate s_t on argument tuples in order, stopping at the first nonzero.

    Each tuple is t indices into a.mats, or with coords=True a t x dim row
    of coefficients in a.mats.  Returns (tuples evaluated, witness or None);
    the witness is checked to lie in the algebra and re-verified first.
    """
    ring, n = a.ring, a.n
    evaluated = 0
    if _use_fastpath(ring, n, t):
        from . import fastpath

        basis_arr = fastpath.basis_to_flat(a.mats)
        if coords:
            build = partial(fastpath.coords_to_stack, basis_arr, n=n, p=ring.p)
        else:
            build = partial(fastpath.combos_to_stack, basis_arr, n=n)
        blocks = _chunked(tuples, fastpath.suggested_batch(t, n))
        for block, stack, vals in _dp_batches(blocks, build, ring.p, threads):
            flags = vals.reshape(len(block), -1).any(axis=1)
            if flags.any():
                hit = int(flags.argmax())
                evaluated += hit + 1
                tup = block[hit]
                mats = tuple(fastpath.array_to_matrix(ring, stack[k, hit]) for k in range(t))
                value = fastpath.array_to_matrix(ring, vals[hit])
                break
            evaluated += len(block)
        else:
            return evaluated, None
    else:
        for tup in tuples:
            if coords:
                mats = tuple(_linear_combination(a, row) for row in tup)
            else:
                mats = tuple(a.mats[i] for i in tup)
            value = eval_standard_dp(list(mats))
            evaluated += 1
            if not value.is_zero():
                break
        else:
            return evaluated, None
    if not all(a.contains(x) for x in mats):
        raise ContractViolationError("witness argument lies outside the algebra")
    _reverify_witness(mats, value)
    indices = None if coords else tuple(i + 1 for i in tup)
    return evaluated, Witness(indices, mats, value)


def _random_rows(a: SubalgebraBasis, t: int, trials: int, seed: int):
    """Seeded t x dim coefficient rows for randomized mode.

    The int64 kernel draws all rows at once from numpy's generator and the
    exact kernel draws them one by one from random.Random, so each keeps
    the stream its seeded reports have always been computed from.
    """
    ring = a.ring
    if _use_fastpath(ring, a.n, t):
        import numpy as np

        rng = np.random.default_rng(seed)
        return rng.integers(0, ring.p, size=(trials, t, a.dim), dtype=np.int64)
    rng = random.Random(seed)
    return ([_random_coords(ring, a.dim, rng) for _ in range(t)] for _ in range(trials))


def _report(a, t: int, mode: str, started: float, evaluated: int, witness,
            space: int, note: str, trials=None, seed=None,
            probabilistic: bool = False) -> IdentityReport:
    return IdentityReport(
        algebra=a.label, ring=a.ring.name, n=a.n, dim=a.dim, degree=t, mode=mode,
        is_identity=witness is None, probabilistic=probabilistic, witness=witness,
        tuples_checked=evaluated, tuple_space=space, trials=trials, seed=seed,
        note=note, elapsed_ms=(time.perf_counter() - started) * 1e3,
    )


def is_standard_identity(a, t: int, mode: str = "exhaustive", trials: int = 2000,
                         seed: int = 0, threads: int = 1) -> IdentityReport:
    """Decide whether s_t is a polynomial identity of the subalgebra.

    Exhaustive mode is a proof either way over a field (combination sweep;
    see module docstring) and over Z/m spanning-set descriptors (full tuple
    sweep).  Randomized mode draws `trials` seeded tuples of random algebra
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
        if total > SPANNING_SWEEP_LIMIT:
            raise DegreeGuardError(
                f"spanning sweep of {total} tuples exceeds the {SPANNING_SWEEP_LIMIT} guard"
            )
        evaluated, witness = _first_nonzero(a, t, product(range(a.dim), repeat=t))
        return _report(a, t, "exhaustive", started, evaluated, witness, total, SPANNING_NOTE)
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
        evaluated, witness = _first_nonzero(a, t, combinations(range(a.dim), t),
                                            threads=threads)
        return _report(a, t, mode, started, evaluated, witness, total, PRUNING_NOTE)
    if mode == "randomized":
        if trials < 1:
            raise DimensionError(f"need trials >= 1, got {trials}")
        if a.dim == 0:
            return _report(a, t, mode, started, 0, None, trials, VACUOUS_NOTE, trials, seed)
        evaluated, witness = _first_nonzero(a, t, _random_rows(a, t, trials, seed),
                                            coords=True, threads=threads)
        return _report(a, t, mode, started, evaluated, witness, trials, RANDOM_NOTE,
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


def min_standard_degree(a, t_max: Optional[int] = None, threads: int = 1) -> MinDegreeResult:
    """Smallest degree t <= t_max with s_t an identity, sweeping t = 2, 3, ...

    Both parities are tested rather than assuming the unital even/odd
    reduction, because non-unital algebras are first-class inputs here.
    When the minimum lands on an even degree and the algebra is unital, the
    odd cross-check at t+1 runs as well and a failure of the unital
    reduction is treated as an internal contradiction.
    """
    if t_max is None:
        t_max = 2 * a.n
    if t_max < 2:
        raise DegreeGuardError(f"need t_max >= 2, got {t_max}")
    reports = []
    found = None
    for t in range(2, t_max + 1):
        rep = is_standard_identity(a, t, mode="exhaustive", threads=threads)
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
        cross = is_standard_identity(a, found + 1, mode="exhaustive", threads=threads)
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

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "algebra": self.algebra,
            "ring": self.ring,
            "degree": self.degree,
            "dimension": self.dimension,
            "basis": [[str(c) for c in vec] for vec in self.basis],
            "tuples_swept": self.tuples_swept,
            "verified": self.verified,
        }


def _perm_products(flats: list, n: int, ring: Ring) -> list:
    """Products over all permutation words of the given matrices, in
    lexicographic word order; zero products are stored as None."""
    t = len(flats)
    zero = ring.zero
    out = []

    def rec(prod, used, depth):
        if depth == t:
            out.append(prod)
            return
        for i in range(t):
            bit = 1 << i
            if used & bit:
                continue
            nxt = flats[i] if prod is None else mul_flat(prod, flats[i], n, n, n, ring)
            if all(v == zero for v in nxt):
                out.extend([None] * factorial(t - depth - 1))
                continue
            rec(nxt, used | bit, depth + 1)

    rec(None, 0, 0)
    return out


def multilinear_identity_space(a: SubalgebraBasis, t: int, verify: bool = True) -> IdentitySpace:
    """Nullspace of the evaluation map on all multilinear degree-t polynomials.

    Builds the matrix with one column per permutation monomial and one row
    per (basis tuple, matrix entry) pair; alternation pruning does not apply
    to general multilinear polynomials, so all dim^t tuples contribute.
    Rows feed an incremental echelon and the sweep stops as soon as the rank
    hits t! (zero space).  With verify=True each kernel vector is re-checked
    against every spanning tuple.
    """
    if not 1 <= t <= IDENTITY_SPACE_MAX_DEGREE:
        raise DegreeGuardError(
            f"identity space guarded to 1 <= t <= {IDENTITY_SPACE_MAX_DEGREE}, got {t}"
        )
    if not isinstance(a, SubalgebraBasis) or not a.ring.is_field:
        raise UnsupportedRingError("identity space needs a field-backed basis")
    ring, n, d = a.ring, a.n, a.dim
    fact = factorial(t)
    zero = ring.zero
    sieve = Echelon(ring, fact)
    flats = [m.data for m in a.mats]
    swept = 0
    for tup in product(range(d), repeat=t):
        prods = _perm_products([flats[i] for i in tup], n, ring)
        swept += 1
        for e in range(n * n):
            row = [zero if P is None else P[e] for P in prods]
            sieve.insert(row)
        if sieve.rank == fact:
            break
    kernel = sieve.nullspace_basis()
    if verify and kernel:
        for tup in product(range(d), repeat=t):
            prods = _perm_products([flats[i] for i in tup], n, ring)
            for vec in kernel:
                for e in range(n * n):
                    acc = zero
                    for r, c in enumerate(vec):
                        if c != zero and prods[r] is not None:
                            acc += c * prods[r][e]
                    if ring.canon(acc) != zero:
                        raise ContractViolationError(
                            "identity-space vector failed re-verification"
                        )
    return IdentitySpace(
        algebra=a.label, ring=ring.name, degree=t, dimension=fact - sieve.rank,
        basis=tuple(kernel), tuples_swept=swept, verified=bool(verify and kernel),
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
    t = q + r
    n = l + m
    violations = 0
    first: Optional[Witness] = None
    if _use_fastpath(ring, n, t):
        import numpy as np

        from . import fastpath

        p = ring.p
        rng = np.random.default_rng(seed)
        top_flat = fastpath.basis_to_flat(a_top.mats)
        bot_flat = fastpath.basis_to_flat(a_bot.mats)
        batch = fastpath.suggested_batch(t, n)

        def assemble(size):
            stack = np.zeros((t, size, n, n), dtype=np.int64)
            for flat, lo, hi in ((top_flat, 0, l), (bot_flat, l, n)):
                coords = rng.integers(0, p, size=(size, t, len(flat)), dtype=np.int64)
                stack[:, :, lo:hi, lo:hi] = fastpath.coords_to_stack(flat, coords, hi - lo, p)
            coupling = rng.integers(0, p, size=(size, t, l, m), dtype=np.int64)
            stack[:, :, :l, l:] = coupling.transpose(1, 0, 2, 3)
            return stack

        sizes = [min(batch, trials - lo) for lo in range(0, trials, batch)]
        for size, stack, vals in _dp_batches(sizes, assemble, p):
            flags = vals.reshape(size, -1).any(axis=1)
            hits = np.nonzero(flags)[0]
            violations += int(len(hits))
            if len(hits) and first is None:
                b = int(hits[0])
                mats = tuple(fastpath.array_to_matrix(ring, stack[k, b]) for k in range(t))
                value = fastpath.array_to_matrix(ring, vals[b])
                _reverify_witness(mats, value)
                first = Witness(None, mats, value)
    else:
        rng = random.Random(seed)
        zero = ring.zero
        for _ in range(trials):
            mats = []
            for _k in range(t):
                x = _linear_combination(a_top, _random_coords(ring, a_top.dim, rng))
                y = _linear_combination(a_bot, _random_coords(ring, a_bot.dim, rng))
                data = [zero] * (n * n)
                for i in range(l):
                    for j in range(l):
                        data[i * n + j] = x[i, j]
                for i in range(m):
                    for j in range(m):
                        data[(l + i) * n + (l + j)] = y[i, j]
                for i in range(l):
                    for j in range(m):
                        data[i * n + (l + j)] = ring.canon(
                            rng.randrange(ring.p) if ring.kind == "prime_field"
                            else rng.randint(-QQ_RANDOM_BOUND, QQ_RANDOM_BOUND)
                        )
                mats.append(Matrix._new(ring, n, n, ring.canon_list(data)))
            val = eval_standard_dp(mats)
            if not val.is_zero():
                violations += 1
                if first is None:
                    _reverify_witness(tuple(mats), val)
                    first = Witness(None, tuple(mats), val)
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
    asserts the upper-right corner of the value is zero.  The value itself
    need not vanish; only its corner must.
    """
    from .blocks import ur_corner

    started = time.perf_counter()
    if not ring.is_field:
        raise UnsupportedRingError(f"corner check needs a field, not {ring.name}")
    units = repetition_units(ring, l, m, include_corner=False)
    span = SubalgebraBasis(ring, 2 * l + m, units, label=f"RepZeroCorner({l},{m})")
    # pinning the corner to zero is not multiplicatively closed; the span is
    # only a sampling domain here, so SubalgebraBasis is used as a plain span
    t = 2 * (l + m)
    n = 2 * l + m
    violations = 0
    if _use_fastpath(ring, n, t):
        import numpy as np

        from . import fastpath

        p = ring.p
        rng = np.random.default_rng(seed)
        basis_arr = fastpath.basis_to_flat(span.mats)
        batch = fastpath.suggested_batch(t, n)

        def draw(size):
            coords = rng.integers(0, p, size=(size, t, span.dim), dtype=np.int64)
            return fastpath.coords_to_stack(basis_arr, coords, n, p)

        sizes = [min(batch, trials - lo) for lo in range(0, trials, batch)]
        for size, _stack, vals in _dp_batches(sizes, draw, p):
            corners = vals[:, :l, l + m :]
            violations += int((corners.reshape(size, -1).any(axis=1)).sum())
    else:
        rng = random.Random(seed)
        for _ in range(trials):
            mats = [_linear_combination(span, _random_coords(ring, span.dim, rng)) for _ in range(t)]
            val = eval_standard_dp(mats)
            if not ur_corner(val, l, m).is_zero():
                violations += 1
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
