"""Block upper triangular structure and the classification pipeline.

A block shape is an ordered composition (l_1, ..., l_k) of n.  Against a
shape, a subalgebra of block upper triangular matrices is sorted into one of
two buckets: either it is the full block upper triangular algebra of that
shape (and then it does not satisfy the standard identity of degree 2n-2,
witnessed explicitly), or it falls into one of three structural cases that
each force the identity to hold at degree 2n-2.  Presentations outside the
hypotheses of that dichotomy, with a zero or non-semisimple proper
diagonal block, are reported as such.

Each verdict class carries its report tag as the class attribute ``kind``.
A full verdict's staircase witness is a :class:`standardpoly.Witness`,
built and re-checked by :func:`standardpoly.checked_witness` as every
sweep witness is.  :func:`classify` scans the basis for entries below the
block diagonal once, before anything else; the projections it then cuts
trust that scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    CharacteristicError,
    ContractViolationError,
    DimensionError,
    UnsupportedRingError,
)
from .matrices import Echelon, Matrix, matrix_unit
from .rings import Ring
from .standardpoly import Witness, checked_witness
from .subalgebra import SubalgebraBasis, is_semisimple, span_basis


@dataclass(frozen=True)
class BlockShape:
    """An ordered composition of n giving block sizes along the diagonal."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise DimensionError("a block shape needs at least one part")
        if any(p < 1 for p in parts):
            raise DimensionError(f"block sizes must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_blocks(self) -> int:
        return len(self.parts)

    def offsets(self) -> tuple:
        """Prefix sums: block i (1-based) covers rows offsets[i-1]..offsets[i]."""
        out = [0]
        for p in self.parts:
            out.append(out[-1] + p)
        return tuple(out)

    def row_range(self, i: int) -> tuple:
        """0-based half-open row window of block i (1-based)."""
        if not 1 <= i <= self.num_blocks:
            raise DimensionError(f"block index {i} out of range 1..{self.num_blocks}")
        off = self.offsets()
        return off[i - 1], off[i]

    def block_of(self, r: int) -> int:
        """1-based block containing 0-based row index r."""
        if not 0 <= r < self.n:
            raise DimensionError(f"row {r} out of range for n={self.n}")
        off = self.offsets()
        for i in range(1, self.num_blocks + 1):
            if r < off[i]:
                return i
        raise AssertionError

    def triangular_dim(self) -> int:
        """Dimension of the full block upper triangular algebra."""
        p = self.parts
        return sum(p[i] * p[j] for i in range(len(p)) for j in range(i, len(p)))

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class FullBlockTriangular:
    shape: BlockShape
    witness: Witness  # indices None
    kind = "full-block-triangular"

    def describe(self) -> str:
        return f"{self.kind}{self.shape}"


@dataclass(frozen=True)
class ProperSimpleBlock:
    """Some diagonal block projection is a proper subalgebra of its M_l."""

    block_index: int  # 1-based

    def describe(self) -> str:
        return f"proper-simple-block[{self.block_index}]"


@dataclass(frozen=True)
class Repetition:
    """Two diagonal blocks carry isomorphic actions (lex-first such pair)."""

    first: int
    second: int  # 1-based, first < second

    def describe(self) -> str:
        return f"repetition[{self.first},{self.second}]"


@dataclass(frozen=True)
class NotUniserial:
    """The coupling between adjacent blocks i, i+1 is semisimple (splits)."""

    coupling_index: int  # 1-based i

    def describe(self) -> str:
        return f"not-uniserial[{self.coupling_index}]"


@dataclass(frozen=True)
class SatisfiesLowDegree:
    """The algebra satisfies the standard identity of degree 2n-2."""

    reason: Union[ProperSimpleBlock, Repetition, NotUniserial]
    kind = "satisfies-low-degree"

    def describe(self) -> str:
        return f"{self.kind}({self.reason.describe()})"


@dataclass(frozen=True)
class ZeroDiagonalBlock:
    """The projection onto diagonal block i is zero."""

    block_index: int  # 1-based

    def describe(self) -> str:
        return f"zero-diagonal-block[{self.block_index}]"


@dataclass(frozen=True)
class NonSemisimpleBlock:
    """The projection onto diagonal block i has a nonzero radical."""

    block_index: int  # 1-based

    def describe(self) -> str:
        return f"non-semisimple-block[{self.block_index}]"


@dataclass(frozen=True)
class OutsideHypotheses:
    """The presentation is outside the hypotheses of the theorem: a proper
    diagonal block projection is zero or not semisimple, so no verdict on
    s_(2n-2) follows from the shape."""

    reason: Union[ZeroDiagonalBlock, NonSemisimpleBlock]
    kind = "outside-hypotheses"

    def describe(self) -> str:
        return f"{self.kind}({self.reason.describe()})"


@dataclass(frozen=True)
class NotCanonical:
    """A basis element breaks block upper triangularity for the shape."""

    basis_index: int  # 1-based index into the canonical basis
    row: int          # 1-based entry position
    col: int
    kind = "not-canonical"

    def describe(self) -> str:
        return f"{self.kind}(basis {self.basis_index} entry ({self.row},{self.col}))"


ClassificationVerdict = Union[FullBlockTriangular, SatisfiesLowDegree, OutsideHypotheses,
                              NotCanonical]


def first_below_block_violation(x: Matrix, shape: BlockShape) -> Optional[tuple]:
    """First (row, col), 1-based, strictly below the block diagonal with a
    nonzero entry; None if x is block upper triangular."""
    if not x.is_square or x.rows != shape.n:
        raise DimensionError(f"matrix is {x.shape_str()}, shape wants {shape.n}x{shape.n}")
    zero = x.ring.zero
    off = shape.offsets()
    block_row = []
    for i, p in enumerate(shape.parts, start=1):
        block_row.extend([i] * p)
    n = shape.n
    for r in range(n):
        upto = off[block_row[r] - 1]  # columns strictly left of r's block
        base = r * n
        for c in range(upto):
            if x.data[base + c] != zero:
                return (r + 1, c + 1)
    return None


def diag_block(x: Matrix, shape: BlockShape, i: int) -> Matrix:
    start, stop = shape.row_range(i)
    return x.submatrix(start, stop, start, stop)


def window_block(x: Matrix, shape: BlockShape, i: int, j: int) -> Matrix:
    """The square window spanning blocks i..j (rows and columns)."""
    if not 1 <= i <= j <= shape.num_blocks:
        raise DimensionError(f"block window ({i},{j}) out of range")
    start = shape.row_range(i)[0]
    stop = shape.row_range(j)[1]
    return x.submatrix(start, stop, start, stop)


def _project(a: SubalgebraBasis, shape: BlockShape, i: int, j: int) -> SubalgebraBasis:
    """Corner projection onto the window spanning blocks i..j.

    For block upper triangular matrices, cutting this window out is an
    algebra homomorphism, so the image of a closed span is closed.  The
    caller has checked that every basis element is block upper triangular
    for the shape; :func:`classify` does so once, before its first cut.
    """
    cut = [window_block(b, shape, i, j) for b in a.mats]
    sub_n = shape.row_range(j)[1] - shape.row_range(i)[0]
    return span_basis(a.ring, sub_n, cut, label=f"{a.label}|{i}..{j}")


def intertwiner_space(a: SubalgebraBasis, shape: BlockShape, i: int, j: int) -> list:
    """Solutions T of T * pi_i(x) = pi_j(x) * T for all x in the algebra.

    Blocks i and j must have equal size l; T ranges over l x l matrices and
    the returned list is a canonical basis of the solution space.  A nonzero
    solution exists exactly when the two diagonal block actions are
    isomorphic, provided both diagonal projections are the full M_l.
    """
    if not a.ring.is_field:
        raise UnsupportedRingError(f"intertwiner computation needs a field, not {a.ring.name}")
    if i == j:
        raise DimensionError("need two distinct blocks")
    li = shape.parts[i - 1] if 1 <= i <= shape.num_blocks else None
    lj = shape.parts[j - 1] if 1 <= j <= shape.num_blocks else None
    if li is None or lj is None:
        raise DimensionError(f"block pair ({i},{j}) out of range for {shape}")
    if li != lj:
        raise DimensionError(f"blocks {i} and {j} have different sizes {li} != {lj}")
    l = li
    ring = a.ring
    zero = ring.zero
    ech = Echelon(ring, l * l)
    for b in a.mats:
        A = diag_block(b, shape, i)
        B = diag_block(b, shape, j)
        for prow in range(l):
            for q in range(l):
                row = [zero] * (l * l)
                for v in range(l):
                    av = A[v, q]
                    if av != zero:
                        row[prow * l + v] = ring.add(row[prow * l + v], av)
                for u in range(l):
                    bu = B[prow, u]
                    if bu != zero:
                        row[u * l + q] = ring.sub(row[u * l + q], bu)
                ech.insert(row)
        if ech.rank == l * l:
            break
    return [Matrix._new(ring, l, l, list(vec)) for vec in ech.nullspace_basis()]


def staircase_units(ring: Ring, n: int) -> list:
    """The staircase sequence e_{1,1}, e_{1,2}, e_{2,2}, ..., e_{n,n}.

    2n-1 matrix units walking down the first superdiagonal; the standard
    polynomial of degree 2n-1 evaluates on it to e_{1,n}.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    units = []
    for i in range(1, n + 1):
        units.append(matrix_unit(ring, n, i, i))
        if i < n:
            units.append(matrix_unit(ring, n, i, i + 1))
    return units


def tail_staircase_units(ring: Ring, n: int) -> list:
    """The staircase with its first unit dropped: 2n-2 matrices starting at
    e_{1,2}.  The standard polynomial of degree 2n-2 evaluates on it to
    e_{1,n}, which exhibits failure of that identity inside the upper
    triangular matrices (hence inside any full block triangular algebra)."""
    return staircase_units(ring, n)[1:]


def _nonvanishing_witness(a: SubalgebraBasis) -> Witness:
    """The staircase witness of a full verdict, built and re-checked as
    every sweep witness is (:func:`standardpoly.checked_witness`): (e_11,)
    with value e_11 at n = 1, else the tail staircase with value e_(1,n)."""
    ring, n = a.ring, a.n
    mats = tuple(tail_staircase_units(ring, n)) if n > 1 else (matrix_unit(ring, 1, 1, 1),)
    return checked_witness(a, None, mats, matrix_unit(ring, n, 1, n))


def classify(a: SubalgebraBasis, shape: BlockShape) -> ClassificationVerdict:
    """Sort a subalgebra presented against a block shape.

    One pass, which builds each projection it reaches once, in order:
    (1) any basis element below-block nonzero entry gives NotCanonical,
    and this is the one scan of the basis for such entries;
    (2) the diagonal projections pi_i, in block order, return at the first
    that is not the full M_(l_i), with ProperSimpleBlock(i) as reason of
    SatisfiesLowDegree or an OutsideHypotheses verdict (below); (3) the
    lex-first pair i < j of equal-size blocks with a nonzero intertwiner
    (:func:`intertwiner_space`) gives Repetition(i, j): every diagonal
    block is full by now, so a nonzero intertwiner is invertible and the
    two block actions are isomorphic; (4) the couplings pi_(i,i+1), in
    order, give NotUniserial(i) at the first that is semisimple; (5)
    otherwise the span must be the whole block upper triangular algebra
    of the shape, returned with the tail staircase, where the degree 2n-2
    standard polynomial is e_(1,n), as a standardpoly.Witness built and
    re-checked by the naive evaluator like every sweep witness
    (:func:`standardpoly.checked_witness`).  Step (5) reads the dimensions
    of the couplings of step (4) and of the span, and raises
    ContractViolationError on any mismatch, since the first four steps
    exhaust the structural ways a proper subalgebra can sit inside the
    shape.  So a full verdict on k blocks projects 2k - 1 times.

    Reading a SatisfiesLowDegree verdict as "s_(2n-2) vanishes on the
    algebra" is a theorem when every diagonal projection that step (2)
    inspects is either the full block or a nonzero semisimple algebra,
    which holds in particular for unital algebras presented against a
    shape refining their composition series.  Step (2) therefore checks
    each projection it inspects, in block order, before reasoning with
    it.  A zero projection (a non-unital algebra) gives
    OutsideHypotheses(ZeroDiagonalBlock(i)): span{e11, e12, e13, e22, e23}
    against (3) has zero (3,3) projection, yet s_4(e11, e12, e22, e23) =
    e13.  A proper projection with a nonzero radical (a shape that does
    not refine the composition series) gives
    OutsideHypotheses(NonSemisimpleBlock(i)): U_2 against (2) projects
    onto all of U_2, and s_2(e11, e12) = e12.  Neither verdict claims
    anything about s_(2n-2); callers wanting a verdict should adjoin the
    identity before closing (see close_generators /
    random_triangular_closures) and present the algebra against a shape
    refining its composition series.
    """
    ring = a.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"classification needs a field, not {ring.name}")
    if ring.characteristic != 0 and ring.characteristic <= a.n:
        raise CharacteristicError(
            f"classification needs characteristic 0 or > {a.n}, got {ring.characteristic}"
        )
    if shape.n != a.n:
        raise DimensionError(f"shape {shape} is for n={shape.n}, algebra has n={a.n}")
    for idx, b in enumerate(a.mats, start=1):
        viol = first_below_block_violation(b, shape)
        if viol is not None:
            return NotCanonical(idx, viol[0], viol[1])
    for i in range(1, shape.num_blocks + 1):
        li = shape.parts[i - 1]
        block = _project(a, shape, i, i)
        if block.dim < li * li:
            if block.dim == 0:
                return OutsideHypotheses(ZeroDiagonalBlock(i))
            if not is_semisimple(block):
                return OutsideHypotheses(NonSemisimpleBlock(i))
            return SatisfiesLowDegree(ProperSimpleBlock(i))
    for i in range(1, shape.num_blocks + 1):
        for j in range(i + 1, shape.num_blocks + 1):
            if shape.parts[i - 1] == shape.parts[j - 1] and intertwiner_space(a, shape, i, j):
                return SatisfiesLowDegree(Repetition(i, j))
    couplings = []
    for i in range(1, shape.num_blocks):
        coupling = _project(a, shape, i, i + 1)
        if is_semisimple(coupling):
            return SatisfiesLowDegree(NotUniserial(i))
        couplings.append(coupling)
    # no structural obstruction: the span must be everything
    for i, coupling in enumerate(couplings, start=1):
        li, lj = shape.parts[i - 1], shape.parts[i]
        want = li * li + lj * lj + li * lj
        if coupling.dim != want:
            raise ContractViolationError(
                f"coupling {i},{i + 1} has dimension {coupling.dim}, expected full {want}; "
                f"input span is inconsistent with the pipeline invariants"
            )
    if a.dim != shape.triangular_dim():
        raise ContractViolationError(
            f"algebra has dimension {a.dim} but no structural obstruction; "
            f"full block triangular algebra of shape {shape} has dimension "
            f"{shape.triangular_dim()}"
        )
    return FullBlockTriangular(shape, _nonvanishing_witness(a))
