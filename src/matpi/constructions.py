"""Named algebra constructions used across the test corpus and the CLI.

All builders return canonical :class:`SubalgebraBasis` objects except the
constrained triangular family over Z/m, which has no echelon form and is
returned as a spanning set plus a membership predicate.  The builders know
nothing of spec files: :func:`specfile.build_named` maps a spec's
construction kind and parameters onto them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .blocks import BlockShape
from .errors import DimensionError, UnsupportedRingError
from .matrices import Matrix, matrix_unit, zero_matrix
from .rings import IntegerModRing, Ring
from .subalgebra import SubalgebraBasis, span_basis


def full_block_algebra(ring: Ring, shape: BlockShape) -> SubalgebraBasis:
    """All block upper triangular matrices of the given shape."""
    n = shape.n
    units = []
    for r in range(1, n + 1):
        br = shape.block_of(r - 1)
        for c in range(1, n + 1):
            if shape.block_of(c - 1) >= br:
                units.append(matrix_unit(ring, n, r, c))
    return span_basis(ring, n, units, label=f"E{shape}")


def upper_triangular(ring: Ring, n: int) -> SubalgebraBasis:
    """All upper triangular n x n matrices (shape all-ones)."""
    a = full_block_algebra(ring, BlockShape((1,) * n))
    return a.relabel(f"U_{n}")


def full_matrix_algebra(ring: Ring, n: int) -> SubalgebraBasis:
    a = full_block_algebra(ring, BlockShape((n,)))
    return a.relabel(f"M_{n}")


def repetition_units(ring: Ring, l: int, m: int, include_corner: bool = True) -> list:
    """Spanning set for the matrices [[a, b, c], [0, e, d], [0, 0, a]].

    With include_corner=False the c block is pinned to zero; that smaller
    space is not an algebra (b*d products land in c), but it is exactly the
    sampling domain of the upper-right-corner vanishing property.
    """
    if l < 1 or m < 1:
        raise DimensionError(f"need l, m >= 1, got l={l}, m={m}")
    n = 2 * l + m
    units = []
    for r in range(1, l + 1):  # tied diagonal corners
        for c in range(1, l + 1):
            tied = matrix_unit(ring, n, r, c) + matrix_unit(ring, n, l + m + r, l + m + c)
            units.append(tied)
    for r in range(1, m + 1):  # middle block e
        for c in range(1, m + 1):
            units.append(matrix_unit(ring, n, l + r, l + c))
    for r in range(1, l + 1):  # b block
        for c in range(1, m + 1):
            units.append(matrix_unit(ring, n, r, l + c))
    for r in range(1, m + 1):  # d block
        for c in range(1, l + 1):
            units.append(matrix_unit(ring, n, l + r, l + m + c))
    if include_corner:
        for r in range(1, l + 1):  # c block
            for c in range(1, l + 1):
                units.append(matrix_unit(ring, n, r, l + m + c))
    return units


def repetition_algebra(ring: Ring, l: int, m: int) -> SubalgebraBasis:
    """Matrices [[a, b, c], [0, e, d], [0, 0, a]] inside M_{2l+m}.

    a runs over M_l (appearing twice on the diagonal), e over M_m, and the
    strictly upper blocks b (l x m), d (m x l), c (l x l) are free.  The
    two equal corner blocks make this the smallest interesting example of a
    repeated block action; its dimension is 2l^2 + m^2 + 2lm.
    """
    units = repetition_units(ring, l, m, include_corner=True)
    return span_basis(ring, 2 * l + m, units, label=f"Rep({l},{m})")


def two_block_radical(ring: Ring, l: int, m: int) -> SubalgebraBasis:
    """The strictly-upper coupling block of the (l, m) two-block algebra:
    matrices [[0, b], [0, 0]] with b free of size l x m.  This is exactly
    the Jacobson radical of the full (l, m) block triangular algebra, which
    the test suite verifies against the trace-form computation."""
    if l < 1 or m < 1:
        raise DimensionError(f"need l, m >= 1, got l={l}, m={m}")
    n = l + m
    units = [matrix_unit(ring, n, r, l + c) for r in range(1, l + 1) for c in range(1, m + 1)]
    return span_basis(ring, n, units, label=f"T({l},{m})")


@dataclass(frozen=True)
class SpanningSetAlgebra:
    """An algebra over Z/m given by a spanning set and a membership test.

    No canonical basis exists without a field, so identity testing over
    this object sweeps increasing combinations of the spanning set instead
    of an echelonized basis.
    """

    ring: IntegerModRing
    n: int
    mats: tuple
    ideal_gen: int
    label: str

    @property
    def dim(self) -> int:
        # spanning set size, not a rank; Z/m spans have no rank
        return len(self.mats)

    def contains(self, x: Matrix) -> bool:
        """Upper triangular with (1,2) entry inside the ideal (ideal_gen)."""
        if x.ring != self.ring or not x.is_square or x.rows != self.n:
            return False
        zero = self.ring.zero
        for r in range(self.n):
            for c in range(r):
                if x[r, c] != zero:
                    return False
        if self.n >= 2:
            d = gcd(self.ideal_gen, self.ring.m)
            if x[0, 1] % d != 0:
                return False
        return True


def constrained_triangular(ring: IntegerModRing, n: int, ideal_gen: int) -> SpanningSetAlgebra:
    """Upper triangular matrices over Z/m whose (1,2) entry lies in the
    ideal generated by ideal_gen.

    Over a modulus with zero divisors this family can fail standard
    identities of degree below the field-case threshold; the spanning set
    is the ideal generator at (1,2) plus every other upper triangular unit.
    """
    if not isinstance(ring, IntegerModRing):
        raise UnsupportedRingError("constrained triangular algebras live over Z/m")
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    g = ideal_gen % ring.m
    mats = []
    for r in range(1, n + 1):
        for c in range(r, n + 1):
            if (r, c) == (1, 2):
                u = matrix_unit(ring, n, 1, 2).scale(g)
                if not u.is_zero():
                    mats.append(u)
            else:
                mats.append(matrix_unit(ring, n, r, c))
    return SpanningSetAlgebra(ring, n, tuple(mats), g, f"B({n},{ring.m},({g}))")


def diagonal_algebra(ring: Ring, n: int) -> SubalgebraBasis:
    """All diagonal n x n matrices (commutative, satisfies s_2)."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    units = [matrix_unit(ring, n, i, i) for i in range(1, n + 1)]
    return span_basis(ring, n, units, label=f"D_{n}")


def diagonal_embedding(ring: Ring, k: int, copies: int) -> SubalgebraBasis:
    """M_k embedded as block-diagonal repeats diag(a, ..., a) in M_{k*copies}.

    Isomorphic to M_k, so it satisfies exactly the identities of M_k even
    though it lives in much larger matrices; with k = 1 this is the scalar
    matrices."""
    if k < 1 or copies < 1:
        raise DimensionError(f"need k, copies >= 1, got k={k}, copies={copies}")
    n = k * copies
    basis = []
    for r in range(1, k + 1):
        for c in range(1, k + 1):
            acc = zero_matrix(ring, n)
            for s in range(copies):
                acc = acc + matrix_unit(ring, n, s * k + r, s * k + c)
            basis.append(acc)
    return span_basis(ring, n, basis, label=f"Diag(M_{k}x{copies})")

