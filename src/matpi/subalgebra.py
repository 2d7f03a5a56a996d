"""Subalgebras of M_n as echelonized linear spans.

A subalgebra is represented by a canonical basis: the reduced row echelon
form of the span of its elements under the row-major flattening.  Two equal
subalgebras therefore get identical basis tuples, whatever generators they
came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    CharacteristicError,
    DimensionError,
    RingMismatchError,
    UnsupportedRingError,
)
from .matrices import Echelon, Matrix, identity_matrix, mul_flat, nullspace, trace_pair
from .rings import Ring

MAX_CLOSURE_DIM = 64 * 64


@dataclass(frozen=True)
class GeneratorSet:
    """A finite list of square generators over one ring."""

    ring: Ring
    n: int
    mats: tuple
    label: str = "A"

    def __post_init__(self):
        for a in self.mats:
            if a.ring != self.ring:
                raise RingMismatchError(f"{a.ring} vs {self.ring}")
            if not a.is_square or a.rows != self.n:
                raise DimensionError(f"generator is {a.shape_str()}, expected {self.n}x{self.n}")


class SubalgebraBasis:
    """Canonical echelon basis of a multiplicatively closed span.

    Construction does not verify closure; use :func:`close_generators` to
    build one from arbitrary generators, or :func:`span_basis` when the
    span is known to be closed.
    """

    __slots__ = ("ring", "n", "mats", "label", "_ech")

    def __init__(self, ring: Ring, n: int, mats: Sequence[Matrix], label: str = "A"):
        ech = Echelon(ring, n * n)
        for a in mats:
            if a.ring != ring:
                raise RingMismatchError(f"{a.ring} vs {ring}")
            if not a.is_square or a.rows != n:
                raise DimensionError(f"basis element is {a.shape_str()}, expected {n}x{n}")
            ech.insert(a.data)
        self.ring = ring
        self.n = n
        self.mats = tuple(Matrix._new(ring, n, n, row) for row in ech.rows)
        self.label = label
        self._ech = ech

    @property
    def dim(self) -> int:
        return len(self.mats)

    def contains(self, x: Matrix) -> bool:
        if x.ring != self.ring or not x.is_square or x.rows != self.n:
            return False
        return self._ech.contains(x.data)

    def coords(self, x: Matrix) -> Optional[tuple]:
        """Coefficients of x in the canonical basis, or None if outside."""
        if x.ring != self.ring or not x.is_square or x.rows != self.n:
            return None
        ring = self.ring
        zero = ring.zero
        residual = list(x.data)
        out = []
        for row, piv in zip(self._ech.rows, self._ech.pivots):
            c = ring.canon(residual[piv])
            out.append(c)
            if c != zero:
                for idx in range(piv, len(residual)):
                    r = row[idx]
                    if r != zero:
                        residual[idx] = residual[idx] - c * r
        if any(ring.canon(v) != zero for v in residual):
            return None
        return tuple(out)

    def is_unital(self) -> bool:
        return self.contains(identity_matrix(self.ring, self.n))

    def relabel(self, label: str) -> "SubalgebraBasis":
        out = object.__new__(SubalgebraBasis)
        out.ring, out.n, out.mats, out.label, out._ech = (
            self.ring, self.n, self.mats, label, self._ech,
        )
        return out

    def __repr__(self):
        return f"SubalgebraBasis({self.label}: dim {self.dim} in M_{self.n}({self.ring.name}))"


def span_basis(ring: Ring, n: int, mats: Sequence[Matrix], label: str = "A") -> SubalgebraBasis:
    """Echelonize a spanning set into a canonical basis (no closure check)."""
    return SubalgebraBasis(ring, n, mats, label)


def close_generators(gens, include_identity: bool = False, label: Optional[str] = None) -> SubalgebraBasis:
    """Smallest multiplicatively closed span containing the generators.

    Round-based: every round multiplies the full current basis against
    itself and absorbs the products; the rank grows on every round that
    continues, so at most n^2 rounds run.  Needs a field (echelonization).
    """
    if isinstance(gens, GeneratorSet):
        ring, n, mats = gens.ring, gens.n, list(gens.mats)
        if label is None:
            label = f"<{gens.label}>"
    else:
        mats = list(gens)
        if not mats:
            raise DimensionError("need at least one generator")
        ring, n = mats[0].ring, mats[0].rows
        if label is None:
            label = "<gens>"
    if not ring.is_field:
        raise UnsupportedRingError(
            f"closure needs a field, not {ring.name}; supply a spanning set instead"
        )
    if n * n > MAX_CLOSURE_DIM:
        raise DimensionError(f"closure guarded to n <= 64, got {n}")
    ech = Echelon(ring, n * n)
    for a in mats:
        if a.ring != ring:
            raise RingMismatchError(f"{a.ring} vs {ring}")
        if not a.is_square or a.rows != n:
            raise DimensionError(f"generator is {a.shape_str()}, expected {n}x{n}")
        ech.insert(a.data)
    if include_identity:
        ech.insert(identity_matrix(ring, n).data)
    while True:
        basis = [tuple(row) for row in ech.rows]
        grew = False
        for a in basis:
            for b in basis:
                prod = mul_flat(a, b, n, n, n, ring)
                if ech.insert(prod):
                    grew = True
        if not grew:
            break
    return SubalgebraBasis(ring, n, [Matrix._new(ring, n, n, r) for r in ech.rows], label)


def jacobson_radical(a: SubalgebraBasis) -> SubalgebraBasis:
    """Radical via the trace bilinear form.

    Over a field of characteristic zero or p > n, the radical of a
    subalgebra of M_n is the kernel of the form (x, y) -> tr(xy) restricted
    to the subalgebra; smaller characteristics are rejected because the
    criterion can break there.
    """
    ring = a.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"radical computation needs a field, not {ring.name}")
    if ring.characteristic != 0 and ring.characteristic <= a.n:
        raise CharacteristicError(
            f"trace-form radical needs characteristic 0 or > {a.n}, "
            f"got {ring.characteristic}"
        )
    d = a.dim
    if d == 0:
        return span_basis(ring, a.n, [], label=f"rad({a.label})")
    gram = []
    for i in range(d):
        for j in range(d):
            gram.append(trace_pair(a.mats[i], a.mats[j]))
    kernel = nullspace(Matrix._new(ring, d, d, gram))
    rad_mats = []
    zero = ring.zero
    for vec in kernel:
        acc = [zero] * (a.n * a.n)
        for c, b in zip(vec, a.mats):
            if c != zero:
                for idx, v in enumerate(b.data):
                    if v != zero:
                        acc[idx] += c * v
        rad_mats.append(Matrix._new(ring, a.n, a.n, ring.canon_list(acc)))
    return span_basis(ring, a.n, rad_mats, label=f"rad({a.label})")


def is_semisimple(a: SubalgebraBasis) -> bool:
    return jacobson_radical(a).dim == 0
