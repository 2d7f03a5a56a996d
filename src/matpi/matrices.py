"""Dense exact matrices over the coefficient rings, plus row reduction.

Entries are stored flat in row-major order as canonical ring values.  The
inner loops (multiplication, accumulation, elimination) work on plain lists
and skip zero entries; our matrices are mostly sparse products of matrix
units, so the skip pays for itself.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError, RingMismatchError, UnsupportedRingError
from .rings import Ring


class Matrix:
    """Immutable dense matrix; ``data`` is a flat row-major tuple."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise DimensionError(f"bad matrix size {rows}x{cols}")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(ring.canon_list(entries)))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _new(cls, ring, rows, cols, canonical_entries):
        # internal fast path: entries already canonical
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(canonical_entries))
        return self

    # -- access ------------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionError(f"index {key} out of range for {self.shape_str()}")
        return self.data[i * self.cols + j]

    def row_lists(self):
        c = self.cols
        return [list(self.data[i * c : (i + 1) * c]) for i in range(self.rows)]

    def shape_str(self) -> str:
        return f"{self.rows}x{self.cols}"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(v == zero for v in self.data)

    def trace(self):
        if not self.is_square:
            raise DimensionError(f"trace of non-square {self.shape_str()}")
        n = self.rows
        ring = self.ring
        acc = ring.zero
        for i in range(n):
            acc = acc + self.data[i * n + i]
        return ring.canon(acc)

    def submatrix(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> "Matrix":
        """0-based half-open row/column window."""
        if not (0 <= row_start <= row_stop <= self.rows and 0 <= col_start <= col_stop <= self.cols):
            raise DimensionError("submatrix window out of range")
        c = self.cols
        out = []
        for i in range(row_start, row_stop):
            out.extend(self.data[i * c + col_start : i * c + col_stop])
        return Matrix._new(self.ring, row_stop - row_start, col_stop - col_start, out)

    # -- arithmetic ---------------------------------------------------------
    def _check_same_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        return mat_add_scale(self, other, self.ring.one, self.ring.one)

    def __sub__(self, other):
        return mat_add_scale(self, other, self.ring.one, self.ring.neg(self.ring.one))

    def __neg__(self):
        return self.scale(self.ring.neg(self.ring.one))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, alpha) -> "Matrix":
        ring = self.ring
        alpha = ring.canon(alpha)
        return Matrix._new(ring, self.rows, self.cols,
                           ring.canon_list([alpha * v for v in self.data]))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.data))

    def __repr__(self):
        ring = self.ring
        body = "; ".join(
            " ".join(ring.format(self.data[i * self.cols + j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({ring.name}, {self.shape_str()}: [{body}])"


# -- flat-list kernels -------------------------------------------------------

def mul_flat(a, b, n: int, m: int, k: int, ring: Ring):
    """(n x m) @ (m x k) on flat lists of canonical values; skips zeros."""
    zero = ring.zero
    out = [zero] * (n * k)
    for i in range(n):
        arow = i * m
        orow = i * k
        for j in range(m):
            aij = a[arow + j]
            if aij == zero:
                continue
            brow = j * k
            for c in range(k):
                bjc = b[brow + c]
                if bjc != zero:
                    out[orow + c] += aij * bjc
    return ring.canon_list(out)


def flat_is_zero(values, zero) -> bool:
    return all(v == zero for v in values)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_ring(b)
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.shape_str()} by {b.shape_str()}")
    data = mul_flat(a.data, b.data, a.rows, a.cols, b.cols, a.ring)
    return Matrix._new(a.ring, a.rows, b.cols, data)


def mat_add_scale(a: Matrix, b: Matrix, alpha, beta) -> Matrix:
    """alpha*a + beta*b for canonical scalars alpha and beta."""
    a._check_same_ring(b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError(f"cannot add {a.shape_str()} and {b.shape_str()}")
    ring = a.ring
    data = [alpha * x + beta * y for x, y in zip(a.data, b.data)]
    return Matrix._new(ring, a.rows, a.cols, ring.canon_list(data))


def zero_matrix(ring: Ring, rows: int, cols: int = None) -> Matrix:
    if cols is None:
        cols = rows
    return Matrix._new(ring, rows, cols, [ring.zero] * (rows * cols))


def identity_matrix(ring: Ring, n: int) -> Matrix:
    data = [ring.zero] * (n * n)
    one = ring.one
    for i in range(n):
        data[i * n + i] = one
    return Matrix._new(ring, n, n, data)


def matrix_unit(ring: Ring, n: int, i: int, j: int) -> Matrix:
    """e_{ij} in the n x n matrices; i and j are 1-based row/column labels."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionError(f"matrix unit ({i},{j}) out of range for n={n}")
    data = [ring.zero] * (n * n)
    data[(i - 1) * n + (j - 1)] = ring.one
    return Matrix._new(ring, n, n, data)


def format_matrix(x: Matrix) -> list:
    """The rows of x as lists of formatted entries, as reports print them."""
    ring = x.ring
    return [[ring.format(x[i, j]) for j in range(x.cols)] for i in range(x.rows)]


# -- row reduction ------------------------------------------------------------

class Echelon:
    """Incremental reduced row echelon form over a field.

    Feed vectors with :meth:`insert`; the accumulator keeps a fully reduced
    basis (unit pivots, zeros above and below each pivot, rows ordered by
    pivot column).  This makes the stored rows a canonical basis of the span,
    independent of insertion order.
    """

    def __init__(self, ring: Ring, width: int):
        if not ring.is_field:
            raise UnsupportedRingError(
                f"row reduction needs a field, not {ring.name}"
            )
        self.ring = ring
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list:
        """Residual of vec after eliminating all current pivots."""
        ring = self.ring
        zero = ring.zero
        v = ring.canon_list(vec)
        if len(v) != self.width:
            raise DimensionError(f"vector width {len(v)} != {self.width}")
        for row, piv in zip(self.rows, self.pivots):
            coef = v[piv]
            if coef == zero:
                continue
            for idx in range(piv, self.width):
                r = row[idx]
                if r != zero:
                    v[idx] = ring.sub(v[idx], coef * r)
        return v

    def contains(self, vec) -> bool:
        zero = self.ring.zero
        return all(x == zero for x in self.reduce(vec))

    def insert(self, vec) -> bool:
        """Reduce and absorb vec; returns True if the rank grew."""
        ring = self.ring
        zero = ring.zero
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x != zero), None)
        if piv is None:
            return False
        inv = ring.inv(v[piv])
        v = [ring.mul(inv, x) if x != zero else zero for x in v]
        # eliminate the new pivot column from existing rows
        for row in self.rows:
            coef = row[piv]
            if coef == zero:
                continue
            for idx in range(piv, self.width):
                x = v[idx]
                if x != zero:
                    row[idx] = ring.sub(row[idx], coef * x)
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def nullspace_basis(self) -> list[tuple]:
        """Canonical kernel basis of the matrix whose row space this is.

        One vector per free column, in ascending column order: the free
        coordinate is set to 1 and each pivot coordinate to the negated
        entry of its row at the free column.
        """
        ring = self.ring
        zero = ring.zero
        pivset = set(self.pivots)
        out = []
        for free in range(self.width):
            if free in pivset:
                continue
            v = [zero] * self.width
            v[free] = ring.one
            for row, piv in zip(self.rows, self.pivots):
                coef = row[free]
                if coef != zero:
                    v[piv] = ring.neg(coef)
            out.append(tuple(v))
        return out


def nullspace(a: Matrix) -> list[tuple]:
    """Canonical basis of {x : a @ x = 0}, vectors as tuples of length cols."""
    ech = Echelon(a.ring, a.cols)
    for row in a.row_lists():
        ech.insert(row)
    return ech.nullspace_basis()


def trace_pair(a: Matrix, b: Matrix):
    """tr(a @ b) without forming the product."""
    a._check_same_ring(b)
    if a.cols != b.rows or a.rows != b.cols:
        raise DimensionError(f"trace pairing needs compatible shapes")
    ring = a.ring
    zero = ring.zero
    acc = zero
    n, m = a.rows, a.cols
    for i in range(n):
        arow = i * m
        for j in range(m):
            x = a.data[arow + j]
            if x != zero:
                y = b.data[j * n + i]
                if y != zero:
                    acc += x * y
    return ring.canon(acc)
