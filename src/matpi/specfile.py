"""Algebra spec files: one small YAML schema for every input the CLI takes.

Scalars are strings (or plain ints), never floats: "3", "-2/7", "2 mod 4".
The same schema covers all rings; entries are parsed in the declared ring
and every validation failure names the offending field path.  A value has
one parser and one message for each mistake, whatever field holds it
(:func:`_require_int`, :func:`_parse_shape`), and :func:`build_named` maps
a construction onto the builders of :mod:`constructions`.

Example::

    label: two-block
    ring: {kind: gf, p: 101}
    n: 3
    source:
      construction: {kind: full_block, shape: [1, 2]}
    shape: [1, 2]

    # -- or explicit generators --
    ring: {kind: q}
    n: 2
    source:
      generators:
        - [["0", "1"], ["0", "0"]]
        - [["1", "0"], ["0", "-1/2"]]
    include_identity: true
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import yaml

from .blocks import BlockShape, staircase_units
from .constructions import (SpanningSetAlgebra, constrained_triangular, diagonal_embedding,
                            full_block_algebra, full_matrix_algebra, repetition_algebra,
                            two_block_radical, upper_triangular)
from .errors import MatpiError, SpecFileError
from .matrices import Matrix, identity_matrix
from .rings import RING_KINDS, IntegerModRing, Ring, ring_from_params
from .subalgebra import close_generators, span_basis

_TOP_KEYS = {"label", "ring", "n", "source", "include_identity", "shape"}
CONSTRUCTION_KINDS = ("full_block", "upper_triangular", "full_matrix", "staircase_closure",
                      "repetition", "two_block_radical", "constrained_triangular",
                      "diagonal_embedding")


@dataclass(frozen=True)
class AlgebraSpec:
    label: Optional[str]  # None when the file gives none
    ring: Ring
    n: int
    construction: Optional[tuple]  # (kind, params dict)
    generators: Optional[tuple]    # tuple of Matrix
    include_identity: bool
    shape: Optional[BlockShape]
    digest: str
    path: str


def _require_mapping(value, field):
    if not isinstance(value, dict):
        raise SpecFileError(field, f"expected a mapping, got {type(value).__name__}")
    return value


def _require_int(value, field, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecFileError(field, f"expected an integer >= {minimum}, got {value}")
    return value


def _parse_shape(parts, field, n) -> BlockShape:
    """The block shape of n x n matrices that the list of block sizes parts
    gives, at the top level or in a full_block construction."""
    if not isinstance(parts, (list, tuple)) or not parts:
        raise SpecFileError(field, f"expected a nonempty list of block sizes, got {parts!r}")
    for v in parts:
        _require_int(v, field, minimum=1)
    shape = BlockShape(tuple(parts))
    if shape.n != n:
        raise SpecFileError(field, f"shape {shape} sums to {shape.n}, but n = {n}")
    return shape


def _parse_ring(data) -> Ring:
    if "ring" not in data:
        raise SpecFileError("ring", "missing required field")
    ring = _require_mapping(data["ring"], "ring")
    kind = ring.get("kind")
    if not isinstance(kind, str):
        raise SpecFileError("ring.kind", f"expected one of gf, q, zmod; got {kind!r}")
    extra = set(ring) - {"kind", "p", "m"}
    if extra:
        raise SpecFileError("ring", f"unknown keys: {', '.join(sorted(extra))}")
    k = RING_KINDS.get(kind.strip().lower())
    if k is None:
        raise SpecFileError("ring.kind", f"expected one of gf, q, zmod; got {kind!r}")
    # each kind's one modulus key, and its message when missing
    key, missing = {"q": (None, None), "gf": ("p", "missing prime modulus"),
                    "zmod": ("m", "missing modulus")}[k]
    stray = sorted(set(ring) - {"kind", key})
    if stray:
        raise SpecFileError("ring", "the rationals take no modulus" if key is None
                            else f"ring kind {k} takes modulus {key}, not {', '.join(stray)}")
    modulus = None
    if key is not None:
        if key not in ring:
            raise SpecFileError(f"ring.{key}", missing)
        modulus = _require_int(ring[key], f"ring.{key}", minimum=2)
    try:
        return ring_from_params(k, modulus)
    except MatpiError as e:
        raise SpecFileError(f"ring.{key}", str(e)) from None


def _parse_generator(ring: Ring, n: int, idx: int, rows) -> Matrix:
    field = f"source.generators[{idx}]"
    if not isinstance(rows, list) or not rows:
        raise SpecFileError(field, f"expected a nonempty list of rows, got {rows!r}")
    nrows = len(rows)
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise SpecFileError(f"{field}[{r}]", f"expected a list of entries, got {row!r}")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise SpecFileError(field, "rows have unequal lengths")
    if nrows != n or ncols != n:
        raise SpecFileError(
            field, f"matrix is {nrows}x{ncols}, expected square of size n={n}"
        )
    entries = []
    for r, row in enumerate(rows):
        for c, raw in enumerate(row):
            if isinstance(raw, float):
                raise SpecFileError(
                    f"{field}[{r}][{c}]",
                    f"float literal {raw!r} is not allowed; quote an exact value",
                )
            if isinstance(raw, bool) or not isinstance(raw, (int, str)):
                raise SpecFileError(
                    f"{field}[{r}][{c}]", f"expected an int or string scalar, got {raw!r}"
                )
            try:
                entries.append(ring.parse(raw))
            except ValueError as e:
                raise SpecFileError(f"{field}[{r}][{c}]", str(e)) from None
    return Matrix(ring, n, n, entries)


def load_algebra_spec(path: str) -> AlgebraSpec:
    """Parse and validate a spec file; raises SpecFileError with the
    offending field path on any problem."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise SpecFileError("file", f"cannot read {path}: {e.strerror}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise SpecFileError("file", f"not valid YAML: {e}") from None
    data = _require_mapping(data, "file")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SpecFileError("file", f"unknown top-level keys: {', '.join(sorted(unknown))}")
    ring = _parse_ring(data)
    if "n" not in data:
        raise SpecFileError("n", "missing required field")
    n = _require_int(data["n"], "n", minimum=1)
    if "source" not in data:
        raise SpecFileError("source", "missing required field")
    source = _require_mapping(data["source"], "source")
    has_c = "construction" in source
    has_g = "generators" in source
    if has_c == has_g:
        raise SpecFileError("source", "give exactly one of construction or generators")
    extra = set(source) - {"construction", "generators"}
    if extra:
        raise SpecFileError("source", f"unknown keys: {', '.join(sorted(extra))}")
    construction = None
    generators = None
    if has_c:
        cmap = _require_mapping(source["construction"], "source.construction")
        kind = cmap.get("kind")
        if not isinstance(kind, str):
            raise SpecFileError("source.construction.kind", f"expected a string, got {kind!r}")
        params = {k: v for k, v in cmap.items() if k != "kind"}
        # parameters may sit beside kind, or nest under a params: mapping
        if "params" in params:
            nested = _require_mapping(params.pop("params"), "source.construction.params")
            clash = set(nested) & set(params)
            if clash:
                raise SpecFileError(
                    "source.construction.params",
                    f"keys given both nested and beside kind: {', '.join(sorted(clash))}",
                )
            params.update(nested)
        construction = (kind, params)
    else:
        glist = source["generators"]
        if not isinstance(glist, list) or not glist:
            raise SpecFileError("source.generators", "expected a nonempty list of matrices")
        generators = tuple(
            _parse_generator(ring, n, i, rows) for i, rows in enumerate(glist)
        )
    include_identity = data.get("include_identity", False)
    if not isinstance(include_identity, bool):
        raise SpecFileError("include_identity", f"expected true or false, got {include_identity!r}")
    shape = None if data.get("shape") is None else _parse_shape(data["shape"], "shape", n)
    label = data.get("label")
    if "label" in data and (not isinstance(label, str) or not label):
        raise SpecFileError("label", f"expected a nonempty string, got {label!r}")
    return AlgebraSpec(
        label=label, ring=ring, n=n, construction=construction,
        generators=generators, include_identity=include_identity,
        shape=shape, digest=digest, path=str(path),
    )


def build_named(ring: Ring, n: int, kind: str, params: dict):
    """Instantiate a named construction from spec-file parameters.

    Returns a SubalgebraBasis (or SpanningSetAlgebra for the constrained
    triangular family).  Raises SpecFileError on malformed parameters,
    naming their field path under source.construction.
    """
    params = dict(params or {})

    def take(name, minimum=1):
        if name not in params:
            raise SpecFileError(f"source.construction.{name}", "missing required parameter")
        return _require_int(params.pop(name), f"source.construction.{name}", minimum)

    def done(alg):
        if params:
            extra = ", ".join(sorted(params))
            raise SpecFileError("source.construction", f"unknown parameters: {extra}")
        return alg

    if kind == "full_block":
        shape = _parse_shape(params.pop("shape", None), "source.construction.shape", n)
        return done(full_block_algebra(ring, shape))
    if kind == "upper_triangular":
        return done(upper_triangular(ring, n))
    if kind == "full_matrix":
        return done(full_matrix_algebra(ring, n))
    if kind == "staircase_closure":
        return done(close_generators(staircase_units(ring, n), label=f"<staircase_{n}>"))
    if kind == "repetition":
        l, m = take("l"), take("m")
        if 2 * l + m != n:
            raise SpecFileError("source.construction", f"repetition needs n = 2l+m = {2 * l + m}, but n = {n}")
        return done(repetition_algebra(ring, l, m))
    if kind == "two_block_radical":
        l, m = take("l"), take("m")
        if l + m != n:
            raise SpecFileError("source.construction", f"two_block_radical needs n = l+m = {l + m}, but n = {n}")
        return done(two_block_radical(ring, l, m))
    if kind == "constrained_triangular":
        if not isinstance(ring, IntegerModRing):
            raise SpecFileError("ring", f"constrained_triangular needs a zmod ring, got {ring.name}")
        return done(constrained_triangular(ring, n, take("ideal_gen", minimum=0)))
    if kind == "diagonal_embedding":
        k, copies = take("k"), take("copies")
        if k * copies != n:
            raise SpecFileError("source.construction", f"diagonal_embedding needs n = k*copies = {k * copies}, but n = {n}")
        return done(diagonal_embedding(ring, k, copies))
    raise SpecFileError(
        "source.construction.kind",
        f"unknown construction {kind!r}; known kinds: {', '.join(CONSTRUCTION_KINDS)}",
    )


def build_algebra(spec: AlgebraSpec):
    """Instantiate the algebra a spec describes, labelled as the spec says
    or else as its builder does, or "<k generators>".

    Returns a SubalgebraBasis, or a SpanningSetAlgebra for the constrained
    triangular construction over Z/m.
    """
    if spec.construction is not None:
        kind, params = spec.construction
        if kind == "full_block" and spec.shape is not None and "shape" not in (params or {}):
            # the top-level shape doubles as the construction shape
            params = dict(params or {}, shape=list(spec.shape.parts))
        alg = build_named(spec.ring, spec.n, kind, params)
        if isinstance(alg, SpanningSetAlgebra):
            if spec.include_identity:
                raise SpecFileError(
                    "include_identity",
                    "not applicable to spanning-set constructions over Z/m "
                    "(the spanning set already fixes the algebra)",
                )
            return alg
        if spec.label is not None:
            alg = alg.relabel(spec.label)
        if spec.include_identity and not alg.is_unital():
            alg = span_basis(
                spec.ring, spec.n,
                list(alg.mats) + [identity_matrix(spec.ring, spec.n)],
                label=alg.label,
            )
        return alg
    return close_generators(spec.generators, include_identity=spec.include_identity,
                            label=spec.label or f"<{len(spec.generators)} generators>")
