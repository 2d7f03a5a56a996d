"""Algebra spec files: one small YAML schema for every input the CLI takes.

Scalars are strings (or plain ints), never floats: "3", "-2/7", "2 mod 4".
The same schema covers all rings; entries are parsed in the declared ring
and every validation failure names the offending field path.

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

from .blocks import BlockShape
from .constructions import SpanningSetAlgebra, build_named
from .errors import MatpiError, SpecFileError
from .matrices import Matrix, identity_matrix
from .rings import RING_KINDS, Ring, ring_from_params
from .subalgebra import close_generators, span_basis

_TOP_KEYS = {"label", "ring", "n", "source", "include_identity", "shape"}


@dataclass(frozen=True)
class AlgebraSpec:
    label: str
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
    if k == "q":
        if "p" in ring or "m" in ring:
            raise SpecFileError("ring", "the rationals take no modulus")
        return ring_from_params("q")
    if k == "gf":
        if "p" not in ring:
            raise SpecFileError("ring.p", "missing prime modulus")
        p = _require_int(ring["p"], "ring.p", minimum=2)
        try:
            return ring_from_params("gf", p)
        except MatpiError as e:
            raise SpecFileError("ring.p", str(e)) from None
    if k == "zmod":
        if "m" not in ring:
            raise SpecFileError("ring.m", "missing modulus")
        m = _require_int(ring["m"], "ring.m", minimum=2)
        try:
            return ring_from_params("zmod", m)
        except MatpiError as e:
            raise SpecFileError("ring.m", str(e)) from None
    raise SpecFileError("ring.kind", f"expected one of gf, q, zmod; got {kind!r}")


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
        default_label = kind
    else:
        glist = source["generators"]
        if not isinstance(glist, list) or not glist:
            raise SpecFileError("source.generators", "expected a nonempty list of matrices")
        generators = tuple(
            _parse_generator(ring, n, i, rows) for i, rows in enumerate(glist)
        )
        default_label = f"<{len(generators)} generators>"
    include_identity = data.get("include_identity", False)
    if not isinstance(include_identity, bool):
        raise SpecFileError("include_identity", f"expected true or false, got {include_identity!r}")
    shape = None
    if "shape" in data and data["shape"] is not None:
        parts = data["shape"]
        if not isinstance(parts, list) or not parts:
            raise SpecFileError("shape", f"expected a nonempty list of block sizes, got {parts!r}")
        for v in parts:
            _require_int(v, "shape", minimum=1)
        if sum(parts) != n:
            raise SpecFileError("shape", f"parts sum to {sum(parts)}, but n = {n}")
        shape = BlockShape(tuple(parts))
    label = data.get("label", default_label)
    if not isinstance(label, str) or not label:
        raise SpecFileError("label", f"expected a nonempty string, got {label!r}")
    return AlgebraSpec(
        label=label, ring=ring, n=n, construction=construction,
        generators=generators, include_identity=include_identity,
        shape=shape, digest=digest, path=str(path),
    )


def build_algebra(spec: AlgebraSpec):
    """Instantiate the algebra a spec describes.

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
        alg = alg.relabel(spec.label) if spec.label != kind else alg
        if spec.include_identity and not alg.is_unital():
            alg = span_basis(
                spec.ring, spec.n,
                list(alg.mats) + [identity_matrix(spec.ring, spec.n)],
                label=alg.label,
            )
        return alg
    return close_generators(spec.generators, include_identity=spec.include_identity,
                            label=spec.label)
