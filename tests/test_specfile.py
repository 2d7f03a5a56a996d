import textwrap

import pytest

from matpi.blocks import BlockShape
from matpi.constructions import SpanningSetAlgebra
from matpi.errors import SpecFileError
from matpi.rings import GF, QQ, Zmod
from matpi.specfile import build_algebra, load_algebra_spec


def write_spec(tmp_path, text, name="alg.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def test_load_construction_spec(tmp_path):
    path = write_spec(tmp_path, """
        label: my block algebra
        ring: {kind: gf, p: 101}
        n: 3
        shape: [1, 2]
        source:
          construction: {kind: full_block, shape: [1, 2]}
    """)
    spec = load_algebra_spec(path)
    assert spec.label == "my block algebra"
    assert spec.ring == GF(101)
    assert spec.n == 3
    assert spec.shape == BlockShape((1, 2))
    assert len(spec.digest) == 64
    alg = build_algebra(spec)
    assert alg.dim == 7
    assert alg.label == "my block algebra"


def test_load_generators_spec(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: q}
        n: 2
        include_identity: true
        source:
          generators:
            - [["0", "1"], ["0", "0"]]
            - [["1", "0"], ["0", "0"]]
    """)
    spec = load_algebra_spec(path)
    assert spec.ring == QQ
    alg = build_algebra(spec)
    assert alg.dim == 3  # closes to U_2


def test_digest_tracks_bytes(tmp_path):
    p1 = write_spec(tmp_path, "ring: {kind: q}\nn: 1\nsource:\n  construction: {kind: full_matrix}\n", "a.yaml")
    p2 = write_spec(tmp_path, "ring: {kind: q}\nn: 1\nsource:\n  construction: {kind: full_matrix}\n", "b.yaml")
    p3 = write_spec(tmp_path, "ring: {kind: q}\nn: 1\n# note\nsource:\n  construction: {kind: full_matrix}\n", "c.yaml")
    assert load_algebra_spec(p1).digest == load_algebra_spec(p2).digest
    assert load_algebra_spec(p1).digest != load_algebra_spec(p3).digest


def test_zmod_spanning_spec(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: zmod, m: 4}
        n: 2
        source:
          construction: {kind: constrained_triangular, ideal_gen: 2}
    """)
    alg = build_algebra(load_algebra_spec(path))
    assert isinstance(alg, SpanningSetAlgebra)
    assert alg.ring == Zmod(4)


def test_bad_prime_diagnostic(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: gf, p: 4}
        n: 2
        source:
          construction: {kind: full_matrix}
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert ei.value.field == "ring.p"
    assert "4" in str(ei.value)


@pytest.mark.parametrize("ring,stray", [
    ("{kind: gf, p: 101, m: 4}", "m"),
    ("{kind: zmod, m: 4, p: 7}", "p"),
])
def test_ring_rejects_the_other_kinds_modulus_key(tmp_path, ring, stray):
    # each ring kind takes its one modulus key: gf takes p, zmod takes m
    path = write_spec(tmp_path, f"""
        ring: {ring}
        n: 2
        source:
          construction: {{kind: full_matrix}}
    """)
    with pytest.raises(SpecFileError, match=f"not {stray}$") as ei:
        load_algebra_spec(path)
    assert ei.value.field == "ring"


def test_non_square_generator_diagnostic(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: q}
        n: 2
        source:
          generators:
            - [["0", "1", "2"], ["0", "0", "1"]]
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert "2x3" in str(ei.value) or "expected square" in str(ei.value)


def test_fraction_in_gf_diagnostic(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: gf, p: 7}
        n: 2
        source:
          generators:
            - [["1/2", "0"], ["0", "1"]]
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert "source.generators[0][0][0]" in ei.value.field
    assert "fraction" in str(ei.value)


def test_float_rejected(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: q}
        n: 1
        source:
          generators:
            - [[0.5]]
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert "quote an exact value" in str(ei.value)


def test_unknown_key_rejected(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: q}
        n: 1
        flavor: chocolate
        source:
          construction: {kind: full_matrix}
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert "flavor" in str(ei.value)


def test_both_sources_rejected(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: q}
        n: 1
        source:
          construction: {kind: full_matrix}
          generators: [[["1"]]]
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert "exactly one" in str(ei.value)


def test_shape_sum_mismatch(tmp_path):
    path = write_spec(tmp_path, """
        ring: {kind: q}
        n: 3
        shape: [1, 1]
        source:
          construction: {kind: upper_triangular}
    """)
    with pytest.raises(SpecFileError) as ei:
        load_algebra_spec(path)
    assert "shape" in ei.value.field


def test_missing_file():
    with pytest.raises(SpecFileError):
        load_algebra_spec("/nonexistent/truly/absent.yaml")


def test_nested_params_equivalent(tmp_path):
    flat = write_spec(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 3
        source:
          construction: {kind: repetition, l: 1, m: 1}
    """, "flat.yaml")
    nested = write_spec(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 3
        source:
          construction:
            kind: repetition
            params: {l: 1, m: 1}
    """, "nested.yaml")
    a1 = build_algebra(load_algebra_spec(flat))
    a2 = build_algebra(load_algebra_spec(nested))
    assert a1.mats == a2.mats
