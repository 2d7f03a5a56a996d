import json
import textwrap

import pytest

from matpi import cli
from matpi.cli import main, parse_ring_flag
from matpi.errors import MatpiError, UnsupportedRingError
from matpi.rings import GF, QQ, Zmod


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spec_file(tmp_path, text, name="alg.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def test_parse_ring_flag():
    assert parse_ring_flag("gf:101") == GF(101)
    assert parse_ring_flag("q") == QQ
    assert parse_ring_flag("zmod:4") == Zmod(4)
    for malformed in ("gf:nope", "gf:", "weird", "weird:5"):
        with pytest.raises(MatpiError, match=f"^bad ring flag {malformed!r}"):
            parse_ring_flag(malformed)


@pytest.mark.parametrize("flag,message", [
    ("gf:4", "4 is not prime"),
    ("gf:1", "modulus 1 out of supported range"),
    ("zmod:1", "modulus 1 out of supported range"),
])
def test_ring_flag_reports_the_ring_error(capsys, flag, message):
    # a well-formed flag naming a ring that does not exist gets the ring's
    # own diagnostic, as a spec file does
    with pytest.raises(UnsupportedRingError, match=f"^{message}$"):
        parse_ring_flag(flag)
    code, out, err = run(capsys, "verify-al", "--n", "2", "--ring", flag)
    assert code == 1 and out == ""
    assert err == f"matpi: error: {message}\n"


def test_verify_al_n2(capsys):
    code, out, err = run(capsys, "verify-al", "--n", "2")
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "al-identity" in out
    assert "staircase-value" in out


def test_verify_al_structured_byte_stable(capsys):
    code1, out1, _ = run(capsys, "verify-al", "--n", "2", "--out", "structured")
    code2, out2, _ = run(capsys, "verify-al", "--n", "2", "--out", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["artifact"]["name"] == "matpi"
    assert doc["wall_time_ms"] is None
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_al_timings_flag(capsys):
    code, out, _ = run(capsys, "verify-al", "--n", "2", "--out", "structured", "--timings")
    doc = json.loads(out)
    assert doc["wall_time_ms"] is not None


def test_verify_al_qq(capsys):
    code, out, _ = run(capsys, "verify-al", "--n", "2", "--ring", "q")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_ring_flag_aliases_match(capsys):
    # the CLI reads the same alias table as spec files, where kind
    # "rational" loads QQ
    code1, out1, _ = run(capsys, "verify-al", "--n", "2", "--ring", "rational",
                         "--out", "structured")
    code2, out2, _ = run(capsys, "verify-al", "--n", "2", "--ring", "q",
                         "--out", "structured")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_al_exhaustive_guard(capsys):
    code, out, err = run(capsys, "verify-al", "--n", "6", "--mode", "exhaustive")
    assert code == 1
    assert "n <= 5" in err and "randomized" in err


def test_classify_full_block(tmp_path, capsys):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 3
        shape: [1, 2]
        source:
          construction: {kind: full_block}
    """)
    code, out, _ = run(capsys, "classify", "--spec", path)
    assert code == 0
    assert "full-block-triangular(1,2)" in out
    assert "[PASS] identity-cross-check" in out


def test_classify_repetition(tmp_path, capsys):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 4
        shape: [2, 2]
        source:
          construction: {kind: diagonal_embedding, k: 2, copies: 2}
    """)
    code, out, _ = run(capsys, "classify", "--spec", path)
    assert code == 0
    assert "repetition" in out
    assert "consistent" in out


def test_classify_not_canonical_skips_cross_check(tmp_path, capsys):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 2
        shape: [1, 1]
        source:
          construction: {kind: full_matrix}
    """)
    code, out, _ = run(capsys, "classify", "--spec", path)
    assert code == 0
    assert "not-canonical" in out or "NotCanonical" in out or "not block upper" in out


def test_classify_outside_hypotheses_reports_the_sweep(tmp_path, capsys):
    # U_2 against (2): the projection is U_2 itself, not semisimple, and
    # s_2 is not an identity; the cross-check reports it and exits 0
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 2
        shape: [2]
        source:
          construction: {kind: upper_triangular}
    """)
    code, out, _ = run(capsys, "classify", "--spec", path)
    assert code == 0
    assert "outside-hypotheses(non-semisimple-block[1])" in out
    assert "[INFO] identity-cross-check: s_2 not-identity" in out
    code, out, _ = run(capsys, "classify", "--spec", path, "--out", "structured")
    checks = json.loads(out)["checks"]
    assert checks[0]["detail"] == {"kind": "outside-hypotheses",
                                   "reason": "NonSemisimpleBlock", "block_index": 1}
    assert checks[1]["status"] == "info"


def test_classify_requires_shape(tmp_path, capsys):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 2
        source:
          construction: {kind: full_matrix}
    """)
    code, out, err = run(capsys, "classify", "--spec", path)
    assert code == 1
    assert "shape" in err


@pytest.mark.parametrize("argv,message", [
    (("classify",), "classification needs a field, not Z/4"),
    (("identity-space", "--t", "3"), "identity space needs a field-backed basis"),
])
def test_zmod_spec_needs_a_field(tmp_path, capsys, argv, message):
    # the library's own ring check decides; the CLI adds none of its own
    path = spec_file(tmp_path, """
        ring: {kind: zmod, m: 4}
        n: 2
        shape: [1, 1]
        source:
          construction: {kind: constrained_triangular, ideal_gen: 2}
    """)
    code, out, err = run(capsys, *argv, "--spec", path)
    assert code == 1 and out == ""
    assert err == f"matpi: error: {message}\n"


def test_min_degree_m2(tmp_path, capsys):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 2
        source:
          construction: {kind: full_matrix}
    """)
    code, out, _ = run(capsys, "min-degree", "--spec", path)
    assert code == 0
    assert "minimal standard degree 4" in out


@pytest.mark.parametrize("shape", [[2, 4], [1, 4, 1]])
def test_min_degree_full_block_n6(tmp_path, capsys, shape):
    # the paper's least degree 2n = 12 at n = 6, with the s_13 cross-check,
    # from one sparse layer pass
    path = spec_file(tmp_path, f"""
        ring: {{kind: gf, p: 101}}
        n: 6
        source:
          construction: {{kind: full_block, shape: {shape}}}
    """)
    code, out, _ = run(capsys, "min-degree", "--spec", path, "--out", "structured")
    assert code == 0
    detail = json.loads(out)["checks"][0]["detail"]
    assert detail["min_standard_degree"] == 12
    cross = detail["odd_cross_check"]
    assert cross["degree"] == 13 and cross["verdict"] == "identity"


def test_identity_space_m2(capsys):
    code, out, _ = run(capsys, "identity-space", "--n", "2", "--t", "4")
    assert code == 0
    assert "dimension 1" in out
    assert "permutation-sign vector" in out


def test_verify_al_exhaustive_ignores_trials(capsys):
    # exhaustive mode reads no trial count, so none enters the report
    _, plain, _ = run(capsys, "verify-al", "--n", "2", "--out", "structured")
    _, with_trials, _ = run(capsys, "verify-al", "--n", "2", "--trials", "5",
                            "--out", "structured")
    assert with_trials == plain
    assert "trials" not in json.loads(plain)["command"]


def test_identity_space_spec_rejects_ring(capsys, tmp_path):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 2
        source: {construction: {kind: full_matrix}}
    """)
    code, out, err = run(capsys, "identity-space", "--spec", path, "--t", "3", "--ring", "q")
    assert code == 1 and out == ""
    assert "--ring" in err
    code, out, _ = run(capsys, "identity-space", "--spec", path, "--t", "3",
                       "--out", "structured")
    assert code == 0
    assert json.loads(out)["checks"][0]["detail"]["ring"] == "GF(101)"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_identity_space_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "identity-space", "--n", n, "--t", "3")
    assert code == 1 and out == ""
    assert f"need n >= 1, got {n}" in err


def test_identity_space_rejects_spec_with_n(capsys, tmp_path):
    path = spec_file(tmp_path, """
        ring: {kind: gf, p: 101}
        n: 2
        source: {construction: {kind: full_matrix}}
    """)
    code, out, err = run(capsys, "identity-space", "--spec", path, "--n", "2", "--t", "3")
    assert code == 1 and out == ""
    assert "identity-space takes --spec or --n, not both" in err


def test_identity_space_structured(capsys):
    code, out, _ = run(capsys, "identity-space", "--n", "2", "--t", "3",
                       "--out", "structured")
    doc = json.loads(out)
    assert doc["checks"][0]["detail"]["dimension"] == 0


def test_identity_space_timings_split_sweep_and_recheck(capsys):
    argv = ("identity-space", "--n", "2", "--t", "4", "--out", "structured")
    _, plain, _ = run(capsys, *argv)
    _, timed, _ = run(capsys, *argv, "--timings")
    assert "elapsed_ms" not in json.loads(plain)["checks"][0]["detail"]
    elapsed = json.loads(timed)["checks"][0]["detail"]["elapsed_ms"]
    assert sorted(elapsed) == ["recheck", "sweep"]
    assert all(ms >= 0 for ms in elapsed.values())


def test_lemma_suite(capsys):
    code, out, _ = run(capsys, "lemma-suite", "--trials", "50")
    assert code == 0
    assert "[FAIL]" not in out
    assert "mod-ring-witness(n=3)" in out


def test_lemma_suite_with_no_trials(capsys):
    code, out, _ = run(capsys, "lemma-suite", "--trials", "0")
    assert code == 0
    assert "[FAIL]" not in out


def test_lemma_suite_rejects_negative_trials(capsys, monkeypatch):
    ran = []
    for name in ("_consecutive_factor_configs", "ur_vanishing_check",
                 "is_standard_identity", "block_assembly_check"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: ran.append(name))
    code, out, err = run(capsys, "lemma-suite", "--trials", "-1")
    assert code == 1 and out == ""
    assert err == "matpi: error: need trials >= 0, got -1\n"
    assert ran == []  # rejected before any check ran


def test_missing_spec_file_exits_1(capsys):
    code, out, err = run(capsys, "classify", "--spec", "/no/such/file.yaml")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify-al"])  # missing required --n
    assert ei.value.code == 1


@pytest.mark.parametrize("argv", [
    ("verify-al", "--n", "2", "--threads", "2"),
    ("classify", "--spec", "alg.yaml", "--threads", "2"),
    ("min-degree", "--spec", "alg.yaml", "--threads", "2"),
    ("lemma-suite", "--threads", "2"),
    ("bench", "--threads", "2"),
    ("bench", "--trials", "5"),
], ids=" ".join)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert ("invalid choice: 'bench'" if argv[0] == "bench" else "unrecognized arguments") in err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1
