"""Byte-for-byte golden outputs of the CLI in structured mode.

Each command's stdout is hashed and compared with a digest recorded by
earlier code: before the identity sweeps were folded into one driver, or,
for the identity-space commands and the GF(101) specs, before sweeps
skipped tuples that are zero by torus weight.  Any change to a verdict,
witness, count or field order shows up here.  Spec files are written under
fixed relative names because the spec path is part of the report.

Every digest except the two identity-space ones was re-pinned when the
--threads option was removed: the reports no longer echo "threads": 1 in
`command`, and verify-al and lemma-suite hash their params, threads no
longer among them, into `input_digest`.  The re-pinned outputs equal the
earlier ones with that key dropped and that digest recomputed, byte for
byte; nothing else in them changed.

Six digests were re-pinned again, each by diffing the earlier and the new
output.  The three commands that sweep Z/4 or Z/8 spanning sets
(lemma-suite and the two Z/m min-degree runs) now sweep increasing
combinations, and their reports differ only in the rewritten Z/m `note`;
witnesses and tuple counts are byte-identical.  verify-al --n 3 (over
GF(101) and QQ) and classify over QQ run in exhaustive mode, which reads no
trial count, so `command` no longer echoes "trials": 2000; for verify-al
`input_digest` changes with it.  Nothing else in them changed.

The last three digests pin the numpy routes of GF(101) sweeps: verify-al
--n 4 finds its s_6 witness in the probe block and proves s_8 from an
empty layer of the sparse pass, its randomized run sweeps coefficient rows
(a probe block, then one batch), and classify runs the exhaustive sweeps
of its stages on U_5.

The three verify-al --n 5 randomized digests, seeds 0-2 at 2,000 trials,
were recorded while every trial's rows were still drawn at once and
stacked in int64.  They pin the seeded row stream through per-slice draws:
its s_10 sweep evaluates all 2,000 rows, and its s_8 witness, the first
row, is re-checked by the dense t = 8 naive walk.

The identity-space digests of M_2 and U_2 at t = 5 over GF(101) pin
large kernels, of 29 and 70 vectors; the two earlier identity-space
digests pin kernels of dimension 0 and 1.  They were recorded while the
sweep still handed its echelon a row for every matrix entry, zero rows
included.

The exact-arithmetic commands (over QQ and Z/m) also run in a fresh
interpreter that must finish without importing numpy: those paths stay on
pure-Python arithmetic, which keeps their memory footprint small.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matpi
from matpi.cli import main


def _tied_u3_spec() -> str:
    """U_3 repeated twice down the diagonal of M_6.  Its basis elements
    e_ij + e_(i+3)(j+3) are not weight vectors, so no tuple is pruned."""
    lines = ["ring: {kind: gf, p: 101}", "n: 6", "source:", "  generators:"]
    for i, j in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)):
        rows = [[0] * 6 for _ in range(6)]
        rows[i][j] = rows[i + 3][j + 3] = 1
        lines.append(f"    - {rows}")
    return "\n".join(lines) + "\n"


SPECS = {
    "b2-z8.yaml": """
        ring: {kind: zmod, m: 8}
        n: 2
        source: {construction: {kind: constrained_triangular, ideal_gen: 2}}
    """,
    "b3-z4.yaml": """
        ring: {kind: zmod, m: 4}
        n: 3
        source: {construction: {kind: constrained_triangular, ideal_gen: 2}}
    """,
    "u4-qq.yaml": """
        ring: {kind: q}
        n: 4
        shape: [1, 1, 1, 1]
        source: {construction: {kind: upper_triangular}}
    """,
    "u3-gf.yaml": """
        ring: {kind: gf, p: 101}
        n: 3
        source: {construction: {kind: upper_triangular}}
    """,
    "u5-gf.yaml": """
        ring: {kind: gf, p: 101}
        n: 5
        shape: [1, 1, 1, 1, 1]
        source: {construction: {kind: upper_triangular}}
    """,
    "tied-u3-gf.yaml": _tied_u3_spec(),
    "u2-gf.yaml": """
        ring: {kind: gf, p: 101}
        n: 2
        source: {construction: {kind: upper_triangular}}
    """,
}
# the specs over QQ or Z/m
EXACT_SPECS = ("b2-z8.yaml", "b3-z4.yaml", "u4-qq.yaml")

# argv -> sha256 of stdout with --out structured appended
GOLDEN = {
    ("verify-al", "--n", "3"):
        "21e9e9b5a57344e0b2e3ccc6f2b26091093bebe905f7dd6ab28a7a88b796be7e",
    ("verify-al", "--n", "3", "--ring", "q"):
        "2e18505a15d4776b15541adb20b190a2cd2aa597ca2751856ec74cc94b791d07",
    ("verify-al", "--n", "2", "--ring", "q", "--mode", "randomized",
     "--trials", "50", "--seed", "4"):
        "756be821937c8eedea9aee36d5bfe429107578ff6c79c80e1236b4174f34415f",
    ("verify-al", "--n", "3", "--ring", "gf:2147483647", "--mode", "randomized",
     "--trials", "30"):
        "a5cd54bb9c6455c0bba012d7ea557696730b8329647e7bc259e91b1698b4efe1",
    ("lemma-suite", "--trials", "100"):
        "0ee0c07f1920c07ee60ff06918c3d51935ec5c1d706c189d2096047596d41e14",
    ("min-degree", "--spec", "b2-z8.yaml"):
        "129663d0f56a2f2e4e3d1f1ec90fab1cf42e696d7132f8945ad3fc8746cb26f6",
    ("min-degree", "--spec", "b3-z4.yaml", "--t-max", "4"):
        "3df19ea8aa99d1b63b6afbb6d104d5f42c6a82aa79f78cd37f64f65c29f4a89a",
    ("min-degree", "--spec", "u4-qq.yaml"):
        "6f22d58b824957f29f6d04dc4ac2f20dd49023b6de35a2f3354a311261599656",
    ("classify", "--spec", "u4-qq.yaml"):
        "f444962352cd9721cfbd713a006d76cd609b8546e935417594c90acb4b4b9e31",
    ("identity-space", "--spec", "u3-gf.yaml", "--t", "5"):
        "e2aaff788590b9f01b2c4bc49556d46040b0858112894c1a0e4081d63ec58e38",
    ("identity-space", "--n", "2", "--ring", "q", "--t", "4"):
        "774d851d840d93f763b92a6c3308f158db5b1d33d7b358a8ea602420bed1dc32",
    ("min-degree", "--spec", "u5-gf.yaml"):
        "18c820ded697bfb6d87db524e4591d461ef7a7dd4500849d64b9c06caa613d22",
    ("min-degree", "--spec", "tied-u3-gf.yaml"):
        "7bf4c8276382274a83a840c44237ccb570f41847f9c80018ff0f9e639d8d75b0",
    ("verify-al", "--n", "4"):
        "a93d8b23f47aa89da0d065cc6cbe16a1159772c040402b36fca88a62e25049e9",
    ("verify-al", "--n", "4", "--mode", "randomized", "--trials", "200", "--seed", "1"):
        "ec26f7fa213ef05419a31a7cbf6dec7118286a513d72349b69c0ef4d1fba763c",
    ("classify", "--spec", "u5-gf.yaml"):
        "680d00959553ec54e447e3c744ae8412c600423041d6e94111615bb63169eca0",
    ("verify-al", "--n", "5", "--mode", "randomized", "--seed", "0"):
        "520eb4580e227b6a46465f21b16a438da40c8650581eea3f6e3cd4fef3bdb5cd",
    ("verify-al", "--n", "5", "--mode", "randomized", "--seed", "1"):
        "129ea44f7bc6c069d4e5dd2db761a98a44d777faf45c679e9b15a2dbd195a99a",
    ("verify-al", "--n", "5", "--mode", "randomized", "--seed", "2"):
        "5bd51b82d55c71ff5f332758f709d3e69fc1bf6cdab53ec8c512db957ccb58a5",
    ("identity-space", "--n", "2", "--t", "5"):
        "5dc75b8ec086cc4ca18cda79a52fe25f8a05096ce3b965ec94975bc8319d8c34",
    ("identity-space", "--spec", "u2-gf.yaml", "--t", "5"):
        "22f082c88df065150da1a598e7baf23b328203295d283362388da69257275a62",
}

EXACT_ONLY = [argv for argv in GOLDEN
              if "q" in argv or any(a in EXACT_SPECS for a in argv)]


@pytest.fixture
def spec_dir(tmp_path, monkeypatch):
    for name, text in SPECS.items():
        (tmp_path / name).write_text(textwrap.dedent(text))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_structured_output_matches_golden_digest(argv, spec_dir, capsys):
    code = main([*argv, "--out", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_exact_paths_do_not_import_numpy(spec_dir):
    script = textwrap.dedent(f"""
        import io, contextlib, sys
        from matpi.cli import main
        for argv in {EXACT_ONLY!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", "structured"]) == 0, argv
        print("numpy" in sys.modules)
    """)
    src = str(Path(matpi.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=spec_dir, text=True,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
