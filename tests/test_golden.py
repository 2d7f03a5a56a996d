"""Byte-for-byte golden outputs of the CLI in structured mode.

Each command's stdout is hashed and compared with a digest recorded by
earlier code: before the identity sweeps were folded into one driver, or,
for the identity-space commands and the GF(101) specs, before sweeps
skipped tuples that are zero by torus weight.  Any change to a verdict,
witness, count or field order shows up here.  Spec files are written under
fixed relative names because the spec path is part of the report.

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
}
# the specs over QQ or Z/m
EXACT_SPECS = ("b2-z8.yaml", "b3-z4.yaml", "u4-qq.yaml")

# argv -> sha256 of stdout with --out structured appended
GOLDEN = {
    ("verify-al", "--n", "3"):
        "4cbc181d427d8942b3f7490ba0c7b1341b03ffa635201ae8d704983f5002e345",
    ("verify-al", "--n", "3", "--ring", "q"):
        "a4a809ed5e24271285c2f68953898c5e7f794b3aa2e130816251cc6262b535f5",
    ("verify-al", "--n", "2", "--ring", "q", "--mode", "randomized",
     "--trials", "50", "--seed", "4"):
        "495f30ee1992ad6dfa0f98ed2824adb0bdfe77f375adf4c84b90e280abe6fd43",
    ("verify-al", "--n", "3", "--ring", "gf:2147483647", "--mode", "randomized",
     "--trials", "30"):
        "a7a2e2d296bcaafbdca73072adb18d5d44b65c864d3cb4fd7d6a133f19e0e67a",
    ("verify-al", "--n", "3", "--threads", "2"):
        "9434df5da7aa93c3baebf1b034443b4f838ea1322a17d445dd033d9c6f846900",
    ("lemma-suite", "--trials", "100"):
        "0a87c9eddc7999d63e4793ea44a16f34d228e9541507b6ef7bb9843ef200a1d6",
    ("min-degree", "--spec", "b2-z8.yaml"):
        "89a570ddb1fef40f8e418f786e26ac3fc63b5c652c8100288c665ed6de5f7bd2",
    ("min-degree", "--spec", "b3-z4.yaml", "--t-max", "4"):
        "7d7431dda6672af08b593c5e2219e5ca06a0d186db28eae761419d37a835082a",
    ("min-degree", "--spec", "u4-qq.yaml"):
        "e93f801b4e887819a3830538bf1ba4b7c01597e90455f8765e44c179ac43f354",
    ("classify", "--spec", "u4-qq.yaml"):
        "5ed07da9140365b19ee9c4df8628ecb6235c326730df3d1bb74e47f36c4cfb96",
    ("identity-space", "--spec", "u3-gf.yaml", "--t", "5"):
        "e2aaff788590b9f01b2c4bc49556d46040b0858112894c1a0e4081d63ec58e38",
    ("identity-space", "--n", "2", "--ring", "q", "--t", "4"):
        "774d851d840d93f763b92a6c3308f158db5b1d33d7b358a8ea602420bed1dc32",
    ("min-degree", "--spec", "u5-gf.yaml"):
        "069802858bf32abc336dd8548590c69ffbf15a2d4c91397a3169e6ba96e32b28",
    ("min-degree", "--spec", "tied-u3-gf.yaml"):
        "44da0ba185616677a94aa245a2dd0f4f4db7f12e4847fc7fd13246a09c589dab",
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
