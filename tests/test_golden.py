"""Byte-for-byte golden outputs of the CLI in structured mode.

Each command's stdout is hashed and compared with a digest recorded before
the identity sweeps were folded into one driver, so any change to a
verdict, witness, count or field order shows up here.  Spec files are
written under fixed relative names because the spec path is part of the
report.

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
}

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
}

# every spec above is over QQ or Z/m
EXACT_ONLY = [argv for argv in GOLDEN
              if "q" in argv or any(a.endswith(".yaml") for a in argv)]


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
