"""Inputs of the matpi benchmark: four workloads, each a list of operations.

An operation is one `matpi` command line, run in-process by the runner as
`matpi.cli.main(argv + ["--out", "structured"])`, plus what the output
checker needs to know about it: the coefficient ring of its values and any
known answer.  Spec files are generated from the seed and written under the
run's work directory.

Run as a script, this module is the benchmark's set-up step in a fresh
interpreter: it imports `matpi.cli`, writes one workload's spec files and
prints its import time as JSON.  The runner times it from spawn to exit.

    python3 perfbench/workloads.py <workload> <seed> <work-dir>
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("prove-gf", "explore-gf", "explore-qq", "all-tuples")

WHY = {
    "prove-gf": "long exhaustive and randomized sweeps over GF(101) that end in "
                "identity verdicts, so fastpath.dp_batch carries the time",
    "explore-gf": "160 short classify/min-degree calls on closures in U_3 and U_4 over "
                  "GF(101), whose sweeps stop at early witnesses",
    "explore-qq": "the explore corpus over QQ: Fraction arithmetic and the pure-Python "
                  "DP carry the time and fastpath is never used",
    "all-tuples": "identity spaces and Z/m spanning sweeps, the only paths that sweep "
                  "all d^t tuples without alternation pruning",
}

# The explore corpora share one structural skeleton (generator supports and
# integer entries), drawn once from this fixed seed; --seed draws a diagonal
# change of basis D g D^-1 per spec.  That keeps every closure's structure,
# so every verdict, while changing every entry.  Closures drawn afresh per
# seed made the QQ pass vary from 9.4 s to 16.7 s over six seeds on a 2-core
# machine, from the number of closures that reach all of U_4 alone.
SKELETON_SEED = 20030513
EXPLORE_SPECS = 80
SKELETON_VALUES = (-3, -2, -1, 1, 2, 3)

# identity-space and min-degree over Z/m: GF(p) with p drawn by the seed
ALL_TUPLES_PRIMES = (101, 103, 107, 109, 113)
# ideal generators per modulus; associates give the same ideal
ZMOD_IDEAL_GENS = {4: (2,), 8: (2, 6), 9: (3, 6)}
# the n = 3 Z/m proofs of s_6 sweep 46,656 tuples each (about 26 s on the
# 2-core reference machine), too long for one run, so n = 3 stops at t = 5
ZMOD_N3_T_MAX = 5


@dataclass(frozen=True)
class Op:
    """One command line and what the checker knows about its answer.

    ring is ("gf", p), ("q", None) or ("zmod", m).  expect holds known
    values: al_identity (s_2n is an identity of M_n), min_degree, and
    sign_vector (the degree-t identity space is spanned by the sign vector).
    """

    argv: tuple
    ring: tuple
    expect: dict = field(default_factory=dict)


def _ring_yaml(ring: tuple) -> str:
    kind, mod = ring
    if kind == "gf":
        return f"{{kind: gf, p: {mod}}}"
    if kind == "zmod":
        return f"{{kind: zmod, m: {mod}}}"
    return "{kind: q}"


def _construction_spec(ring: tuple, n: int, construction: str, shape=None) -> str:
    text = f"ring: {_ring_yaml(ring)}\nn: {n}\nsource: {{construction: {construction}}}\n"
    if shape is not None:
        text += f"shape: {json.dumps(shape)}\n"
    return text


def _generator_spec(ring: tuple, n: int, gens: list, unital: bool) -> str:
    lines = [f"ring: {_ring_yaml(ring)}", f"n: {n}", "source:", "  generators:"]
    for g in gens:
        rows = [[str(v) for v in g[r * n:(r + 1) * n]] for r in range(n)]
        lines.append("    - " + json.dumps(rows))
    lines.append(f"include_identity: {'true' if unital else 'false'}")
    lines.append(f"shape: {json.dumps([1] * n)}")
    return "\n".join(lines) + "\n"


def _skeleton() -> list:
    """(n, unital, generators) per spec: n alternates 3, 4; half the specs
    adjoin the identity; 1-3 sparse upper triangular generators each."""
    rng = random.Random(SKELETON_SEED)
    out = []
    for i in range(EXPLORE_SPECS):
        n = 3 + i % 2
        unital = (i // 2) % 2 == 0
        count = 1 + (i // 4) % 3
        while True:
            gens = []
            for _ in range(count):
                g = [0] * (n * n)
                for r in range(n):
                    for c in range(r, n):
                        if rng.random() < 0.5:
                            g[r * n + c] = rng.choice(SKELETON_VALUES)
                gens.append(g)
            if any(any(g) for g in gens):
                break
        out.append((n, unital, gens))
    return out


def _conjugate(g: list, n: int, d: list, ring: tuple) -> list:
    if ring[0] == "gf":
        p = ring[1]
        inv = [pow(x, -1, p) for x in d]
        return [g[r * n + c] * d[r] * inv[c] % p for r in range(n) for c in range(n)]
    return [Fraction(g[r * n + c] * d[r], d[c]) for r in range(n) for c in range(n)]


def _prove_gf(seed: int, write) -> list:
    gf = ("gf", 101)
    u5 = write("u5", _construction_spec(gf, 5, "{kind: upper_triangular}", [1] * 5))
    return [
        Op(("verify-al", "--n", "4", "--ring", "gf:101"), gf, {"al_identity": True}),
        # the mode is pinned so that raising the exhaustive guard to n = 5
        # does not change what this operation runs
        Op(("verify-al", "--n", "5", "--mode", "randomized", "--trials", "2000",
            "--seed", str(seed), "--ring", "gf:101"), gf, {"al_identity": True}),
        Op(("min-degree", "--spec", u5), gf, {"min_degree": 10}),
    ]


def _explore(seed: int, write, ring: tuple) -> list:
    rng = random.Random(f"{ring[0]}:{seed}")
    ops = []
    for i, (n, unital, gens) in enumerate(_skeleton()):
        if ring[0] == "gf":
            d = [rng.randrange(1, ring[1]) for _ in range(n)]
        else:
            d = [rng.choice(SKELETON_VALUES) for _ in range(n)]
        spec = write(f"c{i:03d}", _generator_spec(
            ring, n, [_conjugate(g, n, d, ring) for g in gens], unital))
        ops.append(Op(("classify", "--spec", spec), ring))
        ops.append(Op(("min-degree", "--spec", spec), ring))
    return ops


def _all_tuples(seed: int, write) -> list:
    rng = random.Random(f"all-tuples:{seed}")
    gf = ("gf", ALL_TUPLES_PRIMES[seed % len(ALL_TUPLES_PRIMES)])
    qq = ("q", None)
    algebras = (
        ("m2", 2, "{kind: full_matrix}", (4, 5)),
        ("u2", 2, "{kind: upper_triangular}", (4, 5)),
        ("u3", 3, "{kind: upper_triangular}", (4, 5)),
        ("e12", 3, "{kind: full_block, shape: [1, 2]}", (4,)),
        ("rep11", 3, "{kind: repetition, l: 1, m: 1}", (4,)),
    )
    ops = []
    for ring, tag in ((gf, "gf"), (qq, "qq")):
        for name, n, construction, degrees in algebras:
            spec = write(f"{name}-{tag}", _construction_spec(ring, n, construction))
            for t in degrees if ring is gf else (4,):
                expect = {"sign_vector": t} if name == "m2" and t == 4 else {}
                ops.append(Op(("identity-space", "--spec", spec, "--t", str(t)), ring, expect))
    for m, gens in ZMOD_IDEAL_GENS.items():
        ring = ("zmod", m)
        g = rng.choice(gens)
        for n in (2, 3):
            spec = write(f"b{n}-z{m}", _construction_spec(
                ring, n, f"{{kind: constrained_triangular, ideal_gen: {g}}}"))
            argv = ("min-degree", "--spec", spec)
            if n == 3:
                argv += ("--t-max", str(ZMOD_N3_T_MAX))
            ops.append(Op(argv, ring))
    return ops


def build(workload: str, seed: int, work_dir: Path) -> list:
    """Write the workload's spec files for this seed and return its operations."""
    spec_dir = Path(work_dir) / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = spec_dir / f"{name}.yaml"
        path.write_text(text)
        return str(path)

    if workload == "prove-gf":
        return _prove_gf(seed, write)
    if workload == "explore-gf":
        return _explore(seed, write, ("gf", 101))
    if workload == "explore-qq":
        return _explore(seed, write, ("q", None))
    if workload == "all-tuples":
        return _all_tuples(seed, write)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _setup_main(argv: list) -> int:
    workload, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import matpi.cli  # the import is what set-up measures

    import_s = time.perf_counter() - started
    build(workload, seed, work_dir)
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(_setup_main(sys.argv[1:]))
