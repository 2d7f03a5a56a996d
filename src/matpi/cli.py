"""Command line front door.

Subcommands: verify-al, classify, min-degree, identity-space, lemma-suite,
bench.  Reports come in a human text form (default) and a structured JSON
form (--out structured); the JSON form is byte-stable for fixed inputs and
seed (wall-clock timings only appear under --timings).

Exit codes: 0 all checks consistent, 1 usage or input error, 2 a checked
mathematical claim failed (never expected).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .blocks import (
    BlockShape,
    FullBlockTriangular,
    NotCanonical,
    SatisfiesLowDegree,
    classify,
    staircase_units,
)
from .constructions import (
    SpanningSetAlgebra,
    constrained_triangular,
    diagonal_algebra,
    full_matrix_algebra,
    repetition_algebra,
)
from .errors import ContractViolationError, MatpiError
from .identities import (
    block_assembly_check,
    format_matrix,
    is_standard_identity,
    min_standard_degree,
    multilinear_identity_space,
    standard_sign_vector,
    ur_vanishing_check,
)
from .matrices import matrix_unit
from .rings import GF, QQ, Ring, Zmod, ring_from_params
from .specfile import build_algebra, load_algebra_spec
from .standardpoly import (
    consecutive_factor_sum,
    eval_standard_dp,
    eval_standard_naive,
    product_of,
)
from .subalgebra import SubalgebraBasis

DEFAULT_RING = "gf:101"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for failed
    # claim checks here, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_ring_flag(text: str) -> Ring:
    s = text.strip().lower()
    if ":" in s:
        kind, _, mod = s.partition(":")
        try:
            return ring_from_params(kind, int(mod))
        except ValueError:
            raise MatpiError(f"bad ring flag {text!r}; use q, gf:<p>, or zmod:<m>") from None
    if s in ("q", "qq", "rationals"):
        return QQ
    raise MatpiError(f"bad ring flag {text!r}; use q, gf:<p>, or zmod:<m>")


def _check(name: str, status: str, summary: str, detail=None) -> dict:
    out = {"name": name, "status": status, "summary": summary}
    if detail is not None:
        out["detail"] = detail
    return out


def _digest_of_params(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def verdict_to_dict(v) -> dict:
    if isinstance(v, FullBlockTriangular):
        return {
            "kind": "full-block-triangular",
            "shape": list(v.shape.parts),
            "witness": {
                "degree": v.witness.degree,
                "mats": [format_matrix(m) for m in v.witness.mats],
                "value": format_matrix(v.witness.value),
            },
        }
    if isinstance(v, SatisfiesLowDegree):
        r = v.reason
    elif isinstance(v, NotCanonical):
        return {
            "kind": "not-canonical",
            "basis_index": v.basis_index,
            "row": v.row,
            "col": v.col,
        }
    else:
        raise TypeError(f"not a classification verdict: {v!r}")
    out = {"kind": "satisfies-low-degree", "reason": type(r).__name__}
    for field in ("block_index", "first", "second", "coupling_index"):
        if hasattr(r, field):
            out[field] = getattr(r, field)
    return out


def render_report(report: dict, out_format: str) -> str:
    if out_format == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"matpi {report['artifact']['version']} - {report['command']['subcommand']}"]
    lines.append(f"input digest: {report['input_digest'][:16]}...")
    if report.get("seed") is not None:
        lines.append(f"seed: {report['seed']}")
    for chk in report["checks"]:
        tag = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[chk["status"]]
        lines.append(f"[{tag}] {chk['name']}: {chk['summary']}")
    if report.get("wall_time_ms") is not None:
        lines.append(f"wall time: {report['wall_time_ms']} ms")
    return "\n".join(lines) + "\n"


def finish(report: dict, args, started: float) -> int:
    report["wall_time_ms"] = (
        round((time.perf_counter() - started) * 1e3, 3) if args.timings else None
    )
    sys.stdout.write(render_report(report, args.out))
    failed = any(c["status"] == "fail" for c in report["checks"])
    return 2 if failed else 0


def _base_report(subcommand: str, params: dict, digest: str, seed) -> dict:
    return {
        "artifact": {"name": "matpi", "version": __version__},
        "command": {"subcommand": subcommand, **params},
        "input_digest": digest,
        "seed": seed,
        "checks": [],
    }


# -- verify-al ----------------------------------------------------------------

def cmd_verify_al(args) -> int:
    started = time.perf_counter()
    ring = parse_ring_flag(args.ring)
    if not ring.is_field:
        raise MatpiError(f"verify-al needs a field, not {ring.name}")
    n = args.n
    if n < 1:
        raise MatpiError(f"need n >= 1, got {n}")
    mode = args.mode or ("exhaustive" if n <= 4 else "randomized")
    if mode == "exhaustive" and n > 4:
        raise MatpiError(
            f"exhaustive sweeps are guarded to n <= 4 (C(n^2, 2n) grows too fast); "
            f"use --mode randomized for n = {n}"
        )
    params = {"n": n, "ring": ring.name, "mode": mode, "trials": args.trials,
              "threads": args.threads}
    report = _base_report("verify-al", params, _digest_of_params(params), args.seed)
    timing = args.timings
    mn = full_matrix_algebra(ring, n)

    rep = is_standard_identity(mn, 2 * n, mode=mode, trials=args.trials,
                               seed=args.seed, threads=args.threads)
    report["checks"].append(_check(
        "al-identity", "pass" if rep.is_identity else "fail",
        f"s_{2 * n} on M_{n} over {ring.name}: {rep.verdict} "
        f"({rep.tuples_checked} tuples, {rep.mode})",
        rep.to_dict(timing),
    ))

    if n >= 2:
        rep = is_standard_identity(mn, 2 * n - 2, mode=mode, trials=args.trials,
                                   seed=args.seed, threads=args.threads)
        report["checks"].append(_check(
            "below-degree-witness", "pass" if not rep.is_identity else "fail",
            f"s_{2 * n - 2} on M_{n}: {rep.verdict}"
            + (f", witness after {rep.tuples_checked} tuples" if rep.witness else ""),
            rep.to_dict(timing),
        ))
    else:
        report["checks"].append(_check(
            "below-degree-witness", "info",
            "n = 1: no degree below 2 to test", None,
        ))

    stairs = staircase_units(ring, n)
    value = eval_standard_dp(stairs)
    expected = matrix_unit(ring, n, 1, n)
    report["checks"].append(_check(
        "odd-degree-witness", "pass" if not value.is_zero() else "fail",
        f"s_{2 * n - 1} on the staircase sequence is nonzero",
        {"degree": 2 * n - 1, "value": format_matrix(value)},
    ))
    report["checks"].append(_check(
        "staircase-value", "pass" if value == expected else "fail",
        f"s_{2 * n - 1}(staircase) = e_(1,{n}) exactly",
        {"value": format_matrix(value), "expected": format_matrix(expected)},
    ))
    return finish(report, args, started)


# -- classify -----------------------------------------------------------------

def cmd_classify(args) -> int:
    started = time.perf_counter()
    spec = load_algebra_spec(args.spec)
    if spec.shape is None:
        raise MatpiError("classify needs a shape field in the spec file")
    alg = build_algebra(spec)
    if isinstance(alg, SpanningSetAlgebra):
        raise MatpiError(
            f"classification needs a field; {alg.ring.name} spanning-set "
            f"descriptors cannot be classified"
        )
    params = {"spec": spec.path, "mode": args.mode, "trials": args.trials,
              "threads": args.threads}
    report = _base_report("classify", params, spec.digest, args.seed)
    timing = args.timings

    verdict = classify(alg, spec.shape)
    report["checks"].append(_check(
        "classification", "info",
        f"{alg.label} against shape {spec.shape}: {verdict.describe()}",
        verdict_to_dict(verdict),
    ))

    n = alg.n
    if isinstance(verdict, NotCanonical):
        report["checks"].append(_check(
            "identity-cross-check", "info",
            "skipped: algebra is not block upper triangular for the shape", None,
        ))
    elif n < 2:
        report["checks"].append(_check(
            "identity-cross-check", "info", "skipped: 2n-2 < 2 for n = 1", None,
        ))
    else:
        rep = is_standard_identity(alg, 2 * n - 2, mode=args.mode, trials=args.trials,
                                   seed=args.seed, threads=args.threads)
        full = isinstance(verdict, FullBlockTriangular)
        consistent = full == (not rep.is_identity)
        report["checks"].append(_check(
            "identity-cross-check", "pass" if consistent else "fail",
            f"s_{2 * n - 2} {rep.verdict} vs verdict {verdict.describe()}: "
            + ("consistent" if consistent else "THEOREM CONTRADICTION"),
            rep.to_dict(timing),
        ))
    return finish(report, args, started)


# -- min-degree ---------------------------------------------------------------

def cmd_min_degree(args) -> int:
    started = time.perf_counter()
    spec = load_algebra_spec(args.spec)
    alg = build_algebra(spec)
    t_max = args.t_max if args.t_max is not None else 2 * alg.n
    params = {"spec": spec.path, "t_max": t_max, "threads": args.threads}
    report = _base_report("min-degree", params, spec.digest, None)
    result = min_standard_degree(alg, t_max=t_max, threads=args.threads)
    summary = (
        f"{alg.label}: minimal standard degree {result.degree}"
        if result.degree is not None
        else f"{alg.label}: no standard identity up to degree {t_max}"
    )
    per_degree = ", ".join(f"s_{r.degree}:{r.verdict}" for r in result.reports)
    report["checks"].append(_check(
        "min-degree", "info", f"{summary} ({per_degree})",
        result.to_dict(args.timings),
    ))
    return finish(report, args, started)


# -- identity-space -------------------------------------------------------------

def cmd_identity_space(args) -> int:
    started = time.perf_counter()
    if args.spec:
        spec = load_algebra_spec(args.spec)
        alg = build_algebra(spec)
        digest = spec.digest
        params = {"spec": spec.path, "t": args.t}
    elif args.n:
        ring = parse_ring_flag(args.ring)
        alg = full_matrix_algebra(ring, args.n)
        params = {"n": args.n, "ring": ring.name, "t": args.t}
        digest = _digest_of_params(params)
    else:
        raise MatpiError("identity-space needs --spec or --n")
    if isinstance(alg, SpanningSetAlgebra):
        raise MatpiError("identity spaces need a field-backed basis")
    report = _base_report("identity-space", params, digest, None)
    space = multilinear_identity_space(alg, args.t)
    summary = f"{alg.label}, degree {args.t}: dimension {space.dimension}"
    if space.dimension == 1:
        vec = space.basis[0]
        signs = standard_sign_vector(alg.ring, args.t)
        neg = tuple(alg.ring.neg(c) for c in signs)
        if vec in (signs, neg):
            summary += " (spanned by the permutation-sign vector)"
    report["checks"].append(_check(
        "identity-space", "info", summary, space.to_dict(args.timings),
    ))
    return finish(report, args, started)


# -- lemma-suite ----------------------------------------------------------------

def _consecutive_factor_configs(ring, trials, seed):
    """Partial-sum collapse: for odd window length r, the sum of the s_m
    monomials containing the fixed consecutive run equals the lower-degree
    standard polynomial with the windowed product as one argument."""
    import random as _random

    rng = _random.Random(seed)
    n = 2
    failures = 0
    checked = 0
    for (m, r) in ((4, 3), (5, 3), (6, 3), (6, 5)):
        for _ in range(trials):
            mats = []
            for _k in range(m):
                entries = [rng.randrange(ring.p) if ring.kind == "prime_field"
                           else rng.randint(-9, 9) for _ in range(n * n)]
                from .matrices import Matrix

                mats.append(Matrix(ring, n, n, entries))
            offset = rng.randrange(m - r + 1)
            lhs = consecutive_factor_sum(mats, offset, r)
            collapsed = mats[:offset] + [product_of(mats[offset : offset + r])] + mats[offset + r :]
            rhs = eval_standard_naive(collapsed) if len(collapsed) <= 8 else eval_standard_dp(collapsed)
            checked += 1
            if lhs != rhs:
                failures += 1
    return checked, failures


def cmd_lemma_suite(args) -> int:
    started = time.perf_counter()
    ring = GF(101)
    params = {"trials": args.trials, "threads": args.threads, "ring": ring.name}
    report = _base_report("lemma-suite", params, _digest_of_params(params), args.seed)
    timing = args.timings

    checked, failures = _consecutive_factor_configs(ring, 100, args.seed)
    report["checks"].append(_check(
        "consecutive-factor-window", "pass" if failures == 0 else "fail",
        f"window partial sums collapse to the contracted standard polynomial "
        f"({checked} random instances, (m,r) in (4,3),(5,3),(6,3),(6,5))",
        {"checked": checked, "failures": failures},
    ))

    for (l, m) in ((1, 1), (1, 2), (2, 1)):
        rep = ur_vanishing_check(ring, l, m, trials=200, seed=args.seed)
        report["checks"].append(_check(
            f"ur-corner-vanishing({l},{m})", "pass" if rep.status == "ok" else "fail",
            f"upper-right corner of s_{rep.degree} vanishes on {rep.trials} "
            f"zero-corner tuples ({rep.violations} violations)",
            rep.to_dict(timing),
        ))

    for (l, m) in ((1, 1), (1, 2), (2, 1)):
        alg = repetition_algebra(ring, l, m)
        rep = is_standard_identity(alg, 2 * (l + m), threads=args.threads)
        report["checks"].append(_check(
            f"corner-repeated-identity({l},{m})", "pass" if rep.is_identity else "fail",
            f"{alg.label} (dim {alg.dim}) satisfies s_{2 * (l + m)} "
            f"({rep.tuples_checked} combinations)",
            rep.to_dict(timing),
        ))

    assemblies = (
        (full_matrix_algebra(ring, 1), full_matrix_algebra(ring, 1), 2, 2),
        (full_matrix_algebra(ring, 1), full_matrix_algebra(ring, 2), 2, 4),
        (diagonal_algebra(ring, 2), full_matrix_algebra(ring, 1), 2, 2),
    )
    for top, bottom, q, r in assemblies:
        rep = block_assembly_check(top, bottom, q, r, trials=args.trials, seed=args.seed)
        report["checks"].append(_check(
            f"block-assembly({top.n},{bottom.n},q={q},r={r})",
            "pass" if rep.status == "ok" else "fail",
            f"s_{q + r} vanishes on {rep.trials} assemblies of {top.label} over "
            f"{bottom.label} ({rep.violations} violations)",
            rep.to_dict(timing),
        ))

    for n in (2, 3):
        b = constrained_triangular(Zmod(4), n, 2)
        rep = is_standard_identity(b, 2 * n - 2)
        found = rep.witness is not None
        summary = f"{b.label}: s_{2 * n - 2} has a nonzero value over Z/4"
        if found:
            summary += f" (witness at spanning indices {rep.witness.indices})"
        report["checks"].append(_check(
            f"mod-ring-witness(n={n})", "pass" if found else "fail", summary,
            rep.to_dict(timing),
        ))
    return finish(report, args, started)


# -- bench ----------------------------------------------------------------------

def cmd_bench(args) -> int:
    started = time.perf_counter()
    ring = parse_ring_flag(args.ring)
    n, t = args.n, args.t
    if t < 2 or n < 1:
        raise MatpiError(f"need t >= 2 and n >= 1, got t={t}, n={n}")
    params = {"n": n, "t": t, "ring": ring.name}
    report = _base_report("bench", params, _digest_of_params(params), args.seed)
    import random as _random

    rng = _random.Random(args.seed)
    from .matrices import Matrix

    def random_mats():
        out = []
        for _ in range(t):
            entries = [rng.randrange(ring.p) if ring.kind == "prime_field"
                       else rng.randint(-9, 9) for _ in range(n * n)]
            out.append(Matrix(ring, n, n, entries))
        return out

    rows = []
    naive_rate = None
    if t <= 8:
        tuples = [random_mats() for _ in range(4)]
        count = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            eval_standard_naive(tuples[count % len(tuples)])
            count += 1
        naive_rate = count / (time.perf_counter() - t0)
        rows.append(("naive", t, n, ring.name, round(naive_rate, 2)))

    dp_rate = None
    if ring.kind == "prime_field":
        from . import fastpath

        if fastpath.supports(ring.p, n, t):
            import numpy as np

            nprng = np.random.default_rng(args.seed)
            B = fastpath.suggested_batch(t, n)
            stack = nprng.integers(0, ring.p, size=(t, B, n, n), dtype=np.int64)
            t0 = time.perf_counter()
            reps = 0
            while time.perf_counter() - t0 < 0.5:
                fastpath.dp_batch(stack, ring.p)
                reps += 1
            dp_rate = reps * B / (time.perf_counter() - t0)
    if dp_rate is None:
        tuples = [random_mats() for _ in range(4)]
        count = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            eval_standard_dp(tuples[count % len(tuples)])
            count += 1
        dp_rate = count / (time.perf_counter() - t0)
    rows.append(("dp", t, n, ring.name, round(dp_rate, 2)))

    table = [{"evaluator": ev, "t": tt, "matrix_size": nn, "field": rr,
              "evals_per_second": rate} for (ev, tt, nn, rr, rate) in rows]
    summary = "; ".join(f"{r['evaluator']}: {r['evals_per_second']:.0f} evals/s" for r in table)
    if naive_rate:
        summary += f"; dp/naive = {dp_rate / naive_rate:.1f}x"
    report["checks"].append(_check("bench", "info", summary, {"table": table}))
    return finish(report, args, started)


# -- parser ---------------------------------------------------------------------

def _add_common(sp, spec=False, ring=True, seeded=True):
    if spec:
        sp.add_argument("--spec", required=True, help="algebra spec file (YAML)")
    if ring:
        sp.add_argument("--ring", default=DEFAULT_RING,
                        help="coefficient ring: q, gf:<p>, zmod:<m> (default gf:101)")
    if seeded:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=2000,
                        help="randomized-mode tuple count")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", choices=("text", "structured"), default="text")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock fields (breaks byte-stability)")


def build_parser() -> _Parser:
    p = _Parser(prog="matpi", description="Exact tests of standard polynomial "
                "identities on subalgebras of matrix algebras.")
    p.add_argument("--version", action="version", version=f"matpi {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True, metavar="command")

    sp = sub.add_parser("verify-al", help="Amitsur-Levitski suite on M_n",
                        description="Check s_2n (identity), s_2n-2 and s_2n-1 "
                        "(witnessed non-identities), and the exact staircase value.")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "randomized"), default=None,
                    help="default: exhaustive for n <= 4, randomized beyond")
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify_al)

    sp = sub.add_parser("classify", help="classification verdict + identity cross-check")
    sp.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive")
    _add_common(sp, spec=True, ring=False)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("min-degree", help="minimal degree with s_t an identity")
    sp.add_argument("--t-max", type=int, default=None, dest="t_max",
                    help="sweep bound (default 2n)")
    _add_common(sp, spec=True, ring=False, seeded=False)
    sp.set_defaults(fn=cmd_min_degree)

    sp = sub.add_parser("identity-space", help="all multilinear identities of one degree")
    sp.add_argument("--spec", default=None, help="algebra spec file (YAML)")
    sp.add_argument("--n", type=int, default=None, help="use the full matrix algebra M_n")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--ring", default=DEFAULT_RING)
    sp.add_argument("--out", choices=("text", "structured"), default="text")
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(fn=cmd_identity_space)

    sp = sub.add_parser("lemma-suite", help="randomized + exhaustive checks of the "
                        "block lemmas and the Z/4 witnesses")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", choices=("text", "structured"), default="text")
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(fn=cmd_lemma_suite)

    sp = sub.add_parser("bench", help="evaluator throughput table")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--t", type=int, default=8)
    _add_common(sp)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ContractViolationError as e:
        print(f"matpi: claim check failed: {e}", file=sys.stderr)
        return 2
    except MatpiError as e:
        print(f"matpi: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
