"""The matpi benchmark: one workload per process, as a user drives matpi.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; matpi is imported from the checkout's
`src/` and nowhere else.  Each operation is an in-process call of
`matpi.cli.main(argv + ["--out", "structured"])` with stdout captured, on
spec files generated from the seed (see workloads.py).  BLAS and OpenMP
threads are pinned to 1 and `--threads` is never passed.

A run with --trace 0:
  1. set-up, timed SETUP_SAMPLES times in fresh interpreters (import
     matpi.cli and write the workload's specs), median reported as setup_s;
  2. an untimed warm-up: the workload's operations in order until
     WARMUP_S seconds have passed or the list ends;
  3. timed passes over all operations, until they have taken --seconds;
     wall_s is the median pass time, and the operation latencies of all
     passes give op_p50_ms and op_p90_ms;
  4. outside the timed region, the output checks (checker.py) on every
     distinct output, the checker's self-test on a corrupted witness, and
     the determinism digest of every pass.

A run with --trace 1 does steps 1 and 2, one untraced pass, then one pass
with every matpi module wrapped (tracing.py), and reports the per-layer
metrics.  Spans are written to perfbench/out/<workload>-s<seed>/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation fails when it
raises, exits nonzero, or fails the output checks; `correct` is false when
the checks find a wrong output, the self-test misses its corruption, or
the digest differs between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"
SETUP_SAMPLES = 7
WARMUP_S = 2.0
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit); "<span>.<stat>" names come from the trace summary
PER_LAYER = (
    ("fastpath.dp_batch.calls", "count"),
    ("fastpath.dp_batch.total_s", "s"),
    ("fastpath.dp_batch.items", "count"),
    ("fastpath.dp_batch.matmuls", "count"),
    ("fastpath.dp_batch.peak_layer_mb", "MB"),
    ("sweep.tuples_checked", "count"),
    ("sweep.tuple_space", "count"),
    ("sweep.tuples_per_s", "1/s"),
    ("identities.is_standard_identity.calls", "count"),
    ("identities.is_standard_identity.self_s", "s"),
    ("identities.is_standard_identity.total_s", "s"),
    ("standardpoly.eval_standard_naive.calls", "count"),
    ("standardpoly.eval_standard_naive.total_s", "s"),
    ("fastpath.naive_single.calls", "count"),
    ("fastpath.naive_single.total_s", "s"),
    ("standardpoly.eval_standard_dp.calls", "count"),
    ("standardpoly.eval_standard_dp.total_s", "s"),
    ("matrices.mul_flat.calls", "count"),
    ("matrices.mul_flat.total_s", "s"),
    ("matrices.Echelon.insert.calls", "count"),
    ("matrices.Echelon.insert.total_s", "s"),
    ("identities.multilinear_identity_space.calls", "count"),
    ("identities.multilinear_identity_space.total_s", "s"),
    ("identity_space.tuples_swept", "count"),
    ("subalgebra.close_generators.calls", "count"),
    ("subalgebra.close_generators.total_s", "s"),
    ("subalgebra.jacobson_radical.calls", "count"),
    ("subalgebra.jacobson_radical.total_s", "s"),
    ("blocks.classify.calls", "count"),
    ("blocks.classify.self_s", "s"),
    ("specfile.load_algebra_spec.total_s", "s"),
    ("specfile.build_algebra.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
# per-layer metrics computed from argument shapes, not measured
COMPUTED = ("fastpath.dp_batch.matmuls", "fastpath.dp_batch.peak_layer_mb")


@dataclass
class Result:
    rc: int
    out: str
    err: str
    seconds: float


def run_op(cli, op: workloads.Op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv) + ["--out", "structured"])
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # noqa: BLE001 - an operation that raises is counted as failed
        rc = -1
        err.write(traceback.format_exc())
    return Result(rc, out.getvalue(), err.getvalue(), time.perf_counter() - started)


def run_pass(cli, ops: list, tracer=None) -> tuple:
    results = []
    started = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        results.append(run_op(cli, op))
    return time.perf_counter() - started, results


def warm_up(cli, ops: list) -> list:
    results = []
    started = time.perf_counter()
    for op in ops:
        results.append(run_op(cli, op))
        if time.perf_counter() - started >= WARMUP_S:
            break
    return results


def timed_passes(cli, ops: list, seconds: float) -> list:
    """(wall, results) per pass, until the passes have taken `seconds`."""
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        wall, results = run_pass(cli, ops)
        passes.append((wall, results))
        spent += wall
    return passes


class SetupError(Exception):
    pass


def measure_setup(workload: str, seed: int, work: Path) -> tuple:
    """Median wall time and median import time of SETUP_SAMPLES fresh set-ups."""
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path("perfbench") / "workloads.py"), workload, str(seed), str(work)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise SetupError(proc.stderr.strip() or f"set-up exited {proc.returncode}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def parse_doc(result: Result):
    try:
        return json.loads(result.out) if result.out else None
    except json.JSONDecodeError:
        return None


class Verdicts:
    """Outputs of every pass: digests per pass, checks once per distinct output."""

    def __init__(self, ops: list):
        self.ops = ops
        self.problems: dict = {}      # (op index, output) -> list of problems
        self.docs: dict = {}          # (op index, output) -> parsed report
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def doc(self, i: int, r: Result):
        key = (i, r.out)
        if key not in self.docs:
            self.docs[key] = parse_doc(r)
        return self.docs[key]

    def digests(self, results: list) -> list:
        return [checker.op_digest(r.rc, self.doc(i, r)) for i, r in enumerate(results)]

    def check(self, results: list) -> None:
        """Count attempted and failed operations of one timed pass."""
        for i, r in enumerate(results):
            key = (i, r.out)
            doc = self.doc(i, r)
            if key not in self.problems:
                op = self.ops[i]
                self.problems[key] = (checker.check_report(doc, op.ring, op.expect)
                                      if doc is not None else [])
            self.attempted += 1
            reason = failure_reason(r, doc, self.problems[key])
            if reason is not None:
                self.failed += 1
                self.reasons[f"{self.ops[i].argv[0]}: {reason}"] += 1

    def wrong_outputs(self) -> list:
        return [(i, p) for (i, _), probs in self.problems.items() for p in probs]

    def self_test(self) -> str:
        """Corrupt the first witness among the outputs; the checks must catch it."""
        for (i, _), doc in sorted(self.docs.items(), key=lambda kv: kv[0][0]):
            bad = checker.corrupt_first_witness(doc) if doc is not None else None
            if bad is None:
                continue
            op = self.ops[i]
            caught = checker.check_report(bad, op.ring, op.expect)
            if caught:
                return f"ok: a corrupted witness value in operation {i} was counted as failed ({caught[0]})"
            return f"FAILED: a corrupted witness value in operation {i} passed the checks"
        return "FAILED: no output carries a witness to corrupt"


def failure_reason(r: Result, doc, problems: list):
    if problems:
        return f"output check: {problems[0]}"
    if r.rc == 0 and doc is not None:
        return None
    if r.rc == 2 and doc is not None:
        failed = [c["name"] for c in doc.get("checks", []) if c.get("status") == "fail"]
        return f"exit 2 ({', '.join(failed)})"
    first = (r.err.strip().splitlines() or ["no output"])[-1]
    return f"exit {r.rc} ({first})"


def quantile_ms(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def report_tuples(docs) -> dict:
    """Sums over the identity reports and identity spaces in the outputs."""
    sums = {"tuples_checked": 0, "tuple_space": 0, "tuples_swept": 0}
    for doc in docs:
        for d in checker.walk(doc) if doc is not None else ():
            if "verdict" in d and "tuples_checked" in d:
                sums["tuples_checked"] += d["tuples_checked"]
                sums["tuple_space"] += d.get("tuple_space", 0)
            if "tuples_swept" in d:
                sums["tuples_swept"] += d["tuples_swept"]
    return sums


def emit(line: str) -> None:
    print(line, flush=True)


def metric_line(name: str, value, unit: str, note: str = "") -> None:
    shown = "absent" if value is None else f"{value:.6g}"
    emit(f"{name:<46} {shown:>14} {unit:<6} {note}".rstrip())


def run_workload(args) -> int:
    work = OUT / f"{args.workload}-s{args.seed}"
    try:
        setup_s, import_s = measure_setup(args.workload, args.seed, work)
    except SetupError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import matpi
    import matpi.cli as cli

    ops = workloads.build(args.workload, args.seed, work)
    verdicts = Verdicts(ops)
    emit(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
         f"ops/pass={len(ops)}: {workloads.WHY[args.workload]}")

    warm = warm_up(cli, ops)
    if args.trace:
        passes = [run_pass(cli, ops)]
        import tracing

        tracer = tracing.Tracer()
        tracer.install(matpi)
        traced_wall, traced = run_pass(cli, ops, tracer)
    else:
        passes = timed_passes(cli, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- outside the timed region: digests, checks, self-test ----------------
    pass_digests = []
    for _, results in passes:
        pass_digests.append(verdicts.digests(results))
        verdicts.check(results)
    warm_digests = verdicts.digests(warm)
    if args.trace:
        pass_digests.append(verdicts.digests(traced))
        verdicts.check(traced)
    deterministic = (all(d == pass_digests[0] for d in pass_digests)
                     and warm_digests == pass_digests[0][:len(warm_digests)])
    digest = checker.pass_digest(pass_digests[0])
    wrong = verdicts.wrong_outputs()
    self_test = verdicts.self_test()
    correct = deterministic and not wrong and self_test.startswith("ok")

    walls = [w for w, _ in passes]
    latencies = [r.seconds for _, results in passes for r in results]
    fail_ratio = verdicts.failed / verdicts.attempted
    emit(f"passes: {len(passes)} timed{' untraced + 1 traced' if args.trace else ''}, "
         f"warm-up {len(warm)} operations, {len(latencies)} latency samples")

    if args.trace:
        metrics = per_layer_metrics(args, tracer, traced_wall, walls[0], import_s,
                                    [verdicts.doc(i, r) for i, r in enumerate(traced)], work)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": quantile_ms(latencies, 50),
            "op_p90_ms": quantile_ms(latencies, 90),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        beyond = sum(1 for s in latencies if s * 1e3 > metrics["op_p90_ms"])
        notes = {
            "wall_s": f"median of {len(walls)} passes of {len(ops)} operations",
            "op_p50_ms": f"{len(latencies)} samples",
            "op_p90_ms": f"{len(latencies)} samples, {beyond} beyond",
            "peak_rss_mb": "getrusage(RUSAGE_SELF) of this process",
            "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters, import {import_s:.4f} s",
        }
        for name, unit in END_TO_END:
            metric_line(name, metrics[name], unit, notes[name])
    metric_line("fail_ratio", fail_ratio, "ratio",
                f"{verdicts.failed} of {verdicts.attempted} operations failed")
    for reason, count in sorted(verdicts.reasons.items()):
        emit(f"  failed x{count}: {reason}")
    emit(f"digest {digest} ({'equal' if deterministic else 'DIFFERENT'} across "
         f"{len(pass_digests)} passes and the warm-up)")
    emit(f"checks: {len(verdicts.problems)} distinct outputs, {len(wrong)} problems; "
         f"self-test {self_test}")
    for i, problem in wrong[:10]:
        emit(f"  wrong output of operation {i} ({' '.join(ops[i].argv)}): {problem}")

    units = dict(END_TO_END + PER_LAYER)
    final = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": (0 if v is None else v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(final), flush=True)
    return 0


def per_layer_metrics(args, tracer, traced_wall: float, untraced_wall: float,
                      import_s: float, docs: list, work: Path) -> dict:
    summary = tracer.summary()
    sums = report_tuples(docs)
    values = {}
    for name, _ in PER_LAYER:
        target, stat = name.rsplit(".", 1)
        values[name] = tracer.metric(summary, target, stat)
    values["sweep.tuples_checked"] = sums["tuples_checked"]
    values["sweep.tuple_space"] = sums["tuple_space"]
    values["identity_space.tuples_swept"] = sums["tuples_swept"]
    sweep_s = values["identities.is_standard_identity.total_s"]
    values["sweep.tuples_per_s"] = sums["tuples_checked"] / sweep_s if sweep_s else None
    values["setup.import_s"] = import_s
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    absent = sorted(k for k, v in values.items() if v is None)
    for name, unit in PER_LAYER:
        metric_line(name, values[name], unit, "computed" if name in COMPUTED else "")
    emit(f"absent: {', '.join(absent) if absent else 'none'}")
    if tracer.hook_errors:
        emit(f"computed counters failed: {tracer.hook_errors}")
    tracer.write(work / "spans.npz")
    (work / "trace-summary.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "spans": len(tracer.name_of),
        "absent": absent, "metrics": values, "computed": list(COMPUTED),
        "layers": summary, "hook_errors": tracer.hook_errors,
    }, indent=1, sort_keys=True) + "\n")
    emit(f"spans: {len(tracer.name_of)} written to {work / 'spans.npz'}")
    return values


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints a table."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path("perfbench") / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    emit("")
    emit(f"{'metric':<54}" + "".join(f"{w:>13}" for w, _ in rows))
    for m, unit in PER_LAYER if args.trace else END_TO_END:
        cells = "".join(f"{r['metrics'][m]['value']:>13.6g}" for _, r in rows)
        emit(f"{m + ' [' + unit + ']':<54}{cells}")
    for key in ("correct", "attempted", "failed"):
        emit(f"{key:<54}" + "".join(f"{str(r[key]):>13}" for _, r in rows))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    if not (SRC / "matpi" / "__init__.py").is_file():
        print(f"perfbench: no matpi sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
