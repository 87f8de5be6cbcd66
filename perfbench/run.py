#!/usr/bin/env python3
"""colreg-risk benchmark harness.

Usage, from the root of a colreg-risk source checkout::

    python3 perfbench/run.py --workload scenario-table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

The harness imports ``colreg_risk`` from ``./src`` and reads the reference
tables from ``./tests``; it refuses to run anywhere else.  Workloads,
metric names, units and bounds are those of ``BENCHMARK.json``.  With
``--trace 0`` it reports the end-to-end metrics measured untraced; with
``--trace 1`` it wraps the library's public functions and reports the
per-layer metrics.  The second-to-last line of standard output is the full
run record (environment, checks, workload detail, counts, tracing
overhead), also written to ``.perfbench_out/``; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
# Stop starting operations after this long so a run ends well inside 180 s.
HARD_LIMIT_S = 140.0


def _require_checkout() -> dict:
    needed = (ROOT / "BENCHMARK.json", ROOT / "src" / "colreg_risk" / "__init__.py",
              ROOT / "tests" / "test_acceptance.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a colreg-risk checkout, missing {missing}")
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    # Identifies the library code even where the checkout is not a git repo.
    digest = hashlib.sha256()
    package = ROOT / "src" / "colreg_risk"
    for path in sorted(p for p in package.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "COLREG_RISK_THREADS": os.environ.get("COLREG_RISK_THREADS"),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }


def setup_probe(args) -> int:
    """Body of one fresh set-up interpreter: import, then load the inputs."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_done = time.perf_counter()
    import scipy.fft  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    scipy_done = time.perf_counter()
    import colreg_risk  # noqa: F401

    imported = time.perf_counter()
    from tracer import NullTracer
    from workloads import WORKLOADS, Checker

    WORKLOADS[args.workload](ROOT, args.seed, args.toy, NullTracer(), Checker()).load()
    print(json.dumps({
        "import_scipy_ms": 1e3 * (scipy_done - numpy_done),
        "import_colreg_risk_ms": 1e3 * (imported - start),
        "load_ms": 1e3 * (time.perf_counter() - imported),
    }))
    return 0


def measure_setup(args, runs: int) -> tuple[list[float], list[dict]]:
    """Wall time of fresh interpreters that import colreg_risk and load inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    walls, probes = [], []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return walls, probes


def run(args, bench: dict) -> dict:
    os.environ["COLREG_RISK_THREADS"] = str(os.cpu_count() or 1)
    # The ISJ-to-Silverman fallback is counted by the traced run instead.
    warnings.filterwarnings("ignore", message="plug-in bandwidth fixed point",
                            category=RuntimeWarning)
    started = time.perf_counter()
    setup_walls, probes = measure_setup(args, 1 if args.toy else SETUP_RUNS)

    from tracer import COMPUTED_COUNTS, NullTracer, Tracer
    from workloads import WORKLOADS, Checker

    check = Checker()
    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.toy, tracer, check)
    workload.load()
    workload.prepare()
    workload.warmup()

    attempted = failed = 0
    errors: list[str] = []

    def attempt(i: int, into: list) -> None:
        nonlocal attempted, failed
        attempted += 1
        before = len(check.failures)
        try:
            into.append(workload.run_op(i))
        except Exception:  # the run goes on; the op counts as failed
            failed += 1
            errors.append(traceback.format_exc(limit=4))
            return
        if len(check.failures) > before:
            failed += 1

    reference: list[dict] = []
    if args.trace:
        for i in range(workload.ref_ops):
            attempt(i, reference)
        tracer.install()
    ops: list[dict] = []
    start = time.perf_counter()
    try:
        i = 0
        while True:
            tracer.op = i
            attempt(i, ops)
            i += 1
            # Start another operation only if, at the mean duration so far,
            # it ends inside the measuring window.
            elapsed = time.perf_counter() - start
            if i >= workload.min_ops and elapsed * (i + 1) / i > args.seconds:
                break
            if time.perf_counter() - started > HARD_LIMIT_S:
                break
    finally:
        if args.trace:
            tracer.uninstall()
    measured_s = time.perf_counter() - start

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": args.trace,
        "toy": args.toy,
        "env": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failures": check.failures[:10],
        "errors": errors[:3],
        "checks_ran": check.ran,
        "setup_runs_s": setup_walls,
        "end_to_end": {
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "job_s": workload.job_s(ops) if ops else None,
        },
        "detail": workload.detail(ops) if ops else {},
    }
    if args.trace:
        count_ops = max(1, min(workload.count_ops, len(ops)))
        layers = tracer.layer_metrics(max(1, len(ops)), count_ops)
        layers["import.colreg_risk.ms"] = statistics.median(
            p["import_colreg_risk_ms"] for p in probes)
        layers["import.scipy.ms"] = statistics.median(p["import_scipy_ms"] for p in probes)
        record["per_layer"] = layers
        record["computed_counts"] = list(COMPUTED_COUNTS)
        record["tracing"] = tracer.summary(count_ops)
        # Traced minus untraced timings of the same first operations.
        shared = min(len(reference), len(ops))
        record["tracing_overhead"] = {
            key: statistics.median(op[key] for op in ops[:shared])
            - statistics.median(op[key] for op in reference[:shared])
            for key in (reference[0] if shared else {})
        }
        spans_path = OUT / f"spans-{args.workload}.csv"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    section = "per_layer" if args.trace else "end_to_end"
    values = record[section]
    correct = failed == 0 and all(check.ran.get(name, 0) > 0 for name in workload.checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in bench[section]},
    }
    with open(OUT / f"record-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record))
    return result


def selfcheck(bench: dict) -> int:
    """Run every workload at toy sizes, traced and untraced, and check that
    every metric of BENCHMARK.json is emitted and every output check ran."""
    from workloads import WORKLOADS

    problems: list[str] = []
    for entry in bench["workloads"]:
        name = entry["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--toy"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{name} --trace {trace}"
            known = len(problems)
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            expected = {m["name"] for m in bench[section]}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if set(result["metrics"]) != expected:
                problems.append(f"{label}: metrics differ by "
                                f"{sorted(expected ^ set(result['metrics']))}")
            absent = set(record.get("tracing", {}).get("absent_layers", []))
            for metric, item in result["metrics"].items():
                if not isinstance(item["value"], (int, float)) and not absent:
                    problems.append(f"{label}: {metric} = {item['value']!r}")
            missed = [c for c in WORKLOADS[name].checks if record["checks_ran"].get(c, 0) < 1]
            if missed:
                problems.append(f"{label}: checks that never ran: {missed}")
            if record["errors"]:
                problems.append(f"{label}: errors {record['errors'][:1]}")
            print(f"[{'ok' if len(problems) == known else '..'}] {label}: {len(result['metrics'])} "
                  f"metrics, checks ran {record['checks_ran']}")

    # Without the library next to it the harness must fail and print no result.
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scenario-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    else:
        print(f"[ok] bare directory: exit {done.returncode}, no result")

    for problem in problems:
        print(f"[FAIL] {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes (self-check)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at toy sizes and check the output format")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = _require_checkout()
    OUT.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.setup_probe:
        return setup_probe(args)
    print(json.dumps(run(args, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
