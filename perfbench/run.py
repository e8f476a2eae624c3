"""trialbet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload monitor-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Run it from the root of a checkout; it imports trialbet from ``src/`` there.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass (see README.md).  It prints a table of
every metric and timing, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json`` and a traced run's
spans to ``perfbench/out/spans-<workload>.npz``.  Any failed output check
exits 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
IMPORT_SAMPLES = 3     # cold starts under -X importtime in a traced run
PERCENTILES = (50, 90, 99, 99.9, 99.99)

# The installed ``trialbet`` console script's entry, plus a count of loaded modules.
ENTRY = ("import sys; from trialbet.cli import main; rc = main(sys.argv[1:]); "
         "print('modules_loaded', len(sys.modules), file=sys.stderr); sys.exit(rc)")


def summary(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "percentile": None, "value": None}
    if n <= 50:
        out["samples"] = xs
    for q in PERCENTILES:
        if n * (1 - q / 100) >= 10:
            out["percentile"], out["value"] = q, float(np.percentile(xs, q))
    return out


def environment(workload, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
            "commit": git_commit(), "seed": seed, "sizes": workload.describe()}


def git_commit() -> str:
    """HEAD of the checkout; a source tree outside git has none."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cold_start(args: list[str], checks, importtime: bool = False) -> dict:
    """Wall time of a fresh interpreter running one ``trialbet`` command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", ENTRY, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - t0
    checks.expect(proc.returncode in (0, 10), f"cold start {args[0]} exited {proc.returncode}")
    cumulative = {}
    for match in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", proc.stderr):
        cumulative.setdefault(match.group(2), int(match.group(1)) * 1e-6)
    modules = re.search(r"modules_loaded (\d+)", proc.stderr)
    return {"wall": wall, "modules": int(modules.group(1)) if modules else 0,
            "cli_import": cumulative.get("trialbet", 0.0) + cumulative.get("trialbet.cli", 0.0),
            "sizing_import": cumulative.get("trialbet.simlab.sizing", 0.0)}


def measuring(seconds: float):
    """Yield once per pass: at least once, then while the next pass fits in ``seconds``.

    Successive passes run pinned to successive CPUs of the process's set.  On
    a shared host each virtual CPU has slow and fast spells of its own, lasting
    seconds; rotating makes every run sample all of them alike.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    longest = 0.0
    try:
        for k in itertools.count():
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            t0 = time.perf_counter()
            yield
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() + longest > start + seconds:
                return
    finally:
        os.sched_setaffinity(0, cpus)


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """One benchmark run; returns (result line, full record)."""
    from spans import SpanTable, Tracer, installed
    from workloads import WORKLOADS, Checks, layer_metrics

    OUT.mkdir(exist_ok=True)
    checks = Checks()
    workload = WORKLOADS[name](ROOT, OUT, seed, *([sizes] if sizes else []))
    workload.prepare(checks)
    record = {"workload": name, "trace": int(trace), "environment": environment(workload, seed)}
    setup_args = workload.setup_args()

    if not trace:
        setup, passes = [], []
        for _ in measuring(seconds):  # a cold start before each pass, on the same CPU
            setup.append(cold_start(setup_args, checks)["wall"])
            passes.append(workload.run_pass())
            workload.check_pass(passes[-1], checks, passes[0] if len(passes) > 1 else None)
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "pass_s": (statistics.median(p.wall for p in passes), "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
        timings = {"setup_s": ("s", setup), "pass_s": ("s", [p.wall for p in passes])}
        timings |= workload.detail(passes)
        parts = sorted({k for p in passes for k in p.times})
        timings |= {f"part_s.{k}": ("s", [p.times[k] for p in passes]) for k in parts}
    else:
        starts = [cold_start(setup_args, checks, importtime=True)
                  for _ in zip(range(IMPORT_SAMPLES), measuring(math.inf))]
        untraced, traced = [], []
        for _ in measuring(seconds):  # alternate, so both sides see the same machine
            untraced.append(workload.run_pass())
            workload.check_pass(untraced[-1], checks, untraced[0] if traced else None)
            tracer = Tracer()
            with installed(tracer, workload.trace_targets()):
                traced.append(workload.run_pass(tracer))
            workload.check_pass(traced[-1], checks, untraced[0])  # must reproduce the untraced run
        table = SpanTable(tracer)
        table.save(OUT / f"spans-{name}.npz")
        metrics = layer_metrics(table, workload.layer_inputs(untraced))
        metrics |= {
            "cli.import_s": (statistics.median(s["cli_import"] for s in starts), "s"),
            "sizing.import_s": (statistics.median(s["sizing_import"] for s in starts), "s"),
            "cli.modules_loaded": (starts[0]["modules"], "count"),
            "trace.overhead": (statistics.median(p.wall for p in traced)
                               / statistics.median(p.wall for p in untraced), "ratio"),
        }
        timings = {"untraced_pass_s": ("s", [p.wall for p in untraced]),
                   "traced_pass_s": ("s", [p.wall for p in traced])}
        record["spans"] = {"count": int(table.name.size), "file": f"spans-{name}.npz",
                           "self_us": {n: summary(table.self_time[table.is_named(n)] * 1e-3)
                                       for n in table.names if table.is_named(n).any()}}

    record["timings"] = {k: {"unit": u, **summary(xs)} for k, (u, xs) in timings.items()}
    record["checks"] = {"attempted": checks.attempted, "failures": checks.failures}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": record["metrics"]}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record


def print_record(record: dict) -> None:
    for k, m in record["metrics"].items():
        print(f"metric  {k:36s} {m['value']:14.6g} {m['unit']}")
    for k, s in record["timings"].items():
        tail = f"  p{s['percentile']:g} {s['value']:.6g}" if s["percentile"] else ""
        print(f"timing  {k:36s} {s['median']:14.6g} {s['unit']}  (median of {s['n']}){tail}")
    for failure in record["checks"]["failures"]:
        print(f"FAILED  {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload at tiny sizes and test the checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trialbet" / "__init__.py").is_file():
        print(f"error: no trialbet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import trialbet
    if Path(trialbet.__file__).resolve().parent != ROOT / "src" / "trialbet":
        print(f"error: imported trialbet from {trialbet.__file__}", file=sys.stderr)
        return 2
    if args.selfcheck:
        from selfcheck import selfcheck
        return selfcheck(run, ROOT, OUT)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
