"""Quick self-check of the benchmark: ``python3 perfbench/run.py --selfcheck``.

Runs every workload at tiny sizes, untraced and traced, and asserts that each
emits exactly the metric names and units BENCHMARK.json lists with every
output check passing.  Then it corrupts real outputs (a perturbed log-e, a
resumed report one ulp off, an implausible rejection rate, a reversed C12
direction, a pass that differs from the first) and asserts that the checks
catch each one.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import math

from workloads import WORKLOADS, Checks, MonitorSizes, OcSizes, Pass, WageSizes, expect_parity

SEED = 7
TINY = {"monitor-stream": MonitorSizes(events_scale=0.08, checkpoint_every=250),
        "oc-study": OcSizes(sims_scale=0.1, parity_reps=1),
        "wage-continuous": WageSizes(n_sims=40, parity_reps=1)}


def _corruptions(name: str, outputs: dict):
    """(what was corrupted, corrupted copy of one pass's outputs)."""
    def edited(fn):
        out = copy.deepcopy(outputs)
        fn(out)
        return out

    if name == "monitor-stream":
        def shift_log_e(o):
            for key in ("report", "resumed_report"):
                o["binary"][key]["log_e_value"] += 1e-9

        def nudge_resumed(o):
            rep = o["deaths"]["resumed_report"]
            rep["log_e_value"] = math.nextafter(rep["log_e_value"], math.inf)

        def fail_exit(o):
            o["survival"]["exit"] = 1

        yield "log-e off the batch replay by 1e-9", edited(shift_log_e)
        yield "resumed report one ulp off", edited(nudge_resumed)
        yield "monitor exit code 1", edited(fail_exit)
    elif name == "oc-study":
        def inflate_null(o):
            o["binary_null"]["rejection_rate"] = 0.5

        def deflate_power(o):
            o["survival_alt"]["rejection_rate"] = 0.1

        yield "null rejection rate above Ville's bound", edited(inflate_null)
        yield "survival power outside the C10 band", edited(deflate_power)
    else:
        def reverse(o):
            o["adaptive"]["power"] = o["sign-only(0.6)"]["power"]

        yield "adaptive power not above sign-only", edited(reverse)


def selfcheck(run, root, out) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for name, sizes in TINY.items():
        for trace in (0, 1):
            result, _ = run(name, SEED, 0.0, bool(trace), sizes)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                f"or their units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: output checks failed on correct code")

        workload = WORKLOADS[name](root, out, SEED, sizes)
        workload.prepare(Checks())
        good = workload.run_pass()
        for what, outputs in _corruptions(name, good.outputs):
            for reference in (None, good):
                checks = Checks()
                workload.check_pass(Pass(good.wall, good.times, outputs), checks, reference)
                if not checks.failures:
                    problems.append(f"{name}: not caught: {what} "
                                    f"({'against pass 1' if reference else 'first pass'})")
    checks = Checks()
    expect_parity(checks, "parity", 1.0, 1.0 + 2e-10)
    if not checks.failures:
        problems.append("a 2e-10 streaming/batch disagreement passed the parity check")

    for p in problems:
        print(f"SELFCHECK FAILED  {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0
