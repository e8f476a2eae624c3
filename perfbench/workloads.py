"""The benchmark's three workloads: seeded inputs, timed passes, output checks.

``monitor-stream`` is the trial statistician's path: in-process
``trialbet.cli.main(["monitor", ...])`` over seeded null NDJSON streams, then
a ``--resume`` from a checkpoint a short tail before the end.  ``oc-study``
and ``wage-continuous`` are the trial designer's path through
``trialbet.simlab.engine``.  Every workload runs single-process.

A workload object makes its inputs from the seed in ``prepare``, runs one
timed pass per ``run_pass`` call, and checks a pass's outputs in
``check_pass``.  The first pass is checked against the statistics; every
later pass, traced or not, must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trialbet import checkpoint, cli
from trialbet.binary import BinaryState
from trialbet.continuous import ContinuousState
from trialbet.core import RampSchedule
from trialbet.deaths import DeathsState
from trialbet.multistate import CONTROL_DAILY, DEFAULT_MODEL, MultistateState
from trialbet.simlab import batch, engine, generators
from trialbet.simlab.scenario import SimScenario, multistate_matrices
from trialbet.simlab.strategies import BettingStrategy
from trialbet.survival import SurvivalRecord, SurvivalState

VARIANTS = ("binary", "deaths", "continuous", "survival", "multistate")
PARITY_TOL = 1e-10  # streaming vs batch log-e, as in the parity tests

GENERATOR_OF = {"binary": "binary_trial", "deaths": "death_stream",
                "continuous": "continuous_trial", "survival": "survival_trial",
                "multistate": "multistate_trial"}
STEP_CLASS = {"binary": BinaryState, "deaths": DeathsState, "continuous": ContinuousState,
              "survival": SurvivalState, "multistate": MultistateState}

# Rejection-rate bands of the acceptance criteria, keyed by scenario file stem:
# (criterion, target, tolerance).  continuous_alt has none: C09b is the
# documented known red and is not re-checked here.
POWER_BANDS = {"binary_alt": ("C06", 0.504, 0.03), "deaths_alt": ("C07", 0.871, 0.03),
               "survival_alt": ("C10", 0.628, 0.04), "multistate_alt": ("C11", 0.893, 0.03)}


class Checks:
    """Counts output checks; each check is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Pass:
    wall: float                                   # seconds the user waited, summed
    times: dict = field(default_factory=dict)     # part label -> seconds
    outputs: dict = field(default_factory=dict)   # what the program printed or returned


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _timed(tracer, span_name, fn, *args):
    if tracer is not None:
        fn = tracer.wrap(span_name, fn)
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# monitor-stream
# ---------------------------------------------------------------------------

# Events per monitor stream, chosen so each backfill takes a similar share of
# a pass (about 0.45 s on the tuning host).  Continuous is short because its
# step is O(n) per event today.
EVENTS = {"binary": 30_000, "deaths": 30_000, "continuous": 2_600, "survival": 26_000,
          "multistate": 25_000}
RESUME_TAIL = 0.01  # a resume starts this share of the events before the end


@dataclass(frozen=True)
class MonitorSizes:
    events_scale: float = 1.0        # multiplies EVENTS
    checkpoint_every: int = 1_000


@dataclass
class _Stream:
    events: int
    full: Path
    head: Path
    extra_args: list[str]
    batch_log_e: float
    ck_head: Path
    ck_full: Path
    ck_resume: Path


def _multistate_names(rng, good: np.ndarray) -> tuple[list[str], list[str]]:
    """From/to state names that classify as ``good`` under the default model."""
    good_pairs = sorted(DEFAULT_MODEL.good)
    bad_pairs = [("Ward", "ICU"), ("Ward", "Dead"), ("ICU", "Dead")]
    pick_good = rng.integers(0, len(good_pairs), good.size)
    pick_bad = rng.integers(0, len(bad_pairs), good.size)
    pairs = [good_pairs[g] if is_good else bad_pairs[b]
             for is_good, g, b in zip(good.tolist(), pick_good.tolist(), pick_bad.tolist())]
    return [a for a, _ in pairs], [b for _, b in pairs]


def monitor_stream_lines(variant: str, rng, n: int):
    """(NDJSON lines, batch replay's final log-e, extra CLI args) of a null stream."""
    if variant == "binary":
        t, y = generators.binary_trial(rng, n, 0.3, 0.3)
        lines = [f'{{"arm": {a}, "outcome": {o}}}' for a, o in zip(t.tolist(), y.tolist())]
        return lines, float(batch.binary_log_wealth(t, y)[-1]), []
    if variant == "deaths":
        arms = generators.death_stream(rng, n, 0.5)
        lines = [f'{{"arm": {a}}}' for a in arms.tolist()]
        return lines, float(batch.deaths_log_wealth(arms)[-1]), []
    if variant == "continuous":
        t, y = generators.continuous_trial(rng, n, 0.0, 0.0, 1.0)
        lines = [json.dumps({"arm": a, "y": v}) for a, v in zip(t.tolist(), y.tolist())]
        return lines, float(batch.continuous_log_wealth(t, y)[0, -1]), []
    if variant == "survival":
        time_, status, t, _ = generators.survival_trial(rng, n, 1.0, censor_upper=25.0)
        order = np.argsort(time_, kind="stable")
        time_, status, t = time_[order], status[order], t[order]
        lines = [json.dumps({"time": x, "status": s, "arm": a})
                 for x, s, a in zip(time_.tolist(), status.tolist(), t.tolist())]
        logw = batch.survival_log_wealth(time_, status, t, presorted=True)
        n_trt = int(t.sum())
        return lines, float(logw[-1]), ["--risk-trt", str(n_trt), "--risk-ctrl", str(n - n_trt)]
    # multistate: a null cohort large enough to give n transitions
    trial = generators.multistate_trial(rng, n, CONTROL_DAILY, CONTROL_DAILY)
    if trial.arms.size < n:
        raise ValueError(f"cohort of {n} gave only {trial.arms.size} transitions")
    good, arms = trial.good[:n], trial.arms[:n]
    frm, to = _multistate_names(rng, good)
    lines = [f'{{"from": "{a}", "to": "{b}", "arm": {c}}}'
             for a, b, c in zip(frm, to, arms.tolist())]
    return lines, float(batch.multistate_log_wealth(good, arms)[-1]), []


def run_monitor(variant: str, args: list[str], tracer=None, span_name=None):
    """In-process ``trialbet monitor``: (exit code, parsed report or None, seconds)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(["monitor", "--variant", variant, *args])

    rc, seconds = _timed(tracer, span_name or f"cli.main:{variant}", call)
    report = json.loads(out.getvalue()) if rc in (0, 10) else None
    return rc, report, seconds


class MonitorStream:
    name = "monitor-stream"

    def __init__(self, root: Path, out: Path, seed: int, sizes: MonitorSizes = MonitorSizes()):
        self.dir, self.seed, self.sizes = out / "monitor-stream", seed, sizes
        self.streams: dict[str, _Stream] = {}

    def describe(self) -> dict:
        return {v: {"events": s.events, "resume_tail": s.events - self._head_len(s.events)}
                for v, s in self.streams.items()} | {"checkpoint_every": self.sizes.checkpoint_every}

    def _head_len(self, n: int) -> int:
        return n - max(1, int(n * RESUME_TAIL))

    def prepare(self, checks: Checks) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for variant, seed in zip(VARIANTS, _child_seeds(self.seed, len(VARIANTS))):
            n = max(1, round(EVENTS[variant] * self.sizes.events_scale))
            lines, log_e, extra = monitor_stream_lines(variant, np.random.default_rng(seed), n)
            s = _Stream(n, self.dir / f"{variant}.ndjson",
                        self.dir / f"{variant}.head.ndjson", extra, log_e,
                        self.dir / f"{variant}.head.ckpt.json",
                        self.dir / f"{variant}.ckpt.json", self.dir / f"{variant}.resume.ckpt.json")
            s.full.write_text("\n".join(lines) + "\n", encoding="utf-8")
            s.head.write_text("\n".join(lines[: self._head_len(n)]) + "\n", encoding="utf-8")
            self.streams[variant] = s
            # the checkpoint every resume starts from, a short tail before the end
            rc, _, _ = run_monitor(variant, self._args(s, s.head, s.ck_head))
            checks.expect(rc in (0, 10), f"monitor {variant} on the head stream exited {rc}")
        (self.dir / "one-event.ndjson").write_text('{"arm": 1, "outcome": 0}\n', encoding="utf-8")

    def setup_args(self) -> list[str]:
        return ["monitor", "--variant", "binary", "--input", str(self.dir / "one-event.ndjson")]

    def _args(self, s: _Stream, source: Path, ckpt_path: Path, resume: bool = False):
        return ["--input", str(source), "--checkpoint", str(ckpt_path),
                "--checkpoint-every", str(self.sizes.checkpoint_every),
                *(["--resume"] if resume else []), *s.extra_args]

    def run_pass(self, tracer=None) -> Pass:
        p = Pass(0.0)
        for v, s in self.streams.items():
            rc, report, sec = run_monitor(v, self._args(s, s.full, s.ck_full), tracer)
            p.times[f"backfill.{v}"] = sec
            shutil.copyfile(s.ck_head, s.ck_resume)
            rc2, report2, sec2 = run_monitor(v, self._args(s, s.full, s.ck_resume, True),
                                             tracer, f"cli.main.resume:{v}")
            p.times[f"resume.{v}"] = sec2
            p.outputs[v] = {"exit": rc, "report": report, "resumed_exit": rc2,
                            "resumed_report": report2}
        p.wall = sum(p.times.values())
        return p

    def check_pass(self, p: Pass, checks: Checks, reference: Pass | None) -> None:
        for v, o in p.outputs.items():
            if reference is not None:
                checks.expect(o == reference.outputs[v], f"monitor {v}: outputs differ from pass 1")
                continue
            s = self.streams[v]
            checks.expect(o["exit"] in (0, 10), f"monitor {v} exited {o['exit']}")
            log_e = o["report"]["log_e_value"] if o["report"] else math.nan
            checks.expect(abs(log_e - s.batch_log_e) <= PARITY_TOL,
                          f"monitor {v}: log-e {log_e!r} vs batch replay {s.batch_log_e!r}")
            checks.expect(o["resumed_exit"] == o["exit"] and o["resumed_report"] == o["report"],
                          f"monitor {v}: resumed report differs from the uninterrupted one")

    def detail(self, passes: list[Pass]) -> dict:
        out = {f"events_per_s.{v}": ("events/s", [s.events / p.times[f"backfill.{v}"]
                                                  for p in passes])
               for v, s in self.streams.items()}
        out["resume_s"] = ("s", [sum(t for k, t in p.times.items() if k.startswith("resume."))
                                 for p in passes])
        return out

    def trace_targets(self):
        return ([(cli, "parse_event", "cli.parse_event"),
                 (checkpoint, "write_checkpoint_file", "checkpoint.write_checkpoint_file"),
                 (checkpoint, "read_checkpoint_file", "checkpoint.read_checkpoint_file")]
                + [(STEP_CLASS[v], "step", f"{v}.step") for v in VARIANTS])

    def layer_inputs(self, passes) -> dict:
        return {"checkpoint_bytes": {v: s.ck_full.stat().st_size for v, s in self.streams.items()}}


# ---------------------------------------------------------------------------
# oc-study
# ---------------------------------------------------------------------------

def streaming_log_e(scenario: SimScenario, rep: int) -> float:
    """Final log-e of one engine replication, replayed event by event.

    Draws the replication as the engine does and feeds it, one event at a
    time, to the streaming state class the live monitor uses.
    """
    p, v = scenario.params, scenario.variant
    rng = engine.rep_rng(scenario.seed, rep)
    sched = RampSchedule(p["burn_in"], p["ramp"])
    common = {"sched": sched, "alpha": scenario.alpha, "record_steps": False}
    if v == "binary":
        t, y = generators.binary_trial(rng, p["n_patients"], p["p_trt"], p["p_ctrl"], p["p_alloc"])
        state = BinaryState(p=p["p_alloc"], **common)
        for yy, tt in zip(y.tolist(), t.tolist()):
            state.step(yy, tt)
    elif v == "deaths":
        state = DeathsState(**common)
        for a in generators.death_stream(rng, p["n_deaths"], p["coin"]).tolist():
            state.step(a)
    elif v == "continuous":
        t, y = generators.continuous_trial(rng, p["n_patients"], p["mu_trt"], p["mu_ctrl"],
                                           p["sd"], p["p_alloc"])
        state = ContinuousState(c_max=p["c_max"], p=p["p_alloc"], **common)
        for yy, tt in zip(y.tolist(), t.tolist()):
            state.step(yy, tt)
    elif v == "survival":
        time_, status, t, entry = generators.survival_trial(
            rng, p["n_patients"], p["hr"], p["shape"], p["scale"], p["censor_upper"],
            p["recruit_period"])
        state = SurvivalState(risk_trt=int(t.sum()), risk_ctrl=int((1 - t).sum()),
                              lambda_max=p["lambda_max"], **common)
        for k in np.argsort(time_ - entry, kind="stable").tolist():
            state.step(SurvivalRecord(float(time_[k] - entry[k]), int(status[k]), int(t[k])))
    else:
        m_trt, m_ctrl = multistate_matrices(p["effect"], p["matrices"])
        trial = generators.multistate_trial(rng, p["n_patients"], m_trt, m_ctrl,
                                            p["start"], p["horizon"])
        state = MultistateState(**common)
        for g, a in zip(trial.good.tolist(), trial.arms.tolist()):
            state.step_classified(g, a)
    return state.ledger.log_wealth


def expect_parity(checks: Checks, what: str, engine_log_e: float, stream_log_e: float) -> None:
    checks.expect(abs(engine_log_e - stream_log_e) <= PARITY_TOL,
                  f"{what}: engine log-e {engine_log_e!r} vs streaming {stream_log_e!r}")


def expect_power(checks: Checks, stem: str, oc: dict) -> None:
    """Ville's bound on the null scenario, the acceptance band on the others.

    The inputs are drawn from the benchmark seed, not the acceptance test's
    seed, so each limit is widened by three standard errors of the estimate.
    """
    rate, n, alpha = oc["rejection_rate"], oc["n_sims"], oc["alpha"]
    if stem.endswith("_null"):
        limit = alpha + 3 * math.sqrt(alpha * (1 - alpha) / n)
        checks.expect(rate <= limit, f"{stem}: rejection rate {rate:.4f} > {limit:.4f}")
    elif stem in POWER_BANDS:
        crit, target, tol = POWER_BANDS[stem]
        limit = tol + 3 * math.sqrt(target * (1 - target) / n)
        checks.expect(abs(rate - target) <= limit,
                      f"{stem} ({crit}): power {rate:.4f} outside {target}+/-{limit:.4f}")


# Replications per committed scenario, chosen so each scenario takes a similar
# share of a pass (about 0.45 s on the tuning host).  Only these scenarios
# run, so a scenario added later does not change the workload.
N_SIMS = {"binary_alt": 2_100, "binary_null": 1_800, "continuous_alt": 340,
          "deaths_alt": 4_900, "multistate_alt": 150, "survival_alt": 1_800}


@dataclass(frozen=True)
class OcSizes:
    sims_scale: float = 1.0        # multiplies N_SIMS
    parity_reps: int = 3           # replications per scenario replayed event by event


class OcStudy:
    name = "oc-study"

    def __init__(self, root: Path, out: Path, seed: int, sizes: OcSizes = OcSizes()):
        self.root, self.seed, self.sizes = root, seed, sizes
        self.scenarios: dict[str, SimScenario] = {}

    def describe(self) -> dict:
        return {stem: {"variant": s.variant, "n_sims": s.n_sims, "seed": s.seed}
                for stem, s in self.scenarios.items()}

    def prepare(self, checks: Checks) -> None:
        for (stem, n_sims), seed in zip(N_SIMS.items(), _child_seeds(self.seed, len(N_SIMS))):
            path = self.root / "scenarios" / f"{stem}.json"
            doc = SimScenario.from_dict(json.loads(path.read_text(encoding="utf-8")))
            n_sims = max(1, round(n_sims * self.sizes.sims_scale))
            sc = SimScenario(doc.variant, dict(doc.params), n_sims, doc.alpha, seed)
            self.scenarios[stem] = sc
            reps = np.random.default_rng(seed).choice(n_sims, min(n_sims, self.sizes.parity_reps),
                                                      replace=False)
            for rep in reps.tolist():
                engine_log_e = float(engine._run_range(sc, rep, rep + 1)[1][0])
                expect_parity(checks, f"{stem} replication {rep}", engine_log_e,
                              streaming_log_e(sc, rep))

    def setup_args(self) -> list[str]:
        return ["simulate", "--scenario", str(self.root / "scenarios" / "binary_null.json"),
                "--sims", "1"]

    def run_pass(self, tracer=None) -> Pass:
        p = Pass(0.0)
        for stem, sc in self.scenarios.items():
            oc, p.times[stem] = _timed(tracer, f"engine.run_operating_characteristics:{sc.variant}",
                                       engine.run_operating_characteristics, sc, 1)
            p.outputs[stem] = oc.to_dict()
        p.wall = sum(p.times.values())
        return p

    def check_pass(self, p: Pass, checks: Checks, reference: Pass | None) -> None:
        for stem, oc in p.outputs.items():
            if reference is not None:
                checks.expect(oc == reference.outputs[stem], f"{stem}: outputs differ from pass 1")
            else:
                expect_power(checks, stem, oc)

    def reps(self) -> dict:
        out = dict.fromkeys(VARIANTS, 0)
        for sc in self.scenarios.values():
            out[sc.variant] += sc.n_sims
        return out

    def detail(self, passes: list[Pass]) -> dict:
        reps = self.reps()
        return {f"reps_per_s.{v}": ("reps/s", [reps[v] / sum(t for stem, t in p.times.items()
                                                             if self.scenarios[stem].variant == v)
                                               for p in passes])
                for v in VARIANTS if reps[v]}

    def trace_targets(self):
        return engine_trace_targets()

    def layer_inputs(self, passes) -> dict:
        lengths: dict[str, list[float]] = {}
        for stem, oc in passes[0].outputs.items():
            lengths.setdefault(oc["variant"], []).append(oc["median_stream_length"])
        return {"reps": self.reps(),
                "stream_len": {v: statistics.median(x) for v, x in lengths.items()}}


def engine_trace_targets():
    return ([(engine, "rep_rng", "engine.rep_rng"),
             (batch, "first_crossing", "batch.first_crossing")]
            + [(generators, GENERATOR_OF[v], f"generators.{GENERATOR_OF[v]}") for v in VARIANTS]
            + [(batch, f"{v}_log_wealth", f"batch.{v}_log_wealth") for v in VARIANTS])


# ---------------------------------------------------------------------------
# wage-continuous
# ---------------------------------------------------------------------------

WAGE_N = 788          # the C12 continuous cell's trial size
WAGE_EFFECT = 0.20    # and its standardized mean difference
WAGE_ALPHA = 0.05


@dataclass(frozen=True)
class WageSizes:
    n_sims: int = 80
    parity_reps: int = 2


class WageContinuous:
    name = "wage-continuous"
    strategies = (BettingStrategy("adaptive"), BettingStrategy("sign-only", 0.6))

    def __init__(self, root: Path, out: Path, seed: int, sizes: WageSizes = WageSizes()):
        self.sizes = sizes
        self.study_seed = _child_seeds(seed, 1)[0]

    def describe(self) -> dict:
        return {"n_sims": self.sizes.n_sims, "n_patients": WAGE_N, "effect": WAGE_EFFECT,
                "seed": self.study_seed}

    def prepare(self, checks: Checks) -> None:
        z = self.sizes
        reps = np.random.default_rng(self.study_seed).choice(z.n_sims, min(z.n_sims, z.parity_reps),
                                                             replace=False)
        # the scenario whose replication r is wage_study's draw for effect 0, trial r
        sc = SimScenario("continuous", {"n_patients": WAGE_N, "mu_trt": WAGE_EFFECT},
                         z.n_sims, WAGE_ALPHA, self.study_seed)
        for rep in reps.tolist():
            trial = generators.continuous_trial(engine.rep_rng(self.study_seed, rep), WAGE_N,
                                                WAGE_EFFECT, 0.0, 1.0)
            _, finals = engine._wage_evaluate("continuous", self.strategies[0], [trial],
                                              WAGE_ALPHA)
            expect_parity(checks, f"wage replication {rep}", finals[0], streaming_log_e(sc, rep))

    def setup_args(self) -> list[str]:
        return ["wage", "--variant", "continuous", "--sims", "1", "--n", "200"]

    def run_pass(self, tracer=None) -> Pass:
        cells, wall = _timed(tracer, "engine.wage_study:continuous", engine.wage_study,
                             "continuous", list(self.strategies), [WAGE_EFFECT], WAGE_N,
                             self.sizes.n_sims, WAGE_ALPHA, self.study_seed)
        return Pass(wall, {"wage": wall}, {c.strategy: c.__dict__ for c in cells})

    def check_pass(self, p: Pass, checks: Checks, reference: Pass | None) -> None:
        if reference is not None:
            checks.expect(p.outputs == reference.outputs, "wage: outputs differ from pass 1")
            return
        adaptive, sign_only = (p.outputs[s.label()]["power"] for s in self.strategies)
        checks.expect(adaptive > sign_only,
                      f"wage (C12): adaptive power {adaptive} not above sign-only {sign_only}")

    def detail(self, passes: list[Pass]) -> dict:
        return {"reps_per_s.continuous": ("reps/s", [self.sizes.n_sims / p.wall for p in passes])}

    def trace_targets(self):
        return engine_trace_targets()

    def layer_inputs(self, passes) -> dict:
        return {"reps": {"continuous": self.sizes.n_sims},
                "stream_len": {"continuous": float(WAGE_N)}}


WORKLOADS = {w.name: w for w in (MonitorStream, OcStudy, WageContinuous)}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

def _median(x) -> float:
    return float(np.median(x)) if len(x) else 0.0


def layer_metrics(t, inputs: dict) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Every workload reports every name; a layer the workload does not run
    reports 0.  Span names are the ones the workloads' ``trace_targets`` and
    root spans use.
    """
    m: dict[str, tuple[float, str]] = {}
    us, ms = 1e-3, 1e-6  # from nanoseconds
    write = t.is_named("checkpoint.write_checkpoint_file")
    read = t.is_named("checkpoint.read_checkpoint_file")
    parse = t.is_named("cli.parse_event")
    reps = inputs.get("reps", {})
    for v in VARIANTS:
        backfill, resume = t.under(f"cli.main:{v}"), t.under(f"cli.main.resume:{v}")
        steps = t.self_time[t.is_named(f"{v}.step") & backfill] * us
        root_self = t.self_time[t.is_named(f"cli.main:{v}")].sum() * us
        m[f"cli.parse_event_us.{v}"] = (_median(t.self_time[parse & backfill] * us), "us")
        m[f"cli.self_us_per_event.{v}"] = (root_self / steps.size if steps.size else 0.0, "us")
        m[f"{v}.step_us"] = (_median(steps), "us")
        m[f"{v}.step_us.p99"] = (float(np.percentile(steps, 99)) if steps.size else 0.0, "us")
        if v == "continuous":
            tenth = max(1, steps.size // 10)
            head, tail = _median(steps[:tenth]), _median(steps[-tenth:])
            m["continuous.step_us.tail"] = (tail, "us")
            m["continuous.step_us.growth"] = (tail / head if head else 0.0, "ratio")
        m[f"checkpoint.write_ms.{v}"] = (_median(t.dur[write & backfill] * ms), "ms")
        m[f"checkpoint.read_ms.{v}"] = (_median(t.dur[read & resume] * ms), "ms")
        m[f"checkpoint.bytes.{v}"] = (inputs.get("checkpoint_bytes", {}).get(v, 0), "bytes")
        n = reps.get(v, 0)
        gen = t.dur[t.is_named(f"generators.{GENERATOR_OF[v]}")].sum() * ms
        bat = t.dur[t.is_named(f"batch.{v}_log_wealth")].sum() * ms
        roots = sum(t.dur[t.is_named(f"{r}:{v}")].sum() * ms
                    for r in ("engine.run_operating_characteristics", "engine.wage_study"))
        m[f"generators.ms_per_rep.{v}"] = (gen / n if n else 0.0, "ms")
        m[f"batch.ms_per_rep.{v}"] = (bat / n if n else 0.0, "ms")
        m[f"engine.other_ms_per_rep.{v}"] = ((roots - gen - bat) / n if n else 0.0, "ms")
        m[f"engine.stream_len.{v}"] = (inputs.get("stream_len", {}).get(v, 0), "count")
    m["checkpoint.writes"] = (int(write.sum()), "count")
    return m
