"""Benchmark of the cyclepatrol simulator, its CLI and its oracles.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
``src/`` next to this directory, and the benchmark stops with an error
when it is missing.  Workloads (see ``BENCHMARK.json`` for why each one):

* ``simulate_n8``    ``cyclepatrol simulate`` to deep convergence on the
  n=8 benchmark fleet, one invocation per random start;
* ``fleet_n512``     ``cyclepatrol simulate --events N`` on a random
  heterogeneous fleet of 512 robots;
* ``verify_oracles`` ``cyclepatrol verify``, one ``--suite`` invocation per
  suite at reduced sizes.

Every operation is one CLI invocation, run in-process through
``cyclepatrol.cli.main``; its output is checked after the timer stops.  A
pass runs the workload's operations once; passes repeat until ``--seconds``
is spent.  ``--trace 0`` reports the end-to-end metrics with no wrappers
installed.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of ``layers.py``; layers the workload never reaches
are measured on the tiny form of the workloads that do.

The last line of stdout is the result object; the line before it is the
full record (environment, per-start digests, event counts).
``--workload all`` runs every workload in its own process and prints a
table.  ``--tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from layers import Recorder, count_events, created_simulations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import cyclepatrol.cli; "
                "print(time.perf_counter() - t0)")

# The n=8 benchmark fleet of the acceptance tests; t_star = 127.78 s.
EIGHT_ROBOT_FLEET = {"L": 1000.0, "robots": [
    {"id": i + 1, "v": v, "r": r} for i, (v, r) in enumerate(zip(
        [0.6, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4],
        [20.0, 20.0, 50.0, 20.0, 20.0, 20.0, 100.0, 20.0]))]}


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    key: str  # output checks and digests are filed under this
    span: str  # per-layer span that the whole invocation is charged to
    argv: tuple[str, ...]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_trace(path: Path) -> list[dict]:
    """Rows of a ``trace.csv``; event times must never decrease."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = [float(row["time"]) for row in rows]
    if any(b < a for a, b in zip(times, times[1:])):
        raise CheckFailed(f"{path.name}: event times decrease")
    return rows


def _write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def n8_probe_state(start: int):
    """The n=8 fleet placed as ``simulate --seed start`` places it, and an
    event budget about one simulate invocation long."""
    from cyclepatrol.engine import random_initial_state
    from cyclepatrol.fleet import fleet_from_dict

    cfg = fleet_from_dict(EIGHT_ROBOT_FLEET).config
    positions, orientations = random_initial_state(cfg, random.Random(start))
    return cfg, positions, orientations, 4000


class SimulateN8:
    """``simulate`` to deep convergence on the n=8 fleet over a fixed list
    of random starts, writing trace.csv, report.json and plot_data.csv."""

    name = "simulate_n8"
    events_from_output = True

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        rng = random.Random(seed)
        self.workdir = workdir
        self.starts = [rng.randrange(2**31) for _ in range(2 if tiny else 8)]
        self.fleet = _write_json(workdir / "fleet_n8.json", EIGHT_ROBOT_FLEET)

    def ops(self) -> list[Op]:
        return [Op(f"start-{s}", "simulate",
                   ("simulate", str(self.fleet), "--seed", str(s),
                    "-o", str(self.workdir / f"start-{s}")))
                for s in self.starts]

    def warmup_ops(self) -> list[Op]:
        return self.ops()[:1]

    def check(self, op: Op, rc, out: str):
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        verdicts = re.findall(r"^  (\w+): (\w+)", out, re.M)
        if not verdicts or any(status != "PASS" for _, status in verdicts):
            raise CheckFailed(f"verdicts {verdicts}")
        outdir = Path(op.argv[-1])
        report = json.loads((outdir / "report.json").read_text())
        if not report["all_pass"]:
            raise CheckFailed("report.json: not all_pass")
        rows = _read_trace(outdir / "trace.csv")
        printed = re.search(r"^(\d+) events ->", out, re.M)
        if printed is None or int(printed[1]) != len(rows):
            raise CheckFailed("trace.csv row count differs from the printed count")
        digest = {"trace.csv": _sha256(outdir / "trace.csv"),
                  "report.json": _sha256(outdir / "report.json")}
        return Counter(row["kind"] for row in rows), digest

    def probe_state(self):
        return n8_probe_state(self.starts[0])


class FleetN512:
    """``simulate --events N`` on a random heterogeneous fleet of 512
    robots.  The fleet file fixes the start: near-even spacing, and each
    pair of robots (2k, 2k+1) facing each other or away at random, keep
    the end of discovery (929-1420 events over 100 seeds) well inside the
    budget, so every boundary is in the trace and the conservation check
    applies, and the share of cheaper discovery-phase events varies little
    between seeds."""

    name = "fleet_n512"
    events_from_output = True

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        n, self.events = (32, 600) if tiny else (512, 3000)
        rng = random.Random(seed)
        self.radii = [rng.uniform(0.5, 2.0) for _ in range(n)]
        self.speeds = [rng.uniform(1.0, 2.0) for _ in range(n)]
        self.L = 4.0 * sum(self.radii)
        weights = [rng.uniform(0.5, 1.5) for _ in range(n + 1)]
        slack = self.L - 2.0 * sum(self.radii)
        orientations = [o for _ in range(n // 2) for o in rng.choice(((1, -1), (-1, 1)))]
        robots, x = [], 0.0
        for i in range(n):
            x += slack * weights[i] / sum(weights) + self.radii[i]
            robots.append({"id": i + 1, "v": self.speeds[i], "r": self.radii[i],
                           "p0": x, "o0": orientations[i]})
            x += self.radii[i]
        self.doc = {"L": self.L, "robots": robots}
        self.fleet = _write_json(workdir / "fleet_n512.json", self.doc)
        self.outdir = workdir / "fleet"

    def _op(self, events: int) -> Op:
        return Op(f"events-{events}", "simulate",
                  ("simulate", str(self.fleet), "--events", str(events),
                   "-o", str(self.outdir)))

    def ops(self) -> list[Op]:
        return [self._op(self.events)]

    def warmup_ops(self) -> list[Op]:
        return [self._op(50)]

    def check(self, op: Op, rc, out: str):
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        events = int(op.argv[op.argv.index("--events") + 1])
        rows = _read_trace(self.outdir / "trace.csv")
        if len(rows) != events:
            raise CheckFailed(f"trace.csv has {len(rows)} rows, expected {events}")
        if events == self.events:
            self._check_conservation(rows)
        return Counter(row["kind"] for row in rows), {"trace.csv": _sha256(self.outdir / "trace.csv")}

    def _check_conservation(self, rows) -> None:
        """sum(v_i e_i) from the last y per boundary must equal L - 2 sum(r)."""
        n = len(self.speeds)
        y = {int(row["boundary_index"]) - 1: float(row["y_value"]) for row in rows}
        y[n - 1] = self.L
        missing = [j + 1 for j in range(n) if j not in y]
        if missing:
            raise CheckFailed(f"boundaries never in the trace: {missing[:5]}...")
        weighted = sum(
            v * ((y[i] - (y[i - 1] if i else 0.0) - 2.0 * r) / v)
            for i, (v, r) in enumerate(zip(self.speeds, self.radii)))
        invariant = self.L - 2.0 * sum(self.radii)
        if abs(weighted - invariant) > 1e-9 * abs(invariant):
            raise CheckFailed(f"weighted traversing times {weighted!r} != {invariant!r}")

    def probe_state(self):
        from cyclepatrol.fleet import fleet_from_dict

        spec = fleet_from_dict(self.doc)
        return spec.config, spec.positions, spec.orientations, min(self.events, 500)


class VerifyOracles:
    """``verify``, one ``--suite`` invocation per suite at reduced sizes.
    The CLI fixes each suite's own seed, so the benchmark seed sets the
    order the suites run in."""

    name = "verify_oracles"
    events_from_output = False  # counted in an extra pass, see count_pass()
    SIZES = {"consensus": ("--fleets", 10, 2),
             "words": ("--samples", 1000, 50),
             "rounds": ("--instances", 4, 1),
             "conservation": ("--conservation-events", 10000, 500)}

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.order = random.Random(seed).sample(sorted(self.SIZES), len(self.SIZES))
        self.tiny = tiny

    def _op(self, suite: str, tiny: bool) -> Op:
        flag, full, small = self.SIZES[suite]
        size = small if tiny else full
        return Op(f"{suite}-{size}", f"verify.{suite}", ("verify", "--suite", suite, flag, str(size)))

    def ops(self) -> list[Op]:
        return [self._op(suite, self.tiny) for suite in self.order]

    def warmup_ops(self) -> list[Op]:
        # the exhaustive words check has no size flag, so it gets no warm-up
        return [self._op(suite, True) for suite in self.order if suite != "words"]

    def check(self, op: Op, rc, out: str):
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        lines = out.splitlines()
        if not lines or any(not line.startswith("[PASS] ") for line in lines):
            raise CheckFailed("suite lines: " + "; ".join(lines))
        return Counter(), {"stdout": hashlib.sha256(out.encode()).hexdigest()}

    def probe_state(self):
        return n8_probe_state(self.seed)


WORKLOADS = {cls.name: cls for cls in (SimulateN8, FleetN512, VerifyOracles)}
# tiny workloads that reach the layers another workload may not
COMPANIONS = (SimulateN8, VerifyOracles)


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, workload):
        from cyclepatrol import cli

        self.main = cli.main
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def run_op(self, op: Op, workload=None):
        """Time one CLI invocation, then check it.  Returns (seconds, event
        kinds from the output)."""
        workload = workload or self.workload
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = self.main(list(op.argv))
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                rc = traceback.format_exc()
            seconds = time.perf_counter() - t0
        self.attempted += 1
        try:
            kinds, digest = workload.check(op, rc, buf.getvalue())
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            self.fail(f"{workload.name} {' '.join(op.argv)}: {exc}")
            return seconds, Counter()
        key = f"{workload.name}/{op.key}"
        if self.digests.setdefault(key, digest) != digest:
            self.failed += 1
            self.fail(f"{key}: output differs from an earlier run of the same input")
        return seconds, kinds

    def run_pass(self, ops, recorder=None, sims=None):
        """Run ops once.  Returns (summed op seconds, op seconds, kinds)."""
        times, kinds = [], Counter()
        for op in ops:
            seconds, op_kinds = self.run_op(op)
            times.append(seconds)
            if recorder is None:
                kinds += op_kinds
            else:
                recorder.add(op.span, seconds)
                count_events(sims, kinds)
        return sum(times), times, kinds


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the CLI package."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(cls, seed: int, workdir: Path, tiny: bool):
    """Import the package and build the inputs SETUP_REPS times; the
    median is ``setup_s``.  The last inputs built are the ones used."""
    samples = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        imported = import_seconds()
        t0 = time.perf_counter()
        workload = cls(seed, workdir, tiny)
        samples.append(imported + time.perf_counter() - t0)
    return workload, statistics.median(samples)


def repeat_until(seconds: float, body) -> None:
    """Call body() until one more call would likely overrun ``seconds``;
    at least once."""
    start = time.perf_counter()
    calls = 0
    while True:
        body()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_pass(runner: Runner) -> Counter:
    """Engine event kinds of one pass, read from every simulation the pass
    builds.  The simulations are held until each operation ends, so this
    pass is neither timed nor counted in peak RSS."""
    kinds = Counter()
    with created_simulations() as sims:
        for op in runner.workload.ops():
            runner.run_op(op)
            count_events(sims, kinds)
    return kinds


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    workload = runner.workload
    for op in workload.warmup_ops():
        runner.run_op(op)
    pass_times, op_times, kinds_per_pass = [], [], []

    def one_pass():
        total, times, kinds = runner.run_pass(workload.ops())
        pass_times.append(total)
        op_times.extend(times)
        kinds_per_pass.append(kinds)

    repeat_until(seconds, one_pass)
    rss = peak_rss_mb()
    kinds = kinds_per_pass[0] if workload.events_from_output else count_pass(runner)
    if any(k != kinds_per_pass[0] for k in kinds_per_pass):
        runner.fail("event counts differ between passes over the same inputs")
    events = sum(kinds.values())
    wall_s = statistics.median(pass_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "events_per_s": (events / wall_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    # per-invocation latency; for verify it mixes four different suites, so
    # it is reported here rather than gated as an end-to-end metric
    extra = {"passes": len(pass_times), "pass_seconds": pass_times, "events_per_pass": events,
             "events_by_kind": dict(sorted(kinds.items())),
             "invocations": {"command": workload.ops()[0].argv[0], "samples": len(op_times),
                             "p50_s": statistics.median(op_times),
                             "p90_s": percentile(op_times, 0.9) if len(op_times) >= 100 else None}}
    return metrics, extra


# metric -> (unit, statistic, span); statistic: s = seconds per traced
# pass, us = microseconds per call, calls = calls per traced pass
SPAN_METRICS = {
    "engine.next_candidate_us": ("us", "us", "engine.next_candidate"),
    "engine.next_candidate_calls": ("count", "calls", "engine.next_candidate"),
    "engine.e_values_us": ("us", "us", "engine.e_values"),
    "engine.e_values_calls": ("count", "calls", "engine.e_values"),
    "engine.max_deviation_us": ("us", "us", "engine.max_deviation"),
    "engine.max_deviation_calls": ("count", "calls", "engine.max_deviation"),
    "engine.write_csv_s": ("s", "s", "engine.write_csv"),
    "consensus.build_matrices_s": ("s", "s", "consensus.build_matrices"),
    "consensus.check_spectrum_s": ("s", "s", "consensus.check_spectrum"),
    "consensus.iterate_consensus_s": ("s", "s", "consensus.iterate_consensus"),
    "consensus.replay_trace_s": ("s", "s", "consensus.replay_trace"),
    "words.step_word_calls": ("count", "calls", "words.step_word"),
    "words.is_interlaced_calls": ("count", "calls", "words.is_interlaced"),
    "words.decompose_calls": ("count", "calls", "words.decompose"),
    "words.evolution_step_s": ("s", "s", "words.evolution_step"),
    "rounds.lift_from_trace_s": ("s", "s", "rounds.lift_from_trace"),
    "rounds.compare_with_engine_s": ("s", "s", "rounds.compare_with_engine"),
    "rounds.step_round_s": ("s", "s", "rounds.step_round"),
    "verify.consensus_s": ("s", "s", "verify.consensus"),
    "verify.words_s": ("s", "s", "verify.words"),
    "verify.rounds_s": ("s", "s", "verify.rounds"),
    "verify.conservation_s": ("s", "s", "verify.conservation"),
    "verify.run_to_deep_convergence_s": ("s", "s", "verify.run_to_deep_convergence"),
    "metrics.theorem_verdicts_s": ("s", "s", "metrics.theorem_verdicts"),
    "metrics.write_plot_data_s": ("s", "s", "metrics.write_plot_data"),
    "metrics.inter_meeting_times_s": ("s", "s", "metrics.inter_meeting_times"),
}
EVENT_KINDS = ("discovery", "catch", "arrival", "meeting")


def span_metrics(recorder, passes: int) -> dict:
    """Metrics of every span the recorder saw called; others are left out."""
    out = {}
    for name, (unit, stat, span) in SPAN_METRICS.items():
        calls = recorder.calls[span]
        if not calls:
            continue
        seconds = recorder.seconds[span]
        value = {"s": seconds / passes, "us": 1e6 * seconds / calls, "calls": calls / passes}[stat]
        out[name] = (value, unit)
    engine_s = recorder.seconds["engine.step"] + recorder.seconds["engine.run_until"]
    if engine_s:
        out["engine.time_s"] = (engine_s / passes, "s")
        out["engine.next_candidate_share"] = (
            recorder.seconds["engine.next_candidate"] / engine_s, "fraction")
    if recorder.calls["consensus.iterate_consensus"]:
        out["consensus.sweeps"] = (recorder.sweeps / passes, "count")
    return out


def trace_cost(cfg, positions, orientations, events: int, reps: int = 3) -> dict:
    """Engine cost of trace recording on one fleet and event budget:
    microseconds and retained bytes per event, trace on minus trace off."""
    from cyclepatrol.engine import Simulation

    seconds = {False: [], True: []}
    retained = {}
    for _ in range(reps):
        for on in (False, True):
            sim = Simulation(cfg, positions, orientations, record_trace=on)
            t0 = time.perf_counter()
            sim.run_until(max_events=events)
            seconds[on].append(time.perf_counter() - t0)
    for on in (False, True):
        tracemalloc.start()
        try:
            sim = Simulation(cfg, positions, orientations, record_trace=on)
            sim.run_until(max_events=events)
            retained[on] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    us = 1e6 * (statistics.median(seconds[True]) - statistics.median(seconds[False])) / events
    return {"engine.trace_us_per_event": (us, "us"),
            "engine.trace_bytes_per_event": ((retained[True] - retained[False]) / events, "B")}


def per_layer(runner: Runner, seconds: float, seed: int, workdir: Path, tiny: bool) -> tuple[dict, dict]:
    workload = runner.workload
    for op in workload.warmup_ops():
        runner.run_op(op)
    recorder = Recorder()
    untraced, traced, kinds_per_pass = [], [], []

    def one_pair():
        untraced.append(runner.run_pass(workload.ops())[0])
        with recorder.installed(), created_simulations() as sims:
            total, _, kinds = runner.run_pass(workload.ops(), recorder, sims)
        traced.append(total)
        kinds_per_pass.append(kinds)

    repeat_until(seconds, one_pair)
    if any(k != kinds_per_pass[0] for k in kinds_per_pass):
        runner.fail("event counts differ between passes over the same inputs")
    kinds = kinds_per_pass[0]
    metrics = {"engine.events": (sum(kinds.values()), "count")}
    metrics.update({f"engine.events.{k}": (kinds[k], "count") for k in EVENT_KINDS})
    metrics.update(span_metrics(recorder, len(traced)))

    companion = Recorder()
    for cls in COMPANIONS:
        if cls is type(workload):
            continue
        extra = cls(seed, workdir / f"companion-{cls.name}", tiny=True)
        with companion.installed():
            for op in extra.ops():
                companion.add(op.span, runner.run_op(op, extra)[0])
    for name, value in span_metrics(companion, 1).items():
        metrics.setdefault(name, value)

    metrics.update(trace_cost(*workload.probe_state()))
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction")
    return metrics, {"pairs": len(traced), "events_by_kind": dict(sorted(kinds.items()))}


def environment() -> dict:
    import numpy

    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_commit": commit}


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup_s = set_up(WORKLOADS[args.workload], args.seed, workdir / "inputs", args.tiny)
        sys.path.insert(0, str(SRC))
        import cyclepatrol

        if Path(cyclepatrol.__file__).resolve().parent.parent != SRC:
            sys.exit(f"error: imported cyclepatrol from {cyclepatrol.__file__}, not {SRC}")
        runner = Runner(workload)
        if args.trace:
            metrics, extra = per_layer(runner, args.seconds, args.seed, workdir, args.tiny)
        else:
            metrics, extra = end_to_end(runner, args.seconds, setup_s)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny, "environment": environment(),
                  "attempted": runner.attempted, "failed": runner.failed,
                  "failed_ops_frac": runner.failed / max(runner.attempted, 1),
                  "problems": runner.problems, **extra, "digests": runner.digests,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        _write_json(Path(args.out), record)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:15s} {name:36s} {value:14.6g} {unit}")
    if "invocations" in record:
        inv = record["invocations"]
        print(f"{args.workload:15s} {inv['command'] + '_p50_s':36s} {inv['p50_s']:14.6g} s "
              f"({inv['samples']} invocations, p90 {inv['p90_s'] or 'n/a'})")
    print(f"{args.workload:15s} {'failed_ops_frac':36s} {record['failed_ops_frac']:14.6g} "
          f"({runner.failed}/{runner.attempted} invocations)")
    print(json.dumps(record))
    print(json.dumps({"correct": runner.failed == 0 and not runner.problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("\n".join(lines[:-2]))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workloads (self-test)")
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "cyclepatrol" / "__init__.py").is_file():
        sys.exit(f"error: no cyclepatrol package under {SRC}")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
