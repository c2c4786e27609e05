"""Self-test of the benchmark: run every workload at its tiny size, traced
and untraced, and check the result lines against BENCHMARK.json.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit and
a finite value, that no operation fails, that two untraced runs of the same
seed produce identical digests and event counts, and that the benchmark
refuses to run from a directory holding only itself and BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def check_result(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{name}: value {got.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        records = []
        for trace in (0, 0, 1):
            out = WORK / f"{workload}-{trace}-{len(records)}.json"
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--tiny", "--out", str(out)])
            problems = check_result(proc, units[trace])
            if trace == 0 and not problems:
                records.append(json.loads(out.read_text()))
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}: "
                  + ("; ".join(problems) or "all metrics present"))
        if len(records) == 2:
            same = all(records[0][k] == records[1][k] for k in ("digests", "events_by_kind"))
            failures += not same
            print(f"{'ok  ' if same else 'FAIL'} {workload}: digests and event counts repeat")

    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                           spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the sources "
          f"(exit code {proc.returncode})")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
