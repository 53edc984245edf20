#!/usr/bin/env python3
"""Smoke test of the benchmark (about a minute).

A tiny run of every workload, untraced and traced, must exit 0, print
every metric of BENCHMARK.json with its unit as the last stdout line, and
run its correctness checks.  A copy of the benchmark without the toolkit source
must exit non-zero without printing a result.

    python3 perfbench/tests/smoke.py

(Named so that pytest does not collect it: the repository's test suite
stays as it is.)
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / ".perfbench_out"
SEED = 7

CHECKS = {
    "retherm": {"retherm.f_ref_950Hz", "retherm.rate_finite_positive",
                "retherm.rate_vs_predicted"},
    "welch": {"welch.t_eff_vs_analytic"},
    "cli": {"cli.check.exit_0", "cli.check.verdict_line",
            "cli.spectrum.exit_0", "cli.spectrum.outputs_exist",
            "cli.spectrum.row_counts", "cli.spectrum.total_is_sum",
            "cli.cool.exit_0", "cli.cool.outputs_exist", "cli.cool.row_count",
            "cli.map.exit_0", "cli.map.outputs_exist", "cli.map.row_count"},
}


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    problems = []
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(last)}")
    if not (isinstance(last["attempted"], int) and last["attempted"] >= 1
            and isinstance(last["failed"], int) and last["failed"] >= 0):
        problems.append(f"{label}: attempted/failed {last['attempted']}/{last['failed']}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in last["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{ {k: (got[k], want[k]) for k in want if k in got and got[k] != want[k]} }")
    for name, m in last["metrics"].items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    if not trace:
        for name in (m["name"] for m in spec["end_to_end"]):
            if last["metrics"].get(name, {}).get("value", 0) <= 0:
                problems.append(f"{label}: end-to-end {name} is not positive")
    record = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}-smoke.json")
                        .read_text())
    expected = set().union(*CHECKS.values()) if trace else CHECKS[workload]
    missing = expected - set(record["checks"])
    if missing:
        problems.append(f"{label}: checks that did not run: {sorted(missing)}")
    if workload == "cli" and "cool_row" not in record["failures"]:
        problems.append(f"{label}: NaN cool rows were not counted")
    return problems


def check_bare_directory() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "cli", 0, smoke=False)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    problems += [f"workload {w['name']} has no smoke checks"
                 for w in spec["workloads"] if w["name"] not in CHECKS]
    for workload in CHECKS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
