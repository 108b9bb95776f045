"""Smoke check of the benchmark: every workload at a tiny size.

Usage (from the repository root):

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json and for ``--trace 0`` and ``--trace 1``
it runs ``perfbench/run.py --smoke`` and asserts that the last line is a
result with exactly the contracted keys, that every operation passed, and
that every end-to-end (untraced) or per-layer (traced) metric is emitted
with the unit BENCHMARK.json gives it.  It then checks that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.

This file is not collected by the test suite, so it adds nothing to the
tier-1 test time.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}\n{proc.stdout[-1500:]}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')!r}, "
                            f"expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')!r}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail, print no
    result, and exit nonzero."""
    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, w["name"], trace)
    problems += check_bare_directory(spec)
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
