"""Self-test of the benchmark at reduced rate and duration.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

It checks that

1. each workload runs end to end, untraced and traced, with every
   operation correct and a host record printed;
2. every metric named in ``BENCHMARK.json`` prints with its unit, both
   on a line of its own and in the final JSON object, and every
   per-layer metric is measured (non-zero) on at least one workload;
3. a planted fingerprint mismatch counts as one failed operation;
4. without the program's sources the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST_KEYS = {"nproc", "python", "numpy", "git_revision",
             "calibration_heap_ops_per_s"}
#: Zero on a clean input, so never expected to be measured as non-zero.
ZERO_ON_CLEAN_INPUT = {"logs.clf.dropped"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--small",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    measured: dict[str, float] = {}

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench("--workload", workload, "--seed", "3",
                         "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-1500:]}")
                continue
            result = result_of(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            expected = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics/units {got} != {expected}")
            lines = proc.stdout.splitlines()
            host = [json.loads(line[5:]) for line in lines
                    if line.startswith("host ")]
            if not host or not HOST_KEYS <= set(host[0]):
                problems.append(f"{label}: host record {host}")
            for name, unit in expected.items():
                if not any(line.split()[:1] == [name] and unit in line.split()
                           for line in lines):
                    problems.append(f"{label}: no line prints {name} [{unit}]")
            if trace:
                for name, v in result["metrics"].items():
                    measured[name] = max(measured.get(name, 0.0), v["value"])
            print(f"ran {label}: {result['attempted']} operations")

    unmeasured = sorted(m["name"] for m in spec["per_layer"]
                        if not measured.get(m["name"])
                        and m["name"] not in ZERO_ON_CLEAN_INPUT)
    if measured and unmeasured:
        problems.append(f"per-layer metrics never measured: {unmeasured}")

    proc = bench("--workload", "synthetic-e2e", "--seed", "3", "--trace", "0",
                 "--plant-mismatch")
    planted = result_of(proc) if proc.returncode == 0 else None
    if planted is None or planted["failed"] != 1 or planted["correct"]:
        problems.append(f"planted fingerprint mismatch not counted: {planted}")
    else:
        print("planted mismatch: 1 failed operation, correct=false")

    bare = HERE / "_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = bench("--workload", "synthetic-e2e", "--seed", "3", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("ran without the program's sources: exit "
                        f"{proc.returncode}, stdout {proc.stdout[-300:]!r}")
    else:
        print(f"without sources: exit {proc.returncode}, no result")

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
