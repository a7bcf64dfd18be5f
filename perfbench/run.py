"""The repository's benchmark: end-to-end ``repro`` passes, timed per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synthetic-e2e --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.

One run measures one workload (see ``perfbench/workloads.json`` for why
each exists and which layers it loads and bypasses):

1. a warm-up process imports ``repro`` once, so bytecode caches exist;
2. ``SETUP_SAMPLES`` fresh processes each start the interpreter, import
   ``repro`` and build the workload's inputs; ``setup_s`` is the median
   of their times;
3. fresh processes then run one pass each, serially, until ``--seconds``
   have passed (at least ``MIN_PASSES``).  A pass is the ``repro`` calls
   a user's command makes, from the first call to the last report.

Times are in seconds on a reference core.  The host's cores are shared
with other machines' work, and a core's speed swings by half or more
within a second, so raw wall times of identical passes differ by 20% and
more.  Each timed child is therefore pinned to one core with the speed
probe of ``probe.py`` beside it, and a time measured in an interval is
multiplied by the core's probe speed then, relative to
``REFERENCE_OPS_PER_S``.  The raw host median is printed too.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
medians over the passes.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer metrics (medians), the
spans go to ``perfbench/_run/spans-<workload>-seed<seed>.jsonl`` and a
"where the time went" table of self time per layer is printed.

Every policy run is one operation.  It fails if it raises, if not every
request of the trace completed, if the CLF reader dropped lines, or if
its report fingerprint (sha256 of the canonical JSON of the
``SimulationReport``) differs from that of the first untraced pass of
this run.  Each fingerprint is printed with the simulated throughput and
hit ratio.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each result is
also appended, with a host record, to ``perfbench/_run/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from probe import OPS as PROBE_OPS
from tracing import LAYER_OF

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"

SETUP_SAMPLES = 3
MIN_PASSES = 2
#: A child process that runs longer than this is killed and its
#: operations count as failed.
CHILD_TIMEOUT_S = 150.0
#: No pass starts if it would likely end after this many seconds of run.
RUN_BUDGET_S = 165.0
#: Probe speed of the reference core, in heap-churn operations per second
#: (see probe.py).  Times are reported in seconds on this core.
REFERENCE_OPS_PER_S = 2_000_000.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_revision() -> str:
    """HEAD of the checkout, read without running git ('unknown' when the
    checkout is not a git work tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(numpy_version: str, speeds: list[float]) -> dict[str, Any]:
    """What ran where; ``calibration_heap_ops_per_s`` is the median probe
    speed over the run's timed children."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_revision(),
        "machine": platform.machine(),
        "calibration_heap_ops_per_s": statistics.median(speeds),
    }


class Child:
    """Starts ``child.py`` processes against this checkout's sources, each
    pinned to one core with the speed probe beside it."""

    def __init__(self, args: argparse.Namespace, workload: str,
                 data_dir: Path) -> None:
        self.base = [sys.executable, str(HERE / "child.py")]
        self.common = ["--workload", workload, "--seed", str(args.seed),
                       "--dir", str(data_dir)]
        if args.small:
            self.common.append("--small")
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        # One core's worth of work per process: no BLAS thread pools.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.cpu = max(os.sched_getaffinity(0))

    def _pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def run(self, mode: str, *extra: str
            ) -> tuple[dict | None, float, list[list[float]]]:
        """Run one child; returns (its JSON result or None, wall seconds,
        the probe's samples meanwhile)."""
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE,
            text=True, preexec_fn=self._pin)
        try:
            probe.stdout.readline()  # "ready"
            start = perf_counter()
            try:
                proc = subprocess.run(
                    self.base + [mode] + self.common + list(extra),
                    env=self.env, cwd=ROOT, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S, preexec_fn=self._pin)
            except subprocess.TimeoutExpired:
                proc = None
            wall = perf_counter() - start
        finally:
            probe.send_signal(signal.SIGTERM)
            samples = json.loads(probe.communicate(timeout=60)[0])
        if proc is None:
            print(f"perfbench: {mode} timed out", file=sys.stderr)
            return None, wall, samples
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {mode} exited {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None, wall, samples
        return json.loads(lines[-1]), wall, samples


def factor(samples: list[list[float]],
           intervals: list[list[float]] | None = None) -> float:
    """Core speed during ``intervals`` (default: all samples) as a share
    of the reference core's; multiply a time measured then by it."""
    inside = [d for t, d in samples
              if intervals is None or any(a <= t < b for a, b in intervals)]
    inside = inside or [d for _, d in samples]
    return PROBE_OPS * len(inside) / sum(inside) / REFERENCE_OPS_PER_S


def check_ops(passes: list[dict[str, Any]], policies: list[str],
              plant_mismatch: bool) -> tuple[int, int]:
    """Judge every operation; prints one line each.  Returns
    (attempted, failed)."""
    reference: dict[str, str] = {}
    attempted = failed = 0
    for number, p in enumerate(passes, 1):
        result = p["result"]
        ops = result["ops"] if result is not None else [
            {"policy": policy, "error": "pass process failed"}
            for policy in policies]
        for op in ops:
            if plant_mismatch and number == 2 and op is ops[0]:
                op["fingerprint"] = "0" * 64
            problems = []
            if op["error"] is not None:
                problems.append("raised: " + op["error"].strip()
                                .splitlines()[-1])
            else:
                if op["all_completed"] != op["trace_len"]:
                    problems.append(f"completed {op['all_completed']} of "
                                    f"{op['trace_len']} requests")
                if op.get("clf_dropped"):
                    problems.append(f"{op['clf_dropped']} CLF lines dropped")
                ref = reference.get(op["policy"])
                if ref is None and not p["traced"]:
                    reference[op["policy"]] = op["fingerprint"]
                elif ref is not None and op["fingerprint"] != ref:
                    problems.append("fingerprint differs from the first "
                                    "untraced pass")
            attempted += 1
            failed += bool(problems)
            detail = (f"fingerprint={op['fingerprint']} "
                      f"throughput_rps={op['throughput_rps']:.1f} "
                      f"hit_ratio={op['hit_ratio']:.4f}"
                      if op["error"] is None else "")
            print(f"op pass={number} traced={int(p['traced'])} "
                  f"policy={op['policy']} {detail} "
                  f"{'FAILED: ' + '; '.join(problems) if problems else 'ok'}")
    return attempted, failed


def describe(name: str, values: list[float], unit: str) -> str:
    return (f"{name:<18s} {statistics.median(values):14.6g} {unit:<6s} "
            f"median of n={len(values)} (min {min(values):.6g}, "
            f"max {max(values):.6g})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to "
                             "run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced rate and duration (self-test only)")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one fingerprint of pass 2 (self-test "
                             "of the correctness check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}; run from the "
                    "root of a checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        meta = json.loads((HERE / "workloads.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read the benchmark definition: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        return fail(f"unknown workload {args.workload!r}; known: "
                    f"{', '.join(names)}, all")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    print(f"held-out seed for confirming a claim: {meta['held_out_seed']}")
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        print(f"workload {name}, seed {args.seed}: "
              f"{meta['workloads'][name]['why']}")
        status = max(status, run_workload(args, name, spec))
    return status


def run_workload(args: argparse.Namespace, workload: str,
                 spec: dict[str, Any]) -> int:
    """Set up, run the passes of one workload and print its result."""
    run_start = perf_counter()
    RUN_DIR.mkdir(exist_ok=True)
    data_dir = RUN_DIR / f"{workload}-seed{args.seed}-{os.getpid()}"
    child = Child(args, workload, data_dir)
    speeds: list[float] = []
    try:
        warm = child.run("warm")[0]
        if warm is None:
            return fail("warm-up process failed")
        setup_s = []
        for _ in range(SETUP_SAMPLES):
            shutil.rmtree(data_dir, ignore_errors=True)
            result, wall, samples = child.run("setup")
            if result is None:
                return fail("set-up process failed")
            setup_s.append(wall * factor(samples))
            speeds.append(factor(samples) * REFERENCE_OPS_PER_S)

        passes: list[dict[str, Any]] = []
        measure_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_id = f"{workload}:{args.seed}:{len(passes) + 1}"
            flags = ["--pass-id", pass_id] + (["--trace"] if traced else [])
            result, last, samples = child.run("pass", *flags)
            speeds.append(factor(samples) * REFERENCE_OPS_PER_S)
            if result is not None:
                result["factor"] = factor(samples, [result["interval"]])
                result["sim_factor"] = factor(samples,
                                              result["sim_intervals"])
            passes.append({"traced": traced, "result": result})
            now = perf_counter()
            if len(passes) >= MIN_PASSES and (
                    now - measure_start >= args.seconds
                    or now - run_start + last > RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    host = host_record(warm["numpy"], speeds)
    print("host " + json.dumps(host, sort_keys=True))
    policies = sorted({op["policy"] for p in passes if p["result"]
                       for op in p["result"]["ops"]}) or ["*"]
    attempted, failed = check_ops(passes, policies, args.plant_mismatch)
    good = [p["result"] for p in passes if p["result"] is not None]
    untraced = [p["result"] for p in passes
                if p["result"] is not None and not p["traced"]]
    traced = [p["result"] for p in passes
              if p["result"] is not None and p["traced"]]
    if not untraced or (args.trace and not traced):
        print(f"perfbench: no pass completed ({attempted} operations, "
              f"{failed} failed)", file=sys.stderr)
        return 1
    print(good[0]["report"])

    metrics: dict[str, dict[str, Any]] = {}
    if not args.trace:
        samples = {
            "wall_s": [r["wall_s"] * r["factor"] for r in untraced],
            "setup_s": setup_s,
            "sim_events_per_s": [r["sim_events"] / r["sim_run_s"]
                                 / r["sim_factor"]
                                 for r in untraced if r["sim_run_s"] > 0],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        for m in spec["end_to_end"]:
            values = samples[m["name"]]
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
            print(describe(m["name"], values, m["unit"]))
        print(f"{'error_rate':<18s} {failed / attempted:14.6g} ratio  "
              f"{failed} failed of n={attempted} operations")
        print(f"raw host wall_s median "
              f"{statistics.median(r['wall_s'] for r in untraced):.6g} s; "
              f"times above are in seconds on the reference core "
              f"({REFERENCE_OPS_PER_S:.0f} probe ops/s)")
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        samples = {}
        for r in traced:
            for name, value in r["layers"].items():
                if units.get(name) in ("s", "us"):
                    value *= r["factor"]
                samples.setdefault(name, []).append(value)
        samples["trace.overhead"] = [
            statistics.median(r["wall_s"] * r["factor"] for r in traced)
            / statistics.median(r["wall_s"] * r["factor"] for r in untraced)]
        for m in spec["per_layer"]:
            values = samples.get(m["name"], [0.0])
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
            print(f"{m['name']:<42s} {statistics.median(values):14.6g} "
                  f"{m['unit']} (n={len(values)})")
        print_self_times(traced)
        spans = RUN_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
        with spans.open("w") as fp:
            for r in traced:
                for record in r["spans"]:
                    fp.write(json.dumps(record) + "\n")
        print(f"spans: {spans.relative_to(ROOT)}")

    record = {"workload": workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "host": host,
              "attempted": attempted, "failed": failed, "samples": samples,
              "raw_wall_s": [r["wall_s"] for r in good],
              "metrics": metrics,
              "fingerprints": [[op.get("policy"), op.get("fingerprint")]
                               for r in good for op in r["ops"]]}
    with (RUN_DIR / "results.jsonl").open("a") as fp:
        fp.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_self_times(traced: list[dict[str, Any]]) -> None:
    """Where the time went: median self time per layer over the traced
    passes, in reference seconds."""
    wall = statistics.median(r["wall_s"] * r["factor"] for r in traced)
    layers = sorted(set(LAYER_OF.values()) | {"policies.route", "logs.clf",
                                               "logs.replay"})
    rows = [(layer, statistics.median(r["self_s"].get(layer, 0.0)
                                      * r["factor"] for r in traced))
            for layer in layers]
    print(f"where the time went (self time, median of "
          f"{len(traced)} traced pass(es), wall {wall:.3f} s)")
    for layer, seconds in sorted(rows, key=lambda row: -row[1]):
        print(f"  {layer:<22s} {seconds:9.4f} s {seconds / wall:7.1%}")


if __name__ == "__main__":
    sys.exit(main())
