#!/usr/bin/env python3
"""critsys benchmark driver.

    python3 bench/run.py --workload phase_sweep --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The driver generates the workload's inputs
from the seed into ``.bench_out/``, starts fresh child interpreters that
drive ``critsys.cli.main`` (bench/child.py), and prints one line per metric
followed, as the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced child
plus the tracing overhead.  See bench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402

#: cold starts timed per run for setup_s, besides the measuring child's own
COLD_STARTS = 4
#: every child is killed past this many seconds after the driver started
DEADLINE_S = 170.0
REQUIRED = ("src/critsys/cli.py", "tests/data/sweep_grid.json",
            "tests/data/golden_sweep.csv")


class ChildFailed(RuntimeError):
    pass


def run_child(plan_path, args, deadline, log_path):
    """Start bench/child.py; return (seconds to READY, its RESULT dict)."""
    env = dict(os.environ)
    env.pop("CRITSYS_THREADS", None)  # program default: min(8, nproc)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--plan", plan_path] + args
    with open(log_path, "a") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=log)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        ready, result = None, None
        try:
            for line in proc.stdout:
                if line == "READY\n" and ready is None:
                    ready = time.perf_counter() - start
                elif line.startswith("RESULT "):
                    result = json.loads(line[7:])
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
    if proc.returncode != 0 or ready is None or result is None:
        raise ChildFailed(f"child exited with {proc.returncode}; "
                          f"see {os.path.relpath(log_path, ROOT)}")
    return ready, result


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 49, -1):
        i = math.ceil(q * n / 100) - 1
        if n - 1 - i >= 10:
            return q, ordered[i]
    return 50, median(ordered)


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def write_inputs(workload, seed, out_dir):
    """Write the seeded inputs; return whether the seed self-check held."""
    files = workloads.generate(workload, seed)
    deterministic = files == workloads.generate(workload, seed)
    distinct = files != workloads.generate(workload, seed + 1)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    for name, data in files.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    return deterministic and distinct


def end_to_end(setups, main_result, units, failed_units):
    passes = main_result["passes"]
    latencies = [1e3 * t for p in passes for t in p]
    q, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": (median(setups), "s"),
        "pass_s": (median(sum(p) for p in passes), "s"),
        "op_p50_ms": (median(latencies), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ok_ratio": (1.0 - failed_units / units, "ratio"),
        "peak_rss_mb": (main_result["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold starts",
        "pass_s": f"median of {len(passes)} timed passes of "
                  f"{len(passes[0])} ops",
        "op_p50_ms": f"p50 of {len(latencies)} op samples",
        "op_tail_ms": f"p{q} of {len(latencies)} op samples",
        "ok_ratio": f"fail_ratio {failed_units / units:.6g}: {failed_units} "
                    f"of {units} units failed",
        "peak_rss_mb": "peak RSS of the measuring child",
    }
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in REQUIRED
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a critsys checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    inputs_ok = write_inputs(args.workload, args.seed, out_dir)
    plan = os.path.join(out_dir, "plan.json")
    log = os.path.join(out_dir, "child.log")
    seconds = str(args.seconds / 2 if args.trace else args.seconds)

    children = []
    try:
        if args.trace:
            _, plain = run_child(plan, ["--seconds", seconds], deadline, log)
            spans = os.path.join(out_dir, "spans.tsv")
            _, traced = run_child(plan, ["--seconds", seconds,
                                         "--trace-out", spans], deadline, log)
            children = [plain, traced]
        else:
            setups = []
            for _ in range(COLD_STARTS):
                ready, result = run_child(plan, ["--setup-only"], deadline,
                                          log)
                setups.append(ready)
                children.append(result)
            ready, measured = run_child(plan, ["--seconds", seconds],
                                        deadline, log)
            setups.append(ready)
            children.append(measured)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    units = sum(c["units"] for c in children)
    failed_units = sum(c["failed_units"] for c in children)
    if args.trace:
        untraced = median(sum(p) for p in plain["passes"])
        traced_pass = median(sum(p) for p in traced["passes"])
        values = dict(traced["layers"], **{
            "cli.import_s": traced["import_s"],
            "trace.pass_s": traced_pass,
            "trace.untraced_pass_s": untraced,
            "trace.overhead_s": traced_pass - untraced})
        metrics = {name: (values[name], unit)
                   for name, unit in LAYER_UNITS.items()}
        notes = {"trace.overhead_s": "traced pass_s minus untraced pass_s",
                 "trace.spans": f"spans per pass; all spans in "
                                f"{os.path.relpath(spans, ROOT)}"}
    else:
        metrics, notes = end_to_end(setups, measured, units, failed_units)

    problems = [p for c in children for p in c["problems"]]
    if not inputs_ok:
        problems.insert(0, "seed self-check: inputs not reproducible per seed")
    machine = {
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        **children[-1]["versions"], "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "CRITSYS_THREADS": {"driver_env": os.environ.get("CRITSYS_THREADS"),
                            "child": "unset"},
    }
    attempted = sum(c["ops"] for c in children) + 1  # + the seed self-check
    failed = sum(c["op_failures"] for c in children) + (not inputs_ok)
    summary = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"machine": machine, "notes": notes, "problems": problems,
                   "units": units, "failed_units": failed_units,
                   "children": children, "summary": summary}, fh, indent=1)

    print("machine " + json.dumps(machine))
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
