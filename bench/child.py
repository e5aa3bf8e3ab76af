"""One benchmark child process: a fresh interpreter driving `critsys`.

Runs the plan's ops through ``critsys.cli.main(argv)`` in-process, checks
every output, and reports on stdout: ``READY`` once the first op is done
(the parent times start-up to this line), then ``RESULT <json>``.

    python3 bench/child.py --plan DIR/plan.json --seconds S [--setup-only]
                           [--trace-out SPANS.tsv]

With ``--trace-out`` the span recorder is installed after import and the
per-layer metrics are computed over the timed passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402


class Runner:
    def __init__(self, inputs_dir, cli):
        self.inputs_dir = inputs_dir
        self.cli = cli
        self.saved = {}
        self.ops = self.op_failures = self.units = self.failed_units = 0
        self.problems = []

    def _resolve(self, arg):
        if arg.startswith("INPUT:"):
            return os.path.join(self.inputs_dir, arg[6:])
        if arg.startswith("ROOT:"):
            return os.path.join(ROOT, arg[5:])
        return arg

    def read_input(self, ref):
        with open(self._resolve(ref)) as fh:
            return json.load(fh)

    def run(self, op):
        """Run one op; return its wall seconds (the check is not timed)."""
        argv = [self._resolve(a) for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a raising op is a failed unit
            code, problem = None, f"{op['name']}: raised {exc!r}"
        elapsed = time.perf_counter() - start
        if code is None:
            units, failed = 1, 1
        else:
            try:
                units, failed, problem = checks.check(
                    op["check"], code, out.getvalue(), ROOT, self.saved,
                    self.read_input)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                units, failed, problem = 1, 1, f"unreadable output: {exc!r}"
            if problem:
                problem = f"{op['name']}: {problem}"
        self.ops += 1
        self.units += units
        self.failed_units += failed
        if code != 0 or problem:
            self.op_failures += 1
        if problem and len(self.problems) < 20:
            self.problems.append(problem)
        return elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    with open(args.plan) as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import critsys.cli as cli
    import_s = time.perf_counter() - start

    recorder = None
    if args.trace_out:
        import tracer
        recorder = tracer.Recorder()
        recorder.install()

    runner = Runner(os.path.dirname(os.path.abspath(args.plan)), cli)
    runner.run(plan["first_op"])
    print("READY", flush=True)

    result = {"import_s": import_s}
    if not args.setup_only:
        for op in plan["ops"]:  # warm-up pass: caches fill, not timed
            runner.run(op)
        mark = len(recorder.spans) if recorder else 0
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append([runner.run(op) for op in plan["ops"]])
        result["passes"] = passes
        if recorder:
            import layers
            spans = recorder.spans[mark:]
            probe_mark = len(recorder.spans)
            layers.run_probe(sys.modules["critsys"])
            recorder.uninstall()
            result["layers"] = layers.layer_metrics(
                spans, len(passes), sum(map(sum, passes)),
                recorder.spans[probe_mark:])
            recorder.write_tsv(args.trace_out)

    import numpy
    import scipy
    result.update(
        ops=runner.ops, op_failures=runner.op_failures, units=runner.units,
        failed_units=runner.failed_units, problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__})
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
