"""Per-layer metrics computed from the spans of a traced child.

Counts are per timed pass and ``self_share`` is a layer's self time over
the pass wall time.  ``.ms`` metrics are the median wall milliseconds of one
call over the timed passes and the layer probe, which calls each ROADMAP
item-1 layer row once after the passes, so every time is measured on every
workload.  Ratios name their base in NOTES.md.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from statistics import median

from tracer import LAYERS, self_times

#: error codes the solvers raise, reported as a share of solve attempts
FAIL_CODES = ("no-sign-change", "numerical", "domain",
              "monotonicity-violation")
SOLVERS = ("algebraic.find_k0_l0", "algebraic.solve_ratio_reduction")
SCALAR = ("algebraic.eval_F1", "algebraic.eval_F2", "algebraic.jacobian")
#: points of the bracketing scan in find_k0_l0 (algebraic._SCAN_POINTS)
SCAN_POINTS = 512
#: transforms of one N^n grid per call: fftn + ifftn, or fftn alone
FFT_TRANSFORMS = {"spectral.frac_laplacian": 2, "spectral.seminorm": 1}

#: per_layer metric name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "cli.import_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "params.calls": "count",
    "regimes.classify.calls": "count",
    "algebraic.find_k0_l0.calls": "count",
    "algebraic.find_k0_l0.p50_ms": "ms",
    "algebraic.eval_f.per_solve": "count",
    "algebraic.eval_f.scan_ms": "ms",
    "algebraic.newton_polish.ms": "ms",
    "algebraic.newton.iters_per_solve": "count",
    "algebraic.solve_ratio_reduction.ms": "ms",
    "algebraic.check_domination.ms": "ms",
    **{f"algebraic.fail.{code}": "ratio" for code in FAIL_CODES},
    "algebraic.scalar_calls": "count",
    "bubbles.field.ms": "ms",
    "spectral.frac_laplacian.calls": "count",
    "spectral.frac_laplacian.ms.n64": "ms",
    "spectral.frac_laplacian.ms.n128": "ms",
    "spectral.seminorm.calls": "count",
    "spectral.fft_bytes_computed": "bytes",
    "spectral.residual_single.ms": "ms",
    "spectral.residual_system.ms": "ms",
    "asymptotics.overlap_theta.calls": "count",
    "asymptotics.overlap_theta.ms": "ms",
    "asymptotics.solve_tR_sR.iters": "count",
    "asymptotics.continuation_branch.ms": "ms",
    "asymptotics.continuation.samples": "count",
    "asymptotics.continuation.accept_ratio": "ratio",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def run_probe(critsys):
    """One call of each ROADMAP item-1 layer row, through the module names
    the recorder wrapped."""
    import numpy as np

    alg, asy, bub, spe = (critsys.algebraic, critsys.asymptotics,
                          critsys.bubbles, critsys.spectral)
    p_b = critsys.params.make_params(3, 0.5, 1.5, 1.0, 1.5, 2.0)
    p_a = critsys.params.make_params(1, 0.4, 5.0, 1.0, 1.0, 4.0)
    for p in (p_a, p_b):
        sol = alg.find_k0_l0(p)
    alg.eval_f(p_b, alg.k_sup(p_b) * np.geomspace(1e-8, 1.0 - 1e-12,
                                                  SCAN_POINTS))
    alg.newton_polish(p_b, sol.k * (1 + 1e-6), sol.l, alg.RESIDUAL_TOL)
    alg.solve_ratio_reduction(p_a)
    alg.check_domination(p_b, sol, samples=10_000)
    S = bub.sobolev_constant_closed_form(p_b).value
    spec = bub.BubbleSpec(epsilon=1.0, center=(0.0,) * 3)
    for N in (64, 128):
        U = bub.normalized_bubble_field(p_b, spec, S, N, 30.0)
        spe.frac_laplacian(U, p_b.s)
    spe.pde_residual_single(p_b, U)
    spe.pde_residual_system(p_b, sol.k, sol.l, U)
    p_neg = p_b.replace_gamma(-0.5)
    theta = asy.overlap_theta(p_neg, 10.0).theta
    asy.solve_tR_sR(p_neg, theta)
    asy.continuation_branch(p_b, gamma_max=0.999 *
                            critsys.regimes.gamma_threshold_B(p_b))


def layer_metrics(spans, passes, pass_seconds, probe_spans):
    """Metrics from the spans of ``passes`` timed passes lasting
    ``pass_seconds`` in all, and of the probe (trace.* excluded)."""
    ms = defaultdict(list)  # by name, and by (name, problem size)
    for _, name, start, end, _, info in spans + probe_spans:
        ms[name].append(1e3 * (end - start))
        if name == "spectral.frac_laplacian" and isinstance(info, tuple):
            ms[name, info[1]].append(1e3 * (end - start))
        elif name == "algebraic.eval_f":
            ms[name, info].append(1e3 * (end - start))

    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    calls = Counter(span[1] for span in spans)
    infos = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fails = Counter()
    newton_F1 = accept_attempts = fft_bytes = 0
    for sid, name, start, end, parent, info in spans:
        if info is not None:
            infos[name].append(info)
        layer_self[name.split(".", 1)[0]] += selfs[sid]
        parent_name = by_id[parent][1] if parent in by_id else None
        if name in SOLVERS and isinstance(info, str):
            fails[info] += 1
        elif name == "algebraic.eval_F1" and \
                parent_name == "algebraic.newton_polish":
            newton_F1 += 1
        elif name == "algebraic.gamma_gradient" and \
                parent_name == "asymptotics.continuation_branch":
            accept_attempts += 1
        elif name in FFT_TRANSFORMS and isinstance(info, tuple):
            n, N = info
            fft_bytes += FFT_TRANSFORMS[name] * 16 * N ** n  # complex128

    def p50(key):
        return median(ms[key]) if ms[key] else 0.0

    def per_pass(count):
        return count / passes

    # a raising call records its error code instead of a number
    iters = [i for i in infos["asymptotics.solve_tR_sR"] if isinstance(i, int)]
    branches = [b for b in infos["asymptotics.continuation_branch"]
                if isinstance(b, int)]
    solves = sum(calls[name] for name in SOLVERS)
    out = {f"{layer}.self_share": t / pass_seconds
           for layer, t in layer_self.items()}
    out.update({
        "params.calls": per_pass(sum(c for name, c in calls.items()
                                     if name.startswith("params."))),
        "regimes.classify.calls": per_pass(calls["regimes.classify"]),
        "algebraic.find_k0_l0.calls": per_pass(calls["algebraic.find_k0_l0"]),
        "algebraic.find_k0_l0.p50_ms": p50("algebraic.find_k0_l0"),
        "algebraic.eval_f.per_solve": _ratio(calls["algebraic.eval_f"],
                                             calls["algebraic.find_k0_l0"]),
        "algebraic.eval_f.scan_ms": p50(("algebraic.eval_f", SCAN_POINTS)),
        "algebraic.newton_polish.ms": p50("algebraic.newton_polish"),
        "algebraic.newton.iters_per_solve": _ratio(
            newton_F1, calls["algebraic.newton_polish"]),
        "algebraic.solve_ratio_reduction.ms":
            p50("algebraic.solve_ratio_reduction"),
        "algebraic.check_domination.ms": p50("algebraic.check_domination"),
        **{f"algebraic.fail.{code}": _ratio(fails[code], solves)
           for code in FAIL_CODES},
        "algebraic.scalar_calls": per_pass(sum(calls[n] for n in SCALAR)),
        "bubbles.field.ms": p50("bubbles.normalized_bubble_field"),
        "spectral.frac_laplacian.calls":
            per_pass(calls["spectral.frac_laplacian"]),
        "spectral.frac_laplacian.ms.n64": p50(("spectral.frac_laplacian", 64)),
        "spectral.frac_laplacian.ms.n128":
            p50(("spectral.frac_laplacian", 128)),
        "spectral.seminorm.calls": per_pass(calls["spectral.seminorm"]),
        "spectral.fft_bytes_computed": per_pass(fft_bytes),
        "spectral.residual_single.ms": p50("spectral.pde_residual_single"),
        "spectral.residual_system.ms": p50("spectral.pde_residual_system"),
        "asymptotics.overlap_theta.calls":
            per_pass(calls["asymptotics.overlap_theta"]),
        "asymptotics.overlap_theta.ms": p50("asymptotics.overlap_theta"),
        "asymptotics.solve_tR_sR.iters": _ratio(sum(iters), len(iters)),
        "asymptotics.continuation_branch.ms":
            p50("asymptotics.continuation_branch"),
        "asymptotics.continuation.samples": _ratio(sum(branches),
                                                   len(branches)),
        "asymptotics.continuation.accept_ratio": _ratio(
            sum(b - 1 for b in branches), accept_attempts),
        "trace.spans": per_pass(len(spans)),
    })
    return out
