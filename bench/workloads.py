"""Seeded inputs for the benchmark workloads.

`generate(workload, seed)` returns the plan (an op list of `critsys` argv
lists with their output checks) and the input files it names, as a mapping
from file name to bytes.  It uses only the standard library: the same seed
gives byte-identical files on every platform, and nothing here imports the
program under test.  Argv entries of the form ``INPUT:<name>`` name a
generated file; ``ROOT:<path>`` names a read-only file of the repository.

Sweep points are drawn over the whole admissible box, single-point calls
inside the hypotheses of the method they call; no point is filtered or
re-drawn because the program fails on it.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("phase_sweep", "spectral_verify", "branch_ladder")

#: single-equation core residual at L = 30, N = 128, eps = 1 for n = 3,
#: s = 0.5 is 1.1374855e-3; a bound a few percent above it catches any
#: change in the transform or the multiplier beyond roundoff
SINGLE_REL_L2_BOUND_N128 = 1.2e-3
#: the same at N = 64 (6.0101e-2 today)
SINGLE_REL_L2_BOUND_N64 = 6.3e-2
#: sobolev --n 3 --s 0.5: spectral estimate against the closed form
#: (6.544e-3 today)
SOBOLEV_REL_GAP_BOUND = 1e-2


def _stratified(rng, count, lo, hi):
    """One uniform draw in each of ``count`` equal strata of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _two_star(n, s):
    return 2.0 * n / (n - 2.0 * s)


def _front(n, s):
    return 4.0 * n * s / (n - 2.0 * s) ** 2


def _threshold_B(n, s, alpha, mu1, mu2):
    beta = _two_star(n, s) - alpha
    return _front(n, s) * max(
        (mu1 / alpha) * ((2.0 - beta) / (2.0 - alpha)) ** (0.5 * (2.0 - beta)),
        (mu2 / beta) * ((2.0 - alpha) / (2.0 - beta)) ** (0.5 * (2.0 - alpha)))


def _threshold_A(n, s, alpha, mu1, mu2):
    beta = _two_star(n, s) - alpha
    ratio = (alpha - 2.0) / (beta - 2.0)
    return _front(n, s) * min((mu1 / alpha) * ratio ** (0.5 * (beta - 2.0)),
                              (mu2 / beta) * ratio ** (0.5 * (alpha - 2.0)))


def _log_gammas(rng, per_sign):
    """Both signs, exponents stratified over [-3, 6]: |gamma| up to 1e6."""
    mags = [10.0 ** e for e in _stratified(rng, per_sign, -3.0, 6.0)]
    return [-g for g in reversed(mags)] + mags


def _log_mus(rng, count):
    return [10.0 ** e for e in _stratified(rng, count, -3.0, 3.0)]


def _window(lo, hi, count, rng):
    """Stratified draws inside (lo, hi) with a 1% margin at both ends."""
    pad = 0.01 * (hi - lo)
    return _stratified(rng, count, lo + pad, hi - pad)


def _regime_B_ns(n, two_star):
    """(n, s) with critical exponent ``two_star`` (n > 4s when 2* < 4)."""
    return n, 0.5 * n * (1.0 - 2.0 / two_star)


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


class _Plan:
    def __init__(self, workload, seed):
        self.files = {}
        self.ops = []
        self.first_op = None
        self.workload = workload
        self.seed = seed

    def add_file(self, name, obj):
        self.files[name] = _dump(obj)
        return "INPUT:" + name

    def sweep(self, name, grid, kind="sweep", **check):
        """A sweep op over ``grid``: a dict to write, or a ROOT: path."""
        ref = grid if isinstance(grid, str) else self.add_file(
            f"grid_{name}.json", grid)
        self.op(name, ["sweep", "--grid", ref],
                dict(check, kind=kind, grid=ref))

    def op(self, name, argv, check, first=False):
        entry = {"name": name, "argv": argv, "check": check}
        if first:
            self.first_op = entry
        else:
            self.ops.append(entry)

    def params(self, name, n, s, alpha, mu1, mu2, gamma):
        return ["--params", self.add_file(name, {
            "n": n, "s": s, "alpha": alpha, "mu1": mu1, "mu2": mu2,
            "gamma": gamma})]

    def finish(self):
        plan = {"workload": self.workload, "seed": self.seed,
                "first_op": self.first_op, "ops": self.ops}
        self.files["plan.json"] = _dump(plan)
        return self.files


# ---------------------------------------------------------------------------
# phase_sweep: the algebraic path (classify, bracketing, Newton), no FFT

def _regime_B_point(rng):
    """A regime-B point inside the solver's certified domain."""
    n = rng.choice((1, 2, 3, 4, 5))
    n, s = _regime_B_ns(n, rng.uniform(2.5, 3.3))
    ts = _two_star(n, s)
    alpha = rng.uniform(max(1.0, ts - 2.0) + 0.05, min(2.0, ts - 1.0) - 0.05)
    mu2 = rng.uniform(0.5, 2.0)
    gamma = rng.uniform(1.05, 10.0) * _threshold_B(n, s, alpha, 1.0, mu2)
    return n, s, alpha, 1.0, mu2, gamma


def _regime_A_point(rng):
    """A regime-A point with alpha <= 2*/2, where the threshold implies the
    monotonicity the ratio reduction needs."""
    s = rng.uniform(0.3, 0.45)
    ts = _two_star(1, s)
    alpha = 2.0 + rng.uniform(0.05, 0.45) * (ts - 4.0)
    mu2 = rng.uniform(0.5, 2.0)
    gamma = rng.uniform(0.1, 0.9) * _threshold_A(1, s, alpha, 1.0, mu2)
    return 1, s, alpha, 1.0, mu2, gamma


def _phase_sweep(plan, rng):
    plan.op("classify", ["classify"] + plan.params(
        "first.json", *_regime_B_point(rng)),
        {"kind": "label", "label": "ATTAINED_B"}, first=True)

    # the grid of scripts/run_phase_diagram.py, unchanged, and two seeded
    # replicas with alpha and gamma jittered inside each grid cell: three
    # ops of one cost, so that ten samples lie above op_tail_ms from four
    # passes on
    fixed = {"n": 3, "s": 0.5, "mu1": 1.0, "mu2": 1.0}
    plan.sweep("phase_diagram", {
        "axes": {"gamma": [round(-0.5 + 0.05 * i, 10) for i in range(61)],
                 "alpha": [round(1.1 + 0.08 * i, 10) for i in range(10)]},
        "fixed": fixed})
    for i in range(2):
        plan.sweep(f"phase_replica{i}", {
            "axes": {"gamma": _stratified(rng, 61, -0.525, 2.525),
                     "alpha": _stratified(rng, 10, 1.06, 1.86)},
            "fixed": fixed})
    plan.sweep("golden", "ROOT:tests/data/sweep_grid.json", kind="golden",
               path="tests/data/golden_sweep.csv")

    # The (n, s) families are fixed and the seed draws alpha, mu2 and gamma
    # inside them, so a family's cost varies little from seed to seed.
    # Regime B: 2* evenly over [2.05, 3.3].
    for i in range(4):
        fn, fs = _regime_B_ns(2 + i, 2.05 + 1.25 * i / 3)
        ts = _two_star(fn, fs)
        grid = {"axes": {"alpha": _window(max(1.0, ts - 2.0),
                                          min(2.0, ts - 1.0), 2 + i // 2,
                                          rng),
                         "mu2": _log_mus(rng, 4),
                         "gamma": _log_gammas(rng, 10)},
                "fixed": {"n": fn, "s": fs, "mu1": 1.0}}
        plan.sweep(f"B{i}", grid)

    # regime A families: n = 1, 2s < n < 4s, alpha, beta > 2
    for i, fs in enumerate((0.27, 0.45)):
        ts = _two_star(1, fs)
        grid = {"axes": {"alpha": _window(2.0, ts - 2.0, 2 + i, rng),
                         "mu2": _log_mus(rng, 4),
                         "gamma": _log_gammas(rng, 10)},
                "fixed": {"n": 1, "s": fs, "mu1": 1.0}}
        plan.sweep(f"A{i}", grid)

    # symmetric families alpha = beta, mu1 = mu2 = mu with a closed-form
    # root, one per regime, mu stratified over [1e-3, 1e3]
    for i, mu in enumerate(_log_mus(rng, 2)):
        fn, fs = (3, 0.4) if i == 0 else (1, 0.35)
        grid = {"axes": {"gamma": _log_gammas(rng, 20)},
                "fixed": {"n": fn, "s": fs, "alpha": 0.5 * _two_star(fn, fs),
                          "mu1": mu, "mu2": mu}}
        plan.sweep(f"sym{i}", grid, kind="symmetric")

    # single-point calls inside the solver's certified domain; there are
    # enough of them that op_p50_ms falls among the solves
    for i in range(6):
        a_params = plan.params(f"A{i}.json", *_regime_A_point(rng))
        plan.op(f"solve_A{i}", ["solve"] + a_params,
                {"kind": "solve", "save": f"A{i}"})
        plan.op(f"solve_A{i}_ratio", ["solve"] + a_params
                + ["--method", "ratio"], {"kind": "solve", "compare": f"A{i}"})
        b_params = plan.params(f"B{i}.json", *_regime_B_point(rng))
        plan.op(f"solve_B{i}_domination", ["--seed", str(plan.seed), "solve"]
                + b_params + ["--check-domination", "10000"],
                {"kind": "domination"})
        plan.op(f"energy_B{i}", ["energy"] + b_params, {"kind": "energy"})
        plan.op(f"classify_B{i}", ["classify"] + b_params,
                {"kind": "label", "label": "ATTAINED_B"})


# ---------------------------------------------------------------------------
# spectral_verify: FFT-bound, barely touches the solver

def _spectral_verify(plan, rng):
    n, s = 3, 0.5  # 2* = 3: alpha in (1, 2)
    plan.op("verify_N32", ["verify"] + plan.params(
        "first.json", n, s, 1.5, 1.0, 1.0, -0.5) + ["--N", "32", "--L", "8"],
        {"kind": "verify"}, first=True)

    def draw(name, gamma_sign):
        alpha, mu2 = rng.uniform(1.1, 1.9), rng.uniform(0.5, 2.0)
        if gamma_sign > 0:
            gamma = rng.uniform(1.05, 10.0) * _threshold_B(n, s, alpha, 1.0,
                                                           mu2)
        else:
            gamma = -rng.uniform(0.05, 1.0)
        return plan.params(name, n, s, alpha, 1.0, mu2, gamma)

    # three N = 128 calls with gamma > 0 (three transform pairs each) keep
    # op_tail_ms on this one op kind however many passes fit; the median
    # falls between the cheap N = 64 calls and these
    for i in range(3):
        plan.op(f"verify_N128_pos{i}", ["verify"] + draw(f"pos{i}.json", 1),
                {"kind": "verify", "system": True,
                 "bound": SINGLE_REL_L2_BOUND_N128})
    plan.op("verify_N128_neg", ["verify"] + draw("neg.json", -1),
            {"kind": "verify", "bound": SINGLE_REL_L2_BOUND_N128})
    plan.op("sobolev", ["sobolev", "--n", str(n), "--s", str(s)],
            {"kind": "sobolev", "bound": SOBOLEV_REL_GAP_BOUND})
    plan.op("verify_N64_pos", ["verify"] + draw("pos_N64.json", 1)
            + ["--N", "64"], {"kind": "verify", "system": True,
                              "bound": SINGLE_REL_L2_BOUND_N64})
    plan.op("verify_N64_neg", ["verify"] + draw("neg_N64.json", -1)
            + ["--N", "64"], {"kind": "verify",
                              "bound": SINGLE_REL_L2_BOUND_N64})


# ---------------------------------------------------------------------------
# branch_ladder: continuation (scalar algebra) and overlap quadrature

def _branch_ladder(plan, rng):
    n, s, alpha = 3, 0.5, 1.5
    mu1 = 10.0 ** rng.uniform(-0.3, 0.3)
    gamma_max = 0.5 * _threshold_B(n, s, alpha, mu1, mu1)
    plan.op("continue_short", ["continue"] + plan.params(
        "first.json", n, s, alpha, mu1, mu1, 0.1)
        + ["--gamma-max", repr(gamma_max)],
        {"kind": "continue", "gamma_max": gamma_max}, first=True)
    decay = (n - 2.0 * s) / (2.0 * s)
    for ratio in (1.0, 1.5, 2.0, 4.0):
        mu2 = ratio * mu1
        gamma_max = 0.999 * _threshold_B(n, s, alpha, mu1, mu2)
        check = {"kind": "continue", "gamma_max": gamma_max}
        if ratio == 1.0:
            # equal strengths: the certificate fails at 2 (2^(1/d) - 1) mu
            check["certificate_at"] = 2.0 * (2.0 ** (1.0 / decay) - 1.0) * mu1
        else:
            check["fold"] = True
        plan.op(f"continue_ratio{ratio:g}", ["continue"] + plan.params(
            f"ratio{ratio:g}.json", n, s, alpha, mu1, mu2, 0.1)
            + ["--gamma-max", repr(gamma_max)], check)
    # two ladders: with one, op_tail_ms would jump between perturb and the
    # folding branches as the number of passes crosses ten
    for i in range(2):
        plan.op(f"perturb{i}", ["perturb"] + plan.params(
            f"perturb{i}.json", n, s, rng.uniform(1.2, 1.8),
            10.0 ** rng.uniform(-0.3, 0.3), 10.0 ** rng.uniform(-0.3, 0.3),
            -rng.uniform(0.05, 1.0)) + ["--R", "10,20,40"],
            {"kind": "perturb"})


_BUILDERS = {"phase_sweep": _phase_sweep, "spectral_verify": _spectral_verify,
             "branch_ladder": _branch_ladder}


def generate(workload: str, seed: int) -> dict:
    """Plan and input files for one workload and seed: {name: bytes}."""
    plan = _Plan(workload, seed)
    _BUILDERS[workload](plan, random.Random(f"{workload}:{seed}"))
    return plan.finish()
