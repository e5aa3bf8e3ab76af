"""Output checks for the benchmark ops.

Each check reads the text a `critsys` call printed and returns
``(units, failed_units, problem)``.  A unit is a row whose regime asks for a
solve (ATTAINED_A/B) in a sweep, and the whole call otherwise.  ``problem``
is None when every output value is correct, else a one-line reason: a wrong
value is a failed check, while a documented error row is a failed unit only.
"""

from __future__ import annotations

import csv
import io
import json
import math

SWEEP_COLUMNS = ["n", "s", "alpha", "beta", "mu1", "mu2", "gamma", "label",
                 "dimensionless_A", "error"]
SOLVE_LABELS = ("ATTAINED_A", "ATTAINED_B")
LABELS = ("NEGATIVE_GAMMA", "ATTAINED_A", "ATTAINED_B",
          "SMALL_GAMMA_CANDIDATE", "UNCOVERED")
#: coupling residual tolerance of the CLI default
RESIDUAL_TOL = 1e-12
#: closed-form comparisons for values computed in a different operation order
CLOSED_FORM_RTOL = 1e-10
#: at a root the system residuals equal the single residual up to terms of
#: order F1, F2 (<= RESIDUAL_TOL) over it (1.1e-3 at N = 128), plus
#: transform roundoff; today they agree to about 1e-13
SYSTEM_AGREEMENT_RTOL = 1e-8


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _grid_size(grid):
    size = 1
    for values in grid.get("axes", {}).values():
        size *= max(len(values), 1)
    return size


def check_sweep(text, grid, symmetric=False):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return 1, 1, "sweep header differs from the documented columns"
    rows = [dict(zip(SWEEP_COLUMNS, r)) for r in rows[1:]]
    if len(rows) != _grid_size(grid):
        return 1, 1, f"sweep wrote {len(rows)} rows for " \
            f"{_grid_size(grid)} points"
    units = failed = 0
    for row in rows:
        label = row["label"]
        if label not in LABELS:
            return max(units, 1), max(failed, 1), f"unknown label {label!r}"
        n, s = int(row["n"]), float(row["s"])
        mu1, mu2, gamma = (float(row[k]) for k in ("mu1", "mu2", "gamma"))
        value = float(row["dimensionless_A"]) if row["dimensionless_A"] \
            else None
        if label == "NEGATIVE_GAMMA" and not row["error"]:
            d = (n - 2.0 * s) / (2.0 * s)
            expected = mu1 ** -d + mu2 ** -d
            if value is None or _rel(value, expected) > CLOSED_FORM_RTOL:
                return max(units, 1), max(failed, 1), \
                    f"split energy {value} != {expected}"
        if label not in SOLVE_LABELS:
            continue
        units += 1
        if row["error"]:
            failed += 1
            continue
        if value is None or not (math.isfinite(value) and value > 0.0):
            return units, failed + 1, f"bad value {row['dimensionless_A']!r}"
        if symmetric:
            ts = 2.0 * n / (n - 2.0 * s)
            expected = 2.0 * math.exp(-2.0 / (ts - 2.0)
                                      * math.log(mu1 + 0.5 * gamma))
            if _rel(value, expected) > CLOSED_FORM_RTOL:
                return units, failed + 1, \
                    f"symmetric k0 + l0 = {value!r}, closed form {expected!r}"
    return max(units, 1), failed, None


def check_continue(text, gamma_max, certificate_at=None, fold=False):
    lines = text.strip().split("\n")
    if lines[0] != "gamma,k,l,k_plus_l,ordering_ok" or len(lines) < 3:
        return 1, 1, "continuation CSV header or length wrong"
    rows = [line.split(",") for line in lines[1:]]
    gammas = [float(r[0]) for r in rows]
    k = [float(r[1]) for r in rows]
    ok = [r[4] == "true" for r in rows]
    if gammas[0] != 0.0 or any(b <= a for a, b in zip(gammas, gammas[1:])):
        return 1, 1, "continuation gammas do not rise from 0"
    end_short = gammas[-1] < gamma_max * (1.0 - 1e-9)
    if fold:
        slope0 = abs((k[1] - k[0]) / (gammas[1] - gammas[0]))
        slope1 = abs((k[-1] - k[-2]) / (gammas[-1] - gammas[-2]))
        if not (end_short and slope1 > 100.0 * slope0):
            return 1, 1, "branch did not end in a fold"
    elif end_short:
        return 1, 1, f"branch stopped at {gammas[-1]} below {gamma_max}"
    if certificate_at is not None:
        flips = [(gammas[i - 1], gammas[i]) for i in range(1, len(ok))
                 if ok[i - 1] and not ok[i]]
        if not flips or not flips[0][0] < certificate_at < flips[0][1]:
            return 1, 1, f"certificate bracket {flips[:1]} misses " \
                f"{certificate_at}"
    return 1, 0, None


def check_perturb(payload):
    gaps = [row["gap"] for row in payload["rows"]]
    if not all(g > 0.0 for g in gaps):
        return 1, 1, f"non-positive gap in {gaps}"
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        return 1, 1, f"gaps do not decrease in R: {gaps}"
    return 1, 0, None


def check_verify(payload, bound=None, system=False):
    single = payload["single"]["rel_l2_core"]
    if bound is not None and not single < bound:
        return 1, 1, f"single residual {single} above {bound}"
    if not system:
        return 1, 0, None
    if "k0" not in payload:
        return 1, 1, None  # the solve failed: a failed unit, not a wrong value
    for eq in ("system_eq1", "system_eq2"):
        if _rel(payload[eq]["rel_l2_core"], single) > SYSTEM_AGREEMENT_RTOL:
            return 1, 1, f"{eq} residual {payload[eq]['rel_l2_core']} " \
                f"disagrees with the single residual {single}"
    return 1, 0, None


def check_solve(payload, saved, save=None, compare=None):
    if max(payload["res1"], payload["res2"]) > RESIDUAL_TOL:
        return 1, 1, "solve residuals above tolerance"
    if save:
        saved[save] = payload
    if compare:
        ref = saved.get(compare)
        if ref is None:
            return 1, 1, f"no {compare} result to compare against"
        for key in ("k0", "l0"):
            if _rel(payload[key], ref[key]) > CLOSED_FORM_RTOL:
                return 1, 1, f"{payload['method']} {key} {payload[key]} " \
                    f"!= bisection {ref[key]}"
    return 1, 0, None


def check(spec, code, text, root, saved, read_input):
    """Dispatch on ``spec["kind"]``; a non-zero exit is a failed unit."""
    kind = spec["kind"]
    if code != 0:
        return 1, 1, None
    if kind == "golden":
        with open(f"{root}/{spec['path']}") as fh:
            golden = fh.read()
        if text != golden:
            return 1, 1, "sweep differs from the golden file"
        return check_sweep(text, read_input(spec["grid"]))
    if kind in ("sweep", "symmetric"):
        return check_sweep(text, read_input(spec["grid"]),
                           symmetric=kind == "symmetric")
    if kind == "continue":
        return check_continue(text, spec.get("gamma_max", math.inf),
                              spec.get("certificate_at"),
                              spec.get("fold", False))
    payload = json.loads(text)
    if kind == "perturb":
        return check_perturb(payload)
    if kind == "verify":
        return check_verify(payload, spec.get("bound"),
                            spec.get("system", False))
    if kind == "sobolev":
        if not payload["rel_gap"] < spec["bound"]:
            return 1, 1, f"sobolev gap {payload['rel_gap']} above bound"
        return 1, 0, None
    if kind == "solve":
        return check_solve(payload, saved, spec.get("save"),
                           spec.get("compare"))
    if kind == "domination":
        dom = payload["domination"]
        if dom["violations"] != 0 or dom["samples"] != 10000:
            return 1, 1, f"domination report {dom}"
        return check_solve(payload, saved)
    if kind == "energy":
        coeffs = payload["minimizer_coeffs"]
        if not payload["attained"] or _rel(payload["dimensionless_A"],
                                           sum(coeffs)) > CLOSED_FORM_RTOL:
            return 1, 1, f"energy report {payload}"
        return 1, 0, None
    if kind == "label":
        if payload["label"] != spec["label"]:
            return 1, 1, f"label {payload['label']} != {spec['label']}"
        return 1, 0, None
    raise ValueError(f"unknown check kind {kind!r}")
