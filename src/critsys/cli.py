"""Command-line front end.

Single results are emitted as JSON (floats at 17 significant digits, full
resolved parameters embedded for provenance), tables as CSV with a stable
column order.  Exit codes: 0 success, 1 domain errors, 2 numerical
failures, 64 usage errors.  Sweep rows are ordered by grid index.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import algebraic, asymptotics, bubbles, regimes, spectral
from .errors import CritsysError, DomainError
from .params import PARAM_KEYS, SystemParams, make_params, params_from_dict

USAGE_EXIT = 64
SWEEP_CAP = 10 ** 6

SWEEP_COLUMNS = ("n", "s", "alpha", "beta", "mu1", "mu2", "gamma",
                 "label", "dimensionless_A", "error")
CONTINUE_COLUMNS = ("gamma", "k", "l", "k_plus_l", "ordering_ok")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def dumps17(obj, indent=0) -> str:
    """JSON text with every finite float at 17 significant digits and
    nan, inf and -inf as the strings "nan", "inf" and "-inf"."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps17(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = ", ".join(dumps17(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return json.dumps(str(obj))  # JSON has no nan or inf numbers
        return format(obj, ".17g")
    return json.dumps(obj)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _add_param_arguments(sub):
    sub.add_argument("--params", metavar="FILE",
                     help="JSON file with n, s, alpha, mu1, mu2, gamma")
    sub.add_argument("--n", type=int)
    sub.add_argument("--s", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--mu1", type=float)
    sub.add_argument("--mu2", type=float)
    sub.add_argument("--gamma", type=float)


def _load_json_object(path, constraint) -> dict:
    """The JSON object in a file; a missing, unreadable or malformed file is
    a `DomainError` naming ``constraint``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read the {constraint} file: {exc}",
                          constraint=constraint, value=path) from None
    if not isinstance(obj, dict):
        raise DomainError(f"the {constraint} file must hold a JSON object",
                          constraint=constraint, value=path)
    return obj


def _resolve_params(args) -> SystemParams:
    fields = {}
    if args.params:
        fields.update(_load_json_object(args.params, "params"))
    for key in PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            fields[key] = flag
    if getattr(args, "alpha", None) is not None:
        fields.pop("beta", None)  # beta is derived; a file copy went stale
    return params_from_dict(fields)


def _params_payload(p: SystemParams) -> dict:
    return {"n": p.n, "s": p.s, "alpha": p.alpha, "beta": p.beta,
            "mu1": p.mu1, "mu2": p.mu2, "gamma": p.gamma}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="critsys",
                     description="coupled critical-system solver/verifier")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="regime classification")
    _add_param_arguments(p_classify)
    p_classify.add_argument("--out")

    p_solve = sub.add_parser("solve", help="solve the coupling system")
    _add_param_arguments(p_solve)
    p_solve.add_argument("--tol", type=float, default=algebraic.RESIDUAL_TOL)
    p_solve.add_argument("--method", choices=("bisection", "ratio"),
                         default="bisection")
    p_solve.add_argument("--check-domination", type=int, metavar="SAMPLES",
                         default=0,
                         help="also run the randomized domination check")
    p_solve.add_argument("--out")

    p_energy = sub.add_parser("energy", help="least-energy report")
    _add_param_arguments(p_energy)
    p_energy.add_argument("--Ss", type=float, default=None,
                          help="sharp constant for the absolute value")
    p_energy.add_argument("--out")

    p_sob = sub.add_parser("sobolev", help="sharp constant two ways")
    p_sob.add_argument("--n", type=int, required=True)
    p_sob.add_argument("--s", type=float, required=True)
    p_sob.add_argument("--L", type=float, default=30.0)
    p_sob.add_argument("--N", type=int, default=128)
    p_sob.add_argument("--eps", type=float, default=None)
    p_sob.add_argument("--out")

    p_verify = sub.add_parser("verify", help="pseudospectral PDE residuals")
    _add_param_arguments(p_verify)
    p_verify.add_argument("--L", type=float, default=30.0)
    p_verify.add_argument("--N", type=int, default=128)
    p_verify.add_argument("--eps", type=float, default=1.0)
    p_verify.add_argument("--tol", type=float, default=algebraic.RESIDUAL_TOL)
    p_verify.add_argument("--dump", metavar="FILE",
                          help="write the normalized profile as a raw dump")
    p_verify.add_argument("--out")

    p_pert = sub.add_parser("perturb", help="separation ladder for gamma < 0")
    _add_param_arguments(p_pert)
    p_pert.add_argument("--R", required=True,
                        help="comma-separated separations, e.g. 10,20,40")
    p_pert.add_argument("--eps", type=float, default=1.0)
    p_pert.add_argument("--N", type=int, default=128)
    p_pert.add_argument("--tol", type=float, default=1e-12)
    p_pert.add_argument("--out")

    p_cont = sub.add_parser("continue", help="trace the branch in gamma")
    _add_param_arguments(p_cont)
    p_cont.add_argument("--gamma-max", type=float, required=True)
    p_cont.add_argument("--step", default="auto",
                        help='initial step size or "auto"')
    p_cont.add_argument("--tol", type=float, default=1e-12)
    p_cont.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.add_argument("--grid", required=True, metavar="FILE",
                         help='JSON {"axes": {...}, "fixed": {...}}')
    p_sweep.add_argument("--tol", type=float, default=algebraic.RESIDUAL_TOL)
    p_sweep.add_argument("--out")

    return parser


#: the parser of `main`, built once per process; parsing leaves it as it was
_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_classify(args):
    p = _resolve_params(args)
    regime = regimes.classify(p)
    payload = {
        "label": regime.label,
        "gammaA": regime.gamma_threshold_A,
        "gammaB": regime.gamma_threshold_B,
        "notes": list(regime.notes),
        "params": _params_payload(p),
    }
    _emit(dumps17(payload), args.out)


def _solve_for(p: SystemParams, method: str, tol: float):
    if method == "ratio":
        return algebraic.solve_ratio_reduction(p, tol=tol)
    return algebraic.find_k0_l0(p, tol=tol)


def _cmd_solve(args):
    p = _resolve_params(args)
    sol = _solve_for(p, args.method, args.tol)
    payload = {"k0": sol.k, "l0": sol.l, "res1": sol.res1, "res2": sol.res2,
               "method": sol.method, "params": _params_payload(p)}
    if args.check_domination:
        report = algebraic.check_domination(p, sol,
                                            samples=args.check_domination,
                                            seed=args.seed)
        payload["domination"] = {
            "samples": report.samples, "feasible": report.feasible,
            "violations": report.violations,
            "worst_margin": report.worst_margin,
        }
    _emit(dumps17(payload), args.out)


def _cmd_energy(args):
    p = _resolve_params(args)
    regime = regimes.classify(p)
    solution = None
    if regime.label in regimes.ATTAINED:
        solution = algebraic.find_k0_l0(p)
    report = regimes.least_energy(p, solution=solution, S_s=args.Ss)
    payload = {
        "label": regime.label,
        "dimensionless_A": report.dimensionless_A,
        "absolute_A": report.absolute_A,
        "attained": report.attained,
        "minimizer_coeffs": list(report.minimizer_coeffs)
        if report.minimizer_coeffs else None,
        "params": _params_payload(p),
    }
    _emit(dumps17(payload), args.out)


def _cmd_sobolev(args):
    closed = bubbles._closed_form(args.n, args.s)
    dummy = make_params(args.n, args.s,
                        alpha=0.5 * (2.0 * args.n / (args.n - 2 * args.s)),
                        mu1=1.0, mu2=1.0, gamma=0.0)
    spectral_est = bubbles.sobolev_constant_spectral(dummy, L=args.L, N=args.N,
                                                     eps=args.eps)
    payload = {
        "n": args.n, "s": args.s,
        "closed_form": closed,
        "spectral": spectral_est.value,
        "est_error": spectral_est.est_error,
        "rel_gap": abs(spectral_est.value - closed) / closed,
        "L": args.L, "N": args.N,
        "eps": args.eps if args.eps is not None
        else args.L * bubbles.DEFAULT_EPS_FRACTION,
    }
    _emit(dumps17(payload), args.out)


def _report_payload(rep: spectral.ResidualReport) -> dict:
    return {"rel_l2_core": rep.rel_l2_core, "rel_sup_core": rep.rel_sup_core,
            "truncation_flag": rep.truncation_flag}


def _cmd_verify(args):
    p = _resolve_params(args)
    S = bubbles.sobolev_constant_closed_form(p).value
    spec = bubbles.BubbleSpec(epsilon=args.eps, center=(0.0,) * p.n)
    U = bubbles.normalized_bubble_field(p, spec, S, args.N, args.L)
    if args.dump:
        spectral.dump_field(U, p.s, args.dump)
    payload = {
        "S_s": S,
        "single": _report_payload(spectral.pde_residual_single(p, U)),
        "params": _params_payload(p),
    }
    if p.gamma >= 0.0:
        try:
            sol = _solve_for(p, "bisection", args.tol)
        except CritsysError as exc:
            payload["system_skipped"] = exc.to_json()
        else:
            rep1, rep2 = spectral.pde_residual_system(p, sol.k, sol.l, U)
            payload.update({
                "k0": sol.k, "l0": sol.l,
                "system_eq1": _report_payload(rep1),
                "system_eq2": _report_payload(rep2),
            })
    _emit(dumps17(payload), args.out)


def _cmd_perturb(args):
    p = _resolve_params(args)
    try:
        R_list = [float(v) for v in args.R.split(",") if v]
    except ValueError as exc:
        raise DomainError(f"bad separation list: {exc}", constraint="R",
                          value=args.R)
    quad = asymptotics.OverlapQuadrature(N=args.N, eps=args.eps)
    rows = asymptotics.energy_gap_vs_R(p, R_list, quad=quad, tol=args.tol)
    payload = {
        "rows": [{"R": r.R, "theta": r.theta, "tR": r.tR, "sR": r.sR,
                  "upper_bound": r.upper_bound, "gap": r.gap} for r in rows],
        "params": _params_payload(p),
    }
    _emit(dumps17(payload), args.out)


def _cmd_continue(args):
    p = _resolve_params(args)
    step = None if args.step == "auto" else float(args.step)
    path = asymptotics.continuation_branch(p, gamma_max=args.gamma_max,
                                           step=step, tol=args.tol)
    lines = [",".join(CONTINUE_COLUMNS)]
    for row in path.samples:
        lines.append(",".join(_fmt(v) for v in
                              (row.gamma, row.k, row.l, row.k + row.l,
                               row.ordering_ok)))
    _emit("\n".join(lines), args.out)


def _sweep_rows(points, tol):
    """CSV rows of a sweep in grid order.  Every attained point is solved in
    one batch; a failing point records its error instead of a value."""
    rows, params = [], []
    for point in points:
        try:
            p = params_from_dict(point)
        except CritsysError as exc:
            p, row = None, dict(point, beta="", label="INVALID",
                                error=f"{exc.code}: {exc}")
        else:
            row = dict(_params_payload(p), label=regimes.classify(p).label,
                       error="")
        row["dimensionless_A"] = ""
        rows.append(row)
        params.append(p)

    solve = [i for i, row in enumerate(rows)
             if row["label"] in regimes.ATTAINED]
    solutions = dict(zip(solve, algebraic.find_k0_l0_batch(
        [params[i] for i in solve], tol=tol)))
    for i, (row, p) in enumerate(zip(rows, params)):
        sol = solutions.get(i)
        if isinstance(sol, CritsysError):
            row["error"] = f"{sol.code}: {sol}"
        elif sol is not None or row["label"] == regimes.NEGATIVE_GAMMA:
            try:
                row["dimensionless_A"] = regimes.least_energy(
                    p, solution=sol).dimensionless_A
            except CritsysError as exc:
                row["error"] = f"{exc.code}: {exc}"
    return rows


def _cmd_sweep(args):
    grid = _load_json_object(args.grid, "grid")
    axes = grid.get("axes", {})
    fixed = grid.get("fixed", {})
    if not (isinstance(axes, dict) and isinstance(fixed, dict)
            and all(isinstance(vals, list) for vals in axes.values())):
        raise DomainError('the grid needs "axes", an object of lists, and '
                          '"fixed", an object', constraint="grid",
                          value=args.grid)
    axis_names = list(axes)
    axis_values = [axes[name] for name in axis_names]
    total = 1
    for vals in axis_values:
        total *= max(len(vals), 1)
    if total > SWEEP_CAP:
        raise DomainError(f"grid has {total} points, above the cap {SWEEP_CAP}",
                          constraint="grid size", value=total)

    points = []
    for combo in itertools.product(*axis_values) if axis_values else [()]:
        point = dict(fixed)
        point.update(dict(zip(axis_names, combo)))
        points.append(point)

    lines = [",".join(SWEEP_COLUMNS)]
    for row in _sweep_rows(points, args.tol):
        lines.append(",".join(_fmt(row.get(col, "")) for col in SWEEP_COLUMNS))
    _emit("\n".join(lines), args.out)


_HANDLERS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "energy": _cmd_energy,
    "sobolev": _cmd_sobolev,
    "verify": _cmd_verify,
    "perturb": _cmd_perturb,
    "continue": _cmd_continue,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        # non-finite values end in an error JSON; numpy's warnings are noise
        with np.errstate(all="ignore"):
            _HANDLERS[args.command](args)
    except CritsysError as exc:
        print(dumps17(exc.to_json()), file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
