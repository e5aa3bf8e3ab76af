"""Command-line front end.

Single results are emitted as JSON (floats at 17 significant digits, full
resolved parameters embedded for provenance), tables as CSV with a stable
column order.  Exit codes: 0 success, 1 domain errors, 2 numerical
failures, 64 usage errors; a grid too large to allocate is a domain error
on N.  A stdout pipe that its reader closes early ends the command quietly
with exit 0.  Sweep rows are ordered by grid index.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import algebraic, asymptotics, bubbles, regimes, spectral
from .errors import CritsysError, DomainError, NumericalError
from .params import PARAM_KEYS, SystemParams, make_params, params_from_dict

USAGE_EXIT = 64
SWEEP_CAP = 10 ** 6

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


def _csv(columns, rows) -> str:
    """CSV text: the header line, then one line of `_fmt` values per row."""
    return "\n".join([",".join(columns)]
                     + [",".join(_fmt(v) for v in row) for row in rows])


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


@contextlib.contextmanager
def _writing(flag, path):
    """A file of ``path`` that cannot be opened or written is a `DomainError`
    naming ``flag``."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write the {flag} file: {exc}",
                          constraint=flag, value=path) from None


def _emit(text: str, out_path):
    if out_path:
        with _writing("out", out_path), open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


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


@functools.cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def _record(obj) -> dict:
    """A dataclass instance's fields by name, in declaration order; the
    values are its own, not copies."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


SWEEP_COLUMNS = (*_field_names(SystemParams), "label", "dimensionless_A",
                 "error")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="critsys",
                     description="coupled critical-system solver/verifier")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several subcommands share, each declared once; argparse
    # lists a parent's flags before the subcommand's own
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    params = argparse.ArgumentParser(add_help=False, parents=[out])
    params.add_argument("--params", metavar="FILE",
                        help=f"JSON file with {', '.join(PARAM_KEYS)}")
    for key in PARAM_KEYS:
        params.add_argument(f"--{key}", type=int if key == "n" else float)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=algebraic.RESIDUAL_TOL)

    def command(name, handler, *parents, help):
        """A subcommand whose parsed arguments carry its ``handler``."""
        cmd = sub.add_parser(name, parents=parents, help=help)
        cmd.set_defaults(handler=handler)
        return cmd

    command("classify", _cmd_classify, params, help="regime classification")

    p_solve = command("solve", _cmd_solve, params, tol,
                      help="solve the coupling system")
    p_solve.add_argument("--method", choices=("bisection", "ratio"),
                         default="bisection")
    p_solve.add_argument("--check-domination", type=int, metavar="SAMPLES",
                         default=0,
                         help="also run the randomized domination check")

    p_energy = command("energy", _cmd_energy, params,
                       help="least-energy report")
    p_energy.add_argument("--Ss", type=float, default=None,
                          help="sharp constant for the absolute value")

    p_sob = command("sobolev", _cmd_sobolev, out,
                    help="sharp constant two ways")
    p_sob.add_argument("--n", type=int, required=True)
    p_sob.add_argument("--s", type=float, required=True)
    p_sob.add_argument("--L", type=float, default=30.0)
    p_sob.add_argument("--N", type=int, default=128)
    p_sob.add_argument("--eps", type=float, default=None)

    p_verify = command("verify", _cmd_verify, params, tol,
                       help="pseudospectral PDE residuals")
    p_verify.add_argument("--L", type=float, default=30.0)
    p_verify.add_argument("--N", type=int, default=128)
    p_verify.add_argument("--eps", type=float, default=1.0)
    p_verify.add_argument("--dump", metavar="FILE",
                          help="write the normalized profile as a raw dump")

    p_pert = command("perturb", _cmd_perturb, params, tol,
                     help="separation ladder for gamma < 0")
    p_pert.add_argument("--R", required=True,
                        help="comma-separated separations, e.g. 10,20,40")
    p_pert.add_argument("--eps", type=float, default=1.0)
    p_pert.add_argument("--N", type=int, default=128)

    p_cont = command("continue", _cmd_continue, params, tol,
                     help="trace the branch in gamma")
    p_cont.add_argument("--gamma-max", type=float, required=True)
    p_cont.add_argument("--step", default="auto",
                        help='initial step size or "auto"')

    p_sweep = command("sweep", _cmd_sweep, out, tol, help="grid sweep to CSV")
    p_sweep.add_argument("--grid", required=True, metavar="FILE",
                         help='JSON {"axes": {...}, "fixed": {...}}')

    return parser


#: the parser of `main`, built once per process; parsing leaves it as it was
_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# command handlers: each returns a JSON payload or CSV (columns, rows)

def _cmd_classify(args):
    p = _resolve_params(args)
    regime = regimes.classify(p)
    return {
        "label": regime.label,
        "gammaA": regime.gamma_threshold_A,
        "gammaB": regime.gamma_threshold_B,
        "notes": list(regime.notes),
        "params": _record(p),
    }


def _cmd_solve(args):
    p = _resolve_params(args)
    solve = algebraic.solve_ratio_reduction if args.method == "ratio" \
        else algebraic.find_k0_l0
    sol = solve(p, tol=args.tol)
    payload = {"k0": sol.k, "l0": sol.l, "res1": sol.res1, "res2": sol.res2,
               "method": sol.method, "params": _record(p)}
    if args.check_domination:
        report = algebraic.check_domination(p, sol,
                                            samples=args.check_domination,
                                            seed=args.seed)
        payload["domination"] = {
            "samples": report.samples, "feasible": report.feasible,
            "violations": report.violations,
            "worst_margin": report.worst_margin,
        }
    return payload


def _cmd_energy(args):
    p = _resolve_params(args)
    regime = regimes.classify(p)
    solution = None
    if regime.label in regimes.ATTAINED:
        solution = algebraic.find_k0_l0(p)
    report = regimes.least_energy(p, solution=solution, S_s=args.Ss)
    return {"label": regime.label, **_record(report), "params": _record(p)}


def _cmd_sobolev(args):
    closed = bubbles._closed_form(args.n, args.s)
    dummy = make_params(args.n, args.s,
                        alpha=0.5 * (2.0 * args.n / (args.n - 2 * args.s)),
                        mu1=1.0, mu2=1.0, gamma=0.0)
    spectral_est = bubbles.sobolev_constant_spectral(dummy, L=args.L, N=args.N,
                                                     eps=args.eps)
    return {
        "n": args.n, "s": args.s,
        "closed_form": closed,
        "spectral": spectral_est.value,
        "est_error": spectral_est.est_error,
        "rel_gap": abs(spectral_est.value - closed) / closed,
        "L": args.L, "N": args.N,
        "eps": args.eps if args.eps is not None
        else args.L * bubbles.DEFAULT_EPS_FRACTION,
    }


def _cmd_verify(args):
    p = _resolve_params(args)
    S = bubbles.sobolev_constant_closed_form(p).value
    spec = bubbles.BubbleSpec(epsilon=args.eps, center=(0.0,) * p.n)
    U = bubbles.normalized_bubble_field(p, spec, S, args.N, args.L)
    if args.dump:
        with _writing("dump", args.dump):
            spectral.dump_field(U, p.s, args.dump)
    payload = {
        "S_s": S,
        "single": _record(spectral.pde_residual_single(p, U)),
        "params": _record(p),
    }
    if p.gamma >= 0.0:
        try:
            sol = algebraic.find_k0_l0(p, tol=args.tol)
        except CritsysError as exc:
            payload["system_skipped"] = exc.to_json()
        else:
            rep1, rep2 = spectral.pde_residual_system(p, sol.k, sol.l, U)
            payload.update({
                "k0": sol.k, "l0": sol.l,
                "system_eq1": _record(rep1),
                "system_eq2": _record(rep2),
            })
    return payload


def _cmd_perturb(args):
    p = _resolve_params(args)
    try:
        R_list = [float(v) for v in args.R.split(",") if v]
    except ValueError as exc:
        raise DomainError(f"bad separation list: {exc}", constraint="R",
                          value=args.R)
    quad = asymptotics.OverlapQuadrature(N=args.N, eps=args.eps)
    rows = asymptotics.energy_gap_vs_R(p, R_list, quad=quad, tol=args.tol)
    return {"rows": [_record(r) for r in rows], "params": _record(p)}


def _cmd_continue(args):
    p = _resolve_params(args)
    try:
        step = None if args.step == "auto" else float(args.step)
    except ValueError as exc:
        raise DomainError(f'step must be "auto" or a number: {exc}',
                          constraint="step", value=args.step) from None
    path = asymptotics.continuation_branch(p, gamma_max=args.gamma_max,
                                           step=step, tol=args.tol)
    return CONTINUE_COLUMNS, [(row.gamma, row.k, row.l, row.k + row.l,
                               row.ordering_ok) for row in path.samples]


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
            row = _record(p)
            row["label"], row["error"] = regimes.classify(p).label, ""
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

    return SWEEP_COLUMNS, [[row.get(col, "") for col in SWEEP_COLUMNS]
                           for row in _sweep_rows(points, args.tol)]


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        # non-finite values end in an error JSON; numpy's warnings are noise
        with np.errstate(all="ignore"):
            algebraic.check_tol(getattr(args, "tol", 0.0))
            try:
                result = args.handler(args)
            except MemoryError:  # numpy could not allocate a grid array
                if not hasattr(args, "N"):
                    raise
                raise DomainError("the grid is too large to allocate",
                                  constraint="N", value=args.N) from None
            except OverflowError as exc:  # a Python float left its range
                raise NumericalError(f"a value overflows a float: {exc}",
                                     constraint="overflow") from None
            _emit(dumps17(result) if isinstance(result, dict)
                  else _csv(*result), args.out)
        sys.stdout.flush()
    except CritsysError as exc:
        print(dumps17(exc.to_json()), file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout and wants no more output; stdout now
        # points at devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
