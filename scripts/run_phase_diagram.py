#!/usr/bin/env python3
"""Sweep the coupling strength and exponent split at fixed (n, s, mu) and
write a phase-diagram CSV: one row per grid point with the regime label and
the dimensionless least-energy value where it is established.

Usage: python scripts/run_phase_diagram.py [out.csv]
"""

import json
import os
import sys
import tempfile

from critsys.cli import main as cli_main


def run(out_path: str) -> None:
    gammas = [round(-0.5 + 0.05 * i, 10) for i in range(61)]   # -0.5 .. 2.5
    alphas = [round(1.1 + 0.08 * i, 10) for i in range(10)]    # 1.1 .. 1.82
    grid = {
        "axes": {"gamma": gammas, "alpha": alphas},
        "fixed": {"n": 3, "s": 0.5, "mu1": 1.0, "mu2": 1.0},
    }
    with tempfile.TemporaryDirectory() as tmp:
        grid_path = os.path.join(tmp, "grid.json")
        with open(grid_path, "w") as fh:
            json.dump(grid, fh)
        code = cli_main(["sweep", "--grid", grid_path, "--out", out_path])
    if code != 0:
        raise SystemExit(code)
    print(f"wrote {len(gammas) * len(alphas)} rows to {out_path}")


if __name__ == "__main__":
    run(sys.argv[1] if len(sys.argv) > 1 else "phase_diagram.csv")
