"""Rigorous enclosure of the solver's certified roots (Krawczyk's test).

For a root x0 = (k0, l0) the test forms, in 80-bit interval arithmetic,

    K = x0 - Y F(x0) + (I - Y J(X)) (X - x0)

on the box X of relative radius rho about x0, where Y is the inverse of a
float Jacobian at x0.  K inside the interior of X proves that X holds
exactly one root of the coupling system.  F and J are written here from the
paper's system and share no code with `critsys.algebraic`; the stored n, s,
alpha, beta, mu1, mu2 and gamma are taken as exact.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from critsys.algebraic import CouplingSolution
from critsys.params import make_params

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv.__class__()  # a context of its own: mpmath.iv keeps its own
iv.prec = 80

DATA = Path(__file__).parent / "data"

#: relative box radii, tried smallest first
RADII = [10.0 ** -e for e in range(14, 4, -1)]


def coupling_system(p):
    """F and J of

        F1 = mu1 k^r + (alpha gamma/2*) k^((alpha-2)/2) l^(beta/2) - 1,
        F2 = mu2 l^r + (beta gamma/2*) k^(alpha/2) l^((beta-2)/2) - 1,

    r = (2*-2)/2, on intervals of k > 0 and l > 0."""
    n, s, a, b, mu1, mu2, g = (iv.mpf(v) for v in (
        p.n, p.s, p.alpha, p.beta, p.mu1, p.mu2, p.gamma))
    ts = 2 * n / (n - 2 * s)
    r = (ts - 2) / 2
    ca, cb = a * g / ts, b * g / ts

    def power(log_k, log_l, p, q):  # k^p l^q
        return iv.exp(p * log_k + q * log_l)

    def F(k, l):
        lk, ll = iv.log(k), iv.log(l)
        return [mu1 * iv.exp(r * lk) + ca * power(lk, ll, (a - 2) / 2, b / 2)
                - 1,
                mu2 * iv.exp(r * ll) + cb * power(lk, ll, a / 2, (b - 2) / 2)
                - 1]

    def J(k, l):
        lk, ll = iv.log(k), iv.log(l)
        cross = power(lk, ll, (a - 2) / 2, (b - 2) / 2)
        return [[mu1 * r * iv.exp((r - 1) * lk)
                 + ca * (a - 2) / 2 * power(lk, ll, (a - 4) / 2, b / 2),
                 ca * b / 2 * cross],
                [cb * a / 2 * cross,
                 mu2 * r * iv.exp((r - 1) * ll)
                 + cb * (b - 2) / 2 * power(lk, ll, a / 2, (b - 4) / 2)]]

    return F, J


def enclosure_radius(p, k0, l0):
    """The smallest of ``RADII`` on whose box Krawczyk's test proves a
    unique root, or None."""
    F, J = coupling_system(p)
    x0 = [iv.mpf(k0), iv.mpf(l0)]
    J0 = np.array([[float(e.mid) for e in row] for row in J(*x0)])
    Y = [[iv.mpf(v) for v in row] for row in np.linalg.inv(J0).tolist()]
    F0 = F(*x0)
    head = [x0[i] - (Y[i][0] * F0[0] + Y[i][1] * F0[1]) for i in range(2)]
    for rho in RADII:
        X = [x * iv.mpf([1.0 - rho, 1.0 + rho]) for x in x0]
        JX = J(*X)
        K = [head[i] + sum(((1 if i == j else 0)
                            - Y[i][0] * JX[0][j] - Y[i][1] * JX[1][j])
                           * (X[j] - x0[j]) for j in range(2))
             for i in range(2)]
        if all(X[i].a < K[i].a and K[i].b < X[i].b for i in range(2)):
            return rho
    return None


def test_every_certified_root_over_the_box_is_enclosed(attained_whole_box):
    radii = [enclosure_radius(p, sol.k, sol.l)
             for p, _, sol in attained_whole_box
             if isinstance(sol, CouplingSolution)]
    assert len(radii) >= 420
    assert all(rho is not None and rho <= 1e-10 for rho in radii)


def test_fold_branch_needs_a_growing_box_toward_its_fold():
    # the branch of `continue` that golden_fold_branch.csv holds; the box a
    # sample needs grows as the branch nears its fold, and the last sample,
    # within about 1e-11 of it, verifies on no box up to 1e-5
    with open(DATA / "golden_fold_branch.csv") as fh:
        rows = list(csv.DictReader(fh))
    radii = [enclosure_radius(make_params(3, 0.5, 1.4, 1.3, 2.6,
                                          float(row["gamma"])),
                              float(row["k"]), float(row["l"]))
             for row in rows]
    assert all(rho is not None and rho <= 1e-6 for rho in radii[:-1])
    assert radii[0] <= 1e-13 and min(radii[-6:-1]) >= 1e-8
