"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from critsys.errors import DomainError
from critsys.params import make_params


@st.composite
def system_params(draw, gamma_min=-5.0, gamma_max=5.0):
    """Any valid parameter set (gamma of either sign)."""
    n = draw(st.integers(min_value=1, max_value=6))
    s_hi = min(0.95, 0.5 * n - 0.01)
    s = draw(st.floats(min_value=0.05, max_value=s_hi))
    ts = 2.0 * n / (n - 2.0 * s)
    frac = draw(st.floats(min_value=0.05, max_value=0.95))
    alpha = 1.0 + frac * (ts - 2.0)
    mu1 = draw(st.floats(min_value=0.1, max_value=10.0))
    mu2 = draw(st.floats(min_value=0.1, max_value=10.0))
    gamma = draw(st.floats(min_value=gamma_min, max_value=gamma_max))
    return make_params(n, s, alpha, mu1, mu2, gamma)


@st.composite
def concave_regime_params(draw, gamma_min=0.01, gamma_max=3.0):
    """n > 4s with 1 < alpha, beta < 2 (the root-finding curve regime)."""
    n = draw(st.integers(min_value=1, max_value=6))
    s_hi = min(0.95, 0.25 * n - 0.01)
    s = draw(st.floats(min_value=0.05, max_value=s_hi))
    ts = 2.0 * n / (n - 2.0 * s)
    lo, hi = max(1.0, ts - 2.0), min(2.0, ts - 1.0)
    frac = draw(st.floats(min_value=0.05, max_value=0.95))
    alpha = lo + frac * (hi - lo)
    mu1 = draw(st.floats(min_value=0.1, max_value=10.0))
    mu2 = draw(st.floats(min_value=0.1, max_value=10.0))
    gamma = draw(st.floats(min_value=gamma_min, max_value=gamma_max))
    return make_params(n, s, alpha, mu1, mu2, gamma)


def rng_params(rng: np.random.Generator, *, regime: str,
               mu_range=(0.2, 5.0)) -> dict:
    """Seeded numpy draw of raw fields for one of the solver regimes.

    regime "A": 2s < n < 4s with alpha, beta > 2 (critical power above 4);
    regime "B": n > 4s with 1 < alpha, beta < 2 (critical power below 4).
    Returns the raw fields without gamma; callers pick gamma relative to
    the regime threshold.
    """
    if regime == "A":
        n = 1
        s = rng.uniform(0.27, 0.48)
        ts = 2.0 * n / (n - 2.0 * s)
        alpha = 2.0 + rng.uniform(0.1, 0.9) * (ts - 4.0)
    elif regime == "B":
        n = int(rng.choice([1, 2, 3, 5]))
        s = rng.uniform(0.05, 0.25 * n - 0.02) if n <= 3 \
            else rng.uniform(0.05, 0.95)
        ts = 2.0 * n / (n - 2.0 * s)
        lo, hi = max(1.0, ts - 2.0), min(2.0, ts - 1.0)
        alpha = lo + rng.uniform(0.1, 0.9) * (hi - lo)
    else:
        raise ValueError(regime)
    return {"n": n, "s": float(s), "alpha": float(alpha),
            "mu1": float(rng.uniform(*mu_range)),
            "mu2": float(rng.uniform(*mu_range))}


def case_edge_draws(rng: np.random.Generator, count: int) -> list:
    """``count`` valid parameter sets over n = 1..7, each with a flag that
    says whether it sits at an edge of the theorem's two cases.

    A third are edge draws, within 4 ulps of s = n/4 (with alpha = 2*/2,
    or uniform), of alpha = 2, or of beta = 2 (alpha = 2* - 2).  The rest
    are plain: s uniform where n > 2s and alpha uniform in (1, 2* - 1).
    mu is log-uniform over [1e-3, 1e3] and gamma of either sign or 0.  A
    draw that `make_params` rejects is drawn again.
    """
    out, edges = [], 0
    while len(out) < count:
        m = 4096
        ns = rng.integers(1, 8, m)
        kinds = rng.integers(0, 3, m)
        ks = rng.integers(-4, 5, (m, 2))
        us = rng.uniform(size=(m, 3))
        mus = 10.0 ** rng.uniform(-3.0, 3.0, (m, 2))
        gammas = (rng.choice((-1.0, 0.0, 1.0, 1.0), m)
                  * 10.0 ** rng.uniform(-3.0, 3.0, m))
        for n, kind, (k, k2), (u, v, w), (mu1, mu2), gamma in zip(
                ns.tolist(), kinds.tolist(), ks.tolist(), us.tolist(),
                mus.tolist(), gammas.tolist()):
            edge = 3 * edges < len(out) + 1
            if edge and kind == 0:
                n = 1 + int(4 * u)  # s = n/4 < 1 needs n <= 4
                s = _ulps(0.25 * n, k)
            else:
                s = u * min(1.0, 0.5 * n)
            ts = 2.0 * n / (n - 2.0 * s) if n > 2.0 * s else 3.0
            alpha = 1.0 + v * (ts - 2.0)
            if edge and kind == 0 and w < 0.5:
                alpha = _ulps(0.5 * ts, k2)
            elif edge and kind > 0:
                alpha = _ulps(2.0 if kind == 1 else ts - 2.0, k)
            try:
                p = make_params(n, s, alpha, mu1, mu2, gamma)
            except DomainError:
                continue
            out.append((p, edge))
            edges += edge
            if len(out) == count:
                break
    return out


def _ulps(x: float, k: int) -> float:
    """x moved by k units in the last place, up for k > 0, down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def symmetric_threshold(ts: float, mu: float) -> float:
    """Common value of both thresholds when alpha = beta = 2*/2, mu1 = mu2."""
    return (ts - 2.0) * mu
