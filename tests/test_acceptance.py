"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from critsys.algebraic import check_domination, curve_diagnostics, find_k0_l0
from critsys.asymptotics import (OverlapQuadrature, contraction_ball,
                                 continuation_branch, energy_gap_vs_R,
                                 solve_tR_sR)
from critsys.bubbles import (BubbleSpec, bubble_field,
                             normalized_bubble_field, rayleigh_quotient,
                             sobolev_constant_closed_form,
                             sobolev_constant_spectral)
from critsys.errors import DivergenceError
from critsys.params import make_params
from critsys.regimes import (gamma_threshold_A, gamma_threshold_B,
                             least_energy)
from critsys.spectral import pde_residual_single, pde_residual_system

from conftest import fd_lprime


def _report(num, detail):
    print(f"[PASS] criterion {num}: {detail}")


def _symmetric_draw(rng):
    """Random (n, s, mu, gamma) with alpha = beta = 2*/2, strictly inside
    an attained regime (the exact thresholds are tangential roots)."""
    if rng.random() < 0.5:  # wide-exponent regime: 2s < n < 4s
        n = 1
        s = rng.uniform(0.27, 0.48)
        ts = 2.0 * n / (n - 2.0 * s)
        mu = rng.uniform(0.3, 3.0)
        gamma = rng.uniform(0.05, 0.95) * (ts - 2.0) * mu
    else:                   # narrow-exponent regime: n > 4s
        n = int(rng.choice([1, 2, 3, 5]))
        s = rng.uniform(0.05, 0.25 * n - 0.02) if n <= 3 \
            else rng.uniform(0.05, 0.95)
        ts = 2.0 * n / (n - 2.0 * s)
        mu = rng.uniform(0.3, 3.0)
        gamma = rng.uniform(1.05, 4.0) * (ts - 2.0) * mu
    return make_params(n, s, 0.5 * ts, mu, mu, gamma), ts, mu


def test_criterion_1_symmetric_closed_form():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(50):
        p, ts, mu = _symmetric_draw(rng)
        sol = find_k0_l0(p)
        expected = (mu + p.gamma / 2.0) ** (-2.0 / (ts - 2.0))
        assert abs(sol.k - expected) <= 1e-10 * max(1.0, expected)
        assert abs(sol.l - expected) <= 1e-10 * max(1.0, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"50 symmetric closed-form roots at 1e-10 in {elapsed:.2f} s")


def test_criterion_2_split_energy_value_and_gap():
    start = time.perf_counter()
    # formula identity at gamma < 0 (exact arithmetic restatement)
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.choice([1, 3, 4]))
        s = rng.uniform(0.05, min(0.95, 0.5 * n - 0.01))
        ts = 2.0 * n / (n - 2.0 * s)
        alpha = 1.0 + rng.uniform(0.1, 0.9) * (ts - 2.0)
        mu1, mu2 = rng.uniform(0.2, 5.0, 2)
        p = make_params(n, s, alpha, mu1, mu2, -rng.uniform(0.1, 3.0))
        d = (n - 2.0 * s) / (2.0 * s)
        expected = mu1 ** (-d) + mu2 ** (-d)
        got = least_energy(p).dimensionless_A
        assert abs(got - expected) <= 1e-14 * expected

    # separated-bubble ladder closes the gap to the split value 1.25
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, -1.0)
    rows = energy_gap_vs_R(p, [10.0, 20.0, 40.0],
                           quad=OverlapQuadrature(N=128, eps=1.0))
    gaps = [r.gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] >= -1e-8
    assert gaps[2] < 0.05 * 1.25
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"split value exact, ladder gaps {gaps[0]:.2e} > "
               f"{gaps[1]:.2e} > {gaps[2]:.2e} in {elapsed:.1f} s")


def test_criterion_3_domination():
    start = time.perf_counter()
    p = make_params(1, 0.4, 5.0, 1.0, 1.0, 8.0)
    sol = find_k0_l0(p)
    report = check_domination(p, sol, samples=10_000, seed=20240501)
    elapsed = time.perf_counter() - start
    assert report.violations == 0
    assert report.worst_margin is None or report.worst_margin >= -1e-9
    assert elapsed < 5.0
    _report(3, f"{report.feasible} feasible pairs, 0 violations, worst "
               f"margin {report.worst_margin:.2e} in {elapsed:.2f} s")


def test_criterion_4_slope_bound():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)  # exactly at the threshold
    diag = curve_diagnostics(p)
    assert abs(diag.lprime_min - (-1.0)) <= 1e-10
    _, fd = fd_lprime(p, diag.k_inflection)
    assert np.min(fd) >= -1.0 - 1e-6

    # negative control: below the threshold the slope dips under -1.
    # (the criterion prints gamma = 2, but the closed form it pins above
    # scales as (1/gamma)^(2/beta): gamma = 2 gives -2^(-4/3) > -1, and the
    # quoted control value -2^(4/3) belongs to gamma = 0.5; see the ledger)
    p_low = p.replace_gamma(0.5)
    diag_low = curve_diagnostics(p_low)
    assert diag_low.lprime_min == pytest.approx(-2.0 ** (4.0 / 3.0), rel=1e-12)
    _, fd_low = fd_lprime(p_low, diag_low.k_inflection)
    assert np.min(fd_low) < -1.0
    # documenting the scaling that forces this reading:
    p_high = p.replace_gamma(2.0)
    assert curve_diagnostics(p_high).lprime_min \
        == pytest.approx(-2.0 ** (-4.0 / 3.0), rel=1e-12)
    _report(4, "slope minimum -1 at the threshold (1e-10), grid bound "
               "-1-1e-6 holds, sub-threshold control dips to "
               f"{np.min(fd_low):.4f}")


def test_criterion_5_thresholds():
    p_b = make_params(3, 0.5, 1.5, 1.0, 1.0, 0.0)
    assert abs(gamma_threshold_B(p_b) - 1.0) <= 1e-12
    p_a = make_params(1, 0.4, 5.0, 1.0, 1.0, 0.0)
    assert abs(gamma_threshold_A(p_a) - 8.0) <= 1e-12
    _report(5, "thresholds 1 and 8 reproduced to 1e-12")


def test_criterion_6_sobolev_cross_validation():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
    closed = sobolev_constant_closed_form(p).value
    est = sobolev_constant_spectral(p, L=30.0, N=128, eps=1.0)
    rel = abs(est.value - closed) / closed
    assert rel <= 0.01

    field = bubble_field(BubbleSpec(1.0, (0.0,) * 3), p, 64, 20.0)
    qa = rayleigh_quotient(p, field)
    qb = rayleigh_quotient(p, field.like(2.0 * field.values))
    assert abs(qa - qb) / qa <= 1e-12
    _report(6, f"closed {closed:.5f} vs spectral {est.value:.5f} "
               f"({100 * rel:.2f}%), quotient amplitude-invariant to 1e-12")


def test_criterion_7_pde_verification():
    start = time.perf_counter()
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
    S = sobolev_constant_closed_form(p).value
    U = normalized_bubble_field(p, BubbleSpec(1.0, (0.0,) * 3), S, 128, 30.0)
    single = pde_residual_single(p, U)
    assert single.rel_l2_core <= 5e-2

    sol = find_k0_l0(p)
    rep1, rep2 = pde_residual_system(p, sol.k, sol.l, U)
    for rep in (rep1, rep2):
        assert abs(rep.rel_l2_core - single.rel_l2_core) \
            <= 1e-10 * single.rel_l2_core
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"core residual {single.rel_l2_core:.2e} <= 5e-2, system "
               f"matches to 1e-10 in {elapsed:.1f} s")


def test_criterion_8_continuation():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 0.5)
    path = continuation_branch(p, gamma_max=0.99)
    assert path.termination == "completed"

    worst = 0.0
    for smp in path.samples:
        closed = (1.0 + smp.gamma / 2.0) ** -2.0
        worst = max(worst, abs(smp.k - closed), abs(smp.l - closed))
    assert worst <= 1e-8

    first = path.samples[0]
    assert abs(first.k - 1.0) <= 1e-8 and abs(first.l - 1.0) <= 1e-8

    # ordering certificate: holds up to the exact flip 2(sqrt 2 - 1), then
    # fails; the printed "true throughout (0, 0.99]" cannot hold since
    # k + l = 2 (1 + gamma/2)^(-2) crosses 1 before 0.99 (see the ledger)
    flip = 2.0 * (math.sqrt(2.0) - 1.0)
    for smp in path.samples:
        if smp.gamma < flip - 1e-9:
            assert smp.ordering_ok
        elif smp.gamma > flip + 1e-9:
            assert not smp.ordering_ok
    assert path.gamma1_bracket is not None
    lo, hi = path.gamma1_bracket
    assert lo < flip < hi
    _report(8, f"branch matches closed form to {worst:.1e}, endpoint (1,1), "
               f"certificate flips inside ({lo:.4f}, {hi:.4f}) around "
               f"{flip:.4f}")


def test_criterion_9_perturbation_contract():
    rng = np.random.default_rng(99)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 1000
        n = int(rng.choice([1, 2, 3, 5]))
        if n == 1 and rng.random() < 0.5:
            s = rng.uniform(0.27, 0.48)  # wide-exponent shape
        else:
            s = rng.uniform(0.05, min(0.95, 0.25 * n - 0.02)) if n <= 3 \
                else rng.uniform(0.05, 0.95)
        ts = 2.0 * n / (n - 2.0 * s)
        alpha = 1.0 + rng.uniform(0.1, 0.9) * (ts - 2.0)
        gamma = rng.uniform(0.2, 2.5) * (1.0 if rng.random() < 0.5 else -1.0)
        p = make_params(n, s, alpha, rng.uniform(0.2, 5.0),
                        rng.uniform(0.2, 5.0), gamma)
        theta = rng.uniform(0.0, 0.05)
        try:
            sol = solve_tR_sR(p, theta)
        except DivergenceError:
            continue  # outside the contraction regime; correctly rejected
        accepted += 1
        assert abs(sol.tR - 1.0) + abs(sol.sR - 1.0) \
            <= contraction_ball(p, theta) + 1e-8

    exact = solve_tR_sR(make_params(3, 0.5, 1.5, 1.0, 2.0, -1.0), 0.0)
    assert exact.tR == 1.0 and exact.sR == 1.0
    _report(9, f"ball bound held on 100 draws ({attempts} attempted), "
               "theta = 0 returns (1, 1) exactly")
