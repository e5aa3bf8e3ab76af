"""Constructive devices: separated-bubble perturbation and branch continuation.

Two machines live here.  The first quantifies how far the Nehari projection
of a widely separated bubble pair sits from (1, 1): the overlap ratio theta
feeds a contracting fixed point for (t_R, s_R), and the resulting upper
bound on the split energy closes the gap to the non-attained value as the
separation R grows.  The second traces the implicitly defined solution
branch (k(gamma), l(gamma)) of the coupling system upward from the
decoupled point at gamma = 0 with an Euler predictor and Newton corrector,
recording Jacobian conditioning and the energy-ordering certificate, and
bracketing the coupling value where the certificate first fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebraic, regimes
from .bubbles import (BubbleSpec, _distinct_bubble, ground_state_amplitude,
                      sobolev_constant_closed_form)
from .errors import (DivergenceError, DomainError, NumericalError,
                     QuadratureError, ResolutionError)
from .params import SystemParams
from .spectral import _expanded_sum

#: conservative rejection threshold for the overlap ratio
THETA_MAX = 0.1

#: slack added to the contraction-ball bound (pure roundoff allowance)
BALL_SLACK = 1e-8

#: automatic overlap box: half the separation plus this many bubble widths
MARGIN_FACTOR = 10.0
#: iteration cap of the (t_R, s_R) fixed point
FIXED_POINT_MAX_ITER = 200
#: accepted samples after which a continuation branch stops as stalled
MAX_BRANCH_SAMPLES = 100_000
#: the factors 1, 1/2, 1/4, ... of a continuation step's halving ladder; a
#: step is at most gamma_max and no halving is below 1e-12 max(1, gamma_max),
#: so a ladder has at most 40 rungs
_HALVINGS = 0.5 ** np.arange(48.0)


@dataclass(frozen=True)
class OverlapDatum:
    theta: float


@dataclass(frozen=True)
class OverlapQuadrature:
    """Grid quadrature settings for the overlap integrals.

    L = None picks the box automatically (half the separation plus a
    margin of ``MARGIN_FACTOR`` bubble widths).  Tail contributions are
    estimated by box doubling at the same point count when ``check_tails``
    is on.
    """

    N: int = 128
    eps: float = 1.0
    L: float | None = None
    check_tails: bool = True


@dataclass(frozen=True)
class PerturbationSolution:
    tR: float
    sR: float
    iterations: int
    defect: float


@dataclass(frozen=True)
class GapRow:
    R: float
    theta: float
    tR: float
    sR: float
    upper_bound: float
    gap: float


@dataclass(frozen=True)
class BranchSample:
    gamma: float
    k: float
    l: float
    jac_cond: float
    ordering_ok: bool


@dataclass(frozen=True)
class ContinuationPath:
    samples: tuple[BranchSample, ...]
    gamma1_bracket: tuple[float, float] | None
    termination: str  # "completed" | "fold" | "stalled"


# ---------------------------------------------------------------------------
# overlap ratio

def _theta_on_box(params: SystemParams, R: float, quad: OverlapQuadrature,
                  L: float, shift) -> float:
    """theta on the box [-L, L)^n for the ground states of strengths mu1
    and mu2 centred at +R/2 and -R/2 on the e1 axis, plus ``shift``.

    Both bubbles share their offsets on every axis but e1, so every power
    and the product are formed on their common distinct-offset box, and
    the two sums are taken from it in the full grid's order."""
    a, b, ts = params.alpha, params.beta, params.two_star
    S = sobolev_constant_closed_form(params).value
    amp = ground_state_amplitude(params, BubbleSpec(quad.eps, (0.0,)), S)
    shift = (0.0,) * params.n if shift is None else tuple(shift)

    def w(sign, mu):
        center = tuple((sign * R / 2.0 if d == 0 else 0.0) + shift[d]
                       for d in range(params.n))
        kappa = mu ** (-1.0 / (ts - 2.0)) * amp  # amp is center-free
        if kappa == 0.0:
            raise NumericalError("bubble amplitude underflows to 0",
                                 constraint="kappa", value=(mu, amp))
        return _distinct_bubble(BubbleSpec(quad.eps, center, kappa), params,
                                quad.N, L)

    w1, w2 = w(1.0, params.mu1), w(-1.0, params.mu2)
    hn = w1.h ** params.n
    overlap = w1.box ** a
    w2.box **= b
    overlap *= w2.box
    num = hn * float(_expanded_sum(overlap, w1.maps))
    w1.box **= ts
    den = hn * params.mu1 * float(_expanded_sum(w1.box, w1.maps))
    if not den > 0.0:
        raise ResolutionError("critical integral underflows on this grid",
                              constraint="critical_norm", value=den)
    return num / den


def overlap_theta(params: SystemParams, R: float,
                  quad: OverlapQuadrature = OverlapQuadrature(),
                  shift: tuple[float, ...] | None = None) -> OverlapDatum:
    """Overlap ratio of two ground-state bubbles separated by R along e1.

    theta = integral(w1^alpha w2^beta) / integral(mu1 w1^(2*)), both by grid
    quadrature on a box containing both bubbles.  Raises `QuadratureError`
    when box doubling moves the value by more than 10%.
    """
    if not R >= 0.0:
        raise DomainError("separation must be nonnegative", constraint="R",
                          value=R)
    L = quad.L if quad.L is not None \
        else R / 2.0 + MARGIN_FACTOR * quad.eps
    theta = _theta_on_box(params, R, quad, L, shift)
    if quad.check_tails:
        theta2 = _theta_on_box(params, R, quad, 2.0 * L, shift)
        if abs(theta - theta2) > 0.1 * max(theta, theta2):
            raise QuadratureError(
                "box tails contribute more than 10% to the overlap ratio",
                constraint="tails", value=abs(theta - theta2))
    return OverlapDatum(theta=float(theta))


# ---------------------------------------------------------------------------
# fixed point for (t_R, s_R)

def contraction_ball(params: SystemParams, theta: float) -> float:
    """Radius 2 ||c||_1 theta of the certified fixed-point ball, where
    c = -(gamma/2*) (alpha, beta) 2/(2*-2) is the constant term of the
    linearization around (1, 1)."""
    a, b, ts, g = params.alpha, params.beta, params.two_star, params.gamma
    d = ts - 2.0
    return 2.0 * (abs((a * g / ts) * 2.0 / d)
                  + abs((b * g / ts) * 2.0 / d)) * theta


def solve_tR_sR(params: SystemParams, theta: float,
                tol: float = 1e-12) -> PerturbationSolution:
    """Fixed point of the overlap-perturbed projection system

        t^((2*-2)/2) + (alpha gamma/2*) t^((alpha-2)/2) s^(beta/2) theta = 1,
        s^((2*-2)/2) + (beta gamma/2*)  t^(alpha/2) s^((beta-2)/2)  theta = 1,

    solved by iterating the exact rearranged map from (1, 1); the
    linearization around (1, 1) is the contraction that certifies the ball
    |t-1| + |s-1| <= 2 ||c||_1 theta.  Solutions outside that ball, an
    iterate beyond the float range, or non-convergence within
    ``FIXED_POINT_MAX_ITER`` steps raise `DivergenceError`: theta is
    outside the contraction regime.
    """
    algebraic.check_tol(tol)
    if theta < 0.0:
        raise DomainError("theta must be nonnegative", constraint="theta",
                          value=theta)
    if theta > THETA_MAX:
        raise DomainError(f"theta above conservative cap {THETA_MAX}",
                          constraint="theta", value=theta)
    a, b, ts, g = params.alpha, params.beta, params.two_star, params.gamma
    r = 0.5 * (ts - 2.0)

    def coupling(t, s):
        """Coupling terms at (t, s), reused by the map, and the defect."""
        c1 = (a * g / ts) * t ** (0.5 * (a - 2.0)) * s ** (0.5 * b) * theta
        c2 = (b * g / ts) * t ** (0.5 * a) * s ** (0.5 * (b - 2.0)) * theta
        return c1, c2, max(abs(t ** r + c1 - 1.0), abs(s ** r + c2 - 1.0))

    t, s = 1.0, 1.0
    iterations = 0
    c1, c2, d = coupling(t, s)
    while d > tol:
        iterations += 1
        if iterations > FIXED_POINT_MAX_ITER:
            raise DivergenceError(
                "fixed point did not converge; theta outside the "
                "contraction regime", constraint="iterations", value=d)
        base1, base2 = 1.0 - c1, 1.0 - c2
        if base1 <= 0.0 or base2 <= 0.0:
            raise DivergenceError(
                "iteration left the positive cone; theta outside the "
                "contraction regime", constraint="positivity",
                value=min(base1, base2))
        try:
            t, s = base1 ** (1.0 / r), base2 ** (1.0 / r)
            c1, c2, d = coupling(t, s)
        except (OverflowError, ZeroDivisionError):
            raise DivergenceError(
                "iterate left the float range; theta outside the "
                "contraction regime", constraint="float range",
                value=(base1, base2)) from None
    if iterations == 0:
        iterations = 1  # theta = 0 resolves on the first evaluation

    ball = contraction_ball(params, theta) + BALL_SLACK
    if abs(t - 1.0) + abs(s - 1.0) > ball:
        raise DivergenceError(
            "converged outside the certified ball; theta outside the "
            "contraction regime", constraint="ball",
            value=abs(t - 1.0) + abs(s - 1.0))
    return PerturbationSolution(tR=t, sR=s, iterations=iterations, defect=d)


def energy_gap_vs_R(params: SystemParams, R_list,
                    quad: OverlapQuadrature = OverlapQuadrature(),
                    tol: float = 1e-12) -> list[GapRow]:
    """Split-energy upper bound along a separation ladder (gamma < 0 only).

    For each R: theta(R), the fixed point (t_R, s_R), the dimensionless
    upper bound t_R mu1^(-(n-2s)/2s) + s_R mu2^(-(n-2s)/2s), and its gap to
    the non-attained value.  The gap must shrink toward zero as R grows.
    """
    algebraic.check_tol(tol)
    if not params.gamma < 0.0:
        raise DomainError("the separation ladder applies to gamma < 0",
                          constraint="gamma < 0", value=params.gamma)
    level1, level2 = regimes._single_mode_levels(params)
    rows = []
    for R in R_list:
        datum = overlap_theta(params, R, quad)
        sol = solve_tR_sR(params, datum.theta, tol=tol)
        upper = sol.tR * level1 + sol.sR * level2
        rows.append(GapRow(R=float(R), theta=datum.theta, tR=sol.tR,
                           sR=sol.sR, upper_bound=upper,
                           gap=upper - (level1 + level2)))
    return rows


# ---------------------------------------------------------------------------
# continuation in gamma

def continuation_branch(params_base: SystemParams, gamma_max: float,
                        step: float | None = None,
                        tol: float = 1e-12,
                        cond_limit: float = 1e12) -> ContinuationPath:
    """Trace (k(gamma), l(gamma)) from the decoupled point at gamma = 0.

    Euler predictor on the implicit derivative, Newton corrector with the
    analytic Jacobian, adaptive steps.  Each step builds its halving ladder:
    the full step dgamma whenever it moves gamma, then dgamma/2, ... down to
    the last rung of at least 1e-12 max(1, gamma_max) that still moves
    gamma; the full step that reaches gamma_max has the rung gamma_max
    itself, so a completed branch ends on it.  It corrects every rung in
    one masked `algebraic._newton` pass of at most
    ``algebraic._CORRECTOR_STEPS`` iterations, and takes the largest rung
    that converged: the rung, k and l that trying the halvings one at a
    time with `algebraic.newton_polish` would take.  A step where no rung
    converges ends the branch.  Each accepted sample re-verifies both
    residuals below max(tol, 1e-10), from the evaluation of the system that
    also gives the next predictor, and evaluates the energy-ordering
    certificate; the bracket where the certificate first flips is reported
    as an interval, never a point.  A corrector Jacobian condition number
    above ``cond_limit`` marks a fold: the sample is recorded and the
    branch truncated.  ``gamma_max`` and a given ``step`` must be positive
    and finite.
    """
    algebraic.check_tol(tol)
    p0 = params_base
    if regimes.case_of(p0) != "B":
        raise DomainError("continuation needs n > 4s and 1 < alpha, beta < 2",
                          constraint="regime",
                          value=(p0.n, p0.s, p0.alpha, p0.beta))
    if not 0.0 < gamma_max < math.inf:
        raise DomainError("gamma_max must be positive and finite",
                          constraint="gamma_max", value=gamma_max)
    if step is not None and not 0.0 < step < math.inf:
        raise DomainError("step must be positive and finite",
                          constraint="step", value=step)
    thr_b = regimes.gamma_threshold_B(p0)
    if step is None:
        step = thr_b / 100.0
    max_step = thr_b / 25.0

    k, l = algebraic._decoupled_pair(p0)
    gamma = 0.0
    sample, J, grad = _accept(p0.replace_gamma(0.0), k, l, tol)
    samples = [sample]
    termination = "completed"

    while gamma < gamma_max:
        dgamma = min(step, gamma_max - gamma)
        # the Euler velocity at (gamma, k, l), which every halving shares
        try:
            vel = np.linalg.solve(J, -grad)
        except np.linalg.LinAlgError:
            vel = np.zeros(2)
        # the halving ladder, its rungs corrected all at once
        ladder = dgamma * _HALVINGS
        rungs = gamma + ladder > gamma
        rungs[1:] &= ladder[1:] >= 1e-12 * max(1.0, gamma_max)
        ladder = ladder[:np.argmin(rungs)]
        gammas = gamma + ladder
        if dgamma == gamma_max - gamma:
            gammas[:1] = gamma_max  # gamma + dgamma may round below it
        ks, ls, ok = algebraic._newton(
            replace(p0, gamma=gammas), k + vel[0] * ladder,
            l + vel[1] * ladder, tol, algebraic._CORRECTOR_STEPS)
        if not ok.any():
            # a stall with exploding conditioning is a fold: the cond_limit
            # itself is unreachable in double precision because the step
            # underflows while cond grows only like 1/sqrt(distance)
            at_fold = samples[-1].jac_cond > max(1e4,
                                                 100.0 * samples[0].jac_cond)
            termination = "fold" if at_fold else "stalled"
            break
        i = ok.argmax()
        gamma, k, l = float(gammas[i]), float(ks[i]), float(ls[i])
        sample, J, grad = _accept(p0.replace_gamma(gamma), k, l, tol)
        samples.append(sample)
        if samples[-1].jac_cond > cond_limit:
            termination = "fold"
            break
        if len(samples) >= MAX_BRANCH_SAMPLES:
            termination = "stalled"
            break
        step = min(step * 1.2, max_step)

    bracket = None
    for prev, cur in zip(samples, samples[1:]):
        if prev.ordering_ok and not cur.ordering_ok:
            bracket = (prev.gamma, cur.gamma)
            break
    return ContinuationPath(samples=tuple(samples), gamma1_bracket=bracket,
                            termination=termination)


def _accept(params, k, l, tol):
    """The sample at (params.gamma, k, l), and the Jacobian and gamma
    gradient of the system there."""
    f1, f2, J, grad = algebraic._system(params, k, l)
    res = float(max(abs(f1), abs(f2)))
    if res > max(tol, 1e-10):
        raise DivergenceError("accepted sample violates the residual bound",
                              constraint="residual", value=res)
    cond = float(np.linalg.cond(J))
    ok = regimes.energy_ordering_check(params, k, l)
    return BranchSample(gamma=params.gamma, k=float(k), l=float(l),
                        jac_cond=cond, ordering_ok=ok), J, grad
