"""Extremal bubble profiles and the sharp embedding constant.

The extremal of the critical embedding is the bubble

    u(x) = kappa (eps^2 + |x - y|^2)^(-(n-2s)/2),

radially decreasing about its center y.  Note the squared distance inside
the parenthesis: the variant with |x - y| unsquared is sometimes quoted but
is not an extremal and breaks every normalization identity below, so the
squared form is used throughout (the residual verifier would expose the
difference immediately).

Normalizing by the critical norm and scaling by the sharp constant turns
the bubble into the positive ground state U of (-Delta)^s U = U^(2*-1) with
squared seminorm and critical-power integral both equal to S^(n/2s).

The sharp constant is computed two independent ways: a closed Gamma-function
expression (primary) and a discrete Rayleigh quotient on a periodic box
(validation oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError, ResolutionError
from .params import SystemParams
from .spectral import (GridField, _check_grid, _distinct_radius_sq, integrate,
                       pde_residual_single, seminorm)

#: bubble scale relative to the box half-width when not given explicitly
DEFAULT_EPS_FRACTION = 1.0 / 30.0


@dataclass(frozen=True)
class BubbleSpec:
    epsilon: float
    center: tuple[float, ...]
    kappa: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise DomainError("bubble scale must be positive",
                              constraint="epsilon", value=self.epsilon)
        if not math.isfinite(self.epsilon * self.epsilon):
            raise DomainError("bubble scale squared overflows",
                              constraint="epsilon", value=self.epsilon)
        if self.kappa == 0.0:
            raise DomainError("bubble amplitude must be nonzero",
                              constraint="kappa", value=self.kappa)


@dataclass(frozen=True)
class SobolevConstant:
    value: float
    method: str  # "closed_form" | "spectral_estimate"
    est_error: float


def bubble_eval(spec: BubbleSpec, params: SystemParams, x):
    """Evaluate the bubble at points x of shape (..., n) (or scalars for n=1)."""
    decay = 0.5 * (params.n - 2.0 * params.s)
    pts = np.asarray(x, dtype=float)
    if params.n == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts.reshape(pts.shape + (1,))
    if pts.shape[-1] != params.n:
        raise DomainError("point dimensionality does not match n",
                          constraint="x", value=pts.shape)
    diff = pts - np.asarray(spec.center, dtype=float)
    r2 = np.sum(diff ** 2, axis=-1)
    out = spec.kappa * (spec.epsilon ** 2 + r2) ** (-decay)
    return out if np.ndim(out) else float(out)


def bubble_field(spec: BubbleSpec, params: SystemParams, N: int,
                 L: float) -> GridField:
    """Sample the bubble on the grid of [-L, L)^n, held as its
    distinct-offset box with every axis reduced, the first one too."""
    return _distinct_bubble(spec, params, N, L, whole_first=False)


def _distinct_bubble(spec: BubbleSpec, params: SystemParams, N: int,
                     L: float, whole_first: bool = True) -> GridField:
    """The bubble on the grid of [-L, L)^n, held as its distinct-offset box
    (see `spectral._distinct_radius_sq` for ``whole_first``; `perturb`'s
    pair of bubbles keeps the first axis whole)."""
    decay = 0.5 * (params.n - 2.0 * params.s)
    values, maps = _distinct_radius_sq(params.n, N, L, spec.center,
                                       whole_first)
    values += spec.epsilon ** 2
    values **= -decay
    values *= spec.kappa
    return GridField(params.n, N, L, values, maps)


def _gamma_overflow(n: int) -> NumericalError:
    return NumericalError(f"a Gamma value overflows a float at n = {n}",
                          constraint="overflow", value=n)


def shape_integral(n: int) -> float:
    """Closed form of the full-space integral of (1 + |z|^2)^(-n); past
    n = 171, where Gamma(n) leaves the float range, a `NumericalError`."""
    try:
        return math.pi ** (0.5 * n) * math.gamma(0.5 * n) / math.gamma(n)
    except OverflowError:
        raise _gamma_overflow(n) from None


def bubble_critical_norm(spec: BubbleSpec, params: SystemParams) -> float:
    """Exact L^(2*) norm of the bubble (the critical-power integrand is
    (eps^2 + r^2)^(-n), integrable in closed form)."""
    ts = params.two_star
    return (abs(spec.kappa) * spec.epsilon ** (-params.n / ts)
            * shape_integral(params.n) ** (1.0 / ts))


def sobolev_constant_closed_form(params: SystemParams) -> SobolevConstant:
    """Gamma-function expression for the sharp embedding constant."""
    return SobolevConstant(value=_closed_form(params.n, params.s),
                           method="closed_form", est_error=0.0)


def _closed_form(n: int, s: float) -> float:
    if not (0.0 < s < 1.0 and n > 2.0 * s):
        raise DomainError("need 0 < s < 1 and n > 2s", constraint="n, s",
                          value=(n, s))
    try:
        return (2.0 ** (2.0 * s) * math.pi ** s
                * math.gamma(0.5 * (n + 2.0 * s))
                / math.gamma(0.5 * (n - 2.0 * s))
                * (math.gamma(0.5 * n) / math.gamma(float(n)))
                ** (2.0 * s / n))
    except OverflowError:
        raise _gamma_overflow(n) from None


def rayleigh_quotient(params: SystemParams, field: GridField) -> float:
    """Discrete quotient seminorm / critical-norm^2 of an arbitrary field;
    a critical norm that underflows to zero is a `ResolutionError`."""
    ts = params.two_star
    num = seminorm(field, params.s)
    crit = np.abs(field.box)
    crit **= ts
    den = integrate(replace(field, box=crit)) ** (2.0 / ts)
    if not den > 0.0:
        raise ResolutionError("critical norm underflows on this grid",
                              constraint="critical_norm", value=den)
    return num / den


def sobolev_constant_spectral(params: SystemParams, L: float, N: int,
                              eps: float | None = None) -> SobolevConstant:
    """Rayleigh quotient of a discretized bubble as an independent estimate.

    The truncation error is estimated by doubling the box at the same point
    count; an estimate above 10% of the value raises `ResolutionError`.
    The box is checked before ``eps`` is derived from it.
    """
    _check_grid(params.n, N, L)
    if eps is None:
        eps = L * DEFAULT_EPS_FRACTION
    spec = BubbleSpec(epsilon=eps, center=(0.0,) * params.n)
    value = rayleigh_quotient(params, bubble_field(spec, params, N, L))
    value_2L = rayleigh_quotient(params, bubble_field(spec, params, N, 2.0 * L))
    est = abs(value - value_2L)
    if not est <= 0.1 * value:  # nan too: a seminorm that overflowed
        raise ResolutionError("box-doubling estimate exceeds 10% of the value",
                              constraint="est_error", value=est)
    return SobolevConstant(value=value, method="spectral_estimate",
                           est_error=est)


def ground_state_amplitude(params: SystemParams, spec: BubbleSpec,
                           S_s: float) -> float:
    """Scalar A with U(x) = A (eps^2 + |x - y|^2)^(-(n-2s)/2).

    U = S^(1/(2*-2)) * bubble / ||bubble||_(2*); the exact critical norm
    makes the amplitude independent of kappa up to sign.
    """
    ts = params.two_star
    return (math.copysign(1.0, spec.kappa) * S_s ** (1.0 / (ts - 2.0))
            * spec.epsilon ** (0.5 * (params.n - 2.0 * params.s))
            / shape_integral(params.n) ** (1.0 / ts))


def normalized_bubble_field(params: SystemParams, spec: BubbleSpec,
                            S_s: float, N: int, L: float) -> GridField:
    """Grid sample of the normalized ground state."""
    amp = ground_state_amplitude(params, spec, S_s)
    return bubble_field(BubbleSpec(spec.epsilon, spec.center, kappa=amp),
                        params, N, L)


def residual_study(params: SystemParams, L: float, N: int, eps: float,
                   doublings: int):
    """Single-equation residual ladder under box doubling at fixed spacing.

    Returns a list of (L, N, report); each report's truncation flag is set
    when the next doubling still moves the core residual by more than 50%.
    """
    S = sobolev_constant_closed_form(params).value
    ladder = []
    for i in range(doublings + 1):
        Li, Ni = L * 2 ** i, N * 2 ** i
        spec = BubbleSpec(epsilon=eps, center=(0.0,) * params.n)
        U = normalized_bubble_field(params, spec, S, Ni, Li)
        ladder.append((Li, Ni, pde_residual_single(params, U)))
    out = []
    for i, (Li, Ni, rep) in enumerate(ladder):
        flag = False
        if i + 1 < len(ladder):
            nxt = ladder[i + 1][2].rel_l2_core
            flag = abs(rep.rel_l2_core - nxt) > 0.5 * rep.rel_l2_core
        out.append((Li, Ni, replace(rep, truncation_flag=flag)))
    return out
