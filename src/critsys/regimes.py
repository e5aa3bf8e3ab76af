"""Regime classification and least-energy values.

The sign of gamma and two explicit gamma thresholds split the parameter
space into regimes where the constrained minimum is known in closed form
(as a multiple of the sharp embedding constant), where it is attained by a
synchronized pair, or where only an ordering certificate is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebraic import CouplingSolution
from .errors import DomainError, NumericalError, RegimeMismatchError
from .params import SystemParams, derived_exponents

NEGATIVE_GAMMA = "NEGATIVE_GAMMA"
ATTAINED_A = "ATTAINED_A"
ATTAINED_B = "ATTAINED_B"
SMALL_GAMMA_CANDIDATE = "SMALL_GAMMA_CANDIDATE"
UNCOVERED = "UNCOVERED"

LABELS = (NEGATIVE_GAMMA, ATTAINED_A, ATTAINED_B, SMALL_GAMMA_CANDIDATE,
          UNCOVERED)


@dataclass(frozen=True)
class Regime:
    label: str
    gamma_threshold_A: float | None
    gamma_threshold_B: float | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class EnergyReport:
    """Dimensionless least-energy value (divide-by-(s/n) S^(n/2s) convention)."""

    dimensionless_A: float
    absolute_A: float | None
    attained: bool
    minimizer_coeffs: tuple[float, float] | None


def _front(params: SystemParams) -> float:
    # 4ns/(n-2s)^2, the common prefactor of both thresholds
    return 4.0 * params.n * params.s / (params.n - 2.0 * params.s) ** 2


def gamma_threshold_A(params: SystemParams) -> float:
    """Upper coupling threshold for the alpha, beta > 2 regime:

    (4ns/(n-2s)^2) * min{ (mu1/alpha) ((alpha-2)/(beta-2))^((beta-2)/2),
                          (mu2/beta)  ((alpha-2)/(beta-2))^((alpha-2)/2) }
    """
    a, b = params.alpha, params.beta
    if a <= 2.0 or b <= 2.0:
        raise DomainError("threshold A needs alpha > 2 and beta > 2",
                          constraint="alpha, beta > 2", value=(a, b))
    ratio = (a - 2.0) / (b - 2.0)
    return _front(params) * min(
        (params.mu1 / a) * ratio ** (0.5 * (b - 2.0)),
        (params.mu2 / b) * ratio ** (0.5 * (a - 2.0)),
    )


def gamma_threshold_B(params: SystemParams) -> float:
    """Lower coupling threshold for the 1 < alpha, beta < 2 regime:

    (4ns/(n-2s)^2) * max{ (mu1/alpha) ((2-beta)/(2-alpha))^((2-beta)/2),
                          (mu2/beta)  ((2-alpha)/(2-beta))^((2-alpha)/2) }
    """
    a, b = params.alpha, params.beta
    if a >= 2.0 or b >= 2.0:
        raise DomainError("threshold B needs alpha < 2 and beta < 2",
                          constraint="alpha, beta < 2", value=(a, b))
    return _front(params) * max(
        (params.mu1 / a) * ((2.0 - b) / (2.0 - a)) ** (0.5 * (2.0 - b)),
        (params.mu2 / b) * ((2.0 - a) / (2.0 - b)) ** (0.5 * (2.0 - a)),
    )


def classify(params: SystemParams) -> Regime:
    """Total classification of valid parameters into the five labels.

    Boundary conventions follow the theorem statements exactly: the A
    threshold is inclusive from below (0 < gamma <= thr_A), the B threshold
    inclusive from above (gamma >= thr_B).  gamma = 0 is UNCOVERED (the
    decoupled system is only a continuation base point).
    """
    a, b = params.alpha, params.beta
    notes: list[str] = []
    thr_a = thr_b = None
    if a > 2.0 and b > 2.0:
        thr_a = gamma_threshold_A(params)
        notes.append("alpha, beta > 2 forces 2s < n < 4s (strict upper window)")
    if a < 2.0 and b < 2.0:
        thr_b = gamma_threshold_B(params)

    if params.gamma < 0.0:
        label = NEGATIVE_GAMMA
    elif params.gamma == 0.0:
        label = UNCOVERED
        notes.append("gamma = 0 is the decoupled continuation base point")
    elif (thr_a is not None
          and 2.0 * params.s < params.n < 4.0 * params.s
          and params.gamma <= thr_a):
        label = ATTAINED_A
    elif thr_b is not None and params.n > 4.0 * params.s:
        label = ATTAINED_B if params.gamma >= thr_b else SMALL_GAMMA_CANDIDATE
    else:
        label = UNCOVERED
    return Regime(label=label, gamma_threshold_A=thr_a,
                  gamma_threshold_B=thr_b, notes=tuple(notes))


def least_energy(params: SystemParams,
                 solution: CouplingSolution | None = None,
                 S_s: float | None = None) -> EnergyReport:
    """Least-energy value in the regimes where it is established.

    In the NEGATIVE_GAMMA regime the dimensionless value is
    mu1^(-(n-2s)/2s) + mu2^(-(n-2s)/2s) and the minimum is not attained.
    In the attained regimes it is k0 + l0 and requires a solved coupling
    pair.  ``absolute_A`` = (s/n) * dimensionless_A * S_s^(n/2s) is filled
    when the sharp constant is supplied.
    """
    regime = classify(params)
    if regime.label == NEGATIVE_GAMMA:
        e1, e2 = _single_mode_levels(params)
        dimless = e1 + e2
        attained = False
        coeffs = None
    elif regime.label in (ATTAINED_A, ATTAINED_B):
        if solution is None:
            raise DomainError("attained regime needs a solved coupling pair",
                              constraint="solution", value=None)
        dimless = solution.k + solution.l
        attained = True
        coeffs = (solution.k, solution.l)
    else:
        raise RegimeMismatchError(
            f"least energy is not established in regime {regime.label}",
            constraint="regime", value=regime.label)
    absolute = None
    if S_s is not None:
        if not (math.isfinite(S_s) and S_s > 0.0):
            raise DomainError("the sharp constant S_s must be positive and "
                              "finite", constraint="S_s", value=str(S_s))
        (scale,) = _float_powers((S_s,), params.n / (2.0 * params.s),
                                 "S_s^(n/2s) overflows a float",
                                 "S_s^(n/2s) finite")
        absolute = (params.s / params.n) * dimless * scale
    return EnergyReport(dimensionless_A=dimless, absolute_A=absolute,
                        attained=attained, minimizer_coeffs=coeffs)


def energy_ordering_check(params: SystemParams, k: float, l: float) -> bool:
    """True iff the synchronized pair sits strictly above the cheaper
    single-mode level: k + l > min(mu1^(-(n-2s)/2s), mu2^(-(n-2s)/2s)).

    This is the dimensionless non-minimality certificate for the
    continuation branch.
    """
    if not (k > 0.0 and l > 0.0):
        raise DomainError("k and l must be positive", constraint="k, l > 0",
                          value=(k, l))
    return k + l > min(_single_mode_levels(params))


def _single_mode_levels(params: SystemParams) -> tuple[float, float]:
    """mu1^(-d) and mu2^(-d), d = (n-2s)/(2s); a level beyond the float
    range is a `NumericalError`."""
    d = derived_exponents(params).decay_power
    return _float_powers((params.mu1, params.mu2), -d,
                         "single-mode level mu^(-(n-2s)/2s) overflows a float",
                         "mu^(-(n-2s)/2s) finite")


def _float_powers(bases, exponent, message, constraint) -> tuple:
    """Each base ** exponent in Python floats; a power beyond the float
    range is a `NumericalError` carrying ``bases``."""
    try:
        return tuple(base ** exponent for base in bases)
    except OverflowError:
        raise NumericalError(message, constraint=constraint,
                             value=bases) from None
