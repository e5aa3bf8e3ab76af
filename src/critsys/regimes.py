"""Regime classification and least-energy values.

The sign of gamma and two explicit gamma thresholds split the parameter
space into regimes where the constrained minimum is known in closed form
(as a multiple of the sharp embedding constant), where it is attained by a
synchronized pair, or where only an ordering certificate is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NumericalError, RegimeMismatchError
from .params import SystemParams

if TYPE_CHECKING:
    from .algebraic import CouplingSolution

NEGATIVE_GAMMA = "NEGATIVE_GAMMA"
ATTAINED_A = "ATTAINED_A"
ATTAINED_B = "ATTAINED_B"
SMALL_GAMMA_CANDIDATE = "SMALL_GAMMA_CANDIDATE"
UNCOVERED = "UNCOVERED"

LABELS = (NEGATIVE_GAMMA, ATTAINED_A, ATTAINED_B, SMALL_GAMMA_CANDIDATE,
          UNCOVERED)
ATTAINED = (ATTAINED_A, ATTAINED_B)


@dataclass(frozen=True)
class Regime:
    label: str
    gamma_threshold_A: float | None
    gamma_threshold_B: float | None
    notes: tuple[str, ...]


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
        _threshold_term(params.mu1 / a, ratio, 0.5 * (b - 2.0)),
        _threshold_term(params.mu2 / b, ratio, 0.5 * (a - 2.0)),
    )


def _threshold_term(c: float, ratio: float, power: float) -> float:
    """c * ratio ** power, or inf where it lies beyond the float range.  A
    power that overflows alone (beta a few ulps above 2, alpha large) is
    redone in logs, since a small c may bring the term back in range."""
    try:
        return c * ratio ** power
    except OverflowError:
        pass
    try:
        return math.exp(math.log(c) + power * math.log(ratio))
    except OverflowError:
        return math.inf


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


def case_of(params: SystemParams) -> str | None:
    """The case of the existence theorem, "A" or "B", or None; any gamma."""
    n, s, a, b = params.n, params.s, params.alpha, params.beta
    if 2.0 * s < n < 4.0 * s and a > 2.0 and b > 2.0:
        return "A"
    if n > 4.0 * s and 1.0 < a < 2.0 and 1.0 < b < 2.0:
        return "B"
    return None


@dataclass(frozen=True)
class Thresholds:
    """The gamma-free part of a classification: the case of the existence
    theorem and its coupling threshold, which depend on n, s, alpha, beta,
    mu1 and mu2 alone."""

    case: str | None
    gamma_A: float | None
    gamma_B: float | None

    def label(self, gamma: float) -> str:
        """The regime label at coupling ``gamma``.

        Boundary conventions follow the theorem statements exactly: the A
        threshold is inclusive from below (0 < gamma <= thr_A), the B
        threshold inclusive from above (gamma >= thr_B).  gamma = 0 is
        UNCOVERED (the decoupled system is only a continuation base point).
        """
        if gamma < 0.0:
            return NEGATIVE_GAMMA
        if gamma == 0.0:
            return UNCOVERED
        if self.case == "A" and gamma <= self.gamma_A:
            return ATTAINED_A
        if self.case == "B":
            return ATTAINED_B if gamma >= self.gamma_B \
                else SMALL_GAMMA_CANDIDATE
        return UNCOVERED


def thresholds(params: SystemParams) -> Thresholds:
    """The case of ``params`` and its threshold; gamma is not read."""
    case = case_of(params)
    return Thresholds(
        case=case,
        gamma_A=gamma_threshold_A(params) if case == "A" else None,
        gamma_B=gamma_threshold_B(params) if case == "B" else None)


def classify(params: SystemParams) -> Regime:
    """Total classification of valid parameters into the five labels, by
    `Thresholds.label` at ``params.gamma``."""
    th = thresholds(params)
    notes: list[str] = []
    if th.case == "A":
        notes.append("alpha, beta > 2 forces 2s < n < 4s (strict upper window)")
    if params.gamma == 0.0:
        notes.append("gamma = 0 is the decoupled continuation base point")
    return Regime(label=th.label(params.gamma), gamma_threshold_A=th.gamma_A,
                  gamma_threshold_B=th.gamma_B, notes=tuple(notes))


def least_energy(params: SystemParams,
                 solution: CouplingSolution | None = None,
                 S_s: float | None = None) -> EnergyReport:
    """Least-energy value in the regimes where it is established.

    gamma < 0 is NEGATIVE_GAMMA, the first rule of `Thresholds.label`, and
    needs no classification: the dimensionless value is
    `negative_gamma_energy` and the minimum is not attained.  In the attained
    regimes it is k0 + l0 and requires a solved coupling pair.
    ``absolute_A`` = (s/n) * dimensionless_A * S_s^(n/2s) is filled when
    the sharp constant is supplied.
    """
    if params.gamma < 0.0:
        dimless = negative_gamma_energy(params)
        coeffs = None
    elif (label := classify(params).label) in ATTAINED:
        if solution is None:
            raise DomainError("attained regime needs a solved coupling pair",
                              constraint="solution", value=None)
        dimless = solution.k + solution.l
        coeffs = (solution.k, solution.l)
    else:
        raise RegimeMismatchError(
            f"least energy is not established in regime {label}",
            constraint="regime", value=label)
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
                        attained=coeffs is not None, minimizer_coeffs=coeffs)


def negative_gamma_energy(params: SystemParams) -> float:
    """mu1^(-(n-2s)/2s) + mu2^(-(n-2s)/2s), the dimensionless least energy
    at every gamma < 0; gamma is not read.  A level beyond the float range
    is a `NumericalError`."""
    e1, e2 = _single_mode_levels(params)
    return e1 + e2


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
    d = (params.n - 2.0 * params.s) / (2.0 * params.s)
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
