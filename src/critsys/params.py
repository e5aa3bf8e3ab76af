"""Validated parameter sets shared by every module.

The second coupling exponent is always derived, never user supplied, so the
constraint alpha + beta = 2n/(n - 2s) holds by construction, up to the
rounding of 2* - alpha.  All values are immutable after construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DomainError

#: how far a beta supplied beside alpha may lie from the derived 2* - alpha,
#: relative to 2*, whose rounding bounds that of 2* - alpha
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Immutable problem data: dimension, fractional order and couplings.

    Fields
    ------
    n      spatial dimension, integer, n > 2s
    s      fractional order, 0 < s < 1
    alpha  first coupling exponent, 1 < alpha < 2* - 1
    beta   second coupling exponent, derived as 2* - alpha
    mu1    first self-interaction strength, > 0
    mu2    second self-interaction strength, > 0
    gamma  coupling strength, any sign
    """

    n: int
    s: float
    alpha: float
    beta: float
    mu1: float
    mu2: float
    gamma: float

    @property
    def two_star(self) -> float:
        return 2.0 * self.n / (self.n - 2.0 * self.s)

    def mirrored(self) -> "SystemParams":
        """The system with its components swapped: alpha <-> beta, mu1 <->
        mu2.  beta is not derived again, which could move it by an ulp."""
        return replace(self, alpha=self.beta, beta=self.alpha,
                       mu1=self.mu2, mu2=self.mu1)

    def replace_gamma(self, gamma: float) -> "SystemParams":
        return replace(self, gamma=float(gamma))


#: keys of the CLI's JSON parameter object: every field but the derived beta
PARAM_KEYS = tuple(f.name for f in fields(SystemParams) if f.name != "beta")


def make_params(n: int, s: float, alpha: float, mu1: float, mu2: float,
                gamma: float) -> SystemParams:
    """Validate raw inputs and return a `SystemParams`.

    beta is derived as 2* - alpha.  Raises `DomainError` naming the violated
    constraint for any input outside the admissible set.
    """
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 1 <= n <= sys.float_info.max):
        raise DomainError("n must be a positive integer in the float range",
                          constraint="n", value=n)
    n = int(n)
    for name, v in (("s", s), ("alpha", alpha), ("mu1", mu1), ("mu2", mu2),
                    ("gamma", gamma)):
        _check_finite_real(name, v)
    s = float(s)
    alpha = float(alpha)
    mu1, mu2, gamma = float(mu1), float(mu2), float(gamma)

    if not 0.0 < s < 1.0:
        raise DomainError("s out of range (need 0 < s < 1)",
                          constraint="s", value=s)
    if not n > 2.0 * s:
        raise DomainError("dimension too small (need n > 2s)",
                          constraint="n > 2s", value=(n, s))
    two_star = 2.0 * n / (n - 2.0 * s)
    if not 1.0 < alpha < two_star - 1.0:
        raise DomainError(
            "alpha out of range (need 1 < alpha < 2* - 1 so that beta > 1)",
            constraint="alpha", value=alpha)
    if not mu1 > 0.0:
        raise DomainError("mu1 must be positive", constraint="mu1", value=mu1)
    if not mu2 > 0.0:
        raise DomainError("mu2 must be positive", constraint="mu2", value=mu2)

    beta = two_star - alpha
    return SystemParams(n=n, s=s, alpha=alpha, beta=beta, mu1=mu1, mu2=mu2,
                        gamma=gamma)


def _check_finite_real(name, v):
    if not (isinstance(v, (int, float, np.floating, np.integer))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max):
        raise DomainError(f"{name} must be a finite real number",
                          constraint=name, value=v)


def params_from_dict(obj: dict) -> SystemParams:
    """Build params from a JSON-style mapping ``{"n":..., ..., "gamma":...}``.

    A ``beta`` entry is tolerated if it is a finite real number within
    ``IDENTITY_TOL`` times 2* of the derived value.
    """
    missing = [k for k in PARAM_KEYS if k not in obj]
    if missing:
        raise DomainError(f"missing parameter fields: {', '.join(missing)}",
                          constraint="params", value=missing)
    p = make_params(**{k: obj[k] for k in PARAM_KEYS})
    if "beta" in obj:
        _check_finite_real("beta", obj["beta"])
        if abs(float(obj["beta"]) - p.beta) > IDENTITY_TOL * p.two_star:
            raise DomainError(
                "supplied beta is inconsistent with 2* - alpha",
                constraint="beta", value=obj["beta"])
    return p
