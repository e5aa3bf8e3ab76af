"""The algebraic coupling system and everything computed from it.

A synchronized pair (sqrt(k) U, sqrt(l) U) built on a single ground-state
profile solves the coupled PDE system exactly when (k, l) solves

    F1(k, l) = mu1 k^((2*-2)/2) + (alpha gamma / 2*) k^((alpha-2)/2) l^(beta/2) - 1 = 0,
    F2(k, l) = mu2 l^((2*-2)/2) + (beta gamma / 2*) k^(alpha/2) l^((beta-2)/2) - 1 = 0,

with k, l > 0.  This module provides the two constraint curves l(k) and k(l),
the scalar reduction f(k) whose zeros are the roots of the system, bracketed
bisection with Newton polish for the minimal-k root (batched over many
parameter sets at once), the ratio reduction used in the concave regime,
curve slope diagnostics, the analytic Jacobian, and a randomized domination
check.

All fractional powers act on strictly positive quantities; they are computed
as exp(p*log(x)) so that no negative-base power is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import regimes
from .errors import (CounterexampleError, CritsysError, DomainError,
                     MonotonicityViolationError, NoSignChangeError,
                     NumericalError)
from .params import SystemParams

#: cap used instead of non-finite values when f(k) overflows near its
#: divergent endpoint; any |f| at or above this is a sentinel, not a value
F_SENTINEL = 1e300

#: default tolerances: residuals of (F1, F2) and bisection interval width
RESIDUAL_TOL = 1e-12
BISECT_XTOL = 1e-10
#: smallest relative bisection tolerance, 4 machine epsilons
BISECT_RTOL = 4.0 * np.finfo(float).eps

#: the bracketing scan of find_k0_l0, as fractions of k_sup
_SCAN = np.geomspace(1e-8, 1.0 - 1e-12, 512)
#: points per call of find_k0_l0_batch's solver; bounds the per-point
#: vectors of its bisection and Newton tail on grids of a million points
_BATCH = 1024
#: points per block of the scan, twice as many in the 256-point minimal-k
#: check: a block's largest float temporary, `_f_core`'s t1 and t3 in one
#: (2, 8, 512) array, is then 64 KiB, half glibc's default mmap threshold,
#: so each block reuses freed heap instead of faulting in fresh pages
_SCAN_ROWS = 8
#: most abscissae, tree nodes times brackets, that `bisect` hands one call
#: of f: a lone bracket takes 9 levels a call, 17 brackets 4, and more than
#: 255 brackets one.  Measured against a cap of 127 on the scan's brackets
#: of the reduction f: as fast for 1 and for 390 brackets, and up to a
#: quarter faster for 9 to 100
_TREE_NODES = 511
#: a Newton step that would leave k, l > 0 is halved down to this factor
_DAMPING_FLOOR = 1e-6
#: Newton steps of the polish after bisection
_POLISH_STEPS = 12
#: Newton steps of each continuation corrector
_CORRECTOR_STEPS = 25
#: roundoff allowance of check_domination in c + d >= k0 + l0
DOMINATION_SLACK = 1e-9
#: most samples of check_domination, so that a sample array is at most 80 MB
DOMINATION_CAP = 10 ** 7


def check_tol(tol: float) -> None:
    """A ``tol`` that is not finite and nonnegative is a `DomainError`."""
    if not 0.0 <= tol < math.inf:
        raise DomainError("tol must be finite and nonnegative",
                          constraint="tol", value=tol)


def _scalar(out):
    """``out`` as a Python float when it is 0-d, else unchanged."""
    return out if np.ndim(out) else float(out)


def _powp(x, p):
    """x**p for strictly positive x (0 allowed when p >= 0), via exp/log;
    p may be an array of exponents, one per x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        (out,) = _pow(np.log(np.asarray(x, dtype=float)), p)
    return _scalar(out)


def _pow(log_x, *exponents):
    """exp(p log x) for each exponent p, a float or one per x, with x**0 = 1
    also at x = 0, where the caller silences the nan of 0 * log x."""
    return [np.where(p == 0.0, 1.0, np.exp(p * log_x)) for p in exponents]


def _stack(points) -> SystemParams:
    """``points`` as one `SystemParams` of arrays, which `k_sup`, `l_sup`,
    `_curve`, `_residuals` and `_system` read elementwise."""
    return SystemParams(**{
        f.name: np.array([getattr(p, f.name) for p in points], dtype=float)
        for f in fields(SystemParams)})


@dataclass(frozen=True)
class CouplingSolution:
    """A root of the coupling system together with its residuals."""

    k: float
    l: float
    res1: float
    res2: float
    method: str = "bisection"


@dataclass(frozen=True)
class CurveDiagnostics:
    """Slope structure of the constraint curves in the 1 < alpha, beta < 2
    regime, each field a closed form.

    ``k_sign_change`` is where l'(k) turns negative, ``k_inflection`` where
    l''(k) = 0 (the slope minimum), and ``lprime_min`` the minimal slope
    l'(k_inflection).  The ``l_`` and ``kprime_`` fields describe the mirror
    curve k(l).
    """

    k_sign_change: float
    k_inflection: float
    lprime_min: float
    l_sign_change: float
    l_inflection: float
    kprime_min: float


def k_sup(params: SystemParams) -> float:
    """Right endpoint mu1^(-2/(2*-2)) of the k-domain of the curve l(k)."""
    return _powp(params.mu1, -2.0 / (params.two_star - 2.0))


def l_sup(params: SystemParams) -> float:
    """Right endpoint mu2^(-2/(2*-2)) of the l-domain of the curve k(l)."""
    return k_sup(params.mirrored())


def _decoupled_pair(params):
    """(k_sup, l_sup), the root at gamma = 0; a `NumericalError` when
    either under- or overflows, where F1 or F2 would be nan."""
    with np.errstate(over="ignore"):
        k0, l0 = k_sup(params), l_sup(params)
    if not (0.0 < k0 < math.inf and 0.0 < l0 < math.inf):
        raise _refusal("0 < k_sup, l_sup < inf", (k0, l0))
    return k0, l0


def _check_positive(name, v, allow_zero=False):
    v = np.asarray(v, dtype=float)
    bad = ~(v >= 0.0) if allow_zero else ~(v > 0.0)
    if np.any(bad):
        kind = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"{name} must be {kind}", constraint=name,
                          value=float(np.atleast_1d(v)[np.atleast_1d(bad)][0]))


def eval_F1(params: SystemParams, k, l):
    """First coupling function; k > 0 (k = 0 allowed when alpha >= 2), l >= 0."""
    _check_positive("k", k, allow_zero=params.alpha >= 2.0)
    _check_positive("l", l, allow_zero=True)
    return _scalar(_residuals(params, k, l)[0])


def eval_F2(params: SystemParams, k, l):
    """Second coupling function; l > 0 (l = 0 allowed when beta >= 2), k >= 0."""
    _check_positive("l", l, allow_zero=params.beta >= 2.0)
    _check_positive("k", k, allow_zero=True)
    return _scalar(_residuals(params, k, l)[1])


def _residuals(params, k, l):
    """F1 and F2 at unchecked (k, l), or at arrays of them, non-finite
    entries left in unwarned.

    log k and log l are taken once; every power is exp(p log x), the
    product `_powp` forms, with x**0 = 1 also at x = 0 (F1(0, l) at
    alpha = 2).  The k power multiplies first in every coupling term.
    """
    a, b, ts, g = params.alpha, params.beta, params.two_star, params.gamma
    r = 0.5 * (ts - 2.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_k = np.log(np.asarray(k, dtype=float))
        log_l = np.log(np.asarray(l, dtype=float))
        k_r, k_a, k_a2 = _pow(log_k, r, 0.5 * a, 0.5 * (a - 2.0))
        l_r, l_b, l_b2 = _pow(log_l, r, 0.5 * b, 0.5 * (b - 2.0))
        f1 = params.mu1 * k_r + (a * g / ts) * k_a2 * l_b - 1.0
        f2 = params.mu2 * l_r + (b * g / ts) * k_a * l_b2 - 1.0
    return f1, f2


def _system(params, k, l, tables=None):
    """`_residuals` with the Jacobian of (F1, F2) in (k, l), whose first two
    axes are its rows and columns, and their gradient in gamma.

    k and l share a shape, and ``params`` holds floats or arrays of it;
    ``tables`` is their `_system_tables`, which a caller that evaluates
    the system many times forms once.  Whatever the number of points, a
    call is a dozen numpy calls: each term is a product (c k^p) l^q, one
    `np.log` and one `np.exp` give every power, and each equation's own
    and coupling terms are added column by column into F_i + 1 and row i
    of the Jacobian.  Every operand order is that of `_residuals`."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = np.log(np.array((k, l), dtype=float))
        exps, zero, own, coupling = tables or _system_tables(params,
                                                             np.ndim(k))
        pw = np.exp(exps * logs[:, None])
        np.copyto(pw, 1.0, where=zero)  # x**0 = 1, also at x = 0
        shape = pw.shape[2:]
        own = own * pw[0, :8].reshape((2, 4) + shape)
        own *= pw[1, :8].reshape((2, 4) + shape)
        rows = coupling * pw[0, 8:].reshape((2, 3) + shape)
        rows *= pw[1, 8:].reshape((2, 3) + shape)
        rows += own[:, :3]
        f = rows[:, 0] - 1.0
    return f[0], f[1], rows[:, 1:], own[:, 3]


def _system_tables(params, k_ndim):
    """The exponents of k and of l that `_system` takes for ``params`` at
    a k of ``k_ndim`` axes, where they are 0, and the coefficients of its
    own and coupling terms, padded to broadcast against k.  Equation 1's
    terms are the own terms of F1, J11, J12 and dF1/dgamma, then the
    coupling terms of F1, J11, J12; equation 2's the same for F2, J21, J22
    and dF2/dgamma.  A missing own term has c = -0.0, which adds nothing."""
    a, b, ts, g = params.alpha, params.beta, params.two_star, params.gamma
    mu1, mu2 = params.mu1, params.mu2
    r = 0.5 * (ts - 2.0)
    z = r * 0.0  # a zero exponent of r's shape
    ndim = 2 + k_ndim
    exps = _table(
        [[r, r - 1.0, z, 0.5 * (a - 2.0), z, z, z, 0.5 * a,
          0.5 * (a - 2.0), 0.5 * (a - 4.0), 0.5 * (a - 2.0),
          0.5 * a, 0.5 * (a - 2.0), 0.5 * a],
         [z, z, z, 0.5 * b, r, z, r - 1.0, 0.5 * (b - 2.0),
          0.5 * b, 0.5 * b, 0.5 * (b - 2.0),
          0.5 * (b - 2.0), 0.5 * (b - 2.0), 0.5 * (b - 4.0)]], ndim)
    own = _table([[mu1, mu1 * r, mu1 * -0.0, a / ts],
                  [mu2, mu2 * -0.0, mu2 * r, b / ts]], ndim)
    ca, cb = a * g / ts, b * g / ts
    coupling = _table([[ca, ca * 0.5 * (a - 2.0), ca * 0.5 * b],
                       [cb, cb * 0.5 * a, cb * 0.5 * (b - 2.0)]], ndim)
    return exps, exps == 0.0, own, coupling


def _table(rows, ndim):
    """``rows`` (floats, or arrays of one shape) as an array, padded with
    unit axes to ``ndim`` so that it broadcasts against arrays of points."""
    out = np.array(rows, dtype=float)
    return out.reshape(out.shape + (1,) * (ndim - out.ndim))


def _require_positive_gamma(params):
    if not params.gamma > 0.0:
        raise DomainError("curve parametrizations require gamma > 0",
                          constraint="gamma > 0", value=params.gamma)


def _curve_argument(params, x, name="k"):
    """x as an array, checked to lie in (0, k_sup]; the curves need gamma > 0.
    ``name`` is what the caller calls x: "k", or "l" for mirrored params."""
    _require_positive_gamma(params)
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0.0) or np.any(xarr > k_sup(params) * (1.0 + 1e-14)):
        mu_name = "mu1" if name == "k" else "mu2"
        raise DomainError(f"{name} outside the bracket (0, "
                          f"{mu_name}^(-2/(2*-2))]", constraint=name, value=x)
    return xarr


def curve_l_of_k(params: SystemParams, k):
    """The curve l(k) solving F1(k, l(k)) = 0 on 0 < k <= mu1^(-2/(2*-2))."""
    return _scalar(_curve(params, _curve_argument(params, k)))


def curve_k_of_l(params: SystemParams, l):
    """The mirror curve k(l) solving F2(k(l), l) = 0 on 0 < l <= mu2^(-2/(2*-2))."""
    mirror = params.mirrored()
    return _scalar(_curve(mirror, _curve_argument(mirror, l, "l")))


def _curve(params, k):
    """l(k) for ``params`` at unchecked k in (0, k_sup]."""
    a, b, ts = params.alpha, params.beta, params.two_star
    q = 1.0 - params.mu1 * _powp(k, 0.5 * (ts - 2.0))
    q = np.maximum(q, 0.0)  # endpoint roundoff only
    coef = _powp(ts / (a * params.gamma), 2.0 / b)
    return coef * _powp(k, (2.0 - a) / b) * _powp(q, 2.0 / b)


def eval_f(params: SystemParams, k):
    """Scalar reduction along the curve: f(k) = 0 iff (k, l(k)) solves the system.

    f is F2(k, l(k)) multiplied by the positive factor l(k)^((2-beta)/2) k^(-alpha/2),
    expanded in closed form:

        f(k) = mu2 (2*/(alpha gamma))^(alpha/beta) k^(-(2*-2)alpha/(2 beta)) Q^(alpha/beta)
             + beta gamma / 2*
             - (2*/(alpha gamma))^((2-beta)/beta) k^(-(2*-2)/beta) Q^((2-beta)/beta),

    with Q = 1 - mu1 k^((2*-2)/2).  For 1 < alpha, beta < 2 it tends to
    -inf at k -> 0+ and equals beta*gamma/2* > 0 at the right endpoint.
    Where the divergent term overflows, a signed sentinel of magnitude
    ``F_SENTINEL`` is returned instead of a non-finite value.
    """
    karr = _curve_argument(params, k)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coef = _f_coefficients([params]).reshape((9,) + (1,) * karr.ndim)
        return _scalar(_f_core(coef, karr))


def _f_coefficients(points) -> np.ndarray:
    """The per-point constants of f, shape (9, len(points)), in the order
    `_f_core` unpacks them: mu1, r and t2, then c, e and w of t1 and of
    t3.  Each is formed in Python floats with ``math.log``, so that f(k)
    does not depend on how many points share a call."""
    rows = []
    for p in points:
        a, b, ts = p.alpha, p.beta, p.two_star
        lc = math.log(ts / (a * p.gamma))
        rows.append((p.mu1, 0.5 * (ts - 2.0), b * p.gamma / ts,
                     math.log(p.mu2) + (a / b) * lc, (2.0 - b) / b * lc,
                     (ts - 2.0) * a / (2.0 * b), (ts - 2.0) / b,
                     a / b, (2.0 - b) / b))
    return np.array(rows, dtype=float).reshape(len(points), 9).T


def _f_core(coef, k):
    """f at k = t1 + t2 - t3, with log t = c - e log k + w log Q for t1 and
    t3 in one array.  ``coef`` is from `_f_coefficients`, its trailing axes
    as many as k's and broadcast against them."""
    mu1, r, t2 = coef[:3]
    logk = np.log(k)
    q = np.maximum(1.0 - mu1 * np.exp(r * logk), 0.0)
    log_t = coef[3:5] - coef[5:7] * logk + coef[7:] * np.log(q)
    t1, t3 = np.exp(np.minimum(log_t, 690.0))
    out = t1 + t2 - t3
    # resolve overflow by log comparison of the competing terms
    huge = log_t > 689.0
    if huge.any():
        sign = np.where(log_t[0] >= log_t[1], 1.0, -1.0)
        out = np.where(huge[0] | huge[1], sign * F_SENTINEL, out)
    return out


def bisect(f, a, b, xtol=BISECT_XTOL, rtol=BISECT_RTOL):
    """Roots of f on the brackets [a, b], all brackets at once.

    a and b are floats or 1-D arrays.  f maps a (nodes, brackets) array of
    abscissae, one column per bracket (a float bracket is one column), to
    the array of its values.  f(a) and f(b) must be nonzero and of opposite
    signs, unless a = b, which returns a.  Each bracket repeats the steps of
    SciPy's bisect with the same tolerances, so on the same values of f
    each root is bit-identical to it: halve dm, try xm = xa + dm, keep xm
    as the new xa when f(xm) f(a) >= 0, and stop at xm when f(xm) = 0 or
    |dm| < xtol + rtol |xm|.  A bracket still open after 100 steps, SciPy's
    default cap, returns its xa.

    One call of f decides m steps of every bracket.  It takes the 2^m - 1
    midpoints that the next m steps could try, the nodes of the bisection
    tree, each formed as the steps form it: dm halved once per level (never
    scaled by 2^-j, which differs for subnormal widths) and added to the xa
    of the node's own path.  The steps then follow the path that the signs
    of f choose.  m is the deepest tree whose nodes times brackets stay
    within ``_TREE_NODES``, and at least 1, where a call is one step; f(a)
    is one call more, of one row.
    """
    xa = np.asarray(a, dtype=float)
    dm = np.asarray(b, dtype=float) - xa
    shape = dm.shape
    dm = dm.reshape(1, -1)  # a row of brackets, as each level of the tree
    cols = np.arange(dm.size)
    depth = max(1, (_TREE_NODES // max(dm.size, 1) + 1).bit_length() - 1)
    # row 0 of x holds xa, and rows 2^j .. 2^(j+1) - 1 the nodes of level j:
    # row 2^j + c is tried from the xa in row c, so that rows 0 .. 2^j - 1
    # hold the xa of every path through the first j levels.  Node q, 0-based
    # (row q + 1), on level j steps to node q + 2^j when f(xm) f(a) < 0
    # keeps xa, and to q + 2^(j+1) when xa moves to its xm
    x = np.empty((2 ** depth, dm.size))
    x[0] = np.broadcast_to(xa, shape).ravel()
    width = np.empty((2 ** depth - 1, dm.size))  # |dm| of each node's level
    levels = [(width[2 ** j - 1:2 ** (j + 1) - 1], x[:2 ** j],
               x[2 ** j:2 ** (j + 1)]) for j in range(depth)]
    node = np.arange(2 ** depth - 1)
    size = np.repeat(2 ** np.arange(depth), 2 ** np.arange(depth))  # 2^j
    head = node + 1 - size  # the row that each node is tried from
    node, size = node[:, None], size[:, None]
    keep = node + size
    fa = f(x[:1])
    for level in range(0, 100, depth):
        m = min(depth, 100 - level)
        for w, tried_from, nodes in levels[:m]:
            dm = dm * 0.5
            np.abs(dm, out=w)
            np.add(tried_from, dm, out=nodes)
        xm = x[1:2 ** m]
        fm = f(xm)
        done = (fm == 0.0) | (width[:len(xm)] < xtol + rtol * np.abs(xm))
        move = done | (fm * fa >= 0.0)
        # every bracket starts at the root, steps as its signs pick on each
        # level above the last (its n nodes), and stays on a node where it
        # stops; `at` indexes the node of each bracket
        at = 0, slice(None)
        n = len(xm) // 2
        if n:
            nxt = np.where(done[:n], node[:n], keep[:n] + size[:n] * move[:n])
            for _ in range(m - 1):
                at = nxt[at], cols
        # the step at the node reached, as the loop takes it
        stop = done[at]
        x[0] = np.where(move[at], xm[at], x[head[at[0]], at[1]])
        dm = np.where(stop, 0.0, dm)
        if stop.all():
            break
    return _scalar(x[0].reshape(shape))


def jacobian(params: SystemParams, k: float, l: float) -> np.ndarray:
    """Analytic Jacobian of (F1, F2) with respect to (k, l)."""
    return _system(params, k, l)[2]


def gamma_gradient(params: SystemParams, k: float, l: float) -> np.ndarray:
    """Partial derivatives of (F1, F2) with respect to gamma."""
    return _system(params, k, l)[3]


def newton_polish(params: SystemParams, k: float, l: float, tol: float,
                  max_iter: int = _POLISH_STEPS) -> tuple[bool, float, float]:
    """Damped Newton on (F1, F2) from k, l > 0; returns ``(converged, k, l)``.

    Converged means both residuals are at most ``tol``; otherwise the loop
    stopped after ``max_iter`` steps, at a singular Jacobian or at a
    non-finite iterate.  A step that would leave k, l > 0 is halved down to
    ``_DAMPING_FLOOR``; one that leaves them even then stops the loop at the
    last iterate.  This is the scalar reference for `_newton`, which takes
    these steps from many points at once."""
    if k <= 0.0 or l <= 0.0:
        return False, float(k), float(l)
    for _ in range(max_iter):
        f1, f2, J, _ = _system(params, k, l)
        if abs(f1) <= tol and abs(f2) <= tol:
            return True, float(k), float(l)
        try:
            step = np.linalg.solve(J, np.array([f1, f2]))
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        while scale > _DAMPING_FLOOR and (k - scale * step[0] <= 0.0
                                          or l - scale * step[1] <= 0.0):
            scale *= 0.5
        k_next, l_next = k - scale * step[0], l - scale * step[1]
        if k_next <= 0.0 or l_next <= 0.0:
            break
        k, l = k_next, l_next
        if not (math.isfinite(k) and math.isfinite(l)):
            break
    return False, float(k), float(l)


#: the refusals of `find_k0_l0`, error class and message by constraint, in
#: the order of its checks: a point's error is the first check it fails
_REFUSALS = {
    "0 < k_sup, l_sup < inf": (NumericalError, "decoupled pair leaves the "
                               "float range"),
    "gamma >= 0": (DomainError, "no root finding for gamma < 0 (minimum "
                   "not attained)"),
    "gamma": (NumericalError, "alpha gamma or beta gamma overflows a float"),
    "regime": (DomainError, "root finding needs n > 4s with 1 < alpha, "
               "beta < 2, or 2s < n < 4s with alpha, beta > 2"),
    "bracket": (NoSignChangeError, "scan found no sign change of f; "
                "parameters outside the solvable hypotheses or grid too "
                "coarse"),
    "scan-floor": (NumericalError, "leftmost crossing is a sign fall; the "
                   "minimal root lies below the scan floor (coupling too "
                   "weak for this grid)"),
    "l > 0": (NumericalError, "root collapsed onto the curve endpoint"),
    "residual": (NumericalError, "residual tolerance not met after polish"),
    "0 < k < k_sup, 0 < l < l_sup": (NumericalError,
                                     "root left the admissible box"),
    "minimal-k": (NumericalError, "f is positive left of the returned root; "
                  "minimal-k selection failed"),
}


def _refusal(constraint, value):
    """The error of the check on ``constraint`` that fails at ``value``."""
    error, message = _REFUSALS[constraint]
    return error(message, constraint=constraint, value=value)


def _prescan(params):
    """A point's outcome before its scan, or None if it has none yet: at
    gamma = 0 the decoupled pair (a `NumericalError` when it under- or
    overflows), else its first refusal on gamma >= 0, gamma or regime."""
    if params.gamma == 0.0:
        try:
            k0, l0 = _decoupled_pair(params)
        except NumericalError as exc:
            return exc
        res1, res2 = (abs(float(f)) for f in _residuals(params, k0, l0))
        return CouplingSolution(k0, l0, res1, res2, "decoupled")
    if params.gamma < 0.0:
        return _refusal("gamma >= 0", params.gamma)
    if not max(params.alpha, params.beta) * params.gamma < math.inf:
        return _refusal("gamma", params.gamma)
    if regimes.case_of(params) is None:
        return _refusal("regime",
                        (params.n, params.s, params.alpha, params.beta))
    return None


def find_k0_l0(params: SystemParams, tol: float = RESIDUAL_TOL) -> CouplingSolution:
    """Minimal-k root of the coupling system by bracketed bisection.

    Scans a geometric grid over (0, mu1^(-2/(2*-2))), bisects the leftmost
    sign change of f, maps back through the curve l(k), then polishes with
    Newton so that both residuals meet ``tol``.  gamma = 0 returns the
    decoupled pair without root finding; gamma < 0 is rejected.  This is
    `find_k0_l0_batch` for one point.
    """
    (result,) = find_k0_l0_batch([params], tol)
    if isinstance(result, CritsysError):
        raise result
    return result


def find_k0_l0_batch(points, tol: float = RESIDUAL_TOL) -> list:
    """`find_k0_l0` for every parameter set in ``points``.

    Returns one entry per point, in order: its `CouplingSolution`, or the
    `CritsysError` that `find_k0_l0` raises for it.  Up to ``_BATCH``
    points share one evaluation of f over their scans and one bisection of
    their brackets; each root is the one a call for its point alone returns.
    """
    check_tol(tol)
    points = list(points)
    return [r for start in range(0, len(points), _BATCH)
            for r in _solve_batch(points[start:start + _BATCH], tol)]


def _solve_batch(points, tol) -> list:
    """`find_k0_l0_batch` for at most ``_BATCH`` points.

    The points that `_prescan` leaves open meet the checks in the order of
    `_REFUSALS`, all points of a check at once.  A check refuses only the
    points that no earlier one refused, so each point's outcome is set
    once: its first failed check, or the root that passed them all."""
    before = [_prescan(p) for p in points]
    scan = [p for p, r in zip(points, before) if r is None]
    outcome = [None] * len(scan)

    def settle(rows, results, constraint=None):
        """Give each of ``rows`` its result (None leaves it open), or the
        refusal on ``constraint`` at that value, unless it has one."""
        for row, result in zip(rows, results):
            if outcome[row] is None:
                outcome[row] = (_refusal(constraint, result) if constraint
                                else result)

    stack, coef = _stack(scan), _f_coefficients(scan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ksup = k_sup(stack)
        found, first, f_first, ends = _scan(coef, ksup)
        settle(np.flatnonzero(~found), map(tuple, ends[~found].tolist()),
               "bracket")
        # every scanned point is in case A or B, and only B has alpha < 2.
        # There f must rise through its minimal root, so a falling first
        # crossing puts that root below the scan floor.  A zero on the grid
        # is the bracket [k, k], which bisect returns as is
        case_b, crossing = stack.alpha < 2.0, f_first != 0.0
        fall = np.flatnonzero(crossing & case_b & (f_first > 0.0))
        settle(fall, (ksup[fall] * _SCAN[first[fall]]).tolist(), "scan-floor")

        todo = np.flatnonzero([r is None for r in outcome])
        cells, ksup = first[todo], ksup[todo]
        # C order, so that each constant of f is one contiguous row: indexing
        # the columns leaves them strided, and f's ufuncs then run 2-3x slower
        sub = np.ascontiguousarray(coef[:, todo])
        k = bisect(lambda k: _f_core(sub[:, None], k), ksup * _SCAN[cells],
                   ksup * _SCAN[cells + crossing[todo]])
        tail = SystemParams(*(v[todo] for v in vars(stack).values()))
        l = _curve(tail, k)
        settle(todo[l <= 0.0], l[l <= 0.0].tolist(), "l > 0")
        k, l, res1, res2, unmet = _polish(tail, k, l, tol)
        settle(todo, unmet)
        out = ~((0.0 < k) & (k < ksup) & (0.0 < l) & (l < l_sup(tail)))
        settle(todo[out], zip(k[out].tolist(), l[out].tolist()),
               "0 < k < k_sup, 0 < l < l_sup")

        # in case B the reduction must stay negative left of the minimal
        # root, checked on 256 points a root: twice _SCAN_ROWS roots at a
        # time, whose temporaries are then the size of a scan block's
        pending = np.array([outcome[r] is None for r in todo], bool)
        rows = np.flatnonzero(pending & case_b[todo] & (k > 2e-8 * ksup))
        for start in range(0, len(rows), 2 * _SCAN_ROWS):
            block = rows[start:start + 2 * _SCAN_ROWS]
            # C order, so that each row is one contiguous inner loop
            left = np.ascontiguousarray(np.geomspace(
                ksup[block] * 1e-8, k[block] * (1.0 - 1e-6), 256, axis=1))
            bad = block[np.any(_f_core(sub[:, block, None], left) > 1e-10,
                               axis=1)]
            settle(todo[bad], k[bad].tolist(), "minimal-k")
    settle(todo, map(CouplingSolution, k.tolist(), l.tolist(), res1, res2))
    scanned = iter(outcome)
    return [r if r is not None else next(scanned) for r in before]


def _scan(coef, ksup):
    """The first event of f on each point's scan, ``_SCAN`` times its
    ``ksup``: f = 0 at a grid point, or a sign change between a grid point
    and the next.  Returns per point whether it has one, the index of its
    grid point (0 if none), f there, and f at the scan's floor and top.
    The points go ``_SCAN_ROWS`` at a time, so that no (points x 512)
    array is formed."""
    found = np.empty(len(ksup), dtype=bool)
    first = np.empty(len(ksup), dtype=int)
    f_first = np.empty(len(ksup))
    ends = np.empty((len(ksup), 2))
    for start in range(0, len(ksup), _SCAN_ROWS):
        block = slice(start, start + _SCAN_ROWS)
        f = _f_core(coef[:, block, None], ksup[block, None] * _SCAN)
        event = f == 0.0
        sign = np.sign(f)
        event[:, :-1] |= sign[:, :-1] * sign[:, 1:] < 0.0
        j = first[block] = event.argmax(axis=1)
        rows = np.arange(len(j))
        found[block] = event[rows, j]
        f_first[block] = f[rows, j]
        ends[block] = f[:, ::len(_SCAN) - 1]
    return found, first, f_first, ends


def _polish(params, k, l, tol):
    """Newton from each (k, l) to 0.05 tol: the polished k and l, their
    residuals |F1| and |F2| as lists, and per point the "residual" refusal
    where these do not both meet tol, else None."""
    k, l, _ = _newton(params, k, l, 0.05 * tol)
    res1, res2 = (np.abs(f).tolist() for f in _residuals(params, k, l))
    return k, l, res1, res2, [
        _refusal("residual", max(r1, r2)) if r1 > tol or r2 > tol else None
        for r1, r2 in zip(res1, res2)]


def _newton(params, k, l, tol, max_iter=_POLISH_STEPS):
    """`newton_polish` from every (k, l) at once: each point takes the
    steps, halvings and stops it takes there, while the others go on.
    ``params`` may hold an array of gammas, one per point.  Returns the
    last k and l and the mask of the points `newton_polish` reports
    converged: those whose residuals met ``tol`` at an evaluation made
    while they were still live.

    An iteration costs a fixed few dozen numpy calls whatever the number
    of points: `_system`'s tables are formed once, every point's (2, 2)
    system is solved in one call, and the damping and stopping rules run
    on all points together."""
    x = np.array((k, l), dtype=float)
    live = ~(x <= 0.0).any(axis=0)
    converged = np.zeros_like(live)
    with np.errstate(over="ignore"):
        tables = _system_tables(params, 1)
    for _ in range(max_iter):
        f1, f2, jac, _ = _system(params, x[0], x[1], tables)
        f = np.array((f1, f2))
        met = live & (np.abs(f) <= tol).all(axis=0)
        converged |= met
        live ^= met
        if not live.any():
            break
        # one (2, 2) system per point, its rows and columns last; a point
        # that is no longer live solves the identity, never singular
        J = np.where(live, jac, _EYE).transpose(2, 0, 1)
        try:
            step = np.linalg.solve(J, f.T[..., None])[..., 0].T
        except np.linalg.LinAlgError:  # only a singular point stops
            step = np.zeros_like(x)
            for j in np.flatnonzero(live):
                try:
                    step[:, j] = np.linalg.solve(J[j], f[:, j])
                except np.linalg.LinAlgError:
                    live[j] = False
        # a live point that leaves k, l > 0 has its step halved and stops if
        # it still leaves; one with a non-finite iterate stops after moving
        x1 = x - step
        out = (x1 <= 0.0).any(axis=0)
        if (live & out).any():
            scale = np.ones_like(x1[0])
            while (halve := live & (scale > _DAMPING_FLOOR) & (
                    (x - scale * step <= 0.0).any(axis=0))).any():
                scale[halve] *= 0.5
            x1 = x - scale * step
            out = (x1 <= 0.0).any(axis=0)
        live &= ~out
        x = np.where(live, x1, x)
        live &= np.isfinite(x1).all(axis=0)
    return x[0], x[1], converged


#: the (2, 2) identity, broadcast against a (2, 2, points) Jacobian
_EYE = np.eye(2)[..., None]


# ---------------------------------------------------------------------------
# ratio reduction (2s < n < 4s, alpha, beta > 2)

def ratio_f1(params: SystemParams, x):
    """(x+1)^((2*-2)/2) / (mu1 x^((2*-2)/2) + (alpha gamma/2*) x^((alpha-2)/2))."""
    a, ts = params.alpha, params.two_star
    r = 0.5 * (ts - 2.0)
    x = np.asarray(x, dtype=float)
    den = params.mu1 * _powp(x, r) + (a * params.gamma / ts) * _powp(x, 0.5 * (a - 2.0))
    return _scalar(_powp(x + 1.0, r) / den)


def ratio_f2(params: SystemParams, x):
    """(x+1)^((2*-2)/2) / (mu2 + (beta gamma/2*) x^(alpha/2))."""
    a, b, ts = params.alpha, params.beta, params.two_star
    r = 0.5 * (ts - 2.0)
    x = np.asarray(x, dtype=float)
    den = params.mu2 + (b * params.gamma / ts) * _powp(x, 0.5 * a)
    return _scalar(_powp(x + 1.0, r) / den)


def solve_ratio_reduction(params: SystemParams,
                          tol: float = RESIDUAL_TOL) -> CouplingSolution:
    """Root via the substitution y = k + l, x = k/l.

    Under the concave-regime coupling bound, f1 is strictly decreasing and
    f2 strictly increasing with f1 -> +inf at 0 and f2 -> +inf at infinity,
    so f1 - f2 has a unique sign change; the unique root of the system is
    k = x0 y0/(1+x0), l = y0/(1+x0) with y0 = f1(x0)^(2/(2*-2)).
    """
    check_tol(tol)
    _require_positive_gamma(params)
    if regimes.case_of(params) != "A":
        raise DomainError(
            "ratio reduction needs 2s < n < 4s and alpha, beta > 2",
            constraint="regime",
            value=(params.n, params.s, params.alpha, params.beta))

    # where the coupling bound fails, f1 and f2 can leave the float range
    # on the scan; the checks below turn that into a structured error
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xs = np.geomspace(1e-4, 1e4, 1000)
        f1v = ratio_f1(params, xs)
        f2v = ratio_f2(params, xs)
        if not np.all(np.diff(f1v) < 0.0):
            raise MonotonicityViolationError(
                "sampled f1 is not strictly decreasing; coupling bound "
                "violated", constraint="f1 decreasing", value=params.gamma)
        if not np.all(np.diff(f2v) > 0.0):
            raise MonotonicityViolationError(
                "sampled f2 is not strictly increasing; coupling bound "
                "violated", constraint="f2 increasing", value=params.gamma)

        g = lambda x: ratio_f1(params, x) - ratio_f2(params, x)
        lo, hi = 1e-4, 1e4
        while (g_lo := g(lo)) <= 0.0 and lo > 1e-12:
            lo *= 0.1
        while (g_hi := g(hi)) >= 0.0 and hi < 1e12:
            hi *= 10.0
    if not (g_lo > 0.0 > g_hi):
        raise NoSignChangeError("f1 - f2 shows no sign change on the scan range",
                                constraint="bracket", value=(lo, hi))
    x0 = bisect(g, lo, hi, xtol=1e-12, rtol=1e-12)

    r = 0.5 * (params.two_star - 2.0)
    y0 = _powp(ratio_f1(params, x0), 1.0 / r)
    k, l, res1, res2, (unmet,) = _polish(params, [x0 * y0 / (1.0 + x0)],
                                         [y0 / (1.0 + x0)], tol)
    if unmet:
        raise unmet
    return CouplingSolution(k.item(), l.item(), res1[0], res2[0], "ratio")


# ---------------------------------------------------------------------------
# slope diagnostics (n > 4s, 1 < alpha, beta < 2)

def curve_lprime(params: SystemParams, k):
    """Analytic slope of the curve l(k):

    l'(k) = (2* mu1/(alpha gamma))^(2/beta) k^((2-2*)/beta)
            (mu1^-1 - k^((2*-2)/2))^((2-beta)/beta) ((2-alpha)/(mu1 beta) - k^((2*-2)/2))
    """
    a, b, ts = params.alpha, params.beta, params.two_star
    r = 0.5 * (ts - 2.0)
    k = np.asarray(k, dtype=float)
    coef = _powp(ts * params.mu1 / (a * params.gamma), 2.0 / b)
    mid = np.maximum(1.0 / params.mu1 - _powp(k, r), 0.0)
    return _scalar(coef * _powp(k, (2.0 - ts) / b) * _powp(mid, (2.0 - b) / b)
                   * ((2.0 - a) / (params.mu1 * b) - _powp(k, r)))


def curve_diagnostics(params: SystemParams) -> CurveDiagnostics:
    """Closed-form slope structure of both curves; a field beyond the float
    range is a `NumericalError` on ``overflow``."""
    _require_positive_gamma(params)
    a, b, ts = params.alpha, params.beta, params.two_star
    if ts >= 4.0:
        raise DomainError("slope diagnostics need 2* < 4 (n > 4s)",
                          constraint="2* < 4", value=ts)
    if regimes.case_of(params) != "B":  # n > 4s holds, as 2* < 4
        raise DomainError("slope diagnostics need 1 < alpha, beta < 2",
                          constraint="alpha, beta", value=(a, b))
    # the fields of l(k), then those of its mirror k(l)
    return CurveDiagnostics(
        *_slope_structure(params, "l'(k)"),
        *_slope_structure(params.mirrored(), "k'(l)"))


def _slope_structure(params, name):
    """Sign change, inflection point and minimum of l'(k), in closed form."""
    a, b, ts = params.alpha, params.beta, params.two_star
    e = 2.0 / (ts - 2.0)
    with np.errstate(over="ignore"):
        sign = _powp((2.0 - a) / (params.mu1 * b), e)
        infl = _powp(2.0 * (2.0 - a) / (params.mu1 * b * (4.0 - ts)), e)
        closed = -(_powp(ts * (ts - 2.0) * params.mu1
                         / (2.0 * a * params.gamma), 2.0 / b)
                   * _powp((2.0 - b) / (2.0 - a), (2.0 - b) / b))
    if not all(map(math.isfinite, (sign, infl, closed))):
        raise NumericalError(f"slope structure of {name} leaves the float "
                             "range", constraint="overflow",
                             value=(sign, infl, closed))
    return sign, infl, closed


# ---------------------------------------------------------------------------
# randomized domination check

@dataclass(frozen=True)
class DominationReport:
    samples: int
    feasible: int
    violations: int
    worst_margin: float | None


def check_domination(params: SystemParams, solution: CouplingSolution,
                     samples: int = 10_000, seed: int = 0) -> DominationReport:
    """Randomized check that feasible pairs dominate the root in c + d.

    Draws log-uniform (c, d); every pair with F1 >= 0 and F2 >= 0 must
    satisfy c + d >= k0 + l0 - DOMINATION_SLACK.  A violating pair raises
    `CounterexampleError` with the pair attached; this signals either a
    solver bug or parameters outside the theorem hypotheses.  ``samples``
    outside [0, DOMINATION_CAP] or a negative ``seed`` is a `DomainError`.
    """
    if not 0 <= samples <= DOMINATION_CAP:
        raise DomainError(f"samples must lie in [0, {DOMINATION_CAP}]",
                          constraint="samples", value=samples)
    if seed < 0:
        raise DomainError("seed must be nonnegative", constraint="seed",
                          value=seed)
    rng = np.random.default_rng(seed)
    k0, l0 = solution.k, solution.l
    ks, ls = _decoupled_pair(params)  # the box's corner, in the float range
    lo_c, hi_c = k0 / 10.0, 10.0 * max(k0, ks)
    lo_d, hi_d = l0 / 10.0, 10.0 * max(l0, ls)
    c = np.exp(rng.uniform(math.log(lo_c), math.log(hi_c), samples))
    d = np.exp(rng.uniform(math.log(lo_d), math.log(hi_d), samples))
    # F1 and F2 a scan block's worth of samples at a time, so that their
    # temporaries stay as small as the scan's
    feas = np.empty(samples, dtype=bool)
    for start in range(0, samples, _SCAN_ROWS * _SCAN.size):
        block = slice(start, start + _SCAN_ROWS * _SCAN.size)
        f1, f2 = _residuals(params, c[block], d[block])
        feas[block] = (f1 >= 0.0) & (f2 >= 0.0)
    margins = c + d - (k0 + l0)
    n_feas = int(np.count_nonzero(feas))
    if n_feas == 0:
        return DominationReport(samples, 0, 0, None)
    worst_margin = float(np.min(margins[feas]))
    bad = feas & (margins < -DOMINATION_SLACK)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        i = np.flatnonzero(bad)[0]
        raise CounterexampleError(
            "feasible pair undercuts the root in c + d",
            constraint="c + d >= k0 + l0",
            value=(float(c[i]), float(d[i])))
    return DominationReport(samples, n_feas, 0, worst_margin)
