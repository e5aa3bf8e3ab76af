import math
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings

from critsys import algebraic, asymptotics
from critsys.algebraic import (BISECT_RTOL, BISECT_XTOL, DOMINATION_CAP,
                               CouplingSolution, DominationReport, bisect,
                               check_domination, curve_diagnostics,
                               curve_k_of_l, curve_l_of_k, curve_lprime,
                               eval_F1, eval_F2, eval_f, find_k0_l0,
                               find_k0_l0_batch, gamma_gradient, jacobian,
                               k_sup, l_sup, newton_polish, ratio_f1,
                               ratio_f2, solve_ratio_reduction)
from critsys.errors import (CounterexampleError, CritsysError, DomainError,
                            MonotonicityViolationError, NoSignChangeError,
                            NumericalError)
from critsys.params import make_params
from critsys.regimes import ATTAINED_B, gamma_threshold_A, gamma_threshold_B

from conftest import (case_edge_draws, concave_regime_params, fd_lprime,
                      rng_params, symmetric_threshold, whole_box_params)


def symmetric_root(ts, mu, gamma):
    # closed form: alpha = beta = 2*/2 makes the coupling term gamma/2 * k^((2*-2)/2)
    return (mu + gamma / 2.0) ** (-2.0 / (ts - 2.0))


P_B = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)      # threshold of the B regime
P_A = make_params(1, 0.4, 5.0, 1.0, 1.0, 8.0)      # threshold of the A regime


# ---------------------------------------------------------------------------
# F1, F2

def test_F1_decoupled_identity():
    p = make_params(3, 0.5, 1.5, 2.0, 1.0, 0.0)
    k = p.mu1 ** (-2.0 / (p.two_star - 2.0))
    assert eval_F1(p, k, 0.7) == pytest.approx(0.0, abs=1e-15)


def test_F1_F2_at_symmetric_root():
    k = symmetric_root(3.0, 1.0, 1.0)
    assert k == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert eval_F1(P_B, k, k) == pytest.approx(0.0, abs=1e-14)
    assert eval_F2(P_B, k, k) == pytest.approx(0.0, abs=1e-14)


def test_F1_arithmetic_example():
    assert eval_F1(P_B, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_F1_rejects_zero_k_for_small_alpha():
    with pytest.raises(DomainError):
        eval_F1(P_B, 0.0, 1.0)
    with pytest.raises(DomainError):
        eval_F2(P_B, 1.0, 0.0)


def test_F1_allows_zero_k_for_large_alpha():
    assert eval_F1(P_A, 0.0, 0.5) == pytest.approx(
        P_A.mu1 * 0.0 ** 4.0 - 1.0, abs=1e-15)


def test_F1_alpha_exactly_two_at_zero_k():
    # the k power in the coupling term degenerates to a constant
    p = make_params(1, 0.4, 2.0, 1.0, 1.0, 1.0)  # 2* = 10, beta = 8
    assert eval_F1(p, 0.0, 1.0) == pytest.approx(2.0 / 10.0 - 1.0, abs=1e-15)


def test_F1_F2_bit_identical_to_explicit_expressions():
    # the expressions F1, F2, J and dF/dgamma had before they shared one
    # implementation; each keeps its k-power-first product order
    powp = algebraic._powp
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        p = whole_box_params(rng)
        a, b, ts = p.alpha, p.beta, p.two_star
        r = 0.5 * (ts - 2.0)
        k, l = 10.0 ** rng.uniform(-6.0, 2.0, 2)
        f1 = (p.mu1 * powp(k, r)
              + (a * p.gamma / ts) * powp(k, 0.5 * (a - 2.0))
              * powp(l, 0.5 * b) - 1.0)
        f2 = (p.mu2 * powp(l, r) + (b * p.gamma / ts) * powp(k, 0.5 * a)
              * powp(l, 0.5 * (b - 2.0)) - 1.0)
        assert eval_F1(p, k, l).hex() == f1.hex()
        assert eval_F2(p, k, l).hex() == f2.hex()
        g = p.gamma
        want_J = [
            (p.mu1 * r * powp(k, r - 1.0)
             + (a * g / ts) * 0.5 * (a - 2.0) * powp(k, 0.5 * (a - 4.0))
             * powp(l, 0.5 * b)),
            (a * g / ts) * 0.5 * b * powp(k, 0.5 * (a - 2.0))
            * powp(l, 0.5 * (b - 2.0)),
            (b * g / ts) * 0.5 * a * powp(k, 0.5 * (a - 2.0))
            * powp(l, 0.5 * (b - 2.0)),
            (p.mu2 * r * powp(l, r - 1.0)
             + (b * g / ts) * 0.5 * (b - 2.0) * powp(k, 0.5 * a)
             * powp(l, 0.5 * (b - 4.0)))]
        want_grad = [(a / ts) * powp(k, 0.5 * (a - 2.0)) * powp(l, 0.5 * b),
                     (b / ts) * powp(k, 0.5 * a) * powp(l, 0.5 * (b - 2.0))]
        got = [*jacobian(p, k, l).ravel(), *gamma_gradient(p, k, l)]
        assert [float(x).hex() for x in got] == \
            [x.hex() for x in want_J + want_grad]
        # the array path agrees with the scalar one
        assert [x.hex() for x in eval_F1(p, np.full(3, k), l)] == \
            [f1.hex()] * 3
        assert [x.hex() for x in eval_F2(p, k, np.full(3, l))] == \
            [f2.hex()] * 3


def system_bits(out, *point):
    """The bytes of F1, F2, the Jacobian and the gamma gradient that
    `_system` returned, at ``point`` (an index) of its array form."""
    return b"".join(np.asarray(x, dtype=float)[(..., *point)].tobytes()
                    for x in out)


def test_system_array_form_equals_scalar_form_per_point():
    # whole-box draws, a third of them within ulps of alpha = 2, beta = 2
    # or s = n/4, at log-uniform (k, l)
    rng = np.random.default_rng(13)
    points = [p for p, _ in case_edge_draws(rng, 600)]
    k, l = 10.0 ** rng.uniform(-6.0, 2.0, (2, len(points)))
    singles = [system_bits(algebraic._system(p, k0, l0))
               for p, k0, l0 in zip(points, k.tolist(), l.tolist())]
    # every field an array, as in the sweep tail, with and without the
    # tables formed once
    stacked = algebraic._stack(points)
    for out in (algebraic._system(stacked, k, l),
                algebraic._system(stacked, k, l,
                                  algebraic._system_tables(stacked, 1))):
        assert [system_bits(out, i) for i in range(len(points))] == singles
    # scalar exponents with an array of gammas, as in a continuation ladder
    for p in points[:100]:
        gammas = p.gamma + np.abs(p.gamma) * 0.5 ** np.arange(8.0)
        ks, ls = 10.0 ** rng.uniform(-6.0, 2.0, (2, 8))
        ladder = algebraic._system(replace(p, gamma=gammas), ks, ls)
        assert [system_bits(ladder, i) for i in range(8)] == [
            system_bits(algebraic._system(p.replace_gamma(g), k0, l0))
            for g, k0, l0 in zip(gammas.tolist(), ks.tolist(), ls.tolist())]
    # x**0 = 1 also at k = 0 when alpha = 2 (2* = 10, beta = 8)
    p = make_params(1, 0.4, 2.0, 1.0, 1.0, 1.0)
    ks, ls, gammas = np.array([0.0, 0.5]), np.array([1.0, 0.3]), [1.0, 2.0]
    at_zero = algebraic._system(p, 0.0, 1.0)
    assert at_zero[0] == 2.0 / 10.0 - 1.0
    ladder = algebraic._system(replace(p, gamma=np.array(gammas)), ks, ls)
    assert [system_bits(ladder, i) for i in range(2)] == [
        system_bits(algebraic._system(p.replace_gamma(g), k0, l0))
        for g, k0, l0 in zip(gammas, ks.tolist(), ls.tolist())]
    assert system_bits(ladder, 0) == system_bits(at_zero)


def test_F_domain_errors_name_their_argument():
    # each function checks its own variable first
    for f, first in ((eval_F1, "k"), (eval_F2, "l")):
        with pytest.raises(DomainError) as exc:
            f(P_B, -1.0, -1.0)
        assert exc.value.constraint == first


def test_mirrored_swaps_fields_exactly():
    rng = np.random.default_rng(5)
    moved = 0
    for _ in range(500):
        p = whole_box_params(rng)
        m = p.mirrored()
        assert (m.n, m.s, m.alpha, m.beta, m.mu1, m.mu2, m.gamma) == \
            (p.n, p.s, p.beta, p.alpha, p.mu2, p.mu1, p.gamma)
        assert m.mirrored() == p
        # deriving beta again from the swapped alpha can move it by an ulp
        moved += make_params(p.n, p.s, p.beta, p.mu2, p.mu1,
                             p.gamma).beta != p.alpha
    assert moved > 0


def test_F_vectorized():
    ks = np.array([0.3, 0.5, 1.0])
    out = eval_F1(P_B, ks, 1.0)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# curves

def test_curve_endpoint_zero():
    assert curve_l_of_k(P_B, k_sup(P_B)) == pytest.approx(0.0, abs=1e-12)
    assert curve_k_of_l(P_B, l_sup(P_B)) == pytest.approx(0.0, abs=1e-12)


def test_curve_symmetric_point():
    assert curve_l_of_k(P_B, 4.0 / 9.0) == pytest.approx(4.0 / 9.0, rel=1e-14)


def test_curve_defining_identity_on_grid():
    for p in (P_B, P_A, make_params(3, 0.5, 1.2, 0.5, 2.0, 0.7)):
        ks = k_sup(p) * np.geomspace(1e-6, 1.0 - 1e-9, 200)
        res = eval_F1(p, ks, curve_l_of_k(p, ks))
        assert np.max(np.abs(res)) <= 1e-12
        ls = l_sup(p) * np.geomspace(1e-6, 1.0 - 1e-9, 200)
        res2 = eval_F2(p, curve_k_of_l(p, ls), ls)
        assert np.max(np.abs(res2)) <= 1e-12


@given(concave_regime_params())
@settings(max_examples=60, deadline=None)
def test_curve_identity_property(p):
    ks = k_sup(p) * np.geomspace(1e-4, 1.0 - 1e-9, 50)
    assert np.max(np.abs(eval_F1(p, ks, curve_l_of_k(p, ks)))) <= 1e-12


def test_curve_domain_errors():
    with pytest.raises(DomainError):
        curve_l_of_k(P_B, k_sup(P_B) * 1.01)
    with pytest.raises(DomainError):
        curve_l_of_k(P_B, 0.0)
    with pytest.raises(DomainError):
        curve_l_of_k(P_B.replace_gamma(-1.0), 0.3)
    p = make_params(3, 0.5, 1.2, 0.5, 2.0, 0.7)
    for x in (l_sup(p) * 1.01, 0.0):
        with pytest.raises(DomainError, match=r"^l outside .*mu2") as exc:
            curve_k_of_l(p, x)
        assert exc.value.constraint == "l"


# ---------------------------------------------------------------------------
# scalar reduction f

def test_f_right_endpoint_positive():
    # only positivity is portable here; the expansion gives beta*gamma/2*
    val = eval_f(P_B, k_sup(P_B) * (1.0 - 1e-13))
    assert val > 0.0
    assert val == pytest.approx(P_B.beta * P_B.gamma / P_B.two_star, rel=1e-3)


def test_f_negative_at_small_k():
    assert eval_f(P_B, k_sup(P_B) * 1e-8) < 0.0
    assert eval_f(P_B, k_sup(P_B) * 1e-4) < 0.0


def test_f_zero_at_symmetric_root():
    assert eval_f(P_B, 4.0 / 9.0) == pytest.approx(0.0, abs=1e-13)


def test_f_sentinel_is_finite():
    # extreme exponents force the divergent term past float range
    p = make_params(1, 0.49, 50.0, 1.0, 1.0, 1.0)
    vals = eval_f(p, k_sup(p) * np.geomspace(1e-8, 0.5, 64))
    assert np.all(np.isfinite(vals))
    assert np.any(np.abs(vals) >= 1e300)  # sentinel actually exercised


def test_f_sign_tracks_F2_on_curve():
    p = make_params(3, 0.5, 1.3, 0.7, 1.4, 0.8)
    ks = k_sup(p) * np.geomspace(1e-3, 1.0 - 1e-6, 300)
    fv = eval_f(p, ks)
    f2v = eval_F2(p, ks, np.maximum(curve_l_of_k(p, ks), 1e-300))
    assert np.all(np.sign(fv) == np.sign(f2v))


# ---------------------------------------------------------------------------
# root finding

def test_find_root_symmetric_threshold_B():
    # the curves meet tangentially at the exact threshold, so individual
    # coordinates are only sqrt(eps)-determined; the sum stays sharp
    sol = find_k0_l0(P_B)
    assert sol.k + sol.l == pytest.approx(8.0 / 9.0, abs=1e-9)
    assert sol.k == pytest.approx(4.0 / 9.0, abs=1e-4)
    assert sol.l == pytest.approx(4.0 / 9.0, abs=1e-4)
    assert sol.res1 <= 1e-12 and sol.res2 <= 1e-12
    assert sol.method == "bisection"


def test_find_root_symmetric_threshold_A():
    sol = find_k0_l0(P_A)
    expected = 5.0 ** -0.25
    assert sol.k + sol.l == pytest.approx(2.0 * expected, abs=1e-9)
    assert sol.k == pytest.approx(expected, abs=1e-4)


def test_find_root_interior_gamma_is_sharp():
    # strictly above the threshold the root is unique and non-degenerate
    for gamma in (1.5, 2.0, 3.5):
        p = P_B.replace_gamma(gamma)
        sol = find_k0_l0(p)
        expected = symmetric_root(3.0, 1.0, gamma)
        assert sol.k == pytest.approx(expected, abs=1e-12)
        assert sol.l == pytest.approx(expected, abs=1e-12)


def test_find_root_below_threshold_takes_minimal_k():
    # below the coupling bound the system has several roots; the symmetric
    # family still solves it, but the minimal-k root is an asymmetric one
    p = P_B.replace_gamma(0.3)
    sol = find_k0_l0(p)
    sym = symmetric_root(3.0, 1.0, 0.3)
    assert abs(eval_f(p, sym)) <= 1e-12  # symmetric root is on the curve too
    assert sol.k < sym
    assert max(sol.res1, sol.res2) <= 1e-12


def test_find_root_tiny_gamma_reports_scan_floor():
    # at fixed mu a vanishing gamma is deep below the threshold: the true
    # minimal-k root collapses like gamma^3 below the scan floor, and the
    # decoupled pair is reachable only along the continuation branch
    # (covered in the asymptotics tests); the solver reports the floor
    from critsys.errors import NumericalError

    with pytest.raises(NumericalError, match="scan floor"):
        find_k0_l0(P_B.replace_gamma(1e-8))


def test_find_root_gamma_zero_decoupled():
    p = make_params(3, 0.5, 1.5, 1.0, 4.0, 0.0)
    sol = find_k0_l0(p)
    assert sol.method == "decoupled"
    assert sol.k == pytest.approx(1.0, abs=1e-15)      # mu1^(-2/(2*-2)) = 1
    assert sol.l == pytest.approx(0.0625, abs=1e-15)   # 4^(-2)


def test_find_root_rejects_negative_gamma():
    with pytest.raises(DomainError):
        find_k0_l0(P_B.replace_gamma(-1.0))


def test_find_root_rejects_wrong_regime():
    # n > 4s (2* = 3.125 < 4) with a mixed exponent pair alpha > 2 > beta
    # lands outside both solvable hypotheses
    p = make_params(5, 0.9, 2.05, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        find_k0_l0(p)


def test_find_root_no_sign_change_for_vanishing_gamma():
    with pytest.raises(NoSignChangeError):
        find_k0_l0(P_B.replace_gamma(1e-30))


def test_residuals_bound_over_random_regime_draws():
    rng = np.random.default_rng(5)
    for _ in range(30):
        regime = "A" if rng.random() < 0.5 else "B"
        raw = rng_params(rng, regime=regime)
        ts = 2.0 * raw["n"] / (raw["n"] - 2.0 * raw["s"])
        # keep clear of the degenerate threshold boundary
        if regime == "A":
            gamma = 0.5 * (ts - 2.0) * min(raw["mu1"], raw["mu2"])
        else:
            gamma = 2.0 * (ts - 2.0) * max(raw["mu1"], raw["mu2"])
        p = make_params(gamma=gamma, **raw)
        sol = find_k0_l0(p)
        assert max(sol.res1, sol.res2) <= 1e-12
        assert 0.0 < sol.k < k_sup(p) and 0.0 < sol.l < l_sup(p)


def test_swap_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(10):
        raw = rng_params(rng, regime="B")
        ts = 2.0 * raw["n"] / (raw["n"] - 2.0 * raw["s"])
        gamma = 2.5 * (ts - 2.0) * max(raw["mu1"], raw["mu2"])
        p = make_params(gamma=gamma, **raw)
        q = make_params(raw["n"], raw["s"], p.beta, raw["mu2"], raw["mu1"],
                        gamma)
        a, b = find_k0_l0(p), find_k0_l0(q)
        assert b.k == pytest.approx(a.l, rel=1e-9, abs=1e-11)
        assert b.l == pytest.approx(a.k, rel=1e-9, abs=1e-11)


P_NEG = make_params(3, 0.5, 1.5, 1.0, 1.5, -1.0)

#: every library entry point that takes a residual tolerance
TOL_CALLS = {
    "find_k0_l0": lambda tol: find_k0_l0(P_B, tol=tol),
    "find_k0_l0_batch": lambda tol: find_k0_l0_batch([P_B, P_A], tol=tol),
    "solve_ratio_reduction": lambda tol: solve_ratio_reduction(P_A, tol=tol),
    "solve_tR_sR": lambda tol: asymptotics.solve_tR_sR(P_NEG, 0.05, tol=tol),
    "energy_gap_vs_R": lambda tol: asymptotics.energy_gap_vs_R(
        P_NEG, [10.0], tol=tol),
    "continuation_branch": lambda tol: asymptotics.continuation_branch(
        make_params(3, 0.5, 1.5, 1.0, 1.5, 2.0), 1.0, tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_library_refuses_a_tol_outside_its_domain(name, tol):
    # as the CLI does: without the check, tol = nan or inf passed every
    # residual test, and solve_tR_sR returned (1, 1) at theta = 0.05
    with pytest.raises(DomainError) as exc:
        TOL_CALLS[name](tol)
    assert exc.value.constraint == "tol"


def test_tol_zero_is_in_the_domain():
    algebraic.check_tol(0.0)
    assert find_k0_l0_batch([], tol=0.0) == []


# ---------------------------------------------------------------------------
# bisection and the batched solver

@pytest.mark.parametrize("xtol, rtol", [(BISECT_XTOL, BISECT_RTOL),
                                        (1e-12, 1e-12)])
def test_bisect_matches_scipy_bit_for_bit(xtol, rtol):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(23)
    # a simple root inside brackets spread over sixteen decades
    scale = 10.0 ** rng.uniform(-8.0, 8.0, 1000)
    a = scale * rng.uniform(0.1, 1.0, 1000)
    b = a + scale * rng.uniform(1e-3, 2.0, 1000)
    r = a + (b - a) * rng.uniform(0.0, 1.0, 1000)
    roots = bisect(lambda x: (x - r) * (1.0 + x * x), a, b, xtol, rtol)
    for i in range(1000):
        assert roots[i] == optimize.bisect(
            lambda x: (x - r[i]) * (1.0 + x * x), a[i], b[i],
            xtol=xtol, rtol=rtol)
    assert bisect(lambda x: (x - r[0]) * (1.0 + x * x), a[0], b[0],
                  xtol, rtol) == roots[0]
    # every sign change of the reduction f on the scan grid of find_k0_l0
    for _ in range(20):
        p0 = make_params(gamma=0.0, **rng_params(rng, regime="B"))
        p = p0.replace_gamma(gamma_threshold_B(p0) * 10.0 ** rng.uniform(-1, 1))
        grid = k_sup(p) * np.geomspace(1e-8, 1.0 - 1e-12, 512)
        fv = eval_f(p, grid)
        cells = np.flatnonzero(np.sign(fv[:-1]) * np.sign(fv[1:]) < 0.0)
        roots = bisect(lambda k: eval_f(p, k), grid[cells], grid[cells + 1],
                       xtol, rtol)
        for c, root in zip(cells, roots):
            assert root == optimize.bisect(lambda k: eval_f(p, k), grid[c],
                                           grid[c + 1], xtol=xtol, rtol=rtol)


def _scipy_steps(f, a, b, xtol, rtol):
    """SciPy's bisect loop in Python floats, with its 100-step cap and none
    of its argument checks, so that xtol = rtol = 0 runs to the cap."""
    fa, xa, dm = f(a), a, b - a
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    return xa


def _counted(f):
    """f, and the list of the lengths of the leading axis of its calls: 1
    for f(a), then 2^m - 1 for each tree of depth m."""
    nodes = []

    def g(x):
        nodes.append(x.shape[0])
        return f(x)
    return g, nodes


def _steps(f, a, b, xtol, rtol):
    """How many steps `_scipy_steps` takes on the bracket [a, b]."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    _scipy_steps(g, a, b, xtol, rtol)
    return calls[0] - 1


@pytest.mark.parametrize("xtol, rtol", [(BISECT_XTOL, BISECT_RTOL),
                                        (5e-324, BISECT_RTOL), (0.0, 0.0)])
def test_bisect_tree_matches_scipy_at_every_depth(xtol, rtol):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    depths = set()
    for count in (1, 2, 3, 5, 9, 17, 40, 100, 1000):
        scale = 10.0 ** rng.uniform(-6.0, 6.0, count)
        a = scale * rng.uniform(0.1, 1.0, count)
        b = a + scale * rng.uniform(1e-3, 2.0, count)
        r = a + (b - a) * rng.uniform(0.0, 1.0, count)
        # an exact zero of f at level 3 of [0, 1], and an a == b bracket
        a[0], b[0], r[0] = 0.0, 1.0, 0.375
        if count > 1:
            b[1] = a[1]
        f, nodes = _counted(lambda x: (x - r) * (1.0 + x * x))
        roots = bisect(f, a, b, xtol, rtol)
        assert roots[0] == 0.375
        refs = []
        for i in range(count):
            g = lambda x, i=i: (x - r[i]) * (1.0 + x * x)
            if a[i] == b[i]:
                ref = a[i]
            elif xtol > 0.0:
                ref = optimize.bisect(g, a[i], b[i], xtol=xtol, rtol=rtol)
            else:  # SciPy refuses xtol = 0; every bracket runs to the cap
                ref = _scipy_steps(g, a[i], b[i], xtol, rtol)
            assert roots[i] == ref
            refs.append(_steps(g, a[i], b[i], xtol, rtol))
        # one tree per call after f(a), each of one depth but the last at
        # the 100-step cap, until the bracket that steps longest stops
        m = int(nodes[1] + 1).bit_length() - 1
        assert nodes[0] == 1 and set(nodes[1:-1]) <= {nodes[1]}
        assert len(nodes) == -(-max(refs) // m) + 1
        depths.add(m)
    assert depths == set(range(1, max(depths) + 1)) and max(depths) >= 6


def test_bisect_halves_a_subnormal_width_as_scipy_does():
    optimize = pytest.importorskip("scipy.optimize")
    tiny = 5e-324  # 2^-1074, the spacing of the subnormals
    a = 2.0 ** -1060 + tiny * np.arange(300.0)
    b = a + tiny * np.arange(3.0, 303.0)
    r = a + 0.37 * (b - a)
    # a width that halving thrice rounds otherwise than scaling by 2^-3
    assert tiny * 11 * 0.5 * 0.5 * 0.5 != tiny * 11 * 2.0 ** -3
    refs = [optimize.bisect(lambda x: -1.0 if x < r[i] else 1.0, a[i], b[i],
                            xtol=5e-324, rtol=BISECT_RTOL) for i in range(300)]
    # each bracket alone, the nine from width 11 on, and all 300: three
    # depths of tree
    for part in [slice(i, i + 1) for i in range(300)] + [slice(8, 17),
                                                         slice(0, 300)]:
        roots = bisect(lambda x: np.where(x < r[part], -1.0, 1.0),
                       a[part], b[part], 5e-324, BISECT_RTOL)
        assert roots.tolist() == refs[part]


def test_bisect_calls_f_once_per_tree():
    # [1, 2] at xtol 1e-9 stops at |dm| = 2^-30, after 30 steps
    g = lambda x: x - math.pi / 2.0
    f, nodes = _counted(g)
    assert bisect(f, 1.0, 2.0, 1e-9, BISECT_RTOL) == _scipy_steps(
        g, 1.0, 2.0, 1e-9, BISECT_RTOL)
    assert _steps(g, 1.0, 2.0, 1e-9, BISECT_RTOL) == 30
    m = int(max(nodes) + 1).bit_length() - 1
    assert m >= 6 and len(nodes) <= -(-30 // m) + 1


def test_batch_equals_point_by_point_over_the_box(monkeypatch):
    rng = np.random.default_rng(29)
    points = []
    for _ in range(400):
        n = int(rng.integers(1, 7))
        s = rng.uniform(0.05, min(0.95, 0.5 * n - 0.01))
        ts = 2.0 * n / (n - 2.0 * s)
        alpha = 1.0 + rng.uniform(0.02, 0.98) * (ts - 2.0)
        mu1, mu2 = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        sign = rng.choice([-1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        points.append(make_params(n, s, alpha, mu1, mu2,
                                  sign * 10.0 ** rng.uniform(-6.0, 6.0)))
    whole = find_k0_l0_batch(points)
    # the same points split into scans of 37 points each, and then each
    # scan and minimal-k check into blocks of 5, which divide neither
    monkeypatch.setattr(algebraic, "_BATCH", 37)
    chunked = find_k0_l0_batch(points)
    monkeypatch.setattr(algebraic, "_SCAN_ROWS", 5)
    blocked = find_k0_l0_batch(points)
    seen = Counter()
    for p, *got in zip(points, whole, chunked, blocked):
        try:
            want = find_k0_l0(p)
        except CritsysError as exc:
            want = exc
        for result in got:
            assert type(result) is type(want)
            if isinstance(want, CouplingSolution):
                assert result == want  # k, l, both residuals and the method
            else:
                assert (str(result), result.constraint, result.value) \
                    == (str(want), want.constraint, want.value)
        seen[want.method if isinstance(want, CouplingSolution)
             else (want.code, want.constraint)] += 1
    assert seen["bisection"] and seen["decoupled"]
    assert seen["no-sign-change", "bracket"]
    assert seen["numerical", "scan-floor"]
    assert find_k0_l0_batch([]) == []


def test_batch_never_holds_a_whole_scan():
    # the 610 points of scripts/run_phase_diagram.py's grid, the caches
    # warm: one (points x 512) float array of the 500 it scans would take
    # 2 MB
    import tracemalloc

    points = [make_params(3, 0.5, round(1.1 + 0.08 * i, 10), 1.0, 1.0,
                          round(-0.5 + 0.05 * j, 10))
              for j in range(61) for i in range(10)]
    find_k0_l0_batch(points)
    tracemalloc.start()
    try:
        find_k0_l0_batch(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


#: the constraints of the errors raised after bisection, in check order
TAIL_CONSTRAINTS = ("l > 0", "residual", "0 < k < k_sup, 0 < l < l_sup",
                    "minimal-k")


def scalar_tail(p, tol=algebraic.RESIDUAL_TOL):
    """find_k0_l0 at a point whose scan brackets a root, one point at a time
    from the public scalar functions: the scan and bisection of f, the curve
    l(k), newton_polish, the residuals, the box and the minimal-k check."""
    ksup = k_sup(p)
    grid = ksup * np.geomspace(1e-8, 1.0 - 1e-12, 512)
    fv = eval_f(p, grid)
    event = fv == 0.0
    event[:-1] |= np.sign(fv[:-1]) * np.sign(fv[1:]) < 0.0
    j = int(event.argmax())
    k = bisect(lambda x: eval_f(p, x), grid[j], grid[j + (fv[j] != 0.0)])
    l = curve_l_of_k(p, k)
    if l <= 0.0:
        return NumericalError("root collapsed onto the curve endpoint",
                              constraint="l > 0", value=l)
    _, k, l = newton_polish(p, k, l, 0.05 * tol)
    # Newton stops before k, l <= 0, but it can stop at a nan iterate,
    # which eval_F1 and eval_F2 reject and where F1 and F2 are nan
    res1, res2 = ((abs(eval_F1(p, k, l)), abs(eval_F2(p, k, l)))
                  if k > 0.0 and l > 0.0 else (math.nan, math.nan))
    if res1 > tol or res2 > tol:
        return NumericalError("residual tolerance not met after polish",
                              constraint="residual", value=max(res1, res2))
    if not (0.0 < k < ksup and 0.0 < l < l_sup(p)):
        return NumericalError("root left the admissible box",
                              constraint=TAIL_CONSTRAINTS[2], value=(k, l))
    case_a = 2.0 * p.s < p.n < 4.0 * p.s and p.alpha > 2.0 and p.beta > 2.0
    if not case_a and k > 2e-8 * ksup:
        left = np.geomspace(ksup * 1e-8, k * (1.0 - 1e-6), 256)
        if np.any(eval_f(p, left) > 1e-10):
            return NumericalError(
                "f is positive left of the returned root; minimal-k "
                "selection failed", constraint="minimal-k", value=k)
    return CouplingSolution(k=k, l=l, res1=res1, res2=res2)


def hex_key(result):
    """A result with every float as float.hex."""
    def hx(v):
        return tuple(map(hx, v)) if isinstance(v, tuple) else float(v).hex()
    if isinstance(result, CouplingSolution):
        return tuple(map(hx, (result.k, result.l, result.res1,
                              result.res2))) + (result.method,)
    return (type(result), str(result), result.constraint, hx(result.value))


def reaches_tail(result):
    return (isinstance(result, CouplingSolution)
            and result.method == "bisection"
            or getattr(result, "constraint", None) in TAIL_CONSTRAINTS)


def test_batched_tail_equals_scalar_reference_over_the_box():
    # the tail sees gamma > 0 only
    def draws(seed, count):
        rng = np.random.default_rng(seed)
        return [(p := whole_box_params(rng)).replace_gamma(abs(p.gamma))
                for _ in range(count)]

    # plus four rare draws whose polished root leaves the admissible box,
    # one of them at a nan iterate
    rare = draws(100, 15483)
    points = draws(41, 3000) + [rare[i] for i in (4165, 4203, 10181, 15482)]
    tail = [(p, got) for p, got in zip(points, find_k0_l0_batch(points))
            if reaches_tail(got)]
    kinds = Counter(getattr(got, "constraint", "solved") for _, got in tail)
    assert kinds["solved"] > 1000 and kinds["residual"] > 10
    assert kinds[TAIL_CONSTRAINTS[2]] == 4
    for p, got in tail:
        assert hex_key(got) == hex_key(scalar_tail(p))


@pytest.mark.parametrize("name, constraint, breaks", [
    ("_system", "residual",
     lambda out, hit: (*out[:2], np.where(hit, 0.0, out[2]), out[3])),
    ("_curve", "l > 0", lambda out, hit: np.where(hit, 0.0, out)),
], ids=["singular-jacobian", "collapsed-curve"])
def test_batched_tail_failure_at_one_point_stops_only_it(monkeypatch, name,
                                                         constraint, breaks):
    # a zero Jacobian, or a curve l(k) = 0, at the point with gamma = 2, in
    # a batch or alone
    p0 = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
    points = [p0.replace_gamma(g) for g in (0.5, 1.0, 2.0, 3.0)]
    before = find_k0_l0_batch(points)
    real = getattr(algebraic, name)
    monkeypatch.setattr(algebraic, name, lambda params, *args: breaks(
        real(params, *args), np.asarray(params.gamma) == 2.0))
    after = find_k0_l0_batch(points)
    assert [hex_key(r) for i, r in enumerate(after) if i != 2] == \
        [hex_key(r) for i, r in enumerate(before) if i != 2]
    assert isinstance(before[2], CouplingSolution)
    assert after[2].constraint == constraint
    assert [hex_key(r) for r in after] == \
        [hex_key(scalar_tail(p)) for p in points]


@pytest.mark.parametrize("gamma, f_max", [(0.7, 0.0251),
                                          (0.77651772, 5.5e-8)],
                         ids=["tall", "grazing"])
def test_tail_refuses_a_root_with_f_positive_to_its_left(monkeypatch,
                                                        gamma, f_max):
    # f has three roots, near 0.252, 0.484 and 0.9999 at gamma = 0.7 and
    # near 0.391, 0.407 and 0.99965 at 0.77651772; the largest, handed to
    # the tail, passes the residual and box checks but not the minimal-k
    # check.  At the second gamma the positive stretch between the first
    # two roots is so low that its largest value on the check's 256-point
    # grid lies between the 1e-10 threshold and 1e-6.  The bisection is
    # replaced by one that returns the largest root.
    p = make_params(3, 0.5, 1.18, 1.0, 0.8, gamma)
    ksup = k_sup(p)
    k = bisect(lambda x: eval_f(p, x), 0.999 * ksup, ksup * (1.0 - 1e-12))
    monkeypatch.setattr(algebraic, "bisect", lambda f, a, b: np.array([k]))
    with pytest.raises(NumericalError) as err:
        find_k0_l0(p)
    result = err.value
    assert result.constraint == "minimal-k"
    assert result.value == pytest.approx(k, rel=1e-9)
    coef = algebraic._f_coefficients([p])
    left = np.geomspace(ksup * 1e-8, result.value * (1.0 - 1e-6), 256)
    assert algebraic._f_core(coef, left).max() == \
        pytest.approx(f_max, rel=0.01)


# ---------------------------------------------------------------------------
# ratio reduction

def test_ratio_symmetric_interior():
    p = P_A.replace_gamma(4.0)  # interior of the A regime (threshold is 8)
    sol = solve_ratio_reduction(p)
    assert sol.method == "ratio"
    assert sol.k == pytest.approx(sol.l, abs=1e-10)  # x0 = 1 by symmetry
    expected = symmetric_root(10.0, 1.0, 4.0)
    assert sol.k == pytest.approx(expected, abs=1e-10)
    ref = find_k0_l0(p)
    assert sol.k == pytest.approx(ref.k, abs=1e-8)
    assert sol.l == pytest.approx(ref.l, abs=1e-8)


def test_ratio_symmetric_threshold_sum():
    sol = solve_ratio_reduction(P_A)
    assert sol.k + sol.l == pytest.approx(2.0 * 5.0 ** -0.25, abs=1e-9)


def test_ratio_asymmetric_mass_shift():
    p = make_params(1, 0.4, 5.0, 1.0, 2.0, 8.0)
    sol = solve_ratio_reduction(p)
    assert sol.k > sol.l  # heavier second mode pushes mass to the first

    # brute-force oracle: independent transcription of f1, f2 and a dense scan
    ts, a, b, g = 10.0, 5.0, 5.0, 8.0
    r = 0.5 * (ts - 2.0)
    f1 = lambda x: (x + 1.0) ** r / (1.0 * x ** r + (a * g / ts) * x ** (0.5 * (a - 2)))
    f2 = lambda x: (x + 1.0) ** r / (2.0 + (b * g / ts) * x ** (0.5 * a))
    xs = np.geomspace(1e-3, 1e3, 200001)
    diff = f1(xs) - f2(xs)
    idx = np.flatnonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
    x0_scan = 0.5 * (xs[idx] + xs[idx + 1])
    assert x0_scan > 1.0
    assert sol.k / sol.l == pytest.approx(x0_scan, rel=1e-4)

    ref = find_k0_l0(p)
    assert sol.k == pytest.approx(ref.k, abs=1e-8)
    assert sol.l == pytest.approx(ref.l, abs=1e-8)


def test_ratio_reduction_evaluates_each_bracket_end_once(monkeypatch):
    # P_A's bracket [1e-4, 1e4] needs no widening: f1 sees each end once,
    # bisect's f(a) sees lo again, and the root once more for y0
    scalars = []

    def counted(params, x, ratio_f1=ratio_f1):
        if np.size(x) == 1:
            scalars.append(float(np.ravel(x)[0]))
        return ratio_f1(params, x)

    monkeypatch.setattr(algebraic, "ratio_f1", counted)
    solve_ratio_reduction(P_A)
    assert len(scalars) == 4 and scalars[:3] == [1e-4, 1e4, 1e-4]


def test_ratio_monotonicity_guard():
    # far above the coupling bound the scalar pieces stop being monotone
    p = P_A.replace_gamma(80.0)
    with pytest.raises(MonotonicityViolationError):
        solve_ratio_reduction(p)


def test_ratio_monotonicity_guard_leaks_no_warning():
    # f1 overflows on the scan; under the RuntimeWarning error filter a
    # leaked numpy warning would raise before the structured error
    p = make_params(1, 0.49361213501014756, 148.3087934864975,
                    127.55213319599761, 1.6179277375244951,
                    0.0008853894056100049)
    with pytest.raises(MonotonicityViolationError):
        solve_ratio_reduction(p)


def test_ratio_rejects_wrong_regime():
    with pytest.raises(DomainError):
        solve_ratio_reduction(P_B)


def _ratio_at_half_threshold(mu2):
    p = make_params(1, 0.4, 5.0, 1.0, mu2, 1.0)
    return p.replace_gamma(gamma_threshold_A(p) / 2.0)


def test_ratio_widens_its_bracket_upward():
    # mu2 = 1e20 puts the root near k/l = 1e5, above the first 1e4 bound
    sol = solve_ratio_reduction(_ratio_at_half_threshold(1e20))
    assert sol.k / sol.l == pytest.approx(1e5, rel=1e-6)
    assert max(sol.res1, sol.res2) <= 1e-12


@pytest.mark.parametrize("mu2, bracket", [(1e60, (1e-4, 1e12)),
                                          (1e-60, (1e-13, 1e4))],
                         ids=["upward", "downward"])
def test_ratio_widened_bracket_without_a_sign_change(mu2, bracket):
    with pytest.raises(NoSignChangeError) as err:
        solve_ratio_reduction(_ratio_at_half_threshold(mu2))
    assert err.value.value == pytest.approx(bracket, rel=1e-12)


def test_ratio_monotone_samples_under_coupling_bound():
    # sampled monotonicity on log grids, as used inside the solver
    for gamma in (2.0, 5.0, 8.0):
        p = P_A.replace_gamma(gamma)
        xs = np.geomspace(1e-3, 1e3, 1000)
        assert np.all(np.diff(ratio_f1(p, xs)) < 0.0)
        assert np.all(np.diff(ratio_f2(p, xs)) > 0.0)


def test_ratio_monotone_for_asymmetric_exponents():
    # alpha <= beta draws below the coupling bound (where the printed
    # threshold implies the proof-side condition for both pieces)
    from critsys.regimes import gamma_threshold_A

    rng = np.random.default_rng(23)
    xs = np.geomspace(1e-3, 1e3, 1000)
    for _ in range(15):
        s = rng.uniform(0.27, 0.48)
        ts = 2.0 / (1.0 - 2.0 * s)
        alpha = 2.0 + rng.uniform(0.05, 0.45) * (ts - 4.0)  # below 2*/2
        p = make_params(1, s, alpha, rng.uniform(0.3, 3.0),
                        rng.uniform(0.3, 3.0), 1.0)
        p = p.replace_gamma(rng.uniform(0.2, 0.95) * gamma_threshold_A(p))
        assert np.all(np.diff(ratio_f1(p, xs)) < 0.0)
        assert np.all(np.diff(ratio_f2(p, xs)) > 0.0)
        sol = solve_ratio_reduction(p)
        assert max(sol.res1, sol.res2) <= 1e-12


# ---------------------------------------------------------------------------
# curve diagnostics

def _central_slope(params, k):
    """Central difference of l(k) at k, step 1e-5 k."""
    h = 1e-5 * k
    return (curve_l_of_k(params, k + h)
            - curve_l_of_k(params, k - h)) / (2.0 * h)


def _assert_slope_minima(params, d):
    """Each half of ``d`` against its curve: the central difference at the
    inflection matches the minimal slope within 1e-7 relative (at most
    8.2e-9 over the 7266 halves of the first 4000 whole-box draws of seed
    11, a margin of 12), and the analytic slope 0.1% to either side lies
    above it."""
    for q, infl, least in ((params, d.k_inflection, d.lprime_min),
                           (params.mirrored(), d.l_inflection, d.kprime_min)):
        assert abs(_central_slope(q, infl) - least) <= 1e-7 * abs(least)
        assert np.all(curve_lprime(q, infl * np.array([0.999, 1.001])) > least)


def test_diagnostics_threshold_slope():
    d = curve_diagnostics(P_B)
    assert d.lprime_min == pytest.approx(-1.0, abs=1e-10)
    assert d.kprime_min == pytest.approx(-1.0, abs=1e-10)
    assert d.k_inflection == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert d.k_sign_change == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert _central_slope(P_B, d.k_inflection) >= -1.0 - 1e-6


def test_diagnostics_below_threshold_slope():
    p = P_B.replace_gamma(0.5)
    d = curve_diagnostics(p)
    assert d.lprime_min == pytest.approx(-2.0 ** (4.0 / 3.0), rel=1e-12)
    assert _central_slope(p, d.k_inflection) < -1.0


def test_diagnostics_above_threshold_slope():
    p = P_B.replace_gamma(2.0)
    d = curve_diagnostics(p)
    assert d.lprime_min == pytest.approx(-2.0 ** (-4.0 / 3.0), rel=1e-12)
    assert _central_slope(p, d.k_inflection) > -1.0


def test_diagnostics_gamma_scaling_law():
    # gamma enters the slope only through the (1/gamma)^(2/beta) prefactor
    base = curve_diagnostics(P_B).lprime_min
    for gamma in (0.25, 0.5, 2.0, 4.0):
        d = curve_diagnostics(P_B.replace_gamma(gamma))
        assert d.lprime_min == pytest.approx(
            base * gamma ** (-2.0 / P_B.beta), rel=1e-12)


def test_diagnostics_rejects_exponents_outside_1_2():
    # 2* = 3.33 < 4, but beta = 2.13 lies above 2
    with pytest.raises(DomainError) as err:
        curve_diagnostics(make_params(3, 0.6, 1.2, 1.0, 1.0, 1.0))
    assert err.value.constraint == "alpha, beta"


def test_diagnostics_rejects_wide_power():
    with pytest.raises(DomainError):
        curve_diagnostics(P_A)  # 2* = 10 >= 4


@pytest.mark.parametrize("p", [
    # alpha = 1.95, beta = 1.05: the slope minimum sits at 0.0091 k_sup
    make_params(3, 0.5, 1.95, 1.0, 1.0, 1.0),
    # l_sup is about 2e-194
    make_params(7, 0.05059279113408672, 1.0186122161427855,
                0.20235004603499301, 693.8931503495608, 93.66638101772159),
], ids=["sharp-minimum", "tiny-l_sup"])
def test_diagnostics_match_the_curves_at_the_inflection(p):
    _assert_slope_minima(p, curve_diagnostics(p))


def test_diagnostics_over_the_box(attained_whole_box):
    # a leaked warning fails this under the suite's error::RuntimeWarning
    points = [p for p, label, _ in attained_whole_box if label == ATTAINED_B]
    assert len(points) >= 906
    for p in points:
        try:
            d = curve_diagnostics(p)
        except NumericalError as err:
            assert err.constraint == "overflow"
            continue
        assert all(map(math.isfinite, astuple(d)))
        _assert_slope_minima(p, d)


def test_solve_outcomes_over_the_box(attained_whole_box):
    # what the solver answers on the fixture's 1000 draws, by label and
    # outcome; a change that solves more points moves these on purpose
    outcomes = Counter(
        (label, "solved" if isinstance(sol, CouplingSolution)
         else sol.constraint) for _, label, sol in attained_whole_box)
    assert outcomes == {("ATTAINED_A", "solved"): 94,
                        ("ATTAINED_B", "solved"): 326,
                        ("ATTAINED_B", "bracket"): 579,
                        ("ATTAINED_B", "residual"): 1}


def test_diagnostics_overflow_is_a_numerical_error():
    # the 2098th case-B point of the seed-11 whole-box draws: l_sup is
    # beyond the float range, and so is the mirror curve's slope structure
    p = make_params(5, 0.021700407287512144, 1.0109377681556764,
                    11.626963466164957, 0.0014043925807705124,
                    991.2183061421916)
    with pytest.raises(NumericalError) as err:
        curve_diagnostics(p)
    assert (err.value.code, err.value.constraint) == ("numerical", "overflow")


def test_slope_fd_matches_analytic():
    ks, fd = fd_lprime(P_B, curve_diagnostics(P_B).k_inflection)
    an = curve_lprime(P_B, ks)
    ksup = k_sup(P_B)
    win = (ks >= 0.1 * ksup) & (ks <= 0.9 * ksup)
    scale = np.max(np.abs(an[win]))
    assert np.max(np.abs(fd[win] - an[win])) / scale <= 1e-6


def test_grid_slope_minimum_bound_at_threshold():
    _, fd = fd_lprime(P_B, curve_diagnostics(P_B).k_inflection)
    assert np.min(fd) >= -1.0 - 1e-6


# ---------------------------------------------------------------------------
# Jacobian

def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.choice([1, 3, 5]))
        s = rng.uniform(0.05, 0.45) if n == 1 else rng.uniform(0.05, 0.95)
        ts = 2.0 * n / (n - 2.0 * s)
        alpha = 1.0 + rng.uniform(0.1, 0.9) * (ts - 2.0)
        p = make_params(n, s, alpha, rng.uniform(0.2, 5), rng.uniform(0.2, 5),
                        rng.uniform(-3, 3))
        k, l = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        J = jacobian(p, k, l)
        hk, hl = 1e-6 * k, 1e-6 * l
        fd = np.array([
            [(eval_F1(p, k + hk, l) - eval_F1(p, k - hk, l)) / (2 * hk),
             (eval_F1(p, k, l + hl) - eval_F1(p, k, l - hl)) / (2 * hl)],
            [(eval_F2(p, k + hk, l) - eval_F2(p, k - hk, l)) / (2 * hk),
             (eval_F2(p, k, l + hl) - eval_F2(p, k, l - hl)) / (2 * hl)]])
        rel = np.max(np.abs(J - fd) / np.maximum(np.abs(J), 1e-12))
        assert rel <= 1e-6


def test_newton_polish_reaches_residual_floor():
    p = P_B.replace_gamma(2.0)
    k0 = symmetric_root(3.0, 1.0, 2.0)
    converged, k, l = newton_polish(p, k0 * 1.05, k0 * 0.95, tol=1e-12)
    assert converged
    assert abs(eval_F1(p, k, l)) <= 1e-12
    assert abs(eval_F2(p, k, l)) <= 1e-12


def test_newton_floor_step_leaving_the_domain_is_a_residual_error():
    # draw 216 of whole_box_params with seed 0: a polish step damped to the
    # floor still crosses k = 0, so the loop stops at its last iterate and
    # the valid point reports a residual error, not a k-domain error
    rng = np.random.default_rng(0)
    for _ in range(216):
        p = whole_box_params(rng)
    with pytest.raises(NumericalError) as exc:
        find_k0_l0(p)
    assert exc.value.constraint == "residual"


# ---------------------------------------------------------------------------
# domination check

def test_domination_equality_and_scaling_cases():
    sol = find_k0_l0(P_A)
    k0, l0 = sol.k, sol.l
    # the root itself sits on the boundary with margin zero
    assert eval_F1(P_A, k0, l0) == pytest.approx(0.0, abs=1e-12)
    assert k0 + l0 - (sol.k + sol.l) == 0.0
    # scaling up keeps feasibility and increases the sum
    assert eval_F1(P_A, 2 * k0, 2 * l0) > 0.0
    assert eval_F2(P_A, 2 * k0, 2 * l0) > 0.0
    assert 2 * k0 + 2 * l0 > k0 + l0


def test_domination_randomized_clean():
    sol = find_k0_l0(P_A)
    report = check_domination(P_A, sol, samples=2000, seed=42)
    assert report.violations == 0
    assert report.feasible > 0
    assert report.worst_margin >= -1e-9


def test_domination_concave_regime(monkeypatch):
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 2.0)  # above the B threshold
    sol = find_k0_l0(p)
    report = check_domination(p, sol, samples=2000, seed=3)
    assert report.violations == 0
    assert report.worst_margin >= -1e-9
    # the same draws in blocks of 512 samples, the last one short
    monkeypatch.setattr(algebraic, "_SCAN_ROWS", 1)
    assert check_domination(p, sol, samples=2000, seed=3) == report


def test_domination_with_no_samples_has_no_feasible_pair():
    sol = find_k0_l0(P_A)
    report = check_domination(P_A, sol, samples=0)
    assert report == DominationReport(0, 0, 0, None)


@pytest.mark.parametrize("samples, seed, constraint", [
    (-1, 0, "samples"), (DOMINATION_CAP + 1, 0, "samples"),
    (10 ** 400, 0, "samples"), (10, -1, "seed")])
def test_domination_refuses_counts_and_seeds_outside_their_domain(
        samples, seed, constraint):
    sol = find_k0_l0(P_A)
    with pytest.raises(DomainError) as err:
        check_domination(P_A, sol, samples=samples, seed=seed)
    assert err.value.constraint == constraint


def test_domination_box_beyond_the_float_range_is_numerical_error():
    # l_sup = mu2^(-2/(2*-2)) = 1e640 leaves the float range
    p = make_params(3, 0.5, 1.5, 1.0, 1e-320, 1.0)
    fake = CouplingSolution(k=1.0, l=1.0, res1=0.0, res2=0.0)
    with pytest.raises(NumericalError) as err:
        check_domination(p, fake, samples=10)
    assert err.value.constraint == "0 < k_sup, l_sup < inf"


def test_domination_counterexample_carries_point():
    sol = find_k0_l0(P_A)
    fake = CouplingSolution(k=sol.k * 1.5, l=sol.l * 1.5, res1=0.0, res2=0.0)
    with pytest.raises(CounterexampleError) as err:
        check_domination(P_A, fake, samples=5000, seed=0)
    c, d = err.value.value
    assert eval_F1(P_A, c, d) >= 0.0 and eval_F2(P_A, c, d) >= 0.0
    assert c + d < fake.k + fake.l
