import hashlib
import math

import numpy as np
import pytest

from critsys import algebraic, asymptotics
from critsys.algebraic import (eval_F1, eval_F2, gamma_gradient, jacobian,
                               k_sup, l_sup, newton_polish)
from critsys.asymptotics import (MAX_BRANCH_SAMPLES, OverlapQuadrature,
                                 contraction_ball, continuation_branch,
                                 energy_gap_vs_R, overlap_theta, solve_tR_sR)
from critsys.bubbles import (BubbleSpec, bubble_field, ground_state_amplitude,
                             sobolev_constant_closed_form)
from critsys.errors import (DivergenceError, DomainError, NumericalError,
                            QuadratureError)
from critsys.params import make_params
from critsys.regimes import energy_ordering_check, gamma_threshold_B

from conftest import rng_params

#: sha256 over the samples, ends and brackets of the eight seeded branches of
#: test_branch_endings_golden_digest (numpy 2.4.6, x86-64)
BRANCH_DIGEST_SHA256 = \
    "85cf8a514ce1853e5baf5b8dce73a7d6c2945f4f741c18054ec993880957cc99"

#: the same over the two branches of test_corrector_cap_golden_digest
CORRECTOR_CAP_DIGEST_SHA256 = \
    "fa238162fac28815dd64221af5b7c4695b8a11676fbc971825317650fda05465"

P_NEG = make_params(3, 0.5, 1.5, 1.0, 2.0, -1.0)
P_SYM = make_params(3, 0.5, 1.5, 1.0, 1.0, 0.3)

FAST_QUAD = OverlapQuadrature(N=64, eps=1.0, check_tails=False)


# ---------------------------------------------------------------------------
# overlap ratio

def test_theta_fully_overlapped_identity():
    # R = 0 with equal strengths makes the ratio exactly 1/mu1 on any grid
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, -1.0)
    quad = OverlapQuadrature(N=32, eps=1.0, L=10.0, check_tails=False)
    assert overlap_theta(p, 0.0, quad).theta == pytest.approx(1.0, rel=1e-12)
    p2 = make_params(3, 0.5, 1.5, 2.0, 2.0, -1.0)
    assert overlap_theta(p2, 0.0, quad).theta == pytest.approx(0.5, rel=1e-12)


def test_theta_decays_with_separation():
    ths = [overlap_theta(P_NEG, R, FAST_QUAD).theta for R in (5.0, 10.0, 20.0)]
    assert ths[0] > ths[1] > ths[2] > 0.0
    assert ths[2] < 1e-2  # far apart the interaction is tiny


def test_theta_translation_invariance():
    quad = OverlapQuadrature(N=128, eps=1.0)
    base = overlap_theta(P_NEG, 12.0, quad).theta
    shifted = overlap_theta(P_NEG, 12.0, quad, shift=(1.7, -0.9, 0.4)).theta
    assert abs(shifted - base) / base <= 0.01


def test_theta_tail_guard_fires_on_tight_box():
    quad = OverlapQuadrature(N=32, eps=1.0, L=2.0, check_tails=True)
    with pytest.raises(QuadratureError):
        overlap_theta(P_NEG, 4.0, quad)


def full_grid_theta(params, R, quad, L, shift):
    """theta on the box from `bubble_field`'s samples, each power and the
    product formed on every grid point."""
    a, b, ts = params.alpha, params.beta, params.two_star
    S = sobolev_constant_closed_form(params).value
    amp = ground_state_amplitude(params, BubbleSpec(quad.eps, (0.0,)), S)
    fields = []
    for sign, mu in ((1.0, params.mu1), (-1.0, params.mu2)):
        center = tuple((sign * R / 2.0 if d == 0 else 0.0) + shift[d]
                       for d in range(params.n))
        kappa = mu ** (-1.0 / (ts - 2.0)) * amp
        fields.append(bubble_field(BubbleSpec(quad.eps, center, kappa),
                                   params, quad.N, L))
    w1, w2 = fields
    hn = w1.h ** params.n
    num = hn * float(np.sum(w1.values ** a * w2.values ** b))
    return num / (hn * params.mu1 * float(np.sum(w1.values ** ts)))


def full_grid_bubble(spec, params, N, L):
    """The bubble on every point of the grid, |x - y|^2 summed in axis
    order from the grid points -L + (2L/N) i."""
    x = -L + (2.0 * L / N) * np.arange(N)
    r2 = np.zeros((1,) * params.n)
    for d in range(params.n):
        r2 = r2 + ((x - spec.center[d]) ** 2).reshape(
            (1,) * d + (N,) + (1,) * (params.n - d - 1))
    return spec.kappa * (spec.epsilon ** 2 + r2) ** (
        -0.5 * (params.n - 2.0 * params.s))


@pytest.mark.parametrize("n, N, R, L, shift", [
    (1, 32, 6.0, 10.3, (0.0,)),
    (1, 128, 12.0, None, (0.37,)),
    (2, 32, 6.0, 7.7, (0.0, 0.0)),
    (2, 64, 10.0, 10.3, (0.0, -0.61)),
    (2, 128, 20.0, None, (0.0, 0.0)),
    (3, 32, 4.0, 10.3, (0.25, -0.5, 1.1)),
    (3, 64, 10.0, 7.7, (0.0, 0.0, 0.0)),
    (3, 128, 10.0, None, (0.0, 0.0, 0.0)),
    (3, 128, 12.0, 10.3, (1.7, -0.9, 0.4)),
])
def test_theta_matches_full_grid_reference(n, N, R, L, shift):
    # L = 10.3 and 7.7 have non-dyadic spacings, where some mirrored grid
    # points square to different floats; L = None is the automatic box
    p = make_params(n, 0.2 if n == 1 else 0.5, 1.2 if n == 1 else 1.5,
                    0.8, 1.7, -0.6)
    quad = OverlapQuadrature(N=N, eps=1.0, check_tails=False)
    L = R / 2.0 + asymptotics.MARGIN_FACTOR if L is None else L
    got = asymptotics._theta_on_box(p, R, quad, L, shift)
    assert got.hex() == full_grid_theta(p, R, quad, L, shift).hex()
    spec = BubbleSpec(quad.eps, shift, 1.3)
    assert np.array_equal(bubble_field(spec, p, N, L).values,
                          full_grid_bubble(spec, p, N, L))


def test_theta_reference_cases_keep_mirrored_squares_apart():
    # the non-dyadic boxes of the reference cases hold more distinct
    # squared offsets than the N/2 + 1 of a mirror-symmetric axis
    for N, L in ((32, 10.3), (64, 7.7), (128, 10.3)):
        x = -L + (2.0 * L / N) * np.arange(N)
        assert np.unique(x ** 2).size > N // 2 + 1


def test_theta_rejects_negative_separation():
    with pytest.raises(DomainError):
        overlap_theta(P_NEG, -1.0, FAST_QUAD)


# ---------------------------------------------------------------------------
# fixed point

def test_fixed_point_at_zero_overlap_is_exact():
    sol = solve_tR_sR(P_NEG, 0.0)
    assert sol.tR == 1.0 and sol.sR == 1.0
    assert sol.iterations == 1 and sol.defect == 0.0


def test_fixed_point_residuals_verify():
    # direct re-evaluation of the projected system is the oracle
    theta = 1e-3
    for p in (P_NEG, P_SYM, make_params(1, 0.4, 4.0, 0.7, 1.3, -2.0)):
        sol = solve_tR_sR(p, theta, tol=1e-13)
        a, b, ts, g = p.alpha, p.beta, p.two_star, p.gamma
        r = 0.5 * (ts - 2.0)
        g1 = sol.tR ** r + (a * g / ts) * sol.tR ** (0.5 * (a - 2.0)) \
            * sol.sR ** (0.5 * b) * theta - 1.0
        g2 = sol.sR ** r + (b * g / ts) * sol.tR ** (0.5 * a) \
            * sol.sR ** (0.5 * (b - 2.0)) * theta - 1.0
        assert max(abs(g1), abs(g2)) <= 1e-13


def test_fixed_point_ball_bound_small_theta():
    sol = solve_tR_sR(P_NEG, 1e-3)
    assert abs(sol.tR - 1.0) + abs(sol.sR - 1.0) \
        <= contraction_ball(P_NEG, 1e-3) + 1e-8


def test_fixed_point_ball_bound_random_draws():
    rng = np.random.default_rng(11)
    accepted = 0
    while accepted < 100:
        raw = rng_params(rng, regime="B" if rng.random() < 0.7 else "A")
        gamma = rng.uniform(0.2, 2.5) * (1 if rng.random() < 0.5 else -1)
        p = make_params(gamma=gamma, **raw)
        theta = rng.uniform(0.0, 0.05)
        try:
            sol = solve_tR_sR(p, theta)
        except DivergenceError:
            continue  # outside the contraction regime; correctly rejected
        accepted += 1
        assert abs(sol.tR - 1.0) + abs(sol.sR - 1.0) \
            <= contraction_ball(p, theta) + 1e-8


def test_fixed_point_rejects_bad_theta():
    with pytest.raises(DomainError):
        solve_tR_sR(P_NEG, -0.01)
    with pytest.raises(DomainError):
        solve_tR_sR(P_NEG, 0.2)


def test_fixed_point_divergence_outside_regime():
    # nearly-critical power 2: the rearranged map has a violent exponent
    # and the certified ball is no longer small
    p = make_params(5, 0.065, 1.014, 1.0, 1.0, 2.372)
    with pytest.raises(DivergenceError):
        solve_tR_sR(p, 0.0327)


def test_fixed_point_overflowing_map_is_divergence():
    # 2* = 2.0134: the map raises (1 - coupling) to the power 2/(2*-2) =
    # 149.5 and leaves the float range on its first step
    p = make_params(3, 0.01, 1.005, 1.0, 1.0, -2.0)
    with pytest.raises(DivergenceError):
        solve_tR_sR(p, 0.05)


def test_linearization_constants():
    # the ball's radius is 2 ||c||_1 theta, c the constant term of the
    # linearization around (1, 1): c = -(gamma/2*) (alpha, beta) 2/(2*-2)
    for p in (P_NEG, P_SYM, make_params(1, 0.4, 4.0, 0.7, 1.3, -2.0)):
        a, b, ts, g = p.alpha, p.beta, p.two_star, p.gamma
        d = ts - 2.0
        c = [-(a * g / ts) * 2.0 / d, -(b * g / ts) * 2.0 / d]
        assert contraction_ball(p, 0.01) == pytest.approx(
            2.0 * (abs(c[0]) + abs(c[1])) * 0.01, rel=1e-15)
    assert contraction_ball(P_NEG, 0.0) == 0.0


def test_gamma_negative_gives_supersolution_side():
    # negative coupling pushes both projections above one
    sol = solve_tR_sR(P_NEG, 0.01)
    assert sol.tR > 1.0 and sol.sR > 1.0
    solp = solve_tR_sR(P_SYM, 0.01)
    assert solp.tR < 1.0 and solp.sR < 1.0


# ---------------------------------------------------------------------------
# energy gap ladder

def test_energy_gap_requires_negative_gamma():
    with pytest.raises(DomainError):
        energy_gap_vs_R(P_SYM, [10.0], quad=FAST_QUAD)


def test_energy_gap_overflowing_level_is_numerical_error():
    # mu1^(-(n-2s)/2s) = 0.0016^(-155.25) overflows a float
    p = make_params(5, 0.016, 1.005, 1.6e-3, 1.0, -1.0)
    with pytest.raises(NumericalError, match="overflows"):
        energy_gap_vs_R(p, [10.0], quad=FAST_QUAD)


def test_energy_gap_ladder_shrinks():
    rows = energy_gap_vs_R(P_NEG, [6.0, 12.0, 24.0], quad=FAST_QUAD)
    gaps = [r.gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(g >= -1e-8 for g in gaps)  # upper bound never undershoots
    assert all(r.theta > 0 for r in rows)


def test_energy_gap_vanishes_with_coupling():
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, -1e-12)
    rows = energy_gap_vs_R(p, [6.0], quad=FAST_QUAD)
    assert rows[0].tR == pytest.approx(1.0, abs=1e-10)
    assert rows[0].gap == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# continuation

def test_branch_matches_symmetric_closed_form():
    path = continuation_branch(P_SYM, gamma_max=0.99)
    assert path.termination == "completed"
    assert path.samples[0].gamma == 0.0
    assert path.samples[0].k == pytest.approx(1.0, abs=1e-14)
    assert path.samples[-1].gamma == pytest.approx(0.99, abs=1e-14)
    for smp in path.samples:
        closed = (1.0 + smp.gamma / 2.0) ** -2.0
        assert smp.k == pytest.approx(closed, abs=1e-10)
        assert smp.l == pytest.approx(closed, abs=1e-10)


def test_branch_stays_on_diagonal():
    path = continuation_branch(P_SYM, gamma_max=0.9)
    assert max(abs(s.k - s.l) for s in path.samples) <= 1e-10


def test_branch_residuals_reverified():
    path = continuation_branch(P_SYM, gamma_max=0.9)
    for smp in path.samples:
        p = P_SYM.replace_gamma(smp.gamma)
        assert abs(eval_F1(p, smp.k, smp.l)) <= 1e-10
        assert abs(eval_F2(p, smp.k, smp.l)) <= 1e-10


def test_branch_jacobian_matches_finite_differences():
    path = continuation_branch(P_SYM, gamma_max=0.9)
    for smp in path.samples[::10]:
        p = P_SYM.replace_gamma(smp.gamma)
        k, l = smp.k, smp.l
        if smp.gamma == 0.0:
            continue  # coupling term undefined direction at the base point
        J = jacobian(p, k, l)
        hk, hl = 1e-6 * k, 1e-6 * l
        fd = np.array([
            [(eval_F1(p, k + hk, l) - eval_F1(p, k - hk, l)) / (2 * hk),
             (eval_F1(p, k, l + hl) - eval_F1(p, k, l - hl)) / (2 * hl)],
            [(eval_F2(p, k + hk, l) - eval_F2(p, k - hk, l)) / (2 * hk),
             (eval_F2(p, k, l + hl) - eval_F2(p, k, l - hl)) / (2 * hl)]])
        assert np.max(np.abs(J - fd) / np.maximum(np.abs(J), 1e-12)) <= 1e-6


def test_branch_ordering_flip_bracket():
    # closed form: k + l = 2 (1 + gamma/2)^(-2) crosses min(mu^-2) = 1 at
    # gamma = 2 (sqrt(2) - 1)
    flip = 2.0 * (math.sqrt(2.0) - 1.0)
    path = continuation_branch(P_SYM, gamma_max=0.99)
    assert path.gamma1_bracket is not None
    lo, hi = path.gamma1_bracket
    assert lo < flip < hi
    for smp in path.samples:
        assert smp.ordering_ok == (smp.gamma < lo + 1e-15
                                   or smp.gamma <= flip)


def test_branch_asymmetric_base_point():
    p = make_params(3, 0.5, 1.4, 1.0, 2.0, 0.1)
    path = continuation_branch(p, gamma_max=0.3)
    first = path.samples[0]
    assert first.k == pytest.approx(k_sup(p), abs=1e-14)
    assert first.l == pytest.approx(l_sup(p), abs=1e-14)
    assert all(s.ordering_ok for s in path.samples)
    gammas = [s.gamma for s in path.samples]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))


def test_branch_fold_mechanism_truncates():
    # an artificially low conditioning cap exercises the fold handling
    path = continuation_branch(P_SYM, gamma_max=0.99, cond_limit=15.0)
    assert path.termination == "fold"
    assert path.samples[-1].jac_cond > 15.0
    assert path.samples[-1].gamma < 0.99


def test_branch_stops_at_the_sample_cap(monkeypatch):
    monkeypatch.setattr(asymptotics, "MAX_BRANCH_SAMPLES", 5)
    path = continuation_branch(make_params(3, 0.5, 1.5, 1.0, 1.0, 0.0), 0.9)
    assert path.termination == "stalled"
    assert len(path.samples) == 5
    assert path.samples[-1].gamma < 0.9


def test_branch_genuine_fold_for_asymmetric_strengths():
    # with unequal strengths the branch from the decoupled point turns
    # around well below the attainment threshold: conditioning blows up,
    # the step collapses, and the path is truncated and labeled a fold
    p = make_params(3, 0.5, 1.5, 1.0, 1.5, 0.1)
    path = continuation_branch(p, gamma_max=1.4)
    assert path.termination == "fold"
    last = path.samples[-1]
    assert last.gamma < 0.7          # fold sits near 0.667 for this ratio
    assert last.jac_cond > 1e4
    gammas = [s.gamma for s in path.samples]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))


def seeded_branches_digest(seeds):
    """sha256 over the samples, ends and brackets of regime-B branches to
    0.999 gamma_B with mu2/mu1 = 1, 1.5, 2, 2.6 or 4 by seed, and the
    endings."""
    digest = hashlib.sha256()
    ends = []
    for seed in seeds:
        raw = rng_params(np.random.default_rng(seed), regime="B")
        raw["mu2"] = (1.0, 1.5, 2.0, 2.6, 4.0)[seed % 5] * raw["mu1"]
        p0 = make_params(gamma=0.0, **raw)
        path = continuation_branch(p0, 0.999 * gamma_threshold_B(p0))
        for s in path.samples:
            digest.update(f"{s.gamma.hex()} {s.k.hex()} {s.l.hex()} "
                          f"{s.jac_cond.hex()} {s.ordering_ok}\n".encode())
        bracket = path.gamma1_bracket
        digest.update(f"{path.termination} "
                      f"{bracket and tuple(g.hex() for g in bracket)}\n"
                      .encode())
        ends.append(path.termination)
    return digest.hexdigest(), ends


def test_branch_endings_golden_digest():
    # the seeds are picked so that every ending occurs
    digest, ends = seeded_branches_digest((0, 16, 1, 12, 8, 19, 31, 4))
    assert ends == ["completed"] * 2 + ["fold"] * 4 + ["stalled"] * 2
    assert digest == BRANCH_DIGEST_SHA256


def test_corrector_cap_golden_digest():
    # on both branches some corrector needs all algebraic._CORRECTOR_STEPS
    # = 25 Newton steps: with 24 their samples change and seed 217 folds
    digest, ends = seeded_branches_digest((35, 217))
    assert ends == ["completed", "completed"]
    assert digest == CORRECTOR_CAP_DIGEST_SHA256


def scalar_ladder(p0, gamma_max, step=None, tol=1e-12, cond_limit=1e12):
    """continuation_branch from the public scalar functions, one try at a
    time: each outer step corrects dgamma, dgamma/2, ... in turn with
    newton_polish and keeps the first that converges.  The full step that
    reaches gamma_max is corrected at gamma_max itself.  Returns every
    sample as float.hex, the termination and the bracket."""
    thr_b = gamma_threshold_B(p0)
    step, max_step = step or thr_b / 100.0, thr_b / 25.0

    def sample(gamma, k, l):
        p = p0.replace_gamma(gamma)
        return (float(gamma), float(k), float(l),
                float(np.linalg.cond(jacobian(p, k, l))),
                energy_ordering_check(p, k, l))

    gamma, k, l = 0.0, k_sup(p0), l_sup(p0)
    samples = [sample(gamma, k, l)]
    termination = "completed"
    while gamma < gamma_max:
        full = dgamma = min(step, gamma_max - gamma)
        p = p0.replace_gamma(gamma)
        try:
            vel = np.linalg.solve(jacobian(p, k, l),
                                  -gamma_gradient(p, k, l))
        except np.linalg.LinAlgError:
            vel = np.zeros(2)
        while ((dgamma == full or dgamma >= 1e-12 * max(1.0, gamma_max))
               and gamma + dgamma > gamma):
            rung = gamma_max if dgamma == gamma_max - gamma else gamma + dgamma
            ok, k_new, l_new = newton_polish(
                p0.replace_gamma(rung), k + vel[0] * dgamma,
                l + vel[1] * dgamma, tol,
                max_iter=algebraic._CORRECTOR_STEPS)
            if ok:
                gamma, k, l = rung, k_new, l_new
                samples.append(sample(gamma, k, l))
                break
            dgamma *= 0.5
        else:
            at_fold = samples[-1][3] > max(1e4, 100.0 * samples[0][3])
            termination = "fold" if at_fold else "stalled"
            break
        if samples[-1][3] > cond_limit:
            termination = "fold"
            break
        if len(samples) >= MAX_BRANCH_SAMPLES:
            termination = "stalled"
            break
        step = min(step * 1.2, max_step)
    bracket = next(((a[0], b[0]) for a, b in zip(samples, samples[1:])
                    if a[4] and not b[4]), None)
    return hex_branch(samples, termination, bracket)


def hex_branch(samples, termination, bracket):
    return ([tuple(v.hex() if isinstance(v, float) else v for v in s)
             for s in samples], termination,
            bracket and tuple(g.hex() for g in bracket))


def batched_ladder(p0, gamma_max, **kwargs):
    path = continuation_branch(p0, gamma_max, **kwargs)
    return hex_branch([(s.gamma, s.k, s.l, s.jac_cond, s.ordering_ok)
                       for s in path.samples], path.termination,
                      path.gamma1_bracket)


def test_branch_ladder_matches_scalar_halvings():
    # seeded regime-B branches to 0.999 gamma_B, as in the digest test, and
    # more seeds; every ending occurs among them
    ends = []
    for seed in (0, 16, 1, 12, 8, 19, 31, 4, 2, 3, 5, 7):
        raw = rng_params(np.random.default_rng(seed), regime="B")
        raw["mu2"] = (1.0, 1.5, 2.0, 2.6, 4.0)[seed % 5] * raw["mu1"]
        p0 = make_params(gamma=0.0, **raw)
        gamma_max = 0.999 * gamma_threshold_B(p0)
        want = scalar_ladder(p0, gamma_max)
        assert batched_ladder(p0, gamma_max) == want
        ends.append(want[1])
    assert set(ends) == {"completed", "fold", "stalled"}


def test_branch_ladder_matches_scalar_halvings_at_cond_limit():
    want = scalar_ladder(P_SYM, 0.99, cond_limit=15.0)
    assert want[1] == "fold"
    assert batched_ladder(P_SYM, 0.99, cond_limit=15.0) == want


@pytest.mark.parametrize("kwargs", [
    {"gamma_max": math.inf}, {"gamma_max": math.nan},
    {"gamma_max": 0.5, "step": 0.0}, {"gamma_max": 0.5, "step": -0.1},
    {"gamma_max": 0.5, "step": math.nan}, {"gamma_max": 0.5, "step": math.inf}])
def test_branch_rejects_step_or_gamma_max_outside_its_domain(kwargs):
    with pytest.raises(DomainError) as err:
        continuation_branch(P_SYM, **kwargs)
    assert err.value.constraint == ("step" if "step" in kwargs
                                    else "gamma_max")


P_ENDS = make_params(3, 0.5, 1.5, 1.0, 1.5, 0.0)


@pytest.mark.parametrize("gamma_max, step", [
    (1e-300, None),  # the whole step is below the halving floor
    (0.5, 1e-14),  # and so are the first 26 steps
    # gamma + (gamma_max - gamma) rounds to one ulp below gamma_max
    (0.0038558730985959896, 0.00175813128298422),
], ids=["tiny-gamma-max", "tiny-step", "rounded-last-step"])
def test_branch_ends_on_gamma_max(gamma_max, step):
    path = continuation_branch(P_ENDS, gamma_max, step=step)
    assert (batched_ladder(P_ENDS, gamma_max, step=step)
            == scalar_ladder(P_ENDS, gamma_max, step=step))
    assert path.termination == "completed"
    assert len(path.samples) > 1
    assert path.samples[-1].gamma == gamma_max


def test_branch_takes_full_steps_below_the_floor_of_a_far_gamma_max():
    # the floor 1e-12 gamma_max = 0.1 is above every step, which is still
    # tried whole; the branch runs on towards the fold near gamma = 0.667
    path = continuation_branch(P_ENDS, 1e11)
    assert path.termination != "completed"
    assert path.samples[-1].gamma > 0.6


def test_branch_rejects_wrong_regime():
    with pytest.raises(DomainError):
        continuation_branch(make_params(1, 0.4, 5.0, 1, 1, 1.0), gamma_max=1.0)
    with pytest.raises(DomainError):
        continuation_branch(P_SYM, gamma_max=-1.0)
