import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from critsys import regimes
from critsys.algebraic import CouplingSolution, find_k0_l0, find_k0_l0_batch
from critsys.errors import (DomainError, NumericalError,
                            RegimeMismatchError)
from critsys.params import SystemParams, make_params
from critsys.regimes import (ATTAINED_A, ATTAINED_B, LABELS, NEGATIVE_GAMMA,
                             SMALL_GAMMA_CANDIDATE, UNCOVERED, case_of,
                             classify, energy_ordering_check,
                             gamma_threshold_A, gamma_threshold_B,
                             least_energy)

from conftest import case_edge_draws, system_params


# ---------------------------------------------------------------------------
# thresholds (hand-derived oracle values)

def test_threshold_A_symmetric():
    # (4 n s / (n-2s)^2) = 1.6/0.04 = 40; branches both (1/5) * 1 = 0.2
    p = make_params(1, 0.4, 5.0, 1.0, 1.0, 0.0)
    assert gamma_threshold_A(p) == pytest.approx(8.0, abs=1e-12)


def test_threshold_A_asymmetric_min():
    p = make_params(1, 0.4, 5.0, 2.0, 1.0, 0.0)
    assert gamma_threshold_A(p) == pytest.approx(8.0, abs=1e-12)  # mu2 branch
    p2 = make_params(1, 0.4, 5.0, 2.0, 3.0, 0.0)
    assert gamma_threshold_A(p2) == pytest.approx(16.0, abs=1e-12)


def test_threshold_A_requires_wide_exponents():
    with pytest.raises(DomainError):
        gamma_threshold_A(make_params(3, 0.5, 1.5, 1.0, 1.0, 0.0))


def test_threshold_A_with_a_power_beyond_the_float_range():
    # beta 1.4e-14 above 2 and a large alpha: ratio ** ((alpha - 2)/2)
    # overflows a float, and the min is the other term
    p = make_params(1, 0.4877901426882109, 79.90103901005145,
                    1.0189837491644327, 6.53815578476938, 0.09405510392542676)
    ratio = (p.alpha - 2.0) / (p.beta - 2.0)
    front = 4.0 * p.n * p.s / (p.n - 2.0 * p.s) ** 2
    assert gamma_threshold_A(p) \
        == front * (p.mu1 / p.alpha) * ratio ** (0.5 * (p.beta - 2.0))
    assert classify(p).label == ATTAINED_A
    # near n = 2s both powers overflow: with mu = 1 both terms lie beyond
    # the float range, a tiny mu1 brings the first back (its half power,
    # squared in two steps, is the oracle)
    wide = make_params(1, 0.4999, 6000.0, 1.0, 1.0, 0.1)
    assert gamma_threshold_A(wide) == math.inf
    assert classify(wide).label == ATTAINED_A
    small = replace(wide, mu1=1e-300)
    a, b = small.alpha, small.beta
    half = ((a - 2.0) / (b - 2.0)) ** (0.25 * (b - 2.0))
    front = 4.0 * small.n * small.s / (small.n - 2.0 * small.s) ** 2
    assert gamma_threshold_A(small) \
        == pytest.approx(front * (small.mu1 / a * half) * half, rel=1e-12)


def test_threshold_B_symmetric():
    # (4 n s/(n-2s)^2) = 6/4 = 1.5; both branches (1/1.5) = 2/3
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 0.0)
    assert gamma_threshold_B(p) == pytest.approx(1.0, abs=1e-12)


def test_threshold_B_asymmetric_max():
    p = make_params(3, 0.5, 1.5, 2.0, 1.0, 0.0)
    assert gamma_threshold_B(p) == pytest.approx(2.0, abs=1e-12)  # mu1 branch


def test_threshold_B_requires_narrow_exponents():
    with pytest.raises(DomainError):
        gamma_threshold_B(make_params(1, 0.4, 5.0, 1.0, 1.0, 0.0))


def test_thresholds_scale_linearly_in_mu():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.uniform(0.5, 3.0)
        pa = make_params(1, 0.4, 4.0, rng.uniform(0.2, 2), rng.uniform(0.2, 2), 0.0)
        pa_c = make_params(1, 0.4, 4.0, c * pa.mu1, c * pa.mu2, 0.0)
        assert gamma_threshold_A(pa_c) == pytest.approx(
            c * gamma_threshold_A(pa), rel=1e-12)
        pb = make_params(3, 0.5, 1.4, rng.uniform(0.2, 2), rng.uniform(0.2, 2), 0.0)
        pb_c = make_params(3, 0.5, 1.4, c * pb.mu1, c * pb.mu2, 0.0)
        assert gamma_threshold_B(pb_c) == pytest.approx(
            c * gamma_threshold_B(pb), rel=1e-12)


# ---------------------------------------------------------------------------
# classification

def test_classify_negative_gamma():
    assert classify(make_params(3, 0.5, 1.5, 1, 1, -1.0)).label == NEGATIVE_GAMMA
    assert classify(make_params(1, 0.4, 5.0, 1, 1, -0.01)).label == NEGATIVE_GAMMA


def test_classify_threshold_B_inclusive():
    # gamma equal to the threshold counts as attained ("gamma >= ...")
    assert classify(make_params(3, 0.5, 1.5, 1, 1, 1.0)).label == ATTAINED_B
    assert classify(make_params(3, 0.5, 1.5, 1, 1, 1.0 + 1e-12)).label == ATTAINED_B


def test_classify_small_gamma():
    assert classify(make_params(3, 0.5, 1.5, 1, 1, 0.5)).label \
        == SMALL_GAMMA_CANDIDATE
    assert classify(make_params(3, 0.5, 1.5, 1, 1, 1.0 - 1e-12)).label \
        == SMALL_GAMMA_CANDIDATE


def test_classify_threshold_A_inclusive():
    # the comparison is inclusive at the computed float threshold
    thr = gamma_threshold_A(make_params(1, 0.4, 5.0, 1, 1, 0.0))
    assert classify(make_params(1, 0.4, 5.0, 1, 1, thr)).label == ATTAINED_A
    assert classify(make_params(1, 0.4, 5.0, 1, 1, thr * (1 + 1e-12))).label \
        == UNCOVERED
    assert classify(make_params(1, 0.4, 5.0, 1, 1, 0.1)).label == ATTAINED_A


def test_classify_gamma_zero_uncovered():
    regime = classify(make_params(3, 0.5, 1.5, 1, 1, 0.0))
    assert regime.label == UNCOVERED
    assert any("decoupled" in note for note in regime.notes)


def test_classify_mixed_exponents_uncovered():
    # n > 4s but alpha > 2: outside every theorem case for gamma > 0
    assert classify(make_params(5, 0.9, 2.05, 1, 1, 0.7)).label == UNCOVERED


def test_classify_carries_thresholds():
    regime = classify(make_params(3, 0.5, 1.5, 1, 1, 0.5))
    assert regime.gamma_threshold_B == pytest.approx(1.0)
    assert regime.gamma_threshold_A is None
    regime = classify(make_params(1, 0.4, 5.0, 1, 1, 2.0))
    assert regime.gamma_threshold_A == pytest.approx(8.0)
    assert regime.gamma_threshold_B is None


@given(system_params())
@settings(max_examples=300)
def test_classify_total_and_consistent(p):
    regime = classify(p)
    assert regime.label in LABELS
    if regime.label == NEGATIVE_GAMMA:
        assert p.gamma < 0.0
    elif regime.label == ATTAINED_A:
        assert 2 * p.s < p.n < 4 * p.s and p.alpha > 2 and p.beta > 2
        assert 0 < p.gamma <= regime.gamma_threshold_A
    elif regime.label == ATTAINED_B:
        assert p.n > 4 * p.s and 1 < p.alpha < 2 and 1 < p.beta < 2
        assert p.gamma >= regime.gamma_threshold_B > 0
    elif regime.label == SMALL_GAMMA_CANDIDATE:
        assert p.n > 4 * p.s and 1 < p.alpha < 2 and 1 < p.beta < 2
        assert 0 < p.gamma < regime.gamma_threshold_B


def _inline_case(p):
    """The case split as the solver, the ratio reduction, the slope
    diagnostics and continuation each wrote it before `case_of`."""
    a, b = p.alpha, p.beta
    if 2.0 * p.s < p.n < 4.0 * p.s and a > 2.0 and b > 2.0:
        return "A"
    if p.n > 4.0 * p.s and 1.0 < a < 2.0 and 1.0 < b < 2.0:
        return "B"
    return None


def _inline_classify(p):
    """classify as it was written before `case_of`: the thresholds gated by
    the bare alpha, beta tests, the labels by the n-vs-s windows."""
    a, b = p.alpha, p.beta
    notes, thr_a, thr_b = [], None, None
    if a > 2.0 and b > 2.0:
        thr_a = gamma_threshold_A(p)
        notes.append("alpha, beta > 2 forces 2s < n < 4s (strict upper window)")
    if a < 2.0 and b < 2.0:
        thr_b = gamma_threshold_B(p)
    if p.gamma < 0.0:
        label = NEGATIVE_GAMMA
    elif p.gamma == 0.0:
        label = UNCOVERED
        notes.append("gamma = 0 is the decoupled continuation base point")
    elif (thr_a is not None and 2.0 * p.s < p.n < 4.0 * p.s
          and p.gamma <= thr_a):
        label = ATTAINED_A
    elif thr_b is not None and p.n > 4.0 * p.s:
        label = ATTAINED_B if p.gamma >= thr_b else SMALL_GAMMA_CANDIDATE
    else:
        label = UNCOVERED
    return label, thr_a, thr_b, tuple(notes)


def _classify_fields(p):
    regime = classify(p)
    return (regime.label, regime.gamma_threshold_A, regime.gamma_threshold_B,
            regime.notes)


def _outcome(fn, p):
    """fn(p), or the type and arguments of what it raised."""
    try:
        return fn(p)
    except Exception as exc:
        return type(exc), exc.args


def test_case_of_makes_the_inline_decisions():
    draws = case_edge_draws(np.random.default_rng(20), 100_000)
    assert sum(edge for _, edge in draws) >= len(draws) // 3
    cases = {}
    for p, edge in draws:
        case = case_of(p)
        assert case == _inline_case(p), p
        # curve_diagnostics tested 2* < 4, then the bare alpha, beta window
        slopes = 1.0 < p.alpha < 2.0 and 1.0 < p.beta < 2.0
        if p.two_star < 4.0:
            assert slopes == (case == "B"), p
        assert _outcome(_classify_fields, p) \
            == _outcome(_inline_classify, p), p
        cases[case, edge] = cases.get((case, edge), 0) + 1
    # both cases and neither, each among plain and edge draws
    assert len(cases) == 6 and min(cases.values()) > 1000, cases


def test_case_of_keeps_the_n_versus_s_windows():
    # alpha + beta = 2* and beta > 1 make the windows and the lower bounds
    # redundant for make_params; a hand-built set with wide or narrow
    # exponents on the wrong side of n = 4s, or an exponent of 1, is in
    # neither case
    wide = SystemParams(5, 0.9, 2.5, 2.5, 1.0, 1.0, 0.1)
    narrow = SystemParams(3, 0.9, 1.5, 1.5, 1.0, 1.0, 0.1)
    for p in (wide, narrow):
        assert _inline_case(p) is None and case_of(p) is None
        regime = classify(p)
        assert regime.label == UNCOVERED
        assert regime.gamma_threshold_A is regime.gamma_threshold_B is None
    assert case_of(replace(wide, n=3)) == "A"
    assert case_of(replace(narrow, n=5)) == "B"
    assert case_of(replace(narrow, n=5, alpha=1.0)) is None
    assert case_of(replace(narrow, n=5, beta=1.0)) is None


# ---------------------------------------------------------------------------
# least energy

def test_least_energy_negative_gamma_formula():
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, -1.0)
    report = least_energy(p)
    assert report.dimensionless_A == pytest.approx(1.25, abs=1e-15)
    assert not report.attained and report.minimizer_coeffs is None


def test_least_energy_negative_gamma_does_not_classify(monkeypatch):
    def refuse(params):
        raise AssertionError("classify called at gamma < 0")

    monkeypatch.setattr(regimes, "classify", refuse)
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, -1.0)
    assert least_energy(p).dimensionless_A == pytest.approx(1.25, abs=1e-15)


def test_least_energy_negative_gamma_symmetric():
    mu = 1.7
    p = make_params(3, 0.5, 1.5, mu, mu, -0.3)
    assert least_energy(p).dimensionless_A \
        == pytest.approx(2.0 * mu ** -2.0, rel=1e-15)


def test_least_energy_attained_uses_solution():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
    sol = find_k0_l0(p)
    report = least_energy(p, solution=sol)
    assert report.attained
    assert report.dimensionless_A == pytest.approx(8.0 / 9.0, abs=1e-9)
    assert report.minimizer_coeffs == (sol.k, sol.l)


def test_least_energy_attained_closed_form_match():
    # interior of the B regime, unique root: k0 + l0 = 2 (mu + gamma/2)^(-2)
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 2.0)
    report = least_energy(p, solution=find_k0_l0(p))
    assert report.dimensionless_A == pytest.approx(0.5, abs=1e-10)


def test_least_energy_requires_solution_when_attained():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        least_energy(p)


def test_least_energy_regime_mismatch():
    with pytest.raises(RegimeMismatchError):
        least_energy(make_params(3, 0.5, 1.5, 1, 1, 0.5))
    with pytest.raises(RegimeMismatchError):
        least_energy(make_params(3, 0.5, 1.5, 1, 1, 0.0))


def test_least_energy_absolute_value():
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, -1.0)
    S = 2.7
    report = least_energy(p, S_s=S)
    # (s/n) * value * S^(n/2s) = (1/6) * 1.25 * 2.7^3
    assert report.absolute_A == pytest.approx(1.25 / 6.0 * 2.7 ** 3, rel=1e-14)


def test_single_mode_overflow_is_numerical_error():
    # d = (n-2s)/(2s) = 155.25 makes 0.0016^(-d) overflow a float
    p = make_params(5, 0.016, 1.005, 1.6e-3, 1.0, -1.0)
    with pytest.raises(NumericalError, match="overflows"):
        least_energy(p)
    with pytest.raises(NumericalError, match="overflows"):
        energy_ordering_check(p, 1.0, 1.0)


def test_negative_gamma_energy_decreasing_in_mu():
    rng = np.random.default_rng(1)
    for _ in range(30):
        mu1, mu2 = rng.uniform(0.2, 5.0, 2)
        bump = rng.uniform(0.01, 1.0)
        p = make_params(3, 0.5, 1.5, mu1, mu2, -1.0)
        p_up1 = make_params(3, 0.5, 1.5, mu1 + bump, mu2, -1.0)
        p_up2 = make_params(3, 0.5, 1.5, mu1, mu2 + bump, -1.0)
        base = least_energy(p).dimensionless_A
        assert least_energy(p_up1).dimensionless_A < base
        assert least_energy(p_up2).dimensionless_A < base


# ---------------------------------------------------------------------------
# ordering certificate

def test_ordering_boundary_is_strict():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 0.5)
    assert energy_ordering_check(p, 0.5, 0.5) is False  # sum equals the min
    assert energy_ordering_check(p, 0.6, 0.6) is True   # 1.2 > 1


def test_ordering_at_continuation_base_point():
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, 0.1)
    k0, l0 = 1.0, 0.25  # decoupled pair; sum exceeds min(1, 0.25)
    assert energy_ordering_check(p, k0, l0) is True


def test_ordering_rejects_nonpositive():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        energy_ordering_check(p, 0.0, 1.0)


def test_ordering_splits_the_attained_cases_over_the_box(attained_whole_box):
    # the paper's energy structure: in case A the minimizer's k + l lies
    # above the cheaper single-mode level, in case B below it
    ordering = {ATTAINED_A: [], ATTAINED_B: []}
    for p, label, sol in attained_whole_box:
        if isinstance(sol, CouplingSolution):
            ordering[label].append(energy_ordering_check(p, sol.k, sol.l))
    assert len(ordering[ATTAINED_A]) >= 94 and all(ordering[ATTAINED_A])
    assert len(ordering[ATTAINED_B]) >= 326 and not any(ordering[ATTAINED_B])


def test_least_energy_falls_with_gamma(attained_whole_box):
    # F1 and F2 rise with gamma at every k, l > 0, so the set where both are
    # nonnegative grows with gamma, and its least k + l cannot rise
    solved = [(p, label, sol) for p, label, sol in attained_whole_box
              if isinstance(sol, CouplingSolution)]
    raised = find_k0_l0_batch([p.replace_gamma(1.01 * p.gamma)
                               for p, _, _ in solved])
    falls = {ATTAINED_A: [], ATTAINED_B: []}
    for (_, label, sol), up in zip(solved, raised):
        if isinstance(up, CouplingSolution):
            falls[label].append(up.k + up.l < sol.k + sol.l)
    assert len(falls[ATTAINED_A]) >= 94 and all(falls[ATTAINED_A])
    assert len(falls[ATTAINED_B]) >= 326 and all(falls[ATTAINED_B])
