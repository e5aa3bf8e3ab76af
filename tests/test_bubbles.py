import hashlib
import math

import numpy as np
import pytest

from critsys.bubbles import (BubbleSpec, bubble_critical_norm, bubble_eval,
                             bubble_field, ground_state_amplitude,
                             normalized_bubble_field, rayleigh_quotient,
                             residual_study, shape_integral,
                             sobolev_constant_closed_form,
                             sobolev_constant_spectral)
from critsys.errors import DomainError, NumericalError, ResolutionError
from critsys.params import make_params
from critsys.spectral import integrate

P3 = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
P1 = make_params(1, 0.4, 5.0, 1.0, 1.0, 8.0)
P2 = make_params(2, 0.3, 1.2, 1.0, 1.0, 0.0)

# frozen from a 50-digit Gamma-function evaluation (mpmath):
# 2^(2s) pi^s G((n+2s)/2)/G((n-2s)/2) (G(n/2)/G(n))^(2s/n) at n=3, s=1/2
S3_REFERENCE = 2.7025676900634943

#: sha256 of the little-endian float64 samples of
#: normalized_bubble_field(P3, BubbleSpec(0.7, (0.5, -1.0, 0.25), kappa=-2.0),
#: S, 16, 3.0) with S the closed-form constant (numpy 2.4.6, x86-64)
NORMALIZED_FIELD_SHA256 = \
    "9ccec3e56ab318cd29be9f442d82565bd882c7415f177b2c29ea8a5f840cbc09"


# ---------------------------------------------------------------------------
# bubble profile

def test_center_value():
    spec = BubbleSpec(epsilon=0.5, center=(0.0, 0.0, 0.0), kappa=2.0)
    # value at the center is kappa * eps^(-(n-2s))
    assert bubble_eval(spec, P3, (0.0, 0.0, 0.0)) \
        == pytest.approx(2.0 * 0.5 ** -2.0, rel=1e-15)


def test_unit_distance_value():
    spec = BubbleSpec(epsilon=1.0, center=(0.0, 0.0, 0.0))
    assert bubble_eval(spec, P3, (1.0, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_scalar_point_in_one_dimension_gives_a_float():
    p = make_params(1, 0.4, 5.0, 1.0, 1.0, 1.0)  # decay (n - 2s)/2 = 0.1
    value = bubble_eval(BubbleSpec(epsilon=1.0, center=(0.0,)), p, 0.5)
    assert type(value) is float
    assert value == pytest.approx(1.25 ** -0.1, rel=1e-15)


def test_scaling_identity_random_points():
    rng = np.random.default_rng(2)
    lam = 1.7
    spec1 = BubbleSpec(epsilon=1.0, center=(0.0, 0.0, 0.0))
    spec2 = BubbleSpec(epsilon=lam, center=(0.0, 0.0, 0.0))
    pts = rng.uniform(-3, 3, size=(100, 3))
    decay = P3.n - 2 * P3.s
    lhs = bubble_eval(spec2, P3, lam * pts)
    rhs = lam ** -decay * bubble_eval(spec1, P3, pts)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-14


def test_radial_decrease():
    spec = BubbleSpec(epsilon=1.0, center=(0.5,))
    xs = np.linspace(0.5, 4.0, 50).reshape(-1, 1)
    vals = bubble_eval(spec, P1, xs)
    assert np.all(np.diff(vals) < 0.0)


def test_bubble_spec_validation():
    with pytest.raises(DomainError):
        BubbleSpec(epsilon=0.0, center=(0.0,))
    with pytest.raises(DomainError):
        BubbleSpec(epsilon=1.0, center=(0.0,), kappa=0.0)


def test_bubble_spec_rejects_scale_with_overflowing_square():
    # eps^2 enters every sample; an eps whose square leaves the float range
    # (about 1.34e154 and up) is a domain error, not a raw OverflowError
    assert BubbleSpec(epsilon=1.3e154, center=(0.0,)).epsilon == 1.3e154
    for eps in (1.4e154, 1e300, math.inf):
        with pytest.raises(DomainError) as info:
            BubbleSpec(epsilon=eps, center=(0.0,))
        assert info.value.constraint == "epsilon"


def test_dimension_mismatch():
    spec = BubbleSpec(epsilon=1.0, center=(0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        bubble_eval(spec, P3, (1.0, 2.0))


# ---------------------------------------------------------------------------
# grid sampler

@pytest.mark.parametrize("p", [P1, P2, P3], ids=["n1", "n2", "n3"])
def test_bubble_field_equals_pointwise_definition(p):
    # off-centre, negative amplitude: the grid sample is the pointwise
    # definition at every grid point, bit for bit
    spec = BubbleSpec(0.7, (0.5, -1.0, 0.25)[:p.n], kappa=-2.0)
    N, L = 16, 3.0
    x = -L + (2.0 * L / N) * np.arange(N)
    pts = np.stack(np.meshgrid(*[x] * p.n, indexing="ij"), axis=-1)
    field = bubble_field(spec, p, N, L)
    assert field.values.shape == (N,) * p.n
    assert np.array_equal(field.values, bubble_eval(spec, p, pts))


def test_normalized_bubble_field_golden_digest():
    S = sobolev_constant_closed_form(P3).value
    U = normalized_bubble_field(
        P3, BubbleSpec(0.7, (0.5, -1.0, 0.25), kappa=-2.0), S, 16, 3.0)
    digest = hashlib.sha256(U.values.astype("<f8").tobytes()).hexdigest()
    assert digest == NORMALIZED_FIELD_SHA256


# ---------------------------------------------------------------------------
# closed-form constant

def test_closed_form_reference_value():
    S = sobolev_constant_closed_form(P3)
    assert S.method == "closed_form" and S.est_error == 0.0
    assert S.value == pytest.approx(S3_REFERENCE, rel=1e-14)
    assert S.value == pytest.approx(2.7025, abs=1e-4)


def test_closed_form_positive_and_finite_across_s():
    for s in (0.3, 0.5, 0.7):
        p = make_params(3, s, 1.1, 1.0, 1.0, 0.0)
        v = sobolev_constant_closed_form(p).value
        assert 0.0 < v < math.inf


def test_closed_form_low_dimension():
    v = sobolev_constant_closed_form(P1).value
    assert 0.0 < v < math.inf


def test_closed_forms_past_the_gamma_range_are_numerical_errors():
    # Gamma(n) leaves the float range above n = 171: each closed form
    # raises the error the CLI reports, not a bare OverflowError
    p = make_params(200, 0.5, 200.0 / 199.0, 1.0, 1.0, 0.0)
    spec = BubbleSpec(1.0, (0.0,) * p.n)
    for call in (lambda: shape_integral(p.n),
                 lambda: sobolev_constant_closed_form(p),
                 lambda: ground_state_amplitude(p, spec, 1.0),
                 lambda: bubble_critical_norm(spec, p)):
        with pytest.raises(NumericalError) as info:
            call()
        assert (info.value.constraint, info.value.value) == ("overflow", 200)
    p171 = make_params(171, 0.5, 171.0 / 170.0, 1.0, 1.0, 0.0)
    assert 0.0 < sobolev_constant_closed_form(p171).value < math.inf
    assert 0.0 < shape_integral(171) < math.inf


# ---------------------------------------------------------------------------
# spectral estimate

def test_spectral_matches_closed_form_cheap():
    # mid-size grid: a couple of percent is expected, the acceptance suite
    # runs the full configuration at 1%
    est = sobolev_constant_spectral(P3, L=20.0, N=64)
    closed = sobolev_constant_closed_form(P3).value
    assert abs(est.value - closed) / closed <= 0.05
    assert est.method == "spectral_estimate"
    assert est.est_error <= 0.1 * est.value


def test_spectral_low_dimension_cross_check():
    # n = 2, s = 0.3 decays fast enough to pass the tail guard; low
    # dimensions stay truncation dominated, hence the loose tolerance
    p2 = make_params(2, 0.3, 1.2, 1.0, 1.0, 0.0)
    est = sobolev_constant_spectral(p2, L=30.0, N=128)
    closed = sobolev_constant_closed_form(p2).value
    assert 0.0 < est.value < math.inf
    assert abs(est.value - closed) / closed <= 0.1


def test_spectral_slow_decay_reports_resolution_error():
    # at n = 1, s = 0.4 the profile decays like r^(-0.2): the box-doubling
    # estimate honestly reports that no moderate box is trustworthy
    from critsys.errors import ResolutionError

    with pytest.raises(ResolutionError):
        sobolev_constant_spectral(P1, L=60.0, N=512)


def test_quotient_with_underflowed_critical_norm_is_resolution_error():
    # a bubble of scale 1e100 is about 1e-200 on the box: its critical
    # power integral underflows to zero
    f = bubble_field(BubbleSpec(1e100, (0.0,) * 3), P3, 16, 10.0)
    with pytest.raises(ResolutionError):
        rayleigh_quotient(P3, f)


def test_quotient_amplitude_invariance():
    f = bubble_field(BubbleSpec(1.0, (0.0,) * 3), P3, 64, 20.0)
    qa = rayleigh_quotient(P3, f)
    qb = rayleigh_quotient(P3, f.like(2.0 * f.values))
    assert abs(qa - qb) / qa <= 1e-12


def test_quotient_eps_rescaling_stability():
    q1 = rayleigh_quotient(P3, bubble_field(BubbleSpec(1.0, (0.0,) * 3), P3, 64, 20.0))
    q2 = rayleigh_quotient(P3, bubble_field(BubbleSpec(2.0, (0.0,) * 3), P3, 64, 20.0))
    assert abs(q1 - q2) / q1 <= 0.05


def test_est_error_shrinks_when_box_grows_at_fixed_h():
    e1 = sobolev_constant_spectral(P3, L=10.0, N=32).est_error
    e2 = sobolev_constant_spectral(P3, L=20.0, N=64).est_error
    assert e2 <= e1 * 1.1  # non-increase within 10% noise


def test_est_error_tracks_true_gap_within_small_factor():
    # the box-doubling bar is a same-order estimate, not a rigorous bound:
    # depending on the configuration it lands on either side of the true
    # gap, but stays within a small factor of it (2.3x at the acceptance
    # grid, 0.35x on coarser ones)
    closed = sobolev_constant_closed_form(P3).value
    for L, N in ((20.0, 64), (30.0, 128)):
        est = sobolev_constant_spectral(P3, L=L, N=N)
        gap = abs(est.value - closed)
        assert gap <= 3.0 * est.est_error
        assert est.est_error <= 3.0 * gap


def test_quotient_scale_invariance():
    # scaling box, spacing and bubble width together maps the discrete
    # quotient onto itself exactly (criticality of the exponent)
    a = sobolev_constant_spectral(P3, L=15.0, N=64).value
    b = sobolev_constant_spectral(P3, L=20.0, N=64).value
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# normalization

def test_critical_norm_closed_form_vs_quadrature():
    spec = BubbleSpec(epsilon=1.0, center=(0.0,) * 3, kappa=1.3)
    closed = bubble_critical_norm(spec, P3)
    f = bubble_field(spec, P3, 128, 30.0)
    quad = integrate(f.like(np.abs(f.values) ** P3.two_star)) ** (1 / P3.two_star)
    assert quad == pytest.approx(closed, rel=1e-3)


def test_normalized_bubble_discrete_mass():
    S = sobolev_constant_closed_form(P3).value
    U = normalized_bubble_field(P3, BubbleSpec(1.0, (0.0,) * 3), S, 128, 30.0)
    ratio = integrate(U.like(U.values ** P3.two_star)) / S ** (P3.n / (2 * P3.s))
    assert 0.97 <= ratio <= 1.03


def test_normalized_bubble_positive_and_symmetric():
    S = sobolev_constant_closed_form(P3).value
    U = normalized_bubble_field(P3, BubbleSpec(1.0, (0.0,) * 3), S, 32, 10.0)
    assert np.all(U.values > 0.0)
    # radial symmetry about the center on the grid: x -> -x up to the
    # half-open grid (drop the unpaired leftmost plane)
    v = U.values[1:, 1:, 1:]
    assert np.max(np.abs(v - v[::-1, ::-1, ::-1])) <= 1e-14


def test_normalization_is_kappa_independent():
    S = sobolev_constant_closed_form(P3).value
    U_a = normalized_bubble_field(
        P3, BubbleSpec(1.0, (0.5, -1.0, 0.25), kappa=2.0), S, 16, 3.0)
    U_b = normalized_bubble_field(
        P3, BubbleSpec(1.0, (0.5, -1.0, 0.25), kappa=5.0), S, 16, 3.0)
    assert np.max(np.abs(U_a.values - U_b.values)) <= 1e-12


def test_shape_integral_against_quadrature():
    # independent check of the closed form int (1+|z|^2)^(-n) dz in 1d
    from scipy.integrate import quad

    val, _ = quad(lambda r: (1 + r * r) ** -1.0, -np.inf, np.inf)
    assert shape_integral(1) == pytest.approx(val, rel=1e-10)


def test_residual_study_flags_truncation_limited_level():
    # well resolved but tightly boxed: doubling the box moves the core
    # residual by more than half, so the first level is flagged
    rows = residual_study(P3, L=7.5, N=32, eps=1.0, doublings=1)
    assert len(rows) == 2
    (L1, N1, rep1), (L2, N2, rep2) = rows
    assert (L2, N2) == (15.0, 64)
    assert rep2.rel_l2_core < rep1.rel_l2_core
    assert rep1.truncation_flag
    assert not rep2.truncation_flag  # last level has no comparison
