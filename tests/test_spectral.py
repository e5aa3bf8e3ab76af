import numpy as np
import pytest

from critsys import spectral
from critsys.bubbles import (BubbleSpec, normalized_bubble_field,
                             sobolev_constant_closed_form)
from critsys.errors import DomainError, ResolutionError
from critsys.params import make_params
from critsys.spectral import (GridField, core_window, dump_field,
                              frac_laplacian, integrate, load_field,
                              pde_residual_single, pde_residual_system,
                              seminorm)

P3 = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
S3 = sobolev_constant_closed_form(P3).value


def small_bubble_grid(params=P3, N=64, L=20.0, eps=1.0):
    spec = BubbleSpec(epsilon=eps, center=(0.0,) * params.n)
    return normalized_bubble_field(params, spec, S3, N, L)


# ---------------------------------------------------------------------------
# GridField basics

def test_gridfield_validation():
    with pytest.raises(DomainError):
        GridField(4, 8, 1.0, np.zeros(8 ** 4))
    with pytest.raises(DomainError):
        GridField(1, 12, 1.0, np.zeros(12))  # not a power of two
    with pytest.raises(DomainError):
        GridField(1, 8, -1.0, np.zeros(8))
    with pytest.raises(DomainError):
        GridField(1, 8, 1.0, np.zeros(9))
    with pytest.raises(DomainError):
        GridField(1, 8, 1.0, np.full(8, np.nan))
    g = GridField(2, 8, 2.0, np.zeros(64))
    assert g.h == pytest.approx(0.5)
    assert g.values.shape == (8, 8)


def test_gridfield_refuses_an_infinite_box():
    # at L = inf the axis is all nan and the core window empty
    with pytest.raises(DomainError) as info:
        GridField(3, 8, np.inf, np.zeros(8 ** 3))
    assert (info.value.constraint, info.value.value) == ("finite", np.inf)


def test_axis_contains_origin():
    g = GridField(1, 8, 2.0, np.zeros(8))
    assert 0.0 in g.axis()


# ---------------------------------------------------------------------------
# fractional Laplacian

def test_constant_field_maps_to_zero():
    g = GridField(2, 32, 5.0, np.full(32 * 32, 3.7))
    out = frac_laplacian(g, 0.5)
    assert np.max(np.abs(out.values)) <= 1e-14


def test_cosine_eigenfunction():
    N, L, s = 64, 5.0, 0.3
    x = -L + 2 * L / N * np.arange(N)
    g = GridField(1, N, L, np.cos(np.pi * x / L))
    out = frac_laplacian(g, s)
    expected = (np.pi / L) ** (2 * s) * g.values
    assert np.max(np.abs(out.values - expected)) <= 1e-13


def test_linearity_on_random_fields():
    rng = np.random.default_rng(3)
    a = GridField(2, 64, 10.0, rng.standard_normal(64 * 64))
    b = GridField(2, 64, 10.0, rng.standard_normal(64 * 64))
    s = 0.6
    combo = frac_laplacian(a.like(2.0 * a.values + 3.0 * b.values), s).values
    split = 2.0 * frac_laplacian(a, s).values + 3.0 * frac_laplacian(b, s).values
    scale = np.max(np.abs(split))
    assert np.max(np.abs(combo - split)) / scale <= 1e-12


def test_positive_semidefinite_and_plancherel():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = GridField(1, 64, 3.0, rng.standard_normal(64))
        s = rng.uniform(0.1, 0.9)
        quad = g.h * np.sum(g.values * frac_laplacian(g, s).values)
        assert quad >= -1e-12
        sn = seminorm(g, s)
        assert abs(quad - sn) <= 1e-10 * max(sn, 1e-30)


def test_s_equals_one_matches_second_differences():
    rng = np.random.default_rng(9)
    L = 5.0
    errs = []
    for N in (64, 128):
        x = -L + 2 * L / N * np.arange(N)
        v = np.zeros(N)
        for m in range(1, 5):
            v += rng.standard_normal() * np.cos(np.pi * m * x / L)
            v += rng.standard_normal() * np.sin(np.pi * m * x / L)
        g = GridField(1, N, L, v)
        spec1 = frac_laplacian(g, 1.0).values
        fd = -(np.roll(v, -1) - 2 * v + np.roll(v, 1)) / g.h ** 2
        errs.append(np.max(np.abs(spec1 - fd)) / np.max(np.abs(spec1)))
    assert errs[0] <= 0.05
    assert errs[0] / errs[1] >= 3.0  # second-order shrinkage


def complex_reference(field, s):
    """frac_laplacian values and seminorm through full complex transforms."""
    xi = (np.pi / field.L) * np.fft.fftfreq(field.N, d=1.0 / field.N)
    grids = np.meshgrid(*[xi] * field.n, indexing="ij")
    mult = sum(g ** 2 for g in grids) ** s
    hat = np.fft.fftn(field.values)
    lap = np.fft.ifftn(mult * hat).real
    norm = field.h ** field.n / field.N ** field.n \
        * np.sum(mult * np.abs(hat) ** 2)
    return lap, norm


@pytest.mark.parametrize("s", [0.05, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_transforms_match_complex_reference(n, s):
    rng = np.random.default_rng(100 * n + int(100 * s))
    for N in (2, 4, 8, 16, 32, 64):
        g = GridField(n, N, rng.uniform(0.5, 20.0),
                      rng.standard_normal(N ** n))
        lap, norm = complex_reference(g, s)
        got = frac_laplacian(g, s).values
        assert np.max(np.abs(got - lap)) <= 1e-14 * np.max(np.abs(lap))
        assert abs(seminorm(g, s) - norm) <= 1e-14 * norm


def test_cached_multiplier_and_window_are_read_only_and_keyed():
    mult = spectral._half_multiplier(2, 8, 3.0, 0.5)
    assert mult.shape == (8, 5)  # bins 0..N/2 on the last axis
    assert spectral._half_multiplier(2, 8, 3.0, 0.5) is mult
    for other in (spectral._half_multiplier(2, 8, 4.0, 0.5),
                  spectral._half_multiplier(2, 8, 3.0, 0.6)):
        assert not np.array_equal(other, mult)
    with pytest.raises(ValueError):
        mult[1, 1] = 0.0
    win = core_window(GridField(2, 8, 3.0, np.zeros(64)))
    with pytest.raises(ValueError):
        win[0, 0] = True


def test_s_out_of_range():
    g = GridField(1, 8, 1.0, np.zeros(8))
    with pytest.raises(DomainError):
        frac_laplacian(g, 1.2)
    with pytest.raises(DomainError):
        frac_laplacian(g, 0.0)


# ---------------------------------------------------------------------------
# PDE residuals

def test_single_residual_small_on_decent_grid():
    U = small_bubble_grid()
    rep = pde_residual_single(P3, U)
    assert rep.rel_l2_core <= 5e-2
    assert rep.rel_sup_core <= 0.1
    assert rep.truncation_flag is False


def test_system_matches_single_at_solution():
    from critsys.algebraic import find_k0_l0

    U = small_bubble_grid()
    single = pde_residual_single(P3, U)
    sol = find_k0_l0(P3)
    rep1, rep2 = pde_residual_system(P3, sol.k, sol.l, U)
    assert rep1.rel_l2_core == pytest.approx(single.rel_l2_core, rel=1e-10)
    assert rep2.rel_l2_core == pytest.approx(single.rel_l2_core, rel=1e-10)


def test_system_residual_grows_with_perturbed_k():
    from critsys.algebraic import eval_F1, eval_F2, find_k0_l0

    U = small_bubble_grid()
    sol = find_k0_l0(P3)
    base1, base2 = pde_residual_system(P3, sol.k, sol.l, U)
    pert1, pert2 = pde_residual_system(P3, 1.1 * sol.k, sol.l, U)
    assert pert1.rel_l2_core > base1.rel_l2_core
    assert pert2.rel_l2_core != base2.rel_l2_core
    # growth tracks the algebraic defect
    assert abs(eval_F1(P3, 1.1 * sol.k, sol.l)) > 0.01
    assert pert1.rel_l2_core > 0.5 * abs(eval_F1(P3, 1.1 * sol.k, sol.l))


def test_system_decoupled_reduces_to_single():
    p = make_params(3, 0.5, 1.5, 1.0, 2.0, 0.0)
    U = small_bubble_grid(p)
    single = pde_residual_single(p, U)
    k = 1.0          # mu1^(-2/(2*-2))
    l = 2.0 ** -2.0  # mu2^(-2/(2*-2))
    rep1, rep2 = pde_residual_system(p, k, l, U)
    assert rep1.rel_l2_core == pytest.approx(single.rel_l2_core, rel=1e-10)
    assert rep2.rel_l2_core == pytest.approx(single.rel_l2_core, rel=1e-10)


def test_residual_rejects_nonpositive_coefficients():
    U = small_bubble_grid()
    with pytest.raises(DomainError):
        pde_residual_system(P3, 0.0, 1.0, U)


def test_unusable_grid_raises_resolution_error():
    # bubble width far below the grid spacing: nothing is resolved
    U = small_bubble_grid(N=16, L=40.0, eps=0.05)
    with pytest.raises(ResolutionError):
        pde_residual_single(P3, U)


def test_residual_stable_under_eps_rescaling():
    # on a well-resolved grid, doubling the bubble scale moves the core
    # residual by less than a factor two either way (criticality; the
    # loose bound absorbs discretization)
    a = pde_residual_single(P3, small_bubble_grid(N=128, L=30.0, eps=1.0))
    b = pde_residual_single(P3, small_bubble_grid(N=128, L=30.0, eps=2.0))
    ratio = b.rel_l2_core / a.rel_l2_core
    assert 0.5 <= ratio <= 2.0


def test_core_window_radius():
    g = GridField(1, 64, 8.0, np.zeros(64))
    win = core_window(g)
    xs = g.axis()
    assert np.array_equal(win, np.abs(xs) <= 1.0)


def test_cached_core_window_equals_radius_test():
    for n, N, L, fraction in [(1, 64, 8.0, 0.125), (2, 32, 5.0, 0.3),
                              (3, 16, 4.0, 0.125), (3, 16, 4.0, 0.5),
                              (3, 32, 6.0, 0.125)]:
        g = GridField(n, N, L, np.zeros(N ** n))
        for _ in range(2):  # built, then from the cache
            assert np.array_equal(core_window(g, fraction),
                                  g.radius_sq() <= (fraction * L) ** 2)


# ---------------------------------------------------------------------------
# dump format

def test_dump_roundtrip_and_header(tmp_path):
    U = small_bubble_grid(N=16, L=4.0, eps=0.5)
    path = tmp_path / "field.bin"
    dump_field(U, P3.s, str(path))
    raw = path.read_bytes()
    assert raw[:8] == b"CRITSYS1"
    assert len(raw) == 32 + 8 * 16 ** 3
    n = int.from_bytes(raw[8:12], "little")
    N = int.from_bytes(raw[12:16], "little")
    assert (n, N) == (3, 16)
    back, s_back = load_field(str(path))
    assert s_back == P3.s
    assert back.L == U.L and back.N == U.N and back.n == U.n
    assert np.array_equal(back.values, U.values)


@pytest.mark.parametrize("size", [20, 32 + 8 * 100, 32 + 8 * 16 ** 3 - 3],
                         ids=["header", "body", "partial-value"])
def test_load_rejects_truncated_dump(tmp_path, size):
    path = tmp_path / "field.bin"
    dump_field(small_bubble_grid(N=16, L=4.0, eps=0.5), P3.s, str(path))
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(DomainError):
        load_field(str(path))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 24)
    with pytest.raises(DomainError):
        load_field(str(path))
