import struct

import numpy as np
import pytest

from critsys import spectral
from critsys.bubbles import (BubbleSpec, _distinct_bubble, bubble_field,
                             normalized_bubble_field, rayleigh_quotient,
                             sobolev_constant_closed_form)
from critsys.errors import DomainError, ResolutionError
from critsys.params import make_params
from critsys.spectral import (GridField, dump_field, frac_laplacian,
                              integrate, load_field, pde_residual_single,
                              pde_residual_system, seminorm)

P3 = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
S3 = sobolev_constant_closed_form(P3).value


def small_bubble_grid(params=P3, N=64, L=20.0, eps=1.0):
    spec = BubbleSpec(epsilon=eps, center=(0.0,) * params.n)
    return normalized_bubble_field(params, spec, S3, N, L)


def window_mask(n, N, L):
    """The residuals' core window |x|^2 <= (L/8)^2 on the full (N,)*n grid,
    the x_d^2 added in axis order."""
    x = -L + 2.0 * L / N * np.arange(N)
    grids = np.meshgrid(*[x] * n, indexing="ij")
    return sum(g ** 2 for g in grids) <= (L / 8) ** 2


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
    assert 0.0 in spectral._axis(8, 2.0)


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


#: one admissible (n, s) per dimension, for sampling bubbles
BUBBLE_PARAMS = {1: make_params(1, 0.4, 5.0, 1.0, 1.0, 8.0),
                 2: make_params(2, 0.3, 1.2, 1.0, 1.0, 0.0), 3: P3}


def half_multiplier(n, N, L, s):
    """The cached multiplier expanded onto the half spectrum that `rfftn`
    returns for an (N,)*n grid."""
    mult, mirror = spectral._mirror_multiplier(n, N, L, s)
    return spectral._expand(mult, (mirror,) * (n - 1) + (None,))


def random_and_bubble_fields(rng, n, N, L):
    """A random grid field and a bubble whose box reduces every axis, the
    first one too, so that the first-axis stage expands it block by block."""
    bubble = bubble_field(BubbleSpec(rng.uniform(0.5, 2.0), (0.0,) * n),
                          BUBBLE_PARAMS[n], N, L)
    assert bubble.maps[0] is not None and len(bubble.maps[0]) == N
    return [GridField(n, N, L, rng.standard_normal(N ** n)), bubble]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transform_on_a_box_is_numpys_out_of_place_transform(n):
    # bit for bit: the in-place stages, the blocks of box rows and of
    # axis-1 columns and the cropping after each stage change which values
    # are computed, not how.  At N = 128 a bubble's 65 box rows and, in 2-D,
    # its 65 columns end in a block of one
    rng = np.random.default_rng(40 + n)
    L, s = 6.0, 0.37
    for N in (32, 128):
        core, _ = spectral._core_box(n, N, L)
        off_centre = (slice(2, 9), slice(20, 32), slice(0, 5))[:n]
        mult = half_multiplier(n, N, L, s)
        for g in random_and_bubble_fields(rng, n, N, L):
            full = np.fft.irfftn(np.fft.rfftn(g.values) * mult,
                                 s=g.values.shape, axes=range(n))
            for box in (core, off_centre):
                assert np.array_equal(spectral._frac_laplacian_on(g, s, box),
                                      full[box])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_and_seminorm_are_numpys_out_of_place_calls(n):
    rng = np.random.default_rng(50 + n)
    for N in (8, 32, 128):
        L, s = rng.uniform(0.5, 20.0), rng.uniform(0.05, 1.0)
        mult = half_multiplier(n, N, L, s)
        for g in random_and_bubble_fields(rng, n, N, L):
            hat = np.fft.rfftn(g.values)
            assert np.array_equal(frac_laplacian(g, s).values,
                                  np.fft.irfftn(hat * mult, s=g.values.shape,
                                                axes=range(n)))
            power = mult * np.abs(hat) ** 2
            assert seminorm(g, s) == g.h ** n / N ** n * float(
                np.sum(power) + np.sum(power[..., 1:-1]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_transform_is_numpys_rfftn_bit_for_bit(n):
    # each axis is expanded just before its own stage, so the early stages
    # transform the box's lines; the spectrum must not move by one bit.
    # The off-centre bubble's first-axis map is not a mirror, and
    # `perturb`'s sampler keeps the first axis whole
    rng = np.random.default_rng(60 + n)
    for N in (8, 64, 128):
        L = rng.uniform(2.0, 30.0)
        fields = [GridField(n, N, L, rng.standard_normal(N ** n))]
        for center in ((0.0,) * n, (0.37, -1.1, 0.25)[:n]):
            spec = BubbleSpec(rng.uniform(0.5, 2.0), center)
            fields.append(bubble_field(spec, BUBBLE_PARAMS[n], N, L))
            assert all(m is not None for m in fields[-1].maps)
        fields.append(_distinct_bubble(spec, BUBBLE_PARAMS[n], N, L))
        assert fields[-1].maps[0] is None
        for g in fields:
            want = np.fft.rfftn(g.values)
            got = spectral._by_column_blocks(g, 0.5, lambda hat, mult: hat)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mirror_multiplier_expands_to_the_torus_multiplier(n):
    # |xi|^(2s) from the full torus frequencies on the first n - 1 axes,
    # bit for bit: fftfreq's squares are mirror-symmetric
    rng = np.random.default_rng(70 + n)
    for N in (2, 4, 8, 64, 128):
        L, s = float(10.0 ** rng.uniform(-3.0, 3.0)), rng.uniform(0.05, 1.0)
        h = 2.0 * L / N
        w = 2.0 * np.pi * np.fft.fftfreq(N, d=h)
        w_half = 2.0 * np.pi * np.fft.rfftfreq(N, d=h)
        want = sum(np.ix_(*[w ** 2] * (n - 1) + [w_half ** 2])) ** s
        got = half_multiplier(n, N, L, s)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cached_multiplier_and_window_are_read_only_and_keyed():
    mult, mirror = spectral._mirror_multiplier(2, 8, 3.0, 0.5)
    assert mult.shape == (5, 5)  # bins 0..N/2 on every axis
    assert half_multiplier(2, 8, 3.0, 0.5).shape == (8, 5)
    assert list(mirror) == [0, 1, 2, 3, 4, 3, 2, 1]
    assert spectral._mirror_multiplier(2, 8, 3.0, 0.5)[0] is mult
    for other in (spectral._mirror_multiplier(2, 8, 4.0, 0.5)[0],
                  spectral._mirror_multiplier(2, 8, 3.0, 0.6)[0]):
        assert not np.array_equal(other, mult)
    with pytest.raises(ValueError):
        mult[1, 1] = 0.0
    with pytest.raises(ValueError):
        mirror[1] = 0
    _, win = spectral._core_box(2, 8, 3.0)
    with pytest.raises(ValueError):
        win[0, 0] = True


def test_transforms_never_hold_a_full_half_spectrum():
    # with the caches warm, a residual on a 128^3 bubble peaks below one
    # complex half spectrum, 16 N^2 (N/2 + 1) bytes, which a first-axis
    # stage on the whole array held on its own; the seminorm also holds its
    # real power array, 8 N^2 (N/2 + 1) bytes, which numpy's pairwise sum
    # takes whole
    import tracemalloc

    from critsys.algebraic import find_k0_l0

    N = 128
    U = small_bubble_grid(N=N, L=30.0)
    sol = find_k0_l0(P3)
    half = 16 * N * N * (N // 2 + 1)
    for call, bound in ((lambda: pde_residual_single(P3, U), half),
                        (lambda: pde_residual_system(P3, sol.k, sol.l, U),
                         half),
                        (lambda: seminorm(U, P3.s), half + half // 2)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


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


#: case B for n = 1, 2, 3 and case A for n = 1, each with gamma > 0
RESIDUAL_CASES = [make_params(1, 0.2, 1.6, 1.0, 1.5, 3.0),
                  make_params(2, 0.4, 1.6, 1.0, 1.5, 3.0), P3,
                  make_params(1, 0.3, 2.5, 1.0, 1.5, 1.0)]


@pytest.mark.parametrize("params", RESIDUAL_CASES,
                         ids=["n1", "n2", "n3", "n1-caseA"])
def test_residuals_equal_their_full_grid_forms(params):
    # the core-box residuals report exactly what transforms and powers on
    # the whole grid, read on the window, report
    from critsys.algebraic import find_k0_l0

    n, ts, a, b = params.n, params.two_star, params.alpha, params.beta
    S = sobolev_constant_closed_form(params).value
    U = normalized_bubble_field(params, BubbleSpec(1.0, (0.0,) * n), S, 32,
                                10.0)
    win = window_mask(n, 32, 10.0)
    assert pde_residual_single(params, U) == spectral._core_report(
        frac_laplacian(U, params.s).values, U.values ** (ts - 1.0), win)

    sol = find_k0_l0(params)
    u, v = U.like(np.sqrt(sol.k) * U.values), U.like(np.sqrt(sol.l) * U.values)
    g = params.gamma
    rhs1 = (params.mu1 * u.values ** (ts - 1.0)
            + (a * g / ts) * u.values ** (a - 1.0) * v.values ** b)
    rhs2 = (params.mu2 * v.values ** (ts - 1.0)
            + (b * g / ts) * u.values ** a * v.values ** (b - 1.0))
    assert pde_residual_system(params, sol.k, sol.l, U) == (
        spectral._core_report(frac_laplacian(u, params.s).values, rhs1, win),
        spectral._core_report(frac_laplacian(v, params.s).values, rhs2, win))


@pytest.mark.parametrize("params", RESIDUAL_CASES,
                         ids=["n1", "n2", "n3", "n1-caseA"])
def test_a_box_field_and_its_grid_give_the_same_bits(params):
    # one path for both representations: a bubble held as its box and the
    # same values handed over as a grid report identical numbers.  N^n is
    # 256, 4096 and 32768, so the sums take each of their block layouts
    from critsys.algebraic import find_k0_l0

    n = params.n
    N, L = {1: 256, 2: 64, 3: 32}[n], 10.0
    sol = find_k0_l0(params)
    S = sobolev_constant_closed_form(params).value
    for center in ((0.0,) * n, (0.37, -1.1, 0.25)[:n]):
        U = normalized_bubble_field(params, BubbleSpec(1.0, center), S, N, L)
        grid = GridField(n, N, L, U.values)
        assert grid.maps == (None,) * n
        for f in (integrate, lambda g: seminorm(g, params.s),
                  lambda g: rayleigh_quotient(params, g)):
            assert f(U).hex() == f(grid).hex()
        assert pde_residual_single(params, U) \
            == pde_residual_single(params, grid)
        assert pde_residual_system(params, sol.k, sol.l, U) \
            == pde_residual_system(params, sol.k, sol.l, grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residual_with_an_overflowing_multiplier_is_domain_error(n):
    # on a box of half-width 1e-300 |xi|^2 overflows, so the transform is
    # nan: the same error the whole-grid transform raised
    rng = np.random.default_rng(n)
    U = GridField(n, 16, 1e-300, rng.uniform(0.5, 1.0, 16 ** n))
    for residual in (lambda: pde_residual_single(P3, U),
                     lambda: pde_residual_system(P3, 0.4, 0.6, U)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError) as info:
                residual()
        assert (str(info.value), info.value.constraint) == \
            ("field values must be finite", "finite")


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
    box, win = spectral._core_box(1, 64, 8.0)
    mask = np.zeros(64, dtype=bool)
    mask[box] = win
    assert np.array_equal(mask, np.abs(spectral._axis(64, 8.0)) <= 1.0)


def test_cached_core_window_equals_radius_test():
    for n, N, L in [(1, 64, 8.0), (2, 32, 5.0), (3, 16, 4.0), (3, 32, 6.0)]:
        for _ in range(2):  # built, then from the cache
            box, win = spectral._core_box(n, N, L)
            full = np.zeros((N,) * n, dtype=bool)
            full[box] = win
            assert np.array_equal(full, window_mask(n, N, L))
        assert spectral._core_box(n, N, L)[1] is win


def test_core_box_is_the_bounding_box_of_the_window():
    # fixed grids, then seeded awkward ones: n 1-3, N 2-128, L log-uniform
    # on [1e-3, 1e3]
    rng = np.random.default_rng(16)
    grids = [(1, 64, 8.0), (2, 32, 5.0), (3, 16, 4.0), (3, 32, 6.0),
             (3, 128, 30.0), (2, 16, 1e-300)] + [
        (int(rng.integers(1, 4)), 2 ** int(rng.integers(1, 8)),
         float(10.0 ** rng.uniform(-3.0, 3.0))) for _ in range(20)]
    for n, N, L in grids:
        mask = window_mask(n, N, L)
        box, win = spectral._core_box(n, N, L)
        assert np.array_equal(win, mask[box])
        assert win.sum() == mask.sum()  # no window point outside the box
        for d in range(n):  # and no slab of the box without one
            other = tuple(e for e in range(n) if e != d)
            assert win.any(axis=other)[[0, -1]].all()
        with pytest.raises(ValueError):
            win[(0,) * n] = True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sum_from_the_box_is_numpys_sum_of_the_grid(n):
    # values over many decades, so that any change of summation order
    # shows; N = 2 and 4 in 1-D take numpy's sequential path below eight
    # values, and 8 <= N^n <= 128 is a single block
    rng = np.random.default_rng(n)
    for N in (2, 4, 8, 16, 32, 64, 128):
        for L in (8.0, 10.3):
            for center in ((0.0,) * n, tuple(rng.uniform(-1.0, 1.0, n))):
                box, maps = spectral._distinct_radius_sq(n, N, L, center)
                values = rng.lognormal(0.0, 3.0, box.shape)
                want = np.sum(spectral._expand(values, maps))
                got = spectral._expanded_sum(values, maps)
                assert got.hex() == want.hex()


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


@pytest.mark.parametrize("s", [np.nan, 0.0, 7.0])
def test_load_rejects_an_order_outside_0_1(tmp_path, s):
    # dump_field refuses such an s, so the file is written by hand
    path = tmp_path / "field.bin"
    path.write_bytes(struct.pack("<8sii", b"CRITSYS1", 1, 8)
                     + struct.pack("<dd", 2.0, s) + bytes(8 * 8))
    with pytest.raises(DomainError) as info:
        load_field(str(path))
    assert info.value.constraint == "s"


@pytest.mark.parametrize("s", [np.nan, 0.0, 7.0])
def test_dump_rejects_an_order_outside_0_1_and_writes_nothing(tmp_path, s):
    path = tmp_path / "field.bin"
    with pytest.raises(DomainError) as info:
        dump_field(GridField(1, 8, 2.0, np.zeros(8)), s, str(path))
    assert info.value.constraint == "s"
    assert not path.exists()
