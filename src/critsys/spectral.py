"""Pseudospectral fractional Laplacian on periodic boxes and PDE residuals.

Fields live on the uniform grid of [-L, L)^n with N points per axis.  The
fractional Laplacian is the Fourier multiplier |xi|^(2s) with torus
frequencies xi = (pi/L) m, m integer in [-N/2, N/2); the zero mode maps to
zero and the Nyquist mode is kept.

Fields are real, so the transforms are numpy's real-to-complex `rfftn` and
its inverse `irfftn`: the spectrum is stored only for the non-negative
frequencies of the last axis, bins 0 to N/2 (Nyquist), since the rest are
complex conjugates.  The multiplier is even, so it maps that half spectrum
to the half spectrum of a real field.  It is built once per (n, N, L, s) and
kept in a small cache; so is the core-window mask per (n, N, L, fraction).
Both cached arrays are read-only because every caller shares them.

Residuals are reported on the core window |x| <= L/8 where periodic images
pollute least.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .params import SystemParams

_MAGIC = b"CRITSYS1"
HEADER_BYTES = 32


@dataclass
class GridField:
    """Sampled real field on a uniform periodic box.

    n: dimension (1..3); N: points per axis (power of two); L: half-width;
    values: real array of shape (N,)*n, row-major.
    """

    n: int
    N: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        _check_grid(self.n, self.N, self.L)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size != self.N ** self.n:
            raise DomainError("value count does not match N^n",
                              constraint="values", value=self.values.size)
        self.values = self.values.reshape((self.N,) * self.n)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite",
                              constraint="finite", value=None)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    def axis(self) -> np.ndarray:
        return _axis(self.N, self.L)

    def radius_sq(self, center=None) -> np.ndarray:
        """|x - center|^2 on the grid; the center defaults to the origin."""
        return _radius_sq(self.n, self.N, self.L,
                          (0.0,) * self.n if center is None else center)

    def like(self, values: np.ndarray) -> "GridField":
        return GridField(self.n, self.N, self.L, values)


def integrate(field: GridField) -> float:
    """Torus quadrature h^n * sum(values)."""
    return field.h ** field.n * float(np.sum(field.values))


def _check_grid(n: int, N: int, L: float) -> None:
    if n not in (1, 2, 3):
        raise DomainError("grid dimension must be 1, 2 or 3",
                          constraint="n", value=n)
    if N < 2 or (N & (N - 1)) != 0:
        raise DomainError("N must be a power of two", constraint="N", value=N)
    if not L > 0.0:
        raise DomainError("L must be positive", constraint="L", value=L)
    if L == np.inf:
        raise DomainError("L must be finite", constraint="finite", value=L)
    with np.errstate(over="ignore"):
        cell = np.float64(2.0 * L / N) ** n  # what h ** n gives, or inf
    if not (np.isfinite(L * L) and np.isfinite(cell)):
        raise DomainError("L^2 or the cell volume (2L/N)^n overflows",
                          constraint="L", value=L)


def _axis(N: int, L: float) -> np.ndarray:
    """The N grid points of [-L, L), spaced h = 2L/N."""
    return -L + (2.0 * L / N) * np.arange(N)


def _axis_sum(terms) -> np.ndarray:
    """sum_d terms[d][i_d] over the grid indexed by (i_1, ..., i_n): each
    1-D term laid along its own axis and added in axis order, so only the
    last addition is full size."""
    return functools.reduce(np.add, np.ix_(*terms))


def _radius_sq(n: int, N: int, L: float, center) -> np.ndarray:
    """|x - center|^2 on the (N,)*n grid of [-L, L)^n, checked first so
    that a bad grid is refused before anything of size N^n is built."""
    _check_grid(n, N, L)
    x = _axis(N, L)
    return _axis_sum([(x - center[d]) ** 2 for d in range(n)])


@functools.lru_cache(maxsize=8)
def _half_multiplier(n: int, N: int, L: float, s: float) -> np.ndarray:
    """|xi|^(2s) on the half spectrum that `rfftn` returns for an (N,)*n
    grid of half-width L: full torus frequencies on the first n - 1 axes,
    the non-negative ones (zero to Nyquist) on the last.  Cached and shared
    between callers, so read-only."""
    h = 2.0 * L / N
    w = 2.0 * np.pi * np.fft.fftfreq(N, d=h)  # = (pi/L) * m
    w_half = 2.0 * np.pi * np.fft.rfftfreq(N, d=h)
    mult = _axis_sum([w ** 2] * (n - 1) + [w_half ** 2]) ** s
    mult.flags.writeable = False
    return mult


def frac_laplacian(field: GridField, s: float) -> GridField:
    """Fourier-multiplier fractional Laplacian; s in (0, 1].

    s = 1 is allowed as a test-only extension (the multiplier is then the
    plain Laplacian symbol).
    """
    if not 0.0 < s <= 1.0:
        raise DomainError("fractional order must satisfy 0 < s <= 1",
                          constraint="s", value=s)
    axes = tuple(range(field.n))
    hat = np.fft.rfftn(field.values, axes=axes)
    hat *= _half_multiplier(field.n, field.N, field.L, s)
    return field.like(np.fft.irfftn(hat, s=field.values.shape, axes=axes))


def seminorm(field: GridField, s: float) -> float:
    """Discrete Gagliardo-type seminorm sum |xi|^(2s) |u_hat|^2 (h^n/N^n)."""
    if not 0.0 < s <= 1.0:
        raise DomainError("fractional order must satisfy 0 < s <= 1",
                          constraint="s", value=s)
    hat = np.fft.rfftn(field.values, axes=tuple(range(field.n)))
    power = _half_multiplier(field.n, field.N, field.L, s) * np.abs(hat) ** 2
    scale = field.h ** field.n / field.N ** field.n
    # the half spectrum keeps bins 0..N/2 of the last axis; bins 1..N/2-1
    # also stand for their conjugate mirror images, so they count twice
    return scale * float(np.sum(power) + np.sum(power[..., 1:-1]))


def core_window(field: GridField, fraction: float = 0.125) -> np.ndarray:
    """Boolean mask of the ball |x| <= fraction * L.

    Cached per (n, N, L, fraction) and shared between callers, so
    read-only."""
    return _core_window(field.n, field.N, field.L, fraction)


@functools.lru_cache(maxsize=8)
def _core_window(n: int, N: int, L: float, fraction: float) -> np.ndarray:
    mask = _radius_sq(n, N, L, (0.0,) * n) <= (fraction * L) ** 2
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class ResidualReport:
    rel_l2_core: float
    rel_sup_core: float
    truncation_flag: bool = False


def _core_report(lhs: np.ndarray, rhs: np.ndarray,
                 win: np.ndarray) -> ResidualReport:
    """Relative L2 and sup norms of lhs - rhs against rhs on the window;
    a relative L2 norm above 0.5 or nan is a `ResolutionError`."""
    rw, fw = (lhs - rhs)[win], rhs[win]
    rel_l2 = float(np.sqrt(np.sum(rw ** 2) / np.sum(fw ** 2)))
    rel_sup = float(np.max(np.abs(rw)) / np.max(np.abs(fw)))
    if not rel_l2 <= 0.5:
        raise ResolutionError("core residual exceeds 0.5; grid unusable",
                              constraint="rel_l2_core", value=rel_l2)
    return ResidualReport(rel_l2_core=rel_l2, rel_sup_core=rel_sup)


def pde_residual_single(params: SystemParams, U: GridField) -> ResidualReport:
    """Residual of the single critical equation (-Delta)^s U = U^(2*-1).

    Relative L2 and sup norms over |x| <= L/8 against the nonlinear term.
    Raises `ResolutionError` when the grid is unusable (rel L2 > 0.5).
    """
    rhs = U.values ** (params.two_star - 1.0)
    return _core_report(frac_laplacian(U, params.s).values, rhs,
                        core_window(U))


def pde_residual_system(params: SystemParams, k: float, l: float,
                        U: GridField) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of both coupled equations for (u, v) = (sqrt(k) U, sqrt(l) U).

    Computed directly (fresh transforms of the scaled fields), so agreement
    with the single-equation residual at a solved (k0, l0) is a genuine
    verification rather than an algebraic restatement.
    """
    if not (k > 0.0 and l > 0.0):
        raise DomainError("k and l must be positive", constraint="k, l > 0",
                          value=(k, l))
    a, b, ts = params.alpha, params.beta, params.two_star
    u = U.like(np.sqrt(k) * U.values)
    v = U.like(np.sqrt(l) * U.values)
    win = core_window(U)

    rhs1 = (params.mu1 * u.values ** (ts - 1.0)
            + (a * params.gamma / ts) * u.values ** (a - 1.0) * v.values ** b)
    report1 = _core_report(frac_laplacian(u, params.s).values, rhs1, win)
    rhs2 = (params.mu2 * v.values ** (ts - 1.0)
            + (b * params.gamma / ts) * u.values ** a * v.values ** (b - 1.0))
    report2 = _core_report(frac_laplacian(v, params.s).values, rhs2, win)
    return report1, report2


def dump_field(field: GridField, s: float, path: str) -> None:
    """Write the field as raw little-endian float64 after a 32-byte header.

    Header layout: magic "CRITSYS1" (8 bytes), int32 n, int32 N,
    float64 L, float64 s.
    """
    header = struct.pack("<8sii", _MAGIC, field.n, field.N) \
        + struct.pack("<dd", field.L, s)
    assert len(header) == HEADER_BYTES
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<f8").tobytes())


def load_field(path: str) -> tuple[GridField, float]:
    with open(path, "rb") as fh:
        header, body = fh.read(HEADER_BYTES), fh.read()
    if len(header) < HEADER_BYTES or len(body) % 8:
        raise DomainError("truncated field dump", constraint="length",
                          value=len(header) + len(body))
    magic, n, N = struct.unpack("<8sii", header[:16])
    L, s = struct.unpack("<dd", header[16:])
    if magic != _MAGIC:
        raise DomainError("not a field dump (bad magic)",
                          constraint="magic", value=magic.decode("ascii",
                                                                 "replace"))
    values = np.frombuffer(body, dtype="<f8")
    return GridField(n=n, N=N, L=L, values=values.copy()), s
