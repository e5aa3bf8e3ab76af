"""Pseudospectral fractional Laplacian on periodic boxes and PDE residuals.

Fields live on the uniform grid of [-L, L)^n with N points per axis.  The
fractional Laplacian is the Fourier multiplier |xi|^(2s) with torus
frequencies xi = (pi/L) m, m integer in [-N/2, N/2); the zero mode maps to
zero and the Nyquist mode is kept.

Fields are real, so the transforms are numpy's real-to-complex `rfftn` and
its inverse `irfftn`: the spectrum is stored only for the non-negative
frequencies of the last axis, bins 0 to N/2 (Nyquist), since the rest are
complex conjugates.  The multiplier is even, so it maps that half spectrum
to the half spectrum of a real field.  It is even on every axis too, so it
is built once per (n, N, L, s) on its mirror-distinct box, bins 0 to N/2 on
every axis, and kept in a small cache; so is the core box and its window
per (n, N, L).  The cached arrays are read-only because every caller shares
them.

A field is a box plus one index map per axis (`GridField`); a bubble's box
keeps one point per distinct squared offset on each axis.  The forward
transform expands each axis just before its own `rfftn` stage.  The stages
on axes n - 1 to 1 run on blocks of `_BLOCK` rows of the box; the axis-0
stage, the last, runs on blocks of `_BLOCK` axis-1 columns, and each block
goes on at once to what its caller makes of it: the inverse axis-0 stage
of a residual, or the power array of the seminorm.  So the full complex
half spectrum is never held, and no temporary is larger than a block.
pocketfft transforms each 1-D line on its own, so the spectrum is bit for
bit `rfftn`'s.

Residuals are reported on the core window |x| <= L/8 where periodic images
pollute least, and only that window's bounding box is computed: the inverse
transform keeps each axis's slice of the box after that axis's stage, and the
right-hand-side powers are formed on the box alone.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ResolutionError
from .params import SystemParams

_MAGIC = b"CRITSYS1"
HEADER_BYTES = 32
#: residuals are reported on |x| <= _CORE_FRACTION * L
_CORE_FRACTION = 0.125
#: numpy's pairwise float sum adds runs of up to this many values with
#: eight accumulators and halves longer runs until they fit
_PAIRWISE_BLOCK = 128
#: box rows per block of the transform's stages on axes n - 1 to 1 and of
#: the overlap quadrature, and axis-1 columns per block of the transform's
#: axis-0 stage: a wider block costs memory, and 4 to 32 take about the
#: same time at N = 128
_BLOCK = 8


@dataclass
class GridField:
    """Sampled real field on a uniform periodic box.

    n: dimension (1..3); N: points per axis (power of two); L: half-width;
    box: real array; maps: one index map per axis, None for an axis kept
    whole (the default for every axis, when box holds the N^n values).
    The grid's values, of shape (N,)*n, are box expanded by `_expand`.
    """

    n: int
    N: int
    L: float
    box: np.ndarray
    maps: tuple | None = None

    def __post_init__(self):
        _check_grid(self.n, self.N, self.L)
        self.box = np.asarray(self.box, dtype=float)
        if self.maps is None:
            self.maps = (None,) * self.n
            if self.box.size != self.N ** self.n:
                raise DomainError("value count does not match N^n",
                                  constraint="values", value=self.box.size)
            self.box = self.box.reshape((self.N,) * self.n)
        self.box = _finite(self.box)  # the box holds every grid value

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The (N,)*n grid values, expanded from the box on first use."""
        return _expand(self.box, self.maps)

    def values_on(self, slices) -> np.ndarray:
        """The values on the grid points of ``slices`` (one per axis)."""
        return _expand(self.box, [np.arange(self.N)[i] if m is None else m[i]
                                  for m, i in zip(self.maps, slices)])

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    def like(self, values: np.ndarray) -> "GridField":
        return GridField(self.n, self.N, self.L, values)


def integrate(field: GridField) -> float:
    """Torus quadrature h^n * sum(values), summed from the box."""
    return field.h ** field.n * float(
        _pairwise(_block_sums(field.box, field.maps, field.N)))


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DomainError("field values must be finite",
                          constraint="finite", value=None)
    return values


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


def _radius_sq_terms(n: int, N: int, L: float, center):
    """The per-axis terms (x_i - center_d)^2 of |x - center|^2 on the
    distinct-offset box of the (N,)*n grid, checked first, and the index
    maps that `_expand` takes that box to the grid with.

    Every axis keeps one point per distinct float square (N/2 + 1 on a
    mirror-symmetric axis).  `_axis_sum` of the terms, or of their rows,
    gives each box value bit for bit as the grid values it stands for, so an
    elementwise step on the box, then `_expand`, gives the grid's values."""
    _check_grid(n, N, L)
    x = _axis(N, L)
    terms, maps = zip(*(np.unique((x - center[d]) ** 2, return_inverse=True)
                        for d in range(n)))
    return list(terms), maps


def _expand(box: np.ndarray, maps) -> np.ndarray:
    """A box on the full grid, one `np.take` per axis whose map is not
    None, the last axis first."""
    for d in range(len(maps) - 1, -1, -1):
        if maps[d] is not None:
            box = np.take(box, maps[d], axis=d)
    return box


def _row_blocks(n: int, N: int) -> list[slice]:
    """`_BLOCK` axis-0 rows of the (N,)*n grid each, or the whole axis when
    a 128-value block of `_block_sums` spans more than one row."""
    step = _BLOCK if N ** (n - 1) >= _PAIRWISE_BLOCK else N
    return [slice(i, i + step) for i in range(0, N, step)]


def _block_sums(rows: np.ndarray, maps, N: int) -> np.ndarray:
    """The sums of the 128-value blocks (all values, if fewer) of the
    (N,)*n grid that the box ``rows`` stands for, in grid order: the whole
    box, or with axis 0 whole (maps[0] None), a range of `_row_blocks`.

    numpy sums a contiguous float64 array of N^n > 128 values (a power of
    two) as a perfect binary tree over blocks of 128 consecutive values,
    each summed on its own.  So only the trailing axes one block spans are
    expanded; the block sums are taken along the last axis and their
    leading axes expanded.  `_pairwise` adds them up the tree."""
    n = rows.ndim
    lead = n - 1  # axes lead, ..., n - 1 are those a block spans
    while lead and N ** (n - lead) < _PAIRWISE_BLOCK:
        lead -= 1
    rows = _expand(rows, (None,) * lead + tuple(maps[lead:]))
    sums = np.sum(rows.reshape(rows.shape[:lead]
                               + (-1, min(_PAIRWISE_BLOCK, rows.size))),
                  axis=-1)
    return _expand(sums, maps[:lead])


def _pairwise(sums: np.ndarray):
    """Adjacent pairs of the block sums added until one is left, so that
    ``_pairwise(_block_sums(box, maps, N))`` is ``np.sum(_expand(box,
    maps))`` bit for bit, without the full grid."""
    sums = sums.ravel()
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0]


@functools.lru_cache(maxsize=8)
def _mirror_multiplier(n: int, N: int, L: float, s: float):
    """|xi|^(2s) on the half spectrum's mirror-distinct box, bins 0 to N/2
    on every axis, and the map of a torus axis onto it, bin k to
    min(k, N - k).  The squares of `fftfreq` are mirror-symmetric bit for
    bit, so the box expanded by that map on the first n - 1 axes is the
    multiplier on the half spectrum that `rfftn` returns, bit for bit.
    Cached and shared between callers, so read-only."""
    w = 2.0 * np.pi * np.fft.rfftfreq(N, d=2.0 * L / N)  # = (pi/L) * m
    mult = _axis_sum([w ** 2] * n)
    mult **= s
    k = np.arange(N)
    mirror = np.minimum(k, N - k)
    mult.flags.writeable = mirror.flags.writeable = False
    return mult, mirror


def _stage(hat: np.ndarray, d: int, out=None) -> np.ndarray:
    """`rfftn`'s stage on axis d: `rfft` on the last axis, an `fft` on the
    others, written to ``out`` when given (else the `fft` is in place)."""
    return np.fft.rfft(hat, axis=d, out=out) if d == hat.ndim - 1 \
        else np.fft.fft(hat, axis=d, out=hat if out is None else out)


def _inverse_stage(hat: np.ndarray, d: int, N: int, crop) -> np.ndarray:
    """`irfftn`'s stage on axis d, `irfft` on the last axis and an in-place
    `ifft` on the others, then axis d cropped to ``crop``."""
    hat = np.fft.irfft(hat, N, axis=d) if d == hat.ndim - 1 \
        else np.fft.ifft(hat, axis=d, out=hat)
    return hat[(slice(None),) * d + (crop,)]


def _times_multiplier(hat: np.ndarray, mult: np.ndarray) -> None:
    """hat *= mult expanded on axis 0 by the mirror map, without expanding
    it: rows 0 to N/2 take its rows as they are, rows N/2 + 1 to N - 1 its
    rows N/2 - 1 down to 1 (none when axis 0 is the half axis, n = 1)."""
    h = mult.shape[0]
    hat[:h] *= mult
    hat[h:] *= mult[len(hat) - h:0:-1]


def _leading_stages(field: GridField) -> np.ndarray:
    """The box after `rfftn`'s stages on axes n - 1 down to 1, in its order:
    `rfft` on the last axis, then an `fft` on each other one, each axis with
    a map expanded just before its own stage (for n = 1, the box itself).
    The stages run on one block of `_BLOCK` axis-0 rows at a time, so their
    temporaries stay the size of a block."""
    n, N = field.n, field.N
    if n == 1:
        return field.box
    out = np.empty((len(field.box),) + (N,) * (n - 2) + (N // 2 + 1,),
                   complex)
    for i in range(0, len(field.box), _BLOCK):
        rows = field.box[i:i + _BLOCK]
        for d in range(n - 1, 0, -1):
            if field.maps[d] is not None:
                rows = np.take(rows, field.maps[d], axis=d)
            rows = _stage(rows, d, out[i:i + _BLOCK] if d == 1 else None)
    return out


def _by_column_blocks(field: GridField, s: float, finish) -> np.ndarray:
    """``finish(hat, mult)`` on each block of `_BLOCK` axis-1 columns of the
    field's half spectrum (all of it when n = 1), put together along axis 1.

    hat is the block of ``np.fft.rfftn(field.values)``, bit for bit and
    free to overwrite, and mult the multiplier's box on its columns, for
    `_times_multiplier`.  The block is `_leading_stages`' columns, expanded
    on axis 0 and put through `rfftn`'s last stage there, so neither the
    full half spectrum nor a stage's temporaries of that size are held."""
    hat, last = _leading_stages(field), field.n - 1
    mult, mirror = _mirror_multiplier(field.n, field.N, field.L, s)
    first = np.arange(field.N) if field.maps[0] is None else field.maps[0]
    out = None
    for j in range(0, hat.shape[1] if last else 1, _BLOCK):
        cols = (slice(None), slice(j, j + _BLOCK))[:field.n]
        # axis 1 of the multiplier's box is mirrored in 3-D and is the half
        # axis in 2-D
        part = finish(_stage(hat[(first,) + cols[1:]], 0),
                      np.take(mult, mirror[cols[1]], axis=1) if last > 1
                      else mult[cols])
        if out is None:
            out = np.empty(part.shape[:1] + hat.shape[1:], part.dtype)
        out[cols] = part
        del part  # may be a view of its block: free that before the next
    return out


def _frac_laplacian_on(field: GridField, s: float, box) -> np.ndarray:
    """(-Delta)^s field on the grid points of ``box`` (one slice per axis).

    The stages are `irfftn`'s, in its order, so the values are bit for bit
    its values there: an in-place `ifft` on each leading axis, each followed
    by cropping that axis to its slice, then `irfft` on the last axis.  The
    axis-0 stage runs on each column block as the forward one leaves it."""
    def finish(hat, mult):
        _times_multiplier(hat, mult)
        return _inverse_stage(hat, 0, field.N, box[0])

    hat = _by_column_blocks(field, s, finish)
    for d in range(1, field.n):
        hat = _inverse_stage(hat, d, field.N, box[d])
    return hat


def _check_order(s: float) -> None:
    if not 0.0 < s <= 1.0:
        raise DomainError("fractional order must satisfy 0 < s <= 1",
                          constraint="s", value=s)


def frac_laplacian(field: GridField, s: float) -> GridField:
    """Fourier-multiplier fractional Laplacian; s in (0, 1].

    s = 1 is allowed as a test-only extension (the multiplier is then the
    plain Laplacian symbol).
    """
    _check_order(s)
    return field.like(_frac_laplacian_on(field, s, (slice(None),) * field.n))


def seminorm(field: GridField, s: float) -> float:
    """Discrete Gagliardo-type seminorm sum |xi|^(2s) |u_hat|^2 (h^n/N^n)."""
    _check_order(s)

    def finish(hat, mult):
        power = np.abs(hat)
        power **= 2
        _times_multiplier(power, mult)
        return power

    power = _by_column_blocks(field, s, finish)
    scale = field.h ** field.n / field.N ** field.n
    # the half spectrum keeps bins 0..N/2 of the last axis; bins 1..N/2-1
    # also stand for their conjugate mirror images, so they count twice
    return scale * float(np.sum(power) + np.sum(power[..., 1:-1]))


@functools.lru_cache(maxsize=8)
def _core_box(n: int, N: int, L: float):
    """The bounding box of the residuals' core window, one slice per axis,
    and the window cropped to it (read-only), without the full grid.

    The origin is a grid point, so the box keeps on each axis the points
    with x^2 inside the window; on it, r^2 adds the x_d^2 in axis order, as
    |x|^2 on the full grid would, so the cropped window is bit for bit the
    full-grid mask's."""
    x2 = _axis(N, L) ** 2
    inside = np.nonzero(x2 <= (_CORE_FRACTION * L) ** 2)[0]
    box = (slice(inside[0], inside[-1] + 1),) * n
    win = _axis_sum([x2[box[0]]] * n) <= (_CORE_FRACTION * L) ** 2
    win.flags.writeable = False
    return box, win


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


def _report_on(field: GridField, s: float, rhs, box, win) -> ResidualReport:
    """`_core_report` of (-Delta)^s ``field`` against ``rhs`` on the core."""
    return _core_report(_finite(_frac_laplacian_on(field, s, box)), rhs, win)


def pde_residual_single(params: SystemParams, U: GridField) -> ResidualReport:
    """Residual of the single critical equation (-Delta)^s U = U^(2*-1).

    Relative L2 and sup norms over |x| <= L/8 against the nonlinear term.
    Raises `ResolutionError` when the grid is unusable (rel L2 > 0.5).
    """
    box, win = _core_box(U.n, U.N, U.L)
    rhs = U.values_on(box) ** (params.two_star - 1.0)
    return _report_on(U, params.s, rhs, box, win)


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
    box, win = _core_box(U.n, U.N, U.L)
    core = U.values_on(box)
    ub, vb = np.sqrt(k) * core, np.sqrt(l) * core
    # equation i: (-Delta)^s w_i = mu_i w_i^(2*-1) + c_i u^p_i v^q_i
    return tuple(
        _report_on(replace(U, box=np.sqrt(x) * U.box), params.s,
                   mu * w ** (ts - 1.0) + c * ub ** p * vb ** q, box, win)
        for x, mu, w, c, p, q in (
            (k, params.mu1, ub, a * params.gamma / ts, a - 1.0, b),
            (l, params.mu2, vb, b * params.gamma / ts, a, b - 1.0)))


def dump_field(field: GridField, s: float, path: str) -> None:
    """Write the field as raw little-endian float64 after a 32-byte header.

    Header layout: magic "CRITSYS1" (8 bytes), int32 n, int32 N,
    float64 L, float64 s, with 0 < s <= 1 checked before the file opens.
    """
    _check_order(s)
    header = struct.pack("<8sii", _MAGIC, field.n, field.N) \
        + struct.pack("<dd", field.L, s)
    assert len(header) == HEADER_BYTES
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8"))


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
    _check_order(s)
    values = np.frombuffer(body, dtype="<f8")
    return GridField(n, N, L, values.copy()), s
