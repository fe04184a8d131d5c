"""Domain types and grid primitives shared by the whole package.

Everything here is immutable after construction: arrays are stored with the
writeable flag cleared, so instances can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

PI = np.pi

# Delay regimes.  Inversion needs 2*pi/5 <= a < pi/2; the forward machinery
# (kernels, characteristic functions, spectra) is valid already for a >= pi/3.
A_MIN_INVERSE = 2.0 * PI / 5.0
A_MIN_FORWARD = PI / 3.0
A_MAX = PI / 2.0

# Defaults shared by the inversion, the codecs and the command line.
DEFAULT_M = 1024
DEFAULT_N = 50
DEFAULT_SEED = 2026
DEFAULT_SUPPORT_GATE = 1e-3
DEFAULT_ORACLE_GATE = 1e-5


class DelayDiracError(Exception):
    """Base class for all package errors."""


class RegimeError(DelayDiracError, ValueError):
    """Delay length outside the regime required by the requested operation."""


class GridRangeError(DelayDiracError, ValueError):
    """Point query outside a grid's interval (no extrapolation is done)."""


class RootCountError(DelayDiracError, RuntimeError):
    """Eigenvalue count did not certify against the contour integral."""


class SupportDefectError(DelayDiracError, RuntimeError):
    """Synthesized kernel has too much mass outside its allowed support."""

    def __init__(self, message, defects=None):
        super().__init__(message)
        self.defects = tuple(defects) if defects is not None else ()


class SpectraMismatchError(DelayDiracError, ValueError):
    """Two spectra fed to the inversion do not form a consistent pair."""


class BallRadiusError(DelayDiracError, ValueError):
    """Perturbed spectrum left the l2 ball required by the stability bound."""


class StepCountError(DelayDiracError, ValueError):
    """Requested integrator step is too coarse for the delay segments."""


def lattice_shift(nu: int, j: int) -> float:
    """Offset of the unperturbed eigenvalue lattice n + shift."""
    return (2.0 - nu - j) / 2.0


def _frozen(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``m`` nodes on [lo, hi], endpoints included."""

    lo: float
    hi: float
    m: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("grid needs at least two nodes")
        if not self.hi > self.lo:
            raise ValueError("grid interval must have positive length")
        object.__setattr__(self, "nodes", _frozen(np.linspace(self.lo, self.hi, self.m), float))

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @property
    def range_tol(self) -> float:
        # Slack for round-off in arguments that land on the endpoints.
        return 64.0 * np.finfo(float).eps * max(abs(self.lo), abs(self.hi), 1.0)


def interpolate(grid: Grid, samples, x):
    """Piecewise-linear interpolation of ``samples`` at ``x``.

    Exact at the nodes.  Raises :class:`GridRangeError` for arguments outside
    [lo, hi] (up to round-off slack); there is no extrapolation.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.m,):
        raise ValueError("samples do not match the grid")
    xs = np.asarray(x, dtype=float)
    tol = grid.range_tol
    if np.any(xs < grid.lo - tol) or np.any(xs > grid.hi + tol):
        raise GridRangeError(
            f"query outside grid range [{grid.lo}, {grid.hi}]"
        )
    xc = np.clip(xs, grid.lo, grid.hi)
    if np.iscomplexobj(samples):
        out = np.interp(xc, grid.nodes, samples.real) + 1j * np.interp(xc, grid.nodes, samples.imag)
    else:
        out = np.interp(xc, grid.nodes, samples)
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(out) if np.iscomplexobj(samples) else float(out)
    return out


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.m, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def quadrature(grid: Grid, samples):
    """Integral of ``samples`` over the grid interval by the composite trapezoid rule."""
    samples = np.asarray(samples)
    if samples.shape != (grid.m,):
        raise ValueError("samples do not match the grid")
    return np.sum(samples * trapezoid_weights(grid))


def chirp_sum(g, x0: float, h: float, lam0: complex, dlam: float, count: int) -> np.ndarray:
    """Exponential sum sum_k g_k exp(i (lam0 + m dlam)(x0 + k h)), m = 0..count-1.

    Bluestein's chirp-z algorithm: m k = (m^2 + k^2 - (m-k)^2) / 2 turns the
    sum into a convolution with the chirp exp(-i dlam h n^2 / 2), done by FFT
    in O((L + count) log(L + count)) instead of O(L count).  ``x0``, ``h`` and
    ``dlam`` are real, so the chirp is unimodular; a complex ``lam0`` only
    reweights the terms.  Both indices are centred, which keeps the largest
    chirp phase, and with it the round-off in the phases, small.  ``g`` holds
    the weights along its last axis; leading axes are summed independently
    and come first in the result.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 1 or g.shape[-1] < 1 or count < 1:
        raise ValueError("chirp_sum needs a non-empty weight axis and count >= 1")
    size_g = g.shape[-1]
    kc = (size_g - 1) // 2
    mc = (count - 1) // 2
    k = np.arange(size_g, dtype=float) - kc
    m = np.arange(count, dtype=float) - mc
    lam_c = lam0 + mc * dlam
    x_c = x0 + kc * h
    theta = dlam * h
    # (lam_c + m dlam)(x_c + k h) = lam_c x_c + lam_c k h + m dlam x_c + theta m k
    d = np.arange(-(size_g - 1) - mc + kc, count - mc + kc, dtype=float)
    chirp = np.exp(-0.5j * theta * (d * d))
    size = 1 << int(size_g + count - 2).bit_length()
    # One zero-padded buffer, transformed in place: a stack of weight rows
    # then costs one array of the FFT length, not four.
    buf = np.zeros(g.shape[:-1] + (size,), dtype=complex)
    buf[..., :size_g] = g
    buf[..., :size_g] *= np.exp(1j * (lam_c * (k * h) + 0.5 * theta * (k * k)))
    np.fft.fft(buf, out=buf)
    buf *= np.fft.fft(chirp, size)
    conv = np.fft.ifft(buf, out=buf)[..., size_g - 1:size_g - 1 + count]
    return conv * np.exp(1j * (lam_c * x_c + dlam * x_c * m + 0.5 * theta * (m * m)))


def scattered_sum(g, x0: float, h: float, lam) -> np.ndarray:
    """Exponential sum sum_k g_k exp(i lam (x0 + k h)) at arbitrary complex lam.

    Two-level (baby-step/giant-step) split: with k = m B + r and
    B = ceil(sqrt(K)) for K weights, the sum is
    sum_m exp(i lam (x0 + m B h)) (G @ exp(i lam r h))_m, where G is g
    zero-padded to Mb B and reshaped to (Mb, B).  That costs L (B + Mb)
    exponentials and one matrix product instead of L K exponentials.  Both
    indices are centred, as in `chirp_sum`, so the baby phases stay within
    |lam| B h / 2.  ``g`` is one-dimensional; the result has the shape of
    ``lam``.
    """
    g = np.asarray(g, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("scattered_sum needs a non-empty one-dimensional weight array")
    block = math.isqrt(g.size - 1) + 1
    rows = -(-g.size // block)
    padded = np.zeros(rows * block, dtype=complex)
    padded[:g.size] = g
    rc = (block - 1) // 2
    mc = (rows - 1) // 2
    x_c = x0 + (mc * block + rc) * h
    flat = lam.reshape(-1)
    baby = np.exp(1j * np.multiply.outer(h * (np.arange(block) - rc), flat))
    giant = np.exp(1j * np.multiply.outer(x_c + (block * h) * (np.arange(rows) - mc), flat))
    inner = padded.reshape(rows, block) @ baby
    return np.sum(inner * giant, axis=0).reshape(lam.shape)


def tail_correlation(grid: Grid, f, g, t0):
    """Truncated correlation integral_{t0}^{hi} f(t) g(lo + t - t0) dt, per t0.

    Trapezoid rule on t0 and the nodes above it, f(t0) and the shifted g by
    linear interpolation.  The g arguments then sit theta = (t_first - t0)/h
    past the nodes, so the node sum is (1 - theta) C[first] + theta
    (C[first-1] - F[first-1] g[0]), with F = f (h, ..., h, h/2) and the
    correlation C[s] = sum_l F[s+l] g[l] done once by FFT; two end terms fix
    the short first panel.  ``f`` and ``g`` hold samples along their last
    axis; leading axes broadcast and come first in the (complex) result.
    """
    f, g = np.asarray(f), np.asarray(g)
    m, h = grid.m, grid.h
    if f.shape[-1:] != (m,) or g.shape[-1:] != (m,):
        raise ValueError("samples do not match the grid")
    ts = np.asarray(t0, dtype=float)
    if np.any(ts < grid.lo - grid.range_tol) or np.any(ts > grid.hi + grid.range_tol):
        raise GridRangeError(f"lower limit outside grid range [{grid.lo}, {grid.hi}]")
    ts = np.clip(ts.reshape(-1), grid.lo, grid.hi)
    # At t0 = hi, first = m - 1 and theta = 0, where the terms cancel.
    first = np.minimum(np.searchsorted(grid.nodes, ts, side="right"), m - 1)
    theta = (grid.lo + first * h - ts) / h
    big_f = f * np.append(np.full(m - 1, h), 0.5 * h)
    size = 1 << int(2 * m - 2).bit_length()
    c = np.fft.ifft(np.fft.fft(big_f, size) * np.fft.fft(g[..., ::-1], size))[..., m - 1:2 * m - 1]
    g0, g1, f_first, f_prev = g[..., :1], g[..., 1:2], f[..., first], f[..., first - 1]
    out = ((1.0 - theta) * c[..., first] + theta * (c[..., first - 1] - big_f[..., first - 1] * g0)
           + 0.5 * h * (theta - 1.0) * f_first * ((1.0 - theta) * g0 + theta * g1)
           + 0.5 * h * theta * (theta * f_prev + (1.0 - theta) * f_first) * g0)
    out = out.reshape(out.shape[:-1] + np.shape(t0))
    return complex(out) if out.ndim == 0 else out


def sequence_norm(x) -> float:
    """l2 norm sqrt(sum |x_k|^2) of a sequence; +inf, silently, once |x_k|^2 overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(np.abs(x) ** 2)))


def l2_norm(grid: Grid, samples) -> float:
    """L2 norm of the sampled function over the grid interval."""
    return float(np.sqrt(quadrature(grid, np.abs(np.asarray(samples)) ** 2)))


@dataclass(frozen=True)
class DelayConfig:
    """Delay length ``a`` plus the landmark geometry derived from it.

    Accepts the forward regime pi/3 <= a < pi/2; inversion checks its own,
    narrower regime 2*pi/5 <= a on the same ``a``.
    """

    a: float

    def __post_init__(self):
        if not A_MIN_FORWARD <= self.a < A_MAX:
            raise RegimeError(f"delay a={self.a:.6g} outside the forward regime [pi/3, pi/2)")

    # -- landmarks on [a, pi] and on the kernel interval -------------------
    @property
    def outer_break_lo(self) -> float:
        return 1.5 * self.a

    @property
    def outer_break_hi(self) -> float:
        return PI - 0.5 * self.a

    @property
    def kernel_break(self) -> float:
        # The correlation part of the kernels lives on (-(pi-2a), pi-2a).
        return PI - 2.0 * self.a

    def potential_grid(self, m: int) -> Grid:
        return Grid(self.a, PI, m)

    def covers(self, grid: Grid) -> bool:
        """Whether ``grid`` spans the potential interval [a, pi] (``np.isclose``, atol 1e-9)."""
        return bool(np.isclose(grid.lo, self.a, atol=1e-9) and np.isclose(grid.hi, PI, atol=1e-9))

    def kernel_grid(self, m: int) -> Grid:
        # Half resolution is lost in the change of variables x -> (pi+a-x)/2,
        # hence the denser grid.
        return Grid(self.a - PI, PI - self.a, 2 * m - 1)

    def outer_mask(self, x) -> np.ndarray:
        """Closed outer set [a, 3a/2] u [pi-a/2, pi]; breaks belong to it."""
        xs = np.asarray(x, dtype=float)
        tol = 16.0 * np.finfo(float).eps * PI
        return (xs <= self.outer_break_lo + tol) | (xs >= self.outer_break_hi - tol)

    def inner_mask(self, x) -> np.ndarray:
        return ~self.outer_mask(x)


@dataclass(frozen=True)
class PotentialPair:
    """Complex samples of the two potentials on a uniform grid over [a, pi].

    Both potentials vanish identically on (0, a) by convention; that part is
    never stored.
    """

    grid: Grid
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _frozen(self.q, complex)
        p = _frozen(self.p, complex)
        if q.shape != (self.grid.m,) or p.shape != (self.grid.m,):
            raise ValueError("potential samples do not match their grid")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def scaled(self, factor: complex) -> "PotentialPair":
        return PotentialPair(self.grid, factor * self.q, factor * self.p)

    def norms(self) -> tuple:
        return l2_norm(self.grid, self.q), l2_norm(self.grid, self.p)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues lambda_n for |n| <= n_max of one boundary problem (nu, j)."""

    nu: int
    j: int
    n_max: int
    lam: np.ndarray

    def __post_init__(self):
        if self.nu not in (1, 2) or self.j not in (1, 2):
            raise ValueError("branch indices must be 1 or 2")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        lam = _frozen(self.lam, complex)
        if lam.shape != (2 * self.n_max + 1,):
            raise ValueError("expected 2*n_max+1 eigenvalues")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        object.__setattr__(self, "lam", lam)

    @property
    def shift(self) -> float:
        return lattice_shift(self.nu, self.j)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.indices + self.shift

    @property
    def kappa(self) -> np.ndarray:
        return self.lam - self.centers

    @property
    def kappa_norm(self) -> float:
        return sequence_norm(self.kappa)

    def value(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise IndexError(f"index {n} outside |n| <= {self.n_max}")
        return complex(self.lam[n + self.n_max])

    def truncated(self, n_max: int) -> "Spectrum":
        if n_max > self.n_max:
            raise ValueError("cannot extend a spectrum by truncation")
        k = self.n_max - n_max
        return Spectrum(self.nu, self.j, n_max, self.lam[k: len(self.lam) - k])


@dataclass(frozen=True)
class KernelSet:
    """The four kernel functions of one branch nu on [a-pi, pi-a].

    v1, v2 are the sine/cosine-transform kernels; u1, u2 the exponential-
    transform kernels assembled from them.
    """

    nu: int
    grid: Grid
    v1: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        if self.nu not in (1, 2):
            raise ValueError("branch index must be 1 or 2")
        for name in ("v1", "v2", "u1", "u2"):
            arr = _frozen(getattr(self, name), complex)
            if arr.shape != (self.grid.m,):
                raise ValueError(f"{name} does not match the kernel grid")
            object.__setattr__(self, name, arr)

    def u(self, j: int) -> np.ndarray:
        if j == 1:
            return self.u1
        if j == 2:
            return self.u2
        raise ValueError("boundary index must be 1 or 2")


@dataclass(frozen=True)
class WPair:
    """The pair w_1, w_2 on [a, pi] from which potentials are read off."""

    nu: int
    grid: Grid
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        if self.nu not in (1, 2):
            raise ValueError("branch index must be 1 or 2")
        for name in ("w1", "w2"):
            arr = _frozen(getattr(self, name), complex)
            if arr.shape != (self.grid.m,):
                raise ValueError(f"{name} does not match the grid")
            object.__setattr__(self, name, arr)

    def norms(self) -> tuple:
        return l2_norm(self.grid, self.w1), l2_norm(self.grid, self.w2)
