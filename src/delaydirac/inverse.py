"""Reconstruction of the potentials from two spectra of one branch.

Pipeline: rebuild the two characteristic functions from their zeros, read
their integer samples as Fourier data, synthesize the kernels u_{nu,1},
u_{nu,2}, check that their mass is confined to [a-pi, pi-a] (the solvability
condition), assemble the pair w_{nu,1}, w_{nu,2} on [a, pi], read the
potentials off directly on the outer set [a, 3a/2] u [pi-a/2, pi], and
correct by the quadratic integrals gamma on the inner interval.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import (
    PI,
    A_MIN_INVERSE,
    DEFAULT_M,
    DEFAULT_SUPPORT_GATE,
    DelayConfig,
    Grid,
    PotentialPair,
    RegimeError,
    Spectrum,
    SpectraMismatchError,
    SupportDefectError,
    WPair,
    chirp_sum,
    sequence_norm,
    tail_correlation,
)
from .forward import compute_kernels, find_spectrum
from .hadamard import build_product, delta_at_integers

# Relative-defect denominators get this floor so that an all-noise kernel
# (zero potential at double precision) does not read as pure defect.
NORM_FLOOR = float(np.sqrt(np.finfo(float).eps))


def synthesize_u(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Truncated Fourier synthesis u(x) = (1/2pi) sum c_n exp(-i n x).

    Both n and the grid nodes are uniform, so this is one chirp-z sum.
    ``coeffs`` may stack several sequences along leading axes; each row is
    synthesized on its own.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim == 0 or coeffs.shape[-1] % 2 != 1:
        raise ValueError("coefficient sequence must cover n = -N..N")
    n_fourier = coeffs.shape[-1] // 2
    return chirp_sum(coeffs, -n_fourier, 1.0, -grid.lo, -grid.h, grid.m) / (2.0 * PI)


def support_defect(coeffs, cfg: DelayConfig) -> float:
    """Relative L2 mass of u = (1/2pi) sum c_n exp(-i n x) outside [a-pi, pi-a].

    Numerical surrogate for the exponential-type solvability condition: data
    coming from an actual potential leave (almost) no mass outside the
    kernel interval.  By Parseval, for one coefficient row, the mass on the
    period is sum |c_n|^2 / 2pi and the mass on |x| < b = pi - a is
    sum_d k_d r_d / 4pi^2, with the autocorrelation
    r_d = sum_n conj(c_n) c_{n+d} (one zero-padded FFT pair),
    k_d = 2 sin(d b)/d and k_0 = 2b.  The value is exact for the truncated
    series, and the subtraction resolves defects down to about sqrt(eps),
    which is NORM_FLOOR.  A non-finite or overflowing row reads nan.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("support_defect takes one non-empty coefficient row")
    b = PI - cfg.a
    lag = np.arange(1, c.size)
    k = np.append(2.0 * b, 2.0 * np.sin(lag * b) / lag)
    size = 1 << int(2 * c.size - 2).bit_length()
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.fft.ifft(np.abs(np.fft.fft(c, size)) ** 2)[:c.size].real
        total = r[0] / (2.0 * PI)
        # r_{-d} = conj(r_d) and k is even, so the lags d and -d add up to 2 k_d Re r_d.
        inside = (k[0] * r[0] + 2.0 * (k[1:] @ r[1:])) / (4.0 * PI**2)
        return float(np.sqrt(np.maximum(total - inside, 0.0)) / (NORM_FLOOR + np.sqrt(total)))


def assemble_w(u1: np.ndarray, u2: np.ndarray, cfg: DelayConfig, nu: int) -> WPair:
    """Build w_{nu,1}, w_{nu,2} on [a, pi] from kernel samples on [a-pi, pi-a].

    The kernel grid has 2m-1 nodes at the potential grid's spacing, so at
    the potential node x_i = a + i h the reflected arguments pi+a-2x_i and
    2x_i-pi-a are the kernel nodes 2(m-1-i) and 2i: every second sample,
    read backwards and forwards.
    """
    if nu not in (1, 2):
        raise ValueError("branch index must be 1 or 2")
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    if u1.shape != u2.shape or u1.ndim != 1 or u1.size % 2 == 0:
        raise ValueError("kernel samples must share one odd-length grid")
    pgrid = cfg.potential_grid((u1.size + 1) // 2)
    u1a, u2a = u1[::-2], u2[::-2]
    u1b, u2b = u1[::2], u2[::2]
    if nu == 2:
        w1 = (1j * u1a - u2a) - (1j * u1b + u2b)
        w2 = (u1a + 1j * u2a) + (u1b - 1j * u2b)
    else:
        w1 = -(u1a + 1j * u2a) - (u1b - 1j * u2b)
        w2 = (1j * u1a - u2a) - (1j * u1b + u2b)
    return WPair(nu, pgrid, w1, w2)


def gamma(w: WPair, x):
    """The two correction integrals at points of the open inner interval.

    gamma_1(x) = int_{x+a/2}^{pi} [w1(t) w2(t-x+a/2) - w2(t) w1(t-x+a/2)] dt
    gamma_2(x) = int_{x+a/2}^{pi} [w1(t) w1(t-x+a/2) + w2(t) w2(t-x+a/2)] dt

    The shifted argument stays inside [a, pi-a), i.e. within the already
    recovered outer set, which is what makes the correction well defined.
    ``x`` may be a scalar, giving a (complex, complex) pair, or an array,
    giving a pair of arrays of its shape.
    """
    cfg = DelayConfig(w.grid.lo)
    lo_break, hi_break = cfg.outer_break_lo, cfg.outer_break_hi
    xs = np.asarray(x, dtype=float)
    if not np.all((lo_break < xs) & (xs < hi_break)):
        raise ValueError(f"gamma needs x strictly inside ({lo_break:.6g}, {hi_break:.6g})")
    ww = np.stack((w.w1, w.w2))
    c = tail_correlation(w.grid, ww[:, None], ww[None, :], xs + 0.5 * cfg.a)
    g1 = c[0, 1] - c[1, 0]
    g2 = c[0, 0] + c[1, 1]
    if xs.ndim == 0:
        return complex(g1), complex(g2)
    return g1, g2


def recover_inner(w: WPair) -> PotentialPair:
    """The potentials on [a, pi] read off the pair w, with a = ``w.grid.lo``.

    On the outer set [a, 3a/2] u [pi-a/2, pi] they are w itself; on the open
    inner interval (3a/2, pi-a/2) the quadratic integrals gamma correct them,
    with opposite signs on the two branches: q = w1 - gamma_1 for nu = 2 but
    q = w1 + gamma_1 for nu = 1 (and the same for p); flipping the sign is
    not optional.
    """
    sign = -1.0 if w.nu == 2 else 1.0
    inner = DelayConfig(w.grid.lo).inner_mask(w.grid.nodes)
    g1, g2 = gamma(w, w.grid.nodes[inner])
    q, p = w.w1.copy(), w.w2.copy()
    q[inner] += sign * g1
    p[inner] += sign * g2
    return PotentialPair(w.grid, q, p)


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of one inversion, including the solvability diagnostics."""

    nu: int
    support_defect_1: float
    support_defect_2: float
    residual_l2: float | None
    potentials: PotentialPair

    @property
    def support_defect(self) -> float:
        return max(self.support_defect_1, self.support_defect_2)

    def to_dict(self) -> dict:
        return {
            "support_defect_1": self.support_defect_1,
            "support_defect_2": self.support_defect_2,
            "residual_l2": self.residual_l2,
        }


def invert_spectra(
    spec1: Spectrum,
    spec2: Spectrum,
    cfg: DelayConfig,
    m: int = DEFAULT_M,
    support_gate: float = DEFAULT_SUPPORT_GATE,
    verify_residual: bool = False,
) -> ReconstructionReport:
    """Full inversion of a (j=1, j=2) spectra pair for one branch.

    Raises :class:`RegimeError` for a < 2*pi/5, and :class:`SupportDefectError`
    when a synthesized kernel carries more than ``support_gate`` relative mass
    outside its allowed support (inconsistent or unrealizable spectra) or a
    defect is not finite; ``support_gate=np.inf`` turns off only the first test.
    """
    if cfg.a < A_MIN_INVERSE:
        raise RegimeError(f"inversion needs a >= 2*pi/5 = {A_MIN_INVERSE:.6g}; got a={cfg.a:.6g}")
    if spec1.nu != spec2.nu:
        raise SpectraMismatchError("spectra come from different branches nu")
    if (spec1.j, spec2.j) != (1, 2):
        raise SpectraMismatchError("need the j=1 spectrum first and the j=2 spectrum second")
    if spec1.n_max != spec2.n_max:
        raise SpectraMismatchError("spectra must be truncated at the same order")

    nu = spec1.nu
    # Far-off eigenvalues overflow the product; the gate rejects the outcome.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.stack([delta_at_integers(build_product(s)) for s in (spec1, spec2)])

    defects = [support_defect(c, cfg) for c in coeffs]
    if not (np.all(np.isfinite(defects)) and max(defects) <= support_gate):
        raise SupportDefectError(
            f"support defects {defects[0]:.3g}, {defects[1]:.3g} exceed gate {support_gate:.3g}",
            defects=defects,
        )

    u1, u2 = synthesize_u(coeffs, cfg.kernel_grid(m))
    pot = recover_inner(assemble_w(u1, u2, cfg, nu))

    residual = None
    if verify_residual:
        residual = 0.0
        ker = compute_kernels(pot, cfg, nu)
        for spec in (spec1, spec2):
            redone = find_spectrum(ker, spec.j, spec.n_max)
            residual += sequence_norm(redone.lam - spec.lam)

    return ReconstructionReport(nu, defects[0], defects[1], residual, pot)
