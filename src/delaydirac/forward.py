"""Forward solver: kernels, characteristic functions, eigenvalues, ODE oracle.

The characteristic function of the boundary problem with indices (nu, j) is a
trigonometric head plus the exponential transform of a compactly supported
kernel u_{nu,j} on [a-pi, pi-a]:

    (1,1)  -sin(pi*lam) + integral u_{1,1}(x) exp(i lam x) dx
    (1,2)   cos(pi*lam) + integral u_{1,2}(x) exp(i lam x) dx
    (2,1)   cos(pi*lam) + integral u_{2,1}(x) exp(i lam x) dx
    (2,2)   sin(pi*lam) + integral u_{2,2}(x) exp(i lam x) dx

`compute_kernels` builds u from the potentials once; evaluating the
characteristic function at any lam is then a single weighted sum, which makes
full spectrum sweeps cheap.  `delta_oracle` integrates the delay system
directly by the method of steps and provides an independent check: classical
RK4 on [a, 2a] and [2a, pi], where the delayed term is known before each
segment, so every segment is a linear recurrence solved by a blocked prefix
scan instead of a loop over steps.
"""

from __future__ import annotations

import warnings
import numpy as np

from .core import (
    PI,
    DelayConfig,
    KernelSet,
    PotentialPair,
    RootCountError,
    Spectrum,
    StepCountError,
    chirp_sum,
    interpolate,
    lattice_shift,
    scattered_sum,
    tail_correlation,
    trapezoid_weights,
)

DEFAULT_ORACLE_STEP = PI / 4000.0
# Cap on the block length of the oracle's prefix scan.
SCAN_BLOCK = 64

# Residual gate for accepting a Newton root, relative to 1+|lam|.
RESIDUAL_TOL = 1e-12
# Newton's step cap; the counting contour's samples per unit, phase step and size caps.
NEWTON_ITERATIONS = 60
CONTOUR_SAMPLES_PER_UNIT = 8.0
CONTOUR_PHASE_TOL = 1.0
CONTOUR_MAX_POINTS = 400000
# The counting rectangle reaches ROOT_BOX_RE beyond the outermost lattice
# guesses and spans |Im lam| <= ROOT_BOX_IM.
ROOT_BOX_RE = 0.5
ROOT_BOX_IM = 1.0
# Every point of the counting rectangle lies this close to its nearest
# lattice guess; the Taylor expansion about the lattice is used within this
# distance.
LATTICE_RADIUS = float(np.hypot(ROOT_BOX_RE, ROOT_BOX_IM))
# FFT rounding allowed in the expansion's error bound E, in units of
# eps log2(n_fft).  The chirp-z pass behind the moments takes three FFTs plus
# chirp phases; against a long-double sum its error reaches 12 units at
# (M, N) = (4096, 1600), x25 amplitude, and 0.5 at (512, 60), x12.
FFT_ROUNDING = 32.0


def trig_head(nu: int, j: int, lam):
    lam = np.asarray(lam, dtype=complex)
    if (nu, j) == (1, 1):
        return -np.sin(PI * lam)
    if (nu, j) in ((1, 2), (2, 1)):
        return np.cos(PI * lam)
    if (nu, j) == (2, 2):
        return np.sin(PI * lam)
    raise ValueError("branch indices must be 1 or 2")


def trig_head_prime(nu: int, j: int, lam):
    lam = np.asarray(lam, dtype=complex)
    if (nu, j) == (1, 1):
        return -PI * np.cos(PI * lam)
    if (nu, j) in ((1, 2), (2, 1)):
        return -PI * np.sin(PI * lam)
    if (nu, j) == (2, 2):
        return PI * np.cos(PI * lam)
    raise ValueError("branch indices must be 1 or 2")


def _check_branch(nu: int, j: int | None = None) -> None:
    if nu not in (1, 2):
        raise ValueError("branch index nu must be 1 or 2")
    if j is not None and j not in (1, 2):
        raise ValueError("boundary index j must be 1 or 2")


def compute_kernels(pot: PotentialPair, cfg: DelayConfig, nu: int) -> KernelSet:
    """Evaluate the kernels v_{nu,1}, v_{nu,2}, u_{nu,1}, u_{nu,2}.

    On the outer part of [a-pi, pi-a] the kernels read off the potentials
    directly; on the open middle part (2a-pi, pi-2a) they pick up the
    correlation integral over t in [(pi+2a-x)/2, pi] of the potentials at t
    against the potentials at t - (pi-x)/2, one `tail_correlation` for all
    inner nodes.
    """
    _check_branch(nu)
    a = cfg.a
    pgrid = pot.grid
    if not cfg.covers(pgrid):
        raise ValueError("potential grid does not cover [a, pi] for this delay")
    kgrid = cfg.kernel_grid(pgrid.m)
    x = kgrid.nodes
    tau = 0.5 * (PI + a - x)
    q_tau = interpolate(pgrid, pot.q, tau)
    p_tau = interpolate(pgrid, pot.p, tau)

    if nu == 1:
        v1 = 0.5 * p_tau
        v2 = -0.5 * q_tau
    else:
        v1 = 0.5 * q_tau
        v2 = 0.5 * p_tau

    brk = cfg.kernel_break
    inner = (x > -brk) & (x < brk)
    qp = np.stack((pot.q, pot.p))
    c = tail_correlation(pgrid, qp[:, None], qp[None, :], 0.5 * (PI + 2.0 * a - x[inner]))
    i_pp = c[0, 0] + c[1, 1]
    i_qp = c[0, 1] - c[1, 0]
    if nu == 1:
        v1[inner] -= 0.5 * i_pp
        v2[inner] += 0.5 * i_qp
    else:
        v1[inner] += 0.5 * i_qp
        v2[inner] += 0.5 * i_pp

    # The kernel grid is symmetric about 0, so v(-x) is the reversed array.
    v1r = v1[::-1]
    v2r = v2[::-1]
    u1 = (v1 - v1r) / 2j + (v2 + v2r) / 2.0
    u2 = (v2 - v2r) / 2j - (v1 + v1r) / 2.0
    return KernelSet(nu, kgrid, v1, v2, u1, u2)


def _weights(ker: KernelSet, j: int) -> np.ndarray:
    """Trapezoid-weighted kernel samples: the transform is sum_k g_k exp(i lam x_k)."""
    return ker.u(j) * trapezoid_weights(ker.grid)


def _as_lambda_array(lam):
    lam_arr = np.asarray(lam, dtype=complex)
    return lam_arr.reshape(-1), lam_arr.shape, np.ndim(lam) == 0


def _check_finite_lambda(flat: np.ndarray) -> None:
    if not np.all(np.isfinite(flat)):
        raise ValueError("lambda must be finite")


def _check_no_overflow(ok: np.ndarray, flat: np.ndarray, what: str) -> None:
    """Raise ValueError naming the worst lambda (largest |Im|) where ``ok`` is False."""
    bad = ~ok
    if bad.any():
        worst = flat[bad][np.argmax(np.abs(flat[bad].imag))]
        raise ValueError(f"{what} overflows at {bad.sum()} of {flat.size} lambda; "
                         f"worst lambda = {complex(worst):.9g}")


def _characteristic(ker: KernelSet, j: int, lam, head, g):
    """head(lam) + sum_k g_k exp(i lam x_k) over the kernel grid, scalar or array."""
    flat, shape, scalar = _as_lambda_array(lam)
    _check_finite_lambda(flat)
    # A large |Im lam| may leave the double range; that is reported below.
    with np.errstate(all="ignore"):
        vals = head(ker.nu, j, flat) + scattered_sum(g, ker.grid.lo, ker.grid.h, flat)
    _check_no_overflow(np.isfinite(vals), flat, "characteristic function")
    return complex(vals[0]) if scalar else vals.reshape(shape)


def delta_eval(ker: KernelSet, j: int, lam):
    """Characteristic function at lam (scalar or array)."""
    _check_branch(ker.nu, j)
    return _characteristic(ker, j, lam, trig_head, _weights(ker, j))


def delta_prime(ker: KernelSet, j: int, lam):
    """Analytic lambda-derivative of the characteristic function."""
    _check_branch(ker.nu, j)
    return _characteristic(ker, j, lam, trig_head_prime, _weights(ker, j) * (1j * ker.grid.nodes))


# -- method-of-steps oracle ----------------------------------------------------


def _rotation(lam: np.ndarray, x: float) -> np.ndarray:
    """Fundamental matrix of the potential-free system, shape (L, 2, 2)."""
    c = np.cos(lam * x)
    s = np.sin(lam * x)
    out = np.empty(lam.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c
    return out


def _rk4_scan(z, h, u, forcing, n, hist=None):
    """n classical RK4 steps of u' = mu u + F(x), z = mu h, as a linear recurrence.

    One step is u_{k+1} = t u_k + b_k, where t = T(z) is the RK4 polynomial
    and b_k weights the forcing at the step's three stage abscissae.  The
    steps are taken in blocks: inside a block u_{s+j} = t^j (u_s + sum_{m<j}
    t^-(m+1) b_{s+m}) is one cumsum, and the state is carried from block to
    block.  The block is short enough that |t|^(+-block) stays O(1).

    The powers t^j, j <= block, are built as t^j - 1 by doubling from
    t - 1.  Rounding t itself to a double would add a systematic error that
    grows with the number of steps: 2e-13 to 4e-13 against the per-step
    loop in the tests' cases, where this way stays at 1e-14 to 1e-13.

    ``forcing(slice(2s, 2(s+k)+1))`` returns F at the 2k+1 stage abscissae
    of steps s..s+k-1 (node, midpoint, node, ...).  Returns u_n, and fills
    ``hist[1:n+1]`` with u_1..u_n when given.
    """
    excess = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    c_node = (h / 6.0) * (1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 2.0)))
    c_mid = (h / 6.0) * (4.0 + z * (2.0 + z / 2.0))
    # log|t| ~ |Im lam| h per step, so |t|^(+-block) <= e.
    growth = float(np.max(np.abs(np.log(np.abs(1.0 + excess)))))
    block = min(n, SCAN_BLOCK if not growth > 1.0 / SCAN_BLOCK else max(1, int(1.0 / growth)))
    grow = np.stack((np.zeros_like(excess), excess))
    while len(grow) <= block:
        top = grow[-1] + excess + grow[-1] * excess
        grow = np.concatenate((grow, grow + top + grow * top))
    power = 1.0 + grow[1:block + 1]
    inverse = 1.0 / power
    for s in range(0, n, block):
        k = min(block, n - s)
        f = forcing(slice(2 * s, 2 * (s + k) + 1))
        b = c_node * f[0:-1:2] + c_mid * f[1::2] + (h / 6.0) * f[2::2]
        steps = power[:k] * (u + np.cumsum(inverse[:k] * b, axis=0))
        if hist is not None:
            hist[s + 1:s + k + 1] = steps
        u = steps[-1]
    return u


def _exp_pair(flat: np.ndarray, d) -> np.ndarray:
    """(e^{i lam d}, e^{-i lam d}) at every d, shape d.shape + (2, L)."""
    e = np.exp(1j * np.multiply.outer(d, flat))
    return np.stack((e, 1.0 / e), axis=-2)


def _free_blocks(flat, coef, half_step, span):
    """The free solution coef (e^{i lam d}, e^{-i lam d}) at d = half_step i, by slices of i.

    ``free(sl)`` has shape (len, 2, L) for a slice of at most ``span``
    indices: a per-block base at d = half_step sl.start times a per-offset
    table at d = half_step r, r < span, built once.  A block of the scan then
    takes L exponentials instead of one per stage abscissa and lambda.
    """
    table = coef[:, None] * _exp_pair(flat, half_step * np.arange(span))

    def free(sl):
        return table[:sl.stop - sl.start] * _exp_pair(flat, half_step * sl.start)

    return free


def _integrate_delay_system(pot, cfg, flat, step, x_stop, column):
    """Column ``column`` of the fundamental matrix at x_stop, shape (L, 2).

    Classical RK4 by the method of steps from a, written in the eigen-
    coordinates w = y0 + i y1, v = y0 - i y1 of J:

        w' =  i lam w + (p - iq) v(x-a),    v' = -i lam v + (p + iq) w(x-a).

    On [a, 2a] the delayed coordinates are the exact free solution; on
    [2a, pi] they are linear interpolants of the stored [a, 2a] segment,
    which is all they ever look back into because x - a <= pi - a <= 2a.
    Either way the forcing is known before a segment is integrated, so each
    segment is the linear recurrence of `_rk4_scan`.  The two columns do not
    couple, so only the requested one is integrated.
    """
    _check_finite_lambda(flat)
    a = cfg.a
    mu = np.stack((1j * flat, -1j * flat))
    # On [0, a] the column is the free solution coef * (e^{i lam x}, e^{-i lam x}).
    coef = np.array([1j, -1j]) if column else np.ones(2)
    n1 = int(np.ceil(a / step))
    h1 = a / n1
    if x_stop <= 2.0 * a:
        n = int(np.ceil((x_stop - a) / h1))
        segments = [(a, (x_stop - a) / n, n)]
    else:
        n2 = max(1, int(np.ceil((x_stop - 2.0 * a) / step)))
        segments = [(a, h1, n1), (2.0 * a, (x_stop - 2.0 * a) / n2, n2)]

    # Potential samples at all stage abscissae (node, midpoint, node, ...), taken once.
    stage = [x0 + 0.5 * h * np.arange(2 * n + 1) for x0, h, n in segments]
    pts = np.clip(np.concatenate(stage), pot.grid.lo, pot.grid.hi)
    q_st = interpolate(pot.grid, pot.q, pts)
    p_st = interpolate(pot.grid, pot.p, pts)
    # w' is forced by v(x-a) and v' by w(x-a): the weights act on swapped lanes.
    weights = np.stack((p_st - 1j * q_st, p_st + 1j * q_st), axis=1)[:, :, None]
    weights = np.split(weights, np.cumsum([len(xs) for xs in stage[:-1]]))
    hist = np.empty((n1 + 1, 2, flat.size), dtype=complex) if len(segments) == 2 else None
    # On [a, 2a] the delay x - a runs over the first segment's stage lattice
    # (h0/2) i; at x = 2a and before it equals a, where the column is at_a.
    # A growing solution may leave the double range; that is reported below.
    _, h0, n0 = segments[0]
    with np.errstate(all="ignore"):
        free = _free_blocks(flat, coef, 0.5 * h0, 2 * min(n0, SCAN_BLOCK) + 1)
        at_a = coef[:, None] * _exp_pair(flat, a)

    def interpolated(d):
        pos = (d - a) / h1
        i = np.minimum(pos.astype(int), n1 - 1)
        th = (pos - i)[:, None, None]
        out = (1.0 - th) * hist[i] + th * hist[i + 1]
        out[d <= a + 1e-12 * PI] = at_a
        return out

    def forcing(seg):
        gs = weights[seg]
        if seg == 0:
            return lambda sl: gs[sl] * free(sl)[:, ::-1]
        return lambda sl: gs[sl] * interpolated(stage[seg][sl] - a)[:, ::-1]

    with np.errstate(all="ignore"):
        u = at_a
        if hist is not None:
            hist[0] = u
        for seg, (_, h, n) in enumerate(segments):
            u = _rk4_scan(mu * h, h, u, forcing(seg), n, hist if seg == 0 else None)
        w, v = u
        y = np.stack((0.5 * (w + v), -0.5j * (w - v)), axis=1)
    _check_no_overflow(np.all(np.isfinite(y), axis=1), flat,
                       f"fundamental matrix on [a, {x_stop:.6g}]")
    return y


def _check_oracle_args(cfg, step):
    if step > (PI - cfg.a) / 64.0:
        raise StepCountError(
            f"step {step:.3g} gives too few steps on [a, pi]; "
            f"need step <= {(PI - cfg.a) / 64.0:.3g}"
        )


def transition_state(pot: PotentialPair, cfg: DelayConfig, lam: complex, x: float,
                     step: float = DEFAULT_ORACLE_STEP) -> np.ndarray:
    """Fundamental matrix Y(x, lam) of the delay system (read-only 2x2 array).

    Y is the free rotation on [0, a]; Y(pi)[j-1, 2-nu] is delta_{nu,j}(lam).
    """
    if not 0.0 <= x <= PI + 1e-12:
        raise ValueError("position must lie in [0, pi]")
    flat = np.array([lam], dtype=complex)
    _check_finite_lambda(flat)
    if x <= cfg.a:
        y = _rotation(flat, x)[0]
    else:
        _check_oracle_args(cfg, step)
        y = np.stack([_integrate_delay_system(pot, cfg, flat, step, x, col)[0]
                      for col in (0, 1)], axis=1)
    y.setflags(write=False)
    return y


def delta_oracle(pot: PotentialPair, cfg: DelayConfig, nu: int, j: int, lam,
                 step: float = DEFAULT_ORACLE_STEP):
    """Characteristic function via direct integration of the delay system.

    Returns the entry y_{j, 3-nu} of the fundamental matrix at pi, i.e. the
    same quantity as `delta_eval` but computed without the kernels; `lam`
    may be a scalar or an array.
    """
    _check_branch(nu, j)
    _check_oracle_args(cfg, step)
    flat, shape, scalar = _as_lambda_array(lam)
    vals = _integrate_delay_system(pot, cfg, flat, step, PI, 2 - nu)[:, j - 1]
    return complex(vals[0]) if scalar else vals.reshape(shape)


# -- spectrum finder -------------------------------------------------------------


def _winding_count(fn, re_lo, re_hi, im_lo, im_hi) -> int:
    """Number of zeros inside a rectangle by tracking the argument of fn.

    The boundary is sampled and refined until consecutive phase steps are
    below CONTOUR_PHASE_TOL, which rules out aliasing of full turns; a step still
    too large at the round-off length of z cannot be refined, so the count
    fails there.
    """
    corners = np.array([re_lo + 1j * im_lo, re_hi + 1j * im_lo,
                        re_hi + 1j * im_hi, re_lo + 1j * im_hi])
    z_pieces = []
    for k in range(4):
        z0, z1 = corners[k], corners[(k + 1) % 4]
        n = max(8, int(np.ceil(abs(z1 - z0) * CONTOUR_SAMPLES_PER_UNIT)))
        z_pieces.append(z0 + (z1 - z0) * (np.arange(n) / n))
    z = np.concatenate(z_pieces)
    f = fn(z)
    resolution = 64.0 * np.finfo(float).eps * np.max(np.abs(corners))
    while True:
        if not np.all(np.isfinite(f)) or np.any(np.abs(f) < 1e-280):
            raise RootCountError("characteristic function vanishes or is not finite on the contour")
        dphi = np.angle(np.roll(f, -1) / f)
        bad = np.abs(dphi) > CONTOUR_PHASE_TOL
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        z_next = np.roll(z, -1)[idx]
        if z.size > CONTOUR_MAX_POINTS or np.any(np.abs(z_next - z[idx]) <= resolution):
            worst = idx[np.argmax(np.abs(dphi[idx]))]
            raise RootCountError(
                f"contour refinement did not stabilize: {idx.size} unresolved phase "
                f"jump(s), worst {abs(dphi[worst]):.3g} rad at z = {complex(z[worst]):.9g}"
            )
        mids = 0.5 * (z[idx] + z_next)
        z = np.insert(z, idx + 1, mids)
        f = np.insert(f, idx + 1, fn(mids))
    total = float(np.sum(dphi)) / (2.0 * PI)
    count = int(np.round(total))
    if abs(total - count) > 0.25:
        raise RootCountError(f"winding number {total:.3f} is not close to an integer")
    return count


def _taylor_order(rx: float) -> int:
    """Smallest P with (rx)^(P+1) e^rx / (P+1)! <= 2^-53.

    For |delta| <= r and |x| <= X, rx = r X, that bounds the remainder of
    exp(i delta x) after the powers up to P, and with it the truncation
    error of a weighted sum of such terms relative to the weights' l1 norm.
    """
    order, bound = 0, rx * np.exp(rx)
    while bound > 2.0**-53:
        order += 1
        bound *= rx / (order + 1)
    return order


def _horner(coef: np.ndarray, d: np.ndarray, col: np.ndarray) -> np.ndarray:
    """sum_p coef[p, col] d^p: at each d, the polynomial in its column of ``coef``."""
    out = coef[-1, col]
    for c in coef[-2::-1]:
        out *= d
        out += c[col]
    return out


class _LatticeTaylor:
    """Characteristic function of branch (ker.nu, j) about the lattice c_n, |n| <= N.

    The centres are c_n = n + s, the lattice guesses.  With lam = c_n + d for
    the nearest centre, exp(i lam x) = exp(i c_n x) sum_p (i d x)^p / p!, so
    the transform is sum_p d^p / p! S_p(n) and its derivative sum_p d^p / p!
    S_{p+1}(n), with the moments S_p(n) = sum_k g_k (i x_k)^p exp(i c_n x_k)
    for p = 0..P+1 taken in one batched chirp-z sum.  P comes from
    `_taylor_order` at r = LATTICE_RADIUS and X = max |x_k|, so an evaluation
    is one Horner pass of O(P) per point.  Every point of the counting
    rectangle lies within r of its nearest centre; points farther out take
    the dense sums.

    ``error`` is E = ||g||_1 (2^-53 + FFT_ROUNDING eps log2 n_fft): the
    truncation bound that fixes P, plus the rounding of the length-n_fft
    FFTs that produce the moments.
    """

    def __init__(self, ker: KernelSet, j: int, n_max: int):
        grid = ker.grid
        x = grid.nodes
        g = _weights(ker, j)
        count = 2 * n_max + 1
        order = _taylor_order(LATTICE_RADIUS * float(np.max(np.abs(x))))
        weighted = np.vander(1j * x, order + 2, increasing=True).T
        weighted *= g
        lam0 = -n_max + lattice_shift(ker.nu, j)
        moments = chirp_sum(weighted, grid.lo, grid.h, lam0, 1.0, count)
        inv_fact = 1.0 / np.cumprod(np.maximum(np.arange(order + 1), 1.0))
        self.ker, self.j = ker, j
        self.centers = lam0 + np.arange(count, dtype=float)
        self.value_coef = moments[:-1] * inv_fact[:, None]
        self.slope_coef = moments[1:] * inv_fact[:, None]
        # chirp_sum transforms at length n_fft = 2^bit_length(L + count - 2).
        log2_fft = (x.size + count - 2).bit_length()
        eps = np.finfo(float).eps
        self.error = float(np.sum(np.abs(g))) * (2.0**-53 + FFT_ROUNDING * eps * log2_fft)

    def _sum(self, lam, coef, head, dense):
        """head + the series about the nearest centre, or the dense sum beyond r of it."""
        last = self.centers.size - 1
        col = np.rint(np.fmin(np.fmax(lam.real - self.centers[0], 0.0), last)).astype(np.intp)
        d = lam - self.centers[col]
        far = np.abs(d) > LATTICE_RADIUS
        d[far] = 0.0
        out = head(self.ker.nu, self.j, lam) + _horner(coef, d, col)
        if far.any():
            out[far] = dense(self.ker, self.j, lam[far])
        return out

    def value(self, lam: np.ndarray) -> np.ndarray:
        return self._sum(lam, self.value_coef, trig_head, delta_eval)

    def __call__(self, lam: np.ndarray):
        """Value and derivative at lam, as Newton takes them."""
        return self.value(lam), self._sum(lam, self.slope_coef, trig_head_prime, delta_prime)

    def certify(self, lam: np.ndarray):
        """Residual |f_T| / (1 + |lam|), and the gate |f_T| + E <= RESIDUAL_TOL (1 + |lam|)."""
        scale = 1.0 + np.abs(lam)
        res = np.abs(self.value(lam))
        return res / scale, res + self.error <= RESIDUAL_TOL * scale


def _newton(evaluate, start: np.ndarray) -> np.ndarray:
    """Newton's method from each start point; ``evaluate(lam)`` gives (f, f')."""
    lam = np.array(start, dtype=complex)
    for _ in range(NEWTON_ITERATIONS):
        f, fp = evaluate(lam)
        fp = np.where(np.abs(fp) < 1e-300, 1.0, fp)
        delta = f / fp
        lam = lam - delta
        if np.all(np.abs(delta) <= 1e-14 * (1.0 + np.abs(lam))):
            break
    return lam


def _certified(taylor: _LatticeTaylor, roots) -> np.ndarray:
    """The distinct roots that pass the expansion's residual gate, sorted.

    Roots closer than 1e-8 count as one.  The passing root with the largest
    residual is also evaluated densely, as a tripwire for the expansion
    itself: if it fails the gate there, the expansion is wrong and
    RootCountError is raised.
    """
    res, ok = taylor.certify(roots)
    if ok.any():
        k = np.flatnonzero(ok)[np.argmax(res[ok])]
        lam = complex(roots[k])
        dense = abs(delta_eval(taylor.ker, taylor.j, lam))
        if dense > RESIDUAL_TOL * (1.0 + abs(lam)):
            raise RootCountError(
                f"lattice expansion residual {res[k]:.3g} at lam = {lam:.9g}, but the dense "
                f"residual {dense / (1.0 + abs(lam)):.3g} fails the gate {RESIDUAL_TOL:.3g}"
            )
    passed = np.sort_complex(roots[ok])
    return passed[np.abs(np.diff(passed, prepend=np.inf)) > 1e-8]


def _subdivision_search(fn, polish, rect, count, known) -> list:
    """Locate the ``count`` zeros in ``rect`` by recursive bisection of the count.

    A cell whose count equals the number of ``known`` roots inside it keeps
    them.  Any other cell with one zero takes ``polish`` of its centre, a
    certified root or None, if that root lies in the cell; a new root outside
    it joins the known ones.  The rest are split, and each half is counted
    once.
    """
    known = np.asarray(known, dtype=complex)
    stack = [(rect, count)]
    roots = []
    budget = 64 * count + 256
    while stack:
        budget -= 1
        if budget < 0:
            raise RootCountError("rectangle subdivision budget exhausted")
        (re_lo, re_hi, im_lo, im_hi), count = stack.pop()
        if count == 0:
            continue
        inside = known[(re_lo <= known.real) & (known.real <= re_hi)
                       & (im_lo <= known.imag) & (known.imag <= im_hi)]
        if inside.size == count:
            roots.extend(inside)
            continue
        center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
        if count == 1:
            root = polish(center)
            if root is not None and re_lo <= root.real <= re_hi and im_lo <= root.imag <= im_hi:
                roots.append(root)
                continue
            # The cell that holds it then keeps it instead of polishing again.
            if root is not None and np.all(np.abs(np.append(known, roots) - root) > 1e-8):
                known = np.append(known, root)
        if max(re_hi - re_lo, im_hi - im_lo) < 1e-9:
            if count > 1:
                warnings.warn(
                    f"multiplicity {count} cluster near {center:.9g}; reported verbatim",
                    RuntimeWarning,
                )
            roots.extend([center] * count)
            continue
        # Split the longer side, with a deterministic off-center offset so the
        # cut line is unlikely to pass through a zero.
        if re_hi - re_lo >= im_hi - im_lo:
            cut = 0.5 * (re_lo + re_hi) + 0.0123456789 * (re_hi - re_lo) / 2.0
            halves = ((re_lo, cut, im_lo, im_hi), (cut, re_hi, im_lo, im_hi))
        else:
            cut = 0.5 * (im_lo + im_hi) + 0.0123456789 * (im_hi - im_lo) / 2.0
            halves = ((re_lo, re_hi, im_lo, cut), (re_lo, re_hi, cut, im_hi))
        stack.extend((cell, _winding_count(fn, *cell)) for cell in halves)
    return roots


def find_spectrum(ker: KernelSet, j: int, n_max: int) -> Spectrum:
    """Locate the eigenvalues lambda_n for |n| <= n_max of branch (ker.nu, j).

    Newton iteration from the lattice guesses n + shift; the distinct roots
    that pass the residual gate seed a rectangle-subdivision search, which
    starts from the argument-principle count of the enclosing rectangle and
    keeps every cell whose count equals the seeds inside it, so it counts
    no further cell when Newton found all 2 n_max + 1.  All of them evaluate
    through one `_LatticeTaylor`.
    """
    _check_branch(ker.nu, j)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    taylor = _LatticeTaylor(ker, j, n_max)
    known = _certified(taylor, _newton(taylor, taylor.centers.astype(complex)))

    expected = 2 * n_max + 1
    rect = (taylor.centers[0] - ROOT_BOX_RE, taylor.centers[-1] + ROOT_BOX_RE,
            -ROOT_BOX_IM, ROOT_BOX_IM)
    count = _winding_count(taylor.value, *rect)
    if count != expected:
        raise RootCountError(
            f"contour count {count} != {expected} for (nu={ker.nu}, j={j}); "
            "kernel grid too coarse or pathological potential"
        )

    def polish(z0):
        root = _newton(taylor, np.array([z0]))
        return complex(root[0]) if taylor.certify(root)[1][0] else None

    found = _subdivision_search(taylor.value, polish, rect, count, known)
    if len(found) != expected:
        raise RootCountError(
            f"subdivision found {len(found)} roots, expected {expected}; "
            "kernel grid too coarse or pathological potential"
        )
    return Spectrum(ker.nu, j, n_max, np.sort_complex(np.array(found, dtype=complex)))
