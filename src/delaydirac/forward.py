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
directly by the method of steps and provides an independent check.
"""

from __future__ import annotations

import warnings
import numpy as np

from .core import (
    PI,
    A_MIN_FORWARD,
    DelayConfig,
    KernelSet,
    PotentialPair,
    RegimeError,
    RootCountError,
    Spectrum,
    StepCountError,
    chirp_sum,
    interpolate,
    lattice_shift,
    tail_correlation,
    trapezoid_weights,
)

DEFAULT_ORACLE_STEP = PI / 4000.0

# Residual gate for accepting a Newton root, relative to 1+|lam|.
RESIDUAL_TOL = 1e-12
# Half-widths of the per-root acceptance rectangle around the lattice guess.
ROOT_BOX_RE = 0.5
ROOT_BOX_IM = 1.0
# Every point of a root's box, and so of the counting rectangle, lies this
# close to its nearest lattice guess; the Taylor expansion about the lattice
# is used within this distance.
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
    if not (np.isclose(pgrid.lo, a, atol=1e-9) and np.isclose(pgrid.hi, PI, atol=1e-9)):
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


def _transform(ker: KernelSet, j: int, lam_flat: np.ndarray, with_x: bool) -> np.ndarray:
    """Weighted sum approximating integral of u(x) [i x]^k exp(i lam x) dx."""
    x = ker.grid.nodes
    g = _weights(ker, j)
    if with_x:
        g = g * (1j * x)
    out = np.empty(lam_flat.shape, dtype=complex)
    step = max(1, int(2**22 // max(x.size, 1)))
    for start in range(0, lam_flat.size, step):
        blk = lam_flat[start:start + step]
        out[start:start + step] = np.exp(1j * np.multiply.outer(blk, x)) @ g
    return out


def _as_lambda_array(lam):
    lam_arr = np.asarray(lam, dtype=complex)
    return lam_arr.reshape(-1), lam_arr.shape, np.ndim(lam) == 0


def delta_eval(ker: KernelSet, j: int, lam):
    """Characteristic function at lam (scalar or array)."""
    _check_branch(ker.nu, j)
    flat, shape, scalar = _as_lambda_array(lam)
    vals = trig_head(ker.nu, j, flat) + _transform(ker, j, flat, with_x=False)
    return complex(vals[0]) if scalar else vals.reshape(shape)


def delta_prime(ker: KernelSet, j: int, lam):
    """Analytic lambda-derivative of the characteristic function."""
    _check_branch(ker.nu, j)
    flat, shape, scalar = _as_lambda_array(lam)
    vals = trig_head_prime(ker.nu, j, flat) + _transform(ker, j, flat, with_x=True)
    return complex(vals[0]) if scalar else vals.reshape(shape)


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


def _integrate_delay_system(pot, cfg, flat, step, x_stop):
    """Advance the fundamental matrix from a to x_stop by the method of steps.

    On [a, 2a] the delayed term is the exact rotation; on [2a, pi] it is read
    from the stored trajectory by linear interpolation, which only ever
    looks back into the uniformly sampled [a, 2a] segment because the
    delayed argument never exceeds pi - a <= 2a.  Classical fourth-order
    stepping throughout, vectorized over lam.
    """
    a = cfg.a
    n1 = int(np.ceil(a / step))
    h1 = a / n1
    if x_stop <= 2.0 * a:
        n_steps = int(np.ceil((x_stop - a) / h1))
        seg_nodes = a + (x_stop - a) / n_steps * np.arange(n_steps + 1)
        steps = [(seg_nodes[k], seg_nodes[k + 1] - seg_nodes[k]) for k in range(n_steps)]
    else:
        n2 = max(1, int(np.ceil((x_stop - 2.0 * a) / step)))
        h2 = (x_stop - 2.0 * a) / n2
        seg_nodes = np.concatenate((a + h1 * np.arange(n1 + 1),
                                    2.0 * a + h2 * np.arange(1, n2 + 1)))
        steps = [(seg_nodes[k], h1 if k < n1 else h2) for k in range(len(seg_nodes) - 1)]

    # Potential samples at all stage abscissae, taken once.
    stage_pts = []
    for x0, h in steps:
        stage_pts.extend((x0, x0 + 0.5 * h, x0 + h))
    stage_pts = np.clip(np.asarray(stage_pts), pot.grid.lo, pot.grid.hi)
    q_st = interpolate(pot.grid, pot.q, stage_pts)
    p_st = interpolate(pot.grid, pot.p, stage_pts)

    hist = np.empty((len(steps) + 1,) + flat.shape + (2, 2), dtype=complex)
    hist[0] = _rotation(flat, a)

    def rhs(y, qv, pv, ydel):
        # B y' = lam y - Q y(x-a)  with  B^{-1} = -B.
        out = np.empty_like(y)
        out[:, 0, :] = -flat[:, None] * y[:, 1, :] + pv * ydel[:, 0, :] - qv * ydel[:, 1, :]
        out[:, 1, :] = flat[:, None] * y[:, 0, :] - qv * ydel[:, 0, :] - pv * ydel[:, 1, :]
        return out

    def delayed(xq):
        d = xq - a
        if d <= a + 1e-12 * PI:
            return _rotation(flat, min(d, a))
        pos = (d - a) / h1
        i = min(int(pos), n1 - 1)
        th = pos - i
        return (1.0 - th) * hist[i] + th * hist[i + 1]

    y = hist[0].copy()
    for k, (x0, h) in enumerate(steps):
        qa, pa = q_st[3 * k], p_st[3 * k]
        qm, pm = q_st[3 * k + 1], p_st[3 * k + 1]
        qb, pb = q_st[3 * k + 2], p_st[3 * k + 2]
        d0 = delayed(x0)
        dm = delayed(x0 + 0.5 * h)
        d1 = delayed(x0 + h)
        k1 = rhs(y, qa, pa, d0)
        k2 = rhs(y + 0.5 * h * k1, qm, pm, dm)
        k3 = rhs(y + 0.5 * h * k2, qm, pm, dm)
        k4 = rhs(y + h * k3, qb, pb, d1)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        hist[k + 1] = y
    return y


def _check_oracle_args(cfg, step):
    if cfg.a < A_MIN_FORWARD - 1e-12:
        raise RegimeError("oracle requires the forward regime a >= pi/3")
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
    if x <= cfg.a:
        y = _rotation(flat, x)[0]
    else:
        _check_oracle_args(cfg, step)
        y = _integrate_delay_system(pot, cfg, flat, step, x)[0]
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
    y = _integrate_delay_system(pot, cfg, flat, step, PI)
    vals = y[:, j - 1, 2 - nu]
    return complex(vals[0]) if scalar else vals.reshape(shape)


# -- spectrum finder -------------------------------------------------------------


def _winding_count(fn, re_lo, re_hi, im_lo, im_hi,
                   samples_per_unit=8.0, phase_tol=1.0, max_points=400000) -> int:
    """Number of zeros inside a rectangle by tracking the argument of fn.

    The boundary is sampled and refined until consecutive phase steps are
    below ``phase_tol``, which rules out aliasing of full turns; a step still
    too large at the round-off length of z cannot be refined, so the count
    fails there.
    """
    corners = np.array([re_lo + 1j * im_lo, re_hi + 1j * im_lo,
                        re_hi + 1j * im_hi, re_lo + 1j * im_hi])
    z_pieces = []
    for k in range(4):
        z0, z1 = corners[k], corners[(k + 1) % 4]
        n = max(8, int(np.ceil(abs(z1 - z0) * samples_per_unit)))
        z_pieces.append(z0 + (z1 - z0) * (np.arange(n) / n))
    z = np.concatenate(z_pieces)
    f = fn(z)
    resolution = 64.0 * np.finfo(float).eps * np.max(np.abs(corners))
    while True:
        if np.any(np.abs(f) < 1e-280):
            raise RootCountError("characteristic function vanishes on the counting contour")
        dphi = np.angle(np.roll(f, -1) / f)
        bad = np.abs(dphi) > phase_tol
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        z_next = np.roll(z, -1)[idx]
        if z.size > max_points or np.any(np.abs(z_next - z[idx]) <= resolution):
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


def _newton(evaluate, start: np.ndarray, iterations=60) -> np.ndarray:
    """Newton's method from each start point; ``evaluate(lam)`` gives (f, f')."""
    lam = np.array(start, dtype=complex)
    for _ in range(iterations):
        f, fp = evaluate(lam)
        fp = np.where(np.abs(fp) < 1e-300, 1.0, fp)
        delta = f / fp
        lam = lam - delta
        if np.all(np.abs(delta) <= 1e-14 * (1.0 + np.abs(lam))):
            break
    return lam


def _accepted(taylor: _LatticeTaylor, roots, guesses) -> np.ndarray:
    """Roots that pass the expansion's residual gate and stay in their box.

    The passing root with the largest residual is also evaluated densely, as
    a tripwire for the expansion itself: if it fails the gate there, the
    expansion is wrong and RootCountError is raised.
    """
    res, ok = taylor.certify(roots)
    ok &= np.abs(roots.real - guesses.real) <= ROOT_BOX_RE
    ok &= np.abs(roots.imag) <= ROOT_BOX_IM
    if ok.any():
        k = np.flatnonzero(ok)[np.argmax(res[ok])]
        lam = complex(roots[k])
        dense = abs(delta_eval(taylor.ker, taylor.j, lam))
        if dense > RESIDUAL_TOL * (1.0 + abs(lam)):
            raise RootCountError(
                f"lattice expansion residual {res[k]:.3g} at lam = {lam:.9g}, but the dense "
                f"residual {dense / (1.0 + abs(lam)):.3g} fails the gate {RESIDUAL_TOL:.3g}"
            )
    return ok


def _subdivision_search(fn, polish, rect, expected_max) -> list:
    """Locate all zeros in ``rect`` by recursive bisection of the count.

    ``polish``, when given, maps a starting point to a certified root or to
    None; a root is kept only if it stays inside the cell, otherwise the cell
    is split further.
    """
    stack = [rect]
    roots = []
    budget = 64 * expected_max + 256
    while stack:
        budget -= 1
        if budget < 0:
            raise RootCountError("rectangle subdivision budget exhausted")
        re_lo, re_hi, im_lo, im_hi = stack.pop()
        count = _winding_count(fn, re_lo, re_hi, im_lo, im_hi)
        if count == 0:
            continue
        center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
        if count == 1 and polish is not None:
            root = polish(center)
            if root is not None and re_lo <= root.real <= re_hi and im_lo <= root.imag <= im_hi:
                roots.append(root)
                continue
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
            stack.append((re_lo, cut, im_lo, im_hi))
            stack.append((cut, re_hi, im_lo, im_hi))
        else:
            cut = 0.5 * (im_lo + im_hi) + 0.0123456789 * (im_hi - im_lo) / 2.0
            stack.append((re_lo, re_hi, im_lo, cut))
            stack.append((re_lo, re_hi, cut, im_hi))
    return roots


def find_spectrum(ker: KernelSet, j: int, n_max: int) -> Spectrum:
    """Locate the eigenvalues lambda_n for |n| <= n_max of branch (ker.nu, j).

    Newton iteration from the lattice guesses n + shift, certified by the
    residual gate and an argument-principle count over the enclosing
    rectangle; a count mismatch triggers a rectangle-subdivision search
    before giving up.  All of them evaluate through one `_LatticeTaylor`.
    """
    _check_branch(ker.nu, j)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    taylor = _LatticeTaylor(ker, j, n_max)
    guesses = taylor.centers.astype(complex)
    roots = _newton(taylor, guesses)
    ok = _accepted(taylor, roots, guesses)

    expected = 2 * n_max + 1
    rect = (taylor.centers[0] - ROOT_BOX_RE, taylor.centers[-1] + ROOT_BOX_RE,
            -ROOT_BOX_IM, ROOT_BOX_IM)
    count = _winding_count(taylor.value, *rect)

    ordered = np.sort_complex(roots)
    distinct = bool(np.all(np.abs(np.diff(ordered)) > 1e-8)) if expected > 1 else True
    if count == expected and bool(ok.all()) and distinct:
        return Spectrum(ker.nu, j, n_max, roots)

    if count != expected:
        raise RootCountError(
            f"contour count {count} != {expected} for (nu={ker.nu}, j={j}); "
            "kernel grid too coarse or pathological potential"
        )

    def polish(z0):
        root = _newton(taylor, np.array([z0]))
        return complex(root[0]) if taylor.certify(root)[1][0] else None

    found = _subdivision_search(taylor.value, polish, rect, expected)
    if len(found) != expected:
        raise RootCountError(
            f"subdivision found {len(found)} roots, expected {expected}; "
            "kernel grid too coarse or pathological potential"
        )
    lam = np.array(sorted(found, key=lambda z: (z.real, z.imag)), dtype=complex)
    return Spectrum(ker.nu, j, n_max, lam)
