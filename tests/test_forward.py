import math
import re
import time

import numpy as np
import pytest

from delaydirac import (
    DelayConfig,
    PotentialPair,
    RootCountError,
    StepCountError,
    compute_kernels,
    delta_eval,
    delta_oracle,
    delta_prime,
    find_spectrum,
    interpolate,
    smooth_example_pair,
    transition_state,
)
from delaydirac import forward as forward_mod
from delaydirac.core import chirp_sum
from delaydirac.forward import (
    LATTICE_RADIUS,
    ROOT_BOX_IM,
    ROOT_BOX_RE,
    _certified,
    _LatticeTaylor,
    _newton,
    _subdivision_search,
    _taylor_order,
    _weights,
    _winding_count,
    lattice_shift,
    trig_head,
    trig_head_prime,
)
from delaydirac.presets import SMOOTH_EXAMPLE_A

from conftest import exp_sum_scale, long_double_exp_sum

PI = np.pi

UNIT_M = 512


def const_p_analytic(nu, j, lam, c, a):
    """Characteristic functions for q = 0, p = c, integrated by hand.

    All four reduce to elementary antiderivatives of sin/cos of linear
    arguments; the correlation term contributes the (pi-2a) factors.
    """
    lam = complex(lam)
    if lam == 0:
        if (nu, j) == (1, 1) or (nu, j) == (2, 2):
            return 0.0 + 0.0j
        base = 1.0 + c**2 * (PI - 2 * a) ** 2 / 2.0
        return base - c * (PI - a) if (nu, j) == (1, 2) else base + c * (PI - a)
    pair_term = (c**2 / (2 * lam)) * (np.sin(lam * (PI - 2 * a)) / lam
                                      - (PI - 2 * a) * np.cos(lam * (PI - 2 * a)))
    cos_term = (c**2 * (PI - 2 * a) / (2 * lam)) * np.sin(lam * (PI - 2 * a))
    if (nu, j) == (1, 1):
        return -np.sin(lam * PI) - pair_term
    if (nu, j) == (1, 2):
        return np.cos(lam * PI) - c * np.sin(lam * (PI - a)) / lam + cos_term
    if (nu, j) == (2, 1):
        return np.cos(lam * PI) + c * np.sin(lam * (PI - a)) / lam + cos_term
    return np.sin(lam * PI) + pair_term


def loop_kernels(pot, cfg, nu):
    """compute_kernels with one trapezoid sum per inner kernel node.

    The per-node loop that the FFT tail correlation replaced, kept verbatim
    as the reference the vectorized kernels must reproduce.
    """
    a = cfg.a
    pgrid = pot.grid
    kgrid = cfg.kernel_grid(pgrid.m)
    x = kgrid.nodes
    tau = 0.5 * (PI + a - x)
    q_tau = interpolate(pgrid, pot.q, tau)
    p_tau = interpolate(pgrid, pot.p, tau)
    if nu == 1:
        v1, v2 = 0.5 * p_tau, -0.5 * q_tau
    else:
        v1, v2 = 0.5 * q_tau, 0.5 * p_tau
    brk = cfg.kernel_break
    nodes = pgrid.nodes
    for idx in np.nonzero((x > -brk) & (x < brk))[0]:
        xi = x[idx]
        t0 = 0.5 * (PI + 2.0 * a - xi)
        first = np.searchsorted(nodes, t0, side="right")
        ts = np.concatenate(([t0], nodes[first:]))
        q_t = np.concatenate(([interpolate(pgrid, pot.q, t0)], pot.q[first:]))
        p_t = np.concatenate(([interpolate(pgrid, pot.p, t0)], pot.p[first:]))
        sig = 0.5 * (xi + 2.0 * ts - PI)
        q_s = interpolate(pgrid, pot.q, sig)
        p_s = interpolate(pgrid, pot.p, sig)
        i_pp = np.trapezoid(q_t * q_s + p_t * p_s, ts)
        i_qp = np.trapezoid(q_t * p_s - p_t * q_s, ts)
        if nu == 1:
            v1[idx] -= 0.5 * i_pp
            v2[idx] += 0.5 * i_qp
        else:
            v1[idx] += 0.5 * i_qp
            v2[idx] += 0.5 * i_pp
    v1r, v2r = v1[::-1], v2[::-1]
    u1 = (v1 - v1r) / 2j + (v2 + v2r) / 2.0
    u2 = (v2 - v2r) / 2j - (v1 + v1r) / 2.0
    return {"v1": v1, "v2": v2, "u1": u1, "u2": u2}


def dense_newton(ker, j, start, iterations=60):
    """Newton's method with the dense sums at every iterate.

    The iteration that the Taylor expansion about the lattice replaced, kept
    verbatim as the reference for find_spectrum.
    """
    lam = np.array(start, dtype=complex)
    for _ in range(iterations):
        f = delta_eval(ker, j, lam)
        fp = delta_prime(ker, j, lam)
        fp = np.where(np.abs(fp) < 1e-300, 1.0, fp)
        delta = f / fp
        lam = lam - delta
        if np.all(np.abs(delta) <= 1e-14 * (1.0 + np.abs(lam))):
            break
    return lam


def dense_newton_for(taylor, start, iterations=60):
    """Stand-in for `_newton(taylor, start)` that iterates on the dense sums."""
    return dense_newton(taylor.ker, taylor.j, start, iterations)


def lattice_rectangle(taylor):
    """The counting rectangle of find_spectrum for this expansion."""
    return (taylor.centers[0] - ROOT_BOX_RE, taylor.centers[-1] + ROOT_BOX_RE,
            -ROOT_BOX_IM, ROOT_BOX_IM)


def loop_integrate(pot, cfg, flat, step, x_stop):
    """Fundamental matrix at x_stop by one RK4 step at a time, shape (L, 2, 2).

    The per-step loop that the blocked recurrence replaced, kept verbatim as
    the reference the oracle must reproduce.
    """
    rotation = forward_mod._rotation
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

    stage_pts = []
    for x0, h in steps:
        stage_pts.extend((x0, x0 + 0.5 * h, x0 + h))
    stage_pts = np.clip(np.asarray(stage_pts), pot.grid.lo, pot.grid.hi)
    q_st = interpolate(pot.grid, pot.q, stage_pts)
    p_st = interpolate(pot.grid, pot.p, stage_pts)

    hist = np.empty((len(steps) + 1,) + flat.shape + (2, 2), dtype=complex)
    hist[0] = rotation(flat, a)

    def rhs(y, qv, pv, ydel):
        # B y' = lam y - Q y(x-a)  with  B^{-1} = -B.
        out = np.empty_like(y)
        out[:, 0, :] = -flat[:, None] * y[:, 1, :] + pv * ydel[:, 0, :] - qv * ydel[:, 1, :]
        out[:, 1, :] = flat[:, None] * y[:, 0, :] - qv * ydel[:, 0, :] - pv * ydel[:, 1, :]
        return out

    def delayed(xq):
        d = xq - a
        if d <= a + 1e-12 * PI:
            return rotation(flat, min(d, a))
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


def column_mismatch(got, ref):
    """|got - ref| per lambda and column, relative to the column's largest entry of ref."""
    return np.max(np.abs(got - ref), axis=-2) / np.max(np.abs(ref), axis=-2)


def random_pair(cfg, m, seed):
    rng = np.random.default_rng(seed)
    q, p = 0.3 * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
    return PotentialPair(cfg.potential_grid(m), q, p)


def rel_l2(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestComputeKernels:
    @pytest.mark.parametrize("m", [64, 256, 1024])
    @pytest.mark.parametrize("pair", ["smooth", "random"])
    def test_matches_per_node_loop(self, cfg, m, pair):
        pot = smooth_example_pair(cfg, m=m) if pair == "smooth" else random_pair(cfg, m, m)
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for name, ref in loop_kernels(pot, cfg, nu).items():
                assert rel_l2(getattr(ker, name), ref) <= 1e-13, (nu, name)

    def test_second_order_grid_convergence(self, cfg):
        # The smooth pair vanishes at both ends, so on the nodes the kernels
        # converge like h^2; compare nested grids with M = 4097 at the nodes
        # they share.
        ref = compute_kernels(smooth_example_pair(cfg, m=4097), cfg, 2)
        errs = []
        for m in (65, 129, 257, 513):
            ker = compute_kernels(smooth_example_pair(cfg, m=m), cfg, 2)
            stride = 4096 // (m - 1)
            errs.append([np.max(np.abs(ker.u(j) - ref.u(j)[::stride])) for j in (1, 2)])
        order = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(order >= 1.9), order

    def test_zero_potential_all_zero(self, cfg, zero_pair):
        for nu in (1, 2):
            ker = compute_kernels(zero_pair, cfg, nu)
            for arr in (ker.v1, ker.v2, ker.u1, ker.u2):
                assert np.all(arr == 0)

    def test_constant_p_outer_branch(self, cfg, const_p_pair):
        # Outer part of the kernel interval reads off the potential directly.
        c = 0.3
        ker = compute_kernels(const_p_pair, cfg, 2)
        x = ker.grid.nodes
        outer = (np.abs(x) >= cfg.kernel_break + ker.grid.h)
        assert np.allclose(ker.v2[outer], c / 2.0, atol=1e-14)
        assert np.all(ker.v1 == 0)

    def test_constant_p_inner_branch(self, cfg, const_p_pair):
        # Hand integration of the constant integrand over [(pi+2a-x)/2, pi]
        # gives v2 = c/2 + c^2 (pi - 2a + x)/4 on the inner part.
        c = 0.3
        ker = compute_kernels(const_p_pair, cfg, 2)
        x = ker.grid.nodes
        inner = (x > -cfg.kernel_break) & (x < cfg.kernel_break)
        want = c / 2.0 + c**2 * (PI - 2 * cfg.a + x[inner]) / 4.0
        assert np.max(np.abs(ker.v2[inner] - want)) < 1e-13

    def test_constant_p_nu1(self, cfg, const_p_pair):
        c = 0.3
        ker = compute_kernels(const_p_pair, cfg, 1)
        x = ker.grid.nodes
        outer = (np.abs(x) >= cfg.kernel_break + ker.grid.h)
        assert np.allclose(ker.v1[outer], c / 2.0, atol=1e-14)
        assert np.all(ker.v2 == 0)  # -q/2 and the q-p cross terms all vanish

    def test_bad_branch(self, cfg, zero_pair):
        with pytest.raises(ValueError):
            compute_kernels(zero_pair, cfg, 3)

    def test_grid_mismatch(self, cfg, zero_pair):
        other = DelayConfig(0.45 * PI)
        with pytest.raises(ValueError, match=r"^potential grid does not cover \[a, pi\] for this delay$"):
            compute_kernels(zero_pair, other, 1)


class TestDeltaEval:
    def test_zero_potential_heads(self, cfg, zero_pair):
        ker1 = compute_kernels(zero_pair, cfg, 1)
        ker2 = compute_kernels(zero_pair, cfg, 2)
        assert delta_eval(ker1, 1, 0.5) == pytest.approx(-1.0)
        assert delta_eval(ker2, 1, 0.0) == pytest.approx(1.0)
        assert delta_eval(ker1, 2, 0.0) == pytest.approx(1.0)
        assert delta_eval(ker2, 2, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("j", [1, 2])
    def test_constant_p_closed_forms(self, cfg, const_p_pair, nu, j):
        # Derived oracle: elementary antiderivatives, frozen in
        # const_p_analytic.  Discretization error is O(h) at the interior
        # kernel jump, about 4e-5 at this resolution.
        ker = compute_kernels(const_p_pair, cfg, nu)
        for lam in (0.37, 1.2 + 0.3j, -2.7 - 0.5j, 0.0):
            got = delta_eval(ker, j, lam)
            want = const_p_analytic(nu, j, lam, 0.3, cfg.a)
            assert abs(got - want) < 2e-4

    def test_vectorized_matches_scalar(self, cfg, smooth_kernels):
        ker = smooth_kernels[2]
        lam = np.array([0.3, 1.0 + 0.5j, -4.2])
        vec = delta_eval(ker, 1, lam)
        for k, v in enumerate(lam):
            # block size differs between the two calls, so the summation
            # order may differ by an ulp
            assert vec[k] == pytest.approx(delta_eval(ker, 1, complex(v)), rel=1e-13)

    def test_conjugation_symmetry_real_potentials(self, cfg):
        # Real-valued q, p force Delta(conj lam) = conj(Delta(lam)).
        grid = cfg.potential_grid(UNIT_M)
        theta = PI * (grid.nodes - cfg.a) / (PI - cfg.a)
        pot = PotentialPair(grid, 0.25 * np.sin(theta) + 0j, 0.15 * np.sin(2 * theta) + 0j)
        rng = np.random.default_rng(3)
        lam = rng.uniform(-6, 6, 20) + 1j * rng.uniform(-1, 1, 20)
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for j in (1, 2):
                a = delta_eval(ker, j, np.conj(lam))
                b = np.conj(delta_eval(ker, j, lam))
                assert np.max(np.abs(a - b)) < 1e-12


    @pytest.mark.parametrize("m", [UNIT_M, 4096])
    def test_matches_long_double_sum(self, cfg, smooth_kernels, m):
        # The two-level sum against a long-double one, on the oracle
        # workload's lambda range, for the value and the derivative.  Taking
        # the spacing as x[1] - x[0] instead of grid.h reads 4e-14 and 7e-14
        # at these sizes.
        if m == UNIT_M:
            kers = smooth_kernels
        else:
            kers = {1: compute_kernels(smooth_example_pair(cfg, m), cfg, 1)}
        rng = np.random.default_rng(m)
        lam = rng.uniform(-10.0, 10.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
        for nu, ker in kers.items():
            grid = ker.grid
            for j in (1, 2):
                g = _weights(ker, j)
                for fn, head, weights in ((delta_eval, trig_head, g),
                                          (delta_prime, trig_head_prime, g * (1j * grid.nodes))):
                    ref = long_double_exp_sum(weights, grid.lo, grid.h, lam)
                    err = np.abs(fn(ker, j, lam) - head(nu, j, lam) - ref)
                    assert np.max(err / exp_sum_scale(weights, grid.lo, grid.h, lam)) <= 1e-14

    @pytest.mark.parametrize("fn", [delta_eval, delta_prime])
    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(1.0, -np.inf),
                                     np.array([1.0, np.nan])])
    def test_non_finite_lambda_rejected(self, smooth_kernels, fn, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            fn(smooth_kernels[2], 1, lam)

    @pytest.mark.parametrize("fn", [delta_eval, delta_prime])
    def test_overflow_names_the_worst_lambda(self, smooth_kernels, fn):
        # sin(pi lam) leaves the double range beyond |Im lam| ~ 226.
        with pytest.raises(ValueError, match=r"overflows at 2 of 3 lambda; worst lambda = 1\+500j"):
            fn(smooth_kernels[2], 1, np.array([2.0, 3.0 - 300j, 1.0 + 500j]))
        with pytest.raises(ValueError, match=r"worst lambda = 0-400j"):
            fn(smooth_kernels[1], 2, complex(0.0, -400.0))


class TestDeltaPrime:
    def test_zero_potential_values(self, cfg, zero_pair):
        ker1 = compute_kernels(zero_pair, cfg, 1)
        ker2 = compute_kernels(zero_pair, cfg, 2)
        assert delta_prime(ker1, 1, 0.0) == pytest.approx(-PI)
        assert delta_prime(ker2, 1, 0.5) == pytest.approx(-PI)

    def test_finite_difference_consistency(self, smooth_kernels):
        # Central difference with delta = 1e-6 as the independent check.
        rng = np.random.default_rng(5)
        lam = rng.uniform(-8, 8, 20) + 1j * rng.uniform(-0.8, 0.8, 20)
        eps = 1e-6
        for nu in (1, 2):
            ker = smooth_kernels[nu]
            for j in (1, 2):
                fd = (delta_eval(ker, j, lam + eps) - delta_eval(ker, j, lam - eps)) / (2 * eps)
                an = delta_prime(ker, j, lam)
                rel = np.abs(an - fd) / (1.0 + np.abs(an))
                assert np.max(rel) < 1e-5


class TestDeltaOracle:
    def test_zero_potential_matches_head(self, cfg, zero_pair):
        for nu in (1, 2):
            for j in (1, 2):
                got = delta_oracle(zero_pair, cfg, nu, j, 2.3)
                want = complex(trig_head(nu, j, np.complex128(2.3)))
                assert abs(got - want) < 1e-10

    def test_constant_p_at_zero(self, cfg, const_p_pair):
        # At lam = 0 the closed form is 1 + c(pi-a) + c^2 (pi-2a)^2/2.
        c, a = 0.3, cfg.a
        want = 1.0 + c * (PI - a) + c**2 * (PI - 2 * a) ** 2 / 2.0
        got = delta_oracle(const_p_pair, cfg, 2, 1, 0.0)
        assert abs(got - want) < 1e-10
        ker = compute_kernels(const_p_pair, cfg, 2)
        assert abs(delta_eval(ker, 1, 0.0) - got) < 1e-4  # O(h) at this M

    def test_constant_p_d22_at_zero(self, cfg, const_p_pair):
        ker = compute_kernels(const_p_pair, cfg, 2)
        got_closed = delta_eval(ker, 2, 0.0)
        got_oracle = delta_oracle(const_p_pair, cfg, 2, 2, 0.0)
        assert abs(got_closed - got_oracle) < 1e-6

    def test_smooth_pair_equivalence(self, cfg, smooth_pair, smooth_kernels):
        # Closed form and method-of-steps agree well inside the 1e-5 gate
        # already at the unit-test resolution.
        rng = np.random.default_rng(17)
        lam = rng.uniform(-10, 10, 12) + 1j * rng.uniform(-1, 1, 12)
        for nu in (1, 2):
            for j in (1, 2):
                closed = delta_eval(smooth_kernels[nu], j, lam)
                oracle = delta_oracle(smooth_pair, cfg, nu, j, lam)
                rel = np.abs(closed - oracle) / (1.0 + np.abs(oracle))
                assert np.max(rel) < 1e-5

    def test_step_gate(self, cfg, zero_pair):
        with pytest.raises(StepCountError):
            delta_oracle(zero_pair, cfg, 1, 1, 0.5, step=0.2)

    def test_forward_only_regime_allowed(self):
        cfg = DelayConfig(0.35 * PI)
        grid = cfg.potential_grid(256)
        pot = PotentialPair(grid, np.zeros(256, complex), np.full(256, 0.2, complex))
        ker = compute_kernels(pot, cfg, 2)
        got = delta_oracle(pot, cfg, 2, 1, 0.7)
        assert abs(delta_eval(ker, 1, 0.7) - got) < 1e-4


class TestOracleRecurrence:
    """The blocked recurrence against the per-step loop it replaced."""

    TOL = 1e-12

    @staticmethod
    def oracle_points(seed, count, re, im):
        rng = np.random.default_rng(seed)
        return rng.uniform(-re, re, count) + 1j * rng.uniform(-im, im, count)

    @pytest.mark.parametrize("case", ["oracle-workload", "real-400", "imag-8"])
    def test_matches_step_loop_at_pi(self, cfg, case):
        pot = smooth_example_pair(cfg, m=1024)
        step = forward_mod.DEFAULT_ORACLE_STEP
        if case == "oracle-workload":
            lam = self.oracle_points(5, 40, 10.0, 1.0)
        elif case == "real-400":
            lam = np.array([-400.0, -123.4, 0.0, 37.5, 251.0, 399.5, 400.0], dtype=complex)
            step = 0.08 / 400.0
        else:
            lam = self.oracle_points(6, 12, 10.0, 8.0)
            lam[:2] = [3.0 + 8.0j, -2.0 - 8.0j]
        ref = loop_integrate(pot, cfg, lam, step, PI)
        for nu in (1, 2):
            for j in (1, 2):
                got = delta_oracle(pot, cfg, nu, j, lam, step=step)
                col = ref[:, :, 2 - nu]
                rel = np.abs(got - col[:, j - 1]) / np.max(np.abs(col), axis=1)
                assert np.max(rel) <= self.TOL, (nu, j)

    @pytest.mark.parametrize("frac", [1.0 + 1e-3, 1.4, 2.0, 2.0 + 1e-3, 2.2,
                                      PI / SMOOTH_EXAMPLE_A])
    def test_transition_state_matches_step_loop(self, cfg, smooth_pair, frac):
        # Positions in (a, 2a], where only the exact delayed term acts, and
        # in (2a, pi], where the stored first segment is interpolated.
        x = min(frac * cfg.a, PI)
        lam = np.array([0.0, 2.5 - 0.7j, -9.0 + 0.9j, 6.0 + 5.0j])
        ref = loop_integrate(smooth_pair, cfg, lam, forward_mod.DEFAULT_ORACLE_STEP, x)
        got = np.array([transition_state(smooth_pair, cfg, z, x) for z in lam])
        assert np.max(column_mismatch(got, ref)) <= self.TOL

    @pytest.mark.parametrize("frac", [1.0 + 1e-3, 1.4, 2.0, PI / SMOOTH_EXAMPLE_A])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_free_blocks_match_direct_exponentials(self, monkeypatch, cfg, smooth_pair,
                                                   frac, coarse):
        # The free solution on the first segment, a per-block base times a
        # per-offset table, against coef exp(+-i lam d) taken directly at the
        # segment's stage abscissae d = i (x_end - a) / (2 n0), x_end =
        # min(x, 2a).  The coarsest step allowed gives n0 < SCAN_BLOCK; the
        # default one gives n0 that are not a multiple of it.
        x = min(frac * cfg.a, PI)
        step = (PI - cfg.a) / 64.0 if coarse else forward_mod.DEFAULT_ORACLE_STEP
        lam = np.array([0.0, 2.5 - 0.7j, -9.0 + 0.9j, 6.0 + 5.0j])
        blocks = []
        real = forward_mod._free_blocks

        def spy(flat, coef, half_step, span):
            free = real(flat, coef, half_step, span)

            def record(sl):
                blocks.append((sl, coef, free(sl)))
                return blocks[-1][-1]
            return record

        monkeypatch.setattr(forward_mod, "_free_blocks", spy)
        for column in (0, 1):
            forward_mod._integrate_delay_system(smooth_pair, cfg, lam, step, x, column)
        n0 = (blocks[-1][0].stop - 1) // 2
        assert n0 < forward_mod.SCAN_BLOCK if coarse else n0 % forward_mod.SCAN_BLOCK
        x_end = min(x, 2.0 * cfg.a)
        covered = set()
        for sl, coef, got in blocks:
            d = (x_end - cfg.a) * np.arange(sl.start, sl.stop) / (2 * n0)
            e = np.exp(1j * np.multiply.outer(d, lam))
            want = coef[:, None] * np.stack((e, 1.0 / e), axis=1)
            assert np.max(np.abs(got - want) / np.abs(want)) <= self.TOL
            covered.update(range(sl.start, sl.stop))
        assert covered == set(range(2 * n0 + 1))

    @pytest.mark.parametrize("lam", [1.0 + 500j, 3.0 - 300j, 2.0 + 900j])
    def test_overflow_names_the_worst_lambda(self, cfg, smooth_pair, lam):
        # e^{|Im lam| (pi - a)} leaves the double range: a ValueError that
        # names lambda, not an overflow warning or NaN.  At 900j e^{i lam a}
        # itself under- and overflows.
        worst = re.escape(f"{max(lam, 1.0 + 500j, key=lambda z: abs(z.imag)):.9g}")
        with pytest.raises(ValueError, match=rf"overflows .* worst lambda = {worst}"):
            delta_oracle(smooth_pair, cfg, 2, 1, np.array([2.0, lam, 1.0 + 500j]))
        with pytest.raises(ValueError, match="overflows"):
            transition_state(smooth_pair, cfg, lam, PI)

    def test_non_finite_lambda_rejected(self, cfg, smooth_pair):
        with pytest.raises(ValueError, match="finite"):
            delta_oracle(smooth_pair, cfg, 2, 1, np.array([1.0, np.nan]))


class TestTransitionState:
    def test_identity_at_origin(self, cfg, smooth_pair):
        st = transition_state(smooth_pair, cfg, 1.7 + 0.2j, 0.0)
        assert np.array_equal(st, np.eye(2))

    def test_rotation_below_delay(self, cfg, smooth_pair):
        lam = 0.9 - 0.4j
        for x in (0.3, cfg.a / 2, cfg.a):
            st = transition_state(smooth_pair, cfg, lam, x)
            want = np.array([[np.cos(lam * x), -np.sin(lam * x)],
                             [np.sin(lam * x), np.cos(lam * x)]])
            assert np.max(np.abs(st - want)) < 1e-15

    def test_endpoint_entries_match_oracle(self, cfg, smooth_pair):
        lam = 1.3 + 0.1j
        st = transition_state(smooth_pair, cfg, lam, PI)
        for nu in (1, 2):
            for j in (1, 2):
                assert st[j - 1, 2 - nu] == delta_oracle(smooth_pair, cfg, nu, j, lam)

    def test_interior_position(self, cfg, smooth_pair):
        # Below 2a only the exact-rotation delayed term is active; the state
        # must still differ from the free rotation once x > a.
        lam = 2.0
        x = 1.5 * cfg.a
        st = transition_state(smooth_pair, cfg, lam, x)
        free = np.array([[np.cos(lam * x), -np.sin(lam * x)],
                         [np.sin(lam * x), np.cos(lam * x)]])
        assert np.max(np.abs(st - free)) > 1e-3

    def test_out_of_range(self, cfg, smooth_pair):
        with pytest.raises(ValueError):
            transition_state(smooth_pair, cfg, 1.0, -0.1)
        with pytest.raises(ValueError):
            transition_state(smooth_pair, cfg, 1.0, PI + 0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_non_finite_lambda_rejected_on_both_sides_of_a(self, cfg, smooth_pair, lam):
        # Below a the free rotation would return NaN, or warn on inf, instead.
        for x in (0.5, cfg.a, 1.5 * cfg.a):
            with pytest.raises(ValueError, match="lambda must be finite"):
                transition_state(smooth_pair, cfg, lam, x)


class TestFindSpectrum:
    def test_zero_potential_exact_lattice(self, cfg, zero_pair):
        for nu in (1, 2):
            ker = compute_kernels(zero_pair, cfg, nu)
            for j in (1, 2):
                spec = find_spectrum(ker, j, 20)
                assert np.max(np.abs(spec.lam - spec.centers)) < 1e-10
                res = np.abs(delta_eval(ker, j, spec.lam))
                assert np.max(res) < 1e-10

    def test_half_integer_lattice(self, cfg, zero_pair):
        ker = compute_kernels(zero_pair, cfg, 2)
        spec = find_spectrum(ker, 1, 10)
        assert np.allclose(spec.lam, np.arange(-10, 11) - 0.5, atol=1e-12)

    def test_constant_p_certified(self, cfg, const_p_pair):
        ker = compute_kernels(const_p_pair, cfg, 2)
        spec = find_spectrum(ker, 1, 50)
        assert np.isfinite(spec.kappa_norm)
        assert spec.kappa_norm < 0.5
        res = np.abs(delta_eval(ker, 1, spec.lam))
        assert np.all(res < 1e-10 * (1.0 + np.abs(spec.lam)))

    def test_conjugate_pairs_for_real_potentials(self, cfg):
        grid = cfg.potential_grid(UNIT_M)
        theta = PI * (grid.nodes - cfg.a) / (PI - cfg.a)
        pot = PotentialPair(grid, 0.3 * np.sin(theta) + 0j, 0.2 * np.sin(2 * theta) + 0j)
        ker = compute_kernels(pot, cfg, 2)
        spec = find_spectrum(ker, 1, 15)
        paired = np.sort_complex(np.conj(spec.lam))
        assert np.max(np.abs(np.sort_complex(spec.lam) - paired)) < 1e-9

    def test_kappa_definition(self, smooth_spectra):
        spec = smooth_spectra[(2, 1)]
        assert np.array_equal(spec.kappa, spec.lam - (spec.indices + lattice_shift(2, 1)))

    def test_invalid_n(self, smooth_kernels):
        with pytest.raises(ValueError):
            find_spectrum(smooth_kernels[1], 1, 0)


class TestLatticeNewton:
    """Newton from the lattice evaluates through Taylor moments about it."""

    A_VALUES = [2 * PI / 5, 0.42 * PI, 0.49 * PI]

    @pytest.mark.parametrize("a", A_VALUES)
    def test_order_is_smallest_meeting_the_bound(self, a):
        rx = LATTICE_RADIUS * (PI - a)
        order = _taylor_order(rx)

        def bound(p):
            return rx ** (p + 1) * np.exp(rx) / math.factorial(p + 1)

        assert bound(order) <= 2.0**-53 < bound(order - 1)

    @pytest.mark.parametrize("a", A_VALUES)
    def test_moments_match_dense_sums(self, a):
        cfg = DelayConfig(a)
        pot = smooth_example_pair(cfg, UNIT_M)
        rng = np.random.default_rng(int(1000 * a))
        n = 60
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for j in (1, 2):
                taylor = _LatticeTaylor(ker, j, n)
                radius = LATTICE_RADIUS * np.sqrt(rng.uniform(size=2 * n + 1))
                lam = taylor.centers + radius * np.exp(2j * PI * rng.uniform(size=2 * n + 1))
                f, fp = taylor(lam)
                scale = 1.0 + np.abs(lam)
                assert np.max(np.abs(f - delta_eval(ker, j, lam)) / scale) <= 1e-13
                assert np.max(np.abs(fp - delta_prime(ker, j, lam)) / scale) <= 1e-13

    @pytest.mark.parametrize("m, n", [(512, 60), (1024, 200)])
    def test_spectra_match_dense_newton(self, monkeypatch, cfg, m, n):
        pot = smooth_example_pair(cfg, m)
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for j in (1, 2):
                got = find_spectrum(ker, j, n).lam
                with monkeypatch.context() as mp:
                    mp.setattr(forward_mod, "_newton", dense_newton_for)
                    ref = find_spectrum(ker, j, n).lam
                assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-12

    @pytest.mark.parametrize("scale, nu, j", [(5.0, 1, 1), (5.0, 2, 2), (12.0, 1, 1), (12.0, 2, 2)])
    def test_far_iterates_take_dense_sums(self, monkeypatch, cfg, smooth_pair, scale, nu, j):
        # At these amplitudes some iterates wander farther than LATTICE_RADIUS
        # from every lattice point (none do at x5, nu = j = 1); exactly those
        # must be evaluated densely, not by the series.
        ker = compute_kernels(smooth_pair.scaled(scale), cfg, nu)
        n = 10
        taylor = _LatticeTaylor(ker, j, n)
        dense_calls, far = [], []

        def counted(ker, j, lam):
            dense_calls.append(np.size(lam))
            return delta_prime(ker, j, lam)

        def recorded(lam):
            gap = np.min(np.abs(lam[:, None] - taylor.centers[None, :]), axis=1)
            far.append(int(np.sum(gap > LATTICE_RADIUS)))
            return taylor(lam)

        start = (np.arange(-n, n + 1) + lattice_shift(nu, j)).astype(complex)
        with monkeypatch.context() as mp:
            mp.setattr(forward_mod, "delta_prime", counted)
            iterates = _newton(recorded, start)
        assert sum(dense_calls) == sum(far)
        assert sum(far) > 0 or (scale, nu, j) == (5.0, 1, 1)
        # One start at x5, nu = j = 1, never converges in 60 passes and
        # amplifies round-off to ~4e-13; the rest agree to ~1e-15.
        ref = dense_newton(ker, j, start)
        assert np.max(np.abs(iterates - ref) / (1.0 + np.abs(ref))) <= 1e-10
        got = find_spectrum(ker, j, n).lam
        with monkeypatch.context() as mp:
            mp.setattr(forward_mod, "_newton", dense_newton_for)
            ref = find_spectrum(ker, j, n).lam
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-12

    def test_zero_potential_exact_lattice(self, cfg, zero_pair):
        # All moments vanish, so the lattice path does the dense path's
        # arithmetic: the head alone.
        for nu in (1, 2):
            ker = compute_kernels(zero_pair, cfg, nu)
            for j in (1, 2):
                start = (np.arange(-200, 201) + lattice_shift(nu, j)).astype(complex)
                taylor = _LatticeTaylor(ker, j, 200)
                assert not np.any(taylor.value_coef) and not np.any(taylor.slope_coef)
                got = _newton(taylor, start)
                assert np.array_equal(got, dense_newton(ker, j, start))
                assert np.max(np.abs(got - start) / (1.0 + np.abs(start))) <= 1e-15


class TestResidualGate:
    """The gate certifies through the expansion: |f_T| + E, plus one dense tripwire."""

    def test_expansion_error_counts(self, monkeypatch, smooth_kernels):
        # A tolerance between |f_T| and |f_T| + E at the worst root: the gate
        # must refuse that root, which it would accept without E.
        ker = smooth_kernels[2]
        taylor = _LatticeTaylor(ker, 1, 20)
        roots = find_spectrum(ker, 1, 20).lam
        res, ok = taylor.certify(roots)
        assert ok.all() and taylor.error > 0
        k = np.argmax(res)
        scale = 1.0 + abs(roots[k])
        monkeypatch.setattr(forward_mod, "RESIDUAL_TOL", res[k] + 0.5 * taylor.error / scale)
        assert roots[k] not in _certified(taylor, roots)

    def test_certified_drops_moved_root_and_merges_duplicates(self, smooth_kernels):
        ker = smooth_kernels[2]
        taylor = _LatticeTaylor(ker, 1, 20)
        roots = find_spectrum(ker, 1, 20).lam
        assert np.array_equal(_certified(taylor, roots), roots)
        assert np.array_equal(_certified(taylor, np.concatenate((roots, roots[[3, 3, 30]]))), roots)
        moved = roots.copy()
        moved[7] += 1e-6
        assert np.array_equal(_certified(taylor, moved), np.delete(roots, 7))

    def test_no_passing_root_gives_empty(self, smooth_kernels):
        taylor = _LatticeTaylor(smooth_kernels[2], 1, 20)
        got = _certified(taylor, taylor.centers + 0.25j)
        assert got.shape == (0,) and got.dtype == complex
        assert _certified(taylor, np.array([], dtype=complex)).shape == (0,)

    @pytest.mark.parametrize("nu, j", [(1, 2), (2, 1)])
    def test_no_certified_root_reaches_the_count(self, cfg, nu, j):
        # x200, (M, N) = (256, 2): Newton certifies no root, so find_spectrum
        # must go on to the contour count instead of failing in _certified.
        ker = compute_kernels(smooth_example_pair(cfg, 256).scaled(200.0), cfg, nu)
        taylor = _LatticeTaylor(ker, j, 2)
        assert _certified(taylor, _newton(taylor, taylor.centers.astype(complex))).size == 0
        with pytest.raises(RootCountError, match="contour count 2 != 5"):
            find_spectrum(ker, j, 2)

    def test_non_finite_potential_is_a_count_error(self, cfg, smooth_pair):
        q = smooth_pair.q.copy()
        q[100] = np.nan
        ker = compute_kernels(PotentialPair(smooth_pair.grid, q, smooth_pair.p), cfg, 2)
        with np.errstate(invalid="ignore"), pytest.raises(RootCountError, match="not finite"):
            find_spectrum(ker, 1, 10)

    def test_corrupt_moment_row_trips_the_dense_check(self, monkeypatch, smooth_kernels):
        # Newton converges on the corrupted expansion and its own residuals
        # pass; only the dense evaluation of one root can notice.
        def corrupted(*args):
            moments = chirp_sum(*args)
            moments[0] *= 1.0 + 1e-6
            return moments

        monkeypatch.setattr(forward_mod, "chirp_sum", corrupted)
        with pytest.raises(RootCountError, match="dense residual"):
            find_spectrum(smooth_kernels[2], 1, 20)


class TestWindingCount:
    def test_polynomial_zero_count(self):
        # (z - 0.2 - 0.1i)(z + 1.3)(z - 2.0) has all three zeros in the box.
        roots = np.array([0.2 + 0.1j, -1.3, 2.0])

        def fn(z):
            out = np.ones_like(z)
            for r in roots:
                out = out * (z - r)
            return out

        assert _winding_count(fn, -2.0, 3.0, -1.0, 1.0) == 3
        assert _winding_count(fn, -2.0, 3.0, 0.05, 1.0) == 1
        assert _winding_count(fn, 2.5, 3.0, -1.0, 1.0) == 0

    def test_head_counts(self, cfg, zero_pair):
        ker = compute_kernels(zero_pair, cfg, 1)
        n = 12
        count = _winding_count(lambda z: delta_eval(ker, 1, z), -n - 0.5, n + 0.5, -1.0, 1.0)
        assert count == 2 * n + 1

    def test_zero_on_contour_rejected(self):
        # Zero at z = 1 sits on the right edge of the box.
        with pytest.raises(RootCountError):
            _winding_count(lambda z: z - 1.0, -1.0, 1.0, -1.0, 1.0)

    def test_unresolvable_jump_raises_fast(self):
        # A sign flip is a phase jump of pi that no midpoint resolves; the
        # refinement must give up once the steps reach round-off, not run on.
        def fn(z):
            return np.where(np.asarray(z).real < 0.1234, -1.0 + 0j, 1.0 + 0j)

        start = time.perf_counter()
        with pytest.raises(RootCountError, match=r"2 unresolved phase jump\(s\).*z = 0\.1234"):
            _winding_count(fn, -1.0, 1.0, -1.0, 1.0)
        assert time.perf_counter() - start < 1.0


class TestChirpContour:
    """The counting contour evaluates through the lattice expansion, whose
    moments are one chirp-z pass; its values and count must match the dense sums."""

    A_VALUES = [2 * PI / 5, 0.42 * PI, 0.49 * PI]

    # The bottom edge runs left to right, the top edge right to left.
    @pytest.mark.parametrize("lam0, dlam", [(-60.5 - 1j, 121.0 / 968), (60.5 + 1j, -121.0 / 968)])
    def test_edge_values_match_dense(self, smooth_kernels, lam0, dlam):
        lam = lam0 + dlam * np.arange(968)
        for nu in (1, 2):
            taylor = _LatticeTaylor(smooth_kernels[nu], 2, 60)
            dense = delta_eval(smooth_kernels[nu], 2, lam)
            assert np.max(np.abs(taylor.value(lam) - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("scale", [1.0, 12.0])
    @pytest.mark.parametrize("a", A_VALUES)
    def test_rectangle_values_match_dense(self, monkeypatch, a, scale):
        # Box corners sit exactly r from their centre; no point of the
        # rectangle may fall back to the dense sum.
        cfg = DelayConfig(a)
        pot = smooth_example_pair(cfg, UNIT_M).scaled(scale)
        rng = np.random.default_rng(int(1000 * a))
        n = 60
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for j in (1, 2):
                taylor = _LatticeTaylor(ker, j, n)
                re_lo, re_hi, im_lo, im_hi = lattice_rectangle(taylor)
                corners = np.append(taylor.centers - ROOT_BOX_RE, re_hi)
                edge = np.linspace(re_lo, re_hi, 8 * (2 * n + 1), endpoint=False)
                side = 1j * np.linspace(im_lo, im_hi, 17)
                lam = np.concatenate((
                    corners + 1j * im_lo, corners + 1j * im_hi,
                    edge + 1j * im_lo, edge + 1j * im_hi, re_lo + side, re_hi + side,
                    rng.uniform(re_lo, re_hi, 2000) + 1j * rng.uniform(im_lo, im_hi, 2000),
                ))
                with monkeypatch.context() as mp:
                    mp.setattr(forward_mod, "delta_eval", None)
                    got = taylor.value(lam)
                err = np.abs(got - delta_eval(ker, j, lam)) / (1.0 + np.abs(lam))
                assert np.max(err) <= 1e-13, (nu, j)

    @pytest.mark.parametrize("scale", [1.0, 12.0])
    @pytest.mark.parametrize("a", A_VALUES)
    def test_rectangle_count_equals_dense_count(self, a, scale):
        cfg = DelayConfig(a)
        pot = smooth_example_pair(cfg, UNIT_M).scaled(scale)
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for j in (1, 2):
                taylor = _LatticeTaylor(ker, j, 60)
                rect = lattice_rectangle(taylor)
                dense = _winding_count(lambda z: delta_eval(ker, j, z), *rect)
                assert _winding_count(taylor.value, *rect) == dense, (nu, j)

    @pytest.mark.parametrize("pair", ["zero_pair", "smooth_pair"])
    def test_count_equals_dense_count(self, monkeypatch, cfg, request, pair):
        pot = request.getfixturevalue(pair)
        counts = []

        def both_paths(fn, *rect, **kwargs):
            fast = _winding_count(fn, *rect, **kwargs)
            ker, j = fn.__self__.ker, fn.__self__.j
            counts.append((fast, _winding_count(lambda z: delta_eval(ker, j, z), *rect, **kwargs)))
            return fast

        monkeypatch.setattr(forward_mod, "_winding_count", both_paths)
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            for j in (1, 2):
                find_spectrum(ker, j, 40)
        assert len(counts) == 4
        assert all(fast == dense == 81 for fast, dense in counts)

    def test_envelope_edge_still_raises(self, cfg, smooth_pair):
        # Scaled x25, two zeros of (nu=2, j=2) leave the |Im lam| <= 1 strip;
        # the certification must keep failing there rather than drift.
        ker = compute_kernels(smooth_pair.scaled(25.0), cfg, 2)
        with pytest.raises(RootCountError, match="contour count 119 != 121"):
            find_spectrum(ker, 2, 60)


def certified_polish(taylor):
    """The polish find_spectrum gives the subdivision search."""
    def polish(z0):
        root = _newton(taylor, np.array([z0]))
        return complex(root[0]) if taylor.certify(root)[1][0] else None
    return polish


class TestSubdivisionSearch:
    def test_locates_spectrum_without_newton_seeding(self, cfg, smooth_kernels):
        # The search alone must find the same roots the seeded Newton does.
        ker = smooth_kernels[2]
        direct = find_spectrum(ker, 1, 5)
        taylor = _LatticeTaylor(ker, 1, 5)
        found = _subdivision_search(
            lambda z: delta_eval(ker, 1, z),
            lambda z0: complex(_newton(taylor, np.array([z0]))[0]),
            (-6.0, 5.0, -1.0, 1.0),
            11,
            [],
        )
        assert len(found) == 11
        got = np.sort_complex(np.array(found))
        assert np.max(np.abs(got - np.sort_complex(direct.lam))) < 1e-9

    def test_polynomial_roots_no_polish(self):
        roots = np.array([0.25 + 0.3j, -0.8, 1.4 - 0.2j])

        def fn(z):
            out = np.ones_like(np.asarray(z, complex))
            for r in roots:
                out = out * (z - r)
            return out

        found = _subdivision_search(fn, lambda z: None, (-2.0, 2.0, -1.0, 1.0), 3, [])
        got = np.sort_complex(np.array(found))
        assert np.max(np.abs(got - np.sort_complex(roots))) < 1e-8

    def test_double_root_reported_with_warning(self):
        def fn(z):
            z = np.asarray(z, complex)
            return (z - 0.3) ** 2 * (z + 1.1)

        with pytest.warns(RuntimeWarning, match="multiplicity"):
            found = _subdivision_search(fn, lambda z: None, (-0.5, 1.0, -0.8, 0.8), 2, [])
        assert len(found) == 2
        assert np.max(np.abs(np.array(found) - 0.3)) < 1e-8

    def test_root_polished_outside_its_cell_is_kept(self):
        # Polishing the right half's centre lands on the left half's root,
        # which the left half then keeps without a polish of its own.
        roots = np.array([0.0, 0.9 + 0.8j])
        starts = []

        def polish(z0):
            starts.append(z0)
            return complex(roots[np.argmin(np.abs(roots - z0))])

        found = _subdivision_search(lambda z: (z - roots[0]) * (z - roots[1]), polish,
                                    (-1.0, 1.0, -1.0, 1.0), 2, [])
        assert np.array_equal(np.sort_complex(np.array(found)), roots)
        assert len(starts) == 2 and all(z.real > 0 for z in starts)

    def test_outside_root_saves_polish_and_counts(self, monkeypatch, cfg):
        # x18, nu = j = 1, (512, 60): a polish lands on the missing root
        # -2.8516+0.2602i outside its cell.  Discarding it and polishing for
        # it again took 12 _newton and 41 _winding_count calls.
        ker = compute_kernels(smooth_example_pair(cfg, UNIT_M).scaled(18.0), cfg, 1)
        taylor = _LatticeTaylor(ker, 1, 60)
        scratch = _subdivision_search(taylor.value, certified_polish(taylor),
                                      lattice_rectangle(taylor), 121, [])
        ref = np.sort_complex(np.array(scratch))
        calls = {"_newton": 0, "_winding_count": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(forward_mod, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(forward_mod, name, counted)
        got = find_spectrum(ker, 1, 60).lam
        assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-12
        assert calls["_newton"] < 12 and calls["_winding_count"] < 41

    # Sine heads at x3 and beyond: the zero nearest 0 moves more than 1/2,
    # and Newton from n = -1 and n = 0 lands on a neighbour's root.
    @pytest.mark.parametrize("scale, branch", [(3.0, 1), (12.0, 2)])
    @pytest.mark.parametrize("a", [2 * PI / 5, 0.42 * PI, 0.49 * PI])
    def test_certified_roots_seed_the_search(self, monkeypatch, a, scale, branch):
        cfg = DelayConfig(a)
        ker = compute_kernels(smooth_example_pair(cfg, UNIT_M).scaled(scale), cfg, branch)
        n = 60
        taylor = _LatticeTaylor(ker, branch, n)
        assert _certified(taylor, _newton(taylor, taylor.centers.astype(complex))).size < 2 * n + 1
        rect = lattice_rectangle(taylor)
        scratch = _subdivision_search(taylor.value, certified_polish(taylor), rect, 2 * n + 1, [])
        ref = np.sort_complex(np.array(scratch))

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _winding_count(*args, **kwargs)

        monkeypatch.setattr(forward_mod, "_winding_count", counted)
        got = find_spectrum(ker, branch, n).lam
        assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-12
        assert len(calls) <= 40
