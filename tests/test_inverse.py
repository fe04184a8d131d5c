import numpy as np
import pytest

from delaydirac import (
    DelayConfig,
    Grid,
    RegimeError,
    Spectrum,
    SpectraMismatchError,
    SupportDefectError,
    WPair,
    assemble_w,
    build_product,
    compute_kernels,
    delta_at_integers,
    find_spectrum,
    gamma,
    interpolate,
    invert_spectra,
    l2_norm,
    recover_inner,
    smooth_example_pair,
    support_defect,
    synthesize_u,
)
from delaydirac.inverse import NORM_FLOOR

PI = np.pi
UNIT_M = 512


def period_grid(m=UNIT_M):
    return Grid(-PI, PI, 4 * m + 1)


def reconstruct_from_kernels(ker, cfg):
    return recover_inner(assemble_w(ker.u1, ker.u2, cfg, ker.nu))


def combined_rel_error(rec, ref):
    err = np.sqrt(l2_norm(ref.grid, rec.q - ref.q) ** 2 + l2_norm(ref.grid, rec.p - ref.p) ** 2)
    base = np.sqrt(l2_norm(ref.grid, ref.q) ** 2 + l2_norm(ref.grid, ref.p) ** 2)
    return err / base


class TestSynthesizeU:
    def test_zero_coefficients(self):
        u = synthesize_u(np.zeros(21, complex), period_grid(64))
        assert np.all(u == 0)

    def test_constant_mode(self):
        c = np.zeros(11, complex)
        c[5] = 2.0 * PI  # n = 0 term
        u = synthesize_u(c, period_grid(64))
        assert np.allclose(u, 1.0)

    def test_single_mode(self):
        c = np.zeros(5, complex)
        c[3] = 2.0 * PI  # n = 1 term contributes exp(-i x)
        g = period_grid(64)
        u = synthesize_u(c, g)
        assert np.allclose(u, np.exp(-1j * g.nodes))

    def test_even_length_rejected(self):
        for shape in (4, (2, 4)):
            with pytest.raises(ValueError):
                synthesize_u(np.zeros(shape, complex), period_grid(16))

    def test_stacked_rows_equal_per_row_calls(self, cfg):
        # invert_spectra synthesizes the pair as one stack on each grid.
        m, n = 1024, 200
        ker = compute_kernels(smooth_example_pair(cfg, m), cfg, 2)
        coeffs = np.stack([delta_at_integers(build_product(find_spectrum(ker, j, n)))
                           for j in (1, 2)])
        for g in (period_grid(m), cfg.kernel_grid(m)):
            stacked = synthesize_u(coeffs, g)
            for row, c in zip(stacked, coeffs):
                assert np.array_equal(row, synthesize_u(c, g))

    @pytest.mark.parametrize("nu, j", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_dense_sum(self, cfg, smooth_spectra, nu, j):
        # Both grids the inversion uses, against the sum written out term by term.
        c = delta_at_integers(build_product(smooth_spectra[(nu, j)]))
        n = np.arange(-60, 61)
        for g in (period_grid(), cfg.kernel_grid(UNIT_M)):
            dense = np.exp(-1j * np.multiply.outer(g.nodes, n)) @ c / (2.0 * PI)
            got = synthesize_u(c, g)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_matches_forward_kernels(self, cfg, smooth_kernels, smooth_spectra):
        # The synthesized kernel converges to the forward-computed one.
        ker = smooth_kernels[2]
        errs = []
        for n in (20, 60):
            c1 = delta_at_integers(build_product(smooth_spectra[(2, 1)].truncated(n)))
            u1 = synthesize_u(c1, ker.grid)
            errs.append(l2_norm(ker.grid, u1 - ker.u1))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3


def grid_defect(coeffs, cfg, m):
    """The support defect on a grid: u synthesized on Grid(-pi, pi, m), and
    the linear interpolant of |u|^2 integrated over [-pi, a-pi] and
    [pi-a, pi], partial end cells included.

    The form that the Parseval sum replaced, kept as the reference it is the
    limit of.
    """
    g = Grid(-PI, PI, m)
    dens = np.abs(synthesize_u(coeffs, g)) ** 2

    def mass(lo, hi):
        xs = np.concatenate(([lo], g.nodes[(g.nodes > lo) & (g.nodes < hi)], [hi]))
        return np.trapezoid(np.interp(xs, g.nodes, dens), xs)

    b = PI - cfg.a
    return np.sqrt(mass(-PI, -b) + mass(b, PI)) / (NORM_FLOOR + np.sqrt(mass(-PI, PI)))


class TestSupportDefect:
    def test_zero_function(self, cfg):
        assert support_defect(np.zeros(121, complex), cfg) == 0.0

    @pytest.mark.parametrize("a", [0.4 * PI, 0.42 * PI, 0.49 * PI])
    def test_single_mode_closed_form(self, a):
        # |u| = |c|/2pi is constant, so the defect is sqrt(2a/2pi) T/(floor + T)
        # with T = ||u|| = |c|/sqrt(2pi).
        c = np.zeros(41, complex)
        c[27] = 0.8 - 1.1j
        t = abs(c[27]) / np.sqrt(2.0 * PI)
        want = np.sqrt(a / PI) * t / (NORM_FLOOR + t)
        assert abs(support_defect(c, DelayConfig(a)) - want) <= 1e-12

    def test_indicator_of_allowed_support(self, cfg):
        # The Fourier data of the indicator of [a-pi, pi-a]: only the Gibbs
        # ripple of the truncated series leaks out, O(N^-1/2) in L2.
        b = PI - cfg.a
        defects = []
        for n_max in (50, 800):
            n = np.arange(1, n_max + 1)
            half = 2.0 * np.sin(n * b) / n
            c = np.concatenate((half[::-1], [2.0 * b], half)).astype(complex)
            defects.append(support_defect(c, cfg))
        assert defects[0] < 0.5 / np.sqrt(50)
        assert defects[1] < defects[0] / 3.0

    def test_mass_outside_detected(self, cfg):
        # A narrow Gaussian centred on x = +-pi, which is outside the support.
        n = np.arange(-200, 201)
        sigma = 0.05
        c = (sigma * np.sqrt(2.0 * PI) * np.exp(-0.5 * (sigma * n) ** 2) * (-1.0) ** n).astype(complex)
        assert support_defect(c, cfg) > 0.5

    def test_one_row_required(self, cfg):
        for bad in (np.zeros((2, 21), complex), np.zeros(0, complex)):
            with pytest.raises(ValueError):
                support_defect(bad, cfg)

    def test_grid_defect_converges_at_second_order(self, cfg, smooth_spectra):
        # The grid value's gap to the Parseval value falls ~16x when h falls 4x.
        m = 64
        for j in (1, 2):
            c = delta_at_integers(build_product(smooth_spectra[(2, j)].truncated(20)))
            exact = support_defect(c, cfg)
            coarse, fine = (abs(grid_defect(c, cfg, k * m + 1) - exact) for k in (4, 16))
            assert 12.0 < coarse / fine < 24.0
            assert fine < 1e-2 * exact

    def test_forward_data_passes_gate(self, cfg, smooth_spectra):
        for j in (1, 2):
            c = delta_at_integers(build_product(smooth_spectra[(2, j)]))
            assert support_defect(c, cfg) <= 1e-3


def interpolated_w(u1, u2, cfg, nu):
    """assemble_w with the reflected arguments interpolated on the kernel grid.

    The form that reading every second kernel sample replaced, kept as the
    reference.
    """
    m = (u1.size + 1) // 2
    kgrid = cfg.kernel_grid(m)
    x = cfg.potential_grid(m).nodes
    u1a, u2a = (interpolate(kgrid, u, PI + cfg.a - 2.0 * x) for u in (u1, u2))
    u1b, u2b = (interpolate(kgrid, u, 2.0 * x - PI - cfg.a) for u in (u1, u2))
    if nu == 2:
        return (1j * u1a - u2a) - (1j * u1b + u2b), (u1a + 1j * u2a) + (u1b - 1j * u2b)
    return -(u1a + 1j * u2a) - (u1b - 1j * u2b), (1j * u1a - u2a) - (1j * u1b + u2b)


class TestAssembleW:
    @pytest.mark.parametrize("m", [64, 65, 512, 1024, 4096])
    @pytest.mark.parametrize("a", [0.40 * PI, 0.42 * PI, 0.49 * PI])
    def test_matches_interpolating_reference(self, a, m):
        cfg = DelayConfig(a)
        pot = smooth_example_pair(cfg, m)
        for nu in (1, 2):
            ker = compute_kernels(pot, cfg, nu)
            w = assemble_w(ker.u1, ker.u2, cfg, nu)
            for got, ref in zip((w.w1, w.w2), interpolated_w(ker.u1, ker.u2, cfg, nu)):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_zero_kernels(self, cfg):
        m = 128
        u = np.zeros(2 * m - 1, complex)
        for nu in (1, 2):
            w = assemble_w(u, u, cfg, nu)
            assert np.all(w.w1 == 0) and np.all(w.w2 == 0)

    def test_norm_bound(self, cfg):
        # The assembly obeys ||w_k|| <= 2 sqrt(2) (||u_1|| + ||u_2||).
        rng = np.random.default_rng(37)
        m = 128
        kg = cfg.kernel_grid(m)
        for nu in (1, 2):
            for _ in range(20):
                u1 = rng.standard_normal(kg.m) + 1j * rng.standard_normal(kg.m)
                u2 = rng.standard_normal(kg.m) + 1j * rng.standard_normal(kg.m)
                w = assemble_w(u1, u2, cfg, nu)
                bound = 2.0 * np.sqrt(2.0) * (l2_norm(kg, u1) + l2_norm(kg, u2))
                n1, n2 = w.norms()
                assert n1 <= bound and n2 <= bound

    def test_constant_p_outer_readout(self, cfg, const_p_pair):
        # With q = 0, p = 0.3 the assembled w2 equals 0.3 on the outer set.
        ker = compute_kernels(const_p_pair, cfg, 2)
        w = assemble_w(ker.u1, ker.u2, cfg, 2)
        outer = cfg.outer_mask(w.grid.nodes)
        assert np.max(np.abs(w.w2[outer] - 0.3)) < 1e-12
        assert np.max(np.abs(w.w1[outer])) < 1e-12

    def test_length_validation(self, cfg):
        with pytest.raises(ValueError):
            assemble_w(np.zeros(10, complex), np.zeros(10, complex), cfg, 2)


class TestRecoverOuter:
    # The readout on the outer set [a, 3a/2] u [pi-a/2, pi], where it is w itself.

    def test_zero(self, cfg):
        grid = cfg.potential_grid(64)
        w = WPair(2, grid, np.zeros(64, complex), np.zeros(64, complex))
        rec = recover_inner(w)
        outer = cfg.outer_mask(grid.nodes)
        assert np.all(rec.q[outer] == 0) and np.all(rec.p[outer] == 0)

    def test_conjugation_passthrough(self, cfg):
        rng = np.random.default_rng(41)
        grid = cfg.potential_grid(64)
        w1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a = recover_inner(WPair(2, grid, w1, w2))
        b = recover_inner(WPair(2, grid, np.conj(w1), np.conj(w2)))
        outer = cfg.outer_mask(grid.nodes)
        assert np.array_equal(b.q[outer], np.conj(a.q[outer]))
        assert np.array_equal(b.p[outer], np.conj(a.p[outer]))

    def test_constant_p_round_trip(self, cfg, const_p_pair):
        ker = compute_kernels(const_p_pair, cfg, 2)
        rec = reconstruct_from_kernels(ker, cfg)
        outer = cfg.outer_mask(rec.grid.nodes)
        assert np.max(np.abs(rec.p[outer] - 0.3)) < 1e-3
        assert np.max(np.abs(rec.q[outer])) < 1e-3


class TestGamma:
    def test_constant_w(self, cfg):
        grid = cfg.potential_grid(UNIT_M)
        alpha, beta = 0.7 + 0.2j, -0.3 + 0.5j
        w = WPair(2, grid, np.full(UNIT_M, alpha), np.full(UNIT_M, beta))
        x = 0.5 * (cfg.outer_break_lo + cfg.outer_break_hi)
        g1, g2 = gamma(w, x)
        # Hand integration: constant integrand over [x + a/2, pi].
        assert abs(g1) < 1e-14
        assert abs(g2 - (alpha**2 + beta**2) * (PI - x - cfg.a / 2)) < 1e-14

    def test_equal_components_cancel(self, cfg):
        rng = np.random.default_rng(43)
        grid = cfg.potential_grid(UNIT_M)
        w1 = rng.standard_normal(UNIT_M) + 1j * rng.standard_normal(UNIT_M)
        w = WPair(1, grid, w1, w1.copy())
        x = 0.5 * (cfg.outer_break_lo + cfg.outer_break_hi)
        g1, _ = gamma(w, x)
        assert abs(g1) < 1e-12

    def test_vanishes_at_right_end(self, cfg):
        grid = cfg.potential_grid(UNIT_M)
        w = WPair(2, grid, np.full(UNIT_M, 1.0 + 0j), np.full(UNIT_M, 1.0 + 0j))
        x = cfg.outer_break_hi - 0.5 * grid.h
        g1, g2 = gamma(w, x)
        assert abs(g1) < 1e-14
        assert abs(g2) < 4.0 * grid.h  # interval of length h/2, |w|^2 = 2

    def test_array_matches_scalar_calls(self, cfg):
        rng = np.random.default_rng(45)
        grid = cfg.potential_grid(UNIT_M)
        w1, w2 = rng.standard_normal((2, UNIT_M)) + 1j * rng.standard_normal((2, UNIT_M))
        w = WPair(2, grid, w1, w2)
        xs = grid.nodes[cfg.inner_mask(grid.nodes)][::7]
        g1, g2 = gamma(w, xs)
        assert g1.shape == g2.shape == xs.shape
        for k, x in enumerate(xs):
            s1, s2 = gamma(w, float(x))
            assert isinstance(s1, complex) and isinstance(s2, complex)
            assert (s1, s2) == (g1[k], g2[k])
            r1, r2 = loop_gamma(w, float(x))
            assert abs(s1 - r1) + abs(s2 - r2) <= 1e-12 * (abs(r1) + abs(r2))

    def test_domain_validation(self, cfg):
        grid = cfg.potential_grid(64)
        w = WPair(2, grid, np.zeros(64, complex), np.zeros(64, complex))
        with pytest.raises(ValueError):
            gamma(w, cfg.outer_break_lo)  # boundary is not inside
        with pytest.raises(ValueError):
            gamma(w, np.array([2.0, cfg.outer_break_hi]))  # one point outside

    @staticmethod
    def locality_moves(cfg, x, margin):
        # Relative change of gamma(x) under an O(1) change of w at the nodes
        # more than ``margin`` outside [x + a/2, pi] u [a, pi - a], and under
        # one at the nodes inside that widened set (the control).
        grid = cfg.potential_grid(UNIT_M)
        rng = np.random.default_rng(47)
        w1 = rng.standard_normal(UNIT_M) + 0j
        w2 = rng.standard_normal(UNIT_M) + 0j
        t, a = grid.nodes, cfg.a
        tol = 1e-9 * grid.h
        used = (t >= x + 0.5 * a - margin - tol) | (t <= PI - a + margin + tol)
        assert np.count_nonzero(~used) > 20
        base = np.array(gamma(WPair(2, grid, w1, w2), x))

        def moved(sel):
            bump = np.where(sel, 1.0 - 2.0j, 0.0)
            g = np.array(gamma(WPair(2, grid, w1 + bump, w2 - bump), x))
            return np.max(np.abs(g - base)) / np.max(np.abs(base))

        return moved(~used), moved(used)

    def test_locality(self, cfg):
        # gamma(x) reads w directly on [x + a/2, pi] and through the shifted
        # argument on [a, pi - a]; with x + a/2 on a node, nothing else.
        t = cfg.potential_grid(UNIT_M).nodes
        x = cfg.outer_break_lo + 0.25 * (cfg.outer_break_hi - cfg.outer_break_lo)
        x = t[np.searchsorted(t, x + 0.5 * cfg.a)] - 0.5 * cfg.a
        outside, inside = self.locality_moves(cfg, x, 0.0)
        assert outside < 1e-12
        assert inside > 1e-3

    def test_locality_off_node(self, cfg):
        # Between nodes, linear interpolation at x + a/2 and at the shifted
        # end also reads the node one step outside each set.
        h = cfg.potential_grid(UNIT_M).h
        x = cfg.outer_break_lo + 0.25 * (cfg.outer_break_hi - cfg.outer_break_lo)
        outside, inside = self.locality_moves(cfg, x, h)
        assert outside < 1e-12
        assert inside > 1e-3


def loop_gamma(w, x):
    """gamma at one point, one trapezoid sum: the loop FFT correlation replaced."""
    a = w.grid.lo
    t0 = x + 0.5 * a
    nodes = w.grid.nodes
    first = np.searchsorted(nodes, t0, side="right")
    ts = np.concatenate(([t0], nodes[first:]))
    shift = ts - x + 0.5 * a
    w1_t = interpolate(w.grid, w.w1, ts)
    w2_t = interpolate(w.grid, w.w2, ts)
    w1_s = interpolate(w.grid, w.w1, shift)
    w2_s = interpolate(w.grid, w.w2, shift)
    g1 = np.trapezoid(w1_t * w2_s - w2_t * w1_s, ts)
    g2 = np.trapezoid(w1_t * w1_s + w2_t * w2_s, ts)
    return complex(g1), complex(g2)


def loop_recover_inner(w):
    """recover_inner with one gamma call per inner node, as (q, p)."""
    sign = -1.0 if w.nu == 2 else 1.0
    mask = DelayConfig(w.grid.lo).inner_mask(w.grid.nodes)
    q = w.w1.copy()
    p = w.w2.copy()
    for idx in np.nonzero(mask)[0]:
        g1, g2 = loop_gamma(w, float(w.grid.nodes[idx]))
        q[idx] = w.w1[idx] + sign * g1
        p[idx] = w.w2[idx] + sign * g2
    return q, p


class TestRecoverInner:
    @pytest.mark.parametrize("m", [64, 256, 1024])
    @pytest.mark.parametrize("pair", ["smooth", "random"])
    def test_matches_per_node_loop(self, cfg, m, pair):
        for nu in (1, 2):
            if pair == "smooth":
                ker = compute_kernels(smooth_example_pair(cfg, m=m), cfg, nu)
                w = assemble_w(ker.u1, ker.u2, cfg, nu)
            else:
                rng = np.random.default_rng(m + nu)
                w1, w2 = 0.3 * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
                w = WPair(nu, cfg.potential_grid(m), w1, w2)
            rec = recover_inner(w)
            q_ref, p_ref = loop_recover_inner(w)
            assert rec.grid == w.grid
            for got, ref in ((rec.q, q_ref), (rec.p, p_ref)):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            outer = cfg.outer_mask(w.grid.nodes)
            assert np.array_equal(rec.q[outer], w.w1[outer])
            assert np.array_equal(rec.p[outer], w.w2[outer])

    def test_zero(self, cfg):
        grid = cfg.potential_grid(64)
        w = WPair(2, grid, np.zeros(64, complex), np.zeros(64, complex))
        rec = recover_inner(w)
        assert np.all(rec.q == 0) and np.all(rec.p == 0)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_direct_kernel_reconstruction_is_exact(self, cfg, smooth_pair, smooth_kernels, nu):
        # Bypassing the spectra, the w/gamma machinery inverts the kernel
        # construction identically: the discrete correlation integral and
        # the discrete correction use the same abscissae and cancel.
        rec = reconstruct_from_kernels(smooth_kernels[nu], cfg)
        assert combined_rel_error(rec, smooth_pair) < 1e-12

    def test_constant_p_inner_correction(self, cfg, const_p_pair):
        # The quadratic term the kernels add on the inner interval is
        # exactly removed by gamma.
        rec = reconstruct_from_kernels(compute_kernels(const_p_pair, cfg, 2), cfg)
        assert np.max(np.abs(rec.p - 0.3)) < 1e-12
        assert np.max(np.abs(rec.q)) < 1e-12

    @pytest.mark.parametrize("nu", [1, 2])
    def test_wrong_sign_is_worse(self, cfg, smooth_pair, smooth_kernels, nu):
        # Negative control: flipping the branch sign of the correction
        # must hurt by at least the correction's own size.
        ker = smooth_kernels[nu]
        w = assemble_w(ker.u1, ker.u2, cfg, nu)
        good = recover_inner(w)
        gamma_q = good.q - w.w1  # zero on the outer set
        gamma_norm = np.sqrt(np.sum(np.abs(gamma_q) ** 2) * w.grid.h)
        q_bad = w.w1 - gamma_q
        bad_err = l2_norm(w.grid, q_bad - smooth_pair.q)
        good_err = l2_norm(w.grid, good.q - smooth_pair.q)
        assert gamma_norm > 0
        assert bad_err >= good_err + 1.9 * gamma_norm


class TestInvertSpectra:
    def test_zero_potential_round_trip(self, cfg, zero_pair):
        ker = compute_kernels(zero_pair, cfg, 2)
        s1 = find_spectrum(ker, 1, 30)
        s2 = find_spectrum(ker, 2, 30)
        rep = invert_spectra(s1, s2, cfg, m=UNIT_M)
        assert np.max(np.abs(rep.potentials.q)) < 1e-8
        assert np.max(np.abs(rep.potentials.p)) < 1e-8
        assert rep.support_defect <= 1e-3
        assert rep.residual_l2 is None

    @pytest.mark.parametrize("nu", [1, 2])
    def test_smooth_round_trip(self, cfg, smooth_pair, smooth_spectra, nu):
        rep = invert_spectra(smooth_spectra[(nu, 1)], smooth_spectra[(nu, 2)], cfg, m=UNIT_M)
        assert combined_rel_error(rep.potentials, smooth_pair) < 5e-2
        assert rep.support_defect <= 1e-3

    def test_branch_consistency(self, cfg, smooth_spectra):
        rep1 = invert_spectra(smooth_spectra[(1, 1)], smooth_spectra[(1, 2)], cfg, m=UNIT_M)
        rep2 = invert_spectra(smooth_spectra[(2, 1)], smooth_spectra[(2, 2)], cfg, m=UNIT_M)
        assert combined_rel_error(rep1.potentials, rep2.potentials) < 5e-3

    def test_deterministic(self, cfg, smooth_spectra):
        rep_a = invert_spectra(smooth_spectra[(2, 1)], smooth_spectra[(2, 2)], cfg, m=UNIT_M)
        rep_b = invert_spectra(smooth_spectra[(2, 1)], smooth_spectra[(2, 2)], cfg, m=UNIT_M)
        assert np.array_equal(rep_a.potentials.q, rep_b.potentials.q)
        assert np.array_equal(rep_a.potentials.p, rep_b.potentials.p)
        assert rep_a.support_defect_1 == rep_b.support_defect_1

    def test_mismatched_branches_rejected(self, cfg, smooth_spectra):
        with pytest.raises(SpectraMismatchError):
            invert_spectra(smooth_spectra[(1, 1)], smooth_spectra[(2, 2)], cfg)
        with pytest.raises(SpectraMismatchError):
            invert_spectra(smooth_spectra[(2, 2)], smooth_spectra[(2, 1)], cfg)

    def test_forward_only_config_rejected(self, smooth_spectra):
        # Below 2*pi/5 the config serves the forward solver, but not inversion.
        for a in (0.38 * PI, 0.39 * PI):
            message = rf"a >= 2\*pi/5 = 1\.25664; got a={a:.6g}"
            with pytest.raises(RegimeError, match=message):
                invert_spectra(smooth_spectra[(2, 1)], smooth_spectra[(2, 2)], DelayConfig(a))

    def test_far_eigenvalues_fail_the_gate(self, cfg, smooth_spectra):
        # Two eigenvalues at 1e200 overflow the product; the non-finite
        # defect fails the gate even when the gate is off.
        spec = smooth_spectra[(2, 1)]
        lam = spec.lam.copy()
        lam[[3, 40]] = 1e200
        far = Spectrum(2, 1, spec.n_max, lam)
        for gate in (1e-3, np.inf):
            with pytest.raises(SupportDefectError, match="defects nan") as info:
                invert_spectra(far, smooth_spectra[(2, 2)], cfg, m=UNIT_M, support_gate=gate)
            assert not np.isfinite(info.value.defects[0])
            assert np.isfinite(info.value.defects[1])

    @staticmethod
    def corrupted_tail_pair(smooth_spectra):
        def corrupt(spec):
            lam = spec.lam.copy()
            tail = np.abs(spec.indices) > spec.n_max // 2
            lam[tail] = spec.centers[tail] + 0.3
            return Spectrum(spec.nu, spec.j, spec.n_max, lam)

        return corrupt(smooth_spectra[(2, 1)]), corrupt(smooth_spectra[(2, 2)])

    def test_corrupted_tail_fails_gate(self, cfg, smooth_spectra):
        bad1, bad2 = self.corrupted_tail_pair(smooth_spectra)
        with pytest.raises(SupportDefectError) as exc_info:
            invert_spectra(bad1, bad2, cfg, m=UNIT_M)
        assert max(exc_info.value.defects) >= 1e-1

    def test_infinite_gate_reports_defects(self, cfg, smooth_spectra):
        # support_gate=inf never trips: the same pair inverts and reports
        # the defects that the default gate rejects.
        bad1, bad2 = self.corrupted_tail_pair(smooth_spectra)
        rep = invert_spectra(bad1, bad2, cfg, m=UNIT_M, support_gate=np.inf)
        assert rep.support_defect > 1e-3
        assert np.all(np.isfinite(rep.potentials.q)) and np.all(np.isfinite(rep.potentials.p))
        with pytest.raises(SupportDefectError) as exc_info:
            invert_spectra(bad1, bad2, cfg, m=UNIT_M)
        assert exc_info.value.defects == (rep.support_defect_1, rep.support_defect_2)

    def test_residual_verification(self, cfg, smooth_pair, smooth_spectra):
        rep = invert_spectra(
            smooth_spectra[(2, 1)], smooth_spectra[(2, 2)], cfg, m=UNIT_M,
            verify_residual=True,
        )
        assert rep.residual_l2 is not None
        assert rep.residual_l2 < 1e-2


class TestScaling:
    def test_w_linear_gamma_quadratic(self, cfg, smooth_pair):
        # For potentials scaled by eps the readout part scales like eps and
        # the correction like eps^2.
        eps_list = [1e-1, 1e-2, 1e-3]
        norms_w, norms_g = [], []
        for eps in eps_list:
            ker = compute_kernels(smooth_pair.scaled(eps), cfg, 2)
            w = assemble_w(ker.u1, ker.u2, cfg, 2)
            inner_nodes = w.grid.nodes[cfg.inner_mask(w.grid.nodes)][::40]
            gs = np.array([gamma(w, float(t)) for t in inner_nodes])
            norms_w.append(np.sqrt(sum(n**2 for n in w.norms())))
            norms_g.append(np.sqrt(np.sum(np.abs(gs) ** 2)))
        slope_w = np.polyfit(np.log10(eps_list), np.log10(norms_w), 1)[0]
        slope_g = np.polyfit(np.log10(eps_list), np.log10(norms_g), 1)[0]
        assert abs(slope_w - 1.0) < 0.1
        assert abs(slope_g - 2.0) < 0.2
