import numpy as np
import pytest

from delaydirac import (
    A_MAX,
    A_MIN_FORWARD,
    A_MIN_INVERSE,
    DelayConfig,
    Grid,
    GridRangeError,
    PotentialPair,
    RegimeError,
    Spectrum,
    interpolate,
    quadrature,
)
from delaydirac.core import chirp_sum, scattered_sum, tail_correlation
from delaydirac.forward import ROOT_BOX_IM

from conftest import exp_sum_scale, long_double_exp_sum

PI = np.pi


class TestGrid:
    def test_nodes_and_spacing(self):
        g = Grid(0.0, 1.0, 11)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert np.allclose(np.diff(g.nodes), g.h)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 5)

    def test_nodes_immutable(self):
        g = Grid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            g.nodes[0] = 3.0


class TestInterpolate:
    def test_constant(self):
        g = Grid(0.0, 2.0, 9)
        samples = np.full(9, 1.5 - 0.5j)
        for x in (0.0, 0.3, 1.99, 2.0):
            assert interpolate(g, samples, x) == pytest.approx(1.5 - 0.5j)

    def test_exact_at_nodes(self):
        g = Grid(-1.0, 1.0, 17)
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        got = interpolate(g, samples, g.nodes)
        assert np.array_equal(got, samples)

    def test_linear_midpoint(self):
        g = Grid(0.0, 1.0, 5)
        samples = g.nodes.astype(complex)
        mid = 0.5 * (g.nodes[2] + g.nodes[3])
        assert interpolate(g, samples, mid) == pytest.approx(0.5 * (samples[2] + samples[3]))

    def test_out_of_range(self):
        g = Grid(0.0, 1.0, 5)
        samples = np.zeros(5, complex)
        with pytest.raises(GridRangeError):
            interpolate(g, samples, 1.1)
        with pytest.raises(GridRangeError):
            interpolate(g, samples, np.array([0.5, -0.2]))


class TestQuadrature:
    def test_constant(self):
        g = Grid(0.0, 2.0, 21)
        samples = np.full(21, 0.7 + 0.2j)
        assert quadrature(g, samples) == pytest.approx((0.7 + 0.2j) * 2.0)

    def test_linear_exact(self):
        g = Grid(0.0, 1.0, 11)
        samples = g.nodes.astype(complex)
        assert quadrature(g, samples) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_converges(self):
        # Independent oracle: antiderivative of x^2 gives 1/3; composite
        # trapezoid error for constant curvature is exactly (b-a) h^2 f''/12.
        g = Grid(0.0, 1.0, 1001)
        samples = (g.nodes**2).astype(complex)
        val = quadrature(g, samples)
        assert abs(val - 1.0 / 3.0) < 1e-6
        assert abs(val - (1.0 / 3.0 + g.h**2 / 6.0)) < 1e-12


def brute_exp_sum(g, x0, h, lam0, dlam, count):
    """sum_k g_k exp(i (lam0 + m dlam)(x0 + k h)) written out term by term."""
    x = x0 + h * np.arange(len(g))
    lam = lam0 + dlam * np.arange(count)
    return np.exp(1j * np.multiply.outer(lam, x)) @ np.asarray(g, complex)


class TestChirpSum:
    # Relative to the largest value; the chirp phases carry round-off of
    # order eps * (L + count)^2 * |dlam h|, about 1e-13 at the sizes below.
    TOL = 1e-12

    @pytest.mark.parametrize(
        "size, x0, h, lam0, dlam, count",
        [
            (1, 0.3, 0.1, 0.5, 0.2, 9),                  # L = 1
            (7, -1.0, 0.25, 2.0 - 0.4j, 0.3, 1),         # count = 1
            (1, 0.7, 0.5, -1.5, 0.1, 1),                 # both 1
            (33, -0.9, 0.05, 40.5 + 1.0j, -0.125, 50),   # negative dlam, complex lam0
            (64, 0.0, 0.1, -3.0 - 1.0j, 0.125, 64),      # even sizes
        ],
    )
    def test_small_cases(self, size, x0, h, lam0, dlam, count):
        rng = np.random.default_rng(size * 1000 + count)
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        ref = brute_exp_sum(g, x0, h, lam0, dlam, count)
        got = chirp_sum(g, x0, h, lam0, dlam, count)
        assert got.shape == (count,)
        assert np.max(np.abs(got - ref)) <= self.TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("count", [4097, 2047])
    def test_synthesis_sizes(self, count):
        # n = -200..200 against the period grid (4M+1 nodes on [-pi, pi]) and
        # the kernel grid (2M-1 nodes on [a-pi, pi-a]) at M = 1024.
        a = 0.42 * PI
        lo, hi = (-PI, PI) if count == 4097 else (a - PI, PI - a)
        rng = np.random.default_rng(count)
        g = rng.standard_normal(401) + 1j * rng.standard_normal(401)
        args = (g, -200.0, 1.0, -lo, -(hi - lo) / (count - 1), count)
        ref = brute_exp_sum(*args)
        assert np.max(np.abs(chirp_sum(*args) - ref)) <= self.TOL * np.max(np.abs(ref))

    def test_leading_axes_broadcast(self):
        # A stack of weight rows is summed row by row, in the same arithmetic.
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 3, 33)) + 1j * rng.standard_normal((2, 3, 33))
        args = (-0.9, 0.05, 40.5 + 1.0j, -0.125, 50)
        got = chirp_sum(g, *args)
        assert got.shape == (2, 3, 50)
        assert np.array_equal(got, [[chirp_sum(row, *args) for row in block] for block in g])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chirp_sum(np.zeros(0, complex), 0.0, 1.0, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            chirp_sum(np.zeros((3, 0), complex), 0.0, 1.0, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            chirp_sum(np.ones(3, complex), 0.0, 1.0, 0.0, 1.0, 0)


class TestScatteredSum:
    # Relative to ||g||_1 e^{X |Im lam|}.  On top of that, evaluating
    # exp(i lam x) in double rounds the phase itself by eps |lam| X, the
    # dense sum included; it shows where lam reaches the lattice's far end.
    TOL = 1e-14
    A = 0.42 * PI

    @classmethod
    def points(cls, region, seed):
        rng = np.random.default_rng(seed)
        if region == "oracle":
            return rng.uniform(-10.0, 10.0, 60) + 1j * rng.uniform(-1.0, 1.0, 60)
        # The root strip |Im lam| <= ROOT_BOX_IM out to the lattice at N = 1600.
        return rng.uniform(-1600.5, 1600.5, 60) + 1j * rng.uniform(-ROOT_BOX_IM, ROOT_BOX_IM, 60)

    # K = 1; one block (K = 2, B = 2); a padded last block (K = 3, 17);
    # perfect squares (16, 8281); the kernel grid at M = 4096 (8191).
    @pytest.mark.parametrize("size", [1, 2, 3, 16, 17, 8191, 8281])
    @pytest.mark.parametrize("region", ["oracle", "strip"])
    def test_matches_long_double_sum(self, size, region):
        rng = np.random.default_rng(size)
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x0, h = self.A - PI, 2.0 * (PI - self.A) / max(size - 1, 1)
        lam = self.points(region, size)
        got = scattered_sum(g, x0, h, lam)
        assert got.shape == lam.shape
        err = np.abs(got - long_double_exp_sum(g, x0, h, lam)) / exp_sum_scale(g, x0, h, lam)
        phase = np.finfo(float).eps * np.abs(lam) * (PI - self.A)
        assert np.all(err <= self.TOL + phase)

    @pytest.mark.parametrize("size", [1, 17, 8191])
    def test_scalar_lambda(self, size):
        rng = np.random.default_rng(size + 1)
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x0, h, lam = -1.8, 3.6 / max(size - 1, 1), 7.3 - 0.6j
        got = scattered_sum(g, x0, h, lam)
        assert got.shape == ()
        ref = long_double_exp_sum(g, x0, h, lam)[0]
        assert abs(got - ref) <= self.TOL * exp_sum_scale(g, x0, h, lam)

    def test_off_grid_origin(self):
        # Weights on [a, pi], far from centred on 0.
        rng = np.random.default_rng(9)
        g = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        x0, h = self.A, (PI - self.A) / 1023
        lam = self.points("oracle", 9)
        err = np.abs(scattered_sum(g, x0, h, lam) - long_double_exp_sum(g, x0, h, lam))
        assert np.max(err / exp_sum_scale(g, x0, h, lam)) <= self.TOL

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            scattered_sum(np.zeros(0, complex), 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            scattered_sum(np.ones((2, 3), complex), 0.0, 1.0, 1.0)


def loop_tail_correlation(grid, f, g, t0):
    """integral_{t0}^{hi} f(t) g(lo + t - t0) dt, one trapezoid sum per t0.

    The discretisation of the per-node loops the FFT primitive replaced:
    abscissae t0 and the nodes above it, f(t0) and the shifted g by linear
    interpolation.
    """
    first = np.searchsorted(grid.nodes, t0, side="right")
    ts = np.concatenate(([t0], grid.nodes[first:]))
    f_t = np.concatenate(([interpolate(grid, f, t0)], f[first:]))
    return np.trapezoid(f_t * interpolate(grid, g, grid.lo + ts - t0), ts)


class TestTailCorrelation:
    # Relative to the largest value.  The loop places each shifted argument
    # with a round-off of eps * pi, i.e. eps * pi / h in units of the step;
    # on random samples that alone reaches about 1e-13 at m = 1024.
    TOL = 1e-12
    A = 0.42 * PI

    @staticmethod
    def samples(m, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))

    def check(self, grid, t0, seed=0):
        f, g = self.samples(grid.m, seed)
        got = tail_correlation(grid, f, g, t0)
        ref = np.array([loop_tail_correlation(grid, f, g, t) for t in t0])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= self.TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [2, 3, 64, 1024])
    def test_random_limits(self, m):
        grid = Grid(self.A, PI, m)
        t0 = np.random.default_rng(m).uniform(grid.lo, grid.hi, 200)
        self.check(grid, t0, seed=m)

    def test_limit_on_a_node(self):
        # theta = 1: the first panel is a whole step, f(t0) is a node value.
        grid = Grid(self.A, PI, 64)
        self.check(grid, grid.nodes)
        self.check(grid, grid.nodes[[0, 1, 31, 62]])

    def test_last_panel_only(self):
        # first = m - 1: the integral is a single partial panel; at hi it is 0.
        grid = Grid(self.A, PI, 64)
        t0 = grid.nodes[-2] + grid.h * np.array([0.0, 0.1, 0.5, 0.999])
        assert np.all(np.searchsorted(grid.nodes, t0[1:], side="right") == grid.m - 1)
        self.check(grid, t0)
        f, g = self.samples(grid.m, 1)
        assert abs(tail_correlation(grid, f, g, grid.hi)) <= 1e-15 * np.sum(np.abs(f * g) * grid.h)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_kernel_grid_parities(self, parity):
        # The kernel's limits (pi + 2a - x)/2 over the kernel grid step by h/2:
        # even and odd kernel nodes land at different offsets from the nodes.
        cfg = DelayConfig(self.A)
        grid = cfg.potential_grid(128)
        x = cfg.kernel_grid(128).nodes[parity::2]
        x = x[np.abs(x) < cfg.kernel_break]
        self.check(grid, 0.5 * (PI + 2.0 * self.A - x))

    def test_scalar_limit(self):
        grid = Grid(self.A, PI, 64)
        f, g = self.samples(grid.m, 2)
        t0 = 2.3456
        got = tail_correlation(grid, f, g, t0)
        assert isinstance(got, complex)
        assert got == tail_correlation(grid, f, g, np.array([t0]))[0]
        assert abs(got - loop_tail_correlation(grid, f, g, t0)) <= self.TOL * abs(got)

    def test_leading_axes_broadcast(self):
        grid = Grid(self.A, PI, 64)
        fg = self.samples(grid.m, 3)
        t0 = np.linspace(grid.lo, grid.hi, 7).reshape(7, 1)
        got = tail_correlation(grid, fg[:, None], fg[None, :], t0)
        assert got.shape == (2, 2, 7, 1)
        for i in range(2):
            for k in range(2):
                assert np.array_equal(got[i, k], tail_correlation(grid, fg[i], fg[k], t0))

    def test_validation(self):
        grid = Grid(self.A, PI, 64)
        f = np.ones(64, complex)
        with pytest.raises(GridRangeError):
            tail_correlation(grid, f, f, self.A - 0.1)
        with pytest.raises(GridRangeError):
            tail_correlation(grid, f, f, [2.0, PI + 0.1])
        with pytest.raises(ValueError):
            tail_correlation(grid, np.ones(63, complex), f, 2.0)


class TestDelayConfig:
    def test_inverse_regime(self):
        # One config serves both regimes; the narrower inverse bound is
        # checked by invert_spectra, not here.
        for a in (A_MIN_INVERSE, 0.39 * PI, 0.38 * PI, 0.49 * PI):
            assert DelayConfig(a).a == a
        with pytest.raises(RegimeError):
            DelayConfig(A_MAX)

    def test_forward_regime(self):
        DelayConfig(A_MIN_FORWARD)
        message = r"a=1\.00531 outside the forward regime \[pi/3, pi/2\)"
        with pytest.raises(RegimeError, match=message):
            DelayConfig(0.32 * PI)
        with pytest.raises(RegimeError):
            DelayConfig(0.5 * PI)

    @pytest.mark.parametrize("a", np.linspace(A_MIN_INVERSE, A_MAX, 9)[:-1])
    def test_landmark_ordering(self, a):
        # a < pi-a <= 3a/2 < pi-a/2 <= 2a < pi throughout the inverse regime
        assert a < PI - a <= 1.5 * a < PI - 0.5 * a <= 2 * a < PI

    def test_partition(self):
        cfg = DelayConfig(0.42 * PI)
        x = np.linspace(cfg.a, PI, 1001)
        outer = cfg.outer_mask(x)
        inner = cfg.inner_mask(x)
        assert np.all(outer ^ inner)
        assert outer[0] and outer[-1]
        assert inner[np.argmin(np.abs(x - 0.5 * (cfg.outer_break_lo + cfg.outer_break_hi)))]
        # breaks themselves belong to the outer set
        assert cfg.outer_mask(cfg.outer_break_lo)
        assert cfg.outer_mask(cfg.outer_break_hi)

    def test_grids(self):
        cfg = DelayConfig(0.42 * PI)
        pg = cfg.potential_grid(100)
        kg = cfg.kernel_grid(100)
        assert (pg.lo, pg.hi, pg.m) == (cfg.a, PI, 100)
        assert (kg.lo, kg.hi, kg.m) == (cfg.a - PI, PI - cfg.a, 199)
        assert kg.h == pytest.approx(pg.h)

    def test_covers(self):
        cfg = DelayConfig(0.42 * PI)
        assert cfg.covers(cfg.potential_grid(9))
        assert cfg.covers(Grid(cfg.a + 5e-10, PI - 5e-10, 9))
        assert not cfg.covers(Grid(cfg.a + 1e-3, PI, 9))
        assert not cfg.covers(Grid(cfg.a, PI - 1e-3, 9))
        assert not cfg.covers(DelayConfig(0.45 * PI).potential_grid(9))


class TestDomainTypes:
    def test_potential_validation(self):
        g = Grid(1.0, 3.0, 8)
        with pytest.raises(ValueError):
            PotentialPair(g, np.zeros(7, complex), np.zeros(8, complex))

    def test_spectrum_fields(self):
        lam = (np.arange(-3, 4) - 0.5).astype(complex)
        s = Spectrum(2, 1, 3, lam)
        assert s.shift == -0.5
        assert np.array_equal(s.centers, np.arange(-3, 4) - 0.5)
        assert s.kappa_norm == 0.0
        assert s.value(-3) == -3.5
        with pytest.raises(IndexError):
            s.value(4)

    def test_spectrum_truncation(self):
        lam = (np.arange(-5, 6) + 0.1j).astype(complex)
        s = Spectrum(1, 1, 5, lam)
        t = s.truncated(2)
        assert t.n_max == 2
        assert np.array_equal(t.lam, lam[3:8])
        with pytest.raises(ValueError):
            s.truncated(6)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum(3, 1, 2, np.zeros(5, complex))
        with pytest.raises(ValueError):
            Spectrum(1, 1, 2, np.zeros(4, complex))
        with pytest.raises(ValueError):
            Spectrum(1, 1, 0, np.zeros(1, complex))
        for bad in (np.nan, np.inf, complex(0.5, -np.inf)):
            lam = np.zeros(5, complex)
            lam[3] = bad
            with pytest.raises(ValueError, match="finite"):
                Spectrum(1, 1, 2, lam)
