import cmath
import math

import numpy as np
import pytest

from delaydirac import Spectrum, build_product, delta_at_integers, delta_eval
from delaydirac.forward import lattice_shift, trig_head

PI = np.pi
PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def lattice_spectrum(nu, j, n_max):
    lam = np.arange(-n_max, n_max + 1) + lattice_shift(nu, j)
    return Spectrum(nu, j, n_max, lam.astype(complex))


def naive_compensated(nu, j, zeros, lam):
    """Independent ratio-product arithmetic in plain Python complex.

    Heads and lattices are written out literally; factors are taken in plain
    index order, which is fine at these sizes.
    """
    n_max = (len(zeros) - 1) // 2
    shift = {(1, 1): 0.0, (1, 2): -0.5, (2, 1): -0.5, (2, 2): -1.0}[(nu, j)]
    head = {
        (1, 1): lambda z: -cmath.sin(PI * z),
        (1, 2): lambda z: cmath.cos(PI * z),
        (2, 1): lambda z: cmath.cos(PI * z),
        (2, 2): lambda z: cmath.sin(PI * z),
    }[(nu, j)]
    head_prime = {
        (1, 1): lambda z: -PI * cmath.cos(PI * z),
        (1, 2): lambda z: -PI * cmath.sin(PI * z),
        (2, 1): lambda z: -PI * cmath.sin(PI * z),
        (2, 2): lambda z: PI * cmath.cos(PI * z),
    }[(nu, j)]
    lam = complex(lam)
    prod = 1.0 + 0.0j
    singular = None
    for k, n in enumerate(range(-n_max, n_max + 1)):
        point = n + shift
        if abs(point - lam) < 1e-12:
            singular = k
            continue
        prod *= (complex(zeros[k]) - lam) / (point - lam)
    if singular is None:
        return head(lam) * prod
    point = (singular - n_max) + shift
    return -head_prime(point) * (complex(zeros[singular]) - lam) * prod


def long_double_at_integers(spec):
    """Fourier data c_n of ``spec`` from its product in np.clongdouble.

    Factors (lambda_n - k) / (c_n - k) are multiplied in plain index order.
    Where c_n = k the head and that factor's denominator cancel to
    -head'(k) = +-pi (-1)^k (the sine branches); elsewhere the head is taken
    from ``trig_head`` in double, so only the product is compared.
    """
    n = spec.indices
    k = n.astype(np.longdouble)
    lam = spec.lam.astype(np.clongdouble)
    den = (n + spec.shift).astype(np.longdouble)[:, None] - k
    on_lattice = den == 0
    ratio = (lam[:, None] - k) / np.where(on_lattice, 1, den)
    ratio[on_lattice] = 1
    head = trig_head(spec.nu, spec.j, n).astype(np.clongdouble)
    sign = np.where(n % 2 == 0, 1, -1)
    hit = on_lattice.any(axis=0)
    zero = lam[np.argmax(on_lattice, axis=0)]
    head_prime = (-PI_LD if spec.nu == 1 else PI_LD) * sign
    head[hit] = (-head_prime * (zero - k))[hit]
    vals = head * np.multiply.reduce(ratio, axis=0)
    if (spec.nu, spec.j) in ((1, 2), (2, 1)):
        vals = vals - sign
    return vals


class TestHeadReproduction:
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("j", [1, 2])
    def test_unperturbed_lattice_gives_head(self, nu, j):
        ev = build_product(lattice_spectrum(nu, j, 100))
        lam = np.linspace(-10.0, 10.0, 401)  # hits lattice points too
        err = np.abs(ev(lam.astype(complex)) - trig_head(nu, j, lam))
        assert np.max(err) < 1e-12

    def test_cosine_branch_values(self):
        ev = build_product(lattice_spectrum(2, 1, 100))
        assert abs(ev(0.0) - 1.0) < 1e-12
        assert abs(ev(0.7) - math.cos(0.7 * PI)) < 1e-12

    def test_sine_branch_value(self):
        ev = build_product(lattice_spectrum(1, 1, 100))
        assert abs(ev(0.5) - (-1.0)) < 1e-12


class TestShiftedZero:
    def test_single_shift_analytic(self):
        # Only the zero at lattice point 0 moves (index n=1 on this branch),
        # so the product collapses to sin(pi lam) (0.1 - lam)/(-lam).
        n_max = 100
        zeros = (np.arange(-n_max, n_max + 1) - 1.0).astype(complex)
        zeros[n_max + 1] = 0.1
        ev = build_product(Spectrum(2, 2, n_max, zeros))
        assert abs(ev(0.0) - (-0.1 * PI)) < 1e-13
        for m in (-2, -1, 1, 2, 3):
            assert abs(ev(float(m))) < 1e-13
        for lam in (0.37, -1.83, 2.4 + 0.7j):
            want = cmath.sin(lam * PI) * (0.1 - lam) / (0.0 - lam)
            assert abs(ev(lam) - want) < 1e-12

    def test_multi_shift_against_naive_product(self):
        rng = np.random.default_rng(23)
        n_max = 40
        for nu, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lat = np.arange(-n_max, n_max + 1) + lattice_shift(nu, j)
            zeros = lat + 0.05 * (rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)) / (1 + np.abs(np.arange(-n_max, n_max + 1)))
            ev = build_product(Spectrum(nu, j, n_max, zeros))
            for lam in (0.0, 1.0, -3.0, 0.21, 2.4 - 0.3j, lat[5]):
                want = naive_compensated(nu, j, zeros, lam)
                got = ev(complex(lam))
                assert abs(got - want) <= 1e-11 * (1.0 + abs(want))

    def test_zero_fidelity(self):
        rng = np.random.default_rng(29)
        n_max = 60
        lat = np.arange(-n_max, n_max + 1) - 0.5
        zeros = lat + 0.03 * (rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
        ev = build_product(Spectrum(2, 1, n_max, zeros))
        vals = np.abs(ev(zeros))
        assert np.all(vals <= 1e-10 * (1.0 + np.abs(zeros)))

    def test_conjugation(self):
        rng = np.random.default_rng(31)
        n_max = 30
        lat = np.arange(-n_max, n_max + 1).astype(float)
        zeros = lat + 0.05 * (rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
        ev = build_product(Spectrum(1, 1, n_max, zeros))
        ev_conj = build_product(Spectrum(1, 1, n_max, np.conj(zeros)))
        lam = rng.uniform(-5, 5, 8) + 1j * rng.uniform(-1, 1, 8)
        assert np.max(np.abs(ev_conj(np.conj(lam)) - np.conj(ev(lam)))) < 1e-12


class TestVectorised:
    def test_vectorised_equals_pointwise(self):
        # 4000 points against 601 zeros in one call; each point gets the
        # value it has on its own (up to round-off: a single point reduces a
        # contiguous column, which numpy may multiply out differently).
        rng = np.random.default_rng(53)
        n_max = 300
        lat = np.arange(-n_max, n_max + 1) - 0.5
        zeros = lat + 0.05 * (rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
        spec = Spectrum(1, 2, n_max, zeros)
        ev = build_product(spec)
        assert ev.spectrum is spec
        lam = np.linspace(-n_max - 3, n_max + 3, 4000) + 0.3j
        vals = ev(lam)
        for k in list(range(0, lam.size, 199)) + [3488, 3489, 3999]:
            assert abs(ev(lam[k]) - vals[k]) <= 1e-14 * abs(vals[k])


class TestLatticeAndLimits:
    @pytest.mark.parametrize("lam", [np.nan, np.inf, 1j * np.inf,
                                     np.array([1.0, np.nan]), np.array([[0.5, 2.0 - np.inf * 1j]])])
    def test_non_finite_lambda_rejected(self, lam):
        ev = build_product(lattice_spectrum(2, 1, 10))
        with pytest.raises(ValueError, match="lambda must be finite"):
            ev(lam)

    # Lattice points just past N = 40: k = N on (2, 2), +-(N+1) on (1, 1).
    @pytest.mark.parametrize("nu, j, lam", [(2, 2, [40]), (1, 1, [-41, 41])])
    def test_lattice_points_outside_the_truncation(self, nu, j, lam):
        # The head vanishes there, up to the rounding of sin(pi lam), but no
        # factor is singular: the value is the plain product, with no warning.
        rng = np.random.default_rng(37)
        n_max = 40
        lat = np.arange(-n_max, n_max + 1) + lattice_shift(nu, j)
        zeros = lat + 0.05 * (rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
        ev = build_product(Spectrum(nu, j, n_max, zeros))
        vals = ev(np.array(lam, dtype=complex))
        assert np.all(np.isfinite(vals))
        for got, at in zip(vals, lam):
            want = naive_compensated(nu, j, zeros, at)
            assert want != 0
            assert abs(got - want) <= 1e-12 * abs(want)


class TestDeltaAtIntegers:
    def test_against_long_double(self, smooth_spectra):
        for (nu, j), spec in smooth_spectra.items():
            ref = long_double_at_integers(spec)
            c = delta_at_integers(build_product(spec))
            assert np.max(np.abs(c - ref)) <= 5e-14 * np.max(np.abs(ref)), (nu, j)

    def test_unperturbed_sine_branch_vanishes(self):
        ev = build_product(lattice_spectrum(1, 1, 50))
        c = delta_at_integers(ev)
        assert np.max(np.abs(c)) < 1e-12

    def test_unperturbed_cosine_branch_vanishes(self):
        ev = build_product(lattice_spectrum(2, 1, 50))
        c = delta_at_integers(ev)
        assert np.max(np.abs(c)) < 1e-12

    def test_matches_direct_evaluation(self, smooth_kernels, smooth_spectra):
        # Against the forward closed form at the integers.
        for nu in (1, 2):
            for j in (1, 2):
                spec = smooth_spectra[(nu, j)]
                ev = build_product(spec)
                c = delta_at_integers(ev)
                n = np.arange(-spec.n_max, spec.n_max + 1)
                direct = delta_eval(smooth_kernels[nu], j, n.astype(complex))
                if (nu, j) in ((1, 2), (2, 1)):
                    direct = direct - np.where(n % 2 == 0, 1.0, -1.0)
                assert np.max(np.abs(c - direct)) < 2e-3

    def test_constant_p_integer_samples(self, cfg, const_p_pair):
        # Forward spectra of q = 0, p = 0.3: the rebuilt integer samples
        # track the closed form within 2e-3 at N = 200 and improve with N.
        from delaydirac import compute_kernels, find_spectrum

        ker = compute_kernels(const_p_pair, cfg, 2)
        spec = find_spectrum(ker, 1, 200)
        errs = []
        for n_max in (100, 200):
            sub = spec.truncated(n_max)
            c = delta_at_integers(build_product(sub))
            n = np.arange(-n_max, n_max + 1)
            direct = delta_eval(ker, 1, n.astype(complex)) - np.where(n % 2 == 0, 1.0, -1.0)
            errs.append(np.max(np.abs(c - direct)))
        assert errs[1] < 2e-3
        assert errs[1] < errs[0]

    def test_truncation_improves(self, smooth_kernels, smooth_spectra):
        ker = smooth_kernels[2]
        spec = smooth_spectra[(2, 1)]
        lam = np.linspace(-5, 5, 101).astype(complex)
        direct = delta_eval(ker, 1, lam)
        errs = []
        for n in (20, 40, 60):
            ev = build_product(spec.truncated(n))
            errs.append(np.max(np.abs(ev(lam) - direct)))
        assert errs[2] < errs[1] < errs[0]
