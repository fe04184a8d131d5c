import numpy as np
import pytest

from delaydirac import (
    BallRadiusError,
    PotentialPair,
    Spectrum,
    perturb_spectrum,
    stability_experiment,
)
from delaydirac.forward import lattice_shift

PI = np.pi


def lattice_spectrum(nu, j, n_max):
    lam = np.arange(-n_max, n_max + 1) + lattice_shift(nu, j)
    return Spectrum(nu, j, n_max, lam.astype(complex))


class TestPerturbSpectrum:
    def test_zero_radius_is_identity(self):
        spec = lattice_spectrum(2, 1, 20)
        out = perturb_spectrum(spec, 0.0, seed=1)
        assert np.array_equal(out.lam, spec.lam)

    def test_exact_norm(self):
        spec = lattice_spectrum(2, 1, 50)
        out = perturb_spectrum(spec, 0.01, seed=5)
        norm = np.sqrt(np.sum(np.abs(out.lam - spec.lam) ** 2))
        assert abs(norm - 0.01) < 1e-12

    def test_seeds_differ_norms_match(self):
        spec = lattice_spectrum(1, 1, 30)
        out_a = perturb_spectrum(spec, 0.02, seed=1)
        out_b = perturb_spectrum(spec, 0.02, seed=2)
        assert not np.array_equal(out_a.lam, out_b.lam)
        for out in (out_a, out_b):
            assert abs(np.sqrt(np.sum(np.abs(out.lam - spec.lam) ** 2)) - 0.02) < 1e-12

    def test_same_seed_reproduces(self):
        spec = lattice_spectrum(1, 2, 30)
        out_a = perturb_spectrum(spec, 0.02, seed=9)
        out_b = perturb_spectrum(spec, 0.02, seed=9)
        assert np.array_equal(out_a.lam, out_b.lam)

    def test_ball_guard(self):
        spec = lattice_spectrum(2, 1, 20)
        with pytest.raises(BallRadiusError):
            perturb_spectrum(spec, 0.6, seed=1)

    def test_negative_radius_rejected(self):
        spec = lattice_spectrum(2, 1, 5)
        with pytest.raises(ValueError):
            perturb_spectrum(spec, -0.1, seed=1)

    def test_spike_shape(self):
        spec = lattice_spectrum(2, 2, 25)
        out = perturb_spectrum(spec, 0.05, seed=3, shape="spike")
        delta = out.lam - spec.lam
        nonzero = np.abs(delta) > 0
        assert np.count_nonzero(nonzero) == 1
        assert abs(np.abs(delta[nonzero][0]) - 0.05) < 1e-14


@pytest.fixture(scope="module")
def small_zero_pair(cfg):
    m = 256
    grid = cfg.potential_grid(m)
    z = np.zeros(m, dtype=complex)
    return PotentialPair(grid, z, z)


class TestStabilityExperiment:
    def test_ratios_finite_and_deterministic(self, cfg, small_zero_pair):
        kwargs = dict(n_max=40, m=256)
        rep_a = stability_experiment(small_zero_pair, cfg, 2, 1e-2, 4, seed=7, **kwargs)
        rep_b = stability_experiment(small_zero_pair, cfg, 2, 1e-2, 4, seed=7, **kwargs)
        assert rep_a.ratios == rep_b.ratios
        assert rep_a.aborted == 0
        assert len(rep_a.ratios) == 4
        assert all(np.isfinite(r) and r > 0 for r in rep_a.ratios)
        assert rep_a.max_ratio == max(rep_a.ratios)
        assert rep_a.r_ball < 0.5

    def test_thread_count_does_not_change_results(self, cfg, small_zero_pair):
        kwargs = dict(n_max=40, m=256)
        rep_a = stability_experiment(small_zero_pair, cfg, 2, 1e-2, 3, seed=7, threads=1, **kwargs)
        rep_b = stability_experiment(small_zero_pair, cfg, 2, 1e-2, 3, seed=7, threads=3, **kwargs)
        assert rep_a.ratios == rep_b.ratios

    def test_degenerate_radius(self, cfg, small_zero_pair):
        rep = stability_experiment(small_zero_pair, cfg, 2, 0.0, 3, seed=7, n_max=40, m=256)
        assert rep.ratios == ()
        assert rep.not_applicable == 3
        assert rep.max_ratio is None

    def test_report_serializes(self, cfg, small_zero_pair):
        rep = stability_experiment(small_zero_pair, cfg, 2, 1e-3, 2, seed=7, n_max=40, m=256)
        payload = rep.to_dict()
        assert payload["trials"] == 2
        assert len(payload["ratios"]) == 2
        assert payload["r_ball"] <= 0.5
