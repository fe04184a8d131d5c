"""End-to-end acceptance gates at production resolution.

Each criterion prints one PASS/FAIL line with its wall time.  Tolerances and
budgets are fixed here; nothing is calibrated at run time.  Heavy artifacts
(kernels, spectra) are built once and shared across criteria through a
module-level cache, and their build time is charged to the first consumer.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from delaydirac import (
    DelayConfig,
    PotentialPair,
    Spectrum,
    SupportDefectError,
    WPair,
    assemble_w,
    build_product,
    compute_kernels,
    delta_eval,
    delta_oracle,
    find_spectrum,
    gamma,
    invert_spectra,
    l2_norm,
    smooth_example_pair,
    stability_experiment,
)
from delaydirac.cli import EXIT_OK, main
from delaydirac.presets import SMOOTH_EXAMPLE_A, SMOOTH_EXAMPLE_POTENTIAL

PI = np.pi
SEED = 2026
M_FULL = 1024
M_ORACLE = 2048
N_FULL = 200

_cache = {}


def cfg():
    return _cache.setdefault("cfg", DelayConfig(SMOOTH_EXAMPLE_A))


def smooth(m):
    key = ("pair", m)
    if key not in _cache:
        _cache[key] = smooth_example_pair(cfg(), m=m)
    return _cache[key]


def kernels(nu, m=M_FULL):
    key = ("ker", nu, m)
    if key not in _cache:
        _cache[key] = compute_kernels(smooth(m), cfg(), nu)
    return _cache[key]


def spectrum400(nu, j):
    key = ("spec400", nu, j)
    if key not in _cache:
        _cache[key] = find_spectrum(kernels(nu), j, 400)
    return _cache[key]


def combined_rel_error(rec, ref):
    err = np.sqrt(l2_norm(ref.grid, rec.q - ref.q) ** 2 + l2_norm(ref.grid, rec.p - ref.p) ** 2)
    base = np.sqrt(l2_norm(ref.grid, ref.q) ** 2 + l2_norm(ref.grid, ref.p) ** 2)
    return err / base


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"


def test_acceptance_1_zero_potential_exactness():
    with criterion(1, "zero-potential eigenvalue exactness", 5):
        grid = cfg().potential_grid(M_FULL)
        zero = PotentialPair(grid, np.zeros(M_FULL, complex), np.zeros(M_FULL, complex))
        for nu in (1, 2):
            ker = compute_kernels(zero, cfg(), nu)
            for j in (1, 2):
                spec = find_spectrum(ker, j, 50)
                assert np.max(np.abs(spec.lam - spec.centers)) <= 1e-10


def test_acceptance_2_closed_form_vs_oracle():
    with criterion(2, "closed form vs method-of-steps oracle", 120):
        pair = smooth(M_ORACLE)
        rng = np.random.default_rng(SEED)
        lam = rng.uniform(-10.0, 10.0, 100) + 1j * rng.uniform(-1.0, 1.0, 100)
        for nu in (1, 2):
            ker = compute_kernels(pair, cfg(), nu)
            for j in (1, 2):
                closed = delta_eval(ker, j, lam)
                oracle = delta_oracle(pair, cfg(), nu, j, lam, step=PI / 4000.0)
                rel = np.abs(closed - oracle) / (1.0 + np.abs(oracle))
                assert np.max(rel) <= 1e-5


def test_acceptance_3_hadamard_fidelity():
    with criterion(3, "product rebuild vs closed form", 60):
        lam = np.linspace(-5.0, 5.0, 201).astype(complex)
        for nu in (1, 2):
            for j in (1, 2):
                direct = delta_eval(kernels(nu), j, lam)
                err200 = np.max(np.abs(build_product(spectrum400(nu, j).truncated(200))(lam) - direct))
                err400 = np.max(np.abs(build_product(spectrum400(nu, j))(lam) - direct))
                assert err200 <= 2e-3
                assert err400 < err200


def test_acceptance_4_round_trip_reconstruction():
    with criterion(4, "two-spectra round trip, both branches", 120):
        pair = smooth(M_FULL)
        for nu in (1, 2):
            errors = []
            for n in (50, 100, 200):
                rep = invert_spectra(
                    spectrum400(nu, 1).truncated(n),
                    spectrum400(nu, 2).truncated(n),
                    cfg(), m=M_FULL,
                )
                errors.append(combined_rel_error(rep.potentials, pair))
            assert errors[2] <= 5e-2
            assert errors[0] > errors[1] > errors[2]


def test_acceptance_5_solvability_gate():
    with criterion(5, "support-defect solvability gate", 60):
        s1 = spectrum400(2, 1).truncated(N_FULL)
        s2 = spectrum400(2, 2).truncated(N_FULL)
        rep = invert_spectra(s1, s2, cfg(), m=M_FULL)
        assert rep.support_defect <= 1e-3

        def corrupt(spec):
            lam = spec.lam.copy()
            tail = np.abs(spec.indices) > spec.n_max // 2
            lam[tail] = spec.centers[tail] + 0.3
            return Spectrum(spec.nu, spec.j, spec.n_max, lam)

        with pytest.raises(SupportDefectError) as exc_info:
            invert_spectra(corrupt(s1), corrupt(s2), cfg(), m=M_FULL)
        assert max(exc_info.value.defects) >= 1e-1


def test_acceptance_6_gamma_structure():
    with criterion(6, "inner-correction structure and scaling", 60):
        pair = smooth(M_FULL)
        grid = pair.grid
        h = grid.h
        # vanishing at the right end of the inner interval, O(h)
        for nu in (1, 2):
            ker = kernels(nu)
            w = assemble_w(ker.u1, ker.u2, cfg(), nu)
            x_end = cfg().outer_break_hi - 0.5 * h
            g1, g2 = gamma(w, x_end)
            scale = max(np.max(np.abs(w.w1)), np.max(np.abs(w.w2))) ** 2 + 1.0
            assert abs(g1) <= 10.0 * h * scale
            assert abs(g2) <= 10.0 * h * scale
        # identical components force the antisymmetric part to vanish
        rng = np.random.default_rng(SEED)
        same = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
        w_eq = WPair(2, grid, same, same.copy())
        lo, hi = cfg().outer_break_lo, cfg().outer_break_hi
        for frac in (0.1, 0.37, 0.5, 0.81, 0.96):
            g1_eq, _ = gamma(w_eq, lo + frac * (hi - lo))
            assert abs(g1_eq) <= 1e-12
        # log-log slopes of ||w|| and ||gamma|| against the scaling factor
        eps_list = [1e-1, 1e-2, 1e-3]
        norms_w, norms_g = [], []
        for eps in eps_list:
            ker = compute_kernels(pair.scaled(eps), cfg(), 2)
            w = assemble_w(ker.u1, ker.u2, cfg(), 2)
            inner_nodes = grid.nodes[cfg().inner_mask(grid.nodes)][::20]
            gs = np.array([gamma(w, float(t)) for t in inner_nodes])
            norms_w.append(np.sqrt(sum(n**2 for n in w.norms())))
            norms_g.append(np.sqrt(np.sum(np.abs(gs) ** 2)))
        slope_w = np.polyfit(np.log10(eps_list), np.log10(norms_w), 1)[0]
        slope_g = np.polyfit(np.log10(eps_list), np.log10(norms_g), 1)[0]
        assert abs(slope_w - 1.0) <= 0.1
        assert abs(slope_g - 2.0) <= 0.2


def test_acceptance_7_stability_ratios():
    with criterion(7, "uniform stability harness", 600):
        m = 512
        grid = cfg().potential_grid(m)
        zero = PotentialPair(grid, np.zeros(m, complex), np.zeros(m, complex))
        reports = {}
        for rho in (1e-3, 1e-2):
            rep = stability_experiment(zero, cfg(), 2, rho, trials=20, seed=SEED,
                                       n_max=100, m=m)
            assert rep.aborted == 0
            assert len(rep.ratios) == 20
            assert all(np.isfinite(r) and r > 0 for r in rep.ratios)
            assert rep.r_ball < 0.5
            reports[rho] = rep
        hi = reports[1e-2].max_ratio
        lo = reports[1e-3].max_ratio
        assert max(hi, lo) / min(hi, lo) <= 3.0
        assert reports[1e-3].median_ratio <= 3.0 * reports[1e-2].median_ratio


def test_acceptance_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical reruns", 300):
        conf = {
            "a": SMOOTH_EXAMPLE_A,
            "M": 256,
            "N": 50,
            "potential": SMOOTH_EXAMPLE_POTENTIAL,
        }
        conf_path = tmp_path / "config.json"
        conf_path.write_text(json.dumps(conf))
        artifacts = {}
        for run in (1, 2):
            spec_out = tmp_path / f"spec-{run}.csv"
            rt_out = tmp_path / f"rt-{run}.csv"
            st_out = tmp_path / f"st-{run}.json"
            assert main(["spectrum", "--config", str(conf_path), "--nu", "1", "--j", "2",
                         "--out", str(spec_out)]) == EXIT_OK
            assert main(["roundtrip", "--config", str(conf_path), "--nu", "2",
                         "--out", str(rt_out)]) == EXIT_OK
            assert main(["stability", "--config", str(conf_path), "--nu", "2",
                         "--rho", "1e-3", "--trials", "3", "--nmax", "40",
                         "--seed", str(SEED), "--out", str(st_out)]) == EXIT_OK
            artifacts[run] = (
                spec_out.read_bytes(),
                rt_out.read_bytes(),
                (tmp_path / f"rt-{run}.report.json").read_bytes(),
                st_out.read_bytes(),
            )
        assert artifacts[1] == artifacts[2]
