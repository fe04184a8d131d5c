import numpy as np
import pytest

from delaydirac import (
    DelayConfig,
    PotentialPair,
    compute_kernels,
    find_spectrum,
    smooth_example_pair,
)
from delaydirac.presets import SMOOTH_EXAMPLE_A

UNIT_M = 512
UNIT_N = 60


@pytest.fixture(scope="session")
def cfg():
    return DelayConfig(SMOOTH_EXAMPLE_A)


@pytest.fixture(scope="session")
def zero_pair(cfg):
    grid = cfg.potential_grid(UNIT_M)
    z = np.zeros(UNIT_M, dtype=complex)
    return PotentialPair(grid, z, z)


@pytest.fixture(scope="session")
def smooth_pair(cfg):
    return smooth_example_pair(cfg, m=UNIT_M)


@pytest.fixture(scope="session")
def const_p_pair(cfg):
    grid = cfg.potential_grid(UNIT_M)
    return PotentialPair(grid, np.zeros(UNIT_M, complex), np.full(UNIT_M, 0.3, complex))


@pytest.fixture(scope="session")
def smooth_kernels(cfg, smooth_pair):
    return {nu: compute_kernels(smooth_pair, cfg, nu) for nu in (1, 2)}


@pytest.fixture(scope="session")
def smooth_spectra(smooth_kernels):
    return {
        (nu, j): find_spectrum(smooth_kernels[nu], j, UNIT_N)
        for nu in (1, 2)
        for j in (1, 2)
    }


def long_double_exp_sum(g, x0, h, lam):
    """sum_k g_k exp(i lam (x0 + k h)) in long double, abscissae and phases included."""
    x = np.longdouble(x0) + np.arange(len(g), dtype=np.longdouble) * np.longdouble(h)
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    phase = np.multiply.outer(lam.real.astype(np.longdouble), x)
    size = np.exp(-np.multiply.outer(lam.imag.astype(np.longdouble), x))
    terms = (size * np.cos(phase)).astype(np.clongdouble) + 1j * (size * np.sin(phase))
    return terms @ np.asarray(g, dtype=np.clongdouble)


def exp_sum_scale(g, x0, h, lam):
    """||g||_1 e^{X |Im lam|}, X = max |x_k|: the scale of an exponential sum's round-off."""
    x_max = max(abs(x0), abs(x0 + (len(g) - 1) * h))
    return np.sum(np.abs(g)) * np.exp(x_max * np.abs(np.asarray(lam).imag))
