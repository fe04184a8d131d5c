"""Rebuild characteristic functions from spectra via their zero sets.

The infinite product over all zeros is evaluated in a compensated form: the
unperturbed trigonometric head times the finite product of factors

    (lambda_n - lam) / (c_n - lam) = 1 + kappa_n / (c_n - lam),

with c_n the lattice and kappa_n = lambda_n - c_n.  It is identical to the
full product whenever the tail zeros sit on the unperturbed lattice, and is
far better conditioned than truncating the raw product with its exponential
convergence factors.  Factors are multiplied in the order n = 0, -1, 1, -2,
2, ... so partial products stay O(1).  When lam falls on a lattice point c_n*
its factor is set to 1 and the head to -head'(c_n*) (lambda_n* - lam): the
vanishing head and the vanishing denominator cancel analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import Spectrum
from .forward import _check_finite_lambda, trig_head, trig_head_prime

# A query is treated as exactly on the lattice below this distance.
LATTICE_ATOL = 1e-12


@dataclass(frozen=True)
class ProductEvaluator:
    """Callable rebuilding one characteristic function from its zeros."""

    spectrum: Spectrum

    def __call__(self, lam):
        lam_arr = np.asarray(lam, dtype=complex)
        flat = lam_arr.reshape(-1)
        _check_finite_lambda(flat)
        spec = self.spectrum
        n, s = spec.indices, spec.shift
        # Factor rows in the order n = 0, -1, 1, -2, 2, ...
        order = np.argsort(np.abs(n), kind="stable")
        # The lattice spacing is 1, so only the nearest centre can be a hit.
        near = np.clip(np.rint(flat.real - s), -spec.n_max, spec.n_max)
        hit = np.abs(near + s - flat) < LATTICE_ATOL
        n_star = near[hit].astype(int)
        head = trig_head(spec.nu, spec.j, flat)
        zeros = spec.lam[n_star + spec.n_max]
        head[hit] = -trig_head_prime(spec.nu, spec.j, n_star + s) * (zeros - flat[hit])
        fac = spec.centers[order, None] - flat
        # Row of n in ``order``: 2|n| - 1 below zero, 2|n| from zero up.
        fac[2 * np.abs(n_star) - (n_star < 0), np.flatnonzero(hit)] = np.inf
        np.divide(spec.kappa[order, None], fac, out=fac)
        fac += 1.0
        out = head * np.multiply.reduce(fac, axis=0)
        if np.ndim(lam) == 0:
            return complex(out[0])
        return out.reshape(lam_arr.shape)


def build_product(spec: Spectrum) -> ProductEvaluator:
    """Compensated product evaluator for the spectrum's branch."""
    return ProductEvaluator(spec)


def delta_at_integers(ev: ProductEvaluator) -> np.ndarray:
    """Fourier data c_n for |n| <= N, the truncation order, read off ``ev``.

    For the sine-head branches (1,1) and (2,2) the head vanishes at the
    integers and c_n is the rebuilt value itself; for the cosine-head
    branches (1,2) and (2,1) the alternating head value (-1)^n is removed.
    """
    n = ev.spectrum.indices
    vals = ev(n.astype(complex))
    if (ev.spectrum.nu, ev.spectrum.j) in ((1, 2), (2, 1)):
        vals = vals - np.where(n % 2 == 0, 1.0, -1.0)
    return vals
