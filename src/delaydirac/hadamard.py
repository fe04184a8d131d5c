"""Rebuild characteristic functions from spectra via their zero sets.

The infinite product over all zeros is evaluated in a compensated form: the
unperturbed trigonometric head times the finite ratio product

    prod_{|n| <= N} (lambda_n - lam) / (lattice_n - lam),

which is identical to the full product whenever the tail zeros sit on the
unperturbed lattice, and is far better conditioned than truncating the raw
product with its exponential convergence factors.  Ratio factors are
multiplied in the order n = 0, -1, 1, -2, 2, ... so partial products stay
O(1).  When lam falls on a lattice point the vanishing head factor and the
vanishing denominator are cancelled analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .core import Spectrum
from .forward import trig_head, trig_head_prime

# A query is treated as exactly on the lattice below this distance.
LATTICE_ATOL = 1e-12


@dataclass(frozen=True)
class ProductEvaluator:
    """Callable rebuilding one characteristic function from its zeros."""

    spectrum: Spectrum

    def __call__(self, lam):
        lam_arr = np.asarray(lam, dtype=complex)
        flat = lam_arr.reshape(-1)
        out = np.empty(flat.shape, dtype=complex)
        step = max(1, 2**21 // self.spectrum.lam.size)
        for start in range(0, flat.size, step):
            blk = flat[start:start + step]
            out[start:start + step] = self._eval_block(blk)
        if np.ndim(lam) == 0:
            return complex(out[0])
        return out.reshape(lam_arr.shape)

    def _eval_block(self, lam: np.ndarray) -> np.ndarray:
        spec = self.spectrum
        # Factor rows in the order n = 0, -1, 1, -2, 2, ...
        order = np.argsort(np.abs(spec.indices), kind="stable")
        zeros, lattice = spec.lam[order], spec.centers[order]
        den = lattice[:, None] - lam[None, :]
        singular = np.abs(den) < LATTICE_ATOL
        den[singular] = 1.0
        ratio = zeros[:, None] - lam[None, :]
        ratio /= den
        ratio[singular] = 1.0
        prod = np.multiply.reduce(ratio, axis=0)
        out = trig_head(spec.nu, spec.j, lam) * prod
        hit = singular.any(axis=0)
        if hit.any():
            n_star = np.argmax(singular[:, hit], axis=0)
            lam_hit = lam[hit]
            # Removable singularity: head(lam)/(lattice - lam) -> -head'(lattice).
            reduced = -trig_head_prime(spec.nu, spec.j, lattice[n_star])
            out[hit] = reduced * (zeros[n_star] - lam_hit) * prod[hit]
        return out


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
