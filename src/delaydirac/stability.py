"""Empirical stability harness: perturb spectra in an l2 ball, re-invert,
and record the reconstruction-error-to-spectra-error ratios.

The inversion is uniformly stable on each l2 ball of radius r < 1/2 around
the unperturbed eigenvalue lattice: reconstruction error is bounded by a
constant depending only on r times the l2 spectra distance.  The constant
is existential, so this harness reports measured ratios, which is the
strongest desk-scale statement available.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
import numpy as np

from .core import BallRadiusError, DelayConfig, PotentialPair, Spectrum, l2_norm
from .core import DelayDiracError
from .forward import compute_kernels, find_spectrum
from .inverse import invert_spectra

# The hypothesis of the stability bound: deviations must stay inside this.
BALL_LIMIT = 0.5


def _child_seed(seed: int, trial: int, branch: int) -> int:
    return int(np.random.SeedSequence([seed, trial, branch]).generate_state(1, np.uint64)[0])


def perturb_spectrum(spec: Spectrum, rho: float, seed: int, shape: str = "decay") -> Spectrum:
    """Add a seeded complex l2 perturbation of exact norm ``rho``.

    ``decay`` spreads the mass with a 1/(1+|n|) profile; ``spike`` puts all
    of it on a single random index.  The perturbed deviations must stay
    inside the r < 1/2 ball or the perturbation is rejected.
    """
    if rho < 0:
        raise ValueError("perturbation radius must be nonnegative")
    if rho == 0.0:
        return spec
    rng = np.random.default_rng(seed)
    k = spec.lam.size
    if shape == "decay":
        raw = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / (1.0 + np.abs(spec.indices))
    elif shape == "spike":
        raw = np.zeros(k, dtype=complex)
        raw[rng.integers(0, k)] = np.exp(2j * np.pi * rng.uniform())
    else:
        raise ValueError(f"unknown perturbation shape {shape!r}")
    delta = raw * (rho / np.sqrt(np.sum(np.abs(raw) ** 2)))
    out = Spectrum(spec.nu, spec.j, spec.n_max, spec.lam + delta)
    if out.kappa_norm >= BALL_LIMIT:
        raise BallRadiusError(
            f"perturbed deviations have l2 norm {out.kappa_norm:.4g} >= {BALL_LIMIT}"
        )
    return out


@dataclass(frozen=True)
class StabilityReport:
    """Per-trial ratios and their summary for one perturbation radius."""

    nu: int
    rho: float
    trials: int
    ratios: tuple
    max_ratio: float | None
    median_ratio: float | None
    r_ball: float
    aborted: int
    not_applicable: int
    seed: int
    shape: str

    def to_dict(self) -> dict:
        return asdict(self)


def stability_experiment(
    pot: PotentialPair,
    cfg: DelayConfig,
    nu: int,
    rho: float,
    trials: int,
    seed: int,
    n_max: int = 100,
    m: int = 512,
    shape: str = "decay",
    threads: int | None = None,
) -> StabilityReport:
    """Measure reconstruction-vs-spectra error ratios over seeded trials.

    The baseline spectra come from the forward solver; each trial perturbs
    both of them, inverts, and records

        (||q - q~|| + ||p - p~||) / (||dlam_1|| + ||dlam_2||).

    Perturbed spectra generally violate the exact solvability condition, so
    the inversions run with the support gate disabled; the gate stays a
    consistency check for unperturbed data, not for this experiment.  The
    trials run in the calling thread, or on a pool of ``threads`` threads
    when that is above 1; the ratios do not depend on it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    ker = compute_kernels(pot, cfg, nu)
    spec1 = find_spectrum(ker, 1, n_max)
    spec2 = find_spectrum(ker, 2, n_max)
    base = invert_spectra(spec1, spec2, cfg, m=m, support_gate=np.inf)
    base_q, base_p = base.potentials.q, base.potentials.p
    grid = base.potentials.grid

    def run_trial(t: int):
        try:
            pert1 = perturb_spectrum(spec1, rho, _child_seed(seed, t, 1), shape=shape)
            pert2 = perturb_spectrum(spec2, rho, _child_seed(seed, t, 2), shape=shape)
            denom = float(
                np.sqrt(np.sum(np.abs(pert1.lam - spec1.lam) ** 2))
                + np.sqrt(np.sum(np.abs(pert2.lam - spec2.lam) ** 2))
            )
            ball = max(pert1.kappa_norm, pert2.kappa_norm)
            if denom == 0.0:
                return ("na", ball, None)
            rec = invert_spectra(pert1, pert2, cfg, m=m, support_gate=np.inf)
            numer = l2_norm(grid, rec.potentials.q - base_q) + l2_norm(grid, rec.potentials.p - base_p)
            return ("ok", ball, numer / denom)
        except DelayDiracError:
            return ("aborted", 0.0, None)

    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_trial, range(trials)))
    else:
        results = [run_trial(t) for t in range(trials)]

    ratios = tuple(r for status, _, r in results if status == "ok")
    aborted = sum(1 for status, _, _ in results if status == "aborted")
    not_applicable = sum(1 for status, _, _ in results if status == "na")
    r_ball = max((b for _, b, _ in results), default=0.0)
    max_ratio = max(ratios) if ratios else None
    median_ratio = float(np.median(ratios)) if ratios else None
    return StabilityReport(
        nu=nu, rho=rho, trials=trials, ratios=ratios, max_ratio=max_ratio,
        median_ratio=median_ratio, r_ball=float(r_ball), aborted=aborted,
        not_applicable=not_applicable, seed=seed, shape=shape,
    )
