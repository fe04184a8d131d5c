"""Forward and inverse spectral solver for Dirac-type systems with a
constant delay a in [2*pi/5, pi/2).

Forward: compute the kernels and characteristic functions of the four
boundary problems, locate eigenvalue spectra with argument-principle
certification, and cross-check against direct method-of-steps integration of
the delay system.  Inverse: reconstruct the two complex potentials on
[a, pi] from the two spectra of one branch, with a Paley-Wiener-style
support gate and an empirical stability harness.
"""

from .core import (
    A_MAX,
    A_MIN_FORWARD,
    A_MIN_INVERSE,
    BallRadiusError,
    DelayConfig,
    DelayDiracError,
    Grid,
    GridRangeError,
    KernelSet,
    PotentialPair,
    RegimeError,
    RootCountError,
    Spectrum,
    SpectraMismatchError,
    StepCountError,
    SupportDefectError,
    WPair,
    interpolate,
    l2_norm,
    lattice_shift,
    quadrature,
)
from .forward import (
    compute_kernels,
    delta_eval,
    delta_oracle,
    delta_prime,
    find_spectrum,
    transition_state,
    trig_head,
)
from .hadamard import ProductEvaluator, build_product, delta_at_integers
from .inverse import (
    ReconstructionReport,
    assemble_w,
    gamma,
    invert_spectra,
    recover_inner,
    support_defect,
    synthesize_u,
)
from .presets import SMOOTH_EXAMPLE_A, smooth_example_pair
from .stability import StabilityReport, perturb_spectrum, stability_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
