"""Bundled test potentials and the default delay used by examples and docs."""

from __future__ import annotations

from .core import PI, DEFAULT_M, DelayConfig, PotentialPair
from .io import potential_from_config

SMOOTH_EXAMPLE_A = 0.42 * PI

# Smooth complex pair on [a, pi], vanishing at both endpoints so the kernels
# carry no endpoint jumps; q and p are deliberately not proportional so the
# antisymmetric part of the inner correction is exercised.
SMOOTH_EXAMPLE_POTENTIAL = {
    "type": "trig",
    "q": {"sin": [[0.30, 0.0], [0.0, -0.15]]},
    "p": {"sin": [[0.0, 0.18], [0.22, 0.0]]},
}


def smooth_example_pair(cfg: DelayConfig | None = None, m: int = DEFAULT_M) -> PotentialPair:
    if cfg is None:
        cfg = DelayConfig(SMOOTH_EXAMPLE_A)
    conf = {"M": m, "potential": SMOOTH_EXAMPLE_POTENTIAL}
    return potential_from_config(conf, cfg)
