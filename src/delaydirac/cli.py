"""Command-line interface.

Subcommands: forward, spectrum, invert, roundtrip, stability, oracle-check.
Every command reads an optional JSON config (--config); flags override config
values, which override defaults.  Parsing resolves paths and validates all
flag/file combinations into an immutable RunConfig before any computation
starts.  All artifacts are written atomically with 17-significant-digit
floats, so identical runs produce byte-identical files.  Gate failures exit
with status 2 and a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
import numpy as np

from . import io as dio
from .core import (
    DelayConfig,
    DelayDiracError,
    PotentialPair,
    SpectraMismatchError,
    Spectrum,
    l2_norm,
)
from .forward import DEFAULT_ORACLE_STEP, compute_kernels, delta_eval, delta_oracle, find_spectrum
from .inverse import invert_spectra
from .stability import stability_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GATE = 2

DEFAULT_SEED = 2026
DEFAULT_N = 50
DEFAULT_TRIALS = 20


class OracleGateError(DelayDiracError, RuntimeError):
    def __init__(self, message, worst, gate):
        super().__init__(message)
        self.worst = worst
        self.gate = gate


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI invocation."""

    command: str
    cfg: DelayConfig
    m: int
    n_max: int
    seed: int
    support_gate: float
    oracle_gate: float
    out_path: str
    potential: PotentialPair | None = None
    nu: int | None = None
    j: int | None = None
    spectra: tuple[Spectrum, ...] = ()
    rho: float | None = None
    trials: int = DEFAULT_TRIALS
    spike: bool = False
    verify_residual: bool = False

    @property
    def report_path(self) -> str:
        root = self.out_path[:-4] if self.out_path.endswith(".csv") else self.out_path
        return root + ".report.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaydirac",
        description="Forward/inverse spectral solver for Dirac-type systems with constant delay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (a, M, N, potential, gates)")
        p.add_argument("--a", type=float,
                       help="delay length: in [pi/3, pi/2) for forward, spectrum and oracle-check; "
                            "in [2pi/5, pi/2) for invert, roundtrip and stability")
        p.add_argument("--grid", type=int, dest="m", help="samples M on [a, pi]")
        p.add_argument("--nmax", type=int, help="spectrum truncation order N")
        p.add_argument("--seed", type=int, help=f"random seed (default {DEFAULT_SEED})")
        p.add_argument("--out", required=True, help="output artifact path")
        return p

    p = common(sub.add_parser("forward", help="compute kernels, write kernel CSV"))
    p.add_argument("--nu", type=int, choices=(1, 2), required=True)

    p = common(sub.add_parser("spectrum", help="locate eigenvalues, write spectrum CSV"))
    p.add_argument("--nu", type=int, choices=(1, 2), required=True)
    p.add_argument("--j", type=int, choices=(1, 2), required=True)

    p = common(sub.add_parser("invert", help="reconstruct potentials from two spectrum CSVs"))
    p.add_argument("--nu", type=int, choices=(1, 2), help="expected branch (validated against files)")
    p.add_argument("--spec1", required=True, help="spectrum CSV for j=1")
    p.add_argument("--spec2", required=True, help="spectrum CSV for j=2")
    p.add_argument("--verify-residual", action="store_true")

    p = common(sub.add_parser("roundtrip", help="forward -> invert -> error metrics"))
    p.add_argument("--nu", type=int, choices=(1, 2), default=2)
    p.add_argument("--verify-residual", action="store_true")

    p = common(sub.add_parser("stability", help="seeded perturbation experiment"))
    p.add_argument("--nu", type=int, choices=(1, 2), default=2)
    p.add_argument("--rho", type=float, required=True, help="perturbation radius (l2, per spectrum)")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--spike", action="store_true", help="single-index spike perturbations")

    p = common(sub.add_parser("oracle-check", help="closed form vs delay-ODE integration"))
    p.add_argument("--nu", type=int, choices=(1, 2), default=2)
    p.add_argument("--j", type=int, choices=(1, 2), default=1)

    return parser


def resolve_run_config(args) -> RunConfig:
    """Merge flags over config-file values over defaults; validate everything.

    Spectra files referenced by `invert` are read here so that mismatched
    branch combinations are rejected before any computation.
    """
    conf = dio.load_config(args.config) if args.config else dio.parse_config({})
    a = args.a if args.a is not None else conf.get("a")
    if a is None:
        raise ValueError("delay length required: pass --a or put 'a' in the config")
    if getattr(args, "m", None) is not None:
        conf["M"] = args.m
    n_max = getattr(args, "nmax", None)
    if n_max is None:
        n_max = conf.get("N", DEFAULT_N)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = conf.get("seed", DEFAULT_SEED)
    cfg = DelayConfig(a)

    needs_potential = args.command in ("forward", "spectrum", "roundtrip", "stability", "oracle-check")
    potential = None
    if needs_potential:
        if "potential" not in conf:
            raise ValueError(f"'{args.command}' needs a potential; provide one in the config")
        potential = dio.potential_from_config(conf, cfg, base_path=args.config)

    spectra = ()
    if args.command == "invert":
        spectra = tuple(dio.read_spectrum_csv(p) for p in (args.spec1, args.spec2))
        if args.nu is not None and any(s.nu != args.nu for s in spectra):
            raise ValueError(
                f"--nu {args.nu} does not match the spectra files "
                f"(nu={spectra[0].nu}, nu={spectra[1].nu})"
            )
        if spectra[0].nu != spectra[1].nu:
            raise SpectraMismatchError("spectra files come from different branches nu")
        if (spectra[0].j, spectra[1].j) != (1, 2):
            raise SpectraMismatchError("--spec1 must hold the j=1 spectrum and --spec2 the j=2 one")

    return RunConfig(
        command=args.command,
        cfg=cfg,
        m=int(conf["M"]),
        n_max=int(n_max),
        seed=int(seed),
        support_gate=float(conf["support_gate"]),
        oracle_gate=float(conf["oracle_gate"]),
        out_path=os.path.abspath(args.out),
        potential=potential,
        nu=getattr(args, "nu", None),
        j=getattr(args, "j", None),
        spectra=spectra,
        rho=getattr(args, "rho", None),
        trials=getattr(args, "trials", DEFAULT_TRIALS),
        spike=getattr(args, "spike", False),
        verify_residual=getattr(args, "verify_residual", False),
    )


def _cmd_forward(rc: RunConfig) -> int:
    ker = compute_kernels(rc.potential, rc.cfg, rc.nu)
    dio.write_kernels_csv(rc.out_path, ker)
    print(json.dumps({"status": "ok", "out": rc.out_path}, sort_keys=True))
    return EXIT_OK


def _cmd_spectrum(rc: RunConfig) -> int:
    ker = compute_kernels(rc.potential, rc.cfg, rc.nu)
    spec = find_spectrum(ker, rc.j, rc.n_max)
    dio.write_spectrum_csv(rc.out_path, spec)
    print(json.dumps({"status": "ok", "out": rc.out_path, "kappa_l2": spec.kappa_norm},
                     sort_keys=True))
    return EXIT_OK


def _cmd_invert(rc: RunConfig) -> int:
    spec1, spec2 = rc.spectra
    report = invert_spectra(
        spec1, spec2, rc.cfg, m=rc.m,
        support_gate=rc.support_gate,
        verify_residual=rc.verify_residual,
    )
    dio.write_potentials_csv(rc.out_path, report.potentials)
    dio.write_json(rc.report_path, report.to_dict())
    print(json.dumps({"status": "ok", **report.to_dict()}, sort_keys=True))
    return EXIT_OK


def _cmd_roundtrip(rc: RunConfig) -> int:
    pot = rc.potential
    ker = compute_kernels(pot, rc.cfg, rc.nu)
    spec1 = find_spectrum(ker, 1, rc.n_max)
    spec2 = find_spectrum(ker, 2, rc.n_max)
    report = invert_spectra(
        spec1, spec2, rc.cfg, m=pot.grid.m,
        support_gate=rc.support_gate,
        verify_residual=rc.verify_residual,
    )
    rec = report.potentials
    err = np.sqrt(l2_norm(rec.grid, rec.q - pot.q) ** 2 + l2_norm(rec.grid, rec.p - pot.p) ** 2)
    ref = np.sqrt(l2_norm(pot.grid, pot.q) ** 2 + l2_norm(pot.grid, pot.p) ** 2)
    payload = {**report.to_dict(), "rel_l2_error": float(err / ref) if ref > 0 else None}
    dio.write_potentials_csv(rc.out_path, rec)
    dio.write_json(rc.report_path, payload)
    print(json.dumps({"status": "ok", **payload}, sort_keys=True))
    return EXIT_OK


def _cmd_stability(rc: RunConfig) -> int:
    report = stability_experiment(
        rc.potential, rc.cfg, rc.nu, rc.rho, rc.trials, rc.seed,
        n_max=rc.n_max, m=rc.potential.grid.m,
        shape="spike" if rc.spike else "decay",
    )
    dio.write_json(rc.out_path, report.to_dict())
    print(json.dumps({"status": "ok", "max_ratio": report.max_ratio,
                      "median_ratio": report.median_ratio}, sort_keys=True))
    return EXIT_OK


def _cmd_oracle_check(rc: RunConfig) -> int:
    rng = np.random.default_rng(rc.seed)
    lam = rng.uniform(-10.0, 10.0, 100) + 1j * rng.uniform(-1.0, 1.0, 100)
    ker = compute_kernels(rc.potential, rc.cfg, rc.nu)
    closed = delta_eval(ker, rc.j, lam)
    oracle = delta_oracle(rc.potential, rc.cfg, rc.nu, rc.j, lam, step=DEFAULT_ORACLE_STEP)
    mism = np.abs(closed - oracle) / (1.0 + np.abs(oracle))
    lines = ["lambda_re,lambda_im,closed_re,closed_im,oracle_re,oracle_im,rel_mismatch"]
    for k in range(lam.size):
        vals = (lam[k].real, lam[k].imag, closed[k].real, closed[k].imag,
                oracle[k].real, oracle[k].imag, mism[k])
        lines.append(",".join(dio.fmt(v) for v in vals))
    worst = float(np.max(mism))
    if worst > rc.oracle_gate:
        raise OracleGateError(
            f"max relative mismatch {worst:.3g} exceeds gate {rc.oracle_gate:.3g}",
            worst, rc.oracle_gate,
        )
    dio.atomic_write_text(rc.out_path, "\n".join(lines) + "\n")
    print(json.dumps({"status": "ok", "max_rel_mismatch": worst, "gate": rc.oracle_gate},
                     sort_keys=True))
    return EXIT_OK


_HANDLERS = {
    "forward": _cmd_forward,
    "spectrum": _cmd_spectrum,
    "invert": _cmd_invert,
    "roundtrip": _cmd_roundtrip,
    "stability": _cmd_stability,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = resolve_run_config(args)
        return _HANDLERS[rc.command](rc)
    except DelayDiracError as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return EXIT_GATE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
