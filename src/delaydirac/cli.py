"""Command-line interface.

Subcommands: forward, spectrum, invert, roundtrip, stability, oracle-check.
Every command reads an optional JSON config (--config); flags override config
values, which override defaults.  `resolve` completes the parsed arguments
with the config's settings, the potential or the spectra, and validates all
flag/file combinations before any computation starts; each handler then
reads what it needs from them.  All artifacts are written atomically through
the `io` codecs, so identical runs produce byte-identical files.  Gate
failures exit with status 2 and a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import numpy as np

from . import io as dio
from .core import (
    DEFAULT_SEED,
    DelayConfig,
    DelayDiracError,
    PotentialPair,
    SpectraMismatchError,
    l2_norm,
)
from .forward import DEFAULT_ORACLE_STEP, compute_kernels, delta_eval, delta_oracle, find_spectrum
from .inverse import invert_spectra
from .stability import stability_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GATE = 2

DEFAULT_TRIALS = 20

ORACLE_HEADER = "lambda_re,lambda_im,closed_re,closed_im,oracle_re,oracle_im,rel_mismatch"


class OracleGateError(DelayDiracError, RuntimeError):
    def __init__(self, message, worst, gate):
        super().__init__(message)
        self.worst = worst
        self.gate = gate


def report_path(out: str) -> str:
    """The report JSON written next to the potentials CSV ``out``."""
    return (out[:-4] if out.endswith(".csv") else out) + ".report.json"


def _print(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
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


def resolve(args) -> None:
    """Complete ``args`` in place: flags over config-file values over defaults.

    Sets ``cfg``, the absolute ``out``, ``m``, ``nmax``, ``seed``, the two
    gates and the ``potential`` or, for `invert`, the ``spectra``.  The
    spectra files are read and their branches checked here, so mismatched
    combinations are rejected before any computation.
    """
    conf = dio.load_config(args.config) if args.config else dio.parse_config({})
    for key, flag in (("a", args.a), ("M", args.m), ("N", args.nmax), ("seed", args.seed)):
        if flag is not None:
            conf[key] = flag
    if conf.get("a") is None:
        raise ValueError("delay length required: pass --a or put 'a' in the config")
    args.cfg = DelayConfig(conf["a"])
    args.out = os.path.abspath(args.out)

    if args.command != "invert":
        if "potential" not in conf:
            raise ValueError(f"'{args.command}' needs a potential; provide one in the config")
        args.potential = dio.potential_from_config(conf, args.cfg, base_path=args.config)
    else:
        args.spectra = tuple(dio.read_spectrum_csv(p) for p in (args.spec1, args.spec2))
        nus = tuple(s.nu for s in args.spectra)
        if args.nu is not None and nus != (args.nu, args.nu):
            raise ValueError(
                f"--nu {args.nu} does not match the spectra files (nu={nus[0]}, nu={nus[1]})"
            )
        if nus[0] != nus[1]:
            raise SpectraMismatchError("spectra files come from different branches nu")
        if tuple(s.j for s in args.spectra) != (1, 2):
            raise SpectraMismatchError("--spec1 must hold the j=1 spectrum and --spec2 the j=2 one")

    args.m, args.nmax, args.seed = int(conf["M"]), int(conf["N"]), int(conf["seed"])
    args.support_gate, args.oracle_gate = float(conf["support_gate"]), float(conf["oracle_gate"])


def _cmd_forward(args) -> int:
    dio.write_kernels_csv(args.out, compute_kernels(args.potential, args.cfg, args.nu))
    _print({"status": "ok", "out": args.out})
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    spec = find_spectrum(compute_kernels(args.potential, args.cfg, args.nu), args.j, args.nmax)
    dio.write_spectrum_csv(args.out, spec)
    _print({"status": "ok", "out": args.out, "kappa_l2": spec.kappa_norm})
    return EXIT_OK


def _write_reconstruction(args, pot: PotentialPair, report: dict) -> int:
    """The tail of invert and roundtrip: potentials CSV, report JSON, stdout line."""
    dio.write_potentials_csv(args.out, pot)
    dio.write_json(report_path(args.out), report)
    _print({"status": "ok", **report})
    return EXIT_OK


def _cmd_invert(args) -> int:
    report = invert_spectra(*args.spectra, args.cfg, m=args.m, support_gate=args.support_gate,
                            verify_residual=args.verify_residual)
    return _write_reconstruction(args, report.potentials, report.to_dict())


def _cmd_roundtrip(args) -> int:
    pot = args.potential
    ker = compute_kernels(pot, args.cfg, args.nu)
    report = invert_spectra(
        find_spectrum(ker, 1, args.nmax), find_spectrum(ker, 2, args.nmax), args.cfg,
        m=pot.grid.m, support_gate=args.support_gate, verify_residual=args.verify_residual,
    )
    rec = report.potentials
    err = np.sqrt(l2_norm(rec.grid, rec.q - pot.q) ** 2 + l2_norm(rec.grid, rec.p - pot.p) ** 2)
    ref = np.sqrt(l2_norm(pot.grid, pot.q) ** 2 + l2_norm(pot.grid, pot.p) ** 2)
    rel = float(err / ref) if ref > 0 else None
    return _write_reconstruction(args, rec, {**report.to_dict(), "rel_l2_error": rel})


def _cmd_stability(args) -> int:
    report = stability_experiment(
        args.potential, args.cfg, args.nu, args.rho, args.trials, args.seed,
        n_max=args.nmax, m=args.potential.grid.m, shape="spike" if args.spike else "decay",
    )
    dio.write_json(args.out, report.to_dict())
    _print({"status": "ok", "max_ratio": report.max_ratio, "median_ratio": report.median_ratio})
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    lam = rng.uniform(-10.0, 10.0, 100) + 1j * rng.uniform(-1.0, 1.0, 100)
    ker = compute_kernels(args.potential, args.cfg, args.nu)
    closed = delta_eval(ker, args.j, lam)
    oracle = delta_oracle(args.potential, args.cfg, args.nu, args.j, lam, step=DEFAULT_ORACLE_STEP)
    mism = np.abs(closed - oracle) / (1.0 + np.abs(oracle))
    worst, gate = float(np.max(mism)), args.oracle_gate
    if worst > gate:
        raise OracleGateError(f"max relative mismatch {worst:.3g} exceeds gate {gate:.3g}",
                              worst, gate)
    columns = (lam.real, lam.imag, closed.real, closed.imag, oracle.real, oracle.imag, mism)
    dio.write_table(args.out, ORACLE_HEADER, columns)
    _print({"status": "ok", "max_rel_mismatch": worst, "gate": gate})
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
        resolve(args)
        return _HANDLERS[args.command](args)
    except (DelayDiracError, ValueError, OSError, KeyError) as exc:
        _print({"error": {"kind": type(exc).__name__, "message": str(exc)}})
        return EXIT_GATE if isinstance(exc, DelayDiracError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
