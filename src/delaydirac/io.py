"""File codecs: CSV/JSON round-trip encodings for the domain types.

All floating output uses 17 significant digits so re-running a command with
identical inputs reproduces byte-identical artifacts.  Writes go to a
temporary file in the target directory and are renamed into place only on
success, so failed runs never leave partial artifacts.
"""

from __future__ import annotations

import json
import os
import tempfile
import numpy as np

from .core import (
    PI,
    DEFAULT_M,
    DEFAULT_ORACLE_GATE,
    DEFAULT_SUPPORT_GATE,
    DelayConfig,
    Grid,
    KernelSet,
    PotentialPair,
    Spectrum,
)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _grid_from_x(x: np.ndarray) -> Grid:
    if len(x) < 2:
        raise ValueError("need at least two rows to infer a grid")
    h = (x[-1] - x[0]) / (len(x) - 1)
    if not np.allclose(np.diff(x), h, rtol=0.0, atol=1e-9 * max(abs(h), 1.0)):
        raise ValueError("node column is not uniformly spaced")
    return Grid(float(x[0]), float(x[-1]), len(x))


def _parse_table(path, header: str, meta_keys=()):
    """Read an optional '# k=v ...' metadata line, the header, and the rows.

    Every row must have as many fields as the header, and there must be at
    least one row.
    """
    meta = {}
    with open(path, "r") as handle:
        lines = [(k, ln.strip()) for k, ln in enumerate(handle, start=1) if ln.strip()]
    if lines and lines[0][1].startswith("#"):
        for tok in lines[0][1][1:].split():
            if "=" in tok:
                key, val = tok.split("=", 1)
                meta[key] = val
        lines = lines[1:]
    if not lines or lines[0][1] != header:
        raise ValueError(f"expected header '{header}' in {path}")
    width = len(header.split(","))
    rows = []
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}, line {lineno}: {len(fields)} fields, the header has {width}")
        rows.append([float(v) for v in fields])
    if not rows:
        raise ValueError(f"{path} has a header but no rows")
    rows = np.array(rows)
    for key in meta_keys:
        if key in meta:
            meta[key] = int(meta[key])
    return meta, rows


# -- potentials --------------------------------------------------------------

POTENTIALS_HEADER = "x,q_re,q_im,p_re,p_im"


def write_potentials_csv(path, pot: PotentialPair) -> None:
    lines = [POTENTIALS_HEADER]
    for x, q, p in zip(pot.grid.nodes, pot.q, pot.p):
        lines.append(",".join(fmt(v) for v in (x, q.real, q.imag, p.real, p.imag)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_potentials_csv(path) -> PotentialPair:
    _, rows = _parse_table(path, POTENTIALS_HEADER)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{path}: non-finite potential sample")
    grid = _grid_from_x(rows[:, 0])
    return PotentialPair(grid, rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4])


# -- spectra -----------------------------------------------------------------

SPECTRUM_HEADER = "n,lambda_re,lambda_im"


def write_spectrum_csv(path, spec: Spectrum) -> None:
    lines = [f"# nu={spec.nu} j={spec.j}", SPECTRUM_HEADER]
    for n, lam in zip(spec.indices, spec.lam):
        lines.append(",".join((str(int(n)), fmt(lam.real), fmt(lam.imag))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_spectrum_csv(path) -> Spectrum:
    meta, rows = _parse_table(path, SPECTRUM_HEADER, meta_keys=("nu", "j"))
    if "nu" not in meta or "j" not in meta:
        raise ValueError(f"{path} carries no branch metadata '# nu=.. j=..'")
    bad = ~np.isfinite(rows[:, 0]) | (rows[:, 0] != np.round(rows[:, 0]))
    if bad.any():
        raise ValueError(f"{path}: index n = {float(rows[bad, 0][0])} is not an integer")
    n = rows[:, 0].astype(int)
    n_max = int(n.max())
    if not np.array_equal(n, np.arange(-n_max, n_max + 1)):
        raise ValueError(f"{path}: spectrum rows must cover n = -N..N contiguously")
    if not np.all(np.isfinite(rows[:, 1:])):
        raise ValueError(f"{path}: non-finite eigenvalue")
    return Spectrum(meta["nu"], meta["j"], n_max, rows[:, 1] + 1j * rows[:, 2])


# -- kernels ------------------------------------------------------------------

KERNELS_HEADER = "x,v1_re,v1_im,v2_re,v2_im,u1_re,u1_im,u2_re,u2_im"


def write_kernels_csv(path, ker: KernelSet) -> None:
    lines = [f"# nu={ker.nu}", KERNELS_HEADER]
    for k, x in enumerate(ker.grid.nodes):
        vals = (x, ker.v1[k].real, ker.v1[k].imag, ker.v2[k].real, ker.v2[k].imag,
                ker.u1[k].real, ker.u1[k].imag, ker.u2[k].real, ker.u2[k].imag)
        lines.append(",".join(fmt(v) for v in vals))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_kernels_csv(path) -> KernelSet:
    meta, rows = _parse_table(path, KERNELS_HEADER, meta_keys=("nu",))
    if "nu" not in meta:
        raise ValueError(f"{path} carries no branch metadata")
    grid = _grid_from_x(rows[:, 0])
    return KernelSet(
        meta["nu"], grid,
        rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4],
        rows[:, 5] + 1j * rows[:, 6], rows[:, 7] + 1j * rows[:, 8],
    )


# -- run configuration --------------------------------------------------------


def parse_config(raw: dict) -> dict:
    """Normalize a config mapping; unknown keys are rejected early."""
    known = {"a", "M", "N", "potential", "seed", "support_gate", "oracle_gate"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    out = dict(raw)
    out.setdefault("M", DEFAULT_M)
    out.setdefault("support_gate", DEFAULT_SUPPORT_GATE)
    out.setdefault("oracle_gate", DEFAULT_ORACLE_GATE)
    return out


def trig_samples(grid: Grid, spec: dict) -> np.ndarray:
    """Evaluate a finite trigonometric series on [lo, hi].

    ``spec`` maps "cos" and/or "sin" to coefficient lists ``[[re, im], ...]``;
    cos entries start at harmonic 0, sin entries at harmonic 1, in the angle
    theta = pi * (x - lo) / (hi - lo).
    """
    theta = PI * (grid.nodes - grid.lo) / (grid.hi - grid.lo)
    out = np.zeros(grid.m, dtype=complex)
    for k, (re, im) in enumerate(spec.get("cos", [])):
        out += (re + 1j * im) * np.cos(k * theta)
    for k, (re, im) in enumerate(spec.get("sin", []), start=1):
        out += (re + 1j * im) * np.sin(k * theta)
    return out


def potential_from_config(conf: dict, cfg: DelayConfig, base_path=None) -> PotentialPair:
    spec = conf.get("potential")
    if spec is None:
        raise ValueError("config has no 'potential' entry")
    kind = spec.get("type")
    if kind == "samples":
        path = spec["path"]
        if base_path is not None and not os.path.isabs(path):
            path = os.path.join(os.path.dirname(os.path.abspath(base_path)), path)
        pot = read_potentials_csv(path)
        if not (np.isclose(pot.grid.lo, cfg.a, atol=1e-9) and np.isclose(pot.grid.hi, PI, atol=1e-9)):
            raise ValueError("sampled potential grid does not cover [a, pi] for this delay")
        return pot
    if kind == "trig":
        grid = cfg.potential_grid(int(conf["M"]))
        q, p = trig_samples(grid, spec.get("q", {})), trig_samples(grid, spec.get("p", {}))
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError(f"{base_path or 'config'}: non-finite trig potential samples")
        return PotentialPair(grid, q, p)
    raise ValueError(f"unknown potential type {kind!r}")


def load_config(path) -> dict:
    with open(path, "r") as handle:
        return parse_config(json.load(handle))
