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
    DEFAULT_N,
    DEFAULT_ORACLE_GATE,
    DEFAULT_SEED,
    DEFAULT_SUPPORT_GATE,
    DelayConfig,
    Grid,
    KernelSet,
    PotentialPair,
    Spectrum,
)


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


def write_table(path, header: str, columns, meta=None) -> None:
    """Write real columns as CSV rows of 17-significant-digit floats.

    ``meta`` maps keys to values for an optional '# k=v ...' line above the
    header.  Integral values print without a fraction (up to 1e17).
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    text = header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())
    if meta:
        text = "# " + " ".join(f"{key}={val}" for key, val in meta.items()) + "\n" + text
    atomic_write_text(path, text)


def _grid_from_x(x: np.ndarray) -> Grid:
    if len(x) < 2:
        raise ValueError("need at least two rows to infer a grid")
    h = (x[-1] - x[0]) / (len(x) - 1)
    if not np.allclose(np.diff(x), h, rtol=0.0, atol=1e-9 * max(abs(h), 1.0)):
        raise ValueError("node column is not uniformly spaced")
    return Grid(float(x[0]), float(x[-1]), len(x))


def _parse_table(path, header: str):
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
    rows = [ln.split(",") for _, ln in lines[1:]]
    for (lineno, _), fields in zip(lines[1:], rows):
        if len(fields) != width:
            raise ValueError(f"{path}, line {lineno}: {len(fields)} fields, the header has {width}")
    if not rows:
        raise ValueError(f"{path} has a header but no rows")
    return meta, np.array(rows, dtype=float)


# -- potentials --------------------------------------------------------------

POTENTIALS_HEADER = "x,q_re,q_im,p_re,p_im"


def write_potentials_csv(path, pot: PotentialPair) -> None:
    write_table(path, POTENTIALS_HEADER,
                (pot.grid.nodes, pot.q.real, pot.q.imag, pot.p.real, pot.p.imag))


def read_potentials_csv(path) -> PotentialPair:
    _, rows = _parse_table(path, POTENTIALS_HEADER)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{path}: non-finite potential sample")
    grid = _grid_from_x(rows[:, 0])
    return PotentialPair(grid, rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4])


# -- spectra -----------------------------------------------------------------

SPECTRUM_HEADER = "n,lambda_re,lambda_im"


def write_spectrum_csv(path, spec: Spectrum) -> None:
    write_table(path, SPECTRUM_HEADER, (spec.indices, spec.lam.real, spec.lam.imag),
                meta={"nu": spec.nu, "j": spec.j})


def read_spectrum_csv(path) -> Spectrum:
    meta, rows = _parse_table(path, SPECTRUM_HEADER)
    if "nu" not in meta or "j" not in meta:
        raise ValueError(f"{path} carries no branch metadata '# nu=.. j=..'")
    nu, j = int(meta["nu"]), int(meta["j"])
    bad = ~np.isfinite(rows[:, 0]) | (rows[:, 0] != np.round(rows[:, 0]))
    if bad.any():
        raise ValueError(f"{path}: index n = {float(rows[bad, 0][0])} is not an integer")
    n = rows[:, 0].astype(int)
    n_max = int(n.max())
    if not np.array_equal(n, np.arange(-n_max, n_max + 1)):
        raise ValueError(f"{path}: spectrum rows must cover n = -N..N contiguously")
    if not np.all(np.isfinite(rows[:, 1:])):
        raise ValueError(f"{path}: non-finite eigenvalue")
    return Spectrum(nu, j, n_max, rows[:, 1] + 1j * rows[:, 2])


# -- kernels ------------------------------------------------------------------

KERNELS_HEADER = "x,v1_re,v1_im,v2_re,v2_im,u1_re,u1_im,u2_re,u2_im"


def write_kernels_csv(path, ker: KernelSet) -> None:
    parts = [c for z in (ker.v1, ker.v2, ker.u1, ker.u2) for c in (z.real, z.imag)]
    write_table(path, KERNELS_HEADER, (ker.grid.nodes, *parts), meta={"nu": ker.nu})


# -- run configuration --------------------------------------------------------


def parse_config(raw: dict) -> dict:
    """Normalize a config mapping: unknown keys are rejected, defaults filled in."""
    known = {"a", "M", "N", "potential", "seed", "support_gate", "oracle_gate"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = {"M": DEFAULT_M, "N": DEFAULT_N, "seed": DEFAULT_SEED,
                "support_gate": DEFAULT_SUPPORT_GATE, "oracle_gate": DEFAULT_ORACLE_GATE}
    return {**defaults, **raw}


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
        if not cfg.covers(pot.grid):
            raise ValueError("sampled potential grid does not cover [a, pi] for this delay")
        return pot
    if kind == "trig":
        where = base_path or "config"
        coef = [c for part in ("q", "p") for series in spec.get(part, {}).values() for c in series]
        if not np.all(np.isfinite(np.asarray(coef, dtype=float))):
            raise ValueError(f"{where}: non-finite trig coefficient")
        grid = cfg.potential_grid(int(conf["M"]))
        with np.errstate(over="ignore", invalid="ignore"):
            q, p = trig_samples(grid, spec.get("q", {})), trig_samples(grid, spec.get("p", {}))
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError(f"{where}: trig potential samples overflow")
        return PotentialPair(grid, q, p)
    raise ValueError(f"unknown potential type {kind!r}")


def load_config(path) -> dict:
    with open(path, "r") as handle:
        return parse_config(json.load(handle))
