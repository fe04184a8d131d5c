"""The benchmark's four workloads and its fixed-input accuracy reference.

A workload builds one input per ``setup`` call from the run seed, runs one
operation at a time with ``op`` (the timed part), and checks each output
with ``check``, which raises :class:`CheckFailed` on a wrong result.  Package
functions are called through their modules (``fw.find_spectrum``, never a
name imported from them), so that the traced run's rebinding reaches these
calls too.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from delaydirac import cli, core, forward as fw, inverse as inv, io as dio, presets
from delaydirac import stability as stab

CFG = core.DelayConfig(presets.SMOOTH_EXAMPLE_A)

# Acceptance tolerances of the package (README, tests/test_acceptance.py).
ROUNDTRIP_TOL = 5e-2
SUPPORT_GATE = dio.DEFAULT_SUPPORT_GATE
ORACLE_GATE = dio.DEFAULT_ORACLE_GATE

# Roots of a spectra pair that are checked against the ODE oracle.
ORACLE_ROOTS = 41
# The oracle's fourth-order error grows like (|lambda| * step)^4: at the
# default step it reaches 1.4e-4 at |lambda| = 400.  Keeping |lambda| * step
# below this keeps the oracle's own error under 1e-6, well below the gate.
ORACLE_PHASE_STEP = 0.08
# Seed of the accuracy reference's random choices; not the run seed.
REFERENCE_SEED = 2026


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def trig_config(coef: np.ndarray, m: int) -> dict:
    def series(row):
        return {"sin": [[float(z.real), float(z.imag)] for z in row]}

    return {"M": m, "potential": {"type": "trig", "q": series(coef[0]), "p": series(coef[1])}}


def seeded_pair(seed: int, index: int, m: int):
    """The ``index``-th input pair of run ``seed``, and the generator that drew it.

    q and p are 4-term sine series in pi(t-a)/(pi-a) with complex-normal
    coefficients scaled by 1/k^2, so they vanish at both ends of [a, pi] like
    the bundled pair, rescaled to the bundled pair's ||q|| + ||p||.
    """
    rng = np.random.default_rng([seed, index])
    k = np.arange(1, 5)
    coef = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / k**2
    raw = dio.potential_from_config(trig_config(coef, m), CFG)
    scale = sum(presets.smooth_example_pair(CFG, m).norms()) / sum(raw.norms())
    return dio.potential_from_config(trig_config(coef * scale, m), CFG), rng


def rel_l2(rec: core.PotentialPair, ref: core.PotentialPair) -> float:
    g = ref.grid
    err = np.hypot(core.l2_norm(g, rec.q - ref.q), core.l2_norm(g, rec.p - ref.p))
    return float(err / np.hypot(*ref.norms()))


def spectrum_oracle_mismatch(pot, nu: int, specs, rng) -> float:
    """max |Delta_oracle(lambda_n)| / (1 + |lambda_n|) over a random subset of roots."""
    worst = 0.0
    for spec, count in zip(specs, (ORACLE_ROOTS - ORACLE_ROOTS // 2, ORACLE_ROOTS // 2)):
        lam = rng.choice(spec.lam, size=min(count, spec.lam.size), replace=False)
        step = min(fw.DEFAULT_ORACLE_STEP, ORACLE_PHASE_STEP / np.max(np.abs(lam)))
        vals = fw.delta_oracle(pot, CFG, nu, spec.j, lam, step=step)
        worst = max(worst, float(np.max(np.abs(vals) / (1.0 + np.abs(lam)))))
    return worst


def oracle_points(rng, count: int) -> np.ndarray:
    return rng.uniform(-10.0, 10.0, count) + 1j * rng.uniform(-1.0, 1.0, count)


def oracle_mismatch(pot, lam) -> float:
    """The oracle-check path: kernels, closed form and ODE at ``lam``, worst mismatch."""
    ker = fw.compute_kernels(pot, CFG, 1)
    closed = fw.delta_eval(ker, 1, lam)
    oracle = fw.delta_oracle(pot, CFG, 1, 1, lam)
    return float(np.max(np.abs(closed - oracle) / (1.0 + np.abs(oracle))))


@dataclass
class Input:
    index: int
    pot: core.PotentialPair
    rng: np.random.Generator
    extra: dict = field(default_factory=dict)


class Workload:
    """Sizes are part of a workload's definition; ``smoke`` shrinks them for tests."""

    name = ""
    full: dict = {}
    smoke: dict = {}

    def __init__(self, smoke: bool, workdir: str):
        self.size = self.smoke if smoke else self.full
        self.workdir = workdir
        # First output per input: later operations on it must reproduce it.
        self.first = {}

    def setup(self, seed: int, index: int) -> Input:
        pot, rng = seeded_pair(seed, index, self.size["m"])
        return Input(index, pot, rng)

    def op(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, out) -> dict:
        raise NotImplementedError


class Spectra(Workload):
    """Kernels plus both spectra of branch nu=2: the forward exponential sum."""

    name = "spectra"
    full = {"m": 2048, "n": 400}
    smoke = {"m": 512, "n": 40}

    def op(self, inp):
        ker = fw.compute_kernels(inp.pot, CFG, 2)
        return ker, [fw.find_spectrum(ker, j, self.size["n"]) for j in (1, 2)]

    def check(self, inp, out):
        ker, specs = out
        for spec in specs:
            lam = spec.lam
            require(lam.size == 2 * self.size["n"] + 1, f"j={spec.j}: {lam.size} roots")
            require(np.all(np.abs(np.diff(np.sort_complex(lam))) > 1e-8), f"j={spec.j}: repeated roots")
            res = np.abs(fw.delta_eval(ker, spec.j, lam))
            require(np.all(res < fw.RESIDUAL_TOL * (1.0 + np.abs(lam))),
                    f"j={spec.j}: residual {np.max(res):.3g} above RESIDUAL_TOL")
        lam = np.concatenate([s.lam for s in specs])
        if inp.index not in self.first:
            self.first[inp.index] = (lam, spectrum_oracle_mismatch(inp.pot, 2, specs, inp.rng))
        first, mismatch = self.first[inp.index]
        require(np.array_equal(lam, first), "roots differ from the first operation on this input")
        require(mismatch <= ORACLE_GATE, f"oracle mismatch {mismatch:.3g} above {ORACLE_GATE}")
        return {"spectrum_oracle_mismatch": mismatch}


class Invert(Workload):
    """``delaydirac invert`` in-process on two spectrum CSVs written at set-up."""

    name = "invert"
    full = {"m": 1024, "n": 200}
    # At N=60 some seeded pairs exceed the 1e-3 support gate (Gibbs tail).
    smoke = {"m": 512, "n": 100}

    def setup(self, seed, index):
        inp = super().setup(seed, index)
        ker = fw.compute_kernels(inp.pot, CFG, 2)
        folder = os.path.join(self.workdir, f"input{index}")
        os.makedirs(folder)
        paths = []
        for j in (1, 2):
            paths.append(os.path.join(folder, f"spec2{j}.csv"))
            dio.write_spectrum_csv(paths[-1], fw.find_spectrum(ker, j, self.size["n"]))
        inp.extra.update(folder=folder, spec1=paths[0], spec2=paths[1])
        return inp

    def op(self, inp):
        out_dir = tempfile.mkdtemp(dir=inp.extra["folder"])
        argv = ["invert", "--a", repr(CFG.a), "--grid", str(self.size["m"]), "--nu", "2",
                "--spec1", inp.extra["spec1"], "--spec2", inp.extra["spec2"],
                "--out", os.path.join(out_dir, "potentials.csv")]
        stdout = stdio.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue(), out_dir

    def check(self, inp, out):
        code, stdout, out_dir = out
        try:
            require(code == cli.EXIT_OK, f"exit {code}: {stdout.strip()}")
            paths = [os.path.join(out_dir, name) for name in ("potentials.csv", "potentials.report.json")]
            blobs = []
            for path in paths:
                with open(path, "rb") as handle:
                    blobs.append(handle.read())
            report = json.loads(blobs[1])
            defect = max(report["support_defect_1"], report["support_defect_2"])
            require(defect <= SUPPORT_GATE, f"support defect {defect:.3g} above {SUPPORT_GATE}")
            err = rel_l2(dio.read_potentials_csv(paths[0]), inp.pot)
            require(err <= ROUNDTRIP_TOL, f"round-trip error {err:.3g} above {ROUNDTRIP_TOL}")
            require(blobs == self.first.setdefault(inp.index, blobs),
                    "artifacts differ from the first operation on this input")
        finally:
            shutil.rmtree(out_dir)
        return {"roundtrip_rel_l2": err, "support_defect": defect}


class Stability(Workload):
    """One stability_experiment on branch nu=1 with the worker pool at nproc threads."""

    name = "stability"
    full = {"m": 512, "n": 100, "trials": 20}
    smoke = {"m": 128, "n": 20, "trials": 4}
    RHO = 1e-2

    def __init__(self, smoke, workdir):
        super().__init__(smoke, workdir)
        self.threads = len(os.sched_getaffinity(0))
        self.serial_checked = False

    def setup(self, seed, index):
        inp = super().setup(seed, index)
        inp.extra["seed"] = int(inp.rng.integers(2**31))
        return inp

    def experiment(self, inp, threads):
        return stab.stability_experiment(
            inp.pot, CFG, 1, self.RHO, self.size["trials"], inp.extra["seed"],
            n_max=self.size["n"], m=self.size["m"], shape="decay", threads=threads)

    def op(self, inp):
        return self.experiment(inp, self.threads)

    def check(self, inp, rep):
        require(rep.aborted == 0, f"{rep.aborted} trials aborted")
        require(len(rep.ratios) == self.size["trials"], f"{len(rep.ratios)} ratios")
        require(all(np.isfinite(r) and r > 0 for r in rep.ratios), "ratio not finite and positive")
        if not self.serial_checked:
            self.serial_checked = True
            require(self.experiment(inp, 1).ratios == rep.ratios, "ratios depend on the thread count")
        require(rep.ratios == self.first.setdefault(inp.index, rep.ratios),
                "ratios differ from the first operation on this input")
        return {"max_ratio": rep.max_ratio}


class Oracle(Workload):
    """The oracle-check path: kernels at M=4096, closed form and ODE at scattered lambda."""

    name = "oracle"
    full = {"m": 4096, "points": 100}
    smoke = {"m": 1024, "points": 20}

    def setup(self, seed, index):
        inp = super().setup(seed, index)
        inp.extra["lam"] = oracle_points(inp.rng, self.size["points"])
        return inp

    def op(self, inp):
        mismatch = oracle_mismatch(inp.pot, inp.extra["lam"])
        return mismatch, mismatch <= ORACLE_GATE

    def check(self, inp, out):
        mismatch, passed = out
        require(passed and mismatch <= ORACLE_GATE, f"oracle mismatch {mismatch:.3g} above {ORACLE_GATE}")
        require(mismatch == self.first.setdefault(inp.index, mismatch),
                "mismatch differs from the first operation on this input")
        return {"oracle_rel_mismatch": mismatch}


WORKLOADS = {w.name: w for w in (Spectra, Invert, Stability, Oracle)}

REFERENCE = {"full": {"m": 512, "n": 60, "oracle_m": 4096, "points": 100},
             "smoke": {"m": 512, "n": 60, "oracle_m": 1024, "points": 20}}


def reference_accuracy(smoke: bool) -> dict:
    """Accuracy of the whole pipeline on the bundled pair, the same in every run.

    Round trip at (M, N) = (512, 60) on branch nu=2, the ODE oracle at a
    fixed subset of its roots, and the oracle-check path at the oracle
    workload's size.  The inputs do not depend on the run seed, so these
    numbers move only when the program's accuracy does.
    """
    size = REFERENCE["smoke" if smoke else "full"]
    rng = np.random.default_rng(REFERENCE_SEED)
    pot = presets.smooth_example_pair(CFG, size["m"])
    ker = fw.compute_kernels(pot, CFG, 2)
    specs = [fw.find_spectrum(ker, j, size["n"]) for j in (1, 2)]
    rec = inv.invert_spectra(*specs, CFG, m=size["m"]).potentials
    return {
        "roundtrip_rel_l2": rel_l2(rec, pot),
        "spectrum_oracle_mismatch": spectrum_oracle_mismatch(pot, 2, specs, rng),
        "oracle_rel_mismatch": oracle_mismatch(presets.smooth_example_pair(CFG, size["oracle_m"]),
                                               oracle_points(rng, size["points"])),
    }


REFERENCE_GATES = {"roundtrip_rel_l2": ROUNDTRIP_TOL, "spectrum_oracle_mismatch": ORACLE_GATE,
                   "oracle_rel_mismatch": ORACLE_GATE}
