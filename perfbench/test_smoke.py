"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402  (puts the package source on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402
from delaydirac import core, forward, io as dio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be non-zero on the workload where they are
# predicted to move solve_s.
MOVES_ON = {
    "spectra": ["forward.find_spectrum.s", "forward.delta_eval.s", "forward.delta_eval.points",
                "forward.delta_prime.s", "forward.delta_prime.points", "forward.points_per_root"],
    "oracle": ["forward.compute_kernels.s", "core.interpolate.s", "core.interpolate.calls",
               "forward.delta_oracle.s"],
    "invert": ["hadamard.delta_at_integers.s", "inverse.invert_spectra.s", "inverse.synthesize_u.s",
               "inverse.synthesize_u.calls", "inverse.support_defect.s", "inverse.support_defect.max",
               "inverse.assemble_w.s", "inverse.recover_inner.s", "inverse.gamma.calls",
               "core.quadrature.calls", "io.read_spectrum_csv.s", "io.write_potentials_csv.s",
               "io.write_json.s", "io.bytes_written", "cli.main.s"],
    "stability": ["stability.stability_experiment.s", "stability.trial_s", "stability.parallelism",
                  "stability.perturb_spectrum.s", "stability.trials_ok"],
}


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace, section):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    else:
        assert [k for k in MOVES_ON[workload] if not result["metrics"][k]["value"] > 0] == []
        assert result["metrics"]["trace.missing"]["value"] == 0


def test_tracer_restores_names_and_reports_missing_functions():
    original = forward.delta_eval
    tracer = spans.Tracer(spans.TARGETS + (spans.Target("inverse", "no_such_function"),))
    assert tracer.missing == ["inverse.no_such_function"]
    with tracer.operation(0):
        assert forward.delta_eval is not original
        forward.find_spectrum(forward.compute_kernels(
            workloads.seeded_pair(1, 0, 128)[0], workloads.CFG, 2), 1, 5)
    assert forward.delta_eval is original
    names = {s.name for s in tracer.spans}
    assert {"forward.find_spectrum", "forward.delta_eval", "forward._newton"} <= names


def test_moved_root_fails_every_invert_operation(monkeypatch):
    setup = workloads.Invert.setup

    def setup_with_moved_root(self, seed, index):
        inp = setup(self, seed, index)
        spec = dio.read_spectrum_csv(inp.extra["spec1"])
        lam = spec.lam.copy()
        lam[spec.n_max] += 0.3
        dio.write_spectrum_csv(inp.extra["spec1"], core.Spectrum(spec.nu, spec.j, spec.n_max, lam))
        return inp

    monkeypatch.setattr(workloads.Invert, "setup", setup_with_moved_root)
    args = bench.parse_args(["--workload", "invert", "--seed", "3", "--seconds", "0.5", "--smoke"])
    result, detail = bench.run(args)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert detail["failed_frac"]["value"] == 1.0
    assert "exit 2" in detail["failures"][0]


def test_fails_without_the_package_source():
    bench.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(bare, "--workload", "spectra", "--seed", "1", "--seconds", "1",
                             "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
