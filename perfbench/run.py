"""Benchmark of the delaydirac pipeline, one workload per process.

    python3 perfbench/run.py --workload invert --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed`` (set-up, done once per input),
then runs one operation at a time for ``--seconds`` seconds of operation time
and checks every operation's output.  Stdout ends with an ``env`` line, a
``detail`` line and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The traced run also
writes every span to ``perfbench/out/``.  See README.md beside this file.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "delaydirac" / "__init__.py").is_file():
    sys.exit(f"perfbench: package source not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated once per input and reported as a median, and so is the
# import, each in a fresh interpreter.
INPUTS_PER_RUN = 3
IMPORT_RUNS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import delaydirac.cli; "
                "print(time.perf_counter() - t)")
# At least one traced and one untraced operation in a traced run.
MIN_OPS = 2

# The host's speed drifts by up to 1.9x over tens of seconds, alike for
# interpreter-bound and numpy-bound code.  Every timed step is preceded by
# this fixed probe, and the end-to-end times are reported in seconds at the
# speed where the probe takes PROBE_REF_S (its median over ten runs on a
# 2-vCPU Xeon VM, numpy 2.4.6).  The wall times are kept in the detail line.
PROBE_REF_S = 0.028
_PROBE_Y = np.ones((100, 2, 2), dtype=complex)
_PROBE_K = np.arange(256.0)[:, None]
_PROBE_X = np.linspace(0.0, 1.0, 1536)


def speed_probe() -> float:
    """Seconds for a fixed mix of small-array steps and one large complex exp.

    Single-threaded and independent of the package, so that no change to the
    package moves it.
    """
    t0 = time.perf_counter()
    y = _PROBE_Y
    for _ in range(1800):
        y = y + 1e-3 * (y[:, ::-1, :] - 0.5 * y)
    np.exp(1j * _PROBE_K * _PROBE_X).sum()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe: float) -> float:
    return seconds * PROBE_REF_S / probe


END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "roundtrip_rel_l2": "1",
    "spectrum_oracle_mismatch": "1",
    "oracle_rel_mismatch": "1",
}


def run_loop(workload, inputs, seconds: float, tracer=None) -> list:
    """Closed loop: one operation at a time, each checked before the next starts.

    Starts operations until their summed time reaches ``seconds``, and at
    least ``MIN_OPS`` of them.  In a traced run every other operation is
    traced, starting with the first.
    """
    ops = []
    busy = 0.0
    while True:
        k = len(ops)
        inp = inputs[k % len(inputs)]
        traced = tracer is not None and k % 2 == 0
        error = None
        probe = speed_probe()
        with tracer.operation(k) if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                out = workload.op(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        values = {}
        if error is None:
            try:
                values = workload.check(inp, out)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        ops.append({"s": dt, "ref_s": at_reference_speed(dt, probe), "probe_s": probe,
                    "traced": traced, "error": error, "values": values})
        busy += dt
        if len(ops) >= MIN_OPS and busy >= seconds:
            return ops


def import_seconds() -> list:
    """(wall, reference-speed) seconds to import numpy and the package in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(IMPORT_RUNS):
        probe = speed_probe()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append((float(proc.stdout), at_reference_speed(float(proc.stdout), probe)))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "DELAYDIRAC_THREADS": os.environ.get("DELAYDIRAC_THREADS"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args) -> tuple:
    """Set up, measure and check one workload; returns (result, detail)."""
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None and tracer.missing:
        print(f"perfbench: not traced, missing: {', '.join(tracer.missing)}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.smoke, workdir)
        inputs, setup_times = [], []
        for index in range(INPUTS_PER_RUN):
            probe = speed_probe()
            # Traced set-up spans feed the stage breakdown, not the metrics.
            with tracer.operation(f"setup{index}") if tracer else nullcontext():
                t0 = time.perf_counter()
                inputs.append(workload.setup(args.seed, index))
                dt = time.perf_counter() - t0
            setup_times.append((dt, at_reference_speed(dt, probe)))
        ops = run_loop(workload, inputs, args.seconds, tracer)
        peak = peak_rss_mb()
        reference = None if args.trace else workloads.reference_accuracy(args.smoke)
    import_times = [] if args.trace else import_seconds()

    failures = [o["error"] for o in ops if o["error"] is not None]
    correct = not failures
    times = [o["s"] for o in ops]
    detail = {
        "workload": args.workload,
        "ops": len(ops),
        "failed_frac": {"value": len(failures) / len(ops), "unit": "1"},
        "solve_wall_s": statistics.median(times),
        "probe_s": statistics.median(o["probe_s"] for o in ops),
        "solve_wall_s_quartiles": statistics.quantiles(times, n=4),
        "setup_wall_s": [t for t, _ in setup_times],
        "import_wall_s": [t for t, _ in import_times],
        "seeded_checks": {key: max(o["values"][key] for o in ops if key in o["values"])
                          for key in {k for o in ops for k in o["values"]}},
        "failures": failures[:5],
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(t for _, t in import_times)
                        + statistics.median(t for _, t in setup_times)),
            "solve_s": statistics.median(o["ref_s"] for o in ops),
            "peak_rss_mb": peak,
            **reference,
        }
        bad = [f"{k} {v:.3g} above {workloads.REFERENCE_GATES[k]}"
               for k, v in reference.items() if not v <= workloads.REFERENCE_GATES[k]]
        detail["reference_failures"] = bad
        correct = correct and not bad
        units = END_TO_END
    else:
        traced = [k for k, o in enumerate(ops) if o["traced"]]
        plain = [o["s"] for o in ops if not o["traced"]]
        overhead = statistics.median(ops[k]["s"] for k in traced) - statistics.median(plain)
        metrics = tracer.layer_metrics(traced, overhead)
        units = {key: unit for key, (unit, _) in spans.LAYER_METRICS.items()}
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"env": environment(args), "traced_ops": traced})
        detail["trace_file"] = str(path.relative_to(ROOT))
        detail["missing"] = tracer.missing
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    result, detail = run(args)
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
