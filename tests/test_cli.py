import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaydirac
from delaydirac import Spectrum, cli, io as dio
from delaydirac.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, main

PI = np.pi

ZERO_CONFIG = {
    "a": 0.42 * PI,
    "M": 256,
    "N": 10,
    "potential": {"type": "trig", "q": {}, "p": {}},
}

# N = 40 keeps these runs fast; the synthesis truncation defect at that order
# is ~1.2e-3, so the config widens the support gate accordingly (the strict
# default gate is exercised at production resolutions elsewhere).
SMOOTH_CONFIG = {
    "a": 0.42 * PI,
    "M": 256,
    "N": 40,
    "support_gate": 3e-3,
    "potential": {
        "type": "trig",
        "q": {"sin": [[0.30, 0.0], [0.0, -0.15]]},
        "p": {"sin": [[0.0, 0.18], [0.22, 0.0]]},
    },
}


def write_config(tmp_path, conf, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(conf))
    return str(path)


class TestSpectrumCommand:
    def test_zero_potential_lattice(self, tmp_path, capsys):
        conf = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--config", conf, "--nu", "2", "--j", "1", "--out", str(out)])
        assert rc == EXIT_OK
        spec = dio.read_spectrum_csv(out)
        assert (spec.nu, spec.j, spec.n_max) == (2, 1, 10)
        assert np.allclose(spec.lam, np.arange(-10, 11) - 0.5, atol=1e-10)
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"

    def test_flag_overrides_config(self, tmp_path):
        conf = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--config", conf, "--nu", "1", "--j", "1",
                   "--nmax", "4", "--out", str(out)])
        assert rc == EXIT_OK
        spec = dio.read_spectrum_csv(out)
        assert spec.n_max == 4


    def test_no_certified_root_is_gate_exit(self, tmp_path, capsys):
        # At x200 amplitude and N = 2 no Newton root passes the residual
        # gate; the contour count then fails with a gate error.
        scaled = {part: {"sin": [[200.0 * re, 200.0 * im] for re, im in series["sin"]]}
                  for part, series in SMOOTH_CONFIG["potential"].items() if part != "type"}
        conf = write_config(tmp_path, dict(SMOOTH_CONFIG, potential={"type": "trig", **scaled}))
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--config", conf, "--nu", "1", "--j", "2", "--nmax", "2",
                   "--out", str(out)])
        assert rc == EXIT_GATE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "RootCountError"
        assert not out.exists()

    def test_non_finite_potential_sample(self, tmp_path, capsys):
        grid_x = np.linspace(0.42 * PI, PI, 64)
        rows = [",".join(str(v) for v in (x, 0.0, 0.0, 0.1, 0.0)) for x in grid_x]
        rows[20] = f"{float(grid_x[20])!r},nan,0.0,0.1,0.0"
        samples = tmp_path / "pot.csv"
        samples.write_text("\n".join([dio.POTENTIALS_HEADER] + rows) + "\n")
        potential = {"type": "samples", "path": "pot.csv"}
        conf = write_config(tmp_path, dict(ZERO_CONFIG, potential=potential))
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--config", conf, "--nu", "1", "--j", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "ValueError"
        assert "pot.csv" in payload["error"]["message"]
        assert "non-finite" in payload["error"]["message"]
        assert not out.exists()


class TestForwardCommand:
    def test_writes_kernel_csv(self, tmp_path):
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        out = tmp_path / "kern.csv"
        rc = main(["forward", "--config", conf, "--nu", "2", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# nu=2"
        assert lines[1] == dio.KERNELS_HEADER
        assert len(lines) == 2 + 2 * 256 - 1


class TestInvertCommand:
    def _spectra_files(self, tmp_path):
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        paths = []
        for j in (1, 2):
            out = tmp_path / f"spec{j}.csv"
            rc = main(["spectrum", "--config", conf, "--nu", "2", "--j", str(j), "--out", str(out)])
            assert rc == EXIT_OK
            paths.append(out)
        return conf, paths

    def test_invert_round_trip(self, tmp_path):
        conf, (s1, s2) = self._spectra_files(tmp_path)
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--spec1", str(s1), "--spec2", str(s2),
                   "--out", str(out)])
        assert rc == EXIT_OK
        rec = dio.read_potentials_csv(out)
        assert rec.grid.m == 256
        report = json.loads((tmp_path / "rec.report.json").read_text())
        assert report["support_defect_1"] <= 3e-3
        assert report["residual_l2"] is None

    def test_mismatched_nu_flag(self, tmp_path):
        conf, (s1, s2) = self._spectra_files(tmp_path)
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--nu", "1", "--spec1", str(s1),
                   "--spec2", str(s2), "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()

    def test_swapped_spectra_files_rejected(self, tmp_path, capsys):
        conf, (s1, s2) = self._spectra_files(tmp_path)
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--spec1", str(s2), "--spec2", str(s1),
                   "--out", str(out)])
        assert rc == EXIT_GATE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "SpectraMismatchError"
        assert not out.exists()

    @pytest.mark.parametrize("rows, where", [("", "no rows"), ("-1,-1.5\n0,-0.5\n", "line 3")])
    def test_truncated_spectrum_file(self, tmp_path, capsys, rows, where):
        # A header-only file and rows shorter than the header are usage
        # errors that name the file, not tracebacks.
        conf = write_config(tmp_path, ZERO_CONFIG)
        s1 = tmp_path / "s1.csv"
        s1.write_text(f"# nu=2 j=1\n{dio.SPECTRUM_HEADER}\n{rows}")
        s2 = tmp_path / "s2.csv"
        dio.write_spectrum_csv(s2, Spectrum(2, 2, 3, np.arange(-3, 4) - 1.0))
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--spec1", str(s1), "--spec2", str(s2),
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "ValueError"
        assert "s1.csv" in payload["error"]["message"]
        assert where in payload["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("rows, where", [("-1,-1.5,0\n0.7,0.5,0\n1,0.5,0\n", "not an integer"),
                                             ("-1,-1.5,0\n1,0.5,0\n", "contiguously")],
                             ids=["fractional", "gap"])
    def test_bad_index_spectrum_file(self, tmp_path, capsys, rows, where):
        conf = write_config(tmp_path, ZERO_CONFIG)
        s1 = tmp_path / "s1.csv"
        s1.write_text(f"# nu=2 j=1\n{dio.SPECTRUM_HEADER}\n{rows}")
        s2 = tmp_path / "s2.csv"
        dio.write_spectrum_csv(s2, Spectrum(2, 2, 1, np.arange(-1, 2) - 1.0))
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--spec1", str(s1), "--spec2", str(s2),
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "ValueError"
        assert "s1.csv" in payload["error"]["message"]
        assert where in payload["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("which", [1, 2])
    def test_non_finite_eigenvalue_rejected(self, tmp_path, capsys, value, which):
        conf = write_config(tmp_path, ZERO_CONFIG)
        paths = []
        for j in (1, 2):
            paths.append(tmp_path / f"s{j}.csv")
            dio.write_spectrum_csv(paths[-1], Spectrum(2, j, 3, np.arange(-3, 4) + (1.0 - j) / 2.0))
        lines = paths[which - 1].read_text().splitlines()
        lines[4] = f"-1,{value},0"
        paths[which - 1].write_text("\n".join(lines) + "\n")
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--spec1", str(paths[0]), "--spec2", str(paths[1]),
                   "--out", str(out)])
        assert rc == EXIT_USAGE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "ValueError"
        assert f"s{which}.csv" in payload["error"]["message"]
        assert "non-finite" in payload["error"]["message"]
        assert not out.exists()
        assert not (tmp_path / "rec.report.json").exists()

    def test_corrupted_tail_gate_failure(self, tmp_path, capsys):
        conf, (s1, s2) = self._spectra_files(tmp_path)
        for path in (s1, s2):
            spec = dio.read_spectrum_csv(path)
            lam = spec.lam.copy()
            tail = np.abs(spec.indices) > spec.n_max // 2
            lam[tail] = spec.centers[tail] + 0.3
            dio.write_spectrum_csv(path, Spectrum(spec.nu, spec.j, spec.n_max, lam))
        out = tmp_path / "rec.csv"
        rc = main(["invert", "--config", conf, "--spec1", str(s1), "--spec2", str(s2),
                   "--out", str(out)])
        assert rc == EXIT_GATE
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["error"]["kind"] == "SupportDefectError"
        # no partial artifacts
        assert not out.exists()
        assert not (tmp_path / "rec.report.json").exists()


class TestRoundtripCommand:
    def test_report_metrics(self, tmp_path):
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        out = tmp_path / "rec.csv"
        rc = main(["roundtrip", "--config", conf, "--nu", "2", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "rec.report.json").read_text())
        assert report["rel_l2_error"] < 5e-2
        assert report["support_defect_1"] <= 3e-3
        assert report["support_defect_2"] <= 3e-3


class TestStabilityCommand:
    def test_writes_report(self, tmp_path):
        conf = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "stab.json"
        rc = main(["stability", "--config", conf, "--nu", "2", "--rho", "1e-2",
                   "--trials", "3", "--nmax", "30", "--seed", "7", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["trials"] == 3
        assert len(report["ratios"]) == 3
        assert report["r_ball"] < 0.5
        assert report["shape"] == "decay"

    def test_spike_flag(self, tmp_path):
        conf = write_config(tmp_path, ZERO_CONFIG)
        out = tmp_path / "stab.json"
        rc = main(["stability", "--config", conf, "--nu", "2", "--rho", "1e-2",
                   "--trials", "2", "--nmax", "30", "--seed", "7", "--spike",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["shape"] == "spike"


class TestOracleCheckCommand:
    def test_table_and_gate(self, tmp_path, capsys):
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        out = tmp_path / "oracle.csv"
        rc = main(["oracle-check", "--config", conf, "--nu", "2", "--j", "1",
                   "--seed", "11", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("lambda_re")
        assert len(lines) == 101
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_rel_mismatch"] <= payload["gate"]


    def test_overflow_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # A lambda whose fundamental matrix leaves the double range stops the
        # command with the oracle's ValueError, not a traceback or a table.
        oracle = cli.delta_oracle
        monkeypatch.setattr(cli, "delta_oracle", lambda pot, cfg, nu, j, lam, step: oracle(
            pot, cfg, nu, j, np.append(lam, 1.0 + 500j), step=step))
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        out = tmp_path / "oracle.csv"
        rc = main(["oracle-check", "--config", conf, "--out", str(out)])
        assert rc == EXIT_USAGE
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "ValueError"
        assert "worst lambda = 1+500j" in error["message"]
        assert not out.exists()


class TestParserReuse:
    """The parser is built once per process; later calls must not see earlier ones."""

    RUNS = (["spectrum", "--nu", "1", "--j", "2", "--nmax", "4", "--seed", "9"],
            ["forward", "--nu", "2", "--grid", "128"],
            ["spectrum", "--nu", "2", "--j", "1"],
            ["oracle-check", "--j", "2"])

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        argvs = [argv + ["--config", conf, "--out", str(tmp_path / f"run{k}.csv")]
                 for k, argv in enumerate(self.RUNS)]
        env = dict(os.environ, PYTHONPATH=str(Path(delaydirac.__file__).parents[1]))
        fresh = []
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "delaydirac.cli", *argv],
                                  capture_output=True, text=True, env=env, check=True)
            out = Path(argv[-1])
            fresh.append((proc.stdout, out.read_bytes()))
            out.unlink()
        for argv, (stdout, artifact) in zip(argvs, fresh):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == stdout
            assert Path(argv[-1]).read_bytes() == artifact
        assert cli.build_parser() is cli.build_parser()


class TestDeterminism:
    def test_byte_identical_spectrum_runs(self, tmp_path):
        conf = write_config(tmp_path, SMOOTH_CONFIG)
        outs = []
        for k in (1, 2):
            out = tmp_path / f"spec-run{k}.csv"
            rc = main(["spectrum", "--config", conf, "--nu", "1", "--j", "2", "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_identical_stability_runs(self, tmp_path):
        conf = write_config(tmp_path, ZERO_CONFIG)
        outs = []
        for k in (1, 2):
            out = tmp_path / f"stab-run{k}.json"
            rc = main(["stability", "--config", conf, "--nu", "2", "--rho", "1e-3",
                       "--trials", "2", "--nmax", "20", "--seed", "3", "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestErrors:
    def test_missing_delay(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        conf = write_config(tmp_path, {"M": 64, "potential": {"type": "trig", "q": {}, "p": {}}})
        rc = main(["spectrum", "--config", conf, "--nu", "1", "--j", "1", "--out", str(out)])
        assert rc == EXIT_USAGE
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload

    def test_regime_error_is_gate_exit(self, tmp_path, capsys):
        conf = write_config(tmp_path, dict(ZERO_CONFIG, a=0.2 * PI))
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--config", conf, "--nu", "1", "--j", "1", "--out", str(out)])
        assert rc == EXIT_GATE
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "RegimeError"


class TestRegimes:
    """At a = 0.38 pi the forward commands run and the inverse ones stop."""

    A = 0.38 * PI

    def test_forward_commands_run(self, tmp_path):
        # The oracle check needs the finer grid to meet its gate.
        conf = write_config(tmp_path, dict(SMOOTH_CONFIG, a=self.A, M=1024))
        for argv in (["forward", "--nu", "2"], ["spectrum", "--nu", "2", "--j", "1"],
                     ["oracle-check", "--nu", "2", "--j", "1"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main(argv + ["--config", conf, "--out", str(out)]) == EXIT_OK
            assert out.exists()

    def test_inverse_commands_are_gate_exits(self, tmp_path, capsys):
        conf = write_config(tmp_path, dict(SMOOTH_CONFIG, a=self.A, N=10))
        specs = []
        for j in (1, 2):
            specs.append(str(tmp_path / f"spec{j}.csv"))
            assert main(["spectrum", "--config", conf, "--nu", "2", "--j", str(j),
                         "--out", specs[-1]]) == EXIT_OK
        capsys.readouterr()
        for argv in (["invert", "--spec1", specs[0], "--spec2", specs[1]],
                     ["roundtrip", "--nu", "2"],
                     ["stability", "--nu", "2", "--rho", "1e-2", "--trials", "2"]):
            out = tmp_path / f"{argv[0]}.out"
            assert main(argv + ["--config", conf, "--out", str(out)]) == EXIT_GATE, argv[0]
            error = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
            assert error["kind"] == "RegimeError"
            assert "got a=1.19381" in error["message"] and "1.25664" in error["message"]
            assert not out.exists()
