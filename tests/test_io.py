import json

import numpy as np
import pytest

from delaydirac import DelayConfig, Grid, KernelSet, PotentialPair, Spectrum
from delaydirac import io as dio
from delaydirac.core import DEFAULT_N, DEFAULT_SEED

PI = np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestCodecsRoundTrip:
    def test_potentials(self, tmp_path, rng):
        cfg = DelayConfig(0.42 * PI)
        grid = cfg.potential_grid(33)
        pot = PotentialPair(grid, _random_complex(rng, 33), _random_complex(rng, 33))
        path = tmp_path / "pot.csv"
        dio.write_potentials_csv(path, pot)
        back = dio.read_potentials_csv(path)
        assert np.array_equal(back.q, pot.q)
        assert np.array_equal(back.p, pot.p)
        assert back.grid.m == pot.grid.m
        assert back.grid.lo == pot.grid.lo and back.grid.hi == pot.grid.hi

    def test_spectrum(self, tmp_path, rng):
        lam = (np.arange(-7, 8) - 0.5 + 0.01 * _random_complex(rng, 15))
        spec = Spectrum(2, 1, 7, lam)
        path = tmp_path / "spec.csv"
        dio.write_spectrum_csv(path, spec)
        back = dio.read_spectrum_csv(path)
        assert (back.nu, back.j, back.n_max) == (2, 1, 7)
        assert np.array_equal(back.lam, spec.lam)

    def test_spectrum_parse_is_bitwise(self, tmp_path, rng):
        # One array parse of all fields reads the written doubles back bit for
        # bit, at every magnitude, as the per-field float() loop does.
        n = 200
        lam = (np.arange(-n, n + 1) + 0.01 * rng.standard_normal(2 * n + 1)
               + 1j * rng.standard_normal(2 * n + 1) * 10.0 ** rng.integers(-300, 300, 2 * n + 1))
        spec = Spectrum(1, 1, n, lam)
        path = tmp_path / "spec.csv"
        dio.write_spectrum_csv(path, spec)
        back = dio.read_spectrum_csv(path)
        assert np.array_equal(back.lam, spec.lam)
        per_field = [[float(v) for v in ln.split(",")] for ln in path.read_text().splitlines()[2:]]
        assert np.array_equal(dio._parse_table(path, dio.SPECTRUM_HEADER)[1], per_field)

    def test_spectrum_without_metadata_needs_branch(self, tmp_path):
        path = tmp_path / "spec.csv"
        lines = [dio.SPECTRUM_HEADER] + [f"{n},{float(n)},0" for n in range(-2, 3)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            dio.read_spectrum_csv(path)

    def test_config(self, tmp_path):
        conf = {"a": 0.42 * PI, "M": 64, "N": 10,
                "potential": {"type": "trig", "q": {"sin": [[0.3, 0.0]]}, "p": {}}}
        path = tmp_path / "conf.json"
        dio.write_json(path, conf)
        back = dio.load_config(path)
        assert back["a"] == conf["a"]
        assert back["M"] == 64 and back["N"] == 10
        assert back["potential"] == conf["potential"]
        # defaults filled in
        assert back["support_gate"] == dio.DEFAULT_SUPPORT_GATE
        assert back["seed"] == DEFAULT_SEED
        assert dio.parse_config({})["N"] == DEFAULT_N

    def test_config_unknown_key(self):
        with pytest.raises(ValueError):
            dio.parse_config({"a": 1.5, "bogus": 1})


# -0.0, the smallest subnormal, a large power of ten, 1/3 and pi, with the
# 17 significant digits every table prints them with.
EDGE_VALUES = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, PI])
EDGE_PAIRS = [
    "-0,3.1415926535897931",
    "4.9406564584124654e-324,0.33333333333333331",
    "1.0000000000000001e+300,1.0000000000000001e+300",
    "0.33333333333333331,4.9406564584124654e-324",
    "3.1415926535897931,-0",
]


def _edge_complex():
    """EDGE_VALUES + i EDGE_VALUES[::-1], keeping the sign of -0.0 in both parts."""
    z = np.empty(5, dtype=complex)
    z.real, z.imag = EDGE_VALUES, EDGE_VALUES[::-1]
    return z


class TestTableBytes:
    """The bytes each CSV writer produces, pinned as literal text."""

    def test_potentials(self, tmp_path):
        z = _edge_complex()
        path = tmp_path / "pot.csv"
        dio.write_potentials_csv(path, PotentialPair(Grid(0.0, 1.0, 5), z, z[::-1]))
        assert path.read_text() == (
            "x,q_re,q_im,p_re,p_im\n"
            "0,-0,3.1415926535897931,3.1415926535897931,-0\n"
            "0.25,4.9406564584124654e-324,0.33333333333333331,"
            "0.33333333333333331,4.9406564584124654e-324\n"
            "0.5,1.0000000000000001e+300,1.0000000000000001e+300,"
            "1.0000000000000001e+300,1.0000000000000001e+300\n"
            "0.75,0.33333333333333331,4.9406564584124654e-324,"
            "4.9406564584124654e-324,0.33333333333333331\n"
            "1,3.1415926535897931,-0,-0,3.1415926535897931\n"
        )

    def test_spectrum(self, tmp_path):
        path = tmp_path / "spec.csv"
        dio.write_spectrum_csv(path, Spectrum(2, 1, 2, _edge_complex()))
        assert path.read_text() == (
            "# nu=2 j=1\n"
            "n,lambda_re,lambda_im\n"
            "-2,-0,3.1415926535897931\n"
            "-1,4.9406564584124654e-324,0.33333333333333331\n"
            "0,1.0000000000000001e+300,1.0000000000000001e+300\n"
            "1,0.33333333333333331,4.9406564584124654e-324\n"
            "2,3.1415926535897931,-0\n"
        )

    def test_kernels(self, tmp_path):
        z = _edge_complex()
        path = tmp_path / "ker.csv"
        dio.write_kernels_csv(path, KernelSet(1, Grid(-1.0, 1.0, 5), z, z, z, z))
        nodes = ("-1", "-0.5", "0", "0.5", "1")
        rows = [",".join([x] + [pair] * 4) for x, pair in zip(nodes, EDGE_PAIRS)]
        header = "# nu=1\nx,v1_re,v1_im,v2_re,v2_im,u1_re,u1_im,u2_re,u2_im\n"
        assert path.read_text() == header + "\n".join(rows) + "\n"


class TestTruncatedFiles:
    def test_header_only(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text(dio.POTENTIALS_HEADER + "\n")
        with pytest.raises(ValueError, match=r"pot\.csv has a header but no rows"):
            dio.read_potentials_csv(path)

    @pytest.mark.parametrize("keep", [3, 6])
    def test_row_width_differs_from_header(self, tmp_path, rng, keep):
        # Rows with fewer or more fields than the header name their line.
        cfg = DelayConfig(0.42 * PI)
        grid = cfg.potential_grid(9)
        path = tmp_path / "pot.csv"
        dio.write_potentials_csv(path, PotentialPair(grid, _random_complex(rng, 9), _random_complex(rng, 9)))
        lines = path.read_text().splitlines()
        lines[3] = ",".join((lines[3].split(",") * 2)[:keep])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"pot\.csv, line 4: {keep} fields, the header has 5"):
            dio.read_potentials_csv(path)


class TestSpectrumIndices:
    @pytest.mark.parametrize("rows, message", [
        (["-1,-1.5,0", "0.7,0.5,0", "1,0.5,0"], r"spec\.csv: index n = 0\.7 is not an integer"),
        (["-1,-1.5,0", "nan,0.5,0", "1,0.5,0"], r"spec\.csv: index n = nan is not an integer"),
        (["-1,-1.5,0", "1,0.5,0"], r"spec\.csv: spectrum rows must cover n = -N\.\.N contiguously"),
    ], ids=["fractional", "nan", "gap"])
    def test_bad_index_names_the_file(self, tmp_path, rows, message):
        # A fractional index used to be truncated to an integer and accepted.
        path = tmp_path / "spec.csv"
        path.write_text("\n".join(["# nu=2 j=1", dio.SPECTRUM_HEADER] + rows) + "\n")
        with pytest.raises(ValueError, match=message):
            dio.read_spectrum_csv(path)


class TestPotentialBuilders:
    def test_trig_endpoint_vanishing(self):
        cfg = DelayConfig(0.42 * PI)
        conf = {"M": 65, "potential": {"type": "trig",
                                       "q": {"sin": [[1.0, 0.0]]},
                                       "p": {"sin": [[0.0, 0.0], [0.5, -0.5]]}}}
        pot = dio.potential_from_config(conf, cfg)
        assert pot.q[0] == 0 and abs(pot.q[-1]) < 1e-15  # sin(pi) in floats
        assert pot.p[0] == 0 and abs(pot.p[-1]) < 1e-15
        mid = 32
        assert pot.q[mid] == pytest.approx(1.0)  # sin(pi/2) at the midpoint

    def test_trig_cosine_terms(self):
        cfg = DelayConfig(0.42 * PI)
        conf = {"M": 11, "potential": {"type": "trig", "q": {"cos": [[2.0, 1.0]]}, "p": {}}}
        pot = dio.potential_from_config(conf, cfg)
        assert np.allclose(pot.q, 2.0 + 1.0j)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_trig_coefficient(self, bad):
        # Rejected before sampling: inf * sin(0) used to warn first.
        conf = {"M": 9, "potential": {"type": "trig", "q": {"sin": [[0.1, 0.0]]},
                                      "p": {"sin": [[0.2, bad]]}}}
        with pytest.raises(ValueError, match="config: non-finite trig coefficient"):
            dio.potential_from_config(conf, DelayConfig(0.42 * PI))

    def test_samples_potential(self, tmp_path, rng):
        cfg = DelayConfig(0.42 * PI)
        grid = cfg.potential_grid(19)
        pot = PotentialPair(grid, _random_complex(rng, 19), _random_complex(rng, 19))
        path = tmp_path / "pot.csv"
        dio.write_potentials_csv(path, pot)
        conf = {"M": 19, "potential": {"type": "samples", "path": str(path)}}
        back = dio.potential_from_config(conf, cfg)
        assert np.array_equal(back.q, pot.q)

    def test_samples_wrong_interval(self, tmp_path, rng):
        cfg_a = DelayConfig(0.42 * PI)
        cfg_b = DelayConfig(0.45 * PI)
        grid = cfg_a.potential_grid(9)
        pot = PotentialPair(grid, np.zeros(9, complex), np.zeros(9, complex))
        path = tmp_path / "pot.csv"
        dio.write_potentials_csv(path, pot)
        conf = {"M": 9, "potential": {"type": "samples", "path": str(path)}}
        with pytest.raises(ValueError, match=r"^sampled potential grid does not cover \[a, pi\] for this delay$"):
            dio.potential_from_config(conf, cfg_b)


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "x.txt"
        dio.atomic_write_text(path, "one\n")
        dio.atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_deterministic_json(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        payload = {"zeta": 1.0 / 3.0, "alpha": [1e-17, 2.5]}
        dio.write_json(path_a, payload)
        dio.write_json(path_b, json.loads(path_a.read_text()))
        assert path_a.read_bytes() == path_b.read_bytes()
