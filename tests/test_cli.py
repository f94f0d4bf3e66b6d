"""End-to-end tests for the command-line harness."""

import csv
import json

import numpy as np
import pytest

from emiscat.cli import ConfigError, load_config, main, run, verify_manifest
from emiscat.io import read_field


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE = """
[physics]
kappa = 1.0
r = 3.7699111843077517

[grids]
n = 12
n_theta = 1
n_phi = 3

[smoothness]
m = 4.0
s = 6.0
"""

BUMP = """
[medium]
profile = bump
centers = 0.3,-0.2,0.1
amplitudes = 0.2
widths = 1.5
b = 0.7
"""


class TestConfigGuards:
    def test_exceptional_smoothness_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[smoothness]
m = 4.0
s = 9.5
""")
        with pytest.raises(ConfigError, match="s != 2m \\+ 3/2"):
            load_config(cfg)

    def test_exceptional_smoothness_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", """
[smoothness]
m = 4.0
s = 9.5
""")
        code = main(["forward", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "2m + 3/2" in capsys.readouterr().err

    def test_radius_guard(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[physics]\nr = 3.0\n")
        with pytest.raises(ConfigError, match="R > pi"):
            load_config(cfg)

    def test_smoothness_order_guards(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[smoothness]\nm = 2.0\ns = 6.0\n")
        with pytest.raises(ConfigError, match="m > 7/2"):
            load_config(cfg)
        cfg = write_config(tmp_path / "c2.ini", "[smoothness]\nm = 4.0\ns = 3.9\n")
        with pytest.raises(ConfigError, match="s > m"):
            load_config(cfg)

    def test_theta_guard(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[smoothness]\nm = 4.0\ns = 6.0\ntheta = 1.5\n")
        with pytest.raises(ConfigError, match="0 < theta < 1"):
            load_config(cfg)

    def test_missing_config(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.ini"))

    def test_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           BASE + "[experiment]\nkind = rates\n")
        with pytest.raises(ConfigError, match="declares kind"):
            run("forward", cfg, out_dir=str(tmp_path / "o"))

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\nkind = sideways\n")
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            load_config(cfg)

    def test_missing_output_dir(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE)
        with pytest.raises(ConfigError, match="output directory"):
            run("forward", cfg)

    def test_threads_guard(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE)
        with pytest.raises(ConfigError, match="threads"):
            run("forward", cfg, out_dir=str(tmp_path / "o"), threads=0)


class TestForwardPipeline:
    def test_vacuum_forward(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE)
        out = tmp_path / "out"
        manifest = run("forward", cfg, out_dir=str(out), seed=3)
        assert set(manifest["artifacts"]) == {"total_field.fld",
                                              "scattered_field.fld",
                                              "forward_summary.json"}
        scattered, _, kind = read_field(out / "scattered_field.fld")
        assert kind == "scattered-electric"
        assert np.max(np.abs(scattered)) < 1e-12
        assert verify_manifest(out)
        summary = json.loads((out / "forward_summary.json").read_text())
        assert summary["residual"] < 1e-10

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        m1 = run("forward", cfg, out_dir=str(out1), seed=7)
        m2 = run("forward", cfg, out_dir=str(out2), seed=7)
        assert m1 == m2
        for name in m1["artifacts"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "manifest.json").read_bytes() \
            == (out2 / "manifest.json").read_bytes()

    def test_manifest_detects_corruption(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE)
        out = tmp_path / "out"
        run("forward", cfg, out_dir=str(out))
        path = out / "forward_summary.json"
        path.write_text(path.read_text() + " ")
        assert not verify_manifest(out)

    def test_cli_entry(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", BASE)
        code = main(["forward", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "artifacts" in capsys.readouterr().out


class TestDataPipelines:
    def test_nearfield(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP)
        out = tmp_path / "out"
        run("nearfield", cfg, out_dir=str(out))
        summary = json.loads((out / "nearfield_summary.json").read_text())
        assert summary["norm"] > 0
        assert (out / "near_data.dat").exists()

    def test_nearfield_threads_do_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out1, 1), (out2, 2)):
            assert main(["nearfield", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
        assert (out1 / "manifest.json").read_bytes() \
            == (out2 / "manifest.json").read_bytes()

    def test_farfield(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP)
        out = tmp_path / "out"
        run("farfield", cfg, out_dir=str(out))
        summary = json.loads((out / "farfield_summary.json").read_text())
        assert summary["norm"] > 0


class TestCgoPipeline:
    def test_cgo_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP + """
[cgo]
gamma = 1,0,0
t = 25.0
m_grid = 24
""")
        out = tmp_path / "out"
        run("cgo", cfg, out_dir=str(out))
        summary = json.loads((out / "cgo_summary.json").read_text())
        assert summary["residual"] < 1e-2
        assert summary["contraction"] < 1.0
        assert (out / "cgo_u.fld").exists() and (out / "cgo_h.fld").exists()

    def test_cgo_needs_parameters(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP)
        with pytest.raises(ConfigError, match="gamma and t"):
            run("cgo", cfg, out_dir=str(tmp_path / "o"))

    def test_cgo_rejects_bandlimited_profile(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + """
[medium]
profile = bandlimited

[cgo]
gamma = 1,0,0
t = 25.0
""")
        with pytest.raises(ConfigError, match="'bandlimited'"):
            run("cgo", cfg, out_dir=str(tmp_path / "o"))
        assert main(["cgo", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2


class TestVscPipeline:
    def test_vsc_check(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP + """
[vsc]
members = 2
amplitude = 0.02
""")
        out = tmp_path / "out"
        run("vsc-check", cfg, out_dir=str(out), seed=5)
        summary = json.loads((out / "vsc_summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["A"] >= 0.0
        with open(out / "vsc_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + 2 members


class TestInversionPipelines:
    def test_invert(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + """
[medium]
profile = bandlimited
gamma_max = 2.0
amplitude = 0.06

[noise]
deltas = 1e-2

[inversion]
gamma_max = 2.0
maxiter = 5
""")
        out = tmp_path / "out"
        run("invert", cfg, out_dir=str(out), seed=9)
        summary = json.loads((out / "invert_summary.json").read_text())
        assert summary["misfit"] >= 0
        assert summary["monotone"]
        assert (out / "reconstruction.fld").exists()

    def test_rates_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE + """
[medium]
profile = bandlimited
gamma_max = 2.0
amplitude = 0.06

[noise]
deltas = 1e-1,1e-2,3e-3,1e-3

[inversion]
gamma_max = 2.0
maxiter = 4
""")
        out = tmp_path / "out"
        run("rates", cfg, out_dir=str(out), seed=2)
        with open(out / "rates.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delta", "alpha", "error", "misfit", "iterations"]
        assert len(rows) == 5  # header + one row per noise level
        summary = json.loads((out / "rates_summary.json").read_text())
        assert np.isfinite(summary["nu_hat"])
        assert summary["levels"] == 4


class TestNear2FarPipeline:
    def test_vacuum_agreement(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[physics]
kappa = 1.0
r = 3.7699111843077517

[grids]
n = 12
n_theta = 1
n_phi = 3
l = 4

[smoothness]
m = 4.0
s = 6.0
""")
        out = tmp_path / "out"
        run("near2far", cfg, out_dir=str(out))
        summary = json.loads((out / "near2far_summary.json").read_text())
        assert summary["relative_error"] == 0.0
        assert summary["direct_norm"] == 0.0
        assert (out / "far_coeffs.alf").exists()
