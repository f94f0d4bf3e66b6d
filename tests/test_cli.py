"""End-to-end tests for the command-line harness."""

import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from emiscat import cli, cgo_vectors
from emiscat.cli import ConfigError, load_config, main, run, verify_manifest
from emiscat.forward import PlaneWave, ScatteringSolver
from emiscat.fourier import BumpProfile, CubeGrid, SobolevParams
from emiscat.io import read_field


def write_config(path, text):
    path.write_text(text)
    return str(path)


def assert_manifest_complete(out):
    """The output directory holds exactly the manifest's artifacts."""
    manifest = json.loads((out / "manifest.json").read_text())
    files = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert files == set(manifest["artifacts"])


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


EVERY_KEY = """
[experiment]
kind = rates

[physics]
kappa = 1.5
R = 4.5

[grids]
n = 12
n_theta = 3
n_phi = 5
l = 7

[smoothness]
m = 4.5
s = 7.25

[noise]
deltas = 1e-1, 3e-3
seeds = 5, 9

[cgo]
gamma = 1,-1,1
t = 25.0
m_grid = 24

[inversion]
gamma_max = 2.5
a = 0.5
nu = 0.25
alpha = 1e-4
maxiter = 7

[vsc]
members = 3
amplitude = 0.03
beta = 0.25

[output]
directory = some/dir
"""

# each profile with the [medium] keys it reads, and their parsed values
MEDIUM_KEYS = {
    "bump": ("centers = 0.3,-0.2,0.1; -0.4, 0.5, 0.0\n"
             "amplitudes = 0.2, 0.05+0.01j\nwidths = 1.5, 0.75\n",
             {"centers": ((0.3, -0.2, 0.1), (-0.4, 0.5, 0.0)),
              "amplitudes": (0.2 + 0j, 0.05 + 0.01j), "widths": (1.5, 0.75)}),
    "bandlimited": ("gamma_max = 1.5\namplitude = 0.06\n",
                    {"band_gamma_max": 1.5, "band_amplitude": 0.06}),
}

BAD_CONFIGS = {
    "unknown-key": ("[physics]\nkapa = 2.0\n", "[physics] kapa"),
    "negative-kappa": ("[physics]\nkappa = -1\n", "[physics] kappa"),
    "unknown-section": ("[phyzics]\nkappa = 2.0\n", "[phyzics] kappa"),
    "malformed-value": ("[grids]\nn = sixteen\n", "[grids] n"),
    "list-lengths": (BUMP.replace("amplitudes = 0.2", "amplitudes = 0.2,0.1"),
                     "centers, amplitudes and widths"),
    "center-coordinates": (BUMP.replace("0.3,-0.2,0.1", "0.3,-0.2"),
                           "[medium]: each bump center"),
    "unknown-profile": ("[medium]\nprofile = bumpy\n", "[medium] profile"),
    "bump-key-under-vacuum": (BUMP.replace("profile = bump", ""),
                              "[medium] centers"),
    "band-key-under-bump": (BUMP + "gamma_max = 1.5\n", "[medium] gamma_max"),
    "odd-grid": ("[grids]\nn = 7\n", "[grids] n"),
    "no-sphere-nodes": ("[grids]\nn_theta = 0\n", "[grids] n_theta"),
    "negative-degree": ("[grids]\nl = -1\n", "[grids] l"),
    "empty-family": ("[vsc]\nmembers = 0\n", "[vsc] members"),
    "negative-delta": ("[noise]\ndeltas = -0.1\n", "[noise] deltas"),
    "negative-seed": ("[noise]\nseeds = -1, 5\n", "[noise] seeds"),
    "odd-cgo-grid": ("[cgo]\nm_grid = 7\n", "[cgo] m_grid"),
    "band-beyond-nyquist": ("[grids]\nn = 8\n[inversion]\ngamma_max = 9\n",
                            "[inversion] gamma_max"),
    "negative-alpha": ("[inversion]\nalpha = -1\n", "[inversion] alpha"),
    "zero-a": ("[inversion]\na = 0\n", "[inversion] a"),
    "nu-above-one": ("[inversion]\nnu = 1.5\n", "[inversion] nu"),
    "zero-maxiter": ("[inversion]\nmaxiter = 0\n", "[inversion] maxiter"),
}

BAND = """
[medium]
profile = bandlimited
gamma_max = 2.0
amplitude = 0.06

[inversion]
gamma_max = 2.0
maxiter = 2
"""

# (command, config, key): checks a run makes of its own, before any
# solve; the command is the kind and any flags
BAD_RUNS = {
    "out-of-ball-bump": ("forward", BASE + BUMP.replace("0.3,-0.2,0.1",
                                                        "2.5,0,0"),
                         "[medium]: bump at"),
    "cgo-without-gamma-t": ("cgo", BASE + BUMP, "[cgo] gamma and t"),
    "cgo-gamma-zero": ("cgo", BASE + BUMP + "[cgo]\ngamma = 0,0,0\nt = 25\n",
                       "[cgo] gamma, t"),
    "cgo-gamma-short": ("cgo", BASE + BUMP + "[cgo]\ngamma = 1, 0\nt = 25\n",
                        "[cgo] gamma, t: gamma needs three components"),
    "bandlimited-vsc-check": ("vsc-check", BASE + BAND,
                              "[medium] profile = 'bandlimited'"),
    "too-few-seeds": ("rates", BASE + BAND
                      + "[noise]\ndeltas = 0.1, 0.01\nseeds = 1\n",
                      "fewer [noise] seeds"),
    "increasing-rates-deltas": ("rates", BASE + BAND
                                + "[noise]\ndeltas = 0.01, 0.1\n",
                                "[noise] deltas"),
    "zero-rates-delta": ("rates", BASE + BAND + "[noise]\ndeltas = 0.1, 0\n",
                         "[noise] deltas"),
    "rates-deltas-below-fit": ("rates", BASE + BAND
                               + "[noise]\ndeltas = 1e-11, 1e-12\n",
                               "[noise] deltas"),
    "inadmissible-vsc-member": ("vsc-check", BASE + BUMP
                                + "[vsc]\namplitude = -5\n",
                                "[vsc] amplitude"),
    "invert-zero-delta": ("invert", BASE + BAND + "[noise]\ndeltas = 0\n",
                          "[noise] deltas"),
    "negative-seed-vsc-check": ("vsc-check --seed -1", BASE + BUMP, "--seed"),
    "negative-seed-rates": ("rates --seed -1", BASE + BAND
                            + "[noise]\ndeltas = 0.1, 0.01\n", "--seed"),
}


class TestConfigKeys:
    @pytest.mark.parametrize("text, key", BAD_CONFIGS.values(),
                             ids=list(BAD_CONFIGS))
    def test_bad_config_names_key(self, tmp_path, capsys, text, key):
        cfg = write_config(tmp_path / "c.ini", text)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(cfg)
        out = tmp_path / "o"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_every_key(self, tmp_path):
        # a [medium] key is read under one profile only, so every key is
        # covered by one config per profile
        for profile, (keys, values) in MEDIUM_KEYS.items():
            cfg = load_config(write_config(
                tmp_path / f"{profile}.ini",
                EVERY_KEY + f"\n[medium]\nprofile = {profile}\nb = 0.7\n"
                + keys))
            assert {f.name: getattr(cfg, f.name)
                    for f in fields(cfg) if f.init} == {
                "kind": "rates", "kappa": 1.5, "R": 4.5, "n": 12,
                "n_theta": 3, "n_phi": 5, "L": 7, "m": 4.5, "s": 7.25,
                "profile": profile, "centers": (), "amplitudes": (),
                "widths": (), "b": 0.7, "band_gamma_max": 2.0,
                "band_amplitude": 0.08, **values,
                "deltas": (0.1, 0.003), "seeds": (5, 9),
                "cgo_gamma": (1.0, -1.0, 1.0), "cgo_t": 25.0,
                "cgo_m_grid": 24, "inv_gamma_max": 2.5, "inv_A": 0.5,
                "inv_nu": 0.25, "inv_alpha": 1e-4, "inv_maxiter": 7,
                "vsc_members": 3, "vsc_amplitude": 0.03, "vsc_beta": 0.25,
                "out_dir": "some/dir"}
            assert cfg.bump == BumpProfile(cfg.centers, cfg.amplitudes,
                                           cfg.widths)
            assert cfg.smoothness == SobolevParams(4.5, 7.25)
            assert cfg.nu == 0.25
            assert cfg.grid == CubeGrid(np.pi, 12)
            assert cfg.sphere.radius == 4.5 and cfg.sphere.nodes.shape == (15, 3)

    @pytest.mark.parametrize("command, text, key", BAD_RUNS.values(),
                             ids=list(BAD_RUNS))
    def test_bad_run_names_key(self, tmp_path, capsys, monkeypatch, command,
                               text, key):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the checks")

        for name in ("ScatteringSolver", "near_field_operator",
                     "far_field_operator", "cgo_solve"):
            monkeypatch.setattr(cli, name, no_solve)
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "o"
        assert main([*command.split(), "--config", cfg, "--out",
                     str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_workspace_made_by_first_write(self, tmp_path):
        out = tmp_path / "a" / "b"
        ws = cli.Workspace(out, 0)
        assert not out.exists()
        ws.write("x.txt", lambda path: path.write_text("x"))
        assert (out / "x.txt").read_text() == "x"

    def test_run_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE)
        out = tmp_path / "o"
        kinds = ", ".join(cli.RUNNERS)
        with pytest.raises(ConfigError, match=re.escape(kinds)):
            run("sideways", cfg, out_dir=str(out))
        assert not out.exists()


class TestForwardPipeline:
    def test_vacuum_forward(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BASE)
        out = tmp_path / "out"
        manifest = run("forward", cfg, out_dir=str(out), seed=3)
        assert_manifest_complete(out)
        assert set(manifest["artifacts"]) == {"total_field.fld",
                                              "scattered_field.fld",
                                              "forward_summary.json"}
        scattered, _, kind = read_field(out / "scattered_field.fld")
        assert kind == "scattered-electric"
        assert np.max(np.abs(scattered)) < 1e-12
        assert verify_manifest(out)
        summary = json.loads((out / "forward_summary.json").read_text())
        assert summary["residual"] < 1e-10

    def test_bump_forward_on_box(self, tmp_path):
        # the bump is solved on its box; the fields are written on the whole
        # grid, the box part as solved, and the summary records the box
        cfg = write_config(tmp_path / "c.ini",
                           BASE.replace("n = 12", "n = 16") + BUMP)
        out = tmp_path / "out"
        run("forward", cfg, out_dir=str(out))
        summary = json.loads((out / "forward_summary.json").read_text())
        assert summary["box_shape"] != [16, 16, 16]
        box = tuple(slice(lo, lo + size) for lo, size
                    in zip(summary["box_lo"], summary["box_shape"]))
        total, grid, _ = read_field(out / "total_field.fld")
        scattered, _, _ = read_field(out / "scattered_field.fld")
        assert total.shape == scattered.shape == (16, 16, 16, 3)
        solver = ScatteringSolver(cli.build_medium(load_config(cfg), 0), 1.0)
        assert solver.box == box
        wave = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                         1.0)
        assert np.array_equal(total[box], solver.solve(wave))
        assert np.allclose(total - scattered, wave.electric(grid.points()),
                           rtol=0.0, atol=1e-14)
        outside = np.ones((16,) * 3, dtype=bool)
        outside[box] = False
        assert np.max(np.abs(scattered[outside])) > 0.0

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
        assert_manifest_complete(out)
        summary = json.loads((out / "nearfield_summary.json").read_text())
        assert summary["norm"] > 0
        assert summary["box_lo"] == [0, 0, 1]
        assert summary["box_shape"] == [12, 12, 11]
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
        assert_manifest_complete(out)
        summary = json.loads((out / "farfield_summary.json").read_text())
        assert summary["norm"] > 0


class TestCgoPipeline:
    def test_cgo_run(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.ini", BASE + BUMP + """
[cgo]
gamma = 1,0,0
t = 25.0
m_grid = 24
""")
        solutions = []

        def recorded(*args, _solve=cli.cgo_solve, **kwargs):
            solutions.append(_solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "cgo_solve", recorded)
        out = tmp_path / "out"
        run("cgo", cfg, out_dir=str(out))
        assert_manifest_complete(out)
        summary = json.loads((out / "cgo_summary.json").read_text())
        assert summary["residual"] < 1e-2
        assert summary["contraction"] < 1.0
        (sol,) = solutions
        assert summary["iterations"] == len(sol.contraction) + 1
        # zeta is written in the rotated frame, with the rotation that
        # brings it back to the medium's frame
        assert summary["t"] == 25.0 and summary["frame"] == "rotated"
        zeta = np.array(summary["zeta_re"]) + 1j * np.array(summary["zeta_im"])
        want = cgo_vectors((1.0, 0.0, 0.0), 25.0, 1.0).zeta1
        rot = np.array(summary["rotation"])
        assert np.max(np.abs(rot.T @ zeta - want)) <= 1e-12
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
        assert_manifest_complete(out)
        summary = json.loads((out / "vsc_summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["A"] >= 0.0
        with open(out / "vsc_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + 2 members

    @pytest.mark.parametrize("profile", ["bandlimited", "bumpp"])
    def test_vsc_check_rejects_profile(self, tmp_path, capsys, profile):
        cfg = write_config(tmp_path / "c.ini", BASE + f"""
[medium]
profile = {profile}

[vsc]
members = 2
""")
        out = tmp_path / "o"
        assert main(["vsc-check", "--config", cfg, "--out", str(out)]) == 2
        assert f"{profile!r}" in capsys.readouterr().err
        assert not (out / "vsc_summary.json").exists()


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
        assert_manifest_complete(out)
        summary = json.loads((out / "invert_summary.json").read_text())
        assert summary["misfit"] >= 0
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
        assert_manifest_complete(out)
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
        assert_manifest_complete(out)
        summary = json.loads((out / "near2far_summary.json").read_text())
        assert summary["relative_error"] == 0.0
        assert summary["direct_norm"] == 0.0
        assert (out / "far_coeffs.alf").exists()
