"""End-to-end exercises of the command-line front end.

Everything goes through ``main(argv)`` so the exit-code contract is
tested exactly as a shell would see it: 0 success, 1 numerical
failure, 2 usage or config error.  File outputs land in tmp_path.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import block_matrix_oracle, pass_boundary_rows

from ptjc import cli, floattext, kernels, pseudo
from ptjc.cli import (_COMPARE, _EVOLVE, _MODULATION, _PSEUDO, EVOLVE_BYTES_MAX, MAX_INT,
                      REQUIRED, ConfigError, _parse_doc, main)
from ptjc.dynamics import Frame, read_trajectory_csv
from ptjc.equivalence import SERIES_BYTES_MAX
from ptjc.fockspace import MAX_BOSON_LEVELS

PRINCIPAL_ROOT = -2.139543213285525 + 1.4202888362948998j
ROOT_TOL = 1e-10


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def canonical_json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.fixture
def no_integration(monkeypatch):
    """Fail the test if any RK4 integration is started: every path builds step matrices."""
    def refuse(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(kernels, "_step_propagators", refuse)


class TestSolveBeta:
    def test_atom_gauge_matches_root(self, tmp_path, capsys):
        out = tmp_path / "beta.json"
        code = main(["solve-beta", "--target", "atom", "--omega0", "2.0",
                     "--big-omega", "1.0", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out.startswith("beta = ")
        payload = json.loads(out.read_text())
        assert set(payload) == {"beta", "condition_argument", "residual",
                                "target", "convention", "generated_by"}
        beta = complex(*payload["beta"])
        assert abs(beta - (-PRINCIPAL_ROOT)) <= ROOT_TOL
        assert abs(complex(*payload["condition_argument"]) - PRINCIPAL_ROOT) <= ROOT_TOL
        assert payload["residual"] <= 1e-10
        assert payload["target"] == "atom"
        assert payload["generated_by"] == "ptjc 0.1.0"

    def test_cavity_gauge_scales_with_n(self, tmp_path):
        out = tmp_path / "beta.json"
        code = main(["solve-beta", "--target", "cavity", "--n", "4",
                     "--big-omega", "1.0", "--output", str(out)])
        assert code == 0
        beta = complex(*json.loads(out.read_text())["beta"])
        assert abs(beta - (-PRINCIPAL_ROOT / 4.0)) <= ROOT_TOL

    def test_splitting_convention(self, tmp_path):
        out = tmp_path / "beta.json"
        code = main(["solve-beta", "--target", "atom", "--big-omega", "1.0",
                     "--convention", "splitting", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["convention"] == "splitting"
        beta = complex(*payload["beta"])
        assert abs(beta - (-PRINCIPAL_ROOT)) <= ROOT_TOL

    def test_output_is_canonical_json(self, tmp_path):
        out = tmp_path / "beta.json"
        main(["solve-beta", "--target", "atom", "--big-omega", "2.0",
              "--output", str(out)])
        text = out.read_text()
        assert text == canonical_json_text(json.loads(text))

    def test_repeat_runs_identical(self, tmp_path):
        args = ["solve-beta", "--target", "cavity", "--big-omega", "3.0"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(args + ["--output", str(out1)])
        main(args + ["--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_required_argument(self):
        assert main(["solve-beta", "--target", "atom"]) == 2

    def test_coupling_flag_is_gone(self, capsys):
        # beta depends on omega0, omega, n and big_omega only; the flag reached no output
        assert main(["solve-beta", "--target", "atom", "--big-omega", "1.0",
                     "--coupling", "0.05"]) == 2
        assert "unrecognized arguments: --coupling" in capsys.readouterr().err

    def test_bad_drive_frequency(self):
        code = main(["solve-beta", "--target", "atom", "--big-omega", "0.0"])
        assert code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--big-omega", "nan"], "big_omega must be positive and finite, got nan"),
        (["--big-omega", "1e300", "--omega0", "1e-300"],
         "leaves float64: the ratio big_omega / omega0 = 1e+300 / 1e-300 is too large"),
    ])
    def test_non_finite_beta_refused(self, capsys, flags, named):
        assert main(["solve-beta", "--target", "atom", *flags]) == 2
        err = capsys.readouterr().err
        assert named in err and "bessel_j0" not in err

    @pytest.mark.parametrize("target, big_omega, limit", [
        ("atom", "1e-320", "4.332e-309"),
        ("cavity", "1e-310", "8.664e-309"),
    ])
    def test_subnormal_beta_refused(self, capsys, target, big_omega, limit):
        assert main(["solve-beta", "--target", target, "--big-omega", big_omega]) == 2
        err = capsys.readouterr().err
        assert (f"below the smallest normal float64, 2.2250738585072014e-308, in magnitude: "
                f"big_omega = {big_omega} must be at least about {limit}") in err
        assert "residual" not in err

    @pytest.mark.parametrize("argv", [
        # omega beta / Omega from one-digit subnormals once missed J0 = i by 0.17 (exit 1)
        ["solve-beta", "--target", "cavity", "--omega", "5e-324", "--big-omega", "1e-323"],
        ["solve-beta", "--target", "atom", "--omega0", "1e-310", "--big-omega", "1.0"],
        ["spectrum", "--omega0", "1e308", "--omega", "1e-308"],
    ], ids=["cavity-omega", "atom-omega0", "spectrum-omega"])
    def test_subnormal_frequency_refused(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "at least the smallest normal float64, 2.2250738585072014e-308" in err
        assert "residual" not in err

    @pytest.mark.parametrize("target, big_omega", [("atom", 4.34e-309), ("cavity", 8.67e-309)])
    def test_just_above_the_subnormal_limit(self, tmp_path, target, big_omega):
        out = tmp_path / "beta.json"
        assert main(["solve-beta", "--target", target, "--big-omega", repr(big_omega),
                     "--output", str(out)]) == 0
        assert abs(complex(*json.loads(out.read_text())["beta"])) >= sys.float_info.min


class TestSpectrum:
    def test_imaginary_coupling_broken_pair(self, capsys):
        code = main(["spectrum", "--omega0", "1.0", "--omega", "1.0",
                     "--g-imag", "0.1", "--n", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(complex(*payload["e_plus"]) - (0.5 + 0.1j)) <= 1e-12
        assert abs(complex(*payload["e_minus"]) - (0.5 - 0.1j)) <= 1e-12
        assert payload["pt_phase"] == "broken"
        assert payload["pt_discriminant"] == pytest.approx(-0.04, abs=1e-12)

    def test_exceptional_point(self, capsys):
        code = main(["spectrum", "--omega0", "1.2", "--omega", "1.0",
                     "--g-imag", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pt_phase"] == "exceptional_point"

    def test_phase_at_small_energies(self, capsys):
        # E+- = 5.0e-7 and 1.5e-6 are real and distinct; an absolute window read
        # this block as an exceptional point
        assert main(["spectrum", "--omega0", "1e-6", "--omega", "2e-6",
                     "--g-imag", "1e-9", "--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["pt_phase"] == "unbroken"

    def test_real_coupling_has_no_pt_fields(self, capsys):
        code = main(["spectrum", "--omega0", "1.0", "--omega", "0.9",
                     "--g-real", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pt_phase"] is None
        assert payload["pt_discriminant"] is None
        assert payload["detuning"] == pytest.approx(0.1, abs=1e-15)
        assert complex(*payload["e_plus"]).imag == 0.0

    def test_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "spectrum.json"
        main(["spectrum", "--omega0", "1.0", "--omega", "1.0",
              "--g-imag", "0.05", "--output", str(out)])
        printed = capsys.readouterr().out
        assert out.read_text() == printed

    def test_invalid_frequency(self):
        assert main(["spectrum", "--omega0", "0.0", "--omega", "1.0"]) == 2

    @pytest.mark.parametrize("flags, quantity", [
        (["--omega0", "1", "--omega", "1", "--g-real", "1e200"], "Delta"),
        (["--omega0", "1e308", "--omega", "1e-300"], "Delta"),
        (["--omega0", "1e300", "--omega", "1e300", "--g-real", "0.1", "--n", "10000000000"],
         "E+-"),
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflow_names_the_quantity(self, tmp_path, capsys, flags, quantity, to_file):
        # once printed as Infinity/NaN with exit 0 (exit 1 with --output)
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", *flags] + (["--output", str(out)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument error: {quantity} = " in captured.err
        assert "leaves float64" in captured.err
        assert not out.exists()


class TestEvolve:
    def gauged_doc(self):
        return {
            "omega0": 1.0, "omega": 1.0, "coupling": 0.05, "n": 1,
            "modulation": {"target": "atom", "beta": "condition",
                           "big_omega": 5.0},
            "rhs": "gauged",
            "initial_c": [0.0, 0.0], "initial_d": 1.0,
            "t1": 2.0, "step": 0.01,
            "frames": ["gauged", "lab"],
        }

    def test_writes_one_csv_per_frame(self, tmp_path):
        cfg = write_config(tmp_path, self.gauged_doc())
        outdir = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 0
        gauged = read_trajectory_csv(str(outdir / "trajectory_gauged.csv"))
        lab = read_trajectory_csv(str(outdir / "trajectory_lab.csv"))
        assert len(gauged) == 201
        assert gauged.times[-1] == 2.0
        assert gauged.frame is Frame.GAUGED
        assert lab.frame is Frame.LAB
        # same sample grid in every emitted frame; the amplitudes
        # differ by the frame factors (non-unimodular for complex beta)
        assert np.array_equal(lab.times, gauged.times)
        assert np.isfinite(lab.c).all() and np.isfinite(lab.d).all()

    def test_static_defaults_to_interaction_frame(self, tmp_path):
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": [0.0, 0.1], "n": 2,
               "rhs": "static", "initial_c": 1.0, "initial_d": 0.0,
               "t1": 1.0, "step": 0.05}
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 0
        traj = read_trajectory_csv(str(outdir / "trajectory_interaction.csv"))
        assert traj.frame is Frame.INTERACTION
        assert traj.n == 2
        assert len(traj) == 21

    def test_missing_key(self, tmp_path):
        doc = self.gauged_doc()
        del doc["t1"]
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    def test_unknown_key(self, tmp_path):
        doc = self.gauged_doc()
        doc["bogus"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    def test_unknown_rhs(self, tmp_path):
        doc = self.gauged_doc()
        doc["rhs"] = "magic"
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    def test_driven_rhs_requires_modulation(self, tmp_path):
        doc = self.gauged_doc()
        del doc["modulation"]
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    def test_lab_rhs_rejects_complex_coupling(self, tmp_path):
        doc = self.gauged_doc()
        doc["rhs"] = "lab"
        doc["coupling"] = [0.0, 0.05]
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("beta", ["condition", 0.5])
    def test_infinite_drive_frequency(self, tmp_path, capsys, beta):
        doc = self.gauged_doc()
        doc["modulation"].update(beta=beta, big_omega=12345.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace("12345.0", "1e400"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "big_omega must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("t1", -1.0, "t1 must be positive"), ("t1", math.nan, "t1 must be positive"),
        ("step", 0.0, "step must be positive and finite")])
    def test_bad_time_grid_exits_two(self, tmp_path, capsys, no_integration, key, value,
                                     message):
        doc = self.gauged_doc()
        doc[key] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rhs", ["lab", "static", "averaged"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_block_index_below_one_exits_two(self, tmp_path, capsys, no_integration, rhs, n):
        doc = self.gauged_doc()
        doc.update(rhs=rhs, n=n, frames=["lab"])
        doc["modulation"]["beta"] = 0.3
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(out)]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_initial_amplitude_exits_two(self, tmp_path, capsys, no_integration):
        doc = self.gauged_doc()
        doc["initial_c"] = 12345.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace("12345.0", "1e400"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--output-dir", str(out)]) == 2
        assert "initial amplitudes must be finite, got c0 = (inf+0j)" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_condition_beta_refused(self, tmp_path, capsys):
        doc = self.gauged_doc()
        doc["modulation"]["big_omega"] = 1e-320
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(out)]) == 2
        assert "big_omega = 1e-320 must be at least about 4.332e-309" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_frame(self, tmp_path):
        doc = self.gauged_doc()
        doc["frames"] = ["rotating-wave"]
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", ["unknown_frame", "gauged_without_modulation"])
    def test_frames_checked_before_integration(self, tmp_path, capsys, no_integration, case):
        doc = self.gauged_doc()
        if case == "unknown_frame":
            doc["frames"] = ["gauged", "bogus"]
        else:
            del doc["modulation"]
            doc.update(rhs="static", frames=["interaction", "gauged"])
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 2
        assert "frame" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_repeated_frame_exits_two_before_integration(self, tmp_path, capsys,
                                                         no_integration):
        # two handles on one path would interleave their rows in the lockstep writer
        doc = self.gauged_doc()
        doc["frames"] = ["interaction", "lab", "interaction"]
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 2
        assert "frame 'interaction' is listed twice" in capsys.readouterr().err
        assert not outdir.exists()

    def test_failed_frame_map_writes_nothing(self, tmp_path, capsys):
        # |exp(i gamma sin t)| = exp(1000 |sin t|) leaves float64 past t = pi,
        # in the second frame; the first frame's CSV must not be written
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": 0.05, "n": 1,
               "rhs": "static",
               "modulation": {"target": "atom", "beta": [0.0, 2000.0],
                              "big_omega": 1.0},
               "initial_c": 1.0, "initial_d": 0.0, "t1": 6.0, "step": 0.01,
               "frames": ["interaction", "gauged"]}
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 2
        assert "leaves float64" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    def test_step_past_rk4_stability_refused(self, tmp_path, capsys, no_integration):
        # gauged atom diagonal a22 = i (omega0 beta / 2) cos(Omega t): the step
        # 0.0031416, about 2 pi / (400 Omega), gives h max|Im a22| = 3.1416 > 2 sqrt(2);
        # integrated anyway, |c| reached 2.1e210 by t = 39.7 for real beta
        doc = self.gauged_doc()
        doc["modulation"]["beta"] = 2000.0
        doc["t1"], doc["step"] = 40.0, 0.0031416
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        assert "rate, 3.1416, exceeds" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_default_step_resolves_the_diagonal(self, tmp_path):
        # n = 1000: the lab diagonal turns at 999.55, past Omega = 5; a step of the
        # drive period over 400 gave h rate = 3.14 and exit 2
        doc = self.gauged_doc()
        doc.update(rhs="lab", n=1000, t1=0.1, frames=["lab"])
        doc["modulation"]["beta"] = 0.1
        del doc["step"]
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        traj = read_trajectory_csv(tmp_path / "trajectory_lab.csv")
        step = traj.times[1] - traj.times[0]
        assert step == pytest.approx(2.0 * math.pi / 999.55 / 400.0)
        assert len(traj) == math.ceil(0.1 / step) + 1
        norms = np.abs(traj.c) ** 2 + np.abs(traj.d) ** 2  # Hermitian: only RK4 drift
        assert np.abs(norms - 1.0).max() <= 1e-8

    def test_detuned_frames_format_eleven_columns(self, tmp_path, monkeypatch):
        # evolve-detuned's shape: t, then c of each frame, the lab d and the d that the
        # gauged and interaction frames share; unshared, d would be formatted twice
        widths = []
        float_text = floattext.float_text
        monkeypatch.setattr(floattext, "float_text",
                            lambda values: widths.append(values.shape[1]) or float_text(values))
        doc = self.gauged_doc()
        doc.update(omega0=1.02, frames=["gauged", "interaction", "lab"])
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        assert widths and set(widths) == {11}

    @pytest.mark.parametrize("key, value", [("omega0", "1.0"), ("omega", True),
                                            ("t1", None), ("step", [0.01]),
                                            ("big_omega", True)])
    def test_real_key_rejected(self, tmp_path, capsys, no_integration, key, value):
        doc = self.gauged_doc()
        if key == "big_omega":
            doc["modulation"][key], name = value, "modulation.big_omega"
        else:
            doc[key], name = value, f"evolve.{key}"
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["evolve", "--config", str(path),
                     "--output-dir", str(tmp_path)]) == 2

    def test_non_integer_n(self, tmp_path):
        doc = self.gauged_doc()
        doc["n"] = 1.7
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        doc["n"] = True
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    def test_integral_n(self, tmp_path):
        doc = self.gauged_doc()
        doc["n"] = 2
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / "a")]) == 0
        doc["n"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "trajectory_gauged.csv").read_bytes()
                == (tmp_path / "b" / "trajectory_gauged.csv").read_bytes())

    @pytest.mark.parametrize("t1, step, message", [
        # two frames take 40 + 2 x 32 bytes a sample: one sample past the budget
        (5162220 / 1024, 1 / 1024, f"5162221 samples in 2 frame(s) take 536870984 bytes, "
                                   f"past the budget of {EVOLVE_BYTES_MAX} bytes"),
        (1e12, 1e-3, "1000000000000001 samples in 2 frame(s)"),
        (2.0, 1e-320, "2 / 9.99989e-321 is not a finite number of RK4 steps")])
    def test_sample_budget(self, tmp_path, capsys, no_integration, t1, step, message):
        doc = self.gauged_doc()
        doc["t1"], doc["step"] = t1, step
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--output-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_static_run_past_the_byte_budget_exits_fast(self, tmp_path, capsys):
        # 2e7 steps of one frame, 1.44 GB: under a 1 GiB address-space limit the run
        # integrated for 9 s and then died of an uncaught MemoryError
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": 0.05, "n": 1, "rhs": "static",
               "initial_c": 1.0, "initial_d": 0.0, "t1": 2e5, "step": 0.01}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["evolve", "--config", cfg, "--output-dir", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert (f"20000001 samples in 1 frame(s) take 1440000072 bytes, past the budget of "
                f"{EVOLVE_BYTES_MAX} bytes") in capsys.readouterr().err
        assert not out.exists()

    def test_step_not_dividing_t1_ends_at_the_first_step_past_it(self, tmp_path):
        # t1 / step = 63.66: 64 whole steps, the last at 2.0106176, none shortened
        step = 0.0314159
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": 0.05, "n": 1, "rhs": "static",
               "initial_c": 1.0, "initial_d": 0.0, "t1": 2.0, "step": step}
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        traj = read_trajectory_csv(tmp_path / "trajectory_interaction.csv")
        assert len(traj) == math.ceil(2.0 / step - 1e-9) + 1 == 65
        assert traj.times.tolist() == (step * np.arange(65)).tolist()
        assert traj.times[-2] < 2.0 <= traj.times[-1]

    def test_static_rhs_keeps_the_detuning(self, tmp_path):
        # omega0 - omega = 0.2 against kappa = 0.05: the exact lab propagator ends at
        # |c|, |d| = 0.9361, 0.3518, where a static rhs without its frame's
        # exp(+-i delta t) made a full resonant Rabi flop, 0.5403, 0.8415
        doc = {"omega0": 1.2, "omega": 1.0, "coupling": 0.05, "n": 1, "rhs": "static",
               "initial_c": [1, 0], "initial_d": [0, 0], "t1": 20, "step": 0.01,
               "frames": ["lab"]}
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        traj = read_trajectory_csv(tmp_path / "trajectory_lab.csv")
        energies, vecs = np.linalg.eigh(block_matrix_oracle(1.2, 1.0, 0.05, 1).real)
        c, d = vecs @ (np.exp(-1j * energies * traj.times[-1]) * vecs[0])  # from (1, 0)
        assert abs(traj.c[-1] - c) <= 1e-12 and abs(traj.d[-1] - d) <= 1e-12
        assert (round(abs(c), 4), round(abs(d), 4)) == (0.9361, 0.3518)

    def test_static_rhs_in_the_pt_unbroken_phase_stays_bounded(self, tmp_path, capsys):
        # imaginary coupling 0.05 at detuning 0.3 is PT-unbroken: |c|^2 + |d|^2
        # oscillates up to 1.25; the resonant block it was integrated as is broken
        # and grew it to 11,013 by t = 100
        assert main(["spectrum", "--omega0", "1.3", "--omega", "1", "--g-imag", "0.05",
                     "--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["pt_phase"] == "unbroken"
        doc = {"omega0": 1.3, "omega": 1.0, "coupling": [0, 0.05], "n": 1, "rhs": "static",
               "initial_c": [1, 0], "initial_d": [0, 0], "t1": 100, "step": 0.01}
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        traj = read_trajectory_csv(tmp_path / "trajectory_interaction.csv")
        norms = np.abs(traj.c) ** 2 + np.abs(traj.d) ** 2
        assert 1.2 < norms.max() <= 1.25 * (1.0 + 1e-9)

    @pytest.mark.filterwarnings("error")
    def test_averaged_coupling_past_bessel_domain(self, tmp_path, capsys):
        # J0 argument z = omega0 beta / Omega = 1800i, past |Im z| <= 690
        doc = self.gauged_doc()
        doc["rhs"] = "averaged"
        doc["modulation"].update(beta=[0.0, 1800.0], big_omega=1.0)
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert "limit |Im z| <= 690" in capsys.readouterr().err

    def test_lab_rhs_partial_period(self, tmp_path):
        # 2 pi / 5 is 40 steps of 0.01 pi; t1 = 2 lies 23.66 steps into the second
        # period, so the run ends 24 steps into it, at 2.0106
        doc = self.gauged_doc()
        doc.update(rhs="lab", frames=["lab"], step=0.01 * math.pi)
        doc["modulation"]["beta"] = 0.3
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        traj = read_trajectory_csv(tmp_path / "trajectory_lab.csv")
        assert traj.times[-1] == 64 * (0.01 * math.pi) and len(traj) == 64 + 1
        # the lab block is Hermitian: the norm drifts only by RK4 truncation
        norms = np.abs(traj.c) ** 2 + np.abs(traj.d) ** 2
        assert np.abs(norms - 1.0).max() <= 1e-8

    @pytest.mark.filterwarnings("error")
    def test_numerical_blowup_exits_one(self, tmp_path):
        # coupling 100i grows the static block like e^{100 t}: the step is stable
        # (h |kappa| = 1), and the amplitudes still leave float64 near t = 7.1
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": [0.0, 100.0], "n": 1,
               "rhs": "static", "initial_c": 1.0, "initial_d": 0.0,
               "t1": 10.0, "step": 0.01}
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 1

    def test_coupling_past_rk4_stability_refused(self, tmp_path, capsys, no_integration):
        # a12 a21 = -kappa^2 at every t, so the static block, with no diagonal, still
        # needs h |kappa| <= 2 sqrt(2); here it is 5.  Integrated anyway, |c|^2 + |d|^2
        # reached 3.9e106 by t = 2
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": 100.0, "n": 1, "rhs": "static",
               "initial_c": 1.0, "initial_d": 0.0, "t1": 2.0, "step": 0.05}
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "|kappa|, 5, plus the step times the largest diagonal rate, 0, exceeds" in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_csv_is_an_io_failure(self, tmp_path, capsys):
        doc = {"omega0": 1.0, "omega": 1.0, "coupling": 0.05, "n": 1, "rhs": "static",
               "initial_c": 1.0, "initial_d": 0.0, "t1": 1.0, "step": 0.05}
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        (outdir / "trajectory_interaction.csv").mkdir(parents=True)
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o failure: ") and "trajectory_interaction.csv" in err

    def test_unwritable_last_frame_csv_is_an_io_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(self.gauged_doc(),
                                          frames=["gauged", "interaction", "lab"]))
        outdir = tmp_path / "out"
        (outdir / "trajectory_lab.csv").mkdir(parents=True)
        assert main(["evolve", "--config", cfg, "--output-dir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o failure: ") and "trajectory_lab.csv" in err
        # every file opens before any row is written
        for frame in ("gauged", "interaction"):
            text = (outdir / f"trajectory_{frame}.csv").read_text(encoding="utf-8")
            assert text == "t,re_c,im_c,re_d,im_d,frame,n\n"

    def test_unwritable_output_dir_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, self.gauged_doc())
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert main(["evolve", "--config", cfg,
                     "--output-dir", str(blocker / "sub")]) == 1


class TestCompare:
    def small_doc(self):
        return {"omega_ratio": 50.0, "step_per_period": 100}

    def test_single_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.small_doc())
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "report.json").read_text())
        assert set(payload) == {"beta", "max_rel_err", "rms_err",
                                "max_rel_err_c", "max_rel_err_d",
                                "convention", "measure", "generated_by"}
        assert payload["convention"] == "splitting"
        assert payload["measure"] == "slow"
        assert payload["max_rel_err"] > 0.0
        lines = (outdir / "comparison.csv").read_text().splitlines()
        assert lines[0] == ("t,re_c_avg,im_c_avg,re_d_avg,im_d_avg,"
                            "re_c_ref,im_c_ref,re_d_ref,im_d_ref")
        assert len(lines) > 100
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_headline_defaults(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["compare", "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "report.json").read_text())
        # the bound of acceptance criterion 5 (measured 0.0009)
        assert payload["max_rel_err"] <= 0.05

    def test_sweep_mode(self, tmp_path):
        doc = {"ratios": [25.0, 50.0], "step_per_period": 100}
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "report.json").read_text())
        assert [entry["omega_ratio"] for entry in payload["sweep"]] == [25.0, 50.0]
        assert all(entry["max_rel_err"] > 0 for entry in payload["sweep"])
        lines = (outdir / "comparison.csv").read_text().splitlines()
        assert lines[0] == "omega_ratio,max_rel_err"
        assert len(lines) == 3

    @pytest.mark.parametrize("rows", pass_boundary_rows(2))
    def test_sweep_csv_bytes_at_pass_boundaries(self, tmp_path, monkeypatch, rows):
        # the sweep itself is stubbed: only the two-column comparison.csv is under test
        errs = np.random.default_rng(rows).standard_normal(rows).tolist()
        errs[:3] = [-0.0, 5e-324, 0.1 + 0.2]
        curve = [(25.0 * (i + 1), e) for i, e in enumerate(errs)]
        monkeypatch.setattr(cli, "convergence_sweep", lambda *args, **kwargs: curve)
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, {"ratios": [25.0, 50.0]})
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 0
        want = "omega_ratio,max_rel_err\n" + "".join(f"{r!r},{e!r}\n" for r, e in curve)
        assert "25.0,-0.0\n" in want
        assert (outdir / "comparison.csv").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("doc", [None, {"ratios": [25.0, 50.0, 100.0]}])
    def test_no_per_sample_trajectory(self, tmp_path, monkeypatch, doc):
        # headline and sweep runs work from the one-period factors alone
        def refuse(*args):
            raise AssertionError("per-sample trajectory built")

        monkeypatch.setattr(kernels, "rk4_linear", refuse)
        argv = ["compare", "--output-dir", str(tmp_path / "out")]
        if doc is not None:
            argv += ["--config", write_config(tmp_path, doc)]
        assert main(argv) == 0

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.small_doc())
        dir1, dir2 = tmp_path / "r1", tmp_path / "r2"
        main(["compare", "--config", cfg, "--output-dir", str(dir1)])
        main(["compare", "--config", cfg, "--output-dir", str(dir2)])
        for name in ("report.json", "comparison.csv"):
            assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()

    @pytest.mark.parametrize("key", ["bogus", "periods"])
    def test_unknown_key(self, tmp_path, capsys, no_integration, key):
        # the window is one drive period with no key of its own
        cfg = write_config(tmp_path, {key: 1})
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert f"unknown keys [{key!r}]" in capsys.readouterr().err

    def test_bad_ratios_value(self, tmp_path):
        cfg = write_config(tmp_path, {"ratios": "fast"})
        assert main(["compare", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2

    def test_non_increasing_ratios(self, tmp_path):
        cfg = write_config(tmp_path, {"ratios": [50.0, 25.0],
                                      "step_per_period": 100})
        assert main(["compare", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2

    def test_odd_step_per_period_refused(self, tmp_path, capsys, no_integration):
        cfg = write_config(tmp_path, {"step_per_period": 401})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "step_per_period must be even" in err and "got 401" in err
        assert not outdir.exists()

    def test_sample_budget(self, tmp_path, capsys, no_integration):
        # 1.3e17 steps: the byte budget alone bounds the count
        cfg = write_config(tmp_path, {"omega_ratio": 1e15})
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert f"past the budget of {SERIES_BYTES_MAX} bytes" in capsys.readouterr().err

    def test_series_byte_budget(self, tmp_path, capsys, no_integration):
        # ratio 400000 asks for 5.1e7 steps, and its 127,324 periods
        # of 400 steps take 1.6 GB per complex series (once an uncaught MemoryError)
        cfg = write_config(tmp_path, {"omega_ratio": 400000})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        assert ("127324 periods of 400 steps take 1629747200 bytes per complex series, "
                f"past the budget of {SERIES_BYTES_MAX} bytes") in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error")
    def test_kick_past_bessel_domain(self, tmp_path, capsys, no_integration):
        # relative-phase amplitude omega0 beta / Omega = 800i at ratio 100
        cfg = write_config(tmp_path, {"beta": [0.0, 4000.0]})
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert "limit |Im z| <= 690" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_report_refused(self, tmp_path, capsys):
        # the driven envelopes grow to about 1e186 times the reference,
        # so the squared errors overflow and rms_err is infinite
        cfg = write_config(tmp_path, {"beta": [0.0, 60.0]})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 1
        assert "report.json" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("imag", [500.0, 3000.0])
    def test_complex_beta_overflow_names_the_limit(self, tmp_path, capsys, monkeypatch, imag):
        # |Im z| = Im beta / 5 at the defaults; the amplitudes grow about
        # exp(2 |Im z|)-fold a drive period, so a period-boundary state
        # leaves float64 before any per-sample array is built
        boundary = []
        factors = kernels.rk4_period_factors

        def spy(*args):
            try:
                return factors(*args)
            except FloatingPointError as exc:
                boundary.append(exc.args[0])
                raise

        monkeypatch.setattr(kernels, "rk4_period_factors", spy)
        cfg = write_config(tmp_path, {"beta": [0.0, imag]})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert f"|Im z| = {imag / 5.0:g}" in err and "float64 limit 1.798e+308" in err
        assert boundary and boundary[0] % 400 == 0
        assert not outdir.exists()

    def test_envelope_overflow_names_its_exponent(self, tmp_path, capsys):
        # over 800 Rabi units the i g envelope, exp(|Im(kappa J0(z))| t), passes
        # ln(1.798e308) = 709.78 at ratio 100, while exp(2 |Im z|) is 17 a period
        cfg = write_config(tmp_path, {"duration_rabi_units": 800, "ratios": [100, 20000]})
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "non-finite amplitudes at t = 14213.8" in err and "= exp(709.78)" in err
        assert "|Im z| = 1.42029" in err and "exp(2 |Im z|) = exp(2.841)-fold" in err
        assert "exp(|Im(kappa J0(z))| t) = exp(710.7)-fold by t = 14213.8" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("imag, code", [(50.0, 2), (40.0, 1), (35.0, 0)])
    def test_window_rows_past_float64(self, tmp_path, capsys, imag, code):
        # at ratio 5, |Im z| = 4 Im beta; the window rows carry one more
        # period's growth than the states.  At 50 they leave float64 and the
        # limit is named; at 40 they stay finite but rms_err is inf (the
        # payload is refused); at 35 the run completes (max_rel_err 1.38e144)
        cfg = write_config(tmp_path, {"omega_ratio": 5.0, "beta": [0.0, imag]})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "non-finite window rows" in err and "|Im z| = 200" in err
            assert "float64 limit 1.798e+308" in err
        if code == 0:
            assert 1e144 < json.loads((outdir / "report.json").read_text())["max_rel_err"]
        else:
            assert not (outdir / "report.json").exists()

    def test_moderate_complex_beta_runs(self, tmp_path):
        cfg = write_config(tmp_path, {"beta": [0.0, 30.0]})
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("doc, rate", [
        ({"beta": 2000.0}, 2000.0 * math.pi / 2000.0),
        ({"beta": 3000.0}, 3000.0 * math.pi / 2000.0),
        ({"beta": 5000.0}, 5000.0 * math.pi / 2000.0),
        ({"beta": 3000.0, "target": "cavity", "n": 2}, math.pi * 3000.0 / (400 * 5.0 * 2 ** 0.5)),
    ])
    def test_real_beta_past_rk4_stability_refused(self, tmp_path, capsys, no_integration,
                                                  doc, rate):
        # with the phase z sin(Omega t) split evenly over c and d the
        # diagonal gives pi |Re z| / 400, z = omega0 beta / Omega (atom:
        # past RK4's imaginary-axis limit 2 sqrt(2) from beta = 1800.6 at
        # the defaults) or -omega beta / Omega (cavity, for every n)
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{rate:.6g}" in err and "2 sqrt(2) = 2.82843" in err

    def test_real_beta_under_rk4_limit_runs(self, tmp_path):
        # pi |Re z| / 400 = 2.36 is stable but far from accurate: the
        # averages miss the reference by nearly 100 percent (measured 0.981)
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, {"beta": 1500.0})
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "report.json").read_text())
        assert 0.95 < payload["max_rel_err"] <= 1.0

    @pytest.mark.parametrize("text, shown", [("1e400", "(inf+0j)"), ("NaN", "(nan+0j)"),
                                             ("[0, NaN]", "nanj")])
    def test_non_finite_beta_named(self, tmp_path, capsys, no_integration, text, shown):
        path = tmp_path / "config.json"
        path.write_text(f'{{"beta": {text}}}', encoding="utf-8")
        outdir = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--output-dir", str(outdir)]) == 2
        assert f"beta must be finite, got {shown}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("key", ["omega_ratio", "duration_rabi_units"])
    def test_non_finite_rejected(self, tmp_path, capsys, no_integration, key):
        path = tmp_path / "config.json"
        path.write_text(f'{{"{key}": 1e400}}', encoding="utf-8")
        assert main(["compare", "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, name", [
        ({"omega_ratio": [100]}, "compare.omega_ratio"),
        ({"omega0": "1.0"}, "compare.omega0"),
        ({"omega": None}, "compare.omega"),
        ({"duration_rabi_units": True}, "compare.duration_rabi_units"),
        ({"ratios": [100, True]}, "compare.ratios"),
        ({"ratios": ["100"]}, "compare.ratios"),
    ])
    def test_real_key_rejected(self, tmp_path, capsys, no_integration, doc, name):
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err

    def test_unknown_convention_with_beta(self, tmp_path, capsys, no_integration):
        # beta given: the convention solves nothing, but it is still checked
        cfg = write_config(tmp_path, {"beta": 0.0, "convention": "bogus"})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("doc", [{"beta": 0, "convention": "bogus"},
                                     {"ratios": [50.0, 25.0], "step_per_period": 100}],
                             ids=["convention", "ratio-order"])
    def test_refused_run_leaves_no_output_dir(self, tmp_path, no_integration, doc):
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        assert not outdir.exists()

    def test_sweep_refuses_beta(self, tmp_path, capsys, no_integration):
        # a sweep solves beta per ratio, so a given beta would be ignored
        cfg = write_config(tmp_path, {"ratios": [50.0, 100.0], "beta": 0})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "'ratios'" in err and "'beta'" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("doc, message", [
        # ratio 2 has 255 steps, under one 400-step window; ratio 100 would run
        ({"ratios": [2.0, 100.0]}, "duration too short for the averaging window"),
        # over 800 Rabi units the envelopes grow like e^{g t} past float64 at ratio
        # 100, and ratio 20000 asks for 1.0e9 steps: every ratio is checked before
        # the one batched integration, and ratio 100's error still comes first
        ({"duration_rabi_units": 800.0, "ratios": [100.0, 20000.0]},
         "non-finite amplitudes at t = 14213.8")])
    def test_sweep_reports_the_first_failing_ratio(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert message in err and "budget" not in err
        assert not outdir.exists()

    def test_sweep_csv_bytes_match_the_per_row_writer(self, tmp_path):
        cfg = write_config(tmp_path, {"ratios": [25.0, 50.0], "step_per_period": 100})
        outdir = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--output-dir", str(outdir)]) == 0
        sweep = json.loads((outdir / "report.json").read_text())["sweep"]
        text = "omega_ratio,max_rel_err\n" + "".join(
            f"{e['omega_ratio']!r},{e['max_rel_err']!r}\n" for e in sweep)
        assert (outdir / "comparison.csv").read_bytes() == text.encode("utf-8")

    def test_config_round_trip(self):
        doc = {"omega_ratio": 50.0, "step_per_period": 100,
               "beta": [0.1, -0.2], "measure": "slow"}
        parsed = _parse_doc(doc, "compare", _COMPARE)
        assert parsed["beta"] == 0.1 - 0.2j
        assert parsed["omega0"] == 1.0  # default applied
        assert parsed["coupling"] == 0.05 + 0j  # and parsed
        assert parsed["omega_ratio"] == 50.0 and parsed["step_per_period"] == 100


class TestPseudoCommand:
    def test_default_bundle(self, tmp_path):
        outdir = tmp_path / "out"
        assert main(["pseudo", "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "pseudo.json").read_text())
        assert payload["alpha"] == 0.5
        assert payload["boson_levels"] == 32
        assert len(payload["energies"]) == 57
        assert payload["energy_formula_max_dev"] <= 1e-12
        assert payload["gram_max_offdiag"] <= 1e-10
        assert payload["eigen_residual_max"] <= 1e-9
        assert payload["metric_residuals"]["identity_rel_max"] <= 1e-10
        assert 6e4 <= payload["cond2"] <= 7e4

    def test_eigen_residual_is_relative_at_large_energies(self, tmp_path):
        # divided by ||Phi-hat|| alone the residual kept H0's units and read 1.49e138 here
        cfg = write_config(tmp_path, {"omega": 4.2e152, "omega0": 4.2e152, "epsilon": 0.1})
        assert main(["pseudo", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pseudo.json").read_text())
        assert payload["eigen_residual_max"] <= 1e-12

    def test_repeat_runs_byte_identical(self, tmp_path):
        dir1, dir2 = tmp_path / "r1", tmp_path / "r2"
        main(["pseudo", "--output-dir", str(dir1)])
        main(["pseudo", "--output-dir", str(dir2)])
        assert ((dir1 / "pseudo.json").read_bytes()
                == (dir2 / "pseudo.json").read_bytes())

    def test_small_config(self, tmp_path):
        # 8 boson levels leave a 9-state safe budget
        cfg = write_config(tmp_path, {"boson_levels": 8, "alpha": 0.25,
                                      "count": 9})
        outdir = tmp_path / "out"
        assert main(["pseudo", "--config", cfg, "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "pseudo.json").read_text())
        assert payload["boson_levels"] == 8
        assert payload["alpha"] == 0.25
        assert len(payload["energies"]) == 9

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, {"nb": 8})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2

    def test_alpha_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, {"alpha": 3.0})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2

    def test_non_integer_boson_levels(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"boson_levels": 8.9})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2
        assert "pseudo.boson_levels" in capsys.readouterr().err

    def test_feasibility_boundary(self, tmp_path, capsys):
        # default 32 levels, spread(G) 22.15: residual 1.9e-11 at
        # alpha 0.6, 4.6e-10 at 0.75, against the 1e-10 tolerance
        cfg = write_config(tmp_path, {"alpha": 1.0})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        alpha_max = float(err.split("alpha_max(32) = ")[1].split()[0])
        assert 0.6 < alpha_max < 0.75
        for alpha in (0.6, alpha_max):
            cfg = write_config(tmp_path, {"alpha": alpha})
            assert main(["pseudo", "--config", cfg,
                         "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("key, value", [("alpha", [1]), ("alpha", "0.3"),
                                            ("alpha", True), ("omega0", None),
                                            ("omega", "1")])
    def test_real_key_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {key: value})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert f"pseudo.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_alpha_overflow(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"alpha": 1e6})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2
        assert "residual nan" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, runs", [
        # at 32 levels the largest H0 entry is |eps| sqrt(31) or
        # 31 omega + omega0 / 2, against sqrt(float64 max) = 1.341e154
        ({"epsilon": 2.4e153}, True),
        ({"epsilon": 2.5e153}, False),
        ({"omega": 4.2e152, "omega0": 4.2e152}, True),
        ({"omega": 4.3e152, "omega0": 4.3e152}, False),
    ])
    def test_h0_float64_range(self, tmp_path, capsys, monkeypatch, doc, runs):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        if runs:  # exit 0 means every payload number is finite
            assert main(["pseudo", "--config", cfg, "--output-dir", str(out)]) == 0
            return

        def refuse(*args, **kwargs):
            raise AssertionError("similarity built")

        monkeypatch.setattr(cli, "build_similarity", refuse)
        assert main(["pseudo", "--config", cfg, "--output-dir", str(out)]) == 2
        assert "sqrt(float64 max) = 1.341e+154" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_count(self, tmp_path):
        cfg = write_config(tmp_path, {"count": 0})
        assert main(["pseudo", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc", [{"alpha": 1.7e308}, {"alpha": 1e200, "boson_levels": 512}],
                             ids=["float64-max", "512-levels"])
    def test_overflowing_alpha_names_alpha_max_at_once(self, tmp_path, capsys, monkeypatch,
                                                       doc):
        # once exit 1 (floor of inf), or 660 halvings of alpha, each an S, S^-1 pair
        pairs = []
        inverse_pair = pseudo._inverse_pair

        def spy(*args):
            pairs.append(args[2])
            return inverse_pair(*args)

        monkeypatch.setattr(pseudo, "_inverse_pair", spy)
        cfg = write_config(tmp_path, doc)
        assert main(["pseudo", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "residual nan" in err and f"alpha_max({doc.get('boson_levels', 32)}) = " in err
        assert len(pairs) <= 10


class TestConfigTables:
    """Every config is read through its command's key table by one reader."""

    EVOLVE = {"omega0": 1.0, "omega": 1.0, "coupling": 0.05, "n": 1,
              "modulation": {"target": "atom", "beta": 0.3, "big_omega": 5.0},
              "rhs": "gauged", "initial_c": 0.0, "initial_d": 1.0, "t1": 1.0}
    TABLES = [("evolve", _EVOLVE, EVOLVE),
              ("evolve.modulation", _MODULATION, EVOLVE["modulation"]),
              ("compare", _COMPARE, {}), ("pseudo", _PSEUDO, {})]
    REQUIRED_PATHS = [path for name, table, _ in TABLES
                      for path in (f"{name}.{key}" for key, (_, d) in table.items()
                                   if d is REQUIRED)]

    @pytest.mark.parametrize("path", REQUIRED_PATHS)
    def test_required_key_given_as_null_exits_two(self, tmp_path, capsys, no_integration, path):
        doc = json.loads(json.dumps(self.EVOLVE))
        *outer, key = path.split(".")[1:]
        (doc[outer[0]] if outer else doc)[key] = None
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        assert f"config error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, table, base", TABLES, ids=[t[0] for t in TABLES])
    def test_every_default_passes_its_parser(self, name, table, base):
        parsed = _parse_doc(base, name, table)
        for key, (parse, default) in table.items():
            if default is not None and default is not REQUIRED:
                assert parse(default, key) == parsed[key]

    @pytest.mark.parametrize("name, table, base", TABLES, ids=[t[0] for t in TABLES])
    def test_null_means_a_default_of_none(self, name, table, base):
        # and nothing else: null for any other key is refused, naming it
        for key, (_, default) in table.items():
            doc = {**base, key: None}
            if default is None:
                assert _parse_doc(doc, name, table)[key] is None
            else:
                with pytest.raises(ConfigError, match=f"^{re.escape(name)}\\.{key}\\b"):
                    _parse_doc(doc, name, table)

    def test_null_frames_take_the_rhs_frame(self, tmp_path):
        doc = {**self.EVOLVE, "rhs": "static", "modulation": None, "frames": None,
               "step": None}
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "trajectory_interaction.csv").exists()


class TestSizeBounds:
    """Sizes float64 or memory cannot hold exit 2, naming the bound, before any work."""

    HUGE = 10**400

    @pytest.fixture
    def no_work(self, monkeypatch, no_integration):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("solve_modulation_beta", "dressed_spectrum", "bind_static_rhs",
                     "run_equivalence_experiment", "build_similarity", "build_h0"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["solve-beta", "--target", "cavity", "--big-omega", "1.0", "--n", str(HUGE)],
        ["spectrum", "--omega0", "1.0", "--omega", "1.0", "--n", str(HUGE)],
        ["spectrum", "--omega0", "1.0", "--omega", "1.0", "--n", str(MAX_INT + 1)],
    ])
    def test_huge_n_flag(self, capsys, no_work, argv):
        assert main(argv) == 2
        assert f"2^53 = {MAX_INT}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("evolve", {"omega0": 1.0, "omega": 1.0, "coupling": [0.0, 0.05], "n": HUGE,
                    "rhs": "static", "initial_c": 0.0, "initial_d": 1.0, "t1": 1.0}),
        ("compare", {"n": HUGE}),
        ("compare", {"n": float(MAX_INT) * 2.0}),
    ])
    def test_huge_n_key(self, tmp_path, capsys, no_work, command, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
        assert f"n exceeds 2^53 = {MAX_INT}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("digits", [4301, 5001])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_the_interpreter_digit_limit(self, tmp_path, capsys, no_work,
                                                      sign, digits):
        # past the 4,300 digits that int() parses from a string
        path = tmp_path / "config.json"
        path.write_text('{"n": ' + sign + "1" + "0" * (digits - 1) + "}", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--output-dir", str(out)]) == 2
        assert f"compare.n exceeds 2^53 = {MAX_INT}" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_exact_n_runs(self, capsys):
        assert main(["spectrum", "--omega0", "1.0", "--omega", "1.0",
                     "--g-imag", "0.1", "--n", str(MAX_INT)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == MAX_INT

    def test_boson_levels_cap(self, tmp_path, capsys, no_work):
        cfg = write_config(tmp_path, {"boson_levels": MAX_BOSON_LEVELS + 1})
        out = tmp_path / "out"
        assert main(["pseudo", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[4, {MAX_BOSON_LEVELS}]" in err and "64 N_b^2 bytes" in err
        assert not out.exists()


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_matches_fresh_processes(self, tmp_path):
        # usage errors, then valid runs, through one parser in this
        # process and through a new interpreter per call
        pseudo_cfg = write_config(tmp_path, {"boson_levels": 8}, "pseudo.json")
        compare_cfg = write_config(tmp_path, {"omega_ratio": 20.0, "duration_rabi_units": 0.5},
                                   "compare.json")

        def calls(side):
            out = tmp_path / side
            return [["pseudo", "--bogus"], ["compare", "--config"],
                    ["pseudo", "--config", pseudo_cfg, "--output-dir", str(out / "p")],
                    ["compare", "--config", compare_cfg, "--output-dir", str(out / "c")]]

        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        reused = [main(argv) for argv in calls("reused")]
        fresh = [subprocess.run([sys.executable, "-m", "ptjc.cli", *argv], env=env,
                                capture_output=True).returncode for argv in calls("fresh")]
        assert reused == fresh == [2, 2, 0, 0]
        for name in ("p/pseudo.json", "c/report.json", "c/comparison.csv"):
            assert ((tmp_path / "reused" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())
