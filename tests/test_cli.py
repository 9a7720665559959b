"""Command-line behavior: artifacts, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from spiralflow import cli
from spiralflow.cli import main


def _write_config(tmp_path, **overrides):
    doc = {
        "spec_version": 1,
        "gamma": 2.0,
        "kappa1": 0.3,
        "kappa2": 0.2,
        "body": {"kind": "circle", "a": 1.0},
        "mesh": {"h": 0.25, "R_out": 8.0},
    }
    doc.update(overrides)
    p = tmp_path / "config.json"
    p.write_bytes(json.dumps(doc, indent=1).encode())
    return p


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    cfg = _write_config(tmp)
    out = tmp / "out"
    code = main(["solve", "--config", str(cfg), "--output", str(out), "--quiet"])
    return cfg, out, code


class TestSolveCommand:
    def test_exit_zero_and_artifacts(self, solve_run):
        _, out, code = solve_run
        assert code == 0
        for name in ("solution.vtk", "rings.csv", "report.json"):
            assert (out / name).exists()

    def test_report_contents(self, solve_run):
        cfg, out, _ = solve_run
        report = json.loads((out / "report.json").read_text())
        assert report["removed"] is True
        assert report["eps_final"] == 0.2
        assert report["q_max"] < 1.0
        assert report["irrot_residual"] <= 1e-8
        # provenance hash equals git's blob hash of the config file
        expect = subprocess.run(
            ["git", "hash-object", str(cfg)], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert report["config_sha1"] == expect
        flux, want = report["body_flux"], report["body_flux_expected"]
        assert abs(flux - want) <= 0.05 * want

    def test_rings_csv_shape(self, solve_run):
        _, out, _ = solve_run
        lines = (out / "rings.csv").read_bytes().decode().split("\n")
        assert lines[0] == "ring_radius,max_correction_gradient"
        assert lines[-1] == ""  # trailing newline
        for line in lines[1:-1]:
            r, g = line.split(",")
            assert float(r) > 1.0
            assert float(g) >= 0.0

    def test_config_file_not_mutated(self, solve_run):
        cfg, _, _ = solve_run
        raw = cfg.read_bytes()
        out2 = cfg.parent / "out2"
        assert main(["solve", "--config", str(cfg), "--output", str(out2), "--quiet"]) == 0
        assert cfg.read_bytes() == raw

    def test_reruns_byte_identical(self, solve_run):
        cfg, out, _ = solve_run
        out2 = cfg.parent / "out2"
        main(["solve", "--config", str(cfg), "--output", str(out2), "--quiet"])
        for name in ("solution.vtk", "rings.csv", "report.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_no_carriage_returns(self, solve_run):
        _, out, _ = solve_run
        for name in ("rings.csv", "report.json"):
            assert b"\r" not in (out / name).read_bytes()


class TestRadialCommand:
    def test_subsonic_classification(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, radial={"r_max": 20.0})
        code = main(["radial", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["regime"] == "uniformly_subsonic"
        assert report["max_msq"] < 1.0
        assert report["ode_vs_algebra_mismatch"] <= 1e-5
        assert "uniformly_subsonic" in capsys.readouterr().out

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        main(["radial", "--config", str(cfg), "--output", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""


class TestSweepCommand:
    def test_csv_layout(self, tmp_path):
        cfg = _write_config(
            tmp_path, kappa1=0.3, grid={"values": [0.1, 0.3, 0.5]}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().split("\n")
        assert lines[0] == "kappa1,kappa2,eps,q_max,s_max,energy,removed,converged"
        assert len(lines) == 5  # header + 3 rows + trailing newline
        row = lines[1].split(",")
        assert len(row) == 8
        assert float(row[0]) == 0.3 and float(row[1]) == 0.1
        assert row[6] == "true" and row[7] == "true"
        report = json.loads((out / "report.json").read_text())
        assert report["n_points"] == 3
        assert report["modulus_of_continuity"] > 0


class TestCriticalCommand:
    def test_bracket_report(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            kappa1=0.6,
            kappa2=0.0,
            search={"lo": 0.3, "hi": 0.75, "n_grid": 4},
        )
        out = tmp_path / "out"
        assert main(["critical", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bracket_hi"] - report["bracket_lo"] == pytest.approx(
            report["bracket_width"]
        )
        assert report["bracket_width"] <= 0.01
        assert report["evaluations"][0]["removed"] is True

    def test_missing_section(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, kappa1=0.6)
        assert main(["critical", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        assert "search" in capsys.readouterr().err


class TestLimitCommand:
    def test_ladder_artifacts(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            kappa1=0.6,
            kappa2=0.0,
            ladder={"lo": 0.3, "hi": 0.7, "n_seq": 3, "annulus": [1.5, 3.0]},
        )
        out = tmp_path / "out"
        assert main(["limit", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
        lines = (out / "ladder.csv").read_text().split("\n")
        assert lines[0] == "kappa1,kappa2,eps,q_max,s_max,energy,removed,converged"
        assert len(lines) == 5
        report = json.loads((out / "report.json").read_text())
        assert len(report["rungs"]) == 3
        assert report["rungs"][0]["velocity_shift"] is None
        assert report["rungs"][1]["velocity_shift"] > 0
        q = [r["q_max"] for r in report["rungs"]]
        assert q[0] < q[1] < q[2]


class TestExitCodes:
    def test_config_validation_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, gamma=1.0)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            body={"kind": "perturbed_circle", "a": 1.2, "b": 0.1, "k": 3},
            mesh={"h": 0.4, "R_out": 8.0},
            tolerances={"newton_tol": 1e-30},
        )
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, path",
        [
            ("solve", {"eps_schedule": [0.3, 0.1]}, "eps_schedule"),
            ("critical", {"search": {"lo": "abc"}}, "search.lo"),
            ("critical", {"search": {"n_grid": [3]}}, "search.n_grid"),
            ("limit", {"ladder": {"annulus": 3}}, "ladder.annulus"),
            ("radial", {"radial": {"r_max": "x"}}, "radial.r_max"),
            ("radial", {"radial": {"r_max": 0.5}}, "radial.r_max"),
            # no centroid of the R_out 8 mesh lies in the probe annulus
            ("limit", {"ladder": {"annulus": [40, 50]}}, "ladder.annulus"),
        ],
    )
    def test_section_values_exit_2(self, tmp_path, capsys, command, overrides, path):
        cfg = _write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, overrides, path",
        [
            ("critical", {"search": {"n_grid": 2}}, "search.n_grid"),
            ("critical", {"search": {"lo": 0.9, "hi": 0.5}}, "search.hi"),
            ("limit", {"ladder": {"annulus": [3.0, 1.5]}}, "ladder.annulus"),
            ("limit", {"ladder": {"n_seq": 1}}, "ladder.n_seq"),
            ("limit", {"ladder": {"lo": 0.9, "hi": 0.5}}, "ladder.hi"),
            ("solve", {"far_field": "zero"}, "far_field"),
        ],
    )
    def test_range_rules_name_field_path(
        self, tmp_path, capsys, monkeypatch, command, overrides, path
    ):
        def no_mesh(*args):
            raise AssertionError("mesh built before the config was checked")

        monkeypatch.setattr(cli, "build_annulus_mesh", no_mesh)
        cfg = _write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")

    @pytest.mark.parametrize(
        "command, overrides, code, message",
        [
            ("sweep", {"grid": {"values": [0.5, 1.2]}}, 2, "config error: grid.values[1]: "),
            ("critical", {"search": {"hi": 1.3}}, 2, "config error: search.hi: "),
            (
                "limit",
                {"ladder": {"lo": 0.5, "hi": 1.5, "n_seq": 3}},
                2,
                "config error: ladder.hi: ",
            ),
            ("solve", {"eps_schedul": [0.2, 0.1]}, 2, "config error: eps_schedul: "),
            (
                "solve",
                {"tolerances": {"newton_tl": 1e-12}},
                2,
                "config error: tolerances.newton_tl: ",
            ),
            ("critical", {"search": {"n_gird": 3}}, 2, "config error: search.n_gird: "),
            # kappa1^2 + kappa2^2 past the gamma-10 speed limit: no body state
            (
                "solve",
                {"gamma": 10.0, "kappa1": 0.8, "kappa2": 0.8},
                3,
                "numerical failure: no admissible body state",
            ),
            # the JSON reader accepts NaN and Infinity; the config does not
            ("solve", {"gamma": float("nan")}, 2, "config error: gamma: "),
            (
                "critical",
                {"tolerances": {"critical_tol": float("nan")}},
                2,
                "config error: tolerances.critical_tol: ",
            ),
        ],
    )
    def test_documented_exit_without_traceback(
        self, tmp_path, command, overrides, code, message
    ):
        cfg = _write_config(tmp_path, **overrides)
        proc = subprocess.run(
            [sys.executable, "-m", "spiralflow.cli", command, "--config", str(cfg),
             "--output", str(tmp_path / "out"), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr

    def test_missing_config_exit_4(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["solve", "--config", str(missing), "--output", str(tmp_path)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_output_exit_4(self, tmp_path):
        cfg = _write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["solve", "--config", str(cfg), "--output", str(blocker)]) == 4

    def test_module_entry_point(self, tmp_path):
        cfg = _write_config(tmp_path)
        proc = subprocess.run(
            [
                "python3",
                "-m",
                "spiralflow.cli",
                "radial",
                "--config",
                str(cfg),
                "--output",
                str(tmp_path),
                "--quiet",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
