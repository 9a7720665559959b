"""Config schema: validation order, field paths, hashing, grids."""

import json
import subprocess

import pytest

from spiralflow.config import config_blob_sha1, parse_config
from spiralflow.errors import ConfigError


def _doc(**overrides):
    doc = {
        "spec_version": 1,
        "gamma": 2.0,
        "kappa1": 0.3,
        "kappa2": 0.2,
        "body": {"kind": "circle", "a": 1.0},
        "mesh": {"h": 0.25, "R_out": 8.0},
    }
    doc.update(overrides)
    return doc


def _parse(**overrides):
    return parse_config(json.dumps(_doc(**overrides)).encode())


class TestParsing:
    def test_minimal_config(self):
        cfg = _parse()
        assert cfg.gamma == 2.0
        assert cfg.body.kind == "circle"
        assert cfg.mesh.h == 0.25
        assert not hasattr(cfg, "far_field")
        assert cfg.axis == "kappa2"
        assert cfg.eps_schedule is None
        assert cfg.tolerances.newton_tol == 1e-9
        assert cfg.tolerances.critical_tol == 0.01
        assert len(cfg.sha1) == 40

    def test_full_config(self):
        cfg = _parse(
            body={"kind": "perturbed_circle", "a": 1.2, "b": 0.1, "k": 3},
            eps_schedule=[0.2, 0.1],
            far_field="gauge",
            axis="kappa1",
            tolerances={"newton_tol": 1e-8, "critical_tol": 0.02},
            grid={"start": 0.1, "stop": 0.5, "num": 5},
            output_dir="artifacts",
        )
        assert cfg.body.b == 0.1 and cfg.body.k == 3
        assert cfg.eps_schedule == (0.2, 0.1)
        assert cfg.axis == "kappa1"
        assert cfg.tolerances.critical_tol == 0.02
        assert cfg.output_dir == "artifacts"

    def test_body_construction_cached_validation(self):
        cfg = _parse(body={"kind": "perturbed_circle", "a": 1.3, "b": 0.2, "k": 4})
        body = cfg.body.build()
        assert body.max_radius() == pytest.approx(1.5)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"gamma": 1.0}, "gamma"),
            ({"gamma": True}, "gamma"),
            ({"kappa1": 0.0}, "kappa1"),
            ({"kappa1": 1.5}, "kappa1"),
            ({"kappa2": 1.0}, "kappa2"),
            ({"spec_version": 2}, "spec_version"),
            ({"body": {"kind": "square", "a": 1.0}}, "body.kind"),
            ({"body": {"kind": "circle"}}, "body.a"),
            ({"body": {"kind": "circle", "a": 0.5}}, "body"),
            ({"body": {"kind": "perturbed_circle", "a": 1.0, "b": 0.1, "k": 3}}, "body"),
            ({"mesh": {"h": 0.0, "R_out": 8.0}}, "mesh.h"),
            ({"mesh": {"h": 0.1, "R_out": 3.9}}, "mesh.R_out"),
            ({"mesh": {"h": 0.1}}, "mesh.R_out"),
            ({"eps_schedule": []}, "eps_schedule"),
            ({"eps_schedule": [0.1, 0.2]}, "eps_schedule"),
            ({"eps_schedule": [0.6]}, "eps_schedule"),
            ({"far_field": "open"}, "far_field"),
            ({"axis": "gamma"}, "axis"),
            ({"tolerances": {"newton_tol": 0.0}}, "tolerances.newton_tol"),
            ({"tolerances": {"critical_tol": 1e-4}}, "tolerances.critical_tol"),
            ({"output_dir": 7}, "output_dir"),
            ({"far_field": "zero"}, "far_field"),
        ],
    )
    def test_field_paths(self, overrides, path):
        with pytest.raises(ConfigError) as exc:
            _parse(**overrides)
        assert exc.value.field == path

    def test_missing_spec_version(self):
        doc = _doc()
        del doc["spec_version"]
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc).encode())
        assert exc.value.field == "spec_version"

    def test_invalid_json(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(b"{not json")
        assert exc.value.field == "config"

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(b"[1, 2]")
        assert exc.value.field == "config"

    def test_larger_body_scales_radius_floor(self):
        # the 4x floor tracks the body, not the unit disk
        with pytest.raises(ConfigError) as exc:
            _parse(body={"kind": "circle", "a": 2.5}, mesh={"h": 0.1, "R_out": 8.0})
        assert exc.value.field == "mesh.R_out"
        _parse(body={"kind": "circle", "a": 2.5}, mesh={"h": 0.1, "R_out": 10.0})


class TestSweepValues:
    def test_explicit_values(self):
        cfg = _parse(grid={"values": [0.1, 0.3, 0.2]})
        assert cfg.section("grid") == (0.1, 0.3, 0.2)

    def test_linear_grid(self):
        cfg = _parse(grid={"start": 0.0, "stop": 1.0, "num": 5})
        assert cfg.section("grid") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_missing_section(self):
        with pytest.raises(ConfigError) as exc:
            _parse().section("grid")
        assert exc.value.field == "grid"

    @pytest.mark.parametrize(
        "grid, path",
        [
            ({"values": []}, "grid.values"),
            ({"values": [0.1, "x"]}, "grid.values[1]"),
            ({"start": 0.1, "stop": 0.5, "num": 1}, "grid.num"),
            ({"start": 0.5, "stop": 0.1, "num": 3}, "grid.stop"),
            ({"start": 0.1, "num": 3}, "grid.stop"),
        ],
    )
    def test_bad_grids(self, grid, path):
        with pytest.raises(ConfigError) as exc:
            _parse(grid=grid)
        assert exc.value.field == path


class TestHashing:
    def test_matches_git_blob_hash(self, tmp_path):
        raw = json.dumps(_doc()).encode()
        p = tmp_path / "cfg.json"
        p.write_bytes(raw)
        expect = subprocess.run(
            ["git", "hash-object", str(p)], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert config_blob_sha1(raw) == expect
        assert parse_config(raw).sha1 == expect

    def test_hash_tracks_content(self):
        a = json.dumps(_doc()).encode()
        b = json.dumps(_doc(kappa2=0.3)).encode()
        assert config_blob_sha1(a) != config_blob_sha1(b)
