"""Config schema: validation order, field paths, hashing, grids."""

import json
import subprocess

import pytest

from spiralflow.config import config_blob_sha1, parse_config
from spiralflow.errors import ConfigError

NAN, INF = float("nan"), float("inf")


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

    def test_ladder_may_aim_at_the_range_end(self):
        # rungs approach hi without reaching it: the top one here is 0.875
        cfg = _parse(ladder={"lo": 0.5, "hi": 1.0, "n_seq": 3})
        assert cfg.section("ladder").hi == 1.0

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
            # keys no parser reads
            ({"eps_schedul": [0.2, 0.1]}, "eps_schedul"),
            ({"tolerances": {"newton_tl": 1e-12}}, "tolerances.newton_tl"),
            ({"search": {"n_gird": 3}}, "search.n_gird"),
            ({"ladder": {"n_rungs": 3}}, "ladder.n_rungs"),
            ({"radial": {"rmax": 20.0}}, "radial.rmax"),
            ({"mesh": {"h": 0.25, "R_out": 8.0, "r_out": 9.0}}, "mesh.r_out"),
            ({"sha1": "0" * 40}, "sha1"),
            # b and k are read only for a perturbed circle
            ({"body": {"kind": "circle", "a": 1.0, "b": 0.1}}, "body.b"),
            ({"body": {"kind": "circle", "a": 1.0, "k": 3}}, "body.k"),
            ({"body": {"kind": "perturbed_circle", "a": 1.2, "b": 0.1, "k": 3, "m": 1}}, "body.m"),
            # every search and ladder value a run solves at lies in the axis range
            ({"search": {"hi": 1.3}}, "search.hi"),
            ({"axis": "kappa1", "search": {"lo": 0.0}}, "search.lo"),
            ({"ladder": {"lo": 0.5, "hi": 1.5, "n_seq": 3}}, "ladder.hi"),
            ({"ladder": {"lo": -1.5, "hi": 0.5}}, "ladder.lo"),
            # NaN passes every range check written as a comparison, and
            # infinity some; the JSON reader accepts both and reads 1e400
            # and a 400-digit integer as infinite
            ({"gamma": NAN}, "gamma"),
            ({"gamma": INF}, "gamma"),
            ({"kappa2": NAN}, "kappa2"),
            ({"mesh": {"h": NAN, "R_out": 8.0}}, "mesh.h"),
            ({"mesh": {"h": INF, "R_out": 8.0}}, "mesh.h"),
            ({"mesh": {"h": 0.25, "R_out": NAN}}, "mesh.R_out"),
            ({"mesh": {"h": 0.25, "R_out": INF}}, "mesh.R_out"),
            ({"mesh": {"h": 0.25, "R_out": 10**400}}, "mesh.R_out"),
            ({"body": {"kind": "circle", "a": NAN}}, "body.a"),
            ({"tolerances": {"critical_tol": NAN}}, "tolerances.critical_tol"),
            ({"tolerances": {"newton_tol": INF}}, "tolerances.newton_tol"),
            ({"radial": {"r_max": INF}}, "radial.r_max"),
            ({"eps_schedule": [0.2, NAN]}, "eps_schedule[1]"),
            ({"search": {"lo": -INF}}, "search.lo"),
            ({"ladder": {"annulus": [1.5, NAN]}}, "ladder.annulus[1]"),
        ],
    )
    def test_field_paths(self, overrides, path):
        with pytest.raises(ConfigError) as exc:
            _parse(**overrides)
        assert exc.value.field == path

    def test_overflowing_literal(self):
        raw = json.dumps(_doc()).encode().replace(b'"h": 0.25', b'"h": 1e400')
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert exc.value.field == "mesh.h"

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
        cfg = _parse(grid={"start": -0.5, "stop": 0.5, "num": 5})
        assert cfg.section("grid") == pytest.approx([-0.5, -0.25, 0.0, 0.25, 0.5])

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
            # grid reads either values or start/stop/num
            ({"values": [0.1], "num": 3}, "grid.num"),
            ({"start": 0.1, "stop": 0.5, "num": 3, "values": [0.2]}, "grid.start"),
            # every swept value lies in the axis range
            ({"values": [0.5, 1.2]}, "grid.values[1]"),
            ({"start": 0.0, "stop": 1.0, "num": 5}, "grid.stop"),
            ({"start": -1.0, "stop": 0.5, "num": 4}, "grid.start"),
            ({"values": [0.1, NAN]}, "grid.values[1]"),
            ({"start": 0.1, "stop": INF, "num": 3}, "grid.stop"),
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
