"""Command line driver: exit codes, verdict fields, artifacts, determinism.

Most tests call ``main`` in process; a few go through a real interpreter to
cover the module entry point.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heisminimal import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALPHA = 2.7770844908340435
T_STAR = 1.4712695926215387


def run(tmp_path, command, fixture, *extra):
    out = tmp_path / "out"
    rc = cli.main([command, "--input", str(FIXTURES / fixture),
                   "--out", str(out), *extra])
    verdict = None
    vpath = out / "verdict.json"
    if vpath.exists():
        verdict = json.loads(vpath.read_text())
    return rc, verdict, out


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(["gauss-scan", "--input", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["gauss-scan", "--input", str(bad),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patch": {"u": "0",
                                             "domain": [-1, 1, -1, 1]},
                                   "extra": 3}))
        rc = cli.main(["gauss-scan", "--input", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_start": 0.0}))
        rc = cli.main(["plateau-scan", "--input", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_command_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--input", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_internal_error_maps_to_one(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, args, out):
            raise RuntimeError("wires crossed")
        monkeypatch.setitem(cli._HANDLERS, "gauss-scan", boom)
        rc = cli.main(["gauss-scan",
                       "--input", str(FIXTURES / "patch_flat.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "internal error" in capsys.readouterr().err

    def _fixture_with(self, tmp_path, fixture, **changes):
        cfg = json.loads((FIXTURES / fixture).read_text())
        cfg.update(changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_nan_t_max_names_the_field(self, tmp_path, capsys):
        cfg = self._fixture_with(tmp_path, "flow_rotation.json",
                                 t_max=math.nan)
        rc = cli.main(["flow-trace", "--input", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "t_max" in capsys.readouterr().err

    def test_zero_n_chords_names_the_field(self, tmp_path, capsys):
        cfg = self._fixture_with(tmp_path, "good_curve.json", n_chords=0)
        rc = cli.main(["assemble", "--input", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "n_chords" in capsys.readouterr().err

    @pytest.mark.parametrize("command,fixture,changes,field", [
        ("assemble", "good_curve.json", {"t_start": "abc"}, "t_start"),
        ("phi-continue", "good_curve.json", {"phi_start": "abc"},
         "phi_start"),
        ("assemble", "good_curve.json", {"n_chords": "abc"}, "n_chords"),
        ("flow-trace", "flow_rotation.json", {"t_max": "abc"}, "t_max"),
        ("flow-trace", "flow_rotation.json", {"n_steps": "abc"}, "n_steps"),
        ("flow-trace", "flow_rotation.json", {"mollify": "abc"}, "mollify"),
        ("build-ruled", "ruled_circle.json", {"mesh": {"s_n": "abc"}},
         "mesh.s_n"),
        ("build-ruled", "ruled_circle.json", {"mesh": {"r_n": "abc"}},
         "mesh.r_n"),
    ])
    def test_non_numeric_value_names_the_field(self, tmp_path, capsys,
                                               command, fixture, changes,
                                               field):
        cfg = self._fixture_with(tmp_path, fixture, **changes)
        rc = cli.main([command, "--input", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert field in err and "'abc'" in err

    def test_success_is_zero_even_for_negative_verdicts(self, tmp_path):
        # an obstruction is a finding, not a failure
        rc, verdict, _ = run(tmp_path, "phi-continue", "bad_curve.json")
        assert rc == 0
        assert verdict["status"] == "OBSTRUCTED"


class TestWorkedExamples:
    def test_plateau_scan_good_curve_isolates_zero(self, tmp_path):
        rc, verdict, out = run(tmp_path, "plateau-scan", "good_curve.json")
        assert rc == 0
        iso = verdict["isolated_points"]
        assert min(abs(t) for t in iso) <= 1e-6
        assert verdict["consistent"] is True
        assert (out / "access_heatmap.svg").exists()
        assert (out / "legendrian_profile.csv").exists()

    def test_phi_continue_bad_curve_obstructed_near_half_pi(self, tmp_path):
        rc, verdict, out = run(tmp_path, "phi-continue", "bad_curve.json")
        assert rc == 0
        assert verdict["status"] == "OBSTRUCTED"
        t_star = verdict["obstruction_t"]
        assert math.pi / 2 - 0.5 < t_star < math.pi / 2 + 0.5
        assert t_star == pytest.approx(T_STAR, abs=1e-4)
        assert (out / "phi_plot.svg").exists()
        assert (out / "branch.csv").exists()

    def test_gauss_scan_flat_patch_single_characteristic_row(self, tmp_path):
        rc, verdict, out = run(tmp_path, "gauss-scan", "patch_flat.json")
        assert rc == 0
        assert verdict["n_characteristic"] == 1
        assert verdict["characteristic_points"] == [[0.0, 0.0]]
        lines = (out / "gauss_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,p,q,mag,characteristic"
        char_rows = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert len(char_rows) == 1
        x, y = char_rows[0].split(",")[:2]
        assert float(x) == 0.0 and float(y) == 0.0

    def test_flow_trace_csv_parses_to_floats(self, tmp_path):
        rc, _, out = run(tmp_path, "flow-trace", "flow_rotation.json")
        assert rc == 0
        tables = sorted(out.glob("*.csv"))
        assert tables
        for path in tables:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1
            assert all(len(r) == len(rows[0]) for r in rows)
            values = [float(c) for r in rows[1:] for c in r]
            assert all(math.isfinite(v) for v in values)

    def test_sampled_plane_with_interior_characteristic_point(self,
                                                              tmp_path):
        # the plane's characteristic point (0.672, -0.477) lies inside
        domain = [-1.0, 1.16, -1.0, 1.1]
        xs = np.linspace(domain[0], domain[1], 24)
        ys = np.linspace(domain[2], domain[3], 24)
        values = 0.2385 * xs[:, None] + 0.336 * ys[None, :] - 0.353
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patch": {
            "domain": domain,
            "u": {"xs": xs.tolist(), "ys": ys.tolist(),
                  "values": values.tolist()}}}))
        rc = cli.main(["minimality", "--input", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
        assert verdict["verdict"] == "H_MINIMAL"
        assert verdict["strong_residual"] <= 1e-9
        assert verdict["n_characteristic"] == 1


# every fixture feeds at least one command; expectations pin the headline
# verdict fields observed when the fixtures were frozen
ROUND_TRIPS = [
    ("good_curve.json", "plateau-scan",
     lambda v: v["verdict"] == "INCONCLUSIVE" and v["consistent"]),
    ("good_curve.json", "phi-continue",
     lambda v: v["status"] == "MONOTONE"
     and abs(v["diagonal_t"] - ALPHA) < 1e-3),
    ("good_curve.json", "assemble",
     lambda v: v["assembled"] and v["ok"] and v["fold_ok"]),
    ("bad_curve.json", "plateau-scan",
     lambda v: v["verdict"] == "INCONCLUSIVE"),
    ("bad_curve.json", "phi-continue",
     lambda v: v["status"] == "OBSTRUCTED"),
    ("bad_curve.json", "assemble",
     lambda v: v["assembled"] and not v["ok"] and not v["fold_ok"]),
    ("complicated_curve.json", "plateau-scan",
     lambda v: v["verdict"] == "INCONCLUSIVE" and len(
         v["isolated_points"]) == 2),
    ("complicated_curve.json", "phi-continue",
     lambda v: v["status"] == "TERMINATED"),
    ("complicated_curve.json", "assemble",
     lambda v: v["assembled"] is False and "force" in v["hint"]),
    ("nonlegendrian_curve.json", "plateau-scan",
     lambda v: v["verdict"] == "NO_RULED_SPANNING_GRAPH"
     and 0.374 <= v["legendrian_min"] <= 0.376),
    ("planar_circle.json", "plateau-scan",
     lambda v: v["verdict"] == "INCONCLUSIVE"
     and v["planar_window"] is not None),
    ("planar_circle.json", "phi-continue",
     lambda v: v["status"] == "MONOTONE"),
    ("planar_circle.json", "assemble",
     lambda v: v["assembled"] and v["ok"]
     and max(abs(c) for c in v["vertex"]) < 1e-6),
    ("ruled_line.json", "char-locus", lambda v: v["n_double"] == 0),
    ("ruled_line.json", "build-ruled",
     lambda v: v["crossings"]["diagnostic_pass"] and v["seed"]["ok"]),
    ("ruled_circle.json", "char-locus",
     lambda v: v["n_double"] == v["n_samples"]
     and v["max_abs_disc_at_double"] <= 1e-10),
    ("ruled_circle.json", "build-ruled",
     lambda v: v["crossings"]["diagnostic_pass"]),
    ("ruled_ellipse_arc.json", "char-locus", lambda v: v["n_samples"] > 0),
    ("ruled_ellipse_arc.json", "build-ruled",
     lambda v: v["crossings"]["diagnostic_pass"]),
    ("ruled_spiral_arc.json", "char-locus", lambda v: v["n_samples"] > 0),
    ("ruled_spiral_arc.json", "build-ruled",
     lambda v: v["crossings"]["diagnostic_pass"] and v["seed"]["ok"]),
    ("ruled_spline.json", "char-locus", lambda v: v["n_samples"] > 0),
    ("ruled_spline.json", "build-ruled",
     lambda v: v["crossings"]["diagnostic_pass"] and v["seed"]["ok"]),
    ("glue_example.json", "glue-check",
     lambda v: v["glue_pass"] and v["interface_defect"] == 0.0
     and v["weak_defect"] <= 1e-4),
    ("persistent_quadratic.json", "persistent",
     lambda v: v["persistent"] and v["laplacian_dual"] <= 1e-8),
    ("persistent_helicoid.json", "persistent",
     lambda v: v["persistent"] and v["strong_residual"] <= 1e-6),
    ("patch_flat.json", "gauss-scan", lambda v: v["n_characteristic"] == 1),
    ("patch_flat.json", "minimality", lambda v: v["verdict"] == "H_MINIMAL"),
    ("flow_rotation.json", "flow-trace",
     lambda v: not v["truncated"]
     and abs(v["straightness"] - (math.sqrt(2) - 1) / 2) < 1e-9),
]


class TestRoundTrips:
    @pytest.mark.parametrize("fixture,command,check", ROUND_TRIPS,
                             ids=[f"{f[:-5]}-{c}" for f, c, _ in ROUND_TRIPS])
    def test_fixture_round_trip(self, tmp_path, fixture, command, check):
        rc, verdict, out = run(tmp_path, command, fixture)
        assert rc == 0
        assert check(verdict), verdict
        # most commands leave artifacts beyond the verdict; minimality is
        # a pure check and an unforced obstructed assembly stops early
        names = sorted(p.name for p in out.iterdir())
        if command == "minimality" or verdict.get("assembled") is False:
            assert names == ["verdict.json"]
        else:
            assert len(names) >= 2

    def test_every_fixture_is_exercised(self):
        on_disk = {p.name for p in FIXTURES.glob("*.json")}
        covered = {f for f, _, _ in ROUND_TRIPS}
        assert covered == on_disk


class TestDeterminism:
    @pytest.mark.parametrize("fixture,command", [
        ("ruled_line.json", "char-locus"),
        ("patch_flat.json", "gauss-scan"),
        ("flow_rotation.json", "flow-trace"),
        ("good_curve.json", "plateau-scan"),
    ])
    def test_byte_identical_reruns(self, tmp_path, fixture, command):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = cli.main([command, "--input", str(FIXTURES / fixture),
                           "--out", str(out)])
            assert rc == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (
                outs[1] / name).read_bytes(), name


class TestFlags:
    def test_grid_flag_overrides_default(self, tmp_path):
        rc, verdict, _ = run(tmp_path, "gauss-scan", "patch_flat.json",
                             "--grid", "11")
        assert rc == 0
        assert verdict["grid"] == 11
        assert verdict["n_points"] == 121

    def test_tol_char_flag_loosens_the_locus(self, tmp_path):
        rc, verdict, _ = run(tmp_path, "gauss-scan", "patch_flat.json",
                             "--tol-char", "0.2")
        assert rc == 0
        # mag = rho / 2 on the flat patch, so a 0.2 tolerance admits a disc
        assert verdict["n_characteristic"] > 1

    def test_out_directory_is_created(self, tmp_path):
        deep = tmp_path / "a" / "b" / "c"
        rc = cli.main(["minimality",
                       "--input", str(FIXTURES / "patch_flat.json"),
                       "--out", str(deep)])
        assert rc == 0
        assert (deep / "verdict.json").exists()


class TestModuleEntryPoints:
    def test_python_dash_m_package(self, tmp_path):
        out = tmp_path / "o"
        r = subprocess.run(
            [sys.executable, "-m", "heisminimal", "minimality",
             "--input", str(FIXTURES / "patch_flat.json"),
             "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert json.loads((out / "verdict.json").read_text())[
            "verdict"] == "H_MINIMAL"

    def test_help_lists_every_command(self):
        r = subprocess.run(
            [sys.executable, "-m", "heisminimal.cli", "--help"],
            capture_output=True, text=True)
        assert r.returncode == 0
        for command in cli.COMMANDS:
            assert command in r.stdout
