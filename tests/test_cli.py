import csv
import json
import os
import subprocess
import sys

import pytest

import bandtopo as bt
from bandtopo.cli import main

from conftest import gapped_model


def run(args):
    return main(args)


@pytest.fixture()
def gapped_config(tmp_path):
    path = tmp_path / "gapped.json"
    bt.save_model_config(gapped_model(), path)
    return str(path)


class TestLocate:
    def test_weyl_two_points(self, tmp_path, capsys):
        code = run(
            ["locate", "--model", "weyl-lattice", "--param", "m=2",
             "--grid", "32", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P0" in out and "P1" in out
        payload = json.loads((tmp_path / "locus.json").read_text())
        assert len(payload["components"]) == 2

    def test_gapped_no_nodal_set(self, tmp_path, capsys, gapped_config):
        code = run(["locate", "--config", gapped_config, "--grid", "16",
                    "--out", str(tmp_path)])
        assert code == 0
        assert "no nodal set" in capsys.readouterr().out

    def test_malformed_config_exit_64(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = run(["locate", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 64

    def test_missing_model_exit_64(self, tmp_path):
        assert run(["locate", "--out", str(tmp_path)]) == 64

    def test_unknown_flag_exit_64(self, tmp_path, capsys):
        assert run(["locate", "--no-such-flag", "--out", str(tmp_path)]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_and_version_exit_0(self, capsys):
        assert run(["--help"]) == 0
        assert run(["--version"]) == 0
        assert run(["scan", "--help"]) == 0
        assert bt.__version__ in capsys.readouterr().out

    def test_ambiguous_locus_exit_2(self, tmp_path):
        from bandtopo.model import CoefficientSpec, TwoBandField, model_from_field

        h1 = CoefficientSpec([("cos", (0, 0, 1), 1.0), ("cos", (0, 0, 0), -0.3)])
        field = TwoBandField([h1, CoefficientSpec([]), CoefficientSpec([])])
        model = model_from_field("nodal-surface", field, reality=True)
        cfg = tmp_path / "surface.json"
        bt.save_model_config(model, cfg)
        code = run(["locate", "--config", str(cfg), "--grid", "16",
                    "--out", str(tmp_path)])
        assert code == 2


class TestExitCodes:
    """The process exit status equals ``main``'s return value."""

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0),
        (["scan", "--values", "a,b"], 64),
        (["locate", "--model", "weyl-lattice", "--param", "m=1.7", "--grid", "1"], 64),
        (["report", "--model", "weyl-lattice", "--param", "m=1.7", "--mesh", "0x0"], 64),
        (["verify", "--model", "weyl-lattice", "--param", "m=2",
          "--ledger-file", "missing.json"], 64),
        (["cohomology", "--fixture", "link", "--resolution", "8"], 64),
        (["cohomology", "--fixture", "none", "--resolution", "3"], 64),
        (["cohomology", "--fixture", "loop", "--resolution", "-3"], 64),
        (["cohomology", "--fixture", "point", "--resolution", "0"], 64),
        (["cohomology", "--fixture", "point", "--resolution", "8", "--tube-voxels=0"], 64),
        (["cohomology", "--fixture", "loop", "--resolution", "5"], 64),
        (["charges", "--model", "nodal-loop-real", "--param", "m=2", "--grid", "16",
          "--tube-radius=nan"], 64),
    ])
    def test_module_exit_status(self, tmp_path, argv, code):
        src = os.path.dirname(os.path.dirname(bt.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bandtopo.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr


class TestSizeValidation:
    """Mesh and scan-grid sizes are checked before any computation."""

    @pytest.mark.parametrize("argv", [
        ["report", "--mesh", "0x0"],
        ["report", "--mesh=-4x8"],
        ["charges", "--mesh", "2x16"],
        ["scan", "--mesh", "0x0", "--values", "1"],
        ["scan", "--mesh", "16x2", "--values", "1"],
    ])
    def test_mesh_below_three_exit_64(self, tmp_path, capsys, argv):
        code = run(argv + ["--model", "weyl-lattice", "--param", "m=2",
                           "--out", str(tmp_path)])
        assert code == 64
        err = capsys.readouterr().err
        assert "--mesh sizes must be at least 3" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("grid", ["1", "7", "-3", "8.5"])
    def test_grid_below_eight_exit_64(self, tmp_path, capsys, grid):
        code = run(["locate", "--model", "weyl-lattice", "--param", "m=1.7",
                    "--grid", grid, "--out", str(tmp_path)])
        assert code == 64
        assert "argument --grid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("radius", [["--tube-radius", "0"], ["--tube-radius", "-0.1"],
                                        ["--tube-radius=nan"], ["--tube-radius", "inf"]])
    def test_tube_radius_not_finite_positive_exit_64(self, tmp_path, capsys, radius):
        code = run(["charges", "--model", "nodal-loop-real", "--param", "m=2",
                    "--grid", "16", *radius, "--out", str(tmp_path)])
        assert code == 64
        assert "argument --tube-radius" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_smallest_sizes_accepted(self, tmp_path):
        code = run(["scan", "--model", "weyl-lattice", "--param", "m=2",
                    "--grid", "8", "--mesh", "3x3", "--values", "2.0",
                    "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert rows[1] == "2.0,0,0,"


class TestVerify:
    def test_weyl_passes(self, tmp_path, capsys):
        code = run(
            ["verify", "--model", "weyl-lattice", "--param", "m=2",
             "--grid", "32", "--mesh", "48x48", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_tampered_ledger_fails(self, tmp_path):
        code = run(
            ["charges", "--model", "weyl-lattice", "--param", "m=2",
             "--grid", "32", "--mesh", "48x48", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "charges.json").read_text())
        payload["entries"][0]["chirality"] += 2  # inject a bad charge
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        code = run(
            ["verify", "--model", "weyl-lattice", "--param", "m=2",
             "--ledger-file", str(bad), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_empty_locus_passes(self, tmp_path, gapped_config):
        code = run(["verify", "--config", gapped_config, "--grid", "16",
                    "--mesh", "16x16", "--out", str(tmp_path)])
        assert code == 0


class TestUnreadableInputs:
    """Missing or malformed input files are config errors (exit 64)."""

    CASES = {
        "missing": None,
        "malformed": "{broken",
        "no-entries": json.dumps({"model": "x", "occupied_count": 1}),
        "no-vertices": json.dumps({"components": [{"type": "loop", "id": "L0"}]}),
    }

    def write(self, tmp_path, case):
        path = tmp_path / "input.json"
        if self.CASES[case] is not None:
            path.write_text(self.CASES[case])
        return str(path)

    @pytest.mark.parametrize("case", ["missing", "malformed", "no-entries"])
    def test_ledger_file_exit_64(self, tmp_path, capsys, case):
        code = run(["verify", "--model", "weyl-lattice", "--param", "m=2",
                    "--ledger-file", self.write(tmp_path, case), "--out", str(tmp_path)])
        assert code == 64
        assert "ledger file" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "malformed", "no-vertices"])
    def test_from_locus_exit_64(self, tmp_path, capsys, case):
        code = run(["cohomology", "--from-locus", self.write(tmp_path, case),
                    "--resolution", "8", "--out", str(tmp_path)])
        assert code == 64
        assert "locus file" in capsys.readouterr().err


class TestScanLink:
    def test_scan_csv(self, tmp_path):
        code = run(
            ["scan", "--model", "weyl-lattice", "--param", "m=2",
             "--values", "-2.0,0.0,2.0", "--mesh", "32x32", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert rows[0] == "value,chern,skipped,reason"
        assert len(rows) == 4
        data = list(csv.reader(rows[1:]))
        assert data[0][0] == "-2.0"
        model = bt.builtin("weyl-lattice", m=2)
        expected = bt.chern_scan(model, "z", [-2.0, 0.0, 2.0], n_u=32, n_v=32)
        assert [r[1] for r in data] == [
            "" if e.chern is None else str(e.chern.value) for e in expected
        ]

    @pytest.mark.parametrize("flag", ["--values", "--val"])
    def test_scan_values_forms_identical(self, tmp_path, flag):
        base = ["scan", "--model", "weyl-lattice", "--param", "m=2",
                "--mesh", "16x16"]
        assert run(base + [flag, "-2.0,0.0,2.0", "--out", str(tmp_path / "a")]) == 0
        assert run(base + [f"{flag}=-2.0,0.0,2.0", "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "scan.csv").read_bytes()
        b = (tmp_path / "b" / "scan.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("values, expected", [
        ("-.5,-1e-3,2.5e0", ["-0.5", "-0.001", "2.5"]),
        ("-1e-3", ["-0.001"]),
    ])
    def test_scan_values_float_forms(self, tmp_path, values, expected):
        code = run(["scan", "--model", "weyl-lattice", "--param", "m=2",
                    "--values", values, "--mesh", "8x8", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert [r[0] for r in csv.reader(rows[1:])] == expected

    @pytest.mark.parametrize("values", ["a,b", "", "1.0,,2.0", "-1.0,nan"])
    def test_scan_bad_values_exit_64(self, tmp_path, capsys, values):
        code = run(["scan", "--model", "weyl-lattice", "--values", values,
                    "--out", str(tmp_path)])
        assert code == 64
        assert "argument --values" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_link_four_band(self, tmp_path, capsys):
        code = run(
            ["link", "--model", "four-band-linked", "--param", "m=1",
             "--grid", "32", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "linking.json").read_text())
        assert len(payload["pairs"]) == 1
        assert abs(payload["pairs"][0]["value"]) == 1


class TestCohomologyCmd:
    def test_loop_fixture(self, tmp_path, capsys):
        code = run(
            ["cohomology", "--fixture", "loop", "--resolution", "8",
             "--tube-voxels", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cohomology.json").read_text())
        names = {v["name"] for v in payload["verdicts"]}
        assert any(name.startswith("mv_dimension_check") for name in names)
        assert all(v["passed"] for v in payload["verdicts"])
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_none_fixture_torus(self, tmp_path):
        code = run(
            ["cohomology", "--fixture", "none", "--resolution", "8",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cohomology.json").read_text())
        t3 = [t for t in payload["tables"] if t["space"].startswith("T3")]
        assert t3[0]["groups"]["Q"]["ranks"] == [1, 3, 3, 1]

    def test_torsion_fixture_fails(self, tmp_path):
        code = run(
            ["cohomology", "--fixture", "torsion", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_from_locus(self, tmp_path):
        code = run(
            ["locate", "--model", "nodal-loop-real", "--param", "m=2",
             "--grid", "32", "--out", str(tmp_path)]
        )
        assert code == 0
        code = run(
            ["cohomology", "--from-locus", str(tmp_path / "locus.json"),
             "--resolution", "12", "--tube-voxels", "1", "--no-integral",
             "--out", str(tmp_path)]
        )
        assert code == 0


    @staticmethod
    def uct_spaces(payload):
        return [v["table"]["space"] for v in payload["verdicts"]
                if v["name"].startswith("uct_check")]

    def test_integral_checks_actual_spaces(self, tmp_path):
        code = run(
            ["cohomology", "--fixture", "link", "--resolution", "16",
             "--tube-voxels", "1", "--integral", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cohomology.json").read_text())
        assert self.uct_spaces(payload) == [
            "T3(n=16)", "T3-minus-tube(n=16)", "tube(n=16,r=1)", "S_W(n=16,r=1)"
        ]
        assert all(v["passed"] for v in payload["verdicts"])
        # the tables and the UCT verdicts describe the same spaces
        assert [t["space"] for t in payload["tables"]] == self.uct_spaces(payload)

    def test_integral_from_locus(self, tmp_path):
        assert run(["locate", "--model", "nodal-loop-real", "--param", "m=2",
                    "--grid", "32", "--out", str(tmp_path)]) == 0
        code = run(
            ["cohomology", "--from-locus", str(tmp_path / "locus.json"),
             "--resolution", "16", "--tube-voxels", "1", "--integral",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cohomology.json").read_text())
        assert self.uct_spaces(payload) == [
            "T3(n=16)", "T3-minus-tube(n=16)", "tube(n=16,r=1)", "S_W(n=16,r=1)"
        ]
        assert all(v["passed"] for v in payload["verdicts"])

    @staticmethod
    def table_spaces(tmp_path):
        payload = json.loads((tmp_path / "cohomology.json").read_text())
        return [t["space"] for t in payload["tables"]], payload["verdicts"]

    def test_link_fixture_defaults_pass(self, tmp_path):
        # radius-1 tubes keep the two linked components apart
        assert run(["cohomology", "--fixture", "link", "--out", str(tmp_path)]) == 0
        spaces, verdicts = self.table_spaces(tmp_path)
        assert "tube(n=16,r=1)" in spaces
        assert verdicts and all(v["passed"] for v in verdicts)

    def test_explicit_tube_voxels_kept(self, tmp_path, capsys):
        code = run(["cohomology", "--fixture", "link", "--tube-voxels", "2",
                    "--no-integral", "--out", str(tmp_path)])
        assert code == 1
        assert "self-touching" in capsys.readouterr().err

    def test_other_fixtures_default_radius_two(self, tmp_path):
        assert run(["cohomology", "--fixture", "point", "--no-integral",
                    "--out", str(tmp_path)]) == 0
        assert "tube(n=16,r=2)" in self.table_spaces(tmp_path)[0]

    @pytest.mark.parametrize("resolution", ["8", "15"])
    def test_link_fixture_small_resolution_exit_64(self, tmp_path, capsys, resolution):
        code = run(["cohomology", "--fixture", "link", "--resolution", resolution,
                    "--out", str(tmp_path)])
        assert code == 64
        assert "resolution >= 16" in capsys.readouterr().err
        assert not (tmp_path / "cohomology.json").exists()

    @pytest.mark.parametrize("resolution, radius", [("8", 1), ("10", 1), ("12", 2)])
    def test_loop_fixture_default_radius(self, tmp_path, resolution, radius):
        # below n = 12 the square (or the gap around it) is too narrow for r = 2
        assert run(["cohomology", "--fixture", "loop", "--resolution", resolution,
                    "--out", str(tmp_path)]) == 0
        spaces, verdicts = self.table_spaces(tmp_path)
        assert f"tube(n={resolution},r={radius})" in spaces
        assert verdicts and all(v["passed"] for v in verdicts)

    @pytest.mark.parametrize("fixture", ["none", "loop", "point"])
    @pytest.mark.parametrize("resolution", ["0", "-3", "2", "3"])
    def test_resolution_below_four_exit_64(self, tmp_path, capsys, fixture, resolution):
        code = run(["cohomology", "--fixture", fixture, "--resolution", resolution,
                    "--out", str(tmp_path)])
        assert code == 64
        assert "argument --resolution" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("radius", ["0", "-1", "-5"])
    def test_tube_voxels_below_one_exit_64(self, tmp_path, capsys, radius):
        code = run(["cohomology", "--fixture", "point", "--resolution", "8",
                    f"--tube-voxels={radius}", "--out", str(tmp_path)])
        assert code == 64
        assert "argument --tube-voxels" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("radius", ["1", "2"])
    @pytest.mark.parametrize("resolution", ["4", "5", "6", "7"])
    def test_loop_fixture_below_eight_exit_64(self, tmp_path, capsys, resolution, radius):
        code = run(["cohomology", "--fixture", "loop", "--resolution", resolution,
                    "--tube-voxels", radius, "--out", str(tmp_path)])
        assert code == 64
        assert "--resolution >= 8" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_snf_resolution_removed(self, tmp_path, capsys):
        code = run(["cohomology", "--resolution", "8", "--snf-resolution", "8",
                    "--out", str(tmp_path)])
        assert code == 64
        assert "--snf-resolution" in capsys.readouterr().err


class TestWilsonCsv:
    def test_spectra_come_from_ledger(self, tmp_path, monkeypatch):
        from bandtopo import invariants, mvcheck

        calls = []
        w2_on = invariants.w2_on

        def counted(model, surface, **kwargs):
            res = w2_on(model, surface, **kwargs)
            calls.append((surface.surface_id, res))
            return res

        monkeypatch.setattr(invariants, "w2_on", counted)
        monkeypatch.setattr(mvcheck, "w2_on", counted)
        code = run(["charges", "--model", "four-band-linked-lattice", "--param", "m=1",
                    "--grid", "32", "--wilson-csv", "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 8  # one per Fermi loop, none for the CSVs
        charges = json.loads((tmp_path / "charges.json").read_text())
        by_surface = {e["surface_id"]: e["id"] for e in charges["entries"]}
        written = sorted(p.name for p in tmp_path.glob("wilson_*.csv"))
        assert written == sorted(f"wilson_{by_surface[sid]}.csv" for sid, _ in calls)
        for sid, res in calls:
            with open(tmp_path / f"wilson_{by_surface[sid]}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["v", "wilson_angle"]
            assert rows[1:] == [[repr(float(a)), repr(float(b))] for a, b in res.spectrum]


class TestReportDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["report", "--model", "weyl-lattice", "--param", "m=2",
                "--grid", "32", "--mesh", "48x48"]
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        a = (out_a / "report.json").read_bytes()
        b = (out_b / "report.json").read_bytes()
        assert a == b
