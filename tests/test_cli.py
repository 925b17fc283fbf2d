import csv
import json
import os
import subprocess
import sys

import pytest

import bandtopo as bt
from bandtopo.cli import main

from conftest import gapped_model, random_two_band


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


    @pytest.mark.parametrize("grid", [16, 24, 32, 48])
    def test_box_arc_traced_to_the_wall(self, tmp_path, grid):
        # the arc of four-band-linked ends at the box wall at every grid
        code = run(["locate", "--model", "four-band-linked", "--param", "m=1",
                    "--grid", str(grid), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "locus.json").read_text())
        assert sorted(c["type"] for c in payload["components"]) == ["arc", "loop"]


class TestExitCodes:
    """Each argv gives its exit code from ``main``, in this process, without
    a traceback; the ``python -m bandtopo.cli`` entry path exits with
    ``main``'s return value."""

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
        # options a subcommand never reads are refused, not ignored
        (["cohomology", "--fixture", "none", "--resolution", "8", "--model", "no-such-model",
          "--mesh", "0x0", "--grid", "9999"], 64),
        (["locate", "--model", "weyl-lattice", "--param", "m=2", "--mesh", "0x0",
          "--tube-radius", "5"], 64),
        (["link", "--model", "weyl-lattice", "--param", "m=2", "--mesh", "banana"], 64),
        (["scan", "--model", "weyl-lattice", "--param", "m=2", "--grid", "1000",
          "--tube-radius", "3"], 64),
        (["scan", "--model", "weyl-lattice", "--param", "m=2", "--slices", "0"], 64),
        (["scan", "--model", "weyl-lattice", "--param", "m=2", "--slices=-2"], 64),
    ])
    def test_module_exit_status(self, tmp_path, monkeypatch, capsys, argv, code):
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "charges"])
    def test_degree_oracle_disagreement_fails(self, tmp_path, monkeypatch, capsys, command):
        import dataclasses

        from bandtopo import mvcheck

        true_degree = mvcheck.degree
        monkeypatch.setattr(mvcheck, "degree", lambda fld, surface: dataclasses.replace(
            true_degree(fld, surface), value=-true_degree(fld, surface).value))
        monkeypatch.chdir(tmp_path)
        argv = [command, "--model", "weyl-lattice", "--param", "m=2", "--grid", "16"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "degree oracle disagrees at P0" in err and "Traceback" not in err
        assert not (tmp_path / f"{command}.json").exists()

    def test_python_m_entry_exit_status(self, tmp_path):
        src = os.path.dirname(os.path.dirname(bt.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bandtopo.cli", "verify", "--model", "weyl-lattice",
             "--param", "m=2", "--ledger-file", "missing.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 64
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
        assert "argument --mesh: mesh sizes must be at least 3" in err
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

    @pytest.mark.parametrize("slices", ["0", "-1", "1.5"])
    def test_slices_below_one_exit_64(self, tmp_path, capsys, slices):
        code = run(["scan", "--model", "weyl-lattice", "--param", "m=2", "--mesh", "8x8",
                    f"--slices={slices}", "--out", str(tmp_path)])
        assert code == 64
        assert "argument --slices" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_one_slice_accepted(self, tmp_path):
        code = run(["scan", "--model", "weyl-lattice", "--param", "m=2", "--mesh", "8x8",
                    "--slices", "1", "--out", str(tmp_path)])
        assert code == 0
        assert len((tmp_path / "scan.csv").read_text().strip().splitlines()) == 2

    def test_smallest_sizes_accepted(self, tmp_path):
        # scan reads --mesh but no --grid; locate reads --grid
        code = run(["scan", "--model", "weyl-lattice", "--param", "m=2",
                    "--mesh", "3x3", "--values", "2.0", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert rows[1] == "2.0,0,0,"
        assert run(["locate", "--model", "weyl-lattice", "--param", "m=2",
                    "--grid", "8", "--out", str(tmp_path)]) == 0


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


class TestLedgerFileChecks:
    """A ledger file with fractional counts, or written for another model,
    is refused (exit 64) rather than verified."""

    @pytest.fixture(scope="class")
    def charges(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("charges")
        assert run(["charges", "--model", "weyl-lattice", "--param", "m=2",
                    "--grid", "32", "--mesh", "48x48", "--out", str(out)]) == 0
        return json.loads((out / "charges.json").read_text())

    def verify(self, tmp_path, payload, m="2"):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(payload))
        return run(["verify", "--model", "weyl-lattice", "--param", f"m={m}",
                    "--ledger-file", str(path), "--out", str(tmp_path)])

    def test_own_ledger_passes(self, tmp_path, charges):
        assert self.verify(tmp_path, charges) == 0

    @pytest.mark.parametrize("field", ["occupied_count", "gap_index"])
    def test_fractional_count_exit_64(self, tmp_path, capsys, charges, field):
        payload = json.loads(json.dumps(charges))
        owner = payload if field == "occupied_count" else payload["entries"][0]
        owner[field] += 0.7
        assert self.verify(tmp_path, payload) == 64
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_other_model_exit_64(self, tmp_path, capsys, charges):
        assert self.verify(tmp_path, charges, m="1.7") == 64
        assert "is for model 'weyl-lattice(m=2)'" in capsys.readouterr().err


class TestMalformedModelConfig:
    """A config value that is not finite, or not whole where an integer is
    meant, is a config error (exit 64), not a silently different model."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("model, key, value", [
        ("weyl-lattice", "amplitude", NAN),
        ("weyl-lattice", "amplitude", INF),
        ("weyl-lattice", "amplitude", -INF),
        ("weyl-lattice", "harmonic", [1.5, 0, 0]),
        ("weyl-lattice", "occupied_count", 1.7),
        ("weyl-lattice", "reality", "false"),
        ("four-band-linked", "harmonic", [-1, 0, 0]),
        ("four-band-linked", "extent", NAN),
        ("four-band-linked", "extent", INF),
    ])
    def test_report_exit_64(self, tmp_path, capsys, model, key, value):
        cfg = bt.builtin(model, m=2 if model == "weyl-lattice" else 1).to_config()
        entry = cfg["terms"][0]["coeff"][0]
        owner = {"amplitude": entry, "harmonic": entry, "occupied_count": cfg,
                 "reality": cfg, "extent": cfg["domain"]}[key]
        owner[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))  # NaN and Infinity tokens, as json reads them
        code = run(["report", "--config", str(path), "--grid", "16",
                    "--out", str(tmp_path / "out")])
        assert code == 64
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


class TestOccupiedRank:
    def test_one_occupied_band_reports_w1_and_notes_w2(self, tmp_path):
        # w2 needs two occupied bands: at rank 1 every Fermi loop says why it
        # has none, and the report still succeeds
        cfg = bt.builtin("four-band-linked-lattice", m=1).to_config()
        cfg["occupied_count"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        code = run(["report", "--config", str(path), "--grid", "16",
                    "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        entries = report["charges"]["entries"]
        loops = [e for e in entries if e["kind"] == "loop"]
        assert loops and all(e["berry_w1"] is not None for e in loops)
        fermi = [e for e in loops if e["gap_index"] == 1]
        assert fermi
        for e in fermi:
            assert e["w2"] is None
            assert "exactly 2 occupied bands" in e["notes"]
            assert "1 occupied of 4" in e["notes"]
        (w2,) = [v for v in report["charges"]["verdicts"] if v["name"] == "cancellation_w2"]
        assert w2["passed"] and not w2["applicable"]
        assert w2["detail"].startswith("not applicable: ")
        assert all(e["id"] in w2["detail"] for e in fermi)


# (chirality, Stokes, w2) of ``report --grid 32``: None where the law applies
# and passes, else the reason its "not applicable" detail gives
LEDGER_VERDICTS = {
    ("weyl-lattice", "2"): (None, None, "complex model"),
    ("nodal-loop-real", "2"): (None, "real model", "two-band real model"),
    ("four-band-linked", "1"): ("open box", "open box", "open box"),
    ("four-band-linked-lattice", "1"): (None, "real model", None),
}


@pytest.fixture(scope="module")
def builtin_reports(tmp_path_factory):
    """Exit code and report.json of ``report --grid 32`` on each builtin."""
    out = {}
    for name, m in LEDGER_VERDICTS:
        path = tmp_path_factory.mktemp(name)
        code = run(["report", "--model", name, "--param", f"m={m}", "--grid", "32",
                    "--out", str(path)])
        out[name] = code, json.loads((path / "report.json").read_text())
    return out


class TestLedgerVerdicts:
    """Every report carries the three ledger verdicts in order, each applying
    or saying why not."""

    @pytest.mark.parametrize("name, m", sorted(LEDGER_VERDICTS))
    def test_builtin_verdicts(self, builtin_reports, name, m):
        code, report = builtin_reports[name]
        assert code == 0
        verdicts = report["charges"]["verdicts"]
        assert [v["name"] for v in verdicts] == [
            "cancellation_chirality", "stokes_jump_check", "cancellation_w2"
        ]
        for v, reason in zip(verdicts, LEDGER_VERDICTS[name, m]):
            assert v["passed"] and v["applicable"] == (reason is None), v
            if reason is not None:
                assert v["detail"].startswith(f"not applicable: {reason}"), v

    def test_same_record_keys(self, builtin_reports, tmp_path):
        assert run(["cohomology", "--fixture", "loop", "--resolution", "8",
                    "--out", str(tmp_path)]) == 0
        records = json.loads((tmp_path / "cohomology.json").read_text())["verdicts"]
        for _, report in builtin_reports.values():
            records += report["charges"]["verdicts"]
        assert {tuple(sorted(v)) for v in records} == {
            ("applicable", "detail", "name", "passed", "table")
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_stokes_merges_brackets_of_skipped_slices(self, tmp_path, seed):
        # points that nearly share a kz put a midpoint slice next to W; the
        # brackets on either side of that slice are checked as one
        config = tmp_path / "model.json"
        bt.save_model_config(random_two_band(seed), config)
        assert run(["report", "--config", str(config), "--grid", "32",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        (stokes,) = [v for v in report["charges"]["verdicts"]
                     if v["name"] == "stokes_jump_check"]
        assert stokes["passed"] and stokes["applicable"]
        assert stokes["detail"].count("dC=") >= 2


class TestLedgerFileRoundTrip:
    """``verify --ledger-file charges.json`` reads back the ledger ``charges``
    wrote: its verify.json is byte-identical to ``verify`` on the model."""

    @pytest.mark.parametrize("name, m", [("weyl-lattice", "2"), ("four-band-linked-lattice", "1")])
    def test_verify_from_charges_file(self, tmp_path, name, m):
        model = ["--model", name, "--param", f"m={m}", "--grid", "32", "--mesh", "48x48"]
        assert run(["charges", *model, "--out", str(tmp_path / "c")]) == 0
        charges = tmp_path / "c" / "charges.json"
        entries = json.loads(charges.read_text())["entries"]
        if name == "four-band-linked-lattice":
            assert any(e["w2"] is not None for e in entries)
            assert any(e["berry_w1"] is not None for e in entries)
        direct = run(["verify", *model, "--out", str(tmp_path / "a")])
        from_file = run(["verify", *model, "--ledger-file", str(charges),
                         "--out", str(tmp_path / "b")])
        assert direct == from_file
        assert ((tmp_path / "a" / "verify.json").read_bytes()
                == (tmp_path / "b" / "verify.json").read_bytes())


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

    @pytest.mark.parametrize("resolution", ["4", "5"])
    def test_point_fixture_falls_back_to_radius_one(self, tmp_path, resolution):
        # a radius-2 tube fills a torus this small; radius 1 does not
        assert run(["cohomology", "--fixture", "point", "--resolution", resolution,
                    "--out", str(tmp_path)]) == 0
        spaces, verdicts = self.table_spaces(tmp_path)
        assert f"tube(n={resolution},r=1)" in spaces
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
