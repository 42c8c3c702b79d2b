import csv
import io
import json

import numpy as np
import pytest

from rootmaps import MapFamily, cluster_points
from rootmaps.cli import MapSpecError, main, parse_map_spec


class TestMapSpecParsing:
    def test_simple_specs(self):
        assert parse_map_spec("newton").family is MapFamily.NEWTON
        taylor = parse_map_spec("taylor:2")
        assert taylor.family is MapFamily.NEWTON_TAYLOR and taylor.k == 2
        bary = parse_map_spec("bary:3")
        assert bary.family is MapFamily.NEWTON_BARYCENTRIC and bary.k == 3

    def test_composition_is_outer_of_inner(self):
        spec = parse_map_spec("compose:bary:3,bary:2")
        assert spec.family is MapFamily.COMPOSITION
        outer, inner = spec.components
        assert outer.k == 3 and inner.k == 2
        assert spec.describe() == "compose:bary:3,bary:2"

    def test_nested_composition(self):
        spec = parse_map_spec("compose:compose:bary:1,bary:2,newton")
        outer, inner = spec.components
        assert outer.family is MapFamily.COMPOSITION
        assert inner.family is MapFamily.NEWTON

    @pytest.mark.parametrize(
        "text",
        ["", "halley", "bary:", "bary:x", "compose:bary:1", "newtonx", "bary:1,bary:2", "bary:99"],
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(MapSpecError):
            parse_map_spec(text)


class TestCoeffsCommand:
    def test_text_output(self, capsys):
        assert main(["coeffs", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "a_0 = 3/8" in out and "a_3 = 1/24" in out

    def test_json_output(self, capsys):
        assert main(["coeffs", "--k", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert [c["fraction"] for c in payload["coefficients"]] == ["5/12", "2/3", "-1/12"]
        assert payload["coefficients"][0]["value"] == pytest.approx(5.0 / 12.0)

    def test_csv_output_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "coeffs.csv"
        assert main(["coeffs", "--k", "1", "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [r["fraction"] for r in rows] == ["1/2", "1/2"]
        manifest = json.loads((tmp_path / "coeffs.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "coeffs"
        assert manifest["config"]["k"] == 1
        assert manifest["outputs"] == [str(out)]


class TestOrderCommand:
    def test_bary_order_three(self, capsys):
        assert main(
            ["order", "--problem", "cubic", "--family", "bary", "--k", "1", "--x0", "1.4"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "converged"
        assert payload["map"] == "bary:1"
        assert payload["estimated_order"] == pytest.approx(3.0, abs=0.3)
        assert payload["trajectory"][-1] == pytest.approx(1.2599210498948732, rel=1e-15)

    def test_insufficient_data_is_reported_not_raised(self, capsys):
        assert main(
            ["order", "--problem", "sine", "--family", "bary", "--k", "3", "--x0", "3.2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimated_order"] is None
        assert "order_estimate_note" in payload


class TestCaptureCommand:
    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "affine.csv"
        poly = tmp_path / "affine.poly"
        poly.write_text(
            "domain -2 2 -2 2\n"
            "poly 2 : 3.0 1 0 ; 1.0 0 1 ; -1.0 0 0\n"
            "poly 2 : 1.0 1 0 ; 2.0 0 1 ; 1.0 0 0\n"
        )
        assert main(
            [
                "capture",
                "--problem",
                str(poly),
                "--map",
                "newton",
                "--nx",
                "5",
                "--ny",
                "5",
                "--eps",
                "1e-6",
                "--out",
                str(out),
            ]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 25
        assert rows[0]["g"] == ""  # file-based systems carry no objective
        zero = np.linalg.solve([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
        points = [np.array([float(r["x2"]), float(r["y2"])]) for r in rows]
        # re-clustering parsed points is deterministic and matches the run
        first = cluster_points(points, 1e-3)
        second = cluster_points(points, 1e-3)
        assert len(first) == len(second) == 1
        assert np.array_equal(first[0].representative, second[0].representative)
        assert first[0].representative == pytest.approx(zero, abs=1e-6)
        manifest = json.loads((tmp_path / "affine.csv.manifest.json").read_text())
        assert manifest["config"]["map"] == "newton"
        assert manifest["version"]

    def test_json_format(self, capsys):
        assert main(
            [
                "capture",
                "--problem",
                "rutishauser",
                "--map",
                "bary:1",
                "--nx",
                "5",
                "--ny",
                "5",
                "--eps",
                "0.001",
                "--format",
                "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["map"] == "bary:1"
        assert payload["counts"]["seeded"] == 25
        total = (
            payload["counts"]["skipped_singular"]
            + payload["counts"]["step_failures"]
            + payload["counts"]["skipped_outside"]
            + payload["counts"]["rejected_tolerance"]
            + payload["counts"]["captured"]
        )
        assert total == 25

    def test_zero_captures_still_exits_zero(self, capsys):
        assert main(
            [
                "capture",
                "--problem",
                "rutishauser",
                "--map",
                "newton",
                "--nx",
                "3",
                "--ny",
                "3",
                "--eps",
                "1e-14",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("grid_i,grid_j,x0,y0,x2,y2,fnorm,g")

    def test_usage_errors_exit_two(self, capsys):
        for argv in (
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "-1"],
            ["capture", "--problem", "rutishauser", "--map", "halley", "--eps", "0.1"],
            ["capture", "--problem", "rutishauser", "--map", "taylor:1", "--eps", "0.1"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1", "--nx", "1"],
            ["coeffs", "--k", "3", "--bogus"],
            ["coeffs", "--k", "-2"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "nan"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1",
             "--cluster-radius", "inf"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1",
             "--seed", "1"],
            ["reproduce", "--example", "example1", "--seed", "1"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--tol", "nan"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "nan"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "-inf"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--max-iter", "0"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--max-iter", "-3"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_problem_errors_exit_three(self, tmp_path, capsys):
        assert main(
            ["capture", "--problem", "no-such-file", "--map", "bary:1", "--eps", "0.1"]
        ) == 3
        assert "no-such-file" in capsys.readouterr().err
        assert main(
            ["capture", "--problem", str(tmp_path), "--map", "bary:1", "--eps", "0.1"]
        ) == 3
        assert str(tmp_path) in capsys.readouterr().err
        assert main(["order", "--problem", "quartic", "--family", "newton", "--x0", "1.0"]) == 3
        assert "quartic" in capsys.readouterr().err
        bad = tmp_path / "bad.poly"
        bad.write_text("wibble\n")
        assert main(["capture", "--problem", str(bad), "--map", "bary:1", "--eps", "0.1"]) == 3
        # missing domain line: needed for grid construction
        nodomain = tmp_path / "nodomain.poly"
        nodomain.write_text("poly 2 : 1.0 1 0\npoly 2 : 1.0 0 1\n")
        assert main(
            ["capture", "--problem", str(nodomain), "--map", "bary:1", "--eps", "0.1"]
        ) == 3
        capsys.readouterr()


class TestReproduceCommand:
    def test_example1_report(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(
            ["reproduce", "--example", "example1", "--threads", "2", "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "reference counts: 1, 50, 8, 89, 4, 77, 6, 18" in out
        assert "t_32" in out
        report = json.loads((out_dir / "example1-report.json").read_text())
        assert [row["label"] for row in report["maps"]] == [
            "t_0",
            "t_1",
            "t_2",
            "t_3",
            "t_4",
            "t_5",
            "t_21",
            "t_32",
        ]
        assert (out_dir / "example1-t_32.csv").exists()
        manifest = json.loads((out_dir / "example1-manifest.json").read_text())
        assert len(manifest["outputs"]) == 9

    def test_example1_report_is_deterministic(self, capsys):
        assert main(["reproduce", "--example", "example1", "--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "--example", "example1", "--threads", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_example2_coarse_report(self, capsys):
        assert main(["reproduce", "--example", "example2-coarse", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "reference counts: 12, 28, 60, 64, 52, 208" in out
        assert "t_54" in out

    def test_example2_fine_configuration(self):
        from rootmaps.cli import REPRODUCE_SETUPS

        problem, nx, ny, eps, maps = REPRODUCE_SETUPS["example2-fine"]
        assert (problem, nx, ny, eps) == ("ackley", 41, 41, 0.1)
        assert maps == [("t_54", "compose:bary:5,bary:4", 664)]
