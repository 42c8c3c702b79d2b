import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import types
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import test_golden
from rootmaps import capture, cli
from rootmaps.capture import CaptureCounts, CaptureResult, cluster_points
from rootmaps.maps1d import MapFamily
from rootmaps.cli import MapSpecError, build_parser, main, parse_map_spec


def assert_environment(manifest):
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    assert list(manifest)[-2:] == ["argv", "environment"]


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
        ["", "halley", "bary:", "bary:x", "compose:bary:1", "newtonx", "bary:1,bary:2", "bary:99", "bary:²"],
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
        assert manifest["argv"] == ["coeffs", "--k", "1", "--format", "csv", "--out", str(out)]
        assert_environment(manifest)


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

    def test_out_and_manifest(self, tmp_path):
        out = tmp_path / "order.json"
        argv = ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["status"] == "converged"
        manifest = json.loads((tmp_path / "order.json.manifest.json").read_text())
        assert manifest["subcommand"] == "order"
        assert manifest["argv"] == argv
        assert_environment(manifest)

    def test_insufficient_data_is_reported_not_raised(self, capsys):
        assert main(
            ["order", "--problem", "sine", "--family", "bary", "--k", "3", "--x0", "3.2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimated_order"] is None
        assert "order_estimate_note" in payload


@pytest.mark.parametrize(
    "argv, manifest",
    [
        (["coeffs", "--k", "4", "--format", "csv"], "out.manifest.json"),
        (["order", "--problem", "exp2", "--family", "taylor", "--k", "2", "--x0", "0.9", "--tol", "1e-10"],
         "out.manifest.json"),
        (["capture", "--problem", "rutishauser", "--map", "bary:02", "--nx", "4", "--ny", "3", "--eps", "0.01",
          "--norm", "euclidean"], "out.manifest.json"),
        (["reproduce", "--example", "example1", "--cluster-radius", "0.01", "--format", "json"],
         "out/example1-manifest.json"),
    ],
    ids=["coeffs", "order", "capture", "reproduce"],
)
def test_manifest_config_is_the_parsed_arguments(argv, manifest, tmp_path, capsys):
    argv = [*argv, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    written = json.loads((tmp_path / manifest).read_text())
    parsed = vars(build_parser().parse_args(argv))
    assert written["subcommand"] == parsed.pop("subcommand") == argv[0]
    assert written["config"] == parsed
    assert list(written) == ["subcommand", "config", "version", "duration_seconds", "outputs", "argv", "environment"]
    assert written["argv"] == argv
    assert_environment(written)


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
        first_labels, first = cluster_points(points, 1e-3)
        second_labels, second = cluster_points(points, 1e-3)
        assert len(first) == len(second) == 1
        assert first_labels.tolist() == second_labels.tolist() == [0] * 25
        assert np.array_equal(first[0], second[0])
        assert first[0] == pytest.approx(zero, abs=1e-6)
        manifest = json.loads((tmp_path / "affine.csv.manifest.json").read_text())
        assert manifest["config"]["map"] == "newton"
        assert manifest["version"]
        assert manifest["argv"][:3] == ["capture", "--problem", str(poly)]
        assert manifest["argv"][-2:] == ["--out", str(out)]
        assert_environment(manifest)

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

    def test_empty_capture_renders_no_rows(self, capsys):
        argv = ["capture", "--problem", "rutishauser", "--map", "bary:1", "--nx", "5", "--ny", "5", "--eps", "1e-300"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "grid_i,grid_j,x0,y0,x2,y2,fnorm,g\n"
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["captured"] == [] and payload["clusters"] == [] and payload["counts"]["captured"] == 0

    def test_no_objective_renders_an_empty_g_field_and_null(self, tmp_path, capsys):
        poly = tmp_path / "affine.poly"
        poly.write_text("domain -2 2 -2 2\n"
                        "poly 2 : 3.0 1 0 ; 1.0 0 1 ; -1.0 0 0\npoly 2 : 1.0 1 0 ; 2.0 0 1 ; 1.0 0 0\n")
        argv = ["capture", "--problem", str(poly), "--map", "newton", "--nx", "3", "--ny", "4", "--eps", "1e-6"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 13 and all(row.count(",") == 7 and row.endswith(",") for row in rows[1:])
        assert main([*argv, "--format", "json"]) == 0
        captured = json.loads(capsys.readouterr().out)["captured"]
        assert len(captured) == 12 and [row["g"] for row in captured] == [None] * 12

    def test_rows_keep_the_sign_of_a_zero(self):
        # a seed coordinate of -0.0 is formatted apart from one of 0.0, and -0.0 keeps its sign in both outputs
        columns = np.array([3, 3]), np.array([0, 4]), np.array([[-0.0, 0.25], [0.0, -0.0]]), np.array(
            [[-1e-9, -0.0], [0.0, 2.5]]), np.array([1e-4, 0.0]), np.array([-0.0, 0.0])
        result = CaptureResult(*columns, np.array([[0.0, 0.0]]), CaptureCounts(seeded=2, captured=2), np.zeros(2, int))
        assert cli.render_capture_csv(result).splitlines()[1:] == [
            "3,0,-0.000000,0.250000,-0.000000,-0.000000,1.000000000e-04,-0.000000",
            "3,4,0.000000,-0.000000,0.000000,2.500000,0.000000000e+00,0.000000",
        ]
        rows = cli.capture_result_to_dict(result)["captured"]
        assert [repr(row["x0"]) for row in rows] == ["-0.0", "0.0"] and json.dumps(rows[0]["g"]) == "-0.0"

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        existing = tmp_path / "existing"
        existing.write_text("")
        missing = tmp_path / "missing"
        for argv in (
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "-1"],
            ["capture", "--problem", "rutishauser", "--map", "halley", "--eps", "0.1"],
            ["capture", "--problem", "rutishauser", "--map", "taylor:1", "--eps", "0.1"],
            ["capture", "--problem", "rutishauser", "--map", "compose:bary:1,taylor:2", "--eps", "0.1"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1", "--nx", "1"],
            ["coeffs", "--k", "3", "--bogus"],
            ["coeffs", "--k", "-2"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "nan"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1",
             "--cluster-radius", "inf"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1",
             "--seed", "1"],
            ["reproduce", "--example", "example1", "--seed", "1"],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1",
             "--threads", "2"],
            ["reproduce", "--example", "example1", "--threads", "2"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--tol", "nan"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "nan"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "-inf"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--max-iter", "0"],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--max-iter", "-3"],
            ["order", "--problem", "cubic", "--family", "taylor", "--k", "6", "--x0", "1.5"],
            ["order", "--problem", "exp2", "--family", "taylor", "--k", "6", "--x0", "1.0"],
            ["order", "--problem", "sine", "--family", "taylor", "--k", "20", "--x0", "3.0"],
            ["order", "--problem", "cubic", "--family", "newton", "--k", "7", "--x0", "1.4"],
            ["coeffs", "--k", "3", "--out", str(missing / "c.txt")],
            ["order", "--problem", "cubic", "--family", "newton", "--x0", "1.4", "--out", str(missing / "o.json")],
            ["capture", "--problem", "rutishauser", "--map", "bary:1", "--eps", "0.1", "--nx", "3", "--ny", "3",
             "--out", str(missing / "c.csv")],
            ["reproduce", "--example", "example1", "--out", str(existing)],
            ["reproduce", "--example", "example1", "--out", ""],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_unwritable_out_is_named_and_reproduce_fails_before_scanning(self, tmp_path, capsys):
        existing = tmp_path / "existing"
        existing.write_text("")
        for argv in (["coeffs", "--k", "3", "--out", str(tmp_path / "missing" / "c.txt")],
                     ["reproduce", "--example", "example1", "--out", str(existing)]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert "argument --out: [Errno" in captured.err and captured.out == ""

    def test_unwritable_out_fails_before_the_scan(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the scan ran before --out was checked")

        # the walk, two_steps, is the costly part of a scan, and it runs before run_capture
        monkeypatch.setattr("rootmaps.cli.two_steps", no_scan)
        monkeypatch.setattr("rootmaps.cli.run_capture", no_scan)
        scan = ["capture", "--problem", "ackley", "--map", "compose:bary:5,bary:4", "--nx", "41", "--ny", "41",
                "--eps", "0.1"]
        existing = tmp_path / "existing"
        existing.write_text("kept\n")
        for out, named in ((tmp_path / "missing" / "x.csv", "missing"), (tmp_path, tmp_path.name),
                           (existing / "x.csv", "existing"), (existing / "sub" / "x.csv", "existing"),
                           ("", "''")):
            with pytest.raises(OSError) as opened:
                open(out, "w")
            with pytest.raises(SystemExit) as excinfo:
                main([*scan, "--out", str(out)])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert f"argument --out: [Errno {opened.value.errno}]" in captured.err
            assert named in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
        assert existing.read_text() == "kept\n"

    def test_out_is_not_truncated_before_the_work(self, tmp_path, capsys):
        out = tmp_path / "kept.csv"
        out.write_text("kept\n")
        bad = tmp_path / "bad.poly"
        bad.write_text("wibble\n")
        assert main(["capture", "--problem", str(bad), "--map", "bary:1", "--eps", "0.1", "--out", str(out)]) == 3
        capsys.readouterr()
        assert out.read_text() == "kept\n"
        assert not (tmp_path / "kept.csv.manifest.json").exists()

    def test_taylor_index_beyond_the_derivatives_names_both_orders(self, capsys):
        # every built-in scalar problem supplies 6 derivatives; taylor:k needs k + 1
        with pytest.raises(SystemExit) as excinfo:
            main(["order", "--problem", "cubic", "--family", "taylor", "--k", "6", "--x0", "1.5"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "taylor:6 needs derivatives up to order 7; problem 'cubic' supplies 6" in captured.err
        assert captured.out == ""

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
        # non-finite numbers in a file: the line is named, nothing is scanned
        for line in ("domain -inf inf -1 1", "domain nan 1 -1 1", "poly 2 : nan 1 0", "poly 2 : 1.0 1 0 ; inf 0 1"):
            nonfinite = tmp_path / "nonfinite.poly"
            nonfinite.write_text(f"{line}\npoly 2 : 1.0 1 0 ; 1.0 0 1\npoly 2 : 1.0 0 1\n")
            assert main(["capture", "--problem", str(nonfinite), "--map", "bary:1", "--eps", "0.1"]) == 3
            captured = capsys.readouterr()
            assert "line 1: non-finite" in captured.err and captured.out == ""
        inverted = tmp_path / "inverted.poly"
        inverted.write_text("poly 2 : 1.0 1 0\npoly 2 : 1.0 0 1\ndomain 1 -1 -1 1\n")
        assert main(["capture", "--problem", str(inverted), "--map", "bary:1", "--eps", "0.1"]) == 3
        captured = capsys.readouterr()
        assert "line 3: domain has lo > hi" in captured.err and captured.out == ""
        # keywords are whole words, a file has one domain line, and a grid
        # scan needs a 2-D system whatever its file says about the domain
        components = "poly 2 : 1.0 1 0\npoly 2 : 1.0 0 1\n"
        components3 = "poly 3 : 1.0 1 0 0\npoly 3 : 1.0 0 1 0\npoly 3 : 1.0 0 0 1\n"
        for text, message in (
            ("domainz -2 2 -2 2\n" + components, "line 1: unrecognized line"),
            ("domain -2 2 -2 2\npoly2 : 1.0 1 0\npoly 2 : 1.0 0 1\n", "line 2: unrecognized line"),
            ("domain-2 2 -2 2 9\n" + components, "line 1: unrecognized line"),
            (components + "domain -2 2 -2 2\ndomain -1 1 -1 1\n", "line 4: second domain line"),
            (components3, "grid scans are 2-D; problem"),
            (components3 + "domain -1 1 -1 1\n", "line 4: the domain is 2-D but the system is 3-dimensional"),
        ):
            keywords = tmp_path / "keywords.poly"
            keywords.write_text(text)
            assert main(["capture", "--problem", str(keywords), "--map", "bary:1", "--eps", "0.1"]) == 3
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""
        huge = tmp_path / "huge.poly"
        huge.write_text(f"poly 2 : 1.0 {2**70} 0 ; 1.0 0 1\npoly 2 : 1.0 0 1\n")
        assert main(["capture", "--problem", str(huge), "--map", "bary:1", "--eps", "1e-3"]) == 3
        captured = capsys.readouterr()
        assert "line 1: exponent outside 0 .. 2**63 - 1" in captured.err and captured.out == ""
        latin1 = tmp_path / "latin1.poly"
        latin1.write_bytes("# coefficients by G\u00f6del\npoly 1 : 1.0 1\n".encode("latin-1"))
        assert main(["capture", "--problem", str(latin1), "--map", "bary:1", "--eps", "0.1"]) == 3
        captured = capsys.readouterr()
        assert "not UTF-8 text" in captured.err and captured.out == ""

    def test_domain_whose_span_overflows_exits_three(self, tmp_path, capsys):
        # both bounds are finite, but hi - lo is inf on the x axis: the file is
        # rejected at its domain line, before any grid vertex is computed
        path = tmp_path / "wide.poly"
        path.write_text("domain -1e308 1e308 -1 1\npoly 2 : 1.0 1 0 ; -0.5 0 0\npoly 2 : 1.0 0 1\n")
        argv = ["capture", "--problem", str(path), "--map", "bary:1", "--eps", "1e-3", "--nx", "3", "--ny", "3"]
        assert main([*argv, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert "line 1: non-finite domain bound or span in 'domain -1e308 1e308 -1 1'" in captured.err
        assert captured.out == ""


    def test_zero_determinant_seeds_are_skipped_as_singular(self, tmp_path, capsys):
        # J is [[1e-160, 0], [0, 0]] everywhere: the pivot floor underflows to
        # 0.0, and the zero determinant still marks every seed singular
        path = tmp_path / "zero_det.poly"
        path.write_text("domain -1 1 -1 1\npoly 2 : 1e-160 1 0 ; 1.0 0 0\npoly 2 : 0.0 0 1\n")
        argv = ["capture", "--problem", str(path), "--map", "bary:1", "--eps", "0.001"]
        assert main(argv + ["--format", "json"]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts == {
            "seeded": 361, "skipped_singular": 361, "step_failures": 0,
            "skipped_outside": 0, "rejected_tolerance": 0, "captured": 0,
        }
        assert main(argv) == 0
        assert capsys.readouterr().out == "grid_i,grid_j,x0,y0,x2,y2,fnorm,g\n"


# Zeros of both signs, values that round to +-0.000000, subnormals, and values near the float range's ends.
EDGE_FLOATS = [0.0, -0.0, 4e-7, -4e-7, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300,
               1.7976931348623157e308, 0.5, -2.5, 1234.5678905]


@st.composite
def capture_results(draw):
    """A CaptureResult of m <= 40 rows whose floats mostly come from a pool of at most 6, so values repeat
    heavily within and across columns, with the edge values above and any float mixed in."""
    m = draw(st.integers(0, 40))
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), min_size=1, max_size=6))
    elements = st.one_of(st.sampled_from(pool), st.sampled_from(EDGE_FLOATS), st.floats())
    floats = partial(hnp.arrays, np.float64, elements=elements)
    indices = partial(hnp.arrays, np.int64, m, elements=st.one_of(st.integers(0, 40), st.integers(0, 2**62)))
    objectives = draw(st.one_of(st.none(), floats(m)))
    return CaptureResult(draw(indices()), draw(indices()), draw(floats((m, 2))), draw(floats((m, 2))),
                         draw(floats(m)), objectives, np.zeros((0, 2)), CaptureCounts(seeded=m, captured=m),
                         np.zeros(m, np.int64))


def per_row_csv(result):
    """The CSV as each row's own format: one % of 8 fields, or of 7 with an empty g field."""
    row = "%d,%d,%.6f,%.6f,%.6f,%.6f,%.9e," + ("" if result.objectives is None else "%.6f")
    g = [] if result.objectives is None else [result.objectives.tolist()]
    rows = zip(result.grid_i.tolist(), result.grid_j.tolist(), *result.seeds.T.tolist(), *result.points.T.tolist(),
               result.fnorms.tolist(), *g)
    return "".join([",".join(cli.CAPTURE_COLUMNS) + "\n", *(row % fields + "\n" for fields in rows)])


EMPTY_RESULT = CaptureResult(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros((0, 2)),
                             np.zeros(0), None, np.zeros((0, 2)), CaptureCounts(), np.zeros(0, np.int64))


class TestRenderCaptureCsv:
    @given(capture_results())
    @example(EMPTY_RESULT)
    @example(EMPTY_RESULT._replace(objectives=np.zeros(0)))
    def test_matches_per_row_formatting(self, result):
        # each distinct value is formatted once, keyed by its bits; the bytes are those of formatting every row
        assert cli.render_capture_csv(result) == per_row_csv(result)


class TestParserReuse:
    """main builds its parser on its first call, from the module's build_parser, and reuses it."""

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        monkeypatch.setattr(cli, "_parser", None)
        assert main(["coeffs", "--k", "2"]) == 0 and main(["coeffs", "--k", "3", "--format", "csv"]) == 0
        assert len(builds) == 1
        assert "a_0 = 5/12" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["coeffs", "--k", "-2"],
                                      ["capture", "--problem", "rutishauser", "--map", "halley", "--eps", "0.1"]],
                             ids=["parse-time", "command-time"])
    def test_a_usage_error_repeats(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_parser", None)
        messages = []
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] and messages[0].startswith("usage: rootmaps ")


class TestReproduceCommand:
    def test_example1_report(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["reproduce", "--example", "example1", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "reference counts: 1, 50, 8, 89, 4, 77, 6, 18" in out
        assert "t_32" in out
        report_json = (out_dir / "example1-report.json").read_text(encoding="utf-8")
        labels = ["t_0", "t_1", "t_2", "t_3", "t_4", "t_5", "t_21", "t_32"]
        assert [row["label"] for row in json.loads(report_json)["maps"]] == labels
        manifest = json.loads((out_dir / "example1-manifest.json").read_text())
        names = ["report.json", *(f"{label}.csv" for label in labels)]
        assert manifest["outputs"] == [str(out_dir / f"example1-{name}") for name in names]
        assert all(os.path.isfile(path) for path in manifest["outputs"])
        assert manifest["argv"] == ["reproduce", "--example", "example1", "--out", str(out_dir)]
        assert_environment(manifest)
        assert main(["reproduce", "--example", "example1", "--format", "json"]) == 0
        assert capsys.readouterr().out == report_json

    def test_example1_report_is_deterministic(self, capsys):
        assert main(["reproduce", "--example", "example1"]) == 0
        first = capsys.readouterr().out
        assert main(["reproduce", "--example", "example1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_report_is_encoded_only_where_it_is_read(self, tmp_path, monkeypatch, capsys):
        # text to stdout reads no JSON; --format json prints one encoding, and
        # --out writes the report's and the manifest's
        calls = []
        monkeypatch.setattr(cli.json, "dumps", lambda *a, dumps=json.dumps, **kw: calls.append(a) or dumps(*a, **kw))
        for argv, encodings in ([[], 0], [["--format", "json"], 1], [["--out", str(tmp_path)], 2]):
            calls.clear()
            assert main(["reproduce", "--example", "example1", *argv]) == 0
            assert len(calls) == encodings and capsys.readouterr().out

    def test_example2_coarse_report(self, capsys):
        assert main(["reproduce", "--example", "example2-coarse"]) == 0
        out = capsys.readouterr().out
        assert "reference counts: 12, 28, 60, 64, 52, 208" in out
        assert "t_54" in out

    def test_report_objective_is_one_call_per_example(self, monkeypatch):
        # after each run_capture's own call, one call on every map's stacked top
        # representatives, whose values are the one-point ones bit for bit; no call
        # without a cluster
        calls = []
        problem = cli.vector_problem("rutishauser")
        counting = dataclasses.replace(problem, objective=lambda p: calls.append(p.shape) or problem.objective(p))
        monkeypatch.setattr(cli, "vector_problem", lambda name: counting)
        report, results = cli._reproduce_report("example1", 1e-3)
        expected = [(result.counts.captured, 2) for result in results.values()]
        expected.append((sum(len(row["clusters"]) for row in report["maps"]), 2))
        for row in report["maps"]:
            for cl in row["clusters"]:
                assert repr(cl["g"]) == repr(float(problem.objective(np.array([cl["x"], cl["y"]]))))
        assert calls == expected and all(row["clusters"] for row in report["maps"])
        calls.clear()
        no_rows = np.zeros(0, int), np.zeros(0, int), np.empty((0, 2)), np.empty((0, 2)), np.empty(0), np.empty(0)
        counts = CaptureCounts(seeded=361, skipped_outside=361)
        empty = CaptureResult(*no_rows, np.empty((0, 2)), counts, np.zeros(0, int))
        monkeypatch.setattr(cli, "run_capture", lambda problem, config, steps: empty)
        report, _ = cli._reproduce_report("example1", 1e-3)
        assert calls == [] and [row["clusters"] for row in report["maps"]] == [[]] * 8

    def test_one_grid_build_per_example(self, monkeypatch):
        # the maps step from one build of the grid, and every scan takes its captured
        # rows' seeds from that build
        builds = []
        build = capture.make_grid
        monkeypatch.setattr(capture, "make_grid", lambda spec: builds.append(spec) or build(spec))
        _, results = cli._reproduce_report("example1", 1e-3)
        assert len(builds) == 1 and sum(result.counts.captured for result in results.values()) > 0
        seeds = build(builds[0])
        for result in results.values():
            for c in result.captured:
                assert c.seed.tobytes() == seeds[c.grid_i * builds[0].ny + c.grid_j].tobytes()

    def test_run_capture_is_called_once_per_map_in_listed_order(self, tmp_path, monkeypatch, capsys):
        # a caller that observes the scans through cli.run_capture sees one call per
        # map, on the maps' entries of one walk in listed order, and each returned
        # result is the one in that map's CSV
        walked, returned, rendered = [], [], []

        def two_steps(problem, grid, maps, walk=cli.two_steps):
            walked.append(([iter_map.describe() for iter_map in maps], walk(problem, grid, maps)))
            return walked[-1][1]

        def run_capture(problem, config, steps, run=cli.run_capture):
            returned.append((steps, run(problem, config, steps)))
            return returned[-1][1]

        def render_capture_csv(result, render=cli.render_capture_csv):
            rendered.append(result)
            return render(result)

        monkeypatch.setattr(cli, "two_steps", two_steps)
        monkeypatch.setattr(cli, "run_capture", run_capture)
        monkeypatch.setattr(cli, "render_capture_csv", render_capture_csv)
        assert main(["reproduce", "--example", "example1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        listed = cli.REPRODUCE_SETUPS["example1"][4]
        [(specs, entries)] = walked
        assert specs == [spec for _, spec, _ in listed]
        assert len(returned) == len(entries) and all(a is b for (a, _), b in zip(returned, entries))
        assert len(rendered) == len(listed) and all(a is b for a, (_, b) in zip(rendered, returned))
        for (label, _, _), (_, result) in zip(listed, returned):
            csv_text = (tmp_path / f"example1-{label}.csv").read_text(encoding="utf-8")
            assert csv_text == cli.render_capture_csv(result)
            assert csv_text.count("\n") == result.counts.captured + 1

    def test_example2_fine_configuration(self):
        from rootmaps.cli import REPRODUCE_SETUPS

        problem, nx, ny, eps, maps = REPRODUCE_SETUPS["example2-fine"]
        assert (problem, nx, ny, eps) == ("ackley", 41, 41, 0.1)
        assert maps == [("t_54", "compose:bary:5,bary:4", 664)]


def load_benchmark_workloads():
    """perfbench/workloads.py, the benchmark's scans and output checks, loaded by path; nothing is
    written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("benchmark_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = load_benchmark_workloads()


class TestBenchmarkSeam:
    """The benchmark runs each scan through cli.main and checks every pass on the results it
    observes through cli.run_capture (perfbench/worker.py): one call per map, in listed order."""

    @pytest.mark.parametrize("name", list(WORKLOADS.SCANS))
    def test_scan_passes_the_benchmark_checks(self, name, tmp_path, monkeypatch, capsys):
        scan = WORKLOADS.SCANS[name]
        poly_file, poly_coeffs = tmp_path / "problem.poly", None
        if scan.problem == WORKLOADS.POLY_FILE:
            poly_coeffs = WORKLOADS.poly_coefficients(1)
            WORKLOADS.write_poly_file(poly_coeffs, poly_file)
        results = []

        def observed(*args, run=cli.run_capture):
            results.append(run(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run_capture", observed)
        out = tmp_path / "out"
        out.mkdir()
        csv_path = out / "captured.csv"
        argv = WORKLOADS.scan_argv(scan, out if scan.args[0] == "reproduce" else csv_path, str(poly_file))
        assert main(argv) == 0
        capsys.readouterr()
        assert WORKLOADS.check_scan(scan, results, poly_coeffs) == []
        if scan.args[0] == "capture":
            assert csv_path.read_text(encoding="utf-8").count("\n") - 1 == results[0].counts.captured


class TestRendersFromColumns:
    """Every CLI output is rendered from a scan's columns: with CapturedPoint raising,
    capture and reproduce still exit 0 with their golden bytes."""

    @pytest.fixture(autouse=True)
    def no_records(self, monkeypatch):
        def refuse(*fields):
            raise AssertionError("a CLI pass built a CapturedPoint record")

        monkeypatch.setattr(capture, "CapturedPoint", refuse)

    CAPTURES = [pair for pair in test_golden.GOLDEN if pair[0].startswith("capture")]

    @pytest.mark.parametrize("command, digest", CAPTURES, ids=[command for command, _ in CAPTURES])
    def test_capture(self, command, digest, capsys):
        test_golden.test_output_digest(command, digest, capsys)

    def test_reproduce_out(self, tmp_path, capsys):
        test_golden.test_reproduce_csv_file_digest(tmp_path, capsys)
        digests = dict(test_golden.GOLDEN)
        for example in cli.REPRODUCE_SETUPS:
            out = tmp_path / example
            assert main(["reproduce", "--example", example, "--out", str(out)]) == 0
            text = capsys.readouterr().out
            assert hashlib.sha256(text.encode()).hexdigest() == digests[f"reproduce --example {example}"]
            assert len(list(out.glob("*.csv"))) == len(cli.REPRODUCE_SETUPS[example][4])
