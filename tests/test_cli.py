"""Command surface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaplab
import gaplab.cli
from gaplab import save_instance
from gaplab.catalog import diag_inf
from gaplab.cli import _fmt, main, parse_set_descriptor
from gaplab.core import ConfigurationError


def run_process(*argv):
    """Run the CLI in a child process, so that a hang fails instead of blocking."""
    env = dict(os.environ, PYTHONPATH=str(Path(gaplab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "gaplab.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestSolve:
    def test_diag_inf_n4(self, tmp_path):
        code, text = run(tmp_path, "solve", "--catalog", "diag_inf", "--n", "4")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "instance,n,primal,dual,status,duality_gap"
        assert lines[1] == "diag_inf,4,1,1,optimal,0"

    def test_trivial_zero(self, tmp_path):
        code, text = run(tmp_path, "solve", "--catalog", "trivial_zero", "--n", "8")
        assert code == 0
        assert "trivial_zero,8,0,0,optimal,0" in text

    def test_fat_set_value(self, tmp_path):
        from gaplab.catalog import complement_measure, fat_set_alpha

        code, text = run(
            tmp_path, "solve", "--catalog", "fat_set", "--K", "20", "--n", "64"
        )
        assert code == 0
        lam = complement_measure(fat_set_alpha(), 20)
        primal = float(text.strip().splitlines()[1].split(",")[2])
        assert primal == pytest.approx(lam, abs=1e-6)

    def test_infeasible_value_is_a_result_not_an_error(self, tmp_path):
        inst_path = tmp_path / "bad.json"
        # below-diagonal forbidden as well: no finite coupling at any n >= 2
        doc = {
            "name": "all_forbidden",
            "marginal_x": {"kind": "uniform"},
            "marginal_y": {"kind": "uniform"},
            "cost": {
                "regions": [
                    {"kind": "rectangle", "box": [0, 1, 0, 1], "value": "inf"}
                ]
            },
        }
        inst_path.write_text(json.dumps(doc))
        code, text = run(tmp_path, "solve", "--instance", str(inst_path), "--n", "4")
        assert code == 0
        assert "inf" in text and "infeasible_finite" in text

    def test_malformed_instance_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{this is not json")
        code = main(["solve", "--instance", str(bad), "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{"])
    def test_unreadable_instance_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "nope.json"
        if content is not None:  # present, but not UTF-8
            path.write_bytes(content)
        code = main(["solve", "--instance", str(path), "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read instance file") and str(path) in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("marginal_x", {"kind": "piecewise", "breakpoints": [0, 0.5, 1],
                            "values": [float("nan"), 1.0]}),
            ("cost", {"regions": [{"kind": "rectangle", "box": [0, 1, 0, 1], "value": 0.0},
                                  {"kind": "rectangle",
                                   "box": [float("nan"), 0.5, 0, 1], "value": 1.0}]}),
        ],
    )
    def test_nan_in_instance_exits_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "nan.json"
        save_instance(diag_inf(), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code = main(["solve", "--instance", str(path), "--n", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_instance_file_round_trip_through_cli(self, tmp_path):
        path = tmp_path / "diag.json"
        save_instance(diag_inf(), path)
        code, text = run(tmp_path, "solve", "--instance", str(path), "--n", "4,8")
        assert code == 0
        assert text.count("diag_inf") == 2

    def test_json_format(self, tmp_path):
        code, text = run(
            tmp_path, "solve", "--catalog", "diag_inf", "--n", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload[0]["primal"] == 1.0


    def test_one_solve_per_row(self, tmp_path, monkeypatch):
        import gaplab.cli

        calls = []
        real = gaplab.cli.solve_primal
        monkeypatch.setattr(
            gaplab.cli, "solve_primal", lambda *a: calls.append(1) or real(*a)
        )
        monkeypatch.setattr(gaplab.cli, "solve_dual", None)  # never called
        code, text = run(tmp_path, "solve", "--catalog", "diag_M", "--n", "4,8")
        assert code == 0 and len(calls) == 2
        assert text.splitlines()[1:] == [
            "diag_M_2,4,0.5,0.5,optimal,0",
            "diag_M_2,8,0.25,0.25,optimal,0",
        ]


class TestGapScan:
    def test_one_primal_per_resolution(self, tmp_path, monkeypatch):
        import gaplab.cli

        calls = []
        real = gaplab.cli.solve_primal
        monkeypatch.setattr(
            gaplab.cli, "solve_primal", lambda *a: calls.append(1) or real(*a)
        )
        code, text = run(
            tmp_path, "gap-scan", "--catalog", "diag_inf", "--n", "4,8",
            "--eps", "0.5,0.25,0.125",
        )
        assert code == 0 and len(calls) == 2
        assert len(text.strip().splitlines()) == 1 + 6 + 1

    def test_diagonal_schedule(self, tmp_path):
        code, text = run(
            tmp_path, "gap-scan", "--catalog", "diag_inf", "--n", "4..16",
            "--eps", "1/n",
        )
        assert code == 0
        lines = text.strip().splitlines()
        for n in (4, 8, 16):
            assert f"diag_inf,{n},{1/n:.12g},0,1" in lines
        assert lines[-1] == "diag_inf,16,estimate,0,1"

    def test_trivial_all_zero(self, tmp_path):
        code, text = run(
            tmp_path, "gap-scan", "--catalog", "trivial_zero", "--n", "4,8",
            "--eps", "0.5,0.25",
        )
        assert code == 0
        for line in text.strip().splitlines()[1:]:
            assert line.split(",")[3] == "0"

    def test_finite_variant_primal_shrinks(self, tmp_path):
        code, text = run(
            tmp_path, "gap-scan", "--catalog", "diag_M", "--M", "2",
            "--n", "4..16", "--eps", "1/n",
        )
        assert code == 0
        rows = [l.split(",") for l in text.strip().splitlines()[1:] if "estimate" not in l]
        primals = [float(r[4]) for r in rows]
        partials = [float(r[3]) for r in rows]
        assert primals == [0.5, 0.25, 0.125]
        assert partials == [0.0, 0.0, 0.0]

    def test_determinism_byte_identical(self, tmp_path):
        args = ("gap-scan", "--catalog", "diag_M", "--n", "4..8", "--eps", "1/n",
                "--seed", "7")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second

    def test_scans_write_rows_in_ascending_n(self, tmp_path):
        for cmd in ("solve", "gap-scan"):
            code, text = run(tmp_path, cmd, "--catalog", "diag_inf", "--n", "16,4,8")
            assert code == 0
            ns = [int(l.split(",")[1]) for l in text.strip().splitlines()[1:]]
            assert ns[:3] == [4, 8, 16], cmd
        code, text = run(tmp_path, "negligible", "diagonal", "--n", "16,4,8")
        assert code == 0
        assert [r["n"] for r in json.loads(text)["max_plan_mass"]] == [4, 8, 16]


class TestResolutionList:
    @pytest.mark.parametrize("spec", ["0..8", "-2..8"])
    def test_range_from_below_one_exits_2(self, tmp_path, spec):
        # a doubling range from n < 1 never grows: it must fail, not hang
        out = tmp_path / "o.csv"
        proc = run_process(
            "solve", "--catalog", "diag_inf", f"--n={spec}", "--out", str(out)
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: resolution list")
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec", ["4..0", "0", "4,0,8", ",", "abc", "4..x", "4.5", "4..8..16"]
    )
    @pytest.mark.parametrize("cmd", ["solve", "gap-scan", "approximate"])
    def test_bad_resolutions_exit_2(self, tmp_path, capsys, cmd, spec):
        code, text = run(tmp_path, cmd, "--catalog", "diag_inf", "--n", spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: resolution list")

    def test_negligible_rejects_empty_range(self, tmp_path):
        code, text = run(tmp_path, "negligible", "diagonal", "--n", "4..0")
        assert code == 2 and text == ""

    def test_doubling_range(self, tmp_path):
        code, text = run(tmp_path, "solve", "--catalog", "diag_inf", "--n", "1..8")
        assert code == 0
        assert [l.split(",")[1] for l in text.splitlines()[1:]] == ["1", "2", "4", "8"]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap-scan", "--n", "4", "--eps", "0.5,abc"],
            ["gap-scan", "--n", "4", "--eps", "1/0"],
            ["gap-scan", "--n", "4", "--eps", ","],
            ["gap-scan", "--n", "4", "--eps", "-0.5"],
            ["gap-scan", "--n", "4", "--eps", "nan"],
            ["gap-scan", "--n", "4", "--eps", "1/2/3"],
            ["rectify", "--n", "4..8"],
            ["rectify", "--n", "0"],
            ["rectify", "--n", "4", "--budget", "-1"],
            ["rectify", "--n", "4", "--seed", "-1"],
            ["approximate", "--n", "4", "--s", "0"],
            ["approximate", "--n", "4", "--s", "-1"],
        ],
    )
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv, "--catalog", "diag_inf")
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("s", ["0", "-1"])
    def test_bad_cell_side_names_the_flag(self, tmp_path, capsys, s):
        code, _ = run(
            tmp_path, "approximate", "--catalog", "diag_inf", "--n", "4", "--s", s
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--s" in err and f"got {s}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--catalog", "random_finite", "--catalog-n", "0", "--n", "4"],
            ["solve", "--catalog", "random_finite", "--catalog-n", "-1", "--n", "4"],
            ["solve", "--catalog", "random_finite", "--seed", "-1", "--n", "4"],
            ["solve", "--catalog", "diag_M", "--M", "inf", "--n", "4"],
            ["catalog", "--catalog-n", "0"],
            ["catalog", "--seed", "-1"],
            ["catalog", "--M", "inf"],
        ],
    )
    def test_bad_catalog_parameters_exit_2(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_eps_token_1_over_n_inside_a_list(self, tmp_path):
        code, text = run(
            tmp_path, "gap-scan", "--catalog", "diag_inf", "--n", "4,8",
            "--eps", "1/n,0.5",
        )
        assert code == 0
        rows = [l.split(",") for l in text.splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [
            ("4", "0.5"), ("4", "0.25"), ("8", "0.5"), ("8", "0.125"),
            ("8", "estimate"),
        ]


class TestRectify:
    def test_trivial_budget_1(self, tmp_path):
        code, text = run(
            tmp_path, "rectify", "--catalog", "trivial_zero", "--n", "4",
            "--budget", "1",
        )
        assert code == 0
        row = text.strip().splitlines()[1].split(",")
        assert float(row[5]) == 0.0  # sup gap

    def test_cost_near_the_float_limit_exits(self):
        # a loop bounded by 2 * top once never ended, and finite potentials
        # off a box pair's box overflowed with a RuntimeWarning
        proc = run_process(
            "rectify", "--catalog", "diag_M", "--M", "1e308", "--n", "4", "--budget", "1"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        row = proc.stdout.strip().splitlines()[1].split(",")
        assert row[0] == "diag_M_1e+308" and row[4] == "50"

    def test_diag_budget_200_writes_artifacts(self, tmp_path):
        out = tmp_path / "rect.csv"
        code = main(
            ["rectify", "--catalog", "diag_inf", "--n", "4", "--budget", "200",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        summary = out.read_text().strip().splitlines()
        assert float(summary[1].split(",")[5]) <= 1e-6
        env = (tmp_path / "rect.envelope.csv").read_text().strip().splitlines()
        assert len(env) == 5  # header + 4 rows
        pairs = (tmp_path / "rect.pairs.csv").read_text().strip().splitlines()
        assert pairs[0] == "provenance,objective,feasibility_slack"
        assert len(pairs) == 1 + 1 + 49  # header, zero pair, boxes

    def test_signed_zero_written_as_zero(self, tmp_path):
        # trivial_zero's envelope and pair objectives hold -0.0 entries
        assert _fmt(-0.0) == "0" and _fmt(np.float64(-0.0)) == "0"
        assert _fmt(-1e-300) == "-1e-300"
        out = tmp_path / "rect.csv"
        code = main(
            ["rectify", "--catalog", "trivial_zero", "--n", "4", "--budget", "20",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        for path in (out, out.with_suffix(".envelope.csv"), out.with_suffix(".pairs.csv")):
            fields = [f for line in path.read_text().splitlines() for f in line.split(",")]
            assert "-0" not in fields, path.name
        env = out.with_suffix(".envelope.csv").read_text().splitlines()
        assert env[1:] == ["0,0,0,0"] * 4

    def test_determinism(self, tmp_path):
        args = ("rectify", "--catalog", "random_finite", "--catalog-n", "4",
                "--n", "4", "--budget", "20", "--seed", "3")
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b


class TestNegligible:
    def test_diagonal_verdict(self, tmp_path):
        code, text = run(tmp_path, "negligible", "diagonal", "--n", "4,8")
        assert code == 0
        payload = json.loads(text)
        assert payload["negligible"] is False
        assert all(row["mass"] == pytest.approx(1.0) for row in payload["max_plan_mass"])

    def test_segment_verdict(self, tmp_path):
        code, text = run(
            tmp_path, "negligible", "segment y=0.3 x=[0,0.5]", "--n", "4,8,16"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["negligible"] is True
        assert payload["witness"]["N"]["points"] == [0.3]
        for row in payload["max_plan_mass"]:
            assert row["mass"] <= 2 / row["n"] + 1e-9

    def test_point_verdict(self, tmp_path):
        code, text = run(tmp_path, "negligible", "points [(0.5,0.5)]", "--n", "4")
        assert code == 0
        assert json.loads(text)["negligible"] is True

    def test_grammar_violation_exits_2(self, tmp_path):
        code = main(["negligible", "squiggle z=1", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        [
            '{"pieces": [{"kind": "rectangle"}]}',  # no box
            '{"pieces": [{"kind": "rectangle", "box": [0, 1, 0]}]}',
            '{"box": [0, 1, 0, 1]}',  # no pieces
            '[{"kind": "rectangle", "box": [0, 1, 0, 1]}]',
            '{"pieces": [',  # not JSON
            '{"pieces": [{"kind": "diagonal"}]}',  # a cost shape, not a set piece
            '{"pieces": [{"kind": "cell_table", "values": [[0.0]]}]}',
            "rect [1.2.3,1]x[0,1]",
            "segment y=. x=[0,1]",
        ],
    )
    def test_malformed_set_exits_2(self, tmp_path, capsys, spec):
        if spec[0] in "{[":
            (tmp_path / "set.json").write_text(spec)
            spec = str(tmp_path / "set.json")
        code, text = run(tmp_path, "negligible", spec, "--n", "4")
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "piece",
        [
            {"kind": "point_set", "points": [[float("nan"), 0.5]]},
            {"kind": "rectangle", "box": [float("nan"), 0.5, 0, 1]},
            {"kind": "graph", "segments": [[0, 1, float("nan"), 0.5]]},
            {"kind": "rectangle", "box": [float("inf"), float("inf"), 0, 1]},
        ],
    )
    def test_non_finite_coordinates_exit_2(self, tmp_path, capsys, piece):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"pieces": [piece]}))
        code, text = run(tmp_path, "negligible", str(path), "--n", "4")
        assert code == 2 and text == ""
        assert "must be finite" in capsys.readouterr().err

    def test_parse_forms(self):
        assert parse_set_descriptor("qxq").pieces
        assert parse_set_descriptor("rect [0,0.25]x[0,1]").pieces
        with pytest.raises(ConfigurationError):
            parse_set_descriptor("")


class TestApproximate:
    def test_diag_sequence(self, tmp_path):
        code, text = run(
            tmp_path, "approximate", "--catalog", "diag_inf", "--n", "4,8",
            "--s", "8", "--plan", "diagonal",
        )
        assert code == 0
        rows = [l.split(",") for l in text.strip().splitlines()[1:]]
        dists = [float(r[8]) for r in rows]
        assert dists == sorted(dists, reverse=True)

    def test_product_plan_on_zero_cost(self, tmp_path):
        code, text = run(
            tmp_path, "approximate", "--catalog", "trivial_zero", "--n", "4",
            "--s", "4", "--plan", "product",
        )
        assert code == 0
        row = text.strip().splitlines()[1].split(",")
        assert float(row[4]) == 0.0  # cost_c
        assert row[7] == "True"

    def test_fine_cost_painted_once_per_row(self, tmp_path, monkeypatch):
        import gaplab.instance

        calls = []
        paint = gaplab.instance.discretize_cost
        monkeypatch.setattr(
            gaplab.instance, "discretize_cost",
            lambda desc, grid: calls.append(grid.n) or paint(desc, grid),
        )
        code, _ = run(
            tmp_path, "approximate", "--catalog", "diag_M", "--n", "2,4",
            "--s", "4", "--plan", "product",
        )
        assert code == 0 and calls == [8, 16]

    def test_missing_rectified_target_exits_4(self, tmp_path):
        code = main(
            ["approximate", "--catalog", "random_finite", "--n", "4", "--s", "4"]
        )
        assert code == 4


class TestCatalogCmd:
    def test_lists_names_and_values(self, tmp_path):
        code, text = run(tmp_path, "catalog")
        assert code == 0
        assert "diag_inf" in text and "fat_set_20" in text
        header = text.splitlines()[0]
        assert header == "name,tags,P_c,D_c,P_rectified,notes"


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert gaplab.cli.build_parser() is gaplab.cli.build_parser()

    def test_main_calls_the_command_patched_after_the_parser(self, monkeypatch):
        gaplab.cli.build_parser()
        calls = []

        def spy(args):
            calls.append((args.command, args.catalog, args.n))
            return 0

        monkeypatch.setattr(gaplab.cli, "cmd_solve", spy)
        assert main(["solve", "--catalog", "diag_inf", "--n", "4"]) == 0
        assert calls == [("solve", "diag_inf", "4")]

    def test_calls_in_a_row_match_fresh_processes(self, tmp_path):
        # each call after the first parses with the parser of the first, and
        # must leave no flag of its predecessor behind
        calls = [
            ("solve", "--catalog", "diag_M", "--n", "4,8", "--format", "json"),
            ("solve", "--catalog", "diag_M", "--n", "4,8"),
            ("gap-scan", "--catalog", "diag_inf", "--n", "4..8", "--eps", "0.25"),
            ("gap-scan", "--catalog", "diag_inf", "--n", "4..8"),
            ("negligible", "diagonal", "--n", "4,8", "--catalog", "fat_set"),
            ("negligible", "rect [0,0.25]x[0,1]", "--n", "4,8"),
        ]
        for k, argv in enumerate(calls):
            here, fresh = tmp_path / f"{k}.here", tmp_path / f"{k}.fresh"
            assert main([*argv, "--out", str(here)]) == 0
            proc = run_process(*argv, "--out", str(fresh))
            assert proc.returncode == 0, proc.stderr
            assert here.read_bytes() == fresh.read_bytes(), argv
