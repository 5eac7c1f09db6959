"""Command surface: outputs, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaplab
import gaplab.cli
from gaplab import save_instance
from gaplab.catalog import diag_inf, get_instance
from gaplab.cli import _fmt, _write_rows, main, parse_set_descriptor
from gaplab.core import ConfigurationError, DensitySpec, DiscreteMeasure, Grid
from gaplab.negligible import grid_indicator
from gaplab.solver import solve_primal

from _oracles import pair_by_pair_rectify


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


def nonuniform_instance_file(tmp_path):
    """An instance file with piecewise marginals, mu null on [0, 0.25]: every
    catalog family has uniform ones."""
    path = tmp_path / "nonuniform.json"
    inst = dataclasses.replace(
        diag_inf(),
        name="nonuniform",
        marginal_x=DensitySpec((0.0, 0.25, 1.0), (0.0, 4.0 / 3.0)),
        marginal_y=DensitySpec((0.0, 0.5, 0.75, 1.0), (0.5, 2.0, 1.0)),
    )
    save_instance(inst, path)
    return path, inst


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
        for cmd in ("solve", "gap-scan", "approximate"):
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rect.csv", "rect.envelope.csv"]

    def test_signed_zero_written_as_zero(self, tmp_path):
        # a -0.0 is written as 0; trivial_zero's all-zero envelope is where one would show
        assert _fmt(-0.0) == "0" and _fmt(np.float64(-0.0)) == "0"
        assert _fmt(-1e-300) == "-1e-300"
        out = tmp_path / "rect.csv"
        code = main(
            ["rectify", "--catalog", "trivial_zero", "--n", "4", "--budget", "20",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        for path in (out, out.with_suffix(".envelope.csv")):
            fields = [f for line in path.read_text().splitlines() for f in line.split(",")]
            assert "-0" not in fields, path.name
        env = out.with_suffix(".envelope.csv").read_text().splitlines()
        assert env[1:] == ["0,0,0,0"] * 4

    @pytest.mark.parametrize(
        "value, text",
        [
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            (np.float64("-inf"), "-inf"),
            (float("nan"), "nan"),
            (np.float64("nan"), "nan"),
            (-0.0, "0"),
            (np.float64(-0.0), "0"),
            (np.float64(0.1) + 0.2, "0.3"),
            (1 / 3, "0.333333333333"),
            (7, "7"),
            (np.int64(-7), "-7"),
            (True, "True"),
        ],
    )
    def test_fmt(self, value, text):
        assert _fmt(value) == text

    @pytest.mark.parametrize("n", [1, 3, 32])
    @pytest.mark.parametrize("name", ["diag_inf", "fat_set", "trivial_zero", "random_finite"])
    def test_reports_equal_the_pair_by_pair_fold(self, tmp_path, name, n):
        out = tmp_path / "rect.csv"
        main(["rectify", "--catalog", name, "--n", str(n), "--seed", "5", "--out", str(out)])
        inst = get_instance(name, seed=5)
        acc = pair_by_pair_rectify(gaplab.discretize(inst, n)[0])
        prov = ";".join(f"{k}:{v}" for k, v in sorted(acc.provenance_counts.items()))
        ref = tmp_path / "ref.csv"
        _write_rows(
            ["instance", "n", "budget", "seed", "pairs", "sup_gap_finite", "provenance"],
            [(inst.name, n, 200, 5, acc.pair_count, acc.sup_gap_finite(), prov)],
            ref,
            "csv",
        )
        _write_rows(
            [f"c{j}" for j in range(n)],
            [tuple(row) for row in acc.lower_envelope],
            ref.with_suffix(".envelope.csv"),
            "csv",
        )
        for suffix in (".csv", ".envelope.csv"):
            assert out.with_suffix(suffix).read_bytes() == ref.with_suffix(suffix).read_bytes()

    @pytest.mark.parametrize("n", [1, 2, 33])
    def test_envelope_rows_equal_write_rows(self, tmp_path, monkeypatch, n):
        # envelope.csv is formatted one row at a time; it must read as the
        # per-value _fmt CSV of the same matrix, at every entry position
        entries = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 1 / 3, 0.1 + 0.2]
        out, ref = tmp_path / "rect.csv", tmp_path / "ref.csv"
        for k in range(len(entries)):
            E = np.resize(np.roll(entries, k), (n, n))
            acc = SimpleNamespace(
                lower_envelope=E, pair_count=1, provenance_counts={},
                sup_gap_finite=lambda: 0.0,
            )
            monkeypatch.setattr(gaplab.cli, "generative_rectify", lambda *a, **kw: acc)
            code = main(["rectify", "--catalog", "trivial_zero", "--n", str(n),
                         "--out", str(out)])
            assert code == 0
            _write_rows([f"c{j}" for j in range(n)], E.tolist(), ref, "csv")
            text = out.with_suffix(".envelope.csv").read_text()
            assert text == ref.read_text(), k

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

    def test_instance_file_gives_the_marginals(self, tmp_path):
        path, inst = nonuniform_instance_file(tmp_path)
        for spec in ("diagonal", "rect [0,0.25]x[0,1]"):
            code, text = run(tmp_path, "negligible", spec, "--n", "1,2,4,8",
                             "--instance", str(path))
            assert code == 0
            payload = json.loads(text)
            A = parse_set_descriptor(spec)
            for row in payload["max_plan_mass"]:
                grid = Grid(row["n"])
                mu = DiscreteMeasure.from_density(inst.marginal_x, grid)
                nu = DiscreteMeasure.from_density(inst.marginal_y, grid)
                lp = solve_primal(np.where(grid_indicator(A, grid), -1.0, 0.0), mu, nu)
                assert row["mass"] == float(-lp.value) + 0.0
        # mu is null on [0, 0.25], so the strip is covered by M = [0, 0.25];
        # under the default uniform marginals it blocks
        assert payload["negligible"] is True
        assert payload["witness"]["M"]["intervals"] == [[0.0, 0.25]]
        assert all(row["mass"] == 0.0 for row in payload["max_plan_mass"])
        code, text = run(tmp_path, "negligible", spec, "--n", "4")
        assert json.loads(text)["negligible"] is False

    @pytest.mark.parametrize(
        "flag, value",
        [("--catalog", "fat_set"), ("--M", "5"), ("--K", "3"), ("--seed", "3"),
         ("--catalog-n", "7"), ("--format", "csv")],
    )
    def test_dropped_flags_exit_2(self, tmp_path, capsys, flag, value):
        # the marginals come from --instance or are uniform, and the report
        # is JSON: no catalog instance or format is read
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as exit_:
            main(["negligible", "diagonal", "--n", "4", flag, value, "--out", str(out)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gaplab ")
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
        assert not out.exists()

    def test_help_lists_the_kept_inputs(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["negligible", "--help"])
        assert exit_.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage.split() == [
            "usage:", "gaplab", "negligible", "[-h]", "[--instance", "INSTANCE]",
            "[--n", "N]", "[--out", "OUT]", "set",
        ]

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

    def test_fine_grid_off_the_powers_of_two_exits_2(self, tmp_path):
        # n * s = 3: the weak* metric needs a power-of-two grid and rejects it
        out = tmp_path / "o.csv"
        proc = run_process(
            "approximate", "--catalog", "diag_inf", "--n", "3", "--s", "1",
            "--out", str(out),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert not out.exists()

    def test_bound_column_is_target_plus_one_over_n(self, tmp_path):
        # fat_set's rectified target is about 0.5, so a bound of 1/n alone
        # would sit below cost_c while bound_ok reads True
        code, text = run(
            tmp_path, "approximate", "--catalog", "fat_set", "--n", "4,8",
            "--s", "4", "--plan", "product", "--format", "json",
        )
        assert code == 0
        for row in json.loads(text):
            assert row["target_cr_integral"] > 0
            assert row["bound"] == row["target_cr_integral"] + 1.0 / row["n"]
            assert row["bound_ok"] == (row["cost_c"] <= row["bound"] + 1e-9)

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


REPORT_COMMANDS = {
    "solve": ("solve", "--catalog", "diag_M", "--n", "2,4"),
    "gap-scan": ("gap-scan", "--catalog", "diag_inf", "--n", "2..4", "--eps", "0.5,1/n"),
    "negligible": ("negligible", "diagonal", "--n", "2,4"),
    "approximate": ("approximate", "--catalog", "diag_inf", "--n", "2", "--s", "2"),
    "rectify": ("rectify", "--catalog", "fat_set", "--n", "4"),
}


def report_argv(cmd, fmt):
    """REPORT_COMMANDS[cmd] writing ``fmt``; negligible writes JSON only and
    takes no --format."""
    if cmd == "negligible":
        return list(REPORT_COMMANDS[cmd])
    return [*REPORT_COMMANDS[cmd], "--format", fmt]


class TestReportFiles:
    """--out rewrites a file in place and cuts it to length; streams and
    symlinks are written through; an unwritable path exits 2."""

    @pytest.mark.parametrize(
        ("fmt", "cmd"),
        [
            (fmt, cmd)
            for cmd in sorted(REPORT_COMMANDS)
            for fmt in ("csv", "json")
            if (cmd, fmt) != ("negligible", "csv")
        ],
        ids=lambda v: v,
    )
    def test_overwrite_equals_fresh_write(self, tmp_path, cmd, fmt):
        argv = report_argv(cmd, fmt)
        fresh, over = tmp_path / "fresh.out", tmp_path / "over.out"
        assert main([*argv, "--out", str(fresh)]) == 0
        written = [p.suffix for p in sorted(tmp_path.iterdir())]
        assert written == ([".csv", ".out"] if cmd == "rectify" else [".out"])
        longer = "x" * 9 + "\n" + fresh.read_text() * 3
        for suffix in (".out", ".envelope.csv"):
            over.with_suffix(suffix).write_text(longer)
        assert main([*argv, "--out", str(over)]) == 0
        assert over.read_bytes() == fresh.read_bytes()
        if cmd == "rectify":
            envelope = fresh.with_suffix(".envelope.csv").read_bytes()
            assert over.with_suffix(".envelope.csv").read_bytes() == envelope
            assert len(envelope) < len(longer)

    @pytest.mark.parametrize("cmd", ["solve", "gap-scan", "negligible", "approximate"])
    def test_dev_null_exits_0(self, cmd, capsys):
        # rectify is left out: it writes its envelope beside --out, so it
        # refuses a --out that is not a regular file (test_rectify_refuses_a_fifo)
        assert main([*REPORT_COMMANDS[cmd], "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_fifo_receives_the_report(self, tmp_path):
        fresh, fifo = tmp_path / "fresh.csv", tmp_path / "fifo"
        assert main([*REPORT_COMMANDS["solve"], "--out", str(fresh)]) == 0
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read)
        reader.start()
        assert main([*REPORT_COMMANDS["solve"], "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [fresh.read_bytes()]

    def test_symlink_is_written_through(self, tmp_path):
        fresh, target, link = (tmp_path / f"{k}.csv" for k in ("fresh", "target", "link"))
        assert main([*REPORT_COMMANDS["solve"], "--out", str(fresh)]) == 0
        target.write_text("x" * 10_000)
        link.symlink_to(target)
        assert main([*REPORT_COMMANDS["solve"], "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == fresh.read_bytes()

    def test_rectify_envelope_lands_beside_the_symlink_target(self, tmp_path):
        target, link = tmp_path / "sub" / "target.csv", tmp_path / "link.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link.symlink_to(target)
        assert main([*REPORT_COMMANDS["rectify"], "--out", str(link)]) == 0
        assert target.with_suffix(".envelope.csv").is_file()
        assert not (tmp_path / "link.envelope.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "sub"]

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        code = main(["solve", "--catalog", "diag_inf", "--n", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write") and str(out) in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("old_summary", [False, True])
    @pytest.mark.parametrize("envelope", ["directory", "dangling_symlink"])
    def test_rectify_writes_neither_file_when_the_envelope_fails(
        self, tmp_path, capsys, envelope, old_summary
    ):
        out = tmp_path / "d.csv"
        if envelope == "directory":
            (tmp_path / "d.envelope.csv").mkdir()
        else:  # not there, so no regular-file check sees it; opening it fails
            (tmp_path / "d.envelope.csv").symlink_to(tmp_path / "missing" / "e.csv")
        if old_summary:
            out.write_text("old\n")
        before = sorted(tmp_path.iterdir())
        code = main([*REPORT_COMMANDS["rectify"], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "d.envelope.csv" in err
        assert sorted(tmp_path.iterdir()) == before
        if old_summary:
            assert out.read_text() == "old\n"
        else:
            assert not out.exists()

    def test_rectify_refuses_a_fifo(self, tmp_path):
        # refused before anything is opened: no reader is needed, and a
        # child process turns a blocking open into a failed timeout
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        done = run_process(*REPORT_COMMANDS["rectify"], "--out", str(fifo))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"error: rectify writes {str(fifo)!r} and "
            f"{str(tmp_path / 'fifo.envelope.csv')!r} as regular files: "
            f"{str(fifo)!r} is not one\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_no_report_write_truncates(self, tmp_path, monkeypatch):
        # opening with O_TRUNC makes ext4 flush the file on close; every
        # report and instance write must go through os.open without it
        opened = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            if Path(path).parent == tmp_path:
                opened.append((Path(path).name, flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for k, cmd in enumerate(sorted(REPORT_COMMANDS)):
            for fmt in ("csv", "json"):
                out = tmp_path / f"{k}.{fmt}"
                out.write_text("x" * 10_000)
                code = main([*report_argv(cmd, fmt), "--out", str(out)])
                assert code == 0
        save_instance(diag_inf(), tmp_path / "inst.json")
        names = [name for name, _ in opened]
        assert sorted(names) == sorted(
            [f"{k}.{fmt}" for k in range(5) for fmt in ("csv", "json")]
            + ["3.envelope.csv"] * 2 + ["inst.json"]
        )
        assert all(not flags & os.O_TRUNC for _, flags in opened)


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
        instance, _ = nonuniform_instance_file(tmp_path)
        calls = [
            ("solve", "--catalog", "diag_M", "--n", "4,8", "--format", "json"),
            ("solve", "--catalog", "diag_M", "--n", "4,8"),
            ("gap-scan", "--catalog", "diag_inf", "--n", "4..8", "--eps", "0.25"),
            ("gap-scan", "--catalog", "diag_inf", "--n", "4..8"),
            ("negligible", "diagonal", "--n", "4,8", "--instance", str(instance)),
            ("negligible", "rect [0,0.25]x[0,1]", "--n", "4,8"),
        ]
        for k, argv in enumerate(calls):
            here, fresh = tmp_path / f"{k}.here", tmp_path / f"{k}.fresh"
            assert main([*argv, "--out", str(here)]) == 0
            proc = run_process(*argv, "--out", str(fresh))
            assert proc.returncode == 0, proc.stderr
            assert here.read_bytes() == fresh.read_bytes(), argv
