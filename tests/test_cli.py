"""Command surface: outputs, determinism, exit codes."""

import json

import pytest

from gaplab import save_instance
from gaplab.catalog import diag_inf
from gaplab.cli import main, parse_set_descriptor
from gaplab.core import ConfigurationError


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

    def test_jobs_flag_keeps_row_order(self, tmp_path):
        base = ("gap-scan", "--catalog", "diag_inf", "--n", "4..16", "--eps", "1/n")
        _, serial = run(tmp_path, *base, "--jobs", "1")
        _, parallel = run(tmp_path, *base, "--jobs", "4")
        assert serial == parallel


class TestRectify:
    def test_trivial_budget_1(self, tmp_path):
        code, text = run(
            tmp_path, "rectify", "--catalog", "trivial_zero", "--n", "4",
            "--budget", "1",
        )
        assert code == 0
        row = text.strip().splitlines()[1].split(",")
        assert float(row[5]) == 0.0  # sup gap

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
        assert len(pairs) == 1 + 1 + 49 + 200  # header, zero pair, boxes, budget

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
