"""Tests for the command line interface.

Each test drives main() directly with an argv list and asserts on captured
output and exit codes, so the whole dispatch path including error mapping is
exercised without spawning subprocesses.
"""

import json
import math

import pytest

from quasibraid import Arc, LoopPath, bivariate_to_json, loop_to_json, monodromy
from quasibraid.cli import main
from tests.test_monodromy import SHEETS, expanded


def write_loop(tmp_path, name="loop.json", turns=1, radius=1.0, center=0j):
    arc = Arc(center, radius, math.pi / 2, math.pi / 2 + turns * 2 * math.pi)
    payload = loop_to_json(LoopPath((arc,)))
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestAnalyze:
    def test_reports_branch_points_and_genericity(self, capsys):
        rc = main(["analyze", "--poly", "w^2 - z"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "branch points (1):" in out
        assert "generic: yes" in out

    def test_json_output_round_trips_through_validate(self, capsys, tmp_path):
        out_file = tmp_path / "branch.json"
        assert main(["analyze", "--poly", "w^3 - 3*w + 2*z", "--json", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["--validate", str(out_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_perturbs_non_generic_input(self, capsys):
        rc = main(["analyze", "--poly", "w^3 - z", "--budget", "1e-2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "perturbation" in out
        assert "generic: yes" in out

    def test_a_five_fold_point_is_found_and_perturbed(self, capsys):
        # w^2 - z^5 branches once, with multiplicity 5; analyze reports the
        # generic curve w^2 + eps w - z^5, whose five simple points surround it.
        rc = main(["analyze", "--poly", "w^2 - z^5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "branch points (5):" in out
        assert out.count("(multiplicity 1)") == 5
        assert "perturbation: none" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--poly", "w^2 - 1e400*z"],
            ["--poly", "w^3 - z^2*w", "--budget", "nan"],
            ["--poly", "w^3 - z^2*w", "--budget", "inf"],
        ],
    )
    def test_non_finite_numbers_are_input_errors(self, capsys, argv):
        rc = main(["analyze", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    def test_a_zero_budget_on_a_non_generic_curve_is_an_input_error(self, capsys):
        rc = main(["analyze", "--poly", "w^2 - z^3", "--budget", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        error = json.loads(captured.err.strip())
        assert error["error"] == "input"
        assert "budget" in error["message"]

    def test_fractional_exponent_is_an_input_error(self, capsys):
        rc = main(["analyze", "--poly", "w^2 - z^1.9"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": "two", "coeffs_w_desc": [[[1, 0]], [[0, 0]], [[-1, 0]]]},
            {"n": 2, "coeffs_w_desc": [[[1, 0]], [[1]], [[-1, 0]]]},
            {"n": 2, "coeffs_w_desc": [[[1, 0]], [["a", 0]], [[-1, 0]]]},
            {"n": 2, "coeffs_w_desc": [[[1, 0]], [[0, 0]], [[0, 0], [math.nan, 0]]]},
        ],
    )
    def test_malformed_polynomial_json_is_an_input_error(self, capsys, tmp_path, payload):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps(payload))
        rc = main(["analyze", "--poly", str(poly_file)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"


class TestBraid:
    def test_unit_circle_on_the_square_root_surface(self, capsys, tmp_path):
        rc = main(["braid", "--poly", "w^2 - z", "--loop", write_loop(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "word: s1" in out
        assert "exponent sum: 1" in out
        assert "closure components: 1" in out

    def test_clockwise_reads_the_inverse(self, capsys, tmp_path):
        rc = main(
            ["braid", "--poly", "w^2 - z", "--loop", write_loop(tmp_path, turns=-1)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "word: s1^-1" in out

    def test_word_json_validates(self, capsys, tmp_path):
        out_file = tmp_path / "word.json"
        rc = main(
            [
                "braid",
                "--poly",
                "w^2 - z",
                "--loop",
                write_loop(tmp_path),
                "--json",
                str(out_file),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["--validate", str(out_file)]) == 0

    def test_lollipop_factorization(self, capsys, tmp_path):
        out_file = tmp_path / "qpf.json"
        rc = main(
            [
                "braid",
                "--poly",
                "w^3 - 3*w + 2*z",
                "--qp",
                "--targets",
                "0,1",
                "--basepoint=-3,0.75",
                "--radius",
                "0.35",
                "--json",
                str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "factors (2):" in out
        capsys.readouterr()
        assert main(["--validate", str(out_file)]) == 0

    @pytest.mark.parametrize("text", ["w^2 - z^3", "w^3 - z^2"])
    def test_a_multiple_target_is_refused_before_any_track(self, capsys, monkeypatch, text):
        # A 3-fold and a 4-fold point: no circle around either reads one band.
        calls = []
        track_roots = monodromy.track_roots
        monkeypatch.setattr(
            monodromy, "track_roots", lambda *args, **kw: calls.append(args) or track_roots(*args, **kw)
        )
        argv = ["braid", "--poly", text, "--qp", "--targets", "0", "--basepoint=-2,0.5", "--radius", "0.3"]
        rc = main(argv)
        report = json.loads(capsys.readouterr().err.strip())
        assert rc == 2
        assert report["error"] == "input"
        assert "multiplicity" in report["message"]
        assert calls == []

    def test_qp_and_loop_conflict(self, capsys, tmp_path):
        rc = main(
            [
                "braid",
                "--poly",
                "w^2 - z",
                "--qp",
                "--loop",
                write_loop(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    @pytest.mark.parametrize(
        "segment",
        [
            {"kind": "seg", "a": [math.nan, 0.0], "b": [1.0, 0.0]},
            {"kind": "arc", "center": [0.0, 0.0], "radius": math.inf, "from": 0.0, "to": 6.0},
        ],
        ids=["nan-point", "infinite-radius"],
    )
    def test_non_finite_loop_geometry_is_an_input_error(self, capsys, tmp_path, segment):
        loop_file = tmp_path / "loop.json"
        loop_file.write_text(json.dumps({"segments": [segment], "closed": True}))
        rc = main(["braid", "--poly", "w^2 - z", "--loop", str(loop_file)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    def test_missing_loop_is_an_input_error(self, capsys):
        rc = main(["braid", "--poly", "w^2 - z"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"


class TestBplus:
    def test_prints_edge_summary_and_writes_svg(self, capsys, tmp_path):
        svg_file = tmp_path / "plane.svg"
        rc = main(
            [
                "bplus",
                "--poly",
                "w^2 - z",
                "--region=-2,-2,2,2",
                "--res",
                "32",
                "--svg",
                str(svg_file),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "edges:" in out
        assert svg_file.exists()
        assert "<svg" in svg_file.read_text()

    def test_bad_region_is_an_input_error(self, capsys):
        rc = main(["bplus", "--poly", "w^2 - z", "--region", "1,2,3", "--res", "32"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    def test_non_finite_region_is_an_input_error(self, capsys):
        rc = main(["bplus", "--poly", "w^2 - z", "--region", "0,0,inf,1", "--res", "8"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    @pytest.mark.parametrize(
        "text",
        [
            "w^3 - w^2 - 2*z*w^2 + 2*z*w + z^2*w - z^2",  # (w - z)^2 (w - 1)
            "w^4 - 2*z*w^2 + z^2",  # (w^2 - z)^2
        ],
    )
    def test_a_repeated_factor_is_an_input_error(self, capsys, text):
        rc = main(["bplus", "--poly", text, "--region", "0,0,1,1", "--res", "8"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"


class TestRealize:
    def test_round_trip_bundle(self, capsys, tmp_path):
        qpf_file = tmp_path / "qpf.json"
        qpf_file.write_text(
            json.dumps(
                {
                    "n": 3,
                    "factors": [
                        {"conjugator": [], "k": 1},
                        {"conjugator": [[2, 1]], "k": 1},
                    ],
                }
            )
        )
        bundle = tmp_path / "bundle.json"
        rc = main(["realize", "--qpf", str(qpf_file), "--json", str(bundle)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification:" in out
        payload = json.loads(bundle.read_text())
        assert {"polynomial", "loop", "verification"} <= set(payload)
        capsys.readouterr()
        assert main(["--validate", str(bundle)]) == 0

    def test_a_seven_strand_template_refusal_is_numerical(self, capsys, tmp_path):
        # The clearance floor refuses the template loop that the plan built
        # itself, which is no fault of the input.
        qpf_file = tmp_path / "qpf.json"
        factors = [{"conjugator": [], "k": 3}]
        qpf_file.write_text(json.dumps({"n": 7, "factors": factors}))
        rc = main(["realize", "--qpf", str(qpf_file)])
        report = json.loads(capsys.readouterr().err.strip())
        assert rc == 3
        assert report["error"] == "numerical"
        assert report["diagnostics"]["generator"] == 1

    def test_malformed_factorization_is_an_input_error(self, capsys, tmp_path):
        qpf_file = tmp_path / "bad.json"
        qpf_file.write_text(json.dumps({"n": 3}))
        rc = main(["realize", "--qpf", str(qpf_file)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"


class TestVerify:
    def test_passing_loop(self, capsys, tmp_path):
        rc = main(["verify", "--poly", "w^2 - z", "--loop", write_loop(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "refinement invariance: PASS" in out
        assert "exponent sum: PASS" in out

    def test_letters_of_one_step_may_come_in_either_order(self, capsys, tmp_path):
        # On (w^2 - z)((w - 5)^2 - z + 0.005i) this circle's coarse track reads
        # s1 and s3 in one step and its fine track in two: the same braid.
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(bivariate_to_json(expanded(SHEETS[:2]))))
        arc = Arc(0j, 1.0, -0.8, -0.8 + 2 * math.pi)
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps(loop_to_json(LoopPath((arc,)))))
        rc = main(["--theta", "0", "verify", "--poly", str(poly), "--loop", str(loop)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "refinement invariance: PASS" in out

    def test_a_five_fold_point_counts_five_times(self, capsys, tmp_path):
        rc = main(["verify", "--poly", "w^2 - z^5", "--loop", write_loop(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "exponent sum: PASS (word 5, enclosed 5)" in out


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        rc = main([])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage" in captured.err.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "quasibraid" in capsys.readouterr().out

    def test_validate_rejects_unknown_payloads(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text(json.dumps({"surprise": True}))
        rc = main(["--validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 3, "letters": [["a", 1]]},
            {"n": 3, "letters": [5]},
            {"n": 3, "factors": [{"k": "x"}]},
            {"n": 3, "factors": [3]},
            {"n": 3, "factors": [{"conjugator": []}]},
            {"points": [{"z": [0.0, 0.0], "multiplicity": "two"}], "generic": True},
            {"polynomial": 3, "loop": 4, "verification": 5},
            5,
        ],
    )
    def test_validate_rejects_malformed_payloads(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["--validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    @pytest.mark.parametrize("cell", [[0.0, 0.0, 1.0], [0.0, 0.0, math.nan, 1.0]])
    def test_validate_rejects_a_malformed_flagged_cell(self, capsys, tmp_path, cell):
        bad = tmp_path / "graph.json"
        graph = {"strands": 2, "theta": 0.0, "region": [-1.0, -1.0, 1.0, 1.0], "resolution": 8}
        bad.write_text(json.dumps({**graph, "vertices": [], "edges": [], "flagged": [cell]}))
        rc = main(["--validate", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.err.strip())["error"] == "input"

    def test_validate_conflicts_with_subcommands(self, capsys, tmp_path):
        good = tmp_path / "loop.json"
        good.write_text(json.dumps({"segments": [], "closed": True}))
        rc = main(["--validate", str(good), "analyze", "--poly", "w^2 - z"])
        captured = capsys.readouterr()
        assert rc == 2

    def test_theta_override_is_honored(self, capsys, tmp_path):
        rc = main(
            [
                "--theta",
                "0.3",
                "analyze",
                "--poly",
                "w^2 - z",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "theta: 0.3" in out.replace("0.300000", "0.3")
