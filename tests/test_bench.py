"""Benchmark catalog, coverage reports, rendering, and the CLI."""

import hashlib
import json
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mixcut import bench, cli, dd, families, hull
from mixcut.core import ValidationError, build_instance, cut_to_json, instance_to_json, make_cut
from cone_reference import fractions_over
import hulls
from projection_reference import parse_report


def _row(S, label):
    """The index of the lifted set's constraint with this label."""
    return [con.label for con in S.constraints].index(label)


def _no_scenarios(docs):
    """Set ``m = 0`` in the blp-aggregate documents, keeping the rest consistent."""
    docs["set"]["m"] = 0
    for con in docs["set"]["constraints"]:
        con["A"] = con["c"] = []
    docs["set"]["compl_pairs"] = docs["set"]["compl_complement_pairs"] = []
    docs["assignment"]["base"][1] = 0


def _no_constraints(docs):
    """Empty the lifted set's constraints, and the pairs that only they back."""
    docs["set"]["constraints"] = []
    docs["set"]["compl_pairs"] = docs["set"]["compl_complement_pairs"] = []
    docs["assignment"]["base"][0] = 0


class TestCatalog:
    def test_first_sequence(self):
        inst = bench.benchmark_instance("L", 5, 3)
        assert inst.h == (20, 18, 14, 11, 6)
        assert inst.p == 3 and inst.uniform

    def test_second_sequence(self):
        inst = bench.benchmark_instance("K", 7, 5)
        assert inst.h == (40, 38, 34, 31, 26, 16, 8)
        assert inst.p == 5

    def test_trivial_single_scenario(self):
        inst = bench.benchmark_instance("L", 1, 1)
        assert inst.m == 1 and inst.p == 1

    @pytest.mark.parametrize("m,p", [(0, 1), (11, 3), (4, 5), (3, 0)])
    def test_range_validation(self, m, p):
        with pytest.raises(ValidationError):
            bench.benchmark_instance("L", m, p)

    def test_unknown_example_names_every_catalog_label(self, monkeypatch):
        monkeypatch.setitem(bench._EXAMPLES, "Q", bench._EXAMPLES["L"])
        with pytest.raises(ValidationError) as exc:
            bench.benchmark_instance("X", 5, 3)
        assert str(exc.value) == "example must be 'K' or 'L' or 'Q'"


class TestRendering:
    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (Fraction(1), "100.0"),
            (Fraction(11, 13), "84.62"),
            (Fraction(12, 13), "92.31"),
            (Fraction(180, 298), "60.4"),
            (Fraction(63, 100), "63.0"),
            (Fraction(438, 439), "99.77"),
            (Fraction(0), "0.0"),
        ],
    )
    def test_table_conventions(self, fraction, expected):
        assert bench.render_pct(fraction) == expected

    def test_half_up(self):
        assert bench.render_pct(Fraction(1, 800)) == "0.13"  # 0.125% rounds up


class TestCoverage:
    def test_worked_cell(self):
        report = bench.benchmark_coverage("L", 5, 3)
        assert report.facet_total == 13
        assert report.pct("zhao") == "84.62"
        assert report.pct("blp_uniform") == "92.31"
        assert report.pct("blp_generic") == "100.0"
        assert not bench.check_against_paper(report)

    @pytest.mark.parametrize("count, flagged", [
        (8460, True), (8461, False), (8462, False), (8463, False), (8464, True),
    ])
    def test_paper_check_allows_one_hundredth(self, count, flagged):
        """L(5,3)'s zhao reference is 84.62: a computed 84.61 or 84.63 is
        within one hundredth either way, 84.60 and 84.64 are not."""
        report = bench.CoverageReport("L", 5, 3, 10000, 0, (("zhao", count),), False)
        problems = bench.check_against_paper(report)
        assert problems == ([f"(m=5, p=3) zhao: computed {report.pct('zhao')} vs reference 84.62"]
                            if flagged else [])

    L75 = ["(m=7, p=5) blp_uniform: computed 74.0 vs reference 75.0"]
    K75 = [
        "(m=7, p=5) zhao: computed 63.0 vs reference 70.87",
        "(m=7, p=5) blp_uniform: computed 74.0 vs reference 80.58",
        "(m=7, p=5) blp_generic: computed 100.0 vs reference 97.09",
    ]

    @pytest.mark.parametrize("label, incomplete, problems", [
        ("L", False, L75), ("l", False, L75), ("K", False, K75), ("k", False, K75),
        ("X", False, ["no reference table for example 'X'"]),
        (None, False, ["report has no reference row"]),
        ("L", True, ["report has no reference row"]),
        ("X", True, ["report has no reference row"]),
    ], ids=["L", "l", "K", "k", "X", "None", "L-incomplete", "X-incomplete"])
    def test_paper_check_reads_the_report_example(self, label, incomplete, problems):
        """L(7,5)'s counts (63, 74 and 100 of 100) against the table of the
        report's example, read case-blind: L misses only in blp_uniform, K
        in every family, and an example with no table gets that one problem,
        not K's numbers.  An unlabelled or incomplete report has no row."""
        covered = (("zhao", 63), ("blp_uniform", 74), ("blp_generic", 100))
        report = bench.CoverageReport(label, 7, 5, 100, 0, covered, False, incomplete)
        assert bench.check_against_paper(report) == problems

    def test_deterministic(self):
        a = bench.benchmark_coverage("L", 6, 3)
        b = bench.benchmark_coverage("L", 6, 3)
        assert a == b

    def test_improvement_identities(self):
        r = bench.benchmark_coverage("K", 6, 4)
        imp_mid, imp_top, total = r.improvements()
        assert imp_mid == r.fraction("blp_uniform") - r.fraction("zhao")
        assert imp_top == r.fraction("blp_generic") - r.fraction("blp_uniform")
        assert total == imp_mid + imp_top

    def test_trivial_cells_flagged(self):
        assert bench.benchmark_coverage("L", 4, 1).trivial
        assert bench.benchmark_coverage("L", 4, 4).trivial
        assert not bench.benchmark_coverage("L", 4, 2).trivial

    def test_budget_marks_incomplete(self):
        report = bench.coverage(
            bench.benchmark_instance("L", 8, 4), budget=dd.Budget(seconds=1e-9)
        )
        assert report.incomplete
        assert all(v == 0 for _, v in report.covered)

    def test_zero_budget_marks_incomplete(self):
        report = bench.coverage(bench.benchmark_instance("L", 6, 3), budget=dd.Budget(seconds=0))
        assert report.incomplete

    @pytest.mark.parametrize("late", [False, True])
    def test_budget_bounds_the_membership_loop(self, monkeypatch, late):
        """The budget DD ran under is charged once per facet checked: on a
        clock that `late` moves past the deadline only once DD has returned,
        the membership loop trips it; on a clock that stays put the report is
        the unbudgeted one."""
        now = [0.0]
        monkeypatch.setattr(dd, "time", SimpleNamespace(monotonic=lambda: now[0]))
        dual_rays = dd.dual_rays

        def dual_rays_then_late(gens, budget=None):
            rays = dual_rays(gens, budget)
            now[0] += 100.0 * late
            return rays

        monkeypatch.setattr(dd, "dual_rays", dual_rays_then_late)
        inst = bench.benchmark_instance("L", 6, 3)
        report = bench.coverage(inst, budget=dd.Budget(seconds=1))
        if late:
            assert report.incomplete and report.facet_total == 0
            assert all(v == 0 for _, v in report.covered)
        else:
            assert report == bench.coverage(inst)

    def test_step_budget_counts_dd_pairs_and_facets(self):
        """A step budget is charged DD's candidate pairs, then one step per
        facet: L(6,3) takes 230 pairs on the chamber of its block {5, 6}
        (302 with no chamber walls) and has 22 facets, so 252 steps give the
        unbudgeted report and 251 an incomplete one."""
        inst = bench.benchmark_instance("L", 6, 3)
        full = bench.coverage(inst)
        assert full.facet_total == 22
        assert bench.coverage(inst, budget=dd.Budget(steps=252)) == full
        short = bench.coverage(inst, budget=dd.Budget(steps=251))
        assert short.incomplete and short.facet_total == short.vertical_count == 0
        assert short.covered == tuple((name, 0) for name in bench.DEFAULT_FAMILIES)

    def test_degenerate_facet_counts_for_every_family(self):
        """With h constant, the one nonvertical facet is the degenerate
        z >= h_{p+1}, which every family covers."""
        inst = build_instance(3, [5, 5, 5], None, Fraction(1, 3))
        assert hulls.facets(inst).normals == ((1, 0, 0, 0, -5),)
        report = bench.coverage(inst, families.FAMILIES)
        assert report.covered == tuple((name, 1) for name in families.FAMILIES)

    def test_monotone_coverage(self):
        r = bench.benchmark_coverage("K", 7, 5)
        assert (
            r.fraction("zhao")
            <= r.fraction("blp_uniform")
            <= r.fraction("blp_generic")
        )


class TestEmit:
    def test_markdown_dash_convention(self):
        rows = [bench.benchmark_coverage("L", 4, 2)]  # a 100% row
        text = bench.emit_report(rows, "markdown")
        assert "| - | 100.0 | - | - |" in text

    def test_empty_report_is_header_only(self):
        text = bench.emit_report([], "csv")
        assert text.splitlines() == [",".join(bench._COLUMNS)]

    def test_json_round_trip(self):
        rows = [
            bench.benchmark_coverage("L", 5, 3),
            bench.benchmark_coverage("K", 4, 2),
        ]
        back = parse_report(bench.emit_report(rows, "json"))
        assert back == sorted(rows, key=lambda r: (r.example, r.m, r.p))

    def test_json_bytes(self):
        """A json row is the report's fields in declaration order, covered
        as an object, indented by two: on a complete report and on a
        budget-tripped one with other families."""
        complete = bench.benchmark_coverage("L", 5, 3)
        assert bench.emit_report([complete], "json") == "\n".join([
            "[",
            "  {",
            '    "example": "L",',
            '    "m": 5,',
            '    "p": 3,',
            '    "facet_total": 13,',
            '    "vertical_count": 11,',
            '    "covered": {',
            '      "zhao": 11,',
            '      "blp_uniform": 12,',
            '      "blp_generic": 13',
            "    },",
            '    "trivial": false,',
            '    "incomplete": false',
            "  }",
            "]",
        ])
        tripped = bench.coverage(bench.benchmark_instance("K", 6, 4), ("star", "zhao"),
                                 dd.Budget(steps=0), example="K")
        assert bench.emit_report([tripped], "json") == (
            '[\n  {\n    "example": "K",\n    "m": 6,\n    "p": 4,\n    "facet_total": 0,\n'
            '    "vertical_count": 0,\n    "covered": {\n      "star": 0,\n      "zhao": 0\n    },\n'
            '    "trivial": false,\n    "incomplete": true\n  }\n]'
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            bench.emit_report([], "yaml")


class TestCli:
    def test_coverage_check_paper_ok(self, capsys):
        code = cli.main(["coverage", "--example", "L", "--m", "5", "--p", "3", "--check-paper"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "84.62" in out and "92.31" in out

    def test_coverage_check_paper_needs_a_table_family(self, monkeypatch, capsys):
        """--check-paper with none of the table's families would compare
        nothing; it is refused before any coverage is computed."""
        monkeypatch.setattr(bench, "benchmark_coverage", None)
        argv = ["coverage", "--example", "L", "--m", "6", "--p", "4", "--families", "star",
                "--format", "json", "--check-paper"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--families lists none of them" in captured.err

    def test_coverage_check_paper_mismatch(self, capsys):
        # the middle family column of this cell cannot be reproduced from the
        # stated closed form; the CLI reports it via the dedicated exit code
        code = cli.main(["coverage", "--example", "L", "--m", "6", "--p", "4", "--check-paper"])
        assert code == cli.EXIT_PAPER_MISMATCH
        err = capsys.readouterr().err
        assert "blp_uniform" in err

    def test_hull_check_generate_pipeline(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance_to_json(bench.benchmark_instance("L", 4, 2)))
        out_file = tmp_path / "facets.json"
        assert cli.main(["hull", "--instance", str(inst_file), "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["vertices"] and payload["facets"]

        cut_file = tmp_path / "cut.json"
        cut_file.write_text(json.dumps({"z": "1", "x": ["2", "4", "0", "0"], "rhs": "20"}))
        assert cli.main(["check", "--instance", str(inst_file), "--cut", str(cut_file), "--facet"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"valid": True, "facet": True}

        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "instance": json.loads(inst_file.read_text()),
            "t_set": [1, 2],
        }))
        assert cli.main(["generate", "--family", "strengthened_star",
                         "--params", str(params), "--out", str(tmp_path / "cut2.json")]) == 0
        cut2 = json.loads((tmp_path / "cut2.json").read_text())
        assert cut2["z"] == "1"

    # each family's worked example: (family, instance, parameter fields, library params)
    K_PI = [Fraction(1, 8)] * 4 + [Fraction(1, 12)] * 6
    GENERATE_CASES = {
        "star": ("star", (3, [20, 18, 14], None, 1), {"t_set": [1, 2, 3]},
                 families.StarParams((1, 2, 3))),
        "strengthened_star": ("strengthened_star", (5, [20, 18, 14, 11, 6], None, Fraction(3, 5)),
                              {"t_set": [1, 2, 3]}, families.StarParams((1, 2, 3))),
        "lifted": ("lifted", (5, [20, 18, 14, 11, 6], None, Fraction(3, 5)),
                   {"r": 2, "t_set": [1, 2], "q_list": [4]},
                   families.LiftedParams(2, (1, 2), (4,))),
        "kucukyavuz": ("kucukyavuz", (6, [20, 18, 14, 11, 6, 5], None, Fraction(4, 6)),
                       {"r": 2, "t_set": [1, 2], "q_list": [4, 5]},
                       families.LiftedParams(2, (1, 2), (4, 5))),
        "zhao": ("zhao", (10, [40, 38, 34, 31, 26, 16, 8, 4, 2, 1], K_PI, Fraction(1, 2)),
                 {"r": 1, "t_set": [1], "q_list": [4, 7, 8]},
                 families.LiftedParams(1, (1,), (4, 7, 8))),
        "zhao_s_list": ("zhao", (10, [40, 38, 34, 31, 26, 16, 8, 4, 2, 1], K_PI, Fraction(1, 2)),
                        {"r": 1, "t_set": [1], "q_list": [4, 7, 8], "s_list": [1, 2, 3]},
                        families.LiftedParams(1, (1,), (4, 7, 8), s_list=(1, 2, 3))),
        "blp_uniform": ("blp_uniform", (10, [20, 18, 14, 11, 6, 5, 4, 3, 2, 1], None,
                                        Fraction(4, 10)),
                        {"r": 1, "t_set": [1], "q_list": [6, 8, 7], "delta": ["1"]},
                        families.BlpUniformParams(1, (1,), (6, 8, 7), (Fraction(1),))),
    }

    @pytest.mark.parametrize("case", sorted(GENERATE_CASES))
    def test_generate_prints_the_library_cut(self, case, tmp_path, capsys):
        family, inst_args, fields, lib_params = self.GENERATE_CASES[case]
        inst = build_instance(*inst_args)
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dict(fields, instance=json.loads(instance_to_json(inst)))))
        assert cli.main(["generate", "--family", family, "--params", str(params)]) == 0
        want = families.GENERATORS[family][1](inst, lib_params)
        assert json.loads(capsys.readouterr().out) == json.loads(cut_to_json(want))

    def test_generate_generic_certificate(self, tmp_path, capsys):
        inst = bench.benchmark_instance("L", 10, 4)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "instance": json.loads(instance_to_json(inst)),
            "r": 4, "t_set": [1, 4], "delta": ["-3", "-3"],
            "q_list": [5, 6], "phi": ["3", "3"],
        }))
        assert cli.main(["generate", "--family", "blp_generic", "--params", str(params)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"]
        assert doc["certificate"]["beta"][3] == "3"

    def test_generate_generic_refusal_exit_code(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "instance": json.loads(instance_to_json(bench.benchmark_instance("L", 4, 2))),
            "r": 1, "t_set": [1], "delta": ["0"],
        }))
        assert cli.main(["generate", "--family", "blp_generic", "--params", str(params)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"accepted": False, "infeasible_j": 3}

    # each malformed parameter file: (family, document; None stands for the instance)
    MALFORMED_PARAMS = {
        "string_t_set": ("star", {"instance": None, "t_set": "12"}),
        "float_r": ("zhao", {"instance": None, "r": 1.9, "t_set": [1], "q_list": [3]}),
        "missing_t_set": ("zhao", {"instance": None, "r": 1, "q_list": [3]}),
        "array_document": ("star", [None]),
        "missing_instance": ("star", {"t_set": [1]}),
        "string_q_list": ("lifted", {"instance": None, "r": 1, "t_set": [1], "q_list": "3"}),
        "string_A_sets": ("blp_generic", {"instance": None, "r": 1, "t_set": [1],
                                          "delta": ["0"], "A_sets": "1234"}),
        # a multiplier is checked against its A_j, so beta alone is refused
        # rather than replaced by a searched one
        "beta_without_A_sets": ("blp_generic", {"instance": None, "r": 1, "t_set": [1],
                                                "delta": ["0"], "beta": ["1", "1", "1", "1"]}),
        # an A_j value outside q_list is refused, not dropped
        "A_sets_outside_q_list": ("blp_generic", {"instance": None, "r": 1, "t_set": [1],
                                                  "delta": ["0"], "q_list": [3], "phi": ["0"],
                                                  "A_sets": [[], [9], [], []]}),
        # an empty s_list is a given s_list, checked against q_list, not an
        # absent one (only a missing or null s_list is derived)
        "empty_s_list": ("zhao", {"instance": None, "r": 1, "t_set": [1], "q_list": [3],
                                  "s_list": []}),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
    def test_generate_malformed_params_exit_code(self, case, tmp_path, capsys):
        family, doc = self.MALFORMED_PARAMS[case]
        inst = json.loads(instance_to_json(bench.benchmark_instance("L", 4, 2)))
        if isinstance(doc, list):
            doc = [inst]
        elif "instance" in doc:
            doc = dict(doc, instance=inst)
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        argv = ["generate", "--family", family, "--params", str(params)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "invalid input" in capsys.readouterr().err

    def test_generate_names_the_malformed_A_set(self, tmp_path, capsys):
        """A non-integer A_sets element is refused with its row named, A_j."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "instance": json.loads(instance_to_json(bench.benchmark_instance("L", 4, 2))),
            "r": 1, "t_set": [1], "delta": ["0"], "A_sets": [[], [], [2.5], []],
        }))
        argv = ["generate", "--family", "blp_generic", "--params", str(params)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert ("malformed parameter document: A_3 entry must be an integer, got 2.5"
                in capsys.readouterr().err)

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "inst.json"
        bad.write_text(json.dumps({"m": 2, "h": ["1", "2"], "epsilon": "1"}))
        assert cli.main(["hull", "--instance", str(bad)]) == cli.EXIT_VALIDATION

    # each malformed input: (instance document for `hull`, MIXCUT_BUDGET for `coverage`)
    MALFORMED = {
        "decimal_string": ('{"m": 2, "h": ["2", "1.5"], "epsilon": "1/2"}', None),
        "zero_denominator": ('{"m": 2, "h": ["2", "1/0"], "epsilon": "1/2"}', None),
        "truncated_json": ('{"m": 2, "h": ["2", "1"', None),
        "boolean": ('{"m": 2, "h": [2, true], "epsilon": "1/2"}', None),
        "float_m": ('{"m": 2.9, "h": ["2", "1"], "epsilon": "1/2"}', None),
        "boolean_m": ('{"m": true, "h": ["2"], "epsilon": "1"}', None),
        "scalar_h": ('{"m": 2, "h": 5, "epsilon": "1/2"}', None),
        "scalar_pi": ('{"m": 2, "h": ["2", "1"], "pi": 5, "epsilon": "1/2"}', None),
        "budget_variable": (None, "abc"),
        # 0 and nan would switch the guard off
        "budget_variable_zero": (None, "0"),
        "budget_variable_nan": (None, "nan"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exit_code(self, case, tmp_path, monkeypatch, capsys):
        text, budget = self.MALFORMED[case]
        if budget is None:
            inst_file = tmp_path / "inst.json"
            inst_file.write_text(text)
            argv = ["hull", "--instance", str(inst_file)]
        else:
            monkeypatch.setenv("MIXCUT_BUDGET", budget)
            argv = ["coverage", "--example", "L", "--m", "4", "--p", "2"]
        assert cli.main(argv) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("budget", ["0", "nan", "-1", "-0.5"])
    @pytest.mark.parametrize("command", ["hull", "coverage"])
    def test_nonpositive_budget_exit_code(self, command, budget, tmp_path, capsys):
        if command == "hull":
            inst_file = tmp_path / "inst.json"
            inst_file.write_text(instance_to_json(bench.benchmark_instance("L", 4, 2)))
            argv = ["hull", "--instance", str(inst_file)]
        else:
            argv = ["coverage", "--example", "L", "--m", "4", "--p", "2"]
        assert cli.main(argv + [f"--budget={budget}"]) == cli.EXIT_VALIDATION
        assert "--budget must be a positive number of seconds" in capsys.readouterr().err

    def test_generic_given_beta_is_checked_not_replaced(self, tmp_path, capsys):
        # the search certifies this L(5,3) facet with beta = (0, 0, 0, 0, 12)
        params = tmp_path / "params.json"
        doc = {
            "instance": json.loads(instance_to_json(bench.benchmark_instance("L", 5, 3))),
            "r": 1, "t_set": [1], "delta": ["0"], "q_list": [3, 4], "phi": ["4", "7"],
        }
        argv = ["generate", "--family", "blp_generic", "--params", str(params)]
        params.write_text(json.dumps(dict(doc, beta=["7", "7", "7", "7", "19"])))
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "beta needs a_sets" in capsys.readouterr().err
        empty = [[]] * 5
        params.write_text(json.dumps(dict(doc, beta=["7", "7", "7", "7", "19"], A_sets=empty)))
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"accepted": False, "infeasible_j": 1}
        params.write_text(json.dumps(dict(doc, beta=["0", "0", "0", "0", "13"], A_sets=empty)))
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["certificate"]["beta"] == ["0"] * 4 + ["13"]

    def test_coverage_repeated_family_exit_code(self, capsys):
        argv = ["coverage", "--example", "L", "--m", "5", "--p", "3", "--format", "json"]
        assert cli.main(argv + ["--families", "zhao,zhao"]) == cli.EXIT_VALIDATION
        assert "'zhao' is listed more than once" in capsys.readouterr().err
        assert cli.main(argv + ["--families", "zhao"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)[0]["covered"] == {"zhao": 11}

    @pytest.mark.parametrize("fmt", ["markdown", "csv"])
    def test_coverage_table_format_needs_table_families(self, fmt, capsys):
        argv = ["coverage", "--example", "L", "--m", "5", "--p", "3", "--format", fmt,
                "--families", "zhao,blp_uniform"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lacks blp_generic (use --format json" in captured.err

    def test_coverage_table_format_is_refused_before_the_hull(self, monkeypatch, capsys):
        """A markdown table without every table family is refused before any
        hull is computed, so a small budget does not turn the refusal into
        exit 3; the message is the one `bench.emit_report` gives."""
        calls, enumerate_facets = [], hull.enumerate_facets
        monkeypatch.setattr(
            hull, "enumerate_facets", lambda *a: calls.append(a) or enumerate_facets(*a)
        )
        argv = ["coverage", "--example", "L", "--m", "8", "--p", "4", "--families", "zhao",
                "--budget", "0.000001"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        report = bench.CoverageReport("L", 8, 4, 0, 0, (("zhao", 0),), False)
        with pytest.raises(ValidationError) as exc:
            bench.emit_report([report], "markdown")
        assert captured.err == f"invalid input: {exc.value}\n"
        assert "lacks blp_uniform, blp_generic" in captured.err

    def test_coverage_example_is_read_from_the_catalog(self, monkeypatch):
        """`--example` is case-blind and takes exactly the catalog's labels."""
        monkeypatch.setitem(bench._EXAMPLES, "Q", bench._EXAMPLES["L"])
        argv = ["coverage", "--m", "5", "--p", "3", "--example"]
        for label in ("l", "K", "q"):
            assert cli.build_parser().parse_args(argv + [label]).example == label.upper()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv + ["X"])

    def test_coverage_md_prints_the_markdown_table(self, capsys):
        """`--format md` is passed to `bench.emit_report` as it is and prints
        the bytes `--format markdown` prints."""
        argv = ["coverage", "--example", "L", "--m", "5", "--p", "3", "--format"]
        printed = []
        for fmt in ("md", "markdown"):
            assert cli.main(argv + [fmt]) == cli.EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].startswith("| example |")

    def test_check_cut_string_coefficients_exit_code(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance_to_json(bench.benchmark_instance("L", 2, 1)))
        cut_file = tmp_path / "cut.json"
        cut_file.write_text('{"z": "1", "x": "12", "rhs": "0"}')
        argv = ["check", "--instance", str(inst_file), "--cut", str(cut_file)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        cut_file.write_text('{"z": "1", "x": ["1", "2"], "rhs": "0"}')
        assert cli.main(argv) == cli.EXIT_OK

    def test_check_refuses_a_digit_separator(self, tmp_path, capsys):
        """An h entry "2_0" is no rational (Python's int() would read 20):
        check exits 2 and names the value."""
        (tmp_path / "inst.json").write_text('{"m": 3, "h": ["2_0", "18", "14"], "epsilon": "2/3"}')
        (tmp_path / "cut.json").write_text('{"z": "1", "x": ["0", "0", "0"], "rhs": "14"}')
        argv = ["check", "--instance", str(tmp_path / "inst.json"), "--cut", str(tmp_path / "cut.json")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an exact rational: '2_0'" in captured.err

    L32 = '{"m": 3, "h": ["20", "18", "14"], "epsilon": "2/3"}'

    @pytest.mark.parametrize("cut,facet_out", [
        ('{"z": "1", "x": ["6", "0", "0"], "rhs": "20"}', '{"valid": true, "facet": true}'),
        ('{"z": "1", "x": ["6", "0", "0"], "rhs": "19"}', '{"valid": true, "facet": false}'),
        ('{"z": "1", "x": ["0", "0", "0"], "rhs": "19"}', '{"valid": false, "facet": false}'),
    ], ids=["facet", "valid_non_facet", "invalid"])
    def test_check_output_bytes(self, cut, facet_out, tmp_path, capsys):
        """check prints the same bytes with and without --facet; an invalid
        cut is no facet (is_facet refuses it, and check reads the refusal)."""
        (tmp_path / "inst.json").write_text(self.L32)
        (tmp_path / "cut.json").write_text(cut)
        argv = ["check", "--instance", str(tmp_path / "inst.json"), "--cut", str(tmp_path / "cut.json")]
        assert cli.main(argv + ["--facet"]) == cli.EXIT_OK
        assert capsys.readouterr().out == facet_out + "\n"
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == facet_out.split(", ")[0] + "}\n"

    @pytest.mark.parametrize("facet", [[], ["--facet"]], ids=["valid", "facet"])
    def test_check_wrong_m_cut(self, facet, tmp_path, capsys):
        (tmp_path / "inst.json").write_text(self.L32)
        (tmp_path / "cut.json").write_text('{"z": "1", "x": ["6", "0"], "rhs": "20"}')
        argv = ["check", "--instance", str(tmp_path / "inst.json"), "--cut", str(tmp_path / "cut.json")]
        assert cli.main(argv + facet) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: cut has 2 x coefficients, instance has m=3\n"

    @pytest.mark.parametrize("argv", [["hull", "--instance", "BAD"],
                                      ["check", "--instance", "BAD", "--cut", "CUT"],
                                      ["check", "--instance", "INST", "--cut", "BAD"]],
                             ids=["hull_instance", "check_instance", "check_cut"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_input_exit_code(self, kind, argv, tmp_path, capsys):
        paths = {name: tmp_path / f"{name}.json" for name in ("BAD", "CUT", "INST")}
        paths["INST"].write_text(instance_to_json(bench.benchmark_instance("L", 2, 1)))
        paths["CUT"].write_text('{"z": "1", "x": ["1", "2"], "rhs": "0"}')
        if kind == "directory":
            paths["BAD"].mkdir()
        else:
            paths["BAD"].write_bytes(b'{"m": 2, "h": ["2", "1"], "epsilon": "\xbd"}')
        assert cli.main([str(paths.get(a, a)) for a in argv]) == cli.EXIT_VALIDATION
        assert "file" in capsys.readouterr().err

    # each malformed input: (field of the set document or None, field of the
    # assignment document or None, replacement value; ... deletes the field)
    MALFORMED_BLP = {
        "float_n": ("n", None, 2.5),
        "boolean_m": ("m", None, True),
        "missing_E": ("E", None, ...),
        "scalar_f": ("f", None, "12"),
        "short_b": ("constraints", None, [{"A": [], "b": [], "c": [], "d": "0"}]),
        "z_slot_out_of_range": ("z_slot", None, 99),
        "pair_out_of_range": ("compl_pairs", None, [[1, 9]]),
        # x_0 (the z slot) has no row -x_0 >= -1 behind it
        "unbacked_upper_bound": ("upper_bounded", None, [0, 1, 2, 3]),
        # the prefix rows read x_i (i < j) at y = e_j, so (3, 1) has none
        "unbacked_compl_pair": ("compl_complement_pairs", None, [[3, 1]]),
        "scalar_base": (None, "base", 3),
        "missing_base": (None, "base", ...),
        "float_weight_index": (None, "k_weights", [[1, 2.5, "1"]]),
        # a set with no scenarios, consistent otherwise: no y parts, no pairs,
        # and the base at j = 0
        "zero_scenarios": (None, None, _no_scenarios),
        # a set with no constraints: any base constraint index indexes nothing
        "no_constraints": (None, None, _no_constraints),
    }
    # the message printed on stderr, where a case pins it
    MALFORMED_BLP_MESSAGES = {
        "no_constraints": "base constraint index 0 indexes nothing: the range is empty",
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_BLP))
    def test_blp_aggregate_malformed_exit_code(self, case, tmp_path, capsys):
        from mixcut import blp

        S = blp.build_sc(bench.benchmark_instance("L", 3, 2))
        docs = {
            "set": json.loads(blp.bilinear_set_to_json(S)),
            "assignment": json.loads(
                blp.assignment_to_json(blp.BlpAssignment.build(_row(S, "zbound:1"), 1))
            ),
        }
        set_key, assignment_key, value = self.MALFORMED_BLP[case]
        doc, key = (docs["set"], set_key) if set_key else (docs["assignment"], assignment_key)
        if callable(value):
            value(docs)
        elif value is ...:
            del doc[key]
        else:
            doc[key] = value
        argv = ["blp-aggregate"]
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv += [f"--{name}", str(path)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert self.MALFORMED_BLP_MESSAGES.get(case, "") in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance_to_json(bench.benchmark_instance("L", 8, 4)))
        monkeypatch.setenv("MIXCUT_BUDGET", "0.000001")
        assert cli.main(["hull", "--instance", str(inst_file)]) == cli.EXIT_BUDGET

    def test_coverage_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        out_file = tmp_path / "coverage.md"
        monkeypatch.setenv("MIXCUT_BUDGET", "0.000001")
        argv = ["coverage", "--example", "L", "--m", "8", "--p", "4", "--out", str(out_file)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert "incomplete: budget exhausted" in capsys.readouterr().err
        assert not out_file.exists()

    def test_budget_leaves_no_out_file(self, tmp_path, monkeypatch, capsys):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance_to_json(bench.benchmark_instance("L", 8, 4)))
        out_file = tmp_path / "facets.json"
        monkeypatch.setenv("MIXCUT_BUDGET", "0.000001")
        argv = ["hull", "--instance", str(inst_file), "--out", str(out_file)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert not out_file.exists()

    # L(6,4) with h over 4 and over 6, whose normals have z entries 2, 4 and
    # 3, 6 (as in test_hull.py's test_facetset_json_round_trip), and K(5,3);
    # all three have vertical facets
    HULL_FILE_CASES = {
        "L64_h_over_4": (6, [Fraction(v, 4) for v in (20, 18, 14, 11, 6, 5)], None,
                         Fraction(4, 6)),
        "L64_h_over_6": (6, [Fraction(v, 6) for v in (20, 18, 14, 11, 6, 5)], None,
                         Fraction(4, 6)),
        "K53": (5, [20, 18, 14, 11, 6], None, Fraction(3, 5)),
    }

    @pytest.mark.parametrize("case", sorted(HULL_FILE_CASES))
    def test_hull_writes_the_facet_file(self, case, tmp_path, capsys):
        """`mixcut hull` writes `facetset_to_json` and a newline, to --out and to stdout."""
        inst = build_instance(*self.HULL_FILE_CASES[case])
        fs = hull.enumerate_facets(inst)
        assert fs.vertical
        expected = (hull.facetset_to_json(fs) + "\n").encode()
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance_to_json(inst))
        out_file = tmp_path / "facets.json"
        assert cli.main(["hull", "--instance", str(inst_file), "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == expected
        assert cli.main(["hull", "--instance", str(inst_file)]) == 0
        assert capsys.readouterr().out.encode() == expected

    def test_hull_streams_the_facet_file(self, tmp_path, monkeypatch):
        """K(10,5) has 2 006 nonvertical facets; `mixcut hull` writes its file
        to a sink that only hashes while holding under a quarter of the text."""
        inst = bench.benchmark_instance("K", 10, 5)
        fs = hulls.facets(inst)
        assert len(fs.normals) >= 1000
        text = hull.facetset_to_json(fs) + "\n"
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance_to_json(inst))
        monkeypatch.setattr(hull, "enumerate_facets", lambda inst, budget=None: fs)

        class HashingSink:
            def __init__(self):
                self.sha = hashlib.sha256()

            def write(self, piece):
                self.sha.update(piece.encode())
                return len(piece)

            def writelines(self, pieces):
                for piece in pieces:
                    self.write(piece)

        sink = HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        args = SimpleNamespace(instance=str(inst_file), out=None, budget=3600.0)
        tracemalloc.start()
        try:
            assert cli.cmd_hull(args) == cli.EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.sha.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
        assert peak < len(text) / 4

    def test_blp_aggregate_roundtrip(self, tmp_path, capsys):
        from mixcut import blp

        inst = bench.benchmark_instance("L", 3, 2)
        S = blp.build_sc(inst)
        set_file = tmp_path / "set.json"
        set_file.write_text(blp.bilinear_set_to_json(S))
        a = blp.BlpAssignment.build(_row(S, "zbound:1"), 1)
        a_file = tmp_path / "assignment.json"
        a_file.write_text(blp.assignment_to_json(a))
        assert cli.main(["blp-aggregate", "--set", str(set_file), "--assignment", str(a_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cut"]["z"] == "1"

    def test_blp_aggregate_facet_through_base_pair(self, tmp_path, capsys):
        """On L(3,2)'s lifted set, base prefix:1<2 at j = 2 plus weight 2 on
        complement-:1 at j = 0 gives 2 x_1 >= 0, which `check --facet` calls a
        facet; the output carries no facet verdict of its own."""
        from mixcut import blp

        inst = bench.benchmark_instance("L", 3, 2)
        S = blp.build_sc(inst)
        base = _row(S, "prefix:1<2")
        weight = _row(S, "complement-:1")
        assert (base, weight) == (12, 3)
        files = {
            "set": blp.bilinear_set_to_json(S),
            "assignment": json.dumps({"base": [base, 2], "k_weights": [[0, weight, "2"]]}),
            "instance": instance_to_json(inst),
        }
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        argv = ["blp-aggregate", "--set", str(tmp_path / "set.json"),
                "--assignment", str(tmp_path / "assignment.json")]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["coefs", "cut", "rhs", "t_sets_disjoint"]
        assert doc["cut"] == {"z": "0", "x": ["2", "0", "0"], "rhs": "0"}
        (tmp_path / "cut.json").write_text(json.dumps(doc["cut"]))
        argv = ["check", "--instance", str(tmp_path / "instance.json"),
                "--cut", str(tmp_path / "cut.json"), "--facet"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True, "facet": True}

    def test_blp_aggregate_mixed_denominators(self, tmp_path, capsys):
        """On L(3,2)'s lifted set, an aggregate with denominators 2 in its
        bilinear and x terms and 3 in its y terms: `substitute` scales by their
        lcm 6, and the cut differs from the one any single denominator or the
        lcm of the bilinear or the x terms alone would give."""
        from mixcut import blp

        S = blp.build_sc(bench.benchmark_instance("L", 3, 2))
        doc = {"base": [12, 3], "k_weights": [[3, 9, "3/2"], [3, 11, "2/3"]],
               "t_weights": [[0, 3, "3/2"], [3, 2, "1/3"]]}
        expr = blp.aggregate(S, blp.assignment_from_json(json.dumps(doc)))
        quad, lin_x, lin_y = (fractions_over(expr.denominator, v)
                              for v in (expr.quad_num, expr.lin_x_num, expr.lin_y_num))
        assert {v.denominator for row in quad for v in row} | {
            v.denominator for v in lin_x} == {1, 2}
        assert {v.denominator for v in lin_y} == {1, 3}
        (tmp_path / "set.json").write_text(blp.bilinear_set_to_json(S))
        (tmp_path / "assignment.json").write_text(json.dumps(doc))
        argv = ["blp-aggregate", "--set", str(tmp_path / "set.json"),
                "--assignment", str(tmp_path / "assignment.json")]
        assert cli.main(argv) == 0
        cut = json.loads(capsys.readouterr().out)["cut"]
        assert cut == {"z": "0", "x": ["-1/2", "-1/2", "-1/2"], "rhs": "-3/2"}

    def test_blp_aggregate_document_pinned(self, tmp_path, capsys):
        """The whole blp-aggregate document for L(3,2)'s mixed-denominator
        assignment, byte for byte: on the lifted set, and on the same set with
        its z slot deleted, whose document has no cut."""
        from mixcut import blp

        S = blp.build_sc(bench.benchmark_instance("L", 3, 2))
        lifted = json.loads(blp.bilinear_set_to_json(S))
        no_z = {key: v for key, v in lifted.items() if key != "z_slot"}
        (tmp_path / "assignment.json").write_text(json.dumps(
            {"base": [12, 3], "k_weights": [[3, 9, "3/2"], [3, 11, "2/3"]],
             "t_weights": [[0, 3, "3/2"], [3, 2, "1/3"]]}))
        expected = {
            "lifted": '{"coefs": ["0", "-1/2", "-1/2", "-1/2"], "rhs": "-3/2", '
                      '"t_sets_disjoint": true, '
                      '"cut": {"z": "0", "x": ["-1/2", "-1/2", "-1/2"], "rhs": "-3/2"}}\n',
            "no_z": '{"coefs": ["0", "-1/2", "-1/2", "-1/2"], "rhs": "-3/2", '
                    '"t_sets_disjoint": true}\n',
        }
        for name, doc in (("lifted", lifted), ("no_z", no_z)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            argv = ["blp-aggregate", "--set", str(tmp_path / f"{name}.json"),
                    "--assignment", str(tmp_path / "assignment.json")]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == expected[name]
