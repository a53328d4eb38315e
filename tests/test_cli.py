"""Command-line interface: parsing, execution, exit codes, documents."""
import csv
import json

import pytest

from tailorder.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    build_parser,
    main,
    parse_exppoly,
)


class TestParsing:
    def test_compare_command(self):
        args = build_parser().parse_args(
            ["compare", "--x", "maxexp(1,1)", "--y", "maxexp(1,2)",
             "--s", "2", "--criterion", "newcrit"])
        assert args.command == "compare"
        assert args.s == 2
        assert args.criterion == "newcrit"

    def test_analyze_command(self):
        args = build_parser().parse_args(["analyze", "--dist", "polyexp(1)", "--s-max", "3"])
        assert args.command == "analyze"
        assert args.s_max == 3

    def test_unknown_flag_exits_with_usage_code(self):
        assert main(["compare", "--bogus", "1"]) == EXIT_USAGE

    def test_invalid_order_rejected(self):
        code = main(["compare", "--x", "exp(1)", "--y", "exp(1)", "--s", "0"])
        assert code == EXIT_USAGE

    def test_exppoly_literal(self):
        p = parse_exppoly("1*e(-1)+(-1)*e(-2)")
        assert p.terms == ((1.0, 1.0), (-1.0, 2.0))
        p2 = parse_exppoly("0.5*e(-0.3) + 2*e(-1.7)")
        assert p2.terms == ((0.5, 0.3), (2.0, 1.7))
        with pytest.raises(ValueError):
            parse_exppoly("garbage")


class TestExecution:
    def test_compare_supported_exit_zero(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(["--json", str(out), "compare", "--x", "exp(1)", "--y", "exp(1)",
                     "--s", "1", "--criterion", "ifr", "--a-grid", "8", "--b-grid", "6"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["outcome"] == "supported"
        assert doc["criterion"] == "pattern-ifr"
        assert "runtime_ms" in doc and "grid" in doc

    def test_compare_refuted_exit_one(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(["--json", str(out), "compare", "--x", "bpareto(2,6)",
                     "--y", "bpareto(5,10)", "--s", "1", "--criterion", "ifra",
                     "--a-grid", "16"])
        doc = json.loads(out.read_text())
        assert doc["outcome"] in ("refuted", "supported", "inconclusive")
        assert code in (EXIT_OK, EXIT_REFUTED, EXIT_INCONCLUSIVE)
        if doc["outcome"] == "refuted":
            assert code == EXIT_REFUTED
            assert "witness" in doc

    def test_compare_overflowing_intercept_writes_verdict(self, tmp_path):
        # composing maxexp(1,200) at the grid's most negative intercepts
        # overflows; those cells take the sampled scan
        out = tmp_path / "verdict.json"
        code = main(["--json", str(out), "compare", "--x", "maxexp(1,200)", "--y", "exp(1)",
                     "--s", "1", "--criterion", "ifr", "--a-grid", "8", "--b-grid", "8"])
        doc = json.loads(out.read_text())
        assert doc["outcome"] == "supported" and code == EXIT_OK

    def test_monotone_refutation_document_is_strict_json(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(["--json", str(out), "compare", "--x", "exp(1)", "--y", "weibull(2,1)",
                     "--s", "1", "--criterion", "convexity"])
        assert code == EXIT_REFUTED

        def reject(token):
            raise ValueError(f"{token} is not valid JSON (RFC 8259)")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["witness"]["a"] is None and doc["witness"]["b"] is None

    def test_analyze_document(self, tmp_path):
        out = tmp_path / "classes.json"
        code = main(["--json", str(out), "analyze", "--dist", "polyexp(1)", "--s-max", "2"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        rows = doc["classes"]
        assert rows[0]["s"] == 1 and rows[0]["ifr"] == "non_monotone"
        assert rows[1]["s"] == 2 and rows[1]["ifr"] == "increasing"

    def test_roots_document(self, tmp_path):
        out = tmp_path / "roots.json"
        code = main(["--json", str(out), "roots", "--exppoly", "1*e(-1)+(-1)*e(-2)",
                     "--lo", "-5", "--hi", "5"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["bound"] == 1
        assert len(doc["roots"]) == 1
        lo, hi = doc["roots"][0]
        assert lo <= 0.0 <= hi

    def test_scan_with_trace(self, tmp_path):
        out = tmp_path / "scan.json"
        trace = tmp_path / "trace.csv"
        code = main(["--json", str(out), "--csv", str(trace),
                     "scan", "--exppoly", "1*e(-1)+(-1)*e(-2)", "--x-max", "20"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["pattern"] in ("+", "-", "+,-", "-,+")
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "value", "sign"]
        assert len(rows) > 64
        xs = [float(r[0]) for r in rows[1:]]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("argv", [
        ["--csv", "t.csv", "compare", "--x", "exp(1)", "--y", "exp(1)"],
        ["--csv", "t.csv", "roots", "--exppoly", "1*e(-1)+(-1)*e(-2)"],
        ["--csv", "t.csv", "analyze", "--dist", "exp(1)"],
        ["--trace", "--csv", "t.csv", "scan", "--exppoly", "1*e(-1)+(-1)*e(-2)"],
    ])
    def test_trace_options_that_write_nothing_exit_usage(self, argv, tmp_path, monkeypatch,
                                                         capsys):
        # --csv writes scan traces only; --trace, which collected nothing
        # that --csv did not, is no longer an option
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        assert not (tmp_path / "t.csv").exists()
        # the error line names the option at fault
        assert argv[0] in capsys.readouterr().err.strip().splitlines()[-1]

    @pytest.mark.parametrize("option, value, field", [
        ("--x-max", "0", "x_max"), ("--x-max", "-2", "x_max"),
        ("--grid", "63", "initial_grid"), ("--grid", "8", "initial_grid"),
        ("--depth", "-1", "max_refinement_depth"),
    ])
    def test_scan_rejects_settings_instead_of_replacing_them(self, option, value, field, capsys):
        # x_max 0 once fell back to the default window, and grids below 64
        # were quietly raised to 64
        code = main(["scan", "--exppoly", "1*e(-1)+(-1)*e(-2)", option, value])
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_casebook_single_case(self, tmp_path):
        out = tmp_path / "cases.json"
        code = main(["--json", str(out), "casebook", "--id", "MAXEXP_DFR_ONSET"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] == 1 and doc["failed"] == 0

    def test_roots_of_a_non_finite_polynomial_exit_usage(self, capsys):
        # inf*e(-2) once pruned the finite term and reported "no roots"
        code = main(["roots", "--exppoly", "inf*e(-2)+1*e(-1)", "--lo", "0.01", "--hi", "10"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_overflowing_moment_exits_usage(self, capsys):
        # E X^9 of weibull(0.05, 1) is about 1e320, past the largest float
        code = main(["compare", "--x", "weibull(0.05,1)", "--y", "exp(1)", "--s", "12",
                     "--criterion", "ifra"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows a float" in err
        assert len(err.strip().splitlines()) == 1

    def test_casebook_unknown_id(self):
        assert main(["casebook", "--id", "NOPE"]) == EXIT_USAGE

    def test_unwritable_report_path_exits_io(self, tmp_path):
        from tailorder.cli import EXIT_IO
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        code = main(["--json", str(target), "roots",
                     "--exppoly", "1*e(-1)+(-1)*e(-2)", "--lo", "-5", "--hi", "5"])
        assert code == EXIT_IO

    def test_internal_error_has_its_own_exit_code(self, monkeypatch, capsys):
        from tailorder import cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_compare", broken)
        code = main(["compare", "--x", "exp(1)", "--y", "exp(1)"])
        assert code == cli.EXIT_INTERNAL == 5
        assert code not in (EXIT_OK, EXIT_REFUTED, EXIT_USAGE, EXIT_INCONCLUSIVE, cli.EXIT_IO)
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_verdict_documents_rerun_identically(self, tmp_path):
        # re-running the embedded grid reproduces the outcome
        out = tmp_path / "verdict.json"
        main(["--json", str(out), "compare", "--x", "maxexp(1,1)",
              "--y", "maxexp(1,2)", "--s", "2", "--criterion", "ifra",
              "--a-grid", "12"])
        doc = json.loads(out.read_text())
        from tailorder import GridSpec, MaxExp, compare_ifra
        grid = GridSpec(tuple(doc["grid"]["a_values"]), tuple(doc["grid"]["b_values"]))
        verdict = compare_ifra(MaxExp(1.0, 1.0), MaxExp(1.0, 2.0), doc["s"], grid)
        assert verdict.outcome == doc["outcome"]
        assert verdict.cells_scanned == doc["cells_scanned"]

    def test_float_serialization_precision(self, tmp_path):
        out = tmp_path / "roots.json"
        main(["--json", str(out), "roots", "--exppoly", "1*e(-2)+(-0.9)*e(-1)"])
        doc = json.loads(out.read_text())
        lo, hi = doc["roots"][0]
        # 17 significant digits round-trip through JSON: the root at
        # -log(0.9) must sit inside the reported interval
        import math
        assert lo <= -math.log(0.9) <= hi
        assert hi - lo <= 1e-11
