"""End-to-end checks of the command line front end.

Everything goes through ``run(argv, out)`` with a StringIO sink, so these
tests see exactly what a shell user would see, exit status included.
"""

import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactci.cli
import exactci.sterne
from exactci.bounds import ConfidenceInterval, clopper_pearson
from exactci.cli import run
from exactci.family import special_param
from exactci.models import make_binomial, make_odds_ratio, make_poisson
from exactci.sterne import DEFAULT_DELTA, _jumps_between, sterne_interval
from oracles import curve_jumps_reference


def run_cli(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def parse_csv(text):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestTextOutput:
    def test_oddsratio_report(self):
        code, out = run_cli("oddsratio", "--y1", "42", "--n1", "49",
                            "--y2", "203", "--n2", "317")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model: oddsratio n1=49 n2=317 s=245 x=42 alpha=0.05"
        assert lines[1] == "estimate rho = 3.1884"
        methods = [line.split()[0] for line in lines[2:]]
        assert methods == ["sterne", "clopper_pearson", "lower", "upper"]
        assert "rho [1.4428, 8.0212]" in lines[2]
        assert "rho [1.4333, 9.1593]" in lines[3]

    def test_poisson_sterne_line(self):
        code, out = run_cli("poisson", "--x", "3", "--method", "sterne")
        assert code == 0
        assert "lambda [0.8177, 8.8077]" in out

    def test_infinite_and_missing_endpoints_render(self):
        # One-sided intervals have an infinite theta endpoint; the Poisson
        # upper natural endpoint is inadmissible, so its p-value prints as -.
        _, out = run_cli("oddsratio", "--y1", "42", "--n1", "49",
                         "--y2", "203", "--n2", "317", "--method", "upper")
        assert "theta [-inf, " in out
        assert "rho [0.0000, " in out
        _, out = run_cli("poisson", "--x", "3", "--method", "lower")
        assert "endpoint p [0.0500, -]" in out


class TestJsonOutput:
    def test_round_trip_matches_library(self):
        code, out = run_cli("binomial", "--n", "20", "--x", "5",
                            "--method", "sterne", "--format", "json")
        assert code == 0
        record = json.loads(out)
        ci = sterne_interval(make_binomial(20), 5, 0.05)
        assert record["model"] == {"kind": "binomial", "n": 20}
        assert record["x"] == 5
        assert record["method"] == "sterne"
        assert record["theta"] == [ci.theta_lo, ci.theta_hi]
        assert record["natural"] == [ci.natural_lo, ci.natural_hi]
        assert record["endpoint_pvalues"] == [ci.pvalue_lo, ci.pvalue_hi]
        assert record["delta"] == DEFAULT_DELTA

    def test_method_all_is_a_list(self):
        _, out = run_cli("binomial", "--n", "20", "--x", "5",
                         "--method", "all", "--format", "json")
        records = json.loads(out)
        assert [r["method"] for r in records] == [
            "sterne", "clopper_pearson", "lower", "upper"]
        assert all(r["model"] == {"kind": "binomial", "n": 20} for r in records)

    def test_infinity_tokens_parse_back(self):
        _, out = run_cli("binomial", "--n", "20", "--x", "5",
                         "--method", "upper", "--format", "json")
        assert "-Infinity" in out
        record = json.loads(out)
        assert record["theta"][0] == -math.inf
        assert record["natural"][0] == 0.0
        assert record["endpoint_pvalues"][0] == 1.0


class TestCsvOutput:
    def test_values_survive_repr_round_trip(self):
        code, out = run_cli("binomial", "--n", "12", "--x", "4",
                            "--method", "cp", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ("method,alpha,theta_lo,theta_hi,natural_lo,natural_hi,"
                          "pvalue_lo,pvalue_hi,delta")
        assert len(rows) == 1
        ci = clopper_pearson(make_binomial(12), 4, 0.05)
        row = rows[0]
        assert row[0] == "clopper_pearson"
        assert float(row[2]) == ci.theta_lo
        assert float(row[5]) == ci.natural_hi
        assert row[8] == ""  # no bisection tolerance for the exact-tail method

    def test_header_is_the_interval_fields(self):
        code, out = run_cli("binomial", "--n", "20", "--x", "5", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ",".join(f.name for f in dataclasses.fields(ConfidenceInterval))
        assert [len(row) for row in rows] == [9] * 4


class TestCurve:
    def test_crossings_bracket_the_sterne_interval(self):
        # The set where the curve exceeds alpha is exactly the Sterne
        # interval, so the outermost grid points above 0.05 must sit within
        # one grid step of the published endpoints for n=20, x=5.
        code, out = run_cli("binomial", "--n", "20", "--x", "5", "--curve",
                            "--from", "0.01", "--to", "0.99", "--points", "393")
        assert code == 0
        _, rows = parse_csv(out)
        covered = [float(nat) for nat, p, side in rows
                   if side == "sample" and float(p) > 0.05]
        step = (0.99 - 0.01) / 392
        assert 0.1041 - 1e-6 <= min(covered) <= 0.1041 + step + 1e-6
        assert 0.4746 - step - 1e-6 <= max(covered) <= 0.4746 + 1e-6

    def test_jump_rows_come_in_ordered_pairs(self):
        _, out = run_cli("binomial", "--n", "20", "--x", "5", "--curve",
                         "--from", "0.01", "--to", "0.99", "--points", "15")
        _, rows = parse_csv(out)
        lefts = [(float(nat), float(p)) for nat, p, side in rows if side == "left"]
        rights = [(float(nat), float(p)) for nat, p, side in rows if side == "right"]
        assert len(lefts) == len(rights) == 20
        assert [nat for nat, _ in lefts] == [nat for nat, _ in rights]
        assert all(0.0 <= p <= 1.0 for _, p in lefts + rights)
        naturals = [float(nat) for nat, _, _ in rows]
        assert naturals == sorted(naturals)

    def test_standalone_subcommand_matches_flag(self):
        argv = ["--n", "20", "--x", "5", "--from", "0.2", "--to", "0.3",
                "--points", "11"]
        _, via_flag = run_cli("binomial", "--n", "20", "--x", "5", "--curve",
                              "--from", "0.2", "--to", "0.3", "--points", "11")
        _, via_sub = run_cli("curve", "--model", "binomial", *argv)
        assert via_sub == via_flag


POISSON = make_poisson()


@st.composite
def curve_ranges(draw):
    """(model, x, t_from, t_to): each end at a special parameter theta_{k,x}
    (a support-end sentinel included), one float either side of it, or just
    inside the plateau, so ranges fall below, above, inside and across it."""
    model = draw(st.one_of(
        st.integers(1, 1000).map(make_binomial),
        st.integers(1, 244).map(lambda s: make_odds_ratio(49, 317, s)),
        st.just(POISSON),
    ))
    fam = model.family
    lo, hi = int(fam.support.lo), fam.support.hi
    x = draw(st.integers(lo, min(hi, 5000)))

    def end():
        k = min(max(x + draw(st.integers(-400, 400)), lo - 1), hi + 1)
        if k == x:
            return draw(st.sampled_from([np.nextafter(special_param(fam, x, x - 1), math.inf),
                                         np.nextafter(special_param(fam, x, x + 1), -math.inf)]))
        t = special_param(fam, x, k)
        return draw(st.sampled_from([t, np.nextafter(t, -math.inf), np.nextafter(t, math.inf)]))

    t_from, t_to = sorted([float(end()), float(end())])
    return model, x, t_from, t_to


class TestCurveJumps:
    @given(case=curve_ranges())
    @settings(max_examples=300, deadline=None)
    def test_searches_match_the_walk(self, case):
        model, x, t_from, t_to = case
        assert _jumps_between(model.family, x, t_from, t_to) == curve_jumps_reference(*case)

    @pytest.mark.parametrize("argv", [
        ("binomial", "--n", "100000", "--x", "10", "--curve",
         "--from", "0.5", "--to", "0.5001", "--points", "3"),
        ("poisson", "--x", "0", "--curve", "--from", "1000", "--to", "1001", "--points", "3"),
    ])
    def test_range_off_the_plateau_reads_few_special_parameters(self, monkeypatch, argv):
        # the range lies far above the plateau: the first jump in it is one
        # search away from x, and no k between x and it is read. Only the
        # reads inside the jump listing count, not those of the samples.
        reads, read, jumps = [], exactci.sterne.special_param, exactci.cli._jumps_between

        def counted(*args):
            reads.append(args)
            return read(*args)

        def listed(*args):
            with monkeypatch.context() as m:
                m.setattr(exactci.sterne, "special_param", counted)
                return jumps(*args)

        monkeypatch.setattr(exactci.cli, "_jumps_between", listed)
        code, _ = run_cli(*argv)
        assert code == 0
        assert 0 < len(reads) <= 200


class TestAudit:
    def test_binomial_audit_holds_nominal_level(self):
        code, out = run_cli("audit", "--model", "binomial", "--n", "10",
                            "--method", "sterne", "--from", "0.02",
                            "--to", "0.98", "--points", "97")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == "eta,natural_param,coverage,expected_length"
        # endpoint augmentation inserts the interval boundaries, so the
        # table is a superset of the requested grid
        assert len(rows) >= 97
        assert float(rows[0][1]) == pytest.approx(0.02)
        assert float(rows[-1][1]) == pytest.approx(0.98)
        assert all(float(r[2]) >= 0.95 - 1e-9 for r in rows)
        assert all(float(r[3]) > 0 for r in rows)

    def test_poisson_audit_leaves_length_blank(self):
        code, out = run_cli("audit", "--model", "poisson", "--method", "cp",
                            "--from", "0.5", "--to", "5", "--points", "9")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[3] == "" for r in rows)
        assert all(float(r[2]) >= 0.95 - 1e-9 for r in rows)

    def test_oddsratio_audit_holds_nominal_level(self):
        code, out = run_cli("audit", "--model", "oddsratio", "--n1", "49", "--n2", "317",
                            "--s", "90", "--from", "0.2", "--to", "5", "--points", "21")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) > 21
        assert float(rows[0][1]) == pytest.approx(0.2)
        assert float(rows[-1][1]) == pytest.approx(5.0)
        assert all(float(r[2]) >= 0.95 - 1e-9 for r in rows)
        assert all(float(r[3]) > 0 for r in rows)

    @pytest.mark.parametrize("start", ["0.2", "0.13779129410285074"])
    def test_grid_ends_at_to(self, start):
        # start + (end - start) * 6 / 6 misses 1.0 by one ulp: above it from 0.2,
        # an argument error, and below it from the other start, which would audit
        # theta = 36.7 instead of the point mass at p = 1
        grid = ("--from", start, "--to", "1.0", "--points", "7")
        code, out = run_cli("audit", "--model", "binomial", "--n", "20", *grid)
        assert code == 0
        assert parse_csv(out)[1][-1][:2] == ["inf", "1.0"]
        code, out = run_cli("binomial", "--n", "20", "--x", "5", "--curve", *grid)
        assert code == 0
        assert [r for r in parse_csv(out)[1] if r[2] == "sample"][-1][0] == "1.0"

    def test_oddsratio_audit_needs_dimensions(self):
        code, _ = run_cli("audit", "--model", "oddsratio",
                          "--from", "0.5", "--to", "2")
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("binomial", "--n", "20", "--x", "5", "--alpha", "1.5"),
        ("binomial", "--n", "0", "--x", "0"),
        ("oddsratio", "--y1", "9", "--n1", "5", "--y2", "1", "--n2", "4"),
        ("poisson", "--x", "-1"),
        ("binomial", "--n", "20", "--x", "25"),
        ("curve", "--model", "binomial", "--n", "20", "--x", "5", "--to", "0.9"),
        ("binomial", "--n", "20", "--x", "5", "--curve",
         "--from", "0.9", "--to", "0.2"),
        ("binomial", "--n", "20", "--x", "5", "--curve",
         "--from", "0.2", "--to", "0.9", "--points", "1"),
        ("audit", "--model", "binomial", "--n", "20", "--from", "0.9", "--to", "0.9"),
        ("audit", "--model", "binomial", "--n", "20", "--from", "0.2", "--to", "0.9",
         "--points", "1"),
        ("curve", "--model", "binomial", "--x", "5", "--from", "0.2", "--to", "0.9"),
        ("curve", "--model", "poisson", "--from", "0.5", "--to", "9"),
        ("binomial", "--n", "20", "--x", "5", "--curve", "--from", "-0.5", "--to", "0.5"),
        ("audit", "--model", "binomial", "--n", "20", "--from", "-0.5", "--to", "0.5"),
        ("poisson", "--x", "3", "--curve", "--from", "-1", "--to", "5"),
        ("poisson", "--x", "3", "--curve", "--from", "1", "--to", "inf"),
        ("poisson", "--x", "3", "--curve", "--from=-inf", "--to", "5"),
        ("curve", "--model", "poisson", "--x", "3", "--from", "1", "--to", "inf"),
        ("audit", "--model", "poisson", "--from", "1", "--to", "inf"),
        ("oddsratio", "--y1", "42", "--n1", "49", "--y2", "203", "--n2", "317",
         "--curve", "--from", "0.5", "--to", "inf"),
    ])
    def test_argument_errors_exit_2(self, argv):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""

    # each refusal comes from the library entry the command reaches: x from the entry gate,
    # after the curve range; delta whatever the method
    @pytest.mark.parametrize("argv,err", [
        (("binomial", "--n", "20", "--x", "25"), "OutOfSupport: x = 25 is not in the support\n"),
        (("poisson", "--x", "-1"), "OutOfSupport: x = -1 is not in the support\n"),
        (("binomial", "--n", "20", "--x", "25", "--curve", "--from", "0.9", "--to", "0.2"),
         "BadGrid: "),
        *[(("binomial", "--n", "20", "--x", "5", "--method", m, "--delta", "-1"), "BadDelta: ")
          for m in ("cp", "lower", "upper")],
        (("audit", "--model", "binomial", "--n", "20", "--method", "cp", "--delta", "0",
          "--from", "0.1", "--to", "0.9", "--points", "3"), "BadDelta: "),
    ])
    def test_each_refusal_is_named_on_stderr(self, capsys, argv, err):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err.startswith("error: " + err)

    def test_oversized_window_exits_1(self):
        # lambda = 6e6 needs a summation window past the enumeration cap;
        # that is a computation failure, not an argument error.
        code, _ = run_cli("audit", "--model", "poisson", "--method", "cp",
                          "--from", "1", "--to", "6000000", "--points", "11")
        assert code == 1

    def test_error_goes_to_stderr(self, capsys):
        code, out = run_cli("binomial", "--n", "20", "--x", "5",
                            "--alpha", "1.5")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: BadAlpha:")

    # every command and model with its flags and their values; curve and audit
    # leave the model's flags to the model check, the others to argparse
    COMPLETE = [
        ["binomial", "--n", "20", "--x", "5"],
        ["poisson", "--x", "3"],
        ["oddsratio", "--y1", "42", "--n1", "49", "--y2", "203", "--n2", "317"],
        ["curve", "--model", "binomial", "--n", "20", "--x", "5", "--from", "0.2", "--to", "0.9"],
        ["curve", "--model", "poisson", "--x", "3", "--from", "0.5", "--to", "9"],
        ["curve", "--model", "oddsratio", "--y1", "42", "--n1", "49", "--y2", "203", "--n2", "317",
         "--from", "0.5", "--to", "20"],
        ["audit", "--model", "binomial", "--n", "20", "--from", "0.2", "--to", "0.9"],
        ["audit", "--model", "oddsratio", "--n1", "49", "--n2", "317", "--s", "245",
         "--from", "0.5", "--to", "20"],
    ]
    MISSING = [(argv[:i] + argv[i + 2:], argv[i]) for argv in COMPLETE
               for i in range(len(argv)) if argv[i] not in ("--model", "--from", "--to")
               and argv[i].startswith("--")]

    @pytest.mark.parametrize("argv", COMPLETE)
    def test_complete_model_flags_run(self, argv):
        extra = ["--points", "3"] if argv[0] in ("curve", "audit") else ["--method", "cp"]
        assert run_cli(*argv, *extra)[0] == 0

    @pytest.mark.parametrize("argv,flag", MISSING)
    def test_a_missing_model_flag_exits_2_and_is_named(self, capsys, argv, flag):
        try:
            code, out = run_cli(*argv)
        except SystemExit as e:  # argparse's own check of a required flag
            code, out = e.code, ""
        assert (code, out) == (2, "")
        assert re.search(rf"{flag}\b", capsys.readouterr().err)

    def test_missing_required_argument_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run(["binomial", "--x", "3"], out=io.StringIO())
        assert exc.value.code == 2


class TestParserReuse:
    REQUESTS = [
        ("binomial", "--n", "20", "--x", "5", "--format", "json"),
        ("poisson", "--x", "3", "--method", "cp", "--format", "csv"),
        ("oddsratio", "--y1", "42", "--n1", "49", "--y2", "203", "--n2", "317"),
    ]

    def test_requests_match_a_fresh_parser(self, monkeypatch):
        cached = [run_cli(*argv) for argv in self.REQUESTS]
        parser = exactci.cli._parser
        assert parser is not None
        assert [run_cli(*argv) for argv in self.REQUESTS] == cached
        assert exactci.cli._parser is parser
        fresh = []
        for argv in self.REQUESTS:
            monkeypatch.setattr(exactci.cli, "_parser", None)
            fresh.append(run_cli(*argv))
        assert fresh == cached

    def test_errors_after_reuse_still_exit_2(self):
        run_cli(*self.REQUESTS[0])
        assert run_cli("binomial", "--n", "20", "--x", "5", "--alpha", "1.5") == (2, "")
        with pytest.raises(SystemExit) as exc:
            run(["binomial", "--n", "20"])
        assert exc.value.code == 2
        assert run_cli(*self.REQUESTS[1])[0] == 0


def test_requests_do_not_import_scipy():
    # numpy alone computes the shipped models' weights
    script = "\n".join([
        "import io, sys",
        "from exactci.cli import run",
        "for argv in (['binomial', '--n', '20', '--x', '5', '--method', 'all'],",
        "             ['poisson', '--x', '3'],",
        "             ['oddsratio', '--y1', '42', '--n1', '49', '--y2', '203', '--n2', '317']):",
        "    assert run(argv, out=io.StringIO()) == 0, argv",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    src = str(pathlib.Path(exactci.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
