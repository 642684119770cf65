import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr as sympy_parse_expr,
    rationalize,
    standard_transformations,
)
from test_spectra import plant_shortfall

from ratdyn.cli import _parse_point, parse_expr, parse_field, parse_map, run
from ratdyn.errors import DegreeTooLow, MapParseError
from ratdyn.polys import pmul


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    rc = run(argv, stdin_text=stdin_text, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def test_make_chebyshev_emits_coefficients():
    rc, out, _ = run_cli(["make", "chebyshev", "--d", "3"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["num"] == ["0", "-3", "0", "1"]
    assert rep["results"]["den"] == ["1"]
    assert rep["schema_version"] == 1


def test_make_pipes_into_cycles():
    rc, made, _ = run_cli(["make", "power", "--d", "2"])
    assert rc == 0
    rc, out, _ = run_cli(["cycles", "--map", "-", "--period", "2"], stdin_text=made)
    assert rc == 0
    rep = json.loads(out)
    cycles = rep["results"]["cycles"]
    assert len(cycles) == 1
    lam = cycles[0]["multiplier"]
    assert abs(lam["re"] - 4) < 1e-9 and abs(lam["im"]) < 1e-9
    assert abs(cycles[0]["char_exponent"] - math.log(2)) < 1e-12


def test_field_check_example():
    rc, out, _ = run_cli(
        ["field-check", "--map", "z^2-1", "--max-period", "1", "--field", "Q"]
    )
    assert rc == 0
    rep = json.loads(out)
    m = rep["results"]["membership"]
    assert not m["all_in_field"]
    assert m["first_violation"]["period"] == 1
    assert m["first_violation"]["factor"] == "λ^2-2λ-4"
    rc, out, _ = run_cli(
        ["field-check", "--map", "z^2-1", "--max-period", "1", "--field", "quad:5"]
    )
    assert json.loads(out)["results"]["membership"]["all_in_field"]


def test_field_check_is_exact_in_a_quartic_field():
    # the roots 1 +- sqrt(2) and 1 +- i lie in Q[x]/(x^4+1):
    # sqrt(2) = x - x^3 and i = x^2
    for spec in ("z^2-1/4", "z^2+1/2"):
        rc, out, _ = run_cli(
            ["field-check", "--map", spec, "--max-period", "1", "--field", "poly:x^4+1"]
        )
        assert rc == 0
        m = json.loads(out)["results"]["membership"]
        assert m["verdict"] == "AllInK" and m["heuristic"] is False


def test_expression_parser_handles_lattes_text():
    f = parse_map("(z^2+1)^2/(4*(z^3-z))")
    assert f.degree == 4 and f.exact
    g = parse_map("lattes:-1:0:2")
    assert list(g.num) == list(f.num) and list(g.den) == list(f.den)


def test_expression_parser_rationals_and_signs():
    f = parse_map("-z^2 + 1/2")
    assert f.degree == 2
    g = parse_map("z^-2")
    assert g.degree == 2
    h = parse_map("chebyshev:3:-")
    assert h.evaluate(2).to_complex() == -2


def test_the_parser_cancels_common_factors_once_at_the_end():
    with pytest.raises(DegreeTooLow):
        parse_map("z/z")
    with pytest.raises(DegreeTooLow):
        parse_map("(z^2-1)/(z-1)")
    f = parse_map("z^2*(z-3)/(z-3)")
    assert [str(c) for c in f.num] == ["0", "0", "1"] and [str(c) for c in f.den] == ["1"]
    g = parse_map("(z^3-z)/(2*z^2-2*z)+(z-1)^2")  # (z+1)/2 + (z-1)^2
    assert [str(c) for c in g.num] == ["3/2", "-3/2", "1"] and [str(c) for c in g.den] == ["1"]
    assert parse_field("poly:(x^4+2*x)/x").poly == (2, 0, 0, 1)
    assert _parse_point("(z-1)/(2*z-2)").z.re == Fraction(1, 2)


def _equal(rf, num, den):
    return pmul(rf.num, [Fraction(c) for c in den]) == pmul([Fraction(c) for c in num], rf.den)


@pytest.mark.parametrize(
    "text, num, den",
    [
        # unary minus binds looser than ^, wherever it stands
        ("2*-z^2", [0, 0, -2], [1]),
        ("1+2*-z^2", [1, 0, -2], [1]),
        ("1/-z^2", [-1], [0, 0, 1]),
        ("--z^2", [0, 0, 1], [1]),
        ("-z^2", [0, 0, -1], [1]),
        # the conventions kept from the hand-written parser
        ("z^-2", [1], [0, 0, 1]),
        ("z^2^3", [0] * 6 + [1], [1]),
        ("2^-1*z^2", [0, 0, 1], [2]),
        ("0.1*z^2", [0, 0, Fraction(1, 10)], [1]),
        ("z^2\n+1", [1, 0, 1], [1]),
    ],
)
def test_the_expression_grammar(text, num, den):
    assert _equal(parse_expr(text, "z"), num, den)


_ATOMS = st.sampled_from(["z", "1", "2", "3", "1/2", "0.5", "(z+1)", "(2*z-3)", "(1-z)"])


def _expressions(inner):
    # ^ only on an atom or a parenthesised expression: no ^ chains
    base = st.one_of(_ATOMS, inner.map(lambda e: f"({e})"))
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(st.sampled_from("-+"), inner).map("".join),
        st.tuples(base, st.sampled_from(["-2", "-1", "0", "2", "3"])).map("^".join),
    )


_SYMPY = standard_transformations + (convert_xor, rationalize)


def _has_zero_divisor(text):
    # read unevaluated: sympy folds ((z-z)^-2)^-2 to 0, zero divisor and all
    expr = sympy_parse_expr(text, transformations=_SYMPY, evaluate=False)
    return any(
        p.exp.is_negative and sympy.expand(p.base.doit()) == 0 for p in expr.atoms(sympy.Pow)
    )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.recursive(_ATOMS, _expressions, max_leaves=8))
def test_the_grammar_agrees_with_sympy(text):
    expr = sympy_parse_expr(text, transformations=_SYMPY)
    try:
        rf = parse_expr(text, "z")
    except MapParseError:
        # only a zero divisor, such as (z-z)^-1, may be refused
        assert _has_zero_divisor(text), text
        assume(False)
    z = sympy.Symbol("z")
    num, den = sympy.fraction(sympy.together(expr))

    def as_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(p))

    assert sympy.expand(as_sympy(rf.num) * den - num * as_sympy(rf.den)) == 0, text


def test_long_and_deep_expressions():
    assert _equal(parse_expr("+".join(["z"] * 500), "z"), [0, 500], [1])
    # past the limits of Python's own parser the answer is an error, not a
    # traceback
    for text in ("+".join(["z"] * 5000), "-" * 100000 + "z", "(" * 300 + "z" + ")" * 300):
        with pytest.raises(MapParseError):
            parse_expr(text, "z")


def test_lattes_maps_build_for_every_multiplier():
    rc, out, _ = run_cli(["make", "lattes", "--a", "-1", "--b", "0", "--m", "5"])
    assert rc == 0 and json.loads(out)["results"]["degree"] == 25
    assert parse_map("lattes:-1:0:5").degree == 25


def test_make_lattes_defaults_to_the_readme_map():
    # the defaults a = b = 0 were a singular curve, so the bare command
    # always exited 3 with singular-curve
    rc, out, err = run_cli(["make", "lattes"])
    assert (rc, err) == (0, "")
    _, want, _ = run_cli(["make", "lattes", "--a", "-1", "--b", "0", "--m", "2"])
    assert json.loads(out)["results"] == json.loads(want)["results"]


def test_escaping_exact_critical_orbits_finish():
    # the critical point Infinity of (z^2-2)/(z^2+3) runs 1, -1/4, ... with
    # heights doubling at every step, so the postcritical scan iterates it
    # in floats; the cubic's float scan closes on an attracting cycle, and
    # the orbifold weights' chains from Infinity run in floats too.  A fresh
    # process, so that a regression fails instead of hanging.
    cubic = "(-z^3-3*z^2+2*z-3)/(z^3+3*z^2-2*z-1)"
    code = (
        "import io, json, ratdyn.cli\n"
        "for argv in (['classify', '--max-period', '1', '--map', '(z^2-2)/(z^2+3)'],\n"
        "             ['zdunik', '--max-period', '2', '--samples', '1000',\n"
        "              '--map', '(z^2-2)/(z^2+3)'],\n"
        f"             ['classify', '--max-period', '1', '--map', '{cubic}']):\n"
        "    out = io.StringIO()\n"
        "    assert ratdyn.cli.run(argv, out=out, err=io.StringIO()) == 0\n"
        "    print(json.loads(out.getvalue())['results'].get('class'))\n"
    )
    import ratdyn

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ratdyn.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["not-exceptional", "None", "not-exceptional"]


def test_parse_errors_exit_2():
    rc, _, err = run_cli(["cycles", "--map", "z^&2", "--period", "1"])
    assert rc == 2
    diag = json.loads(err)
    assert diag["error"]["code"] == "map-parse"
    rc, _, err = run_cli(
        ["field-check", "--map", "z^2", "--max-period", "1", "--field", "bogus"]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["field-check", "--map", "z^2-1", "--max-period", "1", "--field", "quad:x"],
        ["field-check", "--map", "z^2-1", "--max-period", "1", "--field", "poly:1,x"],
        ["cycles", "--map", "z^2-1", "--period", "0"],
        ["equidist", "--map", "z^2-1", "--periods", "0"],
        ["equidist", "--map", "z^2-1", "--periods", "1,a"],
        ["lyapunov", "--map", "z^2-1", "--samples", "100", "--periodic", "-1"],
        # 300 nested parentheses once ended in a RecursionError traceback
        ["spectrum", "--map", "(" * 300 + "z^2" + ")" * 300, "--max-period", "1"],
        # outside the map grammar: a hex literal, a non-integer exponent,
        # other Python, non-ASCII text
        ["spectrum", "--map", "0x10*z^2", "--max-period", "1"],
        ["spectrum", "--map", "z^1.5", "--max-period", "1"],
        ["spectrum", "--map", "z^2 if 1 else z", "--max-period", "1"],
        ["spectrum", "--map", "__import__('os')", "--max-period", "1"],
        ["spectrum", "--map", "z[0]", "--max-period", "1"],
        ["spectrum", "--map", "\uff5a*12+3*z^2", "--max-period", "1"],
        # malformed numbers, once a TypeError, ZeroDivisionError, ValueError
        # or LinAlgError traceback; the stdin cases are (argv, stdin_text) pairs
        ["cycles", "--map", "lattes:1/0:0:2", "--period", "1"],
        ["make", "lattes", "--a", "x"],
        (["cycles", "--map", "-", "--period", "1"], "5"),
        (["cycles", "--map", "-", "--period", "1"], '{"num": [1, 0, 1], "den": 5}'),
        (["cycles", "--map", "-", "--period", "1"], '{"num": ["1/0", 0, 1], "den": [1]}'),
        (["cycles", "--map", "-", "--period", "1"], '{"num": ["x", 0, 1], "den": [1]}'),
        (["cycles", "--map", "-", "--period", "1"], '{"num": [NaN, 0, 1], "den": [1]}'),
        (["cycles", "--map", "-", "--period", "1"], '{"num": [1, 0, 1e400], "den": [1]}'),
        # exact coefficients past the double range, once an OverflowError
        # from the map's float shadows
        ["spectrum", "--map", "10^400*z^2+1", "--max-period", "1"],
        (["spectrum", "--map", "-", "--max-period", "1"], f'{{"num": [1, 0, {10**400}], "den": [1]}}'),
        ["make", "lattes", "--a", "1e400"],
        # out-of-range options, once a traceback (exit 1), an empty run
        # (exit 0) or a quiet empty result
        ["homoclinic", "--map", "z^2-1", "--point", "1.618033988749895", "--q", "0",
         "--n-min", "9", "--n-max", "14"],
        ["homoclinic", "--map", "z^2-1", "--point", "1.618033988749895", "--q", "-1",
         "--n-min", "9", "--n-max", "14"],
        ["cycles", "--map", "z^2-1", "--period", "1", "--tol", "nan"],
        ["cycles", "--map", "z^2-1", "--period", "1", "--tol", "-1"],
        ["cycles", "--map", "z^2-1", "--period", "1", "--tol", "inf"],
        ["spectrum", "--map", "z^2-1", "--max-period", "0"],
        ["field-check", "--map", "z^2-1", "--max-period", "0", "--field", "Q"],
        ["classify", "--map", "z^2-1", "--max-period", "0"],
        ["zdunik", "--map", "z^2-1", "--max-period", "0", "--samples", "100"],
        ["lyapunov", "--map", "z^2-1", "--samples", "0"],
        ["equidist", "--map", "z^2-1", "--periods", "1", "--samples", "0"],
        ["zdunik", "--map", "z^2-1", "--max-period", "1", "--samples", "0"],
        ["equidist", "--map", "z^2-1", "--periods", "1", "--test-degree", "0"],
        ["lyapunov", "--map", "z^2-1", "--samples", "100", "--burn", "-5"],
        ["lyapunov", "--map", "z^2-1", "--samples", "100", "--seed", "-1"],
        # builder signs other than + and -, and a tail past the sign
        ["cycles", "--map", "power:2:x", "--period", "1"],
        ["cycles", "--map", "chebyshev:3:2", "--period", "1"],
        ["cycles", "--map", "power:2:+:extra", "--period", "1"],
        # field specs NumberFieldSpec refuses, once exit 3
        *(["field-check", "--map", "z^2-1", "--max-period", "1", "--field", field]
          for field in ("quad:0", "quad:1", "quad:4", "poly:x^2-4", "poly:2*x^2-1", "poly:1")),
        # builder degrees and multipliers the builders refuse, once exit 3
        ["make", "power", "--d", "1"],
        ["make", "chebyshev", "--d", "0"],
        ["make", "lattes", "--m", "1"],
        ["cycles", "--map", "power:1", "--period", "1"],
        ["cycles", "--map", "lattes:-1:0:0", "--period", "1"],
        # a cap below 1, once a degree-cap failure (exit 4), and a negative
        # indent, once accepted
        ["cycles", "--map", "z^2-1", "--period", "1", "--cap", "0"],
        ["cycles", "--map", "z^2-1", "--period", "1", "--cap", "-5"],
        ["spectrum", "--map", "z^2-1", "--max-period", "1", "--indent", "-1"],
        ["make", "power", "--indent", "-1"],
    ],
)
def test_bad_fields_and_periods_exit_2(argv):
    # each once escaped as a traceback with exit 1
    argv, stdin_text = argv if isinstance(argv, tuple) else (argv, None)
    rc, out, err = run_cli(argv, stdin_text)
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "map-parse"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--map", "z^2", "--tol", "1e-4"], "unrecognized arguments: --tol 1e-4"),
        (["cycles", "--map", "z^2"], "the following arguments are required: --period"),
    ],
    ids=["unrecognised-flag", "missing-period"],
)
def test_argparse_errors_go_to_err_as_json(capsys, argv, message):
    # argparse once printed its usage text to the process's stderr and left
    # the err stream that run was given empty
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": {"code": "usage", "message": message}}
    assert capsys.readouterr().err == ""


def test_help_exits_0(capsys):
    # argparse once printed the help to the process's stdout, not to the
    # out stream that run was given
    rc, out, err = run_cli(["classify", "--help"])
    assert (rc, err) == (0, "")
    assert out.startswith("usage: ratdyn classify")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "family, keys",
    [
        ("power", ["d", "family", "indent", "sign"]),
        ("chebyshev", ["d", "family", "indent", "sign"]),
        ("lattes", ["a", "b", "family", "indent", "m"]),
    ],
)
def test_make_echoes_only_the_options_its_family_reads(family, keys):
    rc, out, _ = run_cli(["make", family])
    assert rc == 0
    assert sorted(json.loads(out)["config"]) == keys


def test_cap_exceeded_exit_4():
    rc, _, err = run_cli(
        ["spectrum", "--map", "z^2", "--max-period", "30", "--cap", "64"]
    )
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "degree-cap"


def test_cubic_period_3_cycles_are_complete():
    # np.roots leaves some of these 27 roots 1e-4 off; two Newton steps
    # once left 8 of the 24 period-3 points failing the residual test
    rc, out, _ = run_cli(["cycles", "--map=-2*z^3+4*z^2+2*z-1", "--period", "3"])
    assert rc == 0
    assert len(json.loads(out)["results"]["cycles"]) == 8


def test_a_failed_grouping_reports_the_missing_points(monkeypatch):
    plant_shortfall(monkeypatch)
    rc, _, err = run_cli(["cycles", "--map=-2*z^3+4*z^2+2*z-1", "--period", "3"])
    assert rc == 3
    diag = json.loads(err)["error"]
    assert diag["code"] == "orbit-mismatch"
    assert diag["message"].startswith("20 points cannot split into period-3 orbits")
    assert "4 of 24 points missing (4 solver roots failed the residual test)" in diag["message"]


def test_numeric_failure_exit_3():
    # homoclinic seed at a superattracting point: numeric failure class
    rc, _, err = run_cli(
        [
            "homoclinic", "--map", "z^2", "--point", "0", "--q", "1",
            "--n-min", "3", "--n-max", "5",
        ]
    )
    assert rc == 3
    assert json.loads(err)["error"]["code"] == "not-repelling"


def test_spectrum_and_classify_payloads():
    rc, out, _ = run_cli(["spectrum", "--map", "z^2", "--max-period", "2"])
    rep = json.loads(out)
    per = rep["results"]["per_period"]
    assert sorted(e["factor"] for e in per["1"]) == ["λ", "λ-2"]
    assert [e["factor"] for e in per["2"]] == ["λ-4"]
    rc, out, _ = run_cli(["classify", "--map", "power:2:+"])
    assert json.loads(out)["results"]["class"] == "power"


def test_spectrum_reports_routes_under_diagnostics():
    rc, out, _ = run_cli(["spectrum", "--map", "z^2-1", "--max-period", "3"])
    assert rc == 0
    diag = json.loads(out)["results"]["diagnostics"]
    assert sorted(diag) == ["1", "2", "3"]
    # one entry per factor: period 1 has the fixed point Infinity and the
    # two finite fixed points with multipliers 1 +- sqrt 5; period 2 the
    # superattracting cycle {0, -1}; period 3 two cycles whose complex
    # multipliers share one quadratic factor
    assert diag["1"] == {"routes": [
        {"factor": "λ", "points": 1, "route": "infinity"},
        {"factor": "λ^2-2λ-4", "points": 2, "route": "algebra"},
    ]}
    assert diag["2"] == {"routes": [{"factor": "λ", "points": 2, "route": "algebra"}]}
    assert diag["3"] == {"routes": [{"factor": "λ^2-8λ+64", "points": 6, "route": "algebra"}]}


def test_cycles_exact_flag_includes_factors():
    rc, out, _ = run_cli(["cycles", "--map", "z^2", "--period", "2", "--exact"])
    assert rc == 0
    rep = json.loads(out)
    facs = rep["results"]["exact_factors"]
    assert facs == [{"factor": "λ-4", "multiplicity": 2}]


def test_determinism_byte_identical_minus_timing():
    args = ["zdunik", "--map", "z^2-1", "--max-period", "3", "--samples", "2000"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_csv_flag():
    rc, out, _ = run_cli(
        ["cycles", "--map", "z^2", "--period", "2", "--csv"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("period,")
    assert len(lines) == 2


def test_lyapunov_subcommand():
    rc, out, _ = run_cli(
        [
            "lyapunov", "--map", "z^2", "--samples", "5000", "--burn", "30",
            "--seed", "4", "--periodic", "4",
        ]
    )
    assert rc == 0
    rep = json.loads(out)
    assert abs(rep["results"]["monte_carlo"]["value"] - math.log(2)) < 0.02
    assert abs(rep["results"]["periodic_average"]["value"] - math.log(2)) < 1e-9


def test_equidist_subcommand():
    rc, out, _ = run_cli(
        [
            "equidist", "--map", "z^2", "--periods", "4,6", "--test-degree", "2",
            "--samples", "4000",
        ]
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["periods"] == [4, 6]
    assert set(rep["results"]["discrepancies"].keys()) == {"4", "6"}


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"csv": True}))
    rc, out, _ = run_cli(
        ["--config", str(cfg), "cycles", "--map", "z^2", "--period", "1"]
    )
    assert rc == 0
    assert out.startswith("period,")  # csv default applied from the file


def test_config_file_defaults_every_declared_option_and_flags_win(tmp_path):
    # the file once applied only over None/False values: its tol never
    # replaced the default 1e-12, and it replaced an explicit --seed 0
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"tol": 1e-6, "seed": 5, "samples": 10}))
    rc, out, _ = run_cli(
        ["--config", str(cfg), "cycles", "--map", "z^2", "--period", "1", "--seed", "0"]
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["config"]["tol"] == 1e-6 and rep["config"]["seed"] == rep["seed"] == 0
    assert "samples" not in rep["config"]  # cycles declares no --samples
    rc, out, _ = run_cli(["--config", str(cfg), "lyapunov", "--map", "z^2"])
    assert rc == 0
    rep = json.loads(out)
    assert (rep["config"]["samples"], rep["seed"]) == (10, 5)
    assert "tol" not in rep["config"]


def test_homoclinic_subcommand():
    rc, out, err = run_cli(
        [
            "homoclinic", "--map", "z^2-1", "--point", "1.6180339887498949",
            "--q", "1", "--n-min", "9", "--n-max", "13",
        ]
    )
    assert rc == 0, err
    rep = json.loads(out)
    res = rep["results"]
    assert abs(res["target_chi"] - math.log(1 + math.sqrt(5))) < 1e-9
    assert all(e["period_verified"] for e in res["entries"])
    assert res["convergence"]["c_over_n_holds"] is True
    # the documented entry shape; residuals are double step residuals
    with open(os.path.join(os.path.dirname(__file__), "..", "docs", "report_schema.json")) as fh:
        (shape,) = json.load(fh)["homoclinic_entries"]["shape"]
    assert all(sorted(e) == sorted(shape) for e in res["entries"])
    assert all(e["residual"] < 1e-14 for e in res["entries"])


@pytest.mark.parametrize("n_min,n_max", [("9", "11"), ("1", "6")])
def test_homoclinic_range_errors_exit_2(n_min, n_max):
    # both ranges once escaped as a ValueError traceback with exit 1: three
    # entries are too few for the convergence report, and n = 1 lies below
    # 2l + 1 = 9 for this seed
    rc, out, err = run_cli(
        [
            "homoclinic", "--map", "z^2-1", "--point", "1.618033988749895",
            "--q", "1", "--n-min", n_min, "--n-max", n_max,
        ]
    )
    assert (rc, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert "2l + 1 = 9" in message and "at least 4 entries" in message


def test_thread_env_var_keeps_results_identical(monkeypatch):
    args = ["zdunik", "--map", "z^2-1", "--max-period", "3", "--samples", "1500"]
    _, base, _ = run_cli(args)
    monkeypatch.setenv("RATDYN_THREADS", "4")
    _, threaded, _ = run_cli(args)
    a, b = json.loads(base), json.loads(threaded)
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_parse_field_polynomial_forms():
    K = parse_field("poly:-2,0,0,1")
    assert K.degree == 3
    K2 = parse_field('poly:"x^3-2"')
    assert K2.poly == K.poly


def test_cycle_records_match_the_schema_and_repelling_is_a_boolean():
    # float cycles once printed repelling as the string "True" (a numpy
    # bool); 1/z^2 has the float 2-cycle {0, Infinity}
    with open(os.path.join(os.path.dirname(__file__), "..", "docs", "report_schema.json")) as fh:
        (shape,) = json.load(fh)["cycle_records"]["shape"]
    for argv, want in [
        (["cycles", "--map", "z^2", "--period", "2", "--exact"], [True]),
        (["cycles", "--map", "1/z^2", "--period", "2"], [False]),
    ]:
        rc, out, _ = run_cli(argv)
        assert rc == 0
        cycles = json.loads(out)["results"]["cycles"]
        assert all(sorted(c) == sorted(shape) for c in cycles)
        assert [c["repelling"] for c in cycles] == want
        assert all(type(c["repelling"]) is bool for c in cycles)


def test_one_version_string():
    import ratdyn

    here = os.path.dirname(__file__)
    with open(os.path.join(here, "..", "pyproject.toml")) as fh:
        (declared,) = re.findall(r'^version = "([^"]+)"$', fh.read(), re.M)
    _, out, _ = run_cli(["make", "power", "--d", "2"])
    assert declared == ratdyn.__version__ == json.loads(out)["version"]


def test_report_schema_document():
    here = os.path.dirname(__file__)
    schema_path = os.path.join(here, "..", "docs", "report_schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    _, out, _ = run_cli(["make", "chebyshev", "--d", "4"])
    rep = json.loads(out)
    for key, typ in schema["top_level"].items():
        assert key in rep, f"missing report key {key}"
        assert type(rep[key]).__name__ == typ, key
    _, out, _ = run_cli(["spectrum", "--map", "z^2", "--max-period", "1"])
    results = json.loads(out)["results"]
    assert sorted(results) == sorted(schema["results_by_command"]["spectrum"])
    (entry,) = schema["spectrum_diagnostics"]["shape"].values()
    for diag in results["diagnostics"].values():
        assert sorted(diag) == sorted(entry)
        for route in diag["routes"]:
            assert sorted(route) == sorted(entry["routes"][0])
            assert route["route"] in ("infinity", "algebra")
