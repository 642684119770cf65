"""Command-line front end.

Map specifications are either rational-coefficient expressions in z
("(z^2+1)^2/(4*(z^3-z))"), parsed with Python's own grammar and ^ for **
(:func:`parse_expr`), builder forms ("power:2:+", "chebyshev:3:-",
"lattes:-1:0:2"), or "-" to read coefficients as JSON from stdin.  Every
subcommand emits a single JSON report on stdout (CSV with --csv where a
table makes sense); diagnostics go to stderr.

Exit codes: 0 success, 2 usage/parse/config error, 3 numeric failure
(partial results attached when available), 4 degree cap exceeded.  Every
error is one JSON line on stderr, argparse's own included.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import contextlib
import json
import math
import sys
import time
from fractions import Fraction

from . import config
from .errors import DegreeCapExceeded, MapParseError, RatdynError
from .polys import (
    pdeg,
    pexactdiv,
    pgcd,
    pmul,
    pscale,
    pstrip,
    padd,
    poly_to_str,
)
from .report import fraction_str, render, run_report, to_jsonable
from .scalars import Qi, qi_from_string
from .sphere import ProjPoint, RationalMap, build_map

# ----------------------------------------------------------------------
# map-spec parsing
# ----------------------------------------------------------------------


class _RatFunc:
    """Rational function over Q as a (num, den) Fraction-poly pair, not
    reduced: :func:`parse_expr` cancels the gcd once at the end."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = pstrip(num)
        self.den = pstrip(den)

    def __add__(self, o):
        return _RatFunc(
            padd(pmul(self.num, o.den), pmul(o.num, self.den)),
            pmul(self.den, o.den),
        )

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        return _RatFunc(pmul(self.num, o.num), pmul(self.den, o.den))

    def __truediv__(self, o):
        if not o.num:
            raise MapParseError("division by zero expression")
        return _RatFunc(pmul(self.num, o.den), pmul(self.den, o.num))

    def __neg__(self):
        return _RatFunc([-c for c in self.num], self.den)

    def pow(self, k: int):
        one = _RatFunc([Fraction(1)], [Fraction(1)])
        if k < 0:
            return one / self.pow(-k)
        half = self.pow(k // 2) if k > 1 else one
        return half * half * self if k % 2 else half * half


_BINOPS = {ast.Add: _RatFunc.__add__, ast.Sub: _RatFunc.__sub__,
           ast.Mult: _RatFunc.__mul__, ast.Div: _RatFunc.__truediv__}


def parse_expr(text: str, var: str) -> _RatFunc:
    """The rational function `text` in `var`, with num and den coprime.

    The grammar is Python's, with ^ for **: unary minus binds looser than
    ^ (2*-z^2 is -2 z^2), a chain a^b^c folds to the left as (a^b)^c, and
    literals are read exactly from their text (0.1 is 1/10).  Only
    literals, `var`, unary +/-, + - * / and integer powers are accepted;
    anything else raises MapParseError, whose message quotes the text as
    parsed (whitespace runs collapsed, ^ as **) and whose position, when
    known, is a column of that text."""
    src = " ".join(text.split()).replace("^", "**")
    if not src.isascii():
        raise MapParseError(f"expression {text!r} is not ASCII text")
    # Python's parser reports nesting past its limits as RecursionError or
    # MemoryError; Fraction refuses literals such as 0x10 with ValueError
    try:
        out = _fold(ast.parse(src, mode="eval").body, var, src)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as e:
        msg, col = getattr(e, "msg", e), getattr(e, "offset", None)
        raise MapParseError(f"cannot parse {src!r}: {msg}", position=col and col - 1) from None
    g = pgcd(out.num, out.den)
    return _RatFunc(pexactdiv(out.num, g), pexactdiv(out.den, g))


def _fold(node, var: str, src: str) -> _RatFunc:
    segment = src[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant):  # exact from its text; 2j and strings are refused
        return _RatFunc([Fraction(segment)], [Fraction(1)])
    if isinstance(node, ast.Name) and node.id == var:
        return _RatFunc([Fraction(0), Fraction(1)], [Fraction(1)])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _fold(node.operand, var, src)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_fold(node.left, var, src), _fold(node.right, var, src))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        # Python's ** nests to the right, a ** (b ** c); unparenthesised,
        # with a sign or not, the chain folds to the left instead
        out, exp = _fold(node.left, var, src), node.right
        while True:
            signed = isinstance(exp, ast.UnaryOp) and isinstance(exp.op, (ast.UAdd, ast.USub))
            inner = exp.operand if signed else exp
            chained = isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Pow)
            if not chained or any(src[: n.col_offset].rstrip().endswith("(") for n in (exp, inner)):
                return out.pow(_exponent(exp, var, src))
            sign = -1 if signed and isinstance(exp.op, ast.USub) else 1
            out = out.pow(sign * _exponent(inner.left, var, src))
            exp = inner.right
    raise MapParseError(f"unsupported {segment!r} in {src!r}", position=node.col_offset)


def _exponent(node, var: str, src: str) -> int:
    k = _constant(_fold(node, var, src))
    if k is None or k.denominator != 1:
        raise MapParseError(f"exponent must be an integer in {src!r}", position=node.col_offset)
    return int(k)


def _constant(rf: _RatFunc) -> Fraction | None:
    """The value of a constant rational function, else None."""
    if pdeg(rf.num) > 0 or pdeg(rf.den) > 0:
        return None
    return rf.num[0] / rf.den[0] if rf.num else Fraction(0)


def _coeff_from_json(v):
    if isinstance(v, dict) and v.get("inf"):
        raise MapParseError("Infinity is not a coefficient")
    try:
        if isinstance(v, str):
            return qi_from_string(v)
        if isinstance(v, dict):
            re, im = v.get("re", 0), v.get("im", 0)
            if isinstance(re, str) or isinstance(im, str):
                return Qi(Fraction(str(re)), Fraction(str(im)))
            v = complex(re, im)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise MapParseError(f"bad coefficient {v!r}: {e}") from None
    # ints stay exact (isfinite would overflow on a large one); NaN and
    # Infinity are not coefficients
    if isinstance(v, int) or isinstance(v, (float, complex)) and cmath.isfinite(v):
        return v
    raise MapParseError(f"bad coefficient {v!r}")


def parse_map(spec: str, stdin_text: str | None = None) -> RationalMap:
    """Builder form, expression text, or '-' (JSON coefficients on stdin)."""
    spec = spec.strip()
    if spec == "-":
        payload = stdin_text if stdin_text is not None else sys.stdin.read()
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as e:
            raise MapParseError(f"stdin is not valid JSON: {e}") from None
        if isinstance(data, dict) and isinstance(data.get("results"), dict):
            data = data["results"]
        if not isinstance(data, dict) or not all(
            isinstance(data.get(k), list) for k in ("num", "den")
        ):
            raise MapParseError("stdin JSON needs 'num' and 'den' arrays")
        num = [_coeff_from_json(v) for v in data["num"]]
        den = [_coeff_from_json(v) for v in data["den"]]
        return build_map(num, den)
    if spec.lower().startswith(("power:", "chebyshev:", "lattes:")):
        return _builder_map(spec)
    rf = parse_expr(spec, "z")
    if not rf.num:
        raise MapParseError("the zero map is not a rational map of degree >= 2")
    return build_map(rf.num, rf.den)


_SIGNS = {"": 1, "+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _builder_map(spec: str) -> RationalMap:
    from .exceptional import LattesSpec, chebyshev_map, flexible_lattes, power_map

    parts = spec.split(":")
    kind = parts[0].lower()
    try:
        if kind in ("power", "chebyshev"):
            _, d, sign = parts + [""] * (3 - len(parts))
            if sign not in _SIGNS:
                raise ValueError(f"sign {sign!r} is not one of {sorted(_SIGNS)}")
            return (power_map if kind == "power" else chebyshev_map)(int(d), _SIGNS[sign])
        if kind == "lattes":
            _, a, b, m = parts
            return flexible_lattes(LattesSpec(Fraction(a), Fraction(b), int(m)))
    except (IndexError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise MapParseError(f"bad builder spec {spec!r}: {e}") from None
    raise MapParseError(f"unknown builder {kind!r}")


def parse_field(text: str):
    from .spectra import NumberFieldSpec

    t = text.strip()
    if t in ("Q", "q", "QQ"):
        return NumberFieldSpec.rationals()
    try:
        if t.lower().startswith("quad:"):
            return NumberFieldSpec.quadratic(int(t.split(":", 1)[1]))
        if t.lower().startswith("poly:"):
            body = t.split(":", 1)[1].strip().strip('"')
            if "," in body:
                coeffs = [int(x) for x in body.split(",")]
            else:
                rf = parse_expr(body, "x")
                if pdeg(rf.den) != 0:
                    raise MapParseError("field polynomial must be a polynomial")
                coeffs_fr = pscale(rf.num, 1 / rf.den[0])
                if any(c.denominator != 1 for c in coeffs_fr):
                    raise MapParseError("field polynomial must have integer coefficients")
                coeffs = [int(c) for c in coeffs_fr]
            return NumberFieldSpec(coeffs)
    except MapParseError:
        raise
    except (ValueError, RatdynError) as e:  # RatdynError: NumberFieldSpec refuses it
        raise MapParseError(f"bad field spec {text!r}: {e}") from None
    raise MapParseError(f"bad field spec {text!r} (use Q | quad:D | poly:...)")


def _parse_point(text: str) -> ProjPoint:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return ProjPoint.infinity()
    try:
        val = _constant(parse_expr(text, "z"))
    except MapParseError:
        val = None
    if val is not None:
        return ProjPoint.finite(Qi(val))
    try:
        return ProjPoint.finite(complex(text.replace("i", "j")))
    except ValueError:
        raise MapParseError(f"bad point {text!r}") from None


# ----------------------------------------------------------------------
# serialization helpers for results
# ----------------------------------------------------------------------


def _map_payload(f: RationalMap):
    def ser(coeffs):
        out = []
        for c in coeffs:
            if isinstance(c, Qi):
                if c.is_real():
                    out.append(fraction_str(c.re))
                else:
                    out.append({"re": fraction_str(c.re), "im": fraction_str(c.im)})
            else:
                out.append(to_jsonable(complex(c)))
        return out

    return {"num": ser(f.num), "den": ser(f.den), "degree": f.degree,
            "exact": f.exact}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_cycles(args, f):
    from .periodic import cycles_of_period
    from .spectra import multiplier_factors

    cycles, rep = cycles_of_period(
        f, args.period, tol=args.tol, seed=args.seed, cap=args.cap
    )
    cycles.sort(key=lambda c: (-abs(c.multiplier), c.char_exponent))
    out = {
        "period": args.period,
        "cycles": to_jsonable(cycles),
        "solve_report": to_jsonable(rep),
    }
    if args.exact:
        pf = multiplier_factors(f, args.period, cap=args.cap, seed=args.seed)
        out["exact_factors"] = [
            {"factor": poly_to_str(list(q), "λ"), "multiplicity": m}
            for q, m in pf.factors
        ]
    rows = [
        {
            "period": c["period"],
            "multiplier_re": c["multiplier"]["re"],
            "multiplier_im": c["multiplier"]["im"],
            "char_exponent": c["char_exponent"],
            "repelling": c["repelling"],
        }
        for c in out["cycles"]
    ]
    return out, rows


def _cmd_spectrum(args, f):
    from .spectra import algebraic_spectrum

    spec = algebraic_spectrum(f, args.max_period, cap=args.cap)
    per = {}
    rows = []
    for n in sorted(spec.periods):
        per[str(n)] = [
            {"factor": poly_to_str(list(q), "λ"), "multiplicity": m,
             "coefficients": [fraction_str(c) for c in q]}
            for q, m in spec.periods[n]
        ]
        for q, m in spec.periods[n]:
            rows.append(
                {"period": n, "factor": poly_to_str(list(q), "λ"), "multiplicity": m}
            )
    diagnostics = {
        str(n): {
            "routes": [
                {"factor": poly_to_str(list(q), "λ"), "points": k, "route": route}
                for q, k, route in pf.routes
            ],
        }
        for n, pf in sorted(spec.period_factors.items())
    }
    return {"per_period": per, "diagnostics": diagnostics}, rows


def _cmd_field_check(args, f):
    from .spectra import algebraic_spectrum, integrality, membership

    K = parse_field(args.field)
    spec = algebraic_spectrum(f, args.max_period, cap=args.cap)
    mv = membership(spec, K)
    iv = integrality(spec)
    out = {
        "field": K.describe(),
        "membership": {
            "verdict": mv.describe(),
            "all_in_field": mv.all_in_field,
            "heuristic": False,
            "first_violation": None
            if mv.first_violation is None
            else {
                "period": mv.first_violation[0],
                "factor": poly_to_str(list(mv.first_violation[1]), "λ"),
            },
        },
        "integrality": {
            "verdict": iv.describe(),
            "all_algebraic_integers": iv.all_algebraic_integers,
            "all_rational_integers": iv.all_rational_integers,
        },
    }
    return out, None


def _cmd_classify(args, f):
    from .exceptional import classify

    res = classify(f, max_period=args.max_period, cap=args.cap, seed=args.seed)
    return {
        "class": res.kind,
        "sign": res.sign,
        "degree": res.degree,
        "reason": res.reason,
        "evidence": to_jsonable(res.evidence),
    }, None


def _cmd_lyapunov(args, f):
    from .ergodic import backward_orbit_sample, lyapunov, lyapunov_from_periodic

    cloud = backward_orbit_sample(f, args.samples, burn_in=args.burn, seed=args.seed)
    mc = lyapunov(f, cloud)
    out = {"monte_carlo": to_jsonable(mc)}
    if args.periodic:
        pa = lyapunov_from_periodic(f, args.periodic, seed=args.seed, cap=args.cap)
        out["periodic_average"] = to_jsonable(pa)
    return out, None


def _cmd_equidist(args, f):
    from .ergodic import backward_orbit_sample, periodic_cloud, weak_convergence_report

    try:
        periods = [int(x) for x in args.periods.split(",") if x.strip()]
    except ValueError as e:
        raise MapParseError(f"bad periods {args.periods!r}: {e}") from None
    if not periods or min(periods) < 1:
        raise MapParseError("need at least one period, each >= 1")
    reference = backward_orbit_sample(
        f, args.samples, burn_in=args.burn, seed=args.seed
    )
    clouds = [periodic_cloud(f, n, seed=args.seed, cap=args.cap) for n in periods]
    rep = weak_convergence_report(clouds, reference, args.test_degree, f=f)
    rows = []
    for n, row in zip(periods, rep.rows):
        for name, val in row.items():
            rows.append({"period": n, "test_function": name, "discrepancy": val})
    return {
        "test_names": rep.test_names,
        "periods": periods,
        "discrepancies": {str(n): row for n, row in zip(periods, rep.rows)},
    }, rows


def _cmd_homoclinic(args, f):
    from .homoclinic import convergence_report, exponent_sequence, find_seed

    z0 = _parse_point(args.point)
    seed_obj = find_seed(f, z0, q=args.q, tol=args.tol)
    if args.n_min < 2 * seed_obj.l + 1 or args.n_max - args.n_min < 3:
        raise MapParseError(
            f"--n-min {args.n_min} --n-max {args.n_max}: the sequence needs "
            f"n >= 2l + 1 = {2 * seed_obj.l + 1} and the convergence report "
            "at least 4 entries"
        )
    seq = exponent_sequence(f, seed_obj, args.n_min, args.n_max, tol=args.tol)
    rep = convergence_report(seq)
    entries = to_jsonable(seq.entries)
    return {
        "seed": {
            "z0": to_jsonable(seed_obj.z0),
            "q": seed_obj.q,
            "multiplier": to_jsonable(seed_obj.multiplier),
            "l": seed_obj.l,
            "chain": [to_jsonable(c) for c in seed_obj.chain],
            "r_U": seed_obj.r_U,
            "r_V": seed_obj.r_V,
            "r_W": seed_obj.r_W,
        },
        "target_chi": seq.target_chi,
        "entries": entries,
        "convergence": to_jsonable(rep),
    }, entries


def _cmd_zdunik(args, f):
    from .ergodic import _zdunik_report, backward_orbit_sample, lyapunov

    cloud = backward_orbit_sample(f, args.samples, burn_in=args.burn, seed=args.seed)
    est = lyapunov(f, cloud)
    rep = _zdunik_report(
        f, args.max_period, est, tol=args.tol, seed=args.seed, cap=args.cap
    )
    rows = [
        {
            "period": c.period,
            "char_exponent": c.char_exponent,
            "margin": m,
            "multiplier_abs": abs(c.multiplier),
        }
        for c, m in rep.hits
    ]
    return {
        "lyapunov": to_jsonable(est),
        "threshold": rep.threshold,
        "hits": [dict(to_jsonable(c), margin=m) for c, m in rep.hits],
        "excluded_postcritical": [
            dict(to_jsonable(c), margin=m) for c, m in rep.excluded
        ],
    }, rows


_MAKE_OPTIONS = {"power": ("d", "sign"), "chebyshev": ("d", "sign"), "lattes": ("a", "b", "m")}


def _cmd_make(args):
    if args.family == "lattes":
        f = _builder_map(f"lattes:{args.a}:{args.b}:{args.m}")
        a, b = (fraction_str(Fraction(x)) for x in (args.a, args.b))
        desc = {"a": a, "b": b, "m": args.m}
    else:
        f = _builder_map(f"{args.family}:{args.d}:{args.sign}")
        desc = {"d": args.d, "sign": args.sign}
    return dict(_map_payload(f), family=args.family, **desc), None


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------


_SHARED = {
    "--seed": dict(type=int, default=0),
    "--tol": dict(type=float, default=config.SOLVER_TOL),
    "--cap": dict(type=int, default=None, help="degree cap override"),
    "--csv": dict(action="store_true", help="emit CSV instead of JSON"),
}


# the least value of each integer option that has one
_AT_LEAST = {"period": 1, "max_period": 1, "periodic": 1, "q": 1, "samples": 1,
             "test_degree": 1, "cap": 1, "burn": 0, "seed": 0, "indent": 0}


def _check_ranges(args):
    for name, low in _AT_LEAST.items():
        if getattr(args, name, None) is not None and getattr(args, name) < low:
            raise MapParseError(f"--{name.replace('_', '-')} must be >= {low}")
    if "tol" in args and not 0 < args.tol < math.inf:
        raise MapParseError(f"--tol must be finite and > 0, not {args.tol}")


def _add_common(sub, *flags):
    """--map, --indent and the named `_SHARED` flags: each subcommand takes
    only the options its handler reads."""
    sub.add_argument("--map", "-m", required=True, help="map spec or '-' for stdin")
    for flag in flags:
        sub.add_argument(flag, **_SHARED[flag])
    sub.add_argument("--indent", type=int, default=None, help="JSON indent")


def _usage_error(parser, message):
    raise argparse.ArgumentError(None, message)


class _Parser(argparse.ArgumentParser):
    error = _usage_error  # raise, so that `run` reports it on its own `err`


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ratdyn",
        description="Multiplier data, exact spectra and ergodic diagnostics "
        "for rational maps on the Riemann sphere.",
    )
    ap.add_argument("--config", help="JSON file with default option values")
    sp = ap.add_subparsers(dest="cmd", required=True)

    s = sp.add_parser("cycles", help="periodic cycles with multipliers")
    _add_common(s, "--seed", "--tol", "--cap", "--csv")
    s.add_argument("--period", type=int, required=True)
    s.add_argument("--exact", action="store_true")
    s.set_defaults(fn=_cmd_cycles)

    s = sp.add_parser("spectrum", help="factored multiplier polynomials")
    _add_common(s, "--cap", "--csv")
    s.add_argument("--max-period", type=int, required=True)
    s.set_defaults(fn=_cmd_spectrum)

    s = sp.add_parser("field-check", help="membership + integrality verdicts")
    _add_common(s, "--cap")
    s.add_argument("--max-period", type=int, required=True)
    s.add_argument("--field", required=True, help="Q | quad:D | poly:...")
    s.set_defaults(fn=_cmd_field_check)

    s = sp.add_parser("classify", help="exceptional-map classification")
    _add_common(s, "--seed", "--cap")
    s.add_argument("--max-period", type=int, default=3)
    s.set_defaults(fn=_cmd_classify)

    s = sp.add_parser("lyapunov", help="Lyapunov exponent estimates")
    _add_common(s, "--seed", "--cap")
    s.add_argument("--samples", type=int, default=100000)
    s.add_argument("--burn", type=int, default=50)
    s.add_argument("--periodic", type=int, default=None,
                   help="also average over the exact-period-N set")
    s.set_defaults(fn=_cmd_lyapunov)

    s = sp.add_parser("equidist", help="weak-convergence discrepancy table")
    _add_common(s, "--seed", "--cap", "--csv")
    s.add_argument("--periods", required=True, help="comma-separated periods")
    s.add_argument("--test-degree", type=int, default=2)
    s.add_argument("--samples", type=int, default=20000)
    s.add_argument("--burn", type=int, default=50)
    s.set_defaults(fn=_cmd_equidist)

    s = sp.add_parser("homoclinic", help="periodic points approaching a "
                      "repelling point's exponent")
    # --seed is read by no handler, but the bench passes it to every command
    _add_common(s, "--seed", "--tol", "--csv")
    s.add_argument("--point", required=True)
    s.add_argument("--q", type=int, default=1)
    s.add_argument("--n-min", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.set_defaults(fn=_cmd_homoclinic)

    s = sp.add_parser("zdunik", help="characteristic exponents above the "
                      "Lyapunov exponent")
    _add_common(s, "--seed", "--tol", "--cap", "--csv")
    s.add_argument("--max-period", type=int, required=True)
    s.add_argument("--samples", type=int, default=100000)
    s.add_argument("--burn", type=int, default=50)
    s.set_defaults(fn=_cmd_zdunik)

    s = sp.add_parser("make", help="emit coefficients of a named family")
    s.add_argument("family", choices=["power", "chebyshev", "lattes"])
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--sign", choices=["+", "-"], default="+")
    s.add_argument("--a", default="-1")
    s.add_argument("--b", default="0")
    s.add_argument("--m", type=int, default=2)
    s.add_argument("--indent", type=int, default=None)
    s.set_defaults(fn=_cmd_make)
    return ap


def _parse_with_config(argv, args):
    """`argv` parsed again with the --config file's values as defaults of
    the chosen subcommand's own options: flags win, other keys are ignored."""
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{args.config} does not hold a JSON object")
    own = set(vars(args)) - {"fn", "cmd", "config"}
    data = {key.replace("-", "_"): val for key, val in data.items()}
    ap = build_parser()
    (commands,) = [a for a in ap._actions if a.dest == "cmd"]
    commands.choices[args.cmd].set_defaults(**{k: v for k, v in data.items() if k in own})
    return ap.parse_args(argv)


def _emit_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def run(argv: list[str], stdin_text: str | None = None, out=None, err=None) -> int:
    """Entry point: returns the exit code; JSON on stdout, diagnostics on
    stderr."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # --help prints to sys.stdout
            args = build_parser().parse_args(argv)
            if args.config:
                args = _parse_with_config(argv, args)
    except SystemExit:  # --help
        return 0
    except (argparse.ArgumentError, OSError, ValueError) as e:
        code = "usage" if isinstance(e, argparse.ArgumentError) else "config"
        print(json.dumps({"error": {"code": code, "message": str(e)}}), file=err)
        return 2
    t0 = time.perf_counter()
    try:
        _check_ranges(args)
        if "map" in args:
            try:
                f = parse_map(args.map, stdin_text)
            except OverflowError as e:  # from the float shadows of the coefficients
                raise MapParseError(f"a coefficient is past the double range: {e}") from None
            results, rows = args.fn(args, f)
            results["map"] = _map_payload(f)
        else:
            results, rows = args.fn(args)
    except MapParseError as e:
        print(
            json.dumps(
                {"error": {"code": e.code, "message": str(e), "position": e.position}}
            ),
            file=err,
        )
        return 2
    except DegreeCapExceeded as e:
        print(json.dumps({"error": {"code": e.code, "message": str(e)}}), file=err)
        return 4
    except RatdynError as e:
        print(json.dumps({"error": {"code": e.code, "message": str(e)}}), file=err)
        return 3
    seconds = time.perf_counter() - t0
    if getattr(args, "csv", False) and rows:
        out.write(_emit_csv(rows))
        return 0
    cfg = {k: v for k, v in vars(args).items() if k not in ("fn", "cmd", "config")}
    if args.cmd == "make":  # only the options the family reads
        cfg = {k: cfg[k] for k in ("family", *_MAKE_OPTIONS[args.family], "indent")}
    report = run_report(args.cmd, cfg, results, getattr(args, "seed", 0), seconds)
    out.write(render(report, indent=getattr(args, "indent", None)) + "\n")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
