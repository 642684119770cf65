"""Every subcommand declares only the options its handler reads.

An option no handler reads is a flag that silently does nothing: it is
echoed into the report's ``config`` and changes no result.  The census
runs every subcommand on a small map (``make`` once per family), hands the
handler a namespace that records each attribute read, and fails on any
declared option that no run of the handler read.  Only the handler call
counts: ``run`` itself reads ``seed`` and ``csv`` for every report.
Exempt are the options ``run`` owns (``--map``, ``--indent``; the
top-level ``--config`` is not a subcommand option), ``--csv`` where the
handler returns rows for it, and ``EXEMPT``.
"""

import argparse
import io

import pytest

from ratdyn.cli import _add_common, build_parser, parse_map, run

RUN_OWNS = {"map", "indent"}
EXEMPT = {
    ("homoclinic", "seed"): "bench/workloads.py passes --seed to every CLI command",
}
CASES = [
    ["cycles", "--map", "z^2-1", "--period", "2", "--exact"],
    ["spectrum", "--map", "z^2-1", "--max-period", "1"],
    ["field-check", "--map", "z^2-1", "--max-period", "1", "--field", "Q"],
    ["classify", "--map", "z^2-1", "--max-period", "1"],
    ["lyapunov", "--map", "z^2-1", "--samples", "200", "--periodic", "2"],
    ["equidist", "--map", "z^2-1", "--periods", "2", "--samples", "200"],
    ["homoclinic", "--map", "z^2-1", "--point", "1.618033988749895", "--n-min", "9",
     "--n-max", "12"],
    ["zdunik", "--map", "z^2-1", "--max-period", "2", "--samples", "200"],
    ["make", "power"],
    ["make", "chebyshev"],
    ["make", "lattes", "--a", "-1"],
]
# each deleted once from a subcommand whose handler never read it
UNREAD = [
    ("spectrum", "--tol"), ("field-check", "--tol"), ("classify", "--tol"),
    ("lyapunov", "--tol"), ("equidist", "--tol"), ("field-check", "--csv"),
    ("classify", "--csv"), ("lyapunov", "--csv"), ("make", "--csv"),
    ("spectrum", "--seed"), ("field-check", "--seed"), ("make", "--seed"),
    ("homoclinic", "--cap"),
]


class _Recorder:
    """The parsed options of `args`, noting the name of each one read."""

    def __init__(self, args):
        self._args, self.read = vars(args), set()

    def __getattr__(self, name):
        self.read.add(name)
        try:
            return self._args[name]
        except KeyError:
            raise AttributeError(name) from None


def census(parser, cases):
    """({subcommand: declared options}, {subcommand: unread options}) over
    the handler runs of `cases`, as `run` dispatches them."""
    declared, read = {}, {}
    for argv in cases:
        args = parser.parse_args(argv)
        rec = _Recorder(args)
        if "map" in args:
            _, rows = args.fn(rec, parse_map(args.map))
        else:
            _, rows = args.fn(rec)
        read.setdefault(args.cmd, set()).update(rec.read | ({"csv"} if rows else set()))
        declared[args.cmd] = set(vars(args)) - {"fn", "cmd", "config"}
    unread = {
        cmd: sorted(
            name for name in names - read[cmd] - RUN_OWNS if (cmd, name) not in EXEMPT
        )
        for cmd, names in declared.items()
    }
    return declared, {cmd: names for cmd, names in unread.items() if names}


def test_every_declared_option_is_read():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if a.dest == "cmd"]
    declared, unread = census(ap, CASES)
    assert sorted(declared) == sorted(sub.choices)
    assert unread == {}
    # positional `family` of make included
    assert sum(len(names) for names in declared.values()) == 64


def test_an_unread_option_is_caught():
    ap = argparse.ArgumentParser(prog="scratch")
    sp = ap.add_subparsers(dest="cmd", required=True)
    s = sp.add_parser("iterate")
    _add_common(s, "--seed", "--tol")
    s.set_defaults(fn=lambda args, f: ({"seed": args.seed}, None))
    s = sp.add_parser("tabulate")
    _add_common(s, "--csv")
    s.set_defaults(fn=lambda args, f: ({}, [{"degree": f.degree}]))
    _, unread = census(ap, [["iterate", "--map", "z^2"], ["tabulate", "--map", "z^2"]])
    assert unread == {"iterate": ["tol"]}


@pytest.mark.parametrize("cmd, flag", UNREAD)
def test_an_unread_flag_is_refused(cmd, flag):
    argv = next(argv for argv in CASES if argv[0] == cmd) + [flag]
    argv += [] if flag == "--csv" else ["1"]
    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 2
