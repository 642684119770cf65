"""Infinity's exact orbit on the map's stored exact pair.

``periodic.infinity_exact_period`` iterates (1, 0) on
``RationalMap.exact_pair``: plain integers for a rational map, Qi for a
Q(i) map.  A test-only copy of the loop it replaced, which evaluated f on
exact ``ProjPoint``s, is the reference for the period and the orbit.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratdyn import sphere
from ratdyn.errors import RatdynError
from ratdyn.periodic import infinity_exact_period
from ratdyn.polys import ppad
from ratdyn.scalars import Qi
from ratdyn.sphere import INF, RationalMap, build_map


def _reference_infinity_period(f, n_cap):
    # the replaced loop: exact point evaluation of f from Infinity
    orbit = [INF]
    p = INF
    for k in range(1, n_cap + 1):
        p = f.evaluate(p)
        if p == INF:
            return k, orbit
        orbit.append(p)
    return None, []


def _assert_same(f, n_cap):
    period, orbit = infinity_exact_period(f, n_cap)
    want_period, want_orbit = _reference_infinity_period(f, n_cap)
    assert period == want_period
    assert orbit == want_orbit
    assert all(p.is_infinity or isinstance(p.z, Qi) for p in orbit)
    return period, orbit


FIXTURES = {
    # deg B > deg A: Infinity -> 0 -> -1 -> Infinity
    "1/(z^2-1)": (build_map([1], [-1, 0, 1]), 3),
    # deg A > deg B: Infinity is fixed
    "z^2-1": (build_map([-1, 0, 1], [1]), 1),
    # equal degrees: Infinity -> 2 -> 9/7 -> ...
    "(2z^2+1)/(z^2+3)": (build_map([1, 0, 2], [3, 0, 1]), None),
    # preperiodic: Infinity -> 1, a fixed point
    "(z^2+z-1)/z^2": (build_map([-1, 1, 1], [0, 0, 1]), None),
    "(2+5z^3)/(3z+z^2)": (build_map([2, 0, 0, 5], [0, 3, 1]), 1),
    # Q(i): Infinity -> 0 -> i -> Infinity
    "i/(z^2+1)": (build_map([Qi(0, 1)], [1, 0, 1]), 3),
    "1/(z^2+i)": (build_map([1], [Qi(0, 1), 0, 1]), None),
}


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixtures_match_the_point_evaluation_loop(name):
    f, period = FIXTURES[name]
    for n_cap in range(1, 7):
        got, _ = _assert_same(f, n_cap)
        assert got == (period if period is not None and period <= n_cap else None)


def test_inverse_quadratic_orbit():
    period, orbit = infinity_exact_period(FIXTURES["1/(z^2-1)"][0], 5)
    assert period == 3
    assert orbit[0] == INF and [p.z for p in orbit[1:]] == [Qi(0), Qi(-1)]


def test_preperiodic_infinity_is_not_periodic():
    f = FIXTURES["(z^2+z-1)/z^2"][0]
    assert f.evaluate(INF) == f.evaluate(f.evaluate(INF)) != INF
    assert infinity_exact_period(f, 6) == (None, [])


COEFFS = st.lists(st.integers(-3, 3), min_size=3, max_size=4)


def test_random_integer_maps_match_the_point_evaluation_loop():
    maps, periodic = set(), []

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(COEFFS, COEFFS, st.integers(1, 5))
    def check(num, den, n_cap):
        try:
            f = build_map(num, den)
        except RatdynError:
            assume(False)
        maps.add((tuple(num), tuple(den), n_cap))
        periodic.append(_assert_same(f, n_cap)[0] is not None)

    check()
    assert len(maps) >= 150
    # both outcomes are drawn: Infinity periodic within n_cap and not
    assert 20 <= sum(periodic) <= len(periodic) - 20


def test_exact_pair_by_kind():
    f = build_map([Fraction(1, 2), 0, 1], [3])  # (z^2 + 1/2)/3
    assert f.exact_pair is f.int_pair == ([1, 0, 2], [6, 0, 0])
    g = FIXTURES["i/(z^2+1)"][0]
    assert g.int_pair is None
    assert g.exact_pair == (ppad(g.num, 3, Qi(0)), list(g.den))
    assert build_map([0.5 + 0.1j, 0, 1], [1]).exact_pair is None


def test_rational_maps_never_touch_qi_products(monkeypatch):
    # Infinity's orbit on a rational map runs in plain ints: no point
    # evaluation of f, exact or float, and no Gaussian product
    def forbidden(*args):
        raise AssertionError("point arithmetic on a rational map")

    monkeypatch.setattr(RationalMap, "evaluate", forbidden)
    monkeypatch.setattr(sphere, "_exact_image", forbidden)
    monkeypatch.setattr(Qi, "__mul__", forbidden)
    monkeypatch.setattr(Qi, "__rmul__", forbidden)
    for name in ("1/(z^2-1)", "z^2-1", "(2z^2+1)/(z^2+3)", "(2+5z^3)/(3z+z^2)"):
        infinity_exact_period(FIXTURES[name][0], 6)
    assert infinity_exact_period(FIXTURES["1/(z^2-1)"][0], 6)[0] == 3
