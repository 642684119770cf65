import dataclasses
import math
from fractions import Fraction

import pytest

from ratdyn import (
    ExponentSequence,
    NotRepelling,
    RationalMap,
    build_map,
    chordal,
    convergence_report,
    exponent_sequence,
    find_seed,
    power_map,
)
from ratdyn.errors import InPostcriticalSet, NewtonDiverged, PeriodCollision
from ratdyn.homoclinic import _cycle_entry, _orbit_exponent
from ratdyn.sphere import INF, chart_orbit

from mp_reference import _mp_orbit_exponent, _mp_refine_periodic

Z2 = build_map([0, 0, 1], [1])
BASILICA = build_map([-1, 0, 1], [1])
GOLDEN = (1 + math.sqrt(5)) / 2


def test_seed_rejects_non_repelling():
    with pytest.raises(NotRepelling):
        find_seed(Z2, 0.0, q=1)  # superattracting


def test_seed_rejects_postcritical_point():
    # -1 sits on the postcritical set of the basilica (and is not even
    # fixed); 2 is postcritical and fixed for z^2 - 2
    cheb = build_map([-2, 0, 1], [1])
    with pytest.raises(InPostcriticalSet):
        find_seed(cheb, 2.0, q=1)


def test_seed_on_unit_circle_for_squaring():
    seed = find_seed(Z2, 1.0, q=1)
    assert seed.l >= 1
    # the chain ends at the base point and is a genuine backward orbit
    assert abs(seed.chain[-1] - 1.0) < 1e-12
    for a, b in zip(seed.chain, seed.chain[1:]):
        assert chordal(Z2.evaluate(a), b) < 1e-9
    # the return point is a 2^l-th root of unity inside V
    zl = seed.chain[0]
    assert abs(zl ** (2**seed.l) - zl**0 * zl ** 0) < 1e-6 or abs(
        abs(zl) - 1.0
    ) < 1e-9
    assert abs(zl - 1.0) < seed.r_V


def test_seed_contraction_matches_multiplier():
    from ratdyn.homoclinic import branch_contraction_ratios

    seed = find_seed(BASILICA, GOLDEN, q=1)
    ratios = branch_contraction_ratios(seed)
    target = 1 / abs(seed.multiplier)
    for r in ratios:
        assert r < 1.0
        assert abs(r - target) <= 0.2 * target


def test_sequence_z2_constant_exponent():
    seed = find_seed(Z2, 1.0, q=1)
    n0 = 2 * seed.l + 1
    seq = exponent_sequence(Z2, seed, n0, n0 + 7)
    assert all(e.period_verified for e in seq.entries)
    for e in seq.entries:
        assert abs(e.char_exponent - math.log(2)) < 1e-12
        assert abs(abs(e.multiplier) - 2**e.n) <= 1e-3 * 2**e.n


def test_sequence_basilica_converges_and_verifies():
    seed = find_seed(BASILICA, GOLDEN, q=1)
    n0 = 2 * seed.l + 1
    seq = exponent_sequence(BASILICA, seed, n0, n0 + 10)
    assert all(e.period_verified for e in seq.entries)
    errs = [abs(e.char_exponent - seq.target_chi) for e in seq.entries]
    # monotone approach to the target from this construction
    assert errs[-1] < errs[0]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # distinctness: consecutive w_n approach their common limit like
    # |multiplier|^(l - n), so the guaranteed gap shrinks with n; check the
    # early entries at 10x the solve tolerance and all pairs at a floor
    pts = [e.point for e in seq.entries]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert chordal(pts[i], pts[j]) > 1e-10
    for i in range(5):
        for j in range(i + 1, 6):
            assert chordal(pts[i], pts[j]) > 1e-8


def test_sequence_rejects_small_n():
    seed = find_seed(BASILICA, GOLDEN, q=1)
    with pytest.raises(ValueError):
        exponent_sequence(BASILICA, seed, seed.l, 2 * seed.l)


def test_convergence_report_fields():
    seed = find_seed(BASILICA, GOLDEN, q=1)
    n0 = 2 * seed.l + 1
    seq = exponent_sequence(BASILICA, seed, n0, n0 + 9)
    rep = convergence_report(seq)
    assert rep.c_over_n_holds
    assert rep.c_over_n_constant > 0
    # a target exponent off by 0.01 puts n |chi_n - chi0| several percent
    # away from the fitted |log|a||; one off by 0.001 or 0.0001 moves the
    # fit along with it, but the Richardson value at the largest n sees it
    for shift in (0.01, 0.001, 0.0001):
        wrong = dataclasses.replace(seed, multiplier=seed.multiplier * math.exp(shift))
        assert not convergence_report(ExponentSequence(wrong, seq.entries)).c_over_n_holds
    # geometric model lambda_n ~ a lambda^n + b fits to high relative
    # accuracy on the tail
    assert rep.geometric_fit["relative_residuals"][-1] < 1e-4
    a = rep.geometric_fit["a"]
    # the extrapolated limit recovers chi(z0) far better than chi_n itself
    last = seq.entries[-1]
    corrected = last.char_exponent - math.log(abs(a)) / last.n
    assert abs(corrected - seq.target_chi) < 1e-3
    # sandwich slack: the proof-style lower bound stays below log|lambda_n|
    for _n, slack in rep.sandwich["lower_bound_slack"]:
        assert slack > -1e-9


def test_convergence_report_needs_four_entries():
    seed = find_seed(BASILICA, GOLDEN, q=1)
    n0 = 2 * seed.l + 1
    seq = exponent_sequence(BASILICA, seed, n0, n0 + 2)
    with pytest.raises(ValueError):
        convergence_report(seq)


@pytest.mark.parametrize(
    "f, z0, n_max",
    [
        (BASILICA, GOLDEN, 25),  # the README command
        (build_map([1], [-1, 0, 1]), 1.324717957244746, 16),  # the plastic number
        (build_map([Fraction(-1, 3), 0, 1], [1]), 1.2637626158259734, 12),
    ],
    ids=["basilica", "plastic", "rational-coefficients"],
)
def test_exponents_match_the_60_digit_reference(f, z0, n_max):
    """Every chi_n within 1e-14 and every multiplier within 1e-12 relative
    of the orbit refined at 60 digits from the reported point (through the
    integer pair, exact at any precision, when the map is rational)."""
    seed = find_seed(f, z0, q=1)
    seq = exponent_sequence(f, seed, 2 * seed.l + 1, n_max, tol=1e-12)
    assert [e.n for e in seq.entries] == list(range(9, n_max + 1))
    for e in seq.entries:
        w = _mp_refine_periodic(seed.map_q, e.point, e.n, 60)
        lam, log_norm, residual = _mp_orbit_exponent(seed.map_q, w, e.n, dps=60)
        assert residual < 1e-40
        assert e.period_verified and e.residual < 1e-14
        assert abs(e.char_exponent - float(log_norm) / e.n) <= 1e-14
        assert abs(e.multiplier - complex(lam)) <= 1e-12 * abs(complex(lam))


def test_a_repeated_fixed_point_is_a_period_collision():
    # the golden fixed point six times over closes at once, but z_1 = z_0
    orbit = chart_orbit([GOLDEN] * 6, False)
    with pytest.raises(PeriodCollision):
        _cycle_entry(BASILICA, orbit, 1e-9)


# ----------------------------------------------------------------------
# double-precision orbits through poles and Infinity
# ----------------------------------------------------------------------


def _conjugated_chebyshev():
    """z^2 - 2 conjugated by M(z) = (z - b)/(z - a) in doubles, where
    a, b = (-1 +- sqrt 5)/2 is its period-2 cycle (multiplier 4ab = -4):
    M sends a to Infinity and b to 0, so the conjugate
    g(w) = ((s - 1) w + 1) / (w ((s + 1) - w)), s = sqrt 5, has the 2-cycle
    {0, Infinity}."""
    s = math.sqrt(5)
    a, b = (s - 1) / 2, -(s + 1) / 2
    g = RationalMap([1.0, s - 1], [0.0, s + 1, -1.0], exact=False)
    for z in (0.3, complex(1.7, -0.4)):  # g M = M f
        m = (z - b) / (z - a)
        fz = z * z - 2
        assert abs((1 + (s - 1) * m) / (m * ((s + 1) - m)) - (fz - b) / (fz - a)) < 1e-12
    return g


def test_orbit_exponent_through_infinity():
    lam, chi, residual = _orbit_exponent(_conjugated_chebyshev(), chart_orbit([0, INF], False))
    assert abs(lam + 4) < 1e-12
    assert abs(chi - math.log(2)) < 1e-12
    assert residual < 1e-12


def test_orbit_exponent_at_a_pole():
    # 0 -> Infinity -> 0 is the superattracting 2-cycle of z^-2
    lam, chi, residual = _orbit_exponent(power_map(2, -1), chart_orbit([0, INF], False))
    assert lam == 0 and chi == -math.inf and residual == 0
    # (1 + 2z^2)/z: 0 -> Infinity -> Infinity never returns to 0, and Newton
    # cannot close that orbit
    g = build_map([1, 0, 2], [0, 1])
    _, _, residual = _orbit_exponent(g, chart_orbit([0, INF], False))
    assert residual == math.inf
    with pytest.raises(NewtonDiverged):
        _cycle_entry(g, chart_orbit([0, INF], False), 1e-9)
