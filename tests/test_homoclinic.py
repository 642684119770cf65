import dataclasses
import math

import mpmath as mp
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
from ratdyn.errors import InPostcriticalSet
from ratdyn.homoclinic import _mp_orbit_exponent

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


# ----------------------------------------------------------------------
# extended-precision orbits through poles and Infinity
# ----------------------------------------------------------------------


def _conjugated_chebyshev():
    """z^2 - 2 conjugated by M(z) = (z - b)/(z - a) at 80 digits, where
    a, b = (-1 +- sqrt 5)/2 is its period-2 cycle (multiplier 4ab = -4):
    M sends a to Infinity and b to 0, so the conjugate
    g(w) = ((s - 1) w + 1) / (w ((s + 1) - w)), s = sqrt 5, has the 2-cycle
    {0, Infinity}.  Its coefficients are mp numbers, kept at full precision."""
    with mp.workdps(80):
        s = mp.sqrt(5)
        a, b = (s - 1) / 2, -(s + 1) / 2
        g = RationalMap([mp.mpf(1), s - 1], [mp.mpf(0), s + 1, mp.mpf(-1)], exact=False)
        for z in (mp.mpf("0.3"), mp.mpc("1.7", "-0.4")):  # g M = M f
            gm = (1 + (s - 1) * ((z - b) / (z - a))) / (
                ((z - b) / (z - a)) * ((s + 1) - (z - b) / (z - a))
            )
            fz = z * z - 2
            assert abs(gm - (fz - b) / (fz - a)) < mp.mpf(10) ** -70
    return g


def test_mp_orbit_exponent_through_infinity():
    g = _conjugated_chebyshev()
    lam, log_norm, residual = _mp_orbit_exponent(g, 0, 2, dps=60)
    with mp.workdps(60):
        assert abs(lam + 4) < 1e-40
        assert abs(log_norm / 2 - mp.log(2)) < 1e-40
        assert residual < 1e-40


def test_mp_orbit_exponent_at_a_pole():
    # 0 -> Infinity -> 0 is the superattracting 2-cycle of z^-2
    lam, log_norm, residual = _mp_orbit_exponent(power_map(2, -1), 0, 2)
    assert lam == 0 and log_norm == -mp.inf and residual == 0
    # (1 + 2z^2)/z: 0 -> Infinity -> Infinity never returns to 0
    lam, _, residual = _mp_orbit_exponent(build_map([1, 0, 2], [0, 1]), 0, 2)
    assert residual == mp.inf
