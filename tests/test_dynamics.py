import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from chidip import DomainError, UnphysicalRates, evolve

T_DENSE = np.linspace(0.0, 5.0, 501)


def _random_admissible(rng):
    """Random damped coefficients with Re(a_l) + |Re(a_t)| <= 0."""
    re_al = -float(rng.uniform(0.3, 2.0))
    re_at = float(rng.uniform(-1.0, 1.0)) * abs(re_al)
    return (complex(re_al, rng.uniform(-2, 2)),
            complex(re_at, rng.uniform(-2, 2)))


def test_initial_condition_is_exact():
    traj = evolve(complex(-1.0, 0.3), complex(-0.4, 0.8), [0.0, 1.0])
    assert traj.c1[0] == 1.0 + 0.0j
    assert traj.c2[0] == 0.0 + 0.0j
    assert traj.e_int[0] == 0.0
    assert_allclose(traj.p_plus[0], 0.5, atol=1e-15)
    assert_allclose(traj.p_minus[0], 0.5, atol=1e-15)


def test_decoupled_dipoles():
    # a_t = 0: dipole 2 is never excited, dipole 1 decays alone
    traj = evolve(complex(-1.5, 0.0), 0.0, [0.0, 0.5, 1.0, 2.0])
    assert np.all(traj.c2 == 0.0)
    assert_allclose(traj.p1, np.exp(-3.0 * traj.times), rtol=1e-14)
    assert_allclose(traj.p1[2], np.exp(-3.0), rtol=1e-14)
    assert np.all(traj.e_int == 0.0)


def test_growing_mode_rejected():
    with pytest.raises(UnphysicalRates):
        evolve(complex(-0.5, 0.0), complex(0.6, 0.0), [0.0, 1.0])
    with pytest.raises(UnphysicalRates):
        evolve(complex(0.1, 0.0), 0.0, [0.0, 1.0])


def test_bad_time_grids_rejected():
    with pytest.raises(DomainError):
        evolve(-1.0 + 0j, 0.0, [0.0, 2.0, 1.0])
    with pytest.raises(DomainError):
        evolve(-1.0 + 0j, 0.0, [-0.5, 1.0])
    with pytest.raises(DomainError):
        evolve(-1.0 + 0j, 0.0, [])
    for bad in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(DomainError):
            evolve(-1.0 + 0j, 0.0, bad)


def test_basis_consistency():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a_l, a_t = _random_admissible(rng)
        traj = evolve(a_l, a_t, T_DENSE)
        # exchange-basis amplitudes vs (C1 +- C2)/sqrt(2)
        assert np.max(np.abs((traj.c1 + traj.c2) / np.sqrt(2)
                             - traj.c_plus)) < 1e-12
        assert np.max(np.abs((traj.c1 - traj.c2) / np.sqrt(2)
                             - traj.c_minus)) < 1e-12
        # bare-basis amplitudes vs the cosh/sinh closed form
        assert np.max(np.abs(traj.c1 - np.exp(a_l * T_DENSE)
                             * np.cosh(a_t * T_DENSE))) < 1e-12
        assert np.max(np.abs(traj.c2 - np.exp(a_l * T_DENSE)
                             * np.sinh(a_t * T_DENSE))) < 1e-12


def test_norm_conservation_between_bases():
    rng = np.random.default_rng(32)
    for _ in range(10):
        a_l, a_t = _random_admissible(rng)
        traj = evolve(a_l, a_t, T_DENSE)
        assert np.max(np.abs(traj.p_plus + traj.p_minus
                             - traj.p1 - traj.p2)) < 1e-12


def test_total_population_never_grows():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a_l, a_t = _random_admissible(rng)
        traj = evolve(a_l, a_t, T_DENSE)
        total = traj.p1 + traj.p2
        assert np.all(total <= 1.0 + 1e-12)
        assert np.all(np.diff(total) <= 1e-12)


def test_fitted_decay_rates_match_coefficients():
    a_l, a_t = complex(-1.1, 0.7), complex(-0.6, 1.3)
    t = np.linspace(0.0, 2.0, 400)
    traj = evolve(a_l, a_t, t)
    for pops, expected in ((traj.p_plus, 2 * (a_l.real + a_t.real)),
                           (traj.p_minus, 2 * (a_l.real - a_t.real))):
        rate = np.polyfit(t, np.log(pops), 1)[0]
        assert abs(rate - expected) < 1e-10


def test_amplitudes_flush_to_zero_instead_of_underflowing():
    traj = evolve(complex(-1.0, 0.0), complex(-0.5, 0.2),
                  [0.0, 10.0, 2000.0])
    assert traj.c_plus[-1] == 0.0 and traj.c_minus[-1] == 0.0
    assert traj.c1[-1] == 0.0 and traj.c2[-1] == 0.0
    assert traj.e_int[-1] == 0.0
    assert np.all(np.isfinite(traj.p1))


def test_interaction_energy_identities():
    # zero when the exchange coefficient has no shift part
    traj = evolve(complex(-1.0, 0.0), complex(-0.3, 0.0), T_DENSE)
    assert np.all(traj.e_int == 0.0)
    # explicit double-exponential form at t = 1
    a_l, a_t = complex(-1.5, 0.0), complex(-0.35, 0.62)
    traj = evolve(a_l, a_t, [1.0])
    direct = -a_t.imag * (np.exp(2 * (a_l.real + a_t.real))
                          - np.exp(2 * (a_l.real - a_t.real)))
    assert_allclose(traj.e_int[0], direct, rtol=1e-13)


def test_interaction_energy_decays():
    a_l, a_t = complex(-0.8, 0.0), complex(-0.5, 1.7)
    traj = evolve(a_l, a_t, np.linspace(0.0, 80.0, 200))
    assert abs(traj.e_int[-1]) < 1e-20
    # the closed form against the amplitudes: E_int = -2 f2 (|C+|^2 - |C-|^2)
    assert_allclose(traj.e_int, -2.0 * a_t.imag * (traj.p_plus - traj.p_minus),
                    rtol=1e-13, atol=1e-16)


def test_interaction_energy_keeps_its_digits_when_f1_vanishes():
    # against -2 f2 (|C+|^2 - |C-|^2) at 50 digits; in doubles that
    # population difference loses the digits that f1 ~ 0 cancels
    times = [0.0, 0.5, 1.0, 2.5, 5.0]
    for a_t in (complex(-1e-14, 2.0), complex(-1e-9, 0.3)):
        got = evolve(-1.5, a_t, times).e_int
        with mpmath.workdps(50):
            re_t, f2 = mpmath.mpf(a_t.real), mpmath.mpf(a_t.imag)
            for t, e in zip(times, got):
                want = -f2 * (mpmath.exp(2 * (-1.5 + re_t) * t)
                              - mpmath.exp(2 * (-1.5 - re_t) * t))
                assert abs(mpmath.mpf(float(e)) - want) <= 1e-14 * abs(want), \
                    (a_t, t)
