import numpy as np
import pytest

from hydrobal.eos import IdealGas, IdealGasRadiation


def bisect_temperature_from_p(rho, p, gamma=1.4):
    """Independent bisection oracle for rho*T + T^4 = p."""
    lo, hi = 0.0, 2.0 * max(p ** 0.25, p / rho)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho * mid + mid ** 4 > p:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisect_temperature_from_eps(rho, eps, gamma=1.4):
    lo, hi = 0.0, 2.0 * max((eps / 3.0) ** 0.25, (gamma - 1.0) * eps / rho)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho * mid / (gamma - 1.0) + 3.0 * mid ** 4 > eps:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestIdealGas:
    def test_pressure(self):
        eos = IdealGas(1.4)
        assert eos.pressure(1.0, 2.5) == pytest.approx(1.0)

    def test_internal_energy(self):
        eos = IdealGas(1.4)
        assert eos.internal_energy(1.0, 1.0) == pytest.approx(2.5)

    def test_deps_dp_constant(self):
        eos = IdealGas(1.4)
        assert eos.deps_dp(3.3, 0.2) == pytest.approx(2.5)

    def test_sound_speed(self):
        eos = IdealGas(1.4)
        assert eos.sound_speed(1.0, 1.0) == pytest.approx(np.sqrt(1.4))

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            IdealGas(1.0)


class TestRadiationEos:
    def setup_method(self):
        self.eos = IdealGasRadiation(1.4)

    def test_pressure_at_unit_temperature(self):
        # eps = T/0.4 + 3*T^4 = 5.5 at T=1 exactly, then p = rho*T + T^4 = 2
        assert self.eos.pressure(1.0, 5.5) == pytest.approx(2.0, rel=1e-13)

    def test_internal_energy_at_unit_temperature(self):
        assert self.eos.internal_energy(1.0, 2.0) == pytest.approx(5.5, rel=1e-13)

    def test_temperature_against_bisection(self):
        t = self.eos.temperature_from_p(2.0, 0.5)
        assert t == pytest.approx(bisect_temperature_from_p(2.0, 0.5), rel=1e-12)

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(42)
        rho = 10.0 ** rng.uniform(-8, 8, size=200)
        t = 10.0 ** rng.uniform(-4, 4, size=200)
        p = rho * t + t ** 4
        eps = self.eos.internal_energy(rho, p)
        np.testing.assert_allclose(self.eos.pressure(rho, eps), p, rtol=1e-12)

    def test_round_trip_eps_first(self):
        rng = np.random.default_rng(43)
        rho = 10.0 ** rng.uniform(-8, 8, size=200)
        eps = 10.0 ** rng.uniform(-8, 8, size=200)
        p = self.eos.pressure(rho, eps)
        np.testing.assert_allclose(self.eos.internal_energy(rho, p), eps, rtol=1e-12)

    def test_deps_dp_hand_value(self):
        # at (rho, T) = (1, 1): (1/0.4 + 12) / (1 + 4) = 2.9
        p = 2.0
        assert self.eos.deps_dp(1.0, p) == pytest.approx(2.9, rel=1e-12)

    def test_deps_dp_finite_differences(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            rho = 10.0 ** rng.uniform(-3, 3)
            p = 10.0 ** rng.uniform(-3, 3)
            delta = 1e-6 * p
            fd = (self.eos.internal_energy(rho, p + delta)
                  - self.eos.internal_energy(rho, p - delta)) / (2 * delta)
            assert self.eos.deps_dp(rho, p) == pytest.approx(fd, rel=1e-6)

    def test_deps_drho_finite_differences(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            rho = 10.0 ** rng.uniform(-2, 2)
            p = 10.0 ** rng.uniform(-2, 2)
            delta = 1e-5 * rho
            fd = (self.eos.internal_energy(rho + delta, p)
                  - self.eos.internal_energy(rho - delta, p)) / (2 * delta)
            scale = abs(self.eos.internal_energy(rho, p) / rho)
            assert self.eos.deps_drho(rho, p) == pytest.approx(fd, abs=1e-6 * scale)

    def test_sound_speed_hand_value(self):
        # (rho, p) = (1, 2): T=1, beta=1/2, Gamma_1 = 0.5 + 2.5^2*0.4/2.9
        gamma1 = 0.5 + 6.25 * 0.4 / 2.9
        expected = np.sqrt(gamma1 * 2.0)
        assert self.eos.sound_speed(1.0, 2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.650496, abs=5e-7)

    def test_sound_speed_ideal_limit(self):
        # radiation negligible at high density: beta -> 1, c -> sqrt(gamma p / rho)
        rho, p = 1e8, 1e4
        ideal = np.sqrt(1.4 * p / rho)
        assert self.eos.sound_speed(rho, p) == pytest.approx(ideal, rel=1e-6)

    def test_monotone_in_pressure(self):
        rho = 0.7
        ps = np.logspace(-6, 6, 200)
        eps = self.eos.internal_energy(rho, ps)
        assert np.all(np.diff(eps) > 0.0)

    def test_deps_dp_positive_everywhere_probed(self):
        rng = np.random.default_rng(46)
        rho = 10.0 ** rng.uniform(-8, 8, 100)
        p = 10.0 ** rng.uniform(-8, 8, 100)
        assert np.all(self.eos.deps_dp(rho, p) > 0.0)

