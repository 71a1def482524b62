from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobal.eos import IdealGas, IdealGasRadiation, _quartic_root
from hydrobal.errors import EosFailure

# a fixed profile keeps the property tests deterministic
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None,
                    database=None)
LOG_UNIFORM = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
GAMMAS = st.one_of(st.just(4.0 / 3.0),
                   st.floats(1.0, 3.0, exclude_min=True))


def bisect_temperature_from_p(rho, p, gamma=1.4):
    """Independent bisection oracle for rho*T + T^4 = p."""
    # both terms are positive, so T lies below p / rho and below p^(1/4)
    lo, hi = 0.0, min(p ** 0.25, p / rho)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho * mid + mid ** 4 > p:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisect_temperature_from_eps(rho, eps, gamma=1.4):
    lo, hi = 0.0, min((eps / 3.0) ** 0.25, (gamma - 1.0) * eps / rho)
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


def newton_evaluations(inversion, *args, raises=None):
    """Residual evaluations of the Newton polish during one inversion,
    which must raise `raises` if given."""
    newton = IdealGasRadiation.__dict__["_newton"].__func__
    calls = []

    def counted(t, rho, target, f, fprime):
        def f_counted(temp):
            calls.append(temp)
            return f(temp)
        return newton(t, rho, target, f_counted, fprime)

    with mock.patch.object(IdealGasRadiation, "_newton", staticmethod(counted)):
        if raises is None:
            inversion(*args)
        else:
            with pytest.raises(raises):
                inversion(*args)
    return len(calls)


def assert_close(t, oracle, rel=1e-13):
    assert np.isfinite(t) and abs(t / oracle - 1.0) <= rel


class TestRadiationClosedForm:
    """The closed-form temperature over rho, p and eps in [1e-100, 1e100]."""

    @PROPERTY
    @given(rho=LOG_UNIFORM, p=LOG_UNIFORM, gamma=GAMMAS)
    def test_temperature_from_p(self, rho, p, gamma):
        oracle = bisect_temperature_from_p(rho, p)
        assert_close(_quartic_root(rho, p), oracle)
        eos = IdealGasRadiation(gamma)
        assert_close(eos.temperature_from_p(rho, p), oracle)
        assert newton_evaluations(eos.temperature_from_p, rho, p) == 1
        # the anchor's closed form: the root alone, next to the polished one
        closed = eos.closed_form.temperature_from_p
        assert_close(closed(rho, p), eos.temperature_from_p(rho, p), 1e-14)
        assert newton_evaluations(closed, rho, p) == 0

    @PROPERTY
    @given(rho=LOG_UNIFORM, eps=LOG_UNIFORM, gamma=GAMMAS)
    def test_temperature_from_eps(self, rho, eps, gamma):
        oracle = bisect_temperature_from_eps(rho, eps, gamma)
        assert_close(_quartic_root(rho / (3.0 * (gamma - 1.0)), eps / 3.0),
                     oracle)
        eos = IdealGasRadiation(gamma)
        assert_close(eos.temperature_from_eps(rho, eps), oracle)
        assert newton_evaluations(eos.temperature_from_eps, rho, eps) == 1
        closed = eos.closed_form.temperature_from_eps
        assert_close(closed(rho, eps), eos.temperature_from_eps(rho, eps),
                     1e-14)
        assert newton_evaluations(closed, rho, eps) == 0

    def test_ideal_gas_closed_form_is_exact(self):
        eos = IdealGas(1.4)
        assert eos.closed_form is eos

    def test_thermo_matches_each_method(self):
        rng = np.random.default_rng(47)
        rho = 10.0 ** rng.uniform(-6, 6, 100)
        p = 10.0 ** rng.uniform(-6, 6, 100)
        names = ("internal_energy", "deps_dp", "deps_drho", "sound_speed")
        for eos in (IdealGas(1.4), IdealGasRadiation(1.4)):
            for name, value in zip(names, eos.thermo(rho, p, *names)):
                np.testing.assert_array_equal(value, getattr(eos, name)(rho, p))

    def test_non_finite_start_raises(self):
        # the step from a NaN start is NaN, which the check after the step
        # names with its state
        with pytest.raises(EosFailure, match=r"density 1\.0, pressure or "
                           r"energy 2\.0: one Newton step .* gives nan"):
            IdealGasRadiation._newton(np.array([np.nan]), 1.0, 2.0,
                                      lambda t: t ** 4 + t - 2.0,
                                      lambda t: 4.0 * t ** 3 + 1.0)

    def test_one_step_from_zero(self):
        # where the closed-form root underflows to zero, the step gives
        # target / rho, the root's leading term
        t = IdealGasRadiation._newton(np.array([0.0]), 4.0, 2.0,
                                      lambda t: t ** 4 + 4.0 * t - 2.0,
                                      lambda t: 4.0 * t ** 3 + 4.0)
        np.testing.assert_array_equal(t, [0.5])


def newton_to_convergence(t, f, fprime):
    """The iterated polish, as a reference: Newton steps from `t` until a
    step is below 1e-16 of the temperature or, once rounding dominates, no
    smaller than the one before."""
    last = np.inf
    for _ in range(100):
        step = f(t) / fprime(t)
        if abs(step) >= abs(last):
            return t
        t -= step
        if abs(step) <= 1e-16 * t:
            return t
        last = step
    raise AssertionError("the reference did not converge")


class TestOneNewtonStep:
    """One Newton step from the closed-form root is the converged
    temperature, and the extreme inputs return it or raise `EosFailure`."""

    @PROPERTY
    @given(rho=LOG_UNIFORM, other=LOG_UNIFORM,
           gamma=st.sampled_from([1.1, 1.4, 5.0 / 3.0]))
    def test_matches_the_converged_iteration(self, rho, other, gamma):
        eos = IdealGasRadiation(gamma)
        t = newton_to_convergence(_quartic_root(rho, other),
                                  lambda T: T * (rho + T ** 3) - other,
                                  lambda T: rho + 4.0 * T ** 3)
        assert abs(eos.temperature_from_p(rho, other) / t - 1.0) <= 1e-15
        k = rho / (gamma - 1.0)
        t = newton_to_convergence(_quartic_root(k / 3.0, other / 3.0),
                                  lambda T: T * (k + 3.0 * T ** 3) - other,
                                  lambda T: k + 12.0 * T ** 3)
        assert abs(eos.temperature_from_eps(rho, other) / t - 1.0) <= 1e-15

    @pytest.mark.parametrize("invert, expected", [
        ("temperature_from_p", 1.0), ("temperature_from_eps", 0.4)])
    def test_huge_density_and_pressure(self, invert, expected):
        # rho = p = 1e300: the scaled root's 4b / s^4 no longer overflows
        t = getattr(IdealGasRadiation(1.4), invert)(1e300, 1e300)
        assert t == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("rho, other", [(1e300, 1e-300), (1e250, 1e-100)])
    @pytest.mark.parametrize("invert", ["temperature_from_p",
                                        "temperature_from_eps"])
    def test_underflowing_root_is_named(self, rho, other, invert):
        # the temperature, about other / rho, is below the least double: the
        # step leaves zero, and the error names the state, not a zero input
        with pytest.raises(EosFailure) as error:
            getattr(IdealGasRadiation(1.4), invert)(rho, other)
        assert str(error.value).startswith(
            f"no temperature at density {rho!r}, pressure or energy "
            f"{other!r}: one Newton step from the closed-form root gives 0.0")
        assert "zero" not in str(error.value)


EOS_CLASSES = [IdealGas(1.4), IdealGasRadiation(1.4)]
POINT_METHODS = ("pressure", "internal_energy", "deps_dp", "deps_drho",
                 "sound_speed")
THERMO_NAMES = ("internal_energy", "deps_dp", "deps_drho", "sound_speed")
# a float (None), a 0-d array, a 1-element array and arrays that broadcast
SHAPES = st.sampled_from([None, (), (1,), (5,), (3, 1), (1, 5), (3, 5)])


def with_shape(value, shape):
    return value if shape is None else np.full(shape, value)


@pytest.mark.parametrize("eos", EOS_CLASSES, ids=["ideal", "radiation"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rho=st.floats(0.1, 10.0), other=st.floats(0.1, 10.0),
       rho_shape=SHAPES, other_shape=SHAPES)
def test_results_take_the_broadcast_shape(eos, rho, other, rho_shape,
                                          other_shape):
    rho, other = with_shape(rho, rho_shape), with_shape(other, other_shape)
    shape = np.broadcast_shapes(np.shape(rho), np.shape(other))
    for method in POINT_METHODS:
        assert np.shape(getattr(eos, method)(rho, other)) == shape, method
    for value in eos.thermo(rho, other, *THERMO_NAMES):
        assert np.shape(value) == shape
    for value in eos.thermo_eps(rho, other, *THERMO_NAMES):
        assert np.shape(value) == shape


def test_ideal_gas_broadcasts_the_density():
    eos = IdealGas(1.4)
    assert eos.deps_dp(1.0, np.ones(5)).shape == (5,)
    assert eos.pressure(np.ones(5), 1.0).shape == (5,)
    assert eos.internal_energy(np.ones(5), 1.0).shape == (5,)
    assert [np.shape(v) for v in eos.thermo(
        np.ones(5), 1.0, "internal_energy", "deps_dp", "sound_speed")] \
        == [(5,)] * 3
    # equal shapes: the value itself, not a copy
    eps = np.ones(5)
    assert eos.internal_energy(np.ones(5), eps).base is None


class TestScalarInputs:
    """The in-place radiation kernels give the same bits for a float, a
    0-d array and a 1-element array, and still reject bad input."""

    @PROPERTY
    @given(rho=LOG_UNIFORM, other=LOG_UNIFORM)
    def test_same_bits(self, rho, other):
        eos = IdealGasRadiation(1.4)
        for fn in (_quartic_root, eos.temperature_from_p,
                   eos.temperature_from_eps,
                   lambda r, q: eos.thermo(r, q, *THERMO_NAMES),
                   lambda r, q: eos.thermo_eps(r, q, *THERMO_NAMES)):
            bits = {np.ravel(np.array(fn(cast(rho), cast(other)),
                                      dtype=float)).tobytes()
                    for cast in (float, np.array, lambda v: np.array([v]))}
            assert len(bits) == 1

    @pytest.mark.parametrize("rho, p", [
        (1.0, -1.0), (1.0, np.nan), (np.nan, 1.0), (1.0, 0.0),
        (np.ones(3), np.array([1.0, -2.0, 3.0])),
        (np.array([1.0, np.nan]), np.ones(2)), (np.inf, 1.0), (1.0, np.inf)],
        ids=["negative", "nan-p", "nan-rho", "zero", "array-negative",
             "array-nan", "inf-rho", "inf-p"])
    def test_bad_input_raises(self, rho, p):
        # before any arithmetic: no RuntimeWarning either
        eos = IdealGasRadiation(1.4)
        with pytest.raises(EosFailure):
            eos.temperature_from_p(rho, p)
        with pytest.raises(EosFailure):
            eos.thermo(rho, p, "internal_energy")

    @pytest.mark.parametrize("rho, other", [
        (1.0, -1.0), (1.0, np.nan), (np.nan, 1.0), (1.0, 0.0),
        (np.array([1.0, np.nan]), np.ones(2)), (-0.22, 0.0484),
        (-0.22, 0.5), (0.0, 1.0), (-np.inf, 1.0), (1.0, np.inf),
        (np.inf, 1.0), (np.array([1.0, np.inf]), np.ones(2))],
        ids=["negative", "nan-p", "nan-rho", "zero", "array-nan",
             "negative-rho-p", "negative-rho-eps", "zero-rho", "minus-inf",
             "inf", "inf-rho", "array-inf-rho"])
    def test_bad_input_raises_before_the_polish(self, rho, other):
        eos = IdealGasRadiation(1.4)
        for invert in (eos.temperature_from_p, eos.temperature_from_eps):
            assert newton_evaluations(invert, rho, other,
                                      raises=EosFailure) == 0

    @pytest.mark.parametrize("name", ["temperature_from_p",
                                      "temperature_from_eps"])
    def test_no_states_pass_the_guard(self, name):
        empty = np.zeros(0)
        assert getattr(IdealGasRadiation(1.4), name)(empty, empty).shape \
            == (0,)

    @pytest.mark.parametrize("name", ["temperature_from_p", "pressure",
                                      "internal_energy"])
    def test_zero_input_is_named(self, name):
        # a zero pressure or energy has the root T = 0, which the check
        # after the Newton step would reject without naming the zero
        with pytest.raises(EosFailure, match=r"(pressure|energy) 0\.0: the "
                           r"(pressure|energy) is not a positive number"):
            getattr(IdealGasRadiation(1.4), name)(1.0, 0.0)

    @pytest.mark.parametrize("invert, rho, other, message", [
        ("temperature_from_p", 1.0, np.inf,
         "density 1.0, pressure inf: the pressure is not a finite number"),
        ("temperature_from_eps", 1.0, np.inf,
         "density 1.0, energy inf: the energy is not a finite number"),
        ("temperature_from_p", np.inf, 1.0,
         "density inf, pressure 1.0: the density is not a finite number")],
        ids=["p", "eps", "rho"])
    def test_infinite_input_is_named(self, invert, rho, other, message):
        # +inf passes a minimum check, and the root would divide inf by inf
        with pytest.raises(EosFailure) as error:
            getattr(IdealGasRadiation(1.4), invert)(rho, other)
        assert str(error.value) == "no temperature at " + message

    @pytest.mark.parametrize("invert, other, name", [
        ("temperature_from_eps", 0.5, "energy"),
        ("temperature_from_p", 0.0484, "pressure")])
    def test_negative_density_is_named(self, invert, other, name):
        # a negative density with a positive pressure or energy has a
        # positive root of the quartic, which the one Newton step would
        # return as a temperature; the guard names the state instead
        rho = np.array([1.0, -0.22, 2.0])
        with pytest.raises(EosFailure) as error:
            getattr(IdealGasRadiation(1.4), invert)(rho, other)
        assert str(error.value) == (
            f"no temperature at density -0.22, {name} {other!r}: the "
            "density is not a positive number")
        assert error.value.rho is not None

    @pytest.mark.parametrize("cast", [float, np.array, lambda v: np.array([v])],
                             ids=["float", "0-d", "1-element"])
    def test_one_polish_evaluation(self, cast):
        eos = IdealGasRadiation(1.4)
        assert newton_evaluations(eos.temperature_from_p, cast(0.7),
                                  cast(3.0)) == 1
        assert newton_evaluations(eos.temperature_from_eps, cast(0.7),
                                  cast(3.0)) == 1
