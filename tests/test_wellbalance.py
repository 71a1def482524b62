import numpy as np
import pytest

from hydrobal.cases import (
    discrete_equilibrium_init,
    grid_for,
    hydrostatic_residual,
    init_cell_averages,
    isothermal_1d,
    polytropic_radiation_1d,
)
from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.operator1d import SpatialOperator1D
from hydrobal.poly import poly_antiderivative, poly_eval
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import Cweno1D, GravityInterp1D
from hydrobal.scheme import Scheme
from hydrobal.wellbalance import (
    EquilibriumProfile1D,
    anchor_pressure_ideal,
    anchor_pressure_newton,
    anchor_pressure_simplified,
    build_profiles,
    build_source_coeffs,
    energy_deviations,
    monotonicity_probe,
)


def make_profile(grid, eos, rho_coeffs, g_coeffs, piecewise):
    source = build_source_coeffs(rho_coeffs, g_coeffs)
    return EquilibriumProfile1D(grid, eos, rho_coeffs, source, piecewise)


def reconstruction_setup(scenario, n, scheme):
    grid = grid_for(scenario, n, scheme.n_ghost)
    field = init_cell_averages(scenario, grid)
    op = SpatialOperator1D(grid, scheme, scenario.eos, scenario.gravity,
                           scenario.boundary)
    op.set_initial_state(field.data)
    return grid, field, op


class TestSources:
    def test_constant_density_constant_gravity(self):
        # rho = 1, g = -1: source is -1 on every stencil cell
        from hydrobal.grid import Grid1D
        grid = Grid1D(0.0, 1.0, 10, 3)
        n = grid.n_tot
        rho = np.zeros((n, 3))
        rho[:, 0] = 1.0
        g = np.zeros((n, 3))
        g[:, 0] = -1.0
        prof = make_profile(grid, IdealGas(1.4), rho, g, piecewise=True)
        np.testing.assert_allclose(prof.source_coeffs[:, 0], -1.0)
        np.testing.assert_allclose(prof.source_coeffs[:, 1:], 0.0, atol=1e-15)
        # pressure continuity and slope: p_i(x) = p0 - (x - x_i) across the
        # stencil of cell i
        prof.p0 = np.ones(n)
        i = 8
        xi = np.array([-0.4, -0.1, 0.0, 0.1, 0.31]) * grid.dx
        for d in (-2, -1, 0, 1, 2):
            np.testing.assert_allclose(prof.pressure_at(d, xi)[i],
                                       1.0 - (d * grid.dx + xi), atol=1e-14)

    def test_la_and_dwb_agree_for_global_polynomial_source(self):
        # linear rho and constant g: rho^rec * g^int is one global polynomial
        from hydrobal.grid import Grid1D
        grid = Grid1D(0.0, 1.0, 16, 3)
        h = grid.dx
        centers = grid.centers()
        data = 2.0 + 0.5 * centers  # exact averages of a linear profile
        cweno = Cweno1D(3, h)
        rho_coeffs = cweno.coefficients(data)
        g_coeffs = GravityInterp1D(3, h).coefficients(np.full(grid.n_tot, -1.0))
        eos = IdealGas(1.4)
        prof_pw = make_profile(grid, eos, rho_coeffs, g_coeffs, piecewise=True)
        prof_la = make_profile(grid, eos, rho_coeffs, g_coeffs, piecewise=False)
        prof_pw.p0 = prof_la.p0 = 5.0 + 0.0 * centers
        xi = np.linspace(-h / 2, h / 2, 5)
        for d in (-1, 0, 1):
            a = prof_pw.pressure_at(d, xi)[4:-4]
            b = prof_la.pressure_at(d, xi)[4:-4]
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestAnchors:
    def test_ideal_uniform_state(self):
        # rho=1, g=-1, eps_hat=2.5, gamma=1.4: odd integrand cancels -> p0=1
        from hydrobal.grid import Grid1D
        grid = Grid1D(0.0, 1.0, 4, 3)
        n = grid.n_tot
        source = np.zeros((n, 2))
        source[:, 0] = -1.0
        anti = poly_antiderivative(source)
        nodes, weights = gauss_nodes_weights_centered(2, grid.dx)
        p0 = anchor_pressure_ideal(poly_eval(anti[:, None, :], nodes),
                                   np.full(n, 2.5), 1.4, weights / grid.dx)
        np.testing.assert_allclose(p0, 1.0, atol=1e-14)

    def test_ideal_zero_gravity(self):
        from hydrobal.grid import Grid1D
        grid = Grid1D(0.0, 1.0, 4, 3)
        offsets = np.zeros((grid.n_tot, 2))
        _, weights = gauss_nodes_weights_centered(2, grid.dx)
        p0 = anchor_pressure_ideal(offsets, np.full(grid.n_tot, 2.5), 1.4,
                                   weights / grid.dx)
        np.testing.assert_allclose(p0, 0.4 * 2.5)

    def test_isothermal_anchor_converges_to_point_value(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        errors = []
        for n in (32, 64, 128):
            grid, field, op = reconstruction_setup(scen, n, scheme)
            rec = op.cweno.coefficients(field.data)
            profile, ok, nodes, weights = build_profiles(
                grid, scheme, scen.eos, rec, op.g_coeffs,
                field.data[0], field.data[2])
            inner = slice(grid.n_ghost + 2, grid.n_ghost + n - 2)
            exact = np.exp(-10.0 * grid.centers()[inner])
            errors.append(np.max(np.abs(profile.p0[inner] - exact)))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.5

    def test_newton_matches_ideal_closed_form(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid, field, op = reconstruction_setup(scen, 32, scheme)
        rec = op.cweno.coefficients(field.data)
        profile, ok, nodes, weights = build_profiles(
            grid, scheme, scen.eos, rec, op.g_coeffs, field.data[0], field.data[2])
        kinetic = np.zeros(grid.n_tot)
        eps_hat = field.data[2] - kinetic
        p_newton, conv = anchor_pressure_newton(
            poly_eval(profile.anti[:, None, :], nodes),
            poly_eval(profile.rho_coeffs[:, None, :], nodes), field.data[0],
            eps_hat, scen.eos, weights / grid.dx)
        inner = slice(2, grid.n_tot - 2)
        assert np.all(conv[inner])
        np.testing.assert_allclose(p_newton[inner], profile.p0[inner],
                                   rtol=1e-12, atol=1e-12)

    def test_newton_zero_gravity_radiation(self):
        # constant state, no gravity: the initial guess is already the root
        from hydrobal.grid import Grid1D
        eos = IdealGasRadiation(1.4)
        grid = Grid1D(0.0, 1.0, 4, 2)
        n = grid.n_tot
        _, weights = gauss_nodes_weights_centered(2, grid.dx)
        eps = np.full(n, 5.5)
        p0, conv = anchor_pressure_newton(np.zeros((n, 2)), np.ones((n, 2)),
                                          np.ones(n), eps, eos,
                                          weights / grid.dx)
        assert np.all(conv)
        np.testing.assert_allclose(p0, 2.0, rtol=1e-12)

    def test_newton_on_radiation_polytrope_order(self):
        scen = polytropic_radiation_1d()
        assert hydrostatic_residual(scen) < 1e-10
        scheme = Scheme("dwb", 3)
        errors = []
        for n in (32, 64, 128):
            grid, field, op = reconstruction_setup(scen, n, scheme)
            rec = op.cweno.coefficients(field.data)
            profile, ok, nodes, weights = build_profiles(
                grid, scheme, scen.eos, rec, op.g_coeffs,
                field.data[0], field.data[2])
            inner = slice(grid.n_ghost + 2, grid.n_ghost + n - 2)
            _, p_bg = scen.background
            exact = p_bg(grid.centers()[inner])
            assert np.all(ok[inner])
            errors.append(np.max(np.abs(profile.p0[inner] - exact)))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.4

    def test_simplified_anchor_static_data(self):
        rec_center = np.array([[1.0], [0.0], [2.5]])
        p0 = anchor_pressure_simplified(rec_center, IdealGas(1.4))
        np.testing.assert_allclose(p0, [1.0])
        # zero velocity: eps0 equals the reconstructed energy point value
        rec_center = np.array([[2.0], [0.0], [3.0]])
        p0 = anchor_pressure_simplified(rec_center, IdealGas(1.4))
        np.testing.assert_allclose(p0, [0.4 * 3.0])


class TestMonotonicityProbe:
    def _profile(self, eos):
        from hydrobal.grid import Grid1D
        grid = Grid1D(0.0, 1.0, 8, 3)
        n = grid.n_tot
        rho = np.zeros((n, 3))
        rho[:, 0] = 1.0
        g = np.zeros((n, 3))
        g[:, 0] = -1.0
        prof = make_profile(grid, eos, rho, g, piecewise=False)
        prof.p0 = np.ones(n)
        return prof

    def test_ideal_always_true(self):
        assert monotonicity_probe(self._profile(IdealGas(1.4)), 5)

    def test_radiation_true(self):
        assert monotonicity_probe(self._profile(IdealGasRadiation(1.4)), 5)

    def test_synthetic_phase_transition_false(self):
        class BadEos(IdealGas):
            def deps_dp(self, rho, p):
                return np.where(np.asarray(p) > 1.2, -1.0, 1.0 / (self.gamma - 1.0))

        assert not monotonicity_probe(self._profile(BadEos(1.4)), 5)


class TestEquilibriumConsistency:
    @pytest.mark.parametrize("kind,order", [("dwb", 3), ("dwb", 5), ("la", 3)])
    def test_profile_matches_cell_energy(self, kind, order):
        # quadrature average of the profile's internal energy returns eps_hat
        scen = isothermal_1d("10x")
        scheme = Scheme(kind, order)
        grid, field, op = reconstruction_setup(scen, 64, scheme)
        rec = op.cweno.coefficients(field.data)
        profile, ok, nodes, weights = build_profiles(
            grid, scheme, scen.eos, rec, op.g_coeffs, field.data[0], field.data[2])
        delta, valid = energy_deviations(profile, field.data[2],
                                         scheme.radius, nodes, weights)
        inner = slice(2 * scheme.radius, grid.n_tot - 2 * scheme.radius)
        # the d=0 column is the matching equation itself
        np.testing.assert_allclose(delta[inner, scheme.radius], 0.0, atol=1e-13)

    def test_zero_gravity_reduces_to_standard(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 32, scheme.n_ghost)
        rng = np.random.default_rng(3)
        data = np.empty((3, grid.n_tot))
        data[0] = 1.0 + 0.1 * rng.random(grid.n_tot)
        data[1] = 0.05 * rng.standard_normal(grid.n_tot)
        data[2] = 2.0 + 0.1 * rng.random(grid.n_tot)
        op = SpatialOperator1D(grid, scheme, scen.eos, lambda x: 0.0 * x,
                               scen.boundary)
        rec = op.cweno.coefficients(data)
        profile, ok, nodes, weights = build_profiles(
            grid, scheme, scen.eos, rec, op.g_coeffs, data[0], data[2])
        delta, valid = energy_deviations(profile, data[2], 1, nodes, weights)
        dcoeffs = op.cweno.reconstruct_stencils(delta)
        from hydrobal.wellbalance import hydrostatic_energy_faces
        e_l, e_r, ok_f = hydrostatic_energy_faces(profile, dcoeffs)
        face_l = poly_eval(rec, -grid.dx / 2)
        face_r = poly_eval(rec, grid.dx / 2)
        inner = slice(2, grid.n_tot - 2)
        np.testing.assert_allclose(e_l[inner], face_l[2][inner], rtol=1e-11)
        np.testing.assert_allclose(e_r[inner], face_r[2][inner], rtol=1e-11)


class TestTheoremResidual:
    @pytest.mark.parametrize("order", [3, 5])
    def test_dwb_zero_rhs_on_discrete_equilibrium(self, order):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", order)
        grid = grid_for(scen, 128, scheme.n_ghost)
        field = discrete_equilibrium_init(scen, grid, scheme)
        op = SpatialOperator1D(grid, scheme, scen.eos, scen.gravity, scen.boundary)
        op.set_initial_state(field.data)
        rhs = op.rhs(field.data)
        assert np.max(np.abs(rhs)) < 1e-13

    def test_interface_pressure_equality(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 64, scheme.n_ghost)
        field = discrete_equilibrium_init(scen, grid, scheme)
        op = SpatialOperator1D(grid, scheme, scen.eos, scen.gravity, scen.boundary)
        rec = op.cweno.coefficients(field.data)
        profile, ok, nodes, weights = build_profiles(
            grid, scheme, scen.eos, rec, op.g_coeffs, field.data[0], field.data[2])
        h = grid.dx
        p_right = profile.pressure_at(0, np.array([h / 2]))[:, 0]
        p_left = profile.pressure_at(0, np.array([-h / 2]))[:, 0]
        inner = slice(2 * scheme.radius, grid.n_tot - 2 * scheme.radius - 1)
        np.testing.assert_allclose(p_right[inner],
                                   p_left[inner.start + 1:inner.stop + 1],
                                   rtol=1e-13, atol=1e-14)

    def test_anchor_insensitive_preservation(self):
        # different anchor cells pin the background at different points, so
        # the constructed fields differ by the O(dx^m) profile integration
        # error; what is anchor-invariant is the exact-preservation property
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 64, scheme.n_ghost)
        op = SpatialOperator1D(grid, scheme, scen.eos, scen.gravity, scen.boundary)
        fields = []
        for anchor in (grid.n_ghost, grid.n_ghost + 32, grid.n_ghost + 63):
            field = discrete_equilibrium_init(scen, grid, scheme, anchor_cell=anchor)
            op.set_initial_state(field.data)
            assert np.max(np.abs(op.rhs(field.data))) < 1e-13
            fields.append(field.data)
        # and the fields themselves agree at the discretization-error level
        np.testing.assert_allclose(fields[0], fields[1], atol=2e-4)
