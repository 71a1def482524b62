import numpy as np
import pytest

from hydrobal.cases import (
    discrete_equilibrium_init,
    grid_for,
    hydrostatic_residual,
    init_cell_averages,
    isothermal_1d,
    make_scenario,
    polytropic_radiation_1d,
)
from hydrobal.boundary import BoundarySpec1D
from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.grid import Grid
from hydrobal.operator1d import SpatialOperator1D
from hydrobal.poly import poly_antiderivative, poly_eval, poly_mul
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import product_terms
from hydrobal.scheme import Scheme
from hydrobal.wellbalance import (
    anchor_pressure_ideal,
    anchor_pressure_newton,
    anchor_pressure_simplified,
    build_profiles,
    energy_deviations,
    equilibrium_points,
    hydrostatic_energy_faces,
    monotonicity_probe,
)


def reconstruction_setup(scenario, n, scheme):
    grid = grid_for(scenario, n, scheme.n_ghost)
    field = init_cell_averages(scenario, grid)
    op = SpatialOperator1D(grid, scheme, scenario.eos, scenario.gravity,
                           scenario.boundary)
    op.set_initial_state(field.data)
    return grid, field, op


def profiles(op, data):
    """The operator's equilibrium at its node set, as its `rhs` builds it
    from its product-basis tables: (p, rho, ok, rec, anti), with `anti` the
    Horner reference coefficients of each cell's source antiderivative."""
    rec = op.cweno.coefficients(data)
    tables = op._tables
    p, rho, ok = build_profiles(
        op.scheme, op.eos, product_terms(rec[0], op.g_coeffs) @ tables.line[0],
        rec[:2] @ tables.values, rec[..., 0], data[0], data[2], op._mean,
        op._stencil)
    return p, rho, ok, rec, poly_antiderivative(poly_mul(rec[0], op.g_coeffs))


def node_offsets(op):
    """Offsets of the full stencil node set of `profiles` from the center."""
    points = equilibrium_points(op.scheme.n_quad, op.scheme.radius)
    return op.grid.spacing[0] * np.ravel(points)


def own_nodes(op):
    """Node-set columns of the Gauss nodes of the profile cell itself."""
    nq, r = op.quad_nodes.size, op.scheme.radius
    return slice(r * nq, (r + 1) * nq)


def uniform_op(kind, order, n, eos, energy):
    """Periodic operator with g = -1 and the uniform state rho = 1, u = 0,
    E = energy."""
    scheme = Scheme(kind, order)
    grid = Grid((0.0, 1.0), (n,), scheme.n_ghost)
    op = SpatialOperator1D(grid, scheme, eos, lambda x: -np.ones_like(x),
                           BoundarySpec1D())
    data = np.zeros((3, grid.shape_tot[0]))
    data[0] = 1.0
    data[2] = energy
    return op, data


class TestSources:
    def test_constant_density_constant_gravity(self):
        # rho = 1, g = -1: the source is -1 on every stencil cell, so the
        # glued pressure is p0 - (x - x_i) at every node of the stencil of
        # cell i and at its faces; E = 2.5 makes the anchor p0 = 1.  Cells
        # whose stencil wraps around the grid are left out.
        op, data = uniform_op("dwb", 5, 10, IdealGas(1.4), 2.5)
        p, rho, ok, rec, anti = profiles(op, data)
        assert np.all(ok)
        np.testing.assert_allclose(anti[:, 1], -1.0)
        np.testing.assert_allclose(anti[:, 2:], 0.0, atol=1e-15)
        inner = p[2:-2]
        np.testing.assert_allclose(
            inner, np.broadcast_to(1.0 - node_offsets(op), inner.shape),
            atol=1e-14)
        np.testing.assert_allclose(rho, 1.0)

    def test_la_and_dwb_agree_for_global_polynomial_source(self):
        # linear rho and constant g: rho^rec * g^int is one global polynomial
        grid = Grid((0.0, 1.0), (16,), 3)
        data = np.zeros((3, grid.shape_tot[0]))
        data[0] = 2.0 + 0.5 * grid.centers()  # exact averages of a linear profile
        data[2] = 10.0
        out = []
        for kind in ("dwb", "la"):
            op = SpatialOperator1D(grid, Scheme(kind, 3), IdealGas(1.4),
                                   lambda x: -np.ones_like(x), BoundarySpec1D())
            out.append(profiles(op, data)[0][4:-4])
        np.testing.assert_allclose(out[0], out[1], rtol=1e-12, atol=1e-12)


class TestAnchors:
    def test_ideal_uniform_state(self):
        # rho=1, g=-1, eps_hat=2.5, gamma=1.4: odd integrand cancels -> p0=1
        from hydrobal.grid import Grid
        grid = Grid((0.0, 1.0), (4,), 3)
        n = grid.shape_tot[0]
        source = np.zeros((n, 2))
        source[:, 0] = -1.0
        anti = poly_antiderivative(source)
        h, = grid.spacing
        nodes, weights = gauss_nodes_weights_centered(2, h)
        p0 = anchor_pressure_ideal(poly_eval(anti[:, None, :], nodes),
                                   np.full(n, 2.5), 1.4, weights / h)
        np.testing.assert_allclose(p0, 1.0, atol=1e-14)

    def test_ideal_zero_gravity(self):
        from hydrobal.grid import Grid
        grid = Grid((0.0, 1.0), (4,), 3)
        (h,), (n_tot,) = grid.spacing, grid.shape_tot
        offsets = np.zeros((n_tot, 2))
        _, weights = gauss_nodes_weights_centered(2, h)
        p0 = anchor_pressure_ideal(offsets, np.full(n_tot, 2.5), 1.4,
                                   weights / h)
        np.testing.assert_allclose(p0, 0.4 * 2.5)

    def test_isothermal_anchor_converges_to_point_value(self):
        # the anchored profile at the cell's own nodes converges to the
        # background pressure there
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        errors = []
        for n in (32, 64, 128):
            grid, field, op = reconstruction_setup(scen, n, scheme)
            p = profiles(op, field.data)[0][:, own_nodes(op)]
            inner = slice(grid.n_ghost + 2, grid.n_ghost + n - 2)
            x = grid.centers()[inner, None] + op.quad_nodes
            errors.append(np.max(np.abs(p[inner] - np.exp(-10.0 * x))))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.5

    def test_newton_matches_ideal_closed_form(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        # the closed-form profile of build_profiles, at the cell's own
        # nodes, equals the Newton anchor plus the same pressure offsets
        grid, field, op = reconstruction_setup(scen, 32, scheme)
        p, rho, ok, rec, anti = profiles(op, field.data)
        own = own_nodes(op)
        offsets = poly_eval(anti[:, None, :], op.quad_nodes)
        p_newton, conv = anchor_pressure_newton(
            offsets, rho[:, own], field.data[0], field.data[2], scen.eos,
            op._mean)
        inner = slice(2, grid.shape_tot[0] - 2)
        assert np.all(conv[inner])
        np.testing.assert_allclose(p_newton[inner, None] + offsets[inner],
                                   p[inner, own], rtol=1e-12, atol=1e-12)

    def test_newton_zero_gravity_radiation(self):
        # constant state, no gravity: the initial guess is already the root
        from hydrobal.grid import Grid
        eos = IdealGasRadiation(1.4)
        grid = Grid((0.0, 1.0), (4,), 2)
        n = grid.shape_tot[0]
        _, weights = gauss_nodes_weights_centered(2, grid.spacing[0])
        eps = np.full(n, 5.5)
        p0, conv = anchor_pressure_newton(np.zeros((n, 2)), np.ones((n, 2)),
                                          np.ones(n), eps, eos,
                                          weights / grid.spacing[0])
        assert np.all(conv)
        np.testing.assert_allclose(p0, 2.0, rtol=1e-12)

    def test_newton_on_radiation_polytrope_order(self):
        scen = polytropic_radiation_1d()
        assert hydrostatic_residual(scen) < 1e-10
        scheme = Scheme("dwb", 3)
        errors = []
        for n in (32, 64, 128):
            grid, field, op = reconstruction_setup(scen, n, scheme)
            p, rho, ok, rec, anti = profiles(op, field.data)
            inner = slice(grid.n_ghost + 2, grid.n_ghost + n - 2)
            _, p_bg = scen.background
            exact = p_bg(grid.centers()[inner, None] + op.quad_nodes)
            assert np.all(ok[inner])
            errors.append(np.max(np.abs(p[inner, own_nodes(op)] - exact)))
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
    def _cell(self, eos):
        # one cell's node values from build_profiles: rho = 1, g = -1 and the
        # energy of p = 1, so the anchor is p0 = 1 (ideal: exactly)
        op, data = uniform_op("la", 3, 8, eos, eos.internal_energy(1.0, 1.0))
        p, rho, ok = profiles(op, data)[:3]
        own = own_nodes(op)
        return p[5, own] - 1.0, rho[5, own], 1.0, eos, op._mean

    def test_ideal_always_true(self):
        assert monotonicity_probe(*self._cell(IdealGas(1.4)))

    def test_radiation_true(self):
        assert monotonicity_probe(*self._cell(IdealGasRadiation(1.4)))

    def test_synthetic_phase_transition_false(self):
        class BadEos(IdealGas):
            def deps_dp(self, rho, p):
                return np.where(np.asarray(p) > 1.2, -1.0, 1.0 / (self.gamma - 1.0))

        assert not monotonicity_probe(*self._cell(BadEos(1.4)))


class TestEquilibriumConsistency:
    @pytest.mark.parametrize("kind,order", [("dwb", 3), ("dwb", 5), ("la", 3)])
    def test_profile_matches_cell_energy(self, kind, order):
        # quadrature average of the profile's internal energy returns eps_hat
        scen = isothermal_1d("10x")
        scheme = Scheme(kind, order)
        grid, field, op = reconstruction_setup(scen, 64, scheme)
        p, rho, ok = profiles(op, field.data)[:3]
        delta, eps_faces, valid = energy_deviations(
            scen.eos, p, rho, field.data[2][op._stencil], op._mean)
        inner = slice(2 * scheme.radius, grid.shape_tot[0] - 2 * scheme.radius)
        assert np.all(ok[inner] & valid[inner])
        # the d=0 column is the matching equation itself
        np.testing.assert_allclose(delta[inner, scheme.radius], 0.0, atol=1e-13)

    def test_zero_gravity_reduces_to_standard(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 32, scheme.n_ghost)
        rng = np.random.default_rng(3)
        data = np.empty((3, grid.shape_tot[0]))
        data[0] = 1.0 + 0.1 * rng.random(grid.shape_tot[0])
        data[1] = 0.05 * rng.standard_normal(grid.shape_tot[0])
        data[2] = 2.0 + 0.1 * rng.random(grid.shape_tot[0])
        op = SpatialOperator1D(grid, scheme, scen.eos, lambda x: 0.0 * x,
                               scen.boundary)
        p, rho, ok, rec, anti = profiles(op, data)
        delta, eps_faces, valid = energy_deviations(
            scen.eos, p, rho, data[2][op._stencil], op._mean)
        e_faces = hydrostatic_energy_faces(
            eps_faces, op.cweno.reconstruct_stencils(delta), op._face_table)
        face_l = poly_eval(rec, -grid.spacing[0] / 2)
        face_r = poly_eval(rec, grid.spacing[0] / 2)
        inner = slice(2, grid.shape_tot[0] - 2)
        np.testing.assert_allclose(e_faces[inner, 0], face_l[2][inner],
                                   rtol=1e-11)
        np.testing.assert_allclose(e_faces[inner, 1], face_r[2][inner],
                                   rtol=1e-11)


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
        # the last two node-set columns are each profile's own faces
        p = profiles(op, field.data)[0]
        p_left, p_right = p[:, -2], p[:, -1]
        n_tot, = grid.shape_tot
        inner = slice(2 * scheme.radius, n_tot - 2 * scheme.radius - 1)
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


@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("hydrostatic-extrapolation", "solid-wall")],
                         ids=["dirichlet", "extrapolation-wall"])
@pytest.mark.parametrize("kind", ["dwb", "dwb-s"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("scenario, n", [("isothermal-10x", 128),
                                         ("polytropic-radiation", 64),
                                         ("riemann-on-equilibrium", 64)])
def test_discrete_equilibrium_residual(scenario, n, order, kind, bc):
    # the discrete equilibrium of each scheme is a fixed point of its RHS,
    # ghost fills included, for both EoS and across the Riemann jump
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, n, scheme.n_ghost)
    field = discrete_equilibrium_init(scen, grid, scheme)
    op = SpatialOperator1D(grid, scheme, scen.eos, scen.gravity, scen.boundary)
    op.set_initial_state(field.data)
    rhs = op.rhs(field.data)
    assert np.max(np.abs(rhs)) <= 1e-12 * np.max(np.abs(field.data))
    assert op.fallback_cells == 0
