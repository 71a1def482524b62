import copy
import dataclasses

import numpy as np
import pytest

from hydrobal.cases import (
    discrete_equilibrium_init,
    grid_for,
    init_cell_averages,
    isothermal_1d,
    make_scenario,
    polytropic_radiation_1d,
)
from hydrobal.boundary import BoundarySpec1D
from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.errors import InitializationError
from hydrobal.grid import Grid
from hydrobal import operator1d, wellbalance
from hydrobal.grid import interior_index
from hydrobal.operator1d import SpatialOperator
from hydrobal.physics import flux_divergence, positivity_fallback
from hydrobal.poly import poly_antiderivative, poly_eval, poly_mul
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import (GravityInterp1D, product_tables,
                                  stencil_windows)
from hydrobal.runner import make_operator, run
from hydrobal.scheme import Scheme
from hydrobal.wellbalance import (
    ANCHOR_TOL,
    anchor_pressure_ideal,
    anchor_pressure_newton,
    anchor_pressure_simplified,
    build_profiles,
    energy_deviations,
    equilibrium_points,
    hydrostatic_energy_faces,
)

from oracles import hydrostatic_residual


class NodeIdealGas(IdealGas):
    """The ideal gas without its constant d eps/dp, so the equilibrium
    layer evaluates it at nodes, as it does every other EoS."""

    deps_dp_constant = None


def reconstruction_setup(scenario, n, scheme):
    grid = grid_for(scenario, n, scheme.n_ghost)
    field = init_cell_averages(scenario, grid)
    op = SpatialOperator(grid, scheme, scenario.eos, scenario.gravity,
                         scenario.boundary)
    op.set_initial_state(field.data)
    return grid, field, op


def node_eos(eos):
    """`eos`, or for the ideal gas its node-path twin `NodeIdealGas`."""
    if eos.deps_dp_constant is None:
        return eos
    return NodeIdealGas(eos.gamma)


def band(op):
    """The grid cells of the 1-D operator's band, whose stencil fits."""
    r = op.scheme.radius
    return slice(r, op.grid.shape_tot[0] - r)


def windows(op, values):
    """The stencils of the band cells over `values` (*grid), (stencil
    cells, band cells)."""
    return stencil_windows(values, (2 * op.scheme.radius + 1,))


def profiles(op, data):
    """The operator's equilibrium at its node set, as its `rhs` builds it
    from its product-basis tables, on the node path (the ideal gas as
    `NodeIdealGas`): (p, rho, ok, rec, anti, eps) with the band's cells
    (`band`) first, `rec` the coefficients, `anti` the Horner reference
    coefficients of each cell's source antiderivative and `eps` the
    internal energy.  DWB's come from `build_profiles`, LA's from the
    operator's stage."""
    rec = op.cweno.coefficients(data)
    if op.scheme.piecewise_source:
        terms = (rec[0][:, None] * op._g_rows[0]).reshape(-1, rec.shape[-1])
        p, rho, eps, ok = build_profiles(
            op.scheme, node_eos(op.eos), op._line_rows @ terms,
            op._value_rows @ rec[:2], rec[:, 0], data[0, band(op)],
            data[2, band(op)], op._mean)
    else:
        p, rho, eps, ok = la_node_values(op, rec, data)
    rec = np.swapaxes(rec, -1, -2)
    return (p.T, rho.T, ok, rec,
            poly_antiderivative(poly_mul(rec[0], op._g_rows[0].T)), eps.T)


def la_node_values(op, rec, data):
    """(p, rho, eps, ok), nodes first, of the 1-D LA operator's stage on
    the node path, read from its `anchor_pressure_newton` call (the name
    the stage calls on `wellbalance`, which the tracer patches too)."""
    stage = copy.copy(op._equilibrium)
    stage.eos = node_eos(op.eos)
    seen = []

    def anchor(c_rows, rho_rows, *args):
        p0, ok, eps = anchor_pressure_newton(c_rows, rho_rows, *args)
        seen.append((p0 + c_rows, rho_rows, eps, ok))
        return p0, ok, eps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wellbalance, "anchor_pressure_newton", anchor)
        stage(rec, data[0, band(op)], data[2, band(op)], windows(op, data[2]))
    return seen[0]


def deviations(op, eps, data):
    """`energy_deviations` of the cells-first node energies `eps` (from
    `profiles`): (delta, eps_faces) with cells first."""
    delta, eps_faces = energy_deviations(eps.T, windows(op, data[2]),
                                         op._mean)
    return delta.T, eps_faces.T


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
    op = SpatialOperator(grid, scheme, eos, lambda x: -np.ones_like(x),
                         BoundarySpec1D())
    data = np.zeros((3, grid.shape_tot[0]))
    data[0] = 1.0
    data[2] = energy
    return op, data


class TestSources:
    def test_constant_density_constant_gravity(self):
        # rho = 1, g = -1: the source is -1 on every stencil cell, so the
        # glued pressure is p0 - (x - x_i) at every node of the stencil of
        # cell i and at its faces; E = 2.5 makes the anchor p0 = 1.
        op, data = uniform_op("dwb", 5, 10, IdealGas(1.4), 2.5)
        p, rho, ok, rec, anti, _ = profiles(op, data)
        assert np.all(ok)
        np.testing.assert_allclose(anti[:, 1], -1.0)
        np.testing.assert_allclose(anti[:, 2:], 0.0, atol=1e-15)
        np.testing.assert_allclose(
            p, np.broadcast_to(1.0 - node_offsets(op), p.shape), atol=1e-14)
        np.testing.assert_allclose(rho, 1.0)

    def test_la_and_dwb_agree_for_global_polynomial_source(self):
        # linear rho and constant g: rho^rec * g^int is one global polynomial
        out = []
        for kind in ("dwb", "la"):
            scheme = Scheme(kind, 3)
            grid = Grid((0.0, 1.0), (16,), scheme.n_ghost)
            data = np.zeros((3, grid.shape_tot[0]))
            data[0] = 2.0 + 0.5 * grid.centers()  # exact linear averages
            data[2] = 10.0
            op = SpatialOperator(grid, scheme, IdealGas(1.4),
                                 lambda x: -np.ones_like(x), BoundarySpec1D())
            # cells -1..16: LA's band, and DWB's without its outer cells,
            # whose profiles glue pieces wrapped around the band
            first = grid.n_ghost - 1 - band(op).start
            out.append(profiles(op, data)[0][first:first + 18])
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
        p0 = anchor_pressure_ideal(poly_eval(anti[:, None, :], nodes).T,
                                   np.full(n, 2.5), 2.5, weights / h)
        np.testing.assert_allclose(p0, 1.0, atol=1e-14)

    def test_ideal_zero_gravity(self):
        from hydrobal.grid import Grid
        grid = Grid((0.0, 1.0), (4,), 3)
        (h,), (n_tot,) = grid.spacing, grid.shape_tot
        offsets = np.zeros((2, n_tot))
        _, weights = gauss_nodes_weights_centered(2, h)
        p0 = anchor_pressure_ideal(offsets, np.full(n_tot, 2.5), 2.5,
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
            on_band = slice(inner.start - band(op).start,
                            inner.stop - band(op).start)
            errors.append(np.max(np.abs(p[on_band] - np.exp(-10.0 * x))))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.5

    def test_newton_matches_ideal_closed_form(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        # the closed-form profile of build_profiles, at the cell's own
        # nodes, equals the Newton anchor plus the same pressure offsets
        grid, field, op = reconstruction_setup(scen, 32, scheme)
        p, rho, ok, rec, anti, _ = profiles(op, field.data)
        own = own_nodes(op)
        offsets = poly_eval(anti[:, None, :], op.quad_nodes)
        cells = band(op)
        p_newton, conv, _ = anchor_pressure_newton(
            offsets.T, rho[:, own].T, slice(None), field.data[0, cells],
            field.data[2, cells], scen.eos, op._mean)
        assert np.all(conv)
        np.testing.assert_allclose(p_newton[:, None] + offsets, p[:, own],
                                   rtol=1e-12, atol=1e-12)
        # and the anchors themselves against the closed-form anchor
        p_ideal = anchor_pressure_ideal(offsets.T, field.data[2, cells],
                                        scen.eos.deps_dp_constant, op._mean)
        np.testing.assert_allclose(p_newton, p_ideal, rtol=1e-12,
                                   atol=1e-12)

    def test_newton_zero_gravity_radiation(self):
        # constant state, no gravity: the initial guess is already the root
        from hydrobal.grid import Grid
        eos = IdealGasRadiation(1.4)
        grid = Grid((0.0, 1.0), (4,), 2)
        n = grid.shape_tot[0]
        _, weights = gauss_nodes_weights_centered(2, grid.spacing[0])
        eps = np.full(n, 5.5)
        p0, conv, _ = anchor_pressure_newton(
            np.zeros((2, n)), np.ones((2, n)), slice(None), np.ones(n), eps,
            eos, weights / grid.spacing[0])
        assert np.all(conv)
        np.testing.assert_allclose(p0, 2.0, rtol=1e-12)

    @pytest.mark.parametrize("gravity", [0.0, 0.3], ids=["start", "steps"])
    def test_newton_energies_at_every_row(self, gravity):
        # the own rows (the middle two) set p0; the other rows take eps at
        # the converged p0, also when the start is already the root and
        # the first iteration, at the own rows alone, confirms it
        eos = IdealGasRadiation(1.4)
        _, weights = gauss_nodes_weights_centered(2, 1.0)
        rng = np.random.default_rng(11)
        c = gravity * rng.uniform(-1.0, 1.0, (6, 5))
        c[2:4] = gravity * np.array([[-0.3], [0.3]])
        c[0, 4] = -10.0                      # a non-positive node
        rho = rng.uniform(0.5, 2.0, (6, 5))
        rho[3] = rho[2]
        rho_hat = weights @ rho[2:4]
        eps_hat = weights @ eos.internal_energy(rho[2:4], 1.0 + c[2:4])
        p0, ok, eps = anchor_pressure_newton(c, rho, slice(2, 4), rho_hat,
                                             eps_hat, eos, weights)
        np.testing.assert_allclose(p0, 1.0, rtol=1e-13)
        np.testing.assert_array_equal(ok, [True] * 4 + [False])
        p = p0 + c
        np.testing.assert_allclose(
            eps, eos.internal_energy(rho, np.where(p > 0.0, p, 1.0)),
            rtol=1e-14)

    def test_newton_on_radiation_polytrope_order(self):
        scen = polytropic_radiation_1d()
        assert hydrostatic_residual(scen) < 1e-10
        scheme = Scheme("dwb", 3)
        errors = []
        for n in (32, 64, 128):
            grid, field, op = reconstruction_setup(scen, n, scheme)
            p, rho, ok, rec, anti, _ = profiles(op, field.data)
            inner = slice(grid.n_ghost + 2, grid.n_ghost + n - 2)
            _, p_bg = scen.background
            exact = p_bg(grid.centers()[inner, None] + op.quad_nodes)
            on_band = slice(inner.start - band(op).start,
                            inner.stop - band(op).start)
            assert np.all(ok[on_band])
            errors.append(np.max(np.abs(p[on_band, own_nodes(op)] - exact)))
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


def monotonicity_probe(offset_nodes, rho_nodes, p0, eos, weights,
                       n_samples=32):
    """Whether one cell's anchor residual is strictly monotone around p0.

    Takes the cell's pressure offsets and densities at its nodes, like the
    anchor solvers, and samples the derivative sign of the matching function
    over a bracket [p0/2, 2 p0]; a sign change signals a
    phase-transition-like EoS and non-unique anchors.
    """
    for p in np.linspace(0.5 * p0, 2.0 * p0, n_samples):
        p_nodes = p + offset_nodes
        if np.any(p_nodes <= 0.0):
            continue
        if eos.deps_dp(rho_nodes, p_nodes) @ weights <= 0.0:
            return False
    return True


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
        _, _, ok, _, _, eps = profiles(op, field.data)
        delta, eps_faces = deviations(op, eps, field.data)
        # the band cells whose DWB profile glues no piece wrapped around the
        # band (`build_profiles` takes its neighbours periodically)
        inner = slice(scheme.radius, -scheme.radius)
        assert np.all(ok[inner])
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
        op = SpatialOperator(grid, scheme, scen.eos, lambda x: 0.0 * x,
                             scen.boundary)
        p, rho, ok, rec, anti, eps = profiles(op, data)
        delta, eps_faces = deviations(op, eps, data)
        e_faces = hydrostatic_energy_faces(
            eps_faces.T, op.cweno.reconstruct_stencils(delta.T),
            op._face_rows).T
        face_l = poly_eval(rec, -grid.spacing[0] / 2)
        face_r = poly_eval(rec, grid.spacing[0] / 2)
        np.testing.assert_allclose(e_faces[:, 0], face_l[2], rtol=1e-11)
        np.testing.assert_allclose(e_faces[:, 1], face_r[2], rtol=1e-11)


class TestTheoremResidual:
    @pytest.mark.parametrize("order", [3, 5])
    def test_dwb_zero_rhs_on_discrete_equilibrium(self, order):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", order)
        grid = grid_for(scen, 128, scheme.n_ghost)
        op = SpatialOperator(grid, scheme, scen.eos, scen.gravity,
                             scen.boundary)
        field = discrete_equilibrium_init(scen, op)
        op.set_initial_state(field.data)
        rhs = op.rhs(field.data)
        assert np.max(np.abs(rhs)) < 1e-13

    def test_interface_pressure_equality(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 64, scheme.n_ghost)
        op = SpatialOperator(grid, scheme, scen.eos, scen.gravity,
                             scen.boundary)
        field = discrete_equilibrium_init(scen, op)
        # the last two node-set columns are each profile's own faces
        p = profiles(op, field.data)[0]
        p_left, p_right = p[:, -2], p[:, -1]
        np.testing.assert_allclose(p_right[:-1], p_left[1:], rtol=1e-13,
                                   atol=1e-14)

    def test_anchor_insensitive_preservation(self):
        # different anchor cells pin the background at different points, so
        # the constructed fields differ by the O(dx^m) profile integration
        # error; what is anchor-invariant is the exact-preservation property
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 64, scheme.n_ghost)
        op = SpatialOperator(grid, scheme, scen.eos, scen.gravity,
                             scen.boundary)
        fields = []
        for anchor in (grid.n_ghost, grid.n_ghost + 32, grid.n_ghost + 63):
            field = discrete_equilibrium_init(scen, op, anchor_cell=anchor)
            op.set_initial_state(field.data)
            assert np.max(np.abs(op.rhs(field.data))) < 1e-13
            fields.append(field.data)
        # and the fields themselves agree at the discretization-error level
        np.testing.assert_allclose(fields[0], fields[1], atol=2e-4)


@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("hydrostatic-extrapolation", "solid-wall"),
                                ("solid-wall", "hydrostatic-extrapolation"),
                                ("hydrostatic-extrapolation", "dirichlet"),
                                ("dirichlet", "solid-wall")],
                         ids=["dirichlet", "extrapolation-wall",
                              "wall-extrapolation", "extrapolation-dirichlet",
                              "dirichlet-wall"])
@pytest.mark.parametrize("kind", ["dwb", "dwb-s"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("scenario, n", [("isothermal-10x", 128),
                                         ("polytropic-radiation", 64),
                                         ("riemann-on-equilibrium", 64)])
def test_discrete_equilibrium_residual(scenario, n, order, kind, bc):
    # the discrete equilibrium of each scheme is a fixed point of its RHS,
    # ghost fills included, for both EoS and across the Riemann jump, with
    # hydrostatic sides on either end, mirrored or beside a Dirichlet side
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, n, scheme.n_ghost)
    op = SpatialOperator(grid, scheme, scen.eos, scen.gravity, scen.boundary)
    field = discrete_equilibrium_init(scen, op)
    op.set_initial_state(field.data)
    rhs = op.rhs(field.data)
    assert np.max(np.abs(rhs)) <= 1e-12 * np.max(np.abs(field.data))
    assert op.fallback_cells == 0


@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("hydrostatic-extrapolation", "solid-wall")],
                         ids=["dirichlet", "extrapolation-wall"])
def test_discrete_init_uses_the_runs_eps_w(bc):
    # a run's CWENO regularization reaches the initializer's reconstruction
    # too, so the discrete state is the equilibrium of the run's operator
    scen = make_scenario("isothermal-10x")
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme("dwb", 5)
    result = run(scen, scheme, 128, t_end=0.0, init="discrete", eps_w=1e-2)
    data = result.initial.data
    op = make_operator(scen, result.grid, scheme, eps_w=1e-2)
    op.set_initial_state(data)
    h, = result.grid.spacing
    assert np.max(np.abs(op.rhs(data))) * h <= 1e-13 * np.max(np.abs(data))


def steep_isothermal(k, eos):
    """The isothermal atmosphere rho = p = exp(-k x) on [0, 1], g = -k: a
    pressure contrast of exp(-k) over the domain."""
    rho = lambda x: np.exp(-k * np.asarray(x, dtype=float))
    return dataclasses.replace(
        isothermal_1d("10x"), name=f"isothermal-{k}x", eos=eos,
        gravity=lambda x: -k * np.ones_like(np.asarray(x, dtype=float)),
        potential=lambda x: k * np.asarray(x, dtype=float),
        background=(rho, rho))


# Radiation DWB-S is left out: its anchor is the reconstructed center
# state, not the anchor that matches the cell's energy, so it balances only
# to truncation error (5.6e-6 to 7.4e-6 of the local state at k = 30,
# n = 128, O3; 3.4e-10 at n = 512).
@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("hydrostatic-extrapolation", "solid-wall")],
                         ids=["dirichlet", "extrapolation-wall"])
@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("eos, kind", [(IdealGas(1.4), "dwb"),
                                       (IdealGas(1.4), "dwb-s"),
                                       (IdealGasRadiation(1.4), "dwb")],
                         ids=["ideal-dwb", "ideal-dwb-s", "radiation-dwb"])
@pytest.mark.parametrize("k", [10, 30, 60])
def test_steep_atmosphere_balanced_to_local_state(k, eos, kind, order, n, bc):
    # the discrete equilibrium, anchored at the top interior cell, is a
    # fixed point of the RHS against each cell's own state, down to a
    # pressure contrast of 1e-26: the DWB glue of a stencil sums only its
    # own interfaces, and the Newton anchor stops on a relative step
    scen = steep_isothermal(k, eos)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, n, scheme.n_ghost)
    op = SpatialOperator(grid, scheme, scen.eos, scen.gravity, scen.boundary)
    init = lambda: discrete_equilibrium_init(
        scen, op, anchor_cell=grid.n_ghost + n - 1)
    if (k, n, bc[0]) == (60, 128, "hydrostatic-extrapolation"):
        # the only grids the init rejects: the pressure of the piece it
        # continues over the outer ghosts turns negative in the third ghost
        # above the top (the RHS's own fill fails there too, see below)
        with pytest.raises(InitializationError, match="cell 130"):
            init()
        return
    field = init()
    op.set_initial_state(field.data)
    rhs = op.rhs(field.data)[:, grid.interior]
    state = field.data[:, grid.interior]
    local = np.maximum(np.abs(state[0]), np.abs(state[2]))
    assert np.max(np.abs(rhs) / local) <= 1e-11
    assert op.fallback_cells == 0


@pytest.mark.parametrize("sides, top", [
    (("dirichlet", "hydrostatic-extrapolation"), True),
    (("dirichlet", "solid-wall"), True),
    (("hydrostatic-extrapolation", "dirichlet"), False),
    (("solid-wall", "dirichlet"), False)],
    ids=["top-extrapolation", "top-wall", "bottom-extrapolation",
         "bottom-wall"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("eos, kind", [(IdealGas(1.4), "dwb"),
                                       (IdealGas(1.4), "dwb-s"),
                                       (IdealGasRadiation(1.4), "dwb")],
                         ids=["ideal-dwb", "ideal-dwb-s", "radiation-dwb"])
def test_steep_grids_the_init_rejects_fail_the_fill_too(eos, kind, order,
                                                       sides, top):
    # k = 60, n = 128: the init rejects these grids with hydrostatic sides,
    # and the RHS's own fill fails on them as well.  The top-anchored state
    # balanced with Dirichlet sides, handed to an operator with one
    # hydrostatic side, keeps the extrapolated energies at every fill of
    # the top side; the bottom side fills without a fallback
    scen = steep_isothermal(60, eos)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, 128, scheme.n_ghost)
    dirichlet = SpatialOperator(grid, scheme, scen.eos, scen.gravity,
                                scen.boundary)
    data = discrete_equilibrium_init(
        scen, dirichlet, anchor_cell=grid.n_ghost + 127).data
    op = SpatialOperator(grid, scheme, scen.eos, scen.gravity,
                         BoundarySpec1D(*sides))
    op.set_initial_state(data)
    for _ in range(3):
        op.fill_ghosts(data.copy())
    assert op.fallback_cells == (3 * grid.n_ghost if top else 0)


def test_newton_anchor_relative_to_small_pressure():
    # an anchor far below one converges to the same relative accuracy as
    # one of order one
    eos = IdealGasRadiation(1.4)
    _, weights = gauss_nodes_weights_centered(2, 1.0)
    for scale in (1.0, 1e-8, 1e-20):
        rho = np.full((2, 1), scale)
        offsets = scale * np.array([[-0.3], [0.3]])
        eps_hat = np.mean(eos.internal_energy(rho, scale + offsets), axis=0)
        p0, ok, _ = anchor_pressure_newton(offsets, rho, slice(None), rho[0],
                                           eps_hat, eos, weights)
        assert ok.all()
        assert abs(p0[0] - scale) <= 100 * ANCHOR_TOL * scale


def perturbed_op(eos, kind, order, stressed=False):
    """Periodic `isothermal-perturbed` operator with `eos`, and a state.
    The stressed state puts a block of cells at speed 2 with an internal
    energy of a thousandth of the kinetic one, where the reconstructed
    internal energy goes negative and the gate falls back."""
    scen = make_scenario("isothermal-perturbed", eta=1e-3)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, 64, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    if stressed:
        block = slice(20, 26)
        data[1, block] = 2.0 * data[0, block]
        data[2, block] = 0.5 * data[1, block] ** 2 / data[0, block] * 1.001
    op = SpatialOperator(grid, scheme, eos, scen.gravity, scen.boundary)
    op.set_initial_state(data)
    return op, data


class TestCellMeanPath:
    """The ideal gas's cell-mean energy reconstruction against the node
    path that every other EoS takes (`NodeIdealGas`), in DWB and in the LA
    stage that the 2-D operator shares."""

    @pytest.mark.parametrize("stressed", [False, True],
                             ids=["smooth", "stressed"])
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("kind", ["dwb", "dwb-s", "la", "la-s"])
    def test_matches_node_path(self, kind, order, stressed):
        cell, data = perturbed_op(IdealGas(1.4), kind, order, stressed)
        node, _ = perturbed_op(NodeIdealGas(1.4), kind, order, stressed)
        scale = np.max(np.abs(data)) / cell.grid.spacing[0]
        np.testing.assert_allclose(cell.rhs(data), node.rhs(data), rtol=0,
                                   atol=1e-13 * scale)
        assert cell.fallback_cells == node.fallback_cells
        assert (cell.fallback_cells > 0) == stressed

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("kind", ["dwb", "dwb-s", "la", "la-s"])
    def test_no_energy_eos_call(self, kind, order):
        class SpyIdealGas(IdealGas):
            def _forbidden(self, *args):
                raise AssertionError("EoS energy call in the RHS")

            internal_energy = thermo = deps_dp = _forbidden

        op, data = perturbed_op(SpyIdealGas(1.4), kind, order)
        assert np.all(np.isfinite(op.rhs(data)))


def polytrope_op(eos, kind, scale=None):
    """`polytrope-2d` operator at n = 24 with `eos` (of the scenario's
    gamma), and its initial state; with `scale`, every energy is scaled by
    it with 10% noise, so that the equilibrium pressure of some cells turns
    negative at their nodes and the gate falls back."""
    scen = make_scenario("polytrope-2d")
    scheme = Scheme(kind, 3)
    grid = grid_for(scen, 24, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    if scale is not None:
        rng = np.random.default_rng(3)
        data[3] *= scale * (1.0 + 0.1 * rng.standard_normal(data[3].shape))
    scen.eos = eos
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    return op, data


class TestCellMeanPath2D:
    """The 2-D ideal gas's energy from the gravity-contracted cell means,
    with its positivity gate certified by a bound, against the node path
    that every other EoS takes (`NodeIdealGas`)."""

    @pytest.mark.parametrize("scale", [None, 0.3, 0.1, 0.03],
                             ids=["smooth", "x0.3", "x0.1", "x0.03"])
    @pytest.mark.parametrize("kind", ["la", "la-s"])
    def test_matches_node_path(self, kind, scale):
        cell, data = polytrope_op(IdealGas(2.0), kind, scale)
        node, _ = polytrope_op(NodeIdealGas(2.0), kind, scale)
        scale_h = np.max(np.abs(data)) / min(cell.grid.spacing)
        np.testing.assert_allclose(cell.rhs(data), node.rhs(data), rtol=0,
                                   atol=1e-13 * scale_h)
        assert cell.fallback_cells == node.fallback_cells
        assert (cell.fallback_cells > 0) == (scale is not None)

    @pytest.mark.parametrize("scale", [0.3, 0.1, 0.03])
    def test_bound_leaves_every_failing_cell_uncertain(self, scale):
        op, data = polytrope_op(IdealGas(2.0), "la-s", scale)
        op.fill_ghosts(data)
        rec = op.cweno.coefficients(data).reshape(4, 6, -1)
        rho, stage = rec[0], op._equilibrium
        offsets = stage._line_rows @ stage._terms(rho, ...)
        bound = np.sum(np.abs(rho) * stage._bound, axis=0)
        # the bound is attained where one term dominates; the margin takes
        # the rounding of the node sums
        assert np.all(np.abs(offsets) <= bound * (1.0 + 1e-12))
        # anchors across the bound, and the stressed state's own
        rng = np.random.default_rng(int(100 * scale))
        for p0 in (bound * rng.uniform(0.5, 1.5, bound.shape),
                   anchor_pressure_simplified(rec[:, 0], op.eos)):
            fails = ~np.all(p0 + offsets > 0.0, axis=0)
            unsure = ~(p0 > bound * (1.0 + 1e-12))
            assert np.any(fails & (p0 > 0.0))
            assert np.all(unsure[fails])
            np.testing.assert_array_equal(
                stage._pressure_positive(p0, rho,
                                         np.ones(p0.shape, dtype=bool)),
                ~fails)

    @pytest.mark.parametrize("scale", [0.3, 0.1, 0.03])
    def test_gate_decides_each_cell_from_its_own_data(self, scale):
        # anchors within an ulp of each cell's smallest node offset leave
        # every cell open; over random subsets of them the gate decides
        # each cell as over all of them, so a cell's decision does not
        # depend on which other cells are open
        op, data = polytrope_op(IdealGas(2.0), "la-s", scale)
        op.fill_ghosts(data)
        rho, stage = op.cweno.coefficients(data)[0], op._equilibrium
        rho = rho.reshape(6, -1)
        rng = np.random.default_rng(int(100 * scale))
        p0 = -(stage._line_rows @ stage._terms(rho, ...)).min(axis=0)
        p0 += rng.integers(-1, 2, p0.shape) * np.spacing(p0)
        every = stage._pressure_positive(p0, rho, np.ones(p0.shape, bool))
        assert 0 < np.count_nonzero(every) < every.size
        for fraction in rng.uniform(0.002, 0.9, 20):
            subset = rng.random(p0.shape) < fraction
            np.testing.assert_array_equal(
                stage._pressure_positive(p0, rho, subset.copy())[subset],
                every[subset])

    @pytest.mark.parametrize("kind", ["la", "la-s"])
    def test_no_energy_eos_call(self, kind):
        class SpyIdealGas(IdealGas):
            def internal_energy(self, *args):
                raise AssertionError("EoS energy call in the RHS")

        op, data = polytrope_op(SpyIdealGas(2.0), kind, 0.1)
        assert np.all(np.isfinite(op.rhs(data)))
        assert op.fallback_cells > 0


def full_reconstruction_rhs_1d(op, state):
    """The 1-D right-hand side with every band cell's energy reconstructed
    by the state pass and replaced by the equilibrium where the gate holds
    (`np.where(good, ...)`): the reference of the lean state pass, built
    from `build_profiles` or the LA stage, the product tables' source means
    and the frame's `positivity_fallback` and `flux_divergence`.  Returns
    the RHS, the fallback count and the gate (band cells)."""
    scheme, grid, r = op.scheme, op.grid, op.scheme.radius
    cells = slice(r, grid.shape_tot[0] - r)
    bg = scheme.n_ghost - r     # the band's ghost layers
    data = state.copy()
    op.fill_ghosts(data)
    rec = op.cweno.coefficients(data)               # (C, m, band cells)
    faces = op._face_rows @ rec
    face_l, face_r = faces.transpose(1, 0, 2)
    g = op._g_rows[0]                               # (m_g, band cells)
    e_window = stencil_windows(data[2], (2 * r + 1,))
    if scheme.piecewise_source:
        terms = (rec[0][:, None] * g).reshape(-1, g.shape[-1])
        profiles = build_profiles(scheme, op.eos, op._line_rows @ terms,
                                  op._value_rows @ rec[:2], rec[:, 0],
                                  data[0, cells], data[2, cells], op._mean)
        if op.eos.deps_dp_constant is not None:
            delta, eps_faces, good = profiles
        else:
            *_, eps, good = profiles
            delta, eps_faces = energy_deviations(eps, e_window, op._mean)
        e_faces = hydrostatic_energy_faces(
            eps_faces, op.cweno.reconstruct_stencils(delta),
            op._face_rows)
    else:
        e_faces, good = op._equilibrium(rec, data[0, cells], data[2, cells],
                                        e_window)
    face_l[2] = np.where(good, e_faces[0], face_l[2])
    face_r[2] = np.where(good, e_faces[1], face_r[2])
    count = positivity_fallback(faces, data[:, cells], bg, good)
    # the exact source means: s = sum_ij q_i mean_ij g_j for q = rho, rho u
    la = scheme.well_balanced and not scheme.piecewise_source
    means = product_tables(
        op.cweno.exps, GravityInterp1D(scheme.order, *grid.spacing).exps,
        equilibrium_points(scheme.n_quad, r if la else 0),
        grid.spacing).means.reshape(len(rec[0]), len(g))
    source = np.einsum("dic,ic->dc", rec[:2], means @ g)
    out = np.zeros_like(data)
    out[:, grid.interior] = flux_divergence(
        ((face_l, face_r),), op.flux_fn, op.eos, op.boundary.axes,
        grid.spacing, bg)
    out[1:, grid.interior] += source[:, bg:-bg]
    return out, count, good


def full_reconstruction_rhs_2d(op, state, monkeypatch):
    """`full_reconstruction_rhs_1d` for the 2-D operator on its flux band,
    from the operator's own `_profiles_and_faces` (without the rejected
    cells' energy faces) and `_sources`."""
    data = state.copy()
    op.fill_ghosts(data)
    rec = op.cweno.coefficients(data).reshape(4, 6, -1)    # the band's cells
    faces = op._face_rows @ rec
    equilibrium = faces.copy()
    with monkeypatch.context() as patch:   # the equilibrium energy alone
        patch.setattr(operator1d, "rejected_energy_faces", lambda *args: None)
        good = op._profiles_and_faces(rec, data, equilibrium)
    faces[3] = np.where(good.reshape(-1), equilibrium[3], faces[3])
    count = positivity_fallback(faces.reshape(faces.shape[:2] + op._shape),
                                data[:, 1:-1, 1:-1], 1, good)
    xl, xr, yl, yr = faces.reshape((4, 4, -1) + op._shape).transpose(
        1, 0, 3, 4, 2)
    out = np.zeros_like(data)
    out[interior_index(op.grid)] = flux_divergence(
        ((xl, xr), (yl, yr)), op.flux_fn, op.eos, op.boundary.axes,
        op.grid.spacing, 1, op._face_w) + op._sources(rec)[:, 1:-1, 1:-1]
    return out, count, good


def rejected_in_band(good, n_ghost):
    band = tuple(slice(n_ghost - 1, n + 1 - n_ghost) for n in good.shape)
    return int(np.count_nonzero(~good[band]))


class TestLeanStatePass:
    """DWB and LA reconstruct only density and momentum in the state pass,
    and the standard energy only for the band cells the gate rejects: the
    right-hand side is bit for bit that of a full reconstruction."""

    @pytest.mark.parametrize("eos", [IdealGas(1.4), NodeIdealGas(1.4)],
                             ids=["cell-means", "nodes"])
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("kind", ["dwb", "la", "dwb-s"])
    def test_1d_matches_full_reconstruction(self, kind, order, eos):
        op, data = perturbed_op(eos, kind, order, stressed=True)
        expected, count, good = full_reconstruction_rhs_1d(op, data)
        assert rejected_in_band(good, op.scheme.n_ghost - op.scheme.radius) > 0
        assert np.array_equal(op.rhs(data), expected)
        assert op.fallback_cells == count

    @pytest.mark.parametrize("scale", [0.3, 0.1, 0.03])
    @pytest.mark.parametrize("kind", ["la", "la-s"])
    def test_2d_matches_full_reconstruction(self, kind, scale, monkeypatch):
        op, data = polytrope_op(IdealGas(2.0), kind, scale)
        expected, count, good = full_reconstruction_rhs_2d(op, data,
                                                           monkeypatch)
        assert rejected_in_band(good, 1) > 0   # `good` covers the band
        assert np.array_equal(op.rhs(data), expected)
        assert op.fallback_cells == count

    @staticmethod
    def _state_pass_components(op, data, comp_axis, rejects=False):
        """Component counts of the windows of every CWENO call of one RHS."""
        seen, raw = [], op.cweno.reconstruct_stencils
        op.cweno.reconstruct_stencils = lambda window, axis=0: \
            seen.append(np.shape(window)) or raw(window, axis)
        op.rhs(data)
        assert (op.fallback_cells > 0) == rejects
        # the state pass comes first: windows (stencil..., C, cells...)
        return seen[0][comp_axis], len(seen)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_simplified_anchor_reconstructs_energy_once(self, dim):
        # the -S state pass reconstructs the energy of every cell, so the
        # cells the gate rejects keep those faces: two CWENO calls, as
        # without rejections
        op, data = perturbed_op(IdealGas(1.4), "dwb-s", 5, stressed=True) \
            if dim == 1 else polytrope_op(IdealGas(2.0), "la-s", 0.1)
        assert self._state_pass_components(op, data, dim, rejects=True) \
            == (dim + 2, 2)

    @pytest.mark.parametrize("kind, comps", [
        ("dwb", 2), ("la", 2), ("dwb-s", 3), ("la-s", 3), ("standard", 3)])
    def test_1d_state_pass_components(self, kind, comps):
        op, data = perturbed_op(IdealGas(1.4), kind, 5)
        # every band cell is good: the state pass, then the deviations'
        # pass of the well-balanced schemes, and no energy pass
        assert self._state_pass_components(op, data, 1) == \
            (comps, 1 if kind == "standard" else 2)

    @pytest.mark.parametrize("kind, comps", [
        ("la", 3), ("la-s", 4), ("standard", 4)])
    def test_2d_state_pass_components(self, kind, comps):
        op, data = polytrope_op(IdealGas(2.0), kind)
        assert self._state_pass_components(op, data, 2) == \
            (comps, 1 if kind == "standard" else 2)


def own_node_anchor(offset_nodes, rho_nodes, rho_hat, eps_hat, eos, weights):
    """The Newton anchor that inverts a cell's own nodes alone, in every
    iteration: the reference of `anchor_pressure_newton`."""
    safe = (rho_hat > 0.0) & (eps_hat > 0.0)
    target = np.where(safe, eps_hat, 1.0)
    p = eos.pressure(np.where(safe, rho_hat, 1.0), target)
    rho_nodes = np.maximum(rho_nodes, 1e-300)
    converged = np.zeros(p.shape, dtype=bool)
    for _ in range(wellbalance.ANCHOR_MAX_ITER):
        p_nodes = p + offset_nodes
        ok_nodes = np.all(p_nodes > 0.0, axis=0) & (p > 0.0)
        p_nodes = np.where(p_nodes > 0.0, p_nodes, 1.0)
        eps_nodes, deps_nodes = eos.thermo(rho_nodes, p_nodes,
                                           "internal_energy", "deps_dp")
        step = (target - weights @ eps_nodes) / -(weights @ deps_nodes)
        converged |= ok_nodes & (np.abs(step) < ANCHOR_TOL * np.abs(p))
        p_next = np.where(converged, p, p - step)
        p = np.where(p_next <= 0.0, 0.5 * p, p_next)
        if np.all(converged):
            break
    return p, converged & safe & (p > 0.0)


def two_pass_anchor(node_rejects):
    """`anchor_pressure_newton` in two passes: `own_node_anchor`, then a
    separate EoS call over the whole node set.  Appends to `node_rejects`
    the number of cells whose anchor converged but whose pressure or
    density is not positive at some other node."""
    def anchor(c_rows, rho_rows, own, rho_hat, eps_hat, eos, weights):
        p0, ok = own_node_anchor(c_rows[own], rho_rows[own], rho_hat, eps_hat,
                                 eos, weights)
        p = np.where(ok, p0, 1.0) + c_rows
        positive = np.all((p > 0.0) & (rho_rows > 0.0), axis=0)
        node_rejects.append(int(np.count_nonzero(ok & ~positive)))
        eps = eos.internal_energy(np.where(rho_rows > 0.0, rho_rows, 1.0),
                                  np.where(p > 0.0, p, 1.0))
        return p0, ok & positive, eps
    return anchor


def radiation_op(kind, order, stress=None, bc=None):
    """`perturbed_op` with the radiation EoS, or with `bc` the
    `polytropic-radiation` operator at n = 64 on those sides.  `stress`
    "block" is `perturbed_op`'s stressed block, whose anchors fail; a
    number scales every energy by it with 10% noise, so that the pressure
    at some nodes of converged anchors turns negative."""
    if bc is None:
        op, data = perturbed_op(IdealGasRadiation(1.4), kind, order,
                                stress == "block")
    else:
        scen = make_scenario("polytropic-radiation")
        scen.boundary = BoundarySpec1D(*bc)
        scheme = Scheme(kind, order)
        grid = grid_for(scen, 64, scheme.n_ghost)
        data = init_cell_averages(scen, grid).data
        op = make_operator(scen, grid, scheme)
    if stress not in (None, "block"):
        rng = np.random.default_rng(5)
        data[-1] *= stress * (1.0 + 0.1 * rng.standard_normal(data[-1].shape))
    op.set_initial_state(data)
    return op, data


class TestWholeNodeSetAnchor:
    """The radiation anchor, whose last iteration inverts the whole node
    set, against the two passes it replaces (`two_pass_anchor`)."""

    @staticmethod
    def _two_pass(make, monkeypatch):
        """An operator from `make` whose every anchor caller runs the two
        passes, and the cells they rejected at a node other than their own."""
        node_rejects = []
        for module in (wellbalance, operator1d):
            monkeypatch.setattr(module, "anchor_pressure_newton",
                                two_pass_anchor(node_rejects))
        return make()[0], node_rejects

    def _rhs_against_two_pass(self, make, monkeypatch):
        op, data = make()
        rhs = op.rhs(data)
        ref, node_rejects = self._two_pass(make, monkeypatch)
        scale = np.max(np.abs(data)) / min(op.grid.spacing)
        np.testing.assert_allclose(rhs, ref.rhs(data), rtol=0,
                                   atol=1e-13 * scale)
        assert op.fallback_cells == ref.fallback_cells
        return op.fallback_cells, sum(node_rejects)

    @pytest.mark.parametrize("stress", [None, "block", 0.1, 0.03])
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("kind", ["dwb", "la"])
    def test_1d_rhs(self, kind, order, stress, monkeypatch):
        fallbacks, node_rejects = self._rhs_against_two_pass(
            lambda: radiation_op(kind, order, stress), monkeypatch)
        assert (fallbacks > 0) == (stress is not None)
        assert (node_rejects > 0) == (stress in (0.1, 0.03))

    @pytest.mark.parametrize("scale", [None, 0.3, 0.03],
                             ids=["smooth", "x0.3", "x0.03"])
    def test_2d_rhs(self, scale, monkeypatch):
        fallbacks, node_rejects = self._rhs_against_two_pass(
            lambda: polytrope_op(IdealGasRadiation(2.0), "la", scale),
            monkeypatch)
        assert (fallbacks > 0) == (node_rejects > 0) == (scale is not None)

    @pytest.mark.parametrize("stress", [None, 0.03])
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("kind", ["dwb", "la"])
    def test_hydrostatic_fill(self, kind, order, stress, monkeypatch):
        # the ghost energies of both sides, and the RHS around them
        bc = ("hydrostatic-extrapolation", "solid-wall")
        make = lambda: radiation_op(kind, order, stress, bc)
        op, data = make()
        filled = data.copy()
        op.fill_ghosts(filled)
        ref, _ = self._two_pass(make, monkeypatch)
        expected = data.copy()
        ref.fill_ghosts(expected)
        np.testing.assert_allclose(filled, expected, rtol=0,
                                   atol=1e-13 * np.max(np.abs(data)))
        assert op.fallback_cells == ref.fallback_cells
        assert (op.fallback_cells > 0) == (stress is not None)
        monkeypatch.undo()
        self._rhs_against_two_pass(make, monkeypatch)
