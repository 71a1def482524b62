import numpy as np
import pytest

from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.errors import ConfigurationError, FluxEvaluationError
from hydrobal.physics import (
    _split_pair,
    contact_property_check,
    get_flux,
    hllc_flux,
    physical_flux,
    physical_state,
    roe_flux,
    rusanov_flux,
    split_conserved,
    wall_boundary_flux,
)
from hydrobal.boundary import BoundarySpec1D, BoundarySpec2D
from hydrobal.grid import Grid
from hydrobal.operator1d import SpatialOperator1D
from hydrobal.operator2d import SpatialOperator2D
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import MONOMIALS_DEG2
from hydrobal.scheme import Scheme


def conserved(rho, u, p, eos):
    return np.stack(np.broadcast_arrays(
        rho, np.asarray(rho) * u, eos.internal_energy(rho, p) + 0.5 * np.asarray(rho) * u ** 2))


def random_states(rng, n, eos):
    rho = 10.0 ** rng.uniform(-1, 1, n)
    u = rng.uniform(-2, 2, n)
    p = 10.0 ** rng.uniform(-1, 1, n)
    return conserved(rho, u, p, eos)


@pytest.mark.parametrize("flux_fn", [roe_flux, hllc_flux, rusanov_flux])
@pytest.mark.parametrize("eos", [IdealGas(1.4), IdealGasRadiation(1.4)])
def test_consistency(flux_fn, eos):
    rng = np.random.default_rng(1)
    q = random_states(rng, 50, eos)
    rho, vel, p = split_conserved(q, eos)
    np.testing.assert_allclose(flux_fn(q, q, eos), physical_flux(q, p),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("normal", [1, 2])
@pytest.mark.parametrize("eos, tol", [(IdealGas(1.4), 0.0),
                                      (IdealGasRadiation(1.4), 1e-13)],
                         ids=["ideal", "radiation"])
def test_split_pair_matches_separate_splits(eos, tol, normal):
    # the fluxes split both sides in one call: exactly the separate splits
    # for the ideal gas, and within 1e-13 for the radiation inversion
    rng = np.random.default_rng(4)

    def states_2d():
        q = random_states(rng, 33, eos)
        transverse = q[0] * rng.uniform(-1, 1, 33)
        q[-1] += 0.5 * transverse ** 2 / q[0]
        return np.insert(q, 2, transverse, axis=0)

    q_l, q_r = states_2d(), states_2d()
    for got, side in zip(_split_pair(q_l, q_r, eos, normal), (q_l, q_r)):
        rho, vel, p = split_conserved(side, eos, normal)
        for a, b in zip((got[0], *got[1], got[2]), (rho, *vel, p)):
            np.testing.assert_allclose(a, b, rtol=tol, atol=0.0)


@pytest.mark.parametrize("flux_fn", [roe_flux, hllc_flux])
def test_contact_example(flux_fn):
    eos = IdealGas(1.4)
    q_l = conserved(1.0, 0.0, 1.0, eos)
    q_r = conserved(2.0, 0.0, 1.0, eos)
    np.testing.assert_allclose(flux_fn(q_l, q_r, eos), [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("flux_name,flux_fn", [("roe", roe_flux), ("hllc", hllc_flux)])
@pytest.mark.parametrize("eos", [IdealGas(1.4), IdealGasRadiation(1.4)])
def test_contact_property_randomized(flux_name, flux_fn, eos):
    report = contact_property_check(flux_fn, eos, trials=1000, seed=7)
    assert report["ok"], report


def test_rusanov_fails_contact():
    report = contact_property_check(rusanov_flux, IdealGas(1.4), trials=200, seed=3)
    assert not report["ok"]
    # dissipation acts on the density jump -> nonzero mass flux
    eos = IdealGas(1.4)
    f = rusanov_flux(conserved(1.0, 0.0, 1.0, eos), conserved(2.0, 0.0, 1.0, eos), eos)
    assert abs(f[0]) > 1e-3


@pytest.mark.parametrize("flux_fn", [roe_flux, hllc_flux, rusanov_flux])
def test_reflection_symmetry(flux_fn):
    # F(L, R) equals the mirrored flux of the reflected pair with negated momentum
    eos = IdealGas(1.4)
    rng = np.random.default_rng(5)
    q_l = random_states(rng, 40, eos)
    q_r = random_states(rng, 40, eos)
    forward = flux_fn(q_l, q_r, eos)
    mirror = lambda q: np.stack([q[0], -q[1], q[2]])
    backward = flux_fn(mirror(q_r), mirror(q_l), eos)
    np.testing.assert_allclose(forward[0], -backward[0], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(forward[1], backward[1], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(forward[2], -backward[2], rtol=1e-12, atol=1e-13)


def test_nonphysical_input_raises():
    eos = IdealGas(1.4)
    good = conserved(1.0, 0.0, 1.0, eos)
    bad = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(FluxEvaluationError):
        roe_flux(bad, good, eos)


def test_unknown_flux_rejected_at_scheme_construction():
    with pytest.raises(ConfigurationError, match="'bogus'"):
        get_flux("bogus")
    with pytest.raises(ConfigurationError, match="'bogus'"):
        Scheme("dwb", 3, "bogus")


def test_wall_flux_at_rest_is_pure_pressure():
    eos = IdealGas(1.4)
    q = conserved(1.3, 0.0, 0.7, eos)
    for side in ("left", "right"):
        f = wall_boundary_flux(q, eos, roe_flux, side)
        np.testing.assert_allclose(f, [0.0, 0.7, 0.0], atol=1e-15)


def test_wall_flux_zero_mass_flux_random_states():
    eos = IdealGas(1.4)
    rng = np.random.default_rng(11)
    q = random_states(rng, 60, eos)
    for side in ("left", "right"):
        f = wall_boundary_flux(q, eos, roe_flux, side)
        np.testing.assert_allclose(f[0], 0.0, atol=1e-14)
        np.testing.assert_allclose(f[2], 0.0, atol=1e-14)


def test_roe_2d_contact_and_consistency():
    eos = IdealGas(1.4)
    rho_l, rho_r, p = 1.0, 3.0, 0.8
    make = lambda rho: np.array([rho, 0.0, 0.0, eos.internal_energy(rho, p)])
    f = roe_flux(make(rho_l), make(rho_r), eos)
    np.testing.assert_allclose(f, [0.0, p, 0.0, 0.0], atol=1e-15)
    q = np.array([1.2, 0.3, -0.4, 3.0])
    rho, vel, pr = split_conserved(q, eos)
    np.testing.assert_allclose(roe_flux(q, q, eos), physical_flux(q, pr), atol=1e-14)


def uniform_rhs_1d(rho, u, g):
    """1-D RHS of a uniform periodic state: the cell-averaged source."""
    grid = Grid((0.0, 1.0), (16,), 2)
    op = SpatialOperator1D(grid, Scheme("standard", 3), IdealGas(1.4),
                           lambda x: g * np.ones_like(x), BoundarySpec1D())
    data = np.empty((3, grid.shape_tot[0]))
    data[:] = np.array([rho, rho * u, 2.5 + 0.5 * rho * u ** 2])[:, None]
    return op.rhs(data)[:, grid.interior]


def sources_2d(rec, gravity, hx=0.1, hy=0.1):
    """Exact 2-D source means of per-cell reconstructions `rec` (4, 6)."""
    grid = Grid((0.0, 6 * hx, 0.0, 6 * hy), (6, 6), 2)
    op = SpatialOperator2D(grid, Scheme("la", 3), IdealGas(1.4),
                           lambda x, y: gravity(x + 0 * y, y + 0 * x),
                           BoundarySpec2D(*["periodic"] * 4))
    rec = np.broadcast_to(np.asarray(rec, dtype=float)[:, :, None],
                          (4, 6, np.prod(grid.shape_tot)))   # cells last
    return op._sources(rec)[:, 4, 4], op


class TestSourceAverages:
    def test_uniform_state(self):
        # rho=1, u=0, g=-1 over any cell
        s = uniform_rhs_1d(1.0, 0.0, -1.0)
        np.testing.assert_allclose(s, [[0.0], [-1.0], [0.0]] * np.ones(16),
                                   atol=1e-14)

    def test_constant_velocity(self):
        s = uniform_rhs_1d(1.0, 0.7, -1.0)
        np.testing.assert_allclose(s[2], -0.7, rtol=1e-14)

    def test_isothermal_profile_order(self):
        # rho = exp(-sin(2 pi x)), g = -2 pi cos(2 pi x): then rho*g is the
        # derivative of exp(-sin(2 pi x)), so the exact cell-averaged source
        # is a difference of that antiderivative at the cell edges.  At rest
        # with uniform pressure every face carries a contact, the Roe flux
        # is (0, p, 0) on both sides of a cell, and the momentum RHS is the
        # source alone.
        errors = []
        for n in (32, 64, 128):
            grid = Grid((0.0, 1.0), (n,), 2)
            op = SpatialOperator1D(
                grid, Scheme("standard", 3), IdealGas(1.4),
                lambda x: -2 * np.pi * np.cos(2 * np.pi * x), BoundarySpec1D())
            (h,), (n_tot,) = grid.spacing, grid.shape_tot
            edges = grid.domain[0] + h * (np.arange(n_tot + 1) - grid.n_ghost)
            nodes, weights = np.polynomial.legendre.leggauss(10)
            xq = edges[:-1, None] + 0.5 * h * (nodes[None, :] + 1.0)
            data = np.zeros((3, grid.shape_tot[0]))
            data[0] = 0.5 * np.sum(weights * np.exp(-np.sin(2 * np.pi * xq)),
                                   axis=1)
            data[2] = 2.5
            s = op.rhs(data)[1, grid.interior]
            exact = np.diff(np.exp(-np.sin(2 * np.pi * edges))) / h
            errors.append(np.max(np.abs(s - exact[grid.interior])))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.5

    def test_2d_uniform(self):
        rec = np.zeros((4, 6))
        rec[0, 0] = 2.0
        rec[2, 0] = 0.6
        s, _ = sources_2d(rec, lambda x, y: (0.0 * x, -1.0 + 0.0 * y))
        np.testing.assert_allclose(s, [0.0, 0.0, -2.0, -0.6])

    def test_2d_zero_gravity(self):
        rng = np.random.default_rng(2)
        rec = rng.standard_normal((4, 6))
        s, _ = sources_2d(rec, lambda x, y: (0.0 * x, 0.0 * y), 0.1, 0.2)
        np.testing.assert_allclose(s, 0.0, atol=1e-15)

    def test_2d_product_mean_matches_quadrature(self):
        # the exact means of rho g and (rho u) . g equal a tensor Gauss rule
        # applied to the pointwise products of the reconstructions and the
        # biquadratic gravity interpolants (degree <= 4 per axis: exact)
        rng = np.random.default_rng(3)
        rec = rng.standard_normal((4, 6))
        hx, hy = 0.1, 0.2
        gravity = lambda x, y: (np.sin(3 * x + y), np.cos(x * y))
        s, op = sources_2d(rec, gravity, hx, hy)
        nx, wx = gauss_nodes_weights_centered(5, hx)
        ny, wy = gauss_nodes_weights_centered(5, hy)
        xi, eta = np.meshgrid(nx, ny, indexing="ij")

        def value(coeffs, exps):
            return sum(c * xi ** a * eta ** b
                       for c, (a, b) in zip(coeffs, exps))

        def mean(f):
            return np.einsum("ij,i,j->", f, wx, wy) / (hx * hy)

        cell = np.ravel_multi_index((4, 4), op.grid.shape_tot)
        gx, gy = (value(g[:, cell], op._exps_g) for g in op._g_rows)
        rho, mx, my = (value(rec[c], MONOMIALS_DEG2) for c in range(3))
        expected = [0.0, mean(rho * gx), mean(rho * gy),
                    mean(mx * gx + my * gy)]
        np.testing.assert_allclose(s, expected, rtol=1e-12, atol=1e-14)


class TestPositivityFallback:
    """A near-vacuum cell inside the used band: every cell whose
    reconstructed face states are non-physical drops to its average, is
    counted once, and the RHS stays finite."""

    @staticmethod
    def _probe(scenario, n):
        from hydrobal.cases import grid_for, init_cell_averages, make_scenario
        from hydrobal.runner import make_operator

        scen = make_scenario(scenario)
        scheme = Scheme("standard", 3)
        grid = grid_for(scen, n, scheme.n_ghost)
        data = init_cell_averages(scen, grid).data
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(data)
        calls = []
        raw_flux = op.flux_fn

        def recording_flux(q_l, q_r, eos, **kw):
            out = raw_flux(q_l, q_r, eos, **kw)
            calls.append((q_l, q_r, kw, out))
            return out

        op.flux_fn = recording_flux
        return scen, grid, data, op, calls

    @staticmethod
    def _assert_cell_fluxes(flux_call, raw_flux, eos, avg, right, left):
        # the cell's average is the left state of its right face and the
        # right state of its left face; each flux is the flux function of
        # that pair
        q_l, q_r, kw, out = flux_call
        for face, own, other in ((right, q_l, q_r), (left, q_r, q_l)):
            np.testing.assert_array_equal(own[face], np.broadcast_to(
                avg.reshape(avg.shape + (1,) * (own[face].ndim - 1)),
                own[face].shape))
            pair = (own[face], other[face]) if own is q_l \
                else (other[face], own[face])
            np.testing.assert_array_equal(
                out[face], raw_flux(*pair, eos, **kw))

    def test_1d(self):
        from hydrobal.poly import poly_eval

        scen, grid, data, op, calls = self._probe("isothermal-10x", 32)
        ng, n, h = grid.n_ghost, grid.cells[0], grid.spacing[0]
        i = ng + 12
        data[:, i] = [1e-10, 0.0, 1e-10]
        filled = data.copy()
        op.fill_ghosts(filled)
        rec = np.swapaxes(op.cweno.coefficients(filled), -1, -2)
        physical = physical_state(poly_eval(rec, -0.5 * h))[1] \
            & physical_state(poly_eval(rec, 0.5 * h))[1]
        flagged = ~physical[ng - 1:ng + n + 1]
        assert flagged[i - ng + 1]

        out = op.rhs(data)
        assert np.all(np.isfinite(out))
        assert op.fallback_cells == int(np.sum(flagged))
        (call,) = calls
        raw = get_flux(Scheme("standard", 3).flux)
        k = i - ng
        self._assert_cell_fluxes(call, raw, scen.eos, data[:, i],
                                 (slice(None), k + 1), (slice(None), k))

    def test_2d(self):
        scen, grid, data, op, calls = self._probe("polytrope-2d", 12)
        g, hx, hy = grid.n_ghost, grid.spacing[0], grid.spacing[1]
        i, j = g + 5, g + 7
        data[:, i, j] = [1e-10, 0.0, 0.0, 1e-10]
        filled = data.copy()
        op.fill_ghosts(filled)
        rec = op.cweno.coefficients(filled)
        nodes_x, _ = gauss_nodes_weights_centered(2, hx)
        nodes_y, _ = gauss_nodes_weights_centered(2, hy)
        physical = np.ones(grid.shape_tot, dtype=bool)
        for x, y in ((-0.5 * hx, nodes_y), (0.5 * hx, nodes_y),
                     (nodes_x, -0.5 * hy), (nodes_x, 0.5 * hy)):
            x, y = np.broadcast_arrays(x, y)
            face = sum(rec[:, k, ..., None] * x ** a * y ** b
                       for k, (a, b) in enumerate(MONOMIALS_DEG2))
            physical &= np.all(physical_state(face)[1], axis=-1)
        band = tuple(slice(g - 1, g + n + 1) for n in grid.cells)
        flagged = ~physical[band]
        assert flagged[i - g + 1, j - g + 1]

        out = op.rhs(data)
        assert np.all(np.isfinite(out))
        assert op.fallback_cells == int(np.sum(flagged))
        x_call, y_call = calls
        raw = get_flux(Scheme("standard", 3).flux)
        a, b = i - g, j - g
        self._assert_cell_fluxes(x_call, raw, scen.eos, data[:, i, j],
                                 (slice(None), a + 1, b), (slice(None), a, b))
        self._assert_cell_fluxes(y_call, raw, scen.eos, data[:, i, j],
                                 (slice(None), a, b + 1), (slice(None), a, b))
