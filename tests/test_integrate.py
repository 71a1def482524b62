import numpy as np
import pytest

from hydrobal.boundary import BoundarySpec1D
from hydrobal.cases import Scenario, init_cell_averages, grid_for
from hydrobal.eos import IdealGas
from hydrobal.errors import ConfigurationError, StepFailure
from hydrobal.integrate import (
    FORWARD_EULER,
    RK5,
    SSPRK43,
    StepController,
    advance,
    cfl_dt,
    damp_momentum,
    rk_step,
    tableau_for_order,
)
from hydrobal.operator1d import SpatialOperator1D
from hydrobal.runner import make_operator, run
from hydrobal.scheme import Scheme


def scalar_order(tableau, lam=-1.0):
    errs = []
    for n in (32, 64):
        y = np.array([1.0])
        dt = 1.0 / n
        for _ in range(n):
            y = rk_step(y, dt, lambda v: lam * v, tableau)
        errs.append(abs(float(y[0]) - np.exp(lam)))
    return float(np.log2(errs[0] / errs[1]))


class TestTableaus:
    def test_consistency(self):
        for tab in (FORWARD_EULER, SSPRK43, RK5):
            assert sum(tab.b) == pytest.approx(1.0)
            for row, c in zip(tab.a, tab.c):
                assert sum(row) == pytest.approx(c, abs=1e-15)

    def test_zero_rhs_identity(self):
        y = np.array([2.0, -1.0])
        out = rk_step(y, 0.1, lambda v: 0.0 * v, SSPRK43)
        np.testing.assert_allclose(out, y)

    @pytest.mark.parametrize("tableau,order", [(SSPRK43, 3), (RK5, 5)])
    def test_measured_order(self, tableau, order):
        assert scalar_order(tableau) == pytest.approx(order, abs=0.15)

    def test_ssprk43_stability_polynomial(self):
        # one step on y' = z*y reproduces the cubic Taylor polynomial of exp
        # exactly; the four-stage scheme adds z^4/48 (not 1/24)
        z = 0.37
        y = rk_step(np.array([1.0]), 1.0, lambda v: z * v, SSPRK43)
        cubic = 1 + z + z ** 2 / 2 + z ** 3 / 6
        assert y[0] - cubic == pytest.approx(z ** 4 / 48, rel=1e-12)

    def test_tableau_for_order(self):
        assert tableau_for_order(1) is FORWARD_EULER
        assert tableau_for_order(3) is SSPRK43
        assert tableau_for_order(5) is RK5


class TestDamping:
    def test_zero_rate_identity(self):
        data = np.ones((3, 10))
        damp_momentum(data, 0.0, 1.0)
        np.testing.assert_allclose(data, 1.0)

    def test_exact_exponential(self):
        data = np.ones((3, 4))
        damp_momentum(data, 0.2, 1.0)
        np.testing.assert_allclose(data[1], np.exp(-0.2))
        np.testing.assert_allclose(data[0], 1.0)
        np.testing.assert_allclose(data[2], 1.0)

    def test_negative_rate_rejected(self):
        # checked once per run, before the first step
        with pytest.raises(ConfigurationError, match="damping"):
            run(uniform_scenario(), Scheme("standard", 3), 8, damping=-0.1)


def uniform_scenario(gravity=0.0):
    g = float(gravity)
    return Scenario(
        name="uniform", domain=(0.0, 1.0), eos=IdealGas(1.4),
        boundary=BoundarySpec1D("periodic", "periodic"), t_end=1.0,
        gravity=lambda x: g * np.ones_like(np.asarray(x, dtype=float)),
        potential=lambda x: -g * np.asarray(x, dtype=float),
        initial=lambda x: (np.ones_like(np.asarray(x, dtype=float)),
                           np.zeros_like(np.asarray(x, dtype=float)),
                           np.ones_like(np.asarray(x, dtype=float))),
        background=None)


class TestCfl:
    def test_single_state_formula(self):
        scen = uniform_scenario()
        grid = grid_for(scen, 100, 2)
        field = init_cell_averages(scen, grid)
        op = make_operator(scen, grid, Scheme("standard", 3))
        dt = cfl_dt(op, field.data, 0.5)
        assert dt == pytest.approx(0.5 * 0.01 / np.sqrt(1.4), rel=1e-12)
        assert dt == pytest.approx(0.0042258, abs=1e-6)

    def test_doubling_resolution_halves_dt(self):
        scen = uniform_scenario()
        dts = []
        for n in (100, 200):
            grid = grid_for(scen, n, 2)
            field = init_cell_averages(scen, grid)
            op = make_operator(scen, grid, Scheme("standard", 3))
            dts.append(cfl_dt(op, field.data, 0.5))
        assert dts[0] == pytest.approx(2 * dts[1], rel=1e-12)

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(8)
        scen = uniform_scenario()
        grid = grid_for(scen, 64, 2)
        eos = scen.eos
        rho = 0.5 + rng.random(grid.shape_tot[0])
        u = rng.standard_normal(grid.shape_tot[0])
        p = 0.5 + rng.random(grid.shape_tot[0])
        data = np.stack([rho, rho * u, eos.internal_energy(rho, p)
                         + 0.5 * rho * u ** 2])
        op = make_operator(scen, grid, Scheme("standard", 3))
        dt = cfl_dt(op, data, 0.4)
        inner = grid.interior
        brute = np.min(0.4 * grid.spacing[0] / (np.abs(u[inner])
                                        + eos.sound_speed(rho[inner], p[inner])))
        assert dt == pytest.approx(brute, rel=1e-12)

    def test_invalid_cfl_rejected(self):
        with pytest.raises(ConfigurationError):
            StepController(cfl=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            StepController(cfl=1.5, t_end=1.0)


class TestConservation:
    def test_periodic_no_gravity_conserves(self):
        # smooth random field, 100 steps: totals conserved to roundoff
        rng = np.random.default_rng(11)
        scen = uniform_scenario(gravity=0.0)
        grid = grid_for(scen, 64, 2)
        x = grid.centers()
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(4 * np.pi * x)
        u = 0.2 * np.sin(2 * np.pi * x + 1.0)
        p = 1.0 + 0.2 * np.cos(2 * np.pi * x)
        data = np.stack([rho, rho * u,
                         scen.eos.internal_energy(rho, p) + 0.5 * rho * u ** 2])
        op = make_operator(scen, grid, Scheme("standard", 3))
        op.set_initial_state(data)
        before = data[:, grid.interior].sum(axis=1)
        state = data.copy()
        from hydrobal.integrate import rk_step as step
        dt = cfl_dt(op, state, 0.5)
        for _ in range(100):
            state = step(state, dt, op.rhs, SSPRK43)
        after = state[:, grid.interior].sum(axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-13)

    def test_mass_conserved_with_gravity_and_wb(self):
        from hydrobal.cases import isothermal_1d
        scen = isothermal_1d("sin")
        result = run(scen, Scheme("la", 3), 64, t_end=0.3)
        before = result.initial.interior()[0].sum()
        after = result.final.interior()[0].sum()
        assert after == pytest.approx(before, rel=1e-12)


class TestRhsLinearity:
    def test_flux_and_source_scaling(self):
        # scaling the flux function and the gravity interpolants by the same
        # factor scales the standard-scheme RHS by that factor
        from hydrobal.cases import isothermal_1d
        scen = isothermal_1d("10x")
        grid = grid_for(scen, 32, 2)
        field = init_cell_averages(scen, grid)
        op = make_operator(scen, grid, Scheme("standard", 3))
        op.set_initial_state(field.data)
        base = op.rhs(field.data)
        lam = 2.5
        raw_flux = op.flux_fn
        op.flux_fn = lambda ql, qr, eos, **kw: lam * raw_flux(ql, qr, eos, **kw)
        op.g_coeffs = lam * op.g_coeffs
        scaled = op.rhs(field.data)
        np.testing.assert_allclose(scaled, lam * base, rtol=1e-12, atol=1e-13)


class TestFailureDetection:
    def test_step_failure_on_blowup(self):
        scen = uniform_scenario()
        grid = grid_for(scen, 32, 2)
        field = init_cell_averages(scen, grid)
        # poison one cell with negative energy mid-run via a hostile RHS
        op = make_operator(scen, grid, Scheme("standard", 3))
        op.set_initial_state(field.data)
        real = op.rhs

        def hostile(state):
            out = real(state)
            out[2, grid.n_ghost + 3] -= 1e6
            return out

        op.rhs = hostile
        with pytest.raises(StepFailure):
            advance(op, field.data.copy(), StepController(cfl=0.5, t_end=0.5))


class TestSodAgainstExactRiemann:
    """Gravity-free Sod-like shock tube vs an exact Riemann-solver oracle."""

    @staticmethod
    def exact_riemann(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma, xi):
        """Sample the exact self-similar solution at xi = x/t."""
        c_l = np.sqrt(gamma * p_l / rho_l)
        c_r = np.sqrt(gamma * p_r / rho_r)
        gm1, gp1 = gamma - 1.0, gamma + 1.0

        def f_branch(p, rho_k, p_k, c_k):
            if p > p_k:  # shock
                a = 2.0 / (gp1 * rho_k)
                b = gm1 / gp1 * p_k
                return (p - p_k) * np.sqrt(a / (p + b))
            return 2.0 * c_k / gm1 * ((p / p_k) ** (gm1 / (2 * gamma)) - 1.0)

        def f(p):
            return f_branch(p, rho_l, p_l, c_l) + f_branch(p, rho_r, p_r, c_r) \
                + (u_r - u_l)

        lo, hi = 1e-12, 10.0 * max(p_l, p_r)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        p_star = 0.5 * (lo + hi)
        u_star = 0.5 * (u_l + u_r) + 0.5 * (f_branch(p_star, rho_r, p_r, c_r)
                                            - f_branch(p_star, rho_l, p_l, c_l))

        def sample(xi):
            if xi < u_star:  # left of contact
                if p_star > p_l:  # left shock
                    rho_sl = rho_l * ((p_star / p_l + gm1 / gp1)
                                      / (gm1 / gp1 * p_star / p_l + 1.0))
                    s = u_l - c_l * np.sqrt((gp1 * p_star / p_l + gm1) / (2 * gamma))
                    return (rho_l, u_l, p_l) if xi < s else (rho_sl, u_star, p_star)
                c_star = c_l * (p_star / p_l) ** (gm1 / (2 * gamma))
                if xi < u_l - c_l:
                    return rho_l, u_l, p_l
                if xi > u_star - c_star:
                    rho_sl = rho_l * (p_star / p_l) ** (1 / gamma)
                    return rho_sl, u_star, p_star
                u = 2.0 / gp1 * (c_l + gm1 / 2 * u_l + xi)
                c = c_l - gm1 / 2 * (u - u_l)
                rho = rho_l * (c / c_l) ** (2 / gm1)
                return rho, u, p_l * (c / c_l) ** (2 * gamma / gm1)
            if p_star > p_r:  # right shock
                rho_sr = rho_r * ((p_star / p_r + gm1 / gp1)
                                  / (gm1 / gp1 * p_star / p_r + 1.0))
                s = u_r + c_r * np.sqrt((gp1 * p_star / p_r + gm1) / (2 * gamma))
                return (rho_r, u_r, p_r) if xi > s else (rho_sr, u_star, p_star)
            c_star = c_r * (p_star / p_r) ** (gm1 / (2 * gamma))
            if xi > u_r + c_r:
                return rho_r, u_r, p_r
            if xi < u_star + c_star:
                rho_sr = rho_r * (p_star / p_r) ** (1 / gamma)
                return rho_sr, u_star, p_star
            u = 2.0 / gp1 * (-c_r + gm1 / 2 * u_r + xi)
            c = c_r + gm1 / 2 * (u - u_r)
            rho = rho_r * (c / c_r) ** (2 / gm1)
            return rho, u, p_r * (c / c_r) ** (2 * gamma / gm1)

        return np.array([sample(v) for v in np.atleast_1d(xi)])

    def test_sod_l1_close_to_exact(self):
        gamma = 1.4
        t_end = 0.2

        def initial(x):
            x = np.asarray(x, dtype=float)
            rho = np.where(x < 0.5, 1.0, 0.125)
            p = np.where(x < 0.5, 1.0, 0.1)
            return rho, np.zeros_like(rho), p

        scen = Scenario(
            name="sod", domain=(0.0, 1.0), eos=IdealGas(gamma),
            boundary=BoundarySpec1D("dirichlet", "dirichlet"), t_end=t_end,
            gravity=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            initial=initial, background=None)
        result = run(scen, Scheme("standard", 3), 400)
        grid = result.grid
        x = grid.centers(include_ghosts=False)
        exact = self.exact_riemann(1.0, 0.0, 1.0, 0.125, 0.0, 0.1, gamma,
                                   (x - 0.5) / t_end)
        rho_exact = exact[:, 0]
        err = grid.spacing[0] * np.sum(
            np.abs(result.final.interior()[0] - rho_exact))
        # shock/contact smearing dominates; a healthy O3 scheme at N=400
        # lands near 1e-3
        assert err < 5e-3
