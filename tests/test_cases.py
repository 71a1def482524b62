import inspect
import warnings

import numpy as np
import pytest

from hydrobal.cases import (
    SCENARIOS,
    grid_for,
    init_cell_averages,
    isothermal_1d,
    isothermal_perturbed_1d,
    make_scenario,
    polytrope_2d,
    polytropic_radiation_1d,
    radial_rayleigh_taylor_2d,
    relaxation_1d,
    riemann_on_equilibrium_1d,
)
from hydrobal.errors import ConfigurationError, InitializationError
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.runner import run
from hydrobal.scheme import Scheme

from oracles import hydrostatic_residual, potential_gradient_residual


ALL_BACKGROUND_SCENARIOS = [
    isothermal_1d("10x"),
    isothermal_1d("sin"),
    polytropic_radiation_1d(),
    riemann_on_equilibrium_1d(),
    polytrope_2d(),
    radial_rayleigh_taylor_2d(),
]


@pytest.mark.parametrize("scenario", ALL_BACKGROUND_SCENARIOS,
                         ids=lambda s: s.name)
def test_gravity_matches_potential(scenario):
    assert potential_gradient_residual(scenario) < 1e-10


@pytest.mark.parametrize(
    "scenario",
    [s for s in ALL_BACKGROUND_SCENARIOS
     if s.name != "riemann-on-equilibrium"],
    ids=lambda s: s.name)
def test_hydrostatic_selfconsistency(scenario):
    assert hydrostatic_residual(scenario) < 1e-10


def test_riemann_background_hydrostatic_away_from_jump():
    # the jump sits at x0; both smooth pieces are hydrostatic
    scen = riemann_on_equilibrium_1d()
    assert hydrostatic_residual(scen, h=1e-4) < 1e-8  # FD cannot cross x0 cells


def test_hydrostatic_residual_needs_background():
    with pytest.raises(ConfigurationError, match="'relaxation'"):
        hydrostatic_residual(relaxation_1d())


class TestIsothermal:
    def test_surface_values(self):
        scen = isothermal_1d("10x")
        rho, p = scen.background
        assert rho(0.0) == pytest.approx(1.0)
        assert p(0.0) == pytest.approx(1.0)

    def test_sound_crossing_time(self):
        scen = isothermal_1d("10x")
        assert scen.params["tau"] == pytest.approx(0.845154, abs=1e-6)
        assert scen.t_end == pytest.approx(2 * scen.params["tau"])

    def test_boundaries_match_potential_choice(self):
        assert isothermal_1d("10x").boundary.left == "dirichlet"
        assert isothermal_1d("sin").boundary.axes == (("periodic", "periodic"),)


class TestPerturbed:
    def test_zero_amplitude_reduces_to_background(self):
        scen = isothermal_perturbed_1d(0.0)
        x = np.linspace(0, 1, 17)
        rho, u, p = scen.initial(x)
        rho_bg, p_bg = scen.background
        np.testing.assert_allclose(p, p_bg(x))

    def test_gaussian_integral_oracle(self):
        # integral of eta*exp(-100 (x-1/2)^2) over the line = eta*sqrt(pi/100)
        eta = 1e-3
        scen = isothermal_perturbed_1d(eta)
        rho_bg, p_bg = scen.background
        x = np.linspace(-4, 5, 2_000_001)
        bump = scen.initial(x)[2] - p_bg(x)
        integral = np.trapezoid(bump, x)
        assert integral == pytest.approx(eta * np.sqrt(np.pi / 100.0), rel=1e-6)

    def test_both_amplitude_configs_exist(self):
        for eta in (1e-1, 1e-5):
            scen = isothermal_perturbed_1d(eta)
            assert scen.params["eta"] == eta
            assert scen.t_end == 0.5


class TestPolytropicRadiation:
    def test_surface_values(self):
        scen = polytropic_radiation_1d()
        rho, p = scen.background
        assert rho(0.0) == pytest.approx(1.0)
        assert p(0.0) == pytest.approx(1.0)

    def test_perturbed_variant(self):
        scen = polytropic_radiation_1d(perturbation=1e-7)
        assert scen.t_end == pytest.approx(0.1)
        x = np.array([0.3])
        bump = scen.initial(x)[2] - scen.background[1](x)
        assert bump[0] == pytest.approx(1e-7)


class TestRiemannOnEquilibrium:
    def test_jump_launches_all_waves(self):
        scen = riemann_on_equilibrium_1d()
        x0 = scen.params["x0"]
        rho_l, _, p_l = scen.initial(np.array([x0 - 1e-12]))
        rho_r, _, p_r = scen.initial(np.array([x0 + 1e-12]))
        # pressure jumps by construction: c e^{-a phi} vs e^{-b phi}
        assert p_l[0] != pytest.approx(p_r[0], rel=1e-3)
        assert rho_l[0] != pytest.approx(rho_r[0], rel=1e-3)


class TestRelaxation:
    def test_initial_state_static_uniform(self):
        scen = relaxation_1d()
        x = np.linspace(0, 1, 9)
        rho, u, p = scen.initial(x)
        np.testing.assert_allclose(rho, 1.0)
        np.testing.assert_allclose(u, 0.0)
        np.testing.assert_allclose(p, 1.0)
        assert scen.params["damping"] == pytest.approx(0.2)
        assert scen.t_end == pytest.approx(100.0)


class TestPolytrope2D:
    def test_center_values_continuous_extension(self):
        scen = polytrope_2d()
        rho, p = scen.background
        assert rho(0.0, 0.0) == pytest.approx(1.0)
        assert scen.potential(0.0, 0.0) == pytest.approx(-2.0)

    def test_perturbed_amplitudes(self):
        for a in (1e-2, 1e-6, 1e-8):
            scen = polytrope_2d(perturbation=a)
            assert scen.t_end == pytest.approx(0.2)
            p0 = scen.initial(0.0, 0.0)[3]
            base = polytrope_2d().initial(0.0, 0.0)[3]
            assert p0 == pytest.approx(base * (1 + a), rel=1e-12)


class TestRadialRayleighTaylor:
    def test_pressure_continuous_density_jumps(self):
        scen = radial_rayleigh_taylor_2d()
        r0 = scen.params["r0"]
        eps = 1e-9
        rho_in, _, _, p_in = scen.initial(r0 - eps, 0.0)
        rho_out, _, _, p_out = scen.initial(r0 + eps, 0.0)
        assert p_in == pytest.approx(p_out, rel=1e-6)
        assert rho_out / rho_in == pytest.approx(2.0, rel=1e-6)

    def test_unstable_ordering(self):
        # b > a puts the denser fluid outside: Rayleigh-Taylor unstable
        scen = radial_rayleigh_taylor_2d()
        assert scen.params["b"] > scen.params["a"]


class TestInitCellAverages:
    def test_constant_state_exact(self):
        scen = relaxation_1d()
        grid = grid_for(scen, 16, 2)
        field = init_cell_averages(scen, grid)
        np.testing.assert_allclose(field.data[0], 1.0, rtol=1e-14)
        np.testing.assert_allclose(field.data[1], 0.0, atol=1e-16)

    def test_exponential_average_analytic(self):
        # rho = exp(-10x) averaged over [0, 0.1]: (1 - e^-1) via antiderivative
        scen = isothermal_1d("10x")
        grid = grid_for(scen, 10, 2)
        field = init_cell_averages(scen, grid)
        first = field.data[0, grid.n_ghost]
        assert first == pytest.approx(1.0 - np.exp(-1.0), abs=1e-10)
        assert first == pytest.approx(0.632121, abs=1e-6)

    def test_quadrature_order_convergence(self):
        scen = isothermal_1d("10x")
        grid = grid_for(scen, 8, 2)
        exact = init_cell_averages(scen, grid, quad_order=5)
        errs = [np.max(np.abs(init_cell_averages(scen, grid, quad_order=q).data
                              - exact.data)) for q in (2, 3)]
        assert errs[1] < errs[0] * 1e-2

    def test_2d_polytrope_symmetries(self):
        scen = polytrope_2d()
        grid = grid_for(scen, 16, 2)
        q = init_cell_averages(scen, grid).interior()
        np.testing.assert_allclose(q[0], q[0].T, atol=1e-13)
        np.testing.assert_allclose(q[0], q[0][::-1], atol=1e-13)
        np.testing.assert_allclose(q[3], q[3][:, ::-1], atol=1e-13)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("does-not-exist")


BAD_PARAMS = ["big", float("nan"), float("inf"), -float("inf"), True,
              np.bool_(False), [1.0], None]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_parameter_is_checked(name):
    # a finite real number (Python or numpy), or None where that is the
    # default; anything else names the scenario and the key
    params = inspect.signature(SCENARIOS[name]).parameters
    required = {key: 1e-3 for key, spec in params.items()
                if spec.default is spec.empty}
    for key, spec in params.items():
        for value in BAD_PARAMS:
            if value is None and spec.default is None:
                continue
            with pytest.raises(ConfigurationError,
                               match=f"scenario '{name}': parameter '{key}'"):
                make_scenario(name, **{**required, key: value})
    assert make_scenario(name, **required).dimension in (1, 2)
    numpy_values = {key: np.float64(spec.default) for key, spec
                    in params.items() if isinstance(spec.default, float)}
    assert make_scenario(name, **{**required, **numpy_values}).params \
        == make_scenario(name, **required).params


def test_gamma_rejected_before_any_warning():
    # the EoS rejects gamma before the sound crossing time takes its root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="gamma = -1"):
            make_scenario("isothermal-sin", gamma=-1)


def test_overflowing_density_scale_names_its_parameters():
    # a finite b overflows the inner state's density scale in the factory
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError,
                           match=r"a = 1\.0, b = 100\.0 and r0 = 0\.2"):
            make_scenario("radial-rayleigh-taylor", b=100.0)


@pytest.mark.parametrize("name, params, where", [
    ("radial-rayleigh-taylor", {"a": 0.0}, "'a': 0.0"),
    ("radial-rayleigh-taylor", {"a": -1.0}, "'a': -1.0"),
    ("isothermal-perturbed", {"eta": -2.0}, "'eta': -2.0"),
    ("polytropic-radiation", {"perturbation": -2.0}, "'eta': -2.0"),
    ("polytrope-2d", {"perturbation": -2.0}, "'amplitude': -2.0"),
], ids=["rt-a-zero", "rt-a-negative", "isothermal-eta", "radiation-eta",
        "polytrope-amplitude"])
def test_non_physical_initial_state_names_its_input(name, params, where):
    # a density or pressure that is not positive at a quadrature node is
    # rejected before any EoS call, naming the scenario, its parameters and
    # the point
    scen = make_scenario(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InitializationError,
                           match=rf"'{name}.*{where}.*not positive at x = "):
            init_cell_averages(scen, grid_for(scen, 16, 2))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_only_interior_nodes_are_checked(n):
    # polytrope-2d's density sinc(k r) has its first zero at r ~ 1.25,
    # which the corner ghost cells reach for n <= 5: those ghosts are left
    # to the fill and the positivity fallback, and the run goes ahead
    scen = make_scenario("polytrope-2d")
    grid = grid_for(scen, n, 2)
    node = gauss_nodes_weights_centered(5, grid.spacing[0])[0][-1]
    corner = [grid.centers(a)[-1] + node for a in (0, 1)]
    assert scen.initial(*corner)[0] < 0.0    # the corner ghost's outer node
    init_cell_averages(scen, grid)
    result = run(scen, Scheme("la", 3), n, t_end=1e-3)
    assert np.all(np.isfinite(result.final.data))


class TestDiscreteEquilibriumErrors:
    def test_negative_pressure_rejected(self):
        from hydrobal.cases import Scenario, discrete_equilibrium_init
        from hydrobal.boundary import BoundarySpec1D
        from hydrobal.eos import IdealGas
        from hydrobal.runner import make_operator
        from hydrobal.scheme import Scheme

        # strong constant gravity drives the propagated pressure below zero
        scen = Scenario(
            name="collapse", domain=(0.0, 1.0), eos=IdealGas(1.4),
            boundary=BoundarySpec1D("dirichlet", "dirichlet"), t_end=1.0,
            gravity=lambda x: -10.0 * np.ones_like(np.asarray(x, dtype=float)),
            potential=lambda x: 10.0 * np.asarray(x, dtype=float),
            initial=lambda x: (np.ones_like(np.asarray(x, dtype=float)),
                               np.zeros_like(np.asarray(x, dtype=float)),
                               0.1 * np.ones_like(np.asarray(x, dtype=float))),
            background=(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                        lambda x: 0.1 * np.ones_like(np.asarray(x, dtype=float))))
        op = make_operator(scen, grid_for(scen, 32, 3), Scheme("dwb", 3))
        with pytest.raises(InitializationError):
            discrete_equilibrium_init(scen, op)

    @pytest.mark.parametrize("order, bc, n", [
        (3, ("dirichlet", "dirichlet"), 56),
        (5, ("dirichlet", "dirichlet"), 32),
        (5, ("hydrostatic-extrapolation", "solid-wall"), 48),
    ])
    def test_coarse_grid_rejection_names_input(self, order, bc, n):
        # the steep isothermal-10x column needs enough cells for the glued
        # pressure to stay positive through the top ghost cells
        from hydrobal.boundary import BoundarySpec1D
        from hydrobal.cases import discrete_equilibrium_init
        from hydrobal.runner import make_operator
        from hydrobal.scheme import Scheme

        scen = isothermal_1d("10x")
        scen.boundary = BoundarySpec1D(*bc)
        scheme = Scheme("dwb", order)

        def init(cells):
            grid = grid_for(scen, cells, scheme.n_ghost)
            return discrete_equilibrium_init(
                scen, make_operator(scen, grid, scheme))

        with pytest.raises(InitializationError,
                           match=f"isothermal-10x, DWB-O{order}, n = {n}: .* "
                                 r"in cell \d+ .*use a finer grid"):
            init(n)
        init(2 * n)
