"""Scenario library: analytic backgrounds, gravity fields, initializers.

A scenario's dimension is the axis count of its domain.  Every scenario
with an analytic background satisfies the hydrostatic equation exactly,
which the tests check by sampling, in 1-D and 2-D alike, before any
solver test touches the scenario.
"""

import inspect
import math
import numbers
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .boundary import (
    BoundarySpec1D,
    BoundarySpec2D,
    extrapolated_strips,
    set_edge_ghosts,
)
from .eos import IdealGas, IdealGasRadiation
from .errors import ConfigurationError, InitializationError
from .grid import CellField, Grid
from .quadrature import cell_averages
from .reconstruct import product_tables
from .wellbalance import equilibrium_points, glued_constants

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass
class Scenario:
    """A benchmark setup: domain, EoS, gravity, initial state, background."""

    name: str
    domain: tuple                      # (lo, hi) per axis, flat
    eos: object
    boundary: object
    t_end: float
    gravity: object                    # g(x) or g(x, y) -> components
    potential: object                  # phi(x) or phi(x, y)
    initial: object                    # primitives (rho, u[, v], p)
    background: object = None          # (rho_tilde, p_tilde) or None
    params: dict = dc_field(default_factory=dict)

    @property
    def dimension(self):
        return len(self.domain) // 2


# ---------------------------------------------------------------------------
# smooth radial helpers (sin(kr)/(kr) profiles, regular at the origin)
# ---------------------------------------------------------------------------

def radial_sinc(r, k=SQRT_2PI):
    """sin(k r)/(k r), continuously extended to r = 0."""
    return np.sinc(k * np.asarray(r, dtype=float) / np.pi)


def _sinc_slope_over_z(z):
    """(d/dz sinc(z)) / z = (z cos z - sin z)/z^3, regular at 0 (-> -1/3)."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.05
    z_safe = np.where(small, 1.0, z)
    direct = (z_safe * np.cos(z_safe) - np.sin(z_safe)) / z_safe ** 3
    z2 = z * z
    series = -1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0
    return np.where(small, series, direct)


def radial_sinc_gradient(x, y, k=SQRT_2PI):
    """Gradient of sin(k r)/(k r) as a smooth vector field."""
    r = np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2)
    factor = k * k * _sinc_slope_over_z(k * r)
    return factor * np.asarray(x), factor * np.asarray(y)


# ---------------------------------------------------------------------------
# 1-D scenarios
# ---------------------------------------------------------------------------

def isothermal_1d(potential="10x", gamma=1.4):
    """Isothermal hydrostatic state rho = p = exp(-phi), u = 0."""
    if potential == "10x":
        phi = lambda x: 10.0 * np.asarray(x, dtype=float)
        grav = lambda x: -10.0 * np.ones_like(np.asarray(x, dtype=float))
        bc = BoundarySpec1D("dirichlet", "dirichlet")
    elif potential == "sin":
        phi = lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float))
        grav = lambda x: -2.0 * np.pi * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))
        bc = BoundarySpec1D("periodic", "periodic")
    else:
        raise ConfigurationError(f"unknown potential choice {potential!r}")

    rho = lambda x: np.exp(-phi(x))

    def initial(x):
        r = rho(x)
        return r, np.zeros_like(r), r

    eos = IdealGas(gamma)   # rejects gamma <= 1 before tau reads it
    tau = np.sqrt(1.0 / gamma)  # sound crossing time: c = sqrt(gamma) here
    return Scenario(
        name=f"isothermal-{potential}",
        domain=(0.0, 1.0),
        eos=eos,
        boundary=bc,
        t_end=2.0 * tau,
        gravity=grav,
        potential=phi,
        initial=initial,
        background=(rho, rho),
        params={"tau": tau, "potential": potential},
    )


def isothermal_perturbed_1d(eta, gamma=1.4):
    """Gaussian pressure bump of amplitude eta on the periodic isothermal state."""
    base = isothermal_1d("sin", gamma)
    rho_bg, p_bg = base.background

    def initial(x):
        r = rho_bg(x)
        p = p_bg(x) + eta * np.exp(-100.0 * (np.asarray(x) - 0.5) ** 2)
        return r, np.zeros_like(r), p

    return Scenario(
        name=f"isothermal-perturbed-{eta:g}",
        domain=(0.0, 1.0),
        eos=base.eos,
        boundary=base.boundary,
        t_end=0.5,
        gravity=base.gravity,
        potential=base.potential,
        initial=initial,
        background=base.background,
        params={"eta": eta},
    )


def polytropic_radiation_1d(perturbation=None, gamma=1.4, nu=None):
    """Polytropic hydrostatic state closed by the radiation-pressure EoS.

    theta = 1 - (nu-1)/nu * phi with phi(x) = g*x, constant g = -1; the
    profile is hydrostatic for any nu, here nu = gamma.
    """
    nu = gamma if nu is None else nu
    if nu <= 1.0:
        raise ConfigurationError(f"polytropic index nu = {nu} must exceed 1")
    phi = lambda x: -np.asarray(x, dtype=float)
    grav = lambda x: np.ones_like(np.asarray(x, dtype=float))
    theta = lambda x: 1.0 - (nu - 1.0) / nu * phi(x)
    rho = lambda x: theta(x) ** (1.0 / (nu - 1.0))
    pres = lambda x: theta(x) ** (nu / (nu - 1.0))

    def initial(x):
        r = rho(x)
        p = pres(x)
        if perturbation is not None:
            p = p + perturbation * np.exp(-100.0 * (np.asarray(x) - 0.3) ** 2)
        return r, np.zeros_like(r), p

    tag = "" if perturbation is None else f"-perturbed-{perturbation:g}"
    return Scenario(
        name=f"polytropic-radiation{tag}",
        domain=(0.0, 1.0),
        eos=IdealGasRadiation(gamma),
        boundary=BoundarySpec1D("dirichlet", "dirichlet"),
        t_end=10.0 if perturbation is None else 0.1,
        gravity=grav,
        potential=phi,
        initial=initial,
        background=(rho, pres),
        params={"nu": nu, "eta": perturbation},
    )


def riemann_on_equilibrium_1d(gamma=1.4):
    """Piecewise isothermal hydrostatic state with a jump at x0 = 0.125.

    The jump launches all three waves; the linear potential phi(x) = x keeps
    each side hydrostatic.
    """
    x0, a, b, c = 0.125, 0.5, 1.0, 2.0
    phi = lambda x: np.asarray(x, dtype=float)
    grav = lambda x: -np.ones_like(np.asarray(x, dtype=float))

    def rho(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < x0, a * c * np.exp(-a * phi(x)),
                        b * np.exp(-b * phi(x)))

    def pres(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < x0, c * np.exp(-a * phi(x)), np.exp(-b * phi(x)))

    def initial(x):
        r = rho(x)
        return r, np.zeros_like(r), pres(x)

    return Scenario(
        name="riemann-on-equilibrium",
        domain=(0.0, 0.25),
        eos=IdealGas(gamma),
        boundary=BoundarySpec1D("dirichlet", "dirichlet"),
        t_end=0.02,
        gravity=grav,
        potential=phi,
        initial=initial,
        background=(rho, pres),
        params={"x0": x0, "a": a, "b": b, "c": c},
    )


def relaxation_1d(gamma=1.4, delta=0.2, t_end=100.0):
    """Uniform state driven toward an unknown hydrostatic stratification by
    momentum damping under phi = 10 sin(2 pi x)."""
    phi = lambda x: 10.0 * np.sin(2.0 * np.pi * np.asarray(x, dtype=float))
    grav = lambda x: -20.0 * np.pi * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))

    def initial(x):
        ones = np.ones_like(np.asarray(x, dtype=float))
        return ones, np.zeros_like(ones), ones

    return Scenario(
        name="relaxation",
        domain=(0.0, 1.0),
        eos=IdealGas(gamma),
        boundary=BoundarySpec1D("periodic", "periodic"),
        t_end=t_end,
        gravity=grav,
        potential=phi,
        initial=initial,
        background=None,
        params={"damping": delta},
    )


# ---------------------------------------------------------------------------
# 2-D scenarios
# ---------------------------------------------------------------------------

def polytrope_2d(perturbation=None, gamma=2.0):
    """Self-gravitating adiabatic sphere: rho = sin(k r)/(k r), p = rho^gamma,
    phi = -2 rho; hydrostatic identically for gamma = 2."""
    rho = lambda x, y: radial_sinc(np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2))
    phi = lambda x, y: -2.0 * rho(x, y)

    def grav(x, y):
        gx, gy = radial_sinc_gradient(x, y)
        return 2.0 * gx, 2.0 * gy

    def initial(x, y):
        r = rho(x, y)
        zeros = np.zeros_like(r)
        p = r ** gamma
        if perturbation is not None:
            r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
            p = p * (1.0 + perturbation * np.exp(-r2 / 0.05 ** 2))
        return r, zeros, zeros, p

    bg_pres = lambda x, y: rho(x, y) ** gamma
    tag = "" if perturbation is None else f"-perturbed-{perturbation:g}"
    return Scenario(
        name=f"polytrope-2d{tag}",
        domain=(-0.5, 0.5, -0.5, 0.5),
        eos=IdealGas(gamma),
        boundary=BoundarySpec2D(*["dirichlet"] * 4),
        t_end=5.0 if perturbation is None else 0.2,
        gravity=grav,
        potential=phi,
        initial=initial,
        background=(rho, bg_pres),
        params={"amplitude": perturbation},
    )


def radial_rayleigh_taylor_2d(gamma=1.4, r0=0.2, a=1.0, b=2.0):
    """Piecewise isothermal state in a deep radial potential; the density
    jump at r0 is Rayleigh-Taylor unstable for b > a.  Quadrant domain with
    reflecting walls on the axes and background-deviation extrapolation
    outside."""
    phi = lambda x, y: -20.0 * radial_sinc(
        np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2))

    def grav(x, y):
        gx, gy = radial_sinc_gradient(x, y)
        return 20.0 * gx, 20.0 * gy

    # the density scale of the inner state; a finite (a - b) phi(r0) can
    # still overflow it
    with np.errstate(over="ignore"):
        c = np.exp((a - b) * phi(r0, 0.0))
    if not np.isfinite(c):
        raise ConfigurationError(
            f"scenario 'radial-rayleigh-taylor': a = {a}, b = {b} and "
            f"r0 = {r0} give a non-finite inner density scale "
            "c = exp((a - b) phi(r0))")
    rho_in = lambda x, y: a * c * np.exp(-a * phi(x, y))
    rho_out = lambda x, y: b * np.exp(-b * phi(x, y))
    p_in = lambda x, y: c * np.exp(-a * phi(x, y))
    p_out = lambda x, y: np.exp(-b * phi(x, y))

    def initial(x, y):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        inside = r2 < r0 ** 2
        rho = np.where(inside, rho_in(x, y), rho_out(x, y))
        p = np.where(inside, p_in(x, y), p_out(x, y))
        zeros = np.zeros_like(rho)
        return rho, zeros, zeros, p

    return Scenario(
        name="radial-rayleigh-taylor",
        domain=(0.0, 0.5, 0.0, 0.5),
        eos=IdealGas(gamma),
        boundary=BoundarySpec2D("solid-wall", "background-deviation-extrapolation",
                                "solid-wall", "background-deviation-extrapolation"),
        t_end=0.6,
        gravity=grav,
        potential=phi,
        initial=initial,
        background=(rho_out, p_out),
        params={"r0": r0, "a": a, "b": b, "c": float(c)},
    )


SCENARIOS = {
    "isothermal-10x": partial(isothermal_1d, "10x"),
    "isothermal-sin": partial(isothermal_1d, "sin"),
    "isothermal-perturbed": isothermal_perturbed_1d,
    "polytropic-radiation": polytropic_radiation_1d,
    "riemann-on-equilibrium": riemann_on_equilibrium_1d,
    "relaxation": relaxation_1d,
    "polytrope-2d": polytrope_2d,
    "radial-rayleigh-taylor": radial_rayleigh_taylor_2d,
}


def make_scenario(name, **kwargs):
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    factory = SCENARIOS[name]
    accepted = inspect.signature(factory).parameters
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"scenario {name!r} has no parameter(s) {unknown}; "
            f"it takes {sorted(accepted)}")
    missing = sorted(key for key, spec in accepted.items()
                     if spec.default is spec.empty and key not in kwargs)
    if missing:
        raise ConfigurationError(
            f"scenario {name!r} needs parameter(s) {missing}")
    for key, value in kwargs.items():
        if not (value is None and accepted[key].default is None
                or isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value)):
            raise ConfigurationError(
                f"scenario {name!r}: parameter {key!r} must be a finite "
                f"real number, got {value!r}")
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def grid_for(scenario, n, n_ghost):
    return Grid(scenario.domain, (n,) * scenario.dimension, n_ghost)


def init_cell_averages(scenario, grid, quad_order=5):
    """CellField of conserved averages via per-cell Gauss quadrature.

    A density or pressure that is not positive at a quadrature node of an
    interior cell raises an `InitializationError` naming the scenario, its
    parameters and the first such point, before any EoS call.  Ghost cells
    are not checked: the boundary fill and the positivity fallback own
    them (the domain's corner ghosts can reach past a radial profile's
    zero).
    """
    def conserved(*x):
        rho, *vel, p = scenario.initial(*x)
        physical = (rho > 0.0) & (p > 0.0)     # NaN fails both tests
        if not physical.all():
            shape = np.broadcast_shapes(physical.shape, *map(np.shape, x))
            bad, rho_in, p_in, *point = (
                np.broadcast_to(v, shape)[grid.interior]
                for v in (~physical, rho, p, *x))
            if bad.any():
                at = np.unravel_index(np.argmax(bad), bad.shape)
                raise InitializationError(
                    f"scenario {scenario.name!r} with parameters "
                    f"{scenario.params}: the initial density or pressure is "
                    f"not positive at x = "
                    f"{tuple(float(c[at]) for c in point)} "
                    f"(rho = {rho_in[at]:g}, p = {p_in[at]:g})")
        kinetic = 0.5 * rho * sum(u ** 2 for u in vel)
        return [rho, *(rho * u for u in vel),
                scenario.eos.internal_energy(rho, p) + kinetic]

    return CellField(grid, cell_averages(conserved, grid, quad_order))


def discrete_equilibrium_init(scenario, operator, anchor_cell=None):
    """Discrete hydrostatic equilibrium of `operator`, the operator the run
    advances, on a 1-D grid.

    The discretization is the operator's own: its CWENO reconstruction
    (with its `eps_w`), the gravity rows of its band (every cell from r
    on whose stencil fits: the grid has the scheme's ghost width), product
    exponents and, on hydrostatic sides, ghost-mean table; the pieces'
    products are the RHS's cells-last terms.  Density averages come from the scheme's
    quadrature of the background; the anchor pressure is the background
    point value at the anchor cell and is propagated to every cell by
    enforcing pressure continuity of the piecewise equilibrium source at
    interfaces; energies are then the quadrature averages of the profile's
    internal energy.  Ghost cells are included so Dirichlet boundaries are
    consistent; on every extrapolation or wall side the ghost densities are
    generated by the same extrapolation the boundary fill applies, making
    the state an exact fixed point of DWB whatever the other side is.
    """
    if scenario.dimension != 1 or scenario.background is None:
        raise InitializationError(
            "discrete equilibria need a 1-D scenario with a background")
    rho_bg, p_bg = scenario.background
    grid, scheme, cweno = operator.grid, operator.scheme, operator.cweno
    ng, r, nq = grid.n_ghost, scheme.radius, scheme.n_quad
    n_tot, = grid.shape_tot

    data = np.zeros((3, n_tot))
    data[0] = cell_averages(lambda x: [rho_bg(x)], grid, nq)[0]
    sides = operator.boundary.hydrostatic_sides
    if sides:
        # regenerate ghost densities exactly as the boundary fill will
        set_edge_ghosts(data, sides, extrapolated_strips(
            cweno, data, sides, ng, operator._edge_means), ng)

    # the pieces of the operator's band, the cells from r on whose stencil
    # fits, and the RHS's product terms (m * m_g, cells), rec-major
    rec = cweno.coefficients(data[0])
    terms = (rec[:, None] * operator._g_rows[0]).reshape(-1, rec.shape[-1])
    # every piece at the Gauss nodes of its stencil cells and at its faces
    tables = product_tables(*operator._exps, equilibrium_points(nq, r),
                            grid.spacing)
    anti = terms.T @ tables.line[0]
    anchor = ng if anchor_cell is None else int(anchor_cell)
    const = glued_constants(anti[:, -2], anti[:, -1], anchor - r,
                            p_bg(grid.centers()[anchor]))

    # cell k averages piece k; the outer ghosts on each side, which have no
    # piece, continue the innermost piece
    cells = np.arange(n_tot)
    piece = np.clip(cells, r, n_tot - 1 - r) - r
    nodes_of = (cells - piece)[:, None] * nq + np.arange(nq)
    rho = (rec.T @ tables.values)[piece[:, None], nodes_of]
    p = const[piece, None] + anti[piece[:, None], nodes_of]
    bad = (const[piece] <= 0.0) | np.any((p <= 0.0) | (rho <= 0.0), axis=-1)
    if np.any(bad):
        n, = grid.cells
        raise InitializationError(
            f"{scenario.name}, {scheme.label}, n = {n}: the discrete "
            "equilibrium has a non-positive pressure or density in cell "
            f"{int(np.argmax(bad)) - ng} (interior cells are 0..{n - 1}); "
            "use a finer grid")
    eps = scenario.eos.internal_energy(rho, p)
    data[2] = np.sum(operator.quad_weights * eps, axis=-1) / grid.spacing[0]
    return CellField(grid, data)
