"""Fast property suite behind the `check` CLI subcommand.

Each check prints one pass/fail line; the suite returns the number of
failures.  These mirror the library's core guarantees: contact property,
EoS round trips and the closed-form temperature, quadrature exactness,
reconstruction conservation, the factored CWENO indicators, anchor-solver
agreement, and measured ODE orders.
"""

from itertools import product

import numpy as np

from .eos import IdealGas, IdealGasRadiation, _quartic_root
from .grid import Grid
from .integrate import RK5, SSPRK43, rk_step
from .physics import contact_property_check, flux_divergence, hllc_flux
from .physics import roe_flux, rusanov_flux, wall_boundary_flux
from .poly import (
    poly_antiderivative,
    poly_cell_average,
    poly_eval,
    poly_integrate,
    poly_mul,
)
from .quadrature import gauss_legendre, gauss_nodes_weights_centered
from .reconstruct import (
    Cweno1D,
    Cweno2D,
    _smoothness_form_1d,
    _smoothness_form_2d,
)
from .wellbalance import (
    anchor_pressure_ideal,
    anchor_pressure_newton,
    monotonicity_probe,
)


def _measured_ode_order(tableau):
    errs = []
    for n in (40, 80):
        y = np.array([1.0])
        dt = 1.0 / n
        for _ in range(n):
            y = rk_step(y, dt, lambda v: -v, tableau)
        errs.append(abs(float(y[0]) - np.exp(-1.0)))
    return float(np.log2(errs[0] / errs[1]))


def run_checks(seed=0, trials=1000):
    eos = IdealGas(1.4)
    rad = IdealGasRadiation(1.4)
    rng = np.random.default_rng(seed)
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    for name, flux in (("roe", roe_flux), ("hllc", hllc_flux)):
        for label, model in (("ideal", eos), ("radiation", rad)):
            rep = contact_property_check(flux, model, trials=trials, seed=seed)
            record(f"contact property {name}/{label}", rep["ok"],
                   f"max deviation {rep['max_deviation']:.2e}")
    rep = contact_property_check(rusanov_flux, eos, trials=trials, seed=seed)
    record("rusanov lacks contact property (control)", not rep["ok"],
           f"max deviation {rep['max_deviation']:.2e}")

    # quadrature exactness through degree 2n-1
    ok = True
    worst = 0.0
    for order in range(1, 6):
        nodes, weights = gauss_legendre(order, (-0.3, 1.1))
        for _ in range(10):
            coeffs = rng.standard_normal(2 * order)
            quad = float(np.sum(weights * np.polynomial.polynomial.polyval(nodes, coeffs)))
            exact = float(poly_integrate(coeffs, -0.3, 1.1))
            dev = abs(quad - exact) / max(abs(exact), 1.0)
            worst = max(worst, dev)
            ok &= dev < 1e-13
    record("gauss-legendre exactness (deg <= 2n-1)", ok, f"max rel dev {worst:.2e}")

    # CWENO mean conservation and linear reproduction
    ok = True
    for order in (3, 5):
        scheme = Cweno1D(order, 0.02)
        data = rng.standard_normal((40,))
        coeffs = scheme.coefficients(data).T
        r = scheme.radius
        means = poly_cell_average(coeffs[r:-r], 0.02)
        ok &= np.allclose(means, data[r:-r], rtol=1e-13, atol=1e-13)
        lin = scheme.reconstruct_stencils((np.arange(order) - r) * 0.02)
        ok &= abs(lin[1] - 1.0) < 1e-12
    record("cweno mean conservation + linear reproduction", ok)

    # EoS round trips and derivative consistency
    rho = 10.0 ** rng.uniform(-6, 6, 100)
    t = 10.0 ** rng.uniform(-3, 3, 100)
    p = rho * t + t ** 4
    ok = np.allclose(rad.pressure(rho, rad.internal_energy(rho, p)), p, rtol=1e-12)
    record("radiation EoS round trip <= 1e-12", ok)
    # the closed-form roots of both inversions' quartic x^4 + a x - b
    # against Newton iterations from the upper bound min(b / a, b^(1/4)),
    # on the same states
    gm1 = rad.gamma - 1.0
    eps = rho * t / gm1 + 3.0 * t ** 4
    worst = 0.0
    for a, b in ((rho, p), (rho / (3.0 * gm1), eps / 3.0)):
        newton = rad._newton(np.minimum(b / a, np.sqrt(np.sqrt(b))), a, b,
                             lambda T: T ** 4 + a * T - b,
                             lambda T: 4.0 * T ** 3 + a)
        worst = max(worst, np.max(np.abs(_quartic_root(a, b) / newton - 1.0)))
    record("radiation closed-form temperature <= 1e-13", worst <= 1e-13,
           f"max rel dev {worst:.2e}")
    p_s = 10.0 ** rng.uniform(-2, 2, 20)
    rho_s = 10.0 ** rng.uniform(-2, 2, 20)
    delta = 1e-6 * p_s
    fd = (rad.internal_energy(rho_s, p_s + delta)
          - rad.internal_energy(rho_s, p_s - delta)) / (2 * delta)
    ok = np.allclose(rad.deps_dp(rho_s, p_s), fd, rtol=1e-6)
    record("deps_dp matches finite differences <= 1e-6", ok)

    # Newton anchor equals the ideal-gas closed form
    grid = Grid((0.0, 1.0), (32,), 2)
    h, = grid.spacing
    centers = grid.centers()
    cweno = Cweno1D(3, h)
    rho_coeffs = cweno.coefficients(np.exp(-2.0 * centers)).T
    g_coeffs = np.zeros(grid.shape_tot + (3,))
    g_coeffs[:, 0] = -2.0
    anti = poly_antiderivative(poly_mul(rho_coeffs, g_coeffs))
    nodes, weights = gauss_nodes_weights_centered(2, h)
    # node values with cells last, as the anchor solvers take them
    offsets = poly_eval(anti[:, None, :], nodes).T
    rho_nodes = poly_eval(rho_coeffs[:, None, :], nodes).T
    rho_hat = np.exp(-2.0 * centers)
    eps_hat = rho_hat / (eos.gamma - 1.0)
    p_ideal = anchor_pressure_ideal(offsets, eps_hat, eos.deps_dp_constant,
                                    weights / h)
    p_newton, conv = anchor_pressure_newton(offsets, rho_nodes, rho_hat,
                                            eps_hat, eos, weights / h)
    inner = slice(1, -1)
    ok = np.all(conv[inner]) and np.allclose(p_newton[inner], p_ideal[inner],
                                             rtol=1e-12, atol=1e-12)
    record("newton anchor == ideal closed form <= 1e-12", ok)

    # monotonicity probe on cell 10's nodes: positive Grueneisen for both
    # EoS models
    cell = (offsets[:, 10], rho_nodes[:, 10], abs(p_ideal[10]) + 0.5)
    ok = monotonicity_probe(*cell, eos, weights / h) \
        and monotonicity_probe(*cell, rad, weights / h)
    record("anchor-residual monotonicity (ideal + radiation)", ok)

    order3 = _measured_ode_order(SSPRK43)
    order5 = _measured_ode_order(RK5)
    record("rk3 measured ODE order", abs(order3 - 3.0) < 0.15, f"{order3:.3f}")
    record("rk5 measured ODE order", abs(order5 - 5.0) < 0.15, f"{order5:.3f}")

    # CWENO indicators: the cached factor L reproduces the exact form A,
    # and beta = |L^T u|^2 is non-negative and equals u^T A u
    ok = True
    worst = 0.0
    for scheme, form in ((Cweno1D(3, 0.02), _smoothness_form_1d(3)),
                         (Cweno1D(5, 0.02), _smoothness_form_1d(5)),
                         (Cweno2D(0.02, 0.01), _smoothness_form_2d(0.5))):
        factor = scheme._factor
        dev = np.abs(factor @ factor.T - form).max() / np.abs(form).max()
        worst = max(worst, dev)
        window = rng.standard_normal((scheme._table.shape[1], 200))
        coeffs, beta = scheme._candidates(window - window[len(window) // 2])
        exact = np.einsum("qkc,kl,qlc->qc", coeffs, form, coeffs)
        ok &= dev <= 1e-15 and np.all(beta >= 0.0) \
            and np.allclose(beta, exact, rtol=1e-12, atol=0.0)
    record("cweno indicator factorization", ok,
           f"max |L L^T - A| / max |A| {worst:.2e}")

    # a solid wall in the axis's one flux call: the wall flux is the
    # separate mirrored pair of `wall_boundary_flux`, bit for bit
    ok = True
    for flux, model, dim in product((roe_flux, hllc_flux, rusanov_flux),
                                    (eos, rad), (1, 2)):
        # lo and hi faces per axis of 6 cells (one ghost), 2 nodes in 2-D
        rho, p = 10.0 ** rng.uniform(-1, 1, (2, 2 * dim) + (6,) * dim
                                     + (2,) * (dim - 1))
        vel = rng.uniform(-1, 1, (dim,) + rho.shape)
        q = np.stack([rho, *(rho * vel), model.internal_energy(rho, p)
                      + 0.5 * rho * (vel ** 2).sum(axis=0)])
        for a, side in product(range(dim), ("left", "right")):
            calls = []
            axes = [("dirichlet",) * 2] * dim
            axes[a] = ("solid-wall", "dirichlet")[::1 if side == "left" else -1]
            flux_divergence([(q[:, 2 * b].copy(), q[:, 2 * b + 1].copy())
                             for b in range(dim)],
                            lambda *args, **kw: calls.append(
                                flux(*args, **kw)) or calls[-1],
                            model, axes, (0.1,) * dim, 1,
                            np.full(2, 0.5) if dim == 2 else None)
            k = 0 if side == "left" else -1
            cell = [slice(None)] + [slice(1, -1)] * dim
            cell[a + 1] = 1 if side == "left" else -2
            face = q[:, 2 * a + (side == "right")]   # lo or hi
            wall = wall_boundary_flux(face[tuple(cell)], model, flux, side,
                                      normal=a + 1)
            ok &= np.array_equal(calls[a][(slice(None),) * (a + 1) + (k,)],
                                 wall)
    record("solid-wall flux in one call", ok)

    return results


def main(seed=0, trials=1000, stream=None):
    import sys

    stream = stream or sys.stdout
    failures = 0
    for name, ok, detail in run_checks(seed=seed, trials=trials):
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}", file=stream)
    return failures
