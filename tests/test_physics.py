import numpy as np
import pytest

from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.errors import ConfigurationError, FluxEvaluationError
from hydrobal.physics import (
    cfl_rate,
    flux_divergence,
    get_flux,
    hllc_flux,
    physical_flux,
    physical_state,
    positivity_fallback,
    roe_flux,
    rusanov_flux,
    split_conserved,
    wall_boundary_flux,
)
from hydrobal.boundary import BoundarySpec1D, BoundarySpec2D
from hydrobal.grid import Grid
from hydrobal.operator1d import SpatialOperator
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

    # the velocity a flux takes as normal is q[normal] / rho
    q_l, q_r = states_2d(), states_2d()
    q = np.stack([q_l, q_r], axis=1)
    rho, vel, p = split_conserved(q, eos)
    for s, side in enumerate((q_l, q_r)):
        rho_s, vel_s, p_s = split_conserved(side, eos)
        np.testing.assert_array_equal(rho[s], rho_s)
        np.testing.assert_array_equal(vel[:, s], vel_s)
        np.testing.assert_array_equal(vel[normal - 1, s],
                                      side[normal] / side[0])
        np.testing.assert_allclose(p[s], p_s, rtol=tol, atol=0.0)


@pytest.mark.parametrize("flux_fn", [roe_flux, hllc_flux])
def test_contact_example(flux_fn):
    eos = IdealGas(1.4)
    q_l = conserved(1.0, 0.0, 1.0, eos)
    q_r = conserved(2.0, 0.0, 1.0, eos)
    np.testing.assert_allclose(flux_fn(q_l, q_r, eos), [0.0, 1.0, 0.0], atol=1e-15)


def contact_deviations(flux_fn, eos, trials, seed):
    """Per trial, the deviation of the flux of a random stationary contact
    (equal pressures, different densities, at rest) from (0, p, 0), relative
    to max(p, 1)."""
    rng = np.random.default_rng(seed)
    rho_l, rho_r, p = 10.0 ** rng.uniform(-2, 2, (3, trials))
    zeros = np.zeros(trials)
    flux = flux_fn(conserved(rho_l, 0.0, p, eos), conserved(rho_r, 0.0, p, eos),
                   eos)
    return np.max(np.abs(flux - np.stack([zeros, p, zeros]))
                  / np.maximum(p, 1.0), axis=0)


@pytest.mark.parametrize("flux_name,flux_fn", [("roe", roe_flux), ("hllc", hllc_flux)])
@pytest.mark.parametrize("eos", [IdealGas(1.4), IdealGasRadiation(1.4)])
def test_contact_property_randomized(flux_name, flux_fn, eos):
    dev = contact_deviations(flux_fn, eos, trials=1000, seed=7)
    assert dev.max() <= 1e-13, dev.max()


def test_rusanov_fails_contact():
    assert contact_deviations(rusanov_flux, IdealGas(1.4), trials=200,
                              seed=3).max() > 1e-13
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


def roe_wave_by_wave(q_l, q_r, eos, normal=1):
    """The Roe flux with its waves added one by one, each |lambda| alpha r
    over the components (mass, normal momentum, transverse..., energy): the
    reference of `roe_flux`, which sums the same waves per component."""
    order = list(range(1, q_l.shape[0] - 1))
    order.remove(normal)
    order.insert(0, normal)

    def split(q):
        rho = q[0]
        vel = [q[m] / rho for m in order]
        return rho, vel, eos.pressure(rho, q[-1] - 0.5 * rho
                                      * sum(v * v for v in vel))

    (rho_l, vel_l, p_l), (rho_r, vel_r, p_r) = split(q_l), split(q_r)
    sq_l, sq_r = np.sqrt(rho_l), np.sqrt(rho_r)
    norm = sq_l + sq_r
    vel_hat = [(sq_l * q_l[k] / rho_l + sq_r * q_r[k] / rho_r) / norm
               for k in order]
    h_hat = (sq_l * (q_l[-1] + p_l) / rho_l
             + sq_r * (q_r[-1] + p_r) / rho_r) / norm
    rho_hat, u_hat = np.sqrt(rho_l * rho_r), vel_hat[0]
    ke_hat = 0.5 * sum(v * v for v in vel_hat)
    if eos.name == "ideal":
        c2, eps_rho = (eos.gamma - 1.0) * (h_hat - ke_hat), 0.0
    else:
        c_bar, eps_rho = eos.thermo(0.5 * (rho_l + rho_r), 0.5 * (p_l + p_r),
                                    "sound_speed", "deps_drho")
        c2 = c_bar ** 2
    c = np.sqrt(c2)
    dp, du = p_r - p_l, vel_r[0] - vel_l[0]
    diss = np.zeros_like(q_l)

    def add_wave(lam, alpha, r_vec):
        diss[0] += lam * alpha * r_vec[0]
        for k, comp in enumerate(order):
            diss[comp] += lam * alpha * r_vec[1 + k]
        diss[-1] += lam * alpha * r_vec[-1]

    add_wave(np.abs(u_hat - c), (dp - rho_hat * c * du) / (2.0 * c2),
             [1.0, u_hat - c] + vel_hat[1:] + [h_hat - u_hat * c])
    add_wave(np.abs(u_hat), rho_r - rho_l - dp / c2,
             [1.0, u_hat] + vel_hat[1:] + [ke_hat + eps_rho])
    for k in range(1, len(order)):      # shear waves
        r_vec = [0.0] * q_l.shape[0]
        r_vec[1 + k], r_vec[-1] = 1.0, vel_hat[k]
        add_wave(np.abs(u_hat), rho_hat * (vel_r[k] - vel_l[k]), r_vec)
    add_wave(np.abs(u_hat + c), (dp + rho_hat * c * du) / (2.0 * c2),
             [1.0, u_hat + c] + vel_hat[1:] + [h_hat + u_hat * c])
    return 0.5 * (physical_flux(q_l, p_l, normal)
                  + physical_flux(q_r, p_r, normal)) - 0.5 * diss


def states_with_transverse(rng, n, eos):
    """Random physical 2-D states (rho, m_x, m_y, E)."""
    q = random_states(rng, n, eos)
    transverse = q[0] * rng.uniform(-2, 2, n)
    q[-1] += 0.5 * transverse ** 2 / q[0]
    return np.insert(q, 2, transverse, axis=0)


@pytest.mark.parametrize("dim, normal", [(1, 1), (2, 1), (2, 2)],
                         ids=["1d", "2d-x", "2d-y"])
@pytest.mark.parametrize("eos", [IdealGas(1.4), IdealGasRadiation(1.4)],
                         ids=["ideal", "radiation"])
def test_roe_matches_wave_by_wave_reference(eos, dim, normal):
    # the per-component sums equal the wave-by-wave dissipation within
    # 1e-14 of the flux scale, in 1-D and along both normals of 2-D states
    # with transverse momentum
    rng = np.random.default_rng(23 + normal)
    make = states_with_transverse if dim == 2 else random_states
    q_l, q_r = make(rng, 400, eos), make(rng, 400, eos)
    # a stationary contact, then a pure shear across the normal
    p = 0.7
    q_l[:, 0], q_r[:, 0] = ([r] + [0.0] * dim + [eos.internal_energy(r, p)]
                            for r in (0.3, 2.0))
    q_r[:, 1] = q_l[:, 1]
    if dim == 2:
        shear = 3 - normal                  # the transverse momentum
        q_r[shear, 1] += 0.5 * q_r[0, 1]
        q_r[-1, 1] += 0.5 * (q_r[shear, 1] ** 2 - q_l[shear, 1] ** 2) \
            / q_r[0, 1]
    expected = roe_wave_by_wave(q_l, q_r, eos, normal)
    got = roe_flux(q_l, q_r, eos, normal=normal)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    np.testing.assert_allclose(got[:, 0], np.insert(np.zeros(dim + 1),
                                                    normal, p), atol=1e-15)


BAD_SIDES = {
    "nan-density": lambda q: q.__setitem__((0, 2), np.nan),
    "inf-density": lambda q: q.__setitem__((0, 2), np.inf),
    "negative-density": lambda q: q.__setitem__((0, 2), -1.0),
    "zero-eps": lambda q: q.__setitem__((slice(1, None), 2), 0.0),
    "negative-eps": lambda q: q.__setitem__((-1, 2), -1.0),
    "nan-energy": lambda q: q.__setitem__((-1, 2), np.nan),
    "inf-energy": lambda q: q.__setitem__((-1, 2), np.inf),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad", sorted(BAD_SIDES))
@pytest.mark.parametrize("flux_fn", [roe_flux, hllc_flux, rusanov_flux])
@pytest.mark.parametrize("eos", [IdealGas(1.4), IdealGasRadiation(1.4)],
                         ids=["ideal", "radiation"])
def test_flux_rejects_nonphysical_side(eos, flux_fn, bad, side):
    rng = np.random.default_rng(29)
    good, q = random_states(rng, 5, eos), random_states(rng, 5, eos)
    BAD_SIDES[bad](q)
    with pytest.raises(FluxEvaluationError):
        flux_fn(*((q, good) if side == "left" else (good, q)), eos)


@pytest.mark.parametrize("flux_fn, eos", [
    (flux_fn, eos) for eos in (IdealGas(1.4), IdealGasRadiation(1.4))
    for flux_fn in (roe_flux, hllc_flux, rusanov_flux)], ids=[
    name + suffix for suffix in ("", "-radiation")
    for name in ("roe_flux", "hllc_flux", "rusanov_flux")])
def test_fluxes_accept_no_states(flux_fn, eos):
    # the radiation inversions' input guard passes an array with no states
    empty = np.zeros((3, 0))
    assert flux_fn(empty, empty, eos).shape == (3, 0)


def count_inversions(monkeypatch):
    """Two lists that record every temperature inversion of the radiation
    EoS by its input, "eps" or "p", in order: the guarded and polished
    inversions, and those of its `closed_form` (the closed-form root
    alone)."""
    polished, closed = [], []
    closed_form = type(IdealGasRadiation(1.4).closed_form)
    for cls, calls in ((IdealGasRadiation, polished), (closed_form, closed)):
        for name in ("temperature_from_p", "temperature_from_eps"):
            monkeypatch.setattr(
                cls, name,
                lambda self, *args, _raw=cls.__dict__[name], _calls=calls,
                _kind=name.rsplit("_", 1)[1]:
                _calls.append(_kind) or _raw(self, *args))
    return polished, closed


def test_temperature_inversions_per_rhs_and_cfl(monkeypatch):
    # one 1-D radiation DWB-O3 right-hand side at the benchmark's n = 256:
    # the anchor's start, its first Newton step at the own nodes and its
    # second at the whole node set, which also yields the energies of the
    # deviations, all in closed form; the flux split of both sides, and the
    # Roe average state, polished; one CFL rate takes its pressure and
    # sound speed from one polished temperature
    from hydrobal.cases import grid_for, init_cell_averages, make_scenario
    from hydrobal.runner import make_operator

    scen = make_scenario("polytropic-radiation", perturbation=1e-3)
    scheme = Scheme("dwb", 3)
    grid = grid_for(scen, 256, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    polished, closed = count_inversions(monkeypatch)
    op.rhs(data)
    assert polished == ["eps", "p"]
    assert closed == ["eps", "p", "p"]
    polished.clear()
    cfl_rate(data[:, grid.interior], scen.eos, grid.spacing)
    assert polished == ["eps"]
    assert closed == ["eps", "p", "p"]


# inversions from eps ("eps") and from p ("p"), in order: polished, and in
# closed form
@pytest.mark.parametrize(
    "scenario, kind, n, bc, fill_only, polished, closed", [
    # the anchor's start and two Newton steps, the second of which gives
    # the energies of the deviations; the flux split and the Roe average
    ("polytropic-radiation", "la", 256, None, False,
     ["eps", "p"], ["eps", "p", "p"]),
    # the boundary cells' anchors take three steps, the last two on the
    # ghosts' nodes too: no separate ghost-energy inversion
    ("polytropic-radiation", "dwb", 64,
     ("hydrostatic-extrapolation", "solid-wall"), True, [],
     ["eps", "p", "p", "p"]),
    # three anchor steps, then per axis the flux split and the Roe average
    ("polytrope-2d", "la", 24, None, False,
     ["eps", "p", "eps", "p"], ["eps", "p", "p", "p"]),
    # the simplified anchor's pressure and the node energies stay polished,
    # besides the flux split and the Roe average
    ("polytropic-radiation", "dwb-s", 256, None, False,
     ["eps", "p", "eps", "p"], []),
    ("polytropic-radiation", "la-s", 256, None, False,
     ["eps", "p", "eps", "p"], []),
], ids=["la3-rhs", "dwb3-hydrostatic-fill", "la3-2d-rhs", "dwb-s3-rhs",
        "la-s3-rhs"])
def test_temperature_inversions_per_equilibrium(scenario, kind, n, bc,
                                                fill_only, polished, closed,
                                                monkeypatch):
    from hydrobal.cases import grid_for, init_cell_averages, make_scenario
    from hydrobal.runner import make_operator

    scen = make_scenario(scenario)
    scen.eos = IdealGasRadiation(scen.eos.gamma)
    if bc is not None:
        scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, 3)
    grid = grid_for(scen, n, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    calls = count_inversions(monkeypatch)
    op.fill_ghosts(data) if fill_only else op.rhs(data)
    assert calls == (polished, closed)
    assert op.fallback_cells == 0


@pytest.mark.parametrize("eos, tol", [(IdealGas(1.4), 0.0),
                                      (IdealGasRadiation(1.4), 1e-13)],
                         ids=["ideal", "radiation"])
def test_cfl_rate_matches_two_inversions(eos, tol):
    # the sound speed from the pressure's own temperature equals that of a
    # second inversion from the pressure: exactly for the ideal gas
    rng = np.random.default_rng(31)
    q = states_with_transverse(rng, 200, eos).reshape(4, 10, 20)
    spacing = (0.1, 0.07)
    rho, vel = q[0], q[1:-1] / q[0]
    p = eos.pressure(rho, q[-1] - 0.5 * rho * sum(u ** 2 for u in vel))
    c = eos.sound_speed(rho, p)
    expected = np.max(sum((np.abs(u) + c) / h for u, h in zip(vel, spacing)))
    assert abs(cfl_rate(q, eos, spacing) - expected) <= tol * expected


@pytest.mark.parametrize("nodes", [(), (2,)], ids=["1d", "2d"])
def test_positivity_fallback_in_one_pass(nodes):
    # one pass over the face buffer resets the same cells, on every face,
    # as a face-by-face pass, and counts every cell it is given with the
    # gate's rejected ones
    rng = np.random.default_rng(37)
    eos, cells = IdealGas(1.4), ((12,), (9, 8))[len(nodes) // 2]
    faces = [face for pair in random_faces(rng, eos, cells, nodes)
             for face in pair]
    bad = rng.random(cells) < 0.3
    for face in faces:
        face[0, ..., bad & (rng.random(cells) < 0.5)] = -1.0
    data = random_faces(rng, eos, cells)[0][0]
    good = rng.random(cells) < 0.8
    # the buffer (C, face rows, *cells), the Gauss nodes as rows
    buffer = np.stack([face if nodes else face[:, None] for face in faces],
                      axis=1)
    buffer = buffer.reshape((buffer.shape[0], -1) + cells)
    physical = np.all([physical_state(row)[1] for row in
                       np.moveaxis(buffer, 1, 0)], axis=0)
    expected = buffer.copy()
    expected[:, :, ~physical] = data[:, None, ~physical]
    count = positivity_fallback(buffer, data, good)
    assert np.array_equal(buffer, expected)
    assert count == np.count_nonzero(~good) + np.count_nonzero(~physical)
    assert not physical.all()


@pytest.mark.parametrize("nodes", [(), (2,)], ids=["1d", "2d"])
def test_positivity_fallback_is_the_physical_state_predicate(nodes):
    # the gate flags exactly the cells with a face that `physical_state`
    # rejects, over face buffers (C, face rows, *cells) with zero,
    # negative, NaN and infinite densities and energies, and eps = 0 or
    # one ulp of the energy above it, at random faces
    rng = np.random.default_rng(41)
    eos, cells = IdealGas(1.4), ((40,), (12, 11))[len(nodes)]
    rows = 2 * len(cells) * (nodes[0] if nodes else 1)
    special = [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e-300]
    for _ in range(10):
        faces = random_faces(rng, eos, cells, (rows,))[0][0]
        # eps = 0 exactly (the energy is the kinetic energy), or one ulp
        # above it
        kinetic = 0.5 * np.sum(faces[1:-1] ** 2, axis=0) / faces[0]
        for energy in (kinetic, np.nextafter(kinetic, np.inf)):
            planted = rng.random(faces.shape[1:]) < 0.1
            faces[-1][planted] = energy[planted]
        for comp in (0, -1):        # density, energy
            planted = rng.random(faces.shape[1:]) < 0.1
            faces[comp][planted] = rng.choice(special,
                                              np.count_nonzero(planted))
        data = random_faces(rng, eos, cells)[0][0]
        rejected = ~physical_state(faces)[1].all(axis=0)
        expected = faces.copy()
        expected[:, :, rejected] = data[:, None, rejected]
        count = positivity_fallback(faces, data)
        assert np.array_equal(faces, expected, equal_nan=True)
        assert count == np.count_nonzero(rejected) > 0


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


def _mirrored_pair_divergence(faces, flux_fn, eos, axes, spacing,
                              weights=None):
    """`flux_divergence` with each solid-wall flux from its own
    `wall_boundary_flux` call on the boundary cell's face state; face
    states (C, *nodes, *cells) with one ghost layer per side."""
    ng, div = 1, 0.0
    lead = (slice(None),) * (1 if weights is None else 2)
    for a, ((lo, hi), kinds, h) in enumerate(zip(faces, axes, spacing)):
        cut = lead + tuple(slice(None) if b == a else slice(ng, -ng)
                           for b in range(len(spacing)))
        lo, hi = lo[cut], hi[cut]
        along = lead + (slice(None),) * a
        end = lo.shape[len(along)] - ng
        flux = flux_fn(hi[along + (slice(ng - 1, end),)],
                       lo[along + (slice(ng, end + 1),)], eos, normal=a + 1)
        for kind, side, k, cell in ((kinds[0], "left", 0, lo[along + (ng,)]),
                                    (kinds[1], "right", -1,
                                     hi[along + (end - 1,)])):
            if kind == "solid-wall":
                flux[along + (k,)] = wall_boundary_flux(cell, eos, flux_fn,
                                                        side, normal=a + 1)
        if weights is not None:
            flux = (weights @ flux.reshape(len(flux), len(weights), -1)) \
                .reshape((len(flux),) + flux.shape[2:])
        along = (slice(None),) * (a + 1)
        div = div - (flux[along + (slice(1, None),)]
                     - flux[along + (slice(-1),)]) / h
    return div


def random_faces(rng, eos, cells, nodes=()):
    """Random physical (lo, hi) face states per axis of a ghosted grid of
    `cells`, (C, *nodes, *cells): the face nodes ahead of the cells."""
    dim = len(cells)

    def state():
        shape = nodes + cells
        rho, p = 10.0 ** rng.uniform(-1, 1, (2,) + shape)
        vel = rng.uniform(-2, 2, (dim,) + shape)
        return np.stack([rho, *(rho * vel), eos.internal_energy(rho, p)
                         + 0.5 * rho * (vel ** 2).sum(axis=0)])

    return [(state(), state()) for _ in range(dim)]


WALL, OPEN = "solid-wall", "dirichlet"
SIDES = {"left": (WALL, OPEN), "right": (OPEN, WALL), "both": (WALL, WALL)}
WALL_CASES = [pytest.param((9,), (pair,), id=f"1d-{name}")
              for name, pair in SIDES.items()] \
    + [pytest.param((9, 8), axes, id=f"2d-{xy}-{name}")
       for name, pair in SIDES.items()
       for xy, axes in (("x", (pair, (OPEN, OPEN))),
                        ("y", ((OPEN, OPEN), pair)), ("xy", (pair, pair)))]


@pytest.mark.parametrize("flux_fn", [roe_flux, hllc_flux, rusanov_flux])
@pytest.mark.parametrize("cells, axes", WALL_CASES)
def test_wall_sides_in_one_flux_call(cells, axes, flux_fn):
    # the mirrored boundary state takes the ghost's inner face, so every
    # axis makes one flux call, and the divergence equals the per-side
    # mirrored pairs bit for bit; 2-D faces carry a Gauss-node axis ahead
    # of the cells
    rng = np.random.default_rng(17)
    spacing = (0.1, 0.07)[:len(cells)]
    nodes, weights = ((2,), np.array([0.5, 0.5])) if len(cells) == 2 \
        else ((), None)
    for eos in (IdealGas(1.4), IdealGasRadiation(1.4)):
        faces = random_faces(rng, eos, cells, nodes)
        expected = _mirrored_pair_divergence(faces, flux_fn, eos, axes,
                                             spacing, weights)
        calls = []

        def counting(*args, **kw):
            calls.append(kw["normal"])
            return flux_fn(*args, **kw)

        got = flux_divergence([(lo.copy(), hi.copy()) for lo, hi in faces],
                              counting, eos, axes, spacing, weights)
        assert np.array_equal(got, expected)
        assert calls == list(range(1, len(cells) + 1))


@pytest.mark.parametrize("scenario, bc", [
    ("isothermal-10x", ("hydrostatic-extrapolation", WALL)),
    ("isothermal-10x", (WALL, WALL)),
    ("radial-rayleigh-taylor", None)])
def test_operator_makes_one_flux_call_per_axis(scenario, bc):
    # a right-hand side with solid walls calls the flux once per axis
    from hydrobal.cases import grid_for, init_cell_averages, make_scenario
    from hydrobal.runner import make_operator

    scen = make_scenario(scenario)
    if bc is not None:
        scen.boundary = BoundarySpec1D(*bc)
    assert WALL in (kind for pair in scen.boundary.axes for kind in pair)
    scheme = Scheme("dwb" if bc else "la", 3)
    grid = grid_for(scen, 16, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    calls, raw = [], op.flux_fn
    op.flux_fn = lambda *args, **kw: calls.append(kw["normal"]) \
        or raw(*args, **kw)
    assert np.all(np.isfinite(op.rhs(data)))
    assert calls == list(range(1, len(grid.cells) + 1))


@pytest.mark.parametrize("scenario, kind, order, bc", [
    ("isothermal-perturbed", "dwb", 3, None),
    ("isothermal-perturbed", "dwb", 5, None),
    ("isothermal-10x", "dwb", 3, ("hydrostatic-extrapolation", WALL)),
    ("polytrope-2d", "la", 3, None),
    ("polytrope-2d", "standard", 3, (WALL,) * 4),
    ("radial-rayleigh-taylor", "la-s", 3, None)],
    ids=["1d-periodic", "1d-periodic-dwb5", "1d-wall", "2d-dirichlet",
         "2d-wall", "2d-background"])
@pytest.mark.parametrize("flux", ["roe", "hllc", "rusanov"])
def test_operator_flux_pairs_are_c_ordered(scenario, kind, order, bc, flux,
                                           monkeypatch):
    # every flux call of the operator takes face states whose stacked pair
    # is C-ordered (a 2-D face's Gauss-node axis ahead of its cells, not
    # strided by the cell count): a spy on the flux table fails otherwise;
    # the frame reads the flux band alone, the n + 2 cells per axis of the
    # interior and one ghost layer per side: a spy on the positivity
    # fallback fails otherwise
    from hydrobal import operator1d, physics
    from hydrobal.cases import grid_for, init_cell_averages, make_scenario
    from hydrobal.runner import make_operator

    calls, spans = [], []

    def spy(fn):
        def checked(q_l, q_r, eos, normal=1):
            pair = np.stack([q_l, q_r], axis=1)
            assert pair.flags.c_contiguous, [q.strides for q in (q_l, q_r)]
            calls.append(normal)
            return fn(q_l, q_r, eos, normal=normal)
        return checked

    def fallback(faces, data, good=None):
        spans.append((faces.shape[2:], data.shape[1:]))
        return positivity_fallback(faces, data, good)

    for name, fn in physics.FLUXES.items():
        monkeypatch.setitem(physics.FLUXES, name, spy(fn))
    monkeypatch.setattr(operator1d, "positivity_fallback", fallback)
    scen = make_scenario(scenario, **({"eta": 1e-3} if "perturbed" in
                                      scenario else {}))
    if bc is not None:
        scen.boundary = (BoundarySpec1D if len(bc) == 2 else
                         BoundarySpec2D)(*bc)
    scheme = Scheme(kind, order, flux)
    grid = grid_for(scen, 16, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    assert np.all(np.isfinite(op.rhs(data)))
    assert calls == list(range(1, len(grid.cells) + 1))
    flux_band = tuple(n + 2 for n in grid.cells)
    assert spans == [(flux_band, flux_band)]


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
    op = SpatialOperator(grid, Scheme("standard", 3), IdealGas(1.4),
                         lambda x: g * np.ones_like(x), BoundarySpec1D())
    data = np.empty((3, grid.shape_tot[0]))
    data[:] = np.array([rho, rho * u, 2.5 + 0.5 * rho * u ** 2])[:, None]
    return op.rhs(data)[:, grid.interior]


def sources_2d(rec, gravity, hx=0.1, hy=0.1):
    """Exact 2-D source means of per-cell reconstructions `rec` (4, 6)."""
    grid = Grid((0.0, 6 * hx, 0.0, 6 * hy), (6, 6), 2)
    op = SpatialOperator(grid, Scheme("la", 3), IdealGas(1.4),
                         lambda x, y: gravity(x + 0 * y, y + 0 * x),
                         BoundarySpec2D(*["periodic"] * 4))
    # cells last, over the flux band: ghosted cell (4, 4) is band cell (3, 3)
    rec = np.broadcast_to(np.asarray(rec, dtype=float)[:, :, None],
                          (4, 6, np.prod(op._shape)))
    return op._sources(rec)[:, 3, 3], op


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
            op = SpatialOperator(
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

        cell = np.ravel_multi_index((3, 3), op._shape)   # of the band
        gx, gy = (value(g[:, cell], op._exps[1]) for g in op._g_rows)
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
        # the cells whose stencil fits, from cell r on
        rec = np.swapaxes(op.cweno.coefficients(filled), -1, -2)
        physical = physical_state(poly_eval(rec, -0.5 * h))[1] \
            & physical_state(poly_eval(rec, 0.5 * h))[1]
        r = op.scheme.radius
        flagged = ~physical[ng - 1 - r:ng + n + 1 - r]
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
        rec = op.cweno.coefficients(filled)   # the flux band's cells
        nodes_x, _ = gauss_nodes_weights_centered(2, hx)
        nodes_y, _ = gauss_nodes_weights_centered(2, hy)
        physical = np.ones(rec.shape[2:], dtype=bool)
        for x, y in ((-0.5 * hx, nodes_y), (0.5 * hx, nodes_y),
                     (nodes_x, -0.5 * hy), (nodes_x, 0.5 * hy)):
            x, y = np.broadcast_arrays(x, y)
            face = sum(rec[:, k, ..., None] * x ** a * y ** b
                       for k, (a, b) in enumerate(MONOMIALS_DEG2))
            physical &= np.all(physical_state(face)[1], axis=-1)
        flagged = ~physical
        assert flagged[i - g + 1, j - g + 1]

        out = op.rhs(data)
        assert np.all(np.isfinite(out))
        assert op.fallback_cells == int(np.sum(flagged))
        x_call, y_call = calls
        raw = get_flux(Scheme("standard", 3).flux)
        a, b = i - g, j - g
        # the face states (C, nodes, X, Y)
        nodes = (slice(None), slice(None))
        self._assert_cell_fluxes(x_call, raw, scen.eos, data[:, i, j],
                                 nodes + (a + 1, b), nodes + (a, b))
        self._assert_cell_fluxes(y_call, raw, scen.eos, data[:, i, j],
                                 nodes + (a, b + 1), nodes + (a, b))
