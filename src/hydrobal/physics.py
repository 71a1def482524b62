"""Numerical fluxes, the physical-state predicate, and the
dimension-independent finite-volume frame of both spatial operators.

Flux functions act on conserved states stacked on the leading axis; the
`normal` argument names the momentum component that faces the interface
(1 for x, 2 for y).  All fluxes are consistent, Lipschitz, and - except for
the Rusanov control - satisfy the contact property: a stationary contact
(u = 0, equal pressure) returns exactly (0, p, 0[, 0]).

The frame (positivity fallback, flux divergence, CFL rate) works on states
(C, *cells), ghosts included, and on face states given per cell axis as a
(lo, hi) pair: each cell's reconstruction at its lower and upper face along
that axis, with a trailing axis of Gauss nodes where faces carry them (2-D).
A solid wall is the flux against the boundary cell's mirror image (Toro,
Riemann Solvers and Numerical Methods for Fluid Dynamics, 3rd ed., 2009),
written into the ghost's inner face: one flux call per axis, walls included.
"""

import numpy as np

from .errors import ConfigurationError, FluxEvaluationError


def physical_state(q):
    """Internal energy and the physical-state predicate of conserved states.

    `q` stacks (rho, momenta..., E) on axis 0, with any number of momentum
    components.  Returns (eps, ok): eps = E - |m|^2 / (2 rho), evaluated
    with rho = 1 where rho <= 0, and ok = rho > 0 and eps > 0 pointwise.
    """
    positive = q[0] > 0.0
    rho = np.where(positive, q[0], 1.0)
    eps = q[-1] - 0.5 * np.sum(q[1:-1] ** 2, axis=0) / rho
    return eps, positive & (eps > 0.0)


def _momentum_order(n_comp, normal):
    """Momentum component indices, normal first."""
    momenta = list(range(1, n_comp - 1))
    if normal != 1:
        momenta.remove(normal)
        momenta.insert(0, normal)
    return momenta


def split_conserved(q, eos, normal=1):
    """Conserved -> (rho, velocities, pressure). Raises on non-physical input.

    `normal` selects which momentum component faces the interface; the
    returned velocity list starts with it.
    """
    q = np.asarray(q, dtype=float)
    rho = q[0]
    if np.any(~np.isfinite(rho)) or np.any(rho <= 0.0):
        raise FluxEvaluationError("non-positive or non-finite density in flux input")
    vel = [q[m] / rho for m in _momentum_order(q.shape[0], normal)]
    eps = q[-1] - 0.5 * rho * sum(v * v for v in vel)
    if np.any(eps <= 0.0):
        raise FluxEvaluationError("non-positive internal energy in flux input")
    return rho, vel, eos.pressure(rho, eps)


def _split_pair(q_l, q_r, eos, normal):
    """`split_conserved` of the left and right states in one call (one EoS
    inversion for both): ((rho, velocities, p) left, the same right)."""
    rho, vel, p = split_conserved(np.stack([q_l, q_r], axis=1), eos, normal)
    return ((rho[0], [v[0] for v in vel], p[0]),
            (rho[1], [v[1] for v in vel], p[1]))


def physical_flux(q, p, normal=1):
    """Euler flux along the chosen normal momentum component."""
    q = np.asarray(q, dtype=float)
    rho = q[0]
    u = q[normal] / rho
    out = np.empty_like(q)
    out[0] = q[normal]
    for k in range(1, q.shape[0] - 1):
        out[k] = q[k] * u
    out[normal] += p
    out[-1] = (q[-1] + p) * u
    return out


def _roe_averages(q_l, q_r, p_l, p_r, eos, normal=1):
    rho_l, rho_r = q_l[0], q_r[0]
    sq_l, sq_r = np.sqrt(rho_l), np.sqrt(rho_r)
    norm = sq_l + sq_r
    vel_hat = [(sq_l * q_l[k] / rho_l + sq_r * q_r[k] / rho_r) / norm
               for k in _momentum_order(q_l.shape[0], normal)]
    h_l = (q_l[-1] + p_l) / rho_l
    h_r = (q_r[-1] + p_r) / rho_r
    h_hat = (sq_l * h_l + sq_r * h_r) / norm
    return np.sqrt(rho_l * rho_r), vel_hat, h_hat


def roe_flux(q_l, q_r, eos, normal=1):
    """Roe-type flux; the classic linearization for ideal gas, and a
    general-EoS variant with the effective sound speed evaluated at the
    arithmetic-average state otherwise."""
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    (rho_l, vel_l, p_l), (rho_r, vel_r, p_r) = _split_pair(q_l, q_r, eos,
                                                           normal)
    rho_hat, vel_hat, h_hat = _roe_averages(q_l, q_r, p_l, p_r, eos, normal)
    u_hat = vel_hat[0]
    ke_hat = 0.5 * sum(v * v for v in vel_hat)

    if eos.name == "ideal":
        c2 = (eos.gamma - 1.0) * (h_hat - ke_hat)
        eps_rho = 0.0
    else:
        rho_bar = 0.5 * (rho_l + rho_r)
        p_bar = 0.5 * (p_l + p_r)
        c_bar, eps_rho = eos.thermo(rho_bar, p_bar, "sound_speed", "deps_drho")
        c2 = c_bar ** 2
    c = np.sqrt(c2)

    dp = p_r - p_l
    du = vel_r[0] - vel_l[0]
    drho = rho_r - rho_l
    alpha_minus = (dp - rho_hat * c * du) / (2.0 * c2)
    alpha_contact = drho - dp / c2
    alpha_plus = (dp + rho_hat * c * du) / (2.0 * c2)

    lam_minus = np.abs(u_hat - c)
    lam_contact = np.abs(u_hat)
    lam_plus = np.abs(u_hat + c)

    ncomp = q_l.shape[0]
    order = _momentum_order(ncomp, normal)
    diss = np.zeros_like(q_l)

    def add_wave(lam, alpha, r_vec):
        # r_vec lists (mass, normal momentum, transverse..., energy)
        contrib = lam * alpha
        diss[0] += contrib * r_vec[0]
        for k, comp in enumerate(order):
            diss[comp] += contrib * r_vec[1 + k]
        diss[-1] += contrib * r_vec[-1]

    add_wave(lam_minus, alpha_minus,
             [1.0, u_hat - c] + vel_hat[1:] + [h_hat - u_hat * c])
    add_wave(lam_contact, alpha_contact,
             [1.0, u_hat] + vel_hat[1:] + [ke_hat + eps_rho])
    for k in range(1, ncomp - 2):  # shear waves carry transverse momentum jumps
        dw = vel_r[k] - vel_l[k]
        r_vec = [0.0] * ncomp
        r_vec[1 + k] = 1.0
        r_vec[-1] = vel_hat[k]
        add_wave(lam_contact, rho_hat * dw, r_vec)
    add_wave(lam_plus, alpha_plus,
             [1.0, u_hat + c] + vel_hat[1:] + [h_hat + u_hat * c])

    return 0.5 * (physical_flux(q_l, p_l, normal)
                  + physical_flux(q_r, p_r, normal)) - 0.5 * diss


def hllc_flux(q_l, q_r, eos, normal=1):
    """HLLC flux with Einfeldt-type wave-speed bounds from Roe averages."""
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    (rho_l, vel_l, p_l), (rho_r, vel_r, p_r) = _split_pair(q_l, q_r, eos,
                                                           normal)
    u_l, u_r = vel_l[0], vel_r[0]
    rho_hat, vel_hat, h_hat = _roe_averages(q_l, q_r, p_l, p_r, eos, normal)
    if eos.name == "ideal":
        c_l = eos.sound_speed(rho_l, p_l)
        c_r = eos.sound_speed(rho_r, p_r)
        c_hat = np.sqrt((eos.gamma - 1.0) *
                        (h_hat - 0.5 * sum(v * v for v in vel_hat)))
    else:  # the left, right and arithmetic-average states in one inversion
        c_l, c_r, c_hat = eos.thermo(
            np.stack([rho_l, rho_r, 0.5 * (rho_l + rho_r)]),
            np.stack([p_l, p_r, 0.5 * (p_l + p_r)]), "sound_speed")[0]
    s_l = np.minimum(u_l - c_l, vel_hat[0] - c_hat)
    s_r = np.maximum(u_r + c_r, vel_hat[0] + c_hat)

    denom = rho_l * (s_l - u_l) - rho_r * (s_r - u_r)
    s_star = (p_r - p_l + rho_l * u_l * (s_l - u_l)
              - rho_r * u_r * (s_r - u_r)) / denom

    def star_state(q, rho, u, p, s):
        factor = rho * (s - u) / (s - s_star)
        out = np.empty_like(q)
        out[0] = factor
        for k in range(1, q.shape[0] - 1):
            out[k] = factor * q[k] / rho
        out[normal] = factor * s_star
        out[-1] = factor * (q[-1] / rho
                            + (s_star - u) * (s_star + p / (rho * (s - u))))
        return out

    f_l = physical_flux(q_l, p_l, normal)
    f_r = physical_flux(q_r, p_r, normal)
    f_star_l = f_l + s_l * (star_state(q_l, rho_l, u_l, p_l, s_l) - q_l)
    f_star_r = f_r + s_r * (star_state(q_r, rho_r, u_r, p_r, s_r) - q_r)

    out = np.where(s_l >= 0.0, f_l,
                   np.where(s_star >= 0.0, f_star_l,
                            np.where(s_r >= 0.0, f_star_r, f_r)))
    return out


def rusanov_flux(q_l, q_r, eos, normal=1):
    """Local Lax-Friedrichs flux; no contact property (negative control)."""
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    (rho_l, vel_l, p_l), (rho_r, vel_r, p_r) = _split_pair(q_l, q_r, eos,
                                                           normal)
    s = np.maximum(np.abs(vel_l[0]) + eos.sound_speed(rho_l, p_l),
                   np.abs(vel_r[0]) + eos.sound_speed(rho_r, p_r))
    return 0.5 * (physical_flux(q_l, p_l, normal) + physical_flux(q_r, p_r, normal)) \
        - 0.5 * s * (q_r - q_l)


FLUXES = {"roe": roe_flux, "hllc": hllc_flux, "rusanov": rusanov_flux}


def get_flux(name):
    if name not in FLUXES:
        raise ConfigurationError(
            f"unknown flux {name!r}; expected one of {sorted(FLUXES)}")
    return FLUXES[name]


def wall_boundary_flux(q_state, eos, flux_fn, side, normal=1):
    """Solid-wall flux from the wall-side reconstructed state, in a call of
    its own: the self-checks' reference for the walls of `flux_divergence`.

    Mirrors the normal momentum; mass and energy components vanish by the
    symmetry of the flux, the momentum component is the wall pressure.
    """
    q_state = np.asarray(q_state, dtype=float)
    mirrored = q_state.copy()
    mirrored[normal] = -mirrored[normal]
    if side == "left":  # wall on the left: ghost state first
        return flux_fn(mirrored, q_state, eos, normal=normal)
    return flux_fn(q_state, mirrored, eos, normal=normal)


def positivity_fallback(faces, data, n_ghost, good=None):
    """First-order fallback, in place: every cell with a non-physical face
    state gets its cell average on all of its faces.  Returns how many cells
    of the band the flux divergence reads (the interior cells plus one ghost
    layer per side) fell back: those `good` marks False (the cells where the
    well-balanced reconstruction failed) plus those reset here."""
    band = tuple(slice(n_ghost - 1, n + 1 - n_ghost) for n in data.shape[1:])
    count = 0 if good is None else int(np.count_nonzero(~good[band]))
    physical = True
    for face in (face for pair in faces for face in pair):
        ok = physical_state(face)[1]
        physical = physical & (ok if ok.ndim < data.ndim else ok.all(axis=-1))
    if physical.all():
        return count
    bad = ~physical
    average = data[:, bad]
    for face in (face for pair in faces for face in pair):
        face[:, bad] = average if face.ndim == data.ndim else average[..., None]
    return count + int(np.count_nonzero(bad[band]))


def flux_divergence(faces, flux_fn, eos, axes, spacing, n_ghost, weights=None):
    """-sum_a (F_a(i + 1/2) - F_a(i - 1/2)) / h_a over the interior cells.

    An interface flux is `flux_fn` of the hi face state of the cell below
    and the lo face state of the cell above, one call per axis; on a
    "solid-wall" side of `axes` the ghost's inner face is overwritten by
    the boundary cell's mirrored face state.  `weights` average the fluxes
    over the Gauss nodes of faces that carry them.
    """
    ng = n_ghost
    div = 0.0
    for a, ((lo, hi), kinds, h) in enumerate(zip(faces, axes, spacing)):
        # every cell along axis a, the interior cells along the others
        cut = (slice(None),) + tuple(slice(None) if b == a else slice(ng, -ng)
                                     for b in range(len(spacing)))
        lo, hi = lo[cut], hi[cut]
        along = (slice(None),) * (a + 1)
        end = lo.shape[a + 1] - ng            # the first upper ghost
        # (ghost face, its index, boundary cell face, its index) per side
        for kind, (ghost, g, cell, c) in zip(kinds, ((hi, ng - 1, lo, ng),
                                                     (lo, end, hi, end - 1))):
            if kind == "solid-wall":
                ghost[along + (g,)] = cell[along + (c,)]
                ghost[(a + 1,) + along[1:] + (g,)] *= -1.0
        flux = flux_fn(hi[along + (slice(ng - 1, end),)],
                       lo[along + (slice(ng, end + 1),)], eos, normal=a + 1)
        if weights is not None:
            flux = flux @ weights
        div = div - (flux[along + (slice(1, None),)] - flux[along + (slice(-1),)]) / h
    return div


def cfl_rate(q, eos, spacing):
    """max over cells of sum_a (|u_a| + c) / h_a; dt = cfl / rate."""
    rho = q[0]
    vel = q[1:-1] / rho
    p = eos.pressure(rho, q[-1] - 0.5 * rho * sum(u ** 2 for u in vel))
    c = eos.sound_speed(rho, p)
    return np.max(sum((np.abs(u) + c) / h for u, h in zip(vel, spacing)))


def contact_property_check(flux_fn, eos, trials=1000, seed=0, tol=1e-13):
    """Randomized stationary-contact trials; returns a small report dict."""
    rng = np.random.default_rng(seed)
    rho_l = 10.0 ** rng.uniform(-2, 2, trials)
    rho_r = 10.0 ** rng.uniform(-2, 2, trials)
    p = 10.0 ** rng.uniform(-2, 2, trials)
    zeros = np.zeros(trials)
    q_l = np.stack([rho_l, zeros, eos.internal_energy(rho_l, p)])
    q_r = np.stack([rho_r, zeros, eos.internal_energy(rho_r, p)])
    flux = flux_fn(q_l, q_r, eos)
    dev = np.max(np.abs(flux - np.stack([zeros, p, zeros])) / np.maximum(p, 1.0),
                 axis=0)
    return {
        "trials": trials,
        "max_deviation": float(np.max(dev)),
        "passed": int(np.sum(dev <= tol)),
        "ok": bool(np.all(dev <= tol)),
    }
