"""Numerical fluxes, the physical-state predicate, and the
dimension-independent finite-volume frame of the spatial operator.

Flux functions act on conserved states stacked on the leading axis; the
`normal` argument names the momentum component that faces the interface
(1 for x, 2 for y).  All fluxes are consistent, Lipschitz, and - except for
the Rusanov control - satisfy the contact property: a stationary contact
(u = 0, equal pressure) returns exactly (0, p, 0[, 0]).

The frame (positivity fallback, flux divergence, CFL rate) works on states
(C, *cells), ghosts included, and on the operator's one face buffer
(C, face rows, *cells): a cell's reconstruction at all of its faces (1-D:
lo, hi; 2-D: the Gauss nodes of xl, xr, yl, yr), cells last.  The
positivity fallback checks the whole buffer in one pass, and the flux
divergence takes per cell axis a (lo, hi) pair of views of it, with a
trailing axis of Gauss nodes where faces carry them (2-D).
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


def split_conserved(q, eos, *names):
    """Conserved -> (rho, velocities, pressure, *quantities). Raises on
    non-physical input.

    The velocities are one array (momenta..., *cells); `names` asks for
    `thermo` quantities from the pressure's own temperature.  The fluxes
    split their left and right states stacked on axis 1: one EoS inversion.
    """
    q = np.asarray(q, dtype=float)
    rho = q[0]
    # a NaN is the minimum of an array that holds one and fails both tests;
    # the initial values let an array with no states pass
    if not (rho.min(initial=np.inf) > 0.0 and rho.max(initial=0.0) < np.inf):
        raise FluxEvaluationError("non-positive or non-finite density in flux input")
    vel = q[1:-1] / rho
    eps = q[-1] - 0.5 * rho * sum(v * v for v in vel)
    if eps.min(initial=np.inf) <= 0.0:
        raise FluxEvaluationError("non-positive internal energy in flux input")
    return (rho, vel) + eos.thermo_eps(rho, eps, *names)


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


def _roe_averages(rho, momenta, ep):
    """Roe averages of two sides (axis 0 of `rho` and of E + p `ep`, axis 1
    of `momenta`): the density, the velocities and the enthalpy."""
    sq = np.sqrt(rho)
    norm = sq[0] + sq[1]
    vel = sq * momenta / rho
    h = sq * (ep / rho)
    return (np.sqrt(rho[0] * rho[1]), (vel[:, 0] + vel[:, 1]) / norm,
            (h[0] + h[1]) / norm)


def roe_flux(q_l, q_r, eos, normal=1):
    """Roe-type flux (Roe, JCP 43, 1981; Toro 2009): the classic
    linearization for ideal gas, and a general-EoS variant with the sound
    speed c and d eps/d rho at the arithmetic-average state otherwise.

    The waves are summed per component.  At the Roe average (rho~, u~ with
    normal component u~_n, H~, ke~), with wave strengths a_-, a_0, a_+ and
    speeds u~_n - c, u~_n, u~_n + c, let s = |l_-| a_- + |l_+| a_+,
    d = c (|l_+| a_+ - |l_-| a_-), z = |l_0| a_0, and w the shear
    |l_0| rho~ (v_R - v_L) in the transverse components and d in the normal
    one.  The dissipation is z + s for mass, (z + s) u~ + w for momentum and
    s H~ + z (ke~ + eps_rho) + w . u~ for energy; the flux is
    (F(q_l) + F(q_r) - D) / 2.
    """
    q = np.stack([q_l, q_r], axis=1)
    rho, vel, p = split_conserved(q, eos)
    ep = q[-1] + p
    rho_hat, vel_hat, h_hat = _roe_averages(rho, q[1:-1], ep)
    k = normal - 1
    u = vel_hat[k]
    ke_hat = 0.5 * sum(v * v for v in vel_hat)
    if eos.name == "ideal":
        c2 = (eos.gamma - 1.0) * (h_hat - ke_hat)
    else:
        c_bar, eps_rho = eos.thermo(0.5 * (rho[0] + rho[1]), 0.5 * (p[0] + p[1]),
                                    "sound_speed", "deps_drho")
        c2 = c_bar ** 2
        ke_hat = ke_hat + eps_rho      # the contact vector's energy entry
    c = np.sqrt(c2)

    dp = p[1] - p[0]
    jump = rho_hat * c * (vel[k, 1] - vel[k, 0])
    minus = np.abs(u - c) * (dp - jump) / (2.0 * c2)
    plus = np.abs(u + c) * (dp + jump) / (2.0 * c2)
    speed = np.abs(u)
    z = speed * (rho[1] - rho[0] - dp / c2)
    s = minus + plus
    w = (speed * rho_hat) * (vel[:, 1] - vel[:, 0]) if len(vel) > 1 \
        else np.empty(vel_hat.shape)     # the shear waves, d in the normal row
    w[k] = c * (plus - minus)

    # the physical fluxes of both sides summed, less the dissipation
    un = vel[k]
    flux = q * un
    flux[0] = q[normal]
    flux[normal] += p
    flux[-1] = ep * un
    out = flux[:, 0] + flux[:, 1]
    zs = z + s
    out[0] -= zs
    out[1:-1] -= zs * vel_hat + w
    out[-1] -= s * h_hat + z * ke_hat + sum(w * vel_hat)
    out *= 0.5
    return out


def hllc_flux(q_l, q_r, eos, normal=1):
    """HLLC flux with Einfeldt-type wave-speed bounds from Roe averages."""
    q_l = np.asarray(q_l, dtype=float)
    q_r = np.asarray(q_r, dtype=float)
    q = np.stack([q_l, q_r], axis=1)
    rho, vel, p, c = split_conserved(q, eos, "sound_speed")
    (rho_l, rho_r), (p_l, p_r), (c_l, c_r) = rho, p, c
    u_l, u_r = vel[normal - 1]
    rho_hat, vel_hat, h_hat = _roe_averages(rho, q[1:-1], q[-1] + p)
    if eos.name == "ideal":
        c_hat = np.sqrt((eos.gamma - 1.0) *
                        (h_hat - 0.5 * sum(v * v for v in vel_hat)))
    else:  # at the arithmetic-average state
        c_hat = eos.sound_speed(0.5 * (rho_l + rho_r), 0.5 * (p_l + p_r))
    s_l = np.minimum(u_l - c_l, vel_hat[normal - 1] - c_hat)
    s_r = np.maximum(u_r + c_r, vel_hat[normal - 1] + c_hat)

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
    q = np.stack([q_l, q_r], axis=1)
    rho, vel, p, c = split_conserved(q, eos, "sound_speed")
    s = (np.abs(vel[normal - 1]) + c).max(axis=0)
    flux = physical_flux(q, p, normal)
    return 0.5 * (flux[:, 0] + flux[:, 1]) - 0.5 * s * (q[:, 1] - q[:, 0])


FLUXES = {"roe": roe_flux, "hllc": hllc_flux, "rusanov": rusanov_flux}


def get_flux(name):
    if name not in FLUXES:
        raise ConfigurationError(
            f"unknown flux {name!r}; expected one of {sorted(FLUXES)}")
    return FLUXES[name]


def wall_boundary_flux(q_state, eos, flux_fn, side, normal=1):
    """Solid-wall flux from the wall-side reconstructed state, in a call of
    its own: the tests' reference for the walls of `flux_divergence`.

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
    state gets its cell average on all of its faces.  `faces` is the
    operator's one face buffer (C, face rows, *cells), all face states of a
    cell in its rows.  Returns how many cells of the band the flux
    divergence reads (the interior cells plus one ghost layer per side)
    fell back: those the gate `good` (over that band) marks False (the
    cells where the well-balanced reconstruction failed) plus those reset
    here."""
    band = tuple(slice(n_ghost - 1, n + 1 - n_ghost) for n in data.shape[1:])
    count = 0 if good is None else int(np.count_nonzero(~good))
    physical = physical_state(faces)[1].all(axis=0)
    if physical.all():
        return count
    bad = ~physical
    faces[:, :, bad] = data[:, None, bad]
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
    """max over cells of sum_a (|u_a| + c) / h_a; dt = cfl / rate.  The
    pressure and sound speed come from one temperature."""
    rho = q[0]
    vel = q[1:-1] / rho
    c = eos.thermo_eps(rho, q[-1] - 0.5 * rho * sum(u ** 2 for u in vel),
                       "sound_speed")[1]
    return np.max(sum((np.abs(u) + c) / h for u, h in zip(vel, spacing)))
