"""Numerical fluxes, the physical-state predicate, and the
dimension-independent finite-volume frame of the spatial operator.

Flux functions act on conserved states stacked on the leading axis; the
`normal` argument names the momentum component that faces the interface
(1 for x, 2 for y).  All fluxes are consistent, Lipschitz, and - except for
the Rusanov control - satisfy the contact property: a stationary contact
(u = 0, equal pressure) returns exactly (0, p, 0[, 0]).  Each stacks its
two sides into one C-ordered pair and splits it in one call.

The frame (positivity fallback, flux divergence) works on the flux band,
the interior cells and one ghost layer per side: on its states (C, *cells)
and on the operator's one face buffer (C, face rows, *cells), a cell's
reconstruction at all of its faces (1-D: lo, hi; 2-D: the Gauss nodes of
xl, xr, yl, yr), cells last.  The CFL rate reads the interior states.  The
positivity fallback checks the whole buffer in one pass, and the flux
divergence takes per cell axis a (lo, hi) pair of views of it, with a
leading axis of Gauss nodes, after the components, where faces carry them
(2-D): each view is then C-ordered, as the flux's pair.
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


def stacked_pair(q_l, q_r):
    """The two sides of a flux call as one C-ordered array (C, 2, *faces)."""
    shape = np.shape(q_l)
    q = np.empty((shape[0], 2) + shape[1:])
    q[:, 0] = q_l
    q[:, 1] = q_r
    return q


def split_conserved(q, eos, *names):
    """Conserved -> (rho, velocities, pressure, *quantities). Raises on
    non-physical input.

    The velocities are one array (momenta..., *cells); `names` asks for
    `thermo` quantities from the pressure's own temperature.  The fluxes
    split their `stacked_pair`: one EoS inversion for both sides.  The
    checks are direct reductions, and rho |u|^2 is m . u.
    """
    rho = q[0]
    # a NaN is the minimum of an array that holds one and fails both tests;
    # the initial values let an array with no states pass
    if not (np.minimum.reduce(rho, None, initial=np.inf) > 0.0
            and np.maximum.reduce(rho, None, initial=0.0) < np.inf):
        raise FluxEvaluationError("non-positive or non-finite density in flux input")
    vel = q[1:-1] / rho
    eps = q[-1] - 0.5 * np.add.reduce(q[1:-1] * vel)
    if not (np.minimum.reduce(eps, None, initial=np.inf) > 0.0
            and np.maximum.reduce(eps, None, initial=0.0) < np.inf):
        raise FluxEvaluationError(
            "non-positive or non-finite internal energy in flux input")
    return (rho, vel) + eos.thermo_eps(rho, eps, *names)


def physical_flux(q, p, normal=1):
    """Euler flux along the chosen normal momentum component."""
    q = np.asarray(q, dtype=float)
    u = q[normal] / q[0]
    out = q * u
    out[0] = q[normal]
    out[normal] += p
    out[-1] = (q[-1] + p) * u
    return out


def _roe_means(q, rho, p):
    """sqrt(rho) and the Roe averages (velocities..., H) of a stacked pair:
    the weights sqrt(rho) / (sqrt(rho_l) + sqrt(rho_r)), per unit density,
    applied to (momenta..., E + p) in one weighted sum."""
    sq = np.sqrt(rho)
    weight = 1.0 / (sq * (sq[0] + sq[1]))
    terms = q[1:] * weight
    terms[-1] += p * weight
    return sq, terms[:, 0] + terms[:, 1]


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
    q = stacked_pair(q_l, q_r)
    rho, vel, p = split_conserved(q, eos)
    sq, hat = _roe_means(q, rho, p)
    vel_hat, h_hat = hat[:-1], hat[-1]
    k = normal - 1
    u = vel_hat[k]
    ke_hat = 0.5 * np.add.reduce(vel_hat * vel_hat)
    if eos.name == "ideal":
        c2 = (eos.gamma - 1.0) * (h_hat - ke_hat)
    else:
        c_bar, eps_rho = eos.thermo(0.5 * (rho[0] + rho[1]), 0.5 * (p[0] + p[1]),
                                    "sound_speed", "deps_drho")
        c2 = c_bar * c_bar
        ke_hat = ke_hat + eps_rho      # the contact vector's energy entry
    c = np.sqrt(c2)

    # the acoustic waves share 0.5 / c^2: a_-+ = a -+ b with a = dp / (2 c^2)
    # and b = rho~ c du / (2 c^2), rho~ = sqrt(rho_l) sqrt(rho_r)
    half = 0.5 / c2
    rho_hat = sq[0] * sq[1]
    dv = vel[:, 1] - vel[:, 0]
    a = p[1] - p[0]
    a *= half
    b = rho_hat * c
    b *= dv[k]
    b *= half
    minus = np.abs(u - c)
    minus *= a - b
    plus = np.abs(u + c)
    plus *= a + b
    speed = np.abs(u)
    z = rho[1] - rho[0]
    z -= a + a
    z *= speed
    s = minus + plus
    w = (speed * rho_hat) * dv if len(vel) > 1 \
        else np.empty(dv.shape)     # the shear waves, d in the normal row
    plus -= minus
    w[k] = c * plus

    # the physical fluxes of both sides summed, less the dissipation
    un = vel[k]
    flux = q[1:] * un
    flux[k] += p
    flux[-1] += p * un
    out = np.empty((len(q),) + np.shape(u))
    out[0] = q[normal, 0] + q[normal, 1]
    np.add(flux[:, 0], flux[:, 1], out=out[1:])
    energy = s * h_hat
    energy += z * ke_hat
    energy += np.add.reduce(w * vel_hat)
    out[-1] -= energy
    z += s
    out[0] -= z
    w += z * vel_hat
    out[1:-1] -= w
    out *= 0.5
    return out


def hllc_flux(q_l, q_r, eos, normal=1):
    """HLLC flux with Einfeldt-type wave-speed bounds from Roe averages."""
    q = stacked_pair(q_l, q_r)
    rho, vel, p, c = split_conserved(q, eos, "sound_speed")
    k = normal - 1
    u = vel[k]
    hat = _roe_means(q, rho, p)[1]
    if eos.name == "ideal":
        c_hat = np.sqrt((eos.gamma - 1.0) *
                        (hat[-1] - 0.5 * np.add.reduce(hat[:-1] * hat[:-1])))
    else:  # at the arithmetic-average state
        c_hat = eos.sound_speed(0.5 * (rho[0] + rho[1]), 0.5 * (p[0] + p[1]))
    # the left and right wave speeds, and rho (s - u) of each side
    s = np.empty(rho.shape)
    s[0] = np.minimum(u[0] - c[0], hat[k] - c_hat)
    s[1] = np.maximum(u[1] + c[1], hat[k] + c_hat)
    rs = rho * (s - u)
    s_star = (p[1] - p[0] + rs[0] * u[0] - rs[1] * u[1]) / (rs[0] - rs[1])

    # the star fluxes F + s (q* - q) of both sides, in place
    flux = physical_flux(q, p, normal)
    factor = rs / (s - s_star)
    star = q * (factor / rho)
    star[0] = factor
    star[normal] = factor * s_star
    star[-1] = factor * (q[-1] / rho + (s_star - u) * (s_star + p / rs))
    star -= q
    star *= s
    star += flux
    return np.where(s[0] >= 0.0, flux[:, 0],
                    np.where(s_star >= 0.0, star[:, 0],
                             np.where(s[1] >= 0.0, star[:, 1], flux[:, 1])))


def rusanov_flux(q_l, q_r, eos, normal=1):
    """Local Lax-Friedrichs flux; no contact property (negative control)."""
    q = stacked_pair(q_l, q_r)
    rho, vel, p, c = split_conserved(q, eos, "sound_speed")
    s = np.maximum.reduce(np.abs(vel[normal - 1]) + c)
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


def positivity_fallback(faces, data, good=None):
    """First-order fallback, in place: every cell with a non-physical face
    state gets its cell average on all of its faces.  `faces` is the
    operator's one face buffer (C, face rows, *cells), all face states of a
    cell in its rows.  A face state is physical by `physical_state`'s
    predicate, in its rounding order, so every decision is the same: its
    eps > 0 is E > 0.5 |m|^2 / rho (x - y > 0 iff x > y, with gradual
    underflow), with the temporaries in place and rho = 1 substituted only
    when some density is not positive.  Returns how many of the cells fell
    back: those the gate `good` (over the same cells) marks False (the
    cells where the well-balanced reconstruction failed) plus those reset
    here."""
    count = 0 if good is None else good.size - int(np.count_nonzero(good))
    rho = faces[0]
    # a NaN is the minimum of an array that holds one (see `split_conserved`)
    all_positive = np.minimum.reduce(rho, None, initial=np.inf) > 0.0
    if not all_positive:
        positive = rho > 0.0
        rho = np.where(positive, rho, 1.0)
    kinetic = np.add.reduce(np.square(faces[1:-1]))
    kinetic *= 0.5
    kinetic /= rho
    physical = faces[-1] > kinetic
    if not all_positive:
        physical &= positive
    if np.logical_and.reduce(physical, None):
        return count
    bad = ~np.logical_and.reduce(physical)      # over a cell's faces
    faces[:, :, bad] = data[:, None, bad]
    return count + int(np.count_nonzero(bad))


def flux_divergence(faces, flux_fn, eos, axes, spacing, weights=None):
    """-sum_a (F_a(i + 1/2) - F_a(i - 1/2)) / h_a over the interior cells.

    `faces` holds per cell axis a (lo, hi) pair of face states (C, *cells),
    or (C, nodes, *cells) where faces carry Gauss nodes (2-D), whose
    `weights` average the fluxes over the node axis, on the flux band: the
    interior cells and one ghost layer per side.  Node-major face states
    keep the flux's stacked pair C-ordered.  An interface flux is
    `flux_fn` of the hi face state of the cell below and the lo face state
    of the cell above, one call per axis; on a "solid-wall" side of `axes`
    the ghost's inner face (index 0 or -1) is overwritten by the boundary
    cell's (index 1 or -2) mirrored face state.
    """
    dim = len(spacing)
    # the axes ahead of the cell axes: the components, then the nodes
    lead = (slice(None),) * (1 if weights is None else 2)
    for a, ((lo, hi), kinds, h) in enumerate(zip(faces, axes, spacing)):
        # every cell along axis a, the interior cells along the others
        before = lead + (slice(1, -1),) * a
        after = (slice(1, -1),) * (dim - 1 - a)
        # (ghost face, its index, boundary cell face, its index) per side
        for kind, (ghost, g, cell, c) in zip(kinds, ((hi, 0, lo, 1),
                                                     (lo, -1, hi, -2))):
            if kind == "solid-wall":
                ghost[before + (g,) + after] = cell[before + (c,) + after]
                ghost[(a + 1,) + before[1:] + (g,) + after] *= -1.0
        flux = flux_fn(hi[before + (slice(-1),) + after],
                       lo[before + (slice(1, None),) + after], eos,
                       normal=a + 1)
        if weights is not None:     # contract the node axis
            shape = (len(flux),) + flux.shape[2:]
            flux = (weights @ flux.reshape(len(flux), len(weights), -1)) \
                .reshape(shape)
        along = (slice(None),) * (a + 1)
        step = flux[along + (slice(-1),)] - flux[along + (slice(1, None),)]
        step /= h
        div = div + step if a else step
    return div


def cfl_rate(q, eos, spacing):
    """max over cells of sum_a (|u_a| + c) / h_a; dt = cfl / rate.  The
    pressure and sound speed come from one temperature."""
    rho = q[0]
    vel = q[1:-1] / rho
    c = eos.thermo_eps(rho, q[-1] - 0.5 * rho * sum(u ** 2 for u in vel),
                       "sound_speed")[1]
    return np.max(sum((np.abs(u) + c) / h for u, h in zip(vel, spacing)))
