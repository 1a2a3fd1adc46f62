"""Periodic-orbit search: Newton shooting on return maps, symmetric
planar shooting, natural-parameter continuation, Floquet analysis."""

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._numerics import brentq
from .cr3bp import (effective_potential, hamiltonian, hamiltonian_gradient,
                    vector_field_ode)
from .errors import (ConfigError, ConvergenceError, FoldDetected,
                     IntegrationFloorError, JacobianSingularError,
                     MaxTimeExceeded, NoCrossingError,
                     PerturbationEscapeError)
from .flows import FlowEvent, IntegratorConfig, flight_jacobian, integrate
# reciprocal_pair_residual is re-exported: it is part of the orbits API
from .sections import (SectionSpec, page_coords, page_embed, page_frame,
                       page_map_derivative, reciprocal_pair_residual,
                       return_map_iter)

_COND_LIMIT = 1e12


@dataclass
class PeriodicOrbit:
    """A closed orbit found by shooting, with its search diagnostics."""
    representative: np.ndarray      # page state (6,) or full state
    period: float
    energy: float
    mu: float
    residual: float                 # the Newton criterion it met
    symmetry: str = "none"          # planar|spatial|vertical-collision|symmetric-x-axis|none
    k: int = 1
    floquet: Optional[np.ndarray] = None
    newton_history: tuple = ()
    command_line: Optional[str] = None
    closure: Optional[float] = None  # |x(period) - x|, when flown
    # the flights that close it: the converged iterate's return pairs, or
    # a symmetric orbit's full-period flight; not serialized or compared
    flights: list = field(default_factory=list, repr=False, compare=False)

    def to_json(self):
        d = {
            "representative": list(map(float, self.representative)),
            "period": float(self.period),
            "energy": float(self.energy),
            "mu": float(self.mu),
            "residual": float(self.residual),
            "closure": None if self.closure is None else float(self.closure),
            "symmetry": self.symmetry,
            "k": self.k,
            "floquet": None if self.floquet is None else
                [[float(z.real), float(z.imag)] for z in self.floquet],
            "newton_history": list(map(float, self.newton_history)),
            "command_line": self.command_line,
        }
        return d


def _classify_spatial(traj):
    """planar / spatial / vertical-collision from the flight geometry."""
    # each read stops once its threshold is settled: the label is the same
    planar_size = traj.min_over(lambda s: -(abs(s[2]) + abs(s[5])),
                                rows=(2, 5), stop_below=-1e-8)
    planar_size = -planar_size  # max of |q3|+|p3|
    if planar_size < 1e-8:
        return "planar"
    horiz = traj.min_over(lambda s: -(s[0] ** 2 + s[1] ** 2
                                      + s[3] ** 2 + s[4] ** 2),
                          rows=(0, 1, 3, 4), stop_below=-1e-10)
    if -horiz < 1e-10:
        return "vertical-collision"
    return "spatial"


def find_periodic_point(x0, k=1, mu=None, c=None, cfg=None, spec=None,
                        tol=1e-11, max_iter=50):
    """Damped Newton for a fixed point of the k-fold return map.

    G(u) = coords(f^k(embed(u))) - u in page-frame coordinates, with
    Armijo backtracking on the raw closure norm.  The shooting matrix
    pinv(frame) Df^k frame - I is the derivative of the iterate's own
    flights (flows.flight_jacobian); an accepted trial point's flights
    serve the next iteration, and the converged iterate's stay on the
    orbit (PeriodicOrbit.flights) for floquet_multipliers.  Raises
    JacobianSingularError when the shooting matrix is numerically rank
    deficient (degenerate root or a continuum of periodic points),
    IntegrationFloorError when the damping stalls within 10 tol (the
    closure the integrator can reach), and ConvergenceError on any other
    stall or after max_iter iterations.  A read of a flight (its Jacobian,
    the symmetry label) raises CollisionError where it meets a step whose
    interpolant stage collided (see flows.DenseOutput).
    """
    if mu is None:
        raise ConfigError("mu is required for the CR3BP search")
    cfg = cfg or IntegratorConfig()
    spec = spec or SectionSpec()
    x = np.asarray(x0, dtype=float).copy()
    if c is None:
        c = hamiltonian(x, mu)
    history = []
    res = None
    fx, tau, _, flights = return_map_iter(x, k, mu, c=c, cfg=cfg, spec=spec)
    for it in range(max_iter):
        res = float(np.linalg.norm(fx - x))
        history.append(res)
        if res < tol:
            return PeriodicOrbit(
                representative=x, period=tau, energy=c, mu=mu,
                residual=res, symmetry=_classify_flights(flights), k=k,
                newton_history=tuple(history), flights=flights)
        frame = page_frame(x, mu)
        g0 = page_coords(x, frame, fx)
        jac = page_map_derivative(flights, frame, frame) - np.eye(4)
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise JacobianSingularError(
                f"shooting matrix condition {cond:.2e}; degenerate or "
                "non-isolated periodic points")
        du_full = np.linalg.solve(jac, -g0)
        # Armijo backtracking on the closure norm; a trial point that
        # page_embed cannot place on the page is a failed trial
        lam = 1.0
        for _ in range(12):
            try:
                x_try = page_embed(x, frame, lam * du_full, mu, c, spec.theta)
            except PerturbationEscapeError:
                lam *= 0.5
                continue
            trial = return_map_iter(x_try, k, mu, c=c, cfg=cfg, spec=spec)
            res_try = float(np.linalg.norm(trial[0] - x_try))
            if res_try < (1.0 - 1e-4 * lam) * res:
                x = x_try
                fx, tau, _, flights = trial
                break
            lam *= 0.5
        else:
            # a stall within 10x the target is the integration floor
            err = IntegrationFloorError if res < 10 * tol else ConvergenceError
            raise err(f"Newton damping stalled at residual {res:.3e}")
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {res:.3e})")


def _classify_flights(flights):
    """The one label of all returns' flights, lead and main, else
    'spatial'.  The reading stops at the first flight labelled 'spatial',
    which decides the label."""
    tags = set()
    for traj in (traj for pair in flights for traj in pair):
        tags.add(_classify_spatial(traj))
        if "spatial" in tags:
            break
    return tags.pop() if len(tags) == 1 else "spatial"


def vertical_seed(mu, c):
    """Page state straight above the heavy primary at energy c.

    q = (mu, 0, z) with the equilibrium momentum (0, mu, 0) has
    H = U(q); solving U = c for z > 0 gives a seed for the vertical
    collision fixed point (exact at mu = 0).
    """
    def f(z):
        return effective_potential(np.array([mu, 0.0, z]), mu) - c

    if f(1e-8) > 0 or f(50.0) < 0:
        raise ConfigError(f"no vertical apex at c={c}")
    z = brentq(f, 1e-8, 50.0, xtol=1e-15)
    return np.array([mu, 0.0, z, 0.0, mu, 0.0])


# --- symmetric planar shooting ---


def _axis_momentum(q1, c, mu, branch):
    """p2 on the x-axis state (q1,0,0, 0,p2,0) at energy c.

    branch=+1 gives p2 = q1 + sigma, branch=-1 gives p2 = q1 - sigma,
    where sigma = sqrt(2 (c - U)).
    """
    u = effective_potential(np.array([q1, 0.0, 0.0]), mu)
    if c < u:
        raise ConfigError(f"q1={q1} outside the Hill region at c={c}")
    return q1 + branch * math.sqrt(2.0 * (c - u))


# The x axis q2 = 0; inside a Moser chart as q2 = +-y2 of the chart's
# (x, y), which takes complex states, as flight_jacobian needs.
_X_AXIS = FlowEvent(lambda s: s[1], direction=0.0, terminal=True,
                    chart_fn=lambda ch, xi, eta: eta[0] * xi[2]
                    + (1.0 - xi[0]) * eta[2], name="xaxis")


def _half_orbit_p1(q1, c, mu, branch, cfg):
    """p1 and time at the next x-axis crossing from a perpendicular start,
    the start, and the half orbit's (lead off the axis, traj) flights."""
    p2 = _axis_momentum(q1, c, mu, branch)
    x = np.array([q1, 0.0, 0.0, 0.0, p2, 0.0])
    lead = integrate(x, mu, cfg, 1e-3, c=c)
    traj = integrate(lead.final_state(), mu, cfg, cfg.max_time, c=c,
                     events=[_X_AXIS], t0=lead.t_end)
    hits = [h for h in traj.event_hits if h[0] == 0]
    if traj.stopped_by != 0 or not hits:
        raise NoCrossingError("no further x-axis crossing found")
    _, t_half, s_half = hits[-1]
    return s_half[3], t_half, x, (lead, traj)


def find_symmetric_planar_orbit(c, mu, q1_guess, branch=-1, cfg=None,
                                tol=1e-11, max_iter=50):
    """Planar orbit symmetric in the x-axis, by perpendicular shooting.

    Starts at (q1, 0, 0, 0, p2, 0) with p2 fixed by the energy (branch
    selects p2 = q1 +/- sqrt(2(c-U))), integrates to the next x-axis
    crossing, and Newton-drives the crossing p1 to zero in q1.  The slope
    dp1/dq1 is the derivative of the half orbit's own flights
    (flows.flight_jacobian) along the start tangent that keeps H = c; an
    accepted trial's half orbit serves the next iteration.  The full
    orbit is the half-orbit and its mirror; its full-period flight gives
    the closure and is kept on the orbit (PeriodicOrbit.flights) for
    floquet_multipliers.
    """
    cfg = cfg or IntegratorConfig()
    history = []
    p1, t_half, x, (lead, traj) = _half_orbit_p1(float(q1_guess), c, mu,
                                                 branch, cfg)
    for _ in range(max_iter):
        history.append(abs(p1))
        if abs(p1) < tol:
            break
        grad = hamiltonian_gradient(x, mu)
        v = np.zeros((6, 1))
        v[0], v[4] = 1.0, -grad[0] / grad[4]
        dp = flight_jacobian([lead, traj], v)[0][3, 0]
        if abs(dp) < 1e-14:
            raise JacobianSingularError("flat shooting function in q1")
        step = -p1 / dp
        lam = 1.0
        for _ in range(10):
            trial = _half_orbit_p1(x[0] + lam * step, c, mu, branch, cfg)
            if abs(trial[0]) < abs(p1):
                p1, t_half, x, (lead, traj) = trial
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"symmetric shooting stalled at |p1|={abs(p1):.3e}")
    else:
        raise ConvergenceError(
            f"symmetric shooting: no convergence (|p1|={abs(p1):.3e})")
    period = 2.0 * t_half
    traj = integrate(x, mu, cfg, period, c=c)
    closure = float(np.linalg.norm(traj.final_state() - x))
    return PeriodicOrbit(representative=x, period=period, energy=c, mu=mu,
                         residual=abs(p1), symmetry="symmetric-x-axis", k=1,
                         newton_history=tuple(history), closure=closure,
                         flights=[traj])


# --- continuation ---


def continue_family(orbit, param, target, step, mu=None, c=None, cfg=None,
                    spec=None, min_step=1e-6, **newton_kw):
    """Natural-parameter continuation of a return-map fixed point.

    param is 'mu' or 'c'; the seed orbit's parameter moves toward target
    in increments of step, halving on corrector failure: a
    ConvergenceError, a NoCrossingError, or a MaxTimeExceeded (no page
    return within max_time).  When the step then underflows min_step it
    raises that MaxTimeExceeded, or else FoldDetected; an
    IntegrationFloorError of the corrector propagates, since no step
    length mends it.  Returns the list of converged members (including
    the seed).
    """
    if param not in ("mu", "c"):
        raise ConfigError("param must be 'mu' or 'c'")
    if not abs(step) > 0:
        raise ConfigError("continuation step must be nonzero")
    if orbit.residual > 1e-9:
        raise ConfigError("seed orbit residual above 1e-9")
    cfg = cfg or IntegratorConfig()
    spec = spec or SectionSpec()
    cur_mu = orbit.mu
    cur_c = orbit.energy
    cur_x = np.asarray(orbit.representative, dtype=float)
    members = [orbit]
    cur_val = cur_mu if param == "mu" else cur_c
    direction = 1.0 if target >= cur_val else -1.0
    h = abs(step)
    while abs(cur_val - target) > 1e-14:
        h_try = min(h, abs(target - cur_val))
        while True:
            val_next = cur_val + direction * h_try
            mu_n = val_next if param == "mu" else cur_mu
            c_n = val_next if param == "c" else cur_c
            try:
                # re-seat the predictor on the new energy shell
                x_seed = page_embed(cur_x, page_frame(cur_x, mu_n),
                                    np.zeros(4), mu_n, c_n, spec.theta)
                member = find_periodic_point(x_seed, k=orbit.k, mu=mu_n,
                                             c=c_n, cfg=cfg, spec=spec,
                                             **newton_kw)
                break
            except IntegrationFloorError:
                raise
            except (ConvergenceError, NoCrossingError,
                    MaxTimeExceeded) as exc:
                h_try *= 0.5
                if h_try < min_step:
                    if isinstance(exc, MaxTimeExceeded):
                        raise
                    raise FoldDetected(
                        f"continuation step underflow at {param}={cur_val}")
        cur_val = val_next
        cur_mu, cur_c = mu_n, c_n
        cur_x = np.asarray(member.representative, dtype=float)
        members.append(member)
    return members


# --- Floquet analysis ---


def floquet_multipliers(orbit):
    """Floquet multipliers of a found orbit, from the flights that close
    it; no flight is flown.

    A page orbit's four nontrivial multipliers are the eigenvalues of the
    derivative J (4x4) of its return map at the representative, in the
    page frame there (sections.page_map_derivative over the converged
    iterate's flights); the trivial pair along the orbit and the energy
    follows as exactly 1.0, 1.0.  A symmetric planar orbit lies in the
    binding and has no page: its four are the eigenvalues of its full-period
    closure flight's monodromy reduced to the transversal {q2 = 0} and
    {grad H . v = 0} at the representative (_axis_return_derivative), and
    the same exact pair follows.  Raises ConfigError for an unconverged
    orbit or one without flights; warns when the 4x4 matrix's condition
    number exceeds 1e10.
    """
    if orbit.residual > 1e-9:
        raise ConfigError("orbit residual above 1e-9; refine first")
    if not orbit.flights:
        raise ConfigError("orbit carries no flights to differentiate")
    x = np.asarray(orbit.representative, dtype=float)
    mu = orbit.mu
    if orbit.symmetry == "symmetric-x-axis":
        M = _axis_return_derivative(orbit.flights[-1], x, mu)
    else:
        frame = page_frame(x, mu)
        M = page_map_derivative(orbit.flights, frame, frame)
    cond = np.linalg.cond(M)
    if cond > 1e10:
        warnings.warn(f"ill-conditioned monodromy (cond {cond:.2e})",
                      RuntimeWarning)
    return np.concatenate([np.linalg.eigvals(M), [1.0, 1.0]])


def _axis_return_derivative(traj, x, mu):
    """The closure flight's monodromy reduced to a 4x4 map of the
    transversal {q2 = 0} and {grad H . v = 0} at x, in an orthonormal basis
    of it: the basis tangents keep the energy, and the hit-time correction
    along the flow moves their images back onto q2 = 0."""
    grad = hamiltonian_gradient(x, mu)
    basis = np.linalg.svd(np.vstack([np.eye(6)[1], grad]))[2][2:].T
    W, _ = flight_jacobian(traj, basis)
    f = vector_field_ode(0.0, traj.final_state(), mu)
    return basis.T @ (W - np.outer(f, W[1]) / f[1])
