"""Open-book angle functions, return maps, and their structural checks.

Physical open book: angle theta = arg(q3 + i p3) on the spatial energy
level, binding = the planar problem {q3 = p3 = 0}.  Along the flow

    d/dt arg(q3 + i p3) = -(p3^2 + q3^2 F(q)) / (p3^2 + q3^2),

so with the A3 assumption (F > 0) the angle moves strictly monotonically
— in the *decreasing* sense for this choice of plane orientation.  The
positive crossing rate |d theta/dt| is what transversality_value returns,
and "positive direction" for crossings means the direction of the flow.

Geodesic open book (diagnostic): theta = arg(eta_n + i xi_n) on T*S^n,
which the round geodesic flow increases at unit rate on the unit level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cr3bp import (central_jacobian, hamiltonian, hamiltonian_gradient,
                    primaries)
from .errors import (
    BindingError,
    ConfigError,
    MaxTimeExceeded,
    NoCrossingError,
    OffSurfaceError,
    PerturbationEscapeError,
    SectionScopeError,
)
from .flows import (FlowEvent, IntegratorConfig, flight_jacobian, integrate,
                    integrate_many, solve_ivp)
from .regularize import MoserChart

BINDING_SQ_TOL = 1e-24
# A sampled binding_min below this (100x the warning level of 1e-8) is
# refined on the dense output: close approaches can fall between samples.
BINDING_REFINE_BELOW = 1e-6


def physical_angle(state):
    """Open-book angle arg(q3 + i p3), normalized to [0, 2 pi)."""
    q3, p3 = state[2], state[5]
    if q3 * q3 + p3 * p3 < BINDING_SQ_TOL:
        raise BindingError("state on the binding (planar problem)")
    return math.atan2(p3, q3) % (2.0 * math.pi)


def transversality_value(state, mu):
    """Positive crossing rate (p3^2 + q3^2 F(q)) / (p3^2 + q3^2).

    F(q) = mu/|q-m|^3 + (1-mu)/|q-e|^3 for the CR3BP.
    """
    q3, p3 = state[2], state[5]
    rho2 = q3 * q3 + p3 * p3
    if rho2 < BINDING_SQ_TOL:
        raise BindingError("state on the binding (planar problem)")
    e, m = primaries(mu)
    q = np.asarray(state[:3], dtype=float)
    de = np.linalg.norm(q - e)
    dm = np.linalg.norm(q - m)
    f_val = mu / dm ** 3 + (1.0 - mu) / de ** 3
    return (p3 * p3 + q3 * q3 * f_val) / rho2


def geodesic_angle(xi, eta):
    """Geodesic open-book angle arg(eta_n + i xi_n) in [0, 2 pi)."""
    xn, en = xi[-1], eta[-1]
    if xn * xn + en * en < BINDING_SQ_TOL:
        raise BindingError("state on the geodesic binding S*S^(n-1)")
    return math.atan2(xn, en) % (2.0 * math.pi)


def involution(state):
    """The symmetry r: (q3, p3) -> (-q3, -p3); maps page theta to theta+pi."""
    out = np.asarray(state, dtype=float).copy()
    out[2] = -out[2]
    out[5] = -out[5]
    return out


def involution_moser(xi, eta):
    """The same symmetry in the Moser chart: negate the last components."""
    xi = np.asarray(xi, dtype=float).copy()
    eta = np.asarray(eta, dtype=float).copy()
    xi[-1] = -xi[-1]
    eta[-1] = -eta[-1]
    return xi, eta


def leaf_label(xi, eta):
    """First complex coordinate of the quadric embedding of T*S^3.

    Inverts z = q + i p -> (q/|q|, |q| p): with |q|^2 =
    (1 + sqrt(1 + 4 |eta|^2))/2 the point z = |q| xi + i eta/|q| lies on
    the quadric sum z_j^2 = 1; z0 is constant on the leaves of the
    integrable (rotating-Kepler) foliation.
    """
    eta = np.asarray(eta, dtype=float)
    nsq = float(eta @ eta)
    r = math.sqrt(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * nsq)))
    return complex(r * xi[0], eta[0] / r)


def leaf_label_physical(state, mu):
    """Leaf label of a rotating-frame state through the Earth Moser chart."""
    ch = MoserChart(mu, "earth")
    xi, eta = ch.from_physical(state)
    return leaf_label(xi, eta)


@dataclass(frozen=True)
class SectionSpec:
    angle_fn: str = "physical"        # 'physical' | 'geodesic' | 'ellipsoid'
    theta: float = 0.0
    direction: int = +1               # positive crossings (flow direction)


@dataclass
class ReturnSample:
    x: np.ndarray
    fx: np.ndarray
    tau: float
    crossings: int                    # intermediate opposite-page crossings
    energy: float
    angle_err: float
    binding_min: float                # min of q3^2 + p3^2 along the flight
    binding_warning: bool


def _page_event(theta):
    """Event vanishing on the pair of pages theta, theta+pi.

    g = p3 cos(theta) - q3 sin(theta) = rho sin(angle - theta); the flow
    decreases the angle, so genuine crossings of the page theta have
    direction -1 and the opposite page +1.  The chart form multiplies by
    the positive factor (1 - xi0) so it stays finite across collisions.
    """
    ct, st = math.cos(theta), math.sin(theta)

    def fn(state):
        return state[5] * ct - state[2] * st

    def chart_fn(ch, xi, eta):
        s = 1.0 - xi[0]
        q3 = eta[0] * xi[3] + s * eta[3]
        return -xi[3] * ct - s * q3 * st

    return fn, chart_fn


def _return_config(spec, cfg):
    spec = spec or SectionSpec()
    if spec.angle_fn != "physical":
        raise ConfigError("return_map implements the physical open book; "
                          "use the ellipsoid helpers for the toy flow")
    return spec, cfg or IntegratorConfig()


def _return_setup(x, mu, c, spec):
    """Checks a page point; returns (x, c, length of its burn-in leg)."""
    x = np.asarray(x, dtype=float)
    if c is None:
        c = hamiltonian(x, mu)
    theta = spec.theta
    rho2 = x[2] ** 2 + x[5] ** 2
    if rho2 < 1e-12:
        raise BindingError("refusing to start a return map at the binding")
    ang = physical_angle(x)
    if abs(math.sin(ang - theta)) > 1e-8 or math.cos(ang - theta) < 0.0:
        raise ConfigError(f"state not on page theta={theta} (angle={ang})")
    # Burn-in leg so the event does not fire on the departure page,
    # sized from the local crossing rate (angle advance ~ 0.01 rad).
    rate = transversality_value(x, mu)
    return x, c, 0.01 / max(rate, 1.0)


def _page_events(theta):
    fn, chart_fn = _page_event(theta)
    return [FlowEvent(fn, direction=-1.0, terminal=True,
                      chart_fn=chart_fn, name="page"),
            FlowEvent(fn, direction=+1.0, terminal=False,
                      chart_fn=chart_fn, name="antipage")]


def _return_sample(x, mu, theta, lead, traj):
    """The ReturnSample of a lead leg and the main flight after it."""
    page_hits = [h for h in traj.event_hits if h[0] == 0]
    if traj.stopped_by != 0 or not page_hits:
        raise MaxTimeExceeded("no page return within max_time",
                              trajectory=traj)
    _, t_hit, fx = page_hits[-1]
    if fx is None:
        raise NoCrossingError("page crossing landed on the collision fiber")
    crossings = sum(1 for h in traj.event_hits if h[0] == 1)
    ang_f = physical_angle(fx)
    binding_min = min(
        lead.min_over(lambda s: s[2] ** 2 + s[5] ** 2,
                      refine_below=BINDING_REFINE_BELOW, rows=(2, 5)),
        traj.min_over(lambda s: s[2] ** 2 + s[5] ** 2,
                      refine_below=BINDING_REFINE_BELOW, rows=(2, 5)),
    )
    return ReturnSample(
        x=x, fx=np.asarray(fx, float), tau=t_hit, crossings=crossings,
        energy=hamiltonian(fx, mu), angle_err=abs(math.sin(ang_f - theta)),
        binding_min=binding_min, binding_warning=binding_min < 1e-8,
    )


def _ok(result):
    """A batch member's result, or raise its error."""
    if isinstance(result, SectionScopeError):
        raise result
    return result


def return_map(x, mu, c=None, cfg=None, spec=None, return_traj=False):
    """First-return map of the physical open book at page spec.theta.

    x must lie on the page (angle within 1e-8 of theta) and on H = c.
    The flight runs with collision-chart switching; the page crossing is
    located by the integrator's event machinery on the linear page
    function.  Raises MaxTimeExceeded (partial trajectory attached) when
    no return occurs within cfg.max_time.
    """
    spec, cfg = _return_config(spec, cfg)
    x, c, dt0 = _return_setup(x, mu, c, spec)
    lead = integrate(x, mu, cfg, dt0, c=c)
    t_start = lead.t_end
    traj = integrate(lead.final_state(), mu, cfg, t_start + cfg.max_time,
                     c=c, events=_page_events(spec.theta), t0=t_start)
    sample = _return_sample(x, mu, spec.theta, lead, traj)
    if return_traj:
        return sample, (lead, traj)
    return sample


def return_map_many(xs, mu, c=None, cfg=None, spec=None):
    """return_map of many page points; returns, per point, its
    ReturnSample or the SectionScopeError that ended it.

    The burn-in legs of all points fly as one integrate_many batch, then
    the main flights as another, so their rotating-chart legs share one
    lockstep integrator.  A point's result agrees with return_map to
    integration accuracy and does not depend on the other points beyond
    that (see integrate_many).
    """
    spec, cfg = _return_config(spec, cfg)
    out = [None] * len(xs)
    setup = {}
    for i, x in enumerate(xs):
        try:
            setup[i] = _return_setup(x, mu, c, spec)
        except SectionScopeError as exc:
            out[i] = exc
    ids = list(setup)
    leads = dict(zip(ids, integrate_many(
        [setup[i][0] for i in ids], mu, cfg, [setup[i][2] for i in ids],
        [setup[i][1] for i in ids])))
    starts = {}
    for i in ids:
        try:
            starts[i] = _ok(leads[i]).final_state()
        except SectionScopeError as exc:
            out[i] = exc
    ids = list(starts)
    t_starts = [leads[i].t_end for i in ids]
    trajs = integrate_many(
        [starts[i] for i in ids], mu, cfg,
        [t + cfg.max_time for t in t_starts], [setup[i][1] for i in ids],
        _page_events(spec.theta), t_starts)
    for i, traj in zip(ids, trajs):
        try:
            out[i] = _return_sample(setup[i][0], mu, spec.theta, leads[i],
                                    _ok(traj))
        except SectionScopeError as exc:
            out[i] = exc
    return out


def return_map_iter(x, k, mu, c=None, cfg=None, spec=None):
    """k-fold composition of return_map; returns (fx, total tau, samples,
    flights), with the (lead, trajectory) pair of each return."""
    total = 0.0
    samples = []
    flights = []
    cur = np.asarray(x, dtype=float)
    for _ in range(k):
        s, flight = return_map(cur, mu, c=c, cfg=cfg, spec=spec,
                               return_traj=True)
        samples.append(s)
        flights.append(flight)
        cur = s.fx
        total += s.tau
    return cur, total, samples, flights


def page_map_derivative(flights, frame0, frame1):
    """Derivative (4, 4) of the return maps flown as flights (the pairs of
    return_map_iter), from page-frame coordinates at their start (frame0)
    to those at their end (frame1).

    The frame is page_embed's derivative at u = 0 and the least-squares
    pinv(frame1) that of page_coords; all the flights are differentiated
    in one flows.flight_jacobian call at the fixed energy c, as return_map
    holds it.
    """
    V, _ = flight_jacobian([f for pair in flights for f in pair], frame0)
    return np.linalg.lstsq(frame1, V, rcond=None)[0]


# --- page-adapted symplectic frames and Jacobians ---

OMEGA4 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


def _omega(u, v):
    """Standard symplectic pairing on (q, p) 6-vectors: dq ^ dp."""
    return float(u[:3] @ v[3:] - u[3:] @ v[:3])


def _angle_gradient(state):
    q3, p3 = state[2], state[5]
    rho2 = q3 * q3 + p3 * p3
    g = np.zeros(6)
    g[2] = -p3 / rho2
    g[5] = q3 / rho2
    return g


def page_frame(x, mu):
    """Darboux basis (columns) of the page tangent space at x.

    The 4-dimensional complement of span{grad H, grad theta} is
    symplectically orthonormalized so its Gram matrix of the canonical
    2-form is OMEGA4; coordinates in this frame make the symplecticity
    test J^T Omega J = Omega literal.
    """
    n1 = hamiltonian_gradient(x, mu)
    n2 = _angle_gradient(x)
    sv, vh = np.linalg.svd(np.vstack([n1, n2]))[1:]
    # scipy.linalg.null_space's rank rule, and its basis bit for bit
    if not sv[1] > 6 * np.finfo(float).eps * sv[0]:
        raise PerturbationEscapeError("degenerate page tangent space")
    vecs = list(vh[2:])
    a1 = vecs[0]
    pair_vals = [abs(_omega(a1, v)) for v in vecs[1:]]
    j = int(np.argmax(pair_vals)) + 1
    w = _omega(a1, vecs[j])
    if abs(w) < 1e-10:
        raise PerturbationEscapeError("page 2-form degenerate at base point")
    b1 = vecs[j] / w
    rest = [vecs[i] for i in range(1, 4) if i != j]
    fixed = []
    for v in rest:
        fixed.append(v - _omega(a1, v) * b1 + _omega(b1, v) * a1)
    a2 = fixed[0] / np.linalg.norm(fixed[0])
    w2 = _omega(a2, fixed[1])
    if abs(w2) < 1e-10:
        raise PerturbationEscapeError("page 2-form degenerate at base point")
    b2 = fixed[1] / w2
    return np.column_stack([a1, b1, a2, b2])


def page_embed(base, frame, u, mu, c, theta, tol=1e-12):
    """Point on {H = c, angle = theta} with frame coordinates u at base.

    Newton-corrects base + frame @ u along (grad H, grad theta) so both
    defining equations are restored.
    """
    y = np.asarray(base, float) + frame @ np.asarray(u, float)
    ct, st = math.cos(theta), math.sin(theta)
    for _ in range(8):
        g1 = hamiltonian(y, mu) - c
        g2 = y[5] * ct - y[2] * st
        if abs(g1) < tol and abs(g2) < tol:
            return y
        n1 = hamiltonian_gradient(y, mu)
        n2 = np.zeros(6)
        n2[2], n2[5] = -st, ct
        jac = np.array([[n1 @ n1, n1 @ n2], [n2 @ n1, n2 @ n2]])
        ab = np.linalg.solve(jac, -np.array([g1, g2]))
        y = y + ab[0] * n1 + ab[1] * n2
    raise PerturbationEscapeError("page re-projection did not converge")


def page_coords(base, frame, y):
    """Least-squares frame coordinates of y - base."""
    sol, *_ = np.linalg.lstsq(frame, np.asarray(y, float) - base, rcond=None)
    return sol


@dataclass
class JacobianResult:
    J: np.ndarray
    symplecticity_residual: float
    base_sample: object
    eigenvalues: np.ndarray

    @property
    def reciprocal_residual(self):
        return reciprocal_pair_residual(self.eigenvalues)


def reciprocal_pair_residual(multipliers):
    """max over multipliers of min_j |lambda_i lambda_j - 1|."""
    ev = np.asarray(multipliers)
    worst = 0.0
    for lam in ev:
        worst = max(worst, min(abs(lam * other - 1.0) for other in ev))
    return float(worst)


def return_map_jacobian(x, mu, c=None, cfg=None, spec=None, k=1):
    """Jacobian of the k-fold return map in page coordinates, from the
    flights' own DOP853 steps (see page_map_derivative)."""
    spec = spec or SectionSpec()
    cfg = cfg or IntegratorConfig()
    x = np.asarray(x, dtype=float)
    if c is None:
        c = hamiltonian(x, mu)
    fx, _, samples, flights = return_map_iter(x, k, mu, c=c, cfg=cfg,
                                              spec=spec)
    J = page_map_derivative(flights, page_frame(x, mu), page_frame(fx, mu))
    resid = np.linalg.norm(J.T @ OMEGA4 @ J - OMEGA4)
    return JacobianResult(J=J, symplecticity_residual=float(resid),
                          base_sample=samples[0],
                          eigenvalues=np.linalg.eigvals(J))


def liouville_loop_integral(states):
    """Integral of p . dq along the closed polygon through the states."""
    total = 0.0
    n = len(states)
    for i in range(n):
        a = states[i]
        b = states[(i + 1) % n]
        dq = b[:3] - a[:3]
        total += float((a[3:] + 0.5 * (b[3:] - a[3:])) @ dq)
    return total


def loop_length(states):
    """Phase-space length of the closed polygon."""
    n = len(states)
    return sum(np.linalg.norm(states[(i + 1) % n] - states[i])
               for i in range(n))


def exactness_loop_check(loop, mu, c=None, cfg=None, spec=None):
    """|loop integral of f* lambda  -  loop integral of lambda|.

    Since f* lambda = lambda + d tau, the two closed-loop integrals agree;
    the residual (plus its discretization error) is returned together
    with the loop length for the relative test.
    """
    loop = [np.asarray(s, float) for s in loop]
    images = [_ok(s).fx for s in return_map_many(loop, mu, c, cfg, spec)]
    a0 = liouville_loop_integral(loop)
    a1 = liouville_loop_integral(images)
    return abs(a1 - a0), loop_length(loop)


def page_circle_loop(x, mu, c=None, cfg=None, spec=None, radius=5e-3,
                     n_points=64, plane=(0, 1)):
    """Closed loop of page points around x in two frame directions."""
    spec = spec or SectionSpec()
    if c is None:
        c = hamiltonian(x, mu)
    frame = page_frame(x, mu)
    i, j = plane
    loop = []
    for t in np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False):
        u = np.zeros(4)
        u[i] = radius * math.cos(t)
        u[j] = radius * math.sin(t)
        loop.append(page_embed(x, frame, u, mu, c, spec.theta))
    return loop


# --- ellipsoid toy flow (closed-form oracle) ---


def ellipsoid_check_surface(a, b, z, tol=1e-10):
    val = math.pi * abs(z[0]) ** 2 / a + math.pi * abs(z[1]) ** 2 / b
    if abs(val - 1.0) > tol:
        raise OffSurfaceError(f"point off the ellipsoid boundary by {val - 1.0:.3e}")


def ellipsoid_flow(a, b, t, z):
    """Closed-form boundary flow (e^{2 pi i a t} z1, e^{2 pi i b t} z2)."""
    z = np.asarray(z, dtype=complex)
    ellipsoid_check_surface(a, b, z)
    return np.array([
        z[0] * complex(math.cos(2 * math.pi * a * t), math.sin(2 * math.pi * a * t)),
        z[1] * complex(math.cos(2 * math.pi * b * t), math.sin(2 * math.pi * b * t)),
    ])


def _ellipsoid_rhs(a, b):
    wa, wb = 2.0 * math.pi * a, 2.0 * math.pi * b

    def rhs(t, w):
        x1, y1, x2, y2 = w
        return [-wa * y1, wa * x1, -wb * y2, wb * x2]

    return rhs


def ellipsoid_page_point(a, b, rho=0.45, phase=0.3):
    """Point on the boundary with z2 real positive (the section page).

    rho is |z1| as a fraction of the page-disk radius sqrt(a/pi).
    """
    r1 = rho * math.sqrt(a / math.pi)
    z1 = r1 * complex(math.cos(phase), math.sin(phase))
    r2sq = (1.0 - math.pi * r1 * r1 / a) * b / math.pi
    return np.array([z1, complex(math.sqrt(r2sq), 0.0)])


def ellipsoid_return(a, b, z):
    """Numerical return to the page {arg z2 = 0} with the page rotation,
    flown on flows.solve_ivp at tol 1e-12.

    The page coordinate is z1; the measured (unwrapped) rotation of z1
    over one return is the Exercise's 2 pi a / b.  Returns
    (z_return, tau, rotation).
    """
    z = np.asarray(z, dtype=complex)
    ellipsoid_check_surface(a, b, z)
    if abs(z[1].imag) > 1e-12 or z[1].real <= 0:
        raise ConfigError("start point must lie on the page arg z2 = 0")
    w0 = [z[0].real, z[0].imag, z[1].real, z[1].imag]
    rhs = _ellipsoid_rhs(a, b)
    cfg = IntegratorConfig(tol=1e-12)
    t_lead = 0.1 / b
    lead = solve_ivp(rhs, (0.0, t_lead), w0, [], cfg)
    leg = solve_ivp(rhs, (t_lead, t_lead + 3.0 / b), lead.y_end,
                    [FlowEvent(lambda w: w[3], direction=1.0)], cfg)
    if not leg.hits:
        raise NoCrossingError("ellipsoid flow did not return to the page")
    tau = leg.hits[0][0]
    ts = np.linspace(0.0, tau, 600)
    on_lead = ts < t_lead
    w = np.concatenate([lead.sol(ts[on_lead]), leg.sol(ts[~on_lead])],
                       axis=1)
    unwrapped = np.unwrap(np.arctan2(w[1], w[0]))
    rotation = float(unwrapped[-1] - unwrapped[0])
    wf = leg.y_end
    z_ret = np.array([complex(wf[0], wf[1]), complex(wf[2], wf[3])])
    return z_ret, tau, rotation


def ellipsoid_page_rotation(a, b):
    """Measured page rotation of the boundary flow (expected 2 pi a / b)."""
    z = ellipsoid_page_point(a, b)
    _, _, rotation = ellipsoid_return(a, b, z)
    return rotation


def ellipsoid_return_jacobian(a, b, z=None, h=1e-7):
    """FD Jacobian of the page map in (Re z1, Im z1); a rigid rotation."""
    if z is None:
        z = ellipsoid_page_point(a, b)
    base = np.array([z[0].real, z[0].imag])

    def embed(u):
        r2sq = (1.0 - math.pi * (u[0] ** 2 + u[1] ** 2) / a) * b / math.pi
        if r2sq <= 0:
            raise PerturbationEscapeError("perturbed point left the page disk")
        return np.array([complex(u[0], u[1]), complex(math.sqrt(r2sq), 0.0)])

    def pmap(u):
        zr, _, _ = ellipsoid_return(a, b, embed(u))
        return np.array([zr[0].real, zr[0].imag])

    J = central_jacobian(pmap, base, h)
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    resid = float(np.linalg.norm(J.T @ omega2 @ J - omega2))
    return J, resid


def hopf_map(z):
    """Hopf projection (|z1|^2 - |z2|^2, 2 Re z1 conj(z2), 2 Im z1 conj(z2))."""
    z = np.asarray(z, dtype=complex)
    w = z[0] * z[1].conjugate()
    return np.array([abs(z[0]) ** 2 - abs(z[1]) ** 2, 2.0 * w.real,
                     2.0 * w.imag])
