"""Moser regularization onto T*S^3, Levi-Civita map, and Kepler-limit oracles.

Chart convention: x = -p, y = q with the regularized primary at the
chart origin.  Stereographic projection maps (x, y) to
(xi, eta) in T*S^n = {|xi| = 1, <xi, eta> = 0} subset of R^{n+1} x R^{n+1};
the collision locus is the north pole xi0 = 1 (momenta at infinity).

The intermediate Hamiltonian K = (H - c)|q| becomes |eta| f(xi, eta) - g
on the chart, and the regularized Hamiltonian Q = f^2 |eta|^2 / 2 is
smooth across the collision fiber; its flow on Q = g^2/2 reparametrizes
the H = c flow (dt/ds = g |q|).
"""

import math
from dataclasses import dataclass

import numpy as np

from .cr3bp import validate_mu
from .errors import (
    ConfigError,
    NorthPoleError,
    SecondaryCollisionError,
    ZeroVError,
)

NORTH_POLE_TOL = 1e-12


def stereo_to_chart(xi, eta):
    """Regularized (xi, eta) -> chart (x, y) = (-p, q).

    Works for any sphere dimension: inputs in R^{n+1}, outputs in R^n.
    Inputs of shape (n+1, m) map column by column to outputs of shape
    (n, m).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape == eta.shape == (4,):
        # T*S^3 point: the same arithmetic on floats, without array calls
        a0, a1, a2, a3 = xi.tolist()
        b0, b1, b2, b3 = eta.tolist()
        s = 1.0 - a0
        if abs(s) < NORTH_POLE_TOL:
            raise NorthPoleError("state on the collision fiber xi0 = 1")
        return (np.array([a1 / s, a2 / s, a3 / s]),
                np.array([b0 * a1 + s * b1, b0 * a2 + s * b2,
                          b0 * a3 + s * b3]))
    s = 1.0 - xi[0]
    on_fiber = abs(s) < NORTH_POLE_TOL
    if on_fiber.any() if xi.ndim > 1 else on_fiber:
        raise NorthPoleError("state on the collision fiber xi0 = 1")
    x = xi[1:] / s
    y = eta[0] * xi[1:] + s * eta[1:]
    return x, y


def chart_rows(rows):
    """The chart rows (xi0..xi3, eta0..eta3 numbered 0..7) that the
    physical rows ``rows`` (q1..q3, p1..p3 numbered 0..5) of a chart's
    to_physical depend on, sorted: p_i needs xi0 and xi_i, q_i also eta0
    and eta_i."""
    need = set()
    for r in rows:
        i = r % 3 + 1
        need.update((0, i) if r >= 3 else (0, i, 4, i + 4))
    return sorted(need)


def chart_to_stereo(x, y):
    """Chart (x, y) -> regularized (xi, eta); total (defined for all inputs)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = float(x @ x)
    e0 = float(x @ y)
    if x.shape == y.shape == (3,):
        # spatial point: the same arithmetic on floats, without array calls
        x1, x2, x3 = x.tolist()
        y1, y2, y3 = y.tolist()
        sp = s + 1.0
        a = 0.5 * sp
        return (np.array([(s - 1.0) / sp, 2.0 * x1 / sp, 2.0 * x2 / sp,
                          2.0 * x3 / sp]),
                np.array([e0, a * y1 - e0 * x1, a * y2 - e0 * x2,
                          a * y3 - e0 * x3]))
    xi = np.empty(len(x) + 1)
    eta = np.empty_like(xi)
    xi[0] = (s - 1.0) / (s + 1.0)
    xi[1:] = 2.0 * x / (s + 1.0)
    eta[0] = e0
    eta[1:] = 0.5 * (s + 1.0) * y - eta[0] * x
    return xi, eta


def constraint_residual(xi, eta):
    """max(| |xi|-1 |, |<xi,eta>|) -- health metric for T*S^n states."""
    return max(abs(np.linalg.norm(xi) - 1.0), abs(float(xi @ eta)))


def project_constraints(xi, eta):
    """Project onto T*S^n: normalize xi, remove the <xi,eta> component."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xi = xi / np.linalg.norm(xi)
    eta = eta - float(xi @ eta) * xi
    return xi, eta


def project_constraints_jacobian(xi, eta):
    """Jacobian (8, 8) of project_constraints at a T*S^3 point (xi, eta)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = np.linalg.norm(xi)
    u = xi / n
    du = (np.eye(4) - np.outer(u, u)) / n             # d(xi/|xi|)/dxi
    ue = float(u @ eta)
    jac = np.zeros((8, 8))
    jac[:4, :4] = du
    jac[4:, :4] = -(np.outer(u, eta) + ue * np.eye(4)) @ du
    jac[4:, 4:] = np.eye(4) - np.outer(u, u)
    return jac


def _chart_to_stereo_jacobian(x, y):
    """Jacobian (8, 6) of chart_to_stereo in (x, y) for a spatial chart."""
    s1 = float(x @ x) + 1.0
    e0 = float(x @ y)
    jac = np.zeros((8, 6))
    jac[0, :3] = 4.0 * x / s1 ** 2
    jac[1:4, :3] = 2.0 * np.eye(3) / s1 - 4.0 * np.outer(x, x) / s1 ** 2
    jac[4, :3], jac[4, 3:] = y, x
    jac[5:, :3] = np.outer(y, x) - np.outer(x, y) - e0 * np.eye(3)
    jac[5:, 3:] = 0.5 * s1 * np.eye(3) - np.outer(x, x)
    return jac


def _stereo_to_chart_jacobian(xi, eta):
    """Jacobian (6, 8) of stereo_to_chart in (xi, eta) on T*S^3."""
    s = 1.0 - xi[0]
    jac = np.zeros((6, 8))
    jac[:3, 0] = xi[1:] / s ** 2
    jac[:3, 1:4] = np.eye(3) / s
    jac[3:, 0] = -eta[1:]
    jac[3:, 1:4] = eta[0] * np.eye(3)
    jac[3:, 4] = xi[1:]
    jac[3:, 5:] = s * np.eye(3)
    return jac


# --- CR3BP f/b/M and the regularized Hamiltonian ---

_K_OFFSET = np.array([-1.0, 0.0, 0.0])  # chart-center minus other-primary


def _fbM(xi, eta, c, nu):
    """f, b, M of the CR3BP chart with regularized-primary mass nu.

    b carries the attraction of the other primary (mass 1-nu, at chart
    position (1,0,0)), M the magnetic pairing.  f is evaluated by its
    explicit formula; f = 1 + (1-xi0) b + M holds identically.
    """
    other = 1.0 - nu
    s = 1.0 - xi[0]
    w = xi[2] * eta[1] - xi[1] * eta[2]
    u = s * eta[1:] + eta[0] * xi[1:] + _K_OFFSET
    d = math.sqrt(float(u @ u))
    if d < 1e-12:
        raise SecondaryCollisionError(
            "regularized chart reached the other primary"
        )
    b = -(c + 0.5) - other / d
    M = s * w - xi[2] * other
    f = 1.0 + s * (-(c + 0.5) + w) - xi[2] * other - other * s / d
    return f, b, M


def _regularized_mass(mu, primary):
    """nu: mu for the Moon chart, 1 - mu for the relabeled Earth chart."""
    validate_mu(mu)
    return float(mu) if primary == "moon" else 1.0 - float(mu)


def moser_fbM(xi, eta, c, mu, primary="moon"):
    """(f, b, M) of the Moon (or relabeled Earth) chart at energy c."""
    return _fbM(np.asarray(xi, float), np.asarray(eta, float), c,
                _regularized_mass(mu, primary))


def regularized_hamiltonian(xi, eta, c, mu, primary="moon"):
    """Q = f^2 |eta|^2 / 2; Q = mu_reg^2 / 2 corresponds to H = c."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    f, _, _ = moser_fbM(xi, eta, c, mu, primary)
    return 0.5 * f * f * float(eta @ eta)


def _q_gradient(v, c, nu, sqrt=math.sqrt):
    """Ambient gradient of Q = f^2 |eta|^2 / 2 at v = [xi0..xi3, eta0..eta3].

    v is a list of 8 floats; returns the 8 floats (dQ/dxi, dQ/deta),
    |eta|^2 and f.  Scalar arithmetic throughout: this is the inner loop
    of every Moser-chart flight.  With sqrt=np.sqrt the same formula runs
    elementwise on arrays, complex ones included (no collision check).
    """
    x0, x1, x2, x3, e0, e1, e2, e3 = v
    other = 1.0 - nu
    s = 1.0 - x0
    w = x2 * e1 - x1 * e2
    u1 = s * e1 + e0 * x1 - 1.0    # _K_OFFSET = (-1, 0, 0)
    u2 = s * e2 + e0 * x2
    u3 = s * e3 + e0 * x3
    d2 = u1 * u1 + u2 * u2 + u3 * u3
    d = sqrt(d2)
    if sqrt is math.sqrt and d < 1e-12:
        raise SecondaryCollisionError(
            "regularized chart reached the other primary"
        )
    f = 1.0 + s * (-(c + 0.5) + w) - x2 * other - other * s / d
    # gradient of f: angular part s*w, -xi2*other, and T = -other*s/d
    coef = other * s / (d * d2)
    ce0 = coef * e0
    cs = coef * s
    fx0 = (c + 0.5) - w + (other / d - coef * (u1 * e1 + u2 * e2 + u3 * e3))
    fx1 = -s * e2 + ce0 * u1
    fx2 = s * e1 - other + ce0 * u2
    fx3 = ce0 * u3
    fe0 = coef * (u1 * x1 + u2 * x2 + u3 * x3)
    fe1 = s * x2 + cs * u1
    fe2 = -s * x1 + cs * u2
    fe3 = cs * u3
    nsq = e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3
    a = f * nsq
    ff = f * f
    return ([a * fx0, a * fx1, a * fx2, a * fx3,
             a * fe0 + ff * e0, a * fe1 + ff * e1, a * fe2 + ff * e2,
             a * fe3 + ff * e3], nsq, f)


def _q_rhs(v, c, nu, sqrt=math.sqrt):
    """Packed Moser right-hand side on v = [xi0..xi3, eta0..eta3]: a list
    of 9 values.

    Rows 0-7 are the Hamiltonian field of Q on T*S^3 (Dirac projection):
    the ambient field (dQ/deta, -dQ/dxi) corrected with the multipliers of
    the constraints phi1 = (|xi|^2-1)/2, phi2 = <xi,eta> so that both are
    conserved; Q itself is conserved exactly by the corrected field.
    Row 8 is the clock dt/ds = nu (1 - xi0) |eta|.  sqrt as in _q_gradient.
    """
    (qx0, qx1, qx2, qx3, qe0, qe1, qe2, qe3), nsq, _ = _q_gradient(
        v, c, nu, sqrt)
    x0, x1, x2, x3, e0, e1, e2, e3 = v
    lam1 = -(qe0 * x0 + qe1 * x1 + qe2 * x2 + qe3 * x3)
    lam2 = ((qx0 * x0 + qx1 * x1 + qx2 * x2 + qx3 * x3)
            - (qe0 * e0 + qe1 * e1 + qe2 * e2 + qe3 * e3))
    return [
        qe0 + lam1 * x0, qe1 + lam1 * x1, qe2 + lam1 * x2, qe3 + lam1 * x3,
        -qx0 - lam1 * e0 + lam2 * x0, -qx1 - lam1 * e1 + lam2 * x1,
        -qx2 - lam1 * e2 + lam2 * x2, -qx3 - lam1 * e3 + lam2 * x3,
        nu * ((1.0 - x0) * sqrt(nsq)),
    ]


def _q_field(z, c, nu):
    """Packed Moser right-hand side (see _q_rhs) on z = (xi, eta, t)."""
    return np.array(_q_rhs(z[:8].tolist(), c, nu))


_CS_STEP = 1e-20    # complex-step size: exact to rounding, no cancellation


def q_field_jacobian_rows(Z, c, nu):
    """Packed Moser field of each row of Z (m, 9) = (xi, eta, t), and its
    Jacobian in (xi, eta, t, c), of shape (m, 9, 10).

    The derivatives come from one complex-step evaluation of _q_rhs on
    arrays, one perturbed copy of the rows per input direction; the field
    does not depend on t, so that column is zero.
    """
    m = len(Z)
    pert = 1j * _CS_STEP * np.eye(9)          # directions xi, eta, c
    v = [Z[:, i][None, :] + pert[i][:, None] for i in range(8)]
    out = np.array(_q_rhs(v, c + pert[8][:, None], nu, np.sqrt))
    jac = np.zeros((m, 9, 10))
    d = out.imag.transpose(2, 0, 1) / _CS_STEP   # (m, row, direction)
    jac[:, :, :8] = d[:, :, :8]
    jac[:, :, 9] = d[:, :, 8]
    return out[:, 0].real.T.copy(), jac


def regularized_gradient(xi, eta, c, mu, primary="moon"):
    """Ambient gradient (dQ/dxi, dQ/deta) of Q = f^2 |eta|^2 / 2."""
    nu = _regularized_mass(mu, primary)
    g, _, _ = _q_gradient(np.concatenate([xi, eta]).tolist(), c, nu)
    return np.array(g[:4]), np.array(g[4:])


def regularized_vector_field(xi, eta, c, mu, primary="moon"):
    """Hamiltonian field of Q constrained to T*S^3 (Dirac projection).

    See _q_field; returns (dxi/ds, deta/ds).
    """
    out = _q_field(np.concatenate([xi, eta]), c,
                   _regularized_mass(mu, primary))
    return out[:4], out[4:8]


class MoserChart:
    """Conversions between rotating-frame states and a primary's Moser chart.

    primary='moon' regularizes the light primary (g = mu).  primary='earth'
    regularizes the heavy one via the relabeling nu = 1 - mu applied to the
    frame rotated by pi about the q3 axis (which maps the CR3BP with mass
    ratio mu to the one with mass ratio 1 - mu, primaries swapped).
    """

    def __init__(self, mu, primary="moon"):
        validate_mu(mu)
        if primary not in ("moon", "earth"):
            raise ConfigError(f"unknown primary {primary!r}")
        self.mu = float(mu)
        self.primary = primary
        self.nu = float(mu) if primary == "moon" else 1.0 - float(mu)
        if self.nu == 0.0:
            raise ConfigError(
                f"primary {primary!r} is massless at mu={mu}; no chart"
            )
        self._center = np.array([self.nu - 1.0, 0.0, 0.0])
        self._rotate = primary == "earth"

    @property
    def g(self):
        return self.nu

    def _to_relabeled(self, vec3):
        if self._rotate:
            return np.array([-vec3[0], -vec3[1], vec3[2]])
        return np.asarray(vec3, dtype=float)

    def from_physical(self, state):
        """Rotating-frame (q, p) -> (xi, eta)."""
        q = self._to_relabeled(state[:3])
        p = self._to_relabeled(state[3:6])
        return chart_to_stereo(-p, q - self._center)

    def to_physical(self, xi, eta):
        """(xi, eta) -> rotating-frame (q, p); north pole has no image.

        (4,) inputs give a (6,) state; (4, m) inputs give (6, m) states.
        """
        x, y = stereo_to_chart(xi, eta)
        q = self._to_relabeled((y.T + self._center).T)
        p = self._to_relabeled(-x)
        return np.concatenate([q, p])

    def physical_rows(self, z, rows):
        """Rows ``rows`` of to_physical(z[:4], z[4:8]), bit for bit, each
        built from only the chart rows it needs (chart_rows): z is indexed
        by chart row (xi0..xi3, eta0..eta3), its entries arrays of the same
        shape, and only those entries are read.  Returns the list of rows;
        the north pole has no image."""
        s = 1.0 - z[0]
        if (np.abs(s) < NORTH_POLE_TOL).any():
            raise NorthPoleError("state on the collision fiber xi0 = 1")
        out = []
        for r in rows:
            i = r % 3
            if r < 3:
                v = (z[4] * z[i + 1] + s * z[i + 5]) + self._center[i]
            else:
                v = -(z[i + 1] / s)
            # the relabeled Earth chart turns the frame by pi about q3
            out.append(-v if self._rotate and i < 2 else v)
        return out

    def _frame_jacobian(self):
        """d(x, y)/d(q, p) of the chart coordinates x = -p, y = q - center
        (in the relabeled frame); it is its own inverse up to sign."""
        r = np.diag([-1.0, -1.0, 1.0]) if self._rotate else np.eye(3)
        jac = np.zeros((6, 6))
        jac[:3, 3:] = -r
        jac[3:, :3] = r
        return jac

    def from_physical_jacobian(self, state):
        """Jacobian (8, 6) of from_physical at a rotating-frame state."""
        q = self._to_relabeled(state[:3])
        p = self._to_relabeled(state[3:6])
        return (_chart_to_stereo_jacobian(-p, q - self._center)
                @ self._frame_jacobian())

    def to_physical_jacobian(self, xi, eta):
        """Jacobian (6, 8) of to_physical at (xi, eta)."""
        return self._frame_jacobian().T @ _stereo_to_chart_jacobian(
            np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))

    def physical_radius(self, xi, eta):
        """Distance to the regularized primary, |q_loc| = (1 - xi0)|eta|."""
        return (1.0 - xi[0]) * math.sqrt(float(np.asarray(eta) @ np.asarray(eta)))

    def fbM(self, xi, eta, c):
        return _fbM(np.asarray(xi, float), np.asarray(eta, float), c, self.nu)

    def Q(self, xi, eta, c):
        f, _, _ = self.fbM(xi, eta, c)
        return 0.5 * f * f * float(np.asarray(eta) @ np.asarray(eta))

    def q_level(self):
        """Value of Q corresponding to H = c: g^2 / 2."""
        return 0.5 * self.nu ** 2

    def field(self, z, c):
        """Packed right-hand side (dxi/ds, deta/ds, dt/ds) at z = (xi, eta,
        t): a list of 9 floats for a list z, an array for an array."""
        if type(z) is list:
            return _q_rhs(z[:8], c, self.nu)
        return _q_field(z, c, self.nu)


# --- Levi-Civita ---


def levi_civita(u, v):
    """Levi-Civita map (u, v) -> (p, q) = (u / conj(v), 2 v^2).

    u, v are complex numbers; the map is a degree-2 cover
    (L(-u,-v) = L(u,v)) off v = 0.
    """
    v = complex(v)
    if abs(v) < 1e-300:
        raise ZeroVError("Levi-Civita chart requires v != 0")
    u = complex(u)
    return u / v.conjugate(), 2.0 * v * v


def lc_hamiltonian(u, v):
    """Shifted, regularized planar Kepler Hamiltonian (|u|^2 + |v|^2 - 1)/2."""
    return 0.5 * (abs(u) ** 2 + abs(v) ** 2 - 1.0)


def lc_vector_field(z):
    """Flow of the LC Hamiltonian w.r.t. the pulled-back form 4 Re(du^ x dv).

    z = (u1, u2, v1, v2) real; udot = -v/4, vdot = u/4: two harmonic
    oscillators of common angular rate 1/4.
    """
    u1, u2, v1, v2 = z
    return [-v1 / 4.0, -v2 / 4.0, u1 / 4.0, u2 / 4.0]


# --- Kepler oracles ---


def _kepler_chart_field(t, z):
    """Regularized Kepler field on the planar chart z = (x, y), as floats."""
    x1, x2, y1, y2 = z
    s = x1 * x1 + x2 * x2
    ny = math.sqrt(y1 * y1 + y2 * y2)
    g = 0.5 * (s + 1.0) * ny
    a = g * 0.5 * (s + 1.0)
    b = g * ny
    return [a * y1 / ny, a * y2 / ny, -b * x1, -b * x2]


@dataclass(frozen=True)
class KeplerOracleReport:
    k_flow_planarity: float      # worst third singular value over orbits
    lc_period_spread: float      # max - min measured period
    lc_period_mean: float
    circular_max_xi0: float      # |xi0| along the circular-orbit image
    passed: bool


def kepler_oracles(seed=0):
    """Closed-form checks of the two Kepler regularizations, over 10
    random orbits each, flown on the package's own DOP853 (flows.solve_ivp).

    (a) The flow of the regularized Kepler Hamiltonian in the planar
        Moser chart maps to great circles on S^2 (the xi samples of each
        orbit span only a 2-plane through the origin).
    (b) All orbits of the Levi-Civita Hamiltonian on its zero level are
        periodic with one common period (harmonic oscillators).
    (c) The Kepler circular orbit at energy -1/2 maps to the equator.
    """
    # flows imports this module, so its names are imported at call time
    from .flows import FlowEvent, IntegratorConfig, solve_ivp

    rng = np.random.default_rng(seed)
    cfg = IntegratorConfig(tol=1e-12)

    # (a) great circles
    worst_sv = 0.0
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=2)
        y = rng.uniform(-1.5, 1.5, size=2)
        if np.linalg.norm(y) < 0.2:
            y += 0.5
        leg = solve_ivp(_kepler_chart_field, (0.0, 6.0),
                        np.concatenate([x, y]), [], cfg)
        pts = [chart_to_stereo(z[:2], z[2:])[0]
               for z in leg.sol(np.linspace(0.0, 6.0, 400)).T]
        sv = np.linalg.svd(pts, compute_uv=False)
        worst_sv = max(worst_sv, sv[2])

    # (b) common LC period (exact value 8*pi) via event-located returns
    periods = []
    for _ in range(10):
        z0 = rng.normal(size=4)
        z0 /= np.linalg.norm(z0)  # Q = 0 level is the unit sphere
        w0 = np.array([-z0[2], -z0[3], z0[0], z0[1]])
        phase = FlowEvent(lambda z, w0=w0: float(z @ w0), direction=1.0)
        # burn-in leg so the event does not fire on the initial zero
        lead = solve_ivp(lambda t, z: lc_vector_field(z), (0.0, 1.0), z0,
                         [], cfg)
        leg = solve_ivp(lambda t, z: lc_vector_field(z), (1.0, 40.0),
                        lead.y_end, [phase], cfg)
        periods.append(leg.hits[0][0] if leg.hits else math.nan)
    periods = np.asarray(periods)
    spread = float(np.max(periods) - np.min(periods))

    # (c) circular orbit at Kepler energy -1/2 -> equatorial great circle
    ts = np.linspace(0.0, 2.0 * math.pi, 200)
    max_xi0 = 0.0
    for t in ts:
        q = np.array([math.cos(t), math.sin(t)])
        p = np.array([-math.sin(t), math.cos(t)])
        xi, eta = chart_to_stereo(-p, q)
        max_xi0 = max(max_xi0, abs(xi[0]))

    passed = worst_sv < 1e-8 and spread < 1e-8 and max_xi0 < 1e-10
    return KeplerOracleReport(
        k_flow_planarity=worst_sv,
        lc_period_spread=spread,
        lc_period_mean=float(np.mean(periods)),
        circular_max_xi0=max_xi0,
        passed=passed,
    )
