"""Moser regularization onto T*S^3, Levi-Civita map, and Kepler-limit oracles.

Chart convention: x = -p, y = q with the regularized primary at the
chart origin.  Stereographic projection maps (x, y) to
(xi, eta) in T*S^n = {|xi| = 1, <xi, eta> = 0} subset of R^{n+1} x R^{n+1};
the collision locus is the north pole xi0 = 1 (momenta at infinity).

The intermediate Hamiltonian K = (H - c)|q| becomes |eta| f(xi, eta) - nu
on the chart (nu: the regularized primary's mass); Q = f^2 |eta|^2 / 2 is
smooth across the collision fiber, and its flow on Q = nu^2/2
reparametrizes the H = c flow (dt/ds = nu |q|).
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


def _corners(op, x, y):
    """The least and the greatest of op at the corners of the intervals
    x and y (pairs of ends); NaN where a corner is NaN."""
    v = np.array([op(a, b) for a in x for b in y])
    return v.min(axis=0), v.max(axis=0)


def chart_to_stereo(x, y):
    """Chart (x, y) -> regularized (xi, eta); total (defined for all inputs)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = float(x @ x)
    xi = np.empty(len(x) + 1)
    eta = np.empty_like(xi)
    xi[0] = (s - 1.0) / (s + 1.0)
    xi[1:] = 2.0 * x / (s + 1.0)
    eta[0] = float(x @ y)
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


_I3, _I4 = np.eye(3), np.eye(4)


def project_constraints_jacobian(xi, eta):
    """Jacobian (8, 8) of project_constraints at a T*S^3 point (xi, eta)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = math.sqrt(xi @ xi)
    u = xi / n
    P = _I4 - u[:, None] * u                          # I - u u^T
    jac = np.zeros((8, 8))
    jac[:4, :4] = du = P / n                          # d(xi/|xi|)/dxi
    jac[4:, :4] = -(u[:, None] * eta + (u @ eta) * _I4) @ du
    jac[4:, 4:] = P
    return jac


def _chart_to_stereo_jacobian(x, y):
    """Jacobian (8, 6) of chart_to_stereo in (x, y) for a spatial chart."""
    s1 = float(x @ x) + 1.0
    e0 = float(x @ y)
    xx = x[:, None] * x                               # x x^T
    jac = np.zeros((8, 6))
    jac[0, :3] = 4.0 * x / s1 ** 2
    jac[1:4, :3] = 2.0 * _I3 / s1 - 4.0 * xx / s1 ** 2
    jac[4, :3], jac[4, 3:] = y, x
    jac[5:, :3] = y[:, None] * x - x[:, None] * y - e0 * _I3
    jac[5:, 3:] = 0.5 * s1 * _I3 - xx
    return jac


def _stereo_to_chart_jacobian(xi, eta):
    """Jacobian (6, 8) of stereo_to_chart in (xi, eta) on T*S^3."""
    s = 1.0 - xi[0]
    jac = np.zeros((6, 8))
    jac[:3, 0] = xi[1:] / s ** 2
    jac[:3, 1:4] = _I3 / s
    jac[3:, 0] = -eta[1:]
    jac[3:, 1:4] = eta[0] * _I3
    jac[3:, 4] = xi[1:]
    jac[3:, 5:] = s * _I3
    return jac


# --- CR3BP f/b/M and the regularized Hamiltonian ---


def _q_gradient(v, c, nu, sqrt=math.sqrt):
    """Ambient gradient of Q = f^2 |eta|^2 / 2 at v = [xi0..xi3, eta0..eta3].

    v is a list of 8 floats; returns the 8 floats (dQ/dxi, dQ/deta),
    |eta|^2, f and d, the chart distance to the other primary.  Scalar
    arithmetic throughout: this is the inner loop of every Moser-chart
    flight.  With sqrt=np.sqrt the same formula runs elementwise on
    arrays, complex ones included (no collision check).
    """
    x0, x1, x2, x3, e0, e1, e2, e3 = v
    other = 1.0 - nu
    s = 1.0 - x0
    w = x2 * e1 - x1 * e2
    u1 = s * e1 + e0 * x1 - 1.0    # the other primary is at (1, 0, 0)
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
             a * fe3 + ff * e3], nsq, f, d)


def _q_rhs(v, c, nu, sqrt=math.sqrt):
    """Packed Moser right-hand side on v = [xi0..xi3, eta0..eta3]: a list
    of 9 values.

    Rows 0-7 are the Hamiltonian field of Q on T*S^3 (Dirac projection):
    the ambient field (dQ/deta, -dQ/dxi) corrected with the multipliers of
    the constraints phi1 = (|xi|^2-1)/2, phi2 = <xi,eta> so that both are
    conserved; Q itself is conserved exactly by the corrected field.
    Row 8 is the clock dt/ds = nu (1 - xi0) |eta|.  sqrt as in _q_gradient.
    """
    grad, nsq, _, _ = _q_gradient(v, c, nu, sqrt)
    return _dirac_field(v, grad, nsq, nu, sqrt)


def q_rhs_rows(Z, c, nu):
    """_q_rhs of each state Z[:, i] of Z (>= 8, m), component-major, run
    elementwise on arrays: the field (9, m), the bits of _q_rhs on each
    state's floats, and the mask of the states where _q_rhs on floats
    raises SecondaryCollisionError."""
    v = list(Z[:8])
    grad, nsq, _, d = _q_gradient(v, c, nu, np.sqrt)
    return np.array(_dirac_field(v, grad, nsq, nu, np.sqrt)), d < 1e-12


def _dirac_field(v, grad, nsq, nu, sqrt):
    """_q_rhs from the ambient gradient grad of Q and nsq = |eta|^2 at v."""
    qx0, qx1, qx2, qx3, qe0, qe1, qe2, qe3 = grad
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


class MoserChart:
    """Conversions between rotating-frame states and a primary's Moser chart.

    primary='moon' regularizes the light primary (nu = mu).  primary='earth'
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
        """(xi, eta) -> rotating-frame (q, p): all six physical_rows;
        north pole has no image.

        (4,) inputs give a (6,) state; (4, m) inputs give (6, m) states.
        """
        return np.array(self.physical_rows([*xi, *eta], range(6)))

    def physical_rows(self, z, rows):
        """Rows ``rows`` (q1..q3, p1..p3 numbered 0..5) of the
        rotating-frame state at the chart state z, each built from only
        the chart rows it needs (chart_rows): z is indexed
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

    def physical_bounds(self, lo, hi, rows):
        """Intervals (lo, hi) of the rows ``rows`` of physical_rows where
        the chart rows lie in [lo, hi] (indexed like its z): lists of the
        rows.  Each of physical_rows' operations is done on the interval
        ends, keeping the least and the greatest result; rounding to
        nearest is monotone, so the ends hold every value physical_rows
        computes.  p_i is unbounded where s = 1 - xi0 can reach 0."""
        s = 1.0 - hi[0], 1.0 - lo[0]
        out_lo, out_hi = [], []
        for r in rows:
            i = r % 3
            if r < 3:
                a, b = _corners(np.multiply, (lo[4], hi[4]),
                                (lo[i + 1], hi[i + 1]))
                c, d = _corners(np.multiply, s, (lo[i + 5], hi[i + 5]))
                v = (a + c) + self._center[i], (b + d) + self._center[i]
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    a, b = _corners(np.divide, (lo[i + 1], hi[i + 1]), s)
                v = (np.where(s[0] > 0, -b, -np.inf),
                     np.where(s[0] > 0, -a, np.inf))
            # the relabeled Earth chart turns the frame by pi about q3
            if self._rotate and i < 2:
                v = -v[1], -v[0]
            out_lo.append(v[0])
            out_hi.append(v[1])
        return out_lo, out_hi

    def _frame_jacobian(self):
        """d(x, y)/d(q, p) of the chart coordinates x = -p, y = q - center
        (in the relabeled frame); it is its own inverse up to sign."""
        r = np.diag([-1.0, -1.0, 1.0]) if self._rotate else _I3
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
        """f, b, M of the chart at energy c, with f = 1 + (1 - xi0) b + M:
        b carries the attraction of the other primary (mass 1 - nu, at
        chart position (1, 0, 0)), M the magnetic pairing.  f is the one
        _q_gradient computes; raises SecondaryCollisionError at the other
        primary."""
        v = np.concatenate([xi, eta]).tolist()
        _, _, f, d = _q_gradient(v, c, self.nu)
        x0, x1, x2, _, _, e1, e2, _ = v
        other = 1.0 - self.nu
        b = -(c + 0.5) - other / d
        M = (1.0 - x0) * (x2 * e1 - x1 * e2) - x2 * other
        return f, b, M

    def Q(self, xi, eta, c):
        """The regularized Hamiltonian f^2 |eta|^2 / 2 at energy c."""
        f, _, _ = self.fbM(xi, eta, c)
        return 0.5 * f * f * float(np.asarray(eta) @ np.asarray(eta))

    def q_level(self):
        """Value of Q corresponding to H = c: nu^2 / 2."""
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
