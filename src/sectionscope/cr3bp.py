"""Rotating-frame CR3BP dynamics, Lagrange points, Hill regions, Stark-Zeeman systems.

Conventions (nondimensional: primary separation 1, total mass 1, angular
rate 1).  The heavy primary ("Earth", mass 1-mu) sits at e = (mu, 0, 0),
the light one ("Moon", mass mu) at m = (-1+mu, 0, 0).  The autonomous
rotating-frame Hamiltonian is

    H(q, p) = 1/2 |p|^2 - mu/|q-m| - (1-mu)/|q-e| + p1 q2 - p2 q1

with the standard symplectic form, so qdot = dH/dp, pdot = -dH/dq.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.ndimage import label as ndi_label
from scipy.optimize import brentq

from .errors import CollisionError, ConfigError, RootBracketingError

EARTH_MOON_MU = 0.0121505856

COLLISION_THRESHOLD = 1e-10


def validate_mu(mu, strict=False):
    """Check mass-ratio range. strict=True additionally excludes 0 and 1."""
    if not (0.0 <= mu <= 1.0):
        raise ConfigError(f"mass ratio mu={mu} outside [0, 1]")
    if strict and not (0.0 < mu < 1.0):
        raise ConfigError(f"mass ratio mu={mu} must lie strictly in (0, 1)")
    return float(mu)


def primaries(mu):
    """Positions of the heavy primary e and the light primary m."""
    e = np.array([mu, 0.0, 0.0])
    m = np.array([mu - 1.0, 0.0, 0.0])
    return e, m


def _check_collision(q, mu):
    e, m = primaries(mu)
    de = math.sqrt((q[0] - e[0]) ** 2 + q[1] ** 2 + q[2] ** 2)
    dm = math.sqrt((q[0] - m[0]) ** 2 + q[1] ** 2 + q[2] ** 2)
    if de < COLLISION_THRESHOLD or dm < COLLISION_THRESHOLD:
        raise CollisionError(
            f"position {tuple(q)} within {COLLISION_THRESHOLD} of a primary"
        )
    return de, dm


def hamiltonian(state, mu):
    """Rotating-frame Hamiltonian H(q, p).

    state : array-like, shape (6,) -- (q1, q2, q3, p1, p2, p3).
    """
    q = np.asarray(state[:3], dtype=float)
    p = np.asarray(state[3:6], dtype=float)
    de, dm = _check_collision(q, mu)
    kinetic = 0.5 * float(p @ p)
    coriolis = p[0] * q[1] - p[1] * q[0]
    return kinetic - mu / dm - (1.0 - mu) / de + coriolis


def hamiltonian_columns(states, mu):
    """H of each column of a (6, n) array of states, without the collision
    check.  Bit for bit the value of hamiltonian, except for the rare
    square that its ** 2 (libm's pow) rounds differently from x * x."""
    q1, q2, q3, p1, p2, _ = states
    de = np.sqrt((q1 - mu) ** 2 + q2 ** 2 + q3 ** 2)
    dm = np.sqrt((q1 - (mu - 1.0)) ** 2 + q2 ** 2 + q3 ** 2)
    # vecdot rounds like the BLAS dot of p @ p in hamiltonian
    kinetic = 0.5 * np.vecdot(states[3:6], states[3:6], axis=0)
    return kinetic - mu / dm - (1.0 - mu) / de + (p1 * q2 - p2 * q1)


def vector_field(state, mu):
    """Hamiltonian vector field (qdot, pdot) of the rotating frame at a
    (6,) state array.

    The arithmetic runs on Python floats (the inner loop of every
    rotating-chart flight), in the operation order of numpy scalars.
    """
    q1, q2, q3, p1, p2, p3 = state.tolist()
    de3, dm3 = _distance_cubes(q1, q2, q3, mu)
    ax = mu * (q1 - (mu - 1.0)) / dm3 + (1.0 - mu) * (q1 - mu) / de3
    ay = mu * q2 / dm3 + (1.0 - mu) * q2 / de3
    az = mu * q3 / dm3 + (1.0 - mu) * q3 / de3
    return np.array(
        [
            p1 + q2,
            p2 - q1,
            p3,
            p2 - ax,
            -p1 - ay,
            -az,
        ]
    )


def _distance_cubes(q1, q2, q3, mu):
    dx_e = q1 - mu
    dx_m = q1 - (mu - 1.0)
    r2 = q2 * q2 + q3 * q3
    de = math.sqrt(dx_e * dx_e + r2)
    dm = math.sqrt(dx_m * dx_m + r2)
    if de < COLLISION_THRESHOLD or dm < COLLISION_THRESHOLD:
        raise CollisionError("state within collision threshold of a primary")
    return de ** 3, dm ** 3


def vector_field_ode(t, state, mu):
    """solve_ivp-compatible wrapper (autonomous)."""
    return vector_field(state, mu)


def effective_potential(q, mu):
    """U(q) = -mu/|q-m| - (1-mu)/|q-e| - (q1^2 + q2^2)/2.

    Completing squares in the momenta gives H(q,p) = |p + A|^2/2 + U(q)
    with A = (q2, -q1, 0), so U(q) = min_p H(q, p).
    """
    q = np.asarray(q, dtype=float)
    de, dm = _check_collision(q, mu)
    return -mu / dm - (1.0 - mu) / de - 0.5 * (q[0] ** 2 + q[1] ** 2)


def effective_potential_grid(x, y, z, mu):
    """Vectorized effective potential on broadcastable coordinate arrays.

    -inf on a primary with mass; a massless primary adds nothing, also
    at its own position.
    """
    de = np.sqrt((x - mu) ** 2 + y ** 2 + z ** 2)
    dm = np.sqrt((x - mu + 1.0) ** 2 + y ** 2 + z ** 2)
    with np.errstate(divide="ignore"):
        pull_m = mu / dm if mu != 0.0 else 0.0
        pull_e = (1.0 - mu) / de if mu != 1.0 else 0.0
        return -pull_m - pull_e - 0.5 * (x ** 2 + y ** 2)


def grad_effective_potential(q, mu):
    q = np.asarray(q, dtype=float)
    e, m = primaries(mu)
    we = q - e
    wm = q - m
    de = np.linalg.norm(we)
    dm = np.linalg.norm(wm)
    g = mu * wm / dm ** 3 + (1.0 - mu) * we / de ** 3
    g[0] -= q[0]
    g[1] -= q[1]
    return g


def equilibrium_momentum(q):
    """Momentum making qdot vanish at position q: p = (-q2, q1, 0)."""
    return np.array([-q[1], q[0], 0.0])


def hamiltonian_gradient(state, mu):
    """Analytic 6-gradient of H (used for page-adapted frames)."""
    q = np.asarray(state[:3], dtype=float)
    p = np.asarray(state[3:6], dtype=float)
    e, m = primaries(mu)
    we = q - e
    wm = q - m
    de = np.linalg.norm(we)
    dm = np.linalg.norm(wm)
    dq = mu * wm / dm ** 3 + (1.0 - mu) * we / de ** 3
    dq[0] -= p[1]
    dq[1] += p[0]
    dp = p.copy()
    dp[0] += q[1]
    dp[1] -= q[0]
    return np.concatenate([dq, dp])


# --- Lagrange points ---


@dataclass(frozen=True)
class LagrangePointSet:
    mu: float
    points: np.ndarray        # (5, 3) positions, rows L1..L5
    energies: np.ndarray      # (5,) H values with equilibrium momenta
    gradient_norms: np.ndarray

    @property
    def ordering_ok(self):
        """H(L1) < H(L2) < H(L3) < H(L4) = H(L5); asserted for mu < 1/2 only."""
        h = self.energies
        strict = h[0] < h[1] < h[2] < h[3]
        return bool(strict and abs(h[3] - h[4]) < 1e-12)


def _collinear_equation(x, mu):
    """dU/dq1 restricted to the q1-axis."""
    m1 = mu - 1.0
    return (
        (1.0 - mu) * (x - mu) / abs(x - mu) ** 3
        + mu * (x - m1) / abs(x - m1) ** 3
        - x
    )


def _collinear_equation_prime(x, mu):
    m1 = mu - 1.0
    return -2.0 * (1.0 - mu) / abs(x - mu) ** 3 - 2.0 * mu / abs(x - m1) ** 3 - 1.0


def _collinear_root(lo, hi, mu):
    flo = _collinear_equation(lo, mu)
    fhi = _collinear_equation(hi, mu)
    if flo * fhi > 0:
        raise RootBracketingError(
            f"no collinear sign change in [{lo}, {hi}] for mu={mu}"
        )
    x = brentq(_collinear_equation, lo, hi, args=(mu,), xtol=1e-15, rtol=8.9e-16)
    # Newton polish to drive the residual to rounding level
    for _ in range(4):
        fx = _collinear_equation(x, mu)
        x = x - fx / _collinear_equation_prime(x, mu)
    return x


def central_jacobian(fn, x, h):
    """Central-difference Jacobian of fn at x, the package's one source of
    finite-difference Jacobians: column i is (fn(x + h e_i) - fn(x - h e_i))
    / (2h), evaluated plus point first, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dx = np.zeros(x.size)
        dx[i] = h
        cols.append((fn(x + dx) - fn(x - dx)) / (2.0 * h))
    return np.column_stack(cols)


def _triangular_point(mu, sign):
    """The equilateral point, at unit distance from both primaries, where
    grad U vanishes exactly."""
    return np.array([mu - 0.5, sign * math.sqrt(3.0) / 2.0, 0.0])


def lagrange_points(mu):
    """All five critical points of H with their energies.

    L1 lies between the primaries, L2 beyond the Moon (x < -1+mu),
    L3 beyond the Earth (x > mu); L4/L5 are the triangular points.
    """
    validate_mu(mu, strict=True)
    m1 = mu - 1.0
    eps = 1e-9
    x1 = _collinear_root(m1 + eps, mu - eps, mu)
    x2 = _collinear_root(-3.0, m1 - eps, mu)
    x3 = _collinear_root(mu + eps, 3.0, mu)
    pts = np.zeros((5, 3))
    pts[0, 0], pts[1, 0], pts[2, 0] = x1, x2, x3
    pts[3] = _triangular_point(mu, +1.0)
    pts[4] = _triangular_point(mu, -1.0)
    energies = np.array([effective_potential(q, mu) for q in pts])
    grads = np.array(
        [
            np.linalg.norm(
                hamiltonian_gradient(
                    np.concatenate([q, equilibrium_momentum(q)]), mu
                )
            )
            for q in pts
        ]
    )
    return LagrangePointSet(mu=float(mu), points=pts, energies=energies,
                            gradient_norms=grads)


# --- Hill regions ---


def hill_membership(q, c, mu):
    """True iff the position is inside the Hill region of energy c."""
    return effective_potential(q, mu) <= c


@dataclass(frozen=True)
class HillComponents:
    count: int
    labels: np.ndarray            # labeled grid, 0 = forbidden region
    potential: np.ndarray         # U on the same grid
    unbounded: tuple              # label ids touching the box boundary
    axes: tuple                   # coordinate 1-D arrays

    @property
    def bounded_count(self):
        return self.count - len(self.unbounded)


def hill_components(c, mu, box=(-2.0, 2.0), n=256, three_d=False,
                    stability_check=True):
    """Flood-fill count of Hill-region components on a grid.

    box is (lo, hi) applied to every axis, or a per-axis sequence of
    (lo, hi) pairs.  2-D slices (q3 = 0) use 8-connectivity, 3-D grids
    26-connectivity.  Components touching the box boundary are flagged
    unbounded.  A resolution-doubling check warns when the count is not
    yet grid-stable.
    """
    ndim = 3 if three_d else 2
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (ndim, 1))
    if box.shape != (ndim, 2):
        raise ConfigError(f"box must be (lo, hi) or {ndim} such pairs")
    if n < 16:
        raise ConfigError("grid resolution too small (n >= 16)")

    def count_at(res):
        axes = [np.linspace(lo, hi, res) for lo, hi in box]
        if three_d:
            x, y, z = np.meshgrid(*axes, indexing="ij")
        else:
            x, y = np.meshgrid(*axes, indexing="ij")
            z = np.zeros_like(x)
        u = effective_potential_grid(x, y, z, mu)
        inside = u <= c
        structure = np.ones((3,) * ndim, dtype=int)
        labels, cnt = ndi_label(inside, structure=structure)
        unb = set()
        for axis in range(ndim):
            for idx in (0, -1):
                sl = [slice(None)] * ndim
                sl[axis] = idx
                unb.update(np.unique(labels[tuple(sl)]))
        unb.discard(0)
        return cnt, labels, u, tuple(sorted(unb)), tuple(axes)

    cnt, labels, potential, unbounded, axes = count_at(n)
    if stability_check:
        cnt2 = count_at(2 * n)[0]
        if cnt2 != cnt:
            warnings.warn(
                f"Hill component count changed from {cnt} at n={n} to "
                f"{cnt2} at n={2 * n}; grid too coarse",
                stacklevel=2,
            )
    return HillComponents(count=int(cnt), labels=labels, potential=potential,
                          unbounded=unbounded, axes=axes)


# --- Stark-Zeeman systems ---


@dataclass
class StarkZeemanSystem:
    """The data (g, V1, A, c) of a regularizable mechanical system.

    Coordinates are centered on the regularized primary:
    H(q, p) = |p + A(q)|^2 / 2 - g/|q| + V1(q).
    """

    g: float
    V1: Callable[[np.ndarray], float]
    grad_V1: Callable[[np.ndarray], np.ndarray]
    A: Callable[[np.ndarray], np.ndarray]
    c: float
    name: str = "stark-zeeman"
    cr3bp_other_mass: Optional[float] = None  # set for CR3BP instances

    def hamiltonian(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        pa = p + self.A(q)
        return 0.5 * float(pa @ pa) - self.g / np.linalg.norm(q) + self.V1(q)

    def F(self, q):
        """F(q) = g/|q|^3 + (1/q3) dV1/dq3 (the transversality weight)."""
        q = np.asarray(q, dtype=float)
        r = np.linalg.norm(q)
        if abs(q[2]) < 1e-9 and self.cr3bp_other_mass is not None:
            # CR3BP closed form avoids the 0/0 at q3 = 0
            nu = self.cr3bp_other_mass
            w = q - np.array([1.0, 0.0, 0.0])
            return self.g / r ** 3 + nu / np.linalg.norm(w) ** 3
        return self.g / r ** 3 + self.grad_V1(q)[2] / q[2]


def cr3bp_stark_zeeman(mu, c, primary="moon"):
    """CR3BP as a Stark-Zeeman system centered on one primary.

    The chart places the regularized primary (mass nu) at the origin and
    the other primary (mass 1-nu) at (1, 0, 0).  primary='moon' gives
    nu = mu; primary='earth' uses the relabeling nu = 1-mu (the physical
    frame is rotated by pi about the q3 axis, handled in the Moser chart).
    """
    validate_mu(mu)
    if primary == "moon":
        nu = float(mu)
    elif primary == "earth":
        nu = 1.0 - float(mu)
    else:
        raise ConfigError(f"unknown primary {primary!r}")
    other = 1.0 - nu
    m1 = nu - 1.0  # x-offset of the chart origin in the rotating frame

    def V1(q):
        w0 = q[0] - 1.0
        d_other = math.sqrt(w0 * w0 + q[1] ** 2 + q[2] ** 2)
        return -other / d_other - 0.5 * ((q[0] + m1) ** 2 + q[1] ** 2)

    def grad_V1(q):
        w = np.array([q[0] - 1.0, q[1], q[2]])
        d3 = np.linalg.norm(w) ** 3
        g = other * w / d3
        g[0] -= q[0] + m1
        g[1] -= q[1]
        return g

    def A(q):
        return np.array([q[1], -(q[0] + m1), 0.0])

    return StarkZeemanSystem(g=nu, V1=V1, grad_V1=grad_V1, A=A, c=float(c),
                             name=f"cr3bp-{primary}", cr3bp_other_mass=other)


@dataclass(frozen=True)
class AssumptionReport:
    passed: bool
    failures: tuple           # (assumption, witness) pairs
    n_samples: int
    min_F: float


def check_assumptions(sys, samples=200, seed=0, r_range=(0.1, 1.6),
                      tol=1e-10):
    """Verify the Stark-Zeeman structural assumptions on random samples.

    Checks: A has vanishing third component and no q3 dependence; V1 is
    even in q3; F(q) > 0.  For CR3BP instances the identity
    (1/q3) dV1/dq3 = (1-nu)/|q - (1,0,0)|^3 is checked analytically.
    """
    rng = np.random.default_rng(seed)
    failures = []
    min_f = math.inf
    checked = 0
    while checked < samples:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(*r_range)
        q = r * direction
        if np.linalg.norm(q - np.array([1.0, 0.0, 0.0])) < 0.05:
            continue  # avoid the secondary singularity
        checked += 1
        qr = np.array([q[0], q[1], -q[2]])
        a = sys.A(q)
        if abs(a[2]) > tol:
            failures.append(("A2:A3-component", q.copy()))
        if np.max(np.abs(sys.A(qr) - a)) > tol:
            failures.append(("A2:A-q3-independence", q.copy()))
        if abs(sys.V1(qr) - sys.V1(q)) > tol * max(1.0, abs(sys.V1(q))):
            failures.append(("A2:V1-evenness", q.copy()))
        if abs(q[2]) > 1e-3:
            f_val = sys.F(q)
            min_f = min(min_f, f_val)
            if f_val <= 0.0:
                failures.append(("A3:F-positivity", q.copy()))
            if sys.cr3bp_other_mass is not None:
                w = q - np.array([1.0, 0.0, 0.0])
                expected = sys.cr3bp_other_mass / np.linalg.norm(w) ** 3
                got = sys.grad_V1(q)[2] / q[2]
                if abs(got - expected) > 1e-8 * max(1.0, abs(expected)):
                    failures.append(("A3:cr3bp-identity", q.copy()))
    return AssumptionReport(passed=not failures, failures=tuple(failures),
                            n_samples=checked, min_F=min_f)


# --- Energy-shell sampling helpers ---


def bounded_component_radius(mu, c, component="moon"):
    """Safe sampling radius around a primary inside its bounded Hill component.

    For mu > 0 this is 93% of the distance from the primary to L1 (the
    lowest saddle, where the component pinches off).  For mu = 0 the
    single bounded component around the heavy primary is radially
    symmetric up to the centrifugal term; the zero-velocity radius is
    found by 1-D root finding.
    """
    e, m = primaries(mu)
    if mu == 0.0:
        if component != "earth":
            raise ConfigError("mu=0 has no bounded Moon component")
        # U(r) = -1/r - r^2/2 along an axis through the primary; the
        # bounded component ends at the first root below the maximum r=1.
        f = lambda r: -1.0 / r - 0.5 * r * r - c
        if f(1.0) <= 0.0:
            raise ConfigError(f"no bounded component at c={c}")
        r_zv = brentq(f, 1e-6, 1.0)
        return 0.93 * r_zv
    lp = lagrange_points(mu)
    if c >= lp.energies[0]:
        raise ConfigError(f"c={c} not below H(L1)={lp.energies[0]}")
    prim = m if component == "moon" else e
    return 0.93 * abs(lp.points[0][0] - prim[0])


def sample_shell_states(mu, c, n, rng, component="moon",
                        min_primary_dist=0.06, planar_momentum=False,
                        q3_positive=False, max_radius=None):
    """Random states on the energy shell H = c in a bounded Hill component.

    Positions are drawn uniformly in a ball around the chosen primary and
    accepted when allowed (U <= c) and clear of both primaries; momenta
    take a random direction with |p + A| fixed by the energy.  With
    planar_momentum=True the third momentum component is forced to zero
    (page of the physical open book at angle 0 together with q3 > 0).
    """
    e, m = primaries(mu)
    prim = m if component == "moon" else e
    rad = max_radius if max_radius is not None else \
        bounded_component_radius(mu, c, component)
    out = np.empty((n, 6))
    got = 0
    attempts = 0
    while got < n:
        attempts += 1
        if attempts > 10000 * (n + 1):
            raise ConfigError("shell sampling rejection rate too high")
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        q = prim + rad * rng.uniform() ** (1.0 / 3.0) * direction
        if q3_positive:
            q[2] = abs(q[2])
        de = np.linalg.norm(q - e)
        dm = np.linalg.norm(q - m)
        if min(de, dm) < min_primary_dist:
            continue
        u = effective_potential(q, mu)
        if u > c:
            continue
        sigma = math.sqrt(2.0 * (c - u))
        if planar_momentum:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            nhat = np.array([math.cos(phi), math.sin(phi), 0.0])
        else:
            nhat = rng.normal(size=3)
            nhat /= np.linalg.norm(nhat)
        p = sigma * nhat - np.array([q[1], -q[0], 0.0])
        out[got, :3] = q
        out[got, 3:] = p
        got += 1
    return out


def sample_page_states(mu, c, n, rng, component="moon",
                       min_primary_dist=0.06, min_binding=1e-2,
                       max_radius=None):
    """Random states on the page {p3 = 0, q3 > 0} of the physical open book."""
    out = np.empty((n, 6))
    got = 0
    while got < n:
        batch = sample_shell_states(
            mu, c, n - got, rng, component=component,
            min_primary_dist=min_primary_dist, planar_momentum=True,
            q3_positive=True, max_radius=max_radius,
        )
        keep = batch[batch[:, 2] >= min_binding]
        out[got:got + len(keep)] = keep
        got += len(keep)
    return out
