"""Independent references the tests compare the library against: a
central-difference Jacobian, an event located by scanning and
root-finding on a finished flight's dense output, and a flight Jacobian
that recomputes every stage from the steps' dense output; and helpers
that only the tests call: the symmetry in a Moser chart, a loop of page
points and the Levi-Civita Hamiltonian."""

import math

import numpy as np

from sectionscope import _numerics as dop
from sectionscope._numerics import brentq
from sectionscope.errors import NoCrossingError
from sectionscope.flows import (_STAGES, Trajectory, _dop853_value,
                                _event_gradient, _moser_field_rows,
                                _rot_field_rows)
from sectionscope.cr3bp import hamiltonian
from sectionscope.regularize import (_q_field, project_constraints,
                                     project_constraints_jacobian,
                                     q_field_jacobian_rows)
from sectionscope.sections import SectionSpec, page_embed, page_frame


def central_jacobian(fn, x, h):
    """Central-difference Jacobian of fn at x: column i is
    (fn(x + h e_i) - fn(x - h e_i)) / (2h), evaluated plus point first,
    column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dx = np.zeros(x.size)
        dx[i] = h
        cols.append((fn(x + dx) - fn(x - dx)) / (2.0 * h))
    return np.column_stack(cols)


def event_crossing(traj, fn, direction=0, t_range=None, n_scan=400):
    """Locate a sign change of fn(state(t)) on a trajectory's dense output.

    Scans n_scan points, brackets a crossing with the requested direction,
    and refines it by bisection/Brent to |event| below 1e-12 scale.
    Tangential (non-sign-changing) roots raise NoCrossingError.
    """
    lo = traj.t0 if t_range is None else t_range[0]
    hi = traj.t_end if t_range is None else t_range[1]
    ts = np.linspace(lo, hi, n_scan)
    vals = np.array([fn(traj.state(t)) for t in ts])
    for i in range(len(ts) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            continue
        if a * b < 0.0:
            if direction > 0 and not (a < 0 < b):
                continue
            if direction < 0 and not (a > 0 > b):
                continue
            t_star = brentq(lambda t: fn(traj.state(t)), ts[i], ts[i + 1],
                            xtol=1e-14, rtol=8.9e-16)
            return t_star, traj.state(t_star)
    raise NoCrossingError("no directed sign change of the event function")


# --- a flight Jacobian from recomputed stages ---
#
# flows.flight_jacobian's derivative, computed the long way: every stage
# of every step recomputed with the field from the step's y_old and h,
# each field Jacobian in full (rows (q, p, t, c) or (xi, eta, t, c)), the
# steps applied to the tangent one at a time, and each segment's end
# state read from its dense output.


def _rot_jacobian_rows(Y, mu):
    """Jacobian (m, 6, 8) of the rotating field at each row of Y (m, 6) in
    (q, p, t, c); the field depends on neither t nor c."""
    jac = np.zeros((len(Y), 6, 8))
    jac[:, 0, 1] = jac[:, 3, 4] = 1.0
    jac[:, 1, 0] = jac[:, 4, 3] = -1.0
    jac[:, :3, 3:6] = np.eye(3)
    for pos, mass in ((mu, 1.0 - mu), (mu - 1.0, mu)):
        if mass == 0.0:
            continue
        w = Y[:, :3] - np.array([pos, 0.0, 0.0])
        r2 = np.einsum("ij,ij->i", w, w)[:, None, None]
        r3 = r2 * np.sqrt(r2)
        # dp/dt gets minus the Hessian of the primary's potential -mass/|w|
        jac[:, 3:, :3] -= mass * (np.eye(3) / r3 - 3.0 * w[:, :, None]
                                  * w[:, None, :] / (r2 * r3))
    return jac


def _combine(w, X):
    """sum_s w[s] X[s] over the leading (stage) axis, as one product."""
    n = len(w)
    return (w @ X[:n].reshape(n, -1)).reshape(X.shape[1:])


def _field_derivatives(y, h, last, theta, field, jacobian, D):
    """Derivatives (n, d, D) of DOP853 steps from the rows y (n, d) with
    sizes h (n,), and those (L, d, D) of the dense output of the steps
    ``last`` at the normalized times theta, every stage recomputed with
    field(Y) (m, d) and differentiated with jacobian(Y) (m, d, D)."""
    d = y.shape[1]
    hc, h3 = h[:, None], h[:, None, None]
    eye = np.eye(D)[:d]
    K = np.empty((16, len(y), d))
    stage_rows = [y]
    K[0] = field(y)
    for s in range(1, _STAGES):
        stage_rows.append(y + hc * _combine(dop.A[s, :s], K))
        K[s] = field(stage_rows[-1])
    yl, hl, Kl = y[last], hc[last], K[:, last]
    stage_rows.append(yl + hl * _combine(dop.B, Kl))
    Kl[_STAGES] = field(stage_rows[-1])
    for s in range(_STAGES + 1, 16):
        stage_rows.append(yl + hl * _combine(dop.A[s, :s], Kl))
        Kl[s] = field(stage_rows[-1])
    jac = jacobian(np.concatenate(stage_rows))
    jac = np.split(jac, np.cumsum([len(r) for r in stage_rows])[:-1])

    def tangent(J, dY):
        dK = J[..., :d] @ dY
        dK[..., d:] += J[..., d:]
        return dK

    dK = np.empty((16, len(y), d, D))
    dK[0] = jac[0]
    for s in range(1, _STAGES):
        dK[s] = tangent(jac[s], eye + h3 * _combine(dop.A[s, :s], dK))
    steps = eye + h3 * _combine(dop.B, dK)
    h3, dK = h3[last], dK[:, last]
    dK[_STAGES] = tangent(jac[_STAGES], steps[last])
    for s in range(_STAGES + 1, 16):
        dK[s] = tangent(jac[s], eye + h3 * _combine(dop.A[s, :s], dK))
    dF = np.empty((7,) + dK.shape[1:])
    dF[0] = steps[last] - eye
    dF[1] = h3 * dK[0] - dF[0]
    dF[2] = 2 * dF[0] - h3 * (dK[_STAGES] + dK[0])
    for r in range(4):
        dF[3 + r] = h3 * _combine(dop.D[r], dK)
    return steps, _dop853_value(theta[:, None, None], dF, eye)


def _segment_derivatives(flights):
    """Per segment of the flights, in flight order: its step derivatives
    (n, d, D) and the derivative (d, D) of its dense output at its end."""
    segs = [(traj, seg) for traj in flights for seg in traj.segments]
    groups = {}
    for g, (traj, seg) in enumerate(segs):
        c = None if seg.moser is None else traj.energy
        groups.setdefault((seg.chart, traj.mu, c), []).append(g)
    out = [None] * len(segs)
    for (_, mu, c), members in groups.items():
        ch = segs[members[0]][1].moser
        if ch is None:
            def field(Y):
                return _rot_field_rows(Y.T, mu)[0].T

            def jacobian(Y):
                return _rot_jacobian_rows(Y, mu)
        else:
            def field(Y):
                return _moser_field_rows(Y, c, ch.nu)

            def jacobian(Y):
                return q_field_jacobian_rows(Y, c, ch.nu)[1]
        sols = [segs[g][1].sol for g in members]
        n = np.array([len(sol.h) for sol in sols])
        ends = np.cumsum(n)
        theta = np.array([(sol.ts[-1] - sol.t_old[-1]) / sol.h[-1]
                          for sol in sols])
        steps, dense = _field_derivatives(
            np.concatenate([sol.y_old for sol in sols]),
            np.concatenate([sol.h for sol in sols]), ends - 1, theta,
            field, jacobian, 8 if ch is None else 10)
        for g, hi, m, dn in zip(members, ends, n, dense):
            out[g] = (steps[hi - m:hi], dn)
    return out


def flight_jacobian(flights, V, dc=None):
    """flows.flight_jacobian(flights, V, dc), from recomputed stages."""
    if isinstance(flights, Trajectory):
        flights = [flights]
    derivs = iter(_segment_derivatives(flights))
    V = np.asarray(V, dtype=float)
    k = V.shape[1]
    W = np.vstack([V, np.zeros(k), np.zeros(k) if dc is None else dc])
    for traj in flights:
        mu, c = traj.mu, traj.energy
        W[6] = 0.0
        for i, seg in enumerate(traj.segments):
            sol, ch = seg.sol, seg.moser
            if seg.chart != "rot" and len(W) == 8:     # entering the chart
                z0 = sol.y_old[0]
                W = np.vstack([ch.from_physical_jacobian(
                    ch.to_physical(z0[:4], z0[4:8])) @ W[:6], W[6:]])
            d = sol.y_old.shape[1]
            steps, dense = next(derivs)
            for step in steps[:-1]:
                W[:d] = step @ W
            W[:d] = dense @ W
            t_end = sol.ts[-1]
            x = sol(t_end)
            if seg.chart == "rot":
                x_rows = np.append(x, t_end)                  # (q, p, t)
                F = np.concatenate([_rot_field_rows(x[:, None], mu)[0][:, 0],
                                    [1.0, 0.0]])
            else:
                x_rows = x
                F = np.append(_q_field(x, c, ch.nu), 0.0)
            if seg.end is not None:
                grad = np.zeros(len(W))
                grad[:len(x_rows)] = _event_gradient(seg.end, x_rows)
                W -= np.outer(F, grad @ W) / (grad @ F)
            if seg.chart != "rot":
                xi, eta = x[:4], x[4:8]
                jac = np.eye(8)
                if i + 1 < len(traj.segments):    # leaving the chart
                    jac = project_constraints_jacobian(xi, eta)
                    xi, eta = project_constraints(xi, eta)
                W = np.vstack([ch.to_physical_jacobian(xi, eta) @ jac
                               @ W[:8], W[8:]])
    return W[:6], W[6]


def involution_moser(xi, eta):
    """The same symmetry in the Moser chart: negate the last components."""
    xi = np.asarray(xi, dtype=float).copy()
    eta = np.asarray(eta, dtype=float).copy()
    xi[-1] = -xi[-1]
    eta[-1] = -eta[-1]
    return xi, eta


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


def lc_hamiltonian(u, v):
    """Shifted, regularized planar Kepler Hamiltonian (|u|^2 + |v|^2 - 1)/2."""
    return 0.5 * (abs(u) ** 2 + abs(v) ** 2 - 1.0)
