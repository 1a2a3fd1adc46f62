"""Independent references the tests compare the library against: a
central-difference Jacobian, and an event located by scanning and
root-finding on a finished flight's dense output."""

import numpy as np

from sectionscope._numerics import brentq
from sectionscope.errors import NoCrossingError


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
