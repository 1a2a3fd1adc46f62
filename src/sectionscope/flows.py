"""Adaptive integration of CR3BP flows with collision-chart switching.

The unregularized rotating-frame flow is integrated with an embedded
high-order Runge-Kutta pair (dense output for event location).  When the
satellite comes within ``collision_switch_radius`` of a massive primary,
the state is pushed through the Moser chart of that primary and the
regularized flow of Q is integrated instead; the physical time is
accumulated alongside (dt/ds = g |q_loc|).  The chart is left again at
twice the radius (hysteresis).
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import cr3bp
from .cr3bp import hamiltonian, primaries, vector_field_ode
from .errors import (
    ConfigError,
    ConstraintDriftError,
    MaxTimeExceeded,
    NoCrossingError,
    StepSizeUnderflow,
)
from .regularize import MoserChart, constraint_residual, project_constraints

_VERSION = "0.1.0"


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_step: float = math.inf
    collision_switch_radius: float = 0.05
    max_time: float = 1000.0
    switching: bool = True
    reg_chunk: float = 2.0          # regularized-time span between projections
    max_reg_time: float = 1e4       # regularized-time budget per chart visit
    constraint_tol: float = 1e-6    # pre-projection residual limit

    def __post_init__(self):
        # written as not (valid) so that NaN fails every check
        if not (0.0 < self.rel_tol <= 1e-3 and 0.0 < self.abs_tol <= 1e-3):
            raise ConfigError("integrator tolerances must lie in (0, 1e-3]")
        if not self.max_step > 0.0:
            raise ConfigError("max_step must be positive")
        if not (0.0 < self.collision_switch_radius <= 0.2):
            raise ConfigError("collision_switch_radius must lie in (0, 0.2]")
        if not self.max_time > 0.0:
            raise ConfigError("max_time must be positive")
        if not isinstance(self.switching, bool):
            raise ConfigError("switching must be True or False")
        if not (0.0 < self.reg_chunk < math.inf):
            raise ConfigError("reg_chunk must be positive and finite")
        if not (0.0 < self.max_reg_time < math.inf):
            raise ConfigError("max_reg_time must be positive and finite")
        if not self.constraint_tol > 0.0:
            raise ConfigError("constraint_tol must be positive")


class FlowEvent:
    """Event function usable in both charts.

    fn(state6) evaluates on rotating-frame states.  chart_fn(chart, xi, eta),
    when given, is used inside Moser segments (needed for quantities that
    stay bounded across collisions where the physical momenta blow up).
    """

    def __init__(self, fn, direction=0.0, terminal=True, chart_fn=None,
                 name="event"):
        self.fn = fn
        self.chart_fn = chart_fn
        self.direction = float(direction)
        self.terminal = bool(terminal)
        self.name = name


@dataclass
class Segment:
    chart: str                    # 'rot' | 'moser-moon' | 'moser-earth'
    sol: object                   # OdeSolution in the segment variable
    t0: float
    t1: float
    nodes: np.ndarray             # solver accept times (segment variable)
    moser: Optional[MoserChart] = None
    residual: float = 0.0         # pre-projection constraint residual

    def raw_at(self, t):
        """Raw segment state at physical time t."""
        if self.chart == "rot":
            return self.sol(t)
        s = self._s_of_t(t)
        return self.sol(s)

    def _s_of_t(self, t):
        lo, hi = float(self.nodes[0]), float(self.nodes[-1])
        if t <= self.sol(lo)[8]:
            return lo
        if t >= self.sol(hi)[8]:
            return hi
        return brentq(lambda s: self.sol(s)[8] - t, lo, hi, xtol=1e-14)

    def state_at(self, t, mu):
        """Physical 6-state at physical time t."""
        z = self.raw_at(t)
        if self.chart == "rot":
            return z
        return self.moser.to_physical(z[:4], z[4:8])


@dataclass
class Trajectory:
    mu: float
    energy: float                 # nominal energy c (H at start)
    t0: float
    t_end: float
    segments: list
    chart_switches: int
    event_hits: list              # (event_index, t, physical state or None)
    constraint_residual_max: float
    stopped_by: Optional[int] = None   # index of terminal user event, if any

    def state(self, t):
        """Physical 6-state at physical time t (collision fiber excepted)."""
        if not (min(self.t0, self.t_end) - 1e-9 <= t
                <= max(self.t0, self.t_end) + 1e-9):
            raise ConfigError(f"time {t} outside trajectory range")
        for seg in self.segments:
            if t <= seg.t1 + 1e-12:
                return seg.state_at(min(max(t, seg.t0), seg.t1), self.mu)
        return self.segments[-1].state_at(self.t_end, self.mu)

    def final_state(self):
        return self.segments[-1].state_at(self.t_end, self.mu)

    def sample_times(self):
        """Physical times of all solver nodes."""
        out = []
        for seg in self.segments:
            if seg.chart == "rot":
                out.extend(seg.nodes.tolist())
            else:
                out.extend(float(seg.sol(s)[8]) for s in seg.nodes)
        return np.asarray(out)

    def energy_drift(self, n_per_segment=30):
        """Max relative deviation of the conserved quantity along the flight.

        Rot segments monitor H - c.  Moser segments monitor Q - g^2/2
        (evaluating H there is ill-conditioned near the collision fiber).
        """
        worst = 0.0
        scale = max(1.0, abs(self.energy))
        for seg in self.segments:
            for s in np.linspace(seg.nodes[0], seg.nodes[-1], n_per_segment):
                z = seg.sol(s)
                if seg.chart == "rot":
                    dev = abs(hamiltonian(z, self.mu) - self.energy)
                else:
                    q_level = seg.moser.q_level()
                    dev = abs(seg.moser.Q(z[:4], z[4:8], self.energy)
                              - q_level)
                worst = max(worst, dev)
        return worst / scale

    def min_over(self, fn, n_per_segment=60):
        """Minimum of fn(physical states) over a dense sampling of the flight.

        fn is called once per segment on a (6, n) array of states (one
        column per sample) and must return n values.  Samples on the
        collision fiber have no physical image and are skipped.
        """
        best = math.inf
        for seg in self.segments:
            z = seg.sol(np.linspace(seg.nodes[0], seg.nodes[-1],
                                    n_per_segment))
            if seg.chart != "rot":
                keep = 1.0 - z[0] >= 1e-9
                if not keep.any():
                    continue
                z = seg.moser.to_physical(z[:4, keep], z[4:8, keep])
            best = min(best, float(np.min(fn(z))))
        return best

    def to_jsonl(self, path, config_hash=""):
        """One record per solver node: t, chart, state, H, constraint residual."""
        with open(path, "w") as fh:
            header = {
                "record": "header", "version": _VERSION, "mu": self.mu,
                "energy": self.energy, "config_hash": config_hash,
                "chart_switches": self.chart_switches,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for seg in self.segments:
                for s in seg.nodes:
                    z = seg.sol(float(s))
                    if seg.chart == "rot":
                        rec = {
                            "record": "sample", "t": float(s),
                            "chart": "rot",
                            "state": [float(v) for v in z],
                            "H": hamiltonian(z, self.mu),
                        }
                    else:
                        rec = {
                            "record": "sample", "t": float(z[8]),
                            "chart": seg.chart,
                            "state": [float(v) for v in z[:8]],
                            "Q": seg.moser.Q(z[:4], z[4:8], self.energy),
                            "constraint_residual":
                                constraint_residual(z[:4], z[4:8]),
                        }
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _which_terminal(sol, ivp_events):
    """Index of the terminal event that stopped solve_ivp, or None.

    A terminal event ends the solve at its first root, so the one that
    stopped it is the only terminal event with a recorded root.
    """
    if sol.status != 1:
        return None
    for idx, ev in enumerate(ivp_events):
        if ev.terminal and sol.t_events[idx].size:
            return idx
    return None


def _user_hits(sol, first):
    """(solver time, user event index) of every user-event root of a solve,
    in flight order; user events start at ivp event index ``first``."""
    hits = [(float(te), k) for k, tes in enumerate(sol.t_events[first:])
            for te in tes]
    hits.sort(reverse=bool(sol.t[-1] < sol.t[0]))
    return hits


def integrate(start, mu, cfg, t_final, c=None, events=(), t0=0.0,
              start_chart="rot"):
    """Flow a state to t_final (physical time), switching charts as needed.

    start: 6-state (rot) or (xi, eta) pair when start_chart names a Moser
    chart.  events: sequence of FlowEvent; a terminal one stops the run
    (recorded in Trajectory.stopped_by).  Raises MaxTimeExceeded (with the
    partial trajectory attached) when cfg.max_time elapses first, and
    StepSizeUnderflow when the unregularized flow grinds into a collision.
    """
    events = list(events)
    if t_final < t0:
        if start_chart != "rot":
            raise ConfigError("backward integration supports the rot chart only")
        return _integrate_backward(np.asarray(start, float), mu, cfg,
                                   t_final, c, events, t0)

    if start_chart == "rot":
        state = np.asarray(start, dtype=float).copy()
        chart_name = "rot"
        xi = eta = None
        if c is None:
            c = hamiltonian(state, mu)
    else:
        if c is None:
            raise ConfigError("chart starts require the energy c")
        if start_chart in ("moon", "earth"):
            start_chart = "moser-" + start_chart
        if start_chart not in ("moser-moon", "moser-earth"):
            raise ConfigError(f"unknown start chart {start_chart!r}")
        chart_name = start_chart
        xi, eta = (np.asarray(v, dtype=float).copy() for v in start)
        state = None

    t_cap = t0 + cfg.max_time
    t_stop = min(t_final, t_cap)
    segments = []
    hits = []
    switches = 0
    res_max = 0.0
    stopped_by = None
    t = t0

    def build_traj(t_end):
        return Trajectory(mu=mu, energy=c, t0=t0, t_end=t_end,
                          segments=segments, chart_switches=switches,
                          event_hits=hits, constraint_residual_max=res_max,
                          stopped_by=stopped_by)

    while True:
        if t >= t_stop - 1e-13:
            if t_stop < t_final - 1e-13:
                raise MaxTimeExceeded(f"max_time={cfg.max_time} exceeded",
                                      trajectory=build_traj(t))
            return build_traj(t)
        if chart_name == "rot":
            sw_evs = []
            sw_names = []
            if cfg.switching:
                e_pos, m_pos = primaries(mu)
                r = cfg.collision_switch_radius
                for name, pos, mass in (("moser-earth", e_pos, 1.0 - mu),
                                        ("moser-moon", m_pos, mu)):
                    if mass <= 0.0:
                        continue
                    d_now = np.linalg.norm(state[:3] - pos)
                    if d_now < r:
                        sw_now = name
                        break
                    def dist(tt, y, pos=pos, r=r):
                        return math.sqrt((y[0] - pos[0]) ** 2 + y[1] ** 2
                                         + y[2] ** 2) - r
                    dist.terminal = True
                    dist.direction = -1.0
                    sw_evs.append(dist)
                    sw_names.append(name)
                else:
                    sw_now = None
                if sw_now is not None:
                    # already inside the switch radius: convert in place
                    ch = MoserChart(mu, sw_now.split("-")[1])
                    xi, eta = ch.from_physical(state)
                    chart_name = sw_now
                    switches += 1
                    continue
            ivp_events = list(sw_evs)
            for k, ev in enumerate(events):
                def wrapped(tt, y, ev=ev):
                    return ev.fn(y)
                wrapped.terminal = ev.terminal
                wrapped.direction = ev.direction
                ivp_events.append(wrapped)
            sol = solve_ivp(lambda tt, y: vector_field_ode(tt, y, mu),
                            (t, t_stop), state,
                            method="DOP853", dense_output=True,
                            rtol=cfg.rel_tol, atol=cfg.abs_tol,
                            max_step=cfg.max_step, events=ivp_events)
            if sol.status == -1:
                raise StepSizeUnderflow(sol.message)
            seg = Segment(chart="rot", sol=sol.sol, t0=t, t1=sol.t[-1],
                          nodes=sol.t)
            segments.append(seg)
            n_sw = len(sw_evs)
            for te, k in _user_hits(sol, n_sw):
                hits.append((k, te, sol.sol(te).copy()))
            cause = _which_terminal(sol, ivp_events)
            t = sol.t[-1]
            if cause is None:
                if sol.status == 0 and t_stop < t_final - 1e-13:
                    raise MaxTimeExceeded(
                        f"max_time={cfg.max_time} exceeded",
                        trajectory=build_traj(t))
                return build_traj(t)
            if cause < n_sw:
                chart_name = sw_names[cause]
                state_sw = sol.sol(t)
                ch = MoserChart(mu, chart_name.split("-")[1])
                xi, eta = ch.from_physical(state_sw)
                switches += 1
                continue
            stopped_by = cause - n_sw
            return build_traj(t)
        else:
            ch = MoserChart(mu, chart_name.split("-")[1])
            xi, eta, t, reason, info, stopped_by = _run_moser_visit(
                ch, xi, eta, t, t_stop, c, cfg, events, segments, hits)
            res_max = max(res_max, info)
            if reason == "exit":
                state = ch.to_physical(xi, eta)
                chart_name = "rot"
                switches += 1
                continue
            if reason == "user":
                return build_traj(t)
            if reason == "time":
                if t_stop < t_final - 1e-13:
                    raise MaxTimeExceeded(
                        f"max_time={cfg.max_time} exceeded",
                        trajectory=build_traj(t))
                return build_traj(t)
            raise MaxTimeExceeded(
                "regularized-time budget exhausted inside the chart",
                trajectory=build_traj(t))


def _run_moser_visit(ch, xi, eta, t, t_stop, c, cfg, events, segments, hits):
    """Integrate one stay inside a Moser chart; returns on exit/stop.

    The regularized flow is advanced in chunks with constraint projection
    between chunks (residual recorded).  Returns (xi, eta, t, reason, info,
    stopped) where reason is 'exit' | 'time' | 'user' | 'budget', info is
    the max pre-projection residual and stopped is the index of the
    terminal user event when reason is 'user' (else None).
    """
    r2 = 2.0 * cfg.collision_switch_radius

    def rhs(s, z):
        return ch.field(z, c)

    def exit_ev(s, z):
        return ch.physical_radius(z[:4], z[4:8]) - r2
    exit_ev.terminal = True
    exit_ev.direction = 1.0

    def time_ev(s, z):
        return z[8] - t_stop
    time_ev.terminal = True
    time_ev.direction = 1.0

    ivp_events = [exit_ev, time_ev]
    for ev in events:
        if ev.chart_fn is not None:
            def wrapped(s, z, ev=ev):
                return ev.chart_fn(ch, z[:4], z[4:8])
        else:
            def wrapped(s, z, ev=ev):
                return ev.fn(ch.to_physical(z[:4], z[4:8]))
        wrapped.terminal = ev.terminal
        wrapped.direction = ev.direction
        ivp_events.append(wrapped)

    z = np.concatenate([xi, eta, [t]])
    s = 0.0
    res_max = 0.0
    while s < cfg.max_reg_time:
        sol = solve_ivp(rhs, (s, s + cfg.reg_chunk), z, method="DOP853",
                        dense_output=True, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        max_step=cfg.max_step, events=ivp_events)
        if sol.status == -1:
            raise StepSizeUnderflow(sol.message)
        z_end = sol.y[:, -1]
        seg = Segment(chart=f"moser-{ch.primary}", sol=sol.sol,
                      t0=t, t1=float(z_end[8]), nodes=sol.t, moser=ch)
        t = float(z_end[8])
        res = constraint_residual(z_end[:4], z_end[4:8])
        seg.residual = res
        segments.append(seg)
        if res > cfg.constraint_tol:
            raise ConstraintDriftError(
                f"constraint residual {res:.3e} exceeds tolerance")
        res_max = max(res_max, res)
        for te, k in _user_hits(sol, 2):
            ze = sol.sol(te)
            hits.append((k, float(ze[8]), _safe_physical(ch, ze)))
        cause = _which_terminal(sol, ivp_events)
        xi, eta = project_constraints(z_end[:4], z_end[4:8])
        if cause == 0:
            return xi, eta, t, "exit", res_max, None
        if cause == 1:
            return xi, eta, t, "time", res_max, None
        if cause is not None:
            return xi, eta, t, "user", res_max, cause - 2
        s = sol.t[-1]
        z = np.concatenate([xi, eta, [t]])
    return xi, eta, t, "budget", res_max, None


def _safe_physical(ch, z):
    if 1.0 - z[0] < 1e-9:
        return None  # on the collision fiber; no physical image
    return ch.to_physical(z[:4], z[4:8])


def _integrate_backward(state, mu, cfg, t_final, c, events, t0):
    """Backward flow in the rot chart only (no switching)."""
    if c is None:
        c = hamiltonian(state, mu)
    ivp_events = []
    for ev in events:
        def wrapped(tt, y, ev=ev):
            return ev.fn(y)
        wrapped.terminal = ev.terminal
        wrapped.direction = ev.direction
        ivp_events.append(wrapped)
    sol = solve_ivp(lambda tt, y: vector_field_ode(tt, y, mu),
                    (t0, t_final), state,
                    method="DOP853", dense_output=True, rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, max_step=cfg.max_step,
                    events=ivp_events)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    t_end = sol.t[-1]
    seg = Segment(chart="rot", sol=sol.sol, t0=t_end, t1=t0,
                  nodes=sol.t[::-1].copy())
    hits = [(k, te, sol.sol(te).copy()) for te, k in _user_hits(sol, 0)]
    stopped = _which_terminal(sol, ivp_events)
    return Trajectory(mu=mu, energy=c, t0=t0, t_end=t_end, segments=[seg],
                      chart_switches=0, event_hits=hits,
                      constraint_residual_max=0.0, stopped_by=stopped)


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
