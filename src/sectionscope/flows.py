"""Adaptive integration of CR3BP flows with collision-chart switching.

The unregularized rotating-frame flow is integrated with an embedded
high-order Runge-Kutta pair (DOP853, dense output for event location).
When the satellite comes within ``collision_switch_radius`` of a massive
primary, the state is pushed through the Moser chart of that primary and
the regularized flow of Q is integrated instead; the physical time is
accumulated alongside (dt/ds = g |q_loc|).  The chart is left again at
twice the radius (hysteresis).

``integrate_many`` flies a batch of independent flights in rounds.  In
each round the rotating-chart legs of all live flights advance together:
two or more legs run in one lockstep, numpy-vectorized DOP853 on an array
of states (each member with its own step control, events and
retirement); a single leg runs on scipy's ``solve_ivp``.  Moser-chart
visits run one flight at a time between rounds.  ``integrate`` is the
one-flight case.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import OdeSolver, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.optimize import brentq

from . import __version__
from .cr3bp import COLLISION_THRESHOLD, hamiltonian, primaries, \
    vector_field_ode
from .errors import (
    CollisionError,
    ConfigError,
    ConstraintDriftError,
    MaxTimeExceeded,
    NoCrossingError,
    SectionScopeError,
    StepSizeUnderflow,
)
from .regularize import MoserChart, constraint_residual, project_constraints


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

    fn(states) evaluates on rotating-frame states: a 6-state, or a (6, n)
    array of states (one column per state) for which it returns n values
    computed column by column.  chart_fn(chart, xi, eta), when given, is
    used inside Moser segments (needed for quantities that stay bounded
    across collisions where the physical momenta blow up).
    """

    def __init__(self, fn, direction=0.0, terminal=True, chart_fn=None,
                 name="event"):
        self.fn = fn
        self.chart_fn = chart_fn
        self.direction = float(direction)
        self.terminal = bool(terminal)
        self.name = name


def _dop853_value(x, F, y_old):
    """DOP853 interpolant at normalized step times x, in the operation
    order of scipy's Dop853DenseOutput.  F is indexed by power first."""
    y = np.zeros_like(F[0])
    for i, f in enumerate(F[::-1]):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


class DenseOutput:
    """Array-backed DOP853 dense output of one segment.

    Step k covers the node interval [ts[k], ts[k+1]] and interpolates from
    t_old[k] over its whole solver step h[k] (a step cut short by a
    terminal event keeps its full interpolant), with coefficients
    F[k] (7, d) around y_old[k].  Steps are picked the way scipy's
    OdeSolution picks them and evaluated in its operation order, so values
    are bit-identical to it; an array of times is evaluated in one pass.
    """

    def __init__(self, ts, t_old, h, y_old, F):
        self.ts = np.asarray(ts, dtype=float)
        self.t_old = t_old
        self.h = h
        self.y_old = y_old
        self.F = F
        self._descending = bool(self.ts[-1] < self.ts[0])
        self._sorted = self.ts[::-1] if self._descending else self.ts
        self._side = "right" if self._descending else "left"

    @classmethod
    def from_ode_solution(cls, sol):
        ips = sol.interpolants
        return cls(sol.ts, np.array([ip.t_old for ip in ips]),
                   np.array([ip.h for ip in ips]),
                   np.array([ip.y_old for ip in ips]),
                   np.array([ip.F for ip in ips]))

    def __call__(self, t):
        """State at t (shape (d,)) or at each of an array of times (d, m)."""
        t = np.asarray(t)
        last = len(self.h) - 1
        if t.ndim == 0:
            k = int(np.searchsorted(self._sorted, t, side=self._side)) - 1
            k = min(max(k, 0), last)
            if self._descending:
                k = last - k
            return _dop853_value((t - self.t_old[k]) / self.h[k], self.F[k],
                                 self.y_old[k])
        k = np.searchsorted(self._sorted, t, side=self._side) - 1
        np.clip(k, 0, last, out=k)
        if self._descending:
            k = last - k
        x = ((t - self.t_old[k]) / self.h[k])[:, None]
        y = _dop853_value(x, self.F[k].transpose(1, 0, 2), self.y_old[k])
        return np.ascontiguousarray(y.T)


@dataclass
class Segment:
    chart: str                    # 'rot' | 'moser-moon' | 'moser-earth'
    sol: DenseOutput              # dense output in the segment variable
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
                "record": "header", "version": __version__, "mu": self.mu,
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


# --- one leg of a flight: the request and its outcome ---


@dataclass
class _LegRequest:
    """A rotating-chart leg from (t0, y0) towards t_bound."""
    y0: np.ndarray
    t0: float
    t_bound: float
    events: list                  # FlowEvents: switch events, then user events


@dataclass
class _Leg:
    """Outcome of one leg, from solve_ivp or from the lockstep stepper."""
    status: int                   # 0 reached t_bound, 1 terminal event, -1 failed
    message: str
    t: np.ndarray                 # node times
    t_events: list                # root times, one array per event
    sol: Optional[DenseOutput]
    y_end: Optional[np.ndarray]   # state at t[-1]

    @classmethod
    def from_ivp(cls, res):
        if res.status == -1:
            return cls(-1, res.message, res.t, res.t_events, None, None)
        return cls(res.status, res.message, res.t, res.t_events,
                   DenseOutput.from_ode_solution(res.sol), res.y[:, -1])


def _ivp_events(events):
    """solve_ivp event callables evaluating FlowEvent.fn on the state."""
    out = []
    for ev in events:
        def event(t, y, fn=ev.fn):
            return fn(y)
        event.terminal = ev.terminal
        event.direction = ev.direction
        out.append(event)
    return out


def _which_terminal(leg, events):
    """Index of the terminal event that stopped a leg, or None.

    A terminal event ends the leg at its first root, so the one that
    stopped it is the only terminal event with a recorded root.
    """
    if leg.status != 1:
        return None
    for idx, ev in enumerate(events):
        if ev.terminal and leg.t_events[idx].size:
            return idx
    return None


def _user_hits(leg, first):
    """(solver time, user event index) of every user-event root of a leg,
    in flight order; user events start at event index ``first``."""
    hits = [(float(te), k) for k, tes in enumerate(leg.t_events[first:])
            for te in tes]
    hits.sort(reverse=bool(leg.t[-1] < leg.t[0]))
    return hits


def _switch_events(mu, cfg):
    """(chart name, primary position, terminal FlowEvent entering its
    switch radius) for each massive primary, Earth first."""
    if not cfg.switching:
        return []
    e_pos, m_pos = primaries(mu)
    r = cfg.collision_switch_radius
    out = []
    for name, pos, mass in (("moser-earth", e_pos, 1.0 - mu),
                            ("moser-moon", m_pos, mu)):
        if mass <= 0.0:
            continue
        def dist(y, pos=pos):
            return np.sqrt((y[0] - pos[0]) ** 2 + y[1] ** 2
                           + y[2] ** 2) - r
        out.append((name, pos, FlowEvent(dist, direction=-1.0,
                                         terminal=True, name=name)))
    return out


# --- the flight loop ---


def _flight(start, mu, cfg, t_final, c, events, t0, start_chart, switch,
            leg_events):
    """One flight as a coroutine.

    Yields a _LegRequest for every rotating-chart leg and is sent back its
    _Leg (or has the leg's error thrown in); returns the Trajectory.
    Chart switching, Moser visits and the stop bookkeeping live here only.
    Backward flights stay in the rotating chart and ignore max_time.
    """
    forward = t_final >= t0
    if not forward and start_chart != "rot":
        raise ConfigError("backward integration supports the rot chart only")
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

    t_stop = min(t_final, t0 + cfg.max_time) if forward else t_final
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

    def time_out(t_end):
        return MaxTimeExceeded(f"max_time={cfg.max_time} exceeded",
                               trajectory=build_traj(t_end))

    while True:
        if t >= t_stop - 1e-13 if forward else t <= t_stop + 1e-13:
            if t_stop < t_final - 1e-13:
                raise time_out(t)
            return build_traj(t)
        if chart_name == "rot":
            inside = next((name for name, pos, _ in switch
                           if np.linalg.norm(state[:3] - pos)
                           < cfg.collision_switch_radius), None)
            if inside is not None:
                # already inside the switch radius: convert in place
                ch = MoserChart(mu, inside.split("-")[1])
                xi, eta = ch.from_physical(state)
                chart_name = inside
                switches += 1
                continue
            leg = yield _LegRequest(state, t, t_stop, leg_events)
            if leg.status == -1:
                raise StepSizeUnderflow(leg.message)
            t_end = leg.t[-1]
            if forward:
                seg = Segment(chart="rot", sol=leg.sol, t0=t, t1=t_end,
                              nodes=leg.t)
            else:
                seg = Segment(chart="rot", sol=leg.sol, t0=t_end, t1=t,
                              nodes=leg.t[::-1].copy())
            segments.append(seg)
            n_sw = len(switch)
            for te, k in _user_hits(leg, n_sw):
                hits.append((k, te, leg.sol(te).copy()))
            cause = _which_terminal(leg, leg_events)
            t = t_end
            if cause is None:
                if leg.status == 0 and t_stop < t_final - 1e-13:
                    raise time_out(t)
                return build_traj(t)
            if cause < n_sw:
                chart_name = switch[cause][0]
                ch = MoserChart(mu, chart_name.split("-")[1])
                xi, eta = ch.from_physical(leg.sol(t))
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
                    raise time_out(t)
                return build_traj(t)
            raise MaxTimeExceeded(
                "regularized-time budget exhausted inside the chart",
                trajectory=build_traj(t))


def integrate_many(starts, mu, cfg, t_finals, cs=None, events=(), t0s=None,
                   start_chart="rot"):
    """Fly independent flights together; returns, per member, its
    Trajectory or the SectionScopeError that ended it.

    Member i flows starts[i] from t0s[i] (default 0) to t_finals[i] at
    energy cs[i] (default: H of the start), as ``integrate`` would; all
    share mu, cfg, the events and the start chart.  A member's result
    agrees with its ``integrate`` run to integration accuracy.  Bit for
    bit it depends only on which of its legs had company in their round,
    never on who the company was, and a failing member leaves the others
    unchanged.
    """
    n = len(starts)
    cs = [None] * n if cs is None else list(cs)
    t0s = [0.0] * n if t0s is None else list(t0s)
    events = list(events)
    switch = _switch_events(mu, cfg)
    fwd_events = [ev for _, _, ev in switch] + events
    results = [None] * n
    flights = []
    pending = {}

    def resume(i, leg):
        try:
            if isinstance(leg, SectionScopeError):
                pending[i] = flights[i].throw(leg)
            else:
                pending[i] = flights[i].send(leg)
        except StopIteration as stop:
            results[i] = stop.value
        except SectionScopeError as exc:
            results[i] = exc

    for i in range(n):
        forward = t_finals[i] >= t0s[i]
        flights.append(_flight(
            starts[i], mu, cfg, t_finals[i], cs[i], events, t0s[i],
            start_chart, switch if forward else [],
            fwd_events if forward else events))
        resume(i, None)
    while pending:
        # a lockstep evaluates one event list: forward legs carry the
        # switch events, backward ones do not
        rounds = {}
        for i, req in pending.items():
            rounds.setdefault(id(req.events), []).append(i)
        reqs, pending = pending, {}
        for members in rounds.values():
            if len(members) == 1:
                legs = [_solo_leg(reqs[members[0]], mu, cfg)]
            else:
                legs = _lockstep([reqs[i] for i in members], mu, cfg)
            for i, leg in zip(members, legs):
                resume(i, leg)
    return results


def integrate(start, mu, cfg, t_final, c=None, events=(), t0=0.0,
              start_chart="rot"):
    """Flow a state to t_final (physical time), switching charts as needed.

    start: 6-state (rot) or (xi, eta) pair when start_chart names a Moser
    chart.  events: sequence of FlowEvent; a terminal one stops the run
    (recorded in Trajectory.stopped_by).  Raises MaxTimeExceeded (with the
    partial trajectory attached) when cfg.max_time elapses first, and
    StepSizeUnderflow when the unregularized flow grinds into a collision.
    """
    out, = integrate_many([start], mu, cfg, [t_final], [c], events, [t0],
                          start_chart)
    if isinstance(out, SectionScopeError):
        raise out
    return out


def _solo_leg(req, mu, cfg):
    """A rotating-chart leg on solve_ivp; a numerical error is returned."""
    try:
        return _Leg.from_ivp(solve_ivp(
            lambda tt, y: vector_field_ode(tt, y, mu),
            (req.t0, req.t_bound), req.y0,
            method="DOP853", dense_output=True,
            rtol=cfg.rel_tol, atol=cfg.abs_tol,
            max_step=cfg.max_step, events=_ivp_events(req.events)))
    except SectionScopeError as exc:
        return exc


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

    chart_events = [
        FlowEvent(lambda z: ch.physical_radius(z[:4], z[4:8]) - r2,
                  direction=1.0, name="exit"),
        FlowEvent(lambda z: z[8] - t_stop, direction=1.0, name="time"),
    ]
    for ev in events:
        if ev.chart_fn is not None:
            def fn(z, ev=ev):
                return ev.chart_fn(ch, z[:4], z[4:8])
        else:
            def fn(z, ev=ev):
                return ev.fn(ch.to_physical(z[:4], z[4:8]))
        chart_events.append(FlowEvent(fn, ev.direction, ev.terminal))
    ivp_events = _ivp_events(chart_events)

    z = np.concatenate([xi, eta, [t]])
    s = 0.0
    res_max = 0.0
    while s < cfg.max_reg_time:
        leg = _Leg.from_ivp(solve_ivp(
            rhs, (s, s + cfg.reg_chunk), z, method="DOP853",
            dense_output=True, rtol=cfg.rel_tol, atol=cfg.abs_tol,
            max_step=cfg.max_step, events=ivp_events))
        if leg.status == -1:
            raise StepSizeUnderflow(leg.message)
        z_end = leg.y_end
        seg = Segment(chart=f"moser-{ch.primary}", sol=leg.sol,
                      t0=t, t1=float(z_end[8]), nodes=leg.t, moser=ch)
        t = float(z_end[8])
        res = constraint_residual(z_end[:4], z_end[4:8])
        seg.residual = res
        segments.append(seg)
        if res > cfg.constraint_tol:
            raise ConstraintDriftError(
                f"constraint residual {res:.3e} exceeds tolerance")
        res_max = max(res_max, res)
        for te, k in _user_hits(leg, 2):
            ze = leg.sol(te)
            hits.append((k, float(ze[8]), _safe_physical(ch, ze)))
        cause = _which_terminal(leg, chart_events)
        xi, eta = project_constraints(z_end[:4], z_end[4:8])
        if cause == 0:
            return xi, eta, t, "exit", res_max, None
        if cause == 1:
            return xi, eta, t, "time", res_max, None
        if cause is not None:
            return xi, eta, t, "user", res_max, cause - 2
        s = leg.t[-1]
        z = np.concatenate([xi, eta, [t]])
    return xi, eta, t, "budget", res_max, None


def _safe_physical(ch, z):
    if 1.0 - z[0] < 1e-9:
        return None  # on the collision fiber; no physical image
    return ch.to_physical(z[:4], z[4:8])


# --- the lockstep DOP853 for rotating-chart legs ---
#
# A per-member transcription of scipy's RungeKutta._step_impl, DOP853
# error norm and dense output, and of solve_ivp's event handling, on a
# (members, 6) state array.  A member's step is rejected, retried and
# accepted on its own; its stage sums run over the stage axis elementwise
# and every reduction runs along a member's own row, so its arithmetic is
# the same in any batch.

_STAGES = dop.N_STAGES                  # 12; K has 13 rows per step
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 8.0                   # -1 / (error estimator order + 1)
_ROOT_TOL = 4 * np.finfo(float).eps     # solve_ivp's event tolerance


def _rot_field_rows(Y, mu):
    """Rotating vector field of each row of Y (m, 6), and the mask of
    rows within the collision threshold of a primary."""
    q1, q2, q3, p1, p2, p3 = Y.T
    dx_e = q1 - mu
    dx_m = q1 - (mu - 1.0)
    r2 = q2 * q2 + q3 * q3
    de = np.sqrt(dx_e * dx_e + r2)
    dm = np.sqrt(dx_m * dx_m + r2)
    ke = (1.0 - mu) / de ** 3
    km = mu / dm ** 3
    k = ke + km
    out = np.empty_like(Y)
    np.add(p1, q2, out=out[:, 0])
    np.subtract(p2, q1, out=out[:, 1])
    out[:, 2] = p3
    np.subtract(p2, km * dx_m + ke * dx_e, out=out[:, 3])
    # -(p1 + k q2) and -(k q3), in place on fresh arrays (negation is
    # exact); q1..p3 are views of Y and are not written
    kq2 = k * q2
    kq2 += p1
    np.negative(kq2, out=out[:, 4])
    k *= q3
    np.negative(k, out=out[:, 5])
    return out, np.minimum(de, dm) < COLLISION_THRESHOLD


def _wsum(w, K):
    """sum_s w[s] K[s] over the leading (stage) axis."""
    return (w[:, None, None] * K[:len(w)]).sum(axis=0)


def _rms(X):
    """scipy's RMS norm of each row."""
    return np.sqrt((X * X).sum(axis=1)) / X.shape[1] ** 0.5


class _Rows:
    """The live members of a lockstep: parallel arrays, one row each."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def drop(self, mask):
        for name, arr in vars(self).items():
            setattr(self, name, arr[~mask])


def _initial_step(m, mu, cfg):
    """scipy's select_initial_step for every row; returns (h_abs, rows
    whose trial step hit a collision)."""
    span = np.abs(m.t_bound - m.t)
    scale = cfg.abs_tol + np.abs(m.y) * cfg.rel_tol
    d0, d1 = _rms(m.y / scale), _rms(m.f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    f1, bad = _rot_field_rows(m.y + (h0 * m.d)[:, None] * m.f, mu)
    d2 = _rms((f1 - m.f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
    return np.minimum(np.minimum(100 * h0, h1),
                      np.minimum(span, cfg.max_step)), bad


def _rk_stages(y, f, h, mu):
    """All 16 DOP853 stages of a step of every row: the 12 of the step,
    f(y_new) and the 3 of the dense output.  Returns (K, y_new, rows
    that hit a collision in the step, rows that hit one after it)."""
    hc = h[:, None]
    K = np.empty((16,) + y.shape)
    K[0] = f
    bad = np.zeros(len(y), dtype=bool)
    for s in range(1, _STAGES):
        K[s], b = _rot_field_rows(y + _wsum(dop.A[s, :s], K) * hc, mu)
        bad |= b
    y_new = y + hc * _wsum(dop.B, K)
    K[_STAGES], b = _rot_field_rows(y_new, mu)
    bad |= b
    bad_dense = np.zeros(len(y), dtype=bool)
    for s in range(_STAGES + 1, 16):
        K[s], b = _rot_field_rows(y + _wsum(dop.A[s, :s], K) * hc, mu)
        bad_dense |= b
    return K, y_new, bad, bad_dense


def _error_norm(K, y, y_new, h_abs, cfg):
    """DOP853's error norm (E5 with the E3 correction) of every row."""
    scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
    err5 = _wsum(dop.E5, K) / scale
    err3 = _wsum(dop.E3, K) / scale
    e5 = (err5 * err5).sum(axis=1)
    e3 = (err3 * err3).sum(axis=1)
    return np.where((e5 == 0) & (e3 == 0), 0.0,
                    h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * y.shape[1]))


def _step_factor(err, rejected):
    """scipy's step-size factor: growth after an accepted step (at most 1
    after a rejection), shrinkage after a rejected one.  The comparisons
    mirror Python's min and max, which keep the bound when err is NaN."""
    fac = _SAFETY * err ** _ERR_EXP
    grow = np.where(err == 0, _MAX_FACTOR,
                    np.where(fac < _MAX_FACTOR, fac, _MAX_FACTOR))
    grow = np.where(rejected & (grow > 1), 1.0, grow)
    return np.where(err < 1, grow, np.where(fac > _MIN_FACTOR, fac,
                                            _MIN_FACTOR))


def _dense_coeffs(K, y, y_new, h):
    """Dop853DenseOutput's coefficients F (rows, 7, 6) of every row."""
    hc = h[:, None]
    dy = y_new - y
    F = np.empty((len(y), 7, y.shape[1]))
    F[:, 0] = dy
    F[:, 1] = hc * K[0] - dy
    F[:, 2] = 2 * dy - hc * (K[_STAGES] + K[0])
    for r in range(4):
        F[:, 3 + r] = hc * _wsum(dop.D[r], K)
    return F


def _member_events(events, act, count, ev_max, t_old, t_new, h, y_old, F,
                   t_events):
    """solve_ivp's handle_events for the active events act of one
    member's step: roots on the step's interpolant, recorded up to and
    including a terminal one.  Returns the terminal root or None."""
    count[act] += 1
    roots = np.array([brentq(
        lambda tt, fn=events[e].fn: fn(_dop853_value((tt - t_old) / h, F,
                                                     y_old)),
        t_old, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL) for e in act])
    stop = None
    if np.any(count[act] >= ev_max[act]):
        order = np.argsort(roots if t_new > t_old else -roots)
        act, roots = act[order], roots[order]
        last = np.nonzero(count[act] >= ev_max[act])[0][0]
        act, roots = act[:last + 1], roots[:last + 1]
        stop = roots[-1]
    for e, te in zip(act, roots):
        t_events[e].append(te)
    return stop


def _lockstep(reqs, mu, cfg):
    """Run rotating-chart legs together; returns a _Leg or the
    CollisionError that ended it, per request.  All requests share one
    event list."""
    events = reqs[0].events
    ev_dir = np.array([ev.direction for ev in events])[None, :]
    ev_max = np.array([1.0 if ev.terminal else np.inf for ev in events])
    out = [None] * len(reqs)
    t_events = [[[] for _ in events] for _ in reqs]
    log = []                    # per iteration: the accepted steps

    def fail(rows, make):
        for j in m.gid[rows]:
            out[j] = make()
        m.drop(rows)

    def collided():
        return CollisionError("state within collision threshold of a "
                              "primary")

    def underflow():
        return _Leg(-1, OdeSolver.TOO_SMALL_STEP, None, None, None, None)

    def eval_events(y):
        return np.array([ev.fn(y.T) for ev in events]).reshape(
            len(events), len(y)).T

    y = np.array([r.y0 for r in reqs], dtype=float)
    t = np.array([r.t0 for r in reqs], dtype=float)
    t_bound = np.array([r.t_bound for r in reqs], dtype=float)
    with np.errstate(all="ignore"):
        f, bad = _rot_field_rows(y, mu)
        m = _Rows(gid=np.arange(len(reqs)), y=y, f=f, t=t, t_bound=t_bound,
                  d=np.sign(t_bound - t), g=eval_events(y),
                  count=np.zeros((len(reqs), len(events))),
                  rej=np.zeros(len(reqs), dtype=bool),
                  n_steps=np.zeros(len(reqs), dtype=int))
        m.h_abs, b = _initial_step(m, mu, cfg)
        fail(bad | b, collided)

        while m.gid.size:
            # scipy clamps the step to [min_step, max_step] only on the
            # first attempt of a step and fails below min_step after that
            min_step = 10 * np.abs(np.nextafter(m.t, m.d * np.inf) - m.t)
            first = ~m.rej
            m.h_abs = np.where(first & (m.h_abs > cfg.max_step),
                               cfg.max_step,
                               np.where(first & (m.h_abs < min_step),
                                        min_step, m.h_abs))
            small = m.h_abs < min_step
            if small.any():
                fail(small, underflow)
                if not m.gid.size:
                    break
            t_new = m.t + m.h_abs * m.d
            t_new = np.where(m.d * (t_new - m.t_bound) > 0, m.t_bound, t_new)
            h = t_new - m.t
            K, y_new, bad, bad_dense = _rk_stages(m.y, m.f, h, mu)
            err = _error_norm(K, m.y, y_new, np.abs(h), cfg)
            accept = err < 1
            m.h_abs = np.abs(h) * _step_factor(err, m.rej)
            m.rej = ~accept
            bad |= accept & bad_dense

            # commit the accepted steps
            a = np.nonzero(accept & ~bad)[0]
            t_old, y_old = m.t[a], m.y[a]
            F = _dense_coeffs(K[:, a], y_old, y_new[a], h[a])
            m.t[a], m.y[a], m.f[a] = t_new[a], y_new[a], K[_STAGES, a]
            m.n_steps[a] += 1
            t_node = t_new[a]
            keep = np.ones(a.size, dtype=bool)
            log.append((m.gid[a], t_old, h[a], y_old, F, t_node, keep))
            ended = m.d[a] * (t_new[a] - m.t_bound[a]) >= 0
            stopped = np.zeros(a.size, dtype=bool)   # by a terminal event

            # events: solve_ivp's find_active_events on every new state
            g_new = eval_events(y_new[a])
            g_old = m.g[a]
            up = (g_old <= 0) & (g_new >= 0)
            down = (g_old >= 0) & (g_new <= 0)
            active = ((up & (ev_dir > 0)) | (down & (ev_dir < 0))
                      | ((up | down) & (ev_dir == 0)))
            m.g[a] = g_new
            for p in np.nonzero(active.any(axis=1))[0]:
                i = a[p]
                stop = _member_events(
                    events, np.nonzero(active[p])[0], m.count[i], ev_max,
                    t_old[p], t_new[i], h[i], y_old[p], F[p],
                    t_events[m.gid[i]])
                if stop is not None:
                    stopped[p] = True
                    t_node[p] = stop
                    m.y[i] = _dop853_value((stop - t_old[p]) / h[i], F[p],
                                           y_old[p])
                    # solve_ivp drops a node that repeats the last one
                    keep[p] = not (m.n_steps[i] > 1 and stop == t_old[p])
            for p in np.nonzero(ended | stopped)[0]:
                out[m.gid[a[p]]] = _Leg(int(stopped[p]), "", None, None,
                                        None, m.y[a[p]].copy())
            done = bad.copy()
            done[a] = ended | stopped
            fail(bad, collided)
            m.drop(done[~bad])

    return _assemble_legs(reqs, out, log, t_events)


def _assemble_legs(reqs, out, log, t_events):
    """Fill each finished leg's nodes, events and dense output from the
    per-iteration log of accepted steps."""
    if not log:
        return out
    member, t_old, h, y_old, F, t_node, keep = (
        np.concatenate(col) for col in zip(*log))
    member, t_old, h, y_old, F, t_node = (
        col[keep] for col in (member, t_old, h, y_old, F, t_node))
    order = np.argsort(member, kind="stable")
    bounds = np.searchsorted(member[order], np.arange(len(reqs) + 1))
    for j, leg in enumerate(out):
        if not isinstance(leg, _Leg) or leg.status == -1:
            continue
        rows = order[bounds[j]:bounds[j + 1]]
        leg.t = np.concatenate([[reqs[j].t0], t_node[rows]])
        leg.t_events = [np.asarray(te) for te in t_events[j]]
        leg.sol = DenseOutput(leg.t, t_old[rows], h[rows], y_old[rows],
                              F[rows])
    return out


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
