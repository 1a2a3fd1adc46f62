"""Adaptive integration of CR3BP flows with collision-chart switching.

The unregularized rotating-frame flow is integrated with an embedded
high-order Runge-Kutta pair (DOP853, dense output for event location).
When the satellite comes within 0.05 of a massive primary, the state is
pushed through the Moser chart of that primary and the regularized flow
of Q is integrated instead; the physical time is accumulated alongside
(dt/ds = g |q_loc|).  The chart is left again at twice the radius
(hysteresis).

``integrate_many`` flies a batch of independent flights.  With two or
more members, every rotating-chart leg runs on a lockstep lane: one
long-lived, numpy-vectorized DOP853 on an array of states, each row with
its own step control, events and retirement.  When a leg ends, its
flight is resumed at once: a Moser-chart visit runs then, as one
``solve_ivp`` call, and the flight's next leg joins the lane before the
next iteration, so a batch takes as many iterations as its longest
flight has step attempts.  ``integrate`` is the one-flight case, and
runs its rotating legs on scipy's ``solve_ivp``.
``flight_jacobian`` differentiates a finished flight's accepted steps.
"""

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import OdeSolver, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.optimize import brentq, minimize_scalar

from . import __version__
from .cr3bp import (COLLISION_THRESHOLD, hamiltonian, hamiltonian_columns,
                    primaries, vector_field_ode)
from .errors import (
    CollisionError,
    ConfigError,
    ConstraintDriftError,
    MaxTimeExceeded,
    NoCrossingError,
    SectionScopeError,
    StepSizeUnderflow,
)
from .regularize import (_CS_STEP, MoserChart, _q_field, _q_gradient,
                         constraint_residual, project_constraints,
                         project_constraints_jacobian, q_field_jacobian_rows)

_SWITCH_RADIUS = 0.05   # a Moser chart is entered this close to a primary
_CONSTRAINT_TOL = 1e-6  # pre-projection residual limit at a chart stay's end


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_time: float = 1000.0
    switching: bool = True
    max_reg_time: float = 1e4       # regularized-time budget per chart visit

    def __post_init__(self):
        # written as not (valid) so that NaN fails every check
        if not (0.0 < self.rel_tol <= 1e-3 and 0.0 < self.abs_tol <= 1e-3):
            raise ConfigError("integrator tolerances must lie in (0, 1e-3]")
        if not self.max_time > 0.0:
            raise ConfigError("max_time must be positive")
        if not isinstance(self.switching, bool):
            raise ConfigError("switching must be True or False")
        if not (0.0 < self.max_reg_time < math.inf):
            raise ConfigError("max_reg_time must be positive and finite")


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


# Regularized time per block of samples when a Moser segment is read, so
# that a long chart stay is read as densely as a short one.
_READ_SPAN = 2.0
# Samples min_over evaluates at once: consecutive blocks are read together
# up to this many, so a long chart stay costs few calls and bounded memory.
_READ_CAP = 1024


@dataclass
class Segment:
    chart: str                    # 'rot' | 'moser-moon' | 'moser-earth'
    sol: DenseOutput              # dense output in the segment variable
    t0: float
    t1: float
    nodes: np.ndarray             # solver accept times (segment variable)
    moser: Optional[MoserChart] = None
    # how the segment ended: a function vanishing at its end, of the state
    # rows (q, p, t) in the rot chart or (xi, eta, t) in a Moser chart, in
    # (rows, n) array form; None when the flight was cut short
    end: Optional[Callable] = None

    def sample_blocks(self, n):
        """Sample points of the segment variable as a (blocks, n) array,
        n >= 2, each row n evenly spaced points: one block for a rot
        segment, one per _READ_SPAN units of regularized time for a Moser
        segment.  Each row equals np.linspace over its block."""
        lo, hi = float(self.nodes[0]), float(self.nodes[-1])
        k = 1 if self.chart == "rot" else math.ceil((hi - lo) / _READ_SPAN)
        a = lo + _READ_SPAN * np.arange(max(k, 1), dtype=float)
        b = np.append(a[1:], hi)
        span = (b - a)[:, None]
        step = span / (n - 1)
        x = np.arange(n)
        # linspace scales by the span instead when the step underflows
        blocks = a[:, None] + np.where(step == 0, x / (n - 1) * span,
                                       x * step)
        blocks[:, -1] = b
        return blocks

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

    def _sample_groups(self, n_per_segment):
        """(segment, its blocks, s, z) per group of consecutive sample
        blocks (Segment.sample_blocks) of each segment, up to _READ_CAP
        samples a group: s the group's samples of the segment variable,
        z the raw segment states there, one column per sample."""
        per = max(1, _READ_CAP // n_per_segment)
        for seg in self.segments:
            blocks = seg.sample_blocks(n_per_segment)
            for g in range(0, len(blocks), per):
                s = blocks[g:g + per].ravel()
                yield seg, blocks, s, seg.sol(s)

    def energy_drift(self, n_per_segment=30):
        """Max relative deviation of the conserved quantity along the flight,
        read in the sample groups of min_over.

        Rot segments monitor H - c.  Moser segments monitor Q - g^2/2
        (evaluating H there is ill-conditioned near the collision fiber).
        """
        worst = 0.0
        for seg, _, _, z in self._sample_groups(n_per_segment):
            if seg.chart == "rot":
                dev = hamiltonian_columns(z, self.mu) - self.energy
            else:
                _, nsq, f = _q_gradient(z[:8], self.energy, seg.moser.nu,
                                        np.sqrt)
                dev = 0.5 * f * f * nsq - seg.moser.q_level()
            worst = max(worst, float(np.abs(dev).max()))
        return worst / max(1.0, abs(self.energy))

    def min_over(self, fn, n_per_segment=60, refine_below=None):
        """Minimum of fn(physical states) over a dense sampling of the flight.

        The samples are those of Segment.sample_blocks, evaluated in the
        groups of _sample_groups.  fn is called on a (6, n) array of states
        (one column per sample) and must return n values.  Samples on the
        collision fiber have no physical image and are skipped.  When the
        sampled minimum lies below refine_below, it is refined by a bounded
        scalar minimization on the dense output between the neighbours of
        the minimum sample.
        """
        best, where = math.inf, None
        for seg, blocks, s, z in self._sample_groups(n_per_segment):
            if seg.chart != "rot":
                keep = 1.0 - z[0] >= 1e-9
                if not keep.any():
                    continue
                s = s[keep]
                z = seg.moser.to_physical(z[:4, keep], z[4:8, keep])
            vals = fn(z)
            i = int(np.argmin(vals))
            if vals[i] < best:
                best, where = float(vals[i]), (seg, blocks, s[i])
        if refine_below is not None and best < refine_below:
            best = min(best, _refine_min(fn, *where))
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


def _refine_min(fn, seg, blocks, s_min):
    """Minimum of fn on seg's dense output between the samples next to
    s_min (in the segment variable)."""
    s_all = blocks.ravel()
    lo = s_all[max(np.searchsorted(s_all, s_min, "left") - 1, 0)]
    hi = s_all[min(np.searchsorted(s_all, s_min, "right"), len(s_all) - 1)]
    if not lo < hi:
        return math.inf

    def value(s):
        z = seg.sol(np.array([s]))
        if seg.chart != "rot":
            if 1.0 - z[0, 0] < 1e-9:
                return math.inf
            z = seg.moser.to_physical(z[:4], z[4:8])
        return float(fn(z)[0])

    res = minimize_scalar(value, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


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


def _dop853_leg(fun, t_span, y0, events, cfg):
    """One leg of fun(t, y) on scipy's DOP853 with dense output, stopping
    at terminal FlowEvents, whose fn is evaluated on the solver state."""
    ivp_events = []
    for ev in events:
        def event(t, y, fn=ev.fn):
            return fn(y)
        event.terminal = ev.terminal
        event.direction = ev.direction
        ivp_events.append(event)
    res = solve_ivp(fun, t_span, y0, method="DOP853", dense_output=True,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, events=ivp_events)
    if res.status == -1:
        return _Leg(-1, res.message, res.t, res.t_events, None, None)
    return _Leg(res.status, res.message, res.t, res.t_events,
                DenseOutput.from_ode_solution(res.sol), res.y[:, -1])


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
    out = []
    for name, pos, mass in (("moser-earth", e_pos, 1.0 - mu),
                            ("moser-moon", m_pos, mu)):
        if mass <= 0.0:
            continue
        def dist(y, pos=pos):
            return np.sqrt((y[0] - pos[0]) ** 2 + y[1] ** 2
                           + y[2] ** 2) - _SWITCH_RADIUS
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
                           < _SWITCH_RADIUS), None)
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
                seg.end = _time_end(6, t_stop)
                return build_traj(t)
            seg.end = _rot_end(leg_events[cause].fn)
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
            xi, eta, t, reason, res, stopped_by = _run_moser_visit(
                ch, xi, eta, t, t_stop, c, cfg, events, segments, hits)
            res_max = max(res_max, res)
            if reason == "exit":
                state = ch.to_physical(xi, eta)
                chart_name = "rot"
                switches += 1
                continue
            if reason == "time" and t_stop < t_final - 1e-13:
                raise time_out(t)
            if reason != "budget":
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
    share mu, cfg, the events and the start chart.  One flight runs its
    rotating-chart legs on solve_ivp.  Two or more run every rotating
    leg on a lockstep lane, and a member whose leg ends is resumed at
    once: it runs any Moser-chart visit and its next leg joins the lane
    before the next iteration.  A member's result agrees with its
    ``integrate`` run to integration accuracy and, bit for bit, is the
    same in every batch of two or more; a failing member leaves the
    others unchanged.
    """
    n = len(starts)
    cs = [None] * n if cs is None else list(cs)
    t0s = [0.0] * n if t0s is None else list(t0s)
    events = list(events)
    switch = _switch_events(mu, cfg)
    fwd_events = [ev for _, _, ev in switch] + events
    results = [None] * n
    flights = []
    lanes = {}      # a lane per event list: backward legs lack the switches

    def resume(i, leg):
        """Send member i its leg; returns its next _LegRequest, or None
        once the member has its result."""
        try:
            if isinstance(leg, SectionScopeError):
                return flights[i].throw(leg)
            return flights[i].send(leg)
        except StopIteration as stop:
            results[i] = stop.value
        except SectionScopeError as exc:
            results[i] = exc
        return None

    def run(i, leg):
        req = resume(i, leg)
        if n == 1:
            while req is not None:
                req = resume(i, _solo_leg(req, mu, cfg))
        elif req is not None:
            key = id(req.events)
            if key not in lanes:
                lanes[key] = _Lane(req.events, mu, cfg)
            lanes[key].join(i, req)

    for i in range(n):
        forward = t_finals[i] >= t0s[i]
        flights.append(_flight(
            starts[i], mu, cfg, t_finals[i], cs[i], events, t0s[i],
            start_chart, switch if forward else [],
            fwd_events if forward else events))
        run(i, None)
    while any(lane.live for lane in lanes.values()):
        for lane in lanes.values():
            for i, leg in lane.advance():
                run(i, leg)
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
        return _dop853_leg(lambda tt, y: vector_field_ode(tt, y, mu),
                           (req.t0, req.t_bound), req.y0, req.events, cfg)
    except SectionScopeError as exc:
        return exc


def _run_moser_visit(ch, xi, eta, t, t_stop, c, cfg, events, segments, hits):
    """Integrate one stay inside a Moser chart as one DOP853 solve.

    The stay ends at the exit radius, at physical time t_stop, at a
    terminal user event, or after cfg.max_reg_time units of regularized
    time; its end state is projected onto T*S^3.  Returns (xi, eta, t,
    reason, residual, stopped) where reason is 'exit' | 'time' | 'user' |
    'budget', residual is the pre-projection constraint residual and
    stopped is the index of the terminal user event when reason is
    'user' (else None).
    """
    r2 = 2.0 * _SWITCH_RADIUS
    chart_events = [
        FlowEvent(lambda z: ch.physical_radius(z[:4], z[4:8]) - r2,
                  direction=1.0, name="exit"),
        FlowEvent(_time_end(8, t_stop), direction=1.0, name="time"),
    ]
    for ev in events:
        if ev.chart_fn is not None:
            def fn(z, ev=ev):
                return ev.chart_fn(ch, z[:4], z[4:8])
        else:
            def fn(z, ev=ev):
                return ev.fn(ch.to_physical(z[:4], z[4:8]))
        chart_events.append(FlowEvent(fn, ev.direction, ev.terminal))

    leg = _dop853_leg(lambda s, z: ch.field(z, c), (0.0, cfg.max_reg_time),
                      np.concatenate([xi, eta, [t]]), chart_events, cfg)
    if leg.status == -1:
        raise StepSizeUnderflow(leg.message)
    z_end = leg.y_end
    segments.append(Segment(chart=f"moser-{ch.primary}", sol=leg.sol, t0=t,
                            t1=float(z_end[8]), nodes=leg.t, moser=ch))
    t = float(z_end[8])
    res = constraint_residual(z_end[:4], z_end[4:8])
    if res > _CONSTRAINT_TOL:
        raise ConstraintDriftError(
            f"constraint residual {res:.3e} exceeds tolerance")
    for te, k in _user_hits(leg, 2):
        ze = leg.sol(te)
        hits.append((k, float(ze[8]), _safe_physical(ch, ze)))
    cause = _which_terminal(leg, chart_events)
    xi, eta = project_constraints(z_end[:4], z_end[4:8])
    if cause is None:
        return xi, eta, t, "budget", res, None
    if cause == 0:      # the exit radius, in a form for complex arrays
        def end(z):
            return (1.0 - z[0]) * np.sqrt((z[4:8] ** 2).sum(axis=0)) - r2
        segments[-1].end = end
    else:
        segments[-1].end = chart_events[cause].fn
    if cause < 2:
        return xi, eta, t, ("exit", "time")[cause], res, None
    return xi, eta, t, "user", res, cause - 2


def _time_end(row, t_end):
    """Event function of the state rows vanishing at physical time t_end,
    which is row ``row`` of them."""
    return lambda z: z[row] - t_end


def _rot_end(fn):
    """A rot-chart event function as a function of the rows (q, p, t)."""
    return lambda z: fn(z[:6])


def _safe_physical(ch, z):
    if 1.0 - z[0] < 1e-9:
        return None  # on the collision fiber; no physical image
    return ch.to_physical(z[:4], z[4:8])


# --- the lockstep DOP853 for rotating-chart legs ---
#
# A per-leg transcription of scipy's RungeKutta._step_impl, DOP853 error
# norm and dense output, and of solve_ivp's event handling, on a (legs, 6)
# state array.  A leg's step is rejected, retried and accepted on its own;
# its stage sums run over the stage axis elementwise and every reduction
# runs along the leg's own row, so its arithmetic is the same whatever
# the other rows are and whenever it joins.

_STAGES = dop.N_STAGES                  # 12; K has 13 rows per step
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 8.0                   # -1 / (error estimator order + 1)
_ROOT_TOL = 4 * np.finfo(float).eps     # solve_ivp's event tolerance


@functools.lru_cache(maxsize=16)
def _primary_columns(mu):
    """(x position, mass) of the Moon and the Earth as (2, 1) columns."""
    return np.array([[mu - 1.0], [mu]]), np.array([[mu], [1.0 - mu]])


def _rot_field_rows(Y, mu):
    """Rotating vector field of each row of Y (m, 6), and the mask of
    rows within the collision threshold of a primary.  Both primaries'
    terms are computed at once, on (2, m) arrays, Moon first."""
    pos, mass = _primary_columns(mu)
    q1, q2, q3, p1, p2, p3 = Y.T
    dx = q1 - pos
    d = np.sqrt(dx * dx + (q2 * q2 + q3 * q3))
    km_ke = mass / d ** 3
    pull = km_ke * dx
    k = km_ke[1] + km_ke[0]
    out = np.empty_like(Y)
    out[:, 0] = p1 + q2
    out[:, 1] = p2 - q1
    out[:, 2] = p3
    out[:, 3] = p2 - (pull[0] + pull[1])
    # -(p1 + k q2) and -(k q3), in place on fresh arrays (negation is
    # exact); q1..p3 are views of Y and are not written
    kq2 = k * q2
    kq2 += p1
    np.negative(kq2, out=out[:, 4])
    k *= q3
    np.negative(k, out=out[:, 5])
    return out, d.min(axis=0) < COLLISION_THRESHOLD


def _wsum(w, K):
    """sum_s w[s] K[s] over the leading (stage) axis."""
    return np.add.reduce(w[:, None, None] * K[:len(w)], axis=0)


def _rms(X):
    """scipy's RMS norm of each row."""
    return np.sqrt((X * X).sum(axis=1)) / X.shape[1] ** 0.5


class _Rows:
    """The live legs of a lane: parallel arrays, one row each."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def drop(self, mask):
        for name, arr in vars(self).items():
            setattr(self, name, arr[~mask])

    def extend(self, other):
        for name, arr in vars(self).items():
            setattr(self, name, np.concatenate([arr, getattr(other, name)]))


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
    return np.minimum(np.minimum(100 * h0, h1), span), bad


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


# one accepted step in a lane's step log: t_old, h, node time, y_old (6)
# and the dense-output coefficients F (7 x 6)
_LOG_WIDTH = 3 + 6 + 7 * 6


def _collided():
    return CollisionError("state within collision threshold of a primary")


class _Lane:
    """A long-lived lockstep DOP853 for the rotating-chart legs of a batch
    that share one event list.

    A leg joins with ``join`` and is stepped from the next ``advance``
    on; each ``advance`` is one iteration, a step attempt of every live
    leg, and returns the legs that ended in it.  Rows are spliced in and
    dropped only in iterations where a leg starts or ends.  Each live leg
    writes its accepted steps to its own slot of the step log, from which
    its _Leg is assembled as soon as it ends.
    """

    def __init__(self, events, mu, cfg):
        self.events, self.mu, self.cfg = events, mu, cfg
        # solve_ivp's event directions: which sign changes fire each event
        ev_dir = np.array([ev.direction for ev in events])
        self.fires_up, self.fires_down = ev_dir >= 0, ev_dir <= 0
        self.ev_max = np.array([1.0 if ev.terminal else np.inf
                                for ev in events])
        self.queue = []             # (member, _LegRequest) waiting to join
        self.rows = None
        self.t_events = {}          # member -> root times, one list per event
        self.log = np.empty((0, 64, _LOG_WIDTH))    # slot, step, column
        self.free = []              # unused log slots

    @property
    def live(self):
        return bool(self.queue) or (self.rows is not None
                                    and self.rows.gid.size > 0)

    def join(self, member, req):
        self.queue.append((member, req))

    def advance(self):
        """One iteration; returns (member, _Leg or CollisionError) for
        every leg that ended in it."""
        with np.errstate(all="ignore"):
            ended = self._splice() if self.queue else []
            if self.rows is not None and self.rows.gid.size:
                ended += self._iterate()
        return ended

    def _eval_events(self, y):
        return np.array([ev.fn(y.T) for ev in self.events]).reshape(
            len(self.events), len(y)).T

    def _splice(self):
        """Start the queued legs: each new row gets its own field, event
        values, counters and initial step."""
        members, reqs = zip(*self.queue)
        self.queue = []
        n = len(reqs)
        y = np.array([r.y0 for r in reqs], dtype=float)
        t = np.array([r.t0 for r in reqs], dtype=float)
        t_bound = np.array([r.t_bound for r in reqs], dtype=float)
        f, bad = _rot_field_rows(y, self.mu)
        new = _Rows(gid=np.array(members), y=y, f=f, t=t, t0=t.copy(),
                    t_bound=t_bound, d=np.sign(t_bound - t),
                    g=self._eval_events(y),
                    count=np.zeros((n, len(self.events))),
                    rej=np.zeros(n, dtype=bool),
                    n_steps=np.zeros(n, dtype=int),
                    slot=np.zeros(n, dtype=int))
        new.h_abs, b = _initial_step(new, self.mu, self.cfg)
        bad |= b
        out = [(i, _collided()) for i in new.gid[bad]]
        new.drop(bad)
        short = new.gid.size - len(self.free)
        if short > 0:
            size = len(self.log)
            grow = max(short, size)
            self.log = np.concatenate(
                [self.log, np.empty((grow,) + self.log.shape[1:])])
            self.free.extend(range(size, size + grow))
        for k, i in enumerate(new.gid):
            new.slot[k] = self.free.pop()
            self.t_events[i] = [[] for _ in self.events]
        if self.rows is None:
            self.rows = new
        else:
            self.rows.extend(new)
        return out

    def _iterate(self):
        """One step attempt of every row; returns the legs that ended."""
        m, mu, cfg = self.rows, self.mu, self.cfg
        out = []
        # scipy raises the step to min_step only on the first attempt of a
        # step and fails below min_step after that
        min_step = 10 * np.abs(np.nextafter(m.t, m.d * np.inf) - m.t)
        m.h_abs = np.where(~m.rej & (m.h_abs < min_step), min_step, m.h_abs)
        small = m.h_abs < min_step
        if small.any():
            out = [(i, _Leg(-1, OdeSolver.TOO_SMALL_STEP, None, None, None,
                            None)) for i in m.gid[small]]
            self._leave(small)
            if not m.gid.size:
                return out
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
        t_node, h_a, y_a = t_new[a], h[a], y_new[a]
        F = _dense_coeffs(K[:, a], y_old, y_a, h_a)
        m.t[a], m.y[a], m.f[a] = t_node, y_a, K[_STAGES, a]
        ended = m.d[a] * (t_node - m.t_bound[a]) >= 0
        stopped = np.zeros(a.size, dtype=bool)   # by a terminal event
        n_kept = m.n_steps[a] + 1

        # events: solve_ivp's find_active_events on every new state
        g_new = self._eval_events(y_a)
        g_old = m.g[a]
        active = (((g_old <= 0) & (g_new >= 0) & self.fires_up)
                  | ((g_old >= 0) & (g_new <= 0) & self.fires_down))
        m.g[a] = g_new
        for p in np.nonzero(active.any(axis=1))[0]:
            i = a[p]
            stop = _member_events(
                self.events, np.nonzero(active[p])[0], m.count[i],
                self.ev_max, t_old[p], t_new[i], h[i], y_old[p], F[p],
                self.t_events[m.gid[i]])
            if stop is not None:
                stopped[p] = True
                t_node[p] = stop
                m.y[i] = _dop853_value((stop - t_old[p]) / h[i], F[p],
                                       y_old[p])
                # solve_ivp drops a node that repeats the last one
                if n_kept[p] > 1 and stop == t_old[p]:
                    n_kept[p] -= 1

        k = m.n_steps[a]
        if a.size and k.max() >= self.log.shape[1]:
            self.log = np.concatenate([self.log, np.empty_like(self.log)],
                                      axis=1)
        rec = np.empty((a.size, _LOG_WIDTH))
        rec[:, 0], rec[:, 1], rec[:, 2] = t_old, h_a, t_node
        rec[:, 3:9] = y_old
        rec[:, 9:] = F.reshape(a.size, 7 * 6)
        self.log[m.slot[a], k] = rec
        m.n_steps[a] = k + 1
        for p in np.nonzero(ended | stopped)[0]:
            out.append((m.gid[a[p]], self._leg(a[p], n_kept[p],
                                               int(stopped[p]))))
        out += [(i, _collided()) for i in m.gid[bad]]
        leave = bad.copy()
        leave[a] = ended | stopped
        if leave.any():
            self._leave(leave)
        return out

    def _leg(self, i, n, status):
        """The _Leg of row i, which ends after its first n logged steps."""
        m = self.rows
        steps = self.log[m.slot[i], :n].copy()
        t = np.concatenate([[m.t0[i]], steps[:, 2]])
        return _Leg(status, "", t,
                    [np.asarray(te) for te in self.t_events.pop(m.gid[i])],
                    DenseOutput(t, steps[:, 0], steps[:, 1],
                                steps[:, 3:9], steps[:, 9:].reshape(n, 7, 6)),
                    m.y[i].copy())

    def _leave(self, mask):
        m = self.rows
        self.free.extend(m.slot[mask])
        for i in m.gid[mask]:
            self.t_events.pop(i, None)
        m.drop(mask)


# --- flight Jacobians: the derivative of a flown trajectory ---
#
# Internal numerical differentiation (Bock 1981): the DOP853 steps a flight
# accepted are differentiated exactly, for the step sizes it took.  A
# tangent has rows (q, p, t, c) in the rotating chart and (xi, eta, t, c)
# in a Moser chart: physical time is a coordinate, and the energy c a
# constant one.


def _rot_jacobian_rows(Y, mu):
    """Rotating field of each row of Y (m, 6), and its Jacobian in
    (q, p, t, c), of shape (m, 6, 8); the field depends on neither t nor c."""
    K, _ = _rot_field_rows(Y, mu)
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
    return K, jac


def _step_derivatives(y, h, theta, field_rows, D):
    """Derivatives of a segment's DOP853 steps from the rows y (n, d) with
    sizes h (n,), in a tangent of D rows (the first d the state).

    field_rows(Y) gives the field (m, d) and its Jacobian (m, d, D) at
    state rows Y (m, d).  The 12 stages of every step are recomputed and
    differentiated together; the field at the last step's end and its
    three dense-output stages only for that step.  Returns the step
    derivatives (n, d, D) and that of the last step's dense output at the
    normalized time theta (d, D).
    """
    d = y.shape[1]
    hc, h3 = h[:, None], h[:, None, None]
    eye = np.eye(D)[:d]
    K = np.empty((16, len(y), d))
    dK = np.empty((16, len(y), d, D))
    for s in range(16):
        if s == 0:
            Y, dY = y, eye
        elif s == _STAGES:
            steps = eye + h3 * np.tensordot(dop.B, dK[:_STAGES], 1)
            Y = (y + hc * np.tensordot(dop.B, K[:_STAGES], 1))[-1:]
            dY = steps[-1:]
            y, hc, h3, K, dK = y[-1:], hc[-1:], h3[-1:], K[:, -1:], dK[:, -1:]
        else:
            Y = y + hc * np.tensordot(dop.A[s, :s], K[:s], 1)
            dY = eye + h3 * np.tensordot(dop.A[s, :s], dK[:s], 1)
        K[s], jac = field_rows(Y)
        dK[s] = jac[..., :d] @ dY
        dK[s][..., d:] += jac[..., d:]
    h, K, dK = h3[0, 0, 0], K[:, 0], dK[:, 0]
    dF = np.empty((7, d, D))
    dF[0] = steps[-1] - eye
    dF[1] = h * dK[0] - dF[0]
    dF[2] = 2 * dF[0] - h * (dK[_STAGES] + dK[0])
    for r in range(4):
        dF[3 + r] = h * np.tensordot(dop.D[r], dK, 1)
    return steps, _dop853_value(theta, dF, eye)


def _event_gradient(fn, x):
    """Gradient of an event function at the state rows x, by complex step
    on its (rows, n) array form."""
    g = fn(x[:, None] + 1j * _CS_STEP * np.eye(len(x)))
    if not np.iscomplexobj(g):
        raise ConfigError("flight Jacobians need event functions that "
                          "take complex states")
    return np.imag(g) / _CS_STEP


def flight_jacobian(traj, V, dc=None):
    """Derivative of a flown trajectory's end state with respect to its
    start, from the flight's own DOP853 steps; no flight is flown.

    V (6, k) is a tangent at the physical start state of a flight that
    started in the rotating chart, dc (k,) the matching change of the
    energy c it ran at (default: c held fixed).  Every accepted step is
    differentiated exactly for its size; the chart maps, and the projection
    that ends a chart stay, by their Jacobians.  At each segment's end the
    hit-time correction W - F (grad g . W) / (grad g . F) moves the tangent
    onto the event g = 0 that ended it (F the field, physical time
    included).  Returns the tangent (6, k) at the physical end state and
    the change (k,) of the end time.
    """
    mu, c = traj.mu, traj.energy
    V = np.asarray(V, dtype=float)
    k = V.shape[1]
    W = np.vstack([V, np.zeros(k), np.zeros(k) if dc is None else dc])
    for i, seg in enumerate(traj.segments):
        sol, ch = seg.sol, seg.moser
        if seg.chart == "rot":
            def field_rows(Y):
                return _rot_jacobian_rows(Y, mu)
        else:
            def field_rows(Y):
                return q_field_jacobian_rows(Y, c, ch.nu)
            if len(W) == 8:           # entering the chart
                z0 = sol.y_old[0]
                W = np.vstack([ch.from_physical_jacobian(
                    ch.to_physical(z0[:4], z0[4:8])) @ W[:6], W[6:]])
        d = sol.y_old.shape[1]
        t_end = sol.ts[-1]
        steps, dense = _step_derivatives(
            sol.y_old, sol.h, (t_end - sol.t_old[-1]) / sol.h[-1],
            field_rows, len(W))
        for step in steps[:-1]:
            W[:d] = step @ W
        W[:d] = dense @ W
        x = sol(t_end)
        if seg.chart == "rot":
            x_rows = np.append(x, t_end)                  # (q, p, t)
            F = np.concatenate([_rot_field_rows(x[None], mu)[0][0],
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
            W = np.vstack([ch.to_physical_jacobian(xi, eta) @ jac @ W[:8],
                           W[8:]])
    return W[:6], W[6]


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
