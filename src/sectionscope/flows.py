"""Adaptive integration of CR3BP flows with collision-chart switching.

The unregularized rotating-frame flow is integrated with an embedded
high-order Runge-Kutta pair (DOP853, dense output for event location).
When the satellite comes within 0.05 of a massive primary, the state is
pushed through the Moser chart of that primary and the regularized flow
of Q is integrated instead; the physical time is accumulated alongside
(dt/ds = g |q_loc|).  The chart is left again at twice the radius
(hysteresis).

A lone leg -- every Moser-chart stay, and the rotating legs of a batch
of fewer than _LANE_WIDTH flights -- runs on ``solve_ivp``, this
module's DOP853 on Python floats, whose step is generated once per state
dimension as straight-line code over the tableau's nonzero weights.
``integrate_many`` flies a batch of independent flights: one at a time
below _LANE_WIDTH members, and from there every rotating-chart leg
on a lockstep lane, one long-lived, numpy-vectorized DOP853 on an array
of states, each row with its own step control, events and retirement.
When a leg ends, its flight is resumed at once: a Moser-chart visit runs
then, and the flight's next leg joins the lane before the next
iteration.  Once fewer than _DRAIN_WIDTH legs are left on a lane or
waiting to join it, the lane drains: each row finishes its leg mid-way
on the float step loop of solve_ivp, and the flights' later legs run
one at a time, so that no narrow lane iterates.  The float step and a
lane row do the same arithmetic in the same order, up to zero terms
that change no bit (see the float step), so a flight's result is the
same bits in every batch, ``integrate`` (the one-flight case) included.
The float step stops at f(y_new) and the error norm; a step's
interpolant (three more stages and the dense-output coefficients) is
computed inline only on a step where an event changes sign, otherwise
when a read of the segment first needs it (see DenseOutput): on floats
by a second generated function for a read that fills fewer than
_FILL_WIDTH steps (a one-step read, say), and otherwise in one
numpy pass over the steps, laid out as the lane's (_fill_rows, with the
lane's _wsum and _dense_coeffs), which gives the same bits.  A lane
computes every accepted step's interpolant in its iteration, so a leg's
lane steps arrive filled (a drained leg's float steps do not).  A
collision in an interpolant stage raises CollisionError at the same
point on all of them: in the flight on a step where an event changes
sign, otherwise at every read of the step (the lane leaves such a step
pending).
``flight_jacobian`` differentiates finished flights' accepted steps, the
steps of all segments in one field at once, without flying anything: in
the rotating chart it recomputes the stages with the field (a lane's leg
logs none) and differentiates them through the potential's Hessian; in a
Moser chart it reads them from the stay's own step log, which holds all
twelve stages of every step, and runs the field only for the last step's
three dense-output stages.  Each segment's step derivatives are then
multiplied in a pairwise tree.
"""

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _numerics as dop
from ._numerics import brentq, minimize_bounded
from .cr3bp import (COLLISION_THRESHOLD, _rot_rhs, hamiltonian,
                    hamiltonian_columns, primaries, vector_field_ode)
from .errors import (
    CollisionError,
    ConfigError,
    ConstraintDriftError,
    MaxTimeExceeded,
    SectionScopeError,
    StepSizeUnderflow,
)
from .regularize import (_CS_STEP, MoserChart, _q_gradient, _q_rhs,
                         chart_rows, constraint_residual,
                         project_constraints, project_constraints_jacobian,
                         q_field_jacobian_rows, q_rhs_rows)

_SWITCH_RADIUS = 0.05   # a Moser chart is entered this close to a primary
_CONSTRAINT_TOL = 1e-6  # pre-projection residual limit at a chart stay's end
_MAX_REG_TIME = 1e4     # regularized-time budget per chart stay
# the fewest rows that one numpy pass takes.  On the lane: a batch of
# fewer than _LANE_WIDTH flights flies member by member on the float step,
# and a lane with fewer than _DRAIN_WIDTH legs left hands them to it (see
# integrate_many); each is a crossover measured on section-scan batches,
# where a lane iteration costs about what one float step attempt per row
# and that step's later fill cost.  In a fill: a read that fills fewer
# than _FILL_WIDTH pending steps of a float leg runs the float dense
# function step by step (see solve_ivp)
_LANE_WIDTH = 21
_DRAIN_WIDTH = 13
_FILL_WIDTH = 21


@dataclass
class IntegratorConfig:
    tol: float = 1e-12              # relative and absolute step tolerance
    max_time: float = 1000.0
    switching: bool = True

    def __post_init__(self):
        # written as not (valid) so that NaN fails every check
        if not 0.0 < self.tol <= 1e-3:
            raise ConfigError("integrator tolerance must lie in (0, 1e-3]")
        if not self.max_time > 0.0:
            raise ConfigError("max_time must be positive")
        if not isinstance(self.switching, bool):
            raise ConfigError("switching must be True or False")


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
    w = 1 - x
    y = F[6] + 0.0      # scipy's loop starts from zeros: -0.0 becomes 0.0
    y *= x
    for i, f in enumerate(F[5::-1]):
        y += f
        y *= w if i % 2 == 0 else x
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

    A step may come without its coefficients (``pending[k]``): they are
    computed when a read first needs them, by ``fill(k)``, which returns
    the coefficients (len(k), 7, d) of the pending steps k (a sorted
    list).  A read at one time fills its step; a read at an array of
    times, or of ``F`` (so ``bounds`` too), fills every pending step,
    since a segment's array reads (its sample groups) cover most of its
    steps.  solve_ivp's fill runs the generated dense function on floats,
    step by step, when it fills fewer than _FILL_WIDTH steps, and one
    array pass over them otherwise; both raise CollisionError (or
    SecondaryCollisionError) where one of the interpolant's stages comes
    within the collision threshold of a primary.  A lane's fill raises it
    for a step whose stage did.  A step whose fill raised stays pending,
    so every read of it raises.

    ``stages()``, where given (a solve_ivp leg's), returns the steps'
    logged stages as arrays: y_old (d, n), all twelve stages of every
    step (12, d, n), and the last step's y_new and f(y_new) (d,).
    """

    def __init__(self, ts, t_old, h, y_old, F, pending=None, fill=None,
                 stages=None):
        self.ts = np.asarray(ts, dtype=float)
        self.t_old = t_old
        self.h = h
        self.y_old = y_old
        self._F = F
        self._pending = pending if pending is not None and pending.any() \
            else None
        self._fill = fill
        self.stages = stages
        self._descending = bool(self.ts[-1] < self.ts[0])
        self._sorted = self.ts[::-1] if self._descending else self.ts
        self._side = "right" if self._descending else "left"

    @property
    def F(self):
        """The coefficients (n, 7, d) of every step, all filled."""
        if self._pending is not None:
            self._fill_steps(np.flatnonzero(self._pending).tolist())
        return self._F

    def _fill_steps(self, k):
        """Fill the pending steps k (a list)."""
        self._F[k] = self._fill(k)
        self._pending[k] = False
        if not self._pending.any():
            self._pending = None

    def __call__(self, t, rows=None):
        """State at t (shape (d,)) or at each of an array of times (d, m);
        with ``rows``, a sequence of component indices, only those
        components, in that order.  Each component is interpolated on its
        own, so it has the same bits either way."""
        t = np.asarray(t)
        rows = slice(None) if rows is None else list(rows)
        last = len(self.h) - 1
        if t.ndim == 0:
            k = int(np.searchsorted(self._sorted, t, side=self._side)) - 1
            k = min(max(k, 0), last)
            if self._descending:
                k = last - k
            if self._pending is not None and self._pending[k]:
                self._fill_steps([k])
            return _dop853_value((t - self.t_old[k]) / self.h[k],
                                 self._F[k][:, rows], self.y_old[k][rows])
        k = self.steps(t)
        x = (t - self.t_old[k]) / self.h[k]
        # the listed components' F and y_old as one small table, steps
        # last, gathered at once: samples last, so the result is (rows, m)
        table = np.concatenate([self.F[:, :, rows],
                                self.y_old[:, None, rows]], axis=1)
        G = np.take(np.ascontiguousarray(table.transpose(1, 2, 0)), k, axis=2)
        return _dop853_value(x, G[:7], G[7])

    def steps(self, t):
        """The step that an array read at the times t evaluates each on."""
        last = len(self.h) - 1
        k = np.searchsorted(self._sorted, t, side=self._side) - 1
        np.clip(k, 0, last, out=k)
        return last - k if self._descending else k

    def bounds(self, rows):
        """Per step, an interval (lo, hi) of each listed component that
        holds every value the step's interpolant takes in a read: with x
        and w = 1 - x in [0, 1], |y - y_old| <= sum_i |F[k, i]|, widened
        for the rounding of _dop853_value.  Two (len(rows), steps) arrays.
        """
        rows = list(rows)
        r = np.abs(self.F[:, :, rows]).sum(axis=1) * _HORNER_SLACK + _TINY
        y = self.y_old[:, rows]
        return (y - r).T, (y + r).T


# _dop853_value rounds 13 times, and x may exceed 1 by a few ulps: its
# correction sum stays within 64 ulps (and, below the normal range, the
# smallest normal) of the bound, so y_old -+ the widened bound, rounded
# like the read's last addition, encloses the value read.
_HORNER_SLACK = 1.0 + 64 * sys.float_info.epsilon
_TINY = sys.float_info.min


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

        def clock(s):
            return self.sol(s, (8,))[0]     # physical time, row 8

        if t <= clock(lo):
            return lo
        if t >= clock(hi):
            return hi
        return brentq(lambda s: clock(s) - t, lo, hi, xtol=1e-14)

    def state_at(self, t, mu):
        """Physical 6-state at physical time t."""
        z = self.raw_at(t)
        if self.chart == "rot":
            return z
        return self.moser.to_physical(z[:4], z[4:8])

    def physical_rows(self, s, rows):
        """The samples s (an array of the segment variable) off the
        collision fiber, and the physical state rows ``rows`` there: a
        list indexed by physical row, None at the rows not read.  A Moser
        segment interpolates and maps only the chart rows they need."""
        z = [None] * 6
        if self.chart == "rot":
            vals = self.sol(s, rows)
        else:
            need = chart_rows(rows)
            zc = [None] * 8
            for r, v in zip(need, self.sol(s, need)):
                zc[r] = v
            keep = 1.0 - zc[0] >= 1e-9
            if not keep.all():
                s = s[keep]
                zc = [None if v is None else v[keep] for v in zc]
            vals = self.moser.physical_rows(zc, rows)
        for r, v in zip(rows, vals):
            z[r] = v
        return s, z

    def row_bounds(self, rows):
        """Per step, intervals of the physical rows ``rows`` that hold
        every value physical_rows gives at a sample on that step: lists
        lo and hi indexed by physical row, arrays over the steps at
        ``rows`` and None elsewhere.  A Moser segment maps its chart rows'
        intervals (DenseOutput.bounds) through MoserChart.physical_bounds.
        """
        rows = list(rows)
        need = rows if self.chart == "rot" else chart_rows(rows)
        lo, hi = [None] * 8, [None] * 8
        for r, a, b in zip(need, *self.sol.bounds(need)):
            lo[r], hi[r] = a, b
        if self.chart == "rot":
            return lo[:6], hi[:6]
        out = [None] * 6, [None] * 6
        for r, a, b in zip(rows, *self.moser.physical_bounds(lo, hi, rows)):
            out[0][r], out[1][r] = a, b
        return out


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
        """Physical 6-state at physical time t; raises NorthPoleError on
        the collision fiber, which has no physical image."""
        if not (min(self.t0, self.t_end) - 1e-9 <= t
                <= max(self.t0, self.t_end) + 1e-9):
            raise ConfigError(f"time {t} outside trajectory range")
        for seg in self.segments:
            if t <= seg.t1 + 1e-12:
                return seg.state_at(min(max(t, seg.t0), seg.t1), self.mu)
        return self.segments[-1].state_at(self.t_end, self.mu)

    def final_state(self):
        return self.segments[-1].state_at(self.t_end, self.mu)

    def _sample_groups(self, n):
        """(segment, its blocks, groups) per segment: groups lists the
        samples of the segment variable, n a block (Segment.sample_blocks),
        in groups of consecutive blocks, up to _READ_CAP samples a group."""
        per = max(1, _READ_CAP // n)
        for seg in self.segments:
            blocks = seg.sample_blocks(n)
            yield seg, blocks, [blocks[g:g + per].ravel()
                                for g in range(0, len(blocks), per)]

    def _group_reads(self, fn, rows, bound):
        """(segment, its blocks, s, fn's values at s) for each sample
        group that min_over reads, in the order of _sample_groups: s the
        group's samples off the collision fiber, where it has any.

        With bound, a segment of several groups is pruned.  Its group of
        least lower bound (_group_bounds) is read first, and its minimum
        is top.  A group whose bound, less 1e-9 of itself, exceeds top is
        skipped: each of its samples lies strictly above top, so above
        the minimum, and the first sample that takes the minimum is the
        same as when every group is read."""
        for seg, blocks, groups in self._sample_groups(60):
            read, skip = {}, [False] * len(groups)
            if bound is not None and len(groups) > 1:
                lb = _group_bounds(seg, groups, rows, bound)
                g = int(np.argmin(lb))
                read[g] = s, vals = _read_group(seg, groups[g], fn, rows)
                top = np.min(vals) if s.size else math.inf
                skip = lb - 1e-9 * np.abs(lb) > top
                skip[g] = False
            for g, s in enumerate(groups):
                if not skip[g]:
                    s, vals = read.get(g) or _read_group(seg, s, fn, rows)
                    if s.size:
                        yield seg, blocks, s, vals

    def energy_drift(self):
        """Max relative deviation of the conserved quantity along the flight,
        read in the sample groups of min_over, of Segment.sample_blocks(30).

        Rot segments monitor H - c.  Moser segments monitor Q - g^2/2
        (evaluating H there is ill-conditioned near the collision fiber).
        """
        worst = 0.0
        for seg, _, groups in self._sample_groups(30):
            for s in groups:
                z = seg.sol(s)
                if seg.chart == "rot":
                    dev = hamiltonian_columns(z, self.mu) - self.energy
                else:
                    _, nsq, f, _ = _q_gradient(z[:8], self.energy,
                                               seg.moser.nu, np.sqrt)
                    dev = 0.5 * f * f * nsq - seg.moser.q_level()
                worst = max(worst, float(np.abs(dev).max()))
        return worst / max(1.0, abs(self.energy))

    def min_over(self, fn, refine_below=None, rows=range(6),
                 stop_below=None, bound=None):
        """Minimum of fn(physical states) over a dense sampling of the flight.

        The samples are those of Segment.sample_blocks(60), evaluated in the
        groups of _sample_groups.  rows names the physical rows (q1..q3,
        p1..p3 numbered 0..5) that fn reads, and only those are evaluated:
        fn is called on a list indexed by physical row, holding at each of
        ``rows`` an array of n values (one per sample) and None elsewhere,
        and must return n values.  Samples on the collision fiber have no
        physical image and are skipped.  When the sampled minimum lies
        below refine_below, it is refined by a bounded scalar minimization
        on the dense output between the neighbours of the minimum sample.
        With stop_below, the reading stops at the first sample group that
        takes the minimum below it, and the value returned is then below
        stop_below but need not be the minimum.

        bound(lo, hi), given without stop_below, returns a lower bound of
        fn on each step, from the step's intervals of the rows (the lists
        of Segment.row_bounds); NaN where it has none.  It prunes the
        groups of a segment read in several (see _group_reads); the
        result, and the sample refined, are those of the full read, bit
        for bit.
        """
        best, where = math.inf, None
        reads = self._group_reads(fn, rows,
                                  bound if stop_below is None else None)
        for seg, blocks, s, vals in reads:
            i = int(np.argmin(vals))
            if vals[i] < best:
                best, where = float(vals[i]), (seg, blocks, s[i])
            if stop_below is not None and best < stop_below:
                break
        if refine_below is not None and best < refine_below:
            best = min(best, _refine_min(fn, rows, *where))
        return best


def _read_group(seg, s, fn, rows):
    """The samples s of seg off the collision fiber, and fn's values
    there (None when there are none)."""
    s, z = seg.physical_rows(s, rows)
    return s, fn(z) if s.size else None


def _group_bounds(seg, groups, rows, bound):
    """A lower bound of fn over the samples of each of seg's groups: the
    least of bound over the steps the group reads, a NaN counted as -inf.
    A group's samples are monotone, so it reads the steps between those
    of its first and last sample."""
    lb = bound(*seg.row_bounds(rows))
    lb = np.where(np.isnan(lb), -np.inf, lb)
    ends = np.sort(seg.sol.steps(np.array([(s[0], s[-1]) for s in groups])))
    return np.array([lb[a:b + 1].min() for a, b in ends])


def _refine_min(fn, rows, seg, blocks, s_min):
    """Minimum of fn, which reads the physical rows ``rows``, on seg's
    dense output between the samples next to s_min (in the segment
    variable)."""
    s_all = blocks.ravel()
    lo = s_all[max(np.searchsorted(s_all, s_min, "left") - 1, 0)]
    hi = s_all[min(np.searchsorted(s_all, s_min, "right"), len(s_all) - 1)]
    if not lo < hi:
        return math.inf

    def value(s):
        s, z = seg.physical_rows(np.array([s]), rows)
        return float(fn(z)[0]) if s.size else math.inf

    return minimize_bounded(value, lo, hi)[1]


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
    t: Optional[np.ndarray]       # node times
    hits: Optional[list]          # (root time, event index) in flight order
    stop: Optional[int]           # the terminal event that ended the leg
    sol: Optional[DenseOutput]
    y_end: Optional[np.ndarray]   # state at t[-1]
    nfev: int = 0                 # calls of fun on floats (a float leg's)


@dataclass
class _LegState:
    """A rotating or Moser leg between two step attempts, from which the
    float step loop (_float_leg) runs it on: a leg that solve_ivp sets up,
    or a lane row handed over mid-leg with the hits and lane log rows
    (see _log_leg) of its steps so far."""
    t0: float                     # the leg's start
    t: float
    t_bound: float
    y: list
    f: list                       # fun(t, y)
    h_abs: float                  # the next attempt's step size
    rej: bool                     # the last attempt was rejected
    g: list                       # the event values at (t, y)
    hits: list                    # (root time, event index) in flight order
    steps: Optional[np.ndarray] = None     # a lane row's log rows


def _log_leg(status, t0, steps, hits, stop, y_end):
    """The _Leg from t0 whose accepted steps are the rows of ``steps``
    (n, 3 + 8 d + 1) of a lane's log: t_old, h, node time, y_old (d), the
    dense-output coefficients F (7 x d, power first) and a flag, set where
    a stage of the step's interpolant collided: a read of that step
    raises CollisionError."""
    n, d = len(steps), len(y_end)
    t = np.concatenate([[t0], steps[:, 2]])
    return _Leg(status, t, hits, stop,
                DenseOutput(t, steps[:, 0], steps[:, 1], steps[:, 3:3 + d],
                            steps[:, 3 + d:-1].reshape(n, 7, d),
                            steps[:, -1] != 0, _raise_collided),
                np.array(y_end, dtype=float))


def _after_lane(t0, steps, sol):
    """The dense output of a drained leg: its lane steps, the rows
    ``steps`` of the lane's log from t0 (as _log_leg reads them), then
    its float steps, those of sol, which fill on demand."""
    n, d = len(steps), sol.y_old.shape[1]

    def fill(k):
        if k[0] < n:                # a lane step is pending only if it
            _raise_collided(k)      # collided
        return sol._fill([j - n for j in k])

    pending = np.concatenate([
        steps[:, -1] != 0,
        np.zeros(len(sol.h), dtype=bool) if sol._pending is None
        else sol._pending])
    return DenseOutput(np.concatenate([[t0], steps[:, 2], sol.ts[1:]]),
                       np.concatenate([steps[:, 0], sol.t_old]),
                       np.concatenate([steps[:, 1], sol.h]),
                       np.concatenate([steps[:, 3:3 + d], sol.y_old]),
                       np.concatenate([steps[:, 3 + d:-1].reshape(n, 7, d),
                                       sol._F]),
                       pending, fill)


# --- DOP853 on Python floats: a lone leg ---
#
# scipy's RungeKutta._step_impl, DOP853 error norm and dense output, and
# solve_ivp's event handling, for one leg: a lone leg from its start, and
# a row of a lane that drains below _DRAIN_WIDTH legs from where it stands
# (_Lane.drain).  Two functions are generated once per state dimension
# as straight-line Python over floats, in the operation order of the
# lockstep lane below: stage sums are added in
# stage order, and powers are Python's.  The step attempt does the 12
# stages, the error norm and f(y_new): A's rows 1-11, B, E5 and E3, 74
# products per component.  The dense function does the rest of the
# interpolant from the stages the step hands over: A's rows 13-15 and the
# 4 D rows, 72 products per component.  solve_ivp calls it at once only
# on a step where an event changes sign; every other step is filled when
# its dense output first reads the step (DenseOutput): by it, step by
# step, or by one array pass over all the steps the read fills once they
# are _FILL_WIDTH or more (_fill_rows).
#
# Both multiply only the tableau's nonzero weights, where the lane's sums
# run over every stage.  A dropped term 0.0 * k is a signed zero for a
# finite k, and adding a zero leaves a nonzero partial sum unchanged; so
# the two can differ only in the sign of a sum whose terms are all
# zeros.  In the rotating chart those are the q3 and p3
# sums of a planar row, whose zeros' signs follow from those of q3, p3
# and h alone: eight cases, which the lane test's planar rows cover.  A
# lone leg is therefore a lane row, bit for bit, and a lane row can go on
# on the float step after any attempt.  A fill's array pass needs no such
# case: it gives the float dense function's bits by construction (see
# _fill_rows).

_STAGES = dop.N_STAGES                  # 12; K has 13 rows per step
# the stages of a step, besides f(y_new), that its interpolant reads:
# k0, k5..k11
_DENSE_STAGES = tuple(sorted(
    {int(i) for w in (*dop.A[_STAGES + 1:16], *dop.D)
     for i in np.flatnonzero(w) if i < _STAGES}))
# each interpolant stage s (13-15) with the stages its float stage sum
# reads: those of nonzero weight in row s of A
_DENSE_TERMS = [(s, np.flatnonzero(dop.A[s, :s]))
                for s in range(_STAGES + 1, 16)]
# the stages the interpolant does not read, k1..k4: a step logs them apart
# from the rows a fill reads, for flight_jacobian alone
_LOG_ONLY_STAGES = tuple(sorted(set(range(_STAGES)) - set(_DENSE_STAGES)))
# a step's twelve stages in the order of its log: _DENSE_STAGES, then these
_LOG_ORDER = list(_DENSE_STAGES + _LOG_ONLY_STAGES)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 8.0                   # -1 / (error estimator order + 1)
_ROOT_TOL = 4 * sys.float_info.epsilon  # solve_ivp's event tolerance
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _codegen(n):
    """Source helpers for the generated functions on n floats: terms(w,
    j), the nonzero w[i] * k{i}_{j}; ks(s), the names of stage s; stage(s),
    the line that evaluates it; row(fmt), fmt for every component."""
    J = range(n)

    def terms(w, j):
        return " + ".join(f"{float(c)!r} * k{i}_{j}"
                          for i, c in enumerate(w) if c)

    def ks(s):
        return ", ".join(f"k{s}_{j}" for j in J)

    def stage(s):
        arg = ", ".join(f"y{j} + ({terms(dop.A[s, :s], j)}) * h" for j in J)
        return f"    {ks(s)}, = fun(t + {float(dop.C[s])!r} * h, [{arg}])"

    def row(fmt):
        return ", ".join(fmt.format(j=j) for j in J)

    return terms, ks, stage, row


def _step_source(n):
    """Source of ``step``, one DOP853 step attempt on n floats.

    step(fun, t, y, f, h_abs, rej, d, t_bound, tol, k14=None) tries a
    step of size h_abs in direction d from (t, y) with f = fun(t, y); rej
    says the last attempt was rejected.  It returns None when the step is
    below the minimum, (False, next h_abs) on rejection and (True, next
    h_abs, t_new, h, y_new, f(y_new), K) on acceptance, K the stages of
    _DENSE_STAGES, flat, for the dense function (_dense_source).  An
    accepted step appends its other stages, k1..k4, flat, to the list
    k14 when one is given (for flight_jacobian).  It does A's rows 1-11,
    B, E5 and E3: 74 products per component.
    """
    terms, ks, stage, row = _codegen(n)
    J = range(n)
    e5, e3 = dop.E5[:_STAGES], dop.E3[:_STAGES]
    lines = [
        "def step(fun, t, y, f, h_abs, rej, d, t_bound, tol, k14=None):",
        "    min_step = 10 * abs(nextafter(t, d * inf) - t)",
        "    if h_abs < min_step:",
        "        if rej:",
        "            return None",
        "        h_abs = min_step",
        "    t_new = t + h_abs * d",
        "    if d * (t_new - t_bound) > 0:",
        "        t_new = t_bound",
        "    h = t_new - t",
        f"    {row('y{j}')}, = y",
        f"    {ks(0)}, = f",
        *[stage(s) for s in range(1, _STAGES)],
        *[f"    n{j} = y{j} + h * ({terms(dop.B, j)})" for j in J],
        "    habs = abs(h)",
    ]
    for j in J:
        # the scale takes NaN from y_new, as numpy's maximum does
        lines += [f"    a, b = abs(y{j}), abs(n{j})",
                  "    s = tol + (a if a >= b else b) * tol",
                  f"    u{j} = ({terms(e5, j)}) / s",
                  f"    v{j} = ({terms(e3, j)}) / s"]
    lines += [
        f"    e5 = {' + '.join(f'u{j} * u{j}' for j in J)}",
        f"    e3 = {' + '.join(f'v{j} * v{j}' for j in J)}",
        "    if e5 == 0 and e3 == 0:",
        "        err = 0.0",
        "    else:",
        f"        err = habs * e5 / sqrt((e5 + 0.01 * e3) * {n})",
        "    if not err < 1:",
        f"        fac = {_SAFETY!r} * err ** {_ERR_EXP!r}",
        f"        return False, habs * (fac if fac > {_MIN_FACTOR!r} "
        f"else {_MIN_FACTOR!r})",
        "    if err == 0:",
        f"        grow = {_MAX_FACTOR!r}",
        "    else:",
        f"        grow = {_SAFETY!r} * err ** {_ERR_EXP!r}",
        f"        if not grow < {_MAX_FACTOR!r}:",
        f"            grow = {_MAX_FACTOR!r}",
        "    if rej and grow > 1:",
        "        grow = 1.0",
        f"    {ks(_STAGES)}, = fun(t_new, [{row('n{j}')}])",
        "    if k14 is not None:",
        f"        k14.append([{', '.join(map(ks, _LOG_ONLY_STAGES))}])",
        f"    return (True, habs * grow, t_new, h, [{row('n{j}')}], "
        f"[{ks(_STAGES)}], [{', '.join(map(ks, _DENSE_STAGES))}])",
    ]
    return "\n".join(lines) + "\n"


def _dense_source(n):
    """Source of ``dense``, one accepted step's dense output on n floats.

    dense(fun, t, y, y_new, h, K, f_new) takes the step from (t, y) over
    h to y_new, with K the stages of _DENSE_STAGES and f_new = f(y_new)
    as ``step`` returns them; it evaluates the interpolant's three stages
    with fun and returns F, the 7 rows of dense-output coefficients, flat.
    It does A's rows 13-15 and the 4 D rows: 72 products per component.
    """
    terms, ks, stage, row = _codegen(n)
    J = range(n)
    lines = [
        "def dense(fun, t, y, y_new, h, K, f_new):",
        f"    {row('y{j}')}, = y",
        f"    {row('n{j}')}, = y_new",
        f"    {', '.join(map(ks, _DENSE_STAGES))}, = K",
        f"    {ks(_STAGES)}, = f_new",
        *[stage(s) for s in range(_STAGES + 1, 16)],
        *[f"    dy{j} = n{j} - y{j}" for j in J],
        "    return [" + ", ".join([
            row("dy{j}"), row("h * k0_{j} - dy{j}"),
            row(f"2 * dy{{j}} - h * (k{_STAGES}_{{j}} + k0_{{j}})"),
            *[", ".join(f"h * ({terms(dop.D[r], j)})" for j in J)
              for r in range(4)]]) + "]",
    ]
    return "\n".join(lines) + "\n"


def _generated(source, name, n):
    """The function ``name`` that source(n) defines, compiled."""
    scope = {"nextafter": math.nextafter, "inf": math.inf,
             "sqrt": math.sqrt}
    exec(compile(source(n), f"<dop853 {name}, n={n}>", "exec"), scope)
    return scope[name]


@functools.lru_cache(maxsize=None)
def _dop853_step(n):
    """The generated step attempt on n floats (see _step_source)."""
    return _generated(_step_source, "step", n)


@functools.lru_cache(maxsize=None)
def _dop853_dense(n):
    """The generated dense function on n floats (see _dense_source)."""
    return _generated(_dense_source, "dense", n)


def _rms(xs):
    """scipy's RMS norm of a list of floats, squares added in order."""
    s = xs[0] * xs[0]
    for x in xs[1:]:
        s = s + x * x
    return math.sqrt(s) / len(xs) ** 0.5


def _initial_step(fun, t, y, f, d, t_bound, tol):
    """scipy's select_initial_step on floats, for a lone leg and for a
    lane row alike."""
    span = abs(t_bound - t)
    scale = [tol + abs(v) * tol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t + h0 * d, [v + h0 * d * g for v, g in zip(y, f)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, span)


def _dense_value(x, F, y_old):
    """The DOP853 interpolant at normalized step time x on floats, in the
    operation order of _dop853_value; F is the flat list of its 7 rows."""
    w = 1 - x
    n = len(y_old)
    return [(((((((0.0 + F[6 * n + j]) * x + F[5 * n + j]) * w
                 + F[4 * n + j]) * x + F[3 * n + j]) * w + F[2 * n + j])
              * x + F[n + j]) * w + F[j]) * x + y_old[j] for j in range(n)]


def solve_ivp(fun, t_span, y0, events, cfg, field=None, field_rows=None):
    """One DOP853 leg of fun(t, y) over t_span from y0, on Python floats,
    with dense output; returns its _Leg.

    fun takes and returns lists of floats.  The leg stops at t_span[1]
    or at the first root of a terminal FlowEvent, whose fn sees the
    state as an array.  Step control, dense output and event handling
    are scipy's, in the operation order of a lockstep lane row.  This is
    the set-up -- f(y0), the initial step and the first event values --
    and _float_leg the step loop, which also finishes the rows of a lane
    that drains below _DRAIN_WIDTH legs (see integrate_many).  Each
    accepted step logs the stages its interpolant reads and, apart from
    them, its other four, which only the dense output's ``stages()``
    reads (for flight_jacobian).  The interpolant
    itself is computed through fun only on a step where an event changes
    sign, whose roots and terminal state read it.  Every other step is
    left pending and filled when the dense output first reads it, with
    the same field uncounted, so that a collision in one of its stages
    raises there: ``field`` on floats (default fun), step by step, or,
    for a read that fills at least _FILL_WIDTH steps, ``field_rows``
    in one array pass (_fill_rows).  field_rows(Y) gives the field at each
    state of Y (d, m), component-major, the bits of ``field``, and the
    mask of the states where ``field`` raises; a pass with a state in the
    mask leaves the fill to the floats, which raise at the first such
    step.  nfev counts the calls of fun.  An error raised by fun
    propagates.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).tolist()
    d = 1.0 if t_bound > t else -1.0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, d, t_bound, cfg.tol)
    leg = _float_leg(fun, _LegState(t, t, t_bound, y, f, h_abs, False,
                                    [ev.fn(np.array(y)) for ev in events],
                                    []),
                     events, cfg, fun if field is None else field,
                     field_rows)
    leg.nfev += 2
    return leg


def _float_leg(fun, s, events, cfg, field, field_rows):
    """The step loop of solve_ivp (see there), on the float step from the
    leg state s (a _LegState) to the leg's end; returns the _Leg, its
    nfev the loop's calls of fun.  A lane row's leg (s.steps given) keeps
    its lane steps in front of its float steps, in one dense output."""
    t, t_bound, y, f, h_abs, rej, g, hits = (
        s.t, s.t_bound, s.y, s.f, s.h_abs, s.rej, s.g, s.hits)
    n = len(y)
    step, dense = _dop853_step(n), _dop853_dense(n)
    d = 1.0 if t_bound > t else -1.0
    tol = cfg.tol
    ev_dir = [ev.direction for ev in events]
    done = 0 if s.steps is None else len(s.steps)  # the lane's steps
    nfev, log, k14, filled = 0, [], [], {}
    status = stop = end = None
    while status is None:
        out = step(fun, t, y, f, h_abs, rej, d, t_bound, tol, k14)
        if out is None:
            status = -1
            break
        nfev += 11
        rej, h_abs = not out[0], out[1]
        if rej:
            continue
        nfev += 1
        t_old, y_old = t, y
        t, h, y, f, K = out[2:]
        rec = [t_old, h, t] + y_old + K
        log.append(rec)
        if d * (t - t_bound) >= 0:
            status = 0
        y_arr = np.array(y)
        g_new = [ev.fn(y_arr) for ev in events]
        act = [e for e, (a, b, w) in enumerate(zip(g, g_new, ev_dir))
               if (a <= 0 <= b and w >= 0) or (a >= 0 >= b and w <= 0)]
        g = g_new
        if act:
            F = filled[len(log) - 1] = dense(fun, t_old, y_old, y, h, K, f)
            nfev += 3
            stop = _member_events(events, act, t_old, t, h, y_old, F, hits)
            if stop is not None:
                status = 1
                root = rec[2] = hits[-1][0]
                y_end = _dense_value((root - t_old) / h, F, y_old)
                # solve_ivp drops a node that repeats the last one; its
                # row still holds the y_new and f(y_new) of the one before
                if done + len(log) > 1 and root == t_old:
                    del filled[len(log) - 1]
                    end = log.pop()
                    k14.pop()
    if status != 1:
        y_end = y
    # the rows: t_old, h, node time, y_old and the stages of
    # _DENSE_STAGES, k0 first; k14 holds each step's other four stages.  A
    # step's y_new and f(y_new) are the next row's y_old and k0 (first
    # same as last); a last row, ``end``, holds the last step's.  The
    # reads need the first 3 + n columns as arrays
    m = len(log)
    log.append(end if end is not None else
               [0.0] * 3 + y + f + [0.0] * (n * (len(_DENSE_STAGES) - 1)))
    steps = np.array([row[:3 + n] for row in log[:m]]).reshape(m, 3 + n)
    F = np.empty((m, 7, n))
    pending = np.ones(m, dtype=bool)
    for k, Fk in filled.items():
        F[k] = np.reshape(Fk, (7, n))
        pending[k] = False

    def fill(k):
        if field_rows is not None and len(k) >= _FILL_WIDTH:
            # the rows from step k[0] to the one after k[-1], at once
            rows = np.array(log[k[0]:k[-1] + 2], dtype=float)
            i = np.array(k) - k[0]
            F = _fill_rows(rows[i], rows[i + 1, 3:3 + 2 * n], field_rows)
            if F is not None:
                return F
        F = []
        for j in k:
            row, nxt = log[j], log[j + 1]
            F.append(dense(field, row[0], row[3:3 + n], nxt[3:3 + n],
                           row[1], row[3 + n:], nxt[3 + n:3 + 2 * n]))
        return np.reshape(F, (len(k), 7, n))

    def stages():
        rows = np.array(log)
        K = np.empty((_STAGES, n, m))
        K[_LOG_ORDER] = np.concatenate([rows[:m, 3 + n:], k14], axis=1
                                       ).reshape(m, _STAGES, n).transpose(
                                           1, 2, 0)
        return rows[:m, 3:3 + n].T, K, rows[m, 3:3 + n], \
            rows[m, 3 + n:3 + 2 * n]

    sol = DenseOutput(np.concatenate([[s.t], steps[:, 2]]), steps[:, 0],
                      steps[:, 1], steps[:, 3:], F, pending, fill, stages)
    if done:
        sol = _after_lane(s.t0, s.steps, sol)
    return _Leg(status, sol.ts, hits, stop, sol, np.array(y_end, dtype=float),
                nfev)


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
    A non-finite start or energy raises ConfigError before any leg.
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

    c = float(c)
    if not (math.isfinite(c)
            and np.isfinite(state if xi is None else [xi, eta]).all()):
        raise ConfigError("a flight needs a finite start and energy")
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
                raise StepSizeUnderflow(_TOO_SMALL_STEP)
            t_end = leg.t[-1]
            if forward:
                seg = Segment(chart="rot", sol=leg.sol, t0=t, t1=t_end,
                              nodes=leg.t)
            else:
                seg = Segment(chart="rot", sol=leg.sol, t0=t_end, t1=t,
                              nodes=leg.t[::-1].copy())
            segments.append(seg)
            n_sw = len(switch)
            for te, k in leg.hits:
                if k >= n_sw:
                    hits.append((k - n_sw, te, leg.sol(te).copy()))
            cause = leg.stop
            t = t_end
            if cause is None:
                if t_stop < t_final - 1e-13:
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
    share mu, cfg, the events and the start chart.  A batch of fewer than
    _LANE_WIDTH flights flies them one at a time, every leg on
    solve_ivp: there the lane's fixed cost per iteration outweighs its
    width (the threshold comes from a sweep of batch sizes on short
    section-scan flights and on long shell flights).  A larger batch runs
    every rotating leg on a lockstep lane, and a member whose leg ends is
    resumed at once: it runs any Moser-chart visit and its next leg joins
    the lane before the next iteration.  Once fewer than _DRAIN_WIDTH
    legs are on the lane or waiting to join it, the lane drains
    (_Lane.drain): each finishes on the float step from where it stands,
    and every later leg of those members runs on solve_ivp, where a lane
    iteration would cost more than their float steps (a sweep of drain
    widths on section-scan batches).  A member's result is the
    same, bit for bit, in every batch, its ``integrate`` run included; a
    failing member leaves the others unchanged.  So is the moment a
    collision in one of a step's three interpolant stages is raised: in
    the flight where an event changes sign in that step, otherwise at
    every read of that step's dense output.
    """
    n = len(starts)
    cs = [None] * n if cs is None else list(cs)
    t0s = [0.0] * n if t0s is None else list(t0s)
    events = list(events)
    switch = _switch_events(mu, cfg)
    fwd_events = [ev for _, _, ev in switch] + events
    results = [None] * n
    flights = []
    # a lane per event list (backward legs lack the switches); None below
    # the lane width and once the lane has drained
    lanes = {}

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
        """Send member i its leg, then fly its next legs on solve_ivp
        until one joins its lane or the member has its result."""
        req = resume(i, leg)
        while req is not None:
            key = id(req.events)
            if key not in lanes:
                lanes[key] = (_Lane(req.events, mu, cfg)
                              if n >= _LANE_WIDTH else None)
            if lanes[key] is not None:
                lanes[key].join(i, req)
                return
            req = resume(i, _solo_leg(req, mu, cfg))

    for i in range(n):
        forward = t_finals[i] >= t0s[i]
        flights.append(_flight(
            starts[i], mu, cfg, t_finals[i], cs[i], events, t0s[i],
            start_chart, switch if forward else [],
            fwd_events if forward else events))
        run(i, None)
    while any(lane is not None for lane in lanes.values()):
        for key, lane in list(lanes.items()):
            if lane is None:
                continue
            if lane.size < _DRAIN_WIDTH:
                lanes[key] = None
                ended = lane.drain()
            else:
                ended = lane.advance()
            for i, leg in ended:
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
    """A rotating-chart leg on solve_ivp; a numerical error is returned.
    Its dense output is filled with _rot_rhs itself, not its counted
    wrapper vector_field_ode: a fill is not a solver's call."""
    mu = float(mu)
    try:
        return solve_ivp(lambda tt, y: vector_field_ode(tt, y, mu),
                         (req.t0, req.t_bound), req.y0, req.events, cfg,
                         lambda tt, y: _rot_rhs(y, mu)[0],
                         lambda Y: _rot_field_rows(Y, mu))
    except SectionScopeError as exc:
        return exc


def _run_moser_visit(ch, xi, eta, t, t_stop, c, cfg, events, segments, hits):
    """Integrate one stay inside a Moser chart as one solve_ivp leg.

    The stay ends at the exit radius, at physical time t_stop, at a
    terminal user event, or after _MAX_REG_TIME units of regularized
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

    # the dense output is filled with _q_rhs, not the counted ch.field
    leg = solve_ivp(lambda s, z: ch.field(z, c), (0.0, _MAX_REG_TIME),
                    np.concatenate([xi, eta, [t]]), chart_events, cfg,
                    lambda s, z: _q_rhs(z[:8], c, ch.nu),
                    lambda Z: q_rhs_rows(Z, c, ch.nu))
    if leg.status == -1:
        raise StepSizeUnderflow(_TOO_SMALL_STEP)
    z_end = leg.y_end
    segments.append(Segment(chart=f"moser-{ch.primary}", sol=leg.sol, t0=t,
                            t1=float(z_end[8]), nodes=leg.t, moser=ch))
    t = float(z_end[8])
    res = constraint_residual(z_end[:4], z_end[4:8])
    if res > _CONSTRAINT_TOL:
        raise ConstraintDriftError(
            f"constraint residual {res:.3e} exceeds tolerance")
    for te, k in leg.hits:
        if k >= 2:
            ze = leg.sol(te)
            hits.append((k - 2, float(ze[8]), _safe_physical(ch, ze)))
    cause = leg.stop
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
# norm and dense output, and of solve_ivp's event handling, for the live
# legs of a lane.  Its arrays are component-major: a leg is one column of
# the states (6, legs) and of the stage stack (16, 6, legs), so each
# component is a contiguous row and each numpy call runs over every leg.
# A leg's step is rejected, retried and accepted on its own; its stage
# sums run over the stage axis elementwise and every reduction runs down
# the leg's own column, component by component, so its arithmetic is the
# same whatever the other legs are and whenever it joins -- and the same
# as solve_ivp's on floats.  Powers are taken on Python floats: numpy's
# may round differently.


def _rot_field_rows(Y, mu, out=None):
    """Rotating vector field of the lane rows Y (6, m), component-major
    (row i is the state Y[:, i]), written to out (default a new array):
    returns out and the mask of the rows within the collision threshold of
    a primary, where _rot_rhs on floats raises (a NaN distance does not
    flag).

    _rot_rhs's operations in its order, elementwise, so each row has the
    bits of _rot_rhs on its floats; both primaries' distance terms are
    one (2, m) array, the Moon's first."""
    pos, mass = _primary_columns(mu)
    q1, q2, p1, p2 = Y[0], Y[1], Y[3], Y[4]
    if out is None:
        out = np.empty(Y.shape)
    dx = q1 - pos
    q23 = Y[1:3] * Y[1:3]
    d = dx * dx
    d += q23[0] + q23[1]
    np.sqrt(d, out=d)
    k = d * d
    k *= d
    np.divide(mass, k, out=k)
    kdx = k * dx
    np.add(p1, q2, out=out[0])
    np.subtract(p2, q1, out=out[1])
    out[2] = Y[5]
    np.subtract(p2, kdx[0] + kdx[1], out=out[3])
    kq = (k[1] + k[0]) * Y[1:3]
    kq[0] += p1
    np.negative(kq, out=out[4:])
    return out, np.minimum(d[0], d[1]) < COLLISION_THRESHOLD


@functools.lru_cache(maxsize=16)
def _primary_columns(mu):
    """The primaries' x positions and masses as columns (2, 1), the
    Moon's first, read-only."""
    cols = np.array([[mu - 1.0], [mu]]), np.array([[mu], [1.0 - mu]])
    for c in cols:
        c.flags.writeable = False
    return cols


def _cols(w):
    """Weights w (..., n) as columns (..., n, 1, 1), which broadcast over
    a component-major stage stack (n, d, m)."""
    return np.asarray(w, dtype=float)[..., None, None]


_A_COLS = [_cols(dop.A[s, :s]) for s in range(16)]
_B_COLS = _cols(dop.B)
_E_COLS = _cols([dop.E5[:_STAGES], dop.E3[:_STAGES]])
_D_COLS = _cols(dop.D)


def _wsum(w, K, out=None):
    """sum_s w[..., s] K[s] over the stage stack K (>= n, d, m), added in
    stage order from -0.0, with w the weight columns (..., n, 1, 1) of one
    or more sums (see _cols); written to out when given.  Zero weights are
    kept: a term 0.0 * K[s] is a signed zero, which changes no nonzero sum
    (see the float step), and gathering the nonzero stages costs more than
    multiplying the zero ones."""
    return np.add.reduce(w * K[:w.shape[-3]], axis=-3, initial=-0.0,
                         out=out)


def _pow(x, p):
    """x ** p elementwise on Python floats, inf at 0 for p < 0."""
    return np.array([v ** p if v else math.inf for v in x.tolist()])


class _Rows:
    """The live legs of a lane: parallel arrays, one leg per index of
    their last axis."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def drop(self, mask):
        for name, arr in vars(self).items():
            setattr(self, name, arr[..., ~mask])

    def extend(self, other):
        for name, arr in vars(self).items():
            setattr(self, name, np.concatenate([arr, getattr(other, name)],
                                               axis=-1))


def _rk_stages(y, f, h, mu):
    """All 16 DOP853 stages of a step of every lane row: the 12 of the
    step, f(y_new) and the 3 of the dense output.  y and f are (6, m);
    returns (K (16, 6, m), y_new (6, m), and the rows that hit a collision
    in the step, in f(y_new) and in the interpolant's stages; the last two
    count only if the step is accepted).  Each stage state is formed in
    one buffer, and its field is written to its slot of K."""
    K = np.empty((16,) + y.shape)
    K[0] = f
    Y = np.empty(y.shape)

    def stage(s):
        np.multiply(_wsum(_A_COLS[s], K, Y), h, out=Y)
        return _rot_field_rows(np.add(Y, y, out=Y), mu, K[s])[1]

    bad = stage(1)
    for s in range(2, _STAGES):
        bad |= stage(s)
    y_new = _wsum(_B_COLS, K)
    y_new *= h
    y_new += y
    bad_new = _rot_field_rows(y_new, mu, K[_STAGES])[1]
    bad_dense = stage(_STAGES + 1)
    for s in range(_STAGES + 2, 16):
        bad_dense |= stage(s)
    return K, y_new, bad, bad_new, bad_dense


def _error_norm(K, y, y_new, h_abs, cfg):
    """DOP853's error norm (E5 with the E3 correction) of every lane row,
    the squares added component by component; its weights of f(y_new)
    are zero and are left out."""
    scale = cfg.tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.tol
    e = _wsum(_E_COLS, K)
    e /= scale
    e *= e
    sq = e[:, 0] + e[:, 1]
    for j in range(2, len(y)):
        sq += e[:, j]
    e5, e3 = sq
    return np.where((e5 == 0) & (e3 == 0), 0.0,
                    h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * len(y)))


def _step_factor(err, rejected):
    """scipy's step-size factor: growth after an accepted step (at most 1
    after a rejection), shrinkage after a rejected one.  The comparisons
    mirror Python's min and max, which keep the bound when err is NaN."""
    fac = _SAFETY * _pow(err, _ERR_EXP)
    grow = np.where(err == 0, _MAX_FACTOR,
                    np.where(fac < _MAX_FACTOR, fac, _MAX_FACTOR))
    grow = np.where(rejected & (grow > 1), 1.0, grow)
    return np.where(err < 1, grow, np.where(fac > _MIN_FACTOR, fac,
                                            _MIN_FACTOR))


def _dense_coeffs(K, y, y_new, h):
    """Dop853DenseOutput's coefficients F (7, d, m) of the steps from the
    rows y (d, m) over h (m,) to y_new, component-major, K (16, d, m)
    their stages."""
    F = np.empty((7,) + y.shape)
    dy = np.subtract(y_new, y, out=F[0])
    F[1] = h * K[0] - dy
    F[2] = 2 * dy - h * (K[_STAGES] + K[0])
    np.multiply(h, _wsum(_D_COLS, K), out=F[3:])
    return F


def _fill_rows(rec, nxt, field_rows):
    """The coefficients F (m, 7, n) of m steps of a lone leg in one array
    pass, or None where one of their interpolant stages collides: rec
    holds the steps' log rows (see solve_ivp), nxt the next rows' y_old
    and k0, which are each step's y_new and f(y_new).  field_rows(Y)
    gives the field at the states Y (n, m), component-major, and the mask
    of the states where it collides.

    F has the bits of the float dense function: a stage sum runs over its
    terms alone, those of nonzero weight (a lane's keeps the zero ones,
    which cost less than gathering the others).  The step did not log
    stages 1-4, which D weighs by zero: they are -0.0 here, so each term
    0.0 * -0.0 is -0.0 and changes no sum."""
    m, n = len(rec), nxt.shape[1] // 2
    y, h = rec[:, 3:3 + n].T, rec[:, 1]
    K = np.full((16, n, m), -0.0)
    K[list(_DENSE_STAGES)] = rec[:, 3 + n:].reshape(m, -1, n).transpose(
        1, 2, 0)
    K[_STAGES] = nxt[:, n:].T
    with np.errstate(all="ignore"):
        for s, w in _DENSE_TERMS:
            K[s], bad = field_rows(y + _wsum(_cols(dop.A[s, w]), K[w]) * h)
            if bad.any():
                return None
        return _dense_coeffs(K, y, nxt[:, :n].T, h).transpose(2, 0, 1)


def _member_events(events, act, t_old, t_new, h, y_old, F, hits):
    """solve_ivp's handle_events for the active events act (a list) of
    one leg's step from the float t_old over h to t_new: their roots on
    the step's float interpolant (y_old and the flat F, lists) are
    appended to hits as (root, event) in flight order, ties in event
    order, up to and including the first root of a terminal event.
    Returns that event, or None."""
    roots = sorted(((brentq(
        lambda tt, fn=events[e].fn: fn(np.array(_dense_value(
            (tt - t_old) / h, F, y_old))),
        t_old, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL), e) for e in act),
        key=lambda hit: hit[0], reverse=t_new < t_old)
    for hit in roots:
        hits.append(hit)
        if events[hit[1]].terminal:
            return hit[1]
    return None


# one accepted step in a lane's step log: t_old, h, node time, y_old (6),
# the dense-output coefficients F (7 x 6) and whether a stage of its
# interpolant collided (see _log_leg)
_LOG_WIDTH = 3 + 6 + 7 * 6 + 1


def _collided():
    return CollisionError("state within collision threshold of a primary")


def _raise_collided(k):
    """The fill of a lane's steps whose interpolant stage collided."""
    raise _collided()


class _Lane:
    """A long-lived lockstep DOP853 for the rotating-chart legs of a batch
    that share one event list.

    A leg joins with ``join`` and is stepped from the next ``advance``
    on; each ``advance`` is one iteration, a step attempt of every live
    leg, and returns the legs that ended in it.  Rows are spliced in and
    dropped only in iterations where a leg starts or ends.  Each live leg
    writes its accepted steps to its own slot of the step log, from which
    its _Leg is assembled as soon as it ends.  ``drain`` hands every leg
    to the float step, mid-leg, and ends the lane.
    """

    def __init__(self, events, mu, cfg):
        self.events, self.mu, self.cfg = events, mu, cfg
        # solve_ivp's event directions: which sign changes fire each event
        ev_dir = np.array([ev.direction for ev in events])[:, None]
        self.fires_up, self.fires_down = ev_dir >= 0, ev_dir <= 0
        self.queue = []             # (member, _LegRequest) waiting to join
        self.rows = None
        self.hits = {}              # member -> its leg's (root, event) hits
        self.log = np.empty((0, 64, _LOG_WIDTH))    # slot, step, column
        self.free = []              # unused log slots

    @property
    def size(self):
        """The legs on the lane or waiting to join it."""
        return len(self.queue) + (0 if self.rows is None
                                  else self.rows.gid.size)

    def join(self, member, req):
        self.queue.append((member, req))

    def _field(self, tt, y):
        """The rotating field on floats, uncounted: a lane's own."""
        return _rot_rhs(y, self.mu)[0]

    def drain(self):
        """Hand every leg to the float step: the queued legs start as
        rows, and each row runs on mid-leg in solve_ivp's step loop
        (_float_leg) from its state after its last attempt, with the
        lane's uncounted field, _rot_rhs, to step and to fill.  Returns
        (member, _Leg or the error that ended it) for every leg, and
        leaves the lane empty."""
        mu = self.mu

        def field_rows(Y):
            return _rot_field_rows(Y, mu)

        with np.errstate(all="ignore"):
            out = self._splice() if self.queue else []
        m, self.rows = self.rows, None
        for p, i in enumerate([] if m is None else m.gid.tolist()):
            state = _LegState(
                float(m.t0[p]), float(m.t[p]), float(m.t_bound[p]),
                m.y[:, p].tolist(), m.f[:, p].tolist(), float(m.h_abs[p]),
                bool(m.rej[p]), m.g[:, p].tolist(), self.hits.pop(i),
                self.log[m.slot[p], :m.n_steps[p]])
            try:
                out.append((i, _float_leg(self._field, state, self.events,
                                          self.cfg, self._field,
                                          field_rows)))
            except SectionScopeError as exc:
                out.append((i, exc))
        return out

    def advance(self):
        """One iteration; returns (member, _Leg or CollisionError) for
        every leg that ended in it."""
        with np.errstate(all="ignore"):
            ended = self._splice() if self.queue else []
            if self.rows is not None and self.rows.gid.size:
                ended += self._iterate()
        return ended

    def _eval_events(self, y):
        """The event values (events, m) at the states y (6, m)."""
        return np.array([ev.fn(y) for ev in self.events]).reshape(
            len(self.events), y.shape[1])

    def _splice(self):
        """Start the queued legs: each new row gets its field, event
        values and initial step, the field and the initial step on
        floats as solve_ivp gets them."""
        fun = self._field
        out, starts = [], []
        for member, req in self.queue:
            t, t_bound = float(req.t0), float(req.t_bound)
            y = np.asarray(req.y0, dtype=float).tolist()
            d = 1.0 if t_bound > t else -1.0
            try:
                f = fun(t, y)
                h_abs = _initial_step(fun, t, y, f, d, t_bound, self.cfg.tol)
            except CollisionError as exc:
                out.append((member, exc))
                continue
            starts.append((member, y, f, t, t_bound, d, h_abs))
        self.queue = []
        if not starts:
            return out
        members, y, f, t, t_bound, d, h_abs = map(np.array, zip(*starts))
        n = len(members)
        y, f = np.ascontiguousarray(y.T), np.ascontiguousarray(f.T)
        new = _Rows(gid=members, y=y, f=f, t=t, t0=t.copy(),
                    t_bound=t_bound, d=d, h_abs=h_abs,
                    g=self._eval_events(y),
                    rej=np.zeros(n, dtype=bool),
                    n_steps=np.zeros(n, dtype=int),
                    slot=np.zeros(n, dtype=int))
        short = new.gid.size - len(self.free)
        if short > 0:
            size = len(self.log)
            grow = max(short, size)
            self.log = np.concatenate(
                [self.log, np.empty((grow,) + self.log.shape[1:])])
            self.free.extend(range(size, size + grow))
        for k, i in enumerate(new.gid):
            new.slot[k] = self.free.pop()
            self.hits[i] = []
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
            out = [(i, _Leg(-1, None, None, None, None, None))
                   for i in m.gid[small]]
            self._leave(small)
            if not m.gid.size:
                return out
        t_new = m.t + m.h_abs * m.d
        t_new = np.where(m.d * (t_new - m.t_bound) > 0, m.t_bound, t_new)
        h = t_new - m.t
        K, y_new, bad, bad_new, bad_dense = _rk_stages(m.y, m.f, h, mu)
        err = _error_norm(K, m.y, y_new, np.abs(h), cfg)
        accept = err < 1
        m.h_abs = np.abs(h) * _step_factor(err, m.rej)
        m.rej = ~accept
        bad |= accept & bad_new
        a = np.flatnonzero(accept & ~bad)
        # the accepted columns, gathered unless they are all of them
        cols = slice(None) if a.size == len(h) else a

        # events: solve_ivp's find_active_events on every new state
        g_new = self._eval_events(y_new[:, cols])
        g_old = m.g[:, cols]
        active = (((g_old <= 0) & (g_new >= 0) & self.fires_up)
                  | ((g_old >= 0) & (g_new <= 0) & self.fires_down))
        # a collision in an interpolant stage fails a step whose event
        # roots read the interpolant at once, as in solve_ivp; any other
        # step is logged with it, and a read of that step raises
        if bad_dense.any():
            failed = bad_dense[a] & active.any(axis=0)
            bad[a[failed]] = True
            a, g_new, active = a[~failed], g_new[:, ~failed], \
                active[:, ~failed]
            cols = a

        # commit the accepted steps: when every row accepted, the new
        # arrays replace the old ones, else the accepted columns are
        # written into them
        F = _dense_coeffs(K, m.y, y_new, h)
        if a.size == len(h):
            t_old, y_old, h_a, t_node = m.t, m.y, h, t_new.copy()
            m.t, m.y, m.f, m.g = t_new, y_new, K[_STAGES], g_new
        else:
            t_old, y_old, h_a, F = m.t[a], m.y[:, a], h[a], F[:, :, a]
            t_node = t_new[a]
            m.t[a], m.y[:, a], m.f[:, a] = t_node, y_new[:, a], \
                K[_STAGES][:, a]
            m.g[:, a] = g_new
        ended = m.d[cols] * (t_node - m.t_bound[cols]) >= 0
        stops = {}                  # p -> the terminal event that stopped it
        n_kept = m.n_steps[cols] + 1
        for p in np.flatnonzero(active.any(axis=0)):
            i = a[p]
            to, hi = float(t_old[p]), float(h_a[p])
            yo, Fp = y_old[:, p].tolist(), F[:, :, p].ravel().tolist()
            hits = self.hits[m.gid[i]]
            stop = _member_events(
                self.events, np.flatnonzero(active[:, p]).tolist(), to,
                float(t_new[i]), hi, yo, Fp, hits)
            if stop is not None:
                stops[p] = stop
                root = t_node[p] = hits[-1][0]
                m.y[:, i] = _dense_value((root - to) / hi, Fp, yo)
                # solve_ivp drops a node that repeats the last one
                if n_kept[p] > 1 and root == t_old[p]:
                    n_kept[p] -= 1

        k = m.n_steps[cols]
        if a.size and k.max() >= self.log.shape[1]:
            self.log = np.concatenate([self.log, np.empty_like(self.log)],
                                      axis=1)
        rec = np.empty((_LOG_WIDTH, a.size))
        rec[0], rec[1], rec[2] = t_old, h_a, t_node
        rec[3:9] = y_old
        rec[9:-1] = F.reshape(7 * 6, a.size)
        rec[-1] = bad_dense[cols]
        self.log[m.slot[cols], k] = rec.T
        m.n_steps[cols] = k + 1
        ended[list(stops)] = True
        for p in np.flatnonzero(ended):
            out.append((m.gid[a[p]], self._leg(a[p], n_kept[p],
                                               stops.get(p))))
        out += [(i, _collided()) for i in m.gid[bad]]
        leave = bad.copy()
        leave[a] = ended
        if leave.any():
            self._leave(leave)
        return out

    def _leg(self, i, n, stop):
        """The _Leg of row i, which ends after its first n logged steps,
        stopped by the terminal event ``stop`` or at its t_bound."""
        m = self.rows
        return _log_leg(0 if stop is None else 1, m.t0[i],
                        self.log[m.slot[i], :n].copy(),
                        self.hits.pop(m.gid[i]), stop, m.y[:, i])

    def _leave(self, mask):
        m = self.rows
        self.free.extend(m.slot[mask])
        for i in m.gid[mask]:
            self.hits.pop(i, None)
        m.drop(mask)


# --- flight Jacobians: the derivative of a flown trajectory ---
#
# Internal numerical differentiation (Bock 1981): the DOP853 steps a flight
# accepted are differentiated exactly, for the step sizes it took.  A
# tangent has rows (q, p, t, c) in the rotating chart and (xi, eta, t, c)
# in a Moser chart: physical time is a coordinate, and the energy c a
# constant one.  The steps of every segment in one field -- the rotating
# chart, or one Moser chart at one energy -- are differentiated together,
# in one pass over the stages.
#
# A step's tangent stages are dK_s = J_s (I + h sum_j a_sj dK_j), with J_s
# the field's Jacobian at stage state s in a square tangent: (q, p) in the
# rotating chart, whose field depends on neither t nor c, so that J_s is
# the exact Omega and identity blocks and the potential's Hessian H_s; and
# (xi, eta, t, c) in a Moser chart, with a zero row for the constant c.
# The rotating stages are recomputed with the field (a lane's leg logs
# none); a Moser stay is a solve_ivp leg, whose log holds all twelve
# stages of every step, so there the field runs only for the last step's
# three dense-output stages.  A segment's step derivatives are multiplied
# in a pairwise tree, every segment of a field at once.


def _stage_state(w, K, y, out, h=None):
    """y + h sum_s w[s] K[s] over the leading axis of the stack K, in one
    product, written to out (without h, y + sum_s w[s] K[s]); a matrix w
    gives one such sum per row, stacked."""
    n = len(w)
    acc = (w @ K[:n].reshape(n, -1)).reshape(out.shape)
    if h is not None:
        acc = np.multiply(acc, h, out=out)
    return np.add(acc, y, out=out)


# the rotating field's Jacobian in (q, p) without the Hessian block: the
# Coriolis pairing Omega on q and on p, and dq/dt = p + Omega q
_ROT_JACOBIAN = np.zeros((6, 6))
_ROT_JACOBIAN[0, 1] = _ROT_JACOBIAN[3, 4] = 1.0
_ROT_JACOBIAN[1, 0] = _ROT_JACOBIAN[4, 3] = -1.0
_ROT_JACOBIAN[:3, 3:] = np.eye(3)


def _rot_jacobian_rows(Z, mu):
    """Jacobian (m, 6, 6) of the rotating field in (q, p) at each state of
    Z (6, m), component-major: _ROT_JACOBIAN with the Hessian of the
    primaries' attraction, sum m (3 w w^T / r^5 - I / r^3) over the
    offsets w from each primary, evaluated on the positions alone."""
    pos, mass = _primary_columns(mu)
    dx = Z[0] - pos
    q2, q3 = Z[1], Z[2]
    r2 = dx * dx
    r2 += q2 * q2 + q3 * q3
    k = mass / (r2 * np.sqrt(r2))
    k3 = 3.0 * k / r2
    s = k[0] + k[1]
    t = k3[0] + k3[1]
    u = k3 * dx
    v = (u * dx).sum(axis=0)
    u = u[0] + u[1]
    jac = np.empty((Z.shape[1], 6, 6))
    jac[:] = _ROT_JACOBIAN
    H = jac[:, 3:, :3]
    H[:, 0, 0] = v - s
    H[:, 1, 1] = t * q2 * q2 - s
    H[:, 2, 2] = t * q3 * q3 - s
    H[:, 0, 1] = H[:, 1, 0] = u * q2
    H[:, 0, 2] = H[:, 2, 0] = u * q3
    H[:, 1, 2] = H[:, 2, 1] = t * q2 * q3
    return jac


def _moser_field_rows(Y, c, nu):
    """Packed Moser field of each row of Y (m, 9), row by row on floats:
    the derivative pass's dense-output stages and segment ends, a few rows
    each, where _q_rhs on arrays costs the same ~100 numpy calls as on
    many.  The operations are those of the array form and sqrt is
    correctly rounded in both, so the bits are the same."""
    return np.array([_q_rhs(row[:8], c, nu)
                     for row in Y.tolist()]).reshape(Y.shape)


def _moser_jacobian_rows(Z, c, nu):
    """Jacobian (m, 10, 10) of the Moser field in (xi, eta, t, c) at each
    state of Z (9, m), component-major, with a zero row for c."""
    jac = np.zeros((Z.shape[1], 10, 10))
    jac[:, :9] = q_field_jacobian_rows(Z.T, c, nu)[1]
    return jac


def _group_stages(sols, ch, mu, c):
    """The stages of every step of the segments' dense outputs sols, in
    one field: returns h (n,), the stage states Z (d, 12 n + 4 L) -- the
    twelve of every step, stage by stage, then f(y_new)'s and the three
    dense-output stages' of the L last steps -- the last steps' sixteen
    stages Kl (16, d, L), and field(Y, out), which writes the field at the
    states Y (d, m) to out.  Moser stages come from the legs' logs."""
    n = sum(len(sol.h) for sol in sols)
    last = np.cumsum([len(sol.h) for sol in sols]) - 1
    L = len(sols)
    h = np.concatenate([sol.h for sol in sols])
    if ch is None:
        def field(Y, out):
            _rot_field_rows(Y, mu, out)

        y = np.concatenate([sol.y_old for sol in sols]).T
        d = len(y)
        Z = np.empty((d, _STAGES * n + 4 * L))
        K = np.empty((_STAGES, d, n))
        Z[:, :n] = y
        field(y, K[0])
        for s in range(1, _STAGES):
            Zs = _stage_state(dop.A[s, :s], K, y, Z[:, s * n:(s + 1) * n],
                              h)
            field(Zs, K[s])
        y_new = f_new = None
    else:
        def field(Y, out):
            out[:] = _moser_field_rows(Y.T, c, ch.nu).T

        y, K, y_new, f_new = (np.concatenate(v, axis=-1) for v in zip(
            *(sol.stages() for sol in sols)))
        d = len(y)
        Z = np.empty((d, _STAGES * n + 4 * L))
        _stage_state(dop.A[:_STAGES, :_STAGES], K, y,
                     Z[:, :_STAGES * n].reshape(d, _STAGES, n).transpose(
                         1, 0, 2), h)
    Kl = np.empty((16, d, L))
    Kl[:_STAGES] = K[:, :, last]
    yl, hl = y[:, last], h[last]
    off = _STAGES * n
    for s in range(_STAGES, 16):
        Zs = Z[:, off + (s - _STAGES) * L:off + (s - _STAGES + 1) * L]
        if s > _STAGES:
            field(_stage_state(dop.A[s, :s], Kl, yl, Zs, hl), Kl[s])
        elif y_new is None:
            field(_stage_state(dop.B, Kl, yl, Zs, hl), Kl[s])
        else:
            Zs[:], Kl[s] = y_new.reshape(L, d).T, f_new.reshape(L, d).T
    return h, Z, Kl, field


def _chains(S, n):
    """The product S[b - 1] @ ... @ S[a] of each run [a, b) of n[g]
    consecutive matrices of the stack S (sum n, D, D), for all runs at
    once: (G, D, D).  The runs are padded in front with identities to one
    power-of-two length and halved by pairwise products, one batched
    product per level."""
    top = 1 << (int(max(n)) - 1).bit_length()
    D = S.shape[-1]
    P = np.empty((len(n), top, D, D))
    P[:] = np.eye(D)
    run = np.repeat(np.arange(len(n)), n)
    P[run, np.arange(len(S)) - np.repeat(np.cumsum(n) - top, n)] = S
    while P.shape[1] > 1:
        P = P[:, 1::2] @ P[:, ::2]
    return P[:, 0]


def _segment_derivatives(flights):
    """Per segment of the flights, in flight order: the derivative (D, D)
    of its end state in its field's square tangent (its steps', and at
    the end its last step's dense output's), its end state's rows x --
    (q, p, t) or (xi, eta, t) -- and their rates of change F there, the
    field's and physical time's.  One pass over the stages per field."""
    segs = [(traj, seg) for traj in flights for seg in traj.segments]
    groups = {}
    for g, (traj, seg) in enumerate(segs):
        c = None if seg.moser is None else traj.energy
        groups.setdefault((seg.chart, traj.mu, c), []).append(g)
    out = [None] * len(segs)
    for (_, mu, c), members in groups.items():
        ch = segs[members[0]][1].moser
        sols = [segs[g][1].sol for g in members]
        h, Z, Kl, field = _group_stages(sols, ch, mu, c)
        jac = (_rot_jacobian_rows(Z, mu) if ch is None
               else _moser_jacobian_rows(Z, c, ch.nu))
        n = np.array([len(sol.h) for sol in sols])
        last = np.cumsum(n) - 1
        theta = np.array([(sol.ts[-1] - sol.t_old[-1]) / sol.h[-1]
                          for sol in sols])
        steps = _step_derivatives(jac, h, last, theta)
        # the end states, on the last steps' interpolants
        d, L = Kl.shape[1:]
        yl = Z[:, last]
        y_new = Z[:, _STAGES * len(h):_STAGES * len(h) + L]
        x = _dop853_value(theta, _dense_coeffs(Kl, yl, y_new, h[last]), yl)
        f = np.empty((d, L))
        field(x, f)
        if ch is None:
            x = np.vstack([x, [sol.ts[-1] for sol in sols]])
            f = np.vstack([f, np.ones(L)])
        for g, P, xg, fg in zip(members, _chains(steps, n), x.T, f.T):
            out[g] = (P, xg, fg)
    return out


def _step_derivatives(jac, h, last, theta):
    """The derivatives (n, D, D) of the n steps of sizes h whose tangent
    field Jacobians at the stage states are jac (12 n + 4 L, D, D), laid
    out as _group_stages' states; the steps ``last`` (L,) are the last of
    their segments, and for them the derivative of the dense output at
    the normalized times theta (L,) replaces the step's.  jac is scaled
    in place by each stage's h, so that the products give h dK_s."""
    n, L, D = len(h), len(last), jac.shape[-1]
    off = _STAGES * n
    jac[:off].reshape(_STAGES, n, D, D)[:] *= h[:, None, None]
    jac[off:].reshape(4, L, D, D)[:] *= h[last, None, None]
    eye = np.eye(D)
    hdK = np.empty((_STAGES, n, D, D))
    hdK[0] = jac[:n]
    X = np.empty((n, D, D))
    for s in range(1, _STAGES):
        np.matmul(jac[s * n:(s + 1) * n], _stage_state(dop.A[s, :s], hdK,
                                                       eye, X), out=hdK[s])
    steps = _stage_state(dop.B, hdK, eye, np.empty((n, D, D)))
    hdKl = np.empty((16, L, D, D))
    hdKl[:_STAGES] = hdK[:, last]
    X = steps[last]
    for s in range(_STAGES, 16):
        if s > _STAGES:
            _stage_state(dop.A[s, :s], hdKl, eye, X)
        i = off + (s - _STAGES) * L
        np.matmul(jac[i:i + L], X, out=hdKl[s])
    flat = eye.ravel()
    dF = _dense_coeffs(hdKl.reshape(16, L, D * D),
                       np.broadcast_to(flat, (L, D * D)),
                       steps[last].reshape(L, D * D), 1.0)
    steps[last] = _dop853_value(theta[:, None], dF, flat).reshape(L, D, D)
    return steps


def _event_gradient(fn, x):
    """Gradient of an event function at the state rows x, by complex step
    on its (rows, n) array form."""
    g = fn(x[:, None] + 1j * _CS_STEP * np.eye(len(x)))
    if not np.iscomplexobj(g):
        raise ConfigError("flight Jacobians need event functions that "
                          "take complex states")
    return np.imag(g) / _CS_STEP


def flight_jacobian(flights, V, dc=None):
    """Derivative of flown trajectories' end state with respect to their
    start, from the flights' own DOP853 steps; no flight is flown.

    flights is a Trajectory, or a chain of them, each started in the
    rotating chart where the one before it ended.  V (6, k) is a tangent
    at the physical start state of the first, dc (k,) the matching change
    of the energy c they ran at (default: c held fixed).  Every accepted
    step is differentiated exactly for its size, all steps in one field at
    once; the chart maps, and the projection that ends a chart stay, by
    their Jacobians.  At each segment's end the hit-time correction
    W - F (grad g . W) / (grad g . F) moves the tangent onto the event
    g = 0 that ended it (F the field, physical time included).  Returns
    the tangent (6, k) at the physical end state of the last flight and
    the change (k,) of that flight's end time: each flight's clock starts
    unperturbed.
    """
    if isinstance(flights, Trajectory):
        flights = [flights]
    derivs = iter(_segment_derivatives(flights))
    V = np.asarray(V, dtype=float)
    k = V.shape[1]
    W = np.vstack([V, np.zeros(k), np.zeros(k) if dc is None else dc])
    for traj in flights:
        W[6] = 0.0
        for i, seg in enumerate(traj.segments):
            ch = seg.moser
            if ch is not None and len(W) == 8:      # entering the chart
                z0 = seg.sol.y_old[0]
                W = np.vstack([ch.from_physical_jacobian(
                    ch.to_physical(z0[:4], z0[4:8])) @ W[:6], W[6:]])
            P, x, F = next(derivs)
            W[:len(P)] = P @ W[:len(P)]
            if seg.end is not None:
                grad = _event_gradient(seg.end, x)
                W[:len(F)] -= np.outer(F, grad @ W[:len(x)]) / (grad @ F)
            if ch is not None:
                xi, eta = x[:4], x[4:8]
                jac = np.eye(8)
                if i + 1 < len(traj.segments):    # leaving the chart
                    jac = project_constraints_jacobian(xi, eta)
                    xi, eta = project_constraints(xi, eta)
                W = np.vstack([ch.to_physical_jacobian(xi, eta) @ jac
                               @ W[:8], W[8:]])
    return W[:6], W[6]
