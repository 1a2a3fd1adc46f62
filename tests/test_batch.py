"""Batched flights: integrate_many and its lockstep DOP853 stepper,
return_map_many, and the array-backed dense output."""

import copy
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients, rk

from sectionscope import cr3bp, flows, sections
from sectionscope.cli import main
from sectionscope.cr3bp import (EARTH_MOON_MU, _rot_rhs, hamiltonian,
                                sample_page_states, sample_shell_states,
                                vector_field_ode)
from sectionscope.errors import (BindingError, CollisionError, ConfigError,
                                 MaxTimeExceeded, SectionScopeError)
from sectionscope.flows import (DenseOutput, FlowEvent, IntegratorConfig,
                                integrate, integrate_many)
from sectionscope.orbits import vertical_seed
from sectionscope.regularize import MoserChart, _q_rhs, q_rhs_rows
from sectionscope.sections import return_map, return_map_many

C_TEST = -1.7
MUS = (0.0, 1e-3, EARTH_MOON_MU)
CFG = IntegratorConfig(max_time=50.0)


def _on_the_lane():
    """Every batch of two or more members on the lockstep lane, as a batch
    of flows._LANE_WIDTH is, until one leg is left: the small batches below
    test the lane."""
    return mock.patch.multiple(flows, _LANE_WIDTH=2, _DRAIN_WIDTH=2)


def _page_points(mu, seed, n):
    """The vertical seed, whose return passes through the Earth's Moser
    chart, then n page points drawn from the seed."""
    rng = np.random.default_rng(seed)
    pts = sample_page_states(mu, C_TEST, n, rng, component="earth")
    return [vertical_seed(mu, C_TEST)] + list(pts)


def _solo(x, mu, cfg=CFG):
    try:
        return return_map(x, mu, c=C_TEST, cfg=cfg, return_traj=True)
    except SectionScopeError as exc:
        return exc, None


def _same_bits(a, b):
    if isinstance(a, SectionScopeError):
        return type(a) is type(b)
    return (np.array_equal(a.fx, b.fx) and a.tau == b.tau
            and a.crossings == b.crossings
            and a.binding_min == b.binding_min)


@_on_the_lane()
@settings(max_examples=12, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 5))
def test_return_map_many_matches_solo_return_maps(mu, seed, n):
    # a solo return map's rotating legs run on solve_ivp, a batch's on the
    # lockstep lane: the same bits
    pts = _page_points(mu, seed, n)
    batch = return_map_many(pts, mu, c=C_TEST, cfg=CFG)
    assert len(batch) == len(pts)
    for k, (x, got) in enumerate(zip(pts, batch)):
        want, trajs = _solo(x, mu)
        if k == 0:
            assert any(seg.chart == "moser-earth"
                       for seg in trajs[1].segments)
        assert _same_bits(got, want)


@_on_the_lane()
@settings(max_examples=6, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1))
def test_member_is_bit_identical_in_different_batches(mu, seed):
    # Twin members are not needed for bit-identity: a lane row's
    # arithmetic does not depend on its company (see
    # test_member_is_bit_identical_without_twins).
    p, q, r, s = _page_points(mu, seed, 3)
    a = return_map_many([p, q, p, q, r], mu, c=C_TEST, cfg=CFG)
    b = return_map_many([s, q, p, s, q, p], mu, c=C_TEST, cfg=CFG)
    for x, y in ((a[0], b[2]), (a[2], b[5]), (a[0], a[2]),
                 (a[1], b[1]), (a[3], b[4])):
        assert _same_bits(x, y)


@_on_the_lane()
@settings(max_examples=6, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1))
def test_member_is_bit_identical_without_twins(mu, seed):
    # p is the vertical seed, whose return passes through the Earth chart;
    # the two batches share no member but p
    p, q, r, s = _page_points(mu, seed, 3)
    a = return_map_many([p, q], mu, c=C_TEST, cfg=CFG)
    b = return_map_many([r, s, p], mu, c=C_TEST, cfg=CFG)
    assert _same_bits(a[0], b[2])
    events = [FlowEvent(lambda y: y[2], direction=0.0, terminal=False)]

    def fly(starts):
        return integrate_many(starts, mu, CFG, [3.0] * len(starts),
                              [C_TEST] * len(starts), events)

    a = fly([p, q])
    b = fly([r, s, p])
    assert any(seg.chart == "moser-earth" for seg in a[0].segments)
    assert _same_flight(a[0], b[2])
    assert [h[:2] for h in a[0].event_hits] == \
        [h[:2] for h in b[2].event_hits]


def _same_flight(a, b):
    """Equal trajectories, down to every dense-output coefficient."""
    if isinstance(a, SectionScopeError):
        return type(a) is type(b)
    return (len(a.segments) == len(b.segments) and all(
        sa.chart == sb.chart and np.array_equal(sa.sol.ts, sb.sol.ts)
        and np.array_equal(sa.sol.F, sb.sol.F)
        and np.array_equal(sa.sol.y_old, sb.sol.y_old)
        for sa, sb in zip(a.segments, b.segments)))


@_on_the_lane()
@settings(max_examples=4, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1))
def test_flight_is_bit_identical_in_different_batches(mu, seed):
    rng = np.random.default_rng(seed)
    s0, s1, s2, s3 = sample_shell_states(mu, C_TEST, 4, rng,
                                         component="earth")
    events = [FlowEvent(lambda s: s[2], direction=0.0, terminal=False)]

    def fly(starts):
        return integrate_many(starts, mu, CFG, [3.0] * len(starts),
                              [C_TEST] * len(starts), events)

    a = fly([s0, s1, s0, s1, s2])
    b = fly([s3, s1, s0, s3, s2, s1, s0, s2])
    for x, y in ((a[0], b[2]), (a[2], b[6]), (a[1], b[1]), (a[3], b[5]),
                 (a[0], a[2])):
        assert _same_flight(x, y)
    # and a lone flight, on solve_ivp, is its batch member
    for x, y in ((s0, a[0]), (s3, b[0])):
        solo = _solo_flight(x, 3.0, mu, CFG, events)
        assert _same_flight(solo, y)
        assert [h[:2] for h in solo.event_hits] == \
            [h[:2] for h in y.event_hits]


@_on_the_lane()
def test_failing_return_maps_fail_alone():
    mu = 1e-3
    p, q, r = _page_points(mu, 7, 2)
    off_page = q.copy()
    off_page[2], off_page[5] = -q[5], q[2]      # quarter turn of the angle
    binding = r.copy()
    binding[2] = binding[5] = 0.0
    good = return_map_many([p, q, r], mu, c=C_TEST, cfg=CFG)
    mixed = return_map_many([p, off_page, q, binding, r], mu, c=C_TEST,
                            cfg=CFG)
    assert isinstance(mixed[1], ConfigError)
    assert isinstance(mixed[3], BindingError)
    for x, got in ((off_page, mixed[1]), (binding, mixed[3])):
        with pytest.raises(type(got)):
            return_map(x, mu, c=C_TEST, cfg=CFG)
    for x, y in zip(good, (mixed[0], mixed[2], mixed[4])):
        assert _same_bits(x, y)


def _flights(members, mu, cfg, events):
    starts, t_finals = zip(*members)
    return integrate_many(list(starts), mu, cfg, list(t_finals),
                          [C_TEST] * len(members), events)


def _solo_flight(start, t_final, mu, cfg, events):
    try:
        return integrate(start, mu, cfg, t_final, c=C_TEST, events=events)
    except SectionScopeError as exc:
        return exc


@_on_the_lane()
def test_stepper_failures_stay_with_their_member():
    mu = 1e-3
    cfg = IntegratorConfig(max_time=2.0, switching=False)
    events = [FlowEvent(lambda s: s[2], direction=0.0, terminal=False,
                        name="q3")]
    rng = np.random.default_rng(31)
    s0, s1, s2 = sample_shell_states(mu, C_TEST, 3, rng, component="earth",
                                     min_primary_dist=0.2)
    good = [(s0, 1.5), (s1, 1.5)]
    at_earth = (np.array([mu, 0.0, 0.0, 0.0, 0.3, 0.2]), 1.5)
    too_long = (s2, 5.0)                # beyond max_time
    both = _flights(good, mu, cfg, events)
    mixed = _flights([good[0], at_earth, too_long, good[1]], mu, cfg,
                     events)
    assert isinstance(mixed[1], CollisionError)
    assert isinstance(mixed[2], MaxTimeExceeded)
    assert mixed[2].trajectory.t_end == pytest.approx(2.0, abs=1e-12)
    for (start, t_final), got in zip((at_earth, too_long),
                                     (mixed[1], mixed[2])):
        assert type(_solo_flight(start, t_final, mu, cfg, events)) \
            is type(got)
    for (start, t_final), x, y in zip(good, both, (mixed[0], mixed[3])):
        assert np.array_equal(x.final_state(), y.final_state())
        assert [h[:2] for h in x.event_hits] == [h[:2] for h in y.event_hits]
        solo = _solo_flight(start, t_final, mu, cfg, events)
        assert np.max(np.abs(solo.final_state() - x.final_state())) < 1e-11
        assert len(solo.event_hits) == len(x.event_hits)
        for (k, t, s), (k2, t2, s2) in zip(solo.event_hits, x.event_hits):
            assert k == k2 and abs(t - t2) < 1e-11
            assert np.max(np.abs(s - s2)) < 1e-11


@pytest.mark.parametrize("lane", [True, False])
def test_non_finite_start_or_energy_fails_alone(lane, monkeypatch):
    # a member with a NaN start or energy raises ConfigError before any
    # leg, on the lane and on the float step, and the others keep their
    # bits
    if lane:
        monkeypatch.setattr(flows, "_LANE_WIDTH", 2)
        monkeypatch.setattr(flows, "_DRAIN_WIDTH", 2)
    mu = 1e-3
    s0, s1 = sample_shell_states(mu, C_TEST, 2, np.random.default_rng(34),
                                 component="earth")
    nan_start = s0.copy()
    nan_start[4] = np.nan
    good = integrate_many([s0, s1], mu, CFG, [1.0, 1.0], [C_TEST] * 2)
    mixed = integrate_many([s0, nan_start, s0, s1], mu, CFG, [1.0] * 4,
                           [C_TEST, C_TEST, np.nan, C_TEST])
    assert isinstance(mixed[1], ConfigError)
    assert isinstance(mixed[2], ConfigError)
    for a, b in zip(good, (mixed[0], mixed[3])):
        assert _same_flight(a, b)
    with pytest.raises(ConfigError):
        integrate((np.full(4, np.nan), np.zeros(4)), mu, CFG, 1.0, c=C_TEST,
                  start_chart="moon")


def test_batch_below_the_threshold_has_the_bits_of_the_lane(monkeypatch):
    # a batch of flows._LANE_WIDTH members shares the lane; one member
    # fewer flies member by member on the float step, with the same bits
    mu = 1e-3
    rng = np.random.default_rng(33)
    starts = list(sample_shell_states(mu, C_TEST, flows._LANE_WIDTH,
                                      rng, component="earth"))
    events = [FlowEvent(lambda s: s[2], direction=0.0, terminal=False)]
    iterations = 0
    rk_stages = flows._rk_stages

    def counted(*args):
        nonlocal iterations
        iterations += 1
        return rk_stages(*args)

    def fly(batch):
        return integrate_many(batch, mu, CFG, [1.0] * len(batch),
                              [C_TEST] * len(batch), events)

    monkeypatch.setattr(flows, "_rk_stages", counted)
    below = fly(starts[:-1])
    assert iterations == 0
    at = fly(starts)
    assert iterations > 0
    for a, b in zip(below, at):
        assert _same_flight(a, b)
        assert a.final_state().tobytes() == b.final_state().tobytes()
        assert [(k, t, s.tobytes()) for k, t, s in a.event_hits] == \
            [(k, t, s.tobytes()) for k, t, s in b.event_hits]


# --- a lane drains below its width: its rows finish on the float step ---


def _handoffs(monkeypatch):
    """A list that records (dense output, hand-off time) for every leg
    that a draining lane hands to the float step."""
    handoffs = []

    def recorded(fun, s, *args, _orig=flows._float_leg):
        leg = _orig(fun, s, *args)
        if s.steps is not None:
            handoffs.append((leg.sol, s.t))
        return leg
    monkeypatch.setattr(flows, "_float_leg", recorded)
    return handoffs


def _hits(traj):
    return [(k, t, None if s is None else s.tobytes())
            for k, t, s in traj.event_hits]


@settings(max_examples=4, deadline=None)
@given(n=st.integers(21, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_drained_members_are_their_solo_return_maps(n, seed):
    # a batch of 21-30 scan page points, on the lane: once fewer
    # than flows._DRAIN_WIDTH legs are left, each row finishes its leg on
    # the float step from where it stands.  Every member is its solo
    # return_map, bit for bit, the main flight's event hits included, and
    # some member's page root lies past its hand-off, on a float step
    mu = 1e-3
    pts = list(sample_page_states(mu, C_TEST, n, np.random.default_rng(seed),
                                  component="earth"))
    mains = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        handoffs = _handoffs(monkeypatch)

        def recorded(*args, _orig=sections.integrate_many, **kwargs):
            mains[:] = _orig(*args, **kwargs)
            return mains
        monkeypatch.setattr(sections, "integrate_many", recorded)
        batch = return_map_many(pts, mu, c=C_TEST, cfg=CFG)
    assert handoffs
    # a main flight by its first step's start: the lead's end
    flown = {traj.segments[0].sol.y_old[0].tobytes(): traj for traj in mains
             if not isinstance(traj, SectionScopeError)}
    past = 0
    for x, got in zip(pts, batch):
        want, trajs = _solo(x, mu)
        assert _same_bits(got, want)
        if trajs is None:
            continue
        traj = flown[trajs[1].segments[0].sol.y_old[0].tobytes()]
        assert _hits(traj) == _hits(trajs[1])
        last = traj.segments[-1].sol
        past += any(sol is last and traj.t_end > t for sol, t in handoffs)
    assert past > 0


@settings(max_examples=10, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1),
       at=st.floats(0.5, 0.9))
def test_read_across_the_handoff_is_the_solo_read(mu, seed, at):
    # a leg handed over mid-way: its twins, a lane width with it, take its
    # steps and end at its node k, where the lane drains.  It is at node k
    # then, or at node k - 1 after a rejected attempt, whose step its twins
    # clipped at their end and took.  Its lane steps come filled and its
    # float steps fill when read; a read at an array of times across both,
    # a read at each time and a read of F are the solo leg's, bit for bit
    cfg = IntegratorConfig(max_time=50.0, switching=False)
    s0, = sample_shell_states(mu, C_TEST, 1, np.random.default_rng(seed),
                              component="earth", min_primary_dist=0.2)
    want = _solo_flight(s0, 1.0, mu, cfg, [])
    if isinstance(want, SectionScopeError):
        return
    b = want.segments[0].sol
    k = int(at * len(b.h))
    with pytest.MonkeyPatch.context() as monkeypatch:
        handoffs = _handoffs(monkeypatch)
        width = flows._LANE_WIDTH
        got = integrate_many([s0] * width, mu, cfg,
                             [1.0] + [b.ts[k]] * (width - 1),
                             [C_TEST] * width)[0]
    a = got.segments[0].sol
    t_hand, = [t for sol, t in handoffs if sol is a]
    lane = k if t_hand == b.ts[k] else k - 1        # the lane steps
    assert t_hand == b.ts[lane] and lane > 0
    assert not a._pending[:lane].any() and a._pending[lane:].all()
    times = np.linspace(a.ts[0], a.ts[-1], 301)
    assert a(times).tobytes() == b(times).tobytes()
    for t in times[::10]:
        assert a(t).tobytes() == b(t).tobytes()
    for name in ("ts", "t_old", "h", "y_old", "F"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_drained_rows_call_no_counted_field(monkeypatch):
    # a row that a draining lane hands over runs on with the lane's own
    # field: it calls neither solve_ivp nor its counted right-hand side,
    # vector_field_ode, so that a leg's nfev, and the benchmark tracer's
    # rhs_calls, count only solve_ivp's calls.  The members end one by one,
    # so the lane drains once flows._DRAIN_WIDTH - 1 legs are left
    mu = 1e-3
    cfg = IntegratorConfig(max_time=50.0, switching=False)
    width = flows._LANE_WIDTH
    starts = sample_shell_states(mu, C_TEST, width,
                                 np.random.default_rng(35), component="earth",
                                 min_primary_dist=0.2)
    calls = []
    for name in ("solve_ivp", "vector_field_ode"):
        monkeypatch.setattr(flows, name,
                            lambda *args, _name=name: calls.append(_name))
    handoffs = _handoffs(monkeypatch)
    trajs = integrate_many(list(starts), mu, cfg,
                           list(np.linspace(0.5, 1.5, width)),
                           [C_TEST] * width)
    assert len(handoffs) == flows._DRAIN_WIDTH - 1 and calls == []
    assert not any(isinstance(traj, SectionScopeError) for traj in trajs)


def _ivp(t_span, y0, events=None):
    return solve_ivp(lambda t, y: vector_field_ode(t, y, 1e-3), t_span, y0,
                     method="DOP853", dense_output=True, rtol=1e-12,
                     atol=1e-12, events=events)


def _q3_event(t, y):
    return y[2]


_q3_event.terminal = True


def _dense_from_ode_solution(sol):
    """scipy's OdeSolution as a DenseOutput, its steps' coefficients
    copied."""
    ips = sol.interpolants
    return DenseOutput(sol.ts, np.array([ip.t_old for ip in ips]),
                       np.array([ip.h for ip in ips]),
                       np.array([ip.y_old for ip in ips]),
                       np.array([ip.F for ip in ips]))


@pytest.mark.parametrize("kind", ["forward", "backward", "event"])
def test_dense_output_bit_identical_to_ode_solution(kind):
    # DenseOutput picks steps and evaluates them as scipy's OdeSolution
    rng = np.random.default_rng(32)
    y0 = sample_shell_states(1e-3, C_TEST, 1, rng, component="earth",
                             min_primary_dist=0.2)[0]
    span = (0.0, -3.0) if kind == "backward" else (0.0, 3.0)
    sol = _ivp(span, y0, _q3_event if kind == "event" else None)
    if kind == "event":
        assert sol.status == 1       # the last step outlives its node
    dense = _dense_from_ode_solution(sol.sol)
    lo, hi = sorted((sol.t[0], sol.t[-1]))
    times = np.concatenate([sol.t, rng.uniform(lo, hi, 300)])
    assert np.array_equal(dense(times), sol.sol(times))
    for t in times[::7]:
        assert np.array_equal(dense(t), sol.sol(t))
    assert np.array_equal(dense(sol.t[-1]), sol.sol(sol.t[-1]))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 9), n_steps=st.integers(1, 6),
       descending=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_dense_output_rows_are_the_bits_of_the_full_state(
        d, n_steps, descending, seed, data):
    # each component is interpolated on its own: reading some of them
    # gives the full state's bits there, in any order, repeats allowed
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.1, 1.0, n_steps) * (-1.0 if descending else 1.0)
    ts = np.concatenate([[0.0], np.cumsum(h)])
    scale = 10.0 ** rng.integers(-12, 3, size=(n_steps, 7, d))
    sol = DenseOutput(ts, ts[:-1], h, rng.normal(size=(n_steps, d)),
                      rng.normal(size=(n_steps, 7, d)) * scale)
    rows = data.draw(st.lists(st.integers(0, d - 1), min_size=1,
                              max_size=d + 2))
    lo, hi = sorted((ts[0], ts[-1]))
    times = np.array(data.draw(st.lists(
        st.floats(lo - 0.5, hi + 0.5) | st.sampled_from(list(ts)),
        min_size=1, max_size=40)))
    assert sol(times, rows).tobytes() == sol(times)[rows].tobytes()
    for t in times:
        assert sol(t, rows).tobytes() == sol(t)[rows].tobytes()


def test_section_scan_takes_about_as_many_iterations_as_its_longest_flight(
        tmp_path, monkeypatch):
    # section-scan --mu 1e-3 --c -1.7 --n 25 --seed 0 at tol 1e-12: at
    # most one burn-in iteration, then one per step attempt of the longest
    # main flight (104), as each flight's next leg joins once its last one
    # ends; and fewer, 92, since the lane drains once fewer than
    # flows._DRAIN_WIDTH legs are left and the last attempts run on floats
    iterations = 0
    rk_stages = flows._rk_stages

    def counted(*args):
        nonlocal iterations
        iterations += 1
        return rk_stages(*args)

    monkeypatch.setattr(flows, "_rk_stages", counted)
    assert main(["section-scan", "--mu", "1e-3", "--c", "-1.7", "--n", "25",
                 "--seed", "0", "--tol", "1e-12",
                 "--out", str(tmp_path / "scan")]) == 0
    assert iterations <= 95


def test_lockstep_constants_are_scipys():
    # the lockstep transcribes scipy's RK step control and DOP853; a scipy
    # that changed them would change every batched flight
    assert flows._SAFETY == rk.SAFETY
    assert flows._MIN_FACTOR == rk.MIN_FACTOR
    assert flows._MAX_FACTOR == rk.MAX_FACTOR
    assert flows._STAGES == rk.DOP853.n_stages
    assert flows._ERR_EXP == -1.0 / (rk.DOP853.error_estimator_order + 1)
    # the package's copy of the DOP853 tableau
    assert flows.dop.N_STAGES == dop853_coefficients.N_STAGES
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(flows.dop, name),
                              getattr(dop853_coefficients, name)), name


# --- the float step of a lone leg is a lane row, bit for bit ---

@pytest.mark.parametrize("n", [2, 6, 9])
def test_generated_step_multiplies_only_nonzero_weights(n):
    # every weight of the step and of the dense function comes from the
    # tableau, the zero ones left out: 74 products per component in the
    # step (A rows 1-11, B, E5, E3) and 72 in the dense function (A rows
    # 13-15, D), where the full stage sums have 208 (a dropped 0.0 * k is
    # a signed zero, see the property below)
    step = ([flows.dop.A[s, :s] for s in range(1, flows._STAGES)]
            + [flows.dop.B, flows.dop.E5[:flows._STAGES],
               flows.dop.E3[:flows._STAGES]])
    dense = ([flows.dop.A[s, :s] for s in range(flows._STAGES + 1, 16)]
             + list(flows.dop.D))
    assert sum(map(len, step + dense)) == 208
    for read, source, count in ((step, flows._step_source, 74),
                                (dense, flows._dense_source, 72)):
        nonzero = sum(np.count_nonzero(w) for w in read)
        assert nonzero == count
        src = source(n)
        assert "0.0 *" not in src
        for j in range(n):
            weights = [float(w) for w in re.findall(
                rf"(-?[\d.]+(?:e-?\d+)?) \* k\d+_{j}\b", src)]
            assert len(weights) == nonzero
            assert 0.0 not in weights


_STEP_EVENTS = [FlowEvent(lambda y: y[1], terminal=False, name="q2"),
                FlowEvent(lambda y: y[2] - 0.05, direction=1.0,
                          terminal=True, name="q3")]


def _random_states(mu, n, rng):
    """n states around the primaries, 0.05 or more from both, and near
    both event surfaces; about a third planar, whose stage sums in q3
    and p3 add signed zeros."""
    out = []
    while len(out) < n:
        y = np.concatenate([rng.uniform([-1.5, -0.1, -0.1], [1.5, 0.1, 0.2]),
                            rng.uniform(-1.0, 1.0, 3)])
        if rng.random() < 0.3:
            y[[2, 5]] = rng.choice([0.0, -0.0], 2)
        if min(np.linalg.norm(y[:3] - [x, 0.0, 0.0])
               for x in (mu, mu - 1.0)) > 0.05:
            out.append(y)
    return out


def _float_step(y, f, t, h_abs, rej, d, t_bound, g, mu):
    """One step of solve_ivp's loop, its dense output filled: (outcome of
    the generated step with F in place of its stages, its (root, event)
    hits, the terminal event that stopped it or None, state at the step's
    end).  A CollisionError of the step, or of the fill of a step where an
    event changes sign, is returned; F is None where the fill of another
    step collides, which solve_ivp raises at the read of the step."""
    def fun(tt, yy):
        return vector_field_ode(tt, yy, mu)

    try:
        out = flows._dop853_step(6)(fun, t, y.tolist(), f.tolist(), h_abs,
                                    rej, d, t_bound, CFG.tol)
    except CollisionError as exc:
        return exc, None, None, None
    if out is None or not out[0]:
        return out, None, None, None
    _, _, t_new, h, y_new, f_new, K = out
    g_new = [ev.fn(np.array(y_new)) for ev in _STEP_EVENTS]
    act = [e for e, (a, b, ev) in enumerate(zip(g, g_new, _STEP_EVENTS))
           if (a <= 0 <= b and ev.direction >= 0)
           or (a >= 0 >= b and ev.direction <= 0)]
    try:
        F = flows._dop853_dense(6)(fun, t, y.tolist(), y_new, h, K, f_new)
    except CollisionError as exc:
        if act:
            return exc, None, None, None
        F = None
    out = out[:-1] + (F,)
    hits, stop, y_end = [], None, y_new
    if act:
        stop = flows._member_events(_STEP_EVENTS, act, t, t_new, h,
                                    y.tolist(), F, hits)
        if stop is not None:
            y_end = flows._dense_value((hits[-1][0] - t) / h, F, y.tolist())
    return out, hits, stop, y_end


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 29),
       mu=st.sampled_from((0.0, 1e-3, EARTH_MOON_MU, 0.3)),
       backward=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_float_step_is_a_lane_row_bit_for_bit(width, mu, backward, seed):
    # accept or reject, the next step size, y_new, F and the event hits,
    # whatever the lane's width; short spans clip steps at t_bound, tiny
    # steps meet the minimum step.  Hits run in the flight direction, and
    # a terminal event that stopped the leg is the last of them
    rng = np.random.default_rng(seed)
    d = -1.0 if backward else 1.0
    lane = flows._Lane(_STEP_EVENTS, mu, CFG)
    for i, y0 in enumerate(_random_states(mu, width, rng)):
        t0 = float(rng.uniform(-3.0, 3.0))
        span = float(10 ** rng.uniform(-3.0, 0.5))
        lane.join(i, flows._LegRequest(y0, t0, t0 + d * span, _STEP_EVENTS))
    collided = {i for i, _ in lane._splice()}
    m = lane.rows
    m.h_abs = np.where(rng.random(m.gid.size) < 0.15,
                       10 ** rng.uniform(-16.0, -13.0, m.gid.size),
                       10 ** rng.uniform(-3.0, 0.3, m.gid.size))
    m.rej = rng.random(m.gid.size) < 0.3
    before = [(m.gid[p], m.y[:, p].copy(), m.f[:, p].copy(), m.t[p],
               m.h_abs[p], bool(m.rej[p]), m.t_bound[p], m.g[:, p].copy())
              for p in range(m.gid.size)]
    with np.errstate(all="ignore"):
        ended = dict(lane._iterate())
    live = {gid: p for p, gid in enumerate(lane.rows.gid)}
    for gid, y, f, t, h_abs, rej, t_bound, g in before:
        assert gid not in collided
        out, hits, stop, y_end = _float_step(y, f, float(t), float(h_abs),
                                             rej, d, float(t_bound), g, mu)
        leg = ended.get(gid)
        if isinstance(out, CollisionError):
            assert isinstance(leg, CollisionError)
            continue
        if out is None:                       # below the minimum step
            assert leg.status == -1
            continue
        if not out[0]:
            p = live[gid]
            assert m.rej[p] and m.h_abs[p] == out[1]
            continue
        _, h_next, t_new, h, y_new, _, F = out
        if leg is None:
            p = live[gid]
            assert not lane.rows.rej[p] and lane.rows.h_abs[p] == h_next
            rec = lane.log[lane.rows.slot[p], 0]
            got_y, got_hits = lane.rows.y[:, p], lane.hits[gid]
            assert stop is None
        else:
            sol = leg.sol
            pending = sol._pending is not None and sol._pending[-1]
            if pending:
                with pytest.raises(CollisionError):
                    sol(sol.t_old[-1])
            rec = np.concatenate([[sol.t_old[-1], sol.h[-1], leg.t[-1]],
                                  sol.y_old[-1], sol._F[-1].ravel(),
                                  [pending]])
            got_y, got_hits = leg.y_end, leg.hits
            assert leg.stop == stop
            assert leg.status == (0 if stop is None else 1)
        assert rec[0] == t and rec[1] == h
        assert rec[3:9].tobytes() == y.tobytes()
        assert rec[-1] == (F is None)
        if F is not None:
            assert rec[9:-1].tobytes() == np.array(F).tobytes()
        assert got_y.tobytes() == np.array(y_end).tobytes()
        assert got_hits == hits
        times = [te for te, _ in hits]
        assert times == sorted(times, reverse=backward)
        if stop is not None:
            assert hits[-1][1] == stop and _STEP_EVENTS[stop].terminal
        if leg is None:
            assert rec[2] == t_new and y_end is y_new


# --- a lone leg's dense output is filled when it is read ---


def _eager_leg(fun, field, field_rows, t_span, y0):
    """A solve_ivp leg without events, so with every step pending, and
    the coefficients F (n, 7, d) of each accepted step computed at the
    step from its own outputs, as the step used to compute them."""
    n = len(y0)
    step, dense = flows._dop853_step(n), flows._dop853_dense(n)
    eager = []

    def eager_step(fun, t, y, *args):
        out = step(fun, t, y, *args)
        if out is not None and out[0]:
            _, _, _, h, y_new, f_new, K = out
            eager.append(dense(fun, t, y, y_new, h, K, f_new))
        return out

    with mock.patch.object(flows, "_dop853_step", lambda m: eager_step):
        leg = flows.solve_ivp(fun, t_span, y0, [], CFG, field, field_rows)
    return leg, np.array(eager).reshape(-1, 7, n)


def _array_fills(monkeypatch):
    """A list that records every array pass of a fill (_fill_rows): its
    F, or None where it leaves the fill to the floats."""
    calls = []

    def recorded(rec, nxt, field_rows, _orig=flows._fill_rows):
        calls.append(_orig(rec, nxt, field_rows))
        return calls[-1]
    monkeypatch.setattr(flows, "_fill_rows", recorded)
    return calls


@settings(max_examples=40, deadline=None)
@given(leg=st.sampled_from(["forward", "backward", "moser"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_filled_coefficients_are_the_eager_ones(leg, seed):
    # pending steps filled one at a time on floats, and by a read at an
    # array of times and by a read of F: in one array pass from
    # flows._FILL_WIDTH pending steps on, on floats below.  All have
    # the bits computed at the step, though a step's y_new and f(y_new)
    # are read from the next step's row: rotating legs both ways, a third
    # of them planar with signed zeros in q3 and p3, and Moser-chart stays
    # (n = 9) of 30 steps or more, a third planar with signed zeros in xi3
    # and eta3
    mu = 1e-3
    rng = np.random.default_rng(seed)
    if leg == "moser":
        planar = rng.random() < 1 / 3
        u = rng.normal(size=3)
        if planar:
            u[2] = 0.0
        state = np.concatenate([[mu, 0.0, 0.0] + rng.uniform(0.01, 0.05)
                                * u / np.linalg.norm(u),
                                rng.uniform(-1.0, 1.0, 3)])
        if planar:
            state[5] = rng.choice([0.0, -0.0])
        ch, c = MoserChart(mu, "earth"), hamiltonian(state, mu)
        y0 = np.concatenate([*ch.from_physical(state), [0.0]])
        assert (y0[[3, 7]] == 0.0).all() == planar
        leg, eager = _eager_leg(lambda s, z: ch.field(z, c),
                                lambda s, z: _q_rhs(z[:8], c, ch.nu),
                                lambda Z: q_rhs_rows(Z, c, ch.nu),
                                (0.0, rng.uniform(0.2, 2.0)), y0)
    else:
        span = rng.uniform(0.05, 1.5) * (-1.0 if leg == "backward" else 1.0)
        try:
            leg, eager = _eager_leg(
                lambda t, y: vector_field_ode(t, y, mu),
                lambda t, y: _rot_rhs(y, mu)[0],
                lambda Y: flows._rot_field_rows(Y, mu), (0.0, span),
                _random_states(mu, 1, rng)[0])
        except CollisionError:
            return
    sol = leg.sol
    assert len(sol.h) == len(eager) and sol._pending.all()
    one, times, whole = sol, copy.deepcopy(sol), copy.deepcopy(sol)
    with pytest.MonkeyPatch.context() as monkeypatch:
        passes = _array_fills(monkeypatch)
        for k, (t_old, h) in enumerate(zip(one.t_old, one.h)):
            one(t_old + 0.5 * h)
            left = 0 if one._pending is None else int(one._pending.sum())
            assert left == len(eager) - k - 1
        assert passes == []
        times(np.linspace(sol.ts[0], sol.ts[-1], 7))
        whole.F
    assert times._pending is None
    wide = len(eager) >= flows._FILL_WIDTH
    assert len(passes) == (2 if wide else 0)
    assert leg != "moser" or wide
    for filled in (one, times, whole):
        assert filled.F.tobytes() == eager.tobytes()
        assert filled._pending is None


def test_array_fill_keeps_a_sum_of_negative_zeros_negative():
    # a stage sum whose terms are all -0.0 is -0.0 on the floats, which
    # multiply only the nonzero weights; the array pass also adds stages
    # 1-4 at weight 0, so it has the floats' bits only while it holds
    # them as -0.0.  Every D row mixes signs, so the zeros are chosen for
    # D row 0: each logged stage and f(y_new) is the zero that its weight
    # turns into a -0.0 term, and so is each interpolant stage, which a
    # stateful field returns in turn (-0.0, +0.0, +0.0 for stages 13-15)
    n = 6
    zero = np.copysign(0.0, -flows.dop.D[0])
    assert np.signbit(zero[13:]).tolist() == [True, False, False]
    h = 0.1
    y, y_new = np.linspace(0.5, 1.0, n), np.linspace(0.7, 1.3, n)
    K = np.repeat(zero[list(flows._DENSE_STAGES)], n)
    f_new = np.full(n, zero[flows._STAGES])

    def stages():
        it = iter(zero[13:].tolist())
        return lambda: next(it)

    stage = stages()
    want = flows._dop853_dense(n)(
        lambda t, v: [stage()] * n, 0.0, y.tolist(), y_new.tolist(), h,
        K.tolist(), f_new.tolist())
    stage = stages()
    got = flows._fill_rows(
        np.concatenate([[0.0, h, h], y, K])[None],
        np.concatenate([y_new, f_new])[None],
        lambda Y: (np.full(Y.shape, stage()), np.zeros(len(Y), dtype=bool)))
    assert np.signbit(got[0, 3]).all()
    assert got.tobytes() == np.reshape(want, (1, 7, n)).tobytes()


def test_array_fill_calls_no_counted_field(monkeypatch):
    # a read that fills a lone leg's steps in one array pass evaluates
    # the fields' own formulas, not the counted right-hand sides, so a
    # leg's nfev (and the benchmark tracer's rhs_calls) counts only the
    # solver's calls: rotating legs of 37 to 77 pending steps, and a Moon
    # chart stay of 58
    c = float(cr3bp.lagrange_points(EARTH_MOON_MU).energies[0]) - 0.05
    x = sample_page_states(EARTH_MOON_MU, c, 1, np.random.default_rng(0),
                           component="moon")[0]
    _, (_, lunar) = return_map(x, EARTH_MOON_MU, c=c,
                               cfg=IntegratorConfig(), return_traj=True)
    vertical = integrate(vertical_seed(1e-3, C_TEST), 1e-3, CFG, 2.0)
    segments = [seg for traj in (lunar, vertical) for seg in traj.segments
                if seg.sol._pending is not None
                and seg.sol._pending.sum() >= flows._FILL_WIDTH]
    assert {seg.chart for seg in segments} == {"rot", "moser-moon"}
    calls = []
    for owner, name in ((flows, "vector_field_ode"), (MoserChart, "field")):
        monkeypatch.setattr(owner, name,
                            lambda *args, _name=name: calls.append(_name))
    passes = _array_fills(monkeypatch)
    for seg in segments:
        seg.sol.F
    assert calls == [] and len(passes) == len(segments)
    assert all(F is not None for F in passes)


def test_interpolant_collision_is_raised_at_the_read_in_every_batch(
        monkeypatch):
    # the flight's closest approach to the Earth falls in an interpolant
    # stage: with the collision threshold between that stage's distance
    # and those of every stage the flight evaluates, the flight ends in a
    # batch flown on solve_ivp (one fewer than flows._LANE_WIDTH) and on a
    # lane (flows._LANE_WIDTH) alike, and every
    # read of a step whose interpolant collided raises, the one-step read
    # and the read of the segment.  On the lane the other members fly on
    # for 5, 3 or 0.3 time units: the lane drains after the flight ends,
    # after the collided step, or before it, so that the collided step is
    # a lane step in the first two and a float step in the last.  The
    # segment read, of more than flows._FILL_WIDTH pending steps, tries
    # one array pass where the collided step is a float step, and the
    # pass leaves the fill to the floats; they raise at the collided
    # step, and it stays pending.  A read that takes in a collided lane
    # step raises before any pass
    mu, span = 1e-3, 0.3
    cfg = IntegratorConfig(switching=False)
    y0 = np.array([0.3, 0.03, 0.01, -2.4, -0.2, -0.1])
    flown, filled = [], []

    def recorder(dist):
        def fun(t, y):
            f, dm, de = _rot_rhs(y, mu)
            dist.append(min(dm, de))
            return f
        return fun

    leg = flows.solve_ivp(recorder(flown), (0.0, span), y0, [], cfg,
                          recorder(filled))
    leg.sol.F
    threshold = 0.5 * (min(filled) + min(flown))
    assert min(filled) < threshold < min(flown)
    monkeypatch.setattr(cr3bp, "COLLISION_THRESHOLD", threshold)
    monkeypatch.setattr(flows, "COLLISION_THRESHOLD", threshold)
    other = np.array([0.5, 0.0, 0.0, 0.0, 0.9, 0.0])
    width = flows._LANE_WIDTH
    cases = {"solve_ivp": (width - 1, span), "lane": (width, 5.0),
             "lane, then floats": (width, 3.0), "floats": (width, span)}
    collided, sampled, handoff = {}, {}, {}
    passes = _array_fills(monkeypatch)
    for case, (size, t_other) in cases.items():
        for read in ("one step", "segment", "F"):
            traj = integrate_many([y0] + [other] * (size - 1), mu, cfg,
                                  [span] + [t_other] * (size - 1))[0]
            assert traj.t_end == span and len(traj.segments) == 1
            sol = traj.segments[0].sol
            mid = sol.ts[:-1] + 0.5 * np.diff(sol.ts)
            if read == "one step":
                # the float steps, from the hand-off on, are all pending
                handoff[case] = next((k for k in np.flatnonzero(sol._pending)
                                      if sol._pending[k:].all()), len(mid))
                bad = []
                for k, t in enumerate(mid):
                    try:
                        sol(t)
                    except CollisionError:
                        bad.append(k)
                        with pytest.raises(CollisionError):
                            sol(t)
                collided[case] = bad
            elif read == "segment":
                passes.clear()
                with pytest.raises(CollisionError):
                    sol(mid)
                assert passes == ([None] if case in ("solve_ivp", "floats")
                                  else [])
                assert len(mid) >= flows._FILL_WIDTH
                assert sol._pending[collided[case]].all()
                for k in collided[case]:
                    with pytest.raises(CollisionError):
                        sol(mid[k])
            else:
                # a sampled read raises only if it reads such a step
                try:
                    sampled[case] = traj.min_over(lambda s: s[0], rows=(0,))
                except CollisionError:
                    sampled[case] = "CollisionError"
                with pytest.raises(CollisionError):
                    sol.F
    bad = collided["solve_ivp"]
    assert bad and len(bad) == 1
    assert all(collided[case] == bad for case in cases)
    assert all(sampled[case] == sampled["solve_ivp"] for case in cases)
    assert handoff["solve_ivp"] == 0 and handoff["lane"] == len(mid)
    assert 0 < handoff["floats"] < bad[0] < handoff["lane, then floats"] \
        < len(mid)
