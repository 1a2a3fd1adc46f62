"""Batched flights: integrate_many and its lockstep DOP853 stepper,
return_map_many, and the array-backed dense output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import rk

from sectionscope import flows
from sectionscope.cli import main
from sectionscope.cr3bp import (EARTH_MOON_MU, sample_page_states,
                                sample_shell_states, vector_field_ode)
from sectionscope.errors import (BindingError, CollisionError, ConfigError,
                                 MaxTimeExceeded, SectionScopeError)
from sectionscope.flows import (DenseOutput, FlowEvent, IntegratorConfig,
                                integrate, integrate_many)
from sectionscope.orbits import vertical_seed
from sectionscope.sections import return_map, return_map_many

C_TEST = -1.7
MUS = (0.0, 1e-3, EARTH_MOON_MU)
CFG = IntegratorConfig(max_time=50.0)


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


@settings(max_examples=12, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 5))
def test_return_map_many_matches_solo_return_maps(mu, seed, n):
    pts = _page_points(mu, seed, n)
    batch = return_map_many(pts, mu, c=C_TEST, cfg=CFG)
    assert len(batch) == len(pts)
    for k, (x, got) in enumerate(zip(pts, batch)):
        want, trajs = _solo(x, mu)
        assert type(got) is type(want)
        if k == 0:
            assert any(seg.chart == "moser-earth"
                       for seg in trajs[1].segments)
        if isinstance(want, SectionScopeError):
            continue
        assert got.crossings == want.crossings
        assert np.max(np.abs(got.fx - want.fx)) < 1e-11
        assert abs(got.tau - want.tau) < 1e-11


@settings(max_examples=6, deadline=None)
@given(mu=st.sampled_from(MUS), seed=st.integers(0, 2 ** 32 - 1))
def test_member_is_bit_identical_in_different_batches(mu, seed):
    # Twin members are not needed for bit-identity: in a batch of two or
    # more every rotating leg runs on the lockstep stepper, whatever its
    # company (see test_member_is_bit_identical_without_twins).
    p, q, r, s = _page_points(mu, seed, 3)
    a = return_map_many([p, q, p, q, r], mu, c=C_TEST, cfg=CFG)
    b = return_map_many([s, q, p, s, q, p], mu, c=C_TEST, cfg=CFG)
    for x, y in ((a[0], b[2]), (a[2], b[5]), (a[0], a[2]),
                 (a[1], b[1]), (a[3], b[4])):
        assert _same_bits(x, y)


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


def _ivp(t_span, y0, events=None):
    return solve_ivp(lambda t, y: vector_field_ode(t, y, 1e-3), t_span, y0,
                     method="DOP853", dense_output=True, rtol=1e-12,
                     atol=1e-12, events=events)


def _q3_event(t, y):
    return y[2]


_q3_event.terminal = True


@pytest.mark.parametrize("kind", ["forward", "backward", "event"])
def test_dense_output_bit_identical_to_ode_solution(kind):
    rng = np.random.default_rng(32)
    y0 = sample_shell_states(1e-3, C_TEST, 1, rng, component="earth",
                             min_primary_dist=0.2)[0]
    span = (0.0, -3.0) if kind == "backward" else (0.0, 3.0)
    sol = _ivp(span, y0, _q3_event if kind == "event" else None)
    if kind == "event":
        assert sol.status == 1       # the last step outlives its node
    dense = DenseOutput.from_ode_solution(sol.sol)
    lo, hi = sorted((sol.t[0], sol.t[-1]))
    times = np.concatenate([sol.t, rng.uniform(lo, hi, 300)])
    assert np.array_equal(dense(times), sol.sol(times))
    for t in times[::7]:
        assert np.array_equal(dense(t), sol.sol(t))
    assert np.array_equal(dense(sol.t[-1]), sol.sol(sol.t[-1]))


def test_section_scan_takes_about_as_many_iterations_as_its_longest_flight(
        tmp_path, monkeypatch):
    # section-scan --mu 1e-3 --c -1.7 --n 25 --seed 0 at tol 1e-12: one
    # burn-in iteration, then one per step attempt of the longest main
    # flight (104), as each flight's next leg joins once its last one ends
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
    assert iterations <= 115


def test_lockstep_constants_are_scipys():
    # the lockstep transcribes scipy's RK step control and DOP853; a scipy
    # that changed them would change every batched flight
    assert flows._SAFETY == rk.SAFETY
    assert flows._MIN_FACTOR == rk.MIN_FACTOR
    assert flows._MAX_FACTOR == rk.MAX_FACTOR
    assert flows._STAGES == rk.DOP853.n_stages
    assert flows._ERR_EXP == -1.0 / (rk.DOP853.error_estimator_order + 1)
