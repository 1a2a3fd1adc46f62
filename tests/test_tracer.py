"""The benchmark's per-layer tracer (perfbench/tracer.py) on the
program's own runs: every wrap target is found, every per-layer metric
is reported, finite, and its self-checks hold."""

import importlib.util
import math
import pathlib

import pytest

from sectionscope import cli
from sectionscope.cr3bp import EARTH_MOON_MU, lagrange_points

_TRACER = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
           / "tracer.py")
_LUNAR_C = float(lagrange_points(EARTH_MOON_MU).energies[0]) - 0.05
# metrics the benchmark adds from outside the tracer
_OUTSIDE = {"proc.cpu_s", "trace.overhead_frac"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (argv, operations): an operation is an orbit or a page point's return,
# as in the benchmark's workloads
@pytest.mark.parametrize("argv, ops", [
    (["find-orbit", "--mode", "vertical", "--mu", "1e-3", "--c", "-1.75"],
     1),
    (["section-scan", "--mu", "1e-3", "--c", "-1.7", "--component", "earth",
      "--tol", "1e-12", "--n", "2", "--seed", "0"], 2),
    # a lane that drains: its rows finish uncounted, as lane rows do
    (["section-scan", "--mu", "1e-3", "--c", "-1.7", "--component", "earth",
      "--tol", "1e-12", "--n", "21", "--seed", "0"], 21),
    (["section-scan", "--mu", repr(EARTH_MOON_MU), "--c", repr(_LUNAR_C),
      "--component", "moon", "--tol", "1e-12", "--n", "1", "--seed", "0"],
     1),
], ids=["shoot", "scan", "scan_lane", "lunar"])
def test_traced_run_is_complete(tmp_path, argv, ops):
    tr = _tracer_module()
    tracer = tr.Tracer(op_boundary=None if argv[0] == "find-orbit"
                       else ("cli", "return_map"))
    with tracer:
        tracer.reset()
        rc = tracer.call_op("cli.main", "cli", cli.main,
                            argv + ["--out", str(tmp_path / "out")])
        metrics, failures = tr.pass_metrics(tracer, ops)
    assert rc == 0
    assert tracer.missing == set()
    assert failures == []
    assert set(metrics) == set(tr.PER_LAYER) - _OUTSIDE
    assert all(math.isfinite(v) for v in metrics.values())
    if ops == 1:
        # lone flights, through a Moser chart: their rotating legs are
        # one-leg solves too
        assert metrics["cr3bp.rhs_calls"] > 0
        assert metrics["regularize.field_calls"] > 0
