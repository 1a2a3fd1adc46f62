#!/usr/bin/env python3
"""sectionscope benchmark: the section-scan and find-orbit commands, run
in-process through ``sectionscope.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (one process, one thread, ``SECTIONSCOPE_THREADS=1``):

scan   section-scan at mu = 1e-3, c = -1.7 around the Earth, tol 1e-12.
       Many short event-terminated flights; about a third of the returns
       pass through a Moser chart.  Scipy's stepping, dense output and
       event code plus the rotating right-hand side dominate.
lunar  section-scan in the Moon's bounded Hill component at the Earth-Moon
       mass ratio, c = H(L1) - 0.05.  The component barely exceeds the
       chart's exit radius, so a return is ~1,500 Moser steps against ~12
       rotating ones: the Moser field and the per-chunk trajectory reads
       dominate, and the rotating right-hand side hardly matters.
shoot  find-orbit --mode vertical at (mu, c) drawn from the seed over
       [0, 1e-2] x [-1.80, -1.70]; every fourth point has mu = 0, where the
       period has a closed form.  Newton and Floquet finite-difference
       loops of full flights; the only workload that runs ``orbits``.

An operation is one page point's return (scan, lunar) or one orbit with its
Floquet multipliers (shoot).  The scan and lunar inputs are the CLI's own
draws for CLI seeds taken from a fixed pool, in an order drawn from the
workload seed, so that every output can be checked against the reference
outputs in ``perfbench/reference/``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over the first few
operations of the same schedule and reports per-layer metrics (see
``tracer.py``).  The last line of standard output is one JSON object;
the line before it is the run record.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("scan", "lunar", "shoot")

SCAN = {
    "argv": ["section-scan", "--mu", "1e-3", "--c", "-1.7",
             "--component", "earth", "--tol", "1e-12"],
    "n": 25,          # page points per CLI call
    "pool": 40,       # CLI seeds 0..pool-1 have reference outputs
    "window": 2,      # CLI calls per traced pass
    "kernels": 4,     # calibration kernels between two timed calls
}
LUNAR_MU = 0.0121505856
LUNAR = {
    "argv": ["section-scan", "--mu", repr(LUNAR_MU), "--component", "moon",
             "--tol", "1e-12"],
    "n": 1,
    "pool": 20,
    "window": 2,
    "kernels": 10,
}
SHOOT = {
    "argv": ["find-orbit", "--mode", "vertical"],
    "mu_max": 1e-2,
    "c_range": (-1.80, -1.70),
    "mu0_every": 4,
    "window": 4,
    "kernels": 5,
}

# Correctness gates.
ENERGY_TOL = 1e-9       # |H(fx) - c| of an ok row (tol 1e-12 gives ~1e-13)
PAGE_TOL = 1e-8         # |sin(angle(fx) - theta)| of an ok row, theta = 0
INPUT_TOL = 1e-12       # page points equal the recorded ones (relative)
FX_TOL = 1e-8           # fx equals the recorded reference output
RESIDUAL_TOL = 1e-10    # find-orbit closure residual
RECIPROCAL_TOL = 1e-6   # reciprocal-pair residual of the multipliers
PERIOD0_TOL = 1e-10     # mu = 0: period = 2 pi (-2c)^(-3/2)

WORKLOAD_CFG = {"scan": SCAN, "lunar": LUNAR, "shoot": SHOOT}

SETUP_REPEATS = 5
SETUP_KERNELS = 8

# On a shared-host VM the host's speed swings by up to +-40% over seconds
# to minutes, with no steal time to show it.  Every timed span is
# bracketed by blocks of a fixed calibration kernel, and the end-to-end
# times are scaled to the host speed at which one kernel takes
# KERNEL_REF_S: a span's time is multiplied by KERNEL_REF_S / (mean kernel
# time in the blocks before and after it).  On a 2-vCPU Xeon VM this cut
# the spread of ops_per_s over 10 seeds from 14-21% to 2.5-6% (README.md).
# The raw wall-clock figures are kept in the run record.
KERNEL_REF_S = 0.035    # one kernel on a 2.0 GHz Xeon vCPU, quiet host
HELD_OUT_SEED = 90017   # kept for confirming later claims; never tuned on

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
                    "ok_frac": "frac", "peak_rss_mb": "MB"}


def _kepler(t, y):
    r3 = (y[0] * y[0] + y[1] * y[1]) ** 1.5
    return [y[2], y[3], -y[0] / r3, -y[1] / r3]


def calibrate(kernels):
    """Wall time of `kernels` runs of the calibration kernel.

    The kernel is a fixed eccentric Kepler orbit through scipy's DOP853
    with a Python right-hand side: the interpreter, numpy and scipy paths
    the program itself spends its time in, but none of the program's code,
    so no change to the program can move it.
    """
    from scipy.integrate import solve_ivp

    t0 = perf_counter()
    for _ in range(kernels):
        solve_ivp(_kepler, (0.0, 60.0), [1.0, 0.0, 0.0, 1.2],
                  method="DOP853", rtol=1e-12, atol=1e-12)
    return perf_counter() - t0


def pin_threads():
    """One process on one thread; must run before numpy is imported.

    Set-up children inherit the environment.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "SECTIONSCOPE_THREADS"):
        os.environ[var] = "1"


def load_program():
    """Import sectionscope from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "sectionscope", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: program source not found: {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from sectionscope import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {SRC}")
    return cli


class Call:
    """One cli.main invocation: its argv (without --out) and its checks."""

    def __init__(self, argv, ops, reference=None, mu=None, c=None):
        self.argv = argv
        self.ops = ops
        self.reference = reference
        self.mu = mu
        self.c = c

    @property
    def is_orbit(self):
        return self.reference is None


def _radical_inverse(k, base):
    inv, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * f
        f /= base
    return inv


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, name + ".json")) as fh:
        return json.load(fh)


def scan_argv(name):
    """Fixed part of the section-scan argv of the scan or lunar workload."""
    cfg = SCAN if name == "scan" else LUNAR
    argv = list(cfg["argv"])
    if name == "lunar":
        from sectionscope.cr3bp import lagrange_points
        lp = lagrange_points(LUNAR_MU)
        argv += ["--c", repr(float(lp.energies[0]) - 0.05)]
    return argv + ["--n", str(cfg["n"])]


def make_calls(name, seed):
    """The workload's schedule of CLI calls, drawn from the seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if name in ("scan", "lunar"):
        cfg = SCAN if name == "scan" else LUNAR
        ref = load_reference(name)["pool"]
        base = scan_argv(name)
        order = rng.permutation(cfg["pool"])
        return [Call(base + ["--seed", str(s)], cfg["n"], ref[str(s)])
                for s in order]
    # shoot: randomly shifted Halton sequences spread any prefix of the
    # schedule evenly over the (mu, c) box.  The mu > 0 points have their
    # own index, so the mu = 0 points take no share of the mu axis.
    shift = [float(s) for s in rng.uniform(size=3)]
    lo, hi = SHOOT["c_range"]
    every = SHOOT["mu0_every"]
    calls = []
    for k in range(256):
        if k % every == 0:
            i = k // every + 1
            mu, v = 0.0, (_radical_inverse(i, 2) + shift[2]) % 1.0
        else:
            j = k - k // every
            mu = SHOOT["mu_max"] * ((_radical_inverse(j, 2) + shift[0]) % 1.0)
            v = (_radical_inverse(j, 3) + shift[1]) % 1.0
        c = lo + (hi - lo) * v
        calls.append(Call(SHOOT["argv"] + ["--mu", repr(mu), "--c", repr(c)],
                          1, mu=mu, c=c))
    return calls


def setup(name, seed):
    """Everything before the timed region: import, inputs, temp dir."""
    cli = load_program()
    calls = make_calls(name, seed)
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    return cli, calls, tmp


def measure_setup(name, seed):
    """Median host-scaled wall time of SETUP_REPEATS fresh interpreters
    running setup(), each bracketed by calibration blocks."""
    code = ("import shutil, sys; sys.path.insert(0, %r); import run; "
            "shutil.rmtree(run.setup(%r, %d)[2])" % (HERE, name, seed))
    walls, scaled = [], []
    block = calibrate(SETUP_KERNELS)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        walls.append(perf_counter() - t0)
        before, block = block, calibrate(SETUP_KERNELS)
        scaled.append(walls[-1] * KERNEL_REF_S * 2 * SETUP_KERNELS
                      / (before + block))
    return statistics.median(scaled), walls


# --- one CLI call and its checks ---


class Outcome:
    def __init__(self, call, wall):
        self.call = call
        self.wall = wall
        self.kernel_s = None        # mean calibration kernel around the call
        self.failed = 0
        self.hist = Counter()       # failure cause -> operations
        self.problems = []          # correctness-gate messages
        self.output = b""

    def fail(self, cause, ops=1, problem=None):
        self.failed += ops
        self.hist[cause] += ops
        if problem:
            self.problems.append(problem)


def _exit_cause(rc, stderr):
    """Exception class behind a nonzero CLI exit, from its stderr line."""
    if isinstance(rc, str):
        return rc
    for line in stderr.splitlines():
        if line.startswith("numerical failure: "):
            return line.split(": ")[1]
        if line.startswith("config error: "):
            return "ConfigError"
    return f"exit{rc}"


def run_call(cli, call, tmp, tracer=None):
    out = os.path.join(tmp, "out")
    argv = call.argv + ["--out", out + (".json" if call.is_orbit else "")]
    err = io.StringIO()
    escaped = None
    t0 = perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call_op("cli.main", "cli", cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:    # escaped the CLI's own error handling
            rc = type(exc).__name__
            escaped = traceback.format_exc()
    outcome = Outcome(call, perf_counter() - t0)
    if escaped:
        print(f"{call.argv}:\n{escaped}", file=sys.stderr)
    if rc != 0:
        outcome.fail(_exit_cause(rc, err.getvalue()), call.ops)
        return outcome
    if call.is_orbit:
        _check_orbit(outcome, out + ".json")
    else:
        _check_scan(outcome, out)
    return outcome


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check_scan(outcome, out):
    call, ref = outcome.call, outcome.call.reference
    csv_bytes, json_bytes = _read(out + ".csv"), _read(out + ".json")
    outcome.output = csv_bytes + json_bytes
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    report = json.loads(json_bytes)
    n_ok = sum(r["status"] == "ok" for r in rows)
    if len(rows) != call.ops or report["n_ok"] != n_ok:
        outcome.fail("gate:report", call.ops,
                     f"{call.argv}: {len(rows)} rows, n_ok {report['n_ok']}")
        return
    for i, row in enumerate(rows):
        x = [float(row[f"x{j}"]) for j in range(6)]
        if any(abs(a - b) > INPUT_TOL * max(1.0, abs(b))
               for a, b in zip(x, ref["x"][i])):
            outcome.fail("gate:input", 1, f"{call.argv} row {i}: input "
                         "differs from the recorded page point")
            continue
        if row["status"] != "ok":
            outcome.fail(row["status"])
            continue
        fx = [float(row[f"fx{j}"]) for j in range(6)]
        rho = math.hypot(fx[2], fx[5])
        checks = [
            ("energy", abs(float(row["energy_error"])) <= ENERGY_TOL),
            ("page", fx[2] > 0.0 and abs(fx[5]) <= PAGE_TOL * rho),
            ("reference", ref["status"][i] != "ok" or max(
                abs(a - b) for a, b in zip(fx, ref["fx"][i])) <= FX_TOL),
        ]
        bad = [name for name, ok in checks if not ok]
        if bad:
            outcome.fail("gate:" + bad[0], 1,
                         f"{call.argv} row {i}: failed {', '.join(bad)}")


def _check_orbit(outcome, path):
    call = outcome.call
    outcome.output = _read(path)
    doc = json.loads(outcome.output)
    orbit = doc["orbit"]
    checks = [("residual", orbit["residual"] <= RESIDUAL_TOL),
              ("reciprocal", doc["reciprocal_pair_residual"]
               <= RECIPROCAL_TOL)]
    if call.mu == 0.0:
        period0 = 2.0 * math.pi * (-2.0 * call.c) ** -1.5
        checks.append(("period0",
                       abs(orbit["period"] - period0) <= PERIOD0_TOL))
    bad = [name for name, ok in checks if not ok]
    if bad:
        outcome.fail("gate:" + bad[0], 1,
                     f"mu={call.mu!r} c={call.c!r}: failed {', '.join(bad)}")


def check_repeat(cli, first, tmp):
    """Run the first call again; its CSV and JSON must be byte-identical.

    On a mismatch the first call's operations count as failed.
    """
    again = run_call(cli, first.call, tmp)
    if again.output != first.output or again.failed != first.failed:
        first.fail("gate:bytes", first.call.ops - first.failed,
                   f"{first.call.argv}: repeated run gave different bytes")


# --- the two kinds of run ---


def run_timed(cli, calls, tmp, seconds, kernels):
    """Closed loop over the calls, a calibration block between each two."""
    outcomes = []
    t0 = perf_counter()
    block = calibrate(kernels)
    for call in itertools.cycle(calls):
        if perf_counter() - t0 >= seconds:
            break
        outcome = run_call(cli, call, tmp)
        before, block = block, calibrate(kernels)
        outcome.kernel_s = (before + block) / (2 * kernels)
        outcomes.append(outcome)
    return outcomes


def end_to_end(outcomes, setup_s):
    attempted = sum(o.call.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    scaled = [o.wall * KERNEL_REF_S / o.kernel_s for o in outcomes]
    values = {
        "setup_s": setup_s,
        "ops_per_s": (attempted - failed) / sum(scaled),
        "op_s_p50": statistics.median(
            s / o.call.ops for s, o in zip(scaled, outcomes)),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def raw_timings(outcomes):
    """The unscaled wall-clock figures and the calibration kernel's time."""
    ok = sum(o.call.ops - o.failed for o in outcomes)
    kernel = [o.kernel_s for o in outcomes]
    return {
        "ops_per_s": ok / sum(o.wall for o in outcomes),
        "op_s_p50": statistics.median(o.wall / o.call.ops for o in outcomes),
        "kernel_s_p50": statistics.median(kernel),
        "kernel_s_min": min(kernel),
        "kernel_s_max": max(kernel),
    }


def run_traced(cli, name, calls, tmp, seconds):
    """Alternate untraced and traced passes over the first few calls."""
    import tracer as tr

    window = calls[:WORKLOAD_CFG[name]["window"]]
    ops = sum(c.ops for c in window)
    boundary = None if name == "shoot" else ("cli", "return_map")
    tracer = tr.Tracer(op_boundary=boundary)
    outcomes, passes, problems = [], [], []
    walls = {False: [], True: []}
    cpu0 = sum(os.times()[:4])
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        for traced in (False, True):
            if traced:
                with tracer:
                    tracer.reset()
                    done = [run_call(cli, c, tmp, tracer) for c in window]
                    metrics, fails = tr.pass_metrics(tracer, ops)
                passes.append(metrics)
                problems += fails
            else:
                done = [run_call(cli, c, tmp) for c in window]
            walls[traced].append(sum(o.wall for o in done))
            outcomes += done
    cpu = sum(os.times()[:4]) - cpu0
    metrics, fails = tr.combine_passes(passes)
    problems += fails
    metrics["proc.cpu_s"] = cpu / sum(o.call.ops for o in outcomes)
    metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0)
    absent = sorted(set(tr.PER_LAYER) - set(metrics))
    out = {k: {"value": v, "unit": tr.PER_LAYER[k][0]}
           for k, v in metrics.items()}
    info = {"passes": len(passes), "window_ops": ops, "absent": absent,
            "missing_targets": sorted(tracer.missing),
            "moves": {k: tr.PER_LAYER[k][3] for k in tr.PER_LAYER}}
    return outcomes, out, problems, info


# --- run record and reporting ---


def src_lines():
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_record(name, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sectionscope_threads": os.environ["SECTIONSCOPE_THREADS"],
        "loadavg_start": list(os.getloadavg()),
        "src_lines": src_lines(),
    }


def run_one(name, seed, seconds, trace):
    load_program()      # fail fast, before any set-up child is started
    record = run_record(name, seed, seconds, trace)
    if not trace:
        setup_s, setup_walls = measure_setup(name, seed)
    cli, calls, tmp = setup(name, seed)
    try:
        if trace:
            outcomes, metrics, problems, info = run_traced(
                cli, name, calls, tmp, seconds)
            record.update(info)
            check_repeat(cli, outcomes[0], tmp)
        else:
            calibrate(1)        # warm the kernel's code paths
            outcomes = run_timed(cli, calls, tmp, seconds,
                                 WORKLOAD_CFG[name]["kernels"])
            check_repeat(cli, outcomes[0], tmp)
            metrics = end_to_end(outcomes, setup_s)
            problems = []
            record["samples"] = {"setup_s": len(setup_walls),
                                 "op_s_p50": len(outcomes),
                                 "ops_per_s": len(outcomes)}
            record["setup_walls"] = setup_walls
            record["raw"] = raw_timings(outcomes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for o in outcomes:
        problems += o.problems
    hist = Counter()
    for o in outcomes:
        hist.update(o.hist)
    attempted = sum(o.call.ops for o in outcomes)
    record.update({
        "calls": len(outcomes),
        "failure_histogram": dict(sorted(hist.items())),
        "problems": problems[:20],
        "loadavg_end": list(os.getloadavg()),
    })
    result = {"correct": not problems, "attempted": attempted,
              "failed": sum(o.failed for o in outcomes), "metrics": metrics}
    return record, result


def print_summary(name, record, result, stream):
    print(f"[{name}] seed {record['seed']}, {record['calls']} CLI calls, "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}", file=stream)
    moves = record.get("moves", {})
    for key, m in result["metrics"].items():
        line = f"  {key:30s} {m['value']:<12.6g} {m['unit']:9s}"
        if key in moves:
            line += f"  moves {moves[key]}"
        print(line.rstrip(), file=stream)
    for key in record.get("absent", []):
        print(f"  {key:30s} absent (wrap target missing)", file=stream)
    if record["failure_histogram"]:
        print(f"  failures: {record['failure_histogram']}", file=stream)
    for p in record["problems"]:
        print(f"  problem: {p}", file=stream)


def run_all(seed, seconds, trace):
    """Each workload in its own process; prints every metric by name."""
    load_program()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        records[name] = record
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
        print_summary(name, record, result, sys.stdout)
    print(json.dumps({"records": records}))
    print(json.dumps(merged))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_threads()
    # on SIGTERM, unwind normally so temp dirs and children are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    record, result = run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print_summary(args.workload, record, result, sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
