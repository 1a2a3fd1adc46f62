"""Command-line interface: lagrange, hill, integrate, section-scan,
find-orbit, continue, verify.

Exit codes: 0 success, 1 configuration error, 2 assumption/verification
failure, 3 numerical failure.  All outputs embed the library version and
a hash of the effective configuration; floats are printed with 17
significant digits so files are byte-stable for a fixed seed.
"""

import argparse
import functools
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .cr3bp import (EARTH_MOON_MU, check_assumptions, cr3bp_stark_zeeman,
                    hill_components, lagrange_points, sample_page_states,
                    sample_shell_states, validate_mu)
from .errors import ConfigError, SectionScopeError
from .flows import IntegratorConfig, integrate
from .orbits import (continue_family, find_periodic_point,
                     find_symmetric_planar_orbit, floquet_multipliers,
                     reciprocal_pair_residual, vertical_seed)
from .regularize import kepler_oracles, stereo_to_chart, chart_to_stereo
# return_map stays bound here: perfbench/tracer.py wraps cli.return_map
from .sections import (SectionSpec, ellipsoid_page_rotation,
                       leaf_label_physical, return_map, return_map_many,
                       transversality_value)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


# --- deterministic serialization ---


def fmt_float(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % repr(x)
    return format(float(x), ".17g")


def dumps_json(obj, indent=0):
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append('%s"%s": %s' % (pad_in, k,
                                         dumps_json(obj[k], indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad_in + dumps_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, complex):
        return dumps_json([obj.real, obj.imag], indent)
    return '"%s"' % str(obj).replace("\\", "\\\\").replace('"', '\\"')


def config_hash(cfg_dict):
    return hashlib.sha256(dumps_json(cfg_dict).encode()).hexdigest()[:16]


def write_report(path, config, payload):
    doc = dict(payload)
    doc["version"] = __version__
    doc["config"] = config
    doc["config_hash"] = config_hash(config)
    _write_text(path, dumps_json(doc) + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            fmt_float(v) if isinstance(v, (float, np.floating))
            else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- commands ---


def cmd_lagrange(args):
    validate_mu(args.mu, strict=True)
    lp = lagrange_points(args.mu)
    config = {"mu": args.mu}
    payload = {
        "points": [list(map(float, p)) for p in lp.points],
        "energies": list(map(float, lp.energies)),
        "gradient_norms": list(map(float, lp.gradient_norms)),
        "ordering_ok": bool(lp.ordering_ok),
    }
    write_report(args.out, config, payload)
    if args.mu < 0.5 and not lp.ordering_ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_hill(args):
    if args.c is None:
        raise ConfigError("hill requires --c")
    validate_mu(args.mu)
    n = args.grid
    comp = hill_components(args.c, args.mu, n=n)
    base = args.out or "hill"
    if args.out in (None, "-"):
        csv_path = "-"
        json_path = "-"
    else:
        csv_path = base + ".csv"
        json_path = base + ".json"
    # one row per grid node, q2 fastest; U at a primary is a bare -inf
    fmt = "{:.17g}".format
    q1s, q2s = ([fmt(v) for v in axis.tolist()] for axis in comp.axes)
    cells = zip(((a, b) for a in q1s for b in q2s),
                comp.potential.ravel().tolist(),
                (comp.labels.ravel() > 0).tolist())
    _write_text(csv_path, "".join(
        ["q1,q2,U,inside\n"]
        + [f"{a},{b},{u:.17g},{i:d}\n" for (a, b), u, i in cells]))
    config = {"mu": args.mu, "c": args.c, "grid": n}
    write_report(json_path, config, {
        "components": comp.count,
        "bounded_components": comp.bounded_count,
        "unbounded_labels": list(map(int, comp.unbounded)),
    })
    return EXIT_OK


def cmd_integrate(args):
    validate_mu(args.mu)
    if args.state is None:
        raise ConfigError("integrate requires --state q1,q2,q3,p1,p2,p3")
    x = args.state
    cfg = IntegratorConfig(tol=args.tol, max_time=max(args.tf * 2.0, 10.0))
    traj = integrate(x, args.mu, cfg, args.tf)
    config = {"mu": args.mu, "state": [float(v) for v in x],
              "tf": args.tf, "tol": args.tol}
    lines = []
    for t in np.linspace(traj.t0, traj.t_end, args.n):
        row = {"t": float(t), "state": [float(v) for v in traj.state(t)]}
        lines.append(dumps_json(row).replace("\n", "").replace("  ", ""))
    header = dumps_json({"version": __version__, "config": config,
                         "config_hash": config_hash(config),
                         "energy": float(traj.energy),
                         "energy_drift": float(traj.energy_drift()),
                         "chart_switches": traj.chart_switches}
                        ).replace("\n", "").replace("  ", "")
    _write_text(args.out, header + "\n" + "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_section_scan(args):
    if args.mode == "ellipsoid":
        a, b = 1.0, args.ellipsoid_b
        rot = ellipsoid_page_rotation(a, b)
        config = {"mode": "ellipsoid", "a": a, "b": b}
        write_report(args.out, config, {
            "rotation": float(rot),
            "expected": float(2.0 * math.pi * a / b),
            "rotation_error": float(abs(rot - 2.0 * math.pi * a / b)),
        })
        return EXIT_OK
    validate_mu(args.mu)
    if args.c is None:
        raise ConfigError("section-scan requires --c")
    cfg = IntegratorConfig(tol=args.tol, max_time=50.0)
    spec = SectionSpec(theta=args.pages)
    rng = np.random.default_rng(args.seed)
    component = "earth" if args.mu == 0.0 else args.component
    pts = sample_page_states(args.mu, args.c, args.n, rng,
                             component=component)

    def failed(idx, exc):
        return (idx, *pts[idx], *([float("nan")] * 6), float("nan"), 0,
                float("nan"), float("nan"), float("nan"), 0,
                type(exc).__name__)

    # a row's status is the first error of its point: z0, return, z1
    rows = [None] * len(pts)
    z0 = {}
    for idx, x in enumerate(pts):
        try:
            z0[idx] = leaf_label_physical(x, args.mu)
        except SectionScopeError as exc:
            rows[idx] = failed(idx, exc)
    ids = list(z0)
    samples = return_map_many([pts[i] for i in ids], args.mu, c=args.c,
                              cfg=cfg, spec=spec)
    for idx, s in zip(ids, samples):
        try:
            if isinstance(s, SectionScopeError):
                raise s
            z1 = leaf_label_physical(s.fx, args.mu)
        except SectionScopeError as exc:
            rows[idx] = failed(idx, exc)
        else:
            rows[idx] = (idx, *pts[idx], *s.fx, s.tau, s.crossings,
                         s.energy - args.c, abs(z1 - z0[idx]),
                         s.binding_min, int(s.binding_warning), "ok")
    header = (["index"] + [f"x{i}" for i in range(6)]
              + [f"fx{i}" for i in range(6)]
              + ["tau", "crossings", "energy_error", "leaf_delta",
                 "binding_min", "binding_warning", "status"])
    base = args.out
    csv_path = "-" if base in (None, "-") else base + ".csv"
    json_path = "-" if base in (None, "-") else base + ".json"
    write_csv(csv_path, header, rows)
    ok_rows = [r for r in rows if r[-1] == "ok"]
    deltas = [r[16] for r in ok_rows]
    config = {"mu": args.mu, "c": args.c, "n": args.n, "seed": args.seed,
              "pages": args.pages, "tol": args.tol, "mode": "cr3bp",
              "component": component}
    write_report(json_path, config, {
        "n_ok": len(ok_rows),
        "n_failed": len(rows) - len(ok_rows),
        "max_leaf_delta": float(max(deltas)) if deltas else None,
        "min_leaf_delta": float(min(deltas)) if deltas else None,
    })
    return EXIT_OK


def cmd_find_orbit(args):
    validate_mu(args.mu)
    if args.c is None:
        raise ConfigError("find-orbit requires --c")
    cfg = IntegratorConfig(max_time=50.0)
    if args.mode == "vertical":
        seed = vertical_seed(args.mu, args.c)
        orbit = find_periodic_point(seed, k=1, mu=args.mu, c=args.c,
                                    cfg=cfg, tol=args.tol)
    elif args.mode == "planar-symmetric":
        if args.q1 is None:
            raise ConfigError("planar-symmetric mode requires --q1")
        orbit = find_symmetric_planar_orbit(args.c, args.mu, args.q1,
                                            branch=args.branch, cfg=cfg,
                                            tol=args.tol)
    else:
        raise ConfigError(f"unknown find-orbit mode {args.mode!r}")
    mult = floquet_multipliers(orbit)
    orbit.floquet = mult
    orbit.command_line = "sectionscope " + " ".join(args.argv)
    config = {"mu": args.mu, "c": args.c, "mode": args.mode,
              "tol": args.tol}
    write_report(args.out, config, {
        "orbit": orbit.to_json(),
        "reciprocal_pair_residual": float(reciprocal_pair_residual(mult)),
    })
    return EXIT_OK


def cmd_continue(args):
    validate_mu(args.mu)
    if args.c is None:
        raise ConfigError("continue requires --c")
    cfg = IntegratorConfig(max_time=50.0)
    seed = vertical_seed(args.mu, args.c)
    orbit = find_periodic_point(seed, k=1, mu=args.mu, c=args.c, cfg=cfg)
    members = continue_family(orbit, args.param, args.target, args.step,
                              cfg=cfg)
    config = {"mu": args.mu, "c": args.c, "param": args.param,
              "target": args.target, "step": args.step}
    write_report(args.out, config, {
        "n_members": len(members),
        "members": [m.to_json() for m in members],
    })
    return EXIT_OK


def cmd_verify(args):
    validate_mu(args.mu)
    tol = args.tol
    report = {}
    failures = []
    rng = np.random.default_rng(args.seed)

    # chart round trips on T*S^3
    worst = 0.0
    for _ in range(500):
        x = rng.normal(size=3) * 2.0
        y = rng.normal(size=3) * 2.0
        xi, eta = chart_to_stereo(x, y)
        x2, y2 = stereo_to_chart(xi, eta)
        worst = max(worst, float(np.max(np.abs(x2 - x))),
                    float(np.max(np.abs(y2 - y))))
    report["chart_roundtrip_max_error"] = worst
    if worst > tol:
        failures.append("chart_roundtrip")

    # Kepler closed-form oracles
    kr = kepler_oracles(seed=args.seed)
    report["kepler_planarity_residual"] = float(kr.k_flow_planarity)
    report["kepler_period_spread"] = float(kr.lc_period_spread)
    report["kepler_equator_residual"] = float(kr.circular_max_xi0)
    if not kr.passed:
        failures.append("kepler_oracles")

    # structural assumptions of the two primary-centered systems
    mu = args.mu if 0.0 < args.mu < 1.0 else 0.5
    for name in ("moon", "earth"):
        sys_ = cr3bp_stark_zeeman(mu, -1.8, name)
        rep = check_assumptions(sys_, samples=100, seed=args.seed)
        report[f"assumptions_{name}_passed"] = bool(rep.passed)
        report[f"assumptions_{name}_min_F"] = float(rep.min_F)
        if not rep.passed:
            failures.append(f"assumptions_{name}")

    # transversality sampling on a bounded component
    if 0.0 < mu < 1.0:
        lp = lagrange_points(mu)
        c = lp.energies[0] - 0.02
        pts = sample_shell_states(mu, c, 200, rng, component="moon",
                                  min_primary_dist=0.03)
        tv = [transversality_value(x, mu) for x in pts
              if x[2] ** 2 + x[5] ** 2 > 1e-12]
        report["transversality_min"] = float(min(tv))
        if min(tv) <= 0:
            failures.append("transversality")

    report["passed"] = not failures
    report["failures"] = failures
    config = {"mu": args.mu, "seed": args.seed, "tol": tol}
    write_report(args.out, config, report)
    return EXIT_OK if not failures else EXIT_VERIFY


def finite(text):
    """A float option's value: a finite number.  argparse turns the
    ValueError of these option types into a usage error (exit 1)."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(text)
    return v


def positive(text):
    """A finite float option that must exceed 0."""
    v = finite(text)
    if not v > 0:
        raise ValueError(text)
    return v


def count(text):
    """An int option that must not be negative."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def state(text):
    """--state: six finite numbers, comma-separated."""
    vals = [finite(v) for v in text.split(",")]
    if len(vals) != 6:
        raise ValueError(text)
    return np.array(vals)


def build_parser():
    p = argparse.ArgumentParser(
        prog="sectionscope",
        description="CR3BP open-book return maps and periodic-orbit search")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, c=False, tol=None, seed=False):
        """--mu and --out, and those of --c, --tol (with its default) and
        --seed that the command reads."""
        sp.add_argument("--mu", type=finite, default=EARTH_MOON_MU)
        sp.add_argument("--out", type=str, default=None)
        if c:
            sp.add_argument("--c", type=finite, default=None)
        if tol is not None:
            sp.add_argument("--tol", type=positive, default=tol)
        if seed:
            sp.add_argument("--seed", type=count, default=0)

    sp = sub.add_parser("lagrange", help="Lagrange points and energies")
    common(sp)
    sp.set_defaults(fn=cmd_lagrange)

    sp = sub.add_parser("hill", help="Hill-region grid and components")
    common(sp, c=True)
    sp.add_argument("--grid", type=int, default=256)
    sp.set_defaults(fn=cmd_hill)

    sp = sub.add_parser("integrate", help="integrate a trajectory (JSONL)")
    common(sp, tol=1e-12)
    sp.add_argument("--state", type=state, default=None)
    sp.add_argument("--tf", type=finite, default=10.0)
    sp.add_argument("--n", type=count, default=200)
    sp.set_defaults(fn=cmd_integrate)

    sp = sub.add_parser("section-scan", help="return-map scan (CSV+JSON)")
    common(sp, c=True, tol=1e-10, seed=True)
    sp.add_argument("--n", type=count, default=100)
    sp.add_argument("--pages", type=finite, default=0.0,
                    help="page angle theta")
    sp.add_argument("--mode", type=str, default="cr3bp",
                    choices=("cr3bp", "ellipsoid"))
    sp.add_argument("--component", type=str, default="earth",
                    choices=("earth", "moon"))
    sp.add_argument("--ellipsoid-b", type=positive, default=2.0)
    sp.set_defaults(fn=cmd_section_scan)

    sp = sub.add_parser("find-orbit", help="periodic-orbit search")
    common(sp, c=True, tol=1e-10)
    sp.add_argument("--mode", type=str, default="vertical",
                    choices=("vertical", "planar-symmetric"))
    sp.add_argument("--q1", type=finite, default=None)
    sp.add_argument("--branch", type=int, default=-1, choices=(-1, 1))
    sp.set_defaults(fn=cmd_find_orbit)

    sp = sub.add_parser("continue", help="natural-parameter continuation")
    common(sp, c=True)
    sp.add_argument("--param", type=str, default="mu", choices=("mu", "c"))
    sp.add_argument("--target", type=finite, required=True)
    sp.add_argument("--step", type=positive, default=1e-3)
    sp.set_defaults(fn=cmd_continue)

    sp = sub.add_parser("verify", help="invariant suites report")
    common(sp, tol=1e-12, seed=True)
    sp.set_defaults(fn=cmd_verify)

    return p


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process: parse_args leaves it unchanged
    and returns a fresh Namespace on every call."""
    return build_parser()


@functools.lru_cache(maxsize=1)
def _valued_options():
    """The option strings, of every command, that take a value."""
    out, parsers = set(), [_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and action.nargs != 0:
                out.update(action.option_strings)
    return out


def _joined_values(argv):
    """argv with each option that takes a value and is followed by an
    argument V written as ``--opt=V`` where V starts with '-': argparse
    reads such a V as an option unless it is a plain negative decimal, so
    ``--c -1.7e0`` and ``--state -0.5,0,0,0,0.9,0`` would not parse."""
    out = []
    for arg in argv:
        if out and out[-1] in _valued_options() and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_joined_values(argv))
    except SystemExit as exc:
        # argparse uses code 2 for bad usage; remap to the config exit code
        if exc.code not in (0, None):
            raise SystemExit(EXIT_CONFIG)
        raise
    args.argv = argv
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SectionScopeError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
