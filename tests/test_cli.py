"""Command-line interface: exit codes, deterministic outputs, formats."""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from sectionscope.cli import config_hash, dumps_json, fmt_float, main


def run(argv):
    return main(argv)


def test_float_formatting_17_digits():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(-1.5) == "-1.5"


def test_dumps_json_sorted_and_stable():
    a = dumps_json({"b": 1.0, "a": [True, None, 2]})
    b = dumps_json({"a": [True, None, 2], "b": 1.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert config_hash({"x": 1}) == config_hash({"x": 1})
    assert config_hash({"x": 1}) != config_hash({"x": 2})


def test_lagrange_report(tmp_path):
    out = tmp_path / "lp.json"
    code = run(["lagrange", "--mu", "0.5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"]
    assert doc["config"] == {"mu": 0.5}
    assert len(doc["config_hash"]) == 16
    assert abs(doc["points"][0][0]) < 1e-10  # symmetric case: L1 at origin
    assert len(doc["points"]) == 5


def test_lagrange_rejects_degenerate_mu(capsys):
    assert run(["lagrange", "--mu", "0.0"]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_usage_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["lagrange", "--mu", "0.3", "--seed", "1"],
    ["continue", "--mu", "0.0", "--c", "-1.7", "--target", "2e-3",
     "--tol", "1e-9"],
])
def test_options_a_command_does_not_read_are_refused(argv):
    # lagrange draws nothing at random, and continue's Newton tolerance
    # is not --tol: each command takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1


def _exit_code(argv):
    """main's exit code, whether it returns it or argparse raises it."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    # these hung: a NaN start's step loop, NaN page states, a zero step
    ["integrate", "--state", "nan,0,0,0,0.9,0"],
    ["section-scan", "--mu", "1e-3", "--c", "nan", "--n", "2"],
    ["continue", "--mu", "0", "--c", "-1.7", "--target", "1e-2",
     "--step", "0"],
    # these printed a traceback
    ["integrate", "--state", "0.5,0,0,0,0.9,0", "--n", "-1"],
    ["section-scan", "--c", "-1.7", "--n", "-2"],
    ["section-scan", "--mode", "ellipsoid", "--ellipsoid-b", "-1"],
    ["find-orbit", "--c", "nan"],
    ["integrate", "--state", "1,2,x,4,5,6"],
    ["section-scan", "--c", "-1.7", "--seed", "-1"],
    # these ran on the bad value
    ["continue", "--mu", "0", "--c", "-1.7", "--target", "nan"],
    ["hill", "--c", "nan"],
    ["find-orbit", "--mu", "0", "--c", "-1.75", "--tol", "-1"],
    ["integrate", "--state", "0.5,0,0,0,0.9,0", "--tf", "inf"],
    # a bad state that starts with '-'
    ["integrate", "--state", "-0.5,0,0,x,0.9,0"],
    # bad negative values in scientific notation, each its own argument
    ["section-scan", "--c", "-1.7", "--pages", "-1e-1.5", "--n", "2"],
    ["find-orbit", "--mu", "0", "--c", "-1.75e"],
    ["find-orbit", "--mu", "0", "--c", "-1.75", "--tol", "-1e-10"],
])
def test_bad_input_exits_one_at_once(argv, capsys):
    t0 = time.perf_counter()
    assert _exit_code(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "--mu", "1e-3", "--state", "0.5,0,0,0,0.9,0", "--tf", "-2",
     "--n", "3"],
    ["section-scan", "--mu", "1e-3", "--c", "-1.7", "--n", "0"],
])
def test_backward_flight_and_empty_scan_run(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0


def test_byte_stable_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["lagrange", "--mu", "0.3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c", tmp_path / "d"
    for out in (c, d):
        code = run(["section-scan", "--mu", "0.0", "--c", "-1.7",
                    "--n", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
    assert (tmp_path / "c.csv").read_bytes() == \
        (tmp_path / "d.csv").read_bytes()
    assert (tmp_path / "c.json").read_bytes() == \
        (tmp_path / "d.json").read_bytes()


def test_hill_outputs(tmp_path):
    base = tmp_path / "hill"
    code = run(["hill", "--mu", "0.0121505856", "--c", "-1.6941705588302463",
                "--grid", "128", "--out", str(base)])
    assert code == 0
    doc = json.loads((tmp_path / "hill.json").read_text())
    assert doc["components"] == 3
    assert doc["bounded_components"] == 2
    lines = (tmp_path / "hill.csv").read_text().strip().splitlines()
    assert lines[0] == "q1,q2,U,inside"
    assert len(lines) == 128 * 128 + 1


@pytest.mark.parametrize("mu,grid,n_inf", [("0.5", "17", 2),
                                           ("0", "257", 1)])
def test_hill_grid_nodes_on_the_primaries(tmp_path, mu, grid, n_inf):
    # both grids have nodes on the primaries; only a primary with mass
    # makes U infinite, and the inside column is exactly U <= c
    base = tmp_path / "hill"
    code = run(["hill", "--mu", mu, "--c", "-1.6", "--grid", grid,
                "--out", str(base)])
    assert code == 0
    with open(tmp_path / "hill.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == int(grid) ** 2
    u = np.array([float(r["U"].strip('"')) for r in rows])
    inside = np.array([r["inside"] == "1" for r in rows])
    assert not np.isnan(u).any()
    assert np.sum(u == -np.inf) == n_inf
    assert np.array_equal(inside, u <= -1.6)


def test_integrate_jsonl(tmp_path):
    out = tmp_path / "traj.jsonl"
    code = run(["integrate", "--mu", "0.0",
                "--state", "1,0,0,0,1,0", "--tf", "6.283185307179586",
                "--n", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["chart_switches"] == 0
    assert header["energy"] == pytest.approx(-1.5, abs=1e-12)
    assert len(lines) == 21
    last = json.loads(lines[-1])
    assert last["state"][0] == pytest.approx(1.0, abs=1e-8)


def test_negative_leading_state_parses_in_both_spellings(tmp_path):
    # argparse reads a value that starts with '-' as an option, unless it
    # is a plain number; a state is a comma list
    outs = []
    for state in (["--state", "-0.5,0,0,0,0.9,0"],
                  ["--state=-0.5,0,0,0,0.9,0"]):
        outs.append(tmp_path / f"traj{len(outs)}.jsonl")
        assert run(["integrate", "--mu", "1e-3", *state, "--tf", "0.5",
                    "--n", "5", "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    header = json.loads(outs[0].read_text().splitlines()[0])
    assert header["config"]["state"] == [-0.5, 0.0, 0.0, 0.0, 0.9, 0.0]


@pytest.mark.parametrize("argv, option, value", [
    (["section-scan", "--mu", "1e-3", "--n", "2", "--seed", "3"], "--c",
     "-1.7e0"),
    (["section-scan", "--mu", "1e-3", "--c", "-1.7", "--n", "2", "--seed",
      "3"], "--pages", "-1e-1"),
    (["find-orbit", "--mode", "vertical", "--mu", "0"], "--c", "-1.75e0"),
])
def test_negative_values_parse_in_both_spellings(tmp_path, monkeypatch,
                                                 argv, option, value):
    # argparse reads a value that starts with '-' as an option unless it
    # is a plain negative decimal; every option that takes a value takes
    # it as its own argument as it does after '='.  Each spelling writes
    # to the same relative path, in its own directory
    sides = []
    for spelling in ([option, value], [f"{option}={value}"]):
        sides.append(tmp_path / str(len(sides)))
        sides[-1].mkdir()
        monkeypatch.chdir(sides[-1])
        assert run(argv + spelling + ["--out", "out"]) == 0
    names = sorted(p.name for p in sides[0].iterdir())
    assert names == sorted(p.name for p in sides[1].iterdir())
    for name in names:
        a, b = (side / name for side in sides)
        if argv[0] == "find-orbit":
            # the orbit records its command line as it was typed
            docs = [json.loads(p.read_text()) for p in (a, b)]
            lines = [doc["orbit"].pop("command_line") for doc in docs]
            assert lines[0].replace(f"{option} {value}",
                                    f"{option}={value}") == lines[1]
            assert dumps_json(docs[0]) == dumps_json(docs[1])
        else:
            assert a.read_bytes() == b.read_bytes()


def test_bad_negative_value_exits_one_at_the_parser(capsys):
    # a joined value is still checked by its option's type
    with pytest.raises(SystemExit) as exc:
        run(["section-scan", "--c", "-1.7e0x", "--n", "2"])
    assert exc.value.code == 1
    assert "argument --c: invalid finite value: '-1.7e0x'" in \
        capsys.readouterr().err


def test_integrate_requires_state(capsys):
    assert run(["integrate", "--mu", "0.0"]) == 1


def test_section_scan_report(tmp_path):
    base = tmp_path / "scan"
    code = run(["section-scan", "--mu", "0.0", "--c", "-1.7", "--n", "5",
                "--seed", "1", "--out", str(base)])
    assert code == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["n_ok"] + doc["n_failed"] == 5
    if doc["n_ok"]:
        # integrable mass ratio: the leaf label is carried exactly
        assert doc["max_leaf_delta"] < 1e-6
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0].startswith("index,x0")
    assert len(lines) == 6


def test_section_scan_ellipsoid_mode(tmp_path):
    out = tmp_path / "ell.json"
    code = run(["section-scan", "--mode", "ellipsoid", "--ellipsoid-b",
                "2.0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rotation_error"] < 1e-8


def test_find_orbit_vertical(tmp_path):
    out = tmp_path / "orbit.json"
    code = run(["find-orbit", "--mode", "vertical", "--mu", "0.0",
                "--c", "-1.7", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    orb = doc["orbit"]
    assert orb["residual"] < 1e-10
    assert orb["period"] == pytest.approx(1.0022163715043540, abs=1e-8)
    assert orb["symmetry"] == "vertical-collision"
    assert doc["reciprocal_pair_residual"] < 1e-5
    assert "find-orbit" in orb["command_line"]


def test_find_orbit_planar_symmetric_reports_residual_and_closure(tmp_path):
    # residual is the Newton criterion |p1| at the half orbit, which meets
    # --tol; closure is the full period's |x(T) - x|, which need not
    out = tmp_path / "orbit.json"
    code = run(["find-orbit", "--mode", "planar-symmetric", "--mu", "0",
                "--c", "-1.5", "--q1", "0.3", "--tol", "1e-11",
                "--out", str(out)])
    assert code == 0
    orb = json.loads(out.read_text())["orbit"]
    assert orb["residual"] < 1e-11
    assert orb["residual"] == orb["newton_history"][-1]
    assert 0.0 < orb["closure"] < 1e-9
    assert orb["symmetry"] == "symmetric-x-axis"


@pytest.mark.parametrize("c", ["-0.6", "-0.62"])
def test_find_orbit_trial_off_the_page_is_not_a_config_error(tmp_path, c):
    # an Armijo trial that page_embed places on the opposite page is a
    # failed trial: the search may close or stall, but the input is valid
    code = run(["find-orbit", "--mode", "vertical", "--mu", "0.1", "--c", c,
                "--out", str(tmp_path / "orbit.json")])
    assert code in (0, 3)


def test_continue_family(tmp_path):
    out = tmp_path / "family.json"
    code = run(["continue", "--mu", "0.0", "--c", "-1.7", "--param", "mu",
                "--target", "2e-3", "--step", "1e-3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_members"] == 3
    assert doc["members"][-1]["mu"] == pytest.approx(2e-3, abs=1e-15)


def test_continue_stops_at_the_integration_floor(tmp_path, capsys):
    # near c = -1.55 the closure cannot go below about 1.3e-11 at
    # integrator tol 1e-12; a shorter step would not help, so the run stops
    # at the first such stall instead of halving down to a FoldDetected
    t0 = time.perf_counter()
    code = run(["continue", "--mu", "0", "--c", "-1.7", "--param", "c",
                "--target", "-1.4", "--step", "2e-2",
                "--out", str(tmp_path / "family.json")])
    assert time.perf_counter() - t0 < 5.0
    assert code == 3
    assert "IntegrationFloorError" in capsys.readouterr().err


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--seed", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["failures"] == []
    assert doc["transversality_min"] > 0


def test_console_script_version():
    res = subprocess.run([sys.executable, "-m", "sectionscope.cli",
                          "--version"], capture_output=True, text=True)
    assert res.returncode == 0


def test_commands_but_hill_import_no_scipy(tmp_path):
    # brentq, the bounded minimizer and the DOP853 tableau are the
    # package's own, so only hill loads scipy in a fresh process
    calls = [
        ["lagrange", "--mu", "0.3"],
        ["integrate", "--mu", "1e-3", "--state",
         "0.001,0,0.58794536965218558,0,0.001,0", "--tf", "1", "--n", "5"],
        ["section-scan", "--mu", "1e-3", "--c", "-1.7", "--n", "1"],
        ["find-orbit", "--mode", "vertical", "--mu", "3e-3", "--c", "-1.72"],
        ["continue", "--mu", "0", "--c", "-1.7", "--param", "mu",
         "--target", "2e-3", "--step", "1e-3"],
        ["verify", "--seed", "0"],
    ]
    code = (f"import sys\n"
            f"from sectionscope.cli import main\n"
            f"for k, argv in enumerate({calls!r}):\n"
            f"    out = {str(tmp_path)!r} + f'/call{{k}}'\n"
            f"    assert main(argv + ['--out', out]) == 0, argv\n"
            f"print('scipy' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_interleaved_calls_match_fresh_runs(tmp_path):
    # main reuses one parser for every call in a process
    calls = [
        ["section-scan", "--mu", "1e-3", "--c", "-1.7", "--n", "3",
         "--seed", "2"],
        ["find-orbit", "--mode", "vertical", "--mu", "0.0", "--c", "-1.7"],
        ["lagrange", "--mu", "0.3"],
        ["section-scan", "--n", "not-a-number"],
    ]

    def outputs(k):
        return {p.name: p.read_bytes()
                for p in sorted(tmp_path.glob(f"call{k}*"))}

    fresh = []
    for k, argv in enumerate(calls):
        res = subprocess.run([sys.executable, "-m", "sectionscope.cli",
                              *argv, "--out", str(tmp_path / f"call{k}")],
                             capture_output=True)
        fresh.append((res.returncode, outputs(k)))
        for p in tmp_path.glob(f"call{k}*"):
            p.unlink()
    for k in (0, 3, 1, 2, 3, 0, 2, 1):
        argv = calls[k] + ["--out", str(tmp_path / f"call{k}")]
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, outputs(k)) == fresh[k]
