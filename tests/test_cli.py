"""End-to-end command line runs, in process via main(argv)."""

import argparse
import json
import math
import os
import random
import resource
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import amenspec
from amenspec import (AmenabilityVerdict, __version__, fingerprint, fusion, semidirect,
                      spectral, spectral_radius, walks)
from amenspec.cli import _COMMANDS, CONFIG_ENV, _as_bool, _build_parser, _flags, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def cyclic3_obj(**overrides):
    mult = [[[1 if k == (i + j) % 3 else 0 for k in range(3)]
             for j in range(3)] for i in range(3)]
    obj = {"kind": "table", "labels": ["e", "g", "h"], "dims": [1, 1, 1],
           "conj": ["e", "h", "g"], "fusion": mult}
    obj.update(overrides)
    return obj


# -- happy paths --------------------------------------------------------------


def test_fusion_command(capsys):
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "2",
                    "--trunc", "64", "--omega", "a1")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["command"] == "fusion"
    assert rep["version"] == __version__
    assert rep["config"]["trunc"] == 64
    assert rep["config"]["N"] == 2
    assert rep["verdict"]["certified"] is True
    assert rep["verdict"]["target"] == 2.0
    assert rep["operator"]["size"] == 64
    assert "wall_time_s" not in rep
    assert set(rep) == {"schema", "version", "command", "config", "operator",
                        "spectral", "verdict"}
    assert set(rep["spectral"]) == {"radius_estimate", "radius_lower_bound",
                                    "radius_upper_bound",
                                    "top_eigenvalues", "iterations", "converged", "stop",
                                    "reorthogonalized", "truncation_trace", "method"}


def test_walk_command_with_csv(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    code, rep = run(capsys, "walk", "--group", "F:2", "--radius", "3",
                    "--csv", str(csv))
    assert code == 0
    assert rep["verdict"]["certified"] is False
    assert rep["config"]["group"] == "F:2"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "size,radius_estimate"
    sizes = [int(l.split(",")[0]) for l in lines[1:]]
    assert sizes == [5, 17, 53]


def test_semidirect_command(capsys):
    code, rep = run(capsys, "semidirect", "--interval", "0:1",
                    "--grid", "0.25:16")
    assert code == 0
    assert rep["verdict"]["target"] == 1.0 / (2.0 * math.pi)
    assert rep["config"]["witness_m"] == [2.0, 4.0, 8.0]
    assert "band-8" in rep["verdict"]["notes"]["witness_residuals"]


def test_semidirect_witness_flag(capsys):
    code, rep = run(capsys, "semidirect", "--interval", "0:1",
                    "--grid", "0.25:8", "--witness-m", "1,2")
    assert code == 0
    per = rep["verdict"]["notes"]["witness_residuals"]
    assert set(per) == {"band-1", "band-2"}


def test_bicrossed_command(capsys):
    code, rep = run(capsys, "bicrossed", "--bound", "5", "--shift", "1,0")
    assert code == 0
    assert rep["verdict"]["notes"]["window"] == [[-1, 0], [0, 1]]
    assert rep["verdict"]["target"] == 4.0
    assert rep["verdict"]["notes"]["bounds"] == [5]


def test_sweep_command_csv_matches_closed_form(capsys, tmp_path):
    csv = tmp_path / "sweep.csv"
    code, rep = run(capsys, "sweep", "--ring", "free-su2", "--N", "2",
                    "--omega", "a1", "--sizes", "8,16,32", "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "size,radius_estimate"
    for line in lines[1:]:
        s, r = line.split(",")
        assert abs(float(r) - 2.0 * math.cos(math.pi / (int(s) + 1))) < 1e-8
    assert rep["spectral"]["method"] == "sweep"


def test_a_bracket_stop_reports_its_refined_eigenvalue_alone(capsys, tmp_path):
    # the second Ritz value of the 16-step run is 1.9614, the second
    # eigenvalue of the path 2cos(2 pi/2001) = 1.99998: only the top is refined
    csv = tmp_path / "eigen.csv"
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "3", "--omega", "a1",
                    "--trunc", "2000", "--csv", str(csv))
    spectral = rep["spectral"]
    assert (code, spectral["stop"]) == (0, "bracket")
    assert spectral["top_eigenvalues"] == [spectral["radius_estimate"]]
    assert csv.read_text() == f"index,eigenvalue\n0,{spectral['radius_estimate']}\n"


def test_reports_do_not_depend_on_the_blas_thread_count():
    # amenspec sets unset BLAS thread counts to 1 before numpy loads; with two
    # threads this walk's dot products summed in another order, and its
    # radius_estimate and reorthogonalized count moved
    src = Path(amenspec.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in (CONFIG_ENV, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    argv = [sys.executable, "-m", "amenspec.cli", "walk", "--group", "F:2", "--radius", "8",
            "--weight", "a=1", "--weight", "A=1"]
    outs = [subprocess.run(argv, env={**env, "PYTHONPATH": str(src), **threads},
                           capture_output=True, text=True, timeout=120, check=True).stdout
            for threads in ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                 "MKL_NUM_THREADS": "1"})]
    assert outs[0] == outs[1] and one_json_object(outs[0])


@pytest.mark.parametrize("argv, stop", [
    # the path of bandwidth 1 is handed to the bracket finish at step 16
    (("fusion", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--trunc", "2000"),
     "bracket"),
    (("walk", "--group", "Z^d:2", "--radius", "20"), "residual"),
    (("walk", "--group", "F:2", "--radius", "3"), "closure"),
    # the report is that of the 1000-label block, whose 500 main eigenvalues
    # would outlast the budget of 300 steps; the bracket closes at step 16
    (("sweep", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--sizes", "50,1000"),
     "bracket"),
])
def test_reports_say_why_the_solve_stopped(capsys, argv, stop):
    code, rep = run(capsys, *argv)
    assert code == 0
    assert rep["spectral"]["stop"] == stop
    assert rep["spectral"]["converged"] == (stop != "budget")
    if stop == "closure":    # the closing step stops before its Gram-Schmidt pass
        assert rep["spectral"]["reorthogonalized"] == 0
    else:
        assert 0 < rep["spectral"]["reorthogonalized"] < rep["spectral"]["iterations"]


def test_sweep_of_a_window_not_closed_under_conjugation_is_an_input_error(capsys, tmp_path):
    # omega g on the cyclic ring: its size-2 block [[0, 0], [1, 0]] is
    # nilpotent, radius 0, which a symmetric solve would report as 0.7071
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(cyclic3_obj()))
    code, rep = run(capsys, "sweep", "--ring", str(path), "--omega", "g", "--sizes", "2,3")
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "symmetric" in rep["error"]["message"]


def test_sweep_builds_each_truncation_once(capsys, monkeypatch):
    built = []
    window_operator = fusion.window_operator

    def recording(ring, omega, trunc):
        built.append(trunc)
        return window_operator(ring, omega, trunc)

    monkeypatch.setattr(fusion, "window_operator", recording)
    code, rep = run(capsys, "sweep", "--ring", "free-su2", "--N", "3",
                    "--omega", "a1", "--sizes", "50,100,200,400")
    assert code == 0 and rep["operator"]["size"] == 400
    assert built == [400]


def test_validate_command_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cyclic3_obj()))
    code, rep = run(capsys, "validate", str(good))
    assert code == 0
    assert rep["all_passed"] is True
    assert len(rep["axioms"]) == 6

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cyclic3_obj(conj=["e", "g", "g"])))
    code, rep = run(capsys, "validate", str(broken))
    assert code == 0                      # the run completed; the ring failed
    assert rep["all_passed"] is False
    failed = [r["axiom"] for r in rep["axioms"] if not r["passed"]]
    assert "conjugation involution" in failed

    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps(cyclic3_obj(dims=[1, 2, 2])))
    code, rep = run(capsys, "validate", str(dims))
    assert code == 0
    assert [r["axiom"] for r in rep["axioms"] if not r["passed"]] == [
        "dimension homomorphism"]


def test_output_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["walk", "--group", "Z^d:1", "--radius", "4",
                 "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1 and rep["command"] == "walk"


def test_verdict_commands_build_and_solve_each_operator_once(capsys, monkeypatch):
    solves, builds = [], []
    lanczos = spectral._lanczos

    def counting_lanczos(op, tol, steps):
        solves.append((op, tol, steps))
        return lanczos(op, tol, steps)

    def counting(name, build):
        def wrapped(*args, **kwargs):
            builds.append(name)
            return build(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spectral, "_lanczos", counting_lanczos)
    monkeypatch.setattr(fusion, "window_operator",
                        counting("window", fusion.window_operator))
    monkeypatch.setattr(semidirect, "interval_operator",
                        counting("interval", semidirect.interval_operator))
    for argv, built in ((("fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64",
                          "--omega", "a1"), ["window"]),
                        (("semidirect", "--interval", "0:1", "--grid", "0.25:16"),
                         ["interval"])):
        solves.clear()
        builds.clear()
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["spectral"]["iterations"] > 0
        assert builds == built, argv
        keys = [(id(op), tol, steps) for op, tol, steps in solves]
        assert len(keys) == len(set(keys)), argv


def _shift_window(config):
    """The bicrossed window of config's shift: the pair and its negation."""
    r, rp = config["shift"]
    return sorted({semidirect.canonical_pair(r, rp), semidirect.canonical_pair(-r, -rp)})


def _rebuilt_operator(cmd, config):
    """The operator a command reports on, rebuilt from its config echo."""
    if cmd in ("fusion", "sweep"):
        size = config["trunc"] if cmd == "fusion" else config["sizes"][-1]
        return fusion.window_operator(fusion.free_su2_ring(config["N"], config["level"]),
                                      config["omega"], size)
    if cmd == "semidirect":
        return semidirect.interval_operator(semidirect.half_line_grid(*config["grid"]),
                                            *config["interval"])
    if cmd == "walk":
        group = walks.parse_group(config["group"])
        weights = config["weight"] or {nm: 1.0 for nm in group.generator_names}
        return walks.cayley_operator(group, weights, walks.build_ball(group, config["radius"]))
    return semidirect.pair_window_operator(semidirect.pair_lattice(config["bound"][-1]),
                                           _shift_window(config))


@pytest.mark.parametrize("argv", [
    ("fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64", "--omega", "a1"),
    ("semidirect", "--interval", "0:1", "--grid", "0.25:16"),
    ("semidirect", "--interval", "0.5:0.5", "--grid", "0.25:16"),
    ("walk", "--group", "F:2", "--radius", "3", "--weight", "a=1", "--weight", "A=1"),
    ("bicrossed", "--bound", "3,5", "--shift", "0,1", "--seed", "11"),
])
def test_spectral_block_is_the_solve_of_the_reported_operator(capsys, argv):
    code, rep = run(capsys, *argv)
    assert code == 0
    op = _rebuilt_operator(argv[0], rep["config"])
    assert fingerprint(op) == rep["operator"]
    assert rep["spectral"] == spectral_radius(op).to_dict()


# -- reports against dense eigensolves ------------------------------------------


def _rule_dims(N, k):
    """d_0 .. d_k of the free-su2 rule: d_j+1 = N d_j - d_j-1, exact."""
    d = [Fraction(1), Fraction(N)]
    while len(d) <= k:
        d.append(Fraction(N) * d[-1] - d[-2])
    return d


def _ball_count(group, r):
    """Elements of the radius-r word ball, in closed form."""
    kind, rank = group.split(":")
    k = int(rank)
    if kind == "Z^d":
        return sum(2 ** j * math.comb(k, j) * math.comb(r, j) for j in range(k + 1))
    return 2 * r + 1 if k == 1 else 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)


@st.composite
def small_commands(draw):
    """(argv, closed-form target) of a command on an operator of at most 300 points."""
    cmd = draw(st.sampled_from(["fusion", "sweep", "walk", "semidirect", "bicrossed"]))
    if cmd in ("fusion", "sweep"):
        N = draw(st.sampled_from([2, 2.5, 3, 7]))
        window = draw(st.lists(st.sampled_from(["a0", "a1", "a2", "a3"]), min_size=1,
                               max_size=3, unique=True))
        dims = _rule_dims(N, 3)
        target = float(sum(dims[int(a[1:])] for a in window))
        ring = ["--ring", "free-su2", "--N", repr(N), "--omega", ",".join(window)]
        if cmd == "fusion":
            trunc = draw(st.integers(8, 300))
            return [cmd, *ring, "--trunc", str(trunc)], target
        sizes = draw(st.lists(st.integers(4, 300), min_size=1, max_size=3, unique=True))
        return [cmd, *ring, "--sizes", ",".join(map(str, sorted(sizes)))], None
    if cmd == "walk":
        group, top = draw(st.sampled_from([("Z^d:1", 30), ("Z^d:2", 10), ("F:1", 30),
                                           ("F:2", 4)]))
        letters = ["x1", "X1", "x2", "X2"] if group[0] == "Z" else ["a", "A", "b", "B"]
        letters = letters[:2 * int(group[-1])]
        argv = [cmd, "--group", group, "--radius", str(draw(st.integers(1, top)))]
        if not draw(st.booleans()):
            return argv, float(len(letters))
        weights = {}
        for x, inv in zip(letters[::2], letters[1::2]):
            weights[x] = weights[inv] = draw(st.floats(0.125, 4.0))
        for name, w in weights.items():
            argv += ["--weight", f"{name}={w!r}"]
        return argv, float(sum(weights.values()))
    if cmd == "semidirect":
        max_r = draw(st.sampled_from([4, 8, 16]))
        h = max_r / 2 ** draw(st.integers(2, 8))          # 4 to 256 cells
        a, b = sorted(draw(st.floats(0, max_r)) for _ in range(2))
        ms = draw(st.lists(st.sampled_from([max_r / 8, max_r / 4, max_r / 2]), min_size=1,
                           max_size=3, unique=True))
        k_lo, k_hi = math.floor(a / h + 1e-9), math.ceil(b / h - 1e-9)
        target = 0.0 if a == b else (k_hi * h - k_lo * h) / (2 * math.pi)
        return [cmd, "--grid", f"{h!r}:{max_r}", "--interval", f"{a!r}:{b!r}",
                "--witness-m", ",".join(map(repr, ms))], target
    bounds = sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)))
    r, rp = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
    return ([cmd, "--bound", ",".join(map(str, bounds)), "--shift", f"{r},{rp}"],
            2.0 * (1 if r == -rp else 2))


def _dense_spectrum(op):
    return np.linalg.eigvalsh(op.to_dense())


def _check_radius(rep, ev, slack):
    top = ev[-1]
    assert rep["radius_lower_bound"] <= top + slack
    assert top <= rep["radius_upper_bound"] + slack
    if rep["stop"] != "budget":
        assert abs(rep["radius_estimate"] - top) <= spectral.EIGEN_TOL * top + slack
    for t in rep["top_eigenvalues"]:
        assert ev[0] - slack <= t <= top + slack


def _check_membership(residual, certified, target, tol, ev, slack):
    """A residual bounds the distance to the spectrum it was measured on."""
    dist = float(np.abs(ev - target).min())
    assert residual >= dist - slack
    assert not certified or dist <= tol + slack


@settings(max_examples=40, deadline=None)
@given(small_commands())
def test_reports_agree_with_dense_eigensolves(command):
    argv, target = command
    with tempfile.TemporaryDirectory() as tmp:
        out, csv = Path(tmp) / "report.json", Path(tmp) / "report.csv"
        code = main([*argv, "--output", str(out), "--csv", str(csv)])
        if code == 3:      # a spent budget: no report to check
            return
        assert code == 0, argv
        report = json.loads(out.read_text())
        header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    cmd, config, rep = argv[0], report["config"], report["spectral"]
    op = _rebuilt_operator(cmd, config)
    assert fingerprint(op) == report["operator"]
    ev = _dense_spectrum(op)
    scale = max(float(np.abs(ev).max()), abs(target or 0.0))
    slack = 1e-12 * scale
    _check_radius(rep, ev, slack)

    if cmd == "sweep":
        assert "verdict" not in report and header == ["size", "radius_estimate"]
        assert [[int(s), float(e)] for s, e in rows] == rep["truncation_trace"]
        for s, est in rep["truncation_trace"]:
            top = _dense_spectrum(op.leading_block(s))[-1]
            assert abs(est - top) <= spectral.EIGEN_TOL * top + slack
        return
    v = report["verdict"]
    assert v["target"] == pytest.approx(target, rel=1e-12, abs=0.0)
    tol = v["tolerance"]
    if cmd == "walk":
        notes = v["notes"]
        sizes = [_ball_count(config["group"], r) for r in notes["radii"]]
        assert notes["ball_sizes"] == sizes
        for n, low in zip(sizes, notes["lower_bounds"]):
            assert low <= _dense_spectrum(op.leading_block(n))[-1] + slack
        assert header == ["size", "radius_estimate"]
        assert [[int(s), float(e)] for s, e in rows] == [
            list(t) for t in zip(sizes, notes["radius_estimates"])]
        _check_membership(v["best_residual"], v["certified"], target, tol, ev, slack)
        return
    assert header == ["index", "eigenvalue"]
    assert [[int(i), float(e)] for i, e in rows] == [
        list(t) for t in enumerate(rep["top_eigenvalues"])]
    if cmd != "bicrossed":
        _check_membership(v["best_residual"], v["certified"], target, tol, ev, slack)
        return
    # each bound's residual is measured on its own box, the verdict's on the
    # best bound's; the secondary target's on the largest, the reported one
    notes, window = v["notes"], _shift_window(config)
    assert notes["window"] == [list(s) for s in window]
    for entry in notes["trace"]:
        box = semidirect.pair_window_operator(semidirect.pair_lattice(entry["bound"]), window)
        best = entry["bound"] == notes["best_bound"]
        assert not best or entry["best_residual"] == v["best_residual"]
        _check_membership(entry["best_residual"], best and v["certified"], target, tol,
                          _dense_spectrum(box), slack)
    sec = notes["secondary"]
    _check_membership(sec["best_residual"], sec["certified"], target / 2, tol, ev, slack)


# -- determinism --------------------------------------------------------------


def test_reports_are_byte_identical(capsys):
    argv = ["fusion", "--ring", "free-su2", "--N", "3", "--trunc", "32",
            "--omega", "a1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_timings_flag_adds_wall_time(capsys):
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "3",
                    "--timings")
    assert code == 0
    assert isinstance(rep["wall_time_s"], float)


# -- config file --------------------------------------------------------------


def test_env_config_supplies_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0.2, "walk": {"radius": 2}}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, rep = run(capsys, "walk", "--group", "Z^d:1")
    assert code == 0
    assert rep["config"]["radius"] == 2
    assert rep["config"]["tol"] == 0.2


def test_walk_config_echo_round_trips(capsys, tmp_path, monkeypatch):
    # every solve command: its report's config, read back as its section with
    # no flags, gives the same report byte for byte; fusion resolves --trunc
    # and --level, and the table ring is named by a relative path
    (tmp_path / "ring.json").write_text(json.dumps(cyclic3_obj()))
    monkeypatch.chdir(tmp_path)
    for argv in (("fusion", "--ring", "free-su2", "--N", "2", "--omega", "a1"),
                 ("sweep", "--ring", "free-su2", "--N", "3", "--omega", "a1",
                  "--sizes", "8,16,32"),
                 ("sweep", "--ring", "ring.json", "--omega", "g,h", "--sizes", "2,3"),
                 ("walk", "--group", "F:2", "--radius", "3", "--weight", "a=1",
                  "--weight", "A=1"),
                 ("walk", "--group", "Z^d:2", "--radius", "4", "--omega", "x1,X1",
                  "--tol", "0.1"),
                 ("semidirect", "--interval", "0:1", "--grid", "0.25:16", "--seed", "5"),
                 ("bicrossed", "--bound", "3,5", "--shift", "0,1")):
        assert main(list(argv)) == 0, argv
        text = capsys.readouterr().out
        (tmp_path / "echo.json").write_text(
            json.dumps({argv[0]: json.loads(text)["config"]}))
        monkeypatch.setenv(CONFIG_ENV, "echo.json")
        code = main([argv[0]])
        monkeypatch.delenv(CONFIG_ENV)
        assert (code, capsys.readouterr().out) == (0, text), argv


def test_flags_override_config(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"walk": {"radius": 2, "tol": 0.2}}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "4",
                    "--tol", "0.1")
    assert code == 0
    assert rep["config"]["radius"] == 4
    assert rep["config"]["tol"] == 0.1


def test_config_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "missing.json"))
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "2")
    assert code == 2
    assert rep["error"]["type"] == "input"

    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    monkeypatch.setenv(CONFIG_ENV, str(bad))
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "2")
    assert code == 2

    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"seed": -3}))
    monkeypatch.setenv(CONFIG_ENV, str(seed))
    code, rep = run(capsys, "semidirect", "--interval", "0:1", "--grid", "0.25:8")
    assert code == 2
    assert rep["error"]["type"] == "input" and "seed" in rep["error"]["message"]

    # typos are errors, not silently ignored keys
    for obj, key in (({"walk": {"raduis": 12}}, "raduis"), ({"sede": 4}, "sede"),
                     ({"wlak": {"radius": 12}}, "wlak"), ({"walk": 12}, "walk"),
                     ({"fusion": {"radius": 3}}, "radius")):
        typo = tmp_path / "typo.json"
        typo.write_text(json.dumps(obj))
        monkeypatch.setenv(CONFIG_ENV, str(typo))
        code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "2")
        assert code == 2, obj
        assert rep["error"]["type"] == "input" and repr(key) in rep["error"]["message"], obj

    # the common flags are valid in every section (validate, which solves
    # nothing, has no --tol or --seed); a top-level key needs one command
    # that declares it
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"radius": 2, "seed": 3,
                                "validate": {"output": None, "timings": False}}))
    monkeypatch.setenv(CONFIG_ENV, str(good))
    code, rep = run(capsys, "walk", "--group", "Z^d:1")
    assert code == 0 and rep["config"]["radius"] == 2 and rep["config"]["seed"] == 3


# -- failure modes ------------------------------------------------------------


def test_missing_required_flag(capsys):
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "2")
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "--omega" in rep["error"]["message"]


def test_bad_values_exit_2(capsys, tmp_path):
    cases = [
        ("walk", "--group", "Q:1", "--radius", "2"),
        ("walk", "--group", "F:\u00b2", "--radius", "2"),
        ("walk", "--group", "Z^d:\u0661", "--radius", "2"),
        ("walk", "--group", "Z^d:" + "1" * 5000, "--radius", "2"),
        ("walk", "--group", "Z^d:1", "--radius", "x"),
        ("walk", "--group", "Z^d:1", "--radius", "\u0661\u0660"),
        ("walk", "--group", "Z^d:1", "--radius", "1_0"),
        ("walk", "--group", "Z^d:1", "--radius", "\uff11\uff10"),
        ("fusion", "--ring", "free-su2", "--N", "\u0663", "--trunc", "3_2", "--omega", "a1"),
        ("fusion", "--ring", "free-su2", "--N", "3", "--trunc", "3_2", "--omega", "a1"),
        ("fusion", "--ring", "free-su2", "--N", "2_5", "--trunc", "32", "--omega", "a1"),
        ("fusion", "--ring", "free-su2", "--N", "3", "--trunc", "32", "--omega", "a1",
         "--tol", "0.0_1"),
        ("walk", "--group", "Z^d:1", "--radius", "2", "--weight", "x1:0.5"),
        ("walk", "--group", "Z^d:1", "--radius", "2",
         "--weight", "x1=1", "--weight", "x1=2"),
        ("sweep", "--ring", "free-su2", "--N", "2", "--omega", "a1",
         "--sizes", "8,8"),
        ("semidirect", "--interval", "0:1:2", "--grid", "0.25:8"),
        ("semidirect", "--interval", "1:0", "--grid", "0.25:8"),
        ("bicrossed", "--bound", "5", "--shift", "1,0,2"),
        ("bicrossed", "--bound", "5", "--shift", "0,1", "--seed", "-1"),
        ("fusion", "--ring", "free-su2", "--trunc", "32", "--omega", "a1"),
    ]
    for argv in cases:
        code, rep = run(capsys, *argv)
        assert code == 2, argv
        assert rep["error"]["type"] == "input", argv


@pytest.mark.parametrize("argv", [
    ("--group", "F:0", "--radius", "2", "--weight", "a=-5"),
    ("--group", "F:0", "--radius", "2", "--weight", "a=1", "--weight", "A=1"),
    ("--group", "Z^d:0", "--radius", "3", "--omega", "x1,X1"),
    ("--group", "Z^d:0", "--radius", "3", "--omega", "x1"),
])
def test_a_trivial_group_takes_no_window(capsys, argv):
    # the trivial group has no generator, so any named one is unknown
    code, rep = run(capsys, "walk", *argv)
    assert code == 2 and rep["error"]["type"] == "input"
    assert rep["error"]["message"].startswith("unknown generator")


def test_grid_cell_count_overflow_is_an_input_error(capsys):
    code, rep = run(capsys, "semidirect", "--interval", "0:1", "--grid", "0.5:1e308")
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "too many grid cells" in rep["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("semidirect", "--grid", "1e-9:1", "--interval", "0:1"),
    ("semidirect", "--grid", "1e-300:1", "--interval", "0:1"),
    ("semidirect", "--grid", "1:4096", "--interval", "0:4096"),   # 4096 cells, 25M entries
    ("walk", "--group", "F:2", "--radius", "30"),
    ("walk", "--group", "Z^d:1", "--radius", str(10 ** 18)),
    ("walk", "--group", "Z^d:30000", "--radius", "1"),                # 2d^2 coordinates
    ("bicrossed", "--bound", "100000", "--shift", "0,1"),             # B(2B + 1) classes
    ("fusion", "--ring", "free-su2", "--N", "2", "--omega", "a1",     # level + 1 labels
     "--trunc", "100000000"),
])
def test_builds_past_the_size_limit_are_input_errors(capsys, argv):
    tracemalloc.start()
    try:
        code, rep = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "more than 4194304" in rep["error"]["message"]
    assert peak < 4e6       # refused before any array of that size is made


def test_rule_parameter_must_be_finite(capsys):
    for n in ("inf", "nan"):
        code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", n,
                        "--omega", "a1", "--trunc", "32")
        assert code == 2
        assert rep["error"]["type"] == "input"
        assert "finite numeric N" in rep["error"]["message"]


def _strict_json(text: str) -> dict:
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("n", ["1e200", "1e308"])
def test_huge_rule_parameter_gives_finite_json(capsys, n):
    # the residuals are about N: their norms must not square it into inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fusion", "--ring", "free-su2", "--N", n, "--omega", "a1",
                     "--trunc", "20"])
    rep = _strict_json(capsys.readouterr().out)
    assert code == 0
    verdict = rep["verdict"]
    assert not verdict["certified"]
    assert float(n) * (1 - 1e-12) <= verdict["best_residual"] < math.inf
    assert math.isfinite(verdict["gap_hint"])


def test_window_mass_past_float_range_is_an_input_error(capsys):
    # dim(a2) = N^2 - 1 overflows to inf: no residual can certify against it
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "1e200", "--omega", "a2",
                    "--trunc", "20")
    assert code == 2
    assert rep["error"] == {"type": "input", "message": "target must be finite, got inf"}


def test_walk_whose_squares_overflow_is_solved(capsys):
    # radius 3.8e200 is a float, its square and beta's square are not
    # and no numpy warning reaches stderr on the way
    heavy = [arg for g in ("x1", "X1", "x2", "X2") for arg in ("--weight", f"{g}=1e200")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(capsys, "walk", "--group", "Z^d:2", "--radius", "6", *heavy)
    unit_code, unit = run(capsys, "walk", "--group", "Z^d:2", "--radius", "6")
    assert code == unit_code == 0
    assert rep["spectral"]["radius_estimate"] == \
        pytest.approx(1e200 * unit["spectral"]["radius_estimate"], rel=1e-12)


def test_overflowing_walk_is_an_input_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the error report is all that is printed
        code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "3",
                        "--weight", "x1=1e308", "--weight", "X1=1e308")
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "step 1" in rep["error"]["message"]
    assert "operator overflows" in rep["error"]["message"]


def test_lapack_failure_is_a_convergence_error(capsys, monkeypatch):
    def failing(op, tol, steps, start=None):
        raise scipy.linalg.LinAlgError("dstein (extreme Ritz vectors) failed with info=1")

    monkeypatch.setattr(spectral, "_lanczos", failing)
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "3")
    assert code == 3
    assert rep["error"] == {"type": "convergence",
                            "message": "dstein (extreme Ritz vectors) failed with info=1"}


@pytest.mark.parametrize("argv", [
    ("fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64", "--omega", "a1"),
    ("semidirect", "--interval", "0:1", "--grid", "0.25:16"),
])
def test_certificate_solver_failure_is_a_convergence_error(capsys, monkeypatch, argv):
    # the certificate falls back to its witnesses, but the report has no solve
    def failing(op, tol, steps):
        raise scipy.linalg.LinAlgError("dstein (extreme Ritz vectors) failed with info=1")

    monkeypatch.setattr(spectral, "_lanczos", failing)
    code, rep = run(capsys, *argv)
    assert code == 3
    assert rep["error"]["type"] == "convergence"
    assert "dstein (extreme Ritz vectors) failed with info=1" in rep["error"]["message"]


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ("fusion", "--ring", "free-su2", "--N", "3", "--trunc", "32", "--omega", "a1"),
    ("sweep", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--sizes", "10,20"),
    ("walk", "--group", "Z^d:1", "--radius", "3"),
    ("semidirect", "--interval", "0:1", "--grid", "0.25:16"),
    ("bicrossed", "--bound", "3", "--shift", "0,1"),
])
def test_non_finite_tol_is_an_input_error(capsys, argv, tol):
    code, rep = run(capsys, *argv, "--tol", tol)
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "tol must be positive and finite" in rep["error"]["message"]


def test_table_rings_smaller_than_min_truncation(capsys, tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(cyclic3_obj()))
    # no minimum truncation: the 3-label ring is tested at trunc 3
    code, rep = run(capsys, "fusion", "--ring", str(path), "--omega", "g,h")
    assert code == 0
    assert rep["config"]["trunc"] == 3 and rep["verdict"]["target"] == 2.0
    assert rep["verdict"]["certified"] and rep["verdict"]["witness_id"] == "lanczos-ritz"
    assert rep["spectral"]["stop"] == "closure" and rep["spectral"]["iterations"] == 1
    # rule-only flags are rejected for descriptor paths
    code, rep = run(capsys, "fusion", "--ring", str(path), "--N", "2",
                    "--omega", "g,h")
    assert code == 2


def test_validate_rejects_csv_flag(capsys, tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(cyclic3_obj()))
    code, rep = run(capsys, "validate", str(path), "--csv",
                    str(tmp_path / "x.csv"))
    assert code == 2
    assert "no CSV" in rep["error"]["message"]


def test_validation_failure_exit_code(capsys, tmp_path):
    # axiom breaks surface as exit 2 when a command needs a working ring
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cyclic3_obj(conj=["e", "g", "g"])))
    code, rep = run(capsys, "fusion", "--ring", str(path), "--omega", "g")
    assert code == 2
    assert rep["error"]["type"] == "validation"


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err


def test_unknown_subcommand_exits_2(capsys):
    code, rep = run(capsys, "bogus")
    assert code == 2
    assert rep["error"]["type"] == "input"
    assert "invalid choice: 'bogus'" in rep["error"]["message"]


def test_negative_shift_is_a_flag_value(capsys):
    # read as the value of --shift, as --shift=-1,0 always was
    code, rep = run(capsys, "bicrossed", "--bound", "3", "--shift", "-1,0")
    assert code == 0 and rep["config"]["shift"] == [-1, 0]
    assert run(capsys, "bicrossed", "--bound", "3", "--shift=-1,0") == (code, rep)


def test_abbreviated_flag_before_its_value_is_a_json_input_error(capsys):
    # --sh once ran as --shift with =, and failed without: no spelling runs now
    code, rep = run(capsys, "bicrossed", "--bound", "3", "--sh", "-1,0")
    assert code == 2
    assert rep["error"] == {"type": "input", "message": "unrecognized arguments: --sh -1,0"}


def test_abbreviated_flag_glued_to_its_value_is_a_json_input_error(capsys):
    code, rep = run(capsys, "bicrossed", "--bound", "3", "--sh=-1,0")
    assert code == 2
    assert rep["error"] == {"type": "input", "message": "unrecognized arguments: --sh=-1,0"}


def test_negative_interval_is_a_flag_value(capsys):
    # the interval reaches the runner, which refuses its negative end
    code, rep = run(capsys, "semidirect", "--interval", "-1:1", "--grid", "0.25:8")
    assert code == 2
    assert rep["error"] == {"type": "input",
                            "message": "interval must satisfy 0 <= a <= b <= max_r"}


def test_unknown_flag_is_a_json_input_error(capsys):
    assert main(["fusion", "--nope", "1"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "input",
                                        "message": "unrecognized arguments: --nope 1"}
    assert err == ""
    code, rep = run(capsys, "walk", "--group", "F:2", "--radius")
    assert code == 2
    assert rep["error"] == {"type": "input", "message": "argument --radius: expected one argument"}


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["walk", "--help"])
    assert e.value.code == 0
    assert "--radius" in capsys.readouterr().out


def test_a_command_help_is_that_of_the_full_parser(capsys):
    # a run builds its command's parser alone; its help is the full
    # parser's for that command, byte for byte
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for cmd in _COMMANDS:
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        assert capsys.readouterr().out == sub.choices[cmd].format_help(), cmd


def test_a_run_adds_only_its_commands_flags(capsys, monkeypatch):
    # the full parser makes 55 calls: every flag of the six commands and 7 -h
    calls = []
    add = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *a, **kw: calls.append(a) or add(self, *a, **kw))
    code, _ = run(capsys, "fusion", "--ring", "free-su2", "--N", "3", "--omega", "a1",
                  "--trunc", "64")
    assert code == 0
    assert len(calls) == len(_flags("fusion")) + 1      # and its -h


def test_non_finite_report_value_is_a_convergence_error(capsys, monkeypatch, tmp_path):
    # NaN is not JSON: the report is refused, and nothing is written
    text, tol, runner, flags = _COMMANDS["walk"]

    def nan_runner(o):
        op, verdict = runner(o)
        verdict.notes["limit_estimate"] = math.nan
        return op, verdict

    monkeypatch.setitem(_COMMANDS, "walk", (text, tol, nan_runner, flags))
    out = tmp_path / "report.json"
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "3", "--output", str(out))
    assert code == 3
    assert rep["error"]["type"] == "convergence"
    assert "non-finite" in rep["error"]["message"]
    assert not out.exists()


def test_verdict_lists_route_errors(capsys, monkeypatch):
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64",
                    "--omega", "a1")
    assert code == 0 and rep["verdict"]["errors"] == []

    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    # the target 3 lies past radius_upper_bound + tol, where no route can
    # certify it: no shift-invert factor is made, so none fails
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64",
                    "--omega", "a1")
    assert code == 0
    assert 3.0 > rep["spectral"]["radius_upper_bound"] + rep["verdict"]["tolerance"]
    assert rep["verdict"]["errors"] == []
    # the secondary target 2 is interior: every bound's factor is made, and fails
    code, rep = run(capsys, "bicrossed", "--bound", "3,5", "--shift", "0,1")
    assert code == 0
    assert rep["verdict"]["errors"] == [f"{where}: shift-invert: Factor is exactly singular"
                                        for where in ("bound 3", "bound 5", "secondary")]


def test_convergence_failure_exits_3(capsys, monkeypatch):
    def stuck(group, radius, omega=None, tol=0.05, weights=None):
        notes = {"radii": [1], "ball_sizes": [3], "radius_estimates": [1.9],
                 "lower_bounds": [1.9], "normalized": [0.95],
                 "limit_estimate": 0.95, "eigensolver_converged": [False]}
        return AmenabilityVerdict(2.0, tol, 0.1, False, "ball-1", 0.1, notes)

    monkeypatch.setattr(walks, "kesten_test", stuck)
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "1")
    assert code == 3
    assert rep["error"]["type"] == "convergence"
    assert "radius" in rep["error"]["message"]


@pytest.mark.parametrize("argv, steps", [
    (("fusion", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--trunc", "2000"), 12),
    (("semidirect", "--grid", "0.015625:64", "--interval", "0:1"), 50),
    (("sweep", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--sizes", "50,1000"), 12),
])
def test_a_solve_that_spends_its_budget_exits_3(capsys, monkeypatch, argv, steps):
    # a basis capped at `steps` vectors of the largest operator cuts each
    # solve short of the bracket finish (step 16) and of its residual stop
    n = {"fusion": 2000, "semidirect": 4096, "sweep": 1000}[argv[0]]
    monkeypatch.setattr(spectral, "_MAX_BASIS", steps * n)
    code, rep = run(capsys, *argv)
    assert code == 3
    assert rep["error"] == {"type": "convergence", "message":
                            f"the eigensolver spent its budget of {steps} steps"}


def test_bicrossed_exits_3_when_the_solve_at_a_bound_spends_its_budget(capsys, monkeypatch):
    # a 2^17-entry basis holds 79 steps of the 1640-orbit conjugation quotient
    # of the 3240-class box of bound 40, whose run stops on its residual bound
    # at step 160
    monkeypatch.setattr(spectral, "_MAX_BASIS", 2 ** 17)
    code, rep = run(capsys, "bicrossed", "--bound", "10,20,40", "--shift", "0,1")
    assert code == 3
    assert rep["error"] == {"type": "convergence",
                            "message": "eigensolver did not converge at bound [40]"}


def test_a_two_point_sweep_reports_a_lower_bound_of_at_most_one(capsys):
    # the a1 window at size 2 is [[0, 1], [1, 0]], of lambda_max exactly 1; the
    # float Rayleigh quotient of its rounded unit Ritz vector is 1.0000000000000002
    code, rep = run(capsys, "sweep", "--ring", "free-su2", "--N", "2", "--omega", "a1",
                    "--sizes", "2")
    assert code == 0
    assert rep["spectral"]["radius_lower_bound"] <= 1.0
    assert rep["spectral"]["radius_estimate"] <= 1.0 <= rep["spectral"]["radius_upper_bound"]


def test_walk_on_the_line_converges_at_every_radius_to_500(capsys):
    # each ball is a path of 2r + 1 points in bandwidth-2 order, which the
    # bracket finish closes at step 16; 300 plain Lanczos steps did not
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "500")
    assert code == 0
    notes = rep["verdict"]["notes"]
    assert notes["radii"] == list(range(1, 501))
    assert all(notes["eigensolver_converged"])
    for r, est in zip(notes["radii"], notes["radius_estimates"]):
        assert abs(est - 2 * math.cos(math.pi / (2 * r + 2))) <= 1e-8 * est
    assert rep["spectral"]["stop"] == "bracket"


def test_validate_takes_no_tol_or_seed(capsys, tmp_path, monkeypatch):
    # validate solves nothing: --tol and --seed are unknown flags there, so a
    # NaN tolerance is refused instead of ignored; a global tol key still loads
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(cyclic3_obj()))
    for flag, value in (("--tol", "nan"), ("--tol", "0.1"), ("--seed", "3")):
        code, rep = run(capsys, "validate", str(path), flag, value)
        assert code == 2 and rep["error"]["type"] == "input"
        assert flag in rep["error"]["message"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0.05, "seed": 11}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, rep = run(capsys, "validate", str(path))
    assert code == 0 and rep["all_passed"] is True
    cfg.write_text(json.dumps({"validate": {"tol": 0.05}}))
    code, rep = run(capsys, "validate", str(path))
    assert code == 2 and "'tol'" in rep["error"]["message"]


def test_cli_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg adds about 0.1 s to every start; only the
    # shift-invert certificate route needs it, and imports it when it runs
    src = Path(amenspec.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, amenspec.cli; "
            "print(amenspec.cli.__file__, 'scipy.sparse.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    where, loaded = done.stdout.split()
    assert Path(where).resolve().is_relative_to(src)
    assert loaded == "False"


def test_module_entry_point_reads_its_command_line():
    # main() without argv reads sys.argv: run python -m amenspec.cli
    src = Path(amenspec.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "amenspec.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = cli("walk", "--group", "Z^d:1", "--radius", "3")
    assert done.returncode == 0 and one_json_object(done.stdout)
    assert json.loads(done.stdout)["config"]["group"] == "Z^d:1"
    done = cli("--help")
    assert done.returncode == 0
    assert all(f"\n    {cmd} " in done.stdout for cmd in _COMMANDS)
    done = cli()
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: amenspec ")


# -- fuzz ---------------------------------------------------------------------

FUZZ_EDGES = ("-1", "0", "1", "2", "1.5", "nan", "inf", "1e400", "", "x", "1,2",
              str(2 ** 22 + 1), str(10 ** 30))
# small valid command lines, so that an edge value meets otherwise good input
FUZZ_BASE = {
    "fusion": {"--ring": "free-su2", "--N": "3", "--omega": "a1", "--trunc": "64"},
    "sweep": {"--ring": "free-su2", "--N": "3", "--omega": "a1", "--sizes": "8,16"},
    "walk": {"--group": "Z^d:2", "--radius": "3"},
    "semidirect": {"--interval": "0:1", "--grid": "0.25:16"},
    "bicrossed": {"--bound": "3,5", "--shift": "0,1"},
    "validate": {"descriptor": "ring.json"},
}
# each case runs through main with its own stdout, which a report written
# to --output stands for, read before a later case can overwrite that path;
# one JSON list of results
FUZZ_CHILD = """
import contextlib, io, json, sys, traceback
from amenspec.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except BaseException:
        code = traceback.format_exc()
    text = out.getvalue()
    if not text and code == 0 and "--output" in argv:
        with open(argv[argv.index("--output") + 1], encoding="utf-8") as fh:
            text = fh.read()
    results.append({"argv": argv, "code": code, "stdout": text})
print(json.dumps(results))
"""


def fuzz_cases(count: int, seed: int) -> list:
    """count command lines, each command in turn: its FUZZ_BASE line with one
    to three of its flags, drawn by a seeded generator, set to edge values."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        cmd = list(_COMMANDS)[i % len(_COMMANDS)]
        flags = {spelling: cast for spelling, _, cast, _ in _flags(cmd)}
        values = dict(FUZZ_BASE[cmd])
        for spelling in rng.sample(sorted(flags), rng.randint(1, 3)):
            values[spelling] = rng.choice(FUZZ_EDGES)
        argv = [cmd]
        for spelling, value in values.items():
            argv += ([value] if not spelling.startswith("--")
                     else [spelling] if flags[spelling] is _as_bool else [spelling, value])
        cases.append(argv)
    return cases


def one_json_object(text: str) -> bool:
    try:
        obj, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return False
    return isinstance(obj, dict) and not text[end:].strip()


@pytest.mark.parametrize("flags", [("--csv", ""), ("--csv", "missing/balls.csv"), ("--output", "."),
                                   ("--output", "report.json", "--csv", "")])
def test_unwritable_paths_are_json_input_errors(capsys, tmp_path, monkeypatch, flags):
    # an empty --csv path once ended in a FileNotFoundError traceback, after
    # the report was written; now nothing is, and stdout holds only the error
    monkeypatch.chdir(tmp_path)
    code = main(["walk", "--group", "Z^d:1", "--radius", "3", *flags])
    out = capsys.readouterr().out
    assert code == 2 and one_json_object(out)
    error = json.loads(out)["error"]
    assert error["type"] == "input" and error["message"].startswith("cannot write the ")
    assert list(tmp_path.iterdir()) == []


def test_fuzzed_command_lines_exit_0_2_or_3_with_one_json_object(tmp_path):
    # every command line, whatever its flags and values, gets one JSON object,
    # on stdout or, for a report, in its --output file, and exit status 0, 2
    # or 3; run in one child under a 3 GiB address-space limit
    (tmp_path / "ring.json").write_text(json.dumps(cyclic3_obj()))
    cases = fuzz_cases(60, seed=2024)
    src = Path(amenspec.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", FUZZ_CHILD], input=json.dumps(cases), cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60, check=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)))
    results = json.loads(done.stdout)
    assert [r["argv"] for r in results] == cases
    bad = [r for r in results
           if r["code"] not in (0, 2, 3) or not one_json_object(r["stdout"])]
    assert bad == []


# -- documentation ------------------------------------------------------------


def readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme, [l for l in readme.splitlines() if l.startswith("amenspec ")]


def test_readme_commands_parse_and_name_every_flag():
    readme, lines = readme_commands()
    assert {shlex.split(l)[1] for l in lines} == set(_COMMANDS)
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    for cmd in _COMMANDS:
        for spelling, *_ in _flags(cmd):
            if spelling.startswith("--"):
                assert f"`{spelling}" in readme or f" {spelling} " in readme, spelling


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # run in tmp_path, where my_ring.json is the README's table-form example
    # and relative --csv and --output paths land
    readme, lines = readme_commands()
    blocks = readme.split("```json\n")[1:]
    table = next(b.split("```")[0] for b in blocks if '"kind": "table"' in b)
    (tmp_path / "my_ring.json").write_text(table)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        json.loads(Path(argv[argv.index("--output") + 1]).read_text()
                   if "--output" in argv else out)


def test_readme_library_snippet_runs():
    readme, _ = readme_commands()
    snippet = readme.split("```python\n")[1].split("```")[0]
    exec(compile(snippet, "README.md", "exec"), {})
