"""End-to-end command line runs, in process via main(argv)."""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
import scipy.linalg
import scipy.sparse.linalg

import amenspec
from amenspec import (AmenabilityVerdict, __version__, fingerprint, fusion, semidirect,
                      spectral, spectral_radius, walks)
from amenspec.cli import _COMMANDS, CONFIG_ENV, _build_parser, _flags, main


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
    assert rep["config"]["ring"]["N"] == 2
    assert rep["verdict"]["certified"] is True
    assert rep["verdict"]["target"] == 2.0
    assert rep["operator"]["size"] == 64
    assert "wall_time_s" not in rep
    assert set(rep) == {"schema", "version", "command", "config", "operator",
                        "spectral", "verdict"}
    assert set(rep["spectral"]) == {"radius_estimate", "radius_lower_bound",
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
    assert rep["config"]["window"] == [[-1, 0], [0, 1]]
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


@pytest.mark.parametrize("argv, stop", [
    (("fusion", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--trunc", "2000"),
     "budget"),
    (("walk", "--group", "Z^d:2", "--radius", "20"), "residual"),
    (("walk", "--group", "F:2", "--radius", "3"), "closure"),
    # the 50-label block closes; the report is that of the 1000-label block,
    # whose 500 main eigenvalues outlast the budget of 300 steps
    (("sweep", "--ring", "free-su2", "--N", "3", "--omega", "a1", "--sizes", "50,1000"),
     "budget"),
])
def test_reports_say_why_the_solve_stopped(capsys, argv, stop):
    code, rep = run(capsys, *argv)
    assert code == 0
    assert rep["spectral"]["stop"] == stop
    assert rep["spectral"]["converged"] == (stop != "budget")
    assert 0 < rep["spectral"]["reorthogonalized"] < rep["spectral"]["iterations"]


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

    def counting_lanczos(op, tol, max_iter):
        solves.append((op, tol, max_iter))
        return lanczos(op, tol, max_iter)

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
        keys = [(id(op), tol, max_iter) for op, tol, max_iter in solves]
        assert len(keys) == len(set(keys)), argv


def _rebuilt_operator(cmd, config):
    """The operator a verdict command reports on, rebuilt from its config echo."""
    if cmd == "fusion":
        ring = config["ring"]
        return fusion.window_operator(fusion.free_su2_ring(ring["N"], ring["level"]),
                                      config["omega"], config["trunc"])
    if cmd == "semidirect":
        grid = semidirect.half_line_grid(config["grid"]["h"], config["grid"]["max_r"])
        return semidirect.interval_operator(grid, *config["interval"])
    if cmd == "walk":
        group = walks.parse_group(config["group"])
        weights = config["weight"] or {nm: 1.0 for nm in group.generator_names}
        return walks.cayley_operator(group, weights, walks.build_ball(group, config["radius"]))
    pairs = semidirect.pair_lattice(config["bound"][-1])
    return semidirect.pair_window_operator(pairs, [tuple(s) for s in config["window"]])


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
    for argv in (("--group", "F:2", "--radius", "3", "--weight", "a=1", "--weight", "A=1"),
                 ("--group", "Z^d:2", "--radius", "4", "--omega", "x1,X1", "--tol", "0.1")):
        code, rep = run(capsys, "walk", *argv)
        assert code == 0, argv
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps({"walk": rep["config"]}))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, again = run(capsys, "walk")
        monkeypatch.delenv(CONFIG_ENV)
        assert code == 0, argv
        assert again == rep, argv


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

    # the common flags are valid in every section; a top-level key needs one
    # command that declares it
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"radius": 2, "seed": 3,
                                "validate": {"seed": 4, "timings": False}}))
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
        ("walk", "--group", "Z^d:1", "--radius", "x"),
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
    def failing(op, tol, max_iter):
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
    def failing(op, tol, max_iter):
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
    code, rep = run(capsys, "fusion", "--ring", str(path), "--omega", "g,h")
    assert code == 2
    assert "trunc" in rep["error"]["message"]
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
    with pytest.raises(SystemExit) as e:
        main(["bogus"])
    assert e.value.code == 2


def test_verdict_lists_route_errors(capsys, monkeypatch):
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64",
                    "--omega", "a1")
    assert code == 0 and rep["verdict"]["errors"] == []

    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", "3", "--trunc", "64",
                    "--omega", "a1")
    assert code == 0
    assert rep["verdict"]["errors"] == ["shift-invert: Factor is exactly singular"]
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


# -- documentation ------------------------------------------------------------


def test_readme_commands_parse_and_name_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [l for l in readme.splitlines() if l.startswith("amenspec ")]
    assert {shlex.split(l)[1] for l in lines} == set(_COMMANDS)
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    for cmd in _COMMANDS:
        for spelling, *_ in _flags(cmd):
            if spelling.startswith("--"):
                assert f"`{spelling}" in readme or f" {spelling} " in readme, spelling
