"""End-to-end command line runs, in process via main(argv)."""

import json
import math

import pytest

from amenspec import AmenabilityVerdict, __version__, fusion, semidirect, spectral, walks
from amenspec.cli import CONFIG_ENV, main


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


def test_walk_command_with_csv(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    code, rep = run(capsys, "walk", "--group", "F:2", "--radius", "3",
                    "--csv", str(csv))
    assert code == 0
    assert rep["verdict"]["certified"] is False
    assert rep["config"]["group"] == "F_2"
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
    assert built == [50, 100, 200, 400]


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

    def counting_lanczos(op, tol, max_iter, seed):
        solves.append((op, tol, max_iter, seed))
        return lanczos(op, tol, max_iter, seed)

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
        keys = [(id(op), tol, max_iter, seed) for op, tol, max_iter, seed in solves]
        assert len(keys) == len(set(keys)), argv


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


def test_rule_parameter_must_be_finite(capsys):
    for n in ("inf", "nan"):
        code, rep = run(capsys, "fusion", "--ring", "free-su2", "--N", n,
                        "--omega", "a1", "--trunc", "32")
        assert code == 2
        assert rep["error"]["type"] == "input"
        assert "finite numeric N" in rep["error"]["message"]


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


def test_convergence_failure_exits_3(capsys, monkeypatch):
    def stuck(group, radius, omega=None, tol=0.05, seed=7, weights=None):
        notes = {"radii": [1], "ball_sizes": [3], "radius_estimates": [1.9],
                 "lower_bounds": [1.9], "normalized": [0.95],
                 "limit_estimate": 0.95, "eigensolver_converged": [False],
                 "final_operator": {"size": 3}, "final_spectral": {"m": 1}}
        return AmenabilityVerdict(2.0, tol, 0.1, False, "ball-1", 0.1, notes)

    monkeypatch.setattr(walks, "kesten_test", stuck)
    code, rep = run(capsys, "walk", "--group", "Z^d:1", "--radius", "1")
    assert code == 3
    assert rep["error"]["type"] == "convergence"
    assert "radius" in rep["error"]["message"]
