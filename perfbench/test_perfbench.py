"""Tests of the benchmark itself: oracle formulas, report checks, tracer.

The oracle formulas are checked against dense eigensolves of operators
built here from their definitions, at sizes small enough to densify.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracer as tracing
from workloads import WORKLOADS


def _path_matrix(n: int) -> np.ndarray:
    return np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


def _free_ball_matrix(k: int, radius: int) -> np.ndarray:
    """Adjacency of the radius ball of F_k, words as tuples of +-letters."""
    letters = [s for i in range(1, k + 1) for s in (i, -i)]
    words, frontier = [()], [()]
    for _ in range(radius):
        frontier = [w + (s,) for w in frontier for s in letters
                    if not w or w[-1] != -s]
        words += frontier
    index = {w: i for i, w in enumerate(words)}
    a = np.zeros((len(words), len(words)))
    for w, i in index.items():
        if w:
            a[i, index[w[:-1]]] = a[index[w[:-1]], i] = 1.0
    return a


def _pair_matrix(bound: int) -> np.ndarray:
    """Shifts {g, g'} -> {g, g' -/+ 1}, {g -/+ 1, g'} on pairs g < g' in the box."""
    rng = range(-bound, bound + 1)
    cells = [(a, b) for a in rng for b in rng if a < b]
    index = {c: i for i, c in enumerate(cells)}
    m = np.zeros((len(cells), len(cells)))
    for (a, b), i in index.items():
        for t in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
            j = index.get(t)
            if j is not None:
                m[i, j] = 1.0
    return m


@pytest.mark.parametrize("n", [2, 5, 12, 40])
def test_path_radius_and_counts(n):
    a = _path_matrix(n)
    assert oracle.path_radius(n) == pytest.approx(np.abs(np.linalg.eigvalsh(a)).max(),
                                                  abs=1e-12)
    assert oracle.path_counts(n) == (n, int(np.count_nonzero(a)))


@pytest.mark.parametrize("k,radius", [(1, 4), (2, 1), (2, 3), (2, 5), (3, 3)])
def test_free_ball_radius_and_counts(k, radius):
    a = _free_ball_matrix(k, radius)
    assert oracle.free_ball_radius(k, radius) == pytest.approx(
        np.linalg.eigvalsh(a)[-1], abs=1e-12)
    assert oracle.free_ball_counts(k, radius) == (a.shape[0], int(np.count_nonzero(a)))


def test_free_ball_counts_at_workload_size():
    assert oracle.free_ball_counts(2, 10) == (118_097, 236_192)
    assert sum(oracle.free_ball_counts(2, r)[0] for r in range(1, 11)) == 177_134


@pytest.mark.parametrize("bound", [1, 2, 3, 5])
def test_pair_spectrum_and_counts(bound):
    m = _pair_matrix(bound)
    np.testing.assert_allclose(oracle.pair_spectrum(bound), np.linalg.eigvalsh(m),
                               atol=1e-12)
    assert oracle.pair_counts(bound) == (m.shape[0], int(np.count_nonzero(m)))


def test_pair_counts_at_workload_size():
    assert oracle.pair_counts(40) == (3240, 12_640)
    assert oracle.path_counts(2000) == (2000, 3998)


def test_radius_digits_is_capped():
    assert oracle.radius_digits(2.0, 2.0) == 12.0
    assert oracle.radius_digits(2.0 + 2e-6, 2.0) == pytest.approx(6.0)
    assert oracle.radius_digits(2.0 * (1 + 1e-14), 2.0) == 12.0


# -- report checks -------------------------------------------------------------


def _spectral(rho: float, converged: bool = True) -> dict:
    return {"radius_estimate": rho, "radius_lower_bound": rho * (1 - 1e-13),
            "converged": converged}


def _reports() -> dict:
    """Reports that state exactly the oracle answers, one per workload."""
    rho_path = oracle.path_radius(2000)
    radii = list(range(1, 11))
    walk_rhos = [oracle.free_ball_radius(2, r) for r in radii]
    pair_rho = oracle.pair_radius(40)
    size, nnz = oracle.path_counts(2000)
    fusion = {"operator": {"size": size, "nnz": nnz},
              "spectral": _spectral(rho_path - 1e-6, converged=False),
              "verdict": {"target": 3.0, "certified": False,
                          "best_residual": 3.0 - rho_path + 1e-3}}
    size, nnz = oracle.free_ball_counts(2, 10)
    walk = {"operator": {"size": size, "nnz": nnz},
            "spectral": _spectral(walk_rhos[-1]),
            "verdict": {"target": 4.0, "certified": False,
                        "best_residual": 4.0 - walk_rhos[-1],
                        "notes": {"radii": radii,
                                  "ball_sizes": [oracle.free_ball_counts(2, r)[0]
                                                 for r in radii],
                                  "radius_estimates": walk_rhos,
                                  "lower_bounds": walk_rhos,
                                  "eigensolver_converged": [True] * 10}}}
    size, nnz = oracle.pair_counts(40)
    trace = [{"bound": b, "classes": oracle.pair_counts(b)[0],
              "best_residual": 4.0 - oracle.pair_radius(b)} for b in (10, 20, 40)]
    gap = float(np.abs(oracle.pair_spectrum(40) - 2.0).min())
    bicrossed = {"operator": {"size": size, "nnz": nnz},
                 "spectral": _spectral(pair_rho),
                 "verdict": {"target": 4.0, "certified": True, "tolerance": 0.05,
                             "best_residual": 4.0 - pair_rho,
                             "notes": {"trace": trace,
                                       "secondary": {"target": 2.0,
                                                     "best_residual": gap}}}}
    return {"fusion-free3": fusion, "walk-free2": walk, "bicrossed-sweep": bicrossed}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_oracle_report(name):
    assert WORKLOADS[name].check(_reports()[name]) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("fault", ["nnz", "estimate", "lower", "residual"])
def test_check_rejects_wrong_report(name, fault):
    report = copy.deepcopy(_reports()[name])
    sp = report["spectral"]
    if fault == "nnz":
        report["operator"]["nnz"] += 2
    elif fault == "estimate":
        sp["converged"] = True
        sp["radius_estimate"] *= 1 + 1e-6
    elif fault == "lower":
        sp["radius_lower_bound"] = WORKLOADS[name].radius * (1 + 1e-9)
    else:
        report["verdict"]["best_residual"] *= 0.5
    assert WORKLOADS[name].check(report)


def test_check_rejects_flipped_verdict():
    for name, report in _reports().items():
        report["verdict"]["certified"] = not report["verdict"]["certified"]
        assert WORKLOADS[name].check(report), name


# -- tracer --------------------------------------------------------------------


def test_self_times_account_for_the_root_span():
    mod = types.ModuleType("fake")
    mod.leaf = lambda d: time.sleep(d) or d
    mod.inner = lambda: mod.leaf(0.01) + mod.leaf(0.02)
    t = tracing.Tracer()
    t.wrap(mod, "leaf", "layer.leaf", lambda a, kw, r: {"layer.slept": 1})
    t.wrap(mod, "inner", "layer.inner")
    t.call("root", lambda: mod.inner() + mod.leaf(0.005))
    root = t.spans[0]
    assert [s.name for s in t.spans] == ["root", "layer.inner", "layer.leaf",
                                        "layer.leaf", "layer.leaf"]
    assert [s.parent for s in t.spans] == [None, 0, 1, 1, 0]
    assert sum(t.self_times().values()) == pytest.approx(root.end - root.start,
                                                         abs=1e-9)
    assert t.counts["layer.leaf_calls"] == 3 and t.counts["layer.slept"] == 3
    wrapped = mod.leaf
    t.restore()
    assert mod.leaf is not wrapped and mod.leaf(0) == 0


def test_traced_cli_counts_repeat(tmp_path):
    from amenspec import cli
    t = tracing.Tracer()
    tracing.install(t)
    try:
        runs = []
        for _ in range(2):
            t.reset()
            rc = t.call("cli", cli.main, ["bicrossed", "--bound", "3,5", "--shift", "0,1",
                                          "--output", str(tmp_path / "r.json")])
            assert rc == 0
            runs.append(dict(t.counts))
            root = t.spans[0]
            assert sum(t.self_times().values()) == pytest.approx(root.end - root.start,
                                                                 abs=1e-9)
    finally:
        t.restore()
    assert runs[0] == runs[1]
    assert runs[0]["semidirect.build_calls"] == 6
    assert runs[0]["spectral.certify_calls"] == 3
    assert runs[0]["spectral.solve_calls"] == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload",
                           "fusion-free3", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
