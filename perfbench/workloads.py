"""The three CLI workloads and the oracle checks every report must pass.

A check returns a list of problems; an empty list means the report agrees
with the closed forms in oracle.py. Every check is rigorous for any seed:
a Rayleigh quotient never exceeds the top eigenvalue, a residual never
undercuts the distance from the target to the spectrum, and a converged
Lanczos estimate lies within 1e-8 relative of the true radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

REL = 1e-8        # converged estimates must match the oracle this closely
SLACK = 1e-12     # float rounding allowed on one-sided bounds


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    radius: float                         # oracle rho of the reported operator
    check: Callable[[dict], list]


def _check_operator(report: dict, counts: tuple) -> list:
    size, nnz = counts
    op = report["operator"]
    if (op["size"], op["nnz"]) != (size, nnz):
        return [f"operator size/nnz {op['size']}/{op['nnz']}, oracle {size}/{nnz}"]
    return []


def _check_radius(what: str, estimate: float, lower: float, converged: bool,
                  rho: float) -> list:
    bad = []
    if lower > rho * (1 + SLACK):
        bad.append(f"{what}: lower bound {lower!r} exceeds rho {rho!r}")
    if converged and abs(estimate - rho) > REL * rho:
        bad.append(f"{what}: converged estimate {estimate!r} misses rho {rho!r}")
    return bad


def _check_spectral(report: dict, rho: float) -> list:
    sp = report["spectral"]
    return _check_radius("spectral", sp["radius_estimate"],
                         sp["radius_lower_bound"], sp["converged"], rho)


def _check_fusion(report: dict) -> list:
    rho = oracle.path_radius(2000)
    bad = _check_operator(report, oracle.path_counts(2000))
    bad += _check_spectral(report, rho)
    v = report["verdict"]
    if v["target"] != 3.0 or v["certified"]:
        bad.append(f"verdict target {v['target']} certified {v['certified']}")
    if v["best_residual"] < (3.0 - rho) * (1 - SLACK):
        bad.append(f"best_residual {v['best_residual']!r} below 3 - rho")
    return bad


def _check_walk(report: dict) -> list:
    rho = oracle.free_ball_radius(2, 10)
    bad = _check_operator(report, oracle.free_ball_counts(2, 10))
    bad += _check_spectral(report, rho)
    v = report["verdict"]
    notes = v["notes"]
    radii = list(range(1, 11))
    if notes["radii"] != radii:
        bad.append(f"radii {notes['radii']}")
        return bad
    if notes["ball_sizes"] != [oracle.free_ball_counts(2, r)[0] for r in radii]:
        bad.append(f"ball sizes {notes['ball_sizes']}")
    for r, est, low, ok in zip(radii, notes["radius_estimates"],
                               notes["lower_bounds"], notes["eigensolver_converged"]):
        bad += _check_radius(f"radius {r}", est, low, ok, oracle.free_ball_radius(2, r))
    if v["target"] != 4.0 or v["certified"]:
        bad.append(f"verdict target {v['target']} certified {v['certified']}")
    if v["best_residual"] < (4.0 - rho) * (1 - SLACK):
        bad.append(f"best_residual {v['best_residual']!r} below 4 - rho")
    return bad


def _check_bicrossed(report: dict) -> list:
    bounds = (10, 20, 40)
    rho = oracle.pair_radius(40)
    bad = _check_operator(report, oracle.pair_counts(40))
    bad += _check_spectral(report, rho)
    v = report["verdict"]
    if v["target"] != 4.0 or not v["certified"]:
        bad.append(f"verdict target {v['target']} certified {v['certified']}")
    if not (4.0 - rho) * (1 - SLACK) <= v["best_residual"] <= v["tolerance"]:
        bad.append(f"best_residual {v['best_residual']!r} outside [4 - rho, tol]")
    trace = v["notes"]["trace"]
    if [t["bound"] for t in trace] != list(bounds):
        bad.append(f"trace bounds {[t['bound'] for t in trace]}")
        return bad
    for t in trace:
        b = t["bound"]
        if t["classes"] != oracle.pair_counts(b)[0]:
            bad.append(f"bound {b}: {t['classes']} classes")
        if t["best_residual"] < (4.0 - oracle.pair_radius(b)) * (1 - SLACK):
            bad.append(f"bound {b}: residual {t['best_residual']!r} below 4 - rho")
    sec = v["notes"]["secondary"]
    gap = float(np.abs(oracle.pair_spectrum(40) - 2.0).min())
    if sec["target"] != 2.0 or sec["best_residual"] < gap * (1 - SLACK):
        bad.append(f"secondary residual {sec['best_residual']!r} below gap {gap!r}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("fusion-free3",
             ("fusion", "--ring", "free-su2", "--N", "3", "--omega", "a1",
              "--trunc", "2000"),
             oracle.path_radius(2000), _check_fusion),
    Workload("walk-free2", ("walk", "--group", "F:2", "--radius", "10"),
             oracle.free_ball_radius(2, 10), _check_walk),
    Workload("bicrossed-sweep",
             ("bicrossed", "--bound", "10,20,40", "--shift", "0,1"),
             oracle.pair_radius(40), _check_bicrossed),
)}
