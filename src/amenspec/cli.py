"""Command line surface: one run per process, one JSON report per run.

Reports are deterministic for a fixed command line and seed: keys are
sorted, wall time is omitted unless requested with --timings, and every
numeric field comes from seeded computations. Exit status 0 means the run
completed (certified or not); 2 means bad input or a failed ring axiom;
3 means an eigensolver failed to stabilize. Errors are emitted as JSON
objects on stdout so pipelines can parse both outcomes the same way.

A JSON config file named by the environment variable AMENSPEC_CONFIG
supplies defaults: top-level keys apply to every command, per-command
sections override them, explicit flags override both. Keys use the flag
spelling with dashes turned into underscores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, fusion, semidirect, walks
from .spectral import (CERT_TOL, DEFAULT_SEED, InputError, ValidationError,
                       fingerprint, spectral_radius, truncation_sweep)

CONFIG_ENV = "AMENSPEC_CONFIG"


class ConvergenceError(RuntimeError):
    """An eigensolver failed to stabilize within its iteration budget."""


def _load_env_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read config file {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"config file {path!r} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise InputError("config file must hold a JSON object")
    return obj


def _get(args, config: dict, command: str, key: str, default=None,
         cast=None, required: bool = False):
    v = getattr(args, key, None)
    if v is None:
        sec = config.get(command)
        if isinstance(sec, dict) and key in sec:
            v = sec[key]
        elif key in config and not isinstance(config[key], dict):
            v = config[key]
    if v is None:
        if required:
            flag = "--" + key.replace("_", "-")
            raise InputError(f"{command} requires {flag}")
        return default
    return cast(v, key) if cast else v


# -- value casts shared by flags and config entries --------------------------


def _as_float(v, what) -> float:
    try:
        if isinstance(v, bool):
            raise TypeError
        return float(v)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number, got {v!r}") from None


def _as_int(v, what) -> int:
    try:
        if isinstance(v, bool):
            raise TypeError
        if isinstance(v, float):
            if not v.is_integer():
                raise TypeError
            return int(v)
        return int(str(v), 10)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be an integer, got {v!r}") from None


def _as_seed(v, what) -> int:
    seed = _as_int(v, what)
    if seed < 0:
        raise InputError(f"{what} must be a nonnegative integer, got {v!r}")
    return seed


def _as_bool(v, what) -> bool:
    if isinstance(v, bool):
        return v
    raise InputError(f"{what} must be a boolean")


def _as_list(v, what) -> list:
    if isinstance(v, str):
        items = [s.strip() for s in v.split(",")]
    elif isinstance(v, (list, tuple)):
        items = list(v)
    else:
        raise InputError(f"{what} must be a comma list")
    if not items or any(s == "" for s in items):
        raise InputError(f"{what} must be a nonempty comma list")
    return items


def _as_int_list(v, what) -> list:
    return [_as_int(s, what) for s in _as_list(v, what)]


def _as_float_list(v, what) -> list:
    return [_as_float(s, what) for s in _as_list(v, what)]


def _as_str_list(v, what) -> list:
    return [str(s) for s in _as_list(v, what)]


def _as_colon_pair(v, what) -> tuple:
    parts = str(v).split(":")
    if len(parts) != 2:
        raise InputError(f"{what} must look like 'lo:hi'")
    return _as_float(parts[0], what), _as_float(parts[1], what)


def _as_weights(v, what) -> dict:
    if isinstance(v, dict):
        return {str(k): _as_float(w, what) for k, w in v.items()}
    out = {}
    for item in v:
        name, sep, val = str(item).partition("=")
        if not sep or not name:
            raise InputError(f"{what} entries must look like name=value")
        if name in out:
            raise InputError(f"{what} repeats generator {name!r}")
        out[name] = _as_float(val, what)
    return out


# -- ring construction shared by fusion and sweep ----------------------------


def _build_ring(args, config, command: str, default_level: int):
    spec = _get(args, config, command, "ring", required=True)
    n_raw = _get(args, config, command, "N")
    level_raw = _get(args, config, command, "level")
    if spec == fusion.FREE_SU2:
        if n_raw is None:
            raise InputError(f"--ring {fusion.FREE_SU2} requires --N")
        n = _as_float(n_raw, "N")
        level = _as_int(level_raw, "level") if level_raw is not None else default_level
        ring = fusion.free_su2_ring(n, level)
        echo = {"kind": "rule", "rule": fusion.FREE_SU2, "N": ring.N, "level": level}
        return ring, echo
    if n_raw is not None or level_raw is not None:
        raise InputError("--N and --level apply only to --ring free-su2")
    desc = fusion.load_descriptor_file(spec)
    ring = fusion.load_ring(desc)
    return ring, {"kind": desc.kind, "path": spec}


# -- command handlers ---------------------------------------------------------


def _verdict_report(cmd: str, config: dict, op, verdict, seed: int):
    """Report and CSV of a command that ends in a verdict on the operator op."""
    rep = spectral_radius(op, seed=seed)
    report = {"schema": 1, "version": __version__, "command": cmd,
              "config": config, "operator": fingerprint(op),
              "spectral": rep.to_dict(), "verdict": verdict.to_dict()}
    return report, ("index,eigenvalue", list(enumerate(rep.top_eigenvalues)))


def _run_fusion(args, config):
    cmd = "fusion"
    tol = _get(args, config, cmd, "tol", CERT_TOL, _as_float)
    seed = _get(args, config, cmd, "seed", DEFAULT_SEED, _as_seed)
    trunc_opt = _get(args, config, cmd, "trunc", None, _as_int)
    omega = _get(args, config, cmd, "omega", required=True, cast=_as_str_list)
    ring, ring_echo = _build_ring(args, config, cmd, (trunc_opt or 2000) - 1)
    trunc = trunc_opt if trunc_opt is not None else min(2000, ring.size)
    verdict = fusion.coamenability_test(ring, omega, trunc=trunc, tol=tol, seed=seed)
    return _verdict_report(cmd, {"ring": ring_echo, "omega": omega, "trunc": trunc,
                                 "tol": tol, "seed": seed},
                           verdict.operator, verdict, seed)


def _run_sweep(args, config):
    cmd = "sweep"
    tol = _get(args, config, cmd, "tol", CERT_TOL, _as_float)
    seed = _get(args, config, cmd, "seed", DEFAULT_SEED, _as_seed)
    sizes = _get(args, config, cmd, "sizes", required=True, cast=_as_int_list)
    omega = _get(args, config, cmd, "omega", required=True, cast=_as_str_list)
    ring, ring_echo = _build_ring(args, config, cmd, max(sizes) - 1)
    rep = truncation_sweep(lambda s: fusion.window_operator(ring, omega, s),
                           sizes, tol=tol, seed=seed)
    op = fusion.window_operator(ring, omega, sizes[-1])
    report = {"schema": 1, "version": __version__, "command": cmd,
              "config": {"ring": ring_echo, "omega": omega, "sizes": sizes,
                         "tol": tol, "seed": seed},
              "operator": fingerprint(op), "spectral": rep.to_dict()}
    csv = ("size,radius_estimate", [(s, r) for s, r in rep.truncation_trace])
    return report, csv


def _run_walk(args, config):
    cmd = "walk"
    tol = _get(args, config, cmd, "tol", 5e-2, _as_float)
    seed = _get(args, config, cmd, "seed", DEFAULT_SEED, _as_seed)
    group = walks.parse_group(_get(args, config, cmd, "group", required=True))
    radius = _get(args, config, cmd, "radius", required=True, cast=_as_int)
    omega = _get(args, config, cmd, "omega", None, _as_str_list)
    weights_raw = _get(args, config, cmd, "weight")
    weights = _as_weights(weights_raw, "weight") if weights_raw else None
    verdict = walks.kesten_test(group, radius, omega=omega, tol=tol, seed=seed,
                                weights=weights)
    vd = verdict.to_dict()
    notes = vd["notes"]
    spectral = notes.pop("final_spectral")
    finger = notes.pop("final_operator")
    if not all(notes["eigensolver_converged"]):
        bad = [r for r, ok in zip(notes["radii"], notes["eigensolver_converged"])
               if not ok]
        raise ConvergenceError(f"eigensolver did not converge at radius {bad}")
    report = {"schema": 1, "version": __version__, "command": cmd,
              "config": {"group": group.name, "radius": radius,
                         "omega": omega, "weight": weights,
                         "tol": tol, "seed": seed},
              "operator": finger, "spectral": spectral, "verdict": vd}
    csv = ("size,radius_estimate",
           list(zip(notes["ball_sizes"], notes["radius_estimates"])))
    return report, csv


def _run_semidirect(args, config):
    cmd = "semidirect"
    tol = _get(args, config, cmd, "tol", 5e-2, _as_float)
    seed = _get(args, config, cmd, "seed", DEFAULT_SEED, _as_seed)
    a, b = _as_colon_pair(_get(args, config, cmd, "interval", required=True),
                          "interval")
    h, max_r = _as_colon_pair(_get(args, config, cmd, "grid", required=True),
                              "grid")
    ms = _get(args, config, cmd, "witness_m", [2.0, 4.0, 8.0], _as_float_list)
    grid = semidirect.half_line_grid(h, max_r)
    verdict = semidirect.interval_spectrum_test(grid, a, b, ms, tol=tol, seed=seed)
    return _verdict_report(cmd, {"interval": [a, b], "grid": {"h": h, "max_r": max_r},
                                 "witness_m": ms, "tol": tol, "seed": seed},
                           verdict.operator, verdict, seed)


def _run_bicrossed(args, config):
    cmd = "bicrossed"
    tol = _get(args, config, cmd, "tol", 5e-2, _as_float)
    seed = _get(args, config, cmd, "seed", DEFAULT_SEED, _as_seed)
    bounds = _get(args, config, cmd, "bound", required=True, cast=_as_int_list)
    shift = _get(args, config, cmd, "shift", required=True, cast=_as_int_list)
    if len(shift) != 2:
        raise InputError("shift must be a pair 'r,rp'")
    fwd = semidirect.canonical_pair(shift[0], shift[1])
    omega = sorted({fwd, semidirect.canonical_pair(-shift[0], -shift[1])})
    verdict = semidirect.bicrossed_amenability_test(bounds, omega, tol=tol, seed=seed)
    # a sweep verdict carries no operator: rebuild the largest box to report on
    op = semidirect.pair_window_operator(semidirect.pair_lattice(bounds[-1]), omega)
    return _verdict_report(cmd, {"bound": bounds, "shift": list(shift),
                                 "window": [list(s) for s in omega],
                                 "tol": tol, "seed": seed},
                           op, verdict, seed)


def _run_validate(args, config):
    path = args.descriptor
    desc = fusion.load_descriptor_file(path)
    rows = fusion.validate_descriptor(desc)
    report = {"schema": 1, "version": __version__, "command": "validate",
              "descriptor": path, "axioms": rows,
              "all_passed": all(r["passed"] for r in rows)}
    return report, None


_DISPATCH = {"fusion": _run_fusion, "walk": _run_walk,
             "semidirect": _run_semidirect, "bicrossed": _run_bicrossed,
             "sweep": _run_sweep, "validate": _run_validate}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", help="certification tolerance")
    common.add_argument("--seed", help="random seed for the eigensolvers")
    common.add_argument("--output", help="write the JSON report here instead of stdout")
    common.add_argument("--csv", help="also write a CSV summary to this path")
    common.add_argument("--timings", action="store_true", default=None,
                        help="include wall time in the report (breaks byte determinism)")

    p = argparse.ArgumentParser(
        prog="amenspec",
        description="Spectral membership tests for fusion rings, group walks, "
                    "and half-line reflection families.")
    sub = p.add_subparsers(dest="command")

    f = sub.add_parser("fusion", parents=[common],
                       help="window-mass membership test on a fusion ring")
    f.add_argument("--ring", help="'free-su2' or a path to a ring descriptor JSON")
    f.add_argument("--N", dest="N", help="rule parameter (free-su2 only)")
    f.add_argument("--level", help="closure level for rule rings (default trunc-1)")
    f.add_argument("--omega", help="comma list of window labels, e.g. a1")
    f.add_argument("--trunc", help="truncation size (default 2000, capped at ring size)")

    w = sub.add_parser("walk", parents=[common],
                       help="Cayley-walk growth test on Z^d or F_k")
    w.add_argument("--group", help="group spec: 'Z^d:<d>' or 'F:<k>'")
    w.add_argument("--radius", help="largest ball radius; swept from 1")
    w.add_argument("--omega", help="comma list of generator names (default all)")
    w.add_argument("--weight", action="append",
                   help="generator weight name=value; repeatable")

    s = sub.add_parser("semidirect", parents=[common],
                       help="interval-mass membership test on the half-line grid")
    s.add_argument("--interval", help="window 'a:b' on the half line")
    s.add_argument("--grid", help="grid spec 'h:max_r'")
    s.add_argument("--witness-m", dest="witness_m",
                   help="comma list of witness band scales (default 2,4,8)")

    b = sub.add_parser("bicrossed", parents=[common],
                       help="pair-class membership test over a box sweep")
    b.add_argument("--bound", help="box bound B, or comma list for a sweep")
    b.add_argument("--shift", help="shift pair 'r,rp'; its negation is added")

    sw = sub.add_parser("sweep", parents=[common],
                        help="truncation sweep of a fusion window operator")
    sw.add_argument("--ring", help="'free-su2' or a path to a ring descriptor JSON")
    sw.add_argument("--N", dest="N", help="rule parameter (free-su2 only)")
    sw.add_argument("--level", help="closure level (default max size - 1)")
    sw.add_argument("--omega", help="comma list of window labels")
    sw.add_argument("--sizes", help="comma list of strictly increasing truncations")

    v = sub.add_parser("validate", parents=[common],
                       help="check the ring axioms of a descriptor file")
    v.add_argument("descriptor", help="path to the ring descriptor JSON")
    return p


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(payload, path: str) -> None:
    header, rows = payload
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _emit_error(kind: str, message: str) -> None:
    sys.stdout.write(json.dumps(
        {"schema": 1, "error": {"type": kind, "message": message}},
        indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = _load_env_config()
        started = time.monotonic()
        report, csv_payload = _DISPATCH[args.command](args, config)
        elapsed = time.monotonic() - started
        if _get(args, config, args.command, "timings", False, _as_bool):
            report["wall_time_s"] = round(elapsed, 6)
        out_path = _get(args, config, args.command, "output")
        csv_path = _get(args, config, args.command, "csv")
        if csv_path is not None and csv_payload is None:
            raise InputError(f"{args.command} emits no CSV")
        _emit(report, out_path)
        if csv_path is not None:
            _emit_csv(csv_payload, csv_path)
        return 0
    except ConvergenceError as e:
        _emit_error("convergence", str(e))
        return 3
    except ValidationError as e:
        _emit_error("validation", str(e))
        return 2
    except InputError as e:
        _emit_error("input", str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
