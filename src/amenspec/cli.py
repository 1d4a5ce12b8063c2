"""Command line surface: one run per process, one JSON report per run.

Reports are deterministic for a fixed command line and seed: keys are
sorted, wall time is omitted unless requested with --timings, and the
seed picks only the shift-invert start vector. Exit status 0 means the run
completed (certified or not) with every eigensolve converged; 2 means bad
input or a failed ring axiom; 3 means an eigensolve spent its budget, a
LAPACK routine failed, or a report held NaN or infinity, which JSON cannot
hold. Every error, a parser error too, is a JSON object on stdout.

A JSON config file named by the environment variable AMENSPEC_CONFIG
supplies defaults: top-level keys apply to every command, per-command
sections override them, explicit flags override both. Keys use the flag
spelling with dashes turned into underscores; unknown keys are errors. A
report's config, its command's resolved options but --output, --csv and
--timings, read back as that command's section gives the same report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from scipy.linalg import LinAlgError

from . import __version__, fusion, semidirect, walks
from .spectral import (CERT_TOL, DEFAULT_SEED, InputError, SpectralReport, ValidationError,
                       _read_json, fingerprint, spectral_radius, truncation_sweep)

CONFIG_ENV = "AMENSPEC_CONFIG"


class ConvergenceError(RuntimeError):
    """An eigensolver failed to stabilize within its iteration budget."""


def _check_solved(items: list, solved: list, what: str) -> None:
    """Raise ConvergenceError unless the solve at each item converged."""
    bad = [x for x, ok in zip(items, solved) if not ok]
    if bad:
        raise ConvergenceError(f"eigensolver did not converge at {what} {bad}")


def _load_env_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    obj = _read_json(path, f"config file {path!r}")
    if not isinstance(obj, dict):
        raise InputError("config file must hold a JSON object")
    return obj


# -- value casts shared by flags and config entries --------------------------


def _ascii(v) -> None:
    """Refuse a string that float() or int() reads but a reader may not: one
    with a non-ASCII digit (Arabic-Indic, fullwidth, ...) or a '_' separator."""
    if isinstance(v, str) and not (v.isascii() and "_" not in v):
        raise ValueError


def _as_float(v, what) -> float:
    try:
        if isinstance(v, bool):
            raise TypeError
        _ascii(v)
        return float(v)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number, got {v!r}") from None


def _as_int(v, what) -> int:
    try:
        if isinstance(v, bool):
            raise TypeError
        _ascii(v)
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


def _as_str(v, what) -> str:
    return str(v)


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


def _list_of(cast):
    """Cast of a comma list that casts each item."""
    return lambda v, what: [cast(s, what) for s in _as_list(v, what)]


def _as_colon_pair(v, what) -> tuple:
    parts = v if isinstance(v, (list, tuple)) else str(v).split(":")
    if len(parts) != 2:
        raise InputError(f"{what} must look like 'lo:hi'")
    return _as_float(parts[0], what), _as_float(parts[1], what)


def _as_weights(v, what) -> dict | None:
    if isinstance(v, dict):
        return {str(k): _as_float(w, what) for k, w in v.items()} or None
    out = {}
    for item in v:
        name, sep, val = str(item).partition("=")
        if not sep or not name:
            raise InputError(f"{what} entries must look like name=value")
        if name in out:
            raise InputError(f"{what} repeats generator {name!r}")
        out[name] = _as_float(val, what)
    return out or None          # no weights: unit weights on omega


# -- command runners: a solve returns (operator, result), its resolved defaults written into o


def _build_ring(o: dict, default_level: int):
    """The ring of --ring, --N and --level."""
    if o["ring"] == fusion.FREE_SU2:
        if o["N"] is None:
            raise InputError(f"--ring {fusion.FREE_SU2} requires --N")
        if o["level"] is None:
            o["level"] = default_level
        return fusion.free_su2_ring(o["N"], o["level"])
    if o["N"] is not None or o["level"] is not None:
        raise InputError("--N and --level apply only to --ring free-su2")
    return fusion.load_ring(fusion.load_descriptor_file(o["ring"]))


def _run_fusion(o: dict):
    ring = _build_ring(o, (o["trunc"] or 2000) - 1)
    if o["trunc"] is None:
        o["trunc"] = min(2000, ring.size)
    verdict = fusion.coamenability_test(ring, o["omega"], trunc=o["trunc"], tol=o["tol"],
                                        seed=o["seed"])
    return verdict.operator, verdict


def _run_sweep(o: dict):
    # one operator at the largest size; every smaller size is a leading block of it
    ring = _build_ring(o, max(o["sizes"]) - 1)
    op = fusion.window_operator(ring, o["omega"], max(o["sizes"]))
    return op, truncation_sweep(op, o["sizes"], tol=o["tol"])


def _run_walk(o: dict):
    verdict = walks.kesten_test(walks.parse_group(o["group"]), o["radius"], omega=o["omega"],
                                tol=o["tol"], weights=o["weight"])
    _check_solved(verdict.notes["radii"], verdict.notes["eigensolver_converged"], "radius")
    return verdict.operator, verdict


def _run_semidirect(o: dict):
    (a, b), (h, max_r) = o["interval"], o["grid"]
    verdict = semidirect.interval_spectrum_test(semidirect.half_line_grid(h, max_r), a, b,
                                                o["witness_m"], tol=o["tol"], seed=o["seed"])
    return verdict.operator, verdict


def _run_bicrossed(o: dict):
    bounds, shift = o["bound"], o["shift"]
    if len(shift) != 2:
        raise InputError("shift must be a pair 'r,rp'")
    omega = sorted({semidirect.canonical_pair(s * shift[0], s * shift[1]) for s in (1, -1)})
    verdict = semidirect.bicrossed_amenability_test(bounds, omega, tol=o["tol"],
                                                    seed=o["seed"])
    _check_solved(bounds, verdict.notes["eigensolver_converged"], "bound")
    # a sweep verdict carries no operator: rebuild the largest box, solve it, report on it
    op = semidirect.pair_window_operator(semidirect.pair_lattice(bounds[-1]), omega)
    verdict.spectral = spectral_radius(op)
    return op, verdict


def _run_validate(o: dict) -> dict:
    rows = fusion.validate_descriptor(fusion.load_descriptor_file(o["descriptor"]))
    return {"descriptor": o["descriptor"], "axioms": rows,
            "all_passed": all(r["passed"] for r in rows)}


def _report(o: dict, op, result):
    """Report body and CSV of a command from its options and (operator, result)."""
    report = {"config": {k: v for k, v in o.items() if k not in ("output", "csv", "timings")},
              "operator": fingerprint(op)}
    if isinstance(result, SpectralReport):       # a sweep reports no verdict
        rep, trace = result, result.truncation_trace
    else:
        rep = result.spectral
        if rep is None:                          # the certificate's Lanczos run failed
            raise ConvergenceError("; ".join(result.errors))
        report["verdict"] = result.to_dict()
        notes = result.notes                     # walk: one estimate per ball
        trace = (list(zip(notes["ball_sizes"], notes["radius_estimates"]))
                 if "ball_sizes" in notes else None)
    if rep.stop == "budget":                     # a sweep's, at any of its sizes
        raise ConvergenceError(f"the eigensolver spent its budget of {rep.iterations} steps")
    report["spectral"] = rep.to_dict()
    if trace is None:
        return report, ("index,eigenvalue", list(enumerate(rep.top_eigenvalues)))
    return report, ("size,radius_estimate", trace)


# -- the command table ---------------------------------------------------------
#
# A flag is (spelling, help, cast, default); a default of _REQUIRED makes it
# required. Its config key is the spelling without dashes, the rest turned
# into underscores; positionals come from the command line only. A command is
# (help, --tol default, runner, flags); one that solves nothing, with --tol
# default None, takes no --tol and no --seed.

_REQUIRED = object()
_SEED = ("--seed", "seed of the shift-invert start vector", _as_seed, DEFAULT_SEED)
_COMMON = (
    ("--output", "write the JSON report here instead of stdout", _as_str, None),
    ("--csv", "also write a CSV summary to this path", _as_str, None),
    ("--timings", "include wall time in the report (breaks byte determinism)", _as_bool, False),
)
_RING = (
    ("--ring", "'free-su2' or a path to a ring descriptor JSON", _as_str, _REQUIRED),
    ("--N", "rule parameter (free-su2 only)", _as_float, None),
    ("--level", "closure level for rule rings (default: largest size - 1)", _as_int, None),
    ("--omega", "comma list of window labels, e.g. a1", _list_of(_as_str), _REQUIRED),
)
_COMMANDS = {
    "fusion": ("window-mass membership test on a fusion ring", CERT_TOL, _run_fusion, _RING + (
        ("--trunc", "truncation size (default 2000, capped at ring size)", _as_int, None),)),
    "walk": ("Cayley-walk growth test on Z^d or F_k", 5e-2, _run_walk, (
        ("--group", "group spec: 'Z^d:<d>' or 'F:<k>'", _as_str, _REQUIRED),
        ("--radius", "largest ball radius; swept from 1", _as_int, _REQUIRED),
        ("--omega", "comma list of generator names (default all)", _list_of(_as_str), None),
        ("--weight", "generator weight name=value; repeatable", _as_weights, None))),
    "semidirect": ("interval-mass membership test on the half-line grid", 5e-2, _run_semidirect, (
        ("--interval", "window 'a:b' on the half line", _as_colon_pair, _REQUIRED),
        ("--grid", "grid spec 'h:max_r'", _as_colon_pair, _REQUIRED),
        ("--witness-m", "comma list of witness band scales (default 2,4,8)",
         _list_of(_as_float), [2.0, 4.0, 8.0]))),
    "bicrossed": ("pair-class membership test over a box sweep", 5e-2, _run_bicrossed, (
        ("--bound", "box bound B, or comma list for a sweep", _list_of(_as_int), _REQUIRED),
        ("--shift", "shift pair 'r,rp'; its negation is added", _list_of(_as_int), _REQUIRED))),
    "sweep": ("truncation sweep of a fusion window operator", CERT_TOL, _run_sweep, _RING + (
        ("--sizes", "comma list of strictly increasing sizes", _list_of(_as_int), _REQUIRED),)),
    "validate": ("check the ring axioms of a descriptor file", None, _run_validate, (
        ("descriptor", "path to the ring descriptor JSON", _as_str, _REQUIRED),)),
}


def _flags(cmd: str) -> tuple:
    _, tol, _, own = _COMMANDS[cmd]
    solve = () if tol is None else (("--tol", "certification tolerance", _as_float, tol), _SEED)
    return solve + _COMMON + own


def _key(spelling: str) -> str:
    return spelling.lstrip("-").replace("-", "_")


def _check_config(config: dict) -> None:
    """Reject config keys that name no command or no flag of their command."""
    keys = {cmd: {_key(f) for f, *_ in _flags(cmd) if f.startswith("--")}
            for cmd in _COMMANDS}
    for k, v in config.items():
        if k in keys:
            if not isinstance(v, dict):
                raise InputError(f"config section {k!r} must be a JSON object")
            unknown = sorted(set(v) - keys[k])
            if unknown:
                raise InputError(f"config section {k!r} has unknown key(s) {unknown}")
        elif not any(k in ks for ks in keys.values()):
            raise InputError(f"config key {k!r} names no command and no flag of one")


def _options(cmd: str, args, config: dict) -> dict:
    """Every flag of cmd: given on the command line, else in cmd's config
    section, else at the config top level, else its default."""
    _check_config(config)
    section = config.get(cmd, {})
    opts = {}
    for spelling, _, cast, default in _flags(cmd):
        key = _key(spelling)
        v = getattr(args, key)
        if v is None:
            v = section[key] if key in section else config.get(key)
        if v is None and default is _REQUIRED:
            raise InputError(f"{cmd} requires {spelling}")
        opts[key] = default if v is None else cast(v, key)
    return opts


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # a JSON input error, not usage on stderr
        raise InputError(message)


def _glued(argv: list) -> list:
    """argv with each value flag joined to its value, which may start with '-'."""
    valued = {f for cmd in _COMMANDS for f, _, cast, _ in _flags(cmd)
              if f.startswith("--") and cast is not _as_bool}
    out = []
    for word in argv:
        if out and out[-1] in valued:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _add_flags(p: argparse.ArgumentParser, cmd: str) -> argparse.ArgumentParser:
    for spelling, help_, cast, _ in _flags(cmd):
        # flags default to None, so that the config file can fill them in
        kw = ({"action": "store_true", "default": None} if cast is _as_bool
              else {"action": "append"} if cast is _as_weights else {})
        p.add_argument(spelling, help=help_, **kw)
    return p


def _build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The parser of cmd's flags alone, or, without cmd, of every command;
    allow_abbrev=False leaves one spelling per flag."""
    if cmd is not None:
        return _add_flags(_Parser(prog=f"amenspec {cmd}", allow_abbrev=False), cmd)
    p = _Parser(
        prog="amenspec",
        description="Spectral membership tests for fusion rings, group walks, "
                    "and half-line reflection families.", allow_abbrev=False)
    sub = p.add_subparsers(dest="command")
    for cmd, (text, *_) in _COMMANDS.items():
        _add_flags(sub.add_parser(cmd, help=text, allow_abbrev=False), cmd)
    return p


def _json(report: dict) -> str:
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:         # NaN or infinity, which JSON has no word for
        raise ConvergenceError(f"the report holds a non-finite number: {e}") from None


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:            # an empty path, a directory, no permission
        raise InputError(f"cannot write the {what}: {e}") from None


def _emit_error(kind: str, message: str) -> None:
    sys.stdout.write(_json({"schema": 1, "error": {"type": kind, "message": message}}))


def main(argv=None) -> int:
    argv = _glued(sys.argv[1:] if argv is None else argv)
    # a run builds only its command's parser; anything else gets every command's
    one = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser(one)
    try:
        args = parser.parse_args(argv[1:] if one else argv)
        cmd = one or args.command
        if cmd is None:
            parser.print_usage(sys.stderr)
            return 2
        o = _options(cmd, args, _load_env_config())
        started = time.monotonic()
        out = _COMMANDS[cmd][2](o)
        body, csv_payload = (out, None) if cmd == "validate" else _report(o, *out)
        report = {"schema": 1, "version": __version__, "command": cmd, **body}
        elapsed = time.monotonic() - started
        if o["timings"]:
            report["wall_time_s"] = round(elapsed, 6)
        if o["csv"] is not None and csv_payload is None:
            raise InputError(f"{cmd} emits no CSV")
        text = _json(report)        # the CSV first: stdout gets the report or one error
        if o["csv"] is not None:
            header, rows = csv_payload
            _write(o["csv"], "".join(f"{','.join(map(str, r))}\n" for r in [[header], *rows]), "CSV")
        if o["output"]:
            _write(o["output"], text, "report")
        else:
            sys.stdout.write(text)
        return 0
    except (ConvergenceError, LinAlgError) as e:     # LAPACK non-convergence included
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
