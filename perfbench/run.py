"""Benchmark of the amenspec CLI, end to end or layer by layer.

    python3 perfbench/run.py --workload fusion-free3 --seed 7 --seconds 30 --trace 0

Run from the repository root. One process, one closed-loop client: the
workload's command goes through ``amenspec.cli.main`` again and again until
``--seconds`` have passed, each time writing its report to a file that is
then checked against the closed forms in oracle.py. ``--seed`` is passed to
the CLI as ``--seed``. After each command, a fresh interpreter importing
``amenspec.cli`` times the set-up every CLI call pays. The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one BLAS thread: with the main thread that is nproc = 2 on the reference
# host, and one thread was faster and steadier than two on the fusion command
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_CHILD = (
    "import time; t0 = time.perf_counter()\n"
    "import numpy, scipy.sparse, scipy.linalg; t1 = time.perf_counter()\n"
    "import amenspec.cli; t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, amenspec.cli.__file__)\n")

LAYER_TIMES = ("fusion.validate", "fusion.build", "walks.ball", "walks.cayley",
               "semidirect.build", "spectral.solve", "spectral.certify")
LAYER_COUNTS = ("walks.ball_elements", "spectral.solve_iterations",
                "spectral.operator_nnz")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AMENSPEC_CONFIG"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_start() -> tuple:
    """(total, numpy/scipy import, amenspec import) seconds of one fresh start."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60)
    total = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"importing amenspec.cli failed:\n{done.stderr}")
    libs, pkg, path = done.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported amenspec from {path}, not {SRC}")
    return total, float(libs), float(pkg)


def run_rounds(cli, workload, seed: int, seconds: float, tracer):
    """Closed loop of rounds until seconds pass: one command, one fresh start.

    Set-up starts are spread over the run, between commands, so that their
    median does not hinge on one moment of the host. The first round is the
    warm-up: its command is checked but not timed, and its start only warms
    the file cache. Returns (command records, set-up starts, spans).
    """
    out_path = OUT / f"{workload.name}-{seed}.json"
    argv = list(workload.argv) + ["--seed", str(seed), "--output", str(out_path)]
    records, setup, spans = [], [], []
    first_text = None
    loop_start = None
    while True:
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            rc = tracer.call("cli", cli.main, argv) if tracer else cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = None
        wall = time.perf_counter() - t0
        rec = {"rc": rc, "wall": wall, "problems": []}
        if tracer:
            root = tracer.spans[0]
            rec["wall"] = root.end - root.start
            rec["self"] = tracer.self_times()
            rec["counts"] = dict(tracer.counts)
            spans.append([vars(s) for s in tracer.spans])
        if rc == 0:
            text = out_path.read_text(encoding="utf-8")
            first_text = first_text or text
            if text != first_text:
                rec["problems"].append("report differs from the run's first report")
            rec["report"] = json.loads(text)
            rec["problems"] += workload.check(rec["report"])
        records.append(rec)
        start = setup_start()
        if loop_start is None:
            loop_start = time.perf_counter()
            continue
        setup.append(start)
        if time.perf_counter() - loop_start >= seconds:
            return records, setup, spans


def end_to_end(setup, timed, workload) -> dict:
    import oracle
    reports = [r["report"] for r in timed if "report" in r]
    digits = (oracle.radius_digits(reports[0]["spectral"]["radius_estimate"],
                                   workload.radius) if reports else 0.0)
    return {
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "run_s": (statistics.median(r["wall"] for r in timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "radius_digits": (digits, "digits"),
    }


def per_layer(setup, first, timed) -> dict:
    """Layer figures of the median traced command, so self times add up."""
    mid = sorted(timed, key=lambda r: r["wall"])[(len(timed) - 1) // 2]
    self_s, counts = mid["self"], mid["counts"]
    out = {"cli.self_s": (self_s["cli"], "s")}
    for layer in LAYER_TIMES:
        out[layer + "_s"] = (self_s.get(layer, 0.0), "s")
        out[layer + "_calls"] = (counts.get(layer + "_calls", 0), "count")
    for name in LAYER_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    out["traced.run_s"] = (mid["wall"], "s")
    out["first_command_s"] = (first["wall"], "s")
    out["setup.interpreter_s"] = (statistics.median(t - a - b for t, a, b in setup), "s")
    out["setup.numpy_scipy_s"] = (statistics.median(a for _, a, _ in setup), "s")
    out["setup.amenspec_s"] = (statistics.median(b for _, _, b in setup), "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "amenspec" / "cli.py").is_file():
        print(f"no amenspec sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)       # before numpy is first imported
    os.environ.pop("AMENSPEC_CONFIG", None)
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    import amenspec.cli as cli
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    OUT.mkdir(exist_ok=True)
    try:
        records, setup, spans = run_rounds(cli, workload, args.seed, args.seconds,
                                           tracer)
    finally:
        if tracer:
            tracer.restore()
    first, timed = records[0], records[1:]
    problems = [p for r in records for p in r["problems"]]
    if tracer:
        problems += [f"counts {r['counts']} differ from {first['counts']}"
                     for r in records if r["counts"] != first["counts"]]
        (OUT / f"spans-{workload.name}-{args.seed}.json").write_text(
            json.dumps(spans), encoding="utf-8")
    for msg in dict.fromkeys(problems):
        print(f"check failed: {msg}", file=sys.stderr)
    ok = [r for r in timed if r["rc"] == 0] or [first]
    metrics = per_layer(setup, first, ok) if tracer else end_to_end(setup, ok, workload)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["rc"] != 0 for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
