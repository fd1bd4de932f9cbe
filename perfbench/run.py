"""sgslab benchmark: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload interface-verdict --seed 1 --seconds 40 --trace 0

Runs whole rounds of the workload's operations as long as the next round,
estimated by the last one, ends within --seconds (at least one round),
checks every output, and prints one JSON object as the last line of
standard output: `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones (setup_s, run_s, op_p50_s,
peak_rss_mb), and every round and operation time goes to
perfbench/out/times-<workload>-<seed>.json; with --trace 1 they are the
per-layer ones, which are also written with the round timings to
perfbench/out/trace-<workload>-<seed>.json.  Run from the repository root;
sgslab is imported from ./src.  See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


def _import_sgslab():
    """Import sgslab from this checkout's src/; exit 2 if it is not there."""
    if not (SRC / "sgslab" / "__init__.py").is_file():
        print(f"sgslab sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sgslab

    if Path(sgslab.__file__).resolve().parent != SRC / "sgslab":
        print(f"sgslab imported from {sgslab.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _setup(workload: str, seed: int):
    """Import sgslab and build the workload's inputs: the set-up a user pays
    before the first operation."""
    _import_sgslab()
    return workloads.build(workload, seed, OUT / f"{workload}-{seed}")


def _probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its inputs being built."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, cwd=str(ROOT),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited with {rc}")
    return elapsed


def _run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of `ops` until the next round would end after `seconds`
    (its length, checks included, estimated by the last round's); at least
    one round."""
    attempted = failed = 0
    correct = True
    round_times, op_times = [], [[] for _ in ops]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.begin_round()
        seen: dict = {}
        total = 0.0
        for op, times in zip(ops, op_times):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception:   # an operation that raises is counted failed
                result, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            total += dt
            times.append(dt)
            try:
                problems = [error] if error else op.check(result, seen)
            except Exception:   # output in an unexpected shape
                problems = [traceback.format_exc(limit=3)]
            if problems:
                failed += 1
                if op.fault is None:
                    correct = False
                if len(round_times) == 0:
                    tag = f"known fault {op.fault}" if op.fault else "WRONG"
                    print(f"[{op.name}] {tag}: " + "; ".join(problems), file=sys.stderr)
        round_times.append(total)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return correct, attempted, failed, round_times, op_times


def _write(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    # sgslab's sweep writes its row configs to the temporary directory
    tempfile.tempdir = str(OUT / "tmp")
    Path(tempfile.tempdir).mkdir(parents=True, exist_ok=True)
    ops = _setup(args.workload, args.seed)
    setup_times = [] if args.trace else [_probe_setup(args.workload, args.seed)
                                         for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    correct, attempted, failed, round_times, op_times = _run_rounds(ops, args.seconds, tracer)
    rounds = len(round_times)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(round_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(t for times in op_times for t in times),
                         "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        _write(OUT / f"times-{args.workload}-{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "setup_s": setup_times,
            "round_s": round_times,
            "op_s": {op.name: times for op, times in zip(ops, op_times)},
        })
    else:
        tracer.uninstall()
        metrics = tracer.metrics(rounds)
        _write(OUT / f"trace-{args.workload}-{args.seed}.json", {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": rounds,
            "traced_run_s": round_times,
            "ops": [op.name for op in ops],
            "metrics": metrics,
            "spans": [{"layer": l, "start": a, "end": b, "parent": p}
                      for l, a, b, p in tracer.spans],
        })
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
