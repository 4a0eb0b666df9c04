"""Run one workload of the qsk benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: qsk is imported from its ``src/``, never
from an installed copy.  Each measured process is a fresh ``worker.py``
with a single-threaded BLAS pool and ``QSK_THREADS`` unset.

``--trace 0`` reports the end-to-end metrics: the median request latency,
completed requests per second of the timed window, set-up time (a fresh
process through ``import qsk`` and one warm-up request; the median of
``SETUP_SAMPLES`` processes), peak resident memory of the measuring
process, the share of requests whose outcome matched the oracle, and the
precision headroom ``min log10(tolerance / residual)`` over the checks of
accepted requests.  Times are CPU seconds of the single-threaded measured
process (see ``worker.py``): the window still lasts ``--seconds`` of wall
time, but what the host takes away from the process is not counted.
``--trace 1`` runs one process that alternates traced and untraced cycles
of requests and reports the per-layer metrics of ``spans.py`` (per traced
request) and the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"
# Residuals below one ulp of 1.0 count as one ulp, so a check that an
# exact kernel drives to 0 keeps a finite headroom.
RESIDUAL_FLOOR = sys.float_info.epsilon

END_TO_END = {
    "latency_p50_s": "s",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "headroom_digits": "digits",
}


class BenchmarkError(Exception):
    pass


def start_worker(mode: str, args, workdir: Path, deadline: float, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", str(workdir),
    ]
    if mode == "trace":
        cmd += ["--spans", str(workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(main: dict, setups: list[float]) -> dict:
    lat = main["latencies"]
    headroom = [
        math.log10(tol / max(res, RESIDUAL_FLOOR)) for tol, res in main["headroom"]
    ]
    if not headroom:
        raise BenchmarkError("no accepted request reported a check")
    values = {
        "latency_p50_s": (statistics.median(lat), len(lat)),
        "requests_per_s": (main["ok"] / main["window_s"], main["attempted"]),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
        "success_ratio": (main["ok"] / main["attempted"], main["attempted"]),
        "headroom_digits": (min(headroom), len(headroom)),
    }
    return {name: (v, END_TO_END[name], n) for name, (v, n) in values.items()}


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qsk" / "__init__.py").is_file():
        print(f"error: no qsk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if "QSK_THREADS" in os.environ:
        print("error: unset QSK_THREADS; workloads use the default surface", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if args.trace:
            main = start_worker("trace", args, workdir, deadline, env)
        else:
            for _ in range(SETUP_SAMPLES - 1):
                extra = start_worker("setup", args, workdir, deadline, env)
                if not extra["warmup_ok"]:
                    raise BenchmarkError(f"warm-up failed: {extra['warmup_reason']}")
                setups.append(extra["setup_s"])
            main = start_worker("measure", args, workdir, deadline, env)
            setups.append(main["setup_s"])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layer = main["per_layer"]
        metrics = {name: (v, unit, layer["bases"]["traced_requests"])
                   for name, (v, unit) in layer["metrics"].items()}
    else:
        try:
            metrics = end_to_end(main, setups)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    for reason in main["reasons"]:
        print(f"failed {reason}", file=sys.stderr)
    if not main["warmup_ok"]:
        print(f"warm-up failed: {main['warmup_reason']}", file=sys.stderr)
    if not main["byte_identical"]:
        print("re-issued warm-up output differs from the first one", file=sys.stderr)

    width = max(map(len, metrics))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={n}")
    if args.trace:
        print("bases: " + json.dumps(main["per_layer"]["bases"], sort_keys=True))
    print("env: " + json.dumps(main["env"], sort_keys=True))
    correct = main["failed"] == 0 and main["warmup_ok"] and main["byte_identical"]
    result = {
        "correct": bool(correct),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
