"""One measured process of the qsk benchmark.

Imports qsk from the checkout's ``src/``, runs one untimed warm-up request,
then a closed loop of requests for ``--seconds`` of wall time, re-issues
the warm-up and prints one JSON line with what it measured.  ``run.py``
starts it; ``--mode setup`` stops after the warm-up, ``--mode trace``
traces every other cycle of requests and leaves the cycles between
untraced.

Every time it reports is CPU time of this process (``time.process_time``),
not wall time.  The process has one thread (BLAS is pinned to one), so
its CPU time is the request's own work, and time the host takes away
from it (steal on a shared virtual machine, other tenants) is left out.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import qsk  # noqa: E402
import qsk.cli  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

if not Path(qsk.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"qsk imported from {qsk.__file__}, not from {SRC}")


def call(argv: list[str]) -> Call:
    """``qsk.cli.main(argv)`` with both streams captured, timed in CPU
    seconds; looked up per call so that an installed span wrapper is used."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qsk.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return Call(rc, out.getvalue(), err.getvalue(), time.process_time() - start)


def blas_info() -> dict:
    info = {}
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (ImportError, KeyError, TypeError, AttributeError):
        pass
    info["threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = Path(lib).name
                return info
    return info


def fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "qsk_file": str(Path(qsk.__file__).relative_to(ROOT)),
        "clock": "time.process_time",
    }


def transcript(calls: list[Call]) -> list:
    return [[c.rc, c.out, c.err] for c in calls]


def per_layer(tracer: spans.Tracer, traced: list[tuple[int, bool]], misses: int,
              cycles: list[tuple[bool, float]]) -> dict:
    """Per-traced-request counts and self times, and the tracing overhead."""
    n = max(len(traced), 1)
    accepted = {i for i, ok in traced if ok}
    calls = dict.fromkeys(spans.SPANS, 0)
    self_s = dict.fromkeys(spans.SPANS, 0.0)
    in_accepted = dict.fromkeys(spans.SPANS, 0)
    # spans are recorded parent first, so one pass marks every descendant
    under_extract: list[bool] = []
    eig_in_extract = errors = 0
    for rec, own in zip(tracer.spans, tracer.self_times()):
        name, parent, request, error = rec[0], rec[3], rec[4], rec[5]
        inside = parent >= 0 and (
            under_extract[parent] or tracer.spans[parent][0] == "selftest.extract"
        )
        under_extract.append(inside)
        calls[name] += 1
        self_s[name] += own
        if request in accepted:
            in_accepted[name] += 1
            eig_in_extract += inside and name == "linalg.eig_unitary"
        if name == "selftest.extract" and error == "ExtractionError":
            errors += 1
    metrics = {}
    for layer, functions in spans.LAYERS.items():
        total = 0.0
        for fn in functions:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = (calls[name] / n, "count")
            metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
            total += self_s[name]
        metrics[f"{layer}.self_s"] = (total / n, "s")
    n_acc = max(len(accepted), 1)
    # cycles alternate traced, untraced; each traced one is paired with the next
    pairs = [t / u for (_, t), (_, u) in zip(cycles[0::2], cycles[1::2]) if u > 0]
    metrics.update({
        "bell.correlators_per_request": (
            in_accepted["bell.correlators_from_realization"] / n_acc, "ratio"),
        "selftest.extract.eig_unitary_calls": (eig_in_extract / n_acc, "count"),
        "cyclotomic.cyclotomic_poly.misses": (misses / n, "count"),
        "selftest.extract.errors": (errors / n, "count"),
        "trace_overhead_ratio": (statistics.median(pairs), "ratio"),
    })
    bases = {
        "traced_requests": len(traced),
        "accepted_traced_requests": len(accepted),
        "cycle_pairs": len(pairs),
    }
    return {"metrics": metrics, "bases": bases}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the trace spans here (trace mode)")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    warm_calls, warm = workload.run(workload.WARMUP, call)
    # CPU time since the process started: interpreter, imports and warm-up
    setup_s = time.process_time()
    result = {"setup_s": setup_s, "warmup_ok": warm.ok, "warmup_reason": warm.reason}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = spans.Tracer(qsk) if args.mode == "trace" else None
    cache_fn = qsk.cyclotomic.cyclotomic_poly
    cycle = workload.cycle
    traced: list[tuple[int, bool]] = []
    cycles: list[tuple[bool, float]] = []  # (traced, CPU seconds) of each cycle
    latencies, reasons, headroom = [], [], []
    attempted = failed = ok_count = misses = 0

    i = 0
    wall = time.monotonic()
    start = time.process_time()
    # A run ends on a whole cycle, so every run sees the same mix of requests
    # and the counts of traced cycles repeat exactly.  Trace mode alternates
    # whole cycles, traced and untraced, so both halves see the same mix and
    # the same cache history, and it runs at least one of each.
    while (time.monotonic() - wall < args.seconds or i % cycle
           or (tracer is not None and i < 2 * cycle)):
        tracing = tracer is not None and (i // cycle) % 2 == 0
        if i % cycle == 0:
            cycles.append((tracing, 0.0))
            if tracing:
                misses_before = cache_fn.cache_info().misses
                tracer.install()
        if tracing:
            tracer.request = i
        calls, verdict = workload.run(i, call)
        latency = sum(c.seconds for c in calls)
        cycles[-1] = (tracing, cycles[-1][1] + latency)
        if tracing:
            traced.append((i, verdict.accepted))
            if (i + 1) % cycle == 0:
                tracer.uninstall()
                misses += cache_fn.cache_info().misses - misses_before
        attempted += 1
        latencies.append(latency)
        if verdict.ok:
            ok_count += 1
            headroom.extend(verdict.headroom)
        else:
            failed += 1
            reasons.append(f"request {i}: {verdict.reason}")
        i += 1
    window = time.process_time() - start

    again, _ = workload.run(workload.WARMUP, call)
    identical = transcript(again) == transcript(warm_calls)
    result.update(
        attempted=attempted,
        failed=failed,
        ok=ok_count,
        window_s=window,
        latencies=latencies,
        headroom=headroom,
        reasons=reasons[:20],
        byte_identical=identical,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=fingerprint(args.workload, args.seed),
    )
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, traced, misses, cycles)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
