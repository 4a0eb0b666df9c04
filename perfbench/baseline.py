"""Run every workload over several seeds and record the numbers.

    python3 perfbench/baseline.py --sets 1 11 --runs 10 --traced 1 --out perfbench/baseline.json
    python3 perfbench/baseline.py --sets 1 --runs 10 --compare perfbench/baseline.json

Each set runs every workload ``--runs`` times untraced, with seeds from
the set's first seed onwards, and ``--traced`` times traced.  For every
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median) next to the bound in
``BENCHMARK.json``, and how far the median moved from the first set's
(or, with ``--compare``, from the first set of that file), in the worse
direction, as a share of it.  ``--out`` writes every run, the summaries
and the environment of the measured process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HIGHLIGHTS = (
    "bell.expectation.self_s",
    "bell.correlators_per_request",
    "selftest.extract.eig_unitary_calls",
    "cyclotomic.cyclotomic_poly.misses",
    "selftest.extract.errors",
    "trace_overhead_ratio",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    result = json.loads(lines[-1])
    # the table rows read "<name> <value> <unit> n=<samples>"
    samples = {row[0]: int(row[-1][2:]) for row in map(str.split, lines)
               if row and row[0] in result["metrics"] and row[-1].startswith("n=")}
    return {"seed": seed, "env": env, "result": result, "samples": samples}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_set(names, seeds, traced_runs, spec, bounds, reference) -> dict:
    out = {}
    for name in names:
        untraced = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = [run_once(name, s, spec["run_seconds"], 1) for s in seeds[:traced_runs]]
        summary = {}
        print(f"== {name}: seeds {seeds[0]}..{seeds[-1]}, {len(untraced)} untraced runs, "
              f"{len(traced)} traced", flush=True)
        for metric, m in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in untraced]
            s = summarize(values)
            s["samples_per_run"] = statistics.median(r["samples"][metric] for r in untraced)
            summary[metric] = s
            line = (f"  {metric:<16} {m['unit']:<6} median {s['median']:<11.6g} "
                    f"q1 {s['q1']:<11.6g} q3 {s['q3']:<11.6g} n/run {s['samples_per_run']:<5g} "
                    f"spread {s['spread']:.4f} (bound {m['bound']})")
            if name in reference:
                base = reference[name]["summary"][metric]["median"]
                sign = 1 if m["better"] == "lower" else -1
                line += f" worse-by {sign * (s['median'] - base) / base:+.4f}"
            print(line, flush=True)
        for r in traced:
            m = r["result"]["metrics"]
            modules = {k[: -len(".self_s")]: v["value"] for k, v in m.items()
                       if k.count(".") == 1 and k.endswith(".self_s")}
            total = sum(modules.values())
            shares = " ".join(f"{k} {v / total:.0%}" for k, v in modules.items() if v)
            ratios = " ".join(f"{k} {m[k]['value']:.4g}" for k in HIGHLIGHTS)
            print(f"  traced seed {r['seed']}: self-time shares: {shares}")
            print(f"  traced seed {r['seed']}: {ratios}", flush=True)
        failures = [(r["seed"], r["result"]["failed"]) for r in untraced + traced
                    if not r["result"]["correct"]]
        if failures:
            print(f"  incorrect runs (seed, failed): {failures}")
        out[name] = {
            "summary": summary,
            "env": untraced[0]["env"],
            "untraced": [{"seed": r["seed"], "samples": r["samples"], **r["result"]}
                         for r in untraced],
            "traced": [{"seed": r["seed"], "samples": r["samples"], **r["result"]}
                       for r in traced],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, nargs="+", default=[1],
                        help="first seed of each set of runs")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need --runs 2 or more")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    reference = {}
    if args.compare:
        reference = json.loads(Path(args.compare).read_text())["sets"][0]["workloads"]
    out = {"run_seconds": spec["run_seconds"], "sets": []}
    for first in args.sets:
        seeds = list(range(first, first + args.runs))
        workloads = run_set(names, seeds, args.traced, spec, bounds, reference)
        out["sets"].append({"first_seed": first, "workloads": workloads})
        reference = reference or workloads
        if args.out:
            Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
