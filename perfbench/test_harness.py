"""Harness tests for the benchmark, at tiny sizes (d = 4).

    python3 -m pytest -q perfbench/test_harness.py

They check that the span wrappers reach every binding of every timed
function, that each function is called on the workloads the layer table
says are heavy for it and not called where the table says none, that
uninstalling leaves no wrapper behind, that tracing changes no output,
and that the oracle rejects a wrong answer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qsk  # noqa: E402
import qsk.cli  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Call, Certify, Extract  # noqa: E402

# enough extract requests to include one perturbed request
REQUESTS = {"certify": 1, "extract": 4, "tables": 2}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: span counts, request results, the tracer and the workload."""
    out = {}
    for name in WORKLOADS:
        workload = WORKLOADS[name](0, str(tmp_path_factory.mktemp(name)), size="tiny")
        tracer = spans.Tracer(qsk)
        tracer.install()
        try:
            results = []
            for i in range(REQUESTS[name]):
                tracer.request = i
                results.append(workload.run(i, worker.call))
        finally:
            tracer.uninstall()
        out[name] = (Counter(rec[0] for rec in tracer.spans), results, tracer, workload)
    return out


def test_every_timed_function_has_a_call_expectation():
    assert set(spans.CALLS) == set(spans.SPANS)
    for heavy, zero in spans.CALLS.values():
        assert heavy and not set(heavy) & set(zero)
        assert set(heavy) | set(zero) <= set(WORKLOADS)


def test_tiny_requests_pass_the_oracle(traced):
    for name, (_, results, _, _) in traced.items():
        for calls, verdict in results:
            assert verdict.ok, (name, verdict.reason)


@pytest.mark.parametrize("span", spans.SPANS)
def test_calls_where_heavy_and_none_where_absent(traced, span):
    heavy, zero = spans.CALLS[span]
    for name in heavy:
        assert traced[name][0][span] > 0, f"{span} not called on {name}"
    for name in zero:
        assert traced[name][0][span] == 0, f"{span} called on {name}"


def test_every_binding_is_wrapped_and_restored():
    tracer = spans.Tracer(qsk)
    originals = {
        (m.__name__, key): value
        for m in tracer.modules
        for key, value in vars(m).items()
        if callable(value)
    }
    tracer.install()
    try:
        assert qsk.bell.eig_unitary is qsk.linalg.eig_unitary is qsk.selftest.eig_unitary
        assert hasattr(qsk.selftest.eig_unitary, spans.MARK)
        for m in (qsk.bell, qsk.selftest, qsk.randomness):
            assert hasattr(m.correlators_from_realization, spans.MARK)
        assert hasattr(qsk.cyclotomic.cyclotomic_poly, spans.MARK)
        assert hasattr(vars(qsk.bell.Realization)["validate"], spans.MARK)
        assert hasattr(vars(qsk.satwap.BellFunctional)["satwap"].__func__, spans.MARK)
        assert len(tracer.leftover_wrappers()) > len(spans.SPANS)
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    for m in tracer.modules:
        for key, value in vars(m).items():
            if (m.__name__, key) in originals:
                assert value is originals[(m.__name__, key)], f"{m.__name__}.{key}"


def test_per_layer_reports_every_metric_of_the_benchmark(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for name, (_, results, tracer, _) in traced.items():
        requests = [(i, verdict.accepted) for i, (_, verdict) in enumerate(results)]
        cycles = [(True, 2.0), (False, 1.0)]
        layer = worker.per_layer(tracer, requests, 3, cycles)
        assert set(layer["metrics"]) == names, name
        assert layer["metrics"]["trace_overhead_ratio"][0] == 2.0
        inside = layer["metrics"]["selftest.extract.eig_unitary_calls"][0]
        assert (inside > 0) == (name == "extract"), name


def test_cyclotomic_recursion_goes_through_the_span(traced):
    counts = traced["tables"][0]
    assert counts["cyclotomic.cyclotomic_poly"] > counts["cli.main"]


def test_tracing_changes_no_output(traced):
    for name, (_, results, _, workload) in traced.items():
        for i, (calls, _) in enumerate(results):
            again, _ = workload.run(i, worker.call)
            assert worker.transcript(again) == worker.transcript(calls), name


def test_self_times_are_nonnegative_and_cover_the_request(traced):
    _, results, tracer, _ = traced["certify"]
    own = tracer.self_times()
    assert min(own) > -1e-6
    request = sum(c.seconds for c in results[0][0])
    assert 0.5 * request < sum(own) <= request


def test_oracle_rejects_loosened_tolerance_and_wrong_exit(tmp_path):
    workload = Certify(0, str(tmp_path), size="tiny")
    calls, verdict = workload.run(0, worker.call)
    assert verdict.ok
    report = json.loads(calls[0].out)
    report["checks"][0]["tolerance"] *= 10
    loosened = [Call(0, json.dumps(report), "", 0.0)]
    assert not workload.run(0, lambda argv: loosened[0])[1].ok
    wrong_exit = Call(1, calls[0].out, "", 0.0)
    assert not workload.run(0, lambda argv: wrong_exit)[1].ok


def test_perturbed_request_must_be_rejected(tmp_path):
    workload = Extract(0, str(tmp_path), size="tiny")
    assert not workload.expected_pass(3)
    calls, verdict = workload.run(3, worker.call)
    assert verdict.ok and not verdict.accepted and calls[1].rc == 1
    # the same request left unperturbed passes, which the oracle must call a failure
    workload.perturb = lambda i: None
    _, unperturbed = workload.run(3, worker.call)
    assert not unperturbed.ok


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
