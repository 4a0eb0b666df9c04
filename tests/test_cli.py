import dataclasses
import json
import math
import random

import numpy as np
import pytest

import qsk
import qsk.canonical
import qsk.selftest
import qsk.sos
from qsk.bell import correlators_from_realization
from qsk.canonical import ideal_realization
from qsk.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    build_verification_report,
    canonical_dumps,
    main,
    realization_from_json,
    realization_to_json,
)
from qsk.satwap import BellFunctional, evaluate
from qsk.selftest import scramble


def test_realization_json_round_trip_is_byte_stable(tmp_path):
    r = scramble(ideal_realization(3), 2, 1, seed=5)
    payload = realization_to_json(r, metadata={"note": "round-trip"})
    first = canonical_dumps(payload)
    reparsed = realization_from_json(json.loads(first))
    second = canonical_dumps(realization_to_json(reparsed, metadata={"note": "round-trip"}))
    assert first == second
    # and the physics survives
    drift = np.abs(
        correlators_from_realization(reparsed).values - correlators_from_realization(r).values
    ).max()
    assert drift < 1e-12


def test_realization_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        realization_from_json({"d": 2, "dims": [2, 2]})


@pytest.mark.parametrize("d", [4, 5])
def test_verify_canonical_all_checks(d, capsys):
    code = main(["verify", "--d", str(d), "--all", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "overall: pass" in out


def test_verify_json_report(capsys):
    code = main(["verify", "--d", "2", "--bounds", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert abs(report["classical_bound"] - np.sqrt(2)) < 1e-9
    assert report["quantum_bound"] == 2.0
    names = [c["name"] for c in report["checks"]]
    assert "quantum-bound-attained" in names


def test_verify_file_extract(tmp_path, capsys):
    path = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "3", "--aux-a", "2", "--aux-b", "2",
                 "--seed", "7", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    code = main(["verify", "--file", str(path), "--extract", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["extraction"]["fidelity"] >= 1 - 1e-7


def test_verify_corrupted_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 3, "state": "oops"')
    assert main(["verify", "--file", str(path), "--extract"]) == EXIT_INPUT_ERROR


def test_verify_nonviolating_file_fails_checks(tmp_path, capsys):
    r = ideal_realization(2)
    # swap the two Bob observables: unitary order-d but no longer optimal
    swapped = realization_to_json(
        type(r)(
            d=2,
            dims=r.dims,
            state=r.state,
            observables_a=r.observables_a,
            observables_b=(r.observables_b[1], r.observables_b[0]),
        )
    )
    path = tmp_path / "swapped.json"
    path.write_text(canonical_dumps(swapped))
    code = main(["verify", "--file", str(path)])
    assert code == EXIT_CHECK_FAILED
    capsys.readouterr()
    # with --extract the gate failure surfaces as a named stage check
    code = main(["verify", "--file", str(path), "--extract", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_CHECK_FAILED
    assert "error" in report["extraction"]
    assert any(c["name"].startswith("extraction-stage-") for c in report["checks"])


def test_verify_requires_target(capsys):
    assert main(["verify"]) == EXIT_INPUT_ERROR


def test_bounds_table(capsys):
    code = main(["bounds", "--d-min", "2", "--d-max", "3", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert abs(rows[0]["classical_bound"] - 1.414214) < 1e-6
    assert abs(rows[0]["classical_bound_brute_force"] - 1.414214) < 1e-6
    assert rows[0]["quantum_bound"] == 2.0
    assert abs(rows[0]["ratio"] - 1.414214) < 1e-6
    assert abs(rows[1]["classical_bound"] - 3.098076) < 1e-6
    assert abs(rows[1]["ratio"] - 1.291124) < 1e-6


def test_bounds_brute_force_cap_marks_blank(capsys):
    code = main(["bounds", "--d-min", "9", "--d-max", "9"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("9")]
    assert lines and "-" in lines[0]


def test_simulate_deterministic_and_calibrated(tmp_path, capsys):
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    argv = ["simulate", "--d", "3", "--shots", "1000000", "--seed", "11"]
    assert main(argv + ["--out", str(path1)]) == EXIT_OK
    assert main(argv + ["--out", str(path2)]) == EXIT_OK
    assert path1.read_bytes() == path2.read_bytes()
    payload = json.loads(path1.read_text())
    assert abs(payload["estimate"] - 4.0) <= 5 * payload["standard_error"]


def test_simulate_small_shot_count_well_formed(capsys):
    code = main(["simulate", "--d", "2", "--shots", "10", "--seed", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    # plug-in standard error from 10 shots is wide
    assert payload["standard_error"] > 0.1
    assert np.array(payload["frequencies"]).shape == (2, 2, 2, 2)
    assert np.isfinite(payload["estimate"])


def test_simulate_rejects_bad_shots(capsys):
    assert main(["simulate", "--d", "2", "--shots", "0"]) == EXIT_INPUT_ERROR


def test_cyclotomic_command(capsys):
    code = main(["cyclotomic", "--d", "12", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["cyclotomic_coefficients"] == ["1", "0", "-1", "0", "1"]
    assert payload["product_identity"] is True
    assert payload["equal_coefficients_demo"]["accepted"] is True
    assert payload["equal_coefficients_demo"]["constant"] == "5"


def test_scramble_to_stdout(capsys):
    code = main(["scramble", "--d", "2", "--seed", "9"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    r = realization_from_json(payload)
    value = evaluate(BellFunctional.satwap(2), correlators_from_realization(r))
    assert abs(value - 2.0) < 1e-9


# Every check's tolerance is a constant of the check (README, "Tolerances");
# maximal-violation's is 1e-6 * d.
TOLERANCES = {
    "quantum-bound-attained": 1e-9,
    "classical-bound-brute-force": 1e-9,
    "sos-bob-canonical": 1e-8,
    "sos-alice-canonical": 1e-8,
    "sos-stabilizers-canonical": 1e-9,
    "sos-operator-identity-random": 1e-8,
    "trace-conditions-canonical": 1e-8,
    "twisted-commutation": 1e-8,
    "trace-identities": 1e-8,
    "root-identities": 1e-8,
    "cglmp-conjugations": 1e-8,
    "alice-rotation": 1e-8,
    "cglmp-vs-canonical-statistics": 1e-8,
    "extraction-fidelity": 1e-7,
    "extraction-observables": 1e-7,
    "extraction-preserves-statistics": 1e-8,
    "uniform-outcomes": 1e-9,
    "guessing-probability": 1e-9,
    "cyclotomic-product-identity": 0.5,
    "equal-coefficients-classifier": 0.5,
    "maximal-violation": 4e-6,  # at d = 4
}


def _scrambled_d4(tmp_path):
    path = tmp_path / "scrambled4.json"
    argv = ["scramble", "--d", "4", "--aux-a", "3", "--aux-b", "2", "--seed", "5"]
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    return path


FILE_CHECKS = {"maximal-violation", "extraction-fidelity", "extraction-observables",
               "extraction-preserves-statistics"}


@pytest.mark.parametrize("source", ["all", "file"])
def test_every_reported_tolerance_is_fixed(source, tmp_path, capsys):
    if source == "all":
        argv, names = ["verify", "--d", "4", "--all"], set(TOLERANCES) - {"maximal-violation"}
    else:
        argv, names = ["verify", "--file", str(_scrambled_d4(tmp_path)), "--extract"], FILE_CHECKS
    capsys.readouterr()
    assert main([*argv, "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "tol_scale" not in report
    reported = {c["name"]: c["tolerance"] for c in report["checks"]}
    assert reported == {name: TOLERANCES[name] for name in names}


def test_perturbed_file_fails_at_maximal_violation(tmp_path, capsys):
    # the state noise of the benchmark's rejected extract requests
    path = _scrambled_d4(tmp_path)
    data = json.loads(path.read_text())
    rng = random.Random("perturb")
    state = [[re + rng.gauss(0, 0.01), im + rng.gauss(0, 0.01)] for re, im in data["state"]]
    norm = math.sqrt(math.fsum(re * re + im * im for re, im in state))
    data["state"] = [[re / norm, im / norm] for re, im in state]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--file", str(path), "--bounds", "--format", "json"])
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert code == EXIT_CHECK_FAILED
    assert check["name"] == "maximal-violation" and check["pass"] is False
    assert check["tolerance"] == 4e-6 < check["residual"]


def test_no_option_scales_the_tolerances(capsys):
    assert main(["verify", "--d", "3", "--tol-scale", "10"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --tol-scale 10" in err
    assert "Traceback" not in err


def _write_realization(tmp_path, **changes):
    payload = realization_to_json(ideal_realization(2))
    payload.update(changes)
    path = tmp_path / "edited.json"
    # plain json.dumps: canonical_dumps refuses the NaN some of these files carry
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_file_with_nan_state_is_an_input_error(tmp_path, capsys):
    state = realization_to_json(ideal_realization(2))["state"]
    state[0] = [float("nan"), 0.0]
    path = _write_realization(tmp_path, state=state)
    assert "NaN" in open(path).read()
    assert main(["verify", "--file", path, "--extract", "--format", "json"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


def test_verify_file_with_non_integral_d_is_an_input_error(tmp_path, capsys):
    path = _write_realization(tmp_path, d=2.7)
    assert main(["verify", "--file", path]) == EXIT_INPUT_ERROR
    assert "d must be an integer" in capsys.readouterr().err


def test_verify_file_with_non_integral_dims_is_an_input_error(tmp_path, capsys):
    path = _write_realization(tmp_path, dims=[2.5, 2])
    assert main(["verify", "--file", path]) == EXIT_INPUT_ERROR
    assert "dims must be an integer" in capsys.readouterr().err


def test_scramble_rejects_nonpositive_aux_dimension(capsys):
    assert main(["scramble", "--d", "3", "--aux-a", "0"]) == EXIT_INPUT_ERROR
    assert "aux dimensions must be positive" in capsys.readouterr().err


def test_scramble_rejects_negative_seed(capsys):
    assert main(["scramble", "--d", "3", "--seed", "-1"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bounds", "--d-min", "0"], "--d-min must be >= 2, got 0"),
        (["bounds", "--d-min", "3", "--d-max", "2"], "--d-min 3 exceeds --d-max 2"),
        (["simulate", "--d", "1", "--shots", "10"], "--d must be >= 2, got 1"),
        (["scramble", "--d", "1"], "--d must be >= 2, got 1"),
    ],
)
def test_out_of_range_d_is_an_input_error(argv, message, capsys):
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--d", "3", "--sos", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["simulate", "--d", "2", "--shots", "0"], f"--shots must be in 1..{2**63 - 1}, got 0"),
        (
            ["simulate", "--d", "2", "--shots", str(2**63)],
            f"--shots must be in 1..{2**63 - 1}, got {2**63}",
        ),
        (["simulate", "--d", "2", "--shots", "10", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
)
def test_out_of_range_option_is_an_input_error(argv, message, capsys):
    # more than 2^63 - 1 shots overflow the sampler's int64 counts; a negative
    # seed would reach numpy's Philox, whose message does not name the option
    assert main([*argv, "--format", "json"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_canonical_dumps_refuses_non_finite_floats():
    with pytest.raises(ValueError):
        canonical_dumps({"residual": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps({"tolerance": float("inf")})


@pytest.mark.parametrize("group,builds", [("--all", [4]), ("--cyclotomic", [])])
def test_verify_builds_the_canonical_realization_at_most_once(group, builds, monkeypatch, capsys):
    calls = []

    def counted(d):
        calls.append(d)
        return ideal_realization(d)

    monkeypatch.setattr(qsk.canonical, "ideal_realization", counted)
    assert main(["verify", "--d", "4", group, "--format", "json"]) == EXIT_OK
    assert calls == builds


CERTIFY_ARGV = ["--bounds", "--sos", "--traces", "--cglmp", "--randomness", "--cyclotomic"]
BUILDERS = ("z_observable", "t_observable", "w1_w2", "cglmp_observables")


@pytest.mark.parametrize(
    "argv,counts",
    [
        (["verify", "--d", "16", *CERTIFY_ARGV], (1, 1, 1, 1)),
        (["verify", "--file", "{scrambled}", "--extract"], (1, 1, 1, 0)),
        (["verify", "--d", "6", "--all"], (1, 1, 2, 1)),
        (["simulate", "--d", "40", "--shots", "1000"], (1, 1, 0, 0)),
    ],
    ids=["certify", "extract-file", "all", "simulate"],
)
def test_each_command_builds_each_canonical_object_once(argv, counts, tmp_path, monkeypatch, capsys):
    scrambled = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "6", "--aux-a", "4", "--aux-b", "2", "--out", str(scrambled)]) == EXIT_OK
    calls = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        original = getattr(qsk.canonical, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(qsk.canonical, name, counted)
    argv = [a.format(scrambled=scrambled) for a in argv]
    assert main([*argv, "--format", "json"]) == EXIT_OK
    assert tuple(calls[name] for name in BUILDERS) == counts


KERNELS = ("correlators_from_realization", "born_probabilities", "eig_unitary")


@pytest.mark.parametrize(
    "argv,counts",
    [
        (["verify", "--d", "16", *CERTIFY_ARGV], (1, 2, 8)),
        (["verify", "--file", "{scrambled}", "--extract"], (2, 0, 8)),
        (["verify", "--d", "6", "--all"], (3, 2, 12)),
        (["simulate", "--d", "40", "--shots", "1000"], (0, 1, 4)),
    ],
    ids=["certify", "extract-file", "all", "simulate"],
)
def test_each_command_computes_each_realizations_statistics_once(
    argv, counts, tmp_path, monkeypatch, capsys
):
    # one correlator tensor and one Born tensor per realization that needs it,
    # one eigendecomposition of each observable per Born rule and per validation
    scrambled = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "6", "--aux-a", "4", "--aux-b", "2", "--out", str(scrambled)]) == EXIT_OK
    calls = dict.fromkeys(KERNELS, 0)
    for name in KERNELS:
        original = getattr(qsk.bell, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in vars(qsk).values():  # every module that bound the kernel
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    argv = [a.format(scrambled=scrambled) for a in argv]
    assert main([*argv, "--format", "json"]) == EXIT_OK
    assert tuple(calls.values()) == counts


def test_help_returns_exit_code_0(capsys):
    # argparse exits after printing the help; main returns that code instead
    assert main(["--help"]) == EXIT_OK
    assert "usage: qsk" in capsys.readouterr().out


def test_default_json_output_is_byte_identical_across_runs(tmp_path, capsys):
    def run(argv):
        assert main(argv) == EXIT_OK
        return capsys.readouterr().out

    argv = ["verify", "--d", "5", "--all", "--seed", "3", "--format", "json"]
    assert run(argv) == run(argv)
    scrambled = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "4", "--seed", "2", "--out", str(scrambled)]) == EXIT_OK
    capsys.readouterr()
    argv = ["verify", "--file", str(scrambled), "--extract", "--format", "json"]
    first = run(argv)
    assert first == run(argv)
    assert json.loads(first)["pass"] is True


def _poison_last(result):
    """``result`` with its last residual replaced by NaN, where builtin max drops it."""
    nan = float("nan")
    if isinstance(result, float):
        return nan
    if isinstance(result, dict):
        return {**result, list(result)[-1]: nan}
    *head, (n, _) = result.entries
    return dataclasses.replace(result, entries=(*head, (n, nan)))


@pytest.mark.parametrize(
    "fn,call,check",
    [
        ("sos_residual_bob", 1, "sos-operator-identity-random"),
        ("sos_residual_alice", 1, "sos-operator-identity-random"),
        ("stabilizer_residuals", 0, "sos-stabilizers-canonical"),
        ("stabilizer_residuals", 1, "sos-stabilizers-canonical"),
        ("check_trace_conditions", 0, "trace-conditions-canonical"),
        ("check_trace_conditions", 1, "trace-conditions-canonical"),
    ],
)
def test_a_nan_residual_fails_the_check_that_aggregates_it(fn, call, check, monkeypatch):
    original = getattr(qsk.sos, fn)
    calls = []

    def poisoned(*args):
        calls.append(fn)
        result = original(*args)
        return _poison_last(result) if len(calls) == call + 1 else result

    monkeypatch.setattr(qsk.sos, fn, poisoned)
    report = build_verification_report(4, ("sos", "traces"))
    (result,) = [c for c in report.checks if c.name == check]
    assert np.isnan(result.residual) and not result.passed
    assert not report.passed


@pytest.mark.parametrize("key", ["bob_observable_1", "alice_observable_2"])
def test_a_nan_extraction_residual_fails_extraction_observables(key, monkeypatch):
    original = qsk.selftest.extract

    def poisoned(*args):
        result = original(*args)
        return dataclasses.replace(result, residuals={**result.residuals, key: float("nan")})

    monkeypatch.setattr(qsk.selftest, "extract", poisoned)
    report = build_verification_report(3, ("extract",))
    (result,) = [c for c in report.checks if c.name == "extraction-observables"]
    assert np.isnan(result.residual) and not result.passed
