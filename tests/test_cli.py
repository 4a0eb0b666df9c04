import dataclasses
import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qsk
import qsk.satwap
import qsk.selftest
import qsk.sos
from qsk.bell import correlators_from_realization, sample_statistics
from qsk.canonical import ideal_realization
from qsk.cli import (
    ALL_SELECTORS,
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    CheckResult,
    build_parser,
    build_verification_report,
    canonical_dumps,
    load_realization,
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
        correlators_from_realization(reparsed) - correlators_from_realization(r)
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
    assert set(report["extraction"]) == {"fidelity", "aux_dims", "residuals"}


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


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_bounds_fails_when_the_closed_form_misses_the_enumeration(fmt, monkeypatch, capsys):
    original = qsk.satwap.classical_bound
    shifted = {d: original(d) + 1e-6 * (d == 5) for d in range(2, 10)}
    monkeypatch.setattr(qsk.satwap, "classical_bound", shifted.__getitem__)
    assert main(["bounds", "--d-max", "9", "--format", fmt]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "FAIL: d=5: the brute-force classical bound misses the closed form by 1.000e-06 "
        "(tolerance 1.0e-09)"
    ]
    # every row is still written, the failing one as computed
    assert len(captured.out.splitlines()) == (1 if fmt == "json" else 9)
    if fmt == "json":
        assert json.loads(captured.out)[3]["classical_bound"] == original(5) + 1e-6


def test_simulate_deterministic_and_calibrated(tmp_path, capsys):
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    argv = ["simulate", "--d", "3", "--shots", "1000000", "--seed", "11"]
    assert main(argv + ["--out", str(path1)]) == EXIT_OK
    assert main(argv + ["--out", str(path2)]) == EXIT_OK
    assert path1.read_bytes() == path2.read_bytes()
    payload = json.loads(path1.read_text())
    assert abs(payload["estimate"] - 4.0) <= 5 * payload["standard_error"]


# id -> (d, shots, seed, standard-error floor or None when the run is
# refused, the refusal's reason); the first seven runs sample every setting.
# Seed 58 is the first seed from 0 whose 10 shots at d = 2 give each of the
# four settings a nonzero sample variance
def _one_weight(x: int, y: int) -> str:
    return f"setting ({x},{y}) drew its shots from cells of one weight: zero sample variance from"


SMALL_SHOT_RUNS = {
    "d2-shots10-seed58": (2, 10, 58, 0.1, None),
    "d2-shots10-seed4": (2, 10, 4, None, _one_weight(0, 0)),
    "d2-shots10-seed6": (2, 10, 6, None, _one_weight(1, 1)),
    "d3-shots7-seed21": (3, 7, 21, None, _one_weight(0, 0)),
    "d2-shots14-seed92": (2, 14, 92, None, _one_weight(0, 0)),
    "d3-shots5-seed108": (3, 5, 108, None, _one_weight(0, 0)),
    "d3-shots8-seed5": (3, 8, 5, None, _one_weight(0, 0)),
    "d2-shots10-seed3": (2, 10, 3, None, "setting (0,0) drew none of the"),
    "d3-shots4-seed1": (3, 4, 1, None, "setting (0,0) drew none of the"),
    "d3-shots5-seed30": (3, 5, 30, None, "setting (1,1) drew none of the"),
    "d4-shots5-seed1": (4, 5, 1, None, "setting (0,0) drew none of the"),
    "d5-shots2-seed28": (5, 2, 28, None, "setting (0,0) drew none of the"),
}


@pytest.mark.parametrize("fmt", ["json", "summary"])
@pytest.mark.parametrize(
    "d,shots,seed,se_floor,refusal", list(SMALL_SHOT_RUNS.values()), ids=list(SMALL_SHOT_RUNS)
)
def test_simulate_small_shot_count_well_formed(
    d, shots, seed, se_floor, refusal, fmt, tmp_path, capsys
):
    # A run whose estimate or error the sample cannot carry is refused:
    # a setting that drew no shot would add 0 to the estimate, not
    # (d - 1)/2, and nothing to its standard error (d = 3, 4 shots, seed 1
    # reported 1.366 +- 5.6e-17 against a bound of 4); and when one
    # setting's shots land on cells of one weight, its variance reads zero
    # although the true one is (d^2 - 1)/12, so the error leaves its spread
    # out (d = 3, 7 shots, seed 21, all four settings so, reported
    # 5.464102 +- 0.000000 against a bound of 4; d = 2, 10 shots, seed 4,
    # three of four, reported an error of 0.306 from one setting's spread).
    # The refusal names the first such setting.  The run that is kept has a
    # wide plug-in standard error from 10 shots
    out = tmp_path / "simulate.json"
    argv = ["simulate", "--d", str(d), "--shots", str(shots), "--seed", str(seed)]
    code = main([*argv, "--format", fmt, "--out", str(out)])
    if refusal is not None:
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            f"error: {refusal} {shots} shots; use more --shots"
        ]
        return
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    if fmt == "json":
        assert capsys.readouterr().out == out.read_text()
    assert np.isfinite(payload["standard_error"])
    assert payload["standard_error"] >= se_floor
    assert np.array(payload["frequencies"]).shape == (2, 2, d, d)
    assert np.isfinite(payload["estimate"])


def test_simulate_at_d_56_exits_0(capsys):
    # the probability form's Fourier exponents are reduced mod d, so its
    # imaginary residue stays under the 1e-12 gate at d = 56 and beyond
    assert main(["simulate", "--d", "56", "--shots", "1000", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["d"] == 56


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


def test_one_parser_serves_every_main_call(capsys):
    argv = ["bounds", "--d-min", "2", "--d-max", "4", "--format", "json"]
    fresh = build_parser.__wrapped__().parse_args(argv)
    assert fresh.func(fresh) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["bounds", "--bogus"]) == EXIT_INPUT_ERROR == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert main(["--help"]) == EXIT_OK == 0
    assert capsys.readouterr().out.startswith("usage: qsk")
    assert build_parser() is build_parser()


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


@pytest.mark.parametrize("d", [1, 0, -2])
def test_verify_file_with_d_below_two_is_an_input_error(d, tmp_path, capsys):
    path = _write_realization(tmp_path, d=d)
    assert main(["verify", "--file", path, "--format", "json"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: d must be >= 2, got {d}\n"
    assert captured.out == ""


@pytest.mark.parametrize("group", [[], ["--extract"], ["--bounds"]])
def test_verify_file_relabelled_to_another_d_names_the_observable(group, tmp_path, capsys):
    # a d = 3 scramble read at d = 2: no observable is of order 2
    payload = realization_to_json(scramble(ideal_realization(3), 2, 1, seed=5))
    payload["d"] = 2
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--file", str(path), *group, "--format", "json"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    # |U^2 - I| of U = G (Z (x) 1_2) G^dag is that of Z (x) 1_2: sqrt(2 (0 + 3 + 3))
    assert line.startswith(
        "error: observable A1 is not an order-2 observable: |U^2 - I| = 3.464e+00 ("
    )


def test_verify_file_that_does_not_exist_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["verify", "--file", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert str(path) in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["scramble", "--d", "3"],
        # every setting draws a shot, so the run fails on the path, not the sample
        ["simulate", "--d", "2", "--shots", "1000"],
    ],
    ids=["scramble", "simulate"],
)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_an_input_error(argv, target, tmp_path, capsys):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_verify_file_with_non_integral_dims_is_an_input_error(tmp_path, capsys):
    path = _write_realization(tmp_path, dims=[2.5, 2])
    assert main(["verify", "--file", path]) == EXIT_INPUT_ERROR
    assert "dims must be an integer" in capsys.readouterr().err


def test_scramble_rejects_nonpositive_aux_dimension(capsys):
    assert main(["scramble", "--d", "3", "--aux-a", "0"]) == EXIT_INPUT_ERROR
    assert "aux dimensions must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--aux-a", "--aux-b"])
def test_scramble_rejects_oversized_aux_dimension_before_allocating(option, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("scramble ran")

    monkeypatch.setattr(qsk.selftest, "scramble", forbidden)
    assert main(["scramble", "--d", "3", option, "3000000"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {option} 3000000 at --d 3 gives a party of dimension 9000000, above 8192"
    ]
    assert "Traceback" not in captured.err and captured.out == ""
    # the largest party the bound admits still reaches scramble
    with pytest.raises(AssertionError, match="scramble ran"):
        main(["scramble", "--d", "2", option, "4096"])


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


# doubles where float.__repr__ changes form: signed zeros, subnormals, the
# smallest normal, integral values, and the switches to exponent form at
# 1e16 and below 1e-04
REPR_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -2.0, 3.0,
    1e15, 9999999999999998.0, 1e16, 1.0000000000000002e16, 1e22, 1e300,
    1e-4, 9.999999999999999e-05, 1.0000000000000001e-04, 1e-05, 1.5e-05, 1 / 3, 0.1,
)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
        elements=st.one_of(
            st.sampled_from(REPR_EDGES), st.floats(allow_nan=False, allow_infinity=False)
        ),
    )
)
def test_array_values_are_written_as_the_stdlib_writes_their_lists(a):
    # arrays as top-level values whose keys sort before, between and after
    # the scalar keys
    payload = {"m": a, "a": a.T, "z": a[..., ::-1], "f": -0.0, "s": [1, {"b": "x"}], "t": None}
    listed = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    expected = json.dumps(listed, sort_keys=True, separators=(",", ":")) + "\n"
    assert canonical_dumps(payload) == expected


@pytest.mark.parametrize(
    "payload",
    [
        np.zeros(2),
        [np.zeros(2)],
        {"a": {"b": np.zeros(2)}},
        {"n": np.int64(3)},
        {"p": np.bool_(True)},
        {"a": np.zeros(2), "n": np.int64(3)},
    ],
    ids=["bare-array", "array-in-list", "array-in-nested-dict", "int64", "bool_", "int64-beside-array"],
)
def test_canonical_dumps_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload)
    with pytest.raises(TypeError):
        canonical_dumps(payload)


def test_check_result_passed_is_a_python_bool():
    # a numpy float64 residual compares to a numpy.bool_, which json refuses
    assert CheckResult("x", np.float64(0.0), 1e-9).passed is True
    assert CheckResult("x", np.float64(1.0), 1e-9).passed is False


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_dumps_refuses_non_finite_array_values(bad):
    a = np.full((2, 3), 0.25)
    a[1, 2] = bad
    with pytest.raises(ValueError):
        canonical_dumps({"frequencies": a})


def test_canonical_dumps_writes_only_float64_arrays():
    # as json.dumps refuses any ndarray: no integer, complex or 0-d array is written
    for a in (np.arange(3), np.zeros(2, dtype=complex), np.array(0.5)):
        with pytest.raises(TypeError):
            canonical_dumps({"a": a})


@pytest.mark.parametrize("d", [2, 3])
def test_simulate_json_is_the_stdlib_encoding_of_its_listed_payload(d, tmp_path, capsys):
    path = tmp_path / "sim.json"
    argv = ["simulate", "--d", str(d), "--shots", "100000", "--seed", "5", "--format", "json"]
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    payload = json.loads(text)
    freqs, counts = sample_statistics(ideal_realization(d), 100000, 5)
    payload["setting_counts"] = counts.tolist()
    payload["frequencies"] = freqs.tolist()
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_text() == text


# Costs are upper bounds read at numpy's own entry points by the ``cost``
# fixture (tests/conftest.py), never by counting a qsk binding's calls.  Every
# closed-form object is built from np.exp elements, and every power stack (of
# a correlator tensor, a spectral projector or a Bell-operator grouping) from
# np.matmul products, so an object built twice or a realization's powers
# raised twice show in those meters.  Each bound is the count the command
# spent when the bound was set, so any rise fails.


# --all at d = 4 builds the canonical realization once: its closed forms are
# 45 of the 406 exp elements, so a second build reads 451.  --cyclotomic
# builds nothing: no exp element, and at d = 512 a traced peak of 0.02 MiB,
# where one (512, 512) complex matrix of the realization takes 4 MiB
@pytest.mark.parametrize("group,builds", [("--all", (4, 406)), ("--cyclotomic", (512, 0))])
def test_verify_builds_the_canonical_realization_at_most_once(group, builds, cost, capsys):
    d, exponentials = builds
    with cost.traced():
        assert main(["verify", "--d", str(d), group, "--format", "json"]) == EXIT_OK
    assert cost.exponentials <= exponentials
    if group == "--cyclotomic":
        assert cost.stacks(1, d) < 1


CERTIFY_ARGV = ["--bounds", "--sos", "--traces", "--cglmp", "--randomness", "--cyclotomic"]


# exp elements per command, each canonical object built once: a second
# canonical.w1_w2(16) in the certify request adds 512 (3090 -> 3602)
@pytest.mark.parametrize(
    "argv,exponentials",
    [
        (["verify", "--d", "16", *CERTIFY_ARGV], 3090),
        (["verify", "--file", "{scrambled}", "--extract"], 413),
        (["verify", "--d", "6", "--all"], 805),
        (["simulate", "--d", "40", "--shots", "1000"], 6760),
    ],
    ids=["certify", "extract-file", "all", "simulate"],
)
def test_each_command_builds_each_canonical_object_once(argv, exponentials, tmp_path, cost, capsys):
    scrambled = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "6", "--aux-a", "4", "--aux-b", "2", "--out", str(scrambled)]) == EXIT_OK
    cost.clear()
    argv = [a.format(scrambled=scrambled) for a in argv]
    assert main([*argv, "--format", "json"]) == EXIT_OK
    assert cost.exponentials <= exponentials


# Eigensolves and power products by matrix size.  Each eig_unitary raises
# its observable to its d - 1 powers for the projectors, and each correlator
# tensor raises the realization's four observables, so a correlator tensor
# computed twice for one realization adds 2(d - 1) products per party.  The
# canonical realizations supply Bob's bases, so only the ideal Alice pair is
# solved, and the trace checks read only Bob's pair.  The scrambled file
# holds Alice's pair at n = 24 and Bob's at n = 12.  --bounds on a file
# spends the load gate's four eigensolves and one correlator tensor.
# --extract decomposes both pairs again inside extract (a known double
# validation, see CHANGES.md) and adds the rotated realization's
# correlators; ROADMAP 3b, validate filling the cache that extract reads,
# tightens that row from 8 eigensolves to 4.  The Born tables, whose
# products numpy's entry points do not see, are held to one per
# realization by
# tests/test_kernels.py::test_each_realization_computes_its_born_table_once
@pytest.mark.parametrize(
    "argv,products,eigensolves",
    [
        (["verify", "--d", "16", *CERTIFY_ARGV], {16: 330}, {16: 2}),
        (["verify", "--file", "{scrambled}", "--extract"], {24: 40, 12: 40}, {24: 4, 12: 4}),
        (["verify", "--file", "{scrambled}", "--bounds"], {24: 20, 12: 20}, {24: 2, 12: 2}),
        (["verify", "--d", "6", "--all"], {6: 110, 12: 60}, {6: 2, 12: 4}),
        (["simulate", "--d", "40", "--shots", "1000"], {40: 78}, {40: 2}),
        (["verify", "--d", "8", "--traces"], {}, {}),
    ],
    ids=["certify", "extract-file", "bounds-file", "all", "simulate", "traces"],
)
def test_each_command_computes_each_realizations_statistics_once(
    argv, products, eigensolves, tmp_path, cost, capsys
):
    scrambled = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "6", "--aux-a", "4", "--aux-b", "2", "--out", str(scrambled)]) == EXIT_OK
    cost.clear()
    argv = [a.format(scrambled=scrambled) for a in argv]
    assert main([*argv, "--format", "json"]) == EXIT_OK
    assert cost.products <= Counter(products)
    assert cost.sizes() <= Counter(eigensolves)


def test_verify_file_extract_verifies_each_party_once(tmp_path, cost, capsys):
    # one rotated realization per extraction, read by both verifications and
    # by the report's statistics check, so its powers are raised once, for
    # its correlators: 40 products at n = 24 and 40 at n = 12 for the file
    # (each pair decomposed twice, then the correlators of the file and of
    # its rotation), 20 at n = 6 and 60 at n = 12 for verify --d 6 --extract,
    # which also scrambles.  Which object a verification reads is no cost
    # numpy sees, so each report is held to one extract call on its input:
    # its observable residuals are those of the rotated realization that the
    # result carries against the ideal pairs (x) I, Bob's first, and its
    # fidelity is that realization's.  cli binds no rotation of its own
    scrambled = tmp_path / "scrambled.json"
    assert main(["scramble", "--d", "6", "--aux-a", "4", "--aux-b", "2", "--out", str(scrambled)]) == EXIT_OK
    capsys.readouterr()
    assert not hasattr(qsk.cli, "canonicalized_realization")
    ideal = ideal_realization(6)
    for argv, products, source in (
        (["verify", "--file", str(scrambled), "--extract"], {24: 40, 12: 40},
         lambda: load_realization(str(scrambled))),
        (["verify", "--d", "6", "--extract"], {6: 20, 12: 60}, lambda: scramble(ideal, 2, 2, 0)),
    ):
        cost.clear()
        assert main([*argv, "--format", "json"]) == EXIT_OK
        assert cost.products <= Counter(products)
        extraction = json.loads(capsys.readouterr().out)["extraction"]
        result = qsk.selftest.extract(source())
        canon = result.canonical
        residuals = {
            f"{party}_observable_{i}": float(np.linalg.norm(o - np.kron(target, np.eye(n // 6))))
            for party, pair, targets, n in (
                ("bob", canon.observables_b, ideal.observables_b, canon.dims[1]),
                ("alice", canon.observables_a, ideal.observables_a, canon.dims[0]),
            )
            for i, (o, target) in enumerate(zip(pair, targets), 1)
        }
        assert list(result.residuals)[1:5] == list(residuals)
        assert all(result.residuals[k] == extraction["residuals"][k] == v for k, v in residuals.items())
        assert extraction["fidelity"] == qsk.selftest.canonicalize_state(canon)[0]


def test_verify_sos_builds_each_grouping_once(cost):
    # bob and alice groupings of the canonical realization, shared by its
    # residual and stabilizer checks, and of the random realization: four
    # groupings of 12 products each at d = 4, and two more would read 72
    assert main(["verify", "--d", "4", "--sos", "--format", "json"]) == EXIT_OK
    assert cost.products <= Counter({4: 48})


def test_a_bare_memory_error_says_memory_ran_out(monkeypatch, capsys):
    # LAPACK's failed workspace allocation (init_geqrf) raises MemoryError()
    # with no message; the error line must still say what went wrong
    def out_of_memory(ls, rs):
        raise MemoryError()

    monkeypatch.setattr(qsk.sos, "kron_sum_norm", out_of_memory)
    assert main(["verify", "--d", "3", "--sos"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: out of memory"]
    assert captured.out == ""


def test_help_returns_exit_code_0(capsys):
    # argparse exits after printing the help; main returns that code instead
    assert main(["--help"]) == EXIT_OK
    assert "usage: qsk" in capsys.readouterr().out


def test_python_dash_m_qsk_runs_without_runtime_warning():
    env = {"PYTHONPATH": str(Path(qsk.__file__).parents[1]), "PATH": ""}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qsk", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert "usage: qsk" in proc.stdout


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
    return {**result, list(result)[-1]: nan}


SOS_POISONS = [
    ("sos_residual_bob", 1, "sos-operator-identity-random"),
    ("sos_residual_alice", 1, "sos-operator-identity-random"),
    ("stabilizer_residuals", 0, "sos-stabilizers-canonical"),
    ("stabilizer_residuals", 1, "sos-stabilizers-canonical"),
    ("check_trace_conditions", 0, "trace-conditions-canonical"),
    ("check_trace_conditions", 1, "trace-conditions-canonical"),
    ("check_intermediate_identities", 0, "trace-identities"),
    ("check_root_identities", 0, "root-identities"),
]


def _poison_sos(monkeypatch, fn, call):
    """Make call number ``call`` (from 0) of ``qsk.sos.<fn>`` return a NaN last residual."""
    original = getattr(qsk.sos, fn)
    calls = []

    def poisoned(*args):
        calls.append(fn)
        result = original(*args)
        return _poison_last(result) if len(calls) == call + 1 else result

    monkeypatch.setattr(qsk.sos, fn, poisoned)


def _poison_extraction(monkeypatch, key):
    """Make ``qsk.selftest.extract`` report a NaN for its residual ``key``."""
    original = qsk.selftest.extract

    def poisoned(*args):
        result = original(*args)
        return dataclasses.replace(result, residuals={**result.residuals, key: float("nan")})

    monkeypatch.setattr(qsk.selftest, "extract", poisoned)


def _failed_json_report(argv, capsys) -> dict:
    """Run ``verify`` in JSON; it must exit 1 with stdlib canonical JSON, no NaN token."""
    assert main(["verify", *argv, "--format", "json"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert "NaN" not in out and report["pass"] is False
    return report


@pytest.mark.parametrize("fn,call,check", SOS_POISONS)
def test_a_nan_residual_fails_the_check_that_aggregates_it(fn, call, check, monkeypatch):
    _poison_sos(monkeypatch, fn, call)
    report = build_verification_report(4, ("sos", "traces"))
    (result,) = [c for c in report.checks if c.name == check]
    assert np.isnan(result.residual) and not result.passed
    assert not report.passed


@pytest.mark.parametrize("fn,call,check", SOS_POISONS)
def test_a_nan_residual_is_a_null_failing_check_in_json(fn, call, check, monkeypatch, capsys):
    _poison_sos(monkeypatch, fn, call)
    report = _failed_json_report(["--d", "4", "--sos", "--traces"], capsys)
    (result,) = [c for c in report["checks"] if c["name"] == check]
    assert result["residual"] is None and result["pass"] is False


@pytest.mark.parametrize("key", ["bob_observable_1", "alice_observable_2"])
def test_a_nan_extraction_residual_fails_extraction_observables(key, monkeypatch):
    _poison_extraction(monkeypatch, key)
    report = build_verification_report(3, ("extract",))
    (result,) = [c for c in report.checks if c.name == "extraction-observables"]
    assert np.isnan(result.residual) and not result.passed


@pytest.mark.parametrize("key", ["bob_observable_1", "alice_observable_2"])
def test_a_nan_extraction_residual_is_null_in_json(key, monkeypatch, capsys):
    _poison_extraction(monkeypatch, key)
    report = _failed_json_report(["--d", "3", "--extract"], capsys)
    (result,) = [c for c in report["checks"] if c["name"] == "extraction-observables"]
    assert result["residual"] is None and result["pass"] is False
    assert report["extraction"]["residuals"][key] is None


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
def test_a_non_finite_residual_never_passes(residual):
    check = CheckResult("root-identities", residual, 1e-8)
    assert not check.passed
    assert check.to_json() == {
        "name": "root-identities", "residual": None, "tolerance": 1e-8, "pass": False
    }


@pytest.mark.parametrize("group", ["sos", "traces", "cglmp", "randomness", "cyclotomic"])
def test_verify_file_refuses_a_group_of_the_canonical_realization(group, tmp_path, capsys):
    # these groups never read the file, so a report of the file alone would
    # pass without running what was asked for
    path = _scrambled_d4(tmp_path)
    capsys.readouterr()
    for argv in ([f"--{group}"], ["--all", f"--{group}"]):
        assert main(["verify", "--file", str(path), *argv, "--format", "json"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --{group} cannot be used with --file: "
            "only --bounds and --extract read a realization file"
        ]
        assert captured.out == ""


def test_verify_file_keeps_the_meaning_of_all_and_of_no_selector(tmp_path, capsys):
    path = _scrambled_d4(tmp_path)
    outputs = []
    for argv in (["--extract"], ["--all"], []):
        capsys.readouterr()
        assert main(["verify", "--file", str(path), *argv, "--format", "json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    names = [c["name"] for c in json.loads(outputs[0])["checks"]]
    assert names[0] == "maximal-violation" and set(names) == FILE_CHECKS


@pytest.mark.parametrize("argv", [["scramble", "--d", "3"], ["verify", "--d", "3", "--extract"]])
def test_a_scrambling_defect_is_an_input_error(argv, monkeypatch, capsys):
    # a non-unitary "Haar" draw changes the correlations; scramble's drift
    # gate must end the command with one error line, not a traceback
    monkeypatch.setattr(qsk.selftest, "haar_random_unitary", lambda n, rng: 2 * np.eye(n))
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: scrambling changed the correlations by 7.625e+02"]
    assert captured.out == ""


def test_all_report_is_the_concatenation_of_the_single_group_reports():
    # catches a reordered or dropped group and a summary field written by
    # the wrong group
    assert ALL_SELECTORS == ("bounds", "sos", "traces", "cglmp", "extract", "randomness", "cyclotomic")
    everything = build_verification_report(3, ALL_SELECTORS, seed=3)
    singles = [build_verification_report(3, (s,), seed=3) for s in ALL_SELECTORS]
    assert [c.name for c in everything.checks] == [c.name for r in singles for c in r.checks]
    assert list(everything.summary) == [key for r in singles for key in r.summary]
    assert everything.checks == [c for r in singles for c in r.checks]
    assert everything.summary == {k: v for r in singles for k, v in r.summary.items()}
    base = {"tool", "version", "d", "seed", "checks", "pass"}
    assert set(everything.to_json()) == base | set(everything.summary)


@pytest.mark.parametrize("d", ["4", "5"])
def test_verify_refuses_both_d_and_file(d, tmp_path, capsys):
    # --file fixes d; a --d beside it, even an agreeing one, would be ignored
    path = _scrambled_d4(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--d", d, "--file", str(path), "--bounds"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].endswith("argument --file: not allowed with argument --d")
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["0", "7"])
def test_verify_file_refuses_an_explicit_seed(seed, tmp_path, capsys):
    # no check of a file reads the seed, so a report could not honour it
    path = _scrambled_d4(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--file", str(path), "--bounds", "--seed", seed]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: --seed cannot be used with --file: no check of a file reads it"
    ]
    assert captured.out == ""
    assert main(["verify", "--file", str(path), "--bounds", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 0
