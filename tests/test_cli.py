import json

import numpy as np
import pytest

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
    code = main(["bounds", "--d-min", "9", "--d-max", "9", "--brute-cap", "8"])
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


def test_tol_scale_loosens_checks():
    report = build_verification_report(3, ("bounds",), tol_scale=1e6)
    assert report.passed
    assert all(c.tolerance >= 1e-3 for c in report.checks)


def _write_realization(tmp_path, **changes):
    payload = realization_to_json(ideal_realization(2))
    payload.update(changes)
    path = tmp_path / "edited.json"
    path.write_text(canonical_dumps(payload))
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
