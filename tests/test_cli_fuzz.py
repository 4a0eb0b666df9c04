"""Hostile realization files: every mutation exits 0, 1 or 2 without a traceback.

A valid scrambled realization (d = 2, aux 2x1) is mutated one way per
example: a key dropped, one numeric leaf replaced by a non-finite value, a
400-digit integer, a boolean, a string, ``null`` or a list, a row made
ragged, ``dims`` rewritten, or ``d`` replaced by a non-integral or
out-of-range value.  ``verify --file
--extract`` must answer with an exit code in {0, 1, 2} and an error line,
never an uncaught exception, and no file carrying a non-finite number may
exit 0.  Command lines whose arrays could not fit in memory exit 2 the same
way.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsk.canonical import ideal_realization
from qsk.cli import EXIT_OK, main, realization_to_json
from qsk.selftest import scramble

BASE = realization_to_json(scramble(ideal_realization(2), 2, 1, seed=11))
KEYS = ("d", "dims", "state", "A", "B")
BAD_LEAVES = (math.nan, math.inf, -math.inf, "0.5", None, [1.0], 1e308, 10**400, True)
BAD_D = (2.5, 2.0, "2", None, True, [2], 0, 1, -2, 3, 7)
BAD_DIMS = ([2, 4], [4], [4, 2, 1], [0, 8], [-2, -4], [4.0, 2], ["4", 2], None)


def _leaf_paths(node, path=()):
    """Paths to every number under the state and observables."""
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


def _row_paths(node, path=()):
    """Paths to every list of [re, im] pairs (state vector or matrix row)."""
    if isinstance(node, list) and node and isinstance(node[0], list):
        if isinstance(node[0][0], list):
            for i, child in enumerate(node):
                yield from _row_paths(child, path + (i,))
        else:
            yield path


def _get(node, path):
    for i in path:
        node = node[i]
    return node


LEAVES = [(key,) + p for key in ("state", "A", "B") for p in _leaf_paths(BASE[key])]
ROWS = [(key,) + p for key in ("state", "A", "B") for p in _row_paths(BASE[key])]


@st.composite
def mutations(draw):
    data = json.loads(json.dumps(BASE))
    kind = draw(st.sampled_from(("drop", "leaf", "ragged", "dims", "d")))
    non_finite = False
    if kind == "drop":
        del data[draw(st.sampled_from(KEYS))]
    elif kind == "leaf":
        path = draw(st.sampled_from(LEAVES))
        value = draw(st.sampled_from(BAD_LEAVES))
        _get(data, path[:-1])[path[-1]] = value
        non_finite = isinstance(value, float) and not math.isfinite(value)
    elif kind == "ragged":
        row = _get(data, draw(st.sampled_from(ROWS)))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append([0.0, 0.0])
    elif kind == "dims":
        data["dims"] = draw(st.sampled_from(BAD_DIMS))
    else:
        data["d"] = draw(st.sampled_from(BAD_D))
    return kind, data, non_finite


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_unmutated_base_file_is_accepted(workdir):
    path = workdir / "base.json"
    path.write_text(json.dumps(BASE))
    assert main(["verify", "--file", str(path), "--extract"]) == EXIT_OK


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutations())
def test_mutated_realization_files_fail_safely(workdir, mutation):
    kind, data, non_finite = mutation
    path = workdir / "mutated.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--file", str(path), "--extract", "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if non_finite:
        assert code != EXIT_OK
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: ")
    if kind in ("drop", "ragged", "dims"):
        assert code != EXIT_OK


ENTRY_PATHS = pytest.mark.parametrize(
    "path", [("state", 0, 0), ("A", 0, 0, 0, 0), ("B", 1, 1, 0, 1)], ids=["state", "A1", "B2"]
)


def _verify_with_entry(workdir, path, value):
    """Exit code and stderr lines of ``verify --file`` with one leaf replaced by ``value``."""
    data = json.loads(json.dumps(BASE))
    _get(data, path[:-1])[path[-1]] = value
    file = workdir / "entry.json"
    file.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--file", str(file), "--extract", "--format", "json"])
    return code, err.getvalue().splitlines()


@ENTRY_PATHS
def test_huge_finite_entry_exits_2_without_a_warning(workdir, path):
    # 1e308 is finite, so it passes the finiteness gate; squaring it in the
    # norm and unitarity gates overflows, which must reject quietly
    code, lines = _verify_with_entry(workdir, path, 1e308)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")


@ENTRY_PATHS
@pytest.mark.parametrize(
    "value,message",
    [(10**400, "too large for a double"), (True, "not a number"), (False, "not a number")],
    ids=["int-400-digits", "true", "false"],
)
def test_entry_that_is_no_double_exits_2(workdir, path, value, message):
    # complex() overflows on a 400-digit integer; JSON true/false would read as 1/0
    code, lines = _verify_with_entry(workdir, path, value)
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "argv,message",
    [
        # the aux dimensions are bounded on the command line, before scramble runs
        (
            ["scramble", "--d", "3", "--aux-a", "3000000", "--aux-b", "3000000"],
            "error: --aux-a 3000000 at --d 3 gives a party of dimension 9000000, above 8192",
        ),
        # numpy refuses each request (tens of TiB) before allocating anything
        (["verify", "--d", "1000000", "--traces"], "error: Unable to allocate"),
        (["simulate", "--d", "1000000", "--shots", "10"], "error: Unable to allocate"),
    ],
    ids=["scramble-aux", "verify-d", "simulate-d"],
)
def test_input_too_large_for_memory_exits_2(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(message)
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""
